//! `gmc-perfbench`: the repository benchmark. One command runs one
//! seeded workload against the code users run, prints every metric by
//! name and unit, and checks every output it timed.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|serve_hit|serve_mixed --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! Run it from the repository root. The last line of standard output
//! is the result: `correct`, `attempted`, `failed` and the metrics as
//! `{value, unit}`, the end-to-end ones with `--trace 0` and the
//! per-layer ones with `--trace 1`. The line before it is the full
//! `gmc-perfbench/1` report: the host fingerprint (nproc, CPU model,
//! rustc version, git sha), the seed, the operation counts, every
//! metric with its quartiles and sample count, the additivity
//! identities, and a digest of the generated inputs. A failed output
//! check or accounting identity exits 1; bad arguments or a failed
//! set-up exit 2. `--quick` runs each workload at a tiny size (the
//! package's own test uses it).
//!
//! The workload seed is an argument and the program under test sees
//! only the generated inputs: the same seed gives byte-identical
//! `gmcc` sources and `gmc-trace/1` traces.
//!
//! # Workloads
//!
//! * **`compile`**: one caller compiles seeded source files one at a
//!   time through `gmc_cli::compile`, the function `gmcc FILE` calls
//!   (closed loop, one thread). The files hold the paper's Sec. 4 test
//!   chains (`gmc_experiments::generator::random_chains`: lengths 3–10,
//!   the five properties, transposes, inverses and vectors) at
//!   `GeneratorConfig::measured_scale()` sizes (50–300). Generation time
//!   does not depend on sizes (paper Sec. 4), and small sizes keep the
//!   numerical output check affordable. Each file is rendered with
//!   `gmc_frontend::render_problem`; the emitter rotates over julia,
//!   rust and pseudo. *Why:* this is the paper's generation-time
//!   experiment as a `gmcc` user meets it. The parser, the kernel
//!   registry and the concrete DP do all the work; the plan cache and
//!   the serving layers do none.
//! * **`serve_hit`**: closed loop over TCP against `TcpFrontDoor` over
//!   `Server` with the default `ServeConfig` (what `gmcc serve --listen`
//!   runs), one connection per core, each sending its next request line
//!   when the previous reply arrives. The whole process, server and
//!   clients, runs on one CPU ([`host::use_one_cpu`]), so that is one
//!   connection: on a VM, a hand-off to a thread on an idle vCPU waits
//!   for the host to schedule that vCPU, and that wait, not the serving
//!   code, moved the two-vCPU figures from run to run. The trace comes
//!   from `gmc_bench::workload::generate` with chain lengths 8–16 (the
//!   generator's cap) and Zipf popularity: one generated part per
//!   length, five structures each, merged round-robin, so every seed
//!   has the same length mix (the cost of a hit grows steeply with
//!   length). Set-up records every region the trace touches, so the
//!   timed window is all hits. Three deployments, each set up from
//!   scratch, serve the window in turn, each sending the whole trace
//!   again and again. *Why:* plan instantiation (the hit path) is the
//!   largest server-side layer here, and the region recorder does no
//!   timed work. `BENCHMARK.json` leaves this workload out: its set-up
//!   records every region of 45 chains of length 8–16, seconds per
//!   deployment, and a third workload of this length would not fit the
//!   time a set of runs may take. Run it by hand to see a hit-path
//!   change end to end; among the listed workloads, the per-layer
//!   `plan.hit_*` figures come from serve_mixed's hits.
//! * **`serve_mixed`**: the same front door and load shape, starting
//!   from a cold cache, in epochs: each epoch starts a fresh server and
//!   sends its own trace of the `mixed` preset's shape (6 structures,
//!   target hit ratio 0.5) once; the chains of one epoch share a length,
//!   cycling over the preset's 3–6 from epoch to epoch, so every seed has
//!   the same length mix. A run has 16 epochs of 625 requests and sends
//!   all of them, in passes, until the window is full: many short epochs
//!   average over more structure populations per seed than a few long
//!   ones, and a pass stays short enough to repeat every request about
//!   forty times. *Why:* it puts writes beside reads. Misses record
//!   regions and publish copy-on-write snapshots while hits are served,
//!   and the misses take most of the worker CPU, so `ops_per_s` and
//!   `latency_p99_us` follow the recorder. Short-chain hits cost less
//!   than the thread hand-offs and the TCP hop, so `latency_p50_us`
//!   follows those. A hit-path change that slows recording shows up
//!   here.
//!
//! Why closed loop: the line protocol answers one request per
//! connection at a time, so real callers are closed-loop by
//! construction, and with at most `nproc` callers closed-loop
//! throughput is the highest rate the server sustains without a
//! backlog. The load comes from this one process, and the serve
//! workloads' `nproc` is 1.
//!
//! # End-to-end metrics (tracing off)
//!
//! Every workload runs each of its parts many times over the window: a
//! part is one file for `compile`, one epoch for `serve_mixed`, the whole
//! trace for `serve_hit`. Throughput and latency come from the fastest
//! repeats ([`stats::Fastest`]): each operation keeps its fastest
//! latency. With one closed-loop caller, every repeat of an operation
//! meets the same program state. A shared host only ever slows work
//! down, in bursts of seconds that can come densely for minutes, and the
//! fastest of repeats spread over the window is the figure those bursts
//! move least. The thread's CPU time does not help: on the 2-vCPU VM
//! this was built on, `compile`'s CPU time per file rose with its wall
//! time in the slow bursts (from about 115 to 190 µs), with no steal and
//! no other load in the VM.
//!
//! | Name | Unit | Definition |
//! |---|---|---|
//! | `ops_per_s` | ops/s | The operations that ran over the sum of their fastest latencies: what one closed-loop caller completes per second. A serve operation runs from writing the request line to reading the reply line; a compile operation from source text to emitted program. |
//! | `latency_p50_us` | us | Median over operations of each operation's fastest latency, as the caller measures it. |
//! | `latency_p99_us` | us | The 99th percentile of the same; the report line gives the count of operations beyond it (at least ten). |
//! | `setup_s` | s | Median of several set-ups. serve: `Server::start` with its registry, structure registration, recording the warm regions, and the TCP bind. compile: the first, cold `compile` call of a fresh child process. |
//! | `peak_rss_mb` | MB | Peak resident set (`VmHWM`) of a process that ran only this workload. compile: this process, right after the timed window (before the output checks and the traced replay). serve_mixed: the mean over epochs of a child process that served one epoch from a fresh server, since this process has run dozens of servers. serve_hit: this process after its window. |
//!
//! `fail_frac` (error replies, missing replies and failed output checks
//! over the operations attempted) is the result line's `failed /
//! attempted`, and the report line prints it by name. It is not a
//! metric, because a value that is 0 on every good run cannot carry a
//! relative bound. The report line gives every metric's quartiles and
//! sample count.
//!
//! # Per-layer metrics, and the end-to-end metric each should move
//!
//! Each is the mean per call of the named public function, timed from
//! here around the call on the workload's own inputs, unless the table
//! says otherwise. A layer a workload never calls reads 0 on it.
//!
//! | Metric | Measured as | Should move | Exercised by | Bypassed by (predict no change) |
//! |---|---|---|---|---|
//! | `e2e.mean_us` | the untraced mean operation latency, the total the layers add up to: serve, the mean round trip of every request in the window; compile, the mean of each file's fastest compile | — | all | — |
//! | `frontend.parse_us` | `gmc_frontend::parse` per file | `ops_per_s` | compile | serve_* |
//! | `frontend.tokens` | tokens per file from `gmc_frontend::lex` (a work count) | — | compile | — |
//! | `kernels.registry_build_us` | `KernelRegistry::blas_lapack()`; `compile` builds one per call | `ops_per_s`; `setup_s` if the work moves into set-up | compile | serve_* (built once, in set-up) |
//! | `expr.chain_us` | `Chain::from_expr` per assignment | `ops_per_s` | compile | serve_* |
//! | `core.solve_us` | `GmcOptimizer::solve_with` on a fresh `GmcWorkspace` per file, as `compile` does | `ops_per_s`, `latency_p99_us` | compile | serve_hit |
//! | `codegen.program_us`, `codegen.emit_us` | `GmcSolution::program`; `Emitter::emit` with the file's emitter | `ops_per_s` | compile | serve_* |
//! | `codegen.instructions` | kernel calls per program (changes only if the answers change) | — | compile | — |
//! | `cli.residual_us` | `e2e.mean_us` minus the sum of the compile layer means | — | compile | — |
//! | `serve.tcp_hop_us` | client mean round trip minus the sum of the seven stage means | `latency_p50_us` | serve_* | compile |
//! | `serve.protocol_parse_us`, `serve.protocol_render_us` | `protocol::parse_request_line`, `protocol::reply_to_json` per request | `latency_p50_us` | serve_* | compile |
//! | `serve.admit_us` … `serve.reply_us` | Δsum / Δcount of `ServeHandle::stats().latency.stages` over the window, the histograms `METRICS` exports | queue, dispatch: serve_mixed `latency_p50_us`; solve: serve_hit `ops_per_s` | serve_* | compile |
//! | `serve.batches_per_req` | Δ`batches` / Δ`served.completed` | — | serve_* | — |
//! | `expr.bind_us`, `plan.key_us`, `plan.sig_us` | `SymChain::bind`, `structure_key`, `region_signature`: the parts of `plan.hit_lookup_us` | serve_hit `ops_per_s` | serve_hit | compile |
//! | `plan.hit_lookup_us`, `plan.hit_work_us` | `SolveTiming` of `PlanCache::solve_traced` on hits | `ops_per_s`, `latency_p50_us` | serve_hit | compile; little effect on serve_mixed |
//! | `plan.miss_lookup_us`, `plan.miss_work_us` | the same on misses (region recording, with the wait for the write mutex) | serve_mixed `latency_p99_us`, `ops_per_s`; serve_hit `setup_s` | serve_mixed | serve_hit `ops_per_s`, compile |
//! | `plan.hit_frac` | cache hits / cache requests in the window | — | serve_mixed | — |
//! | `plan.regions`, `plan.deferred_frac`, `plan.dynamic_frac` | `PlanCache::shard_stats` and `plan_for(..).region_summaries()` after the traced replay | `peak_rss_mb`; they also explain `plan.hit_work_us` | serve_hit | — |
//! | `core.cold_solve_us` | cold `GmcOptimizer::solve` of the same chains; serve replies are checked against it | — | all | — |
//! | `plan.hit_vs_cold` | `plan.hit_work_us` / `core.cold_solve_us`, a ratio that transfers between hosts | — | serve_hit | — |
//! | `obs.overhead_pct` | bare `PlanCache::solve` hits against `solve_traced` plus seven `Histogram::record`s and one `SlowTraceRing` offer, median of alternating passes | serve_hit `ops_per_s` (5% budget) | serve_hit | — |
//!
//! # The traced run and its two identities
//!
//! With `--trace 1`, the untraced window runs first, then the same
//! inputs are replayed on one thread through the public functions
//! above, in the order the program calls them, with a timer around
//! each call. The compile replay makes eight passes over the files and
//! keeps each layer's fastest call per file, as the window keeps each
//! file's fastest compile.
//!
//! 1. **serve**: `e2e.mean_us` = the seven stage means +
//!    `serve.tcp_hop_us`. The stage means come from the untraced window
//!    itself: the server records them on every request, and reading
//!    them adds nothing to the request path. The identity holds by
//!    construction, and the run checks that each stage's sample count
//!    equals the requests completed in the window.
//! 2. **compile**: `e2e.mean_us` (untraced, each file's fastest
//!    compile) = the sum of the traced layer means + `cli.residual_us`;
//!    the report line prints the three side by side.
//!
//! Splitting `plan.hit_work_us` into the cost pass and materialisation
//! needs spans inside `solve`; timing from outside the crates cannot
//! see them.
//!
//! `BENCH_gentime.json` and the harnesses that regenerate it stay
//! untouched; folding them into this benchmark is a separate change
//! (ROADMAP.md).

mod compile;
mod host;
mod report;
mod serve;
mod stats;

use report::{Metric, Report};
use serde::Value;
use stats::{rank_quantile, Fastest};
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Set when this process is a child that measures one thing and
    /// prints it (see [`host::probe`]).
    probe: Option<Probe>,
}

/// A child-process measurement, run in place of a workload.
enum Probe {
    /// The first, cold `compile` of the given file; prints seconds.
    ColdCompile(usize),
    /// The given serve_mixed epoch on a fresh server; prints the
    /// process's peak resident set in MiB.
    EpochPeak(usize),
}

const USAGE: &str = "usage: gmc-perfbench --workload compile|serve_hit|serve_mixed \
--seed N --seconds S --trace 0|1 [--quick]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        probe: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            "--probe-cold-compile" | "--probe-epoch-peak" => {
                let index = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                args.probe = Some(if flag == "--probe-cold-compile" {
                    Probe::ColdCompile(index)
                } else {
                    Probe::EpochPeak(index)
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// FNV-1a over the parts, as 16 hex digits: two runs generated the
/// same inputs iff their digests agree.
pub fn digest<S: AsRef<str>>(parts: impl IntoIterator<Item = S>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for byte in part.as_ref().bytes().chain([0xff]) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Sets the throughput and latency metrics from the fastest repeats:
/// `ops_per_s` is the operations that ran over the sum of their fastest
/// latencies (one closed-loop caller runs one operation at a time), and
/// the percentiles are over the same fastest latencies.
pub fn set_end_to_end(report: &mut Report, fastest: &Fastest) {
    let latencies = fastest.latencies();
    if latencies.is_empty() {
        report.violation("no operation completed".to_owned());
    }
    let (p99, beyond) = rank_quantile(&latencies, 0.99);
    let (n, seconds) = (latencies.len(), latencies.iter().sum::<f64>() / 1e6);
    report.set("ops_per_s", Metric::single(n as f64 / seconds, n));
    report.set("latency_p50_us", Metric::median_of(&latencies));
    report.set("latency_p99_us", Metric::single(p99, n));
    report.note("ops_beyond_p99", Value::Number(beyond as f64));
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gmc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(probe) = &args.probe {
        let outcome = match *probe {
            Probe::ColdCompile(index) => compile::probe_cold_compile(args.seed, index),
            Probe::EpochPeak(epoch) => serve::probe_epoch_peak(args.seed, epoch, args.quick),
        };
        return match outcome {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("gmc-perfbench probe: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match args.workload.as_str() {
        "compile" => compile::run(&args),
        "serve_hit" => serve::run_hit(&args),
        "serve_mixed" => serve::run_mixed(&args),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("gmc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    report.print(host::fingerprint());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
