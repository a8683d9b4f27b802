//! The `gmcc workload` subcommands: generate, describe and replay
//! serving-traffic traces (`gmc-bench`'s workload layer).
//!
//! ```text
//! gmcc workload gen [--preset NAME] [--seed N] [--requests N]
//!                   [--structures N] [--hit-ratio F] [--name S] [--out PATH]
//! gmcc workload describe [TRACE]
//! gmcc workload faults [--seed N] [--requests N] [--panics N]
//!                      [--delays N] [--delay-ms N] [--expires N]
//!                      [--bursts N] [--burst-size N] [--queue-capacity N]
//!                      [--out PATH]
//! gmcc workload replay [TRACE] [--workers N] [--verify all|none|sample N]
//!                      [--mode compositional|deep] [--timing]
//!                      [--faults PLAN] [--queue-capacity N] [--quick]
//! ```
//!
//! `gen` writes the trace JSON (stdout by default); the same flags
//! always produce the same bytes, and so does `faults` for its seeded
//! `gmc-faults/2` plan. `replay` drives the trace from `--workers`
//! caller threads, each solving the next request on its own thread,
//! and prints one JSON line per request to stdout — deterministic
//! across runs of the same trace and any number of workers (the racy
//! hit/miss outcome is deliberately *not* included) — and the
//! counter/latency summary to stderr; it exits nonzero when any
//! serving invariant or bitwise verification fails, including the
//! chaos invariants when `--faults` injects panics, overload bursts
//! and expired deadlines. `--quick` replays a small built-in trace
//! (no TRACE argument) as a smoke check.

use gmc_bench::replay::{replay_trace, ReplayOptions, ReplayReport, Verify};
use gmc_bench::workload::{generate, Trace, WorkloadSpec};
use gmc_serve::faults::{FaultPlan, FaultSpec};
use serde::Value;
use std::io::{Read as _, Write as _};

/// Runs `gmcc workload <gen|describe|faults|replay> ...`; returns the
/// process exit code.
pub fn run_workload(args: &[String]) -> u8 {
    match args.first().map(String::as_str) {
        Some("gen") => workload_gen(&args[1..]),
        Some("describe") => workload_describe(&args[1..]),
        Some("faults") => workload_faults(&args[1..]),
        Some("replay") => workload_replay(&args[1..]),
        _ => {
            eprintln!(
                "gmcc workload: expected a subcommand: gen, describe, faults or replay \
                 (try --help)"
            );
            2
        }
    }
}

fn read_trace_input(file: Option<&str>) -> Result<Trace, String> {
    let text = match file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
        None => {
            let mut s = String::new();
            std::io::stdin()
                .read_to_string(&mut s)
                .map_err(|_| "cannot read stdin".to_owned())?;
            s
        }
    };
    Trace::from_json_str(&text)
}

fn workload_gen(args: &[String]) -> u8 {
    let mut preset = "mixed".to_owned();
    let mut seed = 42u64;
    let mut requests: Option<usize> = None;
    let mut structures: Option<usize> = None;
    let mut hit_ratio: Option<f64> = None;
    let mut name: Option<String> = None;
    let mut out: Option<String> = None;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--preset" => match args.next() {
                Some(p) => preset = p.to_owned(),
                None => return usage_error("gen", "--preset needs a name"),
            },
            "--seed" => match args.next().map(str::parse) {
                Some(Ok(s)) => seed = s,
                _ => return usage_error("gen", "--seed needs an integer"),
            },
            "--requests" => match args.next().map(str::parse) {
                Some(Ok(n)) if n > 0 => requests = Some(n),
                _ => return usage_error("gen", "--requests needs a positive integer"),
            },
            "--structures" => match args.next().map(str::parse) {
                Some(Ok(n)) if n > 0 => structures = Some(n),
                _ => return usage_error("gen", "--structures needs a positive integer"),
            },
            "--hit-ratio" => match args.next().map(str::parse::<f64>) {
                Some(Ok(r)) if (0.0..=1.0).contains(&r) => hit_ratio = Some(r),
                _ => return usage_error("gen", "--hit-ratio needs a value in [0, 1]"),
            },
            "--name" => match args.next() {
                Some(n) => name = Some(n.to_owned()),
                None => return usage_error("gen", "--name needs a value"),
            },
            "--out" => match args.next() {
                Some(p) => out = Some(p.to_owned()),
                None => return usage_error("gen", "--out needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: gmcc workload gen [--preset {}] [--seed N] [--requests N] \
                     [--structures N] [--hit-ratio F] [--name S] [--out PATH]",
                    WorkloadSpec::PRESETS.join("|")
                );
                return 0;
            }
            other => return usage_error("gen", &format!("unknown argument `{other}`")),
        }
    }
    let Some(mut spec) = WorkloadSpec::preset(&preset, seed) else {
        eprintln!(
            "gmcc workload gen: unknown preset `{preset}` (expected one of {})",
            WorkloadSpec::PRESETS.join(", ")
        );
        return 2;
    };
    if let Some(n) = requests {
        spec.requests = n;
    }
    if let Some(n) = structures {
        spec.alias_structures = spec.alias_structures.min(n);
        spec.structures = n;
    }
    if let Some(r) = hit_ratio {
        spec.hit_ratio = r;
    }
    if let Some(n) = name {
        spec.name = n;
    }
    let trace = match generate(&spec) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("gmcc workload gen: {e}");
            return 1;
        }
    };
    let json = trace.to_json_string();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("gmcc workload gen: cannot write {path}: {e}");
                return 1;
            }
            eprintln!(
                "wrote {} requests over {} structures to {path}",
                trace.requests.len(),
                trace.structures.len()
            );
        }
        None => print!("{json}"),
    }
    0
}

fn workload_describe(args: &[String]) -> u8 {
    let mut file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("usage: gmcc workload describe [TRACE] (stdin when omitted)");
                return 0;
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => return usage_error("describe", &format!("unknown argument `{other}`")),
        }
    }
    match read_trace_input(file.as_deref()) {
        Ok(trace) => {
            print!("{}", trace.describe());
            0
        }
        Err(e) => {
            eprintln!("gmcc workload describe: {e}");
            1
        }
    }
}

fn workload_faults(args: &[String]) -> u8 {
    let mut spec = FaultSpec::default();
    let mut out: Option<String> = None;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let mut int_flag = |name: &str, slot: &mut usize| -> Result<(), u8> {
            match args.next().map(str::parse) {
                Some(Ok(n)) => {
                    *slot = n;
                    Ok(())
                }
                _ => Err(usage_error("faults", &format!("{name} needs an integer"))),
            }
        };
        match arg {
            "--seed" => match args.next().map(str::parse) {
                Some(Ok(s)) => spec.seed = s,
                _ => return usage_error("faults", "--seed needs an integer"),
            },
            "--requests" => {
                if let Err(code) = int_flag("--requests", &mut spec.requests) {
                    return code;
                }
            }
            "--panics" => {
                if let Err(code) = int_flag("--panics", &mut spec.panics) {
                    return code;
                }
            }
            "--delays" => {
                if let Err(code) = int_flag("--delays", &mut spec.delays) {
                    return code;
                }
            }
            "--delay-ms" => match args.next().map(str::parse) {
                Some(Ok(ms)) => spec.delay_ms = ms,
                _ => return usage_error("faults", "--delay-ms needs an integer"),
            },
            "--expires" => {
                if let Err(code) = int_flag("--expires", &mut spec.expires) {
                    return code;
                }
            }
            "--bursts" => {
                if let Err(code) = int_flag("--bursts", &mut spec.bursts) {
                    return code;
                }
            }
            "--burst-size" => {
                if let Err(code) = int_flag("--burst-size", &mut spec.burst_size) {
                    return code;
                }
            }
            "--queue-capacity" => {
                if let Err(code) = int_flag("--queue-capacity", &mut spec.queue_capacity) {
                    return code;
                }
            }
            "--out" => match args.next() {
                Some(p) => out = Some(p.to_owned()),
                None => return usage_error("faults", "--out needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: gmcc workload faults [--seed N] [--requests N] [--panics N] \
                     [--delays N] [--delay-ms N] [--expires N] \
                     [--bursts N] [--burst-size N] [--queue-capacity N] [--out PATH]"
                );
                return 0;
            }
            other => return usage_error("faults", &format!("unknown argument `{other}`")),
        }
    }
    let plan = match FaultPlan::seeded(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gmcc workload faults: {e}");
            return 1;
        }
    };
    let json = plan.to_json_string();
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("gmcc workload faults: cannot write {path}: {e}");
                return 1;
            }
            eprintln!(
                "wrote {} fault(s) over {} requests to {path}",
                plan.entries.len(),
                spec.requests
            );
        }
        None => print!("{json}"),
    }
    0
}

fn workload_replay(args: &[String]) -> u8 {
    let mut file: Option<String> = None;
    let mut opts = ReplayOptions::default();
    let mut quick = false;
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--workers" => match args.next().map(str::parse) {
                Some(Ok(n)) if n > 0 => opts.workers = n,
                _ => return usage_error("replay", "--workers needs a positive integer"),
            },
            "--verify" => match args.next() {
                Some("all") => opts.verify = Verify::All,
                Some("none") => opts.verify = Verify::None,
                Some("sample") => match args.next().map(str::parse) {
                    Some(Ok(n)) => opts.verify = Verify::Sample(n),
                    _ => return usage_error("replay", "--verify sample needs a count"),
                },
                _ => return usage_error("replay", "--verify expects all, none or sample N"),
            },
            "--mode" => match args.next() {
                Some("compositional") => opts.inference = gmc::InferenceMode::Compositional,
                Some("deep") => opts.inference = gmc::InferenceMode::Deep,
                _ => return usage_error("replay", "--mode expects compositional or deep"),
            },
            "--timing" => opts.honor_timing = true,
            "--faults" => match args.next() {
                Some(path) => {
                    let text = match std::fs::read_to_string(path) {
                        Ok(t) => t,
                        Err(e) => {
                            eprintln!("gmcc workload replay: cannot read {path}: {e}");
                            return 1;
                        }
                    };
                    match FaultPlan::from_json_str(&text) {
                        Ok(plan) => opts.faults = Some(plan),
                        Err(e) => {
                            eprintln!("gmcc workload replay: bad fault plan {path}: {e}");
                            return 1;
                        }
                    }
                }
                None => return usage_error("replay", "--faults needs a plan path"),
            },
            "--queue-capacity" => match args.next().map(str::parse) {
                Some(Ok(n)) if n > 0 => opts.queue_capacity = Some(n),
                _ => return usage_error("replay", "--queue-capacity needs a positive integer"),
            },
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!(
                    "usage: gmcc workload replay [TRACE] [--workers N] \
                     [--verify all|none|sample N] [--mode compositional|deep] \
                     [--timing] [--faults PLAN] [--queue-capacity N] \
                     [--quick]"
                );
                return 0;
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(other.to_owned()),
            other => return usage_error("replay", &format!("unknown argument `{other}`")),
        }
    }

    let trace = if quick {
        // A small built-in smoke trace: mixed traffic, everything
        // verified against cold solves, four callers unless overridden.
        let mut spec = WorkloadSpec::preset("mixed", 42).expect("mixed preset exists");
        spec.requests = 80;
        opts.verify = Verify::All;
        if file.is_some() {
            eprintln!("gmcc workload replay: --quick ignores the TRACE argument");
        }
        match generate(&spec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gmcc workload replay: {e}");
                return 1;
            }
        }
    } else {
        match read_trace_input(file.as_deref()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("gmcc workload replay: {e}");
                return 1;
            }
        }
    };

    let report = match replay_trace(&trace, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gmcc workload replay: {e}");
            return 1;
        }
    };
    print_report(&report);
    if report.is_clean() {
        0
    } else {
        for v in &report.violations {
            eprintln!("gmcc workload replay: VIOLATION: {v}");
        }
        1
    }
}

/// Per-request results to stdout (deterministic for a given trace: the
/// racy hit/miss outcome is excluded), summary to stderr.
fn print_report(report: &ReplayReport) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for r in &report.results {
        let mut fields = vec![("structure".to_owned(), Value::String(r.structure.clone()))];
        match &r.error {
            None => {
                fields.push(("cost".to_owned(), Value::Number(r.cost)));
                fields.push(("flops".to_owned(), Value::Number(r.flops)));
                fields.push((
                    "parenthesization".to_owned(),
                    Value::String(r.parenthesization.clone()),
                ));
                fields.push((
                    "kernels".to_owned(),
                    Value::Array(r.kernels.iter().map(|k| Value::String(k.clone())).collect()),
                ));
            }
            Some(e) => {
                fields.push(("error".to_owned(), Value::String(e.clone())));
                if let Some(code) = &r.code {
                    fields.push(("code".to_owned(), Value::String(code.clone())));
                }
            }
        }
        let line = serde_json::to_string(&Value::Object(fields)).expect("finite reply values");
        writeln!(out, "{line}").expect("stdout write");
    }
    let stats = &report.stats;
    eprintln!("{}", summary_line(report));
    if !stats.latency.stages.is_empty() {
        let breakdown: Vec<String> = stats
            .latency
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{} p50 {}ns p99 {}ns",
                    s.stage,
                    s.snapshot.quantile(0.5),
                    s.snapshot.quantile(0.99)
                )
            })
            .collect();
        eprintln!("stages: {}", breakdown.join("; "));
    }
    if report.queue_full_replies + report.expired_replies + report.internal_replies > 0
        || report.panics > 0
    {
        eprintln!(
            "chaos: {} queue-full, {} expired, {} internal, {} panic(s)",
            report.queue_full_replies,
            report.expired_replies,
            report.internal_replies,
            report.panics
        );
    }
}

/// The replay's summary line. Its rate counts *completed* requests per
/// second, from the server's final `completed`: a request shed by
/// admission or by its deadline is answered without a solve, so it is
/// printed beside the rate, never in it.
fn summary_line(report: &ReplayReport) -> String {
    let served = report.stats.served;
    format!(
        "replayed {} requests in {:.6}s: {} completed ({:.0} req/s), {} shed, verified {}: {}",
        report.submitted,
        report.elapsed,
        served.completed,
        served.completed as f64 / report.elapsed.max(1e-9),
        served.rejected_overload + served.expired,
        report.verified,
        report.stats
    )
}

fn usage_error(sub: &str, msg: &str) -> u8 {
    eprintln!("gmcc workload {sub}: {msg}");
    2
}
