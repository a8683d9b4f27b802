//! The serve workloads: closed-loop TCP load on the `gmc-serve` front
//! door (`TcpFrontDoor` over `Server` with the default `ServeConfig`),
//! the process `gmcc serve --listen` runs.

use crate::report::{Metric, Report};
use crate::stats::{mean, Fastest};
use crate::{digest, host, Args};
use gmc::{FlopCount, GmcOptimizer};
use gmc_bench::workload::{generate, Trace, TraceRequest, TraceStructure, WorkloadSpec};
use gmc_expr::{DimBindings, SymChain};
use gmc_kernels::KernelRegistry;
use gmc_obs::{MetricsRegistry, SlowTraceRing, Span};
use gmc_plan::{region_signature, structure_key, PlanCache};
use gmc_serve::protocol::{parse_request_line, reply_to_json};
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{ServeConfig, ServeReply, Served, Server, ServerStats, STAGES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Value};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-layer metric of each server stage, in [`STAGES`] order.
const STAGE_METRICS: [&str; 7] = [
    "serve.admit_us",
    "serve.queue_us",
    "serve.group_us",
    "serve.dispatch_us",
    "serve.lookup_us",
    "serve.solve_us",
    "serve.reply_us",
];

/// serve_hit: structures and requests per chain length. The trace
/// holds one generated part per length 8–16, so every seed has the same
/// length mix; the cost of a hit grows steeply with length.
const HIT_STRUCTURES_PER_LENGTH: usize = 5;
const HIT_REQUESTS_PER_LENGTH: usize = 400;
/// serve_hit: deployments per run, each set up from scratch and serving
/// an equal share of the window (`setup_s` is their median set-up).
const HIT_DEPLOYMENTS: usize = 3;
/// serve_mixed: distinct cold-cache epochs per run, each with a trace of
/// its own, and the requests in each. A pass sends every epoch once, each
/// on a fresh server; the window runs whole passes.
const EPOCHS: usize = 16;
const EPOCH_REQUESTS: usize = 625;
/// serve_mixed: the fewest passes a run makes, so every epoch has
/// several repeats to keep the fastest of.
const MIN_PASSES: usize = 3;
/// serve_mixed: replies per epoch run checked against a cold solve (a
/// seeded sample; checking every reply would outlast the window).
const CHECKS_PER_EPOCH: usize = 100;
/// serve_mixed: epochs replayed by the traced run.
const TRACED_EPOCHS: usize = 2;
/// Bare/instrumented pass pairs behind `obs.overhead_pct`.
const OVERHEAD_PAIRS: usize = 4;

/// One generated trace, ready to send.
struct Inputs {
    trace: Trace,
    chains: Vec<SymChain>,
    /// Request lines in trace order, newline-terminated.
    lines: Vec<String>,
    bindings: Vec<DimBindings>,
    /// Digest of the generated `gmc-trace/1` JSON.
    digest: String,
}

impl Inputs {
    fn generate(spec: &WorkloadSpec) -> Result<Inputs, String> {
        let trace = generate(spec)?;
        let digest = digest([trace.to_json_string()]);
        Inputs::new(trace, digest)
    }

    fn new(trace: Trace, digest: String) -> Result<Inputs, String> {
        let chains = trace
            .structures
            .iter()
            .map(TraceStructure::chain)
            .collect::<Result<Vec<_>, _>>()?;
        let (mut lines, mut bindings) = (Vec::new(), Vec::new());
        for r in &trace.requests {
            let s = &trace.structures[r.structure];
            let vars: Vec<String> = s
                .dims
                .iter()
                .zip(&r.values)
                .map(|(d, v)| format!("{d}={v}"))
                .collect();
            lines.push(format!("{} {}\n", s.name, vars.join(",")));
            bindings.push(s.bindings(&r.values));
        }
        Ok(Inputs {
            trace,
            chains,
            lines,
            bindings,
            digest,
        })
    }

    fn chain(&self, index: usize) -> &SymChain {
        &self.chains[self.trace.requests[index].structure]
    }

    fn name(&self, index: usize) -> &str {
        &self.trace.structures[self.trace.requests[index].structure].name
    }
}

/// serve_hit's inputs: one trace per chain length 8–16 (the
/// generator's cap), each with Zipf popularity over its own structures
/// and the `steady` preset's bindings, merged round-robin. The digest
/// covers every part's `gmc-trace/1` JSON.
fn hit_inputs(seed: u64, quick: bool) -> Result<Inputs, String> {
    let lengths = if quick { 8..=9 } else { 8..=16 };
    let parts = lengths
        .map(|len| {
            generate(&WorkloadSpec {
                name: format!("serve_hit_len{len}"),
                seed: sub_seed(seed, len),
                structures: if quick { 2 } else { HIT_STRUCTURES_PER_LENGTH },
                min_len: len,
                max_len: len,
                requests: if quick { 30 } else { HIT_REQUESTS_PER_LENGTH },
                ..WorkloadSpec::preset("steady", seed).expect("steady is a preset")
            })
        })
        .collect::<Result<Vec<Trace>, String>>()?;
    let digest = digest(parts.iter().map(Trace::to_json_string));
    let mut merged = Trace {
        spec: parts[0].spec.clone(),
        structures: Vec::new(),
        requests: Vec::new(),
    };
    let mut offsets = Vec::new();
    for part in &parts {
        offsets.push(merged.structures.len());
        for s in &part.structures {
            merged.structures.push(TraceStructure {
                name: format!("L{}{}", part.spec.min_len, s.name),
                ..s.clone()
            });
        }
    }
    for i in 0..parts.iter().map(|p| p.requests.len()).max().unwrap_or(0) {
        for (part, offset) in parts.iter().zip(&offsets) {
            if let Some(r) = part.requests.get(i) {
                merged.requests.push(TraceRequest {
                    structure: r.structure + offset,
                    ..r.clone()
                });
            }
        }
    }
    Inputs::new(merged, digest)
}

/// Epoch `epoch`'s trace: the `mixed` preset's shape, with every chain
/// of the epoch one length, cycling over the preset's lengths 3–6 from
/// epoch to epoch. A hit's cost follows its chain's length, so every
/// seed then has the same length mix; drawn freely, the popular
/// structures' lengths moved a run's throughput by 10% between seeds.
fn mixed_spec(seed: u64, epoch: usize, quick: bool) -> WorkloadSpec {
    let preset = WorkloadSpec::preset("mixed", seed).expect("mixed is a preset");
    let len = preset.min_len + epoch % (preset.max_len - preset.min_len + 1);
    WorkloadSpec {
        seed: sub_seed(seed, epoch),
        requests: if quick { 200 } else { EPOCH_REQUESTS },
        min_len: len,
        max_len: len,
        ..preset
    }
}

/// The seed of part `k` of a run's inputs (a serve_hit length, a
/// serve_mixed epoch).
fn sub_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A running server behind its TCP front door.
struct Deployment {
    server: Server,
    door: TcpFrontDoor,
    setup_s: f64,
    registry_us: f64,
}

/// Set-up: `Server::start` (with its registry), structure registration,
/// recording the warm regions (`warm`), and the TCP bind.
fn deploy(inputs: &Inputs, warm: bool) -> Result<Deployment, String> {
    let started = Instant::now();
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let registry_us = started.elapsed().as_secs_f64() * 1e6;
    let server = Server::start(registry, ServeConfig::default());
    for (s, chain) in inputs.trace.structures.iter().zip(&inputs.chains) {
        server
            .register(&s.name, chain.clone())
            .map_err(|e| e.to_string())?;
    }
    if warm {
        let mut seen = HashSet::new();
        for (r, b) in inputs.trace.requests.iter().zip(&inputs.bindings) {
            let chain = &inputs.chains[r.structure];
            let sizes = chain.bind_dims(b).map_err(|e| e.to_string())?;
            if seen.insert((r.structure, region_signature(&sizes))) {
                server.cache().solve(chain, b).map_err(|e| e.to_string())?;
            }
        }
    }
    let door =
        TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(Deployment {
        server,
        door,
        setup_s: started.elapsed().as_secs_f64(),
        registry_us,
    })
}

impl Deployment {
    fn stop(self, report: &mut Report) {
        self.door.shutdown();
        let shutdown = self.server.shutdown();
        if !shutdown.is_clean() {
            report.violation(format!("server: {shutdown}"));
        }
    }
}

/// What one client connection saw.
#[derive(Default)]
struct ConnLog {
    sent: u64,
    /// Per reply read: the request index, its latency (µs) and the line.
    replies: Vec<(usize, f64, String)>,
    error: Option<String>,
}

/// Sends `lines` once, closed loop, over `conns` connections: connection
/// `c` sends requests `c, c + conns, …` and waits for each reply before
/// sending the next. Returns the logs and the seconds from the start to
/// the last reply.
fn drive(addr: SocketAddr, lines: &[String], conns: usize) -> Result<(Vec<ConnLog>, f64), String> {
    let streams = (0..conns)
        .map(|_| TcpStream::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let started = Instant::now();
    let logs: Vec<ConnLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    if let Err(e) = exchange(&stream, c, conns, lines, &mut log) {
                        log.error = Some(e.to_string());
                    }
                    log
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    Ok((logs, started.elapsed().as_secs_f64()))
}

fn exchange(
    stream: &TcpStream,
    c: usize,
    conns: usize,
    lines: &[String],
    log: &mut ConnLog,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream;
    let mut reader = BufReader::new(stream);
    for index in (c..lines.len()).step_by(conns) {
        let sent_at = Instant::now();
        writer.write_all(lines[index].as_bytes())?;
        log.sent += 1;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            ));
        }
        let latency_us = sent_at.elapsed().as_secs_f64() * 1e6;
        line.truncate(line.trim_end().len());
        log.replies.push((index, latency_us, line));
    }
    Ok(())
}

/// One pass over a trace, as the connections read it back.
struct Pass {
    sent: u64,
    /// Per request index: latency (µs) and reply line.
    replies: BTreeMap<usize, (f64, String)>,
}

/// Merges the connections' logs of one pass and counts the requests
/// sent and the replies missing.
fn collect(report: &mut Report, logs: Vec<ConnLog>) -> Pass {
    let mut pass = Pass {
        sent: 0,
        replies: BTreeMap::new(),
    };
    for (c, log) in logs.into_iter().enumerate() {
        pass.sent += log.sent;
        let missing = log.sent - log.replies.len() as u64;
        if missing > 0 || log.error.is_some() {
            report.fail(
                missing.max(1),
                format!(
                    "connection {c}: {missing} of {} replies missing ({})",
                    log.sent,
                    log.error.unwrap_or_default()
                ),
            );
        }
        for (index, latency_us, reply) in log.replies {
            pass.replies.insert(index, (latency_us, reply));
        }
    }
    report.attempted += pass.sent;
    pass
}

impl Pass {
    /// Folds the pass into the fastest repeats of `part` and the window's
    /// mean round trip.
    fn record(&self, fastest: &mut Fastest, part: usize, rtt: &mut Rtt) {
        for (&index, (latency_us, _)) in &self.replies {
            fastest.op(part, index, *latency_us);
            rtt.sum_us += latency_us;
            rtt.count += 1;
        }
    }

    fn lines(&self) -> BTreeMap<usize, &str> {
        self.replies
            .iter()
            .map(|(&index, (_, reply))| (index, reply.as_str()))
            .collect()
    }
}

/// Every round trip of the window, for the client mean the stage means
/// add up to.
#[derive(Default)]
struct Rtt {
    sum_us: f64,
    count: usize,
}

/// The server's own counters and stage histograms over a window.
#[derive(Clone, Copy, Default)]
struct Delta {
    completed: u64,
    hits: u64,
    misses: u64,
    failed: u64,
    rejected: u64,
    cache_hits: u64,
    cache_requests: u64,
    batches: u64,
    stage_count: [u64; 7],
    stage_sum_ns: [u64; 7],
}

impl Delta {
    fn between(before: &ServerStats, after: &ServerStats) -> Delta {
        let (b, a) = (&before.served, &after.served);
        let mut d = Delta {
            completed: a.completed - b.completed,
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            failed: a.failed - b.failed,
            rejected: a.rejected - b.rejected,
            cache_hits: after.cache.hits - before.cache.hits,
            cache_requests: after.cache.requests() - before.cache.requests(),
            batches: after.batches - before.batches,
            ..Delta::default()
        };
        for (k, (sa, sb)) in after
            .latency
            .stages
            .iter()
            .zip(&before.latency.stages)
            .enumerate()
        {
            d.stage_count[k] = sa.snapshot.count() - sb.snapshot.count();
            d.stage_sum_ns[k] = sa.snapshot.sum() - sb.snapshot.sum();
        }
        d
    }

    fn add(&mut self, o: &Delta) {
        self.completed += o.completed;
        self.hits += o.hits;
        self.misses += o.misses;
        self.failed += o.failed;
        self.rejected += o.rejected;
        self.cache_hits += o.cache_hits;
        self.cache_requests += o.cache_requests;
        self.batches += o.batches;
        for k in 0..STAGES.len() {
            self.stage_count[k] += o.stage_count[k];
            self.stage_sum_ns[k] += o.stage_sum_ns[k];
        }
    }
}

/// The accounting identities every window must satisfy.
fn account(report: &mut Report, d: &Delta, sent: u64, no_misses: bool, what: &str) {
    if d.completed != sent || d.rejected > 0 {
        report.violation(format!(
            "{what}: server completed {} and rejected {} of {sent} requests sent",
            d.completed, d.rejected
        ));
    }
    if d.hits + d.misses + d.failed != d.completed {
        report.violation(format!(
            "{what}: hits {} + misses {} + failed {} != completed {}",
            d.hits, d.misses, d.failed, d.completed
        ));
    }
    for (stage, count) in STAGES.iter().zip(d.stage_count) {
        if count != d.completed {
            report.violation(format!(
                "{what}: stage {stage} counted {count} of {} completed",
                d.completed
            ));
        }
    }
    if no_misses && d.misses > 0 {
        report.violation(format!("{what}: {} misses in an all-hit window", d.misses));
    }
}

/// Checks replies read off the wire (one per distinct request) against
/// a cold `GmcOptimizer::solve` of the same bound chain: cost bits,
/// flops bits, parenthesization and kernel list.
fn check_replies(
    report: &mut Report,
    inputs: &Inputs,
    replies: &BTreeMap<usize, &str>,
    what: &str,
) {
    let registry = KernelRegistry::blas_lapack();
    let optimizer =
        GmcOptimizer::new(&registry, FlopCount).with_inference(ServeConfig::default().inference);
    for (&index, reply) in replies {
        report.checked += 1;
        if let Err(e) = check_reply(inputs, index, reply, &optimizer) {
            report.violation(format!("{what} request {index}: {e}"));
        }
    }
}

fn check_reply(
    inputs: &Inputs,
    index: usize,
    reply: &str,
    optimizer: &GmcOptimizer<'_, FlopCount>,
) -> Result<(), String> {
    let value: Value =
        serde_json::from_str(reply).map_err(|e| format!("unparsable reply `{reply}`: {e}"))?;
    if value.get_field("error").is_ok() {
        return Err(format!("error reply {reply}"));
    }
    let field = |name: &str| value.get_field(name).map_err(|e| e.to_string());
    let structure = String::from_value(field("structure")?).map_err(|e| e.to_string())?;
    let cost = f64::from_value(field("cost")?).map_err(|e| e.to_string())?;
    let flops = f64::from_value(field("flops")?).map_err(|e| e.to_string())?;
    let paren = String::from_value(field("parenthesization")?).map_err(|e| e.to_string())?;
    let kernels = Vec::<String>::from_value(field("kernels")?).map_err(|e| e.to_string())?;
    let chain = inputs
        .chain(index)
        .bind(&inputs.bindings[index])
        .map_err(|e| e.to_string())?;
    let cold = optimizer.solve(&chain).map_err(|e| e.to_string())?;
    if structure != inputs.name(index)
        || cost.to_bits() != cold.cost().to_bits()
        || flops.to_bits() != cold.flops().to_bits()
        || paren != cold.parenthesization()
        || kernels != cold.kernel_names()
    {
        return Err(format!(
            "reply {reply} differs from the cold solve ({:e} flops, {}, {:?})",
            cold.flops(),
            cold.parenthesization(),
            cold.kernel_names()
        ));
    }
    Ok(())
}

/// Per-layer metrics from the untraced window itself: the server's
/// stage means, and the TCP hop as the client's mean round trip minus
/// their sum.
fn stage_layers(report: &mut Report, d: &Delta, window: &Rtt) {
    let (rtt, count) = (window.sum_us / window.count.max(1) as f64, window.count);
    let mut sum = 0.0;
    for (k, name) in STAGE_METRICS.iter().enumerate() {
        let us = d.stage_sum_ns[k] as f64 / d.stage_count[k].max(1) as f64 / 1e3;
        sum += us;
        report.set(name, Metric::single(us, d.stage_count[k] as usize));
    }
    report.set("e2e.mean_us", Metric::single(rtt, count));
    report.set("serve.tcp_hop_us", Metric::single(rtt - sum, count));
    report.set(
        "serve.batches_per_req",
        Metric::single(
            d.batches as f64 / d.completed.max(1) as f64,
            d.completed as usize,
        ),
    );
    report.set(
        "plan.hit_frac",
        Metric::single(
            d.cache_hits as f64 / d.cache_requests.max(1) as f64,
            d.cache_requests as usize,
        ),
    );
    report.note(
        "additivity",
        Value::Object(vec![
            ("client_mean_rtt_us".into(), Value::Number(rtt)),
            ("stage_mean_sum_us".into(), Value::Number(sum)),
            ("serve.tcp_hop_us".into(), Value::Number(rtt - sum)),
            ("requests".into(), Value::Number(d.completed as f64)),
            (
                "stage_counts".into(),
                Value::Array(
                    d.stage_count
                        .iter()
                        .map(|&c| Value::Number(c as f64))
                        .collect(),
                ),
            ),
        ]),
    );
}

/// Per-call timings of the traced replay.
#[derive(Default)]
struct Traced {
    parse: Vec<f64>,
    render: Vec<f64>,
    bind: Vec<f64>,
    key: Vec<f64>,
    sig: Vec<f64>,
    hit_lookup: Vec<f64>,
    hit_work: Vec<f64>,
    miss_lookup: Vec<f64>,
    miss_work: Vec<f64>,
    cold: Vec<f64>,
    overhead_pct: Vec<f64>,
    regions: Vec<f64>,
    /// Interior cells over every recorded region: resolved, deferred,
    /// dynamic, unsolvable.
    cells: [usize; 4],
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Traced {
    /// Replays `inputs` on this thread against a fresh cache, in the
    /// order the server sees them, timing each public call the request
    /// path makes. With `warm`, first records every region as
    /// serve_hit's set-up does (those are the misses).
    fn replay(&mut self, inputs: &Inputs, registry: &Arc<KernelRegistry>, warm: bool) {
        let mode = ServeConfig::default().inference;
        let cache = PlanCache::new(Arc::clone(registry), mode);
        let optimizer = GmcOptimizer::new(registry, FlopCount).with_inference(mode);
        let timed_solve = |t: &mut Traced, index: usize| {
            let (solution, outcome, timing) = cache
                .solve_traced(inputs.chain(index), &inputs.bindings[index])
                .expect("checked requests solve");
            let (lookup, work) = (timing.lookup_ns as f64 / 1e3, timing.work_ns as f64 / 1e3);
            if outcome.is_hit() {
                t.hit_lookup.push(lookup);
                t.hit_work.push(work);
            } else {
                t.miss_lookup.push(lookup);
                t.miss_work.push(work);
            }
            (solution, outcome)
        };
        if warm {
            let mut seen = HashSet::new();
            for index in 0..inputs.lines.len() {
                let sizes = inputs
                    .chain(index)
                    .bind_dims(&inputs.bindings[index])
                    .expect("checked requests bind");
                if seen.insert((
                    inputs.trace.requests[index].structure,
                    region_signature(&sizes),
                )) {
                    timed_solve(self, index);
                }
            }
        }
        for index in 0..inputs.lines.len() {
            let (chain, bindings) = (inputs.chain(index), &inputs.bindings[index]);
            let t0 = Instant::now();
            black_box(parse_request_line(black_box(inputs.lines[index].trim_end())).ok());
            let t1 = Instant::now();
            let concrete = chain.bind(bindings).expect("checked requests bind");
            let t2 = Instant::now();
            black_box(structure_key(chain, mode));
            let t3 = Instant::now();
            black_box(region_signature(&concrete.sizes()));
            let t4 = Instant::now();
            let (solution, outcome) = timed_solve(self, index);
            let reply = ServeReply {
                structure: inputs.name(index).to_owned(),
                result: Ok(Served {
                    outcome,
                    cost: solution.cost(),
                    flops: solution.flops(),
                    parenthesization: solution.parenthesization().to_owned(),
                    kernels: solution
                        .kernel_names()
                        .into_iter()
                        .map(str::to_owned)
                        .collect(),
                }),
            };
            let t5 = Instant::now();
            black_box(reply_to_json(&reply));
            let t6 = Instant::now();
            black_box(optimizer.solve(&concrete).ok());
            let t7 = Instant::now();
            self.parse.push(us(t1 - t0));
            self.bind.push(us(t2 - t1));
            self.key.push(us(t3 - t2));
            self.sig.push(us(t4 - t3));
            self.render.push(us(t6 - t5));
            self.cold.push(us(t7 - t6));
        }
        self.overhead(inputs, &cache);
        self.regions
            .push(cache.shard_stats().iter().map(|s| s.regions).sum::<usize>() as f64);
        for chain in &inputs.chains {
            if let Some(plan) = cache.plan_for(chain) {
                for s in plan.region_summaries() {
                    for (total, n) in
                        self.cells
                            .iter_mut()
                            .zip([s.resolved, s.deferred, s.dynamic, s.unsolvable])
                    {
                        *total += n;
                    }
                }
            }
        }
    }

    /// The `obs_overhead` comparison on this trace's (now all-hit)
    /// requests: bare `PlanCache::solve` passes against `solve_traced`
    /// plus seven stage-histogram records and a slow-trace ring offer,
    /// alternating which runs first.
    fn overhead(&mut self, inputs: &Inputs, cache: &PlanCache) {
        let metrics = MetricsRegistry::new();
        let hists = STAGES.map(|stage| {
            metrics.histogram(
                "gmc.serve.stage.latency.ns",
                "Per-stage request span duration in nanoseconds",
                &[("stage", stage)],
            )
        });
        let ring = SlowTraceRing::new(ServeConfig::default().slow_trace_capacity);
        let mut id = 0u64;
        let n = inputs.lines.len();
        let bare = || {
            let t = Instant::now();
            for index in 0..n {
                black_box(
                    cache
                        .solve(inputs.chain(index), &inputs.bindings[index])
                        .ok(),
                );
            }
            t.elapsed().as_secs_f64()
        };
        let mut instrumented = || {
            let t = Instant::now();
            for index in 0..n {
                let (solution, outcome, timing) = cache
                    .solve_traced(inputs.chain(index), &inputs.bindings[index])
                    .expect("checked requests solve");
                black_box(solution);
                let durs: [u64; 7] = [50, 100, 80, 60, timing.lookup_ns, timing.work_ns, 120];
                for (hist, dur) in hists.iter().zip(durs) {
                    hist.record(dur);
                }
                let total_ns: u64 = durs.iter().sum();
                id += 1;
                ring.offer_with(total_ns, || {
                    let mut start_ns = 0;
                    let spans = STAGES
                        .iter()
                        .zip(durs)
                        .map(|(stage, dur_ns)| {
                            let span = Span {
                                stage,
                                start_ns,
                                dur_ns,
                            };
                            start_ns += dur_ns;
                            span
                        })
                        .collect();
                    gmc_obs::Trace {
                        id,
                        label: inputs.name(index).to_owned(),
                        class: outcome.label().to_owned(),
                        total_ns,
                        spans,
                    }
                });
            }
            t.elapsed().as_secs_f64()
        };
        for pair in 0..OVERHEAD_PAIRS {
            let (b, i) = if pair % 2 == 0 {
                let b = bare();
                (b, instrumented())
            } else {
                let i = instrumented();
                (bare(), i)
            };
            self.overhead_pct.push((i / b - 1.0) * 100.0);
        }
    }

    fn finish(&self, report: &mut Report) {
        for (name, samples) in [
            ("serve.protocol_parse_us", &self.parse),
            ("serve.protocol_render_us", &self.render),
            ("expr.bind_us", &self.bind),
            ("plan.key_us", &self.key),
            ("plan.sig_us", &self.sig),
            ("plan.hit_lookup_us", &self.hit_lookup),
            ("plan.hit_work_us", &self.hit_work),
            ("plan.miss_lookup_us", &self.miss_lookup),
            ("plan.miss_work_us", &self.miss_work),
            ("core.cold_solve_us", &self.cold),
            ("plan.regions", &self.regions),
        ] {
            report.set(name, Metric::mean_of(samples));
        }
        report.set("obs.overhead_pct", Metric::median_of(&self.overhead_pct));
        let cells = self.cells.iter().sum::<usize>().max(1) as f64;
        report.set(
            "plan.deferred_frac",
            Metric::single(self.cells[1] as f64 / cells, cells as usize),
        );
        report.set(
            "plan.dynamic_frac",
            Metric::single(self.cells[2] as f64 / cells, cells as usize),
        );
        let hit_work = report.get("plan.hit_work_us").unwrap_or(0.0);
        report.set(
            "plan.hit_vs_cold",
            Metric::single(hit_work / mean(&self.cold), self.hit_work.len()),
        );
    }
}

pub fn run_hit(args: &Args) -> Result<Report, String> {
    host::use_one_cpu()?;
    let mut report = Report::new("serve_hit", args.seed, args.trace);
    let inputs = hit_inputs(args.seed, args.quick)?;
    report.note("inputs_digest", Value::String(inputs.digest.clone()));

    // The window is served by several deployments in turn, each set up
    // from scratch, and each sends the whole trace (the one part) again
    // and again for its share of the window. The first pass's replies
    // are checked against cold solves; every later pass must read the
    // same replies.
    let deployments = if args.quick { 1 } else { HIT_DEPLOYMENTS };
    let span = args.seconds / deployments as f64;
    let mut fastest = Fastest::new([inputs.lines.len()]);
    let (mut setup_s, mut registry_us) = (Vec::new(), Vec::new());
    let (mut window, mut rtt, mut first) = (Delta::default(), Rtt::default(), None);
    for k in 0..deployments {
        let d = deploy(&inputs, true)?;
        setup_s.push(d.setup_s);
        registry_us.push(d.registry_us);
        let before = d.server.stats();
        let (mut measured, mut sent) = (0.0, 0);
        while measured < span {
            let (logs, elapsed) = drive(d.door.local_addr(), &inputs.lines, host::nproc())?;
            let pass = collect(&mut report, logs);
            pass.record(&mut fastest, 0, &mut rtt);
            measured += elapsed;
            sent += pass.sent;
            let lines: BTreeMap<usize, String> = pass
                .lines()
                .into_iter()
                .map(|(index, reply)| (index, reply.to_owned()))
                .collect();
            match &first {
                None => first = Some(lines),
                Some(first) => {
                    let differing = lines
                        .iter()
                        .filter(|(index, reply)| first.get(index) != Some(reply))
                        .count();
                    if differing > 0 {
                        report.fail(
                            differing as u64,
                            format!("deployment {k}: {differing} repeated requests read a different reply"),
                        );
                    }
                }
            }
        }
        let delta = Delta::between(&before, &d.server.stats());
        d.stop(&mut report);
        account(&mut report, &delta, sent, true, &format!("deployment {k}"));
        window.add(&delta);
    }
    report.set("peak_rss_mb", Metric::single(host::peak_rss_mb()?, 1));
    report.set("setup_s", Metric::median_of(&setup_s));
    report.set("kernels.registry_build_us", Metric::mean_of(&registry_us));
    crate::set_end_to_end(&mut report, &fastest);
    if let Some(first) = &first {
        let lines = first.iter().map(|(&i, r)| (i, r.as_str())).collect();
        check_replies(&mut report, &inputs, &lines, "window");
    }

    if args.trace {
        stage_layers(&mut report, &window, &rtt);
        let mut traced = Traced::default();
        traced.replay(&inputs, &Arc::new(KernelRegistry::blas_lapack()), true);
        traced.finish(&mut report);
    }
    Ok(report)
}

/// serve_mixed's epochs: each its own trace of the `mixed` preset's shape.
fn mixed_epochs(seed: u64, quick: bool) -> Result<Vec<Inputs>, String> {
    (0..if quick { 2 } else { EPOCHS })
        .map(|e| Inputs::generate(&mixed_spec(seed, e, quick)))
        .collect()
}

pub fn run_mixed(args: &Args) -> Result<Report, String> {
    host::use_one_cpu()?;
    let mut report = Report::new("serve_mixed", args.seed, args.trace);
    let epochs = mixed_epochs(args.seed, args.quick)?;
    report.note(
        "inputs_digest",
        Value::Array(
            epochs
                .iter()
                .map(|e| Value::String(e.digest.clone()))
                .collect(),
        ),
    );
    let mut fastest = Fastest::new(epochs.iter().map(|e| e.lines.len()));
    let (mut setup_s, mut registry_us) = (Vec::new(), Vec::new());
    let (mut window, mut rtt) = (Delta::default(), Rtt::default());
    let (mut measured, mut passes) = (0.0, 0);
    while passes < MIN_PASSES || measured < args.seconds {
        for (e, inputs) in epochs.iter().enumerate() {
            let what = format!("pass {passes} epoch {e}");
            let d = deploy(inputs, false)?;
            setup_s.push(d.setup_s);
            registry_us.push(d.registry_us);
            let before = d.server.stats();
            let (logs, elapsed) = drive(d.door.local_addr(), &inputs.lines, host::nproc())?;
            let delta = Delta::between(&before, &d.server.stats());
            d.stop(&mut report);
            let pass = collect(&mut report, logs);
            account(&mut report, &delta, pass.sent, false, &what);
            let seed = sub_seed(sub_seed(args.seed, e), passes);
            check_replies(
                &mut report,
                inputs,
                &sample(pass.lines(), CHECKS_PER_EPOCH, seed),
                &what,
            );
            pass.record(&mut fastest, e, &mut rtt);
            window.add(&delta);
            measured += elapsed;
        }
        passes += 1;
    }
    report.note("passes", Value::Number(passes as f64));
    report.set("setup_s", Metric::median_of(&setup_s));
    report.set("kernels.registry_build_us", Metric::mean_of(&registry_us));
    crate::set_end_to_end(&mut report, &fastest);
    // Peak memory of a process that served one cold-cache epoch, measured
    // in children: this process has run dozens of servers, and what its
    // allocator kept from them is not what one server holds. A server's
    // peak follows its epoch's structures closely (13 to 36 MiB between
    // epochs, within 1% for one epoch), so every epoch is probed and the
    // figure is their mean.
    let mut peaks = Vec::new();
    for e in 0..epochs.len() {
        let mut probe = vec![
            "--probe-epoch-peak".to_owned(),
            e.to_string(),
            "--seed".to_owned(),
            args.seed.to_string(),
        ];
        if args.quick {
            probe.push("--quick".to_owned());
        }
        peaks.push(host::probe(&probe)?);
    }
    report.set("peak_rss_mb", Metric::mean_of(&peaks));

    if args.trace {
        stage_layers(&mut report, &window, &rtt);
        let registry = Arc::new(KernelRegistry::blas_lapack());
        let mut traced = Traced::default();
        for inputs in epochs.iter().take(TRACED_EPOCHS) {
            traced.replay(inputs, &registry, false);
        }
        traced.finish(&mut report);
    }
    Ok(report)
}

/// Child-process entry: serves serve_mixed epoch `epoch` once from a
/// fresh server, as a run does, and prints the process's peak resident
/// set in MiB.
pub fn probe_epoch_peak(seed: u64, epoch: usize, quick: bool) -> Result<(), String> {
    host::use_one_cpu()?;
    let inputs = Inputs::generate(&mixed_spec(seed, epoch, quick))?;
    let d = deploy(&inputs, false)?;
    let (logs, _) = drive(d.door.local_addr(), &inputs.lines, host::nproc())?;
    let peak = host::peak_rss_mb()?;
    let mut report = Report::new("serve_mixed", seed, false);
    d.stop(&mut report);
    collect(&mut report, logs);
    if !report.correct() {
        return Err(report.violations.join("; "));
    }
    println!("{peak}");
    Ok(())
}

/// A seeded sample of at most `count` replies.
fn sample(replies: BTreeMap<usize, &str>, count: usize, seed: u64) -> BTreeMap<usize, &str> {
    if replies.len() <= count {
        return replies;
    }
    let mut entries: Vec<(usize, &str)> = replies.into_iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let j = rng.gen_range(i..entries.len());
        entries.swap(i, j);
    }
    entries.truncate(count);
    entries.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_plan::PlanOutcome;
    use gmc_serve::ServeError;

    #[test]
    fn reply_check_accepts_the_cold_solve_and_nothing_else() {
        let inputs = Inputs::generate(&mixed_spec(3, 0, true)).expect("trace");
        let registry = KernelRegistry::blas_lapack();
        let optimizer = GmcOptimizer::new(&registry, FlopCount)
            .with_inference(ServeConfig::default().inference);
        let chain = inputs.chain(0).bind(&inputs.bindings[0]).expect("binds");
        let cold = optimizer.solve(&chain).expect("solves");
        let kernels: Vec<String> = cold.kernel_names().iter().map(|k| k.to_string()).collect();
        let reply = |result| {
            reply_to_json(&ServeReply {
                structure: inputs.name(0).to_owned(),
                result,
            })
        };
        let served = |cost, kernels| {
            Ok(Served {
                outcome: PlanOutcome::Hit,
                cost,
                flops: cold.flops(),
                parenthesization: cold.parenthesization().to_owned(),
                kernels,
            })
        };
        let ok = reply(served(cold.cost(), kernels.clone()));
        assert_eq!(check_reply(&inputs, 0, &ok, &optimizer), Ok(()));
        let one_ulp = f64::from_bits(cold.cost().to_bits() + 1);
        for wrong in [
            reply(served(one_ulp, kernels.clone())),
            reply(served(cold.cost(), Vec::new())),
            reply(Err(ServeError::QueueFull)),
            "not json".to_owned(),
        ] {
            assert!(
                check_reply(&inputs, 0, &wrong, &optimizer).is_err(),
                "{wrong}"
            );
        }
    }

    #[test]
    fn broken_accounting_is_a_violation() {
        let mut report = Report::new("serve_hit", 1, false);
        let window = Delta {
            completed: 10,
            hits: 9,
            misses: 1,
            stage_count: [10; 7],
            ..Delta::default()
        };
        account(&mut report, &window, 10, false, "window");
        assert!(report.correct());
        // A request the server never completed, and a miss where only
        // hits may occur.
        account(&mut report, &window, 11, true, "window");
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
    }
}
