//! Trace replay against a live serving front door, with invariant
//! checking, bitwise result verification, and deterministic chaos.
//!
//! [`replay_trace`] builds a fresh [`Server`], registers the trace's
//! structure population, drives the request sequence through
//! [`ServeHandle`] submission (respecting the recorded arrival offsets
//! when asked, or closed-loop windows otherwise), and returns every
//! per-request result next to the server's counter and latency
//! snapshot. After the run it checks the accounting invariants the
//! serving tier promises — every submitted request is answered exactly
//! once, the consistent served counters balance, the latency
//! histograms saw exactly one sample per completed request — and, when
//! verification is on, replays each distinct `(structure, bindings)`
//! pair through a cold [`GmcOptimizer`] solve and demands the served
//! answer be *bit-identical* (cost bits, parenthesization, kernel
//! sequence). Violations are collected, not panicked, so soak tests
//! and the CLI can report all of them.
//!
//! With [`ReplayOptions::faults`] set, the harness injects the plan's
//! faults at their request indices: worker panics and kills become
//! [`gmc_serve::SolveFault`]s, `Expire` entries submit with an
//! already-expired deadline, `Drop` entries abandon their ticket (the
//! server must survive replying into a dead channel), and `Burst`
//! entries override the window so `size` requests hit admission as one
//! batch. Ordinary windows are clamped to the admission capacity in
//! that mode, so queue-full shedding happens exactly at the bursts.
//!
//! [`ServeHandle`]: gmc_serve::ServeHandle

use crate::workload::Trace;
use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::DimBindings;
use gmc_kernels::KernelRegistry;
use gmc_serve::faults::{silence_injected_panics, FaultKind, FaultPlan};
use gmc_serve::{RequestOptions, ServeConfig, ServeReply, Server, ServerStats, Ticket};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much of the replay to verify against cold reference solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verify {
    /// No reference solves.
    None,
    /// Verify up to this many distinct `(structure, bindings)` pairs
    /// (the first ones encountered, deterministically).
    Sample(usize),
    /// Verify every distinct pair.
    All,
}

/// Replay configuration.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Worker threads of the replayed-into server.
    pub workers: usize,
    /// Inference mode of the server's plan cache (and the reference
    /// solves).
    pub inference: InferenceMode,
    /// Reference-solve verification depth.
    pub verify: Verify,
    /// Honor the trace's `at_us` arrival offsets (sleeps between
    /// submissions). Off = submit as fast as the mode allows.
    pub honor_timing: bool,
    /// Closed-loop submission window: submit this many requests as one
    /// batch, wait for all replies, then continue. `0` means submit
    /// the whole trace as a single batch, admitted whole before any of
    /// it is queued. Ignored when `honor_timing` is set.
    pub window: usize,
    /// Admission capacity for the replayed-into server. `None` takes
    /// the fault plan's capacity if one is set, else the server
    /// default.
    pub queue_capacity: Option<usize>,
    /// Deterministic fault schedule to inject (see
    /// [`gmc_serve::faults`]).
    pub faults: Option<FaultPlan>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            workers: 4,
            inference: InferenceMode::default(),
            verify: Verify::None,
            honor_timing: false,
            window: 64,
            queue_capacity: None,
            faults: None,
        }
    }
}

/// Reply codes produced by shedding or injected faults rather than by
/// solving; requests answered with one of these are exempt from
/// bitwise verification and identical-answer comparison.
const SHED_CODES: [&str; 5] = [
    "queue_full",
    "deadline_exceeded",
    "internal",
    "dropped",
    "closed",
];

/// One replayed request's served answer, in trace order.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestResult {
    /// The structure the request addressed.
    pub structure: String,
    /// Served cost (FLOPs); 0.0 on error.
    pub cost: f64,
    /// Served FLOP count; 0.0 on error.
    pub flops: f64,
    /// The chosen parenthesization ("" on error).
    pub parenthesization: String,
    /// Kernel names in execution order (empty on error).
    pub kernels: Vec<String>,
    /// The serve error, if the request failed.
    pub error: Option<String>,
    /// The error's stable wire code (`ServeError::code`), or
    /// `"dropped"` for a reply abandoned by an injected connection
    /// drop; `None` on success.
    pub code: Option<String>,
}

impl RequestResult {
    fn from_reply(reply: &ServeReply) -> RequestResult {
        match &reply.result {
            Ok(served) => RequestResult {
                structure: reply.structure.clone(),
                cost: served.cost,
                flops: served.flops,
                parenthesization: served.parenthesization.clone(),
                kernels: served.kernels.clone(),
                error: None,
                code: None,
            },
            Err(e) => RequestResult {
                structure: reply.structure.clone(),
                cost: 0.0,
                flops: 0.0,
                parenthesization: String::new(),
                kernels: Vec::new(),
                error: Some(e.to_string()),
                code: Some(e.code().to_owned()),
            },
        }
    }

    fn abandoned(structure: String) -> RequestResult {
        RequestResult {
            structure,
            cost: 0.0,
            flops: 0.0,
            parenthesization: String::new(),
            kernels: Vec::new(),
            error: Some("reply abandoned by client (injected connection drop)".to_owned()),
            code: Some("dropped".to_owned()),
        }
    }

    fn is_shed(&self) -> bool {
        self.code
            .as_deref()
            .is_some_and(|c| SHED_CODES.contains(&c))
    }
}

/// The full outcome of one replay run.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Per-request results, exactly one per trace request, in order.
    pub results: Vec<RequestResult>,
    /// The server's counters and latency snapshot after shutdown (so
    /// supervision counters are final).
    pub stats: ServerStats,
    /// Wall-clock seconds from first submission to last reply.
    pub elapsed: f64,
    /// Requests submitted (== trace length).
    pub submitted: usize,
    /// Distinct `(structure, bindings)` pairs verified against cold
    /// reference solves.
    pub verified: usize,
    /// Replies shed by admission control (`queue_full`).
    pub queue_full_replies: usize,
    /// Replies shed by deadline expiry (`deadline_exceeded`).
    pub expired_replies: usize,
    /// Replies answered `internal` (injected or real worker panics).
    pub internal_replies: usize,
    /// Tickets abandoned by injected connection drops.
    pub abandoned: usize,
    /// Worker threads that died by panic (from the shutdown report).
    pub worker_panics: u64,
    /// Workers the supervisor respawned.
    pub respawns: u64,
    /// Invariant and verification failures (empty on a clean run).
    pub violations: Vec<String>,
}

impl ReplayReport {
    /// Whether the run upheld every invariant (and verification).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays `trace` against a fresh server; see the module docs.
///
/// # Errors
///
/// Returns an error when the trace itself is unusable (invalid
/// structure, registration failure) or the fault plan is malformed.
/// Serving-layer failures and invariant violations are *reported* in
/// the returned [`ReplayReport::violations`] instead, so callers see
/// all of them.
pub fn replay_trace(trace: &Trace, opts: &ReplayOptions) -> Result<ReplayReport, String> {
    trace.validate()?;
    let faults: BTreeMap<usize, FaultKind> = match &opts.faults {
        Some(plan) => {
            plan.validate()?;
            if plan.injects_panics() {
                // Injected panics are expected noise; keep real ones
                // loud.
                silence_injected_panics();
            }
            plan.by_request()
        }
        None => BTreeMap::new(),
    };
    let queue_capacity = opts.queue_capacity.unwrap_or_else(|| match &opts.faults {
        Some(plan) if plan.queue_capacity > 0 => plan.queue_capacity,
        _ => ServeConfig::default().queue_capacity,
    });
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            workers: opts.workers.max(1),
            inference: opts.inference,
            queue_capacity,
            ..ServeConfig::default()
        },
    );
    let chains: Vec<_> = trace
        .structures
        .iter()
        .map(|s| s.chain())
        .collect::<Result<Vec<_>, _>>()?;
    for (s, chain) in trace.structures.iter().zip(&chains) {
        server
            .register(&s.name, chain.clone())
            .map_err(|e| format!("register `{}`: {e}", s.name))?;
    }
    let handle = server.handle();
    let mut violations = Vec::new();

    // Submit the trace and collect replies in trace order. Dropped
    // tickets leave a `None`; their placeholder result is synthesized
    // afterwards.
    let request_of = |i: usize| -> (String, DimBindings) {
        let r = &trace.requests[i];
        let s = &trace.structures[r.structure];
        (s.name.clone(), s.bindings(&r.values))
    };
    let options_of = |i: usize| -> RequestOptions {
        let mut o = RequestOptions::default();
        match faults.get(&i) {
            // An already-expired deadline: the worker that dequeues it
            // must shed it.
            Some(FaultKind::Expire) => o.deadline = Some(Instant::now()),
            Some(kind) => o.fault = kind.solve_fault(),
            None => {}
        }
        o
    };
    let total = trace.requests.len();
    let mut replies: Vec<Option<ServeReply>> = (0..total).map(|_| None).collect();
    let mut abandoned = 0usize;
    let start = Instant::now();
    if opts.honor_timing {
        let mut tickets: Vec<(usize, Ticket)> = Vec::with_capacity(total);
        for (i, r) in trace.requests.iter().enumerate() {
            let due = Duration::from_micros(r.at_us);
            let now = start.elapsed();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (name, bindings) = request_of(i);
            let ticket = handle.submit_opts(&name, bindings, options_of(i));
            if matches!(faults.get(&i), Some(FaultKind::Drop)) {
                drop(ticket);
                abandoned += 1;
            } else {
                tickets.push((i, ticket));
            }
        }
        for (i, ticket) in tickets {
            replies[i] = Some(ticket.wait());
        }
    } else {
        let base = if opts.window == 0 {
            total.max(1)
        } else {
            opts.window
        };
        // Under a fault plan, ordinary windows stay within the
        // admission capacity so shedding happens exactly at the
        // bursts (closed-loop waiting returns every permit between
        // windows).
        let base = if faults.is_empty() {
            base
        } else {
            base.min(queue_capacity).max(1)
        };
        let mut next = 0usize;
        while next < total {
            let end = if let Some(FaultKind::Burst { size }) = faults.get(&next) {
                (next + (*size).max(1)).min(total)
            } else {
                let mut end = (next + base).min(total);
                // Cut the window short at the next burst start so the
                // burst arrives at admission as one batch.
                if let Some((&burst_at, _)) = faults
                    .range(next + 1..end)
                    .find(|(_, k)| matches!(k, FaultKind::Burst { .. }))
                {
                    end = burst_at;
                }
                end
            };
            let batch: Vec<(String, DimBindings, RequestOptions)> = (next..end)
                .map(|i| {
                    let (name, bindings) = request_of(i);
                    (name, bindings, options_of(i))
                })
                .collect();
            let tickets = handle.submit_batch_opts(batch);
            let mut window_dropped = false;
            for (offset, ticket) in tickets.into_iter().enumerate() {
                let i = next + offset;
                if matches!(faults.get(&i), Some(FaultKind::Drop)) {
                    drop(ticket);
                    abandoned += 1;
                    window_dropped = true;
                } else {
                    replies[i] = Some(ticket.wait());
                }
            }
            if window_dropped {
                // The abandoned tickets' permits come back only when
                // the server answers them; wait for that so the next
                // window (and any burst) sees a quiet gate.
                if !await_answered(&handle, end as u64) {
                    violations.push(format!(
                        "server never finished answering the {end} requests \
                         submitted so far (abandoned tickets lost?)"
                    ));
                    break;
                }
            }
            next = end;
        }
    }
    // A killed worker answers its job *before* it dies, so the last
    // reply can reach us while the supervisor is still processing the
    // death. Let supervision settle before shutdown closes the gate,
    // so the respawn count is deterministic.
    let kills = faults
        .values()
        .filter(|k| matches!(k, FaultKind::Kill))
        .count() as u64;
    if kills > 0 {
        let expected_respawns = kills.min(ServeConfig::default().restart_budget as u64);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            let supervision = handle.stats().supervision;
            if supervision.worker_panics >= kills && supervision.respawns >= expected_respawns {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Shutdown drains in-flight work, so the post-shutdown snapshot is
    // the final word on accounting (supervision counters included).
    let shutdown = server.shutdown();
    let stats = handle.stats();

    let results: Vec<RequestResult> = replies
        .iter()
        .enumerate()
        .map(|(i, reply)| match reply {
            Some(reply) => RequestResult::from_reply(reply),
            None => RequestResult::abandoned(request_of(i).0),
        })
        .collect();

    // Accounting invariants: every request is answered exactly once
    // and the consistent served counters balance with the histograms.
    let submitted = trace.requests.len();
    if results.len() != submitted {
        violations.push(format!(
            "replies ({}) != submitted requests ({submitted})",
            results.len()
        ));
    }
    let served = stats.served;
    if served.completed + served.rejected != submitted as u64 {
        violations.push(format!(
            "completed ({}) + rejected ({}) != submitted ({submitted})",
            served.completed, served.rejected
        ));
    }
    if served.hits + served.misses + served.failed != served.completed {
        violations.push(format!(
            "hits ({}) + misses ({}) + failed ({}) != completed ({})",
            served.hits, served.misses, served.failed, served.completed
        ));
    }
    if served.rejected_overload + served.expired > served.rejected {
        violations.push(format!(
            "overload ({}) + expired ({}) exceed rejected ({})",
            served.rejected_overload, served.expired, served.rejected
        ));
    }
    if stats.latency.total.count() != served.completed {
        violations.push(format!(
            "total latency samples ({}) != completed ({})",
            stats.latency.total.count(),
            served.completed
        ));
    }
    if stats.latency.queue.count() != served.completed {
        violations.push(format!(
            "queue latency samples ({}) != completed ({})",
            stats.latency.queue.count(),
            served.completed
        ));
    }
    if stats.latency.expired.count() != served.expired {
        violations.push(format!(
            "expired latency samples ({}) != expired counter ({})",
            stats.latency.expired.count(),
            served.expired
        ));
    }
    // Stage span histograms record exactly once per completed request:
    // after shutdown drains, every stage's sample count equals
    // `completed`.
    for stage in &stats.latency.stages {
        if stage.snapshot.count() != served.completed {
            violations.push(format!(
                "stage `{}` span samples ({}) != completed ({})",
                stage.stage,
                stage.snapshot.count(),
                served.completed
            ));
        }
    }
    // Class histograms record only successful solves: exactly one
    // sample per hit or miss, none for failures.
    let class_total: u64 = stats
        .latency
        .classes
        .iter()
        .map(|c| c.snapshot.count())
        .sum();
    if class_total != served.hits + served.misses {
        violations.push(format!(
            "class latency samples ({class_total}) != hits ({}) + misses ({})",
            served.hits, served.misses
        ));
    }
    // Every completed request is one cache instantiate, except those an
    // injected panic or kill answered before reaching the cache.
    let instantiates_ok = if opts.faults.is_some() {
        stats.cache.requests() <= served.completed
    } else {
        stats.cache.requests() == served.completed
    };
    if !instantiates_ok {
        violations.push(format!(
            "cache instantiates ({}) do not match completed requests ({})",
            stats.cache.requests(),
            served.completed
        ));
    }
    // Pool health: workers die only by injection. (Admission runs on
    // this thread, inside the submit calls above: a panic there fails
    // the replay outright.)
    let expects_panics = opts.faults.as_ref().is_some_and(FaultPlan::injects_panics);
    if shutdown.worker_panics > 0 && !expects_panics {
        violations.push(format!(
            "{} worker panic(s) without injected panics",
            shutdown.worker_panics
        ));
    }
    // Each injected fault must surface as the reply it promises (or as
    // admission shedding, which outranks the worker-side fault).
    for (&i, kind) in &faults {
        if i >= results.len() {
            continue;
        }
        let code = results[i].code.as_deref();
        match kind {
            FaultKind::Panic | FaultKind::Kill => {
                if !matches!(code, Some("internal") | Some("queue_full")) {
                    violations.push(format!(
                        "request {i}: injected {kind:?} but reply code is {code:?}"
                    ));
                }
            }
            FaultKind::Expire => {
                if !matches!(code, Some("deadline_exceeded") | Some("queue_full")) {
                    violations.push(format!(
                        "request {i}: injected {kind:?} but reply code is {code:?}"
                    ));
                }
            }
            FaultKind::Delay { .. } | FaultKind::Drop | FaultKind::Burst { .. } => {}
        }
    }

    // Identical successful requests must be answered identically,
    // replay-wide, raced or not. Shed replies are
    // exempt: whether a duplicate was shed depends on admission, not
    // on the answer.
    let mut first_answer: HashMap<(usize, &[usize]), usize> = HashMap::new();
    for (i, r) in trace.requests.iter().enumerate() {
        if i >= results.len() || results[i].is_shed() {
            continue;
        }
        match first_answer.entry((r.structure, r.values.as_slice())) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(i);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let first = &results[*e.get()];
                let this = &results[i];
                if !bitwise_eq(first, this) {
                    violations.push(format!(
                        "request {i} answered differently from identical request {}: \
                         {:?} vs {:?}",
                        e.get(),
                        this,
                        first
                    ));
                }
            }
        }
    }

    // Bitwise verification against cold reference solves. Shed replies
    // carry no answer to verify; they are skipped without consuming
    // the budget (a successful duplicate later still gets checked).
    let budget = match opts.verify {
        Verify::None => 0,
        Verify::Sample(n) => n,
        Verify::All => usize::MAX,
    };
    let mut verified = 0usize;
    if budget > 0 {
        let gmc = GmcOptimizer::new(&registry, FlopCount).with_inference(opts.inference);
        let mut seen: HashMap<(usize, &[usize]), ()> = HashMap::new();
        for (i, r) in trace.requests.iter().enumerate() {
            if verified >= budget || i >= results.len() {
                break;
            }
            if results[i].is_shed() {
                continue;
            }
            if seen
                .insert((r.structure, r.values.as_slice()), ())
                .is_some()
            {
                continue;
            }
            let s = &trace.structures[r.structure];
            let bound = match chains[r.structure].bind(&s.bindings(&r.values)) {
                Ok(chain) => chain,
                Err(e) => {
                    // The server must have rejected it too.
                    if results[i].error.is_none() {
                        violations.push(format!(
                            "request {i}: unbindable for reference ({e}) but served OK"
                        ));
                    }
                    verified += 1;
                    continue;
                }
            };
            match gmc.solve(&bound) {
                Ok(reference) => {
                    let got = &results[i];
                    if let Some(err) = &got.error {
                        violations.push(format!(
                            "request {i} (`{}`): reference solved but serve failed: {err}",
                            s.name
                        ));
                    } else if got.cost.to_bits() != reference.cost().to_bits()
                        || got.flops.to_bits() != reference.flops().to_bits()
                        || got.parenthesization != reference.parenthesization()
                        || got.kernels != reference.kernel_names()
                    {
                        violations.push(format!(
                            "request {i} (`{}`): served answer differs from cold solve: \
                             served ({}, {:?}) vs reference ({}, {:?})",
                            s.name,
                            got.parenthesization,
                            got.kernels,
                            reference.parenthesization(),
                            reference.kernel_names()
                        ));
                    }
                }
                Err(e) => {
                    if results[i].error.is_none() {
                        violations.push(format!(
                            "request {i} (`{}`): reference solve failed ({e}) but serve \
                             answered OK",
                            s.name
                        ));
                    }
                }
            }
            verified += 1;
        }
    }

    let queue_full_replies = count_code(&results, "queue_full");
    let expired_replies = count_code(&results, "deadline_exceeded");
    let internal_replies = count_code(&results, "internal");
    Ok(ReplayReport {
        results,
        stats,
        elapsed,
        submitted,
        verified,
        queue_full_replies,
        expired_replies,
        internal_replies,
        abandoned,
        worker_panics: shutdown.worker_panics,
        respawns: shutdown.respawns,
        violations,
    })
}

/// Polls the served counters until `target` requests have been
/// answered (completed or rejected); `false` on timeout.
fn await_answered(handle: &gmc_serve::ServeHandle, target: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = handle.stats().served;
        if served.completed + served.rejected >= target {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn count_code(results: &[RequestResult], code: &str) -> usize {
    results
        .iter()
        .filter(|r| r.code.as_deref() == Some(code))
        .count()
}

fn bitwise_eq(a: &RequestResult, b: &RequestResult) -> bool {
    a.structure == b.structure
        && a.cost.to_bits() == b.cost.to_bits()
        && a.flops.to_bits() == b.flops.to_bits()
        && a.parenthesization == b.parenthesization
        && a.kernels == b.kernels
        && a.error == b.error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, WorkloadSpec};

    #[test]
    fn mixed_replay_is_clean_and_verified() {
        let mut spec = WorkloadSpec::preset("mixed", 9).unwrap();
        spec.requests = 40;
        let trace = generate(&spec).unwrap();
        let report = replay_trace(
            &trace,
            &ReplayOptions {
                workers: 2,
                verify: Verify::All,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.results.len(), 40);
        assert!(report.verified > 0);
        assert_eq!(report.stats.served.completed, 40);
        assert!(report.results.iter().all(|r| r.error.is_none()));
    }

    /// The whole storm trace as one batch: every duplicate is its own
    /// request and coalesces at the cache, as a hit on the region its
    /// first copy recorded.
    #[test]
    fn storm_replay_coalesces_single_batch() {
        let mut spec = WorkloadSpec::preset("storm", 4).unwrap();
        spec.requests = 60;
        let trace = generate(&spec).unwrap();
        let report = replay_trace(
            &trace,
            &ReplayOptions {
                workers: 4,
                window: 0,
                verify: Verify::Sample(10),
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let (served, cache) = (report.stats.served, report.stats.cache);
        assert_eq!(cache.requests(), served.completed);
        assert!(served.hits > 0, "{}", report.stats);
    }

    #[test]
    fn replay_is_deterministic_in_results() {
        let mut spec = WorkloadSpec::preset("aliased", 21).unwrap();
        spec.requests = 30;
        let trace = generate(&spec).unwrap();
        let opts = ReplayOptions {
            workers: 3,
            ..ReplayOptions::default()
        };
        let a = replay_trace(&trace, &opts).unwrap();
        let b = replay_trace(&trace, &opts).unwrap();
        assert!(a.is_clean(), "violations: {:?}", a.violations);
        assert!(b.is_clean(), "violations: {:?}", b.violations);
        // Hit/miss outcomes race across runs; the *answers* must not.
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn burst_overflows_a_small_queue_deterministically() {
        let mut spec = WorkloadSpec::preset("mixed", 5).unwrap();
        spec.requests = 48;
        let trace = generate(&spec).unwrap();
        let plan = FaultPlan {
            seed: 0,
            queue_capacity: 4,
            entries: vec![gmc_serve::faults::FaultEntry {
                request: 8,
                kind: FaultKind::Burst { size: 12 },
            }],
        };
        let report = replay_trace(
            &trace,
            &ReplayOptions {
                workers: 2,
                faults: Some(plan),
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        // Closed-loop windows return every permit before the burst, so
        // exactly size - capacity of its requests are shed.
        assert_eq!(report.queue_full_replies, 12 - 4);
        assert_eq!(report.stats.served.rejected_overload, 8);
    }
}
