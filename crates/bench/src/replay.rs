//! Trace replay against a live serving front door, with invariant
//! checking, bitwise result verification, and deterministic chaos.
//!
//! [`replay_trace`] builds a fresh [`Server`], registers the trace's
//! structure population, and drives the request sequence from
//! [`ReplayOptions::workers`] caller threads over as many solve slots:
//! each caller takes the next request of the trace and solves it
//! through [`ServeHandle`] on its own thread, as a connection thread of
//! the TCP front door does (respecting the recorded arrival offsets
//! when asked). It returns every per-request result next to the
//! server's counter and latency snapshot. After the run it checks the
//! accounting invariants the serving tier promises — the consistent
//! served counters balance, the latency histograms saw exactly one
//! sample per completed request — and, when verification is on,
//! replays each distinct `(structure, bindings)` pair through a cold
//! [`GmcOptimizer`] solve and demands the served answer be
//! *bit-identical* (cost bits, parenthesization, kernel sequence).
//! Violations are collected, not panicked, so soak tests and the CLI
//! can report all of them.
//!
//! With [`ReplayOptions::faults`] set, the harness injects the plan's
//! faults at their request indices: panics and delays become
//! [`gmc_serve::SolveFault`]s, `Expire` entries carry an
//! already-expired deadline, and each `Burst` is sent as one
//! [`ServeHandle::solve_batch`] once every earlier request has been
//! answered, before any later one starts. The callers never outnumber
//! the admission capacity, so queue-full shedding happens exactly at
//! the bursts. Every `internal` reply must come from an injected
//! `Panic`, and the server must count one caught panic per injected
//! panic that reached its solve.
//!
//! [`ServeHandle`]: gmc_serve::ServeHandle
//! [`ServeHandle::solve_batch`]: gmc_serve::ServeHandle::solve_batch

use crate::workload::Trace;
use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::DimBindings;
use gmc_kernels::KernelRegistry;
use gmc_serve::faults::{silence_injected_panics, FaultKind, FaultPlan};
use gmc_serve::{RequestOptions, ServeConfig, ServeReply, Server, ServerStats};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
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
    /// Caller threads, and solve slots of the replayed-into server.
    /// The callers are clamped to the admission capacity, so no
    /// request is shed but at a `Burst`.
    pub workers: usize,
    /// Inference mode of the server's plan cache (and the reference
    /// solves).
    pub inference: InferenceMode,
    /// Reference-solve verification depth.
    pub verify: Verify,
    /// Honor the trace's `at_us` arrival offsets: each caller sleeps
    /// until its request is due before solving it. Arrivals are still
    /// closed-loop, so at most `workers` requests are in flight and a
    /// request whose callers are all busy starts late. Off = each
    /// caller takes the next request as soon as it is free.
    pub honor_timing: bool,
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
            queue_capacity: None,
            faults: None,
        }
    }
}

/// Reply codes produced by shedding or injected faults rather than by
/// solving; requests answered with one of these are exempt from
/// bitwise verification and identical-answer comparison (an `internal`
/// reply is checked against the fault plan instead).
const SHED_CODES: [&str; 4] = ["queue_full", "deadline_exceeded", "internal", "closed"];

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
    /// The error's stable wire code (`ServeError::code`); `None` on
    /// success.
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
    /// The server's counters and latency snapshot after shutdown.
    pub stats: ServerStats,
    /// Wall-clock seconds from the first request to the last reply.
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
    /// Replies answered `internal` (panics inside the solve).
    pub internal_replies: usize,
    /// Solves that panicked, from the server's shutdown report.
    pub panics: u64,
    /// Invariant and verification failures (empty on a clean run).
    pub violations: Vec<String>,
}

impl ReplayReport {
    /// Whether the run upheld every invariant (and verification).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Hands the trace to the caller threads in order, one request per
/// turn, except that a `Burst` is one turn of its own: it starts once
/// every earlier turn is answered, and no later turn starts before it
/// is answered, so its batch meets an empty admission gate.
struct Turns<'a> {
    state: Mutex<TurnState>,
    changed: Condvar,
    faults: &'a BTreeMap<usize, FaultKind>,
    total: usize,
}

struct TurnState {
    /// The first request not yet handed out.
    next: usize,
    /// Turns handed out and not yet answered.
    in_flight: usize,
    /// Whether the turn in flight is a burst.
    burst: bool,
}

impl Turns<'_> {
    /// The next turn's request range (one request, or a whole burst);
    /// `None` once the whole trace is handed out.
    fn take(&self) -> Option<Range<usize>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let start = state.next;
            if start >= self.total {
                return None;
            }
            let size = match self.faults.get(&start) {
                Some(&FaultKind::Burst { size }) => Some(size),
                _ => None,
            };
            if !state.burst && (size.is_none() || state.in_flight == 0) {
                let end = size.map_or(start + 1, |size| (start + size).min(self.total));
                state.next = end;
                state.in_flight += 1;
                state.burst = size.is_some();
                return Some(start..end);
            }
            state = self
                .changed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks one turn answered.
    fn done(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.in_flight -= 1;
        // While a burst is in flight it is the only turn.
        state.burst = false;
        drop(state);
        self.changed.notify_all();
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
    let workers = opts.workers.max(1);
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            workers,
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

    let request_of = |i: usize| -> (String, DimBindings, RequestOptions) {
        let r = &trace.requests[i];
        let s = &trace.structures[r.structure];
        let mut options = RequestOptions::default();
        match faults.get(&i) {
            // An already-expired deadline: the server must shed it.
            Some(FaultKind::Expire) => options.deadline = Some(Instant::now()),
            Some(kind) => options.fault = kind.solve_fault(),
            None => {}
        }
        (s.name.clone(), s.bindings(&r.values), options)
    };
    let total = trace.requests.len();
    let turns = Turns {
        state: Mutex::new(TurnState {
            next: 0,
            in_flight: 0,
            burst: false,
        }),
        changed: Condvar::new(),
        faults: &faults,
        total,
    };
    let mut replies: Vec<Option<ServeReply>> = vec![None; total];
    let start = Instant::now();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..workers.min(queue_capacity))
            .map(|_| {
                scope.spawn(|| {
                    let mut answered = Vec::new();
                    while let Some(turn) = turns.take() {
                        if opts.honor_timing {
                            let due = Duration::from_micros(trace.requests[turn.start].at_us);
                            let now = start.elapsed();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let got = if turn.len() == 1 {
                            let (name, bindings, options) = request_of(turn.start);
                            vec![handle.solve_opts(&name, bindings, options)]
                        } else {
                            handle.solve_batch(turn.clone().map(request_of).collect())
                        };
                        turns.done();
                        answered.extend(turn.zip(got));
                    }
                    answered
                })
            })
            .collect();
        for caller in callers {
            for (i, reply) in caller.join().expect("replay caller thread") {
                replies[i] = Some(reply);
            }
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    // Shutdown waits for every solve, so the post-shutdown snapshot is
    // the final word on accounting.
    let shutdown = server.shutdown();
    let stats = handle.stats();

    let results: Vec<RequestResult> = replies
        .iter()
        .map(|reply| RequestResult::from_reply(reply.as_ref().expect("every request is answered")))
        .collect();

    // Accounting invariants: the consistent served counters account
    // for every request and balance with the histograms.
    let submitted = total;
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
    // injected panic answered before reaching the cache.
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
    violations.extend(fault_violations(&faults, &results, shutdown.panics));

    // Identical successful requests must be answered identically,
    // replay-wide, raced or not. Shed replies are
    // exempt: whether a duplicate was shed depends on admission, not
    // on the answer.
    let mut first_answer: HashMap<(usize, &[usize]), usize> = HashMap::new();
    for (i, r) in trace.requests.iter().enumerate() {
        if results[i].is_shed() {
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
            if verified >= budget {
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
        panics: shutdown.panics,
        violations,
    })
}

/// Checks each reply against the fault plan: an injected `Panic` or
/// `Expire` surfaces as the reply it promises (or as admission
/// shedding, which outranks it); an `internal` reply appears only where
/// the plan injected a `Panic`, so a panic no fault injected is
/// reported; and the server's count of caught panics (`panics`, from
/// its shutdown report) equals the injected panics that reached their
/// solve.
fn fault_violations(
    faults: &BTreeMap<usize, FaultKind>,
    results: &[RequestResult],
    panics: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fired = 0u64;
    for (i, result) in results.iter().enumerate() {
        let code = result.code.as_deref();
        let promised = match faults.get(&i) {
            Some(FaultKind::Panic) => "internal",
            Some(FaultKind::Expire) => "deadline_exceeded",
            _ => {
                if code == Some("internal") {
                    violations.push(format!(
                        "request {i}: answered internal where the plan injected no panic: {}",
                        result.error.as_deref().unwrap_or_default()
                    ));
                }
                continue;
            }
        };
        if promised == "internal" && code == Some("internal") {
            fired += 1;
        }
        if code != Some(promised) && code != Some("queue_full") {
            violations.push(format!(
                "request {i}: injected {:?} but reply code is {code:?}",
                faults[&i]
            ));
        }
    }
    if panics != fired {
        violations.push(format!(
            "the server caught {panics} solve panic(s), but {fired} injected panic(s) fired"
        ));
    }
    violations
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

    /// A storm trace from four callers: every duplicate is its own
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
        // Every earlier request is answered, and so has returned its
        // permit, before the burst is admitted, so exactly size -
        // capacity of its requests are shed.
        assert_eq!(report.queue_full_replies, 12 - 4);
        assert_eq!(report.stats.served.rejected_overload, 8);
    }

    fn answered(code: Option<&str>) -> RequestResult {
        RequestResult {
            structure: "X".to_owned(),
            cost: 0.0,
            flops: 0.0,
            parenthesization: String::new(),
            kernels: Vec::new(),
            error: code.map(|c| format!("{c} error")),
            code: code.map(str::to_owned),
        }
    }

    #[test]
    fn fault_check_flags_panics_no_fault_injected() {
        let faults = BTreeMap::from([(1, FaultKind::Panic), (3, FaultKind::Expire)]);
        let clean = [
            answered(None),
            answered(Some("internal")),
            answered(None),
            answered(Some("deadline_exceeded")),
        ];
        assert!(fault_violations(&faults, &clean, 1).is_empty());
        // An `internal` reply at an index the plan left alone is a solve
        // panic nothing injected, though the panic counts agree.
        let mut stray = clean.clone();
        stray[2] = answered(Some("internal"));
        let violations = fault_violations(&faults, &stray, 2);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("request 2: answered internal"));
        assert!(violations[1].contains("caught 2 solve panic(s), but 1"));
        // A panic the server caught without answering `internal`, and an
        // injected panic that never fired, are both reported.
        assert_eq!(fault_violations(&faults, &clean, 2).len(), 1);
        let mut unfired = clean.clone();
        unfired[1] = answered(None);
        assert_eq!(fault_violations(&faults, &unfired, 0).len(), 1);
        // Admission shedding outranks a fault.
        let mut shed = clean;
        shed[1] = answered(Some("queue_full"));
        assert!(fault_violations(&faults, &shed, 0).is_empty());
    }
}
