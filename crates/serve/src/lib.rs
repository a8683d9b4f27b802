//! `gmc-serve`: the serving front door over the concurrent plan cache.
//!
//! The GMC compile-time cost pays off when one symbolic solve is
//! amortized over many size-bound requests. This crate turns the
//! [`gmc_plan::PlanCache`] into a serving subsystem:
//!
//! ```text
//!               requests (structure name + dim bindings)
//!  clients ──────────────┐
//!                        ▼
//!       calling thread (TCP connection, `gmcc serve --requests`
//!       or ServeHandle caller), start to finish:
//!         admit: look the structure up, bind its chain, take
//!                a place in the ledger (or shed the request)
//!         queue: claim one of `workers` solve slots, waiting
//!                for one while every slot is busy
//!         solve: the shared PlanCache, through the structure's
//!                entry (hits are reads under many-reader locks)
//!         reply: cost, parenthesization, kernels
//! ```
//!
//! * **Parse and key once per structure, bind once per request.**
//!   Chains are registered by name ([`Server::register`]); requests
//!   reference the name and carry only dimension bindings, so no
//!   request ever re-parses a chain. At its first request a structure
//!   resolves its plan-cache entry and its variables' names, so later
//!   requests compute no structure key and take no process-wide lock.
//!   Admission binds each request's chain once; the cache solves it.
//! * **Run to completion.** Every request runs on its caller's thread:
//!   a TCP request line, a `gmcc serve --requests` line and a
//!   [`ServeHandle`] call alike. There is one path from admission to
//!   reply, and [`Server::start`] spawns no thread. At most
//!   [`ServeConfig::workers`] solves run at once; a caller that finds
//!   every solve slot busy waits on its own thread for one, and that
//!   wait is the request's `queue` stage.
//! * **One request, one solve.** Every admitted request is solved and
//!   answered on its own, under its own deadline and injected fault. A
//!   batch ([`ServeHandle::solve_batch`]) is admitted whole before any
//!   of it is solved, so with `k` places free exactly its first `k`
//!   admissible requests enter; it is then solved in order on the
//!   calling thread. Identical requests are not merged: after the first
//!   one records its region, the rest are cache hits, and racing misses
//!   on one region record once (the entry's recording mutex).
//! * **Pre-enumeration.** [`Server::register_pre_enumerated`] records a
//!   plan for every reachable region of a small chain up front, making
//!   every subsequent request for it a hit.
//! * **One telemetry store.** Every counter, gauge and histogram is an
//!   instrument of one [`gmc_obs::MetricsRegistry`] (see [`metrics`]),
//!   recorded through handles resolved at start or, for a structure's
//!   latency classes, at its first solved request, so a request after
//!   that takes no lock and looks up no name to record itself.
//!   [`ServeHandle::stats`] and `METRICS` read the same instruments.
//! * **One ledger, no async runtime.** One mutex counts the requests
//!   in flight, the solves running and the callers waiting for a slot,
//!   and holds the stop latch; with two condvars, all from the standard
//!   library, it bounds admission and the solves. The optional TCP
//!   listener in
//!   [`tcp`] is a thin front end over `std::net::TcpListener` that
//!   answers each line through [`protocol::answer_line`], as the CLI
//!   batch driver does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod metrics;
pub mod protocol;
pub mod tcp;

pub use faults::SolveFault;
pub use gmc_obs::trace::{Span, Trace, TRACE_FORMAT};

use faults::FAULT_PANIC_MARKER;
use gmc::{GmcSolution, InferenceMode};
use gmc_expr::{Chain, DimBindings, DimVar, SymChain};
use gmc_kernels::{Flops, KernelRegistry};
use gmc_obs::trace::SlowTraceRing;
use gmc_obs::{Counter, Histogram, HistogramSnapshot};
use gmc_plan::{CacheStats, PlanCache, PlanError, PlanOutcome, SolveTiming, SymbolicPlan};
use metrics::Telemetry;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// The bound on concurrent solves: at most this many requests
    /// solve at once, each on its caller's thread. A caller that finds
    /// every solve slot busy waits for one. Clamped to at least 1.
    pub workers: usize,
    /// Inference mode the shared cache compiles under.
    pub inference: InferenceMode,
    /// Admission capacity: the maximum number of requests in flight
    /// (admitted, and released when their reply is ready). Requests
    /// beyond it are shed newest-first with [`ServeError::QueueFull`].
    /// Clamped to at least 1.
    pub queue_capacity: usize,
    /// How many of the slowest request traces the server retains for
    /// [`ServeHandle::slow_traces`] and the `SLOW` wire command.
    /// 0 disables trace retention (per-stage histograms still record).
    pub slow_trace_capacity: usize,
}

/// The request pipeline stages, in order. Every completed request
/// records one span per stage; the spans are consecutive, so their
/// durations sum exactly to the request's end-to-end latency:
///
/// * `admit` — call entry to admission + parse done
/// * `queue` — the wait for a solve slot, on the calling thread (about
///   zero while a slot is free; a request of a batch also waits here
///   for the batch's earlier requests)
/// * `group` — always zero: every request is solved on its own, so
///   nothing is grouped (the stage stays so that stage readings keep
///   their shape)
/// * `dispatch` — from claiming the slot to the solve starting (the
///   deadline check; about zero)
/// * `lookup` — locating the cached region plan
/// * `solve` — instantiating the plan (or recording it, on a miss)
/// * `reply` — accounting and building the reply
pub const STAGES: [&str; 7] = [
    "admit", "queue", "group", "dispatch", "lookup", "solve", "reply",
];

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            inference: InferenceMode::default(),
            queue_capacity: 4096,
            slow_trace_capacity: 32,
        }
    }
}

/// A successfully served request.
#[derive(Clone, Debug)]
pub struct Served {
    /// How the cache served it (hit, new region, new structure).
    pub outcome: PlanOutcome,
    /// Total cost (FLOPs — the plan layer's metric).
    pub cost: f64,
    /// Total FLOP count.
    pub flops: f64,
    /// The chosen parenthesization.
    pub parenthesization: String,
    /// Kernel names, in execution order.
    pub kernels: Vec<String>,
}

impl Served {
    fn from_solution(solution: &GmcSolution<Flops>, outcome: PlanOutcome) -> Served {
        Served {
            outcome,
            cost: solution.cost(),
            flops: solution.flops(),
            parenthesization: solution.parenthesization().to_owned(),
            kernels: solution
                .kernel_names()
                .into_iter()
                .map(str::to_owned)
                .collect(),
        }
    }
}

/// Serving failures.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request names a structure that was never registered.
    UnknownStructure(String),
    /// The plan layer rejected the request (bad binding, unsolvable
    /// chain, …).
    Plan(PlanError),
    /// The request line itself was malformed.
    BadRequest(String),
    /// The server is shut down.
    Closed,
    /// The request's deadline passed before its solve started (expiry
    /// covers the wait for a solve slot); it was shed without being
    /// solved.
    DeadlineExceeded,
    /// The ledger held [`ServeConfig::queue_capacity`] requests; the
    /// request was shed (newest-first overload policy) without waiting
    /// for a solve slot.
    QueueFull,
    /// The request's solve panicked (the panic was caught; this
    /// request is the only loss).
    Internal(String),
}

impl ServeError {
    /// A stable machine-readable tag for the wire protocol: error
    /// replies carry it as `"code"` so clients can branch without
    /// parsing prose.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnknownStructure(_) => "unknown_structure",
            ServeError::Plan(_) => "plan",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::Closed => "closed",
            ServeError::DeadlineExceeded => "deadline_exceeded",
            ServeError::QueueFull => "queue_full",
            ServeError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownStructure(name) => {
                write!(f, "unknown structure `{name}` (register it first)")
            }
            ServeError::Plan(e) => e.fmt(f),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Closed => write!(f, "server is shut down"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded while queued"),
            ServeError::QueueFull => write!(f, "queue full (request shed by admission control)"),
            ServeError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError::Plan(e)
    }
}

/// One reply: the structure it answers for and the outcome.
#[derive(Clone, Debug)]
pub struct ServeReply {
    /// The structure name of the originating request.
    pub structure: String,
    /// The served plan, or why it failed.
    pub result: Result<Served, ServeError>,
}

/// Cumulative serving counters.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// The shared plan cache's hit/miss counters: one instantiate per
    /// solved request, so with no injected fault `cache.requests()`
    /// equals `served.completed`.
    pub cache: CacheStats,
    /// Admitted requests, one each, counted when the request claims a
    /// solve slot or starts to wait for one: a caller counted here is
    /// waiting, solving or answered.
    pub batches: u64,
    /// Registered structures.
    pub structures: usize,
    /// Per-request outcome counters; `completed` and `rejected` are
    /// sums of their parts, so `hits + misses + failed == completed`
    /// holds in every reading, even mid-burst.
    pub served: ServedCounters,
    /// Solves that panicked and were answered [`ServeError::Internal`]
    /// (each also counts under `served.failed`).
    pub panics: u64,
    /// Latency histogram snapshots (call→complete and call→solve
    /// start, plus per-(structure, hit/miss) classes).
    pub latency: LatencySnapshot,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; {} batches, {} structures; {}",
            self.cache, self.batches, self.structures, self.served
        )?;
        if self.panics > 0 {
            write!(f, "; {} solve panics", self.panics)?;
        }
        if !self.latency.total.is_empty() {
            write!(
                f,
                "; latency p50 {}ns p99 {}ns max {}ns",
                self.latency.total.quantile(0.5),
                self.latency.total.quantile(0.99),
                self.latency.total.max()
            )?;
        }
        Ok(())
    }
}

/// Per-request completion counters. Unlike the cache counters (which
/// count instantiates), these count *requests*: every request answered
/// through a [`ServeReply`] ends up in exactly one of `completed`
/// (solved) or `rejected` (answered without a solve: unknown structure,
/// bad binding, unbindable sizes, overload, shutdown, expired
/// deadline), and `completed` splits exactly into
/// `hits + misses + failed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedCounters {
    /// Requests solved and answered (successfully or not).
    pub completed: u64,
    /// Completed requests served from a cached region plan.
    pub hits: u64,
    /// Completed requests that recorded a structure or region plan
    /// (a request that waited for another's recording of its region
    /// counts as the hit it observed).
    pub misses: u64,
    /// Completed requests whose solve failed (plan-layer error) or
    /// panicked (answered [`ServeError::Internal`]).
    pub failed: u64,
    /// Requests answered without a solve: at admission (unknown
    /// structure, unresolvable variable names, unbindable sizes,
    /// overload sheds, [`ServeError::Closed`]), when shutdown had begun
    /// before they reached the wait for a solve slot
    /// ([`ServeError::Closed`]), or when their deadline passed before
    /// their solve started (expired deadlines).
    /// `rejected_overload` and `expired` are sub-counts of this, so
    /// `completed + rejected` still accounts for every request.
    pub rejected: u64,
    /// Of `rejected`: requests shed because the ledger was at capacity.
    pub rejected_overload: u64,
    /// Of `rejected`: requests whose deadline passed before their solve
    /// started.
    pub expired: u64,
}

impl fmt::Display for ServedCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} completed ({} hits, {} misses, {} failed), {} rejected",
            self.completed, self.hits, self.misses, self.failed, self.rejected
        )?;
        if self.rejected_overload > 0 || self.expired > 0 {
            write!(
                f,
                " ({} overload, {} expired)",
                self.rejected_overload, self.expired
            )?;
        }
        Ok(())
    }
}

/// Latency snapshots of a running server.
#[derive(Clone, Debug, Default)]
pub struct LatencySnapshot {
    /// Call→complete latency of every completed request.
    pub total: HistogramSnapshot,
    /// Call→solve start (admission and the wait for a solve slot)
    /// latency of the same requests.
    pub queue: HistogramSnapshot,
    /// Call→shed latency of deadline-expired requests (they are shed
    /// unsolved, so they appear here instead of `total`).
    pub expired: HistogramSnapshot,
    /// Per-(structure, hit/miss) call→complete histograms with a
    /// sample, sorted by structure name then class for deterministic
    /// rendering. The registry's per-family cap
    /// ([`DEFAULT_SERIES_CAP`](gmc_obs::registry::DEFAULT_SERIES_CAP),
    /// two series per structure) bounds them: past the first 32
    /// structures to be solved, the rest share one entry whose
    /// structure and class are both `other`.
    pub classes: Vec<ClassLatency>,
    /// Per-stage span histograms in [`STAGES`] order, recorded once
    /// per completed request.
    pub stages: Vec<StageLatency>,
}

/// One pipeline stage's span histogram.
#[derive(Clone, Debug)]
pub struct StageLatency {
    /// Stage name (one of [`STAGES`]).
    pub stage: &'static str,
    /// Span-duration histogram of the stage across completed requests.
    pub snapshot: HistogramSnapshot,
}

/// One (structure, hit/miss) latency class.
#[derive(Clone, Debug)]
pub struct ClassLatency {
    /// Registered structure name (`other` for the shared spill entry).
    pub structure: String,
    /// `hit` or `miss` (`other` for the shared spill entry).
    pub class: String,
    /// Call→complete histogram of this class.
    pub snapshot: HistogramSnapshot,
}

/// Nanoseconds between two instants, saturating into `u64`.
fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    later
        .saturating_duration_since(earlier)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// A registered structure: its name, its chain, what its requests need
/// of the chain, and the latency histograms of its hits and misses.
struct Structure {
    name: String,
    chain: SymChain,
    /// Resolved at the structure's first request (see
    /// [`Structure::resolved`]).
    resolved: OnceLock<Resolved>,
    /// Resolved in the registry once, at the structure's first solved
    /// request, and read with one load after that: registering them in
    /// [`Server::register`] put two registry registrations, about 4 µs
    /// per structure, into every deployment's set-up.
    classes: OnceLock<[Histogram; 2]>,
}

/// What every request for a structure needs of its chain, resolved
/// once: the plan-cache entry it solves through, and each variable with
/// its name, so a request keys nothing and reads no interned name.
struct Resolved {
    plan: Arc<SymbolicPlan>,
    vars: Vec<(&'static str, DimVar)>,
}

impl Structure {
    /// The structure's [`Resolved`] parts, resolved at its first
    /// request rather than in [`Server::register`], so a deployment's
    /// set-up keys no structure.
    fn resolved(&self, cache: &PlanCache) -> &Resolved {
        self.resolved.get_or_init(|| Resolved {
            plan: cache.resolve(&self.chain),
            vars: self
                .chain
                .vars()
                .into_iter()
                .map(|v| (v.name(), v))
                .collect(),
        })
    }
}

struct Shared {
    cache: PlanCache,
    ledger: Ledger,
    structures: RwLock<HashMap<String, Arc<Structure>>>,
    telemetry: Telemetry,
    /// The N slowest completed traces.
    slow: SlowTraceRing,
    trace_ids: AtomicU64,
}

use gmc_plan::sync::{mutex_lock, read_lock, write_lock};

/// Builds concrete bindings from string-named sizes using only the
/// structure's own variables, named as [`Resolved`] lists them: a name
/// is looked up among them, never interned.
fn bind_named_vars<N: AsRef<str>>(
    vars: &[(&str, DimVar)],
    named: &[(N, usize)],
) -> Result<DimBindings, String> {
    let mut bindings = DimBindings::new();
    for (name, value) in named {
        let name = name.as_ref();
        let &(_, var) = vars
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("unknown dimension variable `{name}` for this structure"))?;
        bindings.set_var(var, *value);
    }
    Ok(bindings)
}

impl Shared {
    /// Reads every histogram before any counter, behind an acquire
    /// fence: a request is counted before its samples record, so no
    /// histogram here is ahead of `completed`.
    fn stats(&self) -> ServerStats {
        let t = &self.telemetry;
        let latency = t.latency();
        fence(Ordering::Acquire);
        ServerStats {
            cache: self.cache.stats(),
            batches: t.batches.get(),
            structures: read_lock(&self.structures).len(),
            served: t.served(),
            panics: t.panics.get(),
            latency,
        }
    }
}

/// Per-request options: an optional deadline and an optional injected
/// solve-side fault (chaos testing only).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestOptions {
    /// If set, the request is shed with
    /// [`ServeError::DeadlineExceeded`] when the deadline passes before
    /// its solve starts: while its caller waits for a solve slot, or
    /// by the time it claims one. Expiry is not checked mid-solve: a
    /// request whose solve has started is always answered with its
    /// result.
    pub deadline: Option<Instant>,
    /// Deterministic fault the solve executes for this request (see
    /// [`faults`]). `None` in production traffic.
    pub fault: Option<SolveFault>,
}

impl RequestOptions {
    /// Options with a deadline this far in the future.
    pub fn with_deadline_in(timeout: std::time::Duration) -> RequestOptions {
        RequestOptions {
            deadline: Some(Instant::now() + timeout),
            fault: None,
        }
    }
}

/// One admitted request: its structure, its bound chain, its options
/// and its place in the ledger.
struct Admitted<'a> {
    structure: Arc<Structure>,
    chain: Chain,
    trace_id: u64,
    options: RequestOptions,
    permit: Permit<'a>,
}

/// The requests in flight, one ledger per server: one mutex holds the
/// requests admitted and not yet answered, the solves running on their
/// callers' threads, the callers waiting for a solve slot, and the stop
/// latch. Waiting callers are bounded at the door: beyond `capacity`
/// the newest request is shed ([`ServeError::QueueFull`]), so admitted
/// work is never abandoned halfway.
struct Ledger {
    state: Mutex<LedgerState>,
    /// Wakes one waiting caller: a slot came free.
    freed: Condvar,
    /// Wakes [`Server::shutdown`] once no solve runs and no caller
    /// waits.
    idle: Condvar,
    /// [`ServeConfig::queue_capacity`].
    capacity: usize,
    /// [`ServeConfig::workers`].
    workers: usize,
}

#[derive(Default)]
struct LedgerState {
    /// Requests admitted and not yet answered; at most `capacity`.
    admitted: usize,
    /// Solves running now; at most `workers`.
    running: usize,
    /// Callers waiting for a slot.
    waiting: usize,
    /// Set at shutdown: a request that arrives later is refused, at
    /// admission or at its slot claim, while a caller already waiting
    /// still gets its slot.
    stopped: bool,
}

/// One admitted request's place in the [`Ledger`]; dropping it gives
/// the place back. Held through the wait for a solve slot and the
/// solve, and dropped *before* the request is counted as answered, so a
/// caller that sees the count (a replay's burst waits for it) finds the
/// place free.
struct Permit<'a> {
    ledger: &'a Ledger,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        mutex_lock(&self.ledger.state).admitted -= 1;
    }
}

/// One claimed solve slot; dropping it (also while unwinding) gives the
/// slot back.
struct Running<'a> {
    ledger: &'a Ledger,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut state = mutex_lock(&self.ledger.state);
        state.running -= 1;
        // Wake only a thread that can be waiting for this: a caller, if
        // one waits, and shutdown, once nothing runs or waits.
        let (waiting, idle) = (
            state.waiting > 0,
            state.stopped && state.running == 0 && state.waiting == 0,
        );
        drop(state);
        if waiting {
            self.ledger.freed.notify_one();
        }
        if idle {
            self.ledger.idle.notify_all();
        }
    }
}

impl Ledger {
    /// A ledger admitting at most `capacity` requests and running at
    /// most `workers` solves at once, each clamped to at least 1.
    fn new(capacity: usize, workers: usize) -> Ledger {
        Ledger {
            state: Mutex::default(),
            freed: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
            workers: workers.max(1),
        }
    }

    /// Admits one request, or says why not: [`ServeError::Closed`] once
    /// the ledger is stopped, [`ServeError::QueueFull`] at capacity.
    fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let mut state = mutex_lock(&self.state);
        if state.stopped {
            return Err(ServeError::Closed);
        }
        if state.admitted >= self.capacity {
            return Err(ServeError::QueueFull);
        }
        state.admitted += 1;
        Ok(Permit { ledger: self })
    }

    /// Claims a solve slot for the calling thread, waiting while every
    /// slot is busy, and counts the request under `admitted` in the
    /// same critical section. Fails with [`ServeError::Closed`] once
    /// the ledger is stopped, and with [`ServeError::DeadlineExceeded`]
    /// if `deadline` passes while it waits.
    fn claim(
        &self,
        deadline: Option<Instant>,
        admitted: &Counter,
    ) -> Result<Running<'_>, ServeError> {
        let mut state = mutex_lock(&self.state);
        admitted.inc();
        if state.stopped {
            return Err(ServeError::Closed);
        }
        if state.running == self.workers {
            state.waiting += 1;
            while state.running == self.workers {
                let Some(deadline) = deadline else {
                    state = self
                        .freed
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                };
                let now = Instant::now();
                if now >= deadline {
                    // Giving up leaves every slot busy, so shutdown has
                    // nothing to be woken for yet.
                    state.waiting -= 1;
                    return Err(ServeError::DeadlineExceeded);
                }
                state = self
                    .freed
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            state.waiting -= 1;
        }
        state.running += 1;
        Ok(Running { ledger: self })
    }

    /// Sets the stop latch: later admissions and slot claims are
    /// refused, callers already waiting keep waiting, and places
    /// already held stay valid.
    fn stop(&self) {
        mutex_lock(&self.state).stopped = true;
    }

    /// Waits until no solve runs and no caller waits (after
    /// [`stop`](Self::stop), so none can start).
    fn wait_idle(&self) {
        let mut state = mutex_lock(&self.state);
        while state.running > 0 || state.waiting > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A cheap, clonable handle onto a running [`Server`]. Every call runs
/// its request to completion on the calling thread.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Solves one request and returns its reply.
    pub fn solve(&self, structure: &str, bindings: DimBindings) -> ServeReply {
        self.solve_opts(structure, bindings, RequestOptions::default())
    }

    /// [`solve`](Self::solve) with explicit [`RequestOptions`].
    pub fn solve_opts(
        &self,
        structure: &str,
        bindings: DimBindings,
        options: RequestOptions,
    ) -> ServeReply {
        self.solve_one(structure, bindings, options, |_, bindings| Ok(bindings))
    }

    /// Solves one request whose variables are *named by string* — the
    /// untrusted text-protocol path, which every request line takes
    /// (see [`protocol::answer_line`]) — and returns its reply. Names
    /// are resolved against the registered structure's own variable
    /// vocabulary; an unknown name is rejected with
    /// [`ServeError::BadRequest`] **without being interned** (`DimVar`
    /// interning is process-wide and permanent, so a front door must
    /// never intern arbitrary client strings).
    pub fn solve_raw<N: AsRef<str>>(
        &self,
        structure: &str,
        vars: Vec<(N, usize)>,
        options: RequestOptions,
    ) -> ServeReply {
        self.solve_one(structure, vars, options, |resolved, vars| {
            bind_named_vars(&resolved.vars, &vars).map_err(ServeError::BadRequest)
        })
    }

    /// Solves several requests, replying in request order. The whole
    /// batch is admitted before any of it is solved, so with `k`
    /// places free exactly its first `k` admissible requests enter and
    /// the rest are shed [`ServeError::QueueFull`]. The admitted ones
    /// are then solved in order on the calling thread, each under its
    /// own deadline and injected fault, identical requests included.
    pub fn solve_batch(
        &self,
        requests: Vec<(String, DimBindings, RequestOptions)>,
    ) -> Vec<ServeReply> {
        let called = Instant::now();
        let admitted: Vec<_> = {
            let structures = read_lock(&self.shared.structures);
            requests
                .into_iter()
                .map(|(name, bindings, options)| {
                    self.admit(&structures, &name, bindings, options, |_, b| Ok(b))
                        .map_err(|e| self.refuse(&name, e))
                })
                .collect()
        };
        let admitted_at = Instant::now();
        admitted
            .into_iter()
            .map(|request| match request {
                Ok(request) => run_job(&self.shared, request, called, admitted_at),
                Err(refused) => refused,
            })
            .collect()
    }

    /// The path of every single-request call: admits the request, then
    /// solves it on the calling thread through [`run_job`].
    fn solve_one<T>(
        &self,
        name: &str,
        payload: T,
        options: RequestOptions,
        resolve: impl FnOnce(&Resolved, T) -> Result<DimBindings, ServeError>,
    ) -> ServeReply {
        let called = Instant::now();
        let admitted = self.admit(
            &read_lock(&self.shared.structures),
            name,
            payload,
            options,
            resolve,
        );
        match admitted {
            Ok(request) => run_job(&self.shared, request, called, Instant::now()),
            Err(e) => self.refuse(name, e),
        }
    }

    /// Admits one request on the calling thread: looks the structure
    /// up, resolves the payload into bindings, binds the structure's
    /// chain with them (the request's one binding), and only then takes
    /// a place in the ledger. So a request for an unknown structure or
    /// with unbindable sizes is refused, and counted `rejected`, though
    /// the ledger is full.
    fn admit<T>(
        &self,
        structures: &HashMap<String, Arc<Structure>>,
        name: &str,
        payload: T,
        options: RequestOptions,
        resolve: impl FnOnce(&Resolved, T) -> Result<DimBindings, ServeError>,
    ) -> Result<Admitted<'_>, ServeError> {
        let structure = structures
            .get(name)
            .ok_or_else(|| ServeError::UnknownStructure(name.to_owned()))?;
        let bindings = resolve(structure.resolved(&self.shared.cache), payload)?;
        let chain = structure
            .chain
            .bind(&bindings)
            .map_err(|e| ServeError::Plan(e.into()))?;
        let permit = self.shared.ledger.admit()?;
        Ok(Admitted {
            structure: Arc::clone(structure),
            chain,
            trace_id: self.shared.trace_ids.fetch_add(1, Ordering::Relaxed),
            options,
            permit,
        })
    }

    /// The reply to a request refused at admission, counted under
    /// `rejected` (see [`ServedCounters`]).
    fn refuse(&self, structure: &str, error: ServeError) -> ServeReply {
        let tel = &self.shared.telemetry;
        match error {
            ServeError::QueueFull => &tel.overloaded,
            _ => &tel.rejected,
        }
        .inc();
        ServeReply {
            structure: structure.to_owned(),
            result: Err(error),
        }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The retained slowest traces, slowest first. Capacity is
    /// [`ServeConfig::slow_trace_capacity`]; each trace's spans tile
    /// its total exactly (see [`STAGES`]).
    pub fn slow_traces(&self) -> Vec<Trace> {
        self.shared.slow.snapshot()
    }

    /// The slow traces as a stable [`TRACE_FORMAT`] (`gmc-traces/1`)
    /// JSON document — the `SLOW` wire command's payload.
    pub fn slow_traces_json(&self) -> String {
        gmc_obs::trace::traces_json(&self.slow_traces())
    }

    /// Every metric the server keeps — serve counters, per-stage and
    /// per-class latency histograms, cache and per-structure counters,
    /// trace-ring counters — rendered as a Prometheus text exposition
    /// (the `METRICS` wire command's payload, without the `# EOF`
    /// terminator).
    pub fn metrics_prometheus(&self) -> String {
        metrics::render_prometheus(&self.shared)
    }

    /// Cache introspection as a single-line JSON document: totals and
    /// the hit/miss/region counts of each structure a request reached
    /// (the `CACHE` wire command's payload).
    pub fn cache_introspection_json(&self) -> String {
        metrics::render_cache(&self.shared)
    }
}

/// The serving front door: a shared [`PlanCache`] whose requests run
/// on their callers' threads, at most [`ServeConfig::workers`] solves
/// at once.
///
/// # Example
///
/// ```
/// use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
/// use gmc_kernels::KernelRegistry;
/// use gmc_serve::{ServeConfig, Server};
/// use std::sync::Arc;
///
/// let registry = Arc::new(KernelRegistry::blas_lapack());
/// let server = Server::start(registry, ServeConfig::default());
/// let (n, m) = (Dim::var("n"), Dim::var("m"));
/// let chain = SymChain::new(vec![
///     SymFactor::plain(SymOperand::new("A", n, m)),
///     SymFactor::plain(SymOperand::new("B", m, n)),
/// ])
/// .unwrap();
/// server.register("X", chain).unwrap();
///
/// let reply = server
///     .handle()
///     .solve("X", DimBindings::new().with("n", 100).with("m", 20));
/// let served = reply.result.unwrap();
/// assert_eq!(served.kernels, vec!["GEMM_NN"]);
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
}

/// How a finished [`Server::shutdown`] went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Solves that panicked over the server's lifetime (injected faults
    /// included), each caught and answered [`ServeError::Internal`].
    pub panics: u64,
}

impl ShutdownReport {
    /// Whether no solve panicked.
    pub fn is_clean(&self) -> bool {
        self.panics == 0
    }
}

impl fmt::Display for ShutdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean shutdown")
        } else {
            write!(
                f,
                "shutdown with {} solve panics (answered internal)",
                self.panics
            )
        }
    }
}

impl Server {
    /// Creates the server; it spawns no thread.
    pub fn start(registry: Arc<KernelRegistry>, config: ServeConfig) -> Server {
        Server {
            shared: Arc::new(Shared {
                cache: PlanCache::new(registry, config.inference),
                ledger: Ledger::new(config.queue_capacity, config.workers),
                structures: RwLock::new(HashMap::new()),
                telemetry: Telemetry::new(),
                slow: SlowTraceRing::new(config.slow_trace_capacity),
                trace_ids: AtomicU64::new(0),
            }),
        }
    }

    /// Registers (or replaces) a structure under `name`. This is the
    /// parse-once step: requests reference the name and never carry a
    /// chain.
    ///
    /// # Errors
    ///
    /// Currently infallible; returns `Result` so registration can gain
    /// validation without breaking callers.
    pub fn register(&self, name: &str, chain: SymChain) -> Result<(), ServeError> {
        let structure = Structure {
            name: name.to_owned(),
            chain,
            resolved: OnceLock::new(),
            classes: OnceLock::new(),
        };
        write_lock(&self.shared.structures).insert(name.to_owned(), Arc::new(structure));
        Ok(())
    }

    /// Registers `name` and pre-records a plan for every size region
    /// the chain can reach, so each request for it is a cache hit.
    /// Returns the number of regions recorded.
    ///
    /// # Errors
    ///
    /// [`PlanError::Enumeration`] if the chain is too large to
    /// enumerate; the structure is still registered in that case (it
    /// just warms up on demand).
    pub fn register_pre_enumerated(&self, name: &str, chain: SymChain) -> Result<usize, PlanError> {
        self.register(name, chain.clone())
            .expect("registration is infallible");
        self.shared.cache.pre_enumerate_regions(&chain)
    }

    /// The shared plan cache (e.g. for warm-starting from a plan store
    /// before traffic arrives, or saving it after).
    pub fn cache(&self) -> &PlanCache {
        &self.shared.cache
    }

    /// A clonable handle to call the server through.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Sets the ledger's stop latch, which refuses later admissions and
    /// slot claims, then waits until no solve runs and no caller waits
    /// for a slot, so nothing is solved once it returns. A caller
    /// already waiting for a slot is still solved; one admitted before
    /// the latch was set that reaches the wait afterwards is answered
    /// [`ServeError::Closed`], like every later request. Those refusals
    /// are the only thing counted after it returns (under `rejected`,
    /// see [`ServedCounters`]). Never panics: solves that panicked are
    /// reported in the returned [`ShutdownReport`].
    pub fn shutdown(self) -> ShutdownReport {
        self.stop();
        self.shared.ledger.wait_idle();
        ShutdownReport {
            panics: self.shared.telemetry.panics.get(),
        }
    }

    fn stop(&self) {
        self.shared.ledger.stop();
    }
}

impl Drop for Server {
    /// Begins the same stop as [`Server::shutdown`] without waiting:
    /// callers in flight are still answered.
    fn drop(&mut self) {
        self.stop();
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "solve panicked".to_owned())
}

/// Runs one admitted request to its reply on the calling thread: waits
/// for a solve slot, sheds the request if its deadline passed before
/// its solve could start (or if shutdown began before it reached the
/// wait), and otherwise solves and answers it. `called` is when the
/// call began and `admitted` when admission ended.
fn run_job(
    shared: &Shared,
    request: Admitted<'_>,
    called: Instant,
    admitted: Instant,
) -> ServeReply {
    let Admitted {
        structure,
        chain,
        trace_id,
        options,
        permit,
    } = request;
    let tel = &shared.telemetry;
    let claimed = shared.ledger.claim(options.deadline, &tel.batches);
    let picked = Instant::now();
    let reply = |result| ServeReply {
        structure: structure.name.clone(),
        result,
    };
    let expired = options.deadline.is_some_and(|deadline| picked >= deadline);
    // The slot is held until the request is answered, and given back
    // while unwinding too.
    let _running = match claimed {
        Ok(running) if !expired => running,
        Err(ServeError::Closed) => {
            drop(permit);
            tel.rejected.inc();
            return reply(Err(ServeError::Closed));
        }
        _ => {
            // Never solved, so `rejected` as `expired`, and its latency
            // lands in the `expired` histogram, not `total`. Its place
            // is freed before it counts, and it counts before its sample
            // records, as below.
            drop(permit);
            tel.expired.inc();
            fence(Ordering::Release);
            tel.expired_ns.record(nanos_between(called, picked));
            return reply(Err(ServeError::DeadlineExceeded));
        }
    };
    // The solve runs under `catch_unwind`: a panicking solve answers
    // `Internal` and fails only its own request. Injected faults fire
    // before the cache is touched, so a fault never leaves shared state
    // mid-update.
    let solve_started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match options.fault {
            Some(SolveFault::Delay(d)) => std::thread::sleep(d),
            Some(SolveFault::Panic) => panic!("{FAULT_PANIC_MARKER}: injected solve panic"),
            None => {}
        }
        let plan = &structure.resolved(&shared.cache).plan;
        shared.cache.solve_resolved(plan, &structure.chain, &chain)
    }));
    let solve_done = Instant::now();
    let (result, timing, class) = match outcome {
        Ok(Ok((solution, oc, timing))) => {
            (Ok(Served::from_solution(&solution, oc)), timing, oc.label())
        }
        Ok(Err(e)) => (Err(ServeError::Plan(e)), SolveTiming::default(), "plan"),
        Err(payload) => {
            tel.panics.inc();
            (
                Err(ServeError::Internal(panic_message(payload.as_ref()))),
                SolveTiming::default(),
                "internal",
            )
        }
    };
    let (served, class_ns) = match &result {
        Ok(answer) => {
            let [hit_ns, miss_ns] = structure
                .classes
                .get_or_init(|| tel.classes(&structure.name));
            if answer.outcome.is_hit() {
                (&tel.hits, Some(hit_ns))
            } else {
                (&tel.misses, Some(miss_ns))
            }
        }
        Err(_) => (&tel.failed, None),
    };
    // The place is freed before the request is counted, so a caller
    // that sees it answered finds its place free; it is counted before
    // any of its samples record, behind a release fence, so a reader
    // that takes histograms first (see [`Shared::stats`]) never sees
    // one ahead of `completed`.
    drop(permit);
    served.inc();
    fence(Ordering::Release);
    let total = nanos_between(called, solve_done);
    tel.total_ns.record(total);
    tel.queue_ns.record(nanos_between(called, picked));
    if let Some(class_ns) = class_ns {
        class_ns.record(total);
    }
    // Stage spans tile called → done exactly; the `solve` span
    // subtracts the cache's measured lookup time so `lookup + solve`
    // equals the wall time spent in the cache. Nothing groups, so the
    // `group` span is zero.
    let done = Instant::now();
    let durs: [u64; STAGES.len()] = [
        nanos_between(called, admitted),
        nanos_between(admitted, picked),
        0,
        nanos_between(picked, solve_started),
        timing.lookup_ns,
        nanos_between(solve_started, solve_done).saturating_sub(timing.lookup_ns),
        nanos_between(solve_done, done),
    ];
    for (hist, dur) in tel.stage_ns.iter().zip(durs) {
        hist.record(dur);
    }
    let total_ns: u64 = durs.iter().sum();
    shared.slow.offer_with(total_ns, || {
        let mut start_ns = 0u64;
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
        Trace {
            id: trace_id,
            label: structure.name.clone(),
            class: class.to_owned(),
            total_ns,
            spans,
        }
    });
    reply(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_obs::MetricsRegistry;

    fn admitted(ledger: &Ledger) -> usize {
        mutex_lock(&ledger.state).admitted
    }

    #[test]
    fn ledger_admits_up_to_capacity_then_sheds() {
        let ledger = Ledger::new(2, 1);
        let a = ledger.admit().unwrap();
        let _b = ledger.admit().unwrap();
        assert_eq!(admitted(&ledger), 2);
        assert!(matches!(ledger.admit(), Err(ServeError::QueueFull)));
        drop(a);
        assert_eq!(admitted(&ledger), 1);
        let _c = ledger.admit().unwrap();
    }

    #[test]
    fn stopped_ledger_refuses_everything() {
        let registry = MetricsRegistry::new();
        let batches = registry.counter("batches", "claims", &[]);
        let ledger = Ledger::new(8, 1);
        let held = ledger.admit().unwrap();
        ledger.stop();
        assert!(matches!(ledger.admit(), Err(ServeError::Closed)));
        assert!(matches!(
            ledger.claim(None, &batches),
            Err(ServeError::Closed)
        ));
        // A place already held still gives itself back.
        drop(held);
        assert_eq!(admitted(&ledger), 0);
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let registry = MetricsRegistry::new();
        let batches = registry.counter("batches", "claims", &[]);
        let ledger = Ledger::new(0, 0);
        let _place = ledger.admit().unwrap();
        assert!(ledger.admit().is_err());
        // So is the solve-slot count: a second claim waits, here until
        // its deadline.
        let _running = ledger.claim(None, &batches).unwrap();
        assert!(matches!(
            ledger.claim(Some(Instant::now()), &batches),
            Err(ServeError::DeadlineExceeded)
        ));
    }
}
