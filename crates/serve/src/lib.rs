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
//!            submitting thread (TCP connection or ServeHandle
//!            caller): admits and checks the bindings
//!                        │
//!         ┌──────────────┴───────────────┐
//!         │ blocking call (solve,        │ tickets (submit*) and a
//!         │ solve_raw, every TCP line),  │ blocking call that finds
//!         │ a solve slot free and the    │ no slot: one job per
//!         │ queue empty: solve it here   │ request, in order
//!         │                              ▼
//!         │                     ═══ worker queue ═══
//!         │                  ┌───────────┼───────────┐
//!         │                  ▼           ▼           ▼
//!         │              ┌───────┐   ┌───────┐   ┌───────┐
//!         │              │worker0│   │worker1│ … │workerN│
//!         │              └───────┘   └───────┘   └───────┘
//!         ▼                  │           │           │
//!   shared, sharded, copy-on-write PlanCache (hits are lock-free
//!   reads); at most `workers` solves run at once, inline or pooled
//!         └────── replies (cost, parenthesization, kernels) ──►
//! ```
//!
//! * **Parse once per structure.** Chains are registered by name
//!   ([`Server::register`]); requests reference the name and carry only
//!   dimension bindings, so no request ever re-parses a chain.
//! * **Run to completion.** A blocking call ([`ServeHandle::solve`],
//!   [`ServeHandle::solve_raw`], which every TCP request line takes)
//!   solves its request on the calling thread, so the request never
//!   crosses a thread. It does so only if it can claim one of the
//!   [`ServeConfig::workers`] solve slots while the worker queue is
//!   empty; otherwise it queues like a ticket and waits. The ticket
//!   APIs (`submit*`, [`ServeHandle::try_submit`]) always queue, so
//!   they never block, and so does a request carrying an injected
//!   fault, so faults keep exercising the workers.
//! * **One request, one job.** Every admitted request is solved and
//!   answered on its own, under its own deadline and injected fault. A
//!   batch ([`ServeHandle::submit_batch`]) is admitted whole before any
//!   of it is queued, so with `k` permits free exactly its first `k`
//!   admissible requests enter; its jobs then queue in submission
//!   order. Identical requests are not merged: after the first one
//!   records its region, the rest are cache hits, and racing misses on
//!   one region record once (the cache's per-shard write mutex).
//! * **Pre-enumeration.** [`Server::register_pre_enumerated`] records a
//!   plan for every reachable region of a small chain up front, making
//!   every subsequent request for it a hit.
//! * **One telemetry store.** Every counter, gauge and histogram is an
//!   instrument of one [`gmc_obs::MetricsRegistry`] (see [`metrics`]),
//!   recorded through handles resolved at start or, for a structure's
//!   latency classes, at its first solved request, so a request after
//!   that takes no lock and looks up no name to record itself.
//!   [`ServeHandle::stats`] and `METRICS` read the same instruments.
//! * **No async runtime.** Plain `std::thread` workers, a
//!   condvar-signalled job queue and `std::sync::mpsc` reply channels,
//!   all from the standard library; the optional TCP listener in
//!   [`tcp`] is a thin front end over `std::net::TcpListener` that
//!   answers each line through [`protocol::answer_line`], as the CLI
//!   batch driver does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod faults;
pub mod metrics;
pub mod protocol;
pub mod tcp;

pub use admission::SubmitError;
pub use faults::SolveFault;
pub use gmc_obs::trace::{Span, Trace, TRACE_FORMAT};

use admission::{AdmissionGate, Permit};
use faults::FAULT_PANIC_MARKER;
use gmc::{GmcSolution, InferenceMode};
use gmc_expr::{Dim, DimBindings, SymChain};
use gmc_kernels::{Flops, KernelRegistry};
use gmc_obs::trace::SlowTraceRing;
use gmc_obs::{Histogram, HistogramSnapshot};
use gmc_plan::{CacheStats, PlanCache, PlanError, PlanOutcome, SolveTiming};
use metrics::Telemetry;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Number of worker threads instantiating plans, and the bound on
    /// concurrent solves: those the workers run and those blocking
    /// calls run inline on their own threads count together.
    pub workers: usize,
    /// Inference mode the shared cache compiles under.
    pub inference: InferenceMode,
    /// Admission capacity: the maximum number of requests in flight
    /// (admitted at submission, released when their reply is sent).
    /// Submissions beyond it are shed newest-first with
    /// [`ServeError::QueueFull`] (ticket paths) or
    /// [`SubmitError::QueueFull`] ([`ServeHandle::try_submit`]).
    /// Clamped to at least 1.
    pub queue_capacity: usize,
    /// How many dead workers the supervisor may respawn over the
    /// server's lifetime. When the budget is exhausted and the last
    /// worker dies, the server closes its admission gate instead of
    /// hanging new requests.
    pub restart_budget: usize,
    /// How many of the slowest request traces the server retains for
    /// [`ServeHandle::slow_traces`] and the `SLOW` wire command.
    /// 0 disables trace retention (per-stage histograms still record).
    pub slow_trace_capacity: usize,
}

/// The request pipeline stages, in order. Every completed request
/// records one span per stage; the spans are consecutive, so their
/// durations sum exactly to the request's end-to-end latency:
///
/// * `admit` — submission call entry to admission + parse done
/// * `queue` — end of admission to the start of queueing the jobs,
///   both on the submitting thread (about zero: nothing waits between
///   them); zero for a request solved inline
/// * `group` — always zero: every request is its own job, so nothing
///   is grouped (the stage stays so that stage readings keep their
///   shape)
/// * `dispatch` — the wait for the solve to start: in the worker
///   queue up to a worker picking the job up, or, inline, claiming a
///   solve slot (about zero)
/// * `lookup` — locating the cached region plan
/// * `solve` — instantiating the plan (or recording it, on a miss)
/// * `reply` — accounting and the reply back to the caller
pub const STAGES: [&str; 7] = [
    "admit", "queue", "group", "dispatch", "lookup", "solve", "reply",
];

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            inference: InferenceMode::default(),
            queue_capacity: 4096,
            restart_budget: 8,
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
    /// The request's deadline had passed when its solve was due to
    /// start (expiry covers any wait in the worker queue); it was shed
    /// without being solved.
    DeadlineExceeded,
    /// The admission queue was at capacity; the request was shed
    /// (newest-first overload policy) without entering the worker
    /// queue.
    QueueFull,
    /// The worker processing the request panicked (the panic was
    /// caught; the pool survives and this request is the only loss).
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
    /// Jobs solved or queued: one per admitted request.
    pub batches: u64,
    /// Registered structures.
    pub structures: usize,
    /// Per-request outcome counters; `completed` and `rejected` are
    /// sums of their parts, so `hits + misses + failed == completed`
    /// holds in every reading, even mid-burst.
    pub served: ServedCounters,
    /// Latency histogram snapshots (enqueue→complete and
    /// enqueue→solve start, plus per-(structure, hit/miss) classes).
    pub latency: LatencySnapshot,
    /// Worker-pool supervision counters (panics, respawns, live
    /// workers).
    pub supervision: SupervisionStats,
}

/// Worker-pool health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Worker threads that died by panic over the server's lifetime.
    pub worker_panics: u64,
    /// Workers the supervisor respawned (bounded by the restart
    /// budget).
    pub respawns: u64,
    /// Workers currently alive.
    pub workers_alive: usize,
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}; {} batches, {} structures; {}",
            self.cache, self.batches, self.structures, self.served
        )?;
        if self.supervision.worker_panics > 0 {
            write!(
                f,
                "; {} worker panics, {} respawns, {} alive",
                self.supervision.worker_panics,
                self.supervision.respawns,
                self.supervision.workers_alive
            )?;
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
/// (solved, on a worker or inline) or `rejected` (answered without a
/// solve: unknown structure, bad binding, unbindable sizes, overload,
/// shutdown, expired deadline), and `completed` splits exactly into
/// `hits + misses + failed`. A refusal returned as a [`SubmitError`]
/// by [`ServeHandle::try_submit`] counts nowhere: from the server's
/// view that request was never submitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedCounters {
    /// Requests solved and answered (successfully or not), on a worker
    /// or inline on the calling thread.
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
    /// Requests answered without a solve: at submission (unknown
    /// structure, unresolvable variable names, unbindable sizes,
    /// overload sheds, [`ServeError::Closed`]) or when their solve was
    /// due to start (expired deadlines).
    /// `rejected_overload` and `expired` are sub-counts of this, so
    /// `completed + rejected` still accounts for every request.
    pub rejected: u64,
    /// Of `rejected`: requests shed because the admission queue was at
    /// capacity.
    pub rejected_overload: u64,
    /// Of `rejected`: requests whose deadline had passed when their
    /// solve was due to start (shed on the worker that dequeued them,
    /// or inline on the calling thread).
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
    /// Enqueue→complete latency of every completed request.
    pub total: HistogramSnapshot,
    /// Enqueue→solve start (queueing) latency of the same requests.
    pub queue: HistogramSnapshot,
    /// Enqueue→shed latency of deadline-expired requests (they are
    /// shed unsolved, so they appear here instead of `total`).
    pub expired: HistogramSnapshot,
    /// Per-(structure, hit/miss) enqueue→complete histograms with a
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
    /// Enqueue→complete histogram of this class.
    pub snapshot: HistogramSnapshot,
}

/// Nanoseconds between two instants, saturating into `u64`.
fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    later
        .saturating_duration_since(earlier)
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// A pending reply; resolve it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<ServeReply>,
    structure: String,
}

impl Ticket {
    /// Blocks until the reply arrives.
    pub fn wait(self) -> ServeReply {
        self.rx.recv().unwrap_or(ServeReply {
            structure: self.structure,
            result: Err(ServeError::Closed),
        })
    }
}

/// A registered structure: its name, its chain, and the latency
/// histograms of its hits and misses.
struct Structure {
    name: String,
    chain: SymChain,
    /// Resolved in the registry once, at the structure's first solved
    /// request, and read with one load after that: registering them in
    /// [`Server::register`] put two registry registrations, about 4 µs
    /// per structure, into every deployment's set-up.
    classes: OnceLock<[Histogram; 2]>,
}

struct Shared {
    cache: PlanCache,
    jobs: JobQueue,
    structures: RwLock<HashMap<String, Arc<Structure>>>,
    gate: Arc<AdmissionGate>,
    telemetry: Telemetry,
    /// The N slowest completed traces.
    slow: SlowTraceRing,
    trace_ids: AtomicU64,
}

use gmc_plan::sync::{mutex_lock, read_lock, write_lock};

/// The chain's boundary dimensions `d0..=dn` (as [`SymChain::dims`]
/// lists them), without collecting them.
fn boundary(chain: &SymChain) -> impl Iterator<Item = Dim> + '_ {
    std::iter::once(chain.factor(0).shape().rows())
        .chain(chain.factors().iter().map(|f| f.shape().cols()))
}

/// Builds concrete bindings from string-named sizes using only the
/// chain's own (already interned) variables: each name is looked up
/// among the chain's boundary dimensions, never interned.
fn bind_named_vars<N: AsRef<str>>(
    chain: &SymChain,
    vars: &[(N, usize)],
) -> Result<DimBindings, String> {
    let mut bindings = DimBindings::new();
    for (name, value) in vars {
        let name = name.as_ref();
        let var = boundary(chain).find_map(|dim| match dim {
            Dim::Var(var) if var.name() == name => Some(var),
            _ => None,
        });
        match var {
            Some(var) => bindings.set_var(var, *value),
            None => {
                return Err(format!(
                    "unknown dimension variable `{name}` for this structure"
                ))
            }
        }
    }
    Ok(bindings)
}

/// Whether `bindings` size every dimension of `chain` (the first
/// failure [`SymChain::bind_dims`] would report, without building its
/// sizes); a request that fails this is answered at submission, never
/// solved.
fn check_bindable(chain: &SymChain, bindings: &DimBindings) -> Result<(), ServeError> {
    boundary(chain)
        .try_for_each(|dim| dim.bind(bindings).map(drop))
        .map_err(|e| ServeError::Plan(PlanError::Chain(e.into())))
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
            latency,
            supervision: t.supervision(),
        }
    }

    fn next_trace_id(&self) -> u64 {
        self.trace_ids.fetch_add(1, Ordering::Relaxed)
    }
}

/// Per-request submission options: an optional deadline and an
/// optional injected worker-side fault (chaos testing only).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestOptions {
    /// If set, the request is shed with
    /// [`ServeError::DeadlineExceeded`] when the deadline has passed as
    /// its solve is due to start — on the worker that dequeues it, or
    /// on the calling thread of a blocking call that solves it inline —
    /// so expiry covers any wait in the worker queue. Expiry is not
    /// checked mid-solve: a request whose solve has started is always
    /// answered with its result.
    pub deadline: Option<Instant>,
    /// Deterministic fault a worker executes for this request (see
    /// [`faults`]). `None` in production traffic. A request carrying
    /// one is always solved on the worker pool, never inline.
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

/// One admitted request: its chain, its bindings and its reply.
struct Admitted {
    structure: Arc<Structure>,
    bindings: DimBindings,
    slot: ReplySlot,
}

/// When one submission passed each point on the submitting thread; a
/// job's stage spans start from these.
#[derive(Clone, Copy)]
struct Stamps {
    /// When the submission call started (trace origin).
    enqueued: Instant,
    /// When admission and parsing were done (end of the `admit` span).
    submitted: Instant,
    /// When its jobs started to queue, or its solve slot was claimed
    /// inline (end of the `queue` span).
    dispatched: Instant,
}

/// A message on the worker queue.
enum Job {
    /// One admitted request to solve and answer.
    Solve { request: Admitted, stamps: Stamps },
    /// Ends the worker that dequeues it. Shutdown queues one per
    /// worker behind all earlier work.
    Stop,
}

/// The worker queue and the solve slots: jobs in arrival order, a
/// count of the solves running (inline or on a worker) kept under the
/// same lock, and a condvar that wakes one idle worker per job.
/// (Workers sharing a `Mutex<Receiver>` would wake two: the one the job
/// goes to, and the next waiter for the mutex, only for it to park
/// again in `recv`.)
struct JobQueue {
    state: Mutex<QueueState>,
    /// Wakes one worker: a job arrived, or a slot came free while jobs
    /// wait for one.
    ready: Condvar,
    /// Wakes [`Server::shutdown`] once the last solve has ended.
    idle: Condvar,
    /// The pool size ([`ServeConfig::workers`]), which also bounds the
    /// concurrent solves, inline and pooled together.
    slots: usize,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Solves running now, inline or on a worker; at most `slots`.
    running: usize,
    /// Set at shutdown: blocking calls stop claiming slots, and queue
    /// behind the workers' stops instead.
    stopping: bool,
    /// Set once the last worker is gone; later jobs are refused.
    closed: bool,
}

/// One claimed solve slot; dropping it (also while unwinding) gives the
/// slot back.
struct Running<'a> {
    queue: &'a JobQueue,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut state = mutex_lock(&self.queue.state);
        state.running -= 1;
        // Wake only a thread that can be waiting for this slot: a
        // worker, if jobs are queued, and shutdown, once it is the last.
        let (queued, drained) = (!state.jobs.is_empty(), state.stopping && state.running == 0);
        drop(state);
        if queued {
            self.queue.ready.notify_one();
        }
        if drained {
            self.queue.idle.notify_all();
        }
    }
}

impl JobQueue {
    fn new(slots: usize) -> JobQueue {
        JobQueue {
            state: Mutex::default(),
            ready: Condvar::new(),
            idle: Condvar::new(),
            slots,
        }
    }

    /// Queues a job behind all earlier ones; `false`, dropping the
    /// job, if the pool is gone.
    fn push(&self, job: Job) -> bool {
        let mut state = mutex_lock(&self.state);
        if state.closed {
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        true
    }

    /// Takes the oldest job, waiting for one. A `Solve` also claims a
    /// solve slot in the same critical section, waiting while every
    /// slot is taken, so no inline solve can start ahead of a job
    /// once it is queued, nor once it is dequeued. A `Stop` needs no
    /// slot.
    fn pop(&self) -> (Job, Option<Running<'_>>) {
        let mut state = mutex_lock(&self.state);
        loop {
            let running = match state.jobs.front() {
                Some(Job::Stop) => None,
                Some(Job::Solve { .. }) if state.running < self.slots => {
                    state.running += 1;
                    Some(Running { queue: self })
                }
                _ => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            let job = state.jobs.pop_front().expect("the front job");
            return (job, running);
        }
    }

    /// Claims a solve slot for a blocking call to run its request
    /// inline: only while no job is queued (so it never overtakes
    /// queued work), fewer than `slots` solves run, and shutdown has
    /// not begun.
    fn claim_inline(&self) -> Option<Running<'_>> {
        let mut state = mutex_lock(&self.state);
        if state.stopping || !state.jobs.is_empty() || state.running >= self.slots {
            return None;
        }
        state.running += 1;
        Some(Running { queue: self })
    }

    /// Stops inline claims and queues one `Stop` per worker behind all
    /// earlier work, in one critical section.
    fn stop(&self) {
        let mut state = mutex_lock(&self.state);
        state.stopping = true;
        if !state.closed {
            state
                .jobs
                .extend(std::iter::repeat_with(|| Job::Stop).take(self.slots));
        }
        drop(state);
        self.ready.notify_all();
    }

    /// Waits until no solve is running (after [`stop`](Self::stop), so
    /// no new one can start inline).
    fn wait_idle(&self) {
        let mut state = mutex_lock(&self.state);
        while state.running > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Refuses later jobs and drops the queued ones, once no worker is
    /// left to take them: their tickets resolve to `Closed`.
    fn close(&self) {
        let stranded = {
            let mut state = mutex_lock(&self.state);
            state.closed = true;
            std::mem::take(&mut state.jobs)
        };
        drop(stranded);
    }
}

/// The pending reply of one admitted request, with its trace id,
/// deadline and injected fault.
struct ReplySlot {
    name: String,
    trace_id: u64,
    options: RequestOptions,
    /// The ticket's channel, or `None` for a request its caller solves
    /// inline: [`run_job`] then returns the reply instead of sending it.
    tx: Option<Sender<ServeReply>>,
    /// The request's admission slot, until [`release`](Self::release).
    permit: Option<Permit>,
}

impl ReplySlot {
    /// Whether the request's deadline has passed at `now`.
    fn expired(&self, now: Instant) -> bool {
        self.options
            .deadline
            .is_some_and(|deadline| now >= deadline)
    }

    /// Frees the request's admission slot. [`run_job`] frees it before
    /// it counts the request as answered, so a caller that sees the
    /// count (closed-loop replay waits on it) finds the slot free.
    fn release(&mut self) {
        self.permit = None;
    }

    /// Answers the request, releasing the admission slot *first* if it
    /// is still held, so a caller that has received all its replies
    /// observes zero of its permits outstanding (closed-loop replay
    /// depends on this for deterministic admission). Sends the reply
    /// down the ticket's channel, or hands it back for an inline caller.
    fn send(self, result: Result<Served, ServeError>) -> Option<ServeReply> {
        let ReplySlot {
            name, tx, permit, ..
        } = self;
        drop(permit);
        let reply = ServeReply {
            structure: name,
            result,
        };
        match tx {
            Some(tx) => {
                tx.send(reply).ok();
                None
            }
            None => Some(reply),
        }
    }
}

/// Why [`ServeHandle::admit`] refused a request.
enum Refusal {
    /// The request cannot be solved as sent: unknown structure, bad
    /// payload or unbindable sizes.
    Request(ServeError),
    /// The admission gate is full or closed.
    Gate(SubmitError),
}

impl From<ServeError> for Refusal {
    fn from(e: ServeError) -> Refusal {
        Refusal::Request(e)
    }
}

impl From<Refusal> for ServeError {
    fn from(refusal: Refusal) -> ServeError {
        match refusal {
            Refusal::Request(e) => e,
            Refusal::Gate(SubmitError::QueueFull { .. }) => ServeError::QueueFull,
            Refusal::Gate(SubmitError::ShuttingDown) => ServeError::Closed,
        }
    }
}

/// A cheap, clonable submission handle onto a running [`Server`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl ServeHandle {
    /// Submits one request; returns a [`Ticket`] for the reply.
    pub fn submit(&self, structure: &str, bindings: DimBindings) -> Ticket {
        self.submit_opts(structure, bindings, RequestOptions::default())
    }

    /// Submits one request with explicit [`RequestOptions`].
    pub fn submit_opts(
        &self,
        structure: &str,
        bindings: DimBindings,
        options: RequestOptions,
    ) -> Ticket {
        self.submit_with(vec![(structure, bindings, options)])
            .pop()
            .expect("one ticket per request")
    }

    /// Submits one request, but reports a refusal by the admission
    /// gate to the *caller* instead of through the ticket:
    /// `Err(QueueFull)` when the in-flight capacity is reached,
    /// `Err(ShuttingDown)` when the server no longer admits work. Such a
    /// refusal is never counted — from the server's view the request
    /// was not submitted. Admission runs in the order every submission
    /// path shares — look the structure up, resolve and check the
    /// bindings, then take a permit — so a request for an unknown
    /// structure or with unbindable sizes is answered through its
    /// ticket, and counted `rejected`, before a permit is asked for.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] as above.
    pub fn try_submit(
        &self,
        structure: &str,
        bindings: DimBindings,
        options: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        let enqueued = Instant::now();
        let (tx, rx) = channel();
        let ticket = Ticket {
            rx,
            structure: structure.to_owned(),
        };
        let admitted = self.admit(
            &read_lock(&self.shared.structures),
            structure,
            bindings,
            options,
            |_, bindings| Ok(bindings),
        );
        match admitted {
            Ok(mut admitted) => {
                admitted.slot.tx = Some(tx);
                if !self.queue_unit([admitted], enqueued, Instant::now()) {
                    return Err(SubmitError::ShuttingDown);
                }
            }
            Err(Refusal::Gate(e)) => return Err(e),
            Err(refusal) => {
                tx.send(self.refuse(structure, refusal)).ok();
            }
        }
        Ok(ticket)
    }

    /// Submits several requests at once. The whole batch is admitted
    /// on the calling thread before any of it is queued (see
    /// [`submit_batch_opts`](Self::submit_batch_opts)); each admitted
    /// request is then its own job, queued in submission order.
    pub fn submit_batch(&self, requests: Vec<(String, DimBindings)>) -> Vec<Ticket> {
        self.submit_batch_opts(
            requests
                .into_iter()
                .map(|(name, bindings)| (name, bindings, RequestOptions::default()))
                .collect(),
        )
    }

    /// [`submit_batch`](Self::submit_batch) with per-request options.
    /// Every request is solved and answered on its own, under its own
    /// deadline and injected fault, identical requests included.
    pub fn submit_batch_opts(
        &self,
        requests: Vec<(String, DimBindings, RequestOptions)>,
    ) -> Vec<Ticket> {
        self.submit_with(requests)
    }

    /// Submits one request and returns its reply. The request runs to
    /// completion on the calling thread when a solve slot is free and
    /// no job is queued; otherwise it queues for the worker pool and
    /// the call waits for its reply.
    pub fn solve(&self, structure: &str, bindings: DimBindings) -> ServeReply {
        self.solve_one(
            structure,
            bindings,
            RequestOptions::default(),
            |_, bindings| Ok(bindings),
        )
    }

    /// The shared submission path, all on the calling thread: per
    /// request, create a ticket and [`admit`](Self::admit) it; then
    /// queue one job per admitted request (see
    /// [`queue_unit`](Self::queue_unit)). Failures — unknown structure,
    /// bad payload, unbindable sizes, queue full, shutting down — reply
    /// immediately through the ticket; only a request that passed every
    /// check takes a permit. So within one batch the set of shed
    /// requests is deterministic: with `k` permits free, exactly the
    /// first `k` admissible requests enter.
    fn submit_with<N: AsRef<str>>(
        &self,
        requests: Vec<(N, DimBindings, RequestOptions)>,
    ) -> Vec<Ticket> {
        let enqueued = Instant::now();
        let mut tickets = Vec::with_capacity(requests.len());
        let mut unit = Vec::with_capacity(requests.len());
        let structures = read_lock(&self.shared.structures);
        for (name, bindings, options) in requests {
            let name = name.as_ref();
            let (tx, rx) = channel();
            tickets.push(Ticket {
                rx,
                structure: name.to_owned(),
            });
            match self.admit(&structures, name, bindings, options, |_, bindings| {
                Ok(bindings)
            }) {
                Ok(mut admitted) => {
                    admitted.slot.tx = Some(tx);
                    unit.push(admitted);
                }
                Err(refusal) => {
                    tx.send(self.refuse(name, refusal)).ok();
                }
            }
        }
        drop(structures);
        if !unit.is_empty() {
            // A closed worker queue drops the jobs, and their tickets
            // resolve to `Closed` when the reply senders drop.
            self.queue_unit(unit, enqueued, Instant::now());
        }
        tickets
    }

    /// Admits one request on the calling thread, in the order all three
    /// submission paths share: looks the structure up, resolves the
    /// payload into bindings, checks that they size the chain, and only
    /// then takes an admission permit. The admitted request's reply
    /// slot has no channel yet.
    fn admit<T>(
        &self,
        structures: &HashMap<String, Arc<Structure>>,
        name: &str,
        payload: T,
        options: RequestOptions,
        resolve: impl FnOnce(&SymChain, T) -> Result<DimBindings, ServeError>,
    ) -> Result<Admitted, Refusal> {
        let structure = structures
            .get(name)
            .ok_or_else(|| ServeError::UnknownStructure(name.to_owned()))?;
        let bindings = resolve(&structure.chain, payload)?;
        check_bindable(&structure.chain, &bindings)?;
        let permit = self.shared.gate.try_acquire().map_err(Refusal::Gate)?;
        Ok(Admitted {
            structure: Arc::clone(structure),
            bindings,
            slot: ReplySlot {
                name: name.to_owned(),
                trace_id: self.shared.next_trace_id(),
                options,
                tx: None,
                permit: Some(permit),
            },
        })
    }

    /// The reply to a request refused at admission, counted under
    /// `rejected` (see [`ServedCounters`]).
    fn refuse(&self, structure: &str, refusal: Refusal) -> ServeReply {
        let error = ServeError::from(refusal);
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

    /// The blocking path of [`solve`](Self::solve) and
    /// [`solve_raw`](Self::solve_raw): admits one request exactly as
    /// [`submit_with`](Self::submit_with) does, then solves it on the
    /// calling thread if it can claim a solve slot, through the same
    /// [`run_job`] a worker runs, and returns the reply directly. If no
    /// slot is free, or a job is queued ahead of it, it queues like a
    /// ticket and waits. A request carrying an injected fault always
    /// goes to the pool, so `Kill` and respawn keep exercising workers.
    fn solve_one<T>(
        &self,
        name: &str,
        payload: T,
        options: RequestOptions,
        resolve: impl FnOnce(&SymChain, T) -> Result<DimBindings, ServeError>,
    ) -> ServeReply {
        let enqueued = Instant::now();
        let admitted = self.admit(
            &read_lock(&self.shared.structures),
            name,
            payload,
            options,
            resolve,
        );
        let mut admitted = match admitted {
            Ok(admitted) => admitted,
            Err(refusal) => return self.refuse(name, refusal),
        };
        let submitted = Instant::now();
        if options.fault.is_none() {
            if let Some(_running) = self.shared.jobs.claim_inline() {
                self.shared.telemetry.batches.inc();
                let stamps = Stamps {
                    enqueued,
                    submitted,
                    dispatched: submitted,
                };
                return run_job(&self.shared, admitted, stamps)
                    .expect("an inline request is answered to its caller");
            }
        }
        let (tx, rx) = channel();
        admitted.slot.tx = Some(tx);
        let ticket = Ticket {
            rx,
            structure: name.to_owned(),
        };
        self.queue_unit([admitted], enqueued, submitted);
        ticket.wait()
    }

    /// Queues one job per request of an admitted submission, in
    /// submission order, so its solves start in that order. Returns
    /// `false` if the worker queue is gone; the jobs are dropped then.
    fn queue_unit(
        &self,
        unit: impl IntoIterator<Item = Admitted>,
        enqueued: Instant,
        submitted: Instant,
    ) -> bool {
        let stamps = Stamps {
            enqueued,
            submitted,
            dispatched: Instant::now(),
        };
        let mut queued = true;
        for request in unit {
            self.shared.telemetry.batches.inc();
            queued &= self.shared.jobs.push(Job::Solve { request, stamps });
        }
        queued
    }

    /// Submits one request whose variables are *named by string* — the
    /// untrusted text-protocol path, which every request line takes
    /// (see [`protocol::answer_line`]) — and returns its reply. Names
    /// are resolved against the registered structure's own variable
    /// vocabulary; an unknown name is rejected with
    /// [`ServeError::BadRequest`] **without being interned** (`DimVar`
    /// interning is process-wide and permanent, so a front door must
    /// never intern arbitrary client strings). Like
    /// [`solve`](Self::solve), it runs the request to completion on the
    /// calling thread when a solve slot is free and no job is queued,
    /// and otherwise queues it for the worker pool and waits for its
    /// reply.
    pub fn solve_raw<N: AsRef<str>>(
        &self,
        structure: &str,
        vars: Vec<(N, usize)>,
        options: RequestOptions,
    ) -> ServeReply {
        self.solve_one(structure, vars, options, |chain, vars| {
            bind_named_vars(chain, &vars).map_err(ServeError::BadRequest)
        })
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
    /// per-class latency histograms, cache/shard/structure counters,
    /// trace-ring counters — rendered as a Prometheus text exposition
    /// (the `METRICS` wire command's payload, without the `# EOF`
    /// terminator).
    pub fn metrics_prometheus(&self) -> String {
        metrics::render_prometheus(&self.shared)
    }

    /// Cache introspection as a single-line JSON document: totals,
    /// per-shard counters, and per-structure hit/miss/region counts
    /// (the `CACHE` wire command's payload).
    pub fn cache_introspection_json(&self) -> String {
        metrics::render_cache(&self.shared)
    }
}

/// The serving front door: a supervised worker pool over a shared
/// [`PlanCache`], fed by the submitting threads.
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
    supervisor: Option<JoinHandle<()>>,
    /// Every worker thread ever spawned (including respawns); shared
    /// with the supervisor, drained at shutdown.
    worker_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

/// What a [`WorkerGuard`] reports when its thread ends.
enum WorkerEvent {
    /// The worker unwound out of its loop (a panic escaped).
    Panicked,
    /// The worker exited normally (stop message or closed channel).
    Stopped,
}

/// Sits on a worker thread's stack and reports how the thread ended:
/// its `Drop` runs during unwinding too, so a panicking worker still
/// notifies the supervisor.
struct WorkerGuard {
    events: Sender<WorkerEvent>,
    panicked: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let event = if self.panicked {
            WorkerEvent::Panicked
        } else {
            WorkerEvent::Stopped
        };
        self.events.send(event).ok();
    }
}

/// Spawns one supervised worker thread.
fn spawn_worker(
    id: usize,
    shared: &Arc<Shared>,
    events: &Sender<WorkerEvent>,
) -> std::io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    let events = events.clone();
    std::thread::Builder::new()
        .name(format!("gmc-serve-worker-{id}"))
        .spawn(move || {
            let mut guard = WorkerGuard {
                events,
                panicked: true,
            };
            worker_loop(&shared);
            guard.panicked = false;
        })
}

/// How a finished [`Server::shutdown`] went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Worker threads that died by panic over the server's lifetime
    /// (injected faults included).
    pub worker_panics: u64,
    /// Workers the supervisor respawned.
    pub respawns: u64,
}

impl ShutdownReport {
    /// Whether the pool stayed healthy end to end.
    pub fn is_clean(&self) -> bool {
        self.worker_panics == 0
    }
}

impl fmt::Display for ShutdownReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean shutdown")
        } else {
            write!(
                f,
                "shutdown with {} worker panics ({} respawned)",
                self.worker_panics, self.respawns
            )
        }
    }
}

impl Server {
    /// Starts the worker pool and its supervisor.
    pub fn start(registry: Arc<KernelRegistry>, config: ServeConfig) -> Server {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            cache: PlanCache::new(registry, config.inference),
            jobs: JobQueue::new(workers),
            structures: RwLock::new(HashMap::new()),
            gate: Arc::new(AdmissionGate::new(config.queue_capacity)),
            telemetry: Telemetry::new(),
            slow: SlowTraceRing::new(config.slow_trace_capacity),
            trace_ids: AtomicU64::new(0),
        });
        shared.telemetry.workers_alive.set(workers as u64);

        let (event_tx, event_rx) = channel::<WorkerEvent>();

        let worker_handles = Arc::new(Mutex::new(Vec::with_capacity(workers)));
        for i in 0..workers {
            let handle = spawn_worker(i, &shared, &event_tx).expect("spawn worker thread");
            mutex_lock(&worker_handles).push(handle);
        }

        let supervisor = {
            let shared = Arc::clone(&shared);
            let worker_handles = Arc::clone(&worker_handles);
            let budget = config.restart_budget;
            std::thread::Builder::new()
                .name("gmc-serve-supervisor".to_owned())
                .spawn(move || {
                    supervisor_loop(
                        &shared,
                        &event_rx,
                        &event_tx,
                        &worker_handles,
                        workers,
                        budget,
                    );
                })
                .expect("spawn supervisor thread")
        };

        Server {
            shared,
            supervisor: Some(supervisor),
            worker_handles,
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

    /// A clonable submission handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Stops the workers and waits for them, and for every solve still
    /// running inline on a blocking caller's thread, so nothing is
    /// solved once it returns. Jobs queued before the call are answered
    /// first; requests submitted afterwards are refused at admission
    /// ([`ServeError::Closed`]). Those refusals are the only thing
    /// counted after it returns: each one answered through a reply
    /// counts under `rejected` (see [`ServedCounters`]). Never panics:
    /// threads that died by panic are reported in the returned
    /// [`ShutdownReport`] instead.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop_workers();
        if let Some(s) = self.supervisor.take() {
            // The supervisor exits once every worker reported in; a
            // panicked supervisor would leak workers, but never the
            // process — swallow it like a worker panic.
            s.join().ok();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *mutex_lock(&self.worker_handles));
        for w in handles {
            // Panicked workers were already counted by their guards.
            w.join().ok();
        }
        self.shared.jobs.wait_idle();
        let supervision = self.shared.telemetry.supervision();
        ShutdownReport {
            worker_panics: supervision.worker_panics,
            respawns: supervision.respawns,
        }
    }

    /// Closes the admission gate, then stops inline claims and queues
    /// one [`Job::Stop`] per worker behind all earlier work. Closing
    /// first stops the supervisor respawning and answers later
    /// submissions `Closed`. A request admitted just before the close
    /// that lands behind the stops (a blocking call that found no slot
    /// queues there too) is never picked up: the supervisor closes the
    /// queue once the last worker is gone, which drops its jobs, and
    /// its tickets resolve to `Closed`.
    fn stop_workers(&self) {
        self.shared.gate.close();
        self.shared.jobs.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort shutdown if `shutdown()` was not called (it takes
        // the supervisor): stop the workers and detach.
        if self.supervisor.is_some() {
            self.stop_workers();
        }
    }
}

/// The supervisor: consumes worker-exit events, respawns panicked
/// workers while the restart budget lasts, and closes the admission
/// gate if the pool ever dies entirely (so new submissions fail fast
/// instead of queueing forever). Exits once every worker has reported
/// in after the pool winds down, closing the worker queue behind them.
fn supervisor_loop(
    shared: &Arc<Shared>,
    events: &Receiver<WorkerEvent>,
    event_tx: &Sender<WorkerEvent>,
    worker_handles: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    initial_workers: usize,
    restart_budget: usize,
) {
    let mut alive = initial_workers;
    let mut next_id = initial_workers;
    let mut respawns = 0usize;
    while alive > 0 {
        match events.recv() {
            Ok(WorkerEvent::Stopped) => {
                alive -= 1;
                shared.telemetry.workers_alive.set(alive as u64);
            }
            Ok(WorkerEvent::Panicked) => {
                alive -= 1;
                shared.telemetry.worker_panics.inc();
                let respawn = !shared.gate.is_closed() && respawns < restart_budget;
                if respawn {
                    match spawn_worker(next_id, shared, event_tx) {
                        Ok(handle) => {
                            mutex_lock(worker_handles).push(handle);
                            next_id += 1;
                            respawns += 1;
                            alive += 1;
                            shared.telemetry.respawns.inc();
                        }
                        Err(e) => {
                            eprintln!("gmc-serve: respawn failed: {e}");
                        }
                    }
                }
                shared.telemetry.workers_alive.set(alive as u64);
                if alive == 0 {
                    // Pool dead, budget gone: stop admitting work so
                    // callers get `Closed` instead of a silent hang.
                    shared.gate.close();
                }
            }
            Err(_) => break,
        }
    }
    shared.jobs.close();
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_owned())
}

fn worker_loop(shared: &Shared) {
    loop {
        // The solve slot is held until the request is answered, and
        // given back while unwinding too.
        let (job, _running) = shared.jobs.pop();
        let Job::Solve { request, stamps } = job else {
            return;
        };
        run_job(shared, request, stamps);
    }
}

/// Runs one request whose solve slot is claimed, on a worker or inline
/// on a blocking caller's thread: sheds it if its deadline has passed,
/// and otherwise solves it and answers it. Returns the reply of a
/// request solved inline (a ticket's reply goes down its channel).
///
/// # Panics
///
/// On an injected `Kill` fault, once the request is answered: dying
/// then loses nothing and exercises the supervisor. Only workers run
/// faulted requests.
fn run_job(shared: &Shared, request: Admitted, stamps: Stamps) -> Option<ServeReply> {
    let Admitted {
        structure,
        bindings,
        mut slot,
    } = request;
    let tel = &shared.telemetry;
    let picked = Instant::now();
    if slot.expired(picked) {
        // Never solved, so `rejected` as `expired`, and its latency lands
        // in the `expired` histogram, not `total`. Its permit is freed
        // before it counts, and it counts before its sample records, as
        // below.
        slot.release();
        tel.expired.inc();
        fence(Ordering::Release);
        tel.expired_ns
            .record(nanos_between(stamps.enqueued, picked));
        return slot.send(Err(ServeError::DeadlineExceeded));
    }
    // The solve runs under `catch_unwind`: a panicking solve answers
    // `Internal` instead of poisoning the pool. Injected faults fire
    // before the cache is touched, so a fault never leaves shared state
    // mid-update; a `Kill` answers `Internal` without solving, and the
    // worker dies once the request is answered.
    let fault = slot.options.fault;
    let kill = fault == Some(SolveFault::Kill);
    let solve_started = Instant::now();
    let outcome = if kill {
        Err(format!("{FAULT_PANIC_MARKER}: worker killed"))
    } else {
        catch_unwind(AssertUnwindSafe(|| {
            match fault {
                Some(SolveFault::Delay(d)) => std::thread::sleep(d),
                Some(SolveFault::Panic) => {
                    panic!("{FAULT_PANIC_MARKER}: injected worker panic")
                }
                _ => {}
            }
            shared.cache.solve_traced(&structure.chain, &bindings)
        }))
        .map_err(|payload| panic_message(payload.as_ref()))
    };
    let solve_done = Instant::now();
    let (result, timing, class) = match outcome {
        Ok(Ok((solution, oc, timing))) => {
            (Ok(Served::from_solution(&solution, oc)), timing, oc.label())
        }
        Ok(Err(e)) => (Err(ServeError::Plan(e)), SolveTiming::default(), "plan"),
        Err(msg) => (
            Err(ServeError::Internal(msg)),
            SolveTiming::default(),
            "internal",
        ),
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
    // The permit is freed before the request is counted, so a caller
    // that sees it answered finds its slot free; it is counted before
    // any of its samples record, behind a release fence, so a reader
    // that takes histograms first (see [`Shared::stats`]) never sees
    // one ahead of `completed`.
    slot.release();
    served.inc();
    fence(Ordering::Release);
    let total = nanos_between(stamps.enqueued, solve_done);
    tel.total_ns.record(total);
    tel.queue_ns.record(nanos_between(stamps.enqueued, picked));
    if let Some(class_ns) = class_ns {
        class_ns.record(total);
    }
    // Stage spans tile enqueued → done exactly; the `solve` span
    // subtracts the cache's measured lookup time so `lookup + solve`
    // equals the wall time spent in the cache. Nothing groups, so the
    // `group` span is zero.
    let done = Instant::now();
    let durs: [u64; STAGES.len()] = [
        nanos_between(stamps.enqueued, stamps.submitted),
        nanos_between(stamps.submitted, stamps.dispatched),
        0,
        nanos_between(stamps.dispatched, solve_started),
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
            id: slot.trace_id,
            label: slot.name.clone(),
            class: class.to_owned(),
            total_ns,
            spans,
        }
    });
    let reply = slot.send(result);
    if kill {
        panic!("{FAULT_PANIC_MARKER}: injected worker kill");
    }
    reply
}
