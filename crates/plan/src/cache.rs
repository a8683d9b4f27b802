//! The structure-keyed plan cache: concurrent, sharded, copy-on-write.
//!
//! # Concurrency architecture
//!
//! The cache is designed so the serving hot path (a cache **hit**) is a
//! pure read that many threads can take simultaneously:
//!
//! * Structures are **sharded** by the hash of their [`StructureKey`];
//!   each shard holds an immutable snapshot
//!   (`Arc<HashMap<StructureKey, Arc<SymbolicPlan>>>`) behind a
//!   many-reader lock that is only ever held for the pointer
//!   clone/swap, never across a solve.
//! * A hit clones the shard snapshot (one `Arc` bump), finds the region
//!   plan whose key the binding answers, and instantiates it on a
//!   **thread-local** workspace (the DP table), so concurrent hits share
//!   no mutable state and allocate no fresh tables.
//! * Misses go through a per-shard **write mutex**: the miss records
//!   the region plan, rebuilds the shard map copy-on-write (structure
//!   entries are `Arc`-shared with the old snapshot; only the touched
//!   structure's region map is cloned) and swaps the snapshot in. A
//!   thread that lost the race to record the same region finds it
//!   present after acquiring the mutex and serves it as a hit — the
//!   recording is coalesced, never duplicated, and no update is lost.

use crate::key::{structure_key, unit_mask, StructureKey};
use crate::plan::{instantiate, record_region, PlanSummary, RegionPlan};
use gmc::{GmcError, GmcSolution, GmcWorkspace, InferenceMode};
use gmc_expr::{Dim, DimBindings, SymChain, SymChainError};
use gmc_kernels::{Flops, KernelRegistry};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// How a request was served by the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanOutcome {
    /// First request for this chain structure: a full symbolic solve
    /// was recorded.
    MissStructure,
    /// Known structure, new size region: a new region plan was recorded.
    MissRegion,
    /// Cached region plan instantiated — the fast path.
    Hit,
}

impl PlanOutcome {
    /// Whether the request was served from a cached region plan.
    pub fn is_hit(&self) -> bool {
        matches!(self, PlanOutcome::Hit)
    }

    /// A stable machine-readable label (the serving wire format and
    /// the replay harness both key on these).
    pub fn label(&self) -> &'static str {
        match self {
            PlanOutcome::MissStructure => "miss_structure",
            PlanOutcome::MissRegion => "miss_region",
            PlanOutcome::Hit => "hit",
        }
    }
}

impl fmt::Display for PlanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanOutcome::MissStructure => write!(f, "miss (new structure)"),
            PlanOutcome::MissRegion => write!(f, "miss (new region)"),
            PlanOutcome::Hit => write!(f, "hit"),
        }
    }
}

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests that recorded a brand-new structure plan.
    pub structure_misses: u64,
    /// Requests that recorded a new region for a known structure.
    pub region_misses: u64,
    /// Requests served by instantiating a cached region plan.
    pub hits: u64,
}

impl CacheStats {
    /// Total number of requests observed.
    pub fn requests(&self) -> u64 {
        self.structure_misses + self.region_misses + self.hits
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests: {} hits, {} region misses, {} structure misses",
            self.requests(),
            self.hits,
            self.region_misses,
            self.structure_misses
        )
    }
}

/// Per-shard cache introspection, from [`PlanCache::shard_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based, stable for the life of the cache).
    pub shard: usize,
    /// Distinct chain structures currently cached in this shard.
    pub structures: usize,
    /// Total size regions recorded across the shard's structures.
    pub regions: usize,
    /// Requests served from a cached region.
    pub hits: u64,
    /// Requests that recorded a new region for a known structure.
    pub region_misses: u64,
    /// Requests that recorded a brand-new structure.
    pub structure_misses: u64,
    /// Misses that lost the recording race and were served as hits
    /// after waiting on the shard's write mutex.
    pub coalesced_waiters: u64,
    /// Copy-on-write snapshot publications (cache writes).
    pub snapshot_swaps: u64,
}

/// Nanosecond timing of one [`PlanCache::solve_traced`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveTiming {
    /// Time locating the cached region: binding, structure keying,
    /// snapshot reads and (on the slow path) the write-mutex wait.
    pub lookup_ns: u64,
    /// Time instantiating the cached plan or recording a new one.
    pub work_ns: u64,
}

/// Errors surfaced by [`PlanCache::solve`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PlanError {
    /// The chain failed to bind (unbound variable, zero size, …).
    Chain(SymChainError),
    /// No kernel sequence computes the chain (same condition as the
    /// concrete optimizer's error).
    Solve(GmcError),
    /// The chain is too large for exhaustive region pre-enumeration.
    Enumeration(String),
    /// A plan-store snapshot failed to save, load or validate.
    Store(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Chain(e) => e.fmt(f),
            PlanError::Solve(e) => e.fmt(f),
            PlanError::Enumeration(msg) => write!(f, "region pre-enumeration: {msg}"),
            PlanError::Store(msg) => write!(f, "plan store: {msg}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<SymChainError> for PlanError {
    fn from(e: SymChainError) -> Self {
        PlanError::Chain(e)
    }
}

impl From<GmcError> for PlanError {
    fn from(e: GmcError) -> Self {
        PlanError::Solve(e)
    }
}

impl From<gmc_expr::DimError> for PlanError {
    fn from(e: gmc_expr::DimError) -> Self {
        PlanError::Chain(SymChainError::from(e))
    }
}

/// Per-structure request counters, `Arc`-shared across every
/// copy-on-write clone of the owning [`SymbolicPlan`] so counts
/// survive snapshot swaps.
#[derive(Debug, Default)]
pub(crate) struct StructCounters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

/// A symbolic plan for one chain structure: one recorded region plan
/// per size region encountered so far. Region plans are `Arc`-shared
/// between cache snapshots, so cloning a `SymbolicPlan` is cheap.
///
/// Its `Debug` form is what the plan decides: each region's key, cells
/// and variables, in key order. It leaves out the request counters and
/// the bindings the regions were recorded at, so two caches that
/// recorded the same regions in any order render alike.
#[derive(Clone, Default)]
pub struct SymbolicPlan {
    /// The regions, bucketed by the unit mask of their bindings; within
    /// a bucket a binding's region is the one whose key it answers.
    regions: HashMap<u64, Vec<Arc<RegionPlan>>>,
    pub(crate) counters: Arc<StructCounters>,
}

impl SymbolicPlan {
    /// Number of size regions recorded for this structure.
    pub fn region_count(&self) -> usize {
        self.regions.values().map(Vec::len).sum()
    }

    /// The region serving the boundary dimensions `sizes`, if recorded.
    pub(crate) fn region_for(&self, sizes: &[usize]) -> Option<&Arc<RegionPlan>> {
        self.regions
            .get(&unit_mask(sizes))?
            .iter()
            .find(|r| r.key.admits(sizes))
    }

    /// Every recorded region.
    pub(crate) fn regions(&self) -> impl Iterator<Item = &Arc<RegionPlan>> {
        self.regions.values().flatten()
    }

    /// Requests served from this structure's cached regions.
    pub fn hits(&self) -> u64 {
        self.counters.hits.load(Ordering::Relaxed)
    }

    /// Requests that recorded a new region for this structure.
    pub fn misses(&self) -> u64 {
        self.counters.misses.load(Ordering::Relaxed)
    }

    /// Iterates over the recorded regions' classification summaries.
    pub fn region_summaries(&self) -> impl Iterator<Item = PlanSummary> + '_ {
        self.regions().map(|r| r.summary())
    }
}

impl fmt::Debug for SymbolicPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut regions: Vec<&Arc<RegionPlan>> = self.regions().collect();
        regions.sort_by(|a, b| a.key.cmp(&b.key));
        f.debug_list()
            .entries(regions.iter().map(|r| (&r.key, &r.cells, &r.vars)))
            .finish()
    }
}

/// One shard: an immutable snapshot swapped under a write mutex, plus
/// its own request counters (summed for [`PlanCache::stats`], exposed
/// individually through [`PlanCache::shard_stats`]).
#[derive(Debug, Default)]
struct Shard {
    /// The current snapshot. The lock is held only to clone or swap the
    /// `Arc`, never across a record or instantiate.
    map: RwLock<Arc<StructMap>>,
    /// Serializes recording within the shard, so concurrent misses on
    /// the same region coalesce into one symbolic solve.
    write: Mutex<()>,
    hits: AtomicU64,
    region_misses: AtomicU64,
    structure_misses: AtomicU64,
    /// Lost-race misses served as hits after waiting on `write`.
    coalesced_waiters: AtomicU64,
    /// Copy-on-write snapshot publications.
    snapshot_swaps: AtomicU64,
}

type StructMap = HashMap<StructureKey, Arc<SymbolicPlan>>;

use crate::sync::{mutex_lock, read_lock, write_lock};

impl Shard {
    fn snapshot(&self) -> Arc<StructMap> {
        Arc::clone(&read_lock(&self.map))
    }

    /// Publishes `region` under `key` copy-on-write, returning the
    /// structure's (snapshot-surviving) counters. Caller must hold the
    /// shard's write mutex.
    fn publish(&self, key: StructureKey, region: Arc<RegionPlan>) -> Arc<StructCounters> {
        self.snapshot_swaps.fetch_add(1, Ordering::Relaxed);
        let current = self.snapshot();
        let mut next: StructMap = (*current).clone();
        let plan = Arc::make_mut(next.entry(key).or_default());
        plan.regions
            .entry(region.key.unit_mask())
            .or_default()
            .push(region);
        let counters = Arc::clone(&plan.counters);
        *write_lock(&self.map) = Arc::new(next);
        counters
    }
}

thread_local! {
    /// Per-thread solve state: the optimizer's DP workspace (its table),
    /// shared by recording and instantiation.
    /// Thread-local rather than cache-held so concurrent workers reuse
    /// their tables without sharing any mutable state (and without a
    /// lock on the hot path).
    static WORKSPACE: RefCell<GmcWorkspace<Flops>> = RefCell::new(GmcWorkspace::new());
}

/// Splits `started → lookup_done → now` into a [`SolveTiming`]; both
/// `None` (the untraced path) yields zeros.
fn timing(started: Option<Instant>, lookup_done: Option<Instant>) -> SolveTiming {
    match (started, lookup_done) {
        (Some(started), Some(lookup_done)) => SolveTiming {
            lookup_ns: saturating_ns(lookup_done.duration_since(started)),
            work_ns: saturating_ns(lookup_done.elapsed()),
        },
        _ => SolveTiming::default(),
    }
}

/// A `Duration` as whole nanoseconds, saturating at `u64::MAX`.
fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn with_workspace<R>(f: impl FnOnce(&mut GmcWorkspace<Flops>) -> R) -> R {
    WORKSPACE.with(|cell| f(&mut cell.borrow_mut()))
}

/// Number of shards. A fixed power of two: enough to keep writers from
/// serializing behind one mutex, small enough that full-cache
/// operations (snapshots, len) stay trivial.
const SHARDS: usize = 16;

/// Hard cap on the number of representative bindings
/// [`PlanCache::pre_enumerate_regions`] will try.
const MAX_ENUMERATION_ASSIGNMENTS: usize = 20_000;

/// Largest chain length eligible for region pre-enumeration.
const MAX_ENUMERATION_FACTORS: usize = 8;

/// A plan cache: compile a chain *structure* once, serve every request
/// that differs only in sizes by instantiating the cached symbolic
/// plan. Safe to share across threads (`&self` everywhere): hits are
/// pure reads of an immutable snapshot, misses record behind per-shard
/// write mutexes (see the module docs for the architecture).
///
/// Keyed by (chain structure ⨯ operand properties ⨯ dimension-variable
/// pattern) at the outer level and by size *region* at the inner level.
/// A region is keyed by the shape questions its recording consulted
/// (which boundary dimensions are 1, and the few equalities and
/// orderings between them that kernel matching and property inference
/// actually read), with their answers; a binding is served by the one
/// region whose answers it gives. Instantiation reproduces the concrete
/// optimizer bit for bit — same cost, same parenthesization, same
/// kernel sequence — while skipping all pattern matching and (for
/// symbolically resolved cells) the candidate scan.
///
/// The cache is tied to one [`KernelRegistry`] and one
/// [`InferenceMode`]; the cost metric is the paper's FLOP count, the
/// one metric with an exact symbolic (polynomial) form.
///
/// # Example
///
/// ```
/// use gmc::InferenceMode;
/// use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
/// use gmc_kernels::KernelRegistry;
/// use gmc_plan::{PlanCache, PlanOutcome};
/// use std::sync::Arc;
///
/// let registry = Arc::new(KernelRegistry::blas_lapack());
/// let cache = PlanCache::new(registry, InferenceMode::Compositional);
///
/// let (n, k, m) = (Dim::var("n"), Dim::var("k"), Dim::var("m"));
/// let chain = SymChain::new(vec![
///     SymFactor::plain(SymOperand::new("A", n, k)),
///     SymFactor::plain(SymOperand::new("B", k, m)),
/// ])
/// .unwrap();
///
/// let b1 = DimBindings::new().with("n", 10).with("k", 20).with("m", 30);
/// let (sol, outcome) = cache.solve(&chain, &b1).unwrap();
/// assert_eq!(outcome, PlanOutcome::MissStructure);
/// assert_eq!(sol.kernel_names(), vec!["GEMM_NN"]);
///
/// // No dimension is 1 again, whatever the ordering: cached instantiate.
/// let b2 = DimBindings::new().with("n", 300).with("k", 20).with("m", 100);
/// let (sol, outcome) = cache.solve(&chain, &b2).unwrap();
/// assert_eq!(outcome, PlanOutcome::Hit);
/// assert_eq!(sol.flops(), 2.0 * 300.0 * 100.0 * 20.0);
///
/// // `m = 1` makes `A B` a matrix-vector product: a new region.
/// let b3 = DimBindings::new().with("n", 10).with("k", 20).with("m", 1);
/// let (sol, outcome) = cache.solve(&chain, &b3).unwrap();
/// assert_eq!(outcome, PlanOutcome::MissRegion);
/// assert_eq!(sol.kernel_names(), vec!["GEMV_N"]);
/// ```
#[derive(Debug)]
pub struct PlanCache {
    registry: Arc<KernelRegistry>,
    inference: InferenceMode,
    shards: Vec<Shard>,
}

impl PlanCache {
    /// Creates an empty cache over `registry` with the given inference
    /// mode.
    pub fn new(registry: Arc<KernelRegistry>, inference: InferenceMode) -> Self {
        PlanCache {
            registry,
            inference,
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// The inference mode this cache compiles under.
    pub fn inference(&self) -> InferenceMode {
        self.inference
    }

    /// The kernel registry this cache compiles against.
    pub fn registry(&self) -> &Arc<KernelRegistry> {
        &self.registry
    }

    /// Cumulative hit/miss counters (summed over the shards).
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.structure_misses += shard.structure_misses.load(Ordering::Relaxed);
            stats.region_misses += shard.region_misses.load(Ordering::Relaxed);
            stats.hits += shard.hits.load(Ordering::Relaxed);
        }
        stats
    }

    /// Per-shard introspection: request counters plus current structure
    /// and region counts, one entry per shard in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(shard, s)| {
                let snap = s.snapshot();
                ShardStats {
                    shard,
                    structures: snap.len(),
                    regions: snap.values().map(|p| p.region_count()).sum(),
                    hits: s.hits.load(Ordering::Relaxed),
                    region_misses: s.region_misses.load(Ordering::Relaxed),
                    structure_misses: s.structure_misses.load(Ordering::Relaxed),
                    coalesced_waiters: s.coalesced_waiters.load(Ordering::Relaxed),
                    snapshot_swaps: s.snapshot_swaps.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.snapshot().is_empty())
    }

    fn shard_for(&self, key: &StructureKey) -> &Shard {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// The cached plan for a chain structure, if any (a snapshot:
    /// regions recorded later do not appear in it).
    pub fn plan_for(&self, chain: &SymChain) -> Option<Arc<SymbolicPlan>> {
        let key = structure_key(chain, self.inference);
        self.shard_for(&key).snapshot().get(&key).cloned()
    }

    /// Every cached structure, as `(key, plan)` snapshots.
    pub(crate) fn structures(&self) -> Vec<(StructureKey, Arc<SymbolicPlan>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let snap = shard.snapshot();
            out.extend(snap.iter().map(|(k, p)| (k.clone(), Arc::clone(p))));
        }
        out
    }

    /// Records the region of `chain` (whose structure key is `key`) at
    /// `bindings`, unless a cached region already answers them; returns
    /// whether it recorded one. Plan-store loading and region
    /// pre-enumeration both record through here. Unsolvable regions are
    /// recorded too: the cached plan *is* the (negative) answer.
    pub(crate) fn record_unanswered(
        &self,
        chain: &SymChain,
        key: &StructureKey,
        bindings: &DimBindings,
    ) -> Result<bool, PlanError> {
        let sizes = chain.bind_dims(bindings)?;
        let shard = self.shard_for(key);
        let answered = || {
            shard
                .snapshot()
                .get(key)
                .is_some_and(|p| p.region_for(&sizes).is_some())
        };
        if answered() {
            return Ok(false);
        }
        let _guard = mutex_lock(&shard.write);
        if answered() {
            return Ok(false);
        }
        let concrete = chain.bind(bindings)?;
        let (region, _solution) = with_workspace(|workspace| {
            record_region(&self.registry, self.inference, chain, &concrete, workspace)
        });
        shard.publish(key.clone(), Arc::new(region));
        Ok(true)
    }

    /// The classification summary of the region serving `bindings`, if
    /// that region has been recorded.
    pub fn region_summary(&self, chain: &SymChain, bindings: &DimBindings) -> Option<PlanSummary> {
        let sizes = chain.bind_dims(bindings).ok()?;
        self.plan_for(chain)?
            .region_for(&sizes)
            .map(|r| r.summary())
    }

    /// Solves `chain` at `bindings`, through the cache.
    ///
    /// The returned solution is bit-identical (cost, parenthesization,
    /// kernel sequence) to `GmcOptimizer::new(&registry,
    /// FlopCount).with_inference(mode).solve(&chain.bind(bindings)?)`.
    ///
    /// Takes `&self`: any number of threads may call this
    /// concurrently. Hits never block; concurrent misses on one shard
    /// serialize their recordings, and a thread that finds its region
    /// already recorded when its turn comes serves it as a hit instead
    /// of recording twice.
    ///
    /// # Errors
    ///
    /// [`PlanError::Chain`] if the binding is incomplete or degenerate;
    /// [`PlanError::Solve`] if no kernel sequence computes the chain
    /// (the unsolvability is itself cached per region).
    pub fn solve(
        &self,
        chain: &SymChain,
        bindings: &DimBindings,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome), PlanError> {
        self.solve_impl(chain, bindings, None)
            .map(|(solution, outcome, _)| (solution, outcome))
    }

    /// Like [`PlanCache::solve`], additionally reporting where the call
    /// spent its time ([`SolveTiming`]). Costs two extra clock reads
    /// over the untraced path; the untraced path itself pays only a
    /// branch.
    pub fn solve_traced(
        &self,
        chain: &SymChain,
        bindings: &DimBindings,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome, SolveTiming), PlanError> {
        self.solve_impl(chain, bindings, Some(Instant::now()))
    }

    fn solve_impl(
        &self,
        chain: &SymChain,
        bindings: &DimBindings,
        started: Option<Instant>,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome, SolveTiming), PlanError> {
        let concrete = chain.bind(bindings)?;
        let key = structure_key(chain, self.inference);
        let sizes = concrete.sizes();
        let shard = self.shard_for(&key);

        // Fast path: hit on the immutable snapshot — a pure read.
        let snapshot = shard.snapshot();
        if let Some(plan) = snapshot.get(&key) {
            if let Some(region) = plan.region_for(&sizes) {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                plan.counters.hits.fetch_add(1, Ordering::Relaxed);
                let lookup_done = started.map(|_| Instant::now());
                let solution = self.instantiate_region(region, chain, &concrete, bindings)?;
                return Ok((solution, PlanOutcome::Hit, timing(started, lookup_done)));
            }
        }
        drop(snapshot);

        // Slow path: record behind the shard's write mutex.
        let guard = mutex_lock(&shard.write);
        let snapshot = shard.snapshot();
        let structure_known = snapshot.contains_key(&key);
        if let Some(plan) = snapshot.get(&key) {
            if let Some(region) = plan.region_for(&sizes) {
                // Another thread recorded this region while we waited:
                // the recording coalesced, serve it as a hit.
                drop(guard);
                shard.hits.fetch_add(1, Ordering::Relaxed);
                shard.coalesced_waiters.fetch_add(1, Ordering::Relaxed);
                plan.counters.hits.fetch_add(1, Ordering::Relaxed);
                let lookup_done = started.map(|_| Instant::now());
                let solution = self.instantiate_region(region, chain, &concrete, bindings)?;
                return Ok((solution, PlanOutcome::Hit, timing(started, lookup_done)));
            }
        }

        let lookup_done = started.map(|_| Instant::now());
        let (region, solution) = with_workspace(|workspace| {
            record_region(&self.registry, self.inference, chain, &concrete, workspace)
        });
        let counters = shard.publish(key, Arc::new(region));
        counters.misses.fetch_add(1, Ordering::Relaxed);
        drop(guard);
        let outcome = if structure_known {
            shard.region_misses.fetch_add(1, Ordering::Relaxed);
            PlanOutcome::MissRegion
        } else {
            shard.structure_misses.fetch_add(1, Ordering::Relaxed);
            PlanOutcome::MissStructure
        };
        Ok((solution?, outcome, timing(started, lookup_done)))
    }

    fn instantiate_region(
        &self,
        region: &RegionPlan,
        sym: &SymChain,
        concrete: &gmc_expr::Chain,
        bindings: &DimBindings,
    ) -> Result<GmcSolution<Flops>, GmcError> {
        // Structure keys canonicalize variable *names*, so the request
        // chain may spell the same structure with different variables
        // than the chain this region was recorded from — but the
        // cached formulas reference the recording chain's variables.
        // Key equality guarantees the two first-occurrence variable
        // sequences line up positionally, so translate the bindings
        // when (and only when) the variables differ.
        let request_vars = sym.vars();
        let translated = if request_vars == region.vars {
            None
        } else {
            debug_assert_eq!(request_vars.len(), region.vars.len());
            let mut b = DimBindings::new();
            for (recorded, requested) in region.vars.iter().zip(&request_vars) {
                let value = bindings
                    .get(*requested)
                    .expect("the request chain bound successfully, so its variables are bound");
                b.set_var(*recorded, value);
            }
            Some(b)
        };
        let eval_bindings = translated.as_ref().unwrap_or(bindings);
        with_workspace(|workspace| {
            instantiate(
                &self.registry,
                self.inference,
                region,
                concrete,
                eval_bindings,
                workspace,
            )
        })
    }

    /// Records a plan for **every** size region `chain` can reach, so
    /// each subsequent request for this structure is a cache hit.
    ///
    /// Every region question is an order comparison between bound
    /// boundary dimensions (or against 1), so each ordering pattern of
    /// the dimensions lies within one region. Regions are therefore
    /// enumerated by sweeping the dimension variables over a small set
    /// of representative values that realizes every ordering pattern —
    /// every weak ordering of the variables interleaved with the
    /// chain's constant dimensions — and recording each binding that no
    /// region answers yet. Recording at representative (small) sizes is
    /// sound because plans are region-invariant: a plan recorded at
    /// sizes `(2, 3)` serves `(2000, 3000)` identically.
    ///
    /// Returns the number of regions newly recorded (regions already
    /// cached, including unsolvable ones, are skipped).
    ///
    /// # Errors
    ///
    /// [`PlanError::Enumeration`] if the chain is too large to
    /// enumerate (more than 8 factors, or a variable/constant pattern
    /// needing more than 20 000 representative bindings — the
    /// follow-up literature's observation that few parenthesisations
    /// are ever optimal is what makes small chains enumerable).
    pub fn pre_enumerate_regions(&self, chain: &SymChain) -> Result<usize, PlanError> {
        if chain.len() > MAX_ENUMERATION_FACTORS {
            return Err(PlanError::Enumeration(format!(
                "chain has {} factors, pre-enumeration is limited to {}",
                chain.len(),
                MAX_ENUMERATION_FACTORS
            )));
        }
        let vars = chain.vars();
        let consts: BTreeSet<usize> = chain
            .dims()
            .iter()
            .filter_map(Dim::as_const)
            .filter(|&c| c > 0)
            .collect();

        // Representative values: enough below-, between- and
        // above-constant slots that any weak ordering of the variables
        // against each other, the constants and 1 is realizable.
        let mut values: BTreeSet<usize> = (1..=vars.len() + 1).collect();
        for &c in &consts {
            for v in c.saturating_sub(vars.len()).max(1)..=c + vars.len() {
                values.insert(v);
            }
        }
        let values: Vec<usize> = values.into_iter().collect();

        let total = values
            .len()
            .checked_pow(vars.len() as u32)
            .filter(|&t| t <= MAX_ENUMERATION_ASSIGNMENTS)
            .ok_or_else(|| {
                PlanError::Enumeration(format!(
                    "{} variables over {} representative values exceed the {} binding limit",
                    vars.len(),
                    values.len(),
                    MAX_ENUMERATION_ASSIGNMENTS
                ))
            })?;

        let key = structure_key(chain, self.inference);
        let mut recorded = 0usize;
        // Odometer over value indices, one digit per variable.
        let mut digits = vec![0usize; vars.len()];
        for _ in 0..total.max(1) {
            let mut bindings = DimBindings::new();
            for (var, &d) in vars.iter().zip(&digits) {
                bindings.set_var(*var, values[d]);
            }
            recorded += usize::from(self.record_unanswered(chain, &key, &bindings)?);
            // Advance the odometer.
            for d in digits.iter_mut() {
                *d += 1;
                if *d < values.len() {
                    break;
                }
                *d = 0;
            }
        }
        Ok(recorded)
    }
}
