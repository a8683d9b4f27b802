//! The structure-keyed plan cache: one map of structures, each entry
//! the one record of its structure, holding its regions and counting
//! the requests it served.
//!
//! # Concurrency architecture
//!
//! The serving hot path (a cache **hit**) is a read that many threads
//! can take at once:
//!
//! * The cache is one map from [`StructureKey`] to the structure's
//!   [`SymbolicPlan`], behind a many-reader lock held only to find or
//!   insert an entry, never across a solve. A caller that solves one
//!   structure many times resolves its entry once
//!   ([`PlanCache::resolve`]) and solves each request's bound chain
//!   through it ([`PlanCache::solve_resolved`]), so it computes no
//!   structure key and takes no map lock per request.
//! * Each entry keeps one list of its regions behind its own
//!   many-reader lock, held only to find and clone a region or to push
//!   one. A hit instantiates the region it cloned on a **thread-local**
//!   workspace (the DP table), so concurrent hits share no mutable
//!   state and allocate no fresh tables.
//! * Each entry counts its own hits and misses; [`PlanCache::stats`]
//!   sums them over the entries when read, so a hit writes no counter
//!   shared with other structures.
//! * A miss records behind the entry's recording mutex, after looking
//!   for its region once more: a thread that lost the race to record
//!   the same region finds it there and serves it as a hit. Each region
//!   is recorded exactly once, and no update is lost.

use crate::key::{structure_key, unit_mask, StructureKey};
use crate::plan::{instantiate, record_region, PlanSummary, RegionPlan};
use crate::sync::{mutex_lock, read_lock, write_lock};
use gmc::{GmcError, GmcSolution, GmcWorkspace, InferenceMode};
use gmc_expr::{Chain, Dim, DimBindings, SymChain, SymChainError};
use gmc_kernels::{Flops, KernelRegistry};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// How much the cache holds, from [`PlanCache::shard_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSize {
    /// Chain structures with at least one recorded region.
    pub structures: usize,
    /// Size regions recorded over every structure.
    pub regions: usize,
}

/// Nanosecond timing of one [`PlanCache::solve_traced`] or
/// [`PlanCache::solve_resolved`] call. Every solve through the cache is
/// timed; [`PlanCache::solve`] drops the timing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveTiming {
    /// Time locating the cached region: the region lookup and (on the
    /// slow path) the recording-mutex wait, plus, under
    /// [`solve_traced`](PlanCache::solve_traced), binding the chain and
    /// finding the structure's entry. [`solve_resolved`](PlanCache::solve_resolved)
    /// gets both from its caller.
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

/// A symbolic plan for one chain structure: one recorded region plan
/// per size region encountered so far, and the counts of the requests
/// it served. It is the cache's live entry for the structure and the
/// one record of it, so regions recorded later appear in it.
///
/// Its `Debug` form is what the plan decides: each region's key, cells
/// and variables, in key order. It leaves out the request counters and
/// the bindings the regions were recorded at, so two caches that
/// recorded the same regions in any order render alike.
#[derive(Default)]
pub struct SymbolicPlan {
    /// The regions; a binding's region is the one with its unit mask
    /// whose key it answers. The lock is held only to find and clone a
    /// region or to push one.
    regions: RwLock<Vec<Arc<RegionPlan>>>,
    /// Serializes recording, so each region is recorded exactly once.
    recording: Mutex<()>,
    hits: AtomicU64,
    region_misses: AtomicU64,
    /// Whether a request recorded the structure's first region (a
    /// plan-store load or a pre-enumeration counts nothing).
    structure_miss: AtomicBool,
}

impl SymbolicPlan {
    /// Number of size regions recorded for this structure.
    pub fn region_count(&self) -> usize {
        read_lock(&self.regions).len()
    }

    /// The region serving the boundary dimensions `sizes`, if recorded.
    pub(crate) fn region_for(&self, sizes: &[usize]) -> Option<Arc<RegionPlan>> {
        let mask = unit_mask(sizes);
        read_lock(&self.regions)
            .iter()
            .find(|r| r.unit_mask == mask && r.key.admits(sizes))
            .cloned()
    }

    /// Every recorded region.
    pub(crate) fn regions(&self) -> Vec<Arc<RegionPlan>> {
        read_lock(&self.regions).clone()
    }

    /// Adds `region`; returns whether it is the structure's first. The
    /// caller holds the recording mutex.
    fn push(&self, region: RegionPlan) -> bool {
        let mut regions = write_lock(&self.regions);
        regions.push(Arc::new(region));
        regions.len() == 1
    }

    /// The requests this structure served, by outcome.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            structure_misses: u64::from(self.structure_miss.load(Ordering::Relaxed)),
            region_misses: self.region_misses.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
        }
    }

    /// The recorded regions' classification summaries.
    pub fn region_summaries(&self) -> impl Iterator<Item = PlanSummary> {
        self.regions().into_iter().map(|r| r.summary())
    }
}

impl fmt::Debug for SymbolicPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut regions = self.regions();
        regions.sort_by(|a, b| a.key.cmp(&b.key));
        f.debug_list()
            .entries(regions.iter().map(|r| (&r.key, &r.cells, &r.vars)))
            .finish()
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

/// Splits `started → lookup_done → now` into a [`SolveTiming`].
fn timing(started: Instant, lookup_done: Instant) -> SolveTiming {
    SolveTiming {
        lookup_ns: saturating_ns(lookup_done.duration_since(started)),
        work_ns: saturating_ns(lookup_done.elapsed()),
    }
}

/// A `Duration` as whole nanoseconds, saturating at `u64::MAX`.
fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn with_workspace<R>(f: impl FnOnce(&mut GmcWorkspace<Flops>) -> R) -> R {
    WORKSPACE.with(|cell| f(&mut cell.borrow_mut()))
}

/// Hard cap on the number of representative bindings
/// [`PlanCache::pre_enumerate_regions`] will try.
const MAX_ENUMERATION_ASSIGNMENTS: usize = 20_000;

/// Largest chain length eligible for region pre-enumeration.
const MAX_ENUMERATION_FACTORS: usize = 8;

/// A plan cache: compile a chain *structure* once, serve every request
/// that differs only in sizes by instantiating the cached symbolic
/// plan. Safe to share across threads (`&self` everywhere): hits are
/// reads under many-reader locks, misses record behind their
/// structure's recording mutex (see the module docs for the
/// architecture).
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
    plans: RwLock<HashMap<StructureKey, Arc<SymbolicPlan>>>,
}

impl PlanCache {
    /// Creates an empty cache over `registry` with the given inference
    /// mode.
    pub fn new(registry: Arc<KernelRegistry>, inference: InferenceMode) -> Self {
        PlanCache {
            registry,
            inference,
            plans: RwLock::default(),
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

    /// Cumulative hit/miss counters: the sums of every entry's own
    /// ([`SymbolicPlan::stats`]).
    pub fn stats(&self) -> CacheStats {
        read_lock(&self.plans)
            .values()
            .fold(CacheStats::default(), |sum, plan| {
                let s = plan.stats();
                CacheStats {
                    structure_misses: sum.structure_misses + s.structure_misses,
                    region_misses: sum.region_misses + s.region_misses,
                    hits: sum.hits + s.hits,
                }
            })
    }

    /// The cache's size, as one entry covering the whole cache (the
    /// list form is kept for callers that sum its `regions`).
    pub fn shard_stats(&self) -> Vec<CacheSize> {
        let mut size = CacheSize::default();
        for plan in read_lock(&self.plans).values() {
            let regions = plan.region_count();
            size.structures += usize::from(regions > 0);
            size.regions += regions;
        }
        vec![size]
    }

    /// Whether no structure holds a region.
    pub fn is_empty(&self) -> bool {
        read_lock(&self.plans)
            .values()
            .all(|plan| plan.region_count() == 0)
    }

    /// The entry for the structure `key`, created empty if there is
    /// none. An entry counts (in [`plan_for`](Self::plan_for),
    /// [`is_empty`](Self::is_empty), [`shard_stats`](Self::shard_stats)
    /// and snapshots) only once it holds a region.
    pub(crate) fn entry(&self, key: StructureKey) -> Arc<SymbolicPlan> {
        if let Some(plan) = read_lock(&self.plans).get(&key) {
            return Arc::clone(plan);
        }
        Arc::clone(write_lock(&self.plans).entry(key).or_default())
    }

    /// The cache's entry for `chain`'s structure, created empty if the
    /// structure has none. Resolve it once, then solve every request
    /// for the structure through it with
    /// [`solve_resolved`](Self::solve_resolved).
    pub fn resolve(&self, chain: &SymChain) -> Arc<SymbolicPlan> {
        self.entry(structure_key(chain, self.inference))
    }

    /// The cached plan for a chain structure, if it holds a region. It
    /// is the live entry: regions recorded later appear in it.
    pub fn plan_for(&self, chain: &SymChain) -> Option<Arc<SymbolicPlan>> {
        let key = structure_key(chain, self.inference);
        read_lock(&self.plans)
            .get(&key)
            .filter(|plan| plan.region_count() > 0)
            .cloned()
    }

    /// Every structure that holds a region, with its key.
    pub(crate) fn structures(&self) -> Vec<(StructureKey, Arc<SymbolicPlan>)> {
        read_lock(&self.plans)
            .iter()
            .filter(|(_, plan)| plan.region_count() > 0)
            .map(|(key, plan)| (key.clone(), Arc::clone(plan)))
            .collect()
    }

    /// Records the region of `chain` (whose entry is `plan`) at
    /// `bindings`, unless a cached region already answers them; returns
    /// whether it recorded one. Plan-store loading and region
    /// pre-enumeration both record through here. Unsolvable regions are
    /// recorded too: the cached plan *is* the (negative) answer.
    pub(crate) fn record_unanswered(
        &self,
        plan: &SymbolicPlan,
        chain: &SymChain,
        bindings: &DimBindings,
    ) -> Result<bool, PlanError> {
        let sizes = chain.bind_dims(bindings)?;
        if plan.region_for(&sizes).is_some() {
            return Ok(false);
        }
        let _recording = mutex_lock(&plan.recording);
        if plan.region_for(&sizes).is_some() {
            return Ok(false);
        }
        let concrete = chain.bind(bindings)?;
        let (region, _solution) = with_workspace(|workspace| {
            record_region(&self.registry, self.inference, chain, &concrete, workspace)
        });
        plan.push(region);
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
    /// concurrently. Hits never block on a recording; concurrent misses
    /// on one structure serialize their recordings, and a thread that
    /// finds its region already recorded when its turn comes serves it
    /// as a hit instead of recording twice.
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
        self.solve_traced(chain, bindings)
            .map(|(solution, outcome, _)| (solution, outcome))
    }

    /// Like [`PlanCache::solve`], additionally reporting where the call
    /// spent its time ([`SolveTiming`]): `solve` is this call with the
    /// timing dropped.
    pub fn solve_traced(
        &self,
        chain: &SymChain,
        bindings: &DimBindings,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome, SolveTiming), PlanError> {
        // Keying the structure and binding the chain count as lookup
        // time.
        let started = Instant::now();
        let plan = self.resolve(chain);
        self.solve_impl(&plan, chain, &chain.bind(bindings)?, started)
    }

    /// [`solve_traced`](Self::solve_traced) of `concrete`, a binding of
    /// `chain` ([`SymChain::bind`]), through `plan`, the entry
    /// [`resolve`](Self::resolve) returned for `chain` on this cache:
    /// the same path without computing the structure key, taking the
    /// map's lock or binding the chain again. Another structure's entry
    /// would serve that structure's regions.
    ///
    /// # Errors
    ///
    /// [`PlanError::Solve`] as [`solve`](Self::solve); the binding's
    /// errors belong to whoever bound `concrete`.
    pub fn solve_resolved(
        &self,
        plan: &SymbolicPlan,
        chain: &SymChain,
        concrete: &Chain,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome, SolveTiming), PlanError> {
        self.solve_impl(plan, chain, concrete, Instant::now())
    }

    fn solve_impl(
        &self,
        plan: &SymbolicPlan,
        chain: &SymChain,
        concrete: &Chain,
        started: Instant,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome, SolveTiming), PlanError> {
        let sizes = concrete.sizes();
        let region = match plan.region_for(&sizes) {
            Some(region) => region,
            None => {
                let _recording = mutex_lock(&plan.recording);
                // A thread that recorded the region while this one
                // waited leaves it to be served as a hit.
                match plan.region_for(&sizes) {
                    Some(region) => region,
                    None => return self.record(plan, chain, concrete, started),
                }
            }
        };
        plan.hits.fetch_add(1, Ordering::Relaxed);
        let lookup_done = Instant::now();
        let solution = with_workspace(|workspace| {
            instantiate(
                &self.registry,
                self.inference,
                &region,
                concrete,
                &sizes,
                workspace,
            )
        })?;
        Ok((solution, PlanOutcome::Hit, timing(started, lookup_done)))
    }

    /// Records the region of `concrete` into `plan` and answers the
    /// request from the recording. The caller holds `plan`'s recording
    /// mutex.
    fn record(
        &self,
        plan: &SymbolicPlan,
        chain: &SymChain,
        concrete: &Chain,
        started: Instant,
    ) -> Result<(GmcSolution<Flops>, PlanOutcome, SolveTiming), PlanError> {
        let lookup_done = Instant::now();
        let (region, solution) = with_workspace(|workspace| {
            record_region(&self.registry, self.inference, chain, concrete, workspace)
        });
        let outcome = if plan.push(region) {
            plan.structure_miss.store(true, Ordering::Relaxed);
            PlanOutcome::MissStructure
        } else {
            plan.region_misses.fetch_add(1, Ordering::Relaxed);
            PlanOutcome::MissRegion
        };
        Ok((solution?, outcome, timing(started, lookup_done)))
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

        let plan = self.resolve(chain);
        let mut recorded = 0usize;
        // Odometer over value indices, one digit per variable.
        let mut digits = vec![0usize; vars.len()];
        for _ in 0..total.max(1) {
            let mut bindings = DimBindings::new();
            for (var, &d) in vars.iter().zip(&digits) {
                bindings.set_var(*var, values[d]);
            }
            recorded += usize::from(self.record_unanswered(&plan, chain, &bindings)?);
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
