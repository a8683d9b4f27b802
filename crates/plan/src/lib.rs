//! Symbolic GMC plans: compile a matrix-chain *structure* once over
//! dimension variables, cache the result, and instantiate it per
//! request at concrete sizes.
//!
//! The concrete GMC optimizer (`gmc::GmcOptimizer`) solves one chain
//! with fixed operand sizes. A production front door, however, sees
//! *streams* of requests that share a chain structure and differ only
//! in sizes — and the follow-up literature ("Compilation of Generalized
//! Matrix Chains with Symbolic Sizes"; "On the Parenthesisations of
//! Matrix Chains") shows that few parenthesizations are ever optimal,
//! so one symbolic solve can serve many concrete instantiations. This
//! crate provides that layer:
//!
//! * [`PlanCache`] — keyed by (chain structure, operand properties,
//!   dimension-variable pattern) and, per structure, by size *region*
//!   (the shape questions the region's recording consulted, with their
//!   answers: which dimensions are 1, and the equalities and orderings
//!   property inference reached). The cache is concurrent: one map
//!   holds an entry per structure, the structure's one record, and each
//!   entry keeps one list of its regions behind its own many-reader
//!   lock, so cache hits are reads that any number of threads take at
//!   once while misses record behind their entry's recording mutex.
//!   Each entry counts its own hits and misses
//!   ([`SymbolicPlan::stats`]), and [`PlanCache::stats`] sums them. A
//!   caller that serves one structure many times resolves its entry
//!   once ([`PlanCache::resolve`]) and solves each request's bound
//!   chain through it ([`PlanCache::solve_resolved`]) without keying
//!   the structure again (see [`PlanCache`]'s docs). Plans persist:
//!   [`PlanCache::save`] writes the binding each region was recorded at
//!   to a JSON plan store (`gmc-plan-store/v3`), and [`PlanCache::load`]
//!   re-records every stored region from it under the loading cache's
//!   own registry and inference mode, so a serving fleet warm-starts
//!   with every stored region a hit;
//!   [`PlanCache::pre_enumerate_regions`] records *every* reachable
//!   region of a small chain up front. Sizes range over 1..=2^32
//!   ([`gmc_expr::MAX_DIM`]).
//! * Symbolic solving — where FLOP-polynomial comparison is decidable
//!   (dominance on the positive orthant), DP cells are *resolved* at
//!   compile time; ambiguous splits are *deferred* and decided at bind
//!   time by evaluating the cached FLOP polynomials in thirds, each
//!   variable read from its boundary position in the bound chain.
//! * Bit-identical instantiation — the served solution matches a
//!   from-scratch concrete solve exactly, at every admitted size: both
//!   compare the same exact FLOP counts ([`gmc_kernels::Flops`]), so
//!   they break ties alike, and both report the same `f64` cost, the
//!   same parenthesization and the same kernel sequence, in both
//!   inference modes.
//!
//! # Example
//!
//! ```
//! use gmc::InferenceMode;
//! use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
//! use gmc_kernels::KernelRegistry;
//! use gmc_plan::{PlanCache, PlanOutcome};
//!
//! // X := A⁻¹ B Cᵀ with symbolic sizes (paper Table 2, symbolically).
//! let n = Dim::var("n");
//! let m = Dim::var("m");
//! let a = SymOperand::square("A", n)
//!     .with_property(Property::SymmetricPositiveDefinite)
//!     .unwrap();
//! let b = SymOperand::new("B", n, m);
//! let c = SymOperand::square("C", m)
//!     .with_property(Property::LowerTriangular)
//!     .unwrap();
//! let chain = SymChain::new(vec![
//!     SymFactor::new(a, UnaryOp::Inverse),
//!     SymFactor::plain(b),
//!     SymFactor::new(c, UnaryOp::Transpose),
//! ])
//! .unwrap();
//!
//! let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
//! let cache = PlanCache::new(registry, InferenceMode::Compositional);
//!
//! // Cold: symbolic solve, recorded.
//! let big = DimBindings::new().with("n", 2000).with("m", 200);
//! let (sol, outcome) = cache.solve(&chain, &big).unwrap();
//! assert_eq!(outcome, PlanOutcome::MissStructure);
//! assert_eq!(sol.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
//!
//! // Warm: no dimension is 1 again — the same region, cached instantiate.
//! let bigger = DimBindings::new().with("n", 4000).with("m", 400);
//! let (sol, outcome) = cache.solve(&chain, &bigger).unwrap();
//! assert_eq!(outcome, PlanOutcome::Hit);
//! assert_eq!(sol.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod key;
mod plan;
mod store;
pub mod sync;

pub use cache::{
    CacheSize, CacheStats, PlanCache, PlanError, PlanOutcome, SolveTiming, SymbolicPlan,
};
pub use key::{region_signature, structure_key, undecided_shape_questions, StructureKey};
pub use plan::PlanSummary;
