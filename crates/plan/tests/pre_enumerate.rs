//! Region pre-enumeration: after `pre_enumerate_regions`, *every*
//! request for the structure — any positive binding — is a cache hit,
//! and the served solutions stay bit-identical to concrete solves.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanError, PlanOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

fn assert_all_hits(chain: &SymChain, cache: &PlanCache, seed: u64) {
    let registry = cache.registry().clone();
    let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(cache.inference());
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = [1usize, 2, 3, 6, 7, 8, 13, 40, 100, 2000];
    for _ in 0..60 {
        let mut b = DimBindings::new();
        for v in chain.vars() {
            b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
        }
        let (got, outcome) = cache.solve(chain, &b).unwrap();
        assert_eq!(
            outcome,
            PlanOutcome::Hit,
            "binding {b} of {chain} must hit after pre-enumeration"
        );
        let want = optimizer.solve(&chain.bind(&b).unwrap()).unwrap();
        assert_eq!(want.cost().to_bits(), got.cost().to_bits());
        assert_eq!(want.parenthesization(), got.parenthesization());
        assert_eq!(want.kernel_names(), got.kernel_names());
    }
}

#[test]
fn dense_symbolic_chain_every_request_hits() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let (n, m, k) = (Dim::var("pe_n"), Dim::var("pe_m"), Dim::var("pe_k"));
    let chain = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    // Compositional inference asks nothing of a dense chain but which
    // dimensions are 1: 2³ regions. Deep inference conservatively asks
    // every comparison, so its 26 regions are the weak orderings of
    // three variables, each against 1 too.
    for (mode, regions) in [(InferenceMode::Compositional, 8), (InferenceMode::Deep, 26)] {
        let cache = PlanCache::new(registry.clone(), mode);
        let recorded = cache.pre_enumerate_regions(&chain).unwrap();
        assert_eq!(recorded, regions, "{mode:?}");
        assert_all_hits(&chain, &cache, 0xE1);
        // Idempotent: a second enumeration records nothing new.
        assert_eq!(cache.pre_enumerate_regions(&chain).unwrap(), 0);
    }
}

#[test]
fn mixed_constant_and_variable_dims_enumerate() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let (n, m) = (Dim::var("pe2_n"), Dim::var("pe2_m"));
    // The constant 7 interleaves with the variables, so the sweep
    // covers every ordering against it; the regions split only on
    // which of n and m are 1.
    let chain = SymChain::new(vec![
        plain("A", n, Dim::Const(7)),
        plain("B", Dim::Const(7), m),
        plain("C", m, n),
    ])
    .unwrap();
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    let recorded = cache.pre_enumerate_regions(&chain).unwrap();
    assert_eq!(recorded, 4);
    assert_all_hits(&chain, &cache, 0xE2);
}

#[test]
fn structured_chain_enumerates_with_properties() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let (n, m) = (Dim::var("pe3_n"), Dim::var("pe3_m"));
    let spd = SymOperand::square("S", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let tri = SymOperand::square("L", m)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let chain = SymChain::new(vec![
        SymFactor::new(spd, UnaryOp::Inverse),
        plain("B", n, m),
        SymFactor::new(tri, UnaryOp::Transpose),
    ])
    .unwrap();
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    assert_eq!(cache.pre_enumerate_regions(&chain).unwrap(), 4);
    assert_all_hits(&chain, &cache, 0xE3);
}

#[test]
fn fully_concrete_chain_is_one_region() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let chain = SymChain::new(vec![
        plain("A", Dim::Const(10), Dim::Const(20)),
        plain("B", Dim::Const(20), Dim::Const(5)),
    ])
    .unwrap();
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    assert_eq!(cache.pre_enumerate_regions(&chain).unwrap(), 1);
    let (_, outcome) = cache.solve(&chain, &DimBindings::new()).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
}

#[test]
fn oversized_chains_are_rejected() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    // Nine factors exceed the factor limit.
    let dims: Vec<Dim> = (0..10).map(|i| Dim::var(&format!("pe4_d{i}"))).collect();
    let factors: Vec<SymFactor> = (0..9)
        .map(|i| plain(&format!("M{i}"), dims[i], dims[i + 1]))
        .collect();
    let chain = SymChain::new(factors).unwrap();
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    assert!(matches!(
        cache.pre_enumerate_regions(&chain),
        Err(PlanError::Enumeration(_))
    ));
    // Eight factors with eight distinct variables blow the binding
    // budget instead.
    let factors: Vec<SymFactor> = (0..8)
        .map(|i| plain(&format!("M{i}"), dims[i], dims[i + 1]))
        .collect();
    let chain = SymChain::new(factors).unwrap();
    assert!(matches!(
        cache.pre_enumerate_regions(&chain),
        Err(PlanError::Enumeration(_))
    ));
}
