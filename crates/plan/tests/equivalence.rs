//! Plan-cache vs concrete-optimizer equivalence on handcrafted chains:
//! every served solution must match a from-scratch `GmcOptimizer::solve`
//! bit for bit (cost, parenthesization, kernel sequence), across size
//! regions, inference modes and cache temperatures.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanOutcome};

fn check_equivalent(chain: &SymChain, bindings_list: &[DimBindings]) {
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        // Two passes so every binding is also exercised as a pure hit.
        for pass in 0..2 {
            for b in bindings_list {
                let concrete = chain.bind(b).expect("binding covers all variables");
                let reference = optimizer.solve(&concrete);
                let served = cache.solve(chain, b);
                match (reference, served) {
                    (Ok(want), Ok((got, outcome))) => {
                        assert_eq!(
                            want.cost().to_bits(),
                            got.cost().to_bits(),
                            "cost diverged for {concrete} under {mode:?} ({outcome})"
                        );
                        assert_eq!(
                            want.parenthesization(),
                            got.parenthesization(),
                            "paren diverged for {concrete} under {mode:?}"
                        );
                        assert_eq!(
                            want.kernel_names(),
                            got.kernel_names(),
                            "kernels diverged for {concrete} under {mode:?}"
                        );
                        assert_eq!(want.flops(), got.flops());
                        if pass == 1 {
                            assert_eq!(outcome, PlanOutcome::Hit, "second pass must hit");
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (want, got) => {
                        panic!("solvability diverged for {concrete} under {mode:?}: concrete {want:?}, plan {got:?}")
                    }
                }
            }
        }
    }
}

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

#[test]
fn dense_chain_regions_flip_parenthesization() {
    let (n, m, k) = (Dim::var("eq_n"), Dim::var("eq_m"), Dim::var("eq_k"));
    let chain = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let b = |nv, mv, kv| {
        DimBindings::new()
            .with("eq_n", nv)
            .with("eq_m", mv)
            .with("eq_k", kv)
    };
    check_equivalent(
        &chain,
        &[
            b(10, 200, 30),
            b(12, 240, 36), // same region, different sizes
            b(300, 20, 100),
            b(5, 5, 5),   // all-equal region
            b(1, 50, 20), // row-vector-ish boundary (dimension 1)
            b(40, 1, 7),
        ],
    );
}

#[test]
fn structured_chain_with_properties_and_inverse() {
    let (n, m) = (Dim::var("eq2_n"), Dim::var("eq2_m"));
    let a = SymOperand::square("A", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let b = SymOperand::new("B", n, m);
    let c = SymOperand::square("C", m)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let chain = SymChain::new(vec![
        SymFactor::new(a, UnaryOp::Inverse),
        SymFactor::plain(b),
        SymFactor::new(c, UnaryOp::Transpose),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq2_n", nv).with("eq2_m", mv);
    check_equivalent(
        &chain,
        &[bind(2000, 200), bind(100, 800), bind(7, 7), bind(3, 1)],
    );
}

#[test]
fn aliased_gram_chain_uses_syrk() {
    // Aᵀ A B: SYRK applies only because both factors are the same A.
    let (n, m) = (Dim::var("eq3_n"), Dim::var("eq3_m"));
    let a = SymOperand::new("A", n, n);
    let b = SymOperand::new("B", n, m);
    let chain = SymChain::new(vec![
        SymFactor::new(a.clone(), UnaryOp::Transpose),
        SymFactor::plain(a),
        SymFactor::plain(b),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq3_n", nv).with("eq3_m", mv);
    check_equivalent(&chain, &[bind(20, 15), bind(200, 3), bind(4, 400)]);
}

#[test]
fn vector_chain_gemv_cascade() {
    let (n, m) = (Dim::var("eq4_n"), Dim::var("eq4_m"));
    let chain = SymChain::new(vec![
        plain("M1", n, n),
        plain("M2", n, n),
        plain("v1", n, Dim::Const(1)),
        SymFactor::new(SymOperand::new("v2", m, Dim::Const(1)), UnaryOp::Transpose),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq4_n", nv).with("eq4_m", mv);
    check_equivalent(&chain, &[bind(500, 400), bind(30, 700), bind(2, 2)]);
}

#[test]
fn triangular_propagation_chain() {
    // L1 L2 B with both factors lower triangular: temp property
    // propagation decides TRMM applicability downstream.
    let (n, m) = (Dim::var("eq5_n"), Dim::var("eq5_m"));
    let l1 = SymOperand::square("L1", n)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let l2 = SymOperand::square("L2", n)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let b = SymOperand::new("B", n, m);
    let chain = SymChain::new(vec![
        SymFactor::plain(l1),
        SymFactor::plain(l2),
        SymFactor::plain(b),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq5_n", nv).with("eq5_m", mv);
    check_equivalent(&chain, &[bind(100, 80), bind(10, 1000), bind(50, 50)]);
}

#[test]
fn uncomputable_chains_stay_uncomputable() {
    let registry = std::sync::Arc::new(
        KernelRegistry::builder()
            .only_families([gmc_kernels::KernelFamily::Gemm])
            .build(),
    );
    let n = Dim::var("eq6_n");
    let a = SymOperand::square("A", n);
    let b = SymOperand::new("B", n, Dim::Const(4));
    let chain = SymChain::new(vec![
        SymFactor::new(a, UnaryOp::Inverse),
        SymFactor::plain(b),
    ])
    .unwrap();
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    let bindings = DimBindings::new().with("eq6_n", 10);
    assert!(cache.solve(&chain, &bindings).is_err());
    // The unsolvable region is cached; a second request errors again
    // (served from the cached region).
    assert!(cache.solve(&chain, &bindings).is_err());
    assert_eq!(cache.stats().requests(), 2);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn longer_dense_chain_with_shared_vars() {
    let (n, m) = (Dim::var("eq7_n"), Dim::var("eq7_m"));
    let chain = SymChain::new(vec![
        plain("A", n, m),
        plain("B", m, n),
        plain("C", n, m),
        plain("D", m, n),
        plain("E", n, m),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq7_n", nv).with("eq7_m", mv);
    check_equivalent(
        &chain,
        &[
            bind(10, 100),
            bind(100, 10),
            bind(33, 33),
            bind(1, 9),
            bind(17, 170),
        ],
    );
}

#[test]
fn renamed_variables_share_plans_correctly() {
    // Structure keys canonicalize variable names, so A(n,m)·B(m,k)·C(k,n)
    // and A(p,q)·B(q,r)·C(r,p) share one cached plan. The cached FLOP
    // formulas reference the *recording* chain's variables; serving the
    // renamed chain must translate the bindings, not crash or mis-cost.
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let (n, m, k) = (Dim::var("rn_n"), Dim::var("rn_m"), Dim::var("rn_k"));
    let (p, q, r) = (Dim::var("rn_p"), Dim::var("rn_q"), Dim::var("rn_r"));
    let first = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let renamed =
        SymChain::new(vec![plain("A", p, q), plain("B", q, r), plain("C", r, p)]).unwrap();
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        assert_eq!(
            gmc_plan::structure_key(&first, mode),
            gmc_plan::structure_key(&renamed, mode),
            "the chains must share a structure key for this test to bite"
        );
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        let b1 = DimBindings::new()
            .with("rn_n", 10)
            .with("rn_m", 200)
            .with("rn_k", 30);
        cache.solve(&first, &b1).unwrap();
        // Different sizes than the recording, same region ordering.
        let b2 = DimBindings::new()
            .with("rn_p", 13)
            .with("rn_q", 260)
            .with("rn_r", 39);
        let (got, outcome) = cache.solve(&renamed, &b2).unwrap();
        assert_eq!(
            outcome,
            PlanOutcome::Hit,
            "{mode:?}: renamed chain must hit"
        );
        let want = optimizer.solve(&renamed.bind(&b2).unwrap()).unwrap();
        assert_eq!(want.cost().to_bits(), got.cost().to_bits(), "{mode:?}");
        assert_eq!(want.parenthesization(), got.parenthesization());
        assert_eq!(want.kernel_names(), got.kernel_names());
    }
}

#[test]
fn renamed_variables_work_across_the_plan_store() {
    // Record under one naming, persist, load, serve a renamed chain.
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let (n, m) = (Dim::var("rs_n"), Dim::var("rs_m"));
    let recorded = SymChain::new(vec![plain("A", n, m), plain("B", m, n)]).unwrap();
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    warm.solve(
        &recorded,
        &DimBindings::new().with("rs_n", 10).with("rs_m", 80),
    )
    .unwrap();

    let cold = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    cold.load_snapshot_json(&warm.snapshot_json()).unwrap();
    let (x, y) = (Dim::var("rs_x"), Dim::var("rs_y"));
    let renamed = SymChain::new(vec![plain("A", x, y), plain("B", y, x)]).unwrap();
    let b = DimBindings::new().with("rs_x", 7).with("rs_y", 900);
    let (got, outcome) = cold.solve(&renamed, &b).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
    let want = GmcOptimizer::new(&registry, FlopCount)
        .solve(&renamed.bind(&b).unwrap())
        .unwrap();
    assert_eq!(want.cost().to_bits(), got.cost().to_bits());
    assert_eq!(want.kernel_names(), got.kernel_names());
}

#[test]
fn right_side_kernels_take_the_free_dimension_from_the_side() {
    // `B L`, with `B` m×n general and `L` n×n lower triangular: a
    // right-side TRMM costs m·n². Recorded at m = n, where `B`'s rows
    // and columns both equal `L`'s order, the region also serves m ≠ n,
    // so its formula must not have stored n³.
    let (m, n) = (Dim::var("fd_m"), Dim::var("fd_n"));
    let l = SymOperand::square("L", n)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let chain = SymChain::new(vec![plain("B", m, n), SymFactor::plain(l)]).unwrap();
    let b = |mv, nv| DimBindings::new().with("fd_m", mv).with("fd_n", nv);
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    cache.solve(&chain, &b(8, 8)).unwrap();
    let (got, outcome) = cache.solve(&chain, &b(5, 8)).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit, "m = 5 shares the m = n region");
    assert_eq!(got.flops(), 5.0 * 8.0 * 8.0);
    check_equivalent(&chain, &[b(8, 8), b(5, 8), b(8, 5), b(1, 8)]);
}
