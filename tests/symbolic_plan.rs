//! End-to-end integration of the symbolic pipeline: input language with
//! identifier dimensions → `SymChain` → `gmc-plan` cache → solutions,
//! regions, and size-generic code emission.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_codegen::emit_size_generic_rust;
use gmc_expr::DimBindings;
use gmc_frontend::{parse, render_problem};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanOutcome};

const SYMBOLIC_MCP: &str = "\
Matrix A (n, k)
Matrix B (k, m)
Matrix C (m, n)
X := A * B * C
";

#[test]
fn regions_select_different_parenthesizations() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let sym = problem.symbolic.as_ref().expect("symbolic problem");
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);

    // Both parenthesizations share the 2nmk term, so the comparison is
    // n²m vs n²k: m < k → ((A B) C), m > k → (A (B C)).
    let b1 = DimBindings::new()
        .with("n", 10)
        .with("k", 1000)
        .with("m", 10);
    let (s1, o1) = cache.solve(chain, &b1).unwrap();
    assert_eq!(o1, PlanOutcome::MissStructure);
    assert_eq!(s1.parenthesization(), "((A B) C)");

    // Same region, scaled sizes: cache hit, same paren.
    let b2 = DimBindings::new()
        .with("n", 20)
        .with("k", 2000)
        .with("m", 20);
    let (s2, o2) = cache.solve(chain, &b2).unwrap();
    assert_eq!(o2, PlanOutcome::Hit);
    assert_eq!(s2.parenthesization(), "((A B) C)");

    // Flipped ordering: no shape question the recording asked changes
    // its answer, so the same region serves it, and its deferred root
    // cell picks the other paren at bind time.
    let b3 = DimBindings::new()
        .with("n", 10)
        .with("k", 20)
        .with("m", 1000);
    let (s3, o3) = cache.solve(chain, &b3).unwrap();
    assert_eq!(o3, PlanOutcome::Hit);
    assert_eq!(s3.parenthesization(), "(A (B C))");
    let summary = cache.region_summary(chain, &b3).unwrap();
    assert!(
        summary.deferred >= 1,
        "the root cell is deferred: {summary}"
    );
    let cold = GmcOptimizer::new(&registry, FlopCount)
        .solve(&chain.bind(&b3).unwrap())
        .unwrap();
    assert_eq!(cold.cost().to_bits(), s3.cost().to_bits());

    let stats = cache.stats();
    assert_eq!(stats.requests(), 3);
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.structure_misses, 1);
    assert_eq!(stats.region_misses, 0);
    assert_eq!(cache.plan_for(chain).unwrap().region_count(), 1);
}

#[test]
fn an_inference_comparison_splits_regions_by_its_answer() {
    // `Xᵀ X` is SPD iff `X` (n×m) has at least as many rows as columns,
    // so the recording asks n ≥ m and each answer gets its own region;
    // bindings on either side are served from theirs, bit-identically.
    let problem =
        parse("Matrix X (n, m)\nMatrix B (m, k)\nMatrix C (k, m)\nY := X^T * X * B * C\n").unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let b = |n, m, k| DimBindings::new().with("n", n).with("m", m).with("k", k);
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let cache = PlanCache::new(registry.clone(), mode);
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cases = [
            (b(40, 20, 30), PlanOutcome::MissStructure),
            (b(20, 40, 30), PlanOutcome::MissRegion),
            (b(90, 7, 60), PlanOutcome::Hit),
            (b(7, 90, 60), PlanOutcome::Hit),
            (b(40, 40, 30), PlanOutcome::Hit),
        ];
        for (bindings, outcome) in &cases {
            let (got, served) = cache.solve(chain, bindings).unwrap();
            let want = optimizer.solve(&chain.bind(bindings).unwrap()).unwrap();
            assert_eq!(
                want.cost().to_bits(),
                got.cost().to_bits(),
                "{mode:?} {bindings}"
            );
            assert_eq!(want.parenthesization(), got.parenthesization());
            assert_eq!(want.kernel_names(), got.kernel_names());
            if mode == InferenceMode::Compositional {
                assert_eq!(served, *outcome, "{bindings}");
            }
        }
        let regions = cache.plan_for(chain).unwrap().region_count();
        if mode == InferenceMode::Compositional {
            assert_eq!(regions, 2);
        }
    }
}

#[test]
fn structured_symbolic_problem_resolves_fully() {
    // The symbolic Table 2 chain: with the SPD/triangular structure the
    // kernel choice and split are size-independent, so the whole plan
    // resolves symbolically and instantiation never scans candidates.
    let problem = parse(
        "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nMatrix C (m, m) <LowerTriangular>\n\
         X := A^-1 * B * C^T\n",
    )
    .unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let b = DimBindings::new().with("n", 2000).with("m", 200);
    let (sol, _) = cache.solve(chain, &b).unwrap();
    assert_eq!(sol.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
    let summary = cache.region_summary(chain, &b).unwrap();
    assert_eq!(summary.dynamic, 0);
    assert_eq!(summary.unsolvable, 0);
    assert!(
        summary.resolved >= 1,
        "expected symbolically resolved cells, got {summary}"
    );
}

#[test]
fn frontend_plan_and_concrete_optimizer_agree() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    for (n, k, m) in [(30, 40, 50), (50, 40, 30), (8, 8, 8), (1, 5, 9)] {
        let b = DimBindings::new().with("n", n).with("k", k).with("m", m);
        let concrete = chain.bind(&b).unwrap();
        let want = optimizer.solve(&concrete).unwrap();
        let (got, _) = cache.solve(chain, &b).unwrap();
        assert_eq!(want.cost().to_bits(), got.cost().to_bits());
        assert_eq!(want.parenthesization(), got.parenthesization());
        assert_eq!(want.kernel_names(), got.kernel_names());
    }
}

#[test]
fn size_generic_emission_from_cached_plan() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let b = DimBindings::new().with("n", 10).with("k", 20).with("m", 30);
    let (sol, _) = cache.solve(chain, &b).unwrap();
    let code = emit_size_generic_rust(&sol.program(), chain);
    assert!(
        code.contains("pub fn compute(n: usize, k: usize, m: usize"),
        "{code}"
    );
    assert!(code.contains("A: n x k"), "{code}");
    assert!(code.contains("ops::gemm"), "{code}");
}

#[test]
fn render_problem_round_trips_through_plan() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let rendered = render_problem(&problem);
    assert_eq!(rendered, SYMBOLIC_MCP);
    // The re-parsed problem produces the same structure key, so plans
    // recorded for one serve the other.
    let reparsed = parse(&rendered).unwrap();
    let c1 = &problem.symbolic.as_ref().unwrap().chains[0].1;
    let c2 = &reparsed.symbolic.as_ref().unwrap().chains[0].1;
    assert_eq!(
        gmc_plan::structure_key(c1, InferenceMode::Compositional),
        gmc_plan::structure_key(c2, InferenceMode::Compositional)
    );
}

#[test]
fn deep_inference_plans_are_cached_independently() {
    let problem = parse("Matrix A (p, q)\nMatrix B (p, q)\nX := A^T * B * B^T * A\n").unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        for (p, q) in [(60, 4), (4, 60), (60, 4)] {
            let b = DimBindings::new().with("p", p).with("q", q);
            let want = optimizer.solve(&chain.bind(&b).unwrap()).unwrap();
            let (got, _) = cache.solve(chain, &b).unwrap();
            assert_eq!(want.cost().to_bits(), got.cost().to_bits(), "{mode:?}");
            assert_eq!(want.kernel_names(), got.kernel_names(), "{mode:?}");
        }
        assert_eq!(cache.stats().hits, 1, "{mode:?}");
    }
}
