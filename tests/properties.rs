//! Property-based tests (proptest) for the core invariants:
//! normalization, property-inference soundness against numeric checks,
//! DP optimality, and registry completeness.

use gmc::mcp::{brute_force_flops, matrix_chain_order};
use gmc::{FlopCount, GmcOptimizer};
use gmc_analysis::infer_properties;
use gmc_baselines::{all_strategies, Strategy as BaselineStrategy};
use gmc_experiments::generator::{random_chain, GeneratorConfig};
use gmc_expr::{Chain, Expr, Factor, Operand, Property, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_linalg::{blas3, lapack, Matrix};
use gmc_runtime::materialize;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Square-operand strategy: a name, a size, and an optional property.
fn square_operand(n: usize) -> impl Strategy<Value = Operand> {
    (
        "[A-H]",
        prop::option::of(prop::sample::select(vec![
            Property::Diagonal,
            Property::LowerTriangular,
            Property::UpperTriangular,
            Property::Symmetric,
            Property::SymmetricPositiveDefinite,
            Property::Identity,
        ])),
        0u64..1_000_000,
    )
        .prop_map(move |(name, prop, uniq)| {
            // Unique names avoid accidental non-linear aliasing between
            // distinct random matrices.
            let op = Operand::square(format!("{name}{uniq}"), n);
            match prop {
                Some(p) => op.with_property(p),
                None => op,
            }
        })
}

/// A random square expression over `n×n` operands: products, sums and
/// unary operators, depth-bounded.
fn square_expr(n: usize) -> impl Strategy<Value = Expr> {
    let leaf = square_operand(n).prop_map(|op| op.expr());
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            inner.clone().prop_map(Expr::transpose),
            inner.clone().prop_map(Expr::inverse),
            inner.prop_map(Expr::inverse_transpose),
        ]
    })
}

/// Numerically evaluates an all-square expression.
fn eval(
    expr: &Expr,
    rng: &mut StdRng,
    cache: &mut std::collections::HashMap<String, Matrix>,
) -> Option<Matrix> {
    match expr {
        Expr::Symbol(op) => Some(
            cache
                .entry(op.name().to_owned())
                .or_insert_with(|| materialize(op, rng))
                .clone(),
        ),
        Expr::Times(fs) => {
            let mut acc: Option<Matrix> = None;
            for f in fs {
                let v = eval(f, rng, cache)?;
                acc = Some(match acc {
                    None => v,
                    Some(p) => blas3::gemm(1.0, &p, false, &v, false),
                });
            }
            acc
        }
        Expr::Plus(ts) => {
            let mut acc: Option<Matrix> = None;
            for t in ts {
                let v = eval(t, rng, cache)?;
                acc = Some(match acc {
                    None => v,
                    Some(p) => {
                        let mut s = p.clone();
                        for (o, x) in s.as_mut_slice().iter_mut().zip(v.as_slice()) {
                            *o += x;
                        }
                        s
                    }
                });
            }
            acc
        }
        Expr::Transpose(e) => Some(eval(e, rng, cache)?.transposed()),
        Expr::Inverse(e) => lapack::getri(&eval(e, rng, cache)?).ok(),
        Expr::InverseTranspose(e) => Some(lapack::getri(&eval(e, rng, cache)?).ok()?.transposed()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Normalization is idempotent and preserves the shape.
    #[test]
    fn normalization_idempotent_and_shape_preserving(expr in square_expr(4)) {
        let n1 = expr.normalized().expect("square exprs are well-formed");
        let n2 = n1.normalized().expect("normal form is well-formed");
        prop_assert_eq!(&n1, &n2);
        prop_assert_eq!(expr.shape().unwrap(), n1.shape().unwrap());
    }

    /// Normalization preserves the *value* of the expression.
    #[test]
    fn normalization_preserves_value(expr in square_expr(4), seed in 0u64..1000) {
        let normalized = expr.normalized().expect("well-formed");
        let mut cache = std::collections::HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let v1 = eval(&expr, &mut rng, &mut cache);
        let v2 = eval(&normalized, &mut rng, &mut cache);
        if let (Some(v1), Some(v2)) = (v1, v2) {
            prop_assert!(
                v1.approx_eq(&v2, 1e-5),
                "normalization changed the value: max diff {}",
                v1.max_abs_diff(&v2)
            );
        }
    }

    /// Everything the inference engine claims is numerically true.
    #[test]
    fn inference_is_sound(expr in square_expr(5), seed in 0u64..1000) {
        let props = infer_properties(&expr);
        let mut cache = std::collections::HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(value) = eval(&expr, &mut rng, &mut cache) {
            let tol = 1e-5 * (1.0 + value.frobenius_norm());
            if props.contains(Property::LowerTriangular) {
                prop_assert!(value.is_lower_triangular(tol), "not lower triangular");
            }
            if props.contains(Property::UpperTriangular) {
                prop_assert!(value.is_upper_triangular(tol), "not upper triangular");
            }
            if props.contains(Property::Diagonal) {
                prop_assert!(value.is_diagonal(tol), "not diagonal");
            }
            if props.contains(Property::Symmetric) {
                prop_assert!(value.is_symmetric(tol), "not symmetric");
            }
            if props.contains(Property::SymmetricPositiveDefinite) {
                let mut chol = value.clone();
                // Regularize the tolerance: Cholesky of a numerically
                // near-singular SPD product can fail; only flag clear
                // violations (indefinite leading minors).
                if lapack::potrf(&mut chol).is_err() {
                    let sym = value.is_symmetric(tol);
                    prop_assert!(sym, "claimed SPD but not even symmetric");
                }
            }
            if props.contains(Property::Identity) {
                prop_assert!(
                    value.approx_eq(&Matrix::identity(value.rows()), 1e-6),
                    "not the identity"
                );
            }
        }
    }

    /// The classic MCP DP matches brute-force enumeration.
    #[test]
    fn mcp_dp_is_optimal(sizes in prop::collection::vec(1usize..60, 3..9)) {
        let dp = matrix_chain_order(&sizes);
        let bf = brute_force_flops(&sizes);
        prop_assert_eq!(dp.flops(), bf);
    }

    /// Registry completeness: *every* binary product of two unary-op
    /// factors matches at least one kernel in the full registry — the
    /// paper's assumption that `K` makes all chains computable.
    #[test]
    fn registry_is_complete_for_binary_products(
        left_op in prop::sample::select(vec![
            UnaryOp::None, UnaryOp::Transpose, UnaryOp::Inverse, UnaryOp::InverseTranspose
        ]),
        right_op in prop::sample::select(vec![
            UnaryOp::None, UnaryOp::Transpose, UnaryOp::Inverse, UnaryOp::InverseTranspose
        ]),
        lp in prop::option::of(prop::sample::select(vec![
            Property::Diagonal, Property::LowerTriangular, Property::UpperTriangular,
            Property::Symmetric, Property::SymmetricPositiveDefinite,
        ])),
        rp in prop::option::of(prop::sample::select(vec![
            Property::Diagonal, Property::LowerTriangular, Property::UpperTriangular,
            Property::Symmetric, Property::SymmetricPositiveDefinite,
        ])),
    ) {
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let mut a = Operand::square("A", 8);
        if let Some(p) = lp { a = a.with_property(p); }
        let mut b = Operand::square("B", 8);
        if let Some(p) = rp { b = b.with_property(p); }
        let left = Factor::new(a, left_op);
        let right = Factor::new(b, right_op);
        let product = Expr::times([left.expr(), right.expr()]);
        let matches = registry.match_expr(&product);
        prop_assert!(
            !matches.is_empty(),
            "no kernel matches {product}"
        );
    }

    /// PropertySet closure is insertion-order independent.
    #[test]
    fn property_set_order_independent(
        props in prop::collection::vec(
            prop::sample::select(vec![
                Property::Diagonal, Property::LowerTriangular, Property::UpperTriangular,
                Property::Symmetric, Property::SymmetricPositiveDefinite,
                Property::Identity, Property::Zero, Property::Orthogonal,
                Property::Permutation, Property::UnitDiagonal, Property::FullRank,
            ]),
            0..6
        ),
        shuffle_seed in 0u64..100,
    ) {
        use gmc_expr::PropertySet;
        let forward: PropertySet = props.iter().copied().collect();
        let mut shuffled = props.clone();
        // Simple deterministic shuffle.
        let mut s = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward: PropertySet = shuffled.into_iter().collect();
        prop_assert_eq!(forward, backward);
    }

    /// GMC never loses to any of the nine baseline strategies: on a
    /// random generalized chain (paper generator protocol), the
    /// optimizer's FLOP count is a lower bound on every baseline
    /// program's FLOP count, since all ten compile to the same kernel
    /// vocabulary and GMC minimizes over all parenthesizations.
    #[test]
    fn gmc_cost_is_a_lower_bound_on_all_baselines(seed in 0u64..1_000_000) {
        let config = GeneratorConfig::measured_scale();
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = random_chain(&config, &mut rng);
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let gmc = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .expect("the full registry makes every generated chain computable");
        for strategy in all_strategies() {
            let program = strategy.compile(&chain);
            prop_assert!(
                gmc.flops() <= program.flops() * (1.0 + 1e-12),
                "GMC ({} flops) lost to {} ({} flops) on {chain}",
                gmc.flops(),
                strategy.label(),
                program.flops()
            );
        }
    }

    /// The allocation-free solver is bit-identical to the retained
    /// naive reference implementation (`gmc::reference`): same cost,
    /// same parenthesization, same kernel sequence — in both inference
    /// modes.
    #[test]
    fn solve_matches_naive_reference(seed in 0u64..1_000_000) {
        use gmc::{GmcWorkspace, InferenceMode};
        use gmc::reference::solve_reference;
        let config = GeneratorConfig::measured_scale();
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = random_chain(&config, &mut rng);
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let mut ws = GmcWorkspace::new();
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let reference = solve_reference(&registry, &FlopCount, mode, &chain)
                .expect("full registry computes all chains");
            let fast = optimizer.solve_with(&chain, &mut ws)
                .expect("full registry computes all chains");
            prop_assert_eq!(fast.cost(), reference.cost(), "cost diverged ({:?}) on {}", mode, &chain);
            prop_assert_eq!(
                fast.parenthesization(),
                reference.parenthesization(),
                "parenthesization diverged ({:?}) on {}", mode, &chain
            );
            prop_assert_eq!(fast.kernel_names(), reference.kernel_names());
        }
    }

    /// On a classic chain — all operands dense, unstructured and
    /// un-operated — GMC degenerates exactly to the textbook MCP DP:
    /// both find the same minimal FLOP count (GEMM at `2mnk` matches
    /// the MCP cost convention, and the sums are integer-exact in f64).
    #[test]
    fn gmc_equals_mcp_on_dense_chains(sizes in prop::collection::vec(2usize..40, 4..10)) {
        let mcp = matrix_chain_order(&sizes);
        let factors: Vec<Factor> = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Factor::plain(Operand::matrix(format!("M{i}"), w[0], w[1])))
            .collect();
        let chain = Chain::new(factors).expect("dense factors form a valid chain");
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let gmc = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .expect("dense chains are computable");
        prop_assert_eq!(gmc.flops(), mcp.flops());
    }
}

/// A random symbolic chain for the plan-cache equivalence property:
/// boundary dimensions mix constants (including 1, producing vector
/// and outer-product sub-problems) with variables drawn from a small
/// pool (so variables repeat and structurally square factors arise),
/// factors randomly carry transposes, inverses and properties. A square
/// factor sometimes reuses an earlier square operand of the same
/// dimension under any unary operator; such aliasing makes some
/// temporaries' properties split-dependent, which is what drives cells
/// to `Dynamic` under compositional inference.
fn random_symbolic_chain(rng: &mut StdRng) -> gmc_expr::SymChain {
    use gmc_expr::{Dim, SymChain, SymFactor, SymOperand};
    use rand::Rng;
    let n = rng.gen_range(2..=8usize);
    let pool = ["sp_a", "sp_b", "sp_c"];
    let mut dims: Vec<Dim> = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let d = if i > 0 && rng.gen_bool(0.6) {
            dims[i - 1]
        } else if rng.gen_bool(0.35) {
            if rng.gen_bool(0.2) {
                Dim::Const(1)
            } else {
                Dim::Const(rng.gen_range(2..=6usize) * 10)
            }
        } else {
            Dim::var(pool[rng.gen_range(0..pool.len())])
        };
        dims.push(d);
    }
    let mut squares: Vec<SymOperand> = Vec::new();
    let factors: Vec<SymFactor> = (0..n)
        .map(|i| {
            let (r, c) = (dims[i], dims[i + 1]);
            let square = r == c;
            if square && rng.gen_bool(0.8) {
                let same_dim: Vec<&SymOperand> =
                    squares.iter().filter(|o| o.shape().rows() == r).collect();
                if !same_dim.is_empty() {
                    let op = same_dim[rng.gen_range(0..same_dim.len())].clone();
                    let unary = [
                        UnaryOp::None,
                        UnaryOp::Transpose,
                        UnaryOp::Inverse,
                        UnaryOp::InverseTranspose,
                    ][rng.gen_range(0..4usize)];
                    return SymFactor::new(op, unary);
                }
            }
            let transposed = rng.gen_bool(0.25);
            let (or, oc) = if transposed { (c, r) } else { (r, c) };
            let mut op = SymOperand::new(format!("M{i}"), or, oc);
            if square && rng.gen_bool(0.6) {
                let p = [
                    Property::Diagonal,
                    Property::LowerTriangular,
                    Property::UpperTriangular,
                    Property::Symmetric,
                    Property::SymmetricPositiveDefinite,
                ][rng.gen_range(0..5usize)];
                op = op.with_property(p).expect("structurally square");
            }
            if square {
                squares.push(op.clone());
            }
            let unary = if square && rng.gen_bool(0.3) {
                if transposed {
                    [UnaryOp::InverseTranspose, UnaryOp::Transpose][rng.gen_range(0..2usize)]
                } else {
                    [UnaryOp::Inverse, UnaryOp::None][rng.gen_range(0..2usize)]
                }
            } else if transposed {
                UnaryOp::Transpose
            } else {
                UnaryOp::None
            };
            SymFactor::new(op, unary)
        })
        .collect();
    SymChain::new(factors).expect("dims line up by construction")
}

proptest! {
    /// For random chains with symbolic dimensions, binding the
    /// variables and serving the chain through the plan cache is
    /// bit-identical — cost, parenthesization, kernel sequence — to a
    /// from-scratch concrete solve and to the independent
    /// `gmc::reference` solver, in both inference modes, across several
    /// bindings (different size regions included). The second pass is
    /// served by a fresh cache loaded from the first cache's plan
    /// store: every answer there must be a hit and bit-identical.
    #[test]
    fn symbolic_plan_matches_concrete_solve(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc::reference::solve_reference;
        use gmc_expr::DimBindings;
        use gmc_plan::{PlanCache, PlanOutcome};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eb011c);
        let chain = random_symbolic_chain(&mut rng);
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let sizes = [1usize, 2, 3, 7, 10, 40, 100];
        let bindings_list: Vec<DimBindings> = (0..3)
            .map(|_| {
                let mut b = DimBindings::new();
                for v in chain.vars() {
                    b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
                }
                b
            })
            .collect();
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let recorder = PlanCache::new(registry.clone(), mode);
            let loaded = PlanCache::new(registry.clone(), mode);
            for pass in 0..2 {
                let cache = if pass == 0 {
                    &recorder
                } else {
                    loaded
                        .load_snapshot_json(&recorder.snapshot_json())
                        .expect("a genuine plan store loads");
                    &loaded
                };
                for bindings in &bindings_list {
                    let concrete = chain.bind(bindings).expect("all variables bound");
                    let want = optimizer.solve(&concrete);
                    let oracle = solve_reference(&registry, &FlopCount, mode, &concrete);
                    match (want, oracle, cache.solve(&chain, bindings)) {
                        (Ok(want), Ok(oracle), Ok((got, outcome))) => {
                            for (label, want) in [("concrete", &want), ("reference", &oracle)] {
                                prop_assert_eq!(
                                    want.cost().to_bits(), got.cost().to_bits(),
                                    "cost diverged from the {} solve ({:?}, {}) on {}",
                                    label, mode, outcome, &concrete
                                );
                                prop_assert_eq!(
                                    want.parenthesization(), got.parenthesization(),
                                    "parenthesization diverged from the {} solve ({:?}) on {}",
                                    label, mode, &concrete
                                );
                                prop_assert_eq!(want.kernel_names(), got.kernel_names());
                            }
                            prop_assert_eq!(want.flops(), got.flops());
                            if pass == 1 {
                                prop_assert_eq!(outcome, PlanOutcome::Hit);
                            }
                        }
                        (Err(_), Err(_), Err(_)) => {}
                        (want, oracle, got) => prop_assert!(
                            false,
                            "solvability diverged ({:?}) on {}: {:?} / {:?} vs {:?}",
                            mode, &concrete,
                            want.map(|s| s.cost()),
                            oracle.map(|s| s.cost()),
                            got.map(|(s, o)| (s.cost(), o))
                        ),
                    }
                }
            }
            // Unsolvable answers carry no outcome: count them through
            // the loaded cache's counters instead.
            let served = loaded.stats();
            prop_assert_eq!(served.hits, bindings_list.len() as u64);
            prop_assert_eq!(served.requests(), served.hits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// ISSUE 5 acceptance: under multi-threaded mixed hit/miss traffic
    /// against one shared `PlanCache`, every response is bit-identical
    /// — cost, parenthesization, kernel sequence — to a from-scratch
    /// `GmcOptimizer::solve` of the bound chain, in both inference
    /// modes. Threads deliberately overlap on bindings (hits and
    /// racing misses) and also carry thread-private bindings (misses
    /// recorded while other threads are reading).
    #[test]
    fn concurrent_plan_cache_matches_concrete_solve(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_expr::DimBindings;
        use gmc_plan::PlanCache;
        use rand::Rng;
        use std::sync::Arc;
        const THREADS: usize = 6;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0C0);
        let chains: Vec<gmc_expr::SymChain> =
            (0..3).map(|_| random_symbolic_chain(&mut rng)).collect();
        let sizes = [1usize, 2, 3, 7, 10, 40, 100];
        let binding_for = |chain: &gmc_expr::SymChain, rng: &mut StdRng| {
            let mut b = DimBindings::new();
            for v in chain.vars() {
                b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
            }
            b
        };
        // Shared bindings every thread replays (hit + racing-miss
        // traffic) plus a few per-thread-only ones (pure misses).
        let shared: Vec<(usize, DimBindings)> = (0..6)
            .map(|i| {
                let ci = i % chains.len();
                (ci, binding_for(&chains[ci], &mut rng))
            })
            .collect();
        let private: Vec<Vec<(usize, DimBindings)>> = (0..THREADS)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let ci = rng.gen_range(0..chains.len());
                        (ci, binding_for(&chains[ci], &mut rng))
                    })
                    .collect()
            })
            .collect();

        let registry = Arc::new(KernelRegistry::blas_lapack());
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let cache = PlanCache::new(registry.clone(), mode);
            std::thread::scope(|scope| {
                for (t, mine) in private.iter().enumerate() {
                    let cache = &cache;
                    let chains = &chains;
                    let shared = &shared;
                    let optimizer = &optimizer;
                    scope.spawn(move || {
                        let mut order: Vec<&(usize, DimBindings)> =
                            shared.iter().chain(mine.iter()).collect();
                        // Stagger thread schedules so hits and misses
                        // interleave differently per thread.
                        let shift = t % order.len();
                        order.rotate_left(shift);
                        for pass in 0..2 {
                            for (ci, b) in &order {
                                let concrete = chains[*ci].bind(b).expect("bound");
                                let reference = optimizer.solve(&concrete);
                                match (reference, cache.solve(&chains[*ci], b)) {
                                    (Ok(want), Ok((got, _))) => {
                                        assert_eq!(
                                            want.cost().to_bits(),
                                            got.cost().to_bits(),
                                            "cost diverged ({mode:?}, pass {pass}) on {concrete}"
                                        );
                                        assert_eq!(
                                            want.parenthesization(),
                                            got.parenthesization(),
                                            "paren diverged ({mode:?}) on {concrete}"
                                        );
                                        assert_eq!(want.kernel_names(), got.kernel_names());
                                        assert_eq!(want.flops(), got.flops());
                                    }
                                    (Err(_), Err(_)) => {}
                                    (want, got) => panic!(
                                        "solvability diverged ({mode:?}) on {concrete}: {:?} vs {:?}",
                                        want.map(|s| s.cost()),
                                        got.map(|(s, o)| (s.cost(), o))
                                    ),
                                }
                            }
                        }
                    });
                }
            });
            // Accounting: every request was counted, and each recorded
            // region was recorded exactly once.
            let stats = cache.stats();
            prop_assert_eq!(
                stats.requests(),
                (THREADS * 2 * (shared.len() + 3)) as u64
            );
        }
    }
}
