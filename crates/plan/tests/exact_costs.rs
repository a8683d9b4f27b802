//! Edge cases of cost arithmetic on which the plan cache must still
//! match a cold concrete solve bit for bit: entry counts whose product
//! overflows `usize`, and exact ties between costs with thirds, which
//! every path compares as the same exact integers, so a tie is a tie at
//! every size, up to the largest admitted dimension.

use gmc::{FlopCount, GmcOptimizer, GmcSolution, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp, MAX_DIM};
use gmc_kernels::{Flops, KernelRegistry};
use gmc_plan::{PlanCache, PlanOutcome};
use std::sync::Arc;

/// Serves `bindings` (all in one size region) in order, in both
/// inference modes, and checks every answer against a cold concrete
/// solve; the first request records the structure and the rest hit.
/// Returns the cold solutions of the compositional pass.
fn check_served(chain: &SymChain, bindings: &[DimBindings]) -> Vec<GmcSolution<Flops>> {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let mut solutions = Vec::new();
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        for (at, b) in bindings.iter().enumerate() {
            let concrete = chain.bind(b).expect("all variables bound");
            let want = optimizer.solve(&concrete).expect("computable");
            let (got, outcome) = cache.solve(chain, b).expect("computable");
            let expected = match at {
                0 => PlanOutcome::MissStructure,
                _ => PlanOutcome::Hit,
            };
            assert_eq!(outcome, expected);
            assert_eq!(
                got.cost().to_bits(),
                want.cost().to_bits(),
                "cost at {b} under {mode:?} ({outcome})"
            );
            assert_eq!(got.parenthesization(), want.parenthesization(), "at {b}");
            assert_eq!(got.kernel_names(), want.kernel_names(), "at {b}");
            if mode == InferenceMode::Compositional {
                solutions.push(want);
            }
        }
    }
    solutions
}

#[test]
fn diagonal_scalings_at_two_pow_32_cost_two_pow_65() {
    // D(n,n)<Diagonal> · B(n,m) · C(m,m)<Diagonal> at n = m = 2^32: each
    // diagonal scaling touches n·m = 2^64 entries, one more than
    // `usize::MAX`, so the chain costs exactly 2^65 FLOPs — concretely,
    // on the recording miss and on the hit — and a debug build must not
    // panic on the way.
    let (n, m) = (Dim::var("big_n"), Dim::var("big_m"));
    let diagonal = |name: &str, d: Dim| {
        SymFactor::plain(
            SymOperand::square(name, d)
                .with_property(Property::Diagonal)
                .expect("square"),
        )
    };
    let chain = SymChain::new(vec![
        diagonal("D", n),
        SymFactor::plain(SymOperand::new("B", n, m)),
        diagonal("C", m),
    ])
    .expect("dims line up");
    let big = DimBindings::new()
        .with("big_n", 1 << 32)
        .with("big_m", 1 << 32);
    let solutions = check_served(&chain, &[big.clone(), big]);
    let costs: Vec<f64> = solutions.iter().map(GmcSolution::cost).collect();
    assert_eq!(costs, [2f64.powi(65); 2]);
}

#[test]
fn exact_ties_of_thirds_go_to_the_earliest_split() {
    // Aᵀ Bᵀ C⁻ᵀ D⁻¹ over one size n: splitting after Aᵀ and splitting
    // before D⁻¹ both cost exactly 22/3·n³ (two GESVs and a GEMM).
    // Summed in `f64`, the two orders would round apart by an ulp at
    // some sizes; counted exactly, the costs tie at every size, so the
    // earliest split wins everywhere, served or solved cold, and the
    // recorder resolves the cell.
    let n = Dim::var("tie_n");
    let square = |name: &str| SymOperand::square(name, n);
    let chain = SymChain::new(vec![
        SymFactor::new(square("A"), UnaryOp::Transpose),
        SymFactor::new(square("B"), UnaryOp::Transpose),
        SymFactor::new(square("C"), UnaryOp::InverseTranspose),
        SymFactor::new(square("D"), UnaryOp::Inverse),
    ])
    .expect("dims line up");
    let at = |v| DimBindings::new().with("tie_n", v);
    let solutions = check_served(&chain, &[at(3), at(1000), at(2), at(3), at(MAX_DIM)]);
    for solution in &solutions {
        assert_eq!(
            solution.parenthesization(),
            "(A^T ((B^T C^-T) D^-1))",
            "{solution}"
        );
    }
    let cache = PlanCache::new(
        Arc::new(KernelRegistry::blas_lapack()),
        InferenceMode::Compositional,
    );
    cache.solve(&chain, &at(3)).expect("computable");
    let summary = cache.region_summary(&chain, &at(3)).expect("recorded");
    assert_eq!(summary.deferred, 0, "{summary}");
}

#[test]
fn exact_ties_of_exact_costs_still_resolve() {
    // A B C D over one size n: every split ties at 6n³ GEMM FLOPs, all
    // computed exactly in `f64`, so the earliest split wins everywhere
    // and every cell is resolved at record time.
    let n = Dim::var("dense_n");
    let chain = SymChain::new(
        ["A", "B", "C", "D"]
            .map(|name| SymFactor::plain(SymOperand::square(name, n)))
            .to_vec(),
    )
    .expect("dims line up");
    let at = |v| DimBindings::new().with("dense_n", v);
    check_served(&chain, &[at(3), at(1000), at(2)]);
    let cache = PlanCache::new(
        Arc::new(KernelRegistry::blas_lapack()),
        InferenceMode::Compositional,
    );
    cache.solve(&chain, &at(3)).expect("computable");
    let summary = cache.region_summary(&chain, &at(3)).expect("recorded");
    assert_eq!(summary.deferred, 0, "{summary}");
    assert_eq!(summary.resolved, 6, "{summary}");
}

#[test]
fn recorded_ties_serve_exact_optima_at_large_sizes() {
    // U U⁻¹ U U M Uᵀ U⁻¹ over n × n operands, U upper triangular and M
    // general: every parenthesization's cost is a multiple of n³, and
    // several tie at the optimum 6n³. Recorded at n = 40, the region
    // serves every larger n. At n = 3·2^26 + 5, 6n³ is not exact in
    // `f64`, so a solve comparing rounded sums would break the tie by
    // rounding, unlike the recorder's tie rule; counted exactly, both
    // keep the earliest split.
    let n = Dim::var("big_tie_n");
    let u = SymOperand::square("U", n)
        .with_property(Property::UpperTriangular)
        .expect("square");
    let m = SymOperand::square("M", n);
    let chain = SymChain::new(vec![
        SymFactor::plain(u.clone()),
        SymFactor::new(u.clone(), UnaryOp::Inverse),
        SymFactor::plain(u.clone()),
        SymFactor::plain(u.clone()),
        SymFactor::plain(m),
        SymFactor::new(u.clone(), UnaryOp::Transpose),
        SymFactor::new(u, UnaryOp::Inverse),
    ])
    .expect("dims line up");
    let sizes = [40, 3 * (1 << 26) + 5, (1 << 27) + 1, (1 << 28) - 3, MAX_DIM];
    let bindings: Vec<DimBindings> = sizes
        .iter()
        .map(|&v| DimBindings::new().with("big_tie_n", v))
        .collect();
    let solutions = check_served(&chain, &bindings);
    for (&size, solution) in sizes.iter().zip(&solutions) {
        let size = size as u128;
        let optimum = Flops::from_thirds(18 * size * size * size).to_f64();
        assert_eq!(solution.cost().to_bits(), optimum.to_bits(), "n = {size}");
        assert_eq!(solution.flops().to_bits(), optimum.to_bits(), "n = {size}");
        assert_eq!(
            solution.parenthesization(),
            "(U (U^-1 (U (U ((M U^T) U^-1)))))",
            "n = {size}"
        );
    }
    assert_eq!(solutions[1].cost(), 4.896149934230827e25);
}
