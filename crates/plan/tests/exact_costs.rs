//! Edge cases of cost arithmetic on which the plan cache must still
//! match a cold concrete solve bit for bit: entry counts whose product
//! overflows `usize`, and exact polynomial ties between costs that
//! `f64` evaluates inexactly.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanOutcome};
use std::sync::Arc;

/// Serves `bindings` (all in one size region) in order, in both
/// inference modes, and checks every answer against a cold concrete
/// solve; the first request records the structure and the rest hit.
/// Returns the concrete costs of the compositional pass.
fn check_served(chain: &SymChain, bindings: &[DimBindings]) -> Vec<f64> {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let mut costs = Vec::new();
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
                costs.push(want.cost());
            }
        }
    }
    costs
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
    let costs = check_served(&chain, &[big.clone(), big]);
    assert_eq!(costs, [2f64.powi(65); 2]);
}

#[test]
fn exact_ties_of_inexact_costs_stay_deferred() {
    // Aᵀ Bᵀ C⁻ᵀ D⁻¹ over one size n: splitting after Aᵀ and splitting
    // before D⁻¹ both cost exactly 22/3·n³ (two GESVs and a GEMM), but
    // 2/3 is inexact in `f64`, and the two summation orders round apart
    // by an ulp at some sizes and not at others. Which split the
    // concrete optimizer keeps therefore depends on the size, so the
    // cell must be re-ranked at bind time, not resolved by the
    // earliest-split tie rule.
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
    check_served(&chain, &[at(3), at(1000), at(2), at(3)]);
    let cache = PlanCache::new(
        Arc::new(KernelRegistry::blas_lapack()),
        InferenceMode::Compositional,
    );
    cache.solve(&chain, &at(3)).expect("computable");
    let summary = cache.region_summary(&chain, &at(3)).expect("recorded");
    assert!(summary.deferred > 0, "{summary}");
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
