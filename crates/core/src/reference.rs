//! The original collecting GMC solver, retained verbatim as a testing
//! oracle.
//!
//! [`solve_reference`] is the pre-optimization implementation of
//! [`GmcOptimizer::solve`](crate::GmcOptimizer::solve): per split
//! candidate it builds an owned `Expr::Times`, collects a `Vec` of
//! kernel matches, and re-derives metric costs inside the `min_by`
//! comparison. It is deliberately **not** refactored onto the DP
//! engine the optimizer and the plan cache share, it keeps its own
//! copies of the tie rules, and it matches kernels with a
//! [`DiscriminationNet`] over the kernels' patterns rather than the
//! registry's dispatch slots — equivalence tests (`tests/properties.rs`:
//! `solve_matches_naive_reference`, and
//! `symbolic_plan_matches_concrete_solve` for the plan cache) compare
//! against it on random chains, which only means something while this
//! one stays independent.

use crate::gmc::{GmcError, GmcSolution, InferenceMode, Step};
use crate::metric::{Cost, CostMetric};
use gmc_analysis::infer_properties;
use gmc_expr::{Chain, Expr, Operand, PropertySet};
use gmc_kernels::{KernelMatch, KernelRegistry};
use gmc_pattern::DiscriminationNet;

#[derive(Clone, Debug)]
struct ChosenKernel<C> {
    name: String,
    op: gmc_kernels::KernelOp,
    op_cost: C,
    properties: PropertySet,
}

/// Solves the GMCP with the original bottom-up implementation.
///
/// Selects the same parenthesization, kernels and costs as
/// [`GmcOptimizer::solve`](crate::GmcOptimizer::solve) configured with
/// the same registry, metric and inference mode.
///
/// # Errors
///
/// Returns [`GmcError::NotComputable`] under the same conditions as
/// [`GmcOptimizer::solve`](crate::GmcOptimizer::solve).
pub fn solve_reference<M: CostMetric>(
    registry: &KernelRegistry,
    metric: &M,
    inference: InferenceMode,
    chain: &Chain,
) -> Result<GmcSolution<M::Cost>, GmcError> {
    let n = chain.len();
    let mut net = DiscriminationNet::new();
    for (index, kernel) in registry.kernels().iter().enumerate() {
        net.insert(kernel.pattern().clone(), index);
    }
    // exprs[i][j]: the symbolic value representing M[i..=j]; leaves
    // are the factor expressions, interior entries temporaries.
    let mut exprs: Vec<Vec<Option<Expr>>> = vec![vec![None; n]; n];
    let mut costs: Vec<Vec<Option<M::Cost>>> = vec![vec![None; n]; n];
    let mut chosen: Vec<Vec<Option<ChosenKernel<M::Cost>>>> = vec![vec![None; n]; n];
    let mut splits: Vec<Vec<usize>> = vec![vec![0; n]; n];

    for i in 0..n {
        exprs[i][i] = Some(chain.factor(i).expr());
        costs[i][i] = Some(M::Cost::zero());
    }

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let mut best: Option<(M::Cost, usize, ChosenKernel<M::Cost>)> = None;
            for k in i..j {
                let (Some(cl), Some(cr)) = (costs[i][k].clone(), costs[k + 1][j].clone()) else {
                    continue;
                };
                let (Some(le), Some(re)) = (&exprs[i][k], &exprs[k + 1][j]) else {
                    continue;
                };
                let product = Expr::times([le.clone(), re.clone()]);
                let Some(m) = best_kernel(registry, &net, metric, &product) else {
                    continue;
                };
                let op_cost = metric.op_cost(&m.op);
                let total = cl.add(&cr).add(&op_cost);
                let better = match &best {
                    None => true,
                    Some((c, _, _)) => total < *c,
                };
                if better {
                    let properties = temp_properties(inference, chain, i, j, &product);
                    best = Some((
                        total,
                        k,
                        ChosenKernel {
                            name: m.kernel.name().to_owned(),
                            op: m.op,
                            op_cost,
                            properties,
                        },
                    ));
                }
            }
            if let Some((total, k, ck)) = best {
                let shape = ck.op.result_shape();
                let temp = Operand::temporary(format!("T{i}_{j}"), shape, ck.properties);
                exprs[i][j] = Some(temp.expr());
                costs[i][j] = Some(total);
                splits[i][j] = k;
                chosen[i][j] = Some(ck);
            }
        }
    }

    if costs[0][n - 1].is_none() {
        return Err(GmcError::NotComputable {
            chain: chain.to_string(),
        });
    }

    let mut steps = Vec::with_capacity(n - 1);
    construct_solution(0, n - 1, &splits, &chosen, &exprs, &mut steps);
    let total_cost = costs[0][n - 1].clone().expect("checked above");
    let total_flops = steps.iter().map(|s: &Step<M::Cost>| s.op.flops()).sum();
    let paren = parenthesization(chain, 0, n - 1, &splits);
    Ok(GmcSolution::from_parts(
        steps,
        total_cost,
        total_flops,
        paren,
    ))
}

/// The original collecting kernel selection: materialize all matches
/// (in registration order, as `net` reports them), then `min_by` with
/// the metric evaluated inside every comparison.
fn best_kernel<'r, M: CostMetric>(
    registry: &'r KernelRegistry,
    net: &DiscriminationNet<usize>,
    metric: &M,
    product: &Expr,
) -> Option<KernelMatch<'r>> {
    let matches = net.matches(product).into_iter().filter_map(|m| {
        let kernel = &registry.kernels()[*m.payload];
        kernel
            .constraints()
            .iter()
            .all(|c| c.check(&m.bindings))
            .then(|| KernelMatch {
                op: kernel.instantiate(&m.bindings),
                kernel,
            })
    });
    matches.min_by(|p, q| {
        let cp = metric.op_cost(&p.op);
        let cq = metric.op_cost(&q.op);
        cp.partial_cmp(&cq)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| q.kernel.specificity().cmp(&p.kernel.specificity()))
    })
}

fn temp_properties(
    inference: InferenceMode,
    chain: &Chain,
    i: usize,
    j: usize,
    product: &Expr,
) -> PropertySet {
    match inference {
        InferenceMode::Compositional => infer_properties(product),
        InferenceMode::Deep => {
            let unfolded = Expr::times((i..=j).map(|t| chain.factor(t).expr()).collect::<Vec<_>>());
            infer_properties(&unfolded)
        }
    }
}

fn construct_solution<C: Cost>(
    i: usize,
    j: usize,
    splits: &[Vec<usize>],
    chosen: &[Vec<Option<ChosenKernel<C>>>],
    exprs: &[Vec<Option<Expr>>],
    out: &mut Vec<Step<C>>,
) {
    if i == j {
        return;
    }
    let k = splits[i][j];
    construct_solution(i, k, splits, chosen, exprs, out);
    construct_solution(k + 1, j, splits, chosen, exprs, out);
    let ck = chosen[i][j]
        .as_ref()
        .expect("solution entries are complete");
    let dest = match exprs[i][j].as_ref().expect("solution entries are complete") {
        Expr::Symbol(op) => op.clone(),
        other => unreachable!("temporary must be a symbol, got {other}"),
    };
    out.push(Step {
        dest,
        op: ck.op.clone(),
        kernel: ck.name.clone(),
        cost: ck.op_cost.clone(),
    });
}

fn parenthesization(chain: &Chain, i: usize, j: usize, splits: &[Vec<usize>]) -> String {
    if i == j {
        return chain.factor(i).to_string();
    }
    let k = splits[i][j];
    format!(
        "({} {})",
        parenthesization(chain, i, k, splits),
        parenthesization(chain, k + 1, j, splits)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::FlopCount;
    use gmc_expr::Property;

    #[test]
    fn reference_reproduces_paper_table2() {
        let registry = KernelRegistry::blas_lapack();
        let a = Operand::square("A", 2000).with_property(Property::SymmetricPositiveDefinite);
        let b = Operand::matrix("B", 2000, 200);
        let c = Operand::square("C", 200).with_property(Property::LowerTriangular);
        let chain =
            Chain::from_expr(&(a.inverse() * b.expr() * c.transpose())).expect("valid chain");
        let sol = solve_reference(&registry, &FlopCount, InferenceMode::default(), &chain)
            .expect("computable");
        assert_eq!(sol.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
        assert_eq!(sol.parenthesization(), "(A^-1 (B C^T))");
    }
}
