//! Region plans: the symbolic solve (recording) and the bind-time
//! instantiation that replays it at concrete sizes.
//!
//! # How equivalence with the concrete optimizer is guaranteed
//!
//! Both the recorder and the instantiation run the concrete optimizer's
//! own DP engine, [`gmc::CellGrid`]: the same table, the same
//! within-split rule ([`gmc_kernels::Rank::beats`]), the same
//! across-split rule ([`gmc::CellGrid::best_split`]), the same property
//! inference and the same solution extraction. This module only adds
//! the symbolic work: which candidates a cell has, and which of them can
//! win where.
//!
//! Within one size region (see [`crate::key`]) the concrete optimizer's
//! *structural* behaviour is invariant: which kernels match each
//! sub-product, which property sets the temporaries carry, which splits
//! are computable. Only the numeric cost values change with the
//! binding. The recorder therefore runs the DP once per region,
//! capturing per cell the full candidate set `(split, kernel, FLOP
//! polynomial)` and logging every shape question the DP's structure
//! depends on, which become the region's key; instantiation re-ranks
//! those candidates under the engine's rules by their polynomials
//! evaluated in thirds, which are exactly the
//! [`flop_count`](gmc_kernels::KernelOp::flop_count)s the concrete
//! optimizer compares, so the result is bit-identical to a from-scratch
//! concrete solve.
//!
//! On top of that, cells are classified:
//!
//! * **Resolved** — one candidate's cost *polynomial* dominates every
//!   alternative on the positive orthant (with ties broken the same way
//!   the optimizer breaks them), so the decision is binding-independent
//!   and instantiation skips the candidate scan entirely. Costs are
//!   exact on both sides, so a polynomial tie is a tie at every
//!   binding, and the tie rule decides it.
//! * **Deferred** — polynomially ambiguous; candidates are re-ranked
//!   numerically at bind time.
//! * **Dynamic** — a descendant's property set is split-dependent
//!   (possible under compositional inference), so the cached candidate
//!   set cannot be trusted; the cell is re-matched live at bind time.

use crate::key::{QuestionLog, RegionKey};
use gmc::{CellGrid, GmcError, GmcSolution, GmcWorkspace, InferenceMode, Winner};
use gmc_analysis::infer_view_product_logged;
use gmc_expr::{
    Chain, CostPoly, Dim, DimVar, FactorView, OperandId, OperandView, PropertySet, Shape, SymChain,
    SymShape,
};
use gmc_kernels::{Flops, KernelOp, KernelRegistry, LeafBindings, Rank, Wiring};
use gmc_pattern::Var;
use std::fmt;

const X: Var = Var::new(0);
const Y: Var = Var::new(1);

/// One cached kernel candidate of a DP cell.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) k: usize,
    pub(crate) kernel_idx: usize,
    pub(crate) specificity: u8,
    pub(crate) op_poly: CostPoly,
    pub(crate) total_poly: Option<CostPoly>,
    pub(crate) var_binds: Vec<(Var, OperandId)>,
}

impl Candidate {
    fn rank<C>(&self, cost: C) -> Rank<C> {
        Rank {
            cost,
            specificity: self.specificity,
            index: self.kernel_idx,
        }
    }

    /// The candidate's operation cost with each variable at `size`: its
    /// polynomial in thirds, which is exactly the concrete operation's
    /// [`flop_count`](KernelOp::flop_count).
    fn op_cost(&self, size: impl Fn(DimVar) -> Option<usize>) -> Flops {
        let thirds = self
            .op_poly
            .eval_thirds(size)
            .expect("plan polynomials are representable and bound at admitted sizes");
        Flops::from_thirds(u128::try_from(thirds).expect("FLOP counts are non-negative"))
    }

    /// How the candidate's kernel binds the split's `left` and `right`
    /// sides: `?0` binds the side its recorded reference names (the
    /// left one if both are the same operand).
    fn wiring(&self, left: &FactorView) -> Wiring {
        let bound = |v: Var| {
            self.var_binds
                .iter()
                .find(|(w, _)| *w == v)
                .map(|(_, r)| *r)
        };
        match (bound(X), bound(Y)) {
            (_, None) => Wiring::Same,
            (x, Some(_)) if x == Some(left.operand.id) => Wiring::LeftRight,
            _ => Wiring::RightLeft,
        }
    }

    /// The decision to compute the split with this candidate at
    /// `op_cost`, and the shape of its result, given the split's sides.
    fn decision(
        &self,
        registry: &KernelRegistry,
        left: &FactorView,
        right: &FactorView,
        op_cost: Flops,
    ) -> (Winner<Flops>, Shape) {
        let wiring = self.wiring(left);
        let op = registry.kernels()[self.kernel_idx].op(wiring.bind(left.operand, right.operand));
        let winner = Winner {
            split: self.k,
            kernel: self.kernel_idx,
            wiring,
            op_cost,
        };
        (winner, op.result_shape())
    }
}

/// How a deferred cell's temporary gets its property set at bind time.
///
/// Within one size region the child expressions of every candidate
/// split are invariant (a deferred cell has no unstable descendant —
/// those would have made it [`CellPlan::Dynamic`]), so the inference
/// result per split is region-invariant and recorded once; the old
/// implementation re-ran winner-only property inference on every cache
/// hit instead.
#[derive(Clone, Debug)]
pub(crate) enum DeferredProps {
    /// Every candidate split infers the same property set.
    Stable(PropertySet),
    /// Property set by candidate split `k` (compositional inference
    /// with split-dependent winner properties).
    PerSplit(Vec<(usize, PropertySet)>),
}

impl DeferredProps {
    fn for_split(&self, k: usize) -> PropertySet {
        match self {
            DeferredProps::Stable(p) => *p,
            DeferredProps::PerSplit(by_split) => {
                by_split
                    .iter()
                    .find(|(split, _)| *split == k)
                    .expect("winner split is a recorded candidate split")
                    .1
            }
        }
    }
}

/// The cached decision state of one DP cell.
#[derive(Clone, Debug)]
pub(crate) enum CellPlan {
    /// Diagonal cell (a chain factor).
    Leaf,
    /// No split of this sub-chain is kernel-computable (invariant
    /// within the region).
    Unsolvable,
    /// The winning split and kernel are binding-independent.
    Resolved {
        cand: Box<Candidate>,
        props: PropertySet,
    },
    /// Candidates are re-ranked numerically at bind time; the
    /// temporary's properties come from the recorded per-split results.
    Deferred {
        cands: Vec<Candidate>,
        props: DeferredProps,
    },
    /// Re-matched live at bind time (split-dependent descendant
    /// properties under compositional inference).
    Dynamic,
}

/// A recorded plan for one size region of one chain structure.
#[derive(Debug)]
pub(crate) struct RegionPlan {
    /// The bindings the plan serves: the shape questions its recording
    /// consulted, with their answers.
    pub(crate) key: RegionKey,
    pub(crate) n: usize,
    pub(crate) cells: Vec<CellPlan>,
    /// The *recording* chain's distinct dimension variables in
    /// first-occurrence order, the variables of its cost polynomials.
    pub(crate) vars: Vec<DimVar>,
    /// The boundary position where each of `vars` first occurs. A
    /// structure key fixes the variable pattern over the boundary, so
    /// at these positions every chain of the structure, a renamed twin
    /// included, holds its own sizes for `vars`.
    pub(crate) at: Vec<usize>,
    /// The recording binding: the size each of `vars` was bound to. The
    /// plan store keeps only this, and re-records the region from it.
    pub(crate) values: Vec<usize>,
}

/// Cell classification counts of a recorded region plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Interior cells whose decision is fully symbolic.
    pub resolved: usize,
    /// Interior cells decided numerically at bind time.
    pub deferred: usize,
    /// Interior cells re-matched live at bind time.
    pub dynamic: usize,
    /// Interior cells with no computable split.
    pub unsolvable: usize,
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} resolved, {} deferred, {} dynamic, {} unsolvable",
            self.resolved, self.deferred, self.dynamic, self.unsolvable
        )
    }
}

impl RegionPlan {
    /// Classification counts over the interior (non-diagonal) cells.
    pub(crate) fn summary(&self) -> PlanSummary {
        let mut s = PlanSummary::default();
        for c in &self.cells {
            match c {
                CellPlan::Leaf => {}
                CellPlan::Unsolvable => s.unsolvable += 1,
                CellPlan::Resolved { .. } => s.resolved += 1,
                CellPlan::Deferred { .. } => s.deferred += 1,
                CellPlan::Dynamic => s.dynamic += 1,
            }
        }
        s
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        cell_index(self.n, i, j)
    }

    /// The size of the recorded variable `v` in the bound chain whose
    /// boundary dimensions are `sizes`.
    fn size(&self, sizes: &[usize], v: DimVar) -> Option<usize> {
        let slot = self.vars.iter().position(|&w| w == v)?;
        Some(sizes[self.at[slot]])
    }
}

#[inline]
pub(crate) fn cell_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < n);
    i * (2 * n - i + 1) / 2 + (j - i)
}

/// The properties of the temporary for `M[i..=j]` computed by the split
/// at `k`, as [`CellGrid::temp_properties`] infers them, logging the
/// shape questions they depend on: those compositional inference asks of
/// the split's two sides, or, under deep inference, every comparison in
/// the sub-chain's range; and the temporary's squareness if its
/// properties depend on it.
fn logged_properties(
    grid: &CellGrid<Flops>,
    inference: InferenceMode,
    chain: &Chain,
    (i, k, j): (usize, usize, usize),
    log: &mut QuestionLog<'_>,
) -> PropertySet {
    let props = match inference {
        InferenceMode::Compositional => {
            let (left, right) = sides(grid, i, k, j);
            let spans = [(i, k + 1), (k + 1, j + 1)];
            infer_view_product_logged(&left, &right, |q, _| log.product(q, spans))
        }
        InferenceMode::Deep => {
            log.range(i, j + 1);
            grid.temp_properties(inference, chain, i, k, j)
        }
    };
    if props.depends_on_squareness() {
        log.eq(i, j + 1);
    }
    props
}

/// Records the region plan for `chain` (the concrete binding of `sym`)
/// and returns it together with the solve result.
pub(crate) fn record_region(
    registry: &KernelRegistry,
    inference: InferenceMode,
    sym: &SymChain,
    chain: &Chain,
    workspace: &mut GmcWorkspace<Flops>,
) -> (RegionPlan, Result<GmcSolution<Flops>, GmcError>) {
    let n = chain.len();
    let len = n * (n + 1) / 2;
    let dims = sym.dims();
    let mut log = QuestionLog::new(&dims);
    // A factor's properties hold more on a square binding (a `Zero`
    // operand is also `Diagonal`) only if its shape is not structurally
    // square.
    for (t, factor) in sym.factors().iter().enumerate() {
        if factor.operand().properties().depends_on_squareness() {
            log.eq(t, t + 1);
        }
    }
    let grid = &mut workspace.grid;
    grid.reset(chain);
    let mut plan_cells: Vec<CellPlan> = vec![CellPlan::Leaf; len];
    let mut total_polys: Vec<Option<CostPoly>> = vec![None; len];
    // Same-split candidates compete on their operation costs alone.
    let op_no_more = |a: &Candidate, b: &Candidate| a.op_poly.dominated_by(&b.op_poly);
    // At equal cost, would the within-split rule prefer `a` over `b`?
    let tie_favors = |a: &Candidate, b: &Candidate| a.rank(()).beats(&b.rank(()));
    let mut unstable: Vec<bool> = vec![false; len];

    // An operand's symbolic shape, for FLOP polynomials: a factor's
    // own, or, for the temporary of `M[i..=j]`, d[i] × d[j+1],
    // independent of how the sub-chain is parenthesized.
    let sym_shape = |v: &OperandView| match v.id {
        OperandId::Factor(t) => sym.factors()[t].operand().shape(),
        OperandId::Temp(i, j) => SymShape::new(dims[i], dims[j + 1]),
    };

    for i in 0..n {
        total_polys[cell_index(n, i, i)] = Some(CostPoly::zero());
    }

    struct RawCand {
        k: usize,
        rank: Rank<Flops>,
        wiring: Wiring,
        op: KernelOp<OperandView>,
        binds: LeafBindings<OperandId>,
    }
    let mut raw: Vec<RawCand> = Vec::new();

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let idx = cell_index(n, i, j);

            let dynamic =
                (i..j).any(|k| unstable[cell_index(n, i, k)] || unstable[cell_index(n, k + 1, j)]);

            // Enumerate every candidate of every computable split, and
            // pick the winner with the engine's rules on the way.
            raw.clear();
            let pick = grid.best_split(i, j, |k, left, right| {
                let start = raw.len();
                registry.for_each_match(left, right, |kernel_idx, kernel, wiring| {
                    let op = kernel.op(wiring.bind(left.operand, right.operand));
                    let rank = kernel.rank(kernel_idx, op.flop_count());
                    raw.push(RawCand {
                        k,
                        rank,
                        wiring,
                        op,
                        binds: wiring.bind(left.operand.id, right.operand.id),
                    });
                });
                let w = (start..raw.len()).reduce(|w, c| {
                    if raw[c].rank.beats(&raw[w].rank) {
                        c
                    } else {
                        w
                    }
                })?;
                Some((raw[w].rank.cost, w))
            });
            let Some((total, wk, wi)) = pick else {
                plan_cells[idx] = if dynamic {
                    CellPlan::Dynamic
                } else {
                    CellPlan::Unsolvable
                };
                unstable[idx] = dynamic;
                continue;
            };
            // A Dynamic cell is re-matched live at every binding, so
            // nothing it reads belongs in the region key.
            let props = if dynamic {
                grid.temp_properties(inference, chain, i, wk, j)
            } else {
                logged_properties(grid, inference, chain, (i, wk, j), &mut log)
            };
            let winner = &raw[wi];
            let decision = Winner {
                split: wk,
                kernel: winner.rank.index,
                wiring: winner.wiring,
                op_cost: winner.rank.cost,
            };
            grid.decide(i, j, total, decision, winner.op.result_shape(), props);

            if dynamic {
                plan_cells[idx] = CellPlan::Dynamic;
                unstable[idx] = true;
                continue;
            }

            // Lift candidates to symbolic form.
            let mut cands: Vec<Candidate> = raw
                .iter()
                .map(|c| {
                    let op_poly = c.op.flop_poly(sym_shape);
                    let total_poly = match (
                        &total_polys[cell_index(n, i, c.k)],
                        &total_polys[cell_index(n, c.k + 1, j)],
                    ) {
                        (Some(l), Some(r)) => Some(l.add(r).add(&op_poly)),
                        _ => None,
                    };
                    // Two slots, as many as a pattern binds: plans are
                    // retained, and a collected `Vec` would hold four.
                    let mut var_binds = Vec::with_capacity(2);
                    for v in [X, Y] {
                        if let Some(r) = c.binds.get(v) {
                            var_binds.push((v, r));
                        }
                    }
                    Candidate {
                        k: c.k,
                        kernel_idx: c.rank.index,
                        specificity: c.rank.specificity,
                        op_poly,
                        total_poly,
                        var_binds,
                    }
                })
                .collect();

            // Prune same-split candidates that are polynomially
            // dominated by a tie-favored sibling — they can never be
            // the within-split winner at any binding.
            let mut keep = vec![true; cands.len()];
            for b in 0..cands.len() {
                for a in 0..cands.len() {
                    if a == b || !keep[a] || cands[a].k != cands[b].k {
                        continue;
                    }
                    if op_no_more(&cands[a], &cands[b]) && tie_favors(&cands[a], &cands[b]) {
                        keep[b] = false;
                        break;
                    }
                }
            }
            let winner_key = (cands[wi].k, cands[wi].kernel_idx);
            let mut iter_keep = keep.iter();
            cands.retain(|_| *iter_keep.next().expect("keep mask aligned"));
            let w = cands
                .iter()
                .position(|c| (c.k, c.kernel_idx) == winner_key)
                .expect("winner survives pruning");

            // Symbolic resolution: the ρ-winner surely wins at every
            // binding in the region. Against same-split rivals the
            // op-cost polynomial decides (ties fall to the within-split
            // rule's specificity/registration order). Against other
            // splits the *total* polynomials decide: an earlier split
            // wins on non-strict dominance (the DP keeps the earliest
            // split on cost ties), a later split only on strict
            // dominance (its cost must beat the earlier split
            // everywhere).
            let winner = &cands[w];
            let winner_resolved = winner.total_poly.is_some()
                && cands.iter().enumerate().all(|(ci, c)| {
                    if ci == w {
                        return true;
                    }
                    if c.k == winner.k {
                        op_no_more(winner, c) && tie_favors(winner, c)
                    } else {
                        c.total_poly.as_ref().is_some_and(|ct| {
                            let wt = winner.total_poly.as_ref().expect("checked above");
                            if winner.k < c.k {
                                wt.dominated_by(ct)
                            } else {
                                wt.strictly_dominated_by(ct)
                            }
                        })
                    }
                });

            if winner_resolved {
                total_polys[idx] = cands[w].total_poly.clone();
                plan_cells[idx] = CellPlan::Resolved {
                    cand: Box::new(cands.swap_remove(w)),
                    props,
                };
                unstable[idx] = false;
                continue;
            }

            // Deferred: record the winner-only property inference per
            // candidate split. A deferred cell has no unstable
            // descendant, so each split's child expressions — and hence
            // its inferred property set — are region-invariant; bind
            // time only looks the winner's split up. The winner's split
            // reuses the set inferred above.
            let deferred_props = match inference {
                InferenceMode::Deep => DeferredProps::Stable(props),
                InferenceMode::Compositional => {
                    let mut splits: Vec<usize> = cands.iter().map(|c| c.k).collect();
                    splits.dedup();
                    let by_split: Vec<(usize, PropertySet)> = splits
                        .iter()
                        .map(|&k| {
                            if k == wk {
                                return (k, props);
                            }
                            (
                                k,
                                logged_properties(grid, inference, chain, (i, k, j), &mut log),
                            )
                        })
                        .collect();
                    if by_split.iter().all(|(_, p)| *p == props) {
                        DeferredProps::Stable(props)
                    } else {
                        DeferredProps::PerSplit(by_split)
                    }
                }
            };
            unstable[idx] = matches!(deferred_props, DeferredProps::PerSplit(_));
            plan_cells[idx] = CellPlan::Deferred {
                cands,
                props: deferred_props,
            };
        }
    }

    let solution = grid.solution(registry, chain);
    let sizes = chain.sizes();
    let vars = sym.vars();
    let at: Vec<usize> = vars
        .iter()
        .map(|&v| {
            let at = dims.iter().position(|&d| d == Dim::Var(v));
            at.expect("every chain variable is a boundary dimension")
        })
        .collect();
    (
        RegionPlan {
            key: log.key(&sizes),
            n,
            cells: plan_cells,
            vars,
            values: at.iter().map(|&a| sizes[a]).collect(),
            at,
        },
        solution,
    )
}

/// Replays a recorded region plan at a concrete binding.
///
/// `chain` must be a binding of a chain of the plan's structure, and
/// `sizes` its boundary dimensions `chain.sizes()`, which must give
/// every answer of the plan's key; the cache layer guarantees both.
/// Each cost polynomial is evaluated at `sizes`, by the boundary
/// position of each of its variables.
pub(crate) fn instantiate(
    registry: &KernelRegistry,
    inference: InferenceMode,
    region: &RegionPlan,
    chain: &Chain,
    sizes: &[usize],
    workspace: &mut GmcWorkspace<Flops>,
) -> Result<GmcSolution<Flops>, GmcError> {
    let n = region.n;
    debug_assert_eq!(n, chain.len());
    debug_assert_eq!(sizes.len(), n + 1);
    let size = |v| region.size(sizes, v);
    debug_assert_eq!(region.cells.len(), n * (n + 1) / 2);
    let grid = &mut workspace.grid;
    grid.reset(chain);

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            match &region.cells[region.index(i, j)] {
                CellPlan::Leaf => unreachable!("interior cell marked as leaf"),
                CellPlan::Unsolvable => {}
                CellPlan::Resolved { cand, props } => {
                    let op_cost = cand.op_cost(size);
                    let total = grid
                        .split_total(i, cand.k, j, &op_cost)
                        .expect("resolved children are computed");
                    let (left, right) = sides(grid, i, cand.k, j);
                    let (winner, shape) = cand.decision(registry, &left, &right, op_cost);
                    grid.decide(i, j, total, winner, shape, *props);
                }
                CellPlan::Deferred { cands, props } => {
                    // The recorder lists candidates split by split in
                    // ascending order, so one cursor walks them
                    // alongside the split scan.
                    let mut next = 0;
                    let (total, k, (op_cost, ci)) = grid
                        .best_split(i, j, |k, _, _| {
                            let mut best: Option<(Flops, usize)> = None;
                            while next < cands.len() && cands[next].k == k {
                                let cost = cands[next].op_cost(size);
                                if best.is_none_or(|(bc, bi)| {
                                    cands[next].rank(cost).beats(&cands[bi].rank(bc))
                                }) {
                                    best = Some((cost, next));
                                }
                                next += 1;
                            }
                            best.map(|(cost, ci)| (cost, (cost, ci)))
                        })
                        .expect("deferred cells have candidates");
                    let (left, right) = sides(grid, i, k, j);
                    let (winner, shape) = cands[ci].decision(registry, &left, &right, op_cost);
                    grid.decide(i, j, total, winner, shape, props.for_split(k));
                }
                CellPlan::Dynamic => {
                    if let Some((total, k, m)) =
                        grid.select_best_split(registry, i, j, KernelOp::flop_count)
                    {
                        let props = grid.temp_properties(inference, chain, i, k, j);
                        grid.decide(i, j, total, Winner::of(k, &m), m.op.result_shape(), props);
                    }
                }
            }
        }
    }

    grid.solution(registry, chain)
}

/// The views of the two computed sides of the split of `M[i..=j]` at
/// `k`.
fn sides(grid: &CellGrid<Flops>, i: usize, k: usize, j: usize) -> (FactorView, FactorView) {
    let side = |a, b| {
        *grid
            .view(a, b)
            .expect("a decided cell's sides are computed")
    };
    (side(i, k), side(k + 1, j))
}

#[cfg(test)]
mod tests {
    //! Pins the recorder's output: a fixed, seeded set of symbolic
    //! chains is recorded in both inference modes, and the summed cell
    //! classification and a digest of every recorded region (its key,
    //! cells with their candidates, and variables) must equal the
    //! recorded constants. A change to what the recorder decides shows
    //! up here; one made on purpose updates the constants. Cost
    //! polynomials render by variable name, so the digest does not
    //! depend on the order in which tests intern variables. The regions
    //! also go through the plan store, whose loader must re-record each
    //! of them exactly.

    use super::*;
    use crate::PlanCache;
    use gmc_expr::{DimBindings, Property, SymFactor, SymOperand, UnaryOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    /// FNV-1a, 64-bit.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// `U Pᵀ Dᵀ Dᵀ S⁻ᵀ` over `n × n` operands (U upper triangular, P
    /// SPD, D diagonal, S symmetric): the aliased diagonal factor makes
    /// a deferred cell's temporary split-dependent, so compositional
    /// inference leaves a Dynamic cell above it.
    fn aliased_chain() -> SymChain {
        let n = Dim::var("rp_n");
        let square = |name, property| SymOperand::square(name, n).with_property(property).unwrap();
        let d = square("D", Property::Diagonal);
        SymChain::new(vec![
            SymFactor::plain(square("U", Property::UpperTriangular)),
            SymFactor::new(
                square("P", Property::SymmetricPositiveDefinite),
                UnaryOp::Transpose,
            ),
            SymFactor::new(d.clone(), UnaryOp::Transpose),
            SymFactor::new(d, UnaryOp::Transpose),
            SymFactor::new(square("S", Property::Symmetric), UnaryOp::InverseTranspose),
        ])
        .unwrap()
    }

    /// A random symbolic chain: constant and variable boundary dimensions,
    /// transposes, inverses and properties, and square factors that
    /// sometimes reuse an earlier square operand of the same dimension.
    fn random_chain(rng: &mut StdRng) -> SymChain {
        if rng.gen_bool(0.5) {
            return random_square_chain(rng);
        }
        let n = rng.gen_range(2..=7usize);
        let pool = ["rp_a", "rp_b", "rp_c"];
        let dims: Vec<Dim> = (0..=n)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    Dim::Const(if rng.gen_bool(0.2) {
                        1
                    } else {
                        rng.gen_range(2..=6usize) * 10
                    })
                } else {
                    Dim::var(pool[rng.gen_range(0..pool.len())])
                }
            })
            .collect();
        let mut squares: Vec<SymOperand> = Vec::new();
        let factors = (0..n)
            .map(|i| {
                let (r, c) = (dims[i], dims[i + 1]);
                if r == c {
                    let reusable: Vec<&SymOperand> =
                        squares.iter().filter(|o| o.shape().rows() == r).collect();
                    if !reusable.is_empty() && rng.gen_bool(0.5) {
                        let op = reusable[rng.gen_range(0..reusable.len())].clone();
                        let unary = [
                            UnaryOp::None,
                            UnaryOp::Transpose,
                            UnaryOp::Inverse,
                            UnaryOp::InverseTranspose,
                        ][rng.gen_range(0..4usize)];
                        return SymFactor::new(op, unary);
                    }
                    let mut op = SymOperand::square(format!("M{i}"), r);
                    if rng.gen_bool(0.6) {
                        let p = [
                            Property::Diagonal,
                            Property::LowerTriangular,
                            Property::UpperTriangular,
                            Property::Symmetric,
                            Property::SymmetricPositiveDefinite,
                        ][rng.gen_range(0..5usize)];
                        op = op.with_property(p).unwrap();
                    }
                    squares.push(op.clone());
                    let unary = if rng.gen_bool(0.3) {
                        UnaryOp::Inverse
                    } else {
                        UnaryOp::None
                    };
                    SymFactor::new(op, unary)
                } else if rng.gen_bool(0.25) {
                    SymFactor::new(SymOperand::new(format!("M{i}"), c, r), UnaryOp::Transpose)
                } else {
                    SymFactor::plain(SymOperand::new(format!("M{i}"), r, c))
                }
            })
            .collect();
        SymChain::new(factors).unwrap()
    }

    /// A random chain of `n × n` factors drawn from six operands, one per
    /// property (and one without), each under any unary operator.
    fn random_square_chain(rng: &mut StdRng) -> SymChain {
        let n = Dim::var("rp_n");
        let pool: Vec<SymOperand> = [
            None,
            Some(Property::Diagonal),
            Some(Property::LowerTriangular),
            Some(Property::UpperTriangular),
            Some(Property::Symmetric),
            Some(Property::SymmetricPositiveDefinite),
        ]
        .into_iter()
        .zip(["G", "D", "L", "U", "S", "P"])
        .map(|(p, name)| {
            let op = SymOperand::square(name, n);
            match p {
                Some(p) => op.with_property(p).unwrap(),
                None => op,
            }
        })
        .collect();
        let factors = (0..rng.gen_range(3..=7usize))
            .map(|_| {
                let unary = [
                    UnaryOp::None,
                    UnaryOp::Transpose,
                    UnaryOp::Inverse,
                    UnaryOp::InverseTranspose,
                ][rng.gen_range(0..4usize)];
                SymFactor::new(pool[rng.gen_range(0..pool.len())].clone(), unary)
            })
            .collect();
        SymChain::new(factors).unwrap()
    }

    /// FNV-1a of every cached structure's key and plan (each region's
    /// key, cells and variables), structures in key order.
    fn regions_digest(cache: &PlanCache) -> u64 {
        let mut structures: Vec<String> = cache
            .structures()
            .into_iter()
            .map(|(key, plan)| format!("{key:?} {plan:?}\n"))
            .collect();
        structures.sort();
        fnv1a64(structures.concat().as_bytes())
    }

    /// Records the fixed workload into a fresh cache and returns the
    /// summed classification of every recorded region, the regions'
    /// digest, and the classification of the aliased chain at n = 50.
    fn record(mode: InferenceMode) -> (PlanSummary, u64, PlanSummary) {
        let registry = Arc::new(KernelRegistry::blas_lapack());
        let cache = PlanCache::new(registry.clone(), mode);
        let mut rng = StdRng::seed_from_u64(0x0e_c0de);
        let sizes = [1usize, 2, 3, 7, 10, 40, 100];
        let mut chains: Vec<SymChain> = (0..120).map(|_| random_chain(&mut rng)).collect();
        chains.push(aliased_chain());
        let mut total = PlanSummary::default();
        for chain in &chains {
            for _ in 0..3 {
                let mut b = DimBindings::new();
                for v in chain.vars() {
                    b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
                }
                let hits = cache.stats().hits;
                // Uncomputable chains are recorded (and pinned) too.
                let _ = cache.solve(chain, &b);
                if cache.stats().hits == hits {
                    let s = cache.region_summary(chain, &b).unwrap();
                    total.resolved += s.resolved;
                    total.deferred += s.deferred;
                    total.dynamic += s.dynamic;
                    total.unsolvable += s.unsolvable;
                }
            }
        }
        let aliased = chains.last().expect("the aliased chain is last");
        let at_50 = DimBindings::new().with("rp_n", 50);
        cache.solve(aliased, &at_50).unwrap();
        let aliased = cache.region_summary(aliased, &at_50).unwrap();
        let digest = regions_digest(&cache);

        let snapshot = cache.snapshot_json();
        let loaded = PlanCache::new(registry, mode);
        loaded.load_snapshot_json(&snapshot).unwrap();
        assert_eq!(
            regions_digest(&loaded),
            digest,
            "loading re-records each region"
        );
        assert_eq!(loaded.snapshot_json(), snapshot);
        (total, digest, aliased)
    }

    #[test]
    fn compositional_recording_is_pinned() {
        let (total, digest, aliased) = record(InferenceMode::Compositional);
        assert!(aliased.dynamic >= 1, "{aliased}");
        let want = PlanSummary {
            resolved: 1309,
            deferred: 531,
            dynamic: 2,
            unsolvable: 0,
        };
        assert_eq!(total, want);
        assert_eq!(
            digest, 0x7e9b_4add_19db_696f,
            "regions digest {digest:#018x}"
        );
    }

    #[test]
    fn deep_recording_is_pinned() {
        let (total, digest, _) = record(InferenceMode::Deep);
        let want = PlanSummary {
            resolved: 1525,
            deferred: 794,
            dynamic: 0,
            unsolvable: 0,
        };
        assert_eq!(total, want);
        assert_eq!(
            digest, 0xe63f_6130_cf31_e0f9,
            "regions digest {digest:#018x}"
        );
    }
}
