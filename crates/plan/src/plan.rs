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
//! formula)`; instantiation re-ranks those candidates with the exact
//! per-kernel FLOP formulas (bit-identical to
//! [`gmc_kernels::KernelOp::flops`]) under the engine's rules, so the
//! result is bit-identical to a from-scratch concrete solve.
//!
//! On top of that, cells are classified:
//!
//! * **Resolved** — one candidate's cost *polynomial* dominates every
//!   alternative on the positive orthant (with ties broken the same way
//!   the optimizer breaks them), so the decision is binding-independent
//!   and instantiation skips the candidate scan entirely.
//! * **Deferred** — polynomially ambiguous; candidates are re-ranked
//!   numerically at bind time.
//! * **Dynamic** — a descendant's property set is split-dependent
//!   (possible under compositional inference), so the cached candidate
//!   set cannot be trusted; the cell is re-matched live at bind time.

use gmc::{CellGrid, GmcError, GmcSolution, GmcWorkspace, InferenceMode};
use gmc_expr::{Chain, CostPoly, Dim, DimBindings, PropertySet, SymChain, SymShape};
use gmc_kernels::{FlopFormula, KernelOp, KernelRegistry, ProductMatch, Rank};
use gmc_pattern::{Bindings, Var};
use std::collections::HashMap;
use std::fmt;

const X: Var = Var::new(0);
const Y: Var = Var::new(1);

/// Where a kernel operand comes from when re-instantiating a cached
/// candidate: a chain factor or a DP-cell temporary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OperandRef {
    Factor(usize),
    Temp(usize, usize),
}

/// One cached kernel candidate of a DP cell.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) k: usize,
    pub(crate) kernel_idx: usize,
    pub(crate) specificity: u8,
    pub(crate) formula: FlopFormula,
    pub(crate) op_poly: CostPoly,
    pub(crate) total_poly: Option<CostPoly>,
    pub(crate) var_binds: Vec<(Var, OperandRef)>,
}

impl Candidate {
    fn rank<C>(&self, cost: C) -> Rank<C> {
        Rank {
            cost,
            specificity: self.specificity,
            index: self.kernel_idx,
        }
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
pub struct RegionPlan {
    pub(crate) n: usize,
    pub(crate) cells: Vec<CellPlan>,
    /// The *recording* chain's distinct dimension variables in
    /// first-occurrence order. Structure keys canonicalize variable
    /// names, so a request chain may use different names for the same
    /// structure; its bindings are translated onto these variables
    /// positionally before any cached formula is evaluated.
    pub(crate) vars: Vec<gmc_expr::DimVar>,
}

/// Cell classification counts of a [`RegionPlan`].
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
    pub fn summary(&self) -> PlanSummary {
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

    /// Whether every interior cell is symbolically resolved (the whole
    /// parenthesization and kernel sequence are binding-independent
    /// within this region).
    pub fn is_fully_resolved(&self) -> bool {
        let s = self.summary();
        s.deferred == 0 && s.dynamic == 0 && s.unsolvable == 0
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        cell_index(self.n, i, j)
    }
}

#[inline]
pub(crate) fn cell_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < n);
    i * (2 * n - i + 1) / 2 + (j - i)
}

/// Whether cost `a` is at most cost `b` at every binding of the region
/// as the concrete optimizer's `f64` comparison sees it, so that a tie
/// goes the way the caller's tie rule says.
///
/// Polynomial dominance suffices when both costs are computed exactly in
/// `f64`. An exact tie between rounded costs (thirds) can fall either
/// way, depending on the size and on the summation order, so otherwise
/// the region must admit no tie. `corner` is the region's lowest point:
/// every variable the region binds to 1 at 1, every other one at 2. A
/// difference that is non-negative on the orthant is smallest there
/// within the region (its shifted coefficients are non-negative), and
/// if it is zero there it is zero at every binding of the region.
fn surely_no_more(
    a: &CostPoly,
    a_exact: bool,
    b: &CostPoly,
    b_exact: bool,
    corner: &DimBindings,
) -> bool {
    a.dominated_by(b)
        && (a_exact && b_exact
            || matches!(
                (a.eval_thirds(corner), b.eval_thirds(corner)),
                (Some(x), Some(y)) if x < y
            ))
}

/// Records the region plan for `chain` (the concrete binding of `sym`)
/// and returns it together with the solve result.
pub(crate) fn record_region(
    registry: &KernelRegistry,
    inference: InferenceMode,
    sym: &SymChain,
    chain: &Chain,
    workspace: &mut GmcWorkspace<f64>,
) -> (RegionPlan, Result<GmcSolution<f64>, GmcError>) {
    let n = chain.len();
    let len = n * (n + 1) / 2;
    let dims = sym.dims();
    let grid = &mut workspace.grid;
    grid.reset(chain);
    let mut plan_cells: Vec<CellPlan> = vec![CellPlan::Leaf; len];
    let mut total_polys: Vec<Option<CostPoly>> = vec![None; len];
    // Whether a resolved cell's total is computed exactly in `f64`.
    let mut exact_totals: Vec<bool> = vec![true; len];
    let mut corner = DimBindings::new();
    for (d, size) in dims.iter().zip(chain.sizes()) {
        if let Dim::Var(v) = d {
            corner.set_var(*v, if size == 1 { 1 } else { 2 });
        }
    }
    // Same-split candidates compete on their operation costs alone.
    let op_no_more = |a: &Candidate, b: &Candidate| {
        surely_no_more(
            &a.op_poly,
            a.formula.is_exact_in_f64(),
            &b.op_poly,
            b.formula.is_exact_in_f64(),
            &corner,
        )
    };
    // At equal cost, would the within-split rule prefer `a` over `b`?
    let tie_favors = |a: &Candidate, b: &Candidate| a.rank(()).beats(&b.rank(()));
    let mut unstable: Vec<bool> = vec![false; len];

    // Operand name → symbolic shape (for formulas) and → provenance
    // (for re-instantiation). Factors first; temporaries as created.
    let mut sym_shapes: HashMap<String, SymShape> = HashMap::new();
    let mut refs: HashMap<String, OperandRef> = HashMap::new();
    for (t, f) in sym.factors().iter().enumerate() {
        sym_shapes
            .entry(f.operand().name().to_owned())
            .or_insert_with(|| f.operand().shape());
        refs.entry(f.operand().name().to_owned())
            .or_insert(OperandRef::Factor(t));
    }

    for i in 0..n {
        total_polys[cell_index(n, i, i)] = Some(CostPoly::zero());
    }

    struct RawCand {
        k: usize,
        rank: Rank<f64>,
        op: KernelOp,
        var_binds: Vec<(Var, OperandRef)>,
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
                registry.for_each_product_match(left, right, |kernel_idx, kernel, b| {
                    let op = kernel.instantiate(b);
                    let rank = kernel.rank(kernel_idx, op.flops());
                    let mut var_binds = Vec::with_capacity(2);
                    for v in [X, Y] {
                        if let Some(operand) = b.get(v) {
                            let r = refs
                                .get(operand.name())
                                .copied()
                                .expect("bound operand is a factor or temporary");
                            var_binds.push((v, r));
                        }
                    }
                    raw.push(RawCand {
                        k,
                        rank,
                        op,
                        var_binds,
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
            let props = grid.temp_properties(inference, chain, i, wk, j);
            let winner = &raw[wi];
            let pick = ProductMatch {
                kernel: &registry.kernels()[winner.rank.index],
                op: winner.op.clone(),
                cost: winner.rank.cost,
            };
            grid.commit(i, j, wk, total, pick, props);
            let name = grid.temporary(i, j).expect("committed").name();
            // A sub-chain result always has shape d[i] × d[j+1],
            // independent of how it is parenthesized.
            sym_shapes.insert(name.to_owned(), SymShape::new(dims[i], dims[j + 1]));
            refs.insert(name.to_owned(), OperandRef::Temp(i, j));

            if dynamic {
                plan_cells[idx] = CellPlan::Dynamic;
                unstable[idx] = true;
                continue;
            }

            // Lift candidates to symbolic form.
            let mut cands: Vec<Candidate> = raw
                .iter()
                .map(|c| {
                    let formula = FlopFormula::from_op(&c.op, |name| sym_shapes[name]);
                    let op_poly = formula.poly();
                    let total_poly = match (
                        &total_polys[cell_index(n, i, c.k)],
                        &total_polys[cell_index(n, c.k + 1, j)],
                    ) {
                        (Some(l), Some(r)) => Some(l.add(r).add(&op_poly)),
                        _ => None,
                    };
                    Candidate {
                        k: c.k,
                        kernel_idx: c.rank.index,
                        specificity: c.rank.specificity,
                        formula,
                        op_poly,
                        total_poly,
                        var_binds: c.var_binds.clone(),
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
            // everywhere). Ties count only between exact costs (see
            // `surely_no_more`).
            let exact_total = |c: &Candidate| {
                exact_totals[cell_index(n, i, c.k)]
                    && exact_totals[cell_index(n, c.k + 1, j)]
                    && c.formula.is_exact_in_f64()
            };
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
                                surely_no_more(wt, exact_total(winner), ct, exact_total(c), &corner)
                            } else {
                                wt.strictly_dominated_by(ct)
                            }
                        })
                    }
                });

            if winner_resolved {
                exact_totals[idx] = exact_total(&cands[w]);
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
                            (k, grid.temp_properties(inference, chain, i, k, j))
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

    let solution = grid.solution(chain);
    (
        RegionPlan {
            n,
            cells: plan_cells,
            vars: sym.vars(),
        },
        solution,
    )
}

/// Replays a recorded region plan at a concrete binding.
///
/// `chain` must be `sym.bind(bindings)` and the binding must fall into
/// the plan's region (`region_signature(chain.sizes())` matching the
/// plan's key); the cache layer guarantees both.
pub(crate) fn instantiate(
    registry: &KernelRegistry,
    inference: InferenceMode,
    region: &RegionPlan,
    chain: &Chain,
    bindings: &DimBindings,
    workspace: &mut GmcWorkspace<f64>,
) -> Result<GmcSolution<f64>, GmcError> {
    let n = region.n;
    debug_assert_eq!(n, chain.len());
    debug_assert_eq!(region.cells.len(), n * (n + 1) / 2);
    let grid = &mut workspace.grid;
    grid.reset(chain);
    let eval = |c: &Candidate| {
        c.formula
            .eval(bindings)
            .expect("plan formulas only reference bound chain dimensions")
    };

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            match &region.cells[region.index(i, j)] {
                CellPlan::Leaf => unreachable!("interior cell marked as leaf"),
                CellPlan::Unsolvable => {}
                CellPlan::Resolved { cand, props } => {
                    let op_cost = eval(cand);
                    let total = grid
                        .split_total(i, cand.k, j, &op_cost)
                        .expect("resolved children are computed");
                    let pick = materialize(registry, grid, chain, cand, op_cost);
                    grid.commit(i, j, cand.k, total, pick, *props);
                }
                CellPlan::Deferred { cands, props } => {
                    // Candidates are stored split by split in ascending
                    // order (the store rejects any other order), so one
                    // cursor walks them alongside the split scan.
                    let mut next = 0;
                    let (total, k, (op_cost, ci)) = grid
                        .best_split(i, j, |k, _, _| {
                            let mut best: Option<(f64, usize)> = None;
                            while next < cands.len() && cands[next].k == k {
                                let cost = eval(&cands[next]);
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
                    let pick = materialize(registry, grid, chain, &cands[ci], op_cost);
                    grid.commit(i, j, k, total, pick, props.for_split(k));
                }
                CellPlan::Dynamic => {
                    if let Some((total, k, pick)) =
                        grid.select_best_split(registry, i, j, KernelOp::flops)
                    {
                        let props = grid.temp_properties(inference, chain, i, k, j);
                        grid.commit(i, j, k, total, pick, props);
                    }
                }
            }
        }
    }

    grid.solution(chain)
}

/// Materializes a cached candidate's operation for the current binding
/// from the chain's factors and the table's temporaries.
fn materialize<'r>(
    registry: &'r KernelRegistry,
    grid: &CellGrid<f64>,
    chain: &Chain,
    cand: &Candidate,
    op_cost: f64,
) -> ProductMatch<'r, f64> {
    let mut b = Bindings::new();
    for (v, r) in &cand.var_binds {
        let operand = match *r {
            OperandRef::Factor(t) => chain.factor(t).operand(),
            OperandRef::Temp(i, j) => grid.temporary(i, j).expect("computed child temporary"),
        };
        b.bind(*v, operand);
    }
    let kernel = &registry.kernels()[cand.kernel_idx];
    ProductMatch {
        kernel,
        op: kernel.instantiate(&b),
        cost: op_cost,
    }
}
