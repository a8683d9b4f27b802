//! Region plans: the symbolic solve (recording) and the bind-time
//! instantiation that replays it at concrete sizes.
//!
//! # How equivalence with the concrete optimizer is guaranteed
//!
//! Within one size region (see [`crate::key`]) the concrete optimizer's
//! *structural* behaviour is invariant: which kernels match each
//! sub-product, which property sets the temporaries carry, which splits
//! are computable. Only the numeric cost values change with the
//! binding. The recorder therefore runs the concrete DP once per
//! region, capturing per cell the full candidate set `(split, kernel,
//! FLOP formula)`; instantiation re-ranks those candidates with the
//! exact per-kernel FLOP formulas (bit-identical to
//! [`gmc_kernels::KernelOp::flops`]) under the *same* two-stage
//! selection the optimizer uses (per split: streaming min by cost, then
//! specificity, then registration order; across splits: strict
//! improvement, earliest split wins ties). The result is bit-identical
//! to a from-scratch concrete solve.
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

use gmc::{GmcError, GmcSolution, InferenceMode, Step};
use gmc_analysis::infer_properties;
use gmc_expr::{Chain, CostPoly, Dim, DimBindings, Expr, Operand, PropertySet, SymChain, SymShape};
use gmc_kernels::{FlatTermScratch, FlopFormula, KernelOp, KernelRegistry};
use gmc_pattern::{Bindings, Var};
use std::cmp::Ordering;
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
    /// Pre-materialized temporary names `T<i>_<j>` per cell, so a cache
    /// hit clones instead of re-formatting each destination name.
    pub(crate) temp_names: Vec<String>,
    /// The *recording* chain's distinct dimension variables in
    /// first-occurrence order. Structure keys canonicalize variable
    /// names, so a request chain may use different names for the same
    /// structure; its bindings are translated onto these variables
    /// positionally before any cached formula is evaluated.
    pub(crate) vars: Vec<gmc_expr::DimVar>,
}

/// The `T<i>_<j>` temporary names of every cell of an `n`-chain, in
/// cell-index order — the single source of the naming scheme for the
/// recorder and the plan store.
pub(crate) fn build_temp_names(n: usize) -> Vec<String> {
    let mut names = vec![String::new(); n * (n + 1) / 2];
    for i in 0..n {
        for j in i..n {
            names[cell_index(n, i, j)] = format!("T{i}_{j}");
        }
    }
    names
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

/// Reusable state for the instantiate hot path, held by the cache so a
/// cache hit allocates no fresh DP tables or candidate-scan buffers.
/// (The per-cell temporaries, operations and kernel-name strings that
/// remain are part of the returned solution itself.)
#[derive(Debug, Default)]
pub(crate) struct PlanWorkspace {
    solved: Solved,
    costs: Vec<f64>,
    entries: Vec<Ranked>,
}

/// Shared DP result state for the recorder and the instantiation walk.
#[derive(Debug, Default)]
struct Solved {
    n: usize,
    cost: Vec<Option<f64>>,
    expr: Vec<Option<Expr>>,
    split: Vec<usize>,
    op: Vec<Option<KernelOp>>,
    kernel: Vec<String>,
    op_cost: Vec<f64>,
}

impl Solved {
    fn new(n: usize) -> Solved {
        let mut s = Solved {
            n: 0,
            cost: Vec::new(),
            expr: Vec::new(),
            split: Vec::new(),
            op: Vec::new(),
            kernel: Vec::new(),
            op_cost: Vec::new(),
        };
        s.reset(n);
        s
    }

    /// Clears the state for a chain of length `n`, reusing the existing
    /// allocations where large enough — the instantiate hot path holds
    /// one `Solved` per [`crate::PlanCache`] and resets it per request,
    /// mirroring `gmc::GmcWorkspace` on the concrete hot path.
    fn reset(&mut self, n: usize) {
        let len = n * (n + 1) / 2;
        self.n = n;
        self.cost.clear();
        self.cost.resize(len, None);
        self.expr.clear();
        self.expr.resize(len, None);
        self.split.clear();
        self.split.resize(len, 0);
        self.op.clear();
        self.op.resize(len, None);
        self.kernel.clear();
        self.kernel.resize(len, String::new());
        self.op_cost.clear();
        self.op_cost.resize(len, 0.0);
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        cell_index(self.n, i, j)
    }

    fn seed_leaves(&mut self, chain: &Chain) {
        for i in 0..self.n {
            let idx = self.idx(i, i);
            self.expr[idx] = Some(chain.factor(i).expr());
            self.cost[idx] = Some(0.0);
        }
    }

    fn operand_for(&self, r: OperandRef, chain: &Chain) -> Operand {
        match r {
            OperandRef::Factor(t) => chain.factor(t).operand().clone(),
            OperandRef::Temp(i, j) => match &self.expr[self.idx(i, j)] {
                Some(Expr::Symbol(op)) => op.clone(),
                other => unreachable!("temporary cell must hold a symbol, got {other:?}"),
            },
        }
    }
}

/// A candidate row for the shared two-stage winner selection.
#[derive(Debug)]
struct Ranked {
    k: usize,
    kernel_idx: usize,
    spec: u8,
    cost: f64,
}

/// The exact selection the concrete optimizer performs, over a
/// pre-enumerated candidate list (entries grouped by ascending `k`, in
/// discrimination-net streaming order within a group): per split the
/// streaming min by `(cost, specificity desc, registration asc)`, then
/// across splits strict improvement with the earliest split winning
/// ties. Returns the winning entry index and the accumulated total.
fn select_two_stage(
    entries: &[Ranked],
    mut base: impl FnMut(usize) -> f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(f64, usize)> = None;
    let mut idx = 0;
    while idx < entries.len() {
        let k = entries[idx].k;
        let mut end = idx;
        while end < entries.len() && entries[end].k == k {
            end += 1;
        }
        let mut group: Option<usize> = None;
        for e in idx..end {
            let replace = match group {
                None => true,
                Some(gi) => {
                    let inc = &entries[gi];
                    let c = &entries[e];
                    let ord = inc
                        .cost
                        .partial_cmp(&c.cost)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| c.spec.cmp(&inc.spec));
                    ord == Ordering::Greater
                        || (ord == Ordering::Equal && c.kernel_idx < inc.kernel_idx)
                }
            };
            if replace {
                group = Some(e);
            }
        }
        let gi = group.expect("non-empty split group");
        let total = base(k) + entries[gi].cost;
        let better = match &best {
            None => true,
            Some((t, _)) => total < *t,
        };
        if better {
            best = Some((total, gi));
        }
        idx = end;
    }
    best.map(|(t, i)| (i, t))
}

fn infer_cell_props(
    inference: InferenceMode,
    chain: &Chain,
    le: &Expr,
    re: &Expr,
    i: usize,
    j: usize,
) -> PropertySet {
    match inference {
        InferenceMode::Compositional => infer_properties(&Expr::times([le.clone(), re.clone()])),
        InferenceMode::Deep => {
            let unfolded = Expr::times((i..=j).map(|t| chain.factor(t).expr()).collect::<Vec<_>>());
            infer_properties(&unfolded)
        }
    }
}

fn extract_solution(chain: &Chain, s: &Solved) -> Result<GmcSolution<f64>, GmcError> {
    let n = s.n;
    let Some(total_cost) = s.cost[s.idx(0, n - 1)] else {
        return Err(GmcError::not_computable(chain.to_string()));
    };
    let mut steps = Vec::with_capacity(n - 1);
    push_steps(s, 0, n - 1, &mut steps);
    let total_flops = steps.iter().map(|st: &Step<f64>| st.op.flops()).sum();
    let paren = parenthesization(chain, s, 0, n - 1);
    Ok(GmcSolution::from_parts(
        steps,
        total_cost,
        total_flops,
        paren,
    ))
}

fn push_steps(s: &Solved, i: usize, j: usize, out: &mut Vec<Step<f64>>) {
    if i == j {
        return;
    }
    let idx = s.idx(i, j);
    let k = s.split[idx];
    push_steps(s, i, k, out);
    push_steps(s, k + 1, j, out);
    let dest = match s.expr[idx].as_ref().expect("solved cell has a temporary") {
        Expr::Symbol(op) => op.clone(),
        other => unreachable!("temporary must be a symbol, got {other}"),
    };
    out.push(Step {
        dest,
        op: s.op[idx].clone().expect("solved cell has an operation"),
        kernel: s.kernel[idx].clone(),
        cost: s.op_cost[idx],
    });
}

fn parenthesization(chain: &Chain, s: &Solved, i: usize, j: usize) -> String {
    if i == j {
        return chain.factor(i).to_string();
    }
    let k = s.split[s.idx(i, j)];
    format!(
        "({} {})",
        parenthesization(chain, s, i, k),
        parenthesization(chain, s, k + 1, j)
    )
}

/// Same-split tie-break: would `a` be preferred over `b` by the
/// streaming within-split scan when their costs are equal?
fn within_split_tie_favors(a: &Candidate, b: &Candidate) -> bool {
    a.specificity > b.specificity || (a.specificity == b.specificity && a.kernel_idx < b.kernel_idx)
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
    scratch: &mut FlatTermScratch,
) -> (RegionPlan, Result<GmcSolution<f64>, GmcError>) {
    let n = chain.len();
    let len = n * (n + 1) / 2;
    let dims = sym.dims();
    let mut solved = Solved::new(n);
    solved.seed_leaves(chain);
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
    let mut unstable: Vec<bool> = vec![false; len];
    let temp_names = build_temp_names(n);

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
        kernel_idx: usize,
        spec: u8,
        op: KernelOp,
        cost: f64,
        var_binds: Vec<(Var, OperandRef)>,
    }

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let idx = cell_index(n, i, j);

            let dynamic =
                (i..j).any(|k| unstable[cell_index(n, i, k)] || unstable[cell_index(n, k + 1, j)]);

            // Enumerate every candidate of every computable split.
            let mut raw: Vec<RawCand> = Vec::new();
            for k in i..j {
                let (li, ri) = (cell_index(n, i, k), cell_index(n, k + 1, j));
                if solved.cost[li].is_none() || solved.cost[ri].is_none() {
                    continue;
                }
                let le = solved.expr[li].clone().expect("computable cell");
                let re = solved.expr[ri].clone().expect("computable cell");
                registry.for_each_product_match(&le, &re, scratch, |kernel_idx, kernel, b| {
                    let op = kernel.instantiate(b);
                    let cost = op.flops();
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
                        kernel_idx,
                        spec: kernel.specificity(),
                        op,
                        cost,
                        var_binds,
                    });
                });
            }

            if raw.is_empty() {
                plan_cells[idx] = if dynamic {
                    CellPlan::Dynamic
                } else {
                    CellPlan::Unsolvable
                };
                unstable[idx] = dynamic;
                continue;
            }

            // Winner selection, exactly as the concrete optimizer.
            let entries: Vec<Ranked> = raw
                .iter()
                .map(|c| Ranked {
                    k: c.k,
                    kernel_idx: c.kernel_idx,
                    spec: c.spec,
                    cost: c.cost,
                })
                .collect();
            let (wi, total) = select_two_stage(&entries, |k| {
                let cl = solved.cost[cell_index(n, i, k)].expect("computable split");
                let cr = solved.cost[cell_index(n, k + 1, j)].expect("computable split");
                cl + cr
            })
            .expect("non-empty candidate list");
            let wk = raw[wi].k;
            let wle = solved.expr[cell_index(n, i, wk)].clone().expect("winner");
            let wre = solved.expr[cell_index(n, wk + 1, j)]
                .clone()
                .expect("winner");
            let props = infer_cell_props(inference, chain, &wle, &wre, i, j);
            let temp =
                Operand::temporary(temp_names[idx].clone(), raw[wi].op.result_shape(), props);
            // A sub-chain result always has shape d[i] × d[j+1],
            // independent of how it is parenthesized.
            sym_shapes.insert(temp.name().to_owned(), SymShape::new(dims[i], dims[j + 1]));
            refs.insert(temp.name().to_owned(), OperandRef::Temp(i, j));
            solved.cost[idx] = Some(total);
            solved.expr[idx] = Some(temp.expr());
            solved.split[idx] = wk;
            solved.op[idx] = Some(raw[wi].op.clone());
            solved.kernel[idx] = registry.kernels()[raw[wi].kernel_idx].name().to_owned();
            solved.op_cost[idx] = raw[wi].cost;

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
                        kernel_idx: c.kernel_idx,
                        specificity: c.spec,
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
                    if op_no_more(&cands[a], &cands[b])
                        && within_split_tie_favors(&cands[a], &cands[b])
                    {
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
            // op-cost polynomial decides (ties fall to the streaming
            // scan's specificity/registration order). Against other
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
                        op_no_more(winner, c) && within_split_tie_favors(winner, c)
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
                            let le = solved.expr[cell_index(n, i, k)].as_ref().expect("split");
                            let re = solved.expr[cell_index(n, k + 1, j)]
                                .as_ref()
                                .expect("split");
                            (k, infer_cell_props(inference, chain, le, re, i, j))
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

    let solution = extract_solution(chain, &solved);
    (
        RegionPlan {
            n,
            cells: plan_cells,
            temp_names,
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
    scratch: &mut FlatTermScratch,
    workspace: &mut PlanWorkspace,
) -> Result<GmcSolution<f64>, GmcError> {
    let n = region.n;
    debug_assert_eq!(n, chain.len());
    debug_assert_eq!(region.cells.len(), n * (n + 1) / 2);
    let PlanWorkspace {
        solved,
        costs,
        entries,
    } = workspace;
    solved.reset(n);
    solved.seed_leaves(chain);

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let idx = cell_index(n, i, j);
            match &region.cells[region.index(i, j)] {
                CellPlan::Leaf => unreachable!("interior cell marked as leaf"),
                CellPlan::Unsolvable => {}
                CellPlan::Resolved { cand, props } => {
                    let op_cost = cand
                        .formula
                        .eval(bindings)
                        .expect("plan formulas only reference bound chain dimensions");
                    let cl = solved.cost[cell_index(n, i, cand.k)].expect("resolved child");
                    let cr = solved.cost[cell_index(n, cand.k + 1, j)].expect("resolved child");
                    let total = (cl + cr) + op_cost;
                    apply_candidate(
                        registry,
                        solved,
                        chain,
                        idx,
                        &region.temp_names[idx],
                        cand,
                        total,
                        op_cost,
                        *props,
                    );
                }
                CellPlan::Deferred { cands, props } => {
                    costs.clear();
                    entries.clear();
                    for c in cands {
                        let cost = c
                            .formula
                            .eval(bindings)
                            .expect("plan formulas only reference bound chain dimensions");
                        costs.push(cost);
                        entries.push(Ranked {
                            k: c.k,
                            kernel_idx: c.kernel_idx,
                            spec: c.specificity,
                            cost,
                        });
                    }
                    let (wi, total) = select_two_stage(entries, |k| {
                        let cl = solved.cost[cell_index(n, i, k)].expect("deferred child");
                        let cr = solved.cost[cell_index(n, k + 1, j)].expect("deferred child");
                        cl + cr
                    })
                    .expect("deferred cells have candidates");
                    let cand = &cands[wi];
                    let props = props.for_split(cand.k);
                    apply_candidate(
                        registry,
                        solved,
                        chain,
                        idx,
                        &region.temp_names[idx],
                        cand,
                        total,
                        costs[wi],
                        props,
                    );
                }
                CellPlan::Dynamic => {
                    // Live matching, mirroring the concrete optimizer's
                    // `fill_cell`.
                    let mut best: Option<(f64, usize, gmc_kernels::ProductMatch<'_, f64>)> = None;
                    for k in i..j {
                        let (li, ri) = (cell_index(n, i, k), cell_index(n, k + 1, j));
                        let (Some(cl), Some(cr)) = (solved.cost[li], solved.cost[ri]) else {
                            continue;
                        };
                        let (Some(le), Some(re)) = (&solved.expr[li], &solved.expr[ri]) else {
                            continue;
                        };
                        let Some(m) = registry.best_product_match(le, re, scratch, |op| op.flops())
                        else {
                            continue;
                        };
                        let total = (cl + cr) + m.cost;
                        let better = match &best {
                            None => true,
                            Some((t, _, _)) => total < *t,
                        };
                        if better {
                            best = Some((total, k, m));
                        }
                    }
                    let Some((total, k, m)) = best else {
                        continue;
                    };
                    let le = solved.expr[cell_index(n, i, k)].as_ref().expect("winner");
                    let re = solved.expr[cell_index(n, k + 1, j)]
                        .as_ref()
                        .expect("winner");
                    let props = infer_cell_props(inference, chain, le, re, i, j);
                    let temp = Operand::temporary(
                        region.temp_names[idx].clone(),
                        m.op.result_shape(),
                        props,
                    );
                    solved.cost[idx] = Some(total);
                    solved.expr[idx] = Some(temp.expr());
                    solved.split[idx] = k;
                    solved.kernel[idx] = m.kernel.name().to_owned();
                    solved.op_cost[idx] = m.cost;
                    solved.op[idx] = Some(m.op);
                }
            }
        }
    }

    extract_solution(chain, solved)
}

/// Materializes a cached candidate's operation for the current binding
/// and writes the winning cell state at `idx`. `temp_name` is the
/// cell's pre-materialized `T<i>_<j>` destination name.
#[allow(clippy::too_many_arguments)]
fn apply_candidate(
    registry: &KernelRegistry,
    solved: &mut Solved,
    chain: &Chain,
    idx: usize,
    temp_name: &str,
    cand: &Candidate,
    total: f64,
    op_cost: f64,
    props: PropertySet,
) {
    let mut b = Bindings::new();
    for (v, r) in &cand.var_binds {
        b.bind(*v, &solved.operand_for(*r, chain));
    }
    let op = registry.kernels()[cand.kernel_idx].instantiate(&b);
    let temp = Operand::temporary(temp_name.to_owned(), op.result_shape(), props);
    solved.cost[idx] = Some(total);
    solved.expr[idx] = Some(temp.expr());
    solved.split[idx] = cand.k;
    solved.kernel[idx] = registry.kernels()[cand.kernel_idx].name().to_owned();
    solved.op_cost[idx] = op_cost;
    solved.op[idx] = Some(op);
}
