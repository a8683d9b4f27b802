//! The Generalized Matrix Chain algorithm (paper Sec. 3, Fig. 4).

use crate::metric::{Cost, CostMetric};
use gmc_analysis::{infer_properties, infer_view_product};
use gmc_codegen::{Instruction, Program};
use gmc_expr::{
    is_temp_name, Chain, Expr, FactorView, Operand, OperandId, OperandView, PropertySet, Shape,
    UnaryOp,
};
use gmc_kernels::{Flops, KernelOp, KernelRegistry, ProductMatch, Wiring};
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Errors produced by the optimizer.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GmcError {
    /// No combination of kernels can compute the chain: some sub-product
    /// has no matching kernel under every parenthesization (paper
    /// Sec. 3.4 discusses when this can happen).
    NotComputable {
        /// Display form of the chain.
        chain: String,
    },
}

impl fmt::Display for GmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmcError::NotComputable { chain } => {
                write!(f, "no kernel sequence can compute the chain {chain}")
            }
        }
    }
}

impl std::error::Error for GmcError {}

/// How temporaries' properties are derived (the `ablation_inference`
/// group of `gmc-bench`'s `ablations` bench compares the two).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InferenceMode {
    /// As in the paper (Fig. 4 line 10): infer from the binary product
    /// expression of the chosen split, compositionally via the
    /// temporaries' stored property sets.
    #[default]
    Compositional,
    /// Re-derive properties from the fully unfolded sub-chain expression.
    /// Catches split-dependent property loss (e.g. symmetry of
    /// `(AᵀB)(BᵀA)`), at a modestly higher inference cost.
    Deep,
}

/// One step of a generated kernel sequence.
#[derive(Clone, Debug)]
pub struct Step<C> {
    /// The temporary receiving the result.
    pub dest: Operand,
    /// The kernel operation computing it.
    pub op: gmc_kernels::KernelOp,
    /// Name of the kernel that was selected (e.g. `"TRMM_RLT"`).
    pub kernel: String,
    /// The metric cost of this step.
    pub cost: C,
}

/// A solution to the GMCP: a parenthesization together with a mapping of
/// expressions to kernels (paper Sec. 1.1), materialized as an ordered
/// kernel sequence.
#[derive(Clone, Debug)]
pub struct GmcSolution<C> {
    steps: Vec<Step<C>>,
    total_cost: C,
    total_flops: Flops,
    paren: String,
}

impl<C: Cost> GmcSolution<C> {
    /// Assembles a solution from its steps, its total metric cost and
    /// its parenthesization; the FLOP total is the steps' exact sum.
    /// The optimizer and the independent reference solver in
    /// [`crate::reference`] both build solutions here.
    pub(crate) fn from_parts(steps: Vec<Step<C>>, total_cost: C, paren: String) -> Self {
        GmcSolution {
            total_flops: steps.iter().map(|s| s.op.flop_count()).sum(),
            steps,
            total_cost,
            paren,
        }
    }

    /// The kernel calls, in dependency order (paper Fig. 7).
    pub fn steps(&self) -> &[Step<C>] {
        &self.steps
    }

    /// The accumulated metric cost, as the metric reports it: an exact
    /// FLOP count rounds once to the nearest `f64`.
    pub fn cost(&self) -> C::Reported {
        self.total_cost.reported()
    }

    /// The accumulated FLOP count (available regardless of the metric),
    /// summed exactly and rounded once to the nearest `f64`.
    pub fn flops(&self) -> f64 {
        self.total_flops.to_f64()
    }

    /// The parenthesization that was selected, e.g. `"(A^-1 (B C^T))"`.
    pub fn parenthesization(&self) -> &str {
        &self.paren
    }

    /// The names of the selected kernels, in execution order.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.kernel.as_str()).collect()
    }

    /// Lowers the solution to a [`Program`] for code generation or
    /// execution. The last instruction's destination is the chain result.
    pub fn program(&self) -> Program {
        Program::new(
            self.steps
                .iter()
                .map(|s| Instruction::new(s.dest.clone(), s.op.clone()))
                .collect(),
        )
    }
}

impl<C: Cost> fmt::Display for GmcSolution<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "parenthesization: {}", self.paren)?;
        for s in &self.steps {
            writeln!(f, "  {} := {}    # {}", s.dest, s.op, s.kernel)?;
        }
        write!(f, "cost: {:?}", self.total_cost.reported())
    }
}

/// The Generalized Matrix Chain optimizer.
///
/// Couples a [`KernelRegistry`] with a [`CostMetric`] and solves the
/// GMCP by bottom-up dynamic programming over symbolic expressions
/// (paper Fig. 4): for every sub-chain and split it matches the binary
/// product against the kernel set, infers the properties of the
/// temporary, and keeps the cheapest computable alternative.
///
/// # Example
///
/// ```
/// use gmc::{FlopCount, GmcOptimizer};
/// use gmc_expr::{Chain, Operand, Property};
/// use gmc_kernels::KernelRegistry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = KernelRegistry::blas_lapack();
/// let gmc = GmcOptimizer::new(&registry, FlopCount);
///
/// // Paper Table 2: X := A⁻¹ B Cᵀ, A SPD, C lower triangular.
/// let a = Operand::square("A", 2000).with_property(Property::SymmetricPositiveDefinite);
/// let b = Operand::matrix("B", 2000, 200);
/// let c = Operand::square("C", 200).with_property(Property::LowerTriangular);
/// let chain = Chain::from_expr(&(a.inverse() * b.expr() * c.transpose()))?;
///
/// let solution = gmc.solve(&chain)?;
/// assert_eq!(solution.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GmcOptimizer<'r, M> {
    registry: &'r KernelRegistry,
    metric: M,
    inference: InferenceMode,
}

impl<'r, M: CostMetric> GmcOptimizer<'r, M> {
    /// Creates an optimizer over a kernel registry with a cost metric.
    pub fn new(registry: &'r KernelRegistry, metric: M) -> Self {
        GmcOptimizer {
            registry,
            metric,
            inference: InferenceMode::Compositional,
        }
    }

    /// Selects the property-inference mode (see [`InferenceMode`]).
    #[must_use]
    pub fn with_inference(mut self, mode: InferenceMode) -> Self {
        self.inference = mode;
        self
    }

    /// The registry in use.
    pub fn registry(&self) -> &KernelRegistry {
        self.registry
    }

    /// Solves the GMCP for `chain` (paper Fig. 4).
    ///
    /// Allocates a fresh [`GmcWorkspace`]; batch callers solving many
    /// chains should hold one workspace and use
    /// [`solve_with`](Self::solve_with) to amortize the DP table
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`GmcError::NotComputable`] if no parenthesization exposes
    /// only kernel-computable binary products (possible only with
    /// restricted registries; see paper Sec. 3.4).
    pub fn solve(&self, chain: &Chain) -> Result<GmcSolution<M::Cost>, GmcError> {
        self.solve_with(chain, &mut GmcWorkspace::new())
    }

    /// Solves the GMCP for `chain` using caller-provided DP state.
    ///
    /// The DP itself allocates nothing: the table holds plain data per
    /// cell (cost, split, winning kernel, and the cell's value as a
    /// [`FactorView`]), kernel matches stream out of the registry's
    /// dispatch slot, and each candidate is costed as its kernel's
    /// operation over the two sides' views, so no operand is cloned and
    /// no operation is built. A kernel's constraints are one mask test
    /// per leaf. Property inference runs only for the winning split of
    /// each sub-chain, over the split's two views. Allocation happens
    /// once per winner on the solution tree, when
    /// [`CellGrid::solution`] names its temporary and builds its
    /// operation. The workspace is reset on entry and its buffers are
    /// reused across calls.
    ///
    /// # Errors
    ///
    /// Returns [`GmcError::NotComputable`] under the same conditions as
    /// [`solve`](Self::solve).
    pub fn solve_with(
        &self,
        chain: &Chain,
        workspace: &mut GmcWorkspace<M::Cost>,
    ) -> Result<GmcSolution<M::Cost>, GmcError> {
        let n = chain.len();
        let grid = &mut workspace.grid;
        grid.reset(chain);
        for l in 1..n {
            for i in 0..(n - l) {
                let j = i + l;
                let Some((total, k, m)) =
                    grid.select_best_split(self.registry, i, j, |op| self.metric.op_cost(op))
                else {
                    continue;
                };
                // Winner-only work: the temporary's properties are
                // needed once per cell, not once per candidate.
                let properties = grid.temp_properties(self.inference, chain, i, k, j);
                let winner = Winner::of(k, &m);
                grid.decide(i, j, total, winner, m.op.result_shape(), properties);
            }
        }
        grid.solution(self.registry, chain)
    }
}

/// Reusable DP state for [`GmcOptimizer::solve_with`]: the DP table.
///
/// Batch callers (the experiments harness, benches, the CLI) keep one
/// workspace alive and solve many chains through it, so table
/// allocation is amortized: after the first solve of the largest chain
/// length, a solve allocates only what its solution holds (one named
/// temporary and one operation per step). Kernel matching needs no
/// per-solve state. The symbolic plan cache of `gmc-plan` runs its
/// recorder and its bind-time instantiation on the same table.
#[derive(Debug)]
pub struct GmcWorkspace<C> {
    /// The DP table.
    pub grid: CellGrid<C>,
}

impl<C> GmcWorkspace<C> {
    /// Creates an empty workspace; tables grow on first use.
    pub fn new() -> Self {
        GmcWorkspace {
            grid: CellGrid {
                cells: Vec::new(),
                n: 0,
            },
        }
    }
}

impl<C> Default for GmcWorkspace<C> {
    fn default() -> Self {
        GmcWorkspace::new()
    }
}

/// The decision of an interior DP cell `M[i..=j]`: the split, the
/// kernel computing the product of the split's two sides, how it binds
/// them, and the kernel call's metric cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Winner<C> {
    /// The split `k`: `M[i..=j] = M[i..=k] · M[k+1..=j]`.
    pub split: usize,
    /// The kernel's registration index.
    pub kernel: usize,
    /// How the kernel's variables bind the two sides.
    pub wiring: Wiring,
    /// The metric cost of the kernel call.
    pub op_cost: C,
}

impl<C: Clone> Winner<C> {
    /// The decision to compute the split at `k` by the match `m`.
    pub fn of(k: usize, m: &ProductMatch<'_, C>) -> Self {
        Winner {
            split: k,
            kernel: m.index,
            wiring: m.wiring,
            op_cost: m.cost.clone(),
        }
    }
}

/// One DP cell for the sub-chain `M[i..=j]`: plain data only.
#[derive(Debug)]
struct Cell<C> {
    /// The accumulated cost; `None` if `M[i..=j]` is not computable.
    cost: Option<C>,
    /// What matching and inference read of `M[i..=j]`: the chain
    /// factor on the diagonal, the temporary in the interior.
    view: Option<FactorView>,
    /// The decision of a computable interior cell.
    winner: Option<Winner<C>>,
}

impl<C> Cell<C> {
    fn empty() -> Self {
        Cell {
            cost: None,
            view: None,
            winner: None,
        }
    }
}

/// The GMC dynamic-programming table (paper Fig. 4): one cell per
/// sub-chain `M[i..=j]`, holding its accumulated cost, its value as a
/// [`FactorView`] (shape, properties, identity), and its [`Winner`].
///
/// The table is the DP engine every solver shares. The concrete
/// [`GmcOptimizer`] fills each cell with a live split scan
/// ([`select_best_split`](Self::select_best_split)); the plan cache of
/// `gmc-plan` fills cells from recorded candidates through
/// [`best_split`](Self::best_split) or decides recorded winners
/// directly. Either way a winner enters the table through
/// [`decide`](Self::decide), and [`solution`](Self::solution) extracts
/// the kernel sequence. The selection rules therefore exist once: the
/// within-split rule in [`gmc_kernels::Rank::beats`], the across-split
/// rule in [`best_split`](Self::best_split).
///
/// Paper Fig. 4 creates a named temporary per sub-chain (`create_tmp`,
/// line 9). Here a cell's temporary is only a view, identified by
/// [`OperandId::Temp`]; [`solution`](Self::solution) is the one place
/// that names temporaries and builds operands and kernel operations,
/// for the n−1 winners on the solution tree.
///
/// Cells live in one flat, triangular-indexed allocation: cell
/// `(i, j)` with `i ≤ j` is at `i·n − i(i−1)/2 + (j − i)`.
#[derive(Debug)]
pub struct CellGrid<C> {
    cells: Vec<Cell<C>>,
    n: usize,
}

impl<C: Cost> CellGrid<C> {
    /// Clears the table for `chain` (reusing the existing allocation
    /// when it is large enough) and seeds the diagonal: leaf cells hold
    /// the factor's view at zero cost. A repeated operand is identified
    /// by the first factor carrying it.
    pub fn reset(&mut self, chain: &Chain) {
        let n = chain.len();
        self.n = n;
        let len = n * (n + 1) / 2;
        self.cells.clear();
        self.cells.resize_with(len, Cell::empty);
        let factors = chain.factors();
        for (t, factor) in factors.iter().enumerate() {
            let first = factors[..t]
                .iter()
                .position(|f| f.operand() == factor.operand())
                .unwrap_or(t);
            let cell = self.cell_mut(t, t);
            cell.view = Some(factor.view(OperandId::Factor(first)));
            cell.cost = Some(C::zero());
        }
    }

    /// The accumulated cost of `M[i..=j]`, if it is computable.
    pub fn cost(&self, i: usize, j: usize) -> Option<&C> {
        self.cell(i, j).cost.as_ref()
    }

    /// The value of `M[i..=j]` as matching and inference read it, if it
    /// is computable: the factor's view on the diagonal, the view of the
    /// cell's temporary in the interior.
    pub fn view(&self, i: usize, j: usize) -> Option<&FactorView> {
        self.cell(i, j).view.as_ref()
    }

    /// The cost of computing `M[i..=j]` as `M[i..=k] · M[k+1..=j]` by an
    /// operation costing `op_cost`, summed as `(left + right) + op`
    /// (for a metric that rounds, such as the `f64` time model, the
    /// order is part of bit-identity between solvers). `None` if a side
    /// is not computable.
    pub fn split_total(&self, i: usize, k: usize, j: usize, op_cost: &C) -> Option<C> {
        let left = self.cost(i, k)?;
        let right = self.cost(k + 1, j)?;
        Some(left.add(right).add(op_cost))
    }

    /// The across-split rule of the GMC DP: scans the splits `k` of
    /// `M[i..=j]` in ascending order and returns the cheapest as
    /// `(total, k, pick)`. For each split whose two sides are computable,
    /// `best_at(k, left, right)` proposes the split's best kernel as its
    /// operation cost and a payload, or `None` if no kernel computes the
    /// product. Only a strictly cheaper total replaces the incumbent, so
    /// the earliest split keeps ties.
    pub fn best_split<T>(
        &self,
        i: usize,
        j: usize,
        mut best_at: impl FnMut(usize, &FactorView, &FactorView) -> Option<(C, T)>,
    ) -> Option<(C, usize, T)> {
        let mut best: Option<(C, usize, T)> = None;
        for k in i..j {
            let (Some(left), Some(right)) = (self.view(i, k), self.view(k + 1, j)) else {
                continue;
            };
            let Some((op_cost, pick)) = best_at(k, left, right) else {
                continue;
            };
            let total = self
                .split_total(i, k, j, &op_cost)
                .expect("computable cells have costs");
            if best.as_ref().is_none_or(|(b, _, _)| total < *b) {
                best = Some((total, k, pick));
            }
        }
        best
    }

    /// The live split scan: the cheapest split of `M[i..=j]` under
    /// `metric`, matching each split's two views against the registry
    /// in place and computing each candidate's cost exactly once.
    pub fn select_best_split<'r>(
        &self,
        registry: &'r KernelRegistry,
        i: usize,
        j: usize,
        mut metric: impl FnMut(&KernelOp<OperandView>) -> C,
    ) -> Option<(C, usize, ProductMatch<'r, C>)> {
        self.best_split(i, j, |_, left, right| {
            registry
                .best_match(left, right, &mut metric)
                .map(|m| (m.cost.clone(), m))
        })
    }

    /// The properties of the temporary for `M[i..=j]` computed by the
    /// split at `k` (paper Fig. 4 line 10), under `mode`: inferred from
    /// the split's two views ([`infer_view_product`]), or from the
    /// unfolded sub-chain, which does not depend on `k`.
    pub fn temp_properties(
        &self,
        mode: InferenceMode,
        chain: &Chain,
        i: usize,
        k: usize,
        j: usize,
    ) -> PropertySet {
        match mode {
            InferenceMode::Compositional => {
                let left = self.view(i, k).expect("computable split");
                let right = self.view(k + 1, j).expect("computable split");
                infer_view_product(left, right)
            }
            InferenceMode::Deep => infer_properties(&Expr::times(
                (i..=j).map(|t| chain.factor(t).expr()).collect::<Vec<_>>(),
            )),
        }
    }

    /// Records the decision of interior cell `(i, j)`: `winner` at
    /// accumulated cost `total`, producing a temporary of `shape` with
    /// `properties` (less the square-only ones if `shape` is not
    /// square).
    pub fn decide(
        &mut self,
        i: usize,
        j: usize,
        total: C,
        winner: Winner<C>,
        shape: Shape,
        properties: PropertySet,
    ) {
        let cell = self.cell_mut(i, j);
        cell.cost = Some(total);
        cell.view = Some(FactorView {
            operand: OperandView::temporary(i, j, shape, properties),
            op: UnaryOp::None,
        });
        cell.winner = Some(winner);
    }

    /// Extracts the solution for the whole chain in one walk of the
    /// winning tree: the kernel sequence in dependency order (paper
    /// Fig. 7) and the parenthesization. This is where the winners'
    /// temporaries are named — `T<i>_<j>`, unless an operand of the
    /// chain is named that way (then with a longer prefix) — and their
    /// operations built.
    ///
    /// # Errors
    ///
    /// [`GmcError::NotComputable`] if the root cell is not computable.
    pub fn solution(
        &self,
        registry: &KernelRegistry,
        chain: &Chain,
    ) -> Result<GmcSolution<C>, GmcError> {
        let n = self.n;
        let Some(total_cost) = self.cost(0, n - 1).cloned() else {
            return Err(GmcError::NotComputable {
                chain: chain.to_string(),
            });
        };
        let mut out = Extraction {
            registry,
            chain,
            prefix: temp_prefix(chain),
            steps: Vec::with_capacity(n - 1),
            paren: String::new(),
        };
        self.extract(0, n - 1, &mut out);
        Ok(GmcSolution::from_parts(out.steps, total_cost, out.paren))
    }

    /// Appends the steps computing `M[i..=j]` and its parenthesization
    /// to `out`, and returns the operand holding it.
    fn extract(&self, i: usize, j: usize, out: &mut Extraction<'_, C>) -> Operand {
        if i == j {
            let factor = out.chain.factor(i);
            write!(out.paren, "{factor}").expect("string write");
            return factor.operand().clone();
        }
        let cell = self.cell(i, j);
        let (Some(winner), Some(view)) = (&cell.winner, &cell.view) else {
            unreachable!("solution cells are decided")
        };
        out.paren.push('(');
        let left = self.extract(i, winner.split, out);
        out.paren.push(' ');
        let right = self.extract(winner.split + 1, j, out);
        out.paren.push(')');
        let kernel = &out.registry.kernels()[winner.kernel];
        let dest = Operand::temporary(
            format!("{}{i}_{j}", out.prefix),
            view.operand.shape,
            view.operand.properties,
        );
        out.steps.push(Step {
            dest: dest.clone(),
            op: kernel.build(winner.wiring.bind(&left, &right)),
            kernel: kernel.name().to_owned(),
            cost: winner.op_cost.clone(),
        });
        dest
    }
}

/// What [`CellGrid::solution`] accumulates on its walk.
struct Extraction<'a, C> {
    registry: &'a KernelRegistry,
    chain: &'a Chain,
    prefix: Cow<'static, str>,
    steps: Vec<Step<C>>,
    paren: String,
}

/// The prefix of the temporaries' names: `T`, unless an operand of
/// `chain` is named like a temporary `T<i>_<j>`; then the first of
/// `T_`, `T__`, … that no operand name continues with `<i>_<j>`.
fn temp_prefix(chain: &Chain) -> Cow<'static, str> {
    let taken = |prefix: &str| {
        chain
            .factors()
            .iter()
            .any(|f| is_temp_name(f.operand().name(), prefix))
    };
    if !taken("T") {
        return Cow::Borrowed("T");
    }
    let mut prefix = String::from("T_");
    while taken(&prefix) {
        prefix.push('_');
    }
    Cow::Owned(prefix)
}

impl<C> CellGrid<C> {
    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.n, "cell ({i}, {j}) out of range");
        // Row offset: Σ_{r<i} (n − r) = i·(2n − i + 1)/2.
        i * (2 * self.n - i + 1) / 2 + (j - i)
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> &Cell<C> {
        &self.cells[self.index(i, j)]
    }

    #[inline]
    fn cell_mut(&mut self, i: usize, j: usize) -> &mut Cell<C> {
        let idx = self.index(i, j);
        &mut self.cells[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcp::matrix_chain_order;
    use crate::metric::{FlopCount, FlopsThenKernels, TimeModel};
    use gmc_expr::{Factor, Property};
    use gmc_kernels::KernelFamily;

    fn chain_of(expr: &Expr) -> Chain {
        Chain::from_expr(expr).expect("well-formed chain")
    }

    #[test]
    fn two_factor_chain() {
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 3, 4);
        let sol = gmc.solve(&chain_of(&(a.expr() * b.expr()))).unwrap();
        assert_eq!(sol.steps().len(), 1);
        assert_eq!(sol.kernel_names(), vec!["GEMM_NN"]);
        assert_eq!(sol.flops(), 48.0);
        assert_eq!(sol.parenthesization(), "(A B)");
    }

    #[test]
    fn matches_classic_mcp_on_plain_chains() {
        // On chains without operators/properties, GMC with the full
        // registry must find the classic MCP optimum.
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let sizes = [130usize, 700, 383, 1340, 193, 900];
        let ops: Vec<Operand> = (0..5)
            .map(|i| Operand::matrix(format!("M{i}"), sizes[i], sizes[i + 1]))
            .collect();
        let chain = Chain::new(ops.into_iter().map(Factor::plain).collect()).unwrap();
        let sol = gmc.solve(&chain).unwrap();
        let classic = matrix_chain_order(&sizes);
        assert_eq!(sol.flops(), classic.flops());
        assert_eq!(sol.parenthesization(), "((((M0 M1) M2) M3) M4)");
    }

    #[test]
    fn paper_table2_kernel_sequence() {
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::square("A", 2000).with_property(Property::SymmetricPositiveDefinite);
        let b = Operand::matrix("B", 2000, 200);
        let c = Operand::square("C", 200).with_property(Property::LowerTriangular);
        let chain = chain_of(&(a.inverse() * b.expr() * c.transpose()));
        let sol = gmc.solve(&chain).unwrap();
        assert_eq!(sol.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
        assert_eq!(sol.parenthesization(), "(A^-1 (B C^T))");
    }

    #[test]
    fn paper_sec32_property_changes_parenthesization() {
        // X := AᵀAB with A 20x20, B 20x15 (paper Sec. 3.2, without SYRK
        // so AᵀA is priced as a general product):
        //   (AᵀA)B with SYMM: 16000 + 6000 = 22000 flops
        //   Aᵀ(AB) with two GEMMs: 24000 flops.
        let registry = KernelRegistry::builder()
            .without_family(KernelFamily::Syrk)
            .build();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::square("A", 20);
        let b = Operand::matrix("B", 20, 15);
        let chain = chain_of(&(a.transpose() * a.expr() * b.expr()));
        let sol = gmc.solve(&chain).unwrap();
        assert_eq!(sol.flops(), 22000.0);
        assert_eq!(sol.parenthesization(), "((A^T A) B)");
        assert_eq!(sol.kernel_names(), vec!["GEMM_TN", "SYMM_LN"]);
    }

    #[test]
    fn paper_sec32_with_syrk() {
        // With SYRK in the registry, AᵀA costs half: 8000 + 6000 = 14000.
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::square("A", 20);
        let b = Operand::matrix("B", 20, 15);
        let chain = chain_of(&(a.transpose() * a.expr() * b.expr()));
        let sol = gmc.solve(&chain).unwrap();
        assert_eq!(sol.flops(), 14000.0);
        assert_eq!(sol.kernel_names(), vec!["SYRK_T", "SYMM_LN"]);
    }

    #[test]
    fn completeness_inverse_pair_via_two_solves() {
        // Paper Sec. 3.4: X := A⁻¹B⁻¹C with no kernel for X⁻¹Y⁻¹ is
        // still computable as A⁻¹(B⁻¹C).
        let registry = KernelRegistry::builder()
            .without_composite_inverse()
            .build();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::square("A", 100);
        let b = Operand::square("B", 100);
        let c = Operand::matrix("C", 100, 10);
        let chain = chain_of(&(a.inverse() * b.inverse() * c.expr()));
        let sol = gmc.solve(&chain).unwrap();
        assert_eq!(sol.parenthesization(), "(A^-1 (B^-1 C))");
        assert_eq!(sol.kernel_names(), vec!["GESV_LN", "GESV_LN"]);
    }

    #[test]
    fn not_computable_without_any_solver() {
        // Remove every kernel that can process an inverse: the chain
        // A⁻¹B becomes uncomputable.
        let registry = KernelRegistry::builder()
            .only_families([KernelFamily::Gemm])
            .build();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::square("A", 10);
        let b = Operand::matrix("B", 10, 4);
        let chain = chain_of(&(a.inverse() * b.expr()));
        assert!(matches!(
            gmc.solve(&chain),
            Err(GmcError::NotComputable { .. })
        ));
    }

    #[test]
    fn property_propagation_through_temporaries() {
        // L1 L2 B with both L lower triangular: (L1 L2) is inferred
        // lower triangular, so the second product can use TRMM again.
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let l1 = Operand::square("L1", 100).with_property(Property::LowerTriangular);
        let l2 = Operand::square("L2", 100).with_property(Property::LowerTriangular);
        let b = Operand::matrix("B", 100, 80);
        let chain = chain_of(&(l1.expr() * l2.expr() * b.expr()));
        let sol = gmc.solve(&chain).unwrap();
        // (L1 L2) B: TRMM (1e6) + TRMM via temp property (8e5·... ) —
        // check that at least one step besides the first is property
        // specialized.
        let fams: Vec<_> = sol.steps().iter().map(|s| s.op.family()).collect();
        assert!(fams.contains(&KernelFamily::Trmm));
        // The right-to-left evaluation L1 (L2 B) costs 2·TRMM(100²·80);
        // the left-first (L1 L2) B costs TRMM(100³)+TRMM(100²·80) which
        // is more. So the parenthesization is right-to-left and both
        // steps are TRMM.
        assert_eq!(sol.parenthesization(), "(L1 (L2 B))");
        assert_eq!(sol.kernel_names(), vec!["TRMM_LLN", "TRMM_LLN"]);
    }

    #[test]
    fn vector_chain_gemv_cascade() {
        // M1 M2 v1 v2ᵀ: optimal is GEMV cascade then outer product
        // (paper Sec. 4 discussion).
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let m1 = Operand::square("M1", 500);
        let m2 = Operand::square("M2", 500);
        let v1 = Operand::col_vector("v1", 500);
        let v2 = Operand::col_vector("v2", 400);
        let chain = chain_of(&(m1.expr() * m2.expr() * v1.expr() * v2.transpose()));
        let sol = gmc.solve(&chain).unwrap();
        assert_eq!(sol.parenthesization(), "((M1 (M2 v1)) v2^T)");
        assert_eq!(sol.kernel_names(), vec!["GEMV_N", "GEMV_N", "GER"]);
    }

    #[test]
    fn time_metric_can_change_the_solution() {
        // With FLOPs, a BLAS-2-heavy evaluation may win; the time model
        // penalizes BLAS-2 and can prefer keeping BLAS-3 kernels.
        let registry = KernelRegistry::blas_lapack();
        let a = Operand::matrix("A", 300, 40);
        let b = Operand::matrix("B", 40, 300);
        let c = Operand::matrix("C", 300, 40);
        let chain = chain_of(&(a.expr() * b.expr() * c.expr()));
        let flops_sol = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .unwrap();
        let time_sol = GmcOptimizer::new(&registry, TimeModel::default())
            .solve(&chain)
            .unwrap();
        // Both must be valid; FLOP counts must agree with their own
        // metric's optimum ordering.
        assert!(flops_sol.flops() <= time_sol.flops());
    }

    #[test]
    fn lexicographic_metric_minimizes_kernel_count_second() {
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopsThenKernels);
        let a = Operand::matrix("A", 10, 20);
        let b = Operand::matrix("B", 20, 30);
        let c = Operand::matrix("C", 30, 5);
        let chain = chain_of(&(a.expr() * b.expr() * c.expr()));
        let sol = gmc.solve(&chain).unwrap();
        let lex = sol.cost();
        assert_eq!(lex.1, 2.0); // two kernel calls
    }

    #[test]
    fn deep_inference_recovers_split_dependent_properties() {
        // (Aᵀ B)(Bᵀ A): compositional inference on the chosen split may
        // miss symmetry of the overall product; deep inference sees the
        // full palindrome.
        let registry = KernelRegistry::blas_lapack();
        let a = Operand::matrix("A", 60, 4);
        let b = Operand::matrix("B", 60, 4);
        let chain = chain_of(&(a.transpose() * b.expr() * b.transpose() * a.expr()));
        let deep = GmcOptimizer::new(&registry, FlopCount)
            .with_inference(InferenceMode::Deep)
            .solve(&chain)
            .unwrap();
        // Deep mode must not be worse.
        let comp = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .unwrap();
        assert!(deep.flops() <= comp.flops());
    }

    #[test]
    fn solution_program_has_one_instruction_per_step() {
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 6);
        let c = Operand::matrix("C", 6, 7);
        let chain = chain_of(&(a.expr() * b.expr() * c.expr()));
        let sol = gmc.solve(&chain).unwrap();
        let program = sol.program();
        assert_eq!(program.len(), sol.steps().len());
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_solves() {
        // Solving chains of *decreasing* length through one workspace
        // must not leak stale cells from the larger solve.
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let mut ws = GmcWorkspace::new();
        for n in [9usize, 5, 3, 2] {
            let ops: Vec<Operand> = (0..n)
                .map(|i| Operand::matrix(format!("M{i}"), 10 + 7 * i, 10 + 7 * (i + 1)))
                .collect();
            let chain = Chain::new(ops.into_iter().map(Factor::plain).collect()).unwrap();
            let fresh = gmc.solve(&chain).unwrap();
            let reused = gmc.solve_with(&chain, &mut ws).unwrap();
            assert_eq!(fresh.cost(), reused.cost());
            assert_eq!(fresh.parenthesization(), reused.parenthesization());
            assert_eq!(fresh.kernel_names(), reused.kernel_names());
        }
    }

    #[test]
    fn temporaries_never_take_an_input_name() {
        // `T` and `T_` are taken by inputs named like temporaries, so
        // the temporaries are `T__<i>_<j>`.
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::matrix("T0_1", 30, 20);
        let b = Operand::matrix("T_1_2", 20, 40);
        let c = Operand::matrix("C", 40, 10);
        let chain = chain_of(&(a.expr() * b.expr() * c.expr()));
        let sol = gmc.solve(&chain).unwrap();
        assert_eq!(sol.parenthesization(), "(T0_1 (T_1_2 C))");
        let dests: Vec<&str> = sol.steps().iter().map(|s| s.dest.name()).collect();
        assert_eq!(dests, vec!["T__1_2", "T__0_2"]);
    }

    #[test]
    fn display_lists_steps() {
        let registry = KernelRegistry::blas_lapack();
        let gmc = GmcOptimizer::new(&registry, FlopCount);
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 6);
        let chain = chain_of(&(a.expr() * b.expr()));
        let sol = gmc.solve(&chain).unwrap();
        let text = sol.to_string();
        assert!(text.contains("GEMM_NN"));
        assert!(text.contains("T0_1"));
    }
}
