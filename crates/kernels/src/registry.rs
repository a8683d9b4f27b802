//! The kernel registry `K`: the set of available kernels, dispatched by
//! the unary operators of a binary product.
//!
//! Every kernel pattern is a binary product of two unary-wrapped leaves,
//! `op(?a) · op(?b)` (paper Table 1 plus the extensions; `SYRK` is the
//! one non-linear pattern). So instead of walking a discrimination net,
//! the registry keeps 16 slots, one per (left unary, right unary) pair,
//! each listing its kernels in the order the net would visit them.
//! Each slot entry carries its kernel's constraints as two feature
//! masks, one per leaf, fixed when the table is built: matching a
//! product is a slot lookup, one feature word per leaf, and one
//! AND-compare per leaf per kernel. The scan reads the two leaves as
//! plain [`FactorView`]s; a candidate's operation is its kernel's
//! template over the leaves' views, so costing one clones no operand
//! and allocates nothing. The general matcher stays in `gmc-pattern`.

use crate::kernel::{Constraint, Kernel, KernelMatch, LeafBindings, ProductMatch, Wiring};
use crate::op::{KernelFamily, KernelOp, Side, Uplo};
use gmc_expr::{Expr, FactorView, Operand, OperandId, OperandView, Property, UnaryOp};
use gmc_pattern::{Pattern, Var};
use std::collections::BTreeSet;
use std::sync::{Arc, LazyLock};

/// The first (usually structured) pattern variable.
const X: Var = Var::new(0);
/// The second pattern variable.
const Y: Var = Var::new(1);

/// The default registry, built the first time it is used in a process.
static BLAS_LAPACK: LazyLock<KernelRegistry> = LazyLock::new(|| RegistryBuilder::default().build());

/// The set of available kernels, with a dispatch table for matching a
/// binary product against all of them at once.
///
/// A registry is a cheap handle: clones share one immutable table, and
/// every [`blas_lapack`](Self::blas_lapack) call returns the same one.
///
/// # Example
///
/// ```
/// use gmc_expr::{Operand, Property};
/// use gmc_kernels::KernelRegistry;
///
/// let registry = KernelRegistry::blas_lapack();
/// let l = Operand::square("L", 10).with_property(Property::LowerTriangular);
/// let b = Operand::matrix("B", 10, 4);
/// let matches = registry.match_expr(&(l.inverse() * b.expr()));
/// // TRSM (m²n) and GESV (2/3·m³ + 2m²n) both apply; TRSM is cheaper.
/// let best = matches
///     .iter()
///     .min_by(|p, q| p.flops().total_cmp(&q.flops()))
///     .unwrap();
/// assert_eq!(best.kernel.name(), "TRSM_LLN");
/// ```
#[derive(Clone, Debug)]
pub struct KernelRegistry {
    table: Arc<Table>,
}

#[derive(Debug)]
struct Table {
    kernels: Vec<Kernel>,
    /// The kernels of each (left unary, right unary) pair, indexed by
    /// [`slot`], in discrimination-net visit order.
    slots: [Vec<Entry>; 16],
}

/// A kernel in its dispatch slot: the pattern `op(?a) · op(?b)` reduced
/// to how its variables bind the two leaves, and its constraints reduced
/// to the [`features`] each leaf must have.
#[derive(Clone, Copy, Debug)]
struct Entry {
    /// The kernel's registration index.
    index: usize,
    /// How the pattern's variables bind the two leaves.
    wiring: Wiring,
    /// The feature bits the left leaf must have.
    left_needs: u32,
    /// The feature bits the right leaf must have.
    right_needs: u32,
}

/// The feature bit of a column vector (`n×1`, n > 1).
const COL_VECTOR: u32 = 1 << 16;
/// The feature bit of an operand that is not a vector.
const NOT_VECTOR: u32 = 1 << 17;

/// What an operand offers a kernel's constraints: its property bits
/// (bit `p as u16` for property `p`) and the two shape bits, decided by
/// the [`Shape`](gmc_expr::Shape) predicates [`Constraint::check`] uses.
fn features(operand: &OperandView) -> u32 {
    let shape = operand.shape;
    let mut bits = u32::from(operand.properties.bits());
    if shape.is_col_vector() {
        bits |= COL_VECTOR;
    }
    if !shape.is_vector() {
        bits |= NOT_VECTOR;
    }
    bits
}

/// The masks of `kernel`'s left and right leaves, which bind `left` and
/// `right`: each constraint asks the [`features`] bit of its property or
/// shape test of the leaf that binds its variable. A leaf passes the
/// constraints on it iff it has every bit of its mask.
///
/// # Panics
///
/// If a constraint names a variable neither leaf binds.
fn masks(kernel: &Kernel, left: Var, right: Var) -> (u32, u32) {
    let (mut l, mut r) = (0, 0);
    for c in kernel.constraints() {
        let (v, bits) = match *c {
            Constraint::Has(v, p) => (v, 1 << (p as u32)),
            Constraint::IsColVector(v) => (v, COL_VECTOR),
            Constraint::IsNotVector(v) => (v, NOT_VECTOR),
        };
        assert!(
            v == left || v == right,
            "kernel {}: constraint `{c}` names a variable its pattern does not bind",
            kernel.name()
        );
        if v == left {
            l |= bits;
        }
        if v == right {
            r |= bits;
        }
    }
    (l, r)
}

/// The dispatch slot of a product whose factors carry `left` and `right`.
fn slot(left: UnaryOp, right: UnaryOp) -> usize {
    4 * left as usize + right as usize
}

/// A product factor as a unary operator over a leaf operand; `None` for
/// anything else (a product, a sum, a unary over a non-leaf).
fn leaf(e: &Expr) -> Option<(UnaryOp, &Operand)> {
    let (op, inner) = match e {
        Expr::Symbol(operand) => return Some((UnaryOp::None, operand)),
        Expr::Transpose(inner) => (UnaryOp::Transpose, inner),
        Expr::Inverse(inner) => (UnaryOp::Inverse, inner),
        Expr::InverseTranspose(inner) => (UnaryOp::InverseTranspose, inner),
        Expr::Times(_) | Expr::Plus(_) => return None,
    };
    match &**inner {
        Expr::Symbol(operand) => Some((op, operand)),
        _ => None,
    }
}

/// The views of a binary product's two factors, with their operands, if
/// both are leaves: the left operand is `Factor(0)`, the right one
/// `Factor(0)` too if it is the same operand, else `Factor(1)`.
fn leaf_views<'e>(
    left: &'e Expr,
    right: &'e Expr,
) -> Option<(&'e Operand, &'e Operand, FactorView, FactorView)> {
    let ((lu, l), (ru, r)) = (leaf(left)?, leaf(right)?);
    let rid = OperandId::Factor(usize::from(l != r));
    Some((
        l,
        r,
        FactorView {
            operand: l.view(OperandId::Factor(0)),
            op: lu,
        },
        FactorView {
            operand: r.view(rid),
            op: ru,
        },
    ))
}

/// The two factors of a binary product expression.
fn binary_factors(expr: &Expr) -> Option<(&Expr, &Expr)> {
    match expr {
        Expr::Times(factors) => match factors.as_slice() {
            [left, right] => Some((left, right)),
            _ => None,
        },
        _ => None,
    }
}

/// A kernel pattern `op(?a) · op(?b)` as `(left unary, left variable,
/// right unary, right variable)`.
type ProductPattern = (UnaryOp, Var, UnaryOp, Var);

/// `pattern` as a [`ProductPattern`] binding `?0` and, unless it
/// repeats `?0`, `?1`; `None` for any other pattern.
fn product_pattern(pattern: &Pattern) -> Option<ProductPattern> {
    fn leaf(p: &Pattern) -> Option<(UnaryOp, Var)> {
        let (op, inner) = match p {
            Pattern::Wildcard(v) => return Some((UnaryOp::None, *v)),
            Pattern::Transpose(inner) => (UnaryOp::Transpose, inner),
            Pattern::Inverse(inner) => (UnaryOp::Inverse, inner),
            Pattern::InverseTranspose(inner) => (UnaryOp::InverseTranspose, inner),
            Pattern::Times(_) | Pattern::Plus(_) => return None,
        };
        match **inner {
            Pattern::Wildcard(v) => Some((op, v)),
            _ => None,
        }
    }
    let Pattern::Times(factors) = pattern else {
        return None;
    };
    let [l, r] = factors.as_slice() else {
        return None;
    };
    let ((lu, lv), (ru, rv)) = (leaf(l)?, leaf(r)?);
    matches!((lv.index(), rv.index()), (0, 1) | (1, 0) | (0, 0)).then_some((lu, lv, ru, rv))
}

impl Table {
    /// Fills the dispatch slots of `kernels`.
    ///
    /// Within a slot, kernels are in the order a discrimination net over
    /// their patterns visits them, which the plan recorder's candidate
    /// order depends on. The net's trie creates the edge for a left leaf
    /// `(unary, variable)` when the first kernel with that left leaf is
    /// inserted, then the edge for the right leaf under it likewise, and
    /// lists the patterns ending at one node in insertion order. So the
    /// sort keys are: the first registration index with the same left
    /// leaf, the first with the same left and right leaves, and the
    /// kernel's own index.
    ///
    /// Each entry carries its kernel's [`masks`].
    ///
    /// # Panics
    ///
    /// If a pattern is not `op(?0) · op(?1)`, `op(?1) · op(?0)` or
    /// `op(?0) · op(?0)`, or if a constraint names a variable its
    /// pattern does not bind.
    fn new(kernels: Vec<Kernel>) -> Table {
        let patterns: Vec<ProductPattern> = kernels
            .iter()
            .map(|k| {
                product_pattern(k.pattern()).unwrap_or_else(|| {
                    panic!(
                        "kernel {}: pattern `{}` is not op(?a) · op(?b) binding ?0 (and ?1)",
                        k.name(),
                        k.pattern()
                    )
                })
            })
            .collect();
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        order.sort_by_cached_key(|&index| {
            let (lu, lv, ..) = patterns[index];
            let left = patterns.iter().position(|p| (p.0, p.1) == (lu, lv));
            let both = patterns.iter().position(|p| *p == patterns[index]);
            (left, both, index)
        });
        let mut slots: [Vec<Entry>; 16] = Default::default();
        for index in order {
            let (lu, left, ru, right) = patterns[index];
            let (left_needs, right_needs) = masks(&kernels[index], left, right);
            let wiring = if left == right {
                Wiring::Same
            } else if left == X {
                Wiring::LeftRight
            } else {
                Wiring::RightLeft
            };
            slots[slot(lu, ru)].push(Entry {
                index,
                wiring,
                left_needs,
                right_needs,
            });
        }
        Table { kernels, slots }
    }
}

impl KernelRegistry {
    /// The full BLAS/LAPACK-style registry used by the paper's
    /// evaluation: GEMM, TRMM, SYMM, TRSM, SYRK, solvers (GESV/POSV),
    /// diagonal kernels, the BLAS-2 vector kernels, identity elimination
    /// and the composite inverse-pair kernel (paper Sec. 5 assumes one
    /// exists).
    ///
    /// The table is built on the first call in a process; every call
    /// returns a handle to it.
    pub fn blas_lapack() -> Self {
        BLAS_LAPACK.clone()
    }

    /// A registry containing only the plain `GEMM_NN` kernel — the
    /// classic matrix chain problem setting (paper Sec. 2).
    pub fn mcp_only() -> Self {
        let plain = RegistryBuilder::default()
            .only_families([KernelFamily::Gemm])
            .kernels()
            .into_iter()
            .filter(|k| k.name() == "GEMM_NN")
            .collect();
        KernelRegistry {
            table: Arc::new(Table::new(plain)),
        }
    }

    /// Starts building a customized registry.
    pub fn builder() -> RegistryBuilder {
        RegistryBuilder::default()
    }

    /// All kernels, in registration order.
    pub fn kernels(&self) -> &[Kernel] {
        &self.table.kernels
    }

    /// Number of kernels.
    pub fn len(&self) -> usize {
        self.table.kernels.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.table.kernels.is_empty()
    }

    /// Matches `expr` against every kernel; returns all matches whose
    /// constraints are satisfied, with instantiated operations, in
    /// registration order. Only a binary product can match.
    pub fn match_expr(&self, expr: &Expr) -> Vec<KernelMatch<'_>> {
        let mut matches = Vec::new();
        if let Some((left, right)) = binary_factors(expr) {
            self.for_each_product_match(left, right, |index, kernel, binds| {
                let op = kernel.build(binds);
                matches.push((index, KernelMatch { kernel, op }));
            });
        }
        matches.sort_unstable_by_key(|(index, _)| *index);
        matches.into_iter().map(|(_, m)| m).collect()
    }

    /// Renders the full registry as a Markdown table (name, pattern,
    /// constraints) — the generalized version of the paper's Table 1,
    /// in registration order.
    pub fn describe(&self) -> String {
        let mut out = String::from("| kernel | pattern | constraints |\n|---|---|---|\n");
        for k in self.kernels() {
            let constraints = if k.constraints().is_empty() {
                "—".to_owned()
            } else {
                k.constraints()
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            out.push_str(&format!(
                "| {} | `{}` | {} |\n",
                k.name(),
                k.pattern(),
                constraints
            ));
        }
        out
    }

    /// The match minimizing FLOPs under the within-split rule
    /// ([`Rank::beats`](crate::Rank::beats)): equal costs go to the more
    /// specific kernel (so `GEMV` beats `GEMM` on matrix-vector products
    /// of equal cost), then to the earlier registered one.
    pub fn best_by_flops(&self, expr: &Expr) -> Option<KernelMatch<'_>> {
        let (left, right) = binary_factors(expr)?;
        let (l, r, lv, rv) = leaf_views(left, right)?;
        self.best_match(&lv, &rv, KernelOp::flop_count)
            .map(|m| KernelMatch {
                kernel: m.kernel,
                op: m.kernel.build(m.wiring.bind(l, r)),
            })
    }

    /// [`best_match`](Self::best_match) for the binary product
    /// `left · right` of two expressions: each factor must be a leaf
    /// operand, optionally under one unary operator, or nothing
    /// matches.
    pub fn best_product_match<C, F>(
        &self,
        left: &Expr,
        right: &Expr,
        metric: F,
    ) -> Option<ProductMatch<'_, C>>
    where
        C: PartialOrd,
        F: FnMut(&KernelOp<OperandView>) -> C,
    {
        let (_, _, lv, rv) = leaf_views(left, right)?;
        self.best_match(&lv, &rv, metric)
    }

    /// The cheapest kernel for the binary product of two factor views
    /// under `metric` — the GMC hot path.
    ///
    /// A fold over [`for_each_match`](Self::for_each_match): each
    /// candidate's operation is its kernel's template over the two
    /// leaves' views, so no operand is cloned and nothing is allocated.
    /// Each candidate's cost is computed exactly once and the winner's
    /// is returned in the [`ProductMatch`]. The winner is chosen by the
    /// within-split rule, [`Rank::beats`](crate::Rank::beats).
    pub fn best_match<C, F>(
        &self,
        left: &FactorView,
        right: &FactorView,
        mut metric: F,
    ) -> Option<ProductMatch<'_, C>>
    where
        C: PartialOrd,
        F: FnMut(&KernelOp<OperandView>) -> C,
    {
        let mut best: Option<ProductMatch<'_, C>> = None;
        self.for_each_match(left, right, |index, kernel, wiring| {
            let op = kernel.op(wiring.bind(left.operand, right.operand));
            let cost = metric(&op);
            // The rule's registration index makes the winner
            // independent of the visit order.
            let replace = best.as_ref().is_none_or(|incumbent| {
                kernel
                    .rank(index, &cost)
                    .beats(&incumbent.kernel.rank(incumbent.index, &incumbent.cost))
            });
            if replace {
                best = Some(ProductMatch {
                    kernel,
                    index,
                    wiring,
                    op,
                    cost,
                });
            }
        });
        best
    }

    /// Streams *every* constraint-satisfying kernel match for the
    /// binary product `left · right` of two expressions, with the
    /// operands each binds, in the order of
    /// [`for_each_match`](Self::for_each_match), which it runs on the
    /// factors' views. Each factor must be a leaf operand, optionally
    /// under one unary operator; any other factor (a product, a sum, a
    /// unary over a non-leaf) matches no kernel.
    pub fn for_each_product_match<'r, 'e, F>(
        &'r self,
        left: &'e Expr,
        right: &'e Expr,
        mut visit: F,
    ) where
        F: FnMut(usize, &'r Kernel, LeafBindings<&'e Operand>),
    {
        let Some((l, r, lv, rv)) = leaf_views(left, right) else {
            return;
        };
        self.for_each_match(&lv, &rv, |index, kernel, wiring| {
            visit(index, kernel, wiring.bind(l, r));
        });
    }

    /// Streams *every* constraint-satisfying kernel match for the
    /// binary product of two factor views, without instantiating
    /// operations or computing costs.
    ///
    /// `visit` receives the kernel's registration index (its position
    /// in [`kernels`](Self::kernels)), the kernel, and how its variables
    /// bind the two leaves, in the order a discrimination net over the
    /// kernels' patterns would yield them. This is the one scan behind
    /// every matcher of the registry; the symbolic plan recorder of
    /// `gmc-plan` uses it to capture the full candidate set of a DP cell
    /// once, so later instantiations can re-rank candidates by evaluated
    /// cost without re-matching.
    ///
    /// The scan builds no binding set and evaluates no [`Constraint`]:
    /// each leaf's features are computed once, and a kernel is a
    /// candidate iff each leaf has its slot entry's mask (and, for
    /// `SYRK`, the two leaves are the same operand).
    pub fn for_each_match<'r, F>(&'r self, left: &FactorView, right: &FactorView, mut visit: F)
    where
        F: FnMut(usize, &'r Kernel, Wiring),
    {
        let (lf, rf) = (features(&left.operand), features(&right.operand));
        for entry in &self.table.slots[slot(left.op, right.op)] {
            if lf & entry.left_needs != entry.left_needs
                || rf & entry.right_needs != entry.right_needs
                || (entry.wiring == Wiring::Same && left.operand.id != right.operand.id)
            {
                continue;
            }
            visit(entry.index, &self.table.kernels[entry.index], entry.wiring);
        }
    }
}

/// Configures which kernels go into a [`KernelRegistry`].
///
/// Used for ablations (e.g. reproducing the paper's Sec. 3.2 example,
/// which prices `AᵀA` as a general product, requires excluding `SYRK`)
/// and for the completeness experiment of Sec. 3.4 (no composite
/// inverse-pair kernel).
#[derive(Debug, Clone, Default)]
pub struct RegistryBuilder {
    excluded: BTreeSet<KernelFamily>,
    only: Option<BTreeSet<KernelFamily>>,
    no_composite_inverse: bool,
}

impl RegistryBuilder {
    /// Excludes a kernel family.
    #[must_use]
    pub fn without_family(mut self, family: KernelFamily) -> Self {
        self.excluded.insert(family);
        self
    }

    /// Keeps only the given families.
    #[must_use]
    pub fn only_families(mut self, families: impl IntoIterator<Item = KernelFamily>) -> Self {
        self.only = Some(families.into_iter().collect());
        self
    }

    /// Excludes the composite `op(A)⁻¹·op(B)⁻¹` kernel, reproducing the
    /// completeness scenario of paper Sec. 3.4.
    #[must_use]
    pub fn without_composite_inverse(mut self) -> Self {
        self.no_composite_inverse = true;
        self
    }

    fn wants(&self, family: KernelFamily) -> bool {
        if let Some(only) = &self.only {
            if !only.contains(&family) {
                return false;
            }
        }
        if self.excluded.contains(&family) {
            return false;
        }
        if family == KernelFamily::InvPair && self.no_composite_inverse {
            return false;
        }
        true
    }

    /// Builds a registry with its own table.
    ///
    /// # Panics
    ///
    /// If a kernel pattern is not a binary product of two leaves under
    /// at most one unary operator each (no registered kernel triggers
    /// this).
    pub fn build(self) -> KernelRegistry {
        KernelRegistry {
            table: Arc::new(Table::new(self.kernels())),
        }
    }

    /// The kernels [`build`](Self::build) registers, in registration
    /// order.
    fn kernels(self) -> Vec<Kernel> {
        let mut kernels: Vec<Kernel> = Vec::new();

        // Factor pattern with a unary operator applied to a variable.
        fn fp(v: Var, op: UnaryOp) -> Pattern {
            match op {
                UnaryOp::None => Pattern::var(v),
                UnaryOp::Transpose => Pattern::transpose(Pattern::var(v)),
                UnaryOp::Inverse => Pattern::inverse(Pattern::var(v)),
                UnaryOp::InverseTranspose => Pattern::inverse_transpose(Pattern::var(v)),
            }
        }
        fn tname(t: bool) -> &'static str {
            if t {
                "T"
            } else {
                "N"
            }
        }

        // ---- GEMM: the four transpose variants. -----------------------
        if self.wants(KernelFamily::Gemm) {
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                let lp = fp(
                    X,
                    if ta {
                        UnaryOp::Transpose
                    } else {
                        UnaryOp::None
                    },
                );
                let rp = fp(
                    Y,
                    if tb {
                        UnaryOp::Transpose
                    } else {
                        UnaryOp::None
                    },
                );
                kernels.push(Kernel::new(
                    format!("GEMM_{}{}", tname(ta), tname(tb)),
                    KernelFamily::Gemm,
                    Pattern::times2(lp, rp),
                    vec![],
                    0,
                    KernelOp::Gemm { ta, tb, a: X, b: Y },
                ));
            }
        }

        // ---- TRMM: side × uplo × trans. --------------------------------
        if self.wants(KernelFamily::Trmm) {
            for side in [Side::Left, Side::Right] {
                for (uplo, prop) in [
                    (Uplo::Lower, Property::LowerTriangular),
                    (Uplo::Upper, Property::UpperTriangular),
                ] {
                    for trans in [false, true] {
                        let xop = if trans {
                            UnaryOp::Transpose
                        } else {
                            UnaryOp::None
                        };
                        let pattern = match side {
                            Side::Left => Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                            Side::Right => Pattern::times2(fp(Y, UnaryOp::None), fp(X, xop)),
                        };
                        let s = if side == Side::Left { "L" } else { "R" };
                        let u = if uplo == Uplo::Lower { "L" } else { "U" };
                        kernels.push(Kernel::new(
                            format!("TRMM_{}{}{}", s, u, tname(trans)),
                            KernelFamily::Trmm,
                            pattern,
                            vec![Constraint::Has(X, prop)],
                            2,
                            KernelOp::Trmm {
                                side,
                                uplo,
                                trans,
                                a: X,
                                b: Y,
                            },
                        ));
                    }
                }
            }
        }

        // ---- SYMM: side × (plain or transposed symmetric operand). ----
        if self.wants(KernelFamily::Symm) {
            for side in [Side::Left, Side::Right] {
                for trans in [false, true] {
                    let xop = if trans {
                        UnaryOp::Transpose
                    } else {
                        UnaryOp::None
                    };
                    let pattern = match side {
                        Side::Left => Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                        Side::Right => Pattern::times2(fp(Y, UnaryOp::None), fp(X, xop)),
                    };
                    let s = if side == Side::Left { "L" } else { "R" };
                    kernels.push(Kernel::new(
                        format!("SYMM_{}{}", s, tname(trans)),
                        KernelFamily::Symm,
                        pattern,
                        vec![Constraint::Has(X, Property::Symmetric)],
                        2,
                        KernelOp::Symm { side, a: X, b: Y },
                    ));
                }
            }
        }

        // ---- TRSM: side × uplo × trans (inverted triangular operand). -
        if self.wants(KernelFamily::Trsm) {
            for side in [Side::Left, Side::Right] {
                for (uplo, prop) in [
                    (Uplo::Lower, Property::LowerTriangular),
                    (Uplo::Upper, Property::UpperTriangular),
                ] {
                    for trans in [false, true] {
                        for tb in [false, true] {
                            let xop = if trans {
                                UnaryOp::InverseTranspose
                            } else {
                                UnaryOp::Inverse
                            };
                            let yop = if tb {
                                UnaryOp::Transpose
                            } else {
                                UnaryOp::None
                            };
                            let pattern = match side {
                                Side::Left => Pattern::times2(fp(X, xop), fp(Y, yop)),
                                Side::Right => Pattern::times2(fp(Y, yop), fp(X, xop)),
                            };
                            let s = if side == Side::Left { "L" } else { "R" };
                            let u = if uplo == Uplo::Lower { "L" } else { "U" };
                            let suffix = if tb { "_TB" } else { "" };
                            kernels.push(Kernel::new(
                                format!("TRSM_{}{}{}{}", s, u, tname(trans), suffix),
                                KernelFamily::Trsm,
                                pattern,
                                vec![Constraint::Has(X, prop)],
                                2,
                                KernelOp::Trsm {
                                    side,
                                    uplo,
                                    trans,
                                    tb,
                                    a: X,
                                    b: Y,
                                },
                            ));
                        }
                    }
                }
            }
        }

        // ---- SYRK: XᵀX and XXᵀ (non-linear patterns). ------------------
        if self.wants(KernelFamily::Syrk) {
            kernels.push(Kernel::new(
                "SYRK_T",
                KernelFamily::Syrk,
                Pattern::times2(fp(X, UnaryOp::Transpose), fp(X, UnaryOp::None)),
                vec![],
                3,
                KernelOp::Syrk { trans: true, a: X },
            ));
            kernels.push(Kernel::new(
                "SYRK_N",
                KernelFamily::Syrk,
                Pattern::times2(fp(X, UnaryOp::None), fp(X, UnaryOp::Transpose)),
                vec![],
                3,
                KernelOp::Syrk { trans: false, a: X },
            ));
        }

        // ---- GESV: general solves, both sides, optional transpose. ----
        if self.wants(KernelFamily::Gesv) {
            for side in [Side::Left, Side::Right] {
                for trans in [false, true] {
                    for tb in [false, true] {
                        let xop = if trans {
                            UnaryOp::InverseTranspose
                        } else {
                            UnaryOp::Inverse
                        };
                        let yop = if tb {
                            UnaryOp::Transpose
                        } else {
                            UnaryOp::None
                        };
                        let pattern = match side {
                            Side::Left => Pattern::times2(fp(X, xop), fp(Y, yop)),
                            Side::Right => Pattern::times2(fp(Y, yop), fp(X, xop)),
                        };
                        let s = if side == Side::Left { "L" } else { "R" };
                        let suffix = if tb { "_TB" } else { "" };
                        kernels.push(Kernel::new(
                            format!("GESV_{}{}{}", s, tname(trans), suffix),
                            KernelFamily::Gesv,
                            pattern,
                            vec![],
                            1,
                            KernelOp::Gesv {
                                side,
                                trans,
                                tb,
                                a: X,
                                b: Y,
                            },
                        ));
                    }
                }
            }
        }

        // ---- POSV: SPD solves (transpose of SPD is itself). ------------
        if self.wants(KernelFamily::Posv) {
            for side in [Side::Left, Side::Right] {
                for trans in [false, true] {
                    for tb in [false, true] {
                        let xop = if trans {
                            UnaryOp::InverseTranspose
                        } else {
                            UnaryOp::Inverse
                        };
                        let yop = if tb {
                            UnaryOp::Transpose
                        } else {
                            UnaryOp::None
                        };
                        let pattern = match side {
                            Side::Left => Pattern::times2(fp(X, xop), fp(Y, yop)),
                            Side::Right => Pattern::times2(fp(Y, yop), fp(X, xop)),
                        };
                        let s = if side == Side::Left { "L" } else { "R" };
                        let suffix = if tb { "_TB" } else { "" };
                        kernels.push(Kernel::new(
                            format!("POSV_{}{}{}", s, tname(trans), suffix),
                            KernelFamily::Posv,
                            pattern,
                            vec![Constraint::Has(X, Property::SymmetricPositiveDefinite)],
                            2,
                            KernelOp::Posv {
                                side,
                                tb,
                                a: X,
                                b: Y,
                            },
                        ));
                    }
                }
            }
        }

        // ---- Diagonal multiplies and solves. ---------------------------
        if self.wants(KernelFamily::Diag) {
            for side in [Side::Left, Side::Right] {
                for (inv, ops) in [
                    (false, [UnaryOp::None, UnaryOp::Transpose]),
                    (true, [UnaryOp::Inverse, UnaryOp::InverseTranspose]),
                ] {
                    for xop in ops {
                        for tb in [false, true] {
                            let yop = if tb {
                                UnaryOp::Transpose
                            } else {
                                UnaryOp::None
                            };
                            let pattern = match side {
                                Side::Left => Pattern::times2(fp(X, xop), fp(Y, yop)),
                                Side::Right => Pattern::times2(fp(Y, yop), fp(X, xop)),
                            };
                            let s = if side == Side::Left { "L" } else { "R" };
                            let name = if inv { "DGSV" } else { "DGMM" };
                            let suffix = if tb { "_TB" } else { "" };
                            kernels.push(Kernel::new(
                                format!("{}_{}{}{}", name, s, tname(xop.is_transposed()), suffix),
                                KernelFamily::Diag,
                                pattern,
                                vec![Constraint::Has(X, Property::Diagonal)],
                                4,
                                KernelOp::Diag {
                                    side,
                                    inv,
                                    tb,
                                    d: X,
                                    b: Y,
                                },
                            ));
                        }
                    }
                }
            }
        }

        // ---- BLAS 2: matrix-vector kernels. ----------------------------
        if self.wants(KernelFamily::Gemv) {
            for trans in [false, true] {
                let xop = if trans {
                    UnaryOp::Transpose
                } else {
                    UnaryOp::None
                };
                kernels.push(Kernel::new(
                    format!("GEMV_{}", tname(trans)),
                    KernelFamily::Gemv,
                    Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                    vec![Constraint::IsNotVector(X), Constraint::IsColVector(Y)],
                    5,
                    KernelOp::Gemv { trans, a: X, x: Y },
                ));
            }
        }
        if self.wants(KernelFamily::Trmv) {
            for (uplo, prop) in [
                (Uplo::Lower, Property::LowerTriangular),
                (Uplo::Upper, Property::UpperTriangular),
            ] {
                for trans in [false, true] {
                    let xop = if trans {
                        UnaryOp::Transpose
                    } else {
                        UnaryOp::None
                    };
                    let u = if uplo == Uplo::Lower { "L" } else { "U" };
                    kernels.push(Kernel::new(
                        format!("TRMV_{}{}", u, tname(trans)),
                        KernelFamily::Trmv,
                        Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                        vec![Constraint::Has(X, prop), Constraint::IsColVector(Y)],
                        6,
                        KernelOp::Trmv {
                            uplo,
                            trans,
                            a: X,
                            x: Y,
                        },
                    ));
                }
            }
        }
        if self.wants(KernelFamily::Symv) {
            for trans in [false, true] {
                let xop = if trans {
                    UnaryOp::Transpose
                } else {
                    UnaryOp::None
                };
                kernels.push(Kernel::new(
                    format!("SYMV_{}", tname(trans)),
                    KernelFamily::Symv,
                    Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                    vec![
                        Constraint::Has(X, Property::Symmetric),
                        Constraint::IsColVector(Y),
                    ],
                    6,
                    KernelOp::Symv { a: X, x: Y },
                ));
            }
        }
        if self.wants(KernelFamily::Trsv) {
            for (uplo, prop) in [
                (Uplo::Lower, Property::LowerTriangular),
                (Uplo::Upper, Property::UpperTriangular),
            ] {
                for trans in [false, true] {
                    let xop = if trans {
                        UnaryOp::InverseTranspose
                    } else {
                        UnaryOp::Inverse
                    };
                    let u = if uplo == Uplo::Lower { "L" } else { "U" };
                    kernels.push(Kernel::new(
                        format!("TRSV_{}{}", u, tname(trans)),
                        KernelFamily::Trsv,
                        Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                        vec![Constraint::Has(X, prop), Constraint::IsColVector(Y)],
                        6,
                        KernelOp::Trsv {
                            uplo,
                            trans,
                            a: X,
                            x: Y,
                        },
                    ));
                }
            }
        }

        // ---- GER (outer product) and DOT (inner product). --------------
        if self.wants(KernelFamily::Ger) {
            kernels.push(Kernel::new(
                "GER",
                KernelFamily::Ger,
                Pattern::times2(fp(X, UnaryOp::None), fp(Y, UnaryOp::Transpose)),
                vec![Constraint::IsColVector(X), Constraint::IsColVector(Y)],
                6,
                KernelOp::Ger { x: X, y: Y },
            ));
        }
        if self.wants(KernelFamily::Dot) {
            kernels.push(Kernel::new(
                "DOT",
                KernelFamily::Dot,
                Pattern::times2(fp(X, UnaryOp::Transpose), fp(Y, UnaryOp::None)),
                vec![Constraint::IsColVector(X), Constraint::IsColVector(Y)],
                6,
                KernelOp::Dot { x: X, y: Y },
            ));
        }

        // ---- Identity elimination (extension). -------------------------
        if self.wants(KernelFamily::Copy) {
            for side in [Side::Left, Side::Right] {
                for xop in [
                    UnaryOp::None,
                    UnaryOp::Transpose,
                    UnaryOp::Inverse,
                    UnaryOp::InverseTranspose,
                ] {
                    let pattern = match side {
                        Side::Left => Pattern::times2(fp(X, xop), fp(Y, UnaryOp::None)),
                        Side::Right => Pattern::times2(fp(Y, UnaryOp::None), fp(X, xop)),
                    };
                    let s = if side == Side::Left { "L" } else { "R" };
                    kernels.push(Kernel::new(
                        format!("COPY_{}{}", s, xop.suffix().trim_start_matches('^')),
                        KernelFamily::Copy,
                        pattern,
                        vec![Constraint::Has(X, Property::Identity)],
                        7,
                        KernelOp::Copy { b: Y },
                    ));
                }
            }
        }

        // ---- Composite inverse-pair kernel (paper Sec. 5). --------------
        if self.wants(KernelFamily::InvPair) {
            for ta in [false, true] {
                for tb in [false, true] {
                    let lop = if ta {
                        UnaryOp::InverseTranspose
                    } else {
                        UnaryOp::Inverse
                    };
                    let rop = if tb {
                        UnaryOp::InverseTranspose
                    } else {
                        UnaryOp::Inverse
                    };
                    kernels.push(Kernel::new(
                        format!("INVPAIR_{}{}", tname(ta), tname(tb)),
                        KernelFamily::InvPair,
                        Pattern::times2(fp(X, lop), fp(Y, rop)),
                        vec![],
                        0,
                        KernelOp::InvPair { ta, tb, a: X, b: Y },
                    ));
                }
            }
        }

        kernels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> KernelRegistry {
        KernelRegistry::blas_lapack()
    }

    #[test]
    fn registry_is_substantial() {
        let r = registry();
        assert!(r.len() >= 60, "expected a full registry, got {}", r.len());
    }

    #[test]
    fn plain_product_matches_only_gemm_for_general_operands() {
        let r = registry();
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 6);
        let ms = r.match_expr(&(a.expr() * b.expr()));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].kernel.name(), "GEMM_NN");
    }

    #[test]
    fn triangular_product_prefers_trmm() {
        let r = registry();
        let l = Operand::square("L", 10).with_property(Property::LowerTriangular);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(l.expr() * b.expr())).unwrap();
        assert_eq!(best.kernel.name(), "TRMM_LLN");
        // GEMM also matches, with double the cost.
        let ms = r.match_expr(&(l.expr() * b.expr()));
        assert!(ms.iter().any(|m| m.kernel.name() == "GEMM_NN"));
    }

    #[test]
    fn transposed_triangular_flips_nothing_but_trans_flag() {
        let r = registry();
        let u = Operand::square("U", 10).with_property(Property::UpperTriangular);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(u.transpose() * b.expr())).unwrap();
        assert_eq!(best.kernel.name(), "TRMM_LUT");
    }

    #[test]
    fn spd_solve_prefers_posv_over_gesv() {
        let r = registry();
        let a = Operand::square("A", 10).with_property(Property::SymmetricPositiveDefinite);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(a.inverse() * b.expr())).unwrap();
        assert_eq!(best.kernel.name(), "POSV_LN");
    }

    #[test]
    fn general_solve_falls_back_to_gesv() {
        let r = registry();
        let a = Operand::square("A", 10);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(a.inverse() * b.expr())).unwrap();
        assert_eq!(best.kernel.name(), "GESV_LN");
        // A transposed right-hand side selects the _TB variant.
        let best = r
            .best_by_flops(&(b.transpose() * a.inverse_transpose()))
            .unwrap();
        assert_eq!(best.kernel.name(), "GESV_RT_TB");
    }

    #[test]
    fn diagonal_wins_over_everything() {
        let r = registry();
        let d = Operand::square("D", 10).with_property(Property::Diagonal);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(d.expr() * b.expr())).unwrap();
        assert_eq!(best.kernel.family(), KernelFamily::Diag);
        let best = r.best_by_flops(&(d.inverse() * b.expr())).unwrap();
        assert_eq!(best.kernel.name(), "DGSV_LN");
    }

    #[test]
    fn syrk_beats_gemm_on_gram_products() {
        let r = registry();
        let a = Operand::matrix("A", 20, 15);
        let best = r.best_by_flops(&(a.transpose() * a.expr())).unwrap();
        assert_eq!(best.kernel.name(), "SYRK_T");
        let best = r.best_by_flops(&(a.expr() * a.transpose())).unwrap();
        assert_eq!(best.kernel.name(), "SYRK_N");
        // Different operands: no SYRK.
        let b = Operand::matrix("B", 20, 15);
        let ms = r.match_expr(&(a.transpose() * b.expr()));
        assert!(ms.iter().all(|m| m.kernel.family() != KernelFamily::Syrk));
    }

    #[test]
    fn matrix_vector_prefers_gemv_on_tie() {
        let r = registry();
        let a = Operand::matrix("A", 10, 20);
        let x = Operand::col_vector("x", 20);
        let best = r.best_by_flops(&(a.expr() * x.expr())).unwrap();
        assert_eq!(best.kernel.name(), "GEMV_N");
    }

    #[test]
    fn triangular_vector_uses_trmv() {
        let r = registry();
        let l = Operand::square("L", 10).with_property(Property::LowerTriangular);
        let x = Operand::col_vector("x", 10);
        let best = r.best_by_flops(&(l.expr() * x.expr())).unwrap();
        assert_eq!(best.kernel.name(), "TRMV_LN");
        let best = r.best_by_flops(&(l.inverse() * x.expr())).unwrap();
        assert_eq!(best.kernel.name(), "TRSV_LN");
    }

    #[test]
    fn outer_and_inner_products() {
        let r = registry();
        let x = Operand::col_vector("x", 10);
        let y = Operand::col_vector("y", 20);
        let best = r.best_by_flops(&(x.expr() * y.transpose())).unwrap();
        assert_eq!(best.kernel.name(), "GER");
        let z = Operand::col_vector("z", 10);
        let best = r.best_by_flops(&(x.transpose() * z.expr())).unwrap();
        assert_eq!(best.kernel.name(), "DOT");
    }

    #[test]
    fn identity_elimination() {
        let r = registry();
        let i = Operand::square("I", 10).with_property(Property::Identity);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(i.expr() * b.expr())).unwrap();
        assert_eq!(best.kernel.family(), KernelFamily::Copy);
        assert_eq!(best.flops(), 0.0);
    }

    #[test]
    fn inverse_pair_requires_composite_kernel() {
        let full = registry();
        let a = Operand::square("A", 10);
        let b = Operand::square("B", 10);
        let e = a.inverse() * b.inverse();
        assert!(!full.match_expr(&e).is_empty());

        let strict = KernelRegistry::builder()
            .without_composite_inverse()
            .build();
        assert!(strict.match_expr(&e).is_empty());
    }

    #[test]
    fn mcp_only_registry() {
        let r = KernelRegistry::mcp_only();
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 6);
        assert_eq!(r.match_expr(&(a.expr() * b.expr())).len(), 1);
        assert!(r.match_expr(&(a.transpose() * b.expr())).is_empty());
    }

    #[test]
    fn without_family_ablation() {
        let r = KernelRegistry::builder()
            .without_family(KernelFamily::Syrk)
            .build();
        let a = Operand::matrix("A", 20, 15);
        let ms = r.match_expr(&(a.transpose() * a.expr()));
        assert!(ms.iter().all(|m| m.kernel.family() != KernelFamily::Syrk));
        assert!(ms.iter().any(|m| m.kernel.name() == "GEMM_TN"));
    }

    #[test]
    fn symm_matches_transposed_symmetric() {
        let r = registry();
        let s = Operand::square("S", 10).with_property(Property::Symmetric);
        let b = Operand::matrix("B", 10, 4);
        let best = r.best_by_flops(&(s.transpose() * b.expr())).unwrap();
        assert_eq!(best.kernel.name(), "SYMM_LT");
        let b2 = Operand::matrix("B", 4, 10);
        let best = r.best_by_flops(&(b2.expr() * s.expr())).unwrap();
        assert_eq!(best.kernel.name(), "SYMM_RN");
    }

    #[test]
    fn describe_covers_every_kernel() {
        let r = registry();
        let text = r.describe();
        assert_eq!(text.lines().count(), r.len() + 2); // header + separator
        assert!(text.contains("TRSM_LLN"));
        assert!(text.contains("is LowerTriangular(?0)"));
    }

    #[test]
    fn best_product_match_agrees_with_collecting_selection() {
        let r = registry();
        let l = Operand::square("L", 10).with_property(Property::LowerTriangular);
        let d = Operand::square("D", 10).with_property(Property::Diagonal);
        let s = Operand::square("S", 10).with_property(Property::SymmetricPositiveDefinite);
        let a = Operand::matrix("A", 10, 6);
        let b = Operand::matrix("B", 10, 4);
        let x = Operand::col_vector("x", 10);
        let y = Operand::col_vector("y", 4);
        let cases: Vec<(Expr, Expr)> = vec![
            (l.expr(), b.expr()),
            (l.inverse(), b.expr()),
            (s.inverse(), b.expr()),
            (d.expr(), b.expr()),
            (a.transpose(), a.expr()),
            (a.transpose(), b.expr()),
            (a.expr(), y.transpose()),
            (x.expr(), y.transpose()),
            (x.transpose(), x.expr()),
            (l.expr(), x.expr()),
            (b.transpose(), s.inverse_transpose()),
        ];
        for (le, re) in cases {
            let product = Expr::times([le.clone(), re.clone()]);
            let collected = r
                .match_expr(&product)
                .into_iter()
                .min_by(|p, q| {
                    p.flops()
                        .partial_cmp(&q.flops())
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| q.kernel.specificity().cmp(&p.kernel.specificity()))
                })
                .expect("all cases are computable");
            let streamed = r
                .best_product_match(&le, &re, KernelOp::flops)
                .expect("all cases are computable");
            assert_eq!(
                streamed.kernel.name(),
                collected.kernel.name(),
                "selection diverged on {product}"
            );
            assert_eq!(
                streamed.op.map(|v| v.shape),
                collected.op.map(|o| o.shape()),
                "op diverged on {product}"
            );
            assert_eq!(streamed.cost, collected.op.flops());
        }
    }

    #[test]
    fn best_product_match_returns_none_without_candidates() {
        let r = KernelRegistry::builder()
            .only_families([KernelFamily::Gemm])
            .build();
        let a = Operand::square("A", 10);
        let b = Operand::matrix("B", 10, 4);
        assert!(r
            .best_product_match(&a.inverse(), &b.expr(), KernelOp::flops)
            .is_none());
    }

    #[test]
    fn no_match_for_unary_only_expression() {
        let r = registry();
        let a = Operand::square("A", 4);
        assert!(r.match_expr(&a.inverse()).is_empty());
    }

    #[test]
    #[should_panic(expected = "names a variable its pattern does not bind")]
    fn constraint_on_an_unbound_variable_is_rejected() {
        // SYRK's pattern binds only ?0.
        let _ = Table::new(vec![Kernel::new(
            "BAD",
            KernelFamily::Syrk,
            Pattern::times2(Pattern::transpose(Pattern::var(X)), Pattern::var(X)),
            vec![Constraint::IsColVector(Y)],
            0,
            KernelOp::Syrk { trans: true, a: X },
        )]);
    }

    #[test]
    fn masks_are_built_per_leaf() {
        // TRMV_LN: `?0 ?1`, LowerTriangular(?0) and IsColVector(?1).
        let r = registry();
        let index = r
            .kernels()
            .iter()
            .position(|k| k.name() == "TRMV_LN")
            .unwrap();
        let entry = r.table.slots[slot(UnaryOp::None, UnaryOp::None)]
            .iter()
            .find(|e| e.index == index)
            .unwrap();
        assert_eq!(entry.left_needs, 1 << (Property::LowerTriangular as u32));
        assert_eq!(entry.right_needs, COL_VECTOR);
    }
}
