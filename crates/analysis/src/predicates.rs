//! One predicate per property, following paper Fig. 6.
//!
//! Every predicate is one dispatch, [`has`], over three kinds of rules:
//! a leaf carries its declared properties, a unary operator maps the
//! question onto its operand ([`through`]), and a product is decided by
//! its product rule, a function over the product's factor sequence
//! ([`product_has`]). The factors are anything that is a
//! [`ProductFactor`]: the subexpressions of a product node, or the two
//! [`FactorView`]s of a DP split, so the pairwise inference of the GMC
//! table runs the same rules as the tree predicates without building a
//! product tree, and no rule is written twice.
//!
//! A product rule reads a factor's shape only through [`ShapeQuestion`]s,
//! each reported to a log with its answer, and only once the cheaper
//! tests (operand identity, the factors' properties) have not already
//! decided the rule. The plan recorder of `gmc-plan` keys a cached
//! region on the questions it logs; every other caller passes a no-op
//! log.

use crate::infer::canonical_transpose;
use gmc_expr::{Expr, FactorView, Operand, OperandId, Property, Shape, UnaryOp};

/// Whether `expr` is provably lower triangular.
///
/// Rules: a product of lower triangular factors is lower triangular; the
/// transpose of an upper triangular expression is lower triangular;
/// the inverse of a lower triangular expression is lower triangular
/// (assuming invertibility, which an inverse asserts); a sum of lower
/// triangular terms is lower triangular.
pub fn is_lower_triangular(expr: &Expr) -> bool {
    has(Property::LowerTriangular, expr)
}

/// Whether `expr` is provably upper triangular (mirror of
/// [`is_lower_triangular`]).
pub fn is_upper_triangular(expr: &Expr) -> bool {
    has(Property::UpperTriangular, expr)
}

/// Whether `expr` is provably diagonal.
pub fn is_diagonal(expr: &Expr) -> bool {
    has(Property::Diagonal, expr)
}

/// Whether `expr` is provably the zero matrix.
///
/// A product containing a zero factor is zero; a sum is zero only if all
/// terms are. Inverses of zero are ill-formed and conservatively reported
/// as not-zero.
pub fn is_zero(expr: &Expr) -> bool {
    has(Property::Zero, expr)
}

/// Whether `expr` is provably the identity matrix. `I + I = 2I` is not
/// the identity, so no sum is.
pub fn is_identity(expr: &Expr) -> bool {
    has(Property::Identity, expr)
}

/// Whether `expr` is provably symmetric.
///
/// Besides the compositional rules (transpose/inverse of symmetric is
/// symmetric, sums of symmetric are symmetric, diagonal implies
/// symmetric), products use a *structural* rule: a product is symmetric
/// when its canonical transpose equals itself. This catches `XᵀX`,
/// `X Xᵀ`, `Xᵀ S X` with `S` symmetric, `A⁻¹` sandwiches, and palindromic
/// chains like `A B A` with `A`, `B` symmetric.
///
/// A product of chain factors (symbols under at most one unary
/// operator) is decided on its factor sequence without building the
/// canonical trees: it is well-formed, and the canonical form of factor
/// `k` equals the canonical transposed form of factor `n−1−k`.
pub fn is_symmetric(expr: &Expr) -> bool {
    has(Property::Symmetric, expr)
}

/// Whether `expr` is provably symmetric positive definite.
///
/// Rules:
///
/// * transposes and inverses of SPD expressions are SPD,
/// * sums of SPD expressions are SPD,
/// * a congruence `Xᵀ S X` (or the bare Gram product `XᵀX`) is SPD when
///   the sandwiched part is SPD (or absent) and `X` has full column rank
///   — which holds generically when `X` is at least as tall as it is
///   wide, matching the paper's `AᵀA` example (Sec. 3.2),
/// * products of *commuting-free* general matrices are never inferred SPD.
pub fn is_spd(expr: &Expr) -> bool {
    has(Property::SymmetricPositiveDefinite, expr)
}

/// Whether `expr` is provably orthogonal (`QᵀQ = I`).
pub fn is_orthogonal(expr: &Expr) -> bool {
    has(Property::Orthogonal, expr)
}

/// Whether `expr` is provably a permutation matrix.
pub fn is_permutation(expr: &Expr) -> bool {
    has(Property::Permutation, expr)
}

/// Whether `expr` is provably triangular with a unit diagonal.
///
/// Products require agreeing triangularity: the product of two unit
/// *lower* triangular matrices is unit lower triangular (and likewise for
/// upper), but mixing sides loses the unit diagonal.
pub fn is_unit_diagonal(expr: &Expr) -> bool {
    has(Property::UnitDiagonal, expr)
}

/// Whether `expr` is provably of full rank.
///
/// Products of full-rank *square* factors are full rank; rank can drop
/// for rectangular products, so those are conservatively rejected.
/// Inverses assert invertibility and are therefore full rank.
pub fn is_full_rank(expr: &Expr) -> bool {
    has(Property::FullRank, expr)
}

/// Whether `expr` has `p`.
pub(crate) fn has(p: Property, expr: &Expr) -> bool {
    let (op, inner) = match expr {
        Expr::Symbol(operand) => return operand.properties().contains(p),
        Expr::Times(fs) => return product_has(p, fs, &mut |_, _| {}),
        Expr::Plus(ts) => return sum_keeps(p) && ts.iter().all(|t| has(p, t)),
        Expr::Transpose(e) => (UnaryOp::Transpose, e),
        Expr::Inverse(e) => (UnaryOp::Inverse, e),
        Expr::InverseTranspose(e) => (UnaryOp::InverseTranspose, e),
    };
    through(op, p).unwrap_or_else(|q| has(q, inner))
}

/// Whether a sum of terms that all have `p` has `p`. Sums of
/// orthogonal, permutation, unit-diagonal or full-rank matrices, or of
/// identities, are not inferred to keep it.
fn sum_keeps(p: Property) -> bool {
    matches!(
        p,
        Property::LowerTriangular
            | Property::UpperTriangular
            | Property::Diagonal
            | Property::Zero
            | Property::Symmetric
            | Property::SymmetricPositiveDefinite
    )
}

/// The unary rules: `op(e)` has `p` as decided (`Ok`), or iff `e` has
/// the property `Err` names. A transpose swaps the triangles; an
/// inverse is full rank (it asserts invertibility) and never zero;
/// every other property passes through.
fn through(op: UnaryOp, p: Property) -> Result<bool, Property> {
    match p {
        Property::Zero if op.is_inverted() => Ok(false),
        Property::FullRank if op.is_inverted() => Ok(true),
        Property::LowerTriangular if op.is_transposed() => Err(Property::UpperTriangular),
        Property::UpperTriangular if op.is_transposed() => Err(Property::LowerTriangular),
        _ => Err(p),
    }
}

/// A factor of a product, as the product rules read it: a
/// subexpression, or a view of a chain factor or DP temporary.
pub(crate) trait ProductFactor {
    /// What identifies a leaf's operand.
    type Id<'a>: Copy + Eq
    where
        Self: 'a;

    /// Whether the factor has `p`.
    fn has(&self, p: Property) -> bool;

    /// The factor's shape, if it is well-formed.
    fn shape(&self) -> Option<Shape>;

    /// The factor as a leaf, if it is one (an operand under at most one
    /// unary operator).
    fn leaf(&self) -> Option<Leaf<Self::Id<'_>>>;

    /// The factor as an expression tree, for the rules that compare
    /// canonical trees; only asked of factors that are not leaves.
    fn tree(&self) -> Expr;
}

impl ProductFactor for Expr {
    type Id<'a> = &'a Operand;

    fn has(&self, p: Property) -> bool {
        has(p, self)
    }

    fn shape(&self) -> Option<Shape> {
        Expr::shape(self).ok()
    }

    fn leaf(&self) -> Option<Leaf<&Operand>> {
        let (inner, op) = match self {
            Expr::Transpose(inner) => (&**inner, UnaryOp::Transpose),
            Expr::Inverse(inner) => (&**inner, UnaryOp::Inverse),
            Expr::InverseTranspose(inner) => (&**inner, UnaryOp::InverseTranspose),
            symbol => (symbol, UnaryOp::None),
        };
        match inner {
            Expr::Symbol(operand) => Some(Leaf::new(
                operand,
                operand.properties().contains(Property::Symmetric),
                op,
            )),
            _ => None,
        }
    }

    fn tree(&self) -> Expr {
        self.clone()
    }
}

impl ProductFactor for FactorView {
    type Id<'a> = OperandId;

    fn has(&self, p: Property) -> bool {
        through(self.op, p).unwrap_or_else(|q| self.operand.properties.contains(q))
    }

    fn shape(&self) -> Option<Shape> {
        Some(FactorView::shape(self))
    }

    fn leaf(&self) -> Option<Leaf<OperandId>> {
        let operand = &self.operand;
        Some(Leaf::new(
            operand.id,
            operand.properties.contains(Property::Symmetric),
            self.op,
        ))
    }

    fn tree(&self) -> Expr {
        unreachable!("a factor view is a leaf")
    }
}

impl<T: ProductFactor + ?Sized> ProductFactor for &T {
    type Id<'a>
        = T::Id<'a>
    where
        Self: 'a;

    fn has(&self, p: Property) -> bool {
        (**self).has(p)
    }

    fn shape(&self) -> Option<Shape> {
        (**self).shape()
    }

    fn leaf(&self) -> Option<Leaf<T::Id<'_>>> {
        (**self).leaf()
    }

    fn tree(&self) -> Expr {
        (**self).tree()
    }
}

/// A question a product rule asks about the shape of one factor of the
/// product, named by the factor's index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeQuestion {
    /// Whether the factor is square.
    Square(usize),
    /// Whether the factor has at least as many rows as columns (the
    /// rank condition of the Gram rule `XᵀX`).
    Tall(usize),
}

/// Answers `question` about `factor` (the product's factor the question
/// names) and reports it to `log`. An ill-formed factor has no shape
/// and answers no.
fn ask<F: ProductFactor>(
    factor: &F,
    question: ShapeQuestion,
    log: &mut impl FnMut(ShapeQuestion, bool),
) -> bool {
    let answer = factor.shape().is_some_and(|s| match question {
        ShapeQuestion::Square(_) => s.is_square(),
        ShapeQuestion::Tall(_) => s.rows() >= s.cols(),
    });
    log(question, answer);
    answer
}

/// Whether the product of `factors` (at least two) has `p`: the product
/// rule of each predicate, over the factors by reference. Shape
/// questions go to `log`.
pub(crate) fn product_has<F: ProductFactor>(
    p: Property,
    factors: &[F],
    log: &mut impl FnMut(ShapeQuestion, bool),
) -> bool {
    let all = |p| factors.iter().all(|f| f.has(p));
    match p {
        Property::Diagonal
        | Property::LowerTriangular
        | Property::UpperTriangular
        | Property::Identity
        | Property::Orthogonal
        | Property::Permutation => all(p),
        Property::Zero => factors.iter().any(|f| f.has(Property::Zero)),
        Property::Symmetric => symmetric_product(factors),
        Property::SymmetricPositiveDefinite => spd_product(factors, 0, log),
        Property::UnitDiagonal => {
            all(Property::UnitDiagonal)
                && (all(Property::LowerTriangular) || all(Property::UpperTriangular))
        }
        Property::FullRank => factors
            .iter()
            .enumerate()
            .all(|(t, f)| f.has(Property::FullRank) && ask(f, ShapeQuestion::Square(t), log)),
    }
}

/// The shape of the product of `factors`, if it is well-formed.
fn product_shape<F: ProductFactor>(factors: &[F]) -> Option<Shape> {
    let (first, rest) = factors.split_first()?;
    rest.iter()
        .try_fold(first.shape()?, |acc, f| acc.times(f.shape()?))
}

/// The product of `factors` as an expression tree.
fn product_tree<F: ProductFactor>(factors: &[F]) -> Expr {
    Expr::Times(factors.iter().map(F::tree).collect())
}

/// Symmetry of a product (see [`is_symmetric`]): diagonal, a leaf-wise
/// transpose palindrome of chain factors, or otherwise equal canonical
/// forms of the product and its transpose.
fn symmetric_product<F: ProductFactor>(factors: &[F]) -> bool {
    if factors.iter().all(|f| f.has(Property::Diagonal)) {
        return true;
    }
    if factors.iter().all(|f| f.leaf().is_some()) {
        return factors.iter().zip(factors.iter().rev()).all(|(a, b)| {
            let (a, b) = (
                a.leaf().expect("checked above"),
                b.leaf().expect("checked above"),
            );
            a.canonical() == b.transposed_canonical()
        }) && product_shape(factors).is_some();
    }
    let product = product_tree(factors);
    match (
        canonical_transpose(&product),
        canonical_transpose(&Expr::transpose(product)),
    ) {
        (Some(me), Some(transposed)) => me == transposed,
        _ => false,
    }
}

/// SPD check for a product `f0 ··· fk`, whose factors are the product's
/// factors from index `offset` on: peel transpose-pairs off both ends
/// (checking the rank condition) and require the remaining middle to be
/// SPD (an empty middle is the implicit identity, which is SPD).
fn spd_product<F: ProductFactor>(
    factors: &[F],
    offset: usize,
    log: &mut impl FnMut(ShapeQuestion, bool),
) -> bool {
    debug_assert!(factors.len() >= 2);
    let last_index = factors.len() - 1;
    let (first, last) = (&factors[0], &factors[last_index]);
    if !is_transpose_pair(first, last, (offset, offset + last_index), log) {
        return false;
    }
    // Full column rank of the right member `X` of the pair `Xᵀ ... X`:
    // generically satisfied when X is square or tall. For square X we
    // additionally accept declared full rank (e.g. triangular inverses).
    if !ask(last, ShapeQuestion::Tall(offset + last_index), log) {
        return false;
    }
    let middle = &factors[1..last_index];
    match middle {
        [] => true,
        [single] => single.has(Property::SymmetricPositiveDefinite),
        _ => spd_product(middle, offset + 1, log),
    }
}

/// Whether `b` is structurally the transpose of `a` (so `a·b` is a Gram
/// pair `Xᵀ X` with `X = b`); `ia` and `ib` are their indices in the
/// product. Two chain factors are compared leaf-wise, and an
/// inverted leaf is well-formed only if it is square, which is asked
/// last.
fn is_transpose_pair<F: ProductFactor>(
    a: &F,
    b: &F,
    (ia, ib): (usize, usize),
    log: &mut impl FnMut(ShapeQuestion, bool),
) -> bool {
    if let (Some(la), Some(lb)) = (a.leaf(), b.leaf()) {
        return la.canonical() == lb.transposed_canonical()
            && (!la.inverted || ask(a, ShapeQuestion::Square(ia), log))
            && (!lb.inverted || ask(b, ShapeQuestion::Square(ib), log));
    }
    match (
        canonical_transpose(&Expr::transpose(b.tree())),
        canonical_transpose(&a.tree()),
    ) {
        (Some(bt), Some(ca)) => bt == ca,
        _ => false,
    }
}

/// A chain factor — an operand under at most one unary operator — as
/// the leaf-wise rules compare it: the operand's identity (which fixes
/// its shape and properties) and the two components of the operator.
/// Equal canonical leaves are exactly equal [`canonical_transpose`]
/// trees.
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct Leaf<I> {
    id: I,
    symmetric: bool,
    transposed: bool,
    inverted: bool,
}

impl<I: Copy + Eq> Leaf<I> {
    fn new(id: I, symmetric: bool, op: UnaryOp) -> Leaf<I> {
        Leaf {
            id,
            symmetric,
            transposed: op.is_transposed(),
            inverted: op.is_inverted(),
        }
    }

    /// The canonical form: transposes of Symmetric operands are erased
    /// (`Sᵀ → S`, `S⁻ᵀ → S⁻¹`).
    fn canonical(self) -> Leaf<I> {
        Leaf {
            transposed: self.transposed && !self.symmetric,
            ..self
        }
    }

    /// The canonical form of the leaf's transpose.
    fn transposed_canonical(self) -> Leaf<I> {
        Leaf {
            transposed: !self.transposed,
            ..self
        }
        .canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::Operand;

    fn lo(name: &str) -> Operand {
        Operand::square(name, 6).with_property(Property::LowerTriangular)
    }

    fn up(name: &str) -> Operand {
        Operand::square(name, 6).with_property(Property::UpperTriangular)
    }

    fn sym(name: &str) -> Operand {
        Operand::square(name, 6).with_property(Property::Symmetric)
    }

    fn spd(name: &str) -> Operand {
        Operand::square(name, 6).with_property(Property::SymmetricPositiveDefinite)
    }

    fn gen(name: &str) -> Operand {
        Operand::square(name, 6)
    }

    #[test]
    fn paper_fig5_example() {
        // A lower, B upper: A·Bᵀ is lower triangular.
        let e = lo("A").expr() * up("B").transpose();
        assert!(is_lower_triangular(&e));
        assert!(!is_upper_triangular(&e));
    }

    #[test]
    fn triangular_products() {
        assert!(is_lower_triangular(&(lo("A").expr() * lo("B").expr())));
        assert!(is_upper_triangular(&(up("A").expr() * up("B").expr())));
        assert!(!is_lower_triangular(&(lo("A").expr() * up("B").expr())));
    }

    #[test]
    fn triangular_inverse_and_transpose() {
        assert!(is_lower_triangular(&lo("A").inverse()));
        assert!(is_upper_triangular(&lo("A").transpose()));
        assert!(is_upper_triangular(&lo("A").inverse_transpose()));
        assert!(is_lower_triangular(&up("A").inverse_transpose()));
    }

    #[test]
    fn triangular_sums() {
        let e = lo("A").expr() + lo("B").expr();
        assert!(is_lower_triangular(&e));
        let mixed = lo("A").expr() + up("B").expr();
        assert!(!is_lower_triangular(&mixed));
    }

    #[test]
    fn diagonal_rules() {
        let d = Operand::square("D", 6).with_property(Property::Diagonal);
        let e = d.expr() * d.inverse() * d.transpose();
        assert!(is_diagonal(&e));
        assert!(is_lower_triangular(&d.expr()));
        assert!(is_symmetric(&d.expr()));
    }

    #[test]
    fn zero_rules() {
        let z = Operand::square("Z", 6).with_property(Property::Zero);
        let a = gen("A");
        assert!(is_zero(&(z.expr() * a.expr())));
        assert!(is_zero(&(a.expr() * z.expr())));
        assert!(!is_zero(&(z.expr() + a.expr())));
        assert!(is_zero(&(z.expr() + z.expr())));
        assert!(is_zero(&z.transpose()));
    }

    #[test]
    fn identity_rules() {
        let i = Operand::square("I", 6).with_property(Property::Identity);
        assert!(is_identity(&(i.expr() * i.expr())));
        assert!(is_identity(&i.inverse()));
        assert!(!is_identity(&(i.expr() + i.expr())));
    }

    #[test]
    fn symmetric_basic() {
        assert!(is_symmetric(&sym("S").expr()));
        assert!(is_symmetric(&sym("S").transpose()));
        assert!(is_symmetric(&sym("S").inverse()));
        assert!(is_symmetric(&(sym("S").expr() + sym("T").expr())));
        assert!(!is_symmetric(&(gen("A").expr() * gen("B").expr())));
    }

    #[test]
    fn gram_products_are_symmetric() {
        let a = Operand::matrix("A", 8, 5);
        // AᵀA
        assert!(is_symmetric(&(a.transpose() * a.expr())));
        // A Aᵀ
        assert!(is_symmetric(&(a.expr() * a.transpose())));
        // AᵀB is not symmetric in general.
        let b = Operand::matrix("B", 8, 5);
        assert!(!is_symmetric(&(a.transpose() * b.expr())));
    }

    #[test]
    fn congruence_is_symmetric() {
        let a = Operand::matrix("A", 8, 5);
        let s = Operand::square("S", 8).with_property(Property::Symmetric);
        // Aᵀ S A symmetric.
        let e = a.transpose() * s.expr() * a.expr();
        assert!(is_symmetric(&e));
        // L⁻¹ A L⁻ᵀ with A symmetric (generalized eigenproblem reduction,
        // paper Sec. 3.2) is symmetric.
        let l = lo("L");
        let sym_a = sym("A");
        let e = l.inverse() * sym_a.expr() * l.inverse_transpose();
        assert!(is_symmetric(&e));
    }

    #[test]
    fn palindromic_symmetric_product() {
        let s = sym("S");
        let t = sym("T");
        // S T S is symmetric when S and T are.
        let e = s.expr() * t.expr() * s.expr();
        assert!(is_symmetric(&e));
        // S T U is not (in general).
        let u = sym("U");
        let e = s.expr() * t.expr() * u.expr();
        assert!(!is_symmetric(&e));
    }

    #[test]
    fn spd_gram_products() {
        // Tall A (8x5): AᵀA is 5x5 SPD.
        let a = Operand::matrix("A", 8, 5);
        assert!(is_spd(&(a.transpose() * a.expr())));
        // A Aᵀ is 8x8 of rank ≤ 5: *not* SPD.
        assert!(!is_spd(&(a.expr() * a.transpose())));
        // Square dense A: AᵀA SPD (paper Sec. 3.2 example).
        let sq = gen("A");
        assert!(is_spd(&(sq.transpose() * sq.expr())));
        assert!(is_spd(&(sq.expr() * sq.transpose())));
    }

    #[test]
    fn spd_congruence() {
        let a = gen("A");
        let s = spd("S");
        let e = a.transpose() * s.expr() * a.expr();
        assert!(is_spd(&e));
        // Sym but not SPD middle: no inference.
        let m = sym("M");
        let e = a.transpose() * m.expr() * a.expr();
        assert!(!is_spd(&e));
    }

    #[test]
    fn spd_closure_properties() {
        let s = spd("S");
        assert!(is_spd(&s.inverse()));
        assert!(is_spd(&s.transpose()));
        assert!(is_spd(&(s.expr() + spd("T").expr())));
        assert!(is_symmetric(&s.expr()));
    }

    #[test]
    fn spd_cholesky_form() {
        // L Lᵀ with L square is SPD (generic full rank).
        let l = lo("L");
        assert!(is_spd(&(l.expr() * l.transpose())));
    }

    #[test]
    fn orthogonal_and_permutation() {
        let q = Operand::square("Q", 6).with_property(Property::Orthogonal);
        let p = Operand::square("P", 6).with_property(Property::Permutation);
        assert!(is_orthogonal(&(q.expr() * q.transpose())));
        assert!(is_orthogonal(&(q.expr() * p.expr()))); // perm ⇒ orthogonal
        assert!(is_permutation(&(p.expr() * p.inverse())));
        assert!(!is_permutation(&(q.expr() * p.expr())));
        assert!(is_full_rank(&q.expr()));
    }

    #[test]
    fn unit_diagonal_rules() {
        let l1 = Operand::square("L1", 6)
            .with_properties([Property::LowerTriangular, Property::UnitDiagonal]);
        let l2 = Operand::square("L2", 6)
            .with_properties([Property::LowerTriangular, Property::UnitDiagonal]);
        assert!(is_unit_diagonal(&(l1.expr() * l2.expr())));
        assert!(is_unit_diagonal(&l1.inverse()));
        assert!(is_unit_diagonal(&l1.transpose()));
        // Mixing lower and upper unit triangular loses the property.
        let u = Operand::square("U", 6)
            .with_properties([Property::UpperTriangular, Property::UnitDiagonal]);
        assert!(!is_unit_diagonal(&(l1.expr() * u.expr())));
    }

    #[test]
    fn full_rank_rules() {
        let a = gen("A").with_property(Property::FullRank);
        let b = gen("B").with_property(Property::FullRank);
        assert!(is_full_rank(&(a.expr() * b.expr())));
        assert!(is_full_rank(&a.transpose()));
        assert!(is_full_rank(&gen("C").inverse()));
        // Rectangular products conservatively rejected.
        let t = Operand::matrix("T", 8, 5).with_property(Property::FullRank);
        let w = Operand::matrix("W", 5, 8).with_property(Property::FullRank);
        assert!(!is_full_rank(&(t.expr() * w.expr())));
        // Without declared rank, nothing is inferred.
        assert!(!is_full_rank(&(gen("D").expr() * gen("E").expr())));
    }

    fn transpose_pair(a: &Expr, b: &Expr) -> bool {
        is_transpose_pair(a, b, (0, 1), &mut |_, _| {})
    }

    #[test]
    fn transpose_pairs_of_leaves() {
        let b = Operand::matrix("B", 8, 5);
        assert!(transpose_pair(&b.transpose(), &b.expr()));
        assert!(!transpose_pair(&b.expr(), &b.expr()));
        // The inverse of a non-square leaf is ill-formed, pair or not.
        assert!(!transpose_pair(&b.inverse(), &b.inverse_transpose()));
        // A Symmetric operand is its own transpose.
        assert!(transpose_pair(&sym("S").expr(), &sym("S").expr()));
    }

    #[test]
    fn shape_questions_come_after_identity_and_properties() {
        let log_of = |factors: &[Expr], p: Property| {
            let mut asked = Vec::new();
            let answer = product_has(p, factors, &mut |q, a| asked.push((q, a)));
            (answer, asked)
        };
        let (a, b) = (Operand::matrix("A", 8, 5), Operand::matrix("B", 8, 5));
        // Only a transpose pair asks the rank condition, of its right
        // member.
        assert_eq!(
            log_of(
                &[a.transpose(), a.expr()],
                Property::SymmetricPositiveDefinite
            ),
            (true, vec![(ShapeQuestion::Tall(1), true)])
        );
        assert_eq!(
            log_of(
                &[a.transpose(), b.expr()],
                Property::SymmetricPositiveDefinite
            ),
            (false, vec![])
        );
        // Squareness is asked only of full-rank factors, left to right.
        let f = Operand::square("F", 5).with_property(Property::FullRank);
        let t = Operand::matrix("T", 5, 8).with_property(Property::FullRank);
        assert_eq!(
            log_of(&[f.expr(), t.expr()], Property::FullRank),
            (
                false,
                vec![
                    (ShapeQuestion::Square(0), true),
                    (ShapeQuestion::Square(1), false)
                ]
            )
        );
        assert_eq!(
            log_of(&[b.expr(), f.expr()], Property::FullRank),
            (false, vec![])
        );
    }
}
