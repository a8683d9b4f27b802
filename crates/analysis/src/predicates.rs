//! One predicate per property, following paper Fig. 6.
//!
//! Each predicate decides a product by its product rule, a function over
//! the product's factor sequence taken by reference ([`product_has`]).
//! The tree predicates call it with a product node's factors; the
//! pairwise inference of a DP split calls it with the split's two sides,
//! so no product tree is built and no rule is written twice.

use crate::infer::canonical_transpose;
use gmc_expr::{Expr, Operand, Property, Shape};
use std::borrow::Borrow;

/// Whether `expr` is provably lower triangular.
///
/// Rules: a product of lower triangular factors is lower triangular; the
/// transpose of an upper triangular expression is lower triangular;
/// the inverse of a lower triangular expression is lower triangular
/// (assuming invertibility, which an inverse asserts); a sum of lower
/// triangular terms is lower triangular.
pub fn is_lower_triangular(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::LowerTriangular),
        Expr::Times(fs) => product_has(Property::LowerTriangular, fs),
        Expr::Plus(ts) => ts.iter().all(is_lower_triangular),
        Expr::Transpose(e) => is_upper_triangular(e),
        Expr::Inverse(e) => is_lower_triangular(e),
        Expr::InverseTranspose(e) => is_upper_triangular(e),
    }
}

/// Whether `expr` is provably upper triangular (mirror of
/// [`is_lower_triangular`]).
pub fn is_upper_triangular(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::UpperTriangular),
        Expr::Times(fs) => product_has(Property::UpperTriangular, fs),
        Expr::Plus(ts) => ts.iter().all(is_upper_triangular),
        Expr::Transpose(e) => is_lower_triangular(e),
        Expr::Inverse(e) => is_upper_triangular(e),
        Expr::InverseTranspose(e) => is_lower_triangular(e),
    }
}

/// Whether `expr` is provably diagonal.
pub fn is_diagonal(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::Diagonal),
        Expr::Times(fs) => product_has(Property::Diagonal, fs),
        Expr::Plus(ts) => ts.iter().all(is_diagonal),
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_diagonal(e),
    }
}

/// Whether `expr` is provably the zero matrix.
///
/// A product containing a zero factor is zero; a sum is zero only if all
/// terms are. Inverses of zero are ill-formed and conservatively reported
/// as not-zero.
pub fn is_zero(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::Zero),
        Expr::Times(fs) => product_has(Property::Zero, fs),
        Expr::Plus(ts) => ts.iter().all(is_zero),
        Expr::Transpose(e) => is_zero(e),
        Expr::Inverse(_) | Expr::InverseTranspose(_) => false,
    }
}

/// Whether `expr` is provably the identity matrix.
pub fn is_identity(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::Identity),
        Expr::Times(fs) => product_has(Property::Identity, fs),
        // I + I = 2I is *not* the identity; no sum rule.
        Expr::Plus(_) => false,
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_identity(e),
    }
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
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::Symmetric),
        Expr::Times(fs) => product_has(Property::Symmetric, fs),
        Expr::Plus(ts) => ts.iter().all(is_symmetric),
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_symmetric(e),
    }
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
    match expr {
        Expr::Symbol(op) => op
            .properties()
            .contains(Property::SymmetricPositiveDefinite),
        Expr::Times(fs) => product_has(Property::SymmetricPositiveDefinite, fs),
        Expr::Plus(ts) => ts.iter().all(is_spd),
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_spd(e),
    }
}

/// Whether `expr` has `p`, by the predicate for `p`.
pub(crate) fn has(p: Property, expr: &Expr) -> bool {
    match p {
        Property::Diagonal => is_diagonal(expr),
        Property::LowerTriangular => is_lower_triangular(expr),
        Property::UpperTriangular => is_upper_triangular(expr),
        Property::Symmetric => is_symmetric(expr),
        Property::SymmetricPositiveDefinite => is_spd(expr),
        Property::Identity => is_identity(expr),
        Property::Zero => is_zero(expr),
        Property::Orthogonal => is_orthogonal(expr),
        Property::Permutation => is_permutation(expr),
        Property::UnitDiagonal => is_unit_diagonal(expr),
        Property::FullRank => is_full_rank(expr),
    }
}

/// Whether the product of `factors` (at least two) has `p`: the product
/// rule of each predicate, over the factors by reference.
pub(crate) fn product_has<E: Borrow<Expr>>(p: Property, factors: &[E]) -> bool {
    let all = |p| factors.iter().all(|f| has(p, f.borrow()));
    match p {
        Property::Diagonal
        | Property::LowerTriangular
        | Property::UpperTriangular
        | Property::Identity
        | Property::Orthogonal
        | Property::Permutation => all(p),
        Property::Zero => factors.iter().any(|f| is_zero(f.borrow())),
        Property::Symmetric => symmetric_product(factors),
        Property::SymmetricPositiveDefinite => spd_product(factors),
        Property::UnitDiagonal => {
            all(Property::UnitDiagonal)
                && (all(Property::LowerTriangular) || all(Property::UpperTriangular))
        }
        Property::FullRank => factors.iter().all(|f| {
            let f = f.borrow();
            is_full_rank(f) && f.shape().is_ok_and(|s| s.is_square())
        }),
    }
}

/// The shape of the product of `factors`, if it is well-formed.
fn product_shape<E: Borrow<Expr>>(factors: &[E]) -> Option<Shape> {
    let (first, rest) = factors.split_first()?;
    rest.iter()
        .try_fold(first.borrow().shape().ok()?, |acc, f| {
            acc.times(f.borrow().shape().ok()?)
        })
}

/// Symmetry of a product (see [`is_symmetric`]): diagonal, a leaf-wise
/// transpose palindrome of chain factors, or otherwise equal canonical
/// forms of the product and its transpose.
fn symmetric_product<E: Borrow<Expr>>(factors: &[E]) -> bool {
    if product_has(Property::Diagonal, factors) {
        return true;
    }
    if factors.iter().all(|f| f.borrow().is_factor()) {
        return factors.iter().zip(factors.iter().rev()).all(|(a, b)| {
            Leaf::of(a.borrow()).canonical() == Leaf::of(b.borrow()).transposed_canonical()
        }) && product_shape(factors).is_some();
    }
    let product = Expr::Times(factors.iter().map(|f| f.borrow().clone()).collect());
    match (
        canonical_transpose(&product),
        canonical_transpose(&Expr::transpose(product)),
    ) {
        (Some(me), Some(transposed)) => me == transposed,
        _ => false,
    }
}

/// SPD check for a product `f0 ··· fk`: peel transpose-pairs off both
/// ends (checking the rank condition) and require the remaining middle to
/// be SPD (an empty middle is the implicit identity, which is SPD).
fn spd_product<E: Borrow<Expr>>(factors: &[E]) -> bool {
    debug_assert!(factors.len() >= 2);
    let first = factors[0].borrow();
    let last = factors[factors.len() - 1].borrow();
    if !is_transpose_pair(first, last) {
        return false;
    }
    // Full column rank of the right member `X` of the pair `Xᵀ ... X`:
    // generically satisfied when X is square or tall. For square X we
    // additionally accept declared full rank (e.g. triangular inverses).
    if !last.shape().is_ok_and(|s| s.rows() >= s.cols()) {
        return false;
    }
    let middle = &factors[1..factors.len() - 1];
    match middle {
        [] => true,
        [single] => is_spd(single.borrow()),
        _ => spd_product(middle),
    }
}

/// Whether `b` is structurally the transpose of `a` (so `a·b` is a Gram
/// pair `Xᵀ X` with `X = b`). Two chain factors are compared leaf-wise.
fn is_transpose_pair(a: &Expr, b: &Expr) -> bool {
    if a.is_factor() && b.is_factor() {
        let (a, b) = (Leaf::of(a), Leaf::of(b));
        return a.is_well_formed()
            && b.is_well_formed()
            && a.canonical() == b.transposed_canonical();
    }
    match (
        canonical_transpose(&Expr::transpose(b.clone())),
        canonical_transpose(a),
    ) {
        (Some(bt), Some(ca)) => bt == ca,
        _ => false,
    }
}

/// A chain factor — a symbol under at most one unary operator — split
/// into its operand and the two components of the operator. Equal
/// canonical leaves are exactly equal [`canonical_transpose`] trees.
#[derive(Clone, Copy, PartialEq)]
struct Leaf<'a> {
    op: &'a Operand,
    transposed: bool,
    inverted: bool,
}

impl<'a> Leaf<'a> {
    /// The leaf of a chain factor (`e.is_factor()` must hold).
    fn of(e: &'a Expr) -> Leaf<'a> {
        let (inner, transposed, inverted) = match e {
            Expr::Transpose(inner) => (&**inner, true, false),
            Expr::Inverse(inner) => (&**inner, false, true),
            Expr::InverseTranspose(inner) => (&**inner, true, true),
            symbol => (symbol, false, false),
        };
        match inner {
            Expr::Symbol(op) => Leaf {
                op,
                transposed,
                inverted,
            },
            other => unreachable!("not a chain factor: {other}"),
        }
    }

    /// The canonical form: transposes of Symmetric operands are erased
    /// (`Sᵀ → S`, `S⁻ᵀ → S⁻¹`).
    fn canonical(self) -> Leaf<'a> {
        let symmetric = self.op.properties().contains(Property::Symmetric);
        Leaf {
            transposed: self.transposed && !symmetric,
            ..self
        }
    }

    /// The canonical form of the leaf's transpose.
    fn transposed_canonical(self) -> Leaf<'a> {
        Leaf {
            transposed: !self.transposed,
            ..self
        }
        .canonical()
    }

    /// Whether the leaf alone is well-formed: only an inverse needs a
    /// square operand.
    fn is_well_formed(self) -> bool {
        !self.inverted || self.op.shape().is_square()
    }
}

/// Whether `expr` is provably orthogonal (`QᵀQ = I`).
pub fn is_orthogonal(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::Orthogonal),
        Expr::Times(fs) => product_has(Property::Orthogonal, fs),
        Expr::Plus(_) => false,
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_orthogonal(e),
    }
}

/// Whether `expr` is provably a permutation matrix.
pub fn is_permutation(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::Permutation),
        Expr::Times(fs) => product_has(Property::Permutation, fs),
        Expr::Plus(_) => false,
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_permutation(e),
    }
}

/// Whether `expr` is provably triangular with a unit diagonal.
///
/// Products require agreeing triangularity: the product of two unit
/// *lower* triangular matrices is unit lower triangular (and likewise for
/// upper), but mixing sides loses the unit diagonal.
pub fn is_unit_diagonal(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::UnitDiagonal),
        Expr::Times(fs) => product_has(Property::UnitDiagonal, fs),
        Expr::Plus(_) => false,
        Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => is_unit_diagonal(e),
    }
}

/// Whether `expr` is provably of full rank.
///
/// Products of full-rank *square* factors are full rank; rank can drop
/// for rectangular products, so those are conservatively rejected.
/// Inverses assert invertibility and are therefore full rank.
pub fn is_full_rank(expr: &Expr) -> bool {
    match expr {
        Expr::Symbol(op) => op.properties().contains(Property::FullRank),
        Expr::Times(fs) => product_has(Property::FullRank, fs),
        Expr::Plus(_) => false,
        Expr::Transpose(e) => is_full_rank(e),
        Expr::Inverse(_) | Expr::InverseTranspose(_) => true,
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

    #[test]
    fn transpose_pairs_of_leaves() {
        let b = Operand::matrix("B", 8, 5);
        assert!(is_transpose_pair(&b.transpose(), &b.expr()));
        assert!(!is_transpose_pair(&b.expr(), &b.expr()));
        // The inverse of a non-square leaf is ill-formed, pair or not.
        assert!(!is_transpose_pair(&b.inverse(), &b.inverse_transpose()));
        // A Symmetric operand is its own transpose.
        assert!(is_transpose_pair(&sym("S").expr(), &sym("S").expr()));
    }
}
