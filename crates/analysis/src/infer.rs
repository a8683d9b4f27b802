//! The top-level `infer_properties` entry points and structural helpers.

use crate::predicates::{has, product_has, ShapeQuestion};
use gmc_expr::{Expr, FactorView, Property, PropertySet};

/// Infers the full property set of an expression (paper Fig. 4, line 10).
///
/// Runs every property predicate and collects the results; the returned
/// set is closed under implication. The cost is `O(p · |expr|)` where `p`
/// is the number of properties and `|expr|` the tree size — independent
/// of the matrix dimensions, which is the key advantage over
/// inspect-the-entries approaches (paper Sec. 3.2).
///
/// # Example
///
/// ```
/// use gmc_expr::{Operand, Property};
/// use gmc_analysis::infer_properties;
///
/// let a = Operand::matrix("A", 20, 15);
/// let props = infer_properties(&(a.transpose() * a.expr()));
/// assert!(props.contains(Property::SymmetricPositiveDefinite));
/// assert!(props.contains(Property::Symmetric));
/// ```
pub fn infer_properties(expr: &Expr) -> PropertySet {
    Property::all().filter(|&p| has(p, expr)).collect()
}

/// Infers the property set of the product `left · right` from its two
/// sides, by reference: equal to
/// `infer_properties(&Expr::times([left.clone(), right.clone()]))`, but
/// for two sides that are not products themselves no product tree is
/// built. The product rules are the ones the predicates apply to a
/// product node.
///
/// # Example
///
/// ```
/// use gmc_expr::{Expr, Operand, Property};
/// use gmc_analysis::{infer_product_properties, infer_properties};
///
/// let l = Operand::square("L", 8).with_property(Property::LowerTriangular);
/// let u = Operand::square("U", 8).with_property(Property::UpperTriangular);
/// let props = infer_product_properties(&l.expr(), &u.transpose());
/// assert!(props.contains(Property::LowerTriangular));
/// assert_eq!(props, infer_properties(&(l.expr() * u.transpose())));
/// ```
pub fn infer_product_properties(left: &Expr, right: &Expr) -> PropertySet {
    if matches!(left, Expr::Times(_)) || matches!(right, Expr::Times(_)) {
        // `Expr::times` splices nested products into one sequence.
        return infer_properties(&Expr::times([left.clone(), right.clone()]));
    }
    Property::all()
        .filter(|&p| product_has(p, &[left, right], &mut |_, _| {}))
        .collect()
}

/// Infers the property set of the product of two factor views by the
/// same product rules as [`infer_product_properties`]: the
/// compositional inference of a GMC split (paper Fig. 4, line 10),
/// whose sides are chain factors or temporaries, read as plain data.
/// [`infer_view_product_logged`] is the same inference, reporting the
/// shape questions it asks.
///
/// # Example
///
/// ```
/// use gmc_expr::{Factor, Operand, OperandId, Property};
/// use gmc_analysis::{infer_product_properties, infer_view_product};
///
/// let a = Operand::matrix("A", 8, 5);
/// let at = Factor::transposed(a.clone()).view(OperandId::Factor(0));
/// let plain = Factor::plain(a.clone()).view(OperandId::Factor(0));
/// let props = infer_view_product(&at, &plain);
/// assert!(props.contains(Property::SymmetricPositiveDefinite));
/// assert_eq!(props, infer_product_properties(&a.transpose(), &a.expr()));
/// ```
pub fn infer_view_product(left: &FactorView, right: &FactorView) -> PropertySet {
    infer_view_product_logged(left, right, |_, _| {})
}

/// [`infer_view_product`], reporting each shape question the product
/// rules ask (factor 0 is `left`, factor 1 is `right`) to `log` with its
/// answer. The result depends on the two views' shapes only through the
/// logged answers, so it is the same for every pair of views that agree
/// with `left` and `right` in everything else and answer the logged
/// questions the same way.
///
/// # Example
///
/// ```
/// use gmc_expr::{Factor, Operand, OperandId, Property};
/// use gmc_analysis::{infer_view_product_logged, ShapeQuestion};
///
/// let a = Operand::matrix("A", 8, 5);
/// let at = Factor::transposed(a.clone()).view(OperandId::Factor(0));
/// let plain = Factor::plain(a).view(OperandId::Factor(0));
/// let mut asked = Vec::new();
/// let props = infer_view_product_logged(&at, &plain, |q, answer| asked.push((q, answer)));
/// assert!(props.contains(Property::SymmetricPositiveDefinite));
/// // `AᵀA` is SPD because `A` is tall: the only shape question asked.
/// assert_eq!(asked, vec![(ShapeQuestion::Tall(1), true)]);
/// ```
pub fn infer_view_product_logged(
    left: &FactorView,
    right: &FactorView,
    mut log: impl FnMut(ShapeQuestion, bool),
) -> PropertySet {
    Property::all()
        .filter(|&p| product_has(p, &[left, right], &mut log))
        .collect()
}

/// Canonical form used for structural symmetry checks: the expression is
/// [normalized](Expr::normalized) (unary operators pushed to the leaves)
/// and transposes of *symmetric* leaf operands are erased (`Sᵀ → S`,
/// `S⁻ᵀ → S⁻¹`).
///
/// Two expressions with equal canonical forms denote the same matrix;
/// in particular, `e` is symmetric iff `canonical_transpose(e) ==
/// canonical_transpose(eᵀ)`. Returns `None` for ill-formed expressions.
pub fn canonical_transpose(expr: &Expr) -> Option<Expr> {
    let normalized = expr.normalized().ok()?;
    Some(erase_symmetric_transposes(normalized))
}

fn erase_symmetric_transposes(e: Expr) -> Expr {
    match e {
        Expr::Symbol(_) => e,
        Expr::Times(fs) => Expr::Times(fs.into_iter().map(erase_symmetric_transposes).collect()),
        Expr::Plus(ts) => Expr::Plus(ts.into_iter().map(erase_symmetric_transposes).collect()),
        Expr::Transpose(inner) => match *inner {
            Expr::Symbol(ref op) if op.properties().contains(Property::Symmetric) => {
                Expr::Symbol(op.clone())
            }
            other => Expr::Transpose(Box::new(erase_symmetric_transposes(other))),
        },
        Expr::InverseTranspose(inner) => match *inner {
            Expr::Symbol(ref op) if op.properties().contains(Property::Symmetric) => {
                Expr::Inverse(Box::new(Expr::Symbol(op.clone())))
            }
            other => Expr::InverseTranspose(Box::new(erase_symmetric_transposes(other))),
        },
        Expr::Inverse(inner) => Expr::Inverse(Box::new(erase_symmetric_transposes(*inner))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{Factor, Operand, OperandId, UnaryOp};

    #[test]
    fn infer_collects_and_closes() {
        let l = Operand::square("L", 5).with_property(Property::LowerTriangular);
        let u = Operand::square("U", 5).with_property(Property::UpperTriangular);
        // L Uᵀ: product of two lower triangular matrices.
        let props = infer_properties(&(l.expr() * u.transpose()));
        assert!(props.contains(Property::LowerTriangular));
        assert!(!props.contains(Property::Diagonal));
    }

    #[test]
    fn infer_diagonal_product_closure() {
        let d1 = Operand::square("D1", 5).with_property(Property::Diagonal);
        let d2 = Operand::square("D2", 5).with_property(Property::Diagonal);
        let props = infer_properties(&(d1.expr() * d2.expr()));
        assert!(props.contains(Property::Diagonal));
        assert!(props.contains(Property::Symmetric)); // via closure
        assert!(props.contains(Property::LowerTriangular));
    }

    #[test]
    fn infer_gram_spd() {
        let a = Operand::square("A", 20);
        let props = infer_properties(&(a.transpose() * a.expr()));
        assert!(props.contains(Property::SymmetricPositiveDefinite));
        assert!(props.contains(Property::FullRank)); // closure from SPD
    }

    #[test]
    fn canonical_form_erases_symmetric_transpose() {
        let s = Operand::square("S", 5).with_property(Property::Symmetric);
        let c = canonical_transpose(&s.transpose()).unwrap();
        assert_eq!(c, s.expr());
        let c = canonical_transpose(&s.inverse_transpose()).unwrap();
        assert_eq!(c, Expr::inverse(s.expr()));
    }

    #[test]
    fn canonical_form_distributes_transpose() {
        let a = Operand::square("A", 5);
        let b = Operand::square("B", 5);
        let c = canonical_transpose(&Expr::transpose(a.expr() * b.expr())).unwrap();
        assert_eq!(c.to_string(), "B^T A^T");
    }

    #[test]
    fn canonical_form_rejects_ill_formed() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 2, 3);
        assert!(canonical_transpose(&(a.expr() * b.expr())).is_none());
    }

    #[test]
    fn views_infer_what_their_expressions_infer() {
        // Every unary pair over square operands of every property, a
        // tall and a wide operand, and the same operand on both sides.
        let mut operands = vec![Operand::matrix("R", 6, 4), Operand::matrix("W", 4, 6)];
        for p in Property::all() {
            operands.push(Operand::square(format!("S{}", p.name()), 4).with_property(p));
        }
        operands.push(Operand::square("A", 4));
        let ops = [
            UnaryOp::None,
            UnaryOp::Transpose,
            UnaryOp::Inverse,
            UnaryOp::InverseTranspose,
        ];
        for a in &operands {
            for b in &operands {
                for lu in ops {
                    for ru in ops {
                        let (l, r) = (Factor::new(a.clone(), lu), Factor::new(b.clone(), ru));
                        if lu.is_inverted() && !a.shape().is_square()
                            || ru.is_inverted() && !b.shape().is_square()
                        {
                            continue;
                        }
                        let rid = OperandId::Factor(usize::from(a != b));
                        let views = infer_view_product(&l.view(OperandId::Factor(0)), &r.view(rid));
                        assert_eq!(
                            views,
                            infer_product_properties(&l.expr(), &r.expr()),
                            "{l} · {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn infer_on_temporaries_is_compositional() {
        // Simulate the GMC flow: T = AᵀA is inferred SPD, then T·B
        // (T symbolic temp carrying SPD) keeps symmetric inference paths
        // working through the temp's property set.
        let a = Operand::square("A", 20);
        let t_props = infer_properties(&(a.transpose() * a.expr()));
        let t = Operand::temporary("T0", gmc_expr::Shape::square(20), t_props);
        assert!(t.properties().contains(Property::SymmetricPositiveDefinite));
        // Tᵀ is erased in canonical form because T is symmetric.
        let c = canonical_transpose(&t.transpose()).unwrap();
        assert_eq!(c, t.expr());
    }
}
