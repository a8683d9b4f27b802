//! Symbolic expression trees.

use crate::{ExprError, Operand, Shape};
use std::fmt;
use std::ops::{Add, Mul};

/// A symbolic linear algebra expression, following the grammar of paper
/// Fig. 1:
///
/// ```text
/// expr → symbol | expr + expr | expr · expr | expr⁻¹ | exprᵀ | expr⁻ᵀ
/// ```
///
/// Products and sums are stored n-ary (flattened) to make sub-chain
/// extraction natural. The grammar does not imply well-formedness;
/// [`Expr::shape`] performs dimension checking, and [`Expr::normalized`]
/// pushes unary operators down to the leaves:
///
/// ```
/// use gmc_expr::{Expr, Operand};
///
/// # fn main() -> Result<(), gmc_expr::ExprError> {
/// let a = Operand::square("A", 4);
/// let b = Operand::square("B", 4);
/// // (A·B)ᵀ normalizes to Bᵀ·Aᵀ
/// let e = Expr::transpose(a.expr() * b.expr()).normalized()?;
/// assert_eq!(e.to_string(), "B^T A^T");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A named operand.
    Symbol(Operand),
    /// An n-ary product `e0 · e1 ··· ek`, in order.
    Times(Vec<Expr>),
    /// An n-ary sum `e0 + e1 + ··· + ek`.
    Plus(Vec<Expr>),
    /// `eᵀ`.
    Transpose(Box<Expr>),
    /// `e⁻¹`.
    Inverse(Box<Expr>),
    /// `e⁻ᵀ` (inverse of the transpose, equal to the transpose of the
    /// inverse).
    InverseTranspose(Box<Expr>),
}

impl Expr {
    /// Builds a product, flattening nested products.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty.
    pub fn times(factors: impl IntoIterator<Item = Expr>) -> Expr {
        let factors = factors.into_iter();
        let mut flat = Vec::with_capacity(factors.size_hint().0);
        for f in factors {
            match f {
                Expr::Times(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        assert!(!flat.is_empty(), "product must have at least one factor");
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Expr::Times(flat)
        }
    }

    /// Builds a sum, flattening nested sums.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty.
    pub fn plus(terms: impl IntoIterator<Item = Expr>) -> Expr {
        let terms = terms.into_iter();
        let mut flat = Vec::with_capacity(terms.size_hint().0);
        for t in terms {
            match t {
                Expr::Plus(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        assert!(!flat.is_empty(), "sum must have at least one term");
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Expr::Plus(flat)
        }
    }

    /// Builds `eᵀ`, simplifying double transposition and fusing with
    /// inversion: `(eᵀ)ᵀ = e`, `(e⁻¹)ᵀ = e⁻ᵀ`, `(e⁻ᵀ)ᵀ = e⁻¹`.
    pub fn transpose(e: Expr) -> Expr {
        match e {
            Expr::Transpose(inner) => *inner,
            Expr::Inverse(inner) => Expr::InverseTranspose(inner),
            Expr::InverseTranspose(inner) => Expr::Inverse(inner),
            other => Expr::Transpose(Box::new(other)),
        }
    }

    /// Builds `e⁻¹`, simplifying double inversion and fusing with
    /// transposition: `(e⁻¹)⁻¹ = e`, `(eᵀ)⁻¹ = e⁻ᵀ`, `(e⁻ᵀ)⁻¹ = eᵀ`.
    pub fn inverse(e: Expr) -> Expr {
        match e {
            Expr::Inverse(inner) => *inner,
            Expr::Transpose(inner) => Expr::InverseTranspose(inner),
            Expr::InverseTranspose(inner) => Expr::Transpose(inner),
            other => Expr::Inverse(Box::new(other)),
        }
    }

    /// Builds `e⁻ᵀ` with the analogous simplifications.
    pub fn inverse_transpose(e: Expr) -> Expr {
        match e {
            Expr::InverseTranspose(inner) => *inner,
            Expr::Transpose(inner) => Expr::Inverse(inner),
            Expr::Inverse(inner) => Expr::Transpose(inner),
            other => Expr::InverseTranspose(Box::new(other)),
        }
    }

    /// Computes the shape of the expression, validating dimension
    /// compatibility along the way.
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::ShapeMismatch`] for products with mismatched
    /// inner dimensions, [`ExprError::SumShapeMismatch`] for sums of
    /// different shapes, and [`ExprError::NonSquareInverse`] when an
    /// inverse is applied to a non-square sub-expression.
    pub fn shape(&self) -> Result<Shape, ExprError> {
        match self {
            Expr::Symbol(op) => Ok(op.shape()),
            Expr::Times(factors) => {
                let mut iter = factors.iter();
                let first = iter.next().ok_or(ExprError::EmptyExpression)?;
                let mut acc = first.shape()?;
                for (i, f) in iter.enumerate() {
                    let s = f.shape()?;
                    acc = acc.times(s).ok_or_else(|| ExprError::ShapeMismatch {
                        left: acc,
                        right: s,
                        context: format!("factor {} times factor {}", i, i + 1),
                    })?;
                }
                Ok(acc)
            }
            Expr::Plus(terms) => {
                let mut iter = terms.iter();
                let first = iter.next().ok_or(ExprError::EmptyExpression)?;
                let s0 = first.shape()?;
                for t in iter {
                    let s = t.shape()?;
                    if s != s0 {
                        return Err(ExprError::SumShapeMismatch {
                            first: s0,
                            other: s,
                        });
                    }
                }
                Ok(s0)
            }
            Expr::Transpose(inner) => Ok(inner.shape()?.transposed()),
            Expr::Inverse(inner) | Expr::InverseTranspose(inner) => {
                let s = inner.shape()?;
                if !s.is_square() {
                    return Err(ExprError::NonSquareInverse { shape: s });
                }
                Ok(s)
            }
        }
    }

    /// Normalizes the expression: unary operators are pushed down to the
    /// leaves, products and sums are flattened, and double applications
    /// cancel.
    ///
    /// Rules applied (recursively, to a fixpoint):
    ///
    /// * `(e0 ··· ek)ᵀ → ekᵀ ··· e0ᵀ`
    /// * `(e0 ··· ek)⁻¹ → ek⁻¹ ··· e0⁻¹` (every factor must be square)
    /// * `(e0 + ··· + ek)ᵀ → e0ᵀ + ··· + ekᵀ`
    /// * `(eᵀ)ᵀ → e`, `(e⁻¹)⁻¹ → e`, `(eᵀ)⁻¹ → e⁻ᵀ`, …
    ///
    /// The inverse of a sum is *not* rewritten (there is no distributive
    /// law); it remains as an `Inverse` node.
    ///
    /// # Errors
    ///
    /// Returns the same well-formedness errors as [`Expr::shape`]; in
    /// particular, distributing an inverse over a product of non-square
    /// factors yields [`ExprError::NonSquareInverse`].
    pub fn normalized(&self) -> Result<Expr, ExprError> {
        // Validate shapes once up front so normalization cannot turn an
        // ill-formed expression into a well-formed one.
        self.shape()?;
        self.normalize_inner()
    }

    fn normalize_inner(&self) -> Result<Expr, ExprError> {
        match self {
            Expr::Symbol(_) => Ok(self.clone()),
            Expr::Times(factors) => {
                let parts = factors
                    .iter()
                    .map(Expr::normalize_inner)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Expr::times(parts))
            }
            Expr::Plus(terms) => {
                let parts = terms
                    .iter()
                    .map(Expr::normalize_inner)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Expr::plus(parts))
            }
            Expr::Transpose(inner) => {
                let inner = inner.normalize_inner()?;
                match inner {
                    Expr::Times(factors) => {
                        let rev = factors
                            .into_iter()
                            .rev()
                            .map(|f| Expr::transpose(f).normalize_inner())
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok(Expr::times(rev))
                    }
                    Expr::Plus(terms) => {
                        let ts = terms
                            .into_iter()
                            .map(|t| Expr::transpose(t).normalize_inner())
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok(Expr::plus(ts))
                    }
                    other => Ok(Expr::transpose(other)),
                }
            }
            Expr::Inverse(inner) => {
                let inner = inner.normalize_inner()?;
                match inner {
                    Expr::Times(factors) => {
                        for f in &factors {
                            let s = f.shape()?;
                            if !s.is_square() {
                                return Err(ExprError::NonSquareInverse { shape: s });
                            }
                        }
                        let rev = factors
                            .into_iter()
                            .rev()
                            .map(|f| Expr::inverse(f).normalize_inner())
                            .collect::<Result<Vec<_>, _>>()?;
                        Ok(Expr::times(rev))
                    }
                    other => Ok(Expr::inverse(other)),
                }
            }
            Expr::InverseTranspose(inner) => {
                // e⁻ᵀ = (e⁻¹)ᵀ; reuse the two rewrites above.
                let inv = Expr::Inverse(inner.clone()).normalize_inner()?;
                Expr::Transpose(Box::new(inv)).normalize_inner()
            }
        }
    }

    /// Iterates over all operands appearing in the expression, in
    /// left-to-right order (with repetition).
    pub fn symbols(&self) -> Vec<&Operand> {
        let mut out = Vec::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols<'a>(&'a self, out: &mut Vec<&'a Operand>) {
        match self {
            Expr::Symbol(op) => out.push(op),
            Expr::Times(es) | Expr::Plus(es) => {
                for e in es {
                    e.collect_symbols(out);
                }
            }
            Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => {
                e.collect_symbols(out)
            }
        }
    }

    /// The number of nodes in the expression tree (symbols and operators).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Symbol(_) => 1,
            Expr::Times(es) | Expr::Plus(es) => 1 + es.iter().map(Expr::node_count).sum::<usize>(),
            Expr::Transpose(e) | Expr::Inverse(e) | Expr::InverseTranspose(e) => 1 + e.node_count(),
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Plus(_) => 0,
            Expr::Times(_) => 1,
            Expr::Transpose(_) | Expr::Inverse(_) | Expr::InverseTranspose(_) => 2,
            Expr::Symbol(_) => 3,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        let needs_parens = self.precedence() < min_prec;
        if needs_parens {
            write!(f, "(")?;
        }
        match self {
            Expr::Symbol(op) => write!(f, "{op}")?,
            Expr::Times(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    e.fmt_with_parens(f, 2)?;
                }
            }
            Expr::Plus(es) => {
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    e.fmt_with_parens(f, 1)?;
                }
            }
            Expr::Transpose(e) => {
                e.fmt_with_parens(f, 3)?;
                write!(f, "^T")?;
            }
            Expr::Inverse(e) => {
                e.fmt_with_parens(f, 3)?;
                write!(f, "^-1")?;
            }
            Expr::InverseTranspose(e) => {
                e.fmt_with_parens(f, 3)?;
                write!(f, "^-T")?;
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Expr({self})")
    }
}

impl Mul for Expr {
    type Output = Expr;

    fn mul(self, rhs: Expr) -> Expr {
        Expr::times([self, rhs])
    }
}

impl Add for Expr {
    type Output = Expr;

    fn add(self, rhs: Expr) -> Expr {
        Expr::plus([self, rhs])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Property;

    fn sq(name: &str, n: usize) -> Operand {
        Operand::square(name, n)
    }

    #[test]
    fn product_flattening() {
        let a = sq("A", 3).expr();
        let b = sq("B", 3).expr();
        let c = sq("C", 3).expr();
        let e = (a * b) * c;
        match &e {
            Expr::Times(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flattened product, got {other:?}"),
        }
    }

    #[test]
    fn shape_of_product() {
        let a = Operand::matrix("A", 2, 3).expr();
        let b = Operand::matrix("B", 3, 5).expr();
        assert_eq!((a.clone() * b).shape().unwrap(), Shape::new(2, 5));
        let bad = a * Operand::matrix("C", 4, 4).expr();
        assert!(matches!(bad.shape(), Err(ExprError::ShapeMismatch { .. })));
    }

    #[test]
    fn shape_of_sum() {
        let a = Operand::matrix("A", 2, 3).expr();
        let b = Operand::matrix("B", 2, 3).expr();
        assert_eq!((a.clone() + b).shape().unwrap(), Shape::new(2, 3));
        let bad = a + Operand::matrix("C", 3, 2).expr();
        assert!(matches!(
            bad.shape(),
            Err(ExprError::SumShapeMismatch { .. })
        ));
    }

    #[test]
    fn unary_simplifications() {
        let a = sq("A", 3);
        assert_eq!(Expr::transpose(a.transpose()), a.expr());
        assert_eq!(Expr::inverse(a.inverse()), a.expr());
        assert_eq!(Expr::transpose(a.inverse()), a.inverse_transpose());
        assert_eq!(Expr::inverse(a.transpose()), a.inverse_transpose());
        assert_eq!(Expr::inverse_transpose(a.inverse_transpose()), a.expr());
        assert_eq!(Expr::inverse_transpose(a.transpose()), a.inverse());
        assert_eq!(Expr::inverse_transpose(a.inverse()), a.transpose());
    }

    #[test]
    fn normalize_transpose_of_product() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 3, 5);
        let e = Expr::transpose(a.expr() * b.expr()).normalized().unwrap();
        assert_eq!(e.to_string(), "B^T A^T");
        assert_eq!(e.shape().unwrap(), Shape::new(5, 2));
    }

    #[test]
    fn normalize_inverse_of_product() {
        let a = sq("A", 4);
        let b = sq("B", 4);
        let e = Expr::inverse(a.expr() * b.expr()).normalized().unwrap();
        assert_eq!(e.to_string(), "B^-1 A^-1");
    }

    #[test]
    fn normalize_inverse_of_rectangular_product_fails() {
        // A·B is square (2x3 · 3x2 = 2x2) but the factors are not, so
        // the inverse cannot be distributed.
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 3, 2);
        let e = Expr::inverse(a.expr() * b.expr());
        assert!(matches!(
            e.normalized(),
            Err(ExprError::NonSquareInverse { .. })
        ));
    }

    #[test]
    fn normalize_transpose_of_sum() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 2, 3);
        let e = Expr::transpose(a.expr() + b.expr()).normalized().unwrap();
        assert_eq!(e.to_string(), "A^T + B^T");
    }

    #[test]
    fn normalize_inverse_transpose_of_product() {
        let a = sq("A", 4);
        let b = sq("B", 4);
        // (AB)⁻ᵀ = A⁻ᵀ? No: (AB)⁻ᵀ = ((AB)⁻¹)ᵀ = (B⁻¹A⁻¹)ᵀ = A⁻ᵀ B⁻ᵀ.
        let e = Expr::inverse_transpose(a.expr() * b.expr())
            .normalized()
            .unwrap();
        assert_eq!(e.to_string(), "A^-T B^-T");
    }

    #[test]
    fn normalize_is_idempotent() {
        let a = sq("A", 4);
        let b = sq("B", 4);
        let c = Operand::matrix("C", 4, 7);
        let e = Expr::transpose(Expr::inverse(a.expr() * b.expr())) * c.expr();
        let n1 = e.normalized().unwrap();
        let n2 = n1.normalized().unwrap();
        assert_eq!(n1, n2);
    }

    #[test]
    fn normalization_preserves_shape() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 3, 5);
        let e = Expr::transpose(a.expr() * b.expr());
        let n = e.normalized().unwrap();
        assert_eq!(e.shape().unwrap(), n.shape().unwrap());
    }

    #[test]
    fn display_precedence() {
        let a = sq("A", 3);
        let b = sq("B", 3);
        let sum_times = (a.expr() + b.expr()) * b.expr();
        assert_eq!(sum_times.to_string(), "(A + B) B");
        let t = Expr::transpose(a.expr() + b.expr());
        assert_eq!(t.to_string(), "(A + B)^T");
        let chain = a.inverse() * b.expr() * a.transpose();
        assert_eq!(chain.to_string(), "A^-1 B A^T");
    }

    #[test]
    fn symbols_in_order() {
        let a = sq("A", 3);
        let b = sq("B", 3);
        let e = a.inverse() * b.expr() * a.transpose();
        let names: Vec<_> = e.symbols().iter().map(|o| o.name()).collect();
        assert_eq!(names, vec!["A", "B", "A"]);
    }

    #[test]
    fn node_count() {
        let a = sq("A", 3);
        let b = sq("B", 3);
        // Times(Inverse(A), B) = 1 + (1+1) + 1 = 4
        let e = a.inverse() * b.expr();
        assert_eq!(e.node_count(), 4);
    }

    #[test]
    fn spd_operand_in_expr() {
        let a = sq("A", 3).with_property(Property::SymmetricPositiveDefinite);
        let e = a.inverse();
        assert_eq!(e.shape().unwrap(), Shape::square(3));
    }
}
