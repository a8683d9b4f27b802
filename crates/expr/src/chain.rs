//! Validated matrix chains — the input type of the GMC algorithm.

use crate::{Expr, ExprError, Operand, Shape};
use std::fmt;

/// The unary operator attached to a chain factor.
///
/// The four values form a little group under composition:
/// transposing an inverted operand yields [`UnaryOp::InverseTranspose`],
/// and so on. This is the "extended set of binary operators" view of
/// paper Sec. 3.1: a binary product of two factors each carrying one of
/// these four markers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// The operand as is.
    #[default]
    None,
    /// `Aᵀ`.
    Transpose,
    /// `A⁻¹`.
    Inverse,
    /// `A⁻ᵀ`.
    InverseTranspose,
}

impl UnaryOp {
    /// Composes `self` with a subsequent transposition.
    #[must_use]
    pub fn then_transpose(self) -> UnaryOp {
        match self {
            UnaryOp::None => UnaryOp::Transpose,
            UnaryOp::Transpose => UnaryOp::None,
            UnaryOp::Inverse => UnaryOp::InverseTranspose,
            UnaryOp::InverseTranspose => UnaryOp::Inverse,
        }
    }

    /// Composes `self` with a subsequent inversion.
    #[must_use]
    pub fn then_inverse(self) -> UnaryOp {
        match self {
            UnaryOp::None => UnaryOp::Inverse,
            UnaryOp::Transpose => UnaryOp::InverseTranspose,
            UnaryOp::Inverse => UnaryOp::None,
            UnaryOp::InverseTranspose => UnaryOp::Transpose,
        }
    }

    /// Whether the operator involves an inversion.
    pub fn is_inverted(&self) -> bool {
        matches!(self, UnaryOp::Inverse | UnaryOp::InverseTranspose)
    }

    /// Whether the operator involves a transposition.
    pub fn is_transposed(&self) -> bool {
        matches!(self, UnaryOp::Transpose | UnaryOp::InverseTranspose)
    }

    /// The shape of `op(A)` for an operand of shape `s`.
    pub fn apply_to_shape(&self, s: Shape) -> Shape {
        if self.is_transposed() {
            s.transposed()
        } else {
            s
        }
    }

    /// The display suffix: `""`, `"^T"`, `"^-1"` or `"^-T"`.
    pub fn suffix(&self) -> &'static str {
        match self {
            UnaryOp::None => "",
            UnaryOp::Transpose => "^T",
            UnaryOp::Inverse => "^-1",
            UnaryOp::InverseTranspose => "^-T",
        }
    }
}

/// One factor `fᵢ` of a matrix chain: an operand with an optional unary
/// operator.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Factor {
    operand: Operand,
    op: UnaryOp,
}

impl Factor {
    /// Creates a factor.
    pub fn new(operand: Operand, op: UnaryOp) -> Self {
        Factor { operand, op }
    }

    /// A plain (unmodified) factor.
    pub fn plain(operand: Operand) -> Self {
        Factor::new(operand, UnaryOp::None)
    }

    /// A transposed factor.
    pub fn transposed(operand: Operand) -> Self {
        Factor::new(operand, UnaryOp::Transpose)
    }

    /// An inverted factor.
    pub fn inverted(operand: Operand) -> Self {
        Factor::new(operand, UnaryOp::Inverse)
    }

    /// An inverted-and-transposed factor.
    pub fn inverse_transposed(operand: Operand) -> Self {
        Factor::new(operand, UnaryOp::InverseTranspose)
    }

    /// The underlying operand.
    pub fn operand(&self) -> &Operand {
        &self.operand
    }

    /// The unary operator.
    pub fn op(&self) -> UnaryOp {
        self.op
    }

    /// The effective shape of the factor (operand shape with the unary
    /// operator applied).
    pub fn shape(&self) -> Shape {
        self.op.apply_to_shape(self.operand.shape())
    }

    /// Converts the factor back to an [`Expr`].
    pub fn expr(&self) -> Expr {
        match self.op {
            UnaryOp::None => self.operand.expr(),
            UnaryOp::Transpose => self.operand.transpose(),
            UnaryOp::Inverse => self.operand.inverse(),
            UnaryOp::InverseTranspose => self.operand.inverse_transpose(),
        }
    }
}

impl fmt::Display for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.operand, self.op.suffix())
    }
}

impl fmt::Debug for Factor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Factor({self} : {})", self.shape())
    }
}

/// The longest admitted chain, in factors. The DP is cubic in the
/// length, and every surface that takes a chain (`gmcc` sources, trace
/// structures, plan stores, registered structures) builds it through
/// [`Chain::new`] or [`SymChain::new`](crate::SymChain::new), which
/// refuse a longer one.
pub const MAX_FACTORS: usize = 256;

/// A well-formed matrix chain `M := f0 · f1 ··· f(n-1)` (paper Sec. 1.1).
///
/// Invariants enforced at construction:
///
/// * from two to [`MAX_FACTORS`] factors,
/// * adjacent factors have matching inner dimensions,
/// * inverted factors are square.
///
/// # Example
///
/// ```
/// use gmc_expr::{Chain, Factor, Operand, UnaryOp};
///
/// # fn main() -> Result<(), gmc_expr::ExprError> {
/// let l = Operand::square("L", 10);
/// let b = Operand::matrix("B", 10, 4);
/// let chain = Chain::new(vec![Factor::inverted(l), Factor::plain(b)])?;
/// assert_eq!(chain.to_string(), "L^-1 B");
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Chain {
    factors: Vec<Factor>,
    shape: Shape,
}

impl Chain {
    /// Creates a chain from factors, validating well-formedness.
    ///
    /// # Errors
    ///
    /// * [`ExprError::ChainTooShort`] if fewer than two factors are given,
    /// * [`ExprError::ChainTooLong`] if more than [`MAX_FACTORS`] are,
    /// * [`ExprError::NonSquareInverse`] if an inverted factor is not square,
    /// * [`ExprError::ShapeMismatch`] if adjacent dimensions do not agree.
    pub fn new(factors: Vec<Factor>) -> Result<Self, ExprError> {
        if factors.len() < 2 {
            return Err(ExprError::ChainTooShort { len: factors.len() });
        }
        if factors.len() > MAX_FACTORS {
            return Err(ExprError::ChainTooLong { len: factors.len() });
        }
        for f in &factors {
            if f.op().is_inverted() && !f.operand().shape().is_square() {
                return Err(ExprError::NonSquareInverse {
                    shape: f.operand().shape(),
                });
            }
        }
        let mut shape = factors[0].shape();
        for (i, f) in factors.iter().enumerate().skip(1) {
            let s = f.shape();
            shape = shape.times(s).ok_or_else(|| ExprError::ShapeMismatch {
                left: shape,
                right: s,
                context: format!(
                    "factor {} ({}) times factor {} ({})",
                    i - 1,
                    factors[i - 1],
                    i,
                    f
                ),
            })?;
        }
        Ok(Chain { factors, shape })
    }

    /// Extracts a chain from an expression.
    ///
    /// The expression is [normalized](Expr::normalized) first, so inputs
    /// like `(A B)ᵀ C` are accepted (they normalize to `Bᵀ Aᵀ C`).
    ///
    /// # Errors
    ///
    /// Returns [`ExprError::NotAChain`] if, after normalization, the
    /// expression is not a product of unary-operator factors (e.g. it
    /// contains a sum or an inverse of a sum), plus the errors of
    /// [`Chain::new`].
    pub fn from_expr(expr: &Expr) -> Result<Self, ExprError> {
        let normalized = expr.normalized()?;
        let factor_exprs: Vec<&Expr> = match &normalized {
            Expr::Times(fs) => fs.iter().collect(),
            other => vec![other],
        };
        let mut factors = Vec::with_capacity(factor_exprs.len());
        for fe in factor_exprs {
            let factor = match fe {
                Expr::Symbol(op) => Factor::plain(op.clone()),
                Expr::Transpose(inner) => match &**inner {
                    Expr::Symbol(op) => Factor::transposed(op.clone()),
                    other => {
                        return Err(ExprError::NotAChain {
                            offending: other.to_string(),
                        })
                    }
                },
                Expr::Inverse(inner) => match &**inner {
                    Expr::Symbol(op) => Factor::inverted(op.clone()),
                    other => {
                        return Err(ExprError::NotAChain {
                            offending: other.to_string(),
                        })
                    }
                },
                Expr::InverseTranspose(inner) => match &**inner {
                    Expr::Symbol(op) => Factor::inverse_transposed(op.clone()),
                    other => {
                        return Err(ExprError::NotAChain {
                            offending: other.to_string(),
                        })
                    }
                },
                other => {
                    return Err(ExprError::NotAChain {
                        offending: other.to_string(),
                    })
                }
            };
            factors.push(factor);
        }
        Chain::new(factors)
    }

    /// The number of factors `n`.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Chains are never empty (length ≥ 2 by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The factors, in order.
    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// The `i`-th factor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn factor(&self, i: usize) -> &Factor {
        &self.factors[i]
    }

    /// The shape of the full product.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// The shape of the sub-chain `M[i..=j]`.
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j >= self.len()`.
    pub fn sub_shape(&self, i: usize, j: usize) -> Shape {
        assert!(i <= j && j < self.factors.len(), "invalid sub-chain range");
        Shape::new(
            self.factors[i].shape().rows(),
            self.factors[j].shape().cols(),
        )
    }

    /// The classic MCP size array `sizes[0..=n]` where factor `i` has
    /// shape `sizes[i] × sizes[i+1]` (paper Sec. 2).
    ///
    /// This is always well defined for a valid chain because adjacent
    /// dimensions agree.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.factors.len() + 1);
        sizes.push(self.factors[0].shape().rows());
        for f in &self.factors {
            sizes.push(f.shape().cols());
        }
        sizes
    }

    /// Converts back to an [`Expr`] (a flat product).
    pub fn to_expr(&self) -> Expr {
        Expr::times(self.factors.iter().map(Factor::expr))
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, factor) in self.factors.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{factor}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Chain({self} : {})", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Property;

    #[test]
    fn unary_op_group() {
        assert_eq!(UnaryOp::None.then_transpose(), UnaryOp::Transpose);
        assert_eq!(UnaryOp::Transpose.then_transpose(), UnaryOp::None);
        assert_eq!(UnaryOp::Inverse.then_transpose(), UnaryOp::InverseTranspose);
        assert_eq!(UnaryOp::InverseTranspose.then_inverse(), UnaryOp::Transpose);
        assert_eq!(UnaryOp::None.then_inverse(), UnaryOp::Inverse);
        assert_eq!(UnaryOp::Inverse.then_inverse(), UnaryOp::None);
        // Composition is involutive in both generators.
        for op in [
            UnaryOp::None,
            UnaryOp::Transpose,
            UnaryOp::Inverse,
            UnaryOp::InverseTranspose,
        ] {
            assert_eq!(op.then_transpose().then_transpose(), op);
            assert_eq!(op.then_inverse().then_inverse(), op);
        }
    }

    #[test]
    fn factor_shapes() {
        let a = Operand::matrix("A", 3, 5);
        assert_eq!(Factor::plain(a.clone()).shape(), Shape::new(3, 5));
        assert_eq!(Factor::transposed(a).shape(), Shape::new(5, 3));
    }

    #[test]
    fn chain_construction_and_accessors() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 3, 5);
        let c = Operand::matrix("C", 5, 5);
        let chain = Chain::new(vec![
            Factor::plain(a),
            Factor::plain(b),
            Factor::inverted(c),
        ])
        .unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.shape(), Shape::new(2, 5));
        assert_eq!(chain.sub_shape(0, 1), Shape::new(2, 5));
        assert_eq!(chain.sub_shape(1, 2), Shape::new(3, 5));
        assert_eq!(chain.sizes(), vec![2, 3, 5, 5]);
    }

    #[test]
    fn chain_too_short() {
        let a = Operand::matrix("A", 2, 3);
        assert!(matches!(
            Chain::new(vec![Factor::plain(a)]),
            Err(ExprError::ChainTooShort { len: 1 })
        ));
    }

    #[test]
    fn chain_length_is_bounded() {
        let a = Operand::square("A", 10);
        let chain = |len| Chain::new(vec![Factor::plain(a.clone()); len]);
        assert_eq!(chain(MAX_FACTORS).unwrap().len(), 256);
        let err = chain(MAX_FACTORS + 1).unwrap_err();
        assert_eq!(err, ExprError::ChainTooLong { len: 257 });
        assert_eq!(
            err.to_string(),
            "matrix chain has 257 factors, above the bound of 256"
        );
    }

    #[test]
    fn chain_dimension_mismatch() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 4, 5);
        assert!(matches!(
            Chain::new(vec![Factor::plain(a), Factor::plain(b)]),
            Err(ExprError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn chain_inverted_rectangular_rejected() {
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 2, 5);
        // Aᵀ is 3x2... invert A (2x3): invalid.
        assert!(matches!(
            Chain::new(vec![Factor::inverted(a), Factor::plain(b)]),
            Err(ExprError::NonSquareInverse { .. })
        ));
    }

    #[test]
    fn transposed_factors_fix_dimensions() {
        // A is 3x2; Aᵀ is 2x3, so Aᵀ·B works with B 3x4.
        let a = Operand::matrix("A", 3, 2);
        let b = Operand::matrix("B", 3, 4);
        let chain = Chain::new(vec![Factor::transposed(a), Factor::plain(b)]).unwrap();
        assert_eq!(chain.shape(), Shape::new(2, 4));
        assert_eq!(chain.to_string(), "A^T B");
    }

    #[test]
    fn from_expr_simple() {
        let a = Operand::square("A", 4).with_property(Property::SymmetricPositiveDefinite);
        let b = Operand::matrix("B", 4, 6);
        let c = Operand::matrix("C", 6, 6).with_property(Property::LowerTriangular);
        let e = a.inverse() * b.expr() * c.transpose();
        let chain = Chain::from_expr(&e).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.factor(0).op(), UnaryOp::Inverse);
        assert_eq!(chain.factor(1).op(), UnaryOp::None);
        assert_eq!(chain.factor(2).op(), UnaryOp::Transpose);
        assert_eq!(chain.to_string(), "A^-1 B C^T");
    }

    #[test]
    fn from_expr_normalizes() {
        let a = Operand::square("A", 4);
        let b = Operand::square("B", 4);
        let c = Operand::square("C", 4);
        // (A·B)ᵀ · C should become Bᵀ Aᵀ C.
        let e = Expr::transpose(a.expr() * b.expr()) * c.expr();
        let chain = Chain::from_expr(&e).unwrap();
        assert_eq!(chain.to_string(), "B^T A^T C");
    }

    #[test]
    fn from_expr_rejects_sums() {
        let a = Operand::square("A", 4);
        let b = Operand::square("B", 4);
        let e = (a.expr() + b.expr()) * b.expr();
        assert!(matches!(
            Chain::from_expr(&e),
            Err(ExprError::NotAChain { .. })
        ));
    }

    #[test]
    fn from_expr_rejects_single_symbol() {
        let a = Operand::square("A", 4);
        assert!(matches!(
            Chain::from_expr(&a.expr()),
            Err(ExprError::ChainTooShort { .. })
        ));
    }

    #[test]
    fn round_trip_to_expr() {
        let a = Operand::square("A", 4);
        let b = Operand::matrix("B", 4, 7);
        let chain = Chain::new(vec![Factor::inverse_transposed(a), Factor::plain(b)]).unwrap();
        let e = chain.to_expr();
        let chain2 = Chain::from_expr(&e).unwrap();
        assert_eq!(chain, chain2);
        assert_eq!(chain.to_string(), "A^-T B");
    }

    #[test]
    fn vector_chain() {
        // M v: matrix times column vector.
        let m = Operand::matrix("M", 8, 5);
        let v = Operand::col_vector("v", 5);
        let chain = Chain::new(vec![Factor::plain(m), Factor::plain(v)]).unwrap();
        assert_eq!(chain.shape(), Shape::col_vector(8));

        // Outer product v wᵀ.
        let v = Operand::col_vector("v", 5);
        let w = Operand::col_vector("w", 7);
        let chain = Chain::new(vec![Factor::plain(v), Factor::transposed(w)]).unwrap();
        assert_eq!(chain.shape(), Shape::new(5, 7));
    }
}
