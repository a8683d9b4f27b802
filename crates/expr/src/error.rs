//! Error types for symbolic expression construction and validation.

use crate::{Property, Shape};
use std::fmt;

/// Errors produced while building, normalizing or validating expressions
/// and chains.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExprError {
    /// Two factors of a product have mismatching inner dimensions.
    ShapeMismatch {
        /// Shape of the left factor.
        left: Shape,
        /// Shape of the right factor.
        right: Shape,
        /// Human-readable description of where the mismatch occurred.
        context: String,
    },
    /// The operands of a sum have different shapes.
    SumShapeMismatch {
        /// Shape of the first summand.
        first: Shape,
        /// Shape of the offending summand.
        other: Shape,
    },
    /// Inversion applied to a non-square expression.
    NonSquareInverse {
        /// The offending shape.
        shape: Shape,
    },
    /// A chain was requested from an expression that is not a product of
    /// (possibly transposed/inverted) operands.
    NotAChain {
        /// Description of the offending sub-expression.
        offending: String,
    },
    /// The chain has fewer than two factors (paper Sec. 1.1 requires
    /// well-formed chains of length two or higher).
    ChainTooShort {
        /// Number of factors found.
        len: usize,
    },
    /// The chain has more than [`MAX_FACTORS`](crate::MAX_FACTORS)
    /// factors.
    ChainTooLong {
        /// Number of factors found.
        len: usize,
    },
    /// A property that requires a square matrix was attached to a
    /// non-square operand.
    InvalidProperty {
        /// The property in question.
        property: Property,
        /// The operand's shape.
        shape: Shape,
        /// The operand's name.
        operand: String,
    },
    /// An empty product or sum was encountered.
    EmptyExpression,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::ShapeMismatch {
                left,
                right,
                context,
            } => write!(
                f,
                "dimension mismatch in product: {left} times {right} ({context})"
            ),
            ExprError::SumShapeMismatch { first, other } => {
                write!(f, "dimension mismatch in sum: {first} plus {other}")
            }
            ExprError::NonSquareInverse { shape } => {
                write!(f, "cannot invert non-square expression of shape {shape}")
            }
            ExprError::NotAChain { offending } => {
                write!(f, "expression is not a matrix chain: {offending}")
            }
            ExprError::ChainTooShort { len } => {
                write!(f, "matrix chain must have length two or higher, got {len}")
            }
            ExprError::ChainTooLong { len } => write!(
                f,
                "matrix chain has {len} factors, above the bound of {}",
                crate::MAX_FACTORS
            ),
            ExprError::InvalidProperty {
                property,
                shape,
                operand,
            } => write!(
                f,
                "property {property} requires a square matrix, but operand {operand} has shape {shape}"
            ),
            ExprError::EmptyExpression => write!(f, "empty product or sum"),
        }
    }
}

impl std::error::Error for ExprError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ExprError::ShapeMismatch {
            left: Shape::new(2, 3),
            right: Shape::new(4, 5),
            context: "factor 1 times factor 2".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));

        let e = ExprError::ChainTooShort { len: 1 };
        assert!(e.to_string().contains("two or higher"));

        let e = ExprError::NonSquareInverse {
            shape: Shape::new(3, 4),
        };
        assert!(e.to_string().contains("non-square"));
    }
}
