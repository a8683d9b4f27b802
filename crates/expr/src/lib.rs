//! Symbolic matrix expressions for the Generalized Matrix Chain algorithm.
//!
//! This crate provides the symbolic substrate of the GMC compiler pipeline
//! (Barthels, Copik, Bientinesi — CGO 2018):
//!
//! * [`Shape`] — matrix dimensions (vectors are `n×1` / `1×n` matrices),
//! * [`Property`] / [`PropertySet`] — structural annotations such as
//!   *lower triangular* or *symmetric positive definite* (paper Fig. 2),
//! * [`Operand`] — a named matrix with a shape and properties,
//! * [`Expr`] — expression trees over the grammar of paper Fig. 1
//!   (products, sums, transpose, inverse, inverse-transpose),
//! * [`Chain`] — a validated matrix chain `f0 · f1 ··· f(n-1)` where every
//!   factor is an operand with an optional unary operator; this is the
//!   input type of the GMC algorithm.
//!
//! # Example
//!
//! Build the chain `X := A⁻¹ B Cᵀ` from the paper's Table 2, where `A` is
//! symmetric positive definite and `C` is lower triangular:
//!
//! ```
//! use gmc_expr::{Chain, Expr, Operand, Property, Shape};
//!
//! # fn main() -> Result<(), gmc_expr::ExprError> {
//! let a = Operand::matrix("A", 1000, 1000)
//!     .with_property(Property::SymmetricPositiveDefinite);
//! let b = Operand::matrix("B", 1000, 800);
//! let c = Operand::matrix("C", 800, 800).with_property(Property::LowerTriangular);
//!
//! let expr = a.inverse() * b.expr() * c.transpose();
//! let chain = Chain::from_expr(&expr)?;
//! assert_eq!(chain.len(), 3);
//! assert_eq!(chain.shape(), Shape::new(1000, 800));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod dim;
mod error;
mod expr;
mod operand;
mod poly;
mod properties;
mod shape;
mod sym;
mod view;

pub use chain::{Chain, Factor, UnaryOp, MAX_FACTORS};
pub use dim::{Dim, DimBindings, DimError, DimVar, MAX_DIM};
pub use error::ExprError;
pub use expr::Expr;
pub use operand::{is_temp_name, Operand, OperandKind};
pub use poly::{CostPoly, MAX_DEGREE};
pub use properties::{ParsePropertyError, Property, PropertySet};
pub use shape::{GenShape, Shape, ShapeError, SymShape};
pub use sym::{SymChain, SymChainError, SymFactor, SymOperand};
pub use view::{FactorView, OperandId, OperandView, Shaped};
