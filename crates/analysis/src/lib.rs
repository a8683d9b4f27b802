//! Property inference for symbolic matrix expressions.
//!
//! This crate implements `infer_properties` from the GMC algorithm
//! (paper Fig. 4 line 10 and Sec. 3.2): given an expression tree whose
//! leaves are operands annotated with properties, it derives the
//! properties of the *result* without computing it — purely symbolically,
//! at a cost independent of the matrix sizes.
//!
//! The engine follows the paper's design: one dedicated predicate per
//! property (paper Fig. 6 shows `is_lower_triangular`), each recursing
//! over the expression tree, plus the closure rules of
//! [`gmc_expr::PropertySet`]. Example inference rules:
//!
//! ```text
//! LoTri(A) ∧ LoTri(B) → LoTri(AB)
//! LoTri(A)            → UppTri(Aᵀ)
//! Sym(A)              → Sym(A⁻¹)
//! XᵀX                 → SPD   (X of full column rank)
//! ```
//!
//! # Example
//!
//! The paper's Fig. 5: in `A Bᵀ` with `A` lower and `B` upper triangular,
//! the product is lower triangular — independently of how it is computed:
//!
//! ```
//! use gmc_expr::{Expr, Operand, Property};
//! use gmc_analysis::{infer_properties, is_lower_triangular};
//!
//! let a = Operand::square("A", 8).with_property(Property::LowerTriangular);
//! let b = Operand::square("B", 8).with_property(Property::UpperTriangular);
//! let expr = a.expr() * b.transpose();
//! assert!(is_lower_triangular(&expr));
//! assert!(infer_properties(&expr).contains(Property::LowerTriangular));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod infer;
mod predicates;
pub mod symbolic;

pub use infer::{
    canonical_transpose, infer_product_properties, infer_properties, infer_view_product,
    infer_view_product_logged,
};
pub use predicates::{
    is_diagonal, is_full_rank, is_identity, is_lower_triangular, is_orthogonal, is_permutation,
    is_spd, is_symmetric, is_unit_diagonal, is_upper_triangular, is_zero, ShapeQuestion,
};
pub use symbolic::Tri;
