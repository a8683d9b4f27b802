//! The Generalized Matrix Chain algorithm (Barthels, Copik, Bientinesi —
//! CGO 2018).
//!
//! Given a matrix chain `M := f0 · f1 ··· f(n-1)` whose factors may be
//! transposed and/or inverted and whose operands carry structural
//! properties, the [`GmcOptimizer`] finds the parenthesization *and*
//! kernel mapping minimizing a pluggable [`CostMetric`], producing an
//! executable kernel sequence ([`GmcSolution`]).
//!
//! The crate also contains the classic matrix chain DP ([`mcp`]) that
//! the GMC algorithm generalizes (paper Sec. 2).
//!
//! # Quickstart
//!
//! ```
//! use gmc::{FlopCount, GmcOptimizer};
//! use gmc_expr::{Chain, Operand, Property};
//! use gmc_kernels::KernelRegistry;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // X := A⁻¹ B Cᵀ with A SPD and C lower triangular (paper Table 2).
//! let a = Operand::square("A", 2000).with_property(Property::SymmetricPositiveDefinite);
//! let b = Operand::matrix("B", 2000, 200);
//! let c = Operand::square("C", 200).with_property(Property::LowerTriangular);
//! let chain = Chain::from_expr(&(a.inverse() * b.expr() * c.transpose()))?;
//!
//! let registry = KernelRegistry::blas_lapack();
//! let solution = GmcOptimizer::new(&registry, FlopCount).solve(&chain)?;
//!
//! // A Cholesky solve and a triangular multiply — never an explicit
//! // inverse.
//! assert_eq!(solution.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gmc;
pub mod mcp;
mod metric;
pub mod reference;

pub use gmc::{CellGrid, GmcError, GmcOptimizer, GmcSolution, GmcWorkspace, InferenceMode, Step};
pub use metric::{Cost, CostMetric, FlopCount, FlopsThenKernels, FnMetric, Lex2, TimeModel};
