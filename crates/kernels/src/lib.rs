//! The kernel set `K` of the GMC algorithm: BLAS/LAPACK-style kernels
//! described by patterns, constraints and cost functions (paper Table 1).
//!
//! A [`Kernel`] couples a structural [`gmc_pattern::Pattern`] with
//! property [`Constraint`]s (e.g. *is lower triangular(X)*) and an
//! instantiation function producing a concrete [`KernelOp`] — the
//! operation that code generation emits and the runtime executes. Every
//! kernel pattern is a binary product `op(?a) · op(?b)`, so the
//! [`KernelRegistry`] files each kernel under the (left unary, right
//! unary) pair of its pattern, and the GMC algorithm's `match` step
//! (paper Fig. 4 line 6) finds every applicable kernel with one lookup
//! among 16 slots, in the order a discrimination net over the patterns
//! would report them. [`KernelRegistry::blas_lapack`] builds its table
//! once per process and hands out shared handles.
//!
//! FLOP costs follow the paper's conventions: `GEMM` costs `2mnk`;
//! the structured kernels `TRMM`/`SYMM`/`TRSM` cost `m²n`; `SYRK` costs
//! `m²k`; solvers add the factorization cost (LU: `2/3·m³`, Cholesky:
//! `1/3·m³`); diagonal kernels cost `mn`.
//!
//! # Example
//!
//! ```
//! use gmc_expr::{Operand, Property};
//! use gmc_kernels::KernelRegistry;
//!
//! let registry = KernelRegistry::blas_lapack();
//! let a = Operand::square("A", 100).with_property(Property::SymmetricPositiveDefinite);
//! let b = Operand::matrix("B", 100, 10);
//! // A⁻¹·B: POSV (Cholesky solve) beats GESV (LU solve) and both beat
//! // explicit inversion, which is not even in the registry as a
//! // standalone kernel.
//! let best = registry.best_by_flops(&(a.inverse() * b.expr())).unwrap();
//! assert_eq!(best.kernel.name(), "POSV_LN");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod op;
mod registry;
mod sym;

pub use kernel::{Constraint, Kernel, KernelMatch, OpBuilder, ProductMatch, Rank};
pub use op::{InvKind, KernelFamily, KernelOp, Side, Uplo};
pub use registry::{KernelRegistry, RegistryBuilder};
pub use sym::FlopFormula;
