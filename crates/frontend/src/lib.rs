//! Frontend for the Linnea-style input language of the GMC paper
//! (Fig. 1–2): a lexer, a recursive-descent parser with positioned
//! error messages, and lowering to `gmc-expr` operands and expressions.
//!
//! Tokens borrow the source text: an identifier ([`Tok::Ident`]) is a
//! slice of it, and [`parse`] streams the tokens from the lexer without
//! copying them. Parsing a concrete problem allocates little beyond
//! what the [`Problem`] it returns keeps: each operand's name and
//! shared cell, and the expression nodes.
//!
//! # Example
//!
//! ```
//! use gmc_frontend::parse;
//! use gmc_expr::Chain;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = parse(
//!     "Matrix A (2000, 2000) <SPD>\n\
//!      Matrix B (2000, 200)\n\
//!      Matrix C (200, 200) <LowerTriangular>\n\
//!      X := A^-1 * B * C^T\n",
//! )?;
//! let (target, expr) = &problem.assignments[0];
//! assert_eq!(target, "X");
//! let chain = Chain::from_expr(expr)?;
//! assert_eq!(chain.len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod parser;
mod render;

pub use lexer::{lex, LexError, Tok, Token};
pub use parser::{parse, ParseError, Problem, SymbolicProblem};
pub use render::{render_error, render_problem};
