//! Syntactic many-to-one pattern matching with discrimination nets.
//!
//! The GMC algorithm selects kernels by matching the bounded expressions
//! produced during dynamic programming (`f1(A) · f2(B)`, at most five
//! nodes — paper Sec. 3.4) against the set of kernel patterns `K`
//! (paper Table 1). The paper uses MatchPy for this; this crate provides
//! the same facility natively: patterns are compiled into a
//! *discrimination net* (a trie over flattened term representations,
//! see Christian 1993; Gräf 1991 — the paper's refs [12, 23]), so that
//! one traversal of the subject expression finds **all** matching
//! patterns. The complexity is bounded by the size of the patterns, not
//! by their number, which yields the `O(1)` matching cost the paper's
//! complexity analysis relies on.
//!
//! The kernel registry of `gmc-kernels` does not walk a net: all of its
//! patterns are binary products of two unary-wrapped leaves, so it
//! dispatches on the two unary operators instead, in the order a net
//! would report the matches. This crate is the general matcher: the
//! reference solver of `gmc` matches through it, and the tests use it as
//! the oracle for that dispatch.
//!
//! Pattern variables ([`Var`]) bind *operands* (leaf symbols). Patterns
//! may be non-linear: repeating a variable requires the positions to bind
//! the same operand, which expresses kernels like `SYRK` (`XᵀX`).
//!
//! # Example
//!
//! ```
//! use gmc_expr::{Operand, Expr};
//! use gmc_pattern::{DiscriminationNet, Pattern, Var};
//!
//! let x = Var::new(0);
//! let y = Var::new(1);
//! let mut net = DiscriminationNet::new();
//! net.insert(Pattern::times2(Pattern::var(x), Pattern::var(y)), "gemm-nn");
//! net.insert(Pattern::times2(Pattern::transpose(Pattern::var(x)), Pattern::var(x)), "syrk-t");
//!
//! let a = Operand::matrix("A", 4, 3);
//! let expr = a.transpose() * a.expr();
//! let hits = net.matches(&expr);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(*hits[0].payload, "syrk-t");
//! assert_eq!(hits[0].bindings.get(x).unwrap().name(), "A");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod net;
mod pattern;

pub use net::{DiscriminationNet, FlatTermScratch, Match};
pub use pattern::{Bindings, Pattern, Var};
