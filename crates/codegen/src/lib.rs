//! Program IR and code emitters for GMC kernel sequences (paper
//! Sec. 3.5).
//!
//! The GMC algorithm (and each baseline strategy) produces a
//! [`Program`]: a straight-line sequence of [`Instruction`]s in
//! dependency order, each pairing a destination temporary with a
//! [`gmc_kernels::KernelOp`]. Emitters translate programs to source
//! text:
//!
//! * [`JuliaEmitter`] — the paper's target (Table 2 style, with in-place
//!   buffer reuse),
//! * [`RustEmitter`] — Rust code against the `gmc-runtime` helpers,
//! * [`PseudoEmitter`] — mathematical pseudocode for reports.
//!
//! # Example
//!
//! ```
//! use gmc_codegen::{Emitter, Instruction, JuliaEmitter, Program};
//! use gmc_expr::{Operand, PropertySet, Shape};
//! use gmc_kernels::KernelOp;
//!
//! let a = Operand::matrix("A", 4, 5);
//! let b = Operand::matrix("B", 5, 6);
//! let t = Operand::temporary("T", Shape::new(4, 6), PropertySet::new());
//! let program = Program::new(vec![Instruction::new(
//!     t,
//!     KernelOp::Gemm { ta: false, tb: false, a, b },
//! )]);
//! let code = JuliaEmitter::default().emit(&program);
//! assert!(code.contains("BLAS.gemm('N', 'N', 1.0, A, B)"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Appends one line to an emitter's output: `writeln!` into a
/// `String`, which cannot fail. The emitters write every line this way
/// into one buffer and drop the final newline.
macro_rules! push_line {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    };
}

/// Bytes the Julia and Rust emitters reserve per instruction (plus one
/// for the header or trailer): a line with short operand names, with
/// room for a copy or transposes beside it.
const LINE_BYTES: usize = 64;

mod julia;
mod program;
mod pseudo;
mod rust;
mod sym;

pub use julia::JuliaEmitter;
pub use program::{Instruction, Program};
pub use pseudo::{math_form, PseudoEmitter};
pub use rust::RustEmitter;
pub use sym::emit_size_generic_rust;

/// Translates a [`Program`] into source text for some target language.
pub trait Emitter {
    /// Emits the program as source text.
    fn emit(&self, program: &Program) -> String;

    /// The name of the target language (e.g. `"julia"`).
    fn language(&self) -> &str;
}
