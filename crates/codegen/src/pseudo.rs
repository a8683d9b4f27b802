//! Mathematical pseudocode emission, for reports and teaching output.

use crate::program::Program;
use crate::Emitter;
use gmc_kernels::{KernelOp, Side};
use std::fmt::{self, Write as _};

/// Emits one line per instruction in mathematical notation, annotated
/// with the kernel routine:
///
/// ```text
/// T1_2 := B C^T        [trmm]
/// T0_2 := A^-1 T1_2    [posv]
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct PseudoEmitter;

/// Renders the mathematical form of an operation, e.g. `A^-1 T1`.
pub fn math_form(op: &KernelOp) -> String {
    let mut out = String::new();
    write_math_form(&mut out, op).expect("writing to a String cannot fail");
    out
}

/// An operand name with an operator suffix (`^T`, `^-1`, `^-T` or none).
struct Sup<'a>(&'a str, &'static str);

impl fmt::Display for Sup<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)?;
        f.write_str(self.1)
    }
}

/// `name`, transposed if `flag`.
fn t(name: &str, flag: bool) -> Sup<'_> {
    Sup(name, if flag { "^T" } else { "" })
}

/// `name`'s inverse, or its inverse transpose if `trans`.
fn inv(name: &str, trans: bool) -> Sup<'_> {
    Sup(name, if trans { "^-T" } else { "^-1" })
}

/// `op other` for a left-side kernel, `other op` for a right-side one.
fn sided(
    out: &mut String,
    side: Side,
    op: impl fmt::Display,
    other: impl fmt::Display,
) -> fmt::Result {
    match side {
        Side::Left => write!(out, "{op} {other}"),
        Side::Right => write!(out, "{other} {op}"),
    }
}

/// Appends the mathematical form of an operation to `out`.
fn write_math_form(out: &mut String, op: &KernelOp) -> fmt::Result {
    match op {
        KernelOp::Gemm { ta, tb, a, b } => {
            write!(out, "{} {}", t(a.name(), *ta), t(b.name(), *tb))
        }
        KernelOp::Trmm {
            side, trans, a, b, ..
        } => sided(out, *side, t(a.name(), *trans), b.name()),
        KernelOp::Symm { side, a, b } => sided(out, *side, a.name(), b.name()),
        KernelOp::Trsm {
            side,
            trans,
            tb,
            a,
            b,
            ..
        }
        | KernelOp::Gesv {
            side,
            trans,
            tb,
            a,
            b,
        } => sided(out, *side, inv(a.name(), *trans), t(b.name(), *tb)),
        KernelOp::Posv { side, tb, a, b } => {
            sided(out, *side, inv(a.name(), false), t(b.name(), *tb))
        }
        KernelOp::Syrk { trans, a } => {
            if *trans {
                write!(out, "{}^T {}", a.name(), a.name())
            } else {
                write!(out, "{} {}^T", a.name(), a.name())
            }
        }
        KernelOp::Diag {
            side,
            inv: inverted,
            tb,
            d,
            b,
        } => {
            let dd = if *inverted {
                inv(d.name(), false)
            } else {
                t(d.name(), false)
            };
            sided(out, *side, dd, t(b.name(), *tb))
        }
        KernelOp::Gemv { trans, a, x } | KernelOp::Trmv { trans, a, x, .. } => {
            write!(out, "{} {}", t(a.name(), *trans), x.name())
        }
        KernelOp::Symv { a, x } => write!(out, "{} {}", a.name(), x.name()),
        KernelOp::Trsv { trans, a, x, .. } => {
            write!(out, "{} {}", inv(a.name(), *trans), x.name())
        }
        KernelOp::Ger { x, y } => write!(out, "{} {}^T", x.name(), y.name()),
        KernelOp::Dot { x, y } => write!(out, "{}^T {}", x.name(), y.name()),
        KernelOp::Copy { b } => out.write_str(b.name()),
        KernelOp::Inv { trans, a, .. } => write!(out, "{}", inv(a.name(), *trans)),
        KernelOp::InvPair { ta, tb, a, b } => {
            write!(out, "{} {}", inv(a.name(), *ta), inv(b.name(), *tb))
        }
    }
}

impl Emitter for PseudoEmitter {
    fn language(&self) -> &str {
        "pseudo"
    }

    fn emit(&self, program: &Program) -> String {
        // Every math form, rendered once into one buffer; the width
        // pass and the lines read them from there.
        let mut forms = String::with_capacity(16 * program.len());
        let mut spans = Vec::with_capacity(program.len());
        for instr in program.instructions() {
            let start = forms.len();
            write_math_form(&mut forms, instr.op()).expect("writing to a String cannot fail");
            spans.push(start..forms.len());
        }
        let instructions = program.instructions();
        let width = instructions
            .iter()
            .zip(&spans)
            .map(|(i, span)| i.dest().name().len() + span.len())
            .max()
            .unwrap_or(0);
        // Each line is `width + 4` wide up to its `[family]` tag.
        let mut out = String::with_capacity((width + 16) * instructions.len());
        for (i, span) in instructions.iter().zip(spans) {
            let name = i.dest().name();
            let pad = width + 4 - (name.len() + span.len());
            push_line!(
                out,
                "{name} := {}{:pad$}[{}]",
                &forms[span],
                "",
                i.op().family()
            );
        }
        // Lines are separated, not terminated, by newlines.
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Instruction;
    use gmc_expr::{Operand, Property, PropertySet, Shape};
    use gmc_kernels::Uplo;

    #[test]
    fn math_forms() {
        let a = Operand::square("A", 4).with_property(Property::SymmetricPositiveDefinite);
        let b = Operand::matrix("B", 4, 2);
        let op = KernelOp::Posv {
            side: Side::Left,
            tb: false,
            a,
            b,
        };
        assert_eq!(math_form(&op), "A^-1 B");
    }

    #[test]
    fn emit_annotates_kernels() {
        let c = Operand::square("C", 2).with_property(Property::LowerTriangular);
        let b = Operand::matrix("B", 4, 2);
        let t = Operand::temporary("T1_2", Shape::new(4, 2), PropertySet::new());
        let program = Program::new(vec![Instruction::new(
            t,
            KernelOp::Trmm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: true,
                a: c,
                b,
            },
        )]);
        let text = PseudoEmitter.emit(&program);
        assert!(text.contains("T1_2 := B C^T"));
        assert!(text.contains("[trmm]"));
    }
}
