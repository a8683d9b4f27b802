//! Rust code emission targeting the `gmc-runtime` execution helpers.
//!
//! The emitted code calls the `gmc_runtime::ops` functions, which mirror
//! [`KernelOp`] variants one-to-one over `gmc_linalg::Matrix` values.

use crate::program::Program;
use crate::{Emitter, LINE_BYTES};
use gmc_kernels::{KernelOp, Side, Uplo};
use std::fmt::{self, Write as _};

/// Emits Rust source for a [`Program`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RustEmitter;

/// An operand name as a Rust identifier: lower case, every character
/// that is neither alphanumeric nor `_` replaced by `_`, and a leading
/// digit prefixed with `_`. Displays without allocating.
#[derive(Clone, Copy)]
pub(crate) struct Ident<'a>(pub(crate) &'a str);

impl<'a> Ident<'a> {
    fn chars(self) -> impl Iterator<Item = char> + 'a {
        let digit_first = self.0.starts_with(|c: char| c.is_ascii_digit());
        digit_first
            .then_some('_')
            .into_iter()
            .chain(self.0.chars().map(|c| {
                if c.is_alphanumeric() || c == '_' {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            }))
    }

    /// FNV-1a, 64-bit, over the identifier's characters.
    fn hash(self) -> u64 {
        self.chars().fold(0xcbf2_9ce4_8422_2325, |h, c| {
            (h ^ u64::from(c)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

impl fmt::Display for Ident<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.chars().try_for_each(|c| f.write_char(c))
    }
}

/// The names `program` uses (operands and destinations, in order) whose
/// [`Ident`] an earlier, different name already took: two distinct
/// matrices such as `A` and `a`, or an input `t0_1` next to the
/// temporary `T0_1`, which the emitted code would read as one.
fn colliding_names<'p>(program: &'p Program) -> Vec<&'p str> {
    let mut seen: Vec<(&str, u64)> = Vec::with_capacity(2 * program.len() + 2);
    let mut collisions = Vec::new();
    let mut visit = |name: &'p str| {
        // The uses of one operand share its name's allocation.
        if seen.iter().any(|(n, _)| std::ptr::eq(*n, name)) {
            return;
        }
        let hash = Ident(name).hash();
        let mut same = seen
            .iter()
            .filter(|(n, h)| *h == hash && Ident(n).chars().eq(Ident(name).chars()));
        if same.clone().any(|(n, _)| *n == name) {
            return;
        }
        if same.next().is_some() {
            collisions.push(name);
        }
        seen.push((name, hash));
    };
    for instr in program.instructions() {
        instr.op().for_each_operand(|o| visit(o.name()));
        visit(instr.dest().name());
    }
    collisions
}

fn side(s: Side) -> &'static str {
    match s {
        Side::Left => "Side::Left",
        Side::Right => "Side::Right",
    }
}

fn uplo(u: Uplo) -> &'static str {
    match u {
        Uplo::Lower => "Triangle::Lower",
        Uplo::Upper => "Triangle::Upper",
    }
}

impl Emitter for RustEmitter {
    fn language(&self) -> &str {
        "rust"
    }

    fn emit(&self, program: &Program) -> String {
        let mut out = String::with_capacity(LINE_BYTES * (program.len() + 1));
        push_line!(
            out,
            "// Generated by gmc-codegen; compile against gmc-runtime::ops."
        );
        // Fail loudly rather than wire two matrices to one identifier.
        for name in colliding_names(program) {
            push_line!(
                out,
                "compile_error!(\"gmc-codegen: operand `{name}` collides with another operand \
                 after identifier sanitization\");"
            );
        }
        for instr in program.instructions() {
            let d = Ident(instr.dest().name());
            match instr.op() {
                KernelOp::Gemm { ta, tb, a, b } => push_line!(
                    out,
                    "let {d} = ops::gemm(&{}, {ta}, &{}, {tb});",
                    Ident(a.name()),
                    Ident(b.name())
                ),
                KernelOp::Trmm {
                    side: s,
                    uplo: u,
                    trans,
                    a,
                    b,
                } => push_line!(
                    out,
                    "let {d} = ops::trmm({}, {}, {trans}, &{}, &{});",
                    side(*s),
                    uplo(*u),
                    Ident(a.name()),
                    Ident(b.name())
                ),
                KernelOp::Symm { side: s, a, b } => push_line!(
                    out,
                    "let {d} = ops::symm({}, &{}, &{});",
                    side(*s),
                    Ident(a.name()),
                    Ident(b.name())
                ),
                KernelOp::Trsm {
                    side: s,
                    uplo: u,
                    trans,
                    tb,
                    a,
                    b,
                } => push_line!(
                    out,
                    "let {d} = ops::trsm({}, {}, {trans}, {tb}, &{}, &{});",
                    side(*s),
                    uplo(*u),
                    Ident(a.name()),
                    Ident(b.name())
                ),
                KernelOp::Syrk { trans, a } => {
                    push_line!(out, "let {d} = ops::syrk({trans}, &{});", Ident(a.name()))
                }
                KernelOp::Gesv {
                    side: s,
                    trans,
                    tb,
                    a,
                    b,
                } => push_line!(
                    out,
                    "let {d} = ops::gesv({}, {trans}, {tb}, &{}, &{})?;",
                    side(*s),
                    Ident(a.name()),
                    Ident(b.name())
                ),
                KernelOp::Posv { side: s, tb, a, b } => push_line!(
                    out,
                    "let {d} = ops::posv({}, {tb}, &{}, &{})?;",
                    side(*s),
                    Ident(a.name()),
                    Ident(b.name())
                ),
                KernelOp::Diag {
                    side: s,
                    inv,
                    tb,
                    d: dg,
                    b,
                } => push_line!(
                    out,
                    "let {d} = ops::diag({}, {inv}, {tb}, &{}, &{})?;",
                    side(*s),
                    Ident(dg.name()),
                    Ident(b.name())
                ),
                KernelOp::Gemv { trans, a, x } => push_line!(
                    out,
                    "let {d} = ops::gemv({trans}, &{}, &{});",
                    Ident(a.name()),
                    Ident(x.name())
                ),
                KernelOp::Trmv {
                    uplo: u,
                    trans,
                    a,
                    x,
                } => push_line!(
                    out,
                    "let {d} = ops::trmv({}, {trans}, &{}, &{});",
                    uplo(*u),
                    Ident(a.name()),
                    Ident(x.name())
                ),
                KernelOp::Symv { a, x } => push_line!(
                    out,
                    "let {d} = ops::symv(&{}, &{});",
                    Ident(a.name()),
                    Ident(x.name())
                ),
                KernelOp::Trsv {
                    uplo: u,
                    trans,
                    a,
                    x,
                } => push_line!(
                    out,
                    "let {d} = ops::trsv({}, {trans}, &{}, &{});",
                    uplo(*u),
                    Ident(a.name()),
                    Ident(x.name())
                ),
                KernelOp::Ger { x, y } => push_line!(
                    out,
                    "let {d} = ops::ger(&{}, &{});",
                    Ident(x.name()),
                    Ident(y.name())
                ),
                KernelOp::Dot { x, y } => push_line!(
                    out,
                    "let {d} = ops::dot_op(&{}, &{});",
                    Ident(x.name()),
                    Ident(y.name())
                ),
                KernelOp::Copy { b } => push_line!(out, "let {d} = {}.clone();", Ident(b.name())),
                KernelOp::Inv { kind, trans, a } => push_line!(
                    out,
                    "let {d} = ops::inv({kind:?}, {trans}, &{})?;",
                    Ident(a.name())
                ),
                KernelOp::InvPair { ta, tb, a, b } => push_line!(
                    out,
                    "let {d} = ops::inv_pair({ta}, {tb}, &{}, &{})?;",
                    Ident(a.name()),
                    Ident(b.name())
                ),
            }
        }
        if let Some(last) = program.instructions().last() {
            push_line!(out, "// result: {}", Ident(last.dest().name()));
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
    use gmc_expr::{Operand, PropertySet, Shape};

    #[test]
    fn emits_runtime_calls() {
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 6);
        let t = Operand::temporary("T0_1", Shape::new(4, 6), PropertySet::new());
        let program = Program::new(vec![Instruction::new(
            t,
            KernelOp::Gemm {
                ta: false,
                tb: true,
                a,
                b,
            },
        )]);
        let code = RustEmitter.emit(&program);
        assert!(code.contains("let t0_1 = ops::gemm(&a, false, &b, true);"));
        assert!(code.contains("// result: t0_1"));
    }

    #[test]
    fn names_colliding_after_sanitization_fail_loudly() {
        // `A` and `a` are distinct matrices with one identifier `a`,
        // and the input `t1_2` would be shadowed by the temporary
        // `T1_2`: both must fail to compile, not read one matrix twice.
        let upper = Operand::matrix("A", 4, 5);
        let lower = Operand::matrix("a", 5, 6);
        let c = Operand::matrix("t1_2", 6, 2);
        let t12 = Operand::temporary("T1_2", Shape::new(5, 2), PropertySet::new());
        let t02 = Operand::temporary("T0_2", Shape::new(4, 2), PropertySet::new());
        let program = Program::new(vec![
            Instruction::new(
                t12.clone(),
                KernelOp::Gemm {
                    ta: false,
                    tb: false,
                    a: lower,
                    b: c,
                },
            ),
            Instruction::new(
                t02,
                KernelOp::Gemm {
                    ta: false,
                    tb: false,
                    a: upper,
                    b: t12,
                },
            ),
        ]);
        let code = RustEmitter.emit(&program);
        assert!(code.contains("operand `T1_2` collides"), "{code}");
        assert!(code.contains("operand `A` collides"), "{code}");
        assert_eq!(code.matches("compile_error!").count(), 2, "{code}");
    }

    #[test]
    fn identifiers_are_sanitized() {
        assert_eq!(Ident("T0_1").to_string(), "t0_1");
        assert_eq!(Ident("123").to_string(), "_123");
        assert_eq!(Ident("A-B").to_string(), "a_b");
    }
}
