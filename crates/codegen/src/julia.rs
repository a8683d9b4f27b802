//! Julia code emission, in the style of the paper's Table 2.
//!
//! The GMC implementation in the paper generates Julia code that calls
//! BLAS/LAPACK wrappers, reusing input buffers for in-place kernels:
//!
//! ```text
//! trmm!('R', 'L', 'T', 'N', 1.0, C, B)
//! posv!('L', A, B)
//! ```
//!
//! This emitter reproduces that style: in-place kernels (`trmm!`,
//! `trsm!`, `posv!`, `gesv!`) overwrite their right-hand side buffer
//! when it is dead afterwards, and insert `copy(...)` when it is still
//! live (a tiny liveness analysis over the straight-line program).

use crate::program::Program;
use crate::{Emitter, LINE_BYTES};
use gmc_kernels::{KernelOp, Side, Uplo};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// Emits Julia source for a [`Program`].
#[derive(Clone, Copy, Debug)]
pub struct JuliaEmitter {
    /// Reuse dead buffers for in-place kernels (paper style). When
    /// false, every instruction assigns a fresh variable.
    pub reuse_buffers: bool,
}

impl Default for JuliaEmitter {
    fn default() -> Self {
        JuliaEmitter {
            reuse_buffers: true,
        }
    }
}

fn side(s: Side) -> char {
    match s {
        Side::Left => 'L',
        Side::Right => 'R',
    }
}

fn uplo(u: Uplo) -> char {
    match u {
        Uplo::Lower => 'L',
        Uplo::Upper => 'U',
    }
}

fn t(flag: bool) -> char {
    if flag {
        'T'
    } else {
        'N'
    }
}

/// An argument as an emitted call reads it.
#[derive(Clone, Copy)]
enum Arg<'p> {
    /// The buffer itself.
    Plain(&'p str),
    /// A copy, so an in-place kernel leaves a live buffer intact.
    Copy(&'p str),
    /// A materialized transpose.
    Transposed(&'p str),
    /// The lazy adjoint.
    Adjoint(&'p str),
}

impl fmt::Display for Arg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Arg::Plain(x) => f.write_str(x),
            Arg::Copy(x) => write!(f, "copy({x})"),
            Arg::Transposed(x) => write!(f, "Matrix({x}')"),
            Arg::Adjoint(x) => write!(f, "{x}'"),
        }
    }
}

/// The buffer currently holding the value of the operand `name`.
fn buf<'p>(buffer: &HashMap<&'p str, &'p str>, name: &'p str) -> &'p str {
    buffer.get(name).copied().unwrap_or(name)
}

impl Emitter for JuliaEmitter {
    fn language(&self) -> &str {
        "julia"
    }

    fn emit(&self, program: &Program) -> String {
        let mut out = String::with_capacity(LINE_BYTES * (program.len() + 1));
        // The buffer holding each operand's value, by operand name.
        let mut buffer: HashMap<&str, &str> = HashMap::with_capacity(program.len());

        for (idx, instr) in program.instructions().iter().enumerate() {
            let dest = instr.dest().name();
            // A solve overwrites `A` in place when it is dead afterwards.
            let solve_arg = |a: &str, a_buf| {
                if program.live_after(idx, a) {
                    Arg::Copy(a_buf)
                } else {
                    Arg::Plain(a_buf)
                }
            };
            // The buffer receiving the result.
            let value = match instr.op() {
                KernelOp::Gemm { ta, tb, a, b } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.gemm('{}', '{}', 1.0, {}, {})",
                        t(*ta),
                        t(*tb),
                        buf(&buffer, a.name()),
                        buf(&buffer, b.name())
                    );
                    dest
                }
                KernelOp::Trmm {
                    side: s,
                    uplo: u,
                    trans,
                    a,
                    b,
                } => {
                    let a_buf = buf(&buffer, a.name());
                    let target =
                        self.inplace_target(program, idx, b.name(), dest, a_buf, &buffer, &mut out);
                    push_line!(
                        out,
                        "trmm!('{}', '{}', '{}', 'N', 1.0, {a_buf}, {target})",
                        side(*s),
                        uplo(*u),
                        t(*trans)
                    );
                    target
                }
                KernelOp::Symm { side: s, a, b } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.symm('{}', 'L', 1.0, {}, {})",
                        side(*s),
                        buf(&buffer, a.name()),
                        buf(&buffer, b.name())
                    );
                    dest
                }
                KernelOp::Trsm {
                    side: s,
                    uplo: u,
                    trans,
                    tb,
                    a,
                    b,
                } => {
                    let a_buf = buf(&buffer, a.name());
                    let target = if *tb {
                        push_line!(out, "{dest} = Matrix({}')", buf(&buffer, b.name()));
                        dest
                    } else {
                        self.inplace_target(program, idx, b.name(), dest, a_buf, &buffer, &mut out)
                    };
                    push_line!(
                        out,
                        "trsm!('{}', '{}', '{}', 'N', 1.0, {a_buf}, {target})",
                        side(*s),
                        uplo(*u),
                        t(*trans)
                    );
                    target
                }
                KernelOp::Syrk { trans, a } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.syrk('L', '{}', 1.0, {})",
                        t(*trans),
                        buf(&buffer, a.name())
                    );
                    dest
                }
                KernelOp::Gesv {
                    side: s,
                    trans,
                    tb,
                    a,
                    b,
                } => {
                    let a_buf = buf(&buffer, a.name());
                    let target = if *tb {
                        push_line!(out, "{dest} = Matrix({}')", buf(&buffer, b.name()));
                        dest
                    } else {
                        self.inplace_target(program, idx, b.name(), dest, a_buf, &buffer, &mut out)
                    };
                    // gesv! factorizes in place: protect A if live (or
                    // transposed). A right-side solve X·A = B is
                    // AᵀXᵀ = Bᵀ; the Julia wrapper call works on the
                    // transposed system.
                    let a_arg = match (trans, s) {
                        (false, Side::Left) | (true, Side::Right) => solve_arg(a.name(), a_buf),
                        (true, Side::Left) | (false, Side::Right) => Arg::Transposed(a_buf),
                    };
                    solve_lines(
                        &mut out,
                        *s,
                        format_args!("gesv!({a_arg}, {target})"),
                        target,
                    );
                    target
                }
                KernelOp::Posv { side: s, tb, a, b } => {
                    let a_buf = buf(&buffer, a.name());
                    let target = if *tb {
                        push_line!(out, "{dest} = Matrix({}')", buf(&buffer, b.name()));
                        dest
                    } else {
                        self.inplace_target(program, idx, b.name(), dest, a_buf, &buffer, &mut out)
                    };
                    let a_arg = solve_arg(a.name(), a_buf);
                    solve_lines(
                        &mut out,
                        *s,
                        format_args!("posv!('L', {a_arg}, {target})"),
                        target,
                    );
                    target
                }
                KernelOp::Diag {
                    side: s,
                    inv,
                    tb,
                    d,
                    b,
                } => {
                    let bb = buf(&buffer, b.name());
                    let b_arg = if *tb {
                        Arg::Transposed(bb)
                    } else {
                        Arg::Plain(bb)
                    };
                    let dd = buf(&buffer, d.name());
                    match (s, inv) {
                        (Side::Left, false) => push_line!(out, "{dest} = Diagonal({dd}) * {b_arg}"),
                        (Side::Left, true) => push_line!(out, "{dest} = Diagonal({dd}) \\ {b_arg}"),
                        (Side::Right, false) => {
                            push_line!(out, "{dest} = {b_arg} * Diagonal({dd})")
                        }
                        (Side::Right, true) => push_line!(out, "{dest} = {b_arg} / Diagonal({dd})"),
                    }
                    dest
                }
                KernelOp::Gemv { trans, a, x } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.gemv('{}', 1.0, {}, {})",
                        t(*trans),
                        buf(&buffer, a.name()),
                        buf(&buffer, x.name())
                    );
                    dest
                }
                KernelOp::Trmv {
                    uplo: u,
                    trans,
                    a,
                    x,
                } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.trmv('{}', '{}', 'N', {}, {})",
                        uplo(*u),
                        t(*trans),
                        buf(&buffer, a.name()),
                        buf(&buffer, x.name())
                    );
                    dest
                }
                KernelOp::Symv { a, x } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.symv('L', 1.0, {}, {})",
                        buf(&buffer, a.name()),
                        buf(&buffer, x.name())
                    );
                    dest
                }
                KernelOp::Trsv {
                    uplo: u,
                    trans,
                    a,
                    x,
                } => {
                    push_line!(
                        out,
                        "{dest} = BLAS.trsv('{}', '{}', 'N', {}, {})",
                        uplo(*u),
                        t(*trans),
                        buf(&buffer, a.name()),
                        buf(&buffer, x.name())
                    );
                    dest
                }
                KernelOp::Ger { x, y } => {
                    push_line!(
                        out,
                        "{dest} = {} * {}'",
                        buf(&buffer, x.name()),
                        buf(&buffer, y.name())
                    );
                    dest
                }
                KernelOp::Dot { x, y } => {
                    push_line!(
                        out,
                        "{dest} = dot({}, {})",
                        buf(&buffer, x.name()),
                        buf(&buffer, y.name())
                    );
                    dest
                }
                KernelOp::Copy { b } => {
                    push_line!(out, "{dest} = copy({})", buf(&buffer, b.name()));
                    dest
                }
                KernelOp::Inv { kind, trans, a } => {
                    let aa = buf(&buffer, a.name());
                    let (open, close) = match kind {
                        gmc_kernels::InvKind::Spd => ("inv(cholesky(", "))"),
                        gmc_kernels::InvKind::Diagonal => ("inv(Diagonal(", "))"),
                        _ => ("inv(", ")"),
                    };
                    if *trans {
                        push_line!(out, "{dest} = Matrix({open}{aa}{close}')");
                    } else {
                        push_line!(out, "{dest} = {open}{aa}{close}");
                    }
                    dest
                }
                KernelOp::InvPair { ta, tb, a, b } => {
                    let bb = buf(&buffer, b.name());
                    let b_arg = if *tb {
                        Arg::Adjoint(bb)
                    } else {
                        Arg::Plain(bb)
                    };
                    push_line!(out, "{dest} = inv({b_arg})");
                    let aa = buf(&buffer, a.name());
                    let a_arg = if *ta {
                        Arg::Transposed(aa)
                    } else {
                        solve_arg(a.name(), aa)
                    };
                    push_line!(out, "gesv!({a_arg}, {dest})");
                    dest
                }
            };
            buffer.insert(dest, value);
        }

        if let Some(last) = program.instructions().last() {
            push_line!(out, "# result in {}", buf(&buffer, last.dest().name()));
        }
        // Lines are separated, not terminated, by newlines.
        out.pop();
        out
    }
}

/// Writes an in-place solve's call; a right-side solve works on the
/// transposed right-hand side, transposing `target` before and after.
fn solve_lines(out: &mut String, s: Side, call: fmt::Arguments<'_>, target: &str) {
    if s == Side::Right {
        push_line!(out, "{target} = Matrix({target}')");
    }
    push_line!(out, "{call}");
    if s == Side::Right {
        push_line!(out, "{target} = Matrix({target}')");
    }
}

impl JuliaEmitter {
    /// Picks the buffer an in-place kernel writes to: the right-hand
    /// side's current buffer if dead, otherwise a fresh copy.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS call it emits
    fn inplace_target<'p>(
        &self,
        program: &Program,
        idx: usize,
        b_name: &'p str,
        dest: &'p str,
        conflict: &str,
        buffer: &HashMap<&'p str, &'p str>,
        out: &mut String,
    ) -> &'p str {
        let current = buf(buffer, b_name);
        // Reusing the right-hand side's buffer is only legal when it is
        // dead afterwards AND distinct from the factor operand's buffer
        // (an in-place kernel must not alias its two arguments).
        if self.reuse_buffers && !program.live_after(idx, b_name) && current != conflict {
            current
        } else {
            push_line!(out, "{dest} = copy({current})");
            dest
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Instruction;
    use gmc_expr::{Operand, Property, PropertySet, Shape};

    #[test]
    fn paper_table2_gmc_row() {
        // X := A⁻¹BCᵀ, A SPD, C lower triangular. The paper's generated
        // code: trmm!('R','L','T','N',1.0,C,B); posv!('L',A,B).
        let a = Operand::square("A", 2000).with_property(Property::SymmetricPositiveDefinite);
        let b = Operand::matrix("B", 2000, 200);
        let c = Operand::square("C", 200).with_property(Property::LowerTriangular);
        let t0 = Operand::temporary("T1_2", Shape::new(2000, 200), PropertySet::new());
        let t1 = Operand::temporary("T0_2", Shape::new(2000, 200), PropertySet::new());
        let program = Program::new(vec![
            Instruction::new(
                t0.clone(),
                KernelOp::Trmm {
                    side: gmc_kernels::Side::Right,
                    uplo: Uplo::Lower,
                    trans: true,
                    a: c,
                    b: b.clone(),
                },
            ),
            Instruction::new(
                t1,
                KernelOp::Posv {
                    side: gmc_kernels::Side::Left,
                    tb: false,
                    a,
                    b: t0,
                },
            ),
        ]);
        let code = JuliaEmitter::default().emit(&program);
        let expected = "\
trmm!('R', 'L', 'T', 'N', 1.0, C, B)
posv!('L', A, B)
# result in B";
        assert_eq!(code, expected);
    }

    #[test]
    fn copy_inserted_when_buffer_live() {
        // B is used by both instructions: the first in-place kernel must
        // not clobber it.
        let l = Operand::square("L", 4).with_property(Property::LowerTriangular);
        let b = Operand::matrix("B", 4, 4);
        let t0 = Operand::temporary("T0", Shape::new(4, 4), PropertySet::new());
        let t1 = Operand::temporary("T1", Shape::new(4, 4), PropertySet::new());
        let program = Program::new(vec![
            Instruction::new(
                t0.clone(),
                KernelOp::Trmm {
                    side: gmc_kernels::Side::Left,
                    uplo: Uplo::Lower,
                    trans: false,
                    a: l,
                    b: b.clone(),
                },
            ),
            Instruction::new(
                t1,
                KernelOp::Gemm {
                    ta: false,
                    tb: false,
                    a: t0,
                    b,
                },
            ),
        ]);
        let code = JuliaEmitter::default().emit(&program);
        assert!(code.contains("T0 = copy(B)"), "got:\n{code}");
        assert!(code.contains("trmm!('L', 'L', 'N', 'N', 1.0, L, T0)"));
    }

    #[test]
    fn no_reuse_mode_always_copies() {
        let l = Operand::square("L", 4).with_property(Property::LowerTriangular);
        let b = Operand::matrix("B", 4, 4);
        let t0 = Operand::temporary("T0", Shape::new(4, 4), PropertySet::new());
        let program = Program::new(vec![Instruction::new(
            t0,
            KernelOp::Trmm {
                side: gmc_kernels::Side::Left,
                uplo: Uplo::Lower,
                trans: false,
                a: l,
                b,
            },
        )]);
        let code = JuliaEmitter {
            reuse_buffers: false,
        }
        .emit(&program);
        assert!(code.contains("T0 = copy(B)"));
    }

    #[test]
    fn inverses_syrk_symv_and_copies() {
        let a = Operand::square("A", 4).with_property(Property::SymmetricPositiveDefinite);
        let d = Operand::square("D", 4).with_property(Property::Diagonal);
        let g = Operand::square("G", 4);
        let x = Operand::col_vector("x", 4);
        let t = |name: &str| Operand::temporary(name, Shape::new(4, 4), PropertySet::new());
        let v = Operand::temporary("T4", Shape::col_vector(4), PropertySet::new());
        let inv = |kind, trans, a: &Operand| KernelOp::Inv {
            kind,
            trans,
            a: a.clone(),
        };
        let program = Program::new(vec![
            Instruction::new(t("T0"), inv(gmc_kernels::InvKind::Spd, false, &a)),
            Instruction::new(t("T1"), inv(gmc_kernels::InvKind::Diagonal, true, &d)),
            Instruction::new(t("T2"), inv(gmc_kernels::InvKind::General, true, &g)),
            Instruction::new(
                t("T3"),
                KernelOp::Syrk {
                    trans: true,
                    a: g.clone(),
                },
            ),
            Instruction::new(v, KernelOp::Symv { a, x }),
            Instruction::new(t("T5"), KernelOp::Copy { b: g }),
        ]);
        let code = JuliaEmitter::default().emit(&program);
        let expected = "\
T0 = inv(cholesky(A))
T1 = Matrix(inv(Diagonal(D))')
T2 = Matrix(inv(G)')
T3 = BLAS.syrk('L', 'T', 1.0, G)
T4 = BLAS.symv('L', 1.0, A, x)
T5 = copy(G)
# result in T5";
        assert_eq!(code, expected);
    }

    #[test]
    fn functional_ops_assign_fresh_variables() {
        let a = Operand::matrix("A", 3, 4);
        let x = Operand::col_vector("x", 4);
        let t0 = Operand::temporary("T0", Shape::col_vector(3), PropertySet::new());
        let program = Program::new(vec![Instruction::new(
            t0,
            KernelOp::Gemv { trans: false, a, x },
        )]);
        let code = JuliaEmitter::default().emit(&program);
        assert!(code.contains("T0 = BLAS.gemv('N', 1.0, A, x)"));
        assert!(code.ends_with("# result in T0"));
    }
}
