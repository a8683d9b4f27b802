//! Size-generic program emission.
//!
//! The emitted kernel calls reference operands by name only, so a
//! generated program is already valid for *any* sizes that select the
//! same kernel sequence. This module makes that explicit: it wraps a
//! program in a Rust function parameterized by the chain's dimension
//! variables, with the symbolic shape of every input documented in the
//! signature — one emitted artifact serves every binding of the chain
//! that selects the same kernel sequence.

use crate::program::Program;
use crate::rust::{Ident, RustEmitter};
use crate::Emitter;
use gmc_expr::SymChain;

/// Emits a Rust function computing `program`, generic over the
/// dimension variables of `chain`.
///
/// The function takes one `usize` parameter per dimension variable
/// (documenting the size region the plan was compiled for) and one
/// matrix parameter per program input, annotated with its symbolic
/// shape. The body is the [`RustEmitter`] output.
///
/// # Example
///
/// ```
/// use gmc_codegen::emit_size_generic_rust;
/// use gmc_codegen::{Instruction, Program};
/// use gmc_expr::{Dim, Operand, PropertySet, Shape, SymChain, SymFactor, SymOperand};
/// use gmc_kernels::KernelOp;
///
/// let (n, m) = (Dim::var("n"), Dim::var("m"));
/// let chain = SymChain::new(vec![
///     SymFactor::plain(SymOperand::new("A", n, m)),
///     SymFactor::plain(SymOperand::new("B", m, n)),
/// ])
/// .unwrap();
/// let a = Operand::matrix("A", 4, 5);
/// let b = Operand::matrix("B", 5, 4);
/// let t = Operand::temporary("T0_1", Shape::new(4, 4), PropertySet::new());
/// let program = Program::new(vec![Instruction::new(
///     t,
///     KernelOp::Gemm { ta: false, tb: false, a, b },
/// )]);
/// let code = emit_size_generic_rust(&program, &chain);
/// assert!(code.contains("pub fn compute(n: usize, m: usize"));
/// assert!(code.contains("A: n x m"));
/// ```
pub fn emit_size_generic_rust(program: &Program, chain: &SymChain) -> String {
    let mut out = String::new();
    out.push_str("/// Computes the chain ");
    out.push_str(&chain.to_string());
    out.push_str(" for any sizes in the plan's region.\n");
    out.push_str("///\n/// Operand shapes:\n");
    for f in chain.factors() {
        let s = f.operand().shape();
        out.push_str(&format!(
            "///   {}: {} x {}\n",
            f.operand().name(),
            s.rows(),
            s.cols()
        ));
    }
    // One namespace for every emitted parameter. The body refers to
    // operands by their sanitized names, so those are fixed; dimension
    // parameters (referenced nowhere in the body) yield on collision —
    // a dim `n` next to an operand `N` becomes `n_dim: usize`.
    //
    // Two *distinct* operands whose names sanitize to one identifier
    // (`A` and `a`) cannot be represented: the body would silently read
    // one matrix for both. The body's `RustEmitter` output carries a
    // `compile_error!` for them, so the generated code fails loudly
    // instead of mis-wiring; the parameter list names the identifier
    // once.
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut operand_params: Vec<String> = Vec::new();
    for input in program.inputs() {
        let ident = Ident(input.name()).to_string();
        if used.insert(ident.clone()) {
            operand_params.push(format!("{ident}: &Matrix"));
        }
    }
    let mut params: Vec<String> = chain
        .vars()
        .iter()
        .map(|v| {
            let mut ident = Ident(v.name()).to_string();
            while !used.insert(ident.clone()) {
                ident.push_str("_dim");
            }
            format!("{ident}: usize")
        })
        .collect();
    params.extend(operand_params);
    out.push_str(&format!(
        "pub fn compute({}) -> Result<Matrix, OpError> {{\n",
        params.join(", ")
    ));
    for line in RustEmitter.emit(program).lines() {
        out.push_str("    ");
        out.push_str(line);
        out.push('\n');
    }
    if let Some(last) = program.instructions().last() {
        out.push_str(&format!("    Ok({})\n", Ident(last.dest().name())));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Instruction;
    use gmc_expr::{Dim, Operand, PropertySet, Shape, SymFactor, SymOperand};
    use gmc_kernels::KernelOp;

    #[test]
    fn emits_dim_parameters_and_inputs() {
        let (n, m) = (Dim::var("cg_n"), Dim::var("cg_m"));
        let chain = SymChain::new(vec![
            SymFactor::plain(SymOperand::new("A", n, m)),
            SymFactor::plain(SymOperand::new("B", m, n)),
            SymFactor::plain(SymOperand::new("C", n, m)),
        ])
        .unwrap();
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 4);
        let c = Operand::matrix("C", 4, 5);
        let t0 = Operand::temporary("T0_1", Shape::new(4, 4), PropertySet::new());
        let t1 = Operand::temporary("T0_2", Shape::new(4, 5), PropertySet::new());
        let program = Program::new(vec![
            Instruction::new(
                t0.clone(),
                KernelOp::Gemm {
                    ta: false,
                    tb: false,
                    a,
                    b,
                },
            ),
            Instruction::new(
                t1,
                KernelOp::Gemm {
                    ta: false,
                    tb: false,
                    a: t0,
                    b: c,
                },
            ),
        ]);
        let code = emit_size_generic_rust(&program, &chain);
        assert!(
            code.contains(
                "pub fn compute(cg_n: usize, cg_m: usize, a: &Matrix, b: &Matrix, c: &Matrix)"
            ),
            "{code}"
        );
        assert!(code.contains("A: cg_n x cg_m"), "{code}");
        assert!(
            code.contains("let t0_1 = ops::gemm(&a, false, &b, false);"),
            "{code}"
        );
        assert!(code.contains("Ok(t0_2)"), "{code}");
    }

    #[test]
    fn distinct_operands_colliding_after_sanitization_fail_loudly() {
        // `A` and `a` are distinct operands but share the sanitized
        // identifier `a`; the emitted code must not silently read one
        // matrix for both.
        let n = Dim::var("cg2_n");
        let chain = SymChain::new(vec![
            SymFactor::plain(SymOperand::new("A", n, n)),
            SymFactor::plain(SymOperand::new("a", n, n)),
        ])
        .unwrap();
        let upper = Operand::matrix("A", 4, 4);
        let lower = Operand::matrix("a", 4, 4);
        let t = Operand::temporary("T0_1", Shape::new(4, 4), PropertySet::new());
        let program = Program::new(vec![Instruction::new(
            t,
            KernelOp::Gemm {
                ta: false,
                tb: false,
                a: upper,
                b: lower,
            },
        )]);
        let code = emit_size_generic_rust(&program, &chain);
        assert!(code.contains("compile_error!"), "{code}");
        assert!(code.contains("operand `a` collides"), "{code}");
    }

    #[test]
    fn dim_parameters_yield_to_colliding_operand_names() {
        // Operand `N` sanitizes to `n`, the same identifier as the dim
        // variable `n`; the body references the operand, so the dim
        // parameter is renamed.
        let n = Dim::var("n");
        let chain = SymChain::new(vec![
            SymFactor::plain(SymOperand::new("N", n, n)),
            SymFactor::plain(SymOperand::new("B", n, n)),
        ])
        .unwrap();
        let big_n = Operand::matrix("N", 4, 4);
        let b = Operand::matrix("B", 4, 4);
        let t = Operand::temporary("T0_1", Shape::new(4, 4), PropertySet::new());
        let program = Program::new(vec![Instruction::new(
            t,
            KernelOp::Gemm {
                ta: false,
                tb: false,
                a: big_n,
                b,
            },
        )]);
        let code = emit_size_generic_rust(&program, &chain);
        assert!(
            code.contains("pub fn compute(n_dim: usize, n: &Matrix, b: &Matrix)"),
            "{code}"
        );
        assert!(code.contains("ops::gemm(&n, false, &b, false)"), "{code}");
    }
}
