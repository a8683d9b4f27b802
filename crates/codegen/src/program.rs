//! The program IR: an ordered sequence of kernel calls.

use gmc_expr::Operand;
use gmc_kernels::{Flops, KernelOp};
use std::collections::HashSet;
use std::fmt;

/// One instruction: a kernel operation and the temporary receiving its
/// result.
#[derive(Clone, Debug)]
pub struct Instruction {
    dest: Operand,
    op: KernelOp,
}

impl Instruction {
    /// Creates an instruction.
    pub fn new(dest: Operand, op: KernelOp) -> Self {
        Instruction { dest, op }
    }

    /// The destination operand.
    pub fn dest(&self) -> &Operand {
        &self.dest
    }

    /// The kernel operation.
    pub fn op(&self) -> &KernelOp {
        &self.op
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} := {}", self.dest, self.op)
    }
}

/// A straight-line program computing a matrix chain: the output of the
/// GMC algorithm (and of the baseline strategies), the input of the code
/// emitters and of the runtime interpreter.
///
/// Instructions are in dependency order; the last instruction's
/// destination is the program result.
#[derive(Clone, Debug, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates a program from instructions in dependency order.
    pub fn new(instructions: Vec<Instruction>) -> Self {
        Program { instructions }
    }

    /// The instructions.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Appends an instruction.
    pub fn push(&mut self, instruction: Instruction) {
        self.instructions.push(instruction);
    }

    /// The result operand (destination of the last instruction).
    ///
    /// # Panics
    ///
    /// Panics if the program is empty.
    pub fn result(&self) -> &Operand {
        self.instructions
            .last()
            .expect("program must not be empty")
            .dest()
    }

    /// The input operands: everything referenced before being defined.
    pub fn inputs(&self) -> Vec<&Operand> {
        let mut defined: HashSet<&str> = HashSet::new();
        let mut seen: HashSet<&str> = HashSet::new();
        let mut inputs = Vec::new();
        for instr in &self.instructions {
            for arg in instr.op().operands() {
                if !defined.contains(arg.name()) && seen.insert(arg.name()) {
                    inputs.push(arg);
                }
            }
            defined.insert(instr.dest().name());
        }
        inputs
    }

    /// Total FLOP count (sum over instructions, paper cost conventions),
    /// summed exactly and rounded once to the nearest `f64`.
    pub fn flops(&self) -> f64 {
        self.instructions
            .iter()
            .map(|i| i.op().flop_count())
            .sum::<Flops>()
            .to_f64()
    }

    /// Checks that every operand is defined (an input or an earlier
    /// destination) before use and that destinations are unique.
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined: HashSet<&str> = HashSet::new();
        for (idx, instr) in self.instructions.iter().enumerate() {
            if defined.contains(instr.dest().name()) {
                return Err(format!(
                    "instruction {idx}: destination {} redefined",
                    instr.dest()
                ));
            }
            defined.insert(instr.dest().name());
        }
        Ok(())
    }

    /// For each instruction index, whether each referenced operand is
    /// used again by any *later* instruction (true = live after this
    /// use). Used for buffer reuse in the emitters.
    pub fn live_after(&self, index: usize, name: &str) -> bool {
        self.instructions[index + 1..].iter().any(|instr| {
            let mut used = false;
            instr.op().for_each_operand(|o| used |= o.name() == name);
            used
        })
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for instr in &self.instructions {
            writeln!(f, "{instr}")?;
        }
        Ok(())
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<I: IntoIterator<Item = Instruction>>(iter: I) -> Self {
        Program::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::Shape;

    fn sample() -> Program {
        let a = Operand::matrix("A", 4, 5);
        let b = Operand::matrix("B", 5, 6);
        let c = Operand::matrix("C", 6, 2);
        let t0 = Operand::temporary("T0", Shape::new(4, 6), Default::default());
        let t1 = Operand::temporary("T1", Shape::new(4, 2), Default::default());
        Program::new(vec![
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
        ])
    }

    #[test]
    fn result_and_inputs() {
        let p = sample();
        assert_eq!(p.result().name(), "T1");
        let inputs: Vec<_> = p.inputs().iter().map(|o| o.name().to_owned()).collect();
        assert_eq!(inputs, vec!["A", "B", "C"]);
    }

    #[test]
    fn flops_accumulate() {
        let p = sample();
        assert_eq!(p.flops(), 2.0 * 4.0 * 6.0 * 5.0 + 2.0 * 4.0 * 2.0 * 6.0);
    }

    #[test]
    fn validation() {
        let p = sample();
        assert!(p.validate().is_ok());
        let dup = Program::new(vec![
            p.instructions()[0].clone(),
            p.instructions()[0].clone(),
        ]);
        assert!(dup.validate().is_err());
    }

    #[test]
    fn liveness() {
        let p = sample();
        // A is not used after instruction 0; T0 is used by instruction 1.
        assert!(!p.live_after(0, "A"));
        assert!(p.live_after(0, "T0"));
        assert!(!p.live_after(1, "T0"));
    }

    #[test]
    fn display() {
        let p = sample();
        let text = p.to_string();
        assert!(text.contains("T0 := gemm('N', 'N', A, B)"));
        assert!(text.contains("T1 := gemm('N', 'N', T0, C)"));
    }
}
