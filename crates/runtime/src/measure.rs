//! A measurement-backed cost metric (paper Sec. 3.3).
//!
//! The paper notes that when the optimizer's own runtime is of no
//! concern, "real measurements could be used, for example using
//! performance modeling tools such as ELAPS". [`MeasuredMetric`] is that
//! idea on this repo's substrate: the first time a kernel operation of a
//! given signature (family, flags, operand dimensions) is costed, the
//! operation is executed on synthetic property-respecting operands and
//! the minimum wall-clock time over a few repetitions becomes its cost;
//! subsequent queries hit a cache, so the `O(n³)` dynamic program stays
//! fast.
//!
//! Because measurements reflect *this* machine and *this* substrate, a
//! `GmcOptimizer` driven by `MeasuredMetric` adapts to the actual kernel
//! efficiency spread — e.g. it learns that our `SYMM` really costs a full
//! GEMM (the `kernel_substrate` bench of `gmc-bench` times both) and
//! stops being lured by the Table 1 price.

use crate::env::{materialize, Env};
use crate::exec::execute_op;
use gmc::CostMetric;
use gmc_expr::{Operand, OperandView};
use gmc_kernels::KernelOp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// Cache key: kernel display form with operand names replaced by their
/// dimensions — captures family, flags and all sizes.
fn signature(op: &KernelOp<OperandView>) -> String {
    let mut sig = format!("{:?}|", op.family());
    // The Display form includes the flag characters; strip operand
    // names by appending shapes explicitly instead.
    for operand in op.operands() {
        sig.push_str(&format!(
            "{}x{},",
            operand.shape.rows(),
            operand.shape.cols()
        ));
    }
    // Distinguish flag variants of the same family and shapes.
    match op {
        KernelOp::Gemm { ta, tb, .. } => sig.push_str(&format!("t{ta}{tb}")),
        KernelOp::Trmm {
            side, uplo, trans, ..
        } => sig.push_str(&format!("{side:?}{uplo:?}{trans}")),
        KernelOp::Trsm {
            side,
            uplo,
            trans,
            tb,
            ..
        } => sig.push_str(&format!("{side:?}{uplo:?}{trans}{tb}")),
        KernelOp::Symm { side, .. } | KernelOp::Posv { side, .. } => {
            sig.push_str(&format!("{side:?}"))
        }
        KernelOp::Gesv {
            side, trans, tb, ..
        } => sig.push_str(&format!("{side:?}{trans}{tb}")),
        KernelOp::Diag { side, inv, tb, .. } => sig.push_str(&format!("{side:?}{inv}{tb}")),
        KernelOp::Syrk { trans, .. } | KernelOp::Gemv { trans, .. } => {
            sig.push_str(&format!("{trans}"))
        }
        KernelOp::Trmv { uplo, trans, .. } | KernelOp::Trsv { uplo, trans, .. } => {
            sig.push_str(&format!("{uplo:?}{trans}"))
        }
        KernelOp::Inv { kind, trans, .. } => sig.push_str(&format!("{kind:?}{trans}")),
        KernelOp::InvPair { ta, tb, .. } => sig.push_str(&format!("{ta}{tb}")),
        KernelOp::Symv { .. }
        | KernelOp::Ger { .. }
        | KernelOp::Dot { .. }
        | KernelOp::Copy { .. } => {}
    }
    sig
}

/// A [`CostMetric`] whose kernel costs are wall-clock measurements on
/// the actual substrate, memoized per kernel signature.
///
/// # Example
///
/// ```
/// use gmc::GmcOptimizer;
/// use gmc_expr::{Chain, Operand, Property};
/// use gmc_kernels::KernelRegistry;
/// use gmc_runtime::MeasuredMetric;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = KernelRegistry::blas_lapack();
/// let metric = MeasuredMetric::new(2);
/// let a = Operand::square("A", 24).with_property(Property::SymmetricPositiveDefinite);
/// let b = Operand::matrix("B", 24, 8);
/// let chain = Chain::from_expr(&(a.inverse() * b.expr()))?;
/// let solution = GmcOptimizer::new(&registry, &metric).solve(&chain)?;
/// assert!(solution.cost() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MeasuredMetric {
    cache: RefCell<HashMap<String, f64>>,
    reps: usize,
}

impl MeasuredMetric {
    /// Creates a metric taking the minimum over `reps` timed executions
    /// per distinct kernel signature (plus one warm-up run).
    pub fn new(reps: usize) -> Self {
        MeasuredMetric {
            cache: RefCell::new(HashMap::new()),
            reps: reps.max(1),
        }
    }

    fn measure(&self, op: &KernelOp<OperandView>) -> f64 {
        // Synthesize property-respecting operands for the op and time
        // it; one operand identity is one matrix.
        let op = op.map(|v| Operand::temporary(format!("{:?}", v.id), v.shape, v.properties));
        let op = &op;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut env = Env::new();
        for operand in op.operands() {
            if env.get(operand.name()).is_none() {
                env.bind(operand.name(), materialize(operand, &mut rng));
            }
        }
        // Warm-up (also surfaces numeric failures, which get a +inf
        // cost so the optimizer avoids the kernel).
        if execute_op(op, &env).is_err() {
            return f64::INFINITY;
        }
        let mut best = f64::INFINITY;
        for _ in 0..self.reps {
            let start = Instant::now();
            let out = execute_op(op, &env);
            let t = start.elapsed().as_secs_f64();
            std::hint::black_box(&out);
            best = best.min(t);
        }
        best
    }
}

impl CostMetric for MeasuredMetric {
    type Cost = f64;

    fn op_cost(&self, op: &KernelOp<OperandView>) -> f64 {
        let sig = signature(op);
        if let Some(&t) = self.cache.borrow().get(&sig) {
            return t;
        }
        let t = self.measure(op);
        self.cache.borrow_mut().insert(sig, t);
        t
    }

    fn name(&self) -> &str {
        "measured"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc::{FlopCount, GmcOptimizer};
    use gmc_expr::{Chain, Factor, Operand, Property};
    use gmc_kernels::KernelRegistry;

    impl MeasuredMetric {
        /// Number of distinct kernel signatures measured so far.
        fn cached_signatures(&self) -> usize {
            self.cache.borrow().len()
        }
    }

    #[test]
    fn measures_and_caches() {
        let metric = MeasuredMetric::new(1);
        let op = KernelOp::Gemm {
            ta: false,
            tb: false,
            a: Operand::matrix("A", 16, 16),
            b: Operand::matrix("B", 16, 16),
        };
        let t1 = metric.op_cost(&op.view());
        assert!(t1 > 0.0 && t1.is_finite());
        assert_eq!(metric.cached_signatures(), 1);
        // Same signature with different operand names: cache hit.
        let op2 = KernelOp::Gemm {
            ta: false,
            tb: false,
            a: Operand::matrix("X", 16, 16),
            b: Operand::matrix("Y", 16, 16),
        };
        assert_eq!(metric.op_cost(&op2.view()), t1);
        assert_eq!(metric.cached_signatures(), 1);
        // Different flags: distinct signature.
        let op3 = KernelOp::Gemm {
            ta: true,
            tb: false,
            a: Operand::matrix("X", 16, 16),
            b: Operand::matrix("Y", 16, 16),
        };
        let _ = metric.op_cost(&op3.view());
        assert_eq!(metric.cached_signatures(), 2);
    }

    #[test]
    fn optimizer_runs_on_measured_costs() {
        let registry = KernelRegistry::blas_lapack();
        let metric = MeasuredMetric::new(1);
        let l = Operand::square("L", 20).with_property(Property::LowerTriangular);
        let b = Operand::matrix("B", 20, 8);
        let chain = Chain::new(vec![Factor::inverted(l), Factor::plain(b)]).unwrap();
        let measured = GmcOptimizer::new(&registry, &metric).solve(&chain).unwrap();
        // Whatever it picks must still compute the right value...
        let env = Env::random_for_chain(&chain, 1);
        crate::validate_against_reference(&measured.program(), &chain, &env, 1e-6).unwrap();
        // ...and at this size the FLOP-optimal choice (TRSM) should
        // also be measured-optimal or at least computable.
        let flops = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .unwrap();
        assert!(measured.flops() <= flops.flops() * 4.0);
    }

    #[test]
    fn singular_synthetics_get_infinite_cost() {
        // A zero operand cannot be inverted: the measured cost must be
        // +inf so the optimizer discards the alternative.
        let metric = MeasuredMetric::new(1);
        let z = Operand::square("Z", 8).with_property(Property::Zero);
        let b = Operand::matrix("B", 8, 3);
        let op = KernelOp::Gesv {
            side: gmc_kernels::Side::Left,
            trans: false,
            tb: false,
            a: z,
            b,
        };
        assert!(metric.op_cost(&op.view()).is_infinite());
    }
}
