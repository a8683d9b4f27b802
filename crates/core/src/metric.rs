//! Pluggable cost metrics (paper Sec. 3.3).
//!
//! The GMC algorithm minimizes an arbitrary, user-selected cost metric.
//! A metric assigns a [`Cost`] to each kernel operation, which it reads
//! over operand views (shape, properties, identity): the optimizer costs
//! every candidate without materializing its operands;
//! costs only need to support addition and a total order, so besides the
//! classic FLOP count, which is exact ([`Flops`]), this module provides a
//! calibrated execution-time model and lexicographic *vector* metrics
//! (paper Sec. 5 explicitly allows vector-valued metrics with a total
//! order).

use gmc_expr::OperandView;
use gmc_kernels::{Flops, KernelFamily, KernelOp};
use std::fmt;
use std::marker::PhantomData;

/// A cost value: orderable and addable, with a zero.
///
/// Implemented for [`Flops`] (exact FLOP counts), `f64` (seconds,
/// bytes, …) and [`Lex2`] (lexicographic pairs).
pub trait Cost: Clone + PartialOrd + fmt::Debug {
    /// The cost as a solution reports it
    /// ([`GmcSolution::cost`](crate::GmcSolution::cost)).
    type Reported: Clone + PartialOrd + fmt::Debug;
    /// The cost of doing nothing (`cost(M[i,i]) = 0`).
    fn zero() -> Self;
    /// Accumulates two costs.
    fn add(&self, other: &Self) -> Self;
    /// The cost as a solution reports it: the cost itself, except that
    /// an exact FLOP count rounds once to the nearest `f64`.
    fn reported(&self) -> Self::Reported;
}

impl Cost for Flops {
    type Reported = f64;

    fn zero() -> Self {
        Flops::ZERO
    }

    fn add(&self, other: &Self) -> Self {
        *self + *other
    }

    fn reported(&self) -> f64 {
        self.to_f64()
    }
}

impl Cost for f64 {
    type Reported = f64;

    fn zero() -> Self {
        0.0
    }

    fn add(&self, other: &Self) -> Self {
        self + other
    }

    fn reported(&self) -> f64 {
        *self
    }
}

/// A two-component lexicographic cost: compare the first component,
/// break ties with the second.
///
/// # Example
///
/// ```
/// use gmc::Lex2;
///
/// let a = Lex2(100.0, 3.0);
/// let b = Lex2(100.0, 2.0);
/// assert!(b < a); // same primary cost, fewer kernels wins
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lex2(pub f64, pub f64);

impl PartialOrd for Lex2 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.0.total_cmp(&other.0).then(self.1.total_cmp(&other.1)))
    }
}

impl Cost for Lex2 {
    type Reported = Lex2;

    fn zero() -> Self {
        Lex2(0.0, 0.0)
    }

    fn add(&self, other: &Self) -> Self {
        Lex2(self.0 + other.0, self.1 + other.1)
    }

    fn reported(&self) -> Lex2 {
        *self
    }
}

/// Assigns a cost to each kernel operation.
pub trait CostMetric {
    /// The cost type this metric produces.
    type Cost: Cost;

    /// The cost of one kernel call. An operation over operands costs
    /// as its [`view`](KernelOp::view).
    fn op_cost(&self, op: &KernelOp<OperandView>) -> Self::Cost;

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "metric"
    }
}

impl<M: CostMetric + ?Sized> CostMetric for &M {
    type Cost = M::Cost;

    fn op_cost(&self, op: &KernelOp<OperandView>) -> Self::Cost {
        (**self).op_cost(op)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The classic metric: number of floating point operations, using the
/// paper's per-kernel formulas (Table 1), counted exactly: two
/// candidates tie only if their FLOP counts are equal, at every size.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlopCount;

impl CostMetric for FlopCount {
    type Cost = Flops;

    fn op_cost(&self, op: &KernelOp<OperandView>) -> Flops {
        op.flop_count()
    }

    fn name(&self) -> &str {
        "flops"
    }
}

/// An execution-time model: `time = flops / (peak · efficiency)` plus a
/// fixed per-call overhead.
///
/// "Efficiency" captures that not all FLOPs cost the same (paper
/// Sec. 3.3, footnote 3): BLAS-3 kernels run near peak, solvers are
/// somewhat slower, and BLAS-2 kernels are memory bound at a small
/// fraction of peak. Small operands are additionally penalized with a
/// saturating ramp, which reproduces the paper's observation that the
/// FLOP-optimal parenthesization is not always the time-optimal one.
#[derive(Clone, Copy, Debug)]
pub struct TimeModel {
    /// Peak double-precision throughput, FLOPs per second.
    pub peak_flops: f64,
    /// Memory bandwidth in bytes per second (used for copies).
    pub bandwidth: f64,
    /// Fixed per-kernel-call overhead in seconds.
    pub call_overhead: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        // A modest single core: 20 GFLOP/s peak, 20 GB/s bandwidth.
        TimeModel {
            peak_flops: 2.0e10,
            bandwidth: 2.0e10,
            call_overhead: 1.0e-6,
        }
    }
}

impl TimeModel {
    /// The asymptotic efficiency (fraction of peak) for a kernel family.
    pub fn efficiency(family: KernelFamily) -> f64 {
        match family {
            KernelFamily::Gemm => 0.95,
            KernelFamily::Symm => 0.90,
            KernelFamily::Syrk => 0.90,
            KernelFamily::Trmm => 0.80,
            KernelFamily::Trsm => 0.75,
            KernelFamily::Posv => 0.70,
            KernelFamily::Gesv => 0.65,
            KernelFamily::InvPair => 0.60,
            KernelFamily::Inv => 0.60,
            // Memory-bound BLAS-1/2 and diagonal kernels.
            KernelFamily::Dot => 0.15,
            KernelFamily::Gemv | KernelFamily::Symv | KernelFamily::Ger => 0.12,
            KernelFamily::Trmv | KernelFamily::Trsv => 0.10,
            KernelFamily::Diag => 0.10,
            KernelFamily::Copy => 1.0, // handled via bandwidth
        }
    }

    fn size_ramp(op: &KernelOp<OperandView>) -> f64 {
        // Small problems do not reach asymptotic efficiency; saturate
        // around a characteristic dimension of ~64. Visits operands
        // without allocating: this runs once per split candidate on the
        // optimizer's hot path.
        let mut s = 1usize;
        op.for_each_operand(|o| s = s.max(o.shape.rows().min(o.shape.cols())));
        let s = s as f64;
        s / (s + 64.0)
    }
}

impl CostMetric for TimeModel {
    type Cost = f64;

    fn op_cost(&self, op: &KernelOp<OperandView>) -> f64 {
        let base = if op.family() == KernelFamily::Copy {
            let s = op.result_shape();
            (s.len() as f64) * 8.0 / self.bandwidth
        } else {
            let eff = Self::efficiency(op.family()) * Self::size_ramp(op);
            op.flops() / (self.peak_flops * eff.max(1e-3))
        };
        base + self.call_overhead
    }

    fn name(&self) -> &str {
        "time-model"
    }
}

/// A vector metric: minimize FLOPs first, then the number of kernel
/// calls (demonstrates the paper's Sec. 5 extension to vector measures).
#[derive(Clone, Copy, Debug, Default)]
pub struct FlopsThenKernels;

impl CostMetric for FlopsThenKernels {
    type Cost = Lex2;

    fn op_cost(&self, op: &KernelOp<OperandView>) -> Lex2 {
        Lex2(op.flops(), 1.0)
    }

    fn name(&self) -> &str {
        "flops-then-kernels"
    }
}

/// Adapts a closure into a metric — e.g. for measurement-backed costs
/// (ELAPS-style, paper Sec. 3.3) supplied by the runtime.
pub struct FnMetric<C, F> {
    f: F,
    name: String,
    _marker: PhantomData<fn() -> C>,
}

impl<C: Cost, F: Fn(&KernelOp<OperandView>) -> C> FnMetric<C, F> {
    /// Wraps a closure as a metric.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnMetric {
            f,
            name: name.into(),
            _marker: PhantomData,
        }
    }
}

impl<C: Cost, F: Fn(&KernelOp<OperandView>) -> C> CostMetric for FnMetric<C, F> {
    type Cost = C;

    fn op_cost(&self, op: &KernelOp<OperandView>) -> C {
        (self.f)(op)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<C, F> fmt::Debug for FnMetric<C, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FnMetric({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::Operand;

    fn gemm_op(n: usize) -> KernelOp {
        KernelOp::Gemm {
            ta: false,
            tb: false,
            a: Operand::square("A", n),
            b: Operand::square("B", n),
        }
    }

    #[test]
    fn flop_count_matches_op_flops() {
        let op = gemm_op(10).view();
        assert_eq!(FlopCount.op_cost(&op), Flops::from_thirds(6000));
        assert_eq!(FlopCount.op_cost(&op).reported(), op.flops());
    }

    #[test]
    fn lex2_ordering() {
        assert!(Lex2(1.0, 5.0) < Lex2(2.0, 0.0));
        assert!(Lex2(1.0, 1.0) < Lex2(1.0, 2.0));
        assert_eq!(Lex2(1.0, 1.0).add(&Lex2(2.0, 3.0)), Lex2(3.0, 4.0));
        assert_eq!(Lex2::zero(), Lex2(0.0, 0.0));
    }

    #[test]
    fn time_model_prefers_gemm_over_gemv_per_flop() {
        let t = TimeModel::default();
        let mm = gemm_op(200).view();
        let mv = KernelOp::Gemv {
            trans: false,
            a: Operand::matrix("A", 200, 200),
            x: Operand::col_vector("x", 200),
        }
        .view();
        let mm_per_flop = t.op_cost(&mm) / mm.flops();
        let mv_per_flop = t.op_cost(&mv) / mv.flops();
        assert!(
            mv_per_flop > 3.0 * mm_per_flop,
            "BLAS-2 should be much less efficient per FLOP"
        );
    }

    #[test]
    fn time_model_small_size_penalty() {
        let t = TimeModel::default();
        let small = gemm_op(8).view();
        let large = gemm_op(512).view();
        let small_per_flop = t.op_cost(&small) / small.flops();
        let large_per_flop = t.op_cost(&large) / large.flops();
        assert!(small_per_flop > large_per_flop);
    }

    #[test]
    fn fn_metric_wraps_closure() {
        let m = FnMetric::new("unit", |_: &KernelOp<OperandView>| 1.0);
        assert_eq!(m.op_cost(&gemm_op(4).view()), 1.0);
        assert_eq!(m.name(), "unit");
    }

    #[test]
    fn flops_then_kernels_counts_calls() {
        let m = FlopsThenKernels;
        let c = m.op_cost(&gemm_op(4).view());
        assert_eq!(c.1, 1.0);
    }

    #[test]
    fn metric_by_reference() {
        fn takes_metric<M: CostMetric>(m: M, op: &KernelOp<OperandView>) -> M::Cost {
            m.op_cost(op)
        }
        let op = gemm_op(3).view();
        assert_eq!(takes_metric(&FlopCount, &op), FlopCount.op_cost(&op));
    }
}
