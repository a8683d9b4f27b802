//! Symbolic kernel costs: exact FLOP formulas over dimension variables.
//!
//! [`FlopFormula`] captures the *shape-level structure* of a kernel
//! operation's FLOP count — which symbolic dimensions enter the formula
//! and how — independent of any particular operands. It serves two
//! purposes in the symbolic pipeline:
//!
//! * [`FlopFormula::eval`] reproduces [`KernelOp::flops`] **bit for
//!   bit**: each variant performs the same `f64` operations in the same
//!   order as the corresponding arm of `flops`, so a cached symbolic
//!   plan instantiated at concrete sizes yields costs identical to a
//!   from-scratch concrete solve.
//! * [`FlopFormula::poly`] lifts the formula to a [`CostPoly`], on
//!   which the symbolic optimizer decides split dominance.

use crate::op::{InvKind, KernelOp, Side};
use gmc_expr::{CostPoly, Dim, DimBindings, DimError, SymShape};

/// The FLOP count of a kernel operation as a function of symbolic
/// dimensions (paper Table 1 / Sec. 2 footnote conventions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlopFormula {
    /// GEMM: `2.0 * m * n * k`.
    Gemm {
        /// Result rows.
        m: Dim,
        /// Inner dimension.
        k: Dim,
        /// Result columns.
        n: Dim,
    },
    /// TRMM / SYMM / TRSM: `m * m * n` (structured operand dimension
    /// `m`, free dimension `n`).
    Level3 {
        /// Structured (square) operand dimension.
        m: Dim,
        /// Free dimension of the general operand.
        n: Dim,
    },
    /// SYRK: `m * m * k`.
    Syrk {
        /// Result dimension.
        m: Dim,
        /// Inner dimension.
        k: Dim,
    },
    /// GESV: `2/3·m³ + 2·m²·n`.
    Gesv {
        /// Solve dimension.
        m: Dim,
        /// Right-hand-side free dimension.
        n: Dim,
    },
    /// POSV: `1/3·m³ + 2·m²·n`.
    Posv {
        /// Solve dimension.
        m: Dim,
        /// Right-hand-side free dimension.
        n: Dim,
    },
    /// Diagonal multiply/solve: `r·c` entries.
    EntryCount {
        /// Rows of the general operand.
        r: Dim,
        /// Columns of the general operand.
        c: Dim,
    },
    /// GEMV / GER: `2·(r·c)`.
    TwiceEntryCount {
        /// First dimension.
        r: Dim,
        /// Second dimension.
        c: Dim,
    },
    /// TRMV / TRSV: `n·n`.
    SquareN {
        /// Triangular dimension.
        n: Dim,
    },
    /// SYMV: `2·n·n`.
    TwiceSquareN {
        /// Symmetric dimension.
        n: Dim,
    },
    /// DOT: `2·n`.
    TwiceN {
        /// Vector length.
        n: Dim,
    },
    /// COPY: zero FLOPs.
    Zero,
    /// Explicit inversion, by structure kind.
    Inv {
        /// Which factorization computes the inverse.
        kind: InvKind,
        /// The (square) dimension.
        n: Dim,
    },
    /// Composite inverse pair: `(2 + 2/3 + 2)·m³`.
    InvPair {
        /// The (square) dimension.
        m: Dim,
    },
}

fn apply_t(t: bool, s: SymShape) -> SymShape {
    if t {
        s.transposed()
    } else {
        s
    }
}

impl FlopFormula {
    /// Derives the formula for `op`, resolving each operand's symbolic
    /// shape through `shapes`.
    ///
    /// Every branch of [`KernelOp::flops`] is decided by the operation
    /// itself (the free dimension of a structured level-3 kernel by its
    /// side), never by comparing sizes, so the formula holds at every
    /// binding of the chain it was derived from.
    pub fn from_op<O>(op: &KernelOp<O>, mut shapes: impl FnMut(&O) -> SymShape) -> FlopFormula {
        // The free dimension of `b` (mirror of `free_dim` in `op.rs`).
        fn free_dim(side: Side, tb: bool, b: SymShape) -> Dim {
            let b = apply_t(tb, b);
            match side {
                Side::Left => b.cols(),
                Side::Right => b.rows(),
            }
        }
        match op {
            KernelOp::Gemm { ta, tb, a, b } => {
                let sa = apply_t(*ta, shapes(a));
                let sb = apply_t(*tb, shapes(b));
                FlopFormula::Gemm {
                    m: sa.rows(),
                    k: sa.cols(),
                    n: sb.cols(),
                }
            }
            KernelOp::Trmm { side, a, b, .. } | KernelOp::Symm { side, a, b, .. } => {
                FlopFormula::Level3 {
                    m: shapes(a).rows(),
                    n: free_dim(*side, false, shapes(b)),
                }
            }
            KernelOp::Trsm { side, tb, a, b, .. } => FlopFormula::Level3 {
                m: shapes(a).rows(),
                n: free_dim(*side, *tb, shapes(b)),
            },
            KernelOp::Syrk { trans, a } => {
                let s = shapes(a);
                let (m, k) = if *trans {
                    (s.cols(), s.rows())
                } else {
                    (s.rows(), s.cols())
                };
                FlopFormula::Syrk { m, k }
            }
            KernelOp::Gesv { side, tb, a, b, .. } => FlopFormula::Gesv {
                m: shapes(a).rows(),
                n: free_dim(*side, *tb, shapes(b)),
            },
            KernelOp::Posv { side, tb, a, b } => FlopFormula::Posv {
                m: shapes(a).rows(),
                n: free_dim(*side, *tb, shapes(b)),
            },
            KernelOp::Diag { b, .. } => {
                let s = shapes(b);
                FlopFormula::EntryCount {
                    r: s.rows(),
                    c: s.cols(),
                }
            }
            KernelOp::Gemv { a, .. } => {
                let s = shapes(a);
                FlopFormula::TwiceEntryCount {
                    r: s.rows(),
                    c: s.cols(),
                }
            }
            KernelOp::Trmv { a, .. } | KernelOp::Trsv { a, .. } => FlopFormula::SquareN {
                n: shapes(a).rows(),
            },
            KernelOp::Symv { a, .. } => FlopFormula::TwiceSquareN {
                n: shapes(a).rows(),
            },
            KernelOp::Ger { x, y } => FlopFormula::TwiceEntryCount {
                r: shapes(x).rows(),
                c: shapes(y).rows(),
            },
            KernelOp::Dot { x, .. } => FlopFormula::TwiceN {
                n: shapes(x).rows(),
            },
            KernelOp::Copy { .. } => FlopFormula::Zero,
            KernelOp::Inv { kind, a, .. } => FlopFormula::Inv {
                kind: *kind,
                n: shapes(a).rows(),
            },
            KernelOp::InvPair { a, .. } => FlopFormula::InvPair {
                m: shapes(a).rows(),
            },
        }
    }

    /// Evaluates the formula at concrete sizes.
    ///
    /// Performs the exact same `f64` operations, in the same order, as
    /// the matching arm of [`KernelOp::flops`], so the result is
    /// bit-identical to instantiating the operation and calling `flops`.
    ///
    /// # Errors
    ///
    /// Propagates [`DimError`] for unbound variables or zero sizes.
    pub fn eval(&self, bindings: &DimBindings) -> Result<f64, DimError> {
        let d = |dim: &Dim| dim.bind(bindings);
        Ok(match self {
            FlopFormula::Gemm { m, k, n } => {
                let (m, k, n) = (d(m)? as f64, d(k)? as f64, d(n)? as f64);
                2.0 * m * n * k
            }
            FlopFormula::Level3 { m, n } => {
                let m = d(m)? as f64;
                let n = d(n)? as f64;
                m * m * n
            }
            FlopFormula::Syrk { m, k } => {
                let (m, k) = (d(m)? as f64, d(k)? as f64);
                m * m * k
            }
            FlopFormula::Gesv { m, n } => {
                let m = d(m)? as f64;
                let n = d(n)? as f64;
                2.0 / 3.0 * m * m * m + 2.0 * m * m * n
            }
            FlopFormula::Posv { m, n } => {
                let m = d(m)? as f64;
                let n = d(n)? as f64;
                1.0 / 3.0 * m * m * m + 2.0 * m * m * n
            }
            // The entry counts are exact in `u128` for any two `usize`
            // dimensions, so the product cannot wrap before rounding.
            FlopFormula::EntryCount { r, c } => (d(r)? as u128 * d(c)? as u128) as f64,
            FlopFormula::TwiceEntryCount { r, c } => 2.0 * (d(r)? as u128 * d(c)? as u128) as f64,
            FlopFormula::SquareN { n } => {
                let n = d(n)? as f64;
                n * n
            }
            FlopFormula::TwiceSquareN { n } => {
                let n = d(n)? as f64;
                2.0 * n * n
            }
            FlopFormula::TwiceN { n } => 2.0 * d(n)? as f64,
            FlopFormula::Zero => 0.0,
            FlopFormula::Inv { kind, n } => {
                let n = d(n)? as f64;
                match kind {
                    InvKind::General => 2.0 * n * n * n,
                    InvKind::Spd => n * n * n,
                    InvKind::Triangular(_) => n * n * n / 3.0,
                    InvKind::Diagonal => n,
                }
            }
            FlopFormula::InvPair { m } => {
                let m = d(m)? as f64;
                (2.0 + 2.0 / 3.0 + 2.0) * m * m * m
            }
        })
    }

    /// Whether [`eval`](Self::eval) returns the exact count at every
    /// binding whose count stays below 2^53: true for the formulas with
    /// integer coefficients. False for those with a coefficient in
    /// thirds (GESV, POSV, TRTRI and the inverse pair), whose counts can
    /// be fractional and whose `f64` arithmetic rounds, so two costs that
    /// are equal as polynomials can compare either way.
    pub fn is_exact_in_f64(&self) -> bool {
        !matches!(
            self,
            FlopFormula::Gesv { .. }
                | FlopFormula::Posv { .. }
                | FlopFormula::Inv {
                    kind: InvKind::Triangular(_),
                    ..
                }
                | FlopFormula::InvPair { .. }
        )
    }

    /// The formula as a multivariate polynomial in the dimension
    /// variables, for dominance comparisons in the symbolic optimizer.
    /// Each term is built directly with its exact coefficient in thirds.
    pub fn poly(&self) -> CostPoly {
        let t = CostPoly::monomial;
        match *self {
            FlopFormula::Gemm { m, k, n } => t(6, &[m, n, k]),
            FlopFormula::Level3 { m, n } => t(3, &[m, m, n]),
            FlopFormula::Syrk { m, k } => t(3, &[m, m, k]),
            FlopFormula::Gesv { m, n } => t(2, &[m, m, m]).add(&t(6, &[m, m, n])),
            FlopFormula::Posv { m, n } => t(1, &[m, m, m]).add(&t(6, &[m, m, n])),
            FlopFormula::EntryCount { r, c } => t(3, &[r, c]),
            FlopFormula::TwiceEntryCount { r, c } => t(6, &[r, c]),
            FlopFormula::SquareN { n } => t(3, &[n, n]),
            FlopFormula::TwiceSquareN { n } => t(6, &[n, n]),
            FlopFormula::TwiceN { n } => t(6, &[n]),
            FlopFormula::Zero => CostPoly::zero(),
            FlopFormula::Inv { kind, n } => match kind {
                InvKind::General => t(6, &[n, n, n]),
                InvKind::Spd => t(3, &[n, n, n]),
                InvKind::Triangular(_) => t(1, &[n, n, n]),
                InvKind::Diagonal => t(3, &[n]),
            },
            // (2 + 2/3 + 2)·m³.
            FlopFormula::InvPair { m } => t(14, &[m, m, m]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Uplo;
    use gmc_expr::{Operand, Property, Shape};
    use std::collections::HashMap;

    /// Builds a resolver that lifts each operand's concrete shape to a
    /// constant symbolic shape, so `eval` must reproduce `flops` exactly.
    fn const_resolver(ops: &[&Operand]) -> impl FnMut(&Operand) -> SymShape {
        let map: HashMap<String, Shape> = ops
            .iter()
            .map(|o| (o.name().to_owned(), o.shape()))
            .collect();
        move |o: &Operand| map[o.name()].to_sym()
    }

    fn check_exact(op: KernelOp, operands: &[&Operand]) {
        let f = FlopFormula::from_op(&op, const_resolver(operands));
        let got = f.eval(&DimBindings::new()).unwrap();
        assert_eq!(
            got.to_bits(),
            op.flops().to_bits(),
            "formula {f:?} diverged from flops() for {op}"
        );
        // Polynomial evaluation agrees up to floating-point association.
        let poly = f.poly().eval(&DimBindings::new()).unwrap();
        assert!((poly - op.flops()).abs() <= 1e-9 * op.flops().abs().max(1.0));
    }

    #[test]
    fn formulas_reproduce_flops_bit_for_bit() {
        let a = Operand::matrix("A", 37, 23);
        let b = Operand::matrix("B", 23, 41);
        let tri = Operand::square("L", 23).with_property(Property::LowerTriangular);
        let bb = Operand::matrix("C", 23, 17);
        let spd = Operand::square("S", 23).with_property(Property::SymmetricPositiveDefinite);
        let d = Operand::square("D", 23).with_property(Property::Diagonal);
        let x = Operand::col_vector("x", 23);
        let y = Operand::col_vector("y", 17);

        check_exact(
            KernelOp::Gemm {
                ta: false,
                tb: false,
                a: a.clone(),
                b: b.clone(),
            },
            &[&a, &b],
        );
        check_exact(
            KernelOp::Gemm {
                ta: true,
                tb: true,
                a: b.clone(),
                b: a.clone(),
            },
            &[&a, &b],
        );
        check_exact(
            KernelOp::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            &[&tri, &bb],
        );
        // A right-side structured operand takes the rows of `B` as its
        // free dimension (`free_dim`).
        let wide = Operand::matrix("W", 17, 23);
        check_exact(
            KernelOp::Trmm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                b: wide.clone(),
            },
            &[&tri, &wide],
        );
        check_exact(
            KernelOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: true,
                tb: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            &[&tri, &bb],
        );
        check_exact(
            KernelOp::Symm {
                side: Side::Left,
                a: spd.clone(),
                b: bb.clone(),
            },
            &[&spd, &bb],
        );
        check_exact(
            KernelOp::Syrk {
                trans: true,
                a: a.clone(),
            },
            &[&a],
        );
        check_exact(
            KernelOp::Gesv {
                side: Side::Left,
                trans: false,
                tb: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            &[&tri, &bb],
        );
        check_exact(
            KernelOp::Posv {
                side: Side::Left,
                tb: false,
                a: spd.clone(),
                b: bb.clone(),
            },
            &[&spd, &bb],
        );
        check_exact(
            KernelOp::Diag {
                side: Side::Left,
                inv: true,
                tb: false,
                d: d.clone(),
                b: bb.clone(),
            },
            &[&d, &bb],
        );
        check_exact(
            KernelOp::Gemv {
                trans: false,
                a: a.clone(),
                x: x.clone(),
            },
            &[&a, &x],
        );
        check_exact(
            KernelOp::Trmv {
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                x: x.clone(),
            },
            &[&tri, &x],
        );
        check_exact(
            KernelOp::Symv {
                a: spd.clone(),
                x: x.clone(),
            },
            &[&spd, &x],
        );
        check_exact(
            KernelOp::Trsv {
                uplo: Uplo::Upper,
                trans: true,
                a: tri.clone(),
                x: x.clone(),
            },
            &[&tri, &x],
        );
        check_exact(
            KernelOp::Ger {
                x: x.clone(),
                y: y.clone(),
            },
            &[&x, &y],
        );
        check_exact(
            KernelOp::Dot {
                x: x.clone(),
                y: x.clone(),
            },
            &[&x],
        );
        check_exact(KernelOp::Copy { b: bb.clone() }, &[&bb]);
        for kind in [
            InvKind::General,
            InvKind::Spd,
            InvKind::Triangular(Uplo::Lower),
            InvKind::Diagonal,
        ] {
            check_exact(
                KernelOp::Inv {
                    kind,
                    trans: false,
                    a: spd.clone(),
                },
                &[&spd],
            );
        }
        check_exact(
            KernelOp::InvPair {
                ta: false,
                tb: false,
                a: spd.clone(),
                b: spd.clone(),
            },
            &[&spd],
        );
    }

    #[test]
    fn symbolic_formula_evaluates_per_binding() {
        let n = Dim::var("kf_n");
        let m = Dim::var("kf_m");
        let f = FlopFormula::Gemm { m: n, k: n, n: m };
        let b = DimBindings::new().with("kf_n", 10).with("kf_m", 3);
        assert_eq!(f.eval(&b).unwrap(), 2.0 * 10.0 * 3.0 * 10.0);
        assert!(f.eval(&DimBindings::new()).is_err());
        let poly = f.poly();
        assert_eq!(poly.eval(&b).unwrap(), 600.0);
        assert_eq!(poly.degree(), 3);
    }

    #[test]
    fn gemv_dominates_gemm_on_matrix_vector_products() {
        // GEMV and GEMM on an n×m · m×1 product cost the same
        // polynomial; TRMV on a square n×n · n×1 strictly dominates
        // GEMM's 2n².
        let n = Dim::var("kf2_n");
        let trmv = FlopFormula::SquareN { n }.poly();
        let gemm = FlopFormula::Gemm {
            m: n,
            k: n,
            n: Dim::Const(1),
        }
        .poly();
        assert!(trmv.dominated_by(&gemm));
        assert!(!gemm.dominated_by(&trmv));
    }
}
