//! Symbolic kernel costs: a kernel operation's FLOP count as a
//! polynomial in the dimension variables.
//!
//! [`KernelOp::flop_poly`] lifts the one per-kernel count of
//! [`KernelOp::flop_terms`] to a [`CostPoly`] over the operands' symbolic
//! shapes. The symbolic optimizer decides split dominance on it, and
//! evaluated in thirds at a binding it is exactly the
//! [`flop_count`](KernelOp::flop_count) of the operation over the bound
//! operands: both read the same monomials.

use crate::op::KernelOp;
use gmc_expr::{CostPoly, SymShape};

impl<O> KernelOp<O> {
    /// The FLOP count as a polynomial in the dimension variables, with
    /// `shape` giving each operand's symbolic shape.
    pub fn flop_poly(&self, shape: impl Fn(&O) -> SymShape) -> CostPoly {
        let mut poly = CostPoly::zero();
        self.flop_terms(shape, |coeff, dims| {
            let term = CostPoly::monomial(i128::from(coeff), dims);
            poly = if poly.is_zero() {
                term
            } else {
                poly.add(&term)
            };
        });
        poly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{InvKind, Side, Uplo};
    use gmc_expr::{Dim, DimBindings, Operand, Property};

    /// The polynomial of `op` over its operands' concrete shapes, as
    /// constants, is exactly its FLOP count.
    fn check_exact(op: KernelOp) {
        let poly = op.flop_poly(|o| o.shape().to_sym());
        let thirds = poly.eval_thirds(|_| None);
        assert_eq!(
            thirds,
            Some(op.flop_count().thirds() as i128),
            "polynomial {poly} diverged from flop_count() for {op}"
        );
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
        // A right-side structured operand takes the rows of `B` as its
        // free dimension.
        let wide = Operand::matrix("W", 17, 23);
        let structured = |side, b: &Operand| KernelOp::Trmm {
            side,
            uplo: Uplo::Lower,
            trans: false,
            a: tri.clone(),
            b: b.clone(),
        };
        let mut ops = vec![
            KernelOp::Gemm {
                ta: false,
                tb: false,
                a: a.clone(),
                b: b.clone(),
            },
            KernelOp::Gemm {
                ta: true,
                tb: true,
                a: b.clone(),
                b: a.clone(),
            },
            structured(Side::Left, &bb),
            structured(Side::Right, &wide),
            KernelOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: true,
                tb: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            KernelOp::Symm {
                side: Side::Left,
                a: spd.clone(),
                b: bb.clone(),
            },
            KernelOp::Syrk {
                trans: true,
                a: a.clone(),
            },
            KernelOp::Gesv {
                side: Side::Left,
                trans: false,
                tb: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            KernelOp::Posv {
                side: Side::Right,
                tb: true,
                a: spd.clone(),
                b: bb.clone(),
            },
            KernelOp::Diag {
                side: Side::Left,
                inv: true,
                tb: false,
                d,
                b: bb.clone(),
            },
            KernelOp::Gemv {
                trans: false,
                a,
                x: x.clone(),
            },
            KernelOp::Trmv {
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                x: x.clone(),
            },
            KernelOp::Symv {
                a: spd.clone(),
                x: x.clone(),
            },
            KernelOp::Trsv {
                uplo: Uplo::Upper,
                trans: true,
                a: tri,
                x: x.clone(),
            },
            KernelOp::Ger { x: x.clone(), y },
            KernelOp::Dot { x: x.clone(), y: x },
            KernelOp::Copy { b: bb },
            KernelOp::InvPair {
                ta: false,
                tb: false,
                a: spd.clone(),
                b: spd.clone(),
            },
        ];
        for kind in [
            InvKind::General,
            InvKind::Spd,
            InvKind::Triangular(Uplo::Lower),
            InvKind::Diagonal,
        ] {
            ops.push(KernelOp::Inv {
                kind,
                trans: false,
                a: spd.clone(),
            });
        }
        for op in ops {
            check_exact(op);
        }
    }

    #[test]
    fn symbolic_formula_evaluates_per_binding() {
        let (n, m) = (Dim::var("kf_n"), Dim::var("kf_m"));
        let gemm = KernelOp::Gemm {
            ta: false,
            tb: false,
            a: SymShape::square(n),
            b: SymShape::new(n, m),
        };
        let poly = gemm.flop_poly(|s| *s);
        let b = DimBindings::new().with("kf_n", 10).with("kf_m", 3);
        assert_eq!(poly.eval_thirds(|v| b.get(v)), Some(3 * 600));
        assert_eq!(poly.eval_thirds(|_| None), None);
        assert_eq!(poly.degree(), 3);
    }

    #[test]
    fn gemv_dominates_gemm_on_matrix_vector_products() {
        // TRMV on a square n×n · n×1 costs n², strictly less than
        // GEMM's 2n² for the same product.
        let n = Dim::var("kf2_n");
        let (a, x) = (SymShape::square(n), SymShape::new(n, Dim::Const(1)));
        let trmv = KernelOp::Trmv {
            uplo: Uplo::Lower,
            trans: false,
            a,
            x,
        }
        .flop_poly(|s| *s);
        let gemm = KernelOp::Gemm {
            ta: false,
            tb: false,
            a,
            b: x,
        }
        .flop_poly(|s| *s);
        assert!(trmv.dominated_by(&gemm));
        assert!(!gemm.dominated_by(&trmv));
    }
}
