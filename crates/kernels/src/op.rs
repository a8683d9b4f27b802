//! Fully-instantiated kernel operations: the payload of generated code.

use crate::flops::Flops;
use gmc_expr::{GenShape, Operand, OperandId, OperandView, Shape, Shaped};
use std::fmt;

/// Which side the structured operand multiplies from (BLAS `SIDE`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    /// The structured operand is on the left.
    Left,
    /// The structured operand is on the right.
    Right,
}

/// Which triangle of a triangular operand is populated (BLAS `UPLO`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Uplo {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// How an explicit inverse is computed (which structure is exploited).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InvKind {
    /// LU-based inverse of a general matrix (`2n³` FLOPs).
    General,
    /// Cholesky-based inverse of an SPD matrix (`n³`).
    Spd,
    /// Triangular inverse (`n³/3`).
    Triangular(Uplo),
    /// Reciprocal diagonal (`n`).
    Diagonal,
}

/// The kernel family, i.e. which routine of the substrate is invoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelFamily {
    /// General matrix-matrix multiply.
    Gemm,
    /// Triangular matrix-matrix multiply.
    Trmm,
    /// Symmetric matrix-matrix multiply.
    Symm,
    /// Triangular solve with multiple right-hand sides.
    Trsm,
    /// Symmetric rank-k update (`XᵀX` / `XXᵀ`).
    Syrk,
    /// General solve (LU-based), `op(A)⁻¹B` or `B·op(A)⁻¹`.
    Gesv,
    /// SPD solve (Cholesky-based).
    Posv,
    /// Diagonal multiply or solve.
    Diag,
    /// General matrix-vector multiply.
    Gemv,
    /// Triangular matrix-vector multiply.
    Trmv,
    /// Symmetric matrix-vector multiply.
    Symv,
    /// Triangular solve with a single right-hand side.
    Trsv,
    /// Outer product `x·yᵀ`.
    Ger,
    /// Inner product `xᵀ·y`.
    Dot,
    /// Copy (identity multiply).
    Copy,
    /// Explicit matrix inversion (GETRI / POTRI / TRTRI / reciprocal
    /// diagonal). Not part of the GMC kernel registry — the optimizer
    /// always prefers solves — but required to model the *naive*
    /// baseline implementations (`inv(A)*B`, paper Sec. 4).
    Inv,
    /// Composite kernel for `op(A)⁻¹·op(B)⁻¹` (explicit inverse + solve);
    /// see paper Sec. 5 — such kernels do not exist in BLAS/LAPACK and
    /// are assembled from `GETRI` + `GESV`.
    InvPair,
}

impl KernelFamily {
    /// The conventional routine name, lower case (as used in the Julia
    /// emitter, e.g. `gemm!`).
    pub fn routine(&self) -> &'static str {
        match self {
            KernelFamily::Gemm => "gemm",
            KernelFamily::Trmm => "trmm",
            KernelFamily::Symm => "symm",
            KernelFamily::Trsm => "trsm",
            KernelFamily::Syrk => "syrk",
            KernelFamily::Gesv => "gesv",
            KernelFamily::Posv => "posv",
            KernelFamily::Diag => "dgmm",
            KernelFamily::Gemv => "gemv",
            KernelFamily::Trmv => "trmv",
            KernelFamily::Symv => "symv",
            KernelFamily::Trsv => "trsv",
            KernelFamily::Ger => "ger",
            KernelFamily::Dot => "dot",
            KernelFamily::Copy => "copy",
            KernelFamily::Inv => "inv",
            KernelFamily::InvPair => "invpair",
        }
    }
}

impl fmt::Display for KernelFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.routine())
    }
}

/// A kernel operation — one step of a generated program — generic over
/// its operands `O`.
///
/// A [`Kernel`](crate::Kernel) holds its operation as a template over
/// the pattern variables (`KernelOp<Var>`). Instantiated with operand
/// views (`KernelOp<OperandView>`), it is what the GMC dynamic program
/// costs: [`flops`](Self::flops) and [`result_shape`](Self::result_shape)
/// read only shapes. Instantiated with [`Operand`]s (the default), it is
/// what the code emitters of `gmc-codegen` and the interpreter of
/// `gmc-runtime` consume.
///
/// [`OperandView`]: gmc_expr::OperandView
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelOp<O = Operand> {
    /// `C := op(A)·op(B)` (GEMM).
    Gemm {
        /// Transpose A.
        ta: bool,
        /// Transpose B.
        tb: bool,
        /// Left operand.
        a: O,
        /// Right operand.
        b: O,
    },
    /// `C := op(A)·B` or `B·op(A)` with `A` triangular (TRMM).
    Trmm {
        /// Side of the triangular operand.
        side: Side,
        /// Which triangle of `A` is stored.
        uplo: Uplo,
        /// Transpose A.
        trans: bool,
        /// The triangular operand.
        a: O,
        /// The general operand.
        b: O,
    },
    /// `C := A·B` or `B·A` with `A` symmetric (SYMM).
    Symm {
        /// Side of the symmetric operand.
        side: Side,
        /// The symmetric operand.
        a: O,
        /// The general operand.
        b: O,
    },
    /// `X := op(A)⁻¹·op(B)` or `op(B)·op(A)⁻¹` with `A` triangular
    /// (TRSM; a transposed right-hand side is handled with a transpose
    /// copy before the solve).
    Trsm {
        /// Side of the triangular operand.
        side: Side,
        /// Which triangle of `A` is stored.
        uplo: Uplo,
        /// Transpose A.
        trans: bool,
        /// Transpose the right-hand side first.
        tb: bool,
        /// The triangular operand.
        a: O,
        /// The right-hand side.
        b: O,
    },
    /// `C := AᵀA` (`trans`) or `A·Aᵀ` (SYRK).
    Syrk {
        /// Whether the transposed operand comes first (`AᵀA`).
        trans: bool,
        /// The operand.
        a: O,
    },
    /// `X := op(A)⁻¹·op(B)` or `op(B)·op(A)⁻¹` for general `A`
    /// (GETRF+GETRS).
    Gesv {
        /// Side of the inverted operand.
        side: Side,
        /// Transpose A (solve with `Aᵀ`).
        trans: bool,
        /// Transpose the right-hand side first.
        tb: bool,
        /// The inverted operand.
        a: O,
        /// The right-hand side.
        b: O,
    },
    /// `X := A⁻¹·op(B)` or `op(B)·A⁻¹` for SPD `A` (POTRF+POTRS).
    Posv {
        /// Side of the inverted operand.
        side: Side,
        /// Transpose the right-hand side first.
        tb: bool,
        /// The SPD operand.
        a: O,
        /// The right-hand side.
        b: O,
    },
    /// `C := D·op(B)`, `op(B)·D`, `D⁻¹·op(B)` or `op(B)·D⁻¹` with `D`
    /// diagonal.
    Diag {
        /// Side of the diagonal operand.
        side: Side,
        /// Whether to solve (`D⁻¹`) rather than multiply.
        inv: bool,
        /// Transpose the general operand first.
        tb: bool,
        /// The diagonal operand.
        d: O,
        /// The general operand.
        b: O,
    },
    /// `y := op(A)·x` (GEMV).
    Gemv {
        /// Transpose A.
        trans: bool,
        /// The matrix.
        a: O,
        /// The vector.
        x: O,
    },
    /// `y := op(A)·x` with `A` triangular (TRMV).
    Trmv {
        /// Which triangle of `A` is stored.
        uplo: Uplo,
        /// Transpose A.
        trans: bool,
        /// The triangular matrix.
        a: O,
        /// The vector.
        x: O,
    },
    /// `y := A·x` with `A` symmetric (SYMV).
    Symv {
        /// The symmetric matrix.
        a: O,
        /// The vector.
        x: O,
    },
    /// `y := op(A)⁻¹·x` with `A` triangular (TRSV).
    Trsv {
        /// Which triangle of `A` is stored.
        uplo: Uplo,
        /// Transpose A.
        trans: bool,
        /// The triangular matrix.
        a: O,
        /// The vector.
        x: O,
    },
    /// `C := x·yᵀ` (GER-style outer product).
    Ger {
        /// Column vector.
        x: O,
        /// Column vector (transposed in the product).
        y: O,
    },
    /// `s := xᵀ·y` (DOT).
    Dot {
        /// Left vector.
        x: O,
        /// Right vector.
        y: O,
    },
    /// `C := B` where the identity operand is eliminated.
    Copy {
        /// The surviving operand.
        b: O,
    },
    /// `C := op(A)⁻¹` — explicit inversion, specialized by structure.
    Inv {
        /// How the inverse is computed (which factorization).
        kind: InvKind,
        /// Transpose the result (`A⁻ᵀ`).
        trans: bool,
        /// The operand to invert.
        a: O,
    },
    /// `X := op(A)⁻¹·op(B)⁻¹`: composite inverse-pair kernel
    /// (`GETRI` on `op(B)` followed by `GESV` with `op(A)`).
    InvPair {
        /// Transpose A.
        ta: bool,
        /// Transpose B.
        tb: bool,
        /// The left inverted operand.
        a: O,
        /// The right inverted operand.
        b: O,
    },
}

impl<O> KernelOp<O> {
    /// The same operation over other operands: `f` maps each operand.
    pub fn map<P>(&self, mut f: impl FnMut(&O) -> P) -> KernelOp<P> {
        match self {
            KernelOp::Gemm { ta, tb, a, b } => KernelOp::Gemm {
                ta: *ta,
                tb: *tb,
                a: f(a),
                b: f(b),
            },
            KernelOp::Trmm {
                side,
                uplo,
                trans,
                a,
                b,
            } => KernelOp::Trmm {
                side: *side,
                uplo: *uplo,
                trans: *trans,
                a: f(a),
                b: f(b),
            },
            KernelOp::Symm { side, a, b } => KernelOp::Symm {
                side: *side,
                a: f(a),
                b: f(b),
            },
            KernelOp::Trsm {
                side,
                uplo,
                trans,
                tb,
                a,
                b,
            } => KernelOp::Trsm {
                side: *side,
                uplo: *uplo,
                trans: *trans,
                tb: *tb,
                a: f(a),
                b: f(b),
            },
            KernelOp::Syrk { trans, a } => KernelOp::Syrk {
                trans: *trans,
                a: f(a),
            },
            KernelOp::Gesv {
                side,
                trans,
                tb,
                a,
                b,
            } => KernelOp::Gesv {
                side: *side,
                trans: *trans,
                tb: *tb,
                a: f(a),
                b: f(b),
            },
            KernelOp::Posv { side, tb, a, b } => KernelOp::Posv {
                side: *side,
                tb: *tb,
                a: f(a),
                b: f(b),
            },
            KernelOp::Diag {
                side,
                inv,
                tb,
                d,
                b,
            } => KernelOp::Diag {
                side: *side,
                inv: *inv,
                tb: *tb,
                d: f(d),
                b: f(b),
            },
            KernelOp::Gemv { trans, a, x } => KernelOp::Gemv {
                trans: *trans,
                a: f(a),
                x: f(x),
            },
            KernelOp::Trmv { uplo, trans, a, x } => KernelOp::Trmv {
                uplo: *uplo,
                trans: *trans,
                a: f(a),
                x: f(x),
            },
            KernelOp::Symv { a, x } => KernelOp::Symv { a: f(a), x: f(x) },
            KernelOp::Trsv { uplo, trans, a, x } => KernelOp::Trsv {
                uplo: *uplo,
                trans: *trans,
                a: f(a),
                x: f(x),
            },
            KernelOp::Ger { x, y } => KernelOp::Ger { x: f(x), y: f(y) },
            KernelOp::Dot { x, y } => KernelOp::Dot { x: f(x), y: f(y) },
            KernelOp::Copy { b } => KernelOp::Copy { b: f(b) },
            KernelOp::Inv { kind, trans, a } => KernelOp::Inv {
                kind: *kind,
                trans: *trans,
                a: f(a),
            },
            KernelOp::InvPair { ta, tb, a, b } => KernelOp::InvPair {
                ta: *ta,
                tb: *tb,
                a: f(a),
                b: f(b),
            },
        }
    }

    /// The family of the operation.
    pub fn family(&self) -> KernelFamily {
        match self {
            KernelOp::Gemm { .. } => KernelFamily::Gemm,
            KernelOp::Trmm { .. } => KernelFamily::Trmm,
            KernelOp::Symm { .. } => KernelFamily::Symm,
            KernelOp::Trsm { .. } => KernelFamily::Trsm,
            KernelOp::Syrk { .. } => KernelFamily::Syrk,
            KernelOp::Gesv { .. } => KernelFamily::Gesv,
            KernelOp::Posv { .. } => KernelFamily::Posv,
            KernelOp::Diag { .. } => KernelFamily::Diag,
            KernelOp::Gemv { .. } => KernelFamily::Gemv,
            KernelOp::Trmv { .. } => KernelFamily::Trmv,
            KernelOp::Symv { .. } => KernelFamily::Symv,
            KernelOp::Trsv { .. } => KernelFamily::Trsv,
            KernelOp::Ger { .. } => KernelFamily::Ger,
            KernelOp::Dot { .. } => KernelFamily::Dot,
            KernelOp::Copy { .. } => KernelFamily::Copy,
            KernelOp::Inv { .. } => KernelFamily::Inv,
            KernelOp::InvPair { .. } => KernelFamily::InvPair,
        }
    }

    /// The operands referenced by this operation, in argument order.
    pub fn operands(&self) -> Vec<&O> {
        let mut operands = Vec::with_capacity(2);
        self.for_each_operand(|o| operands.push(o));
        operands
    }

    /// Visits the operands referenced by this operation, in argument
    /// order, without allocating — the hot-path alternative to
    /// [`operands`](Self::operands) for per-candidate cost metrics.
    pub fn for_each_operand<'a>(&'a self, mut visit: impl FnMut(&'a O)) {
        match self {
            KernelOp::Gemm { a, b, .. }
            | KernelOp::Trmm { a, b, .. }
            | KernelOp::Symm { a, b, .. }
            | KernelOp::Trsm { a, b, .. }
            | KernelOp::Gesv { a, b, .. }
            | KernelOp::Posv { a, b, .. }
            | KernelOp::InvPair { a, b, .. } => {
                visit(a);
                visit(b);
            }
            KernelOp::Diag { d, b, .. } => {
                visit(d);
                visit(b);
            }
            KernelOp::Syrk { a, .. } => visit(a),
            KernelOp::Gemv { a, x, .. }
            | KernelOp::Trmv { a, x, .. }
            | KernelOp::Symv { a, x }
            | KernelOp::Trsv { a, x, .. } => {
                visit(a);
                visit(x);
            }
            KernelOp::Ger { x, y } | KernelOp::Dot { x, y } => {
                visit(x);
                visit(y);
            }
            KernelOp::Copy { b } => visit(b),
            KernelOp::Inv { a, .. } => visit(a),
        }
    }
}

impl KernelOp {
    /// The operation over its operands' views, as cost metrics read
    /// it. Equal operands share one identity; each is identified as
    /// [`OperandId::Factor`] of its first position among the operands.
    pub fn view(&self) -> KernelOp<OperandView> {
        let operands = self.operands();
        self.map(|o| {
            let first = operands
                .iter()
                .position(|p| *p == o)
                .expect("an operation's operand is among its operands");
            o.view(OperandId::Factor(first))
        })
    }
}

impl<O: Shaped> KernelOp<O> {
    /// The shape of the operation's result.
    pub fn result_shape(&self) -> Shape {
        match self {
            KernelOp::Gemm { ta, tb, a, b } => {
                let sa = apply_t(*ta, a.shape());
                let sb = apply_t(*tb, b.shape());
                Shape::new(sa.rows(), sb.cols())
            }
            KernelOp::Trmm { b, .. } => b.shape(),
            KernelOp::Trsm { tb, b, .. } => apply_t(*tb, b.shape()),
            KernelOp::Symm { b, .. } => b.shape(),
            KernelOp::Posv { tb, b, .. }
            | KernelOp::Diag { tb, b, .. }
            | KernelOp::Gesv { tb, b, .. } => apply_t(*tb, b.shape()),
            KernelOp::Syrk { trans, a } => {
                let n = if *trans {
                    a.shape().cols()
                } else {
                    a.shape().rows()
                };
                Shape::square(n)
            }
            KernelOp::Gemv { trans, a, .. } => {
                let sa = apply_t(*trans, a.shape());
                Shape::col_vector(sa.rows())
            }
            KernelOp::Trmv { a, .. } | KernelOp::Symv { a, .. } | KernelOp::Trsv { a, .. } => {
                Shape::col_vector(a.shape().rows())
            }
            KernelOp::Ger { x, y } => Shape::new(x.shape().rows(), y.shape().rows()),
            KernelOp::Dot { .. } => Shape::new(1, 1),
            KernelOp::Copy { b } => b.shape(),
            KernelOp::Inv { a, .. } => Shape::square(a.shape().rows()),
            KernelOp::InvPair { a, .. } => Shape::square(a.shape().rows()),
        }
    }

    /// The exact number of floating point operations (see
    /// [`flop_terms`](KernelOp::flop_terms)).
    pub fn flop_count(&self) -> Flops {
        let mut thirds = 0u128;
        self.flop_terms(Shaped::shape, |coeff, dims| {
            // Admitted dimensions are at most 2^32, so a term stays
            // below 2^100 thirds.
            thirds += dims
                .iter()
                .fold(u128::from(coeff), |term, &d| term * d as u128);
        });
        Flops::from_thirds(thirds)
    }

    /// The number of floating point operations, rounded once to the
    /// nearest `f64`.
    pub fn flops(&self) -> f64 {
        self.flop_count().to_f64()
    }
}

impl<O> KernelOp<O> {
    /// The operation's FLOP count, written once per kernel, following
    /// the paper's conventions (Table 1 and Sec. 2 footnote): `GEMM`
    /// costs `2mnk`, the structured level-3 kernels (`TRMM`, `SYMM`,
    /// `TRSM`) cost `m²n`, `SYRK` costs `m²k`, solvers add their
    /// factorization cost (`2/3·m³` for LU, `1/3·m³` for Cholesky), and
    /// explicit general inversion costs `2·m³`.
    ///
    /// The count is at most two monomials: `term` receives each one's
    /// coefficient in thirds of a FLOP and its dimensions, read from the
    /// operands' shapes in any dimension type — sizes for
    /// [`flop_count`](KernelOp::flop_count), [`Dim`](gmc_expr::Dim)s for
    /// [`flop_poly`](KernelOp::flop_poly). Which dimensions enter is
    /// decided by the operation itself (the free dimension of a
    /// structured kernel by its side), never by comparing sizes, so a
    /// count lifted to a polynomial holds at every binding.
    pub fn flop_terms<D: Copy>(
        &self,
        shape: impl Fn(&O) -> GenShape<D>,
        mut term: impl FnMut(u8, &[D]),
    ) {
        let dims = |t: bool, o: &O| {
            let s = shape(o);
            let (r, c) = (*s.rows_dim(), *s.cols_dim());
            if t {
                (c, r)
            } else {
                (r, c)
            }
        };
        let rows = |o: &O| *shape(o).rows_dim();
        // The free dimension of the general operand `B` of a structured
        // level-3 kernel or solve, the one not shared with the square
        // operand: the columns of `op(B)` when the square operand
        // multiplies from the left, its rows when from the right.
        let free = |side: Side, tb: bool, b: &O| {
            let (r, c) = dims(tb, b);
            match side {
                Side::Left => c,
                Side::Right => r,
            }
        };
        match self {
            KernelOp::Gemm { ta, tb, a, b } => {
                let ((m, k), (_, n)) = (dims(*ta, a), dims(*tb, b));
                term(6, &[m, n, k]);
            }
            KernelOp::Trmm { side, a, b, .. } | KernelOp::Symm { side, a, b } => {
                let m = rows(a);
                term(3, &[m, m, free(*side, false, b)]);
            }
            KernelOp::Trsm { side, tb, a, b, .. } => {
                let m = rows(a);
                term(3, &[m, m, free(*side, *tb, b)]);
            }
            KernelOp::Syrk { trans, a } => {
                let (m, k) = dims(*trans, a);
                term(3, &[m, m, k]);
            }
            KernelOp::Gesv { side, tb, a, b, .. } => {
                let m = rows(a);
                term(2, &[m, m, m]);
                term(6, &[m, m, free(*side, *tb, b)]);
            }
            KernelOp::Posv { side, tb, a, b } => {
                let m = rows(a);
                term(1, &[m, m, m]);
                term(6, &[m, m, free(*side, *tb, b)]);
            }
            KernelOp::Diag { b, .. } => {
                let (r, c) = dims(false, b);
                term(3, &[r, c]);
            }
            KernelOp::Gemv { a, .. } => {
                let (r, c) = dims(false, a);
                term(6, &[r, c]);
            }
            KernelOp::Trmv { a, .. } | KernelOp::Trsv { a, .. } => {
                let n = rows(a);
                term(3, &[n, n]);
            }
            KernelOp::Symv { a, .. } => {
                let n = rows(a);
                term(6, &[n, n]);
            }
            KernelOp::Ger { x, y } => term(6, &[rows(x), rows(y)]),
            KernelOp::Dot { x, .. } => term(6, &[rows(x)]),
            KernelOp::Copy { .. } => {}
            KernelOp::Inv { kind, a, .. } => {
                let n = rows(a);
                match kind {
                    // GETRF + GETRI.
                    InvKind::General => term(6, &[n, n, n]),
                    // POTRF + POTRI.
                    InvKind::Spd => term(3, &[n, n, n]),
                    // TRTRI.
                    InvKind::Triangular(_) => term(1, &[n, n, n]),
                    // Reciprocal of the diagonal.
                    InvKind::Diagonal => term(3, &[n]),
                }
            }
            // GETRI on one operand (2m³) + GESV with the other
            // (2/3·m³ + 2·m³).
            KernelOp::InvPair { a, .. } => {
                let m = rows(a);
                term(14, &[m, m, m]);
            }
        }
    }
}

fn apply_t(t: bool, s: Shape) -> Shape {
    if t {
        s.transposed()
    } else {
        s
    }
}

impl<O: fmt::Display> fmt::Display for KernelOp<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn t(flag: bool) -> &'static str {
            if flag {
                "T"
            } else {
                "N"
            }
        }
        fn side(s: Side) -> &'static str {
            match s {
                Side::Left => "L",
                Side::Right => "R",
            }
        }
        fn uplo(u: Uplo) -> &'static str {
            match u {
                Uplo::Lower => "L",
                Uplo::Upper => "U",
            }
        }
        match self {
            KernelOp::Gemm { ta, tb, a, b } => {
                write!(f, "gemm('{}', '{}', {}, {})", t(*ta), t(*tb), a, b)
            }
            KernelOp::Trmm {
                side: s,
                uplo: u,
                trans,
                a,
                b,
            } => write!(
                f,
                "trmm('{}', '{}', '{}', {}, {})",
                side(*s),
                uplo(*u),
                t(*trans),
                a,
                b
            ),
            KernelOp::Symm { side: s, a, b } => {
                write!(f, "symm('{}', {}, {})", side(*s), a, b)
            }
            KernelOp::Trsm {
                side: s,
                uplo: u,
                trans,
                tb,
                a,
                b,
            } => write!(
                f,
                "trsm('{}', '{}', '{}', {}, {}{})",
                side(*s),
                uplo(*u),
                t(*trans),
                a,
                b,
                if *tb { "'" } else { "" }
            ),
            KernelOp::Syrk { trans, a } => write!(f, "syrk('{}', {})", t(*trans), a),
            KernelOp::Gesv {
                side: s,
                trans,
                tb,
                a,
                b,
            } => write!(
                f,
                "gesv('{}', '{}', {}, {}{})",
                side(*s),
                t(*trans),
                a,
                b,
                if *tb { "'" } else { "" }
            ),
            KernelOp::Posv { side: s, tb, a, b } => write!(
                f,
                "posv('{}', {}, {}{})",
                side(*s),
                a,
                b,
                if *tb { "'" } else { "" }
            ),
            KernelOp::Diag {
                side: s,
                inv,
                tb,
                d,
                b,
            } => {
                let op = if *inv { "dgsv" } else { "dgmm" };
                write!(
                    f,
                    "{}('{}', {}, {}{})",
                    op,
                    side(*s),
                    d,
                    b,
                    if *tb { "'" } else { "" }
                )
            }
            KernelOp::Gemv { trans, a, x } => write!(f, "gemv('{}', {}, {})", t(*trans), a, x),
            KernelOp::Trmv {
                uplo: u,
                trans,
                a,
                x,
            } => {
                write!(f, "trmv('{}', '{}', {}, {})", uplo(*u), t(*trans), a, x)
            }
            KernelOp::Symv { a, x } => write!(f, "symv({a}, {x})"),
            KernelOp::Trsv {
                uplo: u,
                trans,
                a,
                x,
            } => {
                write!(f, "trsv('{}', '{}', {}, {})", uplo(*u), t(*trans), a, x)
            }
            KernelOp::Ger { x, y } => write!(f, "ger({x}, {y})"),
            KernelOp::Dot { x, y } => write!(f, "dot({x}, {y})"),
            KernelOp::Copy { b } => write!(f, "copy({b})"),
            KernelOp::Inv { kind, trans, a } => {
                let k = match kind {
                    InvKind::General => "ge",
                    InvKind::Spd => "po",
                    InvKind::Triangular(Uplo::Lower) => "trl",
                    InvKind::Triangular(Uplo::Upper) => "tru",
                    InvKind::Diagonal => "di",
                };
                write!(f, "inv_{}('{}', {})", k, t(*trans), a)
            }
            KernelOp::InvPair { ta, tb, a, b } => {
                write!(f, "invpair('{}', '{}', {}, {})", t(*ta), t(*tb), a, b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(name: &str, r: usize, c: usize) -> Operand {
        Operand::matrix(name, r, c)
    }

    #[test]
    fn gemm_flops_paper_convention() {
        // A: n×k, B: k×m → 2mnk (Sec. 2 footnote).
        let k = KernelOp::Gemm {
            ta: false,
            tb: false,
            a: op("A", 20, 30),
            b: op("B", 30, 40),
        };
        assert_eq!(k.flops(), 2.0 * 20.0 * 40.0 * 30.0);
        assert_eq!(k.result_shape(), Shape::new(20, 40));
    }

    #[test]
    fn gemm_transposed_shapes() {
        let k = KernelOp::Gemm {
            ta: true,
            tb: false,
            a: op("A", 30, 20),
            b: op("B", 30, 40),
        };
        assert_eq!(k.result_shape(), Shape::new(20, 40));
        assert_eq!(k.flops(), 2.0 * 20.0 * 40.0 * 30.0);
    }

    #[test]
    fn trmm_half_of_gemm() {
        let tri = Operand::square("L", 20);
        let k = KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: false,
            a: tri,
            b: op("B", 20, 40),
        };
        assert_eq!(k.flops(), 20.0 * 20.0 * 40.0);
    }

    #[test]
    fn trmm_right_side_dims() {
        let tri = Operand::square("L", 40);
        let k = KernelOp::Trmm {
            side: Side::Right,
            uplo: Uplo::Lower,
            trans: false,
            a: tri,
            b: op("B", 20, 40),
        };
        // m = 40 (triangular dim), n = 20.
        assert_eq!(k.flops(), 40.0 * 40.0 * 20.0);
        assert_eq!(k.result_shape(), Shape::new(20, 40));
    }

    #[test]
    fn syrk_paper_cost() {
        // SYRK on AᵀA with A k×m: m²k (Table 1).
        let a = op("A", 30, 20);
        let k = KernelOp::Syrk { trans: true, a };
        assert_eq!(k.flops(), 20.0 * 20.0 * 30.0);
        assert_eq!(k.result_shape(), Shape::square(20));
    }

    #[test]
    fn solver_costs() {
        let a = Operand::square("A", 10);
        let b = op("B", 10, 4);
        let gesv = KernelOp::Gesv {
            side: Side::Left,
            trans: false,
            tb: false,
            a: a.clone(),
            b: b.clone(),
        };
        let posv = KernelOp::Posv {
            side: Side::Left,
            tb: false,
            a: a.clone(),
            b: b.clone(),
        };
        assert!(gesv.flop_count() > posv.flop_count());
        // 2/3·m³ + 2m²n and 1/3·m³ + 2m²n, exactly in thirds, rounded
        // once.
        assert_eq!(gesv.flop_count(), Flops::from_thirds(2 * 1000 + 6 * 400));
        assert_eq!(posv.flop_count(), Flops::from_thirds(1000 + 6 * 400));
        assert_eq!(gesv.flops(), 4400.0 / 3.0);
        assert_eq!(posv.flops(), 3400.0 / 3.0);
    }

    #[test]
    fn vector_kernel_costs() {
        let a = op("A", 10, 20);
        let x = Operand::col_vector("x", 20);
        let gemv = KernelOp::Gemv {
            trans: false,
            a,
            x: x.clone(),
        };
        assert_eq!(gemv.flops(), 2.0 * 10.0 * 20.0);
        assert_eq!(gemv.result_shape(), Shape::col_vector(10));

        let y = Operand::col_vector("y", 10);
        let ger = KernelOp::Ger {
            x: Operand::col_vector("x", 20),
            y,
        };
        assert_eq!(ger.flops(), 2.0 * 20.0 * 10.0);
        assert_eq!(ger.result_shape(), Shape::new(20, 10));

        let dot = KernelOp::Dot {
            x: Operand::col_vector("x", 20),
            y: Operand::col_vector("y", 20),
        };
        assert_eq!(dot.flops(), 40.0);
        assert_eq!(dot.result_shape(), Shape::new(1, 1));
    }

    #[test]
    fn display_forms() {
        let k = KernelOp::Trsm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: true,
            tb: false,
            a: Operand::square("L", 4),
            b: op("B", 4, 2),
        };
        assert_eq!(k.to_string(), "trsm('L', 'L', 'T', L, B)");
        let k = KernelOp::Dot {
            x: Operand::col_vector("x", 3),
            y: Operand::col_vector("y", 3),
        };
        assert_eq!(k.to_string(), "dot(x, y)");
    }

    #[test]
    fn operands_listed() {
        let k = KernelOp::Symm {
            side: Side::Left,
            a: Operand::square("S", 4),
            b: op("B", 4, 2),
        };
        let names: Vec<_> = k.operands().iter().map(|o| o.name()).collect();
        assert_eq!(names, vec!["S", "B"]);
    }
}
