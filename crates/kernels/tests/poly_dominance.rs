//! Dominance verdicts of the packed exact `CostPoly` against a slow
//! exact reference, on random sums of kernel FLOP formulas.
//!
//! The reference re-expands `q − p` around `(1, …, 1)` by repeated
//! polynomial multiplication with `(1 + v)`, on integer coefficients
//! counting thirds — the textbook construction the one-pass sum in
//! `CostPoly` replaces.

use gmc_expr::{CostPoly, Dim, DimBindings, DimVar, SymShape};
use gmc_kernels::{InvKind, KernelOp, Side, Uplo};
use proptest::prelude::*;
use std::collections::BTreeMap;

const VARS: [&str; 3] = ["pd_a", "pd_b", "pd_c"];
const CONSTS: [usize; 4] = [1, 2, 3, 5];

/// A monomial as sorted `(variable, exponent)` pairs.
type RefMonomial = Vec<(DimVar, u32)>;

/// A polynomial with integer coefficients counting thirds.
#[derive(Clone, Debug, Default, PartialEq)]
struct RefPoly(BTreeMap<RefMonomial, i128>);

impl RefPoly {
    fn constant(c: i128) -> RefPoly {
        let mut p = RefPoly::default();
        if c != 0 {
            p.0.insert(Vec::new(), c);
        }
        p
    }

    fn var(v: DimVar) -> RefPoly {
        RefPoly(BTreeMap::from([(vec![(v, 1)], 1)]))
    }

    fn dim(d: Dim) -> RefPoly {
        match d {
            Dim::Const(c) => RefPoly::constant(c as i128),
            Dim::Var(v) => RefPoly::var(v),
        }
    }

    fn add(&self, other: &RefPoly) -> RefPoly {
        let mut out = self.clone();
        for (m, c) in &other.0 {
            *out.0.entry(m.clone()).or_insert(0) += c;
        }
        out.0.retain(|_, c| *c != 0);
        out
    }

    fn neg(&self) -> RefPoly {
        RefPoly(self.0.iter().map(|(m, c)| (m.clone(), -c)).collect())
    }

    fn mul(&self, other: &RefPoly) -> RefPoly {
        let mut out = RefPoly::default();
        for (ma, ca) in &self.0 {
            for (mb, cb) in &other.0 {
                let mut m: BTreeMap<DimVar, u32> = BTreeMap::new();
                for (v, e) in ma.iter().chain(mb) {
                    *m.entry(*v).or_insert(0) += e;
                }
                *out.0.entry(m.into_iter().collect()).or_insert(0) += ca * cb;
            }
        }
        out.0.retain(|_, c| *c != 0);
        out
    }

    /// `thirds/3 · ∏ dims`, as the product of its factors.
    fn term(thirds: i128, dims: &[Dim]) -> RefPoly {
        dims.iter().fold(RefPoly::constant(thirds), |acc, d| {
            acc.mul(&RefPoly::dim(*d))
        })
    }

    /// Re-expands in `v' = v − 1`: every `v^e` becomes `(1 + v')^e`,
    /// multiplied out one factor at a time.
    fn shifted(&self) -> RefPoly {
        let mut out = RefPoly::default();
        for (m, c) in &self.0 {
            let mut term = RefPoly::constant(*c);
            for (v, e) in m {
                let one_plus = RefPoly::constant(1).add(&RefPoly::var(*v));
                for _ in 0..*e {
                    term = term.mul(&one_plus);
                }
            }
            out = out.add(&term);
        }
        out
    }

    /// `(dominated, strictly dominated)` of `self` by `other`.
    fn verdicts(&self, other: &RefPoly) -> (bool, bool) {
        let shifted = other.add(&self.neg()).shifted();
        let nonneg = shifted.0.values().all(|c| *c >= 0);
        let constant = shifted.0.get(&Vec::new()).copied().unwrap_or(0);
        (nonneg, nonneg && constant > 0)
    }

    /// The exact value, in thirds.
    fn eval(&self, at: &BTreeMap<DimVar, i128>) -> i128 {
        self.0
            .iter()
            .map(|(m, c)| m.iter().fold(*c, |acc, (v, e)| acc * at[v].pow(*e)))
            .sum()
    }
}

/// The reference polynomial of `op`: its FLOP terms multiplied out
/// factor by factor (coefficients in thirds).
fn reference(op: &KernelOp<SymShape>) -> RefPoly {
    let mut out = RefPoly::default();
    op.flop_terms(
        |s| *s,
        |thirds, dims| {
            out = out.add(&RefPoly::term(i128::from(thirds), dims));
        },
    );
    out
}

fn dim(i: u8) -> Dim {
    let i = usize::from(i);
    if i < VARS.len() {
        Dim::var(VARS[i])
    } else {
        Dim::Const(CONSTS[i - VARS.len()])
    }
}

/// A kernel operation over symbolic shapes from a variant index and
/// three dimension indices: every kernel family, and every explicit
/// inverse.
fn formula((variant, a, b, c): (u8, u8, u8, u8)) -> KernelOp<SymShape> {
    let (m, k, n) = (dim(a), dim(b), dim(c));
    let (sq_m, sq_n, mn) = (
        SymShape::square(m),
        SymShape::square(n),
        SymShape::new(m, n),
    );
    let inv = |kind| KernelOp::Inv {
        kind,
        trans: false,
        a: sq_n,
    };
    match variant {
        0 => KernelOp::Gemm {
            ta: false,
            tb: false,
            a: SymShape::new(m, k),
            b: SymShape::new(k, n),
        },
        1 => KernelOp::Trmm {
            side: Side::Left,
            uplo: Uplo::Lower,
            trans: false,
            a: sq_m,
            b: mn,
        },
        2 => KernelOp::Syrk {
            trans: true,
            a: SymShape::new(k, m),
        },
        3 => KernelOp::Gesv {
            side: Side::Left,
            trans: false,
            tb: false,
            a: sq_m,
            b: mn,
        },
        4 => KernelOp::Posv {
            side: Side::Left,
            tb: false,
            a: sq_m,
            b: mn,
        },
        5 => KernelOp::Diag {
            side: Side::Left,
            inv: false,
            tb: false,
            d: sq_m,
            b: mn,
        },
        6 => KernelOp::Gemv {
            trans: false,
            a: mn,
            x: SymShape::new(n, Dim::Const(1)),
        },
        7 => KernelOp::Trmv {
            uplo: Uplo::Lower,
            trans: false,
            a: sq_n,
            x: sq_n,
        },
        8 => KernelOp::Symv { a: sq_n, x: sq_n },
        9 => KernelOp::Dot {
            x: SymShape::new(n, Dim::Const(1)),
            y: SymShape::new(n, Dim::Const(1)),
        },
        10 => KernelOp::Copy { b: mn },
        11 => inv(InvKind::General),
        12 => inv(InvKind::Spd),
        13 => inv(InvKind::Triangular(Uplo::Lower)),
        14 => inv(InvKind::Diagonal),
        _ => KernelOp::InvPair {
            ta: false,
            tb: false,
            a: sq_m,
            b: sq_m,
        },
    }
}

fn formula_strategy() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    let d = 0u8..(VARS.len() + CONSTS.len()) as u8;
    (0u8..16, d.clone(), d.clone(), d)
}

/// The packed and the reference polynomial of a sum of formulas.
fn sum(formulas: &[(u8, u8, u8, u8)]) -> (CostPoly, RefPoly) {
    formulas
        .iter()
        .map(|f| formula(*f))
        .fold((CostPoly::zero(), RefPoly::default()), |(p, r), f| {
            (p.add(&f.flop_poly(|s| *s)), r.add(&reference(&f)))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]
    /// `dominated_by` and `strictly_dominated_by` agree with the
    /// reference expansion on random sums of kernel formulas. Half the
    /// cases compare `p` with `p + extra`, where dominance often holds,
    /// the rest with an independent sum; a true verdict is then checked
    /// pointwise at random assignments `≥ 1`.
    #[test]
    fn packed_dominance_matches_reference(
        p_terms in prop::collection::vec(formula_strategy(), 1..5),
        q_terms in prop::collection::vec(formula_strategy(), 1..5),
        extend in any::<bool>(),
        points in prop::collection::vec((1u8..40, 1u8..40, 1u8..40), 4..5),
    ) {
        let q_terms = if extend {
            p_terms.iter().chain(&q_terms).copied().collect()
        } else {
            q_terms
        };
        let ((p, rp), (q, rq)) = (sum(&p_terms), sum(&q_terms));
        for (a, b, ra, rb) in [(&p, &q, &rp, &rq), (&q, &p, &rq, &rp), (&p, &p, &rp, &rp)] {
            let (dominated, strict) = ra.verdicts(rb);
            prop_assert_eq!(a.dominated_by(b), dominated, "{} vs {}", a, b);
            prop_assert_eq!(a.strictly_dominated_by(b), strict, "{} vs {}", a, b);
            for &(x, y, z) in &points {
                let at: BTreeMap<DimVar, i128> = VARS
                    .iter()
                    .zip([x, y, z])
                    .map(|(v, x)| (DimVar::new(v), i128::from(x)))
                    .collect();
                let (va, vb) = (ra.eval(&at), rb.eval(&at));
                if dominated {
                    prop_assert!(va <= vb, "{} ≰ {} at {:?}", a, b, at);
                }
                if strict {
                    prop_assert!(va < vb, "{} ≮ {} at {:?}", a, b, at);
                }
                let bindings = VARS
                    .iter()
                    .zip([x, y, z])
                    .fold(DimBindings::new(), |bs, (v, x)| bs.with(v, usize::from(x)));
                prop_assert_eq!(a.eval_thirds(|v| bindings.get(v)), Some(va));
            }
        }
    }
}

#[test]
fn huge_constant_formulas_answer_false() {
    let max = Dim::Const(usize::MAX);
    let n = Dim::var("pd_a");
    // 6·MAX²·n overflows `i128`; GEMM at one huge constant still fits.
    let gemm = |m, k| {
        KernelOp::Gemm {
            ta: false,
            tb: false,
            a: SymShape::new(m, k),
            b: SymShape::new(k, n),
        }
        .flop_poly(|s| *s)
    };
    let huge = gemm(max, max);
    let fits = gemm(max, Dim::Const(1));
    assert!(!huge.is_representable());
    assert!(fits.is_representable());
    for (a, b) in [(&huge, &fits), (&fits, &huge), (&huge, &huge)] {
        assert!(!a.dominated_by(b));
        assert!(!a.strictly_dominated_by(b));
    }
    assert!(fits.dominated_by(&fits));
}
