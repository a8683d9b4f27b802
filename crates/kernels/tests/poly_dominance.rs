//! Dominance verdicts of the packed exact `CostPoly` against a slow
//! exact reference, on random sums of kernel FLOP formulas.
//!
//! The reference re-expands `q − p` around `(1, …, 1)` by repeated
//! polynomial multiplication with `(1 + v)`, on integer coefficients
//! counting thirds — the textbook construction the one-pass sum in
//! `CostPoly` replaces.

use gmc_expr::{CostPoly, Dim, DimBindings, DimVar};
use gmc_kernels::{FlopFormula, InvKind, Uplo};
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

/// The reference polynomial of `f`, mirroring the formulas in
/// `FlopFormula`'s docs (coefficients in thirds).
fn reference(f: &FlopFormula) -> RefPoly {
    let t = RefPoly::term;
    match *f {
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
        FlopFormula::Zero => RefPoly::default(),
        FlopFormula::Inv { kind, n } => match kind {
            InvKind::General => t(6, &[n, n, n]),
            InvKind::Spd => t(3, &[n, n, n]),
            InvKind::Triangular(_) => t(1, &[n, n, n]),
            InvKind::Diagonal => t(3, &[n]),
        },
        FlopFormula::InvPair { m } => t(14, &[m, m, m]),
    }
}

fn dim(i: u8) -> Dim {
    let i = usize::from(i);
    if i < VARS.len() {
        Dim::var(VARS[i])
    } else {
        Dim::Const(CONSTS[i - VARS.len()])
    }
}

/// A kernel formula from a variant index and three dimension indices.
fn formula((variant, a, b, c): (u8, u8, u8, u8)) -> FlopFormula {
    let (m, k, n) = (dim(a), dim(b), dim(c));
    match variant {
        0 => FlopFormula::Gemm { m, k, n },
        1 => FlopFormula::Level3 { m, n },
        2 => FlopFormula::Syrk { m, k },
        3 => FlopFormula::Gesv { m, n },
        4 => FlopFormula::Posv { m, n },
        5 => FlopFormula::EntryCount { r: m, c: n },
        6 => FlopFormula::TwiceEntryCount { r: m, c: n },
        7 => FlopFormula::SquareN { n },
        8 => FlopFormula::TwiceSquareN { n },
        9 => FlopFormula::TwiceN { n },
        10 => FlopFormula::Zero,
        11 => FlopFormula::Inv {
            kind: InvKind::General,
            n,
        },
        12 => FlopFormula::Inv {
            kind: InvKind::Spd,
            n,
        },
        13 => FlopFormula::Inv {
            kind: InvKind::Triangular(Uplo::Lower),
            n,
        },
        14 => FlopFormula::Inv {
            kind: InvKind::Diagonal,
            n,
        },
        _ => FlopFormula::InvPair { m },
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
            (p.add(&f.poly()), r.add(&reference(&f)))
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
                prop_assert_eq!(a.eval(&bindings).unwrap(), va as f64 / 3.0);
            }
        }
    }
}

#[test]
fn huge_constant_formulas_answer_false() {
    let max = Dim::Const(usize::MAX);
    let n = Dim::var("pd_a");
    // 6·MAX²·n overflows `i128`; GEMM at one huge constant still fits.
    let huge = FlopFormula::Gemm { m: max, k: max, n }.poly();
    let fits = FlopFormula::Gemm {
        m: max,
        k: Dim::Const(1),
        n,
    }
    .poly();
    assert!(!huge.is_representable());
    assert!(fits.is_representable());
    for (a, b) in [(&huge, &fits), (&fits, &huge), (&huge, &huge)] {
        assert!(!a.dominated_by(b));
        assert!(!a.strictly_dominated_by(b));
    }
    assert!(fits.dominated_by(&fits));
}
