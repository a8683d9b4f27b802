//! Multivariate cost polynomials over dimension variables.
//!
//! Symbolic FLOP counts are represented as [`CostPoly`]: a sum of
//! monomials in the chain's [`DimVar`]s with *exact* coefficients. Every
//! kernel FLOP formula has coefficients in `ℤ/3` (GESV 2/3, POSV and
//! TRTRI 1/3, the inverse pair 14/3), so a coefficient is an `i128`
//! count of *thirds*, and all arithmetic on it is checked: no verdict
//! depends on rounding or on summation order.
//!
//! A monomial is packed into a fixed-size `Copy` key of at most
//! [`MAX_DEGREE`] variable slots, and the terms live in one sorted
//! `Vec`. A polynomial outside that form — a coefficient that overflows
//! `i128` (huge constant dimensions) or a monomial above the degree cap
//! — is *unrepresentable*: every dominance query that involves it
//! answers `false`, so the symbolic optimizer defers the decision to
//! bind time, which is always correct.
//!
//! The GMC recurrence only needs addition and comparison of costs; for
//! polynomials the comparison is a *partial* order, decided by dominance
//! on the positive orthant: `p ≤ q` for all dimension assignments `≥ 1`
//! whenever `q − p`, re-expanded around the point `(1, …, 1)`
//! (substituting `v → 1 + v'` for every variable), has only
//! non-negative coefficients. Splits whose cost polynomials are not
//! comparable under this order are *deferred* by the symbolic optimizer
//! and decided at bind time.

use crate::dim::{Dim, DimVar};
use std::cmp::Reverse;
use std::fmt;

/// The highest total degree of a representable monomial. Every kernel
/// FLOP formula has degree ≤ 3, and sums never raise the degree.
pub const MAX_DEGREE: usize = 3;

/// The padding of an unused [`Monomial`] slot; it sorts after every
/// variable id.
const EMPTY: u32 = u32::MAX;

/// A monomial packed into a fixed-size key: one variable id per unit of
/// degree, ascending, padded with [`EMPTY`] — `m·n²` is `[m, n, n]`, and
/// the constant monomial is all padding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Monomial([u32; MAX_DEGREE]);

impl Monomial {
    const ONE: Monomial = Monomial([EMPTY; MAX_DEGREE]);

    fn vars(&self) -> &[u32] {
        let degree = self.0.iter().take_while(|&&v| v != EMPTY).count();
        &self.0[..degree]
    }

    /// The sub-monomial of every subset of the variable slots. A
    /// sub-monomial `∏v^e'` of `∏v^e` comes out `∏C(e, e')` times — once
    /// per way of picking its slots — which is exactly its coefficient
    /// in the expansion of `∏(1 + v)^e`.
    fn submonomials(self) -> impl Iterator<Item = Monomial> {
        let degree = self.vars().len();
        (0..1u32 << degree).map(move |mask| {
            let mut out = Monomial::ONE;
            let mut len = 0;
            for (slot, &v) in self.0[..degree].iter().enumerate() {
                if mask & (1 << slot) != 0 {
                    out.0[len] = v;
                    len += 1;
                }
            }
            out
        })
    }
}

/// A monomial and its coefficient, in thirds.
type Term = (Monomial, i128);

/// A multivariate polynomial cost in the dimension variables, with exact
/// coefficients counted in thirds.
///
/// # Example
///
/// ```
/// use gmc_expr::{CostPoly, Dim, DimBindings};
///
/// let (n, m) = (Dim::var("n"), Dim::var("m"));
/// // 2·n·m + n², coefficients given in thirds.
/// let p = CostPoly::monomial(6, &[n, m]).add(&CostPoly::monomial(3, &[n, n]));
/// let b = DimBindings::new().with("n", 3).with("m", 4);
/// assert_eq!(p.eval_thirds(|v| b.get(v)), Some(99));
/// let (n2, m2) = (CostPoly::monomial(3, &[n, n]), CostPoly::monomial(3, &[m, m]));
/// // n² + 2nm dominates n² on the positive orthant…
/// assert!(n2.dominated_by(&p));
/// // …but n² and m² are incomparable.
/// assert!(!n2.dominated_by(&m2));
/// assert!(!m2.dominated_by(&n2));
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct CostPoly {
    /// Sorted by monomial, without zero coefficients. Empty when the
    /// polynomial is unrepresentable.
    terms: Vec<Term>,
    unrepresentable: bool,
}

impl CostPoly {
    /// The zero polynomial.
    pub fn zero() -> CostPoly {
        CostPoly::default()
    }

    fn unrepresentable() -> CostPoly {
        CostPoly {
            terms: Vec::new(),
            unrepresentable: true,
        }
    }

    /// The single term `thirds/3 · ∏ dims`. Constant dimensions fold
    /// into the coefficient and variables into the monomial, so
    /// `monomial(t, &[])` is the constant `t/3`.
    ///
    /// The result is unrepresentable when the coefficient overflows
    /// `i128` or more than [`MAX_DEGREE`] of the dimensions are
    /// variables.
    pub fn monomial(thirds: i128, dims: &[Dim]) -> CostPoly {
        let mut coeff = Some(thirds);
        let mut key = Monomial::ONE;
        let mut degree = 0;
        for d in dims {
            match *d {
                Dim::Const(v) => coeff = coeff.and_then(|c| c.checked_mul(v as i128)),
                Dim::Var(v) if degree < MAX_DEGREE => {
                    key.0[degree] = v.0;
                    degree += 1;
                }
                Dim::Var(_) => return CostPoly::unrepresentable(),
            }
        }
        match coeff {
            None => CostPoly::unrepresentable(),
            Some(0) => CostPoly::zero(),
            Some(c) => {
                key.0.sort_unstable();
                CostPoly {
                    terms: vec![(key, c)],
                    unrepresentable: false,
                }
            }
        }
    }

    /// Whether the polynomial is identically zero.
    pub fn is_zero(&self) -> bool {
        !self.unrepresentable && self.terms.is_empty()
    }

    /// Whether the polynomial fits the packed exact form (see the
    /// module docs).
    pub fn is_representable(&self) -> bool {
        !self.unrepresentable
    }

    /// The total degree of the polynomial (0 for constants, zero and
    /// unrepresentable polynomials).
    pub fn degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.vars().len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// Sum of two polynomials.
    #[must_use]
    pub fn add(&self, other: &CostPoly) -> CostPoly {
        self.combine(other, i128::checked_add)
    }

    /// Difference `self − other`.
    #[must_use]
    pub fn sub(&self, other: &CostPoly) -> CostPoly {
        self.combine(other, i128::checked_sub)
    }

    fn combine(&self, other: &CostPoly, op: impl Fn(i128, i128) -> Option<i128>) -> CostPoly {
        if self.unrepresentable || other.unrepresentable {
            return CostPoly::unrepresentable();
        }
        match merge_terms(&self.terms, &other.terms, op) {
            Some(terms) => CostPoly {
                terms,
                unrepresentable: false,
            },
            None => CostPoly::unrepresentable(),
        }
    }

    /// The exact value in thirds with each variable `v` at `size(v)`.
    /// `None` when the polynomial is unrepresentable, `size` has no
    /// value for a variable, or the value overflows `i128`. A kernel's
    /// FLOP polynomial evaluates to exactly its FLOP count over the
    /// bound operands. Under [`DimBindings`](crate::DimBindings), `size` is
    /// `|v| bindings.get(v)`; a plan cache hit reads each variable from
    /// its boundary position in the bound chain instead.
    pub fn eval_thirds(&self, size: impl Fn(DimVar) -> Option<usize>) -> Option<i128> {
        if self.unrepresentable {
            return None;
        }
        let mut sum = 0i128;
        for (m, c) in &self.terms {
            // The slots are sorted, so each variable is looked up once
            // per run of equal slots.
            let mut product = 1u128;
            let (mut seen, mut value) = (EMPTY, 0u128);
            for &id in &m.0 {
                if id == EMPTY {
                    break;
                }
                if id != seen {
                    (seen, value) = (id, size(DimVar(id))? as u128);
                }
                product = product.checked_mul(value)?;
            }
            sum = sum.checked_add(c.checked_mul(i128::try_from(product).ok()?)?)?;
        }
        Some(sum)
    }

    /// Whether `self ≤ other` for every assignment of values `≥ 1` to
    /// the variables (dominance on the positive orthant).
    ///
    /// Decided by a sufficient criterion that is exact for the FLOP
    /// polynomials arising here: expand `other − self` around the point
    /// `(1, …, 1)` (substitute `v → 1 + v'`); if every coefficient of
    /// the shifted polynomial is non-negative, the difference is
    /// non-negative and monotone for all `v ≥ 1`. Always `false` when
    /// either polynomial is unrepresentable.
    pub fn dominated_by(&self, other: &CostPoly) -> bool {
        self.shifted_gap(other).is_some()
    }

    /// Whether `self ≤ other` everywhere *and* `self < other` for every
    /// assignment `≥ 1` (the shifted difference has a strictly positive
    /// constant term, its minimum over the orthant).
    pub fn strictly_dominated_by(&self, other: &CostPoly) -> bool {
        self.shifted_gap(other) == Some(true)
    }

    /// One pass over `d = other − self`: substituting `v → 1 + v'` maps
    /// a term `c·∏v^e` to `Σ_{e' ≤ e} c·∏C(e, e')·∏v'^e'`, so each term
    /// adds `c` to the sub-monomial of every subset of its slots, and
    /// sorting and merging those contributions yields the shifted
    /// polynomial without building it term by term.
    ///
    /// `None` unless every shifted coefficient is `≥ 0` (or when
    /// anything overflows); otherwise whether the shifted constant term
    /// — `d(1, …, 1)`, the minimum of `d` on the orthant — is positive.
    fn shifted_gap(&self, other: &CostPoly) -> Option<bool> {
        if self.unrepresentable || other.unrepresentable {
            return None;
        }
        let diff = merge_terms(&other.terms, &self.terms, i128::checked_sub)?;
        let at_one = sum_coefficients(&diff)?;
        // The binomials are positive, so a difference without negative
        // coefficients stays non-negative after the shift.
        if diff.iter().any(|&(_, c)| c < 0) {
            let mut shifted: Vec<Term> = diff
                .iter()
                .flat_map(|&(m, c)| m.submonomials().map(move |s| (s, c)))
                .collect();
            shifted.sort_unstable_by_key(|&(m, _)| m);
            for run in shifted.chunk_by(|a, b| a.0 == b.0) {
                if sum_coefficients(run)? < 0 {
                    return None;
                }
            }
        }
        Some(at_one > 0)
    }
}

fn sum_coefficients(terms: &[Term]) -> Option<i128> {
    terms
        .iter()
        .try_fold(0i128, |sum, &(_, c)| sum.checked_add(c))
}

/// Merges the sorted term lists `a` and `b`, combining the coefficients
/// of each monomial with `op` (a missing term counts as 0) and dropping
/// zeros. `None` when `op` overflows.
fn merge_terms(
    a: &[Term],
    b: &[Term],
    op: impl Fn(i128, i128) -> Option<i128>,
) -> Option<Vec<Term>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (m, x, y) = match (a.get(i), b.get(j)) {
            (Some(&(ma, ca)), Some(&(mb, cb))) if ma == mb => {
                i += 1;
                j += 1;
                (ma, ca, cb)
            }
            (Some(&(ma, ca)), Some(&(mb, _))) if ma < mb => {
                i += 1;
                (ma, ca, 0)
            }
            (Some(&(ma, ca)), None) => {
                i += 1;
                (ma, ca, 0)
            }
            (_, Some(&(mb, cb))) => {
                j += 1;
                (mb, 0, cb)
            }
            (None, None) => unreachable!("loop condition"),
        };
        let c = op(x, y)?;
        if c != 0 {
            out.push((m, c));
        }
    }
    Some(out)
}

/// Terms by variable name, so the rendering does not depend on the
/// order in which the process interned its variables.
impl fmt::Debug for CostPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unrepresentable {
            return f.write_str("CostPoly(unrepresentable)");
        }
        let mut terms: Vec<(Vec<&str>, i128)> = self
            .terms
            .iter()
            .map(|(m, c)| (m.vars().iter().map(|&id| DimVar(id).name()).collect(), *c))
            .collect();
        terms.sort_unstable();
        f.debug_map().entries(terms).finish()
    }
}

impl fmt::Display for CostPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unrepresentable {
            return write!(f, "<unrepresentable>");
        }
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        // Highest-degree terms first reads like big-O notation.
        let mut terms: Vec<&Term> = self.terms.iter().collect();
        terms.sort_by_key(|(m, _)| (Reverse(m.vars().len()), *m));
        for (i, (m, c)) in terms.into_iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            let vars = m.vars();
            if vars.is_empty() || *c != 3 {
                if c % 3 == 0 {
                    write!(f, "{}", c / 3)?;
                } else {
                    write!(f, "{c}/3")?;
                }
                if !vars.is_empty() {
                    write!(f, " ")?;
                }
            }
            for (j, run) in vars.chunk_by(|a, b| a == b).enumerate() {
                if j > 0 {
                    write!(f, " ")?;
                }
                let v = DimVar(run[0]);
                if run.len() == 1 {
                    write!(f, "{v}")?;
                } else {
                    write!(f, "{v}^{}", run.len())?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimBindings;

    fn t(thirds: i128, names: &[&str]) -> CostPoly {
        let dims: Vec<Dim> = names.iter().map(|n| Dim::var(n)).collect();
        CostPoly::monomial(thirds, &dims)
    }

    #[test]
    fn arithmetic_and_eval() {
        // (n + m)·n = n² + nm
        let p = t(3, &["pn", "pn"]).add(&t(3, &["pm", "pn"]));
        let b = DimBindings::new().with("pn", 2).with("pm", 5);
        assert_eq!(p.eval_thirds(|v| b.get(v)), Some(42));
        assert_eq!(p.eval_thirds(|_| None), None);
        assert_eq!(p.degree(), 2);
        assert_eq!(p.sub(&p), CostPoly::zero());
        assert!(p.sub(&p).is_zero());
    }

    #[test]
    fn thirds_are_exact() {
        // GESV − POSV − TRTRI on the same m: 2/3 m³ + 2m²n − (1/3 m³ +
        // 2m²n) − 1/3 m³ is exactly zero, whatever the summation order.
        let gesv = t(2, &["pm", "pm", "pm"]).add(&t(6, &["pm", "pm", "pn"]));
        let posv = t(1, &["pm", "pm", "pm"]).add(&t(6, &["pm", "pm", "pn"]));
        let trtri = t(1, &["pm", "pm", "pm"]);
        assert!(gesv.sub(&posv).sub(&trtri).is_zero());
        assert!(posv.add(&trtri).dominated_by(&gesv));
        assert!(gesv.dominated_by(&posv.add(&trtri)));
        assert!(!gesv.strictly_dominated_by(&posv.add(&trtri)));
        assert_eq!(t(14, &["pm", "pm", "pm"]).to_string(), "14/3 pm^3");
    }

    #[test]
    fn dominance_with_mixed_signs_in_raw_basis() {
        // m²·n − m·n has a negative raw coefficient but is non-negative
        // for m, n ≥ 1: the shifted expansion certifies it.
        let big = t(3, &["pm", "pm", "pn"]);
        let small = t(3, &["pm", "pn"]);
        assert!(small.dominated_by(&big));
        assert!(!big.dominated_by(&small));
    }

    #[test]
    fn incomparable_polynomials() {
        let n = t(3, &["pn"]);
        let m = t(3, &["pm"]);
        assert!(!n.dominated_by(&m));
        assert!(!m.dominated_by(&n));
        // 2mn vs m² + n²: by AM–GM m²+n² ≥ 2mn, and the criterion
        // certifies it is NOT decidable coefficient-wise (it requires
        // the square completion), so dominance conservatively fails.
        let p = t(6, &["pm", "pn"]);
        let q = t(3, &["pm", "pm"]).add(&t(3, &["pn", "pn"]));
        assert!(!p.dominated_by(&q));
    }

    #[test]
    fn strict_dominance_needs_positive_gap_at_one() {
        let n = t(3, &["pn"]);
        let n2 = t(3, &["pn", "pn"]);
        // n ≤ n²: equality at n = 1, so not strict.
        assert!(n.dominated_by(&n2));
        assert!(!n.strictly_dominated_by(&n2));
        // n + 1 strictly dominates n… in the other direction.
        let n_plus = n.add(&CostPoly::monomial(3, &[]));
        assert!(n.strictly_dominated_by(&n_plus));
    }

    #[test]
    fn reflexive_dominance() {
        let p = t(6, &["pn", "pm"]);
        assert!(p.dominated_by(&p));
        assert!(!p.strictly_dominated_by(&p));
    }

    #[test]
    fn display_is_readable() {
        let p = t(6, &["pn", "pn", "pm"]).add(&CostPoly::monomial(9, &[]));
        let s = p.to_string();
        assert!(s.contains("pn^2"), "{s}");
        assert!(s.ends_with(" + 3"), "{s}");
        assert_eq!(CostPoly::zero().to_string(), "0");
        assert_eq!(CostPoly::monomial(1, &[]).to_string(), "1/3");
    }

    #[test]
    fn constants_fold() {
        let p = CostPoly::monomial(3, &[Dim::Const(4), Dim::Const(5)]);
        assert_eq!(p, CostPoly::monomial(60, &[]));
        assert_eq!(p.eval_thirds(|_| None), Some(60));
    }

    #[test]
    fn huge_constants_are_unrepresentable_not_wrapped() {
        let max = Dim::Const(usize::MAX);
        let n = Dim::var("pn");
        // 3·MAX² overflows i128: no wrapped coefficient, no panic, and
        // no dominance verdict in either direction.
        let huge = CostPoly::monomial(3, &[max, max, n]);
        assert!(!huge.is_representable());
        let small = CostPoly::monomial(3, &[n]);
        for (a, b) in [(&huge, &small), (&small, &huge), (&huge, &huge)] {
            assert!(!a.dominated_by(b));
            assert!(!a.strictly_dominated_by(b));
        }
        // Overflow also poisons sums, and a product above the degree cap
        // is unrepresentable too.
        assert!(!small.add(&huge).is_representable());
        assert_eq!(huge.eval_thirds(|_| Some(1)), None);
        let near = CostPoly::monomial(i128::MAX / 2 + 1, &[n]);
        assert!(near.is_representable());
        assert!(!near.add(&near).is_representable());
        // `near − low` overflows inside the dominance test: the true
        // verdict is "dominated", the answer is the safe `false`.
        let low = CostPoly::monomial(i128::MIN / 2 - 1, &[n]);
        assert!(!low.dominated_by(&near));
        assert!(!CostPoly::monomial(3, &[n, n, n, n]).is_representable());
        // Constants near usize::MAX that fit are compared exactly, where
        // f64 rounds MAX and MAX − 1 to the same value.
        let a = CostPoly::monomial(3, &[max, n]);
        let b = CostPoly::monomial(3, &[Dim::Const(usize::MAX - 1), n]);
        assert!(a.is_representable());
        assert!(b.strictly_dominated_by(&a));
        assert!(!a.dominated_by(&b));
    }
}
