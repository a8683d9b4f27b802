//! Exact FLOP counts.
//!
//! Paper Table 1 costs carry thirds (GESV `2/3·m³`, POSV and TRTRI
//! `1/3·m³`), so every kernel's count is an integer number of *thirds*
//! of a FLOP. [`Flops`] holds that integer in a `u128`: sums and
//! comparisons are exact, so two costs that are equal as numbers are
//! equal on every path that compares them, whatever the summation order.
//! Within the admitted sizes (every dimension at most
//! [`MAX_DIM`](gmc_expr::MAX_DIM) = 2^32) one kernel costs under 2^100
//! thirds, so a `u128` holds the total of any chain of up to 2^27
//! factors. A count reaches `f64` once, rounded to nearest, in
//! [`Flops::to_f64`].

use std::iter::Sum;
use std::ops::Add;

/// An exact FLOP count, in thirds of a FLOP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Flops(u128);

impl Flops {
    /// No FLOPs.
    pub const ZERO: Flops = Flops(0);

    /// The count of `thirds` thirds of a FLOP.
    pub const fn from_thirds(thirds: u128) -> Flops {
        Flops(thirds)
    }

    /// The count in thirds of a FLOP.
    pub const fn thirds(self) -> u128 {
        self.0
    }

    /// The count in FLOPs, rounded to the nearest `f64` (ties to even).
    pub fn to_f64(self) -> f64 {
        // `u128 as f64` rounds to nearest. Scaled so that the quotient
        // carries at least 55 significant bits, the bits of the
        // quotient below the rounding position include the guard bit
        // and one more; setting the last one when the division is
        // inexact keeps the rounding of the exact quotient. The scale
        // is a power of two, so dividing it out is exact.
        let shift = if self.0 < 1 << 64 { 64 } else { 0 };
        let scaled = self.0 << shift;
        let sticky = u128::from(!scaled.is_multiple_of(3));
        ((scaled / 3) | sticky) as f64 / (1u128 << shift) as f64
    }
}

impl Add for Flops {
    type Output = Flops;

    /// # Panics
    ///
    /// If the sum overflows `u128`, which no chain of admitted sizes
    /// with fewer than 2^27 factors reaches.
    fn add(self, other: Flops) -> Flops {
        Flops(
            self.0
                .checked_add(other.0)
                .expect("a FLOP total overflowed 2^128 thirds"),
        )
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nearest `f64` to `thirds / 3`, from the exact rational: the
    /// candidates are the two doubles around the truncated quotient.
    fn nearest(thirds: u128) -> f64 {
        let below = (thirds / 3) as f64;
        let mut best = below;
        for candidate in [
            f64::from_bits(below.to_bits() - 1),
            below,
            f64::from_bits(below.to_bits() + 1),
        ] {
            // |3·c − thirds| compares distances exactly; `c` is an
            // integer here (every candidate is above 2^52).
            let dist = |c: f64| (3 * c as u128).abs_diff(thirds);
            let (dc, db) = (dist(candidate), dist(best));
            if dc < db || (dc == db && candidate.to_bits() % 2 == 0) {
                best = candidate;
            }
        }
        best
    }

    #[test]
    fn small_counts_divide_once() {
        assert_eq!(Flops::ZERO.to_f64(), 0.0);
        assert_eq!(Flops::from_thirds(3).to_f64(), 1.0);
        assert_eq!(Flops::from_thirds(1).to_f64(), 1.0 / 3.0);
        assert_eq!(Flops::from_thirds(2).to_f64(), 2.0 / 3.0);
        assert_eq!(Flops::from_thirds(2000).to_f64(), 2000.0 / 3.0);
    }

    #[test]
    fn rounds_to_nearest_near_two_pow_53_and_54() {
        // Around 2^53 a double's spacing is 2, around 2^54 it is 4, so
        // the third that a remainder of 1 or 2 adds decides the rounding
        // only through the exact quotient.
        for base in [1u128 << 53, 1 << 54] {
            for q in base - 4..base + 8 {
                for r in [0, 1, 2] {
                    let thirds = 3 * q + r;
                    let got = Flops::from_thirds(thirds).to_f64();
                    assert_eq!(got, nearest(thirds), "{q} + {r}/3");
                }
            }
        }
        // 2^53 + 1 + 2/3 is nearer 2^53 + 2 than 2^53; 2^53 + 1 lies
        // halfway and goes to the even 2^53.
        let two53 = 1u128 << 53;
        assert_eq!(Flops::from_thirds(3 * (two53 + 1)).to_f64(), two53 as f64);
        assert_eq!(
            Flops::from_thirds(3 * (two53 + 1) + 2).to_f64(),
            (two53 + 2) as f64
        );
        assert_eq!(
            Flops::from_thirds(3 * (two53 + 1) + 1).to_f64(),
            (two53 + 2) as f64
        );
    }

    #[test]
    fn large_counts_round_once() {
        // 6n³ at n = 3·2^26 + 5, the optimum of `U U⁻¹ U U M Uᵀ U⁻¹`
        // over n × n operands, rounded once.
        let n = 3u128 * (1 << 26) + 5;
        let thirds = 18 * n * n * n;
        assert_eq!(Flops::from_thirds(thirds).to_f64(), nearest(thirds));
        assert_eq!(Flops::from_thirds(thirds).to_f64(), 4.896149934230827e25);
        let max = Flops::from_thirds(u128::MAX);
        assert_eq!(max.to_f64(), (u128::MAX / 3) as f64);
    }

    #[test]
    fn sums_are_exact() {
        let third = Flops::from_thirds(1);
        assert_eq!(third + third + third, Flops::from_thirds(3));
        assert_eq!([third; 6].into_iter().sum::<Flops>().to_f64(), 2.0);
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn overflow_is_an_error() {
        let _ = Flops::from_thirds(u128::MAX) + Flops::from_thirds(1);
    }
}
