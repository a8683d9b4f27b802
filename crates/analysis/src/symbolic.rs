//! Three-valued structural predicates over symbolic shapes.
//!
//! Property inference (and kernel applicability) consults shapes only
//! through order comparisons between dimensions: squareness
//! (`rows == cols`), the SPD rank condition (`rows ≥ cols`), and
//! vector-ness (`cols == 1 ∧ rows > 1`). Over a [`SymShape`] those
//! questions may be *undecidable* — `n×m` is square under some bindings
//! and not others — so the symbolic layer answers them in three-valued
//! logic ([`Tri`]).
//!
//! This is the formal basis of the plan cache's *region* keying
//! (`gmc-plan`): a region is keyed by the comparisons between boundary
//! dimensions (`= 1`, `=`, `≥`) that its recording consulted, with their
//! answers, so these predicates answer alike, and candidate kernel sets
//! and inferred property sets are invariant, across all bindings in the
//! region. A comparison these predicates decide from the dimension
//! pattern alone needs no place in a key.

use gmc_expr::{Dim, SymShape};

/// A three-valued truth value: definitely true, definitely false, or
/// dependent on the dimension binding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tri {
    /// True under every binding.
    Yes,
    /// False under every binding.
    No,
    /// Truth depends on the binding.
    Unknown,
}

impl Tri {
    /// Lifts a definite boolean.
    pub fn known(b: bool) -> Tri {
        if b {
            Tri::Yes
        } else {
            Tri::No
        }
    }

    /// Whether the value is decided (not [`Tri::Unknown`]).
    pub fn is_decided(&self) -> bool {
        !matches!(self, Tri::Unknown)
    }

    /// Three-valued conjunction.
    #[must_use]
    pub fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::No, _) | (_, Tri::No) => Tri::No,
            (Tri::Yes, Tri::Yes) => Tri::Yes,
            _ => Tri::Unknown,
        }
    }

    /// Three-valued disjunction.
    #[must_use]
    pub fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Yes, _) | (_, Tri::Yes) => Tri::Yes,
            (Tri::No, Tri::No) => Tri::No,
            _ => Tri::Unknown,
        }
    }
}

/// Whether two symbolic dimensions are equal under every / no / some
/// bindings.
///
/// Two distinct variables (or a variable and a constant) *can* coincide
/// under a binding, so only syntactic equality yields [`Tri::Yes`].
pub fn dims_equal(a: Dim, b: Dim) -> Tri {
    match (a, b) {
        _ if a == b => Tri::Yes,
        (Dim::Const(x), Dim::Const(y)) => Tri::known(x == y),
        // A variable can take any positive value, including the other
        // side's value.
        _ => Tri::Unknown,
    }
}

/// Whether `a ≥ b` under every / no / some bindings.
pub fn dims_ge(a: Dim, b: Dim) -> Tri {
    match (a, b) {
        _ if a == b => Tri::Yes,
        (Dim::Const(x), Dim::Const(y)) => Tri::known(x >= y),
        // Every dimension is ≥ 1.
        (_, Dim::Const(1)) => Tri::Yes,
        _ => Tri::Unknown,
    }
}

/// Whether the shape is square ([`Tri::Yes`] only for *structural*
/// squareness, which survives every binding).
pub fn is_square(s: SymShape) -> Tri {
    dims_equal(s.rows(), s.cols())
}

/// Whether the shape is a column vector (`n×1` with `n > 1`).
pub fn is_col_vector(s: SymShape) -> Tri {
    dims_equal(s.cols(), Dim::Const(1)).and(dims_gt_one(s.rows()))
}

/// Whether the shape is a row vector (`1×n` with `n > 1`).
pub fn is_row_vector(s: SymShape) -> Tri {
    dims_equal(s.rows(), Dim::Const(1)).and(dims_gt_one(s.cols()))
}

/// Whether the shape is a vector of either orientation.
pub fn is_vector(s: SymShape) -> Tri {
    is_col_vector(s).or(is_row_vector(s))
}

/// Whether the SPD rank condition `rows ≥ cols` holds (used by the
/// `XᵀX` / congruence rules of the inference engine).
pub fn rank_condition(s: SymShape) -> Tri {
    dims_ge(s.rows(), s.cols())
}

fn dims_gt_one(d: Dim) -> Tri {
    match d {
        Dim::Const(v) => Tri::known(v > 1),
        Dim::Var(_) => Tri::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::Dim;

    fn n() -> Dim {
        Dim::var("an_n")
    }

    fn m() -> Dim {
        Dim::var("an_m")
    }

    #[test]
    fn tri_algebra() {
        assert_eq!(Tri::Yes.and(Tri::Unknown), Tri::Unknown);
        assert_eq!(Tri::No.and(Tri::Unknown), Tri::No);
        assert_eq!(Tri::Yes.or(Tri::Unknown), Tri::Yes);
        assert_eq!(Tri::No.or(Tri::Unknown), Tri::Unknown);
        assert!(Tri::Yes.is_decided());
        assert!(!Tri::Unknown.is_decided());
    }

    #[test]
    fn structural_squareness() {
        assert_eq!(is_square(SymShape::square(n())), Tri::Yes);
        assert_eq!(is_square(SymShape::new(n(), m())), Tri::Unknown);
        assert_eq!(
            is_square(SymShape::new(Dim::Const(3), Dim::Const(4))),
            Tri::No
        );
    }

    #[test]
    fn vector_classification() {
        assert_eq!(
            is_col_vector(SymShape::new(n(), Dim::Const(1))),
            Tri::Unknown
        );
        assert_eq!(
            is_col_vector(SymShape::new(Dim::Const(5), Dim::Const(1))),
            Tri::Yes
        );
        // n×m: cols could bind to 1, so vector-ness is unknown.
        assert_eq!(is_vector(SymShape::new(n(), m())), Tri::Unknown);
        assert_eq!(
            is_vector(SymShape::new(Dim::Const(5), Dim::Const(4))),
            Tri::No
        );
        assert_eq!(
            is_row_vector(SymShape::new(Dim::Const(1), Dim::Const(9))),
            Tri::Yes
        );
    }

    #[test]
    fn rank_condition_cases() {
        assert_eq!(rank_condition(SymShape::square(n())), Tri::Yes);
        assert_eq!(rank_condition(SymShape::new(n(), Dim::Const(1))), Tri::Yes);
        assert_eq!(rank_condition(SymShape::new(n(), m())), Tri::Unknown);
        assert_eq!(
            rank_condition(SymShape::new(Dim::Const(8), Dim::Const(5))),
            Tri::Yes
        );
        assert_eq!(
            rank_condition(SymShape::new(Dim::Const(5), Dim::Const(8))),
            Tri::No
        );
    }
}
