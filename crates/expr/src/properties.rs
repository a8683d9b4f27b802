//! Matrix properties and property sets.
//!
//! Properties annotate operands (paper Fig. 2) and are propagated through
//! expression trees by the inference engine in `gmc-analysis` (paper
//! Sec. 3.2). A [`PropertySet`] is a small bitset with an *implication
//! closure*: e.g. a symmetric positive definite matrix is also symmetric
//! and full rank, and a matrix that is both lower and upper triangular is
//! diagonal.

use std::fmt;
use std::str::FromStr;

/// A structural property of a matrix.
///
/// The first five variants are the properties used by the paper's
/// evaluation (Sec. 4); the remaining ones are natural extensions that
/// the inference engine and specialized kernels understand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u16)]
pub enum Property {
    /// Non-zero entries only on the main diagonal.
    Diagonal = 0,
    /// Zero above the main diagonal.
    LowerTriangular = 1,
    /// Zero below the main diagonal.
    UpperTriangular = 2,
    /// Equal to its own transpose.
    Symmetric = 3,
    /// Symmetric with strictly positive eigenvalues.
    SymmetricPositiveDefinite = 4,
    /// The identity matrix.
    Identity = 5,
    /// The zero matrix.
    Zero = 6,
    /// `QᵀQ = I`.
    Orthogonal = 7,
    /// A permutation of the identity's rows.
    Permutation = 8,
    /// Triangular with an implicit unit diagonal.
    UnitDiagonal = 9,
    /// Full rank (invertible when square). Assumed for operands that are
    /// inverted, and inferred for e.g. `AᵀA` of a full-rank `A`.
    FullRank = 10,
}

/// All property variants, in discriminant order.
pub(crate) const ALL_PROPERTIES: [Property; 11] = [
    Property::Diagonal,
    Property::LowerTriangular,
    Property::UpperTriangular,
    Property::Symmetric,
    Property::SymmetricPositiveDefinite,
    Property::Identity,
    Property::Zero,
    Property::Orthogonal,
    Property::Permutation,
    Property::UnitDiagonal,
    Property::FullRank,
];

impl Property {
    /// Every property, in a stable order.
    pub fn all() -> impl Iterator<Item = Property> {
        ALL_PROPERTIES.iter().copied()
    }

    /// The canonical spelling used by the input grammar (paper Fig. 2),
    /// e.g. `"LowerTriangular"`.
    pub fn name(&self) -> &'static str {
        match self {
            Property::Diagonal => "Diagonal",
            Property::LowerTriangular => "LowerTriangular",
            Property::UpperTriangular => "UpperTriangular",
            Property::Symmetric => "Symmetric",
            Property::SymmetricPositiveDefinite => "SPD",
            Property::Identity => "Identity",
            Property::Zero => "Zero",
            Property::Orthogonal => "Orthogonal",
            Property::Permutation => "Permutation",
            Property::UnitDiagonal => "UnitDiagonal",
            Property::FullRank => "FullRank",
        }
    }

    /// Whether the property only makes sense for square matrices.
    pub fn requires_square(&self) -> bool {
        !matches!(self, Property::Zero | Property::FullRank)
    }

    fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

impl fmt::Display for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Property {
    type Err = ParsePropertyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Diagonal" => Ok(Property::Diagonal),
            "LowerTriangular" => Ok(Property::LowerTriangular),
            "UpperTriangular" => Ok(Property::UpperTriangular),
            "Symmetric" => Ok(Property::Symmetric),
            "SPD" | "SymmetricPositiveDefinite" => Ok(Property::SymmetricPositiveDefinite),
            "Identity" => Ok(Property::Identity),
            "Zero" => Ok(Property::Zero),
            "Orthogonal" => Ok(Property::Orthogonal),
            "Permutation" => Ok(Property::Permutation),
            "UnitDiagonal" => Ok(Property::UnitDiagonal),
            "FullRank" => Ok(Property::FullRank),
            _ => Err(ParsePropertyError {
                input: s.to_owned(),
            }),
        }
    }
}

/// Error returned when parsing an unknown property name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePropertyError {
    input: String,
}

impl fmt::Display for ParsePropertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown matrix property `{}`", self.input)
    }
}

impl std::error::Error for ParsePropertyError {}

/// A set of [`Property`] values, stored as a bitset.
///
/// The set is kept *closed under implication*: inserting
/// [`Property::SymmetricPositiveDefinite`] also yields
/// [`Property::Symmetric`] and [`Property::FullRank`], and a set
/// containing both triangularities collapses to [`Property::Diagonal`].
///
/// # Example
///
/// ```
/// use gmc_expr::{Property, PropertySet};
///
/// let p = PropertySet::from_iter([Property::LowerTriangular, Property::UpperTriangular]);
/// assert!(p.contains(Property::Diagonal));
///
/// let spd = PropertySet::new().with(Property::SymmetricPositiveDefinite);
/// assert!(spd.contains(Property::Symmetric));
/// assert!(spd.contains(Property::FullRank));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PropertySet {
    bits: u16,
}

impl PropertySet {
    /// Creates an empty property set.
    pub fn new() -> Self {
        PropertySet::default()
    }

    /// Whether the set contains `p` (directly or by implication, since
    /// sets are kept closed).
    pub fn contains(&self, p: Property) -> bool {
        self.bits & p.bit() != 0
    }

    /// Inserts `p` and recomputes the implication closure. Returns
    /// whether the set changed.
    pub fn insert(&mut self, p: Property) -> bool {
        let before = self.bits;
        self.bits |= p.bit();
        self.close();
        self.bits != before
    }

    /// Builder-style [`insert`](Self::insert).
    #[must_use]
    pub fn with(mut self, p: Property) -> Self {
        self.insert(p);
        self
    }

    /// Removes `p` *without* removing properties it implied; use with
    /// care. Mostly useful in tests.
    pub fn remove(&mut self, p: Property) {
        self.bits &= !p.bit();
    }

    /// The union of two sets (closure of the bit union).
    #[must_use]
    pub fn union(&self, other: PropertySet) -> PropertySet {
        let mut s = PropertySet {
            bits: self.bits | other.bits,
        };
        s.close();
        s
    }

    /// The intersection of two sets. Intersections of closed sets are
    /// closed, so no re-closure is needed.
    #[must_use]
    pub fn intersection(&self, other: PropertySet) -> PropertySet {
        PropertySet {
            bits: self.bits & other.bits,
        }
    }

    /// The set as a bitset: bit `p as u16` is set iff the set contains
    /// `p`, so testing several properties at once is one AND-compare.
    pub fn bits(&self) -> u16 {
        self.bits
    }

    /// The set as a matrix of the given squareness carries it: closed
    /// under implication, then without the properties that
    /// [require a square matrix](Property::requires_square) unless
    /// `square`. The closure is shape-blind (`Zero ⇒ Diagonal`), so
    /// this is the one step where a property set meets a shape.
    pub(crate) fn for_shape(mut self, square: bool) -> PropertySet {
        self.close();
        if !square {
            for p in ALL_PROPERTIES {
                if p.requires_square() {
                    self.bits &= !p.bit();
                }
            }
        }
        self
    }

    /// Whether a matrix carrying the set carries more of it when square:
    /// whether its closure holds a property that
    /// [requires a square matrix](Property::requires_square).
    pub fn depends_on_squareness(&self) -> bool {
        self.for_shape(true) != self.for_shape(false)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Number of properties in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates over the contained properties in discriminant order.
    pub fn iter(&self) -> impl Iterator<Item = Property> + '_ {
        let bits = self.bits;
        ALL_PROPERTIES
            .iter()
            .copied()
            .filter(move |p| bits & p.bit() != 0)
    }

    /// Whether the set is logically consistent: e.g. a matrix cannot be
    /// both [`Property::Zero`] and [`Property::FullRank`].
    pub fn is_consistent(&self) -> bool {
        if self.contains(Property::Zero)
            && (self.contains(Property::FullRank)
                || self.contains(Property::Identity)
                || self.contains(Property::UnitDiagonal))
        {
            return false;
        }
        true
    }

    /// Computes the implication closure in place.
    ///
    /// Rules (iterated to a fixpoint, which is reached in at most two
    /// passes for this rule set):
    ///
    /// * `Identity ⇒ Diagonal, SPD, Orthogonal, Permutation, UnitDiagonal`
    /// * `SPD ⇒ Symmetric, FullRank`
    /// * `Permutation ⇒ Orthogonal`
    /// * `Orthogonal ⇒ FullRank`
    /// * `Diagonal ⇒ LowerTriangular, UpperTriangular, Symmetric`
    /// * `LowerTriangular ∧ UpperTriangular ⇒ Diagonal`
    /// * `Symmetric ∧ (LowerTriangular ∨ UpperTriangular) ⇒ Diagonal`
    /// * `Zero ⇒ Diagonal, Symmetric` (the zero matrix is trivially both)
    fn close(&mut self) {
        loop {
            let before = self.bits;
            if self.contains(Property::Identity) {
                self.bits |= Property::Diagonal.bit()
                    | Property::SymmetricPositiveDefinite.bit()
                    | Property::Orthogonal.bit()
                    | Property::Permutation.bit()
                    | Property::UnitDiagonal.bit();
            }
            if self.contains(Property::SymmetricPositiveDefinite) {
                self.bits |= Property::Symmetric.bit() | Property::FullRank.bit();
            }
            if self.contains(Property::Permutation) {
                self.bits |= Property::Orthogonal.bit();
            }
            if self.contains(Property::Orthogonal) {
                self.bits |= Property::FullRank.bit();
            }
            if self.contains(Property::Diagonal) {
                self.bits |= Property::LowerTriangular.bit()
                    | Property::UpperTriangular.bit()
                    | Property::Symmetric.bit();
            }
            if self.contains(Property::LowerTriangular) && self.contains(Property::UpperTriangular)
            {
                self.bits |= Property::Diagonal.bit();
            }
            if self.contains(Property::Symmetric)
                && (self.contains(Property::LowerTriangular)
                    || self.contains(Property::UpperTriangular))
            {
                self.bits |= Property::Diagonal.bit();
            }
            if self.contains(Property::Zero) {
                self.bits |= Property::Diagonal.bit() | Property::Symmetric.bit();
            }
            if self.bits == before {
                break;
            }
        }
    }
}

impl FromIterator<Property> for PropertySet {
    fn from_iter<I: IntoIterator<Item = Property>>(iter: I) -> Self {
        let mut s = PropertySet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<Property> for PropertySet {
    fn extend<I: IntoIterator<Item = Property>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl fmt::Debug for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, ">")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s = PropertySet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(Property::Diagonal));
        assert!(s.is_consistent());
    }

    #[test]
    fn insert_and_contains() {
        let mut s = PropertySet::new();
        assert!(s.insert(Property::LowerTriangular));
        assert!(s.contains(Property::LowerTriangular));
        // Re-inserting reports no change.
        assert!(!s.insert(Property::LowerTriangular));
    }

    #[test]
    fn spd_implies_symmetric_and_full_rank() {
        let s = PropertySet::new().with(Property::SymmetricPositiveDefinite);
        assert!(s.contains(Property::Symmetric));
        assert!(s.contains(Property::FullRank));
        assert!(!s.contains(Property::Diagonal));
    }

    #[test]
    fn both_triangular_implies_diagonal() {
        let s = PropertySet::from_iter([Property::LowerTriangular, Property::UpperTriangular]);
        assert!(s.contains(Property::Diagonal));
        assert!(s.contains(Property::Symmetric)); // diagonal ⇒ symmetric
    }

    #[test]
    fn symmetric_triangular_is_diagonal() {
        let s = PropertySet::from_iter([Property::Symmetric, Property::LowerTriangular]);
        assert!(s.contains(Property::Diagonal));
        assert!(s.contains(Property::UpperTriangular));
    }

    #[test]
    fn identity_closure() {
        let s = PropertySet::new().with(Property::Identity);
        for p in [
            Property::Diagonal,
            Property::LowerTriangular,
            Property::UpperTriangular,
            Property::Symmetric,
            Property::SymmetricPositiveDefinite,
            Property::Orthogonal,
            Property::Permutation,
            Property::UnitDiagonal,
            Property::FullRank,
        ] {
            assert!(s.contains(p), "identity should imply {p}");
        }
    }

    #[test]
    fn zero_is_consistent_alone_but_not_with_full_rank() {
        let z = PropertySet::new().with(Property::Zero);
        assert!(z.is_consistent());
        assert!(z.contains(Property::Diagonal));
        let bad = z.with(Property::FullRank);
        assert!(!bad.is_consistent());
    }

    #[test]
    fn union_and_intersection() {
        let a = PropertySet::new().with(Property::LowerTriangular);
        let b = PropertySet::new().with(Property::UpperTriangular);
        let u = a.union(b);
        assert!(u.contains(Property::Diagonal)); // closure applied
        let i = a.intersection(b);
        assert!(i.is_empty());
    }

    #[test]
    fn iter_in_order() {
        let s = PropertySet::from_iter([Property::Symmetric, Property::FullRank]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![Property::Symmetric, Property::FullRank]);
    }

    #[test]
    fn parse_round_trip() {
        for p in Property::all() {
            let parsed: Property = p.name().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("Banded".parse::<Property>().is_err());
        // Long form of SPD also accepted.
        assert_eq!(
            "SymmetricPositiveDefinite".parse::<Property>().unwrap(),
            Property::SymmetricPositiveDefinite
        );
    }

    #[test]
    fn display() {
        let s = PropertySet::from_iter([Property::SymmetricPositiveDefinite]);
        let text = s.to_string();
        assert!(text.starts_with('<') && text.ends_with('>'));
        assert!(text.contains("SPD"));
        assert!(text.contains("Symmetric"));
    }

    #[test]
    fn non_square_shapes_drop_square_only_properties() {
        let z = PropertySet::new().with(Property::Zero);
        assert!(z.contains(Property::Diagonal));
        let rect = z.with(Property::FullRank).for_shape(false);
        assert_eq!(
            rect.iter().collect::<Vec<_>>(),
            vec![Property::Zero, Property::FullRank]
        );
        assert_eq!(z.for_shape(true), z);
        assert!(z.depends_on_squareness());
        assert!(rect.depends_on_squareness(), "Zero still implies Diagonal");
        assert!(!PropertySet::new()
            .with(Property::FullRank)
            .depends_on_squareness());
    }

    #[test]
    fn bits_are_indexed_by_discriminant() {
        let s = PropertySet::from_iter([Property::Symmetric, Property::FullRank]);
        for p in Property::all() {
            assert_eq!(s.bits() & (1 << (p as u16)) != 0, s.contains(p));
        }
    }

    #[test]
    fn requires_square() {
        assert!(Property::Diagonal.requires_square());
        assert!(!Property::Zero.requires_square());
        assert!(!Property::FullRank.requires_square());
    }
}
