//! Named matrix operands.

use crate::{Expr, Property, PropertySet, Shape};
use std::fmt;
use std::sync::Arc;

/// Whether an operand is a problem input or a temporary created by the
/// GMC algorithm (`create_tmp`, paper Fig. 4 line 9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandKind {
    /// An operand supplied by the user.
    Input,
    /// An intermediate result introduced by the optimizer.
    Temporary,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct OperandInner {
    name: String,
    shape: Shape,
    properties: PropertySet,
    kind: OperandKind,
}

/// A named matrix (or vector) with a [`Shape`] and a [`PropertySet`].
///
/// Operands are cheaply cloneable (reference counted). Two operands are
/// equal when their name, shape, properties and kind agree; within one
/// problem, names are expected to be unique.
///
/// A non-square operand never carries a property that
/// [requires a square matrix](Property::requires_square). Naming one
/// explicitly panics ([`with_property`](Self::with_property)); one that
/// only follows by implication is dropped, so a rectangular
/// [`Property::Zero`] operand is zero but not diagonal, symmetric or
/// triangular.
///
/// # Example
///
/// ```
/// use gmc_expr::{Operand, Property, Shape};
///
/// let l = Operand::square("L", 100).with_property(Property::LowerTriangular);
/// assert_eq!(l.name(), "L");
/// assert_eq!(l.shape(), Shape::new(100, 100));
/// assert!(l.properties().contains(Property::LowerTriangular));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Operand {
    inner: Arc<OperandInner>,
}

impl Operand {
    /// Creates a general matrix operand with no properties.
    pub fn matrix(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        Operand::with_shape(name, Shape::new(rows, cols))
    }

    /// Creates a square matrix operand with no properties.
    pub fn square(name: impl Into<String>, n: usize) -> Self {
        Operand::with_shape(name, Shape::square(n))
    }

    /// Creates a column vector operand (`n×1`).
    pub fn col_vector(name: impl Into<String>, n: usize) -> Self {
        Operand::with_shape(name, Shape::col_vector(n))
    }

    /// Creates a row vector operand (`1×n`).
    pub fn row_vector(name: impl Into<String>, n: usize) -> Self {
        Operand::with_shape(name, Shape::row_vector(n))
    }

    /// Creates an operand from an explicit [`Shape`].
    pub fn with_shape(name: impl Into<String>, shape: Shape) -> Self {
        Operand {
            inner: Arc::new(OperandInner {
                name: name.into(),
                shape,
                properties: PropertySet::new(),
                kind: OperandKind::Input,
            }),
        }
    }

    /// Creates a temporary operand, as produced by the optimizer for
    /// intermediate results. If `shape` is not square, the properties
    /// that require a square matrix are dropped from `properties`.
    pub fn temporary(name: impl Into<String>, shape: Shape, properties: PropertySet) -> Self {
        Operand {
            inner: Arc::new(OperandInner {
                name: name.into(),
                shape,
                properties: properties.for_shape(shape.is_square()),
                kind: OperandKind::Temporary,
            }),
        }
    }

    /// Adds a property, returning the updated operand. On a non-square
    /// operand, the square-only properties `p` implies are not added
    /// (a rectangular [`Property::Zero`] is not [`Property::Diagonal`]).
    ///
    /// # Panics
    ///
    /// Panics if the property requires a square matrix (e.g.
    /// [`Property::Symmetric`]) and the operand is not square.
    #[must_use]
    pub fn with_property(self, p: Property) -> Self {
        self.with_properties([p])
    }

    /// Adds several properties at once. See [`with_property`](Self::with_property).
    ///
    /// The operand's shared cell is built at most once: it is updated in
    /// place when this handle is its only owner, and copied once
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`with_property`](Self::with_property).
    #[must_use]
    pub fn with_properties(mut self, ps: impl IntoIterator<Item = Property>) -> Self {
        let mut ps = ps.into_iter().peekable();
        if ps.peek().is_none() {
            return self;
        }
        let shape = self.shape();
        let mut properties = self.properties();
        for p in ps {
            assert!(
                !p.requires_square() || shape.is_square(),
                "property {p} requires a square matrix, but {} has shape {shape}",
                self.name(),
            );
            properties = properties.with(p).for_shape(shape.is_square());
        }
        Arc::make_mut(&mut self.inner).properties = properties;
        self
    }

    /// The operand's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The operand's shape.
    pub fn shape(&self) -> Shape {
        self.inner.shape
    }

    /// The operand's properties (closed under implication).
    pub fn properties(&self) -> PropertySet {
        self.inner.properties
    }

    /// Whether this operand is an input or a temporary.
    pub fn kind(&self) -> OperandKind {
        self.inner.kind
    }

    /// Whether the operand is a vector (`n×1` or `1×n`).
    pub fn is_vector(&self) -> bool {
        self.inner.shape.is_vector()
    }

    /// Wraps the operand in an [`Expr::Symbol`].
    pub fn expr(&self) -> Expr {
        Expr::Symbol(self.clone())
    }

    /// The expression `selfᵀ`.
    pub fn transpose(&self) -> Expr {
        Expr::Transpose(Box::new(self.expr()))
    }

    /// The expression `self⁻¹`.
    pub fn inverse(&self) -> Expr {
        Expr::Inverse(Box::new(self.expr()))
    }

    /// The expression `self⁻ᵀ`.
    pub fn inverse_transpose(&self) -> Expr {
        Expr::InverseTranspose(Box::new(self.expr()))
    }
}

/// Whether `name` is `prefix` followed by `<i>_<j>` in decimal digits:
/// the form of the name the optimizer gives the temporary of the
/// sub-chain `M[i..=j]` (prefix `T`, unless an input takes such a name).
pub fn is_temp_name(name: &str, prefix: &str) -> bool {
    let number = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    name.strip_prefix(prefix)
        .and_then(|rest| rest.split_once('_'))
        .is_some_and(|(i, j)| number(i) && number(j))
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Operand({} {} {:?})",
            self.inner.name, self.inner.shape, self.inner.properties
        )
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.inner.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = Operand::matrix("A", 3, 4);
        assert_eq!(a.name(), "A");
        assert_eq!(a.shape(), Shape::new(3, 4));
        assert_eq!(a.kind(), OperandKind::Input);
        assert!(a.properties().is_empty());

        let v = Operand::col_vector("v", 9);
        assert!(v.is_vector());
        let w = Operand::row_vector("w", 9);
        assert_eq!(w.shape(), Shape::new(1, 9));
    }

    #[test]
    fn with_properties_closure() {
        let a = Operand::square("A", 5)
            .with_properties([Property::LowerTriangular, Property::UpperTriangular]);
        assert!(a.properties().contains(Property::Diagonal));
    }

    #[test]
    #[should_panic(expected = "requires a square matrix")]
    fn square_property_on_rectangular_panics() {
        let _ = Operand::matrix("A", 3, 4).with_property(Property::Symmetric);
    }

    #[test]
    fn with_property_leaves_other_handles_alone() {
        let a = Operand::square("A", 5);
        let b = a.clone().with_property(Property::Symmetric);
        assert!(a.properties().is_empty());
        assert!(b.properties().contains(Property::Symmetric));
        let c = b.clone().with_properties([]);
        assert!(Arc::ptr_eq(&b.inner, &c.inner));
    }

    #[test]
    fn rectangular_zero_is_not_diagonal() {
        let z = Operand::matrix("Z", 3, 5).with_property(Property::Zero);
        assert!(z.properties().contains(Property::Zero));
        assert!(!z.properties().iter().any(|p| p.requires_square()));
        // Inference closes shape-blind: a zero product is "diagonal".
        let inferred = PropertySet::new().with(Property::Zero);
        let t = Operand::temporary("T", Shape::new(5, 1), inferred);
        assert!(!t.properties().contains(Property::Diagonal));
        let square = Operand::square("Z", 3).with_property(Property::Zero);
        assert!(square.properties().contains(Property::Diagonal));
    }

    #[test]
    fn equality_is_structural() {
        let a1 = Operand::square("A", 5).with_property(Property::Symmetric);
        let a2 = Operand::square("A", 5).with_property(Property::Symmetric);
        assert_eq!(a1, a2);
        let a3 = Operand::square("A", 6).with_property(Property::Symmetric);
        assert_ne!(a1, a3);
    }

    #[test]
    fn temporaries() {
        let t = Operand::temporary(
            "T0",
            Shape::new(4, 4),
            PropertySet::new().with(Property::Symmetric),
        );
        assert_eq!(t.kind(), OperandKind::Temporary);
        assert!(t.properties().contains(Property::Symmetric));
    }

    #[test]
    fn clone_is_cheap_and_shared() {
        let a = Operand::square("A", 5);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
