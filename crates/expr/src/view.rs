//! Plain-data views of operands and chain factors.
//!
//! Kernel matching, costing and property inference read three facts of
//! an operand: its shape, its properties, and which operand it is. The
//! GMC dynamic program keeps exactly these per DP cell, as `Copy` views,
//! so a sub-chain's result is a view until the final kernel sequence is
//! materialized: only the winners on the solution tree become named
//! [`Operand`]s.

use crate::{Factor, Operand, PropertySet, Shape, UnaryOp};

/// Which operand a view shows, within one chain: equal ids are one and
/// the same matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OperandId {
    /// The operand of chain factor `t`, where `t` is the first factor
    /// carrying that operand (so repeated operands share one id).
    Factor(usize),
    /// The result of the sub-chain `M[i..=j]`: the temporary of DP
    /// cell `(i, j)`.
    Temp(usize, usize),
}

/// What kernel matching, costing and property inference read of an
/// operand: its shape, its properties and its identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OperandView {
    /// The operand's shape.
    pub shape: Shape,
    /// The operand's properties (closed, and admitted by the shape).
    pub properties: PropertySet,
    /// Which operand this is.
    pub id: OperandId,
}

impl OperandView {
    /// The view of the temporary holding `M[i..=j]`, of shape `shape`.
    /// As for [`Operand::temporary`], the properties that require a
    /// square matrix are dropped from `properties` unless `shape` is
    /// square.
    pub fn temporary(i: usize, j: usize, shape: Shape, properties: PropertySet) -> Self {
        OperandView {
            shape,
            properties: properties.for_shape(shape.is_square()),
            id: OperandId::Temp(i, j),
        }
    }
}

/// A product factor as matching and inference see it: a unary operator
/// over an operand view. A DP cell's value is a factor view: the chain
/// factor on the diagonal, the untransposed temporary in the interior.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FactorView {
    /// The operand.
    pub operand: OperandView,
    /// The unary operator applied to it.
    pub op: UnaryOp,
}

impl FactorView {
    /// The effective shape, `op(operand)`.
    pub fn shape(&self) -> Shape {
        self.op.apply_to_shape(self.operand.shape)
    }
}

impl Operand {
    /// The operand's view under the identity `id`.
    pub fn view(&self, id: OperandId) -> OperandView {
        OperandView {
            shape: self.shape(),
            properties: self.properties(),
            id,
        }
    }
}

impl Factor {
    /// The factor's view, its operand under the identity `id`.
    pub fn view(&self, id: OperandId) -> FactorView {
        FactorView {
            operand: self.operand().view(id),
            op: self.op(),
        }
    }
}

/// Something with a matrix shape: an [`Operand`] or an [`OperandView`].
/// Kernel FLOP counts and result shapes read only this.
pub trait Shaped {
    /// The shape.
    fn shape(&self) -> Shape;
}

impl Shaped for Operand {
    fn shape(&self) -> Shape {
        Operand::shape(self)
    }
}

impl Shaped for OperandView {
    fn shape(&self) -> Shape {
        self.shape
    }
}

impl<T: Shaped + ?Sized> Shaped for &T {
    fn shape(&self) -> Shape {
        (**self).shape()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Property;

    #[test]
    fn factor_views_carry_the_operator() {
        let a = Operand::matrix("A", 3, 5).with_property(Property::FullRank);
        let v = Factor::transposed(a.clone()).view(OperandId::Factor(0));
        assert_eq!(v.shape(), Shape::new(5, 3));
        assert_eq!(v.operand.shape, a.shape());
        assert!(v.operand.properties.contains(Property::FullRank));
    }

    #[test]
    fn temporary_views_drop_square_only_properties() {
        let zero = PropertySet::new().with(Property::Zero);
        let rect = OperandView::temporary(0, 1, Shape::new(3, 5), zero);
        assert!(rect.properties.contains(Property::Zero));
        assert!(!rect.properties.contains(Property::Diagonal));
        let square = OperandView::temporary(0, 1, Shape::square(3), zero);
        assert!(square.properties.contains(Property::Diagonal));
    }
}
