//! Symbolic chains: matrix chains whose operand dimensions may be
//! variables.
//!
//! A [`SymChain`] is the symbolic analogue of [`Chain`]: a sequence of
//! factors (operand + unary operator) whose shapes are [`SymShape`]s.
//! Well-formedness is checked *structurally* — adjacent inner dimensions
//! must be the same [`Dim`], and inverted factors must be structurally
//! square — so a valid symbolic chain yields a valid concrete [`Chain`]
//! under **every** positive binding of its variables
//! ([`SymChain::bind`]).

use crate::chain::{Chain, Factor, UnaryOp, MAX_FACTORS};
use crate::dim::{Dim, DimBindings, DimError, DimVar};
use crate::shape::SymShape;
use crate::{ExprError, Operand, Property, PropertySet};
use std::fmt;

/// A named operand with a symbolic shape and properties.
///
/// # Example
///
/// ```
/// use gmc_expr::{Dim, DimBindings, Property, SymOperand};
///
/// let a = SymOperand::new("A", Dim::var("n"), Dim::var("n"))
///     .with_property(Property::SymmetricPositiveDefinite)
///     .unwrap();
/// let op = a.bind(&DimBindings::new().with("n", 100)).unwrap();
/// assert_eq!(op.shape().rows(), 100);
/// assert!(op.properties().contains(Property::Symmetric));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SymOperand {
    name: String,
    shape: SymShape,
    properties: PropertySet,
}

impl SymOperand {
    /// Creates a general symbolic operand with no properties.
    pub fn new(name: impl Into<String>, rows: impl Into<Dim>, cols: impl Into<Dim>) -> Self {
        SymOperand {
            name: name.into(),
            shape: SymShape::new(rows.into(), cols.into()),
            properties: PropertySet::new(),
        }
    }

    /// Creates a structurally square operand.
    pub fn square(name: impl Into<String>, n: impl Into<Dim>) -> Self {
        let n = n.into();
        SymOperand::new(name, n, n)
    }

    /// Creates a column vector operand (`n×1`).
    pub fn col_vector(name: impl Into<String>, n: impl Into<Dim>) -> Self {
        SymOperand::new(name, n, Dim::Const(1))
    }

    /// Adds a property. Unless the shape is structurally square, the
    /// square-only properties `p` implies are not added (a `n×m`
    /// [`Property::Zero`] operand is not [`Property::Diagonal`]).
    ///
    /// # Errors
    ///
    /// Returns [`SymChainError::PropertyNeedsSquare`] if the property
    /// requires a square matrix and the shape is not structurally
    /// square (a shape that is only *sometimes* square cannot carry the
    /// property, since it must hold under every binding).
    pub fn with_property(mut self, p: Property) -> Result<Self, SymChainError> {
        let square = self.shape.is_square_structural();
        if p.requires_square() && !square {
            return Err(SymChainError::PropertyNeedsSquare {
                property: p,
                operand: self.name,
                shape: self.shape,
            });
        }
        self.properties = self.properties.with(p).for_shape(square);
        Ok(self)
    }

    /// Adds several properties; see [`with_property`](Self::with_property).
    ///
    /// # Errors
    ///
    /// Same as [`with_property`](Self::with_property).
    pub fn with_properties(
        self,
        ps: impl IntoIterator<Item = Property>,
    ) -> Result<Self, SymChainError> {
        ps.into_iter().try_fold(self, SymOperand::with_property)
    }

    /// The operand's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operand's symbolic shape.
    pub fn shape(&self) -> SymShape {
        self.shape
    }

    /// The operand's properties.
    pub fn properties(&self) -> PropertySet {
        self.properties
    }

    /// Resolves the operand to a concrete [`Operand`].
    ///
    /// # Errors
    ///
    /// Propagates [`DimError`] for unbound variables or zero sizes.
    pub fn bind(&self, bindings: &DimBindings) -> Result<Operand, DimError> {
        let shape = self.shape.bind(bindings)?;
        // Only a structurally square shape carries square-only
        // properties, and it stays square under every binding, so
        // `with_properties` cannot panic here.
        Ok(Operand::with_shape(&self.name, shape).with_properties(self.properties.iter()))
    }
}

impl fmt::Display for SymOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// One factor of a symbolic chain: an operand with a unary operator.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SymFactor {
    operand: SymOperand,
    op: UnaryOp,
}

impl SymFactor {
    /// Creates a factor.
    pub fn new(operand: SymOperand, op: UnaryOp) -> Self {
        SymFactor { operand, op }
    }

    /// A plain (unmodified) factor.
    pub fn plain(operand: SymOperand) -> Self {
        SymFactor::new(operand, UnaryOp::None)
    }

    /// The underlying operand.
    pub fn operand(&self) -> &SymOperand {
        &self.operand
    }

    /// The unary operator.
    pub fn op(&self) -> UnaryOp {
        self.op
    }

    /// The effective symbolic shape (operand shape with the unary
    /// operator applied).
    pub fn shape(&self) -> SymShape {
        if self.op.is_transposed() {
            self.operand.shape().transposed()
        } else {
            self.operand.shape()
        }
    }
}

impl fmt::Display for SymFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.operand, self.op.suffix())
    }
}

/// A structurally well-formed symbolic matrix chain.
///
/// # Example
///
/// ```
/// use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
///
/// let a = SymOperand::new("A", Dim::var("n"), Dim::var("k"));
/// let b = SymOperand::new("B", Dim::var("k"), Dim::var("m"));
/// let chain = SymChain::new(vec![SymFactor::plain(a), SymFactor::plain(b)]).unwrap();
/// let bound = chain
///     .bind(&DimBindings::new().with("n", 10).with("k", 20).with("m", 5))
///     .unwrap();
/// assert_eq!(bound.to_string(), "A B");
/// assert_eq!(bound.shape().rows(), 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SymChain {
    factors: Vec<SymFactor>,
}

impl SymChain {
    /// Creates a symbolic chain, validating structural well-formedness:
    /// from two to [`MAX_FACTORS`] factors, structurally matching
    /// adjacent inner dimensions, structurally square inverted factors.
    ///
    /// # Errors
    ///
    /// [`SymChainError::TooShort`], [`SymChainError::TooLong`],
    /// [`SymChainError::NonSquareInverse`] or
    /// [`SymChainError::ShapeMismatch`].
    pub fn new(factors: Vec<SymFactor>) -> Result<Self, SymChainError> {
        if factors.len() < 2 {
            return Err(SymChainError::TooShort { len: factors.len() });
        }
        if factors.len() > MAX_FACTORS {
            return Err(SymChainError::TooLong { len: factors.len() });
        }
        for f in &factors {
            if f.op().is_inverted() && !f.operand().shape().is_square_structural() {
                return Err(SymChainError::NonSquareInverse {
                    operand: f.operand().name().to_owned(),
                    shape: f.operand().shape(),
                });
            }
        }
        for w in factors.windows(2) {
            let (l, r) = (w[0].shape(), w[1].shape());
            if l.cols() != r.rows() {
                return Err(SymChainError::ShapeMismatch {
                    left: l,
                    right: r,
                    context: format!("{} times {}", w[0], w[1]),
                });
            }
        }
        // Operands are identified by name downstream (aliasing decides
        // e.g. SYRK applicability on AᵀA), so repeated names must refer
        // to one and the same operand.
        for (a, fa) in factors.iter().enumerate() {
            for fb in &factors[a + 1..] {
                if fa.operand().name() == fb.operand().name() && fa.operand() != fb.operand() {
                    return Err(SymChainError::InconsistentOperand {
                        name: fa.operand().name().to_owned(),
                    });
                }
            }
        }
        Ok(SymChain { factors })
    }

    /// Lifts a concrete chain to a symbolic one (all dimensions
    /// constant). Useful for feeding concrete problems through the
    /// symbolic pipeline.
    ///
    /// # Errors
    ///
    /// Applies the full [`SymChain::new`] validation: concrete chains
    /// may repeat a name for different operands, but symbolic chains
    /// reject that.
    pub fn from_chain(chain: &Chain) -> Result<SymChain, SymChainError> {
        let factors = chain
            .factors()
            .iter()
            .map(|f| {
                let o = f.operand();
                let sym = SymOperand {
                    name: o.name().to_owned(),
                    shape: o.shape().to_sym(),
                    properties: o.properties(),
                };
                SymFactor::new(sym, f.op())
            })
            .collect();
        SymChain::new(factors)
    }

    /// The number of factors `n`.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// Chains are never empty (length ≥ 2 by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The factors, in order.
    pub fn factors(&self) -> &[SymFactor] {
        &self.factors
    }

    /// The `i`-th factor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn factor(&self, i: usize) -> &SymFactor {
        &self.factors[i]
    }

    /// The symbolic boundary dimensions `d0..=dn`: factor `i` has
    /// effective shape `d[i] × d[i+1]` (the symbolic analogue of
    /// [`Chain::sizes`]).
    pub fn dims(&self) -> Vec<Dim> {
        let mut dims = Vec::with_capacity(self.factors.len() + 1);
        dims.push(self.factors[0].shape().rows());
        for f in &self.factors {
            dims.push(f.shape().cols());
        }
        dims
    }

    /// The symbolic shape of the sub-chain `M[i..=j]`.
    ///
    /// # Panics
    ///
    /// Panics if `i > j` or `j >= self.len()`.
    pub fn sub_shape(&self, i: usize, j: usize) -> SymShape {
        assert!(i <= j && j < self.factors.len(), "invalid sub-chain range");
        SymShape::new(
            self.factors[i].shape().rows(),
            self.factors[j].shape().cols(),
        )
    }

    /// The distinct dimension variables, in first-occurrence order.
    pub fn vars(&self) -> Vec<DimVar> {
        let mut out = Vec::new();
        for d in self.dims() {
            if let Dim::Var(v) = d {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Whether any dimension is a variable.
    pub fn is_symbolic(&self) -> bool {
        self.dims().iter().any(Dim::is_var)
    }

    /// Resolves the chain to a concrete [`Chain`] under `bindings`.
    ///
    /// # Errors
    ///
    /// [`SymChainError::Dim`] for unbound variables or zero sizes;
    /// [`SymChainError::Expr`] is unreachable for structurally valid
    /// chains but propagated defensively.
    pub fn bind(&self, bindings: &DimBindings) -> Result<Chain, SymChainError> {
        let factors = self
            .factors
            .iter()
            .map(|f| Ok(Factor::new(f.operand().bind(bindings)?, f.op())))
            .collect::<Result<Vec<_>, DimError>>()?;
        Chain::new(factors).map_err(SymChainError::Expr)
    }

    /// Resolves only the boundary dimensions to concrete sizes (the
    /// concrete analogue of [`dims`](Self::dims)).
    ///
    /// # Errors
    ///
    /// Propagates [`DimError`] for unbound variables or zero sizes.
    pub fn bind_dims(&self, bindings: &DimBindings) -> Result<Vec<usize>, DimError> {
        self.dims().iter().map(|d| d.bind(bindings)).collect()
    }
}

impl fmt::Display for SymChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, factor) in self.factors.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{factor}")?;
        }
        Ok(())
    }
}

/// Errors produced while building or binding symbolic chains.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SymChainError {
    /// Fewer than two factors.
    TooShort {
        /// Number of factors found.
        len: usize,
    },
    /// More than [`MAX_FACTORS`] factors.
    TooLong {
        /// Number of factors found.
        len: usize,
    },
    /// An inverted factor is not structurally square.
    NonSquareInverse {
        /// The operand's name.
        operand: String,
        /// The operand's symbolic shape.
        shape: SymShape,
    },
    /// Adjacent factors have structurally different inner dimensions.
    ShapeMismatch {
        /// Effective shape of the left factor.
        left: SymShape,
        /// Effective shape of the right factor.
        right: SymShape,
        /// Where the mismatch occurred.
        context: String,
    },
    /// A square-only property on a non-structurally-square operand.
    PropertyNeedsSquare {
        /// The property in question.
        property: Property,
        /// The operand's name.
        operand: String,
        /// The operand's symbolic shape.
        shape: SymShape,
    },
    /// Two factors use the same operand name for different operands.
    InconsistentOperand {
        /// The conflicting name.
        name: String,
    },
    /// A dimension failed to resolve.
    Dim(DimError),
    /// Concrete chain construction failed after binding (defensive;
    /// unreachable for structurally valid chains).
    Expr(ExprError),
}

impl fmt::Display for SymChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymChainError::TooShort { len } => {
                write!(f, "symbolic chain must have length two or higher, got {len}")
            }
            SymChainError::TooLong { len } => write!(
                f,
                "symbolic chain has {len} factors, above the bound of {MAX_FACTORS}"
            ),
            SymChainError::NonSquareInverse { operand, shape } => write!(
                f,
                "cannot invert `{operand}`: shape {shape} is not structurally square"
            ),
            SymChainError::ShapeMismatch {
                left,
                right,
                context,
            } => write!(
                f,
                "structural dimension mismatch: {left} times {right} ({context})"
            ),
            SymChainError::PropertyNeedsSquare {
                property,
                operand,
                shape,
            } => write!(
                f,
                "property {property} requires a structurally square matrix, but `{operand}` has shape {shape}"
            ),
            SymChainError::InconsistentOperand { name } => write!(
                f,
                "operand name `{name}` is used for two different operands"
            ),
            SymChainError::Dim(e) => e.fmt(f),
            SymChainError::Expr(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SymChainError {}

impl From<DimError> for SymChainError {
    fn from(e: DimError) -> Self {
        SymChainError::Dim(e)
    }
}

/// Whether `name` matches the optimizer's temporary naming scheme
/// `T<digits>_<digits>`.
#[cfg(test)]
mod tests {
    use super::*;

    fn n() -> Dim {
        Dim::var("sc_n")
    }

    fn m() -> Dim {
        Dim::var("sc_m")
    }

    #[test]
    fn structural_validation() {
        let a = SymOperand::new("A", n(), m());
        let b = SymOperand::new("B", m(), n());
        assert!(SymChain::new(vec![SymFactor::plain(a.clone()), SymFactor::plain(b)]).is_ok());
        // n×m times n×m mismatches structurally even though a binding
        // with n = m would make it fit.
        let c = SymOperand::new("C", n(), m());
        assert!(matches!(
            SymChain::new(vec![SymFactor::plain(a.clone()), SymFactor::plain(c)]),
            Err(SymChainError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            SymChain::new(vec![SymFactor::plain(a.clone())]),
            Err(SymChainError::TooShort { len: 1 })
        ));
        assert!(matches!(
            SymChain::new(vec![
                SymFactor::new(a, UnaryOp::Inverse),
                SymFactor::plain(SymOperand::new("B", m(), n())),
            ]),
            Err(SymChainError::NonSquareInverse { .. })
        ));
    }

    #[test]
    fn chain_length_is_bounded() {
        let a = SymFactor::plain(SymOperand::square("A", n()));
        let chain = |len| SymChain::new(vec![a.clone(); len]);
        assert_eq!(chain(MAX_FACTORS).unwrap().len(), 256);
        let err = chain(MAX_FACTORS + 1).unwrap_err();
        assert_eq!(err, SymChainError::TooLong { len: 257 });
        assert_eq!(
            err.to_string(),
            "symbolic chain has 257 factors, above the bound of 256"
        );
    }

    #[test]
    fn square_properties_need_structural_squareness() {
        assert!(SymOperand::square("S", n())
            .with_property(Property::Symmetric)
            .is_ok());
        assert!(matches!(
            SymOperand::new("A", n(), m()).with_property(Property::Symmetric),
            Err(SymChainError::PropertyNeedsSquare { .. })
        ));
    }

    #[test]
    fn non_square_zero_binds_without_square_only_properties() {
        let z = SymOperand::new("Z", n(), m())
            .with_property(Property::Zero)
            .unwrap();
        assert!(!z.properties().contains(Property::Diagonal));
        let rect = z
            .bind(&DimBindings::new().with("sc_n", 3).with("sc_m", 5))
            .unwrap();
        assert!(rect.properties().contains(Property::Zero));
        assert!(!rect.properties().contains(Property::Diagonal));
        let constant = SymOperand::new("Z", Dim::Const(3), Dim::Const(5))
            .with_property(Property::Zero)
            .unwrap()
            .bind(&DimBindings::new())
            .unwrap();
        assert!(!constant.properties().contains(Property::Symmetric));
    }

    #[test]
    fn bind_produces_equivalent_concrete_chain() {
        let a = SymOperand::square("A", n())
            .with_property(Property::LowerTriangular)
            .unwrap();
        let b = SymOperand::new("B", n(), m());
        let chain = SymChain::new(vec![
            SymFactor::new(a, UnaryOp::Inverse),
            SymFactor::plain(b),
        ])
        .unwrap();
        assert!(chain.is_symbolic());
        assert_eq!(chain.vars().len(), 2);
        let bound = chain
            .bind(&DimBindings::new().with("sc_n", 10).with("sc_m", 4))
            .unwrap();
        assert_eq!(bound.to_string(), "A^-1 B");
        assert_eq!(bound.sizes(), vec![10, 10, 4]);
        assert!(bound
            .factor(0)
            .operand()
            .properties()
            .contains(Property::LowerTriangular));
        // Missing binding errors.
        assert!(matches!(
            chain.bind(&DimBindings::new().with("sc_n", 10)),
            Err(SymChainError::Dim(DimError::UnboundVar(_)))
        ));
    }

    #[test]
    fn dims_and_transposes() {
        // Aᵀ with A m×n has effective shape n×m.
        let a = SymOperand::new("A", m(), n());
        let b = SymOperand::new("B", m(), Dim::Const(7));
        let chain = SymChain::new(vec![
            SymFactor::new(a, UnaryOp::Transpose),
            SymFactor::plain(b),
        ])
        .unwrap();
        assert_eq!(chain.dims(), vec![n(), m(), Dim::Const(7)]);
        assert_eq!(chain.sub_shape(0, 1), SymShape::new(n(), Dim::Const(7)));
        let sizes = chain
            .bind_dims(&DimBindings::new().with("sc_n", 3).with("sc_m", 5))
            .unwrap();
        assert_eq!(sizes, vec![3, 5, 7]);
    }

    #[test]
    fn temporary_shaped_names_accepted() {
        // The optimizer picks a temporary prefix no input uses, so an
        // operand may be named like a temporary.
        let a = SymOperand::square("T0_1", n());
        let b = SymOperand::square("B", n());
        assert!(SymChain::new(vec![SymFactor::plain(a), SymFactor::plain(b)]).is_ok());
        let t = SymOperand::square("T", n());
        let tx = SymOperand::square("T0_x", n());
        assert!(SymChain::new(vec![SymFactor::plain(t), SymFactor::plain(tx)]).is_ok());
        let t = Operand::square("T0_1", 5);
        let b = Operand::matrix("B", 5, 7);
        let chain = Chain::new(vec![Factor::plain(t), Factor::plain(b)]).unwrap();
        assert!(SymChain::from_chain(&chain).is_ok());
    }

    #[test]
    fn round_trip_from_concrete() {
        let a = Operand::square("A", 5).with_property(Property::Symmetric);
        let b = Operand::matrix("B", 5, 7);
        let chain = Chain::new(vec![Factor::plain(a), Factor::plain(b)]).unwrap();
        let sym = SymChain::from_chain(&chain).unwrap();
        assert!(!sym.is_symbolic());
        let back = sym.bind(&DimBindings::new()).unwrap();
        assert_eq!(back, chain);
    }

    #[test]
    fn from_chain_applies_full_validation() {
        // Concrete chains may reuse a name for different operands; the
        // symbolic lift must reject that.
        let a1 = Operand::square("A", 5);
        let a2 = Operand::matrix("A", 5, 7);
        let chain = Chain::new(vec![Factor::plain(a1), Factor::plain(a2)]).unwrap();
        assert!(matches!(
            SymChain::from_chain(&chain),
            Err(SymChainError::InconsistentOperand { .. })
        ));
    }
}
