//! Kernel descriptors: pattern + constraints + operation template.

use crate::op::{KernelFamily, KernelOp};
use gmc_expr::{Operand, OperandView, Property};
use gmc_pattern::{Bindings, Pattern, Var};
use std::fmt;

/// A side condition on a pattern match, evaluated on the bound operands
/// (the "Constraints" column of paper Table 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Constraint {
    /// The operand bound to the variable must have the property.
    Has(Var, Property),
    /// The operand bound to the variable must be a column vector.
    IsColVector(Var),
    /// The operand bound to the variable must not be a vector.
    IsNotVector(Var),
}

impl Constraint {
    /// Evaluates the constraint against a binding set.
    ///
    /// Unbound variables fail the constraint (a match that did not bind
    /// the variable cannot satisfy a condition on it).
    pub fn check(&self, bindings: &Bindings) -> bool {
        fn bound(bindings: &Bindings, v: Var) -> Option<&Operand> {
            bindings.get(v)
        }
        match self {
            Constraint::Has(v, p) => {
                bound(bindings, *v).is_some_and(|op| op.properties().contains(*p))
            }
            Constraint::IsColVector(v) => {
                bound(bindings, *v).is_some_and(|op| op.shape().is_col_vector())
            }
            Constraint::IsNotVector(v) => {
                bound(bindings, *v).is_some_and(|op| !op.shape().is_vector())
            }
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Has(v, p) => write!(f, "is {p}({v})"),
            Constraint::IsColVector(v) => write!(f, "is vector({v})"),
            Constraint::IsNotVector(v) => write!(f, "is matrix({v})"),
        }
    }
}

/// The operands a kernel match binds: the leaf bound to `?0` and,
/// unless the pattern repeats `?0` (`SYRK`), the leaf bound to `?1`.
///
/// Every kernel pattern is `op(?a) · op(?b)` over `?0`/`?1`, so this
/// `Copy` pair says all that a [`Bindings`] set would. `T` is what a
/// leaf is to the caller: an operand view while the DP costs
/// candidates, an `&Operand` when the winning operation is emitted.
#[derive(Clone, Copy, Debug)]
pub struct LeafBindings<T> {
    x: T,
    y: Option<T>,
}

impl<T: Copy> LeafBindings<T> {
    /// The pair binding `?0` to `x` and, if given, `?1` to `y`.
    pub fn new(x: T, y: Option<T>) -> Self {
        LeafBindings { x, y }
    }

    /// The leaf bound to `v`, if any.
    pub fn get(&self, v: Var) -> Option<T> {
        match v.index() {
            0 => Some(self.x),
            1 => self.y,
            _ => None,
        }
    }
}

/// How a kernel match attaches its pattern's variables to the two
/// leaves of a binary product. Fixed per kernel by its pattern, except
/// that [`Wiring::Same`] also needs both leaves to be one operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wiring {
    /// `?0` binds the left leaf, `?1` the right one.
    LeftRight,
    /// `?0` binds the right leaf, `?1` the left one.
    RightLeft,
    /// `?0` binds both leaves, which are the same operand (`SYRK`).
    Same,
}

impl Wiring {
    /// The bindings of a product whose leaves are `left` and `right`.
    pub fn bind<T: Copy>(self, left: T, right: T) -> LeafBindings<T> {
        match self {
            Wiring::LeftRight => LeafBindings::new(left, Some(right)),
            Wiring::RightLeft => LeafBindings::new(right, Some(left)),
            Wiring::Same => LeafBindings::new(left, None),
        }
    }
}

/// A computational kernel: an optimized routine for a well-defined
/// linear algebra problem (paper Sec. 1.1), described by a structural
/// [`Pattern`], property [`Constraint`]s, and its operation as a
/// template over the pattern's variables.
pub struct Kernel {
    name: String,
    family: KernelFamily,
    pattern: Pattern,
    constraints: Vec<Constraint>,
    specificity: u8,
    template: KernelOp<Var>,
}

impl Kernel {
    /// Creates a kernel descriptor. `template` is the kernel's operation
    /// with each operand replaced by the pattern variable that binds it.
    pub fn new(
        name: impl Into<String>,
        family: KernelFamily,
        pattern: Pattern,
        constraints: Vec<Constraint>,
        specificity: u8,
        template: KernelOp<Var>,
    ) -> Self {
        Kernel {
            name: name.into(),
            family,
            pattern,
            constraints,
            specificity,
            template,
        }
    }

    /// The kernel's name, e.g. `"TRMM_LLN"` (side, uplo, trans).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kernel's family.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// The structural pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The property constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// How specialized the kernel is; used to break cost ties in favor
    /// of the more specific routine (e.g. `GEMV` over `GEMM` for a
    /// matrix-vector product of identical FLOP count).
    pub fn specificity(&self) -> u8 {
        self.specificity
    }

    /// The [`Rank`] of this kernel, registered at `index`, as a
    /// candidate costing `cost`.
    pub fn rank<C>(&self, index: usize, cost: C) -> Rank<C> {
        Rank {
            cost,
            specificity: self.specificity,
            index,
        }
    }

    /// The kernel's operation over the leaves a match binds: operand
    /// views to cost it, operand references to emit it.
    ///
    /// # Panics
    ///
    /// If `binds` lacks a variable of the pattern.
    pub fn op<T: Copy>(&self, binds: LeafBindings<T>) -> KernelOp<T> {
        self.template
            .map(|&v| binds.get(v).expect("pattern binds its variables"))
    }

    /// Builds the kernel's operation over the operands a match binds.
    pub fn build(&self, binds: LeafBindings<&Operand>) -> KernelOp {
        self.op(binds).map(|&o| o.clone())
    }

    /// Instantiates the kernel for a binding set of the general matcher
    /// (`gmc_pattern`), as the reference solver matches.
    ///
    /// # Panics
    ///
    /// If `bindings` does not bind `?0`.
    pub fn instantiate(&self, bindings: &Bindings) -> KernelOp {
        let x = bindings.get(Var::new(0)).expect("every pattern binds ?0");
        self.build(LeafBindings::new(x, bindings.get(Var::new(1))))
    }
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({} : {}", self.name, self.pattern)?;
        for c in &self.constraints {
            write!(f, ", {c}")?;
        }
        write!(f, ")")
    }
}

/// A successful kernel match: the kernel plus the instantiated operation.
#[derive(Debug)]
pub struct KernelMatch<'r> {
    /// The matched kernel.
    pub kernel: &'r Kernel,
    /// The concrete operation (with operands and flags filled in).
    pub op: KernelOp,
}

impl KernelMatch<'_> {
    /// FLOP count of the instantiated operation.
    pub fn flops(&self) -> f64 {
        self.op.flops()
    }
}

/// A kernel selected for a binary product by
/// [`best_match`](crate::KernelRegistry::best_match): the kernel, how
/// it binds the two leaves, its operation over the leaves' views, and
/// the operation's metric cost, computed exactly once.
#[derive(Clone, Copy, Debug)]
pub struct ProductMatch<'r, C> {
    /// The matched kernel.
    pub kernel: &'r Kernel,
    /// The kernel's registration index.
    pub index: usize,
    /// How the kernel's variables bind the product's leaves.
    pub wiring: Wiring,
    /// The operation over the leaves' views.
    pub op: KernelOp<OperandView>,
    /// The metric cost of `op`.
    pub cost: C,
}

/// Where a kernel candidate stands among the kernels that compute the
/// same binary product: its cost, its kernel's
/// [`specificity`](Kernel::specificity) and its registration index.
#[derive(Clone, Copy, Debug)]
pub struct Rank<C> {
    /// The candidate's cost.
    pub cost: C,
    /// The kernel's specificity.
    pub specificity: u8,
    /// The kernel's position in its registry.
    pub index: usize,
}

impl<C: PartialOrd> Rank<C> {
    /// The within-split rule of the GMC DP, written once for every
    /// selection: the lower cost wins; at equal cost the more specific
    /// kernel wins, then the earlier registered one. Costs that do not
    /// compare count as equal.
    pub fn beats(&self, other: &Rank<C>) -> bool {
        use std::cmp::Ordering;
        let ord = other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then(self.specificity.cmp(&other.specificity));
        ord == Ordering::Greater || (ord == Ordering::Equal && self.index < other.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::Operand;

    #[test]
    fn constraint_checks() {
        let x = Var::new(0);
        let lo = Operand::square("L", 4).with_property(Property::LowerTriangular);
        let mut b = Bindings::new();
        b.bind(x, &lo);
        assert!(Constraint::Has(x, Property::LowerTriangular).check(&b));
        assert!(!Constraint::Has(x, Property::Diagonal).check(&b));
        assert!(!Constraint::IsColVector(x).check(&b));
        assert!(Constraint::IsNotVector(x).check(&b));

        let v = Operand::col_vector("v", 4);
        let mut b = Bindings::new();
        b.bind(x, &v);
        assert!(Constraint::IsColVector(x).check(&b));
        assert!(!Constraint::IsNotVector(x).check(&b));
    }

    #[test]
    fn unbound_variable_fails_constraints() {
        let x = Var::new(0);
        let b = Bindings::new();
        assert!(!Constraint::Has(x, Property::Symmetric).check(&b));
        assert!(!Constraint::IsColVector(x).check(&b));
    }

    #[test]
    fn constraint_display() {
        let x = Var::new(0);
        let c = Constraint::Has(x, Property::LowerTriangular);
        assert_eq!(c.to_string(), "is LowerTriangular(?0)");
    }
}
