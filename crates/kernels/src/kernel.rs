//! Kernel descriptors: pattern + constraints + cost + instantiation.

use crate::op::{KernelFamily, KernelOp};
use gmc_expr::{Operand, Property};
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

/// The operands a kernel match binds, by reference: the leaf bound to
/// `?0` and, unless the pattern repeats `?0` (`SYRK`), the leaf bound
/// to `?1`.
///
/// Every kernel pattern is `op(?a) · op(?b)` over `?0`/`?1`, so this
/// `Copy` view says all that a [`Bindings`] set would, without cloning
/// an operand; only the [`KernelOp`] a builder returns owns operands.
#[derive(Clone, Copy, Debug)]
pub struct LeafBindings<'a> {
    x: &'a Operand,
    y: Option<&'a Operand>,
}

impl<'a> LeafBindings<'a> {
    /// The view binding `?0` to `x` and, if given, `?1` to `y`.
    pub fn new(x: &'a Operand, y: Option<&'a Operand>) -> Self {
        LeafBindings { x, y }
    }

    /// The operand bound to `v`, if any.
    pub fn get(&self, v: Var) -> Option<&'a Operand> {
        match v.index() {
            0 => Some(self.x),
            1 => self.y,
            _ => None,
        }
    }
}

/// Builds a concrete [`KernelOp`] from the operands bound by a match.
pub type OpBuilder = Box<dyn Fn(LeafBindings<'_>) -> KernelOp + Send + Sync>;

/// A computational kernel: an optimized routine for a well-defined
/// linear algebra problem (paper Sec. 1.1), described by a structural
/// [`Pattern`], property [`Constraint`]s, and an instantiation function.
pub struct Kernel {
    name: String,
    family: KernelFamily,
    pattern: Pattern,
    constraints: Vec<Constraint>,
    specificity: u8,
    builder: OpBuilder,
}

impl Kernel {
    /// Creates a kernel descriptor.
    pub fn new(
        name: impl Into<String>,
        family: KernelFamily,
        pattern: Pattern,
        constraints: Vec<Constraint>,
        specificity: u8,
        builder: OpBuilder,
    ) -> Self {
        Kernel {
            name: name.into(),
            family,
            pattern,
            constraints,
            specificity,
            builder,
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

    /// Builds the kernel's operation over the operands a match binds.
    pub fn build(&self, binds: LeafBindings<'_>) -> KernelOp {
        (self.builder)(binds)
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
/// [`best_product_match`](crate::KernelRegistry::best_product_match):
/// a [`KernelMatch`] with the metric cost of the instantiated operation
/// computed exactly once and threaded along, instead of being
/// re-evaluated per comparison and once more by the caller.
#[derive(Debug)]
pub struct ProductMatch<'r, C> {
    /// The matched kernel.
    pub kernel: &'r Kernel,
    /// The concrete operation (with operands and flags filled in).
    pub op: KernelOp,
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
