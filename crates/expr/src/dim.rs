//! Symbolic matrix dimensions.
//!
//! A [`Dim`] is either a concrete size (`Const`) or a size *variable*
//! (`Var`), following the symbolic generalization of the GMC problem
//! ("Compilation of Generalized Matrix Chains with Symbolic Sizes"):
//! a chain whose operand dimensions are variables can be compiled once
//! and instantiated for many concrete size assignments.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned dimension variable, e.g. the `n` of `Matrix A (n, m)`.
///
/// Variables are identified by name and interned process-wide, so
/// `DimVar` is a cheap `Copy` handle: two variables with the same name
/// are the same variable.
///
/// # Example
///
/// ```
/// use gmc_expr::DimVar;
///
/// let n = DimVar::new("n");
/// assert_eq!(n, DimVar::new("n"));
/// assert_ne!(n, DimVar::new("m"));
/// assert_eq!(n.name(), "n");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DimVar(pub(crate) u32);

struct Interner {
    names: Vec<&'static str>,
    ids: std::collections::HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            ids: std::collections::HashMap::new(),
        })
    })
}

/// The interner holds no invariants that a panic could break (it only
/// ever appends), so a poisoned lock is safe to recover.
fn lock_interner() -> std::sync::MutexGuard<'static, Interner> {
    interner().lock().unwrap_or_else(|e| e.into_inner())
}

impl DimVar {
    /// Interns `name` and returns its variable handle.
    ///
    /// Interning is process-wide and permanent: each *distinct* name
    /// costs one allocation for the lifetime of the process. Servers
    /// accepting untrusted input should therefore draw variable names
    /// from a bounded vocabulary (or reject unbounded fresh names)
    /// rather than interning arbitrary per-request strings.
    pub fn new(name: &str) -> DimVar {
        let mut i = lock_interner();
        if let Some(&id) = i.ids.get(name) {
            return DimVar(id);
        }
        // One allocation per distinct variable name, retained for the
        // process lifetime (this *is* the interner's storage).
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = i.names.len() as u32;
        i.names.push(leaked);
        i.ids.insert(leaked, id);
        DimVar(id)
    }

    /// The variable's name.
    pub fn name(&self) -> &'static str {
        lock_interner().names[self.0 as usize]
    }
}

impl fmt::Debug for DimVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DimVar({})", self.name())
    }
}

impl fmt::Display for DimVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The largest admitted dimension, 2^32. Every size from 1 to this
/// bound is admitted everywhere a size enters the system: one kernel
/// then costs under 2^100 thirds of a FLOP. [`Dim::bind`] refuses a
/// larger size the way it refuses zero.
pub const MAX_DIM: usize = 1 << 32;

/// A matrix dimension: a concrete size or a size variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    /// A concrete size.
    Const(usize),
    /// A symbolic size variable.
    Var(DimVar),
}

impl Dim {
    /// A variable dimension by name (interned).
    pub fn var(name: &str) -> Dim {
        Dim::Var(DimVar::new(name))
    }

    /// The concrete value, if this dimension is a constant.
    pub fn as_const(&self) -> Option<usize> {
        match self {
            Dim::Const(v) => Some(*v),
            Dim::Var(_) => None,
        }
    }

    /// Whether this dimension is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Dim::Var(_))
    }

    /// Resolves the dimension under `bindings`.
    ///
    /// # Errors
    ///
    /// [`DimError::UnboundVar`] if the dimension is an unbound variable,
    /// [`DimError::ZeroDim`] if it resolves to zero,
    /// [`DimError::TooLarge`] if it resolves above [`MAX_DIM`].
    pub fn bind(&self, bindings: &DimBindings) -> Result<usize, DimError> {
        let v = match self {
            Dim::Const(v) => *v,
            Dim::Var(var) => bindings.get(*var).ok_or(DimError::UnboundVar(*var))?,
        };
        match v {
            0 => Err(DimError::ZeroDim(*self)),
            v if v > MAX_DIM => Err(DimError::TooLarge(*self, v)),
            v => Ok(v),
        }
    }
}

impl From<usize> for Dim {
    fn from(v: usize) -> Dim {
        Dim::Const(v)
    }
}

impl From<DimVar> for Dim {
    fn from(v: DimVar) -> Dim {
        Dim::Var(v)
    }
}

impl fmt::Debug for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Const(v) => write!(f, "{v}"),
            Dim::Var(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Const(v) => write!(f, "{v}"),
            Dim::Var(v) => write!(f, "{v}"),
        }
    }
}

/// An assignment of concrete sizes to dimension variables.
///
/// # Example
///
/// ```
/// use gmc_expr::{Dim, DimBindings};
///
/// let b = DimBindings::new().with("n", 100).with("m", 50);
/// assert_eq!(Dim::var("n").bind(&b), Ok(100));
/// assert!(Dim::var("q").bind(&b).is_err());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct DimBindings {
    values: BTreeMap<DimVar, usize>,
}

impl DimBindings {
    /// An empty binding set.
    pub fn new() -> Self {
        DimBindings::default()
    }

    /// Binds a variable (by name) to a value.
    pub fn set(&mut self, name: &str, value: usize) {
        self.values.insert(DimVar::new(name), value);
    }

    /// Binds a variable handle to a value.
    pub fn set_var(&mut self, var: DimVar, value: usize) {
        self.values.insert(var, value);
    }

    /// Builder-style [`set`](Self::set).
    #[must_use]
    pub fn with(mut self, name: &str, value: usize) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up a variable's value.
    pub fn get(&self, var: DimVar) -> Option<usize> {
        self.values.get(&var).copied()
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (DimVar, usize)> + '_ {
        self.values.iter().map(|(v, s)| (*v, *s))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for DimBindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, s)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}={s}")?;
        }
        write!(f, "}}")
    }
}

/// Errors produced when resolving symbolic dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DimError {
    /// A dimension variable has no binding.
    UnboundVar(DimVar),
    /// A dimension resolved to zero (empty matrices are not meaningful
    /// chain operands).
    ZeroDim(Dim),
    /// A dimension resolved to the given size, above [`MAX_DIM`].
    TooLarge(Dim, usize),
}

impl fmt::Display for DimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimError::UnboundVar(v) => write!(f, "dimension variable `{v}` is not bound"),
            DimError::ZeroDim(d) => write!(f, "dimension `{d}` resolved to zero"),
            DimError::TooLarge(d, v) => {
                write!(f, "dimension `{d}` resolved to {v}, above the maximum 2^32")
            }
        }
    }
}

impl std::error::Error for DimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = DimVar::new("alpha");
        let b = DimVar::new("alpha");
        assert_eq!(a, b);
        assert_eq!(a.name(), "alpha");
        assert_ne!(a, DimVar::new("beta"));
    }

    #[test]
    fn dim_binding() {
        let b = DimBindings::new().with("n", 7);
        assert_eq!(Dim::Const(3).bind(&b), Ok(3));
        assert_eq!(Dim::var("n").bind(&b), Ok(7));
        assert_eq!(
            Dim::var("zz_unbound").bind(&b),
            Err(DimError::UnboundVar(DimVar::new("zz_unbound")))
        );
        let z = DimBindings::new().with("n", 0);
        assert!(matches!(Dim::var("n").bind(&z), Err(DimError::ZeroDim(_))));
        assert!(matches!(Dim::Const(0).bind(&b), Err(DimError::ZeroDim(_))));
        let edge = DimBindings::new().with("n", MAX_DIM);
        assert_eq!(Dim::var("n").bind(&edge), Ok(1 << 32));
        let over = DimBindings::new().with("n", MAX_DIM + 1);
        assert_eq!(
            Dim::var("n").bind(&over),
            Err(DimError::TooLarge(Dim::var("n"), (1 << 32) + 1))
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Dim::Const(12).to_string(), "12");
        assert_eq!(Dim::var("n").to_string(), "n");
        let b = DimBindings::new().with("m", 5).with("n", 9);
        let s = b.to_string();
        assert!(s.contains("m=5") && s.contains("n=9"));
    }
}
