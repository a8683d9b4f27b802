//! Execution environments: concrete matrices bound to operand names.

use gmc_expr::{Chain, Operand, Property};
use gmc_linalg::{random, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A mapping from operand names to concrete matrices.
///
/// # Example
///
/// ```
/// use gmc_expr::{Chain, Factor, Operand, Property};
/// use gmc_runtime::Env;
///
/// # fn main() -> Result<(), gmc_expr::ExprError> {
/// let l = Operand::square("L", 8).with_property(Property::LowerTriangular);
/// let b = Operand::matrix("B", 8, 3);
/// let chain = Chain::new(vec![Factor::inverted(l), Factor::plain(b)])?;
/// let env = Env::random_for_chain(&chain, 42);
/// assert!(env.get("L").unwrap().is_lower_triangular(0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Env {
    values: HashMap<String, Matrix>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Binds a matrix to a name, replacing any existing binding.
    pub fn bind(&mut self, name: impl Into<String>, value: Matrix) {
        self.values.insert(name.into(), value);
    }

    /// The matrix bound to `name`.
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.values.get(name)
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Creates an environment with a random matrix for every input
    /// operand of `chain`, honoring each operand's declared properties
    /// (a lower-triangular operand gets a genuinely lower-triangular,
    /// well-conditioned matrix, and so on). Deterministic per seed.
    pub fn random_for_chain(chain: &Chain, seed: u64) -> Env {
        let mut env = Env::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for factor in chain.factors() {
            let op = factor.operand();
            if env.get(op.name()).is_none() {
                env.bind(op.name(), materialize(op, &mut rng));
            }
        }
        env
    }
}

/// Generates a concrete matrix realizing the operand's declared
/// properties. Square operands without structure are made comfortably
/// invertible so that chains containing inverses are well posed.
pub fn materialize(op: &Operand, rng: &mut StdRng) -> Matrix {
    let shape = op.shape();
    let (r, c) = (shape.rows(), shape.cols());
    let p = op.properties();
    if p.contains(Property::Identity) {
        return Matrix::identity(r);
    }
    if p.contains(Property::Zero) {
        return Matrix::zeros(r, c);
    }
    if p.contains(Property::Permutation) {
        return random::permutation(rng, r);
    }
    if p.contains(Property::Diagonal) {
        return random::diagonal(rng, r);
    }
    if p.contains(Property::Orthogonal) {
        return random::orthogonal(rng, r);
    }
    if p.contains(Property::SymmetricPositiveDefinite) {
        return random::spd(rng, r);
    }
    if p.contains(Property::LowerTriangular) {
        return if p.contains(Property::UnitDiagonal) {
            random::unit_lower_triangular(rng, r)
        } else {
            random::lower_triangular(rng, r)
        };
    }
    if p.contains(Property::UpperTriangular) {
        return if p.contains(Property::UnitDiagonal) {
            random::unit_lower_triangular(rng, r).transposed()
        } else {
            random::upper_triangular(rng, r)
        };
    }
    if p.contains(Property::Symmetric) {
        return random::symmetric(rng, r);
    }
    if r == c {
        random::invertible(rng, r)
    } else {
        random::general(rng, r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{Factor, Shape};

    #[test]
    fn bind_and_get() {
        let mut env = Env::new();
        env.bind("A", Matrix::identity(3));
        assert!(env.get("A").is_some());
        assert!(env.get("B").is_none());
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn materialize_honors_properties() {
        type Check = (Operand, Box<dyn Fn(&Matrix) -> bool>);
        let mut rng = StdRng::seed_from_u64(1);
        let checks: Vec<Check> = vec![
            (
                Operand::square("I", 5).with_property(Property::Identity),
                Box::new(|m: &Matrix| m == &Matrix::identity(5)),
            ),
            (
                Operand::square("L", 5).with_property(Property::LowerTriangular),
                Box::new(|m: &Matrix| m.is_lower_triangular(0.0)),
            ),
            (
                Operand::square("U", 5).with_property(Property::UpperTriangular),
                Box::new(|m: &Matrix| m.is_upper_triangular(0.0)),
            ),
            (
                Operand::square("S", 5).with_property(Property::Symmetric),
                Box::new(|m: &Matrix| m.is_symmetric(1e-12)),
            ),
            (
                Operand::square("P", 5).with_property(Property::SymmetricPositiveDefinite),
                Box::new(|m: &Matrix| {
                    let mut c = m.clone();
                    gmc_linalg::lapack::potrf(&mut c).is_ok()
                }),
            ),
            (
                Operand::square("D", 5).with_property(Property::Diagonal),
                Box::new(|m: &Matrix| m.is_diagonal(0.0)),
            ),
        ];
        for (op, check) in checks {
            let m = materialize(&op, &mut rng);
            assert!(check(&m), "materialization of {op:?} violates property");
        }
    }

    #[test]
    fn unit_triangular_materialization() {
        let mut rng = StdRng::seed_from_u64(2);
        let op = Operand::square("L", 6)
            .with_properties([Property::LowerTriangular, Property::UnitDiagonal]);
        let m = materialize(&op, &mut rng);
        assert!(m.is_lower_triangular(0.0));
        assert!(m.diagonal().iter().all(|&d| d == 1.0));
    }

    #[test]
    fn random_for_chain_shares_repeated_operands() {
        let a = Operand::square("A", 4);
        let chain = Chain::new(vec![
            Factor::transposed(a.clone()),
            Factor::plain(a.clone()),
        ])
        .unwrap();
        let env = Env::random_for_chain(&chain, 7);
        assert_eq!(env.len(), 1);
        assert_eq!(env.get("A").unwrap().shape(), (4, 4));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Operand::matrix("A", 3, 4);
        let b = Operand::matrix("B", 4, 2);
        let chain = Chain::new(vec![Factor::plain(a), Factor::plain(b)]).unwrap();
        let e1 = Env::random_for_chain(&chain, 5);
        let e2 = Env::random_for_chain(&chain, 5);
        assert_eq!(e1.get("A").unwrap(), e2.get("A").unwrap());
        let e3 = Env::random_for_chain(&chain, 6);
        assert_ne!(e1.get("A").unwrap(), e3.get("A").unwrap());
    }

    #[test]
    fn vector_operands() {
        let v = Operand::col_vector("v", 7);
        let mut rng = StdRng::seed_from_u64(3);
        let m = materialize(&v, &mut rng);
        assert_eq!(m.shape(), (7, 1));
        let w = Operand::with_shape("w", Shape::row_vector(7));
        let m = materialize(&w, &mut rng);
        assert_eq!(m.shape(), (1, 7));
    }
}
