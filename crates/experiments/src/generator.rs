//! Random test-problem generation following the paper's protocol
//! (Sec. 4): chains of length uniform in `[3, 10]`, matrix sizes uniform
//! in `{50, 100, …, 2000}`, a mix of square and rectangular matrices and
//! vectors, random transposition/inversion, and at most one of the five
//! properties {diagonal, lower/upper triangular, symmetric, SPD} per
//! operand.

use gmc_expr::{Chain, Factor, Operand, Property, Shape, UnaryOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the random chain generator.
///
/// `Default` reproduces the paper's parameters, except that
/// `size_max` defaults to the paper's 2000 — measured experiment
/// drivers pass a smaller value ([`GeneratorConfig::measured_scale`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Inclusive chain length range (paper: 3..=10).
    pub len_min: usize,
    /// Inclusive upper bound of the chain length.
    pub len_max: usize,
    /// Smallest matrix dimension (paper: 50).
    pub size_min: usize,
    /// Largest matrix dimension (paper: 2000).
    pub size_max: usize,
    /// Dimension step (paper: 50).
    pub size_step: usize,
    /// Probability that a factor is transposed.
    pub p_transpose: f64,
    /// Probability that a (square, non-vector) factor is inverted.
    pub p_inverse: f64,
    /// Probability that a square operand gets one of the five
    /// properties.
    pub p_property: f64,
    /// Probability that a dimension boundary is 1 (producing vectors).
    pub p_vector: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            len_min: 3,
            len_max: 10,
            size_min: 50,
            size_max: 2000,
            size_step: 50,
            p_transpose: 0.25,
            p_inverse: 0.2,
            p_property: 0.6,
            p_vector: 0.1,
        }
    }
}

impl GeneratorConfig {
    /// The paper's configuration with a reduced size range, suitable for
    /// *measured* experiments on the pure-Rust substrate.
    pub fn measured_scale() -> Self {
        GeneratorConfig {
            size_max: 300,
            ..GeneratorConfig::default()
        }
    }

    fn random_dim(&self, rng: &mut StdRng) -> usize {
        if rng.gen_bool(self.p_vector) {
            return 1;
        }
        let steps = (self.size_max - self.size_min) / self.size_step;
        self.size_min + rng.gen_range(0..=steps) * self.size_step
    }
}

/// A serializable description of one generated test problem, so that
/// experiment runs are reproducible and figures can be regenerated from
/// a saved problem set.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct ChainSpec {
    /// The factors, in order.
    pub factors: Vec<FactorSpec>,
}

/// One factor of a [`ChainSpec`].
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq, Eq)]
pub struct FactorSpec {
    /// Operand name.
    pub name: String,
    /// Rows of the (un-transposed) operand.
    pub rows: usize,
    /// Columns of the (un-transposed) operand.
    pub cols: usize,
    /// `""`, `"T"`, `"-1"` or `"-T"`.
    pub op: String,
    /// Property names (paper Fig. 2 spelling).
    pub properties: Vec<String>,
}

impl ChainSpec {
    /// Reconstructs the chain.
    ///
    /// # Panics
    ///
    /// Panics if the spec is internally inconsistent (only possible for
    /// hand-edited specs).
    pub fn to_chain(&self) -> Chain {
        let factors: Vec<Factor> = self
            .factors
            .iter()
            .map(|f| {
                let mut operand = Operand::with_shape(&f.name, Shape::new(f.rows, f.cols));
                for p in &f.properties {
                    operand = operand.with_property(p.parse::<Property>().expect("valid property"));
                }
                let op = match f.op.as_str() {
                    "" => UnaryOp::None,
                    "T" => UnaryOp::Transpose,
                    "-1" => UnaryOp::Inverse,
                    "-T" => UnaryOp::InverseTranspose,
                    other => panic!("unknown unary op {other:?}"),
                };
                Factor::new(operand, op)
            })
            .collect();
        Chain::new(factors).expect("spec describes a well-formed chain")
    }

    /// Creates a spec from a chain.
    pub fn from_chain(chain: &Chain) -> Self {
        ChainSpec {
            factors: chain
                .factors()
                .iter()
                .map(|f| FactorSpec {
                    name: f.operand().name().to_owned(),
                    rows: f.operand().shape().rows(),
                    cols: f.operand().shape().cols(),
                    op: match f.op() {
                        UnaryOp::None => "",
                        UnaryOp::Transpose => "T",
                        UnaryOp::Inverse => "-1",
                        UnaryOp::InverseTranspose => "-T",
                    }
                    .to_owned(),
                    properties: f
                        .operand()
                        .properties()
                        .iter()
                        .map(|p| p.name().to_owned())
                        .collect(),
                })
                .collect(),
        }
    }
}

/// The five properties the paper's generator draws from.
const PAPER_PROPERTIES: [Property; 5] = [
    Property::Diagonal,
    Property::LowerTriangular,
    Property::UpperTriangular,
    Property::Symmetric,
    Property::SymmetricPositiveDefinite,
];

/// Generates one random chain (deterministic in `rng`).
pub fn random_chain(config: &GeneratorConfig, rng: &mut StdRng) -> Chain {
    let n = rng.gen_range(config.len_min..=config.len_max);
    // Boundary sizes s[0..=n]; factor i is s[i] × s[i+1] before its own
    // transposition. Consecutive 1s would create scalars — redraw.
    let mut sizes = Vec::with_capacity(n + 1);
    sizes.push(config.random_dim(rng));
    for i in 1..=n {
        let mut s = config.random_dim(rng);
        while s == 1 && sizes[i - 1] == 1 {
            s = config.random_dim(rng);
        }
        sizes.push(s);
    }

    let mut factors = Vec::with_capacity(n);
    for i in 0..n {
        let (rows, cols) = (sizes[i], sizes[i + 1]);
        let square = rows == cols && rows > 1;
        let inverted = square && rng.gen_bool(config.p_inverse);
        let transposed = rng.gen_bool(config.p_transpose);
        // The stored operand shape: if the chain uses Mᵀ at slot
        // (rows × cols), the operand itself is (cols × rows).
        let shape = if transposed {
            Shape::new(cols, rows)
        } else {
            Shape::new(rows, cols)
        };
        let mut operand = Operand::with_shape(format!("M{i}"), shape);
        if shape.is_square() && shape.rows() > 1 && rng.gen_bool(config.p_property) {
            let p = PAPER_PROPERTIES[rng.gen_range(0..PAPER_PROPERTIES.len())];
            operand = operand.with_property(p);
        }
        let op = match (transposed, inverted) {
            (false, false) => UnaryOp::None,
            (true, false) => UnaryOp::Transpose,
            (false, true) => UnaryOp::Inverse,
            (true, true) => UnaryOp::InverseTranspose,
        };
        factors.push(Factor::new(operand, op));
    }
    Chain::new(factors).expect("generator produces well-formed chains")
}

/// Generates the paper's test set: `count` random chains from a seed.
pub fn random_chains(config: &GeneratorConfig, count: usize, seed: u64) -> Vec<Chain> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| random_chain(config, &mut rng)).collect()
}

/// Saves a chain set as JSON so an experiment run can be reproduced
/// exactly (and figures regenerated from the recorded problems).
///
/// # Errors
///
/// Returns an I/O error if the file cannot be written.
pub fn save_chains(path: &std::path::Path, chains: &[Chain]) -> std::io::Result<()> {
    let specs: Vec<ChainSpec> = chains.iter().map(ChainSpec::from_chain).collect();
    let json = serde_json::to_string_pretty(&specs).expect("specs serialize");
    std::fs::write(path, json)
}

/// Loads a chain set saved by [`save_chains`].
///
/// # Errors
///
/// Returns an I/O error if the file cannot be read or an
/// `InvalidData` error if it does not contain a valid chain set.
pub fn load_chains(path: &std::path::Path) -> std::io::Result<Vec<Chain>> {
    let json = std::fs::read_to_string(path)?;
    let specs: Vec<ChainSpec> = serde_json::from_str(&json)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    Ok(specs.iter().map(ChainSpec::to_chain).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_are_well_formed_and_in_range() {
        let config = GeneratorConfig::default();
        let chains = random_chains(&config, 50, 1);
        for chain in &chains {
            assert!(chain.len() >= 3 && chain.len() <= 10);
            for f in chain.factors() {
                let s = f.operand().shape();
                assert!(s.rows() <= 2000 && s.cols() <= 2000);
                if f.op().is_inverted() {
                    assert!(s.is_square());
                }
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let config = GeneratorConfig::default();
        let a = random_chains(&config, 10, 7);
        let b = random_chains(&config, 10, 7);
        assert_eq!(a, b);
        let c = random_chains(&config, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn generator_produces_variety() {
        let config = GeneratorConfig::default();
        let chains = random_chains(&config, 100, 42);
        let any_inverse = chains
            .iter()
            .any(|c| c.factors().iter().any(|f| f.op().is_inverted()));
        let any_transpose = chains
            .iter()
            .any(|c| c.factors().iter().any(|f| f.op().is_transposed()));
        let any_property = chains.iter().any(|c| {
            c.factors()
                .iter()
                .any(|f| !f.operand().properties().is_empty())
        });
        let any_vector = chains
            .iter()
            .any(|c| c.factors().iter().any(|f| f.operand().shape().is_vector()));
        assert!(any_inverse && any_transpose && any_property && any_vector);
    }

    #[test]
    fn spec_round_trip() {
        let config = GeneratorConfig::measured_scale();
        let chains = random_chains(&config, 20, 3);
        for chain in &chains {
            let spec = ChainSpec::from_chain(chain);
            let back = spec.to_chain();
            assert_eq!(&back, chain);
            // JSON round trip too.
            let json = serde_json::to_string(&spec).unwrap();
            let parsed: ChainSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, spec);
        }
    }

    #[test]
    fn save_load_round_trip() {
        let config = GeneratorConfig::measured_scale();
        let chains = random_chains(&config, 10, 13);
        let path = std::env::temp_dir().join("gmc_chains_test.json");
        save_chains(&path, &chains).unwrap();
        let back = load_chains(&path).unwrap();
        assert_eq!(back, chains);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn no_scalar_operands() {
        let config = GeneratorConfig {
            p_vector: 0.8,
            ..GeneratorConfig::measured_scale()
        };
        let chains = random_chains(&config, 50, 9);
        for chain in &chains {
            for f in chain.factors() {
                assert!(!f.operand().shape().is_scalar());
            }
        }
    }
}
