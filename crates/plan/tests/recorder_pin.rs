//! Pins the recorder's output: a fixed, seeded set of symbolic chains
//! is recorded in both inference modes, and the summed cell
//! classification and a digest of the plan-store snapshot must equal
//! the recorded constants. A change to how cells are classified or
//! serialized shows up here; one made on purpose updates the constants.

use gmc::InferenceMode;
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanSummary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// `U Uᵀ D⁻¹ S⁻¹ S Uᵀ` over `n × n` operands (U upper triangular, D
/// diagonal, S symmetric): the aliased factors make some cells'
/// temporaries split-dependent, so compositional inference leaves
/// Dynamic cells.
fn aliased_chain() -> SymChain {
    let n = Dim::var("rp_n");
    let u = SymOperand::square("U", n)
        .with_property(Property::UpperTriangular)
        .unwrap();
    let d = SymOperand::square("D", n)
        .with_property(Property::Diagonal)
        .unwrap();
    let s = SymOperand::square("S", n)
        .with_property(Property::Symmetric)
        .unwrap();
    SymChain::new(vec![
        SymFactor::new(u.clone(), UnaryOp::None),
        SymFactor::new(u.clone(), UnaryOp::Transpose),
        SymFactor::new(d, UnaryOp::Inverse),
        SymFactor::new(s.clone(), UnaryOp::Inverse),
        SymFactor::new(s, UnaryOp::None),
        SymFactor::new(u, UnaryOp::Transpose),
    ])
    .unwrap()
}

/// A random symbolic chain: constant and variable boundary dimensions,
/// transposes, inverses and properties, and square factors that
/// sometimes reuse an earlier square operand of the same dimension.
fn random_chain(rng: &mut StdRng) -> SymChain {
    if rng.gen_bool(0.5) {
        return random_square_chain(rng);
    }
    let n = rng.gen_range(2..=7usize);
    let pool = ["rp_a", "rp_b", "rp_c"];
    let dims: Vec<Dim> = (0..=n)
        .map(|_| {
            if rng.gen_bool(0.3) {
                Dim::Const(if rng.gen_bool(0.2) {
                    1
                } else {
                    rng.gen_range(2..=6usize) * 10
                })
            } else {
                Dim::var(pool[rng.gen_range(0..pool.len())])
            }
        })
        .collect();
    let mut squares: Vec<SymOperand> = Vec::new();
    let factors = (0..n)
        .map(|i| {
            let (r, c) = (dims[i], dims[i + 1]);
            if r == c {
                let reusable: Vec<&SymOperand> =
                    squares.iter().filter(|o| o.shape().rows() == r).collect();
                if !reusable.is_empty() && rng.gen_bool(0.5) {
                    let op = reusable[rng.gen_range(0..reusable.len())].clone();
                    let unary = [
                        UnaryOp::None,
                        UnaryOp::Transpose,
                        UnaryOp::Inverse,
                        UnaryOp::InverseTranspose,
                    ][rng.gen_range(0..4usize)];
                    return SymFactor::new(op, unary);
                }
                let mut op = SymOperand::square(format!("M{i}"), r);
                if rng.gen_bool(0.6) {
                    let p = [
                        Property::Diagonal,
                        Property::LowerTriangular,
                        Property::UpperTriangular,
                        Property::Symmetric,
                        Property::SymmetricPositiveDefinite,
                    ][rng.gen_range(0..5usize)];
                    op = op.with_property(p).unwrap();
                }
                squares.push(op.clone());
                let unary = if rng.gen_bool(0.3) {
                    UnaryOp::Inverse
                } else {
                    UnaryOp::None
                };
                SymFactor::new(op, unary)
            } else if rng.gen_bool(0.25) {
                SymFactor::new(SymOperand::new(format!("M{i}"), c, r), UnaryOp::Transpose)
            } else {
                SymFactor::plain(SymOperand::new(format!("M{i}"), r, c))
            }
        })
        .collect();
    SymChain::new(factors).unwrap()
}

/// A random chain of `n × n` factors drawn from six operands, one per
/// property (and one without), each under any unary operator.
fn random_square_chain(rng: &mut StdRng) -> SymChain {
    let n = Dim::var("rp_n");
    let pool: Vec<SymOperand> = [
        None,
        Some(Property::Diagonal),
        Some(Property::LowerTriangular),
        Some(Property::UpperTriangular),
        Some(Property::Symmetric),
        Some(Property::SymmetricPositiveDefinite),
    ]
    .into_iter()
    .zip(["G", "D", "L", "U", "S", "P"])
    .map(|(p, name)| {
        let op = SymOperand::square(name, n);
        match p {
            Some(p) => op.with_property(p).unwrap(),
            None => op,
        }
    })
    .collect();
    let factors = (0..rng.gen_range(3..=7usize))
        .map(|_| {
            let unary = [
                UnaryOp::None,
                UnaryOp::Transpose,
                UnaryOp::Inverse,
                UnaryOp::InverseTranspose,
            ][rng.gen_range(0..4usize)];
            SymFactor::new(pool[rng.gen_range(0..pool.len())].clone(), unary)
        })
        .collect();
    SymChain::new(factors).unwrap()
}

/// Records the fixed workload into a fresh cache and returns the summed
/// classification of every recorded region, the snapshot digest, and
/// the classification of the aliased chain at n = 50.
fn record(mode: InferenceMode) -> (PlanSummary, u64, PlanSummary) {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry, mode);
    let mut rng = StdRng::seed_from_u64(0x0e_c0de);
    let sizes = [1usize, 2, 3, 7, 10, 40, 100];
    let mut chains: Vec<SymChain> = (0..120).map(|_| random_chain(&mut rng)).collect();
    chains.push(aliased_chain());
    let mut total = PlanSummary::default();
    for chain in &chains {
        for _ in 0..3 {
            let mut b = DimBindings::new();
            for v in chain.vars() {
                b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
            }
            let hits = cache.stats().hits;
            // Uncomputable chains are recorded (and pinned) too.
            let _ = cache.solve(chain, &b);
            if cache.stats().hits == hits {
                let s = cache.region_summary(chain, &b).unwrap();
                total.resolved += s.resolved;
                total.deferred += s.deferred;
                total.dynamic += s.dynamic;
                total.unsolvable += s.unsolvable;
            }
        }
    }
    let aliased = chains.last().expect("the aliased chain is last");
    let at_50 = DimBindings::new().with("rp_n", 50);
    cache.solve(aliased, &at_50).unwrap();
    let aliased = cache.region_summary(aliased, &at_50).unwrap();
    (total, fnv1a64(cache.snapshot_json().as_bytes()), aliased)
}

#[test]
fn compositional_recording_is_pinned() {
    let (total, digest, aliased) = record(InferenceMode::Compositional);
    assert!(aliased.dynamic >= 1, "{aliased}");
    let want = PlanSummary {
        resolved: 1232,
        deferred: 1084,
        dynamic: 13,
        unsolvable: 0,
    };
    assert_eq!(total, want);
    assert_eq!(
        digest, 0x4e04_6011_d52e_a92f,
        "snapshot digest {digest:#018x}"
    );
}

#[test]
fn deep_recording_is_pinned() {
    let (total, digest, _) = record(InferenceMode::Deep);
    let want = PlanSummary {
        resolved: 1232,
        deferred: 1097,
        dynamic: 0,
        unsolvable: 0,
    };
    assert_eq!(total, want);
    assert_eq!(
        digest, 0x7a14_f74c_7a14_5ce7,
        "snapshot digest {digest:#018x}"
    );
}
