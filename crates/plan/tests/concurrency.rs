//! Thread-stress test of the shared plan cache: N threads × mixed
//! structures × mixed bindings, asserting (a) every served solution is
//! bit-identical to a from-scratch concrete solve, (b) no update is
//! lost and no recording is duplicated — each (structure, region) pair
//! is recorded exactly once no matter how many threads miss on it
//! concurrently — and (c) the regions do not depend on the order the
//! requests arrive in: a sequential replay of the same requests records
//! the same regions, byte for byte.

use gmc::{FlopCount, GmcOptimizer, GmcSolution, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::{Flops, KernelRegistry};
use gmc_plan::PlanCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

/// The mixed workload: three distinct structures with several size
/// regions each.
fn workload() -> Vec<(SymChain, Vec<DimBindings>)> {
    let (n, m, k) = (Dim::var("cc_n"), Dim::var("cc_m"), Dim::var("cc_k"));

    let dense = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let dense_binds = [
        (10, 200, 30),
        (12, 240, 36),
        (300, 20, 100),
        (5, 5, 5),
        (1, 50, 20),
        (1000, 500, 2000),
    ]
    .iter()
    .map(|&(nv, mv, kv)| {
        DimBindings::new()
            .with("cc_n", nv)
            .with("cc_m", mv)
            .with("cc_k", kv)
    })
    .collect();

    let spd = SymOperand::square("S", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let tri = SymOperand::square("L", m)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let structured = SymChain::new(vec![
        SymFactor::new(spd, UnaryOp::Inverse),
        plain("B", n, m),
        SymFactor::new(tri, UnaryOp::Transpose),
    ])
    .unwrap();
    let structured_binds = [(2000, 200), (100, 800), (7, 7), (3, 1), (64, 64)]
        .iter()
        .map(|&(nv, mv)| DimBindings::new().with("cc_n", nv).with("cc_m", mv))
        .collect();

    let a = SymOperand::new("A", n, n);
    let gram = SymChain::new(vec![
        SymFactor::new(a.clone(), UnaryOp::Transpose),
        SymFactor::plain(a),
        plain("B", n, m),
    ])
    .unwrap();
    let gram_binds = [(20, 15), (200, 3), (4, 400), (9, 9)]
        .iter()
        .map(|&(nv, mv)| DimBindings::new().with("cc_n", nv).with("cc_m", mv))
        .collect();

    vec![
        (dense, dense_binds),
        (structured, structured_binds),
        (gram, gram_binds),
    ]
}

#[test]
fn concurrent_mixed_traffic_is_equivalent_and_loses_no_updates() {
    const THREADS: usize = 8;
    const REQUESTS_PER_THREAD: usize = 120;

    let registry = Arc::new(KernelRegistry::blas_lapack());
    let work = workload();

    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        // Reference answers, computed sequentially from scratch.
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let expected: Vec<Vec<GmcSolution<Flops>>> = work
            .iter()
            .map(|(chain, binds)| {
                binds
                    .iter()
                    .map(|b| optimizer.solve(&chain.bind(b).unwrap()).unwrap())
                    .collect()
            })
            .collect();

        // Each thread's requests, as (chain, binding) indices.
        let requests: Vec<Vec<(usize, usize)>> = (0..THREADS)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(0xCC + t as u64);
                (0..REQUESTS_PER_THREAD)
                    .map(|_| {
                        let ci = rng.gen_range(0..work.len());
                        (ci, rng.gen_range(0..work[ci].1.len()))
                    })
                    .collect()
            })
            .collect();

        let cache = PlanCache::new(registry.clone(), mode);
        std::thread::scope(|scope| {
            for mine in &requests {
                let cache = &cache;
                let work = &work;
                let expected = &expected;
                scope.spawn(move || {
                    for &(ci, bi) in mine {
                        let (chain, binds) = &work[ci];
                        let (got, _outcome) = cache.solve(chain, &binds[bi]).unwrap();
                        let want = &expected[ci][bi];
                        assert_eq!(want.cost().to_bits(), got.cost().to_bits());
                        assert_eq!(want.parenthesization(), got.parenthesization());
                        assert_eq!(want.kernel_names(), got.kernel_names());
                    }
                });
            }
        });

        // The same requests, one after another, into a fresh cache.
        let sequential = PlanCache::new(registry.clone(), mode);
        for &(ci, bi) in requests.iter().flatten() {
            sequential.solve(&work[ci].0, &work[ci].1[bi]).unwrap();
        }

        // No lost updates, no duplicated recordings: every region the
        // sequential replay records was recorded exactly once, every
        // other request was a hit, and the counters account for every
        // request.
        let stats = cache.stats();
        let replayed = sequential.stats();
        let total = (THREADS * REQUESTS_PER_THREAD) as u64;
        assert_eq!(
            stats.requests(),
            total,
            "dropped or double-counted requests"
        );
        for (chain, _) in &work {
            let regions = |c: &PlanCache| {
                c.plan_for(chain)
                    .expect("structure recorded")
                    .region_count()
            };
            assert_eq!(
                regions(&cache),
                regions(&sequential),
                "lost or duplicated region for {chain}"
            );
        }
        assert_eq!(stats.structure_misses, work.len() as u64);
        assert_eq!(
            stats.structure_misses + stats.region_misses,
            replayed.structure_misses + replayed.region_misses,
            "each region must be recorded exactly once"
        );
        assert_eq!(stats.hits, replayed.hits);
        for (chain, _) in &work {
            assert_eq!(
                format!("{:?}", cache.plan_for(chain)),
                format!("{:?}", sequential.plan_for(chain)),
                "the regions must not depend on the request order"
            );
        }
    }
}
