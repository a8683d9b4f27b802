//! Plan-store persistence: snapshots round-trip byte-for-byte, a
//! warm-started cache answers its first request for every stored region
//! as a hit, a store serves bit-identically under any registry and
//! inference mode, and hand-edited stores either load harmlessly or are
//! refused whole.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp, MAX_DIM};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanError, PlanOutcome};
use serde::Value;
use std::sync::Arc;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

fn sample_workload() -> Vec<(SymChain, Vec<DimBindings>)> {
    let (n, m, k) = (Dim::var("ps_n"), Dim::var("ps_m"), Dim::var("ps_k"));
    let dense = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let dense_binds = vec![
        DimBindings::new()
            .with("ps_n", 10)
            .with("ps_m", 200)
            .with("ps_k", 30),
        DimBindings::new()
            .with("ps_n", 300)
            .with("ps_m", 20)
            .with("ps_k", 100),
        DimBindings::new()
            .with("ps_n", 5)
            .with("ps_m", 5)
            .with("ps_k", 5),
    ];
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
    let structured_binds = vec![
        DimBindings::new().with("ps_n", 2000).with("ps_m", 200),
        DimBindings::new().with("ps_n", 100).with("ps_m", 800),
    ];
    vec![(dense, dense_binds), (structured, structured_binds)]
}

/// A cache that has served every binding of `work`.
fn warm_cache(
    registry: &Arc<KernelRegistry>,
    mode: InferenceMode,
    work: &[(SymChain, Vec<DimBindings>)],
) -> PlanCache {
    let cache = PlanCache::new(registry.clone(), mode);
    for (chain, binds) in work {
        for b in binds {
            cache.solve(chain, b).unwrap();
        }
    }
    cache
}

/// Serves `chain` at `b` through `cache` and checks the answer against
/// a cold solve under the cache's registry and mode, errors included.
fn assert_serves_cold_answer(cache: &PlanCache, chain: &SymChain, b: &DimBindings) {
    let optimizer =
        GmcOptimizer::new(cache.registry(), FlopCount).with_inference(cache.inference());
    match (
        optimizer.solve(&chain.bind(b).unwrap()),
        cache.solve(chain, b),
    ) {
        (Ok(want), Ok((got, _))) => {
            assert_eq!(want.cost().to_bits(), got.cost().to_bits(), "at {b}");
            assert_eq!(want.parenthesization(), got.parenthesization(), "at {b}");
            assert_eq!(want.kernel_names(), got.kernel_names(), "at {b}");
        }
        (Err(want), Err(PlanError::Solve(got))) => assert_eq!(want, got, "at {b}"),
        (want, got) => panic!("at {b}: cold solve {want:?}, cache {got:?}"),
    }
}

#[test]
fn snapshot_round_trips_and_warm_start_hits() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let work = sample_workload();
        let warm = warm_cache(&registry, mode, &work);
        let snapshot = warm.snapshot_json();
        assert!(snapshot.contains("\"format\": \"gmc-plan-store/v3\""));

        // Loading into a fresh cache records every region…
        let cold = PlanCache::new(registry.clone(), mode);
        let recorded = cold.load_snapshot_json(&snapshot).unwrap();
        let s = warm.stats();
        assert_eq!(recorded as u64, s.structure_misses + s.region_misses);

        // …the loaded cache re-serializes to the identical bytes…
        assert_eq!(cold.snapshot_json(), snapshot, "snapshot must round-trip");

        // …and the warm-started cache answers its *first* request as a
        // hit, bit-identical to a from-scratch solve.
        for (chain, binds) in &work {
            for b in binds {
                let (_, outcome) = cold.solve(chain, b).unwrap();
                assert_eq!(outcome, PlanOutcome::Hit, "warm start must hit");
                assert_serves_cold_answer(&cold, chain, b);
            }
        }
        // Scaled sizes in a stored region hit too.
        let scaled = DimBindings::new()
            .with("ps_n", 20)
            .with("ps_m", 400)
            .with("ps_k", 60);
        let (_, outcome) = cold.solve(&work[0].0, &scaled).unwrap();
        assert_eq!(outcome, PlanOutcome::Hit);
    }
}

#[test]
fn save_and_load_through_a_file() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let work = &sample_workload()[..1];
    let warm = warm_cache(&registry, InferenceMode::Compositional, work);
    let path = std::env::temp_dir().join(format!("gmc_plan_store_{}.json", std::process::id()));
    warm.save(&path).unwrap();

    let cold = PlanCache::new(registry, InferenceMode::Compositional);
    let recorded = cold.load(&path).unwrap();
    // Bindings may share regions: one is recorded per region.
    let s = warm.stats();
    assert_eq!(recorded as u64, s.structure_misses + s.region_misses);
    let (_, outcome) = cold.solve(&work[0].0, &work[0].1[0]).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
    std::fs::remove_file(&path).ok();
}

#[test]
fn stores_serve_any_registry_and_mode_bit_identically() {
    // A store holds bindings, not plans: a cache loading it records
    // each region under its own registry and inference mode, so it
    // answers like a cold solve under them whatever the store was
    // recorded with.
    let work = sample_workload();
    let blas = Arc::new(KernelRegistry::blas_lapack());
    let snapshot = warm_cache(&blas, InferenceMode::Compositional, &work).snapshot_json();
    let mcp = Arc::new(KernelRegistry::mcp_only());
    for (registry, mode) in [
        (&blas, InferenceMode::Deep),
        (&mcp, InferenceMode::Compositional),
        (&mcp, InferenceMode::Deep),
    ] {
        let cache = PlanCache::new(registry.clone(), mode);
        assert!(cache.load_snapshot_json(&snapshot).unwrap() > 0);
        for (chain, binds) in &work {
            for b in binds {
                assert_serves_cold_answer(&cache, chain, b);
            }
        }
    }
}

#[test]
fn reloading_a_snapshot_adopts_nothing_new() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = warm_cache(
        &registry,
        InferenceMode::Compositional,
        &sample_workload()[..1],
    );
    let snapshot = warm.snapshot_json();
    let cold = PlanCache::new(registry, InferenceMode::Compositional);
    let first = cold.load_snapshot_json(&snapshot).unwrap();
    assert!(first > 0);
    // Every stored binding is answered now: nothing more to record.
    assert_eq!(cold.load_snapshot_json(&snapshot).unwrap(), 0);
}

#[test]
fn missing_file_is_a_store_error() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    assert!(matches!(
        cache.load("/nonexistent/gmc-plan-store.json"),
        Err(PlanError::Store(_))
    ));
}

/// The field `name` of a JSON object.
fn field_mut<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
    match v {
        Value::Object(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == name)
                .unwrap_or_else(|| panic!("no field `{name}`"))
                .1
        }
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Element `i` of a JSON array.
fn item_mut(v: &mut Value, i: usize) -> &mut Value {
    match v {
        Value::Array(items) => &mut items[i],
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `snapshot` with `edit` applied to its first structure.
fn edited(snapshot: &str, edit: impl FnOnce(&mut Value)) -> String {
    let mut doc: Value = serde_json::from_str(snapshot).unwrap();
    edit(item_mut(field_mut(&mut doc, "structures"), 0));
    let json = serde_json::to_string_pretty(&doc).unwrap();
    assert_ne!(json, snapshot, "the edit changes the store");
    json
}

/// The `(name, size)` pairs of a structure's first region binding.
fn binding_mut(structure: &mut Value) -> &mut Vec<(String, Value)> {
    match item_mut(field_mut(structure, "regions"), 0) {
        Value::Object(pairs) => pairs,
        other => panic!("expected a binding, got {other:?}"),
    }
}

/// Factor `t`'s signature field `name`.
fn factor_field<'a>(structure: &'a mut Value, t: usize, name: &str) -> &'a mut Value {
    field_mut(item_mut(field_mut(structure, "factors"), t), name)
}

/// Loads `json` into a fresh cache, expecting a store error that
/// mentions `problem`, and nothing recorded.
fn assert_refused(json: &str, problem: &str) {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    match fresh.load_snapshot_json(json) {
        Err(PlanError::Store(msg)) => assert!(msg.contains(problem), "{msg}"),
        other => panic!("expected a store error about {problem}, got {other:?}"),
    }
    assert!(fresh.is_empty());
}

/// The store of a cache that served `chain` at `b` alone.
fn store_of(chain: &SymChain, b: &DimBindings) -> String {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    cache.solve(chain, b).unwrap();
    cache.snapshot_json()
}

fn size(v: usize) -> Value {
    Value::Number(v as f64)
}

#[test]
fn hand_edited_bindings_load_harmlessly() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let work = sample_workload();
    let (dense, dense_binds) = &work[0];
    let dense_store = store_of(dense, &dense_binds[0]);

    // A binding moved into another region (m = 1 makes the first
    // product a matrix-vector one) records that region instead.
    let moved = edited(&dense_store, |s| binding_mut(s)[1].1 = size(1));
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    assert_eq!(cache.load_snapshot_json(&moved).unwrap(), 1);
    let at_m1 = dense_binds[0].clone().with("ps_m", 1);
    assert!(cache.solve(dense, &at_m1).unwrap().1.is_hit());
    for b in dense_binds.iter().chain([&at_m1]) {
        assert_serves_cold_answer(&cache, dense, b);
    }
    // So does a binding at the largest admitted size.
    let largest = edited(&dense_store, |s| binding_mut(s)[0].1 = size(MAX_DIM));
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    assert_eq!(cache.load_snapshot_json(&largest).unwrap(), 1);
}

#[test]
fn invalid_stores_are_refused_whole() {
    let work = sample_workload();
    let dense_store = store_of(&work[0].0, &work[0].1[0]);
    assert_refused("{ not json", "");
    assert_refused("{\"format\": \"other/v9\"}", "re-record");
    assert_refused(
        &edited(&dense_store, |s| *factor_field(s, 0, "u") = size(7)),
        "unknown unary operator code 7",
    );
    // `A` is n×k, `B` m×k: the chain does not conform.
    assert_refused(
        &edited(&dense_store, |s| {
            *factor_field(s, 0, "c") = Value::String("$2".to_owned());
        }),
        "do not conform",
    );
    // A variable named twice, one left out, one too many.
    assert_refused(
        &edited(&dense_store, |s| binding_mut(s)[1].0 = "ps_n".to_owned()),
        "variables once each",
    );
    assert_refused(
        &edited(&dense_store, |s| {
            binding_mut(s).pop();
        }),
        "names no variable",
    );
    assert_refused(
        &edited(&dense_store, |s| {
            binding_mut(s).push(("ps_q".to_owned(), size(4)));
        }),
        "variables once each",
    );
    assert_refused(
        &edited(&dense_store, |s| binding_mut(s)[2].1 = size(0)),
        "resolved to zero",
    );
    assert_refused(
        &edited(&dense_store, |s| binding_mut(s)[2].1 = size(MAX_DIM + 1)),
        "above the maximum 2^32",
    );

    // `S` is SPD, which implies more properties than its own bit.
    let structured_store = store_of(&work[1].0, &work[1].1[0]);
    let spd_only = 1u16 << Property::SymmetricPositiveDefinite as u16;
    assert_refused(
        &edited(&structured_store, |s| {
            *factor_field(s, 0, "p") = size(usize::from(spd_only));
        }),
        "not a structure key",
    );
}

#[test]
fn version_one_stores_are_rejected_with_a_reason() {
    // `gmc-plan-store/v1` and `/v2` stored recorded plans, not the
    // bindings to re-record them at: neither loads.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = warm_cache(
        &registry,
        InferenceMode::Compositional,
        &sample_workload()[..1],
    );
    for old in ["gmc-plan-store/v1", "gmc-plan-store/v2"] {
        let store = warm.snapshot_json().replace("gmc-plan-store/v3", old);
        assert_refused(
            &store,
            &format!("`{old}`: this build reads `gmc-plan-store/v3`"),
        );
        assert_refused(&store, "re-record the store");
    }
}
