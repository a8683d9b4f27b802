//! Plan-store persistence: snapshots round-trip byte-for-byte, a
//! warm-started cache answers its first request as a hit with
//! bit-identical results, and mismatched snapshots are rejected.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanError, PlanOutcome};
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

#[test]
fn snapshot_round_trips_and_warm_start_hits() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let work = sample_workload();
        let warm = PlanCache::new(registry.clone(), mode);
        for (chain, binds) in &work {
            for b in binds {
                warm.solve(chain, b).unwrap();
            }
        }
        let snapshot = warm.snapshot_json();

        // Loading into a fresh cache adopts every region…
        let cold = PlanCache::new(registry.clone(), mode);
        let adopted = cold.load_snapshot_json(&snapshot).unwrap();
        let recorded: u64 = {
            let s = warm.stats();
            s.structure_misses + s.region_misses
        };
        assert_eq!(adopted as u64, recorded);

        // …the loaded cache re-serializes to the identical bytes…
        assert_eq!(cold.snapshot_json(), snapshot, "snapshot must round-trip");

        // …and the warm-started cache answers its *first* request as a
        // hit, bit-identical to a from-scratch solve.
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        for (chain, binds) in &work {
            for b in binds {
                let (got, outcome) = cold.solve(chain, b).unwrap();
                assert_eq!(outcome, PlanOutcome::Hit, "warm start must hit");
                let want = optimizer.solve(&chain.bind(b).unwrap()).unwrap();
                assert_eq!(want.cost().to_bits(), got.cost().to_bits());
                assert_eq!(want.parenthesization(), got.parenthesization());
                assert_eq!(want.kernel_names(), got.kernel_names());
            }
        }
        // Scaled sizes in a stored region hit too.
        let (chain, binds) = &work[0];
        let scaled = DimBindings::new()
            .with("ps_n", 20)
            .with("ps_m", 400)
            .with("ps_k", 60);
        let (_, outcome) = cold.solve(chain, &scaled).unwrap();
        assert_eq!(outcome, PlanOutcome::Hit);
        assert!(binds.len() >= 2);
    }
}

#[test]
fn save_and_load_through_a_file() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    for b in binds {
        warm.solve(chain, b).unwrap();
    }
    let path = std::env::temp_dir().join(format!("gmc_plan_store_{}.json", std::process::id()));
    warm.save(&path).unwrap();

    let cold = PlanCache::new(registry, InferenceMode::Compositional);
    let adopted = cold.load(&path).unwrap();
    // Bindings may share regions: one is adopted per recording.
    let recorded = warm.stats().structure_misses + warm.stats().region_misses;
    assert_eq!(adopted as u64, recorded);
    let (_, outcome) = cold.solve(chain, &binds[0]).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_snapshots_are_rejected() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let snapshot = warm.snapshot_json();

    // Wrong inference mode.
    let deep = PlanCache::new(registry.clone(), InferenceMode::Deep);
    assert!(matches!(
        deep.load_snapshot_json(&snapshot),
        Err(PlanError::Store(_))
    ));

    // Wrong registry (different kernel list).
    let mcp = PlanCache::new(
        Arc::new(KernelRegistry::mcp_only()),
        InferenceMode::Compositional,
    );
    assert!(matches!(
        mcp.load_snapshot_json(&snapshot),
        Err(PlanError::Store(_))
    ));

    // Malformed input.
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    assert!(matches!(
        fresh.load_snapshot_json("{ not json"),
        Err(PlanError::Store(_))
    ));
    assert!(matches!(
        fresh.load_snapshot_json("{\"format\": \"other/v9\"}"),
        Err(PlanError::Store(_))
    ));
    // A failed load adopts nothing.
    assert!(fresh.is_empty());
}

#[test]
fn reloading_a_snapshot_adopts_nothing_new() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    for b in binds {
        warm.solve(chain, b).unwrap();
    }
    let snapshot = warm.snapshot_json();
    let cold = PlanCache::new(registry, InferenceMode::Compositional);
    let first = cold.load_snapshot_json(&snapshot).unwrap();
    assert!(first > 0);
    // Every region is already present now: nothing more to adopt.
    assert_eq!(cold.load_snapshot_json(&snapshot).unwrap(), 0);
}

#[test]
fn corrupt_candidate_indices_are_rejected_at_load() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let snapshot = warm.snapshot_json();
    assert!(snapshot.contains("\"k\": "), "snapshot records splits");

    // An out-of-range split index must fail load-time validation, not
    // panic inside a serving worker on the first request.
    let corrupt = snapshot.replacen("\"k\": 0", "\"k\": 99", 1);
    assert_ne!(corrupt, snapshot);
    let fresh = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    assert!(matches!(
        fresh.load_snapshot_json(&corrupt),
        Err(PlanError::Store(_))
    ));
    assert!(fresh.is_empty());

    // A variable list that no longer covers the stored formulas (here:
    // every `ps_m` renamed to `ps_n`, creating a duplicate) must also
    // be rejected at load time.
    let corrupt = snapshot.replace("\"ps_m\"", "\"ps_n\"");
    assert_ne!(corrupt, snapshot);
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    assert!(matches!(
        fresh.load_snapshot_json(&corrupt),
        Err(PlanError::Store(_))
    ));
    assert!(fresh.is_empty());
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
fn field_mut<'a>(v: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    match v {
        serde::Value::Object(fields) => {
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
fn item_mut(v: &mut serde::Value, i: usize) -> &mut serde::Value {
    match v {
        serde::Value::Array(items) => &mut items[i],
        other => panic!("expected an array, got {other:?}"),
    }
}

#[test]
fn deferred_candidates_out_of_split_order_are_rejected_at_load() {
    // A(n,m) B(m,n) C(n,m) at n = m: the root cell is deferred over the
    // splits 0 and 1. Bind time scans a deferred cell's candidates split
    // by split in ascending order, so a store listing them in another
    // order would serve the wrong parenthesization.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let (n, m) = (Dim::var("ps_n"), Dim::var("ps_m"));
    let chain = SymChain::new(vec![plain("A", n, m), plain("B", m, n), plain("C", n, m)]).unwrap();
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    warm.solve(&chain, &DimBindings::new().with("ps_n", 5).with("ps_m", 5))
        .unwrap();
    let snapshot = warm.snapshot_json();

    let mut doc: serde::Value = serde_json::from_str(&snapshot).unwrap();
    let structure = item_mut(field_mut(&mut doc, "structures"), 0);
    let region = item_mut(field_mut(structure, "regions"), 0);
    // Cell (0, 2) of a 3-chain is the third in row-major order.
    let root = item_mut(field_mut(field_mut(region, "plan"), "cells"), 2);
    let splits = |cell: &mut serde::Value| -> Vec<String> {
        match field_mut(cell, "cands") {
            serde::Value::Array(cands) => cands
                .iter_mut()
                .map(|c| serde_json::to_string(field_mut(c, "k")).unwrap())
                .collect(),
            other => panic!("expected candidates, got {other:?}"),
        }
    };
    assert_eq!(splits(root), ["0", "1"]);
    if let serde::Value::Array(cands) = field_mut(root, "cands") {
        cands.reverse();
    }
    let corrupt = serde_json::to_string_pretty(&doc).unwrap();
    assert_ne!(corrupt, snapshot);
    let fresh = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    assert!(matches!(
        fresh.load_snapshot_json(&corrupt),
        Err(PlanError::Store(_))
    ));
    assert!(fresh.is_empty());

    // The genuine store still loads and round-trips byte-identically.
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    assert_eq!(fresh.load_snapshot_json(&snapshot).unwrap(), 1);
    assert_eq!(fresh.snapshot_json(), snapshot);
}

#[test]
fn candidates_missing_a_pattern_variable_are_rejected_at_load() {
    // Instantiation binds each candidate's recorded variables and hands
    // them to the kernel's builder, which needs every variable of its
    // pattern: a store that drops one must fail at load, not panic on
    // the first hit.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let (n, m) = (Dim::var("ps_n"), Dim::var("ps_m"));
    let chain = SymChain::new(vec![plain("A", n, m), plain("B", m, n), plain("C", n, m)]).unwrap();
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    warm.solve(&chain, &DimBindings::new().with("ps_n", 5).with("ps_m", 5))
        .unwrap();
    let snapshot = warm.snapshot_json();

    // Rewrites the binds of every root-cell candidate.
    let corrupt_with = |rewrite: &dyn Fn(&mut Vec<serde::Value>)| -> String {
        let mut doc: serde::Value = serde_json::from_str(&snapshot).unwrap();
        let structure = item_mut(field_mut(&mut doc, "structures"), 0);
        let region = item_mut(field_mut(structure, "regions"), 0);
        let root = item_mut(field_mut(field_mut(region, "plan"), "cells"), 2);
        let serde::Value::Array(cands) = field_mut(root, "cands") else {
            panic!("the root cell is deferred");
        };
        for cand in cands {
            let serde::Value::Array(binds) = field_mut(cand, "binds") else {
                panic!("expected a binds array");
            };
            assert_eq!(binds.len(), 2, "GEMM binds ?0 and ?1");
            rewrite(binds);
        }
        serde_json::to_string_pretty(&doc).unwrap()
    };
    let truncated = corrupt_with(&|binds| binds.truncate(1));
    let doubled = corrupt_with(&|binds| {
        let first = binds[0].clone();
        binds[1] = first;
    });
    for corrupt in [truncated, doubled] {
        assert_ne!(corrupt, snapshot);
        let fresh = PlanCache::new(registry.clone(), InferenceMode::Compositional);
        assert!(matches!(
            fresh.load_snapshot_json(&corrupt),
            Err(PlanError::Store(_))
        ));
        assert!(fresh.is_empty());
        // Nothing was adopted, so a request in the region is recorded
        // afresh instead of panicking.
        fresh
            .solve(&chain, &DimBindings::new().with("ps_n", 7).with("ps_m", 7))
            .unwrap();
    }

    // The genuine store still loads and round-trips byte-identically.
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    assert_eq!(fresh.load_snapshot_json(&snapshot).unwrap(), 1);
    assert_eq!(fresh.snapshot_json(), snapshot);
}

/// The store's regions as JSON, for rewriting: one structure's region
/// list.
fn regions_mut(doc: &mut serde::Value) -> &mut Vec<serde::Value> {
    let structure = item_mut(field_mut(doc, "structures"), 0);
    match field_mut(structure, "regions") {
        serde::Value::Array(regions) => regions,
        other => panic!("expected a region array, got {other:?}"),
    }
}

/// Loads `json` into a fresh cache, expecting a store error that
/// mentions `problem`, and nothing adopted.
fn assert_rejected(registry: &Arc<KernelRegistry>, json: &str, problem: &str) {
    let fresh = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    match fresh.load_snapshot_json(json) {
        Err(PlanError::Store(msg)) => assert!(msg.contains(problem), "{msg}"),
        other => panic!("expected a store error about {problem}, got {other:?}"),
    }
    assert!(fresh.is_empty());
}

#[test]
fn questions_outside_the_structure_are_rejected_at_load() {
    // A lookup answers each question on the request's boundary
    // dimensions, so a position past the last one would index out of
    // bounds on the first request.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let snapshot = warm.snapshot_json();
    let mut doc: serde::Value = serde_json::from_str(&snapshot).unwrap();
    let region = &mut regions_mut(&mut doc)[0];
    let serde::Value::Array(questions) = field_mut(region, "questions") else {
        panic!("a region lists its questions");
    };
    // A 3-factor chain has boundaries 0..=3.
    questions.push(serde_json::from_str("[\"eq\", 1, 4, false]").unwrap());
    let corrupt = serde_json::to_string_pretty(&doc).unwrap();
    assert_rejected(&registry, &corrupt, "outside 0..=3");
}

#[test]
fn regions_sharing_a_key_are_rejected_at_load() {
    // At most one region answers a binding; two with one key would make
    // the served plan depend on the load order.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let snapshot = warm.snapshot_json();
    let mut doc: serde::Value = serde_json::from_str(&snapshot).unwrap();
    let regions = regions_mut(&mut doc);
    regions.push(regions[0].clone());
    let corrupt = serde_json::to_string_pretty(&doc).unwrap();
    assert_rejected(&registry, &corrupt, "share the key");
}

#[test]
fn version_one_stores_are_rejected_with_a_reason() {
    // `gmc-plan-store/v1` keyed regions on the full size ordering; its
    // regions cannot be served under question keys.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let v1 = warm
        .snapshot_json()
        .replace("gmc-plan-store/v2", "gmc-plan-store/v1");
    assert_rejected(&registry, &v1, "full size ordering");
}
