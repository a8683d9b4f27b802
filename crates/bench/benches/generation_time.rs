//! The Sec. 4 generation-time experiment as a Criterion bench: how fast
//! the GMC optimizer itself runs, by chain length (generation time is
//! size-independent).
//!
//! `generation_time_by_length/<n>` times a cold concrete solve of
//! `length_chain(n)`. `plan_cache_by_length/{miss,hit}/<n>` time the
//! plan cache on its symbolic twin: a miss records the region in a
//! fresh cache, a hit instantiates it at fresh sizes. A hit's cost
//! relative to a cold solve is `hit/<n>` over
//! `generation_time_by_length/<n>`.
//!
//! `text_by_length/{parse,emit}/<n>` time the text layers `gmcc FILE`
//! wraps around that solve: `parse` is `gmc_frontend::parse` of the
//! chain rendered as a source file, `emit` the Julia emitter on the
//! solution's program. Read each over `generation_time_by_length/<n>`
//! for the share of a compile the text costs beside the DP; parse grows
//! linearly in `n`, the DP cubically, so the share falls with length.
//! End-to-end and per-layer numbers come from the repository benchmark
//! (`BENCHMARK.json`).
//!
//! Run: `cargo bench -p gmc-bench --bench generation_time`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmc::{FlopCount, GmcOptimizer, GmcWorkspace, InferenceMode};
use gmc_bench::{length_bindings, length_chain, symbolic_length_chain};
use gmc_codegen::{Emitter, JuliaEmitter};
use gmc_frontend::{parse, render_problem, Problem};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanOutcome};
use std::sync::Arc;
use std::time::Duration;

fn by_chain_length(c: &mut Criterion) {
    let registry = KernelRegistry::blas_lapack();
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let mut group = c.benchmark_group("generation_time_by_length");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for n in [3usize, 6, 10, 20, 40, 80] {
        let chain = length_chain(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &chain, |b, chain| {
            b.iter(|| optimizer.solve(chain).expect("computable"))
        });
    }
    group.finish();
}

fn text_by_length(c: &mut Criterion) {
    let registry = KernelRegistry::blas_lapack();
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let mut group = c.benchmark_group("text_by_length");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for n in [3usize, 6, 10, 20, 40, 80] {
        let chain = length_chain(n);
        let source = render_problem(&Problem {
            operands: chain
                .factors()
                .iter()
                .map(|f| f.operand().clone())
                .collect(),
            assignments: vec![("X".to_owned(), chain.to_expr())],
            symbolic: None,
        });
        group.bench_with_input(BenchmarkId::new("parse", n), &source, |b, source| {
            b.iter(|| parse(source).expect("a rendered problem parses"))
        });
        let program = optimizer.solve(&chain).expect("computable").program();
        group.bench_with_input(BenchmarkId::new("emit", n), &program, |b, program| {
            b.iter(|| JuliaEmitter::default().emit(program))
        });
    }
    group.finish();
}

fn workspace_reuse(c: &mut Criterion) {
    // Amortized batch solving: one GmcWorkspace shared across
    // iterations, versus a cold table allocation per solve.
    let registry = KernelRegistry::blas_lapack();
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let mut group = c.benchmark_group("generation_time_workspace");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for n in [10usize, 40] {
        let chain = length_chain(n);
        group.bench_with_input(BenchmarkId::new("cold", n), &chain, |b, chain| {
            b.iter(|| optimizer.solve(chain).expect("computable"))
        });
        let mut ws = GmcWorkspace::new();
        group.bench_with_input(BenchmarkId::new("reused", n), &chain, |b, chain| {
            b.iter(|| optimizer.solve_with(chain, &mut ws).expect("computable"))
        });
    }
    group.finish();
}

fn plan_cache_by_length(c: &mut Criterion) {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let mut group = c.benchmark_group("plan_cache_by_length");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for n in [10usize, 20, 40, 80] {
        let sym = symbolic_length_chain(n);
        let base = length_bindings(n, 1);
        let scaled = length_bindings(n, 2);
        group.bench_with_input(BenchmarkId::new("miss", n), &sym, |b, sym| {
            b.iter(|| {
                let cache = PlanCache::new(registry.clone(), InferenceMode::default());
                cache.solve(sym, &base).expect("computable")
            })
        });
        let cache = PlanCache::new(registry.clone(), InferenceMode::default());
        cache.solve(&sym, &base).expect("computable");
        let (_, outcome) = cache.solve(&sym, &scaled).expect("computable");
        assert_eq!(
            outcome,
            PlanOutcome::Hit,
            "scaled sizes must share the region"
        );
        group.bench_with_input(BenchmarkId::new("hit", n), &sym, |b, sym| {
            // Alternate two bindings so no per-binding state is warm.
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let bindings = if flip { &scaled } else { &base };
                cache.solve(sym, bindings).expect("computable")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    by_chain_length,
    text_by_length,
    workspace_reuse,
    plan_cache_by_length
);
criterion_main!(benches);
