//! Ablation benches for three design decisions: property-inference
//! depth, cost metrics, and the classic-MCP special case of the
//! optimizer.
//!
//! Run: `cargo bench -p gmc-bench --bench ablations`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gmc::mcp::matrix_chain_order;
use gmc::{FlopCount, FlopsThenKernels, GmcOptimizer, InferenceMode, TimeModel};
use gmc_bench::paper_scale_chains;
use gmc_kernels::KernelRegistry;
use std::time::Duration;

/// Ablation 1: compositional (paper) vs deep property
/// inference — optimizer runtime cost of the richer analysis.
fn ablation_inference(c: &mut Criterion) {
    let registry = KernelRegistry::blas_lapack();
    let chains = paper_scale_chains(10);
    let mut group = c.benchmark_group("ablation_inference");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    for (mode, name) in [
        (InferenceMode::Compositional, "compositional"),
        (InferenceMode::Deep, "deep"),
    ] {
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                for chain in &chains {
                    criterion::black_box(optimizer.solve(chain).expect("computable"));
                }
            })
        });
    }
    group.finish();
}

/// Ablation 2: cost metrics — FLOPs vs the time model vs the
/// lexicographic vector metric. All run the same DP; the metric only
/// changes the per-kernel cost computation.
fn ablation_metric(c: &mut Criterion) {
    let registry = KernelRegistry::blas_lapack();
    let chains = paper_scale_chains(10);
    let mut group = c.benchmark_group("ablation_metric");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_secs(1));
    group.bench_function("flops", |b| {
        let o = GmcOptimizer::new(&registry, FlopCount);
        b.iter(|| {
            for chain in &chains {
                criterion::black_box(o.solve(chain).expect("computable"));
            }
        })
    });
    group.bench_function("time_model", |b| {
        let o = GmcOptimizer::new(&registry, TimeModel::default());
        b.iter(|| {
            for chain in &chains {
                criterion::black_box(o.solve(chain).expect("computable"));
            }
        })
    });
    group.bench_function("lexicographic", |b| {
        let o = GmcOptimizer::new(&registry, FlopsThenKernels);
        b.iter(|| {
            for chain in &chains {
                criterion::black_box(o.solve(chain).expect("computable"));
            }
        })
    });
    group.finish();
}

/// The classic `O(n³)` MCP DP on plain size arrays, for scaling
/// reference (paper Sec. 2).
fn classic_mcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("classic_mcp");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_secs(1));
    for n in [10usize, 50, 100] {
        let sizes: Vec<usize> = (0..=n).map(|i| 50 + (i * 37) % 500).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &sizes, |b, sizes| {
            b.iter(|| matrix_chain_order(sizes))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_inference, ablation_metric, classic_mcp);
criterion_main!(benches);
