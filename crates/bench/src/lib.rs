//! Shared helpers for the Criterion benches regenerating the paper's
//! evaluation, plus the serving workload generator ([`workload`]) and
//! trace replayer ([`replay`]). The benches live in `benches/`, one per
//! paper figure or question; each names its run command in its header.

#![forbid(unsafe_code)]

pub mod replay;
pub mod workload;

use gmc_experiments::generator::{random_chains, GeneratorConfig};
use gmc_expr::{Chain, Dim, DimBindings, Factor, Operand, SymChain, SymFactor, SymOperand};

/// The dense chain measured by `generation_time_by_length/<n>`.
pub fn length_chain(n: usize) -> Chain {
    let ops: Vec<Operand> = (0..n)
        .map(|i| Operand::matrix(format!("M{i}"), 100 + 50 * i, 100 + 50 * (i + 1)))
        .collect();
    Chain::new(ops.into_iter().map(Factor::plain).collect()).expect("dense chain is well-formed")
}

/// The symbolic counterpart of [`length_chain`]: every boundary
/// dimension is a distinct variable `d0..dn`. [`length_bindings`] with
/// `scale = 1` reproduces exactly the sizes of `length_chain(n)`, and
/// any positive `scale` stays in the same size region (the dimensions
/// remain strictly increasing), so scaled bindings exercise the plan
/// cache's instantiate path.
pub fn symbolic_length_chain(n: usize) -> SymChain {
    let factors: Vec<SymFactor> = (0..n)
        .map(|i| {
            SymFactor::plain(SymOperand::new(
                format!("M{i}"),
                Dim::var(&format!("d{i}")),
                Dim::var(&format!("d{}", i + 1)),
            ))
        })
        .collect();
    SymChain::new(factors).expect("dense chain is well-formed")
}

/// Bindings for [`symbolic_length_chain`]: `d<i> = scale · (100 + 50·i)`.
pub fn length_bindings(n: usize, scale: usize) -> DimBindings {
    let mut b = DimBindings::new();
    for i in 0..=n {
        b.set(&format!("d{i}"), scale * (100 + 50 * i));
    }
    b
}

/// A small, deterministic set of representative test chains at
/// bench-friendly sizes.
pub fn bench_chains(count: usize) -> Vec<Chain> {
    let config = GeneratorConfig {
        size_min: 50,
        size_max: 150,
        size_step: 50,
        ..GeneratorConfig::default()
    };
    random_chains(&config, count, 0xBEEF)
}

/// Paper-scale chains (sizes up to 2000) for generation-time benches —
/// the optimizer's cost is size-independent, so these are cheap to
/// *optimize* even though they would be slow to execute.
pub fn paper_scale_chains(count: usize) -> Vec<Chain> {
    random_chains(&GeneratorConfig::default(), count, 0xBEEF)
}
