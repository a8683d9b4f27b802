//! Symbolic plan reuse: compile a chain *structure* once, serve many
//! size points from the cached plan.
//!
//! One symbolic chain `X := A B C` over size variables `n, k, m` is
//! instantiated at three size points. The first request records a
//! symbolic plan; the second differs only in scale and hits the cache;
//! the third flips the ordering of the dimensions. The recording asked
//! only which dimensions are 1, so the third is a hit on the same size
//! *region*: its root cell was deferred, and at bind time it picks the
//! other parenthesization.
//!
//! ```text
//! cargo run --release --example symbolic_reuse
//! ```

use gmc::InferenceMode;
use gmc_expr::DimBindings;
use gmc_frontend::parse;
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanCache;

fn main() {
    let source = "\
Matrix A (n, k)
Matrix B (k, m)
Matrix C (m, n)
X := A * B * C
";
    let problem = parse(source).expect("well-formed problem");
    let symbolic = problem.symbolic.as_ref().expect("symbolic dimensions");
    let (target, chain) = &symbolic.chains[0];
    println!("chain structure: {target} := {chain}");
    println!("dimension variables: n, k, m\n");

    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);

    let points = [
        ("tall inner dimension", 100, 2000, 100),
        ("same region, 2x scale", 200, 4000, 200),
        ("flipped ordering", 100, 200, 4000),
    ];
    for (label, n, k, m) in points {
        let bindings = DimBindings::new().with("n", n).with("k", k).with("m", m);
        let (solution, outcome) = cache.solve(chain, &bindings).expect("computable chain");
        println!("request {label}: n={n}, k={k}, m={m}");
        println!("  cache outcome:    {outcome}");
        println!("  parenthesization: {}", solution.parenthesization());
        println!("  kernels:          {}", solution.kernel_names().join(", "));
        println!("  cost:             {:.4e} flops", solution.flops());
        if let Some(summary) = cache.region_summary(chain, &bindings) {
            println!("  region plan:      {summary}");
        }
        println!();
    }

    println!("plan cache: {}", cache.stats());
    let plan = cache.plan_for(chain).expect("structure cached");
    println!(
        "regions recorded for this structure: {}",
        plan.region_count()
    );
    for (i, summary) in plan.region_summaries().enumerate() {
        println!("  region {i}: {summary}");
    }
}
