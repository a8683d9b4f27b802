//! The serving front door: a worker pool over the shared plan cache,
//! with pre-enumerated regions and a persisted plan store.
//!
//! The paper's Table 2 chain `X := A⁻¹ B Cᵀ` is registered once with a
//! `gmc-serve` server, pre-enumerating every size region it can reach
//! — so *every* request, at any sizes, is a cache hit. A burst of
//! mixed requests (a duplicate among them) is submitted as one batch,
//! admitted whole on the submitting thread and answered by the worker
//! pool one request per job, and the warmed cache is saved to a plan
//! store and re-loaded the way a serving fleet would warm-start.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use gmc::InferenceMode;
use gmc_expr::DimBindings;
use gmc_frontend::parse;
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanCache;
use gmc_serve::{ServeConfig, Server};
use std::sync::Arc;

fn main() {
    let source = "\
Matrix A (n, n) <SPD>
Matrix B (n, m)
Matrix C (m, m) <LowerTriangular>
X := A^-1 * B * C^T
";
    let problem = parse(source).expect("well-formed problem");
    let (target, chain) = &problem.symbolic.as_ref().expect("symbolic").chains[0];
    println!("serving structure: {target} := {chain}\n");

    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let regions = server
        .register_pre_enumerated(target, chain.clone())
        .expect("small chain is enumerable");
    println!("pre-enumerated {regions} size regions: every request below is a hit\n");

    // A burst of requests, submitted as one batch: different size
    // points, different regions, and one duplicate, which is solved
    // on its own like every other request.
    let handle = server.handle();
    let points: Vec<(usize, usize)> = vec![(2000, 200), (200, 2000), (7, 7), (1, 40), (2000, 200)];
    let batch: Vec<(String, DimBindings)> = points
        .iter()
        .map(|&(n, m)| (target.clone(), DimBindings::new().with("n", n).with("m", m)))
        .collect();
    let replies: Vec<_> = handle
        .submit_batch(batch)
        .into_iter()
        .map(|t| t.wait())
        .collect();
    for ((n, m), reply) in points.iter().zip(&replies) {
        let served = reply.result.as_ref().expect("servable");
        println!("request n={n:<4} m={m:<4} -> {}", served.outcome);
        println!("  parenthesization: {}", served.parenthesization);
        println!("  kernels:          {}", served.kernels.join(", "));
        println!("  cost:             {:.4e} flops", served.flops);
    }
    println!("\nserver: {}", server.stats());

    // Persist the warmed plans and warm-start a fresh cache from them,
    // as a serving fleet sharing a plan store would.
    let store =
        std::env::temp_dir().join(format!("gmc_serving_example_{}.json", std::process::id()));
    server.cache().save(&store).expect("plan store saves");
    let fresh = PlanCache::new(registry, InferenceMode::default());
    let recorded = fresh.load(&store).expect("plan store loads");
    let bindings = DimBindings::new().with("n", 4000).with("m", 400);
    let (_, outcome) = fresh.solve(chain, &bindings).expect("servable");
    println!("\nplan store: {recorded} regions re-recorded by a fresh cache");
    println!("first request on the warm-started cache: {outcome}");
    std::fs::remove_file(&store).ok();
    server.shutdown();
}
