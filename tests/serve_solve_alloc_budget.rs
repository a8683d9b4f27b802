//! Allocation budget of a served hit: `ServeHandle::solve_raw` binds
//! the request's chain once, at admission, and solves that bound chain
//! on the calling thread through the structure's resolved cache entry,
//! so a hit costs what `SymChain::bind` and `PlanCache::solve_resolved`
//! allocate for it, what the reply copies out of the solution, and two
//! more: the bindings map and the reply's structure name. The lower
//! bound proves the hit ran on this thread (a hit handed to another
//! thread would leave its allocations uncounted); the upper bounds fail
//! loudly if anything else (a grouping `Vec` or map, a reply channel, a
//! structure key, a second binding) creeps into the request path.

mod alloc_counter;

use alloc_counter::allocations;
use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_serve::{RequestOptions, ServeConfig, Server};
use std::sync::Arc;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

#[test]
fn inline_hit_allocates_what_the_cache_and_reply_need() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            slow_trace_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let (n, m, k) = (Dim::var("sa_n"), Dim::var("sa_m"), Dim::var("sa_k"));
    let chain = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    server.register("X", chain.clone()).unwrap();
    let handle = server.handle();
    let (nv, mv, kv) = (40, 300, 20);
    // Record the region, then serve it once more, so every lazily built
    // structure on this thread and in the cache exists before counting.
    for _ in 0..2 {
        let sizes = vec![("sa_n", nv), ("sa_m", mv), ("sa_k", kv)];
        let reply = handle.solve_raw("X", sizes, RequestOptions::default());
        assert!(reply.result.is_ok(), "{reply:?}");
    }

    let bindings = DimBindings::new()
        .with("sa_n", nv)
        .with("sa_m", mv)
        .with("sa_k", kv);
    let plan = server.cache().resolve(&chain);
    let (solved, cache) = allocations(|| {
        let concrete = chain.bind(&bindings).expect("binds");
        server.cache().solve_resolved(&plan, &chain, &concrete)
    });
    let (solution, outcome, _) = solved.expect("a warm region");
    assert!(outcome.is_hit(), "{outcome:?}");
    let kernels = solution.kernel_names().len();

    let sizes = vec![("sa_n", nv), ("sa_m", mv), ("sa_k", kv)];
    let (reply, raw) = allocations(|| handle.solve_raw("X", sizes, RequestOptions::default()));
    let served = reply.result.expect("a served hit");
    assert!(served.outcome.is_hit(), "{:?}", served.outcome);
    assert_eq!(served.parenthesization, solution.parenthesization());

    // `Served::from_solution` copies the parenthesization and every
    // kernel name into a fresh `Vec`: 3 + kernels allocations.
    let reply_copies = 3 + kernels;
    let budget = cache + reply_copies + 2;
    assert!(
        raw >= cache,
        "{raw} allocations for a `solve_raw` hit, fewer than the cache's {cache}: \
         the hit did not run on the calling thread"
    );
    assert!(
        raw <= budget,
        "{raw} allocations for a `solve_raw` hit, budget {budget} \
         (cache {cache} + reply {reply_copies} + 2)"
    );
    // The cache keys no structure on a served hit (a `StructureKey`
    // would be 3 more), and evaluates its polynomials from the bound
    // chain's sizes, by position, with no variable list or second
    // bindings map.
    assert!(
        raw <= 24,
        "{raw} allocations for a `solve_raw` hit, pinned at 24"
    );
    server.shutdown();
}
