//! End-to-end tests of the serving front door: correctness against the
//! concrete optimizer, batch submission, pre-enumeration, the TCP line
//! protocol and shutdown semantics.

use gmc::{FlopCount, GmcOptimizer};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{RequestOptions, ServeConfig, ServeError, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

fn dense_chain() -> SymChain {
    let (n, m, k) = (Dim::var("sv_n"), Dim::var("sv_m"), Dim::var("sv_k"));
    SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap()
}

fn table2_chain() -> SymChain {
    let (n, m) = (Dim::var("sv_n"), Dim::var("sv_m"));
    let spd = SymOperand::square("S", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let tri = SymOperand::square("L", m)
        .with_property(Property::LowerTriangular)
        .unwrap();
    SymChain::new(vec![
        SymFactor::new(spd, UnaryOp::Inverse),
        plain("B", n, m),
        SymFactor::new(tri, UnaryOp::Transpose),
    ])
    .unwrap()
}

fn dense_bindings(n: usize, m: usize, k: usize) -> DimBindings {
    DimBindings::new()
        .with("sv_n", n)
        .with("sv_m", m)
        .with("sv_k", k)
}

#[test]
fn served_replies_match_concrete_solves() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry.clone(), ServeConfig::default());
    server.register("X", dense_chain()).unwrap();
    server.register("T2", table2_chain()).unwrap();
    let handle = server.handle();

    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let cases: Vec<(&str, SymChain, DimBindings)> = vec![
        ("X", dense_chain(), dense_bindings(10, 200, 30)),
        ("X", dense_chain(), dense_bindings(300, 20, 100)),
        ("X", dense_chain(), dense_bindings(20, 400, 60)),
        (
            "T2",
            table2_chain(),
            DimBindings::new().with("sv_n", 2000).with("sv_m", 200),
        ),
    ];
    for (name, chain, bindings) in &cases {
        let served = handle.solve(name, bindings.clone()).result.unwrap();
        let want = optimizer.solve(&chain.bind(bindings).unwrap()).unwrap();
        assert_eq!(want.cost().to_bits(), served.cost.to_bits());
        assert_eq!(want.parenthesization(), served.parenthesization);
        assert_eq!(want.kernel_names(), served.kernels);
    }
    // Replay: everything hits now.
    for (name, _, bindings) in &cases {
        let served = handle.solve(name, bindings.clone()).result.unwrap();
        assert_eq!(served.outcome, gmc_plan::PlanOutcome::Hit);
    }
    server.shutdown();
}

#[test]
fn batch_submission_coalesces_identical_requests() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    server.register("X", dense_chain()).unwrap();
    let handle = server.handle();

    // Eight identical requests + two distinct ones, submitted as one
    // unit. Each is its own request: the identical eight record their
    // region once and answer bit-identically.
    let mut batch: Vec<(String, DimBindings)> = (0..8)
        .map(|_| ("X".to_owned(), dense_bindings(10, 200, 30)))
        .collect();
    batch.push(("X".to_owned(), dense_bindings(300, 20, 100))); // same region
    batch.push(("X".to_owned(), dense_bindings(1, 20, 100))); // other region: n = 1
    let tickets = handle.submit_batch(batch);
    let replies: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    assert_eq!(replies.len(), 10);
    let first = replies[0].result.as_ref().unwrap();
    for r in &replies[..8] {
        let served = r.result.as_ref().unwrap();
        assert_eq!(served.cost.to_bits(), first.cost.to_bits());
        assert_eq!(served.flops.to_bits(), first.flops.to_bits());
        assert_eq!(served.parenthesization, first.parenthesization);
        assert_eq!(served.kernels, first.kernels);
    }
    let stats = handle.stats();
    // One instantiate per request; 2 regions of 1 structure, each
    // recorded once.
    assert_eq!(stats.cache.requests(), 10);
    assert_eq!(stats.cache.structure_misses, 1);
    assert_eq!(stats.cache.region_misses, 1);
    assert_eq!(stats.cache.hits, 8);
    server.shutdown();
}

#[test]
fn one_worker_solves_a_batch_in_submission_order() {
    // Jobs queue in the order of their first requests, and a lone
    // worker takes them in queue order: on every fresh server the
    // batch's first request is the one that records the structure.
    for _ in 0..20 {
        let server = Server::start(
            Arc::new(KernelRegistry::blas_lapack()),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        server.register("X", dense_chain()).unwrap();
        // Eight distinct bindings, none of them 1: one region.
        let batch = (0..8)
            .map(|i| ("X".to_owned(), dense_bindings(10 + i, 200, 30)))
            .collect();
        let outcomes: Vec<&str> = server
            .handle()
            .submit_batch(batch)
            .into_iter()
            .map(|t| t.wait().result.unwrap().outcome.label())
            .collect();
        assert_eq!(outcomes[0], "miss_structure", "{outcomes:?}");
        assert!(outcomes[1..].iter().all(|&o| o == "hit"), "{outcomes:?}");
        server.shutdown();
    }
}

#[test]
fn unknown_structures_and_bad_bindings_error_cleanly() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    server.register("X", dense_chain()).unwrap();
    let handle = server.handle();

    let reply = handle.solve("nope", DimBindings::new());
    assert!(matches!(
        reply.result,
        Err(ServeError::UnknownStructure(ref n)) if n == "nope"
    ));

    // Missing bindings surface the plan layer's chain error.
    let reply = handle.solve("X", DimBindings::new().with("sv_n", 5));
    assert!(matches!(reply.result, Err(ServeError::Plan(_))));

    // The untrusted raw path rejects variable names outside the
    // structure's vocabulary (they must never reach the interner).
    let reply = handle.solve_raw(
        "X",
        vec![("totally_bogus_var".to_owned(), 5)],
        RequestOptions::default(),
    );
    assert!(
        matches!(reply.result, Err(ServeError::BadRequest(ref m)) if m.contains("totally_bogus_var")),
        "{reply:?}"
    );
    // …while known names resolve fine through the same path.
    let reply = handle.solve_raw(
        "X",
        vec![
            ("sv_n".to_owned(), 10),
            ("sv_m".to_owned(), 20),
            ("sv_k".to_owned(), 30),
        ],
        RequestOptions::default(),
    );
    assert!(reply.result.is_ok(), "{reply:?}");
    server.shutdown();
}

#[test]
fn pre_enumerated_structures_always_hit() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    let recorded = server
        .register_pre_enumerated("T2", table2_chain())
        .unwrap();
    assert!(recorded >= 1);
    let handle = server.handle();
    for (n, m) in [(2000, 200), (3, 900), (7, 7), (1, 4)] {
        let served = handle
            .solve("T2", DimBindings::new().with("sv_n", n).with("sv_m", m))
            .result
            .unwrap();
        assert_eq!(
            served.outcome,
            gmc_plan::PlanOutcome::Hit,
            "pre-enumerated structure must hit at ({n}, {m})"
        );
    }
    server.shutdown();
}

#[test]
fn tcp_front_door_round_trips() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    server.register("T2", table2_chain()).unwrap();
    let door = TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();
    let addr = door.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();
    writer
        .write_all(b"T2 sv_n=2000,sv_m=200\nT2 sv_n=4000,sv_m=400\nbogus\nT2 sv_n=oops\nSTATS\n")
        .unwrap();
    writer.flush().unwrap();

    let l1 = lines.next().unwrap().unwrap();
    assert!(l1.contains("\"outcome\":\"miss_structure\""), "{l1}");
    assert!(l1.contains("TRMM_RLT"), "{l1}");
    let l2 = lines.next().unwrap().unwrap();
    assert!(l2.contains("\"outcome\":\"hit\""), "{l2}");
    let l3 = lines.next().unwrap().unwrap();
    assert!(l3.contains("unknown structure"), "{l3}");
    let l4 = lines.next().unwrap().unwrap();
    assert!(l4.contains("bad request"), "{l4}");
    let l5 = lines.next().unwrap().unwrap();
    assert!(l5.contains("\"hits\":1"), "{l5}");
    drop(writer);
    drop(lines);

    door.shutdown();
    server.shutdown();
}

#[test]
fn shutdown_rejects_late_requests() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    server.register("X", dense_chain()).unwrap();
    let handle = server.handle();
    assert!(handle.solve("X", dense_bindings(10, 20, 30)).result.is_ok());
    server.shutdown();
    let reply = handle.solve("X", dense_bindings(10, 20, 30));
    assert!(matches!(reply.result, Err(ServeError::Closed)));
}
