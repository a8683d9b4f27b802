//! A server spawns no thread: every request runs on its caller's
//! thread, so starting, serving and shutting down leave the process's
//! thread count as it was. (Its own test binary, so that no other test
//! starts threads meanwhile.)

use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_serve::{ServeConfig, Server};
use std::sync::Arc;

/// The process's thread count, from `/proc/self/status`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("a Threads line");
    line.trim().parse().expect("a thread count")
}

#[cfg(target_os = "linux")]
#[test]
fn start_and_serve_spawn_no_thread() {
    let before = threads();
    let server = Server::start(
        Arc::new(KernelRegistry::blas_lapack()),
        ServeConfig {
            workers: 8,
            ..ServeConfig::default()
        },
    );
    let (n, m) = (Dim::var("nt_n"), Dim::var("nt_m"));
    let chain = SymChain::new(vec![
        SymFactor::plain(SymOperand::new("A", n, m)),
        SymFactor::plain(SymOperand::new("B", m, n)),
    ])
    .unwrap();
    server.register("X", chain).unwrap();
    let reply = server
        .handle()
        .solve("X", DimBindings::new().with("nt_n", 30).with("nt_m", 20));
    assert!(reply.result.is_ok(), "{reply:?}");
    assert_eq!(threads(), before, "the server spawned a thread");
    assert!(server.shutdown().is_clean());
    assert_eq!(threads(), before);
}
