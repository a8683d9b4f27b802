//! Concurrency test for the served counters: a reader hammering
//! `ServeHandle::stats()` during a burst must see
//! `hits + misses + failed == completed` in *every* snapshot —
//! `completed` is the sum of the three, so an unbalanced reading is a
//! bug, not bad luck — and no total-latency or stage histogram ahead
//! of `completed`.

use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_serve::{ServeConfig, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn chain() -> SymChain {
    let (n, m, k) = (Dim::var("sc_n"), Dim::var("sc_m"), Dim::var("sc_k"));
    SymChain::new(vec![
        SymFactor::plain(SymOperand::new("A", n, m)),
        SymFactor::plain(SymOperand::new("B", m, k)),
        SymFactor::plain(SymOperand::new("C", k, n)),
    ])
    .unwrap()
}

fn bindings(n: usize, m: usize, k: usize) -> DimBindings {
    DimBindings::new()
        .with("sc_n", n)
        .with("sc_m", m)
        .with("sc_k", k)
}

#[test]
fn every_stats_snapshot_balances_during_a_burst() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    server.register("X", chain()).unwrap();
    let handle = server.handle();

    // Reader thread: snapshot as fast as possible for the whole burst,
    // checking the balance invariant on every single snapshot. The
    // burst starts only once the reader runs, and the reader's last
    // snapshot follows the burst, so it snapshots at least once
    // whatever the scheduling.
    let stop = Arc::new(AtomicBool::new(false));
    let running = Arc::new(Barrier::new(2));
    let reader = {
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        let running = Arc::clone(&running);
        std::thread::spawn(move || {
            running.wait();
            let mut snapshots = 0u64;
            loop {
                let done = stop.load(Ordering::Relaxed);
                let s = handle.stats();
                assert_eq!(
                    s.served.hits + s.served.misses + s.served.failed,
                    s.served.completed,
                    "torn served-counter snapshot: {:?}",
                    s.served
                );
                // A request is counted before its samples record, and
                // `stats()` reads the histograms first, so mid-burst
                // they may lag `completed` but never lead it; the
                // quiescent totals must balance exactly (asserted
                // below).
                assert!(s.latency.total.count() <= s.served.completed);
                for stage in &s.latency.stages {
                    assert!(stage.snapshot.count() <= s.served.completed);
                }
                snapshots += 1;
                if done {
                    break;
                }
            }
            snapshots
        })
    };
    running.wait();

    // The burst, from four caller threads over the four solve slots:
    // a mix of misses (distinct regions), hits (rescales) and exact
    // duplicates, plus some rejected requests (bad binding).
    let submitted = 600usize;
    let rejected_every = 50usize; // 12 rejected in total
    let callers: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                let (mut ok, mut failed) = (0usize, 0usize);
                for i in (t..submitted).step_by(4) {
                    let reply = if i % rejected_every == 0 {
                        // Missing variables: rejected at admission.
                        handle.solve("X", DimBindings::new().with("sc_n", 5))
                    } else {
                        let scale = 1 + (i % 7);
                        let (n, m, k) = match i % 3 {
                            0 => (10 * scale, 200 * scale, 30 * scale),
                            1 => (300 * scale, 20 * scale, 100 * scale),
                            _ => (20 * scale, 400 * scale, 60 * scale),
                        };
                        handle.solve("X", bindings(n, m, k))
                    };
                    match reply.result {
                        Ok(_) => ok += 1,
                        Err(_) => failed += 1,
                    }
                }
                (ok, failed)
            })
        })
        .collect();
    let (mut ok, mut failed) = (0usize, 0usize);
    for caller in callers {
        let (o, f) = caller.join().expect("caller thread");
        ok += o;
        failed += f;
    }
    stop.store(true, Ordering::Relaxed);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "reader never snapshotted");
    assert_eq!(ok + failed, submitted);

    // Final accounting: every request ended in exactly one bucket, and
    // the latency layer saw exactly one sample per completion.
    let s = server.stats();
    assert_eq!(
        s.served.completed + s.served.rejected,
        submitted as u64,
        "completed + rejected must account for every request: {:?}",
        s.served
    );
    assert_eq!(s.served.rejected, (submitted / rejected_every) as u64);
    assert_eq!(
        s.served.hits + s.served.misses + s.served.failed,
        s.served.completed
    );
    assert_eq!(s.latency.total.count(), s.served.completed);
    assert_eq!(s.latency.queue.count(), s.served.completed);
    let class_total: u64 = s.latency.classes.iter().map(|c| c.snapshot.count()).sum();
    assert_eq!(class_total, s.served.hits + s.served.misses);
    server.shutdown();
}
