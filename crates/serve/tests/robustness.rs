//! Robustness tests for the serving tier: bounded admission, deadline
//! shedding, caught solve panics and graceful shutdown.

use gmc::{FlopCount, GmcOptimizer};
use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_plan::CacheStats;
use gmc_serve::faults::silence_injected_panics;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{
    RequestOptions, ServeConfig, ServeError, ServeHandle, ServeReply, ServedCounters, Server,
    ServerStats, SolveFault,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

fn dense_chain() -> SymChain {
    let (n, m, k) = (Dim::var("rb_n"), Dim::var("rb_m"), Dim::var("rb_k"));
    SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap()
}

fn bindings(n: usize, m: usize, k: usize) -> DimBindings {
    DimBindings::new()
        .with("rb_n", n)
        .with("rb_m", m)
        .with("rb_k", k)
}

fn start(config: ServeConfig) -> Server {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, config);
    server.register("X", dense_chain()).unwrap();
    server
}

/// Options whose solve sleeps this long first, holding its solve slot
/// and its place in the ledger.
fn delayed(ms: u64) -> RequestOptions {
    RequestOptions {
        fault: Some(SolveFault::Delay(Duration::from_millis(ms))),
        ..RequestOptions::default()
    }
}

/// Solves `requests` as one batch on a new thread, and returns once the
/// server has counted `admitted` more requests at their solve-slot
/// claim: each of them then holds its slot, or waits for one.
fn spawn_batch(
    handle: &ServeHandle,
    requests: Vec<(String, DimBindings, RequestOptions)>,
    admitted: u64,
) -> JoinHandle<Vec<ServeReply>> {
    let before = handle.stats().batches;
    let caller = {
        let handle = handle.clone();
        std::thread::spawn(move || handle.solve_batch(requests))
    };
    while handle.stats().batches < before + admitted {
        std::thread::yield_now();
    }
    caller
}

#[test]
fn batch_overflow_sheds_newest_deterministically() {
    let server = start(ServeConfig {
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // Ten requests into an empty ledger of capacity 4, sent as one
    // batch: admission is decided in request order, so exactly the
    // last six are shed — every run.
    let batch: Vec<_> = (0..10)
        .map(|i| {
            (
                "X".to_owned(),
                bindings(10 + i, 20, 30),
                RequestOptions::default(),
            )
        })
        .collect();
    let replies = handle.solve_batch(batch);
    for (i, reply) in replies.iter().enumerate() {
        if i < 4 {
            assert!(reply.result.is_ok(), "request {i}: {reply:?}");
        } else {
            assert!(
                matches!(reply.result, Err(ServeError::QueueFull)),
                "request {i}: {reply:?}"
            );
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.served.completed, 4);
    assert_eq!(stats.served.rejected, 6);
    assert_eq!(stats.served.rejected_overload, 6);
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn try_submit_reports_queue_full_then_recovers() {
    let server = start(ServeConfig {
        queue_capacity: 1,
        workers: 1,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // The first request holds the only place until its (delayed)
    // reply; the second is refused at the door and counted as an
    // overload shed.
    let first = spawn_batch(
        &handle,
        vec![("X".to_owned(), bindings(10, 20, 30), delayed(300))],
        1,
    );
    let full = handle.solve("X", bindings(11, 20, 30));
    assert!(
        matches!(full.result, Err(ServeError::QueueFull)),
        "{full:?}"
    );
    // Admission looks the structure up before it asks for a place: an
    // unknown structure is answered `unknown_structure`, and counted,
    // though the ledger is full.
    let unknown = handle.solve("Y", bindings(11, 20, 30));
    assert_eq!(
        unknown
            .result
            .as_ref()
            .map_err(ServeError::code)
            .unwrap_err(),
        "unknown_structure",
        "{unknown:?}"
    );
    let served = handle.stats().served;
    assert_eq!((served.rejected, served.rejected_overload), (2, 1));
    let first = first.join().expect("first caller");
    assert!(first[0].result.is_ok(), "{first:?}");
    // The place came back with the reply: the ledger admits again.
    let again = handle.solve("X", bindings(11, 20, 30));
    assert!(again.result.is_ok(), "{again:?}");
    server.shutdown();
    let closed = handle.solve("X", bindings(12, 20, 30));
    assert!(
        matches!(closed.result, Err(ServeError::Closed)),
        "{closed:?}"
    );
}

#[test]
fn expired_deadlines_are_shed_before_grouping() {
    let server = start(ServeConfig::default());
    let handle = server.handle();
    let expired = RequestOptions {
        deadline: Some(Instant::now()),
        ..RequestOptions::default()
    };
    let reply = handle.solve_opts("X", bindings(10, 20, 30), expired);
    assert!(
        matches!(reply.result, Err(ServeError::DeadlineExceeded)),
        "{reply:?}"
    );
    // A generous deadline changes nothing.
    let roomy = RequestOptions::with_deadline_in(Duration::from_secs(30));
    let reply = handle.solve_opts("X", bindings(10, 20, 30), roomy);
    assert!(reply.result.is_ok(), "{reply:?}");

    let stats = handle.stats();
    assert_eq!(stats.served.expired, 1);
    assert_eq!(stats.served.rejected, 1);
    assert_eq!(stats.served.completed, 1);
    // Expired requests record into their own latency class, keeping
    // `total`/`queue` exactly one sample per *completed* request.
    assert_eq!(stats.latency.expired.count(), 1);
    assert_eq!(stats.latency.total.count(), 1);
    assert_eq!(stats.latency.queue.count(), 1);
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn deadlines_expire_while_queued_behind_a_busy_worker() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // The only solve slot is busy for 200 ms with the first request, so
    // the second waits for it far past its 20 ms deadline: it stops
    // waiting and is shed unsolved.
    let busy = spawn_batch(
        &handle,
        vec![("X".to_owned(), bindings(10, 20, 30), delayed(200))],
        1,
    );
    let reply = handle.solve_opts(
        "X",
        bindings(11, 20, 30),
        RequestOptions::with_deadline_in(Duration::from_millis(20)),
    );
    assert!(
        matches!(reply.result, Err(ServeError::DeadlineExceeded)),
        "{reply:?}"
    );
    assert!(busy.join().expect("busy caller")[0].result.is_ok());
    let stats = handle.stats();
    assert_eq!(stats.served.expired, 1);
    assert_eq!(stats.served.completed, 1);
    assert_eq!(
        stats.cache.requests(),
        1,
        "the expired request was never solved"
    );
    assert_eq!(stats.latency.expired.count(), 1);
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn blocking_solve_waits_for_the_only_slot_behind_a_busy_worker() {
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // One batch on another thread: an already-expired request, then one
    // that delays its solve by 200 ms. The first is shed as it claims
    // the only solve slot; the second then holds the slot until its
    // delayed solve ends.
    let expired = RequestOptions {
        deadline: Some(Instant::now()),
        ..RequestOptions::default()
    };
    let started = Instant::now();
    let batch = spawn_batch(
        &handle,
        vec![
            ("X".to_owned(), bindings(10, 20, 30), expired),
            ("X".to_owned(), bindings(10, 20, 30), delayed(200)),
        ],
        2,
    );
    // A blocking solve of another binding cannot run beside the delayed
    // one: it waits for the slot and is answered after it.
    let reply = handle.solve("X", bindings(11, 20, 30));
    let waited = started.elapsed();
    assert!(reply.result.is_ok(), "{reply:?}");
    assert!(
        waited >= Duration::from_millis(150),
        "the solve returned after {waited:?}, beside the delayed one"
    );
    // The delayed request was accounted before the solve was answered.
    assert_eq!(handle.stats().served.completed, 2);
    let replies = batch.join().expect("batch caller");
    assert!(
        matches!(replies[0].result, Err(ServeError::DeadlineExceeded)),
        "{:?}",
        replies[0]
    );
    assert!(replies[1].result.is_ok(), "{:?}", replies[1]);
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn blocking_solve_sheds_an_expired_deadline_without_solving() {
    let server = start(ServeConfig::default());
    let handle = server.handle();
    let expired = RequestOptions {
        deadline: Some(Instant::now()),
        ..RequestOptions::default()
    };
    let sizes = vec![("rb_n", 10), ("rb_m", 20), ("rb_k", 30)];
    let reply = handle.solve_raw("X", sizes, expired);
    assert!(
        matches!(reply.result, Err(ServeError::DeadlineExceeded)),
        "{reply:?}"
    );
    let stats = handle.stats();
    assert_eq!(stats.served.expired, 1);
    assert_eq!(stats.served.rejected, 1);
    assert_eq!(stats.served.completed, 0);
    assert_eq!(
        stats.cache.requests(),
        0,
        "the expired request was never solved"
    );
    assert_eq!(stats.latency.expired.count(), 1);
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

/// What the server records for a solve: the served counters without
/// the refusals at admission, the cache counters and the per-stage
/// sample counts. A call the stopped ledger refuses is answered `Closed`
/// and counted under `rejected`, which can happen after `shutdown`
/// returns; nothing a solve records can.
fn solve_records(stats: &ServerStats) -> (ServedCounters, CacheStats, Vec<u64>) {
    let served = ServedCounters {
        rejected: 0,
        rejected_overload: 0,
        ..stats.served
    };
    let stages = stats
        .latency
        .stages
        .iter()
        .map(|stage| stage.snapshot.count())
        .collect();
    (served, stats.cache, stages)
}

#[test]
fn shutdown_waits_for_blocking_callers_solving_inline() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let calls = Arc::new(AtomicUsize::new(0));
    // Four threads over two solve slots: two solve while the others
    // wait for a slot. Fresh bindings keep some calls recording regions,
    // until the stopped ledger answers.
    let callers: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            let calls = Arc::clone(&calls);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                for i in 0.. {
                    let (n, m, k) = (1 + i % 50, 1 + t + 4 * (i / 50), 1 + i % 3);
                    let reply = if i % 2 == 0 {
                        handle.solve("X", bindings(n, m, k))
                    } else {
                        let sizes = vec![("rb_n", n), ("rb_m", m), ("rb_k", k)];
                        handle.solve_raw("X", sizes, RequestOptions::default())
                    };
                    calls.fetch_add(1, Ordering::Relaxed);
                    match reply.result {
                        Ok(_) => ok += 1,
                        Err(ServeError::Closed) => break,
                        Err(e) => panic!("unexpected reply: {e}"),
                    }
                }
                ok
            })
        })
        .collect();
    while calls.load(Ordering::Relaxed) < 200 {
        std::thread::yield_now();
    }
    let report = server.shutdown();
    let at_shutdown = handle.stats();
    let ok: u64 = callers
        .into_iter()
        .map(|caller| caller.join().expect("caller thread"))
        .sum();
    let after = handle.stats();
    assert_eq!(
        solve_records(&at_shutdown),
        solve_records(&after),
        "a solve ran or was counted after shutdown returned"
    );
    let served = after.served;
    assert!(ok > 0);
    assert_eq!(ok, served.hits + served.misses, "{served:?}");
    assert!(served.misses > 0, "{served:?}");
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn shutdown_racing_submitters_resolves_every_ticket() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let sent = Arc::new(AtomicUsize::new(0));
    // Four threads alternate batches of four and single calls until the
    // server answers `closed`.
    let callers: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            let sent = Arc::clone(&sent);
            std::thread::spawn(move || {
                let mut replies = Vec::new();
                for i in 0..100_000 {
                    let request = |j: usize| {
                        let b = bindings(10 + (i + j) % 13, 20 + t, 30);
                        ("X".to_owned(), b, RequestOptions::default())
                    };
                    let got = if i % 2 == 0 {
                        handle.solve_batch((0..4).map(request).collect())
                    } else {
                        let (name, b, options) = request(0);
                        vec![handle.solve_opts(&name, b, options)]
                    };
                    sent.fetch_add(got.len(), Ordering::Relaxed);
                    let closed = got
                        .iter()
                        .any(|reply| matches!(reply.result, Err(ServeError::Closed)));
                    replies.extend(got);
                    if closed {
                        break;
                    }
                }
                replies
            })
        })
        .collect();
    while sent.load(Ordering::Relaxed) < 200 {
        std::thread::yield_now();
    }
    let report = server.shutdown();
    let mut ok = 0u64;
    for caller in callers {
        for reply in caller.join().expect("caller thread") {
            match reply.result {
                Ok(_) => ok += 1,
                Err(ServeError::Closed | ServeError::QueueFull) => {}
                Err(e) => panic!("unexpected reply: {e}"),
            }
        }
    }
    assert!(ok > 0);
    let served = handle.stats().served;
    assert_eq!(ok, served.hits + served.misses, "{served:?}");
    assert_eq!(
        served.hits + served.misses + served.failed,
        served.completed
    );
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn dropping_a_server_answers_requests_in_flight() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // Eight callers, two of them holding the two solve slots for 100 ms:
    // the others wait for a slot when the server is dropped.
    let callers: Vec<_> = (0..8)
        .map(|i| {
            let options = if i < 2 {
                delayed(100)
            } else {
                RequestOptions::default()
            };
            let request = vec![("X".to_owned(), bindings(10 + i, 20, 30), options)];
            spawn_batch(&handle, request, 1)
        })
        .collect();
    // No shutdown(): the drop stops new slot claims, but every caller
    // already counted is solved.
    drop(server);
    for caller in callers {
        let reply = caller.join().expect("caller thread");
        assert!(reply[0].result.is_ok(), "{reply:?}");
    }
    let reply = handle.solve("X", bindings(10, 20, 30));
    assert!(matches!(reply.result, Err(ServeError::Closed)), "{reply:?}");
}

#[test]
fn injected_panic_is_answered_internal_and_pool_survives() {
    silence_injected_panics();
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let faulty = RequestOptions {
        fault: Some(SolveFault::Panic),
        ..RequestOptions::default()
    };
    let reply = handle.solve_opts("X", bindings(10, 20, 30), faulty);
    match &reply.result {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("injected"), "{msg}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // The panic was caught inside the solve, on this thread, and the
    // server keeps serving.
    let reply = handle.solve("X", bindings(10, 20, 30));
    assert!(reply.result.is_ok(), "{reply:?}");
    let stats = handle.stats();
    assert_eq!(stats.served.failed, 1);
    assert_eq!(stats.panics, 1);
    let report = server.shutdown();
    assert_eq!(report.panics, 1);
    assert!(!report.is_clean());
}

#[test]
fn an_injected_fault_fails_only_its_own_request() {
    // Two identical requests in one batch, the first carrying an
    // injected panic. Each is solved on its own: only the faulted one
    // answers `internal`, and its twin is solved as if alone.
    silence_injected_panics();
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let faulty = RequestOptions {
        fault: Some(SolveFault::Panic),
        ..RequestOptions::default()
    };
    let replies = server.handle().solve_batch(vec![
        ("X".to_owned(), bindings(10, 20, 30), faulty),
        (
            "X".to_owned(),
            bindings(10, 20, 30),
            RequestOptions::default(),
        ),
    ]);
    assert!(
        matches!(&replies[0].result, Err(ServeError::Internal(msg)) if msg.contains("injected")),
        "{:?}",
        replies[0]
    );
    let served = replies[1].result.as_ref().expect("the twin is solved");
    let registry = KernelRegistry::blas_lapack();
    let chain = dense_chain().bind(&bindings(10, 20, 30)).unwrap();
    let cold = GmcOptimizer::new(&registry, FlopCount)
        .solve(&chain)
        .unwrap();
    assert_eq!(served.cost.to_bits(), cold.cost().to_bits());
    assert_eq!(served.flops.to_bits(), cold.flops().to_bits());
    assert_eq!(served.parenthesization, cold.parenthesization());
    assert_eq!(served.kernels, cold.kernel_names());
    let stats = server.stats();
    assert_eq!(stats.served.failed, 1);
    assert_eq!(stats.cache.requests(), 1);
    let report = server.shutdown();
    assert_eq!(report.panics, 1, "{report:?}");
}

#[test]
fn dropping_a_server_after_a_worker_panic_does_not_panic() {
    silence_injected_panics();
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let faulty = RequestOptions {
        fault: Some(SolveFault::Panic),
        ..RequestOptions::default()
    };
    let reply = handle.solve_opts("X", bindings(10, 20, 30), faulty);
    assert!(reply.result.is_err());
    // No shutdown(): Drop must not panic after a caught solve panic.
    drop(server);
}

#[test]
fn abandoned_tickets_do_not_leak_permits() {
    let server = start(ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let door = TcpFrontDoor::bind(handle.clone(), "127.0.0.1:0").unwrap();
    // Each client sends a request and closes its connection without
    // reading the reply; the server answers into a closed socket and
    // must still release its place in the ledger.
    for i in 0..10 {
        let mut client = TcpStream::connect(door.local_addr()).unwrap();
        writeln!(client, "X rb_n={},rb_m=20,rb_k=30", 10 + i).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let served = handle.stats().served;
        if served.completed + served.rejected >= 10 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned requests never drained"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // All places are back: a full-capacity batch is admitted whole.
    let replies = handle.solve_batch(vec![
        (
            "X".to_owned(),
            bindings(50, 20, 30),
            RequestOptions::default(),
        ),
        (
            "X".to_owned(),
            bindings(51, 20, 30),
            RequestOptions::default(),
        ),
    ]);
    assert!(replies.iter().all(|r| r.result.is_ok()), "{replies:?}");
    door.shutdown();
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}
