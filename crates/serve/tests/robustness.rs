//! Robustness tests for the serving tier: bounded admission, deadline
//! shedding, worker supervision and graceful shutdown.

use gmc::{FlopCount, GmcOptimizer};
use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_plan::CacheStats;
use gmc_serve::faults::silence_injected_panics;
use gmc_serve::{
    RequestOptions, ServeConfig, ServeError, ServedCounters, Server, ServerStats, SolveFault,
    SubmitError, Ticket,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
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

#[test]
fn batch_overflow_sheds_newest_deterministically() {
    let server = start(ServeConfig {
        queue_capacity: 4,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // Ten requests into an empty gate of capacity 4, submitted as one
    // batch: admission is decided in submission order, so exactly the
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
    let replies: Vec<_> = handle
        .submit_batch_opts(batch)
        .into_iter()
        .map(|t| t.wait())
        .collect();
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
    // The first request holds the only permit until its (delayed)
    // reply; the second must be refused at the door.
    let slow = RequestOptions {
        fault: Some(SolveFault::Delay(Duration::from_millis(300))),
        ..RequestOptions::default()
    };
    let first = handle.try_submit("X", bindings(10, 20, 30), slow).unwrap();
    assert_eq!(
        handle
            .try_submit("X", bindings(11, 20, 30), RequestOptions::default())
            .unwrap_err(),
        SubmitError::QueueFull { capacity: 1 }
    );
    // Admission looks the structure up before it asks for a permit: an
    // unknown structure is answered on its ticket and counted, though
    // the gate is full.
    let unknown = handle
        .try_submit("Y", bindings(11, 20, 30), RequestOptions::default())
        .unwrap()
        .wait();
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
    assert_eq!((served.rejected, served.rejected_overload), (1, 0));
    assert!(first.wait().result.is_ok());
    // The permit came back with the reply: the gate admits again.
    let again = handle
        .try_submit("X", bindings(11, 20, 30), RequestOptions::default())
        .unwrap();
    assert!(again.wait().result.is_ok());
    server.shutdown();
    assert_eq!(
        handle
            .try_submit("X", bindings(12, 20, 30), RequestOptions::default())
            .unwrap_err(),
        SubmitError::ShuttingDown
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
    let reply = handle
        .submit_opts("X", bindings(10, 20, 30), expired)
        .wait();
    assert!(
        matches!(reply.result, Err(ServeError::DeadlineExceeded)),
        "{reply:?}"
    );
    // A generous deadline changes nothing.
    let roomy = RequestOptions::with_deadline_in(Duration::from_secs(30));
    let reply = handle.submit_opts("X", bindings(10, 20, 30), roomy).wait();
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
    // The only worker sleeps 200 ms on the first request, so the
    // second waits in the worker queue far past its 20 ms deadline:
    // the worker sheds it at dequeue, without solving it.
    let slow = RequestOptions {
        fault: Some(SolveFault::Delay(Duration::from_millis(200))),
        ..RequestOptions::default()
    };
    let busy = handle.submit_opts("X", bindings(10, 20, 30), slow);
    let hurried = handle.submit_opts(
        "X",
        bindings(11, 20, 30),
        RequestOptions::with_deadline_in(Duration::from_millis(20)),
    );
    let reply = hurried.wait();
    assert!(
        matches!(reply.result, Err(ServeError::DeadlineExceeded)),
        "{reply:?}"
    );
    assert!(busy.wait().result.is_ok());
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
    // Two jobs: an already-expired request, then one that delays its
    // solve by 200 ms. The only worker sheds the first, then takes the
    // second, claiming the only solve slot as it dequeues it; so from
    // the shed reply until the delayed solve ends, the second job is
    // queued or holds the slot.
    let expired = RequestOptions {
        deadline: Some(Instant::now()),
        ..RequestOptions::default()
    };
    let slow = RequestOptions {
        fault: Some(SolveFault::Delay(Duration::from_millis(200))),
        ..RequestOptions::default()
    };
    let started = Instant::now();
    let mut tickets = handle.submit_batch_opts(vec![
        ("X".to_owned(), bindings(10, 20, 30), expired),
        ("X".to_owned(), bindings(10, 20, 30), slow),
    ]);
    let busy = tickets.pop().expect("two tickets");
    let shed = tickets.pop().expect("two tickets").wait();
    assert!(
        matches!(shed.result, Err(ServeError::DeadlineExceeded)),
        "{shed:?}"
    );
    // A blocking solve of another binding cannot run inline beside the
    // delayed one: it waits for the slot and is answered after it.
    let reply = handle.solve("X", bindings(11, 20, 30));
    let waited = started.elapsed();
    assert!(reply.result.is_ok(), "{reply:?}");
    assert!(
        waited >= Duration::from_millis(150),
        "the solve returned after {waited:?}, beside the delayed job"
    );
    // The delayed job was accounted before the solve was answered.
    assert_eq!(handle.stats().served.completed, 2);
    assert!(busy.wait().result.is_ok());
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
/// sample counts. A call the closed gate refuses is answered `Closed`
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
    // Four threads over two solve slots: some solve inline, the others
    // queue for the workers. Fresh bindings keep some calls recording
    // regions on the calling thread, until the closed gate answers.
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
    let submitted = Arc::new(AtomicUsize::new(0));
    // Four threads submit in closed-loop windows of 32, alternating
    // `submit` and `try_submit`, until admission refuses them.
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            let submitted = Arc::clone(&submitted);
            std::thread::spawn(move || {
                let mut replies = Vec::new();
                let mut window = Vec::new();
                for i in 0..100_000 {
                    let b = bindings(10 + i % 13, 20 + t, 30);
                    if i % 2 == 0 {
                        window.push(handle.submit("X", b));
                    } else {
                        match handle.try_submit("X", b, RequestOptions::default()) {
                            Ok(ticket) => window.push(ticket),
                            Err(SubmitError::ShuttingDown) => break,
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                    submitted.fetch_add(1, Ordering::Relaxed);
                    if window.len() == 32 {
                        replies.extend(window.drain(..).map(|ticket| ticket.wait()));
                    }
                }
                replies.extend(window.into_iter().map(|ticket| ticket.wait()));
                replies
            })
        })
        .collect();
    while submitted.load(Ordering::Relaxed) < 200 {
        std::thread::yield_now();
    }
    let report = server.shutdown();
    let mut ok = 0u64;
    for submitter in submitters {
        for reply in submitter.join().expect("submitter thread") {
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
    let tickets: Vec<_> = (0..64)
        .map(|i| handle.submit("X", bindings(10 + i, 20, 30)))
        .collect();
    // No shutdown(): the drop queues the workers' stops behind the 64
    // jobs, so every one of them is still answered.
    drop(server);
    for ticket in tickets {
        let reply = ticket.wait();
        assert!(reply.result.is_ok(), "{reply:?}");
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
    let reply = handle.submit_opts("X", bindings(10, 20, 30), faulty).wait();
    match &reply.result {
        Err(ServeError::Internal(msg)) => {
            assert!(msg.contains("injected"), "{msg}");
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // The panic was caught inside the worker: no thread died, and the
    // pool keeps serving.
    let reply = handle
        .submit_opts("X", bindings(10, 20, 30), RequestOptions::default())
        .wait();
    assert!(reply.result.is_ok(), "{reply:?}");
    let stats = handle.stats();
    assert_eq!(stats.served.failed, 1);
    assert_eq!(stats.supervision.worker_panics, 0);
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn an_injected_fault_fails_only_its_own_request() {
    // Two identical requests in one batch, the first carrying an
    // injected panic. Each is its own job: only the faulted one
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
    let replies: Vec<_> = server
        .handle()
        .submit_batch_opts(vec![
            ("X".to_owned(), bindings(10, 20, 30), faulty),
            (
                "X".to_owned(),
                bindings(10, 20, 30),
                RequestOptions::default(),
            ),
        ])
        .into_iter()
        .map(Ticket::wait)
        .collect();
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
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn killed_worker_is_respawned_within_budget() {
    silence_injected_panics();
    let server = start(ServeConfig {
        workers: 1,
        restart_budget: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let lethal = RequestOptions {
        fault: Some(SolveFault::Kill),
        ..RequestOptions::default()
    };
    let reply = handle.submit_opts("X", bindings(10, 20, 30), lethal).wait();
    assert!(
        matches!(reply.result, Err(ServeError::Internal(_))),
        "{reply:?}"
    );
    // The single worker died after answering; the respawned one picks
    // the next job up.
    let reply = handle
        .submit_opts("X", bindings(11, 20, 30), RequestOptions::default())
        .wait();
    assert!(reply.result.is_ok(), "{reply:?}");
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.respawns, 1);
    assert!(!report.is_clean());
}

#[test]
fn exhausted_restart_budget_closes_the_door() {
    silence_injected_panics();
    let server = start(ServeConfig {
        workers: 1,
        restart_budget: 0,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let lethal = RequestOptions {
        fault: Some(SolveFault::Kill),
        ..RequestOptions::default()
    };
    let reply = handle.submit_opts("X", bindings(10, 20, 30), lethal).wait();
    assert!(
        matches!(reply.result, Err(ServeError::Internal(_))),
        "{reply:?}"
    );
    // With no restart budget the pool is dead; the supervisor latches
    // the gate shut so callers fail fast instead of hanging. Poll
    // until the event is processed (tickets from the race window are
    // dropped, never waited).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match handle.try_submit("X", bindings(11, 20, 30), RequestOptions::default()) {
            Err(SubmitError::ShuttingDown) => break,
            Err(e) => panic!("unexpected admission error: {e}"),
            Ok(_ticket) => {
                assert!(
                    Instant::now() < deadline,
                    "gate never closed after pool death"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    let reply = handle.solve("X", bindings(12, 20, 30));
    assert!(matches!(reply.result, Err(ServeError::Closed)), "{reply:?}");
    let stats = handle.stats();
    assert_eq!(stats.supervision.workers_alive, 0);
    assert_eq!(stats.supervision.worker_panics, 1);
    assert_eq!(stats.supervision.respawns, 0);
    let report = server.shutdown();
    assert_eq!(report.worker_panics, 1);
    assert_eq!(report.respawns, 0);
}

#[test]
fn dropping_a_server_after_a_worker_panic_does_not_panic() {
    silence_injected_panics();
    let server = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let lethal = RequestOptions {
        fault: Some(SolveFault::Kill),
        ..RequestOptions::default()
    };
    let reply = handle.submit_opts("X", bindings(10, 20, 30), lethal).wait();
    assert!(reply.result.is_err());
    // No shutdown(): Drop must never join (let alone expect on) dead
    // threads.
    drop(server);
}

#[test]
fn abandoned_tickets_do_not_leak_permits() {
    let server = start(ServeConfig {
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // The client walks away; the server replies into a dead channel
    // and must still release the admission slot.
    for i in 0..10 {
        let ticket = handle.submit_opts("X", bindings(10 + i, 20, 30), RequestOptions::default());
        drop(ticket);
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
    // All permits are back: a full-capacity batch is admitted whole.
    let replies: Vec<_> = handle
        .submit_batch_opts(vec![
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
        ])
        .into_iter()
        .map(|t| t.wait())
        .collect();
    assert!(replies.iter().all(|r| r.result.is_ok()), "{replies:?}");
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
}
