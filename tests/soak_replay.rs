//! Soak/stress suite: adversarial workload traces replayed by several
//! caller threads against one server, asserting the serving tier's invariants under
//! pressure — every response bit-identical to a cold reference solve,
//! counters exactly accounting for every request, no recording
//! duplicated, histogram totals equal to request totals. The trace
//! shapes are the ones that have historically hurt: all-miss region
//! churn, duplicate storms, renamed-variable aliasing (the
//! canonical-key crash family), and bursty open-loop arrival timing.
//! Iteration counts are bounded so the suite stays `cargo test`-sized.

use gmc_bench::replay::{replay_trace, ReplayOptions, Verify};
use gmc_bench::workload::{generate, WorkloadSpec};
use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanCache;
use gmc_serve::{ServeConfig, Server};
use std::sync::Arc;

fn preset(name: &str, seed: u64, requests: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::preset(name, seed).expect("known preset");
    spec.requests = requests;
    spec
}

fn assert_clean(report: &gmc_bench::replay::ReplayReport) {
    assert!(
        report.is_clean(),
        "replay violations:\n  {}",
        report.violations.join("\n  ")
    );
}

#[test]
fn soak_mixed_preset_upholds_all_invariants() {
    let trace = generate(&preset("mixed", 0xA11CE, 150)).unwrap();
    let report = replay_trace(
        &trace,
        &ReplayOptions {
            workers: 4,
            verify: Verify::All,
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    assert_clean(&report);
    assert_eq!(report.results.len(), 150);
    assert_eq!(report.stats.served.completed, 150);
    assert_eq!(report.stats.latency.total.count(), 150);
    assert!(report.verified > 0);
}

#[test]
fn soak_all_miss_churn_never_caches_wrong() {
    // Region churn: every request aims at an unseen size ordering. A
    // region spans every ordering that answers its recording's shape
    // questions alike, so most of them hit; each region must still be
    // recorded exactly once, as a sequential replay of the trace records
    // it, and no reuse may be wrong.
    let options = ReplayOptions {
        workers: 4,
        verify: Verify::All,
        ..ReplayOptions::default()
    };
    let trace = generate(&preset("churn", 0xC0FFEE, 120)).unwrap();
    let report = replay_trace(&trace, &options).unwrap();
    assert_clean(&report);
    let sequential = PlanCache::new(Arc::new(KernelRegistry::blas_lapack()), options.inference);
    for r in &trace.requests {
        let s = &trace.structures[r.structure];
        sequential
            .solve(&s.chain().unwrap(), &s.bindings(&r.values))
            .unwrap();
    }
    let recorded = sequential.stats().structure_misses + sequential.stats().region_misses;
    let served = report.stats.served;
    assert_eq!(served.misses, recorded, "{served:?}");
    assert_eq!(served.hits + served.misses, 120);
}

#[test]
fn soak_duplicate_storm_coalesces_in_one_batch() {
    // A trace of which 90% is duplicates, from four callers racing
    // each other. Each duplicate is its own request: it coalesces at
    // the cache, as a hit on the region its first copy recorded (or a
    // waiter on that recording), gets a bit-identical answer and
    // exactly one latency sample, and costs exactly one instantiate.
    let trace = generate(&preset("storm", 0x5708, 150)).unwrap();
    let report = replay_trace(
        &trace,
        &ReplayOptions {
            workers: 4,
            verify: Verify::Sample(25),
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    assert_clean(&report);
    let (served, cache) = (report.stats.served, report.stats.cache);
    assert_eq!(cache.requests(), served.completed, "{}", report.stats);
    assert!(served.hits > 0, "{}", report.stats);
}

#[test]
fn soak_renamed_alias_twins_answer_bit_identically() {
    // The PR 5 crash family: structurally identical chains registered
    // under different dimension-variable names share one canonical
    // plan-cache key. Interleaved traffic across base and twin must
    // still produce answers bit-identical to cold per-structure solves.
    let trace = generate(&preset("aliased", 0xA71A5, 120)).unwrap();
    let twins = trace
        .structures
        .iter()
        .filter(|s| s.name.ends_with('x'))
        .count();
    assert!(twins > 0, "aliased preset must register renamed twins");
    assert!(
        trace
            .requests
            .iter()
            .any(|r| trace.structures[r.structure].name.ends_with('x')),
        "trace must actually exercise a twin"
    );
    let report = replay_trace(
        &trace,
        &ReplayOptions {
            workers: 4,
            verify: Verify::All,
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    assert_clean(&report);
}

#[test]
fn soak_bursty_open_loop_timing() {
    // Honor the trace's on-off arrival offsets (microsecond scale, so
    // the sleeps stay tiny) — timing gaps must not break accounting.
    let trace = generate(&preset("bursty", 0xB057, 100)).unwrap();
    assert!(trace.requests.last().unwrap().at_us > 0);
    let report = replay_trace(
        &trace,
        &ReplayOptions {
            workers: 2,
            honor_timing: true,
            verify: Verify::Sample(15),
            ..ReplayOptions::default()
        },
    )
    .unwrap();
    assert_clean(&report);
    assert_eq!(report.stats.served.completed, 100);
}

#[test]
fn soak_interleaved_registration_and_traffic() {
    // Registrations racing live traffic: new structures appear while
    // bursts against older ones are in flight. Accounting must hold
    // across the interleaving, and requests against structures that
    // appear later in the stream must be served once registered.
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();
    let make_chain = |tag: usize| -> SymChain {
        let dims: Vec<Dim> = (0..4).map(|i| Dim::var(&format!("ir{tag}d{i}"))).collect();
        SymChain::new(
            (0..3)
                .map(|i| SymFactor::plain(SymOperand::new(format!("M{i}"), dims[i], dims[i + 1])))
                .collect(),
        )
        .unwrap()
    };
    let bindings_for = |tag: usize, scale: usize| -> DimBindings {
        let mut b = DimBindings::new();
        for i in 0..4 {
            b.set(&format!("ir{tag}d{i}"), 10 + 7 * i + 5 * scale);
        }
        b
    };

    let structures = 5usize;
    let per_round = 20usize;
    let submitted = structures * per_round;
    let ok = std::thread::scope(|scope| {
        let mut callers = Vec::new();
        for tag in 0..structures {
            server
                .register(&format!("R{tag}"), make_chain(tag))
                .unwrap();
            // A caller bursts against every structure registered so
            // far while the next registrations go on.
            let handle = handle.clone();
            callers.push(scope.spawn(move || {
                for i in 0..per_round {
                    let target = i % (tag + 1);
                    let reply = handle.solve(&format!("R{target}"), bindings_for(target, i % 4));
                    assert!(reply.result.is_ok(), "{reply:?}");
                }
                per_round
            }));
        }
        callers
            .into_iter()
            .map(|caller| caller.join().expect("caller thread"))
            .sum::<usize>()
    });
    assert_eq!(ok, submitted);
    let s = server.stats();
    assert_eq!(s.served.completed + s.served.rejected, submitted as u64);
    assert_eq!(s.served.rejected, 0);
    assert_eq!(
        s.served.hits + s.served.misses + s.served.failed,
        s.served.completed
    );
    assert_eq!(s.latency.total.count(), s.served.completed);
    let class_total: u64 = s.latency.classes.iter().map(|c| c.snapshot.count()).sum();
    assert_eq!(class_total, s.served.hits + s.served.misses);
    assert_eq!(s.structures, structures);
    server.shutdown();
}
