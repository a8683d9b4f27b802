//! Chaos soak suite: trace replays with deterministic fault injection.
//!
//! A seeded `gmc-faults/2` plan is replayed against a live server and
//! the run must uphold the serving tier's promises under hostility:
//! every submitted request is answered exactly once, the counters
//! balance (`completed + rejected == submitted`,
//! `hits + misses + failed == completed`) under solve panics,
//! admission overload and deadline expiry, no thread panic escapes to
//! the test harness, every `internal` reply comes from an injected
//! panic, and every surviving reply is bit-identical to a cold
//! reference solve (the replay harness checks all of this and
//! reports violations; the tests here assert the chaos actually
//! happened too, so a silently-disarmed fault plan cannot pass).

use gmc_bench::replay::{replay_trace, ReplayOptions, Verify};
use gmc_bench::workload::{generate, WorkloadSpec};
use gmc_serve::faults::{FaultPlan, FaultSpec};

fn trace_of(requests: usize, seed: u64) -> gmc_bench::workload::Trace {
    let mut spec = WorkloadSpec::preset("mixed", seed).expect("known preset");
    spec.requests = requests;
    generate(&spec).expect("trace generates")
}

#[test]
fn seeded_chaos_replay_upholds_every_invariant() {
    // The default spec injects 2 caught panics, 2 delays, 2 expired
    // deadlines and one 32-request burst into a capacity-8 gate — ≥1
    // solve panic, ≥1 queue-full burst and ≥1 expired deadline in one
    // replay, per the chaos acceptance bar.
    let spec = FaultSpec::default();
    let plan = FaultPlan::seeded(&spec).expect("plan generates");
    assert!(plan.injects_panics());
    let trace = trace_of(spec.requests, 11);
    let opts = ReplayOptions {
        workers: 3,
        verify: Verify::All,
        faults: Some(plan.clone()),
        ..ReplayOptions::default()
    };
    let report = replay_trace(&trace, &opts).expect("replay runs");
    assert!(
        report.is_clean(),
        "chaos violations:\n  {}",
        report.violations.join("\n  ")
    );
    // Exactly one result slot per request, in order.
    assert_eq!(report.results.len(), spec.requests);
    // The chaos really happened — and deterministically so. The burst
    // hits an empty gate (every earlier request is answered first), so
    // exactly size - capacity of its requests are shed.
    assert_eq!(
        report.queue_full_replies,
        spec.burst_size - spec.queue_capacity
    );
    assert_eq!(report.expired_replies, spec.expires);
    // Panics answer `internal`, and only the faulted request itself:
    // every request is solved on its own. The server caught exactly the
    // injected panics.
    assert_eq!(report.internal_replies, spec.panics);
    assert_eq!(report.panics, spec.panics as u64);
    // Counter balance, spelled out (the harness also checks these).
    let served = report.stats.served;
    assert_eq!(served.completed + served.rejected, spec.requests as u64);
    assert_eq!(
        served.hits + served.misses + served.failed,
        served.completed
    );
    assert_eq!(
        served.rejected_overload,
        (spec.burst_size - spec.queue_capacity) as u64
    );
    assert_eq!(served.expired, spec.expires as u64);

    // Same trace, same plan, same answers: chaos is replayable.
    let again = replay_trace(&trace, &opts).expect("replay runs");
    assert!(
        again.is_clean(),
        "rerun violations:\n  {}",
        again.violations.join("\n  ")
    );
    assert_eq!(report.results, again.results);
}

#[test]
fn repeated_kills_exhaust_and_respawn_within_budget() {
    let spec = FaultSpec {
        seed: 23,
        requests: 60,
        panics: 1,
        delays: 0,
        expires: 1,
        bursts: 1,
        burst_size: 12,
        queue_capacity: 4,
        ..FaultSpec::default()
    };
    let plan = FaultPlan::seeded(&spec).expect("plan generates");
    let trace = trace_of(spec.requests, 29);
    let report = replay_trace(
        &trace,
        &ReplayOptions {
            workers: 2,
            verify: Verify::All,
            faults: Some(plan),
            ..ReplayOptions::default()
        },
    )
    .expect("replay runs");
    assert!(
        report.is_clean(),
        "chaos violations:\n  {}",
        report.violations.join("\n  ")
    );
    // The 12-request burst into a gate of 4 sheds exactly 8, and the
    // one injected panic is the only `internal` reply.
    assert_eq!(report.queue_full_replies, 12 - 4);
    assert_eq!(report.internal_replies, 1, "{report:?}");
    assert_eq!(report.panics, 1);
}
