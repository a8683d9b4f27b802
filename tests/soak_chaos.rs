//! Chaos soak suite: trace replays with deterministic fault injection.
//!
//! A seeded `gmc-faults/1` plan is replayed against a live server and
//! the run must uphold the serving tier's promises under hostility:
//! every submitted request is answered exactly once, the counters
//! balance (`completed + rejected == submitted`,
//! `hits + misses + failed == completed`) under worker panics,
//! admission overload and deadline expiry, no thread panic escapes to
//! the test harness, and every surviving reply is bit-identical to a
//! cold reference solve (the replay harness checks all of this and
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
    // The default spec injects 2 caught panics, 1 worker kill, 2
    // delays, 2 connection drops, 2 expired deadlines and one
    // 32-request burst into a capacity-8 queue — ≥1 worker panic, ≥1
    // queue-full burst and ≥1 expired deadline in one replay, per the
    // chaos acceptance bar.
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
    // hits an empty gate (closed-loop windows drain between batches),
    // so exactly size - capacity of its requests are shed.
    assert_eq!(
        report.queue_full_replies,
        spec.burst_size - spec.queue_capacity
    );
    assert_eq!(report.expired_replies, spec.expires);
    assert_eq!(report.abandoned, spec.drops);
    // Panics and kills answer `internal`, and only the faulted request
    // itself: every request is its own job.
    assert_eq!(report.internal_replies, spec.panics + spec.kills);
    // Only kills take a thread down (panics are caught in-worker), and
    // the supervisor replaced every lost thread.
    assert_eq!(report.worker_panics, spec.kills as u64);
    assert_eq!(report.respawns, spec.kills as u64);
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
        kills: 3,
        delays: 0,
        drops: 1,
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
    // Three kills, three respawns: the pool was restored after every
    // loss (the default restart budget of 8 covers all three) and the
    // replay still answered every request.
    assert_eq!(report.worker_panics, 3);
    assert_eq!(report.respawns, 3);
    assert_eq!(report.queue_full_replies, 12 - 4);
    assert!(report.internal_replies >= 4, "{report:?}");
}
