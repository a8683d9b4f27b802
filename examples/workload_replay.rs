//! Workload generation and latency-instrumented trace replay.
//!
//! A seeded `WorkloadSpec` (structure population with Zipf popularity,
//! binding distributions, arrival process, hit-ratio target) compiles
//! deterministically into a replayable trace; the trace is replayed
//! against a multi-worker serving front door with every distinct
//! request verified bit-identical against a cold optimizer solve, and
//! the server's latency histograms are read back as p50/p99 per
//! (structure, hit/miss) class.
//!
//! ```text
//! cargo run --release --example workload_replay
//! ```

use gmc_bench::replay::{replay_trace, ReplayOptions, Verify};
use gmc_bench::workload::{generate, WorkloadSpec};

fn main() {
    // A mixed workload: 6 structures under Zipf popularity, half the
    // traffic aimed at already-seen size regions (cache hits), a
    // sprinkle of exact duplicates (each one its own request).
    let mut spec = WorkloadSpec::preset("mixed", 42).expect("known preset");
    spec.requests = 200;
    let trace = generate(&spec).expect("valid spec");
    print!("{}", trace.describe());

    // The JSON form is the stable interchange format (`gmcc workload
    // gen/replay` speak it); same spec, same bytes, every time.
    let json = trace.to_json_string();
    println!(
        "trace JSON: {} bytes (deterministic for seed 42)\n",
        json.len()
    );

    let report = replay_trace(
        &trace,
        &ReplayOptions {
            workers: 4,
            verify: Verify::Sample(40),
            ..ReplayOptions::default()
        },
    )
    .expect("replay runs");
    assert!(
        report.is_clean(),
        "invariant violations: {:?}",
        report.violations
    );

    let stats = &report.stats;
    println!(
        "replayed {} requests in {:.3}s ({:.0} req/s), {} verified bit-identical",
        report.submitted,
        report.elapsed,
        report.submitted as f64 / report.elapsed.max(1e-9),
        report.verified,
    );
    println!(
        "served: {} completed = {} hits + {} misses + {} failed; {} cache instantiates",
        stats.served.completed,
        stats.served.hits,
        stats.served.misses,
        stats.served.failed,
        stats.cache.requests(),
    );
    println!(
        "latency (enqueue->complete): p50 {:>9} ns   p99 {:>9} ns   max {:>9} ns",
        stats.latency.total.quantile(0.5),
        stats.latency.total.quantile(0.99),
        stats.latency.total.max(),
    );
    println!(
        "queueing (enqueue->worker pickup): p50 {:>9} ns   p99 {:>9} ns",
        stats.latency.queue.quantile(0.5),
        stats.latency.queue.quantile(0.99),
    );
    println!("\nper-(structure, class) latency:");
    for class in &stats.latency.classes {
        println!(
            "  {:<4} {:<4} count {:>4}   p50 {:>9} ns   p99 {:>9} ns",
            class.structure,
            class.class,
            class.snapshot.count(),
            class.snapshot.quantile(0.5),
            class.snapshot.quantile(0.99),
        );
    }
}
