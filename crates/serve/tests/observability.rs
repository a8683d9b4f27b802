//! End-to-end tests of the observability layer: the Prometheus
//! `METRICS` exposition, per-stage tracing with the slow-trace ring,
//! the `CACHE` introspection summary, histogram bit-identity across
//! the `gmc-obs`/`gmc-serve` boundary, and the latency classes bounded
//! by the registry's per-family cap.

use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_obs::registry::DEFAULT_SERIES_CAP;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{RequestOptions, ServeConfig, Server, SolveFault, STAGES, TRACE_FORMAT};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn chain() -> SymChain {
    let (n, m, k) = (Dim::var("ob_n"), Dim::var("ob_m"), Dim::var("ob_k"));
    SymChain::new(vec![
        SymFactor::plain(SymOperand::new("A", n, m)),
        SymFactor::plain(SymOperand::new("B", m, k)),
        SymFactor::plain(SymOperand::new("C", k, n)),
    ])
    .unwrap()
}

fn bindings(n: usize, m: usize, k: usize) -> DimBindings {
    DimBindings::new()
        .with("ob_n", n)
        .with("ob_m", m)
        .with("ob_k", k)
}

/// The value of the unique sample line starting with `prefix ` in a
/// Prometheus exposition (label'd series need the full series as the
/// prefix).
fn sample(text: &str, prefix: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(prefix) && l[prefix.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("no sample line starts with `{prefix}` in:\n{text}"));
    line[prefix.len()..].trim().parse().unwrap()
}

/// The single LatencyHistogram implementation lives in `gmc-obs`, and
/// its log-linear bucket boundaries are pinned by hand-computed values
/// so a future re-implementation cannot silently shift them.
#[test]
fn histogram_is_shared_and_buckets_are_pinned() {
    // (recorded value, inclusive upper bound of its bucket).
    let pinned: [(u64, u64); 10] = [
        (0, 0),
        (1, 1),
        (15, 15),
        (16, 16),
        (17, 17),
        (31, 31),
        (32, 33),
        (1000, 1023),
        (1_000_000, 1_015_807),
        (1_000_000_000, 1_006_632_959),
    ];
    for (value, upper) in pinned {
        let h = gmc_obs::LatencyHistogram::new();
        h.record(value);
        let buckets: Vec<(u64, u64)> = h.snapshot().buckets().collect();
        assert_eq!(
            buckets,
            vec![(upper, 1)],
            "value {value} should land in the bucket with upper bound {upper}"
        );
    }
}

/// Under concurrent traffic every `stats()` reading and every `METRICS`
/// scrape balances: the served classes sum to `completed`, and each
/// stage histogram has recorded at most one sample per completed
/// request (exactly one once the burst has drained).
#[test]
fn metrics_balance_under_concurrent_load() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 3,
            ..ServeConfig::default()
        },
    );
    server.register("X", chain()).unwrap();
    let handle = server.handle();

    let threads: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                for i in 0..40 {
                    // Mix of repeats (hits) and fresh regions.
                    let scale = 1 + (t * 40 + i) % 7;
                    let reply = handle.solve("X", bindings(10 * scale, 200 * scale, 30 * scale));
                    assert!(reply.result.is_ok(), "{:?}", reply.result);
                }
            })
        })
        .collect();

    // Read mid-burst: `completed` is the sum of the served classes, so
    // it balances in every reading, and no stage can be ahead of it (a
    // request is counted before its samples record, and both readers
    // take the histograms first).
    for round in 0..50 {
        if round % 5 == 0 {
            let text = handle.metrics_prometheus();
            let completed = sample(&text, "gmc_serve_requests_completed") as u64;
            let served: u64 = ["hit", "miss", "failed"]
                .iter()
                .map(|class| {
                    sample(
                        &text,
                        &format!("gmc_serve_requests_served{{class=\"{class}\"}}"),
                    ) as u64
                })
                .sum();
            assert_eq!(served, completed, "mid-burst scrape must balance");
            for stage in STAGES {
                let count = sample(
                    &text,
                    &format!("gmc_serve_stage_latency_ns_count{{stage=\"{stage}\"}}"),
                ) as u64;
                assert!(
                    count <= completed,
                    "scraped stage {stage} has {count} samples but only {completed} completed"
                );
            }
        }
        let stats = handle.stats();
        let served = stats.served;
        assert_eq!(
            served.hits + served.misses + served.failed,
            served.completed,
            "mid-burst scrape must balance"
        );
        assert_eq!(stats.latency.stages.len(), STAGES.len());
        for stage in &stats.latency.stages {
            assert!(
                stage.snapshot.count() <= served.completed,
                "stage {} has {} samples but only {} requests completed",
                stage.stage,
                stage.snapshot.count(),
                served.completed
            );
        }
        std::thread::yield_now();
    }
    for t in threads {
        t.join().unwrap();
    }

    // Quiescent: every completed request left exactly one sample in
    // every stage histogram, and the text exposition agrees.
    let stats = handle.stats();
    let completed = stats.served.completed;
    assert_eq!(completed, 160);
    for stage in &stats.latency.stages {
        assert_eq!(
            stage.snapshot.count(),
            completed,
            "stage {} count",
            stage.stage
        );
    }
    let text = handle.metrics_prometheus();
    assert!(
        text.contains("# TYPE gmc_serve_stage_latency_ns histogram"),
        "{text}"
    );
    assert_eq!(
        sample(&text, "gmc_serve_requests_completed") as u64,
        completed
    );
    let hit = sample(&text, "gmc_serve_requests_served{class=\"hit\"}") as u64;
    let miss = sample(&text, "gmc_serve_requests_served{class=\"miss\"}") as u64;
    let failed = sample(&text, "gmc_serve_requests_served{class=\"failed\"}") as u64;
    assert_eq!(hit + miss + failed, completed);
    for stage in STAGES {
        let count = sample(
            &text,
            &format!("gmc_serve_stage_latency_ns_count{{stage=\"{stage}\"}}"),
        ) as u64;
        assert_eq!(count, completed, "stage {stage} exposition count");
    }
    // The cache's counters are its totals: one instantiate per
    // completed request.
    let cache_requests: Vec<u64> = ["hit", "miss_region", "miss_structure"]
        .iter()
        .map(|outcome| {
            sample(
                &text,
                &format!("gmc_cache_requests{{outcome=\"{outcome}\"}}"),
            ) as u64
        })
        .collect();
    assert_eq!(cache_requests[0], stats.cache.hits);
    assert_eq!(cache_requests.iter().sum::<u64>(), completed);
    server.shutdown();
}

/// The wire protocol answers `METRICS` (multi-line, `# EOF`-terminated),
/// `SLOW` (one `gmc-traces/1` JSON line) and `CACHE` (one JSON line).
#[test]
fn wire_metrics_slow_and_cache_round_trip() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    server.register("X", chain()).unwrap();
    let door = TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(door.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();

    for r in [
        "X ob_n=10,ob_m=200,ob_k=30",
        "X ob_n=20,ob_m=400,ob_k=60",
        "X ob_n=10,ob_m=200,ob_k=30",
    ] {
        writer.write_all(r.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let reply = lines.next().unwrap().unwrap();
        assert!(!reply.contains("error"), "{reply}");
    }

    writer.write_all(b"METRICS\n").unwrap();
    writer.flush().unwrap();
    let mut exposition = String::new();
    loop {
        let line = lines.next().unwrap().unwrap();
        if line == "# EOF" {
            break;
        }
        exposition.push_str(&line);
        exposition.push('\n');
    }
    assert!(
        exposition.contains("# TYPE gmc_serve_stage_latency_ns histogram"),
        "{exposition}"
    );
    assert_eq!(sample(&exposition, "gmc_serve_requests_completed"), 3.0);
    assert!(
        sample(
            &exposition,
            "gmc_serve_stage_latency_ns_count{stage=\"solve\"}"
        ) >= 3.0
    );
    assert_eq!(
        sample(&exposition, "gmc_cache_structure_hits{structure=\"X\"}") as u64
            + sample(&exposition, "gmc_cache_structure_misses{structure=\"X\"}") as u64,
        3
    );

    writer.write_all(b"SLOW\n").unwrap();
    writer.flush().unwrap();
    let slow_line = lines.next().unwrap().unwrap();
    let slow: Value = serde_json::from_str(&slow_line).expect("SLOW line parses as JSON");
    let format = match slow.get_field("format").unwrap() {
        Value::String(s) => s.clone(),
        other => panic!("format should be a string, got {other:?}"),
    };
    assert_eq!(format, TRACE_FORMAT);
    let traces = match slow.get_field("traces").unwrap() {
        Value::Array(a) => a.clone(),
        other => panic!("traces should be an array, got {other:?}"),
    };
    assert_eq!(traces.len(), 3, "{slow_line}");

    writer.write_all(b"CACHE\n").unwrap();
    writer.flush().unwrap();
    let cache_line = lines.next().unwrap().unwrap();
    let cache: Value = serde_json::from_str(&cache_line).expect("CACHE line parses as JSON");
    let totals = cache.get_field("totals").unwrap();
    assert_eq!(
        totals.get_field("requests").unwrap(),
        &Value::Number(3.0),
        "{cache_line}"
    );
    assert_eq!(
        totals.get_field("structure_misses").unwrap(),
        &Value::Number(1.0),
        "{cache_line}"
    );
    let structures = match cache.get_field("structures").unwrap() {
        Value::Array(a) => a.clone(),
        other => panic!("structures should be an array, got {other:?}"),
    };
    assert_eq!(structures.len(), 1, "{cache_line}");
    assert!(cache.get_field("shards").is_err(), "{cache_line}");

    drop(writer);
    drop(lines);
    door.shutdown();
    server.shutdown();
}

/// Two names registered for one structure (renamed-variable twins)
/// share one cache entry, so `CACHE` and `METRICS` list it once, named
/// by both, and the rows' counts add up to the cache's totals.
#[test]
fn renamed_twins_share_one_cache_row() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    let (p, q, r) = (Dim::var("ob_p"), Dim::var("ob_q"), Dim::var("ob_r"));
    let twin = SymChain::new(vec![
        SymFactor::plain(SymOperand::new("D", p, q)),
        SymFactor::plain(SymOperand::new("E", q, r)),
        SymFactor::plain(SymOperand::new("F", r, p)),
    ])
    .unwrap();
    server.register("Y", twin).unwrap();
    server.register("X", chain()).unwrap();
    let handle = server.handle();
    assert!(handle.solve("X", bindings(10, 20, 30)).result.is_ok());
    for sizes in [[40, 50, 60], [70, 80, 90]] {
        let vars = ["ob_p", "ob_q", "ob_r"].into_iter().zip(sizes).collect();
        let reply = handle.solve_raw("Y", vars, RequestOptions::default());
        assert!(reply.result.unwrap().outcome.is_hit());
    }

    let cache_line = handle.cache_introspection_json();
    let cache: Value = serde_json::from_str(&cache_line).expect("CACHE parses as JSON");
    let totals = cache.get_field("totals").unwrap();
    assert_eq!(
        totals.get_field("requests").unwrap(),
        &Value::Number(3.0),
        "{cache_line}"
    );
    let rows = match cache.get_field("structures").unwrap() {
        Value::Array(a) => a.clone(),
        other => panic!("structures should be an array, got {other:?}"),
    };
    assert_eq!(rows.len(), 1, "{cache_line}");
    let row = &rows[0];
    for (field, want) in [
        ("name", Value::String("X,Y".to_owned())),
        ("hits", Value::Number(2.0)),
        ("misses", Value::Number(1.0)),
        ("regions", Value::Number(1.0)),
    ] {
        assert_eq!(row.get_field(field).unwrap(), &want, "{cache_line}");
    }

    let exposition = handle.metrics_prometheus();
    assert_eq!(
        sample(&exposition, "gmc_cache_structure_hits{structure=\"X,Y\"}"),
        sample(&exposition, "gmc_cache_requests{outcome=\"hit\"}")
    );
    assert_eq!(
        exposition
            .lines()
            .filter(|l| l.starts_with("gmc_cache_structure_misses{"))
            .count(),
        1,
        "{exposition}"
    );
    server.shutdown();
}

/// Past `DEFAULT_SERIES_CAP` cache entries, the `CACHE` rows of the
/// rest share one `other` row.
#[test]
fn cache_rows_past_the_cap_share_one_other_row() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    let n = Dim::var("ob_n");
    // A constant inner dimension per structure: one cache entry each.
    for i in 0..DEFAULT_SERIES_CAP + 2 {
        let chain = SymChain::new(vec![
            SymFactor::plain(SymOperand::new("A", n, Dim::Const(i + 2))),
            SymFactor::plain(SymOperand::new("B", Dim::Const(i + 2), n)),
        ])
        .unwrap();
        server.register(&format!("S{i:03}"), chain).unwrap();
    }
    let cache_line = server.handle().cache_introspection_json();
    let cache: Value = serde_json::from_str(&cache_line).expect("CACHE parses as JSON");
    let rows = match cache.get_field("structures").unwrap() {
        Value::Array(a) => a.clone(),
        other => panic!("structures should be an array, got {other:?}"),
    };
    assert_eq!(rows.len(), DEFAULT_SERIES_CAP + 1, "{cache_line}");
    let names: Vec<&Value> = rows.iter().map(|r| r.get_field("name").unwrap()).collect();
    assert_eq!(names[0], &Value::String("S000".to_owned()));
    assert_eq!(
        names[DEFAULT_SERIES_CAP],
        &Value::String("other".to_owned())
    );
    server.shutdown();
}

/// The slow-trace ring retains the slowest request, and its spans tile
/// the request exactly: stages in [`STAGES`] order, telescoping start
/// offsets, durations summing to the trace total.
#[test]
fn slow_trace_ring_keeps_the_slowest_with_exact_spans() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            slow_trace_capacity: 1,
            ..ServeConfig::default()
        },
    );
    server.register("X", chain()).unwrap();
    let handle = server.handle();

    // Warm the region, then a burst of fast hits around one delayed
    // request: with capacity 1 only the delayed request survives.
    handle.solve("X", bindings(10, 200, 30));
    for _ in 0..5 {
        handle.solve("X", bindings(10, 200, 30));
    }
    let slow = handle.solve_opts(
        "X",
        bindings(10, 200, 30),
        RequestOptions {
            deadline: None,
            fault: Some(SolveFault::Delay(Duration::from_millis(30))),
        },
    );
    assert!(slow.result.is_ok());
    for _ in 0..5 {
        handle.solve("X", bindings(10, 200, 30));
    }

    let traces = handle.slow_traces();
    assert_eq!(traces.len(), 1);
    let trace = &traces[0];
    assert_eq!(trace.label, "X");
    assert!(
        trace.total_ns >= 25_000_000,
        "the retained trace should be the delayed request, got {}ns",
        trace.total_ns
    );
    assert_eq!(trace.spans.len(), STAGES.len());
    let mut expected_start = 0u64;
    for (span, stage) in trace.spans.iter().zip(STAGES) {
        assert_eq!(span.stage, stage);
        assert_eq!(span.start_ns, expected_start, "spans must telescope");
        expected_start += span.dur_ns;
    }
    assert_eq!(expected_start, trace.total_ns, "durations sum to total");

    let json = handle.slow_traces_json();
    assert!(json.contains(TRACE_FORMAT), "{json}");
    server.shutdown();
}

/// Latency-class cardinality is bounded by the registry's one policy:
/// two series per structure, so past `DEFAULT_SERIES_CAP / 2`
/// structures the rest share one series whose structure and class are
/// both `other`, the spill is counted in `gmc_obs_label_overflow`, and
/// every hit and miss still lands in exactly one class series.
#[test]
fn latency_classes_are_bounded_with_shared_overflow() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let tracked = DEFAULT_SERIES_CAP / 2;
    let spilled = 6;
    let total = tracked + spilled;
    for i in 0..total {
        server.register(&format!("S{i:03}"), chain()).unwrap();
    }
    let handle = server.handle();
    for i in 0..total {
        for _ in 0..2 {
            let reply = handle.solve(&format!("S{i:03}"), bindings(10, 200, 30));
            assert!(reply.result.is_ok(), "{:?}", reply.result);
        }
    }

    let stats = handle.stats();
    let mut structures: Vec<&str> = stats
        .latency
        .classes
        .iter()
        .map(|c| c.structure.as_str())
        .collect();
    structures.dedup();
    assert_eq!(
        structures.len(),
        tracked + 1,
        "classes must stay bounded: {structures:?}"
    );
    let other: Vec<_> = stats
        .latency
        .classes
        .iter()
        .filter(|c| c.structure == "other")
        .collect();
    assert_eq!(other.len(), 1, "one shared spill series: {other:?}");
    assert_eq!(other[0].class, "other");
    assert_eq!(other[0].snapshot.count(), 2 * spilled as u64);
    let text = handle.metrics_prometheus();
    assert_eq!(
        sample(
            &text,
            "gmc_serve_class_latency_ns_count{class=\"other\",structure=\"other\"}"
        ) as usize,
        2 * spilled
    );
    // Each spilled structure registered two series.
    assert_eq!(
        sample(&text, "gmc_obs_label_overflow") as usize,
        2 * spilled,
        "{text}"
    );
    // Every request still lands in exactly one class histogram.
    let class_total: u64 = stats
        .latency
        .classes
        .iter()
        .map(|c| c.snapshot.count())
        .sum();
    assert_eq!(stats.served.completed, 2 * total as u64);
    assert_eq!(stats.served.failed, 0);
    assert_eq!(class_total, stats.served.hits + stats.served.misses);
    server.shutdown();
}
