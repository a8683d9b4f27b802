//! Regression test: the `STATS` wire reply carries the latency layer —
//! quantiles, histogram buckets and per-(structure, hit/miss) classes —
//! and its numbers balance against the batch's request count.

use gmc_expr::{Dim, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn chain() -> SymChain {
    let (n, m, k) = (Dim::var("ls_n"), Dim::var("ls_m"), Dim::var("ls_k"));
    SymChain::new(vec![
        SymFactor::plain(SymOperand::new("A", n, m)),
        SymFactor::plain(SymOperand::new("B", m, k)),
        SymFactor::plain(SymOperand::new("C", k, n)),
    ])
    .unwrap()
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn stats_line_reports_consistent_latency() {
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
    let addr = door.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();
    // 6 requests: 2 identical, 1 same-region scale, 1 other region, a
    // third copy of the first and another same-region scale.
    let requests = [
        "X ls_n=10,ls_m=200,ls_k=30",
        "X ls_n=10,ls_m=200,ls_k=30",
        "X ls_n=20,ls_m=400,ls_k=60",
        "X ls_n=300,ls_m=20,ls_k=100",
        "X ls_n=10,ls_m=200,ls_k=30",
        "X ls_n=30,ls_m=600,ls_k=90",
    ];
    for r in requests {
        writer.write_all(r.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let reply = lines.next().unwrap().unwrap();
        assert!(!reply.contains("error"), "{reply}");
    }
    writer.write_all(b"STATS\n").unwrap();
    writer.flush().unwrap();
    let stats_line = lines.next().unwrap().unwrap();
    drop(writer);
    drop(lines);
    door.shutdown();
    server.shutdown();

    // The line is a single JSON object the shim parser accepts.
    let doc: Value = serde_json::from_str(&stats_line).expect("STATS line parses as JSON");
    let completed = num(doc.get_field("completed").unwrap()) as u64;
    assert_eq!(completed, requests.len() as u64);
    let hits = num(doc.get_field("served_hits").unwrap()) as u64;
    let misses = num(doc.get_field("served_misses").unwrap()) as u64;
    let failed = num(doc.get_field("failed").unwrap()) as u64;
    assert_eq!(hits + misses + failed, completed);
    assert_eq!(num(doc.get_field("rejected").unwrap()) as u64, 0);

    let latency = doc.get_field("latency").unwrap();
    assert_eq!(
        latency.get_field("unit").unwrap(),
        &Value::String("ns".to_owned())
    );
    let total = latency.get_field("total").unwrap();
    let count = num(total.get_field("count").unwrap()) as u64;
    assert_eq!(count, completed, "one latency sample per completed request");
    let p50 = num(total.get_field("p50_ns").unwrap());
    let p90 = num(total.get_field("p90_ns").unwrap());
    let p99 = num(total.get_field("p99_ns").unwrap());
    let max = num(total.get_field("max_ns").unwrap());
    assert!(p50 <= p90 && p90 <= p99 && p99 <= max, "{stats_line}");
    assert!(max > 0.0);

    // Buckets: strictly increasing upper bounds, counts summing to the
    // total count.
    let Value::Array(buckets) = total.get_field("buckets").unwrap() else {
        panic!("buckets is not an array: {stats_line}");
    };
    assert!(!buckets.is_empty());
    let mut last_upper = -1.0f64;
    let mut bucket_total = 0u64;
    for b in buckets {
        let Value::Array(pair) = b else {
            panic!("bucket entry is not a pair: {b:?}");
        };
        assert_eq!(pair.len(), 2);
        let upper = num(&pair[0]);
        assert!(upper > last_upper, "bucket bounds must increase");
        last_upper = upper;
        bucket_total += num(&pair[1]) as u64;
    }
    assert_eq!(bucket_total, count);

    // Queue latency balances too, and the per-class entries cover
    // exactly the successful completions.
    let queue = latency.get_field("queue").unwrap();
    assert_eq!(num(queue.get_field("count").unwrap()) as u64, completed);
    let Value::Array(classes) = latency.get_field("classes").unwrap() else {
        panic!("classes is not an array: {stats_line}");
    };
    let mut class_total = 0u64;
    for c in classes {
        assert_eq!(
            c.get_field("structure").unwrap(),
            &Value::String("X".to_owned())
        );
        let label = c.get_field("class").unwrap();
        assert!(
            label == &Value::String("hit".to_owned()) || label == &Value::String("miss".to_owned())
        );
        class_total += num(c.get_field("count").unwrap()) as u64;
    }
    assert_eq!(class_total, hits + misses);
}
