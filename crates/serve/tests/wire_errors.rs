//! Wire-level error replies: every `ServeError` variant serializes to
//! a stable JSON error line with a machine-readable `code`, and the
//! reachable ones round-trip through a live TCP front door.

use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanError;
use gmc_serve::protocol::reply_to_json;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{RequestOptions, ServeConfig, ServeError, ServeReply, Server, SolveFault};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

fn dense_chain() -> SymChain {
    let (n, m, k) = (Dim::var("we_n"), Dim::var("we_m"), Dim::var("we_k"));
    SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap()
}

/// Every variant renders `error` plus its stable `code` tag; the codes
/// are part of the wire protocol and must never drift.
#[test]
fn every_variant_serializes_a_stable_code() {
    let cases: Vec<(ServeError, &str)> = vec![
        (
            ServeError::UnknownStructure("X".to_owned()),
            "unknown_structure",
        ),
        (
            ServeError::Plan(PlanError::Enumeration("too large".to_owned())),
            "plan",
        ),
        (ServeError::BadRequest("nope".to_owned()), "bad_request"),
        (ServeError::Closed, "closed"),
        (ServeError::DeadlineExceeded, "deadline_exceeded"),
        (ServeError::QueueFull, "queue_full"),
        (ServeError::Internal("boom".to_owned()), "internal"),
    ];
    for (error, code) in cases {
        let line = reply_to_json(&ServeReply {
            structure: "X".to_owned(),
            result: Err(error),
        });
        assert!(line.contains("\"error\":"), "{line}");
        assert!(
            line.contains(&format!("\"code\":\"{code}\"")),
            "expected code {code} in {line}"
        );
    }
}

#[test]
fn error_codes_round_trip_over_tcp() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            queue_capacity: 1,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    server.register("X", dense_chain()).unwrap();
    let handle = server.handle();
    let door = TcpFrontDoor::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let addr = door.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();
    let mut ask = |request: &str| -> String {
        writer.write_all(format!("{request}\n").as_bytes()).unwrap();
        writer.flush().unwrap();
        lines.next().unwrap().unwrap()
    };

    // A healthy request first, so errors below are not setup noise.
    let ok = ask("X we_n=10,we_m=20,we_k=30");
    assert!(ok.contains("\"outcome\":"), "{ok}");

    let unknown = ask("Y we_n=10");
    assert!(
        unknown.contains("\"code\":\"unknown_structure\""),
        "{unknown}"
    );

    let bad = ask("X bogus=1");
    assert!(bad.contains("\"code\":\"bad_request\""), "{bad}");

    // Known variable but incomplete bindings: fails at bind time in
    // the dispatcher, a plan-layer error.
    let partial = ask("X we_n=10");
    assert!(partial.contains("\"code\":\"plan\""), "{partial}");

    // Sizes are admitted up to 2^32; one more is refused at bind time
    // the way a zero is.
    let largest = ask("X we_n=4294967296,we_m=20,we_k=30");
    assert!(largest.contains("\"outcome\":"), "{largest}");
    for size in ["0", "4294967297"] {
        let refused = ask(&format!("X we_n={size},we_m=20,we_k=30"));
        assert!(refused.contains("\"code\":\"plan\""), "{refused}");
    }

    let expired = ask("X we_n=10,we_m=20,we_k=30,deadline_ms=0");
    assert!(
        expired.contains("\"code\":\"deadline_exceeded\""),
        "{expired}"
    );

    // Occupy the single admission slot from in-process (a delayed
    // solve holds its permit), then the TCP request is shed.
    let slow = RequestOptions {
        fault: Some(SolveFault::Delay(Duration::from_millis(1500))),
        ..RequestOptions::default()
    };
    let holder = handle.submit_opts(
        "X",
        DimBindings::new()
            .with("we_n", 40)
            .with("we_m", 20)
            .with("we_k", 30),
        slow,
    );
    let shed = ask("X we_n=11,we_m=20,we_k=30");
    assert!(shed.contains("\"code\":\"queue_full\""), "{shed}");
    assert!(holder.wait().result.is_ok());

    // Every error above was answered in-band: the same connection
    // still serves normal traffic (hardened tcp loop).
    let after_errors = ask("X we_n=12,we_m=20,we_k=30");
    assert!(after_errors.contains("\"outcome\":"), "{after_errors}");

    // After shutdown the front door still answers, with `closed`.
    let report = server.shutdown();
    assert!(report.is_clean(), "{report:?}");
    let closed = ask("X we_n=10,we_m=20,we_k=30");
    assert!(closed.contains("\"code\":\"closed\""), "{closed}");

    drop(writer);
    drop(lines);
    door.shutdown();
}

#[test]
fn oversized_lines_get_an_error_and_the_connection_survives() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(registry, ServeConfig::default());
    server.register("X", dense_chain()).unwrap();
    let door = TcpFrontDoor::bind_with(
        server.handle(),
        "127.0.0.1:0",
        gmc_serve::tcp::TcpOptions {
            max_line_bytes: 256,
            read_timeout: Some(Duration::from_secs(10)),
        },
    )
    .unwrap();
    let addr = door.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();

    let huge = format!("X {}\n", "we_n=1,".repeat(400));
    writer.write_all(huge.as_bytes()).unwrap();
    writer.flush().unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
    assert!(reply.contains("exceeds 256 bytes"), "{reply}");

    // Same connection, normal request: still served.
    writer.write_all(b"X we_n=10,we_m=20,we_k=30\n").unwrap();
    writer.flush().unwrap();
    let reply = lines.next().unwrap().unwrap();
    assert!(reply.contains("\"outcome\":"), "{reply}");

    drop(writer);
    drop(lines);
    door.shutdown();
    server.shutdown();
}
