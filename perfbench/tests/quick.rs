//! Runs every workload in quick mode and checks the result lines
//! against `BENCHMARK.json`: every metric by name and unit, every output
//! check passing, and the same seed giving the same inputs.

use serde::{Deserialize, Value};
use std::process::Command;

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    Vec::<Value>::from_value(spec.get_field(list).expect("metric list"))
        .expect("an array")
        .iter()
        .map(|m| {
            let field = |k: &str| String::from_value(m.get_field(k).expect(k)).expect(k);
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one quick workload; returns the report line and the result line.
fn run(workload: &str, seed: u64, trace: bool) -> (Value, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_gmc-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let parse = |l: &str| serde_json::from_str::<Value>(l).expect("a JSON line");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

fn number(v: &Value, key: &str) -> f64 {
    f64::from_value(v.get_field(key).expect(key)).expect(key)
}

fn first_digest(report: &Value) -> String {
    match report.get_field("inputs_digest").expect("digest") {
        Value::Array(items) => String::from_value(&items[0]).expect("digest string"),
        other => String::from_value(other).expect("digest string"),
    }
}

#[test]
fn every_workload_prints_every_metric_and_checks_its_outputs() {
    for workload in ["compile", "serve_hit", "serve_mixed"] {
        let mut digests = Vec::new();
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let (report, result) = run(workload, 7, trace);
            let correct = result.get_field("correct").expect("correct");
            assert_eq!(correct, &Value::Bool(true), "{workload}");
            assert!(number(&result, "attempted") >= 1.0, "{workload}");
            assert_eq!(number(&result, "failed"), 0.0, "{workload}");
            assert!(
                number(&report, "checked") >= 1.0,
                "{workload}: no output checked"
            );
            let Value::Object(metrics) = result.get_field("metrics").expect("metrics") else {
                panic!("{workload}: metrics is not an object");
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(number(m, "value").is_finite(), "{workload} {name}");
                    (
                        name.clone(),
                        String::from_value(m.get_field("unit").expect("unit")).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(
                printed,
                declared(list),
                "{workload} --trace {}",
                u8::from(trace)
            );
            let host = report.get_field("host").expect("fingerprint");
            for key in ["nproc", "cpu_model", "rustc", "git_sha"] {
                assert!(host.get_field(key).is_ok(), "{workload}: host lacks {key}");
            }
            digests.push(first_digest(&report));
        }
        assert_eq!(
            digests[0], digests[1],
            "{workload}: same seed, different inputs"
        );
        let (other, _) = run(workload, 8, false);
        assert_ne!(first_digest(&other), digests[0], "{workload}: seed ignored");
    }
}
