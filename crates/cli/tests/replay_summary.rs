//! `gmcc workload replay`'s summary line on a replay whose admission
//! capacity sheds part of the trace: the rate it prints is completed
//! requests per second, with the submitted and shed counts beside it.

use std::process::Command;

/// The number right after `prefix` in `line`.
fn number_after(line: &str, prefix: &str) -> f64 {
    let rest = &line[line
        .find(prefix)
        .unwrap_or_else(|| panic!("no `{prefix}` in {line}"))
        + prefix.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

#[test]
fn replay_summary_rates_completed_requests() {
    // The 80-request smoke trace as one burst into a gate of 20:
    // admission takes the first 20 and sheds the other 60.
    let plan = std::env::temp_dir().join(format!("gmc_summary_plan_{}.json", std::process::id()));
    std::fs::write(
        &plan,
        r#"{"format":"gmc-faults/2","seed":0,"queue_capacity":20,
            "entries":[{"request":0,"kind":"burst","size":80}]}"#,
    )
    .expect("plan writes");
    let out = Command::new(env!("CARGO_BIN_EXE_gmcc"))
        .args(["workload", "replay", "--quick", "--faults"])
        .arg(&plan)
        .output()
        .expect("gmcc runs");
    std::fs::remove_file(&plan).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let line = stderr
        .lines()
        .find(|l| l.starts_with("replayed "))
        .unwrap_or_else(|| panic!("no summary line in {stderr}"));
    assert_eq!(number_after(line, "replayed "), 80.0, "{line}");
    assert_eq!(number_after(line, ": "), 20.0, "{line}");
    assert_eq!(number_after(line, "req/s), "), 60.0, "{line}");
    let elapsed = number_after(line, "requests in ");
    let rate = number_after(line, "completed (");
    // The printed elapsed time is rounded to the microsecond.
    let (slow, fast) = (
        20.0 / (elapsed + 0.000_000_5),
        20.0 / (elapsed - 0.000_000_5).max(1e-9),
    );
    assert!(
        (slow - 1.0..=fast + 1.0).contains(&rate),
        "{rate} req/s is not 20 completed over {elapsed}s: {line}"
    );
}
