//! Host fingerprint and process memory: every result carries the
//! machine it was measured on, because absolute numbers do not transfer
//! between hosts.

use serde::Value;
use std::process::Command;

/// Client threads and connections for the serve workloads: one per
/// core the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `nproc`, the CPU model, the `rustc` version and the git sha, as a
/// JSON object.
pub fn fingerprint() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    // Only ask git inside a checkout of its own: outside one, git would
    // walk up into whatever repository encloses the directory.
    let git_sha = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    Value::Object(vec![
        ("nproc".to_owned(), Value::Number(nproc() as f64)),
        ("cpu_model".to_owned(), Value::String(cpu_model)),
        (
            "rustc".to_owned(),
            Value::String(command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_sha".to_owned(),
            Value::String(git_sha.unwrap_or_else(|| "unknown (not a git checkout)".into())),
        ),
    ])
}

/// The first line a command prints, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(|l| l.trim().to_owned())
}

extern "C" {
    // From the C library std already links on Linux.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it starts from then
/// on, to the first CPU it may use; [`nproc`] then reads 1.
///
/// The serve workloads call this before they start any thread. On a VM,
/// a request that wakes a thread on an idle vCPU waits until the host
/// schedules that vCPU, and on a shared host that wait swings with the
/// neighbours' load. Alternating 20-second serve_mixed runs of five
/// seeds on a 2-vCPU VM served 7.3k–10.3k req/s (p50 74–107 µs, IQR
/// over median 27%) on both vCPUs and 9.9k–11.9k req/s (p50 40–44 µs,
/// IQR over median 6%) on one. On one CPU every hand-off is a local
/// wake-up, so the figures follow the serving code.
pub fn use_one_cpu() -> Result<(), String> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_owned());
    }
    let cpu = (0..WORDS * 64)
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}

/// The peak resident set of this process (`VmHWM` in
/// `/proc/self/status`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Runs this benchmark as a child process with `args` (a `--probe-*`
/// flag and its inputs), waits for it, and reads the one number it
/// prints. Set-up time and peak memory come from fresh processes, so
/// they measure what the probed work costs a process that does only
/// that, not what earlier work left behind in this one.
pub fn probe(args: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("running a probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(value)) => Ok(value),
        _ => Err(format!(
            "probe {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}
