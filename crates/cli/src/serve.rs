//! The `gmcc serve` / `gmcc request` drivers.
//!
//! `serve` loads a problem file, registers every assignment as a named
//! structure with a [`gmc_serve::Server`] (the parse-once front door),
//! optionally warm-starts the plan cache from a plan store and
//! pre-enumerates small structures, then either answers a requests
//! file in-process (`--requests`), line by line through the handler
//! every connection uses, or listens on TCP (`--listen`). `request` is
//! the matching line-protocol client.

use gmc::InferenceMode;
use gmc_expr::SymChain;
use gmc_kernels::KernelRegistry;
use gmc_serve::protocol::{answer_line, stats_to_json};
use gmc_serve::{ServeConfig, Server};
use std::io::{BufRead, BufReader, Write as _};
use std::sync::Arc;

/// Options of the `gmcc serve` subcommand.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Solve slots: the bound on concurrent solves (`--workers`).
    pub workers: usize,
    /// Inference mode for the shared cache.
    pub inference: InferenceMode,
    /// Plan-store path: load before serving (if it exists), save after
    /// a batch run.
    pub plan_store: Option<String>,
    /// Pre-enumerate every registered structure small enough for it.
    pub pre_enumerate: bool,
    /// Admission capacity (in-flight request bound); `None` keeps the
    /// server default.
    pub queue_capacity: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            inference: InferenceMode::default(),
            plan_store: None,
            pre_enumerate: false,
            queue_capacity: None,
        }
    }
}

/// Builds a server from a problem text: every assignment (concrete or
/// symbolic) becomes a registered structure under its target name.
/// Returns the server and a report of the registration steps.
pub(crate) fn build_server(
    input: &str,
    options: &ServeOptions,
) -> Result<(Server, String), String> {
    let problem = gmc_frontend::parse(input).map_err(|e| gmc_frontend::render_error(input, &e))?;
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: options.workers,
            inference: options.inference,
            queue_capacity: options
                .queue_capacity
                .unwrap_or(ServeConfig::default().queue_capacity),
            ..ServeConfig::default()
        },
    );
    let mut report = String::new();

    // Collect (name, chain) pairs: symbolic assignments as parsed,
    // concrete ones lifted into the symbolic pipeline (single-region
    // structures).
    let mut structures: Vec<(String, SymChain)> = Vec::new();
    for (target, expr) in &problem.assignments {
        let chain =
            gmc_expr::Chain::from_expr(expr).map_err(|e| format!("assignment `{target}`: {e}"))?;
        let sym =
            SymChain::from_chain(&chain).map_err(|e| format!("assignment `{target}`: {e}"))?;
        structures.push((target.clone(), sym));
    }
    if let Some(symbolic) = &problem.symbolic {
        for (target, chain) in &symbolic.chains {
            structures.push((target.clone(), chain.clone()));
        }
    }
    if structures.is_empty() {
        return Err("problem file has no assignments to serve".to_owned());
    }

    if let Some(store) = &options.plan_store {
        if let Some(line) = warm_start_plan_store(server.cache(), store)? {
            report.push_str(&line);
        }
    }

    for (name, chain) in structures {
        if options.pre_enumerate {
            match server.register_pre_enumerated(&name, chain) {
                Ok(regions) => {
                    report.push_str(&format!(
                        "# registered {name} (pre-enumerated {regions} regions)\n"
                    ));
                }
                Err(e) => {
                    // Too large to enumerate: registered anyway, warms
                    // up on demand.
                    report.push_str(&format!("# registered {name} (on-demand: {e})\n"));
                }
            }
        } else {
            server
                .register(&name, chain)
                .map_err(|e| format!("register `{name}`: {e}"))?;
            report.push_str(&format!("# registered {name}\n"));
        }
    }
    Ok((server, report))
}

/// Runs the in-process batch driver: answers every non-comment line
/// of `requests` against the problem in `input`, in order, through
/// [`answer_line`] — the function that answers each line of a
/// `--listen` connection — then appends a stats line and saves the
/// plan store if one is set.
///
/// # Errors
///
/// Returns a rendered message for parse errors in the problem file;
/// malformed request lines get `bad_request` replies, not driver
/// errors.
pub fn run_serve_batch(
    input: &str,
    requests: &str,
    options: &ServeOptions,
) -> Result<String, String> {
    let (server, mut out) = build_server(input, options)?;
    let handle = server.handle();
    for line in requests.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push_str(&answer_line(&handle, line));
        out.push('\n');
    }
    out.push_str(&stats_to_json(&handle.stats()));
    out.push('\n');

    if let Some(store) = &options.plan_store {
        out.push_str(&save_plan_store(server.cache(), store)?);
    }
    server.shutdown();
    Ok(out)
}

/// Loads `store` into `cache` if the file exists; returns the report
/// line. Shared by the compile path and both serve modes so the
/// plan-store policy cannot drift between them.
pub(crate) fn warm_start_plan_store(
    cache: &gmc_plan::PlanCache,
    store: &str,
) -> Result<Option<String>, String> {
    if !std::path::Path::new(store).exists() {
        return Ok(None);
    }
    let recorded = cache.load(store).map_err(|e| e.to_string())?;
    Ok(Some(format!(
        "# plan store: warm start, {recorded} regions from {store}\n"
    )))
}

/// Saves `cache` to `store`; returns the report line.
pub(crate) fn save_plan_store(cache: &gmc_plan::PlanCache, store: &str) -> Result<String, String> {
    cache.save(store).map_err(|e| e.to_string())?;
    Ok(format!("# plan store: saved to {store}\n"))
}

/// Starts the TCP front door and serves until the process is killed.
/// Prints the registration report and the bound address (so `--listen
/// 127.0.0.1:0` is usable in scripts) before blocking.
///
/// # Errors
///
/// Returns a rendered message for problem parse errors and bind
/// failures.
pub fn serve_listen(input: &str, addr: &str, options: &ServeOptions) -> Result<(), String> {
    let (server, report) = build_server(input, options)?;
    let door = gmc_serve::tcp::TcpFrontDoor::bind(server.handle(), addr)
        .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    print!("{report}");
    println!(
        "# gmc-serve listening on {} ({} solve slots, {:?} inference)",
        door.local_addr(),
        options.workers,
        options.inference
    );
    match &options.plan_store {
        // A listening server only exits by being killed, so the plan
        // store is persisted periodically (the save is atomic: temp
        // file + rename) instead of on an exit path that never runs.
        Some(store) => {
            println!("# plan store: persisting to {store} every {PERSIST_SECS}s");
            let store = store.clone();
            // Skip ticks with nothing new: regions are only recorded
            // through cache misses (pre-enumeration happened above),
            // so unchanged miss counters mean an identical snapshot.
            let mut saved_recordings = u64::MAX;
            loop {
                std::thread::sleep(std::time::Duration::from_secs(PERSIST_SECS));
                let stats = server.cache().stats();
                let recordings = stats.structure_misses + stats.region_misses;
                if recordings == saved_recordings {
                    continue;
                }
                match server.cache().save(&store) {
                    Ok(()) => saved_recordings = recordings,
                    Err(e) => eprintln!("gmcc serve: plan store save failed: {e}"),
                }
            }
        }
        // Connections are handled by the front door's own threads.
        None => loop {
            std::thread::park();
        },
    }
}

/// How often `gmcc serve --listen --plan-store` persists the snapshot.
const PERSIST_SECS: u64 = 30;

/// Runs the line-protocol client: connects to `addr`, sends every
/// non-empty request line of `requests`, and returns the reply lines.
///
/// # Errors
///
/// Returns a rendered message on connection or I/O failure.
pub fn run_request(addr: &str, requests: &str) -> Result<String, String> {
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("cannot clone connection: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut out = String::new();
    for line in requests.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        writer.flush().map_err(|e| format!("send failed: {e}"))?;
        // Every reply is one line, except `METRICS`: a multi-line
        // Prometheus exposition the server terminates with `# EOF`.
        loop {
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .map_err(|e| format!("receive failed: {e}"))?;
            if reply.is_empty() {
                return Err("server closed the connection".to_owned());
            }
            out.push_str(&reply);
            if line != "METRICS" || reply.trim_end() == "# EOF" {
                break;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROBLEM: &str = "\
Matrix A (n, n) <SPD>
Matrix B (n, m)
Matrix C (m, m) <LowerTriangular>
X := A^-1 * B * C^T
";

    #[test]
    fn batch_driver_serves_and_reports() {
        let requests = "\
X n=2000,m=200
X n=4000,m=400

# a comment
X n=10,m=900
nope n=1
X oops
X bogus_dim=5
STATS
";
        let out = run_serve_batch(PROBLEM, requests, &ServeOptions::default()).unwrap();
        assert!(out.contains("# registered X"), "{out}");
        assert!(out.contains("\"outcome\":\"miss_structure\""), "{out}");
        assert!(out.contains("\"outcome\":\"hit\""), "{out}");
        assert!(out.contains("TRMM_RLT"), "{out}");
        assert!(out.contains("unknown structure"), "{out}");
        assert!(out.contains("\"code\":\"bad_request\""), "{out}");
        assert!(
            out.contains("unknown dimension variable `bogus_dim`"),
            "{out}"
        );
        // The STATS line renders the counters in place, and the
        // trailing stats line is always appended.
        assert_eq!(out.matches("\"requests\":3").count(), 2, "{out}");
    }

    #[test]
    fn pre_enumeration_makes_the_first_request_hit() {
        let requests = "X n=123,m=456\n";
        let out = run_serve_batch(
            PROBLEM,
            requests,
            &ServeOptions {
                pre_enumerate: true,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        assert!(out.contains("pre-enumerated"), "{out}");
        assert!(out.contains("\"outcome\":\"hit\""), "{out}");
    }

    #[test]
    fn concrete_assignments_are_served_too() {
        let problem = "\
Matrix A (30, 40)
Matrix B (40, 5)
Y := A * B
";
        let out = run_serve_batch(problem, "Y\nY\n", &ServeOptions::default()).unwrap();
        assert!(out.contains("\"kernels\":[\"GEMM_NN\"]"), "{out}");
        // Each line is its own request: the repeat is a cache hit.
        assert!(out.contains("\"outcome\":\"hit\""), "{out}");
        assert!(out.contains("\"requests\":2"), "{out}");
    }

    #[test]
    fn plan_store_round_trips_through_the_batch_driver() {
        let path =
            std::env::temp_dir().join(format!("gmcc_serve_store_{}.json", std::process::id()));
        let store = path.to_string_lossy().into_owned();
        let opts = ServeOptions {
            plan_store: Some(store.clone()),
            ..ServeOptions::default()
        };
        let out = run_serve_batch(PROBLEM, "X n=2000,m=200\n", &opts).unwrap();
        assert!(out.contains("\"outcome\":\"miss_structure\""), "{out}");
        assert!(out.contains("plan store: saved"), "{out}");
        // Second run warm-starts: the same request is now a hit.
        let out = run_serve_batch(PROBLEM, "X n=2000,m=200\n", &opts).unwrap();
        assert!(out.contains("warm start"), "{out}");
        assert!(out.contains("\"outcome\":\"hit\""), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_slow_and_cache_lines_work_in_both_drivers() {
        // In-process batch driver.
        let requests = "X n=2000,m=200\nX n=4000,m=400\nMETRICS\nSLOW\nCACHE\n";
        let out = run_serve_batch(PROBLEM, requests, &ServeOptions::default()).unwrap();
        assert!(
            out.contains("# TYPE gmc_serve_stage_latency_ns histogram"),
            "{out}"
        );
        assert!(out.contains("# EOF"), "{out}");
        assert!(out.contains("\"format\":\"gmc-traces/1\""), "{out}");
        assert!(out.contains("\"totals\":{"), "{out}");

        // Over the wire through `run_request`.
        let (server, _report) = build_server(PROBLEM, &ServeOptions::default()).unwrap();
        let door = gmc_serve::tcp::TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();
        let addr = door.local_addr().to_string();
        let out = run_request(&addr, requests).unwrap();
        assert!(
            out.contains("# TYPE gmc_serve_stage_latency_ns histogram"),
            "{out}"
        );
        assert!(out.lines().any(|l| l == "# EOF"), "{out}");
        assert!(out.contains("\"format\":\"gmc-traces/1\""), "{out}");
        assert!(out.contains("\"totals\":{"), "{out}");
        // The exposition covers the two completed requests' stages.
        assert!(
            out.contains("gmc_serve_stage_latency_ns_count{stage=\"solve\"} 2"),
            "{out}"
        );
        door.shutdown();
        server.shutdown();
    }

    #[test]
    fn batch_driver_answers_lines_as_a_connection_does() {
        // Three requests and a malformed line: the batch driver's reply
        // lines are the ones a `gmcc request` session gets from a fresh
        // `--listen` server, byte for byte.
        let requests = "X n=2000,m=200\nX n=4000,m=400\nX oops\nX n=10,m=900\n";
        let batch = run_serve_batch(PROBLEM, requests, &ServeOptions::default()).unwrap();
        let batch: Vec<&str> = batch.lines().filter(|l| !l.starts_with('#')).collect();
        let (server, _report) = build_server(PROBLEM, &ServeOptions::default()).unwrap();
        let door = gmc_serve::tcp::TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();
        let session = run_request(&door.local_addr().to_string(), requests).unwrap();
        door.shutdown();
        server.shutdown();
        let session: Vec<&str> = session.lines().collect();
        assert_eq!(session.len(), 4, "{session:?}");
        assert!(
            session[2].contains("\"code\":\"bad_request\""),
            "{session:?}"
        );
        // The batch driver appends its stats line after the replies.
        assert_eq!(batch[..batch.len() - 1], session[..]);
    }

    #[test]
    fn bad_problem_files_error() {
        assert!(run_serve_batch("Matrix A (5, 5)\n", "X\n", &ServeOptions::default()).is_err());
    }

    #[test]
    fn error_codes_round_trip_through_gmcc_request() {
        let (server, _report) = build_server(PROBLEM, &ServeOptions::default()).unwrap();
        let door = gmc_serve::tcp::TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();
        let addr = door.local_addr().to_string();
        let requests = "\
X n=2000,m=200
nope n=1
X bogus=5
X n=10
X n=2000,m=200,deadline_ms=0
";
        let out = run_request(&addr, requests).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        assert!(lines[0].contains("\"outcome\":"), "{}", lines[0]);
        assert!(
            lines[1].contains("\"code\":\"unknown_structure\""),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("\"code\":\"bad_request\""),
            "{}",
            lines[2]
        );
        assert!(lines[3].contains("\"code\":\"plan\""), "{}", lines[3]);
        assert!(
            lines[4].contains("\"code\":\"deadline_exceeded\""),
            "{}",
            lines[4]
        );
        door.shutdown();
        server.shutdown();
    }
}
