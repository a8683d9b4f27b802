//! The request line protocol. [`answer_line`] is its one
//! implementation: the TCP front door and the CLI batch driver both
//! answer each line through it.
//!
//! One request per line:
//!
//! ```text
//! <structure> [<var>=<size>[,<var>=<size>...]]
//! ```
//!
//! e.g. `X n=2000,m=200`. Four special lines ask for introspection
//! instead of a solve: `STATS` (server counters, one JSON line),
//! `METRICS` (Prometheus text exposition, multi-line, ending with a
//! `# EOF` line), `SLOW` (slowest retained traces, one `gmc-traces/1`
//! JSON line) and `CACHE` (cache totals and per-structure stats, one
//! JSON line). Replies are one compact JSON object per line:
//!
//! ```text
//! {"structure":"X","outcome":"hit","cost":9.68e8,"flops":9.68e8,
//!  "parenthesization":"((A^-1 B) C^T)","kernels":["TRMM_RLT","POSV_LN"]}
//! {"structure":"X","error":"unknown structure `X` (register it first)"}
//! ```

use crate::{RequestOptions, ServeError, ServeHandle, ServeReply, ServerStats};
use gmc_obs::HistogramSnapshot;
use serde::Value;
use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Duration;

/// Answers one protocol line through `handle`: `STATS`, `METRICS`,
/// `SLOW` or `CACHE`, or else a request, solved through
/// [`ServeHandle::solve_raw`] (a line that does not parse is answered
/// `bad_request`, and the caller goes on to its next line). Returns the
/// reply text without a trailing newline: one line, except for
/// `METRICS`, whose exposition ends with a `# EOF` line so that
/// line-oriented clients know where the scrape ends. The caller skips
/// blank lines.
pub fn answer_line(handle: &ServeHandle, line: &str) -> String {
    match line.trim() {
        "STATS" => stats_to_json(&handle.stats()),
        "METRICS" => {
            let mut body = handle.metrics_prometheus();
            if !body.is_empty() && !body.ends_with('\n') {
                body.push('\n');
            }
            body.push_str("# EOF");
            body
        }
        "SLOW" => handle.slow_traces_json(),
        "CACHE" => handle.cache_introspection_json(),
        line => reply_to_json(&match parse_request_line(line) {
            Ok((structure, vars, deadline_ms)) => {
                let options = match deadline_ms {
                    Some(ms) => RequestOptions::with_deadline_in(Duration::from_millis(ms)),
                    None => RequestOptions::default(),
                };
                handle.solve_raw(structure, vars, options)
            }
            Err(e) => ServeReply {
                structure: String::new(),
                result: Err(ServeError::BadRequest(e)),
            },
        }),
    }
}

/// A parsed request line: the structure name, the named dimension
/// sizes, and the optional `deadline_ms=` budget. Every name is
/// borrowed from the line (the variable names as `Cow::Borrowed`, so
/// they compare with `&str` as owned names do); the sizes' `Vec` is
/// the parse's only allocation.
pub type ParsedRequest<'a> = (&'a str, Vec<(Cow<'a, str>, usize)>, Option<u64>);

/// Parses a request line into `(structure, named sizes, deadline)`.
///
/// The reserved binding `deadline_ms=<n>` is split off rather than
/// treated as a dimension: it asks the server to answer
/// `deadline_exceeded` if the request's solve has not started `n`
/// milliseconds from parse time (it is still waiting for a solve slot).
///
/// Variable names stay plain strings here: `DimVar` interning is
/// process-wide and permanent, so untrusted client input must be
/// resolved against a registered structure's (bounded) variable
/// vocabulary — [`ServeHandle::solve_raw`] does that — rather than
/// interned wholesale.
///
/// # Errors
///
/// Returns a description of the malformed part.
pub fn parse_request_line(line: &str) -> Result<ParsedRequest<'_>, String> {
    let line = line.trim();
    let (name, rest) = match line.split_once(char::is_whitespace) {
        Some((name, rest)) => (name, rest.trim()),
        None => (line, ""),
    };
    if name.is_empty() {
        return Err("empty request line (expected `<structure> [var=size,...]`)".to_owned());
    }
    // One slot per binding, sized up front so the sizes never regrow.
    let bindings = if rest.is_empty() {
        0
    } else {
        rest.bytes().filter(|&b| b == b',').count() + 1
    };
    let mut vars = Vec::with_capacity(bindings);
    let mut deadline_ms = None;
    if !rest.is_empty() {
        for part in rest.split(',') {
            let part = part.trim();
            let Some((var, value)) = part.split_once('=') else {
                return Err(format!("bad binding `{part}` (expected `var=size`)"));
            };
            let var = var.trim();
            if var.is_empty() {
                return Err(format!("bad binding `{part}` (empty variable name)"));
            }
            if var == "deadline_ms" {
                let ms: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad deadline in `{part}` (expected milliseconds)"))?;
                deadline_ms = Some(ms);
                continue;
            }
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("bad size in `{part}` (expected an integer)"))?;
            vars.push((Cow::Borrowed(var), value));
        }
    }
    Ok((name, vars, deadline_ms))
}

/// Renders a reply as one compact JSON line (without the newline).
///
/// Replies are rendered on every serve round trip, so this writes them
/// straight into one buffer: byte for byte what `serde_json::to_string`
/// makes of the same fields as a `Value` tree, through the same string
/// and number writers.
pub fn reply_to_json(reply: &ServeReply) -> String {
    let mut out = String::with_capacity(160);
    out.push_str("{\"structure\":");
    serde_json::write_string(&mut out, &reply.structure);
    match &reply.result {
        Ok(served) => {
            out.push_str(",\"outcome\":");
            serde_json::write_string(&mut out, served.outcome.label());
            out.push_str(",\"cost\":");
            serde_json::write_number(&mut out, served.cost).expect("reply values are finite");
            out.push_str(",\"flops\":");
            serde_json::write_number(&mut out, served.flops).expect("reply values are finite");
            out.push_str(",\"parenthesization\":");
            serde_json::write_string(&mut out, &served.parenthesization);
            out.push_str(",\"kernels\":[");
            for (i, kernel) in served.kernels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                serde_json::write_string(&mut out, kernel);
            }
            out.push(']');
        }
        Err(e) => {
            // The message is escaped as it is formatted.
            out.push_str(",\"error\":\"");
            write!(serde_json::Escaped(&mut out), "{e}").expect("writing to a String cannot fail");
            // A stable machine-readable tag per variant, so clients can
            // branch without parsing prose.
            out.push_str("\",\"code\":");
            serde_json::write_string(&mut out, e.code());
        }
    }
    out.push('}');
    out
}

/// Quantile summary fields shared by every latency entry: count, p50,
/// p90, p99, max (nanoseconds).
fn quantile_fields(snapshot: &HistogramSnapshot) -> Vec<(String, Value)> {
    vec![
        ("count".to_owned(), Value::Number(snapshot.count() as f64)),
        (
            "p50_ns".to_owned(),
            Value::Number(snapshot.quantile(0.5) as f64),
        ),
        (
            "p90_ns".to_owned(),
            Value::Number(snapshot.quantile(0.9) as f64),
        ),
        (
            "p99_ns".to_owned(),
            Value::Number(snapshot.quantile(0.99) as f64),
        ),
        ("max_ns".to_owned(), Value::Number(snapshot.max() as f64)),
    ]
}

/// Renders the server counters as one compact JSON line. Alongside the
/// cache counters (which count instantiates), the line carries the
/// per-request `served` counters (one consistent snapshot:
/// `served_hits + served_misses + failed == completed`) and the
/// latency layer: total and queue quantiles, the total histogram's
/// non-empty buckets as `[upper_bound_ns, count]` pairs in strictly
/// increasing bound order, per-(structure, hit/miss) class quantiles,
/// and per-stage span quantiles in [`crate::STAGES`] order.
pub fn stats_to_json(stats: &ServerStats) -> String {
    let mut total = quantile_fields(&stats.latency.total);
    total.push((
        "buckets".to_owned(),
        Value::Array(
            stats
                .latency
                .total
                .buckets()
                .map(|(upper, count)| {
                    Value::Array(vec![
                        Value::Number(upper as f64),
                        Value::Number(count as f64),
                    ])
                })
                .collect(),
        ),
    ));
    let classes = stats
        .latency
        .classes
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("structure".to_owned(), Value::String(c.structure.clone())),
                ("class".to_owned(), Value::String(c.class.clone())),
            ];
            fields.extend(quantile_fields(&c.snapshot));
            Value::Object(fields)
        })
        .collect();
    let latency = Value::Object(vec![
        ("unit".to_owned(), Value::String("ns".to_owned())),
        ("total".to_owned(), Value::Object(total)),
        (
            "queue".to_owned(),
            Value::Object(quantile_fields(&stats.latency.queue)),
        ),
        (
            "expired".to_owned(),
            Value::Object(quantile_fields(&stats.latency.expired)),
        ),
        ("classes".to_owned(), Value::Array(classes)),
        (
            "stages".to_owned(),
            Value::Array(
                stats
                    .latency
                    .stages
                    .iter()
                    .map(|s| {
                        let mut fields =
                            vec![("stage".to_owned(), Value::String(s.stage.to_owned()))];
                        fields.extend(quantile_fields(&s.snapshot));
                        Value::Object(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    let doc = Value::Object(vec![
        (
            "requests".to_owned(),
            Value::Number(stats.cache.requests() as f64),
        ),
        ("hits".to_owned(), Value::Number(stats.cache.hits as f64)),
        (
            "region_misses".to_owned(),
            Value::Number(stats.cache.region_misses as f64),
        ),
        (
            "structure_misses".to_owned(),
            Value::Number(stats.cache.structure_misses as f64),
        ),
        ("batches".to_owned(), Value::Number(stats.batches as f64)),
        (
            "structures".to_owned(),
            Value::Number(stats.structures as f64),
        ),
        (
            "completed".to_owned(),
            Value::Number(stats.served.completed as f64),
        ),
        (
            "served_hits".to_owned(),
            Value::Number(stats.served.hits as f64),
        ),
        (
            "served_misses".to_owned(),
            Value::Number(stats.served.misses as f64),
        ),
        (
            "failed".to_owned(),
            Value::Number(stats.served.failed as f64),
        ),
        (
            "rejected".to_owned(),
            Value::Number(stats.served.rejected as f64),
        ),
        (
            "rejected_overload".to_owned(),
            Value::Number(stats.served.rejected_overload as f64),
        ),
        (
            "expired".to_owned(),
            Value::Number(stats.served.expired as f64),
        ),
        ("panics".to_owned(), Value::Number(stats.panics as f64)),
        ("latency".to_owned(), latency),
    ]);
    serde_json::to_string(&doc).expect("counters are finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ServeError, Served};
    use gmc::GmcError;
    use gmc_expr::SymChainError;
    use gmc_plan::{PlanError, PlanOutcome};

    /// The reply as a `Value` tree through `serde_json::to_string`: the
    /// rendering `reply_to_json` must reproduce byte for byte.
    fn oracle(reply: &ServeReply) -> String {
        let mut fields = vec![(
            "structure".to_owned(),
            Value::String(reply.structure.clone()),
        )];
        match &reply.result {
            Ok(served) => {
                fields.push((
                    "outcome".to_owned(),
                    Value::String(served.outcome.label().to_owned()),
                ));
                fields.push(("cost".to_owned(), Value::Number(served.cost)));
                fields.push(("flops".to_owned(), Value::Number(served.flops)));
                fields.push((
                    "parenthesization".to_owned(),
                    Value::String(served.parenthesization.clone()),
                ));
                fields.push((
                    "kernels".to_owned(),
                    Value::Array(
                        served
                            .kernels
                            .iter()
                            .map(|k| Value::String(k.clone()))
                            .collect(),
                    ),
                ));
            }
            Err(e) => {
                fields.push(("error".to_owned(), Value::String(e.to_string())));
                fields.push(("code".to_owned(), Value::String(e.code().to_owned())));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("finite")
    }

    /// Text exercising every escape rule: quote, backslash, newline,
    /// carriage return, tab, other control characters, non-ASCII.
    const AWKWARD: [&str; 7] = [
        "X",
        "",
        "say \"hi\"",
        "back\\slash",
        "two\nlines\r\n\ttabbed",
        "bell\u{7}nul\u{0}esc\u{1b}unit\u{1f}del\u{7f}",
        "Ä ∑ 漢字 🦀 \u{2028}",
    ];

    #[test]
    fn replies_match_the_value_rendering() {
        let costs = [
            0.0,
            1.0,
            -0.0,
            8.99e15,
            9e15,
            4346666666.666666,
            4.896149934230827e25,
            2.09e57,
        ];
        let mut replies = Vec::new();
        for (i, name) in AWKWARD.iter().enumerate() {
            for outcome in [
                PlanOutcome::MissStructure,
                PlanOutcome::MissRegion,
                PlanOutcome::Hit,
            ] {
                for (j, &cost) in costs.iter().enumerate() {
                    let kernels = AWKWARD[..(i + j) % 4].iter().map(|k| (*k).to_owned());
                    replies.push(ServeReply {
                        structure: (*name).to_owned(),
                        result: Ok(Served {
                            outcome,
                            cost,
                            flops: costs[(j + 3) % costs.len()],
                            parenthesization: AWKWARD[(i + j) % AWKWARD.len()].to_owned(),
                            kernels: kernels.collect(),
                        }),
                    });
                }
            }
            let message = (*name).to_owned();
            let errors = [
                ServeError::UnknownStructure(message.clone()),
                ServeError::Plan(PlanError::Chain(SymChainError::TooShort { len: 1 })),
                ServeError::Plan(PlanError::Solve(GmcError::NotComputable {
                    chain: message.clone(),
                })),
                ServeError::Plan(PlanError::Enumeration(message.clone())),
                ServeError::Plan(PlanError::Store(message.clone())),
                ServeError::BadRequest(message.clone()),
                ServeError::Closed,
                ServeError::DeadlineExceeded,
                ServeError::QueueFull,
                ServeError::Internal(message),
            ];
            for e in errors {
                replies.push(ServeReply {
                    structure: (*name).to_owned(),
                    result: Err(e),
                });
            }
        }
        for reply in &replies {
            assert_eq!(reply_to_json(reply), oracle(reply), "{reply:?}");
        }
    }

    #[test]
    fn parses_request_lines() {
        let (name, b, d) = parse_request_line("X n=2000,m=200").unwrap();
        assert_eq!(name, "X");
        assert_eq!(b, vec![("n".into(), 2000), ("m".into(), 200)]);
        assert_eq!(d, None);
        let (name, b, _) = parse_request_line("  Y  ").unwrap();
        assert_eq!(name, "Y");
        assert!(b.is_empty());
        let (_, b, _) = parse_request_line("Z n = 7 , m = 8").unwrap();
        assert_eq!(b.len(), 2);
        assert!(parse_request_line("").is_err());
        assert!(parse_request_line("X n=").is_err());
        assert!(parse_request_line("X n").is_err());
        assert!(parse_request_line("X =5").is_err());
    }

    #[test]
    fn splits_deadline_from_bindings() {
        let (name, b, d) = parse_request_line("X n=10,deadline_ms=250,m=20").unwrap();
        assert_eq!(name, "X");
        assert_eq!(b, vec![("n".into(), 10), ("m".into(), 20)]);
        assert_eq!(d, Some(250));
        let (_, b, d) = parse_request_line("X deadline_ms=0").unwrap();
        assert!(b.is_empty());
        assert_eq!(d, Some(0));
        assert!(parse_request_line("X deadline_ms=soon").is_err());
    }
}
