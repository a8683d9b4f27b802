//! The result of one run: metrics with their dispersion, operation
//! counts, check failures, and the two output lines.

use crate::stats::{mean, quartiles};
use serde::Value;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload
/// never calls reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("e2e.mean_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.tokens", "count"),
    ("kernels.registry_build_us", "us"),
    ("expr.chain_us", "us"),
    ("core.solve_us", "us"),
    ("codegen.program_us", "us"),
    ("codegen.emit_us", "us"),
    ("codegen.instructions", "count"),
    ("cli.residual_us", "us"),
    ("serve.tcp_hop_us", "us"),
    ("serve.protocol_parse_us", "us"),
    ("serve.protocol_render_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.queue_us", "us"),
    ("serve.group_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.solve_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.batches_per_req", "ratio"),
    ("expr.bind_us", "us"),
    ("plan.key_us", "us"),
    ("plan.sig_us", "us"),
    ("plan.hit_lookup_us", "us"),
    ("plan.hit_work_us", "us"),
    ("plan.miss_lookup_us", "us"),
    ("plan.miss_work_us", "us"),
    ("plan.hit_frac", "fraction"),
    ("plan.regions", "count"),
    ("plan.deferred_frac", "fraction"),
    ("plan.dynamic_frac", "fraction"),
    ("core.cold_solve_us", "us"),
    ("plan.hit_vs_cold", "ratio"),
    ("obs.overhead_pct", "%"),
];

/// One metric: its reported value and the spread of the samples
/// behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub value: f64,
    /// How `value` summarizes the samples: `median` (of repetitions),
    /// `mean` (of per-call times, so layer means add up) or `single`.
    pub stat: &'static str,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// The median of repetitions, with quartiles.
    pub fn median_of(samples: &[f64]) -> Metric {
        let [q1, median, q3] = quartiles(samples);
        Metric {
            value: median,
            stat: "median",
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// The mean of per-call samples, with the quartiles of the calls.
    pub fn mean_of(samples: &[f64]) -> Metric {
        let [q1, _, q3] = quartiles(samples);
        Metric {
            value: if samples.is_empty() {
                0.0
            } else {
                mean(samples)
            },
            stat: "mean",
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// A value derived once per run (a ratio of sums, a remainder).
    pub fn single(value: f64, n: usize) -> Metric {
        Metric {
            value,
            stat: "single",
            q1: value,
            q3: value,
            n,
        }
    }
}

/// Everything one run measured and checked.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Error replies, missing replies and failed output checks.
    pub failed: u64,
    /// Outputs verified outside the timed window.
    pub checked: u64,
    /// Failed checks and broken accounting identities, described.
    pub violations: Vec<String>,
    metrics: Vec<(&'static str, Metric)>,
    /// Further detail for the report line (identities, counts, digests).
    notes: Vec<(String, Value)>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Report {
        Report {
            workload: workload.to_owned(),
            seed,
            trace,
            attempted: 0,
            failed: 0,
            checked: 0,
            violations: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, metric: Metric) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, metric));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| m.value)
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_owned(), value));
    }

    /// Records a failed check: it counts into `failed` and makes the run
    /// incorrect.
    pub fn violation(&mut self, what: String) {
        self.fail(1, what);
    }

    /// Records `count` failed operations under one description.
    pub fn fail(&mut self, count: u64, what: String) {
        self.failed += count;
        self.violations.push(what);
    }

    /// Whether every output check and accounting identity held (every
    /// failure is recorded with a description).
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The metric set this run prints: end-to-end without tracing,
    /// per-layer with it. Layers the workload never calls read 0.
    fn printed(&self) -> Vec<(&'static str, &'static str, Metric)> {
        let list: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| {
                let metric = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, m)| m.clone())
                    .unwrap_or_else(|| {
                        assert!(self.trace, "end-to-end metric {name} was not measured");
                        Metric::single(0.0, 0)
                    });
                (name, unit, metric)
            })
            .collect()
    }

    /// Prints the human-readable table on stderr, then the detailed
    /// report line and the result line on stdout (the result line
    /// last).
    pub fn print(&self, fingerprint: Value) {
        let unit_of = |name: &str| {
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        eprintln!(
            "{} seed {}: {} attempted, {} failed, {} checked",
            self.workload, self.seed, self.attempted, self.failed, self.checked
        );
        for (name, m) in &self.metrics {
            eprintln!(
                "  {name:<28} {:>14.4} {:<8} {:<6} q1 {:>12.4}  q3 {:>12.4}  n {}",
                m.value,
                unit_of(name),
                m.stat,
                m.q1,
                m.q3,
                m.n
            );
        }
        for v in &self.violations {
            eprintln!("  CHECK FAILED: {v}");
        }

        let num = |x: f64| Value::Number(if x.is_finite() { x } else { 0.0 });
        let detail: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    (*name).to_owned(),
                    Value::Object(vec![
                        ("value".into(), num(m.value)),
                        ("unit".into(), Value::String(unit_of(name).to_owned())),
                        ("stat".into(), Value::String(m.stat.to_owned())),
                        ("q1".into(), num(m.q1)),
                        ("q3".into(), num(m.q3)),
                        ("n".into(), Value::Number(m.n as f64)),
                    ]),
                )
            })
            .collect();
        let mut report = vec![
            ("format".to_owned(), Value::String("gmc-perfbench/1".into())),
            ("workload".to_owned(), Value::String(self.workload.clone())),
            ("seed".to_owned(), Value::Number(self.seed as f64)),
            ("trace".to_owned(), Value::Bool(self.trace)),
            ("host".to_owned(), fingerprint),
            ("attempted".to_owned(), Value::Number(self.attempted as f64)),
            ("failed".to_owned(), Value::Number(self.failed as f64)),
            ("checked".to_owned(), Value::Number(self.checked as f64)),
            (
                "fail_frac".to_owned(),
                Value::Number(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "violations".to_owned(),
                Value::Array(self.violations.iter().cloned().map(Value::String).collect()),
            ),
            ("metrics".to_owned(), Value::Object(detail)),
        ];
        report.extend(self.notes.iter().cloned());
        println!(
            "{}",
            serde_json::to_string(&Value::Object(report)).expect("finite report")
        );

        let metrics: Vec<(String, Value)> = self
            .printed()
            .into_iter()
            .map(|(name, unit, m)| {
                (
                    name.to_owned(),
                    Value::Object(vec![
                        ("value".into(), num(m.value)),
                        ("unit".into(), Value::String(unit.to_owned())),
                    ]),
                )
            })
            .collect();
        let result = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Number(self.attempted.max(1) as f64),
            ),
            ("failed".into(), Value::Number(self.failed as f64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        println!("{}", serde_json::to_string(&result).expect("finite result"));
    }
}
