//! Deterministic workload synthesis for the serving tier.
//!
//! A [`WorkloadSpec`] describes *traffic shape* — a population of chain
//! structures with Zipf-distributed popularity, per-dimension-variable
//! binding distributions, an arrival process (closed-loop or open-loop
//! with bursty on-off phases) and a target hit ratio — and compiles,
//! deterministically from its seed, into a [`Trace`]: the concrete
//! request sequence with a stable on-disk JSON format
//! (`gmc-trace/1`). The same spec always produces byte-identical trace
//! JSON, so traces are replayable evidence: a latency or throughput
//! number is meaningful only together with the trace that produced it.
//!
//! The generated population deliberately includes the adversarial
//! shapes the serving tier has been bitten by: structures that are
//! *canonically identical* but use different dimension-variable names
//! (the PR 5 aliasing crash family) can be requested via
//! `alias_structures`, and `duplicate_ratio` emits exact duplicate
//! bindings, each one a request of its own that hits its region's
//! plan once the region is recorded.

use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand, UnaryOp, MAX_DIM};
use gmc_plan::region_signature;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeSet;

/// The trace format tag; bump when the on-disk layout changes.
pub const TRACE_FORMAT: &str = "gmc-trace/1";

/// A binding-value distribution for one dimension variable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BindingDist {
    /// Uniform over `lo..=hi`.
    Uniform {
        /// Smallest value (inclusive).
        lo: usize,
        /// Largest value (inclusive).
        hi: usize,
    },
    /// Log-uniform over `lo..=hi`: sizes spread evenly across orders of
    /// magnitude (most real dimension distributions are heavy-tailed).
    LogUniform {
        /// Smallest value (inclusive).
        lo: usize,
        /// Largest value (inclusive).
        hi: usize,
    },
}

impl BindingDist {
    fn validate(&self) -> Result<(), String> {
        let (lo, hi) = match self {
            BindingDist::Uniform { lo, hi } | BindingDist::LogUniform { lo, hi } => (*lo, *hi),
        };
        if lo == 0 {
            return Err("binding distribution lower bound must be positive".to_owned());
        }
        if hi < lo {
            return Err(format!(
                "binding distribution bounds inverted ({lo} > {hi})"
            ));
        }
        if hi > MAX_DIM {
            return Err("binding distribution upper bound too large (> 2^32)".to_owned());
        }
        Ok(())
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            BindingDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
            BindingDist::LogUniform { lo, hi } => {
                if lo == hi {
                    return lo;
                }
                let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
                let v = (rng.gen_range(llo..lhi)).exp().round() as usize;
                v.clamp(lo, hi)
            }
        }
    }
}

impl Serialize for BindingDist {
    fn to_value(&self) -> Value {
        let (dist, lo, hi) = match self {
            BindingDist::Uniform { lo, hi } => ("uniform", lo, hi),
            BindingDist::LogUniform { lo, hi } => ("loguniform", lo, hi),
        };
        Value::Object(vec![
            ("dist".to_owned(), Value::String(dist.to_owned())),
            ("lo".to_owned(), Value::Number(*lo as f64)),
            ("hi".to_owned(), Value::Number(*hi as f64)),
        ])
    }
}

impl Deserialize for BindingDist {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let dist = String::from_value(v.get_field("dist")?)?;
        let lo = usize::from_value(v.get_field("lo")?)?;
        let hi = usize::from_value(v.get_field("hi")?)?;
        match dist.as_str() {
            "uniform" => Ok(BindingDist::Uniform { lo, hi }),
            "loguniform" => Ok(BindingDist::LogUniform { lo, hi }),
            other => Err(DeError(format!("unknown binding distribution `{other}`"))),
        }
    }
}

/// The arrival process of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Requests arrive as fast as the server absorbs them (all
    /// `at_us = 0`); replay applies maximum pressure.
    ClosedLoop,
    /// Poisson arrivals at a fixed mean rate; `at_us` carries the
    /// arrival offsets.
    OpenLoop {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// On-off bursts: Poisson arrivals at `rate_per_sec` during `on_ms`
    /// phases separated by silent `off_ms` gaps.
    Bursty {
        /// Mean arrivals per second while a burst is on.
        rate_per_sec: f64,
        /// Burst length in milliseconds.
        on_ms: u64,
        /// Gap between bursts in milliseconds.
        off_ms: u64,
    },
}

impl ArrivalProcess {
    fn validate(&self) -> Result<(), String> {
        match *self {
            ArrivalProcess::ClosedLoop => Ok(()),
            ArrivalProcess::OpenLoop { rate_per_sec } => {
                if rate_per_sec > 0.0 && rate_per_sec.is_finite() {
                    Ok(())
                } else {
                    Err("open-loop arrival rate must be positive and finite".to_owned())
                }
            }
            ArrivalProcess::Bursty {
                rate_per_sec,
                on_ms,
                ..
            } => {
                if !(rate_per_sec > 0.0 && rate_per_sec.is_finite()) {
                    Err("bursty arrival rate must be positive and finite".to_owned())
                } else if on_ms == 0 {
                    Err("bursty on-phase must be non-empty".to_owned())
                } else {
                    Ok(())
                }
            }
        }
    }
}

impl Serialize for ArrivalProcess {
    fn to_value(&self) -> Value {
        match *self {
            ArrivalProcess::ClosedLoop => Value::Object(vec![(
                "process".to_owned(),
                Value::String("closed".to_owned()),
            )]),
            ArrivalProcess::OpenLoop { rate_per_sec } => Value::Object(vec![
                ("process".to_owned(), Value::String("open".to_owned())),
                ("rate_per_sec".to_owned(), Value::Number(rate_per_sec)),
            ]),
            ArrivalProcess::Bursty {
                rate_per_sec,
                on_ms,
                off_ms,
            } => Value::Object(vec![
                ("process".to_owned(), Value::String("bursty".to_owned())),
                ("rate_per_sec".to_owned(), Value::Number(rate_per_sec)),
                ("on_ms".to_owned(), Value::Number(on_ms as f64)),
                ("off_ms".to_owned(), Value::Number(off_ms as f64)),
            ]),
        }
    }
}

impl Deserialize for ArrivalProcess {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let process = String::from_value(v.get_field("process")?)?;
        match process.as_str() {
            "closed" => Ok(ArrivalProcess::ClosedLoop),
            "open" => Ok(ArrivalProcess::OpenLoop {
                rate_per_sec: f64::from_value(v.get_field("rate_per_sec")?)?,
            }),
            "bursty" => Ok(ArrivalProcess::Bursty {
                rate_per_sec: f64::from_value(v.get_field("rate_per_sec")?)?,
                on_ms: u64::from_value(v.get_field("on_ms")?)?,
                off_ms: u64::from_value(v.get_field("off_ms")?)?,
            }),
            other => Err(DeError(format!("unknown arrival process `{other}`"))),
        }
    }
}

/// A seeded description of synthetic serving traffic. Compiling the
/// same spec always yields the same [`Trace`], byte for byte.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadSpec {
    /// Human-readable scenario name (carried into the trace).
    pub name: String,
    /// The RNG seed every generated byte derives from.
    pub seed: u64,
    /// Structure population size (Zipf rank 0 is the most popular).
    pub structures: usize,
    /// How many of the first structures get a *renamed twin*: same
    /// canonical structure key, different dimension-variable names —
    /// the PR 5 aliasing crash family.
    pub alias_structures: usize,
    /// Chain length bounds (factors per chain), inclusive.
    pub min_len: usize,
    /// Upper chain length bound, inclusive.
    pub max_len: usize,
    /// Zipf popularity exponent (0 = uniform; ~1 = web-like skew).
    pub zipf_s: f64,
    /// Per-dimension-variable value distributions: variable `i` of a
    /// structure draws from `bindings[i % bindings.len()]`.
    pub bindings: Vec<BindingDist>,
    /// Arrival process compiled into the per-request `at_us` offsets.
    pub arrivals: ArrivalProcess,
    /// Total requests to emit.
    pub requests: usize,
    /// Target fraction of requests that land in an already-seen size
    /// region of their structure (the cache-hit class). Best effort:
    /// the first request of a structure is always fresh.
    pub hit_ratio: f64,
    /// Fraction of warm requests that duplicate an earlier binding
    /// *exactly* (a cache hit once its region is recorded); the rest
    /// rescale an earlier binding, staying in its region with fresh
    /// sizes.
    pub duplicate_ratio: f64,
}

impl WorkloadSpec {
    /// A named preset at the given seed, or `None` for an unknown name.
    /// Presets: `steady` (hit-heavy), `mixed` (50/50), `churn`
    /// (all-miss region churn), `storm` (90% exact duplicates: hits
    /// on a few hot regions),
    /// `bursty` (open-loop on-off arrivals), `aliased`
    /// (renamed-variable twins interleaved).
    pub fn preset(name: &str, seed: u64) -> Option<WorkloadSpec> {
        let base = WorkloadSpec {
            name: name.to_owned(),
            seed,
            structures: 6,
            alias_structures: 0,
            min_len: 3,
            max_len: 6,
            zipf_s: 1.1,
            bindings: vec![
                BindingDist::LogUniform { lo: 8, hi: 2048 },
                BindingDist::Uniform { lo: 16, hi: 512 },
            ],
            arrivals: ArrivalProcess::ClosedLoop,
            requests: 400,
            hit_ratio: 0.5,
            duplicate_ratio: 0.1,
        };
        Some(match name {
            "steady" => WorkloadSpec {
                structures: 3,
                hit_ratio: 0.95,
                ..base
            },
            "mixed" => base,
            "churn" => WorkloadSpec {
                structures: 10,
                hit_ratio: 0.0,
                duplicate_ratio: 0.0,
                zipf_s: 0.0,
                ..base
            },
            "storm" => WorkloadSpec {
                structures: 2,
                hit_ratio: 0.9,
                duplicate_ratio: 0.9,
                ..base
            },
            "bursty" => WorkloadSpec {
                hit_ratio: 0.7,
                arrivals: ArrivalProcess::Bursty {
                    rate_per_sec: 20_000.0,
                    on_ms: 5,
                    off_ms: 10,
                },
                ..base
            },
            "aliased" => WorkloadSpec {
                structures: 4,
                alias_structures: 4,
                hit_ratio: 0.5,
                ..base
            },
            _ => return None,
        })
    }

    /// The preset names accepted by [`WorkloadSpec::preset`].
    pub const PRESETS: [&'static str; 6] =
        ["steady", "mixed", "churn", "storm", "bursty", "aliased"];

    fn validate(&self) -> Result<(), String> {
        if self.structures == 0 {
            return Err("workload needs at least one structure".to_owned());
        }
        if self.alias_structures > self.structures {
            return Err("alias_structures exceeds the structure count".to_owned());
        }
        if self.min_len < 2 {
            return Err("chains need at least two factors".to_owned());
        }
        if self.max_len < self.min_len {
            return Err("max_len below min_len".to_owned());
        }
        if self.max_len > 16 {
            return Err("max_len above 16 (symbolic solves get slow)".to_owned());
        }
        if self.bindings.is_empty() {
            return Err("at least one binding distribution is required".to_owned());
        }
        for b in &self.bindings {
            b.validate()?;
        }
        if !(0.0..=1.0).contains(&self.hit_ratio) || !self.hit_ratio.is_finite() {
            return Err("hit_ratio must be in [0, 1]".to_owned());
        }
        if !(0.0..=1.0).contains(&self.duplicate_ratio) || !self.duplicate_ratio.is_finite() {
            return Err("duplicate_ratio must be in [0, 1]".to_owned());
        }
        if !(self.zipf_s.is_finite() && self.zipf_s >= 0.0) {
            return Err("zipf_s must be finite and non-negative".to_owned());
        }
        self.arrivals.validate()
    }
}

impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_owned(), Value::String(self.name.clone())),
            ("seed".to_owned(), Value::Number(self.seed as f64)),
            (
                "structures".to_owned(),
                Value::Number(self.structures as f64),
            ),
            (
                "alias_structures".to_owned(),
                Value::Number(self.alias_structures as f64),
            ),
            ("min_len".to_owned(), Value::Number(self.min_len as f64)),
            ("max_len".to_owned(), Value::Number(self.max_len as f64)),
            ("zipf_s".to_owned(), Value::Number(self.zipf_s)),
            ("bindings".to_owned(), self.bindings.to_value()),
            ("arrivals".to_owned(), self.arrivals.to_value()),
            ("requests".to_owned(), Value::Number(self.requests as f64)),
            ("hit_ratio".to_owned(), Value::Number(self.hit_ratio)),
            (
                "duplicate_ratio".to_owned(),
                Value::Number(self.duplicate_ratio),
            ),
        ])
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(WorkloadSpec {
            name: String::from_value(v.get_field("name")?)?,
            seed: u64::from_value(v.get_field("seed")?)?,
            structures: usize::from_value(v.get_field("structures")?)?,
            alias_structures: usize::from_value(v.get_field("alias_structures")?)?,
            min_len: usize::from_value(v.get_field("min_len")?)?,
            max_len: usize::from_value(v.get_field("max_len")?)?,
            zipf_s: f64::from_value(v.get_field("zipf_s")?)?,
            bindings: Vec::<BindingDist>::from_value(v.get_field("bindings")?)?,
            arrivals: ArrivalProcess::from_value(v.get_field("arrivals")?)?,
            requests: usize::from_value(v.get_field("requests")?)?,
            hit_ratio: f64::from_value(v.get_field("hit_ratio")?)?,
            duplicate_ratio: f64::from_value(v.get_field("duplicate_ratio")?)?,
        })
    }
}

/// One structure of a trace: a dense chain of `dims.len() - 1` factors
/// where factor `i` spans `(dims[i], dims[i+1])`, optionally stored
/// transposed (the factor's operand has the flipped shape and a `^T`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStructure {
    /// Registration name (`S0`, `S1`, …; alias twins are `S0x`, …).
    pub name: String,
    /// Boundary dimension-variable names, length `factors + 1`. All
    /// distinct within the structure; alias twins use different names
    /// than their base (that is the point).
    pub dims: Vec<String>,
    /// Per-factor transposed-storage flags, length `dims.len() - 1`.
    pub transposed: Vec<bool>,
}

impl TraceStructure {
    /// The chain this structure registers: effective factor `i` spans
    /// `(dims[i], dims[i+1])`, stored transposed where flagged.
    pub fn chain(&self) -> Result<SymChain, String> {
        let factors: Vec<SymFactor> = (0..self.transposed.len())
            .map(|i| {
                let (rows, cols) = (Dim::var(&self.dims[i]), Dim::var(&self.dims[i + 1]));
                let name = format!("M{i}");
                if self.transposed[i] {
                    SymFactor::new(SymOperand::new(name, cols, rows), UnaryOp::Transpose)
                } else {
                    SymFactor::plain(SymOperand::new(name, rows, cols))
                }
            })
            .collect();
        SymChain::new(factors).map_err(|e| format!("structure `{}`: {e}", self.name))
    }

    /// Bindings assigning `values[i]` to `dims[i]`.
    pub fn bindings(&self, values: &[usize]) -> DimBindings {
        let mut b = DimBindings::new();
        for (name, value) in self.dims.iter().zip(values) {
            b.set(name, *value);
        }
        b
    }

    fn validate(&self) -> Result<(), String> {
        if self.dims.len() < 2 || self.transposed.len() + 1 != self.dims.len() {
            return Err(format!(
                "structure `{}`: inconsistent dims/transposed lengths",
                self.name
            ));
        }
        let distinct: BTreeSet<&String> = self.dims.iter().collect();
        if distinct.len() != self.dims.len() {
            return Err(format!(
                "structure `{}`: duplicate dimension variables",
                self.name
            ));
        }
        Ok(())
    }
}

impl Serialize for TraceStructure {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_owned(), Value::String(self.name.clone())),
            ("dims".to_owned(), self.dims.to_value()),
            ("transposed".to_owned(), self.transposed.to_value()),
        ])
    }
}

impl Deserialize for TraceStructure {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(TraceStructure {
            name: String::from_value(v.get_field("name")?)?,
            dims: Vec::<String>::from_value(v.get_field("dims")?)?,
            transposed: Vec::<bool>::from_value(v.get_field("transposed")?)?,
        })
    }
}

/// The intended class of one request, recorded at generation time
/// (replay measures the *actual* hit/miss; races can differ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// First visit to a size region: intended miss.
    Fresh,
    /// Rescaled earlier binding, same region: intended hit.
    Warm,
    /// Exact duplicate of an earlier binding: intended hit.
    Duplicate,
}

impl RequestClass {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            RequestClass::Fresh => "fresh",
            RequestClass::Warm => "warm",
            RequestClass::Duplicate => "duplicate",
        }
    }

    fn from_label(s: &str) -> Result<Self, DeError> {
        match s {
            "fresh" => Ok(RequestClass::Fresh),
            "warm" => Ok(RequestClass::Warm),
            "duplicate" => Ok(RequestClass::Duplicate),
            other => Err(DeError(format!("unknown request class `{other}`"))),
        }
    }
}

/// One request of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRequest {
    /// Arrival offset in microseconds from trace start (0 for
    /// closed-loop traces).
    pub at_us: u64,
    /// Index into [`Trace::structures`].
    pub structure: usize,
    /// One value per structure dimension variable, in `dims` order.
    pub values: Vec<usize>,
    /// The intended hit/miss class.
    pub class: RequestClass,
}

impl Serialize for TraceRequest {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_us".to_owned(), Value::Number(self.at_us as f64)),
            ("structure".to_owned(), Value::Number(self.structure as f64)),
            ("values".to_owned(), self.values.to_value()),
            (
                "class".to_owned(),
                Value::String(self.class.label().to_owned()),
            ),
        ])
    }
}

impl Deserialize for TraceRequest {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(TraceRequest {
            at_us: u64::from_value(v.get_field("at_us")?)?,
            structure: usize::from_value(v.get_field("structure")?)?,
            values: Vec::<usize>::from_value(v.get_field("values")?)?,
            class: RequestClass::from_label(&String::from_value(v.get_field("class")?)?)?,
        })
    }
}

/// A compiled, replayable traffic trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// The spec this trace was compiled from (including its seed).
    pub spec: WorkloadSpec,
    /// The structure population, in registration order.
    pub structures: Vec<TraceStructure>,
    /// The request sequence, in submission order, `at_us` non-
    /// decreasing.
    pub requests: Vec<TraceRequest>,
}

impl Serialize for Trace {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("format".to_owned(), Value::String(TRACE_FORMAT.to_owned())),
            ("spec".to_owned(), self.spec.to_value()),
            ("structures".to_owned(), self.structures.to_value()),
            ("requests".to_owned(), self.requests.to_value()),
        ])
    }
}

impl Deserialize for Trace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let format = String::from_value(v.get_field("format")?)?;
        if format != TRACE_FORMAT {
            return Err(DeError(format!(
                "unsupported trace format `{format}` (expected `{TRACE_FORMAT}`)"
            )));
        }
        Ok(Trace {
            spec: WorkloadSpec::from_value(v.get_field("spec")?)?,
            structures: Vec::<TraceStructure>::from_value(v.get_field("structures")?)?,
            requests: Vec::<TraceRequest>::from_value(v.get_field("requests")?)?,
        })
    }
}

impl Trace {
    /// Serializes to the stable on-disk JSON form (pretty-printed,
    /// trailing newline). The same trace always renders the same bytes.
    pub fn to_json_string(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).expect("trace values finite");
        s.push('\n');
        s
    }

    /// Parses and validates a trace from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or inconsistent
    /// part (bad JSON, unknown format tag, out-of-range structure
    /// indices, wrong value counts).
    pub fn from_json_str(s: &str) -> Result<Trace, String> {
        let value: Value = serde_json::from_str(s).map_err(|e| format!("trace JSON: {e}"))?;
        let trace = Trace::from_value(&value).map_err(|e| format!("trace JSON: {e}"))?;
        trace.validate()?;
        Ok(trace)
    }

    /// Structural validation: every request references a structure and
    /// carries exactly one value per dimension variable; arrivals are
    /// non-decreasing.
    pub fn validate(&self) -> Result<(), String> {
        if self.structures.is_empty() {
            return Err("trace has no structures".to_owned());
        }
        for s in &self.structures {
            s.validate()?;
        }
        let mut last_at = 0u64;
        for (i, r) in self.requests.iter().enumerate() {
            let s = self.structures.get(r.structure).ok_or_else(|| {
                format!("request {i}: structure index {} out of range", r.structure)
            })?;
            if r.values.len() != s.dims.len() {
                return Err(format!(
                    "request {i}: {} values for {} dims of `{}`",
                    r.values.len(),
                    s.dims.len(),
                    s.name
                ));
            }
            if r.values.contains(&0) {
                return Err(format!("request {i}: zero dimension value"));
            }
            if r.at_us < last_at {
                return Err(format!("request {i}: arrival offsets decrease"));
            }
            last_at = r.at_us;
        }
        Ok(())
    }

    /// A deterministic human-readable summary (structure population,
    /// popularity counts, class mix, arrival shape).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let spec = &self.spec;
        writeln!(
            out,
            "trace `{}` (seed {}): {} structures, {} requests",
            spec.name,
            spec.seed,
            self.structures.len(),
            self.requests.len()
        )
        .expect("string write");
        writeln!(
            out,
            "arrivals: {:?}; target hit ratio {:.2}, duplicate ratio {:.2}, zipf_s {:.2}",
            spec.arrivals, spec.hit_ratio, spec.duplicate_ratio, spec.zipf_s
        )
        .expect("string write");
        let mut popularity = vec![0usize; self.structures.len()];
        let (mut fresh, mut warm, mut dup) = (0usize, 0usize, 0usize);
        for r in &self.requests {
            popularity[r.structure] += 1;
            match r.class {
                RequestClass::Fresh => fresh += 1,
                RequestClass::Warm => warm += 1,
                RequestClass::Duplicate => dup += 1,
            }
        }
        writeln!(out, "classes: {fresh} fresh, {warm} warm, {dup} duplicate")
            .expect("string write");
        for (s, count) in self.structures.iter().zip(&popularity) {
            writeln!(
                out,
                "  {:<6} {} factors, dims [{}]{}: {count} requests",
                s.name,
                s.transposed.len(),
                s.dims.join(", "),
                if s.transposed.iter().any(|&t| t) {
                    " (some transposed)"
                } else {
                    ""
                }
            )
            .expect("string write");
        }
        if let Some(last) = self.requests.last() {
            if last.at_us > 0 {
                writeln!(out, "span: {} us", last.at_us).expect("string write");
            }
        }
        out
    }
}

/// Compiles `spec` into its trace. Deterministic: the same spec (same
/// seed included) always returns the same trace.
///
/// # Errors
///
/// Returns a description of the first invalid spec field, or a
/// structure that fails chain validation.
pub fn generate(spec: &WorkloadSpec) -> Result<Trace, String> {
    spec.validate()?;
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Structure population. Alias twins (same lengths/transposes,
    // different variable names) share a *canonical* structure key in
    // the plan cache; `canon[i]` groups them for region bookkeeping.
    let mut structures: Vec<TraceStructure> = Vec::new();
    let mut canon: Vec<usize> = Vec::new();
    for s in 0..spec.structures {
        let len = rng.gen_range(spec.min_len..=spec.max_len);
        let transposed: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.25)).collect();
        let dims: Vec<String> = (0..=len).map(|i| format!("w{s}d{i}")).collect();
        canon.push(structures.len());
        structures.push(TraceStructure {
            name: format!("S{s}"),
            dims,
            transposed,
        });
    }
    for s in 0..spec.alias_structures {
        let base = structures[s].clone();
        canon.push(s);
        structures.push(TraceStructure {
            name: format!("S{s}x"),
            dims: (0..base.dims.len()).map(|i| format!("w{s}xd{i}")).collect(),
            transposed: base.transposed,
        });
    }
    // Validate every structure compiles into a chain once, up front.
    let chains: Vec<SymChain> = structures
        .iter()
        .map(TraceStructure::chain)
        .collect::<Result<_, _>>()?;

    // Zipf popularity over the population (rank = index).
    let weights: Vec<f64> = (0..structures.len())
        .map(|k| 1.0 / ((k + 1) as f64).powf(spec.zipf_s))
        .collect();
    let total_weight: f64 = weights.iter().sum();
    let mut cumulative = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total_weight;
        cumulative.push(acc);
    }
    let pick_structure = |rng: &mut StdRng| -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(structures.len() - 1)
    };

    // Region bookkeeping per canonical group: seen signatures, and the
    // base (unscaled) value vectors already emitted per structure.
    let mut seen_regions: Vec<BTreeSet<Vec<i8>>> = vec![BTreeSet::new(); structures.len()];
    let mut history: Vec<Vec<Vec<usize>>> = vec![Vec::new(); structures.len()];
    let mut emitted: Vec<BTreeSet<Vec<usize>>> = vec![BTreeSet::new(); structures.len()];

    // Arrival clock.
    let mut clock_us = 0u64;
    let mut arrive = |rng: &mut StdRng| -> u64 {
        match spec.arrivals {
            ArrivalProcess::ClosedLoop => 0,
            ArrivalProcess::OpenLoop { rate_per_sec } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let gap_us = (-u.ln() / rate_per_sec * 1e6).round() as u64;
                clock_us += gap_us;
                clock_us
            }
            ArrivalProcess::Bursty {
                rate_per_sec,
                on_ms,
                off_ms,
            } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let gap_us = (-u.ln() / rate_per_sec * 1e6).round() as u64;
                clock_us += gap_us;
                // Fold the clock into on/off phases: arrivals landing
                // in an off window are pushed to the next on phase.
                let (on_us, period_us) = (on_ms * 1000, (on_ms + off_ms) * 1000);
                let into = clock_us % period_us;
                if into >= on_us {
                    clock_us += period_us - into;
                }
                clock_us
            }
        }
    };

    let mut requests: Vec<TraceRequest> = Vec::with_capacity(spec.requests);
    for _ in 0..spec.requests {
        let sidx = pick_structure(&mut rng);
        let group = canon[sidx];
        let structure = &structures[sidx];
        let chain = &chains[sidx];
        let warm_wanted = rng.gen_bool(spec.hit_ratio) && !history[group].is_empty();
        let (values, class) = if warm_wanted {
            let entry = &history[group][rng.gen_range(0..history[group].len())];
            // Alias twins share a canonical group, so a warm request
            // for the twin reuses the *base* value vector — same
            // region under the canonical key, bound through the twin's
            // own variable names (the PR 5 regression shape).
            if rng.gen_bool(spec.duplicate_ratio) {
                (entry.clone(), RequestClass::Duplicate)
            } else {
                // Rescale into the same region with fresh sizes. Retry
                // scales until the scaled vector is new for this
                // structure (exact repeats are the Duplicate class).
                let mut scale = rng.gen_range(2usize..=6);
                let mut scaled: Vec<usize>;
                loop {
                    scaled = entry.iter().map(|&v| v * scale).collect();
                    if emitted[sidx].insert(scaled.clone()) {
                        break;
                    }
                    scale += 1;
                }
                (scaled, RequestClass::Warm)
            }
        } else {
            // Fresh draw; steer toward an unseen region of the
            // canonical group (best effort, bounded retries).
            let mut values: Vec<usize> = Vec::new();
            let mut is_fresh = false;
            for _ in 0..8 {
                values = (0..structure.dims.len())
                    .map(|i| spec.bindings[i % spec.bindings.len()].sample(&mut rng))
                    .collect();
                let sizes = chain
                    .bind_dims(&structure.bindings(&values))
                    .map_err(|e| format!("structure `{}`: {e}", structure.name))?;
                if seen_regions[group].insert(region_signature(&sizes)) {
                    is_fresh = true;
                    break;
                }
            }
            emitted[sidx].insert(values.clone());
            history[group].push(values.clone());
            let class = if is_fresh {
                RequestClass::Fresh
            } else {
                // Every nearby region is already seen: an intended
                // warm request in practice.
                RequestClass::Warm
            };
            (values, class)
        };
        requests.push(TraceRequest {
            at_us: arrive(&mut rng),
            structure: sidx,
            values,
            class,
        });
    }

    let trace = Trace {
        spec: spec.clone(),
        structures,
        requests,
    };
    trace.validate()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_generate_and_round_trip() {
        for preset in WorkloadSpec::PRESETS {
            let mut spec = WorkloadSpec::preset(preset, 42).unwrap();
            spec.requests = 60;
            let trace = generate(&spec).unwrap();
            assert_eq!(trace.requests.len(), 60, "{preset}");
            let json = trace.to_json_string();
            let back = Trace::from_json_str(&json).unwrap();
            assert_eq!(back, trace, "{preset}");
            assert_eq!(back.to_json_string(), json, "{preset}");
            // Regeneration from the same spec is byte-identical.
            assert_eq!(generate(&spec).unwrap().to_json_string(), json, "{preset}");
        }
        assert!(WorkloadSpec::preset("nope", 1).is_none());
    }

    #[test]
    fn aliased_preset_has_renamed_twins() {
        let mut spec = WorkloadSpec::preset("aliased", 7).unwrap();
        spec.requests = 40;
        let trace = generate(&spec).unwrap();
        assert_eq!(trace.structures.len(), 8);
        let base = &trace.structures[0];
        let twin = &trace.structures[4];
        assert_eq!(twin.name, format!("{}x", base.name));
        assert_eq!(twin.transposed, base.transposed);
        assert_ne!(twin.dims, base.dims, "twin must rename its variables");
        // Both sides of at least one alias pair get traffic.
        assert!(
            trace.requests.iter().any(|r| r.structure >= 4),
            "aliased preset should hit a twin"
        );
    }

    #[test]
    fn churn_preset_is_all_fresh() {
        let mut spec = WorkloadSpec::preset("churn", 3).unwrap();
        spec.requests = 50;
        let trace = generate(&spec).unwrap();
        assert!(trace
            .requests
            .iter()
            .all(|r| r.class == RequestClass::Fresh || r.class == RequestClass::Warm));
        let fresh = trace
            .requests
            .iter()
            .filter(|r| r.class == RequestClass::Fresh)
            .count();
        assert!(fresh * 10 >= trace.requests.len() * 8, "{fresh} fresh");
    }

    #[test]
    fn bursty_arrivals_are_monotone_with_gaps() {
        let mut spec = WorkloadSpec::preset("bursty", 11).unwrap();
        spec.requests = 80;
        let trace = generate(&spec).unwrap();
        let arrivals: Vec<u64> = trace.requests.iter().map(|r| r.at_us).collect();
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.last().copied().unwrap_or(0) > 0);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let good = WorkloadSpec::preset("mixed", 1).unwrap();
        for breaker in [
            |s: &mut WorkloadSpec| s.structures = 0,
            |s: &mut WorkloadSpec| s.min_len = 1,
            |s: &mut WorkloadSpec| s.max_len = 1,
            |s: &mut WorkloadSpec| s.hit_ratio = 1.5,
            |s: &mut WorkloadSpec| s.bindings.clear(),
            |s: &mut WorkloadSpec| s.alias_structures = 99,
            |s: &mut WorkloadSpec| {
                s.bindings = vec![BindingDist::Uniform { lo: 0, hi: 5 }];
            },
            |s: &mut WorkloadSpec| {
                s.bindings = vec![BindingDist::LogUniform {
                    lo: 1,
                    hi: MAX_DIM + 1,
                }];
            },
        ] {
            let mut spec = good.clone();
            breaker(&mut spec);
            assert!(generate(&spec).is_err());
        }
    }

    #[test]
    fn describe_is_deterministic_and_informative() {
        let mut spec = WorkloadSpec::preset("mixed", 5).unwrap();
        spec.requests = 30;
        let trace = generate(&spec).unwrap();
        let d = trace.describe();
        assert_eq!(d, trace.describe());
        assert!(d.contains("30 requests"), "{d}");
        assert!(d.contains("S0"), "{d}");
    }
}
