//! Deterministic fault injection for the serving tier.
//!
//! A [`FaultPlan`] names, by request index, the faults to inject into
//! one replay: panics inside the solve (caught, answered `internal`),
//! artificial solve delays, already-expired deadlines, and admission
//! bursts that overflow a small queue capacity. Plans are seeded and
//! serializable (`gmc-faults/2`, the same shim-JSON idiom as
//! `gmc-trace/1`), so a chaos run is replayable evidence exactly like
//! the trace it runs against.
//!
//! The serve layer itself only understands [`SolveFault`] — the
//! per-request solve-side faults carried in
//! [`crate::RequestOptions`]; the replay harness (in `gmc-bench`)
//! translates the other kinds into deadlines and batches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Once;
use std::time::Duration;

/// The fault-plan format tag; bump when the layout changes.
pub const FAULTS_FORMAT: &str = "gmc-faults/2";

/// Marker carried in every injected panic's payload. The quiet panic
/// hook (see [`silence_injected_panics`]) suppresses only payloads
/// containing it, so real panics still print.
pub const FAULT_PANIC_MARKER: &str = "gmc-serve injected fault";

/// A solve-side fault attached to one request, executed on the thread
/// that solves it once it holds a solve slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveFault {
    /// Panic inside the solve (caught by the solve's `catch_unwind`;
    /// the request is answered [`crate::ServeError::Internal`]).
    Panic,
    /// Sleep this long before solving (holds a solve slot and a place
    /// in the ledger, so a small queue capacity behind it overflows
    /// deterministically).
    Delay(Duration),
}

/// One fault kind at the plan level (request indices are attached by
/// [`FaultEntry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the solve: caught, and the request is answered
    /// `ServeError::Internal`.
    Panic,
    /// Artificial solve delay of this many milliseconds.
    Delay {
        /// Sleep length in milliseconds.
        ms: u64,
    },
    /// The request arrives with an already-expired deadline; the
    /// server must shed it unsolved with
    /// `ServeError::DeadlineExceeded`.
    Expire,
    /// Send this request and the following `size - 1` as one
    /// [`crate::ServeHandle::solve_batch`] once every earlier request
    /// is answered, overflowing a small admission capacity.
    Burst {
        /// Total requests in the burst (including this one).
        size: usize,
    },
}

impl FaultKind {
    /// The solve-side fault this kind translates to, if any.
    pub fn solve_fault(&self) -> Option<SolveFault> {
        match *self {
            FaultKind::Panic => Some(SolveFault::Panic),
            FaultKind::Delay { ms } => Some(SolveFault::Delay(Duration::from_millis(ms))),
            FaultKind::Expire | FaultKind::Burst { .. } => None,
        }
    }

    fn label(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Delay { .. } => "delay",
            FaultKind::Expire => "expire",
            FaultKind::Burst { .. } => "burst",
        }
    }
}

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        let mut fields = vec![("kind".to_owned(), Value::String(self.label().to_owned()))];
        match *self {
            FaultKind::Delay { ms } => fields.push(("ms".to_owned(), Value::Number(ms as f64))),
            FaultKind::Burst { size } => {
                fields.push(("size".to_owned(), Value::Number(size as f64)));
            }
            _ => {}
        }
        Value::Object(fields)
    }
}

impl Deserialize for FaultKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind = String::from_value(v.get_field("kind")?)?;
        match kind.as_str() {
            "panic" => Ok(FaultKind::Panic),
            "delay" => Ok(FaultKind::Delay {
                ms: u64::from_value(v.get_field("ms")?)?,
            }),
            "expire" => Ok(FaultKind::Expire),
            "burst" => Ok(FaultKind::Burst {
                size: usize::from_value(v.get_field("size")?)?,
            }),
            other => Err(DeError(format!("unknown fault kind `{other}`"))),
        }
    }
}

/// One fault pinned to one request index of the trace it runs against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEntry {
    /// Index into the trace's request sequence.
    pub request: usize,
    /// What to inject there.
    pub kind: FaultKind,
}

impl Serialize for FaultEntry {
    fn to_value(&self) -> Value {
        let Value::Object(mut fields) = self.kind.to_value() else {
            unreachable!("FaultKind serializes to an object");
        };
        fields.insert(
            0,
            ("request".to_owned(), Value::Number(self.request as f64)),
        );
        Value::Object(fields)
    }
}

impl Deserialize for FaultEntry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(FaultEntry {
            request: usize::from_value(v.get_field("request")?)?,
            kind: FaultKind::from_value(v)?,
        })
    }
}

/// A complete, replayable fault schedule for one trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-written plans).
    pub seed: u64,
    /// Admission capacity the replay should run the server at; 0 means
    /// the server default (faults like `Burst` only bite with a small
    /// capacity, so the plan carries it).
    pub queue_capacity: usize,
    /// The schedule, sorted by request index, at most one per index.
    pub entries: Vec<FaultEntry>,
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("format".to_owned(), Value::String(FAULTS_FORMAT.to_owned())),
            ("seed".to_owned(), Value::Number(self.seed as f64)),
            (
                "queue_capacity".to_owned(),
                Value::Number(self.queue_capacity as f64),
            ),
            ("entries".to_owned(), self.entries.to_value()),
        ])
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let format = String::from_value(v.get_field("format")?)?;
        if format != FAULTS_FORMAT {
            return Err(DeError(format!(
                "unsupported fault-plan format `{format}` (expected `{FAULTS_FORMAT}`)"
            )));
        }
        Ok(FaultPlan {
            seed: u64::from_value(v.get_field("seed")?)?,
            queue_capacity: usize::from_value(v.get_field("queue_capacity")?)?,
            entries: Vec::<FaultEntry>::from_value(v.get_field("entries")?)?,
        })
    }
}

/// How many faults of each kind a seeded plan should place; see
/// [`FaultPlan::seeded`].
#[derive(Clone, Copy, Debug)]
pub struct FaultSpec {
    /// Generator seed: the same spec always yields the same plan.
    pub seed: u64,
    /// Length of the trace the plan targets (indices stay below this).
    pub requests: usize,
    /// Panics inside the solve (caught, answered `internal`).
    pub panics: usize,
    /// Artificial solve delays.
    pub delays: usize,
    /// Length of each delay in milliseconds.
    pub delay_ms: u64,
    /// Already-expired deadlines.
    pub expires: usize,
    /// Admission bursts.
    pub bursts: usize,
    /// Requests per burst.
    pub burst_size: usize,
    /// Admission capacity the replay should use (0 = server default).
    pub queue_capacity: usize,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 7,
            requests: 100,
            panics: 2,
            delays: 2,
            delay_ms: 10,
            expires: 2,
            bursts: 1,
            burst_size: 32,
            queue_capacity: 8,
        }
    }
}

impl FaultPlan {
    /// Builds a deterministic plan from `spec`: burst ranges are placed
    /// first (non-overlapping), then the point faults land on distinct
    /// indices *outside* every burst — an expired or panicking request
    /// inside an overloaded burst could be queue-full-shed before its
    /// own fault fires, which would make the expected reply ambiguous.
    ///
    /// # Errors
    ///
    /// Fails when the requested faults cannot fit the trace length.
    pub fn seeded(spec: &FaultSpec) -> Result<FaultPlan, String> {
        let n = spec.requests;
        let burst_size = spec.burst_size.max(2);
        let point_faults = spec.panics + spec.delays + spec.expires;
        if spec.bursts * burst_size + point_faults > n {
            return Err(format!(
                "fault spec does not fit: {} bursts x {} + {} point faults > {} requests",
                spec.bursts, burst_size, point_faults, n
            ));
        }
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut in_burst = vec![false; n];
        let mut entries: BTreeMap<usize, FaultKind> = BTreeMap::new();
        for _ in 0..spec.bursts {
            // Rejection-sample a start whose whole range is free; fall
            // back to a linear scan so generation never spins forever.
            let start = (0..64)
                .map(|_| rng.gen_range(0..=n - burst_size))
                .find(|&s| in_burst[s..s + burst_size].iter().all(|b| !b))
                .or_else(|| {
                    (0..=n - burst_size).find(|&s| in_burst[s..s + burst_size].iter().all(|b| !b))
                })
                .ok_or("no room left for a burst")?;
            for slot in &mut in_burst[start..start + burst_size] {
                *slot = true;
            }
            entries.insert(start, FaultKind::Burst { size: burst_size });
        }
        let place = |count: usize,
                     kind: FaultKind,
                     rng: &mut StdRng,
                     entries: &mut BTreeMap<usize, FaultKind>|
         -> Result<(), String> {
            for _ in 0..count {
                let i = (0..256)
                    .map(|_| rng.gen_range(0..n))
                    .find(|&i| !in_burst[i] && !entries.contains_key(&i))
                    .or_else(|| (0..n).find(|&i| !in_burst[i] && !entries.contains_key(&i)))
                    .ok_or("no free request index left for a point fault")?;
                entries.insert(i, kind);
            }
            Ok(())
        };
        place(spec.panics, FaultKind::Panic, &mut rng, &mut entries)?;
        place(
            spec.delays,
            FaultKind::Delay { ms: spec.delay_ms },
            &mut rng,
            &mut entries,
        )?;
        place(spec.expires, FaultKind::Expire, &mut rng, &mut entries)?;
        Ok(FaultPlan {
            seed: spec.seed,
            queue_capacity: spec.queue_capacity,
            entries: entries
                .into_iter()
                .map(|(request, kind)| FaultEntry { request, kind })
                .collect(),
        })
    }

    /// Serializes to the stable JSON form (pretty-printed, trailing
    /// newline); the same plan always renders the same bytes.
    pub fn to_json_string(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_value()).expect("plan values finite");
        s.push('\n');
        s
    }

    /// Parses and validates a plan from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed part (bad JSON,
    /// unknown format tag or kind, duplicate or unsorted indices).
    pub fn from_json_str(s: &str) -> Result<FaultPlan, String> {
        let value: Value = serde_json::from_str(s).map_err(|e| format!("fault plan JSON: {e}"))?;
        let plan = FaultPlan::from_value(&value).map_err(|e| format!("fault plan JSON: {e}"))?;
        plan.validate()?;
        Ok(plan)
    }

    /// Checks internal consistency: sorted, at most one fault per
    /// request index, bursts at least 2 long, delays nonzero.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        let mut last: Option<usize> = None;
        for e in &self.entries {
            if let Some(prev) = last {
                if e.request <= prev {
                    return Err(format!(
                        "fault entries must be sorted with unique indices \
                         (request {} after {prev})",
                        e.request
                    ));
                }
            }
            last = Some(e.request);
            match e.kind {
                FaultKind::Burst { size } if size < 2 => {
                    return Err(format!("burst at request {} too small ({size})", e.request));
                }
                FaultKind::Delay { ms: 0 } => {
                    return Err(format!("zero-length delay at request {}", e.request));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The faults by request index (for O(1) lookup during replay).
    pub fn by_request(&self) -> BTreeMap<usize, FaultKind> {
        self.entries.iter().map(|e| (e.request, e.kind)).collect()
    }

    /// Whether the plan injects any panic (callers should
    /// [`silence_injected_panics`] before replaying such a plan).
    pub fn injects_panics(&self) -> bool {
        self.entries.iter().any(|e| e.kind == FaultKind::Panic)
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default backtrace print for *injected* panics — payloads containing
/// [`FAULT_PANIC_MARKER`] — and delegates everything else to the
/// previous hook, so real panics still report. Chaos tests and the
/// replay harness call this before injecting.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<&str>()
                .map(|s| s.contains(FAULT_PANIC_MARKER))
                .or_else(|| {
                    payload
                        .downcast_ref::<String>()
                        .map(|s| s.contains(FAULT_PANIC_MARKER))
                })
                .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_valid() {
        let spec = FaultSpec::default();
        let a = FaultPlan::seeded(&spec).unwrap();
        let b = FaultPlan::seeded(&spec).unwrap();
        assert_eq!(a, b);
        a.validate().unwrap();
        assert_eq!(
            a.entries.len(),
            spec.bursts + spec.panics + spec.delays + spec.expires
        );
        assert!(a.injects_panics());
        // Point faults stay clear of burst ranges.
        let bursts: Vec<(usize, usize)> = a
            .entries
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Burst { size } => Some((e.request, e.request + size)),
                _ => None,
            })
            .collect();
        for e in &a.entries {
            if !matches!(e.kind, FaultKind::Burst { .. }) {
                assert!(
                    bursts.iter().all(|&(s, t)| e.request < s || e.request >= t),
                    "point fault {e:?} inside burst {bursts:?}"
                );
            }
        }
    }

    #[test]
    fn plan_json_round_trips_byte_identically() {
        let plan = FaultPlan::seeded(&FaultSpec::default()).unwrap();
        let json = plan.to_json_string();
        let back = FaultPlan::from_json_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.to_json_string(), json);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let dup = FaultPlan {
            seed: 0,
            queue_capacity: 0,
            entries: vec![
                FaultEntry {
                    request: 3,
                    kind: FaultKind::Panic,
                },
                FaultEntry {
                    request: 3,
                    kind: FaultKind::Expire,
                },
            ],
        };
        assert!(dup.validate().is_err());
        let tiny_burst = FaultPlan {
            seed: 0,
            queue_capacity: 0,
            entries: vec![FaultEntry {
                request: 0,
                kind: FaultKind::Burst { size: 1 },
            }],
        };
        assert!(tiny_burst.validate().is_err());
        assert!(FaultPlan::from_json_str("{\"format\":\"nope/1\"}").is_err());
    }

    #[test]
    fn version_one_plans_are_refused_naming_version_two() {
        let old = r#"{"format":"gmc-faults/1","seed":7,"queue_capacity":8,"entries":[]}"#;
        let err = FaultPlan::from_json_str(old).unwrap_err();
        assert!(err.contains("gmc-faults/1"), "{err}");
        assert!(err.contains("gmc-faults/2"), "{err}");
        let kill = r#"{"format":"gmc-faults/2","seed":0,"queue_capacity":0,
                       "entries":[{"request":1,"kind":"kill"}]}"#;
        let err = FaultPlan::from_json_str(kill).unwrap_err();
        assert!(err.contains("unknown fault kind `kill`"), "{err}");
    }

    #[test]
    fn overfull_specs_error() {
        let spec = FaultSpec {
            requests: 10,
            ..FaultSpec::default()
        };
        assert!(FaultPlan::seeded(&spec).is_err());
    }
}
