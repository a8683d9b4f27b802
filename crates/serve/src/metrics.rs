//! The serve layer's telemetry and its scrape-time surfaces.
//!
//! Every counter, gauge and histogram the server keeps is an instrument
//! of one [`MetricsRegistry`], registered here under its stable name
//! and recorded through handles resolved once: at start, or, for a
//! structure's latency classes, at its first solved request. The
//! registry's per-family cap is the one cardinality policy: a family
//! past [`DEFAULT_SERIES_CAP`] series shares one series whose every
//! label is `other`, and `gmc.obs.label.overflow` counts the spill. Two
//! classes per structure bound the class family at 32 tracked
//! structures.
//!
//! Request outcomes are six disjoint counters, and each request bumps
//! exactly one; `completed` and `rejected` are sums taken when read, so
//! `hits + misses + failed == completed` holds in every reading by
//! construction. A request is counted before any histogram records it,
//! behind a release fence, and both readers —
//! [`ServerStats`](crate::ServerStats) and the `METRICS` exposition —
//! take every histogram before any counter, behind an acquire fence, so
//! no histogram is ahead of its counter mid-burst.
//!
//! Families (all names are stable API; the first group is the
//! registry's, the rest are added at scrape time):
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `gmc.serve.requests.served` | counter | `class` = `hit`/`miss`/`failed` |
//! | `gmc.serve.requests.rejected` | counter | `reason` = `other`/`overload`/`expired` |
//! | `gmc.serve.batches` | counter | — (one per admitted request) |
//! | `gmc.serve.solve.panics` | counter | — (solves answered `internal`) |
//! | `gmc.serve.stage.latency.ns` | histogram | `stage` (see [`STAGES`]) |
//! | `gmc.serve.latency.ns` | histogram | `scope` = `total`/`queue`/`expired` |
//! | `gmc.serve.class.latency.ns` | histogram | `structure`, `class` = `hit`/`miss` |
//! | `gmc.obs.label.overflow` | counter | — (once a family spilled) |
//! | `gmc.serve.requests.completed` | counter | — (the sum of `served`) |
//! | `gmc.serve.structures` | gauge | — |
//! | `gmc.cache.requests` | counter | `outcome` = `hit`/`miss_region`/`miss_structure` |
//! | `gmc.cache.structure.{hits,misses,regions}` | counter/gauge | `structure` = the entry's registered names, joined with `,` |
//! | `gmc.obs.slow_traces.{offered,kept,capacity}` | counter/gauge | — |

use crate::{ClassLatency, LatencySnapshot, ServedCounters, Shared, StageLatency, STAGES};
use gmc_obs::registry::DEFAULT_SERIES_CAP;
use gmc_obs::{Counter, Exposition, Histogram, MetricsRegistry};
use gmc_plan::sync::read_lock;
use gmc_plan::SymbolicPlan;
use serde::Value;
use std::sync::Arc;

/// The served-requests family, whose total is `completed`.
const SERVED: &str = "gmc.serve.requests.served";
/// The per-(structure, hit/miss) latency family.
const CLASS_LATENCY: &str = "gmc.serve.class.latency.ns";

/// The server's instruments (see the module docs): the registry, and
/// the handles recorded through on every request.
pub(crate) struct Telemetry {
    pub(crate) registry: MetricsRegistry,
    /// `served{class}`: the parts of `completed`.
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) failed: Counter,
    /// `rejected{reason}`: refusals answered through a reply
    /// (`other`, `overload`) and deadlines expired before the solve.
    pub(crate) rejected: Counter,
    pub(crate) overloaded: Counter,
    pub(crate) expired: Counter,
    /// `latency.ns{scope}`.
    pub(crate) total_ns: Histogram,
    pub(crate) queue_ns: Histogram,
    pub(crate) expired_ns: Histogram,
    /// `stage.latency.ns{stage}`, in [`STAGES`] order.
    pub(crate) stage_ns: [Histogram; STAGES.len()],
    pub(crate) batches: Counter,
    /// Solves that panicked (each also counts as `failed`).
    pub(crate) panics: Counter,
}

impl Telemetry {
    pub(crate) fn new() -> Telemetry {
        let registry = MetricsRegistry::new();
        let served = |class| {
            registry.counter(
                SERVED,
                "Completed requests by outcome class",
                &[("class", class)],
            )
        };
        let rejected = |reason| {
            registry.counter(
                "gmc.serve.requests.rejected",
                "Requests answered without a solve, by reason",
                &[("reason", reason)],
            )
        };
        let latency = |scope| {
            registry.histogram(
                "gmc.serve.latency.ns",
                "Request latency in nanoseconds by scope",
                &[("scope", scope)],
            )
        };
        Telemetry {
            hits: served("hit"),
            misses: served("miss"),
            failed: served("failed"),
            rejected: rejected("other"),
            overloaded: rejected("overload"),
            expired: rejected("expired"),
            total_ns: latency("total"),
            queue_ns: latency("queue"),
            expired_ns: latency("expired"),
            stage_ns: STAGES.map(|stage| {
                registry.histogram(
                    "gmc.serve.stage.latency.ns",
                    "Per-stage request span duration in nanoseconds",
                    &[("stage", stage)],
                )
            }),
            batches: registry.counter(
                "gmc.serve.batches",
                "Admitted requests (one each, counted at their solve-slot claim)",
                &[],
            ),
            panics: registry.counter(
                "gmc.serve.solve.panics",
                "Solves that panicked and were answered internal",
                &[],
            ),
            registry,
        }
    }

    /// The hit and miss latency histograms of `structure`.
    pub(crate) fn classes(&self, structure: &str) -> [Histogram; 2] {
        ["hit", "miss"].map(|class| {
            self.registry.histogram(
                CLASS_LATENCY,
                "Enqueue-to-complete latency per (structure, hit/miss) class",
                &[("structure", structure), ("class", class)],
            )
        })
    }

    /// Every histogram; read these before [`served`](Self::served).
    pub(crate) fn latency(&self) -> LatencySnapshot {
        let mut classes: Vec<ClassLatency> = self
            .registry
            .histogram_series(CLASS_LATENCY)
            .into_iter()
            .filter(|(_, snapshot)| !snapshot.is_empty())
            .map(|(labels, snapshot)| {
                let [structure, class] = <[String; 2]>::try_from(labels).expect("two labels");
                ClassLatency {
                    structure,
                    class,
                    snapshot,
                }
            })
            .collect();
        classes.sort_by(|a, b| (&a.structure, &a.class).cmp(&(&b.structure, &b.class)));
        LatencySnapshot {
            total: self.total_ns.snapshot(),
            queue: self.queue_ns.snapshot(),
            expired: self.expired_ns.snapshot(),
            classes,
            stages: STAGES
                .iter()
                .zip(&self.stage_ns)
                .map(|(stage, h)| StageLatency {
                    stage,
                    snapshot: h.snapshot(),
                })
                .collect(),
        }
    }

    /// The request counters, with `completed` and `rejected` summed
    /// from their parts.
    pub(crate) fn served(&self) -> ServedCounters {
        let (hits, misses, failed) = (self.hits.get(), self.misses.get(), self.failed.get());
        let (overload, expired) = (self.overloaded.get(), self.expired.get());
        ServedCounters {
            completed: hits + misses + failed,
            hits,
            misses,
            failed,
            rejected: self.rejected.get() + overload + expired,
            rejected_overload: overload,
            expired,
        }
    }
}

/// Renders the full Prometheus text exposition for a running server:
/// the registry, then the derived `completed` and what other
/// components own.
pub(crate) fn render_prometheus(shared: &Shared) -> String {
    let mut expo = Exposition::new();
    shared.telemetry.registry.render_into(&mut expo);
    expo.add_counter(
        "gmc.serve.requests.completed",
        "Requests solved and answered (successfully or not)",
        &[],
        expo.counter_total(SERVED),
    );
    expo.add_gauge(
        "gmc.serve.structures",
        "Registered structures",
        &[],
        read_lock(&shared.structures).len() as f64,
    );

    let cache = shared.cache.stats();
    let cache_help = "Plan-cache instantiates by outcome";
    expo.add_counter(
        "gmc.cache.requests",
        cache_help,
        &[("outcome", "hit")],
        cache.hits,
    );
    expo.add_counter(
        "gmc.cache.requests",
        cache_help,
        &[("outcome", "miss_region")],
        cache.region_misses,
    );
    expo.add_counter(
        "gmc.cache.requests",
        cache_help,
        &[("outcome", "miss_structure")],
        cache.structure_misses,
    );
    for s in structure_cache_stats(shared) {
        let labels: [(&str, &str); 1] = [("structure", &s.name)];
        expo.add_counter(
            "gmc.cache.structure.hits",
            "Cache hits per cache entry, by its registered names",
            &labels,
            s.hits,
        );
        expo.add_counter(
            "gmc.cache.structure.misses",
            "Cache misses per cache entry, by its registered names",
            &labels,
            s.misses,
        );
        expo.add_gauge(
            "gmc.cache.structure.regions",
            "Size regions cached per cache entry, by its registered names",
            &labels,
            s.regions as f64,
        );
    }

    expo.add_counter(
        "gmc.obs.slow_traces.offered",
        "Completed traces offered to the slow-trace ring",
        &[],
        shared.slow.offered(),
    );
    expo.add_counter(
        "gmc.obs.slow_traces.kept",
        "Traces the slow-trace ring admitted",
        &[],
        shared.slow.kept(),
    );
    expo.add_gauge(
        "gmc.obs.slow_traces.capacity",
        "Slow-trace ring capacity",
        &[],
        shared.slow.capacity() as f64,
    );

    expo.render()
}

/// Renders the `CACHE` introspection summary: cache totals and one row
/// per cache entry, as one stable JSON object.
pub(crate) fn render_cache(shared: &Shared) -> String {
    let totals = shared.cache.stats();
    let structures: Vec<Value> = structure_cache_stats(shared)
        .into_iter()
        .map(|s| {
            Value::Object(vec![
                ("name".to_owned(), Value::String(s.name)),
                ("hits".to_owned(), num(s.hits)),
                ("misses".to_owned(), num(s.misses)),
                ("regions".to_owned(), num(s.regions as u64)),
            ])
        })
        .collect();
    let root = Value::Object(vec![
        (
            "totals".to_owned(),
            Value::Object(vec![
                ("requests".to_owned(), num(totals.requests())),
                ("hits".to_owned(), num(totals.hits)),
                ("region_misses".to_owned(), num(totals.region_misses)),
                ("structure_misses".to_owned(), num(totals.structure_misses)),
            ]),
        ),
        ("structures".to_owned(), Value::Array(structures)),
    ]);
    serde_json::to_string(&root).unwrap_or_else(|_| "{}".to_owned())
}

fn num(v: u64) -> Value {
    Value::Number(v as f64)
}

/// Per-entry cache counters, resolved through the server's own
/// structure registrations.
struct StructureCacheStats {
    /// The names registered for the entry, in sort order, joined with
    /// `,`.
    name: String,
    hits: u64,
    misses: u64,
    regions: usize,
}

/// Cache counters per cache entry, one row each, so the rows' hits and
/// misses sum to the cache's totals. Names registered for one structure
/// (renamed-variable twins) share its entry, and its row is named by
/// all of them in sort order, joined with `,`; rows are sorted by name.
/// Like every labeled family, the set is bounded: beyond
/// [`DEFAULT_SERIES_CAP`] rows the remainder is aggregated into one
/// `other` row, so a client registering thousands of structures cannot
/// blow up the scrape.
fn structure_cache_stats(shared: &Shared) -> Vec<StructureCacheStats> {
    let mut names: Vec<(Arc<SymbolicPlan>, String)> = read_lock(&shared.structures)
        .values()
        .map(|s| (Arc::clone(&s.resolved(&shared.cache).plan), s.name.clone()))
        .collect();
    names.sort_by(|(a, x), (b, y)| (Arc::as_ptr(a), x).cmp(&(Arc::as_ptr(b), y)));
    let mut rows: Vec<StructureCacheStats> = names
        .chunk_by(|(a, _), (b, _)| Arc::ptr_eq(a, b))
        .map(|run| {
            let plan = &run[0].0;
            let names: Vec<&str> = run.iter().map(|(_, name)| name.as_str()).collect();
            StructureCacheStats {
                name: names.join(","),
                hits: plan.hits(),
                misses: plan.misses(),
                regions: plan.region_count(),
            }
        })
        .collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    if rows.len() > DEFAULT_SERIES_CAP {
        let rest = rows.split_off(DEFAULT_SERIES_CAP);
        rows.push(StructureCacheStats {
            name: "other".to_owned(),
            hits: rest.iter().map(|r| r.hits).sum(),
            misses: rest.iter().map(|r| r.misses).sum(),
            regions: rest.iter().map(|r| r.regions).sum(),
        });
    }
    rows
}
