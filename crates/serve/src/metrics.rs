//! Scrape-time rendering of the serve layer's observability surfaces.
//!
//! The hot path writes each fact exactly once — served counters into
//! [`CounterCell`](crate::ServedCounters), latency samples into the
//! [`LatencyBook`](crate::LatencySnapshot) histograms, stage spans into
//! the registry's live histograms, cache outcomes into the plan
//! cache's per-shard and per-structure atomics. This module assembles
//! the full Prometheus exposition (and the `CACHE` JSON summary) from
//! those authoritative sources *at scrape time*, so serving never pays
//! for a counter it already keeps.
//!
//! Rendered families (all names are stable API):
//!
//! | family | kind | labels |
//! |---|---|---|
//! | `gmc.serve.requests.completed` | counter | — |
//! | `gmc.serve.requests.served` | counter | `class` = `hit`/`miss`/`failed` |
//! | `gmc.serve.requests.rejected` | counter | `reason` = `overload`/`expired`/`other` |
//! | `gmc.serve.coalesced`, `gmc.serve.batches` | counter | — |
//! | `gmc.serve.structures`, `gmc.serve.workers.alive` | gauge | — |
//! | `gmc.serve.worker.panics`, `gmc.serve.worker.respawns` | counter | — |
//! | `gmc.serve.stage.latency.ns` | histogram | `stage` (see [`STAGES`](crate::STAGES)) |
//! | `gmc.serve.latency.ns` | histogram | `scope` = `total`/`queue`/`expired` |
//! | `gmc.serve.class.latency.ns` | histogram | `structure`, `class` = `hit`/`miss` |
//! | `gmc.serve.class.overflow` | counter | — |
//! | `gmc.cache.requests` | counter | `outcome` = `hit`/`miss_region`/`miss_structure` |
//! | `gmc.cache.shard.*` | counter/gauge | `shard` |
//! | `gmc.cache.structure.{hits,misses,regions}` | counter/gauge | `structure` |
//! | `gmc.obs.slow_traces.{offered,kept,capacity}` | counter/gauge | — |

use crate::Shared;
use gmc_obs::registry::DEFAULT_SERIES_CAP;
use gmc_obs::Exposition;
use gmc_plan::sync::read_lock;
use serde::Value;

/// Renders the full Prometheus text exposition for a running server.
pub(crate) fn render_prometheus(shared: &Shared) -> String {
    let mut expo = Exposition::new();
    // Live instruments first: the per-stage span histograms (the only
    // metrics the hot path records directly into the registry).
    shared.obs.registry.render_into(&mut expo);

    let stats = shared.stats();

    let served = stats.served;
    expo.add_counter(
        "gmc.serve.requests.completed",
        "Requests a worker answered (successfully or not)",
        &[],
        served.completed,
    );
    let served_help = "Completed requests by outcome class";
    expo.add_counter(
        "gmc.serve.requests.served",
        served_help,
        &[("class", "hit")],
        served.hits,
    );
    expo.add_counter(
        "gmc.serve.requests.served",
        served_help,
        &[("class", "miss")],
        served.misses,
    );
    expo.add_counter(
        "gmc.serve.requests.served",
        served_help,
        &[("class", "failed")],
        served.failed,
    );
    let rejected_help = "Requests answered before reaching a worker, by reason";
    expo.add_counter(
        "gmc.serve.requests.rejected",
        rejected_help,
        &[("reason", "overload")],
        served.rejected_overload,
    );
    expo.add_counter(
        "gmc.serve.requests.rejected",
        rejected_help,
        &[("reason", "expired")],
        served.expired,
    );
    expo.add_counter(
        "gmc.serve.requests.rejected",
        rejected_help,
        &[("reason", "other")],
        served
            .rejected
            .saturating_sub(served.rejected_overload)
            .saturating_sub(served.expired),
    );
    expo.add_counter(
        "gmc.serve.coalesced",
        "Requests answered from another request's instantiate in one submission",
        &[],
        stats.coalesced,
    );
    expo.add_counter(
        "gmc.serve.batches",
        "Jobs queued to workers (one per distinct binding of a submission)",
        &[],
        stats.batches,
    );
    expo.add_gauge(
        "gmc.serve.structures",
        "Registered structures",
        &[],
        stats.structures as f64,
    );
    expo.add_gauge(
        "gmc.serve.workers.alive",
        "Worker threads currently alive",
        &[],
        stats.supervision.workers_alive as f64,
    );
    expo.add_counter(
        "gmc.serve.worker.panics",
        "Worker threads that died by panic",
        &[],
        stats.supervision.worker_panics,
    );
    expo.add_counter(
        "gmc.serve.worker.respawns",
        "Workers the supervisor respawned",
        &[],
        stats.supervision.respawns,
    );

    let latency_help = "Request latency in nanoseconds by scope";
    expo.add_histogram(
        "gmc.serve.latency.ns",
        latency_help,
        &[("scope", "total")],
        stats.latency.total,
    );
    expo.add_histogram(
        "gmc.serve.latency.ns",
        latency_help,
        &[("scope", "queue")],
        stats.latency.queue,
    );
    expo.add_histogram(
        "gmc.serve.latency.ns",
        latency_help,
        &[("scope", "expired")],
        stats.latency.expired,
    );
    for class in stats.latency.classes {
        expo.add_histogram(
            "gmc.serve.class.latency.ns",
            "Enqueue-to-complete latency per (structure, hit/miss) class",
            &[
                ("structure", &class.structure),
                ("class", if class.hit { "hit" } else { "miss" }),
            ],
            class.snapshot,
        );
    }
    expo.add_counter(
        "gmc.serve.class.overflow",
        "Latency-class lookups funneled into the shared `other` class",
        &[],
        shared.latency.overflowed(),
    );

    let cache_help = "Plan-cache instantiates by outcome";
    expo.add_counter(
        "gmc.cache.requests",
        cache_help,
        &[("outcome", "hit")],
        stats.cache.hits,
    );
    expo.add_counter(
        "gmc.cache.requests",
        cache_help,
        &[("outcome", "miss_region")],
        stats.cache.region_misses,
    );
    expo.add_counter(
        "gmc.cache.requests",
        cache_help,
        &[("outcome", "miss_structure")],
        stats.cache.structure_misses,
    );
    for s in shared.cache.shard_stats() {
        let shard = s.shard.to_string();
        let labels: [(&str, &str); 1] = [("shard", &shard)];
        expo.add_gauge(
            "gmc.cache.shard.structures",
            "Distinct structures cached per shard",
            &labels,
            s.structures as f64,
        );
        expo.add_gauge(
            "gmc.cache.shard.regions",
            "Size regions recorded per shard",
            &labels,
            s.regions as f64,
        );
        expo.add_counter(
            "gmc.cache.shard.hits",
            "Cache hits per shard",
            &labels,
            s.hits,
        );
        expo.add_counter(
            "gmc.cache.shard.region_misses",
            "New-region recordings per shard",
            &labels,
            s.region_misses,
        );
        expo.add_counter(
            "gmc.cache.shard.structure_misses",
            "New-structure recordings per shard",
            &labels,
            s.structure_misses,
        );
        expo.add_counter(
            "gmc.cache.shard.coalesced_waiters",
            "Misses served as hits after losing the recording race",
            &labels,
            s.coalesced_waiters,
        );
        expo.add_counter(
            "gmc.cache.shard.snapshot_swaps",
            "Copy-on-write snapshot publications per shard",
            &labels,
            s.snapshot_swaps,
        );
    }
    for s in structure_cache_stats(shared) {
        let labels: [(&str, &str); 1] = [("structure", &s.name)];
        expo.add_counter(
            "gmc.cache.structure.hits",
            "Cache hits per registered structure",
            &labels,
            s.hits,
        );
        expo.add_counter(
            "gmc.cache.structure.misses",
            "Cache misses per registered structure",
            &labels,
            s.misses,
        );
        expo.add_gauge(
            "gmc.cache.structure.regions",
            "Size regions cached per registered structure",
            &labels,
            s.regions as f64,
        );
    }

    expo.add_counter(
        "gmc.obs.slow_traces.offered",
        "Completed traces offered to the slow-trace ring",
        &[],
        shared.obs.ring.offered(),
    );
    expo.add_counter(
        "gmc.obs.slow_traces.kept",
        "Traces the slow-trace ring admitted",
        &[],
        shared.obs.ring.kept(),
    );
    expo.add_gauge(
        "gmc.obs.slow_traces.capacity",
        "Slow-trace ring capacity",
        &[],
        shared.obs.ring.capacity() as f64,
    );

    expo.render()
}

/// Renders the `CACHE` introspection summary: cache totals, per-shard
/// stats and per-structure stats, as one stable JSON object.
pub(crate) fn render_cache(shared: &Shared) -> String {
    let totals = shared.cache.stats();
    let shards: Vec<Value> = shared
        .cache
        .shard_stats()
        .into_iter()
        .map(|s| {
            Value::Object(vec![
                ("shard".to_owned(), num(s.shard as u64)),
                ("structures".to_owned(), num(s.structures as u64)),
                ("regions".to_owned(), num(s.regions as u64)),
                ("hits".to_owned(), num(s.hits)),
                ("region_misses".to_owned(), num(s.region_misses)),
                ("structure_misses".to_owned(), num(s.structure_misses)),
                ("coalesced_waiters".to_owned(), num(s.coalesced_waiters)),
                ("snapshot_swaps".to_owned(), num(s.snapshot_swaps)),
            ])
        })
        .collect();
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
        ("shards".to_owned(), Value::Array(shards)),
        ("structures".to_owned(), Value::Array(structures)),
    ]);
    serde_json::to_string(&root).unwrap_or_else(|_| "{}".to_owned())
}

fn num(v: u64) -> Value {
    Value::Number(v as f64)
}

/// Per-structure cache counters, resolved through the server's own
/// structure registrations.
struct StructureCacheStats {
    name: String,
    hits: u64,
    misses: u64,
    regions: usize,
}

/// Cache counters per registered structure, sorted by name. Like every
/// labeled family, the set is bounded: beyond
/// [`DEFAULT_SERIES_CAP`] structures the remainder is aggregated into
/// one `other` entry, so a client registering thousands of structures
/// cannot blow up the scrape.
fn structure_cache_stats(shared: &Shared) -> Vec<StructureCacheStats> {
    let mut names: Vec<(String, std::sync::Arc<gmc_expr::SymChain>)> =
        read_lock(&shared.structures)
            .iter()
            .map(|(name, chain)| (name.clone(), std::sync::Arc::clone(chain)))
            .collect();
    names.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::with_capacity(names.len().min(DEFAULT_SERIES_CAP + 1));
    let mut other: Option<StructureCacheStats> = None;
    for (name, chain) in names {
        let (hits, misses, regions) = match shared.cache.plan_for(&chain) {
            Some(plan) => (plan.hits(), plan.misses(), plan.region_count()),
            None => (0, 0, 0),
        };
        if out.len() < DEFAULT_SERIES_CAP {
            out.push(StructureCacheStats {
                name,
                hits,
                misses,
                regions,
            });
        } else {
            let agg = other.get_or_insert_with(|| StructureCacheStats {
                name: "other".to_owned(),
                hits: 0,
                misses: 0,
                regions: 0,
            });
            agg.hits += hits;
            agg.misses += misses;
            agg.regions += regions;
        }
    }
    out.extend(other);
    out
}
