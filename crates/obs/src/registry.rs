//! A registry of live metric instruments under stable dotted names.
//!
//! The [`MetricsRegistry`] hands out cheap [`Counter`], [`Gauge`] and
//! [`Histogram`] handles (each a clone of an `Arc`'d atomic or
//! histogram) keyed by `(family name, label values)`. Registering the
//! same name and labels twice returns a handle to the *same*
//! instrument, so layers can re-resolve instead of threading handles
//! around.
//!
//! Label sets are **bounded**: each family caps its distinct label
//! combinations ([`DEFAULT_SERIES_CAP`] by default). Once a family is
//! full, new label combinations all share one reserved overflow series
//! whose every label value is `"other"`, and the registry counts the
//! spill in its own `gmc.obs.label.overflow` counter — a hostile or
//! buggy client can never grow metrics memory without bound.
//!
//! Scrape with [`MetricsRegistry::render_into`], which copies every
//! live instrument into a [`crate::Exposition`]. It reads every
//! histogram before any counter or gauge, behind an acquire fence, so a
//! writer that bumps a counter, issues a release fence and only then
//! records its samples never shows a histogram ahead of that counter.

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use crate::prometheus::Exposition;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default cap on distinct label combinations per family.
pub const DEFAULT_SERIES_CAP: usize = 64;

/// Name of the registry's own overflow counter (spilled label sets).
pub const OVERFLOW_COUNTER: &str = "gmc.obs.label.overflow";

/// A monotone counter handle. Clones share the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle holding a `u64` (point-in-time value, may go down).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle. Clones share the underlying buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<LatencyHistogram>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// A consistent point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

/// One live instrument (the registry's internal storage).
#[derive(Clone, Debug)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// What a family's series are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    /// A new, zeroed instrument of this kind.
    fn make(self) -> Instrument {
        match self {
            Kind::Counter => Instrument::Counter(Counter::default()),
            Kind::Gauge => Instrument::Gauge(Gauge::default()),
            Kind::Histogram => Instrument::Histogram(Histogram::default()),
        }
    }
}

/// A family of series sharing a name, help text, kind and label names.
#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    label_names: Vec<String>,
    series: BTreeMap<Vec<String>, Instrument>,
    /// The shared spill series once `series` is at capacity.
    overflow: Option<Instrument>,
}

impl Family {
    /// Every series with its label values, in value order, and the
    /// shared spill series last, its every label value `other`.
    fn series(&self) -> impl Iterator<Item = (Vec<String>, &Instrument)> {
        let other = vec!["other".to_owned(); self.label_names.len()];
        self.series
            .iter()
            .map(|(values, instrument)| (values.clone(), instrument))
            .chain(self.overflow.as_ref().map(|instrument| (other, instrument)))
    }
}

/// A thread-safe registry of live metric instruments. See the module
/// docs for the bounded-label-set semantics.
#[derive(Debug)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
    spilled: Counter,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            families: RwLock::new(BTreeMap::new()),
            spilled: Counter::default(),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or re-resolves) a counter series.
    ///
    /// # Panics
    /// If `name` already exists with a different kind or label names —
    /// that is a programming error, not an input error.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.instrument(name, help, labels, Kind::Counter) {
            Instrument::Counter(c) => c,
            _ => unreachable!("the family's kind is checked"),
        }
    }

    /// Registers (or re-resolves) a gauge series. Panics on a kind or
    /// label-name mismatch, like [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.instrument(name, help, labels, Kind::Gauge) {
            Instrument::Gauge(g) => g,
            _ => unreachable!("the family's kind is checked"),
        }
    }

    /// Registers (or re-resolves) a histogram series. Panics on a kind
    /// or label-name mismatch, like [`MetricsRegistry::counter`].
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.instrument(name, help, labels, Kind::Histogram) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("the family's kind is checked"),
        }
    }

    /// Total label combinations spilled into `other` series so far.
    pub fn spilled(&self) -> u64 {
        self.spilled.get()
    }

    /// The series of family `name` under `labels`; an instrument is
    /// made only for a new series.
    fn instrument(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
    ) -> Instrument {
        let values: Vec<String> = labels.iter().map(|(_, v)| (*v).to_owned()).collect();
        let mut families = write_lock(&self.families);
        if !families.contains_key(name) {
            let family = Family {
                help: help.to_owned(),
                kind,
                label_names: labels.iter().map(|(k, _)| (*k).to_owned()).collect(),
                series: BTreeMap::new(),
                overflow: None,
            };
            families.insert(name.to_owned(), family);
        }
        let family = families.get_mut(name).expect("the family exists");
        assert_eq!(family.kind, kind, "metric {name} registered with two kinds");
        assert!(
            family
                .label_names
                .iter()
                .map(String::as_str)
                .eq(labels.iter().map(|(k, _)| *k)),
            "metric {name} registered with two label-name sets"
        );
        let full = family.series.len() >= DEFAULT_SERIES_CAP;
        match family.series.entry(values) {
            Entry::Occupied(series) => series.get().clone(),
            Entry::Vacant(_) if full => {
                self.spilled.inc();
                family.overflow.get_or_insert_with(|| kind.make()).clone()
            }
            Entry::Vacant(series) => series.insert(kind.make()).clone(),
        }
    }

    /// Snapshots of the histogram family `name`: each series' label
    /// values (in label-name order) with its snapshot, sorted by those
    /// values, the shared `other` series last. Empty if the registry
    /// has no histogram family of that name.
    pub fn histogram_series(&self, name: &str) -> Vec<(Vec<String>, HistogramSnapshot)> {
        let families = read_lock(&self.families);
        families
            .get(name)
            .into_iter()
            .flat_map(Family::series)
            .filter_map(|(values, instrument)| match instrument {
                Instrument::Histogram(h) => Some((values, h.snapshot())),
                _ => None,
            })
            .collect()
    }

    /// Copies every live instrument (and the registry's own overflow
    /// counter, when nonzero) into `expo`: every histogram first, then,
    /// behind an acquire fence, every counter and gauge (see the module
    /// docs).
    pub fn render_into(&self, expo: &mut Exposition) {
        let families = read_lock(&self.families);
        for histograms in [true, false] {
            if !histograms {
                fence(Ordering::Acquire);
            }
            let pass = families
                .iter()
                .filter(|(_, family)| (family.kind == Kind::Histogram) == histograms);
            for (name, family) in pass {
                for (values, instrument) in family.series() {
                    let labels: Vec<(&str, &str)> = family
                        .label_names
                        .iter()
                        .map(String::as_str)
                        .zip(values.iter().map(String::as_str))
                        .collect();
                    match instrument {
                        Instrument::Counter(c) => {
                            expo.add_counter(name, &family.help, &labels, c.get())
                        }
                        Instrument::Gauge(g) => {
                            expo.add_gauge(name, &family.help, &labels, g.get() as f64)
                        }
                        Instrument::Histogram(h) => {
                            expo.add_histogram(name, &family.help, &labels, h.snapshot())
                        }
                    }
                }
            }
        }
        drop(families);
        if self.spilled.get() > 0 {
            expo.add_counter(
                OVERFLOW_COUNTER,
                "Label combinations spilled into shared `other` series",
                &[],
                self.spilled.get(),
            );
        }
    }
}

/// Read-locks, recovering from poisoning (metric state stays valid
/// even if a panicking thread held the lock).
fn read_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Write-locks, recovering from poisoning.
fn write_lock<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_an_instrument() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("req.total", "requests", &[("class", "hit")]);
        let b = reg.counter("req.total", "requests", &[("class", "hit")]);
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7);
        let other = reg.counter("req.total", "requests", &[("class", "miss")]);
        other.inc();
        assert_eq!(other.get(), 1);
        assert_eq!(a.get(), 7);
    }

    #[test]
    fn label_sets_are_bounded_with_shared_overflow() {
        let reg = MetricsRegistry::new();
        let mut handles = Vec::new();
        for i in 0..(DEFAULT_SERIES_CAP + 10) {
            handles.push(reg.counter("c.total", "c", &[("k", &format!("v{i}"))]));
        }
        for h in &handles {
            h.inc();
        }
        // The 10 spilled registrations share one instrument.
        assert_eq!(handles[DEFAULT_SERIES_CAP].get(), 10);
        assert_eq!(reg.spilled(), 10);
        let mut expo = Exposition::new();
        reg.render_into(&mut expo);
        let text = expo.render();
        assert!(text.contains("c_total{k=\"other\"} 10"), "{text}");
        assert!(text.contains("gmc_obs_label_overflow 10"), "{text}");
    }

    #[test]
    fn histogram_series_lists_the_spill_last() {
        let reg = MetricsRegistry::new();
        for i in (0..DEFAULT_SERIES_CAP + 2).rev() {
            reg.histogram("h.ns", "h", &[("k", &format!("v{i:03}"))])
                .record(i as u64);
        }
        let series = reg.histogram_series("h.ns");
        assert_eq!(series.len(), DEFAULT_SERIES_CAP + 1);
        assert_eq!(series[0].0, ["v002"]);
        assert_eq!(series[DEFAULT_SERIES_CAP].0, ["other"]);
        assert_eq!(series[DEFAULT_SERIES_CAP].1.count(), 2);
        assert!(reg.histogram_series("absent").is_empty());
    }

    #[test]
    #[should_panic(expected = "registered with two kinds")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", "x", &[]);
        let _ = reg.gauge("x", "x", &[]);
    }

    #[test]
    #[should_panic(expected = "two label-name sets")]
    fn label_name_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x", "x", &[("a", "1")]);
        let _ = reg.counter("x", "x", &[("b", "1")]);
    }

    #[test]
    fn render_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count", "a", &[]).add(5);
        reg.gauge("b.level", "b", &[]).set(9);
        reg.histogram("c.ns", "c", &[("stage", "solve")]).record(42);
        let mut expo = Exposition::new();
        reg.render_into(&mut expo);
        let text = expo.render();
        assert!(text.contains("a_count 5"), "{text}");
        assert!(text.contains("b_level 9"), "{text}");
        assert!(text.contains("c_ns_count{stage=\"solve\"} 1"), "{text}");
        assert!(text.contains("c_ns_sum{stage=\"solve\"} 42"), "{text}");
    }
}
