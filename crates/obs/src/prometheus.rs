//! The Prometheus text-format renderer.
//!
//! An [`Exposition`] accumulates metric families — counters, gauges
//! and histograms — and renders them as one Prometheus text exposition:
//!
//! * families sorted by name, each preceded by exactly one `# HELP`
//!   and one `# TYPE` line;
//! * series within a family sorted by their label values, each label
//!   set itself sorted by label name;
//! * label values escaped (`\\`, `\"`, `\n`), help text escaped
//!   (`\\`, `\n`);
//! * dotted registration names (`gmc.serve.batches`) mapped onto the
//!   Prometheus name charset (`gmc_serve_batches`);
//! * histograms rendered as cumulative `_bucket{le="..."}` series over
//!   the snapshot's non-empty buckets plus `le="+Inf"`, with `_sum`
//!   and `_count`.
//!
//! A live [`crate::MetricsRegistry`] copies itself in with
//! [`render_into`](crate::MetricsRegistry::render_into). Beside it, a
//! layer adds only what another component owns (cache shards, a trace
//! ring), read at scrape time rather than written twice on the hot
//! path, and totals it derives from the series already added
//! ([`Exposition::counter_total`]), so a total and its parts come from
//! one reading.

use crate::histogram::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What a family's series hold.
#[derive(Clone, Debug)]
enum SeriesValue {
    /// A monotone counter (rendered as an integer).
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(f64),
    /// A histogram snapshot (expanded at render time).
    Histogram(HistogramSnapshot),
}

impl SeriesValue {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) => "counter",
            SeriesValue::Gauge(_) => "gauge",
            SeriesValue::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: help text plus its series keyed by sorted label
/// pairs.
#[derive(Clone, Debug)]
struct Family {
    help: String,
    series: BTreeMap<Vec<(String, String)>, SeriesValue>,
}

/// A Prometheus text exposition under construction. See the module
/// docs for the output guarantees.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    families: BTreeMap<String, Family>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Adds (or replaces) one counter series. `labels` are
    /// `(name, value)` pairs; an empty slice is the unlabeled series.
    pub fn add_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.add(name, help, labels, SeriesValue::Counter(value));
    }

    /// Adds (or replaces) one gauge series. Non-finite values are
    /// clamped to 0 so the exposition always parses.
    pub fn add_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.add(name, help, labels, SeriesValue::Gauge(value));
    }

    /// Adds (or replaces) one histogram series from a snapshot.
    pub fn add_histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: HistogramSnapshot,
    ) {
        self.add(name, help, labels, SeriesValue::Histogram(snapshot));
    }

    /// The sum of the counter family `name`'s series (0 if it has
    /// none), as added so far.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families
            .get(&sanitize_name(name))
            .into_iter()
            .flat_map(|family| family.series.values())
            .map(|value| match value {
                SeriesValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    fn add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: SeriesValue) {
        let name = sanitize_name(name);
        let mut key: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (sanitize_label_name(k), (*v).to_owned()))
            .collect();
        key.sort();
        let family = self.families.entry(name).or_insert_with(|| Family {
            help: help.to_owned(),
            series: BTreeMap::new(),
        });
        debug_assert_eq!(
            family
                .series
                .values()
                .next()
                .map_or_else(|| value.type_name(), SeriesValue::type_name),
            value.type_name(),
            "one family, one metric type"
        );
        family.series.insert(key, value);
    }

    /// Renders the Prometheus text exposition (trailing newline
    /// included).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, family) in &self.families {
            let kind = family
                .series
                .values()
                .next()
                .map_or("gauge", SeriesValue::type_name);
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, value) in &family.series {
                match value {
                    SeriesValue::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", render_labels(labels, None));
                    }
                    SeriesValue::Gauge(v) => {
                        let _ = writeln!(
                            out,
                            "{name}{} {}",
                            render_labels(labels, None),
                            format_f64(*v)
                        );
                    }
                    SeriesValue::Histogram(snapshot) => {
                        let mut cumulative = 0u64;
                        for (upper, count) in snapshot.buckets() {
                            cumulative += count;
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(labels, Some(&upper.to_string()))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {}",
                            render_labels(labels, Some("+Inf")),
                            snapshot.count()
                        );
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels, None),
                            snapshot.sum()
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels, None),
                            snapshot.count()
                        );
                    }
                }
            }
        }
        out
    }
}

/// Maps a dotted registration name onto the Prometheus metric-name
/// charset `[a-zA-Z_:][a-zA-Z0-9_:]*`: every other character becomes
/// `_`, and a leading digit (or empty name) gains a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Label names allow the same charset minus `:`.
fn sanitize_label_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value: backslash, double quote, newline.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes help text: backslash and newline (quotes stay literal).
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{a="x",le="15"}` (or nothing for an unlabeled series
/// without `le`).
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Renders a gauge value: integers without a fraction, everything else
/// via the shortest round-trip float (`{}` on `f64`).
fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        (v as i64).to_string()
    } else {
        v.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::LatencyHistogram;

    #[test]
    fn renders_sorted_families_with_headers() {
        let mut expo = Exposition::new();
        expo.add_counter("zz.last", "the last family", &[], 7);
        expo.add_counter("aa.first", "the first family", &[("x", "2")], 1);
        expo.add_counter("aa.first", "the first family", &[("x", "1")], 3);
        let text = expo.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# HELP aa_first the first family");
        assert_eq!(lines[1], "# TYPE aa_first counter");
        assert_eq!(lines[2], "aa_first{x=\"1\"} 3");
        assert_eq!(lines[3], "aa_first{x=\"2\"} 1");
        assert_eq!(lines[4], "# HELP zz_last the last family");
        assert_eq!(lines[6], "zz_last 7");
    }

    #[test]
    fn counter_total_sums_a_family_as_added() {
        let mut expo = Exposition::new();
        expo.add_counter("req.served", "served", &[("class", "hit")], 5);
        expo.add_counter("req.served", "served", &[("class", "miss")], 2);
        expo.add_counter("req.other", "other", &[], 40);
        assert_eq!(expo.counter_total("req.served"), 7);
        assert_eq!(expo.counter_total("req.absent"), 0);
    }

    #[test]
    fn escapes_label_values_and_help() {
        let mut expo = Exposition::new();
        expo.add_gauge("g", "line\nbreak \\ slash", &[("v", "a\"b\\c\nd")], 1.5);
        let text = expo.render();
        assert!(text.contains("# HELP g line\\nbreak \\\\ slash"), "{text}");
        assert!(text.contains("g{v=\"a\\\"b\\\\c\\nd\"} 1.5"), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_capped_by_inf() {
        let h = LatencyHistogram::new();
        for v in [3u64, 3, 100, 5000] {
            h.record(v);
        }
        let mut expo = Exposition::new();
        expo.add_histogram("lat.ns", "latency", &[("stage", "solve")], h.snapshot());
        let text = expo.render();
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(
            text.contains("lat_ns_bucket{stage=\"solve\",le=\"3\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lat_ns_bucket{stage=\"solve\",le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("lat_ns_count{stage=\"solve\"} 4"), "{text}");
        assert!(text.contains("lat_ns_sum{stage=\"solve\"} 5106"), "{text}");
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "{line}");
            last = count;
        }
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(
            sanitize_name("gmc.serve.stage.latency.ns"),
            "gmc_serve_stage_latency_ns"
        );
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }
}
