//! The metric registry: named families of counters, gauges and histograms
//! with small label sets, and their Prometheus/JSON exposition.
//!
//! Registration takes a lock and may allocate; it happens at startup, at
//! session open, or at most once per label value. *Recording* happens
//! through the returned handles ([`Counter`], [`Gauge`],
//! [`crate::Histogram`]) and touches only relaxed atomics — the hot path
//! never sees the registry lock. Registration is idempotent: asking for an
//! existing `(name, labels)` pair returns a handle to the same cells, so
//! independent subsystems can share a metric without coordinating.

use crate::histogram::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A free-standing counter (no registry); useful in tests.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (or ratchet up via
/// [`Gauge::set_max`], the high-water-mark idiom). Clones share the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// A free-standing gauge (no registry); useful in tests.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is higher (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A metric family's kind, as its `# TYPE` line names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing ([`Counter`]).
    Counter,
    /// Moves both ways ([`Gauge`]).
    Gauge,
    /// A distribution ([`crate::Histogram`]).
    Histogram,
}

impl Kind {
    /// `counter`, `gauge` or `histogram`.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Child {
    labels: Vec<(String, String)>,
    cell: Cell,
}

impl Child {
    fn has_labels(&self, labels: &[(&str, &str)]) -> bool {
        self.labels.len() == labels.len()
            && self
                .labels
                .iter()
                .zip(labels)
                .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
    }
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    children: Vec<Child>,
}

impl Family {
    /// The child with `labels`: found, or built by `make` and added.
    fn child(&mut self, labels: &[(&str, &str)], make: impl FnOnce() -> Cell) -> Cell {
        if let Some(child) = self.children.iter().find(|c| c.has_labels(labels)) {
            return child.cell.clone();
        }
        let cell = make();
        let own = |&(k, v): &(&str, &str)| (k.to_string(), v.to_string());
        self.children.push(Child {
            labels: labels.iter().map(own).collect(),
            cell: cell.clone(),
        });
        cell
    }
}

/// The registry: a shared, clonable handle. All clones see the same
/// families, so a registry threaded through a daemon is one scrape surface.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Family>>>,
}

/// `true` for names matching `[a-zA-Z_:][a-zA-Z0-9_:]*` (metric names) or
/// `[a-zA-Z_][a-zA-Z0-9_]*` when `label` (label keys).
fn valid_name(name: &str, label: bool) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head_ok = first.is_ascii_alphabetic() || first == '_' || (!label && first == ':');
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (!label && c == ':'))
}

/// The index of family `name`, added if new.
fn family(inner: &mut Vec<Family>, name: &str, help: &str, kind: Kind) -> usize {
    assert!(valid_name(name, false), "invalid metric name `{name}`");
    match inner.iter().position(|f| f.name == name) {
        Some(i) => {
            assert!(
                inner[i].kind == kind,
                "metric `{name}` already registered as a {}",
                inner[i].kind.as_str()
            );
            i
        }
        None => {
            inner.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                children: Vec::new(),
            });
            inner.len() - 1
        }
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or finds) a counter; `labels` may be empty.
    ///
    /// # Panics
    ///
    /// On an invalid metric/label name, or if `name` is already registered
    /// as a different metric kind — both are programmer errors caught at
    /// registration, never on the record path.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, Kind::Counter, labels, || {
            Cell::Counter(Counter::new())
        }) {
            Cell::Counter(c) => c,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Registers (or finds) a gauge (panics as [`Registry::counter_with`]).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(
            name,
            help,
            Kind::Gauge,
            labels,
            || Cell::Gauge(Gauge::new()),
        ) {
            Cell::Gauge(g) => g,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Registers (or finds) a histogram on the [`Histogram::latency_ns`]
    /// log-linear scale, the one every registered histogram shares (panics
    /// as [`Registry::counter_with`]).
    pub fn latency_histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Histogram {
        match self.register(name, help, Kind::Histogram, labels, || {
            Cell::Histogram(Histogram::latency_ns())
        }) {
            Cell::Histogram(h) => h,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Declares a family with no series yet, fixing its place in the
    /// exposition: a family renders where it was first registered or
    /// declared, and its series arrive with later registrations (panics as
    /// [`Registry::counter_with`]).
    pub fn declare(&self, name: &str, help: &str, kind: Kind) {
        family(&mut self.inner.lock(), name, help, kind);
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Cell,
    ) -> Cell {
        for (k, _) in labels {
            assert!(valid_name(k, true), "invalid label name `{k}` on `{name}`");
        }
        let mut inner = self.inner.lock();
        let family = family(&mut inner, name, help, kind);
        inner[family].child(labels, make)
    }

    /// Renders every registered metric in the Prometheus text exposition
    /// format (`text/plain; version=0.0.4`): `# HELP`/`# TYPE` headers,
    /// escaped label values, and cumulative histogram buckets whose `+Inf`
    /// entry always equals the family's `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let inner = self.inner.lock();
        for family in inner.iter() {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            }
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for child in &family.children {
                match &child.cell {
                    Cell::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&child.labels, None),
                            c.get()
                        );
                    }
                    Cell::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&child.labels, None),
                            g.get()
                        );
                    }
                    Cell::Histogram(h) => {
                        render_histogram(&mut out, &family.name, &child.labels, &h.snapshot());
                    }
                }
            }
        }
        out
    }

    /// Renders every registered metric as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, keyed
    /// by `name{label="value",...}` with the histogram values in the same
    /// schema as [`HistogramSnapshot::to_json`].
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        let inner = self.inner.lock();
        for family in inner.iter() {
            for child in &family.children {
                let key = format!("{}{}", family.name, label_block(&child.labels, None));
                match &child.cell {
                    Cell::Counter(c) => {
                        counters.push(format!("\"{}\": {}", json_escape(&key), c.get()));
                    }
                    Cell::Gauge(g) => {
                        gauges.push(format!("\"{}\": {}", json_escape(&key), g.get()));
                    }
                    Cell::Histogram(h) => histograms.push(format!(
                        "\"{}\": {}",
                        json_escape(&key),
                        h.snapshot().to_json()
                    )),
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}},\n  \"histograms\": {{{}}}\n}}\n",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }
}

/// Escapes a label value per the Prometheus text format: backslash, double
/// quote and newline.
fn escape_label(value: &str) -> String {
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

/// Escapes a HELP line: backslash and newline only (no quoting context).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Minimal JSON string escaping for exposition keys.
fn json_escape(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `{k="v",...}` with an optional extra `le` pair; empty labels render as
/// nothing (unlabeled metric) unless `le` forces a block.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistogramSnapshot,
) {
    let mut cum = 0u64;
    for (i, &c) in snap.counts.iter().enumerate() {
        cum += c;
        // Empty buckets are skipped to keep scrapes small — except +Inf,
        // which the format requires; cumulative values stay correct
        // because `cum` accumulates over every bucket.
        if i < snap.bounds.len() {
            if c == 0 {
                continue;
            }
            let le = snap.bounds[i].to_string();
            let _ = writeln!(out, "{name}_bucket{} {cum}", label_block(labels, Some(&le)));
        } else {
            let _ = writeln!(
                out,
                "{name}_bucket{} {cum}",
                label_block(labels, Some("+Inf"))
            );
        }
    }
    let _ = writeln!(out, "{name}_sum{} {}", label_block(labels, None), snap.sum);
    let _ = writeln!(
        out,
        "{name}_count{} {}",
        label_block(labels, None),
        snap.count
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_per_name_and_labels() {
        let r = Registry::new();
        let a = r.counter_with("avoc_test_total", "help", &[("shard", "0")]);
        let b = r.counter_with("avoc_test_total", "help", &[("shard", "0")]);
        let c = r.counter_with("avoc_test_total", "help", &[("shard", "1")]);
        a.inc();
        b.inc();
        c.inc();
        assert_eq!(a.get(), 2, "same labels share the cell");
        assert_eq!(c.get(), 1, "different labels get their own cell");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_is_a_registration_error() {
        let r = Registry::new();
        let _ = r.counter_with("avoc_mixed", "", &[]);
        let _ = r.gauge_with("avoc_mixed", "", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected_at_registration() {
        let _ = Registry::new().counter_with("bad name", "", &[]);
    }

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let g = Registry::new().gauge_with("avoc_hw", "", &[]);
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn prometheus_text_has_headers_values_and_escaping() {
        let r = Registry::new();
        r.counter_with("avoc_frames_total", "Frames by tag.", &[("tag", "reading")])
            .add(3);
        r.gauge_with("avoc_depth", "Queue depth.", &[]).set(-2);
        let nasty = "a\"b\\c\nd";
        r.counter_with("avoc_esc_total", "", &[("v", nasty)]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("# HELP avoc_frames_total Frames by tag."));
        assert!(text.contains("# TYPE avoc_frames_total counter"));
        assert!(text.contains("avoc_frames_total{tag=\"reading\"} 3"));
        assert!(text.contains("avoc_depth -2"));
        assert!(text.contains("avoc_esc_total{v=\"a\\\"b\\\\c\\nd\"} 1"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_with_inf_equal_count() {
        let r = Registry::new();
        let h = r.latency_histogram_with("avoc_h", "", &[]);
        for v in [1, 5, 50, 500, 5000] {
            h.record(v);
        }
        let text = r.render_prometheus();
        assert!(text.contains("avoc_h_bucket{le=\"5\"} 2"));
        assert!(text.contains("avoc_h_bucket{le=\"50\"} 3"));
        assert!(text.contains("avoc_h_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("avoc_h_count 5"));
        assert!(text.contains("avoc_h_sum 5556"));
    }

    #[test]
    fn json_exposition_covers_all_kinds() {
        let r = Registry::new();
        r.counter_with("avoc_c", "", &[]).add(7);
        r.gauge_with("avoc_g", "", &[("shard", "0")]).set(4);
        r.latency_histogram_with("avoc_hh", "", &[]).record(3);
        let json = r.render_json();
        assert!(json.contains("\"avoc_c\": 7"));
        assert!(json.contains("\"avoc_g{shard=\\\"0\\\"}\": 4"));
        assert!(json.contains("\"avoc_hh\": {\"count\": 1"));
    }
}
