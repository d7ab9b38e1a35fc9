//! The metrics registry: named counters, gauges, and histograms with
//! Prometheus text exposition.
//!
//! A [`Registry`] owns metric **families** (one name, one type, one
//! help string) containing **samples** (one per label set). Handles
//! ([`Counter`], [`Gauge`], [`HistogramHandle`]) are cheap clones of
//! the underlying cells, so instrumented code updates an atomic and
//! never touches the registry lock; registering the same name + labels
//! twice returns a handle to the same cell. [`Registry::render`] emits
//! the whole registry in Prometheus text exposition format, which the
//! in-repo validator ([`crate::expo`]) parses back in tests.
//!
//! All orderings are `Relaxed`: every cell is an independent telemetry
//! tally — no reader derives a happens-before edge from a metric.
//!
//! Histograms reuse [`fdip_telemetry::Histogram`] (log2 buckets), so a
//! scrape's `_bucket` series is the same distribution Document 1
//! embeds — one histogram implementation across the whole repo.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fdip_telemetry::Histogram;

/// What a metric family is, in exposition terms.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// A value that can go up and down.
    Gauge,
    /// A [`Histogram`] rendered as cumulative `_bucket` series.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotonic counter cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1; returns the new total.
    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    /// Adds `n`; returns the new total.
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Raises the counter to `total` if it is below it — for mirroring
    /// an externally maintained monotonic total (e.g. pool stats) into
    /// the registry without double counting.
    pub fn set_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge cell (an `f64` stored as bits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the update closure always returns Some, so the Err branch is unreachable"
        )]
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram cell.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.0.lock().expect("histogram lock").record(value);
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().expect("histogram lock").clone()
    }

    /// Replaces the distribution — for mirroring an externally
    /// maintained histogram (e.g. the pool's queue depth) at scrape
    /// time.
    pub fn replace(&self, h: Histogram) {
        *self.0.lock().expect("histogram lock") = h;
    }
}

/// One sample's current value, for programmatic reads
/// ([`Registry::samples`]).
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// A counter total.
    Counter(u64),
    /// A gauge value.
    Gauge(f64),
    /// A histogram snapshot.
    Histogram(Histogram),
}

#[derive(Clone)]
enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

struct Family {
    kind: MetricKind,
    help: String,
    /// Keyed by the canonical (sorted) label rendering, so iteration —
    /// and therefore the exposition — is deterministic.
    samples: BTreeMap<String, (Vec<(String, String)>, Cell)>,
}

/// A set of metric families; each daemon owns one.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Is `name` a valid exposition metric/label name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`; labels additionally reject `:`)?
fn valid_name(name: &str, allow_colon: bool) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    let head_ok = first.is_ascii_alphabetic() || first == '_' || (allow_colon && first == ':');
    head_ok && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':'))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], kind: MetricKind) -> Cell {
        assert!(valid_name(name, true), "invalid metric name {name:?}");
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_name(k, false), "invalid label name {k:?}");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        let key = render_labels(&labels);
        let mut families = self.families.lock().expect("registry lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help: help.to_string(),
            samples: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} registered as {} and {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .samples
            .entry(key)
            .or_insert_with(|| {
                let cell = match kind {
                    MetricKind::Counter => Cell::Counter(Counter::default()),
                    MetricKind::Gauge => Cell::Gauge(Gauge::default()),
                    MetricKind::Histogram => Cell::Histogram(HistogramHandle::default()),
                };
                (labels, cell)
            })
            .1
            .clone()
    }

    /// Registers (or finds) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a labeled counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` is already registered
    /// with a different kind — both are programming errors.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricKind::Counter) {
            Cell::Counter(c) => c,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or finds) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers (or finds) a labeled gauge (panics as
    /// [`Registry::counter_with`] does).
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricKind::Gauge) {
            Cell::Gauge(g) => g,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Registers (or finds) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> HistogramHandle {
        self.histogram_with(name, help, &[])
    }

    /// Registers (or finds) a labeled histogram (panics as
    /// [`Registry::counter_with`] does).
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> HistogramHandle {
        match self.register(name, help, labels, MetricKind::Histogram) {
            Cell::Histogram(h) => h,
            _ => unreachable!("kind checked in register"),
        }
    }

    /// Current samples of one family: `(labels, value)` pairs in
    /// deterministic label order. Empty if the name is unknown.
    pub fn samples(&self, name: &str) -> Vec<(Vec<(String, String)>, SampleValue)> {
        let families = self.families.lock().expect("registry lock");
        let Some(family) = families.get(name) else {
            return Vec::new();
        };
        family
            .samples
            .values()
            .map(|(labels, cell)| {
                let value = match cell {
                    Cell::Counter(c) => SampleValue::Counter(c.get()),
                    Cell::Gauge(g) => SampleValue::Gauge(g.get()),
                    Cell::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                };
                (labels.clone(), value)
            })
            .collect()
    }

    /// Renders every family in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` then samples; histograms as cumulative
    /// `_bucket{le=…}` series plus `_sum` / `_count`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().expect("registry lock");
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&family.help)));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.as_str()));
            for (labels, cell) in family.samples.values() {
                match cell {
                    Cell::Counter(c) => {
                        out.push_str(&sample_line(name, labels, &c.get().to_string()));
                    }
                    Cell::Gauge(g) => {
                        out.push_str(&sample_line(name, labels, &format_f64(g.get())));
                    }
                    Cell::Histogram(h) => render_histogram(&mut out, name, labels, &h.snapshot()),
                }
            }
        }
        out
    }
}

/// `{k="v",…}` (sorted), or the empty string for no labels.
fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Shortest-round-trip float, with Prometheus spellings for the
/// non-finite values.
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

fn sample_line(name: &str, labels: &[(String, String)], value: &str) -> String {
    format!("{name}{} {value}\n", render_labels(labels))
}

/// Cumulative buckets from the log2 histogram: each non-empty bucket
/// contributes `le = <bucket hi>`, then the mandatory `+Inf` bucket,
/// `_sum`, and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &[(String, String)], h: &Histogram) {
    let with_le = |le: &str| -> Vec<(String, String)> {
        let mut l = labels.to_vec();
        l.push(("le".to_string(), le.to_string()));
        l.sort();
        l
    };
    let mut cumulative = 0u64;
    for bucket in h.buckets() {
        cumulative += bucket.count;
        out.push_str(&sample_line(
            &format!("{name}_bucket"),
            &with_le(&bucket.hi.to_string()),
            &cumulative.to_string(),
        ));
    }
    out.push_str(&sample_line(
        &format!("{name}_bucket"),
        &with_le("+Inf"),
        &h.count().to_string(),
    ));
    out.push_str(&sample_line(
        &format!("{name}_sum"),
        labels,
        &h.sum().to_string(),
    ));
    out.push_str(&sample_line(
        &format!("{name}_count"),
        labels,
        &h.count().to_string(),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_a_cell() {
        let r = Registry::new();
        let a = r.counter("fdip_test_total", "help");
        let b = r.counter("fdip_test_total", "help");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let c = r.counter_with("fdip_test_labeled", "h", &[("k", "v")]);
        let d = r.counter_with("fdip_test_labeled", "h", &[("k", "v")]);
        c.inc();
        assert_eq!(d.get(), 1);
        let other = r.counter_with("fdip_test_labeled", "h", &[("k", "w")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_are_programming_errors() {
        let r = Registry::new();
        let _ = r.counter("fdip_test_conflict", "h");
        let _ = r.gauge("fdip_test_conflict", "h");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let _ = Registry::new().counter("0bad-name", "h");
    }

    #[test]
    fn gauge_set_add_and_counter_set_total() {
        let r = Registry::new();
        let g = r.gauge("fdip_test_gauge", "h");
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        let c = r.counter("fdip_test_mirror_total", "h");
        c.set_total(10);
        c.set_total(7); // never goes backwards
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn render_emits_help_type_and_samples_in_sorted_order() {
        let r = Registry::new();
        r.counter("fdip_b_total", "second").inc();
        r.gauge("fdip_a_gauge", "first").set(0.5);
        r.counter_with("fdip_c_total", "labeled", &[("status", "200")])
            .add(4);
        let text = r.render();
        let a = text.find("fdip_a_gauge").unwrap();
        let b = text.find("fdip_b_total").unwrap();
        assert!(a < b, "families must render sorted:\n{text}");
        assert!(text.contains("# HELP fdip_a_gauge first\n"));
        assert!(text.contains("# TYPE fdip_a_gauge gauge\n"));
        assert!(text.contains("fdip_a_gauge 0.5\n"));
        assert!(text.contains("fdip_b_total 1\n"));
        assert!(text.contains("fdip_c_total{status=\"200\"} 4\n"));
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let r = Registry::new();
        let h = r.histogram("fdip_test_us", "h");
        for v in [0u64, 1, 1, 3, 10] {
            h.observe(v);
        }
        let text = r.render();
        // Buckets: {0}:1, [1,1]:2, [2,3]:1, [8,15]:1 → cumulative.
        assert!(text.contains("fdip_test_us_bucket{le=\"0\"} 1\n"), "{text}");
        assert!(text.contains("fdip_test_us_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("fdip_test_us_bucket{le=\"3\"} 4\n"));
        assert!(text.contains("fdip_test_us_bucket{le=\"15\"} 5\n"));
        assert!(text.contains("fdip_test_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("fdip_test_us_sum 15\n"));
        assert!(text.contains("fdip_test_us_count 5\n"));
    }

    #[test]
    fn samples_expose_values_programmatically() {
        let r = Registry::new();
        r.counter_with("fdip_test_clients", "h", &[("client", "alice")])
            .add(3);
        r.counter_with("fdip_test_clients", "h", &[("client", "bob")])
            .inc();
        let samples = r.samples("fdip_test_clients");
        assert_eq!(samples.len(), 2);
        assert_eq!(
            samples[0].0,
            vec![("client".to_string(), "alice".to_string())]
        );
        assert!(matches!(samples[0].1, SampleValue::Counter(3)));
        assert!(r.samples("fdip_unknown").is_empty());
    }
}
