//! `glodyne-telemetry`: lock-free runtime metrics for the serving
//! stack.
//!
//! Three primitives, all std-only and wait-free on the record path:
//!
//! - [`Counter`] — a monotone `AtomicU64`.
//! - [`Gauge`] — an `AtomicU64` holding `f64` bits, for instantaneous
//!   values (queue depth, rolling recall).
//! - [`Histogram`] — a fixed array of power-of-two (log2) buckets over
//!   `u64` microseconds. [`Histogram::record`] is four relaxed
//!   `fetch_add`/`fetch_max` operations and never allocates, locks, or
//!   branches on contention, so it is safe on the hottest query path.
//!   [`Histogram::snapshot`] reads the buckets once and derives
//!   p50/p90/p99/max.
//!
//! A [`Registry`] names the metrics and renders them as Prometheus
//! text exposition ([`Registry::render_prometheus`]). Registration
//! takes a short write lock; recording through the returned `Arc`
//! handles never touches the registry again.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`. 64 value buckets cover
/// the full `u64` range, so `record` never clamps.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (stored as `f64` bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket log2 latency histogram over `u64` microseconds.
///
/// Buckets are powers of two: index 0 counts exact zeros, index
/// `i ≥ 1` counts values in `[2^(i-1), 2^i)`. Quantiles are read from
/// the cumulative bucket counts and reported as the containing
/// bucket's inclusive upper bound (`2^i - 1`) — an overestimate of at
/// most 2x, monotone in the quantile by construction. `max` is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a recorded value: `0` for `0`, else
/// `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation (microseconds by convention). Wait-free:
    /// three relaxed `fetch_add`s and one relaxed `fetch_max`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`Duration`] as whole microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// One raw bucket's count (test/exposition surface).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i].load(Ordering::Relaxed)
    }

    /// A point-in-time read of the whole histogram. Concurrent
    /// `record`s may straddle the read (the snapshot is not a seqcst
    /// cut) but every field is individually coherent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile observation, 1-based.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(i);
                }
            }
            bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }
}

/// A point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values (micros).
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile (bucket upper bound).
    pub p90: u64,
    /// 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A named collection of metrics with Prometheus text rendering.
///
/// Registration (rare, startup-time) takes a write lock; the returned
/// `Arc` handles record without ever touching the registry again.
/// Registering the same `(name, labels)` twice returns the original
/// handle, so independent subsystems can share a series.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register_with<T, F>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: F,
    ) -> Arc<T>
    where
        F: FnOnce() -> (Arc<T>, Metric),
        T: 'static,
        Metric: AsHandle<T>,
    {
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = entries
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
        {
            if let Some(handle) = existing.metric.as_handle() {
                return handle;
            }
        }
        let (handle, metric) = make();
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric,
        });
        handle
    }

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register_with(name, help, labels, || {
            let c = Arc::new(Counter::new());
            (Arc::clone(&c), Metric::Counter(c))
        })
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register_with(name, help, labels, || {
            let g = Arc::new(Gauge::new());
            (Arc::clone(&g), Metric::Gauge(g))
        })
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register_with(name, help, labels, || {
            let h = Arc::new(Histogram::new());
            (Arc::clone(&h), Metric::Histogram(h))
        })
    }

    /// Render every registered metric as Prometheus text exposition:
    /// `# HELP`/`# TYPE` once per metric name, then one sample line
    /// per series (histograms expand to cumulative `_bucket` lines up
    /// to the highest non-empty bucket, plus `_sum` and `_count`).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        let mut described: Vec<&str> = Vec::new();
        for entry in entries.iter() {
            if !described.contains(&entry.name.as_str()) {
                described.push(&entry.name);
                let kind = match entry.metric {
                    Metric::Counter(_) => "counter",
                    Metric::Gauge(_) => "gauge",
                    Metric::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", entry.name, entry.help));
                out.push_str(&format!("# TYPE {} {kind}\n", entry.name));
            }
            match &entry.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        entry.name,
                        label_set(&entry.labels, None),
                        c.get()
                    ));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        entry.name,
                        label_set(&entry.labels, None),
                        format_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    let mut cumulative = 0u64;
                    let top = (0..HISTOGRAM_BUCKETS)
                        .rev()
                        .find(|&i| h.bucket(i) > 0)
                        .unwrap_or(0);
                    for i in 0..=top {
                        cumulative += h.bucket(i);
                        let le = if i >= 64 {
                            "+Inf".to_string()
                        } else {
                            bucket_upper_bound(i).to_string()
                        };
                        out.push_str(&format!(
                            "{}_bucket{} {cumulative}\n",
                            entry.name,
                            label_set(&entry.labels, Some(&le)),
                        ));
                    }
                    if top < 64 {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            entry.name,
                            label_set(&entry.labels, Some("+Inf")),
                            h.count(),
                        ));
                    }
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        entry.name,
                        label_set(&entry.labels, None),
                        h.sum()
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        entry.name,
                        label_set(&entry.labels, None),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

/// Extract a typed handle back out of a registered metric (used for
/// idempotent re-registration).
trait AsHandle<T> {
    fn as_handle(&self) -> Option<Arc<T>>;
}

impl AsHandle<Counter> for Metric {
    fn as_handle(&self) -> Option<Arc<Counter>> {
        match self {
            Metric::Counter(c) => Some(Arc::clone(c)),
            _ => None,
        }
    }
}

impl AsHandle<Gauge> for Metric {
    fn as_handle(&self) -> Option<Arc<Gauge>> {
        match self {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        }
    }
}

impl AsHandle<Histogram> for Metric {
    fn as_handle(&self) -> Option<Arc<Histogram>> {
        match self {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        }
    }
}

fn labels_eq(stored: &[(String, String)], wanted: &[(&str, &str)]) -> bool {
    stored.len() == wanted.len()
        && stored
            .iter()
            .zip(wanted)
            .all(|((k, v), &(wk, wv))| k == wk && v == wv)
}

fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Render an `f64` the way Prometheus expects: integral values without
/// a trailing `.0`, everything else with enough digits to round-trip.
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.97);
        assert!((g.get() - 0.97).abs() < 1e-12);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // 0 lands in bucket 0; 2^(i-1) and 2^i - 1 share bucket i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            let hi = bucket_upper_bound(i);
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper edge of bucket {i}");
            assert_eq!(hi + 1, 1u64 << i, "buckets tile without gaps");
        }

        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.bucket(0), 1); // 0
        assert_eq!(h.bucket(1), 1); // 1
        assert_eq!(h.bucket(2), 2); // 2, 3
        assert_eq!(h.bucket(3), 1); // 4
        assert_eq!(h.bucket(10), 1); // 1000 in [512, 1024)
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.snapshot().max, 1000, "max is exact, not bucketed");
    }

    #[test]
    fn histogram_quantiles_are_monotone_and_bound_the_data() {
        let h = Histogram::new();
        // Skewed data: mostly fast, a slow tail.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(5_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert!(s.p50 <= s.p90, "p50 {} > p90 {}", s.p50, s.p90);
        assert!(s.p90 <= s.p99, "p90 {} > p99 {}", s.p90, s.p99);
        assert!(s.p99 <= s.max, "p99 {} > max {}", s.p99, s.max);
        // Each quantile's bucket bound is >= the true quantile and
        // less than 2x above it.
        assert!(s.p50 >= 100 && s.p50 < 200, "p50 = {}", s.p50);
        assert!(s.p99 >= 5_000 && s.p99 < 10_000, "p99 = {}", s.p99);
        assert_eq!(s.max, 1_000_000);
        assert!((s.mean() - 10_540.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_records_sum_exactly() {
        let h = Arc::new(Histogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t as u64 * per_thread + i);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let total = threads as u64 * per_thread;
        assert_eq!(h.count(), total, "no record lost under contention");
        // Sum of 0..total, exact because every add is atomic.
        assert_eq!(h.sum(), total * (total - 1) / 2);
        let bucket_total: u64 = (0..HISTOGRAM_BUCKETS).map(|i| h.bucket(i)).sum();
        assert_eq!(bucket_total, total, "bucket counts account for all");
        assert_eq!(h.snapshot().max, total - 1);
    }

    #[test]
    fn registry_is_idempotent_and_renders_prometheus_text() {
        let r = Registry::new();
        let c1 = r.counter(
            "glodyne_requests_total",
            "Requests served",
            &[("cmd", "query")],
        );
        let c2 = r.counter(
            "glodyne_requests_total",
            "Requests served",
            &[("cmd", "query")],
        );
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3, "same (name, labels) shares one series");
        let other = r.counter(
            "glodyne_requests_total",
            "Requests served",
            &[("cmd", "flush")],
        );
        other.inc();

        let g = r.gauge("glodyne_probe_recall_at_k", "Rolling probe recall", &[]);
        g.set(0.95);
        let h = r.histogram(
            "glodyne_wire_latency_us",
            "Wire latency",
            &[("cmd", "query")],
        );
        h.record(3);
        h.record(700);

        let text = r.render_prometheus();
        assert!(text.contains("# HELP glodyne_requests_total Requests served"));
        assert!(text.contains("# TYPE glodyne_requests_total counter"));
        // The HELP/TYPE header appears once even with two series.
        assert_eq!(text.matches("# TYPE glodyne_requests_total").count(), 1);
        assert!(text.contains("glodyne_requests_total{cmd=\"query\"} 3"));
        assert!(text.contains("glodyne_requests_total{cmd=\"flush\"} 1"));
        assert!(text.contains("# TYPE glodyne_probe_recall_at_k gauge"));
        assert!(text.contains("glodyne_probe_recall_at_k 0.95"));
        assert!(text.contains("# TYPE glodyne_wire_latency_us histogram"));
        assert!(text.contains("glodyne_wire_latency_us_bucket{cmd=\"query\",le=\"3\"} 1"));
        assert!(text.contains("glodyne_wire_latency_us_bucket{cmd=\"query\",le=\"+Inf\"} 2"));
        assert!(text.contains("glodyne_wire_latency_us_sum{cmd=\"query\"} 703"));
        assert!(text.contains("glodyne_wire_latency_us_count{cmd=\"query\"} 2"));
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
        assert_eq!(s.mean(), 0.0);
    }
}
