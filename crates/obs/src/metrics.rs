//! The metric registry: named atomic counters, gauges, and
//! log-bucketed latency histograms, plus the text exposition format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of histogram buckets. Bucket `i` holds values `v` (in
/// microseconds) with `2^(i-1) < v <= 2^i` (bucket 0: `v <= 1`); the
/// last bucket additionally absorbs everything larger (`2^39` µs is
/// about 6.4 days — nothing the serving stack times lives longer).
pub const N_BUCKETS: usize = 40;

/// The bucket holding `us` microseconds.
#[inline]
fn bucket_of(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        (64 - (us - 1).leading_zeros() as usize).min(N_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, microseconds.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    1u64 << i
}

// ---------------------------------------------------------------------------
// Handles.
// ---------------------------------------------------------------------------

/// A monotone counter. Cheap to clone; all clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge (a level, not a rate). Cheap to clone.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (negative to decrease).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    /// `u64::MAX` until the first record.
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

/// A log-bucketed latency histogram with fixed power-of-two bucket
/// boundaries (microseconds). Recording is lock-free (five relaxed
/// atomic ops); quantiles are exact functions of the bucket counts.
/// Cheap to clone; all clones share the cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation of `us` microseconds.
    #[inline]
    pub fn record_us(&self, us: u64) {
        let core = &*self.0;
        core.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum_us.fetch_add(us, Ordering::Relaxed);
        core.min_us.fetch_min(us, Ordering::Relaxed);
        core.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one observation of a wall-clock duration.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts and moments.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| core.buckets[i].load(Ordering::Relaxed)),
            count: core.count.load(Ordering::Relaxed),
            sum_us: core.sum_us.load(Ordering::Relaxed),
            min_us: core.min_us.load(Ordering::Relaxed),
            max_us: core.max_us.load(Ordering::Relaxed),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state. Merging snapshots is
/// associative, commutative, and bit-stable (pure integer arithmetic),
/// so any tree of partial merges yields identical aggregates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`N_BUCKETS`]).
    pub buckets: [u64; N_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, microseconds.
    pub sum_us: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min_us: u64,
    /// Largest observed value (0 when empty).
    pub max_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// The element-wise merge of two snapshots.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum_us: self.sum_us + other.sum_us,
            min_us: self.min_us.min(other.min_us),
            max_us: self.max_us.max(other.max_us),
        }
    }

    /// The exact nearest-rank quantile read off the bucket counts: the
    /// upper bound of the bucket holding the sample of rank
    /// `ceil(q · count)`, clamped to the observed max. 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max_us);
            }
        }
        self.max_us
    }
}

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A process-local registry of named metrics.
///
/// Clones share the underlying map, so one registry can be threaded
/// through a catalog, its server, and its lease and exposed as a
/// single snapshot. Metric names follow the Prometheus convention:
/// `snake_case` with a `_total` suffix for counters and a `_us` unit
/// suffix for microsecond histograms; labels attach as
/// `name{key="value"}` via the `*_with` constructors.
#[derive(Clone, Debug, Default)]
pub struct MetricRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

/// Renders `name{k="v",…}` with labels in the given order.
fn full_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16 * labels.len());
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        s.push_str(v);
        s.push('"');
    }
    s.push('}');
    s
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// [`MetricRegistry::counter`] with `name{labels…}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = full_name(name, labels);
        match self
            .lock()
            .entry(key.clone())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{key}' is not a counter"),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// [`MetricRegistry::gauge`] with `name{labels…}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = full_name(name, labels);
        match self
            .lock()
            .entry(key.clone())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{key}' is not a gauge"),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// [`MetricRegistry::histogram`] with `name{labels…}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = full_name(name, labels);
        match self
            .lock()
            .entry(key.clone())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{key}' is not a histogram"),
        }
    }

    /// Renders every metric as Prometheus-style `name{label="v"} value`
    /// lines, sorted by name (byte-identical for identical state).
    /// Histograms expand into derived `_count` / `_sum_us` / `_min_us`
    /// / `_max_us` / `_p50_us` / `_p95_us` / `_p99_us` lines (the
    /// suffix splices before any `{labels}`).
    pub fn expose(&self) -> String {
        let metrics: Vec<(String, Metric)> = self
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut lines = Vec::with_capacity(metrics.len());
        for (key, metric) in metrics {
            match metric {
                Metric::Counter(c) => lines.push(format!("{key} {}", c.get())),
                Metric::Gauge(g) => lines.push(format!("{key} {}", g.get())),
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let (base, labels) = match key.find('{') {
                        Some(i) => key.split_at(i),
                        None => (key.as_str(), ""),
                    };
                    let min = if snap.count == 0 { 0 } else { snap.min_us };
                    lines.push(format!("{base}_count{labels} {}", snap.count));
                    lines.push(format!("{base}_sum_us{labels} {}", snap.sum_us));
                    lines.push(format!("{base}_min_us{labels} {min}"));
                    lines.push(format!("{base}_max_us{labels} {}", snap.max_us));
                    lines.push(format!("{base}_p50_us{labels} {}", snap.quantile_us(0.50)));
                    lines.push(format!("{base}_p95_us{labels} {}", snap.quantile_us(0.95)));
                    lines.push(format!("{base}_p99_us{labels} {}", snap.quantile_us(0.99)));
                }
            }
        }
        lines.sort_unstable();
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Parses exposition text back into `full name → value`. Lines that
/// are empty, comments (`#`), or malformed are skipped — a scraper
/// must tolerate future line kinds.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(name.to_string(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(5), 3);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        for i in 0..N_BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i.min(N_BUCKETS - 1));
        }
    }

    #[test]
    fn quantiles_are_exact_functions_of_bucket_counts() {
        let h = Histogram::default();
        // 90 fast (≤ 128 µs bucket), 9 medium (≤ 1024), 1 slow (≤ 8192).
        for _ in 0..90 {
            h.record_us(100);
        }
        for _ in 0..9 {
            h.record_us(1000);
        }
        h.record_us(5000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.quantile_us(0.50), 128);
        assert_eq!(s.quantile_us(0.95), 1024);
        assert_eq!(s.quantile_us(0.99), 1024); // rank 99 is the last medium sample
        assert_eq!(s.quantile_us(1.0), 5000); // bucket upper 8192, clamped to max
        assert_eq!(s.min_us, 100);
        assert_eq!(s.max_us, 5000);
        assert_eq!(HistogramSnapshot::default().quantile_us(0.99), 0);
    }

    #[test]
    fn counter_gauge_roundtrip_and_shared_handles() {
        let r = MetricRegistry::new();
        let a = r.counter("hits_total");
        let b = r.counter("hits_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "handles to one name share the cell");
        let g = r.gauge("open");
        g.set(5);
        g.add(-2);
        assert_eq!(r.gauge("open").get(), 3);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_panics() {
        let r = MetricRegistry::new();
        let _ = r.gauge("x");
        let _ = r.counter("x");
    }

    #[test]
    fn exposition_is_sorted_labelled_and_parseable() {
        let r = MetricRegistry::new();
        r.counter_with("requests_total", &[("kind", "query_rect")])
            .add(7);
        r.counter("errors_total").inc();
        r.gauge("connections_open").set(2);
        let h = r.histogram_with("request_us", &[("kind", "query_rect")]);
        h.record_us(100);
        h.record_us(300);
        let text = r.expose();
        let parsed = parse_exposition(&text);
        assert_eq!(parsed["requests_total{kind=\"query_rect\"}"], 7.0);
        assert_eq!(parsed["errors_total"], 1.0);
        assert_eq!(parsed["connections_open"], 2.0);
        assert_eq!(parsed["request_us_count{kind=\"query_rect\"}"], 2.0);
        assert_eq!(parsed["request_us_sum_us{kind=\"query_rect\"}"], 400.0);
        assert_eq!(parsed["request_us_p99_us{kind=\"query_rect\"}"], 300.0);
        // Sorted + deterministic: two renders of identical state match.
        assert_eq!(text, r.expose());
        let mut lines: Vec<&str> = text.lines().collect();
        let rendered = lines.clone();
        lines.sort_unstable();
        assert_eq!(lines, rendered, "exposition lines are sorted");
    }
}
