//! The registry and its three metric kinds.
//!
//! All values live in relaxed [`AtomicU64`]s: recording from pool
//! worker threads is lock-free and never synchronizes simulation work.
//! The registry itself is a mutex-guarded sorted map used only on the
//! (cold) registration and snapshot paths; hot sites hold the `Arc`
//! returned at registration.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::prometheus;

/// Number of histogram buckets: one for zero plus one per bit length
/// of a `u64` value (see [`Histogram::bucket_index`]).
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that is set to the latest observation (queue
/// depth, alive nodes, worker count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log₂ histogram over `u64` observations.
///
/// Bucket `0` holds exactly the value `0`; bucket `i ≥ 1` holds values
/// of bit length `i`, i.e. the range `[2^(i-1), 2^i - 1]`. Every
/// `u64` maps to one of the `HISTOGRAM_BUCKETS` buckets, so the
/// Prometheus rendering's last finite upper bound is `2^63 - 1` and
/// `+Inf` absorbs the top bit-length. Durations are recorded in
/// nanoseconds via [`Histogram::observe_duration`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// The bucket index `value` falls into: `0` for zero, otherwise the
    /// bit length of `value` (so `1 → 1`, `2..=3 → 2`, `4..=7 → 3`,
    /// `2^k..=2^(k+1)-1 → k+1`, `u64::MAX → 64`).
    #[must_use]
    pub(crate) fn bucket_index(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration as whole nanoseconds (saturating at
    /// `u64::MAX` — ~584 years).
    pub fn observe_duration(&self, elapsed: Duration) {
        self.observe(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values (wrapping on overflow).
    #[must_use]
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub(crate) sum: u64,
    /// Per-bucket (non-cumulative) observation counts, one per
    /// [`HISTOGRAM_BUCKETS`] slot.
    pub(crate) buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The sum interpreted as nanoseconds, in seconds — the convention
    /// for the [`crate::PHASE_METRIC`] family.
    #[must_use]
    pub fn sum_seconds(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.sum as f64 / 1e9
        }
    }
}

/// The value half of a snapshot entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One named metric (with labels) in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// Metric name as registered.
    pub name: String,
    /// Label pairs as registered.
    pub labels: Vec<(String, String)>,
    /// Current value.
    pub value: MetricValue,
}

/// A deterministic point-in-time copy of a registry: entries are
/// sorted by `(name, labels)`, so equal registries snapshot to equal
/// values regardless of registration or thread interleaving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Sorted metric entries.
    pub entries: Vec<MetricEntry>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

type MetricKey = (String, Vec<(String, String)>);

/// A registry of named metrics. See the crate docs for the locking
/// story; [`crate::global`] holds the process-wide instance.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name` (no labels), created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// The counter named `name` with `labels`, created on first use.
    ///
    /// # Panics
    ///
    /// If the (name, labels) pair is registered as a different kind.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let metric = self.get_or_insert(name, labels, || Metric::Counter(Arc::default()));
        match metric {
            Metric::Counter(c) => c,
            _ => panic!("telemetry: {name} is already registered as a non-counter"),
        }
    }

    /// The gauge named `name` (no labels), created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// The gauge named `name` with `labels`, created on first use.
    ///
    /// # Panics
    ///
    /// If the (name, labels) pair is registered as a different kind.
    pub(crate) fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let metric = self.get_or_insert(name, labels, || Metric::Gauge(Arc::default()));
        match metric {
            Metric::Gauge(g) => g,
            _ => panic!("telemetry: {name} is already registered as a non-gauge"),
        }
    }

    /// The histogram named `name` (no labels), created on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// The histogram named `name` with `labels`, created on first use.
    ///
    /// # Panics
    ///
    /// If the (name, labels) pair is registered as a different kind.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let metric = self.get_or_insert(name, labels, || Metric::Histogram(Arc::default()));
        match metric {
            Metric::Histogram(h) => h,
            _ => panic!("telemetry: {name} is already registered as a non-histogram"),
        }
    }

    /// The registration map, whoever held it last. Every critical
    /// section below is one map operation or a read of atomics, so the
    /// map is valid at every step and the guard of a holder that
    /// panicked is recovered rather than propagated — the lock rule of
    /// `approxdd-exec` and `approxdd-server`: one thread's panic must
    /// not take down the next `/metrics` scrape.
    fn map(&self) -> MutexGuard<'_, BTreeMap<MetricKey, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let key: MetricKey = (
            name.to_string(),
            labels
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        );
        self.map().entry(key).or_insert_with(make).clone()
    }

    /// A deterministic snapshot of every registered metric, sorted by
    /// `(name, labels)`.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .map()
                .iter()
                .map(|((name, labels), metric)| MetricEntry {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` comments, escaped labels, cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count` for histograms.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        prometheus::render(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_sum_exactly() {
        let registry = Arc::new(MetricsRegistry::new());
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let counter = registry.counter("hits_total");
                    let histogram = registry.histogram("lat_nanos");
                    for i in 0..PER_THREAD {
                        counter.inc();
                        histogram.observe(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(registry.counter("hits_total").get(), 8 * PER_THREAD);
        let histogram = registry.histogram("lat_nanos");
        assert_eq!(histogram.count(), 8 * PER_THREAD);
        // Σ 0..10000 per thread.
        assert_eq!(histogram.sum(), 8 * (PER_THREAD * (PER_THREAD - 1) / 2));
    }

    #[test]
    fn a_panic_under_the_registry_lock_does_not_spread() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("hits_total").add(3);
        let holder = Arc::clone(&registry);
        let died = std::thread::spawn(move || {
            let _guard = holder.metrics.lock().unwrap();
            panic!("a thread dies holding the registry lock");
        })
        .join();
        assert!(died.is_err() && registry.metrics.lock().is_err());

        // Registration and scrape still work, on intact data.
        registry.counter("hits_total").inc();
        registry.gauge("depth").set(2);
        let snap = registry.snapshot();
        assert_eq!(snap.entries.len(), 2);
        assert_eq!(registry.counter("hits_total").get(), 4);
        assert!(registry.render_prometheus().contains("hits_total 4"));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        for k in 1..64 {
            let p = 1u64 << k;
            assert_eq!(Histogram::bucket_index(p - 1), k, "2^{k}-1");
            assert_eq!(Histogram::bucket_index(p), k + 1, "2^{k}");
            assert_eq!(Histogram::bucket_index(p + 1), k + 1, "2^{k}+1");
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);

        let h = Histogram::default();
        for v in [0, 1, 1 << 20, (1 << 20) + 1, u64::MAX] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[21], 2);
        assert_eq!(snap.buckets[64], 1);
        assert_eq!(
            snap.sum,
            1u64.wrapping_add(1 << 20)
                .wrapping_add((1 << 20) + 1)
                .wrapping_add(u64::MAX)
        );
    }

    #[test]
    fn gauge_set_overwrites() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("depth");
        g.set(5);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn labels_key_distinct_series() {
        let registry = MetricsRegistry::new();
        registry
            .counter_with("reqs_total", &[("route", "/jobs")])
            .add(2);
        registry
            .counter_with("reqs_total", &[("route", "/stats")])
            .inc();
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.entries.len(), 2);
        assert_eq!(snapshot.entries[0].value, MetricValue::Counter(2));
        assert_eq!(snapshot.entries[1].value, MetricValue::Counter(1));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("x");
        let _ = registry.gauge("x");
    }
}
