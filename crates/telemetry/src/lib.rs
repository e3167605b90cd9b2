//! Unified telemetry: a std-only metrics plane for the workspace.
//!
//! Three pieces, no dependencies (the workspace builds fully offline):
//!
//! * [`MetricsRegistry`] — named counters, gauges and fixed-bucket log₂
//!   [`Histogram`]s, all backed by relaxed atomics so pool workers
//!   record lock-free. Registration takes a short mutex; hot paths
//!   cache the returned [`std::sync::Arc`] handle (see [`PhaseTimer`])
//!   and never touch the lock again.
//! * [`Span`] — lightweight phase timing. `Span::enter("dd.apply")`
//!   captures an [`Instant`]; on [`Span::finish`] (or drop) the elapsed
//!   nanoseconds are recorded into the per-phase histogram family
//!   [`PHASE_METRIC`]. The clock is always read — callers that feed
//!   `runtime`/`wall_seconds` statistics from the returned duration
//!   stay correct even when recording is disabled.
//! * Export — [`MetricsRegistry::render_prometheus`] produces the
//!   Prometheus text exposition format (served at `GET /metrics` by
//!   `approxdd-server`), and [`MetricsRegistry::snapshot`] produces a
//!   deterministic, mergeable [`MetricsSnapshot`] that
//!   `approxdd_sim::ndjson` turns into NDJSON for the bench bins.
//!
//! # Determinism contract
//!
//! Telemetry is a write-only side channel: nothing in this crate is
//! ever read back into simulation decisions, and no telemetry value
//! participates in `PoolOutcome::fingerprint`. Toggling
//! [`set_enabled`] therefore cannot move a bit of simulation output —
//! the workspace proves this with a proptest comparing fingerprints
//! with telemetry on and off across 1/2/8 workers.
//!
//! # Example
//!
//! ```
//! use approxdd_telemetry as telemetry;
//!
//! let registry = telemetry::MetricsRegistry::new();
//! registry.counter("jobs_total").inc();
//! registry.gauge("queue_depth").set(3);
//! registry.histogram("chunk_nanos").observe(1500);
//! let text = registry.render_prometheus();
//! assert!(text.contains("# TYPE jobs_total counter"));
//! assert!(text.contains("jobs_total 1"));
//! assert!(text.contains("chunk_nanos_bucket{le=\"2047\"} 1"));
//! ```

#![warn(missing_docs)]

mod metrics;
mod prometheus;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Name of the shared phase-duration histogram family; each phase is a
/// `phase="..."` label (e.g. `dd.apply`, `pool.queue_wait`).
pub const PHASE_METRIC: &str = "approxdd_phase_duration_nanoseconds";

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
static ENABLED: AtomicBool = AtomicBool::new(true);

/// The process-wide registry every [`Span`] and instrumentation site
/// records into, and the one `GET /metrics` serves.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Whether telemetry recording is enabled (default: yes).
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enables or disables recording. Disabling stops new values
/// from being recorded but leaves already-registered metrics in place;
/// simulation output is identical either way (see the crate docs).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The per-phase histogram handle for `phase` in the [`global`]
/// registry. Hot paths call this once and keep the `Arc`.
pub fn phase_histogram(phase: &str) -> Arc<Histogram> {
    global().histogram_with(PHASE_METRIC, &[("phase", phase)])
}

/// A phase-timing span over the [`global`] registry.
///
/// Records wall time into [`PHASE_METRIC`] exactly once — on
/// [`Span::finish`] or on drop, whichever comes first. The clock is
/// captured unconditionally so `finish()` can feed `runtime` statistics
/// even when recording is [disabled](set_enabled).
#[derive(Debug)]
pub struct Span {
    phase: &'static str,
    start: Instant,
    recorded: bool,
}

impl Span {
    /// Starts timing `phase`.
    #[must_use]
    pub fn enter(phase: &'static str) -> Self {
        Self {
            phase,
            start: Instant::now(),
            recorded: false,
        }
    }

    /// Stops the span, records it (if telemetry is enabled) and returns
    /// the elapsed wall time — drop-in for `Instant::now()` pairs that
    /// feed `runtime`/`wall_seconds` result fields.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
        elapsed
    }

    fn record(&mut self, elapsed: Duration) {
        if !self.recorded {
            self.recorded = true;
            if enabled() {
                phase_histogram(self.phase).observe_duration(elapsed);
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.record(elapsed);
    }
}

/// A cached per-phase timer for hot loops (e.g. the per-op apply in the
/// simulator run loop): resolves the histogram handle once, then each
/// observation is two clock reads and a few relaxed atomic adds. Like
/// [`Span`] and [`count`] it follows the live [`enabled`] flag — a timer
/// held by a long-lived worker starts and stops recording with
/// [`set_enabled`], whenever it was built — and while telemetry is
/// disabled [`PhaseTimer::time`] runs the closure without reading the
/// clock.
#[derive(Debug, Clone)]
pub struct PhaseTimer {
    histogram: Arc<Histogram>,
}

impl PhaseTimer {
    /// A timer for `phase`.
    #[must_use]
    pub fn new(phase: &str) -> Self {
        Self {
            histogram: phase_histogram(phase),
        }
    }

    /// Runs `f`, recording its wall time if telemetry is enabled.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.histogram.observe_duration(start.elapsed());
        out
    }

    /// Records an externally measured duration if telemetry is enabled.
    pub fn observe(&self, elapsed: Duration) {
        if enabled() {
            self.histogram.observe_duration(elapsed);
        }
    }
}

/// Bumps a counter in the [`global`] registry, if telemetry is
/// enabled. Convenience for cold instrumentation sites; hot paths
/// should cache the handle from [`MetricsRegistry::counter`] instead.
pub fn count(name: &str, delta: u64) {
    if enabled() {
        global().counter(name).add(delta);
    }
}

/// Labelled variant of [`count`].
pub fn count_with(name: &str, labels: &[(&str, &str)], delta: u64) {
    if enabled() {
        global().counter_with(name, labels).add(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_phase_family() {
        let before = phase_histogram("test.span_records").count();
        let span = Span::enter("test.span_records");
        let elapsed = span.finish();
        assert!(elapsed.as_nanos() > 0);
        assert_eq!(phase_histogram("test.span_records").count(), before + 1);
    }

    #[test]
    fn span_records_once_even_with_drop() {
        let before = phase_histogram("test.span_once").count();
        let span = Span::enter("test.span_once");
        let _ = span.finish(); // finish consumes; drop must not double-record
        assert_eq!(phase_histogram("test.span_once").count(), before + 1);
    }

    #[test]
    fn phase_timer_times_closures() {
        let timer = PhaseTimer::new("test.timer");
        let value = timer.time(|| 41 + 1);
        assert_eq!(value, 42);
        timer.observe(Duration::from_micros(3));
        assert_eq!(phase_histogram("test.timer").count(), 2);
    }
}
