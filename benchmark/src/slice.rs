//! One slice: what a child process is asked to run, what it records
//! while running, and the line format it reports back in.
//!
//! A slice is set-up, then the workload's fixed number of timed items
//! ([`Workload::slice_items`]); nothing is time-boxed, so counts and
//! the exact metrics repeat. Each slice runs in a fresh
//! child process of the benchmark binary, so set-up cost and peak RSS
//! belong to one workload and one slice; the child prints its
//! [`SliceReport`] on standard output as plain `key value…` lines (the
//! workspace has a JSON writer but no parser) and the parent parses it.

use std::fmt::Write as _;
use std::time::Instant;

use crate::env;
use crate::spec::Workload;
use crate::trace::{Span, Tracer, NO_ITEM};

/// What one child process runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceConfig {
    /// The workload.
    pub workload: Workload,
    /// The run's `--seed`: the order of the instances and the sampling
    /// seeds derive from it.
    pub seed: u64,
    /// Whether the harness records spans, attaches observers and runs
    /// the per-layer probes.
    pub traced: bool,
}

/// One timed item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Whether the item took the workload's cold path (only
    /// `serve_closed_loop` has one: a never-seen circuit family).
    pub cold: bool,
}

/// The exact (count-based) results of a slice's items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exact {
    /// Largest state-DD node count any item reached.
    pub peak_nodes: u64,
    /// Compute-table lookups (hits + misses) of the items' runs.
    pub dd_ops: u64,
    /// Smallest `SimStats::fidelity` over the items.
    pub fidelity_min: f64,
}

/// Everything a slice reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Child start to first timed item (warm-up included), seconds.
    pub setup_s: f64,
    /// The timed items, in order.
    pub items: Vec<Item>,
    /// Wall time of the timed loop, first item start to last item end
    /// (the harness's bookkeeping between items included), seconds.
    pub loop_s: f64,
    /// Items with a failed correctness check.
    pub failed: u64,
    /// Exact results over the items.
    pub exact: Exact,
    /// `VmHWM` when the last item completed (before any probe), KiB.
    pub rss_peak_kib: u64,
    /// Per-layer records `(metric, a, b)`: a sample `(value, 0)` or a
    /// ratio's `(numerator, denominator)`, as the metric's
    /// [`crate::spec::Combine`] reads them. Empty for plain slices.
    pub layer: Vec<(String, f64, f64)>,
    /// Spans (traced slices only).
    pub spans: Vec<Span>,
}

/// Collects a slice's results while the workload runs.
#[derive(Debug)]
pub struct Recorder {
    config: SliceConfig,
    origin: Instant,
    loop_start: Instant,
    tracer: Option<Tracer>,
    report: SliceReport,
}

impl Recorder {
    /// Starts recording; `origin` is when the child process started.
    #[must_use]
    pub fn new(config: SliceConfig, origin: Instant) -> Self {
        Self {
            config,
            origin,
            loop_start: origin,
            tracer: config.traced.then(|| Tracer::new(origin)),
            report: SliceReport::empty(),
        }
    }

    /// The slice's configuration.
    #[must_use]
    pub fn config(&self) -> SliceConfig {
        self.config
    }

    /// Whether this slice traces.
    #[must_use]
    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a span (no-op in a plain slice).
    pub fn enter(&mut self, name: &str, item: u64) {
        if let Some(tracer) = &mut self.tracer {
            tracer.enter(name, item);
        }
    }

    /// Closes the innermost span (no-op in a plain slice).
    pub fn exit(&mut self) {
        if let Some(tracer) = &mut self.tracer {
            tracer.exit();
        }
    }

    /// Runs `f` inside a set-up or probe span and returns its result
    /// with its wall time.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(name, NO_ITEM);
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        self.exit();
        (out, seconds)
    }

    /// Records one sample of a per-layer metric (traced slices only).
    pub fn sample(&mut self, metric: &str, value: f64) {
        self.ratio(metric, value, 0.0);
    }

    /// Adds to a per-layer ratio's numerator and denominator (traced
    /// slices only).
    pub fn ratio(&mut self, metric: &str, numerator: f64, denominator: f64) {
        debug_assert!(
            crate::spec::per_layer(metric).is_some(),
            "unknown metric {metric}"
        );
        if self.traced() {
            self.report
                .layer
                .push((metric.to_string(), numerator, denominator));
        }
    }

    /// Marks the end of set-up: the timed loop starts now.
    pub fn setup_done(&mut self) {
        self.report.setup_s = self.origin.elapsed().as_secs_f64();
        self.loop_start = Instant::now();
    }

    /// Whether the timed loop should run another item.
    #[must_use]
    pub fn wants_item(&self) -> bool {
        self.report.items.len() < self.config.workload.slice_items()
    }

    /// Index of the next item.
    #[must_use]
    pub fn next_item(&self) -> usize {
        self.report.items.len()
    }

    /// Records a finished item. `exact` carries the item's
    /// `(peak nodes, compute-table lookups, fidelity)`.
    pub fn item(&mut self, seconds: f64, cold: bool, ok: bool, exact: (u64, u64, f64)) {
        let e = &mut self.report.exact;
        e.peak_nodes = e.peak_nodes.max(exact.0);
        e.dd_ops += exact.1;
        e.fidelity_min = e.fidelity_min.min(exact.2);
        self.report.items.push(Item { seconds, cold });
        self.report.failed += u64::from(!ok);
        if !self.wants_item() {
            self.report.loop_s = self.loop_start.elapsed().as_secs_f64();
            self.report.rss_peak_kib = env::status_kib("VmHWM");
        }
    }

    /// Ends recording.
    #[must_use]
    pub fn finish(mut self) -> SliceReport {
        if let Some(tracer) = self.tracer.take() {
            self.report.spans = tracer.into_spans();
        }
        self.report
    }
}

impl SliceReport {
    fn empty() -> Self {
        Self {
            setup_s: 0.0,
            items: Vec::new(),
            loop_s: 0.0,
            failed: 0,
            exact: Exact {
                peak_nodes: 0,
                dd_ops: 0,
                fidelity_min: f64::INFINITY,
            },
            rss_peak_kib: 0,
            layer: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The report in the child-to-parent line format.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "setup {}", self.setup_s);
        for item in &self.items {
            let _ = writeln!(out, "item {} {}", item.seconds, u8::from(item.cold));
        }
        let _ = writeln!(out, "loop {}", self.loop_s);
        let _ = writeln!(out, "failed {}", self.failed);
        let e = self.exact;
        let _ = writeln!(
            out,
            "exact {} {} {}",
            e.peak_nodes, e.dd_ops, e.fidelity_min
        );
        let _ = writeln!(out, "rss_peak_kib {}", self.rss_peak_kib);
        for (name, a, b) in &self.layer {
            let _ = writeln!(out, "layer {name} {a} {b}");
        }
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "span {} {} {parent} {} {}",
                s.start_ns, s.end_ns, s.item, s.name
            );
        }
        out.push_str("end\n");
        out
    }

    /// Parses a child's output.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line, or the missing `end`
    /// line of a child that died mid-report.
    pub fn parse(text: &str) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(field: Option<&str>, line: &str) -> Result<T, String> {
            field
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| format!("malformed slice report line: {line:?}"))
        }
        let mut report = Self::empty();
        let mut ended = false;
        for line in text.lines() {
            let mut f = line.split(' ');
            match f.next() {
                Some("setup") => report.setup_s = num(f.next(), line)?,
                Some("item") => report.items.push(Item {
                    seconds: num(f.next(), line)?,
                    cold: num::<u8>(f.next(), line)? != 0,
                }),
                Some("loop") => report.loop_s = num(f.next(), line)?,
                Some("failed") => report.failed = num(f.next(), line)?,
                Some("exact") => {
                    report.exact = Exact {
                        peak_nodes: num(f.next(), line)?,
                        dd_ops: num(f.next(), line)?,
                        fidelity_min: num(f.next(), line)?,
                    };
                }
                Some("rss_peak_kib") => report.rss_peak_kib = num(f.next(), line)?,
                Some("layer") => {
                    let name: String = num(f.next(), line)?;
                    report
                        .layer
                        .push((name, num(f.next(), line)?, num(f.next(), line)?));
                }
                Some("span") => {
                    let start_ns = num(f.next(), line)?;
                    let end_ns = num(f.next(), line)?;
                    let parent: i64 = num(f.next(), line)?;
                    let item = num(f.next(), line)?;
                    report.spans.push(Span {
                        name: num(f.next(), line)?,
                        start_ns,
                        end_ns,
                        parent: usize::try_from(parent).ok(),
                        item,
                    });
                }
                Some("end") => ended = true,
                _ => return Err(format!("unknown slice report line: {line:?}")),
            }
        }
        if ended {
            Ok(report)
        } else {
            Err("slice report has no end line (child died mid-run?)".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_line_format() {
        let config = SliceConfig {
            workload: Workload::ShorFidelity,
            seed: 7,
            traced: true,
        };
        let mut rec = Recorder::new(config, Instant::now());
        rec.setup_done();
        let results = [(100, 5000, 0.75), (90, 4000, 0.5), (999, 9999, 0.9)];
        for i in 0..Workload::ShorFidelity.slice_items() {
            assert!(rec.wants_item());
            rec.enter("item", i as u64);
            rec.enter("shor.factor", i as u64);
            rec.exit();
            rec.exit();
            rec.item(0.25, i == 1, i != 1, results[i % 3]);
        }
        assert!(!rec.wants_item(), "the count is fixed");
        rec.sample("shor.post_s", 0.001);
        rec.ratio("dd.ct_hit_rate", 3.0, 4.0);
        let report = rec.finish();
        assert_eq!(report.exact.peak_nodes, 999);
        assert_eq!(report.exact.dd_ops, 2 * 5000 + 2 * 4000 + 9999);
        assert_eq!(report.exact.fidelity_min, 0.5);
        assert_eq!(report.failed, 1);
        assert_eq!(report.spans.len(), 10);
        assert!(report.loop_s > 0.0);
        assert_eq!(SliceReport::parse(&report.encode()), Ok(report));
    }

    #[test]
    fn truncated_or_garbled_reports_are_rejected() {
        assert!(SliceReport::parse("setup 0.5\nitem 0.1 0\n").is_err());
        assert!(SliceReport::parse("item fast 0\nend\n").is_err());
        assert!(SliceReport::parse("thread 'main' panicked\nend\n").is_err());
    }

    #[test]
    fn plain_slices_record_no_layer_data() {
        let config = SliceConfig {
            workload: Workload::PoolSweep,
            seed: 1,
            traced: false,
        };
        let mut rec = Recorder::new(config, Instant::now());
        rec.enter("item", 0);
        rec.exit();
        rec.sample("exec.pool_build_s", 0.5);
        let report = rec.finish();
        assert!(report.layer.is_empty() && report.spans.is_empty());
    }
}
