//! The four workloads and the measuring helpers they share.
//!
//! Every workload drives its layers from outside, through public
//! functions only. In a traced slice the same calls are wrapped in
//! spans, runs carry a timestamping observer, and the DD package is
//! probed on the final state of a run; a plain slice does none of that.

mod pool;
mod serve;
mod shor;
mod supremacy;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use approxdd::dd::GateKind;
use approxdd::exec::SeedStream;
use approxdd::sim::{RunResult, SimObserver, SimStats, Simulator, TraceEvent};
use approxdd::telemetry::{self, MetricValue};

use crate::slice::{Recorder, SliceConfig, SliceReport};
use crate::spec::Workload;

/// Runs one slice in this process and returns its report. `origin` is
/// when the process started (set-up time counts from there).
#[must_use]
pub fn run_slice(config: SliceConfig, origin: Instant) -> SliceReport {
    let mut rec = Recorder::new(config, origin);
    match config.workload {
        Workload::SupremacyMemory => supremacy::run(&mut rec),
        Workload::ShorFidelity => shor::run(&mut rec),
        Workload::PoolSweep => pool::run(&mut rec),
        Workload::ServeClosedLoop => serve::run(&mut rec),
    }
    rec.finish()
}

/// Seed `index` of one of a run's seed streams: a pure function of its
/// arguments, so the same `--seed` gives the same inputs in every
/// slice.
#[must_use]
pub fn derived_seed(seed: u64, stream: u64, index: usize) -> u64 {
    SeedStream::new(seed).seed(stream, index as u64)
}

/// Root of the instance streams. The *set* of circuit instances a
/// slice runs is the same for every `--seed` — which is what lets the
/// three exact metrics carry a bound of 0 across seeds; `--seed`
/// chooses the order they run in ([`shuffled`]) and the sampling seeds.
pub const INSTANCE_ROOT: u64 = 0;

/// The order `--seed` puts `n` instances in: a Fisher–Yates shuffle of
/// `0..n` drawn from the seed's [`stream::ORDER`] stream.
#[must_use]
pub fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        let j = derived_seed(seed, stream::ORDER, k) % (k as u64 + 1);
        order.swap(k, j as usize);
    }
    order
}

/// Seed streams (the `domain` argument of [`SeedStream::seed`]); the
/// values only have to differ.
pub mod stream {
    /// Supremacy circuit instances.
    pub const SUPREMACY_INSTANCE: u64 = 0xB0;
    /// Per-item simulator sampling seeds.
    pub const SAMPLING: u64 = 0xB1;
    /// Instance parameters of the pool batches.
    pub const POOL_INSTANCE: u64 = 0xB2;
    /// Never-repeated cold circuits of the serve workload.
    pub const SERVE_COLD: u64 = 0xB3;
    /// The order a slice runs its instances in.
    pub const ORDER: u64 = 0xB4;
}

/// Compute-table lookups a run performed: hits plus misses.
#[must_use]
pub fn ct_lookups(stats: &approxdd::dd::PackageStats) -> u64 {
    stats.ct_hits + stats.ct_misses
}

/// Sums and counts of the telemetry registry's phase histograms, in
/// seconds, keyed by phase name.
#[must_use]
pub fn phase_sums() -> BTreeMap<String, (f64, u64)> {
    let mut out = BTreeMap::new();
    for entry in telemetry::global().snapshot().entries {
        if entry.name != telemetry::PHASE_METRIC {
            continue;
        }
        if let (Some((_, phase)), MetricValue::Histogram(h)) = (
            entry.labels.iter().find(|(k, _)| k == "phase"),
            &entry.value,
        ) {
            out.insert(phase.clone(), (h.sum_seconds(), h.count));
        }
    }
    out
}

/// Seconds and observations a phase gained between two [`phase_sums`]
/// readings.
#[must_use]
pub fn phase_delta(
    before: &BTreeMap<String, (f64, u64)>,
    after: &BTreeMap<String, (f64, u64)>,
    phase: &str,
) -> (f64, f64) {
    let (s0, c0) = before.get(phase).copied().unwrap_or((0.0, 0));
    let (s1, c1) = after.get(phase).copied().unwrap_or((0.0, 0));
    (s1 - s0, (c1 - c0) as f64)
}

/// Records the registry's decomposition of simulator run time over a
/// traced slice: each phase's share of `dd.run`, and the share no phase
/// covers (today mostly the per-gate `vsize` traversal).
pub fn record_phase_shares(
    rec: &mut Recorder,
    before: &BTreeMap<String, (f64, u64)>,
    after: &BTreeMap<String, (f64, u64)>,
) {
    let (run, _) = phase_delta(before, after, "dd.run");
    let mut attributed = 0.0;
    for (phase, metric) in [
        ("dd.apply", "core.phase_apply_share"),
        ("dd.gate_build", "core.phase_gate_build_share"),
        ("dd.truncate", "core.phase_truncate_share"),
        ("dd.gc", "core.phase_gc_share"),
    ] {
        let (seconds, _) = phase_delta(before, after, phase);
        attributed += seconds;
        rec.ratio(metric, seconds, run);
    }
    rec.ratio("core.unattributed_share", run - attributed, run);
}

/// A [`SimObserver`] that timestamps the events which delimit gate
/// steps and truncation rounds.
#[derive(Debug)]
pub struct StepClock {
    last: Instant,
    round_started: Option<Instant>,
    /// Seconds between consecutive events that ended in a gate being
    /// applied: gate build, apply, size accounting, and the policy call
    /// and garbage collection that followed the previous event.
    pub gate_step_s: f64,
    /// Seconds from `RoundStarted` to `Truncated`.
    pub truncate_s: f64,
}

impl StepClock {
    /// A clock behind the shared handle `SimulatorBuilder::observe`
    /// takes.
    #[must_use]
    pub fn shared() -> Arc<Mutex<StepClock>> {
        Arc::new(Mutex::new(StepClock {
            last: Instant::now(),
            round_started: None,
            gate_step_s: 0.0,
            truncate_s: 0.0,
        }))
    }
}

impl SimObserver for StepClock {
    fn on_event(&mut self, event: &TraceEvent) {
        let now = Instant::now();
        match event {
            TraceEvent::GateApplied { .. } => {
                self.gate_step_s += (now - self.last).as_secs_f64();
            }
            TraceEvent::RoundStarted { .. } => self.round_started = Some(now),
            TraceEvent::Truncated { .. } => {
                if let Some(start) = self.round_started.take() {
                    self.truncate_s += (now - start).as_secs_f64();
                }
            }
            _ => {}
        }
        self.last = now;
    }
}

/// Records what one observed run says about the `core` and `dd`
/// layers: the observer's decomposition of run wall time and the
/// package counters.
pub fn record_run(rec: &mut Recorder, stats: &SimStats, clock: &StepClock) {
    let wall = stats.runtime.as_secs_f64();
    rec.sample("core.run_s_p50", wall);
    rec.ratio("core.gate_step_share", clock.gate_step_s, wall);
    rec.ratio("core.truncate_share", clock.truncate_s, wall);
    rec.ratio("core.gates_per_s", stats.gates_applied as f64, wall);
    rec.ratio("core.rounds_per_item", stats.approx_rounds as f64, 1.0);
    rec.ratio(
        "dd.truncate_s_per_round",
        clock.truncate_s,
        stats.approx_rounds as f64,
    );
    record_package(rec, &stats.package);
}

/// Records a finished run's package counters.
pub fn record_package(rec: &mut Recorder, p: &approxdd::dd::PackageStats) {
    rec.ratio("dd.ct_hit_rate", p.ct_hits as f64, ct_lookups(p) as f64);
    rec.ratio(
        "dd.unique_hit_rate",
        p.unique_hits as f64,
        (p.unique_hits + p.unique_misses) as f64,
    );
    rec.ratio(
        "dd.unique_occupancy",
        p.unique_len as f64,
        p.unique_capacity as f64,
    );
    rec.ratio("dd.gc_runs_per_item", p.gc_runs as f64, 1.0);
    rec.sample("dd.peak_vnodes", p.vnodes_peak as f64);
    rec.sample("dd.peak_mnodes", p.mnodes_peak as f64);
}

/// Probes the DD package on the final state of a traced run: one size
/// traversal, one single-qubit gate (H on `target`) applied to the
/// whole state, then a garbage collection with the state released.
/// Consumes the run: its state edge is dead afterwards.
pub fn probe_package(rec: &mut Recorder, sim: &mut Simulator, run: &RunResult, target: usize) {
    let state = run.state();
    let n_qubits = run.n_qubits();
    let (nodes, vsize_s) = rec.timed("dd.vsize", || sim.package().vsize(state));
    rec.ratio("dd.vsize_ns_per_node", vsize_s * 1e9, nodes as f64);

    let h = sim
        .package_mut()
        .single_gate(n_qubits, target % n_qubits, GateKind::H.matrix())
        .expect("H on a qubit inside the register");
    let (_, apply_s) = rec.timed("dd.apply_1q", || sim.package_mut().apply(h, state));
    rec.ratio("dd.apply_1q_ns_per_node", apply_s * 1e9, nodes as f64);

    sim.release(run);
    let (gc, gc_s) = rec.timed("dd.gc", || sim.package_mut().collect_garbage());
    let swept = gc.vnodes_freed + gc.mnodes_freed + gc.vnodes_alive + gc.mnodes_alive;
    rec.ratio("dd.gc_ns_per_node", gc_s * 1e9, swept as f64);
}
