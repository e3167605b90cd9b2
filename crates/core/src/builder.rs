//! Fluent construction of [`Simulator`]s.
//!
//! [`SimulatorBuilder`] replaces ad-hoc [`SimOptions`] struct mutation
//! at call sites: every knob is a chainable method, and the built
//! simulator carries a deterministic sampling RNG seeded through
//! [`SimulatorBuilder::seed`].

use std::sync::Arc;
use std::time::Duration;

use approxdd_circuit::Circuit;

use crate::options::{SimOptions, Strategy};
use crate::policy::{PolicyFactory, SharedObserver, SimObserver};
use crate::simulator::{SimSnapshot, Simulator, DEFAULT_SAMPLE_SEED};

/// Builder for [`Simulator`] — the canonical way to configure a run.
///
/// # Examples
///
/// ```
/// use approxdd_sim::{Simulator, Strategy};
///
/// let mut sim = Simulator::builder()
///     .strategy(Strategy::memory_driven(1 << 12, 0.95))
///     .seed(42)
///     .record_size_series(true)
///     .build();
/// let run = sim.run(&approxdd_circuit::generators::ghz(8)).unwrap();
/// assert_eq!(run.stats.size_series.len(), 8);
/// ```
///
/// The run's approximation policy lives in one slot: a
/// [`PolicyFactory`], [`Strategy::Exact`] until
/// [`SimulatorBuilder::policy`] (or its preset spelling
/// [`SimulatorBuilder::strategy`]) replaces it.
/// [`SimulatorBuilder::observe`] attaches run-trace observers — see
/// the [`crate::policy`] module docs.
#[derive(Clone)]
#[must_use = "builders do nothing until .build() is called"]
pub struct SimulatorBuilder {
    options: SimOptions,
    seed: Option<u64>,
    workers: Option<usize>,
    policy: Arc<dyn PolicyFactory>,
    observers: Vec<SharedObserver>,
}

impl std::fmt::Debug for SimulatorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorBuilder")
            .field("options", &self.options)
            .field("seed", &self.seed)
            .field("workers", &self.workers)
            .field("observers", &self.observers.len())
            .finish_non_exhaustive()
    }
}

impl SimulatorBuilder {
    /// Starts from the default options (exact simulation).
    pub fn new() -> Self {
        Self {
            options: SimOptions::default(),
            seed: None,
            workers: None,
            policy: Arc::new(Strategy::Exact),
            observers: Vec::new(),
        }
    }

    /// [`SimulatorBuilder::policy`] with a [`Strategy`] preset, which
    /// constructs the matching [`crate::ApproxPolicy`].
    pub fn strategy(self, strategy: Strategy) -> Self {
        self.policy(strategy)
    }

    /// Installs a custom approximation policy via its factory — every
    /// run (and, in pooled execution, every job) builds a fresh policy
    /// instance from it. Closures work directly:
    ///
    /// ```
    /// use approxdd_sim::{ApproxPolicy, PolicyAction, PolicyCtx, Simulator};
    ///
    /// struct Never;
    /// impl ApproxPolicy for Never {
    ///     fn name(&self) -> &str {
    ///         "never"
    ///     }
    ///     fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
    ///         PolicyAction::Continue
    ///     }
    /// }
    ///
    /// let sim = Simulator::builder().policy(|| Never).build();
    /// assert_eq!(sim.policy_name(), "never");
    /// ```
    ///
    /// Replaces the policy set by any earlier call.
    pub fn policy<P: PolicyFactory + 'static>(self, factory: P) -> Self {
        self.policy_factory(Arc::new(factory))
    }

    /// [`SimulatorBuilder::policy`] taking an already-shared factory
    /// (what pooled per-job overrides pass through).
    pub fn policy_factory(mut self, factory: Arc<dyn PolicyFactory>) -> Self {
        self.policy = factory;
        self
    }

    /// Gives every run of the built simulator a wall-clock budget. The
    /// clock starts when a run begins, before its policy's
    /// [`crate::ApproxPolicy::begin`], and is checked after every
    /// operation, before the policy decides: past the budget the run
    /// stops with [`crate::SimError::DeadlineExceeded`], whatever the
    /// policy. A single long operation can overshoot it. Unset, runs
    /// have no deadline.
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Attaches a run-trace observer; the built simulator reports every
    /// [`crate::TraceEvent`] to it. Repeatable — each call adds another
    /// observer. Keep your own clone of the handle to read results
    /// back.
    ///
    /// When this builder serves as a **pool template**, every worker's
    /// per-job simulator shares these same observer handles, so events
    /// from concurrently executing jobs interleave in scheduling
    /// (worker-count-dependent) order — fine for aggregate observers
    /// (counters, histograms), wrong for per-run trace consumption.
    /// For a deterministic per-job trace in pooled execution, use the
    /// pool's per-job capture (`PoolJob::trace` in `approxdd-exec`)
    /// instead.
    ///
    /// ```
    /// use approxdd_sim::{Simulator, TraceRecorder};
    ///
    /// let trace = TraceRecorder::shared();
    /// let mut sim = Simulator::builder().observe(trace.clone()).build();
    /// sim.run(&approxdd_circuit::generators::ghz(4)).unwrap();
    /// assert!(!trace.lock().unwrap().events().is_empty());
    /// ```
    pub fn observe<O: SimObserver + Send + 'static>(
        mut self,
        observer: Arc<std::sync::Mutex<O>>,
    ) -> Self {
        self.observers.push(observer);
        self
    }

    /// Sets the package garbage-collection threshold (alive nodes).
    pub fn gc_node_threshold(mut self, nodes: usize) -> Self {
        self.options.gc_node_threshold = nodes;
        self
    }

    /// Sets the `log2` slot count of the DD package's lossy `add`
    /// compute table (clamped to `[2, 26]`; unset → the engine
    /// default of 2^16 slots). Cache size is a pure
    /// time/memory trade — results are bit-identical for every size,
    /// an undersized cache only recomputes more. See the
    /// "Performance" section of the workspace README for tuning notes.
    pub fn compute_cache_bits(mut self, bits: u32) -> Self {
        self.options.compute_cache_bits = Some(bits);
        self
    }

    /// Records the DD size after every gate into
    /// [`crate::SimStats::size_series`].
    pub fn record_size_series(mut self, record: bool) -> Self {
        self.options.record_size_series = record;
        self
    }

    /// Seeds the simulator's owned sampling RNG (used by
    /// [`Simulator::draw`] / [`Simulator::draw_counts`]). Unseeded
    /// builders use a fixed default seed, so runs are deterministic
    /// either way.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Requests `n` worker threads for pooled execution (the
    /// `build_pool()` extension of `approxdd-exec`). Plain
    /// [`SimulatorBuilder::build`] ignores this knob.
    ///
    /// `n == 0` is clamped to 1: a pool with zero workers could never
    /// make progress, and silently accepting it would deadlock every
    /// submission. When the knob is never set, pools fall back to
    /// [`std::thread::available_parallelism`] (see
    /// [`SimulatorBuilder::worker_count`]).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Does nothing, whatever `share` is. It used to freeze every gate
    /// DD of a pooled batch into one [`SimSnapshot`], which made a
    /// job's result bits depend on the rest of its batch. A pool now
    /// runs every batch without a snapshot unless the caller hands it
    /// one built by [`SimulatorBuilder::build_snapshot`] from the
    /// circuit its jobs run (what the job server's warm sessions do).
    ///
    /// Kept only so existing callers still compile; it will be deleted.
    pub fn share_snapshot(self, _share: bool) -> Self {
        self
    }

    /// Builds a [`SimSnapshot`] warming every gate of `circuit` with
    /// this builder's options. Jobs that run `circuit` over it give the
    /// bits of a snapshot-free run — what the job server's warm
    /// sessions keep (see `BackendPool::run_jobs_with_snapshot`).
    ///
    /// # Errors
    ///
    /// Propagates gate-construction errors from the first offending
    /// operation.
    pub fn build_snapshot(&self, circuit: &Circuit) -> crate::Result<SimSnapshot> {
        SimSnapshot::build(&self.options, circuit)
    }

    /// The worker-thread count a pool built from this builder will use:
    /// the clamped [`SimulatorBuilder::workers`] value, or
    /// [`std::thread::available_parallelism`] (minimum 1) when the knob
    /// was never set.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// The sampling seed the built simulator will start from: the value
    /// given to [`SimulatorBuilder::seed`], or a fixed default.
    /// Pooled execution uses this as the root of its per-job seed
    /// stream.
    #[must_use]
    pub fn sample_seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SAMPLE_SEED)
    }

    /// Builds the simulator. Policy parameters are validated when a
    /// run begins ([`Simulator::run`]), where the policy sees the
    /// circuit: an invalid preset fails that run with
    /// [`crate::SimError::InvalidStrategy`].
    #[must_use = "building a simulator has no side effects"]
    pub fn build(self) -> Simulator {
        self.build_with_snapshot(None)
    }

    /// The one constructor behind [`SimulatorBuilder::build`]:
    /// optionally builds the simulator over a shared snapshot (an
    /// `Arc<SimSnapshot>`, or `Some` of one): its package is a
    /// `Package::fork` of the snapshot's, so warmed gate DDs resolve
    /// from the snapshot's cache and new nodes get ids above the fork's
    /// pinned prefix. `None` builds the plain simulator.
    /// Used by pool workers when a batch comes with a snapshot.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use approxdd_sim::Simulator;
    ///
    /// let circuit = approxdd_circuit::generators::ghz(4);
    /// let builder = Simulator::builder().seed(11);
    /// let snapshot = Arc::new(builder.build_snapshot(&circuit).unwrap());
    /// let mut sim = builder.build_with_snapshot(snapshot);
    /// let run = sim.run(&circuit).unwrap();
    /// assert!(sim.snapshot_gate_hits() > 0);
    /// assert!((run.stats.fidelity - 1.0).abs() < 1e-12);
    /// ```
    #[must_use = "building a simulator has no side effects"]
    pub fn build_with_snapshot(self, snapshot: impl Into<Option<Arc<SimSnapshot>>>) -> Simulator {
        let seed = self.sample_seed();
        let mut sim = Simulator::with_snapshot(self.options, seed, snapshot.into(), self.policy);
        for observer in self.observers {
            sim.attach_observer(observer);
        }
        sim
    }
}

impl Default for SimulatorBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;

    #[test]
    fn builder_sets_every_knob() {
        let b = Simulator::builder()
            .strategy(Strategy::fidelity_driven(0.5, 0.9))
            .gc_node_threshold(1234)
            .record_size_series(true)
            .seed(7);
        let o = &b.options;
        assert_eq!(o.gc_node_threshold, 1234);
        assert!(o.record_size_series);
        assert_eq!(o.deadline, None);
        assert_eq!(b.build().policy_name(), "fidelity-driven");
    }

    #[test]
    fn a_deadline_bounds_every_run_of_the_built_simulator() {
        let circuit = generators::ghz(4);
        // A zero budget is spent at the first check: after operation 0.
        let mut sim = Simulator::builder().deadline(Duration::ZERO).build();
        let err = sim.run(&circuit).expect_err("a zero budget is spent");
        assert_eq!(
            err,
            crate::SimError::DeadlineExceeded {
                op_index: 0,
                budget: Duration::ZERO
            }
        );
        assert_eq!(
            err.to_string(),
            "the run exceeded its 0ns deadline after operation 0"
        );
        // The failed run released its root: a collection frees its state.
        sim.package_mut().collect_garbage();
        assert_eq!(sim.package().stats().vnodes_alive, 0);
        // A budget that never runs out changes no bit of the result.
        let long = Duration::from_secs(3600);
        let strategy = Strategy::memory_driven_table1(24, 0.95);
        let run = |builder: SimulatorBuilder| {
            let mut sim = builder.strategy(strategy).build();
            let run = sim.run(&generators::supremacy(2, 3, 14, 2)).unwrap();
            (run.stats.approx_rounds, run.stats.fidelity.to_bits())
        };
        let unbounded = run(Simulator::builder());
        assert!(unbounded.0 > 0, "the threshold must fire");
        assert_eq!(run(Simulator::builder().deadline(long)), unbounded);
    }

    #[test]
    fn seeded_builds_draw_reproducibly() {
        let circuit = generators::ghz(6);
        let mut a = Simulator::builder().seed(99).build();
        let mut b = Simulator::builder().seed(99).build();
        let run_a = a.run(&circuit).unwrap();
        let run_b = b.run(&circuit).unwrap();
        for _ in 0..16 {
            assert_eq!(a.draw(&run_a), b.draw(&run_b));
        }
    }

    #[test]
    fn workers_zero_is_clamped_to_one() {
        assert_eq!(Simulator::builder().workers(0).worker_count(), 1);
        assert_eq!(Simulator::builder().workers(1).worker_count(), 1);
        assert_eq!(Simulator::builder().workers(8).worker_count(), 8);
        // Unset: falls back to the machine's parallelism, never zero.
        assert!(Simulator::builder().worker_count() >= 1);
    }

    #[test]
    fn sample_seed_reports_explicit_or_default() {
        assert_eq!(Simulator::builder().seed(42).sample_seed(), 42);
        assert_eq!(
            Simulator::builder().sample_seed(),
            crate::simulator::DEFAULT_SAMPLE_SEED
        );
    }

    #[test]
    fn snapshot_build_matches_plain_build() {
        let circuit = generators::qft(5);
        let builder = Simulator::builder().seed(3);
        let snapshot = Arc::new(builder.build_snapshot(&circuit).unwrap());
        assert!(snapshot.frozen_nodes() > 0);

        let mut plain = builder.clone().build();
        let mut layered = builder.build_with_snapshot(snapshot);
        let run_p = plain.run(&circuit).unwrap();
        let run_l = layered.run(&circuit).unwrap();
        assert_eq!(run_p.stats.max_dd_size, run_l.stats.max_dd_size);
        assert!(layered.snapshot_gate_hits() > 0);
        // Same seed, same state: sampling draws stay aligned.
        for _ in 0..8 {
            assert_eq!(plain.draw(&run_p), layered.draw(&run_l));
        }
    }
}
