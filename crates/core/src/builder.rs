//! Fluent construction of [`Simulator`]s.
//!
//! [`SimulatorBuilder`] replaces ad-hoc [`SimOptions`] struct mutation
//! at call sites: every knob is a chainable method, and the built
//! simulator carries a deterministic sampling RNG seeded through
//! [`SimulatorBuilder::seed`].

use std::sync::Arc;

use approxdd_circuit::Circuit;

use crate::options::{RetryPolicy, SimOptions, Strategy};
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
/// Beyond the [`Strategy`] presets, [`SimulatorBuilder::policy`]
/// installs any custom [`crate::ApproxPolicy`] and
/// [`SimulatorBuilder::observe`] attaches run-trace observers — see
/// the [`crate::policy`] module docs.
#[derive(Clone)]
#[must_use = "builders do nothing until .build() is called"]
pub struct SimulatorBuilder {
    options: SimOptions,
    seed: Option<u64>,
    workers: Option<usize>,
    policy: Option<Arc<dyn PolicyFactory>>,
    observers: Vec<SharedObserver>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for SimulatorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorBuilder")
            .field("options", &self.options)
            .field("seed", &self.seed)
            .field("workers", &self.workers)
            .field("policy", &self.policy.is_some())
            .field("observers", &self.observers.len())
            .field("retry", &self.retry)
            .finish()
    }
}

impl SimulatorBuilder {
    /// Starts from the default options (exact simulation).
    pub fn new() -> Self {
        Self {
            options: SimOptions::default(),
            seed: None,
            workers: None,
            policy: None,
            observers: Vec::new(),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the approximation strategy (a preset that constructs the
    /// matching [`crate::ApproxPolicy`]). Clears any custom policy set
    /// through [`SimulatorBuilder::policy`] — the last of the two calls
    /// wins, which is what lets per-job strategy overrides in pooled
    /// execution replace a template's policy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.options.strategy = strategy;
        self.policy = None;
        self
    }

    /// Installs a custom approximation policy via its factory — every
    /// run (and, in pooled execution, every job) builds a fresh policy
    /// instance from it. Closures work directly:
    ///
    /// ```
    /// use approxdd_sim::{ExactPolicy, Simulator};
    ///
    /// let sim = Simulator::builder()
    ///     .policy(|| ExactPolicy)
    ///     .build();
    /// assert_eq!(sim.policy_name(), "exact");
    /// ```
    ///
    /// Overrides any [`SimulatorBuilder::strategy`] preset set earlier;
    /// a later `strategy(…)` call clears it again (last call wins).
    pub fn policy<P: PolicyFactory + 'static>(self, factory: P) -> Self {
        self.policy_factory(Arc::new(factory))
    }

    /// [`SimulatorBuilder::policy`] taking an already-shared factory
    /// (what pooled per-job overrides pass through).
    pub fn policy_factory(mut self, factory: Arc<dyn PolicyFactory>) -> Self {
        self.policy = Some(factory);
        self
    }

    /// The policy factory the built simulator will use: the custom one,
    /// or the [`SimulatorBuilder::strategy`] preset.
    #[must_use]
    pub fn policy_factory_or_preset(&self) -> Arc<dyn PolicyFactory> {
        self.policy
            .clone()
            .unwrap_or_else(|| Arc::new(self.options.strategy))
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

    /// Shortcut for [`Strategy::Exact`] (the default).
    pub fn exact(self) -> Self {
        self.strategy(Strategy::Exact)
    }

    /// Shortcut for the paper-text memory-driven strategy
    /// ([`Strategy::memory_driven`], doubling threshold).
    pub fn memory_driven(self, node_threshold: usize, round_fidelity: f64) -> Self {
        self.strategy(Strategy::memory_driven(node_threshold, round_fidelity))
    }

    /// Shortcut for the Table-I memory-driven regime
    /// ([`Strategy::memory_driven_table1`], fixed threshold).
    pub fn memory_driven_table1(self, node_threshold: usize, round_fidelity: f64) -> Self {
        self.strategy(Strategy::memory_driven_table1(
            node_threshold,
            round_fidelity,
        ))
    }

    /// Shortcut for the fidelity-driven strategy
    /// ([`Strategy::fidelity_driven`]).
    pub fn fidelity_driven(self, final_fidelity: f64, round_fidelity: f64) -> Self {
        self.strategy(Strategy::fidelity_driven(final_fidelity, round_fidelity))
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
    /// [`Simulator::draw`] / [`Simulator::draw_counts`] and by
    /// `AnyBackend` in `approxdd_exec::backend`). Unseeded builders use a
    /// fixed default seed, so runs are deterministic either way.
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
    /// DD of a pooled batch into one [`SimSnapshot`] before any worker
    /// started. A snapshot frozen from several circuits is not sound:
    /// the unique table's first-write-wins representatives of one
    /// circuit then become another circuit's gate DDs, and a job's
    /// result bits depend on the rest of its batch. A pool now runs
    /// every batch without a snapshot unless the caller hands it a
    /// snapshot of the one circuit its jobs run
    /// (`BackendPool::run_jobs_with_snapshot`, what the job server's
    /// warm sessions do).
    ///
    /// Kept only so existing callers still compile; it will be deleted.
    pub fn share_snapshot(self, _share: bool) -> Self {
        self
    }

    /// Sets the pool-wide [`RetryPolicy`]: how many attempts a pooled
    /// job may consume when it fails with a *retryable* error (a lost
    /// worker, or an injected test fault). The default never retries.
    /// Plain [`SimulatorBuilder::build`] ignores this knob; the pool
    /// layer (`approxdd-exec`) reads it from the template.
    ///
    /// Retrying is deterministic: job seeds are pure functions of the
    /// job index (never the attempt number), so a retried success is
    /// byte-identical to a first-try success.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// The pool-wide retry policy (see [`SimulatorBuilder::retry`]).
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Builds a frozen [`SimSnapshot`] warming every gate of the given
    /// circuits with this builder's options. Jobs layered over it give
    /// the bits of a snapshot-free run only when they run the one
    /// circuit it was frozen from — what the job server's warm sessions
    /// freeze (see `BackendPool::run_jobs_with_snapshot`).
    ///
    /// # Errors
    ///
    /// Propagates gate-construction errors from the first offending
    /// operation.
    pub fn build_snapshot<'a>(
        &self,
        circuits: impl IntoIterator<Item = &'a Circuit>,
    ) -> crate::Result<SimSnapshot> {
        SimSnapshot::build(&self.options, circuits)
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

    /// Builds the simulator. Policy parameters are validated at
    /// [`Simulator::run`] time (when the policy sees the circuit); use
    /// [`SimulatorBuilder::try_build`] to reject bad strategy presets
    /// eagerly.
    #[must_use = "building a simulator has no side effects"]
    pub fn build(self) -> Simulator {
        self.build_with_snapshot(None)
    }

    /// The one constructor behind [`SimulatorBuilder::build`]:
    /// optionally layers the simulator over a shared frozen snapshot
    /// (an `Arc<SimSnapshot>`, or `Some` of one), so warmed gate DDs
    /// resolve from the snapshot's cache and the package allocates only
    /// above the frozen watermark. `None` builds the plain simulator.
    /// Used by pool workers when a batch comes with a snapshot.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use approxdd_sim::Simulator;
    ///
    /// let circuit = approxdd_circuit::generators::ghz(4);
    /// let builder = Simulator::builder().seed(11);
    /// let snapshot = Arc::new(builder.build_snapshot([&circuit]).unwrap());
    /// let mut sim = builder.build_with_snapshot(snapshot);
    /// let run = sim.run(&circuit).unwrap();
    /// assert!(sim.snapshot_gate_hits() > 0);
    /// assert!((run.stats.fidelity - 1.0).abs() < 1e-12);
    /// ```
    #[must_use = "building a simulator has no side effects"]
    pub fn build_with_snapshot(self, snapshot: impl Into<Option<Arc<SimSnapshot>>>) -> Simulator {
        let factory = self.policy_factory_or_preset();
        let mut sim = Simulator::with_snapshot(self.options, self.sample_seed(), snapshot.into());
        sim.set_policy_factory(factory);
        for observer in self.observers {
            sim.attach_observer(observer);
        }
        sim
    }

    /// Like [`SimulatorBuilder::build`], but validates the
    /// [`SimulatorBuilder::strategy`] preset eagerly — NaN, zero or
    /// out-of-range fidelities and a zero node threshold are rejected
    /// here with a typed [`crate::SimError`] instead of at run time.
    /// (A custom [`SimulatorBuilder::policy`] validates itself when a
    /// run begins, since validation may depend on the circuit.)
    ///
    /// # Errors
    ///
    /// [`crate::SimError::InvalidStrategy`] for out-of-range preset
    /// parameters.
    pub fn try_build(self) -> crate::Result<Simulator> {
        if self.policy.is_none() {
            self.options.validate()?;
        }
        Ok(self.build())
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
            .fidelity_driven(0.5, 0.9)
            .gc_node_threshold(1234)
            .record_size_series(true)
            .seed(7);
        let o = &b.options;
        assert_eq!(
            o.strategy,
            Strategy::FidelityDriven {
                final_fidelity: 0.5,
                round_fidelity: 0.9
            }
        );
        assert_eq!(o.gc_node_threshold, 1234);
        assert!(o.record_size_series);
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
        let snapshot = Arc::new(builder.build_snapshot([&circuit]).unwrap());
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

    #[test]
    fn retry_knob_round_trips() {
        let b = Simulator::builder();
        assert_eq!(b.retry_policy(), RetryPolicy::default());

        let b = Simulator::builder().retry(RetryPolicy::new(3));
        assert_eq!(b.retry_policy().max_attempts, 3);
        // Survives cloning into pool templates.
        assert_eq!(b.clone().retry_policy(), b.retry_policy());
    }

    #[test]
    fn presets_match_strategy_constructors() {
        assert_eq!(
            Simulator::builder().memory_driven(64, 0.9).options.strategy,
            Strategy::memory_driven(64, 0.9)
        );
        assert_eq!(
            Simulator::builder()
                .memory_driven_table1(64, 0.9)
                .options
                .strategy,
            Strategy::memory_driven_table1(64, 0.9)
        );
        assert_eq!(
            Simulator::builder().exact().options.strategy,
            Strategy::Exact
        );
    }
}
