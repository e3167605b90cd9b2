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
    retry: RetryPolicy,
}

impl std::fmt::Debug for SimulatorBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorBuilder")
            .field("options", &self.options)
            .field("seed", &self.seed)
            .field("workers", &self.workers)
            .field("observers", &self.observers.len())
            .field("retry", &self.retry)
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
            retry: RetryPolicy::default(),
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
    /// use approxdd_sim::{ExactPolicy, Simulator};
    ///
    /// let sim = Simulator::builder()
    ///     .policy(|| ExactPolicy)
    ///     .build();
    /// assert_eq!(sim.policy_name(), "exact");
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

    /// The policy factory the built simulator will use.
    #[must_use]
    pub fn current_policy(&self) -> Arc<dyn PolicyFactory> {
        Arc::clone(&self.policy)
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
        assert_eq!(b.current_policy().build().name(), "fidelity-driven");
        let o = &b.options;
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

    #[test]
    fn retry_knob_round_trips() {
        let b = Simulator::builder();
        assert_eq!(b.retry_policy(), RetryPolicy::default());

        let b = Simulator::builder().retry(RetryPolicy::new(3));
        assert_eq!(b.retry_policy().max_attempts, 3);
        // Survives cloning into pool templates.
        assert_eq!(b.clone().retry_policy(), b.retry_policy());
    }
}
