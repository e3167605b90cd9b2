//! The [`BackendPool`]: N worker threads executing backend jobs from a
//! shared channel-based work queue.
//!
//! # One job path
//!
//! Everything the pool executes goes through a single private
//! dispatch/collect/retry loop: a *unit* of work (a run job or a
//! sampling chunk) is dispatched as one task type, answers with one
//! `(key, Result<T>)` reply, and is settled by one retry/degrade
//! ladder. Two public primitives sit directly on that loop:
//!
//! * [`BackendPool::run_jobs_with_snapshot`] — heterogeneous
//!   [`PoolJob`]s, one result slot per job, optionally layered over a
//!   caller-supplied frozen snapshot;
//! * [`BackendPool::sample_counts_streamed`] — one circuit's shot
//!   budget sharded into [`SHOT_CHUNK`]-sized chunks, merged into one
//!   histogram, with a per-chunk settlement callback.
//!
//! [`BackendPool::run_jobs`], [`BackendPool::run_batch`] and
//! [`BackendPool::sample_counts`] are one-line wrappers over them.
//!
//! # Determinism
//!
//! The pool guarantees that the same root seed produces byte-identical
//! results regardless of worker count. Two properties make that hold:
//!
//! * **Seed streams, not shared RNGs.** Every unit derives its sampling
//!   seed from the pool's [`SeedStream`] as a pure function of
//!   `(root seed, domain, unit index)` — never from which worker runs
//!   it, which attempt it is, or in which order the queue drains. Run
//!   job `i` draws with `stream(DOMAIN_RUN, i)`, sampling chunk `i`
//!   with `stream(DOMAIN_SAMPLE, i)`; the chunk size is fixed, so the
//!   chunk decomposition never depends on the worker count, and
//!   histogram merging is commutative.
//! * **Per-job state isolation.** The DD package's unique table
//!   canonicalizes near-equal edge weights first-write-wins (within
//!   tolerance), so a run's low-order float bits can depend on what ran
//!   earlier in the same package. Workers therefore rebuild their
//!   backend from the shared [`SimulatorBuilder`] template for every
//!   run job (and once per sampling request), making each outcome a
//!   pure function of the job itself. The previous job's engine is
//!   dropped *before* its replacement is built, so a worker never holds
//!   two engines, and the dropped engine's compute-table slab is
//!   recycled by the new one (see `approxdd_dd`'s cache provisioning
//!   notes) — construction costs no table fill after a worker's first
//!   job.
//!
//! Copy-on-write snapshots (`SimulatorBuilder::share_snapshot`)
//! preserve both properties while amortizing the per-job rebuild: the
//! batch's gate DDs are frozen **once, on the submitting thread, in
//! input order** into a [`SimSnapshot`], and every worker job layers a
//! private delta package over that shared immutable prefix. The frozen
//! tier pins the canonicalization history a job would have built
//! itself, and the job's GC trigger counts the frozen gate nodes it
//! uses as a private build would, so [`PoolOutcome::fingerprint`] stays
//! byte-identical between snapshot-on and snapshot-off at any worker
//! count — the workspace's `tests/determinism.rs` asserts exactly that.
//!
//! # Fault tolerance
//!
//! The loop self-heals and retries, for run jobs and sampling chunks
//! alike (see `docs/ARCHITECTURE.md` for the lifecycle):
//!
//! * **Supervision.** A worker that dies (a panicking job) is detected
//!   during result collection and respawned into the same slot, so the
//!   pool always returns to full capacity; respawn counts surface in
//!   [`PoolStats::respawns`].
//! * **Deterministic retry.** A [`RetryPolicy`] on the template
//!   re-dispatches units that failed with a retryable error —
//!   [`ExecError::WorkerLost`],
//!   [`ExecError::FaultInjected`], [`ExecError::DeadlineExceeded`].
//!   Re-dispatches go out in rounds, immediately. Seeds are keyed on
//!   the unit index, never the attempt, so a retried success is
//!   byte-identical to a first-try success.
//! * **Deadlines & degradation.** [`PoolJob::deadline`] wraps the
//!   job's policy in a `DeadlinePolicy` that aborts cooperatively
//!   past the cutoff,
//!   surfacing [`ExecError::DeadlineExceeded`]; an optional
//!   [`PoolJob::degrade_with`] fallback policy reruns aborted jobs
//!   coarser (once, without the deadline), marking
//!   [`PoolOutcome::degraded`].
//! * **Fault injection.** [`BackendPool::inject_faults`] installs a
//!   seeded [`FaultPlan`] (test/bench only) that panics workers,
//!   delays jobs, or forces aborts at deterministic job indices.
//!
//! The resilience counters ([`PoolStats::respawns`] /
//! [`PoolStats::retries`] / [`PoolStats::deadline_exceeded`], and
//! [`PoolOutcome::attempts`] / [`PoolOutcome::degraded`]) are
//! diagnostics: all are excluded from [`PoolOutcome::fingerprint`].

use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;
use approxdd_sim::{
    DeadlineFactory, Engine, PolicyFactory, RetryPolicy, SharedObserver, SimError, SimSnapshot,
    SimulatorBuilder, Strategy, TraceEvent, TraceRecorder,
};
use approxdd_telemetry as telemetry;

use crate::backend::{
    run_circuit, AnyBackend, AnyHandle, Backend, BackendStats, ExecError, RunOutcome,
};
use crate::fault::{FaultKind, FaultPlan, InjectedPanic};
use crate::seed::{SeedStream, DOMAIN_RUN, DOMAIN_SAMPLE};
use crate::supervise::Supervisor;

/// How long the collector blocks on the reply channel before taking
/// a supervision tick ([`BackendPool::heal`]). The tick is what breaks
/// the all-workers-dead deadlock: queued tasks hold reply senders, so
/// the channel never disconnects on its own — healing respawns workers
/// that then drain the queue.
const SUPERVISE_TICK: Duration = Duration::from_millis(25);

/// A diagonal observable `Σ f(i) |i⟩⟨i|` evaluated worker-side on a
/// job's final state (shared so heterogeneous job lists clone cheaply).
pub type SharedDiagonal = Arc<dyn Fn(u64) -> f64 + Send + Sync>;

/// Shots per sharded-sampling chunk. Fixed (never derived from the
/// worker count) so the chunk decomposition — and with it every chunk
/// seed — is identical no matter how many workers drain the queue.
pub const SHOT_CHUNK: usize = 2048;

/// One unit of pooled work: a circuit, an optional per-job policy
/// override (sweeps run many configurations over one pool), an
/// optional number of measurement shots to draw after the run, and
/// an optional request to capture the run's trace.
#[derive(Clone)]
pub struct PoolJob {
    circuit: Circuit,
    policy: Option<Arc<dyn PolicyFactory>>,
    shots: usize,
    trace: bool,
    expectation: Option<SharedDiagonal>,
    deadline: Option<Duration>,
    fallback: Option<Arc<dyn PolicyFactory>>,
}

impl std::fmt::Debug for PoolJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolJob")
            .field("circuit", &self.circuit.name())
            .field("policy", &self.policy.is_some())
            .field("shots", &self.shots)
            .field("trace", &self.trace)
            .field("expectation", &self.expectation.is_some())
            .field("deadline", &self.deadline)
            .field("fallback", &self.fallback.is_some())
            .finish()
    }
}

impl PoolJob {
    /// A plain run of `circuit` under the pool template's policy.
    #[must_use]
    pub fn new(circuit: Circuit) -> Self {
        Self {
            circuit,
            policy: None,
            shots: 0,
            trace: false,
            expectation: None,
            deadline: None,
            fallback: None,
        }
    }

    /// Overrides the approximation strategy for this job only:
    /// [`PoolJob::policy`] with a preset, so the last of the two calls
    /// wins, as on the builder.
    #[must_use]
    pub fn strategy(self, strategy: Strategy) -> Self {
        self.policy(strategy)
    }

    /// Overrides the approximation policy for this job only — the
    /// worker builds a fresh policy instance from the factory for this
    /// job (per-job instantiation is what keeps results bit-identical
    /// and worker-count-invariant).
    #[must_use]
    pub fn policy<P: PolicyFactory + 'static>(mut self, factory: P) -> Self {
        self.policy = Some(Arc::new(factory));
        self
    }

    /// Draws `shots` measurement samples after the run (seeded from the
    /// pool's per-job seed stream; reported in
    /// [`PoolOutcome::counts`]).
    #[must_use]
    pub fn shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Captures the run's [`TraceEvent`] stream into
    /// [`PoolOutcome::trace`]. Traces contain no wall-clock data, so
    /// the captured stream of a job is identical regardless of worker
    /// count or scheduling.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Evaluates the diagonal observable `Σ f(i) |i⟩⟨i|` on the job's
    /// final state, worker-side, into [`PoolOutcome::expectation`].
    /// The value is computed on the **raw** (possibly unnormalized)
    /// state — exactly `Σᵢ |aᵢ|² f(i)` — which is what the stochastic
    /// noise-trajectory estimator needs (amplitude-damping trajectories
    /// carry their importance weight in the state norm). Shares the
    /// engine's dense-amplitude width limits.
    #[must_use]
    pub fn expectation(mut self, f: SharedDiagonal) -> Self {
        self.expectation = Some(f);
        self
    }

    /// Sets a wall-clock deadline for this job — the one way to set
    /// one. Enforced cooperatively: the worker wraps the job's policy
    /// in a `DeadlinePolicy` that aborts at the first operation past
    /// the cutoff, surfacing
    /// [`ExecError::DeadlineExceeded`]. Retried attempts keep the
    /// deadline; a degraded attempt ([`PoolJob::degrade_with`]) drops
    /// it.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Installs a degradation fallback: when this job aborts — its
    /// deadline fires, or its policy returns `Abort` — the pool reruns
    /// it **once** under this (presumably coarser) policy instead of
    /// giving up, with no deadline attached (last-resort semantics: the
    /// degraded attempt must be allowed to finish), and marks the
    /// outcome [`PoolOutcome::degraded`]. Degradation takes precedence
    /// over blind retry for abort-style failures and does not consume
    /// a retry attempt beyond the one it spends.
    #[must_use]
    pub fn degrade_with<P: PolicyFactory + 'static>(mut self, factory: P) -> Self {
        self.fallback = Some(Arc::new(factory));
        self
    }

    /// The job's circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}

/// The detached result of one pooled job: unified run statistics plus
/// (optionally) a measurement histogram. Unlike a single-threaded
/// [`RunOutcome`], it holds no engine handle — the worker extracts
/// everything and releases the run before replying, so outcomes are
/// plain data that cross threads freely.
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Name of the executed circuit.
    pub name: String,
    /// Register width.
    pub n_qubits: usize,
    /// Unified run statistics (identical to what a single-threaded
    /// backend run of the same job reports).
    pub stats: BackendStats,
    /// Size of the final state representation: DD node count, or
    /// tableau storage words for stabilizer-engine runs.
    pub final_size: usize,
    /// Measurement histogram when the job requested shots.
    pub counts: Option<HashMap<u64, usize>>,
    /// Worker-side diagonal-observable value when the job requested one
    /// ([`PoolJob::expectation`]).
    pub expectation: Option<f64>,
    /// The run's trace when the job requested it ([`PoolJob::trace`]).
    pub trace: Option<Vec<TraceEvent>>,
    /// Index of the worker that executed the job (diagnostic only —
    /// excluded from [`PoolOutcome::fingerprint`]).
    pub worker: usize,
    /// Total attempts this job consumed (1 = succeeded first try; > 1
    /// means retries happened). Resilience diagnostic — excluded from
    /// [`PoolOutcome::fingerprint`], because a retried success must be
    /// byte-identical to a first-try success.
    pub attempts: u32,
    /// Whether this outcome came from a degraded attempt (the
    /// [`PoolJob::degrade_with`] fallback policy, after an abort).
    /// Excluded from [`PoolOutcome::fingerprint`] like every other
    /// resilience counter — though a degraded run's *result fields*
    /// naturally differ from an undisturbed run's, since a different
    /// policy steered it.
    pub degraded: bool,
}

impl PoolOutcome {
    /// A hash over every deterministic *result* field — everything
    /// except the wall-clock runtime, the executing worker, the trace
    /// (itself deterministic, but an audit artifact rather than a
    /// result), the policy *name* (so a custom policy replicating a
    /// preset's decisions fingerprints identically to the preset), and
    /// the resilience diagnostics ([`PoolOutcome::attempts`] /
    /// [`PoolOutcome::degraded`] — a retried success must fingerprint
    /// identically to a first-try success). Two runs of the same job
    /// under the same root seed produce equal fingerprints regardless
    /// of pool size; the contract suite asserts exactly that.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.name.hash(&mut h);
        self.n_qubits.hash(&mut h);
        self.stats.gates_applied.hash(&mut h);
        self.stats.peak_size.hash(&mut h);
        self.stats.approx_rounds.hash(&mut h);
        self.stats.fidelity.to_bits().hash(&mut h);
        self.stats.fidelity_lower_bound.to_bits().hash(&mut h);
        self.stats.nodes_removed.hash(&mut h);
        self.stats.size_series.hash(&mut h);
        self.final_size.hash(&mut h);
        if let Some(counts) = &self.counts {
            let mut entries: Vec<(u64, usize)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
            entries.sort_unstable();
            entries.hash(&mut h);
        }
        if let Some(expectation) = self.expectation {
            expectation.to_bits().hash(&mut h);
        }
        h.finish()
    }
}

/// Per-worker execution statistics (one entry per thread in
/// [`PoolStats::per_worker`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Times this worker slot's thread died and was respawned, counted
    /// when the thread dies (supervision; [`PoolStats::respawns`] is the
    /// sum over slots).
    pub respawns: usize,
    /// Run jobs executed.
    pub jobs: usize,
    /// Sampling chunks executed.
    pub sample_chunks: usize,
    /// Total measurement shots drawn.
    pub shots_drawn: usize,
    /// Run jobs (not sampling chunks) that returned an error.
    pub failed_jobs: usize,
    /// Time this worker spent executing tasks.
    pub busy: Duration,
    /// Alive DD nodes in this worker's package after its last task.
    pub alive_nodes: usize,
    /// Peak simultaneously-alive DD nodes (both node kinds) over every
    /// backend this worker has owned — the worker's node-memory
    /// high-water mark, accumulated like [`WorkerStats::ct_hits`].
    pub(crate) peak_nodes: usize,
    /// Gate DDs cached in this worker's backend after its last task.
    pub cached_gates: usize,
    /// Compute-table hits (the `add` table, the package's one compute
    /// table) summed over every backend this worker has owned. Run
    /// jobs rebuild the backend per job (see the module docs); retiring
    /// a backend harvests its counters into this running total, so
    /// summing the field across workers covers every executed run job
    /// — a deterministic quantity, independent of which worker ran
    /// what.
    /// Sharded sampling ([`BackendPool::sample_counts`]) is the one
    /// exception: each worker that serves an epoch re-runs the circuit
    /// once, so sampling adds up to one run's counters *per
    /// participating worker* and the cross-worker sum is then
    /// scheduling-dependent (the sampled *histograms* stay exactly
    /// deterministic).
    pub ct_hits: u64,
    /// Compute-cache misses, accumulated like [`WorkerStats::ct_hits`].
    pub ct_misses: u64,
    /// Live unique-table entries in this worker's package after its
    /// last task.
    pub(crate) unique_len: usize,
    /// Unique-table buckets in this worker's package after its last
    /// task.
    pub(crate) unique_capacity: usize,
    /// Unique-table lookups served by a shared snapshot's frozen tier,
    /// accumulated like [`WorkerStats::ct_hits`] (0 when the pool runs
    /// without snapshots).
    pub(crate) snapshot_hits: u64,
    /// Gate-DD lookups served by a shared snapshot's frozen gate cache,
    /// accumulated like [`WorkerStats::ct_hits`] (0 without snapshots).
    pub snapshot_gate_hits: u64,
    /// Alive nodes in the shared frozen prefix this worker's package
    /// layers over (0 without a snapshot).
    pub(crate) frozen_nodes: usize,
}

/// Aggregated pool statistics: wall time, queue pressure and the
/// per-worker node/cache breakdown.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Wall-clock time since the pool was built.
    pub uptime: Duration,
    /// Tasks submitted over the pool's lifetime (run jobs + chunks).
    pub tasks_submitted: usize,
    /// Tasks waiting in the queue (not yet picked up by a worker;
    /// tasks currently executing are not counted).
    pub queue_depth: usize,
    /// High-water mark of [`PoolStats::queue_depth`].
    pub max_queue_depth: usize,
    /// Worker threads respawned after a death over the pool's lifetime
    /// (0 on a healthy run), counted when the thread dies — a caller
    /// that has seen a job lost to a death reads it counted. A
    /// resilience diagnostic, like [`PoolStats::retries`] — never part
    /// of any result fingerprint.
    pub respawns: usize,
    /// Job dispatches beyond each job's first attempt: every retry and
    /// every degraded rerun counts, whether or not it succeeded.
    pub retries: usize,
    /// [`ExecError::DeadlineExceeded`] failures observed, counted
    /// before any retry/degradation decision (a job that blows its
    /// deadline twice counts twice).
    pub deadline_exceeded: usize,
    /// Per-worker breakdown.
    pub per_worker: Vec<WorkerStats>,
}

impl PoolStats {
    /// Total busy time summed over workers (≥ uptime means the pool ran
    /// with real parallelism).
    #[must_use]
    pub fn total_busy(&self) -> Duration {
        self.per_worker.iter().map(|w| w.busy).sum()
    }

    /// Run jobs completed across all workers.
    #[must_use]
    pub fn jobs_completed(&self) -> usize {
        self.per_worker.iter().map(|w| w.jobs).sum()
    }

    /// Measurement shots drawn across all workers.
    #[must_use]
    pub fn shots_drawn(&self) -> usize {
        self.per_worker.iter().map(|w| w.shots_drawn).sum()
    }

    /// Highest peak node count over every package any worker has
    /// owned — the pool's per-package node-memory high-water mark.
    #[must_use]
    pub fn peak_nodes(&self) -> usize {
        self.per_worker
            .iter()
            .map(|w| w.peak_nodes)
            .max()
            .unwrap_or(0)
    }

    /// Unique-table lookups served by shared snapshots' frozen tiers,
    /// summed over workers (0 when the pool runs without snapshots).
    #[must_use]
    pub fn snapshot_hits(&self) -> u64 {
        self.per_worker.iter().map(|w| w.snapshot_hits).sum()
    }

    /// Gate-DD lookups served by shared snapshots' frozen gate caches,
    /// summed over workers (0 without snapshots).
    #[must_use]
    pub fn snapshot_gate_hits(&self) -> u64 {
        self.per_worker.iter().map(|w| w.snapshot_gate_hits).sum()
    }

    /// Alive nodes in the shared frozen prefix worker packages layer
    /// over (the per-worker maximum; 0 without snapshots).
    #[must_use]
    pub fn frozen_nodes(&self) -> usize {
        self.per_worker
            .iter()
            .map(|w| w.frozen_nodes)
            .max()
            .unwrap_or(0)
    }
}

/// A settled sharded-sampling chunk, as seen by the
/// [`BackendPool::sample_counts_streamed`] callback: how far the
/// request has progressed, and a borrowed view of the running merged
/// histogram.
#[derive(Debug)]
pub struct ChunkSettled<'a> {
    /// Total chunks in this request's decomposition.
    pub chunks: usize,
    /// Chunks settled so far, including this one.
    pub settled: usize,
    /// Shots merged so far, including this chunk's.
    pub shots_settled: usize,
    /// The merged histogram after this chunk. Intermediate views are
    /// scheduling-dependent; only the final one (at `settled ==
    /// chunks`) is deterministic.
    pub merged: &'a HashMap<u64, usize>,
}

/// One dispatch of one unit of pooled work — a run job or a sampling
/// chunk — as the collector tracks it and the worker sees it.
#[derive(Clone, Copy)]
struct Dispatch {
    /// The unit's index (job or chunk): its seed key and reply key.
    key: usize,
    /// Zero-based attempt number of this dispatch.
    attempt: u32,
    /// Whether this dispatch runs under the unit's degradation
    /// fallback.
    degraded: bool,
}

/// Counts a worker death where the dispatch is lost: dropped while its
/// thread unwinds out of a task, it books the death in the slot's
/// [`WorkerStats::respawns`] — the one counter [`PoolStats::respawns`]
/// sums — and in `approxdd_pool_respawns_total`. The dying thread is
/// still the cell's only writer; its replacement adopts the cell.
struct DeathCount(Arc<Mutex<WorkerStats>>);

impl Drop for DeathCount {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .respawns += 1;
            telemetry::count("approxdd_pool_respawns_total", 1);
        }
    }
}

/// What travels the queue: one dispatch, already bound to its work and
/// to the reply channel of the submission that collects it. A worker
/// just runs it, so run jobs and sampling chunks share every line of
/// the queue, the worker loop and the collector.
struct Task {
    /// Submission time, for queue-wait telemetry only: it never
    /// influences scheduling or results.
    enqueued: Instant,
    run: Box<dyn FnOnce(&mut Worker) + Send>,
}

/// What the collector does with a failed dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The error is the unit's result.
    Final,
    /// Re-dispatch the unit unchanged, as its next attempt.
    Retry,
    /// Re-dispatch the unit under its fallback policy, without a
    /// deadline.
    Degrade,
}

/// The retry/degrade ladder, as a pure function of one failure.
///
/// An abort (a blown deadline, or the policy's own `Abort`) of a unit
/// that has a fallback degrades — once: rerunning the identical policy
/// would just abort again, and a degraded attempt never degrades a
/// second time. Otherwise a retryable error (a lost worker, an injected
/// fault, a blown deadline) is retried while `retry` has attempts left,
/// and everything else is final.
pub(crate) fn verdict(
    err: &ExecError,
    attempt: u32,
    degraded: bool,
    retry: RetryPolicy,
    has_fallback: bool,
) -> Verdict {
    let abort = matches!(
        err,
        ExecError::DeadlineExceeded { .. } | ExecError::Sim(SimError::PolicyAbort { .. })
    );
    let retryable = matches!(
        err,
        ExecError::WorkerLost { .. }
            | ExecError::FaultInjected { .. }
            | ExecError::DeadlineExceeded { .. }
    );
    if abort && !degraded && has_fallback {
        Verdict::Degrade
    } else if retryable && attempt + 1 < retry.max_attempts {
        Verdict::Retry
    } else {
        Verdict::Final
    }
}

/// A fixed-size pool of worker threads, each owning an [`AnyBackend`]
/// built from a shared [`SimulatorBuilder`] template (the template's
/// `engine` knob selects DD, stabilizer or hybrid execution), running
/// jobs and sampling chunks from one channel-based work queue.
///
/// Build one through the builder —
/// `Simulator::builder().workers(4).build_pool()` (see [`BuildPool`]).
/// There are two ways to submit work, and both run on the same private
/// dispatch/collect/retry loop:
///
/// * [`BackendPool::run_jobs_with_snapshot`] runs a list of
///   [`PoolJob`]s. [`BackendPool::run_jobs`] is the same call with the
///   per-batch snapshot the template asks for, and
///   [`BackendPool::run_batch`] is `run_jobs` over plain circuits.
/// * [`BackendPool::sample_counts_streamed`] shards one circuit's shot
///   budget across the workers. [`BackendPool::sample_counts`] is the
///   same call without a policy override or a progress callback.
///
/// All five take `&self` and may be called from multiple threads;
/// results are invariant under worker count (see the module docs for
/// the determinism contract).
///
/// ```
/// use approxdd_exec::BuildPool;
/// use approxdd_circuit::generators;
/// use approxdd_sim::Simulator;
///
/// # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
/// // share_snapshot(true): gate DDs for the batch are frozen once and
/// // shared across workers — same bits, less per-job rebuild work.
/// let pool = Simulator::builder()
///     .workers(2)
///     .seed(7)
///     .share_snapshot(true)
///     .build_pool();
/// let circuits = vec![generators::qft(6); 4];
/// let outcomes = pool.run_batch(&circuits)?;
/// assert_eq!(outcomes.len(), 4);
/// assert!(pool.stats().snapshot_gate_hits() > 0);
/// # Ok(())
/// # }
/// ```
///
/// Dropping the pool closes the queue and joins every worker.
#[derive(Debug)]
pub struct BackendPool {
    sender: Option<mpsc::Sender<Task>>,
    template: SimulatorBuilder,
    supervisor: Supervisor,
    worker_stats: Vec<Arc<Mutex<WorkerStats>>>,
    /// Kept so [`BackendPool::heal`] can hand the shared queue to
    /// respawned workers (and so the send side never observes a
    /// disconnected channel while the pool is alive).
    receiver: Arc<Mutex<mpsc::Receiver<Task>>>,
    queue_depth: Arc<AtomicUsize>,
    max_queue_depth: AtomicUsize,
    tasks_submitted: AtomicUsize,
    epoch: AtomicU64,
    seeds: SeedStream,
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    retries: AtomicUsize,
    deadline_exceeded: AtomicUsize,
    created: Instant,
}

impl BackendPool {
    /// Builds a pool from a simulator template, taking the worker count
    /// from [`SimulatorBuilder::worker_count`] (the `workers(n)` knob,
    /// clamped to ≥ 1; default: the machine's available parallelism).
    #[must_use]
    pub fn new(template: SimulatorBuilder) -> Self {
        let workers = template.worker_count();
        let (sender, receiver) = mpsc::channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let worker_stats: Vec<_> = (0..workers)
            .map(|worker| {
                Arc::new(Mutex::new(WorkerStats {
                    worker,
                    ..WorkerStats::default()
                }))
            })
            .collect();
        let handles = (0..workers)
            .map(|slot| {
                spawn_worker(
                    slot,
                    &template,
                    &receiver,
                    &queue_depth,
                    &worker_stats[slot],
                )
            })
            .collect();
        Self {
            sender: Some(sender),
            seeds: SeedStream::new(template.sample_seed()),
            template,
            supervisor: Supervisor::new(handles),
            worker_stats,
            receiver,
            queue_depth,
            max_queue_depth: AtomicUsize::new(0),
            tasks_submitted: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            fault_plan: Mutex::new(None),
            retries: AtomicUsize::new(0),
            deadline_exceeded: AtomicUsize::new(0),
            created: Instant::now(),
        }
    }

    /// Number of worker slots (fixed for the pool's lifetime; a dead
    /// worker's slot is respawned, never removed — see
    /// [`BackendPool::alive_workers`]).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.supervisor.worker_count()
    }

    /// Worker threads currently running. Less than
    /// [`BackendPool::workers`] only between a worker death and the
    /// next supervision tick, which restores full capacity.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.supervisor.alive()
    }

    /// Respawns every dead worker thread into its original slot (same
    /// index, same [`WorkerStats`] cell, accumulated counters
    /// preserved). The collector calls this on a timer tick and once
    /// per round. The death itself was already counted, by the dying
    /// task (see [`DeathCount`]).
    fn heal(&self) {
        self.supervisor.heal(|slot| {
            spawn_worker(
                slot,
                &self.template,
                &self.receiver,
                &self.queue_depth,
                &self.worker_stats[slot],
            )
        });
    }

    /// Installs (or, with `None`, clears) a fault-injection plan for
    /// subsequent run-job submissions. Test/bench only: injected faults
    /// exercise the supervision, retry and deadline machinery at
    /// deterministic job indices (the `DOMAIN_FAULT` seed stream — see
    /// [`FaultPlan`]). No production path installs one.
    pub fn inject_faults(&self, plan: Option<FaultPlan>) {
        *self
            .fault_plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = plan.map(Arc::new);
    }

    /// The root seed of the pool's per-job seed stream.
    #[must_use]
    pub fn root_seed(&self) -> u64 {
        self.seeds.root()
    }

    /// [`BackendPool::run_jobs`] over plain circuits under the pool
    /// template's policy, failing on the first per-job error (all jobs
    /// still execute; call `run_jobs` to keep partial results).
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing job's error.
    pub fn run_batch(&self, circuits: &[Circuit]) -> Result<Vec<PoolOutcome>, ExecError> {
        let jobs = circuits.iter().cloned().map(PoolJob::new).collect();
        self.run_jobs(jobs).into_iter().collect()
    }

    /// [`BackendPool::run_jobs_with_snapshot`] with the per-batch
    /// snapshot the template asks for: when `share_snapshot` is on,
    /// every gate of every job circuit is warmed **on this (submitting)
    /// thread, in input order**, so the frozen prefix is a pure
    /// function of the job list — never of worker count or scheduling.
    /// No snapshot is built when the knob is off, for the pure-tableau
    /// engine (no DD package to share), or when warming fails (the
    /// per-job run then reports the error in its own slot).
    #[must_use]
    pub fn run_jobs(&self, jobs: Vec<PoolJob>) -> Vec<Result<PoolOutcome, ExecError>> {
        let template = &self.template;
        let snapshot = (template.share_snapshot_enabled()
            && template.engine_kind() != Engine::Stabilizer)
            .then(|| template.build_snapshot(jobs.iter().map(PoolJob::circuit)))
            .and_then(Result::ok)
            .map(Arc::new);
        self.run_jobs_with_snapshot(jobs, snapshot)
    }

    /// The run primitive: runs heterogeneous jobs (per-job policies,
    /// shot counts, deadlines, …) across the workers, returning one
    /// result per job in input order. A failing job never disturbs the
    /// others: each failure is confined to its own slot.
    ///
    /// Job `i` samples with seed `stream(DOMAIN_RUN, i)` — keyed on the
    /// job index alone, never the attempt, so a retried success is
    /// byte-identical to a first-try success. A job whose worker
    /// disappears mid-flight is re-dispatched when its [`RetryPolicy`]
    /// allows, and otherwise reports [`ExecError::WorkerLost`] in its
    /// slot instead of hanging the collection; dead workers are healed
    /// along the way (see the module docs, *Fault tolerance*).
    ///
    /// `snapshot` is the frozen prefix every job's engine layers over,
    /// which makes this the cross-batch reuse seam behind warm serving
    /// sessions: the caller freezes a circuit family once (e.g.
    /// [`SimulatorBuilder::build_snapshot`]) and passes the same `Arc`
    /// to every subsequent batch of that family — gate DDs are never
    /// rebuilt, and because a snapshot is a pure function of (options,
    /// circuit list) the outcomes stay byte-identical to a cold
    /// [`BackendPool::run_jobs`] call (the snapshot clause of the
    /// determinism contract, `tests/determinism.rs`). `None` runs the
    /// batch snapshot-free, regardless of the template's
    /// `share_snapshot` knob. The pure-tableau engine has no DD
    /// package: a supplied snapshot is ignored there.
    #[must_use]
    pub fn run_jobs_with_snapshot(
        &self,
        jobs: Vec<PoolJob>,
        snapshot: Option<Arc<SimSnapshot>>,
    ) -> Vec<Result<PoolOutcome, ExecError>> {
        let snapshot = snapshot.filter(|_| self.template.engine_kind() != Engine::Stabilizer);
        let fault = self
            .fault_plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let seeds = self.seeds;
        let has_fallback: Vec<bool> = jobs.iter().map(|job| job.fallback.is_some()).collect();
        let mut results: Vec<_> = jobs.iter().map(|_| None).collect();
        self.drive(
            "run",
            jobs.len(),
            |index| has_fallback[index],
            // The job list moves into the work closure, which `drive`
            // shares behind one `Arc`: every attempt of every job, on
            // whichever worker it lands, reads the same copy.
            move |worker, dispatch| {
                let job = &jobs[dispatch.key];
                // A degraded attempt drops the deadline: the coarser
                // fallback is the last resort and must be allowed to
                // finish.
                let deadline = if dispatch.degraded {
                    None
                } else {
                    job.deadline
                };
                worker.booked(true, job.shots, |worker| {
                    worker.run_job(
                        job,
                        dispatch,
                        seeds.seed(DOMAIN_RUN, dispatch.key as u64),
                        snapshot.clone(),
                        deadline,
                        fault.as_deref(),
                    )
                })
            },
            |index, result| {
                results[index] = Some(result);
                Ok(())
            },
        )
        .expect("run jobs settle into their own slots");
        results
            .into_iter()
            .map(|slot| slot.expect("every job settles exactly once"))
            .collect()
    }

    /// [`BackendPool::sample_counts_streamed`] under the template's
    /// policy, without a progress callback.
    ///
    /// # Errors
    ///
    /// See [`BackendPool::sample_counts_streamed`].
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots: usize,
    ) -> Result<HashMap<u64, usize>, ExecError> {
        self.sample_counts_streamed(circuit, None, shots, &mut |_| {})
    }

    /// The sampling primitive: draws `shots` measurement outcomes of
    /// `circuit` as a histogram, sharding the shot budget across the
    /// workers in chunks of [`SHOT_CHUNK`]. `strategy` overrides the
    /// template's policy for this call (e.g. sampling an approximate
    /// run's distribution).
    ///
    /// Each worker runs the circuit once (deterministically, on fresh
    /// state) and then serves chunks from its cached final state, so
    /// large shot counts amortize the simulation cost across the pool.
    /// Chunk `i` always draws with seed `stream(DOMAIN_SAMPLE, i)` and
    /// merging is commutative, so the merged histogram is a pure
    /// function of (root seed, circuit, policy, shots) — calling this
    /// twice, or with a different worker count, yields identical
    /// counts.
    ///
    /// `on_chunk` is invoked once per sampling chunk, right after its
    /// histogram merges, with a [`ChunkSettled`] view of the running
    /// totals — the streaming seam serving layers use to push partial
    /// histograms to clients while the shot budget drains. The
    /// *settlement order* — and with it every intermediate partial
    /// view — depends on scheduling, so partials are progress reports,
    /// not reproducible results. A chunk lost to a dying worker is
    /// re-dispatched under the template's [`RetryPolicy`] and settles
    /// (and reports) once, with its original seed.
    ///
    /// # Errors
    ///
    /// The first chunk error to arrive — preparation/execution errors
    /// fail the whole request — or [`ExecError::WorkerLost`] if workers
    /// died before serving every chunk.
    pub fn sample_counts_streamed(
        &self,
        circuit: &Circuit,
        strategy: Option<Strategy>,
        shots: usize,
        on_chunk: &mut dyn FnMut(&ChunkSettled),
    ) -> Result<HashMap<u64, usize>, ExecError> {
        // The epoch invalidates the workers' cached run state; chunk
        // *seeds* are keyed on the chunk index alone so repeated calls
        // (and retried chunks) stay reproducible.
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        let chunks = shots.div_ceil(SHOT_CHUNK);
        let chunk_shots = move |chunk: usize| SHOT_CHUNK.min(shots - chunk * SHOT_CHUNK);
        let seeds = self.seeds;
        let circuit = circuit.clone();
        let policy = strategy.map(|s| Arc::new(s) as Arc<dyn PolicyFactory>);
        let mut merged: HashMap<u64, usize> = HashMap::new();
        let mut settled = 0;
        let mut shots_settled = 0;
        self.drive(
            "sample",
            chunks,
            |_| false,
            move |worker, dispatch| {
                let size = chunk_shots(dispatch.key);
                let seed = seeds.seed(DOMAIN_SAMPLE, dispatch.key as u64);
                worker.booked(false, size, |worker| {
                    worker.sample_chunk(epoch, &circuit, policy.as_ref(), size, seed)
                })
            },
            |chunk, result| {
                for (outcome, count) in result? {
                    *merged.entry(outcome).or_insert(0) += count;
                }
                settled += 1;
                shots_settled += chunk_shots(chunk);
                on_chunk(&ChunkSettled {
                    chunks,
                    settled,
                    shots_settled,
                    merged: &merged,
                });
                Ok(())
            },
        )?;
        Ok(merged)
    }

    /// The one execution path: dispatches units `0..units` to the
    /// workers and collects one final result per unit.
    ///
    /// `work` is what a worker does for one dispatch; `has_fallback`
    /// says whether a unit has a degradation fallback (every unit
    /// retries under the template's [`RetryPolicy`]); `settle` receives each unit's final result, in arrival order,
    /// and may fail the whole submission (queued dispatches then run
    /// into a closed reply channel).
    ///
    /// Dispatches go out in rounds, in unit order. A round blocks on
    /// its reply channel with a supervision tick — dead workers strand
    /// queued tasks, and every queued task holds a reply sender, so the
    /// channel never disconnects by itself; healing lets replacements
    /// drain the queue. A dispatch that never replied rode a dying
    /// worker down and is settled as [`ExecError::WorkerLost`]. Every
    /// failure goes through [`verdict`]; retried and degraded units
    /// form the next round. The resilience counters are bumped here —
    /// once per observation, before any retry decision — which is what
    /// makes their totals worker-count-invariant.
    fn drive<T: Send + 'static>(
        &self,
        kind: &'static str,
        units: usize,
        has_fallback: impl Fn(usize) -> bool,
        work: impl Fn(&mut Worker, Dispatch) -> Result<T, ExecError> + Send + Sync + 'static,
        mut settle: impl FnMut(usize, Result<T, ExecError>) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let work = Arc::new(work);
        let retry = self.template.retry_policy();
        let mut pending: Vec<Dispatch> = (0..units)
            .map(|key| Dispatch {
                key,
                attempt: 0,
                degraded: false,
            })
            .collect();
        while !pending.is_empty() {
            pending.sort_unstable_by_key(|dispatch| dispatch.key);
            let (reply, replies) = mpsc::channel();
            let mut outstanding = BTreeMap::new();
            for dispatch in std::mem::take(&mut pending) {
                outstanding.insert(dispatch.key, dispatch);
                let work = Arc::clone(&work);
                let reply = reply.clone();
                self.submit(kind, move |worker| {
                    // Declared before the guard, so dropped after it:
                    // when `work` panics the death is on the books
                    // before the collector can see the reply sender go.
                    let reply = reply;
                    let _death = DeathCount(Arc::clone(&worker.published));
                    let _ = reply.send((dispatch.key, work(worker, dispatch)));
                });
            }
            drop(reply);
            let mut route = |dispatch: Dispatch, result: Result<T, ExecError>| {
                let Dispatch {
                    key,
                    attempt,
                    degraded,
                } = dispatch;
                let next = match &result {
                    Ok(_) => Verdict::Final,
                    Err(err) => {
                        if matches!(err, ExecError::DeadlineExceeded { .. }) {
                            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                            telemetry::count("approxdd_pool_deadline_exceeded_total", 1);
                        }
                        verdict(err, attempt, degraded, retry, has_fallback(key))
                    }
                };
                if next == Verdict::Final {
                    return settle(key, result);
                }
                self.retries.fetch_add(1, Ordering::Relaxed);
                telemetry::count("approxdd_pool_retries_total", 1);
                pending.push(Dispatch {
                    key,
                    attempt: attempt + 1,
                    degraded: degraded || next == Verdict::Degrade,
                });
                Ok(())
            };
            while !outstanding.is_empty() {
                match replies.recv_timeout(SUPERVISE_TICK) {
                    Ok((key, result)) => {
                        if let Some(dispatch) = outstanding.remove(&key) {
                            route(dispatch, result)?;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.heal();
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            for (job, dispatch) in outstanding {
                let attempt = dispatch.attempt;
                route(dispatch, Err(ExecError::WorkerLost { job, attempt }))?;
            }
            self.heal();
        }
        Ok(())
    }

    /// A statistics snapshot: wall time, queue pressure, per-worker
    /// node/cache state.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let per_worker: Vec<WorkerStats> = self
            .worker_stats
            .iter()
            .map(|cell| cell.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        PoolStats {
            workers: self.workers(),
            uptime: self.created.elapsed(),
            tasks_submitted: self.tasks_submitted.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            respawns: per_worker.iter().map(|w| w.respawns).sum(),
            retries: self.retries.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            per_worker,
        }
    }

    fn submit(&self, kind: &'static str, run: impl FnOnce(&mut Worker) + Send + 'static) {
        self.tasks_submitted.fetch_add(1, Ordering::Relaxed);
        telemetry::count_with("approxdd_pool_tasks_total", &[("kind", kind)], 1);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let task = Task {
            enqueued: Instant::now(),
            run: Box::new(run),
        };
        let sent = self.sender.as_ref().is_some_and(|tx| tx.send(task).is_ok());
        if !sent {
            // Every worker is gone; dropping the task drops its reply
            // sender, which surfaces as WorkerLost at the collector.
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for BackendPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        self.supervisor.join_all();
    }
}

/// Extension hook giving [`SimulatorBuilder`] a direct path into the
/// pooled execution layer:
/// `Simulator::builder().workers(4).build_pool()`.
pub trait BuildPool {
    /// Builds a [`BackendPool`] from this template (worker count and
    /// root seed from the builder; see
    /// [`SimulatorBuilder::worker_count`] and
    /// [`SimulatorBuilder::sample_seed`]).
    fn build_pool(self) -> BackendPool;
}

impl BuildPool for SimulatorBuilder {
    fn build_pool(self) -> BackendPool {
        BackendPool::new(self)
    }
}

/// Why `Worker::backend` can be unwrapped after `fresh_backend`.
const BACKEND_BUILT: &str = "fresh_backend built this task's engine";

/// Folds `backend`'s package counters into `stats`. The cumulative ones
/// (cache and snapshot hits, the node high-water mark) add on top of
/// what `stats` holds; the gauges (alive nodes, table occupancy, cached
/// gates) are overwritten. The pure-tableau engine owns no DD package
/// and a worker without an engine has nothing to report: both
/// contribute zeros.
fn absorb(stats: &mut WorkerStats, backend: Option<&AnyBackend>) {
    let pkg = backend
        .and_then(AnyBackend::package_stats)
        .unwrap_or_default();
    stats.ct_hits += pkg.ct_hits;
    stats.ct_misses += pkg.ct_misses;
    stats.peak_nodes = stats.peak_nodes.max(pkg.peak_nodes());
    stats.snapshot_hits += pkg.snapshot_hits;
    stats.snapshot_gate_hits += backend.map_or(0, AnyBackend::snapshot_gate_hits);
    stats.alive_nodes = pkg.vnodes_alive + pkg.mnodes_alive;
    stats.unique_len = pkg.unique_len;
    stats.unique_capacity = pkg.unique_capacity;
    stats.frozen_nodes = pkg.frozen_nodes();
    stats.cached_gates = backend.map_or(0, AnyBackend::gate_cache_len);
}

struct Worker {
    template: SimulatorBuilder,
    /// The current unit's engine: `None` before the first task, and
    /// while [`Worker::fresh_backend`] builds the next one.
    backend: Option<AnyBackend>,
    /// The sampling request this worker last simulated for, with that
    /// run's outcome. A failed run is kept too, so the request's
    /// remaining chunks answer with its error instead of re-running it.
    epoch: Option<(u64, Result<RunOutcome<AnyHandle>, ExecError>)>,
    /// This worker's books: the task counters, plus the package
    /// counters of every engine it has retired (each run job rebuilds
    /// the backend, so the live package only covers the current job).
    /// Summed across workers the latter cover every executed job —
    /// deterministic regardless of scheduling.
    totals: WorkerStats,
    /// Where [`Worker::booked`] publishes `totals` plus the live
    /// engine's counters, for [`BackendPool::stats`].
    published: Arc<Mutex<WorkerStats>>,
    /// Times every engine construction (`backend.build` on `/metrics`).
    build_timer: telemetry::PhaseTimer,
    run_timer: telemetry::PhaseTimer,
    sample_timer: telemetry::PhaseTimer,
}

impl Worker {
    /// Runs one task body and books it: busy time, the task and shot
    /// counters, and a fresh [`WorkerStats`] publication.
    fn booked<T>(
        &mut self,
        is_run: bool,
        shots: usize,
        task: impl FnOnce(&mut Self) -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        let start = Instant::now();
        let result = task(self);
        let busy = start.elapsed();
        let totals = &mut self.totals;
        if is_run {
            self.run_timer.observe(busy);
            totals.jobs += 1;
            totals.failed_jobs += usize::from(result.is_err());
        } else {
            self.sample_timer.observe(busy);
            totals.sample_chunks += 1;
        }
        if result.is_ok() {
            totals.shots_drawn += shots;
        }
        totals.busy += busy;
        let mut report = totals.clone();
        absorb(&mut report, self.backend.as_ref());
        *self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = report;
        result
    }

    /// Replaces the backend with a fresh instance built from the
    /// template (plus an optional policy override), layered over the
    /// batch's shared frozen snapshot when one was built. Job isolation
    /// is the pool's determinism linchpin — see the module docs.
    ///
    /// When the job carries a `deadline`, whatever policy it ended up
    /// with is wrapped in a [`DeadlineFactory`] — per-job overrides and
    /// degradation fallbacks stay deadline-enforced alike. Returns the
    /// deadline's fired flag so the caller can tell a deadline abort
    /// from a policy's own abort.
    fn fresh_backend(
        &mut self,
        policy: Option<&Arc<dyn PolicyFactory>>,
        snapshot: Option<Arc<SimSnapshot>>,
        deadline: Option<Duration>,
    ) -> Option<Arc<AtomicBool>> {
        // Harvest, then release the old engine (its outcome handle
        // first) before the new one exists: the worker peaks at one
        // arena, unique-table and cache set, not two.
        self.epoch = None;
        absorb(&mut self.totals, self.backend.take().as_ref());
        let mut template = self.template.clone();
        if let Some(factory) = policy {
            template = template.policy_factory(Arc::clone(factory));
        }
        let mut fired = None;
        if let Some(budget) = deadline {
            let factory = DeadlineFactory::new(template.policy_factory_or_preset(), budget);
            fired = Some(factory.fired_flag());
            template = template.policy_factory(Arc::new(factory));
        }
        self.backend = Some(
            self.build_timer
                .time(|| AnyBackend::build(template, snapshot)),
        );
        fired
    }

    /// Executes one dispatch of a run job: fires any injected fault
    /// first (before touching the backend, so a panic can never lose
    /// harvested counters or leave a half-built package), selects the
    /// degraded fallback policy when asked, and maps a
    /// deadline-triggered abort to the typed
    /// [`ExecError::DeadlineExceeded`].
    fn run_job(
        &mut self,
        job: &PoolJob,
        dispatch: Dispatch,
        seed: u64,
        snapshot: Option<Arc<SimSnapshot>>,
        deadline: Option<Duration>,
        fault: Option<&FaultPlan>,
    ) -> Result<PoolOutcome, ExecError> {
        let Dispatch {
            key: index,
            attempt,
            degraded,
        } = dispatch;
        match fault.and_then(|plan| plan.decide(index, attempt)) {
            Some(FaultKind::Panic) => std::panic::panic_any(InjectedPanic {
                job: index,
                attempt,
            }),
            Some(FaultKind::Delay(delay)) => thread::sleep(delay),
            Some(FaultKind::Abort) => {
                return Err(ExecError::FaultInjected {
                    job: index,
                    attempt,
                })
            }
            None => {}
        }
        let policy = job
            .fallback
            .as_ref()
            .filter(|_| degraded)
            .or(job.policy.as_ref());
        let fired = self.fresh_backend(policy, snapshot, deadline);
        let result = self.execute(job, dispatch, seed);
        let deadline_fired = fired.is_some_and(|flag| flag.load(Ordering::Relaxed));
        match result {
            Err(ExecError::Sim(SimError::PolicyAbort { .. })) if deadline_fired => {
                Err(ExecError::DeadlineExceeded {
                    job: index,
                    attempt,
                    budget: deadline.unwrap_or_default(),
                })
            }
            other => other,
        }
    }

    /// The run body proper (backend already fresh).
    fn execute(
        &mut self,
        job: &PoolJob,
        dispatch: Dispatch,
        seed: u64,
    ) -> Result<PoolOutcome, ExecError> {
        let backend = self.backend.as_mut().expect(BACKEND_BUILT);
        let recorder = job.trace.then(|| {
            let recorder = TraceRecorder::shared();
            backend.attach_observer(recorder.clone() as SharedObserver);
            recorder
        });
        let outcome = run_circuit(backend, &job.circuit)?;
        let counts = (job.shots > 0).then(|| {
            backend.reseed(seed);
            backend.sample_counts(&outcome, job.shots)
        });
        // Capture the (fallible) observable value but release the
        // outcome before propagating any error: an early return here
        // would otherwise pin the run's GC roots until this worker's
        // next job rebuilds its backend.
        let expectation = job
            .expectation
            .as_ref()
            .map(|f| backend.expectation(&outcome, &**f));
        let final_size = backend.final_size(&outcome);
        let stats = outcome.stats.clone();
        let n_qubits = outcome.n_qubits();
        backend.release(outcome);
        let expectation = expectation.transpose()?;
        let trace = recorder.map(|recorder| {
            recorder
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
        });
        Ok(PoolOutcome {
            name: job.circuit.name().to_string(),
            n_qubits,
            stats,
            final_size,
            counts,
            expectation,
            trace,
            worker: self.totals.worker,
            attempts: dispatch.attempt + 1,
            degraded: dispatch.degraded,
        })
    }

    /// Draws one sampling chunk from the request's final state,
    /// simulating the circuit first if this worker has not yet done so
    /// for this `epoch` (request).
    fn sample_chunk(
        &mut self,
        epoch: u64,
        circuit: &Circuit,
        policy: Option<&Arc<dyn PolicyFactory>>,
        shots: usize,
        seed: u64,
    ) -> Result<HashMap<u64, usize>, ExecError> {
        if self.epoch.as_ref().map(|(e, _)| *e) != Some(epoch) {
            self.fresh_backend(policy, None, None);
            let backend = self.backend.as_mut().expect(BACKEND_BUILT);
            self.epoch = Some((epoch, run_circuit(backend, circuit)));
        }
        let (_, outcome) = self.epoch.as_ref().expect("epoch state just ensured");
        let outcome = outcome.as_ref().map_err(ExecError::clone)?;
        let backend = self.backend.as_mut().expect(BACKEND_BUILT);
        backend.reseed(seed);
        Ok(backend.sample_counts(outcome, shots))
    }
}

/// Spawns the worker thread of `slot`, publishing into `stats`. A
/// respawned worker adopts the slot's published counters, so the
/// harvest-on-retire totals survive a predecessor's death (all zeros on
/// a first spawn — same code path). Injected panics fire before any
/// backend work, so the dying worker's live package was already
/// reflected in the cell by its last task. While the thread lives it is
/// the cell's only writer.
fn spawn_worker(
    slot: usize,
    template: &SimulatorBuilder,
    queue: &Arc<Mutex<mpsc::Receiver<Task>>>,
    depth: &Arc<AtomicUsize>,
    stats: &Arc<Mutex<WorkerStats>>,
) -> thread::JoinHandle<()> {
    let template = template.clone();
    let queue = Arc::clone(queue);
    let depth = Arc::clone(depth);
    let published = Arc::clone(stats);
    thread::Builder::new()
        .name(format!("approxdd-pool-{slot}"))
        .spawn(move || {
            // Histogram handles resolved once per worker thread:
            // recording on the task path is a few relaxed atomic adds,
            // no registry lock.
            let queue_wait = telemetry::PhaseTimer::new("pool.queue_wait");
            let totals = published
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            let mut worker = Worker {
                template,
                backend: None,
                epoch: None,
                totals,
                published,
                build_timer: telemetry::PhaseTimer::new("backend.build"),
                run_timer: telemetry::PhaseTimer::new("pool.run_job"),
                sample_timer: telemetry::PhaseTimer::new("pool.sample_chunk"),
            };
            loop {
                // Hold the queue lock only for the dequeue, never while
                // executing: a long job must not serialize the other
                // workers.
                let task = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                let Ok(task) = task else {
                    break; // pool dropped its sender: orderly shutdown
                };
                depth.fetch_sub(1, Ordering::Relaxed);
                queue_wait.observe(task.enqueued.elapsed());
                (task.run)(&mut worker);
            }
        })
        .expect("spawn pool worker")
}
