//! The [`BackendPool`]: N worker threads executing backend jobs from a
//! shared channel-based work queue.
//!
//! # Determinism
//!
//! The pool guarantees that the same root seed produces byte-identical
//! results regardless of worker count. Two properties make that hold:
//!
//! * **Seed streams, not shared RNGs.** Every job derives its sampling
//!   seed from the pool's [`SeedStream`] as a pure function of
//!   `(root seed, domain, job index)` — never from which worker runs it
//!   or in which order the queue drains.
//! * **Per-job state isolation.** The DD package's unique table
//!   canonicalizes near-equal edge weights first-write-wins (within
//!   tolerance), so a run's low-order float bits can depend on what ran
//!   earlier in the same package. Workers therefore rebuild their
//!   backend from the shared [`SimulatorBuilder`] template for every
//!   run job, making each outcome a pure function of the job itself.
//!   (The serial benchmarks build a fresh backend per row for the same
//!   reason, so nothing is lost relative to the status quo.) The
//!   previous job's engine is dropped *before* its replacement is
//!   built, so a worker never holds two engines, and the dropped
//!   engine's compute-cache slabs are recycled by the new one (see
//!   `approxdd_dd`'s cache provisioning notes) — construction costs no
//!   table fill after a worker's first job.
//!
//! Copy-on-write snapshots (`SimulatorBuilder::share_snapshot`)
//! preserve both properties while amortizing the per-job rebuild: the
//! batch's gate DDs are frozen **once, on the submitting thread, in
//! input order** into a [`SimSnapshot`], and every worker job layers a
//! private delta package over that shared immutable prefix. The frozen
//! tier pins the canonicalization history a job would have built
//! itself, so [`PoolOutcome::fingerprint`] stays byte-identical between
//! snapshot-on and snapshot-off at any worker count — the contract
//! suite asserts exactly that.
//!
//! Sharded sampling ([`BackendPool::sample_counts`]) splits the shot
//! budget into fixed-size chunks of [`SHOT_CHUNK`] shots. Chunk `i`
//! always draws with seed `stream(DOMAIN_SAMPLE, i)` and histogram
//! merging is commutative, so the merged counts are invariant under
//! both worker count and completion order.
//!
//! # Fault tolerance
//!
//! The pool self-heals and retries (see `docs/ARCHITECTURE.md` for the
//! lifecycle):
//!
//! * **Supervision.** A worker that dies (a panicking job) is detected
//!   during result collection and respawned into the same slot, so the
//!   pool always returns to full capacity; respawn counts surface in
//!   [`PoolStats::respawns`].
//! * **Deterministic retry.** A [`RetryPolicy`] on the template (or
//!   per job via [`PoolJob::retry`]) re-dispatches jobs that failed
//!   with a retryable error — [`ExecError::WorkerLost`],
//!   [`ExecError::FaultInjected`], [`ExecError::DeadlineExceeded`].
//!   Seeds are keyed on the job index, never the attempt, so a retried
//!   success is byte-identical to a first-try success.
//! * **Deadlines & degradation.** [`PoolJob::deadline`] (or the
//!   template's `job_deadline`) wraps the job's policy in a
//!   `DeadlinePolicy` that aborts cooperatively past the cutoff,
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

use approxdd_backend::{
    AnyBackend, AnyHandle, Backend, BackendStats, BuildBackend, ExecError, RunOutcome,
};
use approxdd_circuit::Circuit;
use approxdd_sim::{
    DeadlineFactory, Engine, PolicyFactory, RetryPolicy, SharedObserver, SimError, SimSnapshot,
    SimulatorBuilder, Strategy, TraceEvent, TraceRecorder,
};
use approxdd_telemetry as telemetry;

use crate::fault::{FaultKind, FaultPlan, InjectedPanic};
use crate::seed::{SeedStream, DOMAIN_RUN, DOMAIN_SAMPLE};
use crate::supervise::Supervisor;

/// How long collection loops block on the reply channel before taking
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

/// One unit of pooled work: a circuit, an optional per-job policy or
/// strategy override (sweeps run many configurations over one pool),
/// an optional number of measurement shots to draw after the run, and
/// an optional request to capture the run's trace.
#[derive(Clone)]
pub struct PoolJob {
    circuit: Circuit,
    strategy: Option<Strategy>,
    policy: Option<Arc<dyn PolicyFactory>>,
    shots: usize,
    trace: bool,
    expectation: Option<SharedDiagonal>,
    deadline: Option<Duration>,
    retry: Option<RetryPolicy>,
    fallback: Option<Arc<dyn PolicyFactory>>,
}

impl std::fmt::Debug for PoolJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolJob")
            .field("circuit", &self.circuit.name())
            .field("strategy", &self.strategy)
            .field("policy", &self.policy.is_some())
            .field("shots", &self.shots)
            .field("trace", &self.trace)
            .field("expectation", &self.expectation.is_some())
            .field("deadline", &self.deadline)
            .field("retry", &self.retry)
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
            strategy: None,
            policy: None,
            shots: 0,
            trace: false,
            expectation: None,
            deadline: None,
            retry: None,
            fallback: None,
        }
    }

    /// Overrides the approximation strategy for this job only.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the approximation policy for this job only — the
    /// worker builds a fresh policy instance from the factory for this
    /// job (per-job instantiation is what keeps results bit-identical
    /// and worker-count-invariant). Takes precedence over
    /// [`PoolJob::strategy`].
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

    /// Sets a wall-clock deadline for this job, overriding the
    /// template's `job_deadline`. Enforced cooperatively: the worker
    /// wraps the job's policy in a `DeadlinePolicy` that aborts at the
    /// first operation past the cutoff, surfacing
    /// [`ExecError::DeadlineExceeded`]. Retried attempts keep the
    /// deadline; a degraded attempt ([`PoolJob::degrade_with`]) drops
    /// it.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Overrides the pool template's [`RetryPolicy`] for this job only.
    #[must_use]
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
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
    /// Times this worker slot was respawned after a thread death
    /// (supervision; see [`PoolStats::respawns`] for the pool total).
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
    pub peak_nodes: usize,
    /// Gate DDs cached in this worker's backend after its last task.
    pub cached_gates: usize,
    /// Compute-cache hits summed over every backend this worker has
    /// owned (all four lossy tables combined). Run jobs rebuild the
    /// backend per job (see the module docs); retiring a backend
    /// harvests its counters into this running total, so summing the
    /// field across workers covers every executed run job — a
    /// deterministic quantity, independent of which worker ran what.
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
    pub unique_len: usize,
    /// Unique-table buckets in this worker's package after its last
    /// task.
    pub unique_capacity: usize,
    /// Unique-table lookups served by a shared snapshot's frozen tier,
    /// accumulated like [`WorkerStats::ct_hits`] (0 when the pool runs
    /// without snapshots).
    pub snapshot_hits: u64,
    /// Gate-DD lookups served by a shared snapshot's frozen gate cache,
    /// accumulated like [`WorkerStats::ct_hits`] (0 without snapshots).
    pub snapshot_gate_hits: u64,
    /// Alive nodes in the shared frozen prefix this worker's package
    /// layers over (0 without a snapshot).
    pub frozen_nodes: usize,
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
    /// (0 on a healthy run). A resilience diagnostic, like
    /// [`PoolStats::retries`] — never part of any result fingerprint.
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

    /// Aggregate compute-cache hit rate over every job the pool has
    /// executed (workers accumulate retired-backend counters, so this
    /// is deterministic regardless of scheduling; 0 when nothing was
    /// looked up).
    #[must_use]
    pub fn ct_hit_rate(&self) -> f64 {
        let hits: u64 = self.per_worker.iter().map(|w| w.ct_hits).sum();
        let misses: u64 = self.per_worker.iter().map(|w| w.ct_misses).sum();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                hits as f64 / total as f64
            }
        }
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
/// [`BackendPool::sample_counts_streamed`] callback: which chunk just
/// merged, how far the request has progressed, and a borrowed view of
/// the running merged histogram.
#[derive(Debug)]
pub struct ChunkSettled<'a> {
    /// Index of the chunk that just settled (its seed key).
    pub chunk: usize,
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

/// Reply channel of a run job: `(job index, attempt, degraded,
/// outcome)` — the attempt/degraded echo lets the collector match a
/// reply to the exact dispatch it answers.
type RunReply = mpsc::Sender<(usize, u32, bool, Result<PoolOutcome, ExecError>)>;
/// Reply channel of a sampling chunk: `(chunk index, histogram)`.
type ChunkReply = mpsc::Sender<(usize, Result<HashMap<u64, usize>, ExecError>)>;

/// One dispatch of a run job: the job plus everything attempt-specific
/// (which try this is, whether it runs degraded, the effective
/// deadline, the installed fault plan).
struct RunSpec {
    index: usize,
    /// Zero-based attempt number of this dispatch.
    attempt: u32,
    /// Whether this dispatch runs under the job's degradation fallback.
    degraded: bool,
    job: PoolJob,
    seed: u64,
    /// Shared frozen prefix for this job's backend, built once per
    /// submission when the template enables `share_snapshot`.
    snapshot: Option<Arc<SimSnapshot>>,
    /// Effective wall-clock budget (per-job override, else the
    /// template's `job_deadline`; `None` on degraded attempts).
    deadline: Option<Duration>,
    fault: Option<Arc<FaultPlan>>,
}

enum Task {
    Run {
        spec: RunSpec,
        reply: RunReply,
    },
    Sample {
        epoch: u64,
        chunk: usize,
        circuit: Arc<Circuit>,
        strategy: Option<Strategy>,
        shots: usize,
        seed: u64,
        reply: ChunkReply,
    },
}

/// A task plus its submission timestamp — what actually travels the
/// queue, so workers can report queue-wait latency. Telemetry only:
/// the timestamp never influences scheduling or results.
struct QueuedTask {
    enqueued: Instant,
    task: Task,
}

/// A fixed-size pool of worker threads, each owning an [`AnyBackend`]
/// built from a shared [`SimulatorBuilder`] template (the template's
/// `engine` knob selects DD, stabilizer or hybrid execution), running
/// batch and sampling jobs from one channel-based work queue.
///
/// Build one through the builder —
/// `Simulator::builder().workers(4).build_pool()` (see [`BuildPool`])
/// — and submit work with [`BackendPool::run_batch`],
/// [`BackendPool::run_jobs`] or [`BackendPool::sample_counts`]. All
/// submission methods take `&self` and may be called from multiple
/// threads; results are invariant under worker count (see the module
/// docs for the determinism contract).
///
/// ```
/// use approxdd_exec::BuildPool;
/// use approxdd_circuit::generators;
/// use approxdd_sim::Simulator;
///
/// # fn main() -> Result<(), approxdd_backend::ExecError> {
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
    sender: Option<mpsc::Sender<QueuedTask>>,
    template: SimulatorBuilder,
    supervisor: Supervisor,
    worker_stats: Vec<Arc<Mutex<WorkerStats>>>,
    /// Kept so [`BackendPool::heal`] can hand the shared queue to
    /// respawned workers (and so the send side never observes a
    /// disconnected channel while the pool is alive).
    receiver: Arc<Mutex<mpsc::Receiver<QueuedTask>>>,
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

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Task::Run { spec, .. } => write!(f, "Task::Run({})", spec.index),
            Task::Sample { epoch, .. } => write!(f, "Task::Sample(epoch {epoch})"),
        }
    }
}

impl BackendPool {
    /// Builds a pool from a simulator template, taking the worker count
    /// from [`SimulatorBuilder::worker_count`] (the `workers(n)` knob,
    /// clamped to ≥ 1; default: the machine's available parallelism).
    #[must_use]
    pub fn new(template: SimulatorBuilder) -> Self {
        let workers = template.worker_count();
        Self::with_workers(template, workers)
    }

    /// Builds a pool with an explicit worker count (clamped to ≥ 1),
    /// ignoring the template's `workers` knob.
    #[must_use]
    pub fn with_workers(template: SimulatorBuilder, workers: usize) -> Self {
        let workers = workers.max(1);
        let seeds = SeedStream::new(template.sample_seed());
        let (sender, receiver) = mpsc::channel::<QueuedTask>();
        let receiver = Arc::new(Mutex::new(receiver));
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::with_capacity(workers);
        let mut worker_stats = Vec::with_capacity(workers);
        for id in 0..workers {
            let cell = Arc::new(Mutex::new(WorkerStats {
                worker: id,
                ..WorkerStats::default()
            }));
            worker_stats.push(Arc::clone(&cell));
            let template = template.clone();
            let receiver = Arc::clone(&receiver);
            let depth = Arc::clone(&queue_depth);
            let handle = thread::Builder::new()
                .name(format!("approxdd-pool-{id}"))
                .spawn(move || worker_loop(id, &template, &receiver, &depth, &cell))
                .expect("spawn pool worker");
            handles.push(handle);
        }
        Self {
            sender: Some(sender),
            template,
            supervisor: Supervisor::new(handles),
            worker_stats,
            receiver,
            queue_depth,
            max_queue_depth: AtomicUsize::new(0),
            tasks_submitted: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            seeds,
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
    /// next supervision tick; [`BackendPool::heal`] restores full
    /// capacity.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.supervisor.alive()
    }

    /// Respawns every dead worker thread into its original slot (same
    /// index, same [`WorkerStats`] cell, accumulated counters
    /// preserved), returning how many were healed. Collection loops
    /// call this automatically on a timer tick, so user code rarely
    /// needs to — it is public for servers that want to heal eagerly
    /// between batches. Totals surface in [`PoolStats::respawns`] and
    /// per slot in [`WorkerStats::respawns`].
    pub fn heal(&self) -> usize {
        self.supervisor.heal(|slot| {
            let cell = Arc::clone(&self.worker_stats[slot]);
            cell.lock().unwrap_or_else(PoisonError::into_inner).respawns += 1;
            telemetry::count("approxdd_pool_respawns_total", 1);
            let template = self.template.clone();
            let receiver = Arc::clone(&self.receiver);
            let depth = Arc::clone(&self.queue_depth);
            thread::Builder::new()
                .name(format!("approxdd-pool-{slot}"))
                .spawn(move || worker_loop(slot, &template, &receiver, &depth, &cell))
                .expect("respawn pool worker")
        })
    }

    /// Installs (or, with `None`, clears) a fault-injection plan for
    /// subsequent [`BackendPool::run_jobs`] submissions. Test/bench
    /// only: injected faults exercise the supervision, retry and
    /// deadline machinery at deterministic job indices (the
    /// `DOMAIN_FAULT` seed stream — see [`FaultPlan`]). No production
    /// path installs one.
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

    /// Runs every circuit under the pool template's strategy, in input
    /// order, failing on the first per-job error (all jobs still
    /// execute; use [`BackendPool::try_run_batch`] to keep partial
    /// results).
    ///
    /// # Errors
    ///
    /// The lowest-indexed failing job's error.
    pub fn run_batch(&self, circuits: &[Circuit]) -> Result<Vec<PoolOutcome>, ExecError> {
        self.try_run_batch(circuits).into_iter().collect()
    }

    /// Runs every circuit, returning one result per circuit in input
    /// order. A failing job never disturbs the others: each failure is
    /// confined to its own slot.
    #[must_use]
    pub fn try_run_batch(&self, circuits: &[Circuit]) -> Vec<Result<PoolOutcome, ExecError>> {
        self.run_jobs(circuits.iter().cloned().map(PoolJob::new).collect())
    }

    /// Runs every circuit and draws `shots` measurement samples per
    /// run, with per-job seeds from the pool's seed stream.
    #[must_use]
    pub fn run_batch_sampled(
        &self,
        circuits: &[Circuit],
        shots: usize,
    ) -> Vec<Result<PoolOutcome, ExecError>> {
        self.run_jobs(
            circuits
                .iter()
                .map(|c| PoolJob::new(c.clone()).shots(shots))
                .collect(),
        )
    }

    /// The general submission path: runs heterogeneous jobs (per-job
    /// strategies and shot counts) across the workers, returning one
    /// result per job in input order.
    ///
    /// Job `i` samples with seed `stream(DOMAIN_RUN, i)` — keyed on the
    /// job index alone, never the attempt, so a retried success is
    /// byte-identical to a first-try success. A job whose worker
    /// disappears mid-flight is re-dispatched when its [`RetryPolicy`]
    /// allows, and otherwise reports [`ExecError::WorkerLost`] in its
    /// slot instead of hanging the collection; dead workers are healed
    /// along the way (see the module docs, *Fault tolerance*).
    #[must_use]
    pub fn run_jobs(&self, jobs: Vec<PoolJob>) -> Vec<Result<PoolOutcome, ExecError>> {
        let snapshot = self.batch_snapshot(&jobs);
        self.run_jobs_inner(jobs, snapshot)
    }

    /// Checks the admission seam: would submitting `tasks` more tasks
    /// right now stay within the template's
    /// [`queue_capacity`](SimulatorBuilder::queue_capacity) bound?
    /// Returns immediately either way — admission never blocks, and a
    /// rejection enqueues nothing, so already-admitted work (and its
    /// fingerprints) is untouched. Pools without a configured bound
    /// admit everything.
    ///
    /// # Errors
    ///
    /// [`ExecError::QueueFull`] when the submission would exceed the
    /// bound.
    pub fn try_admit(&self, tasks: usize) -> Result<(), ExecError> {
        if let Some(capacity) = self.template.queue_capacity_bound() {
            let queued = self.queue_depth.load(Ordering::Relaxed);
            if queued + tasks > capacity {
                return Err(ExecError::QueueFull {
                    queued,
                    submitted: tasks,
                    capacity,
                });
            }
        }
        Ok(())
    }

    /// [`BackendPool::run_jobs`] behind the admission seam: the whole
    /// submission is accepted or rejected atomically **before**
    /// anything is enqueued. Serving layers use this as their
    /// backpressure primitive (HTTP 429); plain `run_jobs` stays
    /// unbounded for library batch callers.
    ///
    /// # Errors
    ///
    /// [`ExecError::QueueFull`] when the template has a
    /// [`queue_capacity`](SimulatorBuilder::queue_capacity) bound and
    /// this submission would exceed it. Per-job failures still settle
    /// inside the returned vector, exactly as with `run_jobs`.
    pub fn run_jobs_admitted(
        &self,
        jobs: Vec<PoolJob>,
    ) -> Result<Vec<Result<PoolOutcome, ExecError>>, ExecError> {
        self.try_admit(jobs.len())?;
        Ok(self.run_jobs(jobs))
    }

    /// [`BackendPool::run_jobs`] with an externally supplied frozen
    /// snapshot instead of the per-batch one: the cross-batch reuse
    /// seam behind warm serving sessions. The caller freezes a circuit
    /// family once (e.g. [`SimulatorBuilder::build_snapshot`]) and
    /// passes the same `Arc` to every subsequent batch of that family —
    /// gate DDs are never rebuilt, and because a snapshot is a pure
    /// function of (options, circuit list) the outcomes stay
    /// byte-identical to a cold `run_jobs` call (the snapshot
    /// equivalence contract of `tests/snapshot_equivalence.rs`).
    ///
    /// `None` runs the batch snapshot-free (no per-batch snapshot is
    /// built, regardless of the template's `share_snapshot` knob). The
    /// pure-tableau engine has no DD package: a supplied snapshot is
    /// ignored there, exactly as in `run_jobs`.
    #[must_use]
    pub fn run_jobs_with_snapshot(
        &self,
        jobs: Vec<PoolJob>,
        snapshot: Option<Arc<SimSnapshot>>,
    ) -> Vec<Result<PoolOutcome, ExecError>> {
        let snapshot = snapshot.filter(|_| self.template.engine_kind() != Engine::Stabilizer);
        self.run_jobs_inner(jobs, snapshot)
    }

    fn run_jobs_inner(
        &self,
        jobs: Vec<PoolJob>,
        snapshot: Option<Arc<SimSnapshot>>,
    ) -> Vec<Result<PoolOutcome, ExecError>> {
        let n = jobs.len();
        let fault = self
            .fault_plan
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let template_retry = self.template.retry_policy();
        let template_deadline = self.template.job_deadline_budget();
        let mut results: Vec<Option<Result<PoolOutcome, ExecError>>> =
            (0..n).map(|_| None).collect();
        // Dispatches awaiting submission, as (job index, attempt,
        // degraded) triples; retries/degradations feed back into the
        // next round.
        let mut pending: Vec<(usize, u32, bool)> = (0..n).map(|i| (i, 0, false)).collect();
        while !pending.is_empty() {
            pending.sort_unstable();
            let round = std::mem::take(&mut pending);
            let (reply, results_rx) = mpsc::channel();
            let mut outstanding: BTreeMap<usize, (u32, bool)> = BTreeMap::new();
            for (index, attempt, degraded) in round {
                let job = jobs[index].clone();
                let retry = job.retry.unwrap_or(template_retry);
                let delay = retry.delay_for(attempt);
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
                // A degraded attempt drops the deadline: the coarser
                // fallback is the last resort and must be allowed to
                // finish.
                let deadline = if degraded {
                    None
                } else {
                    job.deadline.or(template_deadline)
                };
                let seed = self.seeds.seed(DOMAIN_RUN, index as u64);
                outstanding.insert(index, (attempt, degraded));
                self.submit(Task::Run {
                    spec: RunSpec {
                        index,
                        attempt,
                        degraded,
                        job,
                        seed,
                        snapshot: snapshot.clone(),
                        deadline,
                        fault: fault.clone(),
                    },
                    reply: reply.clone(),
                });
            }
            drop(reply);
            while !outstanding.is_empty() {
                match results_rx.recv_timeout(SUPERVISE_TICK) {
                    Ok((index, attempt, degraded, result)) => {
                        outstanding.remove(&index);
                        self.settle(
                            &jobs,
                            template_retry,
                            (index, attempt, degraded),
                            result,
                            &mut results,
                            &mut pending,
                        );
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Dead workers strand queued tasks (every queued
                        // task holds a reply sender clone, so the
                        // channel never disconnects by itself): heal so
                        // replacements drain the queue.
                        self.heal();
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            // Whatever never replied rode a dying worker down with it.
            for (index, (attempt, degraded)) in outstanding {
                self.settle(
                    &jobs,
                    template_retry,
                    (index, attempt, degraded),
                    Err(ExecError::WorkerLost {
                        job: index,
                        attempt,
                    }),
                    &mut results,
                    &mut pending,
                );
            }
            self.heal();
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every job settles exactly once"))
            .collect()
    }

    /// Routes one dispatch's result: a success lands in its slot; a
    /// failure consults the degradation ladder, then the retry policy,
    /// before becoming final. Resilience counters are bumped here —
    /// once per observation, before any retry decision — which is what
    /// makes their totals worker-count-invariant.
    fn settle(
        &self,
        jobs: &[PoolJob],
        template_retry: RetryPolicy,
        dispatch: (usize, u32, bool),
        result: Result<PoolOutcome, ExecError>,
        results: &mut [Option<Result<PoolOutcome, ExecError>>],
        pending: &mut Vec<(usize, u32, bool)>,
    ) {
        let (index, attempt, degraded) = dispatch;
        let err = match result {
            Ok(outcome) => {
                results[index] = Some(Ok(outcome));
                return;
            }
            Err(err) => err,
        };
        if matches!(err, ExecError::DeadlineExceeded { .. }) {
            self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            telemetry::count("approxdd_pool_deadline_exceeded_total", 1);
        }
        let job = &jobs[index];
        let abortish = matches!(
            err,
            ExecError::DeadlineExceeded { .. } | ExecError::Sim(SimError::PolicyAbort { .. })
        );
        if abortish && !degraded && job.fallback.is_some() {
            // Degrade before (instead of) blindly retrying an abort:
            // rerunning the identical policy would just abort again.
            self.retries.fetch_add(1, Ordering::Relaxed);
            telemetry::count("approxdd_pool_retries_total", 1);
            pending.push((index, attempt + 1, true));
            return;
        }
        let retryable = matches!(
            err,
            ExecError::WorkerLost { .. }
                | ExecError::FaultInjected { .. }
                | ExecError::DeadlineExceeded { .. }
        );
        let retry = job.retry.unwrap_or(template_retry);
        if retryable && attempt + 1 < retry.max_attempts {
            self.retries.fetch_add(1, Ordering::Relaxed);
            telemetry::count("approxdd_pool_retries_total", 1);
            pending.push((index, attempt + 1, degraded));
            return;
        }
        results[index] = Some(Err(err));
    }

    /// Draws `shots` measurement outcomes of `circuit` as a histogram,
    /// sharding the shot budget across the workers in chunks of
    /// [`SHOT_CHUNK`].
    ///
    /// Each worker runs the circuit once (deterministically, on fresh
    /// state) and then serves chunks from its cached final state, so
    /// large shot counts amortize the simulation cost across the pool.
    /// The merged histogram is a pure function of (root seed, circuit,
    /// shots) — calling this twice, or with a different worker count,
    /// yields identical counts.
    ///
    /// # Errors
    ///
    /// Preparation/execution errors, or [`ExecError::WorkerLost`] if
    /// workers died before serving every chunk.
    pub fn sample_counts(
        &self,
        circuit: &Circuit,
        shots: usize,
    ) -> Result<HashMap<u64, usize>, ExecError> {
        self.sample_counts_with(circuit, None, shots)
    }

    /// [`BackendPool::sample_counts`] with a per-call strategy override
    /// (e.g. sampling an approximate run's distribution).
    ///
    /// # Errors
    ///
    /// See [`BackendPool::sample_counts`].
    pub fn sample_counts_with(
        &self,
        circuit: &Circuit,
        strategy: Option<Strategy>,
        shots: usize,
    ) -> Result<HashMap<u64, usize>, ExecError> {
        self.sample_counts_inner(circuit, strategy, shots, None)
    }

    /// [`BackendPool::sample_counts_with`] with a chunk-settlement
    /// callback: `on_chunk` is invoked once per sampling chunk, right
    /// after its histogram merges, with a [`ChunkSettled`] view of the
    /// running totals — the streaming seam serving layers use to push
    /// partial histograms to clients while the shot budget drains.
    ///
    /// Determinism caveat: the **final** merged histogram is exactly
    /// the `sample_counts` result (chunk seeds are keyed on the chunk
    /// index; merging is commutative), but the *settlement order* — and
    /// with it every intermediate partial view — depends on scheduling,
    /// so partials are progress reports, not reproducible results. A
    /// retried chunk ([`RetryPolicy`]) settles (and reports) once, with
    /// its original seed.
    ///
    /// # Errors
    ///
    /// See [`BackendPool::sample_counts`].
    pub fn sample_counts_streamed(
        &self,
        circuit: &Circuit,
        strategy: Option<Strategy>,
        shots: usize,
        on_chunk: &mut dyn FnMut(&ChunkSettled),
    ) -> Result<HashMap<u64, usize>, ExecError> {
        self.sample_counts_inner(circuit, strategy, shots, Some(on_chunk))
    }

    fn sample_counts_inner(
        &self,
        circuit: &Circuit,
        strategy: Option<Strategy>,
        shots: usize,
        mut on_chunk: Option<&mut dyn FnMut(&ChunkSettled)>,
    ) -> Result<HashMap<u64, usize>, ExecError> {
        if shots == 0 {
            return Ok(HashMap::new());
        }
        // The epoch invalidates the workers' cached run state; chunk
        // *seeds* are keyed on the chunk index alone so repeated calls
        // (and retried chunks) stay reproducible.
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        let circuit = Arc::new(circuit.clone());
        let chunks = shots.div_ceil(SHOT_CHUNK);
        let template_retry = self.template.retry_policy();
        let max_attempts = template_retry.max_attempts.max(1);
        let mut merged: HashMap<u64, usize> = HashMap::new();
        let mut arrived = vec![false; chunks];
        let mut settled = 0usize;
        let mut shots_settled = 0usize;
        for attempt in 0..max_attempts {
            let missing: Vec<usize> = (0..chunks).filter(|&c| !arrived[c]).collect();
            if missing.is_empty() {
                break;
            }
            if attempt > 0 {
                // Re-dispatching lost chunks with their original seeds:
                // a retried chunk redraws the exact same shots.
                self.retries.fetch_add(missing.len(), Ordering::Relaxed);
                telemetry::count("approxdd_pool_retries_total", missing.len() as u64);
                let delay = template_retry.delay_for(attempt);
                if !delay.is_zero() {
                    thread::sleep(delay);
                }
            }
            let (reply, results_rx) = mpsc::channel();
            let mut outstanding = missing.len();
            for &chunk in &missing {
                let size = SHOT_CHUNK.min(shots - chunk * SHOT_CHUNK);
                let seed = self.seeds.seed(DOMAIN_SAMPLE, chunk as u64);
                self.submit(Task::Sample {
                    epoch,
                    chunk,
                    circuit: Arc::clone(&circuit),
                    strategy,
                    shots: size,
                    seed,
                    reply: reply.clone(),
                });
            }
            drop(reply);
            while outstanding > 0 {
                match results_rx.recv_timeout(SUPERVISE_TICK) {
                    Ok((chunk, result)) => {
                        outstanding -= 1;
                        for (outcome, count) in result? {
                            *merged.entry(outcome).or_insert(0) += count;
                        }
                        arrived[chunk] = true;
                        settled += 1;
                        shots_settled += SHOT_CHUNK.min(shots - chunk * SHOT_CHUNK);
                        if let Some(callback) = on_chunk.as_deref_mut() {
                            callback(&ChunkSettled {
                                chunk,
                                chunks,
                                settled,
                                shots_settled,
                                merged: &merged,
                            });
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        self.heal();
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            self.heal();
        }
        if let Some(lost) = arrived.iter().position(|&done| !done) {
            return Err(ExecError::WorkerLost {
                job: lost,
                attempt: max_attempts - 1,
            });
        }
        Ok(merged)
    }

    /// A statistics snapshot: wall time, queue pressure, per-worker
    /// node/cache state.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers(),
            uptime: self.created.elapsed(),
            tasks_submitted: self.tasks_submitted.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            respawns: self.supervisor.respawns(),
            retries: self.retries.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            per_worker: self
                .worker_stats
                .iter()
                .map(|cell| cell.lock().unwrap_or_else(PoisonError::into_inner).clone())
                .collect(),
        }
    }

    /// Builds the batch's shared frozen snapshot, when the template
    /// asks for one: every gate of every job circuit is warmed **on
    /// this (submitting) thread, in input order**, so the frozen prefix
    /// is a pure function of the job list — never of worker count or
    /// scheduling. Returns `None` when snapshots are off, for the
    /// pure-tableau engine (no DD package to share), or when warming
    /// fails (the per-job run then reports the error in its own slot,
    /// exactly as without snapshots).
    fn batch_snapshot(&self, jobs: &[PoolJob]) -> Option<Arc<SimSnapshot>> {
        if !self.template.share_snapshot_enabled()
            || self.template.engine_kind() == Engine::Stabilizer
        {
            return None;
        }
        self.template
            .build_snapshot(jobs.iter().map(PoolJob::circuit))
            .ok()
            .map(Arc::new)
    }

    fn submit(&self, task: Task) {
        self.tasks_submitted.fetch_add(1, Ordering::Relaxed);
        let kind = match &task {
            Task::Run { .. } => "run",
            Task::Sample { .. } => "sample",
        };
        telemetry::count_with("approxdd_pool_tasks_total", &[("kind", kind)], 1);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let task = QueuedTask {
            enqueued: Instant::now(),
            task,
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

struct Worker {
    id: usize,
    template: SimulatorBuilder,
    /// The current job's engine: `None` before the first task, and
    /// while [`Worker::fresh_backend`] builds the next one.
    backend: Option<AnyBackend>,
    /// Times every engine construction (`backend.build` on `/metrics`).
    build_timer: telemetry::PhaseTimer,
    epoch: Option<(u64, RunOutcome<AnyHandle>)>,
    /// Cache counters harvested from retired backends (each run job
    /// rebuilds the backend, so the live package only covers the
    /// current job). Summed across workers these cover every executed
    /// job — deterministic regardless of scheduling. The pure-tableau
    /// engine owns no DD package, so its jobs contribute zeros.
    harvested_ct_hits: u64,
    harvested_ct_misses: u64,
    harvested_peak_nodes: usize,
    harvested_snapshot_hits: u64,
    harvested_snapshot_gate_hits: u64,
}

impl Worker {
    /// Replaces the backend with a fresh instance built from the
    /// template (plus an optional policy or strategy override — the
    /// policy factory wins), layered over the batch's shared frozen
    /// snapshot when one was built. Job isolation is the pool's
    /// determinism linchpin — see the module docs.
    ///
    /// When the job carries a `deadline`, whatever policy it ended up
    /// with is wrapped in a [`DeadlineFactory`] — per-job overrides and
    /// degradation fallbacks stay deadline-enforced alike. Returns the
    /// deadline's fired flag so the caller can tell a deadline abort
    /// from a policy's own abort.
    fn fresh_backend(
        &mut self,
        strategy: Option<Strategy>,
        policy: Option<&Arc<dyn PolicyFactory>>,
        snapshot: Option<Arc<SimSnapshot>>,
        deadline: Option<Duration>,
    ) -> Option<Arc<AtomicBool>> {
        // Harvest, then release the old engine (its outcome handle
        // first) before the new one exists: the worker peaks at one
        // arena, unique-table and cache set, not two.
        self.epoch = None;
        if let Some(old) = self.backend.take() {
            if let Some(pkg) = old.package_stats() {
                self.harvested_ct_hits += pkg.ct_hits;
                self.harvested_ct_misses += pkg.ct_misses;
                self.harvested_peak_nodes = self.harvested_peak_nodes.max(pkg.peak_nodes());
                self.harvested_snapshot_hits += pkg.snapshot_hits;
            }
            self.harvested_snapshot_gate_hits += old.snapshot_gate_hits();
        }
        let mut template = self.template.clone();
        if let Some(factory) = policy {
            template = template.policy_factory(Arc::clone(factory));
        } else if let Some(strategy) = strategy {
            template = template.strategy(strategy);
        }
        let mut fired = None;
        if let Some(budget) = deadline {
            let factory = DeadlineFactory::new(template.policy_factory_or_preset(), budget);
            fired = Some(factory.fired_flag());
            template = template.policy_factory(Arc::new(factory));
        }
        self.backend = Some(
            self.build_timer
                .time(|| template.build_engine_backend_with_snapshot(snapshot)),
        );
        fired
    }

    /// Executes one dispatch: fires any injected fault first (before
    /// touching the backend, so a panic can never lose harvested
    /// counters or leave a half-built package), selects the degraded
    /// fallback policy when asked, and maps a deadline-triggered abort
    /// to the typed [`ExecError::DeadlineExceeded`].
    fn run_job(&mut self, spec: &RunSpec) -> Result<PoolOutcome, ExecError> {
        if let Some(kind) = spec
            .fault
            .as_deref()
            .and_then(|plan| plan.decide(spec.index, spec.attempt))
        {
            match kind {
                FaultKind::Panic => std::panic::panic_any(InjectedPanic {
                    job: spec.index,
                    attempt: spec.attempt,
                }),
                FaultKind::Delay(delay) => thread::sleep(delay),
                FaultKind::Abort => {
                    return Err(ExecError::FaultInjected {
                        job: spec.index,
                        attempt: spec.attempt,
                    })
                }
            }
        }
        let job = &spec.job;
        let policy = if spec.degraded {
            job.fallback.as_ref().or(job.policy.as_ref())
        } else {
            job.policy.as_ref()
        };
        let fired = self.fresh_backend(job.strategy, policy, spec.snapshot.clone(), spec.deadline);
        match self.execute(job, spec.seed) {
            Err(e)
                if matches!(e, ExecError::Sim(SimError::PolicyAbort { .. }))
                    && fired.as_ref().is_some_and(|f| f.load(Ordering::Relaxed)) =>
            {
                Err(ExecError::DeadlineExceeded {
                    job: spec.index,
                    attempt: spec.attempt,
                    budget: spec.deadline.unwrap_or_default(),
                })
            }
            Err(e) => Err(e),
            Ok(mut outcome) => {
                outcome.attempts = spec.attempt + 1;
                outcome.degraded = spec.degraded;
                Ok(outcome)
            }
        }
    }

    /// The dispatch-agnostic run body (backend already fresh).
    fn execute(&mut self, job: &PoolJob, seed: u64) -> Result<PoolOutcome, ExecError> {
        let backend = self.backend.as_mut().expect(BACKEND_BUILT);
        let recorder = job.trace.then(|| {
            let recorder = TraceRecorder::shared();
            backend.attach_observer(recorder.clone() as SharedObserver);
            recorder
        });
        let exe = backend.prepare(&job.circuit)?;
        let outcome = backend.run(&exe)?;
        let counts = if job.shots > 0 {
            backend.reseed(seed);
            Some(backend.sample_counts(&outcome, job.shots))
        } else {
            None
        };
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
            worker: self.id,
            // The dispatch wrapper (`run_job`) overwrites these with
            // the attempt's actual coordinates.
            attempts: 1,
            degraded: false,
        })
    }

    fn sample_chunk(
        &mut self,
        epoch: u64,
        circuit: &Circuit,
        strategy: Option<Strategy>,
        shots: usize,
        seed: u64,
    ) -> Result<HashMap<u64, usize>, ExecError> {
        if self.epoch.as_ref().map(|(e, _)| *e) != Some(epoch) {
            self.fresh_backend(strategy, None, None, None);
            let backend = self.backend.as_mut().expect(BACKEND_BUILT);
            let exe = backend.prepare(circuit)?;
            let outcome = backend.run(&exe)?;
            self.epoch = Some((epoch, outcome));
        }
        let (_, outcome) = self.epoch.as_ref().expect("epoch state just ensured");
        let backend = self.backend.as_mut().expect(BACKEND_BUILT);
        backend.reseed(seed);
        Ok(backend.sample_counts(outcome, shots))
    }

    fn note_task(
        &self,
        cell: &Mutex<WorkerStats>,
        busy: Duration,
        shots: usize,
        is_run: bool,
        failed: bool,
    ) {
        let mut stats = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if is_run {
            stats.jobs += 1;
            stats.failed_jobs += usize::from(failed);
        } else {
            stats.sample_chunks += 1;
        }
        stats.shots_drawn += shots;
        stats.busy += busy;
        let backend = self.backend.as_ref();
        stats.cached_gates = backend.map_or(0, AnyBackend::gate_cache_len);
        // Harvested totals plus the live package (when the engine owns
        // one): covers every job this worker has executed.
        if let Some(pkg) = backend.and_then(AnyBackend::package_stats) {
            stats.alive_nodes = pkg.vnodes_alive + pkg.mnodes_alive;
            stats.peak_nodes = self.harvested_peak_nodes.max(pkg.peak_nodes());
            stats.ct_hits = self.harvested_ct_hits + pkg.ct_hits;
            stats.ct_misses = self.harvested_ct_misses + pkg.ct_misses;
            stats.unique_len = pkg.unique_len;
            stats.unique_capacity = pkg.unique_capacity;
            stats.snapshot_hits = self.harvested_snapshot_hits + pkg.snapshot_hits;
            stats.frozen_nodes = pkg.frozen_nodes();
        } else {
            stats.alive_nodes = 0;
            stats.peak_nodes = self.harvested_peak_nodes;
            stats.ct_hits = self.harvested_ct_hits;
            stats.ct_misses = self.harvested_ct_misses;
            stats.unique_len = 0;
            stats.unique_capacity = 0;
            stats.snapshot_hits = self.harvested_snapshot_hits;
            stats.frozen_nodes = 0;
        }
        stats.snapshot_gate_hits =
            self.harvested_snapshot_gate_hits + backend.map_or(0, AnyBackend::snapshot_gate_hits);
    }
}

fn worker_loop(
    id: usize,
    template: &SimulatorBuilder,
    queue: &Mutex<mpsc::Receiver<QueuedTask>>,
    depth: &AtomicUsize,
    stats: &Mutex<WorkerStats>,
) {
    // Histogram handles resolved once per worker thread: recording on
    // the task path is a few relaxed atomic adds, no registry lock.
    let queue_wait = telemetry::PhaseTimer::new("pool.queue_wait");
    let run_timer = telemetry::PhaseTimer::new("pool.run_job");
    let sample_timer = telemetry::PhaseTimer::new("pool.sample_chunk");
    // A respawned worker adopts its slot's accumulated counters, so
    // the harvest-on-retire totals survive a predecessor's death (all
    // zeros on a first spawn — same code path). Injected panics fire
    // before any backend work, so the dying worker's live package was
    // already reflected in the cell by its last `note_task`.
    let resume = stats.lock().unwrap_or_else(PoisonError::into_inner).clone();
    let mut worker = Worker {
        id,
        template: template.clone(),
        backend: None,
        build_timer: telemetry::PhaseTimer::new("backend.build"),
        epoch: None,
        harvested_ct_hits: resume.ct_hits,
        harvested_ct_misses: resume.ct_misses,
        harvested_peak_nodes: resume.peak_nodes,
        harvested_snapshot_hits: resume.snapshot_hits,
        harvested_snapshot_gate_hits: resume.snapshot_gate_hits,
    };
    loop {
        // Hold the queue lock only for the dequeue, never while
        // executing: a long job must not serialize the other workers.
        let task = {
            let receiver = queue.lock().unwrap_or_else(PoisonError::into_inner);
            receiver.recv()
        };
        let Ok(task) = task else {
            break; // pool dropped its sender: orderly shutdown
        };
        depth.fetch_sub(1, Ordering::Relaxed);
        queue_wait.observe(task.enqueued.elapsed());
        let start = Instant::now();
        match task.task {
            Task::Run { spec, reply } => {
                let shots = spec.job.shots;
                let result = run_timer.time(|| worker.run_job(&spec));
                worker.note_task(
                    stats,
                    start.elapsed(),
                    if result.is_ok() { shots } else { 0 },
                    true,
                    result.is_err(),
                );
                let _ = reply.send((spec.index, spec.attempt, spec.degraded, result));
            }
            Task::Sample {
                epoch,
                chunk,
                circuit,
                strategy,
                shots,
                seed,
                reply,
            } => {
                let result = sample_timer
                    .time(|| worker.sample_chunk(epoch, &circuit, strategy, shots, seed));
                worker.note_task(
                    stats,
                    start.elapsed(),
                    if result.is_ok() { shots } else { 0 },
                    false,
                    result.is_err(),
                );
                let _ = reply.send((chunk, result));
            }
        }
    }
}
