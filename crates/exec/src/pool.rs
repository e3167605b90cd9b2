//! The [`BackendPool`]: N worker threads executing simulation jobs from a
//! shared channel-based work queue.
//!
//! # One job path
//!
//! Everything the pool executes goes through a single private
//! dispatch-and-collect pass: a *unit* of work (a run job or a
//! sampling chunk) is dispatched once as one task type, answers with
//! one `(key, Result<T>)` reply, and that reply is its result. Two
//! public primitives sit directly on that pass:
//!
//! * [`BackendPool::run_jobs_with_snapshot`] — heterogeneous
//!   [`PoolJob`]s, one result slot per job, optionally each on a fork
//!   of a caller-supplied snapshot warmed on the one circuit they run;
//! * [`BackendPool::sample_counts_streamed`] — one circuit's shot
//!   budget sharded into [`SHOT_CHUNK`]-sized chunks, each drawn as
//!   ascending `(outcome, count)` runs by one routing pass down the DD
//!   and merged into one histogram, with a per-chunk settlement
//!   callback.
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
//!   it or in which order the queue drains. Run job `i` draws with
//!   `stream(DOMAIN_RUN, i)`, sampling chunk `i` with
//!   `stream(DOMAIN_SAMPLE, i)`; the chunk size is fixed, so the chunk
//!   decomposition never depends on the worker count, and histogram
//!   merging is commutative.
//! * **Per-job state isolation.** The DD package's unique table
//!   canonicalizes near-equal edge weights first-write-wins (within
//!   tolerance), so a run's low-order float bits can depend on what ran
//!   earlier in the same package. Workers therefore rebuild their
//!   simulator from the shared [`SimulatorBuilder`] template for every
//!   run job (and once per sampling request), making each outcome a
//!   pure function of the job itself. The previous job's engine is
//!   dropped *before* its replacement is built, so a worker never holds
//!   two engines, and the dropped engine's compute-table slab is
//!   recycled by the new one (see `approxdd_dd`'s cache provisioning
//!   notes) — construction costs no table fill after a worker's first
//!   job.
//!
//! A [`SimSnapshot`] handed to [`BackendPool::run_jobs_with_snapshot`]
//! preserves both properties while amortizing the per-job gate build,
//! **if it was warmed on the one circuit its jobs run** (what the job
//! server's warm sessions do): every worker job runs on its own
//! `Package::fork` of the snapshot's warmed package, whose pinned
//! prefix carries the canonicalization history the job would have
//! built itself, and the job's GC trigger counts the prefix gate nodes
//! it uses as a private build would, so
//! [`PoolOutcome::fingerprint`] stays byte-identical with and without
//! the snapshot at any worker count — the workspace's
//! `tests/determinism.rs` asserts exactly that.
//! [`SimulatorBuilder::build_snapshot`] takes one circuit, so no
//! snapshot mixes two circuits' first-written representatives.
//!
//! # Fault tolerance
//!
//! A unit settles once, for run jobs and sampling chunks alike (see
//! `docs/ARCHITECTURE.md`, "Fault tolerance"):
//!
//! * **The panic boundary.** Every task runs under `catch_unwind`. A
//!   panicking unit drops its worker's engine and replies
//!   [`ExecError::Panicked`] with the panic's message; the thread takes
//!   the next task, so the pool never loses a worker. Caught panics
//!   surface in [`PoolStats::panics`].
//! * **Deadlines.** [`PoolJob::deadline`] gives the job's engine a
//!   wall-clock budget (`SimulatorBuilder::deadline`), which the
//!   simulator checks after every operation whatever the job's policy;
//!   a spent budget surfaces as [`ExecError::DeadlineExceeded`],
//!   counted in [`PoolStats::deadline_exceeded`].
//!
//! Nothing is retried. A unit's outcome is a pure function of the
//! template, the unit and the root seed, so a unit that panicked or
//! ran out of time would do so again: its error is its result. Tests
//! inject faults through the policy seam — a test-side
//! `ApproxPolicy` that panics or sleeps.
//!
//! The resilience counters ([`PoolStats::panics`] and
//! [`PoolStats::deadline_exceeded`]) are diagnostics, excluded from
//! [`PoolOutcome::fingerprint`] like the executing worker.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;
use approxdd_sim::{
    PolicyFactory, RunResult, SharedObserver, SimError, SimSnapshot, Simulator, SimulatorBuilder,
    TraceEvent, TraceRecorder,
};
use approxdd_telemetry as telemetry;

use crate::backend::{BackendStats, ExecError};
use crate::error::panic_message;
use crate::seed::{SeedStream, DOMAIN_RUN, DOMAIN_SAMPLE};

/// A diagonal observable `Σ f(i) |i⟩⟨i|` evaluated worker-side on a
/// job's final state (shared so heterogeneous job lists clone cheaply).
pub type SharedDiagonal = Arc<dyn Fn(u64) -> f64 + Send + Sync>;

/// Shots per sharded-sampling chunk. Fixed (never derived from the
/// worker count) so the chunk decomposition — and with it every chunk
/// seed — is identical no matter how many workers drain the queue.
///
/// A chunk routes its shots down the DD in one pass that costs per
/// distinct outcome prefix, not per shot, so larger chunks are cheaper
/// per shot until the distinct prefixes run out: a near-uniform
/// 14-qubit distribution has 16 384 outcomes, and at 2048 shots per
/// chunk nearly every shot still walked the lower levels alone. The
/// chunk size is part of the sampling stream: moving it moves every
/// sharded histogram.
pub const SHOT_CHUNK: usize = 16384;

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
        }
    }

    /// Overrides the approximation policy for this job only — the
    /// worker builds a fresh policy instance from the factory for this
    /// job (per-job instantiation is what keeps results bit-identical
    /// and worker-count-invariant). A [`approxdd_sim::Strategy`] preset
    /// is a factory too: `PoolJob::new(c).policy(Strategy::Exact)`.
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
    /// The value is computed on the **raw** state, exactly
    /// `Σᵢ |aᵢ|² f(i)`, and is not divided by the state's squared norm:
    /// a circuit whose dense blocks are not unitary leaves the state
    /// unnormalized, and the value is then the weighted mass as it
    /// stands. Shares the engine's dense-amplitude width limits.
    #[must_use]
    pub fn expectation(mut self, f: SharedDiagonal) -> Self {
        self.expectation = Some(f);
        self
    }

    /// Sets a wall-clock deadline for this job. The worker builds the
    /// job's engine with it (`SimulatorBuilder::deadline`), which stops
    /// the run at the first operation past the cutoff whatever the
    /// job's policy, and the job fails with
    /// [`ExecError::DeadlineExceeded`]. The job runs once, so the
    /// budget bounds the whole job.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The job's circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}

/// The detached result of one pooled job: unified run statistics plus
/// (optionally) a measurement histogram. Unlike a [`RunResult`], it
/// holds no engine handle — the worker extracts everything and releases
/// the run before replying, so outcomes are plain data that cross
/// threads freely.
#[derive(Debug, Clone)]
pub struct PoolOutcome {
    /// Name of the executed circuit.
    pub name: String,
    /// Register width.
    pub n_qubits: usize,
    /// Unified run statistics (identical to what a single-threaded
    /// simulator run of the same job reports).
    pub stats: BackendStats,
    /// DD node count of the final state.
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
}

impl PoolOutcome {
    /// A hash over every deterministic *result* field — everything
    /// except the wall-clock runtime, the executing worker, the trace
    /// (itself deterministic, but an audit artifact rather than a
    /// result), the policy *name* (so a custom policy replicating a
    /// preset's decisions fingerprints identically to the preset). Two
    /// runs of the same job under the same root seed produce equal
    /// fingerprints regardless of pool size; the contract suite asserts
    /// exactly that.
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
    /// Tasks that panicked on this worker, counted before the panicked
    /// dispatch replies ([`PoolStats::panics`] is the sum over
    /// workers).
    pub panics: usize,
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
    /// simulator this worker has owned — the worker's node-memory
    /// high-water mark, accumulated like [`WorkerStats::ct_hits`].
    pub(crate) peak_nodes: usize,
    /// Gate DDs cached in this worker's simulator after its last task.
    pub cached_gates: usize,
    /// Compute-table hits (the `add` table, the package's one compute
    /// table) summed over every simulator this worker has owned. Run
    /// jobs rebuild the simulator per job (see the module docs); retiring
    /// one harvests its counters into this running total, so
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
    /// Unique-table lookups answered by a node of a snapshot's pinned
    /// prefix, accumulated like [`WorkerStats::ct_hits`] (0 when the
    /// pool runs without snapshots).
    pub(crate) snapshot_hits: u64,
    /// Gate-DD lookups served by a snapshot's gate cache, accumulated
    /// like [`WorkerStats::ct_hits`] (0 without snapshots).
    pub snapshot_gate_hits: u64,
    /// Alive nodes in the pinned prefix of this worker's forked package
    /// (0 without a snapshot).
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
    /// Tasks that panicked over the pool's lifetime (0 on a healthy
    /// run), each counted before its dispatch replies — a caller that
    /// has seen a panicked job settle reads the panic counted. A
    /// resilience diagnostic, never part of any result fingerprint.
    pub panics: usize,
    /// Always 0. The pool dispatches every unit once and never
    /// retries: a unit's outcome is a pure function of the unit and
    /// the root seed, so a second dispatch could only repeat the first.
    /// The field stays while the repo benchmark (`exec.retries`) reads
    /// it, and goes with the next change to that harness.
    pub retries: usize,
    /// [`ExecError::DeadlineExceeded`] failures observed, one per
    /// failed job or sampling request.
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

    /// Unique-table lookups answered by a node of a snapshot's pinned
    /// prefix, summed over workers (0 when the pool runs without
    /// snapshots).
    #[must_use]
    pub fn snapshot_hits(&self) -> u64 {
        self.per_worker.iter().map(|w| w.snapshot_hits).sum()
    }

    /// Gate-DD lookups served by snapshots' gate caches, summed over
    /// workers (0 without snapshots).
    #[must_use]
    pub fn snapshot_gate_hits(&self) -> u64 {
        self.per_worker.iter().map(|w| w.snapshot_gate_hits).sum()
    }

    /// Alive nodes in the pinned prefix of worker packages forked from
    /// a snapshot (the per-worker maximum; 0 without snapshots).
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
    /// The merged histogram after this chunk, as `(outcome, count)`
    /// runs in ascending outcome order. Intermediate views are
    /// scheduling-dependent; only the final one (at `settled ==
    /// chunks`) is deterministic.
    pub merged: &'a [(u64, usize)],
}

/// One sampling request, as each of its chunks sees it.
struct SampleRequest {
    /// Tells this request's cached run state from an earlier one's.
    epoch: u64,
    circuit: Circuit,
    policy: Option<Arc<dyn PolicyFactory>>,
    deadline: Option<Duration>,
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

/// A fixed-size pool of worker threads, each owning a [`Simulator`]
/// built from a shared [`SimulatorBuilder`] template, running
/// jobs and sampling chunks from one channel-based work queue.
///
/// Build one through the builder —
/// `Simulator::builder().workers(4).build_pool()` (see [`BuildPool`]).
/// There are two ways to submit work, and both run on the same private
/// dispatch-and-collect pass:
///
/// * [`BackendPool::run_jobs_with_snapshot`] runs a list of
///   [`PoolJob`]s. [`BackendPool::run_jobs`] is the same call without
///   a snapshot, and [`BackendPool::run_batch`] is `run_jobs` over
///   plain circuits.
/// * [`BackendPool::sample_counts_streamed`] shards one circuit's shot
///   budget across the workers. [`BackendPool::sample_counts`] is the
///   same call without a policy override or a progress callback.
///
/// All five take `&self` and may be called from multiple threads;
/// results are invariant under worker count (see the module docs for
/// the determinism contract).
///
/// ```
/// use std::sync::Arc;
/// use approxdd_exec::{BuildPool, PoolJob};
/// use approxdd_circuit::generators;
/// use approxdd_sim::Simulator;
///
/// # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
/// let template = Simulator::builder().workers(2).seed(7);
/// let pool = template.clone().build_pool();
/// let circuit = generators::qft(6);
/// // The gate DDs of one circuit, built once and forked by every job
/// // that runs it: same bits, less per-job gate building.
/// let snapshot = Arc::new(template.build_snapshot(&circuit)?);
/// let jobs = vec![PoolJob::new(circuit.clone()); 4];
/// let outcomes = pool.run_jobs_with_snapshot(jobs, Some(snapshot));
/// assert_eq!(outcomes.len(), 4);
/// let plain = pool.run_jobs(vec![PoolJob::new(circuit)]).remove(0)?;
/// assert_eq!(outcomes[0].as_ref().unwrap().fingerprint(), plain.fingerprint());
/// assert!(pool.stats().snapshot_gate_hits() > 0);
/// # Ok(())
/// # }
/// ```
///
/// Dropping the pool closes the queue and joins every worker.
#[derive(Debug)]
pub struct BackendPool {
    sender: Option<mpsc::Sender<Task>>,
    handles: Vec<thread::JoinHandle<()>>,
    worker_stats: Vec<Arc<Mutex<WorkerStats>>>,
    queue_depth: Arc<AtomicUsize>,
    max_queue_depth: AtomicUsize,
    tasks_submitted: AtomicUsize,
    epoch: AtomicU64,
    seeds: SeedStream,
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
            handles,
            worker_stats,
            queue_depth,
            max_queue_depth: AtomicUsize::new(0),
            tasks_submitted: AtomicUsize::new(0),
            epoch: AtomicU64::new(0),
            deadline_exceeded: AtomicUsize::new(0),
            created: Instant::now(),
        }
    }

    /// Number of worker threads (fixed for the pool's lifetime).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Worker threads currently running: every one of
    /// [`BackendPool::workers`] while the pool lives, since a panicking
    /// task is caught before it can end its thread.
    #[must_use]
    pub fn alive_workers(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
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

    /// [`BackendPool::run_jobs_with_snapshot`] without a snapshot:
    /// every worker builds its own job's gate DDs, so each result is
    /// the job's own, whatever else the batch holds.
    #[must_use]
    pub fn run_jobs(&self, jobs: Vec<PoolJob>) -> Vec<Result<PoolOutcome, ExecError>> {
        self.run_jobs_with_snapshot(jobs, None)
    }

    /// The run primitive: runs heterogeneous jobs (per-job policies,
    /// shot counts, deadlines, …) across the workers, returning one
    /// result per job in input order. A failing job never disturbs the
    /// others: each failure is confined to its own slot.
    ///
    /// Job `i` samples with seed `stream(DOMAIN_RUN, i)` — keyed on the
    /// job index alone. A job that panics reports
    /// [`ExecError::Panicked`] in its slot; its worker lives on (see the
    /// module docs, *Fault tolerance*).
    ///
    /// `snapshot` is the warmed package every job's engine forks, which
    /// makes this the cross-batch reuse seam behind warm serving
    /// sessions: the caller warms one circuit once
    /// ([`SimulatorBuilder::build_snapshot`]) and passes the same `Arc`
    /// to every later batch that runs it — its gate DDs are never
    /// rebuilt, and the outcomes stay byte-identical to a cold
    /// [`BackendPool::run_jobs`] call (the snapshot clause of the
    /// determinism contract, `tests/determinism.rs`).
    ///
    /// **Precondition:** the snapshot was warmed, with this pool's
    /// template options, on the circuit every job in `jobs` runs.
    /// `None` runs the batch snapshot-free.
    #[must_use]
    pub fn run_jobs_with_snapshot(
        &self,
        jobs: Vec<PoolJob>,
        snapshot: Option<Arc<SimSnapshot>>,
    ) -> Vec<Result<PoolOutcome, ExecError>> {
        let seeds = self.seeds;
        let mut results: Vec<_> = jobs.iter().map(|_| None).collect();
        self.drive(
            "run",
            jobs.len(),
            // The job list moves into the work closure, which `drive`
            // shares behind one `Arc`: every job, on whichever worker it
            // lands, reads the same copy.
            move |worker, index| {
                let job = &jobs[index];
                worker.booked(true, job.shots, |worker| {
                    let seed = seeds.seed(DOMAIN_RUN, index as u64);
                    worker.run_job(job, index, seed, snapshot.clone())
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
        self.sample_counts_streamed(circuit, None, None, shots, &mut |_| {})
    }

    /// The sampling primitive: draws `shots` measurement outcomes of
    /// `circuit` as a histogram, sharding the shot budget across the
    /// workers in chunks of [`SHOT_CHUNK`]. `policy` overrides the
    /// template's policy for this call (e.g. sampling an approximate
    /// run's distribution), as [`PoolJob::policy`] does for a run job.
    /// `deadline` bounds each worker's run of the circuit as
    /// [`PoolJob::deadline`] bounds a run job: a spent deadline fails
    /// the request with [`ExecError::DeadlineExceeded`], counted in
    /// [`PoolStats::deadline_exceeded`].
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
    /// not reproducible results.
    ///
    /// # Errors
    ///
    /// The first chunk error to arrive: preparation, execution and
    /// deadline errors and [`ExecError::Panicked`] fail the whole
    /// request.
    pub fn sample_counts_streamed(
        &self,
        circuit: &Circuit,
        policy: Option<Arc<dyn PolicyFactory>>,
        deadline: Option<Duration>,
        shots: usize,
        on_chunk: &mut dyn FnMut(&ChunkSettled),
    ) -> Result<HashMap<u64, usize>, ExecError> {
        // The epoch invalidates the workers' cached run state; chunk
        // *seeds* are keyed on the chunk index alone so repeated calls
        // stay reproducible.
        let request = SampleRequest {
            epoch: self.epoch.fetch_add(1, Ordering::Relaxed),
            circuit: circuit.clone(),
            policy,
            deadline,
        };
        let chunks = shots.div_ceil(SHOT_CHUNK);
        let chunk_shots = move |chunk: usize| SHOT_CHUNK.min(shots - chunk * SHOT_CHUNK);
        let seeds = self.seeds;
        let mut merged = Vec::new();
        let mut settled = 0;
        let mut shots_settled = 0;
        self.drive(
            "sample",
            chunks,
            move |worker, chunk| {
                let size = chunk_shots(chunk);
                let seed = seeds.seed(DOMAIN_SAMPLE, chunk as u64);
                worker.booked(false, size, |worker| {
                    worker.sample_chunk(&request, chunk, size, seed)
                })
            },
            |chunk, result| {
                merge_runs(&mut merged, &result?);
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
        Ok(merged.into_iter().collect())
    }

    /// The one execution path: dispatches units `0..units` to the
    /// workers, once each, and settles each unit's reply as its result.
    ///
    /// `work` is what a worker does for one unit; `settle` receives each
    /// unit's result, in arrival order, and may fail the whole
    /// submission (queued units then run into a closed reply channel).
    ///
    /// Each unit runs `work` under `catch_unwind`, so it replies exactly
    /// once: a panic is booked on its worker ([`Worker::recover`])
    /// before the unit replies [`ExecError::Panicked`] with the panic's
    /// message. A unit that never replied (its task was dropped unrun)
    /// settles as [`ExecError::Panicked`] too. Blown deadlines are
    /// counted here, once per settled unit.
    fn drive<T: Send + 'static>(
        &self,
        kind: &'static str,
        units: usize,
        work: impl Fn(&mut Worker, usize) -> Result<T, ExecError> + Send + Sync + 'static,
        mut settle: impl FnMut(usize, Result<T, ExecError>) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let work = Arc::new(work);
        let (reply, replies) = mpsc::channel();
        for key in 0..units {
            let work = Arc::clone(&work);
            let reply = reply.clone();
            self.submit(kind, move |worker| {
                let result = panic::catch_unwind(AssertUnwindSafe(|| work(worker, key)))
                    .unwrap_or_else(|payload| {
                        worker.recover();
                        let message = panic_message(&*payload);
                        Err(ExecError::Panicked { job: key, message })
                    });
                let _ = reply.send((key, result));
            });
        }
        drop(reply);
        let mut settled = vec![false; units];
        for (key, result) in replies.iter().take(units) {
            settled[key] = true;
            if matches!(result, Err(ExecError::DeadlineExceeded { .. })) {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                telemetry::count("approxdd_pool_deadline_exceeded_total", 1);
            }
            settle(key, result)?;
        }
        for (job, _) in settled.iter().enumerate().filter(|(_, done)| !**done) {
            let message = "the task was dropped unrun".to_string();
            settle(job, Err(ExecError::Panicked { job, message }))?;
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
            panics: per_worker.iter().map(|w| w.panics).sum(),
            retries: 0,
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
            // sender, which surfaces as Panicked at the collector.
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for BackendPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
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

/// Adds the histogram `runs` into `merged`, both `(outcome, count)`
/// runs in ascending outcome order, in place: `merged` grows by the
/// outcomes it lacks and is filled from the back. (A second buffer the
/// size of `merged` showed in `pool_sweep`'s peak RSS.)
pub(crate) fn merge_runs(merged: &mut Vec<(u64, usize)>, runs: &[(u64, usize)]) {
    let mut i = 0;
    let mut missing = 0;
    for &(outcome, _) in runs {
        while i < merged.len() && merged[i].0 < outcome {
            i += 1;
        }
        missing += usize::from(i == merged.len() || merged[i].0 != outcome);
    }
    let (mut i, mut j) = (merged.len(), runs.len());
    merged.resize(i + missing, (0, 0));
    // Write position k stays at or above read position i: the slots
    // between them are exactly the outcomes still to be inserted.
    let mut k = merged.len();
    while j > 0 {
        k -= 1;
        let (outcome, count) = runs[j - 1];
        merged[k] = match i.checked_sub(1).map(|at| merged[at]) {
            Some((kept, n)) if kept > outcome => {
                i -= 1;
                (kept, n)
            }
            Some((kept, n)) if kept == outcome => {
                i -= 1;
                j -= 1;
                (kept, n + count)
            }
            _ => {
                j -= 1;
                (outcome, count)
            }
        };
    }
}

/// Why `Worker::sim` can be unwrapped after `fresh_sim`.
const SIM_BUILT: &str = "fresh_sim built this task's engine";

/// Folds `sim`'s package counters into `stats`. The cumulative ones
/// (cache and snapshot hits, the node high-water mark) add on top of
/// what `stats` holds; the gauges (alive nodes, table occupancy, cached
/// gates) are overwritten. A worker without an engine has nothing to
/// report and contributes zeros.
fn absorb(stats: &mut WorkerStats, sim: Option<&Simulator>) {
    let pkg = sim.map(|sim| sim.package().stats()).unwrap_or_default();
    stats.ct_hits += pkg.ct_hits;
    stats.ct_misses += pkg.ct_misses;
    stats.peak_nodes = stats.peak_nodes.max(pkg.peak_nodes());
    stats.snapshot_hits += pkg.snapshot_hits;
    stats.snapshot_gate_hits += sim.map_or(0, Simulator::snapshot_gate_hits);
    stats.alive_nodes = pkg.vnodes_alive + pkg.mnodes_alive;
    stats.unique_len = pkg.unique_len;
    stats.unique_capacity = pkg.unique_capacity;
    stats.frozen_nodes = pkg.frozen_nodes();
    stats.cached_gates = sim.map_or(0, Simulator::gate_cache_len);
}

struct Worker {
    template: SimulatorBuilder,
    /// The current unit's engine: `None` before the first task, after a
    /// caught panic, and while [`Worker::fresh_sim`] builds the next
    /// one.
    sim: Option<Simulator>,
    /// The sampling request this worker last simulated for, with that
    /// run's result. A failed run is kept too, so the request's
    /// remaining chunks answer with its error instead of re-running it.
    epoch: Option<(u64, Result<RunResult, ExecError>)>,
    /// This worker's books: the task counters, plus the package
    /// counters of every engine it has retired (each run job rebuilds
    /// the simulator, so the live package only covers the current job).
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
        absorb(&mut report, self.sim.as_ref());
        *self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = report;
        result
    }

    /// Books a panic caught at the task boundary and resets the worker
    /// for its next task: the slot's panic count goes up in the
    /// published cell, `totals` is re-read from that cell, and the
    /// engine and the sampling epoch are dropped unharvested. The cell
    /// already holds the counters of the engine the panicked task
    /// found; those of an engine it built itself are lost with it.
    fn recover(&mut self) {
        self.epoch = None;
        self.sim = None;
        let mut published = self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        published.panics += 1;
        self.totals = published.clone();
        telemetry::count("approxdd_pool_panics_total", 1);
    }

    /// Replaces the simulator with a fresh instance built from the
    /// template (plus an optional policy override), on a fork of the
    /// batch's snapshot when it has one. Job isolation
    /// is the pool's determinism linchpin — see the module docs.
    ///
    /// A job's `deadline` becomes the engine's
    /// (`SimulatorBuilder::deadline`), whatever its policy.
    fn fresh_sim(
        &mut self,
        policy: Option<&Arc<dyn PolicyFactory>>,
        snapshot: Option<Arc<SimSnapshot>>,
        deadline: Option<Duration>,
    ) {
        // Harvest, then drop the old engine (its epoch's result first)
        // before the new one exists: the worker peaks at one arena,
        // unique-table and cache set, not two.
        self.epoch = None;
        absorb(&mut self.totals, self.sim.take().as_ref());
        let mut template = self.template.clone();
        if let Some(factory) = policy {
            template = template.policy_factory(Arc::clone(factory));
        }
        if let Some(budget) = deadline {
            template = template.deadline(budget);
        }
        self.sim = Some(
            self.build_timer
                .time(|| template.build_with_snapshot(snapshot)),
        );
    }

    /// Executes one run job on a fresh engine, typing a spent deadline
    /// as [`ExecError::DeadlineExceeded`].
    fn run_job(
        &mut self,
        job: &PoolJob,
        index: usize,
        seed: u64,
        snapshot: Option<Arc<SimSnapshot>>,
    ) -> Result<PoolOutcome, ExecError> {
        self.fresh_sim(job.policy.as_ref(), snapshot, job.deadline);
        deadline_exceeded(self.execute(job, seed), index)
    }

    /// The run body proper (simulator already fresh).
    fn execute(&mut self, job: &PoolJob, seed: u64) -> Result<PoolOutcome, ExecError> {
        let sim = self.sim.as_mut().expect(SIM_BUILT);
        let recorder = job.trace.then(|| {
            let recorder = TraceRecorder::shared();
            sim.attach_observer(recorder.clone() as SharedObserver);
            recorder
        });
        let run = sim.run(&job.circuit)?;
        let counts = (job.shots > 0).then(|| {
            sim.reseed(seed);
            sim.draw_counts(&run, job.shots).into_iter().collect()
        });
        // Capture the (fallible) observable value but release the
        // result before propagating any error: an early return here
        // would otherwise pin the run's GC roots until this worker's
        // next job rebuilds its simulator.
        let expectation = job
            .expectation
            .as_ref()
            .map(|f| sim.expectation(&run, &**f));
        let final_size = sim.package().vsize(run.state());
        sim.release(&run);
        let expectation = expectation.transpose()?;
        let trace = recorder.map(|recorder| {
            recorder
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
        });
        Ok(PoolOutcome {
            name: job.circuit.name().to_string(),
            n_qubits: run.n_qubits(),
            stats: run.stats.into(),
            final_size,
            counts,
            expectation,
            trace,
            worker: self.totals.worker,
        })
    }

    /// Draws one sampling chunk from the request's final state,
    /// simulating the circuit first if this worker has not yet done so
    /// for this request's epoch. A run that fails, a spent deadline
    /// included, fails once per epoch: the epoch keeps the error.
    fn sample_chunk(
        &mut self,
        request: &SampleRequest,
        chunk: usize,
        shots: usize,
        seed: u64,
    ) -> Result<Vec<(u64, usize)>, ExecError> {
        let SampleRequest {
            epoch,
            circuit,
            policy,
            deadline,
        } = request;
        if self.epoch.as_ref().map(|(e, _)| e) != Some(epoch) {
            self.fresh_sim(policy.as_ref(), None, *deadline);
            let sim = self.sim.as_mut().expect(SIM_BUILT);
            let run = deadline_exceeded(sim.run(circuit).map_err(ExecError::from), chunk);
            self.epoch = Some((*epoch, run));
        }
        let (_, run) = self.epoch.as_ref().expect("epoch state just ensured");
        let run = run.as_ref().map_err(ExecError::clone)?;
        let sim = self.sim.as_mut().expect(SIM_BUILT);
        sim.reseed(seed);
        Ok(sim.draw_counts(run, shots))
    }
}

/// Types the simulator's spent deadline as
/// [`ExecError::DeadlineExceeded`] of unit `job`, for run jobs and
/// sampling epochs alike.
fn deadline_exceeded<T>(result: Result<T, ExecError>, job: usize) -> Result<T, ExecError> {
    result.map_err(|e| match e {
        ExecError::Sim(SimError::DeadlineExceeded { budget, .. }) => {
            ExecError::DeadlineExceeded { job, budget }
        }
        other => other,
    })
}

/// Spawns the worker thread of `slot`, publishing into `stats`; the
/// thread is the cell's only writer.
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
            let mut worker = Worker {
                template,
                sim: None,
                epoch: None,
                totals: WorkerStats {
                    worker: slot,
                    ..WorkerStats::default()
                },
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
