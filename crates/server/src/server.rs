//! The job server: accept → admit → schedule → stream → settle.
//!
//! One [`JobServer`] owns a [`BackendPool`] (the existing worker-pool
//! execution layer), a [`SessionCache`] of warm snapshots, and a
//! bounded priority [`Scheduler`]. Connections are cheap threads that
//! parse one request each; runner threads pull admitted jobs off the
//! scheduler and execute them on the shared pool; `GET /jobs/{id}`
//! replays a job's event log and then follows it live, so a client
//! can attach before, during, or after execution and see the same
//! complete NDJSON stream. Settled jobs are kept under a fixed budget of
//! log bytes; the id of one evicted answers `410 expired`.
//!
//! This module is the frame — configuration, bind, the accept loop and
//! the drain — and the state the stages share. The stages themselves
//! are the crate's private modules: `routes` (accept, admit, stream),
//! `run` (schedule, settle), `job` (a job's spec, event log and event
//! constructors) and `report` (`/stats` and `/metrics`).
//!
//! # Endpoints
//!
//! | Method & path    | Meaning                                                |
//! |------------------|--------------------------------------------------------|
//! | `POST /jobs`     | Submit QASM (body) + query params; `202 {"job":id}`    |
//! | `GET /jobs/{id}` | NDJSON event stream: trace, partials, final result     |
//! | `GET /stats`     | Pool, scheduler, and session counters                  |
//! | `GET /metrics`   | Prometheus text exposition of the telemetry registry   |
//! | `GET /healthz`   | Liveness probe                                         |
//! | `POST /shutdown` | Graceful drain: finish admitted jobs, then exit        |
//!
//! # Determinism contract
//!
//! The final `result` event of a job carries the
//! [`approxdd_exec::PoolOutcome::fingerprint`] of the run. For a given server root
//! seed, the same (QASM, policy, shots) request produces a
//! byte-identical fingerprint regardless of worker count, whether the
//! session was warm or cold, and across worker respawns — it is the
//! same number a direct [`BackendPool::run_jobs`] call computes for
//! the same job. Everything scheduling-dependent (queue position,
//! partial-histogram settlement order, worker indexes, retry counts)
//! is reported in events or `/stats` but excluded from fingerprints.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use approxdd_exec::BackendPool;
use approxdd_sim::SimulatorBuilder;
use approxdd_telemetry as telemetry;

use crate::job::{JobSpec, JobState, JobTable, JOBS_EXPIRED};
use crate::routes::handle_connection;
use crate::run::runner_loop;
use crate::scheduler::{Quota, Scheduler};
use crate::session::SessionCache;

/// The crate's one lock rule: a guard whose holder panicked is
/// recovered, not propagated — as in `approxdd-exec`. Every critical
/// section of the server leaves its data consistent between statements
/// (a counter bump, a push, a map insert), so a thread that panics
/// while holding a lock takes only itself down: no served path panics
/// on another thread's panic.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Configuration for a [`JobServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    template: SimulatorBuilder,
    queue_capacity: usize,
    session_capacity: usize,
    quota: Option<Quota>,
    runners: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            template: SimulatorBuilder::new(),
            queue_capacity: 64,
            session_capacity: 8,
            quota: None,
            runners: 1,
        }
    }
}

impl ServerConfig {
    /// Starts from defaults: 64-deep queue, 8 warm sessions, one
    /// runner, no quotas, default simulator template.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The simulator template every job runs under. Its seed is the
    /// server's root seed (the determinism domain), its worker knob
    /// sizes the pool, its engine/policy are the per-job defaults.
    #[must_use]
    pub fn template(mut self, template: SimulatorBuilder) -> Self {
        self.template = template;
        self
    }

    /// Scheduler admission capacity (clamped to ≥ 1): submissions
    /// beyond this many queued jobs are rejected with HTTP 429.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Warm sessions to keep (LRU); 0 disables cross-batch snapshot
    /// reuse entirely. Sessions alone decide snapshot reuse when
    /// serving: the template's `share_snapshot` knob is never read,
    /// because each request runs over its session's snapshot or none.
    #[must_use]
    pub fn sessions(mut self, capacity: usize) -> Self {
        self.session_capacity = capacity;
        self
    }

    /// Per-client token-bucket quota (default: none).
    #[must_use]
    pub fn quota(mut self, quota: Quota) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Runner threads executing scheduled jobs (clamped to ≥ 1). Each
    /// runner dispatches one job at a time to the shared pool, so
    /// `runners` bounds how many jobs are *in flight* concurrently;
    /// intra-job parallelism comes from the pool's workers either way.
    #[must_use]
    pub fn runners(mut self, runners: usize) -> Self {
        self.runners = runners.max(1);
        self
    }
}

/// What the connection threads, the runners and the reports share.
pub(crate) struct Inner {
    pub(crate) pool: BackendPool,
    pub(crate) template: SimulatorBuilder,
    pub(crate) session_capacity: usize,
    pub(crate) sessions: Mutex<SessionCache>,
    /// Each queue entry carries its job: the state the runner reports
    /// into and the spec it runs.
    pub(crate) sched: Mutex<Scheduler<(Arc<JobState>, JobSpec)>>,
    pub(crate) sched_cond: Condvar,
    pub(crate) jobs: JobTable,
    pub(crate) draining: AtomicBool,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) started: Instant,
    pub(crate) addr: SocketAddr,
}

/// The long-lived job server. Bind, then [`JobServer::run`] — which
/// blocks until a `POST /shutdown` drains it.
pub struct JobServer {
    inner: Arc<Inner>,
    listener: TcpListener,
    runners: usize,
}

impl JobServer {
    /// Binds the listening socket and builds the pool (workers spawn
    /// immediately, per the pool's semantics). Use port 0 for an
    /// ephemeral port and read it back via [`JobServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // At 0, so a scrape shows it before the first eviction.
        telemetry::global().counter(JOBS_EXPIRED);
        let local = listener.local_addr()?;
        let runners = config.runners;
        let pool = BackendPool::new(config.template.clone());
        let inner = Arc::new(Inner {
            pool,
            template: config.template,
            session_capacity: config.session_capacity,
            sessions: Mutex::new(SessionCache::new(config.session_capacity)),
            sched: Mutex::new(Scheduler::new(config.queue_capacity, config.quota)),
            sched_cond: Condvar::new(),
            jobs: JobTable::default(),
            draining: AtomicBool::new(false),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            started: Instant::now(),
            addr: local,
        });
        Ok(JobServer {
            inner,
            listener,
            runners,
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The underlying pool — exposed so tests can inject fault plans
    /// or read stats before [`JobServer::run`] consumes the server.
    #[must_use]
    pub fn pool(&self) -> &BackendPool {
        &self.inner.pool
    }

    /// Serves until drained: accepts connections, schedules jobs, and
    /// returns after `POST /shutdown` once every admitted job has
    /// settled and every open stream has been flushed.
    ///
    /// # Errors
    ///
    /// Propagates runner-thread spawn failures; per-connection I/O
    /// errors are contained to their connection.
    pub fn run(self) -> io::Result<()> {
        let mut runner_handles = Vec::with_capacity(self.runners);
        for i in 0..self.runners {
            let inner = Arc::clone(&self.inner);
            runner_handles.push(
                thread::Builder::new()
                    .name(format!("serve-runner-{i}"))
                    .spawn(move || runner_loop(&inner))?,
            );
        }

        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            if self.inner.draining.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let inner = Arc::clone(&self.inner);
            if let Ok(handle) = thread::Builder::new()
                .name("serve-conn".into())
                .spawn(move || handle_connection(&inner, stream))
            {
                conns.push(handle);
            }
            // Drop the handles of finished connection threads so the
            // list stays bounded by *concurrent* connections.
            conns.retain(|handle| !handle.is_finished());
        }

        // Drain: runners finish the queue, streams flush, then done.
        self.inner.sched_cond.notify_all();
        for handle in runner_handles {
            let _ = handle.join();
        }
        for handle in conns {
            let _ = handle.join();
        }
        Ok(())
    }
}
