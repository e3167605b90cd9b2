//! A job as the server holds it: what to run ([`JobSpec`]), where its
//! events go ([`JobState`]), where `GET /jobs/{id}` finds it
//! ([`JobTable`]), and how every line of its NDJSON stream is built
//! ([`event`], [`trace_event`], [`result_event`]).
//!
//! The spec and the state travel together as the scheduler's queue
//! payload, so a runner that pops a job holds everything it needs; the
//! table exists for late readers only.
//!
//! A job's log is one text buffer, every line followed by `\n`, so a
//! follower's cursor is a byte offset and a replay is one copy. When
//! the job settles the buffer is shrunk to its length, and the table
//! keeps the newest settled logs under [`RETAINED_LOG_BYTES`]: the
//! oldest are evicted, and their ids answer `410 expired`.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;
use approxdd_exec::PoolOutcome;
use approxdd_sim::json::Json;
use approxdd_sim::ndjson::trace_event_json;
use approxdd_sim::{Strategy, TraceEvent};
use approxdd_telemetry as telemetry;

use crate::error::ServeError;
use crate::server::lock;

/// Bytes of settled job logs the table keeps. A constant, not a knob:
/// it bounds the process, and no workload has asked to move it.
pub(crate) const RETAINED_LOG_BYTES: usize = 4 << 20;

/// Counts settled jobs whose logs were evicted.
pub(crate) const JOBS_EXPIRED: &str = "approxdd_server_jobs_expired_total";

/// Everything a job needs to execute, parsed at submission time.
#[derive(Debug)]
pub(crate) struct JobSpec {
    pub(crate) circuit: Circuit,
    pub(crate) strategy: Option<Strategy>,
    pub(crate) shots: usize,
    pub(crate) trace: bool,
    pub(crate) partials: bool,
    pub(crate) deadline: Option<Duration>,
}

#[derive(Debug, Default)]
struct EventLog {
    /// Every line so far, each followed by `\n`.
    text: String,
    done: bool,
}

/// A job's mailbox: the runner appends NDJSON lines, streaming
/// connections replay-then-follow via the condvar.
#[derive(Debug)]
pub(crate) struct JobState {
    pub(crate) id: u64,
    events: Mutex<EventLog>,
    cond: Condvar,
    /// Submission time — a runner picking the job up records the
    /// admit→start latency into the `server.admit_wait` phase.
    pub(crate) admitted: Instant,
}

impl JobState {
    fn new(id: u64) -> Self {
        JobState {
            id,
            events: Mutex::new(EventLog::default()),
            cond: Condvar::new(),
            admitted: Instant::now(),
        }
    }

    /// Appends one event of this job to its log.
    pub(crate) fn push(&self, kind: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) {
        self.append(&event(kind, self.id, fields));
    }

    /// Appends an already built event line.
    pub(crate) fn append(&self, event: &Json) {
        // Writing into a `String` cannot fail.
        let _ = writeln!(lock(&self.events).text, "{event}");
        self.cond.notify_all();
    }

    /// Marks the log complete; nothing is pushed after this.
    pub(crate) fn finish(&self) {
        lock(&self.events).done = true;
        self.cond.notify_all();
    }

    /// Shrinks the log to its length and returns the bytes it holds.
    fn compact(&self) -> usize {
        let mut log = lock(&self.events);
        log.text.shrink_to_fit();
        log.text.capacity()
    }

    /// Blocks until the log holds bytes past `cursor` (or the job is
    /// done), then returns them plus the done flag. Text and flag are
    /// read under one lock, so a `true` flag means the text returned
    /// is the last. Lines are appended whole, so the text is whole
    /// lines whenever `cursor` is the sum of earlier returns.
    pub(crate) fn wait_from(&self, cursor: usize) -> (String, bool) {
        let log = self
            .cond
            .wait_while(lock(&self.events), |log| {
                log.text.len() <= cursor && !log.done
            })
            .unwrap_or_else(PoisonError::into_inner);
        let from = cursor.min(log.text.len());
        (log.text[from..].to_string(), log.done)
    }
}

#[derive(Debug, Default)]
struct Jobs {
    /// Every job a stream can still attach to: queued, running, or
    /// settled and retained.
    live: HashMap<u64, Arc<JobState>>,
    /// The retained settled jobs and their log bytes, oldest first.
    settled: VecDeque<(u64, usize)>,
    /// The sum of `settled`'s bytes.
    settled_bytes: usize,
    /// The id the next job gets; ids start at 1.
    next: u64,
}

/// Where `GET /jobs/{id}` finds a job. Nothing else reads it: runners
/// get their job from the scheduler's queue entry. The table issues
/// the ids and decides retention:
/// - a queued or running job always stays;
/// - settled jobs stay while their logs fit in the budget, and the
///   most recently settled one stays even when it alone does not;
/// - a rejected submission is removed at once.
///
/// An id the table issued but no longer holds is expired (410); id 0
/// and ids never issued are not found (404). A follower already
/// attached holds its own `Arc<JobState>`, so eviction never cuts a
/// live stream.
#[derive(Debug)]
pub(crate) struct JobTable {
    budget: usize,
    jobs: Mutex<Jobs>,
}

impl Default for JobTable {
    fn default() -> Self {
        JobTable::with_budget(RETAINED_LOG_BYTES)
    }
}

impl JobTable {
    /// A table that keeps `budget` bytes of settled logs.
    pub(crate) fn with_budget(budget: usize) -> Self {
        JobTable {
            budget,
            jobs: Mutex::new(Jobs {
                next: 1,
                ..Jobs::default()
            }),
        }
    }

    /// Issues the next id and holds its new, empty job.
    pub(crate) fn open(&self) -> Arc<JobState> {
        let mut jobs = lock(&self.jobs);
        let state = Arc::new(JobState::new(jobs.next));
        jobs.next += 1;
        jobs.live.insert(state.id, Arc::clone(&state));
        state
    }

    /// The job `id`, or why there is none: [`ServeError::Expired`] for
    /// an id this table issued and no longer holds,
    /// [`ServeError::NotFound`] for one it never issued.
    pub(crate) fn get(&self, id: u64) -> Result<Arc<JobState>, ServeError> {
        let jobs = lock(&self.jobs);
        match jobs.live.get(&id) {
            Some(state) => Ok(Arc::clone(state)),
            None if (1..jobs.next).contains(&id) => Err(ServeError::Expired(id)),
            None => Err(ServeError::NotFound(format!("job {id}"))),
        }
    }

    /// Drops a job that was never admitted.
    pub(crate) fn remove(&self, id: u64) {
        lock(&self.jobs).live.remove(&id);
    }

    /// Settles a job whose last event is in its log: compacts the log,
    /// evicts the oldest settled jobs while their logs exceed the
    /// budget, and only then marks the log done. A client that read
    /// this job's stream to its end has therefore seen every eviction
    /// the settlement caused.
    pub(crate) fn settle(&self, state: &JobState) {
        // The log lock is released before the table lock is taken.
        let bytes = state.compact();
        {
            let mut jobs = lock(&self.jobs);
            jobs.settled.push_back((state.id, bytes));
            jobs.settled_bytes += bytes;
            while jobs.settled_bytes > self.budget && jobs.settled.len() > 1 {
                let Some((id, bytes)) = jobs.settled.pop_front() else {
                    break;
                };
                jobs.settled_bytes -= bytes;
                jobs.live.remove(&id);
                telemetry::count(JOBS_EXPIRED, 1);
            }
        }
        state.finish();
    }
}

#[allow(clippy::cast_precision_loss)]
pub(crate) fn json_u64(n: u64) -> Json {
    Json::Num(n as f64)
}

/// One line of a job's stream: `{"type":kind,"job":id}` followed by
/// the kind's own fields. Every event but `trace` is spelled at its
/// call site through this constructor.
pub(crate) fn event<K: Into<String>>(
    kind: &str,
    job: u64,
    fields: impl IntoIterator<Item = (K, Json)>,
) -> Json {
    let head = [
        ("type".to_string(), Json::str(kind)),
        ("job".to_string(), json_u64(job)),
    ];
    let fields = fields.into_iter().map(|(k, v)| (k.into(), v));
    Json::Obj(head.into_iter().chain(fields).collect())
}

/// A `trace` event: the workspace's one [`TraceEvent`] rendering
/// ([`trace_event_json`]) behind the stream's own head. On a job
/// stream `type` names the event kind, so the rendering's leading
/// `"type"` pair — the trace kind — is re-labelled `"event"`.
pub(crate) fn trace_event(job: u64, traced: &TraceEvent) -> Json {
    let mut fields = match trace_event_json(traced) {
        Json::Obj(fields) => fields,
        other => vec![(String::new(), other)],
    };
    if let Some((key, _)) = fields.first_mut() {
        *key = "event".to_string();
    }
    event("trace", job, fields)
}

/// The final `result` event: every deterministic result field plus
/// the fingerprint, with the scheduling diagnostics (`worker`,
/// `attempts`, `degraded`) reported alongside but — like everywhere
/// else — excluded from the fingerprint itself.
pub(crate) fn result_event(job: u64, outcome: &PoolOutcome) -> Json {
    let stats = &outcome.stats;
    let fingerprint = format!("{:016x}", outcome.fingerprint());
    event(
        "result",
        job,
        [
            ("fingerprint", Json::str(fingerprint)),
            ("circuit", Json::str(outcome.name.as_str())),
            ("n_qubits", Json::int(outcome.n_qubits)),
            ("gates_applied", Json::int(stats.gates_applied)),
            ("approx_rounds", Json::int(stats.approx_rounds)),
            ("fidelity", Json::Num(stats.fidelity)),
            (
                "fidelity_lower_bound",
                Json::Num(stats.fidelity_lower_bound),
            ),
            ("peak_size", Json::int(stats.peak_size)),
            ("final_size", Json::int(outcome.final_size)),
            (
                "counts",
                outcome.counts.as_ref().map_or(Json::Null, Json::counts),
            ),
            (
                "expectation",
                outcome.expectation.map_or(Json::Null, Json::Num),
            ),
            ("worker", Json::int(outcome.worker)),
            ("attempts", Json::Num(f64::from(outcome.attempts))),
            ("degraded", Json::Bool(outcome.degraded)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Opens a job, writes a log of exactly `bytes` bytes and settles it.
    fn settled(table: &JobTable, bytes: usize) -> u64 {
        let state = table.open();
        // `"x…x"` plus its newline.
        state.append(&Json::str("x".repeat(bytes - 3)));
        table.settle(&state);
        state.id
    }

    fn lookup(table: &JobTable, id: u64) -> &'static str {
        table.get(id).map_or_else(|e| e.kind(), |_| "retained")
    }

    #[test]
    fn eviction_is_oldest_first() {
        let table = JobTable::with_budget(1000);
        let a = settled(&table, 400);
        let b = settled(&table, 400);
        assert_eq!([lookup(&table, a), lookup(&table, b)], ["retained"; 2]);
        let c = settled(&table, 400);
        assert_eq!(lookup(&table, a), "expired");
        assert_eq!([lookup(&table, b), lookup(&table, c)], ["retained"; 2]);
        settled(&table, 400);
        assert_eq!(lookup(&table, b), "expired");
        assert_eq!(lookup(&table, c), "retained");
    }

    #[test]
    fn a_job_that_has_not_settled_is_never_evicted() {
        let table = JobTable::with_budget(1000);
        let running = table.open();
        running.append(&Json::str("y".repeat(5000)));
        let first = settled(&table, 400);
        // Opened after `running` but settled before it: evicted first.
        let queued = table.open();
        for _ in 0..4 {
            settled(&table, 400);
        }
        assert_eq!(lookup(&table, first), "expired");
        assert_eq!(lookup(&table, running.id), "retained");
        assert_eq!(lookup(&table, queued.id), "retained");
        queued.append(&Json::str("z".repeat(397)));
        table.settle(&queued);
        settled(&table, 400);
        assert_eq!(lookup(&table, queued.id), "retained");
        settled(&table, 400);
        assert_eq!(lookup(&table, queued.id), "expired");
        assert_eq!(lookup(&table, running.id), "retained");
    }

    #[test]
    fn the_newest_job_is_kept_even_over_budget() {
        let table = JobTable::with_budget(100);
        let a = settled(&table, 400);
        assert_eq!(lookup(&table, a), "retained");
        let b = settled(&table, 400);
        assert_eq!(lookup(&table, a), "expired");
        assert_eq!(lookup(&table, b), "retained");
    }

    #[test]
    fn lookup_tells_retained_expired_and_unknown_apart() {
        let table = JobTable::with_budget(500);
        let expired = settled(&table, 400);
        let rejected = table.open();
        table.remove(rejected.id);
        let retained = settled(&table, 400);
        assert_eq!(lookup(&table, 0), "not_found");
        assert_eq!(lookup(&table, expired), "expired");
        assert_eq!(lookup(&table, rejected.id), "expired");
        assert_eq!(lookup(&table, retained), "retained");
        assert_eq!(lookup(&table, retained + 1), "not_found");
        assert_eq!(lookup(&table, u64::MAX), "not_found");
    }

    #[test]
    fn eviction_never_cuts_an_attached_follower() {
        let table = JobTable::with_budget(100);
        let state = table.open();
        state.push("accepted", []);
        let follower = table.get(state.id).expect("retained while running");
        let (head, done) = follower.wait_from(0);
        assert_eq!(head, "{\"type\":\"accepted\",\"job\":1}\n");
        assert!(!done);
        state.push("result", []);
        table.settle(&state);
        settled(&table, 400);
        assert_eq!(lookup(&table, state.id), "expired");
        let (tail, done) = follower.wait_from(head.len());
        assert_eq!(tail, "{\"type\":\"result\",\"job\":1}\n");
        assert!(done);
    }
}
