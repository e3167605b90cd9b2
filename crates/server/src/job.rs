//! A job as the server holds it: what to run ([`JobSpec`]), where its
//! events go ([`JobState`]), where `GET /jobs/{id}` finds it
//! ([`JobTable`]), and how every line of its NDJSON stream is built
//! ([`event`], [`trace_event`], [`result_event`]).
//!
//! The spec and the state travel together as the scheduler's queue
//! payload, so a runner that pops a job holds everything it needs; the
//! table exists for late readers only.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;
use approxdd_exec::PoolOutcome;
use approxdd_sim::json::Json;
use approxdd_sim::ndjson::trace_event_json;
use approxdd_sim::{Strategy, TraceEvent};

use crate::server::lock;

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
    lines: Vec<String>,
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
    pub(crate) fn new(id: u64) -> Self {
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
        lock(&self.events).lines.push(event.to_string());
        self.cond.notify_all();
    }

    /// Marks the log complete; nothing is pushed after this.
    pub(crate) fn finish(&self) {
        lock(&self.events).done = true;
        self.cond.notify_all();
    }

    /// Blocks until there are events past `cursor` (or the job is
    /// done), then returns them plus the done flag. Lines and flag are
    /// read under one lock, so a `true` flag means the lines returned
    /// are the last.
    pub(crate) fn wait_from(&self, cursor: usize) -> (Vec<String>, bool) {
        let log = self
            .cond
            .wait_while(lock(&self.events), |log| {
                log.lines.len() <= cursor && !log.done
            })
            .unwrap_or_else(PoisonError::into_inner);
        let from = cursor.min(log.lines.len());
        (log.lines[from..].to_vec(), log.done)
    }
}

/// Where `GET /jobs/{id}` finds a job. Nothing else reads it: runners
/// get their job from the scheduler's queue entry. Retention is this
/// type's business alone — today a settled job stays until the process
/// exits and only a rejected submission is removed.
#[derive(Debug, Default)]
pub(crate) struct JobTable(Mutex<HashMap<u64, Arc<JobState>>>);

impl JobTable {
    pub(crate) fn insert(&self, state: &Arc<JobState>) {
        lock(&self.0).insert(state.id, Arc::clone(state));
    }

    pub(crate) fn get(&self, id: u64) -> Option<Arc<JobState>> {
        lock(&self.0).get(&id).map(Arc::clone)
    }

    pub(crate) fn remove(&self, id: u64) {
        lock(&self.0).remove(&id);
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
