//! Schedule → settle: the runner threads.
//!
//! A runner pops the highest-priority queue entry — which carries the
//! job's state and spec — resolves its warm session, runs it on the
//! shared pool, and settles its event stream: trace, histogram, then
//! `result` (or `error`), then the job table settles it: the log is
//! compacted, the oldest settled logs over budget are evicted, and
//! only then is the log marked done.
//!
//! A panic while a job executes ends that job, not its runner: the
//! runner catches it, settles the job with a typed `error` event and
//! takes the next one.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};

use approxdd_circuit::Circuit;
use approxdd_exec::backend::ExecError;
use approxdd_exec::PoolJob;
use approxdd_sim::json::Json;
use approxdd_sim::{PolicyFactory, SimSnapshot};
use approxdd_telemetry as telemetry;

use crate::error::ServeError;
use crate::job::{result_event, trace_event, JobSpec, JobState};
use crate::server::{lock, Inner};
use crate::session::family_hash;

/// Runs queued jobs until the server drains: a runner exits once
/// `draining` is set *and* the queue is empty, so every admitted job
/// settles.
pub(crate) fn runner_loop(inner: &Inner) {
    loop {
        let popped = inner
            .sched_cond
            .wait_while(lock(&inner.sched), |sched| {
                sched.is_empty() && !inner.draining.load(Ordering::Acquire)
            })
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        // Woken with nothing queued: the server is draining.
        let Some((state, spec)) = popped else { return };
        settle_panics(inner, &state, || execute_job(inner, &state, spec));
    }
}

/// Runs one job's `body`, catching a panic: a job that has not settled
/// yet settles with a typed `error` event (kind `exec`) and counts as
/// failed, and the caller goes on to the next job.
fn settle_panics(inner: &Inner, state: &JobState, body: impl FnOnce()) {
    if panic::catch_unwind(AssertUnwindSafe(body)).is_err() && !state.is_done() {
        let e = ExecError::Panicked { job: 0, attempt: 0 };
        fail_job(inner, state, &e.into());
    }
}

/// Runs one admitted job on the pool and settles its event stream.
fn execute_job(inner: &Inner, state: &JobState, spec: JobSpec) {
    if telemetry::enabled() {
        telemetry::phase_histogram("server.admit_wait").observe_duration(state.admitted.elapsed());
    }
    // Records admit→settle wall time on every exit path via drop.
    let _run_span = telemetry::Span::enter("server.run");

    state.push("started", []);

    let snapshot = warm_session(inner, state, &spec.circuit);

    // Partial histograms ride the sharded-sampling path (chunk seeds
    // keyed on chunk index): the final merged histogram is streamed,
    // but the shots do NOT ride the run job below — the two sampling
    // paths draw from different seed domains, and mixing them would
    // break the fingerprint's equality with a direct pool run.
    let mut partial_counts: Option<HashMap<u64, usize>> = None;
    if spec.partials && spec.shots > 0 {
        // The job's deadline bounds this pass as it bounds the run job.
        let policy = spec.strategy.map(|s| Arc::new(s) as Arc<dyn PolicyFactory>);
        let result = inner.pool.sample_counts_streamed(
            &spec.circuit,
            policy,
            spec.deadline,
            spec.shots,
            &mut |chunk| {
                state.push(
                    "partial",
                    [
                        ("settled_chunks", Json::int(chunk.settled)),
                        ("total_chunks", Json::int(chunk.chunks)),
                        ("shots_settled", Json::int(chunk.shots_settled)),
                        (
                            "counts",
                            Json::counts(chunk.merged.iter().map(|(k, v)| (k, v))),
                        ),
                    ],
                );
            },
        );
        match result {
            Ok(counts) => partial_counts = Some(counts),
            Err(e) => return fail_job(inner, state, &e.into()),
        }
    }

    let mut job = PoolJob::new(spec.circuit).trace(spec.trace);
    if let Some(strategy) = spec.strategy {
        job = job.policy(strategy);
    }
    if spec.shots > 0 && !spec.partials {
        job = job.shots(spec.shots);
    }
    if let Some(budget) = spec.deadline {
        job = job.deadline(budget);
    }

    let mut results = inner.pool.run_jobs_with_snapshot(vec![job], snapshot);
    // Settle latency: from the pool handing back outcomes to the event
    // stream being finished (covers trace/result pushes and failures).
    let _settle_span = telemetry::Span::enter("server.settle");
    match results.pop() {
        Some(Ok(outcome)) => {
            for traced in outcome.trace.iter().flatten() {
                state.append(&trace_event(state.id, traced));
            }
            if let Some(counts) = &partial_counts {
                state.push(
                    "histogram",
                    [
                        ("source", Json::str("sharded_sampling")),
                        ("shots", Json::int(spec.shots)),
                        ("counts", Json::counts(counts)),
                    ],
                );
            }
            state.append(&result_event(state.id, &outcome));
            inner.jobs_completed.fetch_add(1, Ordering::Relaxed);
            inner.jobs.settle(state);
        }
        Some(Err(e)) => fail_job(inner, state, &e.into()),
        None => fail_job(
            inner,
            state,
            &ServeError::BadRequest("pool returned no outcome".into()),
        ),
    }
}

/// Resolves the job's warm session: a cache hit reuses the package
/// warmed by an earlier request of the same family; a miss pays the
/// warm-up and caches it. Emits a `session` event either way.
fn warm_session(inner: &Inner, state: &JobState, circuit: &Circuit) -> Option<Arc<SimSnapshot>> {
    if inner.session_capacity == 0 {
        return None;
    }
    let family = family_hash(circuit);
    let cached = lock(&inner.sessions).get(family);
    let (snapshot, warm) = match cached {
        Some(snapshot) => (snapshot, true),
        None => {
            // Warm outside the cache lock: a slow warm-up must not
            // stall other runners' lookups. A racing runner may build
            // the same family concurrently; insert() keeps one
            // canonical Arc.
            let built = inner.template.build_snapshot(circuit).ok()?;
            let canonical = lock(&inner.sessions).insert(family, Arc::new(built));
            (canonical, false)
        }
    };
    state.push(
        "session",
        [
            ("family", Json::str(format!("{family:016x}"))),
            ("warm", Json::Bool(warm)),
            ("frozen_nodes", Json::int(snapshot.frozen_nodes())),
            ("cached_gates", Json::int(snapshot.cached_gates())),
        ],
    );
    Some(snapshot)
}

fn fail_job(inner: &Inner, state: &JobState, err: &ServeError) {
    state.push(
        "error",
        [
            ("kind", Json::str(err.kind())),
            ("error", Json::str(err.to_string())),
        ],
    );
    inner.jobs_failed.fetch_add(1, Ordering::Relaxed);
    inner.jobs.settle(state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobServer, ServerConfig};
    use approxdd_sim::Simulator;

    /// The runner's safety net: a panicking job body settles its job
    /// with a typed `error` event and counts it failed, and the helper
    /// returns, so the runner goes on to its next job. A job that had
    /// settled before its body panicked is left as it settled.
    #[test]
    fn a_panicking_job_settles_typed_and_the_runner_survives() {
        let config = ServerConfig::new().template(Simulator::builder().workers(1));
        let server = JobServer::bind("127.0.0.1:0", config).expect("bind");
        let inner = &server.inner;

        let state = inner.jobs.open();
        state.push("started", []);
        settle_panics(inner, &state, || panic!("a job body panicked"));
        let (log, done) = state.wait_from(0);
        assert!(done, "{log}");
        let last = log.lines().last().expect("events");
        assert!(last.contains("\"type\":\"error\""), "{log}");
        assert!(last.contains("\"kind\":\"exec\""), "{log}");
        assert!(last.contains("panicked"), "{log}");
        assert_eq!(inner.jobs_failed.load(Ordering::Relaxed), 1);

        let settled = inner.jobs.open();
        settle_panics(inner, &settled, || {
            settled.push("result", []);
            inner.jobs.settle(&settled);
            panic!("a job body panicked after settling");
        });
        let (log, done) = settled.wait_from(0);
        assert!(done && !log.contains("\"type\":\"error\""), "{log}");
        assert_eq!(inner.jobs_failed.load(Ordering::Relaxed), 1);
    }
}
