//! The one table of served numbers.
//!
//! `GET /stats` and `GET /metrics` report the same scheduler,
//! session-cache, pool and job counters under two naming schemes. Both
//! handlers render from [`sections`]: one gather, one list of rows, each
//! row naming the number's `/stats` key, its `/metrics` gauge, or both.
//! A served name is spelled here and nowhere else; adding a number to
//! either endpoint is one row.
//!
//! None of these numbers ever feeds a fingerprint.

use std::net::TcpStream;
use std::sync::atomic::Ordering;

use approxdd_sim::json::Json;
use approxdd_telemetry as telemetry;

use crate::error::ServeError;
use crate::http::{write_json, write_response, Request};
use crate::job::json_u64;
use crate::server::{lock, Inner};

/// One served number: its key inside its `/stats` section, its
/// `/metrics` gauge, its value. Either name may be absent.
struct Row(Option<&'static str>, Option<&'static str>, u64);

/// A number `/stats` shows under `key`.
fn stat(key: &'static str, value: u64) -> Row {
    Row(Some(key), None, value)
}

/// A number only `/metrics` carries.
fn gauge(name: &'static str, value: u64) -> Row {
    Row(None, Some(name), value)
}

impl Row {
    /// The same number is also the gauge `name`.
    fn gauge(self, name: &'static str) -> Row {
        let Row(key, _, value) = self;
        Row(key, Some(name), value)
    }
}

/// Reads every served number once: the `/stats` sections in document
/// order, each with its rows in key order.
fn sections(inner: &Inner) -> [(&'static str, Vec<Row>); 3] {
    let (queued, admitted, rejected_full, rejected_quota) = {
        let sched = lock(&inner.sched);
        (
            sched.len(),
            sched.admitted(),
            sched.rejected_queue_full(),
            sched.rejected_quota(),
        )
    };
    let completed = inner.jobs_completed.load(Ordering::Relaxed);
    let failed = inner.jobs_failed.load(Ordering::Relaxed);
    let sessions = lock(&inner.sessions).stats();
    let pool = inner.pool.stats();
    // The compute-table counters live per worker (a per-lookup atomic
    // in the probe would cost more than the probe); their sums are the
    // DD work the pool has done.
    let ct_hits = pool.per_worker.iter().map(|w| w.ct_hits).sum();
    let ct_misses = pool.per_worker.iter().map(|w| w.ct_misses).sum();
    let jobs = vec![
        stat("admitted", admitted).gauge("approxdd_sched_admitted"),
        stat("queued", queued as u64).gauge("approxdd_sched_queued"),
        stat("completed", completed).gauge("approxdd_server_jobs_completed"),
        stat("failed", failed).gauge("approxdd_server_jobs_failed"),
        stat("rejected_queue_full", rejected_full).gauge("approxdd_sched_rejected_queue_full"),
        stat("rejected_quota", rejected_quota).gauge("approxdd_sched_rejected_quota"),
    ];
    let session_rows = vec![
        stat("capacity", inner.session_capacity as u64).gauge("approxdd_sessions_capacity"),
        stat("entries", sessions.entries as u64).gauge("approxdd_sessions_entries"),
        stat("session_hits", sessions.hits).gauge("approxdd_sessions_hits"),
        stat("session_misses", sessions.misses).gauge("approxdd_sessions_misses"),
        stat("inserts", sessions.inserts).gauge("approxdd_sessions_inserts"),
        stat("evictions", sessions.evictions).gauge("approxdd_sessions_evictions"),
        stat("frozen_nodes", sessions.frozen_nodes as u64).gauge("approxdd_sessions_frozen_nodes"),
        stat("attaches", sessions.attaches).gauge("approxdd_sessions_attaches"),
    ];
    let pool_rows = vec![
        stat("workers", pool.workers as u64).gauge("approxdd_pool_workers"),
        stat("tasks_submitted", pool.tasks_submitted as u64).gauge("approxdd_pool_tasks_submitted"),
        stat("queue_depth", pool.queue_depth as u64).gauge("approxdd_pool_queue_depth"),
        stat("max_queue_depth", pool.max_queue_depth as u64).gauge("approxdd_pool_max_queue_depth"),
        stat("panics", pool.panics as u64),
        stat("retries", pool.retries as u64),
        stat("deadline_exceeded", pool.deadline_exceeded as u64),
        stat("jobs_completed", pool.jobs_completed() as u64).gauge("approxdd_pool_jobs_completed"),
        stat("shots_drawn", pool.shots_drawn() as u64).gauge("approxdd_pool_shots_drawn"),
        stat("snapshot_hits", pool.snapshot_hits()).gauge("approxdd_dd_snapshot_hits"),
        stat("snapshot_gate_hits", pool.snapshot_gate_hits())
            .gauge("approxdd_dd_snapshot_gate_hits"),
        stat("frozen_nodes", pool.frozen_nodes() as u64).gauge("approxdd_dd_frozen_nodes"),
        stat("peak_nodes", pool.peak_nodes() as u64).gauge("approxdd_dd_peak_nodes"),
        gauge("approxdd_dd_ct_hits", ct_hits),
        gauge("approxdd_dd_ct_misses", ct_misses),
    ];
    [
        ("jobs", jobs),
        ("sessions", session_rows),
        ("pool", pool_rows),
    ]
}

/// `GET /stats` — two literal leaves, then one object per section.
pub(crate) fn stats(inner: &Inner, stream: &mut TcpStream, _: &Request) -> Result<(), ServeError> {
    let uptime = inner.started.elapsed().as_secs_f64();
    let draining = inner.draining.load(Ordering::Acquire);
    let mut doc = vec![
        ("uptime_seconds".to_string(), Json::Num(uptime)),
        ("draining".to_string(), Json::Bool(draining)),
    ];
    for (section, rows) in sections(inner) {
        let leaves = rows
            .into_iter()
            .filter_map(|Row(key, _, value)| Some((key?.to_string(), json_u64(value))))
            .collect();
        doc.push((section.to_string(), Json::Obj(leaves)));
    }
    write_json(stream, 200, &Json::Obj(doc))?;
    Ok(())
}

/// `GET /metrics` — Prometheus text exposition over the process-wide
/// registry. Counter and histogram series accumulate at their
/// instrumentation sites; the rows' gauges are set here, at scrape
/// time, from counters that already live behind the scheduler, cache
/// and worker locks.
pub(crate) fn metrics(
    inner: &Inner,
    stream: &mut TcpStream,
    _: &Request,
) -> Result<(), ServeError> {
    let registry = telemetry::global();
    for (_, rows) in sections(inner) {
        for row in rows {
            if let Row(_, Some(name), value) = row {
                registry.gauge(name).set(value);
            }
        }
    }
    let body = registry.render_prometheus();
    write_response(stream, 200, "text/plain; version=0.0.4", body.as_bytes())?;
    Ok(())
}
