//! Accept → admit, and stream: the connection threads.
//!
//! One connection carries one request. [`route`] is the route table —
//! the only place `(method, path)` is matched — and the handlers
//! follow it: submission (parse, admit, 202), the event stream
//! (replay, then follow), the two reports, the liveness probe and the
//! drain switch.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use approxdd_circuit::qasm::from_qasm;
use approxdd_sim::json::Json;
use approxdd_sim::{Simulator, Strategy};
use approxdd_telemetry as telemetry;

use crate::error::ServeError;
use crate::http::{read_request, start_ndjson, write_json, Request};
use crate::job::{json_u64, JobSpec};
use crate::report;
use crate::server::{lock, Inner};

/// Read timeout on client sockets: a stalled request cannot pin a
/// connection thread forever.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The most shots one job may ask for. Far above any real request,
/// and far below a count whose shot chunks or draw loop would exhaust
/// the process.
const MAX_SHOTS: usize = 1 << 24;

type Handler = fn(&Inner, &mut TcpStream, &Request) -> Result<(), ServeError>;

/// The route table: a request's telemetry label and its handler.
fn route(request: &Request) -> (&'static str, Handler) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => ("/jobs", submit_job),
        ("GET", path) if path.starts_with("/jobs/") => ("/jobs/{id}", stream_job),
        ("GET", "/stats") => ("/stats", report::stats),
        ("GET", "/healthz") => ("/healthz", healthz),
        ("GET", "/metrics") => ("/metrics", report::metrics),
        ("POST", "/shutdown") => ("/shutdown", shutdown),
        _ => ("other", not_found),
    }
}

pub(crate) fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let request = match read_request(&mut stream) {
        Ok(Some(request)) => request,
        // Clean immediate EOF: the shutdown wakeup (or a port probe).
        Ok(None) => return,
        Err(e) => {
            let _ = respond_error(&mut stream, &ServeError::BadRequest(e.to_string()));
            return;
        }
    };
    let (label, handler) = route(&request);
    telemetry::count_with("approxdd_server_requests_total", &[("route", label)], 1);
    if let Err(err) = handler(inner, &mut stream, &request) {
        let _ = respond_error(&mut stream, &err);
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        // Connection-level I/O failures after routing: nothing to
        // send anyone; classified as a bad request for bookkeeping.
        ServeError::BadRequest(e.to_string())
    }
}

fn respond_error(stream: &mut TcpStream, err: &ServeError) -> io::Result<()> {
    let body = Json::obj([
        ("error", Json::str(err.to_string())),
        ("kind", Json::str(err.kind())),
    ]);
    write_json(stream, err.http_status(), &body)
}

fn not_found(_: &Inner, _: &mut TcpStream, request: &Request) -> Result<(), ServeError> {
    let what = format!("{} {}", request.method, request.path);
    Err(ServeError::NotFound(what))
}

/// `GET /healthz` — liveness probe.
fn healthz(_: &Inner, stream: &mut TcpStream, _: &Request) -> Result<(), ServeError> {
    write_json(stream, 200, &Json::obj([("ok", Json::Bool(true))]))?;
    Ok(())
}

/// `POST /jobs` — parse, admit, 202.
fn submit_job(inner: &Inner, stream: &mut TcpStream, request: &Request) -> Result<(), ServeError> {
    if inner.draining.load(Ordering::Acquire) {
        return Err(ServeError::ShuttingDown);
    }
    let spec = parse_spec(request)?;
    let priority = param(request, "priority")?.unwrap_or(0i32);
    let client = request.query_param("client").unwrap_or("anon");

    let state = inner.jobs.open();
    let job_id = state.id;
    state.push(
        "accepted",
        [
            ("circuit", Json::str(spec.circuit.name())),
            ("n_qubits", Json::int(spec.circuit.n_qubits())),
            ("shots", Json::int(spec.shots)),
            ("priority", Json::Num(f64::from(priority))),
            ("client", Json::str(client)),
        ],
    );

    // The queue entry carries the job: a runner that pops it needs
    // nothing else.
    let admitted = lock(&inner.sched).admit(client, priority, (Arc::clone(&state), spec));
    if let Err(err) = admitted {
        // Settle the state before dropping it so any stream that
        // attached in the open→admit window terminates cleanly.
        state.finish();
        inner.jobs.remove(job_id);
        telemetry::count("approxdd_server_jobs_rejected_total", 1);
        return Err(err);
    }
    telemetry::count("approxdd_server_jobs_admitted_total", 1);
    inner.sched_cond.notify_one();

    let body = Json::obj([
        ("job", json_u64(job_id)),
        ("status", Json::str("queued")),
        ("stream", Json::str(format!("/jobs/{job_id}"))),
    ]);
    write_json(stream, 202, &body)?;
    Ok(())
}

/// `GET /jobs/{id}` — replay the event log, then follow it live; a
/// settled job whose log was evicted answers `410 expired`.
fn stream_job(inner: &Inner, stream: &mut TcpStream, request: &Request) -> Result<(), ServeError> {
    let path = request.path.as_str();
    let id: u64 = path["/jobs/".len()..]
        .parse()
        .map_err(|_| ServeError::BadRequest(format!("bad job id in {path}")))?;
    let state = inner.jobs.get(id)?;

    // Streaming reads can block on the condvar indefinitely; lift the
    // socket timeout so a long-running job doesn't look like a stall.
    let _ = stream.set_read_timeout(None);
    start_ndjson(stream)?;
    let mut cursor = 0;
    loop {
        // `done` is read under the same lock as the text, and nothing
        // is pushed after it is set: text returned with it is final.
        let (text, done) = state.wait_from(cursor);
        stream.write_all(text.as_bytes())?;
        stream.flush()?;
        cursor += text.len();
        if done {
            return Ok(());
        }
    }
}

/// `POST /shutdown` — flip the drain flag, wake everyone, and nudge
/// the acceptor loop awake with a throwaway connection.
fn shutdown(inner: &Inner, stream: &mut TcpStream, _: &Request) -> Result<(), ServeError> {
    let queued = lock(&inner.sched).len();
    inner.draining.store(true, Ordering::Release);
    inner.sched_cond.notify_all();
    let body = Json::obj([
        ("draining", Json::Bool(true)),
        ("queued", Json::int(queued)),
    ]);
    write_json(stream, 200, &body)?;
    // The acceptor is blocked in accept(); a no-op connection makes
    // it loop, observe `draining`, and begin the join sequence.
    let _ = TcpStream::connect(inner.addr);
    Ok(())
}

/// Parses the request into a [`JobSpec`]: QASM body plus `shots`,
/// `policy` (+ its numeric knobs), `trace`, `partials`, `deadline_ms`.
fn parse_spec(request: &Request) -> Result<JobSpec, ServeError> {
    let qasm = std::str::from_utf8(&request.body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    if qasm.trim().is_empty() {
        return Err(ServeError::BadRequest(
            "empty body: POST the circuit as OpenQASM 2.0".into(),
        ));
    }
    let circuit =
        from_qasm(qasm).map_err(|e| ServeError::BadRequest(format!("QASM parse error: {e}")))?;
    // The engine indexes basis states by `u64`, so a wider register is
    // refused here, before a job id, a queue slot or a warm session is
    // spent.
    Simulator::check_width(&circuit).map_err(|e| ServeError::BadRequest(e.to_string()))?;
    let shots = param(request, "shots")?.unwrap_or(0);
    if shots > MAX_SHOTS {
        return Err(ServeError::BadRequest(format!(
            "{shots} shots exceed the maximum of {MAX_SHOTS}"
        )));
    }
    Ok(JobSpec {
        circuit,
        strategy: parse_strategy(request)?,
        shots,
        trace: param(request, "trace")?.unwrap_or(1u8) != 0,
        partials: param(request, "partials")?.unwrap_or(0u8) != 0,
        deadline: param(request, "deadline_ms")?.map(Duration::from_millis),
    })
}

/// `policy=exact|memory|memory_table1|fidelity` with `nodes`, `round`
/// and `final` knobs; absent means the server template's default.
fn parse_strategy(request: &Request) -> Result<Option<Strategy>, ServeError> {
    let Some(policy) = request.query_param("policy") else {
        return Ok(None);
    };
    let strategy = match policy {
        "exact" => Strategy::Exact,
        "memory" => Strategy::memory_driven(
            param(request, "nodes")?.unwrap_or(4096),
            param(request, "round")?.unwrap_or(0.99),
        ),
        "memory_table1" => Strategy::memory_driven_table1(
            param(request, "nodes")?.unwrap_or(4096),
            param(request, "round")?.unwrap_or(0.99),
        ),
        "fidelity" => Strategy::fidelity_driven(
            param(request, "final")?.unwrap_or(0.9),
            param(request, "round")?.unwrap_or(0.99),
        ),
        other => {
            return Err(ServeError::BadRequest(format!(
                "unknown policy {other:?} (expected exact|memory|memory_table1|fidelity)"
            )))
        }
    };
    strategy
        .validate()
        .map_err(|e| ServeError::BadRequest(format!("invalid policy: {e}")))?;
    Ok(Some(strategy))
}

/// The query parameter `key`, parsed, when the request carries it.
fn param<T: std::str::FromStr>(request: &Request, key: &str) -> Result<Option<T>, ServeError> {
    request
        .query_param(key)
        .map(|raw| {
            raw.parse()
                .map_err(|_| ServeError::BadRequest(format!("bad {key}: {raw:?}")))
        })
        .transpose()
}
