//! End-to-end serving tests over real TCP: backpressure comes back as
//! typed HTTP 429 without ever blocking the submitter, hostile input is
//! typed and kills nothing, partial histograms settle deterministically
//! and shutdown drains. That a streamed fingerprint equals a direct
//! [`BackendPool::run_jobs`] call for the same (QASM, policy, seed,
//! shots) — cold, warm, re-frozen and across a worker respawn — is
//! `tests/determinism.rs`'s to check, at the workspace root.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use approxdd_circuit::generators;
use approxdd_circuit::qasm::{from_qasm, to_qasm};
use approxdd_exec::{BackendPool, FaultPlan};
use approxdd_server::{JobServer, Quota, ServerConfig};
use approxdd_sim::{Simulator, SimulatorBuilder};

/// Sends one raw HTTP request and returns (status, whole body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Pulls the numeric value following `"key":`.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    digits.parse().ok()
}

/// Submits QASM and returns the job's full NDJSON stream.
fn submit_and_stream(addr: SocketAddr, target: &str, qasm: &str) -> String {
    let (status, body) = http(addr, "POST", target, qasm);
    assert_eq!(status, 202, "submission failed: {body}");
    let job = num_field(&body, "job").expect("job id in 202 body") as u64;
    let (status, stream) = http(addr, "GET", &format!("/jobs/{job}"), "");
    assert_eq!(status, 200);
    stream
}

fn template(workers: usize) -> SimulatorBuilder {
    Simulator::builder().seed(7).workers(workers)
}

fn start(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<()>) {
    let server = JobServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: SocketAddr, handle: thread::JoinHandle<()>) {
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

/// Backpressure: a full scheduler queue answers 429/queue_full
/// immediately; a drained quota bucket answers 429/quota_exhausted;
/// neither ever blocks the submitting connection.
#[test]
fn backpressure_is_typed_and_immediate() {
    let qasm = to_qasm(&generators::ghz(4)).expect("export qasm");
    let config = ServerConfig::new()
        .template(template(1))
        .queue_capacity(1)
        .quota(Quota {
            burst: 3.0,
            refill_per_sec: 0.001,
        });
    let server = JobServer::bind("127.0.0.1:0", config).expect("bind");
    // Slow the first pool task down so submissions pile up behind it.
    server.pool().inject_faults(Some(
        FaultPlan::new().delay_on(0..1, Duration::from_millis(300)),
    ));
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));

    let (status, _) = http(addr, "POST", "/jobs?shots=32&client=alice", &qasm);
    assert_eq!(status, 202);
    // Give the runner a beat to pop job 1 into execution (where the
    // injected delay holds it), freeing the queue slot for job 2.
    thread::sleep(Duration::from_millis(100));
    let (status, _) = http(addr, "POST", "/jobs?shots=32&client=alice", &qasm);
    assert_eq!(status, 202);

    let started = std::time::Instant::now();
    let (status, body) = http(addr, "POST", "/jobs?shots=32&client=alice", &qasm);
    assert_eq!(status, 429, "third submission must be rejected: {body}");
    assert!(body.contains("queue_full"), "typed kind expected: {body}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "backpressure must not block"
    );

    // Wait out the queue, then exhaust the quota (burst 3, two spent).
    thread::sleep(Duration::from_millis(700));
    let (status, _) = http(addr, "POST", "/jobs?shots=32&client=alice", &qasm);
    assert_eq!(status, 202);
    // Again a beat for the runner to pop it: a still-occupied queue
    // slot would answer queue_full before the quota is consulted.
    thread::sleep(Duration::from_millis(100));
    let (status, body) = http(addr, "POST", "/jobs?shots=32&client=alice", &qasm);
    assert_eq!(status, 429, "quota must be spent: {body}");
    assert!(body.contains("quota_exhausted"), "typed kind: {body}");
    // A different client has its own bucket.
    let (status, _) = http(addr, "POST", "/jobs?shots=32&client=bob", &qasm);
    assert_eq!(status, 202);
    shutdown(addr, handle);
}

/// Malformed inputs map to typed 4xx responses, not hangs or 500s.
#[test]
fn bad_requests_are_typed() {
    let (addr, handle) = start(ServerConfig::new().template(template(1)));
    let (status, body) = http(addr, "POST", "/jobs", "not qasm at all");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("bad_request"));
    let (status, body) = http(addr, "GET", "/jobs/9999", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("not_found"));
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let qasm = to_qasm(&generators::ghz(3)).expect("export qasm");
    let (status, body) = http(addr, "POST", "/jobs?policy=bogus", &qasm);
    assert_eq!(status, 400, "{body}");
    let (status, body) = http(addr, "POST", "/jobs?shots=many", &qasm);
    assert_eq!(status, 400, "{body}");
    shutdown(addr, handle);
}

/// Hostile registers and angles: each gets a typed 400 before a job id
/// is spent, and the process and every pool worker outlive them (a
/// backwards bracket pair used to panic the connection thread, a
/// 64-qubit register a pool worker, and a 10^11-qubit one aborted the
/// process on an allocation of that many bytes).
#[test]
fn hostile_circuits_are_typed_and_kill_nothing() {
    let (addr, handle) = start(ServerConfig::new().template(template(2)));
    for (qasm, reason) in [
        ("qreg q]5[;", "malformed qreg"),
        (
            "qreg q[100000000000]; h q[0];",
            "exceeds the maximum of 255",
        ),
        ("qreg q[2]; rx(nan) q[0];", "bad angle"),
        ("qreg q[64]; h q[0];", "maximum of 63"),
    ] {
        let (status, body) = http(addr, "POST", "/jobs", qasm);
        assert_eq!(status, 400, "{qasm}: {body}");
        assert!(body.contains("bad_request"), "{qasm}: {body}");
        assert!(body.contains(reason), "{qasm}: {body}");
    }
    // The widest admissible register still runs.
    let stream = submit_and_stream(addr, "/jobs?shots=8", "qreg q[63]; h q[0]; cx q[0],q[62];");
    assert!(stream.contains("\"type\":\"result\""), "{stream}");
    // ... as job 1: no refused body spent an id.
    assert!(stream.contains("\"job\":1,"), "{stream}");

    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(num_field(&stats, "respawns"), Some(0.0), "{stats}");
    shutdown(addr, handle);
}

/// A memory threshold the register can never reach is worth one
/// warning per run. Every backend run begins its policy twice — once
/// to validate at `prepare`, once to run — and used to warn at both.
/// Stderr is only observable from outside, hence the real `serve` bin.
#[test]
fn unreachable_threshold_warns_once_per_job() {
    use std::process::{Command, Stdio};
    let addr_file =
        std::env::temp_dir().join(format!("approxdd_serve_addr_{}", std::process::id()));
    let _ = std::fs::remove_file(&addr_file);
    let child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--addr-file"])
        .arg(&addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let addr: SocketAddr = (0..200)
        .find_map(|_| {
            thread::sleep(Duration::from_millis(25));
            std::fs::read_to_string(&addr_file)
                .ok()?
                .trim()
                .parse()
                .ok()
        })
        .expect("serve wrote its address");
    let qasm = to_qasm(&generators::ghz(4)).expect("export qasm");
    let target = "/jobs?policy=memory_table1&nodes=1048576&round=0.9";
    for _ in 0..2 {
        let stream = submit_and_stream(addr, target, &qasm);
        assert!(stream.contains("\"type\":\"result\""), "{stream}");
    }
    // Neither GHZ job adds two states, so no `add`-table slab moved; the
    // fresh process must expose the slab counters anyway.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for name in [
        "approxdd_dd_cache_slabs_allocated_total",
        "approxdd_dd_cache_slabs_recycled_total",
    ] {
        assert!(metrics.contains(name), "{name} missing:\n{metrics}");
    }
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    let output = child.wait_with_output().expect("serve exits");
    let _ = std::fs::remove_file(&addr_file);
    assert!(output.status.success(), "{:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        stderr.matches("can never fire").count(),
        2,
        "two jobs, two warnings:\n{stderr}"
    );
}

/// Every malformed quota is refused by the argument parser, before
/// `serve` binds: a lone flag used to run the server with no quota.
/// The address cannot be bound, so a parse that let one through would
/// fail later, with the bind's message.
#[test]
fn bad_quota_flags_are_refused_before_bind() {
    for (args, message) in [
        (&["--quota-burst", "5"][..], "must be given together"),
        (&["--quota-refill", "1"][..], "must be given together"),
        (
            &["--quota-burst", "0", "--quota-refill", "1"][..],
            "--quota-burst must be a finite number above 0",
        ),
        (
            &["--quota-burst", "-2", "--quota-refill", "1"][..],
            "--quota-burst must be a finite number above 0",
        ),
        (
            &["--quota-burst", "inf", "--quota-refill", "1"][..],
            "--quota-burst must be a finite number above 0",
        ),
        (
            &["--quota-burst", "5", "--quota-refill", "NaN"][..],
            "--quota-refill must be a finite number above 0",
        ),
        (
            &["--quota-burst", "5", "--quota-refill", "0"][..],
            "--quota-refill must be a finite number above 0",
        ),
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--addr", "not-an-address"])
            .args(args)
            .output()
            .expect("run serve");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{args:?} must exit non-zero");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(!stderr.contains("failed to bind"), "{args:?}: {stderr}");
    }
}

/// Settled logs are kept under the server's byte budget: a traced job
/// whose log alone exceeds it is evicted when the next job settles,
/// and its id then answers a typed 410, not a 404. This is the only
/// test of this binary that evicts, so the process-wide counter reads
/// exactly the one eviction.
#[test]
fn settled_logs_over_budget_expire_with_a_typed_410() {
    let (addr, handle) = start(ServerConfig::new().template(template(1)).runners(1));
    // ≈ 540 KB of QASM and a ≈ 5.7 MB log: one trace line per gate.
    let big = format!("qreg q[1];\n{}", "h q[0];\n".repeat(60_000));
    let (status, body) = http(addr, "POST", "/jobs?trace=1", &big);
    assert_eq!(status, 202, "{body}");
    let first = num_field(&body, "job").expect("job id") as u64;
    // One runner: the small job settles after the big one, and its
    // stream ends only after the eviction its settlement caused.
    let small = to_qasm(&generators::ghz(3)).expect("export qasm");
    let (status, body) = http(addr, "POST", "/jobs?shots=16", &small);
    assert_eq!(status, 202, "{body}");
    let second = num_field(&body, "job").expect("job id") as u64;
    let (status, live) = http(addr, "GET", &format!("/jobs/{second}"), "");
    assert_eq!(status, 200);
    assert!(live.contains("\"type\":\"result\""), "{live}");

    let (status, body) = http(addr, "GET", &format!("/jobs/{first}"), "");
    assert_eq!(status, 410, "{body}");
    assert!(body.contains("\"kind\":\"expired\""), "{body}");
    let (status, replay) = http(addr, "GET", &format!("/jobs/{second}"), "");
    assert_eq!(status, 200);
    assert_eq!(replay, live, "a retained job replays byte for byte");
    let (status, body) = http(addr, "GET", "/jobs/9999", "");
    assert_eq!(status, 404, "{body}");
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let expired = metrics
        .lines()
        .find_map(|l| l.strip_prefix("approxdd_server_jobs_expired_total "))
        .unwrap_or_else(|| panic!("no expiry counter:\n{metrics}"));
    assert_eq!(expired.trim(), "1", "{metrics}");
    shutdown(addr, handle);
}

/// Partial histograms stream as sampling chunks settle, and the final
/// sharded histogram equals a direct `sample_counts` of the same
/// request (the run fingerprint rides a separate, unaffected path).
#[test]
fn partials_stream_and_settle_deterministically() {
    let qasm = to_qasm(&generators::ghz(5)).expect("export qasm");
    let circuit = from_qasm(&qasm).expect("reimport qasm");
    let shots = 3000; // > SHOT_CHUNK so at least two chunks settle
    let direct = BackendPool::new(template(2))
        .sample_counts(&circuit, shots)
        .expect("direct sampling");
    let direct_json = approxdd_sim::json::Json::counts(&direct).to_string();

    let (addr, handle) = start(ServerConfig::new().template(template(2)));
    let stream = submit_and_stream(addr, &format!("/jobs?shots={shots}&partials=1"), &qasm);
    let partials: Vec<&str> = stream
        .lines()
        .filter(|l| l.contains("\"type\":\"partial\""))
        .collect();
    assert!(partials.len() >= 2, "expected ≥ 2 partials:\n{stream}");
    let histogram = stream
        .lines()
        .find(|l| l.contains("\"type\":\"histogram\""))
        .expect("final sharded histogram event");
    assert!(
        histogram.contains(&direct_json),
        "sharded histogram must match direct sampling\nwant {direct_json}\ngot {histogram}"
    );
    // The run result still settles after the histogram.
    assert!(stream.contains("\"type\":\"result\""));
    shutdown(addr, handle);
}

/// Graceful drain: jobs admitted before `POST /shutdown` still
/// execute and stream to completion; `run()` returns cleanly.
#[test]
fn shutdown_drains_admitted_jobs() {
    let qasm = to_qasm(&generators::ghz(4)).expect("export qasm");
    let config = ServerConfig::new().template(template(1));
    let server = JobServer::bind("127.0.0.1:0", config).expect("bind");
    server.pool().inject_faults(Some(
        FaultPlan::new().delay_on(0..1, Duration::from_millis(200)),
    ));
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));

    let (status, body) = http(addr, "POST", "/jobs?shots=64", &qasm);
    assert_eq!(status, 202);
    let job = num_field(&body, "job").expect("job id") as u64;
    // Attach the stream *before* shutting down: the drain must keep
    // this connection open until the delayed job settles.
    let reader = thread::spawn(move || http(addr, "GET", &format!("/jobs/{job}"), ""));
    thread::sleep(Duration::from_millis(50));
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server drains");
    let (status, stream) = reader.join().expect("stream thread");
    assert_eq!(status, 200);
    assert!(
        stream.contains("\"type\":\"result\""),
        "the admitted job must settle through the drain:\n{stream}"
    );
    // New submissions during/after the drain are refused, not queued.
    if let Ok(mut late) = TcpStream::connect(addr) {
        let _ = write!(
            late,
            "POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        );
        let mut response = String::new();
        let _ = late.read_to_string(&mut response);
        assert!(
            response.is_empty() || response.contains("503") || response.contains("400"),
            "late submission must not be admitted: {response}"
        );
    }
}
