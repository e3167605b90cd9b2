//! The wire oracle: what the job server puts on the socket, pinned
//! byte for byte.
//!
//! Every literal below was recorded from the server as it stood before
//! `server.rs` was restructured (PR 19) and must keep passing unedited
//! across any change that claims not to alter behaviour: each line of a
//! job's NDJSON stream, every `/stats` key in document order, and every
//! gauge name of `/metrics`. The only fields not compared to literals
//! are the two hash-valued ones, which are computed in-process instead:
//! `family` (a `DefaultHasher` value, stable per toolchain only) and
//! `fingerprint` (a direct [`BackendPool::run_jobs`] of the same job —
//! the serving determinism contract).
//!
//! The second test holds the two report endpoints to one reading: a
//! number that has both a `/stats` key and a `/metrics` gauge shows the
//! same value through both.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::thread;

use approxdd_circuit::qasm::from_qasm;
use approxdd_exec::{BackendPool, PoolJob};
use approxdd_server::{family_hash, JobServer, ServerConfig};
use approxdd_sim::{Simulator, SimulatorBuilder, Strategy};

/// Scrape-time gauges live in the process-wide registry, so two
/// servers scraped at once would overwrite each other's readings: the
/// tests of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Small enough to read, rich enough that a memory-driven run at
/// `nodes=2&round=0.9` emits every trace kind, including one round
/// that removes nothing and one that removes a node and real mass.
const QASM: &str = "OPENQASM 2.0;\n\
include \"qelib1.inc\";\n\
qreg q[4];\n\
ry(0.5) q[3];\n\
cx q[3],q[2];\n\
h q[1];\n\
cx q[1],q[0];\n\
cx q[3],q[0];\n\
t q[0];\n\
h q[2];\n";

const REQUEST_A: &str = "/jobs?shots=8&policy=memory&nodes=2&round=0.9&client=t&priority=3";
const REQUEST_B: &str = "/jobs?partials=1&shots=4096";
const REQUEST_C: &str = "/jobs?deadline_ms=0";

/// Request A's stream as job 1 on a cold server. `<family>` and
/// `<fingerprint>` stand for the two computed fields.
const STREAM_A: &[&str] = &[
    r#"{"type":"accepted","job":1,"circuit":"qasm","n_qubits":4,"shots":8,"priority":3,"client":"t"}"#,
    r#"{"type":"started","job":1}"#,
    r#"{"type":"session","job":1,"family":"<family>","warm":false,"frozen_nodes":23,"cached_gates":7}"#,
    r#"{"type":"trace","job":1,"event":"run_started","circuit":"qasm","n_qubits":4,"total_ops":7,"policy":"memory-driven"}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":0,"gates_applied":1,"live_nodes":4}"#,
    r#"{"type":"trace","job":1,"event":"round_started","op_index":0,"round":1,"target_fidelity":0.9,"live_nodes":4}"#,
    r#"{"type":"trace","job":1,"event":"truncated","op_index":0,"round":1,"nodes_before":4,"nodes_after":4,"removed_nodes":0,"removed_mass":0}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":1,"gates_applied":2,"live_nodes":5}"#,
    r#"{"type":"trace","job":1,"event":"round_started","op_index":1,"round":2,"target_fidelity":0.9,"live_nodes":5}"#,
    r#"{"type":"trace","job":1,"event":"truncated","op_index":1,"round":2,"nodes_before":5,"nodes_after":4,"removed_nodes":1,"removed_mass":0.06120871905481351}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":2,"gates_applied":3,"live_nodes":4}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":3,"gates_applied":4,"live_nodes":5}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":4,"gates_applied":5,"live_nodes":5}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":5,"gates_applied":6,"live_nodes":5}"#,
    r#"{"type":"trace","job":1,"event":"gate_applied","op_index":6,"gates_applied":7,"live_nodes":5}"#,
    r#"{"type":"trace","job":1,"event":"run_finished","gates_applied":7,"rounds":2,"fidelity":0.9387912809451865,"fidelity_lower_bound":0.9}"#,
    r#"{"type":"result","job":1,"fingerprint":"<fingerprint>","circuit":"qasm","n_qubits":4,"gates_applied":7,"approx_rounds":2,"fidelity":0.9387912809451865,"fidelity_lower_bound":0.9,"peak_size":5,"final_size":5,"counts":{"3":1,"4":1,"7":6},"expectation":null,"worker":0,"attempts":1,"degraded":false}"#,
];

/// Request B's stream as job 3, its `partial` lines left out (their
/// settlement order is scheduling; they are checked by key sequence).
const STREAM_B: &[&str] = &[
    r#"{"type":"accepted","job":3,"circuit":"qasm","n_qubits":4,"shots":4096,"priority":0,"client":"anon"}"#,
    r#"{"type":"started","job":3}"#,
    r#"{"type":"session","job":3,"family":"<family>","warm":true,"frozen_nodes":23,"cached_gates":7}"#,
    r#"{"type":"trace","job":3,"event":"run_started","circuit":"qasm","n_qubits":4,"total_ops":7,"policy":"exact"}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":0,"gates_applied":1,"live_nodes":4}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":1,"gates_applied":2,"live_nodes":5}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":2,"gates_applied":3,"live_nodes":5}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":3,"gates_applied":4,"live_nodes":6}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":4,"gates_applied":5,"live_nodes":7}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":5,"gates_applied":6,"live_nodes":7}"#,
    r#"{"type":"trace","job":3,"event":"gate_applied","op_index":6,"gates_applied":7,"live_nodes":7}"#,
    r#"{"type":"trace","job":3,"event":"run_finished","gates_applied":7,"rounds":0,"fidelity":1,"fidelity_lower_bound":1}"#,
    r#"{"type":"histogram","job":3,"source":"sharded_sampling","shots":4096,"counts":{"0":941,"3":923,"4":952,"7":1009,"9":62,"10":72,"13":65,"14":72}}"#,
    r#"{"type":"result","job":3,"fingerprint":"<fingerprint>","circuit":"qasm","n_qubits":4,"gates_applied":7,"approx_rounds":0,"fidelity":1,"fidelity_lower_bound":1,"peak_size":7,"final_size":7,"counts":null,"expectation":null,"worker":0,"attempts":1,"degraded":false}"#,
];

const PARTIAL_KEYS: &[&str] = &[
    "type",
    "job",
    "settled_chunks",
    "total_chunks",
    "shots_settled",
    "counts",
];

/// Request C's stream as job 4: a zero deadline fails the job on its
/// first policy decision.
const STREAM_C: &[&str] = &[
    r#"{"type":"accepted","job":4,"circuit":"qasm","n_qubits":4,"shots":0,"priority":0,"client":"anon"}"#,
    r#"{"type":"started","job":4}"#,
    r#"{"type":"session","job":4,"family":"<family>","warm":true,"frozen_nodes":23,"cached_gates":7}"#,
    r#"{"type":"error","job":4,"kind":"exec","error":"execution failed: job 0 exceeded its 0ns deadline (attempt 1)"}"#,
];

/// Every leaf of `GET /stats`, in document order, as `section.key`.
const STATS_KEYS: &[&str] = &[
    "uptime_seconds",
    "draining",
    "jobs.admitted",
    "jobs.queued",
    "jobs.completed",
    "jobs.failed",
    "jobs.rejected_queue_full",
    "jobs.rejected_quota",
    "sessions.capacity",
    "sessions.entries",
    "sessions.session_hits",
    "sessions.session_misses",
    "sessions.inserts",
    "sessions.evictions",
    "sessions.frozen_nodes",
    "sessions.attaches",
    "pool.workers",
    "pool.tasks_submitted",
    "pool.queue_depth",
    "pool.max_queue_depth",
    "pool.respawns",
    "pool.retries",
    "pool.deadline_exceeded",
    "pool.jobs_completed",
    "pool.shots_drawn",
    "pool.snapshot_hits",
    "pool.snapshot_gate_hits",
    "pool.frozen_nodes",
    "pool.peak_nodes",
];

/// Every `approxdd_*` gauge of `GET /metrics`, sorted.
const GAUGES: &[&str] = &[
    "approxdd_dd_ct_hits",
    "approxdd_dd_ct_misses",
    "approxdd_dd_frozen_nodes",
    "approxdd_dd_peak_nodes",
    "approxdd_dd_snapshot_gate_hits",
    "approxdd_dd_snapshot_hits",
    "approxdd_pool_jobs_completed",
    "approxdd_pool_max_queue_depth",
    "approxdd_pool_queue_depth",
    "approxdd_pool_shots_drawn",
    "approxdd_pool_tasks_submitted",
    "approxdd_pool_workers",
    "approxdd_sched_admitted",
    "approxdd_sched_queued",
    "approxdd_sched_rejected_queue_full",
    "approxdd_sched_rejected_quota",
    "approxdd_server_jobs_completed",
    "approxdd_server_jobs_failed",
    "approxdd_sessions_attaches",
    "approxdd_sessions_capacity",
    "approxdd_sessions_entries",
    "approxdd_sessions_evictions",
    "approxdd_sessions_frozen_nodes",
    "approxdd_sessions_hits",
    "approxdd_sessions_inserts",
    "approxdd_sessions_misses",
];

/// The numbers served by both endpoints: `/stats` leaf, `/metrics`
/// gauge. (`respawns`, `retries` and `deadline_exceeded` are `/stats`
/// only — the registry counts them as `_total` counters at their
/// sites; the two `ct` gauges are `/metrics` only.)
const SHARED: &[(&str, &str)] = &[
    ("jobs.admitted", "approxdd_sched_admitted"),
    ("jobs.queued", "approxdd_sched_queued"),
    ("jobs.completed", "approxdd_server_jobs_completed"),
    ("jobs.failed", "approxdd_server_jobs_failed"),
    (
        "jobs.rejected_queue_full",
        "approxdd_sched_rejected_queue_full",
    ),
    ("jobs.rejected_quota", "approxdd_sched_rejected_quota"),
    ("sessions.capacity", "approxdd_sessions_capacity"),
    ("sessions.entries", "approxdd_sessions_entries"),
    ("sessions.session_hits", "approxdd_sessions_hits"),
    ("sessions.session_misses", "approxdd_sessions_misses"),
    ("sessions.inserts", "approxdd_sessions_inserts"),
    ("sessions.evictions", "approxdd_sessions_evictions"),
    ("sessions.frozen_nodes", "approxdd_sessions_frozen_nodes"),
    ("sessions.attaches", "approxdd_sessions_attaches"),
    ("pool.workers", "approxdd_pool_workers"),
    ("pool.tasks_submitted", "approxdd_pool_tasks_submitted"),
    ("pool.queue_depth", "approxdd_pool_queue_depth"),
    ("pool.max_queue_depth", "approxdd_pool_max_queue_depth"),
    ("pool.jobs_completed", "approxdd_pool_jobs_completed"),
    ("pool.shots_drawn", "approxdd_pool_shots_drawn"),
    ("pool.snapshot_hits", "approxdd_dd_snapshot_hits"),
    ("pool.snapshot_gate_hits", "approxdd_dd_snapshot_gate_hits"),
    ("pool.frozen_nodes", "approxdd_dd_frozen_nodes"),
    ("pool.peak_nodes", "approxdd_dd_peak_nodes"),
];

fn template() -> SimulatorBuilder {
    Simulator::builder().seed(7).workers(1).share_snapshot(true)
}

fn start() -> (SocketAddr, thread::JoinHandle<()>) {
    let config = ServerConfig::new().template(template()).runners(1);
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

/// Submits [`QASM`] to `target`, checks the 202 body, and returns the
/// job's event stream to its end, one line per element.
fn submit_and_stream(addr: SocketAddr, target: &str, job: u64) -> Vec<String> {
    let (status, body) = http(addr, "POST", target, QASM);
    assert_eq!(status, 202, "submission failed: {body}");
    assert_eq!(
        body,
        format!("{{\"job\":{job},\"status\":\"queued\",\"stream\":\"/jobs/{job}\"}}\n")
    );
    let (status, stream) = http(addr, "GET", &format!("/jobs/{job}"), "");
    assert_eq!(status, 200);
    assert!(stream.ends_with('\n'), "every event line is terminated");
    stream.lines().map(str::to_string).collect()
}

/// A recorded stream with its placeholders filled in.
fn recorded(lines: &[&str], family: &str, fingerprint: &str) -> Vec<String> {
    lines
        .iter()
        .map(|l| {
            l.replace("<family>", family)
                .replace("<fingerprint>", fingerprint)
        })
        .collect()
}

/// The fingerprint of `job` run directly on a pool built from the
/// server's template.
fn direct_fingerprint(job: PoolJob) -> String {
    let outcome = BackendPool::new(template())
        .run_jobs(vec![job])
        .pop()
        .expect("one result")
        .expect("direct run succeeds");
    format!("{:016x}", outcome.fingerprint())
}

/// The top-level keys of one event line, in order, up to and
/// including the first object-valued one (whose own keys are
/// measurement outcomes, not fields). Good for lines whose string
/// values hold no comma or colon.
fn keys_of(line: &str) -> Vec<&str> {
    let flat = line[1..].split('{').next().expect("split yields a head");
    flat.split(',')
        .filter_map(|pair| pair.split_once(':'))
        .map(|(key, _)| key.trim_matches('"'))
        .collect()
}

/// `GET /stats` flattened to `(section.key, value)` pairs in document
/// order — parsed by section, because `frozen_nodes` is a key of both
/// `sessions` and `pool`. Every quoted string of the document is a key
/// (its values are numbers and one boolean).
fn stats_leaves(addr: SocketAddr) -> Vec<(String, String)> {
    let (status, body) = http(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let mut leaves = Vec::new();
    let mut section = String::new();
    let mut rest = body.as_str();
    while let Some((_, after)) = rest.split_once('"') {
        let (key, after) = after
            .split_once("\":")
            .expect("a key is followed by a colon");
        if let Some(inner) = after.strip_prefix('{') {
            section = format!("{key}.");
            rest = inner;
            continue;
        }
        let end = after.find([',', '}']).expect("a value ends");
        leaves.push((format!("{section}{key}"), after[..end].to_string()));
        if after[end..].starts_with('}') {
            section.clear();
        }
        rest = &after[end..];
    }
    leaves
}

/// `GET /metrics` reduced to its un-labelled gauges, `(name, value)`
/// in exposition (sorted) order.
fn gauges(addr: SocketAddr) -> Vec<(String, String)> {
    let (status, text) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" gauge"))
        .collect();
    names
        .into_iter()
        .map(|name| {
            let value = text
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("gauge {name} has no un-labelled sample"));
            (name.to_string(), value.to_string())
        })
        .collect()
}

fn gauge(gauges: &[(String, String)], name: &str) -> u64 {
    let (_, value) = gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no gauge {name}"));
    value.parse().expect("gauges are integers")
}

#[test]
fn job_streams_stats_keys_and_gauge_names_are_what_they_were() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let circuit = from_qasm(QASM).expect("the fixed body parses");
    let family = format!("{:016x}", family_hash(&circuit));
    let memory_job = PoolJob::new(circuit.clone())
        .strategy(Strategy::memory_driven(2, 0.9))
        .shots(8);
    let fingerprint_a = direct_fingerprint(memory_job);
    // Partial histograms ride the sharded-sampling path, so the run
    // job of request B carries no shots.
    let fingerprint_b = direct_fingerprint(PoolJob::new(circuit));

    let (addr, handle) = start();

    let cold = submit_and_stream(addr, REQUEST_A, 1);
    let want = recorded(STREAM_A, &family, &fingerprint_a);
    assert_eq!(cold, want, "request A, cold");

    let warm = submit_and_stream(addr, REQUEST_A, 2);
    let want: Vec<String> = want
        .iter()
        .map(|l| {
            l.replace("\"job\":1", "\"job\":2")
                .replace("\"warm\":false", "\"warm\":true")
        })
        .collect();
    assert_eq!(warm, want, "request A again, warm");

    let sampled = submit_and_stream(addr, REQUEST_B, 3);
    let (partials, rest): (Vec<String>, Vec<String>) = sampled
        .into_iter()
        .partition(|l| l.starts_with(r#"{"type":"partial","#));
    assert_eq!(partials.len(), 2, "4096 shots settle as two chunks");
    for line in &partials {
        assert_eq!(keys_of(line), PARTIAL_KEYS, "{line}");
    }
    assert_eq!(
        rest,
        recorded(STREAM_B, &family, &fingerprint_b),
        "request B"
    );

    let failed = submit_and_stream(addr, REQUEST_C, 4);
    assert_eq!(failed, recorded(STREAM_C, &family, ""), "request C");

    let stats_keys: Vec<String> = stats_leaves(addr).into_iter().map(|(k, _)| k).collect();
    assert_eq!(stats_keys, STATS_KEYS);
    let gauge_names: Vec<String> = gauges(addr).into_iter().map(|(n, _)| n).collect();
    assert_eq!(gauge_names, GAUGES);

    shutdown(addr, handle);
}

#[test]
fn stats_and_metrics_are_one_reading() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (addr, handle) = start();
    submit_and_stream(addr, REQUEST_A, 1);
    submit_and_stream(addr, REQUEST_C, 2);
    submit_and_stream(addr, REQUEST_B, 3);
    let scraped = gauges(addr);

    // Nothing is in flight: both endpoints read settled state.
    let stats = stats_leaves(addr);
    for (leaf, name) in SHARED {
        let (_, value) = stats
            .iter()
            .find(|(k, _)| k == leaf)
            .unwrap_or_else(|| panic!("no /stats leaf {leaf}"));
        let value: u64 = value.parse().expect("shared leaves are integers");
        assert_eq!(value, gauge(&scraped, name), "{leaf} vs {name}");
    }
    // The readings are not all trivially zero.
    let read = |leaf: &str| {
        stats
            .iter()
            .find(|(k, _)| k == leaf)
            .map(|(_, v)| v.as_str())
    };
    assert_eq!(read("jobs.admitted"), Some("3"));
    assert_eq!(read("jobs.failed"), Some("1"));
    assert_eq!(read("sessions.session_hits"), Some("2"));
    assert_eq!(read("sessions.session_misses"), Some("1"));
    assert_eq!(read("sessions.frozen_nodes"), Some("23"));
    assert_eq!(read("pool.shots_drawn"), Some("4104"));

    // The benchmark derives `dd_ops_per_item` on `serve_closed_loop`
    // from the growth of these two gauges across settled requests.
    // [`QASM`] consults no compute table (`mul_mv` memoizes per call,
    // and none of its `add`s needs the table), so the job posts a body
    // whose last H adds two different sub-states: 2 `add` lookups.
    let lookups = |g: &[(String, String)]| {
        gauge(g, "approxdd_dd_ct_hits") + gauge(g, "approxdd_dd_ct_misses")
    };
    const ADDS: &str = "qreg q[3]; h q[0]; cx q[0],q[2]; h q[2];";
    let before = lookups(&scraped);
    let (status, body) = http(addr, "POST", "/jobs", ADDS);
    assert_eq!(status, 202, "submission failed: {body}");
    let (status, _) = http(addr, "GET", "/jobs/4", "");
    assert_eq!(status, 200);
    let after = lookups(&gauges(addr));
    assert!(
        after > before,
        "a DD job must grow the compute-table lookup gauges ({before} -> {after})"
    );

    shutdown(addr, handle);
}
