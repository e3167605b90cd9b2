//! `serve_closed_loop` — QASM in, fingerprint out, over real TCP. The
//! slice starts an in-process `JobServer` on `127.0.0.1:0` (one pool
//! worker, one runner) and drives it with **one** closed-loop client:
//! `POST /jobs?shots=1024` with an OpenQASM body, then `GET /jobs/{id}`
//! read to the `result` event; the next request is sent only after the
//! previous one completed. Seven of every eight requests cycle through
//! six recurring circuit families (warm sessions after set-up), the
//! eighth is a never-repeated random circuit (cold session). One client
//! because two clients on two cores repeat markedly worse than one.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use approxdd::circuit::qasm::{from_qasm, to_qasm};
use approxdd::circuit::{generators, Circuit};
use approxdd::server::{JobServer, ServerConfig};
use approxdd::sim::Simulator;

use super::{derived_seed, phase_delta, phase_sums, stream, INSTANCE_ROOT};
use crate::env;
use crate::slice::Recorder;
use crate::trace::NO_ITEM;

const SHOTS: usize = 1024;
const FAMILIES: usize = 6;
/// Every `COLD_EVERY`-th request is a cold one.
const COLD_EVERY: usize = 8;

/// The six recurring families. They and their order are the same for
/// every `--seed` (the server's compute-table lookups depend on the
/// order requests arrive in): the seed picks the server's sampling
/// seed, and with it every fingerprint.
fn families() -> [Circuit; FAMILIES] {
    [
        generators::ghz(12),
        generators::qft(8),
        generators::bernstein_vazirani(12, 0xA5A),
        generators::phase_estimation(7, 0.3 * std::f64::consts::TAU),
        generators::cuccaro_adder(4),
        generators::supremacy(3, 3, 6, 0),
    ]
}

/// The cold circuit of request `i`: a random circuit no other request
/// of the slice uses. It depends on `i` alone, so the slice's requests
/// — and with them the three exact metrics — are the same for every
/// `--seed` (a maximum over 200 random circuits drawn from the seed
/// would move `peak_nodes` by a third between seeds).
fn cold_circuit(i: usize) -> Circuit {
    generators::random_circuit(8, 8, derived_seed(INSTANCE_ROOT, stream::SERVE_COLD, i))
}

fn qasm_of(circuit: &Circuit) -> String {
    to_qasm(circuit).expect("benchmark circuits use QASM-expressible gates only")
}

/// One HTTP exchange on a fresh connection (`Connection: close`);
/// returns the status and the body.
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    // One buffer, one write: a request dribbled out in pieces would
    // measure Nagle's algorithm against delayed ACKs, not the server.
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let status = response.split_whitespace().nth(1)?.parse().ok()?;
    let body = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Some((status, body.to_string()))
}

/// The text after `"key":` up to the next `,` or `}` with quotes
/// stripped — enough for the flat objects the server emits.
fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &text[text.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn json_number(text: &str, key: &str) -> Option<f64> {
    json_field(text, key)?.parse().ok()
}

/// Value of an unlabelled series in Prometheus text exposition.
fn prometheus_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// Compute-table lookups of every job the server's pool has run, from
/// the `approxdd_dd_ct_*` gauges of `GET /metrics`.
fn served_ct_lookups(addr: SocketAddr) -> Option<f64> {
    let (status, text) = http(addr, "GET", "/metrics", "")?;
    (status == 200).then_some(())?;
    Some(
        prometheus_value(&text, "approxdd_dd_ct_hits")?
            + prometheus_value(&text, "approxdd_dd_ct_misses")?,
    )
}

/// What the client learned from one request.
struct Reply {
    fingerprint: String,
    peak_nodes: u64,
    fidelity: f64,
    post_s: f64,
    stream_s: f64,
}

/// `POST` the circuit, then read its event stream to the end.
fn request(rec: &mut Recorder, addr: SocketAddr, id: u64, qasm: &str) -> Option<Reply> {
    rec.enter("server.post", id);
    let start = Instant::now();
    let posted = http(addr, "POST", &format!("/jobs?shots={SHOTS}"), qasm);
    let post_s = start.elapsed().as_secs_f64();
    rec.exit();
    let (status, body) = posted?;
    (status == 202).then_some(())?;
    let target = json_field(&body, "stream")?.to_string();

    rec.enter("server.stream", id);
    let start = Instant::now();
    let streamed = http(addr, "GET", &target, "");
    let stream_s = start.elapsed().as_secs_f64();
    rec.exit();
    let (status, events) = streamed?;
    (status == 200).then_some(())?;
    let result = events.lines().find(|l| l.contains("\"type\":\"result\""))?;
    Some(Reply {
        fingerprint: json_field(result, "fingerprint")?.to_string(),
        peak_nodes: json_number(result, "peak_size")? as u64,
        fidelity: json_number(result, "fidelity")?,
        post_s,
        stream_s,
    })
}

pub(super) fn run(rec: &mut Recorder) {
    let config = rec.config();
    let root_seed = derived_seed(config.seed, stream::SAMPLING, 0);
    let (bodies, generate_s) = rec.timed("circuit.generate", || {
        families().iter().map(qasm_of).collect::<Vec<String>>()
    });
    rec.sample("circuit.generate_s", generate_s);
    let server_config = ServerConfig::new()
        .template(
            Simulator::builder()
                .seed(root_seed)
                .workers(1)
                .share_snapshot(true),
        )
        .runners(1);
    let server = JobServer::bind("127.0.0.1:0", server_config).expect("bind 127.0.0.1:0");
    let addr = server.local_addr();
    let serving = std::thread::spawn(move || server.run());

    // Warm-up: each family once. These are the families' cold requests;
    // every timed repeat must return the same fingerprint warm.
    let mut fingerprints: HashMap<usize, String> = HashMap::new();
    let mut setup_ok = true;
    for (family, body) in bodies.iter().enumerate() {
        match request(rec, addr, NO_ITEM, body) {
            Some(reply) => {
                fingerprints.insert(family, reply.fingerprint);
            }
            None => setup_ok = false,
        }
    }
    rec.setup_done();

    let before = phase_sums();
    let items = config.workload.slice_items();
    let ct_before = served_ct_lookups(addr);
    let rss_before_kib = env::status_kib("VmRSS");
    while rec.wants_item() {
        let i = rec.next_item();
        let cold = i % COLD_EVERY == COLD_EVERY - 1;
        let family = (i - i / COLD_EVERY) % FAMILIES;
        let cold_body;
        let body = if cold {
            cold_body = qasm_of(&cold_circuit(i));
            &cold_body
        } else {
            &bodies[family]
        };
        rec.enter("item", i as u64);
        let start = Instant::now();
        let reply = request(rec, addr, i as u64, body);
        let seconds = start.elapsed().as_secs_f64();
        rec.exit();

        let mut ok = setup_ok;
        let mut exact = (0, 0, 1.0);
        match &reply {
            Some(reply) => {
                ok &= cold || fingerprints.get(&family) == Some(&reply.fingerprint);
                exact = (reply.peak_nodes, 0, reply.fidelity);
                rec.sample("server.post_s_p50", reply.post_s);
                rec.sample("server.stream_s_p50", reply.stream_s);
                let kind = if cold {
                    "server.cold_item_s_p50"
                } else {
                    "server.warm_item_s_p50"
                };
                rec.sample(kind, seconds);
            }
            None => ok = false,
        }
        if i + 1 == items {
            // The slice's lookups are charged to its last item; the
            // scrape sits after the loop, outside every item's time.
            match (ct_before, served_ct_lookups(addr)) {
                (Some(a), Some(b)) => exact.1 = (b - a) as u64,
                _ => ok = false,
            }
        }
        rec.item(seconds, cold, ok, exact);
    }

    if rec.traced() {
        let grown = env::status_kib("VmRSS").saturating_sub(rss_before_kib);
        rec.ratio("server.rss_kib_per_job", grown as f64, items as f64);
        record_server(rec, addr, &before);
        probe_parser(rec, &bodies);
    }

    let _ = http(addr, "POST", "/shutdown", "");
    let _ = serving.join();
}

/// The server's own counters (`GET /stats`), its registry phases, and
/// the cost of a `/metrics` scrape.
fn record_server(
    rec: &mut Recorder,
    addr: SocketAddr,
    before: &std::collections::BTreeMap<String, (f64, u64)>,
) {
    let after = phase_sums();
    for (phase, metric) in [
        ("server.admit_wait", "server.admit_wait_s_mean"),
        ("server.run", "server.run_s_mean"),
        ("server.settle", "server.settle_s_mean"),
    ] {
        let (seconds, count) = phase_delta(before, &after, phase);
        rec.ratio(metric, seconds, count);
    }
    if let Some((200, stats)) = http(addr, "GET", "/stats", "") {
        let get = |key| json_number(&stats, key).unwrap_or(0.0);
        let hits = get("session_hits");
        rec.ratio(
            "server.session_hit_rate",
            hits,
            hits + get("session_misses"),
        );
        rec.sample(
            "server.rejected",
            get("rejected_queue_full") + get("rejected_quota"),
        );
    }
    for _ in 0..5 {
        let (_, seconds) = rec.timed("server.metrics_scrape", || {
            http(addr, "GET", "/metrics", "")
        });
        rec.sample("server.metrics_scrape_s", seconds);
    }
}

/// Times the QASM parser alone on the request bodies the server
/// parses once per `POST`.
fn probe_parser(rec: &mut Recorder, bodies: &[String]) {
    for _ in 0..20 {
        for body in bodies {
            let (parsed, seconds) = rec.timed("circuit.qasm_parse", || from_qasm(body));
            std::hint::black_box(parsed.expect("round-tripped QASM parses"));
            rec.sample("circuit.qasm_parse_s_p50", seconds);
            rec.ratio("circuit.qasm_parse_bytes_per_s", body.len() as f64, seconds);
        }
    }
}
