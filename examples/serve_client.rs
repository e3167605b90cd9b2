//! `serve_client` — the smoke client CI drives against a live `serve`
//! process.
//!
//! ```text
//! serve_client ADDR [SEED]
//! ```
//!
//! Talks plain HTTP over [`std::net::TcpStream`] (no client library —
//! the same offline constraint as the server). It submits a GHZ job,
//! reads the NDJSON stream to completion, and asserts the serving
//! determinism contract end to end:
//!
//! 1. the final `result` event's fingerprint and histogram are
//!    byte-identical to a direct in-process [`BackendPool`] run of
//!    the same (QASM, seed, shots) — the server must not move a bit;
//! 2. a second, identical submission hits the warm session
//!    (`"warm":true` in its stream, `session_hits ≥ 1` in `/stats`);
//! 3. `POST /shutdown` answers 200 and the server drains (the CI
//!    step then `wait`s on the server process and requires exit 0).
//!
//! `SEED` must match the `--seed` the server was started with — the
//! root seed is the determinism domain both sides derive from.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use approxdd::circuit::generators;
use approxdd::circuit::qasm::{from_qasm, to_qasm};
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::json::Json;
use approxdd::sim::Simulator;

const SHOTS: usize = 512;

fn http(addr: &str, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status line in: {response}"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(&line[start..end])
}

fn run(addr: &str, seed: u64) -> Result<(), String> {
    // The reference: the exact job the server will run, executed on a
    // direct in-process pool with the same root seed. The circuit is
    // round-tripped through QASM so both sides parse identical input.
    let qasm = to_qasm(&generators::ghz(6)).map_err(|e| e.to_string())?;
    let circuit = from_qasm(&qasm).map_err(|e| e.to_string())?;
    let pool = Simulator::builder().seed(seed).build_pool();
    let direct = pool
        .run_jobs(vec![PoolJob::new(circuit).shots(SHOTS)])
        .pop()
        .ok_or("empty pool result")?
        .map_err(|e| e.to_string())?;
    let want_fingerprint = format!("{:016x}", direct.fingerprint());
    let want_counts =
        Json::counts(direct.counts.as_ref().ok_or("direct run has no counts")?).to_string();

    for pass in ["cold", "warm"] {
        let (status, body) = http(addr, "POST", &format!("/jobs?shots={SHOTS}"), &qasm)?;
        if status != 202 {
            return Err(format!(
                "submit ({pass}): expected 202, got {status}: {body}"
            ));
        }
        let job = field(&body, "stream").ok_or_else(|| format!("no stream url in: {body}"))?;
        let (status, stream) = http(addr, "GET", job, "")?;
        if status != 200 {
            return Err(format!("stream ({pass}): expected 200, got {status}"));
        }
        let result = stream
            .lines()
            .find(|l| l.contains("\"type\":\"result\""))
            .ok_or_else(|| format!("no result event ({pass}):\n{stream}"))?;
        let fingerprint = field(result, "fingerprint").ok_or("result has no fingerprint")?;
        if fingerprint != want_fingerprint {
            return Err(format!(
                "fingerprint mismatch ({pass}): server {fingerprint}, direct {want_fingerprint}"
            ));
        }
        if !result.contains(&want_counts) {
            return Err(format!(
                "histogram mismatch ({pass}):\nwant {want_counts}\ngot  {result}"
            ));
        }
        let expected_warm = format!("\"warm\":{}", pass == "warm");
        if !stream.contains(&expected_warm) {
            return Err(format!(
                "expected {expected_warm} in {pass} stream:\n{stream}"
            ));
        }
        println!("serve_client: {pass} fingerprint {fingerprint} matches direct run");
    }

    let (status, stats) = http(addr, "GET", "/stats", "")?;
    if status != 200 {
        return Err(format!("stats: expected 200, got {status}"));
    }
    let warm_proof = ["\"session_hits\":1", "\"session_hits\":2"]
        .iter()
        .any(|k| stats.contains(*k));
    if !warm_proof {
        return Err(format!("stats must show session_hits ≥ 1: {stats}"));
    }
    println!("serve_client: /stats proves the warm session hit");

    // The observability contract: `GET /metrics` is valid Prometheus
    // text exposition carrying at least one counter series (requests by
    // route) and one histogram series (the phase-duration family).
    let (status, metrics) = http(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("metrics: expected 200, got {status}"));
    }
    if !metrics.contains("# TYPE approxdd_server_requests_total counter") {
        return Err(format!("metrics missing requests counter TYPE:\n{metrics}"));
    }
    if !metrics.contains("approxdd_server_requests_total{route=\"/jobs\"}") {
        return Err(format!("metrics missing /jobs route counter:\n{metrics}"));
    }
    if !metrics.contains("approxdd_phase_duration_nanoseconds_bucket")
        || !metrics.contains("le=\"+Inf\"")
    {
        return Err(format!("metrics missing phase histogram:\n{metrics}"));
    }
    if !metrics.contains("approxdd_pool_workers") {
        return Err(format!("metrics missing pool gauges:\n{metrics}"));
    }
    // "Is construction still on the job path?": every job's engine
    // build is a `backend.build` phase sample, and every compute-cache
    // slot array a worker had to fill (not recycle) is counted.
    if !metrics.contains("phase=\"backend.build\"")
        || !metrics.contains("approxdd_dd_cache_slabs_allocated_total")
    {
        return Err(format!(
            "metrics missing engine-construction series:\n{metrics}"
        ));
    }
    // Expiry is visible from the first scrape, before any eviction.
    if !metrics.contains("approxdd_server_jobs_expired_total") {
        return Err(format!("metrics missing the expiry counter:\n{metrics}"));
    }
    println!("serve_client: /metrics exposes counter and histogram series");

    let (status, _) = http(addr, "POST", "/shutdown", "")?;
    if status != 200 {
        return Err(format!("shutdown: expected 200, got {status}"));
    }
    println!("serve_client: shutdown accepted, server draining");
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else {
        eprintln!("usage: serve_client ADDR [SEED]");
        return ExitCode::FAILURE;
    };
    let seed: u64 = match args.next().map(|s| s.parse()) {
        None => 0,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("SEED must be an integer");
            return ExitCode::FAILURE;
        }
    };
    match run(&addr, seed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("serve_client: {msg}");
            ExitCode::FAILURE
        }
    }
}
