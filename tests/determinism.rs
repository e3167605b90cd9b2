//! The determinism contract's oracle (docs/ARCHITECTURE.md,
//! "Determinism contract"): one root seed, one job list, one result,
//! whatever the execution configuration.
//!
//! A configuration is a [`Row`] over six axes: worker count, `add`
//! table size, snapshot sharing, injected faults under retry,
//! telemetry, and the path in (a direct pool call, or QASM over TCP to
//! a [`JobServer`]). [`ROWS`] is a pairwise covering array over them:
//! every pair of levels of every two axes meets in some row, which is
//! where interaction bugs (one axis breaking only under another) live.
//! Each fixed seed in [`SEEDS`] names one batch of jobs; every row must
//! reproduce row 0's fingerprints of that batch bit for bit, and must
//! show that it actually exercised its axes.
//!
//! This file is its own test binary because it flips the process-wide
//! telemetry flag: no test here may read a telemetry value.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;

use approxdd::circuit::generators;
use approxdd::circuit::qasm::{from_qasm, to_qasm};
use approxdd::circuit::Circuit;
use approxdd::exec::{
    silence_injected_panics, BackendPool, BuildPool, FaultPlan, PoolJob, PoolOutcome,
};
use approxdd::server::{JobServer, ServerConfig};
use approxdd::sim::{RetryPolicy, Simulator, SimulatorBuilder, Strategy};
use approxdd::telemetry;

/// The batches: each seed is one batch and the template's root seed.
const SEEDS: [u64; 4] = [3, 10, 17, 24];

/// One execution configuration. `false` / the first level of each
/// axis is the reference's.
#[derive(Debug, Clone, Copy)]
struct Row {
    workers: usize,
    /// `compute_cache_bits(2)` instead of the default 2^16 slots.
    tiny_cache: bool,
    /// In-process: `share_snapshot(true)`. Served: one warm session
    /// instead of none.
    snapshot: bool,
    /// A seeded fault plan (panics, delays, aborts) under three
    /// attempts per job.
    faults: bool,
    telemetry: bool,
    served: bool,
}

/// A pairwise covering array, row 0 the reference. Six rows cannot
/// cover every pair; none of seven with this row 0 was found.
#[rustfmt::skip]
const ROWS: [Row; 8] = [
    Row { workers: 1, tiny_cache: false, snapshot: false, faults: false, telemetry: false, served: false },
    Row { workers: 1, tiny_cache: true,  snapshot: true,  faults: false, telemetry: false, served: true },
    Row { workers: 1, tiny_cache: false, snapshot: false, faults: true,  telemetry: true,  served: true },
    Row { workers: 2, tiny_cache: true,  snapshot: false, faults: true,  telemetry: false, served: true },
    Row { workers: 2, tiny_cache: false, snapshot: true,  faults: false, telemetry: true,  served: false },
    Row { workers: 8, tiny_cache: true,  snapshot: true,  faults: false, telemetry: true,  served: false },
    Row { workers: 8, tiny_cache: false, snapshot: false, faults: true,  telemetry: false, served: true },
    Row { workers: 8, tiny_cache: false, snapshot: true,  faults: true,  telemetry: true,  served: false },
];

impl Row {
    /// The row's level on each axis, as an index.
    fn levels(self) -> [usize; 6] {
        let worker_level = [1, 2, 8].iter().position(|&w| w == self.workers);
        [
            worker_level.expect("workers is one of 1, 2, 8"),
            usize::from(self.tiny_cache),
            usize::from(self.snapshot),
            usize::from(self.faults),
            usize::from(self.telemetry),
            usize::from(self.served),
        ]
    }

    fn template(self, seed: u64) -> SimulatorBuilder {
        let mut b = Simulator::builder()
            .seed(seed)
            .workers(self.workers)
            .record_size_series(true)
            .gc_node_threshold(48); // GC interleaves with the runs
        if self.tiny_cache {
            b = b.compute_cache_bits(2);
        }
        if self.faults {
            b = b.retry(RetryPolicy::new(3));
        }
        // Only the in-process path reads this knob; the server's
        // sessions decide instead.
        b.share_snapshot(self.snapshot && !self.served)
    }

    fn inject_faults(self, pool: &BackendPool, seed: u64) {
        if self.faults {
            let plan = FaultPlan::seeded(seed).rates(0.15, 0.2, 0.15).panic_on([0]);
            pool.inject_faults(Some(plan));
        }
    }
}

/// One QASM-expressible job: the circuit as the server parses it, and
/// its policy both as a [`Strategy`] and as the query that asks the
/// server for it.
struct Job {
    qasm: String,
    circuit: Circuit,
    strategy: Option<Strategy>,
    shots: usize,
    target: String,
}

impl Job {
    fn new(circuit: &Circuit, strategy: Option<Strategy>, shots: u64, policy: String) -> Self {
        let qasm = to_qasm(circuit).expect("export qasm");
        Job {
            circuit: from_qasm(&qasm).expect("reimport qasm"),
            qasm,
            strategy,
            shots: shots as usize,
            target: format!("/jobs?shots={shots}{policy}"),
        }
    }

    fn pool_job(&self) -> PoolJob {
        let job = PoolJob::new(self.circuit.clone()).shots(self.shots);
        match self.strategy {
            Some(strategy) => job.strategy(strategy),
            None => job,
        }
    }
}

/// `splitmix64`: the batch's parameters as a pure function of the seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed's batch of four jobs: two exact ones under the template's
/// own policy, one memory-driven job that truncates and one
/// fidelity-driven job, in an order the seed rotates, with 64–256
/// shots each.
fn batch(seed: u64) -> Vec<Job> {
    let key = |k: u64| mix(seed * 16 + k);
    let draw = |k: u64, lo: u64, hi: u64| lo + key(k) % (hi - lo);
    let shots = |job: u64| draw(job, 64, 257);
    let exact = |job: u64| {
        let (n, depth) = (draw(job + 4, 3, 7), draw(job + 8, 4, 10));
        let circuit = generators::random_circuit(n as usize, depth as usize, key(job + 14));
        Job::new(&circuit, None, shots(job), String::new())
    };
    let threshold = draw(12, 8, 33);
    let f_final = draw(13, 50, 90) as f64 / 100.0;
    let mut jobs = vec![
        exact(0),
        exact(1),
        Job::new(
            &generators::supremacy(2, 3, 10, seed),
            Some(Strategy::memory_driven_table1(threshold as usize, 0.9)),
            shots(2),
            format!("&policy=memory_table1&nodes={threshold}&round=0.9"),
        ),
        Job::new(
            &generators::supremacy(2, 3, 10, seed + 1),
            Some(Strategy::fidelity_driven(f_final, 0.9)),
            shots(3),
            format!("&policy=fidelity&final={f_final}&round=0.9"),
        ),
    ];
    jobs.rotate_left(seed as usize % 4);
    jobs
}

/// The fingerprints one row produces for one batch.
///
/// In-process: one `run_jobs` of the whole batch, then a digest of one
/// 5000-shot `sample_counts` histogram. Served: every job POSTed three
/// times, `j0 j0 j1 j1 … j0 j1 …` (cold, warm, re-frozen after
/// eviction), each run by the server as a one-job batch.
fn fingerprints(row: Row, seed: u64, jobs: &[Job]) -> Vec<u64> {
    if row.served {
        return served_fingerprints(row, seed, jobs);
    }
    let pool = row.template(seed).build_pool();
    row.inject_faults(&pool, seed);
    let outcomes: Vec<_> = pool
        .run_jobs(jobs.iter().map(Job::pool_job).collect())
        .into_iter()
        .map(|r| r.expect("pool job"))
        .collect();
    let counts = pool
        .sample_counts(&jobs[0].circuit, 5000)
        .expect("sample_counts");
    let mut histogram: Vec<_> = counts.into_iter().collect();
    histogram.sort_unstable();
    let mut h = DefaultHasher::new();
    histogram.hash(&mut h);

    let stats = pool.stats();
    let what = format!("row {row:?}, seed {seed}");
    if row.snapshot {
        assert!(stats.snapshot_gate_hits() > 0, "snapshot unused: {what}");
    } else {
        assert_eq!(stats.snapshot_gate_hits(), 0, "{what}");
    }
    assert_eq!(stats.retries > 0, row.faults, "{what}");
    assert!(outcomes.iter().any(|o| o.stats.approx_rounds > 0), "{what}");
    let gc_runs = |o: &PoolOutcome| o.stats.dd.as_ref().map_or(0, |p| p.gc_runs);
    assert!(outcomes.iter().any(|o| gc_runs(o) > 0), "{what}");
    outcomes
        .iter()
        .map(PoolOutcome::fingerprint)
        .chain([h.finish()])
        .collect()
}

/// The served request order over `n` jobs: each twice, then each once.
fn served_order(n: usize) -> impl Iterator<Item = usize> {
    (0..2 * n).map(|i| i / 2).chain(0..n)
}

/// A served row: a fresh in-process server, the requests in
/// [`served_order`], then the row's guards read from the streams and
/// `/stats`.
fn served_fingerprints(row: Row, seed: u64, jobs: &[Job]) -> Vec<u64> {
    let config = ServerConfig::new()
        .template(row.template(seed))
        .sessions(usize::from(row.snapshot));
    let server = JobServer::bind("127.0.0.1:0", config).expect("bind");
    row.inject_faults(server.pool(), seed);
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("server run"));

    let what = format!("row {row:?}, seed {seed}");
    let mut warm = false;
    let fingerprints = served_order(jobs.len())
        .map(|i| {
            let (status, body) = http(addr, "POST", &jobs[i].target, &jobs[i].qasm);
            assert_eq!(status, 202, "{body}");
            let job = field(&body, "job").expect("job id");
            let (_, stream) = http(addr, "GET", &format!("/jobs/{job}"), "");
            let result = stream
                .lines()
                .find(|l| l.contains("\"type\":\"result\""))
                .unwrap_or_else(|| panic!("no result event ({what}):\n{stream}"));
            if row.faults {
                assert_eq!(field(result, "attempts"), Some("2"), "{what}");
            }
            warm |= stream.contains("\"warm\":true");
            let fingerprint = field(result, "fingerprint").expect("fingerprint");
            u64::from_str_radix(fingerprint, 16).expect("hex fingerprint")
        })
        .collect();

    let (_, stats) = http(addr, "GET", "/stats", "");
    let count = |key: &str| -> u64 { field(&stats, key).and_then(|v| v.parse().ok()).expect(key) };
    assert_eq!(warm, row.snapshot, "{what}");
    assert_eq!(count("session_hits") >= 1, row.snapshot, "{what}: {stats}");
    assert_eq!(
        count("snapshot_gate_hits") > 0,
        row.snapshot,
        "{what}: {stats}"
    );
    assert_eq!(count("retries") > 0, row.faults, "{what}: {stats}");
    assert_eq!(count("respawns") >= 1, row.faults, "{what}: {stats}");

    assert_eq!(http(addr, "POST", "/shutdown", "").0, 200);
    handle.join().expect("server thread");
    fingerprints
}

/// Sends one HTTP/1.1 request and returns (status, body).
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
    let (head, body) = response.split_once("\r\n\r\n").expect("header end");
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
    (status.expect("status line"), body.to_string())
}

/// The value after the first `"key":` in a JSON line, unquoted.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &json[json.find(&tag)? + tag.len()..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

#[test]
fn rows_cover_every_pair_of_levels() {
    const LEVELS: [usize; 6] = [3, 2, 2, 2, 2, 2];
    assert_eq!(ROWS[0].levels(), [0; 6], "row 0 is the reference");
    for (a, &levels_a) in LEVELS.iter().enumerate() {
        for (b, &levels_b) in LEVELS.iter().enumerate().skip(a + 1) {
            for (x, y) in (0..levels_a).flat_map(|x| (0..levels_b).map(move |y| (x, y))) {
                assert!(
                    ROWS.iter()
                        .any(|r| r.levels()[a] == x && r.levels()[b] == y),
                    "no row has axis {a} at level {x} and axis {b} at level {y}"
                );
            }
        }
    }
}

#[test]
fn every_row_reproduces_the_reference() {
    silence_injected_panics();
    let batches: Vec<_> = SEEDS.iter().map(|&seed| (seed, batch(seed))).collect();
    // Every (row, seed) pair runs on its own thread, but only beside
    // rows at the same telemetry level: the flag is process-wide.
    telemetry::set_enabled(ROWS[0].telemetry);
    let references: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = batches
            .iter()
            .map(|(seed, jobs)| s.spawn(move || reference(*seed, jobs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    for level in [false, true] {
        telemetry::set_enabled(level);
        thread::scope(|s| {
            for row in ROWS[1..].iter().filter(|r| r.telemetry == level) {
                for ((seed, jobs), (in_process, served)) in batches.iter().zip(&references) {
                    let want = if row.served { served } else { in_process };
                    s.spawn(move || {
                        let got = fingerprints(*row, *seed, jobs);
                        assert_eq!(&got, want, "row {row:?} diverged on seed {seed}");
                    });
                }
            }
        });
    }
    telemetry::set_enabled(true);
}

/// Row 0's fingerprints of the batch, and of each job run alone in the
/// served order: the server runs each request as a one-job batch on
/// one long-lived pool, and so does this reference.
fn reference(seed: u64, jobs: &[Job]) -> (Vec<u64>, Vec<u64>) {
    let in_process = fingerprints(ROWS[0], seed, jobs);
    let pool = ROWS[0].template(seed).build_pool();
    let alone: Vec<u64> = jobs
        .iter()
        .map(|job| {
            let outcome = pool.run_jobs(vec![job.pool_job()]).remove(0);
            outcome.expect("job run alone").fingerprint()
        })
        .collect();
    (
        in_process,
        served_order(jobs.len()).map(|i| alone[i]).collect(),
    )
}
