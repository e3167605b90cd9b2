//! `pool_sweep` — the `exec` layer under many small jobs. An item is
//! one `BackendPool::run_jobs` batch of 16 jobs (GHZ, Bernstein–
//! Vazirani, W and QFT on 16–32 qubits, Grover, phase estimation, a
//! Cuccaro adder, quantum volume and 3×3 supremacy; 256 shots each)
//! followed by one sharded `sample_counts` of 100 000 shots, on a pool
//! of 2 workers with shared batch snapshots. The DDs stay small, so
//! per-job backend construction, the snapshot build, queueing and
//! sampling dominate; wide-register identity handling shows here too
//! (most operators are the identity on most qubits).

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::Instant;

use approxdd::backend::BuildBackend;
use approxdd::circuit::{generators, Circuit};
use approxdd::exec::{BackendPool, BuildPool, PoolJob, PoolStats};
use approxdd::sim::{Simulator, SimulatorBuilder};

use super::{
    ct_lookups, derived_seed, phase_delta, phase_sums, probe_package, shuffled, stream,
    INSTANCE_ROOT,
};
use crate::slice::Recorder;
use crate::trace::NO_ITEM;

const WORKERS: usize = 2;
const JOB_SHOTS: usize = 256;
const SAMPLE_SHOTS: usize = 100_000;
const SAMPLE_QUBITS: usize = 14;

/// A batch's first execution in a slice: its 16 job fingerprints and
/// a digest of its sampling histogram, which every repeat must
/// reproduce. A digest, not the histogram: 16 retained 16 384-bin
/// histograms would add 8 MiB to the `peak_rss_mib` this harness reports.
type FirstRun = (Vec<u64>, u64);

fn histogram_digest(counts: &HashMap<u64, usize>) -> u64 {
    let mut entries: Vec<(u64, usize)> = counts.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable();
    let mut h = DefaultHasher::new();
    entries.hash(&mut h);
    h.finish()
}

fn template(root_seed: u64) -> SimulatorBuilder {
    Simulator::builder()
        .seed(root_seed)
        .workers(WORKERS)
        .share_snapshot(true)
}

/// Distinct batches a slice cycles through.
const BATCHES: usize = 16;

/// The 16 circuits of batch `b`: fixed families and widths, with the
/// instance parameters (secrets, marked states, phases, random-circuit
/// seeds) drawn per batch.
fn batch(b: usize) -> Vec<Circuit> {
    let s = derived_seed(INSTANCE_ROOT, stream::POOL_INSTANCE, b);
    let bits = |n: usize| s % (1u64 << n);
    vec![
        generators::ghz(16),
        generators::ghz(32),
        generators::bernstein_vazirani(16, bits(16)),
        generators::bernstein_vazirani(24, bits(24)),
        generators::w_state(16),
        generators::w_state(24),
        generators::qft(16),
        generators::qft(32),
        generators::grover(7, bits(7), None),
        generators::grover(8, bits(8), None),
        generators::phase_estimation(10, (bits(10) as f64 + 0.5) / 1024.0 * std::f64::consts::TAU),
        generators::cuccaro_adder(7),
        generators::quantum_volume(5, 5, s),
        generators::quantum_volume(6, 4, s ^ 1),
        generators::supremacy(3, 3, 8, s),
        generators::supremacy(3, 3, 10, s ^ 1),
    ]
}

pub(super) fn run(rec: &mut Recorder) {
    let config = rec.config();
    let root_seed = derived_seed(config.seed, stream::SAMPLING, 0);
    // The seed decides the order the batches cycle in.
    let (batches, generate_s) = rec.timed("circuit.generate", || {
        shuffled(config.seed, BATCHES)
            .into_iter()
            .map(batch)
            .collect::<Vec<_>>()
    });
    rec.sample("circuit.generate_s", generate_s);
    let sample_circuit = generators::qft(SAMPLE_QUBITS);
    let (pool, pool_build_s) = rec.timed("exec.pool_build", || template(root_seed).build_pool());
    rec.sample("exec.pool_build_s", pool_build_s);
    // Warm-up: one untimed item on the last batch.
    let mut seen: Vec<Option<FirstRun>> = vec![None; batches.len()];
    let warm = batches.len() - 1;
    let _ = item(
        rec,
        &pool,
        &batches[warm],
        &sample_circuit,
        NO_ITEM,
        &mut seen[warm],
    );
    rec.setup_done();

    let before = (phase_sums(), pool.stats(), Instant::now());
    while rec.wants_item() {
        let i = rec.next_item();
        let b = i % batches.len();
        rec.enter("item", i as u64);
        let start = Instant::now();
        let done = item(
            rec,
            &pool,
            &batches[b],
            &sample_circuit,
            i as u64,
            &mut seen[b],
        );
        let seconds = start.elapsed().as_secs_f64();
        rec.exit();
        rec.item(seconds, false, done.ok, done.exact);
        // Ratio metrics sum numerators and denominators over records,
        // so per-item records add up to whole-loop rates.
        rec.sample("exec.run_jobs_s_p50", done.run_jobs_s);
        rec.sample("exec.sample_counts_s_p50", done.sample_counts_s);
        rec.ratio("exec.jobs_per_s", batches[b].len() as f64, done.run_jobs_s);
        rec.ratio(
            "exec.shots_per_s",
            SAMPLE_SHOTS as f64,
            done.sample_counts_s,
        );
        rec.ratio("dd.ct_hit_rate", done.ct_hits as f64, done.exact.1 as f64);
        rec.ratio("exec.snapshot_gate_hit_rate", 0.0, done.gates as f64);
    }

    if rec.traced() {
        record_pool(rec, &pool, &before);
        probes(rec);
    }
}

/// What one item did, for the checks, the exact metrics and the
/// per-layer rates.
struct Done {
    ok: bool,
    exact: (u64, u64, f64),
    ct_hits: u64,
    gates: u64,
    run_jobs_s: f64,
    sample_counts_s: f64,
}

/// Runs one batch and one sampling call. `seen` holds the fingerprints
/// and histogram digest of the batch's first execution in this slice:
/// every repeat must reproduce them exactly.
fn item(
    rec: &mut Recorder,
    pool: &BackendPool,
    circuits: &[Circuit],
    sample_circuit: &Circuit,
    id: u64,
    seen: &mut Option<FirstRun>,
) -> Done {
    let jobs: Vec<PoolJob> = circuits
        .iter()
        .map(|c| PoolJob::new(c.clone()).shots(JOB_SHOTS))
        .collect();
    rec.enter("exec.run_jobs", id);
    let start = Instant::now();
    let results = pool.run_jobs(jobs);
    let run_jobs_s = start.elapsed().as_secs_f64();
    rec.exit();
    rec.enter("exec.sample_counts", id);
    let start = Instant::now();
    let sampled = pool.sample_counts(sample_circuit, SAMPLE_SHOTS);
    let sample_counts_s = start.elapsed().as_secs_f64();
    rec.exit();
    let mut done = Done {
        ok: results.len() == circuits.len(),
        exact: (0, 0, f64::INFINITY),
        ct_hits: 0,
        gates: 0,
        run_jobs_s,
        sample_counts_s,
    };
    let mut fingerprints = Vec::with_capacity(results.len());
    for result in &results {
        let Ok(outcome) = result else {
            done.ok = false;
            continue;
        };
        let shots: usize = outcome.counts.as_ref().map_or(0, |c| c.values().sum());
        done.ok &= shots == JOB_SHOTS;
        fingerprints.push(outcome.fingerprint());
        done.exact.0 = done.exact.0.max(outcome.stats.peak_size as u64);
        done.exact.2 = done.exact.2.min(outcome.stats.fidelity);
        done.gates += outcome.stats.gates_applied as u64;
        if let Some(dd) = &outcome.stats.dd {
            done.exact.1 += ct_lookups(dd);
            done.ct_hits += dd.ct_hits;
        }
    }
    let histogram = sampled.unwrap_or_default();
    done.ok &= histogram.values().sum::<usize>() == SAMPLE_SHOTS;
    let digest = histogram_digest(&histogram);
    match seen {
        Some(first) => done.ok &= first.0 == fingerprints && first.1 == digest,
        None => *seen = Some((fingerprints, digest)),
    }
    done
}

/// The pool's own counters and the registry's pool phases over the
/// timed loop; `before` holds both, and the time, as the loop started.
fn record_pool(
    rec: &mut Recorder,
    pool: &BackendPool,
    (before, stats_before, loop_start): &(BTreeMap<String, (f64, u64)>, PoolStats, Instant),
) {
    let after = phase_sums();
    let stats = pool.stats();
    let wall = loop_start.elapsed().as_secs_f64();
    rec.ratio(
        "exec.busy_share",
        (stats.total_busy() - stats_before.total_busy()).as_secs_f64(),
        stats.workers as f64 * wall,
    );
    let (wait_s, waits) = phase_delta(before, &after, "pool.queue_wait");
    rec.ratio("exec.queue_wait_s_mean", wait_s, waits);
    let (snap_s, snaps) = phase_delta(before, &after, "snapshot.build");
    rec.ratio("exec.snapshot_build_s", snap_s, snaps);
    rec.ratio(
        "exec.snapshot_gate_hit_rate",
        (stats.snapshot_gate_hits() - stats_before.snapshot_gate_hits()) as f64,
        0.0, // the items recorded the gates applied
    );
    rec.sample("exec.max_queue_depth", stats.max_queue_depth as f64);
    rec.sample(
        "exec.retries",
        (stats.retries - stats_before.retries) as f64,
    );
    let failed = |s: &PoolStats| s.per_worker.iter().map(|w| w.failed_jobs).sum::<usize>();
    rec.sample(
        "exec.failed_jobs",
        (failed(&stats) - failed(stats_before)) as f64,
    );
}

/// Harness-side probes of the layers under the pool: backend
/// construction (paid once per job), a single-qubit gate on a wide
/// register, and the per-shot cost of sampling a DD.
fn probes(rec: &mut Recorder) {
    for _ in 0..32 {
        let (backend, seconds) = rec.timed("backend.build", || template(0).build_backend());
        rec.sample("backend.build_s_p50", seconds);
        drop(backend);
    }
    let mut sim = Simulator::builder().build();
    let run = sim.run(&generators::ghz(32)).expect("ghz");
    probe_package(rec, &mut sim, &run, 16);

    let mut sim = Simulator::builder().seed(1).build();
    let run = sim.run(&generators::qft(SAMPLE_QUBITS)).expect("qft");
    let (counts, seconds) = rec.timed("dd.sample_counts", || sim.draw_counts(&run, SAMPLE_SHOTS));
    std::hint::black_box(counts);
    rec.ratio("dd.sample_ns_per_shot", seconds * 1e9, SAMPLE_SHOTS as f64);
}
