//! Parallel batched execution with the `BackendPool`: the Table-I
//! sweep shape (one circuit family × several approximation configs)
//! submitted as one batch of jobs across worker threads, plus sharded
//! shot-sampling — with the pool's determinism contract demonstrated
//! by re-running the same batch on a different worker count.
//!
//! ```text
//! cargo run --release --example parallel_batch [workers]
//! ```

use approxdd::circuit::generators;
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::{Simulator, Strategy};

/// Exact reference plus a two-point `f_round` sweep per instance.
fn sweep_jobs() -> Vec<PoolJob> {
    let mut jobs = Vec::new();
    for seed in 0..3 {
        let circuit = generators::supremacy(3, 3, 10, seed);
        jobs.push(PoolJob::new(circuit.clone())); // exact (template strategy)
        for f_round in [0.99, 0.95] {
            jobs.push(
                PoolJob::new(circuit.clone())
                    .policy(Strategy::memory_driven_table1(1 << 8, f_round)),
            );
        }
    }
    jobs
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    let pool = Simulator::builder().seed(7).workers(workers).build_pool();
    println!(
        "pool: {} workers, root seed {}",
        pool.workers(),
        pool.root_seed()
    );

    // One batch: exact references and the sweep, all in flight at once.
    println!(
        "\n{:<16} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "maxDD", "rounds", "ffinal", "worker"
    );
    let mut outcomes = Vec::new();
    for result in pool.run_jobs(sweep_jobs()) {
        let o = result?;
        println!(
            "{:<16} {:>8} {:>8} {:>8.4} {:>8}",
            o.name, o.stats.peak_size, o.stats.approx_rounds, o.stats.fidelity, o.worker
        );
        outcomes.push(o);
    }

    // Sharded sampling: a large shot budget split into fixed chunks
    // across the workers, merged into one histogram.
    let ghz = generators::ghz(12);
    let counts = pool.sample_counts(&ghz, 100_000)?;
    println!(
        "\nghz(12), 100k shots over {} workers: |0…0> {} |1…1> {}",
        pool.workers(),
        counts.get(&0).copied().unwrap_or(0),
        counts.get(&0xFFF).copied().unwrap_or(0),
    );

    // Determinism: the same root seed on one worker gives byte-identical
    // outcomes and histograms — worker count only changes wall time.
    let single = Simulator::builder().seed(7).workers(1).build_pool();
    let same_outcomes = single
        .run_jobs(sweep_jobs())
        .iter()
        .zip(&outcomes)
        .all(|(a, b)| a.as_ref().is_ok_and(|a| a.fingerprint() == b.fingerprint()));
    let same_counts = single.sample_counts(&ghz, 100_000)? == counts;
    println!(
        "\ndeterminism: {workers}-worker vs 1-worker — outcomes identical: \
         {same_outcomes}, histograms identical: {same_counts}"
    );

    let stats = pool.stats();
    println!(
        "\npool stats: {} tasks, max queue depth {}, total busy {:?} over {:?} uptime",
        stats.tasks_submitted,
        stats.max_queue_depth,
        stats.total_busy(),
        stats.uptime
    );
    for w in &stats.per_worker {
        println!(
            "  worker {}: {} jobs, {} chunks, {} shots, busy {:?}, {} alive nodes, {} cached gates",
            w.worker, w.jobs, w.sample_chunks, w.shots_drawn, w.busy, w.alive_nodes, w.cached_gates
        );
    }
    Ok(())
}
