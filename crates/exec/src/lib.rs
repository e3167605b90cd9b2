//! Execution: multi-threaded pooled execution over the DD simulator.
//!
//! The engine is [`Simulator`](approxdd_sim::Simulator) itself — run,
//! query, release — built by `Simulator::builder()….build()`. The
//! [`backend`] module holds what the layers above read of a run: the
//! [`BackendStats`](backend::BackendStats) a [`SimStats`](approxdd_sim::SimStats)
//! converts into, and the one [`ExecError`](backend::ExecError).
//!
//! The paper trades controlled fidelity loss for large resource
//! savings on a *single* simulation; this crate runs many such
//! simulations deterministically. A [`BackendPool`] owns N worker
//! threads, each building its engine from a shared
//! [`SimulatorBuilder`] template, fed by one channel-based work queue.
//!
//! There is **one job path**. Run jobs and sampling chunks are the same
//! private task type and go through a single dispatch-and-collect pass,
//! and the pool exposes two primitives on it:
//!
//! * [`BackendPool::run_jobs_with_snapshot`] runs a list of
//!   [`PoolJob`]s (per-job policy, shots, trace, observable, deadline),
//!   one result slot per job, over an optional
//!   caller-held snapshot warmed on the one circuit they run;
//! * [`BackendPool::sample_counts_streamed`] shards one circuit's shot
//!   budget into fixed-size chunks and merges them into one histogram,
//!   reporting each chunk as it settles.
//!
//! [`BackendPool::run_jobs`] (no snapshot), [`BackendPool::run_batch`]
//! (plain circuits, first error wins)
//! and [`BackendPool::sample_counts`] (template policy, no callback)
//! are one-line wrappers. The pool bounds nothing: admission control
//! belongs to whatever sits above it (the job server's scheduler).
//!
//! **Determinism is thread-count-invariant:** per-job seeds come from a
//! SplitMix64 [`SeedStream`] keyed on `(root seed, job index)`, and
//! every job runs on freshly built simulator state, so a pool with one
//! worker and a pool with eight produce identical outcomes and
//! histograms for the same root seed (see the [`pool`](self) module
//! docs for why job isolation is required, and the workspace contract
//! suite for the assertion).
//!
//! **Execution is fault-tolerant:** a panic ends a job, not a thread
//! (each task runs under `catch_unwind`; a panicking job drops its
//! engine and fails typed, [`ExecError::Panicked`](backend::ExecError::Panicked)
//! with the panic's message, and its worker takes the next task). The
//! pool gives a job's engine its wall-clock deadline
//! ([`PoolJob::deadline`]), which the simulator checks after every
//! operation whatever the job's policy. Every job settles once: with its
//! result or its typed error. Nothing is retried, because a job's
//! outcome is a pure function of the job and the root seed, so a rerun
//! could only repeat it.
//!
//! [`SimulatorBuilder`]: approxdd_sim::SimulatorBuilder
//!
//! # Examples
//!
//! ```
//! use approxdd_exec::BuildPool;
//! use approxdd_circuit::generators;
//! use approxdd_sim::Simulator;
//!
//! # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
//! let pool = Simulator::builder().workers(2).seed(7).build_pool();
//! let circuits: Vec<_> = (0..4).map(|s| generators::supremacy(2, 3, 8, s)).collect();
//!
//! // Batched runs: one outcome per circuit, input order preserved.
//! let outcomes = pool.run_batch(&circuits)?;
//! assert_eq!(outcomes.len(), 4);
//!
//! // Sharded sampling: 10k shots split across the workers.
//! let counts = pool.sample_counts(&generators::ghz(8), 10_000)?;
//! assert_eq!(counts.values().sum::<usize>(), 10_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod backend;
mod error;
mod pool;
mod seed;

pub use error::panic_message;
pub use pool::{
    BackendPool, BuildPool, ChunkSettled, PoolJob, PoolOutcome, PoolStats, SharedDiagonal,
    WorkerStats, SHOT_CHUNK,
};
pub use seed::SeedStream;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ExecError;
    use approxdd_circuit::{generators, Circuit};
    use approxdd_sim::{SimError, Simulator, Strategy};
    use std::sync::Arc;

    #[test]
    fn build_pool_uses_builder_knobs() {
        let pool = Simulator::builder().workers(3).seed(99).build_pool();
        assert_eq!(pool.workers(), 3);
        assert_eq!(pool.root_seed(), 99);
        // workers(0) clamps to one worker, never a dead pool.
        let pool = Simulator::builder().workers(0).build_pool();
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn pool_cache_aggregate_is_worker_count_invariant() {
        // The pool-level cache metrics CI archives must be a function
        // of the executed jobs, not of which worker ran what: workers
        // harvest retired-backend counters, so the sums (and the peak
        // maximum) are identical across pool sizes.
        let circuits: Vec<_> = (0..6).map(|s| generators::supremacy(2, 3, 8, s)).collect();
        let run = |workers: usize| {
            let pool = Simulator::builder().workers(workers).seed(5).build_pool();
            pool.run_batch(&circuits).expect("batch");
            let stats = pool.stats();
            let hits: u64 = stats.per_worker.iter().map(|w| w.ct_hits).sum();
            let misses: u64 = stats.per_worker.iter().map(|w| w.ct_misses).sum();
            (hits, misses, stats.peak_nodes())
        };
        let one = run(1);
        let three = run(3);
        assert!(one.0 > 0, "workload must exercise the caches");
        assert_eq!(one, three, "1-worker vs 3-worker cache aggregates");
    }

    #[test]
    fn batch_outcomes_match_input_order() {
        let pool = Simulator::builder().workers(4).build_pool();
        let circuits = vec![
            generators::ghz(4),
            generators::w_state(5),
            generators::qft(4),
        ];
        let outcomes = pool.run_batch(&circuits).expect("batch");
        assert_eq!(outcomes.len(), 3);
        for (outcome, circuit) in outcomes.iter().zip(&circuits) {
            assert_eq!(outcome.name, circuit.name());
            assert_eq!(outcome.n_qubits, circuit.n_qubits());
            assert_eq!(outcome.stats.gates_applied, circuit.gate_count());
            assert!((outcome.stats.fidelity - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn per_job_strategy_overrides_apply() {
        let pool = Simulator::builder().workers(2).seed(3).build_pool();
        let circuit = generators::supremacy(2, 3, 12, 1);
        let jobs = vec![
            PoolJob::new(circuit.clone()),
            PoolJob::new(circuit).policy(Strategy::fidelity_driven(0.6, 0.9)),
        ];
        let results = pool.run_jobs(jobs);
        let exact = results[0].as_ref().expect("exact job");
        let approx = results[1].as_ref().expect("approx job");
        assert_eq!(exact.stats.approx_rounds, 0);
        assert!(approx.stats.approx_rounds > 0);
        assert!(approx.stats.fidelity < 1.0);
        assert!(approx.final_size <= exact.final_size);
    }

    #[test]
    fn sharded_sampling_merges_full_shot_budget() {
        let pool = Simulator::builder().workers(3).seed(1).build_pool();
        let shots = 2 * SHOT_CHUNK + 17; // forces multiple uneven chunks
        let counts = pool
            .sample_counts(&generators::ghz(6), shots)
            .expect("counts");
        assert_eq!(counts.values().sum::<usize>(), shots);
        // GHZ: only the two branch outcomes occur.
        assert_eq!(counts.len(), 2);
        assert!(counts.contains_key(&0) && counts.contains_key(&0x3F));
    }

    #[test]
    fn sampling_errors_propagate_not_hang() {
        let pool = Simulator::builder()
            .strategy(Strategy::fidelity_driven(2.0, 0.9)) // invalid template strategy
            .workers(2)
            .build_pool();
        let err = pool
            .sample_counts(&generators::ghz(4), 100)
            .expect_err("invalid strategy must fail");
        assert!(matches!(err, ExecError::Sim(_)), "{err:?}");
    }

    #[test]
    fn pool_stats_track_work() {
        let pool = Simulator::builder().workers(2).build_pool();
        let circuits = vec![generators::ghz(4); 6];
        pool.run_batch(&circuits).expect("batch");
        pool.sample_counts(&generators::ghz(4), 100)
            .expect("counts");
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.jobs_completed(), 6);
        assert_eq!(stats.shots_drawn(), 100);
        assert!(stats.tasks_submitted >= 7);
        assert_eq!(stats.queue_depth, 0, "all work drained");
        assert!(stats.max_queue_depth >= 1);
        assert_eq!(stats.per_worker.len(), 2);
        assert_eq!(stats.per_worker.iter().map(|w| w.jobs).sum::<usize>(), 6);
    }

    #[test]
    fn empty_submissions_are_cheap_noops() {
        let pool = Simulator::builder().workers(2).build_pool();
        assert!(pool.run_batch(&[]).expect("empty batch").is_empty());
        assert!(pool
            .sample_counts(&generators::ghz(3), 0)
            .expect("zero shots")
            .is_empty());
    }

    /// Sharded sampling around the chunk boundary: zero shots, one
    /// shot, a sub-chunk budget, exactly one chunk, and exact multiples
    /// must all merge to the full budget with histograms that are
    /// invariant under worker count (chunk seeds are keyed on the chunk
    /// index alone, so the decomposition — not the scheduling —
    /// determines every draw). Every settled view is ascending runs of
    /// positive counts that sum to the shots settled so far.
    #[test]
    fn sharded_sampling_chunk_boundaries_are_worker_invariant() {
        let circuit = generators::ghz(5);
        for shots in [
            0,
            1,
            SHOT_CHUNK - 1,
            SHOT_CHUNK,
            SHOT_CHUNK + 1,
            2 * SHOT_CHUNK,
        ] {
            let counts_for = |workers: usize| {
                let pool = Simulator::builder().workers(workers).seed(21).build_pool();
                pool.sample_counts(&circuit, shots).expect("counts")
            };
            let one = counts_for(1);
            assert_eq!(one.values().sum::<usize>(), shots, "shots {shots}");
            let pool = Simulator::builder().workers(2).seed(21).build_pool();
            let mut views = 0;
            let streamed = pool
                .sample_counts_streamed(&circuit, None, None, shots, &mut |settled| {
                    views += 1;
                    assert_eq!(settled.chunks, shots.div_ceil(SHOT_CHUNK));
                    let runs = settled.merged;
                    assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "{runs:?}");
                    assert!(runs.iter().all(|&(_, c)| c > 0), "{runs:?}");
                    let sum: usize = runs.iter().map(|&(_, c)| c).sum();
                    assert_eq!(sum, settled.shots_settled, "shots {shots}");
                })
                .expect("streamed");
            assert_eq!(views, shots.div_ceil(SHOT_CHUNK));
            assert_eq!(streamed, one, "streamed at shots = {shots}");
            for workers in [2, 8] {
                assert_eq!(
                    counts_for(workers),
                    one,
                    "{workers}-worker counts diverge at shots = {shots}"
                );
            }
            if shots > 0 {
                // GHZ: only the two branch outcomes ever occur.
                assert!(one.keys().all(|&k| k == 0 || k == 0x1F), "{one:?}");
            }
        }
    }

    /// Repeating the same sampling request on one pool must reproduce
    /// the histogram exactly: the epoch only invalidates cached run
    /// state, never the chunk seed derivation.
    #[test]
    fn repeated_sampling_requests_are_reproducible() {
        let pool = Simulator::builder().workers(3).seed(4).build_pool();
        let circuit = generators::w_state(6);
        let shots = SHOT_CHUNK + 7;
        let first = pool.sample_counts(&circuit, shots).expect("first");
        let second = pool.sample_counts(&circuit, shots).expect("second");
        assert_eq!(first, second);
    }

    /// Snapshot counters must aggregate like the cache counters:
    /// harvested on backend retirement, so the cross-worker sums are a
    /// function of the job list, not the scheduling. Each job runs as
    /// the server runs it: a one-job batch over a snapshot of its own
    /// circuit.
    #[test]
    fn snapshot_counters_are_worker_count_invariant() {
        let circuits = [
            generators::qft(5),
            generators::w_state(5),
            generators::qft(5),
            generators::ghz(5),
        ];
        let run = |workers: usize| {
            let template = Simulator::builder().workers(workers).seed(2);
            let pool = template.clone().build_pool();
            for circuit in &circuits {
                let snapshot = template.build_snapshot(circuit).expect("snapshot");
                let jobs = vec![PoolJob::new(circuit.clone()); 2];
                for result in pool.run_jobs_with_snapshot(jobs, Some(Arc::new(snapshot))) {
                    result.expect("job");
                }
            }
            let stats = pool.stats();
            (stats.snapshot_gate_hits(), stats.snapshot_hits())
        };
        let one = run(1);
        assert!(one.0 > 0, "warmed gates must be served from the snapshot");
        assert_eq!(one, run(3), "1-worker vs 3-worker snapshot counters");
    }

    /// The wrappers are exactly the primitives. The chunk-settlement
    /// callback streams every chunk exactly once, with monotone
    /// progress, and its final view is the returned histogram — which
    /// is what `sample_counts` returns. `run_batch`, `run_jobs` and
    /// `run_jobs_with_snapshot` (each job handed a snapshot of its own
    /// circuit) fingerprint identically, and a per-job preset steers
    /// its run.
    #[test]
    fn streamed_sampling_reports_every_chunk_and_matches_plain() {
        let circuit = generators::ghz(6);
        let shots = 2 * SHOT_CHUNK + 17;
        let pool = Simulator::builder().workers(3).seed(1).build_pool();
        let plain = pool.sample_counts(&circuit, shots).expect("plain");
        let mut calls = 0;
        let mut last_view = std::collections::HashMap::new();
        let streamed = pool
            .sample_counts_streamed(&circuit, None, None, shots, &mut |settled| {
                assert_eq!(settled.chunks, 3);
                calls += 1;
                assert_eq!(settled.settled, calls);
                last_view = settled.merged.iter().copied().collect();
            })
            .expect("streamed");
        assert_eq!(streamed, plain);
        assert_eq!(last_view, plain, "final partial view is the result");
        assert_eq!(calls, 3, "each chunk settles exactly once");

        let circuits: Vec<_> = (0..3).map(|s| generators::supremacy(2, 3, 10, s)).collect();
        let jobs = || {
            circuits
                .iter()
                .cloned()
                .map(PoolJob::new)
                .collect::<Vec<_>>()
        };
        let fingerprints = |results: Vec<Result<PoolOutcome, ExecError>>| -> Vec<u64> {
            results
                .iter()
                .map(|r| r.as_ref().expect("job").fingerprint())
                .collect()
        };
        let template = Simulator::builder().workers(2).seed(1);
        let pool = template.clone().build_pool();
        let batch = fingerprints(
            pool.run_batch(&circuits)
                .expect("batch")
                .into_iter()
                .map(Ok)
                .collect(),
        );
        assert_eq!(batch, fingerprints(pool.run_jobs(jobs())));
        // The jobs draw no shots, so a job's seed index plays no part.
        let sessions: Vec<u64> = jobs()
            .into_iter()
            .flat_map(|job| {
                let snapshot = template.build_snapshot(job.circuit()).expect("snapshot");
                fingerprints(pool.run_jobs_with_snapshot(vec![job], Some(Arc::new(snapshot))))
            })
            .collect();
        assert_eq!(batch, sessions);

        let coarse = Strategy::fidelity_driven(0.6, 0.9);
        let job = || PoolJob::new(generators::supremacy(2, 3, 12, 1)).shots(64);
        // One job per submission: sampling seeds are keyed on the job
        // index, so only jobs at equal indices may be compared.
        let run = |job: PoolJob| fingerprints(pool.run_jobs(vec![job]))[0];
        let preset = run(job().policy(coarse));
        let exact = run(job());
        assert_ne!(preset, exact, "the override must steer the run");
    }

    /// Merging ascending runs in place equals summing the histograms,
    /// whatever the overlap: empty sides, disjoint outcomes on either
    /// side, interleaved and shared outcomes.
    #[test]
    fn merged_runs_are_the_summed_histogram() {
        use crate::pool::merge_runs;
        use std::collections::BTreeMap;
        let cases: [&[(u64, usize)]; 6] = [
            &[],
            &[(3, 1)],
            &[(0, 2), (5, 1), (9, 4)],
            &[(1, 1), (5, 2), (6, 1), (10, 3)],
            &[(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (9, 1)],
            &[(11, 7), (12, 1)],
        ];
        for a in cases {
            for b in cases {
                let mut merged = a.to_vec();
                merge_runs(&mut merged, b);
                let mut want = BTreeMap::new();
                for &(outcome, count) in a.iter().chain(b) {
                    *want.entry(outcome).or_insert(0) += count;
                }
                let want: Vec<_> = want.into_iter().collect();
                assert_eq!(merged, want, "{a:?} + {b:?}");
            }
        }
    }

    #[test]
    fn per_job_expectation_is_computed_worker_side() {
        let circuit = generators::w_state(5);
        let ones: crate::SharedDiagonal = Arc::new(|i: u64| f64::from(i.count_ones()));
        let run = |workers: usize| {
            let pool = Simulator::builder().workers(workers).seed(9).build_pool();
            let jobs = vec![
                PoolJob::new(circuit.clone()).expectation(Arc::clone(&ones)),
                PoolJob::new(circuit.clone()),
            ];
            let results = pool.run_jobs(jobs);
            (
                results[0].as_ref().expect("job 0").clone(),
                results[1].as_ref().expect("job 1").clone(),
            )
        };
        let (with, without) = run(1);
        // W state: exactly one excited qubit.
        assert!((with.expectation.expect("requested") - 1.0).abs() < 1e-9);
        assert_eq!(without.expectation, None);
        // The observable value participates in the fingerprint and is
        // worker-count-invariant like every other result field.
        assert_ne!(with.fingerprint(), without.fingerprint());
        let (with8, _) = run(8);
        assert_eq!(with.fingerprint(), with8.fingerprint());
    }

    // The engine against the dense baseline, called directly.

    fn dd() -> Simulator {
        Simulator::builder().seed(11).build()
    }

    fn dense(circuit: &Circuit) -> approxdd_statevector::State {
        approxdd_statevector::run_circuit(circuit).expect("dense run")
    }

    fn assert_amplitudes_agree(dd: &mut Simulator, circuit: &Circuit) {
        let run = dd.run(circuit).expect("dd run");
        let xs = dd.amplitudes(&run).expect("dd amplitudes");
        dd.release(&run);
        let ys = dense(circuit);
        assert_eq!(xs.len(), ys.amplitudes().len());
        for (i, (x, y)) in xs.iter().zip(ys.amplitudes()).enumerate() {
            assert!(
                (*x - *y).mag() < 1e-9,
                "{}: amplitude {i}: dd = {x} vs dense = {y}",
                circuit.name()
            );
        }
    }

    #[test]
    fn engines_agree_with_the_dense_baseline() {
        let mut dd = dd();
        assert_amplitudes_agree(&mut dd, &generators::ghz(6));
        assert_amplitudes_agree(&mut dd, &generators::qft(5));
        assert_amplitudes_agree(&mut dd, &generators::supremacy(2, 3, 8, 3));
    }

    #[test]
    fn sampling_is_deterministic_after_reseed() {
        let circuit = generators::ghz(8);
        let mut dd = dd();
        let out = dd.run(&circuit).expect("run");
        dd.reseed(5);
        let first = dd.draw_counts(&out, 64);
        dd.reseed(5);
        let second = dd.draw_counts(&out, 64);
        assert_eq!(first, second);
        assert_eq!(first.iter().map(|&(_, c)| c).sum::<usize>(), 64);
        for &(v, _) in &first {
            assert!(v == 0 || v == 0xFF, "GHZ outcome {v:#x}");
        }
        dd.release(&out);
    }

    #[test]
    fn probability_rejects_out_of_range_basis() {
        let circuit = generators::ghz(3);
        let mut dd = dd();
        let out = dd.run(&circuit).expect("run");
        let refused = ExecError::from(dd.probability(&out, 8).expect_err("basis 8"));
        assert_eq!(
            refused,
            ExecError::Sim(SimError::BasisOutOfRange {
                basis: 8,
                n_qubits: 3
            })
        );
        assert!((dd.probability(&out, 7).expect("p") - 0.5).abs() < 1e-12);
        assert!((dense(&circuit).probability(7) - 0.5).abs() < 1e-12);
        dd.release(&out);
    }

    #[test]
    fn expectation_agrees_across_engines() {
        let circuit = generators::w_state(5);
        let mut dd = dd();
        let ones = |i: u64| f64::from(i.count_ones());
        let dd_out = dd.run(&circuit).expect("dd");
        let a = dd.expectation(&dd_out, &ones).expect("dd exp");
        let b = dense(&circuit).expectation_diagonal(&ones);
        // W state has exactly one excited qubit.
        assert!((a - 1.0).abs() < 1e-9, "{a}");
        assert!((a - b).abs() < 1e-9);
        dd.release(&dd_out);
    }

    #[test]
    fn prepare_rejects_bad_configurations() {
        // A run admits its circuit: an invalid preset is refused before
        // any state is built.
        let mut dd = Simulator::builder()
            .strategy(Strategy::FidelityDriven {
                final_fidelity: 2.0,
                round_fidelity: 0.9,
            })
            .build();
        assert!(matches!(
            dd.run(&generators::ghz(3)).map_err(ExecError::from),
            Err(ExecError::Sim(_))
        ));
    }

    #[test]
    fn approximate_dd_backend_reports_rounds_through_stats() {
        let circuit = generators::supremacy(2, 3, 12, 1);
        let mut dd = Simulator::builder()
            .strategy(Strategy::fidelity_driven(0.6, 0.9))
            .seed(3)
            .build();
        let out = dd.run(&circuit).expect("run");
        let stats = crate::backend::BackendStats::from(out.stats.clone());
        assert!(stats.approx_rounds > 0);
        assert!(stats.fidelity >= 0.6 - 1e-9 && stats.fidelity < 1.0);
        assert!(stats.nodes_removed > 0);
        dd.release(&out);
    }
}
