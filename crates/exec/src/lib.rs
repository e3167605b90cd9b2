//! Execution: the unified [`Backend`](backend::Backend) API over every
//! engine, and multi-threaded pooled execution over it.
//!
//! The [`backend`] module is the one front door to a simulation engine
//! — prepare, run, query, release — for the DD engine (with its
//! stabilizer and hybrid front ends) and the dense baseline alike;
//! `Simulator::builder()….build_backend()` builds one.
//!
//! The paper trades controlled fidelity loss for large resource
//! savings on a *single* simulation; this crate runs many such
//! simulations deterministically. A [`BackendPool`] owns N worker
//! threads, each building its engine from a shared
//! [`SimulatorBuilder`] template, fed by one channel-based work queue.
//!
//! There is **one job path**. Run jobs and sampling chunks are the same
//! private task type and go through a single dispatch/collect/retry
//! loop, and the pool exposes two primitives on it:
//!
//! * [`BackendPool::run_jobs_with_snapshot`] runs a list of
//!   [`PoolJob`]s (per-job policy, shots, trace, observable, deadline,
//!   retry, fallback), one result slot per job, over an optional
//!   caller-held frozen snapshot;
//! * [`BackendPool::sample_counts_streamed`] shards one circuit's shot
//!   budget into fixed-size chunks and merges them into one histogram,
//!   reporting each chunk as it settles.
//!
//! [`BackendPool::run_jobs`] (the per-batch snapshot the template asks
//! for), [`BackendPool::run_batch`] (plain circuits, first error wins)
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
//! **Execution is fault-tolerant:** the pool supervises its workers
//! (a thread killed by a panicking job is respawned into the same slot,
//! so capacity self-heals), re-dispatches jobs lost to worker deaths or
//! blown deadlines under a deterministic
//! [`RetryPolicy`](approxdd_sim::RetryPolicy) — retried results are
//! byte-identical to first-try results because seeds are keyed on the
//! job index, never the attempt — and enforces per-job wall-clock
//! deadlines cooperatively through the policy seam, with an optional
//! degradation ladder ([`PoolJob::degrade_with`]). A seeded
//! [`FaultPlan`] (test/bench only, driven by the `DOMAIN_FAULT` seed
//! stream) injects worker panics, delays and forced aborts at
//! deterministic job indices to exercise all of it.
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
mod fault;
mod pool;
mod seed;
mod supervise;

pub use fault::{silence_injected_panics, FaultKind, FaultPlan, InjectedPanic};
pub use pool::{
    BackendPool, BuildPool, ChunkSettled, PoolJob, PoolOutcome, PoolStats, SharedDiagonal,
    WorkerStats, SHOT_CHUNK,
};
pub use seed::{SeedStream, DOMAIN_NOISE};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        amplitudes_of, run_circuit, AnyBackend, Backend, BuildBackend, ExecError, Executable,
        StatevectorBackend,
    };
    use approxdd_circuit::{generators, Circuit};
    use approxdd_sim::{Simulator, Strategy};

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
            PoolJob::new(circuit).strategy(Strategy::fidelity_driven(0.6, 0.9)),
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
            .fidelity_driven(2.0, 0.9) // invalid template strategy
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

    /// Sharded sampling around the 2048-shot chunk boundary: zero
    /// shots, a sub-chunk budget, exactly one chunk, and exact
    /// multiples must all merge to the full budget with histograms that
    /// are invariant under worker count (chunk seeds are keyed on the
    /// chunk index alone, so the decomposition — not the scheduling —
    /// determines every draw).
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
    /// function of the job list, not the scheduling.
    #[test]
    fn snapshot_counters_are_worker_count_invariant() {
        let circuits = vec![generators::qft(5); 4];
        let run = |workers: usize| {
            let pool = Simulator::builder()
                .workers(workers)
                .seed(2)
                .share_snapshot(true)
                .build_pool();
            pool.run_batch(&circuits).expect("batch");
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
    /// `run_jobs_with_snapshot` (handed the batch's own snapshot)
    /// fingerprint identically, and `PoolJob::strategy` is
    /// `PoolJob::policy` with a preset: the last call wins.
    #[test]
    fn streamed_sampling_reports_every_chunk_and_matches_plain() {
        let circuit = generators::ghz(6);
        let shots = 2 * SHOT_CHUNK + 17;
        let pool = Simulator::builder().workers(3).seed(1).build_pool();
        let plain = pool.sample_counts(&circuit, shots).expect("plain");
        let mut calls = 0;
        let mut last_view = std::collections::HashMap::new();
        let streamed = pool
            .sample_counts_streamed(&circuit, None, shots, &mut |settled| {
                assert_eq!(settled.chunks, 3);
                calls += 1;
                assert_eq!(settled.settled, calls);
                last_view = settled.merged.clone();
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
        let template = Simulator::builder().workers(2).seed(1).share_snapshot(true);
        let pool = template.clone().build_pool();
        let batch = fingerprints(
            pool.run_batch(&circuits)
                .expect("batch")
                .into_iter()
                .map(Ok)
                .collect(),
        );
        assert_eq!(batch, fingerprints(pool.run_jobs(jobs())));
        let snapshot = std::sync::Arc::new(template.build_snapshot(&circuits).expect("snapshot"));
        assert_eq!(
            batch,
            fingerprints(pool.run_jobs_with_snapshot(jobs(), Some(snapshot)))
        );

        let coarse = Strategy::fidelity_driven(0.6, 0.9);
        let job = || PoolJob::new(generators::supremacy(2, 3, 12, 1)).shots(64);
        // One job per submission: sampling seeds are keyed on the job
        // index, so only jobs at equal indices may be compared.
        let run = |job: PoolJob| fingerprints(pool.run_jobs(vec![job]))[0];
        let preset = run(job().strategy(coarse));
        assert_eq!(
            preset,
            run(job().policy(coarse)),
            "strategy(s) is policy(s)"
        );
        assert_eq!(
            preset,
            run(job().policy(Strategy::Exact).strategy(coarse)),
            "a later strategy replaces a policy"
        );
        let exact = run(job());
        assert_eq!(
            exact,
            run(job().strategy(coarse).policy(Strategy::Exact)),
            "a later policy replaces a strategy"
        );
        assert_ne!(preset, exact, "the override must steer the run");
    }

    /// Every row of the pool's retry/degrade ladder, as a pure function:
    /// no pool, no panic, no sleep.
    #[test]
    fn verdict_covers_the_whole_ladder() {
        use crate::pool::{verdict, Verdict};
        use approxdd_sim::{RetryPolicy, SimError};
        use std::time::Duration;
        use Verdict::{Degrade, Final, Retry};
        let (job, attempt) = (0, 0);
        let budget = Duration::ZERO;
        let deadline = ExecError::DeadlineExceeded {
            job,
            attempt,
            budget,
        };
        let abort = ExecError::Sim(SimError::PolicyAbort {
            op_index: 3,
            policy: "p".into(),
        });
        let lost = ExecError::WorkerLost { job, attempt };
        let fault = ExecError::FaultInjected { job, attempt };
        let fatal = ExecError::BasisOutOfRange {
            basis: 9,
            n_qubits: 2,
        };
        let (never, thrice) = (RetryPolicy::default(), RetryPolicy::new(3));
        // (error, attempt, degraded, retry policy, has fallback) → verdict
        let rows = [
            // An abort with a fallback degrades — whatever the retry
            // budget, and instead of any blind retry.
            (&deadline, 0, false, never, true, Degrade),
            (&abort, 0, false, never, true, Degrade),
            (&deadline, 0, false, thrice, true, Degrade),
            (&abort, 2, false, thrice, true, Degrade),
            // A degraded attempt never degrades again: from there on
            // only the plain retry rules apply.
            (&abort, 1, true, thrice, true, Final),
            (&deadline, 1, true, thrice, true, Retry),
            (&deadline, 2, true, thrice, true, Final),
            // Without a fallback, a policy's own abort is final and a
            // blown deadline is merely retryable.
            (&abort, 0, false, thrice, false, Final),
            (&deadline, 0, false, thrice, false, Retry),
            (&deadline, 0, false, never, false, Final),
            // Retryable errors retry while attempts remain — a fallback
            // plays no part.
            (&lost, 0, false, thrice, false, Retry),
            (&lost, 1, false, thrice, true, Retry),
            (&lost, 2, false, thrice, false, Final),
            (&fault, 0, false, thrice, false, Retry),
            (&fault, 1, true, thrice, true, Retry),
            (&fault, 2, false, thrice, true, Final),
            (&lost, 0, false, never, false, Final),
            (&fault, 0, false, RetryPolicy::new(0), false, Final),
            // Everything else is the unit's result, first time.
            (&fatal, 0, false, thrice, true, Final),
            (&fatal, 0, true, thrice, false, Final),
        ];
        for (err, attempt, degraded, retry, has_fallback, want) in rows {
            assert_eq!(
                verdict(err, attempt, degraded, retry, has_fallback),
                want,
                "{err:?}: attempt {attempt}, degraded {degraded}, {retry:?}, fallback {has_fallback}"
            );
        }
    }

    #[test]
    fn per_job_expectation_is_computed_worker_side() {
        use std::sync::Arc;
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

    // The backend layer through its trait: both engines, one generic
    // function.

    fn backends() -> (AnyBackend, StatevectorBackend) {
        (
            Simulator::builder().seed(11).build_backend(),
            StatevectorBackend::with_seed(11),
        )
    }

    fn assert_amplitudes_agree<A: Backend, B: Backend>(a: &mut A, b: &mut B, circuit: &Circuit) {
        let xs = amplitudes_of(a, circuit).expect("backend a");
        let ys = amplitudes_of(b, circuit).expect("backend b");
        assert_eq!(xs.len(), ys.len());
        for (i, (x, y)) in xs.iter().zip(&ys).enumerate() {
            assert!(
                (*x - *y).mag() < 1e-9,
                "{}: amplitude {i}: {} = {x} vs {} = {y}",
                circuit.name(),
                a.name(),
                b.name()
            );
        }
    }

    #[test]
    fn engines_agree_through_the_trait() {
        let (mut dd, mut sv) = backends();
        assert_amplitudes_agree(&mut dd, &mut sv, &generators::ghz(6));
        assert_amplitudes_agree(&mut dd, &mut sv, &generators::qft(5));
        assert_amplitudes_agree(&mut dd, &mut sv, &generators::supremacy(2, 3, 8, 3));
    }

    #[test]
    fn run_batch_returns_per_circuit_outcomes_in_order() {
        let circuits = [
            generators::ghz(4),
            generators::w_state(4),
            generators::qft(4),
        ];
        let (mut dd, mut sv) = backends();
        let exes: Vec<Executable> = circuits
            .iter()
            .map(|c| dd.prepare(c).expect("prepare"))
            .collect();
        let dd_outs = dd.run_batch(&exes).expect("dd batch");
        let sv_outs = sv.run_batch(&exes).expect("sv batch");
        assert_eq!(dd_outs.len(), 3);
        assert_eq!(sv_outs.len(), 3);
        for ((d, s), c) in dd_outs.iter().zip(&sv_outs).zip(&circuits) {
            assert_eq!(d.n_qubits(), c.n_qubits());
            assert_eq!(s.stats.gates_applied, c.gate_count());
            assert_eq!(s.stats.peak_size, 1 << c.n_qubits());
            assert!((d.stats.fidelity - 1.0).abs() < 1e-12);
        }
        for out in dd_outs {
            dd.release(out);
        }
    }

    #[test]
    fn sampling_is_deterministic_after_reseed() {
        let circuit = generators::ghz(8);
        let (mut dd, _) = backends();
        let out = run_circuit(&mut dd, &circuit).expect("run");
        dd.reseed(5);
        let first: Vec<u64> = (0..8).map(|_| dd.sample(&out)).collect();
        dd.reseed(5);
        let second: Vec<u64> = (0..8).map(|_| dd.sample(&out)).collect();
        assert_eq!(first, second);
        for v in first {
            assert!(v == 0 || v == 0xFF, "GHZ outcome {v:#x}");
        }
        dd.release(out);
    }

    #[test]
    fn probability_rejects_out_of_range_basis() {
        let circuit = generators::ghz(3);
        let (mut dd, mut sv) = backends();
        let out = run_circuit(&mut dd, &circuit).expect("run");
        assert!(matches!(
            dd.probability(&out, 8),
            Err(ExecError::BasisOutOfRange {
                basis: 8,
                n_qubits: 3
            })
        ));
        assert!((dd.probability(&out, 7).expect("p") - 0.5).abs() < 1e-12);
        dd.release(out);
        let out = run_circuit(&mut sv, &circuit).expect("run");
        assert!(matches!(
            sv.probability(&out, 9),
            Err(ExecError::BasisOutOfRange { .. })
        ));
        sv.release(out);
    }

    #[test]
    fn expectation_agrees_across_engines() {
        let circuit = generators::w_state(5);
        let (mut dd, mut sv) = backends();
        let ones = |i: u64| f64::from(i.count_ones());
        let dd_out = run_circuit(&mut dd, &circuit).expect("dd");
        let sv_out = run_circuit(&mut sv, &circuit).expect("sv");
        let a = dd.expectation(&dd_out, &ones).expect("dd exp");
        let b = sv.expectation(&sv_out, &ones).expect("sv exp");
        // W state has exactly one excited qubit.
        assert!((a - 1.0).abs() < 1e-9, "{a}");
        assert!((a - b).abs() < 1e-9);
        dd.release(dd_out);
        sv.release(sv_out);
    }

    #[test]
    fn prepare_rejects_bad_configurations() {
        let sv = StatevectorBackend::new();
        let wide = generators::ghz(approxdd_statevector::MAX_DENSE_QUBITS + 1);
        assert!(matches!(
            sv.prepare(&wide),
            Err(ExecError::State(
                approxdd_statevector::StateError::TooManyQubits { .. }
            ))
        ));
        let dd = Simulator::builder()
            .strategy(Strategy::FidelityDriven {
                final_fidelity: 2.0,
                round_fidelity: 0.9,
            })
            .build_backend();
        assert!(matches!(
            dd.prepare(&generators::ghz(3)),
            Err(ExecError::Sim(_))
        ));
    }

    #[test]
    fn approximate_dd_backend_reports_rounds_through_stats() {
        let circuit = generators::supremacy(2, 3, 12, 1);
        let mut dd = Simulator::builder()
            .fidelity_driven(0.6, 0.9)
            .seed(3)
            .build_backend();
        let out = run_circuit(&mut dd, &circuit).expect("run");
        assert!(out.stats.approx_rounds > 0);
        assert!(out.stats.fidelity >= 0.6 - 1e-9 && out.stats.fidelity < 1.0);
        assert!(out.stats.nodes_removed > 0);
        dd.release(out);
    }
}
