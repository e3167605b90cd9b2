//! The simulator's run / query / release contract: the standard
//! workloads (GHZ, QFT, one supremacy instance) run through the whole
//! lifecycle — run, sampling, histograms, amplitudes, probabilities,
//! expectations, fidelity, release — against the dense baseline
//! (`approxdd::statevector::run_circuit`), called directly. A result
//! is live from its run to its release: every query of a released
//! result, of a clone of one, or of another simulator's result panics,
//! and a refused release leaves the live results' states intact.
//!
//! The second half is the `BackendPool` contract suite: a pooled job
//! reports what a single-threaded simulator run does (worker-count
//! invariance is `tests/determinism.rs`'s to check), empty and
//! oversized batches must behave, and a poisoned job must neither
//! deadlock the queue nor disturb its neighbours' results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use approxdd::backend::{BuildBackend, ExecError};
use approxdd::circuit::{generators, Circuit};
use approxdd::complex::Cplx;
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::{ExactPolicy, RunResult, SimError, Simulator, Strategy};
use proptest::prelude::*;
use rand::SeedableRng;

fn workloads() -> Vec<Circuit> {
    vec![
        generators::ghz(8),
        generators::qft(6),
        generators::supremacy(2, 3, 10, 5),
    ]
}

/// Final amplitudes of `circuit` on `sim`, the result released.
fn amplitudes(sim: &mut Simulator, circuit: &Circuit) -> Result<Vec<Cplx>, SimError> {
    let run = sim.run(circuit)?;
    let amps = sim.amplitudes(&run);
    sim.release(&run);
    amps
}

/// Final amplitudes of `circuit` on the dense exact baseline.
fn dense_amplitudes(circuit: &Circuit) -> Vec<Cplx> {
    approxdd::statevector::run_circuit(circuit)
        .unwrap_or_else(|e| panic!("dense run of {}: {e}", circuit.name()))
        .amplitudes()
        .to_vec()
}

/// Every workload runs through the full lifecycle with self-consistent
/// results that match the dense baseline. The results stay live
/// together until the end.
#[test]
fn dd_backend_satisfies_the_contract() {
    let sim = &mut Simulator::builder().seed(5).build();
    let circuits = workloads();
    let outcomes: Vec<_> = circuits
        .iter()
        .map(|c| {
            sim.run(c)
                .unwrap_or_else(|e| panic!("run {}: {e}", c.name()))
        })
        .collect();
    for (outcome, circuit) in outcomes.iter().zip(&circuits) {
        assert_eq!(outcome.n_qubits(), circuit.n_qubits());
        assert_eq!(
            outcome.stats.gates_applied,
            circuit.gate_count(),
            "{}",
            circuit.name()
        );
        assert!((outcome.stats.fidelity - 1.0).abs() < 1e-12, "exact run");

        // Amplitudes are the dense baseline's; probabilities match them.
        let amps = sim.amplitudes(outcome).expect("amplitudes");
        let dense = dense_amplitudes(circuit);
        assert_eq!(amps.len(), dense.len());
        for (i, (x, y)) in amps.iter().zip(&dense).enumerate() {
            assert!(
                (*x - *y).mag() < 1e-9,
                "{}: amplitude {i}: {x} vs dense {y}",
                circuit.name()
            );
        }
        for idx in [0u64, (1 << circuit.n_qubits()) - 1] {
            let p = sim.probability(outcome, idx).expect("probability");
            assert!((p - amps[idx as usize].mag2()).abs() < 1e-12);
        }

        // Expectation of the identity observable is 1.
        let one = sim.expectation(outcome, &|_| 1.0).expect("expectation");
        assert!((one - 1.0).abs() < 1e-9);

        // An outcome's fidelity with itself is 1.
        let same = sim.fidelity_between(outcome, outcome);
        assert!((same - 1.0).abs() < 1e-12, "{}: {same}", circuit.name());

        // The same seed draws the same histogram.
        sim.reseed(1234);
        let counts = sim.draw_counts(outcome, 200);
        assert_eq!(counts.iter().map(|&(_, c)| c).sum::<usize>(), 200);
        sim.reseed(1234);
        assert_eq!(
            counts,
            sim.draw_counts(outcome, 200),
            "{}: sampling not deterministic",
            circuit.name()
        );
    }
    for outcome in &outcomes {
        sim.release(outcome);
    }

    // Out-of-range queries fail loudly rather than lying, up to the
    // widest register a run admits: every bit of a 63-qubit index is a
    // qubit, the 64th is not.
    for n in [3, 63] {
        let run = sim.run(&generators::ghz(n)).expect("run");
        let top = u64::MAX >> (64 - n);
        let p = sim.probability(&run, top).expect("all ones");
        assert!((p - 0.5).abs() < 1e-12, "ghz({n}): {p}");
        assert_eq!(
            sim.probability(&run, top + 1),
            Err(SimError::BasisOutOfRange {
                basis: top + 1,
                n_qubits: n
            })
        );
        sim.release(&run);
    }
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// Amplitude bits of a live result.
fn amplitude_bits(sim: &Simulator, run: &RunResult) -> Vec<(u64, u64)> {
    sim.amplitudes(run)
        .expect("amplitudes")
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// Two runs of one circuit on one simulator share their root node, so
/// a second release of the first would strip the second's root, and a
/// collection would free its state under it. The guard refuses that
/// release, every query of a released result (through a clone too),
/// and a release handed another simulator's result; the live result
/// keeps its bits across a collection and a run that reuses the freed
/// slots.
#[test]
fn a_released_result_is_refused_and_a_live_one_keeps_its_bits() {
    let circuit = generators::qft(6);
    let mut sim = Simulator::builder().seed(3).build();
    let first = sim.run(&circuit).expect("first run");
    let second = sim.run(&circuit).expect("second run");
    assert_eq!(first.state(), second.state(), "the runs share a root");
    let before = amplitude_bits(&sim, &second);

    let stale = first.clone();
    sim.release(&first);
    let twice = panic_message(|| sim.release(&first));
    assert!(twice.contains("already released"), "{twice}");
    sim.package_mut().collect_garbage();
    let third = sim
        .run(&generators::random_circuit(6, 12, 1))
        .expect("third run");
    assert_eq!(amplitude_bits(&sim, &second), before);

    // Every query refuses the clone of a released result.
    let refusals = [
        panic_message(|| {
            let _ = sim.sample(&stale, &mut rand::rngs::StdRng::seed_from_u64(0));
        }),
        panic_message(|| {
            sim.draw(&stale);
        }),
        panic_message(|| {
            sim.draw_counts(&stale, 8);
        }),
        panic_message(|| {
            let _ = sim.amplitudes(&stale);
        }),
        panic_message(|| {
            let _ = sim.probability(&stale, 0);
        }),
        panic_message(|| {
            let _ = sim.expectation(&stale, &|_| 1.0);
        }),
        panic_message(|| {
            let _ = sim.fidelity_between(&second, &stale);
        }),
        panic_message(|| sim.release(&stale)),
    ];
    for message in &refusals {
        assert!(message.contains("already released"), "{message}");
    }

    // Another simulator's result is refused, and stays live where it
    // was run.
    let mut other = Simulator::builder().build();
    let foreign = panic_message(|| other.release(&second));
    assert!(foreign.contains("another simulator"), "{foreign}");
    assert_eq!(amplitude_bits(&sim, &second), before);
    sim.release(&second);
    sim.release(&third);
}

/// `build_backend()`, the name the benchmark harness builds by, is
/// `build()`: the same run to the same statistics and amplitude bits.
#[test]
fn build_backend_is_build() {
    let circuit = generators::supremacy(2, 3, 10, 5);
    let builder = || Simulator::builder().strategy(Strategy::fidelity_driven(0.6, 0.9));
    let [(stats, bits), (backend_stats, backend_bits)] =
        [builder().build(), builder().build_backend()].map(|mut sim| {
            let mut run = sim.run(&circuit).expect("run");
            run.stats.runtime = std::time::Duration::ZERO;
            let bits = amplitude_bits(&sim, &run);
            sim.release(&run);
            (run.stats, bits)
        });
    assert!(stats.approx_rounds > 0, "approximation must engage");
    assert_eq!(stats, backend_stats);
    assert_eq!(bits, backend_bits);
}

/// Admission happens once: a DD run builds its policy in
/// `Simulator::run` and nowhere else, alone or pooled.
#[test]
fn a_run_builds_its_policy_once() {
    let built = Arc::new(AtomicUsize::new(0));
    let counting = {
        let built = Arc::clone(&built);
        move || {
            built.fetch_add(1, Ordering::Relaxed);
            ExactPolicy
        }
    };
    let mut sim = Simulator::builder().policy(counting.clone()).build();
    let printed = format!("{sim:?}");
    assert!(printed.starts_with("Simulator"), "{printed}");
    let run = sim.run(&generators::ghz(3)).expect("run");
    sim.release(&run);
    assert_eq!(built.load(Ordering::Relaxed), 1, "build + Debug + run");

    built.store(0, Ordering::Relaxed);
    let pool = Simulator::builder().seed(5).workers(2).build_pool();
    pool.run_jobs(vec![PoolJob::new(generators::ghz(3)).policy(counting)])
        .pop()
        .expect("one slot")
        .expect("pool job");
    assert_eq!(built.load(Ordering::Relaxed), 1, "one policy per job");
}

#[test]
fn a_register_no_engine_can_index_is_refused_at_prepare() {
    // 64 qubits: one past `u64` basis indexing. The simulator refuses
    // it where a run admits the circuit, with a typed error, before it
    // builds a state …
    let wide = generators::ghz(64);
    assert!(matches!(
        Simulator::builder().build().run(&wide),
        Err(SimError::Dd(approxdd::dd::DdError::TooManyQubits {
            n_qubits: 64,
            max: 63
        }))
    ));
    // … and a pooled job fails in its own slot: no worker dies for it.
    let pool = Simulator::builder().seed(5).workers(2).build_pool();
    let results = pool.run_jobs(vec![
        PoolJob::new(generators::ghz(63)),
        PoolJob::new(wide),
        PoolJob::new(generators::ghz(5)),
    ]);
    assert!(results[0].is_ok() && results[2].is_ok());
    assert!(
        matches!(results[1], Err(ExecError::Dd(_))),
        "{:?}",
        results[1]
    );
    assert_eq!(pool.stats().panics, 0);
}

#[test]
fn non_finite_gate_parameters_are_refused_by_every_engine() {
    use approxdd::circuit::CircuitError::NonFinite;
    let mut nan = Circuit::new(2, "nan");
    nan.h(0).rx(f64::NAN, 1).cx(0, 1);
    let mut inf = Circuit::new(1, "inf");
    inf.h(0).rz(f64::INFINITY, 0);
    // The simulator, exact and fidelity-driven.
    assert!(matches!(
        Simulator::builder().build().run(&nan),
        Err(SimError::Circuit(NonFinite { op_index: 1 }))
    ));
    let fidelity = || Simulator::builder().strategy(Strategy::fidelity_driven(0.5, 0.9));
    assert!(matches!(
        fidelity().build().run(&inf),
        Err(SimError::Circuit(NonFinite { op_index: 1 }))
    ));
}

#[test]
fn engines_agree_on_amplitudes_and_fidelity() {
    let mut dd = Simulator::builder().seed(9).build();
    for circuit in workloads() {
        let a = amplitudes(&mut dd, &circuit).expect("dd");
        let b = dense_amplitudes(&circuit);
        let mut ip = Cplx::ZERO;
        for (x, y) in a.iter().zip(&b) {
            assert!(
                (*x - *y).mag() < 1e-9,
                "{}: amplitude mismatch {x} vs {y}",
                circuit.name()
            );
            ip += x.conj() * *y;
        }
        let fidelity = ip.mag2();
        assert!(
            (fidelity - 1.0).abs() < 1e-9,
            "{}: cross-engine fidelity {fidelity}",
            circuit.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random Clifford circuits up to 10 qubits: `2^{-k/2}` amplitudes
    // with phases, which the DD engine must reproduce elementwise
    // against the dense statevector baseline.
    #[test]
    fn dd_matches_statevector_on_random_cliffords(
        n in 2usize..11,
        depth in 1usize..9,
        seed in 0u64..1000
    ) {
        let circuit = generators::random_clifford(n, depth, seed);
        let mut dd = Simulator::builder().seed(seed).build();
        let a = amplitudes(&mut dd, &circuit).expect("dd");
        let b = dense_amplitudes(&circuit);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!((*x - *y).mag() < 1e-9,
                "{}: basis {i}: dd {x} vs sv {y}", circuit.name());
        }
    }
}

// ---------------------------------------------------------------------
// BackendPool contract suite
// ---------------------------------------------------------------------

#[test]
fn pool_matches_single_threaded_backend() {
    // The pool is a faster way to run the same engine: its per-job
    // statistics must equal a fresh single-threaded simulator's.
    let circuit = generators::supremacy(2, 3, 12, 2);
    let pool = Simulator::builder().seed(7).workers(3).build_pool();
    let pooled = pool
        .run_jobs(vec![
            PoolJob::new(circuit.clone()).policy(Strategy::fidelity_driven(0.6, 0.9))
        ])
        .pop()
        .unwrap()
        .expect("pool job");

    let mut serial = Simulator::builder()
        .strategy(Strategy::fidelity_driven(0.6, 0.9))
        .seed(7)
        .build();
    let run = serial.run(&circuit).expect("serial");
    assert_eq!(pooled.stats.gates_applied, run.stats.gates_applied);
    assert_eq!(pooled.stats.peak_size, run.stats.max_dd_size);
    assert_eq!(pooled.stats.approx_rounds, run.stats.approx_rounds);
    assert_eq!(
        pooled.stats.fidelity.to_bits(),
        run.stats.fidelity.to_bits()
    );
    assert_eq!(pooled.stats.nodes_removed, run.stats.nodes_removed);
    serial.release(&run);
}

#[test]
fn pool_runs_empty_batches_and_batches_larger_than_the_pool() {
    let pool = Simulator::builder().workers(2).build_pool();
    assert!(pool.run_batch(&[]).expect("empty").is_empty());

    // 9 jobs over 2 workers: everything completes, in input order.
    let circuits: Vec<Circuit> = (0..9).map(|n| generators::ghz(3 + n)).collect();
    let outcomes = pool.run_batch(&circuits).expect("oversized batch");
    assert_eq!(outcomes.len(), 9);
    for (outcome, circuit) in outcomes.iter().zip(&circuits) {
        assert_eq!(outcome.name, circuit.name());
        assert_eq!(outcome.n_qubits, circuit.n_qubits());
    }
    let stats = pool.stats();
    assert_eq!(stats.jobs_completed(), 9);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn poisoned_job_neither_deadlocks_nor_loses_neighbours() {
    let pool = Simulator::builder().seed(5).workers(2).build_pool();
    let mut jobs: Vec<PoolJob> = (0..6)
        .map(|seed| PoolJob::new(generators::supremacy(2, 2, 8, seed)))
        .collect();
    // Job 2 is poisoned: an invalid strategy fails admission.
    jobs[2] = PoolJob::new(generators::ghz(4)).policy(Strategy::FidelityDriven {
        final_fidelity: 2.0,
        round_fidelity: 0.9,
    });
    let results = pool.run_jobs(jobs);
    assert_eq!(results.len(), 6);
    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            assert!(
                matches!(result, Err(ExecError::Sim(_))),
                "job 2 must fail loudly: {result:?}"
            );
        } else {
            assert!(result.is_ok(), "job {i} must survive the poisoned job");
        }
    }
    // The queue is intact: the pool keeps serving work afterwards.
    let counts = pool
        .sample_counts(&generators::ghz(5), 300)
        .expect("pool usable after poison");
    assert_eq!(counts.values().sum::<usize>(), 300);
    // run_batch's fail-fast view surfaces errors instead of hanging: a
    // pool whose template strategy is invalid fails every job loudly.
    let bad_pool = Simulator::builder()
        .strategy(Strategy::fidelity_driven(2.0, 0.9))
        .workers(2)
        .build_pool();
    assert!(matches!(
        bad_pool.run_batch(&[generators::ghz(3)]),
        Err(ExecError::Sim(_))
    ));
}

/// The speed acceptance criterion: a 4-worker pool finishes a
/// 16-circuit batch in ≤ 0.6× the 1-worker wall time. Needs release
/// optimization and ≥ 4 real cores, so it is ignored by default; run
/// it explicitly with `cargo test --release -- --ignored pool_speedup`.
#[test]
#[ignore = "timing assertion: needs --release and a multi-core machine"]
fn pool_speedup_on_smoke_workload() {
    let circuits: Vec<Circuit> = (0..16)
        .map(|seed| generators::supremacy(4, 4, 8, seed))
        .collect();
    let template = || Simulator::builder().strategy(Strategy::memory_driven_table1(1 << 11, 0.97));
    let walltime = |workers| {
        let pool = template().workers(workers).build_pool();
        let start = std::time::Instant::now();
        pool.run_batch(&circuits).expect("batch");
        start.elapsed()
    };
    let (serial, parallel) = (walltime(1), walltime(4));
    let ratio = parallel.as_secs_f64() / serial.as_secs_f64();
    assert!(
        ratio <= 0.6,
        "4 workers took {ratio:.3}x the 1-worker wall time \
         ({parallel:?} vs {serial:?}) — expected <= 0.6x"
    );
}

#[test]
fn approximating_backend_reports_honest_fidelity_vs_exact_engine() {
    // The comparative shape of the paper: an approximate DD run scored
    // against the exact dense baseline.
    let circuit = generators::supremacy(2, 3, 12, 7);
    let mut approx = Simulator::builder()
        .strategy(Strategy::fidelity_driven(0.6, 0.9))
        .seed(1)
        .build();
    let run = approx.run(&circuit).expect("approx");
    let reported = run.stats.fidelity;
    assert!(run.stats.approx_rounds > 0, "approximation must engage");
    let approx_amps = approx.amplitudes(&run).expect("amps");
    approx.release(&run);

    let exact_amps = dense_amplitudes(&circuit);
    let mut ip = Cplx::ZERO;
    for (e, a) in exact_amps.iter().zip(&approx_amps) {
        ip += e.conj() * *a;
    }
    let measured = ip.mag2();
    assert!(reported >= 0.6 - 1e-9);
    assert!(
        (measured - reported).abs() < 0.05,
        "reported {reported} vs measured {measured}"
    );
}
