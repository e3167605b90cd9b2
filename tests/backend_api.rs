//! The unified `Backend` API, exercised generically: one
//! `check_backend::<B>()` suite runs the standard workloads (GHZ, QFT,
//! one supremacy instance) on any engine and validates its whole
//! lifecycle — prepare, run, batched runs, sampling, histograms,
//! amplitudes, probabilities, expectations, release — then the engines
//! are compared against each other for amplitude and fidelity
//! agreement.
//!
//! The second half is the `BackendPool` contract suite: batch results
//! and sharded sampling must be byte-identical across worker counts,
//! empty and oversized batches must behave, and a poisoned job must
//! neither deadlock the queue nor disturb its neighbours' results.

use approxdd::backend::{
    amplitudes_of, AnyBackend, Backend, BuildBackend, ExecError, StatevectorBackend,
};
use approxdd::circuit::{generators, Circuit};
use approxdd::complex::Cplx;
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::{ApproxPolicy, Engine, PolicyAction, PolicyCtx, SimError, Simulator, Strategy};
use proptest::prelude::*;

fn workloads() -> Vec<Circuit> {
    vec![
        generators::ghz(8),
        generators::qft(6),
        generators::supremacy(2, 3, 10, 5),
    ]
}

/// Clifford-only workloads for the tableau engine (which rejects
/// anything else at prepare time).
fn clifford_workloads() -> Vec<Circuit> {
    vec![
        generators::ghz(8),
        generators::random_clifford(6, 8, 3),
        generators::random_clifford(10, 5, 4),
    ]
}

/// The generic per-engine contract: every workload runs through the
/// full lifecycle with self-consistent results.
fn check_backend<B: Backend>(backend: &mut B) {
    check_backend_on(backend, workloads());
}

fn check_backend_on<B: Backend>(backend: &mut B, circuits: Vec<Circuit>) {
    let exes: Vec<_> = circuits
        .iter()
        .map(|c| {
            backend
                .prepare(c)
                .unwrap_or_else(|e| panic!("{}: prepare {}: {e}", backend.name(), c.name()))
        })
        .collect();

    // Batched and single runs must describe the same states.
    let outcomes = backend.run_batch(&exes).expect("batch");
    assert_eq!(outcomes.len(), circuits.len());
    for (outcome, circuit) in outcomes.iter().zip(&circuits) {
        assert_eq!(outcome.n_qubits(), circuit.n_qubits());
        assert_eq!(
            outcome.stats.gates_applied,
            circuit.gate_count(),
            "{}: {}",
            backend.name(),
            circuit.name()
        );
        assert!((outcome.stats.fidelity - 1.0).abs() < 1e-12, "exact run");

        // Amplitudes are a unit vector; probabilities match them.
        let amps = backend.amplitudes(outcome).expect("amplitudes");
        assert_eq!(amps.len(), 1 << circuit.n_qubits());
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
        for idx in [0u64, (1 << circuit.n_qubits()) - 1] {
            let p = backend.probability(outcome, idx).expect("probability");
            assert!((p - amps[idx as usize].mag2()).abs() < 1e-12);
        }

        // Expectation of the identity observable is 1.
        let one = backend.expectation(outcome, &|_| 1.0).expect("expectation");
        assert!((one - 1.0).abs() < 1e-9);

        // Histograms agree with per-shot sampling under the same seed.
        backend.reseed(1234);
        let counts = backend.sample_counts(outcome, 200);
        assert_eq!(counts.values().sum::<usize>(), 200);
        backend.reseed(1234);
        let mut replay = std::collections::HashMap::new();
        for _ in 0..200 {
            *replay.entry(backend.sample(outcome)).or_insert(0) += 1;
        }
        assert_eq!(
            counts,
            replay,
            "{}: sampling not deterministic",
            backend.name()
        );
    }
    for outcome in outcomes {
        backend.release(outcome);
    }

    // Out-of-range queries fail loudly rather than lying.
    let exe = backend.prepare(&generators::ghz(3)).expect("prepare");
    let run = backend.run(&exe).expect("run");
    assert!(matches!(
        backend.probability(&run, 1 << 3),
        Err(ExecError::BasisOutOfRange { .. })
    ));
    backend.release(run);
}

#[test]
fn dd_backend_satisfies_the_contract() {
    check_backend(&mut Simulator::builder().seed(5).build_backend());
}

#[test]
fn statevector_backend_satisfies_the_contract() {
    check_backend(&mut StatevectorBackend::with_seed(5));
}

#[test]
fn stabilizer_backend_satisfies_the_contract() {
    check_backend_on(
        &mut Simulator::builder()
            .seed(5)
            .engine(Engine::Stabilizer)
            .build_backend(),
        clifford_workloads(),
    );
}

#[test]
fn hybrid_backend_satisfies_the_contract() {
    // The full workloads: GHZ is pure Clifford (tableau path), QFT and
    // supremacy have non-Clifford tails (synthesis + DD path).
    check_backend(
        &mut Simulator::builder()
            .seed(5)
            .engine(Engine::Hybrid)
            .build_backend(),
    );
}

#[test]
fn engine_knob_backends_satisfy_the_contract() {
    // `build_backend()` is the one constructor, and it honours the
    // builder's engine knob: every engine it selects satisfies the
    // contract.
    for (engine, name) in [
        (Engine::Dd, "dd"),
        (Engine::Stabilizer, "stabilizer"),
        (Engine::Hybrid, "hybrid"),
    ] {
        let backend = Simulator::builder().engine(engine).build_backend();
        assert_eq!(backend.name(), name, "{engine:?}");
    }
    let mut hybrid = Simulator::builder()
        .seed(5)
        .engine(Engine::Hybrid)
        .build_backend();
    check_backend(&mut hybrid);
    let mut stab = Simulator::builder()
        .seed(5)
        .engine(Engine::Stabilizer)
        .build_backend();
    check_backend_on(&mut stab, clifford_workloads());
    let mut dd = Simulator::builder()
        .seed(5)
        .engine(Engine::Dd)
        .build_backend();
    check_backend(&mut dd);

    // One handle type for every engine: a query that needs a DD state
    // and is handed a tableau is a typed error, not a panic.
    let ghz = generators::ghz(4);
    let on_tableau = approxdd::backend::run_circuit(&mut hybrid, &ghz).expect("hybrid");
    let on_dd = approxdd::backend::run_circuit(&mut dd, &ghz).expect("dd");
    assert!(matches!(
        hybrid.fidelity_between(&on_tableau, &on_tableau),
        Err(ExecError::Unsupported {
            backend: "hybrid",
            ..
        })
    ));
    assert!(matches!(
        dd.fidelity_between(&on_dd, &on_tableau),
        Err(ExecError::Unsupported { backend: "dd", .. })
    ));
    let same = dd
        .fidelity_between(&on_dd, &on_dd)
        .expect("two DD outcomes");
    assert!((same - 1.0).abs() < 1e-12);
    hybrid.release(on_tableau);
    dd.release(on_dd);
}

#[test]
fn a_register_no_engine_can_index_is_refused_at_prepare() {
    // 64 qubits: one past `u64` basis indexing. Every engine refuses it
    // where the circuit is admitted, with its own typed error …
    let wide = generators::ghz(64);
    for engine in [Engine::Dd, Engine::Hybrid] {
        let backend = Simulator::builder().engine(engine).build_backend();
        assert!(
            matches!(
                backend.prepare(&wide),
                Err(ExecError::Dd(approxdd::dd::DdError::TooManyQubits {
                    n_qubits: 64,
                    max: 63
                }))
            ),
            "{engine:?}"
        );
    }
    // … the bare simulator does the same before it builds a state …
    assert!(matches!(
        Simulator::builder().build().run(&wide),
        Err(approxdd::sim::SimError::Dd(
            approxdd::dd::DdError::TooManyQubits { .. }
        ))
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
    assert_eq!(pool.stats().respawns, 0);
}

#[test]
fn stabilizer_rejects_non_clifford_and_wide_registers() {
    let backend = Simulator::builder()
        .engine(Engine::Stabilizer)
        .build_backend();
    assert!(matches!(
        backend.prepare(&generators::qft(4)),
        Err(ExecError::Stabilizer(_))
    ));
    assert!(matches!(
        backend.prepare(&generators::ghz(64)),
        Err(ExecError::Stabilizer(_))
    ));
}

#[test]
fn hybrid_reports_the_clifford_prefix() {
    let mut backend = Simulator::builder().engine(Engine::Hybrid).build_backend();

    // Pure Clifford: the outcome is a tableau, no DD stats at all.
    let ghz = generators::ghz(12);
    let exe = backend.prepare(&ghz).expect("prepare");
    let run = backend.run(&exe).expect("run");
    assert_eq!(run.stats.engine, "hybrid");
    assert_eq!(run.stats.clifford_prefix_len, ghz.gate_count());
    assert!(run.stats.dd.is_none(), "pure Clifford never touches DD");
    backend.release(run);

    // Clifford prefix then a T gate: the prefix length is exactly the
    // split point, DD stats cover the suffix.
    let mut mixed = Circuit::new(4, "mixed");
    mixed.h(0).cx(0, 1).s(2).cz(1, 3).t(0).h(3);
    let exe = backend.prepare(&mixed).expect("prepare");
    let run = backend.run(&exe).expect("run");
    assert_eq!(run.stats.clifford_prefix_len, 4);
    assert_eq!(run.stats.gates_applied, 6);
    assert!(run.stats.dd.is_some(), "suffix runs on the DD engine");
    backend.release(run);
}

#[test]
fn engines_agree_on_amplitudes_and_fidelity() {
    let mut dd = Simulator::builder().seed(9).build_backend();
    let mut sv = StatevectorBackend::with_seed(9);
    for circuit in workloads() {
        let a = amplitudes_of(&mut dd, &circuit).expect("dd");
        let b = amplitudes_of(&mut sv, &circuit).expect("sv");
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

    // Random Clifford circuits up to 10 qubits: the tableau engine's
    // amplitudes must agree with both the DD and the dense statevector
    // engine, elementwise and in probability.
    #[test]
    fn stabilizer_matches_dd_and_statevector_on_random_cliffords(
        n in 2usize..11,
        depth in 1usize..9,
        seed in 0u64..1000
    ) {
        let circuit = generators::random_clifford(n, depth, seed);
        let mut stab = Simulator::builder()
            .seed(seed)
            .engine(Engine::Stabilizer)
            .build_backend();
        let mut dd = Simulator::builder().seed(seed).build_backend();
        let mut sv = StatevectorBackend::with_seed(seed);
        let a = amplitudes_of(&mut stab, &circuit).expect("stabilizer");
        let b = amplitudes_of(&mut dd, &circuit).expect("dd");
        let c = amplitudes_of(&mut sv, &circuit).expect("sv");
        for (i, ((x, y), z)) in a.iter().zip(&b).zip(&c).enumerate() {
            prop_assert!((*x - *y).mag() < 1e-9,
                "{}: basis {i}: stabilizer {x} vs dd {y}", circuit.name());
            prop_assert!((*x - *z).mag() < 1e-9,
                "{}: basis {i}: stabilizer {x} vs sv {z}", circuit.name());
        }
    }

    // Hybrid dispatch is exact regardless of where the circuit's
    // Clifford prefix ends: a random Clifford prefix with a
    // non-Clifford tail matches the dense engine.
    #[test]
    fn hybrid_matches_statevector_on_clifford_prefixed_circuits(
        n in 2usize..9,
        depth in 1usize..7,
        seed in 0u64..1000
    ) {
        let mut circuit = generators::random_clifford(n, depth, seed);
        circuit.t(0).rz(0.7, n - 1).h(0);
        let mut hybrid = Simulator::builder()
            .seed(seed)
            .engine(Engine::Hybrid)
            .build_backend();
        let mut sv = StatevectorBackend::with_seed(seed);
        let a = amplitudes_of(&mut hybrid, &circuit).expect("hybrid");
        let b = amplitudes_of(&mut sv, &circuit).expect("sv");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!((*x - *y).mag() < 1e-9,
                "{}: basis {i}: hybrid {x} vs sv {y}", circuit.name());
        }
    }
}

#[test]
fn executables_are_portable_across_engines() {
    // Preparation is engine-agnostic: an executable prepared by one
    // backend runs on the other.
    let circuit = generators::w_state(6);
    let mut dd = Simulator::builder().build_backend();
    let mut sv = StatevectorBackend::new();
    let exe = dd.prepare(&circuit).expect("prepare on dd");
    let sv_run = sv.run(&exe).expect("run on sv");
    let dd_run = dd.run(&exe).expect("run on dd");
    let p_dd = dd.probability(&dd_run, 1).expect("dd p");
    let p_sv = sv.probability(&sv_run, 1).expect("sv p");
    assert!((p_dd - p_sv).abs() < 1e-12);
    assert!((p_dd - 1.0 / 6.0).abs() < 1e-9);
    dd.release(dd_run);
    sv.release(sv_run);
}

#[test]
fn a_failed_batch_releases_the_outcomes_it_produced() {
    /// Refuses 5-qubit circuits when a run begins.
    struct NoFiveQubits;
    impl ApproxPolicy for NoFiveQubits {
        fn name(&self) -> &str {
            "no-five-qubits"
        }
        fn begin(&mut self, circuit: &Circuit) -> Result<(), SimError> {
            if circuit.n_qubits() == 5 {
                return Err(SimError::InvalidStrategy {
                    reason: "five qubits",
                });
            }
            Ok(())
        }
        fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
            PolicyAction::Continue
        }
    }
    let build = || Simulator::builder().policy(|| NoFiveQubits).build_backend();
    let alive_after_gc = |backend: &mut AnyBackend| {
        let package = backend.sim_mut().package_mut();
        package.collect_garbage();
        package.stats().vnodes_alive
    };
    let mut dd = build();
    // Executables are engine-agnostic: the dense backend admits the
    // circuit the DD backend's policy refuses, so it fails only when
    // the batch reaches it — after the first run pinned its state.
    let batch = [
        dd.prepare(&generators::ghz(4)).expect("prepare on dd"),
        StatevectorBackend::new()
            .prepare(&generators::ghz(5))
            .expect("prepare on sv"),
    ];
    assert!(matches!(dd.run_batch(&batch), Err(ExecError::Sim(_))));
    assert_eq!(
        alive_after_gc(&mut dd),
        alive_after_gc(&mut build()),
        "the first run's state stays pinned after the batch failed"
    );
}

// ---------------------------------------------------------------------
// BackendPool contract suite
// ---------------------------------------------------------------------

/// A mixed batch that exercises exact runs, approximation and sampling.
fn pool_jobs() -> Vec<PoolJob> {
    let mut jobs: Vec<PoolJob> = (0..4)
        .map(|seed| PoolJob::new(generators::supremacy(2, 3, 12, seed)).shots(500))
        .collect();
    jobs.push(
        PoolJob::new(generators::supremacy(2, 3, 12, 9))
            .strategy(Strategy::fidelity_driven(0.6, 0.9))
            .shots(500),
    );
    jobs.push(PoolJob::new(generators::ghz(10)).shots(1000));
    jobs
}

#[test]
fn pool_results_are_identical_across_worker_counts() {
    // The determinism acceptance criterion: same root seed, any worker
    // count -> byte-identical outcomes (fingerprints cover every field
    // except wall-clock runtime) and byte-identical histograms.
    let fingerprints: Vec<Vec<u64>> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            let pool = Simulator::builder().seed(42).workers(workers).build_pool();
            pool.run_jobs(pool_jobs())
                .into_iter()
                .map(|r| r.expect("pool job").fingerprint())
                .collect()
        })
        .collect();
    assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 workers");
    assert_eq!(fingerprints[0], fingerprints[2], "1 vs 8 workers");

    let circuit = generators::supremacy(2, 3, 10, 3);
    let reference = Simulator::builder()
        .seed(42)
        .workers(1)
        .build_pool()
        .sample_counts(&circuit, 5000)
        .expect("counts");
    assert_eq!(reference.values().sum::<usize>(), 5000);
    for workers in [2usize, 8] {
        let counts = Simulator::builder()
            .seed(42)
            .workers(workers)
            .build_pool()
            .sample_counts(&circuit, 5000)
            .expect("counts");
        assert_eq!(reference, counts, "sample_counts with {workers} workers");
    }
}

#[test]
fn stabilizer_and_hybrid_pool_results_are_identical_across_worker_counts() {
    // The hybrid acceptance criterion: engine-knob pools fingerprint
    // byte-identically across 1/2/8 workers, for both pure-Clifford
    // batches on the tableau engine and mixed batches on hybrid
    // dispatch.
    // Both batches end with a 32-qubit random Clifford circuit, a
    // width the DD engine cannot reach.
    let stab_jobs = || -> Vec<PoolJob> {
        (0..4)
            .map(|seed| PoolJob::new(generators::random_clifford(8, 6, seed)).shots(500))
            .chain([PoolJob::new(generators::random_clifford(32, 16, 42)).shots(500)])
            .collect()
    };
    let hybrid_jobs = || -> Vec<PoolJob> {
        vec![
            PoolJob::new(generators::ghz(10)).shots(500),
            PoolJob::new(generators::random_clifford(8, 6, 1)).shots(500),
            PoolJob::new(generators::supremacy(2, 3, 10, 2)).shots(500),
            PoolJob::new(generators::qft(6)).shots(500),
            PoolJob::new(generators::random_clifford(32, 16, 42)).shots(500),
        ]
    };
    for (engine, jobs) in [
        (Engine::Stabilizer, stab_jobs as fn() -> Vec<PoolJob>),
        (Engine::Hybrid, hybrid_jobs as fn() -> Vec<PoolJob>),
    ] {
        let fingerprints: Vec<Vec<u64>> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let pool = Simulator::builder()
                    .engine(engine)
                    .seed(42)
                    .workers(workers)
                    .build_pool();
                pool.run_jobs(jobs())
                    .into_iter()
                    .map(|r| r.expect("pool job").fingerprint())
                    .collect()
            })
            .collect();
        assert_eq!(fingerprints[0], fingerprints[1], "{engine:?}: 1 vs 2");
        assert_eq!(fingerprints[0], fingerprints[2], "{engine:?}: 1 vs 8");
    }

    // Sharded sampling through the tableau engine is worker-count
    // invariant too.
    let circuit = generators::random_clifford(10, 6, 9);
    let reference = Simulator::builder()
        .engine(Engine::Stabilizer)
        .seed(42)
        .workers(1)
        .build_pool()
        .sample_counts(&circuit, 5000)
        .expect("counts");
    assert_eq!(reference.values().sum::<usize>(), 5000);
    for workers in [2usize, 8] {
        let counts = Simulator::builder()
            .engine(Engine::Stabilizer)
            .seed(42)
            .workers(workers)
            .build_pool()
            .sample_counts(&circuit, 5000)
            .expect("counts");
        assert_eq!(reference, counts, "stabilizer sharding, {workers} workers");
    }
}

#[test]
fn pool_matches_single_threaded_backend() {
    // The pool is a faster way to run the same engine: its per-job
    // statistics must equal a fresh single-threaded backend's.
    let circuit = generators::supremacy(2, 3, 12, 2);
    let pool = Simulator::builder().seed(7).workers(3).build_pool();
    let pooled = pool
        .run_jobs(vec![
            PoolJob::new(circuit.clone()).strategy(Strategy::fidelity_driven(0.6, 0.9))
        ])
        .pop()
        .unwrap()
        .expect("pool job");

    let mut serial = Simulator::builder()
        .fidelity_driven(0.6, 0.9)
        .seed(7)
        .build_backend();
    let run = approxdd::backend::run_circuit(&mut serial, &circuit).expect("serial");
    assert_eq!(pooled.stats.gates_applied, run.stats.gates_applied);
    assert_eq!(pooled.stats.peak_size, run.stats.peak_size);
    assert_eq!(pooled.stats.approx_rounds, run.stats.approx_rounds);
    assert_eq!(
        pooled.stats.fidelity.to_bits(),
        run.stats.fidelity.to_bits()
    );
    assert_eq!(pooled.stats.nodes_removed, run.stats.nodes_removed);
    serial.release(run);
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
    // Job 2 is poisoned: an invalid strategy fails preparation.
    jobs[2] = PoolJob::new(generators::ghz(4)).strategy(Strategy::FidelityDriven {
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
        .fidelity_driven(2.0, 0.9)
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
        let pool = approxdd::exec::BackendPool::with_workers(template(), workers);
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
    // The comparative shape of the paper as one generic flow: an
    // approximate DD run scored against the exact dense baseline.
    let circuit = generators::supremacy(2, 3, 12, 7);
    let mut approx = Simulator::builder()
        .fidelity_driven(0.6, 0.9)
        .seed(1)
        .build_backend();
    let run = approxdd::backend::run_circuit(&mut approx, &circuit).expect("approx");
    let reported = run.stats.fidelity;
    assert!(run.stats.approx_rounds > 0, "approximation must engage");
    let approx_amps = approx.amplitudes(&run).expect("amps");
    approx.release(run);

    let exact_amps = amplitudes_of(&mut StatevectorBackend::new(), &circuit).expect("exact");
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
