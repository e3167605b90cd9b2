//! Integration: the DD simulator must agree exactly with the dense
//! state-vector baseline on every workload family, and approximation
//! must degrade gracefully with measurable fidelity. Both engines are
//! driven through the unified `Backend` trait, so an equivalence check
//! is one generic function.

use approxdd::backend::{amplitudes_of, Backend, BuildBackend, StatevectorBackend};
use approxdd::circuit::{generators, Circuit};
use approxdd::complex::Cplx;
use approxdd::sim::{Simulator, SimulatorBuilder};

/// The generic half of every check: final amplitudes of `circuit` on
/// any backend.
fn backend_amplitudes<B: Backend>(backend: &mut B, circuit: &Circuit) -> Vec<Cplx> {
    amplitudes_of(backend, circuit)
        .unwrap_or_else(|e| panic!("{} run of {}: {e}", backend.name(), circuit.name()))
}

fn assert_same_state(circuit: &Circuit, builder: SimulatorBuilder) {
    let mut dd = builder.exact().build_backend();
    let mut sv = StatevectorBackend::new();
    let a = backend_amplitudes(&mut dd, circuit);
    let b = backend_amplitudes(&mut sv, circuit);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert!(
            (*x - *y).mag() < 1e-9,
            "{}: amplitude {i}: dd={x} sv={y}",
            circuit.name()
        );
    }
}

#[test]
fn all_families_match_dense_baseline() {
    let mut circuits = vec![
        generators::ghz(8),
        generators::w_state(7),
        generators::qft(7),
        generators::inverse_qft(6, true),
        generators::grover(6, 0b110101, None),
        generators::bernstein_vazirani(9, 0b101100111),
        generators::supremacy(2, 4, 10, 11),
    ];
    circuits.extend((0..3).map(|seed| generators::random_circuit(7, 12, seed)));
    // The default `add` table, and a 4-slot one that evicts almost
    // every entry: a lossy table only recomputes, never changes a bit
    // that matters here.
    for circuit in &circuits {
        assert_same_state(circuit, Simulator::builder());
        assert_same_state(circuit, Simulator::builder().compute_cache_bits(2));
    }
}

#[test]
fn shor_circuit_matches_dense_baseline() {
    let circuit = approxdd::shor::shor_circuit(15, 7).expect("shor_15_7");
    assert_same_state(&circuit, Simulator::builder());
}

#[test]
fn approximate_fidelity_is_honest_against_dense_reference() {
    // Run approximately on DDs, exactly on the dense baseline, and
    // check the *reported* fidelity (product of round fidelities)
    // equals the true overlap — Lemma 1 end-to-end.
    let circuit = generators::supremacy(3, 3, 12, 4);
    let mut dd = Simulator::builder()
        .fidelity_driven(0.5, 0.9)
        .build_backend();
    let run = approxdd::backend::run_circuit(&mut dd, &circuit).expect("approx run");
    let reported = run.stats.fidelity;
    let approx = dd.amplitudes(&run).expect("amps");
    dd.release(run);
    let exact = backend_amplitudes(&mut StatevectorBackend::new(), &circuit);
    let mut ip = Cplx::ZERO;
    for (e, a) in exact.iter().zip(&approx) {
        ip += e.conj() * *a;
    }
    let true_fidelity = ip.mag2();
    // The product of per-round kept norms is Lemma 1's identity under
    // aligned truncation sets; in a live run the sets are chosen on the
    // already-approximated state, so the product is an estimate. It must
    // track the true overlap within a few percent.
    assert!(
        (true_fidelity - reported).abs() < 0.05,
        "reported {reported} vs true {true_fidelity}"
    );
    assert!(reported >= 0.5 - 1e-9);
}

#[test]
fn memory_driven_state_stays_normalized() {
    let circuit = generators::supremacy(3, 3, 14, 2);
    let mut dd = Simulator::builder().memory_driven(64, 0.95).build_backend();
    let run = approxdd::backend::run_circuit(&mut dd, &circuit).expect("run");
    let amps = dd.amplitudes(&run).expect("amps");
    let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
    assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    assert!(run.stats.approx_rounds > 0);
    dd.release(run);
}
