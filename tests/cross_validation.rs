//! Integration: the DD simulator must agree exactly with the dense
//! state-vector baseline on every workload family, and approximation
//! must degrade gracefully with measurable fidelity. The DD side runs
//! through `AnyBackend`, the dense side is
//! `approxdd::statevector::run_circuit`, called directly.

use approxdd::backend::BuildBackend;
use approxdd::circuit::{generators, Circuit};
use approxdd::complex::Cplx;
use approxdd::sim::{Simulator, SimulatorBuilder, Strategy};

/// Final amplitudes of `circuit` on the dense exact baseline.
fn dense_amplitudes(circuit: &Circuit) -> Vec<Cplx> {
    approxdd::statevector::run_circuit(circuit)
        .unwrap_or_else(|e| panic!("dense run of {}: {e}", circuit.name()))
        .amplitudes()
        .to_vec()
}

fn assert_same_state(circuit: &Circuit, builder: SimulatorBuilder) {
    let mut dd = builder.strategy(Strategy::Exact).build_backend();
    let run = dd
        .run(circuit)
        .unwrap_or_else(|e| panic!("dd run of {}: {e}", circuit.name()));
    let a = dd.amplitudes(&run).expect("dd amplitudes");
    dd.release(run);
    let b = dense_amplitudes(circuit);
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
        .strategy(Strategy::fidelity_driven(0.5, 0.9))
        .build_backend();
    let run = dd.run(&circuit).expect("approx run");
    let reported = run.stats.fidelity;
    let approx = dd.amplitudes(&run).expect("amps");
    dd.release(run);
    let exact = dense_amplitudes(&circuit);
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
    let mut dd = Simulator::builder()
        .strategy(Strategy::memory_driven(64, 0.95))
        .build_backend();
    let run = dd.run(&circuit).expect("run");
    let amps = dd.amplitudes(&run).expect("amps");
    let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
    assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    assert!(run.stats.approx_rounds > 0);
    dd.release(run);
}
