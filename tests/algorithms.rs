//! Integration: algorithm-level correctness of the simulator on phase
//! estimation and Deutsch–Jozsa, and XEB-based fidelity estimation of
//! approximate supremacy sampling (the measurement-side view of the
//! paper's accuracy story).

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};
use approxdd::statevector::{xeb, State};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn phase_estimation_recovers_the_phase() {
    let n = 7;
    let theta = 0.3218 * std::f64::consts::TAU; // phase fraction 0.3218
    let circuit = generators::phase_estimation(n, theta);
    let mut sim = Simulator::builder().strategy(Strategy::Exact).build();
    let run = sim.run(&circuit).expect("qpe run");

    let mut rng = StdRng::seed_from_u64(17);
    let mut hits = 0;
    let shots = 200;
    let want = (0.3218 * f64::from(1u32 << n)).round() as u64;
    for _ in 0..shots {
        let outcome = sim.sample(&run, &mut rng);
        let counting = outcome >> 1; // qubit 0 is the eigenstate target
        if counting.abs_diff(want) <= 1 {
            hits += 1;
        }
    }
    assert!(
        hits as f64 / shots as f64 > 0.6,
        "phase peak too weak: {hits}/{shots} near {want}"
    );
}

#[test]
fn phase_estimation_survives_approximation() {
    let n = 7;
    let theta = 0.25 * std::f64::consts::TAU; // exactly representable phase
    let circuit = generators::phase_estimation(n, theta);
    let mut sim = Simulator::builder()
        .strategy(Strategy::fidelity_driven(0.5, 0.9))
        .build();
    let run = sim.run(&circuit).expect("approx qpe");
    let mut rng = StdRng::seed_from_u64(23);
    let want = 1u64 << (n - 2); // 0.25 * 2^n
    let mut hits = 0;
    for _ in 0..100 {
        let outcome = sim.sample(&run, &mut rng) >> 1;
        if outcome == want {
            hits += 1;
        }
    }
    assert!(hits > 50, "approximate QPE peak: {hits}/100");
}

#[test]
fn deutsch_jozsa_distinguishes_constant_from_balanced() {
    let n = 8;
    let mut sim = Simulator::builder().strategy(Strategy::Exact).build();

    let constant = sim
        .run(&generators::deutsch_jozsa(n, None))
        .expect("constant run");
    assert!(
        (sim.package().probability(constant.state(), 0) - 1.0).abs() < 1e-9,
        "constant oracle must yield all zeros"
    );

    let balanced = sim
        .run(&generators::deutsch_jozsa(n, Some(0b1011_0110)))
        .expect("balanced run");
    assert!(
        sim.package().probability(balanced.state(), 0) < 1e-9,
        "balanced oracle must never yield all zeros"
    );
}

#[test]
fn shor_counting_register_peaks_at_multiples_of_period() {
    // shor_15_7: order r = 4, counting register = 8 qubits (qubits
    // 4..12). The marginal distribution over the counting register must
    // concentrate on multiples of 2^8 / r = 64.
    let circuit = approxdd::shor::shor_circuit(15, 7).expect("circuit");
    let mut sim = Simulator::builder().strategy(Strategy::Exact).build();
    let run = sim.run(&circuit).expect("run");
    let counting: Vec<usize> = (4..12).collect();
    let dist = sim
        .package()
        .marginal_distribution(run.state(), &counting)
        .expect("marginal");
    let peak_mass: f64 = [0usize, 64, 128, 192].iter().map(|&i| dist[i]).sum();
    assert!(
        peak_mass > 0.99,
        "mass on multiples of 64: {peak_mass} (dist sums to {})",
        dist.iter().sum::<f64>()
    );
    // Each peak carries ~1/4.
    for &i in &[0usize, 64, 128, 192] {
        assert!((dist[i] - 0.25).abs() < 0.01, "peak {i}: {}", dist[i]);
    }
}

#[test]
fn cuccaro_adder_adds_on_the_dd_simulator() {
    let n = 4;
    let circuit = generators::cuccaro_adder(n);
    let mut sim = Simulator::builder().strategy(Strategy::Exact).build();
    for (a, b) in [(0u64, 0u64), (3, 5), (9, 9), (15, 1), (7, 12), (15, 15)] {
        // Input layout: ancilla 0, a in bits 1..=n, b in bits n+1..=2n.
        let input = (a << 1) | (b << (1 + n));
        let p = sim.package_mut();
        let init = p.basis_state(2 * n + 2, input);
        let run = sim.run_from(&circuit, init).expect("adder run");
        let sum = a + b;
        let want = (a << 1) | ((sum & 0xF) << (1 + n)) | ((sum >> n) << (2 * n + 1));
        let prob = sim.package().probability(run.state(), want);
        assert!(
            (prob - 1.0).abs() < 1e-9,
            "{a}+{b}: expected output {want:#012b}, p={prob}"
        );
    }
}

#[test]
fn quantum_volume_matches_dense_baseline() {
    let circuit = generators::quantum_volume(5, 3, 2);
    let mut sim = Simulator::builder().strategy(Strategy::Exact).build();
    let run = sim.run(&circuit).expect("qv run");
    let dd = sim.amplitudes(&run).expect("amps");

    let mut sv = State::zero(5);
    sv.run(&circuit).expect("dense run");
    for (i, (x, y)) in dd.iter().zip(sv.amplitudes()).enumerate() {
        assert!((*x - *y).mag() < 1e-9, "amplitude {i}: {x} vs {y}");
    }
}

#[test]
fn quantum_volume_under_approximation_keeps_unit_norm() {
    let circuit = generators::quantum_volume(8, 5, 4);
    let mut sim = Simulator::builder()
        .strategy(Strategy::fidelity_driven(0.5, 0.9))
        .build();
    let run = sim.run(&circuit).expect("approx qv");
    assert!(run.stats.fidelity >= 0.5 - 1e-9);
    let amps = sim.amplitudes(&run).expect("amps");
    let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
    assert!((norm - 1.0).abs() < 1e-9);
}

#[test]
fn xeb_of_approximate_supremacy_sampling_tracks_fidelity() {
    // Sample from an approximately-simulated supremacy circuit and
    // score the samples with XEB against the exact distribution: the
    // statistic must sit well below the ideal value but well above
    // uniform noise, in the vicinity of the reported state fidelity.
    let circuit = generators::supremacy(2, 5, 12, 3);

    let mut exact_sv = State::zero(10);
    exact_sv.run(&circuit).expect("exact dense run");
    let d = 1024.0;
    let ideal: f64 = d * exact_sv
        .amplitudes()
        .iter()
        .map(|a| a.mag2().powi(2))
        .sum::<f64>()
        - 1.0;

    let mut sim = Simulator::builder()
        .strategy(Strategy::fidelity_driven(0.4, 0.85))
        .build();
    let run = sim.run(&circuit).expect("approx run");
    let f = run.stats.fidelity;
    assert!(f < 0.999, "approximation must have engaged");

    let mut rng = StdRng::seed_from_u64(5);
    let samples: Vec<u64> = (0..8000).map(|_| sim.sample(&run, &mut rng)).collect();
    let score = xeb::xeb_against_state(&exact_sv, &samples);

    assert!(score > 0.1 * ideal, "score {score} vs ideal {ideal}");
    assert!(score < ideal * 1.1, "score {score} vs ideal {ideal}");
}
