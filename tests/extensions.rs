//! Integration of the extension features around the paper's core:
//! marginal queries, DOT export, and memory-driven truncation rounds.

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

#[test]
fn marginals_match_sampling_histogram() {
    use rand::SeedableRng;
    let circuit = generators::supremacy(2, 3, 8, 6);
    let mut sim = Simulator::builder().exact().build();
    let run = sim.run(&circuit).expect("run");
    let dist = sim
        .package()
        .marginal_distribution(run.state(), &[0, 3])
        .expect("marginal");
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let shots = 20_000usize;
    let mut hist = [0usize; 4];
    for _ in 0..shots {
        let s = sim.sample(&run, &mut rng);
        let idx = ((s & 1) | ((s >> 3) & 1) << 1) as usize;
        hist[idx] += 1;
    }
    for (i, &want) in dist.iter().enumerate() {
        let got = hist[i] as f64 / shots as f64;
        assert!((want - got).abs() < 0.02, "outcome {i}: {want} vs {got}");
    }
}

#[test]
fn memory_driven_rounds_engage_and_keep_unit_norm() {
    // The memory-driven configuration must respect the threshold
    // mechanics and produce a valid state.
    let circuit = generators::supremacy(3, 3, 10, 2);
    let mut sim = Simulator::builder()
        .strategy(Strategy::memory_driven_table1(64, 0.95))
        .build();
    let run = sim.run(&circuit).expect("run");
    assert!(run.stats.approx_rounds > 0, "rounds must engage");
    assert!(run.stats.fidelity > 0.0 && run.stats.fidelity <= 1.0);
    let amps = sim.amplitudes(&run).expect("amps");
    let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
    assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
}

#[test]
fn dot_export_renders_simulated_states() {
    let mut sim = Simulator::builder().exact().build();
    let run = sim.run(&generators::w_state(4)).expect("run");
    let dot = sim.package().to_dot(run.state());
    assert!(dot.contains("digraph"));
    assert!(dot.contains("q3"));
    // W state: each level has two nodes at most; DOT must have one line
    // per edge — sanity: more than 8 lines.
    assert!(dot.lines().count() > 8);
}
