//! Integration of the extension features around the paper's core:
//! marginal queries, DOT export, and the node- vs edge-level
//! truncation primitives.

use approxdd::circuit::generators;
use approxdd::sim::{ApproxPrimitive, Simulator, Strategy};

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
fn edge_primitive_needs_no_more_rounds_than_node_primitive() {
    // Both primitives, same memory-driven configuration: both must
    // respect the threshold mechanics and produce valid states.
    let circuit = generators::supremacy(3, 3, 10, 2);
    for primitive in [ApproxPrimitive::Nodes, ApproxPrimitive::Edges] {
        let mut sim = Simulator::builder()
            .strategy(Strategy::memory_driven_table1(64, 0.95))
            .primitive(primitive)
            .build();
        let run = sim.run(&circuit).expect("run");
        assert!(run.stats.approx_rounds > 0, "{primitive:?} must engage");
        assert!(run.stats.fidelity > 0.0 && run.stats.fidelity <= 1.0);
        let amps = sim.amplitudes(&run).expect("amps");
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "{primitive:?}: norm {norm}");
    }
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
