//! The sampler draws the Born distribution: χ² goodness of fit of
//! drawn histograms against the state's own probabilities, with fixed
//! seeds so every run reads the same statistics.
//!
//! Three samplers are checked: `Simulator::draw_counts` (one routing
//! pass over all shots), a multi-chunk `BackendPool::sample_counts`
//! (routed chunks merged), and both on a truncated approximate state,
//! whose reference is its own `Simulator::amplitudes`. Each check
//! fails a correct sampler with probability 10⁻³ for a random seed.

use std::collections::HashMap;
use std::sync::Arc;

use approxdd::circuit::{generators, Circuit};
use approxdd::exec::{BuildPool, SHOT_CHUNK};
use approxdd::sim::{Simulator, Strategy};

const SHOTS: usize = 100_000;

/// The 99.9th percentile of χ² with `dof` degrees of freedom
/// (Wilson–Hilferty).
fn chi2_limit(dof: f64) -> f64 {
    let z = 3.090_232;
    let h = 2.0 / (9.0 * dof);
    dof * (1.0 - h + z * h.sqrt()).powi(3)
}

/// Fails unless `counts` fits the distribution `probs` (normalized
/// here): no outcome outside the support, and χ² below the 99.9th
/// percentile, with outcomes expected fewer than 5 times pooled into
/// one bin.
fn assert_fits(what: &str, counts: &HashMap<u64, usize>, probs: &[f64]) {
    let shots: usize = counts.values().sum();
    assert_eq!(shots, SHOTS, "{what}: counts sum to the shots");
    let total: f64 = probs.iter().sum();
    for (&outcome, &count) in counts {
        let p = probs.get(outcome as usize).copied().unwrap_or(0.0);
        assert!(
            p > 0.0,
            "{what}: {count} shots on outcome {outcome} of probability 0"
        );
    }
    let (mut chi2, mut bins) = (0.0, 0);
    let (mut rest_want, mut rest_seen) = (0.0, 0);
    for (outcome, &p) in probs.iter().enumerate() {
        let want = p / total * shots as f64;
        let seen = counts.get(&(outcome as u64)).copied().unwrap_or(0);
        if want < 5.0 {
            rest_want += want;
            rest_seen += seen;
        } else {
            chi2 += (seen as f64 - want).powi(2) / want;
            bins += 1;
        }
    }
    if rest_want > 0.0 {
        chi2 += (rest_seen as f64 - rest_want).powi(2) / rest_want;
        bins += 1;
    }
    let limit = chi2_limit(f64::from(bins - 1));
    assert!(
        chi2 < limit,
        "{what}: χ² {chi2:.1} over {bins} bins, 99.9th percentile {limit:.1}"
    );
}

fn dense_probabilities(circuit: &Circuit) -> Vec<f64> {
    let state = approxdd::statevector::run_circuit(circuit).expect("dense run");
    state.amplitudes().iter().map(|a| a.mag2()).collect()
}

/// An exact run's draws, direct and pooled, against the dense
/// baseline's probabilities.
#[test]
fn exact_states_sample_the_born_distribution() {
    const {
        assert!(
            SHOTS > 2 * SHOT_CHUNK,
            "the pooled draw spans several chunks"
        )
    };
    for seed in [5, 6] {
        let circuit = generators::random_circuit(8, 8, seed);
        let probs = dense_probabilities(&circuit);

        let mut sim = Simulator::builder().seed(seed).build();
        let run = sim.run(&circuit).expect("run");
        let runs = sim.draw_counts(&run, SHOTS);
        assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "ascending runs");
        assert!(runs.iter().all(|&(_, count)| count > 0), "positive counts");
        let direct: HashMap<u64, usize> = runs.into_iter().collect();
        assert_fits(&format!("{} direct", circuit.name()), &direct, &probs);

        let pool = Simulator::builder().seed(seed).workers(2).build_pool();
        let pooled = pool.sample_counts(&circuit, SHOTS).expect("pooled");
        assert_fits(&format!("{} pooled", circuit.name()), &pooled, &probs);
    }
}

/// A truncated state's draws against its own amplitudes: the routing
/// pass must follow what truncation left, not the exact state.
#[test]
fn a_truncated_state_samples_its_own_distribution() {
    let circuit = generators::random_circuit(8, 12, 5);
    let strategy = Strategy::fidelity_driven(0.6, 0.9);
    let mut sim = Simulator::builder().strategy(strategy).seed(8).build();
    let run = sim.run(&circuit).expect("approximate run");
    assert!(run.stats.nodes_removed > 0, "the run truncated");
    let probs: Vec<f64> = sim
        .amplitudes(&run)
        .expect("amplitudes")
        .iter()
        .map(|a| a.mag2())
        .collect();
    // Far from the exact distribution, so that draws which followed
    // the exact state would fail the χ² below.
    let exact = dense_probabilities(&circuit);
    let tv: f64 = probs
        .iter()
        .zip(&exact)
        .map(|(p, q)| (p - q).abs())
        .sum::<f64>()
        / 2.0;
    assert!(tv > 0.05, "total variation distance {tv}");
    let direct: HashMap<u64, usize> = sim.draw_counts(&run, SHOTS).into_iter().collect();
    assert_fits("truncated direct", &direct, &probs);

    let pool = Simulator::builder().seed(8).workers(2).build_pool();
    let pooled = pool
        .sample_counts_streamed(&circuit, Some(Arc::new(strategy)), None, SHOTS, &mut |_| {})
        .expect("pooled");
    assert_fits("truncated pooled", &pooled, &probs);
}
