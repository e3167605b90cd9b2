//! Linear cross-entropy benchmarking (XEB) — the fidelity estimator
//! used for the quantum-supremacy experiments the paper benchmarks
//! against (\[4\], \[14\]): given the *ideal* output probabilities of a
//! circuit and a set of measured bitstrings, the linear XEB statistic
//!
//! ```text
//! F_XEB = D · mean(p_ideal(x_i)) − 1,     D = 2^n
//! ```
//!
//! estimates the depolarizing fidelity of the device (or, here, of an
//! approximate simulation) producing the samples: 1 for perfect
//! sampling from a Porter–Thomas distribution, 0 for uniform noise.

use crate::State;

/// Linear XEB statistic from ideal probabilities and sampled outcomes.
///
/// # Panics
///
/// Panics if `ideal_probs` is empty or `samples` is empty, or if a
/// sample indexes outside the distribution.
#[must_use]
pub(crate) fn linear_xeb(ideal_probs: &[f64], samples: &[u64]) -> f64 {
    assert!(!ideal_probs.is_empty() && !samples.is_empty());
    let d = ideal_probs.len() as f64;
    let mean: f64 = samples
        .iter()
        .map(|&s| ideal_probs[usize::try_from(s).expect("sample fits usize")])
        .sum::<f64>()
        / samples.len() as f64;
    d * mean - 1.0
}

/// Linear XEB of samples against the ideal distribution of `state`.
#[must_use]
pub fn xeb_against_state(state: &State, samples: &[u64]) -> f64 {
    let probs: Vec<f64> = state.amplitudes().iter().map(|a| a.mag2()).collect();
    linear_xeb(&probs, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn supremacy_state() -> State {
        let mut s = State::zero(10);
        s.run(&generators::supremacy(2, 5, 12, 3)).unwrap();
        s
    }

    /// The expected XEB of ideal sampling: `D·Σp² − 1` (exactly 1 only
    /// for a perfect Porter–Thomas distribution).
    fn ideal_xeb(s: &State) -> f64 {
        let d = s.amplitudes().len() as f64;
        let sum_p2: f64 = s.amplitudes().iter().map(|a| a.mag2().powi(2)).sum();
        d * sum_p2 - 1.0
    }

    #[test]
    fn perfect_sampling_matches_ideal_expectation() {
        let s = supremacy_state();
        let want = ideal_xeb(&s);
        assert!(want > 0.5, "circuit must scramble: {want}");
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<u64> = (0..6000).map(|_| s.sample(&mut rng)).collect();
        let xeb = xeb_against_state(&s, &samples);
        assert!((xeb - want).abs() < 0.25, "xeb {xeb} vs ideal {want}");
    }

    #[test]
    fn uniform_noise_scores_near_zero() {
        let s = supremacy_state();
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..4000).map(|_| rng.gen_range(0..1024)).collect();
        let xeb = xeb_against_state(&s, &samples);
        assert!(xeb.abs() < 0.15, "xeb {xeb}");
    }

    #[test]
    fn xeb_tracks_partial_fidelity() {
        // Mix ideal samples with uniform noise at ratio q: expected
        // XEB ≈ q · ideal_xeb (the depolarizing model behind XEB).
        let s = supremacy_state();
        let mut rng = StdRng::seed_from_u64(3);
        let q = 0.5;
        let want = q * ideal_xeb(&s);
        let samples: Vec<u64> = (0..8000)
            .map(|_| {
                if rng.gen_bool(q) {
                    s.sample(&mut rng)
                } else {
                    rng.gen_range(0..1024)
                }
            })
            .collect();
        let xeb = xeb_against_state(&s, &samples);
        assert!((xeb - want).abs() < 0.2, "xeb {xeb} vs expected {want}");
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn empty_samples_panic() {
        let _ = linear_xeb(&[0.5, 0.5], &[]);
    }
}
