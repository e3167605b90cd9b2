//! Stochastic noise-trajectory simulation over the DD backend.
//!
//! The reproduced paper trades controlled fidelity loss for simulation
//! efficiency on *ideal* circuits; real NISQ workloads are noisy, and
//! stochastic trajectory sampling is itself an approximation whose
//! error is statistically controlled — the two compose naturally. This
//! crate is the noisy half of that story:
//!
//! * [`NoiseChannel`] / [`NoiseModel`] (defined in
//!   [`approxdd_circuit::noise`], re-exported here) describe channels
//!   in Kraus form and where they attach to a circuit;
//! * `TrajectoryPlan::sample` Monte-Carlo-samples one concrete noisy
//!   realization, inserting Pauli gates and Kraus dense blocks into the
//!   op stream;
//! * [`NoisePool`] fans trajectories out across an
//!   [`approxdd_exec::BackendPool`] and aggregates a
//!   [`TrajectoryOutcome`] — merged counts, fidelity mean/σ, optional
//!   diagonal-observable mean/σ, and per-trajectory records with full
//!   run statistics;
//! * [`exact`] runs the same `(circuit, model)` pair as a density
//!   matrix with full Kraus superoperators (small registers only), the
//!   ground truth trajectory means are validated against.
//!
//! # The estimator
//!
//! Every channel is decomposed into branches with **fixed** selection
//! probabilities `qᵢ`, and a selected branch inserts the rescaled
//! operator `Kᵢ/√qᵢ`. The expected outer product of a trajectory's
//! (raw, possibly unnormalized) final state is then exactly the noisy
//! density matrix:
//!
//! ```text
//! E[|φ⟩⟨φ|] = Σᵢ qᵢ (Kᵢ/√qᵢ) ρ (Kᵢ/√qᵢ)† = Σᵢ Kᵢ ρ Kᵢ†
//! ```
//!
//! so the trajectory mean of any *raw-state* diagonal observable
//! `⟨φ|O|φ⟩` is an unbiased estimator of `tr(Oρ)`, with statistical
//! error `σ/√T`. Pauli branches are unitary, so for the Pauli channels
//! (bit/phase flip, depolarizing) every trajectory stays normalized
//! and sampled histograms are exact mixtures too; amplitude-damping
//! branches carry an importance weight in the state norm, making the
//! weighted observable estimator exact while sampled histograms become
//! self-normalized (ratio) estimates.
//!
//! # Determinism
//!
//! Noise insertions for trajectory `t` are drawn from the workspace
//! seed stream under [`approxdd_exec::DOMAIN_NOISE`]; execution rides
//! the pool's per-job seed streams. Results — including
//! [`TrajectoryOutcome::fingerprint`] — are byte-identical across
//! worker counts.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::generators;
//! use approxdd_noise::{BuildNoisePool, NoiseModel, TrajectoryConfig};
//! use approxdd_sim::Simulator;
//!
//! # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
//! let pool = Simulator::builder()
//!     .noise(NoiseModel::depolarizing(0.05)?)
//!     .seed(1)
//!     .workers(2)
//!     .build_noise_pool();
//! let outcome = pool.run_trajectories(
//!     &generators::ghz(5),
//!     &TrajectoryConfig::new(16).shots(64),
//! )?;
//! // Noise leaks probability mass outside the two GHZ branches.
//! assert_eq!(outcome.counts.values().sum::<usize>(), 16 * 64);
//! assert!(outcome.noise_ops_total > 0);
//! # Ok(())
//! # }
//! ```

pub mod exact;
mod pool;
mod sampler;

pub use approxdd_circuit::noise::{NoiseChannel, NoiseModel};
pub use pool::{BuildNoisePool, NoisePool, TrajectoryConfig, TrajectoryOutcome, TrajectoryRecord};
pub use sampler::{Trajectory, TrajectoryPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_exec::backend::{amplitudes_of, BuildBackend, StatevectorBackend};
    use approxdd_sim::Simulator;

    /// The DD engine and the dense baseline must agree on sampled noisy
    /// trajectories — including the non-unitary amplitude-damping
    /// blocks, which exercise dense blocks outside the unitary group.
    #[test]
    fn engines_agree_on_sampled_trajectories() {
        let model = NoiseModel::new()
            .with_global(NoiseChannel::depolarizing(0.2).unwrap())
            .with_global(NoiseChannel::amplitude_damping(0.3).unwrap());
        let circuit = generators::qft(4);
        for seed in 0..5 {
            let trajectory = TrajectoryPlan::new(&circuit, &model).sample(seed);
            let mut dd = Simulator::builder().build_backend();
            let mut sv = StatevectorBackend::new();
            let a = amplitudes_of(&mut dd, &trajectory.circuit).expect("dd");
            let b = amplitudes_of(&mut sv, &trajectory.circuit).expect("sv");
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    (*x - *y).mag() < 1e-9,
                    "seed {seed} amplitude {i}: {x} vs {y}"
                );
            }
        }
    }
}
