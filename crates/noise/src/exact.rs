//! The exact density-matrix baseline: applies every channel as a full
//! Kraus superoperator instead of sampling it, so trajectory means can
//! be validated statistically on small registers.

use approxdd_circuit::noise::{ChannelTables, KrausBranch, NoiseModel};
use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_exec::backend::ExecError;
use approxdd_statevector::{DensityMatrix, KrausOperator, StateError, MAX_DENSITY_QUBITS};

/// Per-slot scaled Kraus factors (`√q·F` folded into slot 0) of every
/// branch of one channel — resolved once per distinct channel, then
/// mapped onto each site's qubits.
type ScaledBranches = Vec<Vec<[[Cplx; 2]; 2]>>;

fn scaled_branches(branches: &[KrausBranch]) -> ScaledBranches {
    branches
        .iter()
        .map(|branch| {
            // Kᵢ = √qᵢ · ∏ factors: fold the selection weight into the
            // first factor.
            let scale = branch.probability.sqrt();
            branch
                .factors
                .iter()
                .enumerate()
                .map(|(slot, factor)| {
                    let mut m = factor.matrix();
                    if slot == 0 {
                        for row in &mut m {
                            for entry in row.iter_mut() {
                                *entry = entry.scale(scale);
                            }
                        }
                    }
                    m
                })
                .collect()
        })
        .collect()
}

/// Runs `circuit` under `model` exactly: gates by conjugation, every
/// channel application site as the full Kraus sum, interleaved in the
/// same deterministic site order the trajectory sampler uses.
///
/// # Errors
///
/// [`ExecError::Noise`] for an invalid model,
/// [`ExecError::State`] for registers beyond [`MAX_DENSITY_QUBITS`]
/// or malformed operations.
pub(crate) fn exact_density(
    circuit: &Circuit,
    model: &NoiseModel,
) -> Result<DensityMatrix, ExecError> {
    model.validate()?;
    if circuit.n_qubits() > MAX_DENSITY_QUBITS {
        return Err(ExecError::State(StateError::TooManyQubits {
            n_qubits: circuit.n_qubits(),
            max: MAX_DENSITY_QUBITS,
        }));
    }
    let mut rho = DensityMatrix::zero(circuit.n_qubits());
    // Scaled branch matrices depend only on the channel: resolve each
    // distinct channel once through the same ChannelTables the
    // trajectory sampler uses (so both sides agree on table identity),
    // then map slots onto each site's qubits.
    let mut tables = ChannelTables::new();
    let mut scaled: Vec<ScaledBranches> = Vec::new();
    for op in circuit.ops() {
        rho.apply_op(op).map_err(ExecError::State)?;
        for site in model.applications(op) {
            let table = tables.index_of(site.channel);
            if table == scaled.len() {
                scaled.push(scaled_branches(tables.table(table)));
            }
            let operators: Vec<KrausOperator> = scaled[table]
                .iter()
                .map(|factors| {
                    factors
                        .iter()
                        .enumerate()
                        .map(|(slot, m)| (site.qubits[slot], *m))
                        .collect()
                })
                .collect();
            rho.apply_kraus(&operators);
        }
    }
    Ok(rho)
}

/// The exact measurement distribution `⟨i|ρ|i⟩` of the noisy circuit.
///
/// # Errors
///
/// See `exact_density`.
pub fn exact_diagonal(circuit: &Circuit, model: &NoiseModel) -> Result<Vec<f64>, ExecError> {
    Ok(exact_density(circuit, model)?.diagonal())
}

/// The exact expectation `tr(ρ · Σ f(i)|i⟩⟨i|)` of a diagonal
/// observable under the noisy evolution — the quantity the stochastic
/// trajectory estimator converges to.
///
/// # Errors
///
/// See `exact_density`.
pub fn exact_expectation(
    circuit: &Circuit,
    model: &NoiseModel,
    f: &dyn Fn(u64) -> f64,
) -> Result<f64, ExecError> {
    Ok(exact_density(circuit, model)?.expectation_diagonal(f))
}

/// Helper used by tests: total variation distance between a sampled
/// histogram and an exact distribution.
#[must_use]
#[allow(clippy::cast_precision_loss, clippy::implicit_hasher)]
pub fn total_variation(counts: &std::collections::HashMap<u64, usize>, exact: &[f64]) -> f64 {
    let shots: usize = counts.values().sum();
    if shots == 0 {
        return 1.0;
    }
    let mut tv = 0.0;
    for (i, p) in exact.iter().enumerate() {
        let observed = *counts.get(&(i as u64)).unwrap_or(&0) as f64 / shots as f64;
        tv += (observed - p).abs();
    }
    tv / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_circuit::noise::NoiseChannel;

    #[test]
    fn ideal_model_reproduces_the_pure_state() {
        let circuit = generators::ghz(4);
        let rho = exact_density(&circuit, &NoiseModel::new()).unwrap();
        assert!((rho.purity() - 1.0).abs() < 1e-10);
        let ideal = approxdd_statevector::run_circuit(&circuit).unwrap();
        assert!((rho.fidelity_pure(&ideal) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn depolarizing_ghz_mixes_towards_uniform() {
        let circuit = generators::ghz(3);
        let model = NoiseModel::depolarizing(0.1).unwrap();
        let rho = exact_density(&circuit, &model).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-9, "trace preserved");
        assert!(rho.purity() < 1.0, "noise must mix");
        let diag = rho.diagonal();
        // The two GHZ branches still dominate, but every outcome now
        // has nonzero probability.
        assert!(diag.iter().all(|&p| p > 0.0));
        assert!(diag[0] > 0.25 && diag[7] > 0.25);
    }

    #[test]
    fn full_bit_flip_after_x_restores_ground_state() {
        let mut circuit = Circuit::new(1, "x");
        circuit.x(0);
        let model = NoiseModel::new().with_global(NoiseChannel::bit_flip(1.0).unwrap());
        let diag = exact_diagonal(&circuit, &model).unwrap();
        assert!((diag[0] - 1.0).abs() < 1e-12, "{diag:?}");
    }

    #[test]
    fn amplitude_damping_decays_excited_population() {
        let mut circuit = Circuit::new(1, "x");
        circuit.x(0);
        let gamma = 0.3;
        let model = NoiseModel::new().with_global(NoiseChannel::amplitude_damping(gamma).unwrap());
        let diag = exact_diagonal(&circuit, &model).unwrap();
        assert!((diag[1] - (1.0 - gamma)).abs() < 1e-12, "{diag:?}");
        assert!((diag[0] - gamma).abs() < 1e-12);
    }

    #[test]
    fn full_amplitude_damping_preserves_the_ground_state() {
        // Regression: γ = 1 must not annihilate |0⟩ (the old
        // decomposition dropped the nonzero K₀ because its naive
        // selection probability 1 − γ was 0, leaving a trace-0 state).
        let model = NoiseModel::new().with_global(NoiseChannel::amplitude_damping(1.0).unwrap());
        let mut ground = Circuit::new(1, "z");
        ground.z(0); // any gate, so the channel fires on |0⟩
        let diag = exact_diagonal(&ground, &model).unwrap();
        assert!((diag[0] - 1.0).abs() < 1e-12, "{diag:?}");
        assert!(diag[1].abs() < 1e-12);
        // And |1⟩ decays fully to |0⟩.
        let mut excited = Circuit::new(1, "x");
        excited.x(0);
        let diag = exact_diagonal(&excited, &model).unwrap();
        assert!((diag[0] - 1.0).abs() < 1e-12, "{diag:?}");
        let rho = exact_density(&excited, &model).unwrap();
        assert!((rho.trace() - 1.0).abs() < 1e-12, "trace preserved");
    }

    #[test]
    fn too_wide_registers_are_rejected() {
        let circuit = generators::ghz(MAX_DENSITY_QUBITS + 1);
        assert!(matches!(
            exact_density(&circuit, &NoiseModel::new()),
            Err(ExecError::State(StateError::TooManyQubits { .. }))
        ));
    }

    #[test]
    fn invalid_models_are_rejected() {
        let model = NoiseModel::new().with_qubit(0, NoiseChannel::depolarizing2(0.1).unwrap());
        assert!(matches!(
            exact_density(&generators::ghz(2), &model),
            Err(ExecError::Noise(_))
        ));
    }

    #[test]
    fn total_variation_of_exact_counts_is_zero() {
        let exact = vec![0.5, 0.5];
        let counts = std::collections::HashMap::from([(0u64, 500usize), (1, 500)]);
        assert!(total_variation(&counts, &exact) < 1e-12);
        let skewed = std::collections::HashMap::from([(0u64, 1000usize)]);
        assert!((total_variation(&skewed, &exact) - 0.5).abs() < 1e-12);
    }
}
