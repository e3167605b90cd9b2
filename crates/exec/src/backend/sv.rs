//! [`Backend`] over the dense statevector baseline.

use std::collections::HashMap;

use approxdd_telemetry::Span;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_statevector::{self as statevector, State, StateError, MAX_DENSE_QUBITS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{check_basis, Backend, BackendStats, Executable, Result, RunOutcome};

/// The dense exact baseline behind the [`Backend`] API.
///
/// Each run materializes the full `2^n` amplitude vector
/// ([`BackendStats::peak_size`] reports that count), so preparation
/// rejects circuits wider than [`MAX_DENSE_QUBITS`]. Outcomes own
/// their [`State`], so `release` is a plain drop — the backend exists
/// to make the baseline interchangeable with the DD engine in generic
/// comparison code.
#[derive(Debug)]
pub struct StatevectorBackend {
    rng: StdRng,
}

impl StatevectorBackend {
    /// A backend with the default sampling seed
    /// ([`approxdd_sim::DEFAULT_SAMPLE_SEED`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_seed(approxdd_sim::DEFAULT_SAMPLE_SEED)
    }

    /// A backend whose sampling RNG is seeded with `seed`.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Default for StatevectorBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for StatevectorBackend {
    type Handle = State;

    fn name(&self) -> &'static str {
        "statevector"
    }

    fn prepare(&self, circuit: &Circuit) -> Result<Executable> {
        circuit.validate()?;
        if circuit.n_qubits() > MAX_DENSE_QUBITS {
            return Err(StateError::TooManyQubits {
                n_qubits: circuit.n_qubits(),
                max: MAX_DENSE_QUBITS,
            }
            .into());
        }
        Ok(Executable::from_validated(circuit.clone()))
    }

    fn run(&mut self, exe: &Executable) -> Result<RunOutcome<State>> {
        let span = Span::enter("sv.run");
        let state = statevector::run_circuit(exe.circuit())?;
        let stats = BackendStats {
            gates_applied: exe.circuit().gate_count(),
            peak_size: state.amplitudes().len(),
            approx_rounds: 0,
            fidelity: 1.0,
            fidelity_lower_bound: 1.0,
            policy: "exact".to_string(),
            nodes_removed: 0,
            runtime: span.finish(),
            size_series: Vec::new(),
            dd: None,
            engine: "statevector",
            clifford_prefix_len: 0,
        };
        Ok(RunOutcome::new(stats, exe.n_qubits(), state))
    }

    fn sample(&mut self, outcome: &RunOutcome<State>) -> u64 {
        outcome.handle().sample(&mut self.rng)
    }

    fn sample_counts(&mut self, outcome: &RunOutcome<State>, shots: usize) -> HashMap<u64, usize> {
        outcome.handle().sample_counts(shots, &mut self.rng)
    }

    fn amplitudes(&self, outcome: &RunOutcome<State>) -> Result<Vec<Cplx>> {
        Ok(outcome.handle().amplitudes().to_vec())
    }

    fn probability(&self, outcome: &RunOutcome<State>, basis: u64) -> Result<f64> {
        check_basis(basis, outcome.n_qubits())?;
        Ok(outcome.handle().probability(basis))
    }

    fn expectation(
        &self,
        outcome: &RunOutcome<State>,
        diagonal: &dyn Fn(u64) -> f64,
    ) -> Result<f64> {
        Ok(outcome.handle().expectation_diagonal(diagonal))
    }

    fn release(&mut self, outcome: RunOutcome<State>) {
        drop(outcome);
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }
}
