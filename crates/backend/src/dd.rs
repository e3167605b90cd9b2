//! [`Backend`] over the approximate decision-diagram simulator.

use std::collections::HashMap;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_sim::{RunResult, Simulator};

use crate::{Backend, ExecError, Executable, Result, RunOutcome};

/// The decision-diagram engine behind the [`Backend`] API.
///
/// Wraps a configured [`Simulator`] (build one with
/// `Simulator::builder()`, or go straight to a backend with
/// [`crate::BuildBackend::build_backend`]); every approximation
/// strategy the builder can express runs through this backend
/// unchanged. Engine-specific operations (DOT export, fused execution)
/// remain available through [`DdBackend::sim_mut`].
#[derive(Debug)]
pub struct DdBackend {
    sim: Simulator,
}

impl DdBackend {
    /// Wraps a configured simulator.
    #[must_use]
    pub(crate) fn new(sim: Simulator) -> Self {
        Self { sim }
    }

    /// An exact (non-approximating) DD backend with default options.
    #[must_use]
    pub(crate) fn exact() -> Self {
        Self::new(Simulator::default())
    }

    /// Read access to the wrapped simulator.
    #[must_use]
    pub(crate) fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the wrapped simulator (package queries, fused
    /// runs…).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Exact fidelity between two of this backend's live outcomes.
    #[must_use]
    pub fn fidelity_between(
        &mut self,
        a: &RunOutcome<RunResult>,
        b: &RunOutcome<RunResult>,
    ) -> f64 {
        self.sim.fidelity_between(a.handle(), b.handle())
    }
}

impl From<Simulator> for DdBackend {
    fn from(sim: Simulator) -> Self {
        Self::new(sim)
    }
}

impl Default for DdBackend {
    fn default() -> Self {
        Self::exact()
    }
}

impl Backend for DdBackend {
    type Handle = RunResult;

    fn name(&self) -> &'static str {
        "dd"
    }

    fn prepare(&self, circuit: &Circuit) -> Result<Executable> {
        // Validates whatever policy the simulator runs with — a
        // Strategy preset or a custom ApproxPolicy (its begin() hook).
        self.sim.validate_policy(circuit).map_err(ExecError::from)?;
        circuit.validate()?;
        Ok(Executable::from_validated(circuit.clone()))
    }

    fn run(&mut self, exe: &Executable) -> Result<RunOutcome<RunResult>> {
        let result = self.sim.run(exe.circuit())?;
        let stats = result.stats.clone().into();
        Ok(RunOutcome::new(stats, exe.n_qubits(), result))
    }

    fn sample(&mut self, outcome: &RunOutcome<RunResult>) -> u64 {
        self.sim.draw(outcome.handle())
    }

    fn sample_counts(
        &mut self,
        outcome: &RunOutcome<RunResult>,
        shots: usize,
    ) -> HashMap<u64, usize> {
        self.sim.draw_counts(outcome.handle(), shots)
    }

    fn amplitudes(&self, outcome: &RunOutcome<RunResult>) -> Result<Vec<Cplx>> {
        Ok(self.sim.amplitudes(outcome.handle())?)
    }

    fn probability(&self, outcome: &RunOutcome<RunResult>, basis: u64) -> Result<f64> {
        crate::check_basis(basis, outcome.n_qubits())?;
        Ok(self
            .sim
            .package()
            .probability(outcome.handle().state(), basis))
    }

    fn release(&mut self, outcome: RunOutcome<RunResult>) {
        self.sim.release(outcome.handle());
    }

    fn reseed(&mut self, seed: u64) {
        self.sim.reseed(seed);
    }
}
