//! The one engine: the DD simulator, run and released through one type.

use std::sync::Arc;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_dd::PackageStats;
use approxdd_sim::{SharedObserver, SimSnapshot, Simulator, SimulatorBuilder};

use super::{ExecError, Result, RunOutcome};

/// The decision-diagram simulator behind the backend layer's run /
/// query / release surface — the engine type pooled workers hold too.
///
/// A run is [`Simulator::run`], with every approximation strategy the
/// builder can express, and its outcome pins GC roots in the
/// simulator's package until [`AnyBackend::release`] consumes it;
/// histograms sample from the simulator's RNG.
///
/// Built by [`super::BuildBackend::build_backend`]. [`AnyBackend::run`]
/// admits and runs a circuit in one call: policy, structure and
/// register width are [`Simulator::run`]'s own checks, made once.
#[derive(Debug)]
pub struct AnyBackend {
    sim: Simulator,
}

impl AnyBackend {
    /// Builds the simulator `builder` configures, seeded with the
    /// builder's sampling seed and on a fork of `snapshot`'s package
    /// when one is given — warmed gate DDs resolve from it and new
    /// nodes get ids above the fork's pinned prefix. Pooled workers call
    /// this per job with the batch's snapshot;
    /// [`super::BuildBackend::build_backend`] calls it with none.
    pub(crate) fn build(builder: SimulatorBuilder, snapshot: Option<Arc<SimSnapshot>>) -> Self {
        Self {
            sim: builder.build_with_snapshot(snapshot),
        }
    }

    /// Mutable access to the wrapped simulator (package queries, DOT
    /// export…).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// DD-package counters of the wrapped simulator.
    #[must_use]
    pub(crate) fn package_stats(&self) -> PackageStats {
        self.sim.package().stats()
    }

    /// Gate-DD cache occupancy of the wrapped simulator.
    #[must_use]
    pub(crate) fn gate_cache_len(&self) -> usize {
        self.sim.gate_cache_len()
    }

    /// Gate-DD lookups the wrapped simulator served from a snapshot's
    /// gate cache (0 when the backend was built without one).
    #[must_use]
    pub(crate) fn snapshot_gate_hits(&self) -> u64 {
        self.sim.snapshot_gate_hits()
    }

    /// Attaches a run-trace observer to the wrapped simulator.
    pub(crate) fn attach_observer(&mut self, observer: SharedObserver) {
        self.sim.attach_observer(observer);
    }

    /// DD node count of an outcome's final state.
    #[must_use]
    pub fn final_size(&self, outcome: &RunOutcome) -> usize {
        self.sim.package().vsize(outcome.result.state())
    }

    /// Exact fidelity between two of this backend's live outcomes.
    pub fn fidelity_between(&mut self, a: &RunOutcome, b: &RunOutcome) -> f64 {
        self.sim.fidelity_between(&a.result, &b.result)
    }

    /// Runs `circuit` from `|0…0⟩`: [`Simulator::run`], whose checks
    /// (width, policy, structure) are the one place a circuit is
    /// admitted.
    ///
    /// # Errors
    ///
    /// Admission errors ([`ExecError::Circuit`], [`ExecError::Sim`],
    /// [`ExecError::Dd`]) and engine execution errors.
    pub fn run(&mut self, circuit: &Circuit) -> Result<RunOutcome> {
        let mut result = self.sim.run(circuit)?;
        // Moved, not copied: queries and `release` read only the
        // state, so the outcome holds the run's stats once.
        Ok(RunOutcome {
            stats: std::mem::take(&mut result.stats).into(),
            result,
        })
    }

    /// Draws `shots` outcomes from the final state with the simulator's
    /// RNG, as `(outcome, count)` runs in ascending outcome order.
    pub fn sample_counts(&mut self, outcome: &RunOutcome, shots: usize) -> Vec<(u64, usize)> {
        self.sim.draw_counts(&outcome.result, shots)
    }

    /// Dense amplitudes of the final state (small registers only).
    ///
    /// # Errors
    ///
    /// [`ExecError::Dd`] width-limit errors.
    pub fn amplitudes(&self, outcome: &RunOutcome) -> Result<Vec<Cplx>> {
        Ok(self.sim.amplitudes(&outcome.result)?)
    }

    /// Born-rule probability of the basis state `basis`.
    ///
    /// # Errors
    ///
    /// [`ExecError::BasisOutOfRange`] when `basis` does not fit the
    /// register.
    pub fn probability(&self, outcome: &RunOutcome, basis: u64) -> Result<f64> {
        let n_qubits = outcome.n_qubits();
        if n_qubits < 64 && basis >> n_qubits != 0 {
            return Err(ExecError::BasisOutOfRange { basis, n_qubits });
        }
        Ok(self
            .sim
            .package()
            .probability(outcome.result.state(), basis))
    }

    /// Expectation value of the diagonal observable `Σ f(i) |i⟩⟨i|`,
    /// derived from [`AnyBackend::amplitudes`], whose width limits it
    /// shares.
    ///
    /// # Errors
    ///
    /// See [`AnyBackend::amplitudes`].
    pub fn expectation(&self, outcome: &RunOutcome, diagonal: &dyn Fn(u64) -> f64) -> Result<f64> {
        let amps = self.amplitudes(outcome)?;
        Ok(amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.mag2() * diagonal(i as u64))
            .sum())
    }

    /// Ends an outcome's life, releasing the GC roots it pins.
    /// Consumes the outcome: the type-level guarantee against the
    /// dangling-handle hazard.
    pub fn release(&mut self, outcome: RunOutcome) {
        self.sim.release(&outcome.result);
    }

    /// Re-seeds the simulator's sampling RNG.
    pub fn reseed(&mut self, seed: u64) {
        self.sim.reseed(seed);
    }
}
