//! The one execution API over the workspace's simulation engines.
//!
//! The reproduced paper is fundamentally comparative — every Table I
//! row pits approximate DD simulation against an exact baseline — and
//! this module provides the one front door both sides go through: the
//! [`Backend`] trait. A backend **prepares** a circuit into an
//! [`Executable`], **runs** it (singly or batched) into a typed
//! [`RunOutcome`] carrying [`BackendStats`], and then answers
//! measurement-side queries (sampling, histograms, amplitudes,
//! basis-state probabilities, diagonal expectations) until the outcome
//! is **released**. All failures funnel into the single [`ExecError`].
//!
//! Two implementations ship here:
//!
//! * [`AnyBackend`] — the approximate decision-diagram simulator
//!   ([`approxdd_sim::Simulator`]), including every approximation
//!   strategy its builder can configure, behind an optional stabilizer
//!   tableau prefix (the builder's [`Engine`](approxdd_sim::Engine)
//!   knob), built by [`BuildBackend::build_backend`];
//! * [`StatevectorBackend`] — the dense exact baseline.
//!
//! Benchmark rows, cross-validation checks, and the examples are all
//! one generic function over `B: Backend`; comparing engines is the
//! default shape of the codebase rather than hand-wired glue. The
//! pool ([`crate::BackendPool`]) is the trait's runtime consumer.
//!
//! # Examples
//!
//! ```
//! use approxdd_exec::backend::{Backend, BuildBackend, StatevectorBackend};
//! use approxdd_circuit::generators;
//! use approxdd_sim::Simulator;
//!
//! # fn main() -> Result<(), approxdd_exec::backend::ExecError> {
//! let circuit = generators::ghz(8);
//!
//! // Same generic driver for both engines.
//! fn ghz_tail_mass<B: Backend>(backend: &mut B, c: &approxdd_circuit::Circuit)
//!     -> Result<f64, approxdd_exec::backend::ExecError>
//! {
//!     let exe = backend.prepare(c)?;
//!     let run = backend.run(&exe)?;
//!     let p = backend.probability(&run, 0)? + backend.probability(&run, 0xFF)?;
//!     backend.release(run);
//!     Ok(p)
//! }
//!
//! let mut dd = Simulator::builder().seed(7).build_backend();
//! let mut sv = StatevectorBackend::with_seed(7);
//! assert!((ghz_tail_mass(&mut dd, &circuit)? - 1.0).abs() < 1e-9);
//! assert!((ghz_tail_mass(&mut sv, &circuit)? - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod engine;
mod sv;

pub use crate::error::ExecError;
pub use engine::{AnyBackend, AnyHandle};
pub use sv::StatevectorBackend;

use std::collections::HashMap;
use std::time::Duration;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_sim::{SimStats, SimulatorBuilder};

/// The backend layer's result alias.
pub type Result<T> = std::result::Result<T, ExecError>;

/// A circuit validated and packaged for execution on a [`Backend`].
///
/// Produced by [`Backend::prepare`]; reusable across [`Backend::run`]
/// calls and across backends (preparation is engine-agnostic
/// validation — engine-specific limits like the dense width cap are
/// still checked per backend).
#[derive(Debug, Clone)]
pub struct Executable {
    circuit: Circuit,
}

impl Executable {
    /// Wraps a circuit that has already passed validation.
    fn from_validated(circuit: Circuit) -> Self {
        Self { circuit }
    }

    /// The underlying circuit.
    #[must_use]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Register width.
    #[must_use]
    pub(crate) fn n_qubits(&self) -> usize {
        self.circuit.n_qubits()
    }
}

/// Engine-agnostic statistics of one run — the unified face of
/// [`SimStats`] and the dense engine's bookkeeping; the quantities a
/// Table I row needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendStats {
    /// State-transforming operations applied.
    pub gates_applied: usize,
    /// Peak size of the state representation: DD node count for the DD
    /// engine, amplitude count (`2^n`) for the dense engine.
    pub peak_size: usize,
    /// Approximation rounds performed (0 for exact engines).
    pub approx_rounds: usize,
    /// End-to-end fidelity estimate (1.0 for exact engines).
    pub fidelity: f64,
    /// Guaranteed end-to-end fidelity floor: product of the per-round
    /// *target* fidelities of every fired round that removed nodes
    /// (≤ the measured [`BackendStats::fidelity`]; 1.0 for exact
    /// engines).
    pub fidelity_lower_bound: f64,
    /// Name of the approximation policy that steered the run
    /// (`"exact"` for engines that never approximate).
    pub policy: String,
    /// Nodes removed by truncation (0 for exact engines).
    pub nodes_removed: usize,
    /// Wall-clock runtime of the run.
    pub runtime: Duration,
    /// Representation size after every gate, when recorded (DD engine
    /// with `record_size_series`; empty otherwise).
    pub size_series: Vec<usize>,
    /// DD-package counters at the end of the run — the compute
    /// table's hits and misses, unique-table occupancy,
    /// and peak node counts (`None` for engines without a DD package,
    /// i.e. the dense baseline). Session-cumulative for the DD engine:
    /// the package persists across runs of one backend.
    pub dd: Option<approxdd_dd::PackageStats>,
    /// Short name of the engine that produced this run (`"dd"`,
    /// `"statevector"`, `"stabilizer"`, `"hybrid"`). Excluded from
    /// pooled-run fingerprints: the same job must fingerprint
    /// identically however it was routed.
    pub engine: &'static str,
    /// Number of leading circuit operations absorbed by a stabilizer
    /// tableau before (or instead of) the main engine: the whole
    /// circuit for the stabilizer engine, the maximal Clifford prefix
    /// for the hybrid engine, 0 for engines without a Clifford fast
    /// path.
    pub clifford_prefix_len: usize,
}

impl BackendStats {
    /// Compute-table hit rate of the run's DD package (`None` for
    /// non-DD engines).
    #[must_use]
    pub fn ct_hit_rate(&self) -> Option<f64> {
        self.dd.as_ref().map(approxdd_dd::PackageStats::ct_hit_rate)
    }

    /// Unique-table occupancy of the run's DD package (`None` for
    /// non-DD engines).
    #[must_use]
    pub fn unique_occupancy(&self) -> Option<f64> {
        self.dd
            .as_ref()
            .map(approxdd_dd::PackageStats::unique_occupancy)
    }

    /// Peak simultaneously-alive DD nodes, both node kinds combined
    /// (`None` for non-DD engines).
    #[must_use]
    pub fn peak_nodes(&self) -> Option<usize> {
        self.dd.as_ref().map(approxdd_dd::PackageStats::peak_nodes)
    }
}

impl From<SimStats> for BackendStats {
    fn from(s: SimStats) -> Self {
        Self {
            gates_applied: s.gates_applied,
            peak_size: s.max_dd_size,
            approx_rounds: s.approx_rounds,
            fidelity: s.fidelity,
            fidelity_lower_bound: s.fidelity_lower_bound,
            policy: s.policy,
            nodes_removed: s.nodes_removed,
            runtime: s.runtime,
            size_series: s.size_series,
            dd: Some(s.package),
            engine: "dd",
            clifford_prefix_len: 0,
        }
    }
}

/// The typed result of [`Backend::run`]: unified statistics plus the
/// engine-specific handle queries go through.
///
/// For the DD backend the handle pins GC roots inside the simulator's
/// package — pass outcomes back to [`Backend::release`] when done so
/// long sessions don't accumulate dead state. Deliberately not
/// `Clone`: release consumes the only copy, so no stale outcome can
/// outlive its engine resources.
#[derive(Debug)]
pub struct RunOutcome<H> {
    /// Unified run statistics.
    pub stats: BackendStats,
    n_qubits: usize,
    handle: H,
}

impl<H> RunOutcome<H> {
    /// Packs an engine handle with its stats.
    fn new(stats: BackendStats, n_qubits: usize, handle: H) -> Self {
        Self {
            stats,
            n_qubits,
            handle,
        }
    }

    /// Register width of the run.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The engine-specific handle (an [`AnyHandle`] for the DD backend, a
    /// dense `State` for the statevector backend). Prefer the
    /// [`Backend`] queries; the handle is an escape hatch for
    /// engine-specific operations and inherits the engine's lifetime
    /// rules (see `RunResult::state`'s hazard note).
    #[must_use]
    pub(crate) fn handle(&self) -> &H {
        &self.handle
    }
}

/// A quantum-circuit execution engine with a uniform lifecycle:
/// `prepare → run (or run_batch) → query → release`.
///
/// The trait is object-safe, so heterogeneous engine collections
/// (`Vec<Box<dyn Backend<Handle = …>>>`) work; sampling uses the
/// backend's owned RNG ([`Backend::reseed`]) instead of threading
/// generic RNG parameters through every call.
pub trait Backend {
    /// Engine-specific run handle stored inside [`RunOutcome`].
    type Handle;

    /// Short engine name (`"dd"`, `"statevector"`) for labels and
    /// error messages.
    fn name(&self) -> &'static str;

    /// Validates `circuit` (and the backend's configuration) into a
    /// reusable [`Executable`].
    ///
    /// # Errors
    ///
    /// Validation errors ([`ExecError::Circuit`], [`ExecError::Sim`],
    /// [`ExecError::State`]).
    fn prepare(&self, circuit: &Circuit) -> Result<Executable>;

    /// Executes one prepared circuit from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Engine execution errors.
    fn run(&mut self, exe: &Executable) -> Result<RunOutcome<Self::Handle>>;

    /// Executes a batch of prepared circuits, returning one outcome per
    /// executable in order. The default runs them sequentially and
    /// fails fast on the first error, releasing the outcomes it already
    /// produced — callers that need partial results should run singly.
    ///
    /// # Errors
    ///
    /// The first failing run's error.
    fn run_batch(&mut self, exes: &[Executable]) -> Result<Vec<RunOutcome<Self::Handle>>> {
        let mut outcomes = Vec::with_capacity(exes.len());
        for exe in exes {
            match self.run(exe) {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => {
                    for outcome in outcomes {
                        self.release(outcome);
                    }
                    return Err(e);
                }
            }
        }
        Ok(outcomes)
    }

    /// Draws one measurement outcome using the backend's owned RNG.
    fn sample(&mut self, outcome: &RunOutcome<Self::Handle>) -> u64;

    /// Draws `shots` outcomes into a histogram.
    fn sample_counts(
        &mut self,
        outcome: &RunOutcome<Self::Handle>,
        shots: usize,
    ) -> HashMap<u64, usize> {
        let mut counts = HashMap::new();
        for _ in 0..shots {
            *counts.entry(self.sample(outcome)).or_insert(0) += 1;
        }
        counts
    }

    /// Dense amplitudes of the final state (small registers only).
    ///
    /// # Errors
    ///
    /// [`ExecError::Dd`] / [`ExecError::State`] width-limit errors.
    fn amplitudes(&self, outcome: &RunOutcome<Self::Handle>) -> Result<Vec<Cplx>>;

    /// Born-rule probability of the basis state `basis`.
    ///
    /// # Errors
    ///
    /// [`ExecError::BasisOutOfRange`] when `basis` does not fit the
    /// register.
    fn probability(&self, outcome: &RunOutcome<Self::Handle>, basis: u64) -> Result<f64>;

    /// Expectation value of the diagonal observable `Σ f(i) |i⟩⟨i|`.
    /// The default derives it from [`Backend::amplitudes`], so it
    /// shares the dense width limits; backends may override with a
    /// representation-native path.
    ///
    /// # Errors
    ///
    /// See [`Backend::amplitudes`].
    fn expectation(
        &self,
        outcome: &RunOutcome<Self::Handle>,
        diagonal: &dyn Fn(u64) -> f64,
    ) -> Result<f64> {
        let amps = self.amplitudes(outcome)?;
        Ok(amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.mag2() * diagonal(i as u64))
            .sum())
    }

    /// Ends an outcome's life, releasing engine resources it pins
    /// (GC roots for the DD backend). Consumes the outcome: the
    /// type-level guarantee against the dangling-handle hazard.
    fn release(&mut self, outcome: RunOutcome<Self::Handle>);

    /// Re-seeds the backend's sampling RNG.
    fn reseed(&mut self, seed: u64);
}

/// Prepares and runs `circuit` in one call.
///
/// # Errors
///
/// Preparation or execution errors.
pub fn run_circuit<B: Backend>(
    backend: &mut B,
    circuit: &Circuit,
) -> Result<RunOutcome<B::Handle>> {
    let exe = backend.prepare(circuit)?;
    backend.run(&exe)
}

/// Runs `circuit` and returns the final dense amplitudes, releasing
/// the outcome — the one-line equivalence-check primitive.
///
/// # Errors
///
/// Preparation, execution, or amplitude-export errors.
pub fn amplitudes_of<B: Backend>(backend: &mut B, circuit: &Circuit) -> Result<Vec<Cplx>> {
    let outcome = run_circuit(backend, circuit)?;
    let amps = backend.amplitudes(&outcome)?;
    backend.release(outcome);
    Ok(amps)
}

/// Extension hook giving [`SimulatorBuilder`] a direct path into the
/// backend layer: `Simulator::builder()….build_backend()`.
pub trait BuildBackend {
    /// Builds the backend the builder's [`Engine`](approxdd_sim::Engine)
    /// knob selects — DD
    /// (the default), stabilizer tableau, or hybrid Clifford-prefix
    /// dispatch.
    fn build_backend(self) -> AnyBackend;
}

impl BuildBackend for SimulatorBuilder {
    fn build_backend(self) -> AnyBackend {
        AnyBackend::build(self, None)
    }
}

/// Bounds-checks a basis index against a register width.
fn check_basis(basis: u64, n_qubits: usize) -> Result<()> {
    if n_qubits < 64 && basis >> n_qubits != 0 {
        return Err(ExecError::BasisOutOfRange { basis, n_qubits });
    }
    Ok(())
}
