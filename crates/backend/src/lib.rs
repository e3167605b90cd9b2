//! Unified execution API over the workspace's simulation engines.
//!
//! The reproduced paper is fundamentally comparative — every Table I
//! row pits approximate DD simulation against an exact baseline — and
//! this crate provides the one front door both sides go through: the
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
//!   tableau prefix (the builder's [`Engine`] knob);
//! * [`StatevectorBackend`] — the dense exact baseline.
//!
//! Benchmark rows, cross-validation checks, and the examples are all
//! one generic function over `B: Backend`; comparing engines is the
//! default shape of the codebase rather than hand-wired glue.
//!
//! # Examples
//!
//! ```
//! use approxdd_backend::{Backend, BuildBackend, StatevectorBackend};
//! use approxdd_circuit::generators;
//! use approxdd_sim::Simulator;
//!
//! # fn main() -> Result<(), approxdd_backend::ExecError> {
//! let circuit = generators::ghz(8);
//!
//! // Same generic driver for both engines.
//! fn ghz_tail_mass<B: Backend>(backend: &mut B, c: &approxdd_circuit::Circuit)
//!     -> Result<f64, approxdd_backend::ExecError>
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
mod error;
mod sv;

pub use engine::{AnyBackend, AnyHandle};
pub use error::ExecError;
pub use sv::StatevectorBackend;

use std::collections::HashMap;
use std::time::Duration;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_sim::{Engine, SimSnapshot, SimStats, SimulatorBuilder};

/// Crate-wide result alias.
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
    /// Aggregate compute-cache hit rate of the run's DD package
    /// (`None` for non-DD engines).
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
    /// fails fast on the first error (releasing nothing — callers that
    /// need partial results should run singly).
    ///
    /// # Errors
    ///
    /// The first failing run's error.
    fn run_batch(&mut self, exes: &[Executable]) -> Result<Vec<RunOutcome<Self::Handle>>> {
        exes.iter().map(|exe| self.run(exe)).collect()
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
    /// Builds the configured simulator as a plain DD backend
    /// ([`Engine::Dd`], whatever the builder's engine knob says).
    fn build_backend(self) -> AnyBackend;

    /// Builds the backend the builder's [`Engine`] knob selects —
    /// DD, stabilizer tableau, or hybrid Clifford-prefix dispatch.
    fn build_engine_backend(self) -> AnyBackend
    where
        Self: Sized,
    {
        self.build_engine_backend_with_snapshot(None)
    }

    /// The one engine-dispatching constructor (what pooled execution
    /// calls per job, so `.engine(…)` routes every worker): builds the
    /// backend the [`Engine`] knob selects, layering DD-based engines
    /// over a shared frozen [`SimSnapshot`] when one is given — warmed
    /// gate DDs resolve from the snapshot and the package allocates
    /// only above the frozen watermark. The stabilizer engine never
    /// touches its DD package, so it ignores the snapshot.
    fn build_engine_backend_with_snapshot(
        self,
        snapshot: Option<std::sync::Arc<SimSnapshot>>,
    ) -> AnyBackend;
}

impl BuildBackend for SimulatorBuilder {
    fn build_backend(self) -> AnyBackend {
        let seed = self.sample_seed();
        AnyBackend::new(Engine::Dd, self.build(), seed)
    }

    fn build_engine_backend_with_snapshot(
        self,
        snapshot: Option<std::sync::Arc<SimSnapshot>>,
    ) -> AnyBackend {
        let (engine, seed) = (self.engine_kind(), self.sample_seed());
        let snapshot = snapshot.filter(|_| engine != Engine::Stabilizer);
        AnyBackend::new(engine, self.build_with_snapshot(snapshot), seed)
    }
}

/// Bounds-checks a basis index against a register width.
pub(crate) fn check_basis(basis: u64, n_qubits: usize) -> Result<()> {
    if n_qubits < 64 && basis >> n_qubits != 0 {
        return Err(ExecError::BasisOutOfRange { basis, n_qubits });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_sim::{Simulator, Strategy};

    fn backends() -> (AnyBackend, StatevectorBackend) {
        (
            Simulator::builder().seed(11).build_backend(),
            StatevectorBackend::with_seed(11),
        )
    }

    fn assert_amplitudes_agree<A: Backend, B: Backend>(a: &mut A, b: &mut B, circuit: &Circuit) {
        let xs = amplitudes_of(a, circuit).expect("backend a");
        let ys = amplitudes_of(b, circuit).expect("backend b");
        assert_eq!(xs.len(), ys.len());
        for (i, (x, y)) in xs.iter().zip(&ys).enumerate() {
            assert!(
                (*x - *y).mag() < 1e-9,
                "{}: amplitude {i}: {} = {x} vs {} = {y}",
                circuit.name(),
                a.name(),
                b.name()
            );
        }
    }

    #[test]
    fn engines_agree_through_the_trait() {
        let (mut dd, mut sv) = backends();
        assert_amplitudes_agree(&mut dd, &mut sv, &generators::ghz(6));
        assert_amplitudes_agree(&mut dd, &mut sv, &generators::qft(5));
        assert_amplitudes_agree(&mut dd, &mut sv, &generators::supremacy(2, 3, 8, 3));
    }

    #[test]
    fn run_batch_returns_per_circuit_outcomes_in_order() {
        let circuits = [
            generators::ghz(4),
            generators::w_state(4),
            generators::qft(4),
        ];
        let (mut dd, mut sv) = backends();
        let exes: Vec<Executable> = circuits
            .iter()
            .map(|c| dd.prepare(c).expect("prepare"))
            .collect();
        let dd_outs = dd.run_batch(&exes).expect("dd batch");
        let sv_outs = sv.run_batch(&exes).expect("sv batch");
        assert_eq!(dd_outs.len(), 3);
        assert_eq!(sv_outs.len(), 3);
        for ((d, s), c) in dd_outs.iter().zip(&sv_outs).zip(&circuits) {
            assert_eq!(d.n_qubits(), c.n_qubits());
            assert_eq!(s.stats.gates_applied, c.gate_count());
            assert_eq!(s.stats.peak_size, 1 << c.n_qubits());
            assert!((d.stats.fidelity - 1.0).abs() < 1e-12);
        }
        for out in dd_outs {
            dd.release(out);
        }
    }

    #[test]
    fn sampling_is_deterministic_after_reseed() {
        let circuit = generators::ghz(8);
        let (mut dd, _) = backends();
        let out = run_circuit(&mut dd, &circuit).expect("run");
        dd.reseed(5);
        let first: Vec<u64> = (0..8).map(|_| dd.sample(&out)).collect();
        dd.reseed(5);
        let second: Vec<u64> = (0..8).map(|_| dd.sample(&out)).collect();
        assert_eq!(first, second);
        for v in first {
            assert!(v == 0 || v == 0xFF, "GHZ outcome {v:#x}");
        }
        dd.release(out);
    }

    #[test]
    fn probability_rejects_out_of_range_basis() {
        let circuit = generators::ghz(3);
        let (mut dd, mut sv) = backends();
        let out = run_circuit(&mut dd, &circuit).expect("run");
        assert!(matches!(
            dd.probability(&out, 8),
            Err(ExecError::BasisOutOfRange {
                basis: 8,
                n_qubits: 3
            })
        ));
        assert!((dd.probability(&out, 7).expect("p") - 0.5).abs() < 1e-12);
        dd.release(out);
        let out = run_circuit(&mut sv, &circuit).expect("run");
        assert!(matches!(
            sv.probability(&out, 9),
            Err(ExecError::BasisOutOfRange { .. })
        ));
        sv.release(out);
    }

    #[test]
    fn expectation_agrees_across_engines() {
        let circuit = generators::w_state(5);
        let (mut dd, mut sv) = backends();
        let ones = |i: u64| f64::from(i.count_ones());
        let dd_out = run_circuit(&mut dd, &circuit).expect("dd");
        let sv_out = run_circuit(&mut sv, &circuit).expect("sv");
        let a = dd.expectation(&dd_out, &ones).expect("dd exp");
        let b = sv.expectation(&sv_out, &ones).expect("sv exp");
        // W state has exactly one excited qubit.
        assert!((a - 1.0).abs() < 1e-9, "{a}");
        assert!((a - b).abs() < 1e-9);
        dd.release(dd_out);
        sv.release(sv_out);
    }

    #[test]
    fn prepare_rejects_bad_configurations() {
        let sv = StatevectorBackend::new();
        let wide = generators::ghz(approxdd_statevector::MAX_DENSE_QUBITS + 1);
        assert!(matches!(
            sv.prepare(&wide),
            Err(ExecError::State(
                approxdd_statevector::StateError::TooManyQubits { .. }
            ))
        ));
        let dd = Simulator::builder()
            .strategy(Strategy::FidelityDriven {
                final_fidelity: 2.0,
                round_fidelity: 0.9,
            })
            .build_backend();
        assert!(matches!(
            dd.prepare(&generators::ghz(3)),
            Err(ExecError::Sim(_))
        ));
    }

    #[test]
    fn approximate_dd_backend_reports_rounds_through_stats() {
        let circuit = generators::supremacy(2, 3, 12, 1);
        let mut dd = Simulator::builder()
            .fidelity_driven(0.6, 0.9)
            .seed(3)
            .build_backend();
        let out = run_circuit(&mut dd, &circuit).expect("run");
        assert!(out.stats.approx_rounds > 0);
        assert!(out.stats.fidelity >= 0.6 - 1e-9 && out.stats.fidelity < 1.0);
        assert!(out.stats.nodes_removed > 0);
        dd.release(out);
    }
}
