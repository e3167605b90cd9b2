//! The one DD-side engine: a simulator plus a tableau-prefix rule.

use std::sync::Arc;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_dd::{GateKind, Package, PackageStats, VEdge};
use approxdd_sim::{Engine, RunResult, SharedObserver, SimSnapshot, Simulator, SimulatorBuilder};
use approxdd_stabilizer::{StabilizerError, Tableau, MAX_INDEXED_QUBITS};
use approxdd_telemetry::Span;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{BackendStats, ExecError, Result, RunOutcome};

/// The decision-diagram simulator with a stabilizer tableau in front of
/// it — the one engine type, which pooled workers hold too, so one pool
/// implementation serves every engine.
///
/// The [`Engine`] decides only how many leading operations the tableau
/// absorbs before the DD engine takes over from the synthesized
/// stabilizer state:
///
/// * [`Engine::Dd`] — none: the run is [`Simulator::run`], with every
///   approximation strategy the builder can express;
/// * [`Engine::Hybrid`] — the maximal Clifford prefix; the configured
///   policy steers the suffix exactly as it would a full DD run;
/// * [`Engine::Stabilizer`] — the whole circuit, which
///   [`AnyBackend::run`] requires to be Clifford: polynomial-time and
///   exact, and the DD package is never touched.
///
/// A run that ends on the tableau holds the tableau itself and answers
/// every query in polynomial time, sampling from the backend's own RNG;
/// a run that ends on the DD engine pins GC roots in the simulator's
/// package until released and samples from the simulator's RNG.
///
/// Built by [`super::BuildBackend::build_backend`]. [`AnyBackend::run`]
/// admits and runs a circuit in one call: policy, structure, and the
/// register width and gate set this engine can run are checked once.
#[derive(Debug)]
pub struct AnyBackend {
    engine: Engine,
    sim: Simulator,
    rng: StdRng,
}

/// The two kinds of final state an [`AnyBackend`] run can end in.
#[derive(Debug)]
pub(crate) enum AnyHandle {
    /// Every operation was absorbed by the tableau.
    Tableau(Box<Tableau>),
    /// The run ended on the DD engine.
    Dd(Box<RunResult>),
}

impl AnyBackend {
    /// Builds the engine `builder`'s [`Engine`] knob selects, seeded
    /// with the builder's sampling seed. DD-based engines layer over
    /// `snapshot` when one is given — warmed gate DDs resolve from it
    /// and the package allocates only above the frozen watermark; the
    /// stabilizer engine never touches its DD package, so it ignores
    /// the snapshot. Pooled workers call this per job with the batch's
    /// snapshot; [`super::BuildBackend::build_backend`] calls it with
    /// none.
    pub(crate) fn build(builder: SimulatorBuilder, snapshot: Option<Arc<SimSnapshot>>) -> Self {
        let (engine, seed) = (builder.engine_kind(), builder.sample_seed());
        let snapshot = snapshot.filter(|_| engine != Engine::Stabilizer);
        Self {
            engine,
            sim: builder.build_with_snapshot(snapshot),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Mutable access to the wrapped simulator (package queries, DOT
    /// export…).
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// DD-package counters (`None` for the pure-tableau engine, which
    /// never touches its package).
    #[must_use]
    pub(crate) fn package_stats(&self) -> Option<PackageStats> {
        (self.engine != Engine::Stabilizer).then(|| self.sim.package().stats())
    }

    /// Gate-DD cache occupancy of the wrapped simulator (0 for the
    /// tableau engine, which builds no gate DDs).
    #[must_use]
    pub(crate) fn gate_cache_len(&self) -> usize {
        self.sim.gate_cache_len()
    }

    /// Gate-DD lookups the wrapped simulator served from a shared
    /// frozen snapshot (0 for the tableau engine or when the backend
    /// was built without a snapshot).
    #[must_use]
    pub(crate) fn snapshot_gate_hits(&self) -> u64 {
        self.sim.snapshot_gate_hits()
    }

    /// Attaches a run-trace observer to the wrapped simulator. Runs
    /// that end on the tableau emit no trace events (pooled trace
    /// capture simply records an empty trace).
    pub(crate) fn attach_observer(&mut self, observer: SharedObserver) {
        self.sim.attach_observer(observer);
    }

    /// Size of an outcome's final state representation: DD node count,
    /// or tableau storage words.
    #[must_use]
    pub fn final_size(&self, outcome: &RunOutcome) -> usize {
        match &outcome.handle {
            AnyHandle::Tableau(t) => t.storage_words(),
            AnyHandle::Dd(r) => self.sim.package().vsize(r.state()),
        }
    }

    /// Exact fidelity between two of this backend's live outcomes.
    ///
    /// # Errors
    ///
    /// [`ExecError::Unsupported`] unless both outcomes ended on the DD
    /// engine.
    pub fn fidelity_between(&mut self, a: &RunOutcome, b: &RunOutcome) -> Result<f64> {
        match (&a.handle, &b.handle) {
            (AnyHandle::Dd(a), AnyHandle::Dd(b)) => Ok(self.sim.fidelity_between(a, b)),
            _ => Err(ExecError::Unsupported {
                backend: self.engine.name(),
                what: "fidelity between tableau outcomes",
            }),
        }
    }

    /// Runs `circuit` from `|0…0⟩`, admitting it on the way: the one
    /// place a circuit is checked before it runs.
    ///
    /// * [`Engine::Dd`] — the run is [`Simulator::run`], whose own checks
    ///   (width, policy, structure) run once;
    /// * [`Engine::Stabilizer`] — structure, the tableau's width, and a
    ///   Clifford-only gate set, before the tableau is built;
    /// * [`Engine::Hybrid`] — policy, structure and width before the
    ///   tableau, so a pure-Clifford run, which never reaches the
    ///   simulator, still refuses a bad policy.
    ///
    /// # Errors
    ///
    /// Admission errors ([`ExecError::Circuit`], [`ExecError::Sim`],
    /// [`ExecError::Dd`], [`ExecError::Stabilizer`]) and engine
    /// execution errors.
    pub fn run(&mut self, circuit: &Circuit) -> Result<RunOutcome> {
        let n = circuit.n_qubits();
        let Some(prefix) = self.admit(circuit)? else {
            let result = self.sim.run(circuit)?;
            let stats = result.stats.clone().into();
            return Ok(RunOutcome::new(stats, n, AnyHandle::Dd(Box::new(result))));
        };
        let span = Span::enter(if self.engine == Engine::Stabilizer {
            "stab.run"
        } else {
            "hybrid.run"
        });
        let ops = circuit.ops();

        let mut tableau = Tableau::new(n);
        let mut prefix_gates = 0;
        for (index, op) in ops.iter().take(prefix).enumerate() {
            if tableau.apply_op(index, op)? {
                prefix_gates += 1;
            }
        }

        if prefix == ops.len() {
            // Pure Clifford: the DD package is never touched.
            let stats = BackendStats {
                gates_applied: prefix_gates,
                peak_size: tableau.storage_words(),
                approx_rounds: 0,
                fidelity: 1.0,
                fidelity_lower_bound: 1.0,
                policy: "exact".to_string(),
                nodes_removed: 0,
                runtime: span.finish(),
                size_series: Vec::new(),
                dd: None,
                engine: self.engine.name(),
                clifford_prefix_len: prefix,
            };
            return Ok(RunOutcome::new(
                stats,
                n,
                AnyHandle::Tableau(Box::new(tableau)),
            ));
        }

        let initial = synthesize_state(self.sim.package_mut(), &tableau)?;
        let mut suffix = Circuit::new(n, circuit.name());
        for op in &ops[prefix..] {
            suffix.push(op.clone());
        }
        let result = self.sim.run_from(&suffix, initial)?;
        let mut stats: BackendStats = result.stats.clone().into();
        stats.engine = self.engine.name();
        stats.clifford_prefix_len = prefix;
        stats.gates_applied += prefix_gates;
        stats.peak_size = stats.peak_size.max(tableau.storage_words());
        stats.runtime = span.finish();
        Ok(RunOutcome::new(stats, n, AnyHandle::Dd(Box::new(result))))
    }

    /// The checks a run makes before a tableau is built, and how many
    /// leading operations of `circuit` the tableau then absorbs; `None`
    /// when the run never builds one, and its checks are
    /// [`Simulator::run`]'s own.
    fn admit(&self, circuit: &Circuit) -> Result<Option<usize>> {
        match self.engine {
            Engine::Stabilizer => {
                circuit.validate()?;
                if circuit.n_qubits() > MAX_INDEXED_QUBITS {
                    return Err(StabilizerError::TooManyQubits {
                        n_qubits: circuit.n_qubits(),
                        max: MAX_INDEXED_QUBITS,
                    }
                    .into());
                }
                if !circuit.is_clifford() {
                    return Err(StabilizerError::NonClifford {
                        index: circuit.clifford_prefix_len(),
                    }
                    .into());
                }
                Ok(Some(circuit.ops().len()))
            }
            Engine::Hybrid => {
                // Whatever policy the simulator runs with — a Strategy
                // preset or a custom ApproxPolicy (its begin() hook).
                self.sim.validate_policy(circuit)?;
                circuit.validate()?;
                // The DD engine's width cap is the `u64` basis indexing
                // the tableau→DD handoff needs.
                Simulator::check_width(circuit)?;
                Ok(Some(circuit.clifford_prefix_len()))
            }
            _ => Ok(None),
        }
    }

    /// Draws `shots` outcomes as `(outcome, count)` runs in ascending
    /// outcome order: from the tableau with the backend's own RNG, or
    /// from the DD state with the simulator's.
    pub fn sample_counts(&mut self, outcome: &RunOutcome, shots: usize) -> Vec<(u64, usize)> {
        match &outcome.handle {
            AnyHandle::Tableau(t) => {
                let mut runs: Vec<_> = t.sample_counts(shots, &mut self.rng).into_iter().collect();
                runs.sort_unstable();
                runs
            }
            AnyHandle::Dd(r) => self.sim.draw_counts(r, shots),
        }
    }

    /// Dense amplitudes of the final state (small registers only).
    ///
    /// # Errors
    ///
    /// [`ExecError::Dd`] / [`ExecError::Stabilizer`] width-limit errors.
    pub fn amplitudes(&self, outcome: &RunOutcome) -> Result<Vec<Cplx>> {
        match &outcome.handle {
            AnyHandle::Tableau(t) => Ok(t.amplitudes()?),
            AnyHandle::Dd(r) => Ok(self.sim.amplitudes(r)?),
        }
    }

    /// Born-rule probability of the basis state `basis`.
    ///
    /// # Errors
    ///
    /// [`ExecError::BasisOutOfRange`] when `basis` does not fit the
    /// register.
    pub fn probability(&self, outcome: &RunOutcome, basis: u64) -> Result<f64> {
        let n_qubits = outcome.n_qubits;
        if n_qubits < 64 && basis >> n_qubits != 0 {
            return Err(ExecError::BasisOutOfRange { basis, n_qubits });
        }
        match &outcome.handle {
            AnyHandle::Tableau(t) => Ok(t.probability(basis)),
            AnyHandle::Dd(r) => Ok(self.sim.package().probability(r.state(), basis)),
        }
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

    /// Ends an outcome's life, releasing the GC roots a DD outcome pins.
    /// Consumes the outcome: the type-level guarantee against the
    /// dangling-handle hazard.
    pub fn release(&mut self, outcome: RunOutcome) {
        if let AnyHandle::Dd(r) = &outcome.handle {
            self.sim.release(r);
        }
    }

    /// Re-seeds both sampling RNGs, the tableau's and the simulator's.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.sim.reseed(seed);
    }
}

/// Builds the DD state vector of a stabilizer state exactly.
///
/// Fast path: a rank-0 tableau is a basis state — one `basis_state`
/// call plus the witness phase. General case: starting from the
/// witness basis state, apply the projector `(I + g)/2` of every
/// stabilizer generator `g` with a nonempty X-part (pure-Z generators
/// act as the identity on every intermediate, which always lies inside
/// the final support) and renormalize; the result is the state up to a
/// unit phase, which the tracked witness amplitude then pins down
/// exactly. No intermediate can vanish: the unnormalized product is
/// `|ψ⟩⟨ψ|b⟩` with `⟨ψ|b⟩ ≠ 0` by choice of witness.
///
/// GC safety: the package only collects garbage inside a simulator's
/// run loop, never during these package calls, and `run_from` pins the
/// returned edge before its first gate.
fn synthesize_state(package: &mut Package, tableau: &Tableau) -> Result<VEdge> {
    let n = tableau.n_qubits();
    let witness = tableau.witness_index();
    let target = tableau.witness_amplitude().to_cplx();
    let mut v = package.basis_state(n, witness);
    if tableau.support_rank() == 0 {
        // Basis state: amplitude is the witness phase itself.
        return Ok(v.scaled(target));
    }
    let x_mat = GateKind::X.matrix();
    let y_mat = GateKind::Y.matrix();
    let z_mat = GateKind::Z.matrix();
    for i in 0..n {
        if !(0..n).any(|q| tableau.stabilizer_x(i, q)) {
            continue;
        }
        // g·v one single-qubit factor at a time (distinct qubits
        // commute), then v ← (v ± g·v)/‖…‖.
        let mut gv = v;
        for q in 0..n {
            let mat = match (tableau.stabilizer_x(i, q), tableau.stabilizer_z(i, q)) {
                (false, false) => continue,
                (true, false) => x_mat,
                (true, true) => y_mat,
                (false, true) => z_mat,
            };
            let gate = package.single_gate(n, q, mat)?;
            gv = package.apply(gate, gv);
        }
        if tableau.stabilizer_sign(i) {
            gv = gv.scaled(Cplx::real(-1.0));
        }
        v = package.add(v, gv);
        let norm = package.norm(v);
        debug_assert!(norm > 1e-12, "projector product of a support witness");
        v = v.scaled(Cplx::real(1.0 / norm));
    }
    // The projectors fix the state up to a unit phase; the witness
    // amplitude fixes the phase.
    let actual = package.amplitude(v, witness);
    Ok(v.scaled(target / actual))
}
