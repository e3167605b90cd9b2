//! Hybrid Clifford-prefix dispatch: tableau first, DD for the rest.

use std::collections::HashMap;

use approxdd_telemetry::Span;

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_dd::{GateKind, Package, VEdge};
use approxdd_sim::{RunResult, Simulator};
use approxdd_stabilizer::{Tableau, MAX_INDEXED_QUBITS};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Backend, BackendStats, ExecError, Executable, Result, RunOutcome};

/// Dispatcher that simulates the maximal Clifford prefix of every
/// circuit on a stabilizer tableau and hands the remainder to the DD
/// engine, seeded with the synthesized stabilizer state.
///
/// Pure-Clifford circuits never touch the DD package: their outcome
/// holds the tableau itself and every query (amplitudes, probability,
/// sampling) answers in polynomial time. Circuits with a non-Clifford
/// tail run on the wrapped [`Simulator`] from the synthesized initial
/// state, with the configured approximation policy steering the suffix
/// exactly as it would a full DD run. Registers wider than
/// [`MAX_INDEXED_QUBITS`] fall back to a whole-circuit DD run (the
/// basis-state synthesis needs `u64` indexing).
#[derive(Debug)]
pub struct HybridBackend {
    sim: Simulator,
    rng: StdRng,
}

/// The two shapes a hybrid run can end in.
#[derive(Debug)]
pub enum HybridHandle {
    /// The whole circuit was Clifford — the final state is a tableau.
    Clifford(Box<Tableau>),
    /// A non-Clifford suffix ran on the DD engine.
    Dd(Box<RunResult>),
}

impl HybridBackend {
    /// Wraps a configured simulator with the default sampling seed for
    /// the tableau path.
    #[must_use]
    pub fn new(sim: Simulator) -> Self {
        Self::with_seed(sim, approxdd_sim::DEFAULT_SAMPLE_SEED)
    }

    /// Wraps a configured simulator; `seed` drives sampling of
    /// pure-Clifford outcomes (DD outcomes sample through the
    /// simulator's own seeded RNG).
    #[must_use]
    pub fn with_seed(sim: Simulator, seed: u64) -> Self {
        Self {
            sim,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Read access to the wrapped simulator.
    #[must_use]
    pub(crate) fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable access to the wrapped simulator.
    pub(crate) fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The prefix length this backend will actually absorb for
    /// `circuit`: the Clifford prefix, or 0 when the register is too
    /// wide for the tableau→DD handoff.
    #[must_use]
    pub(crate) fn effective_prefix_len(circuit: &Circuit) -> usize {
        if circuit.n_qubits() > MAX_INDEXED_QUBITS {
            0
        } else {
            circuit.clifford_prefix_len()
        }
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
pub(crate) fn synthesize_state(package: &mut Package, tableau: &Tableau) -> Result<VEdge> {
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

impl HybridBackend {
    /// Draws one sample from a bare handle (the engine-dispatch path
    /// of `AnyBackend`).
    pub(crate) fn sample_handle(&mut self, handle: &HybridHandle) -> u64 {
        match handle {
            HybridHandle::Clifford(t) => t.sample(&mut self.rng),
            HybridHandle::Dd(r) => self.sim.draw(r),
        }
    }

    /// Histogram counterpart of [`HybridBackend::sample_handle`].
    pub(crate) fn sample_counts_handle(
        &mut self,
        handle: &HybridHandle,
        shots: usize,
    ) -> HashMap<u64, usize> {
        match handle {
            HybridHandle::Clifford(t) => t.sample_counts(shots, &mut self.rng),
            HybridHandle::Dd(r) => self.sim.draw_counts(r, shots),
        }
    }
}

impl Backend for HybridBackend {
    type Handle = HybridHandle;

    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn prepare(&self, circuit: &Circuit) -> Result<Executable> {
        self.sim.validate_policy(circuit).map_err(ExecError::from)?;
        circuit.validate()?;
        Ok(Executable::from_validated(circuit.clone()))
    }

    fn run(&mut self, exe: &Executable) -> Result<RunOutcome<HybridHandle>> {
        let span = Span::enter("hybrid.run");
        let n = exe.n_qubits();
        let circuit = exe.circuit();
        let ops = circuit.ops();
        let prefix = Self::effective_prefix_len(circuit);

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
                engine: "hybrid",
                clifford_prefix_len: prefix,
            };
            return Ok(RunOutcome::new(
                stats,
                n,
                HybridHandle::Clifford(Box::new(tableau)),
            ));
        }

        let initial = synthesize_state(self.sim.package_mut(), &tableau)?;
        let mut suffix = Circuit::new(n, circuit.name());
        for op in &ops[prefix..] {
            suffix.push(op.clone());
        }
        let result = self.sim.run_from(&suffix, initial)?;
        let mut stats: BackendStats = result.stats.clone().into();
        stats.engine = "hybrid";
        stats.clifford_prefix_len = prefix;
        stats.gates_applied += prefix_gates;
        stats.peak_size = stats.peak_size.max(tableau.storage_words());
        stats.runtime = span.finish();
        Ok(RunOutcome::new(
            stats,
            n,
            HybridHandle::Dd(Box::new(result)),
        ))
    }

    fn sample(&mut self, outcome: &RunOutcome<HybridHandle>) -> u64 {
        match outcome.handle() {
            HybridHandle::Clifford(t) => t.sample(&mut self.rng),
            HybridHandle::Dd(r) => self.sim.draw(r),
        }
    }

    fn sample_counts(
        &mut self,
        outcome: &RunOutcome<HybridHandle>,
        shots: usize,
    ) -> HashMap<u64, usize> {
        match outcome.handle() {
            HybridHandle::Clifford(t) => t.sample_counts(shots, &mut self.rng),
            HybridHandle::Dd(r) => self.sim.draw_counts(r, shots),
        }
    }

    fn amplitudes(&self, outcome: &RunOutcome<HybridHandle>) -> Result<Vec<Cplx>> {
        match outcome.handle() {
            HybridHandle::Clifford(t) => Ok(t.amplitudes()?),
            HybridHandle::Dd(r) => Ok(self.sim.amplitudes(r)?),
        }
    }

    fn probability(&self, outcome: &RunOutcome<HybridHandle>, basis: u64) -> Result<f64> {
        crate::check_basis(basis, outcome.n_qubits())?;
        match outcome.handle() {
            HybridHandle::Clifford(t) => Ok(t.probability(basis)),
            HybridHandle::Dd(r) => Ok(self.sim.package().probability(r.state(), basis)),
        }
    }

    fn release(&mut self, outcome: RunOutcome<HybridHandle>) {
        match outcome.handle() {
            HybridHandle::Clifford(_) => {}
            HybridHandle::Dd(r) => self.sim.release(r),
        }
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.sim.reseed(seed);
    }
}
