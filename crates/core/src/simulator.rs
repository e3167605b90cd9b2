//! The [`Simulator`]: applies circuits to decision-diagram states with
//! policy-controlled approximation rounds.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

use approxdd_circuit::{Circuit, Operation};
use approxdd_dd::{DdError, MEdge, Package, VEdge};
use approxdd_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::builder::SimulatorBuilder;
use crate::options::SimOptions;
use crate::policy::{
    memory_threshold_unreachable, PolicyAction, PolicyCtx, PolicyFactory, SharedObserver,
    TraceEvent,
};
use crate::Result;

/// Seed of a simulator's owned sampling RNG when none is given through
/// [`SimulatorBuilder::seed`] — fixed so unseeded runs stay
/// reproducible.
pub(crate) const DEFAULT_SAMPLE_SEED: u64 = 0x0A99_07DD;

/// Widest register [`Simulator::check_width`] admits.
const MAX_DD_QUBITS: usize = 63;

/// Source of the process-unique ids that tie a [`RunResult`] to the
/// [`Simulator`] that ran it (both draw from it).
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Statistics of one simulation run — the quantities Table I of the
/// paper reports per benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// State-transforming operations applied.
    pub gates_applied: usize,
    /// Maximum DD node count observed after any gate ("Max. DD Size").
    pub max_dd_size: usize,
    /// Approximation rounds actually performed ("Rounds").
    pub approx_rounds: usize,
    /// End-to-end fidelity estimate ("f_final"): the product of the
    /// measured per-round fidelities, following Lemma 1 of the paper.
    /// Exact when at most one round fires (each round's kept norm is
    /// measured exactly); with multiple rounds the product tracks the
    /// true `F(exact final, approx final)` closely — the lemma's
    /// identity holds exactly for aligned truncation sets, and the
    /// integration suite validates agreement within a few percent on
    /// supremacy workloads. 1.0 for exact runs.
    pub fidelity: f64,
    /// The target product: the product of the *target* fidelities of
    /// every fired round that actually removed nodes (a no-op round
    /// keeps fidelity exactly 1, so it charges nothing). Each charged
    /// round removes at most `1 − target` of contribution mass, so the
    /// estimate [`SimStats::fidelity`] is always ≥ this product. It is
    /// a target, not a bound: the true fidelity to the exact state can
    /// end below it. 1.0 for exact runs.
    pub fidelity_lower_bound: f64,
    /// Per-round measured fidelities, in application order.
    pub round_fidelities: Vec<f64>,
    /// Total nodes removed across all rounds.
    pub nodes_removed: usize,
    /// Wall-clock runtime of the run.
    pub runtime: Duration,
    /// Final node threshold ([`crate::ApproxPolicy::node_threshold`];
    /// memory-style policies grow it per round, schedule-driven
    /// policies report `None`).
    pub(crate) final_threshold: Option<usize>,
    /// Name of the [`crate::ApproxPolicy`] that steered the run
    /// (`"exact"`, `"memory-driven"`, `"fidelity-driven"`, `"budget"`,
    /// or a custom policy's name).
    pub policy: String,
    /// DD size after every gate (only when
    /// [`SimulatorBuilder::record_size_series`] is set).
    pub size_series: Vec<usize>,
    /// DD-package counters at the end of the run: the compute table's
    /// hits and misses, unique-table occupancy, and
    /// peak node counts. Session-cumulative (the package persists
    /// across runs of one simulator) — see
    /// [`approxdd_dd::PackageStats`] for the accounting semantics.
    pub package: approxdd_dd::PackageStats,
}

/// The outcome of a run: the final state plus statistics. The state
/// edge stays registered as a GC root in the simulator's package until
/// the result is released with [`Simulator::release`].
///
/// # Lifetime
///
/// A result is *live* from the run that made it until its release.
/// Every simulator query that takes a result ([`Simulator::sample`],
/// [`Simulator::draw`], [`Simulator::draw_counts`],
/// [`Simulator::amplitudes`], [`Simulator::probability`],
/// [`Simulator::expectation`], [`Simulator::fidelity_between`]) and
/// [`Simulator::release`] itself panics on a result that is not live in
/// that simulator: one already released, a clone of a released result
/// (a clone is the same result), or one another simulator ran. A
/// second release would otherwise drop a root that a later run sharing
/// the same nodes still holds, and the collector would free that live
/// state under it.
///
/// [`RunResult::state`] hands out the raw [`VEdge`], which no check
/// guards: it is only meaningful inside the owning simulator's
/// [`Package`] while the result is live.
#[derive(Debug, Clone)]
pub struct RunResult {
    state: VEdge,
    n_qubits: usize,
    /// Process-unique: what the owning simulator's live set holds.
    id: u64,
    /// The id of the simulator that ran it.
    owner: u64,
    /// Run statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// The final state edge (owned by the simulator's package).
    ///
    /// The edge dangles once the result is passed to
    /// [`Simulator::release`] or the simulator is dropped — see the
    /// type-level *Lifetime* note.
    #[must_use]
    pub fn state(&self) -> VEdge {
        self.state
    }

    /// Register width of the simulated circuit.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }
}

/// Key identifying a gate DD in the per-simulator cache. Includes the
/// register width: one simulator session may run circuits of different
/// widths back to back, and a gate DD is only valid at the width it
/// was built for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GateKey {
    Gate {
        n_qubits: usize,
        name: &'static str,
        param_bits: u64,
        target: usize,
        controls: Vec<(usize, bool)>,
    },
    Permutation {
        n_qubits: usize,
        table_ptr: usize,
        lo: usize,
        k: usize,
        controls: Vec<(usize, bool)>,
    },
}

/// Keeps the allocation behind a pointer-keyed cache entry alive, so
/// the address in its [`GateKey`] can never be recycled by a new table
/// while the entry exists.
#[derive(Debug)]
enum TableGuard {
    // Held for ownership only, never read back.
    Perm(#[allow(dead_code)] std::sync::Arc<Vec<usize>>),
    Dense(#[allow(dead_code)] std::sync::Arc<Vec<approxdd_complex::Cplx>>),
}

/// A warmed simulator prefix shared across pooled workers: a [`Package`]
/// that built the gate DDs of one circuit (their nodes, unique-table
/// index and canonical ratios) plus the warmed gate-DD cache that maps
/// circuit operations onto its edges.
///
/// Built from one circuit by [`SimulatorBuilder::build_snapshot`] (the
/// job server builds one per warm session), then handed to every
/// worker job that runs that circuit via `Arc`. A simulator built over a
/// snapshot ([`SimulatorBuilder::build_with_snapshot`]) starts from a
/// [`Package::fork`] of the warmed package, whose nodes are its pinned
/// prefix, and resolves warmed gates from the snapshot's cache without
/// building them; everything else — state evolution, compute caches,
/// GC — is the job's own, which is what keeps results byte-identical to
/// a simulator that built the same gates itself.
#[derive(Debug)]
pub struct SimSnapshot {
    package: Package,
    gates: HashMap<GateKey, (MEdge, Option<TableGuard>)>,
    /// Simulators ever built over this snapshot (bumped by
    /// [`Simulator::with_snapshot`]).
    attaches: AtomicU64,
}

impl SimSnapshot {
    /// Warms the gate-DD cache over every gate of `circuit` (in
    /// circuit order — the order a lazy simulator would build them)
    /// and keeps a fork of the warmed package: the fork holds no
    /// compute-table slot array and no memo.
    ///
    /// # Errors
    ///
    /// Propagates gate-construction errors (e.g. malformed
    /// permutations) from the first offending operation.
    pub(crate) fn build(options: &SimOptions, circuit: &Circuit) -> Result<Self> {
        let _span = telemetry::Span::enter("snapshot.build");
        // The warming simulator never runs, so its policy is never built.
        let mut sim = Simulator::with_snapshot(
            *options,
            DEFAULT_SAMPLE_SEED,
            None,
            Arc::new(crate::Strategy::Exact),
        );
        for op in circuit.ops() {
            if op.is_gate() {
                sim.gate_dd(circuit, op)?;
            }
        }
        Ok(Self {
            package: sim.package.fork(None),
            gates: sim.gate_cache,
            attaches: AtomicU64::new(0),
        })
    }

    /// Gate DDs held in the warmed cache.
    #[must_use]
    pub fn cached_gates(&self) -> usize {
        self.gates.len()
    }

    /// Alive nodes (both kinds) in the warmed package: the pinned prefix
    /// of every simulator built over this snapshot.
    #[must_use]
    pub fn frozen_nodes(&self) -> usize {
        self.package.stats().frozen_nodes()
    }

    /// Simulators ever built over this snapshot (one per pooled worker
    /// job): the cross-batch reuse odometer warm serving sessions
    /// report. Diagnostic only — never part of any result or
    /// fingerprint.
    #[must_use]
    pub fn attaches(&self) -> u64 {
        self.attaches.load(Ordering::Relaxed)
    }
}

/// A DD-based quantum circuit simulator with policy-controlled
/// approximation (see the crate docs for the paper's two preset
/// strategies and [`crate::ApproxPolicy`] for the extensible seam).
///
/// The simulator owns a [`Package`]; run results reference nodes inside
/// it, so sampling and fidelity queries go through the simulator, which
/// refuses a result that is not live in it (see [`RunResult`]).
///
/// Every run builds a fresh policy instance from the simulator's
/// [`PolicyFactory`] (so policy state never leaks between runs) and
/// reports structured [`TraceEvent`]s to any attached observers.
pub struct Simulator {
    package: Package,
    options: SimOptions,
    gate_cache: HashMap<GateKey, (MEdge, Option<TableGuard>)>,
    /// The snapshot this simulator's package was forked from, when it
    /// was built over one ([`SimulatorBuilder::build_with_snapshot`]).
    /// Its gate cache is probed before the private one.
    snapshot: Option<Arc<SimSnapshot>>,
    /// Gate-DD lookups served by the snapshot's gate cache.
    snapshot_gate_hits: u64,
    rng: StdRng,
    policy_factory: Arc<dyn PolicyFactory>,
    observers: Vec<SharedObserver>,
    /// Stamped on every [`RunResult`] this simulator returns.
    id: u64,
    /// Ids of the results run here and not yet released.
    live: HashSet<u64>,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("package", &self.package)
            .field("options", &self.options)
            .field("observers", &self.observers.len())
            .field("gate_cache", &self.gate_cache.len())
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Starts a fluent [`SimulatorBuilder`] — the preferred way to
    /// configure a simulator.
    pub fn builder() -> SimulatorBuilder {
        SimulatorBuilder::new()
    }

    /// The one constructor (what [`SimulatorBuilder::build`] and
    /// [`SimulatorBuilder::build_with_snapshot`] call), optionally over
    /// a shared snapshot. Every run builds its approximation policy
    /// from `policy_factory`. With `Some`, the package is a
    /// [`Package::fork`] of the snapshot's, so new nodes get ids above
    /// its pinned prefix, and warmed gate DDs are served from the
    /// snapshot's cache (see [`SimSnapshot`]); `None` starts from an
    /// empty package.
    #[must_use]
    pub(crate) fn with_snapshot(
        options: SimOptions,
        seed: u64,
        snapshot: Option<Arc<SimSnapshot>>,
        policy_factory: Arc<dyn PolicyFactory>,
    ) -> Self {
        let package = match &snapshot {
            Some(snapshot) => {
                snapshot.attaches.fetch_add(1, Ordering::Relaxed);
                snapshot.package.fork(options.compute_cache_bits)
            }
            None => Package::with_config(
                approxdd_complex::Tolerance::default(),
                options.compute_cache_bits,
            ),
        };
        Self {
            package,
            policy_factory,
            observers: Vec::new(),
            options,
            gate_cache: HashMap::new(),
            snapshot,
            snapshot_gate_hits: 0,
            rng: StdRng::seed_from_u64(seed),
            id: next_id(),
            live: HashSet::new(),
        }
    }

    /// Gate-DD lookups served by the snapshot's gate cache (0 without
    /// a snapshot).
    #[must_use]
    pub fn snapshot_gate_hits(&self) -> u64 {
        self.snapshot_gate_hits
    }

    /// Attaches a trace observer; every subsequent run reports its
    /// [`TraceEvent`]s to it (in addition to any observers attached
    /// earlier). Keep your own clone of the handle to read results
    /// back — see [`crate::TraceRecorder`].
    pub fn attach_observer(&mut self, observer: SharedObserver) {
        self.observers.push(observer);
    }

    /// Re-seeds the owned sampling RNG.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Read access to the underlying DD package (sizes, DOT export…).
    #[must_use]
    pub fn package(&self) -> &Package {
        &self.package
    }

    /// Mutable access to the underlying DD package, e.g. for computing
    /// fidelities between run results.
    pub fn package_mut(&mut self) -> &mut Package {
        &mut self.package
    }

    /// Runs `circuit` from `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Strategy validation errors, circuit validation errors, or DD
    /// engine errors (e.g. malformed permutations, a register
    /// [`Simulator::check_width`] refuses).
    pub fn run(&mut self, circuit: &Circuit) -> Result<RunResult> {
        // Before any state is built for it: `zero_state` asserts.
        Self::check_width(circuit)?;
        let initial = self.package.zero_state(circuit.n_qubits());
        self.run_from(circuit, initial)
    }

    /// Whether [`Simulator::run`] can build a start state for
    /// `circuit`'s register: the engine builds and samples basis states
    /// by `u64` index (`Package::basis_state`), so 63 qubits is the
    /// widest. What every run, and the job server's door, admits
    /// registers by.
    ///
    /// # Errors
    ///
    /// [`DdError::TooManyQubits`] (as [`crate::SimError::Dd`]).
    pub fn check_width(circuit: &Circuit) -> Result<()> {
        let n_qubits = circuit.n_qubits();
        if n_qubits > MAX_DD_QUBITS {
            return Err(DdError::TooManyQubits {
                n_qubits,
                max: MAX_DD_QUBITS,
            }
            .into());
        }
        Ok(())
    }

    /// Runs `circuit` from a caller-provided initial state (which must
    /// live in this simulator's package and have matching width).
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    pub fn run_from(&mut self, circuit: &Circuit, initial: VEdge) -> Result<RunResult> {
        // A fresh policy per run: no run observes another run's policy
        // state — the determinism linchpin of pooled execution.
        let mut policy = self.policy_factory.build();
        // The clock starts with the run, so the policy's `begin` counts
        // against the budget.
        let deadline = self.options.deadline.map(|budget| (budget, Instant::now()));
        policy.begin(circuit)?;
        circuit.validate()?;
        // Non-fatal: an unreachable threshold means an exact run, which
        // is a valid configuration — but usually an accidental one
        // (e.g. a sweep's fixed threshold outgrowing its narrowest
        // circuits), so flag it loudly instead of silently never
        // approximating. Here and not in `begin`, which validation
        // also calls: once per run.
        if let Some(threshold) = policy.node_threshold() {
            if memory_threshold_unreachable(threshold, circuit.n_qubits()) {
                eprintln!(
                    "warning: memory threshold {threshold} can never fire on {} ({} qubits): \
                     a width-n state DD holds at most 2^n - 1 nodes, so this run is exact",
                    circuit.name(),
                    circuit.n_qubits()
                );
            }
        }
        let level = self.package.vlevel(initial);
        if level != circuit.n_qubits() {
            return Err(crate::SimError::WidthMismatch {
                state: level,
                circuit: circuit.n_qubits(),
            });
        }
        let run_span = telemetry::Span::enter("dd.run");
        let apply_timer = telemetry::PhaseTimer::new("dd.apply");
        let size_timer = telemetry::PhaseTimer::new("dd.size");

        let mut state = initial;
        self.package.inc_ref(state);

        let mut stats = SimStats {
            gates_applied: 0,
            max_dd_size: self.package.vsize(state),
            approx_rounds: 0,
            fidelity: 1.0,
            fidelity_lower_bound: 1.0,
            round_fidelities: Vec::new(),
            nodes_removed: 0,
            runtime: Duration::ZERO,
            final_threshold: None,
            size_series: Vec::new(),
            policy: policy.name().to_string(),
            package: approxdd_dd::PackageStats::default(),
        };

        self.emit(|| TraceEvent::RunStarted {
            circuit: circuit.name().to_string(),
            n_qubits: circuit.n_qubits(),
            total_ops: circuit.ops().len(),
            policy: policy.name().to_string(),
        });

        let mut live_nodes = stats.max_dd_size;
        for (i, op) in circuit.ops().iter().enumerate() {
            let applied_gate = op.is_gate();
            if applied_gate {
                // On failure, release the state root before returning —
                // a leaked root would pin the partial state in the
                // package forever (all error paths below do the same).
                let gate = match self.gate_dd(circuit, op) {
                    Ok(gate) => gate,
                    Err(e) => {
                        self.package.dec_ref(state);
                        return Err(e);
                    }
                };
                let new_state = apply_timer.time(|| self.package.apply(gate, state));
                self.swap_root(&mut state, new_state);
                stats.gates_applied += 1;

                live_nodes = size_timer.time(|| self.package.vsize(state));
                stats.max_dd_size = stats.max_dd_size.max(live_nodes);
                if self.options.record_size_series {
                    stats.size_series.push(live_nodes);
                }
                self.emit(|| TraceEvent::GateApplied {
                    op_index: i,
                    gates_applied: stats.gates_applied,
                    live_nodes,
                });
            }

            // The guard every policy runs under, custom ones included.
            // A single long operation can overshoot the budget: the run
            // stops at the first check past it.
            if let Some((budget, started)) = deadline {
                if started.elapsed() >= budget {
                    self.package.dec_ref(state);
                    return Err(crate::SimError::DeadlineExceeded {
                        op_index: i,
                        budget,
                    });
                }
            }
            let ctx = PolicyCtx {
                op_index: i,
                applied_gate,
                gates_applied: stats.gates_applied,
                live_nodes,
                fidelity_lower_bound: stats.fidelity_lower_bound,
            };
            let mut truncated = false;
            match policy.decide(&ctx) {
                PolicyAction::Continue => {}
                PolicyAction::Truncate { round_fidelity } => {
                    if !(round_fidelity > 0.0 && round_fidelity <= 1.0) {
                        self.package.dec_ref(state);
                        return Err(crate::SimError::InvalidStrategy {
                            reason: "policy returned a round fidelity outside (0, 1]",
                        });
                    }
                    self.emit(|| TraceEvent::RoundStarted {
                        op_index: i,
                        round: stats.approx_rounds + 1,
                        target_fidelity: round_fidelity,
                        live_nodes,
                    });
                    let nodes_before = live_nodes;
                    let removed_before = stats.nodes_removed;
                    // The round already counted the state it produced.
                    live_nodes = match self.truncate_state(&mut state, round_fidelity, &mut stats) {
                        Ok(size_after) => size_after,
                        Err(e) => {
                            self.package.dec_ref(state);
                            return Err(e);
                        }
                    };
                    // A no-op round kept fidelity exactly 1 — charging
                    // its target to the product would make budget
                    // policies burn budget on rounds that removed
                    // nothing.
                    if stats.nodes_removed > removed_before {
                        stats.fidelity_lower_bound *= round_fidelity;
                    }
                    self.emit(|| TraceEvent::Truncated {
                        op_index: i,
                        round: stats.approx_rounds,
                        nodes_before,
                        nodes_after: live_nodes,
                        removed_nodes: stats.nodes_removed - removed_before,
                        removed_mass: 1.0 - stats.round_fidelities.last().copied().unwrap_or(1.0),
                    });
                    truncated = true;
                }
                PolicyAction::Abort => {
                    self.package.dec_ref(state);
                    return Err(crate::SimError::PolicyAbort {
                        op_index: i,
                        policy: policy.name().to_string(),
                    });
                }
            }
            if applied_gate || truncated {
                self.maybe_gc();
            }
        }

        stats.final_threshold = policy.node_threshold();
        stats.package = self.package.stats();
        stats.runtime = run_span.finish();
        self.emit(|| TraceEvent::RunFinished {
            gates_applied: stats.gates_applied,
            rounds: stats.approx_rounds,
            fidelity: stats.fidelity,
            fidelity_lower_bound: stats.fidelity_lower_bound,
        });
        let id = next_id();
        self.live.insert(id);
        Ok(RunResult {
            state,
            n_qubits: circuit.n_qubits(),
            id,
            owner: self.id,
            stats,
        })
    }

    /// Delivers one trace event to every attached observer. The closure
    /// keeps event construction free when nobody is listening.
    fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if self.observers.is_empty() {
            return;
        }
        let event = make();
        for observer in &self.observers {
            observer
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .on_event(&event);
        }
    }

    /// Ends a result's life: its state leaves the GC roots, and every
    /// later query or release of it (or of a clone) panics. Borrows
    /// rather than consumes, so a caller holding clones keeps them; the
    /// live set, not ownership, is what refuses them.
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[track_caller]
    pub fn release(&mut self, result: &RunResult) {
        let state = self.state_of(result);
        self.live.remove(&result.id);
        self.package.dec_ref(state);
    }

    /// Draws one measurement outcome from a run's final state.
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[must_use]
    #[track_caller]
    pub fn sample<R: Rng + ?Sized>(&self, result: &RunResult, rng: &mut R) -> u64 {
        self.package.sample(self.state_of(result), rng)
    }

    /// Draws one outcome using the simulator's owned RNG (seeded via
    /// [`SimulatorBuilder::seed`]).
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[track_caller]
    pub fn draw(&mut self, result: &RunResult) -> u64 {
        let state = self.state_of(result);
        self.package.sample(state, &mut self.rng)
    }

    /// Draws `shots` outcomes using the simulator's owned RNG, as
    /// `(outcome, count)` runs in ascending outcome order
    /// ([`approxdd_dd::Package::sample_counts`]'s routing pass).
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[track_caller]
    pub fn draw_counts(&mut self, result: &RunResult, shots: usize) -> Vec<(u64, usize)> {
        let state = self.state_of(result);
        self.package.sample_counts(state, shots, &mut self.rng)
    }

    /// Dense amplitudes of a run's final state (small registers only).
    ///
    /// # Errors
    ///
    /// Propagates [`approxdd_dd::DdError::TooManyQubits`] beyond 26
    /// qubits.
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[track_caller]
    pub fn amplitudes(&self, result: &RunResult) -> Result<Vec<approxdd_complex::Cplx>> {
        let state = self.state_of(result);
        Ok(self.package.to_amplitudes(state, result.n_qubits())?)
    }

    /// Born-rule probability of the basis state `basis` in a run's
    /// final state.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::BasisOutOfRange`] when `basis` does not fit
    /// the register.
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[track_caller]
    pub fn probability(&self, result: &RunResult, basis: u64) -> Result<f64> {
        let state = self.state_of(result);
        let n_qubits = result.n_qubits();
        if n_qubits < 64 && basis >> n_qubits != 0 {
            return Err(crate::SimError::BasisOutOfRange { basis, n_qubits });
        }
        Ok(self.package.probability(state, basis))
    }

    /// Expectation value of the diagonal observable `Σ f(i) |i⟩⟨i|` in
    /// a run's final state, derived from [`Simulator::amplitudes`],
    /// whose width limit it shares.
    ///
    /// # Errors
    ///
    /// See [`Simulator::amplitudes`].
    ///
    /// # Panics
    ///
    /// When `result` is not live here (see [`RunResult`]).
    #[track_caller]
    pub fn expectation(&self, result: &RunResult, diagonal: &dyn Fn(u64) -> f64) -> Result<f64> {
        let amps = self.amplitudes(result)?;
        Ok(amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.mag2() * diagonal(i as u64))
            .sum())
    }

    /// Exact fidelity between two run results (their states must live in
    /// this simulator's package — e.g. an exact and an approximate run
    /// of the same circuit on the same simulator).
    ///
    /// # Panics
    ///
    /// When either result is not live here (see [`RunResult`]).
    #[must_use]
    #[track_caller]
    pub fn fidelity_between(&mut self, a: &RunResult, b: &RunResult) -> f64 {
        let (a, b) = (self.state_of(a), self.state_of(b));
        self.package.fidelity(a, b)
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    /// The state edge of `result`, which every query and [`Simulator::release`]
    /// reads through here.
    ///
    /// # Panics
    ///
    /// When `result` is not live in this simulator, naming the misuse.
    #[track_caller]
    fn state_of(&self, result: &RunResult) -> VEdge {
        assert!(
            result.owner == self.id,
            "run result {} belongs to another simulator: query and release a result \
             on the simulator that ran it",
            result.id
        );
        assert!(
            self.live.contains(&result.id),
            "run result {} was already released (or is a clone of a released result): \
             its state may have been freed",
            result.id
        );
        result.state
    }

    /// Runs one truncation round on `state` and books it into `stats`;
    /// returns the node count of the state the round left behind.
    fn truncate_state(
        &mut self,
        state: &mut VEdge,
        round_fidelity: f64,
        stats: &mut SimStats,
    ) -> Result<usize> {
        let span = telemetry::Span::enter("dd.truncate");
        let budget = 1.0 - round_fidelity;
        let result = self.package.truncate(*state, budget)?;
        if result.removed_nodes > 0 {
            let new_state = result.edge;
            self.swap_root(state, new_state);
            stats.approx_rounds += 1;
            stats.fidelity *= result.fidelity;
            stats.round_fidelities.push(result.fidelity);
            stats.nodes_removed += result.removed_nodes;
        } else {
            // A no-op round (nothing below budget) still counts as a
            // scheduled round with fidelity 1 for reporting parity with
            // the paper's "Rounds" column.
            stats.approx_rounds += 1;
            stats.round_fidelities.push(1.0);
        }
        let _ = span.finish();
        telemetry::count("approxdd_truncation_rounds_total", 1);
        telemetry::count(
            "approxdd_truncated_nodes_total",
            result.removed_nodes as u64,
        );
        Ok(result.size_after)
    }

    fn swap_root(&mut self, state: &mut VEdge, new_state: VEdge) {
        self.package.inc_ref(new_state);
        self.package.dec_ref(*state);
        *state = new_state;
    }

    fn maybe_gc(&mut self) {
        // The nodes this run would hold without a snapshot: its own ones
        // plus the warmed gate DDs it has used (see `gate_dd`). The rest
        // of the pinned prefix must not drive the trigger.
        if self.package.collectable_nodes() > self.options.gc_node_threshold {
            self.package.collect_garbage();
        }
    }

    /// Builds (or fetches from cache) the operation DD for a circuit op.
    pub(crate) fn gate_dd(&mut self, circuit: &Circuit, op: &Operation) -> Result<MEdge> {
        let n = circuit.n_qubits();
        let key = match op {
            Operation::Gate {
                gate,
                target,
                controls: _,
            } => GateKey::Gate {
                n_qubits: n,
                name: gate.name(),
                param_bits: gate.parameter().map_or(0, f64::to_bits),
                target: *target,
                controls: op.control_pairs(),
            },
            Operation::Permutation { lo, k, perm, .. } => GateKey::Permutation {
                n_qubits: n,
                table_ptr: perm.as_ptr() as usize,
                lo: *lo,
                k: *k,
                controls: op.control_pairs(),
            },
            Operation::DenseBlock { lo, k, matrix, .. } => GateKey::Permutation {
                n_qubits: n,
                table_ptr: matrix.as_ptr() as usize,
                lo: *lo,
                k: *k,
                controls: op.control_pairs(),
            },
            Operation::ApproxPoint | Operation::Barrier => {
                unreachable!("markers are not gates")
            }
        };
        // Snapshot first: a warmed gate is served without building it.
        // Its nodes are in the package's pinned prefix, which no
        // collection frees. Registering them (and the
        // full-width identity every gate build pre-warms) only counts
        // what a private build would have interned toward the GC
        // trigger, so collections fire at the same gate with or
        // without the snapshot.
        if let Some(snap) = &self.snapshot {
            if let Some(&(e, _)) = snap.gates.get(&key) {
                self.snapshot_gate_hits += 1;
                let identity = self.package.identity(n);
                self.package.inc_ref_m(identity);
                self.package.inc_ref_m(e);
                return Ok(e);
            }
        }
        if let Some(&(e, _)) = self.gate_cache.get(&key) {
            return Ok(e);
        }
        let build_span = telemetry::Span::enter("dd.gate_build");
        // For pointer-keyed entries, clone the table's Arc into the
        // cache: while the guard lives, the allocation cannot be freed
        // and recycled at the same address by an unrelated circuit.
        let (edge, guard) = match op {
            Operation::Gate { gate, target, .. } => (
                self.package.controlled_gate_polarized(
                    n,
                    &op.control_pairs(),
                    *target,
                    gate.matrix(),
                )?,
                None,
            ),
            Operation::Permutation { lo, k, perm, .. } => (
                self.package
                    .permutation_gate(n, *lo, *k, perm, &op.control_pairs())?,
                Some(TableGuard::Perm(perm.clone())),
            ),
            Operation::DenseBlock { lo, k, matrix, .. } => (
                self.package
                    .dense_block_gate(n, *lo, *k, matrix, &op.control_pairs())?,
                Some(TableGuard::Dense(matrix.clone())),
            ),
            _ => unreachable!(),
        };
        self.package.inc_ref_m(edge);
        self.gate_cache.insert(key, (edge, guard));
        let _ = build_span.finish();
        Ok(edge)
    }

    /// Number of gate DDs currently resolvable from this simulator's
    /// caches — the private cache plus, when built over a snapshot,
    /// the snapshot's (pool worker statistics report this per
    /// backend instance).
    #[must_use]
    pub fn gate_cache_len(&self) -> usize {
        let warmed = self.snapshot.as_ref().map_or(0, |s| s.gates.len());
        warmed + self.gate_cache.len()
    }
}

impl Default for Simulator {
    fn default() -> Self {
        SimulatorBuilder::new().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SimError;
    use crate::options::Strategy;
    use approxdd_circuit::generators;
    use approxdd_statevector::State;

    fn cross_validate(circuit: &Circuit) {
        let mut sim = Simulator::default();
        let run = sim.run(circuit).unwrap();
        let dd_amps = sim.amplitudes(&run).unwrap();

        let mut sv = State::zero(circuit.n_qubits());
        sv.run(circuit).unwrap();
        for (i, (a, b)) in dd_amps.iter().zip(sv.amplitudes()).enumerate() {
            assert!(
                (*a - *b).mag() < 1e-9,
                "{}: amplitude {i} differs: dd={a} sv={b}",
                circuit.name()
            );
        }
    }

    #[test]
    fn exact_matches_statevector_on_standard_circuits() {
        cross_validate(&generators::ghz(6));
        cross_validate(&generators::w_state(5));
        cross_validate(&generators::qft(5));
        cross_validate(&generators::bernstein_vazirani(7, 0b1010011));
        cross_validate(&generators::grover(5, 0b10110, None));
    }

    #[test]
    fn exact_matches_statevector_on_random_circuits() {
        for seed in 0..4 {
            cross_validate(&generators::random_circuit(6, 10, seed));
        }
    }

    #[test]
    fn exact_matches_statevector_on_supremacy() {
        cross_validate(&generators::supremacy(2, 3, 8, 3));
    }

    #[test]
    fn one_qubit_run_never_consults_a_compute_table() {
        // Every node of a 1-qubit state sits on the terminal level,
        // where the DD operations compute instead of memoizing.
        let mut circuit = Circuit::new(1, "one_qubit");
        circuit.h(0).t(0).rx(0.3, 0).h(0).s(0).ry(1.1, 0);
        cross_validate(&circuit);
        let mut sim = Simulator::default();
        let run = sim.run(&circuit).unwrap();
        let package = &run.stats.package;
        assert_eq!(package.ct_hits + package.ct_misses, 0);
        // Higher up the tables are in use again (`qft(2)` adds nothing
        // the `add` table is consulted for; `qft(3)` does, 4 times).
        let run = sim.run(&generators::qft(3)).unwrap();
        assert!(run.stats.package.ct_misses > 0);
    }

    #[test]
    fn ghz_sampling_hits_both_branches() {
        let mut sim = Simulator::default();
        let run = sim.run(&generators::ghz(10)).unwrap();
        let counts = sim.draw_counts(&run, 500);
        let outcomes: Vec<u64> = counts.iter().map(|&(outcome, _)| outcome).collect();
        assert_eq!(outcomes, [0, 0x3FF]);
    }

    #[test]
    fn exact_run_reports_unit_fidelity() {
        let mut sim = Simulator::default();
        let run = sim.run(&generators::qft(6)).unwrap();
        assert_eq!(run.stats.fidelity, 1.0);
        assert_eq!(run.stats.approx_rounds, 0);
        assert!(run.stats.max_dd_size >= 1);
        assert_eq!(run.stats.gates_applied, generators::qft(6).gate_count());
    }

    #[test]
    fn fidelity_driven_respects_final_bound() {
        let circuit = generators::supremacy(2, 3, 12, 1);
        let mut sim = Simulator::builder()
            .strategy(Strategy::fidelity_driven(0.6, 0.9))
            .build();
        let run = sim.run(&circuit).unwrap();
        assert!(
            run.stats.fidelity >= 0.6 - 1e-9,
            "fidelity {} below bound",
            run.stats.fidelity
        );
        // Verify the reported fidelity against an exact co-simulation.
        let mut exact = Simulator::default();
        let exact_run = exact.run(&circuit).unwrap();
        let approx_amps = sim.amplitudes(&run).unwrap();
        let exact_amps = exact.amplitudes(&exact_run).unwrap();
        let mut ip = approxdd_complex::Cplx::ZERO;
        for (a, b) in exact_amps.iter().zip(&approx_amps) {
            ip += a.conj() * *b;
        }
        let measured = ip.mag2();
        // Product of round fidelities tracks the true overlap (exact
        // under Lemma 1's aligned-set assumption; a few percent in a
        // live multi-round run).
        assert!(
            (measured - run.stats.fidelity).abs() < 0.05,
            "reported {} vs measured {} (Lemma 1 estimate)",
            run.stats.fidelity,
            measured
        );
    }

    #[test]
    fn memory_driven_bounds_dd_size() {
        let circuit = generators::supremacy(2, 3, 14, 2);
        // Exact size for reference.
        let mut exact = Simulator::default();
        let exact_run = exact.run(&circuit).unwrap();

        let threshold = 12;
        let mut sim = Simulator::builder()
            .strategy(Strategy::memory_driven(threshold, 0.9))
            .build();
        let run = sim.run(&circuit).unwrap();
        assert!(run.stats.approx_rounds > 0, "threshold should trigger");
        assert!(
            run.stats.max_dd_size <= exact_run.stats.max_dd_size,
            "approximation may not increase the max DD size here"
        );
        assert!(run.stats.fidelity > 0.0 && run.stats.fidelity <= 1.0);
        let ft = run.stats.final_threshold.unwrap();
        assert!(ft >= threshold * 2, "threshold must double per round");
    }

    #[test]
    fn fidelity_product_matches_round_fidelities() {
        let circuit = generators::supremacy(2, 2, 10, 5);
        let mut sim = Simulator::builder()
            .strategy(Strategy::fidelity_driven(0.7, 0.95))
            .build();
        let run = sim.run(&circuit).unwrap();
        let product: f64 = run.stats.round_fidelities.iter().product();
        assert!((product - run.stats.fidelity).abs() < 1e-12);
        assert_eq!(run.stats.round_fidelities.len(), run.stats.approx_rounds);
    }

    #[test]
    fn size_series_is_recorded_on_request() {
        let circuit = generators::ghz(5);
        let mut sim = Simulator::builder().record_size_series(true).build();
        let run = sim.run(&circuit).unwrap();
        assert_eq!(run.stats.size_series.len(), circuit.gate_count());
    }

    #[test]
    fn invalid_strategy_is_rejected_before_running() {
        let mut sim = Simulator::builder()
            .strategy(Strategy::fidelity_driven(2.0, 0.9))
            .build();
        assert!(matches!(
            sim.run(&generators::ghz(3)),
            Err(SimError::InvalidStrategy { .. })
        ));
    }

    #[test]
    fn gate_cache_is_reused_across_runs() {
        let circuit = generators::qft(5);
        let mut sim = Simulator::default();
        let r1 = sim.run(&circuit).unwrap();
        let r2 = sim.run(&circuit).unwrap();
        assert!((sim.fidelity_between(&r1, &r2) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fidelity_driven_rounds_honor_the_floor() {
        let circuit = generators::supremacy(2, 3, 12, 1);
        let strategy = Strategy::FidelityDriven {
            final_fidelity: 0.6,
            round_fidelity: 0.9,
        };
        let mut sim = Simulator::builder().strategy(strategy).build();
        let run = sim.run(&circuit).unwrap();
        // The estimate stays above the target, the rounds engage, the
        // state stays normalized.
        assert!(run.stats.fidelity >= 0.6 - 1e-9);
        assert!(run.stats.approx_rounds > 0);
        let amps = sim.amplitudes(&run).unwrap();
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn one_session_runs_circuits_of_different_widths() {
        // Regression: the gate cache is keyed by register width — a
        // session reusing cached gate DDs across widths must not mix
        // them up.
        let mut sim = Simulator::default();
        for circuit in [
            generators::ghz(6),
            generators::qft(5),
            generators::ghz(6),
            generators::w_state(4),
        ] {
            let run = sim.run(&circuit).unwrap();
            let amps = sim.amplitudes(&run).unwrap();
            let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
            assert!((norm - 1.0).abs() < 1e-9, "{}", circuit.name());
        }
    }

    #[test]
    fn run_from_rejects_width_mismatch() {
        let mut sim = Simulator::default();
        let small = sim.package_mut().zero_state(2);
        assert!(matches!(
            sim.run_from(&generators::ghz(4), small),
            Err(SimError::WidthMismatch {
                state: 2,
                circuit: 4
            })
        ));
    }

    #[test]
    fn snapshot_run_matches_plain_run_bitwise() {
        let circuits = [generators::qft(5), generators::ghz(6)];
        // Collections interleave: they must fire at the same gates.
        let options = SimOptions {
            gc_node_threshold: 16,
            ..SimOptions::default()
        };
        let exact = || Arc::new(Strategy::Exact) as Arc<dyn PolicyFactory>;
        for circuit in &circuits {
            let snapshot = Arc::new(SimSnapshot::build(&options, circuit).unwrap());
            assert!(snapshot.cached_gates() > 0);
            assert!(snapshot.frozen_nodes() > 0);
            let mut plain = Simulator::with_snapshot(options, 7, None, exact());
            let want = plain.run(circuit).unwrap();
            let want_amps = plain.amplitudes(&want).unwrap();

            let mut snap =
                Simulator::with_snapshot(options, 7, Some(Arc::clone(&snapshot)), exact());
            let got = snap.run(circuit).unwrap();
            let got_amps = snap.amplitudes(&got).unwrap();
            for (g, w) in got_amps.iter().zip(&want_amps) {
                assert_eq!(g.re.to_bits(), w.re.to_bits(), "{}", circuit.name());
                assert_eq!(g.im.to_bits(), w.im.to_bits(), "{}", circuit.name());
            }
            assert!(
                snap.snapshot_gate_hits() > 0,
                "every gate was warmed, so every lookup must hit the snapshot's cache"
            );
            assert_eq!(
                snap.package().stats().frozen_nodes(),
                snapshot.frozen_nodes()
            );
            let gc_runs = [&plain, &snap].map(|sim| sim.package().stats().gc_runs);
            assert!(
                gc_runs[0] > 0 && gc_runs[0] == gc_runs[1],
                "{}: {gc_runs:?}",
                circuit.name()
            );
        }
    }

    #[test]
    fn run_survives_aggressive_gc() {
        let circuit = generators::random_circuit(8, 12, 3);
        // Force frequent collections.
        let mut sim = Simulator::builder().gc_node_threshold(64).build();
        let run = sim.run(&circuit).unwrap();
        // State is intact: norm 1.
        let amps = sim.amplitudes(&run).unwrap();
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "norm {norm}");
    }
}
