//! The composable approximation-policy and run-trace observer API.
//!
//! The reproduced paper's contribution is *when and how hard to
//! approximate* during DD simulation. This module makes that decision a
//! first-class, user-extensible seam instead of a closed enum: after
//! every circuit operation the [`crate::Simulator`] hands the run's
//! [`ApproxPolicy`] a [`PolicyCtx`] snapshot and receives a
//! [`PolicyAction`] back; a companion [`SimObserver`] hook receives
//! structured [`TraceEvent`]s so callers can audit every approximation
//! decision without touching simulator internals.
//!
//! The closed [`Strategy`] enum survives as a thin preset layer: it
//! implements [`PolicyFactory`], so `builder.strategy(s)` is
//! `builder.policy(s)` and a pool job takes a preset through
//! `PoolJob::policy` — the preset merely *constructs* the matching
//! policy.
//!
//! # Writing a policy
//!
//! Policies are plain trait objects — stateful, built fresh for every
//! run by a [`PolicyFactory`] (which is what makes pooled execution
//! deterministic under any worker count: no run observes another run's
//! policy state).
//!
//! ```
//! use approxdd_sim::{ApproxPolicy, PolicyAction, PolicyCtx, Simulator};
//!
//! /// Truncates whenever the DD grows beyond 1000 nodes, but never
//! /// spends more than half the fidelity budget.
//! #[derive(Debug, Default)]
//! struct Cautious;
//!
//! impl ApproxPolicy for Cautious {
//!     fn name(&self) -> &str {
//!         "cautious"
//!     }
//!     fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
//!         if ctx.applied_gate && ctx.live_nodes > 1000 && ctx.fidelity_lower_bound > 0.5 {
//!             PolicyAction::Truncate {
//!                 round_fidelity: 0.95,
//!             }
//!         } else {
//!             PolicyAction::Continue
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::builder().policy(|| Cautious).build();
//! let run = sim.run(&approxdd_circuit::generators::ghz(8)).unwrap();
//! assert_eq!(run.stats.policy, "cautious");
//! ```
//!
//! # Observing a run
//!
//! ```
//! use approxdd_sim::{Simulator, Strategy, TraceEvent, TraceRecorder};
//!
//! let trace = TraceRecorder::shared();
//! let mut sim = Simulator::builder()
//!     .strategy(Strategy::memory_driven(8, 0.9))
//!     .observe(trace.clone())
//!     .build();
//! sim.run(&approxdd_circuit::generators::qft(6)).unwrap();
//! let events = trace.lock().unwrap().take();
//! assert!(matches!(events.last(), Some(TraceEvent::RunFinished { .. })));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;

use crate::error::SimError;
use crate::options::Strategy;
use crate::schedule::plan_rounds;

/// The per-operation snapshot the simulator hands its [`ApproxPolicy`]
/// after every circuit operation (gates *and* markers — check
/// [`PolicyCtx::applied_gate`] to tell them apart).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCtx {
    /// Index of the current operation in `circuit.ops()`.
    pub(crate) op_index: usize,
    /// Total number of operations in the circuit.
    pub(crate) total_ops: usize,
    /// Whether the current operation applied a gate to the state (false
    /// for markers and barriers).
    pub applied_gate: bool,
    /// Whether the current operation is an
    /// [`approxdd_circuit::Operation::ApproxPoint`] block marker — the
    /// scheduled round positions of the paper's Sec. IV-C.
    pub(crate) at_marker: bool,
    /// Gates applied so far (including the current one).
    pub gates_applied: usize,
    /// Node count of the state DD right now.
    pub live_nodes: usize,
    /// Maximum state-DD node count observed so far this run.
    pub(crate) peak_nodes: usize,
    /// Approximation rounds performed so far this run.
    pub(crate) rounds_taken: usize,
    /// Product of the *target* fidelities of every round fired so far
    /// that actually removed nodes — the guaranteed floor on the final
    /// fidelity (1.0 before any round; no-op rounds provably keep
    /// fidelity 1 and charge nothing). Budget-style policies spend
    /// against this.
    pub fidelity_lower_bound: f64,
    /// Product of the *measured* per-round fidelities so far — the
    /// exact estimate [`crate::SimStats::fidelity`] reports (always ≥
    /// [`PolicyCtx::fidelity_lower_bound`]).
    pub(crate) fidelity_estimate: f64,
}

/// What a policy wants the simulator to do at the current operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyAction {
    /// Keep simulating exactly.
    Continue,
    /// Run one truncation round targeting the given per-round fidelity
    /// (the round removes up to `1 − round_fidelity` of contribution
    /// mass). Must lie in `(0, 1]`; the simulator rejects anything else
    /// with [`SimError::InvalidStrategy`].
    Truncate {
        /// Per-round target fidelity in `(0, 1]`.
        round_fidelity: f64,
    },
    /// Stop the run immediately; [`crate::Simulator::run`] returns
    /// [`SimError::PolicyAbort`]. For hard resource caps.
    Abort,
}

/// A pluggable approximation policy: decides, after every circuit
/// operation, whether to keep simulating, truncate, or abort.
///
/// Object-safe by design — simulators hold `Box<dyn ApproxPolicy>`
/// built fresh for each run by a [`PolicyFactory`], so policies may
/// carry arbitrary per-run state (thresholds, round plans, spent
/// budgets) without threading it through the simulator.
///
/// ```
/// use approxdd_sim::{ApproxPolicy, PolicyAction, PolicyCtx};
///
/// /// Truncate every 100 gates, gently.
/// struct EveryN;
/// impl ApproxPolicy for EveryN {
///     fn name(&self) -> &str {
///         "every-100-gates"
///     }
///     fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
///         if ctx.applied_gate && ctx.gates_applied % 100 == 0 {
///             PolicyAction::Truncate {
///                 round_fidelity: 0.99,
///             }
///         } else {
///             PolicyAction::Continue
///         }
///     }
/// }
/// let boxed: Box<dyn ApproxPolicy> = Box::new(EveryN); // object safe
/// assert_eq!(boxed.name(), "every-100-gates");
/// ```
pub trait ApproxPolicy {
    /// Short policy name, reported in [`crate::SimStats::policy`] and
    /// trace events. Deliberately excluded from
    /// pooled-outcome fingerprints so differently-named policies with
    /// identical decisions produce identical fingerprints.
    fn name(&self) -> &str;

    /// Called once before the run starts, with the circuit about to be
    /// simulated. Validate parameters and plan schedules here; errors
    /// abort the run before any gate is applied. The default accepts
    /// everything.
    ///
    /// A policy instance is built fresh per run, so `begin` does not
    /// need to reset state — but resetting here keeps hand-constructed
    /// instances reusable too.
    ///
    /// # Errors
    ///
    /// Typically [`SimError::InvalidStrategy`] for out-of-range
    /// parameters.
    fn begin(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        let _ = circuit;
        Ok(())
    }

    /// The per-operation decision. Called after every operation of the
    /// circuit, in order; see [`PolicyCtx`] for what the snapshot
    /// carries.
    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction;

    /// The policy's current node threshold, if it has one — reported as
    /// `crate::SimStats::final_threshold` after the run (memory-style
    /// policies grow it per round). `None` for schedule-driven
    /// policies.
    fn node_threshold(&self) -> Option<usize> {
        None
    }
}

/// Builds a fresh [`ApproxPolicy`] instance for each run.
///
/// The factory — not a policy instance — is what configuration carries
/// around: [`crate::SimulatorBuilder::policy`] stores one, and pooled
/// execution clones it into every worker so each job instantiates its
/// own policy. That per-job instantiation is a determinism requirement:
/// results stay bit-identical and worker-count-invariant because no run
/// can observe another run's policy state.
///
/// Implemented by every policy-returning `Fn` closure (`|| MyPolicy {
/// … }` and `|| Box::new(…) as Box<dyn ApproxPolicy>` both work) and
/// by [`Strategy`] itself (the preset layer).
pub trait PolicyFactory: Send + Sync {
    /// A fresh policy instance for one run.
    fn build(&self) -> Box<dyn ApproxPolicy>;
}

impl<P, F> PolicyFactory for F
where
    P: ApproxPolicy + 'static,
    F: Fn() -> P + Send + Sync,
{
    fn build(&self) -> Box<dyn ApproxPolicy> {
        Box::new(self())
    }
}

/// Boxes forward, so `Box<dyn ApproxPolicy>`-returning closures are
/// factories too.
impl<T: ApproxPolicy + ?Sized> ApproxPolicy for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn begin(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        (**self).begin(circuit)
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        (**self).decide(ctx)
    }

    fn node_threshold(&self) -> Option<usize> {
        (**self).node_threshold()
    }
}

/// The preset layer: every [`Strategy`] variant constructs its matching
/// policy, so enum-configured call sites run through the same seam as
/// custom policies.
impl PolicyFactory for Strategy {
    fn build(&self) -> Box<dyn ApproxPolicy> {
        match *self {
            Strategy::Exact => Box::new(ExactPolicy),
            Strategy::MemoryDriven {
                node_threshold,
                round_fidelity,
                threshold_growth,
            } => Box::new(MemoryDrivenPolicy::with_growth(
                node_threshold,
                round_fidelity,
                threshold_growth,
            )),
            Strategy::FidelityDriven {
                final_fidelity,
                round_fidelity,
            } => Box::new(FidelityDrivenPolicy::new(final_fidelity, round_fidelity)),
        }
    }
}

/// The non-approximating policy ([`Strategy::Exact`] preset): always
/// [`PolicyAction::Continue`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactPolicy;

impl ApproxPolicy for ExactPolicy {
    fn name(&self) -> &str {
        "exact"
    }

    fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
        PolicyAction::Continue
    }
}

/// The paper's Sec. IV-B reactive policy ([`Strategy::MemoryDriven`]
/// preset): after each gate, if the state DD exceeds the current node
/// threshold, truncate targeting `round_fidelity` and grow the
/// threshold by `threshold_growth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemoryDrivenPolicy {
    node_threshold: usize,
    round_fidelity: f64,
    threshold_growth: f64,
    current: usize,
}

/// Whether a memory threshold can ever fire on an `n_qubits`-wide run:
/// a width-`n` state DD holds at most `2^n − 1` nodes (a complete
/// binary tree of `n` levels), so a threshold at or above that ceiling
/// is dead weight — the run silently executes exactly, which is easy
/// to misread as "the policy held memory down". Widths where `2^n`
/// overflows `usize` can always exceed any representable threshold.
#[must_use]
pub(crate) fn memory_threshold_unreachable(node_threshold: usize, n_qubits: usize) -> bool {
    u32::try_from(n_qubits)
        .ok()
        .and_then(|n| 1usize.checked_shl(n))
        .is_some_and(|cap| node_threshold >= cap - 1)
}

impl MemoryDrivenPolicy {
    /// Fully parameterized construction (growth ≥ 1.0).
    #[must_use]
    pub(crate) fn with_growth(
        node_threshold: usize,
        round_fidelity: f64,
        threshold_growth: f64,
    ) -> Self {
        Self {
            node_threshold,
            round_fidelity,
            threshold_growth,
            current: node_threshold,
        }
    }

    fn as_strategy(&self) -> Strategy {
        Strategy::MemoryDriven {
            node_threshold: self.node_threshold,
            round_fidelity: self.round_fidelity,
            threshold_growth: self.threshold_growth,
        }
    }
}

impl ApproxPolicy for MemoryDrivenPolicy {
    fn name(&self) -> &str {
        "memory-driven"
    }

    fn begin(&mut self, _circuit: &Circuit) -> Result<(), SimError> {
        self.as_strategy().validate()?;
        self.current = self.node_threshold;
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        if ctx.applied_gate && ctx.live_nodes > self.current {
            let grown = (self.current as f64 * self.threshold_growth).ceil();
            self.current = if grown >= usize::MAX as f64 {
                usize::MAX
            } else {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    grown as usize
                }
            };
            PolicyAction::Truncate {
                round_fidelity: self.round_fidelity,
            }
        } else {
            PolicyAction::Continue
        }
    }

    fn node_threshold(&self) -> Option<usize> {
        Some(self.current)
    }
}

/// The paper's Sec. IV-C proactive policy ([`Strategy::FidelityDriven`]
/// preset): `⌊log_{f_round} f_final⌋` rounds planned before the run via
/// [`plan_rounds`] (block markers when present, evenly spaced
/// otherwise), guaranteeing the final fidelity stays above
/// `final_fidelity`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FidelityDrivenPolicy {
    final_fidelity: f64,
    round_fidelity: f64,
    plan: Vec<usize>,
    next: usize,
}

impl FidelityDrivenPolicy {
    /// A policy targeting `final_fidelity` with per-round target
    /// `round_fidelity` (the round plan is laid out in
    /// [`ApproxPolicy::begin`]).
    #[must_use]
    pub fn new(final_fidelity: f64, round_fidelity: f64) -> Self {
        Self {
            final_fidelity,
            round_fidelity,
            plan: Vec::new(),
            next: 0,
        }
    }

    fn as_strategy(&self) -> Strategy {
        Strategy::FidelityDriven {
            final_fidelity: self.final_fidelity,
            round_fidelity: self.round_fidelity,
        }
    }
}

impl ApproxPolicy for FidelityDrivenPolicy {
    fn name(&self) -> &str {
        "fidelity-driven"
    }

    fn begin(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        let strategy = self.as_strategy();
        strategy.validate()?;
        self.plan = plan_rounds(circuit, strategy.max_rounds());
        self.next = 0;
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        if self.plan.get(self.next) == Some(&ctx.op_index) {
            self.next += 1;
            PolicyAction::Truncate {
                round_fidelity: self.round_fidelity,
            }
        } else {
            PolicyAction::Continue
        }
    }
}

/// The natural hybrid of the paper's Sec. IV-B and IV-C (new in this
/// workspace): memory-triggered rounds that **stop approximating once a
/// final-fidelity budget is spent**. A round fires only when the state
/// DD exceeds `node_threshold` *and* spending another `round_fidelity`
/// would keep the guaranteed floor at or above `final_fidelity` — so
/// memory stays bounded while it can, and accuracy wins once the budget
/// runs out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPolicy {
    node_threshold: usize,
    round_fidelity: f64,
    final_fidelity: f64,
}

impl BudgetPolicy {
    /// Memory trigger at `node_threshold` (fixed, like the Table I
    /// regime), per-round target `round_fidelity`, total budget
    /// `final_fidelity`.
    #[must_use]
    pub fn new(node_threshold: usize, round_fidelity: f64, final_fidelity: f64) -> Self {
        Self {
            node_threshold,
            round_fidelity,
            final_fidelity,
        }
    }
}

impl ApproxPolicy for BudgetPolicy {
    fn name(&self) -> &str {
        "budget"
    }

    fn begin(&mut self, _circuit: &Circuit) -> Result<(), SimError> {
        if self.node_threshold == 0 {
            return Err(SimError::InvalidStrategy {
                reason: "budget node threshold must be positive",
            });
        }
        if !(self.round_fidelity > 0.0 && self.round_fidelity < 1.0) {
            return Err(SimError::InvalidStrategy {
                reason: "budget round fidelity must lie in (0, 1)",
            });
        }
        if !(self.final_fidelity > 0.0 && self.final_fidelity <= 1.0) {
            return Err(SimError::InvalidStrategy {
                reason: "budget final fidelity must lie in (0, 1]",
            });
        }
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        let affordable = ctx.fidelity_lower_bound * self.round_fidelity >= self.final_fidelity;
        if ctx.applied_gate && ctx.live_nodes > self.node_threshold && affordable {
            PolicyAction::Truncate {
                round_fidelity: self.round_fidelity,
            }
        } else {
            PolicyAction::Continue
        }
    }

    fn node_threshold(&self) -> Option<usize> {
        Some(self.node_threshold)
    }
}

/// A wall-clock deadline wrapped around any other policy: past the
/// budget, every decision becomes [`PolicyAction::Abort`] — the
/// cooperative enforcement seam the pool layer uses for per-job
/// deadlines (the paper's whole premise is that unapproximated DD
/// simulation can blow up, so a runaway job must not occupy a worker
/// forever).
///
/// The clock anchors at [`ApproxPolicy::begin`], so setup work before
/// the run does not count against the budget. Enforcement is
/// *cooperative*: the simulator consults its policy after every
/// operation, so a single enormous gate application can overshoot the
/// cutoff — the guarantee is "aborts at the first op past the
/// deadline", not a hard preemption.
///
/// The policy is transparent: [`ApproxPolicy::name`] and
/// [`ApproxPolicy::node_threshold`] delegate to the wrapped policy,
/// and before the cutoff every decision is the inner policy's — a
/// deadline that never fires changes no byte of the result.
///
/// A shared `fired` flag records whether the deadline (rather than the
/// inner policy) caused an abort; the pool layer reads it to convert
/// the generic `PolicyAbort` error into a typed
/// `ExecError::DeadlineExceeded`.
pub(crate) struct DeadlinePolicy {
    inner: Box<dyn ApproxPolicy>,
    budget: Duration,
    started: Option<Instant>,
    fired: Arc<AtomicBool>,
}

impl DeadlinePolicy {
    /// Wraps `inner`, reporting deadline hits through a caller-supplied
    /// flag — how [`DeadlineFactory`] shares one flag across the
    /// policies it builds.
    #[must_use]
    pub(crate) fn with_flag(
        inner: Box<dyn ApproxPolicy>,
        budget: Duration,
        fired: Arc<AtomicBool>,
    ) -> Self {
        Self {
            inner,
            budget,
            started: None,
            fired,
        }
    }
}

impl std::fmt::Debug for DeadlinePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlinePolicy")
            .field("inner", &self.inner.name())
            .field("budget", &self.budget)
            .field("fired", &self.fired.load(Ordering::Relaxed))
            .finish()
    }
}

impl ApproxPolicy for DeadlinePolicy {
    /// Transparent: the wrapped policy's name, so wrapping a preset in
    /// a deadline changes no reported label (and fingerprints exclude
    /// names anyway).
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        self.started = Some(Instant::now());
        self.inner.begin(circuit)
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        let expired = self
            .started
            .is_some_and(|started| started.elapsed() >= self.budget);
        if expired {
            self.fired.store(true, Ordering::Relaxed);
            return PolicyAction::Abort;
        }
        self.inner.decide(ctx)
    }

    fn node_threshold(&self) -> Option<usize> {
        self.inner.node_threshold()
    }
}

/// A [`PolicyFactory`] producing `DeadlinePolicy`-wrapped instances
/// of an inner factory's policies, all reporting through one shared
/// fired flag.
///
/// This is what the pool layer installs per job: the worker builds the
/// policy through this factory, runs the job, and on a `PolicyAbort`
/// error checks `DeadlineFactory::fired` to tell a deadline abort
/// from an ordinary policy abort.
pub struct DeadlineFactory {
    inner: Arc<dyn PolicyFactory>,
    budget: Duration,
    fired: Arc<AtomicBool>,
}

impl DeadlineFactory {
    /// A factory wrapping `inner`'s policies with `budget`.
    #[must_use]
    pub fn new(inner: Arc<dyn PolicyFactory>, budget: Duration) -> Self {
        Self {
            inner,
            budget,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Whether any policy built by this factory has hit its deadline.
    #[must_use]
    pub(crate) fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// The shared flag behind `DeadlineFactory::fired`.
    #[must_use]
    pub fn fired_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fired)
    }
}

impl std::fmt::Debug for DeadlineFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeadlineFactory")
            .field("budget", &self.budget)
            .field("fired", &self.fired())
            .finish()
    }
}

impl PolicyFactory for DeadlineFactory {
    fn build(&self) -> Box<dyn ApproxPolicy> {
        Box::new(DeadlinePolicy::with_flag(
            self.inner.build(),
            self.budget,
            Arc::clone(&self.fired),
        ))
    }
}

/// One structured event in a run's trace, delivered to every attached
/// [`SimObserver`] in order. Everything in an event is deterministic
/// (no wall-clock times), so traces of identical jobs are identical —
/// including across pool worker counts.
///
/// ```
/// use approxdd_sim::TraceEvent;
///
/// fn describe(event: &TraceEvent) -> String {
///     match event {
///         TraceEvent::Truncated {
///             nodes_before,
///             nodes_after,
///             removed_mass,
///             ..
///         } => format!("{nodes_before} -> {nodes_after} nodes (-{removed_mass:.3} mass)"),
///         other => format!("{other:?}"),
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A run began.
    RunStarted {
        /// Circuit name.
        circuit: String,
        /// Register width.
        n_qubits: usize,
        /// Operation count (gates + markers).
        total_ops: usize,
        /// Name of the policy steering the run.
        policy: String,
    },
    /// A gate was applied to the state.
    GateApplied {
        /// Operation index in `circuit.ops()`.
        op_index: usize,
        /// Gates applied so far (including this one).
        gates_applied: usize,
        /// State-DD node count after the gate.
        live_nodes: usize,
    },
    /// The policy requested a truncation round (emitted before the
    /// truncation runs).
    RoundStarted {
        /// Operation index the round fires after.
        op_index: usize,
        /// 1-based round number.
        round: usize,
        /// The round's target fidelity.
        target_fidelity: f64,
        /// State-DD node count going in.
        live_nodes: usize,
    },
    /// A truncation round finished.
    Truncated {
        /// Operation index the round fired after.
        op_index: usize,
        /// 1-based round number.
        round: usize,
        /// State-DD node count before the round.
        nodes_before: usize,
        /// State-DD node count after the round.
        nodes_after: usize,
        /// Nodes the round removed (0 for a no-op round — exactly the
        /// rounds that charge nothing to the fidelity floor).
        removed_nodes: usize,
        /// Contribution mass removed: `1 −` the round's measured
        /// fidelity (0.0 for a no-op round).
        removed_mass: f64,
    },
    /// The run completed successfully.
    RunFinished {
        /// Gates applied in total.
        gates_applied: usize,
        /// Rounds performed in total.
        rounds: usize,
        /// Measured end-to-end fidelity estimate.
        fidelity: f64,
        /// Guaranteed end-to-end fidelity floor.
        fidelity_lower_bound: f64,
    },
}

/// An observer of simulation [`TraceEvent`]s.
///
/// Attach one through [`crate::SimulatorBuilder::observe`] (or
/// [`crate::Simulator::attach_observer`]); keep your own clone of the
/// shared handle to read results back after the run:
///
/// ```
/// use approxdd_sim::{SimObserver, Simulator, Strategy, TraceEvent};
/// use std::sync::{Arc, Mutex};
///
/// /// Counts truncation rounds.
/// #[derive(Default)]
/// struct RoundCounter(usize);
/// impl SimObserver for RoundCounter {
///     fn on_event(&mut self, event: &TraceEvent) {
///         if matches!(event, TraceEvent::Truncated { .. }) {
///             self.0 += 1;
///         }
///     }
/// }
///
/// let counter = Arc::new(Mutex::new(RoundCounter::default()));
/// let mut sim = Simulator::builder()
///     .strategy(Strategy::memory_driven(8, 0.9))
///     .observe(counter.clone())
///     .build();
/// let run = sim.run(&approxdd_circuit::generators::qft(6)).unwrap();
/// assert_eq!(counter.lock().unwrap().0, run.stats.approx_rounds);
/// ```
pub trait SimObserver {
    /// Receives one trace event. Called synchronously on the simulating
    /// thread — keep it cheap (record, count, forward).
    fn on_event(&mut self, event: &TraceEvent);
}

/// A shareable observer handle: the simulator holds one clone, the
/// caller keeps another to read results back after the run.
pub type SharedObserver = Arc<Mutex<dyn SimObserver + Send>>;

/// The built-in observer: records every event into a vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty recorder behind a shared handle, ready for
    /// [`crate::SimulatorBuilder::observe`].
    #[must_use]
    pub fn shared() -> Arc<Mutex<TraceRecorder>> {
        Arc::new(Mutex::new(Self::new()))
    }

    /// The events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Takes the recorded events, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

impl SimObserver for TraceRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;

    fn ctx(applied_gate: bool, live_nodes: usize, fidelity_lower_bound: f64) -> PolicyCtx {
        PolicyCtx {
            op_index: 0,
            total_ops: 1,
            applied_gate,
            at_marker: false,
            gates_applied: 1,
            live_nodes,
            peak_nodes: live_nodes,
            rounds_taken: 0,
            fidelity_lower_bound,
            fidelity_estimate: fidelity_lower_bound,
        }
    }

    #[test]
    fn exact_policy_never_truncates() {
        let mut p = ExactPolicy;
        p.begin(&generators::ghz(3)).unwrap();
        assert_eq!(
            p.decide(&ctx(true, usize::MAX, 1.0)),
            PolicyAction::Continue
        );
        assert_eq!(p.node_threshold(), None);
    }

    #[test]
    fn memory_policy_fires_above_threshold_and_grows() {
        let mut p = MemoryDrivenPolicy::with_growth(10, 0.9, 2.0);
        p.begin(&generators::ghz(3)).unwrap();
        assert_eq!(p.decide(&ctx(true, 10, 1.0)), PolicyAction::Continue);
        assert_eq!(
            p.decide(&ctx(true, 11, 1.0)),
            PolicyAction::Truncate {
                round_fidelity: 0.9
            }
        );
        // Doubled: 11 nodes no longer trigger.
        assert_eq!(p.node_threshold(), Some(20));
        assert_eq!(p.decide(&ctx(true, 11, 1.0)), PolicyAction::Continue);
        // Never fires on non-gate operations.
        assert_eq!(p.decide(&ctx(false, 1000, 1.0)), PolicyAction::Continue);
        // begin() resets the grown threshold.
        p.begin(&generators::ghz(3)).unwrap();
        assert_eq!(p.node_threshold(), Some(10));
    }

    #[test]
    fn memory_policy_flags_unreachable_thresholds() {
        // A width-n state DD caps at 2^n − 1 nodes, so a 4-qubit run
        // can never exceed a threshold of 15: the policy must flag it
        // (non-fatally — the run proceeds, exactly).
        assert!(memory_threshold_unreachable(15, 4));
        assert!(!memory_threshold_unreachable(14, 4));
        // Wide registers overflow usize long before the ceiling: every
        // representable threshold is reachable.
        assert!(!memory_threshold_unreachable(usize::MAX, 64));
        assert!(!memory_threshold_unreachable(usize::MAX, 200));

        let mut p = MemoryDrivenPolicy::with_growth(1 << 4, 0.97, 1.0);
        p.begin(&generators::ghz(4)).unwrap();
        assert_eq!(p.decide(&ctx(true, 15, 1.0)), PolicyAction::Continue);
    }

    #[test]
    fn memory_policy_table1_keeps_threshold_fixed() {
        let mut p = MemoryDrivenPolicy::with_growth(10, 0.9, 1.0);
        p.begin(&generators::ghz(3)).unwrap();
        for _ in 0..3 {
            assert!(matches!(
                p.decide(&ctx(true, 11, 1.0)),
                PolicyAction::Truncate { .. }
            ));
            assert_eq!(p.node_threshold(), Some(10));
        }
    }

    #[test]
    fn fidelity_policy_follows_the_round_plan() {
        let circuit = generators::ghz(10);
        let mut p = FidelityDrivenPolicy::new(0.5, 0.9);
        p.begin(&circuit).unwrap();
        let plan = p.plan.clone();
        assert!(!plan.is_empty());
        for i in 0..circuit.ops().len() {
            let mut c = ctx(true, 100, 1.0);
            c.op_index = i;
            let action = p.decide(&c);
            if plan.contains(&i) {
                assert_eq!(
                    action,
                    PolicyAction::Truncate {
                        round_fidelity: 0.9
                    },
                    "op {i}"
                );
            } else {
                assert_eq!(action, PolicyAction::Continue, "op {i}");
            }
        }
    }

    #[test]
    fn budget_policy_stops_when_budget_is_spent() {
        let mut p = BudgetPolicy::new(10, 0.9, 0.8);
        p.begin(&generators::ghz(3)).unwrap();
        // Budget available: 1.0 * 0.9 >= 0.8.
        assert!(matches!(
            p.decide(&ctx(true, 11, 1.0)),
            PolicyAction::Truncate { .. }
        ));
        // Budget spent: 0.85 * 0.9 < 0.8 — memory pressure is ignored.
        assert_eq!(
            p.decide(&ctx(true, 1_000_000, 0.85)),
            PolicyAction::Continue
        );
    }

    #[test]
    fn policies_validate_their_parameters_in_begin() {
        let c = generators::ghz(3);
        assert!(MemoryDrivenPolicy::with_growth(0, 0.9, 2.0)
            .begin(&c)
            .is_err());
        assert!(MemoryDrivenPolicy::with_growth(10, f64::NAN, 2.0)
            .begin(&c)
            .is_err());
        assert!(MemoryDrivenPolicy::with_growth(10, 0.9, f64::NAN)
            .begin(&c)
            .is_err());
        assert!(FidelityDrivenPolicy::new(f64::NAN, 0.9).begin(&c).is_err());
        assert!(FidelityDrivenPolicy::new(0.5, 1.5).begin(&c).is_err());
        assert!(BudgetPolicy::new(0, 0.9, 0.5).begin(&c).is_err());
        assert!(BudgetPolicy::new(10, f64::NAN, 0.5).begin(&c).is_err());
        assert!(BudgetPolicy::new(10, 0.9, 0.0).begin(&c).is_err());
    }

    #[test]
    fn strategy_presets_build_matching_policies() {
        assert_eq!(Strategy::Exact.build().name(), "exact");
        assert_eq!(
            Strategy::memory_driven(10, 0.9).build().name(),
            "memory-driven"
        );
        assert_eq!(
            Strategy::fidelity_driven(0.5, 0.9).build().name(),
            "fidelity-driven"
        );
        // Closures are factories too.
        let factory = || Box::new(ExactPolicy) as Box<dyn ApproxPolicy>;
        assert_eq!(PolicyFactory::build(&factory).name(), "exact");
    }

    #[test]
    fn deadline_policy_aborts_past_the_budget() {
        // A zero budget expires at the first decision — deterministic,
        // which is what the pool's deadline tests rely on.
        let flag = Arc::new(AtomicBool::new(false));
        let mut p =
            DeadlinePolicy::with_flag(Box::new(ExactPolicy), Duration::ZERO, Arc::clone(&flag));
        p.begin(&generators::ghz(3)).unwrap();
        assert_eq!(p.decide(&ctx(true, 5, 1.0)), PolicyAction::Abort);
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn deadline_policy_is_transparent_before_the_cutoff() {
        let flag = Arc::new(AtomicBool::new(false));
        let mut p = DeadlinePolicy::with_flag(
            Box::new(MemoryDrivenPolicy::with_growth(10, 0.9, 1.0)),
            Duration::from_secs(3600),
            Arc::clone(&flag),
        );
        p.begin(&generators::ghz(8)).unwrap();
        assert_eq!(p.name(), "memory-driven");
        assert_eq!(p.node_threshold(), Some(10));
        assert_eq!(
            p.decide(&ctx(true, 11, 1.0)),
            PolicyAction::Truncate {
                round_fidelity: 0.9
            }
        );
        assert!(!flag.load(Ordering::Relaxed));
    }

    #[test]
    fn deadline_factory_shares_one_fired_flag() {
        let factory = DeadlineFactory::new(Arc::new(Strategy::Exact), Duration::ZERO);
        assert!(!factory.fired());
        let mut p = factory.build();
        p.begin(&generators::ghz(3)).unwrap();
        assert_eq!(p.decide(&ctx(true, 1, 1.0)), PolicyAction::Abort);
        assert!(factory.fired(), "flag visible through the factory");
        // A second build reports through the same flag.
        let p2 = factory.build();
        assert_eq!(p2.name(), "exact");
    }

    #[test]
    fn trace_recorder_records_and_takes() {
        let mut rec = TraceRecorder::new();
        rec.on_event(&TraceEvent::GateApplied {
            op_index: 0,
            gates_applied: 1,
            live_nodes: 2,
        });
        assert_eq!(rec.events().len(), 1);
        let taken = rec.take();
        assert_eq!(taken.len(), 1);
        assert!(rec.events().is_empty());
    }
}
