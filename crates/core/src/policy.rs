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
//! The closed [`Strategy`] enum is the preset layer and the one place a
//! preset is spelled: it implements [`PolicyFactory`] by building one
//! crate-private policy that holds the strategy and its per-run state,
//! so `builder.strategy(s)` is `builder.policy(s)` and a pool job takes
//! a preset through `PoolJob::policy`.
//!
//! A wall-clock deadline is not a policy: the simulator enforces it
//! around any policy (`SimulatorBuilder::deadline`).
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

use std::sync::{Arc, Mutex};

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
    /// Whether the current operation applied a gate to the state (false
    /// for markers and barriers).
    pub applied_gate: bool,
    /// Gates applied so far (including the current one).
    pub gates_applied: usize,
    /// Node count of the state DD right now.
    pub live_nodes: usize,
    /// Product of the *target* fidelities of every round fired so far
    /// that actually removed nodes (1.0 before any round; no-op rounds
    /// keep fidelity 1 and charge nothing). Budget-style policies spend
    /// against this. It is a target, not a floor on the true fidelity:
    /// a run's true final fidelity can end below it.
    pub fidelity_lower_bound: f64,
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

/// The preset layer: every [`Strategy`] builds the one preset policy,
/// so enum-configured call sites run through the same seam as custom
/// policies.
impl PolicyFactory for Strategy {
    fn build(&self) -> Box<dyn ApproxPolicy> {
        Box::new(Preset {
            strategy: *self,
            current: 0,
            plan: Vec::new(),
            next: 0,
        })
    }
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

/// The policy every [`Strategy`] preset builds: the validated strategy
/// plus its per-run state. See each variant of [`Strategy`] for when
/// its rounds fire.
#[derive(Debug)]
struct Preset {
    strategy: Strategy,
    /// The memory trigger's node threshold, grown per round by
    /// [`Strategy::MemoryDriven`]'s `threshold_growth`.
    current: usize,
    /// The operation indices [`Strategy::FidelityDriven`] truncates
    /// after, laid out by [`plan_rounds`] in `begin`.
    plan: Vec<usize>,
    /// The next entry of `plan`.
    next: usize,
}

impl ApproxPolicy for Preset {
    fn name(&self) -> &str {
        match self.strategy {
            Strategy::Exact => "exact",
            Strategy::MemoryDriven { .. } => "memory-driven",
            Strategy::FidelityDriven { .. } => "fidelity-driven",
            Strategy::Budget { .. } => "budget",
        }
    }

    fn begin(&mut self, circuit: &Circuit) -> Result<(), SimError> {
        self.strategy.validate()?;
        self.current = match self.strategy {
            Strategy::MemoryDriven { node_threshold, .. }
            | Strategy::Budget { node_threshold, .. } => node_threshold,
            Strategy::Exact | Strategy::FidelityDriven { .. } => 0,
        };
        self.plan = plan_rounds(circuit, self.strategy.max_rounds());
        self.next = 0;
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        let over_threshold = ctx.applied_gate && ctx.live_nodes > self.current;
        let round_fidelity = match self.strategy {
            Strategy::MemoryDriven {
                round_fidelity,
                threshold_growth,
                ..
            } if over_threshold => {
                let grown = (self.current as f64 * threshold_growth).ceil();
                self.current = if grown >= usize::MAX as f64 {
                    usize::MAX
                } else {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    {
                        grown as usize
                    }
                };
                round_fidelity
            }
            Strategy::FidelityDriven { round_fidelity, .. }
                if self.plan.get(self.next) == Some(&ctx.op_index) =>
            {
                self.next += 1;
                round_fidelity
            }
            // Fires only while spending another round keeps the target
            // product at or above `final_fidelity`.
            Strategy::Budget {
                round_fidelity,
                final_fidelity,
                ..
            } if over_threshold && ctx.fidelity_lower_bound * round_fidelity >= final_fidelity => {
                round_fidelity
            }
            _ => return PolicyAction::Continue,
        };
        PolicyAction::Truncate { round_fidelity }
    }

    fn node_threshold(&self) -> Option<usize> {
        match self.strategy {
            Strategy::MemoryDriven { .. } | Strategy::Budget { .. } => Some(self.current),
            Strategy::Exact | Strategy::FidelityDriven { .. } => None,
        }
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
        /// rounds that charge nothing to the target product).
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
        /// The target product ([`PolicyCtx::fidelity_lower_bound`]):
        /// a target, not a bound on the true fidelity.
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
            applied_gate,
            gates_applied: 1,
            live_nodes,
            fidelity_lower_bound,
        }
    }

    /// The preset `strategy` builds, begun on `circuit`.
    fn begun(strategy: Strategy, circuit: &Circuit) -> Box<dyn ApproxPolicy> {
        let mut p = strategy.build();
        p.begin(circuit).unwrap();
        p
    }

    #[test]
    fn exact_policy_never_truncates() {
        let mut p = begun(Strategy::Exact, &generators::ghz(3));
        assert_eq!(
            p.decide(&ctx(true, usize::MAX, 1.0)),
            PolicyAction::Continue
        );
        assert_eq!(p.node_threshold(), None);
    }

    #[test]
    fn memory_policy_fires_above_threshold_and_grows() {
        let growth = Strategy::MemoryDriven {
            node_threshold: 10,
            round_fidelity: 0.9,
            threshold_growth: 2.0,
        };
        let mut p = begun(growth, &generators::ghz(3));
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

        let table1 = Strategy::memory_driven_table1(1 << 4, 0.97);
        let mut p = begun(table1, &generators::ghz(4));
        assert_eq!(p.decide(&ctx(true, 15, 1.0)), PolicyAction::Continue);
    }

    #[test]
    fn memory_policy_table1_keeps_threshold_fixed() {
        let mut p = begun(Strategy::memory_driven_table1(10, 0.9), &generators::ghz(3));
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
        let strategy = Strategy::fidelity_driven(0.5, 0.9);
        let plan = plan_rounds(&circuit, strategy.max_rounds());
        assert!(!plan.is_empty());
        let mut p = begun(strategy, &circuit);
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
        assert_eq!(p.node_threshold(), None);
    }

    #[test]
    fn budget_policy_stops_when_budget_is_spent() {
        let mut p = begun(Strategy::budget(10, 0.9, 0.8), &generators::ghz(3));
        assert_eq!(p.node_threshold(), Some(10));
        // Not over the threshold: nothing to do.
        assert_eq!(p.decide(&ctx(true, 10, 1.0)), PolicyAction::Continue);
        // Budget available: 1.0 * 0.9 >= 0.8.
        assert!(matches!(
            p.decide(&ctx(true, 11, 1.0)),
            PolicyAction::Truncate { .. }
        ));
        // The threshold stays fixed.
        assert_eq!(p.node_threshold(), Some(10));
        // Budget spent: 0.85 * 0.9 < 0.8 — memory pressure is ignored.
        assert_eq!(
            p.decide(&ctx(true, 1_000_000, 0.85)),
            PolicyAction::Continue
        );
    }

    #[test]
    fn policies_validate_their_parameters_in_begin() {
        let c = generators::ghz(3);
        let invalid = [
            Strategy::memory_driven(0, 0.9),
            Strategy::memory_driven(10, f64::NAN),
            Strategy::MemoryDriven {
                node_threshold: 10,
                round_fidelity: 0.9,
                threshold_growth: f64::NAN,
            },
            Strategy::fidelity_driven(f64::NAN, 0.9),
            Strategy::fidelity_driven(0.5, 1.5),
            Strategy::budget(0, 0.9, 0.5),
            Strategy::budget(10, f64::NAN, 0.5),
            Strategy::budget(10, 0.9, 0.0),
        ];
        for strategy in invalid {
            assert!(strategy.build().begin(&c).is_err(), "{strategy:?}");
        }
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
        assert_eq!(Strategy::budget(10, 0.9, 0.8).build().name(), "budget");
        // Closures are factories too.
        let factory = || Strategy::Exact.build();
        assert_eq!(PolicyFactory::build(&factory).name(), "exact");
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
