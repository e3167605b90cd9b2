//! Approximate decision-diagram quantum circuit simulation.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Hillmich, Kueng, Markov, Wille — DATE 2021*): DD-based simulation
//! with **approximation rounds** that shrink the state representation in
//! a controlled accuracy tradeoff. Two strategies are provided:
//!
//! * [`Strategy::MemoryDriven`] (Sec. IV-B) — reactive: after each gate,
//!   if the DD exceeds a node threshold, truncate targeting a per-round
//!   fidelity and grow the threshold (garbage-collection style).
//! * [`Strategy::FidelityDriven`] (Sec. IV-C) — proactive: given a
//!   target final fidelity `f_final` and per-round `f_round`, run
//!   `⌊log_{f_round} f_final⌋` truncation rounds at circuit-block
//!   boundaries ([`approxdd_circuit::Operation::ApproxPoint`] markers)
//!   or evenly spaced when no markers exist.
//!
//! [`Strategy::Budget`] is their hybrid: memory-triggered rounds that
//! stop once the target product reaches a final-fidelity budget.
//!
//! Each truncation reports its *exact* fidelity (the kept norm), and the
//! simulator reports the product of the rounds' fidelities (Lemma 1 of
//! the paper) in [`SimStats::fidelity`] without ever materializing the
//! exact state. With more than one round that product is an estimate of
//! the end-to-end fidelity, and the product of the round *targets*
//! ([`SimStats::fidelity_lower_bound`]) is a target: the true fidelity
//! can end below either.
//!
//! Every strategy is a preset over an open seam: the [`ApproxPolicy`]
//! trait decides, after every circuit operation, whether to continue,
//! truncate, or abort; [`SimObserver`]s receive structured
//! [`TraceEvent`]s auditing every decision. See the [`policy`] module
//! for writing custom policies and observing runs. A run's wall-clock
//! deadline ([`SimulatorBuilder::deadline`]) is enforced by the
//! simulator around any policy.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::generators;
//! use approxdd_sim::{Simulator, Strategy};
//!
//! # fn main() -> Result<(), approxdd_sim::SimError> {
//! let circuit = generators::grover(6, 0b101101, None);
//! let mut sim = Simulator::builder()
//!     .strategy(Strategy::fidelity_driven(0.8, 0.95))
//!     .seed(1)
//!     .build();
//! let run = sim.run(&circuit)?;
//! assert!(run.stats.fidelity >= 0.8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builder;
mod error;
pub mod json;
pub mod ndjson;
mod options;
pub mod policy;
mod schedule;
mod simulator;

pub use builder::SimulatorBuilder;
pub use error::SimError;
pub use options::Strategy;
pub use policy::{
    ApproxPolicy, PolicyAction, PolicyCtx, PolicyFactory, SharedObserver, SimObserver, TraceEvent,
    TraceRecorder,
};
pub use simulator::{RunResult, SimSnapshot, SimStats, Simulator};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
