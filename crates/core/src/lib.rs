//! Approximate decision-diagram quantum circuit simulation.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*Hillmich, Kueng, Markov, Wille — DATE 2021*): DD-based simulation
//! with **approximation rounds** that shrink the state representation in
//! a controlled accuracy tradeoff. Two strategies are provided:
//!
//! * [`Strategy::MemoryDriven`] (Sec. IV-B) — reactive: after each gate,
//!   if the DD exceeds a node threshold, truncate targeting a per-round
//!   fidelity and double the threshold (garbage-collection style).
//! * [`Strategy::FidelityDriven`] (Sec. IV-C) — proactive: given a
//!   required final fidelity `f_final` and per-round `f_round`, run
//!   `⌊log_{f_round} f_final⌋` truncation rounds at circuit-block
//!   boundaries ([`approxdd_circuit::Operation::ApproxPoint`] markers)
//!   or evenly spaced when no markers exist.
//!
//! Because each truncation reports its *exact* fidelity (the kept norm)
//! and fidelity is multiplicative across rounds (Lemma 1, proved in the
//! paper and property-tested in this workspace), the simulator reports
//! the exact end-to-end fidelity in [`SimStats::fidelity`] without ever
//! materializing the exact state.
//!
//! Both strategies are presets over an open seam: the [`ApproxPolicy`]
//! trait decides, after every circuit operation, whether to continue,
//! truncate, or abort; [`SimObserver`]s receive structured
//! [`TraceEvent`]s auditing every decision. See the [`policy`] module
//! for writing custom policies (e.g. the built-in [`BudgetPolicy`]
//! hybrid) and observing runs.
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
pub use options::{RetryPolicy, Strategy};
pub use policy::{
    ApproxPolicy, BudgetPolicy, DeadlineFactory, ExactPolicy, PolicyAction, PolicyCtx,
    PolicyFactory, SharedObserver, SimObserver, TraceEvent, TraceRecorder,
};
pub use simulator::{RunResult, SimSnapshot, SimStats, Simulator};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
