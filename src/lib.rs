//! # approxdd — approximate DD-based quantum circuit simulation
//!
//! Facade crate re-exporting the whole workspace: a Rust reproduction of
//! *"As Accurate as Needed, as Efficient as Possible: Approximations in
//! DD-based Quantum Circuit Simulation"* (Hillmich, Kueng, Markov,
//! Wille — DATE 2021).
//!
//! The workspace pieces:
//!
//! * [`complex`] — complex arithmetic with tolerance-aware comparison,
//! * [`dd`] — the decision-diagram engine (states, gates, contribution
//!   analysis, truncation, GC),
//! * [`circuit`] — circuit IR, builders and benchmark generators,
//! * [`statevector`] — the dense-array baseline simulator,
//! * [`sim`] — the approximate simulator, its [`sim::SimulatorBuilder`],
//!   and the composable [`sim::ApproxPolicy`] / [`sim::SimObserver`]
//!   seam (memory-driven, fidelity-driven and budget policies ship
//!   built in; custom policies plug into the same loop),
//! * [`exec`] — execution: the unified [`backend::Backend`] API over
//!   every engine (prepare / run / batched runs / sampling / queries;
//!   re-exported here as [`backend`]), and the multi-threaded
//!   [`exec::BackendPool`] over it — batched runs and sharded sampling
//!   across worker threads, deterministic under any worker count,
//! * [`stabilizer`] — the Aaronson–Gottesman tableau engine for
//!   Clifford circuits (exact global phase, polynomial time), behind
//!   [`backend::AnyBackend`] when the builder's [`sim::Engine`] knob
//!   says `Stabilizer` or `Hybrid`,
//! * [`noise`] — stochastic noise-trajectory simulation: Kraus
//!   channels ([`circuit::noise`]), a pooled Monte-Carlo trajectory
//!   driver ([`noise::NoisePool`]), and an exact density-matrix
//!   baseline for validation,
//! * [`server`] — simulation as a service: a std-only HTTP job
//!   server with bounded-queue admission, warm snapshot sessions and
//!   NDJSON result streaming over the pool,
//! * [`telemetry`] — the metrics plane: a lock-free metrics registry,
//!   phase-timing spans on the hot seams, Prometheus text exposition
//!   (`GET /metrics` on the server) and NDJSON snapshots for the
//!   bench bins; strictly fingerprint-excluded,
//! * [`shor`] — Shor's algorithm end-to-end.
//!
//! # Quickstart
//!
//! Configure a simulator with the fluent builder, run, and sample with
//! the simulator's owned (seeded) RNG:
//!
//! ```
//! use approxdd::circuit::generators;
//! use approxdd::sim::Simulator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = generators::ghz(8);
//! let mut sim = Simulator::builder().seed(1).build();
//! let run = sim.run(&circuit)?;
//! let outcome = sim.draw(&run);
//! assert!(outcome == 0 || outcome == 0xFF);
//! # Ok(())
//! # }
//! ```
//!
//! The same workload through the engine-agnostic [`backend::Backend`]
//! trait, on both engines:
//!
//! ```
//! use approxdd::backend::{amplitudes_of, Backend, BuildBackend, StatevectorBackend};
//! use approxdd::circuit::generators;
//! use approxdd::sim::Simulator;
//!
//! # fn main() -> Result<(), approxdd::backend::ExecError> {
//! let circuit = generators::ghz(8);
//! let mut dd = Simulator::builder().seed(1).build_backend();
//! let mut sv = StatevectorBackend::with_seed(1);
//! let a = amplitudes_of(&mut dd, &circuit)?;
//! let b = amplitudes_of(&mut sv, &circuit)?;
//! for (x, y) in a.iter().zip(&b) {
//!     assert!((*x - *y).mag() < 1e-12);
//! }
//! # Ok(())
//! # }
//! ```

pub use approxdd_circuit as circuit;
pub use approxdd_complex as complex;
pub use approxdd_dd as dd;
pub use approxdd_exec as exec;
pub use approxdd_exec::backend;
pub use approxdd_noise as noise;
pub use approxdd_server as server;
pub use approxdd_shor as shor;
pub use approxdd_sim as sim;
pub use approxdd_stabilizer as stabilizer;
pub use approxdd_statevector as statevector;
pub use approxdd_telemetry as telemetry;
