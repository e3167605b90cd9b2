//! Quantum circuit intermediate representation and benchmark generators.
//!
//! A [`Circuit`] is a register width plus a sequence of [`Operation`]s:
//! (controlled) single-qubit gates, basis-permutation blocks (used for
//! Shor's modular arithmetic), and **approximation markers** —
//! [`Operation::ApproxPoint`] — that tell the fidelity-driven simulation
//! strategy where circuit-block boundaries lie (Example 10 / Fig. 2 of
//! the paper).
//!
//! The [`generators`] module produces the workload families of the
//! paper's evaluation (quantum-supremacy grids, QFT, Grover, GHZ, random
//! circuits), and [`qasm`] provides an OpenQASM 2 subset for interchange.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::{Circuit, Gate};
//!
//! let mut c = Circuit::new(3, "bell3");
//! c.h(2).cx(2, 1).cx(1, 0);
//! assert_eq!(c.gate_count(), 3);
//! assert_eq!(c.n_qubits(), 3);
//! c.validate().unwrap();
//! let _ = Gate::H; // gate alphabet re-exported for matching
//! ```

mod circuit;
mod gate;
mod op;

pub mod generators;
pub mod qasm;

pub use circuit::{Circuit, CircuitError};
pub use gate::Gate;
pub use op::{Control, Operation};
