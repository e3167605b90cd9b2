//! Shor's factoring algorithm on the approximate DD simulator.
//!
//! This crate reproduces the paper's fidelity-driven benchmark family
//! (`shor_N_a` in Table I): the 3n-qubit textbook phase-estimation
//! construction — 2n counting qubits, an n-qubit work register, one
//! controlled modular multiplication per counting qubit, and a final
//! inverse QFT (Fig. 2 of the paper) — simulated with approximation
//! rounds during the inverse QFT, followed by the classical
//! post-processing (continued fractions, order verification, factor
//! extraction) that turns measurement samples into factors.
//!
//! The paper's headline observation holds here: Shor's algorithm
//! tolerates final-state fidelities around 50 % because the classical
//! post-processing only needs *some* samples to land near multiples of
//! `2^{2n}/r`.
//!
//! # Examples
//!
//! ```
//! use approxdd_shor::{factor, FactorOptions};
//!
//! # fn main() -> Result<(), approxdd_shor::ShorError> {
//! let outcome = factor(15, &FactorOptions::default())?;
//! let (p, q) = outcome.factors;
//! assert_eq!(p * q, 15);
//! # Ok(())
//! # }
//! ```

pub mod classical;
mod error;
mod factoring;
mod shor_circuit;

pub use error::ShorError;
pub use factoring::{factor, find_order, FactorOptions, FactorOutcome, OrderFinding};
pub use shor_circuit::shor_circuit;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ShorError>;
