//! Circuit operations: gates with controls, permutation blocks, dense
//! unitary blocks, markers.

use std::fmt;
use std::sync::Arc;

use approxdd_complex::Cplx;

use crate::gate::Gate;

/// A control condition on one qubit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Control {
    /// The controlling qubit.
    pub qubit: usize,
    /// `true`: fires on `|1⟩` (positive control); `false`: fires on `|0⟩`.
    pub positive: bool,
}

impl Control {
    /// A positive (fires-on-one) control.
    #[must_use]
    pub fn positive(qubit: usize) -> Self {
        Self {
            qubit,
            positive: true,
        }
    }

    /// A negative (fires-on-zero) control.
    #[must_use]
    pub fn negative(qubit: usize) -> Self {
        Self {
            qubit,
            positive: false,
        }
    }
}

/// One step of a circuit.
///
/// This enum is deliberately *not* `#[non_exhaustive]`: simulators match
/// on it exhaustively, and extending the IR is a semver-breaking change
/// by design.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// A (multi-)controlled single-qubit gate.
    Gate {
        /// The base gate.
        gate: Gate,
        /// Target qubit.
        target: usize,
        /// Control conditions (empty for an uncontrolled gate).
        controls: Vec<Control>,
    },
    /// A (multi-)controlled permutation of the computational basis of the
    /// contiguous qubits `[lo, lo + k)`: `|c⟩ → |perm[c]⟩`. Shor's
    /// modular multiplications are expressed this way.
    Permutation {
        /// Lowest qubit of the permuted block.
        lo: usize,
        /// Width of the block (`perm.len() == 2^k`).
        k: usize,
        /// The permutation table (shared; circuits are cheap to clone).
        perm: Arc<Vec<usize>>,
        /// Control conditions.
        controls: Vec<Control>,
        /// Human-readable label (e.g. `"*a^2 mod 33"`).
        label: String,
    },
    /// A (multi-)controlled dense unitary on the contiguous qubits
    /// `[lo, lo + k)`, given as a row-major `2^k × 2^k` matrix. Used for
    /// quantum-volume style workloads with Haar-random two-qubit blocks.
    DenseBlock {
        /// Lowest qubit of the block.
        lo: usize,
        /// Width of the block (`matrix.len() == 4^k`).
        k: usize,
        /// Row-major matrix entries (shared).
        matrix: Arc<Vec<Cplx>>,
        /// Control conditions.
        controls: Vec<Control>,
        /// Human-readable label.
        label: String,
    },
    /// A marker designating a good location for an approximation round
    /// (a circuit-block boundary, Example 10 of the paper). Semantically
    /// the identity.
    ApproxPoint,
    /// A scheduling barrier (semantically the identity; kept for QASM
    /// round-trips).
    Barrier,
}

impl Operation {
    /// Whether this operation actually transforms the state (markers and
    /// barriers do not).
    #[must_use]
    pub fn is_gate(&self) -> bool {
        matches!(
            self,
            Operation::Gate { .. } | Operation::Permutation { .. } | Operation::DenseBlock { .. }
        )
    }

    /// All qubits touched by this operation (targets then controls).
    #[must_use]
    pub(crate) fn qubits(&self) -> Vec<usize> {
        match self {
            Operation::Gate {
                target, controls, ..
            } => {
                let mut v = vec![*target];
                v.extend(controls.iter().map(|c| c.qubit));
                v
            }
            Operation::Permutation {
                lo, k, controls, ..
            }
            | Operation::DenseBlock {
                lo, k, controls, ..
            } => {
                let mut v: Vec<usize> = (*lo..*lo + *k).collect();
                v.extend(controls.iter().map(|c| c.qubit));
                v
            }
            Operation::ApproxPoint | Operation::Barrier => Vec::new(),
        }
    }

    /// Control list as `(qubit, positive)` pairs, the format the DD gate
    /// builders consume.
    #[must_use]
    pub fn control_pairs(&self) -> Vec<(usize, bool)> {
        match self {
            Operation::Gate { controls, .. }
            | Operation::Permutation { controls, .. }
            | Operation::DenseBlock { controls, .. } => {
                controls.iter().map(|c| (c.qubit, c.positive)).collect()
            }
            _ => Vec::new(),
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Gate {
                gate,
                target,
                controls,
            } => {
                if controls.is_empty() {
                    write!(f, "{gate} q[{target}]")
                } else {
                    let ctl: Vec<String> = controls
                        .iter()
                        .map(|c| {
                            if c.positive {
                                format!("q[{}]", c.qubit)
                            } else {
                                format!("!q[{}]", c.qubit)
                            }
                        })
                        .collect();
                    write!(f, "c{gate} {} -> q[{target}]", ctl.join(","))
                }
            }
            Operation::Permutation { lo, k, label, .. } => {
                write!(f, "perm[{label}] q[{lo}..{}]", lo + k)
            }
            Operation::DenseBlock { lo, k, label, .. } => {
                write!(f, "unitary[{label}] q[{lo}..{}]", lo + k)
            }
            Operation::ApproxPoint => f.write_str("approx_point"),
            Operation::Barrier => f.write_str("barrier"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubits_of_controlled_gate() {
        let op = Operation::Gate {
            gate: Gate::X,
            target: 0,
            controls: vec![Control::positive(2), Control::negative(1)],
        };
        assert_eq!(op.qubits(), vec![0, 2, 1]);
        assert_eq!(op.control_pairs(), vec![(2, true), (1, false)]);
        assert!(op.is_gate());
    }

    #[test]
    fn markers_touch_no_qubits() {
        assert!(Operation::ApproxPoint.qubits().is_empty());
        assert!(!Operation::ApproxPoint.is_gate());
        assert!(!Operation::Barrier.is_gate());
    }

    #[test]
    fn display_forms() {
        let op = Operation::Gate {
            gate: Gate::H,
            target: 3,
            controls: vec![],
        };
        assert_eq!(op.to_string(), "h q[3]");
        let op = Operation::Gate {
            gate: Gate::X,
            target: 0,
            controls: vec![Control::positive(1)],
        };
        assert_eq!(op.to_string(), "cx q[1] -> q[0]");
    }
}
