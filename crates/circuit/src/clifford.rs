//! Clifford classification metadata for gates and operations.
//!
//! The stabilizer engine (`approxdd-stabilizer`) simulates Clifford
//! circuits in polynomial time, and the hybrid dispatcher of
//! `approxdd_exec::backend` routes the maximal Clifford *prefix* of any
//! circuit through it before handing the remainder to the DD engine.
//! Both need one authoritative answer to "is this operation Clifford?"
//! — that answer lives here, next to the IR, so every layer classifies
//! identically.
//!
//! Classification is **symbolic**: only gates that are Clifford by
//! construction ([`Gate::X`], [`Gate::H`], [`Gate::S`], …) classify as
//! Clifford. Float-parameterized gates are never classified, even when
//! the parameter happens to equal a Clifford angle (`Phase(π/2)` ≈ S):
//! the stabilizer engine's exactness claim would otherwise depend on
//! float rounding. Controlled gates classify only as single-controlled
//! X/Y/Z (CX/CY/CZ, either control polarity — a negative control is
//! the positive one conjugated by X on the control); multi-controlled
//! gates, permutation blocks and dense blocks are non-Clifford as far
//! as the tableau engine is concerned.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::{Circuit, CliffordGate, Gate};
//!
//! assert_eq!(CliffordGate::of(Gate::H), Some(CliffordGate::H));
//! assert_eq!(CliffordGate::of(Gate::T), None);
//!
//! let mut c = Circuit::new(2, "bell+t");
//! c.h(0).cx(0, 1).t(1);
//! assert_eq!(c.clifford_prefix_len(), 2);
//! assert!(!c.is_clifford());
//! ```

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::op::Operation;

/// The single-qubit Clifford gate alphabet: the subset of [`Gate`] a
/// stabilizer tableau can apply exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CliffordGate {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// S = diag(1, i).
    S,
    /// S†.
    Sdg,
    /// √X = H·S·H.
    Sx,
    /// √X† = H·S†·H.
    Sxdg,
    /// √Y = e^{iπ/4}·H·Z.
    Sy,
    /// √Y† = e^{−iπ/4}·Z·H.
    Sydg,
}

/// A circuit operation reduced to the form the stabilizer engine
/// executes: an uncontrolled Clifford gate or a singly-controlled
/// Pauli (CX/CY/CZ, either polarity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordOp {
    /// An uncontrolled single-qubit Clifford gate.
    Single {
        /// The gate.
        gate: CliffordGate,
        /// Target qubit.
        target: usize,
    },
    /// A singly-controlled Pauli: CX, CY or CZ (`gate` is restricted to
    /// [`CliffordGate::X`] / [`CliffordGate::Y`] / [`CliffordGate::Z`]
    /// by construction).
    Controlled {
        /// The controlled Pauli.
        gate: CliffordGate,
        /// Controlling qubit.
        control: usize,
        /// `true` for a positive (fires-on-one) control.
        positive: bool,
        /// Target qubit.
        target: usize,
    },
}

impl CliffordGate {
    /// The Clifford classification of `gate`, or `None` for
    /// non-Clifford gates (T, rotations, parameterized phases).
    ///
    /// Parameterized gates never classify — see the module docs for the
    /// symbolic-only rationale.
    #[must_use]
    pub fn of(gate: Gate) -> Option<CliffordGate> {
        match gate {
            Gate::I => Some(CliffordGate::I),
            Gate::X => Some(CliffordGate::X),
            Gate::Y => Some(CliffordGate::Y),
            Gate::Z => Some(CliffordGate::Z),
            Gate::H => Some(CliffordGate::H),
            Gate::S => Some(CliffordGate::S),
            Gate::Sdg => Some(CliffordGate::Sdg),
            Gate::Sx => Some(CliffordGate::Sx),
            Gate::Sxdg => Some(CliffordGate::Sxdg),
            Gate::Sy => Some(CliffordGate::Sy),
            Gate::Sydg => Some(CliffordGate::Sydg),
            _ => None,
        }
    }
}

impl Operation {
    /// Classifies this operation as a tableau-executable Clifford
    /// operation, or `None`.
    ///
    /// Markers ([`Operation::ApproxPoint`], [`Operation::Barrier`]) are
    /// the identity and do not *break* a Clifford prefix, but they are
    /// not gates either — they return `None` here; prefix scans treat
    /// them separately (see [`Circuit::clifford_prefix_len`]).
    #[must_use]
    pub fn clifford_op(&self) -> Option<CliffordOp> {
        let Operation::Gate {
            gate,
            target,
            controls,
        } = self
        else {
            return None;
        };
        let kind = CliffordGate::of(*gate)?;
        match controls.len() {
            0 => Some(CliffordOp::Single {
                gate: kind,
                target: *target,
            }),
            // A controlled identity is the identity for any number of
            // controls; everything else must be a singly-controlled
            // Pauli.
            _ if kind == CliffordGate::I => Some(CliffordOp::Single {
                gate: CliffordGate::I,
                target: *target,
            }),
            1 if matches!(kind, CliffordGate::X | CliffordGate::Y | CliffordGate::Z) => {
                Some(CliffordOp::Controlled {
                    gate: kind,
                    control: controls[0].qubit,
                    positive: controls[0].positive,
                    target: *target,
                })
            }
            _ => None,
        }
    }

    /// Whether this operation can be absorbed by a Clifford prefix:
    /// a classified Clifford gate, or a marker (identity).
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        !self.is_gate() || self.clifford_op().is_some()
    }
}

impl Circuit {
    /// Length (in operations, markers included) of the maximal leading
    /// segment of this circuit that a stabilizer tableau can simulate:
    /// every operation before the first non-Clifford gate.
    #[must_use]
    pub fn clifford_prefix_len(&self) -> usize {
        self.ops()
            .iter()
            .position(|op| !op.is_clifford())
            .unwrap_or(self.ops().len())
    }

    /// Whether the whole circuit is Clifford (polynomial-time
    /// simulable on the stabilizer engine).
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        self.clifford_prefix_len() == self.ops().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Control;

    #[test]
    fn symbolic_clifford_gates_classify() {
        for g in [
            Gate::I,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::H,
            Gate::S,
            Gate::Sdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Sy,
            Gate::Sydg,
        ] {
            assert!(CliffordGate::of(g).is_some(), "{g} must classify");
        }
        for g in [Gate::T, Gate::Tdg, Gate::Phase(0.5), Gate::Rx(1.0)] {
            assert!(CliffordGate::of(g).is_none(), "{g} must not classify");
        }
    }

    #[test]
    fn clifford_angles_of_parameterized_gates_do_not_classify() {
        // Phase(π/2) equals S up to float rounding — deliberately not
        // classified (symbolic-only rule; see module docs).
        assert_eq!(
            CliffordGate::of(Gate::Phase(std::f64::consts::FRAC_PI_2)),
            None
        );
        assert_eq!(CliffordGate::of(Gate::Rz(std::f64::consts::PI)), None);
        assert_eq!(CliffordGate::of(Gate::Phase(0.0)), None);
    }

    #[test]
    fn controlled_paulis_classify_with_polarity() {
        let cx = Operation::Gate {
            gate: Gate::X,
            target: 0,
            controls: vec![Control::positive(1)],
        };
        assert_eq!(
            cx.clifford_op(),
            Some(CliffordOp::Controlled {
                gate: CliffordGate::X,
                control: 1,
                positive: true,
                target: 0,
            })
        );
        let ncz = Operation::Gate {
            gate: Gate::Z,
            target: 2,
            controls: vec![Control::negative(0)],
        };
        assert!(matches!(
            ncz.clifford_op(),
            Some(CliffordOp::Controlled {
                positive: false,
                ..
            })
        ));
    }

    #[test]
    fn multi_controlled_and_controlled_non_pauli_do_not_classify() {
        let ccx = Operation::Gate {
            gate: Gate::X,
            target: 0,
            controls: vec![Control::positive(1), Control::positive(2)],
        };
        assert_eq!(ccx.clifford_op(), None);
        let ch = Operation::Gate {
            gate: Gate::H,
            target: 0,
            controls: vec![Control::positive(1)],
        };
        assert_eq!(ch.clifford_op(), None);
        // Controlled identity stays the identity.
        let ci = Operation::Gate {
            gate: Gate::I,
            target: 0,
            controls: vec![Control::positive(1), Control::negative(2)],
        };
        assert!(matches!(ci.clifford_op(), Some(CliffordOp::Single { .. })));
    }

    #[test]
    fn prefix_scan_passes_markers_and_stops_at_first_non_clifford() {
        let mut c = Circuit::new(3, "prefix");
        c.h(0).cx(0, 1);
        c.barrier();
        c.approx_point();
        c.s(2);
        c.t(1); // first non-Clifford
        c.h(2);
        assert_eq!(c.clifford_prefix_len(), 5);
        assert!(!c.is_clifford());

        let mut pure = Circuit::new(2, "pure");
        pure.h(0).cx(0, 1).gate(Gate::Sy, 1);
        assert!(pure.is_clifford());
        assert_eq!(pure.clifford_prefix_len(), 3);
    }

    #[test]
    fn blocks_are_not_clifford() {
        let mut c = Circuit::new(4, "blocks");
        c.h(0);
        c.permutation(0, 2, vec![0, 1, 2, 3], &[], "id-perm");
        assert_eq!(c.clifford_prefix_len(), 1);
    }
}
