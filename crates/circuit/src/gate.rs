//! The single-qubit gate alphabet.

use std::fmt;

use approxdd_complex::Cplx;
use approxdd_dd::GateKind;

/// A single-qubit gate (possibly parameterized). The alphabet covers the
/// paper's benchmark families: Clifford+T for general circuits, √X/√Y/T
/// for quantum-supremacy circuits, and phases/rotations for the QFT.
///
/// # Examples
///
/// ```
/// use approxdd_circuit::Gate;
/// assert_eq!(Gate::T.name(), "t");
/// assert_eq!(Gate::Phase(0.5).inverse(), Gate::Phase(-0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Gate {
    /// Identity (useful for timing/padding in generated workloads).
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
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T†.
    Tdg,
    /// √X.
    Sx,
    /// √X†.
    Sxdg,
    /// √Y.
    Sy,
    /// √Y†.
    Sydg,
    /// diag(1, e^{iθ}).
    Phase(f64),
    /// X-rotation by θ.
    Rx(f64),
    /// Y-rotation by θ.
    Ry(f64),
    /// Z-rotation by θ.
    Rz(f64),
}

impl Gate {
    /// The corresponding decision-diagram gate kind.
    #[must_use]
    pub(crate) fn kind(self) -> GateKind {
        match self {
            Gate::I => GateKind::I,
            Gate::X => GateKind::X,
            Gate::Y => GateKind::Y,
            Gate::Z => GateKind::Z,
            Gate::H => GateKind::H,
            Gate::S => GateKind::S,
            Gate::Sdg => GateKind::Sdg,
            Gate::T => GateKind::T,
            Gate::Tdg => GateKind::Tdg,
            Gate::Sx => GateKind::SxGate,
            Gate::Sxdg => GateKind::SxdgGate,
            Gate::Sy => GateKind::SyGate,
            Gate::Sydg => GateKind::SydgGate,
            Gate::Phase(t) => GateKind::Phase(t),
            Gate::Rx(t) => GateKind::Rx(t),
            Gate::Ry(t) => GateKind::Ry(t),
            Gate::Rz(t) => GateKind::Rz(t),
        }
    }

    /// The 2×2 unitary matrix, row-major.
    #[must_use]
    pub fn matrix(self) -> [[Cplx; 2]; 2] {
        self.kind().matrix()
    }

    /// The inverse gate.
    #[must_use]
    pub fn inverse(self) -> Gate {
        match self {
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Sx => Gate::Sxdg,
            Gate::Sxdg => Gate::Sx,
            Gate::Sy => Gate::Sydg,
            Gate::Sydg => Gate::Sy,
            Gate::Phase(t) => Gate::Phase(-t),
            Gate::Rx(t) => Gate::Rx(-t),
            Gate::Ry(t) => Gate::Ry(-t),
            Gate::Rz(t) => Gate::Rz(-t),
            other => other,
        }
    }

    /// Lowercase mnemonic (OpenQASM style).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Gate::I => "id",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::H => "h",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Sx => "sx",
            Gate::Sxdg => "sxdg",
            Gate::Sy => "sy",
            Gate::Sydg => "sydg",
            Gate::Phase(_) => "p",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
        }
    }

    /// The rotation/phase parameter, if the gate has one.
    #[must_use]
    pub fn parameter(self) -> Option<f64> {
        match self {
            Gate::Phase(t) | Gate::Rx(t) | Gate::Ry(t) | Gate::Rz(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.parameter() {
            Some(t) => write!(f, "{}({t})", self.name()),
            None => f.write_str(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_is_involutive_on_alphabet() {
        let gates = [
            Gate::I,
            Gate::X,
            Gate::H,
            Gate::S,
            Gate::T,
            Gate::Sx,
            Gate::Sy,
            Gate::Phase(0.7),
            Gate::Rz(1.2),
        ];
        for g in gates {
            assert_eq!(g.inverse().inverse(), g, "{g}");
        }
    }

    #[test]
    fn names_match_qasm_convention() {
        assert_eq!(Gate::Sdg.name(), "sdg");
        assert_eq!(Gate::Rz(1.0).name(), "rz");
        assert_eq!(Gate::Phase(1.0).to_string(), "p(1)");
    }

    #[test]
    fn parameters_only_on_rotations() {
        assert_eq!(Gate::H.parameter(), None);
        assert_eq!(Gate::Rx(0.25).parameter(), Some(0.25));
    }
}
