//! The single-qubit gate alphabet.

/// A single-qubit gate (possibly parameterized): the DD engine's own
/// alphabet, so a circuit's gates reach the gate builders untranslated.
/// It covers the paper's benchmark families: Clifford+T for general
/// circuits, √X/√Y/T for quantum-supremacy circuits, and
/// phases/rotations for the QFT.
///
/// # Examples
///
/// ```
/// use approxdd_circuit::Gate;
/// assert_eq!(Gate::T.name(), "t");
/// assert_eq!(Gate::Phase(0.5).inverse(), Gate::Phase(-0.5));
/// ```
pub use approxdd_dd::GateKind as Gate;

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
