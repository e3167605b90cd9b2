//! The [`Circuit`] container and builder API.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::gate::Gate;
use crate::op::{Control, Operation};

/// Validation errors for circuits.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// An operation references a qubit outside the register.
    QubitOutOfRange {
        /// Index of the offending operation.
        op_index: usize,
        /// The offending qubit.
        qubit: usize,
        /// Register width.
        n_qubits: usize,
    },
    /// An operation uses the same qubit twice (e.g. control == target).
    DuplicateQubit {
        /// Index of the offending operation.
        op_index: usize,
        /// The duplicated qubit.
        qubit: usize,
    },
    /// A permutation table has the wrong length or is not a bijection.
    InvalidPermutation {
        /// Index of the offending operation.
        op_index: usize,
    },
    /// A dense block has the wrong number of entries.
    InvalidDenseBlock {
        /// Index of the offending operation.
        op_index: usize,
    },
    /// A gate or dense block has a NaN or infinite matrix entry (a
    /// non-finite rotation angle, say).
    NonFinite {
        /// Index of the offending operation.
        op_index: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange {
                op_index,
                qubit,
                n_qubits,
            } => write!(
                f,
                "operation {op_index}: qubit {qubit} out of range for {n_qubits}-qubit register"
            ),
            CircuitError::DuplicateQubit { op_index, qubit } => {
                write!(f, "operation {op_index}: qubit {qubit} used twice")
            }
            CircuitError::InvalidPermutation { op_index } => {
                write!(f, "operation {op_index}: permutation is not a bijection")
            }
            CircuitError::InvalidDenseBlock { op_index } => {
                write!(f, "operation {op_index}: dense block must have 4^k entries")
            }
            CircuitError::NonFinite { op_index } => {
                write!(f, "operation {op_index}: matrix entry is not finite")
            }
        }
    }
}

impl Error for CircuitError {}

/// A quantum circuit: a register width and an operation sequence.
///
/// Builder methods return `&mut Self` so construction chains:
///
/// ```
/// use approxdd_circuit::Circuit;
/// let mut c = Circuit::new(2, "bell");
/// c.h(1).cx(1, 0);
/// assert_eq!(c.gate_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    name: String,
    ops: Vec<Operation>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits` qubits.
    #[must_use]
    pub fn new(n_qubits: usize, name: impl Into<String>) -> Self {
        Self {
            n_qubits,
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Register width.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Circuit name (used in benchmark reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The operation sequence.
    #[must_use]
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Number of state-transforming operations (markers excluded).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_gate()).count()
    }

    /// Number of operations including markers/barriers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the circuit has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends a raw operation.
    pub fn push(&mut self, op: Operation) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Appends every operation of `other`, with qubits shifted up by
    /// `offset`. Used to embed sub-circuits (e.g. an inverse QFT on
    /// Shor's counting register).
    ///
    /// # Panics
    ///
    /// Panics if the shifted operations would exceed this register.
    pub fn append(&mut self, other: &Circuit, offset: usize) -> &mut Self {
        assert!(
            other.n_qubits + offset <= self.n_qubits,
            "appended circuit does not fit the register"
        );
        for op in &other.ops {
            let shifted = match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => Operation::Gate {
                    gate: *gate,
                    target: target + offset,
                    controls: controls
                        .iter()
                        .map(|c| Control {
                            qubit: c.qubit + offset,
                            positive: c.positive,
                        })
                        .collect(),
                },
                Operation::Permutation {
                    lo,
                    k,
                    perm,
                    controls,
                    label,
                } => Operation::Permutation {
                    lo: lo + offset,
                    k: *k,
                    perm: Arc::clone(perm),
                    controls: controls
                        .iter()
                        .map(|c| Control {
                            qubit: c.qubit + offset,
                            positive: c.positive,
                        })
                        .collect(),
                    label: label.clone(),
                },
                Operation::DenseBlock {
                    lo,
                    k,
                    matrix,
                    controls,
                    label,
                } => Operation::DenseBlock {
                    lo: lo + offset,
                    k: *k,
                    matrix: Arc::clone(matrix),
                    controls: controls
                        .iter()
                        .map(|c| Control {
                            qubit: c.qubit + offset,
                            positive: c.positive,
                        })
                        .collect(),
                    label: label.clone(),
                },
                Operation::ApproxPoint => Operation::ApproxPoint,
                Operation::Barrier => Operation::Barrier,
            };
            self.ops.push(shifted);
        }
        self
    }

    /// The inverse (adjoint) circuit: reversed operation order, each gate
    /// inverted. Markers and barriers are preserved in reversed positions.
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        let mut inv = Circuit::new(self.n_qubits, format!("{}_inv", self.name));
        for op in self.ops.iter().rev() {
            let inverted = match op {
                Operation::Gate {
                    gate,
                    target,
                    controls,
                } => Operation::Gate {
                    gate: gate.inverse(),
                    target: *target,
                    controls: controls.clone(),
                },
                Operation::Permutation {
                    lo,
                    k,
                    perm,
                    controls,
                    label,
                } => {
                    let mut inv_perm = vec![0usize; perm.len()];
                    for (c, &r) in perm.iter().enumerate() {
                        inv_perm[r] = c;
                    }
                    Operation::Permutation {
                        lo: *lo,
                        k: *k,
                        perm: Arc::new(inv_perm),
                        controls: controls.clone(),
                        label: format!("{label}^-1"),
                    }
                }
                Operation::DenseBlock {
                    lo,
                    k,
                    matrix,
                    controls,
                    label,
                } => {
                    // Inverse of a unitary block = conjugate transpose.
                    let dim = 1usize << k;
                    let mut dag = vec![approxdd_complex::Cplx::ZERO; matrix.len()];
                    for r in 0..dim {
                        for c in 0..dim {
                            dag[c * dim + r] = matrix[r * dim + c].conj();
                        }
                    }
                    Operation::DenseBlock {
                        lo: *lo,
                        k: *k,
                        matrix: Arc::new(dag),
                        controls: controls.clone(),
                        label: format!("{label}^-1"),
                    }
                }
                Operation::ApproxPoint => Operation::ApproxPoint,
                Operation::Barrier => Operation::Barrier,
            };
            inv.ops.push(inverted);
        }
        inv
    }

    /// Checks qubit ranges, duplicate usage, permutation bijectivity and
    /// that every gate and dense-block matrix entry is finite.
    ///
    /// # Errors
    ///
    /// The first [`CircuitError`] encountered, if any.
    pub fn validate(&self) -> Result<(), CircuitError> {
        for (i, op) in self.ops.iter().enumerate() {
            // Work in proportion to the operation's own qubit list,
            // never to the register width (which untrusted input sets).
            let qubits = op.qubits();
            for (pos, &q) in qubits.iter().enumerate() {
                if q >= self.n_qubits {
                    return Err(CircuitError::QubitOutOfRange {
                        op_index: i,
                        qubit: q,
                        n_qubits: self.n_qubits,
                    });
                }
                if qubits[..pos].contains(&q) {
                    return Err(CircuitError::DuplicateQubit {
                        op_index: i,
                        qubit: q,
                    });
                }
            }
            if let Operation::Permutation { k, perm, .. } = op {
                let dim = 1usize << k;
                if perm.len() != dim {
                    return Err(CircuitError::InvalidPermutation { op_index: i });
                }
                let mut hit = vec![false; dim];
                for &p in perm.iter() {
                    if p >= dim || hit[p] {
                        return Err(CircuitError::InvalidPermutation { op_index: i });
                    }
                    hit[p] = true;
                }
            }
            if let Operation::DenseBlock { k, matrix, .. } = op {
                let dim = 1usize << k;
                if matrix.len() != dim * dim {
                    return Err(CircuitError::InvalidDenseBlock { op_index: i });
                }
                if !matrix.iter().all(|z| z.is_finite()) {
                    return Err(CircuitError::NonFinite { op_index: i });
                }
            }
            if let Operation::Gate { gate, .. } = op {
                if !gate.matrix().iter().flatten().all(|z| z.is_finite()) {
                    return Err(CircuitError::NonFinite { op_index: i });
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // builder methods
    // ------------------------------------------------------------------

    /// Appends an uncontrolled single-qubit gate.
    pub fn gate(&mut self, gate: Gate, target: usize) -> &mut Self {
        self.push(Operation::Gate {
            gate,
            target,
            controls: Vec::new(),
        })
    }

    /// Appends a controlled single-qubit gate (positive controls).
    pub(crate) fn controlled(
        &mut self,
        gate: Gate,
        controls: &[usize],
        target: usize,
    ) -> &mut Self {
        self.push(Operation::Gate {
            gate,
            target,
            controls: controls.iter().map(|&q| Control::positive(q)).collect(),
        })
    }

    /// Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::H, q)
    }

    /// Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::X, q)
    }

    /// Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::Z, q)
    }

    /// S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::S, q)
    }

    /// T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.gate(Gate::T, q)
    }

    /// X-rotation.
    pub fn rx(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Rx(theta), q)
    }

    /// Y-rotation.
    pub fn ry(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Ry(theta), q)
    }

    /// Z-rotation.
    pub fn rz(&mut self, theta: f64, q: usize) -> &mut Self {
        self.gate(Gate::Rz(theta), q)
    }

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) -> &mut Self {
        self.controlled(Gate::X, &[c], t)
    }

    /// Controlled-Z.
    pub fn cz(&mut self, c: usize, t: usize) -> &mut Self {
        self.controlled(Gate::Z, &[c], t)
    }

    /// Controlled phase gate.
    pub(crate) fn cp(&mut self, theta: f64, c: usize, t: usize) -> &mut Self {
        self.controlled(Gate::Phase(theta), &[c], t)
    }

    /// Toffoli (CCX).
    pub(crate) fn ccx(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.controlled(Gate::X, &[c1, c2], t)
    }

    /// SWAP, decomposed into three CNOTs.
    pub(crate) fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.cx(a, b).cx(b, a).cx(a, b)
    }

    /// Appends a controlled basis permutation on qubits `[lo, lo+k)`.
    pub fn permutation(
        &mut self,
        lo: usize,
        k: usize,
        perm: Vec<usize>,
        controls: &[Control],
        label: impl Into<String>,
    ) -> &mut Self {
        self.push(Operation::Permutation {
            lo,
            k,
            perm: Arc::new(perm),
            controls: controls.to_vec(),
            label: label.into(),
        })
    }

    /// Appends a controlled dense unitary block on qubits `[lo, lo+k)`
    /// (row-major `2^k × 2^k` matrix).
    pub(crate) fn dense_block(
        &mut self,
        lo: usize,
        k: usize,
        matrix: Vec<approxdd_complex::Cplx>,
        controls: &[Control],
        label: impl Into<String>,
    ) -> &mut Self {
        self.push(Operation::DenseBlock {
            lo,
            k,
            matrix: Arc::new(matrix),
            controls: controls.to_vec(),
            label: label.into(),
        })
    }

    /// Appends an approximation marker (a block boundary for the
    /// fidelity-driven strategy).
    pub fn approx_point(&mut self) -> &mut Self {
        self.push(Operation::ApproxPoint)
    }

    /// Appends a barrier.
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Operation::Barrier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains_and_counts() {
        let mut c = Circuit::new(3, "test");
        c.h(0).cx(0, 1).ccx(0, 1, 2).approx_point().t(2);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.len(), 5);
        let controlled = c
            .ops()
            .iter()
            .filter(|op| matches!(op, Operation::Gate { controls, .. } if !controls.is_empty()))
            .count();
        assert_eq!(controlled, 2);
        c.validate().unwrap();
    }

    #[test]
    fn validate_catches_out_of_range() {
        let mut c = Circuit::new(2, "bad");
        c.h(5);
        assert!(matches!(
            c.validate(),
            Err(CircuitError::QubitOutOfRange { qubit: 5, .. })
        ));
    }

    #[test]
    fn validate_catches_duplicate_qubits() {
        let mut c = Circuit::new(2, "bad");
        c.cx(1, 1);
        assert!(matches!(
            c.validate(),
            Err(CircuitError::DuplicateQubit { qubit: 1, .. })
        ));
    }

    #[test]
    fn validate_does_not_allocate_by_register_width() {
        // The width is untrusted input (a QASM `qreg`): a scratch vector
        // of that length per operation aborts the process.
        let mut c = Circuit::new(usize::MAX / 2, "wide");
        c.h(0).cx(0, 7);
        c.validate().unwrap();
    }

    #[test]
    fn validate_catches_non_finite_entries() {
        for angle in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = Circuit::new(2, "bad");
            c.h(0).rx(angle, 1);
            assert!(matches!(
                c.validate(),
                Err(CircuitError::NonFinite { op_index: 1 })
            ));
        }
        let mut c = Circuit::new(1, "bad");
        let nan = approxdd_complex::Cplx::new(f64::NAN, 0.0);
        c.dense_block(0, 1, vec![nan; 4], &[], "nan");
        assert!(matches!(
            c.validate(),
            Err(CircuitError::NonFinite { op_index: 0 })
        ));
    }

    #[test]
    fn validate_catches_bad_permutation() {
        let mut c = Circuit::new(2, "bad");
        c.permutation(0, 1, vec![0, 0], &[], "dup");
        assert!(matches!(
            c.validate(),
            Err(CircuitError::InvalidPermutation { .. })
        ));
    }

    #[test]
    fn append_shifts_qubits() {
        let mut inner = Circuit::new(2, "inner");
        inner.h(0).cx(0, 1);
        let mut outer = Circuit::new(5, "outer");
        outer.append(&inner, 3);
        match &outer.ops()[0] {
            Operation::Gate { target, .. } => assert_eq!(*target, 3),
            other => panic!("unexpected {other:?}"),
        }
        match &outer.ops()[1] {
            Operation::Gate {
                target, controls, ..
            } => {
                assert_eq!(*target, 4);
                assert_eq!(controls[0].qubit, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        outer.validate().unwrap();
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2, "fwd");
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse();
        assert_eq!(inv.gate_count(), 3);
        match &inv.ops()[0] {
            Operation::Gate { gate, .. } => assert_eq!(*gate, Gate::X), // cx last -> first
            other => panic!("unexpected {other:?}"),
        }
        match &inv.ops()[1] {
            Operation::Gate { gate, .. } => assert_eq!(*gate, Gate::Sdg),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn inverse_of_permutation_inverts_table() {
        let mut c = Circuit::new(2, "perm");
        c.permutation(0, 2, vec![1, 2, 3, 0], &[], "cycle");
        let inv = c.inverse();
        match &inv.ops()[0] {
            Operation::Permutation { perm, .. } => {
                assert_eq!(perm.as_slice(), &[3, 0, 1, 2]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn swap_is_three_cnots() {
        let mut c = Circuit::new(2, "swap");
        c.swap(0, 1);
        assert_eq!(c.gate_count(), 3);
    }
}
