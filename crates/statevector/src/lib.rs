//! Dense state-vector simulation — the "naive array" baseline the paper
//! contrasts decision diagrams against (Section II-A / III), and the
//! exact oracle this workspace's tests validate the DD engine with.
//!
//! The representation is the full `2^n` amplitude vector, so memory is
//! exponential regardless of state structure; practical up to ~24 qubits.
//!
//! # Examples
//!
//! ```
//! use approxdd_circuit::generators;
//! use approxdd_statevector::State;
//!
//! let mut s = State::zero(3);
//! s.run(&generators::ghz(3)).unwrap();
//! assert!((s.probability(0b000) - 0.5).abs() < 1e-12);
//! assert!((s.probability(0b111) - 0.5).abs() < 1e-12);
//! ```

mod density;
pub mod xeb;

pub use density::{DensityMatrix, KrausOperator, MAX_DENSITY_QUBITS};

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use approxdd_circuit::{Circuit, Operation};
use approxdd_complex::Cplx;
use rand::Rng;

/// Errors from dense simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StateError {
    /// Register too wide for a dense vector on this machine.
    TooManyQubits {
        /// Requested width.
        n_qubits: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Operation qubits out of range or overlapping.
    BadOperation {
        /// Index of the operation within the circuit (`usize::MAX` for
        /// direct calls).
        op_index: usize,
    },
    /// Circuit width does not match the state.
    WidthMismatch {
        /// State width.
        state: usize,
        /// Circuit width.
        circuit: usize,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::TooManyQubits { n_qubits, max } => {
                write!(f, "{n_qubits} qubits exceed dense maximum of {max}")
            }
            StateError::BadOperation { op_index } => {
                write!(f, "malformed operation at index {op_index}")
            }
            StateError::WidthMismatch { state, circuit } => {
                write!(f, "state has {state} qubits but circuit has {circuit}")
            }
        }
    }
}

impl Error for StateError {}

/// Maximum dense register width (2^26 amplitudes = 1 GiB of `Cplx`).
pub const MAX_DENSE_QUBITS: usize = 26;

/// A dense quantum state.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    n: usize,
    amps: Vec<Cplx>,
}

impl State {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > MAX_DENSE_QUBITS`.
    #[must_use]
    pub fn zero(n_qubits: usize) -> Self {
        Self::basis(n_qubits, 0)
    }

    /// The computational basis state `|idx⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > MAX_DENSE_QUBITS` or `idx` out of range.
    #[must_use]
    pub(crate) fn basis(n_qubits: usize, idx: u64) -> Self {
        assert!(
            n_qubits <= MAX_DENSE_QUBITS,
            "dense state limited to {MAX_DENSE_QUBITS} qubits"
        );
        assert!((idx as usize) < (1usize << n_qubits));
        let mut amps = vec![Cplx::ZERO; 1 << n_qubits];
        amps[idx as usize] = Cplx::ONE;
        Self { n: n_qubits, amps }
    }

    /// Builds a state from raw amplitudes (length must be a power of
    /// two). The vector is used as-is; callers wanting a unit state
    /// should normalize first.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or exceeds the dense
    /// maximum.
    #[must_use]
    pub(crate) fn from_amplitudes(amps: Vec<Cplx>) -> Self {
        assert!(amps.len().is_power_of_two() && !amps.is_empty());
        let n = amps.len().trailing_zeros() as usize;
        assert!(n <= MAX_DENSE_QUBITS);
        Self { n, amps }
    }

    /// Register width.
    #[must_use]
    pub(crate) fn n_qubits(&self) -> usize {
        self.n
    }

    /// The amplitude slice (little-endian basis indexing: bit `q` of the
    /// index is qubit `q`).
    #[must_use]
    pub fn amplitudes(&self) -> &[Cplx] {
        &self.amps
    }

    /// Consumes the state, returning its amplitude vector (the
    /// allocation-reuse path of the density-matrix column kernels).
    #[must_use]
    pub(crate) fn into_amplitudes(self) -> Vec<Cplx> {
        self.amps
    }

    /// Born-rule probability of basis state `idx`.
    #[must_use]
    pub fn probability(&self, idx: u64) -> f64 {
        self.amps[idx as usize].mag2()
    }

    /// ℓ2 norm of the state.
    #[must_use]
    pub(crate) fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt()
    }

    /// Applies one circuit operation in place.
    ///
    /// # Errors
    ///
    /// [`StateError::BadOperation`] on out-of-range or overlapping
    /// qubits.
    pub(crate) fn apply(&mut self, op: &Operation) -> Result<(), StateError> {
        self.apply_indexed(op, usize::MAX)
    }

    fn apply_indexed(&mut self, op: &Operation, op_index: usize) -> Result<(), StateError> {
        match op {
            Operation::Gate {
                gate,
                target,
                controls,
            } => {
                let t = *target;
                if t >= self.n {
                    return Err(StateError::BadOperation { op_index });
                }
                let mut cmask = 0usize;
                let mut cval = 0usize;
                for c in controls {
                    if c.qubit >= self.n || c.qubit == t || cmask >> c.qubit & 1 == 1 {
                        return Err(StateError::BadOperation { op_index });
                    }
                    cmask |= 1 << c.qubit;
                    if c.positive {
                        cval |= 1 << c.qubit;
                    }
                }
                let m = gate.matrix();
                let tbit = 1usize << t;
                for i in 0..self.amps.len() {
                    // Visit each amplitude pair once via its |0>-member,
                    // and only when the controls are satisfied.
                    if i & tbit != 0 || (i & cmask) != cval {
                        continue;
                    }
                    let j = i | tbit;
                    let a0 = self.amps[i];
                    let a1 = self.amps[j];
                    self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                    self.amps[j] = m[1][0] * a0 + m[1][1] * a1;
                }
                Ok(())
            }
            Operation::Permutation {
                lo,
                k,
                perm,
                controls,
                ..
            } => {
                let (lo, k) = (*lo, *k);
                if lo + k > self.n || perm.len() != 1 << k {
                    return Err(StateError::BadOperation { op_index });
                }
                let mut cmask = 0usize;
                let mut cval = 0usize;
                for c in controls {
                    if c.qubit >= self.n || (c.qubit >= lo && c.qubit < lo + k) {
                        return Err(StateError::BadOperation { op_index });
                    }
                    cmask |= 1 << c.qubit;
                    if c.positive {
                        cval |= 1 << c.qubit;
                    }
                }
                let block_mask = ((1usize << k) - 1) << lo;
                // perm is a bijection on control-satisfied indices, so
                // every target index is written exactly once.
                let mut fresh = vec![Cplx::ZERO; self.amps.len()];
                for (i, amp) in self.amps.iter().enumerate() {
                    let j = if (i & cmask) == cval {
                        let block = (i & block_mask) >> lo;
                        (i & !block_mask) | (perm[block] << lo)
                    } else {
                        i
                    };
                    fresh[j] = *amp;
                }
                self.amps = fresh;
                Ok(())
            }
            Operation::DenseBlock {
                lo,
                k,
                matrix,
                controls,
                ..
            } => {
                let (lo, k) = (*lo, *k);
                let dim = 1usize << k;
                if lo + k > self.n || matrix.len() != dim * dim {
                    return Err(StateError::BadOperation { op_index });
                }
                let mut cmask = 0usize;
                let mut cval = 0usize;
                for c in controls {
                    if c.qubit >= self.n || (c.qubit >= lo && c.qubit < lo + k) {
                        return Err(StateError::BadOperation { op_index });
                    }
                    cmask |= 1 << c.qubit;
                    if c.positive {
                        cval |= 1 << c.qubit;
                    }
                }
                let block_mask = (dim - 1) << lo;
                let mut fresh = self.amps.clone();
                // Iterate over block bases (indices with block bits zero
                // and controls satisfied) and apply the dense matrix.
                for base in 0..self.amps.len() {
                    if base & block_mask != 0 || (base & cmask) != cval {
                        continue;
                    }
                    let mut input = vec![Cplx::ZERO; dim];
                    for (b, slot) in input.iter_mut().enumerate() {
                        *slot = self.amps[base | (b << lo)];
                    }
                    for r in 0..dim {
                        let mut acc = Cplx::ZERO;
                        for (c, inp) in input.iter().enumerate() {
                            acc += matrix[r * dim + c] * *inp;
                        }
                        fresh[base | (r << lo)] = acc;
                    }
                }
                self.amps = fresh;
                Ok(())
            }
            Operation::ApproxPoint | Operation::Barrier => Ok(()),
        }
    }

    /// Runs an entire circuit.
    ///
    /// # Errors
    ///
    /// [`StateError::WidthMismatch`] or the first per-operation error.
    pub fn run(&mut self, circuit: &Circuit) -> Result<(), StateError> {
        if circuit.n_qubits() != self.n {
            return Err(StateError::WidthMismatch {
                state: self.n,
                circuit: circuit.n_qubits(),
            });
        }
        for (i, op) in circuit.ops().iter().enumerate() {
            self.apply_indexed(op, i)?;
        }
        Ok(())
    }

    /// Draws one measurement outcome.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut r = rng.gen::<f64>() * self.norm().powi(2);
        for (i, a) in self.amps.iter().enumerate() {
            r -= a.mag2();
            if r <= 0.0 {
                return i as u64;
            }
        }
        (self.amps.len() - 1) as u64
    }

    /// Draws `shots` outcomes into a histogram.
    #[must_use]
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> HashMap<u64, usize> {
        let mut counts = HashMap::new();
        for _ in 0..shots {
            *counts.entry(self.sample(rng)).or_insert(0) += 1;
        }
        counts
    }

    /// Expectation value of a diagonal (computational-basis) observable
    /// `O = Σ f(i) |i⟩⟨i|`: `Σ_i |a_i|² · f(i)`.
    #[must_use]
    pub fn expectation_diagonal(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.mag2() * f(i as u64))
            .sum()
    }
}

/// Runs `circuit` from `|0…0⟩` on a fresh dense state.
///
/// # Errors
///
/// [`StateError::TooManyQubits`] beyond [`MAX_DENSE_QUBITS`], or the
/// first per-operation error.
pub fn run_circuit(circuit: &Circuit) -> Result<State, StateError> {
    if circuit.n_qubits() > MAX_DENSE_QUBITS {
        return Err(StateError::TooManyQubits {
            n_qubits: circuit.n_qubits(),
            max: MAX_DENSE_QUBITS,
        });
    }
    let mut state = State::zero(circuit.n_qubits());
    state.run(circuit)?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ghz_probabilities() {
        let mut s = State::zero(4);
        s.run(&generators::ghz(4)).unwrap();
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b1111) - 0.5).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_gate_respects_polarity() {
        use approxdd_circuit::{Control, Gate, Operation};
        let mut s = State::basis(2, 0b00);
        // X on q0 negatively controlled by q1 -> fires (q1 = 0).
        s.apply(&Operation::Gate {
            gate: Gate::X,
            target: 0,
            controls: vec![Control::negative(1)],
        })
        .unwrap();
        assert!((s.probability(0b01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_moves_amplitudes() {
        use approxdd_circuit::Operation;
        use std::sync::Arc;
        let mut s = State::basis(3, 0b010);
        // Cyclic shift on low 2 qubits: |2> -> |3>.
        s.apply(&Operation::Permutation {
            lo: 0,
            k: 2,
            perm: Arc::new(vec![1, 2, 3, 0]),
            controls: vec![],
            label: "cycle".into(),
        })
        .unwrap();
        assert!((s.probability(0b011) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_permutation_only_fires_when_satisfied() {
        use approxdd_circuit::{Control, Operation};
        use std::sync::Arc;
        let op = Operation::Permutation {
            lo: 0,
            k: 1,
            perm: Arc::new(vec![1, 0]),
            controls: vec![Control::positive(1)],
            label: "cx".into(),
        };
        let mut s = State::basis(2, 0b00);
        s.apply(&op).unwrap();
        assert!((s.probability(0b00) - 1.0).abs() < 1e-12, "control off");
        let mut s = State::basis(2, 0b10);
        s.apply(&op).unwrap();
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12, "control on");
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let n = 5;
        let mut s = State::zero(n);
        s.run(&generators::qft(n)).unwrap();
        let want = 1.0 / (1u64 << n) as f64;
        for i in 0..(1u64 << n) {
            assert!((s.probability(i) - want).abs() < 1e-10, "idx {i}");
        }
    }

    #[test]
    fn qft_inverse_qft_is_identity() {
        let n = 4;
        let mut s = State::basis(n, 11);
        s.run(&generators::qft(n)).unwrap();
        s.run(&generators::inverse_qft(n, false)).unwrap();
        assert!((s.probability(11) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn grover_amplifies_marked_state() {
        let n = 5;
        let marked = 0b10110;
        let mut s = State::zero(n);
        s.run(&generators::grover(n, marked, None)).unwrap();
        let p = s.probability(marked);
        assert!(p > 0.85, "marked probability {p}");
    }

    #[test]
    fn bernstein_vazirani_recovers_secret() {
        let n = 7;
        let secret = 0b1011001;
        let mut s = State::zero(n);
        s.run(&generators::bernstein_vazirani(n, secret)).unwrap();
        assert!((s.probability(secret) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn w_state_has_uniform_one_hot_support() {
        let n = 4;
        let mut s = State::zero(n);
        s.run(&generators::w_state(n)).unwrap();
        for q in 0..n {
            let p = s.probability(1 << q);
            assert!((p - 1.0 / n as f64).abs() < 1e-10, "qubit {q}: {p}");
        }
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut s = State::zero(1);
        s.run(&generators::ghz(1)).unwrap(); // single H
        let mut rng = StdRng::seed_from_u64(5);
        let counts = s.sample_counts(2000, &mut rng);
        let ones = *counts.get(&1).unwrap_or(&0) as f64;
        assert!((ones / 2000.0 - 0.5).abs() < 0.06);
    }

    #[test]
    fn run_circuit_helper_agrees_with_a_manual_run() {
        let ghz = generators::ghz(3);
        let mut manual = State::zero(3);
        manual.run(&ghz).unwrap();
        assert_eq!(run_circuit(&ghz).unwrap(), manual);
    }

    #[test]
    fn diagonal_expectation_of_ghz_counts_excited_qubits() {
        let mut s = State::zero(4);
        s.run(&generators::ghz(4)).unwrap();
        // Observable: number of 1-bits. GHZ: (0 + 4) / 2 = 2.
        let value = s.expectation_diagonal(&|i| f64::from(i.count_ones()));
        assert!((value - 2.0).abs() < 1e-12, "{value}");
    }

    #[test]
    fn width_mismatch_is_reported() {
        let mut s = State::zero(2);
        assert!(matches!(
            s.run(&generators::ghz(3)),
            Err(StateError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn unitarity_preserves_norm_on_random_circuits() {
        for seed in 0..5 {
            let c = generators::random_circuit(6, 8, seed);
            let mut s = State::zero(6);
            s.run(&c).unwrap();
            assert!((s.norm() - 1.0).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn supremacy_circuit_spreads_mass() {
        let c = generators::supremacy(2, 3, 10, 7);
        let mut s = State::zero(6);
        s.run(&c).unwrap();
        assert!((s.norm() - 1.0).abs() < 1e-9);
        // Porter-Thomas-ish: no basis state should dominate.
        let max_p = (0..64).map(|i| s.probability(i)).fold(0.0, f64::max);
        assert!(max_p < 0.5, "max probability {max_p}");
    }
}
