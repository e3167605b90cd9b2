//! Dense density-matrix simulation — the exact baseline for noisy
//! circuits.
//!
//! A [`DensityMatrix`] holds the full `2ⁿ × 2ⁿ` operator `ρ`, applies
//! circuit operations by conjugation (`ρ → U ρ U†`, reusing the dense
//! [`State`] gate kernels column-by-column) and applies noise channels
//! in Kraus form (`ρ → Σᵢ Kᵢ ρ Kᵢ†`, each `Kᵢ` a product of
//! single-qubit factors). This is quadratically more expensive than a
//! state vector, so the width cap is deliberately small
//! ([`MAX_DENSITY_QUBITS`]): it exists to *validate* the stochastic
//! trajectory sampler of `approxdd-noise`, not to scale.

use approxdd_circuit::{Circuit, Operation};
use approxdd_complex::Cplx;

use crate::{State, StateError};

/// Maximum density-matrix width (2²ⁿ entries; 10 qubits = 16 MiB).
pub const MAX_DENSITY_QUBITS: usize = 10;

/// One Kraus operator expressed as a product of single-qubit factors:
/// `(qubit, 2×2 row-major matrix)` pairs. An empty list is the
/// identity. Scale factors (e.g. `√q` selection weights) should be
/// folded into one of the matrices.
pub type KrausOperator = Vec<(usize, [[Cplx; 2]; 2])>;

/// A dense density matrix `ρ`, row-major (`elems[r * dim + c] = ⟨r|ρ|c⟩`,
/// little-endian basis indexing like [`State`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    elems: Vec<Cplx>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > MAX_DENSITY_QUBITS`.
    #[must_use]
    pub fn zero(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= MAX_DENSITY_QUBITS,
            "density matrix limited to {MAX_DENSITY_QUBITS} qubits"
        );
        let dim = 1usize << n_qubits;
        let mut elems = vec![Cplx::ZERO; dim * dim];
        elems[0] = Cplx::ONE;
        Self { n: n_qubits, elems }
    }

    /// Hilbert-space dimension `2ⁿ`.
    #[must_use]
    pub(crate) fn dim(&self) -> usize {
        1 << self.n
    }

    /// `tr ρ` (1 for any trace-preserving evolution of a unit state).
    #[must_use]
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.elems[i * dim + i].re).sum()
    }

    /// `tr ρ²` — 1 for pure states, `1/2ⁿ` for the maximally mixed
    /// state. Decays as noise mixes the state.
    #[must_use]
    pub fn purity(&self) -> f64 {
        // tr ρ² = Σ_{r,c} ρ[r,c]·ρ[c,r] = Σ |ρ[r,c]|² for Hermitian ρ.
        self.elems.iter().map(|e| e.mag2()).sum()
    }

    /// The diagonal `⟨i|ρ|i⟩` — the exact measurement distribution.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let dim = self.dim();
        (0..dim).map(|i| self.elems[i * dim + i].re).collect()
    }

    /// Expectation value of the diagonal observable `Σ f(i) |i⟩⟨i|`.
    #[must_use]
    pub fn expectation_diagonal(&self, f: &dyn Fn(u64) -> f64) -> f64 {
        self.diagonal()
            .iter()
            .enumerate()
            .map(|(i, p)| p * f(i as u64))
            .sum()
    }

    /// Fidelity against a pure state: `⟨ψ|ρ|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn fidelity_pure(&self, state: &State) -> f64 {
        assert_eq!(state.n_qubits(), self.n);
        let dim = self.dim();
        let amps = state.amplitudes();
        let mut acc = Cplx::ZERO;
        for r in 0..dim {
            for c in 0..dim {
                acc += amps[r].conj() * self.elems[r * dim + c] * amps[c];
            }
        }
        acc.re
    }

    /// Conjugate transpose in place (`ρ → ρ†`; a no-op on Hermitian
    /// matrices, used internally to reuse left-multiplication kernels
    /// for right multiplication).
    fn adjoint_in_place(&mut self) {
        let dim = self.dim();
        for r in 0..dim {
            self.elems[r * dim + r] = self.elems[r * dim + r].conj();
            for c in r + 1..dim {
                let a = self.elems[r * dim + c].conj();
                let b = self.elems[c * dim + r].conj();
                self.elems[r * dim + c] = b;
                self.elems[c * dim + r] = a;
            }
        }
    }

    /// Left-multiplies by a circuit operation: `ρ → U ρ`, applying the
    /// dense [`State`] kernel to every column.
    fn apply_left(&mut self, op: &Operation) -> Result<(), StateError> {
        let dim = self.dim();
        let mut column = vec![Cplx::ZERO; dim];
        for c in 0..dim {
            for (r, slot) in column.iter_mut().enumerate() {
                *slot = self.elems[r * dim + c];
            }
            let mut state = State::from_amplitudes(std::mem::take(&mut column));
            state.apply(op)?;
            column = state.into_amplitudes();
            for (r, value) in column.iter().enumerate() {
                self.elems[r * dim + c] = *value;
            }
        }
        Ok(())
    }

    /// Applies a circuit operation by conjugation: `ρ → U ρ U†`.
    ///
    /// # Errors
    ///
    /// The [`State`] kernel's [`StateError`] for malformed operations.
    pub fn apply_op(&mut self, op: &Operation) -> Result<(), StateError> {
        if !op.is_gate() {
            return Ok(());
        }
        // ρ U† = (U ρ†)†, so two left-multiplications bracketed by
        // adjoints give the conjugation without a transposed kernel.
        self.apply_left(op)?;
        self.adjoint_in_place();
        self.apply_left(op)?;
        self.adjoint_in_place();
        Ok(())
    }

    /// Left-multiplies by a single-qubit matrix on qubit `q`.
    fn mul_left_1q(&mut self, q: usize, m: &[[Cplx; 2]; 2]) {
        let dim = self.dim();
        let bit = 1usize << q;
        for c in 0..dim {
            for r0 in 0..dim {
                if r0 & bit != 0 {
                    continue;
                }
                let r1 = r0 | bit;
                let a0 = self.elems[r0 * dim + c];
                let a1 = self.elems[r1 * dim + c];
                self.elems[r0 * dim + c] = m[0][0] * a0 + m[0][1] * a1;
                self.elems[r1 * dim + c] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    /// Right-multiplies by the adjoint of a single-qubit matrix on
    /// qubit `q`: `ρ → ρ M†`.
    fn mul_right_dagger_1q(&mut self, q: usize, m: &[[Cplx; 2]; 2]) {
        let dim = self.dim();
        let bit = 1usize << q;
        for r in 0..dim {
            for c0 in 0..dim {
                if c0 & bit != 0 {
                    continue;
                }
                let c1 = c0 | bit;
                let a0 = self.elems[r * dim + c0];
                let a1 = self.elems[r * dim + c1];
                self.elems[r * dim + c0] = a0 * m[0][0].conj() + a1 * m[0][1].conj();
                self.elems[r * dim + c1] = a0 * m[1][0].conj() + a1 * m[1][1].conj();
            }
        }
    }

    /// Applies a noise channel in Kraus form: `ρ → Σᵢ Kᵢ ρ Kᵢ†`, each
    /// operator a product of single-qubit factors (see
    /// [`KrausOperator`]). Callers are responsible for completeness
    /// (`Σ Kᵢ†Kᵢ = I`) if they want the trace preserved.
    ///
    /// # Panics
    ///
    /// Panics if a factor's qubit is out of range.
    pub fn apply_kraus(&mut self, operators: &[KrausOperator]) {
        let mut sum = vec![Cplx::ZERO; self.elems.len()];
        for kraus in operators {
            let mut term = self.clone();
            for &(q, m) in kraus {
                assert!(q < self.n, "kraus factor qubit {q} out of range");
                term.mul_left_1q(q, &m);
                term.mul_right_dagger_1q(q, &m);
            }
            for (acc, e) in sum.iter_mut().zip(&term.elems) {
                *acc += *e;
            }
        }
        self.elems = sum;
    }

    /// Runs a noiseless circuit by conjugation (channel application is
    /// the caller's job — see `approxdd-noise`'s exact baseline, which
    /// interleaves [`DensityMatrix::apply_op`] and
    /// [`DensityMatrix::apply_kraus`]).
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
        for op in circuit.ops() {
            self.apply_op(op)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;

    /// The pure density matrix `|ψ⟩⟨ψ|` of a state vector — the
    /// reference unitary evolution is checked against.
    fn pure(state: &State) -> DensityMatrix {
        let amps = state.amplitudes();
        let dim = amps.len();
        let mut elems = vec![Cplx::ZERO; dim * dim];
        for (r, a) in amps.iter().enumerate() {
            for (c, b) in amps.iter().enumerate() {
                elems[r * dim + c] = *a * b.conj();
            }
        }
        DensityMatrix {
            n: state.n_qubits(),
            elems,
        }
    }

    fn x_matrix() -> [[Cplx; 2]; 2] {
        [[Cplx::ZERO, Cplx::ONE], [Cplx::ONE, Cplx::ZERO]]
    }

    #[test]
    fn pure_evolution_matches_statevector() {
        for circuit in [
            generators::ghz(4),
            generators::qft(3),
            generators::supremacy(2, 2, 6, 1),
        ] {
            let mut rho = DensityMatrix::zero(circuit.n_qubits());
            rho.run(&circuit).unwrap();
            let sv = crate::run_circuit(&circuit).unwrap();
            let want = pure(&sv);
            assert!((rho.trace() - 1.0).abs() < 1e-10, "{}", circuit.name());
            assert!((rho.purity() - 1.0).abs() < 1e-10, "{}", circuit.name());
            for (a, b) in rho.elems.iter().zip(&want.elems) {
                assert!((*a - *b).mag() < 1e-9, "{}", circuit.name());
            }
            assert!((rho.fidelity_pure(&sv) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn bit_flip_kraus_mixes_the_diagonal() {
        // X-flip with p = 0.25 on |0⟩: diag (0.75, 0.25), purity drops.
        let p: f64 = 0.25;
        let mut rho = DensityMatrix::zero(1);
        let id = [
            [Cplx::real((1.0 - p).sqrt()), Cplx::ZERO],
            [Cplx::ZERO, Cplx::real((1.0 - p).sqrt())],
        ];
        let flip = [
            [Cplx::ZERO, Cplx::real(p.sqrt())],
            [Cplx::real(p.sqrt()), Cplx::ZERO],
        ];
        rho.apply_kraus(&[vec![(0, id)], vec![(0, flip)]]);
        let diag = rho.diagonal();
        assert!((diag[0] - 0.75).abs() < 1e-12);
        assert!((diag[1] - 0.25).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn two_factor_kraus_acts_on_both_qubits() {
        // X⊗X on |00⟩⟨00| → |11⟩⟨11|.
        let mut rho = DensityMatrix::zero(2);
        rho.apply_kraus(&[vec![(0, x_matrix()), (1, x_matrix())]]);
        let diag = rho.diagonal();
        assert!((diag[3] - 1.0).abs() < 1e-12, "{diag:?}");
    }

    #[test]
    fn amplitude_damping_fixed_point_is_ground_state() {
        // Full damping sends |1⟩ to |0⟩.
        let gamma: f64 = 1.0;
        let k0 = [
            [Cplx::ONE, Cplx::ZERO],
            [Cplx::ZERO, Cplx::real((1.0 - gamma).sqrt())],
        ];
        let k1 = [
            [Cplx::ZERO, Cplx::real(gamma.sqrt())],
            [Cplx::ZERO, Cplx::ZERO],
        ];
        let mut one = State::zero(1);
        one.apply(&Operation::Gate {
            gate: approxdd_circuit::Gate::X,
            target: 0,
            controls: vec![],
        })
        .unwrap();
        let mut rho = pure(&one);
        rho.apply_kraus(&[vec![(0, k0)], vec![(0, k1)]]);
        let diag = rho.diagonal();
        assert!((diag[0] - 1.0).abs() < 1e-12);
        assert!(diag[1].abs() < 1e-12);
    }

    #[test]
    fn expectation_and_diagonal_agree() {
        let mut rho = DensityMatrix::zero(3);
        rho.run(&generators::ghz(3)).unwrap();
        let ones = rho.expectation_diagonal(&|i| f64::from(i.count_ones()));
        assert!((ones - 1.5).abs() < 1e-10, "{ones}");
        let total: f64 = rho.diagonal().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn width_mismatch_is_reported() {
        let mut rho = DensityMatrix::zero(2);
        assert!(matches!(
            rho.run(&generators::ghz(3)),
            Err(StateError::WidthMismatch { .. })
        ));
    }
}
