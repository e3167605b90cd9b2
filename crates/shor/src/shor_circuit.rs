//! Shor circuit construction (Fig. 2 of the paper).
//!
//! Layout for factoring an `n_bits`-bit number `N`:
//!
//! * **work register**: qubits `[0, n_bits)`, initialized to `|1⟩`;
//! * **counting register**: qubits `[n_bits, 3·n_bits)`, `2·n_bits`
//!   qubits wide (the paper's benchmarks use exactly `3n` qubits:
//!   `shor_33_5` → 18, `shor_1157_8` → 33).
//!
//! The circuit: H on all counting qubits; for each counting qubit `j` a
//! controlled modular multiplication by `a^{2^j} mod N` on the work
//! register (an [`Operation::Permutation`] block — multiplication by a
//! unit of Z_N permutes basis states); then the inverse QFT on the
//! counting register. Approximation markers sit after every modular
//! multiplication and inside the inverse QFT, the block boundaries of
//! Example 10.

use approxdd_circuit::{generators, Circuit, Control};

use crate::classical::{bit_length, gcd, modmul};
use crate::error::ShorError;
use crate::Result;

/// Builds the Shor circuit for factoring `n` with base `a`
/// (benchmark name `shor_<n>_<a>`).
///
/// # Errors
///
/// * [`ShorError::NotComposite`] for `n < 3` or even `n`;
/// * [`ShorError::BaseNotCoprime`] if `gcd(a, n) != 1`;
/// * [`ShorError::TooLarge`] if the 3n-qubit register exceeds engine
///   limits (work register ≤ 26 qubits).
pub fn shor_circuit(n: u64, a: u64) -> Result<Circuit> {
    if n < 3 || n.is_multiple_of(2) {
        return Err(ShorError::NotComposite { n });
    }
    if a < 2 || gcd(a, n) != 1 {
        return Err(ShorError::BaseNotCoprime { a, n });
    }
    let n_work = bit_length(n);
    let n_count = 2 * n_work;
    let total = n_work + n_count;
    if n_work > 26 || total > 255 {
        return Err(ShorError::TooLarge { n, qubits: total });
    }

    let mut c = Circuit::new(total, format!("shor_{n}_{a}"));

    // Work register to |1>.
    c.x(0);
    // Counting register into uniform superposition.
    for j in 0..n_count {
        c.h(n_work + j);
    }

    // Controlled modular multiplications: counting qubit j controls
    // multiplication by a^(2^j) mod n.
    let dim = 1usize << n_work;
    let mut a_pow = a % n;
    for j in 0..n_count {
        let perm = multiplication_permutation(a_pow, n, dim);
        c.permutation(
            0,
            n_work,
            perm,
            &[Control::positive(n_work + j)],
            format!("*{a}^(2^{j}) mod {n}"),
        );
        c.approx_point();
        a_pow = modmul(a_pow, a_pow, n);
    }

    // Inverse QFT on the counting register, with approximation markers
    // after each qubit block (Example 10).
    let iqft = generators::inverse_qft(n_count, true);
    c.append(&iqft, n_work);
    Ok(c)
}

/// The basis permutation of multiplication by `m` modulo `n` on a
/// `dim`-element register: `x → m·x mod n` for `x < n`, identity above.
/// A bijection because `m` is a unit of Z_n.
fn multiplication_permutation(m: u64, n: u64, dim: usize) -> Vec<usize> {
    (0..dim)
        .map(|x| {
            if (x as u64) < n {
                modmul(m, x as u64, n) as usize
            } else {
                x
            }
        })
        .collect()
}

/// The classically-known modular exponent `a^(2^j) mod n` — used by
/// tests that validate gate construction.
#[cfg(test)]
pub(crate) fn power_of_base(a: u64, j: u32, n: u64) -> u64 {
    crate::classical::modpow(a, 1u64 << j, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::Operation;

    #[test]
    fn shor_33_5_matches_paper_width() {
        let c = shor_circuit(33, 5).unwrap();
        assert_eq!(c.n_qubits(), 18, "paper lists shor_33_5 at 18 qubits");
        c.validate().unwrap();
    }

    #[test]
    fn paper_benchmark_widths() {
        for (n, a, qubits) in [
            (33u64, 5u64, 18usize),
            (55, 2, 18),
            (69, 2, 21),
            (221, 4, 24),
            (323, 8, 27),
            (629, 8, 30),
            (1157, 8, 33),
        ] {
            let c = shor_circuit(n, a).unwrap();
            assert_eq!(c.n_qubits(), qubits, "shor_{n}_{a}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            shor_circuit(16, 3),
            Err(ShorError::NotComposite { .. })
        ));
        assert!(matches!(
            shor_circuit(15, 6),
            Err(ShorError::BaseNotCoprime { .. })
        ));
        assert!(matches!(
            shor_circuit(2, 3),
            Err(ShorError::NotComposite { .. })
        ));
    }

    #[test]
    fn multiplication_permutation_is_bijective() {
        let perm = multiplication_permutation(7, 15, 16);
        let mut seen = [false; 16];
        for &p in &perm {
            assert!(!seen[p]);
            seen[p] = true;
        }
        // x >= n untouched.
        assert_eq!(perm[15], 15);
        // 7*2 mod 15 = 14.
        assert_eq!(perm[2], 14);
    }

    #[test]
    fn controlled_multiplications_use_successive_squares() {
        let c = shor_circuit(15, 7).unwrap();
        let perms: Vec<&Operation> = c
            .ops()
            .iter()
            .filter(|op| matches!(op, Operation::Permutation { .. }))
            .collect();
        assert_eq!(perms.len(), 8, "2n controlled multiplications");
        // First multiplication is by 7, second by 7^2 = 4 mod 15.
        if let Operation::Permutation { perm, .. } = perms[0] {
            assert_eq!(perm[1], 7);
        }
        if let Operation::Permutation { perm, .. } = perms[1] {
            assert_eq!(perm[1], 4);
        }
        assert_eq!(power_of_base(7, 1, 15), 4);
    }

    #[test]
    fn counting_register_controls_are_ascending() {
        let c = shor_circuit(15, 7).unwrap();
        let mut controls = Vec::new();
        for op in c.ops() {
            if let Operation::Permutation { controls: ctl, .. } = op {
                controls.push(ctl[0].qubit);
            }
        }
        let expect: Vec<usize> = (4..12).collect();
        assert_eq!(controls, expect);
    }
}
