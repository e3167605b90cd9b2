//! Measurement: sampling and outcome probabilities.
//!
//! Sampling descends the DD level by level; thanks to the unit-subtree-
//! norm normalization the branch probabilities at a node are exactly the
//! squared magnitudes of its two edge weights. One sample costs `O(n)`
//! for an `n`-qubit state, independent of the DD size — the reason DD
//! simulators report measurement shots cheaply.

use std::collections::HashMap;

use rand::Rng;

use crate::edge::VEdge;
use crate::error::DdError;
use crate::fasthash::FxHashMap;
use crate::package::Package;
use crate::Result;

impl Package {
    /// Draws one measurement outcome (a basis-state index) from a
    /// unit-norm state without collapsing it.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the state has more than 63 qubits.
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(&self, root: VEdge, rng: &mut R) -> u64 {
        debug_assert!(self.vlevel(root) <= 63);
        let mut out = 0u64;
        let mut node = root.node;
        while !node.is_terminal() {
            let n = self.vnode(node);
            let p0 = n.edges[0].w.mag2();
            let p1 = n.edges[1].w.mag2();
            let total = p0 + p1;
            let bit = if total <= 0.0 {
                0
            } else {
                usize::from(rng.gen::<f64>() * total >= p0)
            };
            if bit == 1 {
                out |= 1u64 << n.var;
            }
            node = n.edges[bit].node;
        }
        out
    }

    /// Draws `shots` measurement outcomes and returns a histogram of
    /// basis-state indices.
    #[must_use]
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        root: VEdge,
        shots: usize,
        rng: &mut R,
    ) -> HashMap<u64, usize> {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for _ in 0..shots {
            *counts.entry(self.sample(root, rng)).or_insert(0) += 1;
        }
        counts
    }

    /// The Born-rule probability of observing basis state `idx`.
    #[must_use]
    pub fn probability(&self, root: VEdge, idx: u64) -> f64 {
        self.amplitude(root, idx).mag2()
    }

    /// The probability that the qubits selected by `mask` read the
    /// corresponding bits of `value` (a marginal over the remaining
    /// qubits). `O(DD size)` per query.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `value` has bits outside `mask`.
    #[must_use]
    pub(crate) fn marginal_probability(&self, root: VEdge, mask: u64, value: u64) -> f64 {
        debug_assert_eq!(value & !mask, 0, "value bits must lie within the mask");
        let mut memo: FxHashMap<crate::edge::NodeId, f64> = FxHashMap::default();
        root.w.mag2() * self.marginal_rec(root.node, mask, value, &mut memo)
    }

    fn marginal_rec(
        &self,
        node: crate::edge::NodeId,
        mask: u64,
        value: u64,
        memo: &mut FxHashMap<crate::edge::NodeId, f64>,
    ) -> f64 {
        if node.is_terminal() {
            return 1.0;
        }
        if let Some(&p) = memo.get(&node) {
            return p;
        }
        let n = self.vnode(node);
        let bit = 1u64 << n.var;
        let mut p = 0.0;
        for (i, e) in n.edges.iter().enumerate() {
            if e.is_zero(self.tolerance()) {
                continue;
            }
            if mask & bit != 0 && (value & bit != 0) != (i == 1) {
                continue; // constrained qubit with the wrong branch
            }
            p += e.w.mag2() * self.marginal_rec(e.node, mask, value, memo);
        }
        memo.insert(node, p);
        p
    }

    /// The full marginal distribution over a small set of qubits
    /// (little-endian within the subset: bit `i` of an outcome index is
    /// `qubits[i]`).
    ///
    /// # Errors
    ///
    /// [`DdError::QubitOutOfRange`] for bad qubit indices;
    /// [`DdError::TooManyQubits`] for subsets above 24 qubits.
    pub fn marginal_distribution(&self, root: VEdge, qubits: &[usize]) -> Result<Vec<f64>> {
        let n = self.vlevel(root);
        if qubits.len() > 24 {
            return Err(DdError::TooManyQubits {
                n_qubits: qubits.len(),
                max: 24,
            });
        }
        for &q in qubits {
            if q >= n {
                return Err(DdError::QubitOutOfRange {
                    qubit: q,
                    n_qubits: n,
                });
            }
        }
        let mask: u64 = qubits.iter().map(|&q| 1u64 << q).sum();
        let mut out = Vec::with_capacity(1 << qubits.len());
        for outcome in 0..(1u64 << qubits.len()) {
            let mut value = 0u64;
            for (i, &q) in qubits.iter().enumerate() {
                if (outcome >> i) & 1 == 1 {
                    value |= 1 << q;
                }
            }
            out.push(self.marginal_probability(root, mask, value));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_complex::Cplx;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell(p: &mut Package) -> VEdge {
        let s = Cplx::FRAC_1_SQRT_2;
        p.from_amplitudes(&[s, Cplx::ZERO, Cplx::ZERO, s]).unwrap()
    }

    #[test]
    fn sampling_basis_state_is_deterministic() {
        let mut p = Package::new();
        let v = p.basis_state(6, 41);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            assert_eq!(p.sample(v, &mut rng), 41);
        }
    }

    #[test]
    fn bell_state_samples_only_00_and_11() {
        let mut p = Package::new();
        let v = bell(&mut p);
        let mut rng = StdRng::seed_from_u64(42);
        let counts = p.sample_counts(v, 4000, &mut rng);
        assert_eq!(counts.keys().filter(|k| ![0u64, 3].contains(k)).count(), 0);
        let c00 = *counts.get(&0).unwrap_or(&0) as f64;
        let c11 = *counts.get(&3).unwrap_or(&0) as f64;
        // 50/50 within loose statistical bounds.
        assert!((c00 / 4000.0 - 0.5).abs() < 0.05, "c00={c00}");
        assert!((c11 / 4000.0 - 0.5).abs() < 0.05, "c11={c11}");
    }

    #[test]
    fn probability_matches_amplitude() {
        let mut p = Package::new();
        let v = bell(&mut p);
        assert!((p.probability(v, 0) - 0.5).abs() < 1e-12);
        assert!((p.probability(v, 3) - 0.5).abs() < 1e-12);
        assert!(p.probability(v, 1) < 1e-12);
    }

    #[test]
    fn marginal_probability_on_bell() {
        let mut p = Package::new();
        let v = bell(&mut p);
        // Marginal of qubit 0 alone: 50/50.
        assert!((p.marginal_probability(v, 0b01, 0b00) - 0.5).abs() < 1e-12);
        assert!((p.marginal_probability(v, 0b01, 0b01) - 0.5).abs() < 1e-12);
        // Joint (full mask) equals the Born probability.
        assert!((p.marginal_probability(v, 0b11, 0b11) - 0.5).abs() < 1e-12);
        assert!(p.marginal_probability(v, 0b11, 0b01) < 1e-12);
        // Empty mask: total probability 1.
        assert!((p.marginal_probability(v, 0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_distribution_sums_to_one() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = (0..16)
            .map(|i| Cplx::new((i as f64 * 0.31).sin(), (i as f64 * 0.77).cos()))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = amps.iter().map(|a| *a / norm).collect();
        let v = p.from_amplitudes(&amps).unwrap();
        let dist = p.marginal_distribution(v, &[1, 3]).unwrap();
        assert_eq!(dist.len(), 4);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-10, "total {total}");
        // Cross-check one entry against a dense marginal.
        let mut want = 0.0;
        for (i, a) in amps.iter().enumerate() {
            if i & 0b0010 != 0 && i & 0b1000 == 0 {
                want += a.mag2();
            }
        }
        assert!((dist[0b01] - want).abs() < 1e-10);
    }

    #[test]
    fn marginal_distribution_guards() {
        let mut p = Package::new();
        let v = p.basis_state(3, 1);
        assert!(p.marginal_distribution(v, &[5]).is_err());
    }
}
