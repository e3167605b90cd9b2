//! Measurement: sampling and outcome probabilities.
//!
//! Sampling descends the DD level by level; thanks to the unit-subtree-
//! norm normalization the branch probabilities at a node are exactly the
//! squared magnitudes of its two edge weights.
//!
//! * [`Package::sample`] draws one shot by that walk: one uniform per
//!   level, `O(n)` for an `n`-qubit state, independent of the DD size.
//!   Shor's adaptive order finding draws its shots one at a time this
//!   way.
//! * [`Package::sample_counts`] routes a whole shot count down the DD
//!   at once: a node splits the count it receives between its two
//!   children with one exact binomial draw, so each distinct outcome
//!   prefix among the drawn shots is visited once. The cost is
//!   `O(distinct prefixes)` — at most `n · distinct outcomes`, and
//!   about `2 · 2^k` for a near-uniform `k`-qubit distribution
//!   sampled with ≥ `2^k` shots — instead of `O(n · shots)`; a prefix
//!   that holds one shot costs one uniform per level, like `sample`.
//!   The draws follow the same Born distribution as `shots` calls of
//!   `sample`, but not the same random stream.

use rand::Rng;

use crate::binomial::binomial;
use crate::edge::{NodeId, VEdge};
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
            let edges = n.edges();
            let p0 = edges[0].w.mag2();
            let p1 = edges[1].w.mag2();
            let total = p0 + p1;
            let bit = if total <= 0.0 {
                0
            } else {
                usize::from(rng.gen::<f64>() * total >= p0)
            };
            if bit == 1 {
                out |= 1u64 << n.var;
            }
            node = edges[bit].node;
        }
        out
    }

    /// Draws `shots` measurement outcomes of a unit-norm state and
    /// returns their histogram as `(outcome, count)` runs in ascending
    /// outcome order, each count positive, the counts summing to
    /// `shots` (see the module docs for the routing pass and its cost).
    ///
    /// # Panics
    ///
    /// Debug builds panic if the state has more than 63 qubits.
    #[must_use]
    pub fn sample_counts<R: Rng + ?Sized>(
        &self,
        root: VEdge,
        shots: usize,
        rng: &mut R,
    ) -> Vec<(u64, usize)> {
        debug_assert!(self.vlevel(root) <= 63);
        let mut runs = Vec::new();
        if shots > 0 {
            self.route(root.node, shots as u64, 0, rng, &mut runs);
        }
        runs
    }

    /// Routes `shots` shots from `node`, whose outcome bits above it
    /// read `prefix`, and appends their runs. Child 0's shots are
    /// routed before child 1's, and a path with a single child taken is
    /// followed without recursing, so recursion depth is at most the
    /// number of levels.
    fn route<R: Rng + ?Sized>(
        &self,
        mut node: NodeId,
        mut shots: u64,
        mut prefix: u64,
        rng: &mut R,
        runs: &mut Vec<(u64, usize)>,
    ) {
        while !node.is_terminal() {
            let n = self.vnode(node);
            let edges = n.edges();
            let p0 = edges[0].w.mag2();
            let p1 = edges[1].w.mag2();
            let total = p0 + p1;
            let ones = if total <= 0.0 {
                0
            } else if shots == 1 {
                // `sample`'s own draw.
                u64::from(rng.gen::<f64>() * total >= p0)
            } else {
                binomial(rng, shots, p1 / total)
            };
            if ones < shots {
                if ones == 0 {
                    node = edges[0].node;
                    continue;
                }
                self.route(edges[0].node, shots - ones, prefix, rng, runs);
            }
            shots = ones;
            prefix |= 1u64 << n.var;
            node = edges[1].node;
        }
        runs.push((prefix, shots as usize));
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
        for (i, e) in n.edges().iter().enumerate() {
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
        assert_eq!(counts.len(), 2, "{counts:?}");
        let [(0, c00), (3, c11)] = counts[..] else {
            panic!("only 00 and 11: {counts:?}");
        };
        let (c00, c11) = (c00 as f64, c11 as f64);
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
