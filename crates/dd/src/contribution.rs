//! Node contribution analysis — Definition 2 of the paper.
//!
//! The *contribution* of a node is the sum of squared magnitudes of all
//! amplitudes whose root-to-terminal paths pass through that node.
//! Because this crate normalizes vector nodes to unit subtree norm, the
//! contribution of a node equals the accumulated squared path weight
//! from the root — computable in one topological (level-by-level) pass.
//!
//! For a unit-norm state the contributions on each level sum to 1
//! (asserted by the paper after Definition 2 and property-tested here).

use crate::edge::{NodeId, VEdge};
use crate::package::Package;
use crate::visit::{IdIndex, IdSet};

/// The result of a contribution analysis: per-node contributions plus
/// the level structure of the analyzed DD.
///
/// Obtain via [`Package::contributions`]. A truncation round takes the
/// three parts apart and drops each as soon as it is done with it.
#[derive(Debug, Clone)]
pub struct ContributionMap {
    /// The analyzed diagram's nodes, ranked in ascending id order.
    pub(crate) index: IdIndex,
    /// Contribution per node, by rank.
    pub(crate) contrib: Vec<f64>,
    /// The nodes grouped by level.
    pub(crate) levels: Levels,
}

impl ContributionMap {
    /// The contribution of `node`, or 0 if the node is not part of the
    /// analyzed diagram.
    #[must_use]
    pub(crate) fn contribution(&self, node: NodeId) -> f64 {
        self.index.rank(node).map_or(0.0, |r| self.contrib[r])
    }

    /// Number of distinct non-terminal nodes in the analyzed diagram.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.contrib.len()
    }

    /// Nodes on level `var` in ascending id order (empty for
    /// out-of-range levels).
    #[must_use]
    pub(crate) fn level(&self, var: usize) -> &[NodeId] {
        self.levels.level(var)
    }

    /// Number of levels (the qubit count of the analyzed state).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.count()
    }

    /// Sum of contributions on level `var`; equals the squared norm of
    /// the analyzed state (1 for a unit state) for every populated level.
    #[must_use]
    pub fn level_sum(&self, var: usize) -> f64 {
        self.level(var).iter().map(|n| self.contribution(*n)).sum()
    }
}

/// The analyzed nodes grouped by level, in one flat list: level 0 first,
/// each level in ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct Levels {
    ids: Vec<NodeId>,
    /// Level `var` is `ids[starts[var]..starts[var + 1]]`: one entry
    /// more than there are levels.
    starts: Vec<usize>,
}

impl Levels {
    /// Lists the members of `index` by level, where `var` reads a
    /// member's level (below `count`): one pass counts each level, a
    /// second fills it in ascending id order.
    fn new(index: &IdIndex, count: usize, var: impl Fn(NodeId) -> usize) -> Self {
        let mut starts = vec![0; count + 1];
        for id in index.ids() {
            starts[var(id) + 1] += 1;
        }
        for level in 0..count {
            starts[level + 1] += starts[level];
        }
        let mut next = starts.clone();
        let mut ids = vec![NodeId::TERMINAL; index.len()];
        for id in index.ids() {
            let at = &mut next[var(id)];
            ids[*at] = id;
            *at += 1;
        }
        Self { ids, starts }
    }

    /// Number of levels.
    fn count(&self) -> usize {
        self.starts.len() - 1
    }

    /// The nodes on level `var` (empty for out-of-range levels).
    fn level(&self, var: usize) -> &[NodeId] {
        if var < self.count() {
            &self.ids[self.starts[var]..self.starts[var + 1]]
        } else {
            &[]
        }
    }

    /// Every node, levels ascending and ids ascending within a level:
    /// each node after every node below it.
    pub(crate) fn bottom_up(&self) -> &[NodeId] {
        &self.ids
    }
}

impl Package {
    /// Computes the contribution (Definition 2) of every node reachable
    /// from `root`.
    ///
    /// The analysis assumes `root` represents a unit-norm state; for a
    /// general vector the "contributions" are scaled by the squared norm.
    #[must_use]
    pub fn contributions(&self, root: VEdge) -> ContributionMap {
        let n_levels = self.vlevel(root);
        if root.node.is_terminal() {
            let index = IdSet::with_slots(0).into_index();
            return ContributionMap {
                levels: Levels::new(&index, n_levels, |_| 0),
                index,
                contrib: Vec::new(),
            };
        }

        // Discover the reachable nodes, then list them per level in the
        // index's ascending id order: each level comes out sorted by id
        // without a sort.
        let mut seen = IdSet::with_slots(self.vnodes.capacity());
        seen.insert(root.node);
        let mut stack = vec![root.node];
        while let Some(id) = stack.pop() {
            for child in self.vnode(id).ids() {
                if !child.is_terminal() && seen.insert(child) {
                    stack.push(child);
                }
            }
        }
        // The search's stack is freed before the per-node arrays are
        // allocated: a round runs when the arenas are fullest.
        drop(stack);
        let index = seen.into_index();
        let levels = Levels::new(&index, n_levels, |id| usize::from(self.vside(id).var()));
        let mut contrib = vec![0.0; index.len()];
        let slot = |id: NodeId| index.rank(id).expect("every reachable node was indexed");

        // Top-down accumulation of squared path weights (levels from
        // the root, ids ascending, edge 0 then 1 — the summation order
        // is part of the result, so the levels must be listed in
        // ascending id order whatever order the search found them in,
        // which walking the index guarantees). Each node's subtree has
        // unit norm (normalization invariant), so the accumulated
        // upstream mass *is* the contribution.
        contrib[slot(root.node)] = root.w.mag2();
        for var in (0..n_levels).rev() {
            for &id in levels.level(var) {
                let up = contrib[slot(id)];
                for child in self.vnode(id).edges() {
                    if !child.node.is_terminal() {
                        contrib[slot(child.node)] += up * child.w.mag2();
                    }
                }
            }
        }

        ContributionMap {
            index,
            contrib,
            levels,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::gates::GateKind;
    use approxdd_complex::Cplx;
    use proptest::prelude::*;

    impl ContributionMap {
        /// All `(node, contribution)` pairs sorted ascending by
        /// contribution (ties by node id) — the full sort the greedy
        /// removal-budget selection of Section IV-A walks, kept as the
        /// reference the partial selection in `approx.rs` is checked
        /// against. `f64::total_cmp` orders the pairs, so a NaN
        /// contribution sorts last instead of panicking.
        pub(crate) fn sorted_ascending(&self) -> Vec<(NodeId, f64)> {
            let mut v: Vec<(NodeId, f64)> = self.iter().collect();
            v.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            v
        }

        /// Iterates over `(node, contribution)` pairs in unspecified order.
        pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
            self.index.ids().zip(self.contrib.iter().copied())
        }

        /// The rank of `node` among the analyzed diagram's nodes (ascending
        /// id order, `0..node_count()`): the slot of its entry in any
        /// per-node array a pass over the same diagram keeps.
        pub(crate) fn rank(&self, node: NodeId) -> Option<usize> {
            self.index.rank(node)
        }
    }

    /// Builds the example state of Fig. 1a of the paper:
    /// [1/√10, 0, 0, −1/√10, 0, 2/√10, 0, 2/√10].
    fn paper_state(p: &mut Package) -> VEdge {
        let s = 10f64.sqrt().recip();
        let amps = [
            Cplx::real(s),
            Cplx::ZERO,
            Cplx::ZERO,
            Cplx::real(-s),
            Cplx::ZERO,
            Cplx::real(2.0 * s),
            Cplx::ZERO,
            Cplx::real(2.0 * s),
        ];
        p.from_amplitudes(&amps).unwrap()
    }

    #[test]
    fn paper_example7_contributions() {
        // Example 7: the root has contribution 1; the right-hand q1/q0
        // nodes contribute 0.8; the left-hand q1 node 0.2 and its two
        // q0 successors 0.1 each.
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let cm = p.contributions(root);

        assert!((cm.contribution(root.node) - 1.0).abs() < 1e-12);

        let mut level1: Vec<f64> = cm.level(1).iter().map(|n| cm.contribution(*n)).collect();
        level1.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(level1.len(), 2);
        assert!((level1[0] - 0.2).abs() < 1e-12, "{level1:?}");
        assert!((level1[1] - 0.8).abs() < 1e-12, "{level1:?}");

        let mut level0: Vec<f64> = cm.level(0).iter().map(|n| cm.contribution(*n)).collect();
        level0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // 0.1 + 0.1 (shared node? the two 0.1-successors are the same node
        // |0>±... let's check total instead): level sums to 1.
        let total: f64 = level0.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "{level0:?}");
    }

    #[test]
    fn level_sums_equal_one_for_unit_states() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = (0..16)
            .map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = amps.into_iter().map(|a| a / norm).collect();
        let root = p.from_amplitudes(&amps).unwrap();
        let cm = p.contributions(root);
        for var in 0..cm.level_count() {
            assert!(
                (cm.level_sum(var) - 1.0).abs() < 1e-10,
                "level {var}: {}",
                cm.level_sum(var)
            );
        }
    }

    #[test]
    fn basis_state_contributions_are_all_one() {
        let mut p = Package::new();
        let root = p.basis_state(5, 21);
        let cm = p.contributions(root);
        assert_eq!(cm.node_count(), 5);
        for (_, c) in cm.iter() {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sorted_ascending_is_monotone() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let cm = p.contributions(root);
        let sorted = cm.sorted_ascending();
        for w in sorted.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(sorted.len(), cm.node_count());
    }

    /// The hash-set traversal `vsize`/`msize` used to be: the reference
    /// the dense visit set is checked against.
    fn reference_size<const K: usize>(
        root: NodeId,
        children: impl Fn(NodeId) -> [NodeId; K],
    ) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if !id.is_terminal() && seen.insert(id) {
                stack.extend(children(id));
            }
        }
        seen.len()
    }

    /// The hash-map contribution pass `contributions` used to be, with
    /// its accumulation order (levels from the root, ids ascending,
    /// edge 0 then 1).
    fn reference_contributions(p: &Package, root: VEdge) -> HashMap<NodeId, f64> {
        let mut contrib = HashMap::new();
        if root.node.is_terminal() {
            return contrib;
        }
        let mut levels: Vec<Vec<NodeId>> = vec![Vec::new(); p.vlevel(root)];
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root.node];
        while let Some(id) = stack.pop() {
            if id.is_terminal() || !seen.insert(id) {
                continue;
            }
            levels[usize::from(p.vside(id).var())].push(id);
            stack.extend(p.vnode(id).ids());
        }
        contrib.insert(root.node, root.w.mag2());
        for level in levels.iter_mut().rev() {
            level.sort_unstable();
            for &id in level.iter() {
                let up = contrib[&id];
                for child in p.vnode(id).edges() {
                    if !child.node.is_terminal() {
                        *contrib.entry(child.node).or_insert(0.0) += up * child.w.mag2();
                    }
                }
            }
        }
        contrib
    }

    /// Every dense pass against its reference, on each given diagram.
    fn check_against_references(p: &Package, states: &[VEdge]) -> Result<(), TestCaseError> {
        for &v in states {
            let want = reference_size(v.node, |id| p.vnode(id).ids());
            prop_assert_eq!(p.vsize(v), want);

            let want = reference_contributions(p, v);
            let got = p.contributions(v);
            prop_assert_eq!(got.node_count(), want.len());
            for (&node, c) in &want {
                prop_assert_eq!(got.contribution(node).to_bits(), c.to_bits());
            }
            let listed: usize = (0..got.level_count()).map(|l| got.level(l).len()).sum();
            prop_assert_eq!(listed, want.len());
            for var in 0..got.level_count() {
                for pair in got.level(var).windows(2) {
                    prop_assert!(pair[0] < pair[1], "levels are sorted by id");
                }
                for &node in got.level(var) {
                    prop_assert_eq!(usize::from(p.vside(node).var()), var);
                }
            }
            let mut sorted: Vec<(NodeId, f64)> = want.into_iter().collect();
            sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            prop_assert_eq!(got.sorted_ascending(), sorted);
        }
        Ok(())
    }

    pub(crate) const QUBITS: usize = 5;

    /// Amplitudes drawn from a handful of values, so sub-vectors repeat
    /// (shared nodes) and vanish (zero stubs).
    pub(crate) fn amplitudes(picks: &[u8]) -> Vec<Cplx> {
        let palette = [
            Cplx::ZERO,
            Cplx::ZERO,
            Cplx::real(0.5),
            Cplx::real(-0.25),
            Cplx::new(0.0, 0.75),
            Cplx::new(0.3, -0.4),
        ];
        let mut amps: Vec<Cplx> = picks.iter().map(|&k| palette[usize::from(k)]).collect();
        amps[0] = Cplx::ONE; // never the zero vector
        amps
    }

    /// Builds the picked gates and applies them to `state` in turn;
    /// returns every intermediate state.
    pub(crate) fn evolve(p: &mut Package, state: VEdge, gates: &[(u8, usize)]) -> Vec<VEdge> {
        let kinds = [GateKind::H, GateKind::T, GateKind::Sx, GateKind::X];
        let mut states = vec![state];
        for &(kind, target) in gates {
            let matrix = kinds[usize::from(kind) % kinds.len()].matrix();
            let gate = if kind < 4 {
                p.single_gate(QUBITS, target, matrix)
            } else {
                p.controlled_gate(QUBITS, &[(target + 1) % QUBITS], target, matrix)
            }
            .unwrap();
            states.push(p.apply(gate, *states.last().unwrap()));
        }
        states
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dense_passes_match_the_hash_references(
            picks in prop::collection::vec(0u8..6, 1 << QUBITS),
            gates in prop::collection::vec((0u8..8, 0usize..QUBITS), 6)
        ) {
            let amps = amplitudes(&picks);

            // A fresh package.
            let mut p = Package::new();
            let start = p.from_amplitudes(&amps).unwrap();
            let states = evolve(&mut p, start, &gates);
            check_against_references(&p, &states)?;

            // After a collection: keep the last state, free the rest,
            // then build over the recycled slots.
            let kept_state = states[gates.len()];
            p.inc_ref(kept_state);
            let gc = p.collect_garbage();
            prop_assert!(gc.vnodes_freed > 0, "the slots to reuse");
            let reversed: Vec<Cplx> = amps.iter().rev().copied().collect();
            let start = p.from_amplitudes(&reversed).unwrap();
            let mut states = evolve(&mut p, start, &gates);
            states.push(kept_state);
            check_against_references(&p, &states)?;

            // In a fork of the fresh package's history: diagrams span
            // the pinned prefix.
            let mut base = Package::new();
            let start = base.from_amplitudes(&amps).unwrap();
            let base_states = evolve(&mut base, start, &gates[..3]);
            let mut p = base.fork(None);
            let states = evolve(&mut p, start, &gates);
            prop_assert_eq!(&states[..4], &base_states[..]);
            prop_assert!(p.stats().vnodes_alive > p.stats().frozen_vnodes, "nodes above the prefix");
            check_against_references(&p, &states)?;
            check_against_references(&p, &base_states)?;
        }
    }

    #[test]
    fn terminal_root_yields_empty_map() {
        let p = Package::new();
        let cm = p.contributions(VEdge::ONE);
        assert_eq!(cm.node_count(), 0);
        assert_eq!(cm.level_count(), 0);
    }
}
