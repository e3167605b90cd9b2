//! State truncation — Section IV-A of the paper, Equation (1).
//!
//! Truncation zeroes the amplitudes passing through a selected set of
//! nodes and rescales the state to unit norm:
//!
//! ```text
//! |ψ_I⟩ = P_I |ψ⟩ / ‖P_I |ψ⟩‖    with    P_I = Σ_{i ∈ I} |i⟩⟨i|
//! ```
//!
//! Node selection is driven by contributions (Definition 2): removing a
//! node loses exactly its contribution in fidelity, and removing a set
//! loses **at most** the sum of their contributions (paths may overlap),
//! so `F(ψ, ψ_I) ≥ 1 − Σ contribution(removed)` — the lower bound the
//! user controls. The *exact* resulting fidelity falls out of the
//! rebuild for free (the kept squared norm) and is reported in
//! [`TruncationResult::fidelity`].

use approxdd_complex::Cplx;

use crate::contribution::{ascending, ContributionMap};
use crate::edge::{NodeId, VEdge};
use crate::error::DdError;
use crate::package::Package;
use crate::Result;

/// How to choose nodes for removal during a truncation round.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RemovalStrategy {
    /// Greedily remove lowest-contribution nodes while the running sum of
    /// removed contributions stays within the budget `1 − f_round`
    /// (i.e. `Budget(b)` guarantees a round fidelity of at least `1 − b`).
    Budget(f64),
    /// Remove every node whose contribution is below the threshold.
    /// The resulting fidelity is bounded below by
    /// `1 − threshold · node_count`, which is only useful for small
    /// thresholds; prefer [`RemovalStrategy::Budget`] for guarantees.
    Threshold(f64),
    /// Remove lowest-contribution nodes until at most this many nodes
    /// would remain (size-targeted, fidelity-unbounded — the dual of
    /// [`RemovalStrategy::Budget`]). The post-rebuild size can fall
    /// below the target because removing a node also drops its
    /// now-unreachable descendants. The root always survives.
    KeepNodes(usize),
}

/// Outcome of one truncation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationResult {
    /// The truncated, re-normalized state.
    pub edge: VEdge,
    /// Exact fidelity `F(ψ, ψ_I)` between input and output (the kept
    /// squared norm). Always ≥ the strategy's guaranteed lower bound.
    pub fidelity: f64,
    /// Number of nodes selected for removal.
    pub removed_nodes: usize,
    /// Non-terminal node count of the input DD.
    pub size_before: usize,
    /// Non-terminal node count of the output DD.
    pub size_after: usize,
}

/// What a rebuild knows about one node of the input diagram (kept in an
/// array indexed by [`ContributionMap::rank`]).
#[derive(Debug, Clone, Copy)]
enum Rebuild {
    /// Not rebuilt yet; `cut[i]` drops successor edge `i`.
    Pending { cut: [bool; 2] },
    /// Selected for removal: every path through the node is dropped.
    Removed,
    /// Already rebuilt into this edge.
    Done(VEdge),
}

impl Package {
    /// Edge-level truncation: zeroes individual *edges* (rather than
    /// whole nodes) in ascending order of their contribution — the
    /// mass `upstream(parent) · |w|²` flowing through the edge — while
    /// the removed total stays within `budget`. Finer-grained than
    /// [`Package::truncate`]: a node's two edges can be kept/cut
    /// independently, which preserves more fidelity per removed DD
    /// path at the cost of (usually) smaller size reductions. One of
    /// the approximation schemes of Zulehner, Hillmich, Markov, Wille
    /// (ASP-DAC 2020), the primitive the reproduced paper builds on.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidParameter`] as for [`Package::truncate`].
    pub fn truncate_edges(&mut self, root: VEdge, budget: f64) -> Result<TruncationResult> {
        if !(0.0..1.0).contains(&budget) {
            return Err(DdError::InvalidParameter {
                reason: "truncation budget must lie in [0, 1)",
            });
        }
        if root.is_zero(self.tolerance()) {
            return Err(DdError::InvalidParameter {
                reason: "cannot truncate the zero state",
            });
        }
        let contribs = self.contributions(root);

        // Contribution of edge (parent, which): upstream(parent)·|w|²
        // (child subtrees have unit norm).
        let mut edges: Vec<((NodeId, u8), f64)> = Vec::new();
        for (node, up) in contribs.iter() {
            let n = *self.vnode(node);
            for (i, e) in n.edges.iter().enumerate() {
                if !e.is_zero(self.tolerance()) {
                    edges.push(((node, i as u8), up * e.w.mag2()));
                }
            }
        }
        let cut = within_budget(edges, budget);

        let mut plan = vec![Rebuild::Pending { cut: [false; 2] }; contribs.node_count()];
        for &(node, which) in &cut {
            let rank = contribs.rank(node).expect("cut edges leave analyzed nodes");
            if let Rebuild::Pending { cut: dropped } = &mut plan[rank] {
                dropped[usize::from(which)] = true;
            }
        }
        self.truncate_with_plan(root, &contribs, plan, cut.len())
    }

    /// Performs one truncation round on a unit-norm state.
    ///
    /// Computes contributions, selects nodes per `strategy`, rebuilds the
    /// DD with selected nodes replaced by the zero stub, and rescales to
    /// unit norm (Equation 1). If nothing is selected the input is
    /// returned unchanged with fidelity 1.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidParameter`] if the budget/threshold is not in
    /// `[0, 1)`, or if the input is the zero edge.
    pub fn truncate(&mut self, root: VEdge, strategy: RemovalStrategy) -> Result<TruncationResult> {
        match strategy {
            RemovalStrategy::Budget(b) if !(0.0..1.0).contains(&b) => {
                return Err(DdError::InvalidParameter {
                    reason: "truncation budget must lie in [0, 1)",
                });
            }
            RemovalStrategy::Threshold(t) if !(0.0..1.0).contains(&t) => {
                return Err(DdError::InvalidParameter {
                    reason: "truncation threshold must lie in [0, 1)",
                });
            }
            RemovalStrategy::KeepNodes(0) => {
                return Err(DdError::InvalidParameter {
                    reason: "must keep at least one node",
                });
            }
            _ => {}
        }
        if root.is_zero(self.tolerance()) {
            return Err(DdError::InvalidParameter {
                reason: "cannot truncate the zero state",
            });
        }
        let contribs = self.contributions(root);
        let removal = select_nodes(&contribs, root.node, strategy);
        self.truncate_without(root, &contribs, &removal)
    }

    /// One round removing the distinct nodes of `removal`. Ids outside
    /// the analyzed diagram remove nothing and count for nothing.
    fn truncate_without(
        &mut self,
        root: VEdge,
        contribs: &ContributionMap,
        removal: &[NodeId],
    ) -> Result<TruncationResult> {
        let mut plan = vec![Rebuild::Pending { cut: [false; 2] }; contribs.node_count()];
        let mut selected = 0;
        for rank in removal.iter().filter_map(|&node| contribs.rank(node)) {
            plan[rank] = Rebuild::Removed;
            selected += 1;
        }
        self.truncate_with_plan(root, contribs, plan, selected)
    }

    /// Rebuilds `root` under `plan`, rescales to unit norm and reports
    /// the round. `selected` is the number of nodes or edges the plan
    /// drops; with none the input comes back untouched.
    fn truncate_with_plan(
        &mut self,
        root: VEdge,
        contribs: &ContributionMap,
        mut plan: Vec<Rebuild>,
        selected: usize,
    ) -> Result<TruncationResult> {
        let size_before = contribs.node_count();
        if selected == 0 {
            return Ok(TruncationResult {
                edge: root,
                fidelity: 1.0,
                removed_nodes: 0,
                size_before,
                size_after: size_before,
            });
        }

        let rebuilt = self.rebuild(root.node, contribs, &mut plan);
        // Kept squared norm = |rebuilt.w|² (the input subtree had unit
        // norm); this *is* the exact round fidelity.
        let kept = rebuilt.w.mag2();
        if kept <= 0.0 || rebuilt.is_zero(self.tolerance()) {
            return Err(DdError::InvalidParameter {
                reason: "selection annihilates the entire state",
            });
        }
        let fidelity = kept.min(1.0);
        // Rescale to unit norm, preserving the phase of the original root
        // weight (Equation 1 rescales by the positive real norm).
        let edge = VEdge {
            w: root.w * rebuilt.w / Cplx::real(kept.sqrt()),
            node: rebuilt.node,
        };
        let size_after = self.vsize(edge);
        Ok(TruncationResult {
            edge,
            fidelity,
            removed_nodes: selected,
            size_before,
            size_after,
        })
    }

    /// Rebuilds the sub-diagram under `node` with removed nodes and cut
    /// edges replaced by the zero stub. What a node rebuilds into does
    /// not depend on the path that reached it, so one entry per node
    /// memoizes the recursion.
    fn rebuild(&mut self, node: NodeId, contribs: &ContributionMap, plan: &mut [Rebuild]) -> VEdge {
        if node.is_terminal() {
            return VEdge::ONE;
        }
        let rank = contribs
            .rank(node)
            .expect("a rebuild only visits analyzed nodes");
        let cut = match plan[rank] {
            Rebuild::Removed => return VEdge::ZERO,
            Rebuild::Done(e) => return e,
            Rebuild::Pending { cut } => cut,
        };
        let n = *self.vnode(node);
        let mut children = [VEdge::ZERO; 2];
        for (i, c) in n.edges.iter().enumerate() {
            if c.is_zero(self.tolerance()) || cut[i] {
                continue;
            }
            let sub = self.rebuild(c.node, contribs, plan);
            // A child rebuilt to nothing stays the zero stub whatever
            // its weight (0 · NaN would put a NaN on the terminal).
            if !sub.is_zero(self.tolerance()) {
                children[i] = sub.scaled(c.w);
            }
        }
        let e = self.make_vnode(n.var, children[0], children[1]);
        plan[rank] = Rebuild::Done(e);
        e
    }
}

/// Selects nodes according to the strategy; never selects the root.
fn select_nodes(
    contribs: &ContributionMap,
    root: NodeId,
    strategy: RemovalStrategy,
) -> Vec<NodeId> {
    let candidates = || contribs.iter().filter(|&(node, _)| node != root);
    match strategy {
        RemovalStrategy::Budget(budget) => within_budget(candidates().collect(), budget),
        RemovalStrategy::Threshold(t) => candidates()
            .filter(|&(_, c)| c < t)
            .map(|(node, _)| node)
            .collect(),
        RemovalStrategy::KeepNodes(target) => {
            let excess = contribs.node_count().saturating_sub(target);
            Ascending::new(candidates().collect())
                .take(excess)
                .map(|(node, _)| node)
                .collect()
        }
    }
}

/// The greedy walk of Section IV-A: takes items in ascending
/// `(contribution, key)` order while the running sum of what was taken
/// stays within `budget`, and stops at the first item that would
/// overshoot. Returns the taken keys in walk order.
fn within_budget<K: Ord + Copy>(items: Vec<(K, f64)>, budget: f64) -> Vec<K> {
    let mut taken = Vec::new();
    let mut spent = 0.0;
    for (key, c) in Ascending::new(items) {
        if spent + c > budget {
            break;
        }
        spent += c;
        taken.push(key);
    }
    taken
}

/// Yields `(key, contribution)` pairs in the strict total order
/// [`ascending`], sorting only as far as the consumer pulls.
///
/// A round consumes a small prefix (≤ 2.5 % of the nodes at the Table I
/// budget), so a full sort is almost all waste. Instead the smallest
/// `chunk` unsorted items are partitioned off (`select_nth_unstable_by`)
/// and only they are sorted; each refill doubles `chunk`. The order is
/// strict (keys are distinct), so the sequence is exactly the fully
/// sorted one.
struct Ascending<K> {
    items: Vec<(K, f64)>,
    /// Items before this position are in final order.
    sorted: usize,
    next: usize,
    chunk: usize,
}

impl<K: Ord + Copy> Ascending<K> {
    fn new(items: Vec<(K, f64)>) -> Self {
        let chunk = (items.len() / 32).max(64);
        Self {
            items,
            sorted: 0,
            next: 0,
            chunk,
        }
    }
}

impl<K: Ord + Copy> Iterator for Ascending<K> {
    type Item = (K, f64);

    fn next(&mut self) -> Option<(K, f64)> {
        if self.next == self.sorted {
            let rest = &mut self.items[self.sorted..];
            if rest.is_empty() {
                return None;
            }
            let take = self.chunk.min(rest.len());
            if take < rest.len() {
                rest.select_nth_unstable_by(take - 1, ascending);
            }
            rest[..take].sort_unstable_by(ascending);
            self.sorted += take;
            self.chunk *= 2;
        }
        let item = self.items[self.next];
        self.next += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Package {
        /// Performs one truncation round removing exactly the given node set
        /// (which must not contain the root): how the paper's worked
        /// examples below name their victims.
        ///
        /// Ids that are not nodes of the diagram under `root` select
        /// nothing and are not counted in
        /// [`TruncationResult::removed_nodes`]; a set made only of such ids
        /// is a no-op (the input edge comes back with fidelity 1 and 0
        /// removed nodes).
        ///
        /// # Errors
        ///
        /// [`DdError::InvalidParameter`] if the set contains the root or if
        /// removal would annihilate the entire state.
        fn truncate_nodes(&mut self, root: VEdge, nodes: &[NodeId]) -> Result<TruncationResult> {
            if nodes.contains(&root.node) {
                return Err(DdError::InvalidParameter {
                    reason: "cannot remove the root node",
                });
            }
            let contribs = self.contributions(root);
            let mut removal = nodes.to_vec();
            removal.sort_unstable();
            removal.dedup();
            self.truncate_without(root, &contribs, &removal)
        }
    }

    /// The Fig. 1a state of the paper.
    fn paper_state(p: &mut Package) -> VEdge {
        let s = 10f64.sqrt().recip();
        let amps = [s, 0.0, 0.0, -s, 0.0, 2.0 * s, 0.0, 2.0 * s].map(Cplx::real);
        p.from_amplitudes(&amps).unwrap()
    }

    #[test]
    fn paper_example8_removing_left_q1_node() {
        // Removing the q1 node with contribution 0.2 yields the Fig. 1c/d
        // state (|101> + |111>)/√2 with fidelity 0.8.
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let cm = p.contributions(root);
        let victim = cm
            .level(1)
            .iter()
            .copied()
            .find(|n| (cm.contribution(*n) - 0.2).abs() < 1e-9)
            .expect("left q1 node with contribution 0.2");
        let r = p.truncate_nodes(root, &[victim]).unwrap();
        assert!((r.fidelity - 0.8).abs() < 1e-12);
        let amps = p.to_amplitudes(r.edge, 3).unwrap();
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!((amps[0b101].mag() - inv_sqrt2).abs() < 1e-12);
        assert!((amps[0b111].mag() - inv_sqrt2).abs() < 1e-12);
        for i in [0usize, 1, 2, 3, 4, 6] {
            assert!(amps[i].mag2() < 1e-12, "amp {i} should be zeroed");
        }
        assert!(r.size_after < r.size_before);
    }

    #[test]
    fn budget_guarantees_fidelity_lower_bound() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        for budget in [0.0, 0.05, 0.1, 0.25, 0.5] {
            let r = p.truncate(root, RemovalStrategy::Budget(budget)).unwrap();
            assert!(
                r.fidelity >= 1.0 - budget - 1e-12,
                "budget {budget}: fidelity {} below bound",
                r.fidelity
            );
            // The output is unit norm.
            assert!((r.edge.w.mag() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn truncated_state_fidelity_matches_inner_product() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        p.inc_ref(root);
        let r = p.truncate(root, RemovalStrategy::Budget(0.25)).unwrap();
        let measured = p.fidelity(root, r.edge);
        assert!(
            (measured - r.fidelity).abs() < 1e-10,
            "reported {} vs measured {}",
            r.fidelity,
            measured
        );
    }

    #[test]
    fn zero_budget_is_identity() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let r = p.truncate(root, RemovalStrategy::Budget(0.0)).unwrap();
        assert_eq!(r.edge, root);
        assert_eq!(r.fidelity, 1.0);
        assert_eq!(r.removed_nodes, 0);
    }

    #[test]
    fn threshold_removes_small_nodes() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        // Threshold 0.15 removes the 0.1-contribution q0 nodes and the
        // 0.2-node's children chain — fidelity drops to 0.8.
        let r = p.truncate(root, RemovalStrategy::Threshold(0.15)).unwrap();
        assert!(r.fidelity >= 0.5);
        assert!(r.removed_nodes >= 1);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate(root, RemovalStrategy::Budget(1.0)).is_err());
        assert!(p.truncate(root, RemovalStrategy::Budget(-0.1)).is_err());
        assert!(p.truncate(root, RemovalStrategy::KeepNodes(0)).is_err());
        assert!(p
            .truncate(VEdge::ZERO, RemovalStrategy::Budget(0.1))
            .is_err());
    }

    #[test]
    fn keep_nodes_hits_the_size_target() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let before = p.vsize(root);
        assert!(before > 3);
        let r = p.truncate(root, RemovalStrategy::KeepNodes(3)).unwrap();
        assert!(r.size_after <= 3, "kept {} nodes", r.size_after);
        assert!(r.fidelity > 0.0);
        assert!((r.edge.w.mag() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn keep_nodes_is_identity_when_already_small() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let before = p.vsize(root);
        let r = p
            .truncate(root, RemovalStrategy::KeepNodes(before + 10))
            .unwrap();
        assert_eq!(r.edge, root);
        assert_eq!(r.fidelity, 1.0);
    }

    #[test]
    fn cannot_remove_root() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate_nodes(root, &[root.node]).is_err());
    }

    /// A node of another diagram in the same package: alive, but not
    /// reachable from the Fig. 1a state.
    fn foreign_node(p: &mut Package) -> NodeId {
        let amps = [0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8].map(Cplx::real);
        p.from_amplitudes(&amps).unwrap().node
    }

    #[test]
    fn foreign_ids_are_not_counted_as_removed() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let foreign = foreign_node(&mut p);
        let cm = p.contributions(root);
        assert_eq!(cm.rank(foreign), None, "the id must be outside the diagram");
        let victim = cm.level(1)[0];
        let alone = p.truncate_nodes(root, &[victim]).unwrap();
        // Repeats, foreign ids and the terminal change nothing.
        let padded = p
            .truncate_nodes(root, &[foreign, victim, NodeId::TERMINAL, victim])
            .unwrap();
        assert_eq!(alone.removed_nodes, 1);
        assert_eq!(padded, alone);
    }

    #[test]
    fn all_foreign_removal_set_is_a_no_op() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let foreign = foreign_node(&mut p);
        let size = p.vsize(root);
        let r = p
            .truncate_nodes(root, &[foreign, NodeId::TERMINAL])
            .unwrap();
        assert_eq!(
            r,
            TruncationResult {
                edge: root,
                fidelity: 1.0,
                removed_nodes: 0,
                size_before: size,
                size_after: size,
            }
        );
    }

    #[test]
    fn edge_truncation_honors_budget_and_matches_measured_fidelity() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        p.inc_ref(root);
        for budget in [0.05, 0.1, 0.25] {
            let r = p.truncate_edges(root, budget).unwrap();
            assert!(
                r.fidelity >= 1.0 - budget - 1e-12,
                "budget {budget}: fidelity {}",
                r.fidelity
            );
            let measured = p.fidelity(root, r.edge);
            assert!((measured - r.fidelity).abs() < 1e-10);
            assert!((r.edge.w.mag() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn edge_truncation_is_finer_than_node_truncation() {
        // On the paper state with budget 0.1 the node strategy can only
        // remove 0.1-contribution *nodes* (zeroing both amplitudes of a
        // branch); the edge strategy can cut a single 0.1-mass edge.
        let mut p = Package::new();
        let root = paper_state(&mut p);
        p.inc_ref(root);
        // Budget slightly above 0.1: the smallest edge contribution is
        // 0.2 · 0.5 = 0.1 + float noise.
        let edge_r = p.truncate_edges(root, 0.11).unwrap();
        assert!(edge_r.removed_nodes >= 1, "at least one edge cut");
        assert!(edge_r.fidelity >= 0.89 - 1e-12);
    }

    #[test]
    fn edge_truncation_rejects_bad_budgets() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate_edges(root, 1.0).is_err());
        assert!(p.truncate_edges(root, -0.5).is_err());
        assert!(p.truncate_edges(VEdge::ZERO, 0.1).is_err());
    }

    /// The selection `Budget` used to run: sort everything, then walk.
    fn reference_walk(items: &[(u32, f64)], budget: f64) -> (Vec<u32>, f64) {
        let mut sorted = items.to_vec();
        sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let mut taken = Vec::new();
        let mut spent = 0.0;
        for (key, c) in sorted {
            if spent + c > budget {
                break;
            }
            spent += c;
            taken.push(key);
        }
        (taken, spent)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // 300 items span three refills of the lazy order (64, 128, 256),
        // and a six-value palette makes most contributions tie.
        #[test]
        fn prefix_selection_equals_the_full_sort_walk(
            picks in prop::collection::vec(0usize..6, 300),
            share in 0.0f64..1.2
        ) {
            let palette = [0.0, 1e-9, 1e-4, 1e-4 + 1e-19, 3e-3, 0.02];
            let items: Vec<(u32, f64)> = picks
                .iter()
                .enumerate()
                .map(|(i, &k)| (299 - i as u32, palette[k]))
                .collect();
            let total: f64 = items.iter().map(|(_, c)| c).sum();
            // Nothing affordable but zeros, a prefix, and everything.
            for budget in [0.0, share * total, f64::INFINITY] {
                let (want, want_spent) = reference_walk(&items, budget);
                let got = within_budget(items.clone(), budget);
                let spent = got.iter().fold(0.0, |acc, key| {
                    acc + items[299 - *key as usize].1
                });
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(spent.to_bits(), want_spent.to_bits());
            }
            let (everything, _) = reference_walk(&items, f64::INFINITY);
            prop_assert_eq!(everything.len(), items.len());
            for count in [0usize, 1, 64, 65, 299, 300, 1000] {
                let got: Vec<u32> =
                    Ascending::new(items.clone()).take(count).map(|(key, _)| key).collect();
                prop_assert_eq!(&got[..], &everything[..count.min(300)]);
            }
        }
    }

    #[test]
    fn budget_selection_on_a_diagram_walks_sorted_ascending() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = (0..128)
            .map(|i| Cplx::new(f64::from(i % 7) - 2.5, f64::from(i % 5) * 0.3))
            .collect();
        let norm = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = amps.into_iter().map(|a| a / norm).collect();
        let root = p.from_amplitudes(&amps).unwrap();
        let contribs = p.contributions(root);
        for budget in [0.0, 0.01, 0.2, 0.999] {
            let mut want = Vec::new();
            let mut spent = 0.0;
            for (node, c) in contribs.sorted_ascending() {
                if node == root.node {
                    continue;
                }
                if spent + c > budget {
                    break;
                }
                spent += c;
                want.push(node);
            }
            let got = select_nodes(&contribs, root.node, RemovalStrategy::Budget(budget));
            assert_eq!(got, want, "budget {budget}");
        }
    }

    #[test]
    fn nan_weight_does_not_panic() {
        // One NaN amplitude (a numerically degenerate input) poisons
        // every contribution above it. Selection orders with
        // `total_cmp`, so the round comes back — as a result or as a
        // typed error — instead of panicking inside a pool worker.
        let mut p = Package::new();
        let mut amps = vec![Cplx::real(0.25); 16];
        amps[5] = Cplx::new(f64::NAN, 0.0);
        let root = p.from_amplitudes(&amps).unwrap();
        let contribs = p.contributions(root);
        assert!(contribs.iter().any(|(_, c)| c.is_nan()));
        assert_eq!(contribs.sorted_ascending().len(), contribs.node_count());
        for strategy in [
            RemovalStrategy::Budget(0.1),
            RemovalStrategy::Threshold(0.1),
            RemovalStrategy::KeepNodes(3),
        ] {
            match p.truncate(root, strategy) {
                Ok(_) | Err(DdError::InvalidParameter { .. }) => {}
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        match p.truncate_edges(root, 0.1) {
            Ok(_) | Err(DdError::InvalidParameter { .. }) => {}
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn lemma1_multiplicativity_of_successive_truncations() {
        // Lemma 1 / Example 6 of the paper: for chained truncations,
        // F(ψ, ψ'') = F(ψ, ψ') · F(ψ', ψ'').
        let mut p = Package::new();
        // Eight amplitudes with distinct pair ratios, so every level-0
        // node is distinct and removable without annihilating the state.
        let raw = [0.1, 0.7, 0.5, 0.45, 0.9, 0.2, 0.3, 0.65];
        let norm: f64 = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = raw.iter().map(|x| Cplx::real(x / norm)).collect();
        let psi = p.from_amplitudes(&amps).unwrap();
        p.inc_ref(psi);

        // Round 1: remove the lowest-contribution level-0 node -> |ψ'>.
        let cm = p.contributions(psi);
        let victim = *cm
            .level(0)
            .iter()
            .min_by(|a, b| {
                cm.contribution(**a)
                    .partial_cmp(&cm.contribution(**b))
                    .unwrap()
            })
            .unwrap();
        let r1 = p.truncate_nodes(psi, &[victim]).unwrap();
        p.inc_ref(r1.edge);
        assert!(r1.fidelity < 1.0);

        // Round 2: remove the lowest-contribution level-0 node of |ψ'>.
        let cm2 = p.contributions(r1.edge);
        let victim2 = *cm2
            .level(0)
            .iter()
            .min_by(|a, b| {
                cm2.contribution(**a)
                    .partial_cmp(&cm2.contribution(**b))
                    .unwrap()
            })
            .unwrap();
        let r2 = p.truncate_nodes(r1.edge, &[victim2]).unwrap();
        assert!(r2.fidelity < 1.0);

        let f_total = p.fidelity(psi, r2.edge);
        let f_rounds = r1.fidelity * r2.fidelity;
        assert!(
            (f_total - f_rounds).abs() < 1e-10,
            "Lemma 1 violated: total {f_total} vs product {f_rounds}"
        );
    }
}
