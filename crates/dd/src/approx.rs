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
//!
//! # What a round touches
//!
//! A round analyses every node of the input (contributions), selects a
//! few (≤ 2.5 % at the Table I budget), and rebuilds the diagram with
//! the selection dropped. Only a selected node and its ancestors
//! change; on the Table I circuits that is about one node in five.
//! Every other node is *clean* — nothing was removed anywhere below
//! it — and rebuilding it through `make_vnode`
//! is a unique-table hit on the node itself, under a factor a few ulps
//! from 1. That factor is the node's image under the identity,
//! `VNode::image`, which `mul_mv`'s identity rule already reads
//! (`crates/dd/src/ops.rs`). So the rebuild returns whether the
//! sub-diagram it rebuilt is clean, and a clean node that carries an
//! image comes back as `(image factor, itself)` without calling
//! `make_vnode`. A node without an image, and every node above a
//! removal, takes the general path exactly as before.
//!
//! Why this is bit-exact. The image is `normalize` fed `ONE · w` for a
//! terminal successor of weight `w` and `f · (ONE · w)` for a
//! non-terminal one whose own image is `f`; the rebuild of a clean node
//! feeds `ONE · w` and `f · w`, dropping tolerance-zero weights in both.
//! `ONE · w` differs from `w` at most in the sign of a zero component
//! (`1·(−0) − 0·b` is `+0` for a negative `b`), and multiplying by an
//! `f` whose imaginary part has the bits of `+0.0` (which
//! `Image::encode` guarantees) erases that difference for every weight
//! that is not zero in both components. So `normalize` sees the same
//! bits, takes out the same factor and produces the same weight keys,
//! and the unique table answers with this very node, which is alive
//! under the root being truncated. The skipped calls were hits: arena
//! slots, allocation order, `unique_misses`, collection timing and the
//! canonical-ratio sequence cannot move (a rebuild never calls `add`);
//! only the `unique_hits` / `snapshot_hits` counters fall. The tests
//! keep the rebuild without the rule as the reference.

use approxdd_complex::Cplx;

use crate::contribution::{ascending, ContributionMap};
use crate::edge::{NodeId, VEdge};
use crate::error::DdError;
use crate::package::Package;
use crate::Result;

/// Outcome of one truncation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationResult {
    /// The truncated, re-normalized state.
    pub edge: VEdge,
    /// Exact fidelity `F(ψ, ψ_I)` between input and output (the kept
    /// squared norm). Always ≥ `1 − budget`.
    pub fidelity: f64,
    /// Number of nodes selected for removal (nodes, not paths or edges:
    /// descendants that become unreachable are not counted).
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
    /// Not rebuilt yet.
    Pending,
    /// Selected for removal: every path through the node is dropped.
    Removed,
    /// Clean (module docs): nothing below was removed and the
    /// node carries an image, so it rebuilt into itself under its image
    /// factor — this edge — without a unique-table lookup.
    Clean(VEdge),
    /// Rebuilt through `make_vnode` into this edge.
    Done(VEdge),
}

/// A round before its rebuild: the analysed diagram, one [`Rebuild`]
/// entry per node of it, and the number of nodes it drops.
struct Plan {
    contribs: ContributionMap,
    steps: Vec<Rebuild>,
    selected: usize,
}

impl Plan {
    /// The plan that removes the distinct nodes of `removal`. Ids
    /// outside the analyzed diagram remove nothing and count for nothing.
    fn removing(contribs: ContributionMap, removal: &[NodeId]) -> Self {
        let mut steps = vec![Rebuild::Pending; contribs.node_count()];
        let mut selected = 0;
        for rank in removal.iter().filter_map(|&node| contribs.rank(node)) {
            steps[rank] = Rebuild::Removed;
            selected += 1;
        }
        Self {
            contribs,
            steps,
            selected,
        }
    }

    /// The round's result when the plan drops nothing: the input, with
    /// fidelity 1.
    fn unchanged(&self, root: VEdge) -> TruncationResult {
        let size = self.contribs.node_count();
        TruncationResult {
            edge: root,
            fidelity: 1.0,
            removed_nodes: 0,
            size_before: size,
            size_after: size,
        }
    }
}

impl Package {
    /// Performs one truncation round on a unit-norm state.
    ///
    /// Computes contributions, greedily selects the lowest-contribution
    /// nodes (never the root) while the running sum of their
    /// contributions stays within `budget = 1 − f_round`, rebuilds the
    /// DD with selected nodes replaced by the zero stub, and rescales to
    /// unit norm (Equation 1). The round fidelity is at least
    /// `1 − budget`. If nothing is selected the input is returned
    /// unchanged with fidelity 1.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidParameter`] if the budget is not in `[0, 1)`,
    /// if the input is the zero edge, or if its weight is NaN or
    /// infinite (a non-finite weight anywhere in the diagram shows
    /// there: `make_vnode` carries it into the factor it takes out).
    pub fn truncate(&mut self, root: VEdge, budget: f64) -> Result<TruncationResult> {
        let plan = self.node_plan(root, budget)?;
        self.truncate_with_plan(root, plan)
    }

    /// Refuses a root no round can run on: a zero or non-finite weight.
    fn check_root(&self, root: VEdge) -> Result<()> {
        if !root.w.is_finite() {
            return Err(DdError::InvalidParameter {
                reason: "cannot truncate a state whose root weight is not finite",
            });
        }
        if root.is_zero(self.tolerance()) {
            return Err(DdError::InvalidParameter {
                reason: "cannot truncate the zero state",
            });
        }
        Ok(())
    }

    /// The plan of [`Package::truncate`].
    fn node_plan(&self, root: VEdge, budget: f64) -> Result<Plan> {
        if !(0.0..1.0).contains(&budget) {
            return Err(DdError::InvalidParameter {
                reason: "truncation budget must lie in [0, 1)",
            });
        }
        self.check_root(root)?;
        let contribs = self.contributions(root);
        let candidates = contribs.iter().filter(|&(node, _)| node != root.node);
        let removal = within_budget(candidates.collect(), budget);
        Ok(Plan::removing(contribs, &removal))
    }

    /// Rebuilds `root` under `plan`, rescales to unit norm and reports
    /// the round; a plan that drops nothing returns the input untouched.
    fn truncate_with_plan(&mut self, root: VEdge, mut plan: Plan) -> Result<TruncationResult> {
        if plan.selected == 0 {
            return Ok(plan.unchanged(root));
        }
        let (rebuilt, _) = self.rebuild(root.node, &plan.contribs, &mut plan.steps);
        self.rescaled(root, rebuilt, &plan)
    }

    /// The round `plan` made of `root`, given what the root rebuilt
    /// into.
    fn rescaled(&self, root: VEdge, rebuilt: VEdge, plan: &Plan) -> Result<TruncationResult> {
        // Kept squared norm = |rebuilt.w|² (the input subtree had unit
        // norm); this *is* the exact round fidelity.
        let kept = rebuilt.w.mag2();
        if !kept.is_finite() {
            return Err(DdError::InvalidParameter {
                reason: "the rebuilt state has a non-finite norm",
            });
        }
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
            removed_nodes: plan.selected,
            size_before: plan.contribs.node_count(),
            size_after,
        })
    }

    /// Rebuilds the sub-diagram under `node` with removed nodes replaced
    /// by the zero stub, and says whether the node came back clean
    /// (module docs): as itself under its image factor, which it does —
    /// without a unique-table lookup — when it carries an image and no
    /// removed node or unclean successor lies below it.
    /// Every other node goes through `make_vnode`. What a node rebuilds
    /// into does not depend on the path that reached it, so one entry
    /// per node memoizes the recursion.
    fn rebuild(
        &mut self,
        node: NodeId,
        contribs: &ContributionMap,
        steps: &mut [Rebuild],
    ) -> (VEdge, bool) {
        if node.is_terminal() {
            return (VEdge::ONE, true);
        }
        let rank = contribs
            .rank(node)
            .expect("a rebuild only visits analyzed nodes");
        match steps[rank] {
            Rebuild::Removed => return (VEdge::ZERO, false),
            Rebuild::Clean(e) => return (e, true),
            Rebuild::Done(e) => return (e, false),
            Rebuild::Pending => {}
        }
        let n = *self.vnode(node);
        let mut clean = true;
        let mut children = [VEdge::ZERO; 2];
        for (i, c) in n.edges.iter().enumerate() {
            if c.is_zero(self.tolerance()) {
                continue;
            }
            let (sub, sub_clean) = self.rebuild(c.node, contribs, steps);
            clean &= sub_clean;
            // A child rebuilt to nothing stays the zero stub whatever
            // its weight (0 · NaN would put a NaN on the terminal).
            if !sub.is_zero(self.tolerance()) {
                children[i] = sub.scaled(c.w);
            }
        }
        if let Some(w) = n.image.factor().filter(|_| clean) {
            let e = VEdge { w, node };
            steps[rank] = Rebuild::Clean(e);
            return (e, true);
        }
        let e = self.make_vnode(n.var, children[0], children[1]);
        steps[rank] = Rebuild::Done(e);
        (e, false)
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
    use crate::contribution::tests::{amplitudes, evolve, QUBITS};
    use crate::node::Image;
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
            self.truncate_with_plan(root, Plan::removing(contribs, &removal))
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
            let r = p.truncate(root, budget).unwrap();
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
        let r = p.truncate(root, 0.25).unwrap();
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
        let r = p.truncate(root, 0.0).unwrap();
        assert_eq!(r.edge, root);
        assert_eq!(r.fidelity, 1.0);
        assert_eq!(r.removed_nodes, 0);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate(root, 1.0).is_err());
        assert!(p.truncate(root, -0.1).is_err());
        assert!(p.truncate(VEdge::ZERO, 0.1).is_err());
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

    /// The selection a round used to run: sort everything, then walk.
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
            let plan = p.node_plan(root, budget).unwrap();
            let got: Vec<usize> = plan
                .steps
                .iter()
                .enumerate()
                .filter(|(_, step)| matches!(step, Rebuild::Removed))
                .map(|(rank, _)| rank)
                .collect();
            let mut want: Vec<usize> = want.iter().filter_map(|&n| contribs.rank(n)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "budget {budget}");
            assert_eq!(plan.selected, want.len());
        }
    }

    #[test]
    fn nan_weight_does_not_panic() {
        // A NaN or ∞ anywhere in a state is a typed error from a
        // round, never a round with a fidelity. `from_amplitudes`
        // refuses one; a state built around one anyway carries it on
        // its root weight, which every round checks first.
        let mut p = Package::new();
        let mut amps = vec![Cplx::real(0.25); 16];
        for bad in [Cplx::new(f64::NAN, 0.0), Cplx::new(0.0, f64::INFINITY)] {
            amps[5] = bad;
            assert!(matches!(
                p.from_amplitudes(&amps),
                Err(DdError::InvalidAmplitudes { .. })
            ));
        }
        amps[5] = Cplx::real(0.25);
        let good = p.from_amplitudes(&amps).unwrap();

        // A NaN terminal three levels below the root of a 4-qubit state:
        // `make_vnode` carries it up into the root weight.
        let mut uniform = VEdge::ONE;
        let mut poisoned = VEdge::terminal(Cplx::new(f64::NAN, 0.0));
        for var in 0..4 {
            poisoned = p.make_vnode(var, poisoned, uniform);
            uniform = p.make_vnode(var, uniform, uniform);
        }
        assert!(!poisoned.w.is_finite());

        let not_finite = |r: Result<TruncationResult>| match r {
            Err(DdError::InvalidParameter { reason }) => reason.contains("not finite"),
            _ => false,
        };
        for root in [
            poisoned,
            good.scaled(Cplx::real(f64::NAN)),
            good.scaled(Cplx::real(f64::INFINITY)),
        ] {
            // Selection orders with `total_cmp`: non-finite
            // contributions sort instead of panicking inside a pool
            // worker.
            let contribs = p.contributions(root);
            assert!(contribs.iter().any(|(_, c)| !c.is_finite()));
            assert_eq!(contribs.sorted_ascending().len(), contribs.node_count());
            assert!(not_finite(p.truncate(root, 0.1)));
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

    /// The rebuild without the clean rule — every node goes through
    /// `make_vnode` — and the round around it: the reference the rule
    /// is held to.
    impl Package {
        fn reference_rebuild(
            &mut self,
            node: NodeId,
            contribs: &ContributionMap,
            steps: &mut [Rebuild],
        ) -> VEdge {
            if node.is_terminal() {
                return VEdge::ONE;
            }
            let rank = contribs
                .rank(node)
                .expect("a rebuild only visits analyzed nodes");
            match steps[rank] {
                Rebuild::Removed => return VEdge::ZERO,
                Rebuild::Done(e) => return e,
                Rebuild::Pending => {}
                Rebuild::Clean(_) => unreachable!("the reference never takes the rule"),
            }
            let n = *self.vnode(node);
            let mut children = [VEdge::ZERO; 2];
            for (i, c) in n.edges.iter().enumerate() {
                if c.is_zero(self.tolerance()) {
                    continue;
                }
                let sub = self.reference_rebuild(c.node, contribs, steps);
                if !sub.is_zero(self.tolerance()) {
                    children[i] = sub.scaled(c.w);
                }
            }
            let e = self.make_vnode(n.var, children[0], children[1]);
            steps[rank] = Rebuild::Done(e);
            e
        }

        /// [`Package::truncate_with_plan`] over the reference rebuild,
        /// plus how many nodes came back as themselves under their image
        /// factor: the nodes the rule answers.
        fn reference_round(
            &mut self,
            root: VEdge,
            mut plan: Plan,
        ) -> (Result<TruncationResult>, usize) {
            if plan.selected == 0 {
                return (Ok(plan.unchanged(root)), 0);
            }
            let rebuilt = self.reference_rebuild(root.node, &plan.contribs, &mut plan.steps);
            let as_image = plan
                .contribs
                .iter()
                .zip(&plan.steps)
                .filter(|&((node, _), step)| {
                    let image = self.vnode(node).image.factor().map(|w| VEdge { w, node });
                    matches!(step, Rebuild::Done(e) if Some(*e) == image)
                })
                .count();
            (self.rescaled(root, rebuilt, &plan), as_image)
        }
    }

    /// A round's outcome down to the bits of every float in it.
    type Bits = std::result::Result<(NodeId, [u64; 3], usize, usize, usize), DdError>;

    fn bits(r: Result<TruncationResult>) -> Bits {
        r.map(|r| {
            let w = r.edge.w;
            let floats = [w.re.to_bits(), w.im.to_bits(), r.fidelity.to_bits()];
            (
                r.edge.node,
                floats,
                r.removed_nodes,
                r.size_before,
                r.size_after,
            )
        })
    }

    /// Runs one round on `root` through the rule in `fast` (`run`) and
    /// through the reference in `slow` (`plan`, then the reference
    /// rebuild) — two packages built by identical calls — and holds them
    /// to the same result bits and the same allocations. Only
    /// unique-table hits may differ: fewer in `fast` exactly when some
    /// node came back as its image.
    fn rule_matches_reference(
        fast: &mut Package,
        slow: &mut Package,
        root: VEdge,
        round: &str,
        run: impl FnOnce(&mut Package, VEdge) -> Result<TruncationResult>,
        plan: impl FnOnce(&Package, VEdge) -> Result<Plan>,
    ) -> std::result::Result<(), TestCaseError> {
        let (fast_hits, slow_hits) = (fast.stats().unique_hits, slow.stats().unique_hits);
        let got = bits(run(fast, root));
        let (want, as_image) = match plan(slow, root) {
            Ok(plan) => slow.reference_round(root, plan),
            Err(e) => (Err(e), 0),
        };
        prop_assert_eq!(got, bits(want), "{}", round);
        let (f, s) = (fast.stats(), slow.stats());
        prop_assert_eq!(f.unique_misses, s.unique_misses);
        prop_assert_eq!(f.vnodes_alive, s.vnodes_alive);
        let skipped = (s.unique_hits - slow_hits) - (f.unique_hits - fast_hits);
        prop_assert_eq!(skipped > 0, as_image > 0, "{}: {} skipped", round, skipped);
        Ok(())
    }

    /// The diagrams the rule is checked on, built from `amps` and
    /// `gates` (see `contribution.rs`): in a fresh package, over slots a
    /// collection recycled, and over a frozen snapshot. Each root is
    /// taken at unit weight. Deterministic: two calls build two
    /// identical packages.
    fn settings(amps: &[Cplx], gates: &[(u8, usize)]) -> Vec<(Package, VEdge)> {
        let unit = |e: VEdge| VEdge {
            w: Cplx::ONE,
            node: e.node,
        };
        let mut out = Vec::new();

        let mut p = Package::new();
        let start = p.from_amplitudes(amps).unwrap();
        let states = evolve(&mut p, start, gates);
        let kept = states[gates.len()];
        out.push((p, unit(kept)));

        let mut p = Package::new();
        let start = p.from_amplitudes(amps).unwrap();
        let kept = evolve(&mut p, start, gates)[gates.len()];
        p.inc_ref(kept);
        let _ = p.collect_garbage();
        let reversed: Vec<Cplx> = amps.iter().rev().copied().collect();
        let start = p.from_amplitudes(&reversed).unwrap();
        let last = evolve(&mut p, start, gates)[gates.len()];
        out.push((p, unit(last)));

        let mut base = Package::new();
        let start = base.from_amplitudes(amps).unwrap();
        let _ = evolve(&mut base, start, &gates[..3]);
        let mut p = Package::with_snapshot(&base.freeze(), None);
        let last = evolve(&mut p, start, gates)[gates.len()];
        out.push((p, unit(last)));
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn clean_rebuild_equals_the_full_rebuild(
            picks in prop::collection::vec(0u8..6, 1 << QUBITS),
            gates in prop::collection::vec((0u8..8, 0usize..QUBITS), 6),
            budget in 0.0f64..0.4,
            keep in 1usize..24
        ) {
            let amps = amplitudes(&picks);
            let fast = settings(&amps, &gates);
            let slow = settings(&amps, &gates);
            for ((mut fast, root), (mut slow, same)) in fast.into_iter().zip(slow) {
                prop_assert_eq!(root, same);
                rule_matches_reference(
                    &mut fast,
                    &mut slow,
                    root,
                    "budget",
                    |p, root| p.truncate(root, budget),
                    |p, root| p.node_plan(root, budget),
                )?;
                // Removal sets far larger than a budget selects: every
                // non-root node below `budget / 8`, and all but `keep`.
                let contribs = fast.contributions(root);
                let candidates = || contribs.iter().filter(|&(node, _)| node != root.node);
                let below: Vec<NodeId> = candidates()
                    .filter(|&(_, c)| c < budget / 8.0)
                    .map(|(node, _)| node)
                    .collect();
                let lowest: Vec<NodeId> = Ascending::new(candidates().collect())
                    .take(contribs.node_count().saturating_sub(keep))
                    .map(|(node, _)| node)
                    .collect();
                for (round, removal) in [("below budget / 8", below), ("all but keep", lowest)] {
                    rule_matches_reference(
                        &mut fast,
                        &mut slow,
                        root,
                        round,
                        |p, root| p.truncate_nodes(root, &removal),
                        |p, root| Ok(Plan::removing(p.contributions(root), &removal)),
                    )?;
                }
            }
        }
    }

    #[test]
    fn a_signed_zero_in_a_stored_weight_rebuilds_as_the_reference_does() {
        // Two level-1 nodes whose stored edge-1 weight to a non-terminal
        // successor has a −0.0 component that `ONE ·` flips — the image
        // was computed from `f · (ONE · w)`, the rebuild feeds `f · w` —
        // under a root whose other half loses a node.
        let build = |p: &mut Package| {
            let leaf = |p: &mut Package, a: Cplx, b: Cplx| {
                p.make_vnode(0, VEdge::terminal(a), VEdge::terminal(b))
            };
            let a = leaf(p, Cplx::real(0.6), Cplx::real(0.8));
            let b = leaf(p, Cplx::real(0.8), Cplx::new(0.0, 0.6));
            let c = leaf(p, Cplx::real(0.28), Cplx::new(0.96, 0.0));
            let signed = |p: &mut Package, w: Cplx| {
                p.make_vnode(1, a.scaled(Cplx::real(0.8)), VEdge { w, node: b.node })
            };
            let x = signed(p, Cplx::new(0.6, -0.0));
            let y = signed(p, Cplx::new(-0.0, -0.6));
            let lost = p.make_vnode(1, c.scaled(Cplx::real(0.6)), a.scaled(Cplx::real(0.8)));
            let top = p.make_vnode(2, x.scaled(Cplx::real(0.6)), y.scaled(Cplx::real(0.8)));
            let other = p.make_vnode(2, lost, x);
            let root = p.make_vnode(
                3,
                top.scaled(Cplx::real(0.6)),
                other.scaled(Cplx::real(0.8)),
            );
            (
                VEdge {
                    w: Cplx::ONE,
                    node: root.node,
                },
                [x, y],
                c.node,
            )
        };
        let (mut fast, mut slow) = (Package::new(), Package::new());
        let (root, signed, victim) = build(&mut fast);
        assert_eq!(build(&mut slow).0, root);
        for e in signed {
            let node = fast.vnode(e.node);
            assert_ne!(node.image, Image::NONE, "the rule must be able to fire");
            let w = node.edges[1].w;
            let flipped = Cplx::ONE * w;
            assert!(
                w.re.to_bits() != flipped.re.to_bits() || w.im.to_bits() != flipped.im.to_bits(),
                "{w:?} has no zero whose sign `ONE ·` flips"
            );
        }
        let (fast_hits, slow_hits) = (fast.stats().unique_hits, slow.stats().unique_hits);
        let got = fast.truncate_nodes(root, &[victim]);
        let plan = Plan::removing(slow.contributions(root), &[victim]);
        let (want, as_image) = slow.reference_round(root, plan);
        assert_eq!(bits(got), bits(want));
        assert!(as_image >= 2, "both signed nodes come back as their image");
        let skipped =
            (slow.stats().unique_hits - slow_hits) - (fast.stats().unique_hits - fast_hits);
        assert_eq!(skipped, as_image as u64);
    }
}
