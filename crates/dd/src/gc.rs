//! Mark-and-sweep garbage collection.
//!
//! External roots are edges registered via [`Package::inc_ref`] /
//! [`Package::inc_ref_m`] (simulator state, cached gate DDs, the
//! package-internal identity cache). Everything unreachable from a root
//! is freed and its unique-table entry dropped; the compute table and
//! the `mul_mv` memo are cleared wholesale because their entries may
//! reference freed nodes.
//!
//! A collection makes three passes:
//!
//! 1. **Mark**, depth-first from the roots. (A breadth-first walk, whose
//!    next loads are known ahead of time and could overlap, measured no
//!    faster here: `dd.gc_ns_per_node` 19.4–19.7 against 18.7–18.8 on
//!    `supremacy_memory`, the same on `shor_fidelity` — likely because
//!    depth-first order stays close to the order the operations
//!    allocated the nodes in, which is the arena's memory order.)
//! 2. **Unlink**: one sequential pass over every level's buckets of the
//!    unique table tombstones each entry whose node is unmarked
//!    ([`crate::unique::UniqueTable::retain`]). It costs O(buckets),
//!    read in order, and re-derives no key: the per-node unlink it
//!    replaced recomputed every victim's key hash from its payload and
//!    probed the table for it, one random access each, ≈ 7 % of a Shor
//!    run. Both leave the same buckets, `len` and tombstones (the tests
//!    keep the per-node unlink as the reference).
//! 3. **Sweep**: the arena frees the unmarked slots, reading no payload.
//!
//! A collection allocates in proportion to what **survives** (the mark
//! stack), never to what it frees. GC start is the engine's memory
//! high-water mark, so a copy of the garbage taken there would be paid
//! for in peak RSS.
//!
//! The pinned prefix of a [`Package::fork`] is never freed: the arena
//! clears every mark but the prefix's, so the mark phase stops at a
//! prefix node and the unlink and the sweep pass the prefix by.
//!
//! What a collection may *not* change is when it runs, the ascending
//! order in which it frees slots, and the LIFO order in which
//! [`crate::arena::Arena::alloc`] hands them out again: node ids break
//! ties in `add`, so all three reach result bits.

use crate::arena::Arena;
use crate::edge::NodeId;
use crate::node::VNode;
use crate::package::Package;

/// Statistics of one garbage-collection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Vector nodes freed.
    pub vnodes_freed: usize,
    /// Matrix nodes freed.
    pub mnodes_freed: usize,
    /// Vector nodes remaining alive.
    pub vnodes_alive: usize,
    /// Matrix nodes remaining alive.
    pub mnodes_alive: usize,
}

/// Marks every node reachable from an external root of `arena` (the
/// pinned prefix reads as marked already).
fn mark_reachable<T, S: Copy, const N: usize>(
    arena: &mut Arena<T, S>,
    children: impl Fn(&T) -> [NodeId; N],
) {
    arena.clear_marks();
    let mut stack: Vec<u32> = arena.rooted_indices().collect();
    while let Some(idx) = stack.pop() {
        if !arena.mark(idx) {
            continue;
        }
        for child in children(arena.get(idx)) {
            if !child.is_terminal() && !arena.is_marked(child.0) {
                stack.push(child.0);
            }
        }
    }
}

impl Package {
    /// Runs a full mark-and-sweep collection and returns what was freed.
    ///
    /// Edges not registered as roots (and not reachable from one) become
    /// dangling; callers must re-register or forget them.
    pub fn collect_garbage(&mut self) -> GcStats {
        self.collect(Self::unlink_garbage)
    }

    /// One collection, with `unlink` dropping the unmarked nodes'
    /// unique-table entries between the mark and the sweep.
    fn collect(&mut self, unlink: fn(&mut Self)) -> GcStats {
        let span = approxdd_telemetry::Span::enter("dd.gc");
        self.stats.gc_runs += 1;

        mark_reachable(&mut self.vnodes, VNode::ids);
        mark_reachable(&mut self.mnodes, |n| n.edges.map(|e| e.node));
        unlink(self);
        let vnodes_freed = self.vnodes.sweep();
        let mnodes_freed = self.mnodes.sweep();

        // Memoized results may point at freed nodes.
        self.clear_memoized();

        self.stats.gc_freed += (vnodes_freed + mnodes_freed) as u64;
        let _ = span.finish();
        approxdd_telemetry::count("approxdd_dd_gc_runs_total", 1);
        approxdd_telemetry::count(
            "approxdd_dd_gc_freed_nodes_total",
            (vnodes_freed + mnodes_freed) as u64,
        );
        GcStats {
            vnodes_freed,
            mnodes_freed,
            vnodes_alive: self.vnodes.alive_count(),
            mnodes_alive: self.mnodes.alive_count(),
        }
    }

    /// Tombstones the unique-table entry of every unmarked node, one
    /// scan of each table (see the module docs).
    fn unlink_garbage(&mut self) {
        let vnodes = &self.vnodes;
        self.vunique.retain(|id| vnodes.is_marked(id));
        let mnodes = &self.mnodes;
        self.munique.retain(|id| mnodes.is_marked(id));
    }

    /// The alive-node count the GC trigger reads. For a package that
    /// was not forked it is every alive node of both arenas. For a
    /// [`Package::fork`] it is the nodes above the pinned prefix plus
    /// the prefix matrix nodes of the edges registered with
    /// [`Package::inc_ref_m`]: the nodes this package would hold had it
    /// built those edges itself. A trigger on it fires at the same
    /// operation with and without the fork, and the rest of the prefix
    /// does not drive it by its mere presence.
    #[must_use]
    pub fn collectable_nodes(&self) -> usize {
        self.vnodes.alive_count() - self.vnodes.prefix_alive() + self.mnodes.alive_count()
            - self.mnodes.prefix_alive()
            + self.mnodes.held_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::VEdge;
    use crate::gates::GateKind;
    use crate::package::{remove_mnode_from_unique, remove_vnode_from_unique};
    use proptest::prelude::*;

    impl Package {
        /// The collection with the per-node unlink it had before the
        /// scanning one: each victim's entry is found by its key,
        /// re-derived from the payload, and tombstoned.
        fn collect_garbage_per_node(&mut self) -> GcStats {
            self.collect(|p| {
                let tol = p.tol;
                for id in p.vnodes.unmarked_indices() {
                    let var = p.vnodes.side(id).var();
                    remove_vnode_from_unique(&mut p.vunique, tol, id, var, p.vnodes.get(id));
                }
                for id in p.mnodes.unmarked_indices() {
                    remove_mnode_from_unique(&mut p.munique, tol, id, p.mnodes.get(id));
                }
            })
        }
    }

    /// A gate of a random 7-qubit circuit: H, T, Rx(θπ), Sy, or X,
    /// controlled when `kind ≥ 4` and the qubits differ.
    fn gate(p: &mut Package, ((kind, theta), a, b): ((usize, f64), usize, usize)) -> crate::MEdge {
        const N: usize = 7;
        let u = match kind {
            0 => GateKind::H,
            1 => GateKind::T,
            2 => GateKind::Rx(theta * std::f64::consts::PI),
            3 => GateKind::Sy,
            _ => GateKind::X,
        }
        .matrix();
        if kind >= 4 && a != b {
            p.controlled_gate(N, &[a], b, u).unwrap()
        } else {
            p.single_gate(N, a, u).unwrap()
        }
    }

    /// What must hold of the node store right after a collection.
    fn assert_consistent_store(p: &mut Package, gc: GcStats) {
        let before = p.stats();
        assert_eq!(
            (before.vnodes_alive, before.mnodes_alive),
            (gc.vnodes_alive, gc.mnodes_alive)
        );
        // Exactly the alive nodes are indexed: no entry of a swept node
        // stayed behind, none of a survivor was lost.
        assert_eq!(before.unique_len, gc.vnodes_alive + gc.mnodes_alive);
        // Re-making a survivor from its own children finds the survivor.
        for id in p.vnodes.alive_indices().collect::<Vec<_>>() {
            let (node, var) = (*p.vnodes.get(id), p.vnodes.side(id).var());
            assert_eq!(p.intern_vnode(var, node), id, "vnode {id} lost its entry");
        }
        for id in p.mnodes.alive_indices().collect::<Vec<_>>() {
            let node = *p.mnodes.get(id);
            assert_eq!(p.intern_mnode(node), id, "mnode {id} lost its entry");
        }
        let after = p.stats();
        assert_eq!(after.unique_misses, before.unique_misses);
        assert_eq!(after.node_store_bytes, before.node_store_bytes);
        // Nothing is left for a second collection.
        let again = p.collect_garbage();
        assert_eq!((again.vnodes_freed, again.mnodes_freed), (0, 0));
        assert_eq!(
            (again.vnodes_alive, again.mnodes_alive),
            (gc.vnodes_alive, gc.mnodes_alive)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random 7-qubit circuits under the simulator's GC discipline
        // (one rooted state, collect past 64 collectable nodes), on a
        // plain package and on a fork of one that warmed a few of the
        // gates.
        #[test]
        fn collection_leaves_a_consistent_store(
            ops in prop::collection::vec(((0usize..6, any::<f64>()), 0usize..7, 0usize..7), 48),
            forked in any::<bool>()
        ) {
            const N: usize = 7;
            let mut p = if forked {
                let mut base = Package::new();
                for &op in &ops[..8] {
                    let _ = gate(&mut base, op);
                }
                base.fork(None)
            } else {
                Package::new()
            };
            let mut state = p.zero_state(N);
            p.inc_ref(state);
            let mut collections = 0;
            for &op in &ops {
                let g = gate(&mut p, op);
                let next = p.apply(g, state);
                p.inc_ref(next);
                p.dec_ref(state);
                state = next;
                if p.collectable_nodes() > 64 {
                    let gc = p.collect_garbage();
                    assert_consistent_store(&mut p, gc);
                    collections += 1;
                }
            }
            prop_assert!(collections > 0, "the threshold never fired");
            prop_assert!((p.norm(state) - 1.0).abs() < 1e-9);
        }

        // The scanning unlink against the per-node reference, in
        // lockstep on two packages that run the same random circuit and
        // collect past 16 collectable nodes: after every collection both
        // unique tables agree bucket for bucket, `len` and tombstones
        // included. A fork starts both from one warmed base, whose
        // pinned prefix neither may unlink.
        #[test]
        fn scanning_unlink_equals_the_per_node_reference(
            ops in prop::collection::vec(((0usize..6, any::<f64>()), 0usize..7, 0usize..7), 40),
            forked in any::<bool>()
        ) {
            const N: usize = 7;
            let base = forked.then(|| {
                let mut base = Package::new();
                let warm: Vec<_> = ops[..10].iter().map(|&op| gate(&mut base, op)).collect();
                let mut v = base.zero_state(N);
                for g in warm {
                    v = base.apply(g, v);
                }
                base
            });
            let fresh = || base.as_ref().map_or_else(Package::new, |b| b.fork(None));
            let mut pair = [fresh(), fresh()];
            let mut states = pair.each_mut().map(|p| {
                let state = p.zero_state(N);
                p.inc_ref(state);
                state
            });
            let mut collections = 0;
            for &op in &ops {
                let mut collected = [None, None];
                for (i, p) in pair.iter_mut().enumerate() {
                    let g = gate(p, op);
                    let next = p.apply(g, states[i]);
                    p.inc_ref(next);
                    p.dec_ref(states[i]);
                    states[i] = next;
                    if p.collectable_nodes() > 16 {
                        collected[i] = Some(if i == 0 {
                            p.collect_garbage()
                        } else {
                            p.collect_garbage_per_node()
                        });
                    }
                }
                prop_assert_eq!(collected[0], collected[1]);
                prop_assert_eq!(states[0], states[1]);
                if collected[0].is_some() {
                    let [p, q] = &pair;
                    prop_assert!(p.vunique == q.vunique, "vector unique tables differ");
                    prop_assert!(p.munique == q.munique, "matrix unique tables differ");
                    prop_assert_eq!(p.stats(), q.stats());
                    collections += 1;
                }
            }
            prop_assert!(collections > 1, "the threshold fired {} times", collections);
        }
    }

    #[test]
    fn unrooted_nodes_are_collected() {
        let mut p = Package::new();
        let kept = p.basis_state(4, 3);
        p.inc_ref(kept);
        let _garbage = p.basis_state(4, 12); // not rooted
        let before = p.stats().vnodes_alive;
        assert_eq!(before, 8);

        let stats = p.collect_garbage();
        assert!(stats.vnodes_freed > 0);
        assert_eq!(stats.vnodes_alive, 4);
        // The kept state is still intact.
        let amp = p.amplitude(kept, 3);
        assert!((amp.mag2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_subgraphs_survive_partial_release() {
        let mut p = Package::new();
        let a = p.basis_state(3, 1);
        let b = p.basis_state(3, 1); // same DD
        assert_eq!(a.node, b.node);
        p.inc_ref(a);
        p.inc_ref(b);
        p.dec_ref(a);
        let stats = p.collect_garbage();
        assert_eq!(stats.vnodes_alive, 3, "still rooted via b");
        p.dec_ref(b);
        let stats = p.collect_garbage();
        assert_eq!(stats.vnodes_alive, 0);
    }

    #[test]
    fn identity_cache_survives_gc() {
        let mut p = Package::new();
        let id = p.identity(3);
        let _ = p.collect_garbage();
        let id2 = p.identity(3);
        assert_eq!(id, id2);
        // The cached identity is still usable.
        let v = p.basis_state(3, 5);
        let r = p.apply(id2, v);
        assert!((p.fidelity(r, v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nodes_are_rebuildable_after_gc() {
        let mut p = Package::new();
        let v = p.basis_state(5, 9);
        // Not rooted: collected.
        let _ = p.collect_garbage();
        assert_eq!(p.stats().vnodes_alive, 0);
        // Rebuilding produces a working DD (slot reuse must be clean).
        let v2 = p.basis_state(5, 9);
        assert!((p.amplitude(v2, 9).mag2() - 1.0).abs() < 1e-12);
        let _ = v;
    }

    #[test]
    fn gate_roots_protect_matrix_nodes() {
        let mut p = Package::new();
        let h = p.single_gate(2, 0, GateKind::H.matrix()).unwrap();
        p.inc_ref_m(h);
        let _tmp = p.single_gate(2, 1, GateKind::X.matrix()).unwrap();
        let stats = p.collect_garbage();
        assert!(stats.mnodes_alive >= 2, "H gate survives");
        let v = p.zero_state(2);
        let r = p.apply(h, v);
        let amps = p.to_amplitudes(r, 2).unwrap();
        assert!((amps[0].mag2() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gc_updates_stats() {
        let mut p = Package::new();
        let _ = p.basis_state(3, 0);
        let _ = p.collect_garbage();
        assert_eq!(p.stats().gc_runs, 1);
        assert!(p.stats().gc_freed >= 3);
        let _ = VEdge::ZERO;
    }
}
