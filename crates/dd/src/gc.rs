//! Mark-and-sweep garbage collection.
//!
//! External roots are edges registered via [`Package::inc_ref`] /
//! [`Package::inc_ref_m`] (simulator state, cached gate DDs, the
//! package-internal identity cache). Everything unreachable from a root
//! is freed and its unique-table entry dropped; the compute tables are
//! cleared wholesale because their entries may reference freed nodes.

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

impl Package {
    /// Runs a full mark-and-sweep collection and returns what was freed.
    ///
    /// Edges not registered as roots (and not reachable from one) become
    /// dangling; callers must re-register or forget them.
    pub fn collect_garbage(&mut self) -> GcStats {
        let span = approxdd_telemetry::Span::enter("dd.gc");
        self.stats.gc_runs += 1;

        // --- vector arena ---
        self.vnodes.clear_marks();
        let mut stack: Vec<u32> = self.vnodes.rooted_indices().collect();
        while let Some(idx) = stack.pop() {
            if !self.vnodes.mark(idx) {
                continue;
            }
            let node = *self.vnodes.get(idx);
            for e in node.edges {
                if !e.node.is_terminal() && !self.vnodes.is_marked(e.node.0) {
                    stack.push(e.node.0);
                }
            }
        }
        // Sweep with unique-table eviction. Collect victims first to
        // avoid borrowing conflicts.
        let mut v_victims: Vec<(u32, crate::node::VNode)> = Vec::new();
        let vnodes_freed = {
            let v = &mut v_victims;
            self.vnodes.sweep(|idx, node| v.push((idx, *node)))
        };
        for (idx, node) in v_victims {
            self.remove_vnode_from_unique(idx, &node);
        }

        // --- matrix arena ---
        self.mnodes.clear_marks();
        let mut stack: Vec<u32> = self.mnodes.rooted_indices().collect();
        while let Some(idx) = stack.pop() {
            if !self.mnodes.mark(idx) {
                continue;
            }
            let node = *self.mnodes.get(idx);
            for e in node.edges {
                if !e.node.is_terminal() && !self.mnodes.is_marked(e.node.0) {
                    stack.push(e.node.0);
                }
            }
        }
        let mut m_victims: Vec<(u32, crate::node::MNode)> = Vec::new();
        let mnodes_freed = {
            let m = &mut m_victims;
            self.mnodes.sweep(|idx, node| m.push((idx, *node)))
        };
        for (idx, node) in m_victims {
            self.remove_mnode_from_unique(idx, &node);
        }

        // Memoized results may point at freed nodes.
        self.ct.clear();

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

    /// Total alive vector nodes in the arena (distinct from
    /// [`Package::vsize`], which counts one DD's reachable set).
    #[must_use]
    pub fn alive_vnodes(&self) -> usize {
        self.vnodes.alive_count()
    }

    /// Total alive matrix nodes in the arena.
    #[must_use]
    pub fn alive_mnodes(&self) -> usize {
        self.mnodes.alive_count()
    }

    /// Alive nodes a GC pass can actually inspect and free: everything
    /// in the private delta layer. Without a snapshot this equals
    /// `alive_vnodes() + alive_mnodes()`; with one, the pinned frozen
    /// prefix is excluded so a large snapshot does not drive the GC
    /// trigger by its mere presence.
    #[must_use]
    pub fn collectable_nodes(&self) -> usize {
        self.vnodes.delta_alive_count() + self.mnodes.delta_alive_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::VEdge;
    use crate::gates::GateKind;

    #[test]
    fn unrooted_nodes_are_collected() {
        let mut p = Package::new();
        let kept = p.basis_state(4, 3);
        p.inc_ref(kept);
        let _garbage = p.basis_state(4, 12); // not rooted
        let before = p.alive_vnodes();
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
        assert_eq!(p.alive_vnodes(), 0);
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
