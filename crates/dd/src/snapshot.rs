//! Warm snapshots: one warmed [`Package`], forked for every job.
//!
//! # Why
//!
//! Pooled execution rebuilds every job's backend from scratch because
//! shared unique-table state is history-dependent: the first weight
//! written into a tolerance bucket becomes that bucket's canonical
//! representative, so two workers racing on one mutable package would
//! produce different (both "correct", but not *identical*) bits. A
//! snapshot sidesteps the race instead of fighting it — the expensive
//! state (gate DDs, their unique-table entries, interned canonical
//! ratios) is built **once**, on one thread, and every job starts from
//! its own deep copy, [`Package::fork`]. The copy's nodes are a pinned
//! prefix: no collection frees one, new nodes get ids above it, and a
//! canonical-ratio reset keeps its ratios, so edges taken from the
//! warmed package (gate DDs) stay valid in every fork, and results are
//! byte-identical to a package that built the same prefix itself and
//! then ran the same operations. The copy is small — a warmed gate
//! prefix is a few hundred matrix nodes — and buys node reads, lookups
//! and collections that know of one tier only.
//!
//! # Lifecycle
//!
//! ```text
//!   Package::new()  ──warm gates──►  warmed Package  (shared via Arc)
//!                                          │
//!                      ┌───────────────────┼───────────────────┐
//!                      ▼                   ▼                   ▼
//!               Package::fork        Package::fork            ...
//!               (worker job 1)       (worker job 2)
//!                      │                   │
//!               pinned prefix = the copy; new nodes above it;
//!               own compute table, memo and GC
//! ```

use crate::ctable::ComputeCache;
use crate::fasthash::FxHashMap;
use crate::package::{Package, PackageStats};

impl Package {
    /// A deep copy of this package's node store, unique tables,
    /// canonical ratios and identity cache, with an empty compute table
    /// of `cache_bits` (as in [`Package::with_config`]), an empty
    /// `mul_mv` memo and zeroed statistics.
    ///
    /// Every node the copy starts with is a **pinned prefix**: garbage
    /// collection never frees it, new nodes get ids above it, and a
    /// canonical-ratio reset keeps its ratios. Edges taken from this
    /// package (warmed gate DDs) are therefore valid in every fork, and
    /// a fork computes the bits a package that built the same prefix
    /// itself would, with the same GC timing when its caller registers
    /// the prefix edges it uses (see [`Package::collectable_nodes`]).
    #[must_use]
    pub fn fork(&self, cache_bits: Option<u32>) -> Self {
        let _span = approxdd_telemetry::Span::enter("dd.fork");
        Self {
            tol: self.tol,
            vnodes: self.vnodes.fork(),
            mnodes: self.mnodes.fork(),
            vunique: self.vunique.clone(),
            munique: self.munique.clone(),
            ratio_canon: self.ratio_canon.fork(),
            ct: ComputeCache::new(cache_bits),
            mv_memo: FxHashMap::default(),
            ratio_resets: 0,
            ident_cache: self.ident_cache.clone(),
            stats: PackageStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    // Test names call the fork a *layered* package, the nodes above its
    // prefix the *delta* and the prefix length the *watermark*.

    /// Forking a package that built a gate and reusing the gate in the
    /// fork must give bit-identical amplitudes to a fresh package doing
    /// everything itself.
    #[test]
    fn layered_package_reproduces_base_package_bits() {
        let n = 3;
        // Reference: one package does everything.
        let mut reference = Package::new();
        let gate_h = reference.single_gate(n, 0, GateKind::H.matrix()).unwrap();
        let gate_t = reference.single_gate(n, 1, GateKind::T.matrix()).unwrap();
        let mut state = reference.zero_state(n);
        state = reference.apply(gate_h, state);
        state = reference.apply(gate_t, state);
        let want = reference.to_amplitudes(state, n).unwrap();

        // Fork path: gates built in a base package, then forked.
        let mut base = Package::new();
        let g_h = base.single_gate(n, 0, GateKind::H.matrix()).unwrap();
        let g_t = base.single_gate(n, 1, GateKind::T.matrix()).unwrap();
        let base = base.fork(None);
        assert!(base.stats().frozen_mnodes > 0);
        assert_eq!(
            base.stats().frozen_vnodes,
            0,
            "gate warming builds no vnodes"
        );

        for _ in 0..2 {
            let mut p = base.fork(None);
            let mut s = p.zero_state(n);
            s = p.apply(g_h, s);
            s = p.apply(g_t, s);
            let got = p.to_amplitudes(s, n).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits());
            }
            let stats = p.stats();
            assert_eq!(stats.frozen_mnodes, base.stats().frozen_mnodes);

            // Rebuilding a warmed gate resolves every node in the pinned
            // prefix: no new mnodes, prefix hits counted.
            let mnodes_before = p.stats().mnodes_alive;
            let rebuilt = p.single_gate(n, 0, GateKind::H.matrix()).unwrap();
            assert_eq!(rebuilt, g_h, "a prefix gate DD is canonical in the fork");
            assert_eq!(p.stats().mnodes_alive, mnodes_before);
            assert!(
                p.stats().snapshot_hits > 0,
                "rebuilding a prefix gate must hit a prefix node"
            );
        }
        assert_eq!(
            base.stats().mnodes_alive,
            base.stats().frozen_mnodes,
            "forks wrote to their base"
        );
    }

    /// GC in a fork must never free a prefix node: after collecting an
    /// unrooted state, the prefix gate still applies and the prefix
    /// counts are untouched.
    #[test]
    fn delta_gc_respects_the_watermark() {
        let n = 4;
        let mut base = Package::new();
        let gate = base.single_gate(n, 2, GateKind::H.matrix()).unwrap();
        let mut p = base.fork(None);
        let prefix_m = p.stats().frozen_mnodes;
        assert_eq!(prefix_m, base.stats().mnodes_alive);

        let mut s = p.zero_state(n);
        s = p.apply(gate, s);
        // Nothing rooted: a full GC pass frees everything above the prefix.
        let gc = p.collect_garbage();
        assert!(gc.vnodes_freed > 0);
        assert_eq!(gc.mnodes_freed, 0, "no mnodes were built above the prefix");
        let stats = p.stats();
        assert_eq!(stats.frozen_mnodes, prefix_m);
        assert_eq!(stats.mnodes_alive, prefix_m, "prefix mnodes survive GC");

        // The prefix gate is still fully usable after the sweep.
        let mut s2 = p.zero_state(n);
        s2 = p.apply(gate, s2);
        let amps = p.to_amplitudes(s2, n).unwrap();
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!((amps[0].re - inv_sqrt2).abs() < 1e-12);
        assert!((amps[1 << 2].re - inv_sqrt2).abs() < 1e-12);
        let _ = s;
    }
}
