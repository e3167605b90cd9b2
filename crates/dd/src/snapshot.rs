//! Copy-on-write package snapshots: an immutable, `Arc`-shared frozen
//! prefix of a [`Package`] that many private delta packages can layer
//! over.
//!
//! # Why
//!
//! Pooled execution rebuilds every job's backend from scratch because
//! shared unique-table state is history-dependent: the first weight
//! written into a tolerance bucket becomes that bucket's canonical
//! representative, so two workers racing on one mutable package would
//! produce different (both "correct", but not *identical*) bits. A
//! snapshot sidesteps the race instead of fighting it — the expensive
//! shared state (gate DDs, their unique-table index, interned
//! canonical ratios) is built **once**, on one thread, then frozen.
//! Every job layers a private delta on top: new nodes allocate above
//! the arena watermark, lookups probe delta-then-frozen, garbage
//! collection sweeps only the delta. The frozen tier pins
//! canonicalization history, so results are byte-identical to a
//! package that built the same prefix itself and then ran the same
//! operations.
//!
//! # Lifecycle
//!
//! ```text
//!   Package::new()  ──warm gates──►  Package::freeze()  ──►  PackageSnapshot
//!                                                                │ (Arc)
//!                      ┌─────────────────────┬───────────────────┤
//!                      ▼                     ▼                   ▼
//!            Package::with_snapshot  Package::with_snapshot     ...
//!                 (worker job 1)          (worker job 2)
//!                      │                     │
//!               delta nodes ≥ watermark   delta nodes ≥ watermark
//!               private caches, GC        private caches, GC
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use approxdd_complex::Tolerance;

use crate::arena::{Arena, FrozenArena};
use crate::ctable::ComputeCache;
use crate::edge::MEdge;
use crate::fasthash::FxHashMap;
use crate::node::{MNode, VNode};
use crate::package::{Package, PackageStats};
use crate::ratio::{RatioCanon, RatioTable};
use crate::unique::{FrozenUnique, UniqueTable};

/// The immutable frozen prefix of a [`Package`], shared across worker
/// packages via `Arc` (see the module docs for the lifecycle).
///
/// Holds both node arenas' frozen regions, their unique-table indexes,
/// the canonical-ratio map, and the identity-DD cache. Edges captured
/// before the freeze (gate DDs) stay valid in every package built by
/// [`Package::with_snapshot`]: frozen node ids mean the same payloads
/// everywhere.
#[derive(Debug)]
pub struct PackageSnapshot {
    pub(crate) tol: Tolerance,
    pub(crate) vnodes: Arc<FrozenArena<VNode>>,
    pub(crate) mnodes: Arc<FrozenArena<MNode>>,
    pub(crate) vunique: Arc<FrozenUnique>,
    pub(crate) munique: Arc<FrozenUnique>,
    pub(crate) ratio_canon: Arc<RatioTable>,
    pub(crate) ident_cache: Vec<MEdge>,
    /// Packages ever layered over this snapshot (bumped by
    /// [`Package::with_snapshot`]) — the cross-batch reuse odometer a
    /// warm serving session reads to prove one frozen tier amortized
    /// across many requests. Diagnostic only: never part of any result.
    attaches: AtomicU64,
}

impl PackageSnapshot {
    /// Alive vector nodes in the frozen prefix.
    #[must_use]
    pub(crate) fn frozen_vnodes(&self) -> usize {
        self.vnodes.alive_count()
    }

    /// Alive matrix nodes in the frozen prefix.
    #[must_use]
    pub(crate) fn frozen_mnodes(&self) -> usize {
        self.mnodes.alive_count()
    }

    /// Alive nodes of both kinds in the frozen prefix.
    #[must_use]
    pub fn frozen_nodes(&self) -> usize {
        self.frozen_vnodes() + self.frozen_mnodes()
    }

    /// How many packages have ever been layered over this snapshot
    /// ([`Package::with_snapshot`] calls). One per worker job in pooled
    /// execution, so a warm cross-batch session shows this climbing
    /// while the frozen tier is built exactly once.
    #[must_use]
    pub fn attaches(&self) -> u64 {
        self.attaches.load(Ordering::Relaxed)
    }
}

impl Package {
    /// Freezes this package into an immutable snapshot prefix.
    ///
    /// Everything the package built so far — nodes, unique-table
    /// entries, interned canonical ratios, the identity cache — becomes
    /// the shared frozen tier; reference counts are dropped (frozen
    /// nodes are pinned by the watermark, not by rc). The compute table
    /// is **not** captured: it is lossy memoization whose absence
    /// only costs recomputation, never changes bits.
    ///
    /// # Panics
    ///
    /// Panics if this package already layers over a snapshot
    /// (re-freezing would need a tier merge, which is unsupported).
    #[must_use]
    pub fn freeze(self) -> PackageSnapshot {
        let _span = approxdd_telemetry::Span::enter("dd.freeze");
        PackageSnapshot {
            tol: self.tolerance(),
            vnodes: Arc::new(self.vnodes.freeze()),
            mnodes: Arc::new(self.mnodes.freeze()),
            vunique: Arc::new(self.vunique.freeze()),
            munique: Arc::new(self.munique.freeze()),
            ratio_canon: Arc::new(self.ratio_canon.freeze()),
            ident_cache: self.ident_cache,
            attaches: AtomicU64::new(0),
        }
    }

    /// Creates a package layered over a frozen snapshot: lookups probe
    /// the private delta first and fall through to the frozen tier,
    /// new nodes allocate above the watermark, and garbage collection
    /// can only ever sweep the delta.
    ///
    /// `cache_bits` sizes the (private, initially empty) compute table
    /// exactly as in [`Package::with_config`]. The tolerance is
    /// inherited from the snapshot.
    #[must_use]
    pub fn with_snapshot(snapshot: &PackageSnapshot, cache_bits: Option<u32>) -> Self {
        snapshot.attaches.fetch_add(1, Ordering::Relaxed);
        Self {
            tol: snapshot.tol,
            vnodes: Arena::with_frozen(Arc::clone(&snapshot.vnodes)),
            mnodes: Arena::with_frozen(Arc::clone(&snapshot.mnodes)),
            vunique: UniqueTable::with_frozen(Arc::clone(&snapshot.vunique)),
            munique: UniqueTable::with_frozen(Arc::clone(&snapshot.munique)),
            ratio_canon: RatioCanon::with_frozen(Arc::clone(&snapshot.ratio_canon)),
            ct: ComputeCache::new(cache_bits),
            mv_memo: FxHashMap::default(),
            ratio_resets: 0,
            ident_cache: snapshot.ident_cache.clone(),
            stats: PackageStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    /// Freezing a package that built a gate and reusing it through a
    /// layered package must give bit-identical amplitudes to a fresh
    /// package doing everything itself.
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

        // Snapshot path: gates built in a base package, then frozen.
        let mut base = Package::new();
        let g_h = base.single_gate(n, 0, GateKind::H.matrix()).unwrap();
        let g_t = base.single_gate(n, 1, GateKind::T.matrix()).unwrap();
        let snapshot = base.freeze();
        assert!(snapshot.frozen_mnodes() > 0);
        assert_eq!(snapshot.frozen_vnodes(), 0, "gate warming builds no vnodes");

        for _ in 0..2 {
            let mut p = Package::with_snapshot(&snapshot, None);
            let mut s = p.zero_state(n);
            s = p.apply(g_h, s);
            s = p.apply(g_t, s);
            let got = p.to_amplitudes(s, n).unwrap();
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!(g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits());
            }
            let stats = p.stats();
            assert_eq!(stats.frozen_mnodes, snapshot.frozen_mnodes());

            // Rebuilding a warmed gate resolves every node in the
            // frozen unique tier: no new mnodes, snapshot hits counted.
            let mnodes_before = p.stats().mnodes_alive;
            let rebuilt = p.single_gate(n, 0, GateKind::H.matrix()).unwrap();
            assert_eq!(rebuilt, g_h, "frozen gate DD is canonical across tiers");
            assert_eq!(p.stats().mnodes_alive, mnodes_before);
            assert!(
                p.stats().snapshot_hits > 0,
                "rebuilding a frozen gate must hit the frozen unique tier"
            );
        }
    }

    /// Delta-layer GC must never free a frozen node: after collecting
    /// an unrooted delta state, the frozen gate still applies and the
    /// frozen counts are untouched.
    #[test]
    fn delta_gc_respects_the_watermark() {
        let n = 4;
        let mut base = Package::new();
        let gate = base.single_gate(n, 2, GateKind::H.matrix()).unwrap();
        let snapshot = base.freeze();
        let frozen_m = snapshot.frozen_mnodes();

        let mut p = Package::with_snapshot(&snapshot, None);
        let mut s = p.zero_state(n);
        s = p.apply(gate, s);
        // Nothing rooted: a full GC pass frees the whole delta.
        let gc = p.collect_garbage();
        assert!(gc.vnodes_freed > 0);
        assert_eq!(gc.mnodes_freed, 0, "no delta mnodes were built");
        let stats = p.stats();
        assert_eq!(stats.frozen_mnodes, frozen_m);
        assert_eq!(stats.mnodes_alive, frozen_m, "frozen mnodes survive GC");

        // The frozen gate is still fully usable after the sweep.
        let mut s2 = p.zero_state(n);
        s2 = p.apply(gate, s2);
        let amps = p.to_amplitudes(s2, n).unwrap();
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!((amps[0].re - inv_sqrt2).abs() < 1e-12);
        assert!((amps[1 << 2].re - inv_sqrt2).abs() < 1e-12);
        let _ = s;
    }
}
