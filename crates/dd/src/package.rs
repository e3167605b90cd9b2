//! The [`Package`]: owner of all nodes, tables and caches.

use std::hash::Hasher;

use approxdd_complex::{Cplx, Tolerance};

use crate::arena::Arena;
use crate::ctable::ComputeCache;
use crate::edge::{MEdge, NodeId, VEdge};
use crate::error::DdError;
use crate::fasthash::{FxHashMap, FxHasher};
use crate::node::{Image, MNode, VNode};
use crate::ratio::RatioCanon;
use crate::unique::UniqueTable;
use crate::visit::count_reachable;
use crate::Result;

/// Maximum number of qubits the node representation supports.
pub(crate) const MAX_QUBITS: usize = 255;
/// Maximum register width for operations that enumerate `2^n` basis
/// indices (dense conversion).
pub(crate) const MAX_DENSE_QUBITS: usize = 26;

/// Hash of a node's unique-table key (child ids plus
/// tolerance-quantized child weights; the level is implicit in the
/// per-level table).
#[inline]
fn key_hash<const N: usize>(nodes: [u32; N], weights: [(i64, i64); N]) -> u64 {
    let mut h = FxHasher::default();
    for n in nodes {
        h.write_u32(n);
    }
    for (re, im) in weights {
        h.write_i64(re);
        h.write_i64(im);
    }
    h.finish()
}

/// Whether a weight is `1 + 0i` bit for bit — the only weight an
/// identity matrix node may carry on its diagonal: `1 − ulp`, `1 + 0i`
/// with a negative zero and NaN all fail.
#[inline]
fn is_exactly_one(w: Cplx) -> bool {
    w.re.to_bits() == Cplx::ONE.re.to_bits() && w.im.to_bits() == Cplx::ONE.im.to_bits()
}

/// The arithmetic half of [`Package::make_vnode`], a pure function of
/// its inputs: snaps near-zero weights to the zero stub, scales the pair
/// to unit ℓ2 norm with a real positive pivot, and returns the factor
/// taken out with the normalized successor edges — `None` for the zero
/// vector. [`Package::make_vnode`] interns what this returns, and
/// `VNode::image` is decided by running a node's own edges through it,
/// so "what re-normalising this node would give" is by construction
/// what the recursion computes.
///
/// A NaN or infinite input weight (never tolerance-zero) makes the
/// norm, and with it the factor, non-finite: a non-finite weight
/// anywhere below a node is carried up into the edge to it, and so
/// into a diagram's root weight, which is where [`Package::truncate`]
/// looks for one.
#[inline]
fn normalize(tol: Tolerance, mut e0: VEdge, mut e1: VEdge) -> Option<(Cplx, [VEdge; 2])> {
    if tol.is_zero(e0.w) {
        e0 = VEdge::ZERO;
    }
    if tol.is_zero(e1.w) {
        e1 = VEdge::ZERO;
    }
    let m0 = e0.w.mag2();
    let m1 = e1.w.mag2();
    if m0 == 0.0 && m1 == 0.0 {
        return None;
    }
    let norm = (m0 + m1).sqrt();
    // Canonical pivot: the first structurally non-zero child.
    let pivot_w = if m0 > 0.0 { e0.w } else { e1.w };
    let phase = pivot_w.phase();
    let factor = phase * norm;
    let inv = factor.recip();
    // Kill numerical noise: the pivot becomes exactly real positive.
    let (n0, n1) = if m0 > 0.0 {
        (Cplx::real(m0.sqrt() / norm), e1.w * inv)
    } else {
        (Cplx::ZERO, Cplx::real(m1.sqrt() / norm))
    };
    let e0 = VEdge {
        w: n0,
        node: e0.node,
    };
    let e1 = VEdge {
        w: n1,
        node: e1.node,
    };
    Some((factor, [e0, e1]))
}

/// Drops a swept vector node's unique-table entry. Free functions over
/// the table (not `Package` methods) so the arena sweep can call them
/// while it holds the arena: garbage is unlinked where it is found,
/// never copied out first.
pub(crate) fn remove_vnode_from_unique(
    unique: &mut UniqueTable,
    tol: Tolerance,
    id: u32,
    node: &VNode,
) {
    // The stored node's weights are exactly the bits the key was
    // quantized from at insert time, so the recomputed hash matches.
    let weights = node.edges.map(|e| tol.key(e.w));
    let hash = key_hash(node.edges.map(|e| e.node.0), weights);
    let removed = unique.remove(node.var, hash, id);
    debug_assert!(removed, "swept vnode {id} missing from unique table");
}

/// Drops a swept matrix node's unique-table entry (see
/// [`remove_vnode_from_unique`]).
pub(crate) fn remove_mnode_from_unique(
    unique: &mut UniqueTable,
    tol: Tolerance,
    id: u32,
    node: &MNode,
) {
    let weights = node.edges.map(|e| tol.key(e.w));
    let hash = key_hash(node.edges.map(|e| e.node.0), weights);
    let removed = unique.remove(node.var, hash, id);
    debug_assert!(removed, "swept mnode {id} missing from unique table");
}

/// Operational statistics of a [`Package`], for benchmarking and the
/// memory-driven approximation strategy.
///
/// # Compute-table accounting semantics
///
/// The counters cover the one compute table, `add`'s. Hit/miss
/// counters are incremented **inside the table lookup**: every lookup
/// `add` performs counts as exactly one hit (a memoized result was
/// returned) or one miss (the operation recomputed and re-inserted).
/// Operand-order canonicalization and trivial cases that never consult
/// the table (zero edges, terminal×terminal, same-node shortcuts) count
/// as neither, and so do probes of the memos `mul_mv`, `mul_mm` and
/// `inner_product` keep for one call, which are not compute tables. The
/// counters are *lifetime* totals of the package — clearing the table
/// (an O(1) generation bump, performed by garbage collection and at a
/// canonical-ratio reset) does **not** reset them, so hit rates are
/// comparable across runs regardless of how often the table was
/// invalidated. Earlier revisions cleared growable tables wholesale
/// past an entry cap, which made hit-rate numbers depend on where the
/// cap happened to fall; the fixed-capacity lossy table has no such
/// cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackageStats {
    /// Vector nodes currently alive.
    pub vnodes_alive: usize,
    /// Peak simultaneously-alive vector nodes.
    pub vnodes_peak: usize,
    /// Matrix nodes currently alive.
    pub mnodes_alive: usize,
    /// Peak simultaneously-alive matrix nodes.
    pub mnodes_peak: usize,
    /// Unique-table lookups that found an existing node.
    pub unique_hits: u64,
    /// Unique-table lookups that created a new node.
    pub unique_misses: u64,
    /// Live unique-table entries across both node kinds and all levels.
    pub unique_len: usize,
    /// Unique-table buckets across both node kinds and all levels.
    pub unique_capacity: usize,
    /// Compute-table hits (the `add` table's).
    pub ct_hits: u64,
    /// Compute-table misses (the `add` table's).
    pub ct_misses: u64,
    /// Garbage-collection runs performed.
    pub gc_runs: u64,
    /// Total nodes reclaimed by garbage collection.
    pub gc_freed: u64,
    /// Alive vector nodes in the frozen snapshot prefix (0 without a
    /// snapshot).
    pub frozen_vnodes: usize,
    /// Alive matrix nodes in the frozen snapshot prefix.
    pub frozen_mnodes: usize,
    /// Unique-table hits that resolved to a frozen snapshot node
    /// (a subset of `unique_hits`; 0 without a snapshot).
    pub snapshot_hits: u64,
    /// `Package::mul_mv` calls answered by the identity rule (see the
    /// crate docs): an identity operator on a node that carries its
    /// image — the factor, a few ulps from 1, under which the recursion
    /// would hand the node back — returned without a lookup or a
    /// recursion. Like the hit/miss
    /// counters it describes how a result was reached, not the result,
    /// and is excluded from every fingerprint.
    pub identity_skips: u64,
    /// Bytes the package's node store holds right now, counted from
    /// container **lengths**: arena slots (payload, reference count,
    /// flag bits, free list), unique-table buckets, canonical-ratio
    /// slots, and the compute table's slot array once it has
    /// materialised (not the per-call memos).
    /// Private tiers only — an attached snapshot's frozen prefix is
    /// shared and counted by nobody. Deterministic for a given
    /// operation sequence and cache size (it is not RSS: allocator
    /// slack, `Vec` spare capacity and per-call scratch are outside
    /// it), but a description of layout, not of a result: it is
    /// excluded from every fingerprint and free to move whenever a
    /// table is re-laid out.
    pub node_store_bytes: usize,
}

impl PackageStats {
    /// Aggregate compute-cache hit rate over the package's lifetime
    /// (0 when no lookups happened).
    #[must_use]
    pub fn ct_hit_rate(&self) -> f64 {
        let total = self.ct_hits + self.ct_misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.ct_hits as f64 / total as f64
            }
        }
    }

    /// Fraction of unique-table buckets holding a live entry.
    #[must_use]
    pub fn unique_occupancy(&self) -> f64 {
        if self.unique_capacity == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.unique_len as f64 / self.unique_capacity as f64
            }
        }
    }

    /// Peak simultaneously-alive nodes of both kinds combined.
    #[must_use]
    pub fn peak_nodes(&self) -> usize {
        self.vnodes_peak + self.mnodes_peak
    }

    /// Alive nodes of both kinds in the frozen snapshot prefix.
    #[must_use]
    pub fn frozen_nodes(&self) -> usize {
        self.frozen_vnodes + self.frozen_mnodes
    }
}

/// The decision-diagram package: arena storage, unique tables for
/// canonicity, a compute table for memoization, and the numerical
/// tolerance that defines weight equality.
///
/// All DD operations are methods on this type; edges returned by one
/// package must not be used with another.
///
/// # Examples
///
/// ```
/// use approxdd_dd::Package;
///
/// let mut p = Package::new();
/// let ghz_like = p.basis_state(3, 0b101);
/// assert_eq!(p.vsize(ghz_like), 3); // one node per qubit
/// ```
#[derive(Debug)]
pub struct Package {
    pub(crate) tol: Tolerance,
    pub(crate) vnodes: Arena<VNode>,
    pub(crate) mnodes: Arena<MNode>,
    pub(crate) vunique: UniqueTable,
    pub(crate) munique: UniqueTable,
    /// Canonical `add` weight ratios, one per tolerance bucket (private
    /// tier plus an attached snapshot's frozen one) — see [`crate::ratio`].
    pub(crate) ratio_canon: RatioCanon,
    /// The lossy compute table of `add`, the one memo that outlives a
    /// call (see [`crate::ops`]).
    pub(crate) ct: ComputeCache,
    /// `mul_mv`'s memo, emptied by every [`Package::apply`] (see
    /// [`crate::ops`]).
    pub(crate) mv_memo: FxHashMap<(u32, u32), VEdge>,
    /// Canonical-ratio resets so far. An operation memoizes its result
    /// only if no reset happened while it recursed (see [`crate::ratio`]).
    pub(crate) ratio_resets: u64,
    /// `ident_cache[k]` is the identity matrix DD over levels `0..k`
    /// (height `k`); entry 0 is the terminal edge.
    pub(crate) ident_cache: Vec<MEdge>,
    pub(crate) stats: PackageStats,
}

impl Package {
    /// Creates a package with the default tolerance
    /// (`approxdd_complex::DEFAULT_TOLERANCE`) and default compute
    /// cache size.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(Tolerance::default(), None)
    }

    /// Creates a package with an explicit tolerance. Looser tolerances
    /// merge more near-equal weights (smaller DDs, more rounding); tighter
    /// tolerances are more faithful but may duplicate nodes.
    #[must_use]
    pub fn with_tolerance(tol: Tolerance) -> Self {
        Self::with_config(tol, None)
    }

    /// Creates a package with an explicit tolerance and compute-cache
    /// size. `cache_bits` is the `log2` slot count of the lossy `add`
    /// compute table (`None` → the engine default of 2^16 slots),
    /// clamped to the supported `[2, 26]` range.
    ///
    /// Cache size is a pure time/memory trade: the table is lossy and
    /// results are **bit-identical for every size** — an undersized
    /// table only recomputes more (see the crate-level docs on the
    /// lossy cache design).
    #[must_use]
    pub fn with_config(tol: Tolerance, cache_bits: Option<u32>) -> Self {
        Self {
            tol,
            vnodes: Arena::new(),
            mnodes: Arena::new(),
            vunique: UniqueTable::new(),
            munique: UniqueTable::new(),
            ratio_canon: RatioCanon::new(),
            ct: ComputeCache::new(cache_bits),
            mv_memo: FxHashMap::default(),
            ratio_resets: 0,
            ident_cache: vec![MEdge::ONE],
            stats: PackageStats::default(),
        }
    }

    /// The numerical tolerance of this package.
    #[must_use]
    pub(crate) fn tolerance(&self) -> Tolerance {
        self.tol
    }

    /// Current operational statistics.
    #[must_use]
    pub fn stats(&self) -> PackageStats {
        let mut s = self.stats;
        s.vnodes_alive = self.vnodes.alive_count();
        s.vnodes_peak = self.vnodes.peak_count();
        s.mnodes_alive = self.mnodes.alive_count();
        s.mnodes_peak = self.mnodes.peak_count();
        s.unique_len = self.vunique.len() + self.munique.len();
        s.unique_capacity = self.vunique.capacity() + self.munique.capacity();
        s.ct_hits = self.ct.hits;
        s.ct_misses = self.ct.misses;
        s.frozen_vnodes = self.vnodes.frozen_count();
        s.frozen_mnodes = self.mnodes.frozen_count();
        s.node_store_bytes = self.vnodes.bytes()
            + self.mnodes.bytes()
            + self.vunique.bytes()
            + self.munique.bytes()
            + self.ratio_canon.bytes()
            + self.ct.bytes();
        s
    }

    // ------------------------------------------------------------------
    // node construction & normalization
    // ------------------------------------------------------------------

    // Inlined by decree, with `Arena::get`: see there.
    #[inline(always)]
    pub(crate) fn vnode(&self, id: NodeId) -> &VNode {
        self.vnodes.get(id.0)
    }

    #[inline(always)]
    pub(crate) fn mnode(&self, id: NodeId) -> &MNode {
        self.mnodes.get(id.0)
    }

    /// Level (number of qubits) represented by a vector edge: the var of
    /// its node plus one, or 0 for terminal edges.
    #[must_use]
    pub fn vlevel(&self, e: VEdge) -> usize {
        if e.node.is_terminal() {
            0
        } else {
            usize::from(self.vnode(e.node).var) + 1
        }
    }

    /// Level represented by a matrix edge (0 for terminal edges).
    #[must_use]
    pub(crate) fn mlevel(&self, e: MEdge) -> usize {
        if e.node.is_terminal() {
            0
        } else {
            usize::from(self.mnode(e.node).var) + 1
        }
    }

    /// Creates (or reuses) the canonical vector node `var -> (e0, e1)`
    /// and returns the normalized edge pointing to it.
    ///
    /// Normalization: the weight pair is scaled to unit ℓ2 norm and the
    /// first non-zero weight is made real positive; the inverse scale
    /// factor is returned on the edge. Near-zero child weights are
    /// snapped to the canonical zero stub.
    pub(crate) fn make_vnode(&mut self, var: u8, e0: VEdge, e1: VEdge) -> VEdge {
        debug_assert!(self.child_level_ok(var, e0) && self.child_level_ok(var, e1));
        let Some((factor, edges)) = normalize(self.tol, e0, e1) else {
            return VEdge::ZERO;
        };
        let id = self.intern_vnode(VNode {
            var,
            image: Image::NONE,
            edges,
        });
        VEdge {
            w: factor,
            node: NodeId(id),
        }
    }

    /// The canonical id of an already normalized vector node: the one
    /// the unique table holds for its key, or a newly allocated slot —
    /// whose `image` is decided here, once (the argument's is ignored).
    #[inline]
    pub(crate) fn intern_vnode(&mut self, node: VNode) -> u32 {
        let weights = node.edges.map(|e| self.tol.key(e.w));
        let hash = key_hash(node.edges.map(|e| e.node.0), weights);
        let tol = self.tol;
        let arena = &self.vnodes;
        let found = self.vunique.lookup(node.var, hash, |id| {
            let n = arena.get(id);
            (0..2).all(|i| {
                n.edges[i].node == node.edges[i].node && tol.key(n.edges[i].w) == weights[i]
            })
        });
        match found {
            Some(id) => {
                self.stats.unique_hits += 1;
                if id < self.vnodes.watermark() {
                    self.stats.snapshot_hits += 1;
                }
                id
            }
            None => {
                self.stats.unique_misses += 1;
                let id = self.vnodes.alloc(VNode {
                    image: self.identity_image(&node, weights),
                    ..node
                });
                self.vunique.insert(node.var, hash, id);
                id
            }
        }
    }

    /// The definition of [`VNode::image`]: the factor `f` for which
    /// `mul_mv(I, ·)` on this normalized node would come back as
    /// `(f, this node)`. Feeds [`normalize`] what the recursion feeds
    /// `make_vnode` — for each successor the early-out or the scaled
    /// edge `mul_mv` returns on it (its own image, by induction, whether
    /// through the rule, a cache hit or a recompute), which `add(·, 0)`
    /// then passes through untouched — and records the factor iff the
    /// unique table would answer with this node: same successor ids,
    /// same weight keys (`keys`: those of the node's stored weights;
    /// comparing keys, not weights, is what makes a bucket crossing
    /// recurse). A successor without an image settles it without
    /// arithmetic.
    fn identity_image(&self, node: &VNode, keys: [(i64, i64); 2]) -> Image {
        let mut fed = [VEdge::ZERO; 2];
        for (fed, c) in fed.iter_mut().zip(node.edges) {
            if c.is_zero(self.tol) {
                continue;
            }
            *fed = if c.node.is_terminal() {
                VEdge::terminal(Cplx::ONE * c.w)
            } else if let Some(f) = self.vnode(c.node).image.factor() {
                VEdge { w: f, node: c.node }.scaled(Cplx::ONE * c.w)
            } else {
                return Image::NONE;
            };
        }
        normalize(self.tol, fed[0], fed[1])
            .filter(|(_, edges)| {
                (0..2).all(|i| {
                    edges[i].node == node.edges[i].node && self.tol.key(edges[i].w) == keys[i]
                })
            })
            .map_or(Image::NONE, |(factor, _)| Image::encode(factor))
    }

    fn child_level_ok(&self, var: u8, e: VEdge) -> bool {
        if e.node.is_terminal() {
            // Zero stubs are allowed anywhere; non-zero terminal children
            // only directly above the terminal (var == 0).
            self.tol.is_zero(e.w) || var == 0
        } else {
            self.vnode(e.node).var + 1 == var
        }
    }

    /// Creates (or reuses) the canonical matrix node and returns the
    /// normalized edge. Matrix nodes are normalized by the
    /// largest-magnitude quadrant weight (ties: first in row-major
    /// order), keeping all stored weights at magnitude ≤ 1.
    pub(crate) fn make_mnode(&mut self, var: u8, mut edges: [MEdge; 4]) -> MEdge {
        for e in &mut edges {
            if self.tol.is_zero(e.w) {
                *e = MEdge::ZERO;
            }
        }
        let mags = edges.map(|e| e.w.mag2());
        let mut pivot = 0;
        for (i, m) in mags.iter().enumerate() {
            if *m > mags[pivot] {
                pivot = i;
            }
        }
        if mags[pivot] == 0.0 {
            return MEdge::ZERO;
        }
        let factor = edges[pivot].w;
        let inv = factor.recip();
        for (i, e) in edges.iter_mut().enumerate() {
            if i == pivot {
                e.w = Cplx::ONE;
            } else {
                e.w *= inv;
                if self.tol.is_zero(e.w) {
                    *e = MEdge::ZERO;
                }
            }
        }

        let id = self.intern_mnode(MNode {
            var,
            identity: false,
            edges,
        });
        MEdge {
            w: factor,
            node: NodeId(id),
        }
    }

    /// The canonical id of an already normalized matrix node (see
    /// [`Package::intern_vnode`]); a new slot's `identity` bit is
    /// decided here.
    #[inline]
    pub(crate) fn intern_mnode(&mut self, node: MNode) -> u32 {
        let weights = node.edges.map(|e| self.tol.key(e.w));
        let hash = key_hash(node.edges.map(|e| e.node.0), weights);
        let tol = self.tol;
        let arena = &self.mnodes;
        let found = self.munique.lookup(node.var, hash, |id| {
            let n = arena.get(id);
            (0..4).all(|i| {
                n.edges[i].node == node.edges[i].node && tol.key(n.edges[i].w) == weights[i]
            })
        });
        match found {
            Some(id) => {
                self.stats.unique_hits += 1;
                if id < self.mnodes.watermark() {
                    self.stats.snapshot_hits += 1;
                }
                id
            }
            None => {
                self.stats.unique_misses += 1;
                let [e, upper, lower, e11] = node.edges;
                let identity = is_exactly_one(e.w)
                    && is_exactly_one(e11.w)
                    && e.node == e11.node
                    && upper.is_zero(self.tol)
                    && lower.is_zero(self.tol)
                    && (e.node.is_terminal() || self.mnode(e.node).identity);
                let id = self.mnodes.alloc(MNode { identity, ..node });
                self.munique.insert(node.var, hash, id);
                id
            }
        }
    }

    // ------------------------------------------------------------------
    // external roots
    // ------------------------------------------------------------------

    /// Registers a vector edge as an external GC root.
    pub fn inc_ref(&mut self, e: VEdge) {
        if !e.node.is_terminal() {
            self.vnodes.inc_rc(e.node.0);
        }
    }

    /// Releases an external vector-edge root.
    ///
    /// # Panics
    ///
    /// Debug builds panic on reference-count underflow.
    pub fn dec_ref(&mut self, e: VEdge) {
        if !e.node.is_terminal() {
            self.vnodes.dec_rc(e.node.0);
        }
    }

    /// Registers a matrix edge as an external GC root.
    ///
    /// A frozen edge is pinned already; registering it makes its frozen
    /// nodes count as this package's own in
    /// [`Package::collectable_nodes`], as if it had built the edge.
    pub fn inc_ref_m(&mut self, e: MEdge) {
        if e.node.0 >= self.mnodes.watermark() {
            if !e.node.is_terminal() {
                self.mnodes.inc_rc(e.node.0);
            }
            return;
        }
        // Below a frozen node all nodes are frozen, and below a held one
        // all are held: an edge registered before allocates nothing.
        let (mut idx, mut stack) = (e.node.0, Vec::new());
        loop {
            if self.mnodes.hold(idx) {
                let children = self.mnodes.get(idx).edges.map(|c| c.node);
                stack.extend(children.iter().filter(|c| !c.is_terminal()).map(|c| c.0));
            }
            let Some(next) = stack.pop() else { return };
            idx = next;
        }
    }

    // ------------------------------------------------------------------
    // state construction / inspection
    // ------------------------------------------------------------------

    /// Builds the computational basis state `|idx⟩` on `n_qubits` qubits.
    /// Bit `v` of `idx` is the value of qubit `v`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 63` (use at most 63 so `idx` fits in `u64`)
    /// or if `idx >= 2^n_qubits`.
    #[must_use]
    pub fn basis_state(&mut self, n_qubits: usize, idx: u64) -> VEdge {
        assert!(n_qubits <= 63, "basis_state supports at most 63 qubits");
        assert!(
            n_qubits == 64 || idx < (1u64 << n_qubits),
            "basis index {idx} out of range for {n_qubits} qubits"
        );
        let mut e = VEdge::ONE;
        for v in 0..n_qubits {
            let bit = (idx >> v) & 1;
            e = if bit == 0 {
                self.make_vnode(v as u8, e, VEdge::ZERO)
            } else {
                self.make_vnode(v as u8, VEdge::ZERO, e)
            };
        }
        e
    }

    /// Builds the all-zeros state `|0…0⟩`.
    #[must_use]
    pub fn zero_state(&mut self, n_qubits: usize) -> VEdge {
        self.basis_state(n_qubits, 0)
    }

    /// Builds a vector DD from a dense amplitude slice of length `2^n`.
    /// The vector need not be normalized; the edge then carries the norm.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidAmplitudes`] if the length is not a power of two
    /// or zero, or if a component is NaN or infinite;
    /// [`DdError::TooManyQubits`] beyond 26 qubits.
    pub fn from_amplitudes(&mut self, amps: &[Cplx]) -> Result<VEdge> {
        if amps.is_empty() || !amps.len().is_power_of_two() {
            return Err(DdError::InvalidAmplitudes {
                reason: "length must be a non-zero power of two",
            });
        }
        if !amps.iter().all(|a| a.is_finite()) {
            return Err(DdError::InvalidAmplitudes {
                reason: "amplitudes must be finite",
            });
        }
        let n = amps.len().trailing_zeros() as usize;
        if n > MAX_DENSE_QUBITS {
            return Err(DdError::TooManyQubits {
                n_qubits: n,
                max: MAX_DENSE_QUBITS,
            });
        }
        Ok(self.build_dd_from_amps(amps, n))
    }

    fn build_dd_from_amps(&mut self, amps: &[Cplx], n: usize) -> VEdge {
        if n == 0 {
            let w = amps[0];
            return if self.tol.is_zero(w) {
                VEdge::ZERO
            } else {
                VEdge::terminal(w)
            };
        }
        let half = amps.len() / 2;
        let e0 = self.build_dd_from_amps(&amps[..half], n - 1);
        let e1 = self.build_dd_from_amps(&amps[half..], n - 1);
        self.make_vnode((n - 1) as u8, e0, e1)
    }

    /// Expands a vector DD into a dense amplitude vector of length
    /// `2^n_qubits`.
    ///
    /// # Errors
    ///
    /// [`DdError::TooManyQubits`] beyond 26 qubits;
    /// [`DdError::DimensionMismatch`] if the edge's level exceeds
    /// `n_qubits`.
    pub fn to_amplitudes(&self, e: VEdge, n_qubits: usize) -> Result<Vec<Cplx>> {
        if n_qubits > MAX_DENSE_QUBITS {
            return Err(DdError::TooManyQubits {
                n_qubits,
                max: MAX_DENSE_QUBITS,
            });
        }
        let level = self.vlevel(e);
        if level > n_qubits {
            return Err(DdError::DimensionMismatch {
                left: level,
                right: n_qubits,
            });
        }
        let mut out = vec![Cplx::ZERO; 1 << n_qubits];
        self.to_amps_rec(e, Cplx::ONE, 0, &mut out);
        Ok(out)
    }

    fn to_amps_rec(&self, e: VEdge, acc: Cplx, offset: usize, out: &mut [Cplx]) {
        if self.tol.is_zero(e.w) {
            return;
        }
        let acc = acc * e.w;
        if e.node.is_terminal() {
            out[offset] = acc;
            return;
        }
        let node = *self.vnode(e.node);
        let stride = 1usize << node.var;
        self.to_amps_rec(node.edges[0], acc, offset, out);
        self.to_amps_rec(node.edges[1], acc, offset + stride, out);
    }

    /// The amplitude of basis state `idx` in the state rooted at `e`
    /// (an `n_qubits`-level DD).
    #[must_use]
    pub fn amplitude(&self, e: VEdge, idx: u64) -> Cplx {
        let mut acc = e.w;
        let mut node = e.node;
        loop {
            if acc == Cplx::ZERO {
                return Cplx::ZERO;
            }
            if node.is_terminal() {
                return acc;
            }
            let n = self.vnode(node);
            let bit = ((idx >> n.var) & 1) as usize;
            let child = n.edges[bit];
            acc *= child.w;
            node = child.node;
        }
    }

    /// Number of non-terminal nodes reachable from a vector edge — the
    /// "DD size" that the memory-driven strategy thresholds on.
    #[must_use]
    pub fn vsize(&self, e: VEdge) -> usize {
        count_reachable(self.vnodes.capacity(), e.node, |id| {
            self.vnode(id).edges.map(|c| c.node)
        })
    }

    /// ℓ2 norm of the represented vector. With this crate's normalization
    /// the norm equals `|e.w|` exactly, but this method computes it from
    /// first principles (useful as a consistency check).
    #[must_use]
    pub fn norm(&mut self, e: VEdge) -> f64 {
        self.inner_product(e, e).re.max(0.0).sqrt()
    }

    // ------------------------------------------------------------------
    // compute-table plumbing
    // ------------------------------------------------------------------

    /// Canonicalizes an `add` weight ratio: returns its tolerance
    /// bucket plus the bucket's canonical representative (the first
    /// exact ratio seen in it) — what keeps compute-table hits
    /// bit-identical to recomputation. When a new bucket finds the table
    /// at its entry cap, the table resets and every memoized result goes
    /// with it (the rule and its reason live in [`crate::ratio`]).
    pub(crate) fn canonical_ratio(&mut self, ratio: Cplx) -> ((i64, i64), Cplx) {
        let (rk, canonical, reset) = self.ratio_canon.canonical(self.tol, ratio);
        if reset {
            self.ratio_resets += 1;
            self.clear_memoized();
        }
        (rk, canonical)
    }

    /// Drops every memoized operation result: the compute table and
    /// the `mul_mv` memo (after GC, and at a canonical-ratio reset).
    pub(crate) fn clear_memoized(&mut self) {
        self.ct.clear();
        self.mv_memo.clear();
    }
}

impl Default for Package {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_state_has_one_node_per_qubit() {
        let mut p = Package::new();
        for idx in 0..8u64 {
            let e = p.basis_state(3, idx);
            assert_eq!(p.vsize(e), 3);
            let amps = p.to_amplitudes(e, 3).unwrap();
            for (i, a) in amps.iter().enumerate() {
                if i as u64 == idx {
                    assert!((a.mag2() - 1.0).abs() < 1e-12);
                } else {
                    assert!(a.mag2() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn basis_states_are_shared() {
        let mut p = Package::new();
        let a = p.basis_state(4, 5);
        let b = p.basis_state(4, 5);
        assert_eq!(a.node, b.node, "identical states must share the root node");
    }

    #[test]
    fn from_to_amplitudes_roundtrip() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = vec![
            Cplx::new(0.5, 0.0),
            Cplx::new(0.0, 0.5),
            Cplx::new(-0.5, 0.0),
            Cplx::new(0.0, -0.5),
        ];
        let e = p.from_amplitudes(&amps).unwrap();
        let back = p.to_amplitudes(e, 2).unwrap();
        for (a, b) in amps.iter().zip(&back) {
            assert!((*a - *b).mag() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn from_amplitudes_rejects_bad_lengths() {
        let mut p = Package::new();
        assert!(matches!(
            p.from_amplitudes(&[]),
            Err(DdError::InvalidAmplitudes { .. })
        ));
        assert!(matches!(
            p.from_amplitudes(&[Cplx::ONE; 3]),
            Err(DdError::InvalidAmplitudes { .. })
        ));
    }

    #[test]
    fn uniform_superposition_is_maximally_compact() {
        let mut p = Package::new();
        let n = 6;
        let dim = 1usize << n;
        let amp = Cplx::real(1.0 / (dim as f64).sqrt());
        let amps = vec![amp; dim];
        let e = p.from_amplitudes(&amps).unwrap();
        // A uniform state has exactly one node per level.
        assert_eq!(p.vsize(e), n);
        assert!((e.w.mag() - 1.0).abs() < 1e-12, "unit norm on the root");
    }

    #[test]
    fn amplitude_walk_matches_dense() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = (0..16)
            .map(|i| Cplx::new(((i * 7) % 5) as f64 * 0.1, ((i * 3) % 4) as f64 * -0.05))
            .collect();
        let e = p.from_amplitudes(&amps).unwrap();
        for (i, want) in amps.iter().enumerate() {
            let got = p.amplitude(e, i as u64);
            assert!((got - *want).mag() < 1e-12);
        }
    }

    #[test]
    fn normalization_gives_unit_subtree_norm() {
        let mut p = Package::new();
        let amps = [
            Cplx::new(0.1, 0.2),
            Cplx::new(-0.3, 0.0),
            Cplx::new(0.0, 0.7),
            Cplx::new(0.5, -0.1),
        ];
        let e = p.from_amplitudes(&amps).unwrap();
        let total: f64 = amps.iter().map(|a| a.mag2()).sum();
        assert!(
            (e.w.mag2() - total).abs() < 1e-12,
            "root weight carries the norm"
        );
        // Every node weight pair has unit l2 norm.
        let root = p.vnode(e.node);
        let s = root.edges[0].w.mag2() + root.edges[1].w.mag2();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_collapses_to_zero_edge() {
        let mut p = Package::new();
        let e = p.from_amplitudes(&[Cplx::ZERO; 8]).unwrap();
        assert_eq!(e, VEdge::ZERO);
        assert_eq!(p.vsize(e), 0);
    }

    #[test]
    fn canonical_phase_pivot_is_real_positive() {
        let mut p = Package::new();
        // Same state up to a global phase must share the node.
        let amps1 = [Cplx::new(0.6, 0.0), Cplx::new(0.8, 0.0)];
        let phase = Cplx::from_polar(1.0, 1.234);
        let amps2 = [amps1[0] * phase, amps1[1] * phase];
        let e1 = p.from_amplitudes(&amps1).unwrap();
        let e2 = p.from_amplitudes(&amps2).unwrap();
        assert_eq!(
            e1.node, e2.node,
            "global phase must land on the edge weight"
        );
    }

    #[test]
    fn ratio_canon_cap_reset_clears_every_compute_cache() {
        // When the canonical-ratio table resets, *all* memoized results
        // must drop: they embed add results and therefore canonical-ratio
        // bits, so a surviving entry could disagree with a post-reset
        // recomputation.
        let mut p = Package::new();
        let first = Cplx::new(0.25, 0.0);
        let near = Cplx::new(0.25 + 1e-14, 0.0);
        assert_eq!(p.canonical_ratio(first).1, first);
        assert_eq!(p.canonical_ratio(near).1, first, "first write wins");
        // One distinct bucket per call, up to the cap.
        for i in 1..crate::ratio::RATIO_CANON_CAP {
            #[allow(clippy::cast_precision_loss)]
            let _ = p.canonical_ratio(Cplx::new(0.5, i as f64 * 1e-6));
        }
        p.mv_memo.insert((1, 2), VEdge::ONE);
        p.ct.insert((3, 4, 5, 6), VEdge::ONE);
        // A bucket the full table holds is answered, and resets nothing.
        assert_eq!(p.canonical_ratio(near).1, first, "held bucket");
        assert_eq!(p.ratio_resets, 0);
        assert_eq!(p.ct.lookup(&(3, 4, 5, 6)), Some(VEdge::ONE));
        // The first new bucket at the cap resets the table first.
        let fresh = Cplx::new(0.75, 0.0);
        assert_eq!(p.canonical_ratio(fresh).1, fresh);
        assert_eq!(p.ratio_resets, 1);
        assert_eq!(p.canonical_ratio(near).1, near, "table was reset");
        assert!(p.mv_memo.is_empty(), "the mul_mv memo must clear");
        assert_eq!(p.ct.lookup(&(3, 4, 5, 6)), None, "add must clear");
    }

    /// The amplitude bits of a 7-qubit circuit of 60 random H / T / Sx /
    /// Sy / CX gates (an LCG seeded with `seed`), run with `2^cache_bits`
    /// compute-cache slots and a private canonical-ratio tier capped at
    /// `cap` entries; and the resets it went through.
    fn random_run(seed: u64, cap: usize, cache_bits: u32) -> (Vec<(u64, u64)>, u64) {
        use crate::ratio::RatioCanon;
        use crate::GateKind;
        const N: usize = 7;
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |below: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % below
        };
        let mut p = Package {
            ratio_canon: RatioCanon::new().with_cap(cap),
            ..Package::with_config(Tolerance::default(), Some(cache_bits))
        };
        let mut v = p.zero_state(N);
        for _ in 0..60 {
            let target = next(N);
            let kinds = [GateKind::H, GateKind::T, GateKind::Sx, GateKind::Sy];
            let gate = match next(5) {
                4 => {
                    let control = (target + 1 + next(N - 1)) % N;
                    p.controlled_gate(N, &[control], target, GateKind::X.matrix())
                }
                k => p.single_gate(N, target, kinds[k].matrix()),
            };
            v = p.apply(gate.unwrap(), v);
        }
        let amplitudes = p.to_amplitudes(v, N).unwrap();
        let bits = amplitudes
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect();
        (bits, p.ratio_resets)
    }

    #[test]
    fn results_do_not_depend_on_cache_size_across_ratio_resets() {
        // A smaller cache recomputes more. That used to move a reset
        // (one of its extra calls could be the first past the cap) and
        // to let a result computed across a reset be memoized; either
        // made 2-bit and 16-bit caches disagree on about one run in ten.
        let mut differing = Vec::new();
        let mut resets = 0;
        for seed in 0..50 {
            for cap in [3, 7, 20, 64] {
                let (small, crossed) = random_run(seed, cap, 2);
                let (large, _) = random_run(seed, cap, 16);
                resets += crossed;
                if small != large {
                    differing.push((seed, cap));
                }
            }
        }
        assert!(resets > 0, "no run crossed a reset");
        assert!(
            differing.is_empty(),
            "{} of 200 (seed, cap) runs depend on cache size: {differing:?}",
            differing.len()
        );
    }

    #[test]
    fn stats_report_alive_nodes() {
        let mut p = Package::new();
        let _ = p.basis_state(5, 17);
        let s = p.stats();
        assert_eq!(s.vnodes_alive, 5);
        assert!(s.unique_misses >= 5);
    }
}
