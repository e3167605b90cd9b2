//! Decision-diagram arithmetic: addition, matrix–vector and
//! matrix–matrix multiplication, inner products, Kronecker products and
//! conjugate transposition.
//!
//! `add` is memoized in the package's compute table; `mul_mv`,
//! `mul_mm` and `inner_product` in memos that live for one call. Top
//! edge weights are factored out of the keys wherever the operation is
//! multilinear, which maximizes hit rates (the standard QMDD trick).
//!
//! # The per-call memos
//!
//! `mul_mv` has no compute table because a global one would be a
//! per-call visited set: counted on the benchmark's own instances, of
//! the 59 742 `mul_mv` lookups of a memory-driven supremacy item 2 103
//! hit, and only 5.5 of those hit an entry an earlier `apply` wrote
//! (4 225 of 723 090 lookups on a fidelity-driven Shor pair). So `apply`
//! empties a package-owned hash map and the recursion probes and fills
//! that, under the key `(m.node, v.node)`, after the early-outs and with
//! the hit expression a table would use. It costs memory in proportion
//! to one call's work instead of 2.5 MiB per package and per pool
//! thread, and it changes only which calls hit and which recompute,
//! which the "hit ≡ recompute" contract makes unobservable (the tests
//! below hold it to a memo-less recursion). It is emptied with the
//! compute table, too: at GC and at a canonical-ratio reset.
//!
//! Emptying a hash map keeps its buckets, so a memo that one large
//! `apply` grew stayed that large through every later call — about
//! 1 MiB through the peak steps of a Table I Shor run. `apply`
//! therefore drops a memo whose capacity went past [`MV_MEMO_FLOOR`]
//! entries once it returns, and the next call that needs more grows a
//! fresh one. Below the floor, where most gates of a small state stay,
//! the map is kept, so they do not allocate on every call. This
//! decides only which calls allocate, never which lookups hit.
//!
//! `mul_mm` and `inner_product` have one-shot callers only (the gate
//! builders' `U · U† = I` oracle, `Package::norm`, a fidelity between
//! two results), so each public call builds a map keyed like the memo,
//! `(a.node, b.node)`, and threads it through a private recursion — the
//! idiom of `vkron` and `conj_transpose`. Neither ever interns a
//! canonical ratio (only `add` does) and no GC runs inside a call, so
//! such a memo needs no clearing hook.
//!
//! The two memoizing operations that can meet a canonical-ratio reset
//! mid-call — `add`'s table and the `mul_mv` memo — read
//! `Package::ratio_resets` before they recurse and memoize a result only
//! if no reset happened meanwhile: a result that straddles a reset holds
//! pre-reset canonical ratios, which a post-reset recomputation would
//! not reproduce (see [`crate::ratio`]).
//!
//! # The terminal-level rule
//!
//! A node on level 0 ([`at_terminal_level`]) has only terminal
//! successors, so an operation on it bottoms out one call down: a few
//! complex multiplications and additions and one node construction.
//! That is cheaper than hashing a key, probing a slot and writing the
//! result back — and a third of all lookups used to be spent there, each
//! insert evicting an entry from a level where recomputation is
//! expensive. So `add`, `mul_mv`, `mul_mm` and `inner_product` never
//! consult the compute table (or a memo) for level-0 operands: they run
//! the miss path directly and skip the insert.
//!
//! This cannot change a result. The miss path is the same code, hence
//! the same float operations in the same order; `add` still interns its
//! weight ratio first, so the canonical-ratio table — which *is* part of
//! the result — sees the same sequence of ratios and resets at the same
//! moments; and the table only ever differs by entries a lookup could
//! have lost to eviction anyway, which the "hit ≡ recompute" contract
//! (see the crate docs and the workspace's `tests/determinism.rs`)
//! already makes unobservable.
//!
//! # The identity rule
//!
//! Below a gate's target the operator DD is the identity, and `mul_mv`
//! used to walk the whole state sub-diagram under it only to rebuild
//! every node as it was. It cannot simply return the operand instead:
//! `make_vnode` re-normalising an already normalised weight pair takes
//! out a factor `1 ± a few ulps` for many pairs, and those ulps are part
//! of the result (returning the operand under weight 1 is a measured
//! negative result, see ARCHITECTURE.md). But ulps are 10⁻¹⁶ and the
//! unique table's tolerance buckets 10⁻¹² wide, so the recursion almost
//! never builds a *different* node: it finds the very same node under
//! that factor — and the factor is decidable when the node is built. So
//! every node carries one small piece of structure, set where it is
//! interned (`Package::intern_vnode` / `intern_mnode`) and never written
//! again:
//!
//! * `MNode::identity`, a bit — quadrants `[e, 0, 0, e]` where `e` has
//!   weight bits `1 + 0i` and is the terminal or an identity node itself;
//! * `VSide::image`, a byte — the node's image under the identity: the
//!   factor `f` for which `mul_mv(I, ·)` on this node returns
//!   `(f, this node)`, stored as the signed ulp distance of `f` from
//!   `1.0`, or "none". It is found by taking the node's own stored edges
//!   through exactly what this recursion would hand `make_vnode` — a
//!   terminal successor's weight times `ONE`, a successor's own image
//!   scaled by `ONE ·` its weight, tolerance-zero weights dropped to the
//!   zero stub — and running the same `normalize` the recursion runs, so
//!   the definition cannot drift from it. The factor is recorded iff the
//!   result has the same successor ids and the same weight *keys* as the
//!   stored weights (the unique table would answer with this very node),
//!   and the factor has an encoding: imaginary part `+0.0`, real part
//!   within ±127 ulps of 1.
//!
//! The factor is real because the stored pivot is: `normalize` stores
//! the first non-zero weight as `Cplx::real(·)`, positive, and every
//! image beneath is real by induction, so the pivot fed back in has
//! imaginary part `+0.0`, its `phase()` is `(1, 0)`, and the factor is
//! the norm alone. A node has *no* image when a successor has none;
//! when a re-normalised weight lands in the neighbouring bucket — then
//! the unique table answers (or allocates) another node, and only the
//! recursion knows which; or when the factor is NaN, infinite, or
//! otherwise unencodable. That is about one node in a thousand on the
//! Table I circuits, and those take the recursion, which stays the one
//! general path.
//!
//! For an identity node `m` and a node `v` with image `f` the recursion
//! is therefore known in advance to return `(f, v)`, and `mul_mv`
//! returns `VEdge { w: f, node: v }.scaled(m.w · v.w)` — the very
//! expression its hit path evaluates on the memoized result — in O(1).
//! "Skip ≡ recompute" joins "hit ≡ recompute" as a tested contract (the
//! tests below keep the rule-less `mul_mv` as the reference).
//!
//! What the skipped recursion would have done besides: unique-table
//! *hits* (a counter, and no allocation — every `make_vnode` in it lands
//! on the node it started from — so arena populations, slot reuse and
//! the collection trigger cannot move, pinned by
//! `tests/allocation_trajectory.rs`); memo traffic (unobservable by
//! the hit contract); and no `canonical_ratio` call at
//! all, because under an identity every `add` has a zero operand and
//! returns before it forms a ratio — so the canonical-ratio table sees
//! the same sequence either way. The identity bit lives in the padding
//! beside `MNode::var`, the image beside the level in the vector slot's
//! side word; a fork copies both as-is, and a recycled slot gets its
//! new node's. An image is a property of
//! the stored bits, not of the state: |+⟩ fresh out of an H gate stores
//! `0.7071067811865475`, which re-normalises to `1 − ulp`, and carries
//! that; the same column after a T gate stores `0.7071067811865476` and
//! carries `1`.
//!
//! The image has a second reader: a truncation round's rebuild
//! ([`crate::approx`], "What a round touches"). A node with no removal
//! or cut anywhere below it is re-made there from its successors'
//! images under its own weights, which is what the image was computed
//! from up to the sign of a zero, so the rebuild returns
//! `(image factor, node)` and skips the same unique-table hit for the
//! same reason.

use approxdd_complex::Cplx;

use crate::edge::{MEdge, NodeId, VEdge};
use crate::fasthash::FxHashMap;
use crate::package::Package;

/// Entries of `mul_mv`'s memo whose storage outlives the `apply` that
/// filled them: a memo that grew past this is dropped, not emptied
/// (module docs, "The per-call memos").
const MV_MEMO_FLOOR: usize = 4096;

/// Whether a node on level `var` sits directly above the terminal
/// (see the module docs on the terminal-level rule).
#[inline]
fn at_terminal_level(var: u8) -> bool {
    var == 0
}

impl Package {
    // ------------------------------------------------------------------
    // addition
    // ------------------------------------------------------------------

    /// Adds two state DDs of the same level: `|r⟩ = |a⟩ + |b⟩`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands' levels differ (zero stubs are
    /// level-agnostic and always fine).
    #[must_use]
    pub fn add(&mut self, a: VEdge, b: VEdge) -> VEdge {
        if a.is_zero(self.tolerance()) {
            return b;
        }
        if b.is_zero(self.tolerance()) {
            return a;
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            let w = a.w + b.w;
            return if self.tolerance().is_zero(w) {
                VEdge::ZERO
            } else {
                VEdge::terminal(w)
            };
        }
        debug_assert_eq!(self.vlevel(a), self.vlevel(b), "add level mismatch");

        // Same node: amplitudes are proportional, just add the weights.
        if a.node == b.node {
            let w = a.w + b.w;
            return if self.tolerance().is_zero(w) {
                VEdge::ZERO
            } else {
                VEdge { w, node: a.node }
            };
        }

        // Canonical operand order for the symmetric cache: larger weight
        // magnitude first (numerical stability of the ratio), ties broken
        // by node id.
        let (a, b) = if (a.w.mag2(), a.node.0) >= (b.w.mag2(), b.node.0) {
            (a, b)
        } else {
            (b, a)
        };
        // The ratio is interned through the package's canonicalization
        // map (tolerance bucket → first exact ratio seen), and both the
        // cache key and the recursion use the canonical value. That is
        // what makes the lossy cache both *effective* and *sound*:
        // near-equal ratios — low-order float noise from different
        // computation paths, the overwhelmingly common repeat — share
        // one key and one recursion input, so they hit; and because
        // the canonical ratio is a stable pure function of the
        // operation sequence (never influenced by compute-cache state),
        // a hit returns bit-for-bit what recomputation would produce,
        // keeping results independent of cache size and eviction
        // history. (Keying the exact ratio bits instead was measured
        // at a ~100× lower add hit rate — near-equal ratios almost
        // never repeat exactly; keying a quantized ratio while
        // recursing on the exact one — the pre-lossy design — made
        // result bits depend on which ratio populated the entry
        // first.) The result is independent of `a.w` — it is
        // `A + ratio·B` over the two unit-normalized node functions —
        // so the top weight stays out of the key (the standard QMDD
        // multilinearity trick).
        let (rk, ratio, position) = self.canonical_ratio(b.w / a.w);
        #[allow(clippy::cast_sign_loss)]
        let key = (a.node.0, b.node.0, rk.0 as u64, rk.1 as u64);
        let var = self.vside(a.node).var();
        let memoized = !at_terminal_level(var);
        if memoized {
            if let Some(cached) = self.ct.lookup(&key, position) {
                return cached.scaled(a.w);
            }
        }

        let resets = self.ratio_resets;
        let [a0, a1] = self.vnode(a.node).edges();
        let [b0, b1] = self.vnode(b.node).edges();
        let r0 = self.add(a0, b0.scaled(ratio));
        let r1 = self.add(a1, b1.scaled(ratio));
        let res = self.make_vnode(var, r0, r1);
        if memoized && self.ratio_resets == resets {
            self.ct.insert(key, position, res);
        }
        res.scaled(a.w)
    }

    // ------------------------------------------------------------------
    // matrix–vector multiplication (gate application)
    // ------------------------------------------------------------------

    /// Applies an operation DD to a state DD: `|r⟩ = M · |v⟩`.
    ///
    /// This is the simulation step of Section II/IV-A: one call per gate.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operands' levels differ.
    #[must_use]
    pub fn apply(&mut self, m: MEdge, v: VEdge) -> VEdge {
        self.mv_memo.clear();
        let res = self.mul_mv(m, v);
        if self.mv_memo.capacity() > MV_MEMO_FLOOR {
            self.mv_memo = FxHashMap::default();
        }
        res
    }

    /// Matrix–vector product (see [`Package::apply`]).
    #[must_use]
    pub(crate) fn mul_mv(&mut self, m: MEdge, v: VEdge) -> VEdge {
        if m.is_zero(self.tolerance()) || v.is_zero(self.tolerance()) {
            return VEdge::ZERO;
        }
        if m.node.is_terminal() && v.node.is_terminal() {
            return VEdge::terminal(m.w * v.w);
        }
        debug_assert_eq!(self.mlevel(m), self.vlevel(v), "mul level mismatch");

        // The identity rule (module docs). The image first: it shares the
        // side word the terminal-level test below reads anyway.
        let side = self.vside(v.node);
        if let Some(f) = side.image().factor() {
            if self.mnode(m.node).identity {
                self.stats.identity_skips += 1;
                return VEdge { w: f, node: v.node }.scaled(m.w * v.w);
            }
        }

        let key = (m.node.0, v.node.0);
        let memoized = !at_terminal_level(side.var());
        if memoized {
            if let Some(cached) = self.mv_memo.get(&key) {
                return cached.scaled(m.w * v.w);
            }
        }

        let resets = self.ratio_resets;
        let mn = *self.mnode(m.node);
        let [v0, v1] = self.vnode(v.node).edges();
        // r0 = M00·v0 + M01·v1 ; r1 = M10·v0 + M11·v1
        let p00 = self.mul_mv(mn.edges[0], v0);
        let p01 = self.mul_mv(mn.edges[1], v1);
        let r0 = self.add(p00, p01);
        let p10 = self.mul_mv(mn.edges[2], v0);
        let p11 = self.mul_mv(mn.edges[3], v1);
        let r1 = self.add(p10, p11);
        let res = self.make_vnode(mn.var, r0, r1);
        if memoized && self.ratio_resets == resets {
            self.mv_memo.insert(key, res);
        }
        res.scaled(m.w * v.w)
    }

    // ------------------------------------------------------------------
    // matrix–matrix multiplication
    // ------------------------------------------------------------------

    /// Matrix–matrix product `A · B` (apply `B` first, then `A`).
    ///
    /// The gate-fusion primitive of Zulehner & Wille, DATE 2019
    /// ("matrix-vector vs. matrix-matrix multiplication"), which the
    /// paper's Shor benchmarks build on; here it is the test suite's
    /// `U · U† = I` oracle for the gate builders.
    #[must_use]
    pub fn mul_mm(&mut self, a: MEdge, b: MEdge) -> MEdge {
        self.mul_mm_rec(a, b, &mut FxHashMap::default())
    }

    fn mul_mm_rec(&mut self, a: MEdge, b: MEdge, memo: &mut FxHashMap<(u32, u32), MEdge>) -> MEdge {
        if a.is_zero(self.tolerance()) || b.is_zero(self.tolerance()) {
            return MEdge::ZERO;
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            return MEdge::terminal(a.w * b.w);
        }
        debug_assert_eq!(self.mlevel(a), self.mlevel(b), "mul_mm level mismatch");

        let key = (a.node.0, b.node.0);
        let memoized = !at_terminal_level(self.mnode(a.node).var);
        if memoized {
            if let Some(cached) = memo.get(&key) {
                return cached.scaled(a.w * b.w);
            }
        }

        let an = *self.mnode(a.node);
        let bn = *self.mnode(b.node);
        let mut quads = [MEdge::ZERO; 4];
        for (i, q) in quads.iter_mut().enumerate() {
            let row = i >> 1;
            let col = i & 1;
            // C[row][col] = sum_k A[row][k] * B[k][col]
            let t0 = self.mul_mm_rec(an.edges[row << 1], bn.edges[col], memo);
            let t1 = self.mul_mm_rec(an.edges[(row << 1) | 1], bn.edges[(1 << 1) | col], memo);
            *q = self.madd(t0, t1);
        }
        let res = self.make_mnode(an.var, quads);
        if memoized {
            memo.insert(key, res);
        }
        res.scaled(a.w * b.w)
    }

    /// Adds two matrix DDs of the same level (no dedicated cache: used
    /// only inside matrix–matrix multiplication and tests).
    #[must_use]
    pub(crate) fn madd(&mut self, a: MEdge, b: MEdge) -> MEdge {
        if a.is_zero(self.tolerance()) {
            return b;
        }
        if b.is_zero(self.tolerance()) {
            return a;
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            let w = a.w + b.w;
            return if self.tolerance().is_zero(w) {
                MEdge::ZERO
            } else {
                MEdge::terminal(w)
            };
        }
        debug_assert_eq!(self.mlevel(a), self.mlevel(b), "madd level mismatch");
        if a.node == b.node {
            let w = a.w + b.w;
            return if self.tolerance().is_zero(w) {
                MEdge::ZERO
            } else {
                MEdge { w, node: a.node }
            };
        }
        let an = *self.mnode(a.node);
        let bn = *self.mnode(b.node);
        let mut quads = [MEdge::ZERO; 4];
        for (i, quad) in quads.iter_mut().enumerate() {
            *quad = self.madd(an.edges[i].scaled(a.w), bn.edges[i].scaled(b.w));
        }
        self.make_mnode(an.var, quads)
    }

    // ------------------------------------------------------------------
    // inner products & fidelity
    // ------------------------------------------------------------------

    /// The Hermitian inner product `⟨a|b⟩ = Σ_i conj(a_i) · b_i`.
    #[must_use]
    pub fn inner_product(&mut self, a: VEdge, b: VEdge) -> Cplx {
        self.inner_product_rec(a, b, &mut FxHashMap::default())
    }

    fn inner_product_rec(
        &self,
        a: VEdge,
        b: VEdge,
        memo: &mut FxHashMap<(u32, u32), Cplx>,
    ) -> Cplx {
        if a.is_zero(self.tolerance()) || b.is_zero(self.tolerance()) {
            return Cplx::ZERO;
        }
        if a.node.is_terminal() && b.node.is_terminal() {
            return a.w.conj() * b.w;
        }
        debug_assert_eq!(self.vlevel(a), self.vlevel(b), "inner level mismatch");

        let key = (a.node.0, b.node.0);
        let memoized = !at_terminal_level(self.vside(a.node).var());
        if memoized {
            if let Some(&cached) = memo.get(&key) {
                return a.w.conj() * b.w * cached;
            }
        }

        let [a0, a1] = self.vnode(a.node).edges();
        let [b0, b1] = self.vnode(b.node).edges();
        let i0 = self.inner_product_rec(a0, b0, memo);
        let i1 = self.inner_product_rec(a1, b1, memo);
        let sum = i0 + i1;
        if memoized {
            memo.insert(key, sum);
        }
        a.w.conj() * b.w * sum
    }

    /// Fidelity `F(a, b) = |⟨a|b⟩|²` between two pure states
    /// (Definition 1 of the paper).
    #[must_use]
    pub fn fidelity(&mut self, a: VEdge, b: VEdge) -> f64 {
        self.inner_product(a, b).mag2()
    }

    // ------------------------------------------------------------------
    // Kronecker products
    // ------------------------------------------------------------------

    /// Kronecker product of two state DDs: `top ⊗ bottom`, with `bottom`
    /// occupying the low qubits. The result's level is the sum of the
    /// operands' levels.
    #[must_use]
    pub fn vkron(&mut self, top: VEdge, bottom: VEdge) -> VEdge {
        if top.is_zero(self.tolerance()) || bottom.is_zero(self.tolerance()) {
            return VEdge::ZERO;
        }
        let shift = self.vlevel(bottom) as u8;
        let mut memo: FxHashMap<NodeId, VEdge> = FxHashMap::default();
        let rebuilt = self.vkron_rec(top.node, bottom, shift, &mut memo);
        rebuilt.scaled(top.w)
    }

    fn vkron_rec(
        &mut self,
        node: NodeId,
        bottom: VEdge,
        shift: u8,
        memo: &mut FxHashMap<NodeId, VEdge>,
    ) -> VEdge {
        if node.is_terminal() {
            return bottom;
        }
        if let Some(&e) = memo.get(&node) {
            return e;
        }
        let mut children = [VEdge::ZERO; 2];
        for (i, c) in self.vnode(node).edges().iter().enumerate() {
            if c.is_zero(self.tolerance()) {
                continue;
            }
            let sub = self.vkron_rec(c.node, bottom, shift, memo);
            children[i] = sub.scaled(c.w);
        }
        let e = self.make_vnode(self.vside(node).var() + shift, children[0], children[1]);
        memo.insert(node, e);
        e
    }

    // ------------------------------------------------------------------
    // conjugate transpose
    // ------------------------------------------------------------------

    /// Conjugate transpose `M†` of an operation DD. `U · U† = I` for a
    /// unitary `U`, which the test-suite uses as a gate-builder oracle.
    #[must_use]
    pub fn conj_transpose(&mut self, m: MEdge) -> MEdge {
        let mut memo: FxHashMap<NodeId, MEdge> = FxHashMap::default();
        let rebuilt = self.conj_transpose_rec(m.node, &mut memo);
        rebuilt.scaled(m.w.conj())
    }

    fn conj_transpose_rec(&mut self, node: NodeId, memo: &mut FxHashMap<NodeId, MEdge>) -> MEdge {
        if node.is_terminal() {
            return MEdge::ONE;
        }
        if let Some(&e) = memo.get(&node) {
            return e;
        }
        let n = *self.mnode(node);
        // Transpose swaps the off-diagonal quadrants; conjugation applies
        // to every weight.
        let order = [0usize, 2, 1, 3];
        let mut children = [MEdge::ZERO; 4];
        for (i, &src) in order.iter().enumerate() {
            let c = n.edges[src];
            if c.is_zero(self.tolerance()) {
                continue;
            }
            let sub = self.conj_transpose_rec(c.node, memo);
            children[i] = sub.scaled(c.w.conj());
        }
        let e = self.make_mnode(n.var, children);
        memo.insert(node, e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateKind;
    use crate::node::{Image, MNode};
    use crate::package::PackageStats;
    use crate::ratio::RatioCanon;
    use proptest::prelude::*;

    fn close(a: Cplx, b: Cplx) -> bool {
        (a - b).mag() < 1e-10
    }

    /// A reference recursion's memo, keyed by the canonical-ratio reset
    /// count as well, so that no entry outlives a reset.
    type ReferenceMemo = FxHashMap<(u32, u32, u64), VEdge>;

    impl Package {
        /// `mul_mv` as it stood before the identity rule, kept as the
        /// reference the rule is tested against: the same early-outs,
        /// the same recursion, a memo of its own, and no look at the
        /// identity bit or the image.
        fn mul_mv_recursing(&mut self, m: MEdge, v: VEdge) -> VEdge {
            self.mul_mv_reference(m, v, false, Some(&mut ReferenceMemo::default()))
        }

        /// `mul_mv` with the identity rule and without any memo: the
        /// reference the per-call memo is tested against.
        fn mul_mv_unmemoized(&mut self, m: MEdge, v: VEdge) -> VEdge {
            self.mul_mv_reference(m, v, true, None)
        }

        /// `mul_mv`'s early-outs and recursion, taking the identity rule
        /// iff `rule` and memoizing iff there is a `memo`.
        fn mul_mv_reference(
            &mut self,
            m: MEdge,
            v: VEdge,
            rule: bool,
            mut memo: Option<&mut ReferenceMemo>,
        ) -> VEdge {
            if m.is_zero(self.tolerance()) || v.is_zero(self.tolerance()) {
                return VEdge::ZERO;
            }
            if m.node.is_terminal() && v.node.is_terminal() {
                return VEdge::terminal(m.w * v.w);
            }
            debug_assert_eq!(self.mlevel(m), self.vlevel(v), "mul level mismatch");

            if let Some(f) = self.vside(v.node).image().factor().filter(|_| rule) {
                if self.mnode(m.node).identity {
                    self.stats.identity_skips += 1;
                    return VEdge { w: f, node: v.node }.scaled(m.w * v.w);
                }
            }

            let key = (m.node.0, v.node.0, self.ratio_resets);
            let memoized = memo.is_some() && !at_terminal_level(self.vside(v.node).var());
            if memoized {
                if let Some(cached) = memo.as_ref().and_then(|memo| memo.get(&key)) {
                    return cached.scaled(m.w * v.w);
                }
            }

            let mn = *self.mnode(m.node);
            let vn = *self.vnode(v.node);
            let mut mul = |p: &mut Self, q: usize, i: usize| {
                p.mul_mv_reference(mn.edges[q], vn.edges()[i], rule, memo.as_deref_mut())
            };
            let p00 = mul(self, 0, 0);
            let p01 = mul(self, 1, 1);
            let r0 = self.add(p00, p01);
            let p10 = mul(self, 2, 0);
            let p11 = mul(self, 3, 1);
            let r1 = self.add(p10, p11);
            let res = self.make_vnode(mn.var, r0, r1);
            if let Some(memo) = memo.filter(|_| memoized && self.ratio_resets == key.2) {
                memo.insert(key, res);
            }
            res.scaled(m.w * v.w)
        }

        /// `mul_mm`'s early-outs and recursion without a memo: the
        /// reference its per-call memo is tested against.
        fn mul_mm_unmemoized(&mut self, a: MEdge, b: MEdge) -> MEdge {
            if a.is_zero(self.tolerance()) || b.is_zero(self.tolerance()) {
                return MEdge::ZERO;
            }
            if a.node.is_terminal() && b.node.is_terminal() {
                return MEdge::terminal(a.w * b.w);
            }
            let an = *self.mnode(a.node);
            let bn = *self.mnode(b.node);
            let mut quads = [MEdge::ZERO; 4];
            for (i, q) in quads.iter_mut().enumerate() {
                let (row, col) = (i >> 1, i & 1);
                let t0 = self.mul_mm_unmemoized(an.edges[row << 1], bn.edges[col]);
                let t1 = self.mul_mm_unmemoized(an.edges[(row << 1) | 1], bn.edges[2 | col]);
                *q = self.madd(t0, t1);
            }
            self.make_mnode(an.var, quads).scaled(a.w * b.w)
        }

        /// `inner_product`'s early-outs and recursion without a memo.
        fn inner_product_unmemoized(&mut self, a: VEdge, b: VEdge) -> Cplx {
            if a.is_zero(self.tolerance()) || b.is_zero(self.tolerance()) {
                return Cplx::ZERO;
            }
            if a.node.is_terminal() && b.node.is_terminal() {
                return a.w.conj() * b.w;
            }
            let an = *self.vnode(a.node);
            let bn = *self.vnode(b.node);
            let i0 = self.inner_product_unmemoized(an.edges()[0], bn.edges()[0]);
            let i1 = self.inner_product_unmemoized(an.edges()[1], bn.edges()[1]);
            a.w.conj() * b.w * (i0 + i1)
        }

        /// The distinct non-terminal nodes under a state edge.
        fn reachable_vnodes(&self, root: VEdge) -> Vec<NodeId> {
            self.contributions(root).iter().map(|(id, _)| id).collect()
        }

        /// `(at 0 ulps, with an image, reachable)` node counts under a
        /// state edge.
        fn image_census(&self, root: VEdge) -> (usize, usize, usize) {
            let nodes = self.reachable_vnodes(root);
            let ulps = |&id: &NodeId| self.vside(id).image().ulps();
            let at_one = nodes.iter().filter(|id| ulps(id) == Some(0)).count();
            let imaged = nodes.iter().filter_map(ulps).count();
            (at_one, imaged, nodes.len())
        }
    }

    /// One of the two multiplications a history runs through.
    type Mul = fn(&mut Package, MEdge, VEdge) -> VEdge;

    /// What the identity rule must leave alone, read after a gate.
    #[derive(Debug, PartialEq)]
    struct Observed {
        node: NodeId,
        weight: (u64, u64),
        /// Amplitude bits, up to 12 qubits (empty beyond).
        amplitudes: Vec<(u64, u64)>,
        vnodes_alive: usize,
        unique_misses: u64,
        /// The canonical-ratio table: entry count, entries and slots.
        ratios: String,
    }

    fn observe(p: &Package, e: VEdge, n: usize) -> Observed {
        let bits = |w: Cplx| (w.re.to_bits(), w.im.to_bits());
        let amplitudes = if n <= 12 {
            let dense = p.to_amplitudes(e, n).unwrap();
            dense.into_iter().map(bits).collect()
        } else {
            Vec::new()
        };
        Observed {
            node: e.node,
            weight: bits(e.w),
            amplitudes,
            vnodes_alive: p.vnodes.alive_count(),
            unique_misses: p.stats().unique_misses,
            ratios: format!("{:?}", p.ratio_canon),
        }
    }

    /// H, T and CX on every target, each applied to the result of the
    /// one before and observed.
    fn sweep(p: &mut Package, mul: Mul, n: usize, mut state: VEdge, log: &mut Vec<Observed>) {
        for q in 0..n {
            let h = p.single_gate(n, q, GateKind::H.matrix()).unwrap();
            let t = p.single_gate(n, q, GateKind::T.matrix()).unwrap();
            let cx = p
                .controlled_gate(n, &[q], (q + 1) % n, GateKind::X.matrix())
                .unwrap();
            for g in [h, t, cx] {
                state = mul(p, g, state);
                log.push(observe(p, state, n));
            }
        }
    }

    /// Runs one history twice — multiplying by the rule and by the
    /// reference, each in packages of its own — and requires the same
    /// observations after every gate. Returns the statistics of the
    /// package that followed the rule.
    fn assert_rule_is_unobservable(
        history: impl Fn(Mul, &mut Vec<Observed>) -> PackageStats,
    ) -> PackageStats {
        let (stats, reference) =
            assert_same_observations(Package::mul_mv, Package::mul_mv_recursing, history);
        assert_eq!(reference.identity_skips, 0);
        stats
    }

    /// Runs one history through `ours` and through `reference`, each in
    /// packages of its own, and requires the same observations after
    /// every gate. Returns both packages' statistics.
    fn assert_same_observations(
        ours: Mul,
        reference: Mul,
        history: impl Fn(Mul, &mut Vec<Observed>) -> PackageStats,
    ) -> (PackageStats, PackageStats) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let stats = history(ours, &mut got);
        let reference = history(reference, &mut want);
        assert_eq!(got.len(), want.len());
        for (gate, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a, b, "after gate {gate}");
        }
        assert!(!got.is_empty());
        (stats, reference)
    }

    /// Runs one history through [`Package::apply`] and through the
    /// memo-less recursion; returns the statistics of the former.
    fn assert_memo_is_unobservable(
        history: impl Fn(Mul, &mut Vec<Observed>) -> PackageStats,
    ) -> PackageStats {
        assert_same_observations(Package::apply, Package::mul_mv_unmemoized, history).0
    }

    /// What a per-call memo must leave alone, read after a product: the
    /// result's node (none for an inner product) and weight bits, and
    /// the matrix arena's population.
    #[derive(Debug, PartialEq)]
    struct Product {
        node: Option<NodeId>,
        bits: (u64, u64),
        mnodes_alive: usize,
    }

    impl Product {
        fn of(p: &Package, node: Option<NodeId>, w: Cplx) -> Self {
            let (bits, mnodes_alive) = ((w.re.to_bits(), w.im.to_bits()), p.mnodes.alive_count());
            Self {
                node,
                bits,
                mnodes_alive,
            }
        }
    }

    /// H and T on every qubit of `n`, and a CX ladder.
    fn gates(p: &mut Package, n: usize) -> Vec<MEdge> {
        let mut gates = Vec::new();
        for q in 0..n {
            gates.push(p.single_gate(n, q, GateKind::H.matrix()).unwrap());
            gates.push(p.single_gate(n, q, GateKind::T.matrix()).unwrap());
            let cx = p.controlled_gate(n, &[q], (q + 1) % n, GateKind::X.matrix());
            gates.push(cx.unwrap());
        }
        gates
    }

    /// |0…0⟩, |+…+⟩, the same after a T layer, and |GHZ_n⟩: states
    /// whose nodes repeat, so an inner product meets the same node pair
    /// more than once, under real and complex weights.
    fn repeating_states(p: &mut Package, n: usize) -> Vec<VEdge> {
        let zero = p.zero_state(n);
        let plus = layer(p, Package::apply, n, 0..n, GateKind::H, zero);
        let turned = layer(p, Package::apply, n, 0..n, GateKind::T, plus);
        vec![zero, plus, turned, ghz(p, Package::apply, n)]
    }

    /// Every ordered pair of `operators` multiplied, their running
    /// product, and every ordered pair of `states` in an inner product:
    /// with the per-call memos iff `memos`, else by the references.
    fn products(
        p: &mut Package,
        memos: bool,
        ops: &[MEdge],
        states: &[VEdge],
        log: &mut Vec<Product>,
    ) {
        let mut mm = |p: &mut Package, a, b| {
            let r = if memos {
                p.mul_mm(a, b)
            } else {
                p.mul_mm_unmemoized(a, b)
            };
            log.push(Product::of(p, Some(r.node), r.w));
            r
        };
        let mut running = ops[0];
        for &a in ops {
            for &b in ops {
                mm(p, a, b);
            }
            running = mm(p, a, running);
        }
        for &a in states {
            for &b in states {
                let r = if memos {
                    p.inner_product(a, b)
                } else {
                    p.inner_product_unmemoized(a, b)
                };
                log.push(Product::of(p, None, r));
            }
        }
    }

    /// Runs one history with per-call memos and without any memo, each
    /// in packages of its own, and requires the same observations after
    /// every product. Returns the statistics of the former, which must
    /// have skipped node constructions the latter repeated.
    fn assert_call_memos_are_unobservable(
        history: impl Fn(bool, &mut Vec<Product>) -> PackageStats,
    ) -> PackageStats {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let stats = history(true, &mut got);
        let reference = history(false, &mut want);
        assert_eq!(got.len(), want.len());
        for (product, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a, b, "after product {product}");
        }
        assert!(!got.is_empty());
        assert!(stats.unique_hits < reference.unique_hits, "no memo hit");
        stats
    }

    /// `kind` on each of `qubits` of an `n`-qubit `state`.
    fn layer(
        p: &mut Package,
        mul: Mul,
        n: usize,
        qubits: std::ops::Range<usize>,
        kind: GateKind,
        mut state: VEdge,
    ) -> VEdge {
        for q in qubits {
            let g = p.single_gate(n, q, kind.matrix()).unwrap();
            state = mul(p, g, state);
        }
        state
    }

    /// |GHZ_n⟩: H on qubit 0, then a CX ladder.
    fn ghz(p: &mut Package, mul: Mul, n: usize) -> VEdge {
        let mut state = p.zero_state(n);
        let h = p.single_gate(n, 0, GateKind::H.matrix()).unwrap();
        state = mul(p, h, state);
        for k in 1..n {
            let cx = p
                .controlled_gate(n, &[k - 1], k, GateKind::X.matrix())
                .unwrap();
            state = mul(p, cx, state);
        }
        state
    }

    /// `MNode::identity` sits in the padding `var` leaves (a vector
    /// node's image is its side word's, pinned in `node.rs`).
    #[test]
    fn structure_bits_live_in_existing_padding() {
        assert_eq!(std::mem::size_of::<MNode>(), 104);
    }

    #[test]
    fn identity_bit_marks_identity_matrices_and_nothing_else() {
        let mut p = Package::new();
        let _ = p.identity(8);
        for k in 1..=8 {
            assert!(p.mnode(p.ident_cache[k].node).identity, "height {k}");
        }

        // A controlled gate: identity where the control reads 0, the
        // gate where it reads 1.
        let cx = p.controlled_gate(4, &[3], 0, GateKind::X.matrix()).unwrap();
        let root = *p.mnode(cx.node);
        assert!(!root.identity);
        assert_eq!(root.edges[0].node, p.ident_cache[3].node);
        assert!(p.mnode(root.edges[0].node).identity);
        assert!(!p.mnode(root.edges[3].node).identity);

        // Off-diagonal, diagonal with a −1, and the `[e, 0, 0, e]`
        // levels above a gate, whose `e` is not an identity.
        for (kind, n) in [(GateKind::X, 1), (GateKind::Z, 1), (GateKind::H, 3)] {
            let g = p.single_gate(n, 0, kind.matrix()).unwrap();
            assert!(!p.mnode(g.node).identity, "{kind:?}");
        }

        // A scaled identity is the identity node under a weighted edge,
        // so the rule answers it through `m.w`.
        let half = MEdge::terminal(Cplx::real(0.5));
        let scaled = p.make_mnode(0, [half, MEdge::ZERO, MEdge::ZERO, half]);
        assert_eq!(scaled.node, p.ident_cache[1].node);
        assert_eq!(scaled.w, Cplx::real(0.5));
        let one = p.basis_state(1, 1);
        let before = p.stats();
        let halved = p.mul_mv(scaled, one);
        assert_eq!(halved, one.scaled(Cplx::real(0.5)));
        let after = p.stats();
        assert_eq!(after.identity_skips, before.identity_skips + 1);
        assert_eq!(after.unique_hits, before.unique_hits);
    }

    #[test]
    fn stability_is_a_property_of_the_stored_bits_not_of_the_state() {
        let mut p = Package::new();
        let zero = p.zero_state(20);
        assert_eq!(p.image_census(zero), (20, 20, 20));
        let basis = p.basis_state(20, 0xABCDE);
        assert_eq!(p.image_census(basis), (20, 20, 20));
        let ghz = ghz(&mut p, Package::mul_mv, 20);
        assert_eq!(p.image_census(ghz), (39, 39, 39));

        // |+⟩^20 straight out of the H gates stores the pair
        // 0.7071067811865475 on level 0, which re-normalises to
        // 0.9999999999999999, one ulp under 1; every node above takes
        // the factor beneath it into its own. All twenty have an image,
        // none of them 1. A T layer re-makes every node of the same
        // column, and the pair it stores is its own normal form.
        let plus = layer(&mut p, Package::mul_mv, 20, 0..20, GateKind::H, zero);
        assert_eq!(p.image_census(plus), (0, 20, 20));
        let w = p.vnode(plus.node).edges()[0].w;
        assert_eq!(w.re.to_bits(), 0.707_106_781_186_547_5_f64.to_bits());
        let mut bottom = plus.node;
        while p.vside(bottom).var() > 0 {
            bottom = p.vnode(bottom).ids()[0];
        }
        assert_eq!(p.vnode(bottom).edges()[0].w, w);
        assert_eq!(p.vside(bottom).image().ulps(), Some(-1));
        let under_one = Cplx::real(0.999_999_999_999_999_9);
        assert_eq!(p.vside(bottom).image().factor(), Some(under_one));
        let turned = layer(&mut p, Package::mul_mv, 20, 0..20, GateKind::T, plus);
        assert_eq!(p.image_census(turned), (20, 20, 20));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Generic weights: nearly every node has an image, nearly none
        // of them 1 — every answer of the rule carries ulps the
        // reference has to reproduce.
        #[test]
        fn skip_equals_recompute_on_generic_states(
            amps in prop::collection::vec((any::<f64>(), any::<f64>()), 256),
            n in 3usize..9
        ) {
            let amps: Vec<Cplx> = amps[..1 << n].iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            assert_rule_is_unobservable(|mul, log| {
                let mut p = Package::new();
                let state = p.from_amplitudes(&amps).unwrap();
                sweep(&mut p, mul, n, state, log);
                p.stats()
            });
        }

        // Products of basis states and H / T / CX layers, a mix: chains
        // of `(1, 0)` pairs sit at 0 ulps, a fresh |+⟩ column does not,
        // the same column after a T does — optionally cut by a
        // truncation round first.
        #[test]
        fn skip_equals_recompute_on_layered_products(
            n in 8usize..25,
            idx in any::<u64>(),
            layers in prop::collection::vec((0usize..3, 0usize..24, 1usize..24), 24),
            truncated in any::<bool>()
        ) {
            let stats = assert_rule_is_unobservable(|mul, log| {
                let mut p = Package::new();
                let mut state = p.basis_state(n, idx & ((1 << n) - 1));
                for &(kind, a, step) in &layers {
                    let (a, b) = (a % n, (a + step) % n);
                    let g = match kind {
                        0 => p.single_gate(n, a, GateKind::H.matrix()),
                        1 => p.single_gate(n, a, GateKind::T.matrix()),
                        _ if a == b => continue,
                        _ => p.controlled_gate(n, &[a], b, GateKind::X.matrix()),
                    }
                    .unwrap();
                    state = mul(&mut p, g, state);
                    log.push(observe(&p, state, n));
                }
                if truncated {
                    state = p.truncate(state, 0.05).unwrap().edge;
                    log.push(observe(&p, state, n));
                }
                sweep(&mut p, mul, n, state, log);
                p.stats()
            });
            prop_assert!(stats.identity_skips > 0, "a basis chain has an image");
        }
    }

    #[test]
    fn recycled_slots_carry_the_bits_of_their_new_nodes() {
        const N: usize = 10;
        let stats = assert_rule_is_unobservable(|mul, log| {
            let mut p = Package::new();
            // Low slots: a |+⟩ column, its images off 1; higher slots:
            // basis chains and a GHZ state, all at 0 ulps.
            let zero = p.zero_state(N);
            let plus = layer(&mut p, mul, N, 0..N, GateKind::H, zero);
            let ghz_state = ghz(&mut p, mul, N);
            let _ = p.basis_state(N, 0x2A5);
            assert_eq!(p.image_census(plus), (0, N, N));
            assert_eq!(p.image_census(ghz_state), (2 * N - 1, 2 * N - 1, 2 * N - 1));
            let before: Vec<(u32, Image)> = p
                .vnodes
                .alive_indices()
                .map(|id| (id, p.vnodes.side(id).image()))
                .collect();

            // Nothing is rooted: every slot goes back to the free list,
            // and is handed out again in another order to other nodes.
            let gc = p.collect_garbage();
            assert_eq!(gc.vnodes_alive, 0);
            let chain = p.basis_state(N, 0x155);
            let ghz_state = ghz(&mut p, mul, N);
            let plus = layer(&mut p, mul, N, 0..N, GateKind::H, chain);
            let turned = layer(&mut p, mul, N, 0..N, GateKind::T, plus);
            let flipped = |was_one: bool| {
                before.iter().any(|&(id, image)| {
                    (image == Image::ONE) == was_one
                        && p.vnodes.alive_indices().any(|alive| alive == id)
                        && (p.vnodes.side(id).image() == Image::ONE) != was_one
                })
            };
            assert!(
                flipped(false),
                "no slot of an image off 1 was reused by a node at 0 ulps"
            );
            assert!(
                flipped(true),
                "no slot of a node at 0 ulps was reused by an image off 1"
            );

            for state in [chain, ghz_state, plus, turned] {
                sweep(&mut p, mul, N, state, log);
            }
            p.stats()
        });
        assert!(stats.identity_skips > 0 && stats.gc_runs == 1);
    }

    #[test]
    fn frozen_nodes_keep_their_bits_and_diagrams_span_the_watermark() {
        const N: usize = 10;
        let stats = assert_rule_is_unobservable(|mul, log| {
            let mut base = Package::new();
            let zero = base.zero_state(N);
            let _ = layer(&mut base, mul, N, 0..N, GateKind::H, zero);
            let _ = ghz(&mut base, mul, N);
            let mut p = base.fork(None);
            let prefix = p.vnodes.prefix();
            assert!(prefix > 0, "the prefix holds vector nodes");

            // Rebuilt states resolve to prefix nodes, bits included.
            let zero = p.zero_state(N);
            let plus = layer(&mut p, mul, N, 0..N, GateKind::H, zero);
            let ghz_state = ghz(&mut p, mul, N);
            assert!(plus.node.0 < prefix && ghz_state.node.0 < prefix);
            assert_eq!(p.image_census(plus), (0, N, N));
            assert_eq!(p.image_census(ghz_state), (2 * N - 1, 2 * N - 1, 2 * N - 1));

            // New diagrams grow above the prefix on prefix successors.
            let turned = layer(&mut p, mul, N, N / 2..N, GateKind::T, plus);
            let nodes = p.reachable_vnodes(turned);
            assert!(nodes.iter().any(|id| id.0 >= prefix));
            assert!(nodes.iter().any(|id| id.0 < prefix));
            for state in [ghz_state, plus, turned] {
                sweep(&mut p, mul, N, state, log);
            }
            p.stats()
        });
        assert!(stats.identity_skips > 0 && stats.snapshot_hits > 0);
    }

    #[test]
    fn a_stored_weight_below_tolerance_makes_a_node_unstable() {
        assert_rule_is_unobservable(|mul, log| {
            let mut p = Package::new();
            // 5e-9 survives `make_vnode`'s input snap and is stored as
            // 5e-13, under the 1e-12 tolerance, which the recursion
            // drops. On the terminal level the dropped edge and the
            // stored one are both the terminal under weight key 0: the
            // recursion finds this very node again, and so may the rule.
            let big = Cplx::real(1e4);
            let small = Cplx::real(5e-9);
            let e = p.make_vnode(0, VEdge::terminal(big), VEdge::terminal(small));
            assert_eq!(p.vnode(e.node).edges()[1].w, Cplx::real(5e-13));
            assert_eq!(p.vside(e.node).image(), Image::ONE);
            let id = p.identity(1);
            let through = mul(&mut p, id, e);
            assert_eq!(through.node, e.node);
            log.push(observe(&p, through, 1));

            // One level up the dropped edge loses its successor: the
            // recursion builds another node, so this one must not be
            // skipped.
            let (c0, c1) = (p.basis_state(1, 0), p.basis_state(1, 1));
            let e = p.make_vnode(1, c0.scaled(big), c1.scaled(small));
            let node = *p.vnode(e.node);
            assert_eq!(node.edges()[1].w, Cplx::real(5e-13));
            assert_eq!(p.vside(c0.node).image(), Image::ONE);
            assert_eq!(p.vside(c1.node).image(), Image::ONE);
            assert_eq!(p.vside(e.node).image(), Image::NONE);
            let id = p.identity(2);
            let through = mul(&mut p, id, e);
            assert_ne!(through.node, e.node);
            log.push(observe(&p, through, 2));
            p.stats()
        });
    }

    #[test]
    fn a_nan_weight_is_unstable_and_does_not_panic() {
        assert_rule_is_unobservable(|mul, log| {
            let mut p = Package::new();
            // NaN, and what turns into one inside `normalize`.
            for w in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MAX] {
                let bad = VEdge::terminal(Cplx::new(w, 0.0));
                for (e0, e1) in [(bad, VEdge::ONE), (VEdge::ONE, bad), (bad, VEdge::ZERO)] {
                    let e = p.make_vnode(0, e0, e1);
                    assert_eq!(p.vside(e.node).image(), Image::NONE);
                    let id = p.identity(1);
                    let through = mul(&mut p, id, e);
                    log.push(observe(&p, through, 1));
                }
            }
            p.stats()
        });
    }

    /// A pair of amplitudes whose normalised weights, normalised once
    /// more, land in a neighbouring tolerance bucket: ulps are 10⁻¹⁶ and
    /// buckets 10⁻¹² wide, so about one random pair in 10⁴ does.
    fn bucket_crossing_pair() -> (Cplx, Cplx) {
        let mut p = Package::new();
        let mut seed = 0x00b0_c4e7_u64;
        let mut part = || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            #[allow(clippy::cast_precision_loss)]
            let unit = (seed >> 11) as f64 / (1u64 << 53) as f64;
            unit - 0.5
        };
        for _ in 0..1_000_000 {
            let (a, b) = (Cplx::new(part(), part()), Cplx::new(part(), part()));
            let e = p.make_vnode(0, VEdge::terminal(a), VEdge::terminal(b));
            if p.vside(e.node).image() == Image::NONE {
                return (a, b);
            }
        }
        panic!("no bucket crossing in 10^6 pairs");
    }

    #[test]
    fn a_bucket_crossing_has_no_image_and_recurses_to_another_node() {
        let (a, b) = bucket_crossing_pair();
        assert_rule_is_unobservable(|mul, log| {
            let mut p = Package::new();
            let e = p.make_vnode(0, VEdge::terminal(a), VEdge::terminal(b));
            assert_eq!(p.vside(e.node).image(), Image::NONE);
            let id = p.identity(1);
            let through = mul(&mut p, id, e);
            assert_ne!(
                through.node, e.node,
                "the unique table answers another node"
            );
            log.push(observe(&p, through, 1));

            // Nor has anything built on it.
            let above = p.make_vnode(1, e, VEdge::ZERO);
            assert_eq!(p.vside(above.node).image(), Image::NONE);
            let id = p.identity(2);
            let through = mul(&mut p, id, above);
            assert_ne!(through.node, above.node);
            log.push(observe(&p, through, 2));
            p.stats()
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // "Memo ≡ no memo": `apply` answers repeat visits from its memo,
        // and a recursion that recomputes every one of them must build
        // the same bits, nodes and canonical ratios.
        #[test]
        fn memo_equals_no_memo_on_generic_states(
            amps in prop::collection::vec((any::<f64>(), any::<f64>()), 256),
            n in 3usize..9
        ) {
            let amps: Vec<Cplx> = amps[..1 << n].iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            assert_memo_is_unobservable(|mul, log| {
                let mut p = Package::new();
                let state = p.from_amplitudes(&amps).unwrap();
                sweep(&mut p, mul, n, state, log);
                p.stats()
            });
        }

        // The same across canonical-ratio resets: a tiny cap makes them
        // happen inside `apply` calls (only `add` interns a ratio, and
        // only `apply` adds here), between a memo insert and the hits
        // that would follow it.
        #[test]
        fn memo_equals_no_memo_across_a_ratio_reset_mid_apply(
            amps in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 256),
            n in 5usize..9,
            cap in 2usize..24
        ) {
            let amps: Vec<Cplx> = amps[..1 << n].iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            let resets = std::cell::Cell::new(0);
            assert_memo_is_unobservable(|mul, log| {
                let mut p = Package {
                    ratio_canon: RatioCanon::new().with_cap(cap),
                    ..Package::new()
                };
                let state = p.from_amplitudes(&amps).unwrap();
                sweep(&mut p, mul, n, state, log);
                resets.set(p.ratio_resets);
                p.stats()
            });
            prop_assert!(resets.get() > 0, "cap {} never reset", cap);
        }
    }

    #[test]
    fn memo_equals_no_memo_after_gc_recycled_slot_ids() {
        const N: usize = 10;
        let stats = assert_memo_is_unobservable(|mul, log| {
            let mut p = Package::new();
            let zero = p.zero_state(N);
            let _ = layer(&mut p, mul, N, 0..N, GateKind::H, zero);
            let _ = ghz(&mut p, mul, N);
            // Nothing is rooted: every slot id is handed out again.
            assert_eq!(p.collect_garbage().vnodes_alive, 0);
            let chain = p.basis_state(N, 0x155);
            let ghz_state = ghz(&mut p, mul, N);
            let plus = layer(&mut p, mul, N, 0..N, GateKind::H, chain);
            let turned = layer(&mut p, mul, N, 0..N, GateKind::T, plus);
            for state in [chain, ghz_state, plus, turned] {
                sweep(&mut p, mul, N, state, log);
            }
            p.stats()
        });
        assert_eq!(stats.gc_runs, 1);
    }

    #[test]
    fn memo_equals_no_memo_over_a_frozen_snapshot() {
        const N: usize = 10;
        let stats = assert_memo_is_unobservable(|mul, log| {
            let mut base = Package::new();
            let zero = base.zero_state(N);
            let _ = layer(&mut base, mul, N, 0..N, GateKind::H, zero);
            let _ = ghz(&mut base, mul, N);
            let mut p = base.fork(None);
            let zero = p.zero_state(N);
            let plus = layer(&mut p, mul, N, 0..N, GateKind::H, zero);
            let ghz_state = ghz(&mut p, mul, N);
            let turned = layer(&mut p, mul, N, N / 2..N, GateKind::T, plus);
            for state in [ghz_state, plus, turned] {
                sweep(&mut p, mul, N, state, log);
            }
            p.stats()
        });
        assert!(stats.snapshot_hits > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // "Call memo ≡ no memo" for `mul_mm` and `inner_product`: dense
        // blocks and amplitude vectors, beside gates and states whose
        // nodes repeat.
        #[test]
        fn call_memo_equals_no_memo_on_generic_states_and_operators(
            entries in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 512),
            n in 3usize..5
        ) {
            let entries: Vec<Cplx> = entries.iter().map(|&(re, im)| Cplx::new(re, im)).collect();
            let dim = 1 << (2 * n);
            assert_call_memos_are_unobservable(|f, log| {
                let mut p = Package::new();
                let mut operators = gates(&mut p, n);
                let mut states = repeating_states(&mut p, n);
                for block in [&entries[..dim], &entries[dim..2 * dim]] {
                    operators.push(p.dense_block_gate(n, 0, n, block, &[]).unwrap());
                    states.push(p.from_amplitudes(&block[..1 << n]).unwrap());
                }
                products(&mut p, f, &operators, &states, log);
                p.stats()
            });
        }
    }

    #[test]
    fn call_memo_equals_no_memo_after_gc_recycled_slot_ids() {
        const N: usize = 5;
        let stats = assert_call_memos_are_unobservable(|f, log| {
            let mut p = Package::new();
            let operators = gates(&mut p, N);
            let states = repeating_states(&mut p, N);
            products(&mut p, f, &operators, &states, log);
            // Nothing is rooted but the identities: every other slot id
            // is handed out again, to other nodes in another order.
            let gc = p.collect_garbage();
            assert_eq!((gc.vnodes_alive, gc.mnodes_alive), (0, N));
            let states = repeating_states(&mut p, N);
            let mut operators = gates(&mut p, N);
            operators.reverse();
            products(&mut p, f, &operators, &states, log);
            p.stats()
        });
        assert_eq!(stats.gc_runs, 1);
    }

    #[test]
    fn call_memo_equals_no_memo_over_a_frozen_snapshot() {
        const N: usize = 5;
        let stats = assert_call_memos_are_unobservable(|f, log| {
            let mut base = Package::new();
            let _ = gates(&mut base, N);
            let _ = repeating_states(&mut base, N);
            let mut p = base.fork(None);
            let prefix = p.mnodes.prefix();
            // Rebuilt operands resolve to prefix nodes; their products
            // grow above the prefix on prefix successors.
            let operators = gates(&mut p, N);
            let states = repeating_states(&mut p, N);
            assert!(operators.iter().all(|g| g.node.0 < prefix));
            products(&mut p, f, &operators, &states, log);
            assert!(p.mnodes.alive_indices().any(|id| id >= prefix));
            p.stats()
        });
        assert!(stats.snapshot_hits > 0);
    }

    #[test]
    fn add_is_commutative_and_matches_dense() {
        let mut p = Package::new();
        let a_amps = [
            Cplx::new(0.1, 0.0),
            Cplx::new(0.2, 0.1),
            Cplx::new(0.0, -0.3),
            Cplx::new(0.4, 0.0),
        ];
        let b_amps = [
            Cplx::new(-0.1, 0.2),
            Cplx::new(0.0, 0.0),
            Cplx::new(0.3, 0.3),
            Cplx::new(0.1, -0.1),
        ];
        let a = p.from_amplitudes(&a_amps).unwrap();
        let b = p.from_amplitudes(&b_amps).unwrap();
        let ab = p.add(a, b);
        let ba = p.add(b, a);
        let dense_ab = p.to_amplitudes(ab, 2).unwrap();
        let dense_ba = p.to_amplitudes(ba, 2).unwrap();
        for i in 0..4 {
            let want = a_amps[i] + b_amps[i];
            assert!(close(dense_ab[i], want));
            assert!(close(dense_ba[i], want));
        }
    }

    #[test]
    fn one_qubit_operations_never_consult_a_compute_table() {
        // Every node of a 1-qubit diagram sits on the terminal level.
        let mut p = Package::new();
        let mut v = p.basis_state(1, 0);
        let mut product = p.identity(1);
        for kind in [GateKind::H, GateKind::T, GateKind::Sx, GateKind::H] {
            let g = p.single_gate(1, 0, kind.matrix()).unwrap();
            product = p.mul_mm(g, product);
            v = p.apply(g, v);
        }
        let other = p
            .from_amplitudes(&[Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8)])
            .unwrap();
        let sum = p.add(v, other);
        let zero = p.basis_state(1, 0);
        let fused = p.apply(product, zero);
        assert!((p.fidelity(fused, v) - 1.0).abs() < 1e-12);
        assert!(p.inner_product(sum, other).mag2() > 0.0);
        let stats = p.stats();
        assert_eq!(stats.ct_hits + stats.ct_misses, 0);
    }

    #[test]
    fn wide_operations_memoize_every_level_but_the_terminal_one() {
        // 12 qubits of H / T / CX layers, a fused operator and an inner
        // product: the `add` table and the memo of the last `apply` are
        // consulted, but no entry is keyed on a level-0 node, i.e. no
        // level-0 operation ever inserted (and every lookup that misses
        // inserts).
        let n = 12;
        let mut p = Package::new();
        let mut v = p.zero_state(n);
        let mut product = p.identity(n);
        for layer in 0..3 {
            for q in 0..n {
                let kind = if (q + layer) % 2 == 0 {
                    GateKind::H
                } else {
                    GateKind::T
                };
                let g = p.single_gate(n, q, kind.matrix()).unwrap();
                let cx = p
                    .controlled_gate(n, &[q], (q + 1 + layer) % n, GateKind::X.matrix())
                    .unwrap();
                if layer == 0 && q < 4 {
                    product = p.mul_mm(g, product);
                    product = p.mul_mm(cx, product);
                }
                v = p.apply(g, v);
                v = p.apply(cx, v);
            }
        }
        let zero = p.zero_state(n);
        let w = p.apply(product, zero);
        assert!(p.inner_product(v, w).mag2() >= 0.0);

        assert!(p.stats().ct_misses > 0);
        assert!(p.ct.live_keys().next().is_some());
        let vvar = |id: u32| p.vside(NodeId(id)).var();
        let mvar = |id: u32| p.mnode(NodeId(id)).var;
        assert!(p.ct.live_keys().all(|k| vvar(k.0) > 0 && vvar(k.1) > 0));
        assert!(!p.mv_memo.is_empty());
        assert!(p.mv_memo.keys().all(|k| mvar(k.0) > 0 && vvar(k.1) > 0));
    }

    #[test]
    fn apply_gives_a_memo_past_the_floor_back() {
        // A 14-qubit state of a few thousand nodes, and a gate on qubit
        // 1: the recursion walks every node above level 0 under a
        // non-identity operator node and memoizes each.
        let n = 14;
        let mut p = Package::new();
        let mut v = p.zero_state(n);
        for layer in 0..3 {
            for q in 0..n {
                let kind = if (q + layer) % 2 == 0 {
                    GateKind::H
                } else {
                    GateKind::T
                };
                let g = p.single_gate(n, q, kind.matrix()).unwrap();
                let cx = p
                    .controlled_gate(n, &[q], (q + 1 + layer) % n, GateKind::X.matrix())
                    .unwrap();
                v = p.apply(g, v);
                v = p.apply(cx, v);
                assert!(p.mv_memo.capacity() <= MV_MEMO_FLOOR);
            }
        }
        let g = p.single_gate(n, 1, GateKind::H.matrix()).unwrap();
        // The recursion alone leaves its memo behind, past the floor.
        p.mv_memo.clear();
        let left = p.mul_mv(g, v);
        let entries = p.mv_memo.len();
        assert!(p.mv_memo.capacity() > MV_MEMO_FLOOR, "{entries} entries");
        // `apply` computes the same edge and gives the storage back.
        let applied = p.apply(g, v);
        assert_eq!(applied, left);
        assert_eq!(p.mv_memo.capacity(), 0, "{entries} entries kept");
        // Below the floor the map is kept for the next call.
        let small = ghz(&mut p, Package::apply, 6);
        let h = p.single_gate(6, 3, GateKind::H.matrix()).unwrap();
        let _ = p.apply(h, small);
        assert!(!p.mv_memo.is_empty());
        assert!(p.mv_memo.capacity() <= MV_MEMO_FLOOR);
    }

    #[test]
    fn add_with_zero_is_identity() {
        let mut p = Package::new();
        let a = p.basis_state(3, 5);
        let sum = p.add(a, VEdge::ZERO);
        assert_eq!(sum, a);
        let sum = p.add(VEdge::ZERO, a);
        assert_eq!(sum, a);
    }

    #[test]
    fn add_cancels_to_zero() {
        let mut p = Package::new();
        let a = p.basis_state(2, 1);
        let neg = a.scaled(Cplx::new(-1.0, 0.0));
        let sum = p.add(a, neg);
        assert!(sum.is_zero(p.tolerance()));
    }

    #[test]
    fn apply_identity_preserves_state() {
        let mut p = Package::new();
        let v = p.basis_state(3, 6);
        let id = p.identity(3);
        let r = p.apply(id, v);
        assert!((p.fidelity(r, v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_twice_is_identity() {
        let mut p = Package::new();
        let v = p.basis_state(2, 2);
        let h = p.single_gate(2, 1, GateKind::H.matrix()).unwrap();
        let r = p.apply(h, v);
        let r = p.apply(h, r);
        assert!((p.fidelity(r, v) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn inner_product_is_sesquilinear() {
        let mut p = Package::new();
        let a_amps = [Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8)];
        let b_amps = [Cplx::new(0.0, 1.0), Cplx::ZERO];
        let a = p.from_amplitudes(&a_amps).unwrap();
        let b = p.from_amplitudes(&b_amps).unwrap();
        let ip = p.inner_product(a, b);
        // <a|b> = conj(0.6)*i + conj(0.8i)*0 = 0.6i
        assert!(close(ip, Cplx::new(0.0, 0.6)));
        // Swapping conjugates.
        let ip_rev = p.inner_product(b, a);
        assert!(close(ip_rev, ip.conj()));
    }

    #[test]
    fn norm_of_unit_state_is_one() {
        let mut p = Package::new();
        let v = p.basis_state(4, 9);
        assert!((p.norm(v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vkron_composes_basis_states() {
        let mut p = Package::new();
        let top = p.basis_state(2, 0b10);
        let bottom = p.basis_state(3, 0b011);
        let joint = p.vkron(top, bottom);
        assert_eq!(p.vlevel(joint), 5);
        let amp = p.amplitude(joint, 0b10_011);
        assert!((amp.mag2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn conj_transpose_of_unitary_inverts_it() {
        let mut p = Package::new();
        let s = p.single_gate(2, 0, GateKind::S.matrix()).unwrap();
        let sdg = p.conj_transpose(s);
        let prod = p.mul_mm(s, sdg);
        let id = p.identity(2);
        assert_eq!(prod.node, id.node);
        assert!(close(prod.w, id.w));
    }

    #[test]
    fn mul_mm_matches_sequential_application() {
        let mut p = Package::new();
        let v = p.basis_state(2, 0);
        let h0 = p.single_gate(2, 0, GateKind::H.matrix()).unwrap();
        let x1 = p.single_gate(2, 1, GateKind::X.matrix()).unwrap();
        // sequential
        let r_seq = p.apply(h0, v);
        let r_seq = p.apply(x1, r_seq);
        // fused: X1 * H0 (apply H0 first)
        let fused = p.mul_mm(x1, h0);
        let r_fused = p.apply(fused, v);
        assert!((p.fidelity(r_seq, r_fused) - 1.0).abs() < 1e-10);
    }
}
