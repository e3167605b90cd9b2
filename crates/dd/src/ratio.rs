//! The canonical-ratio table behind [`crate::Package::add`].
//!
//! `add` keys its compute table on the *tolerance bucket* of the weight
//! ratio `b.w / a.w` and recurses on the bucket's **canonical
//! representative**: the first exact ratio ever seen in that bucket.
//! Near-equal ratios (the overwhelmingly common case — low-order float
//! noise from different computation paths) collapse onto one value,
//! which is what lets the lossy compute table hit on them while staying
//! sound: a recomputation only revisits buckets its first computation
//! created, so it finds the same representatives and hit ≡ recompute
//! bit-for-bit (the reset rule below is what keeps that true across a
//! reset). The same idea as the QMDD "complex table" (DDSIM interns all
//! weights), applied only where this repo needs it.
//!
//! # Layout
//!
//! The bucket of a representative is recomputable from the
//! representative itself (`tol.key(value)`), so the table stores
//! nothing but the values: a flat power-of-two array of bare [`Cplx`]
//! (16 bytes a slot, plus one occupancy bit — any bit pattern,
//! NaN included, is a legal ratio, so no value can mark a slot empty),
//! open-addressed with linear probing and kept at ≤ 50 % load. There is
//! no deletion, hence no tombstones. Like the unique table's, this
//! layout is invisible to results: a bucket has at most one
//! representative, whichever slot it landed in.
//!
//! # Reset rule
//!
//! [`RatioCanon::canonical`] is the only entry point and is called once
//! per non-trivial `add`. A ratio whose bucket is already held — frozen
//! or private — is answered and never resets anything. Only a call that
//! would insert a **new** bucket while the private tier holds
//! [`RATIO_CANON_CAP`] entries empties that tier first (its slot array
//! is kept) and reports `reset = true`, upon which the package clears
//! the compute table and the `mul_mv` memo: their results embed
//! canonical-ratio bits, so a surviving entry could disagree with a
//! post-reset recomputation.
//!
//! Reset timing is therefore a function of the sequence of *new*
//! buckets, not of every call. That distinction is what makes results
//! independent of compute-cache size: a smaller cache recomputes more,
//! and its extra calls revisit buckets the first computation created —
//! held, so they cannot reset (an earlier rule that reset on the first
//! call past the cap let one of them fire the reset early). The second
//! half of the contract lives with the callers: an operation whose
//! recursion straddled a reset does not memoize its result, which holds
//! pre-reset representatives (`Package::ratio_resets`, read before the
//! recursion). A frozen tier never resets: it is a snapshot invariant
//! shared with every sibling package, probed *before* the private tier
//! so frozen buckets keep their pinned representatives
//! (first-write-wins across the snapshot boundary).

use std::hash::Hasher;
use std::sync::Arc;

use approxdd_complex::{Cplx, Tolerance};

use crate::fasthash::FxHasher;

/// Entry cap of the private canonical-ratio tier. Slots double while
/// `2 · entries` would exceed them, so at the cap the tier holds 2^19
/// slots: 8 MiB of values plus a 64 KiB occupancy bitmap (12 MiB for
/// the instant the last doubling re-seats 4 MiB into 8). A new bucket
/// at the cap empties the tier and the compute table — see the module
/// docs.
pub(crate) const RATIO_CANON_CAP: usize = 1 << 18;

/// Slots of a table's first allocation (power of two).
const INITIAL_SLOTS: usize = 64;

/// An insert-only open-addressed set of canonical ratios, at most one
/// per tolerance bucket (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct RatioTable {
    /// Representatives; meaningful only where `used` says so. Empty
    /// until the first insert, then a power of two.
    slots: Vec<Cplx>,
    /// One occupancy bit per slot.
    used: Vec<u64>,
    len: usize,
}

/// Home slot of a bucket in a table of `mask + 1` slots: the upper hash
/// bits, the best-mixed ones of the multiply–xor hasher.
#[inline]
fn home(key: (i64, i64), mask: usize) -> usize {
    let mut h = FxHasher::default();
    h.write_i64(key.0);
    h.write_i64(key.1);
    (h.finish() >> 32) as usize & mask
}

impl RatioTable {
    /// Representatives held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes of the slot array and its occupancy bitmap.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Cplx>() + self.used.len() * 8
    }

    #[inline]
    fn is_used(&self, idx: usize) -> bool {
        self.used[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// The slot holding bucket `key`'s representative, or the vacant
    /// slot where it belongs. `None` only for a table without slots.
    #[inline]
    fn probe(&self, tol: Tolerance, key: (i64, i64)) -> Option<(usize, bool)> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut idx = home(key, mask);
        loop {
            if !self.is_used(idx) {
                return Some((idx, false));
            }
            if tol.key(self.slots[idx]) == key {
                return Some((idx, true));
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The representative of bucket `key`, if the table holds one.
    #[inline]
    pub(crate) fn get(&self, tol: Tolerance, key: (i64, i64)) -> Option<Cplx> {
        match self.probe(tol, key)? {
            (idx, true) => Some(self.slots[idx]),
            _ => None,
        }
    }

    /// The representative of bucket `key`, which becomes `value` if the
    /// bucket had none (first write wins). `key` must be `tol.key(value)`.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, tol: Tolerance, key: (i64, i64), value: Cplx) -> Cplx {
        debug_assert!(tol.key(value) == key);
        match self.probe(tol, key) {
            Some((idx, true)) => return self.slots[idx],
            Some((idx, false)) if (self.len + 1) * 2 <= self.slots.len() => {
                self.place(idx, value);
            }
            _ => {
                self.grow(tol);
                let (idx, _) = self.probe(tol, key).expect("a grown table has slots");
                self.place(idx, value);
            }
        }
        value
    }

    fn place(&mut self, idx: usize, value: Cplx) {
        self.slots[idx] = value;
        self.used[idx / 64] |= 1u64 << (idx % 64);
        self.len += 1;
    }

    /// Doubles the slot array (or provides the first one) and re-seats
    /// every representative under its recomputed bucket.
    #[cold]
    fn grow(&mut self, tol: Tolerance) {
        let new_slots = (self.slots.len() * 2).max(INITIAL_SLOTS);
        let old = std::mem::replace(
            self,
            Self {
                slots: vec![Cplx::ZERO; new_slots],
                used: vec![0; new_slots / 64],
                len: 0,
            },
        );
        for (idx, &value) in old.slots.iter().enumerate() {
            if old.is_used(idx) {
                let (at, _) = self
                    .probe(tol, tol.key(value))
                    .expect("the new array has slots");
                self.place(at, value);
            }
        }
    }

    /// Forgets every representative, keeping the slot array.
    fn clear(&mut self) {
        self.used.fill(0);
        self.len = 0;
    }
}

/// Canonical ratios of one package: a private [`RatioTable`], optionally
/// layered over the frozen table of an attached snapshot.
#[derive(Debug)]
pub(crate) struct RatioCanon {
    /// Immutable shared tier of an attached snapshot, if any.
    frozen: Option<Arc<RatioTable>>,
    delta: RatioTable,
    /// Private entries at which a new bucket makes
    /// [`RatioCanon::canonical`] reset ([`RATIO_CANON_CAP`]; tests
    /// shrink it to cross it often).
    cap: usize,
}

impl RatioCanon {
    pub(crate) fn new() -> Self {
        Self {
            frozen: None,
            delta: RatioTable::default(),
            cap: RATIO_CANON_CAP,
        }
    }

    /// An empty private tier layered over a shared frozen one.
    pub(crate) fn with_frozen(frozen: Arc<RatioTable>) -> Self {
        Self {
            frozen: Some(frozen),
            ..Self::new()
        }
    }

    /// Converts the private tier into a frozen one. Only a base table
    /// can be frozen (mirrors [`crate::unique::UniqueTable::freeze`]).
    pub(crate) fn freeze(self) -> RatioTable {
        assert!(
            self.frozen.is_none(),
            "cannot freeze a package layered over an existing snapshot"
        );
        self.delta
    }

    /// Bytes of the private tier (the frozen tier is shared, not owned).
    pub(crate) fn bytes(&self) -> usize {
        self.delta.bytes()
    }

    /// Canonicalizes `ratio`: its tolerance bucket, the bucket's
    /// representative, and whether this call reset the private tier
    /// (the caller must then clear every memoized result — see the
    /// module docs for the rule).
    #[inline]
    pub(crate) fn canonical(&mut self, tol: Tolerance, ratio: Cplx) -> ((i64, i64), Cplx, bool) {
        let key = tol.key(ratio);
        if let Some(pinned) = self.frozen.as_ref().and_then(|f| f.get(tol, key)) {
            return (key, pinned, false);
        }
        // The second probe runs only at the cap, until the next new
        // bucket resets the tier.
        let reset = self.delta.len() >= self.cap && self.delta.get(tol, key).is_none();
        if reset {
            self.delta.clear();
        }
        (key, self.delta.get_or_insert(tol, key, ratio), reset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl RatioCanon {
        pub(crate) fn with_cap(mut self, cap: usize) -> Self {
            self.cap = cap;
            self
        }
    }

    /// The two hash maps the table replaced, kept as the reference
    /// model: frozen-before-delta probe order, a reset only for a new
    /// bucket at the cap, first-write-wins entry.
    #[derive(Default)]
    struct Model {
        frozen: Option<HashMap<(i64, i64), Cplx>>,
        delta: HashMap<(i64, i64), Cplx>,
        cap: usize,
    }

    impl Model {
        fn canonical(&mut self, tol: Tolerance, ratio: Cplx) -> ((i64, i64), Cplx, bool) {
            let key = tol.key(ratio);
            if let Some(&pinned) = self.frozen.as_ref().and_then(|f| f.get(&key)) {
                return (key, pinned, false);
            }
            let reset = self.delta.len() >= self.cap && !self.delta.contains_key(&key);
            if reset {
                self.delta.clear();
            }
            (key, *self.delta.entry(key).or_insert(ratio), reset)
        }

        fn freeze(self) -> Self {
            Self {
                frozen: Some(self.delta),
                delta: HashMap::new(),
                cap: self.cap,
            }
        }
    }

    fn bits(c: Cplx) -> (u64, u64) {
        (c.re.to_bits(), c.im.to_bits())
    }

    /// One ratio of a generated sequence: `kind` picks the family,
    /// `pick` a member, `jitter ∈ [-1, 1)` the perturbation.
    fn ratio(tol: Tolerance, (kind, pick, jitter): (usize, usize, f64)) -> Cplx {
        let pitch = 2.0 * tol.eps();
        #[allow(clippy::cast_precision_loss)]
        let p = pick as f64;
        match kind {
            // Near-equal clusters: float noise around a few centres,
            // well inside one bucket.
            0 | 1 => Cplx::new(0.125 * p + jitter * 1e-14, -0.0625 * p - jitter * 3e-15),
            // Bucket-boundary neighbours: either side of a rounding
            // edge `(k + ½) · pitch`, so adjacent buckets alternate.
            2 => Cplx::new((p + 0.5) * pitch + jitter * pitch * 1e-3, 0.5),
            // Signed zeros (one bucket, four bit patterns).
            3 => Cplx::new(
                if pick % 2 == 0 { 0.0 } else { -0.0 },
                if jitter < 0.0 { -0.0 } else { 0.0 },
            ),
            // Non-finite parts: NaN quantizes to 0, ±∞ saturate.
            4 => {
                let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN];
                Cplx::new(odd[pick % 4], if pick < 6 { jitter } else { odd[pick / 4] })
            }
            // Everything else: a fresh bucket almost every time — what
            // fills the table, grows it and crosses the cap.
            _ => Cplx::new(jitter, 0.1 * p),
        }
    }

    fn ops() -> impl Strategy<Value = Vec<(usize, usize, f64)>> {
        prop::collection::vec((0usize..8, 0usize..12, any::<f64>()), 600)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // A cap of 40 makes a 600-call sequence cross it several times,
        // each crossing after the slot array has doubled (64 → 128).
        #[test]
        fn table_matches_the_hash_map_model(seq in ops(), cap in 1usize..90) {
            let tol = Tolerance::default();
            let mut table = RatioCanon::new().with_cap(cap);
            let mut model = Model { cap, ..Model::default() };
            let mut resets = 0;
            for op in seq {
                let r = ratio(tol, op);
                let (got_key, got, got_reset) = table.canonical(tol, r);
                let (key, want, reset) = model.canonical(tol, r);
                prop_assert_eq!(got_key, key);
                prop_assert_eq!(bits(got), bits(want));
                prop_assert_eq!(got_reset, reset);
                prop_assert_eq!(table.delta.len(), model.delta.len());
                prop_assert!(table.delta.len() * 2 <= table.delta.slots.len());
                resets += usize::from(reset);
            }
            prop_assert!(cap > 60 || resets > 0, "cap {} never crossed", cap);
        }

        // The same through a frozen tier: the first third of the
        // sequence builds the base that is frozen, the rest runs
        // layered over it.
        #[test]
        fn layered_table_matches_the_layered_model(seq in ops(), cap in 30usize..90) {
            let tol = Tolerance::default();
            let mut base = RatioCanon::new().with_cap(cap);
            let mut model = Model { cap, ..Model::default() };
            let (warm, run) = seq.split_at(200);
            for &op in warm {
                let r = ratio(tol, op);
                prop_assert_eq!(bits(base.canonical(tol, r).1), bits(model.canonical(tol, r).1));
            }
            let frozen = Arc::new(base.freeze());
            let mut model = model.freeze();
            prop_assert_eq!(frozen.len(), model.frozen.as_ref().map_or(0, HashMap::len));
            // Two packages over one snapshot canonicalize identically.
            let mut layered = [
                RatioCanon::with_frozen(Arc::clone(&frozen)).with_cap(cap),
                RatioCanon::with_frozen(Arc::clone(&frozen)).with_cap(cap),
            ];
            for &op in run {
                let r = ratio(tol, op);
                let (key, want, reset) = model.canonical(tol, r);
                for table in &mut layered {
                    let (got_key, got, got_reset) = table.canonical(tol, r);
                    prop_assert_eq!(got_key, key);
                    prop_assert_eq!(bits(got), bits(want));
                    prop_assert_eq!(got_reset, reset);
                    prop_assert_eq!(table.delta.len(), model.delta.len());
                }
            }
            prop_assert_eq!(frozen.len(), model.frozen.as_ref().map_or(0, HashMap::len));
        }
    }

    #[test]
    fn footprint_at_the_cap_is_what_the_comment_says() {
        let tol = Tolerance::default();
        let mut table = RatioCanon::new();
        assert_eq!(table.bytes(), 0, "no memory before the first ratio");
        for i in 0..RATIO_CANON_CAP {
            #[allow(clippy::cast_precision_loss)]
            let (_, _, reset) = table.canonical(tol, Cplx::new(i as f64 * 1e-6, 1.0));
            assert!(!reset);
        }
        assert_eq!(table.delta.len(), RATIO_CANON_CAP);
        assert_eq!(table.delta.slots.len(), 1 << 19);
        assert_eq!(table.bytes(), (8 << 20) + (64 << 10));
        assert!(table.canonical(tol, Cplx::ONE).2, "the next call resets");
        assert_eq!(table.delta.len(), 1);
        assert_eq!(table.bytes(), (8 << 20) + (64 << 10));
    }
}
