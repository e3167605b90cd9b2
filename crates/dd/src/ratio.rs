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
//! nothing but the values: a dense `Vec` of bare [`Cplx`] in insertion
//! order (16 bytes each), found through a power-of-two index of `u32`
//! slots (4 bytes each; `0` is vacant, `i + 1` names value `i` — any
//! bit pattern, NaN included, is a legal ratio, so no value could mark
//! a slot empty), open-addressed with linear probing and kept at ≤ 50 %
//! load. Only the index pays for the load factor. There is no deletion,
//! hence no tombstones. Like the unique table's, this layout is
//! invisible to results: a bucket has at most one representative,
//! whichever slot points at it.
//!
//! # Reset rule
//!
//! [`RatioCanon::canonical`] is the only entry point and is called once
//! per non-trivial `add`. A ratio whose bucket is already held is
//! answered and never resets anything. Only a call that would insert a
//! **new** bucket while the table holds [`RATIO_CANON_CAP`] entries past
//! its pinned prefix empties the table down to that prefix first and
//! reports `reset = true`, upon which the package clears the compute
//! table and the `mul_mv` memo: their results embed canonical-ratio
//! bits, so a surviving entry could disagree with a post-reset
//! recomputation.
//!
//! A reset gives the memory back. The index is rebuilt at the smallest
//! power of two that holds the prefix at ≤ 50 % load (at least 64
//! slots), and the value array keeps room for half of it, so the table
//! regrows by doubling from the size of what survived. Without a prefix
//! that frees the 6 MiB a table holds at the cap; the few hundred
//! ratios a Table I run adds after its reset sit in a 512-slot index.
//! Keeping the cap's capacity instead made the empty table cost as much
//! as a full one until the end of the run, when the arenas are fullest.
//! The layout is invisible to results, so the rebuild changes nothing
//! but the footprint: the survivors keep their positions, and
//! first-write-wins is untouched.
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
//! recursion).
//!
//! # The pinned prefix
//!
//! A table copied by [`crate::Package::fork`] pins the representatives
//! it was copied with: they are the first values in insertion order, a
//! reset keeps them, and they do not count toward the cap. A fork thus
//! canonicalizes every bucket its base had seen as the base did, and
//! when it resets depends only on the buckets it adds itself.

use std::hash::Hasher;

use approxdd_complex::{Cplx, Tolerance};

use crate::fasthash::FxHasher;

/// Entry cap of the canonical-ratio table past its pinned prefix. Index
/// slots double while `2 · entries` would exceed them, so at the cap a
/// table without a prefix holds 2^18 values (4 MiB) behind a 2^19-slot
/// index (2 MiB): 6 MiB (at most 7 MiB for the instant the last doubling
/// moves the values, then rebuilds the index). A new bucket at the cap
/// empties the table and the compute table and frees the 6 MiB: the
/// table starts again at the size its pinned prefix needs — see the
/// module docs.
pub(crate) const RATIO_CANON_CAP: usize = 1 << 18;

/// Index slots of a table's first allocation (power of two).
const INITIAL_SLOTS: usize = 64;

/// An insert-only open-addressed set of canonical ratios, at most one
/// per tolerance bucket (see the module docs).
#[derive(Debug, Default)]
struct RatioTable {
    /// The index: `0` is vacant, `i + 1` points at `values[i]`. Empty
    /// until the first insert, then a power of two.
    slots: Vec<u32>,
    /// Representatives in insertion order, with room reserved for half
    /// the index, so a push never reallocates.
    values: Vec<Cplx>,
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

/// Not derived: a derived clone would size the value array to its
/// length, and the next insert would move it.
impl Clone for RatioTable {
    fn clone(&self) -> Self {
        let mut values = Vec::with_capacity(self.slots.len() / 2);
        values.extend_from_slice(&self.values);
        Self {
            slots: self.slots.clone(),
            values,
        }
    }
}

impl RatioTable {
    /// Representatives held.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Bytes of the index and of the representatives held.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<Cplx>()
    }

    /// The index slot pointing at bucket `key`'s representative (and
    /// the representative's position), or the vacant slot where it
    /// belongs. `None` only for a table without an index.
    #[inline]
    fn probe(&self, tol: Tolerance, key: (i64, i64)) -> Option<(usize, Option<usize>)> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut idx = home(key, mask);
        loop {
            let Some(at) = (self.slots[idx] as usize).checked_sub(1) else {
                return Some((idx, None));
            };
            if tol.key(self.values[at]) == key {
                return Some((idx, Some(at)));
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The representative of bucket `key`, if the table holds one.
    #[inline]
    pub(crate) fn get(&self, tol: Tolerance, key: (i64, i64)) -> Option<Cplx> {
        let (_, at) = self.probe(tol, key)?;
        at.map(|at| self.values[at])
    }

    /// The representative of bucket `key` and its position in insertion
    /// order; the representative becomes `value` if the bucket had none
    /// (first write wins). `key` must be `tol.key(value)`.
    #[inline]
    pub(crate) fn get_or_insert(
        &mut self,
        tol: Tolerance,
        key: (i64, i64),
        value: Cplx,
    ) -> (Cplx, u32) {
        debug_assert!(tol.key(value) == key);
        let at = match self.probe(tol, key) {
            // `at + 1` is stored in a `u32` slot.
            #[allow(clippy::cast_possible_truncation)]
            Some((_, Some(at))) => return (self.values[at], at as u32),
            Some((idx, None)) if (self.len() + 1) * 2 <= self.slots.len() => self.place(idx, value),
            _ => {
                self.grow(tol);
                let (idx, _) = self.probe(tol, key).expect("a grown table has an index");
                self.place(idx, value)
            }
        };
        (value, at)
    }

    /// Appends `value` and points index slot `idx` at it; returns its
    /// position.
    fn place(&mut self, idx: usize, value: Cplx) -> u32 {
        debug_assert!(self.values.len() < self.values.capacity());
        self.values.push(value);
        let slot = u32::try_from(self.values.len()).expect("index slots fit in u32");
        self.slots[idx] = slot;
        slot - 1
    }

    /// Doubles the index (or provides the first one), reserves room for
    /// half of it in the value array, and points the new index at every
    /// representative.
    #[cold]
    fn grow(&mut self, tol: Tolerance) {
        let new_slots = (self.slots.len() * 2).max(INITIAL_SLOTS);
        self.values.reserve_exact(new_slots / 2 - self.values.len());
        self.reindex(tol, new_slots);
    }

    /// Forgets every representative but the first `keep` and gives the
    /// rest of the memory back: the index shrinks to the smallest one
    /// that holds `keep` at ≤ 50 % load, the value array to half of it.
    fn truncate(&mut self, tol: Tolerance, keep: usize) {
        let slots = (keep * 2).next_power_of_two().max(INITIAL_SLOTS);
        self.values.truncate(keep);
        self.values.shrink_to(slots / 2);
        self.reindex(tol, slots);
    }

    /// Replaces the index by a vacant one of `slots` slots and points it
    /// at every representative under its recomputed bucket.
    fn reindex(&mut self, tol: Tolerance, slots: usize) {
        // The old index goes before the new one is allocated.
        self.slots = Vec::new();
        self.slots = vec![0; slots];
        for (at, &value) in self.values.iter().enumerate() {
            let (idx, _) = self
                .probe(tol, tol.key(value))
                .expect("the index has slots");
            self.slots[idx] = u32::try_from(at + 1).expect("index slots fit in u32");
        }
    }
}

/// Canonical ratios of one package: a [`RatioTable`] whose first
/// `prefix` representatives are pinned (see the module docs).
#[derive(Debug)]
pub(crate) struct RatioCanon {
    table: RatioTable,
    /// Representatives a reset keeps: those [`RatioCanon::fork`] copied.
    prefix: usize,
    /// Entries past the prefix at which a new bucket makes
    /// [`RatioCanon::canonical`] reset ([`RATIO_CANON_CAP`]; tests
    /// shrink it to cross it often).
    cap: usize,
}

impl RatioCanon {
    pub(crate) fn new() -> Self {
        Self {
            table: RatioTable::default(),
            prefix: 0,
            cap: RATIO_CANON_CAP,
        }
    }

    /// A copy of this table whose every representative is pinned.
    pub(crate) fn fork(&self) -> Self {
        Self {
            table: self.table.clone(),
            prefix: self.table.len(),
            cap: self.cap,
        }
    }

    /// Bytes of the index and the representatives.
    pub(crate) fn bytes(&self) -> usize {
        self.table.bytes()
    }

    /// Canonicalizes `ratio`: its tolerance bucket, the bucket's
    /// representative, the representative's position in insertion order
    /// (one bucket's alone until the next reset), and whether this call
    /// reset the table (the caller must then clear every memoized result
    /// — see the module docs for the rule).
    #[inline]
    pub(crate) fn canonical(
        &mut self,
        tol: Tolerance,
        ratio: Cplx,
    ) -> ((i64, i64), Cplx, u32, bool) {
        let key = tol.key(ratio);
        // The second probe runs only at the cap, until the next new
        // bucket resets the table.
        let reset =
            self.table.len() - self.prefix >= self.cap && self.table.get(tol, key).is_none();
        if reset {
            self.table.truncate(tol, self.prefix);
        }
        let (value, position) = self.table.get_or_insert(tol, key, ratio);
        (key, value, position, reset)
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
    /// model: pinned-before-private probe order, a reset only for a new
    /// bucket at the cap, first-write-wins entry.
    #[derive(Default)]
    struct Model {
        pinned: Option<HashMap<(i64, i64), Cplx>>,
        delta: HashMap<(i64, i64), Cplx>,
        cap: usize,
    }

    impl Model {
        fn canonical(&mut self, tol: Tolerance, ratio: Cplx) -> ((i64, i64), Cplx, bool) {
            let key = tol.key(ratio);
            if let Some(&pinned) = self.pinned.as_ref().and_then(|f| f.get(&key)) {
                return (key, pinned, false);
            }
            let reset = self.delta.len() >= self.cap && !self.delta.contains_key(&key);
            if reset {
                self.delta.clear();
            }
            (key, *self.delta.entry(key).or_insert(ratio), reset)
        }

        fn fork(self) -> Self {
            Self {
                pinned: Some(self.delta),
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
                let (got_key, got, at, got_reset) = table.canonical(tol, r);
                let (key, want, reset) = model.canonical(tol, r);
                prop_assert_eq!(got_key, key);
                prop_assert_eq!(bits(got), bits(want));
                prop_assert_eq!(got_reset, reset);
                // The position names this bucket's representative.
                prop_assert_eq!(bits(table.table.values[at as usize]), bits(want));
                prop_assert_eq!(table.table.len(), model.delta.len());
                prop_assert!(table.table.len() * 2 <= table.table.slots.len());
                resets += usize::from(reset);
            }
            prop_assert!(cap > 60 || resets > 0, "cap {} never crossed", cap);
        }

        // The same through a fork: the first third of the sequence
        // builds the base that is forked, the rest runs on the forks.
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
            let mut model = model.fork();
            let pinned = model.pinned.as_ref().map_or(0, HashMap::len);
            prop_assert_eq!(base.table.len(), pinned);
            // Two forks of one base canonicalize identically.
            let mut forks = [base.fork(), base.fork()];
            for &op in run {
                let r = ratio(tol, op);
                let (key, want, reset) = model.canonical(tol, r);
                for table in &mut forks {
                    let (got_key, got, _, got_reset) = table.canonical(tol, r);
                    prop_assert_eq!(got_key, key);
                    prop_assert_eq!(bits(got), bits(want));
                    prop_assert_eq!(got_reset, reset);
                    prop_assert_eq!(table.table.len() - table.prefix, model.delta.len());
                }
            }
            prop_assert_eq!(base.table.len(), pinned, "a fork wrote to its base");
        }
    }

    #[test]
    fn footprint_at_the_cap_is_what_the_comment_says() {
        let tol = Tolerance::default();
        let mut table = RatioCanon::new();
        assert_eq!(table.bytes(), 0, "no memory before the first ratio");
        for i in 0..RATIO_CANON_CAP {
            #[allow(clippy::cast_precision_loss)]
            let (_, _, _, reset) = table.canonical(tol, Cplx::new(i as f64 * 1e-6, 1.0));
            assert!(!reset);
        }
        assert_eq!(table.table.len(), RATIO_CANON_CAP);
        assert_eq!(table.table.slots.len(), 1 << 19);
        assert_eq!(table.table.values.capacity(), RATIO_CANON_CAP);
        assert_eq!(table.bytes(), (2 << 20) + (4 << 20), "6 MiB");
        assert!(table.canonical(tol, Cplx::ONE).3, "the next call resets");
        assert_eq!(table.table.len(), 1);
        // The reset gave the 6 MiB back: a table without a prefix starts
        // again at its first allocation.
        assert_eq!(table.table.slots.len(), INITIAL_SLOTS);
        assert_eq!(table.bytes(), INITIAL_SLOTS * 4 + 16);
        assert_eq!(table.table.values.capacity(), INITIAL_SLOTS / 2);
    }

    #[test]
    fn a_reset_shrinks_to_what_the_pinned_prefix_needs() {
        let tol = Tolerance::default();
        #[allow(clippy::cast_precision_loss)]
        let ratio = |i: usize| Cplx::new(i as f64 * 1e-6, 1.0);
        let mut base = RatioCanon::new();
        for i in 0..300 {
            base.canonical(tol, ratio(i));
        }
        let mut fork = base.fork().with_cap(2_000);
        let positions: Vec<u32> = (0..300).map(|i| fork.canonical(tol, ratio(i)).2).collect();
        for i in 300..2_300 {
            assert!(!fork.canonical(tol, ratio(i)).3);
        }
        assert_eq!(fork.table.slots.len(), 8192);
        assert!(
            fork.canonical(tol, ratio(2_300)).3,
            "a new bucket at the cap resets"
        );
        // 300 pinned values and one new one: 1024 slots hold them at
        // ≤ 50 % load, 512 do not.
        assert_eq!(fork.table.len(), 301);
        assert_eq!(fork.table.slots.len(), 1024);
        assert_eq!(fork.table.values.capacity(), 512);
        assert_eq!(fork.bytes(), 1024 * 4 + 301 * 16);
        // The pinned values kept their positions and their buckets.
        for (i, &position) in positions.iter().enumerate() {
            let (_, value, at, reset) = fork.canonical(tol, ratio(i));
            assert!(!reset);
            assert_eq!(at, position);
            assert_eq!(bits(value), bits(ratio(i)));
        }
    }
}
