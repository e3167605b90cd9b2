//! Per-level, open-addressed unique tables.
//!
//! The unique table is what makes decision diagrams canonical: every
//! `make_vnode`/`make_mnode` call asks it "does a node with these
//! (tolerance-quantized) children already exist?". Earlier revisions
//! answered through a growable `HashMap<Key, u32>` whose keys inlined
//! the full quantized child description (40+ bytes each) and whose
//! entry API costs showed up directly in node-construction profiles.
//!
//! This module stores the canonical nodes the way production DD
//! packages do:
//!
//! * **One table per level.** Nodes at different qubit levels can never
//!   be equal, so each level gets its own bucket array and the level
//!   byte drops out of every key and comparison.
//! * **Open addressing, linear probing.** Buckets are a flat
//!   power-of-two array of `(tag, node id)` pairs — 8 bytes each —
//!   probed linearly. The full key is **not** stored: the node payload
//!   already lives in the arena, so equality is decided by comparing
//!   the candidate node's children against the probe key (the caller
//!   supplies the comparison as a closure over the arena). The tag is
//!   the upper half of the 64-bit key hash; it picks the home bucket
//!   and pre-filters probes, so full comparisons stay rare. Two keys
//!   sharing a tag merely cost one extra comparison.
//! * **Load-factor-triggered resize.** Past ~70 % occupancy a level
//!   rebuilds its bucket array at twice its live entry count (25–50 %
//!   load afterwards) and re-seats entries from their stored tags — no
//!   key re-derivation, no arena access.
//! * **Tombstone deletion.** Garbage collection unlinks its victims in
//!   one sequential pass over every level's buckets
//!   ([`UniqueTable::retain`]), tombstoning each entry whose node it
//!   does not keep — no key is re-derived, no probe chain followed.
//!   Tombstones keep probe chains intact and are recycled by inserts
//!   and dropped wholesale on resize.
//!
//! Unlike the compute table ([`crate::ctable`]), unique tables are
//! **exact**: an entry is never lost while its node is alive, which is
//! what keeps canonicalization — and therefore results — independent
//! of cache configuration. Which bucket an entry sits in, and how full
//! a level is, can never reach a result: a key has at most one entry,
//! so a lookup's answer does not depend on the probe order. That is
//! also why [`crate::Package::fork`] can copy the table as it stands:
//! the copy answers every key as the original would.

/// Bucket holding no entry (never a valid node id: the arena refuses to
/// grow that far).
const EMPTY: u32 = u32::MAX;
/// Bucket whose entry was deleted (probe chains continue through it).
const TOMBSTONE: u32 = u32::MAX - 1;

/// Initial bucket count per level (power of two).
const INITIAL_BUCKETS: usize = 64;

/// Numerator/denominator of the maximum load factor (entries +
/// tombstones over buckets) before a level resizes: 7/10.
const MAX_LOAD_NUM: usize = 7;
const MAX_LOAD_DEN: usize = 10;

/// One slot of a level: the entry's hash tag beside its node id (or one
/// of the [`EMPTY`]/[`TOMBSTONE`] sentinels, whose tag means nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    tag: u32,
    id: u32,
}

const VACANT: Bucket = Bucket { tag: 0, id: EMPTY };

/// The stored part of a key hash: its upper 32 bits (the best-mixed
/// ones of the multiply–xor hasher).
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Level {
    buckets: Vec<Bucket>,
    /// Live entries.
    len: usize,
    /// Tombstoned buckets (reclaimed on resize).
    tombstones: usize,
}

impl Level {
    fn with_buckets(buckets: usize) -> Self {
        debug_assert!(buckets.is_power_of_two());
        Self {
            buckets: vec![VACANT; buckets],
            len: 0,
            tombstones: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.buckets.len() - 1
    }

    /// Finds the id of the entry with this tag satisfying `eq`, if any.
    #[inline]
    fn lookup(&self, tag: u32, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.buckets.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut idx = tag as usize & mask;
        loop {
            let bucket = self.buckets[idx];
            match bucket.id {
                EMPTY => return None,
                TOMBSTONE => {}
                id => {
                    if bucket.tag == tag && eq(id) {
                        return Some(id);
                    }
                }
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Inserts an entry known to be absent (call after a failed
    /// [`Level::lookup`] with the same tag).
    fn insert(&mut self, tag: u32, id: u32) {
        debug_assert!(id < TOMBSTONE, "node id collides with a sentinel");
        if (self.len + self.tombstones + 1) * MAX_LOAD_DEN > self.buckets.len() * MAX_LOAD_NUM {
            self.resize();
        }
        let mask = self.mask();
        let mut idx = tag as usize & mask;
        loop {
            match self.buckets[idx].id {
                EMPTY => break,
                TOMBSTONE => {
                    self.tombstones -= 1;
                    break;
                }
                _ => idx = (idx + 1) & mask,
            }
        }
        self.buckets[idx] = Bucket { tag, id };
        self.len += 1;
    }

    /// Tombstones every entry whose id `keep` rejects, in bucket order.
    fn retain(&mut self, keep: &mut impl FnMut(u32) -> bool) {
        let mut dropped = 0;
        for bucket in &mut self.buckets {
            if bucket.id < TOMBSTONE && !keep(bucket.id) {
                bucket.id = TOMBSTONE;
                dropped += 1;
            }
        }
        self.len -= dropped;
        self.tombstones += dropped;
    }

    /// Tombstones the entry for `id` under `tag`. Returns whether it
    /// was present.
    #[cfg(test)]
    fn remove(&mut self, tag: u32, id: u32) -> bool {
        if self.buckets.is_empty() {
            return false;
        }
        let mask = self.mask();
        let mut idx = tag as usize & mask;
        loop {
            match self.buckets[idx].id {
                EMPTY => return false,
                cand => {
                    if cand == id {
                        self.buckets[idx].id = TOMBSTONE;
                        self.len -= 1;
                        self.tombstones += 1;
                        return true;
                    }
                    idx = (idx + 1) & mask;
                }
            }
        }
    }

    /// Rebuilds the bucket array sized to the *live* entry count (2×
    /// headroom, so 25–50 % load), re-seating entries from their stored
    /// tags and dropping tombstones. Sizing from `len` instead of
    /// doubling blindly keeps delete-heavy churn (GC sweeps) from
    /// growing the table when tombstones, not entries, tripped the load
    /// factor — and lets a level shrink after a large collection.
    fn resize(&mut self) {
        let new_buckets = (self.len * 2).next_power_of_two().max(INITIAL_BUCKETS);
        let old = std::mem::replace(&mut self.buckets, vec![VACANT; new_buckets]);
        self.tombstones = 0;
        let mask = new_buckets - 1;
        for bucket in old {
            if bucket.id == EMPTY || bucket.id == TOMBSTONE {
                continue;
            }
            let mut idx = bucket.tag as usize & mask;
            while self.buckets[idx].id != EMPTY {
                idx = (idx + 1) & mask;
            }
            self.buckets[idx] = bucket;
        }
    }
}

/// A per-level open-addressed unique table (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct UniqueTable {
    levels: Vec<Level>,
}

impl UniqueTable {
    pub(crate) fn new() -> Self {
        Self { levels: Vec::new() }
    }

    /// Looks up the node with key-hash `hash` at `var`, deciding full
    /// equality through `eq` (a closure comparing a candidate node's
    /// arena payload against the probe key).
    #[inline]
    pub(crate) fn lookup(&self, var: u8, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        self.levels
            .get(usize::from(var))
            .and_then(|level| level.lookup(tag_of(hash), eq))
    }

    /// Registers a freshly allocated node (call after a failed
    /// [`UniqueTable::lookup`] with the same `var`/`hash`).
    pub(crate) fn insert(&mut self, var: u8, hash: u64, id: u32) {
        let var = usize::from(var);
        if self.levels.len() <= var {
            self.levels
                .resize_with(var + 1, || Level::with_buckets(INITIAL_BUCKETS));
        }
        self.levels[var].insert(tag_of(hash), id);
    }

    /// Drops every entry whose node id `keep` rejects: one sequential
    /// pass over each level's buckets. Each dropped entry becomes a
    /// tombstone, exactly as [`UniqueTable::remove`] of its id would
    /// leave it.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        for level in &mut self.levels {
            level.retain(&mut keep);
        }
    }

    /// Drops a swept node's entry, found by its key hash. Returns
    /// whether it was present. The collector's reference unlink, and
    /// the tests', not the collector's own: see [`UniqueTable::retain`].
    #[cfg(test)]
    pub(crate) fn remove(&mut self, var: u8, hash: u64, id: u32) -> bool {
        self.levels
            .get_mut(usize::from(var))
            .is_some_and(|level| level.remove(tag_of(hash), id))
    }

    /// Live entries across all levels.
    pub(crate) fn len(&self) -> usize {
        self.levels.iter().map(|l| l.len).sum()
    }

    /// Total buckets across all levels.
    pub(crate) fn capacity(&self) -> usize {
        self.levels.iter().map(|l| l.buckets.len()).sum()
    }

    /// Bytes of the bucket arrays.
    pub(crate) fn bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<Bucket>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_insert_remove_roundtrip() {
        let mut t = UniqueTable::new();
        assert_eq!(t.lookup(3, 0xABCD, |_| true), None);
        t.insert(3, 0xABCD, 7);
        assert_eq!(t.lookup(3, 0xABCD, |id| id == 7), Some(7));
        // Same hash, different payload: the eq closure rejects it.
        assert_eq!(t.lookup(3, 0xABCD, |_| false), None);
        // Other levels are independent.
        assert_eq!(t.lookup(2, 0xABCD, |_| true), None);
        assert!(t.remove(3, 0xABCD, 7));
        assert!(!t.remove(3, 0xABCD, 7));
        assert_eq!(t.lookup(3, 0xABCD, |_| true), None);
    }

    #[test]
    fn colliding_hashes_coexist() {
        let mut t = UniqueTable::new();
        // Identical hash, distinct nodes: linear probing must keep both.
        t.insert(0, 42, 1);
        t.insert(0, 42, 2);
        assert_eq!(t.lookup(0, 42, |id| id == 1), Some(1));
        assert_eq!(t.lookup(0, 42, |id| id == 2), Some(2));
        assert_eq!(t.len(), 2);
        // Removing one leaves the probe chain intact for the other.
        assert!(t.remove(0, 42, 1));
        assert_eq!(t.lookup(0, 42, |id| id == 2), Some(2));
    }

    #[test]
    fn equal_tags_coexist_and_survive_a_resize() {
        // Only the upper 32 hash bits are stored: these two keys share
        // a tag (and a home bucket) and differ in the dropped half.
        let (h1, h2) = (0xDEAD_BEEF_0000_0001_u64, 0xDEAD_BEEF_FFFF_FFFE_u64);
        assert_eq!(tag_of(h1), tag_of(h2));
        let mut t = UniqueTable::new();
        t.insert(0, h1, 1);
        t.insert(0, h2, 2);
        let buckets = t.capacity();
        for i in 10..200u32 {
            t.insert(0, u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        }
        assert!(t.capacity() > buckets, "the level was rebuilt");
        assert_eq!(t.lookup(0, h1, |id| id == 1), Some(1));
        assert_eq!(t.lookup(0, h2, |id| id == 2), Some(2));
        assert!(t.remove(0, h1, 1));
        assert_eq!(t.lookup(0, h1, |id| id == 1), None);
        assert_eq!(t.lookup(0, h2, |id| id == 2), Some(2));
        assert_eq!(t.len(), 191);
    }

    #[test]
    fn resize_targets_twice_the_live_entries() {
        let mut t = UniqueTable::new();
        for i in 0..10_000u32 {
            t.insert(0, u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            let (len, buckets) = (t.len(), t.capacity());
            assert!(len * MAX_LOAD_DEN <= buckets * MAX_LOAD_NUM, "load ceiling");
            assert!(
                buckets == INITIAL_BUCKETS || buckets < 4 * len,
                "{buckets} buckets for {len} entries"
            );
        }
        assert_eq!(t.bytes(), t.capacity() * 8, "8 bytes a bucket");
    }

    #[test]
    fn tombstone_heavy_churn_does_not_grow_a_level() {
        // A GC-shaped workload: a stable population of 1000 entries of
        // which 900 are swept and replaced by new ones, over and over.
        // Tombstones trip the load factor; entries never justify growth.
        let hash = |id: u32| u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut t = UniqueTable::new();
        for id in 0..1000u32 {
            t.insert(0, hash(id), id);
        }
        let settled = t.capacity();
        assert_eq!(settled, 2048);
        let mut next = 1000u32;
        let mut live: Vec<u32> = (0..1000).collect();
        for _ in 0..200 {
            for id in live.drain(100..) {
                assert!(t.remove(0, hash(id), id));
            }
            for _ in 0..900 {
                t.insert(0, hash(next), next);
                live.push(next);
                next += 1;
            }
            assert_eq!(t.len(), 1000);
            assert!(t.capacity() <= settled, "grew to {}", t.capacity());
        }
        for &id in &live {
            assert_eq!(t.lookup(0, hash(id), |cand| cand == id), Some(id));
        }
    }

    #[test]
    fn grows_past_load_factor() {
        let mut t = UniqueTable::new();
        let n = 10_000u32;
        for i in 0..n {
            // Spread-out hashes: multiply by a large odd constant.
            t.insert(0, u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
        }
        assert_eq!(t.len(), n as usize);
        assert!(t.capacity() >= n as usize);
        for i in 0..n {
            let h = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            assert_eq!(t.lookup(0, h, |id| id == i), Some(i), "entry {i}");
        }
    }

    /// A copy answers every key of the original and then goes its own
    /// way: what one inserts or removes, the other does not see.
    #[test]
    fn frozen_tier_resolves_after_delta_miss() {
        let mut base = UniqueTable::new();
        base.insert(2, 0x1111, 4);
        base.insert(2, 0x2222, 5);

        let mut t = base.clone();
        assert_eq!(t.lookup(2, 0x1111, |id| id == 4), Some(4));
        assert_eq!(t.len(), 2);
        t.insert(2, 0x3333, 9);
        assert_eq!(t.lookup(2, 0x3333, |id| id == 9), Some(9));
        assert_eq!(t.len(), 3);
        assert_eq!(base.lookup(2, 0x3333, |id| id == 9), None);
        assert!(t.remove(2, 0x1111, 4));
        assert_eq!(base.lookup(2, 0x1111, |id| id == 4), Some(4));

        // A second copy holds the original's entries, not the first's.
        let t2 = base.clone();
        assert_eq!(t2.lookup(2, 0x2222, |id| id == 5), Some(5));
        assert_eq!(t2.len(), 2);
    }

    /// One scan tombstones exactly the buckets removing each rejected
    /// id would, whatever the probe chains look like.
    #[test]
    fn retain_tombstones_what_removal_would() {
        let hash = |id: u32| u64::from(id % 13).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut t = UniqueTable::new();
        for id in 0..400u32 {
            t.insert((id % 3) as u8, hash(id), id);
        }
        // Some tombstones beforehand, which both must step over.
        for id in (0..400u32).filter(|id| id.is_multiple_of(7)) {
            assert!(t.remove((id % 3) as u8, hash(id), id));
        }
        let keep = |id: u32| id % 5 != 1 && !id.is_multiple_of(7);
        let mut removed = t.clone();
        for id in (0..400u32).filter(|&id| !keep(id) && !id.is_multiple_of(7)) {
            assert!(removed.remove((id % 3) as u8, hash(id), id));
        }
        t.retain(keep);
        assert_eq!(t, removed);
        assert_eq!(t.len(), (0..400u32).filter(|&id| keep(id)).count());
    }

    #[test]
    fn tombstones_are_recycled_by_inserts() {
        let mut t = UniqueTable::new();
        for round in 0..50u32 {
            for i in 0..40u32 {
                t.insert(1, u64::from(i % 8), round * 40 + i);
            }
            for i in 0..40u32 {
                assert!(t.remove(1, u64::from(i % 8), round * 40 + i));
            }
        }
        assert_eq!(t.len(), 0);
        // Churn with only 8 distinct hashes must not balloon capacity:
        // tombstone recycling + resize cleanup keep it bounded.
        assert!(t.capacity() <= 1 << 12, "capacity {}", t.capacity());
    }
}
