//! Fixed-capacity, direct-mapped **lossy** compute caches.
//!
//! The compute tables memoize the results of the recursive DD
//! operations `add`, `mul_mm` and `inner_product` across calls.
//! (`mul_mv` memoizes in a map that lives for one `Package::apply`:
//! measured on the Table I workloads, its lookups almost never hit an
//! entry an earlier call wrote, so a global table of its own only cost
//! memory — see `crate::ops`.) Earlier
//! revisions used growable hash maps with a wholesale clear past an
//! entry cap; that design pays allocation, rehashing, and entry-API
//! overhead on the hottest loop of the simulator, and the cap-triggered
//! clears made hit-rate numbers incomparable across runs. This module
//! replaces them with the design production DD packages (the MQT
//! DDSIM lineage) use:
//!
//! * **Fixed capacity, direct-mapped.** A flat slot array of
//!   `2^bits` entries indexed by `hash & mask`. No probing, no
//!   buckets, no growth: a lookup is one hash, one masked index, one
//!   key compare.
//! * **Overwrite on collision (lossy).** Two live keys that map to the
//!   same slot simply evict each other. Losing an entry is always
//!   safe: the operation recomputes the result from the (immutable)
//!   node structure, and recomputation is bit-deterministic — the
//!   unique table canonicalizes nodes independently of the memoization
//!   pattern, so a lossy cache can cost time, never correctness.
//! * **Generation-stamped clearing.** Every slot carries the
//!   generation at which it was written; [`ComputeCache::clear`] bumps
//!   the cache's current generation, invalidating every slot in O(1)
//!   instead of freeing buckets. Garbage collection — which must drop
//!   all memoized results because they may reference freed nodes —
//!   becomes a single integer increment per table.
//!
//! Hit/miss accounting lives *inside* [`ComputeCache::lookup`]: every
//! lookup increments exactly one of the two counters, so hit rates are
//! uniform across operation implementations and comparable across runs
//! regardless of how often the tables were cleared.
//!
//! # Provisioning: memory is O(touched), not O(capacity)
//!
//! A package is built per job, and most jobs never consult two of the
//! three tables, so the slot array is **not** part of construction:
//!
//! * **First-insert materialisation.** A new cache owns no slot memory.
//!   A lookup on it counts one miss and returns `None` — exactly what a
//!   filled-but-empty array would answer — and the first
//!   [`ComputeCache::insert`] provides the array. [`CtStats::capacity`]
//!   reports the configured `2^bits` throughout.
//! * **Per-thread recycling.** A dropped cache retires its slot array
//!   (a *slab*) to a thread-local free list, and the next cache of the
//!   same slot type and capacity to materialise on that thread takes it
//!   over at `generation = slab's last generation + 1`. Every slot the
//!   previous owner wrote is dead by the same O(1) argument as
//!   `clear()` (with the same hard reset at wrap), so after a worker's
//!   first job there is no allocation, no fill and no page fault.
//!
//! Neither can change a result: capacity, index function, counters and
//! eviction are untouched, and a recycled slab is indistinguishable
//! from a fresh one — both answer every lookup with a miss until the
//! new owner inserts.
//!
//! **Retention bound.** The free list keeps at most one slab per slot
//! type (a newly retired slab replaces a held one), so a thread retains
//! at most one engine's tables — 8 MiB at the default 2^16 slots if
//! all three materialised — until it exits. Retiring during thread
//! teardown, when the list is already gone, just frees the slab.

use std::any::Any;
use std::cell::RefCell;
use std::hash::{Hash, Hasher};

use approxdd_complex::Cplx;

use crate::edge::{MEdge, VEdge};
use crate::fasthash::FxHasher;
use crate::package::PackageStats;

/// Default `log2` capacity of each compute cache (65 536 slots).
const DEFAULT_COMPUTE_CACHE_BITS: u32 = 16;
/// Smallest accepted `log2` capacity (4 slots) — tiny caches are valid
/// (just slow), and the equivalence test suite runs them on purpose.
const MIN_COMPUTE_CACHE_BITS: u32 = 2;
/// Largest accepted `log2` capacity (64 Mi slots) — beyond this the
/// slot array itself stops fitting in reasonable memory.
const MAX_COMPUTE_CACHE_BITS: u32 = 26;

/// Counters of one compute cache, exposed through
/// [`crate::PackageStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtStats {
    /// Lookups that returned a memoized result.
    pub hits: u64,
    /// Lookups that found nothing (followed by recomputation + insert).
    pub misses: u64,
    /// Slots currently holding a live (current-generation) entry.
    pub(crate) occupancy: usize,
    /// Total slots the cache is configured for (fixed at construction;
    /// their memory is provided on the first insert).
    pub(crate) capacity: usize,
}

#[derive(Debug, Clone, Copy)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Generation at which this slot was written; `0` means never.
    stamp: u32,
}

/// A retired slot array and the last generation its owner stamped.
struct Slab<K, V> {
    slots: Vec<Slot<K, V>>,
    generation: u32,
}

thread_local! {
    /// This thread's retired slabs, at most one per slot type (see
    /// "Provisioning" in the module docs).
    static RETIRED: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// Takes this thread's retired `(K, V)` slab if it has `capacity` slots.
fn take_retired<K: 'static, V: 'static>(capacity: usize) -> Option<Slab<K, V>> {
    RETIRED
        .try_with(|retired| {
            let mut retired = retired.borrow_mut();
            let at = retired.iter().position(|held| {
                held.downcast_ref::<Slab<K, V>>()
                    .is_some_and(|slab| slab.slots.len() == capacity)
            })?;
            retired.swap_remove(at).downcast().ok().map(|slab| *slab)
        })
        .ok()
        .flatten()
}

/// Hands `slab` to this thread's free list, replacing a held slab of
/// the same slot type; during thread teardown it is simply freed.
fn retire<K: 'static, V: 'static>(slab: Slab<K, V>) {
    let _ = RETIRED.try_with(|retired| {
        let mut retired = retired.borrow_mut();
        let slab: Box<dyn Any> = Box::new(slab);
        match retired.iter_mut().find(|held| held.is::<Slab<K, V>>()) {
            Some(held) => *held = slab,
            None => retired.push(slab),
        }
    });
}

/// A direct-mapped lossy cache from `K` to `V` (see the module docs).
#[derive(Debug)]
pub(crate) struct ComputeCache<K: 'static, V: 'static> {
    /// Empty until the first insert.
    slots: Vec<Slot<K, V>>,
    /// What a never-written slot holds; stamp 0 is dead in every
    /// generation, so its key and value are never observable.
    vacant: Slot<K, V>,
    mask: u64,
    /// Current generation; slots stamped with anything else are dead.
    /// Starts at 1 so the zero-initialized stamps read as empty.
    generation: u32,
    hits: u64,
    misses: u64,
    occupancy: usize,
}

impl<K: Copy + Eq + Hash, V: Copy> ComputeCache<K, V> {
    /// Creates a cache configured for `2^bits` slots (clamped to the
    /// supported range). The `filler` pair is what vacant slots hold.
    pub(crate) fn new(bits: u32, filler_key: K, filler_value: V) -> Self {
        let bits = bits.clamp(MIN_COMPUTE_CACHE_BITS, MAX_COMPUTE_CACHE_BITS);
        Self {
            slots: Vec::new(),
            vacant: Slot {
                key: filler_key,
                value: filler_value,
                stamp: 0,
            },
            mask: (1u64 << bits) - 1,
            generation: 1,
            hits: 0,
            misses: 0,
            occupancy: 0,
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    #[inline]
    fn index(&self, key: &K) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        #[allow(clippy::cast_possible_truncation)]
        {
            (h.finish() & self.mask) as usize
        }
    }

    /// Looks up `key`, counting the outcome (the **only** place hits
    /// and misses are counted — see the module docs). An unmaterialised
    /// cache has no slot at any index, which reads as a miss.
    #[inline]
    pub(crate) fn lookup(&mut self, key: &K) -> Option<V> {
        match self.slots.get(self.index(key)) {
            Some(slot) if slot.stamp == self.generation && slot.key == *key => {
                self.hits += 1;
                Some(slot.value)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) the slot `key` maps to.
    #[inline]
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.slots.is_empty() {
            self.materialise();
        }
        let idx = self.index(&key);
        let generation = self.generation;
        let slot = &mut self.slots[idx];
        if slot.stamp != generation {
            self.occupancy += 1;
        }
        *slot = Slot {
            key,
            value,
            stamp: generation,
        };
    }

    /// Provides the slot array: this thread's retired slab of the same
    /// shape if there is one, a freshly filled array otherwise.
    #[cold]
    fn materialise(&mut self) {
        let capacity = self.capacity();
        if let Some(slab) = take_retired(capacity) {
            self.slots = slab.slots;
            // Continue one past the last generation the previous owner
            // stamped: everything it wrote is dead, as after `clear()`.
            self.generation = slab.generation;
            self.clear();
            approxdd_telemetry::count("approxdd_dd_cache_slabs_recycled_total", 1);
        } else {
            self.slots = vec![self.vacant; capacity];
            approxdd_telemetry::count("approxdd_dd_cache_slabs_allocated_total", 1);
        }
    }

    /// Invalidates every entry in O(1) by bumping the generation.
    /// Hit/miss counters are *not* reset: they describe the package's
    /// lifetime, so rates stay comparable across GC cycles.
    pub(crate) fn clear(&mut self) {
        self.occupancy = 0;
        if self.generation == u32::MAX {
            // Once every 4 billion clears: hard-reset the stamps so the
            // generation can wrap without resurrecting ancient entries.
            for slot in &mut self.slots {
                slot.stamp = 0;
            }
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// Keys of the live (current-generation) entries, for tests that
    /// check what a table is asked to remember.
    #[cfg(test)]
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = K> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.stamp == self.generation)
            .map(|slot| slot.key)
    }

    /// Bytes of the slot array: 0 until the first insert materialises it.
    fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot<K, V>>()
    }

    /// Counter snapshot for [`crate::PackageStats`].
    pub(crate) fn stats(&self) -> CtStats {
        CtStats {
            hits: self.hits,
            misses: self.misses,
            occupancy: self.occupancy,
            capacity: self.capacity(),
        }
    }
}

impl<K: 'static, V: 'static> Drop for ComputeCache<K, V> {
    fn drop(&mut self) {
        if !self.slots.is_empty() {
            retire(Slab {
                slots: std::mem::take(&mut self.slots),
                generation: self.generation,
            });
        }
    }
}

/// The three compute caches of one [`crate::Package`].
#[derive(Debug)]
pub(crate) struct ComputeCaches {
    pub(crate) add: ComputeCache<(u32, u32, u64, u64), VEdge>,
    pub(crate) mul_mm: ComputeCache<(u32, u32), MEdge>,
    pub(crate) inner: ComputeCache<(u32, u32), Cplx>,
}

impl ComputeCaches {
    /// Three caches of `2^cache_bits` slots each (`None` → the default
    /// 2^16), clamped to the supported `[2, 26]` range.
    pub(crate) fn new(cache_bits: Option<u32>) -> Self {
        let bits = cache_bits.unwrap_or(DEFAULT_COMPUTE_CACHE_BITS);
        let no_key = (u32::MAX, u32::MAX);
        Self {
            add: ComputeCache::new(bits, (u32::MAX, u32::MAX, 0, 0), VEdge::ZERO),
            mul_mm: ComputeCache::new(bits, no_key, MEdge::ZERO),
            inner: ComputeCache::new(bits, no_key, Cplx::ZERO),
        }
    }

    /// Drops all memoized operation results (mandatory after GC). An
    /// O(1) generation bump per cache — nothing is freed or rehashed.
    pub(crate) fn clear(&mut self) {
        self.add.clear();
        self.mul_mm.clear();
        self.inner.clear();
    }

    /// Bytes of the materialised slot arrays.
    pub(crate) fn bytes(&self) -> usize {
        self.add.bytes() + self.mul_mm.bytes() + self.inner.bytes()
    }

    /// Writes the per-table counters and their totals into `stats`.
    pub(crate) fn report(&self, stats: &mut PackageStats) {
        stats.ct_add = self.add.stats();
        stats.ct_mul_mm = self.mul_mm.stats();
        stats.ct_inner = self.inner.stats();
        let tables = [stats.ct_add, stats.ct_mul_mm, stats.ct_inner];
        stats.ct_hits = tables.iter().map(|t| t.hits).sum();
        stats.ct_misses = tables.iter().map(|t| t.misses).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestCache = ComputeCache<(u32, u32), u64>;

    fn cache(bits: u32) -> TestCache {
        ComputeCache::new(bits, (u32::MAX, u32::MAX), 0)
    }

    /// Runs `f` on a thread of its own, so the free list it sees starts
    /// empty whatever the test harness ran on this thread before.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread panicked");
    }

    #[test]
    fn lookup_after_insert_hits() {
        let mut c = cache(4);
        assert_eq!(c.lookup(&(1, 2)), None);
        c.insert((1, 2), 42);
        assert_eq!(c.lookup(&(1, 2)), Some(42));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.occupancy, s.capacity), (1, 1, 1, 16));
    }

    #[test]
    fn collisions_overwrite_lossily() {
        // A 1-slot-per-hash worst case: with 4 slots, distinct keys
        // must eventually collide; the newer entry wins and the older
        // one just misses (never a wrong value).
        let mut c = cache(MIN_COMPUTE_CACHE_BITS);
        for i in 0..64u32 {
            c.insert((i, i), u64::from(i));
        }
        for i in 0..64u32 {
            if let Some(v) = c.lookup(&(i, i)) {
                assert_eq!(v, u64::from(i), "stale value for key {i}");
            }
        }
        assert!(c.stats().occupancy <= 4);
    }

    #[test]
    fn clear_is_generation_bump() {
        let mut c = cache(4);
        c.insert((7, 7), 7);
        assert_eq!(c.lookup(&(7, 7)), Some(7));
        c.clear();
        assert_eq!(c.lookup(&(7, 7)), None, "cleared entry must be dead");
        assert_eq!(c.stats().occupancy, 0);
        // Counters survive the clear (lifetime accounting).
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        // The cache keeps working after the bump.
        c.insert((7, 7), 9);
        assert_eq!(c.lookup(&(7, 7)), Some(9));
    }

    #[test]
    fn generation_wrap_resets_stamps() {
        let mut c = cache(2);
        c.insert((1, 1), 1);
        c.generation = u32::MAX; // simulate 4 billion clears
        c.clear();
        assert_eq!(c.generation, 1);
        // The stale stamp (written at generation 1 originally) was
        // hard-reset, so the old entry cannot resurrect.
        assert_eq!(c.lookup(&(1, 1)), None);
    }

    #[test]
    fn bits_are_clamped() {
        assert_eq!(cache(0).stats().capacity, 1 << MIN_COMPUTE_CACHE_BITS);
        assert_eq!(cache(60).stats().capacity, 1 << MAX_COMPUTE_CACHE_BITS);
    }

    #[test]
    fn unmaterialised_cache_counts_misses_and_owns_no_slots() {
        let mut c = cache(10);
        assert_eq!(
            (c.stats().occupancy, c.stats().capacity),
            (0, 1 << 10),
            "configured capacity is reported before any slot exists"
        );
        for i in 0..5u32 {
            assert_eq!(c.lookup(&(i, i)), None);
        }
        c.clear(); // a clear before the first insert is harmless
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses, s.occupancy, s.capacity),
            (0, 5, 0, 1 << 10)
        );
        assert_eq!(c.slots.capacity(), 0, "no slot memory before an insert");

        c.insert((1, 1), 1);
        assert_eq!(c.slots.len(), 1 << 10);
        assert_eq!(c.lookup(&(1, 1)), Some(1));
        assert_eq!(c.stats().capacity, 1 << 10);
    }

    #[test]
    fn recycled_slab_misses_on_every_old_key() {
        on_fresh_thread(|| {
            let mut first = cache(6);
            for i in 0..200u32 {
                first.insert((i, i), u64::from(i));
            }
            first.clear();
            first.insert((7, 7), 7);
            let last_generation = first.generation;
            drop(first);

            let mut second = cache(6);
            assert!(second.slots.is_empty());
            second.insert((1000, 1000), 1);
            assert_eq!(
                second.generation,
                last_generation + 1,
                "the retired slab was taken over, one generation on"
            );
            assert_eq!(second.stats().occupancy, 1, "old entries are not live");
            for i in 0..200u32 {
                assert_eq!(second.lookup(&(i, i)), None, "old key {i} resurrected");
            }
            let s = second.stats();
            assert_eq!((s.hits, s.misses), (0, 200), "counters start from zero");
            assert_eq!(second.lookup(&(1000, 1000)), Some(1));
        });
    }

    #[test]
    fn slab_retired_at_generation_wrap_is_hard_reset() {
        on_fresh_thread(|| {
            let mut first = cache(3);
            first.generation = u32::MAX; // simulate 4 billion clears
            first.insert((1, 1), 1);
            drop(first);

            // Generation 1 again: without the reset, a slot stamped 1
            // by an earlier owner of the slab could read as live.
            let mut second = cache(3);
            second.insert((2, 2), 2);
            assert_eq!(second.generation, 1);
            assert_eq!(second.lookup(&(1, 1)), None);
            let live = second.slots.iter().filter(|s| s.stamp != 0).count();
            assert_eq!(live, 1, "every stamp but the new entry's was reset");
        });
    }

    #[test]
    fn slab_of_another_size_is_never_taken() {
        on_fresh_thread(|| {
            let mut small = cache(4);
            small.insert((1, 1), 1);
            drop(small);

            let mut large = cache(5);
            large.insert((2, 2), 2);
            assert_eq!(large.slots.len(), 1 << 5);
            assert_eq!(large.generation, 1, "a fresh array, not the 16-slot slab");
            // The free list holds one slab per slot type: the 32-slot
            // one replaces the 16-slot one.
            drop(large);
            let mut small = cache(4);
            small.insert((3, 3), 3);
            assert_eq!((small.slots.len(), small.generation), (1 << 4, 1));
        });
    }

    #[test]
    fn package_takes_over_its_predecessors_slabs() {
        use crate::{GateKind, Package};
        on_fresh_thread(|| {
            // H, CX, H on the top qubit: the second H adds two different
            // sub-states one level down, which `add` memoizes.
            let run = |p: &mut Package| {
                let h = p.single_gate(3, 2, GateKind::H.matrix()).unwrap();
                let cx = p.controlled_gate(3, &[2], 1, GateKind::X.matrix()).unwrap();
                let mut state = p.basis_state(3, 0);
                for g in [h, cx, h] {
                    state = p.apply(g, state);
                }
            };
            let mut first = Package::with_config(approxdd_complex::Tolerance::default(), Some(8));
            run(&mut first);
            assert_eq!(first.ct.add.slots.len(), 1 << 8);
            assert!(first.ct.inner.slots.is_empty(), "never inserted into");
            let generation = first.ct.add.generation;
            drop(first);

            let mut second = Package::with_config(approxdd_complex::Tolerance::default(), Some(8));
            run(&mut second);
            assert_eq!(second.ct.add.generation, generation + 1);
            assert!(second.ct.inner.slots.is_empty());
        });
    }
}
