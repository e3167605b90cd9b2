//! The fixed-capacity, direct-mapped **lossy** compute table of `add`.
//!
//! The table memoizes `add` results across calls. It is the package's
//! only global memo: `mul_mv`, `mul_mm` and `inner_product` memoize in
//! maps that live for one call (measured on the Table I workloads,
//! `mul_mv`'s lookups almost never hit an entry an earlier call wrote,
//! and `mul_mm` / `inner_product` have one-shot callers only — see
//! `crate::ops`). Earlier
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
//!   the table's current generation, invalidating every slot in O(1)
//!   instead of freeing buckets. Garbage collection — which must drop
//!   all memoized results because they may reference freed nodes —
//!   becomes a single integer increment.
//!
//! # One slot, one cache line
//!
//! A slot is 32 bytes and 32-aligned, so a probe touches one cache line:
//! the value edge's weight and node, the two operand ids, and one
//! **tag** word. The tag does not store the ratio's tolerance bucket
//! (two `u64`s) but the *position* of the bucket's representative in
//! the canonical-ratio table ([`crate::ratio`]), with the generation
//! stamp folded into the bits above it. Within one ratio-table
//! generation position and bucket are a bijection — a position is
//! handed out once, to one bucket — and every ratio reset, the only
//! event that hands a position out again, already clears this table.
//! So comparing `(a, b, position)` answers exactly what comparing
//! `(a, b, bucket)` did. The slot *index* is still the hash of the
//! full `(a, b, bucket)` key, so every hit, miss and eviction is what
//! it was with the bucket stored.
//!
//! The fold costs two bounds. A position must fit below the stamp, in
//! [`POSITION_BITS`] bits: 2^20 positions, where a package holds at
//! most 2^18 representatives past the prefix a fork pins, and that
//! prefix is at most what its base held. A call whose representative
//! lies beyond the bound is simply not memoized — a counted miss, no
//! insert — which a lossy table may always do. And the stamp has
//! [`MAX_GENERATION`] values, so `clear` hard-resets every tag once per
//! that many clears instead of once per 2^32.
//!
//! Hit/miss accounting lives *inside* [`ComputeCache::lookup`]: every
//! lookup increments exactly one of the two counters, so hit rates are
//! comparable across runs regardless of how often the table was
//! cleared.
//!
//! # Provisioning: memory is O(touched), not O(capacity)
//!
//! A package is built per job, and a job that never adds two states
//! never consults the table, so the slot array is **not** part of
//! construction:
//!
//! * **First-insert materialisation.** A new table owns no slot memory.
//!   A lookup on it counts one miss and returns `None` — exactly what a
//!   filled-but-empty array would answer — and the first
//!   [`ComputeCache::insert`] provides the array.
//! * **Per-thread recycling.** A dropped table retires its slot array
//!   (a *slab*) to a thread-local slot, and the next table of the same
//!   capacity to materialise on that thread takes it over at
//!   `generation = slab's last generation + 1`. Every slot the
//!   previous owner wrote is dead by the same O(1) argument as
//!   `clear()` (with the same hard reset at wrap), so after a worker's
//!   first job there is no allocation, no fill and no page fault.
//!
//! Neither can change a result: capacity, index function, counters and
//! eviction are untouched, and a recycled slab is indistinguishable
//! from a fresh one — both answer every lookup with a miss until the
//! new owner inserts.
//!
//! **Retention bound.** A thread holds at most one slab (a newly
//! retired slab replaces the held one, and a table of another capacity
//! frees it), so it retains one engine's table — 2 MiB at the default
//! 2^16 slots of 32 bytes — until it exits. Retiring during thread
//! teardown, when the slot is already gone, just frees the slab.

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::sync::Once;

use approxdd_complex::Cplx;

use crate::edge::{NodeId, VEdge};
use crate::fasthash::FxHasher;

/// Default `log2` capacity of the compute table (65 536 slots).
const DEFAULT_COMPUTE_CACHE_BITS: u32 = 16;
/// Smallest accepted `log2` capacity (4 slots) — tiny tables are valid
/// (just slow), and the equivalence test suite runs them on purpose.
const MIN_COMPUTE_CACHE_BITS: u32 = 2;
/// Largest accepted `log2` capacity (64 Mi slots) — beyond this the
/// slot array itself stops fitting in reasonable memory.
const MAX_COMPUTE_CACHE_BITS: u32 = 26;

/// Counts slot arrays filled fresh (see "Provisioning" in the module docs).
const SLABS_ALLOCATED: &str = "approxdd_dd_cache_slabs_allocated_total";
/// Counts slot arrays taken over from the thread's retired slab.
const SLABS_RECYCLED: &str = "approxdd_dd_cache_slabs_recycled_total";

/// Registers both slab counters, at 0, when the process builds its
/// first table: a scrape shows them even if no job ever adds two states.
static SLAB_COUNTERS: Once = Once::new();

/// An `add` key: the two operand nodes and the tolerance bucket of
/// their canonical weight ratio (see `Package::add`). It picks the slot;
/// what the slot stores of it is `(a, b)` and the bucket's position (see
/// "One slot, one cache line" in the module docs).
pub(crate) type AddKey = (u32, u32, u64, u64);

/// Bits of a slot's tag that hold the representative's position; the
/// generation stamp takes the bits above.
const POSITION_BITS: u32 = 20;
/// Last generation before [`ComputeCache::clear`] hard-resets the tags.
const MAX_GENERATION: u32 = u32::MAX >> POSITION_BITS;

/// One entry: the value edge's weight and node, the operand ids, and
/// the tag `generation << POSITION_BITS | position`. The value edge is
/// stored flat, not as a [`VEdge`] with its 4 bytes of padding: 32
/// bytes a slot, one cache line per probe.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Slot {
    w: Cplx,
    a: u32,
    b: u32,
    node: NodeId,
    /// Tag 0 (generation 0) is dead in every generation: never written.
    tag: u32,
}

/// What a never-written slot holds; its operands and value are never
/// observable.
const VACANT: Slot = Slot {
    w: Cplx::ZERO,
    a: u32::MAX,
    b: u32::MAX,
    node: NodeId::TERMINAL,
    tag: 0,
};

/// A retired slot array and the last generation its owner stamped.
struct Slab {
    slots: Vec<Slot>,
    generation: u32,
}

thread_local! {
    /// This thread's retired slab, if any (see "Provisioning" in the
    /// module docs).
    static RETIRED: Cell<Option<Slab>> = const { Cell::new(None) };
}

/// Takes this thread's retired slab if it has `capacity` slots (one of
/// another capacity is freed).
fn take_retired(capacity: usize) -> Option<Slab> {
    RETIRED
        .try_with(Cell::take)
        .ok()
        .flatten()
        .filter(|slab| slab.slots.len() == capacity)
}

/// The direct-mapped lossy `add` table (see the module docs).
#[derive(Debug)]
pub(crate) struct ComputeCache {
    /// Empty until the first insert.
    slots: Vec<Slot>,
    mask: u64,
    /// Current generation (`1..=MAX_GENERATION`); slots stamped with
    /// anything else are dead. Starts at 1 so vacant tags read as empty.
    generation: u32,
    /// Lookups that returned a memoized result.
    pub(crate) hits: u64,
    /// Lookups that found nothing (followed by recomputation + insert).
    pub(crate) misses: u64,
}

impl ComputeCache {
    /// Creates a table configured for `2^bits` slots (`None` → the
    /// default 2^16), clamped to the supported `[2, 26]` range.
    pub(crate) fn new(bits: Option<u32>) -> Self {
        SLAB_COUNTERS.call_once(|| {
            for name in [SLABS_ALLOCATED, SLABS_RECYCLED] {
                approxdd_telemetry::global().counter(name);
            }
        });
        let bits = bits
            .unwrap_or(DEFAULT_COMPUTE_CACHE_BITS)
            .clamp(MIN_COMPUTE_CACHE_BITS, MAX_COMPUTE_CACHE_BITS);
        Self {
            slots: Vec::new(),
            mask: (1u64 << bits) - 1,
            generation: 1,
            hits: 0,
            misses: 0,
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    #[inline]
    fn index(&self, key: &AddKey) -> usize {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        #[allow(clippy::cast_possible_truncation)]
        {
            (h.finish() & self.mask) as usize
        }
    }

    /// The tag of an entry for the representative at `position` in the
    /// current generation; `None` past [`POSITION_BITS`].
    #[inline]
    fn tag(&self, position: u32) -> Option<u32> {
        (position >> POSITION_BITS == 0).then_some(self.generation << POSITION_BITS | position)
    }

    /// Looks up `key`, whose ratio bucket's representative sits at
    /// `position` in the canonical-ratio table, counting the outcome
    /// (the **only** place hits and misses are counted — see the module
    /// docs). An unmaterialised table has no slot at any index, which
    /// reads as a miss.
    #[inline]
    pub(crate) fn lookup(&mut self, key: &AddKey, position: u32) -> Option<VEdge> {
        let tag = self.tag(position);
        match self.slots.get(self.index(key)) {
            Some(slot) if Some(slot.tag) == tag && (slot.a, slot.b) == (key.0, key.1) => {
                self.hits += 1;
                Some(VEdge {
                    w: slot.w,
                    node: slot.node,
                })
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or overwrites) the slot `key` maps to.
    #[inline]
    pub(crate) fn insert(&mut self, key: AddKey, position: u32, value: VEdge) {
        if self.slots.is_empty() {
            self.materialise();
        }
        // After `materialise`, which may move the generation on.
        let Some(tag) = self.tag(position) else {
            return;
        };
        let idx = self.index(&key);
        self.slots[idx] = Slot {
            w: value.w,
            a: key.0,
            b: key.1,
            node: value.node,
            tag,
        };
    }

    /// Provides the slot array: this thread's retired slab of the same
    /// capacity if there is one, a freshly filled array otherwise.
    #[cold]
    fn materialise(&mut self) {
        let capacity = self.capacity();
        if let Some(slab) = take_retired(capacity) {
            self.slots = slab.slots;
            // Continue one past the last generation the previous owner
            // stamped: everything it wrote is dead, as after `clear()`.
            self.generation = slab.generation;
            self.clear();
            approxdd_telemetry::count(SLABS_RECYCLED, 1);
        } else {
            self.slots = vec![VACANT; capacity];
            approxdd_telemetry::count(SLABS_ALLOCATED, 1);
        }
    }

    /// Invalidates every entry in O(1) by bumping the generation.
    /// Hit/miss counters are *not* reset: they describe the package's
    /// lifetime, so rates stay comparable across GC cycles.
    pub(crate) fn clear(&mut self) {
        if self.generation == MAX_GENERATION {
            // Once every 4095 clears: hard-reset the tags so the
            // generation can wrap without resurrecting older entries.
            for slot in &mut self.slots {
                slot.tag = 0;
            }
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }

    /// `(a, b, position)` of the live (current-generation) entries, for
    /// tests that check what the table is asked to remember.
    #[cfg(test)]
    pub(crate) fn live_keys(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        let position = (1 << POSITION_BITS) - 1;
        self.slots
            .iter()
            .filter(|slot| slot.tag >> POSITION_BITS == self.generation)
            .map(move |slot| (slot.a, slot.b, slot.tag & position))
    }

    /// Bytes of the slot array: 0 until the first insert materialises it.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }
}

impl Drop for ComputeCache {
    /// Hands the slab to this thread's retired slot, replacing a held
    /// one; during thread teardown it is simply freed.
    fn drop(&mut self) {
        if !self.slots.is_empty() {
            let slab = Slab {
                slots: std::mem::take(&mut self.slots),
                generation: self.generation,
            };
            let _ = RETIRED.try_with(|retired| retired.set(Some(slab)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bits: u32) -> ComputeCache {
        ComputeCache::new(Some(bits))
    }

    fn key(i: u32) -> AddKey {
        (i, i, u64::from(i), 0)
    }

    fn value(i: u32) -> VEdge {
        VEdge::terminal(Cplx::real(f64::from(i)))
    }

    /// Runs `f` on a thread of its own, so the retired slab it sees
    /// starts empty whatever the test harness ran on this thread before.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f).join().expect("test thread panicked");
    }

    #[test]
    fn lookup_after_insert_hits() {
        let mut c = cache(4);
        assert_eq!(c.lookup(&key(1), 1), None);
        c.insert(key(1), 1, value(42));
        assert_eq!(c.lookup(&key(1), 1), Some(value(42)));
        assert_eq!((c.hits, c.misses, c.live_keys().count()), (1, 1, 1));
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn collisions_overwrite_lossily() {
        // A 1-slot-per-hash worst case: with 4 slots, distinct keys
        // must eventually collide; the newer entry wins and the older
        // one just misses (never a wrong value).
        let mut c = cache(MIN_COMPUTE_CACHE_BITS);
        for i in 0..64u32 {
            c.insert(key(i), i, value(i));
        }
        for i in 0..64u32 {
            if let Some(v) = c.lookup(&key(i), i) {
                assert_eq!(v, value(i), "stale value for key {i}");
            }
        }
        assert!(c.live_keys().count() <= 4);
    }

    #[test]
    fn clear_is_generation_bump() {
        let mut c = cache(4);
        c.insert(key(7), 7, value(7));
        assert_eq!(c.lookup(&key(7), 7), Some(value(7)));
        c.clear();
        assert_eq!(c.lookup(&key(7), 7), None, "cleared entry must be dead");
        assert_eq!(c.live_keys().count(), 0);
        // Counters survive the clear (lifetime accounting).
        assert_eq!((c.hits, c.misses), (1, 1));
        // The table keeps working after the bump.
        c.insert(key(7), 7, value(9));
        assert_eq!(c.lookup(&key(7), 7), Some(value(9)));
    }

    /// The folded stamp wraps after [`MAX_GENERATION`] generations, every
    /// one of them crossed here by a real `clear`: an entry written in
    /// any generation before the wrap, the first and the last included,
    /// is dead after it, and the table works on.
    #[test]
    fn generation_wrap_resets_stamps() {
        let mut c = cache(4);
        c.insert(key(1), 1, value(1));
        for _ in 1..MAX_GENERATION {
            c.clear();
        }
        assert_eq!(c.generation, MAX_GENERATION);
        c.insert(key(2), 2, value(2));
        assert_eq!(c.live_keys().count(), 1);
        c.clear();
        assert_eq!(c.generation, 1, "the stamp wrapped");
        assert!(c.slots.iter().all(|slot| slot.tag == 0), "hard reset");
        for i in [1, 2] {
            assert_eq!(c.lookup(&key(i), i), None, "key {i} resurrected");
        }
        c.insert(key(1), 1, value(3));
        assert_eq!(c.lookup(&key(1), 1), Some(value(3)));
        assert_eq!(c.lookup(&key(2), 2), None);
    }

    /// A slot compares `(a, b, position)`, not the bucket: the same
    /// operands under another position miss, and a position past the
    /// stamp's bits is never memoized.
    #[test]
    fn slots_compare_positions_and_bound_them() {
        let mut c = cache(4);
        c.insert(key(5), 5, value(5));
        assert_eq!(c.lookup(&key(5), 6), None);
        assert_eq!(c.lookup(&key(5), 5), Some(value(5)));
        let last = (1 << POSITION_BITS) - 1;
        c.insert(key(6), last, value(6));
        assert_eq!(c.lookup(&key(6), last), Some(value(6)));
        c.insert(key(7), last + 1, value(7));
        assert_eq!(c.lookup(&key(7), last + 1), None, "past the bound");
        assert_eq!((c.hits, c.misses), (2, 2));
    }

    #[test]
    fn a_thread_retains_at_most_2_mib_at_the_default_size() {
        let mut c = ComputeCache::new(None);
        c.insert(key(1), 1, value(1));
        assert_eq!(std::mem::size_of::<Slot>(), 32);
        assert_eq!(std::mem::align_of::<Slot>(), 32, "one cache line a probe");
        assert_eq!(c.bytes(), 32 << DEFAULT_COMPUTE_CACHE_BITS);
        assert_eq!(c.bytes(), 2 << 20, "2 MiB");
    }

    #[test]
    fn bits_are_clamped() {
        assert_eq!(cache(0).capacity(), 1 << MIN_COMPUTE_CACHE_BITS);
        assert_eq!(cache(60).capacity(), 1 << MAX_COMPUTE_CACHE_BITS);
        assert_eq!(
            ComputeCache::new(None).capacity(),
            1 << DEFAULT_COMPUTE_CACHE_BITS
        );
    }

    #[test]
    fn unmaterialised_cache_counts_misses_and_owns_no_slots() {
        let mut c = cache(10);
        assert_eq!(c.capacity(), 1 << 10, "configured before any slot exists");
        for i in 0..5u32 {
            assert_eq!(c.lookup(&key(i), i), None);
        }
        c.clear(); // a clear before the first insert is harmless
        assert_eq!((c.hits, c.misses, c.live_keys().count()), (0, 5, 0));
        assert_eq!(c.slots.capacity(), 0, "no slot memory before an insert");

        c.insert(key(1), 1, value(1));
        assert_eq!(c.slots.len(), 1 << 10);
        assert_eq!(c.lookup(&key(1), 1), Some(value(1)));
    }

    #[test]
    fn recycled_slab_misses_on_every_old_key() {
        on_fresh_thread(|| {
            let mut first = cache(6);
            for i in 0..200u32 {
                first.insert(key(i), i, value(i));
            }
            first.clear();
            first.insert(key(7), 7, value(7));
            let last_generation = first.generation;
            drop(first);

            let mut second = cache(6);
            assert!(second.slots.is_empty());
            second.insert(key(1000), 1000, value(1));
            assert_eq!(
                second.generation,
                last_generation + 1,
                "the retired slab was taken over, one generation on"
            );
            assert_eq!(second.live_keys().count(), 1, "old entries are not live");
            for i in 0..200u32 {
                assert_eq!(second.lookup(&key(i), i), None, "old key {i} resurrected");
            }
            assert_eq!(
                (second.hits, second.misses),
                (0, 200),
                "counters start from zero"
            );
            assert_eq!(second.lookup(&key(1000), 1000), Some(value(1)));
        });
    }

    #[test]
    fn slab_retired_at_generation_wrap_is_hard_reset() {
        on_fresh_thread(|| {
            let mut first = cache(3);
            first.generation = MAX_GENERATION; // simulate 4094 clears
            first.insert(key(1), 1, value(1));
            drop(first);

            // Generation 1 again: without the reset, a slot stamped 1
            // by an earlier owner of the slab could read as live.
            let mut second = cache(3);
            second.insert(key(2), 2, value(2));
            assert_eq!(second.generation, 1);
            assert_eq!(second.lookup(&key(1), 1), None);
            let live = second.slots.iter().filter(|s| s.tag != 0).count();
            assert_eq!(live, 1, "every stamp but the new entry's was reset");
        });
    }

    #[test]
    fn slab_of_another_size_is_never_taken() {
        on_fresh_thread(|| {
            let mut small = cache(4);
            small.insert(key(1), 1, value(1));
            drop(small);

            let mut large = cache(5);
            large.insert(key(2), 2, value(2));
            assert_eq!(large.slots.len(), 1 << 5);
            assert_eq!(large.generation, 1, "a fresh array, not the 16-slot slab");
            // The thread holds one slab: the 16-slot one was freed, and
            // the 32-slot one is not taken by a 16-slot table either.
            drop(large);
            let mut small = cache(4);
            small.insert(key(3), 3, value(3));
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
            assert_eq!(first.ct.slots.len(), 1 << 8);
            let generation = first.ct.generation;
            drop(first);

            let mut second = Package::with_config(approxdd_complex::Tolerance::default(), Some(8));
            run(&mut second);
            assert_eq!(second.ct.generation, generation + 1);
        });
    }
}
