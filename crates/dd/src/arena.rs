//! Struct-of-arrays slotted arena with free list, reference counts and
//! GC marks, optionally layered over an immutable frozen prefix.
//!
//! Nodes are identified by `u32` slot indices ([`crate::NodeId`]). The
//! reference count only tracks *external* roots (state vectors, cached
//! gates held by a simulator); internal parent→child references are
//! reconstructed by the mark phase of [`crate::Package::collect_garbage`].
//!
//! The arena stores node payloads and GC bookkeeping **separately**
//! (struct-of-arrays): payloads in one dense [`Chunked<T>`], reference
//! counts in a parallel `Chunked<u32>`, and the `alive`/`mark` flags
//! packed into one bit each of two word arrays. The hot path (operation
//! recursion reading node payloads) therefore never drags
//! `rc`/`alive`/`mark` bytes through the cache, and the GC phases become
//! word-wide: clearing marks is a `memset`, and the sweep skips 64 slots
//! at a time wherever `alive & !mark` is zero.
//!
//! # Payloads never move
//!
//! A slot sequence that grew as one `Vec` would be reallocated at every
//! doubling, and the last doubling of a Table I run falls at the GC
//! threshold — the engine's high-water mark — where the old buffer and
//! its copy are resident together. Whether that transient reaches RSS
//! depends on what the allocator did before (a `Vec` that was `mmap`ed
//! grows by `mremap`; one inside the heap is copied and leaves a hole),
//! so the second engine on a thread cost 19 MiB more than the first.
//! [`Chunked`] grows by whole chunks that are allocated once and never
//! reallocated, so an engine's footprint is its live slots whatever ran
//! on the thread before. [`Arena::freeze`] moves the chunks into the
//! snapshot as they are.
//!
//! # Copy-on-write snapshots
//!
//! An arena can be built over a [`FrozenArena`]: an `Arc`-shared,
//! immutable prefix of slots whose ids index strictly below a
//! **watermark**. The private delta layer allocates at or above the
//! watermark, so a frozen node id means the same payload in every
//! arena sharing the prefix. Frozen slots are permanently pinned:
//! `inc_rc`/`dec_rc` are no-ops below the watermark, `mark` reports
//! them as already visited (frozen nodes never point into the delta,
//! so the mark phase need not descend past the watermark), and `sweep`
//! scans only the delta words — a frozen node can never be freed.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// log₂ of the slots per [`Chunked`] chunk. 16 384 slots are 896 KiB of
/// vector nodes or 1.6 MiB of matrix nodes: small enough that what the
/// first chunk copies while it doubles is noise beside an engine that
/// outgrows it, large enough that the engines of small pooled jobs — and
/// the frozen gate prefix they share, 14 676 matrix nodes for a
/// `pool_sweep` batch — stay in one chunk and are read like a slice. (At
/// 4096 slots that prefix spans four chunks and `exec.run_jobs_s_p50`
/// reads 8 % worse; `supremacy_memory` peaks 1.6 MiB lower.)
const CHUNK_BITS: u32 = 14;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;

/// A push-only sequence stored in chunks of [`CHUNK_LEN`] slots, indexed
/// like a slice. Every chunk is allocated once at full capacity and never
/// reallocated, so growing the sequence neither copies an element nor
/// holds two generations of storage at once. The **first** chunk is the
/// exception: it starts empty and doubles like a `Vec` until it is full,
/// so a sequence that stays under one chunk costs what a `Vec` would —
/// in memory, and per read (see [`Chunked::index`]).
#[derive(Debug, Default)]
struct Chunked<T> {
    /// Every chunk but the last holds exactly [`CHUNK_LEN`] items.
    chunks: Vec<Vec<T>>,
}

impl<T> Chunked<T> {
    const fn new() -> Self {
        Self { chunks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK_LEN + last.len())
    }

    fn push(&mut self, item: T) {
        let full = |chunk: &Vec<T>| chunk.len() == CHUNK_LEN;
        if self.chunks.last().is_none_or(full) {
            let reserved = if self.chunks.is_empty() { 0 } else { CHUNK_LEN };
            self.chunks.push(Vec::with_capacity(reserved));
        }
        let last = self.chunks.last_mut().expect("a chunk with room");
        last.push(item);
    }

    /// Items in index order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

/// Not derived: a derived clone would size the last chunk to its length,
/// and the next push would move it.
impl<T: Clone> Clone for Chunked<T> {
    fn clone(&self) -> Self {
        let mut clone = Self::new();
        for item in self.iter() {
            clone.push(item.clone());
        }
        clone
    }
}

impl<T> Index<usize> for Chunked<T> {
    type Output = T;

    /// One chunk is read like the slice it is: whether there is only one
    /// does not change inside a caller's loop, so the test and the chunk's
    /// address hoist out of it and a pointer-chasing walk (sampling, one
    /// dependent read per level) pays no second index step — up to 30 %
    /// of `hotpath_sample_counts` otherwise. Always inlined, like
    /// [`Arena::get`] above it: see there.
    #[inline(always)]
    fn index(&self, i: usize) -> &T {
        match self.chunks.as_slice() {
            [only] => &only[i],
            chunks => &chunks[i >> CHUNK_BITS][i & (CHUNK_LEN - 1)],
        }
    }
}

impl<T> IndexMut<usize> for Chunked<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i >> CHUNK_BITS][i & (CHUNK_LEN - 1)]
    }
}

/// A packed bitset over slot indices, one bit per slot.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    #[inline]
    fn ensure(&mut self, idx: usize) {
        let word = idx / 64;
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.words[idx / 64] &= !(1u64 << (idx % 64));
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Zeroes every bit (word-wide memset).
    fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// The immutable frozen prefix of an [`Arena`]: slot payloads and
/// aliveness for ids below the watermark, shared across arenas via
/// `Arc`. Built once by [`Arena::freeze`]; never mutated afterwards.
#[derive(Debug, Default)]
pub(crate) struct FrozenArena<T> {
    items: Chunked<T>,
    alive: BitSet,
    alive_count: usize,
}

impl<T> FrozenArena<T> {
    /// Alive slots in the frozen prefix.
    pub(crate) fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Total frozen slots — the watermark of every delta arena layered
    /// over this prefix.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Arena<T> {
    /// Immutable shared prefix (ids below `watermark`), if any.
    frozen: Option<Arc<FrozenArena<T>>>,
    /// First id owned by the delta layer. 0 without a frozen prefix.
    watermark: u32,
    /// Delta node payloads (SoA: nothing but payload bytes on the hot
    /// path); slot `i` holds id `watermark + i`.
    items: Chunked<T>,
    /// External-root reference counts, parallel to `items`.
    rc: Chunked<u32>,
    /// One bit per delta slot: is the slot currently allocated?
    alive: BitSet,
    /// One bit per delta slot: GC mark (valid between `clear_marks` and
    /// `sweep`).
    mark: BitSet,
    /// Freed delta slots, as absolute ids (always ≥ `watermark`).
    free: Vec<u32>,
    /// Alive delta slots (excludes the frozen prefix).
    alive_count: usize,
    /// High-water mark of simultaneously alive delta nodes.
    peak: usize,
    /// One bit per frozen slot this layer uses as its own (see
    /// [`Arena::hold`]), and their number.
    held: BitSet,
    held_count: usize,
}

impl<T> Arena<T> {
    pub(crate) fn new() -> Self {
        Self {
            frozen: None,
            watermark: 0,
            items: Chunked::new(),
            rc: Chunked::new(),
            alive: BitSet::default(),
            mark: BitSet::default(),
            free: Vec::new(),
            alive_count: 0,
            peak: 0,
            held: BitSet::default(),
            held_count: 0,
        }
    }

    /// An empty delta arena layered over a shared frozen prefix. Every
    /// id below the prefix length resolves into the shared payloads;
    /// allocation starts at the watermark.
    pub(crate) fn with_frozen(frozen: Arc<FrozenArena<T>>) -> Self {
        let watermark = u32::try_from(frozen.len())
            .ok()
            .filter(|&w| w < u32::MAX - 1)
            .expect("frozen prefix exceeds u32 slot capacity");
        Self {
            frozen: Some(frozen),
            watermark,
            items: Chunked::new(),
            rc: Chunked::new(),
            alive: BitSet::default(),
            mark: BitSet::default(),
            free: Vec::new(),
            alive_count: 0,
            peak: 0,
            held: BitSet::default(),
            held_count: 0,
        }
    }

    /// Converts this arena into a frozen prefix by moving its payload
    /// chunks into it (nothing is copied). Freed slots stay dead
    /// (they are never resurrected: delta layers allocate only above
    /// the watermark), and reference counts are dropped — frozen slots
    /// are pinned by construction.
    ///
    /// Only a base arena can be frozen; re-freezing an arena that
    /// already layers over a prefix would need a merge and is not
    /// supported.
    pub(crate) fn freeze(self) -> FrozenArena<T> {
        assert!(
            self.frozen.is_none(),
            "cannot freeze an arena layered over an existing snapshot"
        );
        FrozenArena {
            items: self.items,
            alive: self.alive,
            alive_count: self.alive_count,
        }
    }

    /// First id owned by the delta layer (0 without a frozen prefix).
    pub(crate) fn watermark(&self) -> u32 {
        self.watermark
    }

    /// Alive slots in the frozen prefix (0 without one).
    pub(crate) fn frozen_count(&self) -> usize {
        self.frozen.as_ref().map_or(0, |f| f.alive_count)
    }

    /// Allocates a slot for `item`, reusing a freed delta slot when
    /// available. Never allocates below the watermark.
    pub(crate) fn alloc(&mut self, item: T) -> u32 {
        self.alive_count += 1;
        self.peak = self.peak.max(self.alive_count);
        if let Some(idx) = self.free.pop() {
            let i = (idx - self.watermark) as usize;
            self.items[i] = item;
            self.rc[i] = 0;
            self.alive.set(i);
            self.mark.clear(i);
            idx
        } else {
            // u32::MAX is the terminal sentinel and u32::MAX - 1 a
            // unique-table sentinel; stay strictly below both.
            let idx = u32::try_from(self.items.len())
                .ok()
                .and_then(|i| i.checked_add(self.watermark))
                .filter(|&i| i < u32::MAX - 1)
                .expect("arena exceeded u32 slot capacity");
            self.items.push(item);
            self.rc.push(0);
            let i = (idx - self.watermark) as usize;
            self.alive.ensure(i);
            self.mark.ensure(i);
            self.alive.set(i);
            idx
        }
    }

    /// The node read every DD operation is made of. The two-step index
    /// makes its body just large enough that the inliner's size heuristic
    /// leaves it out of line, and a called node read (operands spilled
    /// around it, no hoisting of the tier test or the chunk table out of
    /// the caller's loop) costs 2.3× an inlined one
    /// (`hotpath_node_access`) — so the read path is inlined by decree,
    /// here and in `Package::{vnode, mnode}`.
    #[inline(always)]
    pub(crate) fn get(&self, idx: u32) -> &T {
        if idx < self.watermark {
            let frozen = self.frozen.as_ref().expect("watermark implies a prefix");
            debug_assert!(
                frozen.alive.get(idx as usize),
                "access to dead frozen slot {idx}"
            );
            &frozen.items[idx as usize]
        } else {
            let i = (idx - self.watermark) as usize;
            debug_assert!(self.alive.get(i), "access to freed arena slot {idx}");
            &self.items[i]
        }
    }

    /// Pins a slot as an external root. No-op below the watermark:
    /// frozen slots are permanently pinned.
    pub(crate) fn inc_rc(&mut self, idx: u32) {
        if idx < self.watermark {
            return;
        }
        let i = (idx - self.watermark) as usize;
        debug_assert!(self.alive.get(i));
        self.rc[i] += 1;
    }

    /// Releases one external root. No-op below the watermark.
    pub(crate) fn dec_rc(&mut self, idx: u32) {
        if idx < self.watermark {
            return;
        }
        let i = (idx - self.watermark) as usize;
        debug_assert!(self.alive.get(i));
        debug_assert!(self.rc[i] > 0, "rc underflow on arena slot {idx}");
        let rc = &mut self.rc[i];
        *rc = rc.saturating_sub(1);
    }

    #[allow(dead_code)] // diagnostics / debug assertions
    pub(crate) fn rc(&self, idx: u32) -> u32 {
        if idx < self.watermark {
            // Frozen slots are pinned; report one permanent root.
            1
        } else {
            self.rc[(idx - self.watermark) as usize]
        }
    }

    /// Counts the frozen slot `idx` as used by this layer; `false` if it
    /// already was.
    pub(crate) fn hold(&mut self, idx: u32) -> bool {
        debug_assert!(idx < self.watermark, "only frozen slots are held");
        let i = idx as usize;
        self.held.ensure(i);
        let fresh = !self.held.get(i);
        self.held.set(i);
        self.held_count += usize::from(fresh);
        fresh
    }

    /// Frozen slots this layer holds as its own.
    pub(crate) fn held_count(&self) -> usize {
        self.held_count
    }

    /// Alive slots across both tiers (frozen prefix + delta).
    pub(crate) fn alive_count(&self) -> usize {
        self.frozen_count() + self.alive_count
    }

    /// Alive slots in the delta layer only — what a GC pass can
    /// actually inspect and free.
    pub(crate) fn delta_alive_count(&self) -> usize {
        self.alive_count
    }

    pub(crate) fn peak_count(&self) -> usize {
        self.frozen_count() + self.peak
    }

    /// Total slots (alive + freed) across both tiers: every id the arena
    /// has handed out lies below it, which is what sizes a per-traversal
    /// visit set.
    pub(crate) fn capacity(&self) -> usize {
        self.watermark as usize + self.items.len()
    }

    /// Bytes of the private delta layer, by length: payloads, reference
    /// counts, the two flag bitsets and the free list (the frozen prefix
    /// is shared, not owned).
    pub(crate) fn bytes(&self) -> usize {
        self.items.len() * (std::mem::size_of::<T>() + std::mem::size_of::<u32>())
            + (self.alive.words.len() + self.mark.words.len() + self.held.words.len())
                * std::mem::size_of::<u64>()
            + self.free.len() * std::mem::size_of::<u32>()
    }

    /// Clears all delta marks (one memset over the mark words). Pair
    /// with [`Arena::mark`] and [`Arena::sweep`].
    pub(crate) fn clear_marks(&mut self) {
        self.mark.clear_all();
    }

    /// Marks a slot; returns whether this was the first visit. Frozen
    /// slots report `false` (never a first visit): they are always
    /// reachable and never point into the delta, so the mark phase
    /// stops at the watermark.
    pub(crate) fn mark(&mut self, idx: u32) -> bool {
        if idx < self.watermark {
            return false;
        }
        let i = (idx - self.watermark) as usize;
        debug_assert!(self.alive.get(i));
        let was = self.mark.get(i);
        self.mark.set(i);
        !was
    }

    pub(crate) fn is_marked(&self, idx: u32) -> bool {
        if idx < self.watermark {
            return true;
        }
        self.mark.get((idx - self.watermark) as usize)
    }

    /// Iterates the absolute ids of alive delta slots with a positive
    /// reference count (the GC roots). The frozen prefix never appears:
    /// it is pinned wholesale, not rooted.
    pub(crate) fn rooted_indices(&self) -> impl Iterator<Item = u32> + '_ {
        let watermark = self.watermark;
        self.rc
            .iter()
            .enumerate()
            .filter(|&(i, &rc)| rc > 0 && self.alive.get(i))
            .map(move |(i, _)| i as u32 + watermark)
    }

    /// Absolute ids of the alive delta slots, ascending.
    #[cfg(test)]
    pub(crate) fn alive_indices(&self) -> impl Iterator<Item = u32> + '_ {
        let watermark = self.watermark;
        (0..self.items.len())
            .filter(|&i| self.alive.get(i))
            .map(move |i| i as u32 + watermark)
    }

    /// Frees every alive-but-unmarked **delta** slot, invoking `on_free`
    /// with each one's absolute id and payload *before* the slot is
    /// released — so the caller drops the node's unique-table entry on
    /// the spot, from the payload in place. Slots are freed in ascending
    /// id order and pushed onto the LIFO free list in that order; both
    /// orders decide future node ids and are part of the engine's
    /// results (see [`crate::gc`]). Returns the number of freed slots.
    /// The frozen prefix is never scanned — the watermark is the sweep's
    /// hard floor.
    ///
    /// The scan is word-wide: 64 slots whose `alive & !mark` word is
    /// zero are skipped with a single compare.
    pub(crate) fn sweep(&mut self, mut on_free: impl FnMut(u32, &T)) -> usize {
        let mut freed = 0;
        for w in 0..self.alive.words.len() {
            let mut dead = self.alive.words[w] & !self.mark.words.get(w).copied().unwrap_or(0);
            if dead == 0 {
                continue;
            }
            while dead != 0 {
                let bit = dead.trailing_zeros() as usize;
                dead &= dead - 1;
                let i = w * 64 + bit;
                on_free(i as u32 + self.watermark, &self.items[i]);
                self.alive.words[w] &= !(1u64 << bit);
                self.rc[i] = 0;
                self.free.push(i as u32 + self.watermark);
                freed += 1;
            }
        }
        self.alive_count -= freed;
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut a: Arena<u64> = Arena::new();
        let x = a.alloc(10);
        let y = a.alloc(20);
        assert_ne!(x, y);
        assert_eq!(a.alive_count(), 2);

        // Free everything (nothing rooted, nothing marked).
        a.clear_marks();
        let freed = a.sweep(|_, _| {});
        assert_eq!(freed, 2);
        assert_eq!(a.alive_count(), 0);

        let z = a.alloc(30);
        assert!(z == x || z == y, "freed slot should be reused");
        assert_eq!(*a.get(z), 30);
        assert_eq!(a.capacity(), 2);
    }

    #[test]
    fn rc_protects_from_sweep() {
        let mut a: Arena<u64> = Arena::new();
        let x = a.alloc(1);
        let y = a.alloc(2);
        a.inc_rc(x);

        a.clear_marks();
        // Mark phase: roots are rc>0 slots.
        let roots: Vec<u32> = a.rooted_indices().collect();
        assert_eq!(roots, vec![x]);
        for r in roots {
            a.mark(r);
        }
        let freed = a.sweep(|_, _| {});
        assert_eq!(freed, 1);
        assert_eq!(*a.get(x), 1);
        assert_eq!(a.alive_count(), 1);
        let _ = y; // y was swept
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut a: Arena<u8> = Arena::new();
        for i in 0..5 {
            a.alloc(i);
        }
        a.clear_marks();
        a.sweep(|_, _| {});
        a.alloc(9);
        assert_eq!(a.peak_count(), 5);
        assert_eq!(a.alive_count(), 1);
    }

    #[test]
    fn mark_reports_first_visit() {
        let mut a: Arena<u8> = Arena::new();
        let x = a.alloc(0);
        a.clear_marks();
        assert!(a.mark(x));
        assert!(!a.mark(x));
        assert!(a.is_marked(x));
    }

    #[test]
    fn frozen_prefix_resolves_below_watermark_and_allocs_above() {
        let mut base: Arena<u64> = Arena::new();
        for i in 0..10 {
            base.alloc(i * 100);
        }
        let frozen = Arc::new(base.freeze());
        let mut delta: Arena<u64> = Arena::with_frozen(Arc::clone(&frozen));
        assert_eq!(delta.watermark(), 10);
        assert_eq!(delta.frozen_count(), 10);
        assert_eq!(delta.alive_count(), 10);
        assert_eq!(*delta.get(3), 300);

        let id = delta.alloc(7777);
        assert!(id >= delta.watermark(), "delta alloc below the watermark");
        assert_eq!(*delta.get(id), 7777);
        assert_eq!(delta.alive_count(), 11);
        assert_eq!(delta.delta_alive_count(), 1);

        // Two deltas over the same prefix see the same frozen payloads.
        let other: Arena<u64> = Arena::with_frozen(frozen);
        assert_eq!(*other.get(3), 300);
    }

    #[test]
    fn sweep_never_frees_frozen_slots() {
        let mut base: Arena<u64> = Arena::new();
        for i in 0..70 {
            base.alloc(i); // spans a word boundary
        }
        let frozen = Arc::new(base.freeze());
        let mut delta: Arena<u64> = Arena::with_frozen(frozen);
        let a = delta.alloc(1000);
        let b = delta.alloc(2000);
        delta.inc_rc(a);
        // Frozen rc ops are pinned no-ops.
        delta.inc_rc(5);
        delta.dec_rc(5);
        assert_eq!(delta.rc(5), 1);

        delta.clear_marks();
        assert!(delta.is_marked(5), "frozen slots read as already marked");
        assert!(!delta.mark(5), "marking a frozen slot is never first visit");
        let roots: Vec<u32> = delta.rooted_indices().collect();
        assert_eq!(roots, vec![a]);
        for r in roots {
            delta.mark(r);
        }
        let mut swept = Vec::new();
        let freed = delta.sweep(|idx, _| swept.push(idx));
        assert_eq!(freed, 1);
        assert_eq!(swept, vec![b]);
        assert!(swept.iter().all(|&i| i >= delta.watermark()));
        // Frozen payloads and the rooted delta node survive.
        assert_eq!(*delta.get(42), 42);
        assert_eq!(*delta.get(a), 1000);
        assert_eq!(delta.alive_count(), 71);

        // The freed delta slot is reused at the same absolute id.
        let c = delta.alloc(3000);
        assert_eq!(c, b);
        assert_eq!(*delta.get(c), 3000);
    }

    /// The order the sweep frees slots in and the order `alloc` hands
    /// them out again decide which id a new node gets, and ids break
    /// ties in `add`: both sequences are pinned here, not just the sets.
    #[test]
    fn sweep_frees_ascending_and_alloc_reuses_highest_freed_first() {
        let mut a: Arena<u32> = Arena::new();
        let ids: Vec<u32> = (0..140).map(|i| a.alloc(i)).collect();
        assert_eq!(ids, (0..140).collect::<Vec<u32>>());
        // Survivors: every fifth slot. The victims span three words.
        for id in ids.iter().step_by(5) {
            a.inc_rc(*id);
        }
        a.clear_marks();
        for r in a.rooted_indices().collect::<Vec<_>>() {
            a.mark(r);
        }
        let mut swept = Vec::new();
        let freed = a.sweep(|idx, &payload| {
            assert_eq!(payload, idx, "the callback reads the payload in place");
            swept.push(idx);
        });
        let victims: Vec<u32> = (0..140).filter(|i| i % 5 != 0).collect();
        assert_eq!(freed, victims.len());
        assert_eq!(swept, victims, "ascending id order");

        // LIFO reuse: the highest freed id comes back first, and only
        // once the free list is empty does the arena grow.
        let reused: Vec<u32> = (0..victims.len() as u32 + 2)
            .map(|i| a.alloc(1000 + i))
            .collect();
        let mut expected: Vec<u32> = victims.iter().rev().copied().collect();
        expected.extend([140, 141]);
        assert_eq!(reused, expected);

        // A second sweep frees on top of what the first left: its
        // victims are pushed after (and so popped before) older ones.
        a.clear_marks();
        for r in a.rooted_indices().collect::<Vec<_>>() {
            a.mark(r);
        }
        assert_eq!(a.sweep(|_, _| {}), victims.len() + 2);
        assert_eq!(a.alloc(0), 141);
        assert_eq!(a.alloc(0), 140);
        assert_eq!(a.alloc(0), 139);
    }

    #[test]
    fn sweep_across_word_boundaries() {
        // >64 slots so the word-wide sweep crosses word boundaries;
        // keep every third slot rooted and verify exactly the rest go.
        let mut a: Arena<u32> = Arena::new();
        let ids: Vec<u32> = (0..200).map(|i| a.alloc(i)).collect();
        for id in ids.iter().step_by(3) {
            a.inc_rc(*id);
        }
        a.clear_marks();
        let roots: Vec<u32> = a.rooted_indices().collect();
        for r in &roots {
            a.mark(*r);
        }
        let mut swept = Vec::new();
        let freed = a.sweep(|idx, _| swept.push(idx));
        assert_eq!(freed, 200 - roots.len());
        assert_eq!(a.alive_count(), roots.len());
        for id in ids.iter().step_by(3) {
            assert_eq!(*a.get(*id), *id); // payload intact
        }
        for idx in swept {
            assert!(idx % 3 != 0, "rooted slot {idx} was swept");
        }
    }

    /// The first chunk grows on demand (a small engine pays for what it
    /// holds, not for a chunk); every later chunk is reserved whole, and
    /// no later push moves what an earlier one stored.
    #[test]
    fn first_chunk_grows_on_demand_and_no_chunk_moves_once_full() {
        let mut c: Chunked<u64> = Chunked::new();
        assert_eq!((c.len(), c.chunks.len()), (0, 0));
        c.push(0);
        assert!(c.chunks[0].capacity() < CHUNK_LEN / 2, "reserved up front");
        for i in 1..CHUNK_LEN as u64 {
            c.push(i);
        }
        assert_eq!((c.len(), c.chunks.len()), (CHUNK_LEN, 1));
        assert_eq!(c.chunks[0].capacity(), CHUNK_LEN, "doubling overshot");

        c.push(CHUNK_LEN as u64);
        assert_eq!((c.len(), c.chunks.len()), (CHUNK_LEN + 1, 2));
        assert_eq!(c.chunks[1].capacity(), CHUNK_LEN);
        let addresses = [0, CHUNK_LEN - 1, CHUNK_LEN].map(|i| std::ptr::from_ref(&c[i]));
        for i in CHUNK_LEN as u64 + 1..3 * CHUNK_LEN as u64 + 7 {
            c.push(i);
        }
        assert_eq!((c.len(), c.chunks.len()), (3 * CHUNK_LEN + 7, 4));
        assert_eq!(
            [0, CHUNK_LEN - 1, CHUNK_LEN].map(|i| std::ptr::from_ref(&c[i])),
            addresses,
            "growing the sequence moved a stored item"
        );
        assert!(c.iter().copied().eq(0..c.len() as u64));
    }

    #[test]
    fn freeze_moves_chunks_and_delta_ids_start_at_the_watermark() {
        const SLOTS: u32 = 3 * CHUNK_LEN as u32 + 1;
        let mut base: Arena<u64> = Arena::new();
        for i in 0..SLOTS {
            assert_eq!(base.alloc(u64::from(i) * 3), i);
        }
        let payloads = [0, CHUNK_LEN as u32, SLOTS - 1].map(|id| std::ptr::from_ref(base.get(id)));
        let frozen = Arc::new(base.freeze());
        assert_eq!(frozen.len(), SLOTS as usize);

        let mut delta: Arena<u64> = Arena::with_frozen(Arc::clone(&frozen));
        assert_eq!(delta.watermark(), SLOTS);
        for id in 0..SLOTS {
            assert_eq!(*delta.get(id), u64::from(id) * 3);
        }
        assert_eq!(
            [0, CHUNK_LEN as u32, SLOTS - 1].map(|id| std::ptr::from_ref(delta.get(id))),
            payloads,
            "freeze copied a payload"
        );

        // The delta's slot 0 is id `watermark`, its own first chunk.
        for i in 0..CHUNK_LEN as u32 + 2 {
            assert_eq!(delta.alloc(u64::from(i)), SLOTS + i);
        }
        assert_eq!(
            *delta.get(SLOTS + CHUNK_LEN as u32 + 1),
            CHUNK_LEN as u64 + 1
        );
        assert_eq!(*delta.get(SLOTS - 1), u64::from(SLOTS - 1) * 3);
        assert_eq!(delta.capacity(), SLOTS as usize + CHUNK_LEN + 2);
    }

    #[test]
    fn roots_and_sweep_cross_chunk_boundaries_in_ascending_id_order() {
        const SLOTS: u32 = 2 * CHUNK_LEN as u32 + 50;
        let mut a: Arena<u32> = Arena::new();
        for i in 0..SLOTS {
            a.alloc(i);
        }
        // Roots on both sides of each chunk boundary.
        let rooted = |id: u32| (id as usize + 1) % CHUNK_LEN < 2 || id % 1000 == 7;
        for id in (0..SLOTS).filter(|&id| rooted(id)) {
            a.inc_rc(id);
        }
        let roots: Vec<u32> = a.rooted_indices().collect();
        assert_eq!(
            roots,
            (0..SLOTS).filter(|&id| rooted(id)).collect::<Vec<_>>()
        );
        a.clear_marks();
        for r in roots {
            a.mark(r);
        }
        let mut swept = Vec::new();
        a.sweep(|id, &payload| {
            assert_eq!(payload, id, "the callback reads the payload in place");
            swept.push(id);
        });
        assert_eq!(
            swept,
            (0..SLOTS).filter(|&id| !rooted(id)).collect::<Vec<_>>()
        );
        // LIFO reuse reaches back across the boundaries too.
        assert_eq!(a.alloc(7), SLOTS - 1);
        assert_eq!(*a.get(SLOTS - 1), 7);
        assert_eq!(*a.get(2 * CHUNK_LEN as u32), 2 * CHUNK_LEN as u32);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Three in four operations push, so a full sequence ends a few
        // hundred items into its fourth chunk; `take` cuts it anywhere
        // before that.
        #[test]
        fn chunked_matches_the_vec_model(
            ops in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 4 * CHUNK_LEN + 512),
            take in 0usize..4 * CHUNK_LEN + 513
        ) {
            let mut chunked: Chunked<u64> = Chunked::new();
            let mut model: Vec<u64> = Vec::new();
            for &(kind, at, value) in &ops[..take] {
                if kind == 0 && !model.is_empty() {
                    let i = (at % model.len() as u64) as usize;
                    chunked[i] = value;
                    model[i] = value;
                    prop_assert_eq!(chunked[i], model[i]);
                } else {
                    chunked.push(value);
                    model.push(value);
                    prop_assert_eq!(chunked[model.len() - 1], value);
                }
                prop_assert_eq!(chunked.len(), model.len());
            }
            for (i, want) in model.iter().enumerate() {
                prop_assert_eq!(chunked[i], *want);
            }
            prop_assert!(chunked.iter().eq(model.iter()));
            let clone = chunked.clone();
            prop_assert_eq!(clone.len(), model.len());
            prop_assert!(clone.iter().eq(model.iter()));
            prop_assert!(clone.chunks.iter().skip(1).all(|c| c.capacity() == CHUNK_LEN));
        }
    }
}
