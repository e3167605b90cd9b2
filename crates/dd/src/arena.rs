//! Struct-of-arrays slotted arena with free list, reference counts and
//! GC marks, and optionally a pinned prefix.
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
//! # The free list
//!
//! The sweep pushes the slots it frees in ascending id order, and
//! [`Arena::alloc`] pops the most recently pushed first (LIFO): both
//! orders decide which id the next node gets, so they are part of the
//! engine's results. The list owns no memory of its own. A freed slot
//! has no external roots, so its `rc` word is free to hold the id of
//! the slot pushed before it, and the arena keeps only the head; `alloc`
//! reads the next head out of the word it is about to zero. A separate `Vec<u32>` of freed ids grew at the first
//! collection of a Table I run — at the engine's high-water mark — to
//! 1–2 MiB, and kept it.
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
//! on the thread before.
//!
//! # The pinned prefix
//!
//! [`Arena::fork`] copies an arena and pins every slot of the copy: ids
//! below the **prefix** length are never freed and never reused, so a
//! node id captured before the fork (a warmed gate DD) means the same
//! payload in every fork. Only the collector and the counters read the
//! prefix length: [`Arena::clear_marks`] leaves the prefix marked, so
//! the mark phase stops at it and the sweep passes it by; the free list
//! starts empty, so new ids start above it; and the statistics report
//! its alive slots and the ones this arena [`Arena::hold`]s. Node reads,
//! allocation and reference counts treat every slot alike.

use std::ops::{Index, IndexMut};

/// log₂ of the slots per [`Chunked`] chunk. 16 384 slots are 640 KiB of
/// vector nodes or 1.6 MiB of matrix nodes: small enough that what the
/// first chunk copies while it doubles is noise beside an engine that
/// outgrows it, large enough that the engines of small pooled jobs — and
/// the gate DDs of a `pool_sweep` batch, 14 676 matrix nodes — stay in
/// one chunk and are read like a slice. (At 4096 slots those span four
/// chunks and `exec.run_jobs_s_p50` reads 8 % worse; `supremacy_memory`
/// peaks 1.6 MiB lower.)
const CHUNK_BITS: u32 = 14;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;

/// The free-list link that ends the list (never a slot id: the arena
/// refuses to grow that far).
const NO_SLOT: u32 = u32::MAX;

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
/// and the next push would move it. The copy reserves what the original
/// would have: a first chunk at a power of two (it then doubles to
/// exactly one chunk), every later chunk whole.
impl<T: Clone> Clone for Chunked<T> {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let reserved = if i == 0 {
                    chunk.len().next_power_of_two()
                } else {
                    CHUNK_LEN
                };
                let mut copy = Vec::with_capacity(reserved);
                copy.extend_from_slice(chunk);
                copy
            })
            .collect();
        Self { chunks }
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
}

#[derive(Debug, Default)]
pub(crate) struct Arena<T> {
    /// Node payloads (SoA: nothing but payload bytes on the hot path).
    items: Chunked<T>,
    /// External-root reference counts, parallel to `items`; a freed
    /// slot's word is its link in the free list instead.
    rc: Chunked<u32>,
    /// One bit per slot: is the slot currently allocated?
    alive: BitSet,
    /// One bit per slot: GC mark (valid between `clear_marks` and
    /// `sweep`).
    mark: BitSet,
    /// The most recently freed slot, [`NO_SLOT`] if none: the top of the
    /// LIFO free list, which is threaded through the `rc` words of the
    /// freed slots (a freed slot's word holds the next freed id, or
    /// [`NO_SLOT`]). Never below `prefix`.
    free_head: u32,
    /// Alive slots.
    alive_count: usize,
    /// High-water mark of simultaneously alive slots.
    peak: usize,
    /// Slots below this id are the pinned prefix [`Arena::fork`] copied
    /// (0 for an arena that was not forked).
    prefix: u32,
    /// Alive slots in the pinned prefix.
    prefix_alive: usize,
    /// One bit per prefix slot this arena uses as its own (see
    /// [`Arena::hold`]), and their number.
    held: BitSet,
    held_count: usize,
}

impl<T> Arena<T> {
    pub(crate) fn new() -> Self {
        Self {
            items: Chunked::new(),
            rc: Chunked::new(),
            alive: BitSet::default(),
            mark: BitSet::default(),
            free_head: NO_SLOT,
            alive_count: 0,
            peak: 0,
            prefix: 0,
            prefix_alive: 0,
            held: BitSet::default(),
            held_count: 0,
        }
    }

    /// A copy of this arena whose every slot is a pinned prefix: the
    /// sweep never frees one, dead slots are never handed out again
    /// (the free list starts empty), and new ids start above it.
    pub(crate) fn fork(&self) -> Self
    where
        T: Clone,
    {
        Self {
            items: self.items.clone(),
            rc: self.rc.clone(),
            alive: self.alive.clone(),
            mark: self.mark.clone(),
            free_head: NO_SLOT,
            alive_count: self.alive_count,
            peak: self.alive_count,
            prefix: u32::try_from(self.items.len()).expect("arena ids fit in u32"),
            prefix_alive: self.alive_count,
            held: BitSet::default(),
            held_count: 0,
        }
    }

    /// First id above the pinned prefix (0 without one).
    pub(crate) fn prefix(&self) -> u32 {
        self.prefix
    }

    /// Alive slots in the pinned prefix (0 without one).
    pub(crate) fn prefix_alive(&self) -> usize {
        self.prefix_alive
    }

    /// Allocates a slot for `item`, reusing a freed slot when available.
    pub(crate) fn alloc(&mut self, item: T) -> u32 {
        self.alive_count += 1;
        self.peak = self.peak.max(self.alive_count);
        if self.free_head != NO_SLOT {
            let idx = self.free_head;
            let i = idx as usize;
            self.free_head = self.rc[i];
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
                .filter(|&i| i < u32::MAX - 1)
                .expect("arena exceeded u32 slot capacity");
            self.items.push(item);
            self.rc.push(0);
            let i = idx as usize;
            self.alive.ensure(i);
            self.mark.ensure(i);
            self.alive.set(i);
            idx
        }
    }

    /// The node read every DD operation is made of. The two-step chunk
    /// index makes its body just large enough that the inliner's size
    /// heuristic leaves it out of line, and a called node read (operands
    /// spilled around it, no hoisting of the chunk table out of the
    /// caller's loop) costs 2.3× an inlined one (`hotpath_node_access`)
    /// — so the read path is inlined by decree, here, in
    /// `Package::{vnode, mnode}` and in `VNode::{edges, ids}`. CI fails
    /// when any of them is a symbol of the server binary.
    #[inline(always)]
    pub(crate) fn get(&self, idx: u32) -> &T {
        debug_assert!(
            self.alive.get(idx as usize),
            "access to freed arena slot {idx}"
        );
        &self.items[idx as usize]
    }

    /// Pins a slot as an external root.
    pub(crate) fn inc_rc(&mut self, idx: u32) {
        debug_assert!(self.alive.get(idx as usize));
        self.rc[idx as usize] += 1;
    }

    /// Releases one external root.
    pub(crate) fn dec_rc(&mut self, idx: u32) {
        let i = idx as usize;
        debug_assert!(self.alive.get(i));
        debug_assert!(self.rc[i] > 0, "rc underflow on arena slot {idx}");
        let rc = &mut self.rc[i];
        *rc = rc.saturating_sub(1);
    }

    #[allow(dead_code)] // diagnostics / debug assertions
    pub(crate) fn rc(&self, idx: u32) -> u32 {
        self.rc[idx as usize]
    }

    /// Counts the prefix slot `idx` as used by this arena; `false` if it
    /// already was.
    pub(crate) fn hold(&mut self, idx: u32) -> bool {
        debug_assert!(idx < self.prefix, "only prefix slots are held");
        let i = idx as usize;
        self.held.ensure(i);
        let fresh = !self.held.get(i);
        self.held.set(i);
        self.held_count += usize::from(fresh);
        fresh
    }

    /// Prefix slots this arena holds as its own.
    pub(crate) fn held_count(&self) -> usize {
        self.held_count
    }

    /// Alive slots, the pinned prefix included.
    pub(crate) fn alive_count(&self) -> usize {
        self.alive_count
    }

    pub(crate) fn peak_count(&self) -> usize {
        self.peak
    }

    /// Total slots (alive + freed): every id the arena has handed out
    /// lies below it, which is what sizes a per-traversal visit set.
    pub(crate) fn capacity(&self) -> usize {
        self.items.len()
    }

    /// Bytes of the arena, by length: payloads, reference counts (the
    /// free list lives in those of the freed slots) and the flag bitsets.
    pub(crate) fn bytes(&self) -> usize {
        self.items.len() * (std::mem::size_of::<T>() + std::mem::size_of::<u32>())
            + (self.alive.words.len() + self.mark.words.len() + self.held.words.len())
                * std::mem::size_of::<u64>()
    }

    /// Clears every mark but the pinned prefix's, which reads as marked:
    /// the mark phase stops at it and the sweep passes it by. Pair with
    /// [`Arena::mark`] and [`Arena::sweep`].
    pub(crate) fn clear_marks(&mut self) {
        let (full, rest) = (self.prefix as usize / 64, self.prefix % 64);
        let words = &mut self.mark.words;
        words[..full].fill(u64::MAX);
        words[full..].fill(0);
        if rest != 0 {
            words[full] = (1u64 << rest) - 1;
        }
    }

    /// Marks a slot; returns whether this was the first visit.
    pub(crate) fn mark(&mut self, idx: u32) -> bool {
        let i = idx as usize;
        debug_assert!(self.alive.get(i));
        let was = self.mark.get(i);
        self.mark.set(i);
        !was
    }

    pub(crate) fn is_marked(&self, idx: u32) -> bool {
        self.mark.get(idx as usize)
    }

    /// Iterates the ids of alive slots with a positive reference count
    /// (the GC roots).
    pub(crate) fn rooted_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.rc
            .iter()
            .enumerate()
            .filter(|&(i, &rc)| rc > 0 && self.alive.get(i))
            .map(|(i, _)| i as u32)
    }

    /// Ids of the alive slots, ascending.
    #[cfg(test)]
    pub(crate) fn alive_indices(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.items.len())
            .filter(|&i| self.alive.get(i))
            .map(|i| i as u32)
    }

    /// Ids of the alive-but-unmarked slots, ascending: what
    /// [`Arena::sweep`] would free.
    #[cfg(test)]
    pub(crate) fn unmarked_indices(&self) -> Vec<u32> {
        (0..self.items.len())
            .filter(|&i| self.alive.get(i) && !self.mark.get(i))
            .map(|i| i as u32)
            .collect()
    }

    /// Frees every alive-but-unmarked slot. Slots are freed in ascending
    /// id order and pushed onto the LIFO free list in that order; both
    /// orders decide future node ids and are part of the engine's
    /// results (see [`crate::gc`]). Returns the number of freed slots.
    /// The pinned prefix reads as marked (see [`Arena::clear_marks`]),
    /// so it is never freed. Unlinking the freed nodes from their
    /// unique table is the caller's business, and done before: the
    /// sweep reads no payload.
    ///
    /// The scan is word-wide: 64 slots whose `alive & !mark` word is
    /// zero are skipped with a single compare.
    pub(crate) fn sweep(&mut self) -> usize {
        let mut freed = 0;
        for w in 0..self.alive.words.len() {
            let mut dead = self.alive.words[w] & !self.mark.words.get(w).copied().unwrap_or(0);
            if dead == 0 {
                continue;
            }
            self.alive.words[w] &= !dead;
            while dead != 0 {
                let bit = dead.trailing_zeros() as usize;
                dead &= dead - 1;
                let i = w * 64 + bit;
                self.rc[i] = self.free_head;
                self.free_head = i as u32;
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

    impl<T> Arena<T> {
        /// The free list, top (next to be reused) first.
        fn free_list(&self) -> Vec<u32> {
            let mut ids = Vec::new();
            let mut at = self.free_head;
            while at != NO_SLOT {
                ids.push(at);
                at = self.rc[at as usize];
            }
            ids
        }
    }

    #[test]
    fn alloc_reuses_freed_slots() {
        let mut a: Arena<u64> = Arena::new();
        let x = a.alloc(10);
        let y = a.alloc(20);
        assert_ne!(x, y);
        assert_eq!(a.alive_count(), 2);

        // Free everything (nothing rooted, nothing marked).
        a.clear_marks();
        let freed = a.sweep();
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
        let freed = a.sweep();
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
        a.sweep();
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

    /// Test names call the pinned prefix *frozen* and its length the
    /// *watermark*, as `PackageStats::frozen_vnodes` does.
    #[test]
    fn frozen_prefix_resolves_below_watermark_and_allocs_above() {
        let mut base: Arena<u64> = Arena::new();
        for i in 0..10 {
            base.alloc(i * 100);
        }
        let mut fork = base.fork();
        assert_eq!(fork.prefix(), 10);
        assert_eq!(fork.prefix_alive(), 10);
        assert_eq!(fork.alive_count(), 10);
        assert_eq!(*fork.get(3), 300);

        let id = fork.alloc(7777);
        assert!(id >= fork.prefix(), "alloc below the prefix");
        assert_eq!(*fork.get(id), 7777);
        assert_eq!(fork.alive_count(), 11);
        assert_eq!(fork.alive_count() - fork.prefix_alive(), 1);

        // Two forks of one base see the same prefix payloads.
        let other: Arena<u64> = base.fork();
        assert_eq!(*other.get(3), 300);
    }

    /// A slot the base freed stays dead in a fork: the fork's free list
    /// starts empty, so its first id is the prefix length.
    #[test]
    fn fork_never_reuses_a_dead_prefix_slot() {
        let mut base: Arena<u64> = Arena::new();
        for i in 0..70 {
            let id = base.alloc(i);
            if i != 3 && i != 68 {
                base.inc_rc(id);
            }
        }
        base.clear_marks();
        for r in base.rooted_indices().collect::<Vec<_>>() {
            base.mark(r);
        }
        assert_eq!(base.sweep(), 2);
        let mut fork = base.fork();
        assert_eq!((fork.prefix(), fork.prefix_alive()), (70, 68));
        assert_eq!(fork.alloc(7), 70);
        assert_eq!(base.alloc(7), 68, "the base reuses its own");
    }

    #[test]
    fn sweep_never_frees_frozen_slots() {
        let mut base: Arena<u64> = Arena::new();
        for i in 0..70 {
            base.alloc(i); // spans a word boundary
        }
        let mut fork = base.fork();
        let a = fork.alloc(1000);
        let b = fork.alloc(2000);
        fork.inc_rc(a);
        // Reference counts work on prefix slots like on any other.
        fork.inc_rc(5);
        fork.dec_rc(5);
        assert_eq!(fork.rc(5), 0);

        fork.clear_marks();
        assert!(fork.is_marked(5), "prefix slots read as already marked");
        assert!(!fork.mark(5), "marking a prefix slot is never first visit");
        let roots: Vec<u32> = fork.rooted_indices().collect();
        assert_eq!(roots, vec![a]);
        for r in roots {
            fork.mark(r);
        }
        let swept = fork.unmarked_indices();
        let freed = fork.sweep();
        assert_eq!(fork.free_list(), swept);
        assert_eq!(freed, 1);
        assert_eq!(swept, vec![b]);
        assert!(swept.iter().all(|&i| i >= fork.prefix()));
        // Prefix payloads and the rooted new node survive.
        assert_eq!(*fork.get(42), 42);
        assert_eq!(*fork.get(a), 1000);
        assert_eq!(fork.alive_count(), 71);

        // The freed slot is reused at the same id.
        let c = fork.alloc(3000);
        assert_eq!(c, b);
        assert_eq!(*fork.get(c), 3000);
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
        let freed = a.sweep();
        let victims: Vec<u32> = (0..140).filter(|i| i % 5 != 0).collect();
        assert_eq!(freed, victims.len());
        // Pushed in ascending id order: the list reads them back down.
        let mut swept = a.free_list();
        swept.reverse();
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
        assert_eq!(a.sweep(), victims.len() + 2);
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
        let swept = a.free_list();
        assert!(swept.is_empty());
        let freed = a.sweep();
        let swept = a.free_list();
        assert_eq!(freed, 200 - roots.len());
        assert_eq!(swept.len(), freed);
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
    fn fork_copies_whole_chunks_and_new_ids_start_above_the_prefix() {
        const SLOTS: u32 = 3 * CHUNK_LEN as u32 + 1;
        let mut base: Arena<u64> = Arena::new();
        for i in 0..SLOTS {
            assert_eq!(base.alloc(u64::from(i) * 3), i);
        }
        let mut fork = base.fork();
        drop(base);
        assert_eq!(fork.prefix(), SLOTS);
        for id in 0..SLOTS {
            assert_eq!(*fork.get(id), u64::from(id) * 3);
        }
        assert!(
            fork.items.chunks.iter().all(|c| c.capacity() == CHUNK_LEN),
            "a copied chunk would move on its next push"
        );

        for i in 0..CHUNK_LEN as u32 + 2 {
            assert_eq!(fork.alloc(u64::from(i)), SLOTS + i);
        }
        assert_eq!(
            *fork.get(SLOTS + CHUNK_LEN as u32 + 1),
            CHUNK_LEN as u64 + 1
        );
        assert_eq!(*fork.get(SLOTS - 1), u64::from(SLOTS - 1) * 3);
        assert_eq!(fork.capacity(), SLOTS as usize + CHUNK_LEN + 2);
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
        a.sweep();
        let mut swept = a.free_list();
        swept.reverse();
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
