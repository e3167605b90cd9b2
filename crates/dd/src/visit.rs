//! Dense visit index over arena slot ids.
//!
//! The per-gate size count and the per-round contribution and rebuild
//! passes all ask one question per node — "seen this id before, and
//! where did I put what I know about it?". Node ids are arena slot
//! indices, so the answer is a bit per slot rather than a hash probe:
//!
//! * [`IdSet`] — one bit per slot of an arena (pinned prefix included),
//!   zero-initialised per traversal: `capacity / 8` bytes.
//! * [`IdIndex`] — an [`IdSet`] frozen into an `id → rank` map, the
//!   rank being the id's position among the members in ascending id
//!   order (a per-word running popcount: 4 more bytes per 64 slots).
//!   Per-node payloads then live in plain arrays of `len()` entries —
//!   sized to what is *reachable*, not to the arena.

use crate::edge::NodeId;

/// A set of node ids of one arena.
#[derive(Debug, Clone)]
pub(crate) struct IdSet {
    words: Vec<u64>,
}

impl IdSet {
    /// An empty set able to hold every id below `slots`.
    pub(crate) fn with_slots(slots: usize) -> Self {
        Self {
            words: vec![0; slots.div_ceil(64)],
        }
    }

    /// Adds `id`; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `id` is the terminal or lies beyond the slot count the
    /// set was built for.
    #[inline]
    pub(crate) fn insert(&mut self, id: NodeId) -> bool {
        let word = &mut self.words[id.0 as usize / 64];
        let bit = 1u64 << (id.0 % 64);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Freezes the set into an `id → rank` index.
    pub(crate) fn into_index(self) -> IdIndex {
        let mut before = Vec::with_capacity(self.words.len());
        let mut total = 0u32;
        for word in &self.words {
            before.push(total);
            total += word.count_ones();
        }
        IdIndex {
            words: self.words,
            before,
            len: total as usize,
        }
    }
}

/// An immutable set of node ids that ranks its members `0..len()` in
/// ascending id order.
#[derive(Debug, Clone)]
pub(crate) struct IdIndex {
    words: Vec<u64>,
    /// Members in all words before this one.
    before: Vec<u32>,
    len: usize,
}

impl IdIndex {
    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The rank of `id`, or `None` if it is not a member (any id is a
    /// valid question, the terminal included).
    #[inline]
    pub(crate) fn rank(&self, id: NodeId) -> Option<usize> {
        let at = id.0 as usize / 64;
        let word = *self.words.get(at)?;
        let bit = 1u64 << (id.0 % 64);
        (word & bit != 0)
            .then(|| self.before[at] as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// The members in ascending id order, i.e. in rank order.
    pub(crate) fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    #[allow(clippy::cast_possible_truncation)]
                    NodeId(at as u32 * 64 + bit)
                })
            })
        })
    }
}

/// Number of distinct non-terminal nodes reachable from `root`, where
/// `children` reads a node's successors out of an arena of `slots`
/// slots.
pub(crate) fn count_reachable<const K: usize>(
    slots: usize,
    root: NodeId,
    children: impl Fn(NodeId) -> [NodeId; K],
) -> usize {
    if root.is_terminal() {
        return 0;
    }
    let mut seen = IdSet::with_slots(slots);
    seen.insert(root);
    let mut stack = vec![root];
    let mut count = 1;
    while let Some(id) = stack.pop() {
        for child in children(id) {
            if !child.is_terminal() && seen.insert(child) {
                count += 1;
                stack.push(child);
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_visits_across_word_boundaries() {
        let mut set = IdSet::with_slots(130);
        for id in [0u32, 63, 64, 129] {
            assert!(set.insert(NodeId(id)));
            assert!(!set.insert(NodeId(id)));
        }
    }

    #[test]
    fn ranks_follow_ascending_id_order() {
        let mut set = IdSet::with_slots(200);
        let members = [199u32, 3, 64, 65, 0, 127];
        for id in members {
            set.insert(NodeId(id));
        }
        let index = set.into_index();
        assert_eq!(index.len(), members.len());
        let mut sorted = members;
        sorted.sort_unstable();
        for (rank, id) in sorted.into_iter().enumerate() {
            assert_eq!(index.rank(NodeId(id)), Some(rank));
        }
        let ids: Vec<u32> = index.ids().map(|n| n.0).collect();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn non_members_have_no_rank() {
        let mut set = IdSet::with_slots(70);
        set.insert(NodeId(5));
        let index = set.into_index();
        assert_eq!(index.rank(NodeId(4)), None);
        assert_eq!(index.rank(NodeId(69)), None);
        assert_eq!(index.rank(NodeId(70_000)), None, "beyond the arena");
        assert_eq!(index.rank(NodeId::TERMINAL), None);
    }
}
