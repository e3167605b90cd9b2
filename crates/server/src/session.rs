//! Warm sessions: an LRU cache of warmed simulation snapshots keyed on
//! the *circuit family*.
//!
//! A serving workload submits the *same family* of circuits across
//! many independent requests, so the server warms one [`SimSnapshot`]
//! per family — a DD package holding the family's gate DDs — and keeps
//! it alive between batches
//! ([`approxdd_exec::BackendPool::run_jobs_with_snapshot`]): the first
//! request of a family pays the gate builds, every later request's job
//! starts from a `Package::fork` of the cached package, a copy of a few
//! hundred nodes whose pinned prefix no collection frees. The cached
//! package holds no compute-table slot array and no memo.
//!
//! # Determinism
//!
//! A snapshot is a pure function of (simulator options, circuit gate
//! structure) — see [`SimSnapshot::build`] — and a job on a fork of a
//! snapshot of its own circuit is bit-identical to one run without a
//! snapshot. A session holds exactly one family, so it is always that
//! case: warm, cold and re-warmed
//! runs of the same request fingerprint identically, which the
//! workspace's determinism suite (`tests/determinism.rs`) asserts over
//! TCP. The cache key hashes the gate structure (qubit count
//! and every operation, *not* the circuit name), so two differently
//! named but structurally identical circuits share a session — safe
//! for the same reason.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use approxdd_circuit::Circuit;
use approxdd_sim::SimSnapshot;

/// The structural family key of a circuit: a hash over its register
/// width and operation list, excluding its name.
///
/// Two circuits with equal families would warm identical snapshots
/// (snapshot construction never reads the name), so they may share a
/// cached session.
#[must_use]
pub fn family_hash(circuit: &Circuit) -> u64 {
    let mut h = DefaultHasher::new();
    circuit.n_qubits().hash(&mut h);
    circuit.ops().len().hash(&mut h);
    for op in circuit.ops() {
        // Operation intentionally exposes no Hash impl (f64 angles);
        // its Debug form is a complete, stable rendering of the
        // structure, which is exactly what the family key needs.
        format!("{op:?}").hash(&mut h);
    }
    h.finish()
}

/// One cached warm session.
#[derive(Debug)]
struct SessionEntry {
    family: u64,
    snapshot: Arc<SimSnapshot>,
}

/// Counters describing a [`SessionCache`]'s behavior — served from
/// `GET /stats` and never part of any job result or fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups that found a warm session.
    pub hits: u64,
    /// Lookups that missed (the request then pays a cold warm-up).
    pub(crate) misses: u64,
    /// Snapshots inserted over the cache's lifetime.
    pub(crate) inserts: u64,
    /// Sessions evicted by the LRU cap.
    pub evictions: u64,
    /// Sessions currently cached.
    pub(crate) entries: usize,
    /// DD nodes held by the cached sessions' warmed packages combined.
    pub(crate) frozen_nodes: usize,
    /// Times a worker package was forked from any currently cached
    /// snapshot (the cross-batch reuse odometer).
    pub(crate) attaches: u64,
}

/// An LRU cache mapping [`family_hash`] keys to warmed snapshots.
///
/// Capacity 0 disables caching entirely (every lookup misses, inserts
/// are dropped). The cache is a plain `Vec` ordered coldest-first —
/// at serving scale (a handful of circuit families) linear scans beat
/// any indexed structure, and eviction is `remove(0)`.
#[derive(Debug)]
pub struct SessionCache {
    capacity: usize,
    entries: Vec<SessionEntry>,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl SessionCache {
    /// Creates a cache holding at most `capacity` warm sessions.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            inserts: 0,
            evictions: 0,
        }
    }

    /// Looks up a warm session, marking it most-recently-used on a hit.
    pub fn get(&mut self, family: u64) -> Option<Arc<SimSnapshot>> {
        match self.entries.iter().position(|e| e.family == family) {
            Some(idx) => {
                self.hits += 1;
                let entry = self.entries.remove(idx);
                let snapshot = Arc::clone(&entry.snapshot);
                self.entries.push(entry);
                Some(snapshot)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly warmed session, evicting the coldest entry
    /// when full. If the family is already cached (two runners raced
    /// on the same cold family), the existing entry wins and is
    /// returned, so every racer forks one canonical `Arc`.
    pub fn insert(&mut self, family: u64, snapshot: Arc<SimSnapshot>) -> Arc<SimSnapshot> {
        if self.capacity == 0 {
            return snapshot;
        }
        if let Some(idx) = self.entries.iter().position(|e| e.family == family) {
            let entry = self.entries.remove(idx);
            let canonical = Arc::clone(&entry.snapshot);
            self.entries.push(entry);
            return canonical;
        }
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        self.inserts += 1;
        self.entries.push(SessionEntry {
            family,
            snapshot: Arc::clone(&snapshot),
        });
        snapshot
    }

    /// Point-in-time counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            hits: self.hits,
            misses: self.misses,
            inserts: self.inserts,
            evictions: self.evictions,
            entries: self.entries.len(),
            frozen_nodes: self.entries.iter().map(|e| e.snapshot.frozen_nodes()).sum(),
            attaches: self.entries.iter().map(|e| e.snapshot.attaches()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_circuit::generators;
    use approxdd_sim::Simulator;

    fn snap(n: usize) -> Arc<SimSnapshot> {
        let circuit = generators::ghz(n);
        Arc::new(
            Simulator::builder()
                .build_snapshot(&circuit)
                .expect("snapshot builds"),
        )
    }

    #[test]
    fn family_ignores_name_but_not_structure() {
        let a = generators::ghz(5);
        let mut b = generators::ghz(5);
        b.set_name("renamed");
        assert_eq!(family_hash(&a), family_hash(&b));
        assert_ne!(family_hash(&a), family_hash(&generators::ghz(6)));
        assert_ne!(family_hash(&a), family_hash(&generators::qft(5)));
    }

    #[test]
    fn lru_evicts_coldest_and_counts() {
        let mut cache = SessionCache::new(2);
        assert!(cache.get(1).is_none());
        cache.insert(1, snap(2));
        cache.insert(2, snap(3));
        assert!(cache.get(1).is_some()); // 1 is now warmest
        cache.insert(3, snap(4)); // evicts 2, the coldest
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 2);
        assert_eq!(s.inserts, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert!(s.frozen_nodes > 0);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let mut cache = SessionCache::new(0);
        cache.insert(1, snap(2));
        assert!(cache.get(1).is_none());
        assert_eq!(cache.stats().inserts, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn racing_insert_returns_canonical_arc() {
        let mut cache = SessionCache::new(2);
        let first = cache.insert(7, snap(2));
        let second = cache.insert(7, snap(2));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().inserts, 1);
    }
}
