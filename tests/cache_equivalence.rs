//! Cache provisioning is invisible: a package that takes over the
//! `add` table slab a previous package retired on the same thread
//! behaves exactly like one on a fresh thread. That every cache *size*
//! gives byte-identical results is `tests/determinism.rs`'s to check
//! (and `crates/dd`'s `results_do_not_depend_on_cache_size_across_ratio_resets`
//! across canonical-ratio resets).
//!
//! Why this holds: an undersized or recycled cache only loses or
//! shadows memoized results, forcing recomputation, and recomputation
//! is bit-deterministic because node canonicalization lives in the
//! (exact, never lossy) unique table, whose evolution is independent
//! of the memoization pattern. See the `approxdd_dd` crate docs.

use std::sync::Arc;
use std::thread;

use approxdd::circuit::{generators, Circuit};
use approxdd::dd::PackageStats;
use approxdd::sim::{Simulator, Strategy};

/// Everything one run leaves observable: the final amplitudes' bits,
/// the run's result statistics, and the package's own counters (per
/// table hits, misses, occupancy and capacity among them).
#[derive(Debug, PartialEq)]
struct Observed {
    amplitude_bits: Vec<(u64, u64)>,
    max_dd_size: usize,
    approx_rounds: usize,
    fidelity_bits: u64,
    size_series: Vec<usize>,
    package: PackageStats,
}

/// Runs `circuit` on the calling thread under a memory-driven policy
/// with GC pressure, optionally layered over a frozen snapshot, and
/// drops the simulator before returning.
fn observe(circuit: &Circuit, over_snapshot: bool) -> Observed {
    let builder = || {
        Simulator::builder()
            .seed(11)
            .record_size_series(true)
            .strategy(Strategy::memory_driven(32, 0.9))
            .gc_node_threshold(16)
    };
    let mut sim = if over_snapshot {
        let snapshot = builder().build_snapshot([circuit]).expect("snapshot");
        builder().build_with_snapshot(Arc::new(snapshot))
    } else {
        builder().build()
    };
    let run = sim.run(circuit).expect("run");
    let amplitudes = sim.amplitudes(&run).expect("amplitudes");
    Observed {
        amplitude_bits: amplitudes
            .iter()
            .map(|a| (a.re.to_bits(), a.im.to_bits()))
            .collect(),
        max_dd_size: run.stats.max_dd_size,
        approx_rounds: run.stats.approx_rounds,
        fidelity_bits: run.stats.fidelity.to_bits(),
        size_series: run.stats.size_series.clone(),
        package: sim.package().stats(),
    }
}

/// Cache provisioning is invisible: a package that takes over the
/// slot arrays a previous package retired on the same thread — full of
/// that run's entries, keyed by the very node ids the next run will
/// use — behaves exactly like one on a thread that never ran anything.
#[test]
fn recycled_caches_match_fresh_caches() {
    let a = generators::supremacy(3, 3, 10, 0);
    let b = generators::supremacy(3, 3, 10, 1);
    for over_snapshot in [false, true] {
        let (a, b1, b2) = (a.clone(), b.clone(), b.clone());
        let fresh = thread::spawn(move || observe(&b1, over_snapshot))
            .join()
            .expect("fresh thread");
        let recycled = thread::spawn(move || {
            let _ = observe(&a, over_snapshot);
            observe(&b2, over_snapshot)
        })
        .join()
        .expect("recycling thread");
        // The comparison means something only if the run truncated,
        // cleared its caches and hit in them.
        assert!(fresh.approx_rounds > 0 && fresh.package.gc_runs > 0);
        assert!(fresh.package.ct_hits > 0);
        assert_eq!(fresh, recycled, "snapshot: {over_snapshot}");
    }
}
