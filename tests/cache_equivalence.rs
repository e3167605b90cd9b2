//! Cache-size equivalence: the DD package's lossy compute caches are a
//! pure time/memory trade, so **every** cache size must produce
//! byte-identical results. Random circuits run with tiny (4-bit),
//! default (16-bit), and huge (20-bit) caches and must produce equal
//! [`PoolOutcome::fingerprint`]s (covering stats, size series, final
//! size, and sampled histograms), and must match the dense statevector
//! baseline within numerical tolerance.
//!
//! Why this holds: an undersized cache only loses memoized results,
//! forcing recomputation — and recomputation is bit-deterministic
//! because node canonicalization lives in the (exact, never lossy)
//! unique table, whose evolution is independent of the memoization
//! pattern. See the `approxdd_dd` crate docs.

use std::sync::Arc;
use std::thread;

use approxdd::backend::{amplitudes_of, BuildBackend, StatevectorBackend};
use approxdd::circuit::{generators, Circuit};
use approxdd::dd::PackageStats;
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::{Simulator, SimulatorBuilder, Strategy};
use proptest::prelude::*;

/// The three cache configurations under test: tiny, engine default,
/// huge. `None` leaves the builder knob unset (engine default).
const CACHE_BITS: [Option<u32>; 3] = [Some(4), None, Some(20)];

fn template(bits: Option<u32>) -> SimulatorBuilder {
    let b = Simulator::builder()
        .seed(11)
        .workers(2)
        .record_size_series(true)
        .gc_node_threshold(48); // force GC interleavings into the mix
    match bits {
        Some(bits) => b.compute_cache_bits(bits),
        None => b,
    }
}

/// Fingerprints of a batch of jobs under one cache configuration.
fn fingerprints(bits: Option<u32>, jobs: Vec<PoolJob>) -> Vec<u64> {
    let pool = template(bits).build_pool();
    pool.run_jobs(jobs)
        .into_iter()
        .map(|r| r.expect("pool job").fingerprint())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn exact_runs_are_cache_size_invariant(
        n in 3usize..7,
        depth in 4usize..10,
        seed in 0u64..500
    ) {
        let circuit = generators::random_circuit(n, depth, seed);
        let jobs = || vec![PoolJob::new(circuit.clone()).shots(256)];
        let reference = fingerprints(CACHE_BITS[0], jobs());
        for bits in &CACHE_BITS[1..] {
            let other = fingerprints(*bits, jobs());
            prop_assert_eq!(&reference, &other, "cache bits {:?} diverged", bits);
        }

        // And the tiny-cache engine still matches the dense baseline.
        let mut dd = template(Some(4)).build_backend();
        let mut sv = StatevectorBackend::with_seed(11);
        let a = amplitudes_of(&mut dd, &circuit).expect("dd amplitudes");
        let b = amplitudes_of(&mut sv, &circuit).expect("sv amplitudes");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!((*x - *y).mag() < 1e-9, "amplitude {i}: {x} vs {y}");
        }
    }

    #[test]
    fn approximate_runs_are_cache_size_invariant(
        seed in 0u64..200,
        threshold in 8usize..64
    ) {
        // Truncation rounds + GC exercise the generation-stamped clear
        // path; the fingerprint covers rounds, fidelity bits, removed
        // nodes, and the sampled histogram.
        let circuit = generators::supremacy(2, 3, 10, seed);
        let strategy = Strategy::memory_driven_table1(threshold, 0.9);
        let jobs = || vec![PoolJob::new(circuit.clone()).strategy(strategy).shots(256)];
        let reference = fingerprints(CACHE_BITS[0], jobs());
        for bits in &CACHE_BITS[1..] {
            let other = fingerprints(*bits, jobs());
            prop_assert_eq!(&reference, &other, "cache bits {:?} diverged", bits);
        }
    }
}

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
