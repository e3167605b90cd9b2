//! The allocation trajectory of two Table I runs, pinned.
//!
//! `tests/golden_results.rs` pins what a run *returns*; this file pins
//! what it *allocates on the way*: how many nodes the unique tables had
//! to create, the peak arena populations, how often the collector ran
//! and what it freed, and the bytes the node store ends up holding.
//! Garbage-collection timing is part of the result (ARCHITECTURE.md), so
//! a `crates/dd` change that claims to be bit-exact *and* to allocate
//! nothing new leaves every literal below alone — they were recorded on
//! the commit before the identity rule (`crates/dd/src/ops.rs`) landed.
//! A change that re-lays out a table moves `node_store_bytes` only and
//! re-records it here, as it does in `tests/node_store.rs`.
//!
//! What the identity rule did move is pinned beside them: it fires, and
//! the run consults the compute tables strictly less often than the
//! 463 547 / 920 309 lookups it took while the rule answered only nodes
//! whose image is exactly 1 (512 439 / 1 139 349 before there was a
//! rule). Now that a node carries its image whatever it is, the whole
//! gain sat in the `mul_mv` table — 270 031 → under 70 000 lookups on
//! the supremacy run, 547 574 → under 310 000 on the Shor run, whose
//! permutation gates keep the recursion — while the `add` table is
//! consulted exactly as often as before: under an identity every `add`
//! has a zero operand and returns before it reaches the table.
//!
//! Since then `mul_mv` memoizes in a map that lives for one `apply`
//! (PR 25), which is not a compute table: the lookups the runs make are
//! the `add` table's and nothing else, and `node_store_bytes` lost the
//! 2 621 440 B slot array of the deleted `mul_mv` table (re-recorded
//! from 37 860 984 and 40 292 860). Every other literal is the same.

use approxdd::circuit::{generators, Circuit};
use approxdd::dd::PackageStats;
use approxdd::shor::shor_circuit;
use approxdd::sim::{Simulator, Strategy};

/// The counters no bit-exact, allocation-free change may move.
#[derive(Debug, PartialEq, Eq)]
struct Trajectory {
    unique_misses: u64,
    vnodes_peak: usize,
    mnodes_peak: usize,
    gc_runs: u64,
    gc_freed: u64,
    node_store_bytes: usize,
}

fn run(circuit: &Circuit, strategy: Strategy) -> PackageStats {
    let mut sim = Simulator::builder().strategy(strategy).seed(7).build();
    sim.run(circuit).expect("a valid circuit").stats.package
}

fn trajectory(p: &PackageStats) -> Trajectory {
    Trajectory {
        unique_misses: p.unique_misses,
        vnodes_peak: p.vnodes_peak,
        mnodes_peak: p.mnodes_peak,
        gc_runs: p.gc_runs,
        gc_freed: p.gc_freed,
        node_store_bytes: p.node_store_bytes,
    }
}

#[test]
fn memory_driven_supremacy_allocates_what_it_did_before() {
    let p = run(
        &generators::supremacy(4, 4, 9, 0),
        Strategy::memory_driven_table1(4096, 0.975),
    );
    assert_eq!(
        trajectory(&p),
        Trajectory {
            unique_misses: 437_447,
            vnodes_peak: 295_142,
            mnodes_peak: 751,
            gc_runs: 1,
            gc_freed: 266_529,
            node_store_bytes: 35_239_544,
        }
    );
    assert!(p.identity_skips > 0);
    assert!(p.ct_hits + p.ct_misses < 463_547);
    assert_eq!(p.ct_hits + p.ct_misses, 193_516);
}

#[test]
fn fidelity_driven_shor_allocates_what_it_did_before() {
    let p = run(
        &shor_circuit(323, 8).expect("323 is an odd composite coprime to 8"),
        Strategy::fidelity_driven(0.5, 0.9),
    );
    assert_eq!(
        trajectory(&p),
        Trajectory {
            unique_misses: 521_977,
            vnodes_peak: 299_598,
            mnodes_peak: 3_910,
            gc_runs: 2,
            gc_freed: 413_136,
            node_store_bytes: 37_671_420,
        }
    );
    assert!(p.identity_skips > 0);
    assert!(p.ct_hits + p.ct_misses < 920_309);
    assert_eq!(p.ct_hits + p.ct_misses, 372_735);
}
