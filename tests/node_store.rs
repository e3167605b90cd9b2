//! The memory budget of the DD node store, pinned.
//!
//! `PackageStats::node_store_bytes` counts what the engine's tables
//! hold by their lengths, so unlike RSS it is the same on every machine
//! and in every build profile. Dividing it by the peak arena node count
//! of a memory-driven Table I run gives the number ARCHITECTURE.md's
//! "memory budget" section is about: bytes the engine keeps per node of
//! the largest population it ever held. A layout change that makes a
//! node dearer fails here before it shows in anyone's RSS.

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

#[test]
fn table1_supremacy_run_stays_within_its_bytes_per_node_budget() {
    // Measured 61.6 and 82.8 B per peak arena node: arenas 38 (a 32 B
    // vector payload, its 4 B reference count — where the free list
    // lives in the freed slots — and its 2 B side word of level and
    // image), unique tables 16, canonical ratios 0.02 and 21 (instance
    // 0 ends after a reset that gave the table's memory back, instance
    // 1 near the cap), the compute table 7 (2^16 slots of 32 B). The
    // ceiling is the larger measurement + 5 %.
    const CEILING_BYTES_PER_NODE: f64 = 86.9;
    for instance in 0..2 {
        let circuit = generators::supremacy(4, 4, 9, instance);
        let mut sim = Simulator::builder()
            .strategy(Strategy::memory_driven_table1(4096, 0.975))
            .seed(7)
            .build();
        let stats = sim.run(&circuit).expect("a valid circuit").stats;
        assert!(stats.approx_rounds > 0 && stats.package.gc_runs > 0);
        let peak = stats.package.peak_nodes();
        #[allow(clippy::cast_precision_loss)]
        let per_node = stats.package.node_store_bytes as f64 / peak as f64;
        println!(
            "instance {instance}: {} B over {peak} peak arena nodes = {per_node:.1} B/node",
            stats.package.node_store_bytes
        );
        assert!(
            per_node <= CEILING_BYTES_PER_NODE,
            "instance {instance}: {per_node:.1} B per peak arena node"
        );
    }
}
