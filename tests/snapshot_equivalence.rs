//! Snapshot GC: collecting in a job's fork of a warmed package must
//! never free a node of the fork's pinned prefix (the nodes the fork
//! copied from the snapshot); only nodes built above it are
//! collectable. That snapshot-on and snapshot-off runs fingerprint
//! identically is `tests/determinism.rs`'s to check; see
//! docs/ARCHITECTURE.md.

use std::sync::Arc;

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

/// GC in a fork must respect its pinned prefix: heavy truncation-driven
/// sweeps may free nodes built above the prefix freely, but every
/// prefix node stays alive (`frozen_nodes` counts the alive prefix),
/// and the snapshot still forks runs that match a plain build bit for
/// bit afterwards.
#[test]
fn delta_gc_never_frees_frozen_nodes() {
    let circuit = generators::supremacy(3, 3, 10, 0);
    let builder = || {
        Simulator::builder()
            .seed(5)
            .strategy(Strategy::memory_driven(32, 0.9))
            .gc_node_threshold(16)
    };
    let snapshot = Arc::new(builder().build_snapshot(&circuit).expect("snapshot build"));
    let frozen = snapshot.frozen_nodes();
    assert!(frozen > 0, "the snapshot must pin a nonempty gate prefix");

    let mut sim = builder().build_with_snapshot(snapshot.clone());
    let run = sim.run(&circuit).expect("forked run");
    assert!(
        run.stats.approx_rounds > 0,
        "test needs truncation pressure"
    );
    let stats = sim.package().stats();
    assert!(
        stats.gc_runs > 0,
        "test needs the fork's GC to actually fire"
    );
    assert_eq!(
        stats.frozen_nodes(),
        frozen,
        "the fork's pinned prefix must survive every sweep intact"
    );
    assert!(stats.vnodes_alive >= stats.frozen_vnodes);
    assert!(stats.mnodes_alive >= stats.frozen_mnodes);

    // The snapshot is still fully usable after the sweeps: a fresh
    // fork of it matches a plain rebuild bit for bit.
    let mut layered = builder().build_with_snapshot(snapshot);
    let mut plain = builder().build();
    let a = layered.run(&circuit).expect("second forked run");
    let b = plain.run(&circuit).expect("plain run");
    assert_eq!(a.stats.max_dd_size, b.stats.max_dd_size);
    assert_eq!(a.stats.fidelity.to_bits(), b.stats.fidelity.to_bits());
    assert_eq!(layered.draw_counts(&a, 256), plain.draw_counts(&b, 256));
}
