//! Snapshot GC: the delta-only GC must never free a node in the
//! frozen tier. Frozen arena slots are pinned below the watermark
//! (refcounts are no-ops, marks always read live) and the sweep
//! iterates the delta only. That snapshot-on and snapshot-off runs
//! fingerprint identically is `tests/determinism.rs`'s to check; see
//! docs/ARCHITECTURE.md.

use std::sync::Arc;

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

/// Delta GC must respect the watermark: heavy truncation-driven
/// sweeps may free delta nodes freely, but every frozen node stays
/// alive and the frozen tier remains fully usable afterwards.
#[test]
fn delta_gc_never_frees_frozen_nodes() {
    let circuit = generators::supremacy(3, 3, 10, 0);
    let builder = || {
        Simulator::builder()
            .seed(5)
            .strategy(Strategy::memory_driven(32, 0.9))
            .gc_node_threshold(16)
    };
    let snapshot = Arc::new(
        builder()
            .build_snapshot([&circuit])
            .expect("snapshot build"),
    );
    let frozen = snapshot.frozen_nodes();
    assert!(frozen > 0, "the batch must freeze a nonempty gate prefix");

    let mut sim = builder().build_with_snapshot(snapshot.clone());
    let run = sim.run(&circuit).expect("layered run");
    assert!(
        run.stats.approx_rounds > 0,
        "test needs truncation pressure"
    );
    let stats = sim.package().stats();
    assert!(stats.gc_runs > 0, "test needs delta GC to actually fire");
    assert_eq!(
        stats.frozen_nodes(),
        frozen,
        "the frozen tier must survive every sweep intact"
    );
    assert!(stats.vnodes_alive >= stats.frozen_vnodes);
    assert!(stats.mnodes_alive >= stats.frozen_mnodes);

    // The shared tier is still fully usable after the sweeps: a fresh
    // layered simulator matches a plain rebuild bit for bit.
    let mut layered = builder().build_with_snapshot(snapshot);
    let mut plain = builder().build();
    let a = layered.run(&circuit).expect("layered rerun");
    let b = plain.run(&circuit).expect("plain run");
    assert_eq!(a.stats.max_dd_size, b.stats.max_dd_size);
    assert_eq!(a.stats.fidelity.to_bits(), b.stats.fidelity.to_bits());
    assert_eq!(layered.draw_counts(&a, 256), plain.draw_counts(&b, 256));
}
