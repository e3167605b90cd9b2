//! The heap one truncation round needs on top of the node store, pinned.
//!
//! A round analyses every node of the state it truncates and keeps
//! per-node arrays while it selects and rebuilds (`crates/dd/src/approx.rs`,
//! "What a round touches"). It runs when the arenas are fullest, so
//! whatever those arrays hold at once lands on the process high-water
//! mark. This binary counts every heap byte through the global allocator
//! of `tests/counting/mod.rs` and holds one budget round on a
//! memory-driven Table I state to a ceiling per analysed node, net of
//! what the round adds to the node store (the nodes it interns are the
//! result, not scratch).

mod counting;

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

use counting::Counting;

#[test]
fn a_budget_round_needs_at_most_24_bytes_per_analysed_node() {
    // The round's scratch peaks while it selects: contributions (8 B a
    // node), level lists (4 B) and candidate ranks (4 B), plus the rank
    // index. A round that keeps a 32 B rebuild entry per node beside the
    // contributions reads ≈ 47 B here.
    const CEILING_BYTES_PER_NODE: f64 = 24.0;
    const ROUND_FIDELITY: f64 = 0.975;
    Counting::count_this_thread();
    let circuit = generators::supremacy(4, 4, 9, 0);
    let mut sim = Simulator::builder()
        .strategy(Strategy::memory_driven_table1(4096, ROUND_FIDELITY))
        .seed(7)
        .build();
    let result = sim.run(&circuit).expect("a valid circuit");
    let state = result.state();
    let p = sim.package_mut();
    let nodes = p.vsize(state);
    assert!(nodes >= 50_000, "a memory-driven state of {nodes} nodes");

    let store_before = p.stats().node_store_bytes;
    let live_before = Counting::restart_peak();
    let round = p
        .truncate(state, 1.0 - ROUND_FIDELITY)
        .expect("a unit-norm state");
    let heap_growth = Counting::peak_above(live_before);
    let store_growth = p.stats().node_store_bytes.saturating_sub(store_before);
    assert_eq!(round.size_before, nodes);
    assert!(round.removed_nodes > 0, "the round removes nodes");

    let scratch = heap_growth.saturating_sub(store_growth);
    #[allow(clippy::cast_precision_loss)]
    let per_node = scratch as f64 / nodes as f64;
    let reading = format!(
        "{nodes} nodes, {} removed: heap peak +{heap_growth} B, node store +{store_growth} B, \
         scratch {scratch} B = {per_node:.1} B per analysed node",
        round.removed_nodes,
    );
    println!("{reading}");
    assert!(
        per_node <= CEILING_BYTES_PER_NODE,
        "a round needs more than {CEILING_BYTES_PER_NODE} B per analysed node: {reading}"
    );
}
