//! The heap one truncation round needs on top of the node store, pinned.
//!
//! A round analyses every node of the state it truncates and keeps
//! per-node arrays while it selects and rebuilds (`crates/dd/src/approx.rs`,
//! "What a round touches"). It runs when the arenas are fullest, so
//! whatever those arrays hold at once lands on the process high-water
//! mark. This binary counts every heap byte through its own global
//! allocator and holds one budget round on a memory-driven Table I state
//! to a ceiling per analysed node, net of what the round adds to the
//! node store (the nodes it interns are the result, not scratch).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use approxdd::circuit::generators;
use approxdd::sim::{Simulator, Strategy};

/// The system allocator, counting the bytes it holds and their maximum.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(by: usize) {
        let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // A moving realloc holds both blocks while it copies: count
            // the new one before the old one goes.
            Self::grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn a_budget_round_needs_at_most_24_bytes_per_analysed_node() {
    // The round's scratch peaks while it selects: contributions (8 B a
    // node), level lists (4 B) and candidate ranks (4 B), plus the rank
    // index. A round that keeps a 32 B rebuild entry per node beside the
    // contributions reads ≈ 47 B here.
    const CEILING_BYTES_PER_NODE: f64 = 24.0;
    const ROUND_FIDELITY: f64 = 0.975;
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
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let round = p
        .truncate(state, 1.0 - ROUND_FIDELITY)
        .expect("a unit-norm state");
    let peak = PEAK.load(Ordering::Relaxed);
    let store_growth = p.stats().node_store_bytes.saturating_sub(store_before);
    assert_eq!(round.size_before, nodes);
    assert!(round.removed_nodes > 0, "the round removes nodes");

    let scratch = (peak - live_before).saturating_sub(store_growth);
    #[allow(clippy::cast_precision_loss)]
    let per_node = scratch as f64 / nodes as f64;
    println!(
        "{nodes} nodes, {} removed: heap peak +{} B, node store +{store_growth} B, \
         scratch {scratch} B = {per_node:.1} B per analysed node",
        round.removed_nodes,
        peak - live_before,
    );
    assert!(
        per_node <= CEILING_BYTES_PER_NODE,
        "a round needs {per_node:.1} B per analysed node"
    );
}
