//! `supremacy_memory` — Table I, top half. An item is one fresh
//! `Simulator::run` of a 4×4, depth-9 supremacy circuit under the
//! fixed-threshold memory-driven preset (threshold 4096, round fidelity
//! 0.975): about 0.6 s, 23 truncation rounds, peak ≈ 58.6 k state
//! nodes, final fidelity ≈ 0.59. The simulator is built per item, as a
//! pool worker does per job, so `core.build` is on the item's path.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use approxdd::circuit::{generators, Circuit};
use approxdd::sim::{Simulator, Strategy};

use super::{
    ct_lookups, derived_seed, phase_sums, probe_package, record_phase_shares, record_run, shuffled,
    stream, StepClock, INSTANCE_ROOT,
};
use crate::slice::Recorder;

const ROWS: usize = 4;
const COLS: usize = 4;
const DEPTH: usize = 9;
const NODE_THRESHOLD: usize = 4096;
const ROUND_FIDELITY: f64 = 0.975;
/// A 16-qubit state DD cannot exceed `2^16 − 1` nodes; a larger peak
/// would mean the size accounting is broken.
const PEAK_LIMIT: usize = 1 << 16;

pub(super) fn run(rec: &mut Recorder) {
    let config = rec.config();
    // One instance per item; the seed decides which item runs which.
    let order = shuffled(config.seed, config.workload.slice_items());
    let (circuits, generate_s) = rec.timed("circuit.generate", || {
        order
            .iter()
            .map(|&k| {
                let instance = derived_seed(INSTANCE_ROOT, stream::SUPREMACY_INSTANCE, k);
                generators::supremacy(ROWS, COLS, DEPTH, instance)
            })
            .collect::<Vec<Circuit>>()
    });
    rec.sample("circuit.generate_s", generate_s);
    // Warm-up: one untimed item, so the first timed item does not pay
    // for the allocator's first page faults.
    let mut warm_up = simulator(config.seed, None);
    std::hint::black_box(
        warm_up
            .run(&circuits[0])
            .expect("supremacy circuits are valid"),
    );
    drop(warm_up);
    rec.setup_done();

    while rec.wants_item() {
        let i = rec.next_item();
        let circuit = &circuits[i];
        let sampling = derived_seed(config.seed, stream::SAMPLING, i);
        rec.enter("item", i as u64);
        let clock = rec.traced().then(StepClock::shared);
        let before = rec.traced().then(phase_sums);
        let start = Instant::now();
        rec.enter("core.build", i as u64);
        let mut sim = simulator(sampling, clock.clone());
        rec.exit();
        let build_s = start.elapsed().as_secs_f64();
        rec.enter("core.run", i as u64);
        let run = sim.run(circuit).expect("supremacy circuits are valid");
        rec.exit();
        let seconds = start.elapsed().as_secs_f64();
        rec.exit();

        let stats = &run.stats;
        let ok = stats.fidelity >= stats.fidelity_lower_bound && stats.max_dd_size <= PEAK_LIMIT;
        let exact = (
            stats.max_dd_size as u64,
            ct_lookups(&stats.package),
            stats.fidelity,
        );
        rec.item(seconds, false, ok, exact);

        if let (Some(clock), Some(before)) = (clock, before) {
            record_phase_shares(rec, &before, &phase_sums());
            rec.sample("core.build_s_p50", build_s);
            record_run(rec, stats, &clock.lock().expect("observer never panics"));
            probe_package(rec, &mut sim, &run, i);
        }
    }
}

/// The item's simulator, observed by `clock` in a traced slice.
fn simulator(sampling: u64, clock: Option<Arc<Mutex<StepClock>>>) -> Simulator {
    let builder = Simulator::builder()
        .strategy(Strategy::memory_driven_table1(
            NODE_THRESHOLD,
            ROUND_FIDELITY,
        ))
        .seed(sampling);
    match clock {
        Some(clock) => builder.observe(clock).build(),
        None => builder.build(),
    }
}
