//! The three exact metrics are the same for every run: the same seed
//! repeats them bit for bit, and another seed runs the same instances
//! in another order with other sampling seeds, which must not move
//! them either (their bound is 0). Slices run in-process.

use std::time::Instant;

use approxdd_benchmark::slice::{SliceConfig, SliceReport};
use approxdd_benchmark::spec::Workload;
use approxdd_benchmark::workloads::{derived_seed, run_slice, shuffled, stream};

fn slice(workload: Workload, seed: u64, traced: bool) -> SliceReport {
    let config = SliceConfig {
        workload,
        seed,
        traced,
    };
    run_slice(config, Instant::now())
}

fn exact_for_every_seed(workload: Workload) {
    let a = slice(workload, 11, false);
    let b = slice(workload, 11, false);
    let other = slice(workload, 12, false);
    assert_eq!(a.items.len(), workload.slice_items(), "counts are fixed");
    assert_eq!(other.items.len(), workload.slice_items());
    assert_eq!(a.failed + b.failed + other.failed, 0, "{}", workload.name());
    assert!(a.exact.peak_nodes > 0 && a.exact.dd_ops > 0 && a.exact.fidelity_min > 0.0);
    assert_eq!(a.exact, b.exact, "{}: same seed", workload.name());
    assert_eq!(a.exact, other.exact, "{}: other seed", workload.name());
}

#[test]
fn seeds_choose_order_and_sampling() {
    let (a, b) = (shuffled(11, 16), shuffled(12, 16));
    assert_ne!(a, b, "another seed, another order");
    assert_eq!(a, shuffled(11, 16), "the same seed, the same order");
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..16).collect::<Vec<_>>(), "a permutation");
    assert_ne!(
        derived_seed(11, stream::SAMPLING, 0),
        derived_seed(12, stream::SAMPLING, 0)
    );
}

#[test]
fn supremacy_memory_is_exact_for_every_seed() {
    exact_for_every_seed(Workload::SupremacyMemory);
}

#[test]
fn shor_fidelity_is_exact_for_every_seed() {
    exact_for_every_seed(Workload::ShorFidelity);
}

#[test]
fn pool_sweep_is_exact_for_every_seed() {
    exact_for_every_seed(Workload::PoolSweep);
}

#[test]
fn serve_closed_loop_is_exact_for_every_seed() {
    exact_for_every_seed(Workload::ServeClosedLoop);
}

#[test]
fn traced_slices_record_spans_and_layer_data() {
    let report = slice(Workload::PoolSweep, 11, true);
    assert_eq!(report.failed, 0);
    let items = report.spans.iter().filter(|s| s.name == "item").count();
    assert_eq!(items, Workload::PoolSweep.slice_items());
    assert!(report
        .spans
        .iter()
        .any(|s| s.name == "exec.run_jobs" && s.parent.is_some()));
    assert!(report
        .layer
        .iter()
        .any(|(name, _, _)| name == "exec.busy_share"));
}
