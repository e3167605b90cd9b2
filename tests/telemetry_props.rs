//! Telemetry records: the spans wired through the run loop grow the
//! phase series. That toggling recording never moves a result bit is
//! `tests/determinism.rs`'s to check; this test stays out of that
//! binary, which flips the process-global enable flag.

use approxdd::circuit::generators;
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::Simulator;
use approxdd::telemetry;

/// The spans wired through the run loop actually record: one pooled
/// run must grow the phase-duration family.
#[test]
fn pooled_run_records_phase_series() {
    telemetry::set_enabled(true);
    let before = telemetry::phase_histogram("dd.apply").count();
    let pool = Simulator::builder().seed(11).workers(2).build_pool();
    let outcome = pool
        .run_jobs(vec![PoolJob::new(generators::ghz(6)).shots(32)])
        .pop()
        .expect("one job")
        .expect("job succeeds");
    assert!(outcome.counts.is_some());
    assert!(
        telemetry::phase_histogram("dd.apply").count() > before,
        "run loop must record dd.apply observations"
    );
    let text = telemetry::global().render_prometheus();
    assert!(text.contains("approxdd_phase_duration_nanoseconds_bucket"));
    assert!(text.contains("phase=\"pool.run_job\""));
}
