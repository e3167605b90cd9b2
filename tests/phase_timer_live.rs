//! A cached `PhaseTimer` follows the live telemetry flag.
//!
//! Pool workers resolve their phase timers once, when their thread
//! starts, and then live as long as the pool. The flag that matters is
//! the one in force when a job runs, not the one in force when the
//! worker was spawned: a worker spawned while telemetry was off must
//! record once it is switched on, and stop when it is switched off
//! again — as `Span` and `count` do.
//!
//! Own test binary: it reads a global phase count and flips the
//! process-global enable flag.

use approxdd::circuit::generators;
use approxdd::exec::{BackendPool, BuildPool, PoolJob};
use approxdd::sim::Simulator;
use approxdd::telemetry;

fn run_one(pool: &BackendPool) -> u64 {
    pool.run_jobs(vec![PoolJob::new(generators::ghz(6)).shots(32)])
        .pop()
        .expect("one job")
        .expect("job succeeds")
        .fingerprint()
}

#[test]
fn a_worker_spawned_with_telemetry_off_records_once_it_is_on() {
    let recorded = || telemetry::phase_histogram("pool.run_job").count();

    telemetry::set_enabled(false);
    let pool = Simulator::builder().seed(11).workers(1).build_pool();
    // The first job returns only after the worker thread has built its
    // timers, so they were built with telemetry off.
    let before = recorded();
    let spawned_off = run_one(&pool);
    assert_eq!(recorded(), before, "a disabled run records nothing");

    telemetry::set_enabled(true);
    let switched_on = run_one(&pool);
    assert_eq!(recorded(), before + 1, "switched on after the spawn");

    telemetry::set_enabled(false);
    let switched_off = run_one(&pool);
    telemetry::set_enabled(true);
    assert_eq!(recorded(), before + 1, "switched off after the spawn");

    assert_eq!(spawned_off, switched_on);
    assert_eq!(spawned_off, switched_off);
}
