//! A sampling request whose simulation fails must fail once per
//! worker, not once per chunk.
//!
//! This file holds a single test on purpose: it reads the process-wide
//! `backend.build` phase count, which any other pool in the same
//! process would also bump.

use approxdd_circuit::generators;
use approxdd_exec::backend::ExecError;
use approxdd_exec::{BuildPool, SHOT_CHUNK};
use approxdd_sim::{Simulator, Strategy};
use approxdd_telemetry::phase_histogram;

#[test]
fn failed_sampling_epoch_builds_one_engine_per_worker() {
    let workers = 2;
    let chunks = 24;
    let pool = Simulator::builder()
        .strategy(Strategy::fidelity_driven(2.0, 0.9)) // invalid preset: every run fails
        .workers(workers)
        .build_pool();
    let builds = phase_histogram("backend.build");
    let before = builds.count();
    let err = pool
        .sample_counts(&generators::ghz(4), chunks * SHOT_CHUNK)
        .expect_err("invalid strategy must fail the request");
    assert!(matches!(err, ExecError::Sim(_)), "{err:?}");
    // The collector returned on the first chunk's error; the workers
    // still drain the request's queued chunks, and dropping the pool
    // joins them. Every chunk must have answered from the failed epoch
    // instead of rebuilding an engine and re-running the circuit.
    assert_eq!(pool.stats().tasks_submitted, chunks);
    drop(pool);
    let built = builds.count() - before;
    assert!(
        (1..=workers as u64).contains(&built),
        "{built} engine builds for {chunks} chunks on {workers} workers"
    );
}
