//! Resilience integration suite: under seeded fault injection (worker
//! panics, delays, forced aborts) the pool must contain panics and retry,
//! and the resilience counters must be worker-count-invariant, because
//! every one of them counts deterministic per-job events, never
//! scheduling accidents. That retried results are **byte-identical**
//! to a fault-free run is `tests/determinism.rs`'s to check.

use std::sync::Arc;
use std::time::Duration;

use approxdd::backend::ExecError;
use approxdd::circuit::generators;
use approxdd::exec::{silence_injected_panics, BuildPool, FaultPlan, PoolJob};
use approxdd::sim::{
    ApproxPolicy, PolicyAction, PolicyCtx, PolicyFactory, RetryPolicy, Simulator, Strategy,
};
use proptest::prelude::*;

/// A small batch: six 2×2 supremacy circuits.
fn batch() -> Vec<approxdd::circuit::Circuit> {
    (0..6).map(|s| generators::supremacy(2, 2, 8, s)).collect()
}

/// Runs `batch()` on a fresh pool under `plan`, every job of which
/// must recover, and returns the pool's resilience counters.
fn run_batch(workers: usize, seed: u64, plan: FaultPlan) -> (usize, usize, usize) {
    let pool = Simulator::builder()
        .workers(workers)
        .seed(seed)
        .retry(RetryPolicy::new(3))
        .build_pool();
    pool.inject_faults(Some(plan));
    let jobs: Vec<_> = batch()
        .into_iter()
        .map(|c| PoolJob::new(c).shots(128))
        .collect();
    for result in pool.run_jobs(jobs) {
        result.expect("job must recover");
    }
    let stats = pool.stats();
    (stats.panics, stats.retries, stats.deadline_exceeded)
}

/// An explicit plan that kills a worker on one job and delays two
/// others: with three attempts allowed, every job must come back `Ok`
/// at 1, 2 and 8 workers, with one panic and one retry — and the
/// pool must run a follow-up batch at full capacity afterwards.
#[test]
fn injected_panics_and_delays_recover_byte_identically() {
    silence_injected_panics();
    let run = |workers: usize, plan: Option<FaultPlan>| {
        let pool = Simulator::builder()
            .workers(workers)
            .seed(11)
            .retry(RetryPolicy::new(3))
            .build_pool();
        pool.inject_faults(plan);
        let jobs: Vec<_> = batch()
            .into_iter()
            .map(|c| PoolJob::new(c).shots(128))
            .collect();
        let results = pool.run_jobs(jobs);
        assert!(results.iter().all(Result::is_ok), "every job must recover");
        // Follow-up batch on the same pool, faults cleared.
        pool.inject_faults(None);
        let follow = pool.run_jobs(batch().into_iter().map(PoolJob::new).collect());
        assert!(follow.iter().all(Result::is_ok), "follow-up batch failed");
        assert_eq!(pool.alive_workers(), workers, "pool not at full capacity");
        pool.stats()
    };
    let clean_stats = run(2, None);
    assert_eq!(clean_stats.panics, 0);
    assert_eq!(clean_stats.retries, 0);
    let plan = FaultPlan::new()
        .panic_on([1])
        .delay_on([0, 3], Duration::from_millis(10));
    for workers in [1, 2, 8] {
        let stats = run(workers, Some(plan.clone()));
        assert_eq!(stats.panics, 1, "one panic, counted once");
        assert_eq!(stats.retries, 1, "only the panicked job re-dispatches");
        // The recovered job reports both attempts it consumed.
        assert_eq!(stats.deadline_exceeded, 0);
    }
}

/// Capacity-leak regression: a pool whose worker panicked mid-batch
/// must complete subsequent full-width batches with **all** N workers
/// participating — the slot whose task panicked included.
#[test]
fn panicked_worker_mid_batch_does_not_leak_capacity() {
    silence_injected_panics();
    let workers = 3;
    let pool = Simulator::builder()
        .workers(workers)
        .seed(5)
        .retry(RetryPolicy::new(2))
        .build_pool();
    pool.inject_faults(Some(FaultPlan::new().panic_on([2])));
    let results = pool.run_jobs(batch().into_iter().map(PoolJob::new).collect());
    assert!(results.iter().all(Result::is_ok), "batch must recover");
    let stats = pool.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(
        stats.per_worker.iter().map(|w| w.panics).sum::<usize>(),
        1,
        "the panic must be attributed to one worker slot"
    );
    assert_eq!(pool.alive_workers(), workers);
    // Delayed follow-up jobs keep every worker busy long enough that an
    // idle (leaked) slot would be caught not participating; a few
    // rounds compensate for scheduling noise, and per-worker `jobs`
    // counters accumulate across them.
    let mut all_active = false;
    for _round in 0..5 {
        pool.inject_faults(Some(
            FaultPlan::new().delay_on(0..3 * workers, Duration::from_millis(10)),
        ));
        let follow = pool.run_jobs(
            (0..3 * workers)
                .map(|_| PoolJob::new(generators::ghz(4)))
                .collect(),
        );
        assert!(follow.iter().all(Result::is_ok));
        assert_eq!(pool.alive_workers(), workers);
        if pool.stats().per_worker.iter().all(|w| w.jobs > 0) {
            all_active = true;
            break;
        }
    }
    assert!(
        all_active,
        "a worker slot never picked up jobs after the panic: {:?}",
        pool.stats().per_worker
    );
}

/// Deadline + degradation ladder: a zero deadline aborts the job at the
/// first operation; with a coarser fallback installed the pool reruns
/// it once, deadline-free, and marks the outcome degraded. Without a
/// fallback the caller gets the typed error.
#[test]
fn zero_deadline_degrades_to_fallback_policy() {
    let circuit = generators::supremacy(2, 3, 10, 1);
    let pool = Simulator::builder().workers(2).seed(3).build_pool();
    let results = pool.run_jobs(vec![PoolJob::new(circuit.clone())
        .deadline(Duration::ZERO)
        .degrade_with(Strategy::fidelity_driven(0.6, 0.9))]);
    let outcome = results[0].as_ref().expect("degraded rerun must succeed");
    assert!(outcome.degraded, "fallback outcome must be marked degraded");
    assert_eq!(outcome.attempts, 2, "first try aborted, rerun succeeded");
    let stats = pool.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.panics, 0, "deadlines never kill workers");

    let failing = pool.run_jobs(vec![PoolJob::new(circuit).deadline(Duration::ZERO)]);
    match failing[0]
        .as_ref()
        .expect_err("no fallback: must fail typed")
    {
        ExecError::DeadlineExceeded { job, budget, .. } => {
            assert_eq!(*job, 0);
            assert_eq!(*budget, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

/// Panics in its first `decide`, so after the run has built its
/// engine and applied a gate: a real mid-run panic, where
/// `FaultPlan`'s fires before the job touches its backend.
struct PanicsInDecide;

impl ApproxPolicy for PanicsInDecide {
    fn name(&self) -> &str {
        "panics-in-decide"
    }

    fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
        panic!("a policy panicked mid-run");
    }
}

fn one_worker() -> approxdd::exec::BackendPool {
    Simulator::builder().workers(1).seed(13).build_pool()
}

/// A run job that panics mid-run fails typed, counts one panic, and
/// leaves its worker fit: the pool's next job fingerprints as it does
/// on a fresh pool.
#[test]
fn a_mid_run_panic_fails_its_job_and_spares_the_worker() {
    let circuit = generators::supremacy(2, 2, 8, 1);
    let pool = one_worker();
    let panicked = pool.run_jobs(vec![PoolJob::new(circuit.clone()).policy(|| PanicsInDecide)]);
    match &panicked[0] {
        Err(ExecError::Panicked { job: 0, attempt: 0 }) => {}
        other => panic!("expected Panicked, got {other:?}"),
    }
    let stats = pool.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.per_worker[0].panics, 1);
    assert_eq!(pool.alive_workers(), 1);

    let job = || vec![PoolJob::new(circuit.clone()).shots(256)];
    let next = pool.run_jobs(job()).remove(0).expect("the next job runs");
    let fresh = one_worker().run_jobs(job()).remove(0).expect("fresh pool");
    assert_eq!(next.fingerprint(), fresh.fingerprint());
}

/// A sampling call whose run panics mid-run fails typed, and the next
/// call on the same pool draws a fresh pool's histogram: the panicked
/// request's epoch was dropped with its engine.
#[test]
fn a_mid_run_panic_in_sampling_resets_the_epoch() {
    let circuit = generators::supremacy(2, 2, 8, 2);
    let pool = one_worker();
    let policy: Arc<dyn PolicyFactory> = Arc::new(|| PanicsInDecide);
    let err = pool
        .sample_counts_streamed(&circuit, Some(policy), None, 1000, &mut |_| {})
        .expect_err("the sampling run panics");
    assert!(matches!(err, ExecError::Panicked { .. }), "{err:?}");
    assert_eq!(pool.stats().panics, 1);

    let next = pool
        .sample_counts(&circuit, 1000)
        .expect("the next call samples");
    let fresh = one_worker()
        .sample_counts(&circuit, 1000)
        .expect("fresh pool");
    assert_eq!(next, fresh);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Under an arbitrary seeded fault plan (panics, delays and forced
    // aborts at ~15/20/15 % rates), a pool with three attempts per job
    // returns every job Ok, and the (panics, retries,
    // deadline_exceeded) counter sums are identical at 1, 2 and 8
    // workers.
    #[test]
    fn seeded_fault_counters_are_worker_count_invariant(root in any::<u64>()) {
        silence_injected_panics();
        let plan = FaultPlan::seeded(root)
            .rates(0.15, 0.2, 0.15)
            .delay_duration(Duration::from_millis(2));
        let counters: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&workers| run_batch(workers, root, plan.clone()))
            .collect();
        prop_assert_eq!(counters[0], counters[1]);
        prop_assert_eq!(counters[0], counters[2]);
    }
}
