//! Resilience integration suite: a panic or a blown deadline fails its
//! own job, typed, and nothing else. The worker lives on, the pool keeps
//! its full capacity, and the next job fingerprints as it does on a
//! fresh pool. Faults come in through the policy seam: test-side
//! policies that panic in `decide` (after the run has built its engine
//! and applied a gate), sleep in `begin` or abort at a node cap. The
//! deadline is the simulator's, so it bounds custom policies too.

use std::sync::Arc;
use std::time::Duration;

use approxdd::backend::ExecError;
use approxdd::circuit::{generators, Circuit};
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::{
    ApproxPolicy, PolicyAction, PolicyCtx, PolicyFactory, SimError, Simulator, Strategy,
};

/// Panics in its first `decide`: a real mid-run panic.
struct PanicsInDecide;

impl ApproxPolicy for PanicsInDecide {
    fn name(&self) -> &str {
        "panics-in-decide"
    }

    fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
        panic!("a policy panicked mid-run");
    }
}

/// Sleeps in `begin`, then runs exactly: a slow job with exact bits.
struct SleepsInBegin(Duration);

impl ApproxPolicy for SleepsInBegin {
    fn name(&self) -> &str {
        "sleeps-in-begin"
    }

    fn begin(&mut self, _circuit: &Circuit) -> Result<(), SimError> {
        std::thread::sleep(self.0);
        Ok(())
    }

    fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
        PolicyAction::Continue
    }
}

/// Aborts once the state DD holds more than its cap: a hard resource
/// cap written as a policy.
struct HardCap(usize);

impl ApproxPolicy for HardCap {
    fn name(&self) -> &str {
        "hard-cap"
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        if ctx.live_nodes > self.0 {
            PolicyAction::Abort
        } else {
            PolicyAction::Continue
        }
    }
}

const HOUR: Duration = Duration::from_secs(3600);

/// A small batch: six 2×2 supremacy circuits.
fn batch() -> Vec<Circuit> {
    (0..6).map(|s| generators::supremacy(2, 2, 8, s)).collect()
}

fn one_worker() -> approxdd::exec::BackendPool {
    Simulator::builder().workers(1).seed(13).build_pool()
}

/// Capacity-leak regression: a pool whose worker panicked mid-batch
/// must complete subsequent full-width batches with **all** N workers
/// participating — the slot whose task panicked included.
#[test]
fn panicked_worker_mid_batch_does_not_leak_capacity() {
    let workers = 3;
    let pool = Simulator::builder().workers(workers).seed(5).build_pool();
    let jobs = batch()
        .into_iter()
        .enumerate()
        .map(|(i, c)| match i {
            2 => PoolJob::new(c).policy(|| PanicsInDecide),
            _ => PoolJob::new(c),
        })
        .collect();
    let results = pool.run_jobs(jobs);
    for (i, result) in results.iter().enumerate() {
        if i == 2 {
            let panicked = matches!(result, Err(ExecError::Panicked { job: 2, .. }));
            assert!(panicked, "job 2: {result:?}");
        } else {
            assert!(result.is_ok(), "job {i}: {result:?}");
        }
    }
    let stats = pool.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(
        stats.per_worker.iter().map(|w| w.panics).sum::<usize>(),
        1,
        "the panic must be attributed to one worker slot"
    );
    assert_eq!(pool.alive_workers(), workers);
    // Slow follow-up jobs keep every worker busy long enough that an
    // idle (leaked) slot would be caught not participating; a few
    // rounds compensate for scheduling noise, and per-worker `jobs`
    // counters accumulate across them.
    let mut all_active = false;
    for _round in 0..5 {
        let follow = pool.run_jobs(
            (0..3 * workers)
                .map(|_| {
                    PoolJob::new(generators::ghz(4))
                        .policy(|| SleepsInBegin(Duration::from_millis(10)))
                })
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

/// A zero deadline aborts the job at its first operation and fails it
/// typed: one attempt, one count, no panic, no retry.
#[test]
fn a_zero_deadline_fails_its_job_typed() {
    let circuit = generators::supremacy(2, 3, 10, 1);
    let pool = Simulator::builder().workers(2).seed(3).build_pool();
    let failing = pool.run_jobs(vec![PoolJob::new(circuit).deadline(Duration::ZERO)]);
    let err = failing[0].as_ref().expect_err("must fail typed");
    match err {
        ExecError::DeadlineExceeded { job, budget } => {
            assert_eq!(*job, 0);
            assert_eq!(*budget, Duration::ZERO);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(err.to_string(), "job 0 exceeded its 0ns deadline");
    let stats = pool.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.panics, 0, "deadlines never kill workers");
    assert_eq!(stats.retries, 0, "the pool never retries");
}

/// A deadline that never runs out changes no bit of a job: a
/// memory-driven job that truncates fingerprints as it does without
/// one.
#[test]
fn a_deadline_that_never_fires_changes_no_bit() {
    let job = || {
        PoolJob::new(generators::supremacy(2, 3, 14, 2))
            .policy(Strategy::memory_driven_table1(24, 0.95))
            .shots(256)
    };
    let pool = one_worker();
    // One batch each: a job's sampling seed follows its batch index.
    let bounded = pool.run_jobs(vec![job().deadline(HOUR)]).remove(0);
    let bounded = bounded.expect("the bounded job runs");
    let plain = pool
        .run_jobs(vec![job()])
        .remove(0)
        .expect("the plain job runs");
    assert!(plain.stats.approx_rounds > 0, "the threshold must fire");
    assert_eq!(bounded.fingerprint(), plain.fingerprint());
    assert_eq!(pool.stats().deadline_exceeded, 0);
}

/// A policy's own abort stays the policy's under a deadline that has
/// not run out: it fails as `PolicyAbort`, not as a blown deadline.
#[test]
fn a_policy_abort_under_a_deadline_stays_a_policy_abort() {
    let pool = one_worker();
    let job = PoolJob::new(generators::supremacy(2, 3, 10, 1))
        .policy(|| HardCap(8))
        .deadline(HOUR);
    let err = pool
        .run_jobs(vec![job])
        .remove(0)
        .expect_err("the cap aborts");
    assert!(
        matches!(&err, ExecError::Sim(SimError::PolicyAbort { policy, .. }) if policy == "hard-cap"),
        "{err:?}"
    );
    assert_eq!(pool.stats().deadline_exceeded, 0);
}

/// The deadline bounds a custom policy as it bounds a preset: a zero
/// budget fails the job typed before the policy is asked anything.
#[test]
fn a_zero_deadline_bounds_a_custom_policy() {
    let pool = one_worker();
    let job = PoolJob::new(generators::supremacy(2, 3, 10, 1))
        .policy(|| PanicsInDecide)
        .deadline(Duration::ZERO);
    let err = pool
        .run_jobs(vec![job])
        .remove(0)
        .expect_err("must fail typed");
    assert_eq!(
        err,
        ExecError::DeadlineExceeded {
            job: 0,
            budget: Duration::ZERO
        }
    );
    let stats = pool.stats();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.panics, 0, "the policy was never asked to decide");
}

/// A run job that panics mid-run fails typed, with the panic's
/// message, counts one panic, and leaves its worker fit: the pool's
/// next job fingerprints as it does on a fresh pool.
#[test]
fn a_mid_run_panic_fails_its_job_and_spares_the_worker() {
    let circuit = generators::supremacy(2, 2, 8, 1);
    let pool = one_worker();
    let panicked = pool.run_jobs(vec![PoolJob::new(circuit.clone()).policy(|| PanicsInDecide)]);
    match &panicked[0] {
        Err(ExecError::Panicked { job: 0, message }) => {
            assert_eq!(message, "a policy panicked mid-run");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    let err = panicked[0].as_ref().expect_err("panicked");
    assert_eq!(err.to_string(), "job 0 panicked: a policy panicked mid-run");
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
