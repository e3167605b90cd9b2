//! A worker death is on the books by the time its job's retry has
//! settled.
//!
//! The pool learns of a death when the unwinding task drops its reply
//! sender — long before the dead thread has finished and can be
//! reaped. A count taken at the reaping could therefore still read 0
//! after the retried job had already succeeded on the other worker.
//! The window only opens under contention, so the test brings its own:
//! six spinning threads on top of the two workers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use approxdd_circuit::generators;
use approxdd_exec::{silence_injected_panics, BuildPool, FaultPlan, PoolJob};
use approxdd_sim::{RetryPolicy, Simulator};

#[test]
fn a_death_is_counted_before_its_retry_settles() {
    silence_injected_panics();
    let stop = Arc::new(AtomicBool::new(false));
    let spinners: Vec<_> = (0..6)
        .map(|_| {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();

    let pool = Simulator::builder()
        .workers(2)
        .retry(RetryPolicy::new(2))
        .build_pool();
    pool.inject_faults(Some(FaultPlan::new().panic_on([0])));
    let mut late = Vec::new();
    for iteration in 1..=200 {
        let mut results = pool.run_jobs(vec![PoolJob::new(generators::ghz(4))]);
        let outcome = results.pop().expect("one job").expect("the retry succeeds");
        assert_eq!(outcome.attempts, 2, "iteration {iteration}");
        let respawns = pool.stats().respawns;
        if respawns < iteration {
            late.push((iteration, respawns));
        }
    }

    stop.store(true, Ordering::Relaxed);
    for spinner in spinners {
        spinner.join().expect("spinner");
    }
    assert!(
        late.is_empty(),
        "(iteration, respawns read) pairs that were behind: {late:?}"
    );
    assert_eq!(pool.stats().respawns, 200);
}
