//! A panic is on the books by the time its job's error is returned.
//!
//! The pool catches a panicking task and books the panic before the
//! task replies. A count taken any later could still read one short
//! when the caller, holding the job's `Panicked` error, reads the
//! pool's stats. The window only opens under contention, so the test
//! brings its own: six spinning threads on top of the two workers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use approxdd_circuit::generators;
use approxdd_exec::backend::ExecError;
use approxdd_exec::{BuildPool, PoolJob};
use approxdd_sim::{ApproxPolicy, PolicyAction, PolicyCtx, Simulator};

/// Panics in its first `decide`, after the run has built its engine.
struct PanicsInDecide;

impl ApproxPolicy for PanicsInDecide {
    fn name(&self) -> &str {
        "panics-in-decide"
    }

    fn decide(&mut self, _ctx: &PolicyCtx) -> PolicyAction {
        panic!("a policy panicked mid-run");
    }
}

#[test]
fn a_panic_is_counted_before_its_job_settles() {
    // Two hundred expected panics: keep their reports off stderr.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
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

    let pool = Simulator::builder().workers(2).build_pool();
    let mut late = Vec::new();
    for iteration in 1..=200 {
        let job = PoolJob::new(generators::ghz(4)).policy(|| PanicsInDecide);
        let mut results = pool.run_jobs(vec![job]);
        match results.pop().expect("one job") {
            Err(ExecError::Panicked { job: 0, .. }) => {}
            other => panic!("iteration {iteration}: expected Panicked, got {other:?}"),
        }
        let panics = pool.stats().panics;
        if panics < iteration {
            late.push((iteration, panics));
        }
    }

    stop.store(true, Ordering::Relaxed);
    for spinner in spinners {
        spinner.join().expect("spinner");
    }
    std::panic::set_hook(report);
    assert!(
        late.is_empty(),
        "(iteration, panics read) pairs that were behind: {late:?}"
    );
    assert_eq!(pool.stats().panics, 200);
}
