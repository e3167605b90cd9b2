//! The heap ledger of three Table I runs, pinned: how much heap a run
//! holds at its high-water mark, and where in the run that falls.
//!
//! `tests/node_store.rs` pins what the engine's tables hold by their
//! lengths at the end of a run; this binary counts every heap byte the
//! process holds (the global allocator of `tests/counting/mod.rs`) and
//! reads the peak at every gate, every truncation round and the end of
//! the run through a [`SimObserver`]. A step's reading covers the
//! stretch since the previous one: a gate's covers the collection after
//! the step before it, the gate's `apply` and the size count after it;
//! a round's covers the round alone. For each run it pins the largest
//! reading (above the heap held before the simulator was built), the
//! step it belongs to, and the node store's `node_store_bytes` when that
//! step's event fires (read from a second, identical run stopped
//! there). A table that keeps memory after its contents are dead moves
//! the peak here before it shows in anyone's RSS.
//!
//! The three runs share one thread and run in a fixed order: a dropped
//! package hands its `add` compute-table slab to the next package on
//! the thread (`crates/dd/src/ctable.rs`), so only the first run
//! allocates one. Dev and release builds read the same bytes: what a
//! run allocates does not depend on the optimisation level.

mod counting;

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use approxdd::circuit::{generators, Circuit};
use approxdd::shor::shor_circuit;
use approxdd::sim::{SimObserver, Simulator, Strategy, TraceEvent};

use counting::Counting;

/// Where in a run a reading is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// After the gate of operation `op` and the size count.
    Gate(usize),
    /// After the truncation round that fired after operation `op`.
    Round(usize),
    /// When the run finished.
    Finish,
}

/// A run's high-water mark.
#[derive(Debug, PartialEq, Eq)]
struct Peak {
    /// Heap bytes held at the mark, above what was held before the
    /// simulator was built.
    bytes: usize,
    /// The step whose reading holds the mark.
    step: Step,
    /// `PackageStats::node_store_bytes` at that step.
    node_store_bytes: usize,
}

/// The payload that stops a run at a step.
struct Stopped;

/// Reads the heap peak at every step and keeps the largest reading;
/// stops the run at `stop_at` instead, if it is set.
struct Ledger {
    base: usize,
    largest: Option<(usize, Step)>,
    stop_at: Option<Step>,
}

impl SimObserver for Ledger {
    fn on_event(&mut self, event: &TraceEvent) {
        let step = match *event {
            TraceEvent::GateApplied { op_index, .. } => Step::Gate(op_index),
            TraceEvent::Truncated { op_index, .. } => Step::Round(op_index),
            TraceEvent::RunFinished { .. } => Step::Finish,
            _ => return,
        };
        if self.stop_at == Some(step) {
            // Unwinds without the panic hook: nothing is printed.
            panic::resume_unwind(Box::new(Stopped));
        }
        let bytes = Counting::peak() - self.base;
        Counting::restart_peak();
        if self.largest.is_none_or(|(most, _)| bytes > most) {
            self.largest = Some((bytes, step));
        }
    }
}

/// Runs `circuit` under `strategy` (seed 7) with `ledger` attached and
/// drops the simulator; returns `node_store_bytes` where the run ended
/// or was stopped.
fn run(circuit: &Circuit, strategy: Strategy, ledger: &Arc<Mutex<Ledger>>) -> usize {
    let mut sim = Simulator::builder()
        .strategy(strategy)
        .seed(7)
        .observe(Arc::clone(ledger))
        .build();
    match panic::catch_unwind(AssertUnwindSafe(|| sim.run(circuit))) {
        Ok(result) => drop(result.expect("a valid circuit")),
        Err(payload) => assert!(payload.is::<Stopped>(), "the run panicked"),
    }
    sim.package().stats().node_store_bytes
}

fn peak(circuit: &Circuit, strategy: Strategy) -> Peak {
    let ledger = Arc::new(Mutex::new(Ledger {
        base: Counting::restart_peak(),
        largest: None,
        stop_at: None,
    }));
    run(circuit, strategy, &ledger);
    let (bytes, step) = ledger
        .lock()
        .expect("the measured run was not stopped")
        .largest
        .expect("a run reads at least its end");
    let stopper = Arc::new(Mutex::new(Ledger {
        base: Counting::restart_peak(),
        largest: None,
        stop_at: Some(step),
    }));
    Peak {
        bytes,
        step,
        node_store_bytes: run(circuit, strategy, &stopper),
    }
}

#[test]
fn three_table1_runs_peak_where_and_at_what_they_did() {
    let supremacy = generators::supremacy(4, 4, 9, 0);
    let shor = shor_circuit(323, 8).expect("323 is an odd composite coprime to 8");
    let runs = [
        (
            "memory-driven supremacy(4,4,9,0)",
            &supremacy,
            Strategy::memory_driven_table1(4096, 0.975),
        ),
        (
            "fidelity-driven shor_circuit(323, 8)",
            &shor,
            Strategy::fidelity_driven(0.5, 0.9),
        ),
        ("exact supremacy(4,4,9,0)", &supremacy, Strategy::Exact),
    ];
    let got: Vec<Peak> = runs
        .iter()
        .map(|(name, circuit, strategy)| {
            let peak = peak(circuit, *strategy);
            println!("{name}: {peak:?}");
            peak
        })
        .collect();
    assert_eq!(
        got,
        [
            Peak {
                bytes: 27_534_851,
                step: Step::Round(94),
                node_store_bytes: 25_397_872,
            },
            Peak {
                bytes: 27_290_159,
                step: Step::Gate(269),
                node_store_bytes: 26_409_296,
            },
            Peak {
                bytes: 23_346_421,
                step: Step::Gate(96),
                node_store_bytes: 21_470_396,
            },
        ]
    );
}
