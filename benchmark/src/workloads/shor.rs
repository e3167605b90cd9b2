//! `shor_fidelity` — Table I, bottom half. An item factors 323 and
//! then 629 (both with base 8) under the paper's fidelity-driven
//! configuration (`f_final` 0.5, `f_round` 0.9): 27- and 30-qubit
//! registers, permutation-gate operators, six scheduled rounds per run,
//! about 1 s per pair. `factor` owns its simulator, so in a traced
//! slice the harness sees the item through `FactorOutcome::sim_stats`
//! and the registry, and probes the `core`/`dd` layers on a separate,
//! observed run of the same circuit after the timed loop.

use std::time::Instant;

use approxdd::shor::{factor, shor_circuit, FactorOptions};
use approxdd::sim::Simulator;

use super::{
    ct_lookups, derived_seed, phase_sums, probe_package, record_package, record_phase_shares,
    stream, StepClock,
};
use crate::slice::Recorder;
use crate::trace::NO_ITEM;

const BASE: u64 = 8;
const NUMBERS: [u64; 2] = [323, 629];
/// The configured final-fidelity floor.
const FIDELITY_FLOOR: f64 = 0.5;

pub(super) fn run(rec: &mut Recorder) {
    let config = rec.config();
    // Warm-up: one untimed pair.
    let _ = pair(rec, NO_ITEM, config.seed);
    rec.setup_done();

    while rec.wants_item() {
        let i = rec.next_item();
        let sampling = derived_seed(config.seed, stream::SAMPLING, i);
        rec.enter("item", i as u64);
        let start = Instant::now();
        let (ok, exact) = pair(rec, i as u64, sampling);
        let seconds = start.elapsed().as_secs_f64();
        rec.exit();
        rec.item(seconds, false, ok, exact);
    }

    if rec.traced() {
        probe(rec);
    }
}

/// Factors both numbers; returns whether every check held and the
/// pair's `(peak nodes, compute-table lookups, min fidelity)`.
fn pair(rec: &mut Recorder, item: u64, seed: u64) -> (bool, (u64, u64, f64)) {
    let options = FactorOptions {
        seed,
        base: Some(BASE),
        ..FactorOptions::default()
    };
    let mut ok = true;
    let mut exact = (0u64, 0u64, f64::INFINITY);
    for n in NUMBERS {
        let before = rec.traced().then(phase_sums);
        rec.enter("shor.factor", item);
        let start = Instant::now();
        let outcome = factor(n, &options);
        let wall = start.elapsed().as_secs_f64();
        rec.exit();
        // A fallback to another base or a classical shortcut would be a
        // different (and differently sized) run: count it as a failure
        // instead of timing it as if it were the benchmark instance.
        let factored = matches!(&outcome, Ok(o) if o.factors.0 * o.factors.1 == n
            && o.factors.0 > 1 && o.factors.1 > 1 && o.base == BASE);
        let stats = outcome.ok().and_then(|o| o.sim_stats);
        ok &= factored && stats.as_ref().is_some_and(|s| s.fidelity >= FIDELITY_FLOOR);
        rec.ratio("shor.factored_ratio", f64::from(u8::from(factored)), 1.0);
        if let Some(stats) = stats {
            exact.0 = exact.0.max(stats.max_dd_size as u64);
            exact.1 += ct_lookups(&stats.package);
            exact.2 = exact.2.min(stats.fidelity);
            if let Some(before) = before {
                let runtime = stats.runtime.as_secs_f64();
                record_phase_shares(rec, &before, &phase_sums());
                rec.sample("shor.post_s", wall - runtime);
                rec.sample("core.run_s_p50", runtime);
                rec.ratio("core.gates_per_s", stats.gates_applied as f64, runtime);
                rec.ratio("core.rounds_per_item", stats.approx_rounds as f64, 1.0);
                record_package(rec, &stats.package);
            }
        }
    }
    (ok, exact)
}

/// One observed run of each instance's circuit on a harness-owned
/// simulator, configured as `find_order` configures its own.
fn probe(rec: &mut Recorder) {
    for (k, n) in NUMBERS.into_iter().enumerate() {
        let (circuit, build_s) = rec.timed("shor.circuit_build", || {
            shor_circuit(n, BASE).expect("benchmark instances are odd composites coprime to 8")
        });
        rec.sample("shor.circuit_build_s", build_s);
        let clock = StepClock::shared();
        let (mut sim, sim_build_s) = rec.timed("core.build", || {
            Simulator::builder()
                .strategy(FactorOptions::default().strategy)
                .observe(clock.clone())
                .build()
        });
        rec.sample("core.build_s_p50", sim_build_s);
        let (run, _) = rec.timed("core.run", || sim.run(&circuit).expect("probe run"));
        let clock = clock.lock().expect("observer never panics");
        let wall = run.stats.runtime.as_secs_f64();
        rec.ratio("core.gate_step_share", clock.gate_step_s, wall);
        rec.ratio("core.truncate_share", clock.truncate_s, wall);
        rec.ratio(
            "dd.truncate_s_per_round",
            clock.truncate_s,
            run.stats.approx_rounds as f64,
        );
        probe_package(rec, &mut sim, &run, k);
    }
}
