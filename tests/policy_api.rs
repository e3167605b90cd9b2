//! Contract tests of the composable `ApproxPolicy` / `SimObserver`
//! API: a user-defined policy (defined here, outside `approxdd-core`)
//! runs through `SimulatorBuilder::policy` and `BackendPool`, preset
//! strategies and their policy equivalents produce fingerprint-identical
//! pooled outcomes, and trace streams are deterministic regardless of
//! scheduling.

use approxdd::circuit::{generators, Circuit};
use approxdd::exec::{BuildPool, PoolJob, PoolOutcome};
use approxdd::sim::{
    ApproxPolicy, PolicyAction, PolicyCtx, SimError, Simulator, Strategy, TraceEvent, TraceRecorder,
};
use proptest::prelude::*;

/// A user-defined replica of the paper-text memory-driven preset
/// (doubling threshold growth), written against the public seam only.
#[derive(Debug, Clone)]
struct ReplicaMemoryPolicy {
    threshold: usize,
    round_fidelity: f64,
    current: usize,
}

impl ReplicaMemoryPolicy {
    fn new(threshold: usize, round_fidelity: f64) -> Self {
        Self {
            threshold,
            round_fidelity,
            current: threshold,
        }
    }
}

impl ApproxPolicy for ReplicaMemoryPolicy {
    fn name(&self) -> &str {
        // Deliberately different from the preset's "memory-driven":
        // fingerprints must not depend on the policy's name.
        "user-replica"
    }

    fn begin(&mut self, _circuit: &Circuit) -> Result<(), SimError> {
        self.current = self.threshold;
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        if ctx.applied_gate && ctx.live_nodes > self.current {
            self.current = (self.current as f64 * 2.0).ceil() as usize;
            PolicyAction::Truncate {
                round_fidelity: self.round_fidelity,
            }
        } else {
            PolicyAction::Continue
        }
    }
}

fn pooled_outcomes(jobs: Vec<PoolJob>, workers: usize) -> Vec<PoolOutcome> {
    let pool = Simulator::builder().seed(42).workers(workers).build_pool();
    pool.run_jobs(jobs)
        .into_iter()
        .map(|r| r.expect("pool job"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // A user-defined policy replicating the memory-driven preset's
    // decisions yields `PoolOutcome::fingerprint`-identical results to
    // the enum preset. (Worker-count invariance is
    // `tests/determinism.rs`'s to check.)
    #[test]
    fn replica_policy_fingerprints_match_preset_across_worker_counts(
        threshold in 8usize..48,
        f_round_pct in 88u32..98,
        seed in 0u64..3
    ) {
        let f_round = f64::from(f_round_pct) / 100.0;
        let circuit = generators::supremacy(2, 3, 10, seed);
        let preset = Strategy::memory_driven(threshold, f_round);
        let preset_job = || PoolJob::new(circuit.clone()).policy(preset).shots(256);
        let replica_job = || {
            PoolJob::new(circuit.clone())
                .policy(move || ReplicaMemoryPolicy::new(threshold, f_round))
                .shots(256)
        };
        // Separate submissions so both jobs sit at index 0 of the seed
        // stream — identical decisions then mean identical everything,
        // histogram included.
        let pool = Simulator::builder().seed(42).workers(2).build_pool();
        let preset_out = pool.run_jobs(vec![preset_job()]).remove(0).expect("preset");
        let replica_out = pool
            .run_jobs(vec![replica_job()])
            .remove(0)
            .expect("replica");
        prop_assert_eq!(preset_out.stats.policy.as_str(), "memory-driven");
        prop_assert_eq!(replica_out.stats.policy.as_str(), "user-replica");
        // Preset and replica agree on everything deterministic.
        prop_assert_eq!(preset_out.fingerprint(), replica_out.fingerprint());
    }
}

#[test]
fn trace_streams_are_identical_across_worker_counts() {
    let circuits: Vec<Circuit> = (0..4).map(|s| generators::supremacy(2, 3, 10, s)).collect();
    let jobs = || -> Vec<PoolJob> {
        circuits
            .iter()
            .map(|c| {
                PoolJob::new(c.clone())
                    .policy(Strategy::memory_driven_table1(16, 0.95))
                    .trace(true)
            })
            .collect()
    };
    let traces: Vec<Vec<Vec<TraceEvent>>> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            pooled_outcomes(jobs(), workers)
                .into_iter()
                .map(|o| o.trace.expect("trace requested"))
                .collect()
        })
        .collect();
    // Traces are non-trivial: every job saw gates and rounds.
    for trace in &traces[0] {
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::GateApplied { .. })));
        assert!(trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Truncated { .. })));
        assert!(matches!(trace.first(), Some(TraceEvent::RunStarted { .. })));
        assert!(matches!(trace.last(), Some(TraceEvent::RunFinished { .. })));
    }
    assert_eq!(traces[0], traces[1], "1 vs 2 workers");
    assert_eq!(traces[0], traces[2], "1 vs 8 workers");
}

#[test]
fn custom_policy_runs_through_builder_and_reports_stats() {
    let circuit = generators::supremacy(2, 3, 12, 0);
    let trace = TraceRecorder::shared();
    let mut sim = Simulator::builder()
        .policy(|| ReplicaMemoryPolicy::new(16, 0.95))
        .observe(trace.clone())
        .seed(1)
        .build();
    let run = sim.run(&circuit).unwrap();
    assert_eq!(run.stats.policy, "user-replica");
    assert!(run.stats.approx_rounds > 0, "threshold 16 must trigger");
    assert!(run.stats.fidelity >= run.stats.fidelity_lower_bound - 1e-12);
    // The trace audits exactly the rounds the stats report, and the
    // guaranteed floor is the product of the targets of exactly the
    // rounds that removed nodes (no-op rounds charge nothing).
    let events = trace.lock().unwrap().take();
    let removing_rounds = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Truncated { removed_nodes, .. } if *removed_nodes > 0))
        .count();
    let expected_floor = 0.95f64.powi(i32::try_from(removing_rounds).unwrap());
    assert!((run.stats.fidelity_lower_bound - expected_floor).abs() < 1e-12);
    let rounds = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Truncated { .. }))
        .count();
    assert_eq!(rounds, run.stats.approx_rounds);
    // Node counts in Truncated events are internally consistent.
    for event in &events {
        if let TraceEvent::Truncated {
            nodes_before,
            nodes_after,
            removed_mass,
            ..
        } = event
        {
            assert!(nodes_after <= nodes_before);
            assert!((0.0..=1.0).contains(removed_mass));
        }
    }
}

#[test]
fn budget_policy_bounds_memory_until_budget_then_stops() {
    let circuit = generators::supremacy(2, 3, 14, 2);
    let mut budget = Simulator::builder()
        .policy(Strategy::budget(24, 0.95, 0.8))
        .build();
    let run = budget.run(&circuit).unwrap();
    assert_eq!(run.stats.policy, "budget");
    // The run's bits, pinned: no golden row covers a budget run.
    assert_eq!(run.stats.approx_rounds, 6);
    assert_eq!(run.stats.max_dd_size, 63);
    assert_eq!(run.stats.nodes_removed, 8);
    assert_eq!(run.stats.fidelity.to_bits(), 0x3feb_a39b_399d_de46);
    assert_eq!(
        run.stats.fidelity_lower_bound.to_bits(),
        0x3fea_106f_6944_6737
    );
    assert!(run.stats.approx_rounds > 0, "threshold 24 must trigger");
    // The budget holds: the target product never drops below 0.8,
    // even though memory pressure continues.
    assert!(
        run.stats.fidelity_lower_bound >= 0.8 - 1e-12,
        "floor {} spent past the budget",
        run.stats.fidelity_lower_bound
    );
    assert!(run.stats.fidelity >= run.stats.fidelity_lower_bound - 1e-12);
    // It stopped before spending what an unbudgeted memory policy
    // would: the same trigger without a budget fires more rounds.
    let mut unbounded = Simulator::builder()
        .strategy(Strategy::memory_driven_table1(24, 0.95))
        .build();
    let unbounded_run = unbounded.run(&circuit).unwrap();
    assert!(unbounded_run.stats.approx_rounds >= run.stats.approx_rounds);
}

#[test]
fn noop_rounds_charge_nothing_to_the_fidelity_floor() {
    // Fires a round after every gate with target 1.0 (budget 0): every
    // round is a no-op, so the run stays exact and the guaranteed
    // floor must stay at 1.0 — a floor that dropped here would make
    // budget policies burn budget on rounds that removed nothing.
    struct AlwaysNoop;
    impl ApproxPolicy for AlwaysNoop {
        fn name(&self) -> &str {
            "always-noop"
        }
        fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
            if ctx.applied_gate {
                PolicyAction::Truncate {
                    round_fidelity: 1.0,
                }
            } else {
                PolicyAction::Continue
            }
        }
    }
    let circuit = generators::qft(6);
    let mut sim = Simulator::builder().policy(|| AlwaysNoop).build();
    let run = sim.run(&circuit).unwrap();
    assert_eq!(run.stats.approx_rounds, run.stats.gates_applied);
    assert_eq!(run.stats.nodes_removed, 0);
    assert_eq!(run.stats.fidelity, 1.0);
    assert_eq!(
        run.stats.fidelity_lower_bound, 1.0,
        "no-op rounds must not charge the floor"
    );
}

#[test]
fn abort_surfaces_as_typed_error() {
    /// Aborts as soon as the DD exceeds a hard cap.
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
    let cap = 16;
    let mut sim = Simulator::builder().policy(move || HardCap(cap)).build();
    match sim.run(&generators::supremacy(2, 3, 12, 0)) {
        Err(SimError::PolicyAbort { policy, .. }) => assert_eq!(policy, "hard-cap"),
        other => panic!("expected PolicyAbort, got {other:?}"),
    }
    // The simulator stays usable after an aborted run.
    let run = sim.run(&generators::ghz(4)).unwrap();
    assert_eq!(run.stats.gates_applied, 4);
}

#[test]
fn bad_policy_round_fidelity_is_rejected_mid_run() {
    struct NanPolicy;
    impl ApproxPolicy for NanPolicy {
        fn name(&self) -> &str {
            "nan"
        }
        fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
            if ctx.applied_gate {
                PolicyAction::Truncate {
                    round_fidelity: f64::NAN,
                }
            } else {
                PolicyAction::Continue
            }
        }
    }
    let mut sim = Simulator::builder().policy(|| NanPolicy).build();
    assert!(matches!(
        sim.run(&generators::ghz(4)),
        Err(SimError::InvalidStrategy { .. })
    ));
}

/// A preset is checked where every policy is: when a run begins. The
/// builder builds whatever it is given; the first `run` refuses an
/// invalid preset with a typed error before any state is built.
#[test]
fn invalid_presets_are_refused_at_the_first_run() {
    let circuit = generators::ghz(4);
    for strategy in [
        Strategy::memory_driven(0, 0.9),
        Strategy::memory_driven(16, f64::NAN),
        Strategy::fidelity_driven(0.0, 0.9),
        Strategy::fidelity_driven(0.5, 1.5),
    ] {
        let mut sim = Simulator::builder().strategy(strategy).build();
        assert!(
            matches!(sim.run(&circuit), Err(SimError::InvalidStrategy { .. })),
            "{strategy:?} must be refused"
        );
    }
    let mut sim = Simulator::builder()
        .strategy(Strategy::memory_driven(16, 0.9))
        .build();
    assert!(sim.run(&circuit).is_ok());
}

#[test]
fn presets_report_policy_names_through_backend_stats() {
    use approxdd::backend::BackendStats;
    let circuit = generators::supremacy(2, 3, 10, 0);
    for (strategy, name) in [
        (Strategy::Exact, "exact"),
        (Strategy::memory_driven(16, 0.95), "memory-driven"),
        (Strategy::fidelity_driven(0.6, 0.9), "fidelity-driven"),
    ] {
        let mut sim = Simulator::builder().strategy(strategy).build();
        let out = sim.run(&circuit).unwrap();
        let stats = BackendStats::from(out.stats.clone());
        assert_eq!(stats.policy, name);
        assert!(stats.fidelity >= stats.fidelity_lower_bound - 1e-12);
        sim.release(&out);
    }
}

#[test]
fn lower_round_fidelity_never_grows_the_dd_or_raises_fidelity() {
    // The monotonicity visible in Table I: at a fixed node threshold, a
    // lower per-round fidelity gives a (weakly) smaller peak DD and a
    // lower final fidelity.
    let circuit = generators::supremacy(2, 3, 10, 0);
    let stats: Vec<_> = [0.99, 0.95, 0.90]
        .into_iter()
        .map(|f_round| {
            let mut sim = Simulator::builder()
                .strategy(Strategy::memory_driven_table1(8, f_round))
                .build();
            sim.run(&circuit).unwrap().stats
        })
        .collect();
    for w in stats.windows(2) {
        assert!(w[1].max_dd_size <= w[0].max_dd_size + 2);
        assert!(w[1].fidelity <= w[0].fidelity + 1e-9);
    }
}

#[test]
fn fidelity_budget_split_over_k_rounds_keeps_its_floor() {
    // Section IV-C's tradeoff: one f_final budget split over k rounds
    // (f_round = f_final^(1/k)) performs at most k rounds and never ends
    // below f_final.
    let circuit = generators::supremacy(2, 3, 12, 1);
    for k in [1, 2, 4] {
        let f_round = 0.6f64.powf(1.0 / f64::from(k));
        let mut sim = Simulator::builder()
            .strategy(Strategy::fidelity_driven(0.6, f_round))
            .build();
        let stats = sim.run(&circuit).unwrap().stats;
        assert!(
            stats.fidelity >= 0.6 - 1e-9,
            "k={k} fidelity {}",
            stats.fidelity
        );
        assert!(
            stats.approx_rounds <= k as usize,
            "k={k} rounds {}",
            stats.approx_rounds
        );
    }
}
