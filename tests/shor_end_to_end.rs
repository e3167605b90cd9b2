//! Integration: Shor's algorithm factors correctly through the whole
//! stack — circuit construction, approximate DD simulation, sampling,
//! and classical post-processing — reproducing the paper's key claim
//! that ~50 % fidelity suffices.

use approxdd::shor::{classical, factor, find_order, FactorOptions};
use approxdd::sim::Strategy;

fn approx_opts(a: u64) -> FactorOptions {
    FactorOptions {
        strategy: Strategy::FidelityDriven {
            final_fidelity: 0.5,
            round_fidelity: 0.9,
        },
        base: Some(a),
        ..FactorOptions::default()
    }
}

#[test]
fn factors_15_at_half_fidelity() {
    let out = factor(15, &approx_opts(7)).expect("factor 15");
    let (p, q) = out.factors;
    assert_eq!(p * q, 15);
    assert!(p > 1 && q > 1);
    let stats = out.sim_stats.expect("quantum run happened");
    assert!(stats.fidelity >= 0.5 - 1e-9);
    assert!(stats.approx_rounds > 0, "approximation must engage");
}

#[test]
fn factors_21_at_half_fidelity() {
    let out = factor(21, &approx_opts(2)).expect("factor 21");
    assert_eq!(out.factors.0 * out.factors.1, 21);
}

#[test]
fn factors_33_at_half_fidelity_like_table1() {
    // shor_33_5 is the smallest Table-I instance (18 qubits).
    let out = factor(33, &approx_opts(5)).expect("factor 33");
    let (p, q) = out.factors;
    assert_eq!(p * q, 33);
    assert!((p == 3 && q == 11) || (p == 11 && q == 3));
    let stats = out.sim_stats.expect("quantum stats");
    assert!(
        stats.fidelity >= 0.5 - 1e-9,
        "fidelity {} below the guaranteed bound",
        stats.fidelity
    );
}

#[test]
fn approximate_order_finding_agrees_with_brute_force() {
    for (n, a) in [(15u64, 7u64), (15, 2), (21, 2), (33, 5)] {
        let found = find_order(n, a, &approx_opts(a)).expect("order");
        let brute = classical::multiplicative_order(a, n).expect("brute order");
        // Continued fractions may land on a multiple's divisor first,
        // but the verified minimum must be the true order.
        assert_eq!(found.order, brute, "order of {a} mod {n}");
    }
}

#[test]
fn exact_and_approximate_runs_agree_on_factors() {
    for n in [15u64, 21, 35] {
        let exact = factor(
            n,
            &FactorOptions {
                strategy: Strategy::Exact,
                ..FactorOptions::default()
            },
        )
        .expect("exact factor");
        let approx = factor(n, &FactorOptions::default()).expect("approx factor");
        assert_eq!(exact.factors.0 * exact.factors.1, n);
        assert_eq!(approx.factors.0 * approx.factors.1, n);
    }
}

#[test]
fn approximation_shrinks_shor_dd() {
    // The fidelity-driven run must reach a smaller max DD than exact on
    // the same instance (the Table-I effect).
    let circuit = approxdd::shor::shor_circuit(33, 5).expect("circuit");
    let mut exact = approxdd::sim::Simulator::builder()
        .strategy(Strategy::Exact)
        .build();
    let exact_run = exact.run(&circuit).expect("exact");
    let mut approx = approxdd::sim::Simulator::builder()
        .strategy(Strategy::fidelity_driven(0.5, 0.9))
        .build();
    let approx_run = approx.run(&circuit).expect("approx");
    assert!(
        approx_run.stats.max_dd_size <= exact_run.stats.max_dd_size,
        "approx {} vs exact {}",
        approx_run.stats.max_dd_size,
        exact_run.stats.max_dd_size
    );
}
