//! Parameter sweeps backing the ablation figures: the per-round
//! fidelity sweep (extending the memory-driven rows of Table I into a
//! series) and the rounds-vs-fidelity tradeoff of Section IV-C.

use std::time::Duration;

use approxdd_circuit::Circuit;
use approxdd_exec::backend::ExecError;
use approxdd_exec::{BackendPool, PoolJob};
use approxdd_sim::Strategy;

/// One point of the `f_round` sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Per-round target fidelity.
    pub(crate) f_round: f64,
    /// Maximum DD node count during the run.
    pub(crate) max_dd_size: usize,
    /// Rounds performed.
    pub(crate) rounds: usize,
    /// Final measured fidelity.
    pub(crate) f_final: f64,
    /// Wall-clock runtime.
    pub(crate) runtime: Duration,
}

/// Sweeps the memory-driven strategy over per-round fidelities on one
/// circuit, holding the node threshold fixed; every point runs
/// concurrently on a [`BackendPool`] (per-job strategy overrides over
/// the shared template). The paper's Table I shows three such points
/// per instance; this produces the full series, in `f_rounds` order.
///
/// # Errors
///
/// The first failing point's error.
pub fn round_fidelity_sweep_pooled(
    pool: &BackendPool,
    circuit: &Circuit,
    node_threshold: usize,
    f_rounds: &[f64],
) -> Result<Vec<SweepPoint>, ExecError> {
    let jobs = f_rounds
        .iter()
        .map(|&f_round| {
            PoolJob::new(circuit.clone())
                .strategy(Strategy::memory_driven_table1(node_threshold, f_round))
        })
        .collect();
    f_rounds
        .iter()
        .zip(pool.run_jobs(jobs))
        .map(|(&f_round, result)| {
            result.map(|o| SweepPoint {
                f_round,
                max_dd_size: o.stats.peak_size,
                rounds: o.stats.approx_rounds,
                f_final: o.stats.fidelity,
                runtime: o.stats.runtime,
            })
        })
        .collect()
}

/// One point of the rounds-tradeoff ablation: the same total fidelity
/// budget split across `k` rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Number of scheduled rounds.
    pub(crate) rounds_requested: usize,
    /// Per-round fidelity used (`f_final^(1/k)`).
    pub(crate) f_round: f64,
    /// Rounds actually performed.
    pub(crate) rounds_performed: usize,
    /// Maximum DD node count.
    pub(crate) max_dd_size: usize,
    /// Final measured fidelity.
    pub(crate) f_final: f64,
    /// Wall-clock runtime.
    pub(crate) runtime: Duration,
}

/// The Section IV-C tradeoff: few aggressive rounds vs. many gentle
/// rounds at (approximately) the same total budget. For each `k` in
/// `round_counts`, runs fidelity-driven with `f_round = f_final^(1/k)`
/// — so the scheduled round count is exactly `k` and the guaranteed
/// floor is `f_final` in every configuration. Every `k` runs
/// concurrently on a [`BackendPool`]; points come back in
/// `round_counts` order.
///
/// # Errors
///
/// The first failing point's error.
pub fn rounds_tradeoff_pooled(
    pool: &BackendPool,
    circuit: &Circuit,
    final_fidelity: f64,
    round_counts: &[usize],
) -> Result<Vec<TradeoffPoint>, ExecError> {
    let jobs = round_counts
        .iter()
        .map(|&k| {
            assert!(k > 0, "round counts must be positive");
            let f_round = final_fidelity.powf(1.0 / k as f64);
            PoolJob::new(circuit.clone())
                .strategy(Strategy::fidelity_driven(final_fidelity, f_round))
        })
        .collect();
    round_counts
        .iter()
        .zip(pool.run_jobs(jobs))
        .map(|(&k, result)| {
            result.map(|o| TradeoffPoint {
                rounds_requested: k,
                f_round: final_fidelity.powf(1.0 / k as f64),
                rounds_performed: o.stats.approx_rounds,
                max_dd_size: o.stats.peak_size,
                f_final: o.stats.fidelity,
                runtime: o.stats.runtime,
            })
        })
        .collect()
}

/// Renders sweep points as an aligned text table.
#[must_use]
pub fn format_sweep(points: &[SweepPoint]) -> String {
    let mut out = format!(
        "{:>8} {:>12} {:>8} {:>10} {:>12}\n",
        "fround", "MaxDDSize", "Rounds", "ffinal", "Runtime[s]"
    );
    for p in points {
        out.push_str(&format!(
            "{:>8.4} {:>12} {:>8} {:>10.4} {:>12.4}\n",
            p.f_round,
            p.max_dd_size,
            p.rounds,
            p.f_final,
            p.runtime.as_secs_f64()
        ));
    }
    out
}

/// Renders tradeoff points as an aligned text table.
#[must_use]
pub fn format_tradeoff(points: &[TradeoffPoint]) -> String {
    let mut out = format!(
        "{:>8} {:>10} {:>10} {:>12} {:>10} {:>12}\n",
        "k", "fround", "performed", "MaxDDSize", "ffinal", "Runtime[s]"
    );
    for p in points {
        out.push_str(&format!(
            "{:>8} {:>10.4} {:>10} {:>12} {:>10.4} {:>12.4}\n",
            p.rounds_requested,
            p.f_round,
            p.rounds_performed,
            p.max_dd_size,
            p.f_final,
            p.runtime.as_secs_f64()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_stats;
    use approxdd_circuit::generators;
    use approxdd_exec::backend::BuildBackend;
    use approxdd_sim::Simulator;

    /// The serial tradeoff the pooled one is checked against: one
    /// backend per `k`.
    fn rounds_tradeoff(
        circuit: &Circuit,
        final_fidelity: f64,
        round_counts: &[usize],
    ) -> Result<Vec<TradeoffPoint>, ExecError> {
        let mut out = Vec::with_capacity(round_counts.len());
        for &k in round_counts {
            assert!(k > 0, "round counts must be positive");
            let f_round = final_fidelity.powf(1.0 / k as f64);
            let mut backend = Simulator::builder()
                .fidelity_driven(final_fidelity, f_round)
                .build_backend();
            let stats = run_stats(&mut backend, circuit)?;
            out.push(TradeoffPoint {
                rounds_requested: k,
                f_round,
                rounds_performed: stats.approx_rounds,
                max_dd_size: stats.peak_size,
                f_final: stats.fidelity,
                runtime: stats.runtime,
            });
        }
        Ok(out)
    }

    /// The serial sweep the pooled one is checked against: one backend
    /// per point, memory-driven at a fixed node threshold.
    fn round_fidelity_sweep(
        circuit: &Circuit,
        node_threshold: usize,
        f_rounds: &[f64],
    ) -> Result<Vec<SweepPoint>, ExecError> {
        let mut out = Vec::with_capacity(f_rounds.len());
        for &f_round in f_rounds {
            let mut backend = Simulator::builder()
                .memory_driven_table1(node_threshold, f_round)
                .build_backend();
            let stats = run_stats(&mut backend, circuit)?;
            out.push(SweepPoint {
                f_round,
                max_dd_size: stats.peak_size,
                rounds: stats.approx_rounds,
                f_final: stats.fidelity,
                runtime: stats.runtime,
            });
        }
        Ok(out)
    }

    #[test]
    fn sweep_lower_fidelity_never_grows_dd() {
        let c = generators::supremacy(2, 3, 10, 0);
        let pts = round_fidelity_sweep(&c, 8, &[0.99, 0.95, 0.90]).unwrap();
        assert_eq!(pts.len(), 3);
        // Lower per-round fidelity ⇒ (weakly) smaller max DD and lower
        // final fidelity — the monotonicity visible in Table I.
        for w in pts.windows(2) {
            assert!(w[1].max_dd_size <= w[0].max_dd_size + 2);
            assert!(w[1].f_final <= w[0].f_final + 1e-9);
        }
    }

    #[test]
    fn tradeoff_respects_floor_in_all_configs() {
        let c = generators::supremacy(2, 3, 12, 1);
        let pts = rounds_tradeoff(&c, 0.6, &[1, 2, 4]).unwrap();
        for p in &pts {
            assert!(
                p.f_final >= 0.6 - 1e-9,
                "k={} fidelity {}",
                p.rounds_requested,
                p.f_final
            );
            assert!(p.rounds_performed <= p.rounds_requested);
        }
    }

    #[test]
    fn pooled_sweeps_match_serial_up_to_runtime() {
        use approxdd_exec::BuildPool;
        let c = generators::supremacy(2, 3, 10, 0);
        let pool = Simulator::builder().workers(4).build_pool();

        let serial = round_fidelity_sweep(&c, 8, &[0.99, 0.95]).unwrap();
        let pooled = round_fidelity_sweep_pooled(&pool, &c, 8, &[0.99, 0.95]).unwrap();
        assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(s.f_round, p.f_round);
            assert_eq!(s.max_dd_size, p.max_dd_size);
            assert_eq!(s.rounds, p.rounds);
            assert_eq!(s.f_final.to_bits(), p.f_final.to_bits());
        }

        let serial = rounds_tradeoff(&c, 0.7, &[1, 2]).unwrap();
        let pooled = rounds_tradeoff_pooled(&pool, &c, 0.7, &[1, 2]).unwrap();
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(s.rounds_requested, p.rounds_requested);
            assert_eq!(s.rounds_performed, p.rounds_performed);
            assert_eq!(s.max_dd_size, p.max_dd_size);
            assert_eq!(s.f_final.to_bits(), p.f_final.to_bits());
        }
    }

    #[test]
    fn formatting_smoke() {
        let c = generators::supremacy(2, 2, 6, 0);
        let pts = round_fidelity_sweep(&c, 4, &[0.95]).unwrap();
        assert!(format_sweep(&pts).contains("fround"));
        let pts = rounds_tradeoff(&c, 0.8, &[2]).unwrap();
        assert!(format_tradeoff(&pts).contains("performed"));
    }
}
