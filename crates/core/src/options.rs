//! Simulation options and approximation strategies.

use std::time::Duration;

use crate::error::SimError;

/// The approximation strategy applied during simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// No approximation: the reference simulation of the paper's
    /// "Non-Approximating" columns.
    Exact,
    /// Section IV-B: after each applied gate, if the state DD exceeds
    /// `node_threshold` nodes, truncate targeting `round_fidelity` and
    /// grow the threshold (so the number of rounds stays bounded).
    ///
    /// The paper's text prescribes doubling (`threshold_growth = 2.0`,
    /// built by [`Strategy::memory_driven`]), but its Table I reports
    /// ~90 rounds on 20-qubit instances — unreachable under strict
    /// doubling — so the effective growth of the reference
    /// implementation must be much slower. `threshold_growth = 1.0`
    /// (fixed threshold, built by [`Strategy::memory_driven_table1`])
    /// reproduces that many-rounds regime, but not the table's peak-DD
    /// reductions: on `supremacy(4, 4, 9, 0)` at a 4096-node threshold
    /// and `f_round = 0.975` it ends with a 9.9 % smaller peak than the
    /// exact run, at fidelity 0.591, and runs slower than exact; at
    /// paper scale (`supremacy(4, 5, 15, 0)`) the peak is only 3.8 %
    /// smaller.
    MemoryDriven {
        /// Initial node-count threshold.
        node_threshold: usize,
        /// Per-round target fidelity `f_round` in `(0, 1]`; each round
        /// removes up to `1 − f_round` of contribution mass.
        round_fidelity: f64,
        /// Multiplicative threshold growth per round (≥ 1.0).
        threshold_growth: f64,
    },
    /// Section IV-C: schedule `⌊log_{f_round} f_final⌋` rounds before
    /// simulating, at circuit block markers or evenly spaced, so the
    /// product of the round targets stays at or above `final_fidelity`.
    /// That product is a target, not a bound: the true final fidelity
    /// can end below it.
    FidelityDriven {
        /// Target final fidelity `f_final` in `(0, 1]`.
        final_fidelity: f64,
        /// Per-round target fidelity `f_round` in `(0, 1)`.
        round_fidelity: f64,
    },
    /// The hybrid of Sections IV-B and IV-C (new in this workspace):
    /// after each applied gate, if the state DD exceeds the fixed
    /// `node_threshold`, truncate targeting `round_fidelity` — but only
    /// while spending that round keeps the target product
    /// ([`crate::PolicyCtx::fidelity_lower_bound`]) at or above
    /// `final_fidelity`. Memory stays bounded while the budget lasts,
    /// and the run goes on exactly once it is spent. Built by
    /// [`Strategy::budget`].
    Budget {
        /// Fixed node-count threshold (as in the Table I regime).
        node_threshold: usize,
        /// Per-round target fidelity in `(0, 1)`.
        round_fidelity: f64,
        /// The target product the rounds may spend down to, in
        /// `(0, 1]`.
        final_fidelity: f64,
    },
}

impl Strategy {
    /// The memory-driven configuration **as the paper's text prescribes
    /// it** (Sec. IV-B): the given threshold and round fidelity with
    /// *doubling* threshold growth, so the round count stays
    /// logarithmic in the final DD size.
    ///
    /// Note this is not the regime the paper's Table I reports — its
    /// ~90-round rows require a fixed threshold. Use
    /// [`Strategy::memory_driven_table1`] to reproduce the table.
    #[must_use]
    pub fn memory_driven(node_threshold: usize, round_fidelity: f64) -> Self {
        Strategy::MemoryDriven {
            node_threshold,
            round_fidelity,
            threshold_growth: 2.0,
        }
    }

    /// The memory-driven regime **Table I of the paper actually
    /// reports**: a fixed node threshold (`threshold_growth = 1.0`).
    /// The paper's text prescribes doubling, but its reported ~50–90
    /// rounds on 20-qubit instances are unreachable under strict
    /// doubling, so the reference implementation's effective growth
    /// must have been ≈1; this preset reproduces the table's round
    /// counts. It does not reproduce the table's peak-DD reductions:
    /// on `supremacy(4, 4, 9, 0)` with `(4096, 0.975)` it ends with a
    /// 9.9 % smaller peak than the exact run, at fidelity 0.591, and
    /// runs slower than exact; at paper scale (`supremacy(4, 5, 15, 0)`
    /// with `(2^15, 0.99)`) the peak is only 3.8 % smaller.
    #[must_use]
    pub fn memory_driven_table1(node_threshold: usize, round_fidelity: f64) -> Self {
        Strategy::MemoryDriven {
            node_threshold,
            round_fidelity,
            threshold_growth: 1.0,
        }
    }

    /// The paper's fidelity-driven configuration.
    #[must_use]
    pub fn fidelity_driven(final_fidelity: f64, round_fidelity: f64) -> Self {
        Strategy::FidelityDriven {
            final_fidelity,
            round_fidelity,
        }
    }

    /// The budget hybrid ([`Strategy::Budget`]): memory trigger at
    /// `node_threshold`, per-round target `round_fidelity`, total
    /// budget `final_fidelity`.
    #[must_use]
    pub fn budget(node_threshold: usize, round_fidelity: f64, final_fidelity: f64) -> Self {
        Strategy::Budget {
            node_threshold,
            round_fidelity,
            final_fidelity,
        }
    }

    /// Validates the strategy parameters.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidStrategy`] when a fidelity is outside its
    /// range or a threshold is zero.
    pub fn validate(&self) -> Result<(), SimError> {
        match *self {
            Strategy::Exact => Ok(()),
            Strategy::MemoryDriven {
                node_threshold,
                round_fidelity,
                threshold_growth,
            } => {
                if node_threshold == 0 {
                    return Err(SimError::InvalidStrategy {
                        reason: "memory-driven node threshold must be positive",
                    });
                }
                if !(0.0..=1.0).contains(&round_fidelity) || round_fidelity <= 0.0 {
                    return Err(SimError::InvalidStrategy {
                        reason: "round fidelity must lie in (0, 1]",
                    });
                }
                if threshold_growth < 1.0 || !threshold_growth.is_finite() {
                    return Err(SimError::InvalidStrategy {
                        reason: "threshold growth must be a finite factor >= 1.0",
                    });
                }
                Ok(())
            }
            Strategy::FidelityDriven {
                final_fidelity,
                round_fidelity,
            } => {
                if !(final_fidelity > 0.0 && final_fidelity <= 1.0) {
                    return Err(SimError::InvalidStrategy {
                        reason: "final fidelity must lie in (0, 1]",
                    });
                }
                if !(round_fidelity > 0.0 && round_fidelity < 1.0) {
                    return Err(SimError::InvalidStrategy {
                        reason: "round fidelity must lie in (0, 1)",
                    });
                }
                if round_fidelity < final_fidelity {
                    return Err(SimError::InvalidStrategy {
                        reason: "round fidelity must not be below the final fidelity",
                    });
                }
                Ok(())
            }
            Strategy::Budget {
                node_threshold,
                round_fidelity,
                final_fidelity,
            } => {
                if node_threshold == 0 {
                    return Err(SimError::InvalidStrategy {
                        reason: "budget node threshold must be positive",
                    });
                }
                if !(round_fidelity > 0.0 && round_fidelity < 1.0) {
                    return Err(SimError::InvalidStrategy {
                        reason: "budget round fidelity must lie in (0, 1)",
                    });
                }
                if !(final_fidelity > 0.0 && final_fidelity <= 1.0) {
                    return Err(SimError::InvalidStrategy {
                        reason: "budget final fidelity must lie in (0, 1]",
                    });
                }
                Ok(())
            }
        }
    }

    /// The maximum number of approximation rounds the fidelity-driven
    /// strategy may apply: `⌊log_{f_round}(f_final)⌋` (Sec. IV-C).
    /// Returns 0 for other strategies.
    #[must_use]
    pub(crate) fn max_rounds(&self) -> usize {
        match *self {
            Strategy::FidelityDriven {
                final_fidelity,
                round_fidelity,
            } => {
                if final_fidelity >= 1.0 || round_fidelity >= 1.0 {
                    0
                } else {
                    (final_fidelity.ln() / round_fidelity.ln()).floor() as usize
                }
            }
            _ => 0,
        }
    }
}

/// Options controlling a [`crate::Simulator`]. The approximation
/// policy is not among them: it travels as one
/// `Arc<dyn PolicyFactory>` from the builder to the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimOptions {
    /// Garbage-collect the package when its total alive node count
    /// exceeds this value (default: 1 « 18).
    pub(crate) gc_node_threshold: usize,
    /// Record the DD size after every gate into
    /// [`crate::SimStats::size_series`] (default: off; the golden and
    /// determinism suites set it to pin size-over-time series).
    pub record_size_series: bool,
    /// `log2` slot count of the DD package's lossy compute table, the
    /// `add` table (`None` → the engine default, 2^16 slots; clamped
    /// to `[2, 26]`). A pure time/memory trade: the table is lossy, so
    /// results are **bit-identical for every size** — an
    /// undersized cache only recomputes more. Tune down for
    /// many-worker pools where per-worker footprint matters, up for
    /// deep single-session circuits with heavy structural reuse.
    pub(crate) compute_cache_bits: Option<u32>,
    /// A run's wall-clock budget (default: none). See
    /// [`crate::SimulatorBuilder::deadline`].
    pub(crate) deadline: Option<Duration>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            gc_node_threshold: 1 << 18,
            record_size_series: false,
            compute_cache_bits: None,
            deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_always_validates() {
        assert!(Strategy::Exact.validate().is_ok());
        assert_eq!(Strategy::Exact.max_rounds(), 0);
    }

    #[test]
    fn memory_driven_validation() {
        assert!(Strategy::memory_driven(100, 0.95).validate().is_ok());
        assert!(Strategy::memory_driven(0, 0.95).validate().is_err());
        assert!(Strategy::memory_driven(10, 1.5).validate().is_err());
        assert!(Strategy::MemoryDriven {
            node_threshold: 10,
            round_fidelity: 0.9,
            threshold_growth: 0.5,
        }
        .validate()
        .is_err());
        assert!(Strategy::MemoryDriven {
            node_threshold: 10,
            round_fidelity: 0.9,
            threshold_growth: 1.0,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn fidelity_driven_round_count_matches_paper_formula() {
        // Paper Sec. VI: f_final = 0.5, f_round = 0.9 -> floor(log_0.9 0.5)
        // = floor(6.578) = 6 rounds.
        let s = Strategy::FidelityDriven {
            final_fidelity: 0.5,
            round_fidelity: 0.9,
        };
        s.validate().unwrap();
        assert_eq!(s.max_rounds(), 6);
    }

    #[test]
    fn fidelity_driven_validation() {
        assert!(Strategy::FidelityDriven {
            final_fidelity: 0.0,
            round_fidelity: 0.9
        }
        .validate()
        .is_err());
        assert!(Strategy::FidelityDriven {
            final_fidelity: 0.9,
            round_fidelity: 0.5
        }
        .validate()
        .is_err());
        assert!(Strategy::FidelityDriven {
            final_fidelity: 0.5,
            round_fidelity: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn default_options_are_exact() {
        let o = SimOptions::default();
        assert!(!o.record_size_series);
        assert_eq!(o.compute_cache_bits, None);
        let mut sim = crate::Simulator::builder().build();
        let run = sim
            .run(&approxdd_circuit::generators::ghz(2))
            .expect("a valid circuit");
        assert_eq!(run.stats.policy, "exact");
    }

    /// Input-validation hardening: every NaN / zero / out-of-range
    /// parameter is rejected with a typed error instead of silently
    /// running.
    #[test]
    fn nan_and_out_of_range_parameters_are_rejected() {
        // Memory-driven: NaN round fidelity.
        assert!(matches!(
            Strategy::memory_driven(10, f64::NAN).validate(),
            Err(SimError::InvalidStrategy { .. })
        ));
        // Memory-driven: zero round fidelity.
        assert!(Strategy::memory_driven(10, 0.0).validate().is_err());
        // Memory-driven: zero node threshold.
        assert!(Strategy::memory_driven(0, 0.9).validate().is_err());
        // Memory-driven: NaN / sub-unit / infinite threshold growth.
        for growth in [f64::NAN, 0.5, f64::INFINITY] {
            assert!(
                Strategy::MemoryDriven {
                    node_threshold: 10,
                    round_fidelity: 0.9,
                    threshold_growth: growth,
                }
                .validate()
                .is_err(),
                "growth {growth} must be rejected"
            );
        }
        // Fidelity-driven: NaN final / round fidelity, zero, above one.
        assert!(Strategy::fidelity_driven(f64::NAN, 0.9).validate().is_err());
        assert!(Strategy::fidelity_driven(0.5, f64::NAN).validate().is_err());
        assert!(Strategy::fidelity_driven(0.0, 0.9).validate().is_err());
        assert!(Strategy::fidelity_driven(1.5, 0.9).validate().is_err());
        assert!(Strategy::fidelity_driven(0.5, 0.0).validate().is_err());
        // Budget: zero threshold, NaN / unit round fidelity, zero or
        // above-one budget, each with its own reason.
        let reason = |s: Strategy| match s.validate() {
            Err(SimError::InvalidStrategy { reason }) => reason,
            other => panic!("{s:?} validated as {other:?}"),
        };
        assert_eq!(
            reason(Strategy::budget(0, 0.9, 0.5)),
            "budget node threshold must be positive"
        );
        for round in [f64::NAN, 0.0, 1.0] {
            assert_eq!(
                reason(Strategy::budget(10, round, 0.5)),
                "budget round fidelity must lie in (0, 1)"
            );
        }
        for budget in [f64::NAN, 0.0, 1.5] {
            assert_eq!(
                reason(Strategy::budget(10, 0.9, budget)),
                "budget final fidelity must lie in (0, 1]"
            );
        }
        assert!(Strategy::budget(10, 0.9, 1.0).validate().is_ok());
        assert_eq!(Strategy::budget(10, 0.9, 0.5).max_rounds(), 0);
    }
}
