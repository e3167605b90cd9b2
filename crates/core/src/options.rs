//! Simulation options and approximation strategies.

use crate::error::SimError;

/// Which simulation engine a backend built from a
/// [`crate::SimulatorBuilder`] should use.
///
/// The builder itself always constructs the DD [`crate::Simulator`];
/// this knob is read by the backend layer (`approxdd_exec::backend`'s
/// `build_backend`) and by pooled execution to route circuits
/// to the stabilizer tableau or the hybrid Clifford-prefix dispatcher
/// instead. Keeping it here means one template (builder) describes the
/// full experiment, engine choice included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Engine {
    /// The approximate decision-diagram engine (the default).
    #[default]
    Dd,
    /// The Aaronson–Gottesman stabilizer tableau: polynomial-time and
    /// exact, but restricted to Clifford circuits.
    Stabilizer,
    /// Hybrid dispatch: the maximal Clifford prefix runs on the
    /// tableau, the remainder on the DD engine seeded with the
    /// synthesized stabilizer state. Pure-Clifford circuits never
    /// touch the DD package.
    Hybrid,
}

impl Engine {
    /// Short engine label (`"dd"`, `"stabilizer"`, `"hybrid"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Dd => "dd",
            Engine::Stabilizer => "stabilizer",
            Engine::Hybrid => "hybrid",
        }
    }
}

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
    /// reproduces that many-rounds regime and the table's max-DD-size
    /// reductions.
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
    /// final fidelity is guaranteed to stay above `final_fidelity`.
    FidelityDriven {
        /// Required final fidelity `f_final` in `(0, 1]`.
        final_fidelity: f64,
        /// Per-round target fidelity `f_round` in `(0, 1)`.
        round_fidelity: f64,
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
    /// counts and max-DD-size reductions.
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

/// How pooled execution re-dispatches jobs that fail with a *retryable*
/// error (a lost worker, or an injected fault from a test harness).
///
/// Lives in this crate so one builder template describes the full
/// experiment — the pool layer (`approxdd-exec`) reads it from the
/// template. Retrying is safe by construction: a job's seed is a pure
/// function of (root seed, domain, job index), never of the attempt
/// number, so a retried success is byte-identical to a first-try
/// success.
///
/// Retries go out immediately: the pool re-dispatches everything that
/// failed in one collection round together.
///
/// The default (`max_attempts = 1`) disables retries entirely —
/// failures surface to the caller exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total number of attempts a job may consume, including the first
    /// (so `1` means "never retry"). Zero is treated as one.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy allowing up to `max_attempts` total attempts.
    #[must_use]
    pub fn new(max_attempts: u32) -> Self {
        Self { max_attempts }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new(1)
    }
}

/// Options controlling a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimOptions {
    /// Approximation strategy (default: [`Strategy::Exact`]).
    pub strategy: Strategy,
    /// Garbage-collect the package when its total alive node count
    /// exceeds this value (default: 1 « 18).
    pub(crate) gc_node_threshold: usize,
    /// Record the DD size after every gate into
    /// [`crate::SimStats::size_series`] (default: off; used by the
    /// benchmark harness to regenerate size-over-time series).
    pub record_size_series: bool,
    /// `log2` slot count of the DD package's lossy compute table, the
    /// `add` table (`None` → the engine default, 2^16 slots; clamped
    /// to `[2, 26]`). A pure time/memory trade: the table is lossy, so
    /// results are **bit-identical for every size** — an
    /// undersized cache only recomputes more. Tune down for
    /// many-worker pools where per-worker footprint matters, up for
    /// deep single-session circuits with heavy structural reuse.
    pub(crate) compute_cache_bits: Option<u32>,
}

impl SimOptions {
    /// Validates the options: the strategy preset's parameters (NaN,
    /// zero and out-of-range fidelities, zero node thresholds — see
    /// [`Strategy::validate`]) plus any future option-level
    /// constraints. What [`crate::SimulatorBuilder::try_build`] checks
    /// eagerly.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidStrategy`] for out-of-range strategy
    /// parameters.
    pub(crate) fn validate(&self) -> Result<(), SimError> {
        self.strategy.validate()
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::Exact,
            gc_node_threshold: 1 << 18,
            record_size_series: false,
            compute_cache_bits: None,
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
        assert_eq!(o.strategy, Strategy::Exact);
        assert!(!o.record_size_series);
        assert!(o.validate().is_ok());
    }

    #[test]
    fn retry_policy_default_never_retries() {
        assert_eq!(RetryPolicy::default().max_attempts, 1);
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
        // Options-level validation delegates to the strategy.
        let options = SimOptions {
            strategy: Strategy::memory_driven(0, 0.9),
            ..SimOptions::default()
        };
        assert!(matches!(
            options.validate(),
            Err(SimError::InvalidStrategy { .. })
        ));
    }
}
