//! Quantum order finding and the classical factoring loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use approxdd_sim::{SimStats, Simulator, Strategy};

use crate::classical::{bit_length, gcd, is_prime, modpow, order_candidates, perfect_power};
use crate::error::ShorError;
use crate::shor_circuit::shor_circuit;
use crate::Result;

/// Options for the factoring pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorOptions {
    /// Simulation strategy. The paper's configuration is fidelity-driven
    /// with `f_final = 0.5`, `f_round = 0.9`; the default here matches.
    pub strategy: Strategy,
    /// Measurement samples drawn per simulation (one simulation serves
    /// many samples — sampling a DD is `O(qubits)` per shot).
    pub shots: usize,
    /// Bases to try before giving up.
    pub max_attempts: usize,
    /// RNG seed for base selection and sampling (deterministic runs).
    pub seed: u64,
    /// Optional fixed base (the benchmark instances fix `a`).
    pub base: Option<u64>,
}

impl Default for FactorOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::FidelityDriven {
                final_fidelity: 0.5,
                round_fidelity: 0.9,
            },
            shots: 64,
            max_attempts: 8,
            seed: 0xD1CE,
            base: None,
        }
    }
}

/// The result of one quantum order-finding run.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderFinding {
    /// The verified multiplicative order of `a` mod `n`.
    pub order: u64,
    /// Samples drawn from the counting register.
    pub(crate) samples: usize,
    /// Simulation statistics (DD sizes, rounds, fidelity, runtime).
    pub(crate) sim_stats: SimStats,
}

/// The result of a successful factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorOutcome {
    /// The two non-trivial factors, `factors.0 * factors.1 == n`.
    pub factors: (u64, u64),
    /// The base that succeeded.
    pub base: u64,
    /// The order used (None when the factor came from a lucky gcd or
    /// classical shortcut).
    pub order: Option<u64>,
    /// Statistics of the successful quantum run, if one happened.
    pub sim_stats: Option<SimStats>,
}

/// Finds the multiplicative order of `a` modulo `n` by simulating
/// Shor's phase-estimation circuit and post-processing measurement
/// samples with continued fractions.
///
/// # Errors
///
/// Construction errors from [`shor_circuit`], simulation errors, or
/// [`ShorError::OrderNotFound`] when no sample verifies within the
/// budget.
pub fn find_order(n: u64, a: u64, options: &FactorOptions) -> Result<OrderFinding> {
    let circuit = shor_circuit(n, a)?;
    let mut sim = Simulator::builder().strategy(options.strategy).build();
    let run = sim.run(&circuit)?;

    let n_work = bit_length(n);
    let m = 2 * n_work as u32;
    let mut rng = StdRng::seed_from_u64(options.seed ^ a ^ n);

    let mut best: Option<u64> = None;
    let mut samples = 0usize;
    for _ in 0..options.shots {
        samples += 1;
        let outcome = sim.sample(&run, &mut rng);
        let y = outcome >> n_work; // counting register (qubits n_work..3n)
        for r in order_candidates(y, m, n) {
            if modpow(a, r, n) == 1 {
                best = Some(best.map_or(r, |b| b.min(r)));
            }
        }
        if best.is_some() && samples >= 8 {
            break;
        }
    }

    match best {
        Some(order) => Ok(OrderFinding {
            order,
            samples,
            sim_stats: run.stats,
        }),
        None => Err(ShorError::OrderNotFound { a, n }),
    }
}

/// Factors `n` with Shor's algorithm (quantum order finding on the
/// approximate DD simulator plus classical post-processing).
///
/// Classical shortcuts are taken where Shor's algorithm prescribes
/// them: even `n`, perfect powers, and lucky `gcd(a, n) > 1` draws.
///
/// # Errors
///
/// * [`ShorError::NotComposite`] for primes, 0 and 1;
/// * [`ShorError::AttemptsExhausted`] if every base fails;
/// * construction/simulation errors for oversized instances.
pub fn factor(n: u64, options: &FactorOptions) -> Result<FactorOutcome> {
    if n < 4 || is_prime(n) {
        return Err(ShorError::NotComposite { n });
    }
    if n.is_multiple_of(2) {
        return Ok(FactorOutcome {
            factors: (2, n / 2),
            base: 2,
            order: None,
            sim_stats: None,
        });
    }
    if let Some((b, k)) = perfect_power(n) {
        return Ok(FactorOutcome {
            factors: (b, n / b),
            base: b,
            order: Some(u64::from(k)),
            sim_stats: None,
        });
    }

    let mut rng = StdRng::seed_from_u64(options.seed ^ n);
    let mut attempts = 0usize;
    while attempts < options.max_attempts {
        attempts += 1;
        let a = match options.base {
            Some(a) if attempts == 1 => a,
            _ => rng.gen_range(2..n - 1),
        };
        let g = gcd(a, n);
        if g > 1 {
            // Lucky draw: a shares a factor with n.
            return Ok(FactorOutcome {
                factors: (g, n / g),
                base: a,
                order: None,
                sim_stats: None,
            });
        }
        let found = match find_order(n, a, options) {
            Ok(f) => f,
            Err(ShorError::OrderNotFound { .. }) => continue,
            Err(e) => return Err(e),
        };
        let r = found.order;
        if r % 2 != 0 {
            continue; // odd order: try another base
        }
        let half = modpow(a, r / 2, n);
        if half == n - 1 {
            continue; // a^(r/2) = -1 mod n: no factor from this base
        }
        let p = gcd(half + 1, n);
        let q = gcd(half + n - 1, n);
        for f in [p, q] {
            if f > 1 && f < n && n.is_multiple_of(f) {
                return Ok(FactorOutcome {
                    factors: (f, n / f),
                    base: a,
                    order: Some(r),
                    sim_stats: Some(found.sim_stats),
                });
            }
        }
    }
    Err(ShorError::AttemptsExhausted { n, attempts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_15_exact() {
        let opts = FactorOptions {
            strategy: Strategy::Exact,
            base: Some(7),
            ..FactorOptions::default()
        };
        let out = factor(15, &opts).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 15);
        assert!(p > 1 && q > 1);
    }

    #[test]
    fn factor_15_with_approximation() {
        let opts = FactorOptions {
            base: Some(7),
            ..FactorOptions::default()
        };
        let out = factor(15, &opts).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 15);
        if let Some(stats) = &out.sim_stats {
            assert!(stats.fidelity >= 0.5 - 1e-9, "fidelity {}", stats.fidelity);
        }
    }

    #[test]
    fn find_order_7_mod_15() {
        let opts = FactorOptions {
            strategy: Strategy::Exact,
            ..FactorOptions::default()
        };
        let found = find_order(15, 7, &opts).unwrap();
        assert_eq!(found.order, 4);
    }

    #[test]
    fn find_order_2_mod_21() {
        let opts = FactorOptions {
            strategy: Strategy::Exact,
            ..FactorOptions::default()
        };
        let found = find_order(21, 2, &opts).unwrap();
        assert_eq!(found.order, 6);
    }

    #[test]
    fn trivial_cases() {
        assert!(matches!(
            factor(17, &FactorOptions::default()),
            Err(ShorError::NotComposite { .. })
        ));
        let out = factor(22, &FactorOptions::default()).unwrap();
        assert_eq!(out.factors.0 * out.factors.1, 22);
        let out = factor(49, &FactorOptions::default()).unwrap();
        assert_eq!(out.factors, (7, 7));
    }

    #[test]
    fn factor_21_approximate() {
        let opts = FactorOptions {
            base: Some(2),
            ..FactorOptions::default()
        };
        let out = factor(21, &opts).unwrap();
        let (p, q) = out.factors;
        assert_eq!(p * q, 21);
        assert!(p == 3 || p == 7);
    }
}
