//! Exact binomial variates over the vendored `rand`, for the shot
//! routing pass of [`Package::sample_counts`](crate::Package::sample_counts).
//!
//! Kachitvichyanukul and Schmeiser's pair (Binomial random variate
//! generation, CACM 31(2), 1988): inversion (BINV) while the mean of
//! the smaller tail is below [`BINV_MEAN`], and otherwise BTPE, a
//! triangle / parallelogram / exponential-tails rejection sampler whose
//! expected cost does not grow with `n`. Both are exact; no normal
//! approximation is used anywhere.

use rand::Rng;

/// Below this `n · min(p, 1 − p)`, inversion is cheaper than BTPE's
/// set-up (the paper's suggestion, and NumPy's).
const BINV_MEAN: f64 = 30.0;

/// BTPE evaluates `f(y) / f(mode)` by its recurrence within this many
/// steps of the mode, and by the squeeze and Stirling bounds beyond.
const SQUEEZE_FROM: i64 = 20;

/// One draw from Binomial(`n`, `p`): the number of successes in `n`
/// independent trials that each succeed with probability `p`.
///
/// `p` outside `[0, 1]` is clamped to it; a NaN `p` draws 0.
pub(crate) fn binomial<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Draw the count of the rarer outcome and flip back.
    let (small, flipped) = if p <= 0.5 {
        (p, false)
    } else {
        (1.0 - p, true)
    };
    let k = if n as f64 * small < BINV_MEAN {
        binv(rng, n, small)
    } else {
        btpe(rng, n, small)
    };
    if flipped {
        n - k
    } else {
        k
    }
}

/// Inversion: walks the CDF up from 0 with the pmf recurrence
/// `f(x) = f(x − 1) · ((n + 1) s / x − s)`, `s = p / q`. Expected cost
/// `O(n p)`.
fn binv<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    let q = 1.0 - p;
    let s = p / q;
    let a = (n as f64 + 1.0) * s;
    // q^n, accurate for tiny p too.
    let mut r = (n as f64 * (-p).ln_1p()).exp();
    let mut u: f64 = rng.gen();
    let mut x = 0;
    while u > r && x < n {
        u -= r;
        x += 1;
        r *= a / x as f64 - s;
    }
    x
}

/// BTPE for `n p ≥ BINV_MEAN`, `p ≤ 0.5` (the paper's steps 0–5.3).
fn btpe<R: Rng + ?Sized>(rng: &mut R, n: u64, p: f64) -> u64 {
    // Step 0: constants of the envelope.
    let nf = n as f64;
    let q = 1.0 - p;
    let np = nf * p;
    let npq = np * q;
    let f_m = np + p;
    let m = f_m.floor();
    let mi = m as i64;
    let p1 = (2.195 * npq.sqrt() - 4.6 * q).floor() + 0.5;
    let x_m = m + 0.5;
    let x_l = x_m - p1;
    let x_r = x_m + p1;
    let c = 0.134 + 20.5 / (15.3 + m);
    let tail = |a: f64| a * (1.0 + 0.5 * a);
    let lambda_l = tail((f_m - x_l) / (f_m - x_l * p));
    let lambda_r = tail((x_r - f_m) / (x_r * q));
    let p2 = p1 * (1.0 + 2.0 * c);
    let p3 = p2 + c / lambda_l;
    let p4 = p3 + c / lambda_r;
    let ni = n as i64;
    loop {
        // Step 1: pick a region; the triangle accepts at once.
        let u = rng.gen::<f64>() * p4;
        let mut v: f64 = rng.gen();
        let y: i64;
        if u <= p1 {
            return (x_m - p1 * v + u).floor() as u64;
        } else if u <= p2 {
            // Step 2: the parallelograms.
            let x = x_l + (u - p1) / c;
            v = v * c + 1.0 - (x_m - x).abs() / p1;
            if v > 1.0 {
                continue;
            }
            y = x.floor() as i64;
        } else if u <= p3 {
            // Step 3: the left exponential tail.
            y = (x_l + v.ln() / lambda_l).floor() as i64;
            if y < 0 {
                continue;
            }
            v *= (u - p2) * lambda_l;
        } else {
            // Step 4: the right exponential tail.
            y = (x_r - v.ln() / lambda_r).floor() as i64;
            if y > ni {
                continue;
            }
            v *= (u - p3) * lambda_r;
        }
        // Step 5: accept y with probability f(y) / (f(mode) · envelope).
        let k = (y - mi).abs();
        if k <= SQUEEZE_FROM || k as f64 >= 0.5 * npq - 1.0 {
            // Step 5.1: f(y) / f(mode) by the pmf recurrence.
            let s = p / q;
            let a = s * (nf + 1.0);
            let mut f = 1.0;
            for i in (mi.min(y) + 1)..=(mi.max(y)) {
                let step = a / i as f64 - s;
                if y > mi {
                    f *= step;
                } else {
                    f /= step;
                }
            }
            if v <= f {
                return y as u64;
            }
            continue;
        }
        // Step 5.2: squeeze ln v between bounds on ln(f(y) / f(mode)).
        let kf = k as f64;
        let rho = (kf / npq) * ((kf * (kf / 3.0 + 0.625) + 1.0 / 6.0) / npq + 0.5);
        let t = -0.5 * kf * kf / npq;
        let alpha = v.ln();
        if alpha < t - rho {
            return y as u64;
        }
        if alpha > t + rho {
            continue;
        }
        // Step 5.3: the exact bound, by Stirling's series.
        let x1 = (y + 1) as f64;
        let f1 = m + 1.0;
        let z = nf + 1.0 - m;
        let w = (ni - y + 1) as f64;
        let bound = x_m * (f1 / x1).ln()
            + (nf - m + 0.5) * (z / w).ln()
            + (y - mi) as f64 * (w * p / (x1 * q)).ln()
            + stirling(f1)
            + stirling(z)
            - stirling(x1)
            - stirling(w);
        if alpha <= bound {
            return y as u64;
        }
    }
}

/// `ln Γ(x) − [(x − ½) ln x − x + ½ ln 2π]`, Stirling's series to the
/// `x⁻⁹` term.
fn stirling(x: f64) -> f64 {
    let x2 = x * x;
    (13860.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x / 166_320.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every draw lies in `0..=n`, and the sample mean and variance of
    /// 20 000 draws lie within 5σ of `n p` and `n p q`, across both
    /// samplers, both tails and the degenerate ends.
    #[test]
    fn draws_are_in_range_with_the_binomial_mean_and_variance() {
        const DRAWS: usize = 20_000;
        let mut rng = StdRng::seed_from_u64(0xb1_0b);
        for n in [0u64, 1, 7, 2048, 1_000_000] {
            for p in [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0] {
                let draws: Vec<u64> = (0..DRAWS).map(|_| binomial(&mut rng, n, p)).collect();
                assert!(draws.iter().all(|&k| k <= n), "n {n}, p {p}");
                let (nf, q) = (n as f64, 1.0 - p);
                let (mean, var) = (nf * p, nf * p * q);
                let got_mean = draws.iter().map(|&k| k as f64).sum::<f64>() / DRAWS as f64;
                let got_var = draws
                    .iter()
                    .map(|&k| (k as f64 - got_mean).powi(2))
                    .sum::<f64>()
                    / (DRAWS - 1) as f64;
                // The fourth central moment gives the spread of the
                // sample variance.
                let k = DRAWS as f64;
                let mu4 = var * (1.0 + 3.0 * (nf - 2.0) * p * q);
                let sd_mean = (var / k).sqrt();
                let sd_var = ((mu4 - var * var * (k - 3.0) / (k - 1.0)).max(0.0) / k).sqrt();
                let what =
                    format!("n {n}, p {p}: mean {got_mean} vs {mean}, var {got_var} vs {var}");
                assert!(
                    (got_mean - mean).abs() <= 5.0 * sd_mean + 1e-9 * nf,
                    "{what}"
                );
                assert!((got_var - var).abs() <= 5.0 * sd_var + 1e-9 * nf, "{what}");
            }
        }
    }

    /// Small cases against their exact pmf by χ²: a mean in BINV's
    /// range and one in BTPE's, on both sides of ½.
    #[test]
    fn small_cases_match_the_pmf() {
        const DRAWS: usize = 100_000;
        let mut rng = StdRng::seed_from_u64(41);
        for (n, p) in [(40u64, 0.3), (40, 0.7), (200, 0.4), (200, 0.85)] {
            let mut seen = vec![0usize; n as usize + 1];
            for _ in 0..DRAWS {
                seen[binomial(&mut rng, n, p) as usize] += 1;
            }
            // pmf by the recurrence from f(0) = q^n.
            let mut pmf = vec![(1.0 - p).powi(n as i32)];
            for k in 1..=n {
                let prev = pmf[k as usize - 1];
                pmf.push(prev * (n - k + 1) as f64 / k as f64 * p / (1.0 - p));
            }
            // Pool outcomes expected fewer than 5 times into one bin.
            let (mut chi2, mut bins, mut rest_want, mut rest_seen) = (0.0, 0, 0.0, 0);
            for (k, &f) in pmf.iter().enumerate() {
                let want = f * DRAWS as f64;
                if want < 5.0 {
                    rest_want += want;
                    rest_seen += seen[k];
                } else {
                    chi2 += (seen[k] as f64 - want).powi(2) / want;
                    bins += 1;
                }
            }
            if rest_want > 0.0 {
                chi2 += (rest_seen as f64 - rest_want).powi(2) / rest_want;
                bins += 1;
            }
            // 99.9th percentile of χ² with bins − 1 degrees of freedom
            // (Wilson–Hilferty), so a correct sampler fails once in a
            // thousand seeds.
            let dof = f64::from(bins - 1);
            let z = 3.090_232;
            let limit = dof * (1.0 - 2.0 / (9.0 * dof) + z * (2.0 / (9.0 * dof)).sqrt()).powi(3);
            assert!(
                chi2 < limit,
                "n {n}, p {p}: χ² {chi2} over {bins} bins, limit {limit}"
            );
        }
    }
}
