//! Classical number theory: the non-quantum parts of Shor's algorithm.

/// Greatest common divisor (Euclid).
#[must_use]
pub(crate) fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Modular multiplication without overflow (via `u128`).
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub(crate) fn modmul(a: u64, b: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    ((u128::from(a) * u128::from(b)) % u128::from(m)) as u64
}

/// Modular exponentiation `base^exp mod m`.
///
/// # Panics
///
/// Panics if `m == 0`.
#[must_use]
pub(crate) fn modpow(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be nonzero");
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = modmul(acc, base, m);
        }
        base = modmul(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin primality test for `u64` (uses the known
/// complete witness set for 64-bit integers).
#[must_use]
pub(crate) fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = modpow(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = modmul(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// If `n = b^k` for some integers `b >= 2`, `k >= 2`, returns `(b, k)`.
#[must_use]
pub(crate) fn perfect_power(n: u64) -> Option<(u64, u32)> {
    if n < 4 {
        return None;
    }
    for k in (2..=n.ilog2()).rev() {
        let b = nth_root(n, k);
        for cand in [b.saturating_sub(1), b, b + 1] {
            if cand >= 2 && (cand.checked_pow(k) == Some(n)) {
                return Some((cand, k));
            }
        }
    }
    None
}

/// Integer `k`-th root (floor).
fn nth_root(n: u64, k: u32) -> u64 {
    let mut r = (n as f64).powf(1.0 / f64::from(k)).round() as u64;
    // Fix up floating error.
    while r.checked_pow(k).is_none_or(|p| p > n) {
        r -= 1;
    }
    while (r + 1).checked_pow(k).is_some_and(|p| p <= n) {
        r += 1;
    }
    r
}

/// Number of bits needed to represent `n` (`bits(0) == 0`).
#[must_use]
pub(crate) fn bit_length(n: u64) -> usize {
    (64 - n.leading_zeros()) as usize
}

/// The continued-fraction convergents of `num / den`, returned as
/// `(numerator, denominator)` pairs in increasing accuracy.
///
/// # Panics
///
/// Panics if `den == 0`.
#[must_use]
pub(crate) fn convergents(mut num: u64, mut den: u64) -> Vec<(u64, u64)> {
    assert!(den != 0, "denominator must be nonzero");
    let mut result = Vec::new();
    // h/k convergent recurrences.
    let (mut h0, mut h1) = (0u64, 1u64);
    let (mut k0, mut k1) = (1u64, 0u64);
    while den != 0 {
        let a = num / den;
        (num, den) = (den, num % den);
        let h2 = a.saturating_mul(h1).saturating_add(h0);
        let k2 = a.saturating_mul(k1).saturating_add(k0);
        (h0, h1) = (h1, h2);
        (k0, k1) = (k1, k2);
        result.push((h1, k1));
    }
    result
}

/// Extracts candidate orders from a phase-estimation sample `y` measured
/// on an `m`-bit counting register: denominators of the convergents of
/// `y / 2^m`, bounded by `max_order`, plus their small multiples (which
/// recover the order when `gcd(s, r) > 1` shortened the fraction).
#[must_use]
pub(crate) fn order_candidates(y: u64, m: u32, max_order: u64) -> Vec<u64> {
    if y == 0 {
        return Vec::new();
    }
    let den = 1u64 << m;
    let mut out = Vec::new();
    for (_, k) in convergents(y, den) {
        if k == 0 || k > max_order {
            continue;
        }
        for mult in 1..=4u64 {
            let cand = k.saturating_mul(mult);
            if cand <= max_order && !out.contains(&cand) {
                out.push(cand);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The multiplicative order of `a` modulo `n` computed classically by
/// brute force — the test oracle for the quantum order finder. Returns
/// `None` if `gcd(a, n) != 1`.
#[must_use]
pub fn multiplicative_order(a: u64, n: u64) -> Option<u64> {
    if n == 0 || gcd(a, n) != 1 {
        return None;
    }
    let mut x = a % n;
    let mut r = 1u64;
    while x != 1 {
        x = modmul(x, a, n);
        r += 1;
        if r > n {
            return None; // unreachable for valid inputs
        }
    }
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
    }

    #[test]
    fn modpow_matches_naive() {
        for (b, e, m) in [
            (3u64, 7u64, 11u64),
            (2, 10, 1000),
            (5, 0, 7),
            (123, 45, 997),
        ] {
            let mut naive = 1u64 % m;
            for _ in 0..e {
                naive = naive * b % m;
            }
            assert_eq!(modpow(b, e, m), naive, "{b}^{e} mod {m}");
        }
    }

    #[test]
    fn modmul_survives_large_operands() {
        let big = u64::MAX - 1;
        // (2^64-2)^2 mod (2^64-1) = 1
        assert_eq!(modmul(big, big, u64::MAX), 1);
    }

    #[test]
    fn primality_known_values() {
        let primes = [2u64, 3, 5, 7, 97, 7919, 1_000_000_007, 2_147_483_647];
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        let composites = [1u64, 4, 15, 33, 55, 221, 323, 629, 1157, 1_000_000_008];
        for c in composites {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn perfect_power_detection() {
        assert_eq!(perfect_power(8), Some((2, 3)));
        assert_eq!(perfect_power(81), Some((3, 4)));
        assert_eq!(perfect_power(49), Some((7, 2)));
        assert_eq!(perfect_power(15), None);
        assert_eq!(perfect_power(2), None);
    }

    #[test]
    fn bit_lengths() {
        assert_eq!(bit_length(0), 0);
        assert_eq!(bit_length(1), 1);
        assert_eq!(bit_length(33), 6);
        assert_eq!(bit_length(1157), 11);
    }

    #[test]
    fn convergents_of_pi_ish() {
        // 355/113 is a famous convergent of pi; check with 314159/100000.
        let conv = convergents(314_159, 100_000);
        assert!(conv.contains(&(355, 113)), "{conv:?}");
    }

    #[test]
    fn order_candidates_recover_period() {
        // Simulate an ideal phase-estimation sample: r = 4, s = 1,
        // m = 8 bits -> y = 64.
        let cands = order_candidates(64, 8, 100);
        assert!(cands.contains(&4), "{cands:?}");
        // s/r = 3/4 -> y = 192 gives denominator 4 directly.
        let cands = order_candidates(192, 8, 100);
        assert!(cands.contains(&4), "{cands:?}");
        // s/r = 2/4 = 1/2: denominator 2; the multiple 4 must appear.
        let cands = order_candidates(128, 8, 100);
        assert!(cands.contains(&4), "{cands:?}");
    }

    #[test]
    fn multiplicative_orders() {
        assert_eq!(multiplicative_order(7, 15), Some(4));
        assert_eq!(multiplicative_order(2, 15), Some(4));
        assert_eq!(multiplicative_order(5, 33), Some(10));
        assert_eq!(multiplicative_order(2, 33), Some(10));
        assert_eq!(multiplicative_order(3, 15), None, "not coprime");
        for a in [2u64, 5, 7, 8] {
            let r = multiplicative_order(a, 33).unwrap();
            assert_eq!(modpow(a, r, 33), 1);
        }
    }
}
