//! Complex arithmetic substrate for decision-diagram based quantum circuit
//! simulation.
//!
//! Decision diagrams require *canonical* representations: two edge weights
//! that are "the same number up to numerical noise" must be recognized as
//! equal, otherwise structurally identical sub-diagrams are duplicated and
//! the compression that makes DDs attractive evaporates. Following the
//! implementation strategy of Zulehner, Hillmich and Wille ("How to
//! efficiently handle complex values?", ICCAD 2019), this crate provides
//!
//! * [`Cplx`] — a plain `f64`-pair complex number with the full arithmetic
//!   surface needed by a simulator,
//! * [`Tolerance`] — tolerance-aware approximate equality, and
//! * [`Tolerance::key`] — a tolerance-grid quantization
//!   used to hash weights consistently with approximate equality.
//!
//! # Examples
//!
//! ```
//! use approxdd_complex::{Cplx, Tolerance};
//!
//! let a = Cplx::new(1.0 / 2.0_f64.sqrt(), 0.0);
//! let b = a * a;                       // 0.5 + 0i
//! assert!(Tolerance::default().eq(b, Cplx::new(0.5, 0.0)));
//! assert!((b.mag2() - 0.25).abs() < 1e-12);
//! ```

mod value;

pub use value::Cplx;

/// Default comparison tolerance used throughout the decision-diagram
/// engine. The value mirrors the magnitude used by the reference C++
/// implementation family (JKQ/MQT DDSIM).
pub(crate) const DEFAULT_TOLERANCE: f64 = 1e-12;

/// Tolerance-aware approximate comparison of real and complex values.
///
/// A [`Tolerance`] bundles the epsilon used for equality tests and for the
/// quantization grid, so all comparisons in one decision-diagram package
/// are mutually consistent.
///
/// # Examples
///
/// ```
/// use approxdd_complex::{Cplx, Tolerance};
///
/// let tol = Tolerance::new(1e-9);
/// assert!(tol.eq_real(1.0, 1.0 + 1e-10));
/// assert!(!tol.eq_real(1.0, 1.0 + 1e-8));
/// assert!(tol.is_zero(Cplx::new(1e-10, -1e-10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    eps: f64,
    /// Precomputed `1 / (2 * eps)`: quantization runs on the DD
    /// package's hottest path (every unique-table probe), where a
    /// multiply is several times cheaper than the division it
    /// replaces.
    inv_pitch: f64,
}

impl Tolerance {
    /// Creates a tolerance with the given epsilon.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is not finite and strictly positive.
    #[must_use]
    pub fn new(eps: f64) -> Self {
        assert!(
            eps.is_finite() && eps > 0.0,
            "tolerance epsilon must be finite and positive, got {eps}"
        );
        Self {
            eps,
            inv_pitch: 1.0 / (2.0 * eps),
        }
    }

    /// The epsilon of this tolerance.
    #[must_use]
    pub fn eps(self) -> f64 {
        self.eps
    }

    /// Approximate equality of two real numbers: `|a - b| <= eps`.
    #[must_use]
    pub fn eq_real(self, a: f64, b: f64) -> bool {
        (a - b).abs() <= self.eps
    }

    /// Approximate equality of two complex numbers (component-wise).
    #[must_use]
    pub fn eq(self, a: Cplx, b: Cplx) -> bool {
        self.eq_real(a.re, b.re) && self.eq_real(a.im, b.im)
    }

    /// Whether a complex value is approximately zero (component-wise).
    #[must_use]
    pub fn is_zero(self, a: Cplx) -> bool {
        a.re.abs() <= self.eps && a.im.abs() <= self.eps
    }

    /// Quantizes a real value onto the tolerance grid, producing an integer
    /// key such that values within one epsilon of each other land on the
    /// same or adjacent grid points.
    #[must_use]
    pub(crate) fn quantize(self, x: f64) -> i64 {
        quantize_scaled(x, self.inv_pitch)
    }

    /// A hashable key for a complex value, consistent with [`Tolerance::eq`]
    /// up to grid-boundary effects: values that compare equal hash to the
    /// same or to an adjacent key. The decision-diagram unique table uses
    /// this as its hash component; boundary misses only cost deduplication
    /// quality, never correctness.
    #[must_use]
    pub fn key(self, a: Cplx) -> (i64, i64) {
        (self.quantize(a.re), self.quantize(a.im))
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Self::new(DEFAULT_TOLERANCE)
    }
}

/// Quantizes `x` onto a grid of pitch `1 / inv_pitch = 2 * eps`, mapping
/// near-equal values to identical integers (up to boundary effects).
/// The pitch is twice the epsilon so that two values within `eps` of
/// each other differ by at most one grid step; its reciprocal is
/// precomputed (one multiply on the DD hot path instead of one divide).
#[must_use]
pub(crate) fn quantize_scaled(x: f64, inv_pitch: f64) -> i64 {
    let scaled = x * inv_pitch;
    // Saturate rather than wrap for pathological magnitudes.
    if scaled >= i64::MAX as f64 {
        i64::MAX
    } else if scaled <= i64::MIN as f64 {
        i64::MIN
    } else {
        // Round half away from zero, as `f64::round` does, without the
        // libm call that is on baseline x86-64: truncation is exact and
        // so is the fraction it leaves (NaN truncates to 0 and compares
        // false twice).
        let truncated = scaled as i64;
        let fraction = scaled - truncated as f64;
        if fraction >= 0.5 {
            truncated + 1
        } else if fraction <= -0.5 {
            truncated - 1
        } else {
            truncated
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tolerance_eq_real_symmetric() {
        let t = Tolerance::new(1e-6);
        assert!(t.eq_real(0.5, 0.5 + 5e-7));
        assert!(t.eq_real(0.5 + 5e-7, 0.5));
        assert!(!t.eq_real(0.5, 0.5 + 2e-6));
    }

    #[test]
    fn tolerance_zero_detection() {
        let t = Tolerance::default();
        assert!(t.is_zero(Cplx::ZERO));
        assert!(t.is_zero(Cplx::new(1e-13, 0.0)));
        assert!(!t.is_zero(Cplx::new(1e-6, 0.0)));
        assert!(!t.is_zero(Cplx::new(0.0, 1e-6)));
    }

    #[test]
    fn quantize_groups_close_values() {
        let eps = 1e-9;
        let a = Tolerance::new(eps).quantize(0.123_456_789);
        let b = Tolerance::new(eps).quantize(0.123_456_789 + 1e-10);
        assert!((a - b).abs() <= 1);
    }

    #[test]
    fn quantize_separates_distant_values() {
        let eps = 1e-9;
        let a = Tolerance::new(eps).quantize(0.1);
        let b = Tolerance::new(eps).quantize(0.2);
        assert!((a - b).abs() > 1);
    }

    #[test]
    fn quantize_saturates() {
        assert_eq!(Tolerance::new(1e-12).quantize(f64::MAX), i64::MAX);
        assert_eq!(Tolerance::new(1e-12).quantize(f64::MIN), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "tolerance epsilon")]
    fn tolerance_rejects_nonpositive() {
        let _ = Tolerance::new(0.0);
    }

    #[test]
    #[should_panic(expected = "tolerance epsilon")]
    fn tolerance_rejects_nan() {
        let _ = Tolerance::new(f64::NAN);
    }

    /// `quantize_scaled` as it was when it rounded through libm; the
    /// grid keys it produced are in every recorded result.
    fn quantize_scaled_by_round(x: f64, inv_pitch: f64) -> i64 {
        let scaled = x * inv_pitch;
        if scaled >= i64::MAX as f64 {
            i64::MAX
        } else if scaled <= i64::MIN as f64 {
            i64::MIN
        } else {
            scaled.round() as i64
        }
    }

    #[test]
    fn quantize_scaled_matches_round_on_the_edge_table() {
        let two_63 = i64::MAX as f64;
        let mut edges = vec![
            0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
            4_503_599_627_370_495.5, // 2^52 - 0.5, the largest half
            two_63,
            two_63.next_down(),
            two_63.next_up(),
        ];
        // Both sides of every integer-and-a-half boundary next to a
        // power of two, from below 1 to past the saturation point.
        for exponent in -2..=64 {
            let k = 2f64.powi(exponent);
            for offset in [
                0.0,
                0.499_999_999_999_999_94,
                0.5,
                0.500_000_000_000_000_1,
                1.0,
            ] {
                for v in [k - offset, k + offset] {
                    edges.extend([v.next_down(), v, v.next_up()]);
                }
            }
        }
        for x in edges.into_iter().flat_map(|x| [x, -x]) {
            assert_eq!(
                quantize_scaled(x, 1.0),
                quantize_scaled_by_round(x, 1.0),
                "at {x:e} ({:#018x})",
                x.to_bits()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn quantize_scaled_matches_round_on_any_bit_pattern(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert_eq!(quantize_scaled(x, 1.0), quantize_scaled_by_round(x, 1.0), "at {:e}", x);
        }

        // Within a few ulps of a half-way point, where the two could
        // differ if the fraction were not exact.
        #[test]
        fn quantize_scaled_matches_round_next_to_a_tie(
            k in -(1i64 << 52)..(1i64 << 52),
            ulps in 0u64..7
        ) {
            let tie = k as f64 + 0.5;
            let x = f64::from_bits(tie.to_bits() - 3 + ulps);
            prop_assert_eq!(quantize_scaled(x, 1.0), quantize_scaled_by_round(x, 1.0), "at {:e}", x);
        }

        // What the DD hot path asks: amplitude parts on the default grid.
        #[test]
        fn tolerance_keys_match_round_on_amplitudes(re in -1.5f64..1.5, im in -1.5f64..1.5) {
            let tol = Tolerance::default();
            let want = (
                quantize_scaled_by_round(re, tol.inv_pitch),
                quantize_scaled_by_round(im, tol.inv_pitch),
            );
            prop_assert_eq!(tol.key(Cplx::new(re, im)), want);
        }
    }
}
