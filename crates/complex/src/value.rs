//! The [`Cplx`] complex number type.

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// This is deliberately a plain value type (no interning, no tolerance):
/// tolerance-aware behaviour lives in [`crate::Tolerance`] so that exact
/// arithmetic and approximate comparison cannot be confused.
///
/// # Examples
///
/// ```
/// use approxdd_complex::Cplx;
///
/// let i = Cplx::I;
/// assert_eq!(i * i, Cplx::new(-1.0, 0.0));
/// assert_eq!(Cplx::new(3.0, 4.0).mag(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cplx {
    /// Real component.
    pub re: f64,
    /// Imaginary component.
    pub im: f64,
}

impl Cplx {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Cplx = Cplx { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Cplx = Cplx { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Cplx = Cplx { re: 0.0, im: 1.0 };
    /// `1/sqrt(2)`, the ubiquitous Hadamard coefficient.
    pub const FRAC_1_SQRT_2: Cplx = Cplx {
        re: std::f64::consts::FRAC_1_SQRT_2,
        im: 0.0,
    };

    /// Creates a complex number from real and imaginary parts.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a purely real complex number.
    #[must_use]
    pub const fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates `r * e^{i theta}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use approxdd_complex::Cplx;
    /// let c = Cplx::from_polar(2.0, std::f64::consts::FRAC_PI_2);
    /// assert!((c.re).abs() < 1e-15);
    /// assert!((c.im - 2.0).abs() < 1e-15);
    /// ```
    #[must_use]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Squared magnitude `|z|^2`. Cheaper than [`Cplx::mag`]; the quantity
    /// the Born rule and node contributions are built from.
    #[must_use]
    pub fn mag2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[must_use]
    pub fn mag(self) -> f64 {
        self.mag2().sqrt()
    }

    /// Argument (phase angle) in radians, in `(-pi, pi]`.
    #[must_use]
    pub(crate) fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns `Cplx::ZERO`-adjacent garbage (infinities/NaN) if `self` is
    /// exactly zero, mirroring `f64` division semantics; callers guard with
    /// a tolerance check.
    #[must_use]
    pub fn recip(self) -> Self {
        let d = self.mag2();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Principal square root.
    #[must_use]
    pub fn sqrt(self) -> Self {
        Self::from_polar(self.mag().sqrt(), self.arg() / 2.0)
    }

    /// Whether both components are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// The unit-magnitude phase `z / |z|` of a nonzero value.
    #[must_use]
    pub fn phase(self) -> Self {
        let m = self.mag();
        Self {
            re: self.re / m,
            im: self.im / m,
        }
    }
}

impl Add for Cplx {
    type Output = Cplx;
    fn add(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cplx {
    fn add_assign(&mut self, rhs: Cplx) {
        *self = *self + rhs;
    }
}

impl Sub for Cplx {
    type Output = Cplx;
    fn sub(self, rhs: Cplx) -> Cplx {
        Cplx::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cplx {
    fn sub_assign(&mut self, rhs: Cplx) {
        *self = *self - rhs;
    }
}

impl Mul for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: Cplx) -> Cplx {
        Cplx::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cplx {
    fn mul_assign(&mut self, rhs: Cplx) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cplx {
    type Output = Cplx;
    fn mul(self, rhs: f64) -> Cplx {
        self.scale(rhs)
    }
}

impl Mul<Cplx> for f64 {
    type Output = Cplx;
    fn mul(self, rhs: Cplx) -> Cplx {
        rhs.scale(self)
    }
}

impl Div for Cplx {
    type Output = Cplx;
    // Division is multiplication by the reciprocal.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Cplx) -> Cplx {
        self * rhs.recip()
    }
}

impl DivAssign for Cplx {
    fn div_assign(&mut self, rhs: Cplx) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Cplx {
    type Output = Cplx;
    fn div(self, rhs: f64) -> Cplx {
        Cplx::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Cplx {
    type Output = Cplx;
    fn neg(self) -> Cplx {
        Cplx::new(-self.re, -self.im)
    }
}

impl Sum for Cplx {
    fn sum<I: Iterator<Item = Cplx>>(iter: I) -> Cplx {
        iter.fold(Cplx::ZERO, |a, b| a + b)
    }
}

impl Product for Cplx {
    fn product<I: Iterator<Item = Cplx>>(iter: I) -> Cplx {
        iter.fold(Cplx::ONE, |a, b| a * b)
    }
}

impl From<f64> for Cplx {
    fn from(re: f64) -> Self {
        Cplx::real(re)
    }
}

impl From<(f64, f64)> for Cplx {
    fn from((re, im): (f64, f64)) -> Self {
        Cplx::new(re, im)
    }
}

impl fmt::Display for Cplx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im == 0.0 {
            write!(f, "{}", self.re)
        } else if self.im < 0.0 {
            write!(f, "{}-{}i", self.re, -self.im)
        } else {
            write!(f, "{}+{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cplx, b: Cplx) -> bool {
        (a - b).mag() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Cplx::new(0.3, -0.7);
        assert!(close(z + Cplx::ZERO, z));
        assert!(close(z * Cplx::ONE, z));
        assert!(close(z - z, Cplx::ZERO));
        assert!(close(z * z.recip(), Cplx::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn multiplication_matches_definition() {
        let a = Cplx::new(1.0, 2.0);
        let b = Cplx::new(3.0, -4.0);
        // (1+2i)(3-4i) = 3 - 4i + 6i + 8 = 11 + 2i
        assert!(close(a * b, Cplx::new(11.0, 2.0)));
    }

    #[test]
    fn conjugate_properties() {
        let z = Cplx::new(0.6, 0.8);
        assert!(close(z.conj().conj(), z));
        assert!((z * z.conj()).im.abs() < 1e-15);
        assert!(((z * z.conj()).re - z.mag2()).abs() < 1e-15);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Cplx::new(-0.4, 0.9);
        let back = Cplx::from_polar(z.mag(), z.arg());
        assert!(close(back, z));
    }

    #[test]
    fn sqrt_squares_back() {
        let z = Cplx::new(-1.0, 0.0);
        let r = z.sqrt();
        assert!(close(r * r, z));
        assert!(close(Cplx::I, Cplx::new(-1.0, 0.0).sqrt()));
    }

    #[test]
    fn phase_is_unit() {
        let z = Cplx::new(3.0, -4.0);
        assert!((z.phase().mag() - 1.0).abs() < 1e-15);
        assert!(close(z.phase() * Cplx::real(z.mag()), z));
    }

    #[test]
    fn sum_and_product_folds() {
        let xs = [Cplx::ONE, Cplx::I, Cplx::new(1.0, 1.0)];
        let s: Cplx = xs.iter().copied().sum();
        assert!(close(s, Cplx::new(2.0, 2.0)));
        let p: Cplx = xs.iter().copied().product();
        // 1 * i * (1+i) = i + i^2 = -1 + i
        assert!(close(p, Cplx::new(-1.0, 1.0)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cplx::real(1.5).to_string(), "1.5");
        assert_eq!(Cplx::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Cplx::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn scalar_ops() {
        let z = Cplx::new(1.0, -2.0);
        assert!(close(z * 2.0, Cplx::new(2.0, -4.0)));
        assert!(close(2.0 * z, z * 2.0));
        assert!(close(z / 2.0, Cplx::new(0.5, -1.0)));
    }
}
