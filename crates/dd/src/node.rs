//! In-arena node representations.

use approxdd_complex::Cplx;

use crate::edge::{MEdge, VEdge};

/// What multiplying a vector node by the identity is known in advance to
/// return (the identity rule of [`crate::ops`]): this very node under
/// the real weight `f + 0i`, stored as the signed distance of `f` from
/// `1.0` in units in the last place — or nothing known, in which case
/// `mul_mv` recurses. `f` is `1.0` for most pairs and a few ulps off for
/// the rest; one byte reaches ±127. A truncation round reads it too: a
/// node nothing below was removed from rebuilds into `(f, itself)`
/// (see [`crate::approx`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Image(i8);

impl Image {
    /// No image: the recursion decides.
    pub(crate) const NONE: Image = Image(i8::MIN);
    /// The factor `1 + 0i` itself.
    #[cfg(test)]
    pub(crate) const ONE: Image = Image(0);

    /// The image with factor `f`, if it has an encoding: an imaginary
    /// part with the bits of `+0.0` and a real part within ±127 ulps of
    /// `1.0`. Everything else — NaN, ±∞, a negative zero, `1 + 128 ulp`
    /// — is [`Image::NONE`].
    #[inline]
    pub(crate) fn encode(f: Cplx) -> Image {
        // Consecutive floats of one sign have consecutive bit patterns,
        // so the ulp distance is the difference of the patterns.
        let ulps = f.re.to_bits().wrapping_sub(1.0_f64.to_bits()).cast_signed();
        match i8::try_from(ulps) {
            Ok(ulps) if ulps != i8::MIN && f.im.to_bits() == 0 => Image(ulps),
            _ => Image::NONE,
        }
    }

    /// The factor this image stands for, bit for bit the one
    /// [`Image::encode`] was given.
    #[inline]
    pub(crate) fn factor(self) -> Option<Cplx> {
        (self != Image::NONE).then(|| {
            let bits = 1.0_f64.to_bits().wrapping_add_signed(i64::from(self.0));
            Cplx::real(f64::from_bits(bits))
        })
    }

    /// Signed ulp distance of the factor from `1.0`.
    #[cfg(test)]
    pub(crate) fn ulps(self) -> Option<i8> {
        (self != Image::NONE).then_some(self.0)
    }
}

/// A vector-DD node: a qubit level and two successor edges.
///
/// `edges[0]` is the sub-vector where this node's qubit is `|0⟩`,
/// `edges[1]` where it is `|1⟩`. Normalization guarantees
/// `|w0|² + |w1|² = 1` with canonical phase, so the function represented
/// by a node (top weight 1) always has unit ℓ2 norm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct VNode {
    /// Qubit level; 0 is the least-significant qubit, directly above the
    /// terminal.
    pub(crate) var: u8,
    /// The node's image under the identity. A property of the stored
    /// bits, decided where the node is interned and never changed
    /// afterwards; it lives in the padding `var` leaves.
    pub(crate) image: Image,
    /// Successor edges for qubit value 0 and 1.
    pub(crate) edges: [VEdge; 2],
}

/// A matrix-DD node: a qubit level and four successor edges in row-major
/// quadrant order `[M00, M01, M10, M11]` (row = output bit, column =
/// input bit of this node's qubit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MNode {
    /// Qubit level; 0 is the least-significant qubit.
    pub(crate) var: u8,
    /// The node is an identity matrix: quadrants `[e, 0, 0, e]` where
    /// `e` has weight bits `1 + 0i` and is the terminal or an identity
    /// node itself. Decided where the node is interned, like
    /// [`VNode::image`], and stored in the padding `var` leaves.
    pub(crate) identity: bool,
    /// Quadrant successor edges `[e00, e01, e10, e11]`.
    pub(crate) edges: [MEdge; 4],
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE_BITS: u64 = 1.0_f64.to_bits();

    #[test]
    fn image_round_trips_every_encodable_factor_and_refuses_the_next() {
        for ulps in -127..=127_i64 {
            let f = Cplx::real(f64::from_bits(ONE_BITS.wrapping_add_signed(ulps)));
            let image = Image::encode(f);
            assert_eq!(image.ulps().map(i64::from), Some(ulps));
            let back = image.factor().unwrap();
            assert_eq!(back.re.to_bits(), f.re.to_bits(), "{ulps} ulps");
            assert_eq!(back.im.to_bits(), 0);
        }
        assert_eq!(Image::encode(Cplx::ONE), Image::ONE);
        assert_eq!(Image::ONE.factor(), Some(Cplx::ONE));
        for ulps in [-129, -128, 128, 129] {
            let f = Cplx::real(f64::from_bits(ONE_BITS.wrapping_add_signed(ulps)));
            assert_eq!(Image::encode(f), Image::NONE, "{ulps} ulps");
        }
        assert_eq!(Image::NONE.factor(), None);
    }

    #[test]
    fn factors_without_an_encoding_are_refused() {
        let refused = [
            Cplx::new(f64::NAN, 0.0),
            Cplx::new(1.0, f64::NAN),
            Cplx::new(f64::INFINITY, 0.0),
            Cplx::new(f64::NEG_INFINITY, 0.0),
            Cplx::new(1.0, f64::INFINITY),
            Cplx::new(1.0, -0.0),
            Cplx::new(1.0, f64::MIN_POSITIVE),
            Cplx::new(-1.0, 0.0),
            Cplx::new(-0.0, 0.0),
            Cplx::ZERO,
            Cplx::I,
        ];
        for f in refused {
            assert_eq!(Image::encode(f), Image::NONE, "{f:?}");
        }
    }
}
