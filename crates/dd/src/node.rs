//! In-arena node representations.

use approxdd_complex::Cplx;

use crate::edge::{MEdge, NodeId, VEdge};

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

/// The per-slot side word of a vector node: its qubit level in the low
/// byte and its [`Image`] in the high byte. It lives beside the payload
/// in the arena (see [`crate::arena::Arena::side`]), written once where
/// the node is interned and never changed afterwards; readers that need
/// a level or an image take these two bytes and no weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VSide(u16);

impl VSide {
    /// The side word of a node on level `var` with image `image`.
    #[inline(always)]
    pub(crate) fn new(var: u8, image: Image) -> Self {
        Self(u16::from(var) | u16::from(image.0.cast_unsigned()) << 8)
    }

    /// Qubit level; 0 is the least-significant qubit, directly above the
    /// terminal.
    #[inline(always)]
    pub(crate) fn var(self) -> u8 {
        self.0.to_le_bytes()[0]
    }

    /// The node's image under the identity: a property of the stored
    /// bits, decided where the node is interned.
    #[inline(always)]
    pub(crate) fn image(self) -> Image {
        Image(self.0.to_le_bytes()[1].cast_signed())
    }
}

/// A vector-DD node's payload: two successor edges (its level and image
/// are its [`VSide`] word).
///
/// Edge 0 leads to the sub-vector where this node's qubit is `|0⟩`,
/// edge 1 to where it is `|1⟩`. Normalization guarantees
/// `|w0|² + |w1|² = 1` with canonical phase, so the function represented
/// by a node (top weight 1) always has unit ℓ2 norm.
///
/// # Layout: 32 bytes, 32-aligned
///
/// Normalization makes edge 0's weight real — `Cplx::real(..)` for a
/// non-zero pivot, [`Cplx::ZERO`] otherwise — so its imaginary part is
/// always the bits of `+0.0` and is not stored: `w0` is the real part
/// alone. [`VNode::new`] is the one constructor and refuses any other
/// imaginary part, so the readers' [`VNode::edges`] hands back every
/// bit it was given. With the level and the image in the arena's side
/// word, the weights and ids fill exactly 32 bytes; the alignment puts
/// two payloads in a 64-byte line and none across two. An arena slot
/// costs 38 bytes: payload, reference count and side word.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(32))]
pub(crate) struct VNode {
    /// Real part of edge 0's weight (its imaginary part is `+0.0`).
    w0: f64,
    /// Edge 1's weight.
    w1: Cplx,
    /// Successor ids for qubit value 0 and 1.
    ids: [NodeId; 2],
}

impl VNode {
    /// The payload of the node with normalized `edges`.
    ///
    /// # Panics
    ///
    /// If edge 0's weight has an imaginary part other than `+0.0`: the
    /// layout cannot store it, and dropping it would change a result.
    #[inline(always)]
    pub(crate) fn new(edges: [VEdge; 2]) -> Self {
        assert!(
            edges[0].w.im.to_bits() == 0,
            "edge 0 of a vector node must carry a real weight, not {:?}",
            edges[0].w
        );
        Self {
            w0: edges[0].w.re,
            w1: edges[1].w,
            ids: [edges[0].node, edges[1].node],
        }
    }

    /// Successor edges for qubit value 0 and 1, bit for bit the ones
    /// [`VNode::new`] was given. Inlined by decree, like `Arena::get`.
    #[inline(always)]
    pub(crate) fn edges(&self) -> [VEdge; 2] {
        [
            VEdge {
                w: Cplx::real(self.w0),
                node: self.ids[0],
            },
            VEdge {
                w: self.w1,
                node: self.ids[1],
            },
        ]
    }

    /// Successor ids for qubit value 0 and 1, for readers that never
    /// look at a weight (marking, reachability, rendering).
    #[inline(always)]
    pub(crate) fn ids(&self) -> [NodeId; 2] {
        self.ids
    }
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
    /// [`VSide::image`], and stored in the padding `var` leaves.
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
    fn a_vector_payload_is_32_bytes_and_32_aligned() {
        assert_eq!(std::mem::size_of::<VNode>(), 32);
        assert_eq!(std::mem::align_of::<VNode>(), 32);
        assert_eq!(std::mem::size_of::<VSide>(), 2);
    }

    #[test]
    fn the_side_word_round_trips_every_level_and_image() {
        let encodable = (-127..=127_i8).map(|ulps| {
            let f = Cplx::real(f64::from_bits(
                ONE_BITS.wrapping_add_signed(i64::from(ulps)),
            ));
            Image::encode(f)
        });
        let images: Vec<Image> = encodable.chain([Image::NONE]).collect();
        assert_eq!(images.len(), 256);
        for var in 0..=62_u8 {
            for &image in &images {
                let side = VSide::new(var, image);
                assert_eq!((side.var(), side.image()), (var, image), "{var} {image:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must carry a real weight")]
    fn a_node_refuses_an_imaginary_part_on_edge_zero() {
        let e0 = VEdge::terminal(Cplx::new(0.6, -0.0));
        let _ = VNode::new([e0, VEdge::terminal(Cplx::real(0.8))]);
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
