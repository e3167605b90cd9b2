//! In-arena node representations.

use crate::edge::{MEdge, VEdge};

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
    /// Multiplying this node by the identity hands back this very node
    /// under a weight whose bits are `1 + 0i` (the identity rule of
    /// [`crate::ops`]). A property of the stored bits, decided where the
    /// node is interned and never changed afterwards; it lives in the
    /// padding `var` leaves.
    pub(crate) stable: bool,
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
    /// [`VNode::stable`], and stored in the padding `var` leaves.
    pub(crate) identity: bool,
    /// Quadrant successor edges `[e00, e01, e10, e11]`.
    pub(crate) edges: [MEdge; 4],
}
