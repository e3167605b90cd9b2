//! Edge and node-id handle types.

use approxdd_complex::{Cplx, Tolerance};

/// Index of a node inside a [`crate::Package`] arena.
///
/// `NodeId::TERMINAL` is the shared terminal (the "1" sink); it is not
/// stored in any arena. Vector and matrix nodes live in separate arenas,
/// so a `NodeId` is only meaningful together with the edge type that
/// carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The terminal sink node.
    pub(crate) const TERMINAL: NodeId = NodeId(u32::MAX);

    /// Whether this id designates the terminal.
    #[must_use]
    pub(crate) fn is_terminal(self) -> bool {
        self == Self::TERMINAL
    }
}

/// An edge into a **vector** (quantum-state) decision diagram: a complex
/// weight and the pointed-to node.
///
/// The amplitude of a basis state is the product of edge weights along
/// its root-to-terminal path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VEdge {
    /// Multiplicative weight of this edge.
    pub w: Cplx,
    /// Target node.
    pub node: NodeId,
}

impl VEdge {
    /// The zero edge: weight 0 pointing at the terminal. All "structurally
    /// zero" sub-vectors are represented by exactly this edge.
    pub const ZERO: VEdge = VEdge {
        w: Cplx::ZERO,
        node: NodeId::TERMINAL,
    };

    /// A terminal edge with the given weight (a 0-qubit "state").
    #[must_use]
    pub(crate) fn terminal(w: Cplx) -> Self {
        Self {
            w,
            node: NodeId::TERMINAL,
        }
    }

    /// The terminal edge with weight one.
    pub(crate) const ONE: VEdge = VEdge {
        w: Cplx::ONE,
        node: NodeId::TERMINAL,
    };

    /// Whether this edge is (numerically) the zero edge.
    #[must_use]
    pub(crate) fn is_zero(&self, tol: Tolerance) -> bool {
        tol.is_zero(self.w)
    }

    /// Returns this edge with its weight multiplied by `f`.
    #[must_use]
    pub fn scaled(self, f: Cplx) -> Self {
        Self {
            w: self.w * f,
            node: self.node,
        }
    }
}

/// An edge into a **matrix** (quantum-operation) decision diagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MEdge {
    /// Multiplicative weight of this edge.
    pub w: Cplx,
    /// Target node.
    pub node: NodeId,
}

impl MEdge {
    /// The zero edge (all-zero sub-matrix).
    pub(crate) const ZERO: MEdge = MEdge {
        w: Cplx::ZERO,
        node: NodeId::TERMINAL,
    };

    /// The terminal edge with weight one (a 1×1 identity).
    pub(crate) const ONE: MEdge = MEdge {
        w: Cplx::ONE,
        node: NodeId::TERMINAL,
    };

    /// A terminal edge with the given weight (1×1 matrix).
    #[must_use]
    pub(crate) fn terminal(w: Cplx) -> Self {
        Self {
            w,
            node: NodeId::TERMINAL,
        }
    }

    /// Whether this edge is (numerically) the zero edge.
    #[must_use]
    pub(crate) fn is_zero(&self, tol: Tolerance) -> bool {
        tol.is_zero(self.w)
    }

    /// Returns this edge with its weight multiplied by `f`.
    #[must_use]
    pub(crate) fn scaled(self, f: Cplx) -> Self {
        Self {
            w: self.w * f,
            node: self.node,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_identification() {
        assert!(NodeId::TERMINAL.is_terminal());
        assert!(!NodeId(0).is_terminal());
    }

    #[test]
    fn zero_edges_point_at_terminal() {
        let tol = Tolerance::default();
        assert!(VEdge::ZERO.is_zero(tol));
        assert!(VEdge::ZERO.node.is_terminal());
        assert!(MEdge::ZERO.is_zero(tol));
        assert!(!VEdge::ONE.is_zero(tol));
    }

    #[test]
    fn scaling_multiplies_weight() {
        let e = VEdge::terminal(Cplx::new(0.5, 0.0));
        let s = e.scaled(Cplx::new(0.0, 2.0));
        assert_eq!(s.w, Cplx::new(0.0, 1.0));
        assert_eq!(s.node, e.node);
    }
}
