//! Graphviz DOT export for states — the visualization used in Fig. 1 of
//! the paper.

use std::fmt::Write as _;

use crate::edge::{NodeId, VEdge};
use crate::fasthash::FxHashMap;
use crate::package::Package;

impl Package {
    /// Renders a state DD as a Graphviz `digraph`. Edge labels carry the
    /// weights (suppressed when exactly 1); nodes are labeled `q<var>`.
    #[must_use]
    pub fn to_dot(&self, root: VEdge) -> String {
        let mut out = String::from("digraph dd {\n  rankdir=TB;\n  root [shape=point];\n");
        let mut ids: FxHashMap<NodeId, usize> = FxHashMap::default();
        let mut order: Vec<NodeId> = Vec::new();
        let mut stack = vec![root.node];
        while let Some(id) = stack.pop() {
            if id.is_terminal() || ids.contains_key(&id) {
                continue;
            }
            ids.insert(id, order.len());
            order.push(id);
            stack.extend(self.vnode(id).ids());
        }
        out.push_str("  t [label=\"1\", shape=box];\n");
        for (id, i) in order.iter().map(|id| (*id, ids[id])) {
            let var = self.vside(id).var();
            let _ = writeln!(out, "  n{i} [label=\"q{var}\", shape=circle];");
        }
        let _ = writeln!(
            out,
            "  root -> {} [label=\"{}\"];",
            Self::dot_target(&ids, root.node),
            fmt_weight(root.w)
        );
        for (id, i) in order.iter().map(|id| (*id, ids[id])) {
            let node = self.vnode(id);
            for (b, e) in node.edges().iter().enumerate() {
                if e.is_zero(self.tolerance()) {
                    continue;
                }
                let style = if b == 0 { "dashed" } else { "solid" };
                let _ = writeln!(
                    out,
                    "  n{i} -> {} [label=\"{}\", style={style}];",
                    Self::dot_target(&ids, e.node),
                    fmt_weight(e.w)
                );
            }
        }
        out.push_str("}\n");
        out
    }

    fn dot_target(ids: &FxHashMap<NodeId, usize>, id: NodeId) -> String {
        if id.is_terminal() {
            "t".to_string()
        } else {
            format!("n{}", ids[&id])
        }
    }
}

fn fmt_weight(w: approxdd_complex::Cplx) -> String {
    if (w - approxdd_complex::Cplx::ONE).mag() < 1e-12 {
        String::new()
    } else {
        format!("{:.4}", w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_complex::Cplx;

    #[test]
    fn dot_contains_all_levels() {
        let mut p = Package::new();
        let v = p.basis_state(3, 5);
        let dot = p.to_dot(v);
        assert!(dot.starts_with("digraph dd {"));
        for q in ["q0", "q1", "q2"] {
            assert!(dot.contains(q), "missing {q} in:\n{dot}");
        }
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn weights_appear_on_edges() {
        let mut p = Package::new();
        let s = Cplx::FRAC_1_SQRT_2;
        let v = p.from_amplitudes(&[s, Cplx::ZERO, Cplx::ZERO, s]).unwrap();
        let dot = p.to_dot(v);
        assert!(dot.contains("0.7071"), "root weight rendered:\n{dot}");
    }
}
