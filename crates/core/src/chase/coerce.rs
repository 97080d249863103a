//! Coercion `G_Eq` (Section 4.1): enforcing a consistent equivalence
//! relation on a graph by merging nodes, rewiring edges, resolving labels
//! and unioning attributes.
//!
//! For each node class `[x]`:
//! * the coerced node's **label** is `_` only if every member is
//!   wildcard-labelled, otherwise the unique non-wildcard member label
//!   (uniqueness is exactly consistency);
//! * its **attributes** are the union of the members' attributes. Slots
//!   bound to a constant become concrete attribute values; unbound slots
//!   (generated attributes whose value is a labelled null) are *not*
//!   materialised in `G_Eq` — literal satisfaction during the chase reads
//!   them through the [`EqRel`] instead, which is equivalent to giving each
//!   class a distinct null.

use crate::chase::eq::EqRel;
use ged_graph::{Graph, NodeId};
use std::collections::{BTreeMap, HashMap};

/// The result of coercing an [`EqRel`] onto a graph.
#[derive(Debug, Clone)]
pub struct Coercion {
    /// The coerced graph `G_Eq`.
    pub graph: Graph,
    /// Map original node → coerced node index.
    pub class_of: Vec<u32>,
    /// Map coerced node → a representative original node (first member in
    /// node order). Literal evaluation during the chase goes through the
    /// representative (slots are per-class, so any member works).
    pub repr: Vec<NodeId>,
}

impl Coercion {
    /// The coerced node corresponding to an original node.
    pub fn coerced(&self, original: NodeId) -> NodeId {
        NodeId(self.class_of[original.idx()])
    }

    /// Map a match over the coerced graph back to representative original
    /// nodes.
    pub fn to_original(&self, coerced_match: &[NodeId]) -> Vec<NodeId> {
        coerced_match.iter().map(|n| self.repr[n.idx()]).collect()
    }
}

/// Compute the coercion `G_Eq` of `eq` on `g`. `eq` must be consistent —
/// the coercion of an inconsistent relation is undefined (Section 4.1).
pub fn coerce(g: &Graph, eq: &EqRel) -> Coercion {
    assert!(
        eq.is_consistent(),
        "coercion of an inconsistent Eq is undefined"
    );
    let n = g.node_count();
    let mut root_to_class: HashMap<u32, u32> = HashMap::new();
    let mut class_of = vec![0u32; n];
    let mut repr: Vec<NodeId> = Vec::new();
    for v in g.nodes() {
        let root = eq.find_node(v);
        let class = *root_to_class.entry(root).or_insert_with(|| {
            repr.push(v);
            (repr.len() - 1) as u32
        });
        class_of[v.idx()] = class;
    }
    let n_classes = repr.len();
    let labels: Vec<_> = repr.iter().map(|&r| eq.class_label_of(r)).collect();
    let attrs: Vec<BTreeMap<_, _>> = repr
        .iter()
        .map(|&r| {
            // All slots of the class, keeping only constant-bound ones.
            let mut m = BTreeMap::new();
            // Union of member attributes = the class's slot map; iterate
            // via any member's known attributes in the original graph plus
            // generated slots. EqRel exposes them through attr_value.
            for member in eq.members(r) {
                for &(a, _) in g.attrs(*member) {
                    if let Some(v) = eq.attr_value(r, a) {
                        m.insert(a, v.clone());
                    }
                }
            }
            // Generated slots (not backed by any original attribute):
            for (a, v) in eq_generated_consts(eq, r, g) {
                m.entry(a).or_insert(v);
            }
            m
        })
        .collect();
    let graph = g.quotient(&class_of, n_classes, &labels, attrs);
    Coercion {
        graph,
        class_of,
        repr,
    }
}

/// Constant-bound slots of class `r` that no original attribute backs
/// (purely generated attributes).
fn eq_generated_consts(
    eq: &EqRel,
    r: NodeId,
    g: &Graph,
) -> Vec<(ged_graph::Symbol, ged_graph::Value)> {
    let mut out = Vec::new();
    for (attr, value) in eq.slots_of(r) {
        if let Some(v) = value {
            let backed = eq.members(r).iter().any(|m| g.attr(*m, attr).is_some());
            if !backed {
                out.push((attr, v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{sym, GraphBuilder, Value};

    #[test]
    fn coercion_of_identity_eq_is_the_graph() {
        let mut b = GraphBuilder::new();
        b.triple(("a", "t"), "e", ("b", "u"));
        b.attr("a", "A", 1);
        let g = b.build();
        let eq = EqRel::initial(&g);
        let co = coerce(&g, &eq);
        assert_eq!(co.graph.node_count(), 2);
        assert_eq!(co.graph.edge_count(), 1);
        assert_eq!(co.graph.attr(NodeId(0), sym("A")), Some(&Value::from(1)));
        assert_eq!(co.coerced(NodeId(1)), NodeId(1));
    }

    #[test]
    fn merged_nodes_union_attributes_and_edges() {
        let mut b = GraphBuilder::new();
        b.node("v1", "a");
        b.node("v2", "a");
        b.node("w", "b");
        b.attr("v1", "A", 1);
        b.attr("v2", "B", 2);
        b.edge("v1", "e", "w");
        b.edge("w", "f", "v2");
        let (g, names) = b.build_with_names();
        let (v1, v2, w) = (names["v1"], names["v2"], names["w"]);
        let mut eq = EqRel::initial(&g);
        eq.apply_id(v1, v2);
        let co = coerce(&g, &eq);
        assert_eq!(co.graph.node_count(), 2);
        let m = co.coerced(v1);
        assert_eq!(co.coerced(v2), m);
        let cw = co.coerced(w);
        assert_eq!(co.graph.attr(m, sym("A")), Some(&Value::from(1)));
        assert_eq!(co.graph.attr(m, sym("B")), Some(&Value::from(2)));
        assert!(co.graph.has_edge(m, sym("e"), cw));
        assert!(co.graph.has_edge(cw, sym("f"), m));
    }

    #[test]
    fn wildcard_label_resolution() {
        let mut b = GraphBuilder::new();
        let x = b.node("x", "_");
        let y = b.node("y", "person");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_id(x, y);
        let co = coerce(&g, &eq);
        assert_eq!(co.graph.node_count(), 1);
        assert_eq!(co.graph.label(NodeId(0)), sym("person"));
    }

    #[test]
    fn generated_constant_attribute_materialises() {
        let mut b = GraphBuilder::new();
        let x = b.node("x", "t");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_const(x, sym("fresh"), &Value::from("new"));
        let co = coerce(&g, &eq);
        assert_eq!(
            co.graph.attr(NodeId(0), sym("fresh")),
            Some(&Value::from("new")),
            "attribute generation (chase-step cases (1)-(2)) shows up in G_Eq"
        );
    }

    #[test]
    fn null_slots_are_not_materialised() {
        let mut b = GraphBuilder::new();
        let x = b.node("x", "t");
        let y = b.node("y", "t");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_attr_eq(x, sym("A"), y, sym("B"));
        let co = coerce(&g, &eq);
        assert_eq!(co.graph.attr(NodeId(0), sym("A")), None, "labelled null");
        assert!(
            eq.attr_eq(x, sym("A"), y, sym("B")),
            "but Eq knows them equal"
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn coercion_of_inconsistent_eq_panics() {
        let mut b = GraphBuilder::new();
        let x = b.node("x", "a");
        let y = b.node("y", "b");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_id(x, y);
        coerce(&g, &eq);
    }

    #[test]
    fn to_original_maps_back_through_representatives() {
        let mut b = GraphBuilder::new();
        let v1 = b.node("v1", "a");
        let v2 = b.node("v2", "a");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_id(v1, v2);
        let co = coerce(&g, &eq);
        let orig = co.to_original(&[NodeId(0)]);
        assert_eq!(orig, vec![v1], "representative is the first member");
    }
}
