//! # ged-graph — property-graph substrate
//!
//! The data model of *Dependencies for Graphs* (Fan & Lu, PODS 2017),
//! Section 2: finite directed graphs with labelled nodes and edges, where
//! each node carries a schemaless attribute tuple and a special `id`
//! attribute denoting node identity.
//!
//! This crate provides:
//! * [`Value`] — the constant universe `U` (totally ordered for GDCs),
//!   short strings held in place ([`Text`]);
//! * [`Symbol`] — interned labels `Γ` / attribute names `Υ`, with the
//!   wildcard `_` and the asymmetric label-matching relation `ι ⪯ ι′`;
//! * [`Graph`] / [`NodeId`] / [`Edge`] — the graph `(V, E, L, F_A)` with the
//!   adjacency and label indexes the matcher and chase need, plus the
//!   quotient construction that powers chase *coercion*; nodes and edges
//!   can be removed again (tombstoned ids), so graphs can *evolve*;
//! * [`Delta`] / [`DeltaSet`] — elementary updates and batches of them,
//!   applied via [`Graph::apply_delta`] or, a warmed window at a time,
//!   [`Graph::apply_batch`], feeding the incremental validation engine in
//!   `ged-engine`;
//! * [`GraphBuilder`] — name-based construction for fixtures;
//! * [`json`] — the workspace's one JSON value type, parser and writer
//!   (std-only; lives here because this crate is beneath every crate
//!   that serialises: engine metrics, analysis reports, the wire).
//!
//! Everything higher-level (patterns, dependencies, the chase) lives in
//! `ged-pattern` / `ged-core`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod delta;
pub mod graph;
pub mod json;
pub mod symbol;
pub mod value;

pub use builder::GraphBuilder;
pub use delta::{Delta, DeltaEffect, DeltaSet};
pub use graph::{Edge, Graph, NodeId};
pub use symbol::Symbol;
pub use value::{Text, Value};

/// Convenience: intern a label/attribute name.
pub fn sym(name: &str) -> Symbol {
    Symbol::new(name)
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Strategy: a small random graph over a fixed label alphabet.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        let labels = ["a", "b", "c"];
        let elabels = ["e", "f"];
        (1usize..12).prop_flat_map(move |n| {
            let node_labels = proptest::collection::vec(0usize..labels.len(), n);
            let edges = proptest::collection::vec((0..n, 0usize..elabels.len(), 0..n), 0..(n * 2));
            (node_labels, edges).prop_map(move |(nl, es)| {
                let mut g = Graph::new();
                for &li in &nl {
                    g.add_node(sym(labels[li]));
                }
                for (s, li, d) in es {
                    g.add_edge(NodeId(s as u32), sym(elabels[li]), NodeId(d as u32));
                }
                g
            })
        })
    }

    proptest! {
        #[test]
        fn quotient_identity_partition_is_isomorphic(g in arb_graph()) {
            let n = g.node_count();
            let class: Vec<u32> = (0..n as u32).collect();
            let labels: Vec<Symbol> = g.nodes().map(|v| g.label(v)).collect();
            let attrs: Vec<BTreeMap<Symbol, Value>> =
                g.nodes().map(|v| g.attrs(v).iter().cloned().collect()).collect();
            let q = g.quotient(&class, n, &labels, attrs);
            prop_assert_eq!(q.node_count(), g.node_count());
            prop_assert_eq!(q.edge_count(), g.edge_count());
            for v in g.nodes() {
                prop_assert_eq!(q.label(v), g.label(v));
            }
        }

        #[test]
        fn quotient_to_single_class_keeps_edge_labels(g in arb_graph()) {
            let n = g.node_count();
            if n == 0 { return Ok(()); }
            let class = vec![0u32; n];
            let q = g.quotient(&class, 1, &[sym("a")], vec![BTreeMap::new()]);
            prop_assert_eq!(q.node_count(), 1);
            // every distinct edge label survives as a self loop
            let labels_before: std::collections::HashSet<_> =
                g.edges().map(|e| e.label).collect();
            let labels_after: std::collections::HashSet<_> =
                q.edges().map(|e| e.label).collect();
            prop_assert_eq!(labels_before, labels_after);
        }
    }
}
