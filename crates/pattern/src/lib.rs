//! # ged-pattern — graph patterns and matchers
//!
//! Patterns `Q[x̄]` of *Dependencies for Graphs* (Fan & Lu, PODS 2017),
//! Section 2, together with the two pattern-matching semantics the paper
//! contrasts:
//!
//! * [`matcher`] — **homomorphism** (the GED semantics) and **subgraph
//!   isomorphism** (the semantics of the earlier GFD/keys papers, kept as a
//!   baseline for the Section 3 comparison), both on one backtracking
//!   engine;
//! * [`plan`] — the graph-independent half of a search, compiled once per
//!   pattern: an order rooted at every variable and the candidate
//!   pre-filters, attribute obligations of a rule's premises included;
//! * [`pattern`] — the pattern type, copies-via-bijection (GKeys), disjoint
//!   unions, and the canonical graph `G_Q`;
//! * [`dsl`] — a textual notation so fixtures read like the paper;
//! * [`fragments`] — the exact patterns/graphs of Figures 1–4.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod dsl;
pub mod fragments;
pub mod matcher;
pub mod pattern;
pub mod plan;

pub use dsl::parse_pattern;
pub use matcher::{
    count, exists, find_all, find_first, is_match, Match, MatchOptions, MatchScratch, Matcher,
    Semantics,
};
pub use pattern::{Pattern, PatternEdge, Var};
pub use plan::MatchPlan;

// Re-export the matcher's observability hook so downstream crates can
// name the recorder bound without depending on `ged-obs` directly.
pub use ged_obs::{CellRecorder, MatchRecorder, NoopRecorder};

#[cfg(test)]
mod proptests {
    use super::*;
    use ged_graph::{sym, Graph, NodeId};
    use proptest::prelude::*;

    const NODE_LABELS: [&str; 3] = ["a", "b", "_"];
    const EDGE_LABELS: [&str; 3] = ["e", "f", "_"];
    const DATA_LABELS: [&str; 2] = ["a", "b"];
    const DATA_ELABELS: [&str; 2] = ["e", "f"];

    fn arb_graph() -> impl Strategy<Value = Graph> {
        (1usize..6).prop_flat_map(|n| {
            let nls = proptest::collection::vec(0usize..DATA_LABELS.len(), n);
            let es = proptest::collection::vec((0..n, 0usize..DATA_ELABELS.len(), 0..n), 0..n * 2);
            (nls, es).prop_map(|(nls, es)| {
                let mut g = Graph::new();
                for &l in &nls {
                    g.add_node(sym(DATA_LABELS[l]));
                }
                for (s, l, d) in es {
                    g.add_edge(NodeId(s as u32), sym(DATA_ELABELS[l]), NodeId(d as u32));
                }
                g
            })
        })
    }

    fn arb_pattern() -> impl Strategy<Value = Pattern> {
        (1usize..4).prop_flat_map(|n| {
            let nls = proptest::collection::vec(0usize..NODE_LABELS.len(), n);
            let es = proptest::collection::vec((0..n, 0usize..EDGE_LABELS.len(), 0..n), 0..n);
            (nls, es).prop_map(|(nls, es)| {
                let mut q = Pattern::new();
                for (i, &l) in nls.iter().enumerate() {
                    q.var(&format!("v{i}"), NODE_LABELS[l]);
                }
                for (s, l, d) in es {
                    q.edge(Var(s as u32), EDGE_LABELS[l], Var(d as u32));
                }
                q
            })
        })
    }

    proptest! {
        /// The backtracking engine agrees with brute-force enumeration on
        /// both semantics — the key correctness property of the matcher.
        #[test]
        fn engine_agrees_with_brute_force(g in arb_graph(), q in arb_pattern()) {
            for sem in [Semantics::Homomorphism, Semantics::Isomorphism] {
                let opts = MatchOptions { semantics: sem };
                let fast: std::collections::HashSet<Match> =
                    matcher::find_all(&q, &g, opts).into_iter().collect();
                let brute: std::collections::HashSet<Match> =
                    matcher::find_all_brute(&q, &g, opts).into_iter().collect();
                prop_assert_eq!(fast, brute);
            }
        }

        /// Every isomorphism match is also a homomorphism match.
        #[test]
        fn iso_matches_subset_of_homo(g in arb_graph(), q in arb_pattern()) {
            let homo: std::collections::HashSet<Match> =
                matcher::find_all(&q, &g, MatchOptions::homomorphism()).into_iter().collect();
            let iso: std::collections::HashSet<Match> =
                matcher::find_all(&q, &g, MatchOptions::isomorphism()).into_iter().collect();
            prop_assert!(iso.is_subset(&homo));
        }

        /// A pattern always matches its own canonical graph (identity map),
        /// under homomorphism.
        #[test]
        fn pattern_matches_canonical_graph(q in arb_pattern()) {
            let g = q.canonical_graph();
            let ident: Vec<NodeId> = q.vars().map(|v| NodeId(v.0)).collect();
            prop_assert!(matcher::is_match(&q, &g, &ident, Semantics::Homomorphism));
        }

        /// Copies via bijection preserve labels and shape.
        #[test]
        fn copies_are_isomorphic(q in arb_pattern()) {
            let (c, f) = q.copy_via(|n| format!("{n}_r"));
            prop_assert_eq!(q.var_count(), c.var_count());
            prop_assert_eq!(q.edge_count(), c.edge_count());
            for v in q.vars() {
                prop_assert_eq!(q.label(v), c.label(f[v.idx()]));
            }
        }
    }
}
