//! # ged-ext — extensions of GEDs (Section 7)
//!
//! The two extensions of *Dependencies for Graphs* (Fan & Lu, PODS 2017)
//! that trade complexity for expressive power:
//!
//! * [`gdc`] — **graph denial constraints** (GDCs): literals with built-in
//!   predicates `=, ≠, <, >, ≤, ≥`; express relational denial constraints
//!   and range/domain constraints (Example 9);
//! * [`disj`] — **GED∨**: disjunctive conclusions; express disjunctive
//!   EGDs and finite-domain constraints (Example 10);
//! * [`reason`] — satisfiability and implication for both, via the
//!   bounded-model search matching the paper's small-model properties
//!   (Theorems 8 & 9: Σᵖ₂-complete / Πᵖ₂-complete — the procedures here
//!   are correspondingly exponential); validation stays coNP, same engine
//!   shape as GEDs;
//! * [`domain`] — the Example 9/10 domain-constraint helpers;
//! * [`sigma`] — `From<Gdc>` and `From<DisjGed>` for `ged_core::rule::Rule`,
//!   the one rule type every GED, GDC and GED∨ compiles into at load.
//!
//! The literal language — [`GdcLiteral`], [`Pred`] and the dense-order
//! solver under the search — lives in `ged-core` beside `Rule`, and every
//! family is served in that one form: enumeration and validation are
//! `ged_core::satisfy::{violations, satisfies, satisfies_all}` and
//! `ged_core::reason::validate`, and one `Vec<Rule>` — and one engine
//! instance — serves a heterogeneous Σ mixing all of them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod disj;
pub mod domain;
pub mod gdc;
pub mod reason;
pub mod sigma;

pub use disj::DisjGed;
pub use gdc::Gdc;
pub use ged_core::rule::{GdcLiteral, Pred};
pub use reason::{disj_implies, disj_satisfiable, gdc_implies, gdc_satisfiable};

/// The one rule type under its earlier name, kept for the standalone
/// benchmark; everything in this workspace names `ged_core::rule::Rule`.
pub use ged_core::rule::Rule as SigmaConstraint;

#[cfg(test)]
mod mixed_sigma {
    use super::*;
    use ged_core::constraint::ViolationKind;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_core::rule::Rule;
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

    /// One `Vec<Rule>` holds all three families, and the generic
    /// enumerator gives each witness the one kind shape: the positions of
    /// the failed conclusion literals — the GED's one conclusion, both
    /// literals of the GDC's forbidding pair, every disjunct of the GED∨,
    /// and nothing for a GED∨ whose `Y` is `false`.
    #[test]
    fn one_sigma_mixes_all_three_families() {
        let q = || parse_pattern("τ(x)").unwrap();
        let ged = Ged::new(
            "flagged⇒reviewed",
            q(),
            vec![Literal::constant(Var(0), sym("flagged"), 1)],
            vec![Literal::constant(Var(0), sym("reviewed"), 1)],
        );
        let sigma: Vec<Rule> = vec![
            ged.into(),
            Gdc::forbidding(
                "score≤10",
                q(),
                vec![GdcLiteral::constant(Var(0), sym("score"), Pred::Gt, 10)],
            )
            .into(),
            DisjGed::new(
                "state∈{on,off}",
                q(),
                vec![],
                vec![
                    Literal::constant(Var(0), sym("state"), "on"),
                    Literal::constant(Var(0), sym("state"), "off"),
                ],
            )
            .into(),
            DisjGed::new("never-τ", q(), vec![], vec![]).into(),
        ];
        assert_eq!(
            sigma.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            ["flagged⇒reviewed", "score≤10", "state∈{on,off}", "never-τ"]
        );

        // One node violating every family at once.
        let mut b = GraphBuilder::new();
        b.node("n", "τ");
        b.attr("n", "flagged", 1);
        b.attr("n", "score", 99);
        b.attr("n", "state", "limbo");
        let (g, names) = b.build_with_names();
        let report = ged_core::reason::validate(&g, &sigma, None);
        let kinds: Vec<&[usize]> = report
            .violations
            .iter()
            .map(|v| v.kind.positions())
            .collect();
        assert_eq!(kinds, [&[0][..], &[0, 1], &[0, 1], &[]]);
        let m = [names["n"]];
        assert_eq!(sigma[3].check(&g, &m), Some(ViolationKind::default()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_core::rule::Rule;
    use ged_core::satisfy::{satisfies, satisfies_all};
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};
    use proptest::prelude::*;

    /// Random small graphs of τ-nodes with optional A/B attributes.
    fn arb_graph() -> impl Strategy<Value = ged_graph::Graph> {
        proptest::collection::vec(
            (
                proptest::option::of(-2i64..4),
                proptest::option::of(-2i64..4),
            ),
            1..5,
        )
        .prop_map(|nodes| {
            let mut b = GraphBuilder::new();
            for (i, (a, bb)) in nodes.iter().enumerate() {
                let name = format!("n{i}");
                b.node(&name, "τ");
                if let Some(v) = a {
                    b.attr(&name, "A", *v);
                }
                if let Some(v) = bb {
                    b.attr(&name, "B", *v);
                }
            }
            b.build()
        })
    }

    proptest! {
        /// Lifting a GED to a GDC preserves validation outcomes.
        #[test]
        fn ged_to_gdc_validation_agrees(g in arb_graph(), thr in -2i64..4) {
            let q = parse_pattern("τ(x)").unwrap();
            let ged = Ged::new(
                "g",
                q,
                vec![Literal::constant(Var(0), sym("A"), thr)],
                vec![Literal::constant(Var(0), sym("B"), 1)],
            );
            let gdc = Rule::from(Gdc::from_ged(&ged));
            prop_assert_eq!(
                satisfies(&g, &Rule::from(ged)),
                satisfies(&g, &gdc)
            );
        }

        /// Splitting a GED into single-literal GED∨s preserves validation.
        #[test]
        fn ged_to_disj_validation_agrees(g in arb_graph()) {
            let q = parse_pattern("τ(x); τ(y)").unwrap();
            let ged = Ged::new(
                "g",
                q,
                vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
                vec![
                    Literal::vars(Var(0), sym("B"), Var(1), sym("B")),
                ],
            );
            let split: Vec<Rule> =
                DisjGed::from_ged(&ged).into_iter().map(Into::into).collect();
            prop_assert_eq!(
                satisfies(&g, &Rule::from(ged)),
                satisfies_all(&g, &split)
            );
        }

        /// The bounded-model decision agrees with the obvious ground
        /// truth on interval constraints, and unsatisfiable sets admit no
        /// sampled model.
        #[test]
        fn interval_gdc_satisfiability(g in arb_graph(), lo in -1i64..2, hi in 0i64..3) {
            let q = parse_pattern("τ(x)").unwrap();
            let ge = Gdc::new(
                "ge",
                q.clone(),
                vec![],
                vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Ge, lo)],
            );
            let le = Gdc::new(
                "le",
                q,
                vec![],
                vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Le, hi)],
            );
            let sigma = [ge, le];
            let sat = reason::gdc_satisfiable(&sigma);
            // lo ≤ hi → window nonempty → satisfiable; lo > hi → unsat.
            prop_assert_eq!(sat, lo <= hi);
            if !sat && !g.nodes_with_label(sym("τ")).is_empty() {
                let served = sigma.map(Rule::from);
                prop_assert!(!satisfies_all(&g, &served));
            }
        }
    }
}
