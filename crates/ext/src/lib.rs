//! # ged-ext — extensions of GEDs (Section 7)
//!
//! The two extensions of *Dependencies for Graphs* (Fan & Lu, PODS 2017)
//! that trade complexity for expressive power, both built as the one rule
//! type, `ged_core::rule::Rule`:
//!
//! * [`gdc`] — **graph denial constraints** (GDCs): literals with built-in
//!   predicates `=, ≠, <, >, ≤, ≥`; express relational denial constraints
//!   and range/domain constraints (Example 9). `gdc::new` builds one
//!   conjunctive option, `gdc::forbidding` the lifted `false`;
//! * [`disj`] — **GED∨**: disjunctive conclusions; express disjunctive
//!   EGDs and finite-domain constraints (Example 10). `disj::new` builds
//!   one single-literal option per disjunct;
//! * [`reason`] — [`ext_satisfiable`] and [`ext_implies`] for any rule
//!   set, via the bounded-model search matching the paper's small-model
//!   properties (Theorems 8 & 9: Σᵖ₂-complete / Πᵖ₂-complete — the
//!   procedures here are correspondingly exponential); validation stays
//!   coNP, same engine shape as GEDs;
//! * [`domain`] — the Example 9/10 domain-constraint helpers.
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

pub use ged_core::rule::{GdcLiteral, Pred};
pub use reason::{ext_implies, ext_satisfiable};

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
    use ged_pattern::{parse_pattern, Pattern, Var};

    fn q() -> Pattern {
        parse_pattern("τ(x)").unwrap()
    }

    fn ged() -> Ged {
        Ged::new(
            "flagged⇒reviewed",
            q(),
            vec![Literal::constant(Var(0), sym("flagged"), 1)],
            vec![Literal::constant(Var(0), sym("reviewed"), 1)],
        )
    }

    fn score() -> Rule {
        gdc::forbidding(
            "score≤10",
            q(),
            vec![GdcLiteral::constant(Var(0), sym("score"), Pred::Gt, 10)],
        )
    }

    fn state_literals() -> Vec<Literal> {
        let state = |v: &str| Literal::constant(Var(0), sym("state"), v);
        vec![state("on"), state("off")]
    }

    fn state() -> Rule {
        disj::new("state∈{on,off}", q(), vec![], state_literals())
    }

    /// One `Vec<Rule>` holds all three families, and the generic
    /// enumerator gives each witness the one kind shape: the positions of
    /// the failed conclusion literals — the GED's one conclusion, both
    /// literals of the GDC's forbidding pair, every disjunct of the GED∨,
    /// and nothing for a GED∨ whose `Y` is `false`.
    #[test]
    fn one_sigma_mixes_all_three_families() {
        let sigma: Vec<Rule> = vec![
            ged().into(),
            score(),
            state(),
            disj::new("never-τ", q(), vec![], vec![]),
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

    /// Each family is built in the form the paper gives it: a GED's and a
    /// GDC's conjunctive conclusion is one option, a GED∨'s disjuncts one
    /// option each, and the size `|φ|` counts the pattern and every
    /// literal.
    #[test]
    fn each_family_compiles_into_premises_and_options() {
        let shape = |c: &Rule| {
            let options: Vec<usize> = c.options.iter().map(Vec::len).collect();
            (c.name.clone(), c.premises.len(), options, c.size())
        };
        assert_eq!(
            shape(&ged().into()),
            ("flagged⇒reviewed".into(), 1, vec![1], 3)
        );
        assert_eq!(shape(&score()), ("score≤10".into(), 1, vec![2], 4));
        assert_eq!(shape(&state()), ("state∈{on,off}".into(), 0, vec![1, 1], 3));
    }

    /// Every family names each attribute its literals read, whatever the
    /// predicate — the GDC's `>` premise included, which the linter's
    /// equality fragment omits — and the forbidding forms their reserved
    /// conclusion attribute.
    #[test]
    fn each_family_names_what_its_check_reads() {
        let read = |c: Rule| {
            let mut names: Vec<String> = c.attrs_read().iter().map(ToString::to_string).collect();
            names.sort();
            names.dedup();
            names
        };
        let falsum = ged_core::literal::falsum_attr().to_string();
        let expected = [
            (
                read(ged().into()),
                vec!["flagged".to_string(), "reviewed".to_string()],
            ),
            (read(score()), vec!["score".to_string(), falsum]),
            (read(state()), vec!["state".to_string()]),
        ];
        for (got, mut want) in expected {
            want.sort();
            assert_eq!(got, want);
        }
    }

    /// The chase embedding: a lifted GED is the GED again, a
    /// single-disjunct or forbidding GED∨ the conjunctive or forbidding
    /// GED, and anything with a non-`=` literal or two disjuncts none.
    #[test]
    fn equality_rules_embed_in_the_chase() {
        let literals = |g: Ged| (g.name, g.premises, g.conclusions);
        let back = Rule::from(ged()).as_chase_ged().unwrap();
        assert_eq!(literals(back), literals(ged()));
        let on = state_literals().swap_remove(0);
        let one = disj::new("one", q(), vec![], vec![on.clone()]);
        assert_eq!(one.as_chase_ged().unwrap().conclusions, [on]);
        let none = disj::new("none", q(), vec![], vec![]);
        let forbidding = Ged::forbidding("none", q(), vec![]);
        assert_eq!(literals(none.as_chase_ged().unwrap()), literals(forbidding));
        assert!(score().as_chase_ged().is_none());
        assert!(state().as_chase_ged().is_none());
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
            let split: Vec<Rule> = (ged.conclusions.iter())
                .map(|l| disj::new("g∨", ged.pattern.clone(), ged.premises.clone(), vec![l.clone()]))
                .collect();
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
            let ge = gdc::new(
                "ge",
                q.clone(),
                vec![],
                vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Ge, lo)],
            );
            let le = gdc::new(
                "le",
                q,
                vec![],
                vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Le, hi)],
            );
            let sigma = [ge, le];
            let sat = ext_satisfiable(&sigma);
            // lo ≤ hi → window nonempty → satisfiable; lo > hi → unsat.
            prop_assert_eq!(sat, lo <= hi);
            if !sat && !g.nodes_with_label(sym("τ")).is_empty() {
                prop_assert!(!satisfies_all(&g, &sigma));
            }
        }
    }
}
