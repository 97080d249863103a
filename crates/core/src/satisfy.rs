//! Satisfaction semantics (`h(x̄) ⊨ l`, `G ⊨ φ`, `G ⊨ Σ`) and violation
//! enumeration — the engine behind the **validation problem** (Section 5.3).
//!
//! Semantics (Section 3):
//! * `h(x̄) ⊨ x.A = c` — attribute `A` *exists* at `h(x)` and equals `c`;
//! * `h(x̄) ⊨ x.A = y.B` — both attributes exist and are equal;
//! * `h(x̄) ⊨ x.id = y.id` — `h(x)` and `h(y)` are the same node;
//! * `h(x̄) ⊨ X → Y` — `h(x̄) ⊨ X` implies `h(x̄) ⊨ Y`;
//! * `G ⊨ φ` — every match satisfies `X → Y`.
//!
//! The existence requirement cuts both ways (Section 3, "Existence of
//! attributes"): a missing attribute in `X` makes the implication hold
//! trivially, while a missing attribute in `Y` is a violation. That is what
//! lets `Q[x](∅ → x.A = x.A)` force every `τ`-entity to carry an `A`
//! attribute.
//!
//! Every function here runs on the one rule type [`Rule`]: the loop walks
//! the matches of the rule's pattern and asks [`Rule::check`] about each
//! one, so GEDs, GDCs and GED∨s — all `Rule`s — share it, and
//! the incremental engine of `ged-engine` has the same structure.

use crate::constraint::ViolationKind;
use crate::rule::Rule;
use ged_graph::Graph;
use ged_pattern::{Match, MatchOptions, Matcher};
use std::ops::ControlFlow;

/// A witnessed violation of a constraint: a match that satisfies `X` but
/// not `Y`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated rule, whatever its family.
    pub ged_name: String,
    /// The offending match `h(x̄)`.
    pub assignment: Match,
    /// How the conclusion failed.
    pub kind: ViolationKind,
}

/// Enumerate violations of constraint `c` in `g`, stopping after `limit`
/// if given. This is the NP-witness search of Theorem 6's `G ⊭ Σ`
/// algorithm — guess a match, check `⊨ X` and `⊭ Y` — and it is the
/// match-enumeration loop every family shares: the literal semantics
/// live entirely inside [`Rule::check`].
pub fn violations(g: &Graph, c: &Rule, limit: Option<usize>) -> Vec<Violation> {
    let mut out = Vec::new();
    let matcher = Matcher::new(&c.pattern, g, MatchOptions::homomorphism());
    matcher.for_each(|m| {
        if let Some(kind) = c.check(g, m) {
            out.push(Violation {
                ged_name: c.name.clone(),
                assignment: m.to_vec(),
                kind,
            });
            if let Some(k) = limit {
                if out.len() >= k {
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    });
    out
}

/// `G ⊨ φ`: no violating match exists.
pub fn satisfies(g: &Graph, c: &Rule) -> bool {
    violations(g, c, Some(1)).is_empty()
}

/// `G ⊨ Σ`: every constraint in Σ is satisfied.
pub fn satisfies_all(g: &Graph, sigma: &[Rule]) -> bool {
    sigma.iter().all(|c| satisfies(g, c))
}

/// Does pattern `Q` of `c` have at least one match in `g`? (Part (b) of
/// the *model* definition in Section 5.1 — the strong satisfiability
/// notion requires every pattern to be embeddable.)
pub fn pattern_embeds(g: &Graph, c: &Rule) -> bool {
    ged_pattern::exists(&c.pattern, g, MatchOptions::homomorphism())
}

/// Is `g` a **model** of Σ (Section 5.1): `g ⊨ Σ`, `g` nonempty, and every
/// pattern of Σ has a match in `g`?
pub fn is_model(g: &Graph, sigma: &[Rule]) -> bool {
    g.node_count() > 0 && sigma.iter().all(|d| pattern_embeds(g, d)) && satisfies_all(g, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::Ged;
    use crate::literal::Literal;
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{fragments, parse_pattern, Var};

    /// The Ghetto Blaster graph of Example 1(1): a psychologist credited
    /// with creating a video game.
    fn ghetto_blaster() -> Graph {
        let mut b = GraphBuilder::new();
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.attr("tony", "type", "psychologist");
        b.attr("gb", "type", "video game");
        b.build()
    }

    fn phi1() -> Rule {
        let q = fragments::fig1_q1();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        Rule::from(Ged::new(
            "φ1",
            q,
            vec![Literal::constant(y, sym("type"), "video game")],
            vec![Literal::constant(x, sym("type"), "programmer")],
        ))
    }

    #[test]
    fn phi1_catches_the_ghetto_blaster_error() {
        let g = ghetto_blaster();
        let vs = violations(&g, &phi1(), None);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].ged_name, "φ1");
        assert_eq!(vs[0].kind.positions(), [0]);
        assert!(!satisfies(&g, &phi1()));
    }

    #[test]
    fn fixing_the_type_restores_satisfaction() {
        let mut b = GraphBuilder::new();
        b.triple(("gibbo", "person"), "create", ("gb", "product"));
        b.attr("gibbo", "type", "programmer");
        b.attr("gb", "type", "video game");
        let g = b.build();
        assert!(satisfies(&g, &phi1()));
    }

    #[test]
    fn missing_premise_attribute_is_trivial_satisfaction() {
        // product without a type attribute: X can't hold, so φ1 holds.
        let mut b = GraphBuilder::new();
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.attr("tony", "type", "psychologist");
        let g = b.build();
        assert!(satisfies(&g, &phi1()));
    }

    #[test]
    fn missing_conclusion_attribute_is_a_violation() {
        // person without any type: X holds (product typed), Y needs the
        // attribute to exist → violation.
        let mut b = GraphBuilder::new();
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.attr("gb", "type", "video game");
        let g = b.build();
        assert!(!satisfies(&g, &phi1()));
    }

    #[test]
    fn attribute_existence_constraint() {
        // Q[x](∅ → x.A = x.A) forces every τ-node to have A (Section 3).
        let q = parse_pattern("τ(x)").unwrap();
        let req = Rule::from(Ged::new(
            "require-A",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(0), sym("A"))],
        ));
        let mut g = Graph::new();
        let n = g.add_node(sym("τ"));
        assert!(!satisfies(&g, &req), "A missing");
        g.set_attr(n, sym("A"), 1);
        assert!(satisfies(&g, &req));
    }

    #[test]
    fn capital_example_phi2() {
        // Example 1(1): both Saint Petersburg and Helsinki as capital of
        // Finland.
        let q2 = fragments::fig1_q2();
        let y = q2.var_by_name("y").unwrap();
        let z = q2.var_by_name("z").unwrap();
        let phi2 = Rule::from(Ged::new(
            "φ2",
            q2,
            vec![],
            vec![Literal::vars(y, sym("name"), z, sym("name"))],
        ));
        let mut b = GraphBuilder::new();
        b.triple(("fi", "country"), "capital", ("hel", "city"));
        b.triple(("fi", "country"), "capital", ("spb", "city"));
        b.attr("hel", "name", "Helsinki");
        b.attr("spb", "name", "Saint Petersburg");
        let g = b.build();
        let vs = violations(&g, &phi2, None);
        // matches (y=hel,z=spb) and (y=spb,z=hel) both violate
        assert_eq!(vs.len(), 2);
    }

    #[test]
    fn inheritance_phi3_catches_moa() {
        // Example 1(1): all birds can fly; moa is a bird; moa is flightless.
        let q3 = fragments::fig1_q3();
        let x = q3.var_by_name("x").unwrap();
        let y = q3.var_by_name("y").unwrap();
        let a = sym("can_fly");
        let phi3 = Rule::from(Ged::new(
            "φ3",
            q3,
            vec![Literal::vars(x, a, x, a)],
            vec![Literal::vars(y, a, x, a)],
        ));
        let mut b = GraphBuilder::new();
        b.triple(("moa", "species"), "is_a", ("bird", "class"));
        b.attr("bird", "can_fly", true);
        b.attr("moa", "can_fly", false);
        let g = b.build();
        assert!(!satisfies(&g, &phi3), "moa contradicts inheritance");
        // Removing moa's value leaves the attribute missing → still a
        // violation (Y requires existence and equality).
        let mut b2 = GraphBuilder::new();
        b2.triple(("moa", "species"), "is_a", ("bird", "class"));
        b2.attr("bird", "can_fly", true);
        let g2 = b2.build();
        assert!(!satisfies(&g2, &phi3));
        // Setting it true satisfies.
        let mut b3 = GraphBuilder::new();
        b3.triple(("moa", "species"), "is_a", ("bird", "class"));
        b3.attr("bird", "can_fly", true);
        b3.attr("moa", "can_fly", true);
        assert!(satisfies(&b3.build(), &phi3));
    }

    #[test]
    fn forbidding_phi4_catches_sclater() {
        let phi4 = Rule::from(Ged::forbidding("φ4", fragments::fig1_q4(), vec![]));
        let mut b = GraphBuilder::new();
        b.triple(("philip", "person"), "child", ("william", "person"));
        b.edge("philip", "parent", "william");
        let g = b.build();
        assert!(!satisfies(&g, &phi4));
        // Without the parent edge the pattern has no match → satisfied.
        let mut b2 = GraphBuilder::new();
        b2.triple(("philip", "person"), "child", ("william", "person"));
        assert!(satisfies(&b2.build(), &phi4));
    }

    #[test]
    fn id_literal_semantics() {
        let q = parse_pattern("album(x); album(y)").unwrap();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let key = Rule::from(Ged::new(
            "ψ2",
            q,
            vec![Literal::vars(x, sym("title"), y, sym("title"))],
            vec![Literal::id(x, y)],
        ));
        // Two distinct albums with the same title violate the key.
        let mut b = GraphBuilder::new();
        b.node("a1", "album");
        b.node("a2", "album");
        b.attr("a1", "title", "Bleach")
            .attr("a2", "title", "Bleach");
        let g = b.build();
        assert!(!satisfies(&g, &key));
        // Distinct titles: fine.
        let mut b2 = GraphBuilder::new();
        b2.node("a1", "album");
        b2.node("a2", "album");
        b2.attr("a1", "title", "Bleach")
            .attr("a2", "title", "Nevermind");
        assert!(satisfies(&b2.build(), &key));
    }

    #[test]
    fn violation_limit_respected() {
        let q2 = fragments::fig1_q2();
        let y = q2.var_by_name("y").unwrap();
        let z = q2.var_by_name("z").unwrap();
        let phi2 = Rule::from(Ged::new(
            "φ2",
            q2,
            vec![],
            vec![Literal::vars(y, sym("name"), z, sym("name"))],
        ));
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            let c = format!("c{i}");
            b.triple(("fi", "country"), "capital", (&c, "city"));
            b.attr(&c, "name", format!("n{i}"));
        }
        let g = b.build();
        let all = violations(&g, &phi2, None);
        assert!(all.len() > 2);
        let limited = violations(&g, &phi2, Some(2));
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn is_model_requires_embedding_and_satisfaction() {
        let g = ghetto_blaster();
        // φ1 violated → not a model even though the pattern embeds.
        assert!(!is_model(&g, &[phi1()]));
        // A GED whose pattern does not embed: satisfied but not a model.
        let q = parse_pattern("nonexistent(x)").unwrap();
        let d = Rule::from(Ged::new("d", q, vec![], vec![]));
        assert!(satisfies(&g, &d));
        assert!(!is_model(&g, &[d]));
        // Empty graph is never a model.
        assert!(!is_model(&Graph::new(), &[]));
    }
}
