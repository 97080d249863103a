//! GEDs with disjunction — **GED∨** (Section 7.2).
//!
//! Same syntactic form `Q[x̄](X → Y)` as a GED, but `Y` is interpreted as
//! the *disjunction* of its literals: a match satisfying `X` must satisfy
//! at least one literal of `Y`. GED∨s subsume GEDs (a conjunctive `Y`
//! becomes one single-literal GED∨ per conclusion) and can express domain
//! constraints GEDs cannot (Example 10). Validation stays coNP-complete
//! (a GED∨ is a [`Rule`] with one single-literal option per disjunct);
//! satisfiability/implication jump to Σᵖ₂ / Πᵖ₂ (Theorem 9) — see
//! [`crate::reason`].

use ged_core::literal::Literal;
use ged_core::rule::{GdcLiteral, Rule};
use ged_pattern::Pattern;

/// The GED∨ `Q[x̄](⋀X → ⋁Y)`: one single-literal option per disjunct of
/// `Y`, so an empty `Y` is no option, i.e. `false`.
pub fn new(
    name: impl Into<String>,
    pattern: Pattern,
    premises: Vec<Literal>,
    conclusions: Vec<Literal>,
) -> Rule {
    let premises = premises.iter().map(GdcLiteral::from_ged).collect();
    let options = conclusions.iter().map(|l| vec![GdcLiteral::from_ged(l)]);
    Rule::new(name, pattern, premises, options.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::satisfy::{satisfies, satisfies_all};
    use ged_graph::{sym, Graph, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

    /// Example 10: ψ: Qe[x](∅ → x.A = 0 ∨ x.A = 1) — a Boolean domain
    /// constraint, not expressible as a (conjunctive) GED.
    fn boolean_domain() -> Rule {
        let q = parse_pattern("τ(x)").unwrap();
        new(
            "ψ",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 0),
                Literal::constant(Var(0), sym("A"), 1),
            ],
        )
    }

    #[test]
    fn example10_domain_constraint() {
        let d = boolean_domain();
        // A = 1: fine.
        let mut b = GraphBuilder::new();
        b.node("x", "τ");
        b.attr("x", "A", 1);
        assert!(satisfies(&b.build(), &d));
        // A = 7: violation.
        let mut b = GraphBuilder::new();
        b.node("x", "τ");
        b.attr("x", "A", 7);
        assert!(!satisfies(&b.build(), &d));
        // A missing: violation too (the constraint also forces existence,
        // per Example 10: "each τ-node x HAS an A-attribute and …").
        let mut b = GraphBuilder::new();
        b.node("x", "τ");
        assert!(!satisfies(&b.build(), &d));
        // Other labels are unconstrained.
        let mut b = GraphBuilder::new();
        b.node("y", "other");
        assert!(satisfies(&b.build(), &d));
    }

    #[test]
    fn ged_embedding_preserves_semantics() {
        use ged_core::ged::Ged;
        use ged_core::satisfy::satisfies;
        let q = parse_pattern("t(x); t(y)").unwrap();
        let ged = Ged::new(
            "g",
            q,
            vec![Literal::vars(Var(0), sym("K"), Var(1), sym("K"))],
            vec![
                Literal::vars(Var(0), sym("A"), Var(1), sym("A")),
                Literal::vars(Var(0), sym("B"), Var(1), sym("B")),
            ],
        );
        // Each GED `Q(X → Y)` equals the set of GED∨s `Q(X → l)`, `l ∈ Y`.
        let split: Vec<Rule> = (ged.conclusions().iter())
            .map(|l| {
                new(
                    "g∨",
                    ged.pattern().clone(),
                    ged.premises().to_vec(),
                    vec![l.clone()],
                )
            })
            .collect();
        for g_data in [
            {
                // violates the B half only
                let mut b = GraphBuilder::new();
                b.node("u", "t");
                b.node("v", "t");
                b.attr("u", "K", 1).attr("v", "K", 1);
                b.attr("u", "A", 2).attr("v", "A", 2);
                b.attr("u", "B", 3).attr("v", "B", 4);
                b.build()
            },
            {
                // satisfies everything
                let mut b = GraphBuilder::new();
                b.node("u", "t");
                b.attr("u", "K", 1).attr("u", "A", 2).attr("u", "B", 3);
                b.build()
            },
        ] {
            let ged_ok = satisfies(&g_data, &Rule::from(ged.clone()));
            let split_ok = satisfies_all(&g_data, &split);
            assert_eq!(ged_ok, split_ok);
        }
    }

    #[test]
    fn empty_disjunction_is_false() {
        // Q(∅ → ∅) as a GED∨ forbids the pattern entirely.
        let q = parse_pattern("bad(x)").unwrap();
        let d = new("forbid", q, vec![], vec![]);
        assert!(d.options().is_empty(), "no disjunct is no option");
        let mut b = GraphBuilder::new();
        b.node("x", "bad");
        assert!(!satisfies(&b.build(), &d));
        assert!(satisfies(&Graph::new(), &d));
    }

    #[test]
    fn one_satisfied_disjunct_suffices() {
        let q = parse_pattern("t(x)").unwrap();
        let d = new(
            "d",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(0), sym("A"), 2),
                Literal::constant(Var(0), sym("B"), 9),
            ],
        );
        let mut b = GraphBuilder::new();
        b.node("x", "t");
        b.attr("x", "B", 9);
        assert!(satisfies(&b.build(), &d));
    }

    #[test]
    #[should_panic(expected = "literal references a variable outside the pattern")]
    fn new_refuses_a_literal_outside_the_pattern() {
        let a3 = Literal::constant(Var(3), sym("a"), 1);
        new("out", parse_pattern("τ(x)").unwrap(), vec![], vec![a3]);
    }
}
