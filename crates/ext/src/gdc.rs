//! Graph denial constraints — **GDCs** (Section 7.1): GEDs extended with
//! built-in predicates `=, ≠, <, >, ≤, ≥` on attribute/constant literals
//! (id literals keep plain equality).
//!
//! GEDs are the special case where every predicate is `=` (`Rule::from` a
//! [`Ged`](ged_core::ged::Ged) is that lift); denial constraints of
//! Arenas–Bertossi–Chomicki are expressible when tuples are encoded as
//! nodes (`crate::domain` and the tests exercise both). Validation stays
//! coNP-complete (Theorem 8): a GDC is a [`Rule`] with one conjunctive
//! option, on the same enumerate-matches engine as GEDs.

use ged_core::literal::falsum;
use ged_core::rule::{GdcLiteral, Rule};
use ged_pattern::{Pattern, Var};

/// The GDC `Q[x̄](X → Y)`: `Y` is the rule's one (conjunctive) option.
pub fn new(
    name: impl Into<String>,
    pattern: Pattern,
    premises: Vec<GdcLiteral>,
    conclusions: Vec<GdcLiteral>,
) -> Rule {
    Rule::new(name, pattern, premises, vec![conclusions])
}

/// The forbidding form `Q[x̄](X → false)`: `false` is the GED's
/// conflicting constant pair on the first variable
/// ([`falsum`]), lifted.
pub fn forbidding(name: impl Into<String>, pattern: Pattern, premises: Vec<GdcLiteral>) -> Rule {
    let y = falsum(Var(0)).iter().map(GdcLiteral::from_ged).collect();
    new(name, pattern, premises, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_core::rule::Pred;
    use ged_core::satisfy::{satisfies, satisfies_all, violations};
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::parse_pattern;

    /// A rating GDC: product ratings must lie in [0, 5].
    fn rating_range() -> Vec<Rule> {
        let q = parse_pattern("product(x)").unwrap();
        let rating = |pred, v| vec![GdcLiteral::constant(Var(0), sym("rating"), pred, v)];
        // X → ∅ is always satisfied; the denial form is X → false:
        vec![
            forbidding("rating≥0", q.clone(), rating(Pred::Lt, 0)),
            forbidding("rating≤5", q, rating(Pred::Gt, 5)),
        ]
    }

    #[test]
    fn range_constraints_catch_out_of_range_ratings() {
        let mut b = GraphBuilder::new();
        b.node("p", "product");
        b.attr("p", "rating", 7);
        let g = b.build();
        let sigma = rating_range();
        assert!(!satisfies_all(&g, &sigma));
        let vs = violations(&g, &sigma[1], None);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].ged_name, "rating≤5");

        let mut b2 = GraphBuilder::new();
        b2.node("p", "product");
        b2.attr("p", "rating", 4);
        assert!(satisfies_all(&b2.build(), &sigma));
    }

    #[test]
    fn missing_attribute_fails_the_literal() {
        let mut b = GraphBuilder::new();
        b.node("p", "product");
        let g = b.build();
        // X references rating which is missing → X never holds → satisfied.
        assert!(satisfies_all(&g, &rating_range()));
    }

    #[test]
    fn variable_predicate_literals() {
        // Employees must not earn more than their manager.
        let q = parse_pattern("emp(x) -[reports_to]-> emp(y)").unwrap();
        let denial = forbidding(
            "salary-cap",
            q,
            vec![GdcLiteral::vars(
                Var(0),
                sym("salary"),
                Pred::Gt,
                Var(1),
                sym("salary"),
            )],
        );
        let mut b = GraphBuilder::new();
        b.triple(("e", "emp"), "reports_to", ("m", "emp"));
        b.attr("e", "salary", 120).attr("m", "salary", 100);
        assert!(!satisfies(&b.build(), &denial));
        let mut b2 = GraphBuilder::new();
        b2.triple(("e", "emp"), "reports_to", ("m", "emp"));
        b2.attr("e", "salary", 90).attr("m", "salary", 100);
        assert!(satisfies(&b2.build(), &denial));
    }

    /// Lifting a GED into the GDC language (`Rule::from`) keeps every
    /// literal an `=` and keeps the GED's verdict on a dirty graph.
    #[test]
    fn ged_lifting_preserves_semantics() {
        let q = parse_pattern("person(x) -[create]-> product(y)").unwrap();
        let ged = Ged::new(
            "φ1",
            q,
            vec![Literal::constant(Var(1), sym("type"), "video game")],
            vec![Literal::constant(Var(0), sym("type"), "programmer")],
        );
        let lifted = Rule::from(ged.clone());
        assert!(lifted.literals().all(|l| l.as_eq_literal().is_some()));
        let back = lifted.as_chase_ged().unwrap();
        assert_eq!(
            (back.premises(), back.conclusions()),
            (ged.premises(), ged.conclusions())
        );
        let mut b = GraphBuilder::new();
        b.triple(("t", "person"), "create", ("gb", "product"));
        b.attr("t", "type", "psychologist");
        b.attr("gb", "type", "video game");
        assert!(!satisfies(&b.build(), &lifted));
    }

    #[test]
    fn id_literals_in_gdcs() {
        let q = parse_pattern("album(x); album(y)").unwrap();
        let key = new(
            "ψ",
            q,
            vec![GdcLiteral::vars(
                Var(0),
                sym("title"),
                Pred::Eq,
                Var(1),
                sym("title"),
            )],
            vec![GdcLiteral::id(Var(0), Var(1))],
        );
        let mut b = GraphBuilder::new();
        b.node("a", "album");
        b.node("b", "album");
        b.attr("a", "title", "Bleach").attr("b", "title", "Bleach");
        assert!(!satisfies(&b.build(), &key));
    }

    /// A literal on a variable the pattern does not have is refused when
    /// the rule is built, not when the first match reads it.
    #[test]
    #[should_panic(expected = "literal references a variable outside the pattern")]
    fn new_refuses_a_literal_outside_the_pattern() {
        let a3 = GdcLiteral::constant(Var(3), sym("a"), Pred::Lt, 1);
        new("out", parse_pattern("τ(x)").unwrap(), vec![], vec![a3]);
    }

    #[test]
    #[should_panic(expected = "literal references a variable outside the pattern")]
    fn forbidding_refuses_a_literal_outside_the_pattern() {
        let a3 = GdcLiteral::constant(Var(3), sym("a"), Pred::Lt, 1);
        forbidding("out", parse_pattern("τ(x)").unwrap(), vec![a3]);
    }
}
