//! Graph denial constraints — **GDCs** (Section 7.1): GEDs extended with
//! built-in predicates `=, ≠, <, >, ≤, ≥` on attribute/constant literals
//! (id literals keep plain equality).
//!
//! GEDs are the special case where every predicate is `=`; denial
//! constraints of Arenas–Bertossi–Chomicki are expressible when tuples are
//! encoded as nodes (`crate::domain` and the tests exercise both).
//! Validation stays coNP-complete (Theorem 8): a GDC is served compiled
//! into [`Rule`](ged_core::rule::Rule), on the same enumerate-matches
//! engine as GEDs. Its literal, [`GdcLiteral`], is the rule's own.

use ged_core::ged::Ged;
use ged_core::rule::{GdcLiteral, Pred};
use ged_graph::Symbol;
use ged_pattern::{Pattern, Var};

/// A graph denial constraint `Q[x̄](X → Y)` with predicate literals.
#[derive(Debug, Clone)]
pub struct Gdc {
    /// Name for reports.
    pub name: String,
    /// The pattern.
    pub pattern: Pattern,
    /// Premises `X`.
    pub premises: Vec<GdcLiteral>,
    /// Conclusions `Y` (conjunctive; `false` = empty-conclusion forbidding
    /// form is expressed with [`Gdc::forbidding`]).
    pub conclusions: Vec<GdcLiteral>,
}

impl Gdc {
    /// Build a GDC.
    pub fn new(
        name: impl Into<String>,
        pattern: Pattern,
        premises: Vec<GdcLiteral>,
        conclusions: Vec<GdcLiteral>,
    ) -> Gdc {
        Gdc {
            name: name.into(),
            pattern,
            premises,
            conclusions,
        }
    }

    /// The forbidding form `Q[x̄](X → false)`: encoded as the conflicting
    /// constant pair on the first variable, as for GEDs.
    pub fn forbidding(name: impl Into<String>, pattern: Pattern, premises: Vec<GdcLiteral>) -> Gdc {
        assert!(pattern.var_count() > 0);
        let attr = Symbol::new("⊥false");
        let y = vec![
            GdcLiteral::constant(Var(0), attr, Pred::Eq, 0),
            GdcLiteral::constant(Var(0), attr, Pred::Eq, 1),
        ];
        Gdc::new(name, pattern, premises, y)
    }

    /// Lift a GED into the GDC language (Section 7.1: "GEDs are a special
    /// case of GDCs when ⊕ is equality only").
    pub fn from_ged(g: &Ged) -> Gdc {
        Gdc {
            name: g.name.clone(),
            pattern: g.pattern.clone(),
            premises: g.premises.iter().map(GdcLiteral::from_ged).collect(),
            conclusions: g.conclusions.iter().map(GdcLiteral::from_ged).collect(),
        }
    }

    /// Size measure `|φ|` (pattern + literals), for the small-model bounds.
    pub fn size(&self) -> usize {
        self.pattern.size() + self.premises.len() + self.conclusions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::literal::Literal;
    use ged_core::rule::Rule;
    use ged_core::satisfy::{satisfies, satisfies_all, violations};
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::parse_pattern;

    /// A rating GDC: product ratings must lie in [0, 5].
    fn rating_range() -> Vec<Rule> {
        let q = parse_pattern("product(x)").unwrap();
        let lo = Gdc::new(
            "lo",
            q.clone(),
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Lt, 0)],
            vec![],
        );
        // X → ∅ is always satisfied; the denial form is X → false:
        let lo = Gdc::forbidding("rating≥0", lo.pattern, lo.premises);
        let hi = Gdc::forbidding(
            "rating≤5",
            q,
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Gt, 5)],
        );
        vec![lo.into(), hi.into()]
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
        let denial = Rule::from(Gdc::forbidding(
            "salary-cap",
            q,
            vec![GdcLiteral::vars(
                Var(0),
                sym("salary"),
                Pred::Gt,
                Var(1),
                sym("salary"),
            )],
        ));
        let mut b = GraphBuilder::new();
        b.triple(("e", "emp"), "reports_to", ("m", "emp"));
        b.attr("e", "salary", 120).attr("m", "salary", 100);
        assert!(!satisfies(&b.build(), &denial));
        let mut b2 = GraphBuilder::new();
        b2.triple(("e", "emp"), "reports_to", ("m", "emp"));
        b2.attr("e", "salary", 90).attr("m", "salary", 100);
        assert!(satisfies(&b2.build(), &denial));
    }

    #[test]
    fn ged_lifting_preserves_semantics() {
        use ged_core::satisfy::satisfies;
        let q = parse_pattern("person(x) -[create]-> product(y)").unwrap();
        let ged = Ged::new(
            "φ1",
            q,
            vec![Literal::constant(Var(1), sym("type"), "video game")],
            vec![Literal::constant(Var(0), sym("type"), "programmer")],
        );
        let gdc = Rule::from(Gdc::from_ged(&ged));
        let mut b = GraphBuilder::new();
        b.triple(("t", "person"), "create", ("gb", "product"));
        b.attr("t", "type", "psychologist");
        b.attr("gb", "type", "video game");
        let dirty = b.build();
        assert_eq!(satisfies(&dirty, &Rule::from(ged)), satisfies(&dirty, &gdc));
        assert!(!satisfies(&dirty, &gdc));
    }

    #[test]
    fn id_literals_in_gdcs() {
        let q = parse_pattern("album(x); album(y)").unwrap();
        let key = Rule::from(Gdc::new(
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
        ));
        let mut b = GraphBuilder::new();
        b.node("a", "album");
        b.node("b", "album");
        b.attr("a", "title", "Bleach").attr("b", "title", "Bleach");
        assert!(!satisfies(&b.build(), &key));
    }
}
