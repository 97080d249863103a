//! GEDs with disjunction — **GED∨** (Section 7.2).
//!
//! Same syntactic form `Q[x̄](X → Y)` as a GED, but `Y` is interpreted as
//! the *disjunction* of its literals: a match satisfying `X` must satisfy
//! at least one literal of `Y`. GED∨s subsume GEDs (a conjunctive `Y`
//! becomes one single-literal GED∨ per conclusion) and can express domain
//! constraints GEDs cannot (Example 10). Validation stays coNP-complete
//! (a GED∨ is served compiled into [`crate::SigmaConstraint`]);
//! satisfiability/implication jump to Σᵖ₂ / Πᵖ₂ (Theorem 9) — see
//! [`crate::reason`].

use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_pattern::Pattern;

/// A disjunctive GED `Q[x̄](⋀X → ⋁Y)`.
#[derive(Debug, Clone)]
pub struct DisjGed {
    /// Name for reports.
    pub name: String,
    /// The pattern.
    pub pattern: Pattern,
    /// Premises `X` (conjunctive).
    pub premises: Vec<Literal>,
    /// Conclusions `Y` (DISJUNCTIVE; empty `Y` means `false`).
    pub conclusions: Vec<Literal>,
}

impl DisjGed {
    /// Build a GED∨.
    pub fn new(
        name: impl Into<String>,
        pattern: Pattern,
        premises: Vec<Literal>,
        conclusions: Vec<Literal>,
    ) -> DisjGed {
        for l in premises.iter().chain(conclusions.iter()) {
            assert!(l.in_scope(&pattern), "literal outside the pattern");
        }
        DisjGed {
            name: name.into(),
            pattern,
            premises,
            conclusions,
        }
    }

    /// Each GED `Q(X → Y)` equals the set of GED∨s `Q(X → l)` for `l ∈ Y`
    /// (Section 7.2). Returns that set.
    pub fn from_ged(g: &Ged) -> Vec<DisjGed> {
        g.conclusions
            .iter()
            .enumerate()
            .map(|(i, l)| DisjGed {
                name: format!("{}∨{}", g.name, i),
                pattern: g.pattern.clone(),
                premises: g.premises.clone(),
                conclusions: vec![l.clone()],
            })
            .collect()
    }

    /// Size measure `|ψ|`.
    pub fn size(&self) -> usize {
        self.pattern.size() + self.premises.len() + self.conclusions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SigmaConstraint;
    use ged_core::satisfy::{satisfies, satisfies_all};
    use ged_graph::{sym, Graph, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

    /// Example 10: ψ: Qe[x](∅ → x.A = 0 ∨ x.A = 1) — a Boolean domain
    /// constraint, not expressible as a (conjunctive) GED.
    fn boolean_domain() -> SigmaConstraint {
        let q = parse_pattern("τ(x)").unwrap();
        DisjGed::new(
            "ψ",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 0),
                Literal::constant(Var(0), sym("A"), 1),
            ],
        )
        .into()
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
        let split = DisjGed::from_ged(&ged);
        assert_eq!(split.len(), 2);
        let split: Vec<SigmaConstraint> = split.into_iter().map(Into::into).collect();
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
            let ged_ok = satisfies(&g_data, &ged);
            let split_ok = satisfies_all(&g_data, &split);
            assert_eq!(ged_ok, split_ok);
        }
    }

    #[test]
    fn empty_disjunction_is_false() {
        // Q(∅ → ∅) as a GED∨ forbids the pattern entirely.
        let q = parse_pattern("bad(x)").unwrap();
        let d = SigmaConstraint::from(DisjGed::new("forbid", q, vec![], vec![]));
        let mut b = GraphBuilder::new();
        b.node("x", "bad");
        assert!(!satisfies(&b.build(), &d));
        assert!(satisfies(&Graph::new(), &d));
    }

    #[test]
    fn one_satisfied_disjunct_suffices() {
        let q = parse_pattern("t(x)").unwrap();
        let d = SigmaConstraint::from(DisjGed::new(
            "d",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(0), sym("A"), 2),
                Literal::constant(Var(0), sym("B"), 9),
            ],
        ));
        let mut b = GraphBuilder::new();
        b.node("x", "t");
        b.attr("x", "B", 9);
        assert!(satisfies(&b.build(), &d));
    }
}
