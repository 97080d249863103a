//! GEDs with disjunction — **GED∨** (Section 7.2).
//!
//! Same syntactic form `Q[x̄](X → Y)` as a GED, but `Y` is interpreted as
//! the *disjunction* of its literals: a match satisfying `X` must satisfy
//! at least one literal of `Y`. GED∨s subsume GEDs (a conjunctive `Y`
//! becomes one single-literal GED∨ per conclusion) and can express domain
//! constraints GEDs cannot (Example 10). Validation stays coNP-complete;
//! satisfiability/implication jump to Σᵖ₂ / Πᵖ₂ (Theorem 9) — see
//! [`crate::reason`].

use ged_core::constraint::{Constraint, LiteralView, ViolationKind};
use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_core::satisfy::literal_holds;
use ged_graph::{Graph, NodeId, Symbol};
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

/// GED∨s are first-class members of the unified constraint layer: the
/// check is the normalised-options evaluation of
/// [`crate::reason::NormConstraint`] with one single-literal option per
/// disjunct — a disjunctive conclusion is violated iff *every* disjunct
/// fails — so the generic from-scratch, parallel, and incremental engines
/// all serve GED∨s unchanged.
impl Constraint for DisjGed {
    fn name(&self) -> &str {
        &self.name
    }

    fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind> {
        let holds = |l: &Literal| literal_holds(g, m, l);
        let options = self.conclusions.iter().map(std::slice::from_ref);
        crate::reason::x_holds_and_all_options_fail(&self.premises, options, holds)
            .then_some(ViolationKind::Disjunction)
    }

    fn size(&self) -> usize {
        DisjGed::size(self)
    }

    fn attrs_read(&self) -> Option<Vec<Symbol>> {
        let literals = self.premises.iter().chain(&self.conclusions);
        Some(literals.flat_map(Literal::attrs).collect())
    }

    fn literal_view(&self) -> Option<LiteralView> {
        Some(LiteralView {
            premises: self.premises.clone(),
            options: self.conclusions.iter().map(|l| vec![l.clone()]).collect(),
            exact: true,
        })
    }

    fn as_chase_ged(&self) -> Option<Ged> {
        match self.conclusions.len() {
            // A forbidding GED∨ (`Y = false`) is the forbidding GED: both
            // are violated exactly when `X` holds at a match.
            0 if self.pattern.var_count() > 0 => Some(Ged::forbidding(
                &self.name,
                self.pattern.clone(),
                self.premises.clone(),
            )),
            // A single-disjunct `⋁Y` is the conjunctive `Y`.
            1 => Some(Ged::new(
                &self.name,
                self.pattern.clone(),
                self.premises.clone(),
                self.conclusions.clone(),
            )),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::satisfy::{satisfies, satisfies_all};
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

    /// Example 10: ψ: Qe[x](∅ → x.A = 0 ∨ x.A = 1) — a Boolean domain
    /// constraint, not expressible as a (conjunctive) GED.
    fn boolean_domain() -> DisjGed {
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
        let d = DisjGed::new("forbid", q, vec![], vec![]);
        let mut b = GraphBuilder::new();
        b.node("x", "bad");
        assert!(!satisfies(&b.build(), &d));
        assert!(satisfies(&Graph::new(), &d));
    }

    #[test]
    fn one_satisfied_disjunct_suffices() {
        let q = parse_pattern("t(x)").unwrap();
        let d = DisjGed::new(
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
}
