//! The closed constraint union: every family of the paper in one enum,
//! dispatched statically.
//!
//! [`SigmaConstraint`] is the workspace's one heterogeneous-Σ type, over
//! exactly the paper's families {GED, GDC, GED∨, normalized}: `check` —
//! called once per enumerated match, in the engine's innermost loop — and
//! `pattern` compile to a jump table over an inline-visible `match`, the
//! optimizer sees the concrete callee at every arm, and a
//! `Vec<SigmaConstraint>` stores the rules inline instead of behind shared
//! pointers. There is no type-erased arm: every engine is generic over
//! `C: Constraint`, so a family outside the paper's four implements the
//! trait and runs as its own `C` (or in its own enum next to this one).

use crate::disj::DisjGed;
use crate::gdc::Gdc;
use crate::reason::NormConstraint;
use ged_core::constraint::{Constraint, LiteralView, ViolationKind};
use ged_core::ged::Ged;
use ged_graph::{Graph, NodeId, Symbol};
use ged_pattern::Pattern;

/// A constraint of one of the paper's four concrete families, dispatched
/// by `match` instead of vtable. Implements [`Constraint`], so every
/// generic engine (`IncrementalValidator`, the from-scratch enumerators,
/// the static analyzer) takes a `Vec<SigmaConstraint>` as-is.
#[derive(Debug, Clone)]
pub enum SigmaConstraint {
    /// A plain GED `Q[x̄](X → Y)` (Section 2).
    Ged(Ged),
    /// A graph denial constraint with built-in predicates (Section 7.1).
    Gdc(Gdc),
    /// A GED with disjunctive conclusions (Section 7.2).
    DisjGed(DisjGed),
    /// A normalized premises-plus-conclusion-options constraint.
    Norm(NormConstraint),
}

/// One delegating arm per family; every [`Constraint`] method funnels
/// through this, so adding a family is a one-line change per method site
/// caught by exhaustiveness checking.
macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            SigmaConstraint::Ged($c) => $body,
            SigmaConstraint::Gdc($c) => $body,
            SigmaConstraint::DisjGed($c) => $body,
            SigmaConstraint::Norm($c) => $body,
        }
    };
}

impl Constraint for SigmaConstraint {
    fn name(&self) -> &str {
        dispatch!(self, c => c.name())
    }

    fn pattern(&self) -> &Pattern {
        dispatch!(self, c => c.pattern())
    }

    fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind> {
        dispatch!(self, c => c.check(g, m))
    }

    fn size(&self) -> usize {
        dispatch!(self, c => Constraint::size(c))
    }

    fn attrs_read(&self) -> Option<Vec<Symbol>> {
        dispatch!(self, c => c.attrs_read())
    }

    fn literal_view(&self) -> Option<LiteralView> {
        dispatch!(self, c => c.literal_view())
    }

    fn as_chase_ged(&self) -> Option<Ged> {
        dispatch!(self, c => c.as_chase_ged())
    }

    fn premises_feasible(&self) -> bool {
        dispatch!(self, c => Constraint::premises_feasible(c))
    }
}

impl From<Ged> for SigmaConstraint {
    fn from(c: Ged) -> SigmaConstraint {
        SigmaConstraint::Ged(c)
    }
}

impl From<Gdc> for SigmaConstraint {
    fn from(c: Gdc) -> SigmaConstraint {
        SigmaConstraint::Gdc(c)
    }
}

impl From<DisjGed> for SigmaConstraint {
    fn from(c: DisjGed) -> SigmaConstraint {
        SigmaConstraint::DisjGed(c)
    }
}

impl From<NormConstraint> for SigmaConstraint {
    fn from(c: NormConstraint) -> SigmaConstraint {
        SigmaConstraint::Norm(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdc::GdcLiteral;
    use crate::predicate::Pred;
    use ged_core::literal::Literal;
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

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

    fn gdc() -> Gdc {
        Gdc::forbidding(
            "score≤10",
            q(),
            vec![GdcLiteral::constant(Var(0), sym("score"), Pred::Gt, 10)],
        )
    }

    fn disj() -> DisjGed {
        DisjGed::new(
            "state∈{on,off}",
            q(),
            vec![],
            vec![
                Literal::constant(Var(0), sym("state"), "on"),
                Literal::constant(Var(0), sym("state"), "off"),
            ],
        )
    }

    fn norm() -> NormConstraint {
        NormConstraint::from_gdc(&Gdc::forbidding(
            "state≠limbo",
            q(),
            vec![GdcLiteral::constant(
                Var(0),
                sym("state"),
                Pred::Eq,
                "limbo",
            )],
        ))
    }

    fn four_families() -> Vec<SigmaConstraint> {
        vec![ged().into(), gdc().into(), disj().into(), norm().into()]
    }

    /// One node violating every family at once.
    fn offending_node() -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        b.node("n", "τ");
        b.attr("n", "flagged", 1);
        b.attr("n", "score", 99);
        b.attr("n", "state", "limbo");
        let (g, names) = b.build_with_names();
        let m = vec![names["n"]];
        (g, m)
    }

    fn assert_delegates<C: Constraint + Clone + Into<SigmaConstraint>>(native: &C) {
        let (g, m) = offending_node();
        let c: SigmaConstraint = native.clone().into();
        assert_eq!(c.name(), native.name());
        assert_eq!(c.size(), native.size());
        assert_eq!(c.pattern().var_count(), native.pattern().var_count());
        assert_eq!(c.check(&g, &m), native.check(&g, &m));
        assert!(c.check(&g, &m).is_some());
        assert_eq!(c.attrs_read(), native.attrs_read());
        assert_eq!(c.literal_view(), native.literal_view());
        assert_eq!(
            c.as_chase_ged().map(|g| g.name),
            native.as_chase_ged().map(|g| g.name)
        );
        assert_eq!(c.premises_feasible(), native.premises_feasible());
    }

    /// Every method of every arm answers what the wrapped rule answers —
    /// the enum is a dispatch, not a semantic layer.
    #[test]
    fn enum_delegates_every_method_to_the_wrapped_family() {
        assert_delegates(&ged());
        assert_delegates(&gdc());
        assert_delegates(&disj());
        assert_delegates(&norm());
    }

    /// Every family names each attribute its literals read, whatever the
    /// predicate — the GDC's `>` premise included, which its literal view
    /// omits — and the forbidding forms their reserved conclusion
    /// attribute; a family that does not name its reads says `None`.
    #[test]
    fn each_family_names_what_its_check_reads() {
        let read = |c: &dyn Constraint| {
            let mut names: Vec<String> = c.attrs_read()?.iter().map(|a| a.to_string()).collect();
            names.sort();
            names.dedup();
            Some(names)
        };
        let falsum = ged_core::literal::falsum_attr().to_string();
        let gdc = gdc();
        assert!(!gdc.literal_view().unwrap().exact, "the view omits `>`");
        let expected = [
            (
                read(&ged()),
                vec!["flagged".to_string(), "reviewed".to_string()],
            ),
            (read(&gdc), vec!["score".to_string(), falsum.clone()]),
            (read(&disj()), vec!["state".to_string()]),
            (read(&norm()), vec!["state".to_string(), falsum]),
        ];
        for (got, mut want) in expected {
            want.sort();
            assert_eq!(got, Some(want));
        }

        /// A family that implements only what the trait requires.
        struct Opaque(Ged);
        impl Constraint for Opaque {
            fn name(&self) -> &str {
                &self.0.name
            }
            fn pattern(&self) -> &Pattern {
                &self.0.pattern
            }
            fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind> {
                self.0.check(g, m)
            }
            fn size(&self) -> usize {
                self.0.size()
            }
        }
        assert_eq!(Opaque(ged()).attrs_read(), None);
    }

    /// A homogeneous `Vec<SigmaConstraint>` drives the generic validator
    /// and classifies each family with its native violation kind.
    #[test]
    fn one_sigma_vec_serves_all_four_families() {
        let sigma = four_families();
        let (g, _) = offending_node();
        let report = ged_core::reason::validate(&g, &sigma, None);
        assert_eq!(report.total_violations(), 4);
        let kinds: Vec<&ViolationKind> = report.violations.iter().map(|v| &v.kind).collect();
        assert!(matches!(kinds[0], ViolationKind::Conclusions(_)));
        assert!(matches!(kinds[1], ViolationKind::Predicates(_)));
        assert!(matches!(kinds[2], ViolationKind::Disjunction));
        assert!(matches!(kinds[3], ViolationKind::Disjunction));
    }
}
