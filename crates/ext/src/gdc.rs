//! Graph denial constraints — **GDCs** (Section 7.1): GEDs extended with
//! built-in predicates `=, ≠, <, >, ≤, ≥` on attribute/constant literals
//! (id literals keep plain equality).
//!
//! GEDs are the special case where every predicate is `=`; denial
//! constraints of Arenas–Bertossi–Chomicki are expressible when tuples are
//! encoded as nodes (`crate::domain` and the tests exercise both).
//! Validation stays coNP-complete (Theorem 8): a GDC is served compiled
//! into [`crate::SigmaConstraint`], on the same enumerate-matches engine
//! as GEDs.

use crate::predicate::Pred;
use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_graph::{Graph, NodeId, Symbol, Value};
use ged_pattern::{Pattern, Var};
use std::fmt;

/// A GDC literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GdcLiteral {
    /// `x.A ⊕ c`.
    Const {
        /// Variable `x`.
        var: Var,
        /// Attribute `A` (not `id`).
        attr: Symbol,
        /// Predicate `⊕`.
        pred: Pred,
        /// Constant `c`.
        value: Value,
    },
    /// `x.A ⊕ y.B`.
    Vars {
        /// Left variable.
        lvar: Var,
        /// Left attribute.
        lattr: Symbol,
        /// Predicate `⊕`.
        pred: Pred,
        /// Right variable.
        rvar: Var,
        /// Right attribute.
        rattr: Symbol,
    },
    /// `x.id = y.id` (equality only, as in the paper).
    Id {
        /// Left variable.
        x: Var,
        /// Right variable.
        y: Var,
    },
}

impl GdcLiteral {
    /// `x.A ⊕ c`.
    pub fn constant(var: Var, attr: Symbol, pred: Pred, value: impl Into<Value>) -> GdcLiteral {
        assert!(attr != Symbol::ID, "GDC attribute literals must not use id");
        GdcLiteral::Const {
            var,
            attr,
            pred,
            value: value.into(),
        }
    }

    /// `x.A ⊕ y.B`.
    pub fn vars(lvar: Var, lattr: Symbol, pred: Pred, rvar: Var, rattr: Symbol) -> GdcLiteral {
        assert!(
            lattr != Symbol::ID && rattr != Symbol::ID,
            "GDC attribute literals must not use id"
        );
        GdcLiteral::Vars {
            lvar,
            lattr,
            pred,
            rvar,
            rattr,
        }
    }

    /// `x.id = y.id`.
    pub fn id(x: Var, y: Var) -> GdcLiteral {
        GdcLiteral::Id { x, y }
    }

    /// Does match `m` satisfy this literal in `g`? Missing attributes fail
    /// the literal, exactly as for GEDs.
    pub fn holds(&self, g: &Graph, m: &[NodeId]) -> bool {
        match self {
            GdcLiteral::Const {
                var,
                attr,
                pred,
                value,
            } => g
                .attr(m[var.idx()], *attr)
                .is_some_and(|v| pred.eval(v, value)),
            GdcLiteral::Vars {
                lvar,
                lattr,
                pred,
                rvar,
                rattr,
            } => match (g.attr(m[lvar.idx()], *lattr), g.attr(m[rvar.idx()], *rattr)) {
                (Some(a), Some(b)) => pred.eval(a, b),
                _ => false,
            },
            GdcLiteral::Id { x, y } => m[x.idx()] == m[y.idx()],
        }
    }

    /// The attributes the literal reads, whatever its predicate: `A` of
    /// `x.A ⊕ c`, `A` and `B` of `x.A ⊕ y.B`, none of an id literal.
    pub fn attrs(&self) -> impl Iterator<Item = Symbol> {
        let (a, b) = match self {
            GdcLiteral::Const { attr, .. } => (Some(*attr), None),
            GdcLiteral::Vars { lattr, rattr, .. } => (Some(*lattr), Some(*rattr)),
            GdcLiteral::Id { .. } => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// The inverse of [`GdcLiteral::from_ged`], where it exists: render
    /// the literal back as a plain (equality) GED literal. `None` for the
    /// non-`=` predicates — the callers (the static-analysis literal view
    /// and the chase embedding) then know the rule leaves the equality
    /// fragment.
    pub fn as_eq_literal(&self) -> Option<Literal> {
        match self {
            GdcLiteral::Const {
                var,
                attr,
                pred: Pred::Eq,
                value,
            } => Some(Literal::constant(*var, *attr, value.clone())),
            GdcLiteral::Vars {
                lvar,
                lattr,
                pred: Pred::Eq,
                rvar,
                rattr,
            } => Some(Literal::vars(*lvar, *lattr, *rvar, *rattr)),
            GdcLiteral::Id { x, y } => Some(Literal::id(*x, *y)),
            _ => None,
        }
    }

    /// Translate a GED literal (predicate `=` throughout).
    pub fn from_ged(lit: &Literal) -> GdcLiteral {
        match lit {
            Literal::Const { var, attr, value } => GdcLiteral::Const {
                var: *var,
                attr: *attr,
                pred: Pred::Eq,
                value: value.clone(),
            },
            Literal::Vars {
                lvar,
                lattr,
                rvar,
                rattr,
            } => GdcLiteral::Vars {
                lvar: *lvar,
                lattr: *lattr,
                pred: Pred::Eq,
                rvar: *rvar,
                rattr: *rattr,
            },
            Literal::Id { x, y } => GdcLiteral::Id { x: *x, y: *y },
        }
    }
}

impl fmt::Display for GdcLiteral {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdcLiteral::Const {
                var,
                attr,
                pred,
                value,
            } => write!(f, "?{}.{} {} {}", var.0, attr, pred, value),
            GdcLiteral::Vars {
                lvar,
                lattr,
                pred,
                rvar,
                rattr,
            } => write!(f, "?{}.{} {} ?{}.{}", lvar.0, lattr, pred, rvar.0, rattr),
            GdcLiteral::Id { x, y } => write!(f, "?{}.id = ?{}.id", x.0, y.0),
        }
    }
}

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

/// The premise-contradiction check behind the served form's
/// `Constraint::premises_feasible`: can the premise predicates hold
/// jointly under *some* assignment of values to the attribute slots they
/// mention? Decided by the dense-order oracle of [`crate::solver`] over
/// one symbolic slot per `(variable, attribute)` pair — so it catches
/// range contradictions (`x.a < 5 ∧ x.a > 10`) that the equality-only
/// literal view cannot express. `id` literals are ignored (satisfiable by
/// choosing the match), which keeps the answer conservative: `false` is
/// only returned for genuinely dead rules.
pub fn premises_feasible(premises: &[GdcLiteral]) -> bool {
    use crate::solver::{consistent, Constraint as Atom, Term};
    let atoms: Vec<Atom> = premises
        .iter()
        .filter_map(|l| match l {
            GdcLiteral::Const {
                var,
                attr,
                pred,
                value,
            } => Some(Atom::new(
                Term::Slot(NodeId(var.0), *attr),
                *pred,
                Term::Cst(value.clone()),
            )),
            GdcLiteral::Vars {
                lvar,
                lattr,
                pred,
                rvar,
                rattr,
            } => Some(Atom::new(
                Term::Slot(NodeId(lvar.0), *lattr),
                *pred,
                Term::Slot(NodeId(rvar.0), *rattr),
            )),
            GdcLiteral::Id { .. } => None,
        })
        .collect();
    consistent(&atoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SigmaConstraint;
    use ged_core::satisfy::{satisfies, satisfies_all, violations};
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::parse_pattern;

    /// A rating GDC: product ratings must lie in [0, 5].
    fn rating_range() -> Vec<SigmaConstraint> {
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
        let denial = SigmaConstraint::from(Gdc::forbidding(
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
        let gdc = SigmaConstraint::from(Gdc::from_ged(&ged));
        let mut b = GraphBuilder::new();
        b.triple(("t", "person"), "create", ("gb", "product"));
        b.attr("t", "type", "psychologist");
        b.attr("gb", "type", "video game");
        let dirty = b.build();
        assert_eq!(satisfies(&dirty, &ged), satisfies(&dirty, &gdc));
        assert!(!satisfies(&dirty, &gdc));
    }

    #[test]
    fn id_literals_in_gdcs() {
        let q = parse_pattern("album(x); album(y)").unwrap();
        let key = SigmaConstraint::from(Gdc::new(
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
