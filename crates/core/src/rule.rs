//! The one rule type: every family of the paper as premises plus
//! conclusion options.
//!
//! Fan & Lu §7 define GDCs and GED∨s as GEDs with a richer literal
//! language, and all three share one form: a pattern, conjunctive premise
//! literals, and a set of *conclusion options* — the conclusion holds iff
//! every literal of **some** option holds. A GED or a GDC is one
//! conjunctive option, a GED∨ one single-literal option per disjunct, and
//! no option at all is `false`. [`Rule`] is that form over [`GdcLiteral`],
//! whose `=` literals are exactly a GED's [`Literal`]s; every GED, GDC and
//! GED∨ compiles into it by `From` at load (`From<Ged>` here, the other
//! two in `ged-ext`). It is what every engine runs on — the from-scratch
//! enumerators of [`satisfy`](crate::satisfy), [`validate`](crate::reason::validate),
//! the incremental engine, the static analyzer and the daemon — and its
//! one [`check`](Rule::check) is [`evaluate`], so every witness's
//! [`ViolationKind`] has one shape whatever family its rule came from.
//!
//! `Ged` stays the input of the chase and of A_GED; a rule that embeds in
//! that fragment says so through [`Rule::as_chase_ged`].

use crate::constraint::{evaluate, ViolationKind};
use crate::ged::Ged;
use crate::literal::{falsum, Literal};
use crate::solver::{consistent, Constraint as Atom, Term};
use ged_graph::{Graph, NodeId, Symbol, Value};
use ged_pattern::{Pattern, Var};
use std::fmt;

pub use crate::predicate::Pred;

/// A literal of a rule: a GED literal whose attribute comparisons carry a
/// built-in predicate (GDCs, Section 7.1; id literals keep plain
/// equality).
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

    /// Does match `m` satisfy this literal in `g`? A missing attribute
    /// fails the literal (Section 3, "Existence of attributes").
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

    /// The variables the literal names, whatever its predicate: `x` of
    /// `x.A ⊕ c`, `x` and `y` of `x.A ⊕ y.B` and of `x.id = y.id`.
    pub fn variables(&self) -> impl Iterator<Item = Var> {
        let (a, b) = match self {
            GdcLiteral::Const { var, .. } => (*var, None),
            GdcLiteral::Vars { lvar, rvar, .. } => (*lvar, Some(*rvar)),
            GdcLiteral::Id { x, y } => (*x, Some(*y)),
        };
        std::iter::once(a).chain(b)
    }

    /// The inverse of [`GdcLiteral::from_ged`], where it exists: render
    /// the literal back as a plain (equality) GED literal. `None` for the
    /// non-`=` predicates — the callers (the linter's equality fragment,
    /// the chase embedding) then know the rule leaves the equality
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

/// A rule `Q[x̄](X → opt₁ ∨ opt₂ ∨ …)` of any of the paper's families:
/// violated at a match iff every premise holds and every option has a
/// failing literal.
///
/// The incremental engine's affected-area argument (DESIGN.md §4) rests
/// on what the type guarantees: [`check`](Rule::check) reads only the ids
/// of the matched nodes and the attributes [`attrs_read`](Rule::attrs_read)
/// names, on matched nodes, and `pattern` is the rule's entire
/// topological requirement, so an edge whose label no pattern edge
/// matches never enters a match.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Name for reports.
    pub name: String,
    /// The pattern `Q[x̄]` whose matches are checked.
    pub pattern: Pattern,
    /// Premise literals (conjunctive).
    pub premises: Vec<GdcLiteral>,
    /// Conclusion options: satisfied if ALL literals of SOME option hold.
    pub options: Vec<Vec<GdcLiteral>>,
}

impl Rule {
    /// Does match `m` (one node per pattern variable) violate the rule?
    /// `Some(kind)` lists the failed conclusion literals; `None` means
    /// `X → Y` holds at `m`.
    pub fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind> {
        let options = self.options.iter().map(Vec::as_slice);
        evaluate(&self.premises, options, |l| l.holds(g, m))
    }

    /// Total size `|φ| = |Q| + |X| + |Y|` — the measure of the paper's
    /// complexity bounds.
    pub fn size(&self) -> usize {
        self.pattern.size() + self.premises.len() + self.options.iter().map(Vec::len).sum::<usize>()
    }

    /// Every literal: the premises, then each option's literals in order.
    pub fn literals(&self) -> impl Iterator<Item = &GdcLiteral> {
        self.premises.iter().chain(self.options.iter().flatten())
    }

    /// The attributes `check` reads on a matched node, duplicates
    /// allowed: writing or deleting any other attribute of any node never
    /// changes `check` at any match.
    pub fn attrs_read(&self) -> Vec<Symbol> {
        self.literals().flat_map(GdcLiteral::attrs).collect()
    }

    /// The rule as a plain [`Ged`] with the same models, when it embeds
    /// in the paper's chase fragment: every literal is `=` and the
    /// conclusion is one option (conjunctive) or none (`false`). The
    /// semantic layer of `ged-analysis` runs `Sat(Σ)` and implication
    /// over exactly these embeddings.
    pub fn as_chase_ged(&self) -> Option<Ged> {
        let eq = |lits: &[GdcLiteral]| -> Option<Vec<Literal>> {
            lits.iter().map(GdcLiteral::as_eq_literal).collect()
        };
        let premises = eq(&self.premises)?;
        let conclusions = match &self.options[..] {
            [] if self.pattern.var_count() > 0 => falsum(Var(0)),
            [option] => eq(option)?,
            _ => return None,
        };
        let mut literals = premises.iter().chain(&conclusions);
        let in_scope = literals.all(|l| l.in_scope(&self.pattern));
        in_scope.then(|| Ged::new(&self.name, self.pattern.clone(), premises, conclusions))
    }

    /// Can the premises hold jointly under *some* assignment of values to
    /// the attribute slots they mention? `false` means the rule can never
    /// fire — a dead rule. Decided by the dense-order oracle of
    /// [`crate::solver`] over one symbolic slot per `(variable,
    /// attribute)` pair, so it catches range contradictions (`x.a < 5 ∧
    /// x.a > 10`) that the linter's equality fragment cannot express. `id`
    /// literals are ignored (satisfiable by choosing the match), which
    /// keeps the answer conservative.
    pub fn premises_feasible(&self) -> bool {
        let slot = |var: &Var, attr: &Symbol| Term::Slot(NodeId(var.0), *attr);
        let atoms: Vec<Atom> = self
            .premises
            .iter()
            .filter_map(|l| match l {
                GdcLiteral::Const {
                    var,
                    attr,
                    pred,
                    value,
                } => Some(Atom::new(slot(var, attr), *pred, Term::Cst(value.clone()))),
                GdcLiteral::Vars {
                    lvar,
                    lattr,
                    pred,
                    rvar,
                    rattr,
                } => Some(Atom::new(slot(lvar, lattr), *pred, slot(rvar, rattr))),
                GdcLiteral::Id { .. } => None,
            })
            .collect();
        consistent(&atoms)
    }
}

/// A GED: its conjunctive conclusion is the one option.
impl From<Ged> for Rule {
    fn from(g: Ged) -> Rule {
        let lift = |lits: &[Literal]| lits.iter().map(GdcLiteral::from_ged).collect();
        Rule {
            premises: lift(&g.premises),
            options: vec![lift(&g.conclusions)],
            name: g.name,
            pattern: g.pattern,
        }
    }
}
