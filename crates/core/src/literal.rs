//! Literals of GEDs (Section 3).
//!
//! A literal of `x̄` is one of
//! * a **constant literal** `x.A = c` (A ∈ Υ, A ≠ id, c ∈ U),
//! * a **variable literal** `x.A = y.B` (A, B ≠ id), or
//! * an **id literal** `x.id = y.id`.
//!
//! `false` is syntactic sugar (Section 3, "Forbidding GEDs"): a `Y`
//! consisting of `y.A = c` and `y.A = d` for distinct constants `c ≠ d`.
//! [`falsum`] builds that pair with a reserved attribute name.

use ged_graph::{Symbol, Value};
use ged_pattern::{Pattern, Var};
use std::fmt;

/// One equality literal over the variables of a pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Literal {
    /// Constant literal `x.A = c`.
    Const {
        /// The variable `x`.
        var: Var,
        /// The attribute `A` (never `id`).
        attr: Symbol,
        /// The constant `c`.
        value: Value,
    },
    /// Variable literal `x.A = y.B`.
    Vars {
        /// Left variable `x`.
        lvar: Var,
        /// Left attribute `A` (never `id`).
        lattr: Symbol,
        /// Right variable `y`.
        rvar: Var,
        /// Right attribute `B` (never `id`).
        rattr: Symbol,
    },
    /// Id literal `x.id = y.id`: the matched nodes are the same vertex.
    Id {
        /// Left variable.
        x: Var,
        /// Right variable.
        y: Var,
    },
}

impl Literal {
    /// Constant literal `x.A = c`. Panics if `A` is the `id` attribute
    /// (the paper excludes it from constant/variable literals).
    pub fn constant(var: Var, attr: Symbol, value: impl Into<Value>) -> Literal {
        assert!(
            attr != Symbol::ID,
            "constant literals must not use the id attribute"
        );
        Literal::Const {
            var,
            attr,
            value: value.into(),
        }
    }

    /// Variable literal `x.A = y.B` (normalised so the lexicographically
    /// smaller `(var, attr)` side comes first; literal equality is
    /// symmetric).
    pub fn vars(lvar: Var, lattr: Symbol, rvar: Var, rattr: Symbol) -> Literal {
        assert!(
            lattr != Symbol::ID && rattr != Symbol::ID,
            "variable literals must not use the id attribute"
        );
        if (rvar, rattr) < (lvar, lattr) {
            Literal::Vars {
                lvar: rvar,
                lattr: rattr,
                rvar: lvar,
                rattr: lattr,
            }
        } else {
            Literal::Vars {
                lvar,
                lattr,
                rvar,
                rattr,
            }
        }
    }

    /// Id literal `x.id = y.id` (normalised: smaller variable first).
    pub fn id(x: Var, y: Var) -> Literal {
        if y < x {
            Literal::Id { x: y, y: x }
        } else {
            Literal::Id { x, y }
        }
    }

    /// Is this an id literal?
    pub fn is_id(&self) -> bool {
        matches!(self, Literal::Id { .. })
    }

    /// Is this a constant literal?
    pub fn is_const(&self) -> bool {
        matches!(self, Literal::Const { .. })
    }

    /// Is this a variable literal?
    pub fn is_vars(&self) -> bool {
        matches!(self, Literal::Vars { .. })
    }

    /// The variables mentioned by the literal.
    pub fn vars_used(&self) -> Vec<Var> {
        match self {
            Literal::Const { var, .. } => vec![*var],
            Literal::Vars { lvar, rvar, .. } => {
                if lvar == rvar {
                    vec![*lvar]
                } else {
                    vec![*lvar, *rvar]
                }
            }
            Literal::Id { x, y } => {
                if x == y {
                    vec![*x]
                } else {
                    vec![*x, *y]
                }
            }
        }
    }

    /// The attributes the literal reads: `A` of `x.A = c`, `A` and `B` of
    /// `x.A = y.B`, none of an id literal (it compares node ids).
    pub fn attrs(&self) -> impl Iterator<Item = Symbol> {
        let (a, b) = match self {
            Literal::Const { attr, .. } => (Some(*attr), None),
            Literal::Vars { lattr, rattr, .. } => (Some(*lattr), Some(*rattr)),
            Literal::Id { .. } => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Do all variables of this literal exist in `pattern`?
    pub fn in_scope(&self, pattern: &Pattern) -> bool {
        self.vars_used()
            .iter()
            .all(|v| v.idx() < pattern.var_count())
    }

    /// Render with variable names from `pattern`.
    pub fn display<'a>(&'a self, pattern: &'a Pattern) -> LiteralDisplay<'a> {
        LiteralDisplay {
            literal: self,
            pattern,
        }
    }
}

/// Pretty-printer binding a literal to its pattern's variable names.
#[derive(Debug)]
pub struct LiteralDisplay<'a> {
    literal: &'a Literal,
    pattern: &'a Pattern,
}

impl fmt::Display for LiteralDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = |v: Var| self.pattern.name(v).to_string();
        match self.literal {
            Literal::Const { var, attr, value } => {
                write!(f, "{}.{} = {}", name(*var), attr, value)
            }
            Literal::Vars {
                lvar,
                lattr,
                rvar,
                rattr,
            } => write!(f, "{}.{} = {}.{}", name(*lvar), lattr, name(*rvar), rattr),
            Literal::Id { x, y } => write!(f, "{}.id = {}.id", name(*x), name(*y)),
        }
    }
}

/// The reserved attribute used by the `false` sugar.
pub fn falsum_attr() -> Symbol {
    Symbol::new("⊥false")
}

/// The paper's `false`: `{x.⊥ = 0, x.⊥ = 1}` for the given variable —
/// unsatisfiable by any match, so `Q[x̄](X → false)` forbids `Q ∧ X`.
pub fn falsum(var: Var) -> Vec<Literal> {
    vec![
        Literal::constant(var, falsum_attr(), 0),
        Literal::constant(var, falsum_attr(), 1),
    ]
}

/// Is this literal set (as a RHS `Y`) the `false` sugar — i.e. does it
/// contain two constant literals on the same `(var, attr)` with distinct
/// values? (Any such `Y` is unsatisfiable, not only the reserved-attribute
/// form.)
pub fn is_falsum(lits: &[Literal]) -> bool {
    for (i, a) in lits.iter().enumerate() {
        if let Literal::Const { var, attr, value } = a {
            for b in &lits[i + 1..] {
                if let Literal::Const {
                    var: v2,
                    attr: a2,
                    value: val2,
                } = b
                {
                    if var == v2 && attr == a2 && value != val2 {
                        return true;
                    }
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::sym;

    #[test]
    fn constructors_normalise() {
        let l1 = Literal::vars(Var(3), sym("A"), Var(1), sym("B"));
        let l2 = Literal::vars(Var(1), sym("B"), Var(3), sym("A"));
        assert_eq!(l1, l2, "variable literals are symmetric");
        assert_eq!(Literal::id(Var(5), Var(2)), Literal::id(Var(2), Var(5)));
    }

    #[test]
    #[should_panic(expected = "id attribute")]
    fn constant_literal_rejects_id() {
        Literal::constant(Var(0), Symbol::ID, 1);
    }

    #[test]
    #[should_panic(expected = "id attribute")]
    fn variable_literal_rejects_id() {
        Literal::vars(Var(0), Symbol::ID, Var(1), sym("A"));
    }

    #[test]
    fn classification() {
        let c = Literal::constant(Var(0), sym("A"), 1);
        let v = Literal::vars(Var(0), sym("A"), Var(1), sym("B"));
        let i = Literal::id(Var(0), Var(1));
        assert!(c.is_const() && !c.is_id() && !c.is_vars());
        assert!(v.is_vars() && !v.is_const());
        assert!(i.is_id());
    }

    #[test]
    fn vars_used_dedupes() {
        let l = Literal::vars(Var(2), sym("A"), Var(2), sym("B"));
        assert_eq!(l.vars_used(), vec![Var(2)]);
        let l = Literal::id(Var(1), Var(1));
        assert_eq!(l.vars_used(), vec![Var(1)]);
    }

    #[test]
    fn falsum_is_detected() {
        assert!(is_falsum(&falsum(Var(0))));
        let fine = vec![
            Literal::constant(Var(0), sym("A"), 1),
            Literal::constant(Var(0), sym("B"), 2),
            Literal::constant(Var(1), sym("A"), 2),
        ];
        assert!(!is_falsum(&fine));
        // ad-hoc falsum on a user attribute is detected too
        let adhoc = vec![
            Literal::constant(Var(0), sym("A"), 1),
            Literal::constant(Var(0), sym("A"), 2),
        ];
        assert!(is_falsum(&adhoc));
    }

    #[test]
    fn display_uses_variable_names() {
        let mut q = Pattern::new();
        let x = q.var("x", "person");
        let y = q.var("y", "product");
        let l = Literal::vars(x, sym("name"), y, sym("creator"));
        assert_eq!(l.display(&q).to_string(), "x.name = y.creator");
        let l = Literal::constant(y, sym("type"), "video game");
        assert_eq!(l.display(&q).to_string(), "y.type = \"video game\"");
        let l = Literal::id(x, y);
        assert_eq!(l.display(&q).to_string(), "x.id = y.id");
    }

    #[test]
    fn in_scope_checks_pattern_arity() {
        let mut q = Pattern::new();
        q.var("x", "a");
        assert!(Literal::constant(Var(0), sym("A"), 1).in_scope(&q));
        assert!(!Literal::id(Var(0), Var(1)).in_scope(&q));
    }
}
