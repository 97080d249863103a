//! Built-in predicates `⊕ ∈ {=, ≠, <, >, ≤, ≥}` of a rule's literals
//! (GDCs, Section 7.1; a GED's literals are all `=`).
//!
//! Predicates are evaluated over [`Value`]'s total order (dense on floats
//! and strings). [`Pred::negate`] and [`Pred::flip`] give the boolean
//! complement and the argument-swapped form — both used by `ged-ext`'s
//! bounded countermodel search.

use ged_graph::Value;
use std::fmt;

/// A built-in comparison predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `≤`
    Le,
    /// `≥`
    Ge,
}

impl Pred {
    /// Evaluate `a ⊕ b`.
    pub fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            Pred::Eq => a == b,
            Pred::Ne => a != b,
            Pred::Lt => a < b,
            Pred::Gt => a > b,
            Pred::Le => a <= b,
            Pred::Ge => a >= b,
        }
    }

    /// The boolean complement: `¬(a ⊕ b) ⇔ a negate(⊕) b`.
    pub fn negate(self) -> Pred {
        match self {
            Pred::Eq => Pred::Ne,
            Pred::Ne => Pred::Eq,
            Pred::Lt => Pred::Ge,
            Pred::Ge => Pred::Lt,
            Pred::Gt => Pred::Le,
            Pred::Le => Pred::Gt,
        }
    }

    /// The argument swap: `a ⊕ b ⇔ b flip(⊕) a`.
    pub fn flip(self) -> Pred {
        match self {
            Pred::Eq => Pred::Eq,
            Pred::Ne => Pred::Ne,
            Pred::Lt => Pred::Gt,
            Pred::Gt => Pred::Lt,
            Pred::Le => Pred::Ge,
            Pred::Ge => Pred::Le,
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Pred::Eq => "=",
            Pred::Ne => "≠",
            Pred::Lt => "<",
            Pred::Gt => ">",
            Pred::Le => "≤",
            Pred::Ge => "≥",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Pred; 6] = [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Gt, Pred::Le, Pred::Ge];

    #[test]
    fn eval_basics() {
        let (a, b) = (Value::from(1), Value::from(2));
        assert!(Pred::Lt.eval(&a, &b));
        assert!(Pred::Le.eval(&a, &b));
        assert!(Pred::Ne.eval(&a, &b));
        assert!(!Pred::Eq.eval(&a, &b));
        assert!(!Pred::Gt.eval(&a, &b));
        assert!(Pred::Ge.eval(&a, &a));
        assert!(Pred::Eq.eval(&Value::from("x"), &Value::from("x")));
    }

    #[test]
    fn negation_is_complement() {
        let vals = [Value::from(1), Value::from(2), Value::from("a")];
        for p in ALL {
            for a in &vals {
                for b in &vals {
                    assert_eq!(p.eval(a, b), !p.negate().eval(a, b), "{p} on {a},{b}");
                }
            }
        }
    }

    #[test]
    fn flip_swaps_arguments() {
        let vals = [Value::from(1), Value::from(2)];
        for p in ALL {
            for a in &vals {
                for b in &vals {
                    assert_eq!(p.eval(a, b), p.flip().eval(b, a));
                }
            }
        }
    }

    #[test]
    fn negate_and_flip_are_involutions() {
        for p in ALL {
            assert_eq!(p.negate().negate(), p);
            assert_eq!(p.flip().flip(), p);
        }
    }
}
