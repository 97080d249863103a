//! What a violation is: the per-witness [`ViolationKind`] that
//! [`Rule::check`](crate::rule::Rule::check) returns. Also the
//! [`Constraint`] trait, shrunk to the one method the standalone benchmark
//! still names.

use crate::rule::Rule;
use ged_pattern::Pattern;
use std::fmt;

/// Why a match violates a constraint — the per-witness payload the stores,
/// the reports and the wire carry, the same shape for every family: the
/// ascending positions of the conclusion literals that failed, counted
/// over the rule's conclusion options flattened in order. A GED or a GDC
/// (one conjunctive option) lists its failed conclusions; a GED∨ (one
/// single-literal option per disjunct) lists every disjunct; a rule whose
/// `Y` is `false` (no option) lists nothing.
///
/// Its `Debug` text is the list, `[0, 2]` — the wire's `kind` (DESIGN.md
/// §10): it names no attribute or value, so every process prints a
/// violation alike.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ViolationKind(Vec<usize>);

impl ViolationKind {
    /// The positions of the failed conclusion literals, ascending.
    pub fn positions(&self) -> &[usize] {
        &self.0
    }
}

impl From<Vec<usize>> for ViolationKind {
    /// Positions of failed conclusion literals, in ascending order.
    fn from(positions: Vec<usize>) -> ViolationKind {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending");
        ViolationKind(positions)
    }
}

impl fmt::Debug for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conclusion literal(s) {:?} failed", self.0)
    }
}

/// The pattern of a rule, behind the one method the standalone benchmark
/// calls. [`Rule`] is its only implementation, and every in-repo caller
/// reads the `pattern` field itself; the trait goes once the benchmark
/// does the same.
pub trait Constraint {
    /// The topological constraint `Q[x̄]` whose matches are checked.
    fn pattern(&self) -> &Pattern;
}

impl Constraint for Rule {
    fn pattern(&self) -> &Pattern {
        &self.pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::Ged;
    use crate::literal::Literal;
    use crate::rule::{GdcLiteral, Pred};
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

    fn phi1() -> Ged {
        let q = parse_pattern("person(x) -[create]-> product(y)").unwrap();
        Ged::new(
            "φ1",
            q,
            vec![Literal::constant(Var(1), sym("type"), "video game")],
            vec![Literal::constant(Var(0), sym("type"), "programmer")],
        )
    }

    #[test]
    fn a_ged_lists_the_positions_of_its_failed_conclusions() {
        let mut b = GraphBuilder::new();
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.attr("tony", "type", "psychologist");
        b.attr("gb", "type", "video game");
        let (graph, names) = b.build_with_names();
        let m = vec![names["tony"], names["gb"]];
        let rule = Rule::from(phi1());
        let kind = rule.check(&graph, &m).expect("the match violates φ1");
        assert_eq!(kind.positions(), [0]);
        assert_eq!(format!("{kind:?}"), "[0]");
    }

    /// Positions count over the options flattened; one holding option
    /// satisfies the rule, no option is `false`, an empty one `true`.
    #[test]
    fn kind_witness_rules() {
        let mut b = GraphBuilder::new();
        b.node("n", "t");
        b.attr("n", "a", 1);
        let (graph, names) = b.build_with_names();
        let a = |v: i64| GdcLiteral::constant(Var(0), sym("a"), Pred::Eq, v);
        let (t, f) = (a(1), a(2));
        let eval = |premises: &[&GdcLiteral], options: &[&[&GdcLiteral]]| {
            let lits = |ls: &[&GdcLiteral]| ls.iter().map(|&l| l.clone()).collect();
            let options = options.iter().map(|o| lits(o)).collect();
            let rule = Rule::new("r", parse_pattern("t(x)").unwrap(), lits(premises), options);
            let kind = rule.check(&graph, &[names["n"]]);
            kind.map(|k| k.positions().to_vec())
        };
        assert_eq!(eval(&[&t], &[&[&f, &t], &[&f]]), Some(vec![0, 2]));
        assert_eq!(
            eval(&[&t], &[&[&f, &t], &[&t]]),
            None,
            "the second option holds"
        );
        assert_eq!(eval(&[&f], &[&[&f]]), None, "a failed premise");
        assert_eq!(eval(&[&t], &[]), Some(vec![]), "`false` lists nothing");
        assert_eq!(eval(&[&t], &[&[]]), None, "an empty option holds");
        assert_eq!(eval(&[], &[&[&f], &[&f], &[&f]]), Some(vec![0, 1, 2]));
    }

    #[test]
    fn display_kinds() {
        let k = ViolationKind::from(vec![1, 12]);
        assert_eq!(format!("{k:?}"), "[1, 12]");
        assert_eq!(format!("{:?}", ViolationKind::default()), "[]");
        assert!(k.to_string().contains("[1, 12]"));
    }
}
