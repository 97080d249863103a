//! Every family of the paper compiled into the one rule type,
//! [`Rule`] (`ged_core::rule`): a GDC's conjunctive conclusion is its one
//! option, a GED∨'s disjuncts one single-literal option each (a GED's
//! `From` is in `ged-core`). `Gdc` and `DisjGed` stay as the paper's syntax
//! and as the inputs of the bounded-search deciders in [`crate::reason`].

use crate::disj::DisjGed;
use crate::gdc::Gdc;
use ged_core::rule::{GdcLiteral, Rule};

/// A GDC: its conjunctive conclusion is the one option.
impl From<Gdc> for Rule {
    fn from(g: Gdc) -> Rule {
        Rule {
            name: g.name,
            pattern: g.pattern,
            premises: g.premises,
            options: vec![g.conclusions],
        }
    }
}

/// A GED∨: one single-literal option per disjunct.
impl From<DisjGed> for Rule {
    fn from(d: DisjGed) -> Rule {
        let options = d.conclusions.iter().map(|l| vec![GdcLiteral::from_ged(l)]);
        Rule {
            premises: d.premises.iter().map(GdcLiteral::from_ged).collect(),
            options: options.collect(),
            name: d.name,
            pattern: d.pattern,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_core::rule::Pred;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Pattern, Var};

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

    /// Each family compiles into the form the paper gives it: a GED's
    /// and a GDC's conjunctive conclusion is one option, a GED∨'s
    /// disjuncts one option each, and the size `|φ|` is kept.
    #[test]
    fn each_family_compiles_into_premises_and_options() {
        let shape = |c: &Rule| {
            let options: Vec<usize> = c.options.iter().map(Vec::len).collect();
            (c.name.clone(), c.premises.len(), options)
        };
        let (ged, gdc, disj) = (ged(), gdc(), disj());
        let sizes = [ged.size(), gdc.size(), disj.size()];
        let sigma: [Rule; 3] = [ged.into(), gdc.into(), disj.into()];
        assert_eq!(shape(&sigma[0]), ("flagged⇒reviewed".into(), 1, vec![1]));
        assert_eq!(shape(&sigma[1]), ("score≤10".into(), 1, vec![2]));
        assert_eq!(shape(&sigma[2]), ("state∈{on,off}".into(), 0, vec![1, 1]));
        for (c, size) in sigma.iter().zip(sizes) {
            assert_eq!(c.size(), size, "{}", c.name);
        }
    }

    /// Every family names each attribute its literals read, whatever the
    /// predicate — the GDC's `>` premise included, which the linter's
    /// equality fragment omits — and the forbidding forms their reserved
    /// conclusion attribute.
    #[test]
    fn each_family_names_what_its_check_reads() {
        let read = |c: Rule| {
            let mut names: Vec<String> = c.attrs_read().iter().map(ToString::to_string).collect();
            names.sort();
            names.dedup();
            names
        };
        let falsum = ged_core::literal::falsum_attr().to_string();
        let expected = [
            (
                read(ged().into()),
                vec!["flagged".to_string(), "reviewed".to_string()],
            ),
            (read(gdc().into()), vec!["score".to_string(), falsum]),
            (read(disj().into()), vec!["state".to_string()]),
        ];
        for (got, mut want) in expected {
            want.sort();
            assert_eq!(got, want);
        }
    }

    /// The chase embedding: a compiled GED is the GED again, a
    /// single-disjunct or forbidding GED∨ the conjunctive or forbidding
    /// GED, and anything with a non-`=` literal or two disjuncts none.
    #[test]
    fn equality_rules_embed_in_the_chase() {
        let literals = |g: Ged| (g.name, g.premises, g.conclusions);
        let back = Rule::from(ged()).as_chase_ged().unwrap();
        assert_eq!(literals(back), literals(ged()));
        let one = DisjGed::new("one", q(), vec![], vec![disj().conclusions[0].clone()]);
        let one = Rule::from(one).as_chase_ged().unwrap();
        assert_eq!(one.conclusions, [disj().conclusions[0].clone()]);
        let none = Rule::from(DisjGed::new("none", q(), vec![], vec![]));
        let forbidding = Ged::forbidding("none", q(), vec![]);
        assert_eq!(literals(none.as_chase_ged().unwrap()), literals(forbidding));
        assert!(Rule::from(gdc()).as_chase_ged().is_none());
        assert!(Rule::from(disj()).as_chase_ged().is_none());
    }
}
