//! The one served rule form: every family of the paper compiled into
//! premises plus conclusion options.
//!
//! Fan & Lu §7 define GDCs and GED∨s as GEDs with richer conclusions, and
//! all three share one form: a pattern, conjunctive premise literals, and
//! a set of *conclusion options* — the conclusion holds iff every literal
//! of **some** option holds. A GED or a GDC is one conjunctive option, a
//! GED∨ one single-literal option per disjunct, and no option at all is
//! `false`. [`SigmaConstraint`] is that form over [`GdcLiteral`] (whose
//! `=` literals are exactly the GED's), built from each family by `From`
//! at load. It is the workspace's one heterogeneous-Σ type: every engine
//! runs on a `Vec<SigmaConstraint>`, whose one `check` is
//! [`ged_core::constraint::evaluate`] — the evaluator `Ged`'s own check
//! uses — so every witness's [`ViolationKind`] has one shape whatever
//! family its rule came from.
//!
//! `Gdc` and `DisjGed` stay as the paper's syntax and as the inputs of
//! the bounded-search deciders in [`crate::reason`], which run on this
//! form too; `Ged` is also the input of `ged-core`'s chase and A_GED.

use crate::disj::DisjGed;
use crate::gdc::{premises_feasible, Gdc, GdcLiteral};
use ged_core::constraint::{evaluate, Constraint, LiteralView, ViolationKind};
use ged_core::ged::Ged;
use ged_core::literal::{falsum, Literal};
use ged_graph::{Graph, NodeId, Symbol};
use ged_pattern::{Pattern, Var};

/// A rule `Q[x̄](X → opt₁ ∨ opt₂ ∨ …)` of any of the paper's families:
/// violated at a match iff every premise holds and every option has a
/// failing literal. Implements [`Constraint`], so every generic engine
/// (`IncrementalValidator`, the from-scratch enumerators, the static
/// analyzer) takes a `Vec<SigmaConstraint>` as-is.
#[derive(Debug, Clone)]
pub struct SigmaConstraint {
    /// Name for reports (the compiled rule's).
    pub name: String,
    /// The pattern.
    pub pattern: Pattern,
    /// Premise literals (conjunctive).
    pub premises: Vec<GdcLiteral>,
    /// Conclusion options: satisfied if ALL literals of SOME option hold.
    pub options: Vec<Vec<GdcLiteral>>,
}

impl Constraint for SigmaConstraint {
    fn name(&self) -> &str {
        &self.name
    }

    fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind> {
        let options = self.options.iter().map(Vec::as_slice);
        evaluate(&self.premises, options, |l| l.holds(g, m))
    }

    fn size(&self) -> usize {
        self.pattern.size() + self.premises.len() + self.options.iter().map(Vec::len).sum::<usize>()
    }

    fn attrs_read(&self) -> Option<Vec<Symbol>> {
        let literals = self.premises.iter().chain(self.options.iter().flatten());
        Some(literals.flat_map(GdcLiteral::attrs).collect())
    }

    /// The equality fragment: a non-`=` literal is dropped and clears
    /// `exact`.
    fn literal_view(&self) -> Option<LiteralView> {
        let mut exact = true;
        let mut convert = |lits: &[GdcLiteral]| -> Vec<Literal> {
            let eq = lits.iter().map(GdcLiteral::as_eq_literal);
            eq.inspect(|l| exact &= l.is_some()).flatten().collect()
        };
        let premises = convert(&self.premises);
        let options = self.options.iter().map(|opt| convert(opt)).collect();
        Some(LiteralView {
            premises,
            options,
            exact,
        })
    }

    /// A GED with the same models, when every literal is `=` and the
    /// conclusion is one option (conjunctive) or none (`false`).
    fn as_chase_ged(&self) -> Option<Ged> {
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

    fn premises_feasible(&self) -> bool {
        premises_feasible(&self.premises)
    }
}

/// A GED: its conjunctive conclusion is the one option.
impl From<Ged> for SigmaConstraint {
    fn from(g: Ged) -> SigmaConstraint {
        let lift = |lits: &[Literal]| lits.iter().map(GdcLiteral::from_ged).collect();
        SigmaConstraint {
            premises: lift(&g.premises),
            options: vec![lift(&g.conclusions)],
            name: g.name,
            pattern: g.pattern,
        }
    }
}

/// A GDC: its conjunctive conclusion is the one option.
impl From<Gdc> for SigmaConstraint {
    fn from(g: Gdc) -> SigmaConstraint {
        SigmaConstraint {
            name: g.name,
            pattern: g.pattern,
            premises: g.premises,
            options: vec![g.conclusions],
        }
    }
}

/// A GED∨: one single-literal option per disjunct.
impl From<DisjGed> for SigmaConstraint {
    fn from(d: DisjGed) -> SigmaConstraint {
        let options = d.conclusions.iter().map(|l| vec![GdcLiteral::from_ged(l)]);
        SigmaConstraint {
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
    use crate::predicate::Pred;
    use ged_graph::sym;
    use ged_pattern::parse_pattern;

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
        let shape = |c: &SigmaConstraint| {
            let options: Vec<usize> = c.options.iter().map(Vec::len).collect();
            (c.name.clone(), c.premises.len(), options)
        };
        let (ged, gdc, disj) = (ged(), gdc(), disj());
        let sizes = [ged.size(), gdc.size(), disj.size()];
        let sigma: [SigmaConstraint; 3] = [ged.into(), gdc.into(), disj.into()];
        assert_eq!(shape(&sigma[0]), ("flagged⇒reviewed".into(), 1, vec![1]));
        assert_eq!(shape(&sigma[1]), ("score≤10".into(), 1, vec![2]));
        assert_eq!(shape(&sigma[2]), ("state∈{on,off}".into(), 0, vec![1, 1]));
        for (c, size) in sigma.iter().zip(sizes) {
            assert_eq!(c.size(), size, "{}", c.name);
        }
    }

    /// Every family names each attribute its literals read, whatever the
    /// predicate — the GDC's `>` premise included, which its literal view
    /// omits — and the forbidding forms their reserved conclusion
    /// attribute; a family that does not name its reads says `None`.
    #[test]
    fn each_family_names_what_its_check_reads() {
        let read = |c: SigmaConstraint| {
            let mut names: Vec<String> = c.attrs_read()?.iter().map(ToString::to_string).collect();
            names.sort();
            names.dedup();
            Some(names)
        };
        let falsum = ged_core::literal::falsum_attr().to_string();
        let gdc = SigmaConstraint::from(gdc());
        assert!(!gdc.literal_view().unwrap().exact, "the view omits `>`");
        let expected = [
            (
                read(ged().into()),
                vec!["flagged".to_string(), "reviewed".to_string()],
            ),
            (read(gdc), vec!["score".to_string(), falsum]),
            (read(disj().into()), vec!["state".to_string()]),
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

    /// The chase embedding: a compiled GED is the GED again, a
    /// single-disjunct or forbidding GED∨ the conjunctive or forbidding
    /// GED, and anything with a non-`=` literal or two disjuncts none.
    #[test]
    fn equality_rules_embed_in_the_chase() {
        let literals = |g: Ged| (g.name, g.premises, g.conclusions);
        let back = SigmaConstraint::from(ged()).as_chase_ged().unwrap();
        assert_eq!(literals(back), literals(ged()));
        let one = DisjGed::new("one", q(), vec![], vec![disj().conclusions[0].clone()]);
        let one = SigmaConstraint::from(one).as_chase_ged().unwrap();
        assert_eq!(one.conclusions, [disj().conclusions[0].clone()]);
        let none = SigmaConstraint::from(DisjGed::new("none", q(), vec![], vec![]));
        let forbidding = Ged::forbidding("none", q(), vec![]);
        assert_eq!(literals(none.as_chase_ged().unwrap()), literals(forbidding));
        assert!(SigmaConstraint::from(gdc()).as_chase_ged().is_none());
        assert!(SigmaConstraint::from(disj()).as_chase_ged().is_none());
    }
}
