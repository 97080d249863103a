//! The finite axiom system **A_GED** (Section 6, Table 2).
//!
//! Six inference rules over sequents `Σ ⊢ Q[x̄](X → Y)`:
//!
//! * **GED1** (reflexivity + id reflexivity): `Σ ⊢ Q(X → X ∧ X_id)`;
//! * **GED2** (id semantics): from `(u.id = v.id) ∈ Y` and an attribute
//!   `u.A` appearing in `Y`, derive `Q(X → u.A = v.A)`;
//! * **GED3** (symmetry): from `(u = v) ∈ Y` derive `Q(X → v = u)`;
//! * **GED4** (transitivity): from `(u1 = v), (v = u2) ∈ Y` derive
//!   `Q(X → u1 = u2)`;
//! * **GED5** (ex falso): if `Eq_X ∪ Eq_Y` is inconsistent, derive
//!   `Q(X → Y1)` for any literal set `Y1`;
//! * **GED6** (pattern embedding / modus ponens): from `Q(X → Y)`,
//!   `Q1(X1 → Y1)`, and a match `h` of `Q1` in `(G_Q)_{Eq_X ∪ Eq_Y}` with
//!   `h(x̄1) ⊨ X1`, derive `Q(X → Y ∧ h(Y1))`.
//!
//! Proofs are first-class [`Proof`] values: every step records its rule and
//! witnesses, and [`Proof::check`] re-verifies each step independently —
//! rule GED5's inconsistency condition and GED6's match condition are
//! recomputed from scratch with the chase machinery. Theorem 7: the system
//! is sound, complete (see [`completeness`]) and independent.

pub mod completeness;
pub mod derived;

use crate::chase::{coerce, eq_literal_holds, seed_eq, Coercion, EqRel};
use crate::ged::Ged;
use crate::literal::Literal;
use ged_graph::{NodeId, Symbol};
use ged_pattern::{Pattern, Var};
use std::collections::BTreeSet;
use std::fmt;

/// The rule justifying a proof step.
#[derive(Debug, Clone)]
pub enum Justification {
    /// A member of Σ (by index).
    Hypothesis(usize),
    /// GED1 with the given `X` over the proof's goal pattern.
    Ged1 {
        /// The premise set `X`.
        x: Vec<Literal>,
    },
    /// GED2: premise step, the id literal used, the attribute `A`.
    Ged2 {
        /// Index of the premise step.
        premise: usize,
        /// The id literal `(u.id = v.id) ∈ Y`.
        id_literal: Literal,
        /// The attribute `A`.
        attr: Symbol,
    },
    /// GED3: premise step and the literal of its `Y` being flipped.
    Ged3 {
        /// Index of the premise step.
        premise: usize,
        /// The literal `(u = v) ∈ Y`.
        literal: Literal,
    },
    /// GED4: premise step and the two chained literals of its `Y`.
    Ged4 {
        /// Index of the premise step.
        premise: usize,
        /// `(u1 = v) ∈ Y`.
        first: Literal,
        /// `(v = u2) ∈ Y`.
        second: Literal,
    },
    /// GED5: premise step whose `Eq_X ∪ Eq_Y` is inconsistent.
    Ged5 {
        /// Index of the premise step.
        premise: usize,
    },
    /// GED6: main premise, embedded premise, and the match `h` (variable of
    /// the embedded pattern → variable of the goal pattern, standing for
    /// its node class in the coercion).
    Ged6 {
        /// Index of the main premise `Q(X → Y)`.
        premise: usize,
        /// Index of the embedded premise `Q1(X1 → Y1)`.
        embedded: usize,
        /// `h : x̄1 → x̄` (class representatives).
        h: Vec<Var>,
    },
}

impl Justification {
    /// Short rule name for display.
    pub fn rule_name(&self) -> &'static str {
        match self {
            Justification::Hypothesis(_) => "Hyp",
            Justification::Ged1 { .. } => "GED1",
            Justification::Ged2 { .. } => "GED2",
            Justification::Ged3 { .. } => "GED3",
            Justification::Ged4 { .. } => "GED4",
            Justification::Ged5 { .. } => "GED5",
            Justification::Ged6 { .. } => "GED6",
        }
    }
}

/// One step of a proof: a justification and the sequent it concludes.
#[derive(Debug, Clone)]
pub struct Step {
    /// The rule application.
    pub justification: Justification,
    /// The concluded GED (`Σ ⊢` this).
    pub conclusion: Ged,
}

/// A checkable derivation `Σ ⊢ φ` (the final step's conclusion is φ).
#[derive(Debug, Clone)]
pub struct Proof {
    /// The hypothesis set Σ.
    pub sigma: Vec<Ged>,
    /// The steps, each referring only to earlier steps.
    pub steps: Vec<Step>,
}

/// Why a proof failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofError {
    /// Index of the offending step.
    pub step: usize,
    /// Description of the violation.
    pub message: String,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proof step {}: {}", self.step, self.message)
    }
}

impl std::error::Error for ProofError {}

/// Canonical set view of a literal list (literal constructors normalise
/// symmetric forms, so set equality is the right comparison).
fn lit_set(lits: &[Literal]) -> BTreeSet<String> {
    lits.iter().map(|l| format!("{l:?}")).collect()
}

/// Structural pattern equality (labels + edges; names are cosmetic).
fn same_pattern(a: &Pattern, b: &Pattern) -> bool {
    if a.var_count() != b.var_count() || a.edge_count() != b.edge_count() {
        return false;
    }
    for v in a.vars() {
        if a.label(v) != b.label(v) {
            return false;
        }
    }
    let ea: BTreeSet<_> = a
        .pattern_edges()
        .iter()
        .map(|e| (e.src, e.label, e.dst))
        .collect();
    let eb: BTreeSet<_> = b
        .pattern_edges()
        .iter()
        .map(|e| (e.src, e.label, e.dst))
        .collect();
    ea == eb
}

/// `X_id` for a pattern: `xi.id = xi.id` for every variable (GED1).
pub fn xid(pattern: &Pattern) -> Vec<Literal> {
    pattern.vars().map(|v| Literal::id(v, v)).collect()
}

/// Build `Eq_X ∪ Eq_Y` on the canonical graph of `pattern`.
fn eq_of(pattern: &Pattern, x: &[Literal], y: &[Literal]) -> (ged_graph::Graph, EqRel) {
    let gq = pattern.canonical_graph();
    let ident: Vec<NodeId> = (0..pattern.var_count() as u32).map(NodeId).collect();
    let mut all: Vec<Literal> = x.to_vec();
    all.extend_from_slice(y);
    let eq = seed_eq(&gq, &all, &ident);
    (gq, eq)
}

/// Substitute a literal's variables through `h` (GED6's `h(Y1)`).
pub fn substitute(lit: &Literal, h: &[Var]) -> Literal {
    match lit {
        Literal::Const { var, attr, value } => {
            Literal::constant(h[var.idx()], *attr, value.clone())
        }
        Literal::Vars {
            lvar,
            lattr,
            rvar,
            rattr,
        } => Literal::vars(h[lvar.idx()], *lattr, h[rvar.idx()], *rattr),
        Literal::Id { x, y } => Literal::id(h[x.idx()], h[y.idx()]),
    }
}

/// Does `term = (var, attr)` appear in any literal of `lits`?
fn attr_appears(lits: &[Literal], var: Var, attr: Symbol) -> bool {
    lits.iter().any(|l| match l {
        Literal::Const {
            var: v, attr: a, ..
        } => (*v, *a) == (var, attr),
        Literal::Vars {
            lvar,
            lattr,
            rvar,
            rattr,
        } => (*lvar, *lattr) == (var, attr) || (*rvar, *rattr) == (var, attr),
        Literal::Id { .. } => false,
    })
}

/// Term endpoints of a literal, for GED4 chaining.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Term {
    Attr(Var, Symbol),
    Cst(ged_graph::Value),
    Node(Var),
}

fn endpoints(lit: &Literal) -> (Term, Term) {
    match lit {
        Literal::Const { var, attr, value } => (Term::Attr(*var, *attr), Term::Cst(value.clone())),
        Literal::Vars {
            lvar,
            lattr,
            rvar,
            rattr,
        } => (Term::Attr(*lvar, *lattr), Term::Attr(*rvar, *rattr)),
        Literal::Id { x, y } => (Term::Node(*x), Term::Node(*y)),
    }
}

/// Build the literal `a = b` from two terms, if expressible (constant =
/// constant is not a literal).
fn literal_from_terms(a: &Term, b: &Term) -> Option<Literal> {
    match (a, b) {
        (Term::Attr(v1, a1), Term::Attr(v2, a2)) => Some(Literal::vars(*v1, *a1, *v2, *a2)),
        (Term::Attr(v, a), Term::Cst(c)) | (Term::Cst(c), Term::Attr(v, a)) => {
            Some(Literal::constant(*v, *a, c.clone()))
        }
        (Term::Node(x), Term::Node(y)) => Some(Literal::id(*x, *y)),
        _ => None,
    }
}

impl Proof {
    /// The proved GED (last step's conclusion). Panics on empty proofs.
    pub fn conclusion(&self) -> &Ged {
        &self.steps.last().expect("nonempty proof").conclusion
    }

    /// Does the proof use the given rule anywhere? (Used by the
    /// independence tests.)
    pub fn uses_rule(&self, rule: &str) -> bool {
        self.steps
            .iter()
            .any(|s| s.justification.rule_name() == rule)
    }

    /// Verify every step against the side conditions of Table 2.
    pub fn check(&self) -> Result<(), ProofError> {
        for (i, step) in self.steps.iter().enumerate() {
            self.check_step(i, step)?;
        }
        Ok(())
    }

    fn prior(&self, i: usize, idx: usize) -> Result<&Step, ProofError> {
        if idx >= i {
            return Err(ProofError {
                step: i,
                message: format!("premise {idx} is not an earlier step"),
            });
        }
        Ok(&self.steps[idx])
    }

    fn check_step(&self, i: usize, step: &Step) -> Result<(), ProofError> {
        let fail = |m: String| {
            Err(ProofError {
                step: i,
                message: m,
            })
        };
        let c = &step.conclusion;
        match &step.justification {
            Justification::Hypothesis(k) => {
                let Some(hyp) = self.sigma.get(*k) else {
                    return fail(format!("no hypothesis {k} in Σ"));
                };
                if !same_pattern(hyp.pattern(), c.pattern())
                    || lit_set(hyp.premises()) != lit_set(c.premises())
                    || lit_set(hyp.conclusions()) != lit_set(c.conclusions())
                {
                    return fail("conclusion differs from the cited hypothesis".into());
                }
                Ok(())
            }
            Justification::Ged1 { x } => {
                if lit_set(c.premises()) != lit_set(x) {
                    return fail("GED1 premise set mismatch".into());
                }
                let mut expected = x.clone();
                expected.extend(xid(c.pattern()));
                if lit_set(c.conclusions()) != lit_set(&expected) {
                    return fail("GED1 conclusion must be X ∧ X_id".into());
                }
                Ok(())
            }
            Justification::Ged2 {
                premise,
                id_literal,
                attr,
            } => {
                let p = self.prior(i, *premise)?;
                self.require_same_context(i, p, c)?;
                let Literal::Id { x, y } = id_literal else {
                    return fail("GED2 requires an id literal".into());
                };
                if !p.conclusion.conclusions().contains(id_literal) {
                    return fail("GED2: id literal not in premise Y".into());
                }
                if !attr_appears(p.conclusion.conclusions(), *x, *attr)
                    && !attr_appears(p.conclusion.conclusions(), *y, *attr)
                {
                    return fail(format!("GED2: attribute {attr} does not appear in Y"));
                }
                let expected = Literal::vars(*x, *attr, *y, *attr);
                if lit_set(c.conclusions()) != lit_set(&[expected]) {
                    return fail("GED2 conclusion must be u.A = v.A".into());
                }
                Ok(())
            }
            Justification::Ged3 { premise, literal } => {
                let p = self.prior(i, *premise)?;
                self.require_same_context(i, p, c)?;
                if !p.conclusion.conclusions().contains(literal) {
                    return fail("GED3: literal not in premise Y".into());
                }
                // Literal constructors normalise symmetric forms, so the
                // flipped literal equals the original; GED3 acts as
                // projection to a single literal.
                if lit_set(c.conclusions()) != lit_set(std::slice::from_ref(literal)) {
                    return fail("GED3 conclusion must be the (flipped) literal".into());
                }
                Ok(())
            }
            Justification::Ged4 {
                premise,
                first,
                second,
            } => {
                let p = self.prior(i, *premise)?;
                self.require_same_context(i, p, c)?;
                for l in [first, second] {
                    if !p.conclusion.conclusions().contains(l) {
                        return fail("GED4: chained literal not in premise Y".into());
                    }
                }
                let (a1, b1) = endpoints(first);
                let (a2, b2) = endpoints(second);
                // find the shared middle term; the conclusion links the
                // two outer terms
                let mut expected: Option<Literal> = None;
                for (x1, m1) in [(&a1, &b1), (&b1, &a1)] {
                    for (m2, x2) in [(&a2, &b2), (&b2, &a2)] {
                        if m1 == m2 {
                            if let Some(l) = literal_from_terms(x1, x2) {
                                if lit_set(c.conclusions()) == lit_set(std::slice::from_ref(&l)) {
                                    expected = Some(l);
                                }
                            }
                        }
                    }
                }
                if expected.is_none() {
                    return fail("GED4: conclusion is not a valid transitive link".into());
                }
                Ok(())
            }
            Justification::Ged5 { premise } => {
                let p = self.prior(i, *premise)?;
                self.require_same_context(i, p, c)?;
                let (_gq, eq) = eq_of(
                    p.conclusion.pattern(),
                    p.conclusion.premises(),
                    p.conclusion.conclusions(),
                );
                if eq.is_consistent() {
                    return fail("GED5: Eq_X ∪ Eq_Y is consistent".into());
                }
                // Conclusion Y may be anything in scope (Ged::new checked
                // scope at construction).
                Ok(())
            }
            Justification::Ged6 {
                premise,
                embedded,
                h,
            } => {
                let p = self.prior(i, *premise)?;
                let e = self.prior(i, *embedded)?;
                self.require_same_context(i, p, c)?;
                let q1 = e.conclusion.pattern();
                if h.len() != q1.var_count() {
                    return fail("GED6: h must assign every variable of Q1".into());
                }
                let (gq, eq) = eq_of(
                    p.conclusion.pattern(),
                    p.conclusion.premises(),
                    p.conclusion.conclusions(),
                );
                if !eq.is_consistent() {
                    return fail("GED6: Eq_X ∪ Eq_Y must be consistent".into());
                }
                let co: Coercion = coerce(&gq, &eq);
                // h maps Q1 vars to Q vars; check it is a match of Q1 in
                // the coercion.
                for w in q1.vars() {
                    let target = h[w.idx()];
                    if target.idx() >= p.conclusion.pattern().var_count() {
                        return fail("GED6: h target outside the goal pattern".into());
                    }
                    let class = co.coerced(NodeId(target.0));
                    if !q1.label(w).matches(co.graph.label(class)) {
                        return fail(format!(
                            "GED6: label of {} does not match its image",
                            q1.name(w)
                        ));
                    }
                }
                for edge in q1.pattern_edges() {
                    let s = co.coerced(NodeId(h[edge.src.idx()].0));
                    let d = co.coerced(NodeId(h[edge.dst.idx()].0));
                    if !co.graph.has_edge_matching(s, edge.label, d) {
                        return fail("GED6: h does not preserve a pattern edge".into());
                    }
                }
                // h(x̄1) ⊨ X1, evaluated through Eq.
                let assignment: Vec<NodeId> = h.iter().map(|v| NodeId(v.0)).collect();
                for lit in e.conclusion.premises() {
                    let mapped_holds = eq_literal_holds(&eq, &assignment, lit);
                    if !mapped_holds {
                        return fail(format!("GED6: h(x̄1) does not satisfy X1 literal {lit:?}"));
                    }
                }
                // Conclusion must be Y ∪ h(Y1).
                let mut expected = p.conclusion.conclusions().to_vec();
                for lit in e.conclusion.conclusions() {
                    expected.push(substitute(lit, h));
                }
                if lit_set(c.conclusions()) != lit_set(&expected) {
                    return fail("GED6 conclusion must be Y ∧ h(Y1)".into());
                }
                Ok(())
            }
        }
    }

    /// Premise and conclusion must share pattern and `X`.
    fn require_same_context(&self, i: usize, p: &Step, c: &Ged) -> Result<(), ProofError> {
        if !same_pattern(p.conclusion.pattern(), c.pattern()) {
            return Err(ProofError {
                step: i,
                message: "rule must preserve the goal pattern".into(),
            });
        }
        if lit_set(p.conclusion.premises()) != lit_set(c.premises()) {
            return Err(ProofError {
                step: i,
                message: "rule must preserve the premise set X".into(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Σ = {{")?;
        for g in &self.sigma {
            writeln!(f, "  {g}")?;
        }
        writeln!(f, "}}")?;
        for (i, s) in self.steps.iter().enumerate() {
            let just = match &s.justification {
                Justification::Hypothesis(k) => format!("hypothesis {k}"),
                Justification::Ged1 { .. } => "GED1".to_string(),
                Justification::Ged2 { premise, .. } => format!("({premise}) and GED2"),
                Justification::Ged3 { premise, .. } => format!("({premise}) and GED3"),
                Justification::Ged4 { premise, .. } => format!("({premise}) and GED4"),
                Justification::Ged5 { premise } => format!("({premise}) and GED5"),
                Justification::Ged6 {
                    premise, embedded, ..
                } => format!("({premise}), ({embedded}) and GED6"),
            };
            writeln!(f, "({i}) {}   [{just}]", s.conclusion)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::sym;
    use ged_pattern::parse_pattern;

    fn two_node_pattern() -> Pattern {
        parse_pattern("t(x); t(y)").unwrap()
    }

    fn lit_ab() -> Literal {
        Literal::vars(Var(0), sym("A"), Var(1), sym("B"))
    }

    #[test]
    fn ged1_checks() {
        let q = two_node_pattern();
        let x = vec![lit_ab()];
        let mut y = x.clone();
        y.extend(xid(&q));
        let proof = Proof {
            sigma: vec![],
            steps: vec![Step {
                justification: Justification::Ged1 { x: x.clone() },
                conclusion: Ged::new("s", q.clone(), x.clone(), y),
            }],
        };
        proof.check().unwrap();
        // Wrong conclusion (missing X_id) rejected.
        let bad = Proof {
            sigma: vec![],
            steps: vec![Step {
                justification: Justification::Ged1 { x: x.clone() },
                conclusion: Ged::new("s", q, x.clone(), x),
            }],
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn hypothesis_must_match() {
        let q = two_node_pattern();
        let hyp = Ged::new("h", q.clone(), vec![], vec![lit_ab()]);
        let ok = Proof {
            sigma: vec![hyp.clone()],
            steps: vec![Step {
                justification: Justification::Hypothesis(0),
                conclusion: hyp.clone(),
            }],
        };
        ok.check().unwrap();
        let bad = Proof {
            sigma: vec![hyp],
            steps: vec![Step {
                justification: Justification::Hypothesis(0),
                conclusion: Ged::new("h", q, vec![], vec![]),
            }],
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn ged2_derives_attribute_congruence() {
        let q = two_node_pattern();
        let idl = Literal::id(Var(0), Var(1));
        let al = Literal::constant(Var(0), sym("A"), 1);
        let y = vec![idl.clone(), al];
        let base = Ged::new("s", q.clone(), vec![], y);
        let concl = Ged::new(
            "c",
            q.clone(),
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        );
        let proof = Proof {
            sigma: vec![base.clone()],
            steps: vec![
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: base.clone(),
                },
                Step {
                    justification: Justification::Ged2 {
                        premise: 0,
                        id_literal: idl.clone(),
                        attr: sym("A"),
                    },
                    conclusion: concl,
                },
            ],
        };
        proof.check().unwrap();
        // Attribute B appears nowhere → rejected.
        let bad_concl = Ged::new(
            "c",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
        );
        let mut bad = proof.clone();
        bad.steps[1] = Step {
            justification: Justification::Ged2 {
                premise: 0,
                id_literal: idl,
                attr: sym("B"),
            },
            conclusion: bad_concl,
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn ged4_transitivity() {
        let q = parse_pattern("t(x); t(y); t(z)").unwrap();
        let l1 = Literal::vars(Var(0), sym("A"), Var(1), sym("B"));
        let l2 = Literal::vars(Var(1), sym("B"), Var(2), sym("C"));
        let base = Ged::new("s", q.clone(), vec![], vec![l1.clone(), l2.clone()]);
        let concl = Ged::new(
            "c",
            q.clone(),
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(2), sym("C"))],
        );
        let proof = Proof {
            sigma: vec![base.clone()],
            steps: vec![
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: base.clone(),
                },
                Step {
                    justification: Justification::Ged4 {
                        premise: 0,
                        first: l1.clone(),
                        second: l2.clone(),
                    },
                    conclusion: concl,
                },
            ],
        };
        proof.check().unwrap();
        // A non-linking conclusion is rejected.
        let mut bad = proof.clone();
        bad.steps[1].conclusion = Ged::new(
            "c",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(2), sym("Z"))],
        );
        assert!(bad.check().is_err());
    }

    #[test]
    fn ged5_requires_inconsistency() {
        let q = parse_pattern("t(x)").unwrap();
        // Y = {x.A = 1, x.A = 2} — inconsistent.
        let base = Ged::new(
            "s",
            q.clone(),
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(0), sym("A"), 2),
            ],
        );
        let anything = Ged::new(
            "c",
            q.clone(),
            vec![],
            vec![Literal::constant(Var(0), sym("Z"), 42)],
        );
        let proof = Proof {
            sigma: vec![base.clone()],
            steps: vec![
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: base,
                },
                Step {
                    justification: Justification::Ged5 { premise: 0 },
                    conclusion: anything.clone(),
                },
            ],
        };
        proof.check().unwrap();
        // With a consistent premise, GED5 must be rejected.
        let consistent = Ged::new("s", q, vec![], vec![Literal::constant(Var(0), sym("A"), 1)]);
        let bad = Proof {
            sigma: vec![consistent.clone()],
            steps: vec![
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: consistent,
                },
                Step {
                    justification: Justification::Ged5 { premise: 0 },
                    conclusion: anything,
                },
            ],
        };
        assert!(bad.check().is_err());
    }

    #[test]
    fn ged6_embeds_a_pattern() {
        // Goal pattern: a(x) -e-> b(y). Embedded: _(u) with ∅ → u.T = 1.
        let q = parse_pattern("a(x) -[e]-> b(y)").unwrap();
        let q1 = parse_pattern("_(u)").unwrap();
        let emb = Ged::new(
            "e",
            q1,
            vec![],
            vec![Literal::constant(Var(0), sym("T"), 1)],
        );
        let _base = Ged::new("s", q.clone(), vec![], vec![]);
        // h: u ↦ y.
        let concl = Ged::new(
            "c",
            q.clone(),
            vec![],
            vec![Literal::constant(Var(1), sym("T"), 1)],
        );
        let proof = Proof {
            sigma: vec![emb.clone()],
            steps: vec![
                Step {
                    justification: Justification::Ged1 { x: vec![] },
                    conclusion: Ged::new("r", q.clone(), vec![], xid(&q)),
                },
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: emb.clone(),
                },
                Step {
                    justification: Justification::Ged6 {
                        premise: 0,
                        embedded: 1,
                        h: vec![Var(1)],
                    },
                    conclusion: Ged::new("c6", q.clone(), vec![], {
                        let mut y = xid(&q);
                        y.push(Literal::constant(Var(1), sym("T"), 1));
                        y
                    }),
                },
            ],
        };
        proof.check().unwrap();
        let _ = concl;
    }

    #[test]
    fn ged6_rejects_unsatisfied_embedded_premise() {
        // Embedded GED requires u.A = 5, which the goal's X does not give.
        let q = parse_pattern("a(x)").unwrap();
        let q1 = parse_pattern("a(u)").unwrap();
        let emb = Ged::new(
            "e",
            q1,
            vec![Literal::constant(Var(0), sym("A"), 5)],
            vec![Literal::constant(Var(0), sym("T"), 1)],
        );
        let proof = Proof {
            sigma: vec![emb.clone()],
            steps: vec![
                Step {
                    justification: Justification::Ged1 { x: vec![] },
                    conclusion: Ged::new("r", q.clone(), vec![], xid(&q)),
                },
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: emb,
                },
                Step {
                    justification: Justification::Ged6 {
                        premise: 0,
                        embedded: 1,
                        h: vec![Var(0)],
                    },
                    conclusion: Ged::new("c", q.clone(), vec![], {
                        let mut y = xid(&q);
                        y.push(Literal::constant(Var(0), sym("T"), 1));
                        y
                    }),
                },
            ],
        };
        let err = proof.check().unwrap_err();
        assert!(err.message.contains("does not satisfy X1"));
    }

    #[test]
    fn ged6_rejects_label_mismatch() {
        let q = parse_pattern("a(x)").unwrap();
        let q1 = parse_pattern("b(u)").unwrap();
        let emb = Ged::new(
            "e",
            q1,
            vec![],
            vec![Literal::constant(Var(0), sym("T"), 1)],
        );
        let proof = Proof {
            sigma: vec![emb.clone()],
            steps: vec![
                Step {
                    justification: Justification::Ged1 { x: vec![] },
                    conclusion: Ged::new("r", q.clone(), vec![], xid(&q)),
                },
                Step {
                    justification: Justification::Hypothesis(0),
                    conclusion: emb,
                },
                Step {
                    justification: Justification::Ged6 {
                        premise: 0,
                        embedded: 1,
                        h: vec![Var(0)],
                    },
                    conclusion: Ged::new("c", q.clone(), vec![], {
                        let mut y = xid(&q);
                        y.push(Literal::constant(Var(0), sym("T"), 1));
                        y
                    }),
                },
            ],
        };
        assert!(proof.check().is_err());
    }

    #[test]
    fn steps_must_reference_earlier_steps_only() {
        let q = parse_pattern("t(x)").unwrap();
        let g = Ged::new("g", q, vec![], vec![]);
        let proof = Proof {
            sigma: vec![],
            steps: vec![Step {
                justification: Justification::Ged5 { premise: 0 },
                conclusion: g,
            }],
        };
        assert!(proof.check().is_err(), "self/forward reference rejected");
    }
}
