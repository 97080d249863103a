//! The completeness procedure of Theorem 7: from `Σ ⊨ φ` (decided by the
//! chase, Theorem 4) *construct* a machine-checkable proof `Σ ⊢ φ` in
//! A_GED.
//!
//! The construction follows the paper's Claims 1 & 2:
//!
//! 1. start from `Q(X → X ∧ X_id)` (GED1);
//! 2. replay the terminal chasing sequence of `G_Q` by Σ: every chase step
//!    `Eq ⇒(ϕ,h) Eq′` becomes a GED6 application embedding ϕ's pattern via
//!    `h` — the accumulated conclusion set is a literal representation of
//!    `Eq_i` (Claim 1);
//! 3. if the chase was invalid, the accumulated set is inconsistent and
//!    GED5 concludes `Y` (Claim 2 + condition (1) of Theorem 4);
//! 4. otherwise each literal of `Y` is deduced from the final `Eq` by
//!    saturating with GED4 (transitivity through shared terms, including
//!    shared constants) and GED2 (id-literal congruence: merged nodes share
//!    attribute values), conjoining each derived literal back with GED6;
//! 5. finally project to exactly `Y` with derived rule GED7.

use super::derived::ProofBuilder;
use super::{Proof, ProofError};
use crate::ged::Ged;
use crate::literal::Literal;
use crate::reason::implication::implication;
use ged_pattern::Var;
use std::collections::{BTreeSet, HashMap};

/// Attempt to prove `Σ ⊢ φ`. Returns `Ok(None)` when `Σ ⊭ φ` (no proof
/// exists — the system is sound), `Ok(Some(proof))` with a checked proof
/// when `Σ ⊨ φ`.
///
/// `φ` must have a nonempty conclusion set (the sequent `Q(X → ∅)` is
/// trivially valid and carries no information; A_GED derivations always
/// conclude at least one literal).
pub fn prove(sigma: &[Ged], phi: &Ged) -> Result<Option<Proof>, ProofError> {
    assert!(
        !phi.conclusions().is_empty(),
        "completeness: φ must have a nonempty Y"
    );
    let out = implication(sigma, phi);
    if !out.holds {
        return Ok(None);
    }
    let mut b = ProofBuilder::new(sigma.to_vec());
    // (0) Q(X → X ∧ X_id)                             [GED1]
    let mut cur = b.ged1(phi.pattern(), phi.premises().to_vec())?;

    // Replay the chase journal: consecutive entries with the same (GED,
    // match) collapse into one GED6 application (which conjoins the whole
    // h(Y) at once).
    let mut hyp_steps: HashMap<usize, usize> = HashMap::new();
    let mut last_group: Option<(usize, Vec<ged_graph::NodeId>)> = None;
    for entry in out.chase.journal() {
        let group = (entry.ged_idx, entry.assignment.clone());
        if last_group.as_ref() == Some(&(group.0, group.1.clone())) {
            continue;
        }
        last_group = Some((group.0, group.1.clone()));
        let hyp = match hyp_steps.get(&entry.ged_idx) {
            Some(&s) => s,
            None => {
                let s = b.hypothesis(entry.ged_idx)?;
                hyp_steps.insert(entry.ged_idx, s);
                s
            }
        };
        let h: Vec<Var> = entry.assignment.iter().map(|n| Var(n.0)).collect();
        cur = b.ged6(cur, hyp, h)?;
    }

    if out.premise_unsatisfiable || !out.chase.is_consistent() {
        // Claim 2: the accumulated set is inconsistent; GED5 gives Y.
        cur = b.ged5(cur, phi.conclusions().to_vec())?;
        let _ = cur;
        return finish(b);
    }

    // Deduction phase: saturate the accumulated literal set with GED4 and
    // GED2 until every target literal of Y is present.
    let ident: Vec<Var> = phi.pattern().vars().collect();
    let targets: BTreeSet<Literal> = phi.conclusions().iter().cloned().collect();
    loop {
        let have: BTreeSet<Literal> = b.conclusion_of(cur).conclusions().iter().cloned().collect();
        if targets.is_subset(&have) {
            break;
        }
        let Some(derivation) = next_derivable(b.conclusion_of(cur).conclusions()) else {
            return Err(ProofError {
                step: usize::MAX,
                message: "saturation stalled although Σ ⊨ φ — deduction incomplete".into(),
            });
        };
        let single = match derivation {
            Derivation::Trans {
                first,
                second,
                conclusion,
            } => b.ged4(cur, first, second, conclusion)?,
            Derivation::Congruence { id_literal, attr } => b.ged2(cur, id_literal, attr)?,
        };
        cur = b.ged6(cur, single, ident.clone())?;
    }

    // Project to exactly Y.
    b.subset(cur, phi.conclusions().to_vec())?;
    finish(b)
}

fn finish(b: ProofBuilder) -> Result<Option<Proof>, ProofError> {
    let proof = b.finish();
    proof.check()?;
    Ok(Some(proof))
}

enum Derivation {
    Trans {
        first: Literal,
        second: Literal,
        conclusion: Literal,
    },
    Congruence {
        id_literal: Literal,
        attr: ged_graph::Symbol,
    },
}

/// One-step saturation: find a literal derivable from `e` by GED4 or GED2
/// that is not yet in `e`.
fn next_derivable(e: &[Literal]) -> Option<Derivation> {
    use super::{endpoints, literal_from_terms};
    let set: BTreeSet<&Literal> = e.iter().collect();
    // GED4 over pairs sharing a term.
    for (i, l1) in e.iter().enumerate() {
        let (a1, b1) = endpoints(l1);
        for l2 in &e[i + 1..] {
            let (a2, b2) = endpoints(l2);
            for (x1, m1) in [(&a1, &b1), (&b1, &a1)] {
                for (m2, x2) in [(&a2, &b2), (&b2, &a2)] {
                    if m1 == m2 {
                        if let Some(l) = literal_from_terms(x1, x2) {
                            if !set.contains(&l) && !is_trivial(&l) {
                                return Some(Derivation::Trans {
                                    first: l1.clone(),
                                    second: l2.clone(),
                                    conclusion: l,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    // GED2 over id literals × attributes appearing in e.
    for l in e {
        if let Literal::Id { x, y } = l {
            if x == y {
                continue;
            }
            let attrs: BTreeSet<ged_graph::Symbol> = e
                .iter()
                .flat_map(|lit| match lit {
                    Literal::Const { var, attr, .. } => {
                        vec![(*var, *attr)]
                    }
                    Literal::Vars {
                        lvar,
                        lattr,
                        rvar,
                        rattr,
                    } => vec![(*lvar, *lattr), (*rvar, *rattr)],
                    Literal::Id { .. } => vec![],
                })
                .filter(|(v, _)| v == x || v == y)
                .map(|(_, a)| a)
                .collect();
            for attr in attrs {
                let derived = Literal::vars(*x, attr, *y, attr);
                if !set.contains(&derived) {
                    return Some(Derivation::Congruence {
                        id_literal: l.clone(),
                        attr,
                    });
                }
            }
        }
    }
    None
}

/// Literals that add nothing (`t = t`): skip them during saturation, with
/// the exception of id self-literals which GED1 already supplies.
fn is_trivial(l: &Literal) -> bool {
    match l {
        Literal::Vars {
            lvar,
            lattr,
            rvar,
            rattr,
        } => lvar == rvar && lattr == rattr,
        Literal::Id { x, y } => x == y,
        Literal::Const { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::sym;
    use ged_pattern::{fragments, parse_pattern};

    fn q2() -> ged_pattern::Pattern {
        parse_pattern("t(x); t(y)").unwrap()
    }

    fn lit(a: &str) -> Literal {
        Literal::vars(Var(0), sym(a), Var(1), sym(a))
    }

    #[test]
    fn completeness_on_transitivity() {
        let s1 = Ged::new("s1", q2(), vec![lit("A")], vec![lit("B")]);
        let s2 = Ged::new("s2", q2(), vec![lit("B")], vec![lit("C")]);
        let goal = Ged::new("goal", q2(), vec![lit("A")], vec![lit("C")]);
        let proof = prove(&[s1, s2], &goal).unwrap().expect("Σ ⊨ goal");
        proof.check().unwrap();
        assert_eq!(
            format!("{:?}", proof.conclusion().conclusions()),
            format!("{:?}", goal.conclusions())
        );
    }

    #[test]
    fn completeness_returns_none_when_not_implied() {
        let s1 = Ged::new("s1", q2(), vec![lit("A")], vec![lit("B")]);
        let goal = Ged::new("goal", q2(), vec![lit("A")], vec![lit("C")]);
        assert!(prove(&[s1], &goal).unwrap().is_none());
    }

    #[test]
    fn completeness_on_example7() {
        // The paper's Example 7 (Figure 4) end-to-end through the axioms.
        let q1 = fragments::fig4_q1();
        let phi1 = Ged::new(
            "φ1",
            q1,
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let q2f = fragments::fig4_q2();
        let phi2 = Ged::new(
            "φ2",
            q2f,
            vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
            vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
        );
        let q = fragments::fig4_q();
        let phi = Ged::new(
            "ϕ",
            q,
            vec![
                Literal::vars(Var(0), sym("A"), Var(2), sym("A")),
                Literal::vars(Var(1), sym("B"), Var(3), sym("B")),
            ],
            vec![Literal::id(Var(0), Var(2)), Literal::id(Var(1), Var(3))],
        );
        let proof = prove(&[phi1, phi2], &phi)
            .unwrap()
            .expect("Example 7 holds");
        proof.check().unwrap();
        assert!(proof.uses_rule("GED6"), "chase replay uses GED6");
    }

    #[test]
    fn completeness_via_inconsistency_uses_ged5() {
        // The paper's independence witness for GED5: Σ = ∅,
        // φ = Q[x]((x.A = 1) ∧ (x.A = 2) → x.A = 3).
        let q = parse_pattern("t(x)").unwrap();
        let phi = Ged::new(
            "φ",
            q,
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(0), sym("A"), 2),
            ],
            vec![Literal::constant(Var(0), sym("A"), 3)],
        );
        let proof = prove(&[], &phi).unwrap().expect("ex falso");
        proof.check().unwrap();
        assert!(
            proof.uses_rule("GED5"),
            "no other rule can introduce the fresh constant 3"
        );
    }

    #[test]
    fn completeness_uses_ged2_for_id_congruence() {
        // Σ: all t-pairs with equal K merge. φ: merged nodes share A —
        // needs GED2 (id semantics) in the deduction phase.
        let sk = Ged::new(
            "key",
            q2(),
            vec![lit("K")],
            vec![Literal::id(Var(0), Var(1))],
        );
        let phi = Ged::new(
            "φ",
            q2(),
            vec![lit("K"), Literal::vars(Var(0), sym("A"), Var(0), sym("A"))],
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        );
        let proof = prove(&[sk], &phi).unwrap().expect("congruence holds");
        proof.check().unwrap();
        assert!(proof.uses_rule("GED2"));
    }

    #[test]
    fn completeness_transitive_constant_chain() {
        // x.A = 1 and y.B = 1 ⇒ x.A = y.B (shared-constant transitivity,
        // GED4 through the constant term).
        let q = q2();
        let phi = Ged::new(
            "φ",
            q,
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(1), sym("B"), 1),
            ],
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("B"))],
        );
        let proof = prove(&[], &phi).unwrap().expect("holds");
        proof.check().unwrap();
        assert!(proof.uses_rule("GED4"));
    }

    #[test]
    fn soundness_spot_check() {
        // Every step's conclusion of a generated proof is itself implied
        // by Σ (soundness of the whole system, sampled).
        let s1 = Ged::new("s1", q2(), vec![lit("A")], vec![lit("B")]);
        let s2 = Ged::new("s2", q2(), vec![lit("B")], vec![lit("C")]);
        let goal = Ged::new("goal", q2(), vec![lit("A")], vec![lit("C")]);
        let sigma = vec![s1, s2];
        let proof = prove(&sigma, &goal).unwrap().unwrap();
        for step in &proof.steps {
            assert!(
                crate::reason::implies(&sigma, &step.conclusion),
                "unsound step: {}",
                step.conclusion
            );
        }
    }
}
