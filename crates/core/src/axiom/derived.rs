//! Derived inference rules, built as machine-checked proofs (Example 8).
//!
//! * **GED7** (subset / projection): from `Q(X → Y)` and `Y1 ⊆ Y` derive
//!   `Q(X → Y1)` — Example 8(a);
//! * **augmentation**: from `Q(X → Y)` derive `Q(XZ → YZ)` — Example 8(b),
//!   including the inconsistent-`Eq_{XZ}` branch via GED5;
//! * **transitivity**: from `Q(X → Y)` and `Q(Y → Z)` derive `Q(X → Z)` —
//!   Example 8(c), all three consistency branches;
//! * **reflexivity**: `Q(X → X)` (the Armstrong reflexivity instance).
//!
//! Each function appends steps to a [`ProofBuilder`] and returns the index
//! of the concluding step; the resulting [`Proof`] is independently
//! re-checkable via [`Proof::check`].

use super::{xid, Justification, Proof, ProofError, Step};
use crate::chase::seed_eq;
use crate::ged::Ged;
use crate::literal::Literal;
use ged_graph::NodeId;
use ged_pattern::{Pattern, Var};

/// Incrementally builds a proof, checking each step as it is added so
/// mistakes surface at construction time.
#[derive(Debug)]
pub struct ProofBuilder {
    proof: Proof,
}

impl ProofBuilder {
    /// Start a proof from hypothesis set Σ.
    pub fn new(sigma: Vec<Ged>) -> ProofBuilder {
        ProofBuilder {
            proof: Proof {
                sigma,
                steps: Vec::new(),
            },
        }
    }

    /// The proof so far.
    pub fn proof(&self) -> &Proof {
        &self.proof
    }

    /// Finish, returning the proof.
    pub fn finish(self) -> Proof {
        self.proof
    }

    /// The conclusion GED of a step.
    pub fn conclusion_of(&self, step: usize) -> &Ged {
        &self.proof.steps[step].conclusion
    }

    fn push(&mut self, step: Step) -> Result<usize, ProofError> {
        self.proof.steps.push(step);
        let idx = self.proof.steps.len() - 1;
        if let Err(e) = self.proof.check_last() {
            self.proof.steps.pop();
            return Err(e);
        }
        Ok(idx)
    }

    /// Cite hypothesis `k` of Σ.
    pub fn hypothesis(&mut self, k: usize) -> Result<usize, ProofError> {
        let conclusion = self.proof.sigma[k].clone();
        self.push(Step {
            justification: Justification::Hypothesis(k),
            conclusion,
        })
    }

    /// GED1: `Q(X → X ∧ X_id)`.
    pub fn ged1(&mut self, pattern: &Pattern, x: Vec<Literal>) -> Result<usize, ProofError> {
        let mut y = x.clone();
        y.extend(xid(pattern));
        self.push(Step {
            justification: Justification::Ged1 { x: x.clone() },
            conclusion: Ged::new("ged1", pattern.clone(), x, y),
        })
    }

    /// GED2 on step `premise`.
    pub fn ged2(
        &mut self,
        premise: usize,
        id_literal: Literal,
        attr: ged_graph::Symbol,
    ) -> Result<usize, ProofError> {
        let p = self.conclusion_of(premise).clone();
        let Literal::Id { x, y } = id_literal else {
            return Err(ProofError {
                step: self.proof.steps.len(),
                message: "GED2 requires an id literal".into(),
            });
        };
        let concl = Literal::vars(x, attr, y, attr);
        self.push(Step {
            justification: Justification::Ged2 {
                premise,
                id_literal: Literal::id(x, y),
                attr,
            },
            conclusion: same_premises("ged2", &p, vec![concl]),
        })
    }

    /// GED3 (projection/flip) on step `premise`.
    pub fn ged3(&mut self, premise: usize, literal: Literal) -> Result<usize, ProofError> {
        let p = self.conclusion_of(premise).clone();
        self.push(Step {
            justification: Justification::Ged3 {
                premise,
                literal: literal.clone(),
            },
            conclusion: same_premises("ged3", &p, vec![literal]),
        })
    }

    /// GED4 (transitive link) on step `premise`, concluding `conclusion`.
    pub fn ged4(
        &mut self,
        premise: usize,
        first: Literal,
        second: Literal,
        conclusion: Literal,
    ) -> Result<usize, ProofError> {
        let p = self.conclusion_of(premise).clone();
        self.push(Step {
            justification: Justification::Ged4 {
                premise,
                first,
                second,
            },
            conclusion: same_premises("ged4", &p, vec![conclusion]),
        })
    }

    /// GED5 (ex falso) on step `premise`, concluding arbitrary `y1`.
    pub fn ged5(&mut self, premise: usize, y1: Vec<Literal>) -> Result<usize, ProofError> {
        let p = self.conclusion_of(premise).clone();
        self.push(Step {
            justification: Justification::Ged5 { premise },
            conclusion: same_premises("ged5", &p, y1),
        })
    }

    /// GED6: extend step `premise` with `h(Y1)` of step `embedded`.
    pub fn ged6(
        &mut self,
        premise: usize,
        embedded: usize,
        h: Vec<Var>,
    ) -> Result<usize, ProofError> {
        let p = self.conclusion_of(premise).clone();
        let e = self.conclusion_of(embedded).clone();
        let mut y = p.conclusions().to_vec();
        for lit in e.conclusions() {
            y.push(super::substitute(lit, &h));
        }
        self.push(Step {
            justification: Justification::Ged6 {
                premise,
                embedded,
                h,
            },
            conclusion: same_premises("ged6", &p, y),
        })
    }

    /// Derived GED7 (Example 8(a)): from step `premise` with conclusion
    /// `Q(X → Y)` and a nonempty `Y1 ⊆ Y`, derive `Q(X → Y1)`.
    pub fn subset(&mut self, premise: usize, y1: Vec<Literal>) -> Result<usize, ProofError> {
        assert!(!y1.is_empty(), "derived GED7 needs a nonempty target");
        let p = self.conclusion_of(premise).clone();
        for l in &y1 {
            assert!(
                p.conclusions().contains(l),
                "GED7 target literal {l:?} not in premise Y"
            );
        }
        if !context_consistent(&p) {
            // Inconsistent Eq_X ∪ Eq_Y: GED5 concludes anything.
            return self.ged5(premise, y1);
        }
        // Project each literal with GED3, then conjoin with GED6 using the
        // identity embedding of Q into its own coercion.
        let ident: Vec<Var> = p.pattern().vars().collect();
        let mut acc = self.ged3(premise, y1[0].clone())?;
        for lit in &y1[1..] {
            let single = self.ged3(premise, lit.clone())?;
            acc = self.ged6(acc, single, ident.clone())?;
        }
        Ok(acc)
    }
}

impl Proof {
    /// Check only the most recent step (the builder checks incrementally;
    /// the checker only looks backwards, so checking step `i` in place is
    /// sound).
    fn check_last(&self) -> Result<(), ProofError> {
        let i = self.steps.len() - 1;
        let step = self.steps[i].clone();
        self.check_step(i, &step)
    }
}

/// `Q(X → y)` over the pattern and premises of `p`, the shape of every
/// single-premise rule's conclusion.
fn same_premises(name: &str, p: &Ged, y: Vec<Literal>) -> Ged {
    Ged::new(name, p.pattern().clone(), p.premises().to_vec(), y)
}

/// Is `Eq_X ∪ Eq_Y` of the GED's context consistent?
pub fn context_consistent(g: &Ged) -> bool {
    let gq = g.pattern().canonical_graph();
    let ident: Vec<NodeId> = (0..g.pattern().var_count() as u32).map(NodeId).collect();
    let mut all = g.premises().to_vec();
    all.extend(g.conclusions().iter().cloned());
    seed_eq(&gq, &all, &ident).is_consistent()
}

/// Prove reflexivity `Q(X → X)` (requires nonempty `X`).
pub fn prove_reflexivity(pattern: &Pattern, x: Vec<Literal>) -> Result<Proof, ProofError> {
    assert!(
        !x.is_empty(),
        "reflexivity with empty X is Q(∅ → ∅); use GED1 directly"
    );
    let mut b = ProofBuilder::new(vec![]);
    let s0 = b.ged1(pattern, x.clone())?;
    b.subset(s0, x)?;
    Ok(b.finish())
}

/// Prove augmentation (Example 8(b)): from `φ = Q(X → Y)` derive
/// `Q(XZ → YZ)`.
pub fn prove_augmentation(phi: &Ged, z: &[Literal]) -> Result<Proof, ProofError> {
    let q = phi.pattern();
    let mut xz = phi.premises().to_vec();
    xz.extend(z.iter().cloned());
    let mut yz = phi.conclusions().to_vec();
    yz.extend(z.iter().cloned());
    let mut b = ProofBuilder::new(vec![phi.clone()]);
    // (1) Q(XZ → XZ ∧ X_id)                         [GED1]
    let s1 = b.ged1(q, xz.clone())?;
    // Check the consistency of Eq_{XZ} (together with X_id, which adds
    // nothing): decides which branch of Example 8(b) we are in.
    if !context_consistent(b.conclusion_of(s1)) {
        // (2) Q(XZ → YZ)                             [(1) and GED5]
        b.ged5(s1, yz)?;
        return Ok(b.finish());
    }
    // (2) Q(XZ → XZ)                                [(1) and GED7]
    let s2 = b.subset(s1, xz.clone())?;
    // (3) Q(X → Y)                                  [φ]
    let s3 = b.hypothesis(0)?;
    // (4) Q(XZ → XZ ∧ Y)                            [(2), (3) and GED6]
    let ident: Vec<Var> = q.vars().collect();
    let s4 = b.ged6(s2, s3, ident)?;
    // (5) Q(XZ → YZ)                                [(4) and GED7]
    b.subset(s4, yz)?;
    Ok(b.finish())
}

/// Prove transitivity (Example 8(c)): from `φ1 = Q(X → Y)` and
/// `φ2 = Q(Y → Z)` derive `Q(X → Z)`, handling all three consistency
/// branches.
pub fn prove_transitivity(phi1: &Ged, phi2: &Ged) -> Result<Proof, ProofError> {
    let q = phi1.pattern();
    let x = phi1.premises().to_vec();
    let z = phi2.conclusions().to_vec();
    let mut b = ProofBuilder::new(vec![phi1.clone(), phi2.clone()]);
    // (1) Q(X → X ∧ X_id)                           [GED1]
    let s1 = b.ged1(q, x.clone())?;
    if !context_consistent(b.conclusion_of(s1)) {
        // Eq_X inconsistent: (2) Q(X → Z)            [(1) and GED5]
        b.ged5(s1, z)?;
        return Ok(b.finish());
    }
    // (2) Q(X → X)  — via GED7 when X nonempty; when X is empty, GED1's
    // conclusion X_id plays the role of the carrier directly.
    let carrier = if x.is_empty() {
        s1
    } else {
        b.subset(s1, x.clone())?
    };
    // (3) Q(X → Y)                                  [φ1]
    let s3 = b.hypothesis(0)?;
    // (4) Q(X → carrier ∧ Y)                        [(2), (3) and GED6]
    let ident: Vec<Var> = q.vars().collect();
    let s4 = b.ged6(carrier, s3, ident.clone())?;
    if !context_consistent(b.conclusion_of(s4)) {
        // Eq_X ∪ Eq_Y inconsistent: (5) Q(X → Z)     [(4) and GED5]
        b.ged5(s4, z)?;
        return Ok(b.finish());
    }
    // (5) Q(Y → Z)                                  [φ2]
    let s5 = b.hypothesis(1)?;
    // (6) Q(X → carrier ∧ Y ∧ Z)                    [(4), (5) and GED6]
    let s6 = b.ged6(s4, s5, ident)?;
    // (7) Q(X → Z)                                  [(6) and GED7]
    b.subset(s6, z)?;
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reason::implies;
    use ged_graph::sym;
    use ged_pattern::parse_pattern;

    fn q2() -> Pattern {
        parse_pattern("t(x); t(y)").unwrap()
    }

    fn lit(a: &str) -> Literal {
        Literal::vars(Var(0), sym(a), Var(1), sym(a))
    }

    #[test]
    fn ged7_subset_consistent_branch() {
        let phi = Ged::new(
            "φ",
            q2(),
            vec![lit("A")],
            vec![lit("B"), lit("C"), Literal::id(Var(0), Var(1))],
        );
        let mut b = ProofBuilder::new(vec![phi.clone()]);
        let h = b.hypothesis(0).unwrap();
        let s = b.subset(h, vec![lit("C"), lit("B")]).unwrap();
        let proof = b.finish();
        proof.check().unwrap();
        let concl = &proof.steps[s].conclusion;
        assert_eq!(concl.conclusions().len(), 2);
        // Soundness: the derived GED is semantically implied.
        assert!(implies(&[phi], concl));
    }

    #[test]
    fn ged7_subset_inconsistent_branch_uses_ged5() {
        // Y contains x.A=1 and x.A=2 → Eq_X ∪ Eq_Y inconsistent.
        let q = parse_pattern("t(x)").unwrap();
        let phi = Ged::new(
            "φ",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(0), sym("A"), 2),
            ],
        );
        let mut b = ProofBuilder::new(vec![phi]);
        let h = b.hypothesis(0).unwrap();
        b.subset(h, vec![Literal::constant(Var(0), sym("A"), 1)])
            .unwrap();
        let proof = b.finish();
        proof.check().unwrap();
        assert!(proof.uses_rule("GED5"));
    }

    #[test]
    fn augmentation_matches_armstrong() {
        let phi = Ged::new("φ", q2(), vec![lit("A")], vec![lit("B")]);
        let z = vec![lit("C")];
        let proof = prove_augmentation(&phi, &z).unwrap();
        proof.check().unwrap();
        let concl = proof.conclusion();
        assert_eq!(concl.premises().len(), 2, "XZ");
        assert_eq!(concl.conclusions().len(), 2, "YZ");
        assert!(implies(&[phi], concl), "augmentation is sound");
    }

    #[test]
    fn augmentation_inconsistent_branch() {
        // Z conflicts with X: x.A=1 vs x.A=2 (via constants on the same
        // attribute of the same node).
        let q = parse_pattern("t(x)").unwrap();
        let phi = Ged::new(
            "φ",
            q,
            vec![Literal::constant(Var(0), sym("A"), 1)],
            vec![Literal::constant(Var(0), sym("B"), 1)],
        );
        let z = vec![Literal::constant(Var(0), sym("A"), 2)];
        let proof = prove_augmentation(&phi, &z).unwrap();
        proof.check().unwrap();
        assert!(proof.uses_rule("GED5"), "inconsistent XZ goes through GED5");
        assert!(implies(&[phi], proof.conclusion()));
    }

    #[test]
    fn transitivity_matches_armstrong() {
        let phi1 = Ged::new("φ1", q2(), vec![lit("A")], vec![lit("B")]);
        let phi2 = Ged::new("φ2", q2(), vec![lit("B")], vec![lit("C")]);
        let proof = prove_transitivity(&phi1, &phi2).unwrap();
        proof.check().unwrap();
        let concl = proof.conclusion();
        assert_eq!(lit_names(concl), (vec!["A"], vec!["C"]));
        assert!(implies(&[phi1, phi2], concl), "transitivity is sound");
    }

    #[test]
    fn transitivity_with_empty_x() {
        let phi1 = Ged::new("φ1", q2(), vec![], vec![lit("B")]);
        let phi2 = Ged::new("φ2", q2(), vec![lit("B")], vec![lit("C")]);
        let proof = prove_transitivity(&phi1, &phi2).unwrap();
        proof.check().unwrap();
        assert!(implies(&[phi1, phi2], proof.conclusion()));
    }

    #[test]
    fn transitivity_inconsistent_middle_branch() {
        // φ1's Y introduces x.A=1 while X says x.A=2 → Eq_X ∪ Eq_Y
        // inconsistent at step (4).
        let q = parse_pattern("t(x)").unwrap();
        let phi1 = Ged::new(
            "φ1",
            q.clone(),
            vec![Literal::constant(Var(0), sym("A"), 2)],
            vec![Literal::constant(Var(0), sym("A"), 1)],
        );
        let phi2 = Ged::new(
            "φ2",
            q,
            vec![Literal::constant(Var(0), sym("A"), 1)],
            vec![Literal::constant(Var(0), sym("C"), 9)],
        );
        let proof = prove_transitivity(&phi1, &phi2).unwrap();
        proof.check().unwrap();
        assert!(proof.uses_rule("GED5"));
        assert!(implies(&[phi1, phi2], proof.conclusion()));
    }

    #[test]
    fn reflexivity() {
        let proof = prove_reflexivity(&q2(), vec![lit("A"), lit("B")]).unwrap();
        proof.check().unwrap();
        let c = proof.conclusion();
        assert_eq!(c.premises().len(), 2);
        assert_eq!(c.conclusions().len(), 2);
        assert!(implies(&[], c));
    }

    fn lit_names(g: &Ged) -> (Vec<&'static str>, Vec<&'static str>) {
        let name = |l: &Literal| -> &'static str {
            match l {
                Literal::Vars { lattr, .. } => {
                    // leak is fine in tests
                    Box::leak(lattr.name().into_boxed_str())
                }
                _ => "?",
            }
        };
        (
            g.premises().iter().map(name).collect(),
            g.conclusions().iter().map(name).collect(),
        )
    }
}
