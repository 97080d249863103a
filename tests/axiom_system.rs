//! Adversarial tests for the A_GED proof checker: tampered proofs must be
//! rejected (the checker re-verifies every side condition), and displays
//! must render the Example 8 step-table style.

use ged_core::axiom::derived::{prove_augmentation, prove_transitivity, ProofBuilder};
use ged_core::axiom::{xid, Justification, Step};
use ged_repro::prelude::*;

fn q2() -> Pattern {
    parse_pattern("t(x); t(y)").unwrap()
}

fn lit(a: &str) -> Literal {
    Literal::vars(Var(0), sym(a), Var(1), sym(a))
}

/// Swapping a conclusion literal inside a checked proof must break it.
#[test]
fn tampered_conclusion_is_rejected() {
    let phi = Ged::new("φ", q2(), vec![lit("A")], vec![lit("B")]);
    let mut proof = prove_augmentation(&phi, &[lit("C")]).unwrap();
    proof.check().unwrap();
    // Tamper: replace the final conclusion with an unjustified literal.
    let last = proof.steps.len() - 1;
    let c = &proof.steps[last].conclusion;
    proof.steps[last].conclusion = Ged::new(
        "forged",
        c.pattern().clone(),
        c.premises().to_vec(),
        vec![lit("FORGED")],
    );
    assert!(proof.check().is_err(), "forged conclusion must not check");
}

/// Re-pointing a premise index at a different step must break the proof
/// unless the rule's conditions coincidentally hold.
#[test]
fn tampered_premise_reference_is_rejected() {
    let phi1 = Ged::new("φ1", q2(), vec![lit("A")], vec![lit("B")]);
    let phi2 = Ged::new("φ2", q2(), vec![lit("B")], vec![lit("C")]);
    let mut proof = prove_transitivity(&phi1, &phi2).unwrap();
    proof.check().unwrap();
    // Find a GED6 step and make it refer to itself (forward reference).
    let idx = proof
        .steps
        .iter()
        .position(|s| matches!(s.justification, Justification::Ged6 { .. }))
        .expect("transitivity uses GED6");
    if let Justification::Ged6 { premise, .. } = &mut proof.steps[idx].justification {
        *premise = idx; // self-reference
    }
    assert!(proof.check().is_err());
}

/// A hypothesis citation must match Σ exactly.
#[test]
fn forged_hypothesis_is_rejected() {
    let real = Ged::new("real", q2(), vec![lit("A")], vec![lit("B")]);
    let fake = Ged::new("fake", q2(), vec![lit("A")], vec![lit("Z")]);
    let proof = ged_core::axiom::Proof {
        sigma: vec![real],
        steps: vec![Step {
            justification: Justification::Hypothesis(0),
            conclusion: fake,
        }],
    };
    assert!(proof.check().is_err());
}

/// GED6 with a bogus match assignment must be rejected.
#[test]
fn bogus_ged6_match_is_rejected() {
    // Goal pattern a(x); embedded pattern b(u) — no valid h exists.
    let qa = parse_pattern("a(x)").unwrap();
    let qb = parse_pattern("b(u)").unwrap();
    let emb = Ged::new(
        "e",
        qb,
        vec![],
        vec![Literal::constant(Var(0), sym("T"), 1)],
    );
    let mut b = ProofBuilder::new(vec![emb]);
    let base = b.ged1(&qa, vec![]).unwrap();
    let hyp = b.hypothesis(0).unwrap();
    // The builder itself must refuse the invalid embedding.
    assert!(b.ged6(base, hyp, vec![Var(0)]).is_err());
}

/// Proof display renders numbered steps with rule annotations, like the
/// paper's Example 8 tables.
#[test]
fn proof_display_format() {
    let phi = Ged::new("φ", q2(), vec![lit("A")], vec![lit("B")]);
    let proof = prove_augmentation(&phi, &[lit("C")]).unwrap();
    let text = proof.to_string();
    assert!(text.contains("(0)"), "numbered steps");
    assert!(text.contains("GED1"), "rule names");
    assert!(text.contains("GED6"));
    assert!(text.contains("Σ ="), "hypothesis header: {text}");
}

/// xid produces one reflexive id literal per variable.
#[test]
fn xid_shape() {
    let q = q2();
    let lits = xid(&q);
    assert_eq!(lits.len(), 2);
    assert!(lits.iter().all(ged_core::Literal::is_id));
}
