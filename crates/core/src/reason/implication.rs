//! The implication problem (Section 5.2).
//!
//! `Σ ⊨ φ` iff every finite graph satisfying Σ satisfies `φ = Q[x̄](X → Y)`.
//! Theorem 4 characterises it via the chase of the canonical graph `G_Q`
//! seeded with `Eq_X`:
//!
//! > `Σ ⊨ φ` iff (1) `chase(G_Q, Eq_X, Σ)` is inconsistent, or
//! > (2) it is consistent and `Y` can be deduced from its result.
//!
//! Condition (1) covers the case where no match of `Q` in any model of Σ
//! can satisfy `X`; condition (2) is the usual logical consequence.
//! Complexity (Theorem 5): NP-complete for every class of Table 1 — even
//! GFDˣ, because deduction must consider all homomorphic embeddings of
//! Σ's patterns into `G_Q`.

use crate::chase::{chase_from, eq_literal_holds, seed_eq, ChaseResult};
use crate::ged::Ged;
use ged_graph::NodeId;

/// Outcome of an implication check, with the evidence.
#[derive(Debug)]
pub struct ImplicationOutcome {
    /// Does `Σ ⊨ φ` hold?
    pub holds: bool,
    /// Was condition (1) (inconsistent chase) the reason?
    pub premise_unsatisfiable: bool,
    /// Per conclusion literal of φ: was it deduced? (empty when condition
    /// (1) applied).
    pub deduced: Vec<bool>,
    /// The chase that decided the question.
    pub chase: ChaseResult,
}

/// Decide `Σ ⊨ φ` by Theorem 4.
pub fn implication(sigma: &[Ged], phi: &Ged) -> ImplicationOutcome {
    let gq = phi.pattern().canonical_graph();
    // Identity assignment: variable i of φ's pattern is node i of G_Q.
    let ident: Vec<NodeId> = (0..phi.pattern().var_count() as u32).map(NodeId).collect();
    let eq_x = seed_eq(&gq, phi.premises(), &ident);
    let chase = chase_from(&gq, eq_x, sigma);
    match &chase {
        ChaseResult::Inconsistent { .. } => ImplicationOutcome {
            holds: true,
            premise_unsatisfiable: true,
            deduced: Vec::new(),
            chase,
        },
        ChaseResult::Consistent { eq, .. } => {
            let deduced: Vec<bool> = phi
                .conclusions()
                .iter()
                .map(|l| eq_literal_holds(eq, &ident, l))
                .collect();
            let holds = deduced.iter().all(|&b| b);
            ImplicationOutcome {
                holds,
                premise_unsatisfiable: false,
                deduced,
                chase,
            }
        }
    }
}

/// Just the boolean `Σ ⊨ φ`.
pub fn implies(sigma: &[Ged], phi: &Ged) -> bool {
    implication(sigma, phi).holds
}

/// Remove redundant GEDs: a minimal cover `Σ' ⊆ Σ` with `Σ' ⊨ φ` for every
/// dropped `φ` — the paper's motivating application ("the implication
/// analysis serves as an optimization strategy to get rid of redundant
/// rules"). Greedy: try dropping each GED in index order, keep the drop
/// when the rules not yet dropped still imply it. Returns the indices of
/// the dropped GEDs, ascending; the cover is the rest.
pub fn minimize(sigma: &[Ged]) -> Vec<usize> {
    let mut dropped = Vec::new();
    for i in 0..sigma.len() {
        let rest: Vec<Ged> = (0..sigma.len())
            .filter(|j| *j != i && !dropped.contains(j))
            .map(|j| sigma[j].clone())
            .collect();
        if implies(&rest, &sigma[i]) {
            dropped.push(i);
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::Ged;
    use crate::literal::Literal;
    use ged_graph::sym;
    use ged_pattern::{fragments, parse_pattern, Var};

    /// Example 7's Σ = {φ1, φ2} and ϕ (Figure 4).
    fn example7() -> (Vec<Ged>, Ged) {
        let q1 = fragments::fig4_q1();
        let phi1 = Ged::new(
            "φ1",
            q1,
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let q2 = fragments::fig4_q2();
        let phi2 = Ged::new(
            "φ2",
            q2,
            vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
            vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
        );
        let q = fragments::fig4_q();
        let (x1, x2, x3, x4) = (Var(0), Var(1), Var(2), Var(3));
        let phi = Ged::new(
            "ϕ",
            q,
            vec![
                Literal::vars(x1, sym("A"), x3, sym("A")),
                Literal::vars(x2, sym("B"), x4, sym("B")),
            ],
            vec![Literal::id(x1, x3), Literal::id(x2, x4)],
        );
        (vec![phi1, phi2], phi)
    }

    #[test]
    fn example7_implication_holds() {
        let (sigma, phi) = example7();
        let out = implication(&sigma, &phi);
        assert!(out.holds, "Σ ⊨ ϕ (Example 7)");
        assert!(
            !out.premise_unsatisfiable,
            "decided by deduction, not conflict"
        );
        assert_eq!(out.deduced, vec![true, true]);
    }

    #[test]
    fn example7_needs_both_geds() {
        let (sigma, phi) = example7();
        assert!(!implies(&sigma[..1], &phi), "φ1 alone is not enough");
        assert!(!implies(&sigma[1..], &phi), "φ2 alone is not enough");
    }

    #[test]
    fn example7_wildcard_label_coercion() {
        // The chase merges x3 (label a) into [x1] (label _) — the paper's
        // remark on why label comparison uses the asymmetric ⪯.
        let (sigma, phi) = example7();
        let out = implication(&sigma, &phi);
        let ChaseResult::Consistent { eq, .. } = &out.chase else {
            panic!()
        };
        assert!(eq.node_eq(ged_graph::NodeId(0), ged_graph::NodeId(2)));
        assert_eq!(eq.class_label_of(ged_graph::NodeId(0)), sym("a"));
    }

    #[test]
    fn inconsistent_premises_imply_anything() {
        // X = {x.A = 1, x.A = 2} is unsatisfiable → Σ ⊨ φ by condition (1).
        let q = parse_pattern("t(x)").unwrap();
        let phi = Ged::new(
            "φ",
            q,
            vec![
                Literal::constant(Var(0), sym("A"), 1),
                Literal::constant(Var(0), sym("A"), 2),
            ],
            vec![Literal::constant(Var(0), sym("B"), 99)],
        );
        let out = implication(&[], &phi);
        assert!(out.holds);
        assert!(out.premise_unsatisfiable);
    }

    #[test]
    fn reflexivity_and_weakening() {
        // Q(X → X) always holds; Q(X → subset of X) too.
        let q = parse_pattern("t(x); t(y)").unwrap();
        let x_lits = vec![
            Literal::vars(Var(0), sym("A"), Var(1), sym("A")),
            Literal::constant(Var(0), sym("B"), 3),
        ];
        let refl = Ged::new("refl", q.clone(), x_lits.clone(), x_lits.clone());
        assert!(implies(&[], &refl));
        let weak = Ged::new("weak", q, x_lits.clone(), vec![x_lits[0].clone()]);
        assert!(implies(&[], &weak));
    }

    #[test]
    fn transitivity_through_sigma() {
        // Σ = {Q(A=A' → B=B'), Q(B=B' → C=C')} implies Q(A=A' → C=C').
        let q = parse_pattern("t(x); t(y)").unwrap();
        let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
        let s1 = Ged::new("s1", q.clone(), vec![lit("A")], vec![lit("B")]);
        let s2 = Ged::new("s2", q.clone(), vec![lit("B")], vec![lit("C")]);
        let goal = Ged::new("goal", q.clone(), vec![lit("A")], vec![lit("C")]);
        assert!(implies(&[s1.clone(), s2.clone()], &goal));
        assert!(!implies(&[s1], &goal));
    }

    #[test]
    fn pattern_containment_matters() {
        // A GED over a more specific pattern does not imply one over a more
        // general pattern.
        let qs = parse_pattern("person(x) -[create]-> product(y)").unwrap();
        let qg = parse_pattern("person(x); product(y)").unwrap();
        let lit = Literal::vars(Var(0), sym("n"), Var(1), sym("n"));
        let specific = Ged::new("s", qs, vec![], vec![lit.clone()]);
        let general = Ged::new("g", qg, vec![], vec![lit]);
        assert!(
            implies(std::slice::from_ref(&general), &specific),
            "general pattern subsumes the specific one"
        );
        assert!(
            !implies(&[specific], &general),
            "specific pattern does not cover unconnected pairs"
        );
    }

    #[test]
    fn gkey_implication() {
        // ψ2 (title+release key) implies the weaker key with an extra
        // premise (title+release+genre).
        let base = parse_pattern("album(x)").unwrap();
        let psi2 = Ged::gkey("ψ2", &base, Var(0), |_q, o, c| {
            vec![
                Literal::vars(o[0], sym("title"), c[0], sym("title")),
                Literal::vars(o[0], sym("release"), c[0], sym("release")),
            ]
        });
        let weaker = Ged::gkey("ψ2+", &base, Var(0), |_q, o, c| {
            vec![
                Literal::vars(o[0], sym("title"), c[0], sym("title")),
                Literal::vars(o[0], sym("release"), c[0], sym("release")),
                Literal::vars(o[0], sym("genre"), c[0], sym("genre")),
            ]
        });
        assert!(implies(std::slice::from_ref(&psi2), &weaker));
        assert!(!implies(&[weaker], &psi2));
    }

    #[test]
    fn minimize_removes_redundant_rules() {
        let q = parse_pattern("t(x); t(y)").unwrap();
        let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
        let s1 = Ged::new("s1", q.clone(), vec![lit("A")], vec![lit("B")]);
        let s2 = Ged::new("s2", q.clone(), vec![lit("B")], vec![lit("C")]);
        let redundant = Ged::new("r", q.clone(), vec![lit("A")], vec![lit("C")]);
        assert_eq!(minimize(&[s1, s2, redundant]), [2]);
        // An irredundant set survives minimisation intact.
        let q2 = parse_pattern("t(x); t(y)").unwrap();
        let a = Ged::new("a", q2.clone(), vec![lit("A")], vec![lit("B")]);
        let b = Ged::new("b", q2, vec![lit("C")], vec![lit("D")]);
        assert!(minimize(&[a, b]).is_empty());
    }

    #[test]
    fn attribute_existence_implication() {
        // Q[x](∅ → x.A = x.A) implies Q'[x,y](∅ → x.A = x.A) for a pattern
        // with an extra node of the same label.
        let q1 = parse_pattern("t(x)").unwrap();
        let req = Ged::new(
            "req",
            q1,
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(0), sym("A"))],
        );
        let q2 = parse_pattern("t(x); t(y)").unwrap();
        let goal = Ged::new(
            "goal",
            q2,
            vec![],
            vec![
                Literal::vars(Var(0), sym("A"), Var(0), sym("A")),
                Literal::vars(Var(1), sym("A"), Var(1), sym("A")),
            ],
        );
        assert!(implies(&[req], &goal));
    }
}
