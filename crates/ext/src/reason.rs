//! Satisfiability and implication for GDCs and GED∨s (Theorems 8 & 9) via
//! **bounded model search**.
//!
//! The paper proves small-model properties: a satisfiable GDC set has a
//! model of size ≤ 4·|Σ|³, and a non-implication has a countermodel of
//! size ≤ 2·|φ|·(|φ|+|Σ|+1)². Our search space is tighter and *complete*
//! (argued in DESIGN.md §GDC): it suffices to consider **quotients of the
//! canonical graph** — for satisfiability, quotients of `G_Σ`; for
//! implication countermodels, quotients of `G_Qφ`. Given any model, the
//! substructure induced by the pattern images is a quotient with fewer
//! matches, hence still a model; values transfer unchanged.
//!
//! For each candidate quotient structure the remaining question is an
//! ∃-assignment of attribute values: every `(constraint, match)` pair
//! yields a clause "some premise atom fails, or some conclusion option
//! holds", where atoms are order constraints over attribute *slots* and
//! constants, and premise atoms may also fail by the slot being absent
//! (schemaless graphs!). A DFS over clause choices with the order solver
//! of [`crate::solver`] as the leaf oracle decides it. The procedure is
//! exponential in the input — as it must be: the problems are
//! Σᵖ₂-/Πᵖ₂-complete.

use crate::disj::DisjGed;
use crate::gdc::{Gdc, GdcLiteral};
use crate::sigma::SigmaConstraint;
use crate::solver::{consistent, Constraint, Term};
use ged_graph::{Graph, NodeId, Symbol};
use ged_pattern::{MatchOptions, Matcher, Pattern};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

type Slot = (NodeId, Symbol);

/// A literal resolved at a concrete match of the candidate structure.
enum Resolved {
    True,
    False,
    Cmp(Constraint),
}

fn resolve(lit: &GdcLiteral, m: &[NodeId]) -> Resolved {
    match lit {
        GdcLiteral::Id { x, y } => {
            if m[x.idx()] == m[y.idx()] {
                Resolved::True
            } else {
                Resolved::False
            }
        }
        GdcLiteral::Const {
            var,
            attr,
            pred,
            value,
        } => Resolved::Cmp(Constraint::new(
            Term::Slot(m[var.idx()], *attr),
            *pred,
            Term::Cst(value.clone()),
        )),
        GdcLiteral::Vars {
            lvar,
            lattr,
            pred,
            rvar,
            rattr,
        } => Resolved::Cmp(Constraint::new(
            Term::Slot(m[lvar.idx()], *lattr),
            *pred,
            Term::Slot(m[rvar.idx()], *rattr),
        )),
    }
}

fn slots_of(c: &Constraint) -> Vec<Slot> {
    let mut out = Vec::new();
    for t in [&c.lhs, &c.rhs] {
        if let Term::Slot(n, a) = t {
            out.push((*n, *a));
        }
    }
    out
}

/// One way to discharge a clause's conclusion side: assert constraints
/// and/or declare slots absent.
#[derive(Debug, Clone)]
struct ClauseOption {
    assert: Vec<Constraint>,
    missing: Vec<Slot>,
}

/// One clause of the ∃-assignment problem for a candidate structure.
#[derive(Debug)]
struct Clause {
    /// Premise comparison atoms (structurally-true ids removed; a
    /// structurally-false id drops the whole clause before this point).
    /// The clause is discharged by falsifying one of these (negation or
    /// slot absence) …
    x_cmp: Vec<Constraint>,
    /// … or by committing to one of these options.
    y_options: Vec<ClauseOption>,
}

/// Build the clause set for `sigma` over candidate structure `g`.
/// Returns `None` if some clause is already unsatisfiable structurally
/// (no premises to fail and no viable option).
fn clauses_for(sigma: &[SigmaConstraint], g: &Graph) -> Option<Vec<Clause>> {
    let mut clauses = Vec::new();
    for nc in sigma {
        let mut dead = false;
        Matcher::new(&nc.pattern, g, MatchOptions::homomorphism()).for_each(|m| {
            let mut x_cmp = Vec::new();
            let mut x_false = false;
            for lit in &nc.premises {
                match resolve(lit, m) {
                    Resolved::True => {}
                    Resolved::False => {
                        x_false = true;
                        break;
                    }
                    Resolved::Cmp(c) => x_cmp.push(c),
                }
            }
            if x_false {
                return ControlFlow::Continue(());
            }
            let mut y_options = Vec::new();
            let mut auto_sat = false;
            for opt in &nc.options {
                let mut atoms = Vec::new();
                let mut opt_dead = false;
                for lit in opt {
                    match resolve(lit, m) {
                        Resolved::True => {}
                        Resolved::False => {
                            opt_dead = true;
                            break;
                        }
                        Resolved::Cmp(c) => atoms.push(c),
                    }
                }
                if opt_dead {
                    continue;
                }
                if atoms.is_empty() {
                    // An option with no residual atoms holds outright.
                    auto_sat = true;
                    break;
                }
                y_options.push(ClauseOption {
                    assert: atoms,
                    missing: vec![],
                });
            }
            if auto_sat {
                return ControlFlow::Continue(());
            }
            if x_cmp.is_empty() && y_options.is_empty() {
                dead = true;
                return ControlFlow::Break(());
            }
            clauses.push(Clause { x_cmp, y_options });
            ControlFlow::Continue(())
        });
        if dead {
            return None;
        }
    }
    Some(clauses)
}

/// DFS over clause choices; leaf oracle = order-solver consistency plus
/// missing/present slot coherence.
fn solve_clauses(clauses: &[Clause]) -> bool {
    fn ok(asserted: &[Constraint], missing: &BTreeSet<Slot>) -> bool {
        for c in asserted {
            for s in slots_of(c) {
                if missing.contains(&s) {
                    return false;
                }
            }
        }
        consistent(asserted)
    }

    fn dfs(
        clauses: &[Clause],
        i: usize,
        asserted: &mut Vec<Constraint>,
        missing: &mut BTreeSet<Slot>,
    ) -> bool {
        if !ok(asserted, missing) {
            return false;
        }
        let Some(clause) = clauses.get(i) else {
            return true;
        };
        // Choice 1: falsify a premise atom by negation.
        for a in &clause.x_cmp {
            let neg = Constraint::new(a.lhs.clone(), a.pred.negate(), a.rhs.clone());
            asserted.push(neg);
            if dfs(clauses, i + 1, asserted, missing) {
                return true;
            }
            asserted.pop();
        }
        // Choice 2: falsify a premise atom by slot absence.
        let mut tried: BTreeSet<Slot> = BTreeSet::new();
        for a in &clause.x_cmp {
            for s in slots_of(a) {
                if !tried.insert(s) {
                    continue;
                }
                let fresh = missing.insert(s);
                if dfs(clauses, i + 1, asserted, missing) {
                    return true;
                }
                if fresh {
                    missing.remove(&s);
                }
            }
        }
        // Choice 3: commit to some conclusion option wholesale.
        for opt in &clause.y_options {
            let before = asserted.len();
            asserted.extend(opt.assert.iter().cloned());
            let fresh: Vec<Slot> = opt
                .missing
                .iter()
                .filter(|s| missing.insert(**s))
                .copied()
                .collect();
            if dfs(clauses, i + 1, asserted, missing) {
                return true;
            }
            asserted.truncate(before);
            for s in fresh {
                missing.remove(&s);
            }
        }
        false
    }

    let mut asserted = Vec::new();
    let mut missing = BTreeSet::new();
    dfs(clauses, 0, &mut asserted, &mut missing)
}

/// Enumerate label-compatible partitions of the nodes of `base` (classes
/// may not contain two distinct non-wildcard labels), yielding each
/// quotient structure.
fn for_each_quotient(base: &Graph, mut f: impl FnMut(&Graph) -> bool) -> bool {
    let n = base.node_count();
    if n == 0 {
        return f(base);
    }
    // restricted-growth-string enumeration
    let labels: Vec<Symbol> = base.nodes().map(|v| base.label(v)).collect();
    let mut assign = vec![0u32; n];
    fn rec(
        base: &Graph,
        labels: &[Symbol],
        assign: &mut Vec<u32>,
        class_label: &mut Vec<Symbol>,
        i: usize,
        f: &mut impl FnMut(&Graph) -> bool,
    ) -> bool {
        let n = labels.len();
        if i == n {
            let k = class_label.len();
            let attrs = vec![std::collections::BTreeMap::new(); k];
            let q = base.quotient(assign, k, class_label, attrs);
            return f(&q);
        }
        let li = labels[i];
        for c in 0..class_label.len() {
            let cl = class_label[c];
            // label compatibility under ⪯: at most one concrete label
            let merged = if cl.is_wildcard() {
                Some(li)
            } else if li.is_wildcard() || li == cl {
                Some(cl)
            } else {
                None
            };
            if let Some(ml) = merged {
                let old = class_label[c];
                class_label[c] = ml;
                assign[i] = c as u32;
                if rec(base, labels, assign, class_label, i + 1, f) {
                    return true;
                }
                class_label[c] = old;
            }
        }
        // new class
        class_label.push(li);
        assign[i] = (class_label.len() - 1) as u32;
        let done = rec(base, labels, assign, class_label, i + 1, f);
        class_label.pop();
        done
    }
    let mut class_label = Vec::new();
    rec(base, &labels, &mut assign, &mut class_label, 0, &mut f)
}

/// Canonical graph of a constraint set: disjoint union of the patterns.
fn canonical(patterns: &[&Pattern]) -> Graph {
    let mut g = Graph::new();
    for p in patterns {
        g.append(&p.canonical_graph());
    }
    g
}

/// Decide satisfiability of a set of compiled rules (the engine behind
/// [`gdc_satisfiable`] and [`disj_satisfiable`]; Σᵖ₂ in general).
pub fn ext_satisfiable(sigma: &[SigmaConstraint]) -> bool {
    if sigma.is_empty() {
        return true;
    }
    let base = canonical(&sigma.iter().map(|c| &c.pattern).collect::<Vec<_>>());
    for_each_quotient(&base, |q| match clauses_for(sigma, q) {
        Some(clauses) => solve_clauses(&clauses),
        None => false,
    })
}

/// Satisfiability for GDC sets (Theorem 8: Σᵖ₂-complete).
pub fn gdc_satisfiable(sigma: &[Gdc]) -> bool {
    ext_satisfiable(&compile(sigma))
}

/// Satisfiability for GED∨ sets (Theorem 9: Σᵖ₂-complete).
pub fn disj_satisfiable(sigma: &[DisjGed]) -> bool {
    ext_satisfiable(&compile(sigma))
}

/// Σ in the served form the searches run on.
fn compile<C: Clone + Into<SigmaConstraint>>(sigma: &[C]) -> Vec<SigmaConstraint> {
    sigma.iter().cloned().map(Into::into).collect()
}

/// Countermodel search for implication: does there exist a quotient of
/// `G_Qφ` (with values) satisfying Σ, matching φ's pattern through the
/// quotient map with `X` true and the conclusion refuted? `refute`
/// produces, per quotient match, the clause encodings of `¬Y` choices.
fn has_countermodel(
    sigma: &[SigmaConstraint],
    phi_pattern: &Pattern,
    phi_premises: &[GdcLiteral],
    phi_options: &[Vec<GdcLiteral>],
) -> bool {
    let base = phi_pattern.canonical_graph();
    for_each_quotient(&base, |q| {
        // The quotient map as a match of φ's pattern: variable i of the
        // pattern went to some class; recover it by re-quotient lookup —
        // the quotient enumerator assigns class c to node i via `assign`,
        // but we only get the graph here. Recompute: node i of `base`
        // corresponds to class `assign[i]`; since we cannot see `assign`,
        // use matching instead: any match works, but the *canonical* one
        // is found by seeding every variable. Simpler and still complete:
        // try every match of φ's pattern in the quotient as the refuted
        // match.
        let mut found = false;
        Matcher::new(phi_pattern, q, MatchOptions::homomorphism()).for_each(|m| {
            // X must hold at this match: id atoms structurally, cmp atoms
            // asserted.
            let mut x_assert = Vec::new();
            let mut x_dead = false;
            for lit in phi_premises {
                match resolve(lit, m) {
                    Resolved::True => {}
                    Resolved::False => {
                        x_dead = true;
                        break;
                    }
                    Resolved::Cmp(c) => x_assert.push(c),
                }
            }
            if x_dead {
                return ControlFlow::Continue(());
            }
            // Force X to hold at this match: a clause whose only
            // discharge is asserting all of X's comparison atoms.
            let mut extra: Vec<Clause> = vec![Clause {
                x_cmp: vec![],
                y_options: vec![ClauseOption {
                    assert: x_assert.clone(),
                    missing: vec![],
                }],
            }];
            // ¬Y: every conclusion option must fail. For each option, pick
            // one atom and refute it — by asserting its negation, or by
            // declaring one of its slots absent (schemaless escape; e.g.
            // refuting `x.A = x.A` is only possible by dropping the slot).
            let mut refutable = true;
            for opt in phi_options {
                let mut structurally_failed = false;
                let mut resolved_atoms = Vec::new();
                for lit in opt {
                    match resolve(lit, m) {
                        Resolved::True => {}
                        Resolved::False => {
                            structurally_failed = true;
                            break;
                        }
                        Resolved::Cmp(c) => resolved_atoms.push(c),
                    }
                }
                if structurally_failed {
                    continue; // this option already fails
                }
                if resolved_atoms.is_empty() {
                    // option holds structurally → cannot refute here
                    refutable = false;
                    break;
                }
                let mut fail_choices: Vec<ClauseOption> = Vec::new();
                for a in &resolved_atoms {
                    fail_choices.push(ClauseOption {
                        assert: vec![Constraint::new(
                            a.lhs.clone(),
                            a.pred.negate(),
                            a.rhs.clone(),
                        )],
                        missing: vec![],
                    });
                    for s in slots_of(a) {
                        fail_choices.push(ClauseOption {
                            assert: vec![],
                            missing: vec![s],
                        });
                    }
                }
                extra.push(Clause {
                    x_cmp: vec![],
                    y_options: fail_choices,
                });
            }
            if !refutable {
                return ControlFlow::Continue(());
            }
            // Σ's clauses on this quotient.
            let Some(mut clauses) = clauses_for(sigma, q) else {
                return ControlFlow::Continue(());
            };
            clauses.extend(extra);
            if solve_clauses(&clauses) {
                found = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        found
    })
}

/// Implication `Σ ⊨ φ` for GDCs (Theorem 8: Πᵖ₂-complete). Decided as the
/// absence of a bounded countermodel. A conjunctive conclusion `Y` is
/// refuted iff *some* literal of `Y` fails, so a countermodel exists iff
/// one exists for some single-literal target.
pub fn gdc_implies(sigma: &[Gdc], phi: &Gdc) -> bool {
    if phi.conclusions.is_empty() {
        return true; // X → ∅ holds vacuously
    }
    let sig = compile(sigma);
    !phi.conclusions
        .iter()
        .any(|target| has_countermodel(&sig, &phi.pattern, &phi.premises, &[vec![target.clone()]]))
}

/// Implication `Σ ⊨ ψ` for GED∨s (Theorem 9: Πᵖ₂-complete): the
/// countermodel must refute EVERY disjunct at the witness match.
pub fn disj_implies(sigma: &[DisjGed], phi: &DisjGed) -> bool {
    let phi = SigmaConstraint::from(phi.clone());
    !has_countermodel(&compile(sigma), &phi.pattern, &phi.premises, &phi.options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdc::GdcLiteral;
    use crate::predicate::Pred;
    use ged_core::literal::Literal;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Var};

    #[test]
    fn empty_sigma_is_satisfiable() {
        assert!(gdc_satisfiable(&[]));
        assert!(disj_satisfiable(&[]));
    }

    #[test]
    fn range_constraints_satisfiable() {
        // 0 ≤ rating ≤ 5 enforced by two denials: satisfiable.
        let q = parse_pattern("product(x)").unwrap();
        let lo = Gdc::forbidding(
            "lo",
            q.clone(),
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Lt, 0)],
        );
        let hi = Gdc::forbidding(
            "hi",
            q,
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Gt, 5)],
        );
        assert!(gdc_satisfiable(&[lo, hi]));
    }

    #[test]
    fn contradictory_window_unsatisfiable() {
        // x.A must exist with A < 1 and A > 2 → empty window, but the
        // constraints DEMAND the attribute via conclusions:
        // Q(∅ → A < 1) and Q(∅ → A > 2).
        let q = parse_pattern("t(x)").unwrap();
        let lt = Gdc::new(
            "lt",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 1)],
        );
        let gt = Gdc::new(
            "gt",
            q,
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Gt, 2)],
        );
        assert!(!gdc_satisfiable(&[lt.clone(), gt.clone()]));
        assert!(gdc_satisfiable(&[lt]));
        assert!(gdc_satisfiable(&[gt]));
    }

    #[test]
    fn open_window_satisfiable() {
        // A > 1 and A < 2 is fine over a dense order (pick 1.5).
        let q = parse_pattern("t(x)").unwrap();
        let gt = Gdc::new(
            "gt",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Gt, 1)],
        );
        let lt = Gdc::new(
            "lt",
            q,
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 2)],
        );
        assert!(gdc_satisfiable(&[gt, lt]));
    }

    #[test]
    fn forbidding_pattern_is_unsatisfiable_with_strong_semantics() {
        let q = parse_pattern("bad(x)").unwrap();
        let f = Gdc::forbidding("f", q, vec![]);
        assert!(!gdc_satisfiable(&[f]));
    }

    #[test]
    fn example9_domain_constraint_gdcs_satisfiable() {
        // φ1: Qe[x](∅ → x.A = x.A); φ2: Qe[x](x.A ≠ 0 ∧ x.A ≠ 1 → false).
        let q = parse_pattern("τ(x)").unwrap();
        let phi1 = Gdc::new(
            "φ1",
            q.clone(),
            vec![],
            vec![GdcLiteral::vars(
                Var(0),
                sym("A"),
                Pred::Eq,
                Var(0),
                sym("A"),
            )],
        );
        let phi2 = Gdc::forbidding(
            "φ2",
            q,
            vec![
                GdcLiteral::constant(Var(0), sym("A"), Pred::Ne, 0),
                GdcLiteral::constant(Var(0), sym("A"), Pred::Ne, 1),
            ],
        );
        assert!(gdc_satisfiable(&[phi1, phi2]));
    }

    #[test]
    fn example10_disjunctive_domain_constraint_satisfiable() {
        let q = parse_pattern("τ(x)").unwrap();
        let psi = DisjGed::new(
            "ψ",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 0),
                Literal::constant(Var(0), sym("A"), 1),
            ],
        );
        assert!(disj_satisfiable(&[psi]));
    }

    #[test]
    fn disjunctive_false_unsatisfiable() {
        let q = parse_pattern("τ(x)").unwrap();
        let dead = DisjGed::new("dead", q, vec![], vec![]);
        assert!(!disj_satisfiable(&[dead]));
    }

    #[test]
    fn gdc_implication_basics() {
        // Σ: A < 3 (as conclusion). φ: A ≤ 5 — implied.
        let q = parse_pattern("t(x)").unwrap();
        let a_lt3 = Gdc::new(
            "a<3",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 3)],
        );
        let a_le5 = Gdc::new(
            "a≤5",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Le, 5)],
        );
        let a_lt2 = Gdc::new(
            "a<2",
            q,
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 2)],
        );
        assert!(gdc_implies(std::slice::from_ref(&a_lt3), &a_le5));
        assert!(!gdc_implies(&[a_lt3], &a_lt2));
    }

    #[test]
    fn gdc_implication_with_premises() {
        // Σ: (A > 5 → B = 1). φ: (A > 7 → B = 1) — implied (stronger X).
        let q = parse_pattern("t(x)").unwrap();
        let mk = |name: &str, thr: i64| {
            Gdc::new(
                name,
                q.clone(),
                vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Gt, thr)],
                vec![GdcLiteral::constant(Var(0), sym("B"), Pred::Eq, 1)],
            )
        };
        assert!(gdc_implies(&[mk("s", 5)], &mk("phi", 7)));
        assert!(!gdc_implies(&[mk("s", 7)], &mk("phi", 5)));
    }

    #[test]
    fn disj_implication() {
        // Σ: x.A = 0 ∨ x.A = 1. φ: x.A ≥ 0 … not expressible as GED∨;
        // instead: φ: x.A = 0 ∨ x.A = 1 ∨ x.A = 2 — weaker, implied.
        let q = parse_pattern("τ(x)").unwrap();
        let mk = |name: &str, vals: &[i64]| {
            DisjGed::new(
                name,
                q.clone(),
                vec![],
                vals.iter()
                    .map(|&v| Literal::constant(Var(0), sym("A"), v))
                    .collect(),
            )
        };
        let s01 = mk("s01", &[0, 1]);
        let s012 = mk("s012", &[0, 1, 2]);
        assert!(disj_implies(std::slice::from_ref(&s01), &s012));
        assert!(!disj_implies(&[s012], &s01));
    }

    #[test]
    fn ged_special_case_agrees_with_core_implication() {
        // Lift plain GEDs to GDCs: the bounded search must agree with the
        // chase-based decision on equality-only instances.
        use ged_core::ged::Ged;
        let q = parse_pattern("t(x); t(y)").unwrap();
        let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
        let s1 = Ged::new("s1", q.clone(), vec![lit("A")], vec![lit("B")]);
        let s2 = Ged::new("s2", q.clone(), vec![lit("B")], vec![lit("C")]);
        let goal = Ged::new("goal", q.clone(), vec![lit("A")], vec![lit("C")]);
        let not_goal = Ged::new("ng", q, vec![lit("A")], vec![lit("D")]);
        let sig: Vec<Gdc> = [&s1, &s2].iter().map(|g| Gdc::from_ged(g)).collect();
        assert_eq!(
            gdc_implies(&sig, &Gdc::from_ged(&goal)),
            ged_core::reason::implies(&[s1.clone(), s2.clone()], &goal)
        );
        assert_eq!(
            gdc_implies(&sig, &Gdc::from_ged(&not_goal)),
            ged_core::reason::implies(&[s1, s2], &not_goal)
        );
    }
}
