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
//! of `ged_core::solver` as the leaf oracle decides it. The procedure is
//! exponential in the input — as it must be: the problems are
//! Σᵖ₂-/Πᵖ₂-complete.

use ged_core::rule::{GdcLiteral, Rule};
use ged_core::solver::{consistent, Constraint, Term};
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
fn clauses_for(sigma: &[Rule], g: &Graph) -> Option<Vec<Clause>> {
    let mut clauses = Vec::new();
    for nc in sigma {
        let mut dead = false;
        Matcher::new(&nc.pattern, g, MatchOptions::homomorphism()).for_each(|m| {
            let mut x_cmp = Vec::new();
            let mut x_false = false;
            for lit in nc.premises() {
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
            for opt in nc.options() {
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

/// Satisfiability of a rule set: is there a graph in which every
/// pattern of Σ has a match and every rule holds? GDCs (Theorem 8) and
/// GED∨s (Theorem 9) alike: Σᵖ₂-complete.
pub fn ext_satisfiable(sigma: &[Rule]) -> bool {
    if sigma.is_empty() {
        return true;
    }
    let base = canonical(&sigma.iter().map(|c| &c.pattern).collect::<Vec<_>>());
    for_each_quotient(&base, |q| match clauses_for(sigma, q) {
        Some(clauses) => solve_clauses(&clauses),
        None => false,
    })
}

/// Implication `Σ ⊨ φ` for GDCs (Theorem 8) and GED∨s (Theorem 9) alike:
/// Πᵖ₂-complete, decided as the absence of a bounded countermodel.
pub fn ext_implies(sigma: &[Rule], phi: &Rule) -> bool {
    !has_countermodel(sigma, phi)
}

/// Countermodel search for implication: does there exist a quotient of
/// `G_Qφ` (with values) satisfying Σ, matching φ's pattern through the
/// quotient map with `X` true and every conclusion option refuted?
fn has_countermodel(sigma: &[Rule], phi: &Rule) -> bool {
    let base = phi.pattern.canonical_graph();
    for_each_quotient(&base, |q| {
        // Every match of φ's pattern in the quotient is tried as the
        // refuted match.
        let mut found = false;
        Matcher::new(&phi.pattern, q, MatchOptions::homomorphism()).for_each(|m| {
            // X must hold at this match: id atoms structurally, cmp atoms
            // asserted.
            let mut x_assert = Vec::new();
            let mut x_dead = false;
            for lit in phi.premises() {
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
                    assert: x_assert,
                    missing: vec![],
                }],
            }];
            // ¬Y: every conclusion option must fail. For each option, pick
            // one atom and refute it — by asserting its negation, or by
            // declaring one of its slots absent (schemaless escape; e.g.
            // refuting `x.A = x.A` is only possible by dropping the slot).
            let mut refutable = true;
            for opt in phi.options() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{disj, gdc};
    use ged_core::literal::Literal;
    use ged_core::rule::Pred;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Var};

    #[test]
    fn empty_sigma_is_satisfiable() {
        assert!(ext_satisfiable(&[]));
    }

    #[test]
    fn range_constraints_satisfiable() {
        // 0 ≤ rating ≤ 5 enforced by two denials: satisfiable.
        let q = parse_pattern("product(x)").unwrap();
        let lo = gdc::forbidding(
            "lo",
            q.clone(),
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Lt, 0)],
        );
        let hi = gdc::forbidding(
            "hi",
            q,
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Gt, 5)],
        );
        assert!(ext_satisfiable(&[lo, hi]));
    }

    #[test]
    fn contradictory_window_unsatisfiable() {
        // x.A must exist with A < 1 and A > 2 → empty window, but the
        // constraints DEMAND the attribute via conclusions:
        // Q(∅ → A < 1) and Q(∅ → A > 2).
        let q = parse_pattern("t(x)").unwrap();
        let lt = gdc::new(
            "lt",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 1)],
        );
        let gt = gdc::new(
            "gt",
            q,
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Gt, 2)],
        );
        assert!(!ext_satisfiable(&[lt.clone(), gt.clone()]));
        assert!(ext_satisfiable(&[lt]));
        assert!(ext_satisfiable(&[gt]));
    }

    #[test]
    fn open_window_satisfiable() {
        // A > 1 and A < 2 is fine over a dense order (pick 1.5).
        let q = parse_pattern("t(x)").unwrap();
        let gt = gdc::new(
            "gt",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Gt, 1)],
        );
        let lt = gdc::new(
            "lt",
            q,
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 2)],
        );
        assert!(ext_satisfiable(&[gt, lt]));
    }

    #[test]
    fn forbidding_pattern_is_unsatisfiable_with_strong_semantics() {
        let q = parse_pattern("bad(x)").unwrap();
        let f = gdc::forbidding("f", q, vec![]);
        assert!(!ext_satisfiable(&[f]));
    }

    #[test]
    fn example9_domain_constraint_gdcs_satisfiable() {
        // φ1: Qe[x](∅ → x.A = x.A); φ2: Qe[x](x.A ≠ 0 ∧ x.A ≠ 1 → false).
        let q = parse_pattern("τ(x)").unwrap();
        let phi1 = gdc::new(
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
        let phi2 = gdc::forbidding(
            "φ2",
            q,
            vec![
                GdcLiteral::constant(Var(0), sym("A"), Pred::Ne, 0),
                GdcLiteral::constant(Var(0), sym("A"), Pred::Ne, 1),
            ],
        );
        assert!(ext_satisfiable(&[phi1, phi2]));
    }

    #[test]
    fn example10_disjunctive_domain_constraint_satisfiable() {
        let q = parse_pattern("τ(x)").unwrap();
        let psi = disj::new(
            "ψ",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 0),
                Literal::constant(Var(0), sym("A"), 1),
            ],
        );
        assert!(ext_satisfiable(&[psi]));
    }

    #[test]
    fn disjunctive_false_unsatisfiable() {
        let q = parse_pattern("τ(x)").unwrap();
        let dead = disj::new("dead", q, vec![], vec![]);
        assert!(!ext_satisfiable(&[dead]));
    }

    #[test]
    fn gdc_implication_basics() {
        // Σ: A < 3 (as conclusion). φ: A ≤ 5 — implied.
        let q = parse_pattern("t(x)").unwrap();
        let a_lt3 = gdc::new(
            "a<3",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 3)],
        );
        let a_le5 = gdc::new(
            "a≤5",
            q.clone(),
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Le, 5)],
        );
        let a_lt2 = gdc::new(
            "a<2",
            q,
            vec![],
            vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Lt, 2)],
        );
        assert!(ext_implies(std::slice::from_ref(&a_lt3), &a_le5));
        assert!(!ext_implies(&[a_lt3], &a_lt2));
    }

    #[test]
    fn gdc_implication_with_premises() {
        // Σ: (A > 5 → B = 1). φ: (A > 7 → B = 1) — implied (stronger X).
        let q = parse_pattern("t(x)").unwrap();
        let mk = |name: &str, thr: i64| {
            gdc::new(
                name,
                q.clone(),
                vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Gt, thr)],
                vec![GdcLiteral::constant(Var(0), sym("B"), Pred::Eq, 1)],
            )
        };
        assert!(ext_implies(&[mk("s", 5)], &mk("phi", 7)));
        assert!(!ext_implies(&[mk("s", 7)], &mk("phi", 5)));
    }

    #[test]
    fn disj_implication() {
        // Σ: x.A = 0 ∨ x.A = 1. φ: x.A ≥ 0 … not expressible as GED∨;
        // instead: φ: x.A = 0 ∨ x.A = 1 ∨ x.A = 2 — weaker, implied.
        let q = parse_pattern("τ(x)").unwrap();
        let mk = |name: &str, vals: &[i64]| {
            disj::new(
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
        assert!(ext_implies(std::slice::from_ref(&s01), &s012));
        assert!(!ext_implies(&[s012], &s01));
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
        let sig = [Rule::from(s1.clone()), Rule::from(s2.clone())];
        assert_eq!(
            ext_implies(&sig, &Rule::from(goal.clone())),
            ged_core::reason::implies(&[s1.clone(), s2.clone()], &goal)
        );
        assert_eq!(
            ext_implies(&sig, &Rule::from(not_goal.clone())),
            ged_core::reason::implies(&[s1, s2], &not_goal)
        );
    }

    /// The per-target split `ext_implies` folded in, kept as its
    /// reference: `X → ∅` holds, and a conjunctive `Y` is refuted iff some
    /// one literal of it is, so `Σ ⊨ Q(X → Y)` iff no single-literal
    /// target has a countermodel.
    fn split_implies(sigma: &[Rule], phi: &Rule) -> bool {
        let [y] = phi.options() else {
            panic!("{}: the split needs one conjunctive option", phi.name)
        };
        y.iter().all(|target| {
            let (q, x) = (phi.pattern.clone(), phi.premises().to_vec());
            let single = Rule::new(&phi.name, q, x, vec![vec![target.clone()]]);
            !has_countermodel(sigma, &single)
        })
    }

    mod agreement {
        use super::*;
        use crate::domain::{domain_as_disj, domain_as_gdcs};
        use ged_graph::Value;
        use proptest::TestRng;
        use std::fmt::Write;

        const LABELS: [&str; 2] = ["a", "b"];
        const ATTRS: [&str; 2] = ["A", "B"];

        fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
            from[rng.below(from.len())]
        }

        /// One or two nodes over two labels, the pair maybe joined by an
        /// edge.
        fn pattern(rng: &mut TestRng) -> Pattern {
            let mut q = Pattern::new();
            let x = q.var("x", pick(rng, &LABELS));
            if rng.chance(0.5) {
                let y = q.var("y", pick(rng, &LABELS));
                if rng.chance(0.5) {
                    q.edge(x, "e", y);
                }
            }
            q
        }

        /// `<`, `≤`, `≠` or `=` between an attribute and a constant in
        /// `0..3`, or between two attributes.
        fn literal(rng: &mut TestRng, q: &Pattern) -> GdcLiteral {
            let var = |rng: &mut TestRng| Var(rng.below(q.var_count()) as u32);
            let attr = |rng: &mut TestRng| sym(pick(rng, &ATTRS));
            let pred = pick(rng, &[Pred::Lt, Pred::Le, Pred::Ne, Pred::Eq]);
            let (x, a) = (var(rng), attr(rng));
            if rng.chance(0.6) {
                GdcLiteral::constant(x, a, pred, rng.below(3) as i64)
            } else {
                let (y, b) = (var(rng), attr(rng));
                GdcLiteral::vars(x, a, pred, y, b)
            }
        }

        /// A GDC with up to two premises and up to two conclusions (`X → ∅`
        /// included), or a forbidding one.
        fn gdc_rule(rng: &mut TestRng, name: String) -> Rule {
            let q = pattern(rng);
            let premises = (0..rng.below(3)).map(|_| literal(rng, &q)).collect();
            if rng.chance(0.2) {
                return gdc::forbidding(name, q, premises);
            }
            let y = (0..rng.below(3)).map(|_| literal(rng, &q)).collect();
            gdc::new(name, q, premises, y)
        }

        /// Example 10's domain rule `x.attr ∈ dom` as the GED∨ and as
        /// Example 9's GDC pair.
        fn domain(rng: &mut TestRng) -> (Rule, [Rule; 2]) {
            let (label, attr) = (pick(rng, &LABELS), pick(rng, &ATTRS));
            let dom: Vec<Value> = (0..1 + rng.below(3) as i64)
                .filter(|_| rng.chance(0.8))
                .map(Value::from)
                .collect();
            let dom = if dom.is_empty() {
                vec![Value::from(1)]
            } else {
                dom
            };
            let (exists, within) = domain_as_gdcs(label, attr, &dom);
            (domain_as_disj(label, attr, &dom), [exists, within])
        }

        fn show(sigma: &[Rule], phi: &Rule) -> String {
            let mut out = String::new();
            for r in sigma.iter().chain([phi]) {
                let lits = |ls: &[GdcLiteral]| {
                    ls.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(" ∧ ")
                };
                let options: Vec<String> = r.options().iter().map(|o| lits(o)).collect();
                let (x, y) = (lits(r.premises()), options.join(" | "));
                let _ = writeln!(out, "  {}: {} ({x} → {y})", r.name, r.pattern);
            }
            out
        }

        /// Draw case `seed`: a Σ of one to three GDCs, maybe with an
        /// Example 10 domain GED∨, and φ a GDC or a domain GED∨. Checks
        /// `ext_implies` against the split — run over Σ with each GED∨
        /// replaced by its Example 9 pair, and for a GED∨ φ over both
        /// rules of its pair — and that φ ∈ Σ implies φ. Returns whether
        /// Σ implies φ.
        fn check(seed: u64) -> bool {
            let rng = &mut TestRng::new(seed);
            let mut sigma: Vec<Rule> = (0..1 + rng.below(3))
                .map(|i| gdc_rule(rng, format!("σ{i}")))
                .collect();
            let mut as_gdcs = sigma.clone();
            if rng.chance(0.4) {
                let (psi, pair) = domain(rng);
                sigma.push(psi);
                as_gdcs.extend(pair);
            }
            let (phi, want) = if rng.chance(0.3) {
                let (psi, pair) = domain(rng);
                let want = pair.iter().all(|half| split_implies(&as_gdcs, half));
                (psi, want)
            } else {
                let phi = gdc_rule(rng, "φ".into());
                let want = split_implies(&as_gdcs, &phi);
                (phi, want)
            };
            let got = ext_implies(&sigma, &phi);
            assert_eq!(got, want, "case {seed}:\n{}", show(&sigma, &phi));
            sigma.push(phi.clone());
            assert!(
                ext_implies(&sigma, &phi),
                "case {seed}: φ ∈ Σ must imply φ:\n{}",
                show(&sigma, &phi)
            );
            got
        }

        /// `ext_implies` agrees with the per-target split on generated
        /// small GDC and GED∨ sets.
        #[test]
        fn ext_implies_agrees_with_the_per_target_split() {
            let implied = (0..48).filter(|&seed| check(seed)).count();
            assert!((1..48).contains(&implied), "{implied} of 48 implied");
        }

        /// The same property over 2 000 cases; prints the count and the
        /// time.
        #[test]
        #[ignore = "long: run with --ignored in release"]
        fn ext_implies_agrees_with_the_per_target_split_long() {
            let (cases, start) = (2_000, std::time::Instant::now());
            let implied = (0..cases).filter(|&seed| check(seed)).count();
            let took = start.elapsed();
            println!("{cases} cases agree ({implied} implied) in {took:.2?}");
        }
    }
}
