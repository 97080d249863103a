//! Layer 1: the structural linter. Works on the family-agnostic surface
//! of the [`Constraint`] trait — the pattern, plus the optional
//! [`literal_view`](Constraint::literal_view) — so every family lints for
//! free and opaque third-party constraints degrade to the pattern-level
//! lints instead of false positives.
//!
//! Soundness discipline for inexact views (a GDC's non-`=` literals are
//! dropped from its view): lints that only need the premises *weakened*
//! (constant-conflict detection — a contradictory subset stays
//! contradictory under more premises) run on any view; lints that compare
//! full rule logic (duplicates, conclusion-entailed-by-premises) require
//! `exact` and skip otherwise.

use crate::report::{Diagnostic, LintKind, Severity};
use ged_core::constraint::{Constraint, LiteralView};
use ged_core::literal::{falsum_attr, Literal};
use ged_pattern::Pattern;
use std::collections::{BTreeMap, BTreeSet};

/// Run every structural lint over `sigma`, pushing diagnostics into `out`
/// and recording rules proved dead (can never produce a violation) in
/// `prunable` keyed by Σ index.
pub(crate) fn structural<C: Constraint>(
    sigma: &[C],
    out: &mut Vec<Diagnostic>,
    prunable: &mut BTreeMap<usize, LintKind>,
) {
    let views: Vec<Option<LiteralView>> = sigma.iter().map(Constraint::literal_view).collect();
    for (i, c) in sigma.iter().enumerate() {
        let name = c.name();
        let pattern = c.pattern();
        if let Some(view) = &views[i] {
            unbound_variables(i, name, pattern, view, out);
            if contradictory_premises(i, name, &view.premises, out) {
                prunable.entry(i).or_insert(LintKind::ContradictoryPremises);
            }
            if view.exact {
                if entailed_conclusion(i, name, view, out) {
                    prunable.entry(i).or_insert(LintKind::EntailedConclusion);
                }
                disjunct_lints(i, name, view, out);
            }
        }
        // The family-specific premise-feasibility hook (GDCs run their
        // dense-order oracle here) — same lint class, richer literals.
        if !prunable.contains_key(&i) && !c.premises_feasible() {
            out.push(Diagnostic::rule(
                Severity::Warning,
                LintKind::ContradictoryPremises,
                i,
                name,
                "predicate premises are jointly infeasible — the rule can never fire",
            ));
            prunable.entry(i).or_insert(LintKind::ContradictoryPremises);
        }
        disconnected_pattern(i, name, pattern, out);
        wildcard_cost(i, name, pattern, out);
    }
    duplicate_rules(sigma, &views, out, prunable);
}

/// Error: a literal referencing a variable the pattern does not bind.
fn unbound_variables(
    i: usize,
    name: &str,
    pattern: &Pattern,
    view: &LiteralView,
    out: &mut Vec<Diagnostic>,
) {
    let unbound: BTreeSet<u32> = view
        .literals()
        .filter(|l| !l.in_scope(pattern))
        .flat_map(ged_core::Literal::vars_used)
        .filter(|v| v.idx() >= pattern.var_count())
        .map(|v| v.0)
        .collect();
    if !unbound.is_empty() {
        out.push(Diagnostic::rule(
            Severity::Error,
            LintKind::UnboundVariable,
            i,
            name,
            format!(
                "literal(s) reference variable(s) {:?} but the pattern binds only {} variable(s)",
                unbound,
                pattern.var_count()
            ),
        ));
    }
}

/// Warning: `x.a = c ∧ x.a = c'` with `c ≠ c'` among the premises — the
/// rule can never fire. Sound on inexact views: a contradictory subset of
/// the premises stays contradictory under the dropped (stronger) ones.
fn contradictory_premises(
    i: usize,
    name: &str,
    premises: &[Literal],
    out: &mut Vec<Diagnostic>,
) -> bool {
    let mut seen = BTreeMap::new();
    for l in premises {
        if let Literal::Const { var, attr, value } = l {
            if let Some(prev) = seen.insert((var, attr), value) {
                if prev != value {
                    out.push(Diagnostic::rule(
                        Severity::Warning,
                        LintKind::ContradictoryPremises,
                        i,
                        name,
                        format!(
                            "premises require ?{}.{} = {} and = {} at once — \
                             the rule can never fire",
                            var.0, attr, prev, value
                        ),
                    ));
                    return true;
                }
            }
        }
    }
    false
}

/// Warning: some conclusion option is a subset of the premises, so
/// whenever `X` holds that option holds — the rule can never produce a
/// violation. (An empty conjunctive conclusion is the trivial case.)
/// Exact views only: on an inexact view a dropped option literal would
/// make the subset test spuriously succeed.
fn entailed_conclusion(
    i: usize,
    name: &str,
    view: &LiteralView,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let premises: BTreeSet<&Literal> = view.premises.iter().collect();
    for (oi, option) in view.options.iter().enumerate() {
        // The falsum encoding (`x.⊥ = 0 ∧ x.⊥ = 1`) is the intentional
        // forbidding form, never "entailed".
        if option.iter().any(|l| match l {
            Literal::Const { attr, .. } => *attr == falsum_attr(),
            _ => false,
        }) {
            continue;
        }
        if option.iter().all(|l| premises.contains(l)) {
            let what = if view.options.len() == 1 {
                if option.is_empty() {
                    "the conclusion is empty".to_string()
                } else {
                    "every conclusion literal already appears in the premises".to_string()
                }
            } else {
                format!("disjunct #{oi} is a subset of the premises")
            };
            out.push(Diagnostic::rule(
                Severity::Warning,
                LintKind::EntailedConclusion,
                i,
                name,
                format!("{what} — the rule can never produce a violation"),
            ));
            return true;
        }
    }
    false
}

/// Warnings on disjunctive conclusions: a disjunct repeated verbatim, or
/// a disjunct strictly extending another (it can never decide the
/// disjunction — whenever it holds, the smaller one already does).
fn disjunct_lints(i: usize, name: &str, view: &LiteralView, out: &mut Vec<Diagnostic>) {
    if view.options.len() < 2 {
        return;
    }
    let sets: Vec<BTreeSet<&Literal>> = view.options.iter().map(|o| o.iter().collect()).collect();
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for a in 0..sets.len() {
        for b in 0..sets.len() {
            if a == b || flagged.contains(&b) {
                continue;
            }
            if sets[a] == sets[b] {
                if a < b {
                    flagged.insert(b);
                    out.push(Diagnostic::rule(
                        Severity::Warning,
                        LintKind::DuplicateDisjunct,
                        i,
                        name,
                        format!("disjunct #{b} repeats disjunct #{a}"),
                    ));
                }
            } else if sets[a].is_subset(&sets[b]) {
                flagged.insert(b);
                out.push(Diagnostic::rule(
                    Severity::Warning,
                    LintKind::ShadowedDisjunct,
                    i,
                    name,
                    format!(
                        "disjunct #{b} extends disjunct #{a} and can never \
                         decide the disjunction"
                    ),
                ));
            }
        }
    }
}

/// Note: a pattern with more than one connected component enumerates the
/// cartesian product of the components' match sets. Intentional for GKeys
/// (the disjoint copy construction), hence a note, not a warning.
fn disconnected_pattern(i: usize, name: &str, pattern: &Pattern, out: &mut Vec<Diagnostic>) {
    if pattern.var_count() > 1 && !pattern.is_connected() {
        out.push(Diagnostic::rule(
            Severity::Note,
            LintKind::DisconnectedPattern,
            i,
            name,
            format!(
                "pattern has {} connected components — match enumeration is \
                 their cartesian product",
                pattern.components().len()
            ),
        ));
    }
}

/// Note: a wildcard-labelled variable anchors on every node of the graph.
fn wildcard_cost(i: usize, name: &str, pattern: &Pattern, out: &mut Vec<Diagnostic>) {
    let wild = pattern
        .vars()
        .filter(|v| pattern.label(*v).is_wildcard())
        .count();
    if wild == 0 {
        return;
    }
    out.push(Diagnostic::rule(
        Severity::Note,
        LintKind::WildcardLabel,
        i,
        name,
        format!("{wild} wildcard-labelled variable(s): the candidate domain is every node"),
    ));
}

/// Warning: two rules with structurally identical pattern, premises, and
/// conclusion options (names aside). Exact views only — two GDCs that
/// differ solely in dropped non-`=` literals must not collide.
fn duplicate_rules<C: Constraint>(
    sigma: &[C],
    views: &[Option<LiteralView>],
    out: &mut Vec<Diagnostic>,
    prunable: &mut BTreeMap<usize, LintKind>,
) {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, c) in sigma.iter().enumerate() {
        let Some(view) = &views[i] else { continue };
        if !view.exact {
            continue;
        }
        let key = rule_fingerprint(c.pattern(), view);
        match seen.get(&key) {
            Some(&first) => {
                out.push(Diagnostic::rule(
                    Severity::Warning,
                    LintKind::DuplicateRule,
                    i,
                    c.name(),
                    format!(
                        "identical to rule {}(#{first}) — pattern, premises, \
                         and conclusions all match",
                        sigma[first].name()
                    ),
                ));
                prunable.entry(i).or_insert(LintKind::DuplicateRule);
            }
            None => {
                seen.insert(key, i);
            }
        }
    }
}

/// A structural fingerprint ignoring the rule name and variable names:
/// labels in variable order, edges, normalized premises, normalized
/// options (literal order inside an option and option order are both
/// irrelevant to the semantics).
fn rule_fingerprint(pattern: &Pattern, view: &LiteralView) -> String {
    let labels: Vec<String> = pattern
        .vars()
        .map(|v| pattern.label(v).to_string())
        .collect();
    let mut edges: Vec<String> = pattern
        .pattern_edges()
        .iter()
        .map(|e| format!("{}-[{}]->{}", e.src.0, e.label, e.dst.0))
        .collect();
    edges.sort();
    let norm = |lits: &[Literal]| -> Vec<String> {
        let mut v: Vec<String> = lits.iter().map(|l| format!("{l:?}")).collect();
        v.sort();
        v
    };
    let mut options: Vec<Vec<String>> = view.options.iter().map(|o| norm(o)).collect();
    options.sort();
    format!(
        "{labels:?}|{edges:?}|{:?}|{options:?}",
        norm(&view.premises)
    )
}
