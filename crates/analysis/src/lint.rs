//! Layer 1: the structural linter. Works on a [`Rule`]'s pattern and its
//! premises and conclusion options, so every family lints alike.
//!
//! Two lints read only the rule's *equality fragment*, its `=` and id
//! literals ([`GdcLiteral::as_eq_literal`]): unbound variables, and
//! constant conflicts (a contradictory subset of the premises stays
//! contradictory under the others, whatever their predicates). The lints
//! that compare rule logic — duplicates, conclusion-entailed-by-premises,
//! disjunct shadowing — compare whole literals, predicate included, so
//! they hold for every predicate: a literal entails an identical one.

use crate::report::{Diagnostic, LintKind, Severity};
use ged_core::literal::falsum_attr;
use ged_core::rule::{GdcLiteral, Pred, Rule};
use ged_pattern::Pattern;
use std::collections::{BTreeMap, BTreeSet};

/// Run every structural lint over `sigma`, pushing diagnostics into `out`
/// and recording rules proved dead (can never produce a violation) in
/// `prunable` keyed by Σ index.
pub(crate) fn structural(
    sigma: &[Rule],
    out: &mut Vec<Diagnostic>,
    prunable: &mut BTreeMap<usize, LintKind>,
) {
    for (i, rule) in sigma.iter().enumerate() {
        let (name, pattern) = (rule.name.as_str(), &rule.pattern);
        unbound_variables(i, rule, out);
        if contradictory_premises(i, name, &rule.premises, out) {
            prunable.entry(i).or_insert(LintKind::ContradictoryPremises);
        }
        if entailed_conclusion(i, rule, out) {
            prunable.entry(i).or_insert(LintKind::EntailedConclusion);
        }
        disjunct_lints(i, name, &rule.options, out);
        // The premises' dense-order feasibility (a GDC's `<`, `≤`, …
        // premises included) — same lint class, richer literals.
        if !prunable.contains_key(&i) && !rule.premises_feasible() {
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
    duplicate_rules(sigma, out, prunable);
}

/// Error: a literal of the equality fragment referencing a variable the
/// pattern does not bind.
fn unbound_variables(i: usize, rule: &Rule, out: &mut Vec<Diagnostic>) {
    let pattern = &rule.pattern;
    let unbound: BTreeSet<u32> = rule
        .literals()
        .filter_map(GdcLiteral::as_eq_literal)
        .filter(|l| !l.in_scope(pattern))
        .flat_map(|l| l.vars_used())
        .filter(|v| v.idx() >= pattern.var_count())
        .map(|v| v.0)
        .collect();
    if !unbound.is_empty() {
        out.push(Diagnostic::rule(
            Severity::Error,
            LintKind::UnboundVariable,
            i,
            &rule.name,
            format!(
                "literal(s) reference variable(s) {:?} but the pattern binds only {} variable(s)",
                unbound,
                pattern.var_count()
            ),
        ));
    }
}

/// Warning: `x.a = c ∧ x.a = c'` with `c ≠ c'` among the premises — the
/// rule can never fire. Sound whatever the other premises: a
/// contradictory subset stays contradictory under more premises.
fn contradictory_premises(
    i: usize,
    name: &str,
    premises: &[GdcLiteral],
    out: &mut Vec<Diagnostic>,
) -> bool {
    let mut seen = BTreeMap::new();
    for l in premises {
        if let GdcLiteral::Const {
            var,
            attr,
            pred: Pred::Eq,
            value,
        } = l
        {
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
fn entailed_conclusion(i: usize, rule: &Rule, out: &mut Vec<Diagnostic>) -> bool {
    for (oi, option) in rule.options.iter().enumerate() {
        // The falsum encoding (`x.⊥ = 0 ∧ x.⊥ = 1`) is the intentional
        // forbidding form, never "entailed".
        if option.iter().any(|l| match l {
            GdcLiteral::Const { attr, .. } => *attr == falsum_attr(),
            _ => false,
        }) {
            continue;
        }
        if subset(option, &rule.premises) {
            let what = if rule.options.len() == 1 {
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
                &rule.name,
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
fn disjunct_lints(i: usize, name: &str, options: &[Vec<GdcLiteral>], out: &mut Vec<Diagnostic>) {
    if options.len() < 2 {
        return;
    }
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for a in 0..options.len() {
        for b in 0..options.len() {
            if a == b || flagged.contains(&b) || !subset(&options[a], &options[b]) {
                continue;
            }
            if subset(&options[b], &options[a]) {
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
            } else {
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

/// Does every literal of `a` appear in `b`? Literal order and repeats do
/// not matter: an option and the premises are conjunctions.
fn subset(a: &[GdcLiteral], b: &[GdcLiteral]) -> bool {
    a.iter().all(|l| b.contains(l))
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
/// conclusion options (names aside).
fn duplicate_rules(
    sigma: &[Rule],
    out: &mut Vec<Diagnostic>,
    prunable: &mut BTreeMap<usize, LintKind>,
) {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for (i, rule) in sigma.iter().enumerate() {
        let key = rule_fingerprint(rule);
        match seen.get(&key) {
            Some(&first) => {
                out.push(Diagnostic::rule(
                    Severity::Warning,
                    LintKind::DuplicateRule,
                    i,
                    &rule.name,
                    format!(
                        "identical to rule {}(#{first}) — pattern, premises, \
                         and conclusions all match",
                        sigma[first].name
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
fn rule_fingerprint(rule: &Rule) -> String {
    let pattern = &rule.pattern;
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
    let norm = |lits: &[GdcLiteral]| -> Vec<String> {
        let mut v: Vec<String> = lits.iter().map(|l| format!("{l:?}")).collect();
        v.sort();
        v
    };
    let mut options: Vec<Vec<String>> = rule.options.iter().map(|o| norm(o)).collect();
    options.sort();
    format!(
        "{labels:?}|{edges:?}|{:?}|{options:?}",
        norm(&rule.premises)
    )
}
