//! The engine's work unit and the two passes built from it, both run on
//! the caller's thread:
//!
//! * a **work unit** is a `(constraint, anchor variable, seeds)` triple,
//!   enumerated with [`Matcher::for_each_anchored_in`] through `run_unit`;
//! * `full_pass` seeds a validator: per rule, one unit anchored on the
//!   rule's most selective **pivot** variable over the pivot's whole
//!   candidate list, excluding nothing;
//! * the delta path ([`validator`](crate::validator)) runs one unit per
//!   `(rule, anchor variable)` over the rule's own touched nodes, with an
//!   exclusion closure that keeps each affected match to one anchoring.
//!
//! Every unit runs with the validator's one match scratch and batch
//! tally, so the matcher allocates nothing in steady state and the hot
//! loop touches no atomic.
//!
//! [`Matcher::for_each_anchored_in`]: ged_pattern::Matcher::for_each_anchored_in

use crate::metrics::{BatchTally, Phase};
use ged_core::constraint::ViolationKind;
use ged_core::rule::{GdcLiteral, Pred, Rule};
use ged_graph::{Graph, NodeId};
use ged_obs::{CellRecorder, NOOP};
use ged_pattern::{Match, MatchOptions, MatchPlan, MatchRecorder, MatchScratch, Matcher, Var};
use std::ops::ControlFlow;

/// One violating match as the passes collect it: the constraint's index
/// in Σ, the match, and why it violates.
pub(crate) type Found = (usize, Match, ViolationKind);

/// Compile one rule's [`MatchPlan`]: the pattern's rooted search orders
/// and degree requirements, with the premise literals the matcher can
/// check pushed in as candidate pre-filters — constant premises `x.A = c`
/// ([`MatchPlan::require_attr`]) and equality premises `x.A = y.B`
/// ([`MatchPlan::require_attr_eq`]). Premises with any other predicate
/// stay with `check`. Done once per rule, at construction.
///
/// Sound for violation enumeration: `check` reports a violation only when
/// every premise holds at the match, and each filter decides exactly what
/// [`GdcLiteral::holds`] decides for its `=` premise, so a match a filter
/// refuses can never witness one; `check` still runs on every survivor.
pub fn rule_plan(rule: &Rule) -> MatchPlan {
    let mut plan = MatchPlan::new(&rule.pattern);
    for lit in &rule.premises {
        match lit {
            GdcLiteral::Const {
                var,
                attr,
                pred: Pred::Eq,
                value,
            } => plan.require_attr(*var, *attr, value.clone()),
            GdcLiteral::Vars {
                lvar,
                lattr,
                pred: Pred::Eq,
                rvar,
                rattr,
            } => plan.require_attr_eq(*lvar, *lattr, *rvar, *rattr),
            _ => {}
        }
    }
    plan
}

/// Enumerate the violating matches of one unit `(ci, anchor, seeds)` — the
/// matches of rule `ci` that map `anchor` into `seeds` and no other
/// variable `u` to a node `n` with `excluded(u, n)` — each exactly once,
/// onto `out`. The one anchored enumerator of the engine: the full pass
/// excludes nothing (`|_, _| false` monomorphises the test away), the
/// delta path excludes the footprint from the variables declared before
/// the anchor (see [`validator`](crate::validator)).
///
/// The matcher borrows the rule's `plan` ([`rule_plan`]) and writes
/// candidate sets into `scratch`, so steady-state enumeration allocates
/// nothing; its hot loop reports to `recorder`.
fn check_unit<R: MatchRecorder>(
    g: &Graph,
    (c, plan): (&Rule, &MatchPlan),
    (ci, anchor, seeds): (usize, Var, &[NodeId]),
    excluded: &impl Fn(Var, NodeId) -> bool,
    scratch: &mut MatchScratch,
    recorder: &R,
    out: &mut Vec<Found>,
) {
    let pattern = &c.pattern;
    let matcher = Matcher::with_plan(plan, pattern, g, MatchOptions::homomorphism(), recorder);
    matcher.for_each_anchored_in(scratch, anchor, seeds, excluded, |m| {
        debug_assert!(
            pattern
                .vars()
                .all(|u| u == anchor || !excluded(u, m[u.idx()])),
            "the exclusions let through only matches the anchor owns"
        );
        if let Some(kind) = c.check(g, m) {
            out.push((ci, m.to_vec(), kind));
        }
        ControlFlow::Continue(())
    });
}

/// Run one unit of `phase` (seeding or re-enumeration), observed or not:
/// with instrumentation on, a per-unit [`CellRecorder`] and one clock
/// read — the unit starts where the caller's last lap ended — tally the
/// unit into the batch tally; off, the no-op recorder compiles the hooks
/// away and no clock is read. Every pass goes through here, so this is
/// the engine's one instrumented/uninstrumented fork.
pub(crate) fn run_unit(
    g: &Graph,
    rule: (&Rule, &MatchPlan),
    unit: (usize, Var, &[NodeId]),
    excluded: &impl Fn(Var, NodeId) -> bool,
    phase: Phase,
    (tally, scratch): &mut (BatchTally, MatchScratch),
    out: &mut Vec<Found>,
) {
    if !tally.enabled {
        return check_unit(g, rule, unit, excluded, scratch, &NOOP, out);
    }
    let recorder = CellRecorder::new();
    let before = out.len();
    check_unit(g, rule, unit, excluded, scratch, &recorder, out);
    tally.unit(phase, unit.0, &recorder, (out.len() - before) as u64);
}

/// The from-scratch pass: every violating match of every rule of Σ, empty
/// patterns first, then the rest in Σ order. Each rule runs one unit
/// anchored on its most selective **pivot** variable (fewest label
/// candidates) over the pivot's whole candidate list: every match maps
/// the pivot to exactly one candidate, so the unit visits every match
/// once. A rule whose pivot has no candidate runs no unit. `plans[i]` is
/// [`rule_plan`] of `sigma[i]`. The pass is instrumented: it runs once, on
/// a registry that starts enabled, and the first unit's time runs from the
/// caller's last lap.
pub(crate) fn full_pass(
    g: &Graph,
    sigma: &[Rule],
    plans: &[MatchPlan],
    worker: &mut (BatchTally, MatchScratch),
) -> Vec<Found> {
    let (mut found, mut matched) = (Vec::new(), Vec::new());
    for (ci, rule) in sigma.iter().zip(plans).enumerate() {
        let pattern = &rule.0.pattern;
        let Some(pivot) = pattern
            .vars()
            .min_by_key(|&v| g.label_candidate_count(pattern.label(v)))
        else {
            // An empty pattern has exactly one (empty) match and no
            // variable to anchor: checked here, tallied as a unit.
            let kind = rule.0.check(g, &[]);
            let recorder = CellRecorder::new();
            recorder.on_match();
            let violations = u64::from(kind.is_some());
            worker.0.unit(Phase::Seeding, ci, &recorder, violations);
            found.extend(kind.map(|kind| (ci, Vec::new(), kind)));
            continue;
        };
        let candidates = g.label_candidates(pattern.label(pivot));
        if !candidates.is_empty() {
            let unit = (ci, pivot, &candidates[..]);
            run_unit(
                g,
                rule,
                unit,
                &|_, _| false,
                Phase::Seeding,
                worker,
                &mut matched,
            );
        }
    }
    found.append(&mut matched);
    found
}
