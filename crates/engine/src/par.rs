//! Parallel from-scratch validation — the paper's future-work item
//! ("develop parallel scalable algorithms for reasoning about GEDs, to
//! warrant speedup with the increase of processors", Section 9) realised
//! for the validation problem, which is embarrassingly parallel: for each
//! rule, the match space partitions by the image of a chosen pivot
//! variable, and every chunk of every rule's pivot candidates is one unit
//! on the engine's work queue ([`shard`]). A Σ of many cheap rules and a
//! Σ of one expensive rule both spread across all workers — there is no
//! separate rule-granularity splitter.
//!
//! Both functions here are views of the same full pass that seeds
//! [`IncrementalValidator::with_threads`](crate::IncrementalValidator::with_threads)
//! (scoped threads, no `unsafe`, join-all-before-resume on a worker
//! panic); their results equal the sequential validator's as sets
//! (asserted by the tests), only faster on multi-core machines.

use crate::shard;
use ged_core::constraint::Constraint;
use ged_core::reason::{GedReport, ValidationReport};
use ged_core::satisfy::Violation;
use ged_graph::Graph;
use ged_pattern::MatchPlan;

/// Validate Σ on `threads` workers: the [`ValidationReport`] of the
/// sequential [`validate`] with no witness limit — same per-rule rows,
/// same witness set — with the witnesses in Σ order and, within a rule,
/// sorted by match (sequential enumeration order is not reproduced).
/// Generic over the constraint family.
///
/// [`validate`]: ged_core::reason::validate
pub fn validate_parallel<C: Constraint>(
    g: &Graph,
    sigma: &[C],
    threads: usize,
) -> ValidationReport {
    let plans: Vec<MatchPlan> = sigma.iter().map(shard::rule_plan).collect();
    let mut found = shard::full_pass(g, sigma, &plans, threads, false).found;
    found.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut per_ged: Vec<GedReport> = sigma
        .iter()
        .map(|c| GedReport {
            name: c.name().to_string(),
            violation_count: 0,
            satisfied: true,
        })
        .collect();
    let violations = found
        .into_iter()
        .map(|(ci, assignment, kind)| {
            let row = &mut per_ged[ci];
            row.violation_count += 1;
            row.satisfied = false;
            Violation {
                ged_name: row.name.clone(),
                assignment,
                kind,
            }
        })
        .collect();
    ValidationReport {
        per_ged,
        violations,
    }
}

/// All violations of a single constraint, its match space sharded across
/// `threads` workers (order may differ from sequential enumeration; the
/// set is identical).
pub fn violations_sharded<C: Constraint>(g: &Graph, c: &C, threads: usize) -> Vec<Violation> {
    let plan = shard::rule_plan(c);
    let pass = shard::full_pass(g, std::slice::from_ref(c), &[plan], threads, false);
    pass.found
        .into_iter()
        .map(|(_, assignment, kind)| Violation {
            ged_name: c.name().to_string(),
            assignment,
            kind,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::satisfy::violations;
    use ged_datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
    use ged_ext::{DisjGed, SigmaConstraint};
    use ged_graph::{sym, NodeId};
    use ged_pattern::{parse_pattern, Pattern};
    use std::collections::HashSet;

    fn workload() -> (Graph, Ged) {
        let cfg = RandomGraphConfig {
            n_nodes: 80,
            n_edges: 160,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let key = plant_key_violations(&mut g, "entity", 6);
        (g, key)
    }

    fn witness_set(vs: &[Violation]) -> HashSet<(String, Vec<NodeId>)> {
        let set: HashSet<_> = vs
            .iter()
            .map(|v| (v.ged_name.clone(), v.assignment.clone()))
            .collect();
        assert_eq!(set.len(), vs.len(), "no witness reported twice");
        set
    }

    #[test]
    fn sharded_matches_sequential() {
        let (g, key) = workload();
        let sequential = witness_set(&violations(&g, &key, None));
        assert!(!sequential.is_empty());
        for threads in [1, 2, 8] {
            let parallel = violations_sharded(&g, &key, threads);
            assert_eq!(witness_set(&parallel), sequential, "{threads} threads");
        }
    }

    /// Same per-rule rows and the same witness set as the sequential
    /// report, on a Σ that also holds the two degenerate shapes: a rule
    /// with an empty pattern (one empty match, no unit) and a rule whose
    /// pivot has no candidates (no unit either).
    #[test]
    fn validate_parallel_equals_sequential_report() {
        let (g, key) = workload();
        let cfg = RandomGraphConfig::default();
        let mut sigma: Vec<SigmaConstraint> = vec![key.into()];
        sigma.extend(
            ged_datagen::random::random_sigma(3, 3, &cfg)
                .into_iter()
                .map(SigmaConstraint::from),
        );
        // An empty disjunction is `false`: the one empty match violates.
        sigma.push(DisjGed::new("∅ forbids", Pattern::new(), vec![], vec![]).into());
        let nobody = parse_pattern("absent(x)").unwrap();
        sigma.push(DisjGed::new("nobody", nobody, vec![], vec![]).into());
        let seq = ged_core::reason::validate(&g, &sigma, None);
        assert!(!seq.per_ged[sigma.len() - 2].satisfied, "the ∅ rule fires");
        for threads in [1, 3, 8] {
            let par = validate_parallel(&g, &sigma, threads);
            assert_eq!(par.satisfied(), seq.satisfied());
            assert_eq!(par.per_ged.len(), seq.per_ged.len());
            for (a, b) in par.per_ged.iter().zip(&seq.per_ged) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.violation_count, b.violation_count, "{}", a.name);
                assert_eq!(a.satisfied, b.satisfied, "{}", a.name);
            }
            assert_eq!(
                witness_set(&par.violations),
                witness_set(&seq.violations),
                "{threads} threads"
            );
            let rule_of = |v: &Violation| sigma.iter().position(|c| c.name() == v.ged_name);
            assert!(
                par.violations.windows(2).all(
                    |w| (rule_of(&w[0]), &w[0].assignment) < (rule_of(&w[1]), &w[1].assignment)
                ),
                "Σ order, then sorted by match"
            );
        }
    }

    #[test]
    fn empty_candidates_yield_no_violations() {
        let mut g = Graph::new();
        g.add_node(sym("other"));
        let (_, key) = workload();
        assert!(violations_sharded(&g, &key, 4).is_empty());
    }
}
