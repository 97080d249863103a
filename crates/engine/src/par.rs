//! Parallel from-scratch validation — the paper's future-work item
//! ("develop parallel scalable algorithms for reasoning about GEDs, to
//! warrant speedup with the increase of processors", Section 9) realised
//! for the validation problem, which is embarrassingly parallel at two
//! levels:
//!
//! * **rule-level**: the GEDs of Σ validate independently;
//! * **match-level**: for one GED, the match space partitions by the image
//!   of a chosen pivot variable — each shard enumerates the matches whose
//!   pivot lands in its slice of the candidate nodes.
//!
//! Both use `std::thread::scope` (no `unsafe`, no `'static` bounds). The
//! results are *identical* to the sequential validator (asserted by the
//! tests), only faster on multi-core machines. This module was promoted
//! from a bench-local helper, and
//! its sharding machinery has since been unified into the [`shard`]
//! module — [`violations_sharded`]'s pivot split, the
//! incremental delta path's affected-area fan-out, and the seeding full
//! pass of
//! [`IncrementalValidator::with_threads`](crate::IncrementalValidator::with_threads)
//! all pull `(constraint, anchor, seed-range)` units off the same
//! scoped-thread, join-all-before-resume work queue.

use crate::shard::{self, run_sharded, SeedUnit};
use ged_core::constraint::Constraint;
use ged_core::reason::{GedReport, ValidationReport};
use ged_core::satisfy::{violations, Violation};
use ged_graph::Graph;

/// Validate Σ by sharding the *rules* across `threads` workers. Returns
/// per-constraint violation counts (bounded by `limit` each), in Σ order.
/// Generic over the constraint family (GEDs, GDCs, GED∨s, …).
pub fn validate_rules_parallel<C: Constraint>(
    g: &Graph,
    sigma: &[C],
    threads: usize,
    limit: Option<usize>,
) -> Vec<usize> {
    run_sharded(threads, sigma, |c| violations(g, c, limit).len())
}

/// Full parallel validation: rule-level sharding producing the exact
/// [`ValidationReport`] of the sequential [`validate`], witnesses included
/// and in the same order. Generic over the constraint family.
///
/// [`validate`]: ged_core::reason::validate
pub fn validate_parallel<C: Constraint>(
    g: &Graph,
    sigma: &[C],
    threads: usize,
    limit_per_ged: Option<usize>,
) -> ValidationReport {
    let per_constraint: Vec<Vec<Violation>> =
        run_sharded(threads, sigma, |c| violations(g, c, limit_per_ged));
    let mut per_ged = Vec::with_capacity(sigma.len());
    let mut all = Vec::new();
    for (c, vs) in sigma.iter().zip(per_constraint) {
        per_ged.push(GedReport {
            name: c.name().to_string(),
            violation_count: vs.len(),
            satisfied: vs.is_empty(),
        });
        all.extend(vs);
    }
    ValidationReport {
        per_ged,
        violations: all,
    }
}

/// Validate a single constraint by sharding the *match space*: the
/// candidate nodes of a pivot variable are split into
/// `(constraint, anchor, seed-range)` units of the shared
/// [`shard`] queue, each worker enumerating only the
/// matches whose pivot falls in its chunks. Returns all violations (order
/// may differ from sequential enumeration; the set is identical).
pub fn violations_sharded<C: Constraint>(g: &Graph, c: &C, threads: usize) -> Vec<Violation> {
    assert!(threads >= 1);
    let pattern = c.pattern();
    if pattern.var_count() == 0 {
        return violations(g, c, None);
    }
    let mut units: Vec<SeedUnit> = Vec::new();
    shard::push_pivot_units(&mut units, g, 0, c, threads);
    let plan = shard::rule_plan(c);
    let (all, _per_worker, _scratches) = shard::run_units_with(
        threads,
        &units,
        ged_pattern::MatchScratch::new,
        |unit, out, scratch| {
            shard::check_unit(g, (c, &plan), unit, scratch, &ged_obs::NOOP, |m, kind| {
                out.push(Violation {
                    ged_name: c.name().to_string(),
                    assignment: m.to_vec(),
                    kind,
                });
            });
        },
    );
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
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

    #[test]
    fn sharded_matches_sequential() {
        let (g, key) = workload();
        let sequential = violations(&g, &key, None);
        for threads in [1, 2, 4, 7] {
            let parallel = violations_sharded(&g, &key, threads);
            assert_eq!(parallel.len(), sequential.len(), "{threads} threads");
            let seq_set: HashSet<Vec<ged_graph::NodeId>> =
                sequential.iter().map(|v| v.assignment.clone()).collect();
            let par_set: HashSet<Vec<ged_graph::NodeId>> =
                parallel.iter().map(|v| v.assignment.clone()).collect();
            assert_eq!(seq_set, par_set);
        }
    }

    #[test]
    fn rule_parallel_matches_sequential() {
        let (g, key) = workload();
        let cfg = RandomGraphConfig::default();
        let mut sigma = vec![key];
        sigma.extend(ged_datagen::random::random_sigma(5, 3, &cfg));
        let sequential: Vec<usize> = sigma
            .iter()
            .map(|ged| violations(&g, ged, None).len())
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                validate_rules_parallel(&g, &sigma, threads, None),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn validate_parallel_equals_sequential_report() {
        let (g, key) = workload();
        let cfg = RandomGraphConfig::default();
        let mut sigma = vec![key];
        sigma.extend(ged_datagen::random::random_sigma(3, 3, &cfg));
        let seq = ged_core::reason::validate(&g, &sigma, None);
        for threads in [1, 3] {
            let par = validate_parallel(&g, &sigma, threads, None);
            assert_eq!(par.satisfied(), seq.satisfied());
            assert_eq!(par.total_violations(), seq.total_violations());
            for (a, b) in par.per_ged.iter().zip(&seq.per_ged) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.violation_count, b.violation_count);
            }
            let sa: Vec<_> = par.violations.iter().map(|v| &v.assignment).collect();
            let sb: Vec<_> = seq.violations.iter().map(|v| &v.assignment).collect();
            assert_eq!(sa, sb, "witness order identical at {threads} threads");
        }
    }

    #[test]
    fn empty_candidates_yield_no_violations() {
        let mut g = Graph::new();
        g.add_node(ged_graph::sym("other"));
        let (_, key) = workload();
        assert!(violations_sharded(&g, &key, 4).is_empty());
    }
}
