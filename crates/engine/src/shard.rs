//! Seed-granularity work sharding — the subsystem behind the engine's one
//! parallel fan-out, the *seeding* full pass of
//! [`IncrementalValidator::with_threads`] (the engine's parallel
//! from-scratch validation) — and the unit function that pass shares with
//! the sequential delta path ([`validator`](crate::validator)):
//!
//! * a **work unit** is a `(constraint, anchor variable, seeds)` triple —
//!   one anchor's seed list, or one chunk of it, enumerated with
//!   [`Matcher::for_each_anchored_in`] through `run_unit` (the delta path
//!   passes its exclusion closure, seeding excludes nothing);
//! * `run_units_with` is the seeding work queue: workers pull units off an
//!   atomic counter, so a Σ whose cost is concentrated in a single
//!   wildcard rule still spreads across all cores — at *seed*
//!   granularity, not rule granularity;
//! * `full_pass` is the from-scratch pass over all of Σ (pivot units for
//!   every rule on that queue) that seeds a validator;
//! * [`SeedStats`] reports how the seeding pass actually split (unit and
//!   per-worker counts), so the fan-out is observable rather than taken
//!   on faith.
//!
//! Chunks of one seed list are disjoint slices of a duplicate-free
//! vector, so whatever exactly-once enumeration discipline holds for the
//! whole list holds for its chunks: sharding never duplicates or drops a
//! match.
//!
//! [`IncrementalValidator::with_threads`]: crate::IncrementalValidator::with_threads
//! [`Matcher::for_each_anchored_in`]: ged_pattern::Matcher::for_each_anchored_in

use crate::metrics::WorkerShard;
use ged_core::constraint::{Constraint, ViolationKind};
use ged_core::literal::Literal;
use ged_graph::{Graph, NodeId};
use ged_obs::{CellRecorder, NOOP};
use ged_pattern::{Match, MatchOptions, MatchPlan, MatchRecorder, MatchScratch, Matcher, Var};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One violating match as the passes collect it: the constraint's index
/// in Σ, the match, and why it violates.
pub(crate) type Found = (usize, Match, ViolationKind);

/// One unit of seed-granularity sharded work: the index of a constraint
/// in Σ, the pattern variable to anchor, the anchor's full seed list
/// (shared between its chunks — an `Arc`, so chunking copies nothing),
/// and the index range of it this unit enumerates.
#[derive(Debug, Clone)]
struct SeedUnit {
    /// Constraint index into Σ.
    pub ci: usize,
    /// The pattern variable anchored on the seeds.
    pub anchor: Var,
    /// The anchor's full seed list, shared by every chunk of it.
    pub seeds: Arc<Vec<NodeId>>,
    /// The slice of `seeds` this unit owns.
    pub range: Range<usize>,
}

impl SeedUnit {
    /// The seeds this unit enumerates.
    pub fn seed_slice(&self) -> &[NodeId] {
        &self.seeds[self.range.clone()]
    }
}

/// Split one anchor's seed list into up to `threads` contiguous chunks
/// and append them to `units`. An empty seed list contributes nothing.
fn push_units(
    units: &mut Vec<SeedUnit>,
    ci: usize,
    anchor: Var,
    seeds: Arc<Vec<NodeId>>,
    threads: usize,
) {
    assert!(threads >= 1);
    if seeds.is_empty() {
        return;
    }
    let chunk = seeds.len().div_ceil(threads);
    let mut start = 0;
    while start < seeds.len() {
        let end = (start + chunk).min(seeds.len());
        units.push(SeedUnit {
            ci,
            anchor,
            seeds: Arc::clone(&seeds),
            range: start..end,
        });
        start = end;
    }
}

/// Compile one rule's [`MatchPlan`]: the pattern's rooted search orders
/// and degree requirements, with the premise literals the matcher can
/// check pushed in as candidate pre-filters — constant premises `x.A = c`
/// ([`MatchPlan::require_attr`]) and equality premises `x.A = y.B`
/// ([`MatchPlan::require_attr_eq`]). Done once per rule, so the per-unit
/// hot path never touches [`literal_view`](Constraint::literal_view)
/// (which clones the rule's literal vectors on every call).
///
/// Sound for violation enumeration: `check` reports a violation only when
/// every premise holds at the match, and both filters decide exactly
/// `literal_holds` of their literal, so a match they refuse can never
/// witness one. The [`LiteralView`] contract guarantees the view's
/// premises are implied by the real ones even for inexact views (a GDC
/// exposes its equality fragment — a subset), so this never drops a
/// violating match; `check` still runs on every survivor.
///
/// [`LiteralView`]: ged_core::constraint::LiteralView
pub fn rule_plan<C: Constraint>(c: &C) -> MatchPlan {
    let mut plan = MatchPlan::new(c.pattern());
    for lit in c.literal_view().iter().flat_map(|view| &view.premises) {
        match lit {
            Literal::Const { var, attr, value } => plan.require_attr(*var, *attr, value.clone()),
            Literal::Vars {
                lvar,
                lattr,
                rvar,
                rattr,
            } => plan.require_attr_eq(*lvar, *lattr, *rvar, *rattr),
            Literal::Id { .. } => {}
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
/// candidate sets into `scratch` — one buffer per worker — so steady-state
/// enumeration allocates nothing; its hot loop reports to `recorder`.
fn check_unit<C: Constraint, R: MatchRecorder>(
    g: &Graph,
    (c, plan): (&C, &MatchPlan),
    (ci, anchor, seeds): (usize, Var, &[NodeId]),
    excluded: &impl Fn(Var, NodeId) -> bool,
    scratch: &mut MatchScratch,
    recorder: &R,
    out: &mut Vec<Found>,
) {
    let pattern = c.pattern();
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

/// Run one unit on a worker, observed or not: with instrumentation on, a
/// per-unit [`CellRecorder`] and one clock pair tally the unit into the
/// worker's shard; off, the no-op recorder compiles the hooks away and no
/// clock is read. Every pass goes through here, so this is the engine's
/// one instrumented/uninstrumented fork.
pub(crate) fn run_unit<C: Constraint>(
    g: &Graph,
    rule: (&C, &MatchPlan),
    unit: (usize, Var, &[NodeId]),
    excluded: &impl Fn(Var, NodeId) -> bool,
    (ws, scratch): &mut (WorkerShard, MatchScratch),
    out: &mut Vec<Found>,
) {
    if !ws.enabled {
        return check_unit(g, rule, unit, excluded, scratch, &NOOP, out);
    }
    let recorder = CellRecorder::new();
    let t0 = Instant::now();
    let before = out.len();
    check_unit(g, rule, unit, excluded, scratch, &recorder, out);
    ws.add_unit(
        unit.0,
        recorder.attempts(),
        recorder.prefilter_rejects(),
        recorder.matches(),
        (out.len() - before) as u64,
        t0.elapsed().as_nanos() as u64,
    );
}

/// What [`full_pass`] found and how it split.
pub(crate) struct FullPass {
    /// Every violating match of every rule (empty-pattern rules first,
    /// then the workers' batches in worker order).
    pub found: Vec<Found>,
    /// How the pass split across workers.
    pub stats: SeedStats,
    /// The tally shards to merge: the coordinator's, then one per worker.
    pub shards: Vec<WorkerShard>,
}

/// The from-scratch pass: every violating match of every rule of Σ,
/// sharded across `threads` workers at seed granularity. Each rule splits
/// its match space by its most selective **pivot** variable (fewest label
/// candidates): every match maps the pivot to exactly one candidate, so
/// the chunks of the pivot's candidate list partition the match space
/// without duplicates. `plans[i]` is [`rule_plan`] of `sigma[i]`. The pass
/// is instrumented: it runs once, on a registry that starts enabled.
pub(crate) fn full_pass<C: Constraint>(
    g: &Graph,
    sigma: &[C],
    plans: &[MatchPlan],
    threads: usize,
) -> FullPass {
    let new_shard = || WorkerShard::new(sigma.len(), true);
    // Constraints with an empty pattern have exactly one (empty) match:
    // nothing to enumerate or shard, checked here — tallied into a
    // coordinator-side shard so their cost still attributes per rule.
    let mut inline = new_shard();
    let mut found: Vec<Found> = Vec::new();
    let mut units: Vec<SeedUnit> = Vec::new();
    for (ci, c) in sigma.iter().enumerate() {
        let pattern = c.pattern();
        let Some(pivot) = pattern
            .vars()
            .min_by_key(|&v| g.label_candidate_count(pattern.label(v)))
        else {
            let t0 = Instant::now();
            let kind = c.check(g, &[]);
            let violations = u64::from(kind.is_some());
            inline.add_unit(ci, 0, 0, 1, violations, t0.elapsed().as_nanos() as u64);
            found.extend(kind.map(|kind| (ci, Vec::new(), kind)));
            continue;
        };
        let candidates = Arc::new(g.label_candidates(pattern.label(pivot)).into_owned());
        push_units(&mut units, ci, pivot, candidates, threads);
    }
    let (batches, per_worker, workers) = run_units_with(
        threads,
        &units,
        || (new_shard(), MatchScratch::new()),
        |unit, out, worker| {
            let rule = (&sigma[unit.ci], &plans[unit.ci]);
            let unit = (unit.ci, unit.anchor, unit.seed_slice());
            run_unit(g, rule, unit, &|_, _| false, worker, out);
        },
    );
    found.extend(batches);
    let mut shards = vec![inline];
    shards.extend(workers.into_iter().map(|(ws, _)| ws));
    let stats = SeedStats {
        units: units.len(),
        per_worker,
        violations: found.len(),
    };
    FullPass {
        found,
        stats,
        shards,
    }
}

/// How the seeding full pass split across workers — the construction-time
/// counterpart of [`ApplyStats`](crate::ApplyStats), captured once by
/// [`IncrementalValidator::with_threads`], whose `threads` is this pass's
/// worker count and nothing else (the delta path is sequential).
///
/// Invariant (asserted by the engine's tests): the per-worker unit counts
/// sum to [`units`](SeedStats::units).
///
/// [`IncrementalValidator::with_threads`]: crate::IncrementalValidator::with_threads
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeedStats {
    /// Total `(constraint, anchor, seed-range)` work units the seeding
    /// pass was split into. Constraints with empty patterns or empty
    /// candidate sets contribute no units.
    pub units: usize,
    /// Units processed by each worker, in worker-spawn order. Length is
    /// the number of workers that ran (1 for a sequential pass); the
    /// split between them is scheduling-dependent, but the counts always
    /// sum to [`units`](SeedStats::units).
    pub per_worker: Vec<usize>,
    /// Violations found by the pass (equals the seeded store's total).
    pub violations: usize,
}

impl std::fmt::Display for SeedStats {
    /// One-line human summary, e.g.
    /// `seeded 42 violation(s) from 12 unit(s) across 4 worker(s) [3/3/3/3]`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seeded {} violation(s) from {} unit(s) across {} worker(s) [",
            self.violations,
            self.units,
            self.per_worker.len()
        )?;
        for (i, n) in self.per_worker.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

/// Run every unit through `work`, sharding the unit list across
/// `threads` workers pulling off a shared atomic counter. Each worker
/// appends into its own output vector; the vectors are concatenated in
/// worker order. Returns the combined output plus the per-worker unit
/// counts ([`SeedStats::per_worker`]-shaped).
///
/// A per-worker **scratch shard** `W` threads through the work closure:
/// each worker gets its own `W` from `new_shard`, every unit it runs may
/// mutate it without synchronization, and the shards come back (in worker
/// order) alongside the outputs for the caller to merge. The engine uses
/// this two ways: instrumentation tallies match attempts and unit
/// latencies into plain-`u64` [`WorkerShard`](crate::metrics::WorkerShard)s folded into the shared
/// atomic registry after the join, and the match loop reuses one
/// [`MatchScratch`] candidate buffer per worker — the hot loop neither
/// touches a shared cache line nor allocates per unit.
///
/// `threads == 1` (or ≤ 1 unit) runs inline on the caller's thread — no
/// scoped-thread overhead for small work. If workers panic, every handle
/// is joined before the first panic payload is resumed
/// ([`join_all_propagating`]).
fn run_units_with<T: Send, W: Send>(
    threads: usize,
    units: &[SeedUnit],
    new_shard: impl Fn() -> W + Sync,
    work: impl Fn(&SeedUnit, &mut Vec<T>, &mut W) + Sync,
) -> (Vec<T>, Vec<usize>, Vec<W>) {
    assert!(threads >= 1);
    if threads == 1 || units.len() <= 1 {
        let mut out = Vec::new();
        let mut shard = new_shard();
        for unit in units {
            work(unit, &mut out, &mut shard);
        }
        return (out, vec![units.len()], vec![shard]);
    }
    let next = AtomicUsize::new(0);
    let mut all = Vec::new();
    let mut per_worker = Vec::new();
    let mut shards = Vec::new();
    std::thread::scope(|s| {
        let (next, new_shard, work) = (&next, &new_shard, &work);
        let handles: Vec<_> = (0..threads.min(units.len()))
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut shard = new_shard();
                    let mut done = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units.get(i) else {
                            break;
                        };
                        work(unit, &mut out, &mut shard);
                        done += 1;
                    }
                    (out, done, shard)
                })
            })
            .collect();
        for (batch, done, shard) in join_all_propagating(handles) {
            all.extend(batch);
            per_worker.push(done);
            shards.push(shard);
        }
    });
    (all, per_worker, shards)
}

/// Join every scoped worker handle, collecting the successful results;
/// if any worker panicked, resume the *first* panic payload only after
/// all handles are joined — no shard's work is abandoned mid-join, and
/// the original worker message (not a generic join error) reaches the
/// caller.
fn join_all_propagating<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, T>>) -> Vec<T> {
    let mut out = Vec::with_capacity(handles.len());
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for h in handles {
        match h.join() {
            Ok(v) => out.push(v),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_list(lists: &[(usize, usize)], threads: usize) -> Vec<SeedUnit> {
        // `lists` is (constraint index, seed count) per anchor list.
        let mut units = Vec::new();
        for &(ci, n) in lists {
            let seeds: Arc<Vec<NodeId>> = Arc::new((0..n as u32).map(NodeId).collect());
            push_units(&mut units, ci, Var(0), seeds, threads);
        }
        units
    }

    #[test]
    fn push_units_covers_the_seed_list_with_disjoint_chunks() {
        for (len, threads) in [(1usize, 4usize), (7, 3), (24, 8), (5, 1)] {
            let units = unit_list(&[(0, len)], threads);
            assert!(units.len() <= threads, "{len} seeds / {threads} workers");
            let covered: Vec<NodeId> = units.iter().flat_map(|u| u.seed_slice().to_vec()).collect();
            assert_eq!(covered.len(), len, "chunks partition the list");
            assert!(
                covered.windows(2).all(|w| w[0] < w[1]),
                "in order, disjoint"
            );
        }
        assert!(unit_list(&[(0, 0)], 4).is_empty(), "empty list, no units");
    }

    #[test]
    fn run_units_visits_every_unit_exactly_once_and_counts_workers() {
        let units = unit_list(&[(0, 10), (1, 6), (2, 1)], 4);
        for threads in [1usize, 2, 4, 9] {
            let (out, per_worker, _) = run_units_with(
                threads,
                &units,
                || (),
                |u, out: &mut Vec<usize>, ()| {
                    out.push(u.ci + u.range.start);
                },
            );
            assert_eq!(out.len(), units.len(), "{threads} workers");
            assert_eq!(
                per_worker.iter().sum::<usize>(),
                units.len(),
                "per-worker counts sum to the unit total at {threads} workers"
            );
            let mut sorted = out.clone();
            sorted.sort_unstable();
            let mut expected: Vec<usize> = units.iter().map(|u| u.ci + u.range.start).collect();
            expected.sort_unstable();
            assert_eq!(sorted, expected, "each unit ran exactly once");
        }
    }

    /// The scratch-shard variant hands every worker its own `W` and
    /// returns one shard per worker that ran; merged shard tallies equal
    /// the unit total no matter how the queue happened to interleave.
    #[test]
    fn run_units_with_returns_one_scratch_shard_per_worker() {
        let units = unit_list(&[(0, 10), (1, 6), (2, 1)], 4);
        for threads in [1usize, 2, 4] {
            let (out, per_worker, shards) = run_units_with(
                threads,
                &units,
                || 0u64,
                |_, out: &mut Vec<usize>, w| {
                    out.push(1);
                    *w += 1;
                },
            );
            assert_eq!(out.len(), units.len());
            assert_eq!(shards.len(), per_worker.len(), "{threads} workers");
            assert_eq!(
                shards.iter().sum::<u64>(),
                units.len() as u64,
                "shard tallies cover every unit at {threads} workers"
            );
        }
    }

    #[test]
    fn seed_stats_display_is_a_one_line_summary() {
        let stats = SeedStats {
            units: 4,
            per_worker: vec![3, 1],
            violations: 7,
        };
        assert_eq!(
            stats.to_string(),
            "seeded 7 violation(s) from 4 unit(s) across 2 worker(s) [3/1]"
        );
    }

    /// Regression: the queue used to `expect()` on the first failed join,
    /// replacing the worker's panic message with a generic one and
    /// abandoning the remaining handles. All workers are joined first,
    /// then the first panic payload is resumed verbatim.
    #[test]
    fn run_units_propagates_the_original_worker_panic_too() {
        let units = unit_list(&[(0, 16)], 4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_units_with(
                4,
                &units,
                || (),
                |u, _out: &mut Vec<usize>, ()| {
                    if u.range.start > 0 {
                        panic!("unit worker failed at {}", u.range.start);
                    }
                },
            )
        }));
        let payload = result.expect_err("a worker panicked");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the original String payload survives the join");
        assert!(msg.contains("unit worker failed"), "got {msg:?}");
    }
}
