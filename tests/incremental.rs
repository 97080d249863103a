//! Incremental ≡ full: randomized delta sequences over the datagen graphs,
//! asserting after every step that the `IncrementalValidator`'s maintained
//! violation set equals a from-scratch `validate` of the same graph — for
//! every family of the unified constraint layer (GEDs, GDCs, GED∨s; the
//! harness is generic over `C: Constraint`).
//!
//! The acceptance-scale runs (10k nodes, 1k deltas; plain-GED and GDC
//! sigmas) are `#[ignore]`d so the default test pass stays fast; run them
//! with `cargo test --release --test incremental -- --ignored`.

use ged_datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
use ged_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

#[path = "support/workload.rs"]
mod support;
use support::workload;

/// Normalise a report to a comparable set of witnesses (the violation
/// kind is compared via its debug rendering, which covers all families).
fn witness_set(
    report: &ged_repro::core::ValidationReport,
) -> BTreeSet<(String, Vec<NodeId>, String)> {
    report
        .violations
        .iter()
        .map(|v| {
            (
                v.ged_name.clone(),
                v.assignment.clone(),
                format!("{:?}", v.kind),
            )
        })
        .collect()
}

/// Assert the incremental store equals full revalidation right now.
fn assert_matches_full<C: Constraint>(v: &IncrementalValidator<C>, step: usize) {
    let full = validate(v.graph(), v.sigma(), None);
    let incremental = v.report();
    assert_eq!(
        witness_set(&incremental),
        witness_set(&full),
        "incremental and full reports diverged at step {step}"
    );
    assert_eq!(incremental.satisfied(), full.satisfied(), "step {step}");
    for (a, b) in incremental.per_ged.iter().zip(&full.per_ged) {
        assert_eq!(a.name, b.name, "step {step}");
        assert_eq!(
            a.violation_count, b.violation_count,
            "step {step}: {}",
            a.name
        );
    }
}

/// Draw one random delta against the *current* graph, biased towards
/// attribute writes (the common production update) but exercising every
/// variant including node/edge removal.
fn random_delta(g: &Graph, rng: &mut StdRng, attrs: &[Symbol], values: i64) -> Delta {
    let live: Vec<NodeId> = g.nodes().collect();
    let labels: Vec<Symbol> = g.labels().collect();
    let edges: Vec<_> = g.edges().collect();
    let pick_node = |rng: &mut StdRng| live[rng.random_range(0..live.len())];
    let pick_attr = |rng: &mut StdRng| attrs[rng.random_range(0..attrs.len())];
    loop {
        match rng.random_range(0..10u32) {
            0 => {
                return Delta::AddNode {
                    label: labels[rng.random_range(0..labels.len())],
                }
            }
            1 if live.len() > 2 => {
                return Delta::RemoveNode {
                    node: pick_node(rng),
                }
            }
            2 | 3 if !live.is_empty() => {
                let elabels: Vec<Symbol> = if edges.is_empty() {
                    vec![sym("e0")]
                } else {
                    edges.iter().map(|e| e.label).collect()
                };
                return Delta::AddEdge {
                    src: pick_node(rng),
                    label: elabels[rng.random_range(0..elabels.len())],
                    dst: pick_node(rng),
                };
            }
            4 if !edges.is_empty() => {
                let e = edges[rng.random_range(0..edges.len())];
                return Delta::RemoveEdge {
                    src: e.src,
                    label: e.label,
                    dst: e.dst,
                };
            }
            5..=7 if !live.is_empty() => {
                return Delta::SetAttr {
                    node: pick_node(rng),
                    attr: pick_attr(rng),
                    value: Value::from(rng.random_range(0..values)),
                }
            }
            8 if !live.is_empty() => {
                return Delta::DelAttr {
                    node: pick_node(rng),
                    attr: pick_attr(rng),
                }
            }
            9 if !live.is_empty() => {
                // Toggle a self-loop (src == dst): its footprint is a
                // single node serving as both endpoints.
                let n = pick_node(rng);
                let elabels: Vec<Symbol> = if edges.is_empty() {
                    vec![sym("e0")]
                } else {
                    edges.iter().map(|e| e.label).collect()
                };
                let label = elabels[rng.random_range(0..elabels.len())];
                return if g.has_edge(n, label, n) {
                    Delta::RemoveEdge {
                        src: n,
                        label,
                        dst: n,
                    }
                } else {
                    Delta::AddEdge {
                        src: n,
                        label,
                        dst: n,
                    }
                };
            }
            _ if live.is_empty() => {
                return Delta::AddNode {
                    label: sym("entity"),
                }
            }
            _ => continue,
        }
    }
}

/// Drive a validator of any constraint family through `steps` random
/// deltas over the given attribute vocabulary, checking against full
/// revalidation every `check_every` steps.
fn drive_attrs<C: Constraint>(
    mut v: IncrementalValidator<C>,
    steps: usize,
    seed: u64,
    check_every: usize,
    attrs: &[Symbol],
    values: i64,
) -> IncrementalValidator<C> {
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..steps {
        let d = random_delta(v.graph(), &mut rng, attrs, values);
        v.apply(&d);
        if step % check_every == 0 {
            assert_matches_full(&v, step);
        }
    }
    assert_matches_full(&v, steps);
    v
}

fn drive<C: Constraint>(
    v: IncrementalValidator<C>,
    steps: usize,
    seed: u64,
    check_every: usize,
) -> IncrementalValidator<C> {
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];
    drive_attrs(v, steps, seed, check_every, &attrs, 4)
}

#[test]
fn incremental_equals_full_random_graph_every_step() {
    let (g, sigma) = workload(120, 2, 41);
    let v = IncrementalValidator::with_threads(g, sigma, 2);
    drive(v, 150, 7, 1);
}

#[test]
fn incremental_equals_full_single_threaded() {
    let (g, sigma) = workload(60, 1, 42);
    let v = IncrementalValidator::with_threads(g, sigma, 1);
    drive(v, 120, 8, 1);
}

#[test]
fn incremental_equals_full_on_social_workload() {
    let inst = ged_datagen::social::generate(&ged_datagen::social::SocialConfig::default());
    let sigma = vec![ged_datagen::rules::phi5(2, "v1agr4")];
    let mut v = IncrementalValidator::with_threads(inst.graph, sigma, 2);
    // Social attrs: is_fake flags and blog keywords.
    let attrs: Vec<Symbol> = vec![sym("is_fake"), sym("keyword")];
    let mut rng = StdRng::seed_from_u64(5);
    for step in 0..80 {
        let d = random_delta(v.graph(), &mut rng, &attrs, 2);
        v.apply(&d);
        assert_matches_full(&v, step);
    }
}

#[test]
fn incremental_equals_full_on_music_workload() {
    let inst = ged_datagen::music::generate(&ged_datagen::music::MusicConfig::default());
    let sigma = ged_datagen::rules::music_keys();
    let attrs: Vec<Symbol> = vec![sym("title"), sym("release"), sym("name")];
    let mut v = IncrementalValidator::with_threads(inst.graph, sigma, 2);
    let mut rng = StdRng::seed_from_u64(6);
    for step in 0..60 {
        let d = random_delta(v.graph(), &mut rng, &attrs, 3);
        v.apply(&d);
        assert_matches_full(&v, step);
    }
}

#[test]
fn incremental_equals_full_on_coloring_workload() {
    let inst = ged_datagen::coloring::ColoringInstance::random(7, 4, 9);
    let (g, ged) = ged_datagen::coloring::validation_gfdx(&inst);
    let attrs: Vec<Symbol> = vec![sym("A")];
    let mut v = IncrementalValidator::with_threads(g, vec![ged], 2);
    let mut rng = StdRng::seed_from_u64(10);
    for step in 0..60 {
        let d = random_delta(v.graph(), &mut rng, &attrs, 3);
        v.apply(&d);
        assert_matches_full(&v, step);
    }
}

#[test]
fn self_loop_pattern_tracks_self_loop_deltas() {
    // φ: a node with an `e` self-loop must agree with itself on p vs q.
    let mut q = Pattern::new();
    let x = q.var("x", "t");
    q.edge(x, "e", x);
    let phi = Ged::new(
        "selfloop",
        q,
        vec![],
        vec![Literal::vars(x, sym("p"), x, sym("q"))],
    );
    let mut g = Graph::new();
    let a = g.add_node(sym("t"));
    let b = g.add_node(sym("t"));
    g.set_attr(a, sym("p"), 1);
    g.set_attr(a, sym("q"), 2);
    g.set_attr(b, sym("p"), 1);
    g.set_attr(b, sym("q"), 1);
    g.add_edge(b, sym("e"), b);
    let mut v = IncrementalValidator::with_threads(g, vec![phi], 1);
    assert!(v.is_satisfied(), "b's self-loop agrees, a has no loop");

    let stats = v.apply(&Delta::AddEdge {
        src: a,
        label: sym("e"),
        dst: a,
    });
    assert_eq!(stats.touched_nodes, 1, "src == dst is one footprint node");
    assert_eq!(v.violation_count(), 1);
    assert_matches_full(&v, 1);

    v.apply(&Delta::SetAttr {
        node: a,
        attr: sym("q"),
        value: Value::from(1),
    });
    assert!(v.is_satisfied());
    assert_matches_full(&v, 2);

    v.apply(&Delta::SetAttr {
        node: a,
        attr: sym("q"),
        value: Value::from(3),
    });
    assert_eq!(v.violation_count(), 1);
    let stats = v.apply(&Delta::RemoveEdge {
        src: a,
        label: sym("e"),
        dst: a,
    });
    assert_eq!(stats.violations_removed, 1);
    assert!(v.is_satisfied());
    assert_matches_full(&v, 3);
}

#[test]
fn remove_then_re_add_within_one_batch_is_retained() {
    // φ: connected t-nodes must agree on p. One violating edge a → b.
    let q = parse_pattern("t(x) -[e]-> t(y)").unwrap();
    let (x, y) = (q.var_by_name("x").unwrap(), q.var_by_name("y").unwrap());
    let phi = Ged::new(
        "agree",
        q,
        vec![],
        vec![Literal::vars(x, sym("p"), y, sym("p"))],
    );
    let mut g = Graph::new();
    let a = g.add_node(sym("t"));
    let b = g.add_node(sym("t"));
    g.set_attr(a, sym("p"), 1);
    g.set_attr(b, sym("p"), 2);
    g.add_edge(a, sym("e"), b);
    let mut v = IncrementalValidator::with_threads(g, vec![phi], 1);
    assert_eq!(v.violation_count(), 1);

    // Remove the edge and put it straight back in the same batch: the
    // witness survives the update — retained, neither removed nor added.
    let batch: DeltaSet = vec![
        Delta::RemoveEdge {
            src: a,
            label: sym("e"),
            dst: b,
        },
        Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: b,
        },
    ]
    .into();
    let stats = v.apply_all(&batch);
    assert_eq!(stats.deltas_applied, 2);
    assert_eq!(stats.violations_removed, 0);
    assert_eq!(stats.violations_added, 0);
    assert_eq!(stats.violations_retained, 1);
    assert_eq!(v.violation_count(), 1);
    assert_matches_full(&v, 1);

    // Same for an attribute: delete and restore within one batch.
    let batch: DeltaSet = vec![
        Delta::DelAttr {
            node: b,
            attr: sym("p"),
        },
        Delta::SetAttr {
            node: b,
            attr: sym("p"),
            value: Value::from(2),
        },
    ]
    .into();
    let stats = v.apply_all(&batch);
    assert_eq!(stats.violations_removed, 0);
    assert_eq!(stats.violations_added, 0);
    assert_eq!(stats.violations_retained, 1);
    assert_matches_full(&v, 2);

    // An odd number of toggles really does remove the witness.
    let batch: DeltaSet = vec![
        Delta::RemoveEdge {
            src: a,
            label: sym("e"),
            dst: b,
        },
        Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: b,
        },
        Delta::RemoveEdge {
            src: a,
            label: sym("e"),
            dst: b,
        },
    ]
    .into();
    let stats = v.apply_all(&batch);
    assert_eq!(stats.violations_removed, 1);
    assert_eq!(stats.violations_retained, 0);
    assert!(v.is_satisfied());
    assert_matches_full(&v, 3);
}

#[test]
fn incremental_equals_full_with_wildcard_rules() {
    // Wildcard node and edge labels: every node matches, every edge
    // matches — the widest affected areas the matcher can produce.
    let (g, _) = workload(60, 0, 46);
    let mut q = Pattern::new();
    let x = q.var("x", "_");
    let y = q.var("y", "_");
    q.edge(x, "_", y);
    let wild_edge = Ged::new(
        "wild-agree",
        q,
        vec![],
        vec![Literal::vars(x, sym("attr0"), y, sym("attr0"))],
    );
    let mut q = Pattern::new();
    let x = q.var("x", "_");
    let y = q.var("y", "_");
    let wild_key = Ged::new(
        "wild-key",
        q,
        vec![Literal::vars(x, sym("key"), y, sym("key"))],
        vec![Literal::id(x, y)],
    );
    let v = IncrementalValidator::with_threads(g, vec![wild_edge, wild_key], 2);
    drive(v, 100, 9, 1);
}

#[test]
fn batched_delta_sets_equal_full() {
    let (g, sigma) = workload(80, 1, 43);
    let mut v = IncrementalValidator::with_threads(g, sigma, 2);
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];
    let mut rng = StdRng::seed_from_u64(11);
    for batch_no in 0..15 {
        let mut batch = DeltaSet::new();
        for _ in 0..10 {
            // Batch entries are drawn against the pre-batch graph, so some
            // may become no-ops (e.g. edges to nodes removed earlier in the
            // batch) — exactly what the engine must tolerate.
            batch.push(random_delta(v.graph(), &mut rng, &attrs, 4));
        }
        v.apply_all(&batch);
        assert_matches_full(&v, batch_no);
    }
}

#[test]
fn evolved_graphs_chase_after_compaction() {
    // The chase requires dense ids; an evolved graph must be compacted
    // first (it hard-asserts otherwise — see `Graph::compact`).
    let (g, sigma) = workload(40, 0, 44);
    let mut v = IncrementalValidator::with_threads(g, sigma, 1);
    let victim = v.graph().nodes().nth(3).unwrap();
    v.apply(&Delta::RemoveNode { node: victim });
    let sigma = v.sigma().to_vec();
    let evolved = v.into_graph();
    assert!(evolved.has_removals());

    let (dense, _map) = evolved.compact();
    let result = chase(&dense, &sigma);
    assert!(result.stats().within_bounds());
    // The chased coercion satisfies Σ (Theorem 1) when consistent.
    if let ChaseResult::Consistent { coercion, .. } = result {
        assert!(satisfies_all(&coercion.graph, &sigma));
    }
}

#[test]
#[should_panic(expected = "compact")]
fn chase_rejects_tombstoned_graphs() {
    let (g, sigma) = workload(20, 0, 45);
    let mut v = IncrementalValidator::with_threads(g, sigma, 1);
    let victim = v.graph().nodes().next().unwrap();
    v.apply(&Delta::RemoveNode { node: victim });
    let sigma = v.sigma().to_vec();
    let _ = chase(&v.into_graph(), &sigma);
}

// ---------------------------------------------------------------------
// The unified constraint layer: the same randomized harness, driven over
// GDC and GED∨ sigmas across all delta kinds.
// ---------------------------------------------------------------------

#[test]
fn incremental_equals_full_on_gdc_social_workload() {
    let w = ged_datagen::gdc::social_gdcs(&ged_datagen::social::SocialConfig::default(), 3, 21);
    let v = IncrementalValidator::with_threads(w.graph, w.sigma, 2);
    assert_eq!(v.violation_count(), w.planted, "seeding finds the plants");
    // Ages 0..30 straddle the age≥13 boundary, so writes repair and
    // re-introduce violations; the rest of the delta mix adds/removes
    // nodes and edges under the same rules.
    drive_attrs(v, 120, 22, 1, &[sym("age")], 30);
}

#[test]
fn incremental_equals_full_on_gdc_kb_workload() {
    let w = ged_datagen::gdc::kb_gdcs(&ged_datagen::kb::KbConfig::default(), 4, 23);
    let v = IncrementalValidator::with_threads(w.graph, w.sigma, 2);
    assert_eq!(v.violation_count(), w.planted);
    // price/discount writes flip the variable-predicate rule both ways.
    drive_attrs(v, 120, 24, 1, &[sym("price"), sym("discount")], 120);
}

#[test]
fn incremental_equals_full_on_disj_social_workload() {
    let w = ged_datagen::disj::social_disj(&ged_datagen::social::SocialConfig::default(), 2, 2, 25);
    let v = IncrementalValidator::with_threads(w.graph, w.sigma, 2);
    assert_eq!(v.violation_count(), w.planted);
    // Integer writes to tier always leave the string domain (every
    // disjunct fails); is_fake/suspended writes toggle the conditional
    // rule's premise and escape hatch.
    drive_attrs(
        v,
        100,
        26,
        1,
        &[sym("tier"), sym("is_fake"), sym("suspended")],
        2,
    );
}

#[test]
fn incremental_equals_full_on_disj_kb_workload() {
    let w = ged_datagen::disj::kb_disj(&ged_datagen::kb::KbConfig::default(), 3, 27);
    let v = IncrementalValidator::with_threads(w.graph, w.sigma, 1);
    assert_eq!(v.violation_count(), w.planted);
    // Visibility values 0..5 fall in and out of the {0,1,2} domain.
    drive_attrs(v, 100, 28, 1, &[sym("visibility")], 5);
}

/// Batched delta sets — including remove-then-re-add within one batch —
/// maintain GDC and GED∨ stores exactly like per-delta application.
#[test]
fn batched_deltas_equal_full_for_gdc_and_disj() {
    let w = ged_datagen::gdc::social_gdcs(&ged_datagen::social::SocialConfig::default(), 2, 31);
    let mut v = IncrementalValidator::with_threads(w.graph, w.sigma, 2);
    let attrs = [sym("age")];
    let mut rng = StdRng::seed_from_u64(32);
    for batch_no in 0..10 {
        let mut batch = DeltaSet::new();
        for _ in 0..8 {
            batch.push(random_delta(v.graph(), &mut rng, &attrs, 30));
        }
        v.apply_all(&batch);
        assert_matches_full(&v, batch_no);
    }
    // An explicit remove-then-re-add of a violating attribute in one
    // batch: the witness survives as retained, exactly as for GEDs.
    let underage = v
        .graph()
        .nodes()
        .find(|&n| {
            v.graph().label(n) == sym("account")
                && v.graph()
                    .attr(n, sym("age"))
                    .is_some_and(|a| *a < Value::from(13))
        })
        .map(|n| (n, v.graph().attr(n, sym("age")).unwrap().clone()));
    if let Some((n, age)) = underage {
        let batch: DeltaSet = vec![
            Delta::DelAttr {
                node: n,
                attr: sym("age"),
            },
            Delta::SetAttr {
                node: n,
                attr: sym("age"),
                value: age,
            },
        ]
        .into();
        let stats = v.apply_all(&batch);
        assert_eq!(stats.violations_removed, 0);
        assert_eq!(stats.violations_added, 0);
        assert_eq!(stats.violations_retained, 1);
        assert_matches_full(&v, 99);
    }

    let w = ged_datagen::disj::kb_disj(&ged_datagen::kb::KbConfig::default(), 2, 33);
    let mut v = IncrementalValidator::with_threads(w.graph, w.sigma, 2);
    let attrs = [sym("visibility")];
    let mut rng = StdRng::seed_from_u64(34);
    for batch_no in 0..10 {
        let mut batch = DeltaSet::new();
        for _ in 0..8 {
            batch.push(random_delta(v.graph(), &mut rng, &attrs, 5));
        }
        v.apply_all(&batch);
        assert_matches_full(&v, batch_no);
    }
}

// ---------------------------------------------------------------------
// Heterogeneous Σ: GED + GDC + GED∨ carried by the closed `SigmaConstraint`
// enum (statically dispatched `check`), served by
// ONE validator instance — the same randomized harness, plus a lockstep
// comparison of the seed-chunk sharded delta path against the sequential
// one at several worker counts.
// ---------------------------------------------------------------------

/// The attribute vocabulary the mixed workload's rules read: integer
/// writes to `tier` leave the string domain (every disjunct fails),
/// `age` writes straddle the age≥13 boundary, `verified`/`is_fake` flips
/// toggle the conjunctive GED's premise and conclusion.
fn mixed_attrs() -> Vec<Symbol> {
    vec![sym("age"), sym("tier"), sym("verified"), sym("is_fake")]
}

#[test]
fn incremental_equals_full_on_mixed_sigma() {
    let w = ged_datagen::mixed::social_mixed(&ged_datagen::social::SocialConfig::default(), 3, 51);
    let v: IncrementalValidator<SigmaConstraint> =
        IncrementalValidator::with_threads(w.graph, w.sigma, 2);
    assert_eq!(v.violation_count(), w.planted, "seeding finds the plants");
    drive_attrs(v, 120, 52, 1, &mixed_attrs(), 30);
}

/// The sharded delta path matches the sequential one step-by-step:
/// validators at 1/2/8 workers ingest identical batches (large enough to
/// cross the parallel threshold) and must produce identical stats and
/// witness sets at every step — and match full revalidation.
#[test]
fn mixed_sigma_sharded_delta_path_matches_sequential_step_by_step() {
    let w = ged_datagen::mixed::social_mixed(&ged_datagen::social::SocialConfig::default(), 3, 53);
    let mut vs: Vec<IncrementalValidator<SigmaConstraint>> = [1usize, 2, 8]
        .iter()
        .map(|&t| IncrementalValidator::with_threads(w.graph.clone(), w.sigma.clone(), t))
        .collect();
    let attrs = mixed_attrs();
    let mut rng = StdRng::seed_from_u64(54);
    for batch_no in 0..12 {
        let mut batch = DeltaSet::new();
        for _ in 0..12 {
            batch.push(random_delta(vs[0].graph(), &mut rng, &attrs, 30));
        }
        let base_stats = vs[0].apply_all(&batch);
        let base = witness_set(&vs[0].report());
        for v in &mut vs[1..] {
            let threads = v.threads();
            let stats = v.apply_all(&batch);
            assert_eq!(stats, base_stats, "batch {batch_no} at {threads} workers");
            assert_eq!(
                witness_set(&v.report()),
                base,
                "batch {batch_no} at {threads} workers"
            );
        }
        assert_matches_full(&vs[0], batch_no);
    }
}

/// `set_threads` retunes the delta path mid-stream: a validator seeded
/// sequentially serves the same batches sharded after the switch.
#[test]
fn set_threads_switches_the_mixed_delta_path_mid_stream() {
    let w = ged_datagen::mixed::social_mixed(&ged_datagen::social::SocialConfig::default(), 2, 57);
    let mut v: IncrementalValidator<SigmaConstraint> =
        IncrementalValidator::with_threads(w.graph, w.sigma, 1);
    let attrs = mixed_attrs();
    let mut rng = StdRng::seed_from_u64(58);
    for batch_no in 0..8 {
        if batch_no == 4 {
            v.set_threads(4);
            assert_eq!(v.threads(), 4);
        }
        let mut batch = DeltaSet::new();
        for _ in 0..12 {
            batch.push(random_delta(v.graph(), &mut rng, &attrs, 30));
        }
        v.apply_all(&batch);
        assert_matches_full(&v, batch_no);
    }
}

// ---------------------------------------------------------------------
// Premise pushdown: the engine compiles each rule's constant and
// equality premises into its match plan as candidate filters; the oracle
// (`validate`) enumerates plainly and lets `check` decide. This Σ sits on
// every edge of the filters' semantics, and the stream keeps moving
// matches across them.
// ---------------------------------------------------------------------

/// Rules whose premises the join filter must decide exactly as
/// `literal_holds` does: a cross-attribute join over an edge (either side
/// may lose its attribute), a same-variable premise, a constant beside a
/// join, the disconnected key:entity rule, a GDC whose `<` premise the
/// literal view drops (inexact view: the `=` premise is pushed, `<` is left
/// to `check`), and a key whose second component is wildcard-labelled —
/// the engine indexes `(entity, key)` for both key rules, so `x` is probed
/// when `y` is assigned first, while `y` after `x` can only scan.
fn pushdown_sigma(key: Ged) -> Vec<SigmaConstraint> {
    let (k, a0, a1) = (sym("key"), sym("attr0"), sym("attr1"));
    let edge = || parse_pattern("_(x) -[_]-> _(y)").unwrap();
    let (x, y) = (Var(0), Var(1));
    vec![
        key.into(),
        Ged::new(
            "cross-join",
            edge(),
            vec![Literal::vars(x, a0, y, a1)],
            vec![Literal::vars(x, k, y, k)],
        )
        .into(),
        Ged::new(
            "same-var",
            parse_pattern("_(x)").unwrap(),
            vec![Literal::vars(x, a0, x, a1)],
            vec![Literal::vars(x, k, x, k)],
        )
        .into(),
        Ged::new(
            "const-and-join",
            parse_pattern("_(x) <-[_]- _(y) -[_]-> _(z)").unwrap(),
            vec![
                Literal::constant(y, a0, 1),
                Literal::vars(x, a1, Var(2), a1),
            ],
            vec![Literal::id(x, Var(2))],
        )
        .into(),
        Gdc::new(
            "inexact",
            edge(),
            vec![
                GdcLiteral::vars(x, a0, Pred::Eq, y, a0),
                GdcLiteral::vars(x, a1, Pred::Lt, y, a1),
            ],
            vec![GdcLiteral::vars(x, k, Pred::Ne, y, k)],
        )
        .into(),
        Ged::new(
            "wild-key",
            parse_pattern("entity(x); _(y)").unwrap(),
            vec![Literal::vars(x, k, y, k)],
            vec![Literal::id(x, y)],
        )
        .into(),
    ]
}

/// Validators at 1/2/8 workers ingest identical batches — attribute
/// writes over a value pool where `Int 1` meets `Float 1.0`, unsets, node
/// removals, edge churn, remove-then-re-add pairs inside one batch, and
/// everything a batch can do to an indexed key (a node added and keyed, a
/// keyed node removed, the key unset and set again, the key overwritten
/// twice) — and agree with each other and with full revalidation after
/// every one.
#[test]
fn pushed_down_premises_stay_in_lockstep_with_the_oracle() {
    let cfg = RandomGraphConfig {
        n_nodes: 70,
        n_edges: 160,
        n_labels: 2,
        value_range: 3,
        seed: 61,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let key = plant_key_violations(&mut g, "entity", 4);
    let sigma = pushdown_sigma(key);
    assert!(
        !sigma[4].literal_view().unwrap().exact,
        "the GDC exposes only its equality fragment"
    );
    let entity = sym("entity");
    for (rule, requests) in [
        (0, vec![(entity, sym("key"))]),
        (1, vec![]),
        (5, vec![(entity, sym("key"))]),
    ] {
        let plan = ged_repro::engine::rule_plan(&sigma[rule]);
        assert_eq!(plan.index_requests(), requests, "{}", sigma[rule].name());
    }
    let mut vs: Vec<IncrementalValidator<SigmaConstraint>> = [1usize, 2, 8]
        .iter()
        .map(|&t| IncrementalValidator::with_threads(g.clone(), sigma.clone(), t))
        .collect();
    assert_matches_full(&vs[0], 0);

    let attrs = [sym("key"), sym("attr0"), sym("attr1")];
    let pool = [
        Value::Int(0),
        Value::Int(1),
        Value::Float(1.0),
        Value::Float(0.5),
        Value::Int(2),
    ];
    let mut rng = StdRng::seed_from_u64(62);
    let mut fired = BTreeSet::new();
    for batch_no in 1..=60 {
        let g = vs[0].graph();
        let mut batch = DeltaSet::new();
        for _ in 0..rng.random_range(1..14u32) {
            let mut d = random_delta(g, &mut rng, &attrs, 1);
            if let Delta::SetAttr { value, .. } = &mut d {
                *value = pool[rng.random_range(0..pool.len())].clone();
            }
            batch.push(d);
        }
        if batch_no % 3 == 0 {
            // Unset and restore an attribute, drop and restore an edge:
            // the touched matches must come back exactly as they were.
            let nodes: Vec<NodeId> = g.nodes().collect();
            let node = nodes[rng.random_range(0..nodes.len())];
            let attr = attrs[rng.random_range(0..attrs.len())];
            if let Some(value) = g.attr(node, attr).cloned() {
                batch.push(Delta::DelAttr { node, attr });
                batch.push(Delta::SetAttr { node, attr, value });
            }
            if let Some(e) = g.edges().nth(rng.random_range(0..g.edge_count().max(1))) {
                let (src, label, dst) = (e.src, e.label, e.dst);
                batch.push(Delta::RemoveEdge { src, label, dst });
                batch.push(Delta::AddEdge { src, label, dst });
            }
        }
        // The indexed pair, written every way one batch can: the index
        // must read right at the batch boundary, whatever happened inside.
        let attr = sym("key");
        let value = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())].clone();
        let entities = g.nodes_with_label(entity);
        let keyed = |rng: &mut StdRng| entities[rng.random_range(0..entities.len())];
        match batch_no % 4 {
            0 => {
                // Ids are dense: this `AddNode` gets the bound plus the
                // nodes the batch adds before it.
                let adds = |d: &&Delta| matches!(d, Delta::AddNode { .. });
                let earlier = batch.deltas().iter().filter(adds).count();
                let node = NodeId((g.node_id_bound() + earlier) as u32);
                batch.push(Delta::AddNode { label: entity });
                let value = value(&mut rng);
                batch.push(Delta::SetAttr { node, attr, value });
            }
            1 => batch.push(Delta::RemoveNode {
                node: keyed(&mut rng),
            }),
            2 => {
                let node = keyed(&mut rng);
                batch.push(Delta::DelAttr { node, attr });
                let value = value(&mut rng);
                batch.push(Delta::SetAttr { node, attr, value });
            }
            _ => {
                let node = keyed(&mut rng);
                for _ in 0..2 {
                    let value = value(&mut rng);
                    batch.push(Delta::SetAttr { node, attr, value });
                }
            }
        }
        let base_stats = vs[0].apply_all(&batch);
        vs[0].graph().assert_index_consistent();
        let base = witness_set(&vs[0].report());
        for v in &mut vs[1..] {
            let threads = v.threads();
            assert_eq!(
                v.apply_all(&batch),
                base_stats,
                "batch {batch_no}, {threads} workers"
            );
            assert_eq!(
                witness_set(&v.report()),
                base,
                "batch {batch_no}, {threads} workers"
            );
        }
        assert_matches_full(&vs[0], batch_no);
        fired.extend(base.into_iter().map(|(rule, _, _)| rule));
    }
    assert_eq!(
        fired.len(),
        sigma.len(),
        "every rule had witnesses: {fired:?}"
    );
}

// ---------------------------------------------------------------------
// Matcher lockstep: the CSR label-partitioned adjacency view and the
// degree pre-filter are pure mechanics — they must never change a match
// set. Randomized graphs are mutated through the paths that stress the
// per-label groups (tombstoned nodes, self-loops, remove-then-re-add of
// the same edge), then every matcher flag combination is compared
// against the plain label-scan baseline on random patterns.
// ---------------------------------------------------------------------

/// Canonical order for comparing whole match sets.
fn canon_matches(mut ms: Vec<Vec<NodeId>>) -> Vec<Vec<NodeId>> {
    ms.sort();
    ms
}

#[test]
fn matcher_heuristics_match_label_scan_on_mutated_random_graphs() {
    use ged_datagen::random::random_pattern;
    use ged_repro::pattern::find_all;

    for seed in 0..5u64 {
        let cfg = RandomGraphConfig {
            n_nodes: 60,
            n_edges: 180,
            seed,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC5);
        // Tombstone some nodes: their ids stay dead, their groups must
        // vanish from every neighbor's labeled adjacency.
        for _ in 0..6 {
            let live: Vec<NodeId> = g.nodes().collect();
            g.remove_node(live[rng.random_range(0..live.len())]);
        }
        // Self-loops: one node serving as both endpoints of a group entry.
        let live: Vec<NodeId> = g.nodes().collect();
        for _ in 0..5 {
            let n = live[rng.random_range(0..live.len())];
            g.add_edge(n, sym("loop"), n);
        }
        // Remove-then-re-add: the same (src, label, dst) leaves its group
        // and comes back — the delete/insert pair must round-trip.
        let edges: Vec<_> = g.edges().collect();
        for _ in 0..5 {
            let e = edges[rng.random_range(0..edges.len())];
            if g.remove_edge(e.src, e.label, e.dst) {
                assert!(g.add_edge(e.src, e.label, e.dst), "re-add after remove");
            }
        }
        for pseed in 0..6u64 {
            let q = random_pattern(3, &cfg, pseed);
            let baseline = canon_matches(find_all(
                &q,
                &g,
                MatchOptions {
                    smart_order: false,
                    adjacency_candidates: false,
                    prefilter: false,
                    ..MatchOptions::homomorphism()
                },
            ));
            for smart in [false, true] {
                for adj in [false, true] {
                    for pre in [false, true] {
                        let opts = MatchOptions {
                            smart_order: smart,
                            adjacency_candidates: adj,
                            prefilter: pre,
                            ..MatchOptions::homomorphism()
                        };
                        assert_eq!(
                            canon_matches(find_all(&q, &g, opts)),
                            baseline,
                            "graph seed {seed}, pattern seed {pseed}: \
                             smart={smart} adj={adj} pre={pre}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Observability: counter determinism under sharding, histogram
// monotonicity across batches.
// ---------------------------------------------------------------------

/// Metric counters are shard-invariant: anchored re-enumeration is
/// per-seed work and chunk boundaries only redistribute units across
/// workers, so validators at 1/2/8 workers ingesting identical batches
/// over the mixed Σ tally identical attempts, matches, violations, and
/// witness churn — the sequential totals, exactly.
#[test]
fn metrics_counters_identical_sequential_vs_sharded() {
    let w = ged_datagen::mixed::social_mixed(&ged_datagen::social::SocialConfig::default(), 3, 61);
    let mut vs: Vec<IncrementalValidator<SigmaConstraint>> = [1usize, 2, 8]
        .iter()
        .map(|&t| IncrementalValidator::with_threads(w.graph.clone(), w.sigma.clone(), t))
        .collect();
    let attrs = mixed_attrs();
    let mut rng = StdRng::seed_from_u64(62);
    for _ in 0..10 {
        let mut batch = DeltaSet::new();
        for _ in 0..12 {
            // 12 deltas per batch: footprints cross the parallel
            // threshold, so the 2/8-worker validators really shard.
            batch.push(random_delta(vs[0].graph(), &mut rng, &attrs, 30));
        }
        for v in &mut vs {
            v.apply_all(&batch);
        }
    }
    let base = vs[0].metrics();
    for v in &vs[1..] {
        let m = v.metrics();
        let t = v.threads();
        assert_eq!(m.batches, base.batches, "batches at {t} workers");
        assert_eq!(m.deltas_applied, base.deltas_applied, "{t} workers");
        assert_eq!(m.touched_nodes, base.touched_nodes, "{t} workers");
        assert_eq!(m.witnesses_dropped, base.witnesses_dropped, "{t} workers");
        assert_eq!(m.witnesses_removed, base.witnesses_removed, "{t} workers");
        assert_eq!(m.witnesses_added, base.witnesses_added, "{t} workers");
        assert_eq!(m.witnesses_retained, base.witnesses_retained, "{t} workers");
        assert_eq!(m.store_size, base.store_size, "{t} workers");
        assert_eq!(m.match_attempts(), base.match_attempts(), "{t} workers");
        assert_eq!(m.matches_found(), base.matches_found(), "{t} workers");
        for (r, b) in m.rules.iter().zip(&base.rules) {
            assert_eq!(r.name, b.name, "{t} workers");
            assert_eq!(
                r.match_attempts, b.match_attempts,
                "{}: {t} workers",
                r.name
            );
            assert_eq!(r.matches_found, b.matches_found, "{}: {t} workers", r.name);
            assert_eq!(
                r.violations_found, b.violations_found,
                "{}: {t} workers",
                r.name
            );
        }
    }
}

/// Histograms and counters only grow: snapshots taken after each batch
/// dominate the previous one sample-for-sample (phase counts and sums,
/// unit latencies, per-rule tallies), and the batch counter advances by
/// exactly one per apply.
#[test]
fn metrics_histograms_grow_monotonically_across_batches() {
    let (g, sigma) = workload(80, 1, 63);
    let mut v = IncrementalValidator::with_threads(g, sigma, 2);
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];
    let mut rng = StdRng::seed_from_u64(64);
    let mut prev = v.metrics();
    for batch_no in 0..12 {
        let mut batch = DeltaSet::new();
        for _ in 0..10 {
            batch.push(random_delta(v.graph(), &mut rng, &attrs, 4));
        }
        v.apply_all(&batch);
        let m = v.metrics();
        assert_eq!(m.batches, prev.batches + 1, "batch {batch_no}");
        assert!(m.deltas_applied >= prev.deltas_applied, "batch {batch_no}");
        for (p, q) in m.phases.iter().zip(&prev.phases) {
            assert!(
                p.latency.count >= q.latency.count,
                "batch {batch_no}: {} count shrank",
                p.phase.name()
            );
            assert!(
                p.latency.sum_ns >= q.latency.sum_ns,
                "batch {batch_no}: {} sum shrank",
                p.phase.name()
            );
            assert!(
                p.latency.max_ns >= q.latency.max_ns,
                "batch {batch_no}: {} max shrank",
                p.phase.name()
            );
        }
        assert!(
            m.unit_latency.count >= prev.unit_latency.count,
            "batch {batch_no}"
        );
        for (r, b) in m.rules.iter().zip(&prev.rules) {
            assert!(r.match_attempts >= b.match_attempts, "batch {batch_no}");
            assert!(r.matches_found >= b.matches_found, "batch {batch_no}");
            assert!(r.seed_ns >= b.seed_ns, "batch {batch_no}");
            assert!(r.reenum_ns >= b.reenum_ns, "batch {batch_no}");
        }
        prev = m;
    }
}

/// Write an acceptance run's metrics snapshot next to the working dir so
/// CI can upload it as an artifact alongside `BENCH_INC.json`.
fn write_metrics_snapshot(v: &IncrementalValidator<impl Constraint>, file: &str) {
    let json = v.metrics().to_json();
    if let Err(e) = std::fs::write(file, format!("{json}\n")) {
        eprintln!("could not write {file}: {e}");
    }
}

/// The acceptance-scale scenario: 10k-node datagen graph, 1k random
/// deltas, incremental report equals full revalidation at every step.
/// Run with `cargo test --release --test incremental -- --ignored`.
#[test]
#[ignore = "acceptance-scale; run in release mode"]
fn acceptance_10k_nodes_1k_deltas_every_step() {
    let (g, sigma) = workload(10_000, 2, 47);
    let v = IncrementalValidator::new(g, sigma);
    let v = drive(v, 1_000, 12, 1);
    write_metrics_snapshot(&v, "METRICS_10K.json");
}

/// The GDC acceptance-scale scenario: a ~10k-node social graph under the
/// dense-order age GDCs, 1k random deltas, incremental equals full at
/// every step — the generic engine at the same scale bar as the plain-GED
/// run. Run with `cargo test --release --test incremental -- --ignored`.
#[test]
#[ignore = "acceptance-scale; run in release mode"]
fn acceptance_gdc_10k_nodes_1k_deltas_every_step() {
    let cfg = ged_datagen::social::SocialConfig {
        n_honest: 2_400,
        ..Default::default()
    };
    let w = ged_datagen::gdc::social_gdcs(&cfg, 20, 48);
    assert!(w.graph.node_count() >= 9_600, "acceptance scale");
    let v = IncrementalValidator::new(w.graph, w.sigma);
    let v = drive_attrs(v, 1_000, 49, 1, &[sym("age")], 30);
    write_metrics_snapshot(&v, "METRICS_10K_GDC.json");
}

/// The mixed-Σ acceptance-scale scenario: a ~10k-node social graph under
/// one heterogeneous rule set (GED + GDC + GED∨ in a single
/// `IncrementalValidator<SigmaConstraint>`), 1k random deltas, incremental
/// equals full at every step. Run with
/// `cargo test --release --test incremental -- --ignored`.
#[test]
#[ignore = "acceptance-scale; run in release mode"]
fn acceptance_mixed_10k_nodes_1k_deltas_every_step() {
    let cfg = ged_datagen::social::SocialConfig {
        n_honest: 2_400,
        ..Default::default()
    };
    let w = ged_datagen::mixed::social_mixed(&cfg, 20, 55);
    assert!(w.graph.node_count() >= 9_600, "acceptance scale");
    let v: IncrementalValidator<SigmaConstraint> = IncrementalValidator::new(w.graph, w.sigma);
    let v = drive_attrs(v, 1_000, 56, 1, &mixed_attrs(), 30);
    write_metrics_snapshot(&v, "METRICS_10K_MIXED.json");
}
