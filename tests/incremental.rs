//! Incremental ≡ full: generated delta streams over the datagen graphs,
//! with the `IncrementalValidator` held after
//! every batch against a from-scratch `validate` of a mirror graph, for
//! every family as the one rule type (GEDs, GDCs, GED∨s, and
//! the three in one Σ). The stream, the oracle and the comparison are the
//! lockstep driver's (`support/lockstep.rs`, DESIGN.md §11); what is here
//! is the workloads, the scripted scenarios, and the engine's own
//! bookkeeping (churn classification, metrics) under the same streams.
//!
//! The acceptance-scale runs (10k nodes, 1k deltas; plain-GED, GDC and
//! mixed sigmas) are `#[ignore]`d so the default test pass stays fast; run
//! them with `cargo test --release --test incremental -- --ignored`.

use ged_datagen::random::evolving_workload;
use ged_datagen::social::SocialConfig;
use ged_datagen::stream::DeltaStream;
use ged_repro::prelude::*;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{
    assert_current, ints, key_attrs, pushdown_workload, run, served, validator, wildcard_sigma,
};

/// One stream, one validator, every boundary.
fn in_lockstep(
    (graph, sigma): (&Graph, &[Rule]),
    traffic: (u64, &[Symbol], &[Value]),
    shape: (usize, usize),
) {
    run((graph, sigma), traffic, shape, &[validator()]);
}

#[test]
fn incremental_equals_full_random_graph_every_step() {
    let (g, sigma) = evolving_workload(120, 3, 2, 41);
    in_lockstep((&g, &served(sigma)), (7, &key_attrs(), &ints(4)), (150, 1));
}

#[test]
fn incremental_equals_full_single_threaded() {
    let (g, sigma) = evolving_workload(60, 3, 1, 42);
    in_lockstep((&g, &served(sigma)), (8, &key_attrs(), &ints(4)), (120, 1));
}

#[test]
fn incremental_equals_full_on_social_workload() {
    let g = ged_datagen::social::generate(&SocialConfig::default()).graph;
    let sigma = served(vec![ged_datagen::rules::phi5(2, "v1agr4")]);
    // Social attrs: is_fake flags and blog keywords.
    in_lockstep(
        (&g, &sigma),
        (5, &[sym("is_fake"), sym("keyword")], &ints(2)),
        (80, 1),
    );
}

#[test]
fn incremental_equals_full_on_music_workload() {
    let g = ged_datagen::music::generate(&ged_datagen::music::MusicConfig::default()).graph;
    let attrs = [sym("title"), sym("release"), sym("name")];
    in_lockstep(
        (&g, &served(ged_datagen::rules::music_keys())),
        (6, &attrs, &ints(3)),
        (60, 1),
    );
}

#[test]
fn incremental_equals_full_on_coloring_workload() {
    let inst = ged_datagen::coloring::ColoringInstance::random(7, 4, 9);
    let (g, ged) = ged_datagen::coloring::validation_gfdx(&inst);
    in_lockstep((&g, &[ged.into()]), (10, &[sym("A")], &ints(3)), (60, 1));
}

#[test]
fn self_loop_pattern_tracks_self_loop_deltas() {
    // φ: a node with an `e` self-loop must agree with itself on p vs q.
    let mut q = Pattern::new();
    let x = q.var("x", "t");
    q.edge(x, "e", x);
    let agree = vec![Literal::vars(x, sym("p"), x, sym("q"))];
    let phi = Ged::new("selfloop", q, vec![], agree);
    let mut g = Graph::new();
    let a = g.add_node(sym("t"));
    let b = g.add_node(sym("t"));
    g.set_attr(a, sym("p"), 1);
    g.set_attr(a, sym("q"), 2);
    g.set_attr(b, sym("p"), 1);
    g.set_attr(b, sym("q"), 1);
    g.add_edge(b, sym("e"), b);
    let mut v = IncrementalValidator::new(g, vec![phi.into()]);
    assert!(v.is_satisfied(), "b's self-loop agrees, a has no loop");

    let (src, label, dst) = (a, sym("e"), a);
    let set_q = |value: i64| Delta::SetAttr {
        node: a,
        attr: sym("q"),
        value: value.into(),
    };
    let stats = v.apply(&Delta::AddEdge { src, label, dst });
    assert_eq!(stats.touched_nodes, 1, "src == dst is one footprint node");
    assert_eq!(v.violation_count(), 1);
    assert_current(&v);

    v.apply(&set_q(1));
    assert!(v.is_satisfied());
    assert_current(&v);

    v.apply(&set_q(3));
    assert_eq!(v.violation_count(), 1);
    let stats = v.apply(&Delta::RemoveEdge { src, label, dst });
    assert_eq!(stats.violations_removed, 1);
    assert!(v.is_satisfied());
    assert_current(&v);
}

#[test]
fn remove_then_re_add_within_one_batch_is_retained() {
    // φ: connected t-nodes must agree on p. One violating edge a → b.
    let q = parse_pattern("t(x) -[e]-> t(y)").unwrap();
    let (x, y) = (q.var_by_name("x").unwrap(), q.var_by_name("y").unwrap());
    let agree = vec![Literal::vars(x, sym("p"), y, sym("p"))];
    let phi = Ged::new("agree", q, vec![], agree);
    let mut g = Graph::new();
    let a = g.add_node(sym("t"));
    let b = g.add_node(sym("t"));
    g.set_attr(a, sym("p"), 1);
    g.set_attr(b, sym("p"), 2);
    g.add_edge(a, sym("e"), b);
    let mut v = IncrementalValidator::new(g, vec![phi.into()]);
    assert_eq!(v.violation_count(), 1);
    let churn = |stats: &ApplyStats| {
        let (removed, added) = (stats.violations_removed, stats.violations_added);
        (removed, added, stats.violations_retained)
    };

    // Remove the edge and put it straight back in the same batch: the
    // witness survives the update — retained, neither removed nor added.
    let (src, label, dst) = (a, sym("e"), b);
    let (cut, tie) = (
        Delta::RemoveEdge { src, label, dst },
        Delta::AddEdge { src, label, dst },
    );
    let stats = v.apply_all(&vec![cut.clone(), tie.clone()].into());
    assert_eq!(stats.deltas_applied, 2);
    assert_eq!(churn(&stats), (0, 0, 1));
    assert_eq!(v.violation_count(), 1);
    assert_current(&v);

    // Same for an attribute: delete and restore within one batch.
    let (node, attr, value) = (b, sym("p"), Value::from(2));
    let undo = vec![
        Delta::DelAttr { node, attr },
        Delta::SetAttr { node, attr, value },
    ];
    let stats = v.apply_all(&undo.into());
    assert_eq!(churn(&stats), (0, 0, 1));
    assert_current(&v);

    // An odd number of toggles really does remove the witness.
    let stats = v.apply_all(&vec![cut.clone(), tie, cut].into());
    assert_eq!(churn(&stats), (1, 0, 0));
    assert!(v.is_satisfied());
    assert_current(&v);
}

#[test]
fn incremental_equals_full_with_wildcard_rules() {
    // Wildcard node and edge labels: every node matches, every edge
    // matches — the widest affected areas the matcher can produce.
    let (g, _) = evolving_workload(60, 3, 0, 46);
    in_lockstep(
        (&g, &served(wildcard_sigma())),
        (9, &key_attrs(), &ints(4)),
        (100, 1),
    );
}

#[test]
fn batched_delta_sets_equal_full() {
    // Batch entries are drawn against the pre-batch graph, so some are
    // no-ops by the time they apply (edges to nodes removed earlier in the
    // batch) — exactly what the engine must tolerate.
    let (g, sigma) = evolving_workload(80, 3, 1, 43);
    in_lockstep((&g, &served(sigma)), (11, &key_attrs(), &ints(4)), (15, 10));
}

#[test]
fn evolved_graphs_chase_after_compaction() {
    // The chase requires dense ids; an evolved graph must be compacted
    // first (it hard-asserts otherwise — see `Graph::compact`).
    let (g, sigma) = evolving_workload(40, 3, 0, 44);
    let mut v = IncrementalValidator::new(g, served(sigma.clone()));
    let victim = v.graph().nodes().nth(3).unwrap();
    v.apply(&Delta::RemoveNode { node: victim });
    let rules = v.sigma().to_vec();
    let evolved = v.into_graph();
    assert!(evolved.has_removals());

    let (dense, _map) = evolved.compact();
    let result = chase(&dense, &sigma);
    assert!(result.stats().within_bounds());
    // The chased coercion satisfies Σ (Theorem 1) when consistent.
    if let ChaseResult::Consistent { coercion, .. } = result {
        assert!(satisfies_all(&coercion.graph, &rules));
    }
}

#[test]
#[should_panic(expected = "compact")]
fn chase_rejects_tombstoned_graphs() {
    let (g, sigma) = evolving_workload(20, 3, 0, 45);
    let mut v = IncrementalValidator::new(g, served(sigma.clone()));
    let victim = v.graph().nodes().next().unwrap();
    v.apply(&Delta::RemoveNode { node: victim });
    let _ = chase(&v.into_graph(), &sigma);
}

// ---------------------------------------------------------------------
// Every family: the same randomized harness, driven over GDC and GED∨
// sigmas across all delta kinds.
// ---------------------------------------------------------------------

#[test]
fn incremental_equals_full_on_gdc_social_workload() {
    let w = ged_datagen::gdc::social_gdcs(&SocialConfig::default(), 3, 21);
    let sigma = w.sigma;
    assert_eq!(validate(&w.graph, &sigma, None).violations.len(), w.planted);
    // Ages 0..30 straddle the age≥13 boundary, so writes repair and
    // re-introduce violations; the rest of the delta mix adds/removes
    // nodes and edges under the same rules.
    in_lockstep((&w.graph, &sigma), (22, &[sym("age")], &ints(30)), (120, 1));
}

#[test]
fn incremental_equals_full_on_gdc_kb_workload() {
    let w = ged_datagen::gdc::kb_gdcs(&ged_datagen::kb::KbConfig::default(), 4, 23);
    let sigma = w.sigma;
    assert_eq!(validate(&w.graph, &sigma, None).violations.len(), w.planted);
    // price/discount writes flip the variable-predicate rule both ways.
    let attrs = [sym("price"), sym("discount")];
    in_lockstep((&w.graph, &sigma), (24, &attrs, &ints(120)), (120, 1));
}

#[test]
fn incremental_equals_full_on_disj_social_workload() {
    let w = ged_datagen::disj::social_disj(&SocialConfig::default(), 2, 2, 25);
    let sigma = w.sigma;
    assert_eq!(validate(&w.graph, &sigma, None).violations.len(), w.planted);
    // Integer writes to tier always leave the string domain (every
    // disjunct fails); is_fake/suspended writes toggle the conditional
    // rule's premise and escape hatch.
    let attrs = [sym("tier"), sym("is_fake"), sym("suspended")];
    in_lockstep((&w.graph, &sigma), (26, &attrs, &ints(2)), (100, 1));
}

#[test]
fn incremental_equals_full_on_disj_kb_workload() {
    let w = ged_datagen::disj::kb_disj(&ged_datagen::kb::KbConfig::default(), 3, 27);
    let sigma = w.sigma;
    assert_eq!(validate(&w.graph, &sigma, None).violations.len(), w.planted);
    // Visibility values 0..5 fall in and out of the {0,1,2} domain.
    in_lockstep(
        (&w.graph, &sigma),
        (28, &[sym("visibility")], &ints(5)),
        (100, 1),
    );
}

/// Batched delta sets — including remove-then-re-add within one batch (the
/// generator's undo arms: the oracle counts nothing added and nothing
/// removed, so the engine must call the witness retained) — maintain GDC
/// and GED∨ stores exactly like per-delta application.
#[test]
fn batched_deltas_equal_full_for_gdc_and_disj() {
    let w = ged_datagen::gdc::social_gdcs(&SocialConfig::default(), 2, 31);
    let sigma = w.sigma;
    in_lockstep((&w.graph, &sigma), (32, &[sym("age")], &ints(30)), (10, 8));
    let w = ged_datagen::disj::kb_disj(&ged_datagen::kb::KbConfig::default(), 2, 33);
    let sigma = w.sigma;
    in_lockstep(
        (&w.graph, &sigma),
        (34, &[sym("visibility")], &ints(5)),
        (10, 8),
    );
}

// ---------------------------------------------------------------------
// Heterogeneous Σ: GED + GDC + GED∨ as one `Vec<Rule>`, served by ONE
// validator instance.
// ---------------------------------------------------------------------

/// The attribute vocabulary the mixed workload's rules read: integer
/// writes to `tier` leave the string domain (every disjunct fails),
/// `age` writes straddle the age≥13 boundary, `verified`/`is_fake` flips
/// toggle the conjunctive GED's premise and conclusion.
fn mixed_attrs() -> [Symbol; 4] {
    [sym("age"), sym("tier"), sym("verified"), sym("is_fake")]
}

#[test]
fn incremental_equals_full_on_mixed_sigma() {
    let w = ged_datagen::mixed::social_mixed(&SocialConfig::default(), 3, 51);
    assert_eq!(
        validate(&w.graph, &w.sigma, None).violations.len(),
        w.planted
    );
    in_lockstep(
        (&w.graph, &w.sigma),
        (52, &mixed_attrs(), &ints(30)),
        (120, 1),
    );
}

/// Twelve-draw batches over the mixed Σ — footprints of a dozen nodes
/// under three constraint families — match full revalidation at every
/// step.
#[test]
fn mixed_sigma_twelve_draw_batches_match_full_revalidation_step_by_step() {
    let w = ged_datagen::mixed::social_mixed(&SocialConfig::default(), 3, 53);
    in_lockstep(
        (&w.graph, &w.sigma),
        (54, &mixed_attrs(), &ints(30)),
        (12, 12),
    );
}

/// Premise pushdown: the engine compiles each rule's constant and equality
/// premises into its match plan as candidate filters; the oracle
/// (`validate`) enumerates plainly and lets `check` decide. The pushdown Σ
/// (`lockstep::pushdown_workload`) sits on every edge of the filters'
/// semantics, and the stream — attribute writes over a value pool where
/// `Int 1` meets `Float 1.0`, unsets, node removals, edge churn, undo pairs
/// inside one batch, and everything a batch can do to an indexed key (a
/// node added and keyed, a keyed node removed, the key unset and set again,
/// the key overwritten twice) — keeps moving matches across them.
#[test]
fn pushed_down_premises_stay_in_lockstep_with_the_oracle() {
    let (g, sigma) = pushdown_workload();
    assert!(
        sigma[4]
            .premises
            .iter()
            .any(|l| l.as_eq_literal().is_none()),
        "the GDC has a premise outside the equality fragment"
    );
    let entity = sym("entity");
    for (rule, requests) in [
        (0, vec![(entity, sym("key"))]),
        (1, vec![]),
        (5, vec![(entity, sym("key"))]),
    ] {
        let plan = ged_repro::engine::rule_plan(&sigma[rule]);
        assert_eq!(plan.index_requests(), requests, "{}", sigma[rule].name);
    }
    let pool = [0.into(), 1.into(), 1.0.into(), 0.5.into(), 2.into()];
    let fired = run(
        (&g, &sigma),
        (62, &key_attrs(), &pool),
        (60, 8),
        &[validator()],
    );
    assert_eq!(
        fired.len(),
        sigma.len(),
        "every rule had witnesses: {fired:?}"
    );
}

// ---------------------------------------------------------------------
// Matcher lockstep: the CSR label-partitioned adjacency view, the rooted
// order and the pre-filters are pure mechanics — they must never change a
// match set. Random graphs are mutated by the delta generator, whose arms
// stress the per-label groups (tombstoned nodes, self-loops, an edge removed
// and put back), then the matcher is compared with brute force on random
// patterns.
// ---------------------------------------------------------------------

#[test]
fn default_matcher_matches_brute_force_on_mutated_random_graphs() {
    use ged_datagen::random::{random_graph, random_pattern, RandomGraphConfig};
    use ged_repro::pattern::{find_all, matcher::find_all_brute};

    for seed in 0..5u64 {
        let cfg = RandomGraphConfig {
            n_nodes: 40,
            n_edges: 120,
            seed,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let mut stream = DeltaStream::new(seed ^ 0xC5, &[sym("attr0")], &ints(2));
        for delta in &stream.batch(&g, 60) {
            g.apply_delta(delta);
        }
        assert!(g.has_removals(), "graph seed {seed}: no tombstone");
        for pseed in 0..6u64 {
            let q = random_pattern(3, &cfg, pseed);
            let opts = MatchOptions::homomorphism();
            let (mut fast, mut brute) = (find_all(&q, &g, opts), find_all_brute(&q, &g, opts));
            fast.sort();
            brute.sort();
            assert_eq!(fast, brute, "graph seed {seed}, pattern seed {pseed}");
        }
    }
}

// ---------------------------------------------------------------------
// Observability: histogram monotonicity across batches.
// ---------------------------------------------------------------------

/// Histograms and counters only grow: snapshots taken after each batch
/// dominate the previous one sample-for-sample (phase counts and sums,
/// unit latencies, per-rule tallies), and the batch counter advances by
/// exactly one per apply.
#[test]
fn metrics_histograms_grow_monotonically_across_batches() {
    let (g, sigma) = evolving_workload(80, 3, 1, 63);
    let mut v = IncrementalValidator::new(g, served(sigma));
    let mut stream = DeltaStream::new(64, &key_attrs(), &ints(4));
    // Everything that may only grow, in one comparable row.
    let grown = |m: &MetricsSnapshot| -> Vec<u64> {
        let phase = |p: &ged_repro::engine::PhaseSnapshot| {
            [p.latency.count, p.latency.sum_ns, p.latency.max_ns]
        };
        let rule = |r: &ged_repro::engine::RuleSnapshot| {
            [r.match_attempts, r.matches_found, r.seed_ns, r.reenum_ns]
        };
        let mut row = vec![m.deltas_applied, m.unit_latency.count];
        row.extend(m.phases.iter().flat_map(phase));
        row.extend(m.rules.iter().flat_map(rule));
        row
    };
    let mut prev = v.metrics();
    for batch_no in 0..12 {
        let batch = stream.batch(v.graph(), 10);
        v.apply_all(&batch);
        let m = v.metrics();
        assert_eq!(m.batches, prev.batches + 1, "batch {batch_no}");
        let (now, before) = (grown(&m), grown(&prev));
        let shrank = now.iter().zip(&before).position(|(n, b)| n < b);
        assert_eq!(shrank, None, "batch {batch_no}: {now:?} after {before:?}");
        prev = m;
    }
}

/// The acceptance-scale scenario: 10k-node datagen graph, 1k random
/// deltas, incremental report equals full revalidation at every step.
/// Run with `cargo test --release --test incremental -- --ignored`.
#[test]
#[ignore = "acceptance-scale; run in release mode"]
fn acceptance_10k_nodes_1k_deltas_every_step() {
    let (g, sigma) = evolving_workload(10_000, 3, 2, 47);
    in_lockstep(
        (&g, &served(sigma)),
        (12, &key_attrs(), &ints(4)),
        (1_000, 1),
    );
}

/// A ~10k-node social graph for the GDC and mixed acceptance runs.
fn acceptance_social() -> SocialConfig {
    SocialConfig {
        n_honest: 2_400,
        ..Default::default()
    }
}

/// The GDC acceptance-scale scenario: a ~10k-node social graph under the
/// dense-order age GDCs, 1k random deltas, incremental equals full at
/// every step — the one engine at the same scale bar as the plain-GED
/// run.
#[test]
#[ignore = "acceptance-scale; run in release mode"]
fn acceptance_gdc_10k_nodes_1k_deltas_every_step() {
    let w = ged_datagen::gdc::social_gdcs(&acceptance_social(), 20, 48);
    assert!(w.graph.node_count() >= 9_600, "acceptance scale");
    in_lockstep(
        (&w.graph, &w.sigma),
        (49, &[sym("age")], &ints(30)),
        (1_000, 1),
    );
}

/// The mixed-Σ acceptance-scale scenario: a ~10k-node social graph under
/// one heterogeneous rule set (GED + GDC + GED∨ in a single
/// `IncrementalValidator`), 1k random deltas, incremental
/// equals full at every step.
#[test]
#[ignore = "acceptance-scale; run in release mode"]
fn acceptance_mixed_10k_nodes_1k_deltas_every_step() {
    let w = ged_datagen::mixed::social_mixed(&acceptance_social(), 20, 55);
    assert!(w.graph.node_count() >= 9_600, "acceptance scale");
    in_lockstep(
        (&w.graph, &w.sigma),
        (56, &mixed_attrs(), &ints(30)),
        (1_000, 1),
    );
}
