//! Microbenches for the output-sensitive delta path (DESIGN.md §4).
//!
//! * **drop-intersecting** — `ViolationStore::drop_intersecting` via the
//!   inverted `NodeId → witness` index against a reference full-store
//!   scan, at two store sizes. The indexed drop's cost tracks the number
//!   of *affected* witnesses (the two sizes time alike); the scan's cost
//!   tracks the store size. Each iteration drops a small footprint and
//!   re-inserts the dropped witnesses, so the store stays at full size and
//!   the timed region is exactly the affected-area work.
//! * **anchored-enumeration** — exclusion-aware anchored matching
//!   (`Matcher::for_each_anchored_in`) against the old enumerate-and-discard
//!   owner filter, at two footprint densities. The old scheme enumerates a
//!   match once per touched variable and keeps one; the exclusions prune
//!   those duplicates before the subtree is explored, up to |x̄|× less
//!   matching work on dense footprints.
//! * **leaf-anchor** — a precompiled `MatchPlan` anchored at a *leaf* of
//!   the chain `x → y ← z`, at two label populations. Rooted at the
//!   anchor the search walks `x → y ← z` over edges, so the two sizes
//!   time alike; an order fixed before the anchor is known starts at `z`
//!   and scans every `a` node per seed.
//! * **key-flip** — the graph key `t(x); t(y)` with `x.k = y.k` pushed
//!   into its plan, anchored on eight written nodes at both variables as
//!   the delta path does, at two label populations. With `(t, k)` indexed
//!   the far side of the join is a value-index probe of the written key
//!   and the two sizes time alike; on a graph nobody indexed the same plan
//!   scans every `t` node per seed.
//! * **delta-apply** — `Graph::apply_delta` by variant, each row 1 000
//!   deltas that all change the graph (so a row's µs read as ns per
//!   delta), on 200 000 `account` nodes visited with a stride no cache
//!   line survives. *remove+add-node* removes the node added 64 adds ago
//!   and adds a fresh one, on a 2 000- and a 200 000-node label bucket: a
//!   removal is a binary search plus the shift of a short tail, so the two
//!   sizes time alike (a scan of the bucket grows with it). *set-attr*
//!   overwrites a string with one as long, overwrites an int, inserts an
//!   attribute the node lacks. *add+remove-edge* inserts and removes one
//!   `follow` edge at sources of out-degree 4 and 64 — the baseline the
//!   adjacency work is held to. *apply-all/2x512* is two whole batches of
//!   the social mix (three in four deltas a write, one in four an edge, a
//!   few nodes; the second batch undoes the first) through `apply_all` on
//!   a rule-less validator: apply, fold, and the per-batch bookkeeping.
//!   It and *reenumerate/apply-all/512* go through `Graph::apply_batch`
//!   and its warm pass; the per-variant rows call `apply_delta` one delta
//!   at a time and are the control.
//! * **reenumerate** — the affected-area pass on the start state of
//!   gedbench's `ingest-*` workloads (`social_mixed` at 50 000 accounts
//!   under its four-rule mixed Σ): 31 `DeltaStream` batches of 512 draws
//!   writing `age`, `tier`, `verified` and `keyword` and adding and
//!   removing `like` / `follow` / `post` edges and nodes, drawn up front
//!   against a mirror graph. *apply-all/512* times one batch through
//!   `apply_all` per sample; *anchored-reenumerate* replays the same
//!   batches on a clone of the seeded validator and reads the engine's
//!   own per-batch phase time and match attempts.
//! * **metrics** — what observing costs: random-1k
//!   (`evolving_workload(1_000, 3, 2, 7)`) replays the 1 200 key writes
//!   `tests/perf_bars.rs` times, in batches of 1, 8 and 40 deltas, with the
//!   engine's metrics `on` and `off`. Each sample replays the stream on a
//!   fresh clone of the seeded validator, cloned outside the timed region;
//!   `on` minus `off` is the instrumentation's fixed cost per batch times
//!   the batch count (1 200, 150 and 30).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_core::constraint::ViolationKind;
use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_engine::{Footprint, IncrementalValidator, ViolationStore};
use ged_graph::{sym, Delta, DeltaSet, Graph, NodeId, Value};
use ged_pattern::{
    parse_pattern, Match, MatchOptions, MatchPlan, MatchScratch, Matcher, NoopRecorder, Pattern,
    Var,
};
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

fn key_ged() -> Ged {
    let q = parse_pattern("t(x); t(y)").unwrap();
    Ged::new(
        "key",
        q,
        vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
        vec![Literal::id(Var(0), Var(1))],
    )
}

fn bench_drop(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta-path/drop-intersecting");
    group.sample_size(30);
    // A 10-node footprint hitting 10 witnesses, whatever the store size;
    // the indexed drop is handed it with every node concerning every rule.
    let touched: Vec<NodeId> = (0..10).map(|i| NodeId(4 * i)).collect();
    let footprint = Footprint::every_rule(&touched, 1);
    for &n in &[10_000usize, 100_000] {
        let lit = || ViolationKind::from(vec![0]);
        let mut indexed = ViolationStore::for_sigma(&[key_ged()]);
        let mut scan: HashMap<Match, ViolationKind> = HashMap::new();
        for i in 0..n {
            let m = vec![NodeId(2 * i as u32), NodeId(2 * i as u32 + 1)];
            indexed.insert(0, m.clone(), lit());
            scan.insert(m, lit());
        }
        group.bench_with_input(BenchmarkId::new("indexed", n), &(), |b, ()| {
            b.iter(|| {
                let dropped = indexed.drop_intersecting(black_box(&footprint));
                let k = dropped.len();
                for (g, m, f) in dropped {
                    indexed.insert(g, m, f);
                }
                k
            });
        });
        group.bench_with_input(BenchmarkId::new("scan", n), &(), |b, ()| {
            b.iter(|| {
                let mut dropped = Vec::new();
                scan.retain(|m, f| {
                    if m.iter().any(|n| black_box(&touched).contains(n)) {
                        dropped.push((m.clone(), std::mem::take(f)));
                        false
                    } else {
                        true
                    }
                });
                let k = dropped.len();
                for (m, f) in dropped {
                    scan.insert(m, f);
                }
                k
            });
        });
    }
    group.finish();
}

/// The pre-exclusion affected-area enumeration: anchor every variable on
/// the touched set, enumerate all anchored matches, keep only those the
/// first-touched-variable responsibility rule assigns to the anchor.
fn owner_filter_count(q: &Pattern, g: &Graph, touched: &HashSet<NodeId>) -> usize {
    let matcher = Matcher::new(q, g, MatchOptions::homomorphism());
    let seeds: Vec<NodeId> = touched.iter().copied().collect();
    let mut scratch = MatchScratch::new();
    let mut kept = 0usize;
    for v in q.vars() {
        matcher.for_each_anchored_in(&mut scratch, v, &seeds, &|_, _| false, |m| {
            let owner = q.vars().find(|u| touched.contains(&m[u.idx()])).unwrap();
            if owner == v {
                kept += 1;
            }
            ControlFlow::Continue(())
        });
    }
    kept
}

/// The exclusion-aware enumeration: identical result set, each match
/// completed exactly once.
fn excluding_count(q: &Pattern, g: &Graph, touched: &HashSet<NodeId>) -> usize {
    let matcher = Matcher::new(q, g, MatchOptions::homomorphism());
    let seeds: Vec<NodeId> = touched.iter().copied().collect();
    let mut scratch = MatchScratch::new();
    let mut kept = 0usize;
    for v in q.vars() {
        matcher.for_each_anchored_in(
            &mut scratch,
            v,
            &seeds,
            &|u, n| u.idx() < v.idx() && touched.contains(&n),
            |_| {
                kept += 1;
                ControlFlow::Continue(())
            },
        );
    }
    kept
}

fn bench_anchor(c: &mut Criterion) {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..60).map(|_| g.add_node(sym("t"))).collect();
    // Three independent variables: under homomorphism the match space is
    // n³, and a dense footprint puts several touched variables in most
    // affected matches — the owner filter's worst case.
    let mut q = Pattern::new();
    q.var("x", "t");
    q.var("y", "t");
    q.var("z", "t");
    let mut group = c.benchmark_group("delta-path/anchored-enumeration");
    group.sample_size(10);
    for &footprint in &[10usize, 60] {
        let touched: HashSet<NodeId> = nodes[..footprint].iter().copied().collect();
        let expected = excluding_count(&q, &g, &touched);
        assert_eq!(
            owner_filter_count(&q, &g, &touched),
            expected,
            "both schemes keep the same affected matches"
        );
        group.bench_with_input(BenchmarkId::new("owner-filter", footprint), &(), |b, ()| {
            b.iter(|| owner_filter_count(black_box(&q), black_box(&g), &touched));
        });
        group.bench_with_input(BenchmarkId::new("excluding", footprint), &(), |b, ()| {
            b.iter(|| excluding_count(black_box(&q), black_box(&g), &touched));
        });
    }
    group.finish();
}

fn bench_leaf_anchor(c: &mut Criterion) {
    let q = parse_pattern("a(x) -[e]-> b(y) <-[e]- a(z)").unwrap();
    let plan = MatchPlan::new(&q);
    let mut group = c.benchmark_group("delta-path/leaf-anchor");
    group.sample_size(30);
    for &n in &[1_000usize, 10_000] {
        // n `a` nodes, ten to a `b` hub: every seed has 10 matches
        // whatever n is.
        let mut g = Graph::new();
        let hubs: Vec<NodeId> = (0..n / 10).map(|_| g.add_node(sym("b"))).collect();
        let leaves: Vec<NodeId> = (0..n).map(|_| g.add_node(sym("a"))).collect();
        for (i, &leaf) in leaves.iter().enumerate() {
            g.add_edge(leaf, sym("e"), hubs[i % hubs.len()]);
        }
        let seeds: Vec<NodeId> = leaves.iter().copied().step_by(n / 8).collect();
        let run = |g: &Graph| {
            let opts = MatchOptions::homomorphism();
            let matcher = Matcher::with_plan(&plan, &q, g, opts, &NoopRecorder);
            let mut found = 0usize;
            matcher.for_each_anchored_in(
                &mut MatchScratch::new(),
                Var(0),
                &seeds,
                &|_, _| false,
                |_| {
                    found += 1;
                    ControlFlow::Continue(())
                },
            );
            found
        };
        assert_eq!(run(&g), 10 * seeds.len());
        group.bench_with_input(BenchmarkId::new("rooted-plan", n), &(), |b, ()| {
            b.iter(|| run(black_box(&g)));
        });
    }
    group.finish();
}

fn bench_key_flip(c: &mut Criterion) {
    let key = key_ged();
    let plan = ged_engine::rule_plan(&key);
    let mut group = c.benchmark_group("delta-path/key-flip");
    group.sample_size(30);
    for &n in &[1_000usize, 10_000] {
        // n `t` nodes keyed in pairs: every seed has its twin and itself.
        let mut scan = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| scan.add_node(sym("t"))).collect();
        for (i, &node) in nodes.iter().enumerate() {
            scan.set_attr(node, sym("k"), (i / 2) as i64);
        }
        let mut probe = scan.clone();
        for (label, attr) in plan.index_requests() {
            probe.index_attr(label, attr);
        }
        let seeds: Vec<NodeId> = nodes.iter().copied().step_by(n / 8).collect();
        let run = |g: &Graph| {
            let opts = MatchOptions::homomorphism();
            let matcher = Matcher::with_plan(&plan, &key.pattern, g, opts, &NoopRecorder);
            let mut scratch = MatchScratch::new();
            let mut found = 0usize;
            for v in key.pattern.vars() {
                matcher.for_each_anchored_in(
                    &mut scratch,
                    v,
                    &seeds,
                    &|u, n| u < v && seeds.contains(&n),
                    |_| {
                        found += 1;
                        ControlFlow::Continue(())
                    },
                );
            }
            found
        };
        // Per seed s with twin t: (s, s), (s, t) anchored at x; (t, s) at y.
        assert_eq!(run(&probe), 3 * seeds.len());
        assert_eq!(run(&scan), 3 * seeds.len());
        group.bench_with_input(BenchmarkId::new("probe", n), &(), |b, ()| {
            b.iter(|| run(black_box(&probe)));
        });
        group.bench_with_input(BenchmarkId::new("scan", n), &(), |b, ()| {
            b.iter(|| run(black_box(&scan)));
        });
    }
    group.finish();
}

/// `n` `account` nodes, each with a `tier` string and an `age`.
fn accounts(n: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        let node = g.add_node(sym("account"));
        g.set_attr(node, sym("tier"), format!("tier-{}", i % 7));
        g.set_attr(node, sym("age"), (18 + i % 53) as i64);
    }
    g
}

fn bench_delta_apply(c: &mut Criterion) {
    const N: usize = 200_000;
    // One round of deltas per sample and one for the warm-up, each round on
    // nodes of its own: nothing a sample touches is cached from the last.
    const ROUNDS: usize = 31;
    // A walk over `0..N` (48 271 is prime) that no cache line survives.
    // Each row has a stretch of it for the nodes it writes or links from:
    // the three write rows 31 000 steps each, the two edge rows 15 500
    // from 93 000, the batches from 124 000; edge targets share the last
    // 60 000.
    let strided = |k: usize| NodeId((k * 48_271 % N) as u32);
    let target = |pair: usize, d: usize| strided(140_000 + (pair + 101 * d) % 60_000);
    let set = |k: usize, attr: &str, value: Value| Delta::SetAttr {
        node: strided(k),
        attr: sym(attr),
        value,
    };
    let rounds_of = |delta: &dyn Fn(usize) -> Delta| -> Vec<Vec<Delta>> {
        let round = |r| (r * 1_000..(r + 1) * 1_000).map(delta).collect();
        (0..ROUNDS).map(round).collect()
    };
    let mut group = c.benchmark_group("delta-path/delta-apply");
    group.sample_size(ROUNDS - 1);

    for &n in &[2_000usize, N] {
        let mut g = accounts(n);
        let mut recent: Vec<NodeId> = g.nodes_with_label(sym("account"))[n - 64..].to_vec();
        group.bench_with_input(BenchmarkId::new("remove+add-node", n), &(), |b, ()| {
            b.iter(|| {
                for k in 0..500 {
                    let node = recent[k % 64];
                    assert!(g.apply_delta(&Delta::RemoveNode { node }).changed);
                    let label = sym("account");
                    recent[k % 64] = g.apply_delta(&Delta::AddNode { label }).created.unwrap();
                }
            });
        });
    }

    let mut g = accounts(N);
    let mut rows = vec![
        (
            "set-attr/str-overwrite".to_string(),
            rounds_of(&|i| set(i, "tier", "tier-x".into())),
        ),
        (
            "set-attr/int-overwrite".to_string(),
            rounds_of(&|i| set(31_000 + i, "age", 1.into())),
        ),
        (
            "set-attr/insert".to_string(),
            rounds_of(&|i| set(62_000 + i, "extra", 0.into())),
        ),
    ];
    for (base, degree) in [(93_000, 4), (108_500, 64)] {
        let label = sym("follow");
        for pair in 0..ROUNDS * 500 {
            for d in 1..=degree {
                g.add_edge(strided(base + pair), label, target(pair, d));
            }
        }
        let flip = |i: usize| {
            let (src, dst) = (strided(base + i / 2), target(i / 2, 0));
            match i % 2 {
                0 => Delta::AddEdge { src, label, dst },
                _ => Delta::RemoveEdge { src, label, dst },
            }
        };
        rows.push((format!("add+remove-edge/{degree}"), rounds_of(&flip)));
    }
    for (row, rounds) in &rows {
        let mut rounds = rounds.iter();
        group.bench_with_input(BenchmarkId::new(row, N), &(), |b, ()| {
            b.iter(|| {
                let deltas = rounds.next().expect("one round per sample");
                let changed = deltas.iter().filter(|d| g.apply_delta(d).changed).count();
                assert_eq!(changed, deltas.len(), "a no-op among the timed deltas");
            });
        });
    }

    // The second batch of a round undoes the first, node ids predicted.
    let bound = g.node_id_bound();
    let batch = |r: usize, undo: bool| -> DeltaSet {
        let delta = |j: usize| {
            let k = 124_000 + r * 512 + j;
            let (src, label, dst) = (strided(k), sym("like"), strided(k + N / 4));
            let (created, account) = (NodeId((bound + r * 8 + j / 64) as u32), sym("account"));
            match (j % 64, undo) {
                (0, false) => Delta::AddNode { label: account },
                (0, true) => Delta::RemoveNode { node: created },
                (1..=16, false) => Delta::AddEdge { src, label, dst },
                (1..=16, true) => Delta::RemoveEdge { src, label, dst },
                (17..=40, _) => set(k, "tier", ["tier-p", "tier-q"][undo as usize].into()),
                _ => set(k, "age", (7 + undo as i64).into()),
            }
        };
        (0..512).map(delta).collect()
    };
    let rounds: Vec<[DeltaSet; 2]> = (0..ROUNDS)
        .map(|r| [false, true].map(|u| batch(r, u)))
        .collect();
    let mut rounds = rounds.iter();
    let mut v = IncrementalValidator::<Ged>::new(g, vec![]);
    group.bench_with_input(BenchmarkId::new("apply-all", "2x512"), &(), |b, ()| {
        b.iter(|| {
            let [first, second] = rounds.next().expect("one round per sample");
            let applied = v.apply_all(first).deltas_applied + v.apply_all(second).deltas_applied;
            assert_eq!(applied, 1_024, "a no-op among the timed deltas");
        });
    });
    group.finish();
}

fn bench_reenumerate(c: &mut Criterion) {
    use ged_datagen::social::SocialConfig;
    use ged_engine::Phase;
    const ROUNDS: usize = 31;
    let cfg = SocialConfig {
        n_honest: 50_000,
        seed: 1,
        ..Default::default()
    };
    let w = ged_datagen::mixed::social_mixed(&cfg, 250, 1);
    let attrs = ["age", "tier", "verified", "keyword"].map(sym);
    let pool: [Value; 7] = [
        8.into(),
        30.into(),
        0.into(),
        1.into(),
        "free".into(),
        "gold".into(),
        "topic_3".into(),
    ];
    let mut stream = ged_datagen::stream::DeltaStream::new(1, &attrs, &pool);
    let mut mirror = w.graph.clone();
    let batches: Vec<DeltaSet> = (0..ROUNDS)
        .map(|_| {
            let batch = stream.batch(&mirror, 512);
            for d in &batch {
                mirror.apply_delta(d);
            }
            batch
        })
        .collect();
    let mut v = IncrementalValidator::new(w.graph, w.sigma);
    let mut replay = v.clone();

    let mut group = c.benchmark_group("delta-path/reenumerate");
    group.sample_size(ROUNDS - 1);
    let mut rounds = batches.iter();
    group.bench_with_input(BenchmarkId::new("apply-all", 512), &(), |b, ()| {
        b.iter(|| v.apply_all(rounds.next().expect("one batch per sample")));
    });
    group.finish();

    let (mut phase_ns, mut attempts) = (Vec::new(), 0);
    for batch in &batches {
        let before = replay.metrics();
        replay.apply_all(batch);
        let after = replay.metrics();
        let ns = |m: &ged_engine::MetricsSnapshot| m.phase(Phase::Reenumerate).unwrap().sum_ns;
        phase_ns.push(ns(&after) - ns(&before));
        attempts += after.match_attempts() - before.match_attempts();
    }
    phase_ns.sort_unstable();
    println!(
        "{:<48} median {:>9.2} µs min {:>9.2} µs ({} batches, {} match attempts per batch)",
        "delta-path/reenumerate/anchored-reenumerate",
        phase_ns[ROUNDS / 2] as f64 / 1e3,
        phase_ns[0] as f64 / 1e3,
        ROUNDS,
        attempts / ROUNDS as u64
    );
}

fn bench_metrics(c: &mut Criterion) {
    const SAMPLES: usize = 30;
    let (g, sigma) = ged_datagen::random::evolving_workload(1_000, 3, 2, 7);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let deltas: Vec<Delta> = (0..1_200)
        .map(|i| Delta::SetAttr {
            node: nodes[(i * 97) % nodes.len()],
            attr: sym("key"),
            value: Value::from(format!("v{}", i % 25)),
        })
        .collect();
    let seeded = IncrementalValidator::new(g, sigma);
    let mut group = c.benchmark_group("delta-path/metrics");
    group.sample_size(SAMPLES);
    for size in [1usize, 8, 40] {
        let batches: Vec<DeltaSet> = deltas.chunks(size).map(|c| c.to_vec().into()).collect();
        for (row, on) in [("on", true), ("off", false)] {
            // One fresh clone per sample and one for the warm-up; spent
            // clones are kept, so no drop lands in a timed region.
            let clone = |_| {
                let mut v = seeded.clone();
                v.set_metrics_enabled(on);
                v
            };
            let mut fresh = (0..=SAMPLES).map(clone).collect::<Vec<_>>().into_iter();
            let mut spent = Vec::with_capacity(SAMPLES + 1);
            group.bench_with_input(BenchmarkId::new(row, size), &(), |b, ()| {
                b.iter(|| {
                    let mut v = fresh.next().expect("one clone per sample");
                    for batch in &batches {
                        v.apply_all(batch);
                    }
                    let count = v.violation_count();
                    spent.push(v);
                    count
                });
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_drop,
    bench_anchor,
    bench_leaf_anchor,
    bench_key_flip,
    bench_delta_apply,
    bench_reenumerate,
    bench_metrics
);
criterion_main!(benches);
