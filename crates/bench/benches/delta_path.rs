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

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_engine::ViolationStore;
use ged_graph::{sym, Graph, NodeId};
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
    // A 10-node footprint hitting 10 witnesses, whatever the store size.
    let touched: Vec<NodeId> = (0..10).map(|i| NodeId(4 * i)).collect();
    for &n in &[10_000usize, 100_000] {
        let lit = || vec![Literal::id(Var(0), Var(1))];
        let mut indexed = ViolationStore::for_sigma(&[key_ged()]);
        let mut scan: HashMap<Match, Vec<Literal>> = HashMap::new();
        for i in 0..n {
            let m = vec![NodeId(2 * i as u32), NodeId(2 * i as u32 + 1)];
            indexed.insert(0, m.clone(), lit());
            scan.insert(m, lit());
        }
        group.bench_with_input(BenchmarkId::new("indexed", n), &(), |b, ()| {
            b.iter(|| {
                let dropped = indexed.drop_intersecting(black_box(&touched));
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

criterion_group!(
    benches,
    bench_drop,
    bench_anchor,
    bench_leaf_anchor,
    bench_key_flip
);
criterion_main!(benches);
