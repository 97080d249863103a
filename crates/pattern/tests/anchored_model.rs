//! Model test for the planned search: on seeded random patterns and
//! graphs, every way of running a [`Matcher`] — un-anchored, anchored at
//! every variable over random seed subsets and exclusion sets, and the
//! engine's "first touched variable owns the match" union — must equal
//! the brute-force enumeration filtered by the same conditions, each match
//! exactly once, under both semantics and every [`MatchOptions`] flag
//! combination, with and without attribute obligations in the plan.

use ged_graph::{sym, Graph, NodeId, Symbol, Value};
use ged_pattern::matcher::find_all_brute;
use ged_pattern::{
    Match, MatchOptions, MatchPlan, MatchScratch, Matcher, NoopRecorder, Pattern, Semantics, Var,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::ControlFlow;

const NODE_LABELS: [&str; 3] = ["a", "b", "_"];
const EDGE_LABELS: [&str; 3] = ["e", "f", "_"];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.random_range(0..from.len())]
}

/// A random edge between `u` and `v`, in a random direction.
fn link(rng: &mut StdRng, q: &mut Pattern, u: Var, v: Var) {
    let label = pick(rng, &EDGE_LABELS);
    if rng.random_bool(0.5) {
        q.edge(u, label, v);
    } else {
        q.edge(v, label, u);
    }
}

/// Chains, stars and two-component patterns over 1–4 variables with
/// repeated and wildcard labels, sometimes a self loop, sometimes one
/// extra edge (a cycle or a parallel edge).
fn random_pattern(rng: &mut StdRng) -> Pattern {
    let n = rng.random_range(1..5usize);
    let mut q = Pattern::new();
    let vars: Vec<Var> = (0..n)
        .map(|i| q.var(&format!("v{i}"), pick(rng, &NODE_LABELS)))
        .collect();
    // Variables before `split` form one component, the rest another.
    let split = match rng.random_range(0..3u32) {
        0 => rng.random_range(0..n),
        _ => 0,
    };
    let star = rng.random_bool(0.5);
    for part in [&vars[..split], &vars[split..]] {
        for i in 1..part.len() {
            let hub = if star { part[0] } else { part[i - 1] };
            link(rng, &mut q, hub, part[i]);
        }
    }
    if rng.random_bool(0.2) {
        let v = vars[rng.random_range(0..n)];
        q.edge(v, pick(rng, &EDGE_LABELS), v);
    }
    if rng.random_bool(0.3) {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        link(rng, &mut q, vars[u], vars[v]);
    }
    q
}

fn random_graph(rng: &mut StdRng) -> Graph {
    let n = rng.random_range(1..6u32);
    let mut g = Graph::new();
    for _ in 0..n {
        let node = g.add_node(sym(pick(rng, &NODE_LABELS[..2])));
        for attr in ["k", "l"] {
            match rng.random_range(0..4u32) {
                0 => {}
                1 => g.set_attr(node, sym(attr), Value::Int(1)),
                2 => g.set_attr(node, sym(attr), Value::Float(1.0)),
                _ => g.set_attr(node, sym(attr), Value::Int(2)),
            }
        }
    }
    for _ in 0..rng.random_range(0..3 * n) {
        let (s, d) = (rng.random_range(0..n), rng.random_range(0..n));
        g.add_edge(NodeId(s), sym(pick(rng, &EDGE_LABELS[..2])), NodeId(d));
    }
    g
}

/// The attribute obligations pushed into a plan, kept beside it so the
/// model can apply them to brute-force matches.
#[derive(Default)]
struct Obligations {
    consts: Vec<(Var, Symbol, Value)>,
    joins: Vec<(Var, Symbol, Var, Symbol)>,
}

impl Obligations {
    fn random(rng: &mut StdRng, n: usize) -> Obligations {
        let mut o = Obligations::default();
        let var = |rng: &mut StdRng| Var(rng.random_range(0..n) as u32);
        let attr = |rng: &mut StdRng| sym(pick(rng, &["k", "l"]));
        if rng.random_bool(0.3) {
            o.consts.push((var(rng), attr(rng), Value::Int(1)));
        }
        for _ in 0..rng.random_range(0..3u32) {
            o.joins.push((var(rng), attr(rng), var(rng), attr(rng)));
        }
        o
    }

    fn plan(&self, q: &Pattern) -> MatchPlan {
        let mut plan = MatchPlan::new(q);
        for (v, a, c) in &self.consts {
            plan.require_attr(*v, *a, c.clone());
        }
        for &(x, a, y, b) in &self.joins {
            plan.require_attr_eq(x, a, y, b);
        }
        plan
    }

    fn hold(&self, g: &Graph, m: &[NodeId]) -> bool {
        self.consts
            .iter()
            .all(|(v, a, c)| g.attr(m[v.idx()], *a) == Some(c))
            && self.joins.iter().all(|&(x, a, y, b)| {
                matches!(
                    (g.attr(m[x.idx()], a), g.attr(m[y.idx()], b)),
                    (Some(l), Some(r)) if l == r
                )
            })
    }
}

fn subset(rng: &mut StdRng, g: &Graph) -> Vec<NodeId> {
    g.nodes().filter(|_| rng.random_bool(0.5)).collect()
}

fn sorted(mut ms: Vec<Match>) -> Vec<Match> {
    ms.sort();
    ms
}

fn all_options() -> Vec<MatchOptions> {
    let mut out = Vec::new();
    for semantics in [Semantics::Homomorphism, Semantics::Isomorphism] {
        for bits in 0..8u32 {
            out.push(MatchOptions {
                semantics,
                smart_order: bits & 1 != 0,
                adjacency_candidates: bits & 2 != 0,
                prefilter: bits & 4 != 0,
            });
        }
    }
    out
}

#[test]
fn every_run_of_a_plan_equals_filtered_brute_force() {
    let mut scratch = MatchScratch::new();
    for case in 0..400u64 {
        let rng = &mut StdRng::seed_from_u64(case);
        let q = random_pattern(rng);
        let g = random_graph(rng);
        // Half the cases run a bare plan: the plain match set.
        let obligations = if rng.random_bool(0.5) {
            Obligations::random(rng, q.var_count())
        } else {
            Obligations::default()
        };
        let plan = obligations.plan(&q);
        for opts in all_options() {
            let ctx = format!("case {case}, {opts:?}");
            // Obligations are pre-filters: off, they filter nothing.
            let model: Vec<Match> = find_all_brute(&q, &g, opts)
                .into_iter()
                .filter(|m| !opts.prefilter || obligations.hold(&g, m))
                .collect();
            let matcher = Matcher::with_plan(&plan, &q, &g, opts, &NoopRecorder);

            let mut plain = Vec::new();
            matcher.for_each_in(&mut scratch, |m| {
                plain.push(m.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(sorted(plain), sorted(model.clone()), "un-anchored, {ctx}");

            for anchor in q.vars() {
                let seeds = subset(rng, &g);
                let banned: Vec<Vec<NodeId>> = q.vars().map(|_| subset(rng, &g)).collect();
                let excluded = |u: Var, n: NodeId| banned[u.idx()].contains(&n);
                let mut got = Vec::new();
                matcher.for_each_anchored_in(&mut scratch, anchor, &seeds, &excluded, |m| {
                    got.push(m.to_vec());
                    ControlFlow::Continue(())
                });
                let want: Vec<Match> = model
                    .iter()
                    .filter(|m| seeds.contains(&m[anchor.idx()]))
                    .filter(|m| q.vars().all(|u| u == anchor || !excluded(u, m[u.idx()])))
                    .cloned()
                    .collect();
                assert_eq!(sorted(got), sorted(want), "anchored at {anchor}, {ctx}");
            }

            // The engine's discipline: anchor every variable on the
            // touched set, excluding it from earlier-declared variables.
            let touched = subset(rng, &g);
            let mut union = Vec::new();
            for anchor in q.vars() {
                matcher.for_each_anchored_in(
                    &mut scratch,
                    anchor,
                    &touched,
                    &|u, n| u < anchor && touched.contains(&n),
                    |m| {
                        union.push(m.to_vec());
                        ControlFlow::Continue(())
                    },
                );
            }
            let affected: Vec<Match> = model
                .iter()
                .filter(|m| m.iter().any(|n| touched.contains(n)))
                .cloned()
                .collect();
            assert_eq!(sorted(union), sorted(affected), "touched union, {ctx}");
        }
    }
}
