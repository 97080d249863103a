//! Model test for the planned search: on seeded random patterns and
//! graphs, every way of running a [`Matcher`] — un-anchored, anchored at
//! every variable over random seed subsets and exclusion sets, and the
//! engine's "first touched variable owns the match" union — must equal
//! the brute-force enumeration filtered by the same conditions, each match
//! exactly once, under both semantics, with and without attribute
//! obligations in the plan, and whether or not the graph maintains the
//! value indexes the plan can probe.

use ged_graph::{sym, Graph, NodeId, Symbol, Value};
use ged_obs::CellRecorder;
use ged_pattern::matcher::find_all_brute;
use ged_pattern::{Match, MatchOptions, MatchPlan, MatchScratch, Matcher, Pattern, Var};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
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
    fn random(rng: &mut StdRng, q: &Pattern) -> Obligations {
        let n = q.var_count();
        let mut o = Obligations::default();
        let var = |rng: &mut StdRng| Var(rng.random_range(0..n) as u32);
        let attr = |rng: &mut StdRng| sym(pick(rng, &["k", "l"]));
        // The graph-key shape: a join that is the only link between two
        // components.
        if let [left, right, ..] = &q.components()[..] {
            let side = |rng: &mut StdRng, c: &[Var]| c[rng.random_range(0..c.len())];
            o.joins
                .push((side(rng, left), attr(rng), side(rng, right), attr(rng)));
        }
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

/// Every way of running `plan` over `g` under `opts` against the
/// brute-force model; returns the candidate attempts the runs cost.
fn check_against_brute_force(
    rng: &mut StdRng,
    scratch: &mut MatchScratch,
    (q, plan, obligations): (&Pattern, &MatchPlan, &Obligations),
    g: &Graph,
    opts: MatchOptions,
    ctx: &str,
) -> u64 {
    let model: Vec<Match> = find_all_brute(q, g, opts)
        .into_iter()
        .filter(|m| obligations.hold(g, m))
        .collect();
    let recorder = CellRecorder::new();
    let matcher = Matcher::with_plan(plan, q, g, opts, &recorder);

    let mut plain = Vec::new();
    matcher.for_each_in(scratch, |m| {
        plain.push(m.to_vec());
        ControlFlow::Continue(())
    });
    assert_eq!(sorted(plain), sorted(model.clone()), "un-anchored, {ctx}");

    for anchor in q.vars() {
        let seeds = subset(rng, g);
        let banned: Vec<Vec<NodeId>> = q.vars().map(|_| subset(rng, g)).collect();
        let excluded = |u: Var, n: NodeId| banned[u.idx()].contains(&n);
        let mut got = Vec::new();
        matcher.for_each_anchored_in(scratch, anchor, &seeds, &excluded, |m| {
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

    // The engine's discipline: anchor every variable on the touched set,
    // excluding it from earlier-declared variables.
    let touched = subset(rng, g);
    let mut union = Vec::new();
    for anchor in q.vars() {
        matcher.for_each_anchored_in(
            scratch,
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
    recorder.attempts()
}

/// One random attribute write — overwrite (`Some`) or delete (`None`) —
/// of the kind a maintained value index has to follow.
fn random_write(rng: &mut StdRng, g: &Graph) -> (NodeId, Symbol, Option<Value>) {
    let n = NodeId(rng.random_range(0..g.node_id_bound() as u32));
    let attr = sym(pick(rng, &["k", "l"]));
    let value = match rng.random_range(0..4u32) {
        0 => None,
        1 => Some(Value::Int(1)),
        2 => Some(Value::Float(1.0)),
        _ => Some(Value::Int(2)),
    };
    (n, attr, value)
}

/// Each case runs on three copies of one graph — nobody indexed it; the
/// pairs the plan requests are indexed; a pair no plan reads and a label no
/// node has are indexed too — under both semantics, four rounds each, with
/// the same attribute write applied to all three between runs. The indexed
/// copies must enumerate what brute force does, and over the whole run cost
/// fewer candidate attempts than the scan.
#[test]
fn every_run_of_a_plan_equals_filtered_brute_force() {
    let mut scratch = MatchScratch::new();
    let (mut probing_cases, mut scanned, mut probed) = (0, 0, 0);
    for case in 0..400u64 {
        let rng = &mut StdRng::seed_from_u64(case);
        let q = random_pattern(rng);
        let mut bare = random_graph(rng);
        // Half the cases run a bare plan: the plain match set.
        let obligations = if rng.random_bool(0.5) {
            Obligations::random(rng, &q)
        } else {
            Obligations::default()
        };
        let plan = obligations.plan(&q);
        let requests = plan.index_requests();
        probing_cases += usize::from(!requests.is_empty());
        let mut requested = bare.clone();
        for &(label, attr) in &requests {
            requested.index_attr(label, attr);
        }
        let mut crowded = requested.clone();
        crowded.index_attr(sym("b"), sym("l"));
        crowded.index_attr(sym("nowhere"), sym("k"));
        let both = [MatchOptions::homomorphism(), MatchOptions::isomorphism()];
        for opts in both.into_iter().cycle().take(8) {
            let (n, attr, value) = random_write(rng, &bare);
            for g in [&mut bare, &mut requested, &mut crowded] {
                match value.clone() {
                    Some(value) => g.set_attr(n, attr, value),
                    None => drop(g.remove_attr(n, attr)),
                }
            }
            // Each copy sees the same seeds, bans and touched sets.
            let draws = rng.next_u64();
            let mut attempts = [0u64; 3];
            for (i, g) in [&bare, &requested, &crowded].into_iter().enumerate() {
                let ctx = format!("case {case}, graph {i}, {opts:?}");
                let rng = &mut StdRng::seed_from_u64(draws);
                let rule = (&q, &plan, &obligations);
                attempts[i] = check_against_brute_force(rng, &mut scratch, rule, g, opts, &ctx);
            }
            let [scan, probe, crowd] = attempts;
            // A rooted order reaches every variable of a component over an
            // edge, so only a requested pair is ever probed.
            assert_eq!(
                crowd, probe,
                "an index no plan asked for was read: case {case}"
            );
            // With several joins on one variable the first indexed one
            // wins, so a single run may cost a probe where the scan path
            // found an absent attribute first; the totals decide.
            scanned += scan;
            probed += probe;
        }
    }
    assert!(
        probing_cases >= 25,
        "{probing_cases} cases had a cross-component join"
    );
    assert!(
        probed < scanned,
        "the probe never replaced a scan: {scanned} / {probed}"
    );
}
