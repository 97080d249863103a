//! Random labelled graphs, patterns and GED sets — the scaling workloads
//! of EXP-T1-VAL and EXP-T1-FRONTIER and the Church–Rosser property
//! tests.

use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_graph::{sym, Graph, NodeId};
use ged_pattern::{Pattern, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random graph generation.
#[derive(Debug, Clone)]
pub struct RandomGraphConfig {
    /// Number of nodes.
    pub n_nodes: usize,
    /// Number of (attempted) edges.
    pub n_edges: usize,
    /// Node label alphabet size.
    pub n_labels: usize,
    /// Edge label alphabet size.
    pub n_edge_labels: usize,
    /// Attributes per node (each `attr_i` with a small integer value).
    pub n_attrs: usize,
    /// Attribute value range (small ⇒ many coincidences ⇒ many premise
    /// hits).
    pub value_range: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        RandomGraphConfig {
            n_nodes: 100,
            n_edges: 300,
            n_labels: 4,
            n_edge_labels: 3,
            n_attrs: 2,
            value_range: 8,
            seed: 17,
        }
    }
}

/// Generate a random graph per `cfg`.
pub fn random_graph(cfg: &RandomGraphConfig) -> Graph {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    let labels: Vec<_> = (0..cfg.n_labels).map(|i| sym(&format!("L{i}"))).collect();
    let elabels: Vec<_> = (0..cfg.n_edge_labels)
        .map(|i| sym(&format!("e{i}")))
        .collect();
    let attrs: Vec<_> = (0..cfg.n_attrs).map(|i| sym(&format!("attr{i}"))).collect();
    for _ in 0..cfg.n_nodes {
        let n = g.add_node(labels[rng.random_range(0..labels.len())]);
        for a in &attrs {
            g.set_attr(n, *a, rng.random_range(0..cfg.value_range));
        }
    }
    for _ in 0..cfg.n_edges {
        let u = NodeId(rng.random_range(0..cfg.n_nodes) as u32);
        let v = NodeId(rng.random_range(0..cfg.n_nodes) as u32);
        g.add_edge(u, elabels[rng.random_range(0..elabels.len())], v);
    }
    g
}

/// Generate a random *connected* pattern of `size` variables over the same
/// alphabets as [`random_graph`] (spanning tree + one extra edge).
pub fn random_pattern(size: usize, cfg: &RandomGraphConfig, seed: u64) -> Pattern {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = Pattern::new();
    let vars: Vec<Var> = (0..size)
        .map(|i| {
            let l = format!("L{}", rng.random_range(0..cfg.n_labels));
            q.var(&format!("v{i}"), &l)
        })
        .collect();
    for i in 1..size {
        let parent = rng.random_range(0..i);
        let el = format!("e{}", rng.random_range(0..cfg.n_edge_labels));
        if rng.random_bool(0.5) {
            q.edge(vars[parent], &el, vars[i]);
        } else {
            q.edge(vars[i], &el, vars[parent]);
        }
    }
    if size >= 2 {
        let u = rng.random_range(0..size);
        let v = rng.random_range(0..size);
        if u != v {
            let el = format!("e{}", rng.random_range(0..cfg.n_edge_labels));
            q.edge(vars[u], &el, vars[v]);
        }
    }
    q
}

/// Generate a random GED over a random pattern: a variable-literal premise
/// and either a variable-literal or constant-literal conclusion.
pub fn random_ged(name: &str, pattern_size: usize, cfg: &RandomGraphConfig, seed: u64) -> Ged {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let q = random_pattern(pattern_size, cfg, seed);
    let nv = q.var_count() as u32;
    let a0 = sym("attr0");
    let a1 = sym(if cfg.n_attrs > 1 { "attr1" } else { "attr0" });
    let vx = Var(rng.random_range(0..nv));
    let vy = Var(rng.random_range(0..nv));
    let premises = vec![Literal::vars(vx, a0, vy, a0)];
    let conclusions = if rng.random_bool(0.5) {
        vec![Literal::vars(vx, a1, vy, a1)]
    } else {
        vec![Literal::constant(
            vx,
            a1,
            rng.random_range(0..cfg.value_range),
        )]
    };
    Ged::new(name, q, premises, conclusions)
}

/// A random Σ of `count` GEDs with the given pattern size.
pub fn random_sigma(count: usize, pattern_size: usize, cfg: &RandomGraphConfig) -> Vec<Ged> {
    (0..count)
        .map(|i| {
            random_ged(
                &format!("r{i}"),
                pattern_size,
                cfg,
                cfg.seed + 1000 + i as u64,
            )
        })
        .collect()
}

/// Plant `count` violations of a simple key GED (`label` nodes with equal
/// `key` attribute must be the same node) into `g`, returning the GED.
/// Every planted pair is a distinct violation witness.
pub fn plant_key_violations(g: &mut Graph, label: &str, count: usize) -> Ged {
    let l = sym(label);
    let key = sym("key");
    for i in 0..count {
        let a = g.add_node(l);
        let b = g.add_node(l);
        g.set_attr(a, key, format!("dup{i}"));
        g.set_attr(b, key, format!("dup{i}"));
    }
    let mut q = Pattern::new();
    let x = q.var("x", label);
    let y = q.var("y", label);
    Ged::new(
        format!("key:{label}"),
        q,
        vec![Literal::vars(x, key, y, key)],
        vec![Literal::id(x, y)],
    )
}

/// The evolving-graph workload of the incremental suites, the `random`
/// family of `gedd --workload` and the validation benches: a random graph
/// of `n_nodes` nodes and `3 * n_nodes` attempted edges with
/// `n_nodes / 20 + 1` planted `entity` key violations, under that key
/// (first in Σ) plus `extra_rules` random GEDs of `pattern_size` variables.
pub fn evolving_workload(
    n_nodes: usize,
    pattern_size: usize,
    extra_rules: usize,
    seed: u64,
) -> (Graph, Vec<Ged>) {
    let cfg = RandomGraphConfig {
        n_nodes,
        n_edges: 3 * n_nodes,
        seed,
        ..Default::default()
    };
    let mut graph = random_graph(&cfg);
    let key = plant_key_violations(&mut graph, "entity", n_nodes / 20 + 1);
    let mut sigma = vec![key];
    sigma.extend(random_sigma(extra_rules, pattern_size, &cfg));
    (graph, sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::chase::{chase, chase_random};
    use ged_core::reason::validate;
    use ged_core::satisfy::violations;

    #[test]
    fn random_graph_is_deterministic_per_seed() {
        let cfg = RandomGraphConfig::default();
        let a = random_graph(&cfg);
        let b = random_graph(&cfg);
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        let c = random_graph(&RandomGraphConfig { seed: 18, ..cfg });
        // overwhelmingly likely to differ
        assert!(a.edge_count() != c.edge_count() || a.edges().zip(c.edges()).any(|(x, y)| x != y));
    }

    #[test]
    fn random_patterns_are_connected_and_sized() {
        let cfg = RandomGraphConfig::default();
        for size in 2..6 {
            for seed in 0..5 {
                let q = random_pattern(size, &cfg, seed);
                assert_eq!(q.var_count(), size);
                assert!(q.is_connected());
            }
        }
    }

    #[test]
    fn planted_key_violations_are_found_exactly() {
        let cfg = RandomGraphConfig {
            n_nodes: 40,
            n_edges: 60,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let ged = plant_key_violations(&mut g, "dupe", 5);
        let vs = violations(&g, &ged, None);
        // Each planted pair gives two symmetric violating matches.
        assert_eq!(vs.len(), 10);
    }

    #[test]
    fn random_sigma_validates_without_panicking() {
        let cfg = RandomGraphConfig {
            n_nodes: 30,
            n_edges: 60,
            ..Default::default()
        };
        let g = random_graph(&cfg);
        let sigma = random_sigma(4, 3, &cfg);
        let report = validate(&g, &sigma, Some(5));
        assert_eq!(report.per_ged.len(), 4);
    }

    /// Church–Rosser on random inputs: deterministic and randomised chase
    /// schedules agree (Theorem 1, exercised beyond the paper's Example 4).
    #[test]
    fn church_rosser_on_random_inputs() {
        for seed in 0..5u64 {
            let cfg = RandomGraphConfig {
                n_nodes: 8,
                n_edges: 12,
                n_labels: 2,
                n_attrs: 1,
                value_range: 2,
                seed,
                ..Default::default()
            };
            let g = random_graph(&cfg);
            let sigma = random_sigma(2, 2, &cfg);
            let reference = chase(&g, &sigma).comparison_key();
            for chase_seed in 1..4 {
                assert_eq!(
                    chase_random(&g, &sigma, chase_seed).comparison_key(),
                    reference,
                    "graph seed {seed}, chase seed {chase_seed}"
                );
            }
        }
    }
}
