//! The standard evolving-graph workload of `incremental.rs`,
//! `read_views.rs` and `perf_bars.rs`, each of which pulls this file in
//! with `#[path]`.

use ged_datagen::random::{plant_key_violations, random_graph, random_sigma, RandomGraphConfig};
use ged_repro::prelude::*;

/// Build the standard evolving-graph workload: a random graph with a
/// planted key plus random rules.
pub fn workload(n_nodes: usize, extra_rules: usize, seed: u64) -> (Graph, Vec<Ged>) {
    let cfg = RandomGraphConfig {
        n_nodes,
        n_edges: 3 * n_nodes,
        seed,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let key = plant_key_violations(&mut g, "entity", n_nodes / 20 + 1);
    let mut sigma = vec![key];
    sigma.extend(random_sigma(extra_rules, 3, &cfg));
    (g, sigma)
}
