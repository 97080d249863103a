//! Heap footprint of a real start graph (DESIGN.md §8, "Flat attribute
//! tuples"): the `ingest-*` workloads' `social_mixed` family at a tenth of
//! their size, where three nodes in four are blogs carrying one attribute.
//! A tuple holds exactly its entries, so a one-attribute blog holds one
//! 32-byte entry where `Vec`'s first growth would reserve four.
//!
//! The tally (`support/counting.rs`) is the calling thread's live bytes:
//! requested sizes allocated less those freed, allocator rounding not
//! included. The graph is built, and the rest of the workload dropped, on
//! this thread.

use ged_datagen::mixed::social_mixed;
use ged_datagen::social::SocialConfig;

#[path = "support/counting.rs"]
mod counting;
use counting::live_bytes_in;

#[test]
fn a_start_graph_holds_exact_attribute_tuples() {
    let cfg = SocialConfig {
        n_honest: 5000,
        seed: 1,
        ..SocialConfig::default()
    };
    let (g, live) = live_bytes_in(|| social_mixed(&cfg, 25, cfg.seed).graph);
    let nodes = g.node_count();
    let attrs: usize = g.nodes().map(|n| g.attrs(n).len()).sum();
    let single = g.nodes().filter(|&n| g.attrs(n).len() == 1).count();
    let per_node = live as f64 / nodes as f64;
    println!(
        "{nodes} nodes ({single} with one attribute), {attrs} attributes, {} edges: \
         {live} heap bytes, {per_node:.1} per node, {:.1} per attribute",
        g.edge_count(),
        live as f64 / attrs as f64
    );
    assert!(
        10 * single >= 7 * nodes,
        "{single} of {nodes} carry one attribute"
    );
    // A one-attribute tuple of four slots holds 96 B more than one of
    // one: on three nodes in four, 72 B more per node (≈ 316 B).
    assert!(per_node <= BOUND, "{per_node:.1} heap bytes per node");
}

/// Heap bytes per node the graph may hold: what it measures with exact
/// tuples (244.5), plus a margin well under the 72 four-slot tuples add.
const BOUND: f64 = 260.0;
