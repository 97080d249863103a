//! Heap footprint of a real start graph (DESIGN.md §8, "Flat attribute
//! tuples"): the `ingest-*` workloads' `social_mixed` family at a tenth of
//! their size, where three nodes in four are blogs carrying one attribute.
//! A tuple holds exactly its entries, so a one-attribute blog holds one
//! 32-byte entry where `Vec`'s first growth would reserve four; and a
//! short string value sits in its entry, so it is no heap block of its own.
//!
//! The tally (`support/counting.rs`) is the calling thread's live bytes and
//! blocks: requested sizes allocated less those freed, allocator rounding
//! not included (the allocator's chunk headers and rounding are what makes
//! each block cost more than its bytes). The graph is built, and the rest
//! of the workload dropped, on this thread.

use ged_datagen::mixed::social_mixed;
use ged_datagen::social::SocialConfig;

#[path = "support/counting.rs"]
mod counting;
use counting::live_heap_in;

#[test]
fn a_start_graph_holds_exact_attribute_tuples() {
    let cfg = SocialConfig {
        n_honest: 5000,
        seed: 1,
        ..SocialConfig::default()
    };
    let (g, live, blocks) = live_heap_in(|| social_mixed(&cfg, 25, cfg.seed).graph);
    let nodes = g.node_count();
    let attrs: usize = g.nodes().map(|n| g.attrs(n).len()).sum();
    let single = g.nodes().filter(|&n| g.attrs(n).len() == 1).count();
    let per_node = live as f64 / nodes as f64;
    let blocks_per_node = blocks as f64 / nodes as f64;
    println!(
        "{nodes} nodes ({single} with one attribute), {attrs} attributes, {} edges: \
         {live} heap bytes in {blocks} blocks, {per_node:.1} bytes and \
         {blocks_per_node:.2} blocks per node, {:.1} bytes per attribute",
        g.edge_count(),
        live as f64 / attrs as f64
    );
    assert!(
        10 * single >= 7 * nodes,
        "{single} of {nodes} carry one attribute"
    );
    // A one-attribute tuple of four slots holds 96 B more than one of
    // one: on three nodes in four, 72 B more per node (≈ 307 B).
    assert!(per_node <= BOUND, "{per_node:.1} heap bytes per node");
    // Every node carries one short string: in a buffer of its own, each
    // would be one more block per node (3.00).
    assert!(
        blocks_per_node <= BLOCKS_BOUND,
        "{blocks_per_node:.2} heap blocks per node"
    );
}

/// Heap bytes per node the graph may hold: what it measures with exact
/// tuples and short strings in their entries (234.6), plus a margin well
/// under the 72 four-slot tuples add.
const BOUND: f64 = 250.0;

/// Heap blocks per node the graph may hold: what it measures (2.00), plus
/// a margin well under the one block per node a buffer per short string
/// adds.
const BLOCKS_BOUND: f64 = 2.1;
