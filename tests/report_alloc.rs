//! Allocation bound on the `report` path: rendering a snapshot's reply
//! costs a constant number of allocator calls whatever the witness count
//! (the head, one sort buffer, each rule's segment and the exact copy it
//! is shared as, the rendering and its list of segments: 12 on this
//! graph's four rules), a re-render after a batch that changed one rule
//! formats that rule alone and costs no more than the first, and a poll
//! that finds the epoch already rendered costs none. A segment is one
//! allocation, sized from its first witness, and holds less than twice its
//! length.
//!
//! The counter (`support/counting.rs`) counts the calling thread's
//! allocations, and everything measured here runs on it.

use ged_daemon::server::rendering;
use ged_daemon::workload;
use ged_proto::message::{encode_segment, report_to_json, write_segmented};
use ged_proto::write_frame;
use ged_repro::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations_in;

/// The `report` line a rendering is written as.
fn line_of(r: &Rendering) -> Vec<u8> {
    let mut line = Vec::new();
    write_segmented(&mut line, r.head(), r.segments()).unwrap();
    line
}

/// What the reference path (report → tree → line) makes of `snap`.
fn tree_line(snap: &ViolationSnapshot) -> Vec<u8> {
    let mut line = Vec::new();
    write_frame(&mut line, &report_to_json(snap.epoch(), &snap.to_report())).unwrap();
    line
}

#[test]
fn a_render_allocates_a_constant_and_a_hit_nothing() {
    // Half of gedbench's `poll-under-writes` graph: GED, GDC and GED∨
    // rules, so every `ViolationKind` shape is in the reply.
    let (g, sigma) = workload::load("mixed:honest=1250,plants=250,seed=3").unwrap();
    let rules = sigma.len();
    let mut v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let snap = view.snapshot();
    let witnesses = snap.violation_count();
    assert!(witnesses >= 1000, "{witnesses} witnesses");

    // The reference path, for scale.
    let (tree, tree_allocs) = allocations_in(|| tree_line(&snap));
    assert!(
        tree_allocs > 8 * witnesses as u64,
        "the tree path allocates per witness ({tree_allocs} calls)"
    );

    let (first, miss_allocs) = allocations_in(|| rendering(&snap));
    println!("a first render of {witnesses} witnesses: {miss_allocs} allocator calls");
    assert!(
        miss_allocs <= 16,
        "rendering {witnesses} witnesses took {miss_allocs} allocator calls"
    );
    assert_eq!(
        view.rule_renders(),
        rules as u64,
        "every rule formatted once"
    );
    assert!(
        line_of(&first) == tree,
        "streamed line differs from the tree's"
    );

    let (second, hit_allocs) = allocations_in(|| {
        view.snapshot().rendered(
            |_| panic!("rendered twice"),
            |rule, _| panic!("{rule} rendered twice"),
        )
    });
    assert_eq!(hit_allocs, 0, "a hit is an `Arc` clone");
    assert!(Arc::ptr_eq(&first, &second));

    // Remove a node that only one rule's witnesses contain: the batch
    // drops witnesses of that rule alone, so the next epoch's render
    // formats one segment and shares the others.
    let mut rules_at: BTreeMap<NodeId, BTreeSet<&str>> = BTreeMap::new();
    snap.for_each_witness(|rule, assignment, _| {
        for &node in assignment {
            rules_at.entry(node).or_default().insert(rule);
        }
    });
    let (&node, _) = rules_at
        .iter()
        .find(|(_, at)| at.len() == 1)
        .expect("a node in one rule's witnesses only");
    drop(rules_at);
    let stamps = |s: &ViolationSnapshot| -> Vec<u64> { (0..rules).map(|ci| s.stamp(ci)).collect() };
    let before = stamps(&snap);
    drop(snap);
    v.apply(&Delta::RemoveNode { node });
    let snap = view.snapshot();
    let after = stamps(&snap);
    let moved = after.iter().zip(&before).filter(|(now, was)| now != was);
    assert_eq!(moved.count(), 1, "the removal changed one rule");

    let (next, rerender_allocs) = allocations_in(|| rendering(&snap));
    println!("a re-render after a one-rule change: {rerender_allocs} allocator calls");
    assert_eq!(
        view.rule_renders(),
        rules as u64 + 1,
        "one segment formatted"
    );
    assert!(
        rerender_allocs <= miss_allocs,
        "re-rendering one rule took {rerender_allocs} allocator calls, a first render {miss_allocs}"
    );
    assert!(
        line_of(&next) == tree_line(&snap),
        "re-rendered line differs from the tree's"
    );
}

#[test]
fn a_segment_is_one_allocation_near_its_length() {
    let (g, sigma) = workload::load("mixed:honest=1250,plants=250,seed=3").unwrap();
    let v = IncrementalValidator::new(g, sigma);
    let snap = v.read_view().snapshot();
    let counts: BTreeMap<&str, usize> = snap.rules().collect();
    snap.rendered(
        |_| Vec::new(),
        |rule, witnesses| {
            let (segment, allocs) = allocations_in(|| encode_segment(rule, witnesses));
            let (len, capacity) = (segment.len(), segment.capacity());
            let n = counts[rule];
            println!(
                "{rule}: {n} witnesses, {len} B ({:.1} per witness), capacity {capacity}",
                len as f64 / n as f64
            );
            assert!(n > 0, "every rule of the workload has witnesses");
            assert_eq!(
                allocs, 1,
                "{rule}: {allocs} allocator calls for one segment"
            );
            assert!(capacity < 2 * len, "{rule}: {len} B in {capacity}");
            segment
        },
    );
}
