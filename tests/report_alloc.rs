//! Allocation bound on the `report` path: rendering a snapshot's reply
//! line costs a constant number of allocator calls whatever the witness
//! count (one sort buffer, the output, the shared `Arc`, the `Debug`
//! scratch as it grows, and a copy of the rule name and of the kind each
//! time they change: 12 on this graph's four rules), and a poll that
//! finds the line already rendered costs none.
//!
//! The counter (`support/counting.rs`) counts the calling thread's
//! allocations, and everything measured here runs on it.

use ged_daemon::workload;
use ged_proto::message::{encode_report, report_to_json};
use ged_proto::write_frame;
use ged_repro::prelude::*;
use std::sync::Arc;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations_in;

#[test]
fn a_render_allocates_a_constant_and_a_hit_nothing() {
    // Half of gedbench's `poll-under-writes` graph: GED, GDC and GED∨
    // rules, so every `ViolationKind` shape is in the reply.
    let (g, sigma) = workload::load("mixed:honest=1250,plants=250,seed=3").unwrap();
    let v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let snap = view.snapshot();
    let witnesses = snap.violation_count();
    assert!(witnesses >= 1000, "{witnesses} witnesses");

    // The reference path, for scale: report → tree → line.
    let (tree_line, tree_allocs) = allocations_in(|| {
        let mut line = Vec::new();
        write_frame(&mut line, &report_to_json(snap.epoch(), &snap.to_report())).unwrap();
        line
    });
    assert!(
        tree_allocs > 8 * witnesses as u64,
        "the tree path allocates per witness ({tree_allocs} calls)"
    );

    let (first, miss_allocs) = allocations_in(|| {
        snap.rendered(|s| encode_report(s.epoch(), s.rules(), |sink| s.for_each_witness(sink)))
    });
    assert!(
        miss_allocs <= 16,
        "rendering {witnesses} witnesses took {miss_allocs} allocator calls"
    );
    assert!(
        first[..] == tree_line[..],
        "streamed line differs from the tree's"
    );

    let (second, hit_allocs) =
        allocations_in(|| view.snapshot().rendered(|_| panic!("rendered twice")));
    assert_eq!(hit_allocs, 0, "a hit is an `Arc` clone");
    assert!(Arc::ptr_eq(&first, &second));
}
