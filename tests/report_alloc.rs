//! Allocation bound on the `report` path: rendering a snapshot's reply
//! line costs a constant number of allocator calls whatever the witness
//! count (one sort buffer, the output, the `Debug` scratch, the shared
//! `Arc`), and a poll that finds the line already rendered costs none.
//!
//! The counter is process-wide, so this binary holds exactly one test:
//! nothing else may allocate while it measures.

use ged_daemon::workload;
use ged_proto::message::{encode_report, report_to_json};
use ged_proto::write_frame;
use ged_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on this thread's watch.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn a_render_allocates_a_constant_and_a_hit_nothing() {
    // Half of gedbench's `poll-under-writes` graph: GED, GDC and GED∨
    // rules, so every `ViolationKind` shape is in the reply.
    let (g, sigma) = workload::load("mixed:honest=1250,plants=250,seed=3").unwrap();
    let v = IncrementalValidator::with_threads(g, sigma, 1);
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
