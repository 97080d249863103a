//! Allocation bound on the publish path (DESIGN.md §9): every validator
//! publishes, and with nothing pinned a batch that changes *k* witnesses
//! costs the same number of allocator calls on a 500-witness and on a
//! 5 000-witness store — the table the writer maintained becomes the
//! snapshot, the one it replaces replays *k* changes — and
//! `ReadView::rebuilds` does not move, not even at the first publish after
//! construction. A snapshot held across a publish costs that publish one
//! O(store) copy, and only that one.
//!
//! The counter (`support/counting.rs`) counts the calling thread's
//! allocations; the validators here run on one worker, that thread.

use ged_repro::prelude::*;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations_in;

const K: usize = 3;

/// `n` `t`-nodes with `ok = 0` under the rule `t(x) → x.ok = 1`: `n`
/// witnesses, one per node. Returns the validator, a view on it, and the
/// two batches that repair and break again the first `K` nodes.
fn store_of(n: usize) -> (IncrementalValidator, ReadView, [DeltaSet; 2]) {
    let must_be_ok = vec![Literal::constant(Var(0), sym("ok"), 1)];
    let rule = Ged::new("ok", parse_pattern("t(x)").unwrap(), vec![], must_be_ok);
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(sym("t"))).collect();
    for &node in &nodes {
        g.set_attr(node, sym("ok"), 0);
    }
    let write = |value: i64| -> DeltaSet {
        let (attr, value) = (sym("ok"), Value::from(value));
        let set = |&node| Delta::SetAttr {
            node,
            attr,
            value: value.clone(),
        };
        nodes[..K].iter().map(set).collect()
    };
    let v = IncrementalValidator::new(g, vec![rule.into()]);
    let view = v.read_view();
    assert_eq!(view.snapshot().violation_count(), n);
    (v, view, [write(1), write(0)])
}

#[test]
fn publish_allocates_for_what_changed_and_copies_only_when_pinned() {
    let mut unpinned = Vec::new();
    for n in [500, 5_000] {
        let (mut v, view, [repair, break_again]) = store_of(n);
        // The first publish after construction has a front to reclaim:
        // the epoch-0 table construction published.
        let stats = v.apply_all(&repair);
        assert_eq!(
            (stats.violations_removed, view.snapshot().violation_count()),
            (K, n - K)
        );
        assert_eq!(view.rebuilds(), 0, "{n}: the first publish copied");
        v.apply_all(&break_again);

        // Both copies of the table have now been through one round, so the
        // same round again grows no map: what is left is per change.
        let (_, allocs) = allocations_in(|| {
            v.apply_all(&repair);
            v.apply_all(&break_again)
        });
        let snap = view.snapshot();
        assert_eq!((snap.epoch(), snap.violation_count()), (4, n));
        drop(snap);
        assert_eq!(view.rebuilds(), 0, "{n}: nothing pinned, yet a copy");
        unpinned.push(allocs);

        // Held across a publish, a snapshot denies the writer its table:
        // that publish copies the store, the next one does not.
        let pinned = view.snapshot();
        let (_, copying) = allocations_in(|| v.apply_all(&repair));
        assert_eq!(view.rebuilds(), 1, "{n}: pinned at the publish");
        assert!(
            copying > n as u64,
            "{n}: the O(store) copy took {copying} allocator calls"
        );
        assert_eq!((pinned.epoch(), pinned.violation_count()), (4, n));
        drop(pinned);
        v.apply_all(&break_again);
        assert_eq!(view.rebuilds(), 1, "{n}: nothing pinned at the next one");
        assert_eq!(view.snapshot().to_report().violations.len(), n);
    }
    println!("two batches of {K} changes: {unpinned:?} allocator calls");
    assert_eq!(
        unpinned[0], unpinned[1],
        "publishing {K} changes cost more on the larger store"
    );
    assert!(unpinned[0] < 500, "{} calls for {K} changes", unpinned[0]);
}
