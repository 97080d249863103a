//! Allocation bound on the delta-apply layer (DESIGN.md §8, "The delta-apply
//! layer"): a delta that grows no tuple, adjacency or bucket — an overwrite
//! (a short string over a short one needs no buffer at all, a string over a
//! long one reuses its buffer), a removal, a no-op, a new attribute in the
//! slot a removal freed — makes no allocator call in `Graph::apply_delta`,
//! its `DeltaEffect` included, nor does a batch of them in `Graph::apply_batch`,
//! warm pass included; and a batch of such deltas through `apply_all`
//! allocates for the batch (one footprint vector, the per-batch
//! bookkeeping, the snapshot the batch publishes), not per delta.
//!
//! The counter (`support/counting.rs`) counts the calling thread's `alloc`
//! and `realloc` calls; the validators here run on one worker, that thread.

use ged_repro::prelude::*;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations_in;

#[test]
fn a_delta_that_grows_nothing_calls_no_allocator() {
    let (t, e) = (sym("t"), sym("e"));
    let (int, text, tag, doomed) = (sym("int"), sym("text"), sym("tag"), sym("doomed"));
    let mut g = Graph::new();
    let [a, b, isolated] = [(); 3].map(|()| g.add_node(t));
    g.set_attr(a, int, 1);
    g.set_attr(a, text, "a string of some length");
    g.set_attr(a, tag, "gold");
    g.set_attr(a, doomed, "not long for this tuple");
    g.add_edge(a, e, b);
    g.add_edge(b, e, a);
    let ghost = NodeId(g.node_id_bound() as u32 + 7);
    let set = |node, attr, value: Value| Delta::SetAttr { node, attr, value };
    let del = |node, attr| Delta::DelAttr { node, attr };
    let link = |src, dst| Delta::AddEdge { src, label: e, dst };
    let unlink = |src, dst| Delta::RemoveEdge { src, label: e, dst };
    let remove = |node| Delta::RemoveNode { node };
    let same_length = "b string of some length";

    let changing = [
        ("int over int", set(a, int, 2.into())),
        ("bool over int", set(a, int, true.into())),
        ("shorter string over string", set(a, text, "shorter".into())),
        (
            "as long as the buffer",
            set(a, text, "c string of some length".into()),
        ),
        (
            "as long as the string it replaces",
            set(a, text, same_length.into()),
        ),
        ("short string over short", set(a, tag, "free".into())),
        ("del_attr", del(a, doomed)),
        ("remove_edge", unlink(a, b)),
        ("remove_node, isolated", remove(isolated)),
    ];
    let no_ops = [
        ("duplicate edge", link(b, a)),
        ("edge to a ghost", link(a, ghost)),
        ("absent edge", unlink(a, b)),
        ("write to a ghost", set(ghost, int, 3.into())),
        ("write to a tombstone", set(isolated, text, "late".into())),
        ("equal value", set(a, text, same_length.into())),
        ("the id attribute", set(a, Symbol::ID, 4.into())),
        ("del_attr, absent", del(a, doomed)),
        ("del_attr on a ghost", del(ghost, int)),
        ("remove_node twice", remove(isolated)),
        ("remove_node of a ghost", remove(ghost)),
    ];
    // The same deltas as one batch, on a copy taken before any applies.
    let mut batched = g.clone();
    let batch: Vec<Delta> = changing
        .iter()
        .chain(&no_ops)
        .map(|(_, d)| d.clone())
        .collect();
    let mut effects = Vec::with_capacity(batch.len());
    for (deltas, changes) in [(&changing[..], true), (&no_ops[..], false)] {
        for (what, delta) in deltas {
            let (effect, allocs) = allocations_in(|| g.apply_delta(delta));
            assert_eq!(effect.changed, changes, "{what}: {delta}");
            assert_eq!(allocs, 0, "{what}: {delta} called the allocator");
            effects.push(effect);
        }
    }
    let mut seen = Vec::with_capacity(batch.len());
    let ((), allocs) = allocations_in(|| batched.apply_batch(&batch, |_, eff| seen.push(eff)));
    assert_eq!(
        seen, effects,
        "the batch and the deltas one by one disagree"
    );
    assert_eq!(allocs, 0, "the batch called the allocator");
    for g in [&g, &batched] {
        assert_eq!(g.attr(a, text), Some(&same_length.into()));
        assert_eq!(g.attr(a, tag), Some(&"free".into()));
        let left = (g.node_count(), g.edge_count(), g.attrs(a).len());
        assert_eq!(left, (2, 1, 3));
    }
}

/// A removal keeps the slot it frees (a tuple otherwise holds exactly its
/// entries, DESIGN.md §8), so a new attribute after a `del_attr` fits in
/// it: the same attribute again, or another, one delta at a time or as a
/// batch.
#[test]
fn a_re_add_after_del_attr_calls_no_allocator() {
    let (t, int, gone, other) = (sym("t"), sym("int"), sym("gone"), sym("other"));
    let mut g = Graph::new();
    let a = g.add_node(t);
    g.set_attr(a, int, 1);
    g.set_attr(a, gone, 2);
    let set = |attr, value: i64| Delta::SetAttr {
        node: a,
        attr,
        value: value.into(),
    };
    let del = |attr| Delta::DelAttr { node: a, attr };
    let cycle = [del(gone), set(gone, 3), del(gone), set(other, 4)];
    let mut batched = g.clone();
    for delta in &cycle {
        let (effect, allocs) = allocations_in(|| g.apply_delta(delta));
        assert!(effect.changed, "{delta}");
        assert_eq!(
            allocs, 0,
            "re-add after del_attr: {delta} called the allocator"
        );
    }
    let ((), allocs) = allocations_in(|| batched.apply_batch(&cycle, |_, _| {}));
    assert_eq!(allocs, 0, "the batch called the allocator");
    for g in [&g, &batched] {
        assert_eq!((g.attr(a, gone), g.attr(a, other)), (None, Some(&4.into())));
    }
}

#[test]
fn a_batch_of_overwrites_allocates_per_batch_not_per_delta() {
    let (t, int, text) = (sym("t"), sym("int"), sym("text"));
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..512).map(|_| g.add_node(t)).collect();
    for &node in &nodes {
        g.set_attr(node, int, 0);
        g.set_attr(node, text, "tier-0");
    }
    // Two rounds per size, so every batch changes every node it writes.
    let batch = |n: usize, round: i64| -> DeltaSet {
        let set = |(i, &node): (usize, &NodeId)| {
            let (attr, value) = match i % 2 {
                0 => (int, Value::from(round)),
                _ => (text, Value::from(format!("tier-{round}"))),
            };
            Delta::SetAttr { node, attr, value }
        };
        nodes[..n].iter().enumerate().map(set).collect()
    };
    let mut v = IncrementalValidator::<Ged>::new(g, vec![]);
    let mut cost = |n: usize| {
        let rounds = [batch(n, 1), batch(n, 2)];
        let (applied, allocs) = allocations_in(|| {
            let first = v.apply_all(&rounds[0]).deltas_applied;
            first + v.apply_all(&rounds[1]).deltas_applied
        });
        assert_eq!(applied, 2 * n, "a write of either round changed nothing");
        allocs
    };
    // Warm the per-validator state (trace ring, histograms) first.
    cost(8);
    let (small, large) = (cost(64), cost(512));
    println!("two batches of overwrites: 64 → {small}, 512 → {large} allocator calls");
    assert_eq!(small, large, "512 overwrites cost more calls than 64");
    assert!(small <= 8, "{small} calls for two batches");
}
