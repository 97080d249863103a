//! Serving violation queries while the write path runs.
//!
//! `IncrementalValidator::apply` takes `&mut self`, but readers do not
//! have to wait their turn: `read_view()` hands out cloneable
//! `Send + Sync` handles that answer every query against the immutable
//! snapshot published at the last batch boundary. One writer thread
//! streams delta batches here while several reader threads poll
//! `to_report()` at full speed, tallying the epochs they observe —
//! no reader ever sees a torn mid-batch store.
//!
//! Run with `cargo run --release --example concurrent_readers`.

use ged_repro::datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
use ged_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

fn main() {
    // A 2k-node workload with planted key violations.
    let cfg = RandomGraphConfig {
        n_nodes: 2_000,
        n_edges: 6_000,
        seed: 9,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let sigma = vec![plant_key_violations(&mut g, "entity", 40)];
    let mut v = IncrementalValidator::new(g, sigma);

    // The validator published its seeded store as epoch 0 when it was
    // built, and every maintained batch publishes an updated snapshot
    // (O(changed) changelog replay, not an O(store) rebuild), so taking a
    // view costs nothing. Clones share the published snapshot, not the
    // validator.
    let view = v.read_view();
    let n_readers = thread::available_parallelism().map_or(2, |c| c.get().saturating_sub(1).max(2));
    println!(
        "writer: 1 thread, readers: {n_readers}, initial violations: {}",
        view.snapshot().violation_count()
    );

    let stop = AtomicBool::new(false);
    let nodes: Vec<NodeId> = v.graph().nodes().collect();
    let observed: Vec<(usize, BTreeMap<u64, u64>)> = thread::scope(|s| {
        // Readers: poll `to_report()` flat out, tallying queries per
        // observed epoch. Every query runs against a consistent batch
        // boundary — the epoch on the snapshot says which one.
        let handles: Vec<_> = (0..n_readers)
            .map(|_| {
                let rv = view.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut per_epoch: BTreeMap<u64, u64> = BTreeMap::new();
                    let mut queries: usize = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = rv.snapshot();
                        let report = snap.to_report();
                        assert_eq!(report.violations.len(), snap.violation_count());
                        *per_epoch.entry(snap.epoch()).or_default() += 1;
                        queries += 1;
                    }
                    (queries, per_epoch)
                })
            })
            .collect();

        // Writer: stream duplicate-key churn in 200-delta batches; each
        // maintained batch publishes the next epoch at its boundary.
        for batch in 0..20 {
            let deltas: DeltaSet = (0..200)
                .map(|i| Delta::SetAttr {
                    node: nodes[(batch * 977 + i * 31) % nodes.len()],
                    attr: sym("key"),
                    value: Value::from(format!("dup{}", (batch + i) % 13)),
                })
                .collect::<Vec<_>>()
                .into();
            let stats = v.apply_all(&deltas);
            println!("batch {batch}: {stats}");
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total: usize = observed.iter().map(|(q, _)| q).sum();
    println!("\n{total} reader queries answered during the write stream:");
    for (i, (queries, per_epoch)) in observed.iter().enumerate() {
        let epochs: Vec<u64> = per_epoch.keys().copied().collect();
        println!(
            "  reader {i}: {queries} queries across {} epoch(s) {epochs:?}",
            epochs.len()
        );
    }

    // The metrics snapshot carries the read-path gauges: live view handles
    // and the last published epoch, plus the `snapshot-publish` phase
    // histogram showing what each publish cost the writer.
    let snapshot = v.metrics();
    println!("\n{snapshot}");
    drop(view);
    assert_eq!(v.metrics().read_views, 0, "all handles returned");
}
