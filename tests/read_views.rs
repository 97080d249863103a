//! Snapshot isolation lockstep: every state a concurrent `ReadView`
//! observes must equal the full-recheck state at *some* batch boundary —
//! readers never see a torn mid-batch store, and the epoch stamped on a
//! snapshot identifies exactly which boundary they got.
//!
//! The lockstep driver (`support/lockstep.rs`, DESIGN.md §11) streams
//! generated batches (node tombstones, self-loop toggles, re-adds, undo
//! pairs, attribute churn) to its `view` subject: a validator with a
//! `ReadView` whose snapshot is held against the oracle at every boundary,
//! while 1, 2 or 8 reader threads spin on `ReadView::snapshot`; after the
//! join, every `(epoch, witnesses)` pair they observed must be the
//! ledger's entry for that epoch, the last one the final epoch.
//!
//! The last test is the same lockstep for the bytes memoised on a
//! snapshot (`ViolationSnapshot::rendered`): single-threaded on purpose,
//! so which buffer the writer recycles when is decided by the test.

use ged_datagen::random::evolving_workload;
use ged_datagen::stream::DeltaStream;
use ged_proto::message::encode_report;
use ged_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{ints, key_attrs, report_line, run, view, Oracle};

/// The lockstep check with `n_readers` concurrent reader threads.
fn lockstep(n_readers: usize, seed: u64) {
    let (g, sigma) = evolving_workload(90, 3, 2, seed);
    let attrs = key_attrs();
    run(
        (&g, &sigma),
        (seed ^ 0x5eed, &attrs, &ints(4)),
        (25, 8),
        &[view(n_readers)],
    );
}

#[test]
fn lockstep_one_reader() {
    lockstep(1, 11);
}

#[test]
fn lockstep_two_readers() {
    lockstep(2, 12);
}

#[test]
fn lockstep_eight_readers() {
    lockstep(8, 13);
}

/// Memo staleness lockstep. Rendered bytes live on the snapshot, and the
/// writer recycles the table inside it: every second publish hands the
/// same allocation back as the front. So after each of 240 random batches
/// the current snapshot is rendered twice (most batches — an epoch nobody
/// polls must cost no render) and checked three ways: the bytes equal a
/// fresh encode of `validate`'s report for this epoch, the second poll
/// returns the first one's `Arc`, and renders == distinct epochs polled.
///
/// Stretches of 30 batches alternate between dropping each snapshot at
/// once — the writer reclaims the old front's table and replays the
/// changelog into it (the rendered bytes must not travel with the table,
/// or the poll two epochs later reads this epoch's) — and holding it
/// across the next two publishes, which denies the reclaim and sends the
/// writer down the O(store) copy.
#[test]
fn rendered_bytes_never_outlive_their_epoch() {
    let (g, sigma) = evolving_workload(90, 3, 2, 17);
    let mut oracle = Oracle::new(&g, &sigma);
    let mut v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let mut stream = DeltaStream::new(0x3e30, &key_attrs(), &ints(4));
    let mut rng = StdRng::seed_from_u64(0x3e30);

    let mut renders = 0u64;
    let mut polled: BTreeSet<u64> = BTreeSet::new();
    let mut held: VecDeque<Option<ViolationSnapshot<Ged>>> = VecDeque::new();
    let mut rebuilds_by_regime = [0u64; 2];
    for batch_no in 0..240 {
        let pinning = (batch_no / 30) % 2 == 1;
        let rebuilds_before = view.rebuilds();
        let batch = stream.batch(&oracle.mirror, 6);
        v.apply_all(&batch);
        let at = oracle.advance(&batch);
        // The first three batches of a stretch still see the previous
        // stretch's holds (or lack of them) age out.
        if batch_no % 30 >= 3 {
            rebuilds_by_regime[usize::from(pinning)] += view.rebuilds() - rebuilds_before;
        }

        let mut keep = None;
        if rng.random_range(0..4u32) != 0 {
            let snap = view.snapshot();
            let epoch = snap.epoch();
            let render = |s: &ViolationSnapshot<Ged>| {
                renders += 1;
                encode_report(s.epoch(), s.rules(), |sink| s.for_each_witness(sink))
            };
            let first = snap.rendered(render);
            let second = view
                .snapshot()
                .rendered(|_| panic!("second poll of epoch {epoch} rendered again"));
            assert!(Arc::ptr_eq(&first, &second), "epoch {epoch}: two buffers");
            assert!(
                (at.epoch, &first[..]) == (epoch, &report_line(epoch, &at.report)[..]),
                "epoch {epoch} (batch {batch_no}): memoised bytes are not this epoch's report"
            );
            polled.insert(epoch);
            keep = pinning.then_some(snap);
        }
        assert_eq!(renders, polled.len() as u64, "one render per polled epoch");
        assert_eq!(
            view.renders(),
            renders,
            "the engine counts the same renders"
        );
        held.push_back(keep);
        if held.len() > 2 {
            held.pop_front();
        }
    }
    assert!(
        (polled.len() as u64) < view.epoch(),
        "some epochs must go unpolled for the zero-render half to mean anything"
    );
    assert_eq!(
        rebuilds_by_regime[0], 0,
        "nothing pinned, yet the writer rebuilt: the reclaim path did not run"
    );
    assert!(
        rebuilds_by_regime[1] > 20,
        "held snapshots must force rebuilds ({} seen)",
        rebuilds_by_regime[1]
    );
}

/// A metrics snapshot is one point in the writer's history, never a mix
/// of two: a reader thread polls `ReadView::metrics` while the writer
/// applies 240 batches, and every snapshot's batch count, published epoch
/// and batch trace must agree with each other.
#[test]
fn metrics_snapshots_are_never_torn() {
    let (g, sigma) = evolving_workload(200, 3, 2, 21);
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let done = std::sync::atomic::AtomicBool::new(false);
    let started = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            started.wait();
            // At least one poll, and one more after the writer is done.
            loop {
                let last_round = done.load(std::sync::atomic::Ordering::Acquire);
                let m = view.metrics();
                assert!(m.published_epoch <= m.batches, "epoch ahead of batches");
                // Every folded batch publishes right after: the epoch
                // trails the batches by at most the one in flight.
                assert!(m.batches <= m.published_epoch + 1, "epoch behind batches");
                if let Some(&(last, _)) = m.trace.last() {
                    assert_eq!(m.batches, last, "trace and batch count disagree");
                    if m.batches < 64 {
                        let traced: usize = m.trace.iter().map(|(_, st)| st.deltas_applied).sum();
                        assert_eq!(traced as u64, m.deltas_applied, "trace and deltas disagree");
                    }
                } else {
                    assert_eq!(m.batches, 0, "batches without a trace entry");
                }
                if last_round {
                    break;
                }
            }
        });
        started.wait();
        for i in 0..240usize {
            let batch: DeltaSet = (0..i % 7 + 1)
                .map(|j| Delta::SetAttr {
                    node: nodes[(i * 31 + j * 7) % nodes.len()],
                    attr: sym("key"),
                    value: Value::from(format!("v{}", (i * j) % 13)),
                })
                .collect();
            v.apply_all(&batch);
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        reader.join().expect("the reader's checks hold");
    });
    let m = v.metrics();
    assert!(m.batches >= 200, "{} batches changed the graph", m.batches);
    assert_eq!(m.published_epoch, m.batches, "every batch published");
}
