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

use ged_daemon::workload;
use ged_datagen::random::evolving_workload;
use ged_datagen::stream::DeltaStream;
use ged_proto::message::{encode_report_head, encode_segment, write_segmented};
use ged_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{
    ints, key_attrs, report_line, run, served, served_report, served_violations, view,
    violations_line, Oracle,
};

/// The lockstep check with `n_readers` concurrent reader threads.
fn lockstep(n_readers: usize, seed: u64) {
    let (g, sigma) = evolving_workload(90, 3, 2, seed);
    let sigma = served(sigma);
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
    let sigma = served(sigma);
    let mut oracle = Oracle::new(&g, &sigma);
    let mut v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let mut stream = DeltaStream::new(0x3e30, &key_attrs(), &ints(4));
    let mut rng = StdRng::seed_from_u64(0x3e30);

    let (mut renders, mut segments) = (0u64, 0u64);
    let mut polled: BTreeSet<u64> = BTreeSet::new();
    let mut held: VecDeque<Option<ViolationSnapshot>> = VecDeque::new();
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
            let head = |s: &ViolationSnapshot| {
                renders += 1;
                encode_report_head(s.epoch(), s.rules())
            };
            let segment = |rule: &str, witnesses: RuleWitnesses<'_>| {
                segments += 1;
                encode_segment(rule, witnesses)
            };
            let first = snap.rendered(head, segment);
            let second = view.snapshot().rendered(
                |_| panic!("second poll of epoch {epoch} rendered again"),
                |_, _| panic!("second poll of epoch {epoch} rendered a rule"),
            );
            assert!(Arc::ptr_eq(&first, &second), "epoch {epoch}: two buffers");
            let mut line = Vec::new();
            write_segmented(&mut line, first.head(), first.segments()).unwrap();
            assert!(
                (at.epoch, &line) == (epoch, &report_line(epoch, &at.report)),
                "epoch {epoch} (batch {batch_no}): memoised bytes are not this epoch's report"
            );
            polled.insert(epoch);
            keep = pinning.then_some(snap);
        }
        assert_eq!(renders, polled.len() as u64, "one render per polled epoch");
        assert_eq!(
            (view.renders(), view.rule_renders()),
            (renders, segments),
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
    let mut v = IncrementalValidator::new(g, served(sigma));
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

/// The pieces `gedd` serves, on generated streams over a GED/GDC/GED∨
/// `mixed:` workload and a `random:` one: at every batch boundary the
/// served `report` and `violations` lines equal the reference codec's of
/// a from-scratch `validate`, and rendering the epoch formats exactly the
/// rules whose change stamp moved since the epoch rendered before it —
/// every other rule's segment is shared.
#[test]
fn served_lines_equal_a_from_scratch_encode_on_generated_streams() {
    let mixed_attrs = ["age", "tier", "verified", "is_fake"].map(sym);
    let mixed_pool = [0.into(), 1.into(), 20.into(), "free".into(), "pro".into()];
    let streams: [(&str, &[Symbol], &[Value]); 2] = [
        (
            "mixed:honest=300,plants=60,seed=3",
            &mixed_attrs,
            &mixed_pool,
        ),
        ("random:nodes=400,rules=4,seed=2", &key_attrs(), &ints(4)),
    ];
    for (spec, attrs, pool) in streams {
        let (g, sigma) = workload::load(spec).unwrap();
        let rules = sigma.len();
        let mut oracle = Oracle::new(&g, &sigma);
        let mut v = IncrementalValidator::new(g, sigma);
        let view = v.read_view();
        let mut stream = DeltaStream::new(0x5e9, attrs, pool);
        let mut stamps_before: Option<Vec<u64>> = None;
        let (mut epochs, mut formatted) = (0, 0);
        for batch_no in 0..300 {
            let snap = view.snapshot();
            let at = &oracle.at;
            assert_eq!(snap.epoch(), at.epoch, "{spec}: batch {batch_no}");
            let stamps: Vec<u64> = (0..rules).map(|ci| snap.stamp(ci)).collect();
            let moved = stamps_before.as_ref().map_or(rules, |before| {
                before.iter().zip(&stamps).filter(|(b, s)| b != s).count()
            });
            let renders = view.rule_renders();
            let report = served_report(&snap);
            assert!(
                report == report_line(at.epoch, &at.report),
                "{spec}: epoch {} (batch {batch_no}): served report",
                at.epoch
            );
            let violations = served_violations(&snap);
            assert!(
                violations == violations_line(at.epoch, &at.report),
                "{spec}: epoch {} (batch {batch_no}): served violations",
                at.epoch
            );
            assert_eq!(
                view.rule_renders() - renders,
                moved as u64,
                "{spec}: epoch {}: segments formatted vs stamps moved",
                at.epoch
            );
            (epochs, formatted) = (epochs + u64::from(moved > 0), formatted + moved);
            stamps_before = Some(stamps);
            drop(snap);
            let batch = stream.batch(&oracle.mirror, 6);
            v.apply_all(&batch);
            oracle.advance(&batch);
        }
        assert!(
            formatted < rules * epochs as usize,
            "{spec}: every epoch re-rendered every rule ({formatted} segments, {epochs} epochs)"
        );
    }
}

/// A rule's segment is formatted again only when its witnesses changed:
/// rendering every epoch of a generated stream over a GED/GDC/GED∨
/// `mixed:` workload formats each rule once at epoch 0, and after that
/// once per (epoch, rule) whose witnesses — kinds included — differ from
/// the epoch before, counted on the oracle's from-scratch reports. A
/// witness a batch drops and derives again alike re-renders nothing.
#[test]
fn a_rule_is_rendered_again_only_when_its_witnesses_changed() {
    let mixed_attrs = ["age", "tier", "verified", "is_fake"].map(sym);
    let mixed_pool = [0.into(), 1.into(), 20.into(), "free".into(), "pro".into()];
    let (g, sigma) = workload::load("mixed:honest=300,plants=60,seed=3").unwrap();
    let mut oracle = Oracle::new(&g, &sigma);
    let mut v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let mut stream = DeltaStream::new(0xc4a9, &mixed_attrs, &mixed_pool);
    // Each rule's witnesses at a boundary, in report order.
    let per_rule = |report: &ged_repro::core::reason::ValidationReport| -> Vec<Vec<String>> {
        let mut rest = report.violations.iter();
        let rows = report.per_ged.iter().map(|row| row.violation_count);
        let rule = |n| rest.by_ref().take(n).map(|w| format!("{w:?}")).collect();
        rows.map(rule).collect()
    };
    let mut before = per_rule(&oracle.at.report);
    let mut changed = before.len();
    served_report(&view.snapshot());
    for _ in 0..300 {
        let batch = stream.batch(&oracle.mirror, 6);
        v.apply_all(&batch);
        let now = per_rule(&oracle.advance(&batch).report);
        changed += before.iter().zip(&now).filter(|(b, n)| b != n).count();
        before = now;
        served_report(&view.snapshot());
    }
    assert_eq!(view.rule_renders(), changed as u64);
}

/// Two readers of adjacent epochs race the per-rule memo: each renders
/// its own pinned snapshot on its own thread, released together, and each
/// gets its own epoch's bytes. Whichever order they ran in, the memo keeps
/// the newer epoch's segments, so rendering the epoch after both formats
/// only the rules whose stamp moved since the newer one.
#[test]
fn readers_of_adjacent_epochs_each_get_their_own_bytes() {
    let (g, sigma) = workload::load("random:nodes=200,rules=4,seed=7").unwrap();
    let rules = sigma.len();
    let mut oracle = Oracle::new(&g, &sigma);
    let mut v = IncrementalValidator::new(g, sigma);
    let view = v.read_view();
    let mut stream = DeltaStream::new(0x7ace, &key_attrs(), &ints(4));
    let stamps = |s: &ViolationSnapshot| -> Vec<u64> { (0..rules).map(|ci| s.stamp(ci)).collect() };
    for _ in 0..120 {
        // Two boundaries, each pinned with the line it must serve.
        let mut pinned: Vec<(ViolationSnapshot, Vec<u8>)> = Vec::new();
        while pinned.len() < 2 {
            let batch = stream.batch(&oracle.mirror, 4);
            v.apply_all(&batch);
            let at = oracle.advance(&batch);
            if pinned.last().is_none_or(|(s, _)| s.epoch() < at.epoch) {
                pinned.push((view.snapshot(), report_line(at.epoch, &at.report)));
            }
        }
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (snap, expected) in &pinned {
                let gate = &gate;
                s.spawn(move || {
                    gate.wait();
                    let served = served_report(snap);
                    assert!(
                        served == *expected,
                        "epoch {}: another epoch's bytes",
                        snap.epoch()
                    );
                });
            }
        });
        let newer = stamps(&pinned[1].0);
        drop(pinned);

        let batch = stream.batch(&oracle.mirror, 4);
        v.apply_all(&batch);
        let at = oracle.advance(&batch);
        let snap = view.snapshot();
        let moved = stamps(&snap)
            .iter()
            .zip(&newer)
            .filter(|(s, n)| s != n)
            .count();
        let renders = view.rule_renders();
        assert!(served_report(&snap) == report_line(at.epoch, &at.report));
        assert_eq!(
            view.rule_renders() - renders,
            moved as u64,
            "an older reader evicted a newer segment"
        );
    }
}
