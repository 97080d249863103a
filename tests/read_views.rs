//! Snapshot isolation lockstep: every state a concurrent `ReadView`
//! observes must equal the full-recheck state at *some* batch boundary —
//! readers never see a torn mid-batch store, and the epoch stamped on a
//! snapshot identifies exactly which boundary they got.
//!
//! The writer streams randomized delta batches (biased towards the nasty
//! cases: node tombstones, self-loop toggles, remove-then-re-add churn)
//! and records, after each `apply_all`, the canonical witness set of a
//! from-scratch `validate` keyed by the epoch just published. Reader
//! threads spin on `ReadView::snapshot` the whole time; after the join,
//! every `(epoch, witnesses)` pair they observed must match the writer's
//! ledger for that epoch. Run at 1, 2 and 8 concurrent readers.
//!
//! The last test is the same lockstep for the bytes memoised on a
//! snapshot (`ViolationSnapshot::rendered`): single-threaded on purpose,
//! so which buffer the writer recycles when is decided by the test.

use ged_proto::message::{encode_report, report_to_json};
use ged_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

#[path = "support/workload.rs"]
mod support;
use support::workload;

/// Canonical comparable form of a report: the witness set with kinds
/// rendered via `Debug` (covers every constraint family).
type Witnesses = BTreeSet<(String, Vec<NodeId>, String)>;

fn witness_set(report: &ged_repro::core::ValidationReport) -> Witnesses {
    report
        .violations
        .iter()
        .map(|v| {
            (
                v.ged_name.clone(),
                v.assignment.clone(),
                format!("{:?}", v.kind),
            )
        })
        .collect()
}

/// Draw one delta against `g`, biased towards the streams the snapshot
/// path must survive: tombstones (`RemoveNode`), self-loop toggles
/// (`src == dst`, a one-node footprint) and re-adds (`AddNode` plus a
/// keyed attribute write, recreating just-removed structure), with plain
/// attribute churn filling the rest.
fn stream_delta(g: &Graph, rng: &mut StdRng, attrs: &[Symbol]) -> Delta {
    let live: Vec<NodeId> = g.nodes().collect();
    let labels: Vec<Symbol> = g.labels().collect();
    let elabels: Vec<Symbol> = {
        let found: BTreeSet<Symbol> = g.edges().map(|e| e.label).collect();
        if found.is_empty() {
            vec![sym("e0")]
        } else {
            found.into_iter().collect()
        }
    };
    let pick_node = |rng: &mut StdRng| live[rng.random_range(0..live.len())];
    loop {
        match rng.random_range(0..8u32) {
            // Tombstone stream: kill a live node outright.
            0 | 1 if live.len() > 2 => {
                return Delta::RemoveNode {
                    node: pick_node(rng),
                }
            }
            // Self-loop stream: toggle an edge whose footprint is one node.
            2 | 3 if !live.is_empty() => {
                let n = pick_node(rng);
                let label = elabels[rng.random_range(0..elabels.len())];
                return if g.has_edge(n, label, n) {
                    Delta::RemoveEdge {
                        src: n,
                        label,
                        dst: n,
                    }
                } else {
                    Delta::AddEdge {
                        src: n,
                        label,
                        dst: n,
                    }
                };
            }
            // Re-add stream: new node under an existing label (a follow-up
            // SetAttr from the churn arm below recreates keyed structure).
            4 => {
                return Delta::AddNode {
                    label: labels[rng.random_range(0..labels.len())],
                }
            }
            // Attribute churn over the rule vocabulary.
            5..=7 if !live.is_empty() => {
                return Delta::SetAttr {
                    node: pick_node(rng),
                    attr: attrs[rng.random_range(0..attrs.len())],
                    value: Value::from(rng.random_range(0..4i64)),
                }
            }
            _ if live.is_empty() => {
                return Delta::AddNode {
                    label: sym("entity"),
                }
            }
            _ => continue,
        }
    }
}

/// Run the lockstep check with `n_readers` concurrent reader threads.
///
/// The writer applies `batches` batches of `batch_size` deltas while the
/// readers spin on `snapshot()`. Dead-node deltas inside a batch are
/// graph-level no-ops, so generating the whole batch against the
/// pre-batch graph is safe.
fn lockstep(n_readers: usize, batches: usize, batch_size: usize, seed: u64) {
    let (g, sigma) = workload(90, 2, seed);
    let mut v = IncrementalValidator::with_threads(g, sigma, 2);
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];

    // Activate publishing and ledger the epoch-0 boundary before any
    // reader starts: the activation snapshot is the current store.
    let view = v.read_view();
    let mut ledger: HashMap<u64, Witnesses> = HashMap::new();
    ledger.insert(
        view.epoch(),
        witness_set(&validate(v.graph(), v.sigma(), None)),
    );

    let stop = AtomicBool::new(false);
    let observed: Vec<Vec<(u64, Witnesses)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..n_readers)
            .map(|_| {
                let rv = view.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut seen: Vec<(u64, Witnesses)> = Vec::new();
                    let mut record = |rv: &ReadView<Ged>| {
                        let snap = rv.snapshot();
                        let pair = (snap.epoch(), witness_set(&snap.to_report()));
                        // Only keep distinct states; the spin loop would
                        // otherwise record the same boundary thousands of
                        // times.
                        if seen.last() != Some(&pair) {
                            seen.push(pair);
                        }
                    };
                    while !stop.load(Ordering::SeqCst) {
                        record(&rv);
                    }
                    // One snapshot after observing the stop flag: the flag
                    // is raised after the final publish, so this is
                    // guaranteed to carry the last epoch.
                    record(&rv);
                    seen
                })
            })
            .collect();

        // The writer runs on this thread: stream batches, ledger each
        // published boundary by full recheck. A batch of pure no-ops
        // publishes nothing and leaves the epoch (and ledger) unchanged.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..batches {
            let batch: DeltaSet = (0..batch_size)
                .map(|_| stream_delta(v.graph(), &mut rng, &attrs))
                .collect::<Vec<Delta>>()
                .into();
            v.apply_all(&batch);
            ledger.insert(
                view.epoch(),
                witness_set(&validate(v.graph(), v.sigma(), None)),
            );
        }
        stop.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every observed snapshot must be exactly some published boundary.
    let mut epochs_seen: BTreeSet<u64> = BTreeSet::new();
    for (reader, seen) in observed.iter().enumerate() {
        assert!(
            !seen.is_empty(),
            "reader {reader} never completed a snapshot"
        );
        for (epoch, witnesses) in seen {
            let expected = ledger
                .get(epoch)
                .unwrap_or_else(|| panic!("reader {reader} observed unpublished epoch {epoch}"));
            assert_eq!(
                witnesses, expected,
                "reader {reader} saw a torn state at epoch {epoch}"
            );
            epochs_seen.insert(*epoch);
        }
    }
    // The final boundary is always observable: every reader takes one
    // snapshot after the stop flag (raised after the last publish), so at
    // least one observed snapshot carries the last epoch.
    let last = *ledger.keys().max().unwrap();
    assert!(
        epochs_seen.contains(&last),
        "no reader observed the final epoch {last} (saw {epochs_seen:?})"
    );
    assert_eq!(
        view.epoch(),
        last,
        "view epoch should rest at the last published boundary"
    );
}

#[test]
fn lockstep_one_reader() {
    lockstep(1, 25, 8, 11);
}

#[test]
fn lockstep_two_readers() {
    lockstep(2, 25, 8, 12);
}

#[test]
fn lockstep_eight_readers() {
    lockstep(8, 25, 8, 13);
}

/// The `report` reply line for a from-scratch `validate` at `epoch`, via
/// the reference tree codec. `validate` lists a rule's witnesses in
/// enumeration order; the wire sorts them, so each rule's run is sorted
/// here (Σ order is already shared).
fn oracle_report_line(epoch: u64, g: &Graph, sigma: &[Ged]) -> Vec<u8> {
    let mut report = validate(g, sigma, None);
    let mut rest = report.violations.as_mut_slice();
    for rule in &report.per_ged {
        let (run, tail) = rest.split_at_mut(rule.violation_count);
        run.sort_by(|a, b| a.assignment.cmp(&b.assignment));
        rest = tail;
    }
    let mut line = Vec::new();
    ged_proto::write_frame(&mut line, &report_to_json(epoch, &report)).unwrap();
    line
}

/// Memo staleness lockstep. Rendered bytes live on the snapshot buffer,
/// and the writer recycles those buffers: every second publish hands the
/// same allocation back as the front. So after each of 240 random batches
/// the current snapshot is rendered twice (most batches — an epoch nobody
/// polls must cost no render) and checked three ways: the bytes equal a
/// fresh encode of `validate`'s report for this epoch, the second poll
/// returns the first one's `Arc`, and renders == distinct epochs polled.
///
/// Stretches of 30 batches alternate between dropping each snapshot at
/// once — the writer reclaims the old front, slot still full, and replays
/// the changelog into it (`ReadStore::apply` must empty the slot, or the
/// poll two epochs later reads this epoch's bytes) — and holding it across
/// the next two publishes, which denies the reclaim and sends the writer
/// down the O(store) rebuild.
#[test]
fn rendered_bytes_never_outlive_their_epoch() {
    let (g, sigma) = workload(90, 2, 17);
    let mut v = IncrementalValidator::with_threads(g, sigma, 1);
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];
    let view = v.read_view();
    let mut rng = StdRng::seed_from_u64(0x3e30);

    let mut renders = 0u64;
    let mut polled: BTreeSet<u64> = BTreeSet::new();
    let mut held: VecDeque<Option<ViolationSnapshot<Ged>>> = VecDeque::new();
    let mut rebuilds_by_regime = [0u64; 2];
    for batch_no in 0..240 {
        let pinning = (batch_no / 30) % 2 == 1;
        let rebuilds_before = view.rebuilds();
        let batch: DeltaSet = (0..6)
            .map(|_| stream_delta(v.graph(), &mut rng, &attrs))
            .collect::<Vec<Delta>>()
            .into();
        v.apply_all(&batch);
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
                first[..] == oracle_report_line(epoch, v.graph(), v.sigma())[..],
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
