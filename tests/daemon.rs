//! End-to-end wire-protocol lockstep: the `tests/read_views.rs`
//! methodology lifted to the daemon layer. The lockstep driver
//! (`support/lockstep.rs`, DESIGN.md §11) runs its `wire` subject — a real
//! `gedd` in-process on an ephemeral port, written to over TCP — on
//! generated delta batches (tombstones, self-loop toggles, re-adds, undo
//! pairs, attribute churn) while 1/2/8 concurrent client threads spin on
//! `report` requests over their own connections.
//!
//! Soundness oracle: the driver keeps a *mirror* graph, applies every
//! batch to it locally, and ledgers `epoch → witness set of a
//! from-scratch validate(mirror)`; dead-node deltas are graph-level no-ops
//! on both sides, so the mirror's node-id assignment tracks the daemon's
//! exactly. Every `apply` reply and the `report` behind it must agree with
//! the oracle at that boundary, every `(epoch, witness-set)` any client
//! observes over the wire must equal the ledger entry for that epoch — no
//! torn states, no phantom epochs — the final epoch must be observed, and
//! shutdown must rest at it.

use ged_daemon::{spawn, workload, DaemonConfig};
use ged_datagen::stream::DeltaStream;
use ged_proto::message::{write_segmented, Request};
use ged_proto::{write_frame, Client, Json};
use ged_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{ints, key_attrs, report_line, run, wire, Oracle};

/// The wire-level lockstep check with `n_clients` concurrent pollers.
fn wire_lockstep(n_clients: usize, seed: u64) {
    let spec = format!("random:nodes=90,rules=2,seed={seed}");
    let (g, sigma) = workload::load(&spec).unwrap();
    let attrs = key_attrs();
    run(
        (&g, &sigma),
        (seed ^ 0x5eed, &attrs, &ints(4)),
        (20, 8),
        &[wire(n_clients)],
    );
}

#[test]
fn wire_lockstep_one_client() {
    wire_lockstep(1, 21);
}

#[test]
fn wire_lockstep_two_clients() {
    wire_lockstep(2, 22);
}

#[test]
fn wire_lockstep_eight_clients() {
    wire_lockstep(8, 23);
}

/// The apply reply itself must agree with the oracle: epoch advances
/// exactly on store-changing batches, and applied, violations, added and
/// removed match a from-scratch validate before and after.
#[test]
fn apply_replies_match_the_oracle() {
    let (g, sigma) = workload::load("random:nodes=60,rules=1,seed=31").unwrap();
    let attrs = [sym("key"), sym("attr0")];
    run((&g, &sigma), (99, &attrs, &ints(4)), (30, 4), &[wire(0)]);
}

/// The wire twin of `rendered_bytes_never_outlive_their_epoch`
/// (`tests/read_views.rs`): the daemon answers `report` with bytes
/// memoised on a snapshot buffer that the writer recycles, so after each
/// of 220 random batches the raw reply line is read twice and must equal,
/// byte for byte, a fresh encode of `validate(mirror)` at the epoch the
/// apply reply named. Most batches are polled, some are not: the
/// engine's render counter must read one per polled epoch exactly.
///
/// In alternating stretches of 30 batches the test also pins each epoch
/// in-process for two publishes (the rebuild path; those snapshots must
/// find the wire's bytes already in their slot). In the other stretches
/// nothing outside the daemon holds a snapshot, so any rebuild there
/// would be a connection handler still pinning one after it replied.
#[test]
fn wire_report_bytes_track_every_epoch() {
    let (g, sigma) = workload::load("random:nodes=90,rules=2,seed=27").unwrap();
    let mut oracle = Oracle::new(&g, &sigma);
    let mut stream = DeltaStream::new(0x3e31, &key_attrs(), &ints(4));
    let handle = spawn(g, sigma, &DaemonConfig::default()).unwrap();
    let view = handle.view();

    let mut writer = Client::connect(handle.addr()).unwrap();
    let mut poller = Client::connect(handle.addr()).unwrap();
    let raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut raw_lines = BufReader::new(raw.try_clone().unwrap());
    let mut poll_raw = || {
        write_frame(&mut &raw, &Request::Report.to_json()).unwrap();
        let mut line = Vec::new();
        raw_lines.read_until(b'\n', &mut line).unwrap();
        line
    };

    let mut rng = StdRng::seed_from_u64(0x3e31);
    let mut polled: BTreeSet<u64> = BTreeSet::new();
    let mut held = VecDeque::new();
    let mut unpinned_rebuilds = 0u64;
    for batch_no in 0..220 {
        let pinning = (batch_no / 30) % 2 == 1;
        let rebuilds_before = view.rebuilds();
        let batch = stream.batch(&oracle.mirror, 6);
        let epoch = writer.apply(batch.clone()).unwrap().epoch;
        let at = oracle.advance(&batch);
        assert_eq!(epoch, at.epoch, "batch {batch_no}");
        // Holds from a pinning stretch take three batches to age out.
        if !pinning && batch_no % 30 >= 3 {
            unpinned_rebuilds += view.rebuilds() - rebuilds_before;
        }

        let mut keep = None;
        if rng.random_range(0..4u32) != 0 {
            let expected = report_line(epoch, &at.report);
            assert!(poll_raw() == expected, "epoch {epoch}: first poll");
            assert!(poll_raw() == expected, "epoch {epoch}: second poll");
            // The typed client reads the same reply through `Json::parse`.
            assert_eq!(poller.report().unwrap().epoch, epoch);
            polled.insert(epoch);
            if pinning {
                let snap = view.snapshot();
                let memo = snap.rendered(
                    |_| panic!("epoch {epoch} was rendered by the wire"),
                    |rule, _| panic!("epoch {epoch}: {rule} rendered past the slot"),
                );
                let mut slot = Vec::new();
                write_segmented(&mut slot, memo.head(), memo.segments()).unwrap();
                assert!(slot == expected, "epoch {epoch}: slot");
                keep = Some(snap);
            }
        }
        assert_eq!(
            view.renders(),
            polled.len() as u64,
            "one render per polled epoch, none for the rest (batch {batch_no})"
        );
        held.push_back(keep);
        if held.len() > 2 {
            held.pop_front();
        }
    }
    assert!((polled.len() as u64) < view.epoch(), "some epochs unpolled");
    assert_eq!(
        unpinned_rebuilds, 0,
        "a handler kept its snapshot past its reply and cost the writer a rebuild"
    );
    assert!(view.rebuilds() > 20, "the pinned stretches must rebuild");

    drop(held);
    handle.stop();
    handle.join();
}

/// The key sequence of a JSON object, in document order.
fn keys(j: &Json) -> Vec<&str> {
    match j {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

/// The `metrics` reply is the engine's snapshot embedded as a value —
/// nothing is printed and parsed back on the way. Rule names that need
/// every kind of string escape cross the wire intact, the document has
/// exactly the published key sequence, and with the writer quiescent it
/// equals the in-process snapshot field for field.
#[test]
fn wire_metrics_carry_hostile_rule_names_in_the_published_shape() {
    let names = ["q\"uote", "back\\slash", "new\nline", "ctl\u{1}", "é"];
    let q = parse_pattern("t(x)").unwrap();
    let sigma: Vec<Rule> = names
        .iter()
        .map(|name| {
            let ok = Literal::constant(Var(0), sym("ok"), 1);
            Ged::new(*name, q.clone(), vec![], vec![ok]).into()
        })
        .collect();
    let mut graph = Graph::new();
    let nodes: Vec<NodeId> = (0..3).map(|_| graph.add_node(sym("t"))).collect();
    let handle = spawn(graph, sigma, &DaemonConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let batch: DeltaSet = vec![Delta::SetAttr {
        node: nodes[0],
        attr: sym("ok"),
        value: Value::from(1),
    }]
    .into();
    assert_eq!(client.apply(batch).unwrap().violations, 10);

    let metrics = client.metrics().unwrap();
    assert_eq!(
        keys(&metrics),
        [
            "enabled",
            "batches",
            "deltas_applied",
            "touched_nodes",
            "witnesses",
            "store_size",
            "store_slab_slots",
            "read_views",
            "published_epoch",
            "renders",
            "rule_renders",
            "rebuilds",
            "match_attempts",
            "matches_found",
            "phases",
            "unit_latency",
            "rules",
            "trace"
        ]
    );
    assert_eq!(
        keys(metrics.get("witnesses").unwrap()),
        ["dropped", "removed", "added", "retained"]
    );
    let latency = ["count", "sum_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"];
    assert_eq!(keys(metrics.get("unit_latency").unwrap()), latency);
    let phases = metrics.get_arr("phases").unwrap();
    assert_eq!(
        phases
            .iter()
            .map(|row| row.get_str("phase").unwrap())
            .collect::<Vec<_>>(),
        Phase::ALL.map(Phase::name)
    );
    for row in phases {
        assert_eq!(keys(row)[0], "phase");
        assert_eq!(keys(row)[1..], latency);
    }
    let rules = metrics.get_arr("rules").unwrap();
    assert_eq!(
        rules
            .iter()
            .map(|row| row.get_str("name").unwrap())
            .collect::<Vec<_>>(),
        names,
        "rule names intact"
    );
    for row in rules {
        assert_eq!(
            keys(row),
            [
                "name",
                "match_attempts",
                "prefilter_rejects",
                "matches_found",
                "violations_found",
                "seed_ns",
                "reenum_ns"
            ]
        );
    }
    let trace = metrics.get_arr("trace").unwrap();
    assert_eq!(trace.len(), 1, "one batch applied");
    assert_eq!(
        keys(&trace[0]),
        [
            "batch",
            "deltas_applied",
            "removed",
            "added",
            "retained",
            "touched_nodes"
        ]
    );
    assert_eq!(metrics.get_u64("batches"), Some(1));
    assert_eq!(metrics.get_u64("store_size"), Some(10));

    // The apply was acknowledged, so the writer is idle: the registry is
    // frozen and the wire's copy equals the in-process one, timings too.
    assert_eq!(metrics, handle.view().metrics().to_json());

    handle.stop();
    handle.join();
}
