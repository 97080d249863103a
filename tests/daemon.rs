//! End-to-end wire-protocol lockstep: the `tests/read_views.rs`
//! methodology lifted to the daemon layer. A real `gedd` server runs
//! in-process on an ephemeral port; the writer streams randomized delta
//! batches (tombstones, self-loop toggles, re-adds, attribute churn)
//! over TCP while 1/2/8 concurrent client threads spin on `report`
//! requests over their own connections.
//!
//! Soundness oracle: the test keeps a *mirror* graph, applies every
//! batch to it locally, and ledgers `epoch → witness set of a
//! from-scratch validate(mirror)` using the epoch stamped on the wire
//! apply reply. Dead-node deltas are graph-level no-ops on both sides,
//! so the mirror's node-id assignment tracks the daemon's exactly.
//! Every `(epoch, witness-set)` any client observes over the wire must
//! equal the ledger entry for that epoch — no torn states, no phantom
//! epochs — and the final epoch must be observed.

use ged_daemon::{spawn, workload, DaemonConfig};
use ged_proto::message::{report_to_json, Request};
use ged_proto::{write_frame, Client, Json, WireViolation};
use ged_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// Canonical comparable witness set, same shape as the in-process
/// lockstep suite: (rule, assignment, Debug-rendered kind).
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

fn wire_witness_set(violations: &[WireViolation]) -> Witnesses {
    violations
        .iter()
        .map(|v| (v.rule.clone(), v.assignment.clone(), v.kind.clone()))
        .collect()
}

/// Draw one delta against the mirror, biased toward the streams the
/// snapshot path must survive (same arms as `tests/read_views.rs`).
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
            0 | 1 if live.len() > 2 => {
                return Delta::RemoveNode {
                    node: pick_node(rng),
                }
            }
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
            4 => {
                return Delta::AddNode {
                    label: labels[rng.random_range(0..labels.len())],
                }
            }
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

/// Run the wire-level lockstep check with `n_clients` concurrent client
/// threads querying while this thread streams `batches` apply batches.
fn wire_lockstep(n_clients: usize, batches: usize, batch_size: usize, seed: u64) {
    // The spec loader is deterministic: loading twice yields the twin
    // the daemon starts from and the local mirror to validate against.
    let spec = format!("random:nodes=90,rules=2,seed={seed}");
    let (daemon_graph, daemon_sigma) = workload::load(&spec).unwrap();
    let (mut mirror, sigma) = workload::load(&spec).unwrap();
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];

    let config = DaemonConfig {
        threads: 2,
        ..Default::default()
    };
    let handle = spawn(daemon_graph, daemon_sigma, &config).unwrap();
    let addr = handle.addr();

    let mut ledger: HashMap<u64, Witnesses> = HashMap::new();
    ledger.insert(0, witness_set(&validate(&mirror, &sigma, None)));

    let stop = AtomicBool::new(false);
    let observed: Vec<Vec<(u64, Witnesses)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| {
                let stop = &stop;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("reader connect");
                    client
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut seen: Vec<(u64, Witnesses)> = Vec::new();
                    let mut record = |client: &mut Client| {
                        let report = client.report().expect("report over the wire");
                        let pair = (report.epoch, wire_witness_set(&report.violations));
                        if seen.last() != Some(&pair) {
                            seen.push(pair);
                        }
                    };
                    while !stop.load(Ordering::SeqCst) {
                        record(&mut client);
                    }
                    // One report after the stop flag (raised after the
                    // final apply reply): guarantees the last epoch is
                    // observed by every client.
                    record(&mut client);
                    seen
                })
            })
            .collect();

        // The write stream runs on this thread, over its own connection.
        let mut writer = Client::connect(addr).expect("writer connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..batches {
            let batch: DeltaSet = (0..batch_size)
                .map(|_| stream_delta(&mirror, &mut rng, &attrs))
                .collect::<Vec<Delta>>()
                .into();
            let reply = writer.apply(batch.clone()).expect("apply over the wire");
            for d in &batch {
                mirror.apply_delta(d);
            }
            ledger.insert(reply.epoch, witness_set(&validate(&mirror, &sigma, None)));
        }
        stop.store(true, Ordering::SeqCst);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every observation must be exactly some ledgered batch boundary.
    let mut epochs_seen: BTreeSet<u64> = BTreeSet::new();
    for (client, seen) in observed.iter().enumerate() {
        assert!(!seen.is_empty(), "client {client} never completed a report");
        for (epoch, witnesses) in seen {
            let expected = ledger
                .get(epoch)
                .unwrap_or_else(|| panic!("client {client} observed unpublished epoch {epoch}"));
            assert_eq!(
                witnesses, expected,
                "client {client} saw a state diverging from a from-scratch \
                 validate at epoch {epoch}"
            );
            epochs_seen.insert(*epoch);
        }
    }
    let last = *ledger.keys().max().unwrap();
    assert!(
        epochs_seen.contains(&last),
        "no client observed the final epoch {last} (saw {epochs_seen:?})"
    );

    let final_epoch = handle.stop();
    assert_eq!(final_epoch, last, "shutdown must rest at the last boundary");
    handle.join();
}

#[test]
fn wire_lockstep_one_client() {
    wire_lockstep(1, 20, 8, 21);
}

#[test]
fn wire_lockstep_two_clients() {
    wire_lockstep(2, 20, 8, 22);
}

#[test]
fn wire_lockstep_eight_clients() {
    wire_lockstep(8, 20, 8, 23);
}

/// The apply reply itself must agree with the oracle: epoch advances
/// exactly on store-changing batches, and the violation count matches a
/// from-scratch validate.
#[test]
fn apply_replies_match_the_oracle() {
    let spec = "random:nodes=60,rules=1,seed=31";
    let (daemon_graph, daemon_sigma) = workload::load(spec).unwrap();
    let (mut mirror, sigma) = workload::load(spec).unwrap();
    let handle = spawn(daemon_graph, daemon_sigma, &DaemonConfig::default()).unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    let attrs = [sym("key"), sym("attr0")];
    let mut rng = StdRng::seed_from_u64(99);
    let mut epoch = 0u64;
    for _ in 0..30 {
        let batch: DeltaSet = (0..4)
            .map(|_| stream_delta(&mirror, &mut rng, &attrs))
            .collect::<Vec<Delta>>()
            .into();
        let reply = client.apply(batch.clone()).unwrap();
        let mut changed = false;
        for d in &batch {
            changed |= mirror.apply_delta(d).changed;
        }
        if changed {
            epoch += 1;
        }
        assert_eq!(reply.epoch, epoch, "epoch advances on changing batches");
        let oracle = validate(&mirror, &sigma, None);
        assert_eq!(
            reply.violations as usize,
            oracle.violations.len(),
            "apply reply violation count diverged from a clean validate"
        );
    }
    handle.stop();
    handle.join();
}

/// The `report` reply line for a from-scratch `validate` of the mirror at
/// `epoch`, via the reference tree codec (each rule's witnesses sorted,
/// as the wire promises; `validate` lists them in enumeration order).
fn oracle_report_line(epoch: u64, mirror: &Graph, sigma: &[SigmaConstraint]) -> Vec<u8> {
    let mut report = validate(mirror, sigma, None);
    let mut rest = report.violations.as_mut_slice();
    for rule in &report.per_ged {
        let (run, tail) = rest.split_at_mut(rule.violation_count);
        run.sort_by(|a, b| a.assignment.cmp(&b.assignment));
        rest = tail;
    }
    let mut line = Vec::new();
    write_frame(&mut line, &report_to_json(epoch, &report)).unwrap();
    line
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
    let spec = "random:nodes=90,rules=2,seed=27";
    let (daemon_graph, daemon_sigma) = workload::load(spec).unwrap();
    let (mut mirror, sigma) = workload::load(spec).unwrap();
    let attrs: Vec<Symbol> = vec![sym("key"), sym("attr0"), sym("attr1")];
    let handle = spawn(daemon_graph, daemon_sigma, &DaemonConfig::default()).unwrap();
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
        let batch: DeltaSet = (0..6)
            .map(|_| stream_delta(&mirror, &mut rng, &attrs))
            .collect::<Vec<Delta>>()
            .into();
        let epoch = writer.apply(batch.clone()).unwrap().epoch;
        for d in &batch {
            mirror.apply_delta(d);
        }
        // Holds from a pinning stretch take three batches to age out.
        if !pinning && batch_no % 30 >= 3 {
            unpinned_rebuilds += view.rebuilds() - rebuilds_before;
        }

        let mut keep = None;
        if rng.random_range(0..4u32) != 0 {
            let expected = oracle_report_line(epoch, &mirror, &sigma);
            assert!(poll_raw() == expected, "epoch {epoch}: first poll");
            assert!(poll_raw() == expected, "epoch {epoch}: second poll");
            // The typed client reads the same reply through `Json::parse`.
            assert_eq!(poller.report().unwrap().epoch, epoch);
            polled.insert(epoch);
            if pinning {
                let snap = view.snapshot();
                let memo = snap.rendered(|_| panic!("epoch {epoch} was rendered by the wire"));
                assert!(memo[..] == expected[..], "epoch {epoch}: slot");
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
    let sigma: Vec<SigmaConstraint> = names
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
