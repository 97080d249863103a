//! Fault injection against a live `gedd`: malformed frames, oversized
//! and truncated payloads, abrupt disconnects mid-request, edge deltas
//! naming node ids that do not exist, 2 and 8 racing `apply` writers, and
//! bulk frames that arrive awkwardly (a bad delta at the very end, one
//! byte per write, CR-LF and keep-alive lines around them, sizes on
//! either side of the cap) over a connection whose buffers are reused
//! from frame to frame. In every case the daemon must answer with a
//! structured error or drop just that connection — never panic — and
//! clients connecting afterwards must see an uncorrupted epoch whose
//! witness set equals a clean from-scratch validate of a local mirror.

use ged_daemon::{spawn, workload, DaemonConfig, DaemonHandle};
use ged_proto::json::Json;
use ged_proto::{code, Client, ClientError, Request};
use ged_repro::prelude::*;
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{wire_witnesses, witnesses};

/// Spawn a daemon plus its local mirror twin (the deterministic spec
/// loader yields identical state for both).
fn daemon_with_mirror(spec: &str, config: &DaemonConfig) -> (DaemonHandle, Graph, Vec<Rule>) {
    let (daemon_graph, daemon_sigma) = workload::load(spec).unwrap();
    let (mirror, sigma) = workload::load(spec).unwrap();
    let handle = spawn(daemon_graph, daemon_sigma, config).unwrap();
    (handle, mirror, sigma)
}

fn fresh_client(handle: &DaemonHandle) -> Client {
    let client = Client::connect(handle.addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
}

/// A fresh client must see exactly the mirror's validate at `epoch`.
fn assert_uncorrupted(handle: &DaemonHandle, mirror: &Graph, sigma: &[Rule], epoch: u64) {
    let mut probe = fresh_client(handle);
    let report = probe.report().expect("fresh client must be served");
    assert_eq!(report.epoch, epoch, "epoch corrupted by the fault");
    assert_eq!(
        wire_witnesses(&report.violations),
        witnesses(&validate(mirror, sigma, None)),
        "witness set corrupted by the fault"
    );
}

#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let (handle, mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=41", &DaemonConfig::default());
    let mut client = fresh_client(&handle);

    for hostile in [
        "this is not json",
        "{\"cmd\":",
        "[1,2,3,,]",
        "{\"cmd\" \"health\"}",
        "\"just a string with no cmd\"[]trailing",
    ] {
        // The client type only sends valid JSON; deliver the hostile
        // bytes raw, then wrap the stream to read the structured reply.
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(hostile.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        let mut via = Client::from_stream(raw).unwrap();
        let reply = via.read_reply().expect("structured reply, not a hangup");
        assert_eq!(reply.get_bool("ok"), Some(false), "{hostile}");
        assert_eq!(reply.get_str("code"), Some(code::MALFORMED), "{hostile}");
        // The same connection stays usable after the bad line.
        let health = via.health().expect("connection must survive");
        assert_eq!(health.epoch, 0);
    }

    // Structurally-bad requests (valid JSON) get their own codes.
    let reply = client
        .round_trip(&Json::parse("{\"cmd\":\"frobnicate\"}").unwrap())
        .unwrap();
    assert_eq!(reply.get_str("code"), Some(code::UNKNOWN_CMD));
    let reply = client
        .round_trip(&Json::parse("{\"cmd\":\"apply\",\"deltas\":[{\"op\":\"warp\"}]}").unwrap())
        .unwrap();
    assert_eq!(reply.get_str("code"), Some(code::BAD_REQUEST));
    let reply = client.round_trip(&Json::parse("[]").unwrap()).unwrap();
    assert_eq!(reply.get_str("code"), Some(code::BAD_REQUEST));

    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

#[test]
fn a_blank_line_flood_does_not_kill_the_daemon() {
    // Regression: frame reading used to recurse once per blank line, so
    // a hostile client could overflow the handler thread's stack — a
    // process-level abort, not a dropped connection — with a few hundred
    // KB of '\n' bytes, each line comfortably under the frame cap.
    let (handle, mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=44", &DaemonConfig::default());

    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    raw.write_all(&vec![b'\n'; 500_000]).unwrap();
    // The flood is skipped in O(1) stack; the next real frame answers.
    let mut via = Client::from_stream(raw).unwrap();
    let health = via.health().expect("daemon must survive the flood");
    assert_eq!(health.epoch, 0);

    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

#[test]
fn oversized_frames_are_refused_and_the_connection_dropped() {
    let config = DaemonConfig {
        max_frame: 4096,
        ..Default::default()
    };
    let (handle, mirror, sigma) = daemon_with_mirror("mixed:honest=10,plants=1,seed=42", &config);

    let mut client = fresh_client(&handle);
    let huge = format!("{{\"cmd\":\"health\",\"pad\":\"{}\"}}", "x".repeat(100_000));
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // The daemon refuses the frame once the cap is passed and hangs up on
    // the rest, so the end of it may meet a closed or reset connection.
    for bytes in [huge.as_bytes(), b"\n"] {
        if let Err(e) = raw.write_all(bytes) {
            assert!(
                matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset),
                "writing the oversized frame: {e}"
            );
            break;
        }
    }
    let mut via = Client::from_stream(raw).unwrap();
    let reply = via.read_reply().expect("structured error before hangup");
    assert_eq!(reply.get_bool("ok"), Some(false));
    assert_eq!(reply.get_str("code"), Some(code::OVERSIZED));
    // The stream cannot be re-synchronized: the daemon hangs up.
    assert!(matches!(
        via.health(),
        Err(ClientError::ConnectionClosed | ClientError::Wire(_))
    ));

    // Other clients are unaffected.
    assert!(client.health().is_ok());
    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

#[test]
fn truncated_frames_and_abrupt_disconnects_leave_the_daemon_serving() {
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=43", &DaemonConfig::default());

    // Truncated: bytes with no newline, then the peer vanishes.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"{\"cmd\":\"appl").unwrap();
        drop(raw);
    }

    // Abrupt disconnect mid-request: a full apply frame, connection torn
    // down before reading the reply. The batch was accepted, so it must
    // still land; only the reply is lost.
    let batch: DeltaSet = vec![Delta::AddNode {
        label: sym("account"),
    }]
    .into();
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        let req = Request::Apply(batch.clone()).to_json().to_string();
        raw.write_all(req.as_bytes()).unwrap();
        raw.write_all(b"\n").unwrap();
        drop(raw);
    }
    for d in &batch {
        mirror.apply_delta(d);
    }

    // The disconnected client's batch lands asynchronously: poll a fresh
    // connection until the epoch reaches the expected boundary.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut probe = fresh_client(&handle);
    loop {
        let (epoch, _, _) = probe.is_satisfied().unwrap();
        if epoch >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dropped client's accepted batch never published"
        );
        thread::sleep(Duration::from_millis(5));
    }
    assert_uncorrupted(&handle, &mirror, &sigma, 1);
    handle.stop();
    handle.join();
}

/// A raw connection: bytes go out as the test writes them, replies come
/// back through a [`Client`] over the same socket.
fn raw_connection(handle: &DaemonHandle) -> (TcpStream, Client) {
    let raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let replies = Client::from_stream(raw.try_clone().unwrap()).unwrap();
    (raw, replies)
}

/// `count` attribute writes the rules do not read, spread over the
/// mirror's nodes; `round` makes each batch's values new.
fn bulk_batch(mirror: &Graph, count: usize, round: usize) -> DeltaSet {
    let nodes: Vec<NodeId> = mirror.nodes().collect();
    (0..count)
        .map(|i| Delta::SetAttr {
            node: nodes[i % nodes.len()],
            attr: sym("bio"),
            value: Value::from(format!("round {round}, write {i} — \"é\"")),
        })
        .collect()
}

fn frame_line(batch: &DeltaSet) -> String {
    Request::Apply(batch.clone()).to_json().to_string()
}

/// The whole frame is validated before any of it is applied: a bad delta
/// at index 599 of 600, and a number no `f64` holds in an otherwise
/// well-formed write, each refuse the frame and leave epoch and witness
/// set where they were.
#[test]
fn a_frame_that_is_bad_at_its_very_end_applies_nothing() {
    let (handle, mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=46", &DaemonConfig::default());
    let (mut raw, mut replies) = raw_connection(&handle);

    let good = frame_line(&bulk_batch(&mirror, 599, 0));
    let line = format!(
        "{},{{\"op\":\"remove_node\",\"node\":1.0}}]}}\n",
        good.strip_suffix("]}").expect("an apply frame")
    );
    raw.write_all(line.as_bytes()).unwrap();
    let reply = replies.read_reply().expect("structured reply");
    assert_eq!(reply.get_str("code"), Some(code::BAD_REQUEST));
    let error = reply.get_str("error").unwrap();
    assert!(error.starts_with("deltas[599]: "), "{error}");

    // Regression: `1e999` parsed to `Float(inf)` and was stored, though no
    // reply could ever have carried the value back out.
    let node = mirror.nodes().next().unwrap().0;
    let line = format!(
        "{{\"cmd\":\"apply\",\"deltas\":[{{\"op\":\"set_attr\",\"node\":{node},\"attr\":\"x\",\"value\":1e999}}]}}\n"
    );
    raw.write_all(line.as_bytes()).unwrap();
    let reply = replies.read_reply().expect("structured reply");
    assert_eq!(reply.get_str("code"), Some(code::MALFORMED));
    let error = reply.get_str("error").unwrap();
    assert!(error.ends_with("number out of range"), "{error}");

    assert_eq!(replies.health().expect("still serving").epoch, 0);
    assert_uncorrupted(&handle, &mirror, &sigma, 0);
    handle.stop();
    handle.join();
}

/// Bulk frames on one connection however the transport and the client
/// shape them: one byte per `write`, CR-LF endings, blank and
/// white-space-only keep-alive lines in between. Each batch lands whole
/// and in order.
#[test]
fn bulk_frames_land_whole_however_they_arrive() {
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=47", &DaemonConfig::default());
    let (mut raw, mut replies) = raw_connection(&handle);

    let shapes: [(&str, &str, bool); 4] = [
        ("", "\n", true),
        ("\n\r\n", "\r\n", false),
        (" \t\r\n\n", "\n", false),
        ("\r\n", "\r\n", true),
    ];
    for (round, (before, ending, dribble)) in shapes.into_iter().enumerate() {
        let batch = bulk_batch(&mirror, 200, round);
        let bytes = format!("{before}{}{ending}", frame_line(&batch)).into_bytes();
        if dribble {
            for byte in &bytes {
                raw.write_all(std::slice::from_ref(byte)).unwrap();
            }
        } else {
            raw.write_all(&bytes).unwrap();
        }
        let reply = replies.read_reply().expect("structured reply");
        assert_eq!(reply.get_bool("ok"), Some(true), "round {round}: {reply}");
        assert_eq!(reply.get_u64("applied"), Some(200), "round {round}");
        assert_eq!(reply.get_u64("epoch"), Some(round as u64 + 1));
        for d in &batch {
            mirror.apply_delta(d);
        }
    }
    assert_uncorrupted(&handle, &mirror, &sigma, shapes.len() as u64);
    handle.stop();
    handle.join();
}

/// The cap is exact — a line of `max_frame` bytes is served, one byte more
/// is refused — and stays exact when the connection's buffer has just
/// held a frame that nearly filled it: nothing of one frame is left to be
/// counted, or parsed, as part of the next.
#[test]
fn the_frame_cap_is_exact_before_and_after_a_large_frame() {
    let max_frame = 20_000;
    let config = DaemonConfig {
        max_frame,
        ..Default::default()
    };
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=48", &config);
    // A request padded with an ignored field to exactly `len` bytes.
    let padded = |len: usize| {
        let envelope = "{\"cmd\":\"health\",\"pad\":\"\"}".len();
        format!(
            "{{\"cmd\":\"health\",\"pad\":\"{}\"}}\n",
            "x".repeat(len - envelope)
        )
    };
    assert_eq!(padded(max_frame).len(), max_frame + 1, "line + newline");
    let large = bulk_batch(&mirror, 150, 0);
    let large_line = frame_line(&large);
    assert!(large_line.len() > max_frame / 2 && large_line.len() < max_frame);

    for large_first in [false, true] {
        let (mut raw, mut replies) = raw_connection(&handle);
        if large_first {
            raw.write_all(format!("{large_line}\n").as_bytes()).unwrap();
            let reply = replies.read_reply().expect("structured reply");
            assert_eq!(reply.get_u64("applied"), Some(150), "{reply}");
            for d in &large {
                mirror.apply_delta(d);
            }
            // A short frame right behind the large one is read as itself.
            assert_eq!(replies.health().expect("served").epoch, 1);
        }
        raw.write_all(padded(max_frame).as_bytes()).unwrap();
        let reply = replies.read_reply().expect("a frame of exactly the cap");
        assert_eq!(reply.get_bool("ok"), Some(true), "{reply}");
        raw.write_all(padded(max_frame + 1).as_bytes()).unwrap();
        let reply = replies
            .read_reply()
            .expect("structured error before hangup");
        assert_eq!(reply.get_str("code"), Some(code::OVERSIZED));
        assert!(matches!(
            replies.health(),
            Err(ClientError::ConnectionClosed | ClientError::Wire(_))
        ));
    }
    assert_uncorrupted(&handle, &mirror, &sigma, 1);
    handle.stop();
    handle.join();
}

/// Well-formed edge deltas whose endpoints are beyond the id bound or
/// tombstoned reach `Graph::apply_delta` under the validator's lock as
/// they are. They must be no-ops — `applied == 0`, no epoch published —
/// not an index panic, and the connection that sent them keeps serving.
#[test]
fn edge_deltas_on_nonexistent_nodes_are_no_ops_not_writer_panics() {
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=10,plants=1,seed=45", &DaemonConfig::default());
    let mut client = fresh_client(&handle);
    let live = mirror.nodes().next().unwrap();
    let beyond = NodeId(mirror.node_id_bound() as u32);
    let label = sym("follows");

    let mut hostile = Vec::new();
    for bad in [beyond, NodeId(u32::MAX)] {
        for (src, dst) in [(bad, live), (live, bad), (bad, bad)] {
            hostile.push(Delta::RemoveEdge { src, label, dst });
            hostile.push(Delta::AddEdge { src, label, dst });
        }
    }
    let reply = client.apply(hostile.into()).expect("structured reply");
    assert_eq!(
        (reply.applied, reply.epoch),
        (0, 0),
        "no-ops publish nothing"
    );

    // Tombstone a node over the same connection, then aim at the dead id.
    let victim = mirror.nodes().last().unwrap();
    let kill: DeltaSet = vec![Delta::RemoveNode { node: victim }].into();
    for d in &kill {
        mirror.apply_delta(d);
    }
    let reply = client.apply(kill).expect("connection must survive");
    assert_eq!((reply.applied, reply.epoch), (1, 1));
    let at_dead: DeltaSet = vec![
        Delta::RemoveEdge {
            src: victim,
            label,
            dst: live,
        },
        Delta::RemoveEdge {
            src: live,
            label,
            dst: victim,
        },
        Delta::AddEdge {
            src: live,
            label,
            dst: victim,
        },
    ]
    .into();
    let reply = client.apply(at_dead).expect("connection must survive");
    assert_eq!((reply.applied, reply.epoch), (0, 1), "epoch stays put");

    assert_eq!(client.health().expect("still serving").epoch, 1);
    assert_uncorrupted(&handle, &mirror, &sigma, 1);
    handle.stop();
    handle.join();
}

#[test]
fn two_racing_apply_writers_serialize_without_corruption() {
    for writers in [2, 8] {
        racing_apply_writers(writers);
    }
}

/// `writers` connections each send one batch at once; the lock must
/// serialize them into epochs `1..=writers` and leave the mirror's state.
fn racing_apply_writers(writers: usize) {
    let (handle, mut mirror, sigma) =
        daemon_with_mirror("mixed:honest=12,plants=1,seed=44", &DaemonConfig::default());

    // Disjoint, commutative batches: writes to different nodes with
    // fresh values, so the final state is interleaving-independent and
    // the mirror can apply them in any order.
    let nodes: Vec<NodeId> = mirror.nodes().take(2 * writers).collect();
    assert_eq!(nodes.len(), 2 * writers, "a node pair per writer");
    let batches: Vec<DeltaSet> = nodes
        .chunks(2)
        .zip(0i64..)
        .map(|(pair, i)| {
            let (attr, value) = if i % 2 == 0 {
                ("age", Value::from(7 + i))
            } else {
                ("tier", Value::from("gold"))
            };
            vec![
                Delta::SetAttr {
                    node: pair[0],
                    attr: sym("bio"),
                    value: Value::from(format!("written by writer {i}")),
                },
                Delta::SetAttr {
                    node: pair[1],
                    attr: sym(attr),
                    value,
                },
            ]
            .into()
        })
        .collect();

    let addr = handle.addr();
    // Every writer is connected before any of them sends.
    let start = Barrier::new(writers);
    let mut epochs: Vec<u64> = thread::scope(|s| {
        let racers: Vec<_> = batches
            .iter()
            .map(|batch| {
                let start = &start;
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
                    start.wait();
                    c.apply(batch.clone()).expect("racing writer").epoch
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    // The lock serializes the batches: each changes the store's graph,
    // so they publish the distinct epochs 1..=writers.
    epochs.sort_unstable();
    let expected: Vec<u64> = (1..=writers as u64).collect();
    assert_eq!(epochs, expected, "{writers} racing applies must serialize");

    for d in batches.iter().flat_map(DeltaSet::deltas) {
        mirror.apply_delta(d);
    }
    assert_uncorrupted(&handle, &mirror, &sigma, writers as u64);
    handle.stop();
    handle.join();
}
