//! Graceful shutdown: a `shutdown` racing an in-flight batch must drain
//! the batch first — the final published epoch reflects it — and the
//! listener must refuse new connections once the daemon is down.

use ged_daemon::{spawn, workload, DaemonConfig};
use ged_proto::{code, Client, ClientError, Request};
use ged_repro::prelude::*;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{wire_witnesses, witnesses};

#[test]
fn shutdown_drains_the_in_flight_batch_and_closes_the_listener() {
    let spec = "mixed:honest=10,plants=1,seed=51";
    let (daemon_graph, daemon_sigma) = workload::load(spec).unwrap();
    let (mut mirror, sigma) = workload::load(spec).unwrap();
    let handle = spawn(daemon_graph, daemon_sigma, &DaemonConfig::default()).unwrap();
    let addr = handle.addr();

    // A second connection opened *before* shutdown, for afterwards.
    let mut survivor = Client::connect(addr).unwrap();
    survivor
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Pipeline an apply immediately followed by shutdown on one
    // connection: the handler serves frames strictly in order, so the
    // batch is guaranteed to be in flight (accepted, unreplied) when
    // the shutdown lands — the deterministic version of "shutdown while
    // a batch is in flight".
    let batch: DeltaSet = vec![
        Delta::AddNode {
            label: sym("account"),
        },
        Delta::AddNode {
            label: sym("account"),
        },
    ]
    .into();
    let mut driver = Client::connect(addr).unwrap();
    driver
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    driver
        .send(&Request::Apply(batch.clone()).to_json())
        .unwrap();
    driver.send(&Request::Shutdown.to_json()).unwrap();

    let apply_reply = driver.read_reply().unwrap();
    assert_eq!(apply_reply.get_bool("ok"), Some(true));
    let batch_epoch = apply_reply.get_u64("epoch").unwrap();
    assert_eq!(batch_epoch, 1, "the batch publishes the first boundary");

    let shutdown_reply = driver.read_reply().unwrap();
    assert_eq!(shutdown_reply.get_bool("ok"), Some(true));
    assert_eq!(
        shutdown_reply.get_u64("final_epoch"),
        Some(batch_epoch),
        "the final epoch must reflect the drained batch"
    );

    // join() waits for the listener to close and returns the final
    // published epoch.
    let final_epoch = handle.join();
    assert_eq!(final_epoch, batch_epoch);

    // New connections are refused once the daemon is down.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must refuse new connections after shutdown"
    );

    // Connections opened before the shutdown still answer queries, off
    // the final snapshot — and that snapshot equals a clean validate of
    // the drained state.
    for d in &batch {
        mirror.apply_delta(d);
    }
    let report = survivor.report().unwrap();
    assert_eq!(report.epoch, final_epoch);
    let oracle = validate(&mirror, &sigma, None);
    assert_eq!(report.violations.len(), oracle.violations.len());
    assert_eq!(report.satisfied, oracle.satisfied());

    // But writes are refused with the structured shutting-down error.
    let err = survivor
        .apply(
            vec![Delta::AddNode {
                label: sym("account"),
            }]
            .into(),
        )
        .unwrap_err();
    assert_eq!(err.server_code(), Some(code::SHUTTING_DOWN));

    // Shutdown is idempotent: a second request (same surviving
    // connection) reports the same final epoch instead of failing.
    assert_eq!(survivor.shutdown().unwrap(), final_epoch);
}

/// Four connections loop single-delta `apply`s while a fifth sends
/// `shutdown` once epoch 1 is published. Every write either lands — and
/// then in the final epoch — or is refused as `shutting-down`; none
/// hangs, and none lands after the final epoch is fixed.
#[test]
fn applies_racing_a_shutdown_land_or_are_refused() {
    let spec = "mixed:honest=10,plants=1,seed=53";
    let (daemon_graph, daemon_sigma) = workload::load(spec).unwrap();
    let (mut mirror, sigma) = workload::load(spec).unwrap();
    let handle = spawn(daemon_graph, daemon_sigma, &DaemonConfig::default()).unwrap();
    let addr = handle.addr();
    let connect = || {
        let client = Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        client
    };
    let nodes: Vec<NodeId> = mirror.nodes().take(4).collect();
    let deadline = Instant::now() + Duration::from_secs(30);

    let mut closer = connect();
    let (mut landed, final_epoch) = thread::scope(|s| {
        let writers: Vec<_> = nodes
            .iter()
            .map(|&node| {
                let mut client = connect();
                // Served once, so accepted: a connection still in the
                // listen backlog when the listener closes is reset.
                client.health().unwrap();
                s.spawn(move || {
                    // Writers own disjoint nodes, so their batches commute.
                    let mut landed = Vec::new();
                    for round in 0i64.. {
                        assert!(Instant::now() < deadline, "writes never refused");
                        let delta = Delta::SetAttr {
                            node,
                            attr: sym("bio"),
                            value: Value::from(round),
                        };
                        match client.apply(vec![delta.clone()].into()) {
                            Ok(reply) => landed.push((reply.epoch, delta)),
                            Err(e) if e.server_code() == Some(code::SHUTTING_DOWN) => break,
                            Err(e) => panic!("neither ok nor shutting-down: {e}"),
                        }
                    }
                    landed
                })
            })
            .collect();
        while closer.health().unwrap().epoch < 1 {
            assert!(Instant::now() < deadline, "no write ever landed");
            thread::yield_now();
        }
        let final_epoch = closer.shutdown().unwrap();
        let landed: Vec<(u64, Delta)> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        (landed, final_epoch)
    });

    landed.sort_by_key(|(epoch, _)| *epoch);
    let epochs: Vec<u64> = landed.iter().map(|(epoch, _)| *epoch).collect();
    let expected: Vec<u64> = (1..=final_epoch).collect();
    assert_eq!(epochs, expected, "each landed write is one epoch ≤ final");
    assert_eq!(handle.join(), final_epoch);

    for (_, delta) in &landed {
        mirror.apply_delta(delta);
    }
    let report = closer.report().unwrap();
    assert_eq!(report.epoch, final_epoch);
    assert_eq!(
        wire_witnesses(&report.violations),
        witnesses(&validate(&mirror, &sigma, None))
    );
}

#[test]
fn in_process_stop_matches_the_wire_path() {
    let (g, sigma) = workload::load("random:nodes=30,rules=1,seed=52").unwrap();
    let handle = spawn(g, sigma, &DaemonConfig::default()).unwrap();
    let addr = handle.addr();

    let mut client = Client::connect(addr).unwrap();
    client
        .apply(
            vec![Delta::AddNode {
                label: sym("entity"),
            }]
            .into(),
        )
        .unwrap();

    let final_epoch = handle.stop();
    assert_eq!(final_epoch, 1);
    assert_eq!(handle.join(), 1);
    assert!(TcpStream::connect(addr).is_err());

    // The surviving connection still queries; applies are refused.
    assert_eq!(client.is_satisfied().unwrap().0, 1);
    assert!(matches!(
        client.apply(
            vec![Delta::AddNode {
                label: sym("entity")
            }]
            .into()
        ),
        Err(ClientError::Server { .. })
    ));
}
