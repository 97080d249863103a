//! A full daemon session: spawn `gedd` in-process on an ephemeral port,
//! then drive the whole wire-protocol surface as a client —
//! health → report → apply → query → metrics → shutdown — the same loop
//! `gedctl` runs from the command line.
//!
//! The daemon owns an `IncrementalValidator<SigmaConstraint>` behind one
//! lock that each `apply` takes on its connection's own thread; every
//! query here is answered from a snapshot-isolated `ReadView` on that
//! thread without the lock, so the
//! epochs printed below are exact batch boundaries, never torn states.
//!
//! Run with `cargo run --release --example daemon_session`.

use ged_daemon::{spawn, workload, DaemonConfig};
use ged_proto::Client;
use ged_repro::prelude::*;

fn main() {
    // The social mixed-family workload: four rules (GED + GDC + GED∨),
    // one violation planted per rule.
    let (graph, sigma) = workload::load("mixed:honest=20,plants=1,seed=7").unwrap();
    let handle = spawn(graph, sigma, &DaemonConfig::default()).expect("spawn gedd");
    println!("gedd listening on {}", handle.addr());

    let mut client = Client::connect(handle.addr()).expect("connect");

    // -- health: who is on the other end? -------------------------------
    let health = client.health().unwrap();
    println!(
        "health: protocol {}, epoch {}, {} rules, {} readers",
        health.protocol, health.epoch, health.rules, health.readers
    );

    // -- report: the planted violations, per rule -----------------------
    let report = client.report().unwrap();
    println!(
        "epoch {}: {} violations across {} rules",
        report.epoch,
        report.violations.len(),
        report.rules.len()
    );
    for (name, count, _satisfied) in &report.rules {
        println!("  {name}: {count}");
    }

    // -- apply: repair one violation, plant another ---------------------
    // The age≥13 rule's planted violation is an underage account; we
    // also add a fresh verified-but-fake account (a new violation of
    // the verified⇒real rule) in the same batch.
    let underage: Vec<NodeId> = report
        .violations
        .iter()
        .filter(|v| v.rule == "age≥13")
        .flat_map(|v| v.assignment.iter().copied())
        .collect();
    let mut batch = DeltaSet::new();
    for node in underage {
        batch.push(Delta::SetAttr {
            node,
            attr: sym("age"),
            value: Value::from(21i64),
        });
    }
    batch.push(Delta::AddNode {
        label: sym("account"),
    });
    let reply = client.apply(batch).unwrap();
    println!(
        "apply: epoch {} ({} deltas, -{} +{} violations, {} live)",
        reply.epoch, reply.applied, reply.removed, reply.added, reply.violations
    );

    // The created node's id comes back in the reply via `created`; the
    // follow-up batch decorates it into a fresh violation.
    let (epoch, satisfied, live) = client.is_satisfied().unwrap();
    println!("status: epoch {epoch}, satisfied={satisfied}, {live} violations");

    // -- metrics: the engine's own phase timers over the wire -----------
    let metrics = client.metrics().unwrap();
    let applies = metrics.get_u64("deltas_applied").unwrap_or(0);
    println!("metrics: {applies} deltas applied daemon-side");

    // -- shutdown: retire the validator, stop ---------------------------
    let final_epoch = client.shutdown().unwrap();
    let joined = handle.join();
    assert_eq!(final_epoch, joined);
    println!("shutdown: final epoch {final_epoch}");
}
