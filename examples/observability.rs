//! Inspecting a running validator.
//!
//! The engine instruments itself end to end: phase timers around every
//! pipeline stage (seeding, delta apply, witness drop, affected-area
//! materialisation, anchored re-enumeration, store insert), per-rule
//! match-attempt/match-found counters from the matcher hot loop, store
//! gauges, and a bounded trace ring of recent apply batches. All of it is
//! aggregated on demand by `IncrementalValidator::metrics()` — the engine
//! itself never blocks on a metrics read.
//!
//! Run with `cargo run --release --example observability`.

use ged_repro::datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
use ged_repro::obs::fmt_ns;
use ged_repro::prelude::*;

fn main() {
    // A 1k-node workload with planted key violations, plus a GDC cap so
    // the per-rule attribution has two rules to split cost across.
    let cfg = RandomGraphConfig {
        n_nodes: 1_000,
        n_edges: 3_000,
        seed: 7,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let key = plant_key_violations(&mut g, "entity", 20);
    let q = parse_pattern("entity(x)").unwrap();
    let cap = gdc::forbidding(
        "degree-cap",
        q,
        vec![GdcLiteral::constant(Var(0), sym("weight"), Pred::Gt, 1_000)],
    );
    let sigma: Vec<Rule> = vec![key.into(), cap];

    let mut v = IncrementalValidator::new(g, sigma);
    let seeded = v.metrics();
    let seeding = seeded.phase(Phase::Seeding).expect("construction is timed");
    println!(
        "seeded: {} violation(s) in {}, {} match attempt(s) over {} work unit(s)",
        v.violation_count(),
        fmt_ns(seeding.sum_ns),
        seeded.match_attempts(),
        seeded.unit_latency.count
    );

    // Stream a few delta batches through the engine.
    let nodes: Vec<NodeId> = v.graph().nodes().collect();
    for batch in 0..5 {
        let deltas: DeltaSet = (0..40)
            .map(|i| Delta::SetAttr {
                node: nodes[(batch * 511 + i * 37) % nodes.len()],
                attr: sym("key"),
                value: Value::from(format!("dup{}", i % 9)),
            })
            .collect::<Vec<_>>()
            .into();
        let stats = v.apply_all(&deltas);
        println!("batch {batch}: {stats}");
    }

    // The human-readable snapshot: phase latencies (p50/p95/p99), per-rule
    // cost attribution, churn counters, store gauges.
    let snapshot = v.metrics();
    println!("\n{snapshot}");

    // The same snapshot as a JSON value (vendored, no dependencies):
    // query it in place, or print it — one line — for whatever collector
    // you already have.
    let json = snapshot.to_json();
    println!(
        "snapshot JSON is {} bytes; batches = {:?}, first phase row:",
        json.to_string().len(),
        json.get_u64("batches")
    );
    if let Some(row) = json.get_arr("phases").and_then(<[_]>::first) {
        println!("  {row}");
    }

    // The trace ring retains the recent apply batches (overwrite-oldest);
    // the snapshot carries them, and the same trace is dumped to stderr
    // if the maintenance path panics.
    println!(
        "\ntrace ring ({} batch(es) retained):",
        snapshot.trace.len()
    );
    for (batch_id, stats) in &snapshot.trace {
        println!("  batch {batch_id}: {stats}");
    }

    // Instrumentation is on by default and can be switched off — the
    // delta path then monomorphizes with the no-op recorder and reads no
    // clock, which is what `tests/perf_bars.rs` measures the overhead against.
    v.set_metrics_enabled(false);
    let frozen = v.metrics().batches;
    v.apply(&Delta::SetAttr {
        node: nodes[0],
        attr: sym("key"),
        value: Value::from("quiet"),
    });
    assert_eq!(v.metrics().batches, frozen, "disabled: nothing recorded");
    println!("\nmetrics disabled: batch count stays at {frozen}");
}
