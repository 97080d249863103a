//! Incremental validation over an evolving graph.
//!
//! A knowledge base ingests a stream of updates; the incremental engine
//! maintains the violation set of `G ⊨ Σ` delta by delta, recomputing only
//! the affected area instead of re-running full validation. The example
//! ends with a side-by-side timing of incremental maintenance vs. full
//! revalidation over the same update stream.
//!
//! Run with `cargo run --release --example incremental_validation`.

use ged_repro::obs::fmt_ns;
use ged_repro::prelude::*;
use std::time::Instant;

fn main() {
    // 1. A tiny KB with the Ghetto Blaster inconsistency (Example 1(1)).
    let mut b = GraphBuilder::new();
    b.triple(("tony", "person"), "create", ("gb", "product"));
    b.attr("tony", "type", "psychologist");
    b.attr("gb", "type", "video game");
    let (graph, names) = b.build_with_names();

    // φ1: video games are created by programmers.
    let q1 = parse_pattern("person(x) -[create]-> product(y)").unwrap();
    let x = q1.var_by_name("x").unwrap();
    let y = q1.var_by_name("y").unwrap();
    let phi1 = Ged::new(
        "φ1",
        q1,
        vec![Literal::constant(y, sym("type"), "video game")],
        vec![Literal::constant(x, sym("type"), "programmer")],
    );

    // 2. Seed the incremental validator: one full validation, then the
    //    store is maintained under deltas.
    let mut v = IncrementalValidator::new(graph, vec![phi1.into()]);
    let seeding = v.metrics();
    let took = seeding
        .phase(Phase::Seeding)
        .expect("construction is timed");
    println!(
        "seeding:   {} match(es) in {}",
        seeding.matches_found(),
        fmt_ns(took.sum_ns)
    );
    println!("initial:   {} violation(s)", v.violation_count());
    for viol in &v.report().violations {
        println!("  {} at {:?}", viol.ged_name, viol.assignment);
    }

    // 3. Stream updates through the engine.
    let tony = names["tony"];
    let stats = v.apply(&Delta::SetAttr {
        node: tony,
        attr: sym("type"),
        value: Value::from("programmer"),
    });
    println!("fix tony:  {stats} → {} violation(s)", v.violation_count());

    // A new, conforming creator/product pair arrives as one batch; the
    // apply stats hand back the fresh node ids.
    let created: DeltaSet = vec![
        Delta::AddNode {
            label: sym("person"),
        },
        Delta::AddNode {
            label: sym("product"),
        },
    ]
    .into();
    let stats = v.apply_all(&created);
    let (gibbo, product) = (stats.created[0], stats.created[1]);
    let batch: DeltaSet = vec![
        Delta::AddEdge {
            src: gibbo,
            label: sym("create"),
            dst: product,
        },
        Delta::SetAttr {
            node: product,
            attr: sym("type"),
            value: Value::from("video game"),
        },
        Delta::SetAttr {
            node: gibbo,
            attr: sym("type"),
            value: Value::from("programmer"),
        },
    ]
    .into();
    v.apply_all(&batch);
    println!("add gibbo: {} violation(s)", v.violation_count());

    // Breaking news: gibbo is a psychologist after all → violation returns.
    v.apply(&Delta::SetAttr {
        node: gibbo,
        attr: sym("type"),
        value: Value::from("psychologist"),
    });
    println!("re-type:   {} violation(s)", v.violation_count());
    assert!(!v.is_satisfied());

    // 4. Scale: incremental vs. full revalidation on a datagen workload.
    timing_comparison();
}

/// Maintain violations over 200 random attribute flips on a 2k-node graph,
/// once incrementally and once by full revalidation after every delta.
fn timing_comparison() {
    use ged_repro::datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};

    let cfg = RandomGraphConfig {
        n_nodes: 2_000,
        n_edges: 6_000,
        seed: 23,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let key = plant_key_violations(&mut g, "entity", 40);
    let sigma = vec![Rule::from(key)];
    let nodes: Vec<NodeId> = g.nodes().collect();

    let deltas: Vec<Delta> = (0..200)
        .map(|i| Delta::SetAttr {
            node: nodes[(i * 37) % nodes.len()],
            attr: sym("key"),
            value: Value::from(format!("dup{}", i % 25)),
        })
        .collect();

    // Incremental maintenance.
    let mut v = IncrementalValidator::new(g.clone(), sigma.clone());
    let t0 = Instant::now();
    for d in &deltas {
        v.apply(d);
    }
    let incremental = t0.elapsed();

    // Full revalidation after every delta.
    let t0 = Instant::now();
    let mut full_violations = 0;
    for d in &deltas {
        g.apply_delta(d);
        full_violations = validate(&g, &sigma, None).total_violations();
    }
    let full = t0.elapsed();

    assert_eq!(v.violation_count(), full_violations, "engines agree");
    println!("\n200 deltas on a 2k-node graph:");
    println!("  incremental maintenance: {incremental:>10.2?}");
    println!("  full revalidation:       {full:>10.2?}");
    println!(
        "  speedup:                 {:>9.1}x",
        full.as_secs_f64() / incremental.as_secs_f64().max(1e-9)
    );
}
