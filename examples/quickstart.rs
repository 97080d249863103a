//! Quickstart: the five-minute tour of the library.
//!
//! Build a tiny knowledge base, define a GFD and a GKey, validate, chase,
//! and check an implication — everything the paper's abstract promises,
//! on one page.
//!
//! Run with `cargo run --example quickstart`.

use ged_repro::prelude::*;

fn main() {
    // 1. A property graph (Section 2): schemaless, labelled, attributed.
    let mut b = GraphBuilder::new();
    b.triple(("tony", "person"), "create", ("gb", "product"));
    b.attr("tony", "type", "psychologist");
    b.attr("gb", "type", "video game");
    b.node("a1", "album");
    b.node("a2", "album");
    b.attr("a1", "title", "Bleach").attr("a1", "release", 1989);
    b.attr("a2", "title", "Bleach").attr("a2", "release", 1989);
    let (graph, names) = b.build_with_names();
    println!("graph: {graph}");

    // 2. A GFD (Example 3, φ1): video games are created by programmers.
    let q1 = parse_pattern("person(x) -[create]-> product(y)").unwrap();
    let x = q1.var_by_name("x").unwrap();
    let y = q1.var_by_name("y").unwrap();
    let phi1 = Ged::new(
        "φ1",
        q1,
        vec![Literal::constant(y, sym("type"), "video game")],
        vec![Literal::constant(x, sym("type"), "programmer")],
    );

    // 3. A GKey (Example 3, ψ2): albums are identified by title + release.
    let base = parse_pattern("album(x)").unwrap();
    let psi2 = Ged::gkey("ψ2", &base, Var(0), |_q, orig, copies| {
        vec![
            Literal::vars(orig[0], sym("title"), copies[0], sym("title")),
            Literal::vars(orig[0], sym("release"), copies[0], sym("release")),
        ]
    });
    println!("{phi1}");
    println!("{psi2}");

    // 4. Validation (Section 5.3): find the violations.
    // Each GED is checked in its compiled form, `Rule`; the chase and
    // the reasoning procedures take the GEDs themselves.
    let sigma = vec![phi1, psi2];
    let served: Vec<Rule> = sigma.iter().cloned().map(Rule::from).collect();
    let report = validate(&graph, &served, None);
    println!(
        "validation: satisfied = {}, violated rules = {:?}",
        report.satisfied(),
        report.violated_names()
    );

    // 5. The chase (Section 4): enforce the key — the duplicate albums
    // merge into one entity.
    match chase(&graph, &sigma[1..]) {
        ChaseResult::Consistent {
            eq,
            coercion,
            stats,
            ..
        } => {
            println!(
                "chase: {} steps (bound {}), a1 == a2: {}, graph now has {} nodes",
                stats.steps,
                stats.length_bound,
                eq.node_eq(names["a1"], names["a2"]),
                coercion.graph.node_count()
            );
        }
        ChaseResult::Inconsistent { conflict, .. } => {
            println!("chase ran into a conflict: {conflict}");
        }
    }

    // 6. Implication (Section 5.2): the title+release key implies the
    // weaker title+release+genre key.
    let weaker = Ged::gkey("ψ2+", &base, Var(0), |_q, orig, copies| {
        vec![
            Literal::vars(orig[0], sym("title"), copies[0], sym("title")),
            Literal::vars(orig[0], sym("release"), copies[0], sym("release")),
            Literal::vars(orig[0], sym("genre"), copies[0], sym("genre")),
        ]
    });
    println!("ψ2 ⊨ ψ2+: {}", implies(&sigma[1..], &weaker));

    // 7. Satisfiability (Section 5.1): the rule set has a model — built
    // explicitly.
    let model = build_model(&sigma).expect("Σ is satisfiable");
    println!(
        "model of Σ: {model} (is_model = {})",
        is_model(&model, &served)
    );
}
