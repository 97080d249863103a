//! Linting a constraint set before deployment.
//!
//! The `ged-analysis` crate turns the paper's Section 5 decision
//! procedures (satisfiability and implication via the chase) into a
//! deployment gate: `analyze(&sigma)` lints a Σ structurally and
//! semantically, and `IncrementalValidator::with_analysis` refuses an
//! inconsistent Σ outright and prunes provably redundant rules before
//! they burn seeding and delta-path time.
//!
//! This example walks both paths: first a Σ with a planted
//! contradiction (two unconditional rules forcing `x.plan` to two
//! different constants — no nonempty graph can satisfy both), then a
//! sloppy-but-consistent Σ with an implied rule, deployed pruned.
//!
//! Run with `cargo run --release --example analyze_sigma`.

use ged_repro::prelude::*;

fn q1() -> Pattern {
    parse_pattern("user(x)").unwrap()
}

fn q2() -> Pattern {
    parse_pattern("user(x) -[follows]-> user(y)").unwrap()
}

fn main() {
    // -- Part 1: an inconsistent Σ is rejected at deployment ------------
    //
    // Two unconditional rules force every user's `plan` to "free" AND to
    // "pro": the chase of the canonical graph derives a conflict, so the
    // analyzer reports an Error and `with_analysis` refuses to build.
    let contradictory: Vec<Ged> = vec![
        Ged::new(
            "plan:default-free",
            q1(),
            vec![],
            vec![Literal::constant(Var(0), sym("plan"), "free")],
        ),
        Ged::new(
            "plan:default-pro",
            q1(),
            vec![],
            vec![Literal::constant(Var(0), sym("plan"), "pro")],
        ),
    ];
    let report = analyze(&contradictory);
    println!("-- analyzing the contradictory Σ --");
    println!("{report}");

    let mut g = Graph::new();
    g.add_node(sym("user"));
    match IncrementalValidator::with_analysis(g, contradictory) {
        Ok(_) => unreachable!("an unsatisfiable Σ must not deploy"),
        Err(rejected) => println!(
            "deployment rejected: {} error(s), as it should be\n",
            rejected.count(Severity::Error)
        ),
    }

    // -- Part 2: a redundant Σ deploys pruned ---------------------------
    //
    // Three rules: watchers get flagged (0), flagged users get reviewed
    // (1), and the transitive composition of the two (2) — implied, so
    // the chase-based minimization proves it prunable.
    let redundant: Vec<Ged> = vec![
        Ged::new(
            "watch:flag",
            q2(),
            vec![Literal::constant(Var(0), sym("status"), "suspect")],
            vec![Literal::constant(Var(1), sym("flagged"), 1)],
        ),
        Ged::new(
            "flag:review",
            q2(),
            vec![Literal::constant(Var(1), sym("flagged"), 1)],
            vec![Literal::constant(Var(1), sym("review"), 1)],
        ),
        Ged::new(
            "watch:review-transitive",
            q2(),
            vec![Literal::constant(Var(0), sym("status"), "suspect")],
            vec![Literal::constant(Var(1), sym("review"), 1)],
        ),
    ];
    println!("-- analyzing the redundant Σ --");
    println!("{}", analyze(&redundant));

    // A small graph with one violation of the live rule pair.
    let mut g = Graph::new();
    let a = g.add_node(sym("user"));
    let b = g.add_node(sym("user"));
    g.add_edge(a, sym("follows"), b);
    g.set_attr(a, sym("status"), "suspect");

    let v = IncrementalValidator::with_analysis(g, redundant).expect("consistent Σ deploys");
    let deploy = v.analysis().expect("built via with_analysis");
    println!(
        "deployed {} rule(s), pruned {}:",
        v.sigma().len(),
        deploy.pruned.len()
    );
    for p in &deploy.pruned {
        println!("  dropped #{} {} ({})", p.index, p.name, p.why.slug());
    }
    println!(
        "violations against the pruned Σ: {} (satisfied: {})",
        v.violation_count(),
        v.is_satisfied()
    );

    // The analysis record travels with the validator; the JSON rendering
    // is stable for dashboards, like MetricsSnapshot.
    println!("\n-- report as JSON --\n{}", deploy.report.to_json());
}
