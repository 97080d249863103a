//! The incremental engine over a GDC workload.
//!
//! GDCs (Section 7.1) extend GEDs with built-in predicates `<, >, ≤, ≥, ≠`
//! over the dense order of constants. Compiled into the one rule type
//! `Rule`, as every GED is, they are served by the same engine: the
//! delta-driven, output-sensitive `IncrementalValidator` maintains
//! their violation set exactly as it does for plain GEDs — same store,
//! same affected-area recomputation, same seeding.
//!
//! This example drives the social-network age workload from
//! `ged_datagen::gdc` through a stream of updates and ends with a
//! side-by-side timing of incremental maintenance vs. full revalidation.
//!
//! Run with `cargo run --release --example gdc_incremental`.

use ged_datagen::gdc::social_gdcs;
use ged_datagen::social::SocialConfig;
use ged_repro::prelude::*;
use std::time::Instant;

fn main() {
    // 1. A social graph where every account carries an `age`, with three
    //    planted COPPA violations (age < 13), under the dense-order GDCs
    //    `account(x)(x.age < 13 → false)` and `account(x)(x.age > 120 → false)`.
    let cfg = SocialConfig {
        n_honest: 200,
        ..Default::default()
    };
    let w = social_gdcs(&cfg, 3, 42);
    let sigma = w.sigma;
    println!(
        "graph: {} nodes; Σ = {:?} (total size {})",
        w.graph.node_count(),
        sigma.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
        sigma.iter().map(Rule::size).sum::<usize>(),
    );

    // 2. Seed the incremental validator — one full validation pass,
    //    then the store is maintained under deltas.
    let graph = w.graph.clone();
    let mut v = IncrementalValidator::new(w.graph, sigma.clone());
    println!(
        "initial:   {} violation(s) (planted {})",
        v.violation_count(),
        w.planted
    );
    for viol in &v.report().violations {
        println!(
            "  {} at {:?} — {}",
            viol.ged_name, viol.assignment, viol.kind
        );
    }

    // 3. Repair the planted violations through the engine: every underage
    //    account has its age bumped to 21. Each write recomputes only the
    //    affected area (here: the one account node).
    let age = sym("age");
    let underage: Vec<NodeId> = v
        .graph()
        .nodes()
        .filter(|&n| {
            v.graph().label(n) == sym("account")
                && v.graph().attr(n, age).is_some_and(|a| *a < Value::from(13))
        })
        .collect();
    for n in underage {
        let stats = v.apply(&Delta::SetAttr {
            node: n,
            attr: age,
            value: Value::from(21),
        });
        println!(
            "fix {n:?}:  removed {}, {} violation(s) left",
            stats.violations_removed,
            v.violation_count()
        );
    }
    assert!(v.is_satisfied());

    // 4. Side-by-side: a burst of age updates maintained incrementally vs
    //    full revalidation after every delta.
    let accounts: Vec<NodeId> = v
        .graph()
        .nodes()
        .filter(|&n| v.graph().label(n) == sym("account"))
        .collect();
    let deltas: Vec<Delta> = (0..200)
        .map(|i| Delta::SetAttr {
            node: accounts[(i * 31) % accounts.len()],
            attr: age,
            value: Value::from((i % 40) as i64),
        })
        .collect();

    let t0 = Instant::now();
    for d in &deltas {
        v.apply(d);
    }
    let d_inc = t0.elapsed();
    let incremental_violations = v.violation_count();

    let mut g = graph;
    let t0 = Instant::now();
    let mut full_violations = 0;
    for d in &deltas {
        g.apply_delta(d);
        full_violations = validate(&g, &sigma, None).total_violations();
    }
    let d_full = t0.elapsed();

    // The burst replays the same writes on both sides; the final counts
    // differ only by the step-3 repairs, which the full side never saw on
    // the planted accounts it still carries.
    println!(
        "\n{} deltas: incremental {:?} vs full-revalidation {:?} ({:.1}x)",
        deltas.len(),
        d_inc,
        d_full,
        d_full.as_secs_f64() / d_inc.as_secs_f64().max(1e-12)
    );
    println!(
        "final violations: incremental {incremental_violations}, full-replay {full_violations}"
    );
}
