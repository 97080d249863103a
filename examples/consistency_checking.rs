//! Consistency checking (Example 1(1) / Example 3): run φ1–φ4 on a
//! synthetic knowledge base with planted Yago3/DBpedia-style
//! inconsistencies, and report detection quality against ground truth.
//!
//! Run with `cargo run --example consistency_checking`.

use ged_datagen::kb::{generate, KbConfig};
use ged_datagen::rules;
use ged_repro::prelude::*;

fn main() {
    let cfg = KbConfig {
        n_creations: 200,
        n_countries: 80,
        n_species: 120,
        n_families: 80,
        planted: [5, 4, 6, 3],
        seed: 2026,
    };
    let inst = generate(&cfg);
    println!(
        "knowledge base: {} nodes, {} edges, {} planted inconsistencies",
        inst.graph.node_count(),
        inst.graph.edge_count(),
        inst.planted.len()
    );
    for p in &inst.planted {
        println!("  planted (ϕ{}): {}", p.rule, p.description);
    }

    let sigma = rules::kb_rules();
    println!("\nrules:");
    for g in &sigma {
        println!("  {g}");
    }

    let report = validate(&inst.graph, &sigma, None);
    println!("\nvalidation report:");
    // φ2 yields two symmetric matches per two-capital country.
    let expected = [
        cfg.planted[0],
        cfg.planted[1] * 2,
        cfg.planted[2],
        cfg.planted[3],
    ];
    let mut all_exact = true;
    for (i, r) in report.per_ged.iter().enumerate() {
        let exact = r.violation_count == expected[i];
        all_exact &= exact;
        println!(
            "  {}: {} violation witnesses (expected {}) {}",
            r.name,
            r.violation_count,
            expected[i],
            if exact { "✓" } else { "✗" }
        );
    }
    println!(
        "\ndetection: {} — every planted error caught, no clean data flagged",
        if all_exact { "exact" } else { "MISMATCH" }
    );

    // Show one concrete witness per rule, like a data-quality report.
    println!("\nsample witnesses:");
    for name in ["φ1", "φ2", "φ3", "φ4"] {
        if let Some(v) = report.violations.iter().find(|v| v.ged_name == name) {
            let nodes: Vec<String> = v
                .assignment
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            println!(
                "  {name}: match {:?}, failed literals: {}",
                nodes,
                v.kind.positions().len()
            );
        }
    }
}
