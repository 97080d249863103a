//! One validator, three constraint families.
//!
//! The paper's pitch is that GEDs, GDCs (Section 7.1), and GED∨
//! (Section 7.2) are *one* class of dependencies over one graph model.
//! `Rule` makes that literal: each rule — whatever its family — is
//! the same form, premises plus conclusion options (a GED or a GDC is one
//! conjunctive option, a GED∨ one option per disjunct; `gdc::forbidding`
//! and `disj::new` build the last two as `Rule`s), a heterogeneous Σ is
//! just `Vec<Rule>`, and a single
//! `IncrementalValidator` maintains the whole rule set under deltas with
//! one per-match check. Every violation reports the same kind of thing:
//! the positions of its rule's failed conclusion literals (`[0]` for the
//! GED here, both literals of the GDC's `false` pair, all three disjuncts
//! of the GED∨).
//!
//! Run with `cargo run --release --example mixed_constraints`.

use ged_repro::prelude::*;

fn main() {
    // One Σ, three families, no normalization:
    //   φ1 (GED):  a verified account is not fake;
    //   φ2 (GDC):  account ages obey the COPPA floor, age ≥ 13;
    //   φ3 (GED∨): the tier lives in the domain {free, pro, biz}.
    let q = parse_pattern("account(x)").unwrap();
    let x = Var(0);
    let sigma: Vec<Rule> = vec![
        Ged::new(
            "verified⇒real",
            q.clone(),
            vec![Literal::constant(x, sym("verified"), 1)],
            vec![Literal::constant(x, sym("is_fake"), 0)],
        )
        .into(),
        gdc::forbidding(
            "age≥13",
            q.clone(),
            vec![GdcLiteral::constant(x, sym("age"), Pred::Lt, 13)],
        ),
        disj::new(
            "tier-domain",
            q,
            vec![],
            ["free", "pro", "biz"]
                .iter()
                .map(|&d| Literal::constant(x, sym("tier"), d))
                .collect(),
        ),
    ];
    println!(
        "Σ = {:?} (mixed families, total size {})",
        sigma.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
        sigma.iter().map(Rule::size).sum::<usize>(),
    );

    // A tiny account graph with one violation per family.
    let mut b = GraphBuilder::new();
    for (name, verified, fake, age, tier) in [
        ("ada", 1, 0, 36, "pro"),
        ("bot", 1, 1, 28, "free"), // verified yet fake → violates φ1
        ("kid", 0, 0, 9, "free"),  // underage → violates φ2
        ("vip", 0, 0, 44, "gold"), // out-of-domain tier → violates φ3
    ] {
        b.node(name, "account");
        b.attr(name, "verified", verified);
        b.attr(name, "is_fake", fake);
        b.attr(name, "age", age);
        b.attr(name, "tier", tier);
    }
    let (graph, names) = b.build_with_names();

    let mut v = IncrementalValidator::new(graph, sigma);
    println!("\ninitial: {} violation(s)", v.violation_count());
    for viol in &v.report().violations {
        println!(
            "  {} at {:?} — {}",
            viol.ged_name, viol.assignment, viol.kind
        );
    }

    // Repair each family's violation through the same delta path.
    for (node, attr, value) in [
        (names["bot"], "is_fake", Value::from(0)),
        (names["kid"], "age", Value::from(13)),
        (names["vip"], "tier", Value::from("biz")),
    ] {
        let stats = v.apply(&Delta::SetAttr {
            node,
            attr: sym(attr),
            value,
        });
        println!("set {attr}: {stats} → {} left", v.violation_count());
    }
    assert!(v.is_satisfied());
    println!("\nG ⊨ Σ — one engine, three constraint families.");
}
