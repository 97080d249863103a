//! Spam detection (Example 1(2) / φ5): iterate the fake-account rule to
//! fixpoint on a synthetic social network with a planted cascade.
//!
//! Run with `cargo run --example spam_detection`.

use ged_datagen::rules;
use ged_datagen::social::{generate, spam_cascade, SocialConfig};
use ged_repro::prelude::*;

fn main() {
    let cfg = SocialConfig {
        n_honest: 100,
        blogs_per_account: 3,
        chain_len: 6,
        k: 2,
        keyword: "v1agr4".into(),
        seed: 99,
    };
    let inst = generate(&cfg);
    println!(
        "social graph: {} nodes, {} edges; planted fake chain: {:?}",
        inst.graph.node_count(),
        inst.graph.edge_count(),
        inst.fake_chain
    );

    let rule = rules::phi5(cfg.k, &cfg.keyword);
    println!("\nrule: {rule}");

    // Before: only the seed is marked.
    let marked_before = count_fakes(&inst.graph);
    println!("\nconfirmed fake accounts before the cascade: {marked_before}");

    // Iterate validation → repair until φ5 is satisfied.
    let mut g = inst.graph.clone();
    let newly = spam_cascade(&mut g, cfg.k, &cfg.keyword);
    println!("cascade marked {newly} additional accounts");
    println!("fake accounts after the cascade: {}", count_fakes(&g));
    assert!(satisfies(&g, &rule.into()), "fixpoint: φ5 now satisfied");
    println!("φ5 satisfied at fixpoint: true");

    // Ground truth check: exactly the planted chain, nothing else.
    let expected = cfg.chain_len;
    let got = count_fakes(&g);
    println!(
        "ground truth: {} fake accounts expected, {} detected {}",
        expected,
        got,
        if expected == got { "✓" } else { "✗" }
    );

    // The homomorphism subtlety (Section 3): the k blog variables of Q5
    // may collapse onto one shared blog, so a higher k does not demand
    // more distinct shared blogs.
    let mut g2 = inst.graph.clone();
    let with_k4 = spam_cascade(&mut g2, 4, &cfg.keyword);
    println!(
        "\nhomomorphism semantics: φ5 with k = 4 still cascades ({} marks) — \
         the k shared-blog variables may all map to one blog",
        with_k4
    );
}

fn count_fakes(g: &Graph) -> usize {
    g.nodes()
        .filter(|&n| g.attr(n, sym("is_fake")) == Some(&Value::from(1)))
        .count()
}
