//! Entity resolution (Example 1(3) / ψ1–ψ3): resolve duplicate album and
//! artist entities with the *recursively defined* keys, via the chase.
//!
//! The interesting bit is the mutual recursion: to identify two albums,
//! ψ1 needs their artists identified; to identify two artists, ψ3 needs
//! one of their albums identified. ψ2 (title + release) provides the base
//! case, and the chase computes the fixpoint (Section 4).
//!
//! Run with `cargo run --example entity_resolution`.

use ged_datagen::music::{generate, MusicConfig};
use ged_datagen::rules;
use ged_repro::prelude::*;

fn main() {
    let cfg = MusicConfig {
        n_clean: 60,
        n_dupes: 8,
        seed: 5,
    };
    let inst = generate(&cfg);
    println!(
        "music KB: {} nodes ({} duplicate clusters planted)",
        inst.graph.node_count(),
        inst.dupes.len()
    );

    let keys = rules::music_keys();
    for k in &keys {
        println!("  {k}");
    }

    // The raw graph violates the keys, each checked in its compiled form.
    let served: Vec<Rule> = keys.iter().cloned().map(Rule::from).collect();
    let report = validate(&inst.graph, &served, Some(3));
    println!(
        "\nbefore resolution: satisfied = {}, violated = {:?}",
        report.satisfied(),
        report.violated_names()
    );

    // Entity resolution = chase to fixpoint.
    match chase(&inst.graph, &keys) {
        ChaseResult::Consistent {
            coercion,
            stats,
            eq,
            ..
        } => {
            println!(
                "\nchase: {} steps in {} rounds ({} matches examined); bounds held: {}",
                stats.steps,
                stats.rounds,
                stats.matches_examined,
                stats.within_bounds()
            );
            println!(
                "resolved graph: {} nodes (expected {})",
                coercion.graph.node_count(),
                inst.graph.node_count() - 2 * inst.dupes.len()
            );
            // The resolved graph satisfies the keys.
            let after = validate(&coercion.graph, &served, Some(1));
            println!("after resolution: satisfied = {}", after.satisfied());
            // Demonstrate the recursion: pick the first cluster and show
            // that BOTH the albums and the artists merged.
            let (g2, names) = rebuild_with_names(&cfg);
            let _ = g2;
            if let Some((aa, ab, ra, rb)) = inst.dupes.first() {
                println!(
                    "cluster 0: albums merged = {}, artists merged = {} (ψ1 ⇄ ψ3 recursion)",
                    eq.node_eq(names[aa], names[ab]),
                    eq.node_eq(names[ra], names[rb]),
                );
            }
        }
        ChaseResult::Inconsistent { conflict, .. } => {
            println!("resolution failed with a conflict: {conflict}");
        }
    }
}

/// The generator is deterministic; rebuild it through a GraphBuilder to
/// recover the name → NodeId map for ground-truth reporting.
fn rebuild_with_names(cfg: &MusicConfig) -> (Graph, std::collections::HashMap<String, NodeId>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = GraphBuilder::new();
    for i in 0..cfg.n_clean {
        let album = format!("album_{i}");
        let artist = format!("artist_{i}");
        b.node(&album, "album");
        b.node(&artist, "artist");
        b.edge(&album, "by", &artist);
        b.attr(&album, "title", format!("Title {i}"));
        b.attr(&album, "release", 1960 + (rng.random_range(0..60)));
        b.attr(&artist, "name", format!("Artist {i}"));
    }
    for i in 0..cfg.n_dupes {
        let (aa, ab) = (format!("dupe_album_{i}a"), format!("dupe_album_{i}b"));
        let (ra, rb) = (format!("dupe_artist_{i}a"), format!("dupe_artist_{i}b"));
        for (album, artist) in [(&aa, &ra), (&ab, &rb)] {
            b.node(album, "album");
            b.node(artist, "artist");
            b.edge(album, "by", artist);
            b.attr(album, "title", format!("Dupe Title {i}"));
            b.attr(album, "release", 1990 + i as i64);
            b.attr(artist, "name", format!("Dupe Artist {i}"));
        }
    }
    b.build_with_names()
}
