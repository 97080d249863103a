//! Album/artist generator (substitute for the music knowledge base of
//! Example 1(3); see DESIGN.md "Substitutions").
//!
//! Generates albums linked to their primary artists (`album -by-> artist`)
//! and plants duplicate pairs that only the *recursive* keys ψ1/ψ3 can
//! resolve: two album nodes share a title, their artists share a name, and
//! the duplication can be resolved only by the ψ1 ⇄ ψ3 fixpoint seeded by
//! a ψ2 match (title + release year). Running the chase with {ψ1, ψ2, ψ3}
//! merges each duplicate cluster into one entity — the entity-resolution
//! experiment EXP-EX1-3.

use ged_graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct MusicConfig {
    /// Distinct (artist, album) clean pairs.
    pub n_clean: usize,
    /// Duplicate clusters to plant (each: 2 album nodes + 2 artist nodes
    /// that are really 1 + 1).
    pub n_dupes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MusicConfig {
    fn default() -> Self {
        MusicConfig {
            n_clean: 25,
            n_dupes: 5,
            seed: 3,
        }
    }
}

/// A generated music KB with ground truth duplicate clusters.
#[derive(Debug)]
pub struct MusicInstance {
    /// The graph.
    pub graph: Graph,
    /// For each planted cluster, the node names of the two album copies
    /// and the two artist copies: `(album_a, album_b, artist_a, artist_b)`.
    pub dupes: Vec<(String, String, String, String)>,
}

/// Generate per `cfg`.
pub fn generate(cfg: &MusicConfig) -> MusicInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = GraphBuilder::new();
    // Clean world: unique titles/names (the "Bleach" caveat of Example 1
    // is honoured by making clean titles distinct from dupe titles).
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
    // Planted duplicates: two copies of the same (album, artist) entity
    // extracted twice. Copies share title/release/name but are distinct
    // nodes; only the keys can merge them.
    let mut dupes = Vec::new();
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
        dupes.push((aa, ab, ra, rb));
    }
    MusicInstance {
        graph: b.build(),
        dupes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{music_keys, psi1, psi3};
    use ged_core::chase::{chase, ChaseResult};
    use ged_core::rule::Rule;
    use ged_core::satisfy::satisfies_all;

    fn keys() -> Vec<Rule> {
        music_keys().into_iter().map(Rule::from).collect()
    }

    #[test]
    fn generator_plants_resolvable_duplicates() {
        let cfg = MusicConfig::default();
        let inst = generate(&cfg);
        assert_eq!(inst.dupes.len(), cfg.n_dupes);
        // Duplicates violate the keys before resolution.
        assert!(!satisfies_all(&inst.graph, &keys()));
    }

    #[test]
    fn chase_resolves_every_planted_cluster() {
        let cfg = MusicConfig {
            n_clean: 10,
            n_dupes: 3,
            seed: 5,
        };
        let inst = generate(&cfg);
        let (g, names) = {
            // rebuild with names for ground-truth checking
            let i2 = generate(&cfg);
            let mut b = GraphBuilder::new();
            let _ = &i2;
            // regenerate via builder to get the name map
            (inst.graph.clone(), regenerate_names(&cfg, &mut b))
        };
        let result = chase(&g, &music_keys());
        let ChaseResult::Consistent { eq, coercion, .. } = result else {
            panic!("entity resolution chase must be valid");
        };
        for (aa, ab, ra, rb) in &inst.dupes {
            assert!(
                eq.node_eq(names[aa], names[ab]),
                "albums {aa} and {ab} merge"
            );
            assert!(
                eq.node_eq(names[ra], names[rb]),
                "artists {ra} and {rb} merge (recursive key ψ3)"
            );
        }
        // Each cluster shrinks the graph by 2 nodes.
        assert_eq!(
            coercion.graph.node_count(),
            g.node_count() - 2 * inst.dupes.len()
        );
        // The resolved graph satisfies the keys.
        assert!(satisfies_all(&coercion.graph, &keys()));
    }

    /// Rebuild the generator's name→id map (the generator is
    /// deterministic, so names map to the same ids).
    fn regenerate_names(
        cfg: &MusicConfig,
        b: &mut GraphBuilder,
    ) -> std::collections::HashMap<String, ged_graph::NodeId> {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
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
        let mut names = std::collections::HashMap::new();
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
            names.insert(aa.clone(), b.id(&aa));
            names.insert(ab.clone(), b.id(&ab));
            names.insert(ra.clone(), b.id(&ra));
            names.insert(rb.clone(), b.id(&rb));
        }
        names
    }

    #[test]
    fn clean_world_needs_no_merging() {
        let cfg = MusicConfig {
            n_clean: 8,
            n_dupes: 0,
            seed: 1,
        };
        let inst = generate(&cfg);
        assert!(satisfies_all(&inst.graph, &keys()));
        let ChaseResult::Consistent {
            coercion, stats, ..
        } = chase(&inst.graph, &music_keys())
        else {
            panic!()
        };
        assert_eq!(coercion.graph.node_count(), inst.graph.node_count());
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn psi2_alone_merges_albums_but_not_artists() {
        let cfg = MusicConfig {
            n_clean: 2,
            n_dupes: 1,
            seed: 9,
        };
        let inst = generate(&cfg);
        let ChaseResult::Consistent { coercion, .. } = chase(&inst.graph, &[crate::rules::psi2()])
        else {
            panic!()
        };
        // ψ2 merges the two album copies (title+release equal) but has no
        // rule to merge artists.
        assert_eq!(coercion.graph.node_count(), inst.graph.node_count() - 1);
        // Adding ψ3 lets the merge propagate to the artists.
        let ChaseResult::Consistent { coercion, .. } =
            chase(&inst.graph, &[crate::rules::psi2(), psi3()])
        else {
            panic!()
        };
        assert_eq!(coercion.graph.node_count(), inst.graph.node_count() - 2);
        let _ = psi1; // ψ1 exercised in chase_resolves_every_planted_cluster
    }
}
