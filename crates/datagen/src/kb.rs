//! Synthetic knowledge-base generator (substitute for Yago3/DBpedia in
//! Example 1(1); see DESIGN.md "Substitutions").
//!
//! Generates a typed entity graph — people, products, countries, cities,
//! species/classes — and *plants* a controlled number of each of the four
//! inconsistency kinds the paper quotes, recording ground truth so the
//! consistency-checking experiment can report precision/recall:
//!
//! 1. creator-type errors (ϕ1): a video game created by a non-programmer;
//! 2. two-capital errors (ϕ2): a country with two differently-named
//!    capitals;
//! 3. inheritance errors (ϕ3): an `is_a` child contradicting the parent's
//!    `can_fly`;
//! 4. child-and-parent errors (ϕ4): both `child` and `parent` edges
//!    between the same pair.

use ged_graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the generator.
#[derive(Debug, Clone)]
pub struct KbConfig {
    /// Clean person–product creation pairs.
    pub n_creations: usize,
    /// Clean country–capital pairs.
    pub n_countries: usize,
    /// Clean `is_a` species→class pairs.
    pub n_species: usize,
    /// Clean person–person parent relations.
    pub n_families: usize,
    /// Planted violations of each kind (ϕ1, ϕ2, ϕ3, ϕ4).
    pub planted: [usize; 4],
    /// RNG seed.
    pub seed: u64,
}

impl Default for KbConfig {
    fn default() -> Self {
        KbConfig {
            n_creations: 50,
            n_countries: 20,
            n_species: 30,
            n_families: 20,
            planted: [3, 2, 3, 2],
            seed: 7,
        }
    }
}

/// Ground truth about one planted violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planted {
    /// Which rule it violates: 1..=4 for ϕ1..ϕ4.
    pub rule: u8,
    /// A human-readable description of the planted error.
    pub description: String,
}

/// A generated knowledge base plus its ground truth.
#[derive(Debug)]
pub struct KbInstance {
    /// The graph.
    pub graph: Graph,
    /// The planted violations.
    pub planted: Vec<Planted>,
}

/// Generate a knowledge base per `cfg`.
pub fn generate(cfg: &KbConfig) -> KbInstance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = GraphBuilder::new();
    let mut planted = Vec::new();

    // Clean creations: programmers create video games, authors create
    // books.
    for i in 0..cfg.n_creations {
        let p = format!("person_{i}");
        let w = format!("work_{i}");
        let game = rng.random_bool(0.5);
        b.node(&p, "person");
        b.node(&w, "product");
        b.edge(&p, "create", &w);
        if game {
            b.attr(&p, "type", "programmer");
            b.attr(&w, "type", "video game");
        } else {
            b.attr(&p, "type", "author");
            b.attr(&w, "type", "book");
        }
    }
    // Planted ϕ1 violations: psychologists credited with video games.
    for i in 0..cfg.planted[0] {
        let p = format!("bad_creator_{i}");
        let w = format!("bad_game_{i}");
        b.node(&p, "person");
        b.node(&w, "product");
        b.edge(&p, "create", &w);
        b.attr(&p, "type", "psychologist");
        b.attr(&w, "type", "video game");
        planted.push(Planted {
            rule: 1,
            description: format!("{p} (psychologist) credited with {w}"),
        });
    }

    // Clean countries: one capital each.
    for i in 0..cfg.n_countries {
        let c = format!("country_{i}");
        let k = format!("capital_{i}");
        b.node(&c, "country");
        b.node(&k, "city");
        b.edge(&c, "capital", &k);
        b.attr(&k, "name", format!("City {i}"));
    }
    // Planted ϕ2: a second, differently named capital.
    for i in 0..cfg.planted[1] {
        let c = format!("twocap_country_{i}");
        let k1 = format!("twocap_a_{i}");
        let k2 = format!("twocap_b_{i}");
        b.node(&c, "country");
        b.node(&k1, "city");
        b.node(&k2, "city");
        b.edge(&c, "capital", &k1);
        b.edge(&c, "capital", &k2);
        b.attr(&k1, "name", format!("Alpha {i}"));
        b.attr(&k2, "name", format!("Beta {i}"));
        planted.push(Planted {
            rule: 2,
            description: format!("{c} has two capitals"),
        });
    }

    // Clean is_a: species inherit can_fly from their class.
    for i in 0..cfg.n_species {
        let s = format!("species_{i}");
        let c = format!("class_{i}");
        let f = rng.random_bool(0.5);
        b.node(&s, "species");
        b.node(&c, "class");
        b.edge(&s, "is_a", &c);
        b.attr(&c, "can_fly", f);
        b.attr(&s, "can_fly", f);
    }
    // Planted ϕ3: flightless members of flying classes.
    for i in 0..cfg.planted[2] {
        let s = format!("moa_{i}");
        let c = format!("birds_{i}");
        b.node(&s, "species");
        b.node(&c, "class");
        b.edge(&s, "is_a", &c);
        b.attr(&c, "can_fly", true);
        b.attr(&s, "can_fly", false);
        planted.push(Planted {
            rule: 3,
            description: format!("{s} contradicts {c}.can_fly"),
        });
    }

    // Clean families: parent edges only.
    for i in 0..cfg.n_families {
        let a = format!("parent_{i}");
        let ch = format!("kid_{i}");
        b.node(&a, "person");
        b.node(&ch, "person");
        b.edge(&ch, "child", &a);
    }
    // Planted ϕ4: both child and parent of the same person.
    for i in 0..cfg.planted[3] {
        let a = format!("sclater_{i}");
        let w = format!("william_{i}");
        b.node(&a, "person");
        b.node(&w, "person");
        b.edge(&a, "child", &w);
        b.edge(&a, "parent", &w);
        planted.push(Planted {
            rule: 4,
            description: format!("{a} is both child and parent of {w}"),
        });
    }

    KbInstance {
        graph: b.build(),
        planted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules;
    use ged_core::reason::validate;
    use ged_core::rule::Rule;

    fn kb_rules() -> Vec<Rule> {
        rules::kb_rules().into_iter().map(Rule::from).collect()
    }

    #[test]
    fn generator_is_deterministic() {
        let a = generate(&KbConfig::default());
        let b = generate(&KbConfig::default());
        assert_eq!(a.graph.node_count(), b.graph.node_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(a.planted, b.planted);
    }

    #[test]
    fn planted_counts_match_ground_truth() {
        let cfg = KbConfig {
            planted: [4, 3, 2, 1],
            ..KbConfig::default()
        };
        let inst = generate(&cfg);
        assert_eq!(inst.planted.len(), 10);
        for (rule, expect) in [(1u8, 4usize), (2, 3), (3, 2), (4, 1)] {
            assert_eq!(
                inst.planted.iter().filter(|p| p.rule == rule).count(),
                expect
            );
        }
    }

    #[test]
    fn validation_catches_exactly_the_planted_errors() {
        // Precision = recall = 1 in terms of per-rule violation detection:
        // each rule flags violations iff it has planted errors.
        let cfg = KbConfig {
            n_creations: 20,
            n_countries: 10,
            n_species: 10,
            n_families: 10,
            planted: [2, 1, 2, 1],
            seed: 42,
        };
        let inst = generate(&cfg);
        let report = validate(&inst.graph, &kb_rules(), None);
        assert!(!report.satisfied());
        // φ1: exactly the 2 planted bad creators.
        assert_eq!(report.per_ged[0].violation_count, 2);
        // φ2: each two-capital country yields 2 symmetric matches.
        assert_eq!(report.per_ged[1].violation_count, 2);
        // φ3: the planted moas (flightless members of flying classes).
        assert_eq!(report.per_ged[2].violation_count, 2);
        // φ4: the planted child-parent pairs.
        assert_eq!(report.per_ged[3].violation_count, 1);
    }

    #[test]
    fn clean_kb_validates() {
        let cfg = KbConfig {
            planted: [0, 0, 0, 0],
            ..KbConfig::default()
        };
        let inst = generate(&cfg);
        assert!(inst.planted.is_empty());
        let report = validate(&inst.graph, &kb_rules(), None);
        assert!(
            report.satisfied(),
            "violated: {:?}",
            report.violated_names()
        );
    }
}
