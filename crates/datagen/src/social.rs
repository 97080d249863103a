//! Social-network generator (substitute for the fake-account dataset of
//! Example 1(2) / \[14\]; see DESIGN.md "Substitutions").
//!
//! Produces accounts and blogs with `like` and `post` edges and plants a
//! *fake-account cascade*: a seed account is confirmed fake
//! (`is_fake = 1`); a chain of accounts shares `k` liked blogs with its
//! predecessor, and both ends post keyword-`c` blogs — so iterating φ5 to
//! fixpoint should label the entire chain fake (the spam-detection
//! example's repair loop).

use ged_graph::{Graph, NodeId, Symbol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SocialConfig {
    /// Honest accounts.
    pub n_honest: usize,
    /// Blogs per honest account.
    pub blogs_per_account: usize,
    /// Length of the planted fake chain (≥ 1; the first is the confirmed
    /// seed).
    pub chain_len: usize,
    /// Shared-blog count `k` of pattern Q5.
    pub k: usize,
    /// The peculiar keyword `c`.
    pub keyword: String,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            n_honest: 30,
            blogs_per_account: 3,
            chain_len: 4,
            k: 2,
            keyword: "v1agr4".into(),
            seed: 11,
        }
    }
}

/// A generated social graph: the names of the planted fake accounts (in
/// cascade order; index 0 is the confirmed seed).
#[derive(Debug)]
pub struct SocialInstance {
    /// The graph.
    pub graph: Graph,
    /// Account names of the planted chain, seed first.
    pub fake_chain: Vec<String>,
}

/// Generate a social graph per `cfg`, by id: honest account `i` is node
/// `i·(1+bpa)` and its blog `j` node `i·(1+bpa)+1+j` (`bpa` =
/// [`SocialConfig::blogs_per_account`]), then each chain account is
/// followed by its spam blog, then come the shared blogs — the order a
/// name-keyed build creates them in, with no name table.
pub fn generate(cfg: &SocialConfig) -> SocialInstance {
    assert!(cfg.chain_len >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut g = Graph::new();
    // Interned in the order a name-keyed build first meets them, so the
    // symbols — and each node's label-group order — are the same.
    let [account, is_fake, blog, keyword, post, like] =
        ["account", "is_fake", "blog", "keyword", "post", "like"].map(Symbol::new);
    let bpa = cfg.blogs_per_account;
    let account_id = |i: usize| NodeId((i * (1 + bpa)) as u32);

    // Honest accounts with their own blogs; sprinkle likes between them.
    for _ in 0..cfg.n_honest {
        let a = g.add_node(account);
        g.set_attr(a, is_fake, 0);
        for _ in 0..bpa {
            let b = g.add_node(blog);
            g.set_attr(b, keyword, format!("topic_{}", rng.random_range(0..10)));
            g.add_edge(a, post, b);
            g.add_edge(a, like, b);
        }
    }
    // Random honest cross-likes.
    for i in 0..cfg.n_honest {
        let other = rng.random_range(0..cfg.n_honest);
        let j = rng.random_range(0..bpa.max(1));
        if j < bpa {
            g.add_edge(
                account_id(i),
                like,
                NodeId(account_id(other).0 + 1 + j as u32),
            );
        }
    }

    // The fake chain. Account fake_0 is the confirmed seed; each fake
    // account posts a keyword blog.
    let mut fakes = Vec::new();
    for i in 0..cfg.chain_len {
        let a = g.add_node(account);
        if i == 0 {
            g.set_attr(a, is_fake, 1);
        }
        let spam = g.add_node(blog);
        g.set_attr(spam, keyword, cfg.keyword.clone());
        g.add_edge(a, post, spam);
        fakes.push(a);
    }
    // Consecutive chain members co-like k shared blogs.
    for pair in fakes.windows(2) {
        for j in 0..cfg.k {
            let shared = g.add_node(blog);
            g.set_attr(shared, keyword, format!("meme_{j}"));
            g.add_edge(pair[0], like, shared);
            g.add_edge(pair[1], like, shared);
        }
    }

    SocialInstance {
        graph: g,
        fake_chain: (0..cfg.chain_len).map(|i| format!("fake_{i}")).collect(),
    }
}

/// Iterate φ5 repair to fixpoint: whenever a violating match is found, set
/// `x.is_fake = 1` on the accused account, and repeat. Returns the number
/// of accounts newly marked fake. This is the "use GEDs as rules" mode the
/// paper motivates for spam detection.
pub fn spam_cascade(graph: &mut Graph, k: usize, keyword: &str) -> usize {
    let rule = ged_core::rule::Rule::from(crate::rules::phi5(k, keyword));
    let is_fake = ged_graph::sym("is_fake");
    let x_var = rule.pattern.var_by_name("x").unwrap();
    let mut marked = 0;
    loop {
        let vs = ged_core::satisfy::violations(graph, &rule, Some(1));
        let Some(v) = vs.first() else {
            return marked;
        };
        let accused = v.assignment[x_var.idx()];
        graph.set_attr(accused, is_fake, 1);
        marked += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::satisfy::satisfies;
    use ged_graph::{sym, GraphBuilder, Value};

    /// The name-keyed build `generate` replaced, kept as its reference.
    fn generate_by_name(cfg: &SocialConfig) -> SocialInstance {
        assert!(cfg.chain_len >= 1);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut b = GraphBuilder::new();

        // Honest accounts with their own blogs; sprinkle likes between them.
        for i in 0..cfg.n_honest {
            let a = format!("user_{i}");
            b.node(&a, "account");
            b.attr(&a, "is_fake", 0);
            for j in 0..cfg.blogs_per_account {
                let blog = format!("blog_{i}_{j}");
                b.node(&blog, "blog");
                b.attr(
                    &blog,
                    "keyword",
                    format!("topic_{}", rng.random_range(0..10)),
                );
                b.edge(&a, "post", &blog);
                b.edge(&a, "like", &blog);
            }
        }
        // Random honest cross-likes.
        for i in 0..cfg.n_honest {
            let a = format!("user_{i}");
            let other = rng.random_range(0..cfg.n_honest);
            let j = rng.random_range(0..cfg.blogs_per_account.max(1));
            let blog = format!("blog_{other}_{j}");
            if b.contains(&blog) {
                b.edge(&a, "like", &blog);
            }
        }

        // The fake chain. Account fake_0 is the confirmed seed.
        let mut chain = Vec::new();
        for i in 0..cfg.chain_len {
            let a = format!("fake_{i}");
            b.node(&a, "account");
            if i == 0 {
                b.attr(&a, "is_fake", 1);
            }
            // Each fake account posts a keyword blog.
            let post = format!("spam_{i}");
            b.node(&post, "blog");
            b.attr(&post, "keyword", cfg.keyword.clone());
            b.edge(&a, "post", &post);
            chain.push(a);
        }
        // Consecutive chain members co-like k shared blogs.
        for i in 1..cfg.chain_len {
            for j in 0..cfg.k {
                let shared = format!("shared_{i}_{j}");
                b.node(&shared, "blog");
                b.attr(&shared, "keyword", format!("meme_{j}"));
                b.edge(&format!("fake_{}", i - 1), "like", &shared);
                b.edge(&format!("fake_{i}"), "like", &shared);
            }
        }

        SocialInstance {
            graph: b.build(),
            fake_chain: chain,
        }
    }

    /// Building by id gives the name-keyed build's graph: the same nodes
    /// in the same order, labels, tuples and edges, and the same chain.
    #[test]
    fn generate_by_id_equals_the_name_keyed_build() {
        let configs = [
            SocialConfig::default(),
            SocialConfig {
                n_honest: 300,
                ..SocialConfig::default()
            },
            SocialConfig {
                blogs_per_account: 0,
                chain_len: 1,
                ..SocialConfig::default()
            },
        ];
        for cfg in configs {
            let (by_id, by_name) = (generate(&cfg), generate_by_name(&cfg));
            let (g, r) = (&by_id.graph, &by_name.graph);
            assert_eq!(g.node_id_bound(), r.node_id_bound());
            assert!(g.nodes().eq(r.nodes()));
            for n in r.nodes() {
                assert_eq!(g.label(n), r.label(n), "label of {n}");
                assert_eq!(g.attrs(n), r.attrs(n), "tuple of {n}");
            }
            assert!(g.edges().eq(r.edges()), "edges");
            assert_eq!(g.edge_count(), r.edge_count());
            assert_eq!(by_id.fake_chain, by_name.fake_chain);
        }
    }

    #[test]
    fn generator_shape() {
        let cfg = SocialConfig::default();
        let inst = generate(&cfg);
        assert_eq!(inst.fake_chain.len(), cfg.chain_len);
        assert!(inst.graph.node_count() > cfg.n_honest);
    }

    #[test]
    fn phi5_flags_the_chain_next_hop() {
        let inst = generate(&SocialConfig::default());
        let rule = crate::rules::phi5(2, "v1agr4");
        assert!(
            !satisfies(&inst.graph, &rule.into()),
            "fake_1 should be derivable from fake_0"
        );
    }

    #[test]
    fn cascade_marks_the_whole_chain_and_nothing_else() {
        let cfg = SocialConfig::default();
        let inst = generate(&cfg);
        let mut g = inst.graph.clone();
        let newly = spam_cascade(&mut g, cfg.k, &cfg.keyword);
        assert_eq!(newly, cfg.chain_len - 1, "everyone after the seed");
        // Now φ5 is satisfied.
        assert!(satisfies(
            &g,
            &crate::rules::phi5(cfg.k, &cfg.keyword).into()
        ));
        // Honest accounts untouched.
        for i in 0..cfg.n_honest {
            let n = g.nodes_with_label(sym("account"))[i];
            let _ = n; // account order not guaranteed; check by attribute:
        }
        let fakes = g
            .nodes()
            .filter(|&n| g.attr(n, sym("is_fake")) == Some(&Value::from(1)))
            .count();
        assert_eq!(fakes, cfg.chain_len);
    }

    #[test]
    fn no_cascade_without_seed() {
        let cfg = SocialConfig {
            chain_len: 3,
            ..Default::default()
        };
        let inst = generate(&cfg);
        let mut g = inst.graph.clone();
        // Clear the seed's flag.
        let seed = g
            .nodes()
            .find(|&n| g.attr(n, sym("is_fake")) == Some(&Value::from(1)))
            .unwrap();
        g.set_attr(seed, sym("is_fake"), 0);
        assert_eq!(spam_cascade(&mut g, cfg.k, &cfg.keyword), 0);
    }

    #[test]
    fn homomorphism_collapses_the_k_shared_blogs() {
        // Under the paper's homomorphism semantics the k blog variables of
        // Q5 may all map to the SAME blog, so φ5(k=3) fires even when only
        // 2 distinct shared blogs exist — one shared blog suffices. (Under
        // subgraph isomorphism, k = 3 would genuinely require 3 blogs;
        // Section 3 discusses exactly this semantic gap.)
        let cfg = SocialConfig {
            k: 2,
            ..SocialConfig::default()
        };
        let inst = generate(&cfg);
        let mut g = inst.graph.clone();
        assert_eq!(
            spam_cascade(&mut g, 3, &cfg.keyword),
            cfg.chain_len - 1,
            "k collapses under homomorphism"
        );
        // With NO shared blogs the rule cannot fire at all.
        let lonely = SocialConfig {
            chain_len: 1,
            ..SocialConfig::default()
        };
        let mut g2 = generate(&lonely).graph.clone();
        assert_eq!(spam_cascade(&mut g2, 2, &lonely.keyword), 0);
    }
}
