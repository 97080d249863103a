//! GED∨ workloads: multi-disjunct domain and conditional rules over the
//! social and knowledge-base generators, with a controlled number of
//! planted violations — the Section 7.2 constraint family as an engine
//! workload rather than just a reasoning fixture.
//!
//! A GED∨ is violated iff *every* disjunct of its conclusion fails, so
//! the planted errors here are values outside a finite domain (all
//! disjuncts fail at once) and flagged accounts escaping every permitted
//! escape hatch.

use crate::kb::KbConfig;
use crate::social::SocialConfig;
use ged_core::literal::Literal;
use ged_ext::DisjGed;
use ged_graph::{sym, Graph};
use ged_pattern::{parse_pattern, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A GED∨ workload: a decorated graph, its rule set, and the number of
/// violations planted by construction.
#[derive(Debug)]
pub struct DisjWorkload {
    /// The graph.
    pub graph: Graph,
    /// The GED∨ rule set.
    pub sigma: Vec<DisjGed>,
    /// Violating witnesses planted by construction.
    pub planted: usize,
}

/// The social-network GED∨ workload. Every account gets a `tier` drawn
/// from the three-valued domain `{free, pro, biz}`; `planted_bad_tier`
/// accounts get an out-of-domain tier (all three disjuncts fail). On top,
/// `planted_bots` extra confirmed-fake accounts are added that violate the
/// conditional rule "a fake account is free-tier or suspended"
/// (`account(x)(x.is_fake = 1 → x.tier = free ∨ x.suspended = 1)`).
pub fn social_disj(
    cfg: &SocialConfig,
    planted_bad_tier: usize,
    planted_bots: usize,
    seed: u64,
) -> DisjWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = crate::social::generate(cfg).graph;
    let accounts: Vec<_> = graph.nodes_with_label(sym("account")).to_vec();
    assert!(
        planted_bad_tier <= accounts.len(),
        "cannot plant more bad tiers than accounts"
    );
    let (tier, is_fake, suspended) = (sym("tier"), sym("is_fake"), sym("suspended"));
    const DOMAIN: [&str; 3] = ["free", "pro", "biz"];
    for (i, &a) in accounts.iter().enumerate() {
        if i < planted_bad_tier {
            graph.set_attr(a, tier, "gold");
        } else {
            graph.set_attr(a, tier, DOMAIN[rng.random_range(0..DOMAIN.len())]);
        }
        // Keep the conditional rule clean on generator accounts: whoever is
        // flagged fake (the cascade seed) is suspended.
        if graph.attr(a, is_fake).is_some_and(|v| *v == 1.into()) {
            graph.set_attr(a, suspended, 1);
        }
    }
    // The planted bots: confirmed fake, paid tier, not suspended.
    for _ in 0..planted_bots {
        let b = graph.add_node(sym("account"));
        graph.set_attr(b, is_fake, 1);
        graph.set_attr(b, tier, "pro");
    }
    let q = parse_pattern("account(x)").unwrap();
    let x = Var(0);
    let sigma = vec![
        DisjGed::new(
            "tier-domain",
            q.clone(),
            vec![],
            DOMAIN
                .iter()
                .map(|&d| Literal::constant(x, tier, d))
                .collect(),
        ),
        DisjGed::new(
            "fake⇒free∨suspended",
            q,
            vec![Literal::constant(x, is_fake, 1)],
            vec![
                Literal::constant(x, tier, "free"),
                Literal::constant(x, suspended, 1),
            ],
        ),
    ];
    DisjWorkload {
        graph,
        sigma,
        planted: planted_bad_tier + planted_bots,
    }
}

/// The knowledge-base GED∨ workload: every product gets a `visibility`
/// drawn from `{0, 1, 2}` (hidden / listed / featured);
/// `planted_bad_visibility` products get an out-of-domain value, failing
/// every disjunct of the domain rule.
pub fn kb_disj(cfg: &KbConfig, planted_bad_visibility: usize, seed: u64) -> DisjWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = crate::kb::generate(cfg).graph;
    let products: Vec<_> = graph.nodes_with_label(sym("product")).to_vec();
    assert!(
        planted_bad_visibility <= products.len(),
        "cannot plant more bad visibilities than products"
    );
    let vis = sym("visibility");
    for (i, &p) in products.iter().enumerate() {
        let v: i64 = if i < planted_bad_visibility {
            rng.random_range(5..9)
        } else {
            rng.random_range(0..3)
        };
        graph.set_attr(p, vis, v);
    }
    let q = parse_pattern("product(x)").unwrap();
    let sigma = vec![DisjGed::new(
        "visibility∈{0,1,2}",
        q,
        vec![],
        (0..3).map(|v| Literal::constant(Var(0), vis, v)).collect(),
    )];
    DisjWorkload {
        graph,
        sigma,
        planted: planted_bad_visibility,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::satisfy::{satisfies_all, violations};
    use ged_ext::SigmaConstraint;

    /// The workload's Σ in the served form.
    fn served(w: DisjWorkload) -> (Graph, Vec<SigmaConstraint>) {
        (w.graph, w.sigma.into_iter().map(Into::into).collect())
    }

    #[test]
    fn social_workload_plants_tier_and_bot_violations() {
        let w = social_disj(&SocialConfig::default(), 3, 2, 5);
        assert_eq!(w.planted, 5);
        let (g, sigma) = served(w);
        assert_eq!(violations(&g, &sigma[0], None).len(), 3);
        assert_eq!(violations(&g, &sigma[1], None).len(), 2);
        assert!(!satisfies_all(&g, &sigma));
    }

    #[test]
    fn social_workload_with_no_plants_is_clean() {
        let (g, sigma) = served(social_disj(&SocialConfig::default(), 0, 0, 5));
        assert!(satisfies_all(&g, &sigma));
    }

    #[test]
    fn kb_workload_plants_exactly_the_bad_visibilities() {
        let (g, sigma) = served(kb_disj(&KbConfig::default(), 4, 8));
        assert_eq!(violations(&g, &sigma[0], None).len(), 4);
        let (clean, sigma) = served(kb_disj(&KbConfig::default(), 0, 8));
        assert!(satisfies_all(&clean, &sigma));
    }
}
