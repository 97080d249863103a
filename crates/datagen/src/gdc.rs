//! GDC workloads: dense-order (age/price) predicates over the social and
//! knowledge-base generators, with a controlled number of planted
//! violations — the Section 7.1 constraint family as an engine workload
//! rather than just a reasoning fixture.
//!
//! Both workloads decorate an existing generator's graph with totally
//! ordered attributes and pair it with denial-style GDCs whose violation
//! count is known by construction, so the incremental≡full harness
//! (`tests/incremental.rs`) can drive GDC sigmas with ground truth.

use crate::kb::KbConfig;
use crate::social::SocialConfig;
use ged_ext::{Gdc, GdcLiteral, Pred};
use ged_graph::{sym, Graph};
use ged_pattern::{parse_pattern, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A GDC workload: a decorated graph, its rule set, and the number of
/// violations planted by construction.
#[derive(Debug)]
pub struct GdcWorkload {
    /// The graph.
    pub graph: Graph,
    /// The GDC rule set.
    pub sigma: Vec<Gdc>,
    /// Violating witnesses planted by construction.
    pub planted: usize,
}

/// The social-network GDC workload: every account gets an `age`
/// attribute; `planted_underage` of them get an age below 13. Σ is the
/// pair of dense-order range denials
/// `account(x)(x.age < 13 → false)` and `account(x)(x.age > 120 → false)`.
pub fn social_gdcs(cfg: &SocialConfig, planted_underage: usize, seed: u64) -> GdcWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = crate::social::generate(cfg).graph;
    let accounts: Vec<_> = graph.nodes_with_label(sym("account")).to_vec();
    assert!(
        planted_underage <= accounts.len(),
        "cannot plant more underage accounts than accounts"
    );
    let age = sym("age");
    for (i, &a) in accounts.iter().enumerate() {
        let v: i64 = if i < planted_underage {
            rng.random_range(6..13)
        } else {
            rng.random_range(18..71)
        };
        graph.set_attr(a, age, v);
    }
    let q = parse_pattern("account(x)").unwrap();
    let sigma = vec![
        Gdc::forbidding(
            "age≥13",
            q.clone(),
            vec![GdcLiteral::constant(Var(0), age, Pred::Lt, 13)],
        ),
        Gdc::forbidding(
            "age≤120",
            q,
            vec![GdcLiteral::constant(Var(0), age, Pred::Gt, 120)],
        ),
    ];
    GdcWorkload {
        graph,
        sigma,
        planted: planted_underage,
    }
}

/// The knowledge-base GDC workload: every product gets `price` and
/// `discount` attributes with `0 ≤ discount ≤ price`;
/// `planted_overdiscount` products get a discount *above* their price. Σ
/// is a constant range denial `product(x)(x.price < 0 → false)` and the
/// variable-predicate denial `product(x)(x.discount > x.price → false)` —
/// the dense-order comparison between two attribute slots that plain GEDs
/// cannot express.
pub fn kb_gdcs(cfg: &KbConfig, planted_overdiscount: usize, seed: u64) -> GdcWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = crate::kb::generate(cfg).graph;
    let products: Vec<_> = graph.nodes_with_label(sym("product")).to_vec();
    assert!(
        planted_overdiscount <= products.len(),
        "cannot plant more over-discounted products than products"
    );
    let (price, discount) = (sym("price"), sym("discount"));
    for (i, &p) in products.iter().enumerate() {
        let cost: i64 = rng.random_range(10..101);
        graph.set_attr(p, price, cost);
        let cut: i64 = if i < planted_overdiscount {
            cost + rng.random_range(1..21)
        } else {
            rng.random_range(0..cost + 1)
        };
        graph.set_attr(p, discount, cut);
    }
    let q = parse_pattern("product(x)").unwrap();
    let sigma = vec![
        Gdc::forbidding(
            "price≥0",
            q.clone(),
            vec![GdcLiteral::constant(Var(0), price, Pred::Lt, 0)],
        ),
        Gdc::forbidding(
            "discount≤price",
            q,
            vec![GdcLiteral::vars(Var(0), discount, Pred::Gt, Var(0), price)],
        ),
    ];
    GdcWorkload {
        graph,
        sigma,
        planted: planted_overdiscount,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::satisfy::{satisfies_all, violations};
    use ged_ext::SigmaConstraint;

    /// The workload's Σ in the served form.
    fn served(w: GdcWorkload) -> (Graph, Vec<SigmaConstraint>) {
        (w.graph, w.sigma.into_iter().map(Into::into).collect())
    }

    #[test]
    fn social_workload_plants_exactly_the_underage_accounts() {
        let w = social_gdcs(&SocialConfig::default(), 4, 3);
        assert_eq!(w.planted, 4);
        let (g, sigma) = served(w);
        let total: usize = sigma.iter().map(|c| violations(&g, c, None).len()).sum();
        assert_eq!(total, 4);
        assert!(!satisfies_all(&g, &sigma));
    }

    #[test]
    fn social_workload_with_no_plants_is_clean() {
        let (g, sigma) = served(social_gdcs(&SocialConfig::default(), 0, 3));
        assert!(satisfies_all(&g, &sigma));
    }

    #[test]
    fn kb_workload_plants_exactly_the_overdiscounted_products() {
        let (g, sigma) = served(kb_gdcs(&KbConfig::default(), 5, 9));
        let total: usize = sigma.iter().map(|c| violations(&g, c, None).len()).sum();
        assert_eq!(total, 5);
        // The violations are all on the variable-predicate rule.
        assert!(violations(&g, &sigma[0], None).is_empty());
        assert_eq!(violations(&g, &sigma[1], None).len(), 5);
    }
}
