//! Mixed-family Σ workloads: one heterogeneous rule set holding plain
//! GEDs, a dense-order GDC, and a disjunctive GED∨ — each compiled into
//! the one served form [`SigmaConstraint`], so a single
//! `IncrementalValidator<SigmaConstraint>` (or any generic engine) serves
//! all of them at once, with a controlled number of planted violations per
//! family.
//!
//! Every rule's pattern is O(|V| + |E|) to enumerate (single-variable or
//! edge-bound), so the workload scales to the 10k-node acceptance runs
//! that revalidate from scratch at every step.

use crate::social::SocialConfig;
use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_ext::{DisjGed, Gdc, GdcLiteral, Pred, SigmaConstraint};
use ged_graph::{sym, Graph};
use ged_pattern::{parse_pattern, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A mixed-family workload: a decorated graph, its heterogeneous rule
/// set, and the number of violations planted by construction.
#[derive(Debug)]
pub struct MixedWorkload {
    /// The graph.
    pub graph: Graph,
    /// The heterogeneous rule set (GED + GDC + GED∨, each compiled into
    /// the served form).
    pub sigma: Vec<SigmaConstraint>,
    /// Violating witnesses planted by construction (`plants` per rule,
    /// four rules: `4 * plants` total).
    pub planted: usize,
}

/// The social-network mixed workload. Four rules, one
/// `Vec<SigmaConstraint>`:
///
/// * **GED** `verified⇒real`: `account(x)(x.verified = 1 → x.is_fake = 0)`
///   — conjunctive conclusion; a witness's kind lists its one literal,
///   `[0]`;
/// * **GED** `no-self-follow`:
///   `account(x) -[follow]-> account(y)(x.id = y.id → false)` — an
///   edge-bound forbidding rule tripped only by `follow` self-loops;
///   `false` is the conflicting pair, so a kind lists both, `[0, 1]`;
/// * **GDC** `age≥13`: `account(x)(x.age < 13 → false)` — dense-order
///   predicate, forbidding like the last: `[0, 1]`;
/// * **GED∨** `tier-domain`: `account(x)(∅ → x.tier = free ∨ pro ∨ biz)`
///   — finite domain; a witness fails every disjunct: `[0, 1, 2]`.
///
/// `plants` violations are planted per rule on *disjoint* account slices
/// (`planted = 4 * plants`): verified bots, `follow` self-loops, underage
/// ages, and an out-of-domain `gold` tier. All other accounts get clean
/// values for every decorated attribute.
///
/// # Panics
///
/// When the graph `cfg` describes has fewer than `4 * plants` accounts;
/// [`try_social_mixed`] reports that instead.
pub fn social_mixed(cfg: &SocialConfig, plants: usize, seed: u64) -> MixedWorkload {
    try_social_mixed(cfg, plants, seed).unwrap_or_else(|why| panic!("{why}"))
}

/// [`social_mixed`] for sizes that come from outside the program (a
/// `gedd --workload` spec): `Err` says how many accounts the four disjoint
/// plant slices need and how many the graph has.
pub fn try_social_mixed(
    cfg: &SocialConfig,
    plants: usize,
    seed: u64,
) -> Result<MixedWorkload, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut graph = crate::social::generate(cfg).graph;
    let accounts: Vec<_> = graph.nodes_with_label(sym("account")).to_vec();
    if plants
        .checked_mul(4)
        .is_none_or(|needed| needed > accounts.len())
    {
        return Err(format!(
            "plants={plants} needs 4 × {plants} accounts (one disjoint slice per rule), \
             the graph has {}",
            accounts.len()
        ));
    }
    let (verified, is_fake) = (sym("verified"), sym("is_fake"));
    let (age, tier, follow) = (sym("age"), sym("tier"), sym("follow"));
    const DOMAIN: [&str; 3] = ["free", "pro", "biz"];
    for (i, &a) in accounts.iter().enumerate() {
        // Slice 0: verified yet fake — violates the conjunctive GED.
        if i < plants {
            graph.set_attr(a, verified, 1);
            graph.set_attr(a, is_fake, 1);
        } else {
            graph.set_attr(a, verified, 0);
        }
        // Slice 1: a `follow` self-loop — violates the edge-bound GED.
        if (plants..2 * plants).contains(&i) {
            graph.add_edge(a, follow, a);
        }
        // Slice 2: underage — violates the dense-order GDC.
        let years: i64 = if (2 * plants..3 * plants).contains(&i) {
            rng.random_range(6..13)
        } else {
            rng.random_range(18..71)
        };
        graph.set_attr(a, age, years);
        // Slice 3: out-of-domain tier — fails every GED∨ disjunct.
        if (3 * plants..4 * plants).contains(&i) {
            graph.set_attr(a, tier, "gold");
        } else {
            graph.set_attr(a, tier, DOMAIN[rng.random_range(0..DOMAIN.len())]);
        }
    }
    let node = parse_pattern("account(x)").unwrap();
    let edge = parse_pattern("account(x) -[follow]-> account(y)").unwrap();
    let x = Var(0);
    let sigma: Vec<SigmaConstraint> = vec![
        Ged::new(
            "verified⇒real",
            node.clone(),
            vec![Literal::constant(x, verified, 1)],
            vec![Literal::constant(x, is_fake, 0)],
        )
        .into(),
        Ged::forbidding("no-self-follow", edge, vec![Literal::id(Var(0), Var(1))]).into(),
        Gdc::forbidding(
            "age≥13",
            node.clone(),
            vec![GdcLiteral::constant(x, age, Pred::Lt, 13)],
        )
        .into(),
        DisjGed::new(
            "tier-domain",
            node,
            vec![],
            DOMAIN
                .iter()
                .map(|&d| Literal::constant(x, tier, d))
                .collect(),
        )
        .into(),
    ];
    Ok(MixedWorkload {
        graph,
        sigma,
        planted: 4 * plants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_plants_exactly_per_family() {
        let w = social_mixed(&SocialConfig::default(), 3, 11);
        assert_eq!(w.planted, 12);
        let report = ged_core::reason::validate(&w.graph, &w.sigma, None);
        assert_eq!(report.total_violations(), w.planted);
        for r in &report.per_ged {
            assert_eq!(r.violation_count, 3, "{}: 3 plants per rule", r.name);
        }
        // Every witness of a rule lists the same failed positions.
        let kinds_of = |name: &str| {
            let mine = report.violations.iter().filter(|v| v.ged_name == name);
            let mut kinds: Vec<Vec<usize>> = mine.map(|v| v.kind.positions().to_vec()).collect();
            kinds.dedup();
            kinds
        };
        assert_eq!(kinds_of("verified⇒real"), [vec![0]]);
        assert_eq!(kinds_of("no-self-follow"), [vec![0, 1]]);
        assert_eq!(kinds_of("age≥13"), [vec![0, 1]]);
        assert_eq!(kinds_of("tier-domain"), [vec![0, 1, 2]]);
    }

    #[test]
    fn mixed_workload_with_no_plants_is_clean() {
        let w = social_mixed(&SocialConfig::default(), 0, 11);
        let report = ged_core::reason::validate(&w.graph, &w.sigma, None);
        assert!(report.satisfied());
    }
}
