//! The redundancy-planted workload behind EXP-ANALYZE: a Σ whose rules
//! are correct but *sloppy* — an implied rule, a verbatim duplicate, two
//! rules that can never fire or never violate, and a disjunctive rule
//! with a repeated disjunct — over a follow-ring graph with a controlled
//! number of planted violations against the live rules.
//!
//! The static analyzer (`ged-analysis`) must flag every planted
//! diagnostic and prove the four redundant rules prunable; since the
//! redundant rules share the expensive edge-bound pattern with the live
//! ones, pruning them roughly halves the matcher work of seeding and the
//! delta path — the speedup EXP-ANALYZE measures.

use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_core::rule::Rule;
use ged_ext::disj;
use ged_graph::{sym, Graph};
use ged_pattern::{parse_pattern, Var};

/// The redundancy-planted workload: graph, sloppy Σ, and what the
/// analyzer is expected to find.
#[derive(Debug)]
pub struct RedundantWorkload {
    /// A `user` follow-ring with attribute decorations.
    pub graph: Graph,
    /// Seven rules: three live (indices 0–2), four prunable (3–6).
    pub sigma: Vec<Rule>,
    /// Rules that survive pruning (`3`).
    pub live: usize,
    /// Rules the analyzer proves safe to drop (`4`).
    pub prunable: usize,
    /// Violations planted against the live rule `watch:new-follower`
    /// (the implied rule and the duplicate mirror them until pruned).
    pub planted: usize,
}

/// Build the workload over a ring of `nodes` users (`i -[follows]-> i+1`,
/// wrapping) with `planted` violations.
///
/// The Σ (all patterns share names so the analyzer's indices are easy to
/// follow in reports):
///
/// | # | rule | status |
/// |---|------|--------|
/// | 0 | `watch:new-follower` — `Q2(x.status=a → y.watch=1)` | live |
/// | 1 | `level:watched` — `Q2(y.watch=1 → y.level=2)` | live |
/// | 2 | `tier:spam` — `Q1(x.kind=spam → x.tier=free ∨ free ∨ locked)` | live, **duplicate disjunct** |
/// | 3 | `watch:transitive` — `Q2(x.status=a → y.level=2)` | **implied** by 0+1 |
/// | 4 | `watch:new-follower-copy` — verbatim copy of 0 | **duplicate rule** |
/// | 5 | `bot-and-human` — `Q2(x.kind=bot ∧ x.kind=human → y.level=9)` | **contradictory premises** |
/// | 6 | `status:idempotent` — `Q2(x.status=a → x.status=a)` | **entailed conclusion** (dead) |
///
/// where `Q2 = user(x) -[follows]-> user(y)` and `Q1 = user(x)`. Node
/// decoration: every `i ≡ 0 (mod 3)` gets `status = "a"` with its
/// successor fully satisfying rules 0/1/3; the first `planted` nodes with
/// `i ≡ 1 (mod 3)` get `status = "a"` with a bare successor — each is one
/// violation of rule 0 (and, until pruning, of rules 3 and 4); `i ≡ 2
/// (mod 3)` nodes are spam with an in-domain tier, so rule 2 matches but
/// never fires a violation.
pub fn redundant(nodes: usize, planted: usize) -> RedundantWorkload {
    assert!(nodes >= 6, "need at least 6 nodes");
    let eligible = (nodes - 1).div_ceil(3);
    assert!(
        planted <= eligible.saturating_sub(1),
        "cannot plant {planted} violations over {nodes} nodes"
    );
    let user = sym("user");
    let follows = sym("follows");
    let (status, watch, level) = (sym("status"), sym("watch"), sym("level"));
    let (kind, tier) = (sym("kind"), sym("tier"));

    let mut graph = Graph::new();
    let ids: Vec<_> = (0..nodes).map(|_| graph.add_node(user)).collect();
    for i in 0..nodes {
        graph.add_edge(ids[i], follows, ids[(i + 1) % nodes]);
    }
    let mut left = planted;
    for i in 0..nodes - 1 {
        match i % 3 {
            0 => {
                // Satisfied slice: status=a with a fully decorated
                // successor.
                graph.set_attr(ids[i], status, "a");
                graph.set_attr(ids[i + 1], watch, 1);
                graph.set_attr(ids[i + 1], level, 2);
            }
            1 if left > 0 => {
                // Planted slice: status=a with a bare successor — one
                // rule-0 violation each.
                graph.set_attr(ids[i], status, "a");
                left -= 1;
            }
            2 => {
                // Spam slice: rule 2 matches, first disjunct satisfies.
                graph.set_attr(ids[i], kind, "spam");
                graph.set_attr(ids[i], tier, "free");
            }
            _ => {}
        }
    }
    assert_eq!(left, 0, "ran out of plant slots");

    let q1 = parse_pattern("user(x)").unwrap();
    let q2 = || parse_pattern("user(x) -[follows]-> user(y)").unwrap();
    let (x, y) = (Var(0), Var(1));
    let new_follower = Ged::new(
        "watch:new-follower",
        q2(),
        vec![Literal::constant(x, status, "a")],
        vec![Literal::constant(y, watch, 1)],
    );
    let sigma: Vec<Rule> = vec![
        new_follower.clone().into(),
        Ged::new(
            "level:watched",
            q2(),
            vec![Literal::constant(y, watch, 1)],
            vec![Literal::constant(y, level, 2)],
        )
        .into(),
        disj::new(
            "tier:spam",
            q1,
            vec![Literal::constant(x, kind, "spam")],
            vec![
                Literal::constant(x, tier, "free"),
                Literal::constant(x, tier, "free"),
                Literal::constant(x, tier, "locked"),
            ],
        ),
        Ged::new(
            "watch:transitive",
            q2(),
            vec![Literal::constant(x, status, "a")],
            vec![Literal::constant(y, level, 2)],
        )
        .into(),
        Ged::new(
            "watch:new-follower-copy",
            new_follower.pattern.clone(),
            new_follower.premises.clone(),
            new_follower.conclusions.clone(),
        )
        .into(),
        Ged::new(
            "bot-and-human",
            q2(),
            vec![
                Literal::constant(x, kind, "bot"),
                Literal::constant(x, kind, "human"),
            ],
            vec![Literal::constant(y, level, 9)],
        )
        .into(),
        Ged::new(
            "status:idempotent",
            q2(),
            vec![Literal::constant(x, status, "a")],
            vec![Literal::constant(x, status, "a")],
        )
        .into(),
    ];
    RedundantWorkload {
        graph,
        sigma,
        live: 3,
        prunable: 4,
        planted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::reason::validate;

    #[test]
    fn planted_counts_are_exact() {
        let w = redundant(120, 10);
        assert_eq!(w.sigma.len(), w.live + w.prunable);
        let report = validate(&w.graph, &w.sigma, None);
        let count = |name: &str| {
            report
                .per_ged
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.violation_count)
                .unwrap()
        };
        // The live rule, the implied rule, and the duplicate each see the
        // planted matches; everything else is quiet.
        assert_eq!(count("watch:new-follower"), 10);
        assert_eq!(count("watch:transitive"), 10);
        assert_eq!(count("watch:new-follower-copy"), 10);
        assert_eq!(count("level:watched"), 0);
        assert_eq!(count("tier:spam"), 0);
        assert_eq!(count("bot-and-human"), 0);
        assert_eq!(count("status:idempotent"), 0);
    }

    #[test]
    fn zero_plants_is_satisfied() {
        let w = redundant(60, 0);
        let report = validate(&w.graph, &w.sigma, None);
        assert!(report.satisfied());
    }
}
