//! The chase revised for GEDs (Section 4).
//!
//! A **chase step** `Eq ⇒(φ,h) Eq′` applies one conclusion literal of a GED
//! `φ = Q[x̄](X → Y)` at a match `h` of `Q` in the coercion `G_Eq`, provided
//! `h(x̄) ⊨ X`. Steps may *generate attributes* (cases (1)–(2)) or merge
//! nodes (case (3)); they may also run into label/attribute conflicts, in
//! which case the chasing sequence is **invalid** with result `⊥`.
//!
//! **Theorem 1**: the chase is finite — `|Eq| ≤ 4·|G|·|Σ|`, sequence length
//! `≤ 8·|G|·|Σ|` — and Church–Rosser: every terminal sequence yields the
//! same result. The driver below therefore runs a fixed deterministic
//! schedule; [`chase_random`] runs a randomised one, and the property tests
//! check that both (under many seeds) agree — an executable witness of the
//! Church–Rosser property. [`ChaseStats`] carries the Theorem 1 bounds and
//! the observed counts so benches/tests can assert them.

pub mod coerce;
pub mod eq;

pub use coerce::{coerce, Coercion};
pub use eq::{Conflict, EqRel, EqSummary};

use crate::ged::Ged;
use crate::literal::Literal;
use ged_graph::{Graph, NodeId};
use ged_pattern::{MatchOptions, Matcher};
use std::ops::ControlFlow;

/// One applied chase step, for the proof-producing completeness procedure
/// (Section 6) and for debugging.
#[derive(Debug, Clone)]
pub struct JournalEntry {
    /// Index of the applied GED in Σ.
    pub ged_idx: usize,
    /// The match `h(x̄)`, mapped back to original-graph representatives.
    pub assignment: Vec<NodeId>,
    /// The conclusion literal that was enforced.
    pub literal: Literal,
}

/// Instrumentation counters and the Theorem 1 bounds.
#[derive(Debug, Clone)]
pub struct ChaseStats {
    /// Literal applications (= chase steps in the paper's sense).
    pub steps: usize,
    /// Fixpoint rounds (coercion recomputations).
    pub rounds: usize,
    /// Matches examined across all rounds.
    pub matches_examined: usize,
    /// The Theorem 1 size bound `4·|G|·|Σ|`.
    pub eq_size_bound: usize,
    /// The Theorem 1 length bound `8·|G|·|Σ|`.
    pub length_bound: usize,
    /// Final `|Eq|`.
    pub eq_size: usize,
}

impl ChaseStats {
    /// Do the observed counts respect the Theorem 1 bounds?
    pub fn within_bounds(&self) -> bool {
        self.eq_size <= self.eq_size_bound && self.steps <= self.length_bound
    }
}

/// The result of chasing `G` by `Σ` (Theorem 1 makes it well defined).
#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)]
pub enum ChaseResult {
    /// All terminal sequences are valid: the common result `(Eq, G_Eq)`.
    Consistent {
        /// The final equivalence relation.
        eq: EqRel,
        /// The final coercion `G_Eq` (satisfies Σ, by Theorem 1).
        coercion: Coercion,
        /// Applied steps, in order.
        journal: Vec<JournalEntry>,
        /// Instrumentation.
        stats: ChaseStats,
    },
    /// Some (hence every) terminal sequence is invalid: result `⊥`.
    Inconsistent {
        /// The conflict that invalidated the sequence.
        conflict: Conflict,
        /// Applied steps up to the conflict.
        journal: Vec<JournalEntry>,
        /// Instrumentation.
        stats: ChaseStats,
    },
}

impl ChaseResult {
    /// Is the chase result consistent (`chase(G, Σ) ≠ ⊥`)?
    pub fn is_consistent(&self) -> bool {
        matches!(self, ChaseResult::Consistent { .. })
    }

    /// The stats, either way.
    pub fn stats(&self) -> &ChaseStats {
        match self {
            ChaseResult::Consistent { stats, .. } => stats,
            ChaseResult::Inconsistent { stats, .. } => stats,
        }
    }

    /// The journal, either way.
    pub fn journal(&self) -> &[JournalEntry] {
        match self {
            ChaseResult::Consistent { journal, .. } => journal,
            ChaseResult::Inconsistent { journal, .. } => journal,
        }
    }

    /// Canonical comparison key for Church–Rosser tests: `None` for `⊥`,
    /// otherwise the [`EqSummary`].
    pub fn comparison_key(&self) -> Option<EqSummary> {
        match self {
            ChaseResult::Consistent { eq, .. } => Some(eq.summary()),
            ChaseResult::Inconsistent { .. } => None,
        }
    }
}

/// Literal satisfaction `h(x̄) ⊨ l` read through the equivalence relation
/// (equivalent to evaluating on `G_Eq` with labelled nulls).
pub fn eq_literal_holds(eq: &EqRel, m: &[NodeId], lit: &Literal) -> bool {
    match lit {
        Literal::Const { var, attr, value } => eq.attr_is(m[var.idx()], *attr, value),
        Literal::Vars {
            lvar,
            lattr,
            rvar,
            rattr,
        } => eq.attr_eq(m[lvar.idx()], *lattr, m[rvar.idx()], *rattr),
        Literal::Id { x, y } => eq.node_eq(m[x.idx()], m[y.idx()]),
    }
}

/// Apply a literal at a match; returns whether `Eq` changed.
fn apply_literal(eq: &mut EqRel, m: &[NodeId], lit: &Literal) -> bool {
    match lit {
        Literal::Const { var, attr, value } => eq.apply_const(m[var.idx()], *attr, value),
        Literal::Vars {
            lvar,
            lattr,
            rvar,
            rattr,
        } => eq.apply_attr_eq(m[lvar.idx()], *lattr, m[rvar.idx()], *rattr),
        Literal::Id { x, y } => eq.apply_id(m[x.idx()], m[y.idx()]),
    }
}

/// Seed an [`EqRel`] on `g` with a set of literals over given node
/// assignments — used to build `Eq_X` for the implication analysis
/// (Section 5.2). The assignment maps literal variables to nodes of `g`
/// (for a canonical graph `G_Q`, variable `i` is node `i`). The relation
/// may come out inconsistent; the caller decides what that means.
pub fn seed_eq(g: &Graph, literals: &[Literal], assignment: &[NodeId]) -> EqRel {
    let mut eq = EqRel::initial(g);
    for lit in literals {
        if !eq.is_consistent() {
            break;
        }
        apply_literal(&mut eq, assignment, lit);
    }
    eq
}

/// Chase `g` by `sigma` starting from `Eq0` (Section 4.1).
pub fn chase(g: &Graph, sigma: &[Ged]) -> ChaseResult {
    chase_from(g, EqRel::initial(g), sigma)
}

/// Chase `g` by `sigma` from an explicit starting relation (e.g. `Eq_X`).
pub fn chase_from(g: &Graph, eq0: EqRel, sigma: &[Ged]) -> ChaseResult {
    let bound_factor = g.size().max(1) * sigma.iter().map(Ged::size).sum::<usize>().max(1);
    let mut stats = ChaseStats {
        steps: 0,
        rounds: 0,
        matches_examined: 0,
        eq_size_bound: 4 * bound_factor,
        length_bound: 8 * bound_factor,
        eq_size: 0,
    };
    let mut journal = Vec::new();
    let mut eq = eq0;
    if !eq.is_consistent() {
        let conflict = eq.conflict().unwrap().clone();
        stats.eq_size = eq.size();
        return ChaseResult::Inconsistent {
            conflict,
            journal,
            stats,
        };
    }
    loop {
        stats.rounds += 1;
        let co = coerce(g, &eq);
        let mut changed = false;
        for (gi, ged) in sigma.iter().enumerate() {
            let matcher = Matcher::new(ged.pattern(), &co.graph, MatchOptions::homomorphism());
            let mut conflict_hit = false;
            matcher.for_each(|m| {
                stats.matches_examined += 1;
                let orig = co.to_original(m);
                let holds = |l| eq_literal_holds(&eq, &orig, l);
                if !ged.premises().iter().all(holds) {
                    return ControlFlow::Continue(());
                }
                for lit in ged.conclusions() {
                    if eq_literal_holds(&eq, &orig, lit) {
                        continue;
                    }
                    if apply_literal(&mut eq, &orig, lit) {
                        changed = true;
                        journal.push(JournalEntry {
                            ged_idx: gi,
                            assignment: orig.clone(),
                            literal: lit.clone(),
                        });
                    }
                    if !eq.is_consistent() {
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
            if !eq.is_consistent() {
                conflict_hit = true;
            }
            if conflict_hit {
                let conflict = eq.conflict().unwrap().clone();
                stats.steps = eq.additions();
                stats.eq_size = eq.size();
                return ChaseResult::Inconsistent {
                    conflict,
                    journal,
                    stats,
                };
            }
        }
        if !changed {
            stats.steps = eq.additions();
            stats.eq_size = eq.size();
            // Final coercion reflects the terminal Eq.
            let coercion = coerce(g, &eq);
            return ChaseResult::Consistent {
                eq,
                coercion,
                journal,
                stats,
            };
        }
    }
}

/// A deterministic xorshift64* PRNG so the randomised chase needs no
/// external dependency inside the core crate.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Chase with a *randomised* schedule: every round enumerates all currently
/// applicable `(φ, h, literal)` steps in the current coercion, applies one
/// chosen by the seeded PRNG, and recoerces. Exponentially slower than
/// [`chase`], but each run is a faithful chasing sequence in the paper's
/// one-step-at-a-time sense; comparing results across seeds (and against
/// [`chase`]) is the executable Church–Rosser check of Theorem 1.
pub fn chase_random(g: &Graph, sigma: &[Ged], seed: u64) -> ChaseResult {
    let bound_factor = g.size().max(1) * sigma.iter().map(Ged::size).sum::<usize>().max(1);
    let mut stats = ChaseStats {
        steps: 0,
        rounds: 0,
        matches_examined: 0,
        eq_size_bound: 4 * bound_factor,
        length_bound: 8 * bound_factor,
        eq_size: 0,
    };
    let mut rng = XorShift::new(seed);
    let mut journal = Vec::new();
    let mut eq = EqRel::initial(g);
    loop {
        stats.rounds += 1;
        let co = coerce(g, &eq);
        // Collect all applicable single-literal steps.
        let mut steps: Vec<(usize, Vec<NodeId>, Literal)> = Vec::new();
        for (gi, ged) in sigma.iter().enumerate() {
            Matcher::new(ged.pattern(), &co.graph, MatchOptions::homomorphism()).for_each(|m| {
                stats.matches_examined += 1;
                let orig = co.to_original(m);
                let holds = |l| eq_literal_holds(&eq, &orig, l);
                if ged.premises().iter().all(holds) {
                    for lit in ged.conclusions() {
                        if !holds(lit) {
                            steps.push((gi, orig.clone(), lit.clone()));
                        }
                    }
                }
                ControlFlow::Continue(())
            });
        }
        if steps.is_empty() {
            stats.steps = eq.additions();
            stats.eq_size = eq.size();
            let coercion = coerce(g, &eq);
            return ChaseResult::Consistent {
                eq,
                coercion,
                journal,
                stats,
            };
        }
        let (gi, orig, lit) = steps.swap_remove(rng.below(steps.len()));
        apply_literal(&mut eq, &orig, &lit);
        journal.push(JournalEntry {
            ged_idx: gi,
            assignment: orig,
            literal: lit,
        });
        if !eq.is_consistent() {
            let conflict = eq.conflict().unwrap().clone();
            stats.steps = eq.additions();
            stats.eq_size = eq.size();
            return ChaseResult::Inconsistent {
                conflict,
                journal,
                stats,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::Ged;
    use ged_graph::{sym, Value};
    use ged_pattern::fragments;
    use ged_pattern::Var;

    /// φ1 of Example 4: `Q1[x, y](x.A = y.A → x.id = y.id)`.
    fn ex4_phi1() -> Ged {
        let q = fragments::fig2_q1();
        let (x, y) = (Var(0), Var(1));
        Ged::new(
            "φ1",
            q,
            vec![Literal::vars(x, sym("A"), y, sym("A"))],
            vec![Literal::id(x, y)],
        )
    }

    /// φ2 of Example 4: `Q2[x, y, z](∅ → y.id = z.id)`.
    fn ex4_phi2() -> Ged {
        let q = fragments::fig2_q2();
        let (y, z) = (Var(1), Var(2));
        Ged::new("φ2", q, vec![], vec![Literal::id(y, z)])
    }

    #[test]
    fn example4_part1_valid_chase_merges_v1_v2() {
        // Σ1 = {φ1}: terminal and valid, coercion merges v1, v2.
        let (g, [v1, v2, v1p, v2p]) = fragments::fig2_graph();
        let result = chase(&g, &[ex4_phi1()]);
        let ChaseResult::Consistent { eq, coercion, .. } = &result else {
            panic!("expected consistent chase, got {result:?}");
        };
        assert!(eq.node_eq(v1, v2), "v1 and v2 merged");
        assert!(!eq.node_eq(v1p, v2p), "v1' and v2' untouched");
        assert_eq!(coercion.graph.node_count(), 3);
        assert!(result.stats().within_bounds());
    }

    #[test]
    fn example4_part2_invalid_chase() {
        // Σ2 = {φ1, φ2}: after merging v1, v2, φ2 forces the conflicting
        // merge of v1' (label b) and v2' (label c) → result ⊥.
        let (g, _) = fragments::fig2_graph();
        let result = chase(&g, &[ex4_phi1(), ex4_phi2()]);
        let ChaseResult::Inconsistent { conflict, .. } = &result else {
            panic!("expected ⊥, got consistent");
        };
        assert!(matches!(conflict, Conflict::Label { .. }));
        assert!(result.stats().within_bounds());
    }

    #[test]
    fn chase_result_graph_satisfies_sigma() {
        // Theorem 1: if a valid terminal sequence exists, G_Eq ⊨ Σ.
        let (g, _) = fragments::fig2_graph();
        let sigma = [ex4_phi1()];
        let ChaseResult::Consistent { coercion, .. } = chase(&g, &sigma) else {
            panic!()
        };
        let served = sigma.map(crate::rule::Rule::from);
        assert!(crate::satisfy::satisfies_all(&coercion.graph, &served));
    }

    #[test]
    fn church_rosser_on_example4() {
        let (g, _) = fragments::fig2_graph();
        for sigma in [vec![ex4_phi1()], vec![ex4_phi1(), ex4_phi2()]] {
            let det = chase(&g, &sigma).comparison_key();
            // order reversal
            let mut rev = sigma.clone();
            rev.reverse();
            assert_eq!(chase(&g, &rev).comparison_key(), det);
            // randomised schedules
            for seed in 1..=10 {
                assert_eq!(
                    chase_random(&g, &sigma, seed).comparison_key(),
                    det,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn attribute_generation_during_chase() {
        // Q[x](∅ → x.A = 1) on a graph whose node lacks A.
        let mut q = ged_pattern::Pattern::new();
        let x = q.var("x", "t");
        let ged = Ged::new("gen", q, vec![], vec![Literal::constant(x, sym("A"), 1)]);
        let mut g = Graph::new();
        let n = g.add_node(sym("t"));
        let ChaseResult::Consistent { eq, coercion, .. } = chase(&g, &[ged]) else {
            panic!()
        };
        assert!(eq.attr_is(n, sym("A"), &Value::from(1)));
        assert_eq!(
            coercion.graph.attr(NodeId(0), sym("A")),
            Some(&Value::from(1))
        );
    }

    #[test]
    fn forbidding_ged_makes_matching_graph_inconsistent() {
        let phi4 = Ged::forbidding("φ4", fragments::fig1_q4(), vec![]);
        let mut b = ged_graph::GraphBuilder::new();
        b.triple(("p", "person"), "child", ("w", "person"));
        b.edge("p", "parent", "w");
        let g = b.build();
        let result = chase(&g, &[phi4]);
        assert!(!result.is_consistent(), "dirty graph: chase is invalid");
    }

    #[test]
    fn empty_sigma_chase_is_identity() {
        let (g, _) = fragments::fig2_graph();
        let ChaseResult::Consistent {
            coercion, stats, ..
        } = chase(&g, &[])
        else {
            panic!()
        };
        assert_eq!(coercion.graph.node_count(), g.node_count());
        assert_eq!(stats.steps, 0);
    }

    #[test]
    fn seeded_eq_can_start_inconsistent() {
        // Eq_X with X = {x.A = 1, x.A = 2} on a single-node canonical graph.
        let mut g = Graph::new();
        let n = g.add_node(sym("t"));
        let lits = vec![
            Literal::constant(Var(0), sym("A"), 1),
            Literal::constant(Var(0), sym("A"), 2),
        ];
        let eq = seed_eq(&g, &lits, &[n]);
        assert!(!eq.is_consistent());
        let res = chase_from(&g, eq, &[]);
        assert!(!res.is_consistent());
    }

    #[test]
    fn journal_records_every_step() {
        let (g, _) = fragments::fig2_graph();
        let res = chase(&g, &[ex4_phi1()]);
        assert_eq!(res.journal().len(), 1);
        assert_eq!(res.journal()[0].ged_idx, 0);
        assert!(res.journal()[0].literal.is_id());
    }

    #[test]
    fn stats_bounds_hold_on_random_style_input() {
        // A slightly larger fixture: chain of equal attributes collapsing
        // into one node class.
        let mut g = Graph::new();
        let t = sym("a"); // φ1's pattern nodes are labelled `a`
        let nodes: Vec<NodeId> = (0..6).map(|_| g.add_node(t)).collect();
        for &n in &nodes {
            g.set_attr(n, sym("A"), 1);
        }
        let res = chase(&g, &[ex4_phi1()]);
        let ChaseResult::Consistent {
            eq,
            coercion,
            stats,
            ..
        } = res
        else {
            panic!()
        };
        assert_eq!(coercion.graph.node_count(), 1, "all six nodes merge");
        assert!(eq.node_eq(nodes[0], nodes[5]));
        assert!(stats.within_bounds(), "Theorem 1 bounds: {stats:?}");
    }
}

#[cfg(test)]
mod cascade_tests {
    //! Deeper chase interactions: premises that become satisfiable only
    //! after earlier steps propagate constants across merged nodes.

    use super::*;
    use crate::ged::Ged;
    use crate::literal::Literal;
    use ged_graph::{sym, GraphBuilder, Value};
    use ged_pattern::{parse_pattern, Var};

    /// key: equal K ⇒ same node; tag: P = 1 ⇒ Q = 2. A node without P
    /// merges with one carrying P = 1, acquires it by congruence, and the
    /// tag rule then fires on the *merged* entity.
    #[test]
    fn constants_propagate_through_merges_and_refire_rules() {
        let mut b = GraphBuilder::new();
        b.node("u", "t");
        b.node("v", "t");
        b.attr("u", "K", 9).attr("v", "K", 9);
        b.attr("u", "P", 1); // only u carries P
        let (g, names) = b.build_with_names();
        let q2 = parse_pattern("t(x); t(y)").unwrap();
        let key = Ged::new(
            "key",
            q2,
            vec![Literal::vars(Var(0), sym("K"), Var(1), sym("K"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let q1 = parse_pattern("t(x)").unwrap();
        let tag = Ged::new(
            "tag",
            q1,
            vec![Literal::constant(Var(0), sym("P"), 1)],
            vec![Literal::constant(Var(0), sym("Q"), 2)],
        );
        let ChaseResult::Consistent { eq, coercion, .. } = chase(&g, &[key, tag]) else {
            panic!("no conflicts possible here");
        };
        assert!(eq.node_eq(names["u"], names["v"]));
        assert!(
            eq.attr_is(names["v"], sym("P"), &Value::from(1)),
            "congruence"
        );
        assert!(
            eq.attr_is(names["v"], sym("Q"), &Value::from(2)),
            "tag refired"
        );
        let merged = coercion.coerced(names["u"]);
        assert_eq!(coercion.graph.attr(merged, sym("Q")), Some(&Value::from(2)));
    }

    /// A three-stage cascade: key merge → congruence constant → second key
    /// on the propagated attribute → another merge. Exercises recoercion.
    #[test]
    fn two_stage_merge_cascade() {
        let mut b = GraphBuilder::new();
        b.node("a", "t");
        b.node("b", "t");
        b.node("c", "t");
        b.attr("a", "K", 1).attr("b", "K", 1); // a,b merge by K-key
        b.attr("a", "L", 5); // a carries L; b gains it by congruence
        b.attr("c", "L", 5); // then b/c merge by L-key
        let (g, names) = b.build_with_names();
        let q2 = || parse_pattern("t(x); t(y)").unwrap();
        let key_k = Ged::new(
            "keyK",
            q2(),
            vec![Literal::vars(Var(0), sym("K"), Var(1), sym("K"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let key_l = Ged::new(
            "keyL",
            q2(),
            vec![Literal::vars(Var(0), sym("L"), Var(1), sym("L"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let ChaseResult::Consistent {
            eq,
            coercion,
            stats,
            ..
        } = chase(&g, &[key_k, key_l])
        else {
            panic!()
        };
        assert!(eq.node_eq(names["a"], names["b"]));
        assert!(eq.node_eq(names["b"], names["c"]), "second-stage merge");
        assert_eq!(coercion.graph.node_count(), 1);
        assert!(stats.rounds >= 2, "needed a recoercion round");
        assert!(stats.within_bounds());
    }

    /// Conflicts can surface only after propagation: merging two nodes
    /// each consistent alone, whose congruence closure then clashes with a
    /// third rule's constant.
    #[test]
    fn late_conflict_detection() {
        let mut b = GraphBuilder::new();
        b.node("u", "t");
        b.node("v", "t");
        b.attr("u", "K", 3).attr("v", "K", 3);
        b.attr("u", "P", 1).attr("v", "P", 2); // clash revealed by merge
        let g = b.build();
        let q2 = parse_pattern("t(x); t(y)").unwrap();
        let key = Ged::new(
            "key",
            q2,
            vec![Literal::vars(Var(0), sym("K"), Var(1), sym("K"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let result = chase(&g, &[key]);
        assert!(!result.is_consistent());
        assert!(matches!(
            result,
            ChaseResult::Inconsistent {
                conflict: Conflict::Attr { .. },
                ..
            }
        ));
    }

    /// Wildcard-labelled data nodes in the canonical-graph role: a
    /// concrete-labelled pattern cannot absorb them, a wildcard one can.
    #[test]
    fn wildcard_data_nodes_during_chase() {
        let mut g = ged_graph::Graph::new();
        let w = g.add_node(sym("_"));
        let t = g.add_node(sym("t"));
        g.set_attr(w, sym("K"), 7);
        g.set_attr(t, sym("K"), 7);
        // Pattern with wildcard vars: merges the two nodes (labels _ and t
        // are ⪯-compatible, resolved label t).
        let qw = parse_pattern("_(x); _(y)").unwrap();
        let key = Ged::new(
            "key",
            qw,
            vec![Literal::vars(Var(0), sym("K"), Var(1), sym("K"))],
            vec![Literal::id(Var(0), Var(1))],
        );
        let ChaseResult::Consistent { eq, coercion, .. } = chase(&g, &[key]) else {
            panic!()
        };
        assert!(eq.node_eq(w, t));
        assert_eq!(coercion.graph.label(coercion.coerced(w)), sym("t"));
    }
}
