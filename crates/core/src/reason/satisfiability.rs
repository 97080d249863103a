//! The satisfiability problem (Section 5.1).
//!
//! *Strong* satisfiability: a **model** of Σ is a nonempty finite graph `G`
//! with `G ⊨ Σ` in which *every* pattern of Σ has a match. Theorem 2
//! characterises it via the chase:
//!
//! > Σ is satisfiable iff `chase(G_Σ, Σ)` is consistent,
//!
//! where `G_Σ` is the **canonical graph**: the disjoint union of all
//! patterns of Σ viewed as a data graph (empty attribute tuples, wildcard
//! labels kept). This module implements the characterisation, plus the
//! model *construction* from a valid terminal chase (concretising wildcard
//! labels and labelled nulls — the "special care for `_`" in the proof of
//! Theorem 2).
//!
//! Complexity (Theorem 3): coNP-complete for GEDs/GFDs/GKeys/GEDˣ; O(1) for
//! GFDˣ (no constant or id literals ⇒ no chase step can conflict).

use crate::chase::{chase, ChaseResult};
use crate::ged::Ged;
use crate::rule::Rule;
use crate::satisfy::is_model;
use ged_graph::{Graph, NodeId, Symbol};

/// The canonical graph `G_Σ` plus, per GED, the node offset at which its
/// pattern was placed (pattern variable `v` of `sigma[i]` is node
/// `offsets[i] + v`).
pub fn canonical_graph(sigma: &[Ged]) -> (Graph, Vec<u32>) {
    let mut g = Graph::new();
    let mut offsets = Vec::with_capacity(sigma.len());
    for ged in sigma {
        let gq = ged.pattern.canonical_graph();
        offsets.push(g.append(&gq));
    }
    (g, offsets)
}

/// Outcome of the satisfiability analysis.
#[derive(Debug)]
pub struct SatOutcome {
    /// Is Σ satisfiable (has a model)?
    pub satisfiable: bool,
    /// The chase of `G_Σ` by Σ that decided it.
    pub chase: ChaseResult,
}

/// Decide satisfiability of Σ by Theorem 2. For a GFDˣ-only Σ this always
/// returns `true` (Theorem 3's O(1) case) — but we still run the chase so
/// the caller gets the witness structure; use [`is_trivially_satisfiable`]
/// for the constant-time answer.
pub fn satisfiability(sigma: &[Ged]) -> SatOutcome {
    let (g_sigma, _) = canonical_graph(sigma);
    let chase = chase(&g_sigma, sigma);
    SatOutcome {
        satisfiable: chase.is_consistent(),
        chase,
    }
}

/// Just the boolean.
pub fn is_satisfiable(sigma: &[Ged]) -> bool {
    satisfiability(sigma).satisfiable
}

/// Theorem 3, O(1) case: a set of GFDˣs (no constant, no id literals) is
/// always satisfiable — no chase step can run into a conflict. Returns
/// `Some(true)` when the syntactic check applies, `None` when the full
/// analysis is needed.
pub fn is_trivially_satisfiable(sigma: &[Ged]) -> Option<bool> {
    if sigma.iter().all(Ged::is_gfdx) {
        Some(true)
    } else {
        None
    }
}

/// Reserved label used when concretising wildcard classes of the chased
/// canonical graph into a model.
fn fresh_label() -> Symbol {
    Symbol::new("⋆fresh")
}

/// Build an explicit model of Σ from a consistent chase (the constructive
/// half of Theorem 2), or `None` if Σ is unsatisfiable.
///
/// The model is the final coercion `(G_Σ)_Eq` with
/// * every `_`-labelled class relabelled with one fresh label not occurring
///   in Σ (wildcard pattern nodes still match it; concrete pattern labels
///   still do not), and
/// * every unbound attribute class (labelled null) given a distinct fresh
///   constant (so variable literals enforced equal by the chase stay equal,
///   and nothing else becomes equal).
///
/// For empty Σ the model is a single fresh node (the paper requires models
/// to be nonempty).
pub fn build_model(sigma: &[Ged]) -> Option<Graph> {
    if sigma.is_empty() {
        let mut g = Graph::new();
        g.add_node(fresh_label());
        return Some(g);
    }
    let (g_sigma, _) = canonical_graph(sigma);
    match chase(&g_sigma, sigma) {
        ChaseResult::Inconsistent { .. } => None,
        ChaseResult::Consistent { eq, coercion, .. } => {
            let mut model = Graph::new();
            let n = coercion.graph.node_count();
            for i in 0..n {
                let v = NodeId(i as u32);
                let label = coercion.graph.label(v);
                let id = model.add_node(if label.is_wildcard() {
                    fresh_label()
                } else {
                    label
                });
                debug_assert_eq!(id, v);
            }
            for e in coercion.graph.edges() {
                model.add_edge(e.src, e.label, e.dst);
            }
            // Attributes: constant-bound slots keep their constants;
            // null slots get one fresh constant per attribute class.
            let mut null_names: std::collections::HashMap<u32, ged_graph::Value> =
                std::collections::HashMap::new();
            for i in 0..n {
                let coerced = NodeId(i as u32);
                let repr = coercion.repr[i];
                for (attr, bound) in eq.slots_of(repr) {
                    match bound {
                        Some(c) => model.set_attr(coerced, attr, c),
                        None => {
                            let class = eq
                                .attr_class(repr, attr)
                                .expect("slot exists for listed attribute");
                            let next = null_names.len();
                            let v = null_names
                                .entry(class)
                                .or_insert_with(|| ged_graph::Value::from(format!("⊥{next}")))
                                .clone();
                            model.set_attr(coerced, attr, v);
                        }
                    }
                }
            }
            debug_assert!(
                is_model(
                    &model,
                    &sigma.iter().cloned().map(Rule::from).collect::<Vec<_>>()
                ),
                "constructed graph must be a model of Σ"
            );
            Some(model)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::Ged;
    use crate::literal::Literal;
    use ged_graph::sym;
    use ged_pattern::{fragments, parse_pattern, Var};

    /// Example 5's φ1: `Q1[x, y, z](x.A = x.B → y.id = z.id)`.
    fn ex5_phi1() -> Ged {
        let q = fragments::fig3_q1();
        let (x, y, z) = (Var(0), Var(1), Var(2));
        Ged::new(
            "φ1",
            q,
            vec![Literal::vars(x, sym("A"), x, sym("B"))],
            vec![Literal::id(y, z)],
        )
    }

    /// Example 5's φ2: `Q2[x1,y1,z1,x2,y2,z2](∅ → x1.A = x1.B)`.
    fn ex5_phi2() -> Ged {
        let q = fragments::fig3_q2();
        let x1 = q.var_by_name("x1").unwrap();
        Ged::new(
            "φ2",
            q,
            vec![],
            vec![Literal::vars(x1, sym("A"), x1, sym("B"))],
        )
    }

    /// Example 5(2)'s φ2′ over Q2′ (extra component C2).
    fn ex5_phi2_prime() -> Ged {
        let q = fragments::fig3_q2_prime();
        let x1 = q.var_by_name("x1").unwrap();
        Ged::new(
            "φ2'",
            q,
            vec![],
            vec![Literal::vars(x1, sym("A"), x1, sym("B"))],
        )
    }

    #[test]
    fn example5_each_alone_is_satisfiable() {
        assert!(is_satisfiable(&[ex5_phi1()]));
        assert!(is_satisfiable(&[ex5_phi2()]));
        assert!(is_satisfiable(&[ex5_phi2_prime()]));
    }

    #[test]
    fn example5_sigma1_is_unsatisfiable() {
        // φ2 forces x.A = x.B at every Q1 image; φ1 then merges y (label b)
        // with z (label c) — conflict. Exactly Example 6's chase outcome.
        let out = satisfiability(&[ex5_phi1(), ex5_phi2()]);
        assert!(!out.satisfiable);
        assert!(!out.chase.is_consistent());
    }

    #[test]
    fn example5_sigma2_unsatisfiable_despite_non_homomorphic_patterns() {
        // Q2' is not homomorphic to Q1 and vice versa, yet the interaction
        // persists through the canonical graph (Example 5(2)).
        assert!(!is_satisfiable(&[ex5_phi1(), ex5_phi2_prime()]));
    }

    #[test]
    fn uoe_gkey_is_satisfiable_under_homomorphism() {
        // Section 3: Q = two isolated "UoE" nodes, ∅ → x.id = y.id.
        // Under homomorphism the chase merges the two canonical nodes and
        // a single-node model exists. (Under subgraph isomorphism no
        // sensible model exists — the paper's argument for homomorphism.)
        let q = fragments::uoe_pattern();
        let ged = Ged::new("ϕ", q, vec![], vec![Literal::id(Var(0), Var(1))]);
        let out = satisfiability(std::slice::from_ref(&ged));
        assert!(out.satisfiable);
        let model = build_model(&[ged]).unwrap();
        assert_eq!(
            model.nodes_with_label(sym("UoE")).len(),
            1,
            "model collapses all UoE nodes into one"
        );
    }

    #[test]
    fn model_construction_on_satisfiable_sets() {
        // φ1 of Example 3 alone: model exists and satisfies it.
        let q = fragments::fig1_q1();
        let (x, y) = (Var(0), Var(1));
        let phi1 = Ged::new(
            "φ1",
            q,
            vec![Literal::constant(y, sym("type"), "video game")],
            vec![Literal::constant(x, sym("type"), "programmer")],
        );
        let model = build_model(std::slice::from_ref(&phi1)).unwrap();
        assert!(is_model(&model, &[phi1.into()]));
    }

    #[test]
    fn model_for_unsatisfiable_sigma_is_none() {
        assert!(build_model(&[ex5_phi1(), ex5_phi2()]).is_none());
    }

    #[test]
    fn empty_sigma_has_a_nonempty_model() {
        let model = build_model(&[]).unwrap();
        assert!(model.node_count() > 0);
    }

    #[test]
    fn gfdx_triviality() {
        // Any GFDx set is satisfiable in O(1) (Theorem 3).
        let q2 = fragments::fig1_q2();
        let (y, z) = (Var(1), Var(2));
        let phi2 = Ged::new(
            "φ2",
            q2,
            vec![],
            vec![Literal::vars(y, sym("name"), z, sym("name"))],
        );
        assert_eq!(
            is_trivially_satisfiable(std::slice::from_ref(&phi2)),
            Some(true)
        );
        assert!(is_satisfiable(&[phi2]));
        // but a GED with constants is not syntactically trivial
        let q = parse_pattern("t(x)").unwrap();
        let c = Ged::new("c", q, vec![], vec![Literal::constant(Var(0), sym("A"), 1)]);
        assert_eq!(is_trivially_satisfiable(&[c]), None);
    }

    #[test]
    fn forbidding_ged_whose_pattern_must_match_is_unsatisfiable() {
        // Q[x](∅ → false): a model must embed Q, but then the forbidding
        // GED fires — unsatisfiable under the strong notion.
        let q = parse_pattern("t(x)").unwrap();
        let f = Ged::forbidding("f", q, vec![]);
        assert!(!is_satisfiable(&[f]));
    }

    #[test]
    fn conflicting_constant_geds_are_unsatisfiable() {
        // Q[x](∅ → x.A = 1) and Q[x](∅ → x.A = 2) on the same label.
        let mk = |name: &str, v: i64| {
            let q = parse_pattern("t(x)").unwrap();
            Ged::new(
                name,
                q,
                vec![],
                vec![Literal::constant(Var(0), sym("A"), v)],
            )
        };
        assert!(!is_satisfiable(&[mk("a", 1), mk("b", 2)]));
        assert!(is_satisfiable(&[mk("a", 1), mk("c", 1)]));
    }

    #[test]
    fn model_materialises_labelled_nulls_distinctly() {
        // Q[x](∅ → x.A = x.B) requires A and B to exist and be equal;
        // a second node class's null must differ from the first.
        let q = parse_pattern("t(x)").unwrap();
        let g1 = Ged::new(
            "eqAB",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
        );
        let model = build_model(std::slice::from_ref(&g1)).unwrap();
        assert!(is_model(&model, &[g1.into()]));
        let n = model.nodes_with_label(sym("t"))[0];
        assert_eq!(model.attr(n, sym("A")), model.attr(n, sym("B")));
    }
}
