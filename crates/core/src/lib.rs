//! # ged-core — graph entity dependencies
//!
//! The primary contribution of *Dependencies for Graphs* (Fan & Lu,
//! PODS 2017): GEDs, their semantics, the revised chase, the three
//! classical reasoning problems, and the finite axiom system — and
//! [`Rule`], the one form every GED, GDC and GED∨ is checked in.
//!
//! ```
//! use ged_core::{Ged, Literal, Rule, satisfies};
//! use ged_graph::{GraphBuilder, sym};
//! use ged_pattern::parse_pattern;
//!
//! // φ1 of the paper's Example 3: video games are created by programmers.
//! let q = parse_pattern("person(x) -[create]-> product(y)").unwrap();
//! let (x, y) = (q.var_by_name("x").unwrap(), q.var_by_name("y").unwrap());
//! let phi1 = Ged::new(
//!     "φ1",
//!     q,
//!     vec![Literal::constant(y, sym("type"), "video game")],
//!     vec![Literal::constant(x, sym("type"), "programmer")],
//! );
//!
//! // The Ghetto-Blaster inconsistency of Example 1(1).
//! let mut b = GraphBuilder::new();
//! b.triple(("tony", "person"), "create", ("gb", "product"));
//! b.attr("tony", "type", "psychologist");
//! b.attr("gb", "type", "video game");
//! assert!(!satisfies(&b.build(), &Rule::from(phi1)));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod axiom;
pub mod chase;
pub mod constraint;
pub mod ged;
pub mod literal;
mod predicate;
pub mod reason;
pub mod relational;
pub mod rule;
pub mod satisfy;
pub mod solver;

pub use chase::{chase, chase_from, chase_random, ChaseResult, ChaseStats, Conflict, EqRel};
pub use constraint::{Constraint, ViolationKind};
pub use ged::{Ged, GedClass};
pub use literal::Literal;
pub use reason::{build_model, implies, is_satisfiable, validate, ValidationReport};
pub use rule::Rule;
pub use satisfy::{is_model, satisfies, satisfies_all, violations, Violation};

#[cfg(test)]
mod proptests {
    //! Property tests for the chase core: equivalence-relation laws,
    //! chase invariants, and the Theorem 1 guarantees on random inputs.

    use crate::chase::eq::EqRel;
    use crate::chase::{chase, chase_random, ChaseResult};
    use crate::ged::Ged;
    use crate::literal::Literal;
    use ged_graph::{sym, Graph, NodeId, Value};
    use ged_pattern::{Pattern, Var};
    use proptest::prelude::*;

    /// A random sequence of EqRel operations over a fixed 6-node graph.
    #[derive(Debug, Clone)]
    enum Op {
        Id(u32, u32),
        Const(u32, u8, i64),
        AttrEq(u32, u8, u32, u8),
    }

    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (0u32..6, 0u32..6).prop_map(|(a, b)| Op::Id(a, b)),
            (0u32..6, 0u8..2, 0i64..3).prop_map(|(n, a, v)| Op::Const(n, a, v)),
            (0u32..6, 0u8..2, 0u32..6, 0u8..2).prop_map(|(x, a, y, b)| Op::AttrEq(x, a, y, b)),
        ];
        proptest::collection::vec(op, 0..25)
    }

    fn base_graph() -> Graph {
        let mut g = Graph::new();
        for _ in 0..6 {
            g.add_node(sym("t")); // one label: id merges never conflict
        }
        g
    }

    fn attr_sym(i: u8) -> ged_graph::Symbol {
        sym(if i == 0 { "A" } else { "B" })
    }

    fn apply(eq: &mut EqRel, op: &Op) {
        if !eq.is_consistent() {
            return;
        }
        match op {
            Op::Id(a, b) => {
                eq.apply_id(NodeId(*a), NodeId(*b));
            }
            Op::Const(n, a, v) => {
                eq.apply_const(NodeId(*n), attr_sym(*a), &Value::from(*v));
            }
            Op::AttrEq(x, a, y, b) => {
                eq.apply_attr_eq(NodeId(*x), attr_sym(*a), NodeId(*y), attr_sym(*b));
            }
        }
    }

    proptest! {
        /// EqRel is a congruence: node equality is an equivalence
        /// relation, attribute classes respect it, and reapplying any
        /// prefix operation is a no-op (idempotence).
        #[test]
        fn eqrel_laws(ops in arb_ops()) {
            let g = base_graph();
            let mut eq = EqRel::initial(&g);
            for op in &ops {
                apply(&mut eq, op);
            }
            if !eq.is_consistent() {
                return Ok(());
            }
            // reflexive + symmetric + transitive via members()
            for n in g.nodes() {
                prop_assert!(eq.node_eq(n, n));
                for &m in eq.members(n) {
                    prop_assert!(eq.node_eq(n, m));
                    prop_assert!(eq.node_eq(m, n));
                    prop_assert_eq!(eq.members(m).len(), eq.members(n).len());
                }
            }
            // congruence: merged nodes share every slot
            for n in g.nodes() {
                for &m in eq.members(n) {
                    for a in [sym("A"), sym("B")] {
                        prop_assert_eq!(eq.attr_class(n, a), eq.attr_class(m, a));
                    }
                }
            }
            // idempotence: replaying all ops changes nothing
            let before = eq.summary();
            let additions = eq.additions();
            for op in &ops {
                apply(&mut eq, op);
            }
            prop_assert!(eq.is_consistent());
            prop_assert_eq!(eq.additions(), additions);
            prop_assert_eq!(eq.summary(), before);
        }

        /// Order independence: applying the operations in reverse yields
        /// the same summary (the algebraic heart of Church–Rosser).
        #[test]
        fn eqrel_order_independence(ops in arb_ops()) {
            let g = base_graph();
            let mut fwd = EqRel::initial(&g);
            for op in &ops {
                apply(&mut fwd, op);
            }
            let mut rev = EqRel::initial(&g);
            for op in ops.iter().rev() {
                apply(&mut rev, op);
            }
            prop_assert_eq!(fwd.is_consistent(), rev.is_consistent());
            if fwd.is_consistent() {
                prop_assert_eq!(fwd.summary(), rev.summary());
            }
        }

        /// Theorem 1 on random key-style inputs: bounds hold, the result
        /// satisfies Σ, and randomised schedules agree.
        #[test]
        fn chase_theorem1_random(
            values in proptest::collection::vec(0i64..3, 2..7),
            seed in 1u64..5
        ) {
            let mut g = Graph::new();
            for v in &values {
                let n = g.add_node(sym("t"));
                g.set_attr(n, sym("K"), *v);
            }
            let mut q = Pattern::new();
            q.var("x", "t");
            q.var("y", "t");
            let key = Ged::new(
                "key",
                q,
                vec![Literal::vars(Var(0), sym("K"), Var(1), sym("K"))],
                vec![Literal::id(Var(0), Var(1))],
            );
            let sigma = vec![key];
            let det = chase(&g, &sigma);
            prop_assert!(det.stats().within_bounds());
            let ChaseResult::Consistent { coercion, .. } = &det else {
                return Err(TestCaseError::fail("single-label key chase cannot conflict"));
            };
            let served: Vec<_> = sigma.iter().cloned().map(crate::Rule::from).collect();
            prop_assert!(crate::satisfy::satisfies_all(&coercion.graph, &served));
            // distinct K values = distinct surviving classes
            let distinct: std::collections::HashSet<i64> = values.iter().copied().collect();
            prop_assert_eq!(coercion.graph.node_count(), distinct.len());
            prop_assert_eq!(
                chase_random(&g, &sigma, seed).comparison_key(),
                det.comparison_key()
            );
        }

        /// Implication is reflexive and monotone under premise weakening
        /// on random literal sets.
        #[test]
        fn implication_reflexivity_monotonicity(attrs in proptest::collection::vec(0u8..3, 1..4)) {
            let mut q = Pattern::new();
            q.var("x", "t");
            q.var("y", "t");
            let lits: Vec<Literal> = attrs
                .iter()
                .map(|&a| {
                    let s = sym(["A", "B", "C"][a as usize]);
                    Literal::vars(Var(0), s, Var(1), s)
                })
                .collect();
            let refl = Ged::new("refl", q.clone(), lits.clone(), lits.clone());
            prop_assert!(crate::reason::implies(&[], &refl));
            // weakening: X → first literal only
            let weak = Ged::new("weak", q, lits.clone(), vec![lits[0].clone()]);
            prop_assert!(crate::reason::implies(&[], &weak));
        }
    }
}
