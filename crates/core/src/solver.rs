//! A consistency solver for conjunctions of order constraints
//! `t1 ⊕ t2` over *terms* (attribute slots and constants), used by
//! [`Rule::premises_feasible`](crate::rule::Rule::premises_feasible) and by
//! `ged-ext`'s bounded-model search for GDC/GED∨ satisfiability and
//! implication (Theorems 8 & 9).
//!
//! Decision procedure (sound and complete over a dense total order that
//! contains all the given constants — `U` with floats/strings is dense;
//! the one non-dense corner, adjacent booleans, is documented in
//! DESIGN.md):
//!
//! 1. merge `=` constraints by union–find (two distinct constants in one
//!    class → inconsistent);
//! 2. add the implicit order facts between every pair of distinct constant
//!    terms;
//! 3. build the digraph of `≤` and `<` edges over classes, contract its
//!    strongly connected components (a `≤`-cycle forces equality); any `<`
//!    edge inside an SCC → inconsistent;
//! 4. any `≠` constraint whose endpoints landed in the same class/SCC →
//!    inconsistent.

use crate::predicate::Pred;
use ged_graph::{NodeId, Symbol, Value};
use std::collections::HashMap;

/// A term of the constraint language.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// Attribute slot `node.attr` of the candidate model.
    Slot(NodeId, Symbol),
    /// A constant.
    Cst(Value),
}

/// An atomic constraint `lhs ⊕ rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Left term.
    pub lhs: Term,
    /// Predicate.
    pub pred: Pred,
    /// Right term.
    pub rhs: Term,
}

impl Constraint {
    /// Convenience constructor.
    pub fn new(lhs: Term, pred: Pred, rhs: Term) -> Constraint {
        Constraint { lhs, pred, rhs }
    }
}

/// Decide whether the conjunction of `constraints` is satisfiable by an
/// assignment of values to slots (constants interpreted as themselves).
pub fn consistent(constraints: &[Constraint]) -> bool {
    // Index terms.
    let mut ids: HashMap<Term, usize> = HashMap::new();
    let mut terms: Vec<Term> = Vec::new();
    let id_of = |t: &Term, terms: &mut Vec<Term>, ids: &mut HashMap<Term, usize>| -> usize {
        if let Some(&i) = ids.get(t) {
            return i;
        }
        let i = terms.len();
        terms.push(t.clone());
        ids.insert(t.clone(), i);
        i
    };
    let mut edges_le: Vec<(usize, usize)> = Vec::new(); // a ≤ b
    let mut edges_lt: Vec<(usize, usize)> = Vec::new(); // a < b
    let mut eqs: Vec<(usize, usize)> = Vec::new();
    let mut nes: Vec<(usize, usize)> = Vec::new();
    for c in constraints {
        let a = id_of(&c.lhs, &mut terms, &mut ids);
        let b = id_of(&c.rhs, &mut terms, &mut ids);
        match c.pred {
            Pred::Eq => eqs.push((a, b)),
            Pred::Ne => nes.push((a, b)),
            Pred::Lt => edges_lt.push((a, b)),
            Pred::Gt => edges_lt.push((b, a)),
            Pred::Le => edges_le.push((a, b)),
            Pred::Ge => edges_le.push((b, a)),
        }
    }
    // Implicit facts between distinct constants.
    let const_ids: Vec<usize> = terms
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t, Term::Cst(_)))
        .map(|(i, _)| i)
        .collect();
    for (i, &a) in const_ids.iter().enumerate() {
        for &b in &const_ids[i + 1..] {
            let (Term::Cst(ca), Term::Cst(cb)) = (&terms[a], &terms[b]) else {
                unreachable!()
            };
            match ca.cmp(cb) {
                std::cmp::Ordering::Less => edges_lt.push((a, b)),
                std::cmp::Ordering::Greater => edges_lt.push((b, a)),
                std::cmp::Ordering::Equal => eqs.push((a, b)),
            }
        }
    }
    // Union-find over equalities.
    let n = terms.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b) in eqs {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    // Two distinct constants in one class?
    let mut class_const: HashMap<usize, &Value> = HashMap::new();
    for (i, t) in terms.iter().enumerate() {
        if let Term::Cst(v) = t {
            let r = find(&mut parent, i);
            if let Some(prev) = class_const.get(&r) {
                if *prev != v {
                    return false;
                }
            } else {
                class_const.insert(r, v);
            }
        }
    }
    // Build class graph of ≤ and < edges, run Tarjan-free SCC (Kosaraju
    // via two DFS passes).
    let mut adj: HashMap<usize, Vec<(usize, bool)>> = HashMap::new(); // (to, strict)
    let mut radj: HashMap<usize, Vec<usize>> = HashMap::new();
    let push = |a: usize,
                b: usize,
                strict: bool,
                parent: &mut Vec<usize>,
                adj: &mut HashMap<usize, Vec<(usize, bool)>>,
                radj: &mut HashMap<usize, Vec<usize>>| {
        let (ra, rb) = (find(parent, a), find(parent, b));
        adj.entry(ra).or_default().push((rb, strict));
        radj.entry(rb).or_default().push(ra);
    };
    for &(a, b) in &edges_le {
        push(a, b, false, &mut parent, &mut adj, &mut radj);
    }
    for &(a, b) in &edges_lt {
        push(a, b, true, &mut parent, &mut adj, &mut radj);
    }
    let roots: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
    let mut uniq_roots: Vec<usize> = roots.clone();
    uniq_roots.sort_unstable();
    uniq_roots.dedup();
    // Kosaraju.
    let mut order = Vec::new();
    let mut seen: HashMap<usize, bool> = HashMap::new();
    for &r in &uniq_roots {
        if seen.get(&r).copied().unwrap_or(false) {
            continue;
        }
        // iterative DFS post-order
        let mut stack = vec![(r, 0usize)];
        seen.insert(r, true);
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            let nbrs = adj.get(&v).cloned().unwrap_or_default();
            if *ei < nbrs.len() {
                let (to, _) = nbrs[*ei];
                *ei += 1;
                if !seen.get(&to).copied().unwrap_or(false) {
                    seen.insert(to, true);
                    stack.push((to, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut comp: HashMap<usize, usize> = HashMap::new();
    let mut ncomp = 0usize;
    for &v in order.iter().rev() {
        if comp.contains_key(&v) {
            continue;
        }
        let c = ncomp;
        ncomp += 1;
        let mut stack = vec![v];
        comp.insert(v, c);
        while let Some(u) = stack.pop() {
            for &w in radj.get(&u).into_iter().flatten() {
                if let std::collections::hash_map::Entry::Vacant(e) = comp.entry(w) {
                    e.insert(c);
                    stack.push(w);
                }
            }
        }
    }
    for &r in &uniq_roots {
        comp.entry(r).or_insert_with(|| {
            ncomp += 1;
            ncomp - 1
        });
    }
    // A strict edge inside an SCC → inconsistent.
    for (&from, nbrs) in &adj {
        for &(to, strict) in nbrs {
            if strict && comp[&from] == comp[&to] {
                return false;
            }
        }
    }
    // SCC-level constant conflict: two classes with distinct constants in
    // the same SCC (means forced equal).
    let mut comp_const: HashMap<usize, &Value> = HashMap::new();
    for (&root, &v) in class_const.iter().collect::<Vec<_>>().iter() {
        let c = comp[&root];
        if let Some(prev) = comp_const.get(&c) {
            if **prev != *v {
                return false;
            }
        } else {
            comp_const.insert(c, v);
        }
    }
    // ≠ between terms in the same SCC → inconsistent.
    for (a, b) in nes {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb || comp[&ra] == comp[&rb] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::sym;

    fn slot(n: u32, a: &str) -> Term {
        Term::Slot(NodeId(n), sym(a))
    }

    fn cst(v: impl Into<Value>) -> Term {
        Term::Cst(v.into())
    }

    fn c(l: Term, p: Pred, r: Term) -> Constraint {
        Constraint::new(l, p, r)
    }

    #[test]
    fn empty_is_consistent() {
        assert!(consistent(&[]));
    }

    #[test]
    fn equality_chains() {
        assert!(consistent(&[
            c(slot(0, "A"), Pred::Eq, slot(1, "A")),
            c(slot(1, "A"), Pred::Eq, slot(2, "A")),
        ]));
        assert!(!consistent(&[
            c(slot(0, "A"), Pred::Eq, slot(1, "A")),
            c(slot(1, "A"), Pred::Eq, slot(2, "A")),
            c(slot(0, "A"), Pred::Ne, slot(2, "A")),
        ]));
    }

    #[test]
    fn constant_conflicts() {
        assert!(!consistent(&[
            c(slot(0, "A"), Pred::Eq, cst(1)),
            c(slot(0, "A"), Pred::Eq, cst(2)),
        ]));
        assert!(consistent(&[
            c(slot(0, "A"), Pred::Eq, cst(1)),
            c(slot(1, "A"), Pred::Eq, cst(2)),
        ]));
    }

    #[test]
    fn strict_cycles_are_inconsistent() {
        assert!(!consistent(&[
            c(slot(0, "A"), Pred::Lt, slot(1, "A")),
            c(slot(1, "A"), Pred::Lt, slot(0, "A")),
        ]));
        assert!(!consistent(&[c(slot(0, "A"), Pred::Lt, slot(0, "A"))]));
        // ≤-cycle is fine (forces equality)…
        assert!(consistent(&[
            c(slot(0, "A"), Pred::Le, slot(1, "A")),
            c(slot(1, "A"), Pred::Le, slot(0, "A")),
        ]));
        // …unless a strict edge or a ≠ joins it.
        assert!(!consistent(&[
            c(slot(0, "A"), Pred::Le, slot(1, "A")),
            c(slot(1, "A"), Pred::Le, slot(0, "A")),
            c(slot(0, "A"), Pred::Ne, slot(1, "A")),
        ]));
    }

    #[test]
    fn le_chain_between_pinned_constants() {
        // 1 ≤ x ≤ 2 fine; 2 ≤ x ≤ 1 impossible.
        assert!(consistent(&[
            c(cst(1), Pred::Le, slot(0, "A")),
            c(slot(0, "A"), Pred::Le, cst(2)),
        ]));
        assert!(!consistent(&[
            c(cst(2), Pred::Le, slot(0, "A")),
            c(slot(0, "A"), Pred::Le, cst(1)),
        ]));
    }

    #[test]
    fn equality_to_pinned_constants_orders_transitively() {
        // x = 5, y = 3, x < y impossible.
        assert!(!consistent(&[
            c(slot(0, "A"), Pred::Eq, cst(5)),
            c(slot(1, "A"), Pred::Eq, cst(3)),
            c(slot(0, "A"), Pred::Lt, slot(1, "A")),
        ]));
        // x = 3, y = 5, x < y fine.
        assert!(consistent(&[
            c(slot(0, "A"), Pred::Eq, cst(3)),
            c(slot(1, "A"), Pred::Eq, cst(5)),
            c(slot(0, "A"), Pred::Lt, slot(1, "A")),
        ]));
    }

    #[test]
    fn sandwiched_equality_via_le() {
        // x ≤ y, y ≤ z, z ≤ x forces x = y = z; then x ≠ y is out.
        assert!(!consistent(&[
            c(slot(0, "A"), Pred::Le, slot(1, "A")),
            c(slot(1, "A"), Pred::Le, slot(2, "A")),
            c(slot(2, "A"), Pred::Le, slot(0, "A")),
            c(slot(0, "A"), Pred::Ne, slot(1, "A")),
        ]));
    }

    #[test]
    fn mixed_kinds_use_value_order() {
        // "a" < "b" as string constants.
        assert!(consistent(&[
            c(cst("a"), Pred::Lt, slot(0, "A")),
            c(slot(0, "A"), Pred::Lt, cst("b")),
        ]));
    }

    #[test]
    fn ne_between_unrelated_slots_is_fine() {
        assert!(consistent(&[c(slot(0, "A"), Pred::Ne, slot(1, "A"))]));
    }
}

#[cfg(test)]
mod proptests {
    //! The order solver against brute force: enumerate assignments on a
    //! dense grid and compare. The grid spans well past the constants
    //! (0..3) with half steps, so any consistent system over ≤ 4 slots
    //! has a witness on it.

    use super::*;
    use crate::predicate::Pred;
    use ged_graph::sym;
    use proptest::prelude::*;

    fn arb_constraints() -> impl Strategy<Value = Vec<Constraint>> {
        let term = prop_oneof![
            (0u32..4).prop_map(|n| Term::Slot(NodeId(n), sym("A"))),
            (0i64..3).prop_map(|v| Term::Cst(Value::from(v))),
        ];
        let pred = prop_oneof![
            Just(Pred::Eq),
            Just(Pred::Ne),
            Just(Pred::Lt),
            Just(Pred::Gt),
            Just(Pred::Le),
            Just(Pred::Ge),
        ];
        proptest::collection::vec(
            (term.clone(), pred, term).prop_map(|(l, p, r)| Constraint::new(l, p, r)),
            0..6,
        )
    }

    /// Brute-force: try every assignment of the ≤ 4 slots to grid values.
    fn brute_force_satisfiable(constraints: &[Constraint]) -> bool {
        let grid: Vec<Value> = (-6..=10).map(|i| Value::Float(i as f64 * 0.5)).collect();
        let mut slots: Vec<(NodeId, ged_graph::Symbol)> = Vec::new();
        for c in constraints {
            for t in [&c.lhs, &c.rhs] {
                if let Term::Slot(n, a) = t {
                    if !slots.contains(&(*n, *a)) {
                        slots.push((*n, *a));
                    }
                }
            }
        }
        let eval = |t: &Term, assign: &[usize]| -> Value {
            match t {
                Term::Cst(v) => v.clone(),
                Term::Slot(n, a) => {
                    let i = slots.iter().position(|s| s == &(*n, *a)).unwrap();
                    grid[assign[i]].clone()
                }
            }
        };
        let k = slots.len();
        let mut assign = vec![0usize; k];
        loop {
            let all_ok = constraints
                .iter()
                .all(|c| c.pred.eval(&eval(&c.lhs, &assign), &eval(&c.rhs, &assign)));
            if all_ok {
                return true;
            }
            // increment
            let mut d = 0;
            loop {
                if d == k {
                    return false;
                }
                assign[d] += 1;
                if assign[d] < grid.len() {
                    break;
                }
                assign[d] = 0;
                d += 1;
            }
        }
    }

    proptest! {
        /// The solver agrees with brute force on random constraint sets —
        /// both soundness and completeness over the grid-dense domain.
        #[test]
        fn solver_matches_brute_force(cs in arb_constraints()) {
            prop_assert_eq!(consistent(&cs), brute_force_satisfiable(&cs));
        }
    }
}
