//! Relational dependencies as GEDs (Section 3, special case (5)).
//!
//! When relation tuples are represented as nodes of a graph (one node per
//! tuple, labelled with the relation name, one attribute per column), GEDs
//! express classical relational dependencies:
//!
//! * an **FD** `R(A1 … An → B)` becomes a GED over a two-node pattern
//!   (two `R`-tuples) with variable literals;
//! * a **CFD** `R(A1 = c1, … → B = cb)` adds constant literals (pattern
//!   tableau);
//! * an **EGD** `∀z̄ (φ(z̄) → y1 = y2)` becomes the *pair* of GFDs `φ_R`
//!   (attribute existence) and `φ_E` (the equality enforcement) described
//!   in the paper.
//!
//! This module provides the tuple-to-node encoding, the dependency
//! translations, and a small native relational checker used by the
//! cross-validation tests (EXP-REL): validating the encoded GEDs on the
//! encoded instance must agree with checking the relational dependency
//! directly on the tables.

use crate::ged::Ged;
use crate::literal::Literal;
use ged_graph::{Graph, Symbol, Value};
use ged_pattern::{Pattern, Var};
use std::collections::HashMap;

/// A relation instance: name, column names, and rows.
#[derive(Debug, Clone)]
pub struct Relation {
    /// Relation name (becomes the node label).
    pub name: String,
    /// Column names (become attribute names).
    pub columns: Vec<String>,
    /// Rows (each as wide as `columns`).
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Build a relation, checking row widths.
    pub fn new(name: &str, columns: &[&str], rows: Vec<Vec<Value>>) -> Relation {
        for r in &rows {
            assert_eq!(r.len(), columns.len(), "row arity mismatch");
        }
        Relation {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows,
        }
    }

    /// Column index by name.
    pub fn col(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {}", self.name))
    }
}

/// Encode relations as a graph: one node per tuple, labelled with the
/// relation name, one attribute per column (Section 3's representation).
pub fn encode_relations(relations: &[Relation]) -> Graph {
    let mut g = Graph::new();
    for rel in relations {
        let label = Symbol::new(&rel.name);
        for row in &rel.rows {
            let n = g.add_node(label);
            for (ci, v) in row.iter().enumerate() {
                g.set_attr(n, Symbol::new(&rel.columns[ci]), v.clone());
            }
        }
    }
    g
}

/// A relational functional dependency `R : LHS → RHS`.
#[derive(Debug, Clone)]
pub struct Fd {
    /// Relation name.
    pub relation: String,
    /// Determinant columns.
    pub lhs: Vec<String>,
    /// Dependent columns.
    pub rhs: Vec<String>,
}

/// Translate an FD into a GED over a two-tuple pattern: equal LHS columns
/// imply equal RHS columns.
pub fn fd_to_ged(fd: &Fd) -> Ged {
    let mut q = Pattern::new();
    let t1 = q.var("t1", &fd.relation);
    let t2 = q.var("t2", &fd.relation);
    let premises: Vec<Literal> = fd
        .lhs
        .iter()
        .map(|c| Literal::vars(t1, Symbol::new(c), t2, Symbol::new(c)))
        .collect();
    let conclusions: Vec<Literal> = fd
        .rhs
        .iter()
        .map(|c| Literal::vars(t1, Symbol::new(c), t2, Symbol::new(c)))
        .collect();
    Ged::new(
        format!("FD:{}({:?}→{:?})", fd.relation, fd.lhs, fd.rhs),
        q,
        premises,
        conclusions,
    )
}

/// One cell of a CFD pattern tableau: a column paired with either a
/// constant or the unnamed variable `_`.
#[derive(Debug, Clone)]
pub enum TableauCell {
    /// The column must equal this constant.
    Const(Value),
    /// Unconstrained (`_` in CFD notation).
    Any,
}

/// A conditional functional dependency `R(LHS → RHS, tp)` \[21\].
#[derive(Debug, Clone)]
pub struct Cfd {
    /// Relation name.
    pub relation: String,
    /// LHS columns with their tableau cells.
    pub lhs: Vec<(String, TableauCell)>,
    /// RHS column with its tableau cell.
    pub rhs: (String, TableauCell),
}

/// Translate a CFD into a GED. Constant cells become constant literals;
/// `_` cells become variable literals across the two tuples.
pub fn cfd_to_ged(cfd: &Cfd) -> Ged {
    let mut q = Pattern::new();
    let t1 = q.var("t1", &cfd.relation);
    let t2 = q.var("t2", &cfd.relation);
    let mut premises = Vec::new();
    for (c, cell) in &cfd.lhs {
        let a = Symbol::new(c);
        match cell {
            TableauCell::Const(v) => {
                premises.push(Literal::constant(t1, a, v.clone()));
                premises.push(Literal::constant(t2, a, v.clone()));
            }
            TableauCell::Any => premises.push(Literal::vars(t1, a, t2, a)),
        }
    }
    let a = Symbol::new(&cfd.rhs.0);
    let conclusions = match &cfd.rhs.1 {
        TableauCell::Const(v) => vec![
            Literal::constant(t1, a, v.clone()),
            Literal::constant(t2, a, v.clone()),
        ],
        TableauCell::Any => vec![Literal::vars(t1, a, t2, a)],
    };
    Ged::new(format!("CFD:{}", cfd.relation), q, premises, conclusions)
}

/// An equality-generating dependency `∀z̄ (φ(z̄) → w1 = w2)` where `φ` is a
/// conjunction of relation atoms and equality atoms over variables; each
/// variable occurrence is a `(atom index, column)` position.
#[derive(Debug, Clone)]
pub struct Egd {
    /// Relation atoms: the relation name of each atom, in order.
    pub atoms: Vec<String>,
    /// Equality atoms `w_i = w_j` as pairs of positions
    /// `((atom, column), (atom, column))`.
    pub equalities: Vec<((usize, String), (usize, String))>,
    /// The conclusion equality `y1 = y2` as a pair of positions.
    pub conclusion: ((usize, String), (usize, String)),
}

/// Translate an EGD into the paper's *pair* of GFDs `(φ_R, φ_E)`:
/// `φ_R` forces every mentioned attribute to exist on the relation nodes,
/// `φ_E` enforces the implication.
pub fn egd_to_geds(egd: &Egd) -> (Ged, Ged) {
    // The shared edgeless pattern Q_E: one node per relation atom.
    let mut q = Pattern::new();
    let vars: Vec<Var> = egd
        .atoms
        .iter()
        .enumerate()
        .map(|(i, r)| q.var(&format!("x{i}"), r))
        .collect();
    // φ_R: every attribute used anywhere must exist (x.A = x.A).
    let mut mentioned: Vec<(usize, String)> = Vec::new();
    for (p1, p2) in &egd.equalities {
        mentioned.push(p1.clone());
        mentioned.push(p2.clone());
    }
    mentioned.push(egd.conclusion.0.clone());
    mentioned.push(egd.conclusion.1.clone());
    mentioned.sort();
    mentioned.dedup();
    let y_r: Vec<Literal> = mentioned
        .iter()
        .map(|(i, c)| {
            let a = Symbol::new(c);
            Literal::vars(vars[*i], a, vars[*i], a)
        })
        .collect();
    let phi_r = Ged::new("φ_R", q.clone(), vec![], y_r);
    // φ_E: the equalities imply the conclusion.
    let lit_of = |p: &(usize, String), p2: &(usize, String)| {
        Literal::vars(vars[p.0], Symbol::new(&p.1), vars[p2.0], Symbol::new(&p2.1))
    };
    let x_e: Vec<Literal> = egd
        .equalities
        .iter()
        .map(|(p1, p2)| lit_of(p1, p2))
        .collect();
    let y_e = vec![lit_of(&egd.conclusion.0, &egd.conclusion.1)];
    let phi_e = Ged::new("φ_E", q, x_e, y_e);
    (phi_r, phi_e)
}

// --------------------------------------------------------------------
// Native relational checkers (cross-validation oracles for EXP-REL).
// --------------------------------------------------------------------

/// Does the relation satisfy the FD (classical definition)?
pub fn relation_satisfies_fd(rel: &Relation, fd: &Fd) -> bool {
    assert_eq!(rel.name, fd.relation);
    let lhs: Vec<usize> = fd.lhs.iter().map(|c| rel.col(c)).collect();
    let rhs: Vec<usize> = fd.rhs.iter().map(|c| rel.col(c)).collect();
    let mut seen: HashMap<Vec<&Value>, Vec<&Value>> = HashMap::new();
    for row in &rel.rows {
        let k: Vec<&Value> = lhs.iter().map(|&i| &row[i]).collect();
        let v: Vec<&Value> = rhs.iter().map(|&i| &row[i]).collect();
        match seen.get(&k) {
            Some(prev) if *prev != v => return false,
            Some(_) => {}
            None => {
                seen.insert(k, v);
            }
        }
    }
    true
}

/// Does the relation satisfy the CFD (per \[21\])?
pub fn relation_satisfies_cfd(rel: &Relation, cfd: &Cfd) -> bool {
    assert_eq!(rel.name, cfd.relation);
    let matches_lhs = |row: &[Value]| -> bool {
        cfd.lhs.iter().all(|(c, cell)| match cell {
            TableauCell::Const(v) => &row[rel.col(c)] == v,
            TableauCell::Any => true,
        })
    };
    let free_lhs: Vec<usize> = cfd
        .lhs
        .iter()
        .filter(|(_, cell)| matches!(cell, TableauCell::Any))
        .map(|(c, _)| rel.col(c))
        .collect();
    let rhs_i = rel.col(&cfd.rhs.0);
    for (i, r1) in rel.rows.iter().enumerate() {
        if !matches_lhs(r1) {
            continue;
        }
        for r2 in rel.rows.iter().skip(i) {
            if !matches_lhs(r2) {
                continue;
            }
            if free_lhs.iter().any(|&c| r1[c] != r2[c]) {
                continue;
            }
            match &cfd.rhs.1 {
                TableauCell::Const(v) => {
                    if &r1[rhs_i] != v || &r2[rhs_i] != v {
                        return false;
                    }
                }
                TableauCell::Any => {
                    if r1[rhs_i] != r2[rhs_i] {
                        return false;
                    }
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Rule;
    use crate::satisfy::satisfies;

    fn v(s: &str) -> Value {
        Value::from(s)
    }

    fn employees(rows: Vec<Vec<Value>>) -> Relation {
        Relation::new("emp", &["eid", "dept", "mgr", "cc"], rows)
    }

    #[test]
    fn encoding_produces_one_node_per_tuple() {
        let rel = employees(vec![
            vec![v("e1"), v("sales"), v("m1"), v("44")],
            vec![v("e2"), v("sales"), v("m1"), v("44")],
        ]);
        let g = encode_relations(&[rel]);
        assert_eq!(g.node_count(), 2);
        let n = g.nodes().next().unwrap();
        assert_eq!(g.attr(n, Symbol::new("dept")), Some(&v("sales")));
    }

    #[test]
    fn fd_agreement_with_native_checker() {
        let fd = Fd {
            relation: "emp".into(),
            lhs: vec!["dept".into()],
            rhs: vec!["mgr".into()],
        };
        let good = employees(vec![
            vec![v("e1"), v("sales"), v("m1"), v("44")],
            vec![v("e2"), v("sales"), v("m1"), v("31")],
            vec![v("e3"), v("hr"), v("m2"), v("44")],
        ]);
        let bad = employees(vec![
            vec![v("e1"), v("sales"), v("m1"), v("44")],
            vec![v("e2"), v("sales"), v("m9"), v("44")],
        ]);
        let ged = Rule::from(fd_to_ged(&fd));
        for (rel, expect) in [(&good, true), (&bad, false)] {
            assert_eq!(relation_satisfies_fd(rel, &fd), expect);
            let g = encode_relations(std::slice::from_ref(rel));
            assert_eq!(satisfies(&g, &ged), expect, "graph encoding agrees");
        }
    }

    #[test]
    fn cfd_agreement_with_native_checker() {
        // CFD: cc = 44 ∧ dept free → mgr free-equal (a standard [21]-style
        // conditional rule: within cc=44, dept determines mgr).
        let cfd = Cfd {
            relation: "emp".into(),
            lhs: vec![
                ("cc".into(), TableauCell::Const(v("44"))),
                ("dept".into(), TableauCell::Any),
            ],
            rhs: ("mgr".into(), TableauCell::Any),
        };
        let good = employees(vec![
            vec![v("e1"), v("sales"), v("m1"), v("44")],
            vec![v("e2"), v("sales"), v("m1"), v("44")],
            // outside the condition: free to differ
            vec![v("e3"), v("sales"), v("m9"), v("31")],
        ]);
        let bad = employees(vec![
            vec![v("e1"), v("sales"), v("m1"), v("44")],
            vec![v("e2"), v("sales"), v("m9"), v("44")],
        ]);
        let ged = Rule::from(cfd_to_ged(&cfd));
        for (rel, expect) in [(&good, true), (&bad, false)] {
            assert_eq!(relation_satisfies_cfd(rel, &cfd), expect);
            let g = encode_relations(std::slice::from_ref(rel));
            assert_eq!(satisfies(&g, &ged), expect);
        }
    }

    #[test]
    fn cfd_with_constant_rhs() {
        // cc = 44 → dept = sales.
        let cfd = Cfd {
            relation: "emp".into(),
            lhs: vec![("cc".into(), TableauCell::Const(v("44")))],
            rhs: ("dept".into(), TableauCell::Const(v("sales"))),
        };
        let bad = employees(vec![vec![v("e1"), v("hr"), v("m1"), v("44")]]);
        let ged = Rule::from(cfd_to_ged(&cfd));
        let g = encode_relations(std::slice::from_ref(&bad));
        assert!(!relation_satisfies_cfd(&bad, &cfd));
        assert!(!satisfies(&g, &ged));
    }

    #[test]
    fn egd_pair_structure() {
        // EGD: R(x, y) ∧ R(x', y') ∧ x = x' → y = y' (an FD as an EGD).
        let egd = Egd {
            atoms: vec!["R".into(), "R".into()],
            equalities: vec![((0, "a".into()), (1, "a".into()))],
            conclusion: ((0, "b".into()), (1, "b".into())),
        };
        let (phi_r, phi_e) = egd_to_geds(&egd);
        assert!(phi_r.is_gfd() && phi_e.is_gfd(), "EGDs become GFDs");
        assert_eq!(phi_r.pattern.edge_count(), 0, "Q_E has no edges");
        assert_eq!(phi_e.premises.len(), 1);
        assert_eq!(phi_e.conclusions.len(), 1);
        // Validate on data: R = {(1, 2), (1, 3)} violates.
        let rel = Relation::new(
            "R",
            &["a", "b"],
            vec![
                vec![Value::from(1), Value::from(2)],
                vec![Value::from(1), Value::from(3)],
            ],
        );
        let g = encode_relations(&[rel]);
        assert!(satisfies(&g, &phi_r.into()), "attributes all exist");
        assert!(!satisfies(&g, &phi_e.into()), "the equality is violated");
    }

    #[test]
    fn egd_attribute_existence_half() {
        // φ_R catches a tuple missing a mentioned attribute.
        let egd = Egd {
            atoms: vec!["R".into()],
            equalities: vec![],
            conclusion: ((0, "b".into()), (0, "b".into())),
        };
        let (phi_r, _) = egd_to_geds(&egd);
        let mut g = Graph::new();
        g.add_node(Symbol::new("R")); // node with no attributes
        assert!(!satisfies(&g, &phi_r.into()));
    }
}
