//! Equivalence relations over nodes and attribute terms (Section 4.1).
//!
//! The chase operates on an equivalence relation `Eq` with two sorts of
//! classes:
//! * **node classes** `[x]_Eq` — nodes identified as the same entity (via
//!   id literals);
//! * **attribute classes** `[x.A]_Eq` — attribute terms `y.B` and constants
//!   `c` identified with `x.A` (via variable/constant literals).
//!
//! The closure conditions (a)–(d) of Section 4.1 are maintained
//! incrementally:
//! * (a)–(c) symmetry/transitivity — two union–find structures;
//! * (d) congruence — when `[x]` and `[y]` merge, the attribute *slots* of
//!   the two node classes are merged attribute-by-attribute (`[x.B] =
//!   [y.B]` for every known `B`).
//!
//! **Consistency** (Section 4.1): `Eq` is inconsistent iff some node class
//! contains two labels neither of which matches the other under `⪯`
//! (i.e. two distinct non-wildcard labels), or some attribute class
//! contains two distinct constants. Conflicts freeze the relation: after a
//! conflict the state is only good for reporting.
//!
//! Attribute classes without a bound constant behave as *labelled nulls*;
//! they exist because the chase may **generate attributes** on schemaless
//! graphs (cases (1)–(2) of the chase step definition).

use ged_graph::{Graph, NodeId, Symbol, Value};
use std::collections::{BTreeMap, HashMap};

/// Why an equivalence relation became inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conflict {
    /// Two nodes with incomparable labels (under `⪯`) were identified.
    Label {
        /// One member of the merged class.
        a: NodeId,
        /// Its label.
        a_label: Symbol,
        /// Another member.
        b: NodeId,
        /// Its (incomparable) label.
        b_label: Symbol,
    },
    /// An attribute class acquired two distinct constants.
    Attr {
        /// A node whose attribute is in the conflicting class.
        node: NodeId,
        /// The attribute name.
        attr: Symbol,
        /// First constant.
        c1: Value,
        /// Second (distinct) constant.
        c2: Value,
    },
}

impl std::fmt::Display for Conflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Conflict::Label {
                a,
                a_label,
                b,
                b_label,
            } => write!(
                f,
                "label conflict: {a} ({a_label}) identified with {b} ({b_label})"
            ),
            Conflict::Attr { node, attr, c1, c2 } => {
                write!(f, "attribute conflict: {node}.{attr} = {c1} and = {c2}")
            }
        }
    }
}

/// The equivalence relation `Eq` of the chase.
#[derive(Debug, Clone)]
pub struct EqRel {
    // --- node classes ------------------------------------------------
    node_parent: Vec<u32>,
    node_rank: Vec<u8>,
    /// Members per *root* (singleton vecs initially).
    node_members: HashMap<u32, Vec<NodeId>>,
    /// Resolved label per root: the unique non-wildcard label of the class,
    /// or `_` if all members are wildcard-labelled.
    class_label: HashMap<u32, Symbol>,
    // --- attribute classes -------------------------------------------
    attr_parent: Vec<u32>,
    attr_rank: Vec<u8>,
    attr_const: Vec<Option<Value>>,
    /// Attribute slots per node-class root: `A → attr-class id`.
    node_slots: HashMap<u32, BTreeMap<Symbol, u32>>,
    /// Closure condition (b): constants are shared terms — all attribute
    /// terms equal to the same constant `c` form ONE class (`c ∈ [x.A]` and
    /// `c ∈ [z.C]` imply `[x.A] = [z.C]`). This maps each bound constant to
    /// (some id inside) its unique class.
    const_class: HashMap<Value, u32>,
    // --- bookkeeping ---------------------------------------------------
    conflict: Option<Conflict>,
    /// Number of successful literal applications (chase-step count; the
    /// Theorem 1 bound is checked against this).
    additions: usize,
}

impl EqRel {
    /// The initial relation `Eq0` for graph `g` (Section 4.1 "Chasing"):
    /// `[x] = {x}` for every node and `[x.A] = {x.A, c}` for every
    /// attribute `x.A = c` in `F_A`.
    pub fn initial(g: &Graph) -> EqRel {
        // The chase machinery (union-find, coercion, quotient) indexes
        // dense NodeId tables; a graph that evolved through node removal
        // must be compacted first.
        assert!(
            !g.has_removals(),
            "the chase requires a graph without removed nodes — call Graph::compact() first"
        );
        let n = g.node_count();
        let mut eq = EqRel {
            node_parent: (0..n as u32).collect(),
            node_rank: vec![0; n],
            node_members: (0..n as u32).map(|i| (i, vec![NodeId(i)])).collect(),
            class_label: (0..n as u32).map(|i| (i, g.label(NodeId(i)))).collect(),
            attr_parent: Vec::new(),
            attr_rank: Vec::new(),
            attr_const: Vec::new(),
            node_slots: HashMap::new(),
            const_class: HashMap::new(),
            conflict: None,
            additions: 0,
        };
        for v in g.nodes() {
            for &(a, ref val) in g.attrs(v) {
                let slot = eq.fresh_attr_class(None);
                eq.node_slots.entry(v.0).or_default().insert(a, slot);
                // Bind via the shared-constant machinery so that e.g.
                // v1.A = 1 and v2.A = 1 start out in one class (Example 4).
                let val = val.clone();
                eq.bind_const_internal(slot, &val, (v, a));
            }
        }
        debug_assert!(
            eq.is_consistent(),
            "Eq0 of a well-formed graph is consistent"
        );
        eq
    }

    fn fresh_attr_class(&mut self, c: Option<Value>) -> u32 {
        let id = self.attr_parent.len() as u32;
        self.attr_parent.push(id);
        self.attr_rank.push(0);
        self.attr_const.push(c);
        id
    }

    /// Bind constant `c` to the class of `slot`, honouring closure rule (b)
    /// (one class per constant). Returns whether the relation changed.
    fn bind_const_internal(&mut self, slot: u32, c: &Value, witness: (NodeId, Symbol)) -> bool {
        let root = self.find_attr(slot);
        match &self.attr_const[root as usize] {
            Some(existing) if existing == c => false,
            Some(existing) => {
                self.conflict = Some(Conflict::Attr {
                    node: witness.0,
                    attr: witness.1,
                    c1: existing.clone(),
                    c2: c.clone(),
                });
                true
            }
            None => {
                if let Some(&cc) = self.const_class.get(c) {
                    self.union_attr(root, cc, witness)
                } else {
                    self.attr_const[root as usize] = Some(c.clone());
                    self.const_class.insert(c.clone(), root);
                    true
                }
            }
        }
    }

    // ---- find ---------------------------------------------------------

    /// Root of the node class containing `x`.
    pub fn find_node(&self, x: NodeId) -> u32 {
        let mut i = x.0;
        while self.node_parent[i as usize] != i {
            i = self.node_parent[i as usize];
        }
        i
    }

    fn find_node_compress(&mut self, x: NodeId) -> u32 {
        let root = self.find_node(x);
        let mut i = x.0;
        while self.node_parent[i as usize] != root {
            let next = self.node_parent[i as usize];
            self.node_parent[i as usize] = root;
            i = next;
        }
        root
    }

    fn find_attr(&self, a: u32) -> u32 {
        let mut i = a;
        while self.attr_parent[i as usize] != i {
            i = self.attr_parent[i as usize];
        }
        i
    }

    // ---- queries --------------------------------------------------------

    /// Are `x` and `y` in the same node class (`y ∈ [x]_Eq`)?
    pub fn node_eq(&self, x: NodeId, y: NodeId) -> bool {
        self.find_node(x) == self.find_node(y)
    }

    /// The attribute class of `x.A`, if the slot exists.
    pub fn attr_class(&self, x: NodeId, attr: Symbol) -> Option<u32> {
        let root = self.find_node(x);
        self.node_slots
            .get(&root)
            .and_then(|m| m.get(&attr))
            .map(|&c| self.find_attr(c))
    }

    /// Does `x` have a (possibly generated) attribute `A`?
    pub fn has_attr(&self, x: NodeId, attr: Symbol) -> bool {
        self.attr_class(x, attr).is_some()
    }

    /// `y.B ∈ [x.A]_Eq`: both slots exist and share a class.
    pub fn attr_eq(&self, x: NodeId, a: Symbol, y: NodeId, b: Symbol) -> bool {
        match (self.attr_class(x, a), self.attr_class(y, b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// `c ∈ [x.A]_Eq`: the slot exists and is bound to constant `c`.
    pub fn attr_is(&self, x: NodeId, a: Symbol, c: &Value) -> bool {
        self.attr_class(x, a)
            .and_then(|cl| self.attr_const[cl as usize].as_ref())
            .is_some_and(|v| v == c)
    }

    /// The constant bound to `x.A`'s class, if any.
    pub fn attr_value(&self, x: NodeId, a: Symbol) -> Option<&Value> {
        self.attr_class(x, a)
            .and_then(|cl| self.attr_const[cl as usize].as_ref())
    }

    /// The members of `[x]_Eq`.
    pub fn members(&self, x: NodeId) -> &[NodeId] {
        let root = self.find_node(x);
        self.node_members
            .get(&root)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The resolved label of `[x]_Eq` (`_` only when every member is
    /// wildcard-labelled) — the coercion's `L'` (Section 4.1).
    pub fn class_label_of(&self, x: NodeId) -> Symbol {
        let root = self.find_node(x);
        self.class_label[&root]
    }

    /// All attribute slots of `[x]_Eq`: `(attribute, bound constant)`
    /// pairs, including generated attributes (unbound ones have `None`).
    pub fn slots_of(&self, x: NodeId) -> Vec<(Symbol, Option<Value>)> {
        let root = self.find_node(x);
        self.node_slots
            .get(&root)
            .map(|m| {
                m.iter()
                    .map(|(&a, &c)| (a, self.attr_const[self.find_attr(c) as usize].clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The conflict, if the relation became inconsistent.
    pub fn conflict(&self) -> Option<&Conflict> {
        self.conflict.as_ref()
    }

    /// Is the relation consistent?
    pub fn is_consistent(&self) -> bool {
        self.conflict.is_none()
    }

    /// Number of successful literal applications so far.
    pub fn additions(&self) -> usize {
        self.additions
    }

    /// Size of the relation: total node-class memberships plus attribute
    /// terms plus bound constants — the quantity bounded by `4·|G|·|Σ|` in
    /// the proof of Theorem 1.
    pub fn size(&self) -> usize {
        let nodes: usize = self.node_members.values().map(Vec::len).sum();
        let slots: usize = self.node_slots.values().map(BTreeMap::len).sum();
        let consts = self
            .attr_const
            .iter()
            .enumerate()
            .filter(|(i, c)| self.find_attr(*i as u32) == *i as u32 && c.is_some())
            .count();
        nodes + slots + consts
    }

    // ---- mutation ------------------------------------------------------

    fn ensure_slot(&mut self, x: NodeId, attr: Symbol) -> u32 {
        let root = self.find_node_compress(x);
        if let Some(&c) = self.node_slots.get(&root).and_then(|m| m.get(&attr)) {
            return self.find_attr(c);
        }
        let slot = self.fresh_attr_class(None);
        self.node_slots.entry(root).or_default().insert(attr, slot);
        slot
    }

    fn union_attr(&mut self, a: u32, b: u32, witness: (NodeId, Symbol)) -> bool {
        let (ra, rb) = (self.find_attr(a), self.find_attr(b));
        if ra == rb {
            return false;
        }
        // constant merge / conflict
        let merged = match (
            self.attr_const[ra as usize].clone(),
            self.attr_const[rb as usize].clone(),
        ) {
            (Some(c1), Some(c2)) if c1 != c2 => {
                self.conflict = Some(Conflict::Attr {
                    node: witness.0,
                    attr: witness.1,
                    c1,
                    c2,
                });
                return true; // changed (into conflict)
            }
            (Some(c), _) | (_, Some(c)) => Some(c),
            (None, None) => None,
        };
        let (hi, lo) = if self.attr_rank[ra as usize] >= self.attr_rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.attr_parent[lo as usize] = hi;
        if self.attr_rank[hi as usize] == self.attr_rank[lo as usize] {
            self.attr_rank[hi as usize] += 1;
        }
        self.attr_const[hi as usize] = merged;
        true
    }

    /// Apply constant literal `x.A = c` (chase-step case (1)). Returns
    /// `true` if `Eq` changed (including into a conflict); `false` when the
    /// literal was already entailed.
    pub fn apply_const(&mut self, x: NodeId, attr: Symbol, c: &Value) -> bool {
        debug_assert!(self.conflict.is_none(), "EqRel is frozen after a conflict");
        if self.attr_is(x, attr, c) {
            return false;
        }
        let slot = self.ensure_slot(x, attr);
        let changed = self.bind_const_internal(slot, c, (x, attr));
        if changed {
            self.additions += 1;
        }
        changed
    }

    /// Apply variable literal `x.A = y.B` (chase-step case (2)).
    pub fn apply_attr_eq(&mut self, x: NodeId, a: Symbol, y: NodeId, b: Symbol) -> bool {
        debug_assert!(self.conflict.is_none(), "EqRel is frozen after a conflict");
        if self.attr_eq(x, a, y, b) {
            return false;
        }
        let sa = self.ensure_slot(x, a);
        let sb = self.ensure_slot(y, b);
        let changed = self.union_attr(sa, sb, (x, a));
        if changed {
            self.additions += 1;
        }
        changed
    }

    /// Apply id literal `x.id = y.id` (chase-step case (3)): merge node
    /// classes, their labels, and — congruence (d) — their attribute slots.
    pub fn apply_id(&mut self, x: NodeId, y: NodeId) -> bool {
        debug_assert!(self.conflict.is_none(), "EqRel is frozen after a conflict");
        let (rx, ry) = (self.find_node_compress(x), self.find_node_compress(y));
        if rx == ry {
            return false;
        }
        self.additions += 1;
        // label resolution under ⪯: conflict iff two distinct non-wildcards
        let (lx, ly) = (self.class_label[&rx], self.class_label[&ry]);
        let label = if lx.is_wildcard() {
            ly
        } else if ly.is_wildcard() || lx == ly {
            lx
        } else {
            self.conflict = Some(Conflict::Label {
                a: self.node_members[&rx][0],
                a_label: lx,
                b: self.node_members[&ry][0],
                b_label: ly,
            });
            return true;
        };
        let (hi, lo) = if self.node_rank[rx as usize] >= self.node_rank[ry as usize] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.node_parent[lo as usize] = hi;
        if self.node_rank[hi as usize] == self.node_rank[lo as usize] {
            self.node_rank[hi as usize] += 1;
        }
        self.class_label.insert(hi, label);
        let lo_members = self.node_members.remove(&lo).unwrap_or_default();
        self.node_members.entry(hi).or_default().extend(lo_members);
        // congruence: merge slot maps attribute-by-attribute
        let lo_slots = self.node_slots.remove(&lo).unwrap_or_default();
        for (attr, slot) in lo_slots {
            let existing = self.node_slots.get(&hi).and_then(|m| m.get(&attr)).copied();
            match existing {
                Some(hslot) => {
                    let witness = self.node_members[&hi][0];
                    self.union_attr(hslot, slot, (witness, attr));
                    if self.conflict.is_some() {
                        return true;
                    }
                }
                None => {
                    self.node_slots.entry(hi).or_default().insert(attr, slot);
                }
            }
        }
        true
    }

    /// A canonical, order-independent summary of the relation: the node
    /// partition (sorted), each attribute class as a sorted set of
    /// `(node, attr)` terms with its bound constant. Two chases agree
    /// (Church–Rosser) iff their summaries are equal.
    pub fn summary(&self) -> EqSummary {
        let mut partition: Vec<Vec<NodeId>> = self
            .node_members
            .values()
            .map(|ms| {
                let mut v = ms.clone();
                v.sort_unstable();
                v
            })
            .collect();
        partition.sort();
        // attribute classes: group every (member-node, attr) term by root
        let mut classes: HashMap<u32, AttrClass> = HashMap::new();
        for (&node_root, slots) in &self.node_slots {
            let members = &self.node_members[&node_root];
            for (&attr, &slot) in slots {
                let root = self.find_attr(slot);
                let entry = classes
                    .entry(root)
                    .or_insert_with(|| (Vec::new(), self.attr_const[root as usize].clone()));
                for &m in members {
                    entry.0.push((m, attr.name()));
                }
            }
        }
        let mut attr_classes: Vec<AttrClass> = classes
            .into_values()
            .map(|(mut terms, c)| {
                terms.sort();
                terms.dedup();
                (terms, c)
            })
            .collect();
        attr_classes.sort();
        EqSummary {
            consistent: self.is_consistent(),
            partition,
            attr_classes,
        }
    }
}

/// One canonical attribute class: sorted `(node, attr-name)` terms plus
/// the constant the class is bound to, if any.
pub type AttrClass = (Vec<(NodeId, String)>, Option<Value>);

/// Canonical description of an [`EqRel`]; used by the Church–Rosser tests
/// and by result comparison in `chase::ChaseResult`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqSummary {
    /// Whether the relation is consistent.
    pub consistent: bool,
    /// Node partition, canonically sorted.
    pub partition: Vec<Vec<NodeId>>,
    /// Attribute classes: sorted `(node, attr-name)` terms + bound constant.
    pub attr_classes: Vec<AttrClass>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{sym, GraphBuilder};

    fn two_nodes() -> (Graph, NodeId, NodeId) {
        let mut b = GraphBuilder::new();
        let a = b.node("a", "t");
        let c = b.node("c", "t");
        (b.build(), a, c)
    }

    #[test]
    fn initial_relation_reflects_graph_attrs() {
        let mut b = GraphBuilder::new();
        b.node("v", "t");
        b.attr("v", "A", 1);
        let g = b.build();
        let v = g.nodes().next().unwrap();
        let eq = EqRel::initial(&g);
        assert!(eq.attr_is(v, sym("A"), &Value::from(1)));
        assert!(!eq.attr_is(v, sym("A"), &Value::from(2)));
        assert!(!eq.has_attr(v, sym("B")));
        assert!(eq.is_consistent());
        assert_eq!(eq.additions(), 0);
    }

    #[test]
    fn apply_const_generates_attribute() {
        let (g, a, _) = two_nodes();
        let mut eq = EqRel::initial(&g);
        assert!(eq.apply_const(a, sym("A"), &Value::from(5)));
        assert!(eq.attr_is(a, sym("A"), &Value::from(5)));
        // idempotent
        assert!(!eq.apply_const(a, sym("A"), &Value::from(5)));
        assert_eq!(eq.additions(), 1);
    }

    #[test]
    fn conflicting_constants_are_detected() {
        let (g, a, _) = two_nodes();
        let mut eq = EqRel::initial(&g);
        eq.apply_const(a, sym("A"), &Value::from(1));
        assert!(eq.apply_const(a, sym("A"), &Value::from(2)));
        assert!(!eq.is_consistent());
        assert!(matches!(eq.conflict(), Some(Conflict::Attr { .. })));
    }

    #[test]
    fn attr_eq_unions_classes_and_propagates_constants() {
        let (g, a, c) = two_nodes();
        let mut eq = EqRel::initial(&g);
        eq.apply_const(a, sym("A"), &Value::from(7));
        assert!(eq.apply_attr_eq(a, sym("A"), c, sym("B")));
        assert!(eq.attr_eq(a, sym("A"), c, sym("B")));
        assert!(
            eq.attr_is(c, sym("B"), &Value::from(7)),
            "constant propagates"
        );
        assert!(!eq.apply_attr_eq(a, sym("A"), c, sym("B")), "idempotent");
    }

    #[test]
    fn attr_eq_conflicting_constants() {
        let (g, a, c) = two_nodes();
        let mut eq = EqRel::initial(&g);
        eq.apply_const(a, sym("A"), &Value::from(1));
        eq.apply_const(c, sym("B"), &Value::from(2));
        assert!(eq.apply_attr_eq(a, sym("A"), c, sym("B")));
        assert!(!eq.is_consistent());
    }

    #[test]
    fn id_merge_and_congruence() {
        // x.A = 3; merge x,y; then y.A must be 3 (condition (d)).
        let (g, a, c) = two_nodes();
        let mut eq = EqRel::initial(&g);
        eq.apply_const(a, sym("A"), &Value::from(3));
        assert!(eq.apply_id(a, c));
        assert!(eq.node_eq(a, c));
        assert!(eq.attr_is(c, sym("A"), &Value::from(3)), "congruence (d)");
        assert_eq!(eq.members(a).len(), 2);
        assert!(!eq.apply_id(c, a), "idempotent");
    }

    #[test]
    fn id_merge_with_conflicting_attrs() {
        let (g, a, c) = two_nodes();
        let mut eq = EqRel::initial(&g);
        eq.apply_const(a, sym("A"), &Value::from(1));
        eq.apply_const(c, sym("A"), &Value::from(2));
        assert!(eq.apply_id(a, c));
        assert!(
            !eq.is_consistent(),
            "merging nodes with A=1 and A=2 conflicts"
        );
    }

    #[test]
    fn label_conflicts() {
        let mut b = GraphBuilder::new();
        let x = b.node("x", "b");
        let y = b.node("y", "c");
        let w = b.node("w", "_");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        // wildcard merges fine with a concrete label, result is concrete
        assert!(eq.apply_id(w, x));
        assert!(eq.is_consistent());
        assert_eq!(eq.class_label_of(w), sym("b"));
        // but b and c conflict
        assert!(eq.apply_id(x, y));
        assert!(matches!(eq.conflict(), Some(Conflict::Label { .. })));
    }

    #[test]
    fn transitivity_through_merges() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|i| b.node(&format!("n{i}"), "t")).collect();
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_id(n[0], n[1]);
        eq.apply_id(n[1], n[2]);
        assert!(eq.node_eq(n[0], n[2]));
        assert_eq!(eq.members(n[0]).len(), 3);
    }

    #[test]
    fn attr_transitivity_across_nodes() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|i| b.node(&format!("n{i}"), "t")).collect();
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_attr_eq(n[0], sym("A"), n[1], sym("B"));
        eq.apply_attr_eq(n[1], sym("B"), n[2], sym("C"));
        assert!(eq.attr_eq(n[0], sym("A"), n[2], sym("C")));
    }

    #[test]
    fn congruence_merges_slot_classes() {
        // x.A = y.B established; then merge y and z where z.B = 9;
        // afterwards x.A must be 9 via [y.B] = [z.B].
        let mut b = GraphBuilder::new();
        let x = b.node("x", "t");
        let y = b.node("y", "t");
        let z = b.node("z", "t");
        let g = b.build();
        let mut eq = EqRel::initial(&g);
        eq.apply_attr_eq(x, sym("A"), y, sym("B"));
        eq.apply_const(z, sym("B"), &Value::from(9));
        eq.apply_id(y, z);
        assert!(eq.is_consistent());
        assert!(eq.attr_is(x, sym("A"), &Value::from(9)));
    }

    #[test]
    fn summary_is_order_independent() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.node(&format!("n{i}"), "t")).collect();
        let g = b.build();
        let mut eq1 = EqRel::initial(&g);
        eq1.apply_id(n[0], n[1]);
        eq1.apply_const(n[2], sym("A"), &Value::from(1));
        eq1.apply_attr_eq(n[2], sym("A"), n[3], sym("A"));
        let mut eq2 = EqRel::initial(&g);
        eq2.apply_attr_eq(n[3], sym("A"), n[2], sym("A"));
        eq2.apply_id(n[1], n[0]);
        eq2.apply_const(n[3], sym("A"), &Value::from(1));
        assert_eq!(eq1.summary(), eq2.summary());
    }

    #[test]
    fn size_accounts_members_slots_and_constants() {
        let (g, a, c) = two_nodes();
        let mut eq = EqRel::initial(&g);
        assert_eq!(eq.size(), 2, "two singleton node classes");
        eq.apply_const(a, sym("A"), &Value::from(1));
        assert_eq!(eq.size(), 2 + 1 + 1, "slot + constant");
        eq.apply_id(a, c);
        assert_eq!(eq.size(), 2 + 1 + 1, "merge does not grow the size");
    }
}
