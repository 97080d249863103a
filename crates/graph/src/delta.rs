//! Graph deltas: the update language of the incremental validation engine.
//!
//! A [`Delta`] is one elementary update to a property graph — node and edge
//! insertion/removal plus attribute writes — and a [`DeltaSet`] is an
//! ordered batch of them. [`Graph::apply_delta`] applies one delta and
//! reports a [`DeltaEffect`]: whether anything changed, which nodes were
//! *touched* (their attribute tuple or incident-edge structure grew or
//! changed in place, or they were removed), and which node (if any) was
//! created.
//!
//! The touched-node discipline is what makes incremental validation sound
//! (see `ged-engine`): a delta can only create a **new** violating match if
//! the match's image intersects the touched set, while purely destructive
//! deltas (edge/node removal) can only *destroy* matches, never create
//! them — matching is monotone in the graph and literal satisfaction reads
//! only the attributes of matched nodes.

use crate::graph::{Graph, NodeId};
use crate::symbol::Symbol;
use crate::value::Value;
use std::borrow::Cow;
use std::fmt;

/// One elementary graph update.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Insert a fresh node with the given label.
    AddNode {
        /// Label of the new node.
        label: Symbol,
    },
    /// Remove a node, its attribute tuple, and every incident edge.
    RemoveNode {
        /// The node to remove.
        node: NodeId,
    },
    /// Insert edge `(src, label, dst)` (no-op if present — E is a set).
    AddEdge {
        /// Source node.
        src: NodeId,
        /// Edge label.
        label: Symbol,
        /// Destination node.
        dst: NodeId,
    },
    /// Remove edge `(src, label, dst)` (no-op if absent).
    RemoveEdge {
        /// Source node.
        src: NodeId,
        /// Edge label.
        label: Symbol,
        /// Destination node.
        dst: NodeId,
    },
    /// Set `node.attr = value` (insert or overwrite).
    SetAttr {
        /// The node whose tuple changes.
        node: NodeId,
        /// Attribute name (must not be `id`).
        attr: Symbol,
        /// New value.
        value: Value,
    },
    /// Delete attribute `attr` from `node` (no-op if absent).
    DelAttr {
        /// The node whose tuple changes.
        node: NodeId,
        /// Attribute name.
        attr: Symbol,
    },
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delta::AddNode { label } => write!(f, "+node({label})"),
            Delta::RemoveNode { node } => write!(f, "-node({node})"),
            Delta::AddEdge { src, label, dst } => write!(f, "+edge({src} -[{label}]-> {dst})"),
            Delta::RemoveEdge { src, label, dst } => write!(f, "-edge({src} -[{label}]-> {dst})"),
            Delta::SetAttr { node, attr, value } => write!(f, "set({node}.{attr} = {value})"),
            Delta::DelAttr { node, attr } => write!(f, "del({node}.{attr})"),
        }
    }
}

/// An ordered batch of deltas, applied left to right.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSet {
    deltas: Vec<Delta>,
}

impl DeltaSet {
    /// An empty batch.
    pub fn new() -> DeltaSet {
        DeltaSet::default()
    }

    /// Append one delta.
    pub fn push(&mut self, d: Delta) {
        self.deltas.push(d);
    }

    /// The deltas in application order.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Number of deltas in the batch.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

impl From<Vec<Delta>> for DeltaSet {
    fn from(deltas: Vec<Delta>) -> DeltaSet {
        DeltaSet { deltas }
    }
}

impl FromIterator<Delta> for DeltaSet {
    fn from_iter<I: IntoIterator<Item = Delta>>(iter: I) -> DeltaSet {
        DeltaSet {
            deltas: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for DeltaSet {
    type Item = Delta;
    type IntoIter = std::vec::IntoIter<Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.into_iter()
    }
}

impl<'a> IntoIterator for &'a DeltaSet {
    type Item = &'a Delta;
    type IntoIter = std::slice::Iter<'a, Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.iter()
    }
}

/// What applying one [`Delta`] did to the graph. Plain data, no heap: a
/// batch of effects costs the allocator nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaEffect {
    /// Did the graph change at all? `false` for no-ops (duplicate edge
    /// insert, removing an absent edge/attr, touching a dead node, …).
    pub changed: bool,
    /// The node created by an `AddNode`.
    pub created: Option<NodeId>,
    /// Nodes whose attribute tuple or incident-edge structure this delta
    /// changed — the locality footprint of the update, `Some` ids first
    /// (iterate it with `.into_iter().flatten()`). Only matches whose
    /// image intersects this set can change violation status. Node and
    /// attribute deltas report their one node — a removed node reports
    /// itself (its id is dead afterwards); edge deltas report both
    /// endpoints, a self loop's once. Empty when nothing changed.
    pub touched: [Option<NodeId>; 2],
}

impl DeltaEffect {
    /// A change whose footprint is `a` and `b` (once, if they coincide).
    fn touching(a: NodeId, b: NodeId) -> DeltaEffect {
        DeltaEffect {
            changed: true,
            created: None,
            touched: [Some(a), (b != a).then_some(b)],
        }
    }
}

/// Deltas per window of [`Graph::apply_batch`]. The window exists only so
/// that a whole 8 MB frame (≈ 140 000 deltas) does not warm more than a
/// core's cache holds. 64 is the smallest size that applied like a whole
/// 512-delta batch: on a 200 000-node social graph (2-vCPU Xeon, 2 MiB L2)
/// windows of 64, 256 and 512 read 499–505 ns per delta, 16 read 515 and
/// no warm pass 658; 64 deltas load a few dozen KB.
const WARM_WINDOW: usize = 64;

impl Graph {
    /// Apply `deltas` left to right, handing each delta and its
    /// [`DeltaEffect`] to `each` as it is applied — the same effects, in
    /// the same order, as [`Graph::apply_delta`] one delta at a time.
    /// Before a window of deltas is applied, a read-only pass loads what
    /// it will touch, so their cache misses overlap instead of queueing
    /// one delta after another (DESIGN.md §8).
    pub fn apply_batch(&mut self, deltas: &[Delta], mut each: impl FnMut(&Delta, DeltaEffect)) {
        for window in deltas.chunks(WARM_WINDOW) {
            self.warm(window);
            for delta in window {
                each(delta, self.apply_delta(delta));
            }
        }
    }

    /// Apply one delta, reporting its [`DeltaEffect`].
    ///
    /// Deltas referencing dead or out-of-range nodes are treated as no-ops
    /// (`changed == false`) rather than panicking, so randomly generated
    /// update streams can be replayed without pre-filtering.
    pub fn apply_delta(&mut self, delta: &Delta) -> DeltaEffect {
        let (changed, a, b) = match *delta {
            Delta::AddNode { label } => {
                let id = self.add_node(label);
                return DeltaEffect {
                    created: Some(id),
                    ..DeltaEffect::touching(id, id)
                };
            }
            Delta::RemoveNode { node } => (self.remove_node(node), node, node),
            Delta::AddEdge { src, label, dst } => {
                let alive = self.is_alive(src) && self.is_alive(dst);
                (alive && self.link(src, label, dst), src, dst)
            }
            Delta::RemoveEdge { src, label, dst } => (self.remove_edge(src, label, dst), src, dst),
            Delta::SetAttr {
                node,
                attr,
                ref value,
            } => {
                // `id` is the node identity, not a stored attribute
                // (Graph::set_attr rejects it); keep the no-panic contract.
                let writes = attr != Symbol::ID
                    && self.is_alive(node)
                    && self.write_attr(node, attr, Cow::Borrowed(value));
                (writes, node, node)
            }
            Delta::DelAttr { node, attr } => (self.remove_attr(node, attr).is_some(), node, node),
        };
        if changed {
            DeltaEffect::touching(a, b)
        } else {
            DeltaEffect::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym;

    #[test]
    fn add_node_and_edge_report_touched() {
        let mut g = Graph::new();
        let eff = g.apply_delta(&Delta::AddNode { label: sym("t") });
        let a = eff.created.unwrap();
        assert!(eff.changed);
        assert_eq!(eff.touched, [Some(a), None]);
        let b = g
            .apply_delta(&Delta::AddNode { label: sym("t") })
            .created
            .unwrap();
        let eff = g.apply_delta(&Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert!(eff.changed);
        assert_eq!(eff.touched, [Some(a), Some(b)]);
        // Duplicate insert: E is a set, so a no-op.
        let eff = g.apply_delta(&Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert!(!eff.changed);
    }

    #[test]
    fn self_loop_edge_touches_once() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let eff = g.apply_delta(&Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: a,
        });
        assert_eq!(eff.touched, [Some(a), None]);
    }

    #[test]
    fn destructive_deltas_report_their_footprint() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        let eff = g.apply_delta(&Delta::RemoveEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert!(eff.changed);
        assert_eq!(eff.touched, [Some(a), Some(b)]);
        let eff = g.apply_delta(&Delta::RemoveNode { node: b });
        assert_eq!(eff.touched, [Some(b), None], "the dead id is the footprint");
        // Repeat removals are no-ops.
        assert!(!g.apply_delta(&Delta::RemoveNode { node: b }).changed);
    }

    #[test]
    fn set_attr_on_id_is_a_no_op_not_a_panic() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let eff = g.apply_delta(&Delta::SetAttr {
            node: a,
            attr: crate::Symbol::ID,
            value: Value::from(7),
        });
        assert!(!eff.changed, "id is the node identity, not an attribute");
        assert_eq!(g.attrs(a).len(), 0);
    }

    #[test]
    fn attr_deltas_detect_no_ops() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let set = Delta::SetAttr {
            node: a,
            attr: sym("p"),
            value: Value::from(3),
        };
        assert!(g.apply_delta(&set).changed);
        assert!(!g.apply_delta(&set).changed, "same value again is a no-op");
        let del = Delta::DelAttr {
            node: a,
            attr: sym("p"),
        };
        assert!(g.apply_delta(&del).changed);
        assert!(!g.apply_delta(&del).changed, "attr already gone");
    }

    #[test]
    fn deltas_on_dead_nodes_are_no_ops() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        g.set_attr(a, sym("p"), 1);
        g.remove_node(a);
        for node in [a, NodeId(7), NodeId(u32::MAX)] {
            let attr = sym("p");
            assert!(!g.apply_delta(&Delta::DelAttr { node, attr }).changed);
        }
        assert!(
            !g.apply_delta(&Delta::SetAttr {
                node: a,
                attr: sym("p"),
                value: Value::from(1),
            })
            .changed
        );
        assert!(
            !g.apply_delta(&Delta::AddEdge {
                src: a,
                label: sym("e"),
                dst: a,
            })
            .changed
        );
    }

    /// Every live node's label, tuple and both edge lists.
    fn contents(g: &Graph) -> Vec<String> {
        let node = |n| {
            let (outs, ins): (Vec<_>, Vec<_>) = (g.out_edges(n).collect(), g.in_edges(n).collect());
            format!(
                "{n} {} {:?} out {outs:?} in {ins:?}",
                g.label(n),
                g.attrs(n)
            )
        };
        g.nodes().map(node).collect()
    }

    /// Deltas that read what an earlier delta of the same batch wrote, at
    /// every offset against the warm window's edges: the batch leaves the
    /// graph and reports the effects that one delta at a time does.
    #[test]
    fn a_batch_applies_as_its_deltas_one_by_one() {
        let (t, e, p) = (sym("t"), sym("e"), sym("p"));
        let mut start = Graph::new();
        let [a, b, c] = [(); 3].map(|()| start.add_node(t));
        start.set_attr(a, p, "a string");
        start.add_edge(c, e, a);
        let fresh = NodeId(start.node_id_bound() as u32);
        let set = |node, value| Delta::SetAttr {
            node,
            attr: p,
            value,
        };
        let link = |src, dst| Delta::AddEdge { src, label: e, dst };
        let unlink = |src, dst| Delta::RemoveEdge { src, label: e, dst };
        let dependent = [
            Delta::AddNode { label: t },
            set(fresh, Value::from("new")),
            link(a, fresh),
            link(a, b),
            unlink(a, b),
            Delta::RemoveNode { node: c },
            set(c, Value::from(1)),
            link(c, a),
            Delta::DelAttr { node: c, attr: p },
        ];
        for pad in 0..WARM_WINDOW {
            let filler = (0..pad).map(|i| set(b, Value::from(i as i64)));
            let batch: Vec<Delta> = filler.chain(dependent.iter().cloned()).collect();
            let (mut one_by_one, mut batched) = (start.clone(), start.clone());
            let effects: Vec<DeltaEffect> =
                batch.iter().map(|d| one_by_one.apply_delta(d)).collect();
            let mut seen = Vec::new();
            batched.apply_batch(&batch, |_, eff| seen.push(eff));
            assert_eq!(seen, effects, "pad {pad}");
            let counts = |g: &Graph| (g.node_count(), g.edge_count(), g.node_id_bound());
            assert_eq!(counts(&batched), counts(&one_by_one), "pad {pad}");
            assert_eq!(contents(&batched), contents(&one_by_one), "pad {pad}");
        }
    }

    #[test]
    fn delta_set_collects_and_iterates() {
        let ds: DeltaSet = vec![
            Delta::AddNode { label: sym("t") },
            Delta::AddNode { label: sym("u") },
        ]
        .into();
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
        let labels: Vec<String> = ds
            .deltas()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(labels, vec!["+node(t)", "+node(u)"]);
    }
}
