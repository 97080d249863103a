//! Seeded update streams: the one delta generator behind the lockstep
//! suites (`tests/support/lockstep.rs`).
//!
//! A [`DeltaStream`] draws batches against a *mirror* graph the caller
//! keeps current. Every draw picks one [`Arm`]: the plain arms cover every
//! [`Delta`] variant, the rest are the shapes an incremental engine gets
//! wrong — a footprint of one node, an id predicted inside a batch, a
//! touched match that must come back as it was, a write only the last of
//! which may show, a delta that must do nothing. A batch is drawn against
//! the pre-batch graph, so some of its deltas are no-ops when they apply.
//!
//! Nodes are drawn label-first, so a small label class — the planted keys
//! — sees as much traffic as a large one; labels and edges are ordered by
//! *name*, never by `Symbol` index or hash order, so a seed yields the same
//! stream in every process. The attribute vocabulary and the value pool
//! (one where `Int 1` meets `Float 1.0`, say) are the caller's.

use ged_graph::{sym, Delta, DeltaSet, Graph, NodeId, Symbol, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What one draw of a [`DeltaStream`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `AddNode` under a label the graph has.
    AddNode,
    /// `RemoveNode` of a live node; its id stays dead.
    Tombstone,
    /// `AddEdge` between two live nodes, under a label the graph has.
    AddEdge,
    /// `RemoveEdge` of an existing edge.
    RemoveEdge,
    /// `SetAttr` from the pool.
    SetAttr,
    /// `DelAttr`.
    DelAttr,
    /// A self loop added, or removed if present: one node, both endpoints.
    SelfLoop,
    /// `AddNode`, then `SetAttr` on the (dense) id it will get.
    ReAdd,
    /// `DelAttr`, then `SetAttr` of the value just deleted.
    UndoAttr,
    /// `RemoveEdge`, then `AddEdge` of the same edge.
    UndoEdge,
    /// Two `SetAttr`s of one attribute of one node.
    TwoWrites,
    /// Any delta aimed at a tombstone or at an id no batch can reach.
    Ghost,
}

/// The draw table: attribute writes weigh three, edge insertion two.
pub const TABLE: [Arm; 15] = {
    use Arm::*;
    [
        AddNode, Tombstone, AddEdge, AddEdge, RemoveEdge, SetAttr, SetAttr, SetAttr, DelAttr,
        SelfLoop, ReAdd, UndoAttr, UndoEdge, TwoWrites, Ghost,
    ]
};

/// A seeded generator of delta batches.
#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: StdRng,
    attrs: Vec<Symbol>,
    pool: Vec<Value>,
    drawn: [u64; Arm::Ghost as usize + 1],
}

fn pick<T: Clone>(rng: &mut StdRng, from: &[T]) -> T {
    from[rng.random_range(0..from.len())].clone()
}

fn edge(add: bool, src: NodeId, label: Symbol, dst: NodeId) -> Delta {
    if add {
        Delta::AddEdge { src, label, dst }
    } else {
        Delta::RemoveEdge { src, label, dst }
    }
}

fn set(node: NodeId, attr: Symbol, value: Value) -> Delta {
    Delta::SetAttr { node, attr, value }
}

impl DeltaStream {
    /// A stream writing the attributes `attrs` with values from `pool`.
    pub fn new(seed: u64, attrs: &[Symbol], pool: &[Value]) -> DeltaStream {
        assert!(!attrs.is_empty() && !pool.is_empty(), "nothing to write");
        DeltaStream {
            rng: StdRng::seed_from_u64(seed),
            attrs: attrs.to_vec(),
            pool: pool.to_vec(),
            drawn: Default::default(),
        }
    }

    /// How many draws so far took `arm`.
    pub fn drawn(&self, arm: Arm) -> u64 {
        self.drawn[arm as usize]
    }

    /// One batch of `draws` arms, all drawn against `g` as it is now.
    pub fn batch(&mut self, g: &Graph, draws: usize) -> DeltaSet {
        let rng = &mut self.rng;
        let mut labels: Vec<Symbol> = g.labels().collect();
        labels.sort_by_key(|l| l.name());
        assert!(!labels.is_empty(), "a stream starts from a node");
        // `e0`, so that a graph without edges can grow some.
        let mut elabels: Vec<Symbol> = g.edges().map(|e| e.label).collect();
        elabels.push(sym("e0"));
        elabels.sort_unstable();
        elabels.dedup();
        elabels.sort_by_key(|l| l.name());
        let mut out: Vec<Delta> = Vec::new();
        let (mut done, mut added) = (0, 0);
        while done < draws {
            // Every draw takes the same picks, whichever arm uses them.
            let arm = pick(rng, &TABLE);
            let mut node = || {
                let label = pick(rng, &labels);
                pick(rng, g.nodes_with_label(label))
            };
            let (node, dst) = (node(), node());
            let (attr, label) = (pick(rng, &self.attrs), pick(rng, &elabels));
            let (value, second) = (pick(rng, &self.pool), pick(rng, &self.pool));
            let mut edges: Vec<(Symbol, NodeId)> = g.out_edges(node).collect();
            edges.sort_by_key(|&(l, d)| (l.name(), d));
            let old = (!edges.is_empty()).then(|| pick(rng, &edges));
            let had = g.attr(node, attr).cloned();
            let probe = NodeId(rng.random_range(0..g.node_id_bound() as u32));
            let beyond = NodeId(u32::MAX - probe.0);
            let ghost = Some(probe).filter(|&n| !g.is_alive(n)).unwrap_or(beyond);
            let ghost_op = rng.random_range(0..5u32);
            match arm {
                Arm::AddNode | Arm::ReAdd => {
                    // The bound, plus the nodes this batch added before.
                    let fresh = NodeId((g.node_id_bound() + added) as u32);
                    let label = g.label(node);
                    out.push(Delta::AddNode { label });
                    out.extend((arm == Arm::ReAdd).then(|| set(fresh, attr, value)));
                    added += 1;
                }
                Arm::Tombstone if g.node_count() > 2 => out.push(Delta::RemoveNode { node }),
                Arm::Tombstone => continue,
                Arm::AddEdge => out.push(edge(true, node, label, dst)),
                Arm::RemoveEdge | Arm::UndoEdge => {
                    let Some((label, dst)) = old else { continue };
                    out.push(edge(false, node, label, dst));
                    out.extend((arm == Arm::UndoEdge).then(|| edge(true, node, label, dst)));
                }
                Arm::SetAttr => out.push(set(node, attr, value)),
                Arm::DelAttr => out.push(Delta::DelAttr { node, attr }),
                Arm::SelfLoop => out.push(edge(!g.has_edge(node, label, node), node, label, node)),
                Arm::UndoAttr => {
                    let Some(had) = had else { continue };
                    out.extend([Delta::DelAttr { node, attr }, set(node, attr, had)]);
                }
                Arm::TwoWrites => out.extend([set(node, attr, value), set(node, attr, second)]),
                Arm::Ghost => out.push(match ghost_op {
                    0 => Delta::RemoveNode { node: ghost },
                    1 => edge(true, ghost, label, dst),
                    2 => edge(false, dst, label, ghost),
                    3 => set(ghost, attr, value),
                    _ => Delta::DelAttr { node: ghost, attr },
                }),
            }
            self.drawn[arm as usize] += 1;
            done += 1;
        }
        out.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::evolving_workload;

    #[test]
    fn a_seed_replays_and_re_adds_hit_the_node_they_create() {
        let (mut g, _) = evolving_workload(30, 3, 0, 5);
        let pool = [Value::Int(0), Value::Int(1), Value::Float(1.0)];
        let mut stream = DeltaStream::new(7, &[sym("attr0"), sym("key")], &pool);
        let mut twin = stream.clone();
        let mut landed = 0;
        for _ in 0..300 {
            let batch = stream.batch(&g, 6);
            assert_eq!(batch, twin.batch(&g, 6));
            let mut created = None;
            for d in &batch {
                if let (Some(id), Delta::SetAttr { node, .. }) = (created, d) {
                    landed += u64::from(*node == id);
                }
                created = g.apply_delta(d).created;
            }
        }
        assert!(landed > 0 && landed == stream.drawn(Arm::ReAdd), "{landed}");
    }
}
