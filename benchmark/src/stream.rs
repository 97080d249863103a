//! The seeded, stationary update stream every workload sends.
//!
//! Stationary means that node, edge and witness counts at the end of a
//! window are where they started: every op that grows something (adds an
//! edge, adds a node, introduces a violation, breaks a key pair) schedules
//! its inverse a fixed number of batches later, and plain attribute writes
//! draw from the bounded domains the datagen used, on nodes that are not
//! part of any violation. A uniform-random stream drifted the store from
//! 200 to 27k witnesses and made `report` 20× slower by the end of a
//! window; that is a generator bug, not a workload.
//!
//! The stream owns the mirror [`Graph`]: each delta goes through
//! [`Graph::apply_delta`] as it is generated, so the generator always
//! knows which nodes and edges exist (and the id the next `add_node` will
//! get), and the mirror the oracle validates has never been near the
//! incremental engine.

use ged_core::reason::validate;
use ged_ext::SigmaConstraint;
use ged_graph::{sym, Delta, DeltaSet, Graph, NodeId, Symbol, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

const TIERS: [&str; 3] = ["free", "pro", "biz"];

/// Shares of the delta slots (per mille) that start a paired op. The
/// inverse arrives `lag` batches later, so an `add_edge`/`remove_edge`
/// pair costs two slots, and `add_node`/`remove_node` stay at 2% of deltas.
const ADD_EDGE_PM: u32 = 150;
const ADD_NODE_PM: u32 = 10;
const VIOLATE_PM: u32 = 10;

/// Which datagen family built the start graph — the stream has to speak
/// its labels and attribute domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `mixed:` — accounts and blogs under four single-variable/edge rules.
    Social,
    /// `random:` — `L0..L3` nodes under random 3-variable GEDs, plus
    /// `entity` pairs under the cross-product key rule.
    Random,
}

/// Stream shape of one workload.
#[derive(Debug, Clone, Copy)]
pub struct StreamCfg {
    /// Start-graph family.
    pub family: Family,
    /// Deltas per batch, exactly.
    pub batch: usize,
    /// Batches between an op and its inverse.
    pub lag: u64,
    /// Entity key pairs broken per batch (`Random` only); as many are
    /// restored, so twice this many deltas of a batch flip a key. A fixed
    /// count, not a share drawn per slot: a flip costs ≈ 2 ms, and batches
    /// with 0 to 8 of them made every latency statistic a lottery.
    pub key_breaks: usize,
}

/// A scheduled inverse: deltas to emit at batch `due`, and the node or key
/// pair that becomes clean again once they are out.
#[derive(Debug)]
struct Pending {
    due: u64,
    deltas: Vec<Delta>,
    frees: Option<u32>,
}

/// The generator. `next_batch` is the whole interface.
#[derive(Debug)]
pub struct Stream {
    cfg: StreamCfg,
    rng: StdRng,
    mirror: Graph,
    /// Accounts (`Social`) or `L*` nodes (`Random`) of the start graph.
    primary: Vec<NodeId>,
    /// Blogs (`Social`); empty for `Random`.
    blogs: Vec<NodeId>,
    /// Entity key pairs (`Random`); empty for `Social`.
    pairs: Vec<(NodeId, NodeId)>,
    /// Node ids (`Social`) or pair indexes (`Random`) that are part of a
    /// violation or of a pending op; forward ops leave them alone.
    busy: HashSet<u32>,
    pending: VecDeque<Pending>,
    batch_no: u64,
    key_gen: u64,
}

impl Stream {
    /// Start a stream over `mirror` (the graph `gedd` was started with).
    pub fn new(cfg: StreamCfg, mirror: Graph, sigma: &[SigmaConstraint], seed: u64) -> Stream {
        let mut busy = HashSet::new();
        let (primary, blogs, pairs) = match cfg.family {
            Family::Social => {
                // Planted violators must keep violating: a benign age write
                // on an underage plant would quietly repair it.
                for v in validate(&mirror, sigma, None).violations {
                    busy.extend(v.assignment.iter().map(|n| n.0));
                }
                (
                    mirror.nodes_with_label(sym("account")).to_vec(),
                    mirror.nodes_with_label(sym("blog")).to_vec(),
                    Vec::new(),
                )
            }
            Family::Random => {
                let entities = mirror.nodes_with_label(sym("entity"));
                let plain = mirror
                    .nodes()
                    .filter(|&n| mirror.label(n) != sym("entity"))
                    .collect();
                // `plant_key_violations` adds the two members of a pair
                // back to back.
                let pairs = entities.chunks_exact(2).map(|p| (p[0], p[1])).collect();
                (plain, Vec::new(), pairs)
            }
        };
        Stream {
            cfg,
            rng: StdRng::seed_from_u64(seed),
            mirror,
            primary,
            blogs,
            pairs,
            busy,
            pending: VecDeque::new(),
            batch_no: 0,
            key_gen: 0,
        }
    }

    /// The mirror graph: start state plus every delta generated so far.
    pub fn mirror(&self) -> &Graph {
        &self.mirror
    }

    /// Generate the next batch of exactly `cfg.batch` graph-changing deltas.
    pub fn next_batch(&mut self) -> DeltaSet {
        let mut out = Vec::with_capacity(self.cfg.batch);
        let mut breaks = 0;
        while breaks < self.cfg.key_breaks {
            // `None`: the pair drawn is still broken; draw again.
            if let Some(d) = self.break_key_pair() {
                breaks += 1;
                self.emit(d, &mut out);
            }
        }
        while out.len() < self.cfg.batch {
            let room = self.cfg.batch - out.len();
            let due = self
                .pending
                .front()
                .is_some_and(|p| p.due <= self.batch_no && p.deltas.len() <= room);
            let deltas = if due {
                let p = self.pending.pop_front().expect("front was just inspected");
                if let Some(key) = p.frees {
                    self.busy.remove(&key);
                }
                p.deltas
            } else {
                self.forward(room)
            };
            self.emit(deltas, &mut out);
        }
        self.batch_no += 1;
        out.into()
    }

    fn emit(&mut self, deltas: Vec<Delta>, out: &mut Vec<Delta>) {
        for d in deltas {
            let effect = self.mirror.apply_delta(&d);
            assert!(effect.changed, "generated a no-op delta: {d}");
            out.push(d);
        }
    }

    fn later(&mut self, deltas: Vec<Delta>, frees: Option<u32>) {
        self.pending.push_back(Pending {
            due: self.batch_no + self.cfg.lag,
            deltas,
            frees,
        });
    }

    /// One forward op of at most `room` deltas; schedules its own inverse.
    /// An op that cannot be placed (edge exists, no room) becomes a plain
    /// attribute write.
    fn forward(&mut self, room: usize) -> Vec<Delta> {
        let violate_pm = match self.cfg.family {
            Family::Social => VIOLATE_PM,
            Family::Random => 0,
        };
        let roll = self.rng.random_range(0u32..1000);
        let deltas = if roll < violate_pm {
            Some(self.violate(room))
        } else if roll < violate_pm + ADD_NODE_PM {
            (room >= 3).then(|| self.add_node())
        } else if roll < violate_pm + ADD_NODE_PM + ADD_EDGE_PM {
            self.add_edge()
        } else {
            None
        };
        deltas.unwrap_or_else(|| vec![self.benign_write()])
    }

    fn pick(&mut self, from: usize) -> usize {
        self.rng.random_range(0..from)
    }

    fn any_primary(&mut self) -> NodeId {
        let i = self.pick(self.primary.len());
        self.primary[i]
    }

    fn any_blog(&mut self) -> NodeId {
        let i = self.pick(self.blogs.len());
        self.blogs[i]
    }

    /// A primary node that no violation or pending op involves.
    fn clean_primary(&mut self) -> NodeId {
        loop {
            let n = self.any_primary();
            if !self.busy.contains(&n.0) {
                return n;
            }
        }
    }

    fn set(node: NodeId, attr: &str, value: impl Into<Value>) -> Delta {
        Delta::SetAttr {
            node,
            attr: sym(attr),
            value: value.into(),
        }
    }

    /// Write `node.attr` with a draw from `draw` that differs from what it
    /// holds now, so the delta changes the graph.
    fn rewrite(&mut self, node: NodeId, attr: &str, draw: impl Fn(&mut StdRng) -> Value) -> Delta {
        let current = self.mirror.attr(node, sym(attr));
        loop {
            let value = draw(&mut self.rng);
            if Some(&value) != current {
                return Stream::set(node, attr, value);
            }
        }
    }

    fn benign_write(&mut self) -> Delta {
        match self.cfg.family {
            Family::Social => match self.pick(3) {
                0 => {
                    let blog = self.any_blog();
                    self.rewrite(blog, "keyword", |r| {
                        format!("topic_{}", r.random_range(0..10)).into()
                    })
                }
                1 => {
                    let a = self.clean_primary();
                    self.rewrite(a, "age", |r| r.random_range(18..71i64).into())
                }
                _ => {
                    let a = self.clean_primary();
                    self.rewrite(a, "tier", |r| TIERS[r.random_range(0..3usize)].into())
                }
            },
            Family::Random => {
                let n = self.any_primary();
                let attr = ["attr0", "attr1"][self.pick(2)];
                self.rewrite(n, attr, |r| r.random_range(0..8i64).into())
            }
        }
    }

    fn add_edge(&mut self) -> Option<Vec<Delta>> {
        let (src, label, dst): (NodeId, Symbol, NodeId) = match self.cfg.family {
            Family::Social => {
                let src = self.any_primary();
                if self.rng.random_bool(0.5) {
                    (src, sym("like"), self.any_blog())
                } else {
                    // `no-self-follow` only fires on self-loops.
                    let dst = self.any_primary();
                    (src, sym("follow"), dst)
                }
            }
            Family::Random => {
                let src = self.any_primary();
                let dst = self.any_primary();
                (src, sym(&format!("e{}", self.pick(3))), dst)
            }
        };
        if src == dst || self.mirror.has_edge(src, label, dst) {
            return None;
        }
        self.later(vec![Delta::RemoveEdge { src, label, dst }], None);
        Some(vec![Delta::AddEdge { src, label, dst }])
    }

    /// Add a node that satisfies every rule at the batch boundary, and
    /// remove it (a tombstoned id from then on) `lag` batches later.
    fn add_node(&mut self) -> Vec<Delta> {
        let node = NodeId(self.mirror.node_id_bound() as u32);
        self.later(vec![Delta::RemoveNode { node }], None);
        match self.cfg.family {
            Family::Social => vec![
                Delta::AddNode {
                    label: sym("account"),
                },
                // Without a tier the new account violates `tier-domain`.
                Stream::set(node, "tier", TIERS[self.pick(3)]),
                Stream::set(node, "age", self.rng.random_range(18..71i64)),
            ],
            Family::Random => vec![
                Delta::AddNode {
                    label: sym(&format!("L{}", self.pick(4))),
                },
                Stream::set(node, "attr0", self.rng.random_range(0..8i64)),
                Stream::set(node, "attr1", self.rng.random_range(0..8i64)),
            ],
        }
    }

    /// Introduce one violation of one of the four social rules on a clean
    /// account and schedule its repair.
    fn violate(&mut self, room: usize) -> Vec<Delta> {
        let a = self.clean_primary();
        self.busy.insert(a.0);
        // `verified⇒real` takes two writes, on an account that is neither
        // verified nor flagged yet (the cascade seed already is).
        let zero = Some(&Value::from(0));
        let unflagged = self.mirror.attr(a, sym("verified")) == zero
            && self.mirror.attr(a, sym("is_fake")) == zero;
        let kinds = if room >= 2 && unflagged { 4 } else { 3 };
        let (now, repair) = match self.pick(kinds) {
            0 => {
                let age = self
                    .mirror
                    .attr(a, sym("age"))
                    .cloned()
                    .unwrap_or(30.into());
                let child = self.rng.random_range(6..13i64);
                (
                    vec![Stream::set(a, "age", child)],
                    vec![Stream::set(a, "age", age)],
                )
            }
            1 => {
                let tier = self.mirror.attr(a, sym("tier")).cloned();
                (
                    vec![Stream::set(a, "tier", "gold")],
                    vec![Stream::set(a, "tier", tier.unwrap_or("free".into()))],
                )
            }
            2 => {
                let (src, label, dst) = (a, sym("follow"), a);
                (
                    vec![Delta::AddEdge { src, label, dst }],
                    vec![Delta::RemoveEdge { src, label, dst }],
                )
            }
            _ => (
                vec![Stream::set(a, "verified", 1), Stream::set(a, "is_fake", 1)],
                vec![Stream::set(a, "verified", 0), Stream::set(a, "is_fake", 0)],
            ),
        };
        self.later(repair, Some(a.0));
        now
    }

    /// Give one member of an intact key pair a fresh key (the pair's two
    /// witnesses drop); `lag` batches later the other member follows and
    /// the pair violates again under the new key. Both writes re-enumerate
    /// the `entity × entity` cross product anchored at the written node.
    fn break_key_pair(&mut self) -> Option<Vec<Delta>> {
        let i = self.pick(self.pairs.len());
        if !self.busy.insert(i as u32) {
            return None;
        }
        let (a, b) = self.pairs[i];
        self.key_gen += 1;
        let key = format!("k{i}.{}", self.key_gen);
        self.later(vec![Stream::set(b, "key", key.clone())], Some(i as u32));
        Some(vec![Stream::set(a, "key", key)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use ged_proto::Request;

    /// A start state of the workload's family small enough for a debug build.
    fn small(family: Family, seed: u64) -> (Graph, Vec<SigmaConstraint>) {
        let spec = match family {
            Family::Social => format!("mixed:honest=300,plants=10,seed={seed}"),
            Family::Random => format!("random:nodes=400,rules=2,seed={seed}"),
        };
        ged_daemon::workload::load(&spec).unwrap()
    }

    fn frames(wl: &crate::workloads::Workload, seed: u64, batches: usize) -> Vec<String> {
        let (g, sigma) = small(wl.stream.family, seed);
        let mut s = Stream::new(wl.stream, g, &sigma, seed);
        (0..batches)
            .map(|_| Request::Apply(s.next_batch()).to_json().to_string())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for wl in &WORKLOADS {
            let a = frames(wl, 7, 40);
            assert_eq!(a, frames(wl, 7, 40), "{}", wl.name);
            assert_ne!(a, frames(wl, 8, 40), "{}", wl.name);
        }
    }

    #[test]
    fn batches_have_the_exact_size_and_new_node_ids_are_predicted() {
        for wl in &WORKLOADS {
            let (g, sigma) = small(wl.stream.family, 3);
            let mut twin = g.clone();
            let mut s = Stream::new(wl.stream, g, &sigma, 3);
            for _ in 0..200 {
                let batch = s.next_batch();
                assert_eq!(batch.len(), wl.stream.batch);
                // A second graph fed the same deltas changes on every one:
                // ids of added nodes were predicted right.
                for d in &batch {
                    assert!(twin.apply_delta(d).changed, "{}: {d}", wl.name);
                }
            }
        }
    }

    /// Node, edge and witness counts after a full window of the real
    /// workload are within 10% of the start (and not merely because
    /// nothing happened: witnesses were both added and dropped).
    #[test]
    fn a_full_window_is_stationary() {
        for wl in &WORKLOADS {
            let (g, sigma) = ged_daemon::workload::load(&wl.spec(1)).unwrap();
            let count = |g: &Graph| {
                let witnesses = validate(g, &sigma, None).violations.len();
                [g.node_count(), g.edge_count(), witnesses]
            };
            let start = count(&g);
            let mut s = Stream::new(wl.stream, g, &sigma, 1);
            let batches = (wl.nominal_batches_per_s * 5.0) as usize;
            let mut mid = None;
            for i in 0..batches {
                s.next_batch();
                if i == batches / 2 {
                    mid = Some(validate(s.mirror(), &sigma, None).violations);
                }
            }
            let end = count(s.mirror());
            for (what, (a, b)) in ["nodes", "edges", "witnesses"]
                .iter()
                .zip(start.iter().zip(&end))
            {
                let drift = (*b as f64 - *a as f64).abs() / *a as f64;
                assert!(drift <= 0.10, "{} {what}: {a} -> {b}", wl.name);
            }
            let mid: HashSet<String> = mid.unwrap().iter().map(|v| format!("{v:?}")).collect();
            let last: HashSet<String> = validate(s.mirror(), &sigma, None)
                .violations
                .iter()
                .map(|v| format!("{v:?}"))
                .collect();
            assert!(mid != last, "{}: the witness set never moved", wl.name);
        }
    }
}
