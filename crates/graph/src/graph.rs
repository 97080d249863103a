//! The property graph `G = (V, E, L, F_A)` of Section 2.
//!
//! * `V` — a finite set of nodes, here dense ids `0..n` ([`NodeId`]).
//! * `E ⊆ V × Γ × V` — finite set of labelled directed edges; parallel edges
//!   with the *same* label are collapsed (E is a set in the paper).
//! * `L` — a node labelling `V → Γ`.
//! * `F_A` — per-node attribute tuples `(A1 = a1, …, An = an)` of finite
//!   arity; graphs are schemaless, so `v.A` may be absent. The special
//!   attribute `id` is the node identity itself and is *not* stored in the
//!   attribute map (it is the [`NodeId`]).
//!
//! `E` is stored once, as a **label-partitioned adjacency**: per node and
//! direction, one buffer holding a small `(label, start)` header and then
//! the neighbour ids grouped by edge label (ids sorted within a group) —
//! one heap block per direction with edges, none without. A group
//! ([`Graph::out_edges_labeled`] / [`Graph::in_edges_labeled`]) is directly
//! the matcher's candidate list for a concrete edge label;
//! [`Graph::has_edge`] is two binary searches, for the label in the header
//! and the id in its group; a wildcard edge label spans all of a node's
//! groups.
//!
//! `F_A` is stored flat: each node's tuple is a `Vec<(Symbol, Value)>`
//! sorted by attribute, so [`Graph::attrs`] iterates in attribute order and
//! [`Graph::attr`] is a scan of the handful of entries a node carries. A
//! tuple's capacity is its length (a new attribute grows it by one entry),
//! except that a removal keeps the slot it freed for the next new one.
//!
//! Two indexes serve candidate generation: label → nodes (always), and —
//! only for the `(label, attribute)` pairs someone asked for with
//! [`Graph::index_attr`] — a **value index** answering "which `label` nodes
//! carry `attr = c`" ([`Graph::probe_attr`]). The value index is maintained
//! inside the attribute and node primitives themselves, so no mutation path
//! can leave it stale.

use crate::delta::Delta;
use crate::symbol::Symbol;
use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Range;

/// A node identifier: dense index into the graph's node table.
///
/// Doubles as the paper's special `id` attribute: `x.id = y.id` holds iff the
/// two matched [`NodeId`]s are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize` for table lookups.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A directed labelled edge `(src, label, dst)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Edge label from `Γ`.
    pub label: Symbol,
    /// Destination node.
    pub dst: NodeId,
}

#[derive(Debug, Clone)]
struct NodeData {
    label: Symbol,
    /// The attribute tuple, sorted by attribute and duplicate-free.
    attrs: Vec<(Symbol, Value)>,
}

/// `A`'s value in a sorted attribute tuple. Tuples hold a handful of
/// entries, so a scan beats a search.
fn find_attr(attrs: &[(Symbol, Value)], attr: Symbol) -> Option<&Value> {
    attrs.iter().find(|e| e.0 == attr).map(|e| &e.1)
}

/// The value index of one `(label, attr)` pair: an entry
/// `(value.index_key(), n)` for every live `label` node `n` carrying
/// `attr`. One ordered set probed by key range — no per-value bucket, so a
/// stream of never-repeating values leaves nothing behind.
#[derive(Debug, Clone)]
struct ValueIndex {
    label: Symbol,
    attr: Symbol,
    entries: BTreeSet<(u64, NodeId)>,
}

/// Where the value index of `(label, attr)` sits, if that pair is indexed.
/// A graph indexes a handful of pairs at most, so a scan finds it.
fn index_position(indexes: &[ValueIndex], label: Symbol, attr: Symbol) -> Option<usize> {
    indexes
        .iter()
        .position(|ix| ix.label == label && ix.attr == attr)
}

/// Bring the value index of `(label, attr)`, if there is one, in line with
/// node `n` (labelled `label`) going from `old` to `new` on `attr` (`None`:
/// the attribute absent). The one writer of a built index, called *before*
/// the tuple changes — an overwrite in place keeps no old value to read a
/// key from afterwards — and a key is computed only when the pair is
/// indexed: with nothing indexed this is one look at an empty slice.
fn reindex(
    indexes: &mut [ValueIndex],
    (label, attr): (Symbol, Symbol),
    n: NodeId,
    old: Option<&Value>,
    new: Option<&Value>,
) {
    let Some(i) = index_position(indexes, label, attr) else {
        return;
    };
    let ix = &mut indexes[i];
    if let Some(old) = old {
        ix.entries.remove(&(old.index_key(), n));
    }
    if let Some(new) = new {
        ix.entries.insert((new.index_key(), n));
    }
}

/// One node's adjacency in one direction, partitioned by edge label, in
/// one buffer: `[k, (label, start) × k, nbrs…]`. The first word counts the
/// label groups; header entry `i` holds group `i`'s label and the offset
/// of its first neighbour in `nbrs`, labels ascending. The group of entry
/// `i` runs to the next entry's start (or to the end for the last entry).
/// Header words are [`NodeId`]s only as storage: a label word reads back
/// as `Symbol(word.0)`, a count or a start as `word.idx()`. An empty
/// buffer is a direction without edges — no header and no heap block — so
/// a direction that loses its last edge frees its buffer. Since `E` is a
/// set, ids within a group are duplicate-free, so a group is a sorted set:
/// exactly the candidate list shape the matcher wants, with no filter,
/// sort, or dedup.
#[derive(Debug, Clone, Default)]
struct LabeledAdj {
    buf: Vec<NodeId>,
}

impl LabeledAdj {
    /// The header's `(label, start)` words and the neighbours behind them.
    fn parts(&self) -> (&[NodeId], &[NodeId]) {
        match self.buf.split_first() {
            Some((k, rest)) => rest.split_at(2 * k.idx()),
            None => (&[], &[]),
        }
    }

    /// Position of label `l` among a header's groups (`Err`: where it
    /// would go).
    fn find(header: &[NodeId], l: Symbol) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, header.len() / 2);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match header[2 * mid].0.cmp(&l.0) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Group `i`'s range among `len` neighbours.
    fn span(header: &[NodeId], i: usize, len: usize) -> Range<usize> {
        let end = header.get(2 * i + 3).map_or(len, |s| s.idx());
        header[2 * i + 1].idx()..end
    }

    /// Every neighbour, label-major and id-sorted within a label.
    fn nbrs(&self) -> &[NodeId] {
        self.parts().1
    }

    /// Number of neighbours (the degree in this direction).
    fn len(&self) -> usize {
        self.parts().1.len()
    }

    /// Label `l`'s neighbour group: sorted, duplicate-free.
    fn group(&self, l: Symbol) -> &[NodeId] {
        let (header, nbrs) = self.parts();
        Self::find(header, l).map_or(&[], |i| &nbrs[Self::span(header, i, nbrs.len())])
    }

    /// The start words of the groups after group `i`.
    fn starts_after(&mut self, i: usize) -> impl Iterator<Item = &mut NodeId> {
        let header_end = self.buf.first().map_or(0, |k| 1 + 2 * k.idx());
        self.buf[..header_end].iter_mut().skip(4 + 2 * i).step_by(2)
    }

    /// Insert neighbour `n` under label `l`, keeping groups label-major
    /// and id-sorted. Returns `false` (and changes nothing) if `(l, n)` is
    /// already present — this is the set guard of `E`.
    fn insert(&mut self, l: Symbol, n: NodeId) -> bool {
        if self.buf.is_empty() {
            // A first edge: one exact block.
            self.buf = vec![NodeId(1), NodeId(l.0), NodeId(0), n];
            return true;
        }
        let (header, nbrs) = self.parts();
        let at = match Self::find(header, l) {
            Ok(i) => {
                let span = Self::span(header, i, nbrs.len());
                let Err(off) = nbrs[span.clone()].binary_search(&n) else {
                    return false;
                };
                let at = 1 + header.len() + span.start + off;
                self.starts_after(i).for_each(|s| s.0 += 1);
                at
            }
            Err(i) => {
                // A new group of one in front of its successor: three
                // words, at most one reallocation.
                let start = header.get(2 * i + 1).map_or(nbrs.len(), |s| s.idx());
                let at = 3 + header.len() + start;
                self.buf.reserve(3);
                self.buf[0].0 += 1;
                let entry = [NodeId(l.0), NodeId(start as u32)];
                self.buf.splice(1 + 2 * i..1 + 2 * i, entry);
                self.starts_after(i).for_each(|s| s.0 += 1);
                at
            }
        };
        self.buf.insert(at, n);
        true
    }

    /// Remove neighbour `n` from label `l`'s group, returning whether it
    /// was there. An emptied group's header entry is dropped, so the
    /// header enumerates exactly the labels with neighbours, and the last
    /// neighbour's removal frees the buffer.
    fn remove(&mut self, l: Symbol, n: NodeId) -> bool {
        let (header, nbrs) = self.parts();
        let Ok(i) = Self::find(header, l) else {
            return false;
        };
        let span = Self::span(header, i, nbrs.len());
        let Ok(off) = nbrs[span.clone()].binary_search(&n) else {
            return false;
        };
        if nbrs.len() == 1 {
            self.buf = Vec::new();
            return true;
        }
        let at = 1 + header.len() + span.start + off;
        self.starts_after(i).for_each(|s| s.0 -= 1);
        self.buf.remove(at);
        if span.len() == 1 {
            self.buf.drain(1 + 2 * i..3 + 2 * i);
            self.buf[0].0 -= 1;
        }
        true
    }

    /// A word read from the header and the ends of label `l`'s group —
    /// the lines [`LabeledAdj::insert`] / [`LabeledAdj::remove`] search —
    /// for [`Graph::warm`].
    fn sample(&self, l: Symbol) -> usize {
        let group = self.group(l);
        let ends = [group.first(), group.last()];
        ends.into_iter()
            .flatten()
            .fold(group.len(), |acc, n| acc ^ n.idx())
    }

    /// Every `(label, neighbour)` pair, label-major and id-sorted.
    fn iter(&self) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        let (header, nbrs) = self.parts();
        (0..header.len() / 2).flat_map(move |i| {
            let l = Symbol(header[2 * i].0);
            let group = &nbrs[Self::span(header, i, nbrs.len())];
            group.iter().map(move |&n| (l, n))
        })
    }

    /// Panic unless the buffer is well formed: empty with no heap block,
    /// or a header that counts its groups, with labels and starts
    /// strictly ascending from start 0, no group empty, and ids strictly
    /// ascending within each group.
    fn assert_well_formed(&self) {
        if self.buf.is_empty() {
            assert_eq!(self.buf.capacity(), 0, "an empty direction holds a buffer");
            return;
        }
        let k = self.buf[0].idx();
        assert!(k > 0, "a non-empty buffer counts no groups");
        assert!(
            2 * k < self.buf.len() - 1,
            "a header of {k} groups overruns"
        );
        let (header, nbrs) = self.parts();
        let entries: Vec<(Symbol, usize)> = header
            .chunks_exact(2)
            .map(|e| (Symbol(e[0].0), e[1].idx()))
            .collect();
        assert_eq!(entries[0].1, 0, "the first group starts at 0");
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0, "labels ascend strictly");
            assert!(w[0].1 < w[1].1, "a group is empty");
        }
        assert!(entries[k - 1].1 < nbrs.len(), "the last group is empty");
        for (i, &(l, _)) in entries.iter().enumerate() {
            let group = &nbrs[Self::span(header, i, nbrs.len())];
            let ascends = group.windows(2).all(|w| w[0] < w[1]);
            assert!(ascends, "group {l} ascends strictly");
        }
    }
}

/// A finite directed labelled property graph (Section 2).
///
/// Nodes are identified by dense ids. Removal ([`Graph::remove_node`]) marks
/// the slot dead instead of compacting, so surviving [`NodeId`]s stay stable
/// across arbitrary update sequences — the invariant the incremental
/// validation engine's violation store depends on. Removed ids are never
/// reused; every accessor that enumerates nodes skips dead slots.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<NodeData>,
    alive: Vec<bool>,
    n_live: usize,
    n_edges: usize,
    out_lab: Vec<LabeledAdj>,
    inn_lab: Vec<LabeledAdj>,
    /// Label → its live nodes. A bucket is **strictly ascending** and never
    /// empty: [`Graph::add_node`] is the only writer that grows one and it
    /// pushes ids that only grow, so [`Graph::remove_node`] finds its slot
    /// by binary search. Checked by [`Graph::assert_index_consistent`].
    label_index: HashMap<Symbol, Vec<NodeId>>,
    /// One entry per [`Graph::index_attr`] pair.
    value_index: Vec<ValueIndex>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Graph {
        Graph::default()
    }

    /// Add a node with `label`, returning its id. Ids are never reused, so
    /// an id freed by [`Graph::remove_node`] stays dead forever.
    pub fn add_node(&mut self, label: Symbol) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label,
            attrs: Vec::new(),
        });
        self.alive.push(true);
        self.n_live += 1;
        self.out_lab.push(LabeledAdj::default());
        self.inn_lab.push(LabeledAdj::default());
        self.label_index.entry(label).or_default().push(id);
        id
    }

    /// Add edge `(src, label, dst)`. Returns `false` if it already existed
    /// (E is a set). Panics if either endpoint is out of range or removed.
    pub fn add_edge(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        assert!(self.is_alive(src), "edge src out of range or removed");
        assert!(self.is_alive(dst), "edge dst out of range or removed");
        self.link(src, label, dst)
    }

    /// [`Graph::add_edge`] between endpoints the caller has checked alive.
    pub(crate) fn link(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        if !self.out_lab[src.idx()].insert(label, dst) {
            return false;
        }
        self.inn_lab[dst.idx()].insert(label, src);
        self.n_edges += 1;
        true
    }

    /// Remove edge `(src, label, dst)`. Returns `false` if it was absent —
    /// in particular for out-of-range or removed endpoints, which never
    /// panic ([`Graph::apply_delta`] forwards wire input here unchecked).
    pub fn remove_edge(&mut self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        let out = self.out_lab.get_mut(src.idx());
        if !out.is_some_and(|out| out.remove(label, dst)) {
            return false;
        }
        // The edge existed, so `dst` is a live node holding the mirror entry.
        self.inn_lab[dst.idx()].remove(label, src);
        self.n_edges -= 1;
        true
    }

    /// Remove node `n` together with every incident edge and its attribute
    /// tuple. Returns `false` if `n` is out of range or already removed.
    /// The id is tombstoned — surviving ids are unaffected and `n` is never
    /// handed out again by [`Graph::add_node`].
    pub fn remove_node(&mut self, n: NodeId) -> bool {
        if !self.is_alive(n) {
            return false;
        }
        let outs = std::mem::take(&mut self.out_lab[n.idx()]);
        let inns = std::mem::take(&mut self.inn_lab[n.idx()]);
        self.n_edges -= outs.len();
        for (label, dst) in outs.iter().filter(|&(_, d)| d != n) {
            self.inn_lab[dst.idx()].remove(label, n);
        }
        // Self loops sit in both lists and were counted with `outs`.
        for (label, src) in inns.iter().filter(|&(_, s)| s != n) {
            self.out_lab[src.idx()].remove(label, n);
            self.n_edges -= 1;
        }
        let label = self.nodes[n.idx()].label;
        if let Entry::Occupied(mut bucket) = self.label_index.entry(label) {
            // Ascending, so a search finds the slot; a stream removes
            // recent nodes, so the tail `Vec::remove` shifts is short.
            if let Ok(i) = bucket.get().binary_search(&n) {
                bucket.get_mut().remove(i);
            }
            if bucket.get().is_empty() {
                // Keep `labels()` an exact enumeration of labels with live nodes.
                bucket.remove();
            }
        }
        // Dropped, not cleared: a tombstone keeps no attribute allocation.
        for (attr, v) in std::mem::take(&mut self.nodes[n.idx()].attrs) {
            reindex(&mut self.value_index, (label, attr), n, Some(&v), None);
        }
        self.alive[n.idx()] = false;
        self.n_live -= 1;
        true
    }

    /// Is `n` a live node of this graph (in range and not removed)?
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.alive.get(n.idx()).copied().unwrap_or(false)
    }

    /// One past the largest id ever allocated (dense iteration bound).
    /// Equals [`Graph::node_count`] only when no node was ever removed.
    pub fn node_id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Has any node ever been removed from this graph?
    pub fn has_removals(&self) -> bool {
        self.n_live != self.nodes.len()
    }

    /// Entry `n` of a per-node table if `n` is live: `None`, never a
    /// panic, for a tombstone or an id past the bound.
    fn live<'a, T>(&self, table: &'a [T], n: NodeId) -> Option<&'a T> {
        table.get(n.idx()).filter(|_| self.is_alive(n))
    }

    /// Load what applying `window` will read, changing nothing, so the
    /// cache misses of its deltas overlap instead of running one delta
    /// after another. Pass 1 loads each delta's per-node slots, pass 2
    /// what they point to: the attribute tuple and the buffer of an old
    /// string too long to sit in its entry, each endpoint's adjacency
    /// index and label group. An earlier delta of the window may change
    /// what a later one reads; the passes decide nothing, so a stale load
    /// is only wasted work.
    pub(crate) fn warm(&self, window: &[Delta]) {
        let tuple = |n| self.live(&self.nodes, n).map_or(&[][..], |d| &d.attrs[..]);
        let slots = |src, dst| {
            let out = self.live(&self.out_lab, src).map_or(0, |a| a.buf.len());
            out ^ self.live(&self.inn_lab, dst).map_or(0, |a| a.buf.len())
        };
        let mut acc = 0usize;
        for delta in window {
            acc ^= match *delta {
                Delta::AddNode { .. } => 0,
                Delta::RemoveNode { node } => tuple(node).len() ^ slots(node, node),
                Delta::SetAttr { node, .. } | Delta::DelAttr { node, .. } => tuple(node).len(),
                Delta::AddEdge { src, dst, .. } | Delta::RemoveEdge { src, dst, .. } => {
                    slots(src, dst)
                }
            };
        }
        for delta in window {
            acc ^= match *delta {
                Delta::AddNode { .. } => 0,
                Delta::RemoveNode { node } => tuple(node).first().map_or(0, |e| e.0 .0 as usize),
                Delta::SetAttr { node, attr, .. } | Delta::DelAttr { node, attr } => {
                    match find_attr(tuple(node), attr) {
                        Some(Value::Str(s)) if s.on_heap() => {
                            s.bytes().next().map_or(1, usize::from)
                        }
                        Some(_) => 2,
                        None => 0,
                    }
                }
                Delta::AddEdge { src, label, dst } | Delta::RemoveEdge { src, label, dst } => {
                    let out = self.live(&self.out_lab, src).map_or(0, |a| a.sample(label));
                    out ^ self.live(&self.inn_lab, dst).map_or(0, |a| a.sample(label))
                }
            };
        }
        std::hint::black_box(acc);
    }

    /// Set attribute `A = v` on node `n` (overwrites). `A` must not be `id`.
    /// Panics if `n` is out of range or removed.
    pub fn set_attr(&mut self, n: NodeId, attr: Symbol, v: impl Into<Value>) {
        assert!(
            attr != Symbol::ID,
            "the id attribute is the node identity and cannot be set"
        );
        assert!(self.is_alive(n), "set_attr on a removed node");
        self.write_attr(n, attr, Cow::Owned(v.into()));
    }

    /// The one attribute write, of a live node `n` and an `attr` other than
    /// `id`: [`Graph::set_attr`] hands it the value, [`Graph::apply_delta`]
    /// lends it the delta's. Returns whether it wrote: a lent value equal
    /// to the one it would replace is a no-op delta, found by the same scan
    /// that finds the entry, while a handed value is stored as given (a
    /// `set_attr` of `1.0` over `1` keeps the float). An existing value
    /// is overwritten where it lies — a lent string is copied into the
    /// entry, or into the buffer of a long string it replaces
    /// ([`Value::clone_from`]) — and only a new attribute grows
    /// the tuple, by exactly one entry when it is full: a tuple holds its
    /// entries and no spare slots (a node carries one to four attributes,
    /// where `Vec`'s first growth would reserve four), and one that lost
    /// an entry to [`Graph::remove_attr`] takes a new one without
    /// reallocating.
    pub(crate) fn write_attr(&mut self, n: NodeId, attr: Symbol, v: Cow<'_, Value>) -> bool {
        let node = &mut self.nodes[n.idx()];
        let at = node.attrs.iter().position(|e| e.0 >= attr);
        let slot = at.filter(|&i| node.attrs[i].0 == attr);
        let old = slot.map(|i| &node.attrs[i].1);
        if matches!(v, Cow::Borrowed(_)) && old == Some(&*v) {
            return false;
        }
        reindex(&mut self.value_index, (node.label, attr), n, old, Some(&*v));
        match (slot, v) {
            (Some(i), Cow::Borrowed(v)) => node.attrs[i].1.clone_from(v),
            (Some(i), Cow::Owned(v)) => node.attrs[i].1 = v,
            (None, v) => {
                let at = at.unwrap_or(node.attrs.len());
                node.attrs.reserve_exact(1);
                node.attrs.insert(at, (attr, v.into_owned()));
            }
        }
        true
    }

    /// Remove attribute `A` from node `n`, returning the previous value —
    /// `None` (never a panic) when `n` is out of range or removed, like
    /// [`Graph::remove_edge`]: a removed node's tuple is empty.
    pub fn remove_attr(&mut self, n: NodeId, attr: Symbol) -> Option<Value> {
        let node = self.nodes.get_mut(n.idx())?;
        let i = node.attrs.iter().position(|e| e.0 == attr)?;
        let (pair, old) = ((node.label, attr), node.attrs.remove(i).1);
        reindex(&mut self.value_index, pair, n, Some(&old), None);
        Some(old)
    }

    /// Hand the fresh, attribute-less node `n` its whole tuple (sorted by
    /// attribute, duplicate-free) in one exact-size allocation — the bulk
    /// counterpart of [`Graph::set_attr`], index maintenance included.
    fn set_tuple(&mut self, n: NodeId, attrs: Vec<(Symbol, Value)>) {
        debug_assert!(self.nodes[n.idx()].attrs.is_empty(), "fresh node");
        debug_assert!(attrs.windows(2).all(|w| w[0].0 < w[1].0), "sorted tuple");
        let node = &mut self.nodes[n.idx()];
        for (attr, v) in &attrs {
            reindex(&mut self.value_index, (node.label, *attr), n, None, Some(v));
        }
        node.attrs = attrs;
    }

    /// Maintain a value index for attribute `attr` of the nodes labelled
    /// exactly `label`, so that [`Graph::probe_attr`] answers for that
    /// pair. Idempotent; builds from the current `label` nodes (O(|label|
    /// · log)) and is kept current from then on by [`Graph::set_attr`],
    /// [`Graph::remove_attr`], [`Graph::remove_node`] and everything built
    /// on them ([`Graph::apply_delta`], [`Graph::append`]) — a graph with
    /// no index pays one look at an empty list per write. Costs 18–34 B
    /// per `label` node carrying `attr` (DESIGN.md §8).
    pub fn index_attr(&mut self, label: Symbol, attr: Symbol) {
        if index_position(&self.value_index, label, attr).is_some() {
            return;
        }
        let entries = self
            .nodes_with_label(label)
            .iter()
            .filter_map(|&n| Some((self.attr(n, attr)?.index_key(), n)))
            .collect();
        self.value_index.push(ValueIndex {
            label,
            attr,
            entries,
        });
    }

    /// The `(label, attr)` pairs with a value index, in the order they
    /// were first requested.
    pub fn indexed_attrs(&self) -> impl Iterator<Item = (Symbol, Symbol)> + '_ {
        self.value_index.iter().map(|ix| (ix.label, ix.attr))
    }

    /// Probe the value index of `(label, attr)`: `None` when that pair is
    /// not indexed ([`Graph::index_attr`]); otherwise, in ascending id
    /// order and duplicate-free, a **superset** of the live nodes labelled
    /// exactly `label` whose `attr` `==` `value`. The index keys on
    /// [`Value::index_key`], which distinct values may share, so a caller
    /// that needs exactly the equal nodes confirms each with `==` — the
    /// matcher's join pre-filter does.
    pub fn probe_attr(
        &self,
        label: Symbol,
        attr: Symbol,
        value: &Value,
    ) -> Option<impl Iterator<Item = NodeId> + '_> {
        let ix = &self.value_index[index_position(&self.value_index, label, attr)?];
        let key = value.index_key();
        let bucket = (key, NodeId(0))..=(key, NodeId(u32::MAX));
        Some(ix.entries.range(bucket).map(|&(_, n)| n))
    }

    /// Cross-check the label index against a scan of the live nodes — each
    /// bucket strictly ascending and exactly its label's live nodes, none
    /// left empty — every value index against a linear scan of its label's
    /// nodes, and the adjacency: each buffer well formed, out and in lists
    /// mirroring each other between live endpoints, their totals both
    /// `|E|`, tombstones holding no buffer. Panics on any difference. Runs
    /// after the bulk writers in debug builds; O(nodes + edges · log deg),
    /// so release builds never pay for it.
    pub fn assert_index_consistent(&self) {
        let directions = [
            (&self.out_lab, &self.inn_lab),
            (&self.inn_lab, &self.out_lab),
        ];
        for (lists, mirror) in directions {
            let mut total = 0;
            for (v, adj) in lists.iter().enumerate() {
                let v = NodeId(v as u32);
                adj.assert_well_formed();
                if !self.is_alive(v) {
                    assert_eq!(adj.buf.capacity(), 0, "tombstone {v} holds adjacency");
                }
                for (l, m) in adj.iter() {
                    assert!(self.is_alive(m), "{v} lists the dead or unknown {m}");
                    let back = mirror[m.idx()].group(l);
                    assert!(back.binary_search(&v).is_ok(), "{v} -{l}- {m} unmirrored");
                }
                total += adj.len();
            }
            assert_eq!(total, self.n_edges, "adjacency total against |E|");
        }
        let mut buckets: HashMap<Symbol, Vec<NodeId>> = HashMap::new();
        for n in self.nodes() {
            buckets.entry(self.label(n)).or_default().push(n);
        }
        for (label, bucket) in &self.label_index {
            let scan = buckets.remove(label);
            assert_eq!(
                Some(bucket),
                scan.as_ref(),
                "bucket of {label} against a scan"
            );
        }
        assert!(buckets.is_empty(), "labels without a bucket: {buckets:?}");
        for ix in &self.value_index {
            let scan: BTreeSet<(u64, NodeId)> = self
                .nodes_with_label(ix.label)
                .iter()
                .filter_map(|&n| Some((self.attr(n, ix.attr)?.index_key(), n)))
                .collect();
            assert_eq!(
                ix.entries, scan,
                "value index of ({}, {}) disagrees with a scan",
                ix.label, ix.attr
            );
        }
    }

    /// Number of (live) nodes `|V|`.
    pub fn node_count(&self) -> usize {
        self.n_live
    }

    /// Number of edges `|E|`.
    pub fn edge_count(&self) -> usize {
        self.n_edges
    }

    /// The paper's size measure `|G| = |V| + |E|` (plus attributes), used in
    /// the Theorem 1 chase bounds. We count attributes too, conservatively.
    /// Removed nodes carry no attributes, so the sum skips them naturally.
    pub fn size(&self) -> usize {
        self.n_live + self.n_edges + self.nodes.iter().map(|n| n.attrs.len()).sum::<usize>()
    }

    /// Label `L(n)`.
    pub fn label(&self, n: NodeId) -> Symbol {
        self.nodes[n.idx()].label
    }

    /// Attribute value `n.A`, if present.
    pub fn attr(&self, n: NodeId, attr: Symbol) -> Option<&Value> {
        find_attr(&self.nodes[n.idx()].attrs, attr)
    }

    /// The attribute tuple of `n`: sorted by attribute symbol,
    /// duplicate-free; empty for a removed node.
    pub fn attrs(&self, n: NodeId) -> &[(Symbol, Value)] {
        &self.nodes[n.idx()].attrs
    }

    /// Iterate over all live node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(move |n| self.alive[n.idx()])
    }

    /// Iterate over all edges: by source id, then label-major, then
    /// destination id.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.out_lab.iter().enumerate().flat_map(|(s, outs)| {
            outs.iter().map(move |(label, dst)| Edge {
                src: NodeId(s as u32),
                label,
                dst,
            })
        })
    }

    /// Outgoing `(label, dst)` pairs of `n`, label-major and id-sorted.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.out_lab[n.idx()].iter()
    }

    /// Incoming `(label, src)` pairs of `n`, label-major and id-sorted.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.inn_lab[n.idx()].iter()
    }

    /// Out-degree of `n`.
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.out_lab[n.idx()].len()
    }

    /// In-degree of `n`.
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.inn_lab[n.idx()].len()
    }

    /// The nodes `d` with an edge `(n, label, d)`, for one concrete edge
    /// label: one group of the adjacency. The slice is sorted by id and
    /// duplicate-free (E is a set), so it is directly usable as a matcher
    /// candidate list — no filtering, sorting, or dedup. `label` must not
    /// be the wildcard (a wildcard edge spans *all* groups; use
    /// [`Graph::out_edges`]).
    pub fn out_edges_labeled(&self, n: NodeId, label: Symbol) -> &[NodeId] {
        debug_assert!(!label.is_wildcard(), "wildcard spans all label groups");
        self.out_lab[n.idx()].group(label)
    }

    /// The nodes `s` with an edge `(s, label, n)` — the incoming
    /// counterpart of [`Graph::out_edges_labeled`]; sorted, duplicate-free.
    pub fn in_edges_labeled(&self, n: NodeId, label: Symbol) -> &[NodeId] {
        debug_assert!(!label.is_wildcard(), "wildcard spans all label groups");
        self.inn_lab[n.idx()].group(label)
    }

    /// Number of out-edges of `n` with exactly `label` — O(log #labels),
    /// the degree pre-filter's lookup.
    pub fn out_degree_labeled(&self, n: NodeId, label: Symbol) -> usize {
        self.out_lab[n.idx()].group(label).len()
    }

    /// Number of in-edges of `n` with exactly `label`.
    pub fn in_degree_labeled(&self, n: NodeId, label: Symbol) -> usize {
        self.inn_lab[n.idx()].group(label).len()
    }

    /// Exact edge membership test: a binary search inside `src`'s `label`
    /// group. `false` (never a panic) for out-of-range or removed endpoints.
    pub fn has_edge(&self, src: NodeId, label: Symbol, dst: NodeId) -> bool {
        let out = self.out_lab.get(src.idx());
        out.is_some_and(|out| out.group(label).binary_search(&dst).is_ok())
    }

    /// Edge membership under pattern-label matching `ι ⪯ ι′`: is there an
    /// edge `src → dst` whose label is matched by `pat_label` (which may be
    /// the wildcard)? Same no-panic contract as [`Graph::has_edge`].
    pub fn has_edge_matching(&self, src: NodeId, pat_label: Symbol, dst: NodeId) -> bool {
        if !pat_label.is_wildcard() {
            return self.has_edge(src, pat_label, dst);
        }
        let out = self.out_lab.get(src.idx());
        out.is_some_and(|out| out.nbrs().contains(&dst))
    }

    /// Nodes whose label *equals* `label` exactly.
    pub fn nodes_with_label(&self, label: Symbol) -> &[NodeId] {
        self.label_index
            .get(&label)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Candidate data nodes for a pattern node labelled `pat_label` under the
    /// matching relation `⪯`: every node if `pat_label` is the wildcard,
    /// otherwise exactly the nodes labelled `pat_label`. The concrete-label
    /// case borrows the label-index bucket directly; only the wildcard case
    /// materialises a list.
    pub fn label_candidates(&self, pat_label: Symbol) -> Cow<'_, [NodeId]> {
        if pat_label.is_wildcard() {
            Cow::Owned(self.nodes().collect())
        } else {
            Cow::Borrowed(self.nodes_with_label(pat_label))
        }
    }

    /// `label_candidates(pat_label).len()` without allocating the list —
    /// for selectivity comparisons (e.g. picking the pivot variable with
    /// the fewest candidates) that only need the count.
    pub fn label_candidate_count(&self, pat_label: Symbol) -> usize {
        if pat_label.is_wildcard() {
            self.node_count()
        } else {
            self.nodes_with_label(pat_label).len()
        }
    }

    /// The distinct labels present in the graph.
    pub fn labels(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.label_index.keys().copied()
    }

    /// Build the quotient graph under a partition of the nodes: `class[v]`
    /// gives the class index of node `v`; the new graph has `n_classes`
    /// nodes, labelled and attributed by the supplied tables, with every
    /// edge `(u, ι, v)` rewired to `(class[u], ι, class[v])` (duplicates
    /// collapse since E is a set). This is the engine under the chase's
    /// *coercion* `G_Eq` (Section 4.1). The result is a fresh graph and
    /// carries no value index, whatever `self` indexes.
    pub fn quotient(
        &self,
        class: &[u32],
        n_classes: usize,
        labels: &[Symbol],
        attrs: Vec<BTreeMap<Symbol, Value>>,
    ) -> Graph {
        assert_eq!(class.len(), self.nodes.len(), "partition covers every node");
        assert!(
            !self.has_removals(),
            "quotient is defined on graphs without removed nodes — call Graph::compact() first"
        );
        assert_eq!(labels.len(), n_classes);
        assert_eq!(attrs.len(), n_classes);
        let mut g = Graph::new();
        for (i, &label) in labels.iter().enumerate() {
            let id = g.add_node(label);
            debug_assert_eq!(id.idx(), i);
        }
        for (i, a) in attrs.into_iter().enumerate() {
            g.set_tuple(NodeId(i as u32), a.into_iter().collect());
        }
        for e in self.edges() {
            g.add_edge(
                NodeId(class[e.src.idx()]),
                e.label,
                NodeId(class[e.dst.idx()]),
            );
        }
        g
    }

    /// Append a disjoint copy of `other`, returning the offset that maps
    /// `other`'s ids into `self` (node `v` of `other` becomes
    /// `NodeId(v.0 + offset)`). Used to build the canonical graph `G_Σ`
    /// (Section 5.1), the disjoint union of all patterns in Σ. The copied
    /// nodes enter whatever value indexes `self` maintains; `other`'s own
    /// indexes are not carried over.
    pub fn append(&mut self, other: &Graph) -> u32 {
        assert!(
            !other.has_removals(),
            "append is defined on graphs without removed nodes — call Graph::compact() first"
        );
        let offset = self.nodes.len() as u32;
        for n in other.nodes() {
            let id = self.add_node(other.label(n));
            self.set_tuple(id, other.attrs(n).to_vec());
        }
        for e in other.edges() {
            self.add_edge(NodeId(e.src.0 + offset), e.label, NodeId(e.dst.0 + offset));
        }
        #[cfg(debug_assertions)]
        self.assert_index_consistent();
        offset
    }

    /// Compact away tombstoned id slots: returns a dense copy of the live
    /// graph plus the id translation (`map[old.idx()] == Some(new)` for
    /// surviving nodes, `None` for removed ones). This is the bridge from
    /// an *evolved* graph back to the chase machinery ([`Graph::quotient`],
    /// `EqRel`, coercion), which requires dense ids. The copy carries no
    /// value index; ask again with [`Graph::index_attr`] if it needs one.
    pub fn compact(&self) -> (Graph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_id_bound()];
        let mut g = Graph::new();
        for n in self.nodes() {
            let id = g.add_node(self.label(n));
            g.set_tuple(id, self.attrs(n).to_vec());
            map[n.idx()] = Some(id);
        }
        for e in self.edges() {
            g.add_edge(
                map[e.src.idx()].expect("live edge endpoint"),
                e.label,
                map[e.dst.idx()].expect("live edge endpoint"),
            );
        }
        (g, map)
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph({} nodes, {} edges, {} labels)",
            self.node_count(),
            self.edge_count(),
            self.label_index.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn build_small_graph() {
        let mut g = Graph::new();
        let a = g.add_node(sym("person"));
        let b = g.add_node(sym("product"));
        assert!(g.add_edge(a, sym("create"), b));
        assert!(!g.add_edge(a, sym("create"), b), "E is a set");
        g.set_attr(a, sym("name"), "Tony");
        g.set_attr(b, sym("type"), "video game");

        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.label(a), sym("person"));
        assert_eq!(g.attr(a, sym("name")), Some(&Value::from("Tony")));
        assert_eq!(g.attr(a, sym("missing")), None);
        assert!(g.has_edge(a, sym("create"), b));
        assert!(!g.has_edge(b, sym("create"), a));
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    #[should_panic(expected = "id attribute")]
    fn cannot_set_id_attribute() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        g.set_attr(a, Symbol::ID, 3);
    }

    #[test]
    fn label_index_and_candidates() {
        let mut g = Graph::new();
        let p1 = g.add_node(sym("person"));
        let p2 = g.add_node(sym("person"));
        let q = g.add_node(sym("product"));
        assert_eq!(g.nodes_with_label(sym("person")), &[p1, p2]);
        assert_eq!(g.nodes_with_label(sym("nothing")), &[] as &[NodeId]);
        assert_eq!(g.label_candidates(Symbol::WILDCARD), vec![p1, p2, q]);
        assert_eq!(g.label_candidates(sym("product")), vec![q]);
        // The allocation-free count agrees with the list, tombstones
        // included.
        for label in [Symbol::WILDCARD, sym("person"), sym("nothing")] {
            assert_eq!(
                g.label_candidate_count(label),
                g.label_candidates(label).len()
            );
        }
        g.remove_node(p1);
        for label in [Symbol::WILDCARD, sym("person")] {
            assert_eq!(
                g.label_candidate_count(label),
                g.label_candidates(label).len()
            );
        }
    }

    #[test]
    fn edge_matching_with_wildcard() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("knows"), b);
        assert!(g.has_edge_matching(a, sym("knows"), b));
        assert!(g.has_edge_matching(a, Symbol::WILDCARD, b));
        assert!(!g.has_edge_matching(b, Symbol::WILDCARD, a));
        assert!(!g.has_edge_matching(a, sym("likes"), b));
    }

    #[test]
    fn quotient_merges_nodes_and_collapses_edges() {
        // a -knows-> b, c -knows-> b; merge a and c.
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("t"));
        g.add_edge(a, sym("knows"), b);
        g.add_edge(c, sym("knows"), b);
        g.set_attr(a, sym("x"), 1);
        g.set_attr(c, sym("y"), 2);

        let class = [0u32, 1, 0]; // a,c -> class 0; b -> class 1
        let mut merged_attrs = BTreeMap::new();
        merged_attrs.insert(sym("x"), Value::from(1));
        merged_attrs.insert(sym("y"), Value::from(2));
        let q = g.quotient(
            &class,
            2,
            &[sym("t"), sym("t")],
            vec![merged_attrs, BTreeMap::new()],
        );
        assert_eq!(q.node_count(), 2);
        assert_eq!(q.edge_count(), 1, "two parallel edges collapse");
        assert!(q.has_edge(NodeId(0), sym("knows"), NodeId(1)));
        assert_eq!(q.attr(NodeId(0), sym("x")), Some(&Value::from(1)));
        assert_eq!(q.attr(NodeId(0), sym("y")), Some(&Value::from(2)));
    }

    #[test]
    fn quotient_preserves_self_loops_created_by_merge() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        let q = g.quotient(&[0, 0], 1, &[sym("t")], vec![BTreeMap::new()]);
        assert!(
            q.has_edge(NodeId(0), sym("e"), NodeId(0)),
            "merge creates a self loop"
        );
    }

    #[test]
    fn append_builds_disjoint_union() {
        let mut g1 = Graph::new();
        let a = g1.add_node(sym("x"));
        g1.set_attr(a, sym("k"), 7);
        let mut g2 = Graph::new();
        let b = g2.add_node(sym("y"));
        let c = g2.add_node(sym("y"));
        g2.add_edge(b, sym("e"), c);

        let off = g1.append(&g2);
        assert_eq!(off, 1);
        assert_eq!(g1.node_count(), 3);
        assert_eq!(g1.edge_count(), 1);
        assert!(g1.has_edge(NodeId(1), sym("e"), NodeId(2)));
        assert_eq!(g1.attr(NodeId(0), sym("k")), Some(&Value::from(7)));
    }

    #[test]
    fn edges_iterator_is_complete() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        g.add_edge(b, sym("f"), a);
        g.add_edge(a, sym("g"), a);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by_key(|e| (e.src, e.dst, e.label));
        assert_eq!(edges.len(), 3);
    }

    #[test]
    fn size_counts_nodes_edges_attrs() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        g.set_attr(a, sym("p"), 1);
        g.set_attr(a, sym("q"), 2);
        assert_eq!(g.size(), 2 + 1 + 2);
    }

    #[test]
    fn remove_edge_updates_all_indexes() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.add_edge(a, sym("e"), b);
        g.add_edge(a, sym("f"), b);
        assert!(g.remove_edge(a, sym("e"), b));
        assert!(!g.remove_edge(a, sym("e"), b), "already gone");
        assert!(!g.has_edge(a, sym("e"), b));
        assert!(g.has_edge(a, sym("f"), b), "other label survives");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
    }

    #[test]
    fn remove_node_drops_incident_edges_and_tombstones_id() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("u"));
        g.add_edge(a, sym("e"), b);
        g.add_edge(c, sym("e"), b);
        g.add_edge(b, sym("f"), b); // self loop on the victim
        g.set_attr(b, sym("p"), 1);

        assert!(g.remove_node(b));
        assert!(!g.remove_node(b), "double removal is a no-op");
        assert!(!g.is_alive(b));
        assert!(g.is_alive(a) && g.is_alive(c));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(a), 0);
        assert_eq!(g.out_degree(c), 0);
        assert_eq!(g.nodes_with_label(sym("t")), &[a]);
        assert!(!g.nodes().any(|n| n == b), "iteration skips dead nodes");
        assert!(g.attrs(b).is_empty(), "attributes cleared");
        assert_eq!(g.size(), 2, "two live nodes, no edges, no attrs");

        // Ids are never reused: a new node gets a fresh id.
        let d = g.add_node(sym("t"));
        assert_ne!(d, b);
        assert_eq!(g.node_id_bound(), 4);
        assert!(g.has_removals());
    }

    #[test]
    fn removal_keeps_surviving_ids_stable() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("t"));
        g.set_attr(c, sym("p"), 7);
        g.remove_node(b);
        assert_eq!(g.label(a), sym("t"));
        assert_eq!(g.attr(c, sym("p")), Some(&Value::from(7)));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![a, c]);
        assert_eq!(g.label_candidates(Symbol::WILDCARD), vec![a, c]);
    }

    #[test]
    fn labels_shrink_when_last_node_of_a_label_dies() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("u"));
        assert_eq!(g.labels().count(), 2);
        g.remove_node(b);
        let labels: Vec<Symbol> = g.labels().collect();
        assert_eq!(labels, vec![sym("t")], "no phantom label for u");
        g.remove_node(a);
        assert_eq!(g.labels().count(), 0);
    }

    #[test]
    fn remove_node_finds_its_bucket_slot_wherever_it_sits() {
        let mut g = Graph::new();
        let (t, u) = (sym("t"), sym("u"));
        // The `t` bucket is ascending but not dense: `u` nodes interleave.
        let mut ts = Vec::new();
        for _ in 0..5 {
            ts.push(g.add_node(t));
            g.add_node(u);
        }
        let only = g.add_node(sym("lonely"));
        for victim in [ts[0], ts[2], ts[4]] {
            assert!(g.remove_node(victim), "first, middle, last of the bucket");
            g.assert_index_consistent();
        }
        assert_eq!(g.nodes_with_label(t), &[ts[1], ts[3]]);
        assert!(!g.remove_node(ts[2]), "already removed");
        assert!(!g.remove_node(NodeId(u32::MAX)), "never existed");
        assert_eq!(g.nodes_with_label(t), &[ts[1], ts[3]], "bucket untouched");
        assert!(g.remove_node(only));
        assert!(
            g.labels().all(|l| l != sym("lonely")),
            "emptied bucket gone"
        );
        assert_eq!(g.labels().count(), 2);
        // A later node of the same label lands behind the survivors.
        let late = g.add_node(t);
        assert_eq!(g.nodes_with_label(t), &[ts[1], ts[3], late]);
        g.assert_index_consistent();
    }

    #[test]
    fn compact_densifies_and_translates_ids() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let c = g.add_node(sym("u"));
        g.add_edge(a, sym("e"), c);
        g.set_attr(c, sym("p"), 9);
        g.remove_node(b);

        let (dense, map) = g.compact();
        assert_eq!(dense.node_count(), 2);
        assert!(!dense.has_removals());
        assert_eq!(map[a.idx()], Some(NodeId(0)));
        assert_eq!(map[b.idx()], None);
        assert_eq!(map[c.idx()], Some(NodeId(1)));
        assert!(dense.has_edge(NodeId(0), sym("e"), NodeId(1)));
        assert_eq!(dense.attr(NodeId(1), sym("p")), Some(&Value::from(9)));
    }

    #[test]
    #[should_panic(expected = "compact")]
    fn append_rejects_tombstoned_graphs() {
        let mut other = Graph::new();
        let a = other.add_node(sym("t"));
        other.add_node(sym("t"));
        other.remove_node(a);
        let mut g = Graph::new();
        g.append(&other);
    }

    #[test]
    #[should_panic(expected = "removed")]
    fn edge_to_removed_node_panics() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.remove_node(b);
        g.add_edge(a, sym("e"), b);
    }

    type Model = BTreeSet<(NodeId, Symbol, NodeId)>;

    /// Check every edge-facing accessor of `g` against the reference set
    /// `model` over the edge labels `labels`: membership, counts, `edges()`
    /// and its order, and every per-node group (sorted, duplicate-free).
    fn assert_matches_model(g: &Graph, model: &Model, labels: &[Symbol]) {
        assert_eq!(g.edge_count(), model.len());
        let edges: Vec<_> = g.edges().map(|e| (e.src, e.label, e.dst)).collect();
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "src, label, dst order"
        );
        assert_eq!(edges.into_iter().collect::<Model>(), *model);
        for n in (0..g.node_id_bound() as u32).map(NodeId) {
            let outs: Model = g.out_edges(n).map(|(l, d)| (n, l, d)).collect();
            let inns: Model = g.in_edges(n).map(|(l, s)| (s, l, n)).collect();
            assert_eq!(outs, model.iter().filter(|e| e.0 == n).copied().collect());
            assert_eq!(inns, model.iter().filter(|e| e.2 == n).copied().collect());
            assert_eq!(g.out_degree(n), outs.len());
            assert_eq!(g.in_degree(n), inns.len());
            for &l in labels {
                let out_l: Vec<NodeId> = outs.iter().filter(|e| e.1 == l).map(|e| e.2).collect();
                let in_l: Vec<NodeId> = inns.iter().filter(|e| e.1 == l).map(|e| e.0).collect();
                // `Model` iteration is sorted and duplicate-free, so equality
                // pins both properties on the groups.
                assert_eq!(g.out_edges_labeled(n, l), out_l, "node {n} label {l}");
                assert_eq!(g.in_edges_labeled(n, l), in_l, "node {n} label {l}");
                assert_eq!(g.out_degree_labeled(n, l), out_l.len());
                assert_eq!(g.in_degree_labeled(n, l), in_l.len());
                for m in (0..g.node_id_bound() as u32 + 2).map(NodeId) {
                    assert_eq!(g.has_edge(n, l, m), model.contains(&(n, l, m)));
                    assert_eq!(g.has_edge(m, l, n), model.contains(&(m, l, n)));
                }
            }
            for m in (0..g.node_id_bound() as u32).map(NodeId) {
                assert_eq!(
                    g.has_edge_matching(n, Symbol::WILDCARD, m),
                    model.iter().any(|e| e.0 == n && e.2 == m)
                );
            }
        }
    }

    /// The adjacency is the only edge store, so pin it against a reference
    /// set under a seeded random update stream: add/remove edge (self loops
    /// and the same pair under two labels included), remove node, re-add.
    #[test]
    fn adjacency_matches_a_set_model_under_random_updates() {
        let labels = [sym("e"), sym("f"), sym("g")];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut g = Graph::new();
        let mut model = Model::new();
        for _ in 0..6 {
            g.add_node(sym("t"));
        }
        let (mut self_loops, mut two_labels, mut dropped_with_node) = (0, 0, 0);
        for _ in 0..600 {
            let bound = g.node_id_bound();
            let (s, d) = (NodeId(rand(bound) as u32), NodeId(rand(bound) as u32));
            let l = labels[rand(labels.len())];
            match rand(20) {
                0..=10 if g.is_alive(s) && g.is_alive(d) => {
                    assert_eq!(g.add_edge(s, l, d), model.insert((s, l, d)));
                    self_loops += usize::from(s == d);
                    two_labels +=
                        usize::from(labels.iter().any(|&k| k != l && g.has_edge(s, k, d)));
                }
                11..=15 => assert_eq!(g.remove_edge(s, l, d), model.remove(&(s, l, d))),
                16..=18 if g.node_count() < 8 => {
                    g.add_node(sym("t"));
                }
                19 => {
                    let before = model.len();
                    if g.remove_node(s) {
                        model.retain(|e| e.0 != s && e.2 != s);
                    }
                    dropped_with_node += before - model.len();
                }
                _ => {}
            }
            assert_matches_model(&g, &model, &labels);
            g.assert_index_consistent();
        }
        assert!(self_loops > 0 && two_labels > 0 && dropped_with_node > 0);
        assert!(g.has_removals() && !model.is_empty());
    }

    /// The probe of `(label, attr)` for `value`, which must be indexed.
    fn probe(g: &Graph, label: Symbol, attr: Symbol, value: &Value) -> Vec<NodeId> {
        let bucket = g.probe_attr(label, attr, value);
        bucket.expect("pair is indexed").collect()
    }

    /// The value index is maintained inside the attribute and node
    /// primitives, so pin it against a linear scan under a seeded random
    /// update stream — set, overwrite and delete attributes, add and remove
    /// nodes, re-add after a removal — for values chosen to collide and
    /// nearly collide: mixed numerics, the 2⁵³ pair, `-0.0`, and a string
    /// and a boolean that read like the integer.
    #[test]
    fn value_index_matches_a_linear_scan_under_random_updates() {
        const P53: i64 = 1 << 53;
        let pool = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(0.5),
            Value::from("1"),
            Value::from(true),
            // Both integers `==` the float, which is their shared `f64`
            // image, but not each other: one bucket, two answers.
            Value::Int(P53),
            Value::Int(P53 + 1),
            Value::Float(P53 as f64),
            Value::Int(0),
            Value::Float(-0.0),
        ];
        let labels = [sym("t"), sym("u")];
        let attrs = [sym("a"), sym("b"), sym("c")];
        let indexed = [
            (labels[0], attrs[0]),
            (labels[0], attrs[1]),
            (labels[1], attrs[0]),
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rand = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_node(labels[i % 2]);
        }
        // An index built over existing data and one built on an empty label.
        g.set_attr(NodeId(0), attrs[0], 1);
        g.index_attr(indexed[0].0, indexed[0].1);
        g.index_attr(indexed[1].0, indexed[1].1);
        g.index_attr(indexed[0].0, indexed[0].1); // idempotent
        g.index_attr(indexed[2].0, indexed[2].1);
        assert_eq!(g.indexed_attrs().collect::<Vec<_>>(), indexed);
        let (mut overwrites, mut deletes, mut removed_keyed, mut shared_bucket) = (0, 0, 0, 0);
        for _ in 0..1500 {
            let n = NodeId(rand(g.node_id_bound()) as u32);
            let attr = attrs[rand(attrs.len())];
            match rand(20) {
                0..=11 if g.is_alive(n) => {
                    overwrites += usize::from(g.attr(n, attr).is_some());
                    g.set_attr(n, attr, pool[rand(pool.len())].clone());
                }
                12..=14 if g.is_alive(n) => {
                    deletes += usize::from(g.remove_attr(n, attr).is_some());
                }
                15..=17 if g.node_count() < 9 => {
                    g.add_node(labels[rand(2)]);
                }
                18 => {
                    removed_keyed += usize::from(g.is_alive(n) && !g.attrs(n).is_empty());
                    g.remove_node(n);
                }
                _ => {}
            }
            g.assert_index_consistent();
            for n in g.nodes() {
                assert!(
                    g.attrs(n).windows(2).all(|w| w[0].0 < w[1].0),
                    "sorted tuple"
                );
            }
            for (label, attr) in indexed {
                for value in &pool {
                    let got = probe(&g, label, attr, value);
                    assert!(
                        got.windows(2).all(|w| w[0] < w[1]),
                        "sorted, duplicate-free"
                    );
                    assert!(got.iter().all(|&n| g.is_alive(n) && g.label(n) == label));
                    let scan: Vec<NodeId> = g
                        .nodes_with_label(label)
                        .iter()
                        .copied()
                        .filter(|&n| g.attr(n, attr) == Some(value))
                        .collect();
                    let equal: Vec<NodeId> = got
                        .iter()
                        .copied()
                        .filter(|&n| g.attr(n, attr) == Some(value))
                        .collect();
                    assert_eq!(equal, scan, "({label}, {attr}) = {value}");
                    shared_bucket += usize::from(got.len() > scan.len());
                }
            }
            assert!(g.probe_attr(labels[1], attrs[1], &pool[0]).is_none());
        }
        assert!(overwrites > 0 && deletes > 0 && removed_keyed > 0 && g.has_removals());
        assert!(
            shared_bucket > 0,
            "a probe is a superset: some bucket held a non-equal value"
        );
        // An index requested only now reads the same as the maintained one.
        let mut late = g.clone();
        late.value_index.clear();
        for (label, attr) in indexed {
            late.index_attr(label, attr);
        }
        for (early, late) in g.value_index.iter().zip(&late.value_index) {
            assert_eq!((early.label, early.attr), (late.label, late.attr));
            assert_eq!(early.entries, late.entries);
        }
    }

    /// The bulk writers go through the maintained path: nodes appended to
    /// an indexed graph are probed like any other, and the dense copies
    /// `compact` and `quotient` hand back start without an index.
    #[test]
    fn append_feeds_the_value_index_and_copies_carry_none() {
        let (t, k) = (sym("t"), sym("k"));
        let mut g = Graph::new();
        let a = g.add_node(t);
        g.set_attr(a, k, 7);
        g.index_attr(t, k);

        let mut other = Graph::new();
        let b = other.add_node(t);
        let c = other.add_node(sym("u"));
        let d = other.add_node(t);
        other.set_attr(b, k, 7.0);
        other.set_attr(c, k, 7);
        other.set_attr(d, k, 8);
        other.set_attr(d, sym("j"), 7);
        let off = g.append(&other);
        let moved = |n: NodeId| NodeId(n.0 + off);
        assert_eq!(probe(&g, t, k, &Value::Int(7)), [a, moved(b)]);
        assert_eq!(probe(&g, t, k, &Value::Int(8)), [moved(d)]);
        g.assert_index_consistent();

        g.remove_node(a);
        assert_eq!(probe(&g, t, k, &Value::Int(7)), [moved(b)]);
        let (dense, _) = g.compact();
        assert!(dense.probe_attr(t, k, &Value::Int(7)).is_none());
        assert_eq!(dense.attr(NodeId(0), k), Some(&Value::Float(7.0)));
        let n = dense.node_count();
        let class: Vec<u32> = (0..n as u32).collect();
        let labels: Vec<Symbol> = dense.nodes().map(|v| dense.label(v)).collect();
        let tuples = dense
            .nodes()
            .map(|v| dense.attrs(v).iter().cloned().collect())
            .collect();
        let q = dense.quotient(&class, n, &labels, tuples);
        assert!(q.probe_attr(t, k, &Value::Int(7)).is_none());
        assert_eq!(q.attrs(NodeId(2)), dense.attrs(NodeId(2)));
    }

    /// `remove_edge` / `has_edge` / `has_edge_matching` answer `false` for
    /// ids beyond the bound and for tombstoned ids, at either endpoint —
    /// `apply_delta(RemoveEdge)` forwards wire input here unguarded.
    #[test]
    fn edge_queries_on_dead_or_out_of_range_endpoints_do_not_panic() {
        let mut g = Graph::new();
        let e = sym("e");
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        let dead = g.add_node(sym("t"));
        g.add_edge(a, e, b);
        g.add_edge(a, e, dead);
        g.add_edge(dead, e, b);
        g.remove_node(dead);
        let beyond = NodeId(g.node_id_bound() as u32);
        let far = NodeId(u32::MAX);
        for bad in [dead, beyond, far] {
            for (s, d) in [(bad, a), (a, bad), (bad, bad)] {
                assert!(!g.has_edge(s, e, d));
                assert!(!g.has_edge_matching(s, e, d));
                assert!(!g.has_edge_matching(s, Symbol::WILDCARD, d));
                assert!(!g.remove_edge(s, e, d));
                let fx = g.apply_delta(&crate::Delta::RemoveEdge {
                    src: s,
                    label: e,
                    dst: d,
                });
                assert!(!fx.changed);
            }
            assert_eq!(g.remove_attr(bad, sym("p")), None);
        }
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, e, b), "the live edge is untouched");
    }

    #[test]
    fn labeled_view_tracks_adds_removes_and_tombstones() {
        let mut g = Graph::new();
        let (e, f) = (sym("e"), sym("f"));
        let n: Vec<NodeId> = (0..5).map(|_| g.add_node(sym("t"))).collect();
        g.add_edge(n[0], e, n[2]);
        g.add_edge(n[0], e, n[1]);
        g.add_edge(n[0], f, n[1]);
        g.add_edge(n[0], e, n[0]); // self loop
        g.add_edge(n[3], e, n[0]);
        assert_eq!(g.out_edges_labeled(n[0], e), &[n[0], n[1], n[2]]);
        assert_eq!(g.out_edges_labeled(n[0], f), &[n[1]]);
        assert_eq!(g.in_edges_labeled(n[0], e), &[n[0], n[3]]);
        assert_eq!(g.out_degree_labeled(n[0], e), 3);
        assert_eq!(g.in_degree_labeled(n[1], f), 1);
        assert_eq!(g.out_edges_labeled(n[4], e), &[] as &[NodeId]);

        assert!(g.remove_edge(n[0], e, n[1]));
        assert_eq!(g.out_edges_labeled(n[0], e), &[n[0], n[2]]);

        // Tombstoning n[0] clears its own groups and every mirror entry.
        assert!(g.remove_node(n[0]));
        assert_eq!(g.out_edges_labeled(n[3], e), &[] as &[NodeId]);
        assert_eq!(g.in_edges_labeled(n[2], e), &[] as &[NodeId]);
        assert_eq!(g.edge_count(), 0);

        // Remove-then-re-add under a fresh id keeps the view exact.
        let d = g.add_node(sym("t"));
        g.add_edge(n[3], e, d);
        g.add_edge(d, f, n[3]);
        assert_eq!(g.out_edges_labeled(n[3], e), &[d]);
        assert_eq!(g.in_edges_labeled(n[3], f), &[d]);
        let model = Model::from([(n[3], e, d), (d, f, n[3])]);
        assert_matches_model(&g, &model, &[e, f]);
    }

    #[test]
    fn labeled_view_survives_compact() {
        let mut g = Graph::new();
        let (e, f) = (sym("e"), sym("f"));
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(sym("t"))).collect();
        g.add_edge(n[0], e, n[1]);
        g.add_edge(n[0], f, n[2]);
        g.add_edge(n[2], e, n[2]);
        g.remove_node(n[1]);
        let (dense, map) = g.compact();
        let tr = |n: NodeId| map[n.idx()].unwrap();
        let model: Model = g.edges().map(|x| (tr(x.src), x.label, tr(x.dst))).collect();
        assert_matches_model(&dense, &model, &[e, f]);
        let c2 = map[n[2].idx()].unwrap();
        assert_eq!(dense.out_edges_labeled(map[n[0].idx()].unwrap(), f), &[c2]);
        assert_eq!(dense.out_edges_labeled(c2, e), &[c2], "self loop kept");
        assert_eq!(
            map[n[3].idx()].map(|m| dense.out_degree_labeled(m, e)),
            Some(0)
        );
    }

    /// `adj` against its model: well formed, the same pairs in the same
    /// (label-major) order, the degree, and every group of `labels`.
    fn assert_adj_matches(adj: &LabeledAdj, model: &BTreeSet<(Symbol, NodeId)>, labels: &[Symbol]) {
        adj.assert_well_formed();
        assert!(
            adj.iter().eq(model.iter().copied()),
            "pairs and their order"
        );
        assert_eq!(adj.len(), model.len());
        assert!(adj.nbrs().iter().eq(model.iter().map(|e| &e.1)));
        for &l in labels {
            let group: Vec<NodeId> = model.iter().filter(|e| e.0 == l).map(|e| e.1).collect();
            assert_eq!(adj.group(l), group, "group {l:?}");
        }
    }

    proptest::proptest! {
        /// Random inserts and removes on one adjacency buffer, against a
        /// `BTreeSet` of `(label, id)` pairs: the set guard's answers, the
        /// header and every group after each step.
        #[test]
        fn labeled_adj_matches_a_set_model(
            ops in proptest::collection::vec((0usize..3, 0usize..4, 0u32..6), 0..160)
        ) {
            let labels = [Symbol(40), Symbol(10), Symbol(30), Symbol(20)];
            let mut adj = LabeledAdj::default();
            let mut model = BTreeSet::new();
            for (op, l, n) in ops {
                let (l, n) = (labels[l], NodeId(n));
                if op < 2 {
                    proptest::prop_assert_eq!(adj.insert(l, n), model.insert((l, n)));
                } else {
                    proptest::prop_assert_eq!(adj.remove(l, n), model.remove(&(l, n)));
                }
                assert_adj_matches(&adj, &model, &labels);
            }
        }
    }

    /// The header edits the set model leaves to chance, in order: groups
    /// opened at the front, the end and the middle, a middle and a last
    /// group emptied, and the last edge freeing the buffer.
    #[test]
    fn labeled_adj_opens_and_closes_groups_anywhere() {
        let [a, b, c, d] = [Symbol(10), Symbol(20), Symbol(30), Symbol(40)];
        let labels = [a, b, c, d];
        let mut adj = LabeledAdj::default();
        let mut model = BTreeSet::new();
        let steps = [
            (true, c, 5), // the first group: one heap block of 4 words
            (true, a, 7), // opened at the front
            (true, d, 1), // at the end
            (true, b, 3), // in the middle
            (true, b, 2), // into a group, before its ids
            (true, b, 2), // a duplicate changes nothing
            (true, c, 9), // behind a group's ids
            (false, b, 2),
            (false, b, 3), // the middle group emptied
            (false, d, 1), // the last group emptied
            (false, a, 7), // the first group emptied
            (false, c, 6), // an absent id
            (false, b, 5), // an absent label
            (false, c, 5),
            (false, c, 9), // the last edge: the buffer is freed
        ];
        for (i, (insert, l, n)) in steps.into_iter().enumerate() {
            let n = NodeId(n);
            if insert {
                assert_eq!(adj.insert(l, n), model.insert((l, n)), "step {i}");
            } else {
                assert_eq!(adj.remove(l, n), model.remove(&(l, n)), "step {i}");
            }
            assert_adj_matches(&adj, &model, &labels);
            if i == 0 {
                assert_eq!(adj.buf.capacity(), 4, "one exact block for a first edge");
            }
        }
        assert_eq!(adj.buf.capacity(), 0);
    }

    /// What a node slot costs inline, live or dead — its label, tuple
    /// header, liveness flag and two adjacency buffer headers — what a
    /// tuple entry costs, and that a tombstone, like a direction whose
    /// last edge left, holds no heap.
    #[test]
    fn node_slot_footprint() {
        use std::mem::size_of;
        let adj = size_of::<LabeledAdj>();
        let slot = size_of::<NodeData>() + size_of::<bool>() + 2 * adj;
        println!(
            "inline bytes per node slot: {slot} (NodeData {}, alive 1, LabeledAdj 2 × {adj})",
            size_of::<NodeData>()
        );
        assert_eq!(adj, 24);
        assert!(slot <= 81, "{slot} inline bytes per node");
        // A short string sits in its value, which stays a `String`'s size,
        // so a tuple entry stays 32 bytes.
        assert_eq!(size_of::<Value>(), 24);
        assert_eq!(size_of::<(Symbol, Value)>(), 32);

        let mut g = Graph::new();
        let (e, f) = (sym("e"), sym("f"));
        let [a, b, c] = [0, 1, 2].map(|_| g.add_node(sym("t")));
        g.add_edge(a, e, b);
        g.add_edge(b, f, c);
        g.add_edge(b, e, b);
        g.add_edge(a, f, c);
        g.set_attr(b, sym("p"), "text");
        assert!(g.remove_node(b));
        let capacities = |g: &Graph, n: NodeId| {
            let (out, inn) = (&g.out_lab[n.idx()].buf, &g.inn_lab[n.idx()].buf);
            [
                g.nodes[n.idx()].attrs.capacity(),
                out.capacity(),
                inn.capacity(),
            ]
        };
        assert_eq!(capacities(&g, b), [0, 0, 0], "a tombstone holds no heap");
        assert_eq!(g.out_degree(a), 1, "a -f-> c survives");
        assert!(g.remove_edge(a, f, c));
        assert_eq!(capacities(&g, a)[1], 0, "a's emptied out-direction");
        assert_eq!(capacities(&g, c)[2], 0, "c's emptied in-direction");
        g.assert_index_consistent();
    }

    /// A tuple holds its entries and no spare slots, whether it grew
    /// through `set_attr` or through `apply_delta`, and a removal keeps
    /// the slot it freed, so a new attribute after it does not reallocate.
    #[test]
    fn attr_tuples_hold_exactly_their_entries() {
        let attrs = ["d", "b", "a", "c"].map(sym);
        let entry = std::mem::size_of::<(Symbol, Value)>();
        let mut g = Graph::new();
        let [by_set, by_delta] = [0, 1].map(|_| g.add_node(sym("t")));
        let capacity = |g: &Graph, n: NodeId| g.nodes[n.idx()].attrs.capacity();
        let set = |node, attr, value: i64| Delta::SetAttr {
            node,
            attr,
            value: value.into(),
        };
        for (value, (n, &attr)) in (1..).zip(attrs.iter().enumerate()) {
            g.set_attr(by_set, attr, value);
            assert!(g.apply_delta(&set(by_delta, attr, value)).changed);
            let held = [capacity(&g, by_set), capacity(&g, by_delta)];
            assert_eq!(held, [n + 1; 2], "set_attr, SetAttr: {} attributes", n + 1);
            if n == 0 || n + 1 == attrs.len() {
                println!(
                    "heap bytes of a {}-attribute tuple: {}",
                    n + 1,
                    held[0] * entry
                );
            }
        }
        g.set_attr(by_set, attrs[0], "an overwrite");
        assert_eq!(
            capacity(&g, by_set),
            attrs.len(),
            "an overwrite grows nothing"
        );

        let del = Delta::DelAttr {
            node: by_delta,
            attr: attrs[1],
        };
        assert!(g.apply_delta(&del).changed);
        assert_eq!(
            capacity(&g, by_delta),
            attrs.len(),
            "a removal keeps its slot"
        );
        assert!(g.apply_delta(&set(by_delta, sym("e"), 5)).changed);
        assert_eq!(
            capacity(&g, by_delta),
            attrs.len(),
            "the freed slot is reused"
        );
        let held: BTreeSet<Symbol> = g.attrs(by_delta).iter().map(|e| e.0).collect();
        assert_eq!(held, ["a", "c", "d", "e"].map(sym).into(), "b went, e came");
        g.assert_index_consistent();
    }

    #[test]
    fn remove_attr_roundtrip() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        g.set_attr(a, sym("p"), 5);
        assert_eq!(g.remove_attr(a, sym("p")), Some(Value::from(5)));
        assert_eq!(g.remove_attr(a, sym("p")), None);
    }
}
