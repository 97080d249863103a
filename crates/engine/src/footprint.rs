//! The batch footprint, rule by rule: the nodes a batch touched and, for
//! each, the rules of Σ whose witnesses the touch can change.
//!
//! A rule reads only what its syntax names (DESIGN.md §4): the attributes
//! of its literals ([`Constraint::attrs_read`]) and the edges its pattern
//! edges' labels match. So an attribute write concerns the rules that read
//! the attribute, an edge delta the rules with a pattern edge of its label
//! (`_` matches every label), and a node added or removed every rule.
//! `Relevance` turns Σ into those three lookups once, at construction;
//! a [`Footprint`] is one batch's sorted node list with one rule set per
//! node, a bitset over Σ.

use ged_core::constraint::Constraint;
use ged_graph::{Delta, Graph, NodeId, Symbol};

/// Which rules each kind of delta concerns, derived from Σ's syntax. Rule
/// sets are stored flat, `words` u64s apiece: set [`EVERY`] holds every
/// rule, [`OPAQUE`] the rules that do not name their reads (they concern
/// every attribute write), [`WILD`] the rules with a wildcard pattern edge
/// (they concern every edge delta), and then one set per attribute a rule
/// reads and per concrete label of a pattern edge.
#[derive(Debug, Clone)]
pub(crate) struct Relevance {
    words: usize,
    sets: Vec<u64>,
    /// Named attributes with their set, sorted for binary search.
    attrs: Vec<(Symbol, u32)>,
    /// Concrete pattern edge labels with their set, sorted likewise.
    edges: Vec<(Symbol, u32)>,
}

const EVERY: u32 = 0;
const OPAQUE: u32 = 1;
const WILD: u32 = 2;

impl Relevance {
    pub(crate) fn for_sigma<C: Constraint>(sigma: &[C]) -> Relevance {
        let mut r = Relevance::of_size(sigma.len());
        for (ci, c) in sigma.iter().enumerate() {
            match c.attrs_read() {
                Some(attrs) => attrs.into_iter().for_each(|a| r.add_named(false, a, ci)),
                None => r.add(OPAQUE, ci),
            }
            for e in c.pattern().pattern_edges() {
                match e.label.is_wildcard() {
                    true => r.add(WILD, ci),
                    false => r.add_named(true, e.label, ci),
                }
            }
        }
        // A named attribute or label also concerns the opaque or wildcard
        // rules, which concern every one.
        let words = r.words;
        let attrs = r.attrs.iter().map(|&(_, set)| (set, OPAQUE));
        let edges = r.edges.iter().map(|&(_, set)| (set, WILD));
        for (to, from) in attrs.chain(edges).collect::<Vec<_>>() {
            let (to, from) = (to as usize * words, from as usize * words);
            for w in 0..words {
                r.sets[to + w] |= r.sets[from + w];
            }
        }
        r.attrs.sort_unstable();
        r.edges.sort_unstable();
        r
    }

    /// The lookups of `rules` rules that read nothing and have no edge:
    /// only set [`EVERY`] is non-empty.
    fn of_size(rules: usize) -> Relevance {
        let words = rules.div_ceil(64);
        let mut r = Relevance {
            words,
            sets: vec![0; 3 * words],
            attrs: Vec::new(),
            edges: Vec::new(),
        };
        (0..rules).for_each(|ci| r.add(EVERY, ci));
        r
    }

    fn add(&mut self, set: u32, ci: usize) {
        self.sets[set as usize * self.words + ci / 64] |= 1 << (ci % 64);
    }

    fn add_named(&mut self, edge: bool, name: Symbol, ci: usize) {
        let named = if edge {
            &mut self.edges
        } else {
            &mut self.attrs
        };
        let set = match named.iter().find(|(n, _)| *n == name) {
            Some(&(_, set)) => set,
            None => {
                let set = (self.sets.len() / self.words) as u32;
                named.push((name, set));
                self.sets.resize(self.sets.len() + self.words, 0);
                set
            }
        };
        self.add(set, ci);
    }

    /// The set of rules `delta` concerns.
    pub(crate) fn of(&self, delta: &Delta) -> u32 {
        let find = |named: &[(Symbol, u32)], name: &Symbol, otherwise| {
            let at = named.binary_search_by_key(name, |&(n, _)| n);
            at.map_or(otherwise, |i| named[i].1)
        };
        match delta {
            Delta::AddNode { .. } | Delta::RemoveNode { .. } => EVERY,
            Delta::AddEdge { label, .. } | Delta::RemoveEdge { label, .. } => {
                find(&self.edges, label, WILD)
            }
            Delta::SetAttr { attr, .. } | Delta::DelAttr { attr, .. } => {
                find(&self.attrs, attr, OPAQUE)
            }
        }
    }

    fn set(&self, set: u32) -> &[u64] {
        &self.sets[set as usize * self.words..][..self.words]
    }
}

/// One batch's footprint: the touched nodes, sorted and deduplicated, each
/// with the set of rules its touches concern. A rule's own footprint is
/// the nodes whose set holds it; the validator drops and re-enumerates
/// each rule on its own footprint only. The buffers are kept across
/// batches.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    words: usize,
    /// `(node, rule set)` as the deltas report them, packed node-major
    /// into one `u64` so that sorting groups a node's touches in the
    /// cost of an integer sort.
    touches: Vec<u64>,
    nodes: Vec<NodeId>,
    /// `words` u64s per entry of `nodes`.
    rules: Vec<u64>,
}

impl Footprint {
    /// A footprint in which each of `nodes` concerns every one of `rules`
    /// rules — the rule-blind footprint.
    pub fn every_rule(nodes: &[NodeId], rules: usize) -> Footprint {
        let mut f = Footprint::default();
        let relevance = Relevance::of_size(rules);
        f.start(&relevance, nodes.len());
        nodes.iter().for_each(|&n| f.touch(n, EVERY));
        f.build(&relevance);
        f
    }

    /// The touched nodes, sorted and deduplicated.
    pub(crate) fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Does the `i`-th node's touch concern rule `ci`?
    pub(crate) fn concerns(&self, i: usize, ci: usize) -> bool {
        self.rules[i * self.words + ci / 64] & (1 << (ci % 64)) != 0
    }

    /// Is `n` in rule `ci`'s footprint?
    pub(crate) fn contains(&self, n: NodeId, ci: usize) -> bool {
        self.nodes
            .binary_search(&n)
            .is_ok_and(|i| self.concerns(i, ci))
    }

    /// The rules the `i`-th node's touch concerns, in Σ order.
    pub(crate) fn rules_of(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.rules[i * self.words..][..self.words];
        words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
                bits &= bits - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// Empty the footprint for a batch of up to `deltas` deltas.
    pub(crate) fn start(&mut self, relevance: &Relevance, deltas: usize) {
        self.words = relevance.words;
        self.touches.clear();
        self.touches.reserve(2 * deltas);
    }

    /// Record that `node` was touched by a delta concerning `set`.
    pub(crate) fn touch(&mut self, node: NodeId, set: u32) {
        self.touches.push(u64::from(node.0) << 32 | u64::from(set));
    }

    /// Sort the touches into the node list, each node's rule set the
    /// union of its touches'.
    pub(crate) fn build(&mut self, relevance: &Relevance) {
        self.touches.sort_unstable();
        self.touches.dedup();
        self.nodes.clear();
        self.rules.clear();
        self.nodes.reserve(self.touches.len());
        self.rules.reserve(self.touches.len() * self.words);
        for &touch in &self.touches {
            let (n, set) = (NodeId((touch >> 32) as u32), touch as u32);
            if self.nodes.last() != Some(&n) {
                self.nodes.push(n);
                self.rules.resize(self.rules.len() + self.words, 0);
            }
            let at = self.rules.len() - self.words;
            for (w, r) in self.rules[at..].iter_mut().zip(relevance.set(set)) {
                *w |= r;
            }
        }
    }

    /// Keep only the nodes still alive in `g`: a removed id has no match
    /// to contribute. Order is kept.
    pub(crate) fn retain_live(&mut self, g: &Graph) {
        let (words, mut kept) = (self.words, 0);
        for i in 0..self.nodes.len() {
            if g.is_alive(self.nodes[i]) {
                self.nodes[kept] = self.nodes[i];
                self.rules
                    .copy_within(i * words..(i + 1) * words, kept * words);
                kept += 1;
            }
        }
        self.nodes.truncate(kept);
        self.rules.truncate(kept * words);
    }
}

/// One batch's anchor seed lists, one per `(rule, variable label)` pair of
/// Σ: the live nodes of the rule's footprint that the label matches. Kept
/// across batches.
#[derive(Debug, Clone)]
pub(crate) struct Seeds {
    /// The distinct variable labels of each rule, rule after rule.
    labels: Vec<Symbol>,
    /// Rule `ci`'s labels and lists are at `first[ci]..first[ci + 1]`.
    first: Vec<usize>,
    lists: Vec<Vec<NodeId>>,
}

impl Seeds {
    pub(crate) fn for_sigma<C: Constraint>(sigma: &[C]) -> Seeds {
        let (mut labels, mut first) = (Vec::new(), vec![0]);
        for c in sigma {
            let q = c.pattern();
            for label in q.vars().map(|v| q.label(v)) {
                if !labels[first[first.len() - 1]..].contains(&label) {
                    labels.push(label);
                }
            }
            first.push(labels.len());
        }
        let lists = vec![Vec::new(); labels.len()];
        Seeds {
            labels,
            first,
            lists,
        }
    }

    /// Fill the lists from `footprint`'s nodes, already restricted to the
    /// live ones, in one pass: at most one label read per node, none for a
    /// node whose touches concern no rule. Each list inherits the
    /// footprint's order, so it is sorted and free of duplicates.
    pub(crate) fn fill(&mut self, g: &Graph, footprint: &Footprint) {
        self.lists.iter_mut().for_each(Vec::clear);
        for (i, &n) in footprint.nodes().iter().enumerate() {
            let mut label = None;
            for ci in footprint.rules_of(i) {
                let label = *label.get_or_insert_with(|| g.label(n));
                for k in self.first[ci]..self.first[ci + 1] {
                    if self.labels[k].matches(label) {
                        self.lists[k].push(n);
                    }
                }
            }
        }
    }

    /// The seeds of rule `ci`'s variables labelled `label`.
    pub(crate) fn of(&self, ci: usize, label: Symbol) -> &[NodeId] {
        let rule = self.first[ci]..self.first[ci + 1];
        let k = self.labels[rule.clone()].iter().position(|&l| l == label);
        &self.lists[rule.start + k.expect("a label of the rule's pattern")]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Var};

    #[test]
    fn rule_sets_span_more_than_one_word() {
        // 130 rules, each reading its own attribute: three words a set.
        let q = parse_pattern("t(x)").unwrap();
        let sigma: Vec<Ged> = (0..130)
            .map(|i| {
                let lit = Literal::constant(Var(0), sym(&format!("a{i}")), 1);
                Ged::new(format!("r{i}"), q.clone(), vec![], vec![lit])
            })
            .collect();
        let relevance = Relevance::for_sigma(&sigma);
        let mut f = Footprint::default();
        f.start(&relevance, 3);
        let write = |i: usize, n| Delta::DelAttr {
            node: NodeId(n),
            attr: sym(&format!("a{i}")),
        };
        for (i, n) in [(129, 5), (64, 5), (3, 2)] {
            f.touch(NodeId(n), relevance.of(&write(i, n)));
        }
        f.build(&relevance);
        assert_eq!(f.nodes(), [NodeId(2), NodeId(5)]);
        assert_eq!(f.rules_of(0).collect::<Vec<_>>(), [3]);
        assert_eq!(f.rules_of(1).collect::<Vec<_>>(), [64, 129]);
        assert!(f.contains(NodeId(5), 129) && !f.contains(NodeId(5), 128));
        let all = Footprint::every_rule(&[NodeId(9), NodeId(1)], 130);
        assert_eq!(all.nodes(), [NodeId(1), NodeId(9)]);
        assert_eq!(all.rules_of(1).count(), 130);
    }
}
