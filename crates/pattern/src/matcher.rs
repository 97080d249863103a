//! Pattern matching: graph **homomorphism** (the paper's semantics,
//! Section 2 "Matches") and **subgraph isomorphism** (the semantics of
//! [19, 23], kept as a baseline — Section 3 argues at length why GEDs need
//! homomorphism).
//!
//! A match of `Q[x̄]` in `G` is a mapping `h : x̄ → V` such that
//! * `L_Q(u) ⪯ L(h(u))` for every pattern node `u`, and
//! * for every pattern edge `(u, ι, u′)` there is an edge
//!   `(h(u), ι′, h(u′))` in `G` with `ι ⪯ ι′`.
//!
//! Homomorphisms may map distinct variables to the same node; subgraph
//! isomorphism adds injectivity. Both share the backtracking engine below:
//! connectivity-aware variable ordering, adjacency-derived candidate sets,
//! and label pruning. The engine enumerates matches in a deterministic
//! order, which downstream code (chase, validation reports) relies on for
//! reproducibility.

use crate::pattern::{Pattern, Var};
use crate::plan::MatchPlan;
use ged_graph::{Graph, NodeId};
use ged_obs::{MatchRecorder, NoopRecorder, NOOP};
use std::borrow::Cow;
use std::ops::ControlFlow;

/// Matching semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Graph homomorphism (the paper's GED semantics).
    Homomorphism,
    /// Subgraph isomorphism: `h` must be injective (the semantics of
    /// GFDs \[23\] and keys \[19\]; makes GKeys vacuous — see Section 3).
    Isomorphism,
}

/// What a search is asked for: the matching semantics, the one choice the
/// paper argues about (Section 3). How the search runs — rooted order,
/// adjacency-derived candidates, pre-filters — is not an option.
#[derive(Debug, Clone, Copy)]
pub struct MatchOptions {
    /// Matching semantics.
    pub semantics: Semantics,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            semantics: Semantics::Homomorphism,
        }
    }
}

impl MatchOptions {
    /// Default options for homomorphism matching.
    pub fn homomorphism() -> Self {
        Self::default()
    }

    /// Default options for subgraph-isomorphism matching.
    pub fn isomorphism() -> Self {
        MatchOptions {
            semantics: Semantics::Isomorphism,
        }
    }
}

/// A total match `h(x̄)`: node per variable, indexed by `Var`.
pub type Match = Vec<NodeId>;

/// Reusable scratch space for the backtracking search: one candidate
/// buffer per recursion depth, the completed-match buffer, and the
/// partial-assignment vector. A `Matcher` run through the `*_in` entry
/// points ([`Matcher::for_each_in`], [`Matcher::for_each_anchored_in`])
/// writes candidates into these cleared buffers instead of
/// allocating a fresh `Vec` per variable per recursion — the engine's
/// validator owns one scratch and threads it through every work unit, so
/// steady-state matching is allocation-free.
///
/// The buffers grow to the high-water mark of the patterns run through
/// them and stay there; a scratch is plain state, safe to reuse across
/// different patterns and graphs.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    /// One candidate buffer per backtracking depth.
    levels: Vec<Vec<NodeId>>,
    /// The completed match handed to the visitor callback.
    full: Vec<NodeId>,
    /// Partial assignment, indexed by `Var`.
    assign: Vec<Option<NodeId>>,
}

impl MatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> MatchScratch {
        MatchScratch::default()
    }
}

/// The matcher: a pattern, a graph, and the pattern's [`MatchPlan`] —
/// compiled on the spot by [`Matcher::new`] / [`Matcher::with_recorder`],
/// or borrowed from a caller that runs the same pattern many times
/// ([`Matcher::with_plan`]). Either way one backtracking search runs it.
///
/// The recorder parameter `R` is the observability hook of the hot loop:
/// it defaults to [`NoopRecorder`], whose empty methods monomorphize away,
/// so un-observed matching compiles to the engine it always was. Observed
/// enumeration goes through [`Matcher::with_recorder`].
#[derive(Debug)]
pub struct Matcher<'a, R: MatchRecorder = NoopRecorder> {
    pattern: &'a Pattern,
    graph: &'a Graph,
    opts: MatchOptions,
    plan: Cow<'a, MatchPlan>,
    recorder: &'a R,
}

impl<'a> Matcher<'a> {
    /// Build a matcher for `pattern` over `graph` (unobserved: the no-op
    /// recorder costs nothing).
    pub fn new(pattern: &'a Pattern, graph: &'a Graph, opts: MatchOptions) -> Matcher<'a> {
        Matcher::with_recorder(pattern, graph, opts, &NOOP)
    }
}

impl<'a, R: MatchRecorder> Matcher<'a, R> {
    /// Build a matcher whose hot loop reports to `recorder`: one
    /// [`MatchRecorder::on_attempt`] per candidate node considered, one
    /// [`MatchRecorder::on_match`] per complete match. Compiles a
    /// throw-away plan with no attribute obligations, so this enumerates
    /// every match of the pattern.
    pub fn with_recorder(
        pattern: &'a Pattern,
        graph: &'a Graph,
        opts: MatchOptions,
        recorder: &'a R,
    ) -> Matcher<'a, R> {
        Matcher {
            pattern,
            graph,
            opts,
            plan: Cow::Owned(MatchPlan::new(pattern)),
            recorder,
        }
    }

    /// Build a matcher that borrows a `plan` compiled from `pattern`
    /// earlier, attribute obligations included — nothing is computed or
    /// allocated per matcher. The engine's work units go through this
    /// with a per-unit `CellRecorder` (or the no-op one) and fold the
    /// tallies into the validator's batch tally.
    pub fn with_plan(
        plan: &'a MatchPlan,
        pattern: &'a Pattern,
        graph: &'a Graph,
        opts: MatchOptions,
        recorder: &'a R,
    ) -> Matcher<'a, R> {
        assert_eq!(
            plan.var_count(),
            pattern.var_count(),
            "plan compiled for another pattern"
        );
        Matcher {
            pattern,
            graph,
            opts,
            plan: Cow::Borrowed(plan),
            recorder,
        }
    }

    /// Visit every match; `f` returns [`ControlFlow::Break`] to stop early.
    /// Returns `true` if enumeration ran to completion.
    ///
    /// Allocates a fresh [`MatchScratch`] per call; hot paths that run
    /// many enumerations should own a scratch and use
    /// [`Matcher::for_each_in`].
    pub fn for_each(&self, f: impl FnMut(&[NodeId]) -> ControlFlow<()>) -> bool {
        self.for_each_in(&mut MatchScratch::new(), f)
    }

    /// As [`Matcher::for_each`], writing candidate sets into the caller's
    /// reusable `scratch` instead of allocating.
    ///
    /// The search is rooted at the most selective variable — fewest label
    /// candidates in this graph, ties to the earlier declaration — the one
    /// decision of the order that needs the graph.
    pub fn for_each_in(
        &self,
        scratch: &mut MatchScratch,
        mut f: impl FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> bool {
        let root = self
            .pattern
            .vars()
            .min_by_key(|&v| self.graph.label_candidate_count(self.pattern.label(v)));
        let order = root.map_or(&[][..], |root| self.plan.order_rooted_at(root));
        // The no-exclusion closure monomorphizes to a constant `false`, so
        // plain enumeration compiles down to the engine it always had.
        self.seeded(scratch, order, None, &|_, _| false, &mut f)
    }

    /// *Anchored* enumeration with per-variable *excluded* candidate sets:
    /// visit every match that maps `anchor` to one of `seeds` and maps no
    /// other variable `v` to a node `n` with `excluded(v, n)`. Returns
    /// `true` if enumeration ran to completion (no early break).
    ///
    /// This is the affected-area primitive of the incremental validation
    /// engine: with `seeds` the set of nodes a delta touched, the union
    /// over all anchor variables covers exactly the matches whose image
    /// intersects the touched set. Exclusions prune candidates at
    /// assignment time, *before* the subtree below them is explored, and
    /// apply to the *searched* variables only — the anchor is pre-assigned
    /// and exempt (it deliberately maps into the set other variables must
    /// avoid). Anchoring variable `v` on the touched set while excluding
    /// touched nodes from all variables declared before `v` leaves
    /// precisely the matches whose *first* touched variable is `v`, so the
    /// union over anchor variables is duplicate-free — no post-hoc owner
    /// filter, no redundant enumeration. Pass `&|_, _| false` to exclude
    /// nothing.
    ///
    /// The search runs in the plan's order **rooted at `anchor`**
    /// ([`MatchPlan::order_rooted_at`]): the rest of the anchor's
    /// component is reached over edges from assigned neighbours, never by
    /// a label-index scan.
    ///
    /// The pre-filters also screen the anchor seeds themselves — a seed
    /// whose labeled degree or required attributes already fail is skipped
    /// without entering the search.
    pub fn for_each_anchored_in<E>(
        &self,
        scratch: &mut MatchScratch,
        anchor: Var,
        seeds: &[NodeId],
        excluded: &E,
        mut f: impl FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> bool
    where
        E: Fn(Var, NodeId) -> bool + ?Sized,
    {
        // The seeds are the anchor's candidate list: count them as
        // attempts so anchored enumeration attributes cost like the plain
        // candidate loop does (a single-variable rule would otherwise
        // report matches with zero attempts).
        self.recorder.add_attempts(seeds.len() as u64);
        let order = self.plan.order_rooted_at(anchor);
        seeds
            .iter()
            .all(|&n| self.seeded(scratch, order, Some((anchor, n)), excluded, &mut f))
    }

    /// Visit every match extending the optional pre-assignment `seed`,
    /// which must pass the same checks as any searched candidate
    /// (pre-filters, label, self loops); its edges and joins to other
    /// variables are checked as those get assigned.
    fn seeded<E>(
        &self,
        scratch: &mut MatchScratch,
        order: &[Var],
        seed: Option<(Var, NodeId)>,
        excluded: &E,
        f: &mut impl FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> bool
    where
        E: Fn(Var, NodeId) -> bool + ?Sized,
    {
        scratch.assign.clear();
        scratch.assign.resize(self.pattern.var_count(), None);
        if let Some((v, n)) = seed {
            if self.prefilter_rejects(v, n, &scratch.assign) {
                self.recorder.on_prefilter_reject();
                return true; // no matches; enumeration trivially complete
            }
            if !self.consistent(v, n, &scratch.assign) {
                return true;
            }
            scratch.assign[v.idx()] = Some(n);
        }
        self.backtrack(order, 0, scratch, excluded, f).is_continue()
    }

    fn backtrack<E>(
        &self,
        order: &[Var],
        depth: usize,
        scratch: &mut MatchScratch,
        excluded: &E,
        f: &mut impl FnMut(&[NodeId]) -> ControlFlow<()>,
    ) -> ControlFlow<()>
    where
        E: Fn(Var, NodeId) -> bool + ?Sized,
    {
        // Skip already-assigned (seeded) variables.
        let mut depth = depth;
        while depth < order.len() && scratch.assign[order[depth].idx()].is_some() {
            depth += 1;
        }
        if depth == order.len() {
            self.recorder.on_match();
            scratch.full.clear();
            scratch
                .full
                .extend(scratch.assign.iter().map(|o| o.unwrap()));
            return f(&scratch.full);
        }
        let v = order[depth];
        if scratch.levels.len() <= depth {
            scratch.levels.resize_with(depth + 1, Vec::new);
        }
        // Take this depth's buffer out of the scratch for the duration of
        // the level; deeper recursion only touches deeper buffers, and the
        // buffer is restored (capacity intact) before returning.
        let mut buf = std::mem::take(&mut scratch.levels[depth]);
        self.candidates_into(v, &scratch.assign, &mut buf);
        // Attempts count every candidate in the list unconditionally, so
        // report the whole level in one call — the hot loop itself stays
        // hook-free.
        self.recorder.add_attempts(buf.len() as u64);
        let mut flow = ControlFlow::Continue(());
        for &n in &buf {
            if excluded(v, n) {
                continue;
            }
            if self.prefilter_rejects(v, n, &scratch.assign) {
                self.recorder.on_prefilter_reject();
                continue;
            }
            if !self.consistent(v, n, &scratch.assign) {
                continue;
            }
            scratch.assign[v.idx()] = Some(n);
            let inner = self.backtrack(order, depth + 1, scratch, excluded, f);
            scratch.assign[v.idx()] = None;
            if inner.is_break() {
                flow = inner;
                break;
            }
        }
        scratch.levels[depth] = buf;
        flow
    }

    /// Write the candidate data nodes for `v` given the partial assignment
    /// into `buf` (cleared first): derived from an already-assigned
    /// neighbour when possible (cheap); failing that, from the graph's
    /// value index when an enforced equality join ties `v` to an assigned
    /// variable and the graph indexes that pair; otherwise from the label
    /// index. The list is sorted and duplicate-free whichever source
    /// produced it, so enumeration order does not depend on the source.
    fn candidates_into(&self, v: Var, assign: &[Option<NodeId>], buf: &mut Vec<NodeId>) {
        buf.clear();
        let g = self.graph;
        let lv = self.pattern.label(v);
        let fits = |n: &NodeId| lv.matches(g.label(*n));
        // A concrete edge label's group is already a sorted set. A wildcard
        // edge spans every group, and a neighbour joined under two labels
        // sits in two of them: sort and dedup so each match comes once.
        let merge_groups = |buf: &mut Vec<NodeId>| {
            buf.sort_unstable();
            buf.dedup();
        };
        // v required as dst of an assigned src?
        for &(el, u) in self.pattern.in_edges(v) {
            if let Some(hu) = assign[u.idx()] {
                if el.is_wildcard() {
                    buf.extend(g.out_edges(hu).map(|(_, d)| d).filter(fits));
                    merge_groups(buf);
                } else {
                    buf.extend(g.out_edges_labeled(hu, el).iter().copied().filter(fits));
                }
                return;
            }
        }
        // v required as src of an assigned dst?
        for &(el, u) in self.pattern.out_edges(v) {
            if let Some(hu) = assign[u.idx()] {
                if el.is_wildcard() {
                    buf.extend(g.in_edges(hu).map(|(_, s)| s).filter(fits));
                    merge_groups(buf);
                } else {
                    buf.extend(g.in_edges_labeled(hu, el).iter().copied().filter(fits));
                }
                return;
            }
        }
        if lv.is_wildcard() {
            buf.extend(g.nodes());
            return;
        }
        // No assigned neighbour to extend from — typically `v` opens a
        // further component. A join to an assigned variable may narrow the
        // candidates: every node a probe leaves out would fail the join in
        // the pre-filter, and every node it returns still goes through it.
        for j in &self.plan.joins[v.idx()] {
            let Some(m) = assign[j.other.idx()] else {
                continue; // unassigned, or `v` itself
            };
            let Some(value) = g.attr(m, j.other_attr) else {
                return; // the join fails for every candidate
            };
            if let Some(bucket) = g.probe_attr(lv, j.attr, value) {
                buf.extend(bucket);
                return;
            }
        }
        buf.extend_from_slice(g.nodes_with_label(lv));
    }

    /// The cheap pre-filters: labeled-degree coverage, required constant
    /// attributes, and the equality joins whose other side is assigned
    /// (or is `v` itself). `true` means `v ↦ n` cannot be part of any
    /// match of interest and the candidate is skipped before recursion.
    fn prefilter_rejects(&self, v: Var, n: NodeId, assign: &[Option<NodeId>]) -> bool {
        let g = self.graph;
        let req = &self.plan.degree_req[v.idx()];
        if req.needs_out && g.out_degree(n) == 0 {
            return true;
        }
        if req.needs_in && g.in_degree(n) == 0 {
            return true;
        }
        if req
            .out_labels
            .iter()
            .any(|&l| g.out_degree_labeled(n, l) == 0)
        {
            return true;
        }
        if req
            .in_labels
            .iter()
            .any(|&l| g.in_degree_labeled(n, l) == 0)
        {
            return true;
        }
        if self.plan.required_attrs[v.idx()]
            .iter()
            .any(|(a, val)| g.attr(n, *a) != Some(val))
        {
            return true;
        }
        self.plan.joins[v.idx()].iter().any(|j| {
            let other = if j.other == v {
                Some(n)
            } else {
                assign[j.other.idx()]
            };
            // An unassigned other side defers the join to that variable's
            // turn; a missing attribute on either side fails it.
            other.is_some_and(|m| match (g.attr(n, j.attr), g.attr(m, j.other_attr)) {
                (Some(a), Some(b)) => a != b,
                _ => true,
            })
        })
    }

    /// Check `v ↦ n` against labels, constraint edges to assigned
    /// variables, and (for isomorphism) injectivity.
    fn consistent(&self, v: Var, n: NodeId, assign: &[Option<NodeId>]) -> bool {
        if !self.pattern.label(v).matches(self.graph.label(n)) {
            return false;
        }
        if self.opts.semantics == Semantics::Isomorphism && assign.contains(&Some(n)) {
            return false;
        }
        for &(el, d) in self.pattern.out_edges(v) {
            if d == v {
                if !self.graph.has_edge_matching(n, el, n) {
                    return false;
                }
                continue;
            }
            if let Some(hd) = assign[d.idx()] {
                if !self.graph.has_edge_matching(n, el, hd) {
                    return false;
                }
            }
        }
        for &(el, s) in self.pattern.in_edges(v) {
            if s == v {
                continue; // self-loop handled above
            }
            if let Some(hs) = assign[s.idx()] {
                if !self.graph.has_edge_matching(hs, el, n) {
                    return false;
                }
            }
        }
        true
    }
}

/// All matches of `pattern` in `graph` under `opts`. Use only when the
/// result set is known to be small; prefer [`Matcher::for_each`] otherwise.
pub fn find_all(pattern: &Pattern, graph: &Graph, opts: MatchOptions) -> Vec<Match> {
    let mut out = Vec::new();
    Matcher::new(pattern, graph, opts).for_each(|m| {
        out.push(m.to_vec());
        ControlFlow::Continue(())
    });
    out
}

/// The first match, if any.
pub fn find_first(pattern: &Pattern, graph: &Graph, opts: MatchOptions) -> Option<Match> {
    let mut out = None;
    Matcher::new(pattern, graph, opts).for_each(|m| {
        out = Some(m.to_vec());
        ControlFlow::Break(())
    });
    out
}

/// Does any match exist? Breaks out of the backtracking search at the
/// first complete match without materialising it (unlike [`find_first`],
/// which must clone the match to return it) — this sits on the hot path
/// of model checks (`pattern_embeds`) over every constraint of Σ.
pub fn exists(pattern: &Pattern, graph: &Graph, opts: MatchOptions) -> bool {
    let mut found = false;
    Matcher::new(pattern, graph, opts).for_each(|_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// Count all matches (enumerates them all — exponential in the worst case).
pub fn count(pattern: &Pattern, graph: &Graph, opts: MatchOptions) -> usize {
    let mut n = 0usize;
    Matcher::new(pattern, graph, opts).for_each(|_| {
        n += 1;
        ControlFlow::Continue(())
    });
    n
}

/// Brute-force reference matcher: tries all `|V|^|x̄|` assignments. Used by
/// the property tests to validate the backtracking engine.
pub fn find_all_brute(pattern: &Pattern, graph: &Graph, opts: MatchOptions) -> Vec<Match> {
    let nv = pattern.var_count();
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let mut out = Vec::new();
    if nv == 0 {
        out.push(Vec::new());
        return out;
    }
    if nodes.is_empty() {
        return out;
    }
    let mut idx = vec![0usize; nv];
    // One assignment buffer refilled in place per permutation; cloned only
    // for the (rare) permutations that actually match. This is the oracle
    // in the randomized lockstep tests, so its cost bounds CI time.
    let mut assign: Vec<NodeId> = vec![nodes[0]; nv];
    'outer: loop {
        for (slot, &i) in assign.iter_mut().zip(idx.iter()) {
            *slot = nodes[i];
        }
        if is_match(pattern, graph, &assign, opts.semantics) {
            out.push(assign.clone());
        }
        // increment
        for d in (0..nv).rev() {
            idx[d] += 1;
            if idx[d] < nodes.len() {
                continue 'outer;
            }
            idx[d] = 0;
            if d == 0 {
                break 'outer;
            }
        }
    }
    out
}

/// Check whether a full assignment is a match.
pub fn is_match(pattern: &Pattern, graph: &Graph, assign: &[NodeId], sem: Semantics) -> bool {
    if assign.len() != pattern.var_count() {
        return false;
    }
    if sem == Semantics::Isomorphism {
        let mut seen = std::collections::HashSet::new();
        if !assign.iter().all(|n| seen.insert(*n)) {
            return false;
        }
    }
    for v in pattern.vars() {
        if !pattern.label(v).matches(graph.label(assign[v.idx()])) {
            return false;
        }
    }
    for e in pattern.pattern_edges() {
        if !graph.has_edge_matching(assign[e.src.idx()], e.label, assign[e.dst.idx()]) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{GraphBuilder, Value};

    fn creator_graph() -> Graph {
        // tony -create-> gb ; gibbo -create-> gb ; ada -create-> engine
        let mut b = GraphBuilder::new();
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.triple(("gibbo", "person"), "create", ("gb", "product"));
        b.triple(("ada", "person"), "create", ("engine", "product"));
        b.build()
    }

    fn q1() -> Pattern {
        let mut q = Pattern::new();
        let x = q.var("x", "person");
        let y = q.var("y", "product");
        q.edge(x, "create", y);
        q
    }

    /// Collect an anchored run: the matches in order, and whether the
    /// enumeration ran to completion.
    fn anchored(
        matcher: &Matcher,
        anchor: Var,
        seeds: &[NodeId],
        excluded: &dyn Fn(Var, NodeId) -> bool,
    ) -> (Vec<Match>, bool) {
        let mut found = Vec::new();
        let completed =
            matcher.for_each_anchored_in(&mut MatchScratch::new(), anchor, seeds, excluded, |m| {
                found.push(m.to_vec());
                ControlFlow::Continue(())
            });
        (found, completed)
    }

    const NOTHING: &dyn Fn(Var, NodeId) -> bool = &|_, _| false;

    #[test]
    fn homomorphism_finds_all_creator_pairs() {
        let g = creator_graph();
        let ms = find_all(&q1(), &g, MatchOptions::homomorphism());
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn non_injective_matches_allowed_under_homomorphism() {
        // Pattern: two independent person nodes. Graph has 3 persons.
        let g = creator_graph();
        let mut q = Pattern::new();
        q.var("x", "person");
        q.var("y", "person");
        let homo = count(&q, &g, MatchOptions::homomorphism());
        let iso = count(&q, &g, MatchOptions::isomorphism());
        assert_eq!(homo, 9, "3 × 3 assignments");
        assert_eq!(iso, 6, "3 × 2 injective assignments");
    }

    #[test]
    fn wildcard_node_label_matches_everything() {
        let g = creator_graph();
        let mut q = Pattern::new();
        q.var("x", "_");
        assert_eq!(count(&q, &g, MatchOptions::homomorphism()), g.node_count());
    }

    #[test]
    fn wildcard_edge_label() {
        let g = creator_graph();
        let mut q = Pattern::new();
        let x = q.var("x", "_");
        let y = q.var("y", "_");
        q.edge(x, "_", y);
        // one match per edge (all 3 edges), endpoints are forced
        assert_eq!(count(&q, &g, MatchOptions::homomorphism()), 3);
    }

    #[test]
    fn concrete_pattern_label_does_not_match_wildcard_data_label() {
        // A data graph containing a '_'-labelled node (as arises when
        // chasing canonical graphs, Section 4).
        let mut g = Graph::new();
        g.add_node(ged_graph::sym("_"));
        let mut q = Pattern::new();
        q.var("x", "person");
        assert!(!exists(&q, &g, MatchOptions::homomorphism()));
        // but a wildcard pattern node does match the wildcard data node
        let mut qw = Pattern::new();
        qw.var("x", "_");
        assert!(exists(&qw, &g, MatchOptions::homomorphism()));
    }

    #[test]
    fn self_loop_pattern() {
        let mut g = Graph::new();
        let a = g.add_node(ged_graph::sym("t"));
        let b = g.add_node(ged_graph::sym("t"));
        g.add_edge(a, ged_graph::sym("e"), a);
        g.add_edge(a, ged_graph::sym("e"), b);
        let mut q = Pattern::new();
        let x = q.var("x", "t");
        q.edge(x, "e", x);
        let ms = find_all(&q, &g, MatchOptions::homomorphism());
        assert_eq!(ms, vec![vec![a]]);
        // An anchor seed is pre-assigned, so its self loops are checked up
        // front: with an `e` edge out and one in, the loop-less `b` passes
        // the degree pre-filter and only that check stands in the way.
        g.add_edge(b, ged_graph::sym("e"), a);
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());
        let (found, _) = anchored(&matcher, x, &[b, a], NOTHING);
        assert_eq!(found, vec![vec![a]]);
    }

    #[test]
    fn triangle_pattern_requires_triangle() {
        let mut g = Graph::new();
        let n: Vec<NodeId> = (0..3).map(|_| g.add_node(ged_graph::sym("t"))).collect();
        let e = ged_graph::sym("e");
        g.add_edge(n[0], e, n[1]);
        g.add_edge(n[1], e, n[2]);
        let mut q = Pattern::new();
        let x = q.var("x", "t");
        let y = q.var("y", "t");
        let z = q.var("z", "t");
        q.edge(x, "e", y);
        q.edge(y, "e", z);
        q.edge(z, "e", x);
        assert!(!exists(&q, &g, MatchOptions::homomorphism()));
        g.add_edge(n[2], e, n[0]);
        assert!(exists(&q, &g, MatchOptions::homomorphism()));
    }

    #[test]
    fn seeded_matching_restricts_results() {
        let g = creator_graph();
        let q = q1();
        let x = q.var_by_name("x").unwrap();
        let tony = g.nodes_with_label(ged_graph::sym("person"))[0];
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());
        let (found, _) = anchored(&matcher, x, &[tony], NOTHING);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0][x.idx()], tony);
    }

    #[test]
    fn seeded_matching_rejects_bad_seed_label() {
        let g = creator_graph();
        let q = q1();
        let y = q.var_by_name("y").unwrap();
        // A person seeded into the product variable. With one more edge it
        // even passes the degree pre-filter (tony has an incoming `create`),
        // so only the seed's own label check stands in the way.
        let mut g2 = g.clone();
        let persons = g.nodes_with_label(ged_graph::sym("person")).to_vec();
        g2.add_edge(persons[1], ged_graph::sym("create"), persons[0]);
        for graph in [&g, &g2] {
            let matcher = Matcher::new(&q, graph, MatchOptions::homomorphism());
            let (found, completed) = anchored(&matcher, y, &persons[..1], NOTHING);
            assert!(found.is_empty() && completed);
        }
    }

    #[test]
    fn anchored_matching_unions_over_seeds() {
        let g = creator_graph();
        let q = q1();
        let x = q.var_by_name("x").unwrap();
        let persons = g.nodes_with_label(ged_graph::sym("person")).to_vec();
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());
        // Anchoring x on all persons re-derives the full match set.
        let (found, completed) = anchored(&matcher, x, &persons, NOTHING);
        assert!(completed);
        assert_eq!(found.len(), 3);
        // Anchoring on a two-node subset restricts to their matches.
        let (restricted, _) = anchored(&matcher, x, &persons[..2], NOTHING);
        assert_eq!(restricted.len(), 2);
        // Early break propagates out of the seed loop.
        let mut seen = 0;
        let completed =
            matcher.for_each_anchored_in(&mut MatchScratch::new(), x, &persons, NOTHING, |_| {
                seen += 1;
                ControlFlow::Break(())
            });
        assert!(!completed);
        assert_eq!(seen, 1);
    }

    /// The incremental engine's exactly-once discipline, probed at the
    /// matcher level: anchoring each variable on the touched set while
    /// excluding touched nodes from earlier-declared variables must visit
    /// every affected match exactly once — the callback count equals the
    /// number of distinct affected matches, with no discards.
    #[test]
    fn exclusion_aware_anchoring_enumerates_each_affected_match_once() {
        use std::collections::HashSet;
        let mut g = Graph::new();
        let t = ged_graph::sym("t");
        let nodes: Vec<NodeId> = (0..4).map(|_| g.add_node(t)).collect();
        // Two independent variables: under homomorphism every ordered pair
        // (including repeats) matches, so touched nodes appear in several
        // variable positions at once — the case the old owner filter
        // enumerated redundantly.
        let mut q = Pattern::new();
        q.var("x", "t");
        q.var("y", "t");
        let touched: HashSet<NodeId> = nodes[..2].iter().copied().collect();
        let seeds: Vec<NodeId> = touched.iter().copied().collect();
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());

        let mut calls = 0usize;
        let mut seen: HashSet<Match> = HashSet::new();
        let mut scratch = MatchScratch::new();
        for v in q.vars() {
            let completed = matcher.for_each_anchored_in(
                &mut scratch,
                v,
                &seeds,
                &|u, n| u.idx() < v.idx() && touched.contains(&n),
                |m| {
                    calls += 1;
                    assert!(seen.insert(m.to_vec()), "match {m:?} enumerated twice");
                    // The anchor owns the match: no earlier variable maps
                    // into the touched set.
                    let first_touched = q.vars().find(|u| touched.contains(&m[u.idx()]));
                    assert_eq!(first_touched, Some(v));
                    ControlFlow::Continue(())
                },
            );
            assert!(completed);
        }
        // Affected matches: all (x, y) ∈ 4×4 with x or y touched.
        let affected = find_all(&q, &g, MatchOptions::homomorphism())
            .into_iter()
            .filter(|m| m.iter().any(|n| touched.contains(n)))
            .collect::<HashSet<_>>();
        assert_eq!(affected.len(), 12, "4² pairs minus the 2² untouched ones");
        assert_eq!(seen, affected, "exactly the affected matches");
        assert_eq!(calls, affected.len(), "each enumerated exactly once");
    }

    #[test]
    fn excluding_nothing_equals_plain_anchoring() {
        let g = creator_graph();
        let q = q1();
        let x = q.var_by_name("x").unwrap();
        let persons = g.nodes_with_label(ged_graph::sym("person")).to_vec();
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());
        // Plain anchoring is anchoring with nothing excluded: over a subset
        // of x's candidates it is the plain enumeration restricted to it,
        // in the same order.
        let seeds = &persons[1..];
        let (excluding_nothing, _) = anchored(&matcher, x, seeds, NOTHING);
        let plain: Vec<Match> = find_all(&q, &g, MatchOptions::homomorphism())
            .into_iter()
            .filter(|m| seeds.contains(&m[x.idx()]))
            .collect();
        assert_eq!(excluding_nothing.len(), 2);
        assert_eq!(excluding_nothing, plain);
    }

    #[test]
    fn exclusions_do_not_apply_to_seeds() {
        let g = creator_graph();
        let q = q1();
        let x = q.var_by_name("x").unwrap();
        let tony = g.nodes_with_label(ged_graph::sym("person"))[0];
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());
        // Excluding every node from every variable still lets the seeded
        // anchor through — only searched variables are restricted (and
        // here y's candidates are all excluded, so nothing completes).
        let (found, _) = anchored(&matcher, x, &[tony], &|_, _| true);
        assert!(found.is_empty(), "y is excluded everywhere");
        // Excluding only x (the anchor) changes nothing.
        let (found, _) = anchored(&matcher, x, &[tony], &|u, _| u == x);
        assert_eq!(found.len(), 1);
    }

    /// A wildcard pattern edge spans all of a node's label groups; a data
    /// pair joined by two differently-labelled edges sits in two of them
    /// and must still yield each match once, under both semantics and from
    /// either end of the edge.
    #[test]
    fn wildcard_edge_over_a_doubly_joined_pair_matches_once() {
        let mut g = Graph::new();
        let t = ged_graph::sym("t");
        let (a, b, c) = (g.add_node(t), g.add_node(t), g.add_node(t));
        g.add_edge(a, ged_graph::sym("e"), b);
        g.add_edge(a, ged_graph::sym("f"), b);
        g.add_edge(a, ged_graph::sym("e"), c);
        let mut q = Pattern::new();
        let x = q.var("x", "t");
        let y = q.var("y", "t");
        q.edge(x, "_", y);
        let expect = vec![vec![a, b], vec![a, c]];
        for opts in [MatchOptions::homomorphism(), MatchOptions::isomorphism()] {
            assert_eq!(find_all(&q, &g, opts), expect, "{:?}", opts.semantics);
            assert_eq!(find_all_brute(&q, &g, opts), expect);
            let matcher = Matcher::new(&q, &g, opts);
            // y extended from x's out-groups, then x from y's in-groups.
            assert_eq!(anchored(&matcher, x, &[a], NOTHING).0, expect);
            assert_eq!(anchored(&matcher, y, &[b], NOTHING).0, vec![vec![a, b]]);
        }
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let g = creator_graph();
        let mut seen = 0;
        let completed = Matcher::new(&q1(), &g, MatchOptions::homomorphism()).for_each(|_| {
            seen += 1;
            ControlFlow::Break(())
        });
        assert_eq!(seen, 1);
        assert!(!completed);
    }

    #[test]
    fn empty_pattern_has_one_empty_match() {
        let g = creator_graph();
        let q = Pattern::new();
        assert_eq!(count(&q, &g, MatchOptions::homomorphism()), 1);
    }

    /// The degree pre-filter kills dead-end candidates (and tallies them)
    /// without changing the match set.
    #[test]
    fn degree_prefilter_rejects_dead_ends_and_preserves_matches() {
        use ged_obs::CellRecorder;
        let mut g = Graph::new();
        let person = ged_graph::sym("person");
        let product = ged_graph::sym("product");
        let create = ged_graph::sym("create");
        let maker = g.add_node(person);
        let idle1 = g.add_node(person); // no out-edges: dead end for x
        let idle2 = g.add_node(person);
        // More products than persons, so the search is rooted at `x` and
        // the dead-end persons actually reach the filter.
        let items: Vec<NodeId> = (0..4).map(|_| g.add_node(product)).collect();
        g.add_edge(maker, create, items[0]);
        let _ = (idle1, idle2);
        let mut q = Pattern::new();
        let x = q.var("x", "person");
        let y = q.var("y", "product");
        q.edge(x, "create", y);

        let rec = CellRecorder::new();
        let mut found = Vec::new();
        Matcher::with_recorder(&q, &g, MatchOptions::homomorphism(), &rec).for_each(|m| {
            found.push(m.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(found, vec![vec![maker, items[0]]]);
        assert_eq!(
            found,
            find_all_brute(&q, &g, MatchOptions::homomorphism()),
            "filter never changes the match set"
        );
        assert_eq!(
            rec.prefilter_rejects(),
            2,
            "both edge-less persons rejected before recursion"
        );
    }

    /// Every match of `q` in `g` under `plan`, default options.
    fn planned(plan: &MatchPlan, q: &Pattern, g: &Graph) -> Vec<Match> {
        let mut found = Vec::new();
        Matcher::with_plan(plan, q, g, MatchOptions::homomorphism(), &NOOP).for_each(|h| {
            found.push(h.to_vec());
            ControlFlow::Continue(())
        });
        found
    }

    /// `require_attr` narrows enumeration to candidates carrying the
    /// constant attribute — the violation-premise shortcut.
    #[test]
    fn required_attrs_narrow_the_match_set() {
        let mut g = Graph::new();
        let person = ged_graph::sym("person");
        let fake = ged_graph::sym("is_fake");
        let a = g.add_node(person);
        let b = g.add_node(person);
        g.set_attr(a, fake, Value::Int(1));
        g.set_attr(b, fake, Value::Int(0));
        let mut q = Pattern::new();
        let x = q.var("x", "person");
        let mut plan = MatchPlan::new(&q);
        plan.require_attr(x, fake, Value::Int(1));
        assert_eq!(
            planned(&plan, &q, &g),
            vec![vec![a]],
            "only the is_fake=1 node survives"
        );
        // Float/int numeric equality follows `Value`'s PartialEq.
        let mut plan = MatchPlan::new(&q);
        plan.require_attr(x, fake, Value::Float(1.0));
        assert_eq!(planned(&plan, &q, &g), vec![vec![a]], "1.0 matches 1");
    }

    /// `require_attr_eq` is a join filter with an `=` literal's semantics:
    /// both attributes present and `Value`-equal, checked when the second
    /// variable is assigned — from whichever side the search arrives —
    /// and on the candidate itself for a same-variable obligation.
    #[test]
    fn required_attr_equalities_filter_at_the_second_assignment() {
        use ged_obs::CellRecorder;
        let mut g = Graph::new();
        let t = ged_graph::sym("t");
        let (k, l) = (ged_graph::sym("k"), ged_graph::sym("l"));
        let n: Vec<NodeId> = (0..4).map(|_| g.add_node(t)).collect();
        g.set_attr(n[0], k, Value::Int(1));
        g.set_attr(n[1], l, Value::Float(1.0));
        g.set_attr(n[2], k, Value::Int(2));
        g.set_attr(n[2], l, Value::Int(2));
        // n[3] carries neither attribute: it can sit on no side of a join.
        let mut q = Pattern::new();
        let x = q.var("x", "t");
        let y = q.var("y", "t");
        let mut plan = MatchPlan::new(&q);
        plan.require_attr_eq(x, k, y, l);
        let expect = vec![vec![n[0], n[1]], vec![n[2], n[2]]];
        assert_eq!(planned(&plan, &q, &g), expect, "1 = 1.0, 2 = 2");
        for (anchor, seed, found) in [
            (x, n[0], vec![vec![n[0], n[1]]]),
            (y, n[1], vec![vec![n[0], n[1]]]),
            (y, n[3], vec![]),
        ] {
            let rec = CellRecorder::new();
            let matcher = Matcher::with_plan(&plan, &q, &g, MatchOptions::homomorphism(), &rec);
            let mut got = Vec::new();
            matcher.for_each_anchored_in(&mut MatchScratch::new(), anchor, &[seed], NOTHING, |m| {
                got.push(m.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(got, found, "anchored at {anchor} ↦ {seed:?}");
            // One attempt is the seed; the other variable's four
            // candidates each end as a match or a tallied reject.
            assert_eq!(
                rec.attempts() - 1,
                rec.matches() + rec.prefilter_rejects(),
                "every refused candidate is tallied as a pre-filter reject"
            );
        }
        let mut same = MatchPlan::new(&q);
        same.require_attr_eq(x, k, x, l);
        let xs: Vec<NodeId> = planned(&same, &q, &g).iter().map(|m| m[0]).collect();
        assert_eq!(xs, vec![n[2]; 4], "only n[2] has k = l; y is free");
    }

    /// One scratch reused across runs, patterns, and graphs yields the
    /// same matches as fresh allocation.
    #[test]
    fn scratch_reuse_across_runs_is_equivalent() {
        let g = creator_graph();
        let q = q1();
        let mut scratch = MatchScratch::new();
        let matcher = Matcher::new(&q, &g, MatchOptions::homomorphism());
        for _ in 0..3 {
            let mut got = Vec::new();
            matcher.for_each_in(&mut scratch, |m| {
                got.push(m.to_vec());
                ControlFlow::Continue(())
            });
            assert_eq!(got, find_all(&q, &g, MatchOptions::homomorphism()));
        }
        // A different (larger) pattern through the same scratch.
        let mut q2 = Pattern::new();
        let x = q2.var("x", "person");
        let y = q2.var("y", "product");
        let z = q2.var("z", "person");
        q2.edge(x, "create", y);
        q2.edge(z, "create", y);
        let matcher2 = Matcher::new(&q2, &g, MatchOptions::homomorphism());
        let mut got = Vec::new();
        matcher2.for_each_in(&mut scratch, |m| {
            got.push(m.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(got, find_all(&q2, &g, MatchOptions::homomorphism()));
    }

    /// The recorder hook observes without perturbing: a recorded run
    /// yields the same matches as a plain one, `on_match` fires once per
    /// match, and `on_attempt` counts every candidate considered (so it
    /// dominates the match count for non-empty patterns).
    #[test]
    fn recorder_counts_attempts_and_matches_without_changing_results() {
        use ged_obs::CellRecorder;
        let g = creator_graph();
        let q = q1();
        let plain = find_all(&q, &g, MatchOptions::homomorphism());
        let rec = CellRecorder::new();
        let mut observed = Vec::new();
        Matcher::with_recorder(&q, &g, MatchOptions::homomorphism(), &rec).for_each(|m| {
            observed.push(m.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(observed, plain, "recording does not change the matches");
        assert_eq!(rec.matches(), plain.len() as u64);
        assert!(
            rec.attempts() >= rec.matches(),
            "every match costs at least one candidate attempt: {} < {}",
            rec.attempts(),
            rec.matches()
        );
        // The empty pattern has one match and zero candidates to try.
        let empty = Pattern::new();
        let rec = CellRecorder::new();
        Matcher::with_recorder(&empty, &g, MatchOptions::homomorphism(), &rec)
            .for_each(|_| ControlFlow::Continue(()));
        assert_eq!((rec.attempts(), rec.matches()), (0, 1));
    }

    #[test]
    fn matches_brute_force_on_small_cases() {
        let g = creator_graph();
        {
            let (name, q) = ("q1", q1());
            let fast: std::collections::HashSet<Match> =
                find_all(&q, &g, MatchOptions::homomorphism())
                    .into_iter()
                    .collect();
            let brute: std::collections::HashSet<Match> =
                find_all_brute(&q, &g, MatchOptions::homomorphism())
                    .into_iter()
                    .collect();
            assert_eq!(fast, brute, "{name}");
        }
    }
}
