//! The incremental validator: delta-driven maintenance of `G ⊨ Σ`.
//!
//! ## The affected-area algorithm
//!
//! Let `T` be the union of the deltas' footprints ([`DeltaEffect::touched`]):
//! the node of an attribute write, the endpoints of an added or explicitly
//! removed edge, a created node, or — for `RemoveNode` — just the dead id
//! itself (its implicitly removed edges contribute nothing further; see
//! fact 2). A rule `φ` sees only part of a batch: its literals read the
//! attributes it names ([`Rule::attrs_read`]) and its matches use
//! only edges its pattern's labels match. So each node of `T` carries the
//! rules its touches *concern* ([`Footprint`]): an attribute write or
//! delete concerns the rules that read the attribute, an edge delta the
//! rules with a pattern edge of its label (`_` matches any), a node added
//! or removed every rule. `T_φ`, the nodes whose set holds `φ`, is `φ`'s
//! footprint, and two facts make it a complete boundary for `φ`:
//!
//! 1. **New violations of `φ` localise to `T_φ`.** A violating match that
//!    exists after the update but was not stored before is either a
//!    brand-new match — so its image uses a new node, or a new edge that a
//!    pattern edge of `φ` maps onto, both of which put a node of `T_φ` in
//!    the image — or an old match whose check flipped, which requires a
//!    change to an attribute `φ` reads on a matched node, again a node of
//!    `T_φ` in the image.
//! 2. **Dead witnesses of `φ` meet `T_φ` too.** A match killed by the
//!    update used a removed node (the dead id concerns every rule) or an
//!    explicitly removed edge that a pattern edge of `φ` mapped onto (both
//!    endpoints are in its image and in `T_φ`). An edge removed
//!    *implicitly* by `RemoveNode` only affects matches whose image
//!    contains the dead endpoint — the first case.
//!
//! Hence the per-update recipe, rule by rule: apply the deltas; drop every
//! stored witness of `φ` whose image meets `T_φ` — one inverted-index
//! lookup per node of `T`, proportional to the *affected* witnesses, not
//! the store ([`ViolationStore::drop_intersecting`]); then re-enumerate
//! only matches of `φ` whose image meets the *live* part of `T_φ` via
//! exclusion-aware anchored matching ([`Matcher::for_each_anchored_in`]):
//! anchoring each pattern variable `v` on `T_φ` while *excluding* `T_φ`
//! from the candidate domains of variables declared before `v` enumerates
//! exactly the matches whose first variable in `T_φ` is `v`, so the union
//! over anchors visits each affected match of `φ` exactly once — no
//! post-hoc owner filter, no redundant matching work. A witness of a rule
//! the batch could not affect is neither dropped nor re-derived. Every run
//! borrows its rule's [`MatchPlan`], compiled once at construction
//! ([`unit::rule_plan`]): the search order is rooted at the anchor, so it
//! leaves the touched node over edges instead of scanning a label, and the
//! rule's constant and equality premises refuse candidates before
//! recursion.
//!
//! Both hot loops are thereby output-sensitive: per update the engine does
//! work proportional to the affected area, never to global state. The
//! re-enumeration runs on the caller's thread, one work unit per `(rule,
//! anchor variable)` with a non-empty seed list, through the same unit
//! function ([`mod@unit`]) as the full pass that seeds
//! [`IncrementalValidator::new`].
//!
//! [`Matcher::for_each_anchored_in`]: ged_pattern::Matcher::for_each_anchored_in
//! [`DeltaEffect::touched`]: ged_graph::DeltaEffect::touched

use crate::footprint::{Footprint, Relevance, Seeds};
use crate::metrics::{BatchTally, EngineMetrics, MetricsSnapshot, Phase};
use crate::store::{StoreChange, ViolationStore};
use crate::unit;
use crate::view::{ReadView, SharedViews};
use ged_analysis::{AnalysisReport, Pruned};
use ged_core::reason::ValidationReport;
use ged_core::rule::Rule;
use ged_graph::{Delta, DeltaSet, Graph, NodeId};
use ged_pattern::{MatchPlan, MatchScratch};
use std::sync::Arc;

/// What one [`IncrementalValidator::apply`] / [`apply_all`] call did.
///
/// [`apply_all`]: IncrementalValidator::apply_all
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Deltas that actually changed the graph (no-ops excluded).
    pub deltas_applied: usize,
    /// Witnesses present before the update and gone after it. A witness
    /// the affected-area pass drops and immediately re-derives is
    /// *retained*, not removed — churn is measured against the pre-update
    /// store, not against the internal drop/re-enumerate cycle.
    pub violations_removed: usize,
    /// Witnesses absent before the update and present after it.
    pub violations_added: usize,
    /// Affected witnesses that survived the update: dropped by the prune
    /// and re-derived unchanged (same GED and assignment; their failed
    /// literals are refreshed) by re-enumeration. Only witnesses of rules
    /// the batch could affect are dropped and re-derived: a witness whose
    /// nodes were touched only in ways its rule cannot see (an attribute
    /// it does not read, an edge label its pattern lacks) stays in the
    /// store and is not counted here.
    pub violations_retained: usize,
    /// Live nodes in the touched set, whichever rules their touches
    /// concern.
    pub touched_nodes: usize,
    /// Ids of the nodes created by `AddNode` deltas, in application order —
    /// the handle callers need to target a just-inserted node with
    /// follow-up deltas (the validator owns the graph, so there is no
    /// other way to learn them).
    pub created: Vec<NodeId>,
}

/// The record a [`with_analysis`](IncrementalValidator::with_analysis)
/// validator keeps of its pre-deployment analysis: the full report plus
/// exactly which rules were dropped (empty when nothing was prunable).
#[derive(Debug, Clone)]
pub struct DeployAnalysis {
    /// The analyzer's findings for the *original* Σ (indices in
    /// [`Pruned`] refer to it, not to the pruned rule vector).
    pub report: AnalysisReport,
    /// Rules dropped before seeding, in original Σ order.
    pub pruned: Vec<Pruned>,
}

/// Maintains the violation set of `G ⊨ Σ` under a stream of updates, for
/// rules of every family, each a [`Rule`].
///
/// Owns the graph (updates must flow through the validator so the store
/// stays consistent) and a [`ViolationStore`] that after every call equals
/// what a from-scratch [`validate`] with no witness limit would produce.
///
/// Reads can also proceed *concurrently* with the write path: a
/// [`read_view`](IncrementalValidator::read_view) is a cloneable
/// `Send + Sync` handle whose queries answer against the snapshot
/// published at the last batch boundary, so any number of concurrent
/// readers query while the one writer keeps applying deltas (DESIGN.md §9).
///
/// [`validate`]: ged_core::reason::validate
#[derive(Debug)]
pub struct IncrementalValidator {
    graph: Graph,
    sigma: Arc<Vec<Rule>>,
    store: ViolationStore,
    metrics: Arc<EngineMetrics>,
    analysis: Option<Arc<DeployAnalysis>>,
    /// Per-rule match plans ([`unit::rule_plan`]): rooted search orders
    /// and premise pre-filters, compiled once at construction and
    /// borrowed by every seeding and delta-path work unit.
    plans: Vec<MatchPlan>,
    /// Which rules each delta concerns, derived from Σ's syntax once.
    relevance: Relevance,
    /// The batch's footprint and anchor seed lists: buffers kept across
    /// batches, refilled by every one.
    footprint: Footprint,
    seeds: Seeds,
    /// The state every work unit runs with, built once: the tally each
    /// pass fills and [`EngineMetrics`] folds in — it also holds the
    /// metrics switch — and the matcher's candidate buffers.
    worker: (BatchTally, MatchScratch),
    /// The slot shared with every [`ReadView`]: the published snapshot
    /// (and with it the epoch) and the reader count. Epoch 0 is published
    /// at construction, and every store-changing batch publishes the next.
    views: Arc<SharedViews>,
}

/// A cloned validator is an independent fork: it deep-copies the graph,
/// store, and metrics registry (tallies diverge from the clone point) and
/// starts with a fresh work-unit state and its own view set, whose epoch 0
/// is the state at the clone — [`ReadView`]s of the original keep reading
/// the original, never the clone.
impl Clone for IncrementalValidator {
    fn clone(&self) -> IncrementalValidator {
        IncrementalValidator {
            graph: self.graph.clone(),
            sigma: Arc::clone(&self.sigma),
            store: self.store.clone(),
            metrics: Arc::new((*self.metrics).clone()),
            analysis: self.analysis.clone(),
            plans: self.plans.clone(),
            relevance: self.relevance.clone(),
            footprint: Footprint::default(),
            seeds: self.seeds.clone(),
            worker: (
                BatchTally::new(self.sigma.len(), self.metrics_enabled()),
                MatchScratch::new(),
            ),
            views: Arc::new(SharedViews::new(self.store.table().clone())),
        }
    }
}

impl IncrementalValidator {
    /// Build a validator, seeding the store with a full validation pass on
    /// the caller's thread: each constraint runs one work unit anchored on
    /// its most selective pattern variable, over that variable's whole
    /// candidate list ([`mod@unit`]).
    ///
    /// Before seeding, the graph is asked to index every `(label,
    /// attribute)` pair the compiled plans can probe
    /// ([`MatchPlan::index_requests`]: the cross-component equality joins
    /// of Σ — graph keys), so seeding and every later batch reach a join's
    /// far side through [`Graph::probe_attr`] instead of a label scan. The
    /// graph keeps those indexes current under
    /// [`apply_delta`](Graph::apply_delta); a Σ of connected patterns
    /// requests none.
    pub fn new(mut graph: Graph, sigma: Vec<Rule>) -> IncrementalValidator {
        let metrics = EngineMetrics::for_sigma(&sigma);
        let mut worker = (BatchTally::new(sigma.len(), true), MatchScratch::new());
        worker.0.start();
        let mut store = ViolationStore::for_sigma(&sigma);
        let plans: Vec<MatchPlan> = sigma.iter().map(unit::rule_plan).collect();
        for (label, attr) in plans.iter().flat_map(MatchPlan::index_requests) {
            graph.index_attr(label, attr);
        }
        // The first unit's time runs from here.
        worker.0.lap(Phase::Seeding);
        let found = unit::full_pass(&graph, &sigma, &plans, &mut worker);
        for (ci, m, kind) in found {
            store.insert(ci, m, kind);
        }
        worker.0.lap(Phase::Seeding);
        metrics.fold(&mut worker.0, None, &store);
        IncrementalValidator {
            graph,
            views: Arc::new(SharedViews::new(store.table().clone())),
            store,
            metrics: Arc::new(metrics),
            analysis: None,
            plans,
            relevance: Relevance::for_sigma(&sigma),
            footprint: Footprint::default(),
            seeds: Seeds::for_sigma(&sigma),
            sigma: Arc::new(sigma),
            worker,
        }
    }

    /// [`new`](IncrementalValidator::new) for callers that still pass a
    /// seeding worker count, which must be 1. The benchmark-only change of
    /// ROADMAP item 1 moves the last caller to `new` and retires this.
    #[doc(hidden)]
    pub fn with_threads(graph: Graph, sigma: Vec<Rule>, threads: usize) -> IncrementalValidator {
        assert_eq!(threads, 1, "seeding is sequential: call `new`");
        IncrementalValidator::new(graph, sigma)
    }

    /// Build a validator behind the pre-deployment static-analysis gate
    /// of `ged-analysis` (DESIGN.md §7): `analyze(&sigma)` runs first,
    /// and
    ///
    /// * an Error-severity Σ (an unsatisfiable chase fragment) is
    ///   **rejected** — `Err` carries the full [`AnalysisReport`] so the
    ///   caller can print exactly why;
    /// * rules the analyzer proved safe to drop — implied by the rest of
    ///   the chase fragment, duplicates, rules that can never fire or
    ///   never produce a violation — are removed *before* the seeding
    ///   pass, so neither seeding nor the delta path ever pays for them;
    /// * the validator records what happened: [`analysis`] returns the
    ///   report plus the pruned-rule list.
    ///
    /// To gate a deployment without pruning it, check
    /// `analyze(&sigma).has_errors()` and call
    /// [`new`](IncrementalValidator::new).
    ///
    /// Pruning never changes whether the maintained graph satisfies Σ,
    /// and the kept rules' violation sets are bit-for-bit what the
    /// unpruned validator maintains for them (soundness argument in
    /// DESIGN.md §7; held under generated update streams, per pruning
    /// reason, by the lockstep driver's `pruned` subject — DESIGN.md §11).
    ///
    /// [`analysis`]: IncrementalValidator::analysis
    pub fn with_analysis(
        graph: Graph,
        sigma: Vec<Rule>,
    ) -> Result<IncrementalValidator, AnalysisReport> {
        let report = ged_analysis::analyze(&sigma);
        if report.has_errors() {
            return Err(report);
        }
        let pruned = report.prunable.clone();
        let kept = sigma.into_iter().enumerate();
        let kept = kept.filter(|(i, _)| pruned.iter().all(|p| p.index != *i));
        let kept = kept.map(|(_, c)| c).collect();
        let mut v = IncrementalValidator::new(graph, kept);
        v.analysis = Some(Arc::new(DeployAnalysis { report, pruned }));
        Ok(v)
    }

    /// The pre-deployment analysis record, when this validator was built
    /// via [`with_analysis`](IncrementalValidator::with_analysis);
    /// `None` for the plain constructors.
    pub fn analysis(&self) -> Option<&DeployAnalysis> {
        self.analysis.as_deref()
    }

    /// A point-in-time aggregate of the engine's metrics registry:
    /// per-phase latency histograms, per-rule match/violation counters,
    /// store gauges, and the recent batch trace. Human-readable via
    /// `Display`, machine-readable via [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(&self.views)
    }

    /// Turn instrumentation on or off (on by default). While disabled the
    /// delta path monomorphizes with the no-op recorder, reads no clock
    /// and takes no lock — it *is* the uninstrumented engine; existing
    /// tallies are kept, not reset.
    pub fn set_metrics_enabled(&mut self, on: bool) {
        self.worker.0.enabled = on;
        self.metrics.set_enabled(on);
    }

    /// Is instrumentation currently on?
    fn metrics_enabled(&self) -> bool {
        self.worker.0.enabled
    }

    /// The current graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The rule set Σ.
    pub fn sigma(&self) -> &[Rule] {
        &self.sigma
    }

    /// The maintained violation store.
    pub fn store(&self) -> &ViolationStore {
        &self.store
    }

    /// `G ⊨ Σ` right now?
    pub fn is_satisfied(&self) -> bool {
        self.store.is_empty()
    }

    /// Total number of current violations.
    pub fn violation_count(&self) -> usize {
        self.store.total()
    }

    /// The current violations as a [`ValidationReport`] (Σ order, witnesses
    /// sorted per GED).
    pub fn report(&self) -> ValidationReport {
        self.store.to_report(&self.sigma)
    }

    /// Create a snapshot-isolated read view: a cloneable `Send + Sync`
    /// handle whose [`snapshot`](ReadView::snapshot) pins the state
    /// published at the last batch boundary. Hand clones to as many
    /// concurrent readers as needed while the single writer keeps calling
    /// [`apply`](IncrementalValidator::apply) /
    /// [`apply_all`](IncrementalValidator::apply_all) — readers never
    /// block the writer and never observe a torn mid-batch store.
    ///
    /// Taking a view costs nothing: every validator publishes, views or
    /// not. Construction publishes epoch 0, and `maintain` publishes
    /// after every store-changing batch in O(changed) — the table it
    /// maintained becomes the snapshot, the one it replaces catches up by
    /// replaying the batch's log (timed as [`Phase::SnapshotPublish`]).
    ///
    /// # Example
    ///
    /// ```
    /// use ged_core::{Ged, Literal};
    /// use ged_engine::{Delta, IncrementalValidator};
    /// use ged_graph::{sym, Graph, Value};
    /// use ged_pattern::{parse_pattern, Var};
    ///
    /// let q = parse_pattern("t(x); t(y)").unwrap();
    /// let key = Ged::new(
    ///     "key",
    ///     q,
    ///     vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
    ///     vec![Literal::id(Var(0), Var(1))],
    /// );
    /// let mut g = Graph::new();
    /// let a = g.add_node(sym("t"));
    /// let b = g.add_node(sym("t"));
    /// g.set_attr(a, sym("k"), 1);
    ///
    /// let mut v = IncrementalValidator::new(g, vec![key.into()]);
    /// let view = v.read_view();
    /// assert!(view.snapshot().is_satisfied());
    ///
    /// // A reader thread could hold `view.clone()` here. The writer
    /// // keeps applying; each batch publishes a new epoch.
    /// v.apply(&Delta::SetAttr { node: b, attr: sym("k"), value: Value::from(1) });
    /// let snap = view.snapshot();
    /// assert_eq!((snap.epoch(), snap.violation_count()), (1, 2));
    /// ```
    pub fn read_view(&self) -> ReadView {
        ReadView::register(
            Arc::clone(&self.sigma),
            Arc::clone(&self.views),
            Arc::clone(&self.metrics),
        )
    }

    /// The epoch of the most recently published read-view snapshot: the
    /// number of store-changing batches since construction (or since the
    /// clone, for a cloned validator), read off the published snapshot.
    ///
    /// This is the writer-side twin of [`ReadView::epoch`]: a server
    /// that owns the validator mutably can stamp apply replies with the
    /// epoch its readers will observe, without holding a view of its
    /// own.
    pub fn published_epoch(&self) -> u64 {
        self.views.epoch()
    }

    /// Apply one delta and maintain the store.
    ///
    /// The returned [`ApplyStats`] classify the churn against the
    /// pre-update store: removed, added, and retained witnesses, plus the
    /// ids of any nodes the delta created.
    ///
    /// # Example
    ///
    /// ```
    /// use ged_core::{Ged, Literal};
    /// use ged_engine::{Delta, IncrementalValidator};
    /// use ged_graph::{sym, Graph, Value};
    /// use ged_pattern::{parse_pattern, Var};
    ///
    /// // key: two t-nodes with equal `k` must be the same node.
    /// let q = parse_pattern("t(x); t(y)").unwrap();
    /// let key = Ged::new(
    ///     "key",
    ///     q,
    ///     vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
    ///     vec![Literal::id(Var(0), Var(1))],
    /// );
    ///
    /// let mut g = Graph::new();
    /// let a = g.add_node(sym("t"));
    /// let b = g.add_node(sym("t"));
    /// g.set_attr(a, sym("k"), 1);
    /// g.set_attr(b, sym("k"), 2);
    ///
    /// let mut v = IncrementalValidator::new(g, vec![key.into()]);
    /// assert!(v.is_satisfied(), "distinct keys: no violation");
    ///
    /// // Re-keying `b` onto `a`'s key creates the two symmetric
    /// // witnesses — maintained incrementally, not by revalidating.
    /// let stats = v.apply(&Delta::SetAttr {
    ///     node: b,
    ///     attr: sym("k"),
    ///     value: Value::from(1),
    /// });
    /// assert_eq!(stats.violations_added, 2);
    /// assert_eq!(v.violation_count(), 2);
    ///
    /// // Undoing the write repairs both.
    /// let stats = v.apply(&Delta::DelAttr { node: b, attr: sym("k") });
    /// assert_eq!(stats.violations_removed, 2);
    /// assert!(v.is_satisfied());
    /// ```
    pub fn apply(&mut self, delta: &Delta) -> ApplyStats {
        self.maintain(std::slice::from_ref(delta))
    }

    /// Apply a batch of deltas left to right, then maintain the store once
    /// over the union of their touched sets — cheaper than per-delta
    /// maintenance when deltas cluster in the same region.
    pub fn apply_all(&mut self, deltas: &DeltaSet) -> ApplyStats {
        self.maintain(deltas.deltas())
    }

    /// Apply the deltas left to right ([`Graph::apply_batch`]), folding
    /// each effect into the batch's footprint as it is reported — each
    /// touched node tagged with the rules its delta concerns — then prune
    /// and re-derive the store.
    fn maintain(&mut self, deltas: &[Delta]) -> ApplyStats {
        let mut stats = ApplyStats::default();
        self.footprint.start(&self.relevance, deltas.len());
        // From here to the store insert, consecutive laps of one timer.
        self.worker.0.start();
        self.graph.apply_batch(deltas, |delta, eff| {
            stats.deltas_applied += usize::from(eff.changed);
            stats.created.extend(eff.created);
            let rules = self.relevance.of(delta);
            for node in eff.touched.into_iter().flatten() {
                self.footprint.touch(node, rules);
            }
        });
        if stats.deltas_applied == 0 {
            return stats;
        }
        self.worker.0.lap(Phase::DeltaApply);
        // The footprint, sorted and deduplicated once for the whole batch:
        // deltas touching the same node repeatedly collapse to one entry
        // whose rule set is the union of theirs, and the re-enumeration's
        // exclusion test binary-searches it.
        self.footprint.build(&self.relevance);
        // If anything below unwinds, dump the recent batch trace so the
        // panic report carries the apply history that led up to it.
        let _trace_dump = self.metrics.dump_trace_on_panic();

        // Drop while the footprint still holds removed ids, so witnesses
        // of dead nodes (and of edges whose endpoints these are) go too.
        // The dropped entries are the pre-update snapshot of the affected
        // area.
        let dropped = self.store.drop_intersecting(&self.footprint);
        self.worker.0.lap(Phase::WitnessDrop);
        let pruned = self.store.total();

        // Every re-derived witness is also logged, so the publish step can
        // bring the other copy of the table up to date by O(changed)
        // replay.
        let mut upserts: Vec<StoreChange> = Vec::new();

        // Only live nodes seed re-enumeration (ids removed by this batch
        // have no matches to contribute).
        self.footprint.retain_live(&self.graph);
        stats.touched_nodes = self.footprint.nodes().len();

        let area = affected_area(
            &self.graph,
            &self.sigma,
            &self.plans,
            (&self.footprint, &mut self.seeds),
            &mut self.worker,
        );
        for (ci, m, kind) in area {
            upserts.push(StoreChange::Upsert(ci, m.clone(), kind.clone()));
            let fresh = self.store.insert(ci, m, kind);
            debug_assert!(fresh, "rule {ci}: an affected match was enumerated twice");
        }
        // Classify churn against the snapshot: a dropped witness the
        // re-enumeration restored was retained, not removed + re-added.
        // Every re-enumerated match that was stored before the update was
        // necessarily dropped (its image meets its rule's footprint), so
        // the inserted keys split exactly into retained (in the snapshot)
        // and new. The rules whose witnesses changed move their stamps.
        stats.violations_retained = self.store.settle(&dropped);
        stats.violations_removed = dropped.len() - stats.violations_retained;
        stats.violations_added = self.store.total() - pruned - stats.violations_retained;
        self.worker.0.lap(Phase::StoreInsert);
        let batch = Some((&stats, dropped.len()));
        self.metrics.fold(&mut self.worker.0, batch, &self.store);
        // The explicit publish step, so read views advance exactly at
        // batch boundaries — never mid-batch: the table just maintained
        // becomes the snapshot, and the store goes on with the one it
        // replaces, caught up by this batch's log — drops first, then the
        // re-derived witnesses, so a retained one nets out to an upsert.
        self.worker.0.start();
        let drops = dropped.into_iter();
        let log = drops.map(|(ci, m, _)| StoreChange::Remove(ci, m));
        self.store
            .exchange_table(|table| self.views.publish(table, log.chain(upserts)));
        self.metrics.record_publish(&mut self.worker.0);
        stats
    }

    /// Consume the validator, returning the graph it owns.
    pub fn into_graph(self) -> Graph {
        self.graph
    }
}

impl std::fmt::Display for ApplyStats {
    /// One-line summary:
    /// `applied 3 delta(s): +2/−1 witness(es), 4 retained, 5 node(s) touched`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "applied {} delta(s): +{}/−{} witness(es), {} retained, {} node(s) touched",
            self.deltas_applied,
            self.violations_added,
            self.violations_removed,
            self.violations_retained,
            self.touched_nodes
        )?;
        if !self.created.is_empty() {
            write!(f, ", {} created", self.created.len())?;
        }
        Ok(())
    }
}

/// The affected area of one update across the whole rule set: every
/// violating match of every constraint whose image meets that
/// constraint's footprint, each exactly once. See the module docs for why
/// nothing outside a rule's footprint can change its witnesses — the
/// argument only needs `c.check` to read the ids and the named attributes
/// of matched nodes and the match to use only edges its pattern's labels
/// match, which [`Rule`] guarantees whatever family it was compiled from,
/// so this path is shared rather than duplicated per family.
///
/// `footprint` holds the live touched nodes, sorted and deduplicated, each
/// with its rule set; `seeds` is refilled from it in one pass, one list
/// per `(rule, variable label)` (the debug assertion checks the lists
/// inherit the order — a duplicated anchor seed would enumerate its
/// matches twice and double-count work).
///
/// One work unit per `(constraint, anchor variable)` whose seed list is
/// non-empty, run in Σ order on the caller's thread through
/// [`unit::run_unit`] with the validator's `worker` state — the unit
/// function of the seeding pass ([`unit::full_pass`]), from which this
/// path differs in anchoring *every* pattern variable (not one pivot) and
/// in the exclusions it hands each unit.
///
/// Exactly-once discipline, per rule: the match whose *first* variable (in
/// declaration order) mapped into the rule's footprint is `v` is
/// enumerated only when anchoring `v` — variables declared before `v` have
/// the rule's footprint *excluded* from their candidate domains, so every
/// other anchoring prunes the match before it is ever completed: no match
/// is enumerated twice, none is enumerated and then discarded.
fn affected_area(
    g: &Graph,
    sigma: &[Rule],
    plans: &[MatchPlan],
    (footprint, seeds): (&Footprint, &mut Seeds),
    worker: &mut (BatchTally, MatchScratch),
) -> Vec<unit::Found> {
    // An empty pattern contributes nothing: its one (empty) match has an
    // empty image, never affected by deltas.
    seeds.fill(g, footprint);
    // The first unit's time runs from here; each later one's from the end
    // of the unit before it.
    worker.0.lap(Phase::Materialize);
    let mut all = Vec::new();
    for (ci, rule) in sigma.iter().zip(plans).enumerate() {
        let pattern = &rule.0.pattern;
        for anchor in pattern.vars() {
            let list = seeds.of(ci, pattern.label(anchor));
            if list.is_empty() {
                continue;
            }
            debug_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "anchor seeds are deduplicated (and sorted): {list:?}"
            );
            // The rule's footprint is excluded from the variables before
            // the anchor.
            let excluded = |u, n: NodeId| u < anchor && footprint.contains(n, ci);
            let unit = (ci, anchor, list);
            let phase = Phase::Reenumerate;
            unit::run_unit(g, rule, unit, &excluded, phase, worker, &mut all);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_core::satisfy::Violation;
    use ged_graph::{sym, Value};
    use ged_pattern::{parse_pattern, Var};
    use ged_pattern::{MatchOptions, Matcher};
    use std::ops::ControlFlow;

    /// key: two t-nodes with equal `k` must be identical.
    fn key_rule() -> Rule {
        let q = parse_pattern("t(x); t(y)").unwrap();
        Rule::from(Ged::new(
            "key",
            q,
            vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
            vec![Literal::id(Var(0), Var(1))],
        ))
    }

    fn two_dupes() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.set_attr(a, sym("k"), 1);
        g.set_attr(b, sym("k"), 1);
        g
    }

    /// Normalise a report for equality checks (`Violation` itself is not
    /// `PartialEq`; kinds compare via their debug rendering).
    fn canon_report(r: &ValidationReport) -> Vec<(String, Vec<NodeId>, String)> {
        r.violations
            .iter()
            .map(|v| {
                (
                    v.ged_name.clone(),
                    v.assignment.clone(),
                    format!("{:?}", v.kind),
                )
            })
            .collect()
    }

    fn assert_consistent(v: &IncrementalValidator) {
        let full = ged_core::reason::validate(v.graph(), v.sigma(), None);
        let full_set: std::collections::BTreeSet<(String, Vec<NodeId>)> = full
            .violations
            .iter()
            .map(|x| (x.ged_name.clone(), x.assignment.clone()))
            .collect();
        let inc_set: std::collections::BTreeSet<(String, Vec<NodeId>)> = v
            .report()
            .violations
            .iter()
            .map(|x| (x.ged_name.clone(), x.assignment.clone()))
            .collect();
        assert_eq!(inc_set, full_set);
    }

    #[test]
    fn initial_store_matches_full_validation() {
        let v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        assert_eq!(v.violation_count(), 2, "two symmetric witnesses");
        assert_consistent(&v);
    }

    #[test]
    fn attr_change_creates_and_repairs_violations() {
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.set_attr(a, sym("k"), 1);
        g.set_attr(b, sym("k"), 2);
        let mut v = IncrementalValidator::new(g, vec![key_rule()]);
        assert!(v.is_satisfied());

        let stats = v.apply(&Delta::SetAttr {
            node: b,
            attr: sym("k"),
            value: Value::from(1),
        });
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.violations_added, 2);
        assert!(!v.is_satisfied());
        assert_consistent(&v);

        let stats = v.apply(&Delta::DelAttr {
            node: b,
            attr: sym("k"),
        });
        assert_eq!(stats.violations_removed, 2);
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    #[test]
    fn node_removal_clears_its_witnesses() {
        let mut v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        assert_eq!(v.violation_count(), 2);
        let b = v.graph().nodes().nth(1).unwrap();
        let stats = v.apply(&Delta::RemoveNode { node: b });
        assert_eq!(stats.violations_removed, 2);
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    #[test]
    fn edge_bound_pattern_tracks_edge_deltas() {
        // φ: connected t-nodes must agree on attribute p.
        let q = parse_pattern("t(x) -[e]-> t(y)").unwrap();
        let phi = Ged::new(
            "agree",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("p"), Var(1), sym("p"))],
        );
        let mut g = Graph::new();
        let a = g.add_node(sym("t"));
        let b = g.add_node(sym("t"));
        g.set_attr(a, sym("p"), 1);
        g.set_attr(b, sym("p"), 2);
        let mut v = IncrementalValidator::new(g, vec![phi.into()]);
        assert!(v.is_satisfied(), "no edges, no matches");

        v.apply(&Delta::AddEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert_eq!(v.violation_count(), 1);
        assert_consistent(&v);

        v.apply(&Delta::RemoveEdge {
            src: a,
            label: sym("e"),
            dst: b,
        });
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    #[test]
    fn batched_deltas_maintain_once() {
        let mut v = IncrementalValidator::new(Graph::new(), vec![key_rule()]);
        let mut batch = DeltaSet::new();
        batch.push(Delta::AddNode { label: sym("t") });
        batch.push(Delta::AddNode { label: sym("t") });
        let stats = v.apply_all(&batch);
        assert_eq!(stats.deltas_applied, 2);
        assert_eq!(
            stats.created,
            v.graph().nodes().collect::<Vec<_>>(),
            "created ids are reported in application order"
        );
        assert!(v.is_satisfied(), "no attributes yet");
        let nodes: Vec<NodeId> = v.graph().nodes().collect();
        let mut batch = DeltaSet::new();
        for &n in &nodes {
            batch.push(Delta::SetAttr {
                node: n,
                attr: sym("k"),
                value: Value::from(9),
            });
        }
        let stats = v.apply_all(&batch);
        assert_eq!(stats.violations_added, 2);
        assert_consistent(&v);
    }

    /// A write of an attribute no rule reads concerns no rule: the node is
    /// in the footprint, but nothing is dropped, so nothing is re-derived
    /// and nothing counts as churn or as retained — and the key rule runs
    /// no unit.
    #[test]
    fn unrelated_attr_write_counts_retained_not_churn() {
        let mut v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        assert_eq!(v.violation_count(), 2);
        let before = v.metrics();
        let a = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("note"),
            value: Value::from("irrelevant"),
        });
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.touched_nodes, 1, "the node is still touched");
        assert_eq!(stats.violations_removed, 0, "no witness died");
        assert_eq!(stats.violations_added, 0, "no witness appeared");
        assert_eq!(stats.violations_retained, 0, "no witness was dropped");
        let after = v.metrics();
        assert_eq!(after.witnesses_dropped, before.witnesses_dropped);
        assert_eq!(after.unit_latency.count, before.unit_latency.count);
        assert_eq!(after.match_attempts(), before.match_attempts());
        assert_eq!(v.violation_count(), 2);
        assert_consistent(&v);
    }

    /// Each kind of touch concerns exactly the rules whose syntax can see
    /// it: an attribute write or delete the rules that read the attribute —
    /// a GDC's `<` premise included, which no plan filter decides — an
    /// edge delta the rules with a pattern edge of its label or a wildcard
    /// one, and a node added or removed every rule. A rule re-enumerates
    /// (its attempts grow) only on a touch that concerns it, and the store
    /// equals full revalidation after every step.
    #[test]
    fn each_kind_of_touch_concerns_only_the_rules_that_read_it() {
        use ged_core::rule::Rule;
        use ged_ext::{gdc, GdcLiteral, Pred};
        let t = |src: &str| parse_pattern(src).unwrap();
        let (x, y) = (Var(0), Var(1));
        let sigma: Vec<Rule> = vec![
            Ged::new(
                "k=1",
                t("t(x)"),
                vec![],
                vec![Literal::constant(x, sym("k"), 1)],
            )
            .into(),
            Ged::new(
                "e-agree",
                t("t(x) -[e]-> t(y)"),
                vec![],
                vec![Literal::vars(x, sym("p"), y, sym("p"))],
            )
            .into(),
            Ged::forbidding("no-loop", t("t(x) -[_]-> t(y)"), vec![Literal::id(x, y)]).into(),
            gdc::forbidding(
                "age≥13",
                t("t(x)"),
                vec![GdcLiteral::constant(x, sym("age"), Pred::Lt, 13)],
            ),
        ];
        assert!(
            sigma[3]
                .premises()
                .iter()
                .all(|l| l.as_eq_literal().is_none()),
            "the GDC's only premise is `<`, outside the equality fragment"
        );
        let mut g = Graph::new();
        let [a, b, c] = [(); 3].map(|()| g.add_node(sym("t")));
        for n in [a, b] {
            g.set_attr(n, sym("k"), 1);
            g.set_attr(n, sym("p"), 1);
            g.set_attr(n, sym("age"), 30);
        }
        g.add_edge(a, sym("e"), b);
        // `c` violates every rule: no `k`, an `e` self loop without `p`, 8.
        g.set_attr(c, sym("age"), 8);
        g.add_edge(c, sym("e"), c);
        let mut v = IncrementalValidator::new(g, sigma);
        assert_eq!(v.violation_count(), 4);
        let mut step = |delta: Delta| -> Vec<usize> {
            let before = v.metrics();
            v.apply(&delta);
            assert_consistent(&v);
            let after = v.metrics();
            let rules = before.rules.iter().zip(&after.rules).enumerate();
            let ran = rules.filter(|(_, (b, a))| a.match_attempts > b.match_attempts);
            ran.map(|(ci, _)| ci).collect()
        };
        let set = |node, attr: &str, value: i64| Delta::SetAttr {
            node,
            attr: sym(attr),
            value: value.into(),
        };
        let edge = |add: bool, src, label: &str, dst| match add {
            true => Delta::AddEdge {
                src,
                label: sym(label),
                dst,
            },
            false => Delta::RemoveEdge {
                src,
                label: sym(label),
                dst,
            },
        };
        assert_eq!(step(set(a, "k", 2)), [0], "an attribute one rule reads");
        assert_eq!(
            step(set(a, "note", 2)),
            [0; 0],
            "an attribute no rule reads"
        );
        let (node, attr) = (a, sym("p"));
        assert_eq!(step(Delta::DelAttr { node, attr }), [1], "DelAttr");
        assert_eq!(
            step(edge(true, b, "e", a)),
            [1, 2],
            "a label the pattern has"
        );
        assert_eq!(step(edge(true, b, "f", a)), [2], "a label only `_` matches");
        assert_eq!(step(edge(false, b, "f", a)), [2], "and its removal");
        assert_eq!(step(set(b, "age", 9)), [3], "a `<` premise's attribute");
        let label = sym("t");
        assert_eq!(step(Delta::AddNode { label }), [0, 1, 2, 3], "AddNode");
        // A removed node seeds nothing, but its witnesses of every rule go.
        let witnesses = v.violation_count();
        let removed = v.apply(&Delta::RemoveNode { node: c });
        assert_eq!(
            removed.violations_removed, 4,
            "RemoveNode concerns every rule"
        );
        assert_eq!(v.violation_count(), witnesses - 4);
        assert_consistent(&v);
    }

    #[test]
    fn partial_churn_splits_removed_added_and_retained() {
        // Three t-nodes with k=1: 6 symmetric witnesses among {a,b,c}.
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..3).map(|_| g.add_node(sym("t"))).collect();
        for &n in &nodes {
            g.set_attr(n, sym("k"), 1);
        }
        let mut v = IncrementalValidator::new(g, vec![key_rule()]);
        assert_eq!(v.violation_count(), 6);
        // Re-keying c: the 4 witnesses containing c die, the 2 among
        // {a, b} are untouched (not even dropped), nothing is added.
        let c = nodes[2];
        let stats = v.apply(&Delta::SetAttr {
            node: c,
            attr: sym("k"),
            value: Value::from(2),
        });
        assert_eq!(stats.violations_removed, 4);
        assert_eq!(stats.violations_added, 0);
        assert_eq!(stats.violations_retained, 0);
        assert_eq!(v.violation_count(), 2);
        assert_consistent(&v);
    }

    #[test]
    fn no_op_deltas_do_nothing() {
        let mut v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        let count = v.violation_count();
        let a = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(1),
        });
        assert_eq!(stats, ApplyStats::default(), "same value: nothing to do");
        assert_eq!(v.violation_count(), count);
    }

    /// The generic delta path serves GDCs: a dense-order range constraint
    /// is maintained through attribute writes exactly like a GED.
    #[test]
    fn gdc_sigma_is_maintained_incrementally() {
        use ged_ext::{gdc, GdcLiteral, Pred};
        let q = parse_pattern("product(x)").unwrap();
        let cap = gdc::forbidding(
            "rating≤5",
            q,
            vec![GdcLiteral::constant(Var(0), sym("rating"), Pred::Gt, 5)],
        );
        let mut g = Graph::new();
        let p = g.add_node(sym("product"));
        g.set_attr(p, sym("rating"), 4);
        let mut v = IncrementalValidator::new(g, vec![cap]);
        assert!(v.is_satisfied());

        let stats = v.apply(&Delta::SetAttr {
            node: p,
            attr: sym("rating"),
            value: Value::from(9),
        });
        assert_eq!(stats.violations_added, 1);
        assert!(!v.is_satisfied());
        assert_consistent(&v);
        let report = v.report();
        assert_eq!(report.violations[0].ged_name, "rating≤5");
        let both = [0, 1];
        assert_eq!(
            report.violations[0].kind.positions(),
            both,
            "`false` failed"
        );

        let stats = v.apply(&Delta::SetAttr {
            node: p,
            attr: sym("rating"),
            value: Value::from(5),
        });
        assert_eq!(stats.violations_removed, 1);
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    /// The generic delta path serves GED∨: a domain constraint (violated
    /// iff *every* disjunct fails) is maintained through deltas, including
    /// node creation.
    #[test]
    fn disj_sigma_is_maintained_incrementally() {
        use ged_ext::disj;
        let q = parse_pattern("τ(x)").unwrap();
        let domain = disj::new(
            "A∈{0,1}",
            q,
            vec![],
            vec![
                Literal::constant(Var(0), sym("A"), 0),
                Literal::constant(Var(0), sym("A"), 1),
            ],
        );
        let mut v = IncrementalValidator::new(Graph::new(), vec![domain]);
        assert!(v.is_satisfied());

        // A new τ-node has no A attribute: every disjunct fails.
        let stats = v.apply(&Delta::AddNode { label: sym("τ") });
        let n = stats.created[0];
        assert_eq!(stats.violations_added, 1);
        let every_disjunct = [0, 1];
        assert_eq!(v.report().violations[0].kind.positions(), every_disjunct);
        assert_consistent(&v);

        // Satisfying one disjunct repairs it; an out-of-domain value
        // re-violates.
        v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("A"),
            value: Value::from(1),
        });
        assert!(v.is_satisfied());
        assert_consistent(&v);
        v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("A"),
            value: Value::from(7),
        });
        assert_eq!(v.violation_count(), 1);
        assert_consistent(&v);
    }

    /// One store shape serves all families: the seeding pass over GDCs
    /// equals the generic validate, row by row and witness by witness.
    #[test]
    fn seeding_is_generic_over_gdcs() {
        use ged_core::rule::Rule;
        use ged_ext::{gdc, GdcLiteral, Pred};
        let q = parse_pattern("t(x)").unwrap();
        let sigma: Vec<Rule> = (0..4)
            .map(|i| {
                gdc::new(
                    format!("A≥{i}"),
                    q.clone(),
                    vec![],
                    vec![GdcLiteral::constant(Var(0), sym("A"), Pred::Ge, i)],
                )
            })
            .collect();
        let mut g = Graph::new();
        for val in 0..6 {
            let n = g.add_node(sym("t"));
            g.set_attr(n, sym("A"), val);
        }
        let full = ged_core::reason::validate(&g, &sigma, None);
        let v = IncrementalValidator::new(g, sigma);
        let seeded = v.report();
        assert_eq!(seeded.total_violations(), full.total_violations());
        let rows = |r: &ValidationReport| -> Vec<(String, usize, bool)> {
            r.per_ged
                .iter()
                .map(|row| (row.name.clone(), row.violation_count, row.satisfied))
                .collect()
        };
        assert_eq!(rows(&seeded), rows(&full));
        assert_consistent(&v);
    }

    /// One `IncrementalValidator` serves a heterogeneous
    /// Σ: a plain GED, a dense-order GDC, and a disjunctive GED∨ in one
    /// rule set, maintained through deltas that hit each family.
    #[test]
    fn mixed_any_constraint_sigma_is_maintained_incrementally() {
        use ged_core::rule::Rule;
        use ged_ext::{disj, gdc, GdcLiteral, Pred};
        let q = parse_pattern("t(x)").unwrap();
        let sigma: Vec<Rule> = vec![
            key_rule(),
            gdc::forbidding(
                "k≤9",
                q.clone(),
                vec![GdcLiteral::constant(Var(0), sym("k"), Pred::Gt, 9)],
            ),
            disj::new(
                "mode∈{a,b}",
                q,
                vec![],
                vec![
                    Literal::constant(Var(0), sym("mode"), "a"),
                    Literal::constant(Var(0), sym("mode"), "b"),
                ],
            ),
        ];
        let mut v = IncrementalValidator::new(two_dupes(), sigma);
        // Seeding: the key dupes violate the GED (2 witnesses) and, having
        // no `mode`, the domain GED∨ (2 witnesses); k = 1 satisfies the GDC.
        assert_eq!(v.violation_count(), 4);
        assert_consistent(&v);

        let a = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(50),
        });
        // Re-keying `a` repairs both key witnesses but trips the GDC cap.
        assert_eq!(stats.violations_removed, 2);
        assert_eq!(stats.violations_added, 1);
        assert_consistent(&v);

        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("mode"),
            value: Value::from("b"),
        });
        assert_consistent(&v);
        let names: Vec<String> = v
            .report()
            .violations
            .iter()
            .map(|x| x.ged_name.clone())
            .collect();
        assert!(names.contains(&"k≤9".to_string()));
        assert!(names.contains(&"mode∈{a,b}".to_string()));
        assert!(!names.contains(&"key".to_string()));
    }

    #[test]
    fn empty_pattern_geds_are_stable() {
        use ged_pattern::Pattern;
        let trivial = Ged::new("t", Pattern::new(), vec![], vec![]);
        let mut v = IncrementalValidator::new(Graph::new(), vec![trivial.into()]);
        assert!(v.is_satisfied());
        v.apply(&Delta::AddNode { label: sym("t") });
        assert!(v.is_satisfied());
        assert_consistent(&v);
    }

    /// A random graph with six planted key pairs, and the key rule.
    fn key_workload() -> (Graph, Ged) {
        use ged_datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
        let cfg = RandomGraphConfig {
            n_nodes: 80,
            n_edges: 160,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let key = plant_key_violations(&mut g, "entity", 6);
        (g, key)
    }

    #[test]
    fn empty_candidates_yield_no_violations() {
        let mut g = Graph::new();
        g.add_node(sym("other"));
        let (_, key) = key_workload();
        let v = IncrementalValidator::new(g, vec![key.into()]);
        assert_eq!(v.violation_count(), 0);
        let m = v.metrics();
        assert_eq!(m.unit_latency.count, 0, "no candidates, no unit");
        assert_eq!(m.match_attempts(), 0);
    }

    /// The metrics snapshot reflects the work the engine actually did:
    /// seeding fills the per-rule counters and the seeding phase, apply
    /// batches fill the delta-path phases, churn counters, store gauges,
    /// and the batch trace.
    #[test]
    fn metrics_snapshot_reflects_seeding_and_delta_batches() {
        let (g, key) = key_workload();
        let mut v = IncrementalValidator::new(g, vec![key.into()]);
        assert!(v.metrics_enabled(), "instrumentation is on by default");
        let seeded = v.metrics();
        assert_eq!(seeded.batches, 0, "no batch applied yet");
        assert!(seeded.match_attempts() > 0, "seeding attempted candidates");
        assert!(seeded.matches_found() > 0);
        assert_eq!(
            seeded.phase(Phase::Seeding).unwrap().count,
            1,
            "construction times exactly one seeding pass"
        );
        assert!(seeded.rules.iter().any(|r| r.seed_ns > 0));
        assert_eq!(
            seeded.rules.iter().map(|r| r.violations_found).sum::<u64>(),
            v.violation_count() as u64,
            "seeding attribution sums to the seeded store"
        );
        assert_eq!(seeded.store_size, v.violation_count() as u64);
        assert_eq!(seeded.rules[0].name, v.sigma()[0].name);

        let n = v.graph().nodes().next().unwrap();
        let stats = v.apply(&Delta::SetAttr {
            node: n,
            attr: sym("k"),
            value: Value::from(100),
        });
        let m = v.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.deltas_applied, 1);
        assert_eq!(m.touched_nodes, stats.touched_nodes as u64);
        assert_eq!(m.witnesses_added, stats.violations_added as u64);
        assert_eq!(m.witnesses_removed, stats.violations_removed as u64);
        for phase in [Phase::DeltaApply, Phase::WitnessDrop, Phase::Materialize] {
            assert_eq!(m.phase(phase).unwrap().count, 1, "{}", phase.name());
        }
        assert_eq!(m.store_size, v.violation_count() as u64);
        assert!(m.store_slab_slots >= m.store_size);
        let trace = &m.trace;
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].0, 1, "batch ids are 1-based ring sequences");
        assert_eq!(trace[0].1, stats);
        // The snapshot renders both ways without panicking.
        assert!(m.to_string().contains("1 batch(es)"));
        assert_eq!(m.to_json().get_u64("batches"), Some(1));
    }

    /// The delta path's work is bounded by the neighbourhood of the
    /// touched node, not by a label's population: a write to a node that
    /// sits at a *leaf* of a connected pattern re-enumerates over edges
    /// from the anchor and never scans the label index. A count, so it
    /// holds on any host.
    #[test]
    fn a_write_at_a_pattern_leaf_costs_less_than_one_label_scan() {
        use ged_datagen::random::{
            plant_key_violations, random_graph, random_sigma, RandomGraphConfig,
        };
        let cfg = RandomGraphConfig {
            n_nodes: 2400,
            n_edges: 7200,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let key = plant_key_violations(&mut g, "entity", 20);
        let mut sigma = vec![key];
        sigma.extend(random_sigma(12, 3, &cfg));
        // Images of degree-1 pattern variables in actual matches: the
        // nodes whose re-enumeration has the furthest to walk.
        let mut leaves: Vec<NodeId> = Vec::new();
        for rule in &sigma[1..] {
            let q = rule.pattern();
            for v in q.vars() {
                if q.out_edges(v).len() + q.in_edges(v).len() != 1 {
                    continue;
                }
                let mut taken = 0;
                Matcher::new(q, &g, MatchOptions::homomorphism()).for_each(|m| {
                    leaves.push(m[v.idx()]);
                    taken += 1;
                    if taken < 4 {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    }
                });
            }
        }
        leaves.sort_unstable();
        leaves.dedup();
        assert!(leaves.len() >= 12, "the rules have matched leaves");

        let mut v = IncrementalValidator::new(g, sigma.into_iter().map(Rule::from).collect());
        for &node in &leaves {
            let population = v.graph().nodes_with_label(v.graph().label(node)).len() as u64;
            assert!(population > 400, "a scan would be unmistakable");
            // Stay inside the value range, so premises keep firing.
            let next = match v.graph().attr(node, sym("attr0")) {
                Some(Value::Int(old)) => (old + 1) % cfg.value_range,
                _ => 0,
            };
            let before = v.metrics();
            let stats = v.apply(&Delta::SetAttr {
                node,
                attr: sym("attr0"),
                value: Value::from(next),
            });
            assert_eq!(stats.touched_nodes, 1);
            let after = v.metrics();
            // Rule 0 is the disconnected key: it has no edge to follow
            // (and no `entity` node is written here).
            for (b, a) in before.rules.iter().zip(&after.rules).skip(1) {
                let attempts = a.match_attempts - b.match_attempts;
                assert!(
                    attempts < population,
                    "{}: {attempts} candidates for one write to {node:?}, \
                     whose label has {population} nodes",
                    a.name
                );
            }
        }
    }

    /// A graph key is two copies of a pattern joined only by `x.key =
    /// y.key`: the second copy has no edge to follow, and its candidates
    /// are the value-index bucket of the written key, not the label's
    /// population. A count, so it holds on any host: the two anchorings of
    /// one key write cost a seed plus a bucket each.
    #[test]
    fn a_key_flip_costs_its_bucket_not_its_label() {
        use ged_datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
        let cfg = RandomGraphConfig {
            n_nodes: 2400,
            n_edges: 7200,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let key = plant_key_violations(&mut g, "entity", 200);
        let entities = g.nodes_with_label(sym("entity")).to_vec();
        assert_eq!(entities.len(), 400, "a scan would be unmistakable");
        let mut v = IncrementalValidator::new(g, vec![key.into()]);
        assert_eq!(v.violation_count(), 400, "200 planted pairs, both orders");
        let probe = v
            .graph()
            .probe_attr(sym("entity"), sym("key"), &"dup7".into());
        assert_eq!(probe.expect("the key rule's pair is indexed").count(), 2);

        // One write each: to a fresh key (bucket of one), into a planted
        // pair's key (bucket of three), and back out again.
        let flip = |v: &mut IncrementalValidator, node: NodeId, value: &str| {
            let before = v.metrics().rules[0].match_attempts;
            let stats = v.apply(&Delta::SetAttr {
                node,
                attr: sym("key"),
                value: value.into(),
            });
            assert_eq!(stats.touched_nodes, 1);
            let attempts = v.metrics().rules[0].match_attempts - before;
            assert!(
                attempts <= 8,
                "{attempts} candidates for one key write among 400 entities"
            );
            assert_consistent(v);
        };
        flip(&mut v, entities[0], "fresh");
        assert_eq!(v.violation_count(), 398);
        flip(&mut v, entities[0], "dup7");
        assert_eq!(
            v.violation_count(),
            402,
            "a bucket of three: six ordered pairs"
        );
        flip(&mut v, entities[0], "dup0");
        assert_eq!(v.violation_count(), 400);

        // A clone owns its copy of the index: after the two diverge, each
        // probes its own graph.
        let mut fork = v.clone();
        flip(&mut v, entities[2], "dup0");
        flip(&mut fork, entities[2], "dup9");
        flip(&mut fork, entities[3], "dup8");
        assert_eq!(v.violation_count(), 402, "three nodes share dup0");
        assert_eq!(fork.violation_count(), 406, "three share dup8, three dup9");
        for twin in [&v, &fork] {
            twin.graph().assert_index_consistent();
        }
    }

    /// Disabling metrics freezes the registry: the delta path runs with
    /// the no-op recorder and records nothing, and re-enabling resumes
    /// (histograms only ever grow).
    #[test]
    fn disabled_metrics_record_nothing_and_resume_on_reenable() {
        let mut v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        v.set_metrics_enabled(false);
        let frozen = v.metrics();
        let a = v.graph().nodes().next().unwrap();
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(7),
        });
        let m = v.metrics();
        assert!(!m.enabled);
        assert_eq!(m.batches, frozen.batches, "no batch recorded while off");
        assert_eq!(m.match_attempts(), frozen.match_attempts());
        assert!(m.trace.is_empty());

        v.set_metrics_enabled(true);
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(1),
        });
        let m = v.metrics();
        assert_eq!(m.batches, frozen.batches + 1);
        assert!(m.match_attempts() > frozen.match_attempts());
    }

    /// A cloned validator gets an independent copy of the registry:
    /// tallies diverge after the clone, starting from the same values.
    #[test]
    fn cloned_validator_does_not_share_metrics() {
        let mut original = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        let clone = original.clone();
        assert_eq!(clone.metrics().batches, original.metrics().batches);
        let a = original.graph().nodes().next().unwrap();
        original.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(3),
        });
        assert_eq!(original.metrics().batches, 1);
        assert_eq!(clone.metrics().batches, 0, "the clone saw no batch");
    }

    #[test]
    fn apply_stats_display_is_a_one_line_summary() {
        let stats = ApplyStats {
            deltas_applied: 3,
            violations_removed: 1,
            violations_added: 2,
            violations_retained: 4,
            touched_nodes: 5,
            created: vec![NodeId(9)],
        };
        assert_eq!(
            stats.to_string(),
            "applied 3 delta(s): +2/−1 witness(es), 4 retained, 5 node(s) touched, 1 created"
        );
        assert!(!stats.to_string().contains('\n'));
    }

    /// The view handle is `Send + Sync` and every query surface of the
    /// validator reachable from a query path takes `&self` — the
    /// compile-time half of the read-path symmetry audit (DESIGN.md §9).
    #[test]
    fn read_views_are_send_sync_and_queries_take_shared_refs() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::view::ReadView>();
        assert_send_sync::<crate::view::ViolationSnapshot>();
        // Every logically-read-only accessor works through a shared
        // reference (this fails to compile if one regresses to &mut).
        let v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        let shared: &IncrementalValidator = &v;
        let _ = shared.graph();
        let _ = shared.sigma();
        let _ = shared.store();
        let _ = shared.is_satisfied();
        let _ = shared.violation_count();
        let _ = shared.report();
        let _ = shared.metrics();
        let _ = shared.metrics_enabled();
        let _ = shared.analysis();
        let _ = shared.read_view();
    }

    /// A read view answers against the published batch boundary: the
    /// seeded state at epoch 0, then exactly one epoch per maintained
    /// batch, with the same report the writer-side surface produces.
    #[test]
    fn read_view_tracks_batch_boundaries() {
        let mut v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        let view = v.read_view();
        assert_eq!(view.epoch(), 0, "construction publishes epoch 0");
        assert_eq!(view.snapshot().violation_count(), 2);
        assert_eq!(
            canon_report(&view.snapshot().to_report()),
            canon_report(&v.report()),
            "view equals the writer surface at the boundary"
        );

        // Pin the pre-batch snapshot, then write.
        let pinned = view.snapshot();
        let b = v.graph().nodes().nth(1).unwrap();
        v.apply(&Delta::RemoveNode { node: b });
        assert_eq!(view.epoch(), 1, "one publish per maintained batch");
        assert!(view.snapshot().is_satisfied());
        assert_eq!(
            pinned.epoch(),
            0,
            "a held snapshot stays pinned to its boundary"
        );
        assert_eq!(pinned.violation_count(), 2);

        // A no-op batch publishes nothing: the state did not change.
        let a = v.graph().nodes().next().unwrap();
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(1),
        });
        assert_eq!(view.epoch(), 1, "no-op deltas publish no new epoch");
        assert_consistent(&v);
    }

    /// The double buffer reclaims the old front when nothing pins it and
    /// falls back to an O(store) rebuild when a reader snapshot does —
    /// both paths must produce the exact writer-side state.
    #[test]
    fn publish_is_correct_with_and_without_pinned_snapshots() {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..6).map(|_| g.add_node(sym("t"))).collect();
        let mut v = IncrementalValidator::new(g, vec![key_rule()]);
        let view = v.read_view();
        let mut pinned = Vec::new();
        for (step, &n) in nodes.iter().enumerate() {
            // Every other batch holds the current snapshot across the
            // apply, forcing the try_unwrap reclaim to fail.
            if step % 2 == 0 {
                pinned.push(view.snapshot());
            }
            v.apply(&Delta::SetAttr {
                node: n,
                attr: sym("k"),
                value: Value::from(7),
            });
            let snap = view.snapshot();
            assert_eq!(snap.epoch(), (step + 1) as u64);
            assert_eq!(
                snap.violation_count(),
                v.violation_count(),
                "published snapshot equals the writer store at step {step}"
            );
            let report = snap.to_report();
            assert_eq!(
                canon_report(&report),
                canon_report(&v.report()),
                "step {step}"
            );
        }
        // Pinned snapshots kept their boundary state: epoch k saw the
        // store after k batches — k keyed dupes, k(k−1) witnesses.
        for snap in &pinned {
            let k = snap.epoch() as usize;
            assert_eq!(snap.violation_count(), k * (k.max(1) - 1));
        }
        assert_consistent(&v);
    }

    /// Every validator publishes from construction: k store-changing
    /// batches run before any view exists move the published epoch, its
    /// gauge and the publish samples to k, and a view taken afterwards
    /// reads epoch k with the current witnesses.
    #[test]
    fn views_taken_mid_stream_read_the_current_epoch() {
        let mut v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        let a = v.graph().nodes().next().unwrap();
        let k = 3;
        for value in 1..=k {
            v.apply(&Delta::SetAttr {
                node: a,
                attr: sym("note"),
                value: Value::from(value),
            });
        }
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("note"),
            value: Value::from(k),
        });
        assert_eq!(
            v.published_epoch(),
            k as u64,
            "a no-op batch publishes nothing"
        );
        let m = v.metrics();
        assert_eq!(m.published_epoch, k as u64);
        assert_eq!(m.phase(Phase::SnapshotPublish).unwrap().count, k as u64);
        assert_eq!(m.read_views, 0);

        let view = v.read_view();
        let snap = view.snapshot();
        assert_eq!(
            snap.epoch(),
            k as u64,
            "a late view reads the current epoch"
        );
        assert_eq!(canon_report(&snap.to_report()), canon_report(&v.report()));
        v.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(9),
        });
        let m = v.metrics();
        assert_eq!(m.phase(Phase::SnapshotPublish).unwrap().count, k as u64 + 1);
        assert_eq!(
            (view.epoch(), m.published_epoch),
            (k as u64 + 1, k as u64 + 1)
        );
        assert!(view.snapshot().is_satisfied());
        assert_eq!(
            snap.violation_count(),
            2,
            "the held snapshot stays at epoch k"
        );
    }

    /// The `read_views` gauge mirrors live handles through clone and
    /// drop, and the view's `metrics()` reads the writer's registry.
    #[test]
    fn read_view_gauge_tracks_clones_and_drops() {
        let v = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        assert_eq!(v.metrics().read_views, 0);
        let view = v.read_view();
        assert_eq!(v.metrics().read_views, 1);
        let extra = view.clone();
        assert_eq!(v.metrics().read_views, 2);
        assert_eq!(
            extra.metrics().read_views,
            2,
            "views read the writer's registry"
        );
        drop(view);
        assert_eq!(v.metrics().read_views, 1);
        // Clones and drops racing on four readers: the gauge is the count
        // itself, so there is no second copy to fall behind it.
        let burst = |_| {
            let view = extra.clone();
            // Fifty clones a reader, each dropping the one before it.
            std::thread::spawn(move || (0..50).fold(view.clone(), |_, _| view.clone()))
        };
        let racers: Vec<_> = (0..4).map(burst).collect();
        let kept: Vec<ReadView> = racers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(v.metrics().read_views, extra.readers());
        assert_eq!(extra.readers(), 1 + kept.len() as u64);
        drop(kept);
        drop(extra);
        assert_eq!(v.metrics().read_views, 0);
        // The snapshot renders the new gauges both ways.
        let m = v.metrics();
        assert!(m.to_string().contains("read views: 0 live"));
        assert_eq!(m.to_json().get_u64("read_views"), Some(0));
        assert_eq!(m.to_json().get_u64("published_epoch"), Some(0));
    }

    /// A cloned validator starts its own view set, whose epoch 0 is the
    /// state at the clone: views of the original keep reading the
    /// original, and neither side's batches move the other's views.
    #[test]
    fn cloned_validator_does_not_share_views() {
        let mut original = IncrementalValidator::new(two_dupes(), vec![key_rule()]);
        let view = original.read_view();
        let a = original.graph().nodes().next().unwrap();
        let note = |value: i64| Delta::SetAttr {
            node: a,
            attr: sym("note"),
            value: Value::from(value),
        };
        original.apply(&note(1));
        assert_eq!(original.published_epoch(), 1);

        let mut clone = original.clone();
        assert_eq!(clone.metrics().read_views, 0, "fresh gauge on the clone");
        assert_eq!(
            clone.published_epoch(),
            0,
            "the clone starts at its own epoch 0"
        );
        let forked = clone.read_view();
        let snap = forked.snapshot();
        assert_eq!((snap.epoch(), snap.violation_count()), (0, 2));
        assert_eq!(
            canon_report(&snap.to_report()),
            canon_report(&clone.report())
        );

        clone.apply(&Delta::SetAttr {
            node: a,
            attr: sym("k"),
            value: Value::from(9),
        });
        clone.apply(&note(2));
        assert_eq!((forked.epoch(), clone.published_epoch()), (2, 2));
        assert!(forked.snapshot().is_satisfied());
        assert_eq!(view.epoch(), 1, "the clone's batches publish elsewhere");
        assert_eq!(view.snapshot().violation_count(), 2);
        assert_eq!(original.published_epoch(), 1);

        original.apply(&note(3));
        assert_eq!((view.epoch(), forked.epoch()), (2, 2));
        assert_eq!(
            forked.snapshot().violation_count(),
            0,
            "the original's batch stays there"
        );
        assert_eq!(original.metrics().read_views, 1);
    }

    /// Empty-pattern constraints are checked inline (their single empty
    /// match has no variable to anchor) beside the anchored rules, and a
    /// rule whose pivot has no candidate runs no unit: the seeded report
    /// equals `validate` row by row, in Σ order, sorted by match.
    #[test]
    fn seeding_handles_empty_pattern_rules() {
        use ged_core::rule::Rule;
        use ged_ext::disj;
        use ged_pattern::Pattern;
        let trivial = Ged::new("trivial", Pattern::new(), vec![], vec![]);
        // An empty disjunction is `false`: the one empty match violates.
        let forbids = disj::new("∅ forbids", Pattern::new(), vec![], vec![]);
        let absent = parse_pattern("absent(x)").unwrap();
        let nobody = disj::new("nobody", absent, vec![], vec![]);
        let sigma: Vec<Rule> = vec![trivial.into(), key_rule(), forbids, nobody];
        let full = ged_core::reason::validate(&two_dupes(), &sigma, None);
        let v = IncrementalValidator::new(two_dupes(), sigma);
        assert_eq!(v.violation_count(), 3, "two key witnesses and the ∅ rule's");
        assert_consistent(&v);
        let report = v.report();
        let rows = |r: &ValidationReport| -> Vec<(String, usize, bool)> {
            r.per_ged
                .iter()
                .map(|row| (row.name.clone(), row.violation_count, row.satisfied))
                .collect()
        };
        assert_eq!(rows(&report), rows(&full));
        let rule_of = |v: &Violation| report.per_ged.iter().position(|r| r.name == v.ged_name);
        let key = |v: &Violation| (rule_of(v), v.assignment.clone());
        let ordered = report
            .violations
            .windows(2)
            .all(|w| key(&w[0]) < key(&w[1]));
        assert!(ordered, "Σ order, then sorted by match");
        // The two empty patterns and the key rule ran one unit each.
        let m = v.metrics();
        assert_eq!(m.unit_latency.count, 3);
        let tally = |i: usize| (m.rules[i].matches_found, m.rules[i].violations_found);
        assert_eq!([tally(0), tally(2), tally(3)], [(1, 0), (1, 1), (0, 0)]);
    }

    /// Work units lap one clock: each starts where the one before it
    /// ended, so on a multi-rule Σ the rules' `reenum_ns` advance by
    /// exactly the batch's `anchored-reenumerate` sample, and the unit
    /// histogram's total is the seeding and re-enumeration time of every
    /// rule, to the nanosecond.
    #[test]
    fn unit_times_sum_to_their_phase() {
        let (g, sigma) = ged_datagen::random::evolving_workload(300, 3, 3, 5);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut v = IncrementalValidator::new(g, sigma.into_iter().map(Rule::from).collect());
        let sums = |m: &MetricsSnapshot| {
            let reenum: u64 = m.rules.iter().map(|r| r.reenum_ns).sum();
            let seed: u64 = m.rules.iter().map(|r| r.seed_ns).sum();
            assert_eq!(m.unit_latency.sum_ns, seed + reenum, "units = Σ rule time");
            (reenum, m.phase(Phase::Reenumerate).unwrap().sum_ns)
        };
        let mut before = sums(&v.metrics());
        for i in 0..12 {
            let batch: DeltaSet = (0..8)
                .map(|j| Delta::SetAttr {
                    node: nodes[(i * 41 + j * 13) % nodes.len()],
                    attr: sym("key"),
                    value: Value::from(format!("k{}", (i + j) % 5)),
                })
                .collect();
            v.apply_all(&batch);
            let after = sums(&v.metrics());
            assert_eq!(after.0 - before.0, after.1 - before.1, "batch {i}");
            before = after;
        }
        assert!(before.0 > 0, "the batches ran units");
        assert_eq!(v.metrics().rules.len(), 4);
    }

    /// The validator's one batch tally is zeroed by every fold: the same
    /// batch, applied three times, re-enumerates the same matches each
    /// time (it rewrites `note`, which only `noted` reads), so every rule's
    /// attempts and the unit count advance by the same amount per batch —
    /// `noted`'s by the same positive amount, the key rule's by none.
    #[test]
    fn every_batch_tallies_only_its_own_units() {
        let mut g = Graph::new();
        for _ in 0..3 {
            let n = g.add_node(sym("t"));
            g.set_attr(n, sym("k"), 1);
        }
        let nodes: Vec<NodeId> = g.nodes().collect();
        let q = parse_pattern("t(x)").unwrap();
        let noted = Ged::new(
            "noted",
            q,
            vec![],
            vec![Literal::constant(Var(0), sym("note"), 0)],
        );
        let mut v = IncrementalValidator::new(g, vec![key_rule(), noted.into()]);
        let mut batch = DeltaSet::new();
        for &node in &nodes {
            for value in [1, 2] {
                let (attr, value) = (sym("note"), Value::from(value));
                batch.push(Delta::SetAttr { node, attr, value });
            }
        }
        let tallies = |m: &MetricsSnapshot| {
            let attempts = m.rules.iter().map(|r| r.match_attempts);
            (attempts.collect::<Vec<_>>(), m.unit_latency.count)
        };
        let mut before = tallies(&v.metrics());
        let mut steps = Vec::new();
        for _ in 0..3 {
            assert_eq!(v.apply_all(&batch).deltas_applied, 2 * nodes.len());
            let after = tallies(&v.metrics());
            let attempts = after.0.iter().zip(&before.0).map(|(a, b)| a - b);
            steps.push((attempts.collect::<Vec<_>>(), after.1 - before.1));
            before = after;
        }
        assert_eq!(steps[0].0[0], 0, "the key rule reads no `note`: {steps:?}");
        assert!(steps[0].0[1] > 0, "{steps:?}");
        assert_eq!(steps[0], steps[1], "{steps:?}");
        assert_eq!(steps[1], steps[2], "{steps:?}");
    }
}
