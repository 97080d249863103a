//! Engine-wide metrics: phase timers, per-rule cost attribution, and the
//! batch trace ring — the observability layer of the incremental
//! validator (DESIGN.md §6).
//!
//! One [`EngineMetrics`] registry lives inside each
//! [`IncrementalValidator`](crate::IncrementalValidator). It is built on
//! the lock-free primitives of `ged-obs` and follows a two-tier write
//! discipline:
//!
//! * **per-batch quantities** (phase latencies, witness churn, store
//!   size) are recorded by the writer — a handful of relaxed atomic
//!   writes per apply batch;
//! * **per-unit quantities** (attempts, matches found, unit latency) are
//!   tallied into the validator's one plain-`u64` shard and folded into
//!   the registry once per pass, so the matcher hot loop never touches an
//!   atomic.
//!
//! The whole layer is gated on one flag: when metrics are disabled the
//! enumeration paths monomorphize with the no-op recorder and no clock is
//! read — the delta path is the uninstrumented engine. The remaining
//! enabled-path cost is fixed per apply batch (phase-timer clock reads,
//! `record_batch`'s relaxed adds, the trace push); `tests/perf_bars.rs`
//! asserts it stays within 5% of the uninstrumented batched delta path
//! (release builds) and prints the fixed per-batch nanoseconds.

use crate::store::ViolationStore;
use crate::validator::ApplyStats;
use crate::view::SharedViews;
use ged_core::constraint::Constraint;
use ged_graph::json::Json;
use ged_obs::{fmt_ns, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, TraceRing};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// How many apply batches the trace ring retains.
const TRACE_CAPACITY: usize = 64;

/// The validator's pipeline stages, as timed by the phase histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The construction-time seeding full pass (one sample per validator).
    Seeding,
    /// Applying the deltas of a batch to the graph.
    DeltaApply,
    /// Dropping stored witnesses that intersect the touched set.
    WitnessDrop,
    /// Materialising the affected area: building the anchored seed lists.
    Materialize,
    /// Exclusion-aware anchored re-enumeration of the affected matches.
    Reenumerate,
    /// Inserting re-derived witnesses into the store.
    StoreInsert,
    /// Publishing the batch-boundary snapshot for the read views
    /// (changelog replay + epoch swap; only timed while views are
    /// active).
    SnapshotPublish,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 7] = [
        Phase::Seeding,
        Phase::DeltaApply,
        Phase::WitnessDrop,
        Phase::Materialize,
        Phase::Reenumerate,
        Phase::StoreInsert,
        Phase::SnapshotPublish,
    ];

    /// Stable snake-ish name used by `Display` and the JSON serialisation.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Seeding => "seeding",
            Phase::DeltaApply => "delta-apply",
            Phase::WitnessDrop => "witness-drop",
            Phase::Materialize => "affected-materialize",
            Phase::Reenumerate => "anchored-reenumerate",
            Phase::StoreInsert => "store-insert",
            Phase::SnapshotPublish => "snapshot-publish",
        }
    }

    fn idx(self) -> usize {
        match self {
            Phase::Seeding => 0,
            Phase::DeltaApply => 1,
            Phase::WitnessDrop => 2,
            Phase::Materialize => 3,
            Phase::Reenumerate => 4,
            Phase::StoreInsert => 5,
            Phase::SnapshotPublish => 6,
        }
    }
}

/// Per-rule attribution counters: match attempts/found and nanoseconds
/// split by the phase that spent them.
#[derive(Debug, Clone)]
struct RuleMetrics {
    name: String,
    attempts: Counter,
    prefilter_rejects: Counter,
    found: Counter,
    violations: Counter,
    seed_ns: Counter,
    reenum_ns: Counter,
}

/// The validator's unsynchronized tally shard: per-rule plain-`u64`
/// counters plus a local latency histogram of the units a pass ran. Built
/// once per validator and filled by every pass — the seeding pass, then
/// each batch's re-enumeration — then folded into the registry and
/// zeroed by [`EngineMetrics::merge_pass`] when the pass is over.
#[derive(Debug)]
pub(crate) struct WorkerShard {
    /// Mirrors the registry's enabled flag, re-read at each pass start;
    /// a pass skips all clock reads and tallies when false.
    pub(crate) enabled: bool,
    rules: Vec<LocalRule>,
    unit_latency: LocalHistogram,
}

#[derive(Debug, Clone, Default)]
struct LocalRule {
    attempts: u64,
    prefilter_rejects: u64,
    found: u64,
    violations: u64,
    ns: u64,
}

impl WorkerShard {
    /// An empty, enabled shard for a Σ of `n_rules` rules.
    pub(crate) fn new(n_rules: usize) -> WorkerShard {
        WorkerShard {
            enabled: true,
            rules: vec![LocalRule::default(); n_rules],
            unit_latency: LocalHistogram::new(),
        }
    }

    /// Tally one finished work unit of rule `ci`.
    pub(crate) fn add_unit(
        &mut self,
        ci: usize,
        attempts: u64,
        prefilter_rejects: u64,
        found: u64,
        violations: u64,
        ns: u64,
    ) {
        debug_assert!(self.enabled, "shards of a disabled pass stay empty");
        let r = &mut self.rules[ci];
        r.attempts += attempts;
        r.prefilter_rejects += prefilter_rejects;
        r.found += found;
        r.violations += violations;
        r.ns += ns;
        self.unit_latency.record_ns(ns);
    }
}

/// The engine's metrics registry: enabled flag, batch counters, phase
/// latency histograms, per-rule attribution, and the batch trace ring.
///
/// All reads go through one aggregate; the validator owns the registry
/// and exposes the snapshot via
/// [`IncrementalValidator::metrics`](crate::IncrementalValidator::metrics).
/// Cloning copies the current values into an independent registry, so a
/// cloned validator does not share tallies with its original.
#[derive(Debug)]
pub struct EngineMetrics {
    enabled: AtomicBool,
    batches: Counter,
    deltas_applied: Counter,
    touched_nodes: Counter,
    witnesses_dropped: Counter,
    witnesses_removed: Counter,
    witnesses_added: Counter,
    witnesses_retained: Counter,
    store_size: Gauge,
    store_slab_slots: Gauge,
    phases: [Histogram; 7],
    unit_latency: Histogram,
    rules: Vec<RuleMetrics>,
    trace: TraceRing<ApplyStats>,
}

impl EngineMetrics {
    /// A fresh registry for the rule set Σ, enabled by default.
    pub(crate) fn for_sigma<C: Constraint>(sigma: &[C]) -> EngineMetrics {
        EngineMetrics {
            enabled: AtomicBool::new(true),
            batches: Counter::new(),
            deltas_applied: Counter::new(),
            touched_nodes: Counter::new(),
            witnesses_dropped: Counter::new(),
            witnesses_removed: Counter::new(),
            witnesses_added: Counter::new(),
            witnesses_retained: Counter::new(),
            store_size: Gauge::new(),
            store_slab_slots: Gauge::new(),
            phases: Default::default(),
            unit_latency: Histogram::new(),
            rules: sigma
                .iter()
                .map(|c| RuleMetrics {
                    name: c.name().to_string(),
                    attempts: Counter::new(),
                    prefilter_rejects: Counter::new(),
                    found: Counter::new(),
                    violations: Counter::new(),
                    seed_ns: Counter::new(),
                    reenum_ns: Counter::new(),
                })
                .collect(),
            trace: TraceRing::new(TRACE_CAPACITY),
        }
    }

    /// Is instrumentation on?
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start a phase timer — `None` when disabled, so the disabled path
    /// never reads the clock.
    pub(crate) fn start(&self) -> Option<Instant> {
        self.is_enabled().then(Instant::now)
    }

    /// Close a phase timer opened by [`EngineMetrics::start`].
    pub(crate) fn finish(&self, phase: Phase, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.phases[phase.idx()].record(t0.elapsed());
        }
    }

    /// Close `phase` and hand the same clock reading back as the start of
    /// the next phase — adjacent regions share one `Instant::now` instead
    /// of paying a close/open pair, which matters on sub-microsecond
    /// batches (the overhead budget `tests/perf_bars.rs` asserts).
    pub(crate) fn lap(&self, phase: Phase, t0: Option<Instant>) -> Option<Instant> {
        t0.map(|t0| {
            let now = Instant::now();
            self.phases[phase.idx()].record(now.duration_since(t0));
            now
        })
    }

    /// Fold the shard's tallies for one pass into the registry,
    /// attributing the time to `phase` (seeding or re-enumeration), and
    /// zero them for the next pass.
    pub(crate) fn merge_pass(&self, shard: &mut WorkerShard, phase: Phase) {
        if !shard.enabled {
            return;
        }
        for (rule, local) in self.rules.iter().zip(&mut shard.rules) {
            if local.attempts == 0 && local.found == 0 && local.ns == 0 {
                continue;
            }
            rule.attempts.add(local.attempts);
            rule.prefilter_rejects.add(local.prefilter_rejects);
            rule.found.add(local.found);
            rule.violations.add(local.violations);
            match phase {
                Phase::Seeding => rule.seed_ns.add(local.ns),
                _ => rule.reenum_ns.add(local.ns),
            }
            *local = LocalRule::default();
        }
        self.unit_latency
            .merge_local(&std::mem::take(&mut shard.unit_latency));
    }

    /// Record the once-per-batch quantities: churn counters, store
    /// gauges, and the trace-ring event.
    pub(crate) fn record_batch(&self, stats: &ApplyStats, dropped: usize, store: &ViolationStore) {
        if !self.is_enabled() {
            return;
        }
        self.batches.inc();
        self.deltas_applied.add(stats.deltas_applied as u64);
        self.touched_nodes.add(stats.touched_nodes as u64);
        self.witnesses_dropped.add(dropped as u64);
        self.witnesses_removed.add(stats.violations_removed as u64);
        self.witnesses_added.add(stats.violations_added as u64);
        self.witnesses_retained
            .add(stats.violations_retained as u64);
        self.note_store(store);
        self.trace.push(stats.clone());
    }

    /// Refresh the store-level gauges.
    pub(crate) fn note_store(&self, store: &ViolationStore) {
        if !self.is_enabled() {
            return;
        }
        self.store_size.set(store.total() as u64);
        self.store_slab_slots.set(store.slab_len() as u64);
    }

    /// The retained batch trace, oldest first, as `(batch id, stats)`.
    pub fn trace(&self) -> Vec<(u64, ApplyStats)> {
        self.trace.recent()
    }

    /// An RAII guard that dumps the batch trace to stderr if the scope
    /// unwinds — the "last N batches on panic" story of the trace ring.
    pub(crate) fn dump_trace_on_panic(&self) -> TraceDumpOnPanic<'_> {
        TraceDumpOnPanic(self)
    }

    /// Aggregate the registry into an immutable [`MetricsSnapshot`]. The
    /// reader count and the published epoch are read where they live, in
    /// the validator's `views`: a mirrored gauge could drift from them.
    pub(crate) fn snapshot(&self, views: &SharedViews) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: self.is_enabled(),
            batches: self.batches.get(),
            deltas_applied: self.deltas_applied.get(),
            touched_nodes: self.touched_nodes.get(),
            witnesses_dropped: self.witnesses_dropped.get(),
            witnesses_removed: self.witnesses_removed.get(),
            witnesses_added: self.witnesses_added.get(),
            witnesses_retained: self.witnesses_retained.get(),
            store_size: self.store_size.get(),
            store_slab_slots: self.store_slab_slots.get(),
            read_views: views.readers(),
            published_epoch: views.epoch(),
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseSnapshot {
                    phase: p,
                    latency: self.phases[p.idx()].snapshot(),
                })
                .collect(),
            unit_latency: self.unit_latency.snapshot(),
            rules: self
                .rules
                .iter()
                .map(|r| RuleSnapshot {
                    name: r.name.clone(),
                    match_attempts: r.attempts.get(),
                    prefilter_rejects: r.prefilter_rejects.get(),
                    matches_found: r.found.get(),
                    violations_found: r.violations.get(),
                    seed_ns: r.seed_ns.get(),
                    reenum_ns: r.reenum_ns.get(),
                })
                .collect(),
            trace: self.trace.recent(),
        }
    }
}

impl Clone for EngineMetrics {
    fn clone(&self) -> EngineMetrics {
        EngineMetrics {
            enabled: AtomicBool::new(self.is_enabled()),
            batches: self.batches.clone(),
            deltas_applied: self.deltas_applied.clone(),
            touched_nodes: self.touched_nodes.clone(),
            witnesses_dropped: self.witnesses_dropped.clone(),
            witnesses_removed: self.witnesses_removed.clone(),
            witnesses_added: self.witnesses_added.clone(),
            witnesses_retained: self.witnesses_retained.clone(),
            store_size: self.store_size.clone(),
            store_slab_slots: self.store_slab_slots.clone(),
            phases: self.phases.clone(),
            unit_latency: self.unit_latency.clone(),
            rules: self.rules.clone(),
            trace: self.trace.clone(),
        }
    }
}

/// Dumps the batch trace to stderr if dropped while panicking; see
/// [`EngineMetrics::dump_trace_on_panic`].
pub(crate) struct TraceDumpOnPanic<'a>(&'a EngineMetrics);

impl Drop for TraceDumpOnPanic<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let recent = self.0.trace.recent();
        eprintln!(
            "engine panic: last {} of {} apply batch(es):",
            recent.len(),
            self.0.trace.total_pushed()
        );
        for (seq, stats) in recent {
            eprintln!("  batch {seq}: {stats}");
        }
    }
}

/// One phase's latency distribution in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct PhaseSnapshot {
    /// Which pipeline stage.
    pub phase: Phase,
    /// Its latency histogram (one sample per timed region).
    pub latency: HistogramSnapshot,
}

/// One rule's cost attribution in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct RuleSnapshot {
    /// The constraint's name.
    pub name: String,
    /// Candidate nodes the matcher considered for this rule.
    pub match_attempts: u64,
    /// Candidates the matcher's pre-filters (labeled degree, constant
    /// premise, equality-premise join) refused before recursion — a subset of [`match_attempts`], so the ratio is
    /// the fraction of the candidate stream the filters killed.
    ///
    /// [`match_attempts`]: RuleSnapshot::match_attempts
    pub prefilter_rejects: u64,
    /// Complete matches enumerated for this rule.
    pub matches_found: u64,
    /// Violating matches found (seeding and re-enumeration combined).
    pub violations_found: u64,
    /// Nanoseconds spent enumerating this rule during seeding.
    pub seed_ns: u64,
    /// Nanoseconds spent re-enumerating this rule on the delta path.
    pub reenum_ns: u64,
}

/// An immutable aggregate of the engine's metrics registry: what
/// [`IncrementalValidator::metrics`](crate::IncrementalValidator::metrics)
/// returns. Human-readable via `Display`, machine-readable via
/// [`MetricsSnapshot::to_json`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Was instrumentation enabled when the snapshot was taken?
    pub enabled: bool,
    /// Apply batches maintained since construction.
    pub batches: u64,
    /// Graph-changing deltas applied (no-ops excluded).
    pub deltas_applied: u64,
    /// Live touched nodes that seeded re-enumeration, summed over batches.
    pub touched_nodes: u64,
    /// Witnesses dropped for recheck by the affected-area prune.
    pub witnesses_dropped: u64,
    /// Witnesses removed (dropped and not re-derived).
    pub witnesses_removed: u64,
    /// Witnesses added (new violations).
    pub witnesses_added: u64,
    /// Witnesses retained (dropped and re-derived unchanged).
    pub witnesses_retained: u64,
    /// Current store total (gauge).
    pub store_size: u64,
    /// Current store slab length, live + free slots (gauge).
    pub store_slab_slots: u64,
    /// Live [`ReadView`](crate::ReadView) handles right now (gauge).
    pub read_views: u64,
    /// Epoch of the most recently published read-view snapshot — the
    /// number of batches published since view activation (gauge; 0 while
    /// no view was ever created).
    pub published_epoch: u64,
    /// Latency distribution per pipeline phase, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// Latency distribution of individual work units (seeding and delta
    /// path alike).
    pub unit_latency: HistogramSnapshot,
    /// Per-rule cost attribution, in Σ order.
    pub rules: Vec<RuleSnapshot>,
    /// The retained batch trace, oldest first, as `(batch id, stats)`.
    pub trace: Vec<(u64, ApplyStats)>,
}

impl MetricsSnapshot {
    /// Total matcher candidate attempts across all rules.
    pub fn match_attempts(&self) -> u64 {
        self.rules.iter().map(|r| r.match_attempts).sum()
    }

    /// Total complete matches enumerated across all rules.
    pub fn matches_found(&self) -> u64 {
        self.rules.iter().map(|r| r.matches_found).sum()
    }

    /// Total candidates killed by the matcher's pre-filters across all
    /// rules (a subset of [`MetricsSnapshot::match_attempts`]).
    pub fn prefilter_rejects(&self) -> u64 {
        self.rules.iter().map(|r| r.prefilter_rejects).sum()
    }

    /// The snapshot's latency histogram for `phase`, if timed.
    pub fn phase(&self, phase: Phase) -> Option<&HistogramSnapshot> {
        self.phases
            .iter()
            .find(|p| p.phase == phase)
            .map(|p| &p.latency)
    }

    /// The snapshot as a [`Json`] document for collectors: stable key
    /// order, every counter an `Int`. `Display` on the result is the
    /// one-line text; the daemon embeds the value in its `metrics` reply
    /// as is.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("enabled", Json::Bool(self.enabled)),
            ("batches", self.batches.into()),
            ("deltas_applied", self.deltas_applied.into()),
            ("touched_nodes", self.touched_nodes.into()),
            (
                "witnesses",
                Json::obj(vec![
                    ("dropped", self.witnesses_dropped.into()),
                    ("removed", self.witnesses_removed.into()),
                    ("added", self.witnesses_added.into()),
                    ("retained", self.witnesses_retained.into()),
                ]),
            ),
            ("store_size", self.store_size.into()),
            ("store_slab_slots", self.store_slab_slots.into()),
            ("read_views", self.read_views.into()),
            ("published_epoch", self.published_epoch.into()),
            ("match_attempts", self.match_attempts().into()),
            ("matches_found", self.matches_found().into()),
            (
                "phases",
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            let mut row = vec![("phase", Json::from(p.phase.name()))];
                            row.extend(latency_fields(&p.latency));
                            Json::obj(row)
                        })
                        .collect(),
                ),
            ),
            (
                "unit_latency",
                Json::obj(latency_fields(&self.unit_latency)),
            ),
            (
                "rules",
                Json::Arr(
                    self.rules
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("name", Json::from(r.name.as_str())),
                                ("match_attempts", r.match_attempts.into()),
                                ("prefilter_rejects", r.prefilter_rejects.into()),
                                ("matches_found", r.matches_found.into()),
                                ("violations_found", r.violations_found.into()),
                                ("seed_ns", r.seed_ns.into()),
                                ("reenum_ns", r.reenum_ns.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "trace",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|(seq, st)| {
                            Json::obj(vec![
                                ("batch", (*seq).into()),
                                ("deltas_applied", st.deltas_applied.into()),
                                ("removed", st.violations_removed.into()),
                                ("added", st.violations_added.into()),
                                ("retained", st.violations_retained.into()),
                                ("touched_nodes", st.touched_nodes.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The fields every latency histogram serialises to.
fn latency_fields(h: &HistogramSnapshot) -> Vec<(&'static str, Json)> {
    vec![
        ("count", h.count.into()),
        ("sum_ns", h.sum_ns.into()),
        ("max_ns", h.max_ns.into()),
        ("p50_ns", h.p50_ns().into()),
        ("p95_ns", h.p95_ns().into()),
        ("p99_ns", h.p99_ns().into()),
    ]
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "metrics [{}]: {} batch(es), {} delta(s), store={} ({} slab slot(s))",
            if self.enabled { "enabled" } else { "disabled" },
            self.batches,
            self.deltas_applied,
            self.store_size,
            self.store_slab_slots
        )?;
        writeln!(
            f,
            "  read views: {} live, published epoch {}",
            self.read_views, self.published_epoch
        )?;
        writeln!(
            f,
            "  witnesses: +{} −{} ({} retained); {} dropped for recheck; {} node(s) touched",
            self.witnesses_added,
            self.witnesses_removed,
            self.witnesses_retained,
            self.witnesses_dropped,
            self.touched_nodes
        )?;
        writeln!(
            f,
            "  matching: {} attempt(s) ({} pre-filtered), {} match(es) across {} rule(s)",
            self.match_attempts(),
            self.prefilter_rejects(),
            self.matches_found(),
            self.rules.len()
        )?;
        writeln!(f, "  phases:")?;
        for p in &self.phases {
            if p.latency.count == 0 {
                continue;
            }
            writeln!(
                f,
                "    {:<22} n={:<6} p50={:<9} p95={:<9} p99={:<9} total={}",
                p.phase.name(),
                p.latency.count,
                fmt_ns(p.latency.p50_ns()),
                fmt_ns(p.latency.p95_ns()),
                fmt_ns(p.latency.p99_ns()),
                fmt_ns(p.latency.sum_ns)
            )?;
        }
        if self.unit_latency.count > 0 {
            writeln!(
                f,
                "    {:<22} n={:<6} p50={:<9} p95={:<9} p99={:<9} total={}",
                "work-unit",
                self.unit_latency.count,
                fmt_ns(self.unit_latency.p50_ns()),
                fmt_ns(self.unit_latency.p95_ns()),
                fmt_ns(self.unit_latency.p99_ns()),
                fmt_ns(self.unit_latency.sum_ns)
            )?;
        }
        writeln!(f, "  rules:")?;
        for r in &self.rules {
            writeln!(
                f,
                "    {:<22} attempts={:<10} rejects={:<8} found={:<8} violations={:<8} \
                 seed={:<9} reenum={}",
                r.name,
                r.match_attempts,
                r.prefilter_rejects,
                r.matches_found,
                r.violations_found,
                fmt_ns(r.seed_ns),
                fmt_ns(r.reenum_ns)
            )?;
        }
        Ok(())
    }
}
