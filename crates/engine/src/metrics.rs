//! Engine-wide metrics: phase timers, per-rule cost attribution, and the
//! batch trace ring — the observability layer of the incremental
//! validator (DESIGN.md §6).
//!
//! One `EngineMetrics` registry lives inside each
//! [`IncrementalValidator`](crate::IncrementalValidator) and is shared
//! with its read views: the [`MetricsSnapshot`] it serves and the trace
//! ring, behind one `Mutex`. Only the writer writes it, once per batch:
//!
//! * during a pass the writer fills its own `BatchTally` with no
//!   synchronisation at all — one clock read per phase boundary and one
//!   per work unit (a unit ends where the next one starts), per-rule
//!   counters, the unit-latency histogram;
//! * at the end of the batch `EngineMetrics::fold` takes the lock once
//!   to add the batch into the served snapshot, push its trace entry and
//!   set the store gauges. It runs before the batch is published, so a
//!   reader never sees `batches` behind the epoch it reads. The publish
//!   is timed after it and recorded under a second short lock;
//! * a reader locks, clones the served snapshot and fills in the gauges
//!   that live elsewhere: the trace from the ring, the reader count and
//!   the published epoch from the views. Lock order is the registry,
//!   then the front; the writer never holds both.
//!
//! The lock is never held across a work unit, the publish, or a
//! read-view operation. The whole layer is gated on the writer's one
//! flag: disabled, the enumeration paths monomorphize with the no-op
//! recorder, and no clock is read and no lock taken — the delta path is
//! the uninstrumented engine. `tests/perf_bars.rs` asserts that the
//! enabled path stays within 5% of it on the batched delta path (release
//! builds) and prints the fixed cost per batch.

use crate::store::ViolationStore;
use crate::validator::ApplyStats;
use crate::view::SharedViews;
use ged_core::constraint::Constraint;
use ged_graph::json::Json;
use ged_obs::{fmt_ns, CellRecorder, Histogram, TraceRing};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// How many apply batches the trace ring retains.
const TRACE_CAPACITY: usize = 64;

/// The validator's pipeline stages, as timed by the phase histograms. The
/// discriminant indexes the phase arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The construction-time seeding full pass (one sample per validator).
    Seeding,
    /// Applying the deltas of a batch to the graph.
    DeltaApply,
    /// Sorting the footprint and dropping the stored witnesses that
    /// intersect it.
    WitnessDrop,
    /// Materialising the affected area: the live footprint and the
    /// anchored seed lists.
    Materialize,
    /// Exclusion-aware anchored re-enumeration of the affected matches:
    /// exactly the work units' time.
    Reenumerate,
    /// Inserting re-derived witnesses into the store and classifying the
    /// batch's churn.
    StoreInsert,
    /// Publishing the batch-boundary snapshot for the read views
    /// (changelog replay + epoch swap).
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
}

/// One rule's tallies — match attempts and results, and nanoseconds split
/// by the pass that spent them — in the registry and in the writer's
/// [`BatchTally`] alike.
#[derive(Debug, Clone, Default)]
struct RuleRow {
    attempts: u64,
    prefilter_rejects: u64,
    found: u64,
    violations: u64,
    seed_ns: u64,
    reenum_ns: u64,
}

/// The writer's per-pass accumulator: the seeding pass, then one per
/// batch. It holds the phase timer — the last clock reading, from which
/// every lap charges the time since to one phase — the phase
/// nanoseconds, the rule rows and each unit's nanoseconds, and is folded
/// into the registry and zeroed by [`EngineMetrics::fold`].
#[derive(Debug)]
pub(crate) struct BatchTally {
    /// The writer's one metrics switch.
    pub(crate) enabled: bool,
    last: Option<Instant>,
    phase_ns: [u64; 7],
    rules: Vec<RuleRow>,
    unit_ns: Vec<u64>,
}

impl BatchTally {
    /// An empty tally for a Σ of `n_rules` rules.
    pub(crate) fn new(n_rules: usize, enabled: bool) -> BatchTally {
        BatchTally {
            enabled,
            last: None,
            phase_ns: [0; 7],
            rules: vec![RuleRow::default(); n_rules],
            unit_ns: Vec::new(),
        }
    }

    /// Start the phase timer; disabled, no clock is read.
    pub(crate) fn start(&mut self) {
        self.last = self.enabled.then(Instant::now);
    }

    /// Nanoseconds since the last clock reading, which this one replaces.
    fn elapsed_ns(&mut self) -> Option<u64> {
        let last = self.last?;
        let now = Instant::now();
        self.last = Some(now);
        Some(now.duration_since(last).as_nanos() as u64)
    }

    /// Charge the time since the last clock reading to `phase`.
    pub(crate) fn lap(&mut self, phase: Phase) {
        if let Some(ns) = self.elapsed_ns() {
            self.phase_ns[phase as usize] += ns;
        }
    }

    /// Charge the time since the last clock reading to one finished work
    /// unit of rule `ci`, run in `phase` (seeding or re-enumeration), with
    /// what its recorder counted and the violations it found.
    pub(crate) fn unit(&mut self, phase: Phase, ci: usize, rec: &CellRecorder, violations: u64) {
        let Some(ns) = self.elapsed_ns() else {
            return;
        };
        self.phase_ns[phase as usize] += ns;
        self.unit_ns.push(ns);
        let r = &mut self.rules[ci];
        r.attempts += rec.attempts();
        r.prefilter_rejects += rec.prefilter_rejects();
        r.found += rec.matches();
        r.violations += violations;
        match phase {
            Phase::Seeding => r.seed_ns += ns,
            _ => r.reenum_ns += ns,
        }
    }
}

/// The engine's metrics registry: the [`MetricsSnapshot`] it serves —
/// enabled flag, batch counters, store gauges, phase latency histograms,
/// per-rule attribution — beside the batch trace ring, behind one lock.
///
/// The validator owns the registry and serves the snapshot via
/// [`IncrementalValidator::metrics`](crate::IncrementalValidator::metrics).
/// Cloning copies the current values into an independent registry, so a
/// cloned validator does not share tallies with its original.
#[derive(Debug)]
pub(crate) struct EngineMetrics(Mutex<Registry>);

/// What the registry's lock guards: the snapshot it serves and the trace
/// ring beside it.
type Registry = (MetricsSnapshot, TraceRing<ApplyStats>);

impl EngineMetrics {
    /// A fresh registry for the rule set Σ, enabled by default.
    pub(crate) fn for_sigma<C: Constraint>(sigma: &[C]) -> EngineMetrics {
        let rule = |c: &C| RuleSnapshot {
            name: c.name().to_string(),
            ..RuleSnapshot::default()
        };
        let served = MetricsSnapshot {
            enabled: true,
            phases: Phase::ALL
                .map(|phase| PhaseSnapshot {
                    phase,
                    latency: Histogram::new(),
                })
                .into(),
            rules: sigma.iter().map(rule).collect(),
            ..MetricsSnapshot::default()
        };
        EngineMetrics(Mutex::new((served, TraceRing::new(TRACE_CAPACITY))))
    }

    fn lock(&self) -> MutexGuard<'_, Registry> {
        self.0.lock().expect("metrics registry poisoned")
    }

    /// Record the writer's flag, for snapshots to report.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.lock().0.enabled = on;
    }

    /// Fold the writer's pass into the registry under one lock, then zero
    /// the pass. `batch` is a batch's stats and dropped-witness count, or
    /// `None` for the seeding pass. One sample is recorded for each phase
    /// the pass spans — seeding, or delta-apply through store-insert —
    /// plus the store gauges and, for a batch, its churn counters and
    /// trace entry. Disabled, nothing is taken and nothing recorded.
    pub(crate) fn fold(
        &self,
        pass: &mut BatchTally,
        batch: Option<(&ApplyStats, usize)>,
        store: &ViolationStore,
    ) {
        if !pass.enabled {
            return;
        }
        let phases = match batch {
            Some(_) => Phase::DeltaApply as usize..=Phase::StoreInsert as usize,
            None => Phase::Seeding as usize..=Phase::Seeding as usize,
        };
        let (m, trace) = &mut *self.lock();
        for p in phases {
            m.phases[p].latency.record_ns(pass.phase_ns[p]);
        }
        for (row, local) in m.rules.iter_mut().zip(&pass.rules) {
            row.match_attempts += local.attempts;
            row.prefilter_rejects += local.prefilter_rejects;
            row.matches_found += local.found;
            row.violations_found += local.violations;
            row.seed_ns += local.seed_ns;
            row.reenum_ns += local.reenum_ns;
        }
        for &ns in &pass.unit_ns {
            m.unit_latency.record_ns(ns);
        }
        m.store_size = store.total() as u64;
        m.store_slab_slots = store.slab_len() as u64;
        if let Some((stats, dropped)) = batch {
            m.batches += 1;
            m.deltas_applied += stats.deltas_applied as u64;
            m.touched_nodes += stats.touched_nodes as u64;
            m.witnesses_dropped += dropped as u64;
            m.witnesses_removed += stats.violations_removed as u64;
            m.witnesses_added += stats.violations_added as u64;
            m.witnesses_retained += stats.violations_retained as u64;
            trace.push(stats.clone());
        }
        pass.phase_ns = [0; 7];
        pass.rules.fill(RuleRow::default());
        pass.unit_ns.clear();
    }

    /// Record the time since the pass's last clock reading as one
    /// snapshot-publish sample.
    pub(crate) fn record_publish(&self, pass: &mut BatchTally) {
        if let Some(ns) = pass.elapsed_ns() {
            let phase = &mut self.lock().0.phases[Phase::SnapshotPublish as usize];
            phase.latency.record_ns(ns);
        }
    }

    /// An RAII guard that dumps the batch trace to stderr if the scope
    /// unwinds — the "last N batches on panic" story of the trace ring.
    pub(crate) fn dump_trace_on_panic(&self) -> TraceDumpOnPanic<'_> {
        TraceDumpOnPanic(&self.0)
    }

    /// The served snapshot, with the gauges that live elsewhere filled in
    /// under the registry's lock: the trace from the ring, the reader
    /// count and the published epoch from the validator's `views`. The
    /// writer folds a batch in before publishing it, so the epoch never
    /// runs ahead of the `batches` it is read with.
    pub(crate) fn snapshot(&self, views: &SharedViews) -> MetricsSnapshot {
        let (served, trace) = &*self.lock();
        MetricsSnapshot {
            read_views: views.readers(),
            published_epoch: views.epoch(),
            renders: views.renders(),
            rule_renders: views.rule_renders(),
            rebuilds: views.rebuilds(),
            trace: trace.recent(),
            ..served.clone()
        }
    }
}

impl Clone for EngineMetrics {
    fn clone(&self) -> EngineMetrics {
        EngineMetrics(Mutex::new(self.lock().clone()))
    }
}

/// Dumps the batch trace to stderr if dropped while panicking; see
/// [`EngineMetrics::dump_trace_on_panic`].
pub(crate) struct TraceDumpOnPanic<'a>(&'a Mutex<Registry>);

impl Drop for TraceDumpOnPanic<'_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        // A panic inside the fold poisons the lock; the ring is still
        // whole between pushes, so dump what it holds.
        let registry = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let (recent, pushed) = (registry.1.recent(), registry.1.total_pushed());
        eprintln!(
            "engine panic: last {} of {pushed} apply batch(es):",
            recent.len()
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
    pub latency: Histogram,
}

/// One rule's cost attribution in a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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
    /// number of batches published since construction (gauge).
    pub published_epoch: u64,
    /// Snapshots rendered for readers: one per epoch some reader rendered
    /// ([`ReadView::renders`](crate::ReadView::renders)).
    pub renders: u64,
    /// Rule segments those renders formatted: only the rules whose
    /// witnesses changed since their last rendering
    /// ([`ReadView::rule_renders`](crate::ReadView::rule_renders)).
    pub rule_renders: u64,
    /// Publishes that copied the whole table because a reader pinned the
    /// snapshot the writer wanted back
    /// ([`ReadView::rebuilds`](crate::ReadView::rebuilds)).
    pub rebuilds: u64,
    /// Latency distribution per pipeline phase, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseSnapshot>,
    /// Latency distribution of individual work units (seeding and delta
    /// path alike).
    pub unit_latency: Histogram,
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
    pub fn phase(&self, phase: Phase) -> Option<&Histogram> {
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
            ("renders", self.renders.into()),
            ("rule_renders", self.rule_renders.into()),
            ("rebuilds", self.rebuilds.into()),
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
fn latency_fields(h: &Histogram) -> Vec<(&'static str, Json)> {
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
            "  read views: {} live, published epoch {}; {} render(s) formatting {} rule \
             segment(s), {} rebuild(s)",
            self.read_views, self.published_epoch, self.renders, self.rule_renders, self.rebuilds
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
