//! Snapshot-isolated read views over the incremental validator
//! (DESIGN.md §9).
//!
//! [`IncrementalValidator::apply`] takes `&mut self`, so without this
//! module every violation query serializes against the delta write path —
//! the reader/writer convoy a deployed validator cannot afford. The split
//! here gives the writer sole ownership of the mutable store while any
//! number of reader threads hold cheap, immutable snapshots:
//!
//! * `ReadStore` (crate-private) — an immutable copy of the violation
//!   set, tagged with the **epoch** (number of published batches) it
//!   corresponds to;
//! * `SharedViews` (crate-private) — the one shared slot: an
//!   `RwLock<Arc<ReadStore>>`
//!   *front* buffer the writer swaps at batch boundaries plus the
//!   epoch/reader-count atomics. Readers only ever clone the `Arc` out of
//!   the slot (an O(1) critical section), so they never observe a
//!   mid-batch store;
//! * [`ReadView`] — the cloneable `Send + Sync` reader handle returned by
//!   [`IncrementalValidator::read_view`]: `violations()`, `to_report()`,
//!   `metrics()` — all `&self`;
//! * [`ViolationSnapshot`] — one pinned snapshot (epoch + data read
//!   atomically together), for callers that need several consistent
//!   queries against the *same* batch boundary. It walks its witnesses in
//!   report order without copying them
//!   ([`ViolationSnapshot::for_each_witness`]) and memoises whatever a
//!   reader renders from that walk ([`ViolationSnapshot::rendered`]): the
//!   data never changes, so neither do the bytes, and polls of one epoch
//!   share one rendering.
//!
//! ## The generation-tagged double buffer
//!
//! Publishing must be O(changed), not O(store): the writer keeps the
//! *previous* front buffer as a private back buffer plus a changelog
//! (`StoreChange` entries) of what it is missing. Each publish replays the lag
//! into the back buffer, bumps the epoch, swaps it in as the new front,
//! and reclaims the old front via `Arc::try_unwrap` as the next back
//! buffer. Only when a reader still pins the just-replaced snapshot does
//! the reclaim fail, and the *next* publish falls back to one O(store)
//! rebuild — measured against the always-rebuild alternative (the
//! changelog wins, µs against ms; see DESIGN.md §9). A
//! recycled buffer may carry the bytes a reader rendered from the epoch it
//! used to be; the replay drops them before it changes anything.
//!
//! No `unsafe` anywhere: torn reads are prevented purely by the `RwLock`
//! around the `Arc` swap and by the back buffer being writer-private
//! until the moment it is published as an immutable `Arc`.
//!
//! [`IncrementalValidator::apply`]: crate::IncrementalValidator::apply
//! [`IncrementalValidator::read_view`]: crate::IncrementalValidator::read_view

use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::store::ViolationStore;
use ged_core::constraint::{Constraint, ViolationKind};
use ged_core::reason::{GedReport, ValidationReport};
use ged_core::satisfy::Violation;
use ged_graph::NodeId;
use ged_pattern::Match;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// One change to the violation set, recorded by the writer while a batch
/// maintains the store and replayed into the back buffer at publish time.
/// A batch's changelog lists the dropped witnesses first, then the
/// re-derived ones, so a retained witness nets out to an upsert.
#[derive(Debug, Clone)]
pub(crate) enum StoreChange {
    /// The witness of constraint `.0` keyed by match `.1` was dropped.
    Remove(usize, Match),
    /// The witness was (re-)derived with the given failure kind.
    Upsert(usize, Match, ViolationKind),
}

/// An immutable snapshot of the violation set at one batch boundary,
/// tagged with the epoch it was published at. Once inside an `Arc` it is
/// never mutated again — readers share it freely.
#[derive(Debug)]
pub(crate) struct ReadStore {
    /// Number of batches published before this snapshot (0 = the state
    /// the views were activated at).
    pub(crate) epoch: u64,
    /// Witness → failure kind, one map per constraint of Σ.
    per_constraint: Vec<HashMap<Match, ViolationKind>>,
    /// Live witnesses across all constraints.
    total: usize,
    /// Bytes some reader rendered from this snapshot
    /// ([`ViolationSnapshot::rendered`]): immutable data has immutable
    /// renderings, so the first reader of an epoch fills the slot and
    /// every later one shares the `Arc`. The writer never fills it; it
    /// only empties it, wherever it makes the data underneath differ —
    /// [`ReadStore::apply`] on the recycled back buffer — and every
    /// constructor starts empty.
    rendered: OnceLock<Arc<[u8]>>,
}

impl ReadStore {
    /// An empty placeholder (used before the views are activated; never
    /// visible to a [`ReadView`]).
    pub(crate) fn empty() -> ReadStore {
        ReadStore {
            epoch: 0,
            per_constraint: Vec::new(),
            total: 0,
            rendered: OnceLock::new(),
        }
    }

    /// The O(store) full rebuild: clone the live witnesses out of the
    /// writer's store. Paid once at view activation, and again only when
    /// a publish could not reclaim its back buffer.
    pub(crate) fn from_store(store: &ViolationStore, epoch: u64) -> ReadStore {
        ReadStore {
            epoch,
            per_constraint: store.snapshot_kinds(),
            total: store.total(),
            rendered: OnceLock::new(),
        }
    }

    /// Replay a changelog — the O(changed) publish path. The buffer is a
    /// reclaimed former front, so it may carry the bytes a reader rendered
    /// from the epoch it used to be: they go first.
    pub(crate) fn apply(&mut self, changes: &[StoreChange]) {
        self.rendered.take();
        for change in changes {
            match change {
                StoreChange::Remove(ci, m) => {
                    if self.per_constraint[*ci].remove(m).is_some() {
                        self.total -= 1;
                    }
                }
                StoreChange::Upsert(ci, m, kind) => {
                    if self.per_constraint[*ci]
                        .insert(m.clone(), kind.clone())
                        .is_none()
                    {
                        self.total += 1;
                    }
                }
            }
        }
    }
}

/// The state shared between one writer and its read views: the front
/// buffer slot, the epoch counter, and the live reader count. Owned by
/// `Arc` from both the validator and every [`ReadView`].
#[derive(Debug)]
pub(crate) struct SharedViews {
    /// The published snapshot. Readers clone the `Arc` out under the read
    /// lock; the writer swaps a new one in under the write lock.
    front: RwLock<Arc<ReadStore>>,
    /// Batches published since activation.
    epoch: AtomicU64,
    /// Live [`ReadView`] handles.
    readers: AtomicU64,
    /// Snapshots rendered so far ([`ViolationSnapshot::rendered`] misses).
    renders: AtomicU64,
    /// Publishes that paid the O(store) rebuild because a reader pinned
    /// the buffer the writer wanted back.
    rebuilds: AtomicU64,
    /// Set by the first [`IncrementalValidator::read_view`] call; once
    /// true the writer publishes after every batch.
    ///
    /// [`IncrementalValidator::read_view`]: crate::IncrementalValidator::read_view
    active: AtomicBool,
}

impl SharedViews {
    pub(crate) fn new() -> SharedViews {
        SharedViews {
            front: RwLock::new(Arc::new(ReadStore::empty())),
            epoch: AtomicU64::new(0),
            readers: AtomicU64::new(0),
            renders: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            active: AtomicBool::new(false),
        }
    }

    /// Has a read view ever been created? The writer skips all publish
    /// work (including changelog recording) until this flips.
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Publish the initial snapshot if no view exists yet. Runs under the
    /// front write lock so concurrent `read_view` calls on a shared
    /// validator activate exactly once.
    pub(crate) fn activate_with(&self, build: impl FnOnce() -> ReadStore) {
        let mut front = self.front.write().expect("front lock poisoned");
        if !self.is_active() {
            *front = Arc::new(build());
            self.active.store(true, Ordering::Release);
        }
    }

    /// The epoch of the most recently published snapshot.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch for the snapshot about to be published.
    pub(crate) fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Clone the current front buffer out — the whole reader-side
    /// critical section.
    pub(crate) fn load(&self) -> Arc<ReadStore> {
        Arc::clone(&self.front.read().expect("front lock poisoned"))
    }

    /// Swap `next` in as the front buffer, returning the replaced one so
    /// the writer can try to reclaim it as the next back buffer.
    pub(crate) fn publish(&self, next: Arc<ReadStore>) -> Arc<ReadStore> {
        let mut front = self.front.write().expect("front lock poisoned");
        std::mem::replace(&mut *front, next)
    }

    /// Register a new [`ReadView`] handle, mirroring the count into the
    /// `read_views` gauge.
    fn add_reader(&self, metrics: &EngineMetrics) {
        let n = self.readers.fetch_add(1, Ordering::AcqRel) + 1;
        metrics.set_read_views(n);
    }

    /// Unregister a dropped [`ReadView`] handle.
    fn remove_reader(&self, metrics: &EngineMetrics) {
        let n = self.readers.fetch_sub(1, Ordering::AcqRel) - 1;
        metrics.set_read_views(n);
    }

    /// Live [`ReadView`] handles right now.
    pub(crate) fn readers(&self) -> u64 {
        self.readers.load(Ordering::Acquire)
    }

    /// Count one publish that rebuilt its buffer from the store.
    pub(crate) fn note_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }
}

/// A cloneable, `Send + Sync` reader handle onto an
/// [`IncrementalValidator`](crate::IncrementalValidator): every query
/// takes `&self` and reads the most recently *published* snapshot, so any
/// number of threads can hold views while the one writer keeps running
/// `apply` / `apply_all`. Created by
/// [`IncrementalValidator::read_view`](crate::IncrementalValidator::read_view).
///
/// A view is never torn: queries see exactly the state at some batch
/// boundary (the publish step runs inside `maintain`, after the store is
/// fully maintained). Successive queries may observe successive epochs;
/// use [`ReadView::snapshot`] to pin one epoch across several queries.
pub struct ReadView<C: Constraint> {
    sigma: Arc<Vec<C>>,
    views: Arc<SharedViews>,
    metrics: Arc<EngineMetrics>,
}

impl<C: Constraint> ReadView<C> {
    /// Build and register a handle (crate-internal; users go through
    /// `IncrementalValidator::read_view`).
    pub(crate) fn register(
        sigma: Arc<Vec<C>>,
        views: Arc<SharedViews>,
        metrics: Arc<EngineMetrics>,
    ) -> ReadView<C> {
        views.add_reader(&metrics);
        ReadView {
            sigma,
            views,
            metrics,
        }
    }

    /// Pin the current published snapshot: epoch and violation data are
    /// read atomically together, so every query on the returned
    /// [`ViolationSnapshot`] answers against the same batch boundary.
    pub fn snapshot(&self) -> ViolationSnapshot<C> {
        ViolationSnapshot {
            sigma: Arc::clone(&self.sigma),
            store: self.views.load(),
            views: Arc::clone(&self.views),
        }
    }

    /// The epoch of the snapshot a query issued right now would see —
    /// the number of batches published since the views were activated.
    pub fn epoch(&self) -> u64 {
        self.views.load().epoch
    }

    /// Total violations in the published snapshot.
    pub fn violation_count(&self) -> usize {
        self.views.load().total
    }

    /// `G ⊨ Σ` as of the published snapshot?
    pub fn is_satisfied(&self) -> bool {
        self.violation_count() == 0
    }

    /// The published snapshot's violations, sorted like
    /// [`ViolationStore::to_report`] (Σ order, witnesses sorted per rule).
    ///
    /// [`ViolationStore::to_report`]: crate::ViolationStore::to_report
    pub fn violations(&self) -> Vec<Violation> {
        self.snapshot().to_report().violations
    }

    /// Render the published snapshot as a [`ValidationReport`].
    pub fn to_report(&self) -> ValidationReport {
        self.snapshot().to_report()
    }

    /// Live [`ReadView`] handles on this validator, this one included —
    /// the `read_views` gauge without the full [`ReadView::metrics`]
    /// aggregate behind it.
    pub fn readers(&self) -> u64 {
        self.views.readers()
    }

    /// How many snapshots have been rendered so far: the misses of
    /// [`ViolationSnapshot::rendered`], at most one per published epoch.
    pub fn renders(&self) -> u64 {
        self.views.renders.load(Ordering::Relaxed)
    }

    /// How many publishes fell back to the O(store) rebuild because a
    /// reader still pinned the snapshot the writer wanted to recycle (the
    /// first publish after activation has nothing to recycle and counts).
    pub fn rebuilds(&self) -> u64 {
        self.views.rebuilds.load(Ordering::Relaxed)
    }

    /// A point-in-time aggregate of the writer's metrics registry — the
    /// same registry [`IncrementalValidator::metrics`] reads, shared so
    /// dashboards can poll it without touching the writer.
    ///
    /// [`IncrementalValidator::metrics`]: crate::IncrementalValidator::metrics
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

impl<C: Constraint> Clone for ReadView<C> {
    /// Cloning registers another live handle (the `read_views` gauge
    /// tracks the count); the clone reads the same published snapshots.
    fn clone(&self) -> ReadView<C> {
        ReadView::register(
            Arc::clone(&self.sigma),
            Arc::clone(&self.views),
            Arc::clone(&self.metrics),
        )
    }
}

impl<C: Constraint> Drop for ReadView<C> {
    fn drop(&mut self) {
        self.views.remove_reader(&self.metrics);
    }
}

impl<C: Constraint> std::fmt::Debug for ReadView<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadView")
            .field("epoch", &self.epoch())
            .field("readers", &self.views.readers())
            .finish_non_exhaustive()
    }
}

/// One pinned snapshot of the violation set: the epoch and the data were
/// read together under the front lock, so every query on this value
/// answers against the same batch boundary, however long it is held and
/// however many batches the writer publishes meanwhile.
pub struct ViolationSnapshot<C: Constraint> {
    sigma: Arc<Vec<C>>,
    store: Arc<ReadStore>,
    views: Arc<SharedViews>,
}

impl<C: Constraint> ViolationSnapshot<C> {
    /// The batch boundary this snapshot corresponds to (number of batches
    /// published since view activation).
    pub fn epoch(&self) -> u64 {
        self.store.epoch
    }

    /// Total violations in the snapshot.
    pub fn violation_count(&self) -> usize {
        self.store.total
    }

    /// `G ⊨ Σ` as of this snapshot?
    pub fn is_satisfied(&self) -> bool {
        self.store.total == 0
    }

    /// Violations of constraint `ci` in this snapshot.
    pub fn count_for(&self, ci: usize) -> usize {
        self.store.per_constraint[ci].len()
    }

    /// Rule names with their witness counts, in Σ order — the summary
    /// rows of a report, without touching a witness.
    pub fn rules(&self) -> impl Iterator<Item = (&str, usize)> + Clone {
        let counts = self.store.per_constraint.iter().map(HashMap::len);
        self.sigma.iter().map(Constraint::name).zip(counts)
    }

    /// Visit every witness in report order — Σ order, witnesses sorted
    /// per rule — as `(rule name, assignment, failure kind)`, borrowed
    /// from the snapshot: one sort buffer is the only allocation. This is
    /// the one ordering implementation; [`to_report`] and the wire
    /// encoders both sit on it.
    ///
    /// [`to_report`]: ViolationSnapshot::to_report
    pub fn for_each_witness(&self, mut f: impl FnMut(&str, &[NodeId], &ViolationKind)) {
        let widest = self.rules().map(|(_, n)| n).max().unwrap_or(0);
        let mut entries: Vec<(&Match, &ViolationKind)> = Vec::with_capacity(widest);
        for (c, map) in self.sigma.iter().zip(&self.store.per_constraint) {
            entries.clear();
            entries.extend(map);
            // Keys of one map are distinct, so stability buys nothing.
            entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
            for (m, kind) in &entries {
                f(c.name(), m, kind);
            }
        }
    }

    /// Render the snapshot as a [`ValidationReport`] — Σ order, witnesses
    /// sorted per rule, exactly like the writer-side
    /// [`IncrementalValidator::report`].
    ///
    /// [`IncrementalValidator::report`]: crate::IncrementalValidator::report
    pub fn to_report(&self) -> ValidationReport {
        let mut violations = Vec::with_capacity(self.store.total);
        self.for_each_witness(|rule, m, kind| {
            violations.push(Violation {
                ged_name: rule.to_string(),
                assignment: m.to_vec(),
                kind: kind.clone(),
            });
        });
        ValidationReport {
            per_ged: self
                .rules()
                .map(|(name, n)| GedReport {
                    name: name.to_string(),
                    violation_count: n,
                    satisfied: n == 0,
                })
                .collect(),
            violations,
        }
    }

    /// The bytes `render` makes of this snapshot, rendered at most once:
    /// the first caller on an epoch runs `render` and parks the result on
    /// the (immutable) snapshot, every later caller — on any handle, any
    /// thread — gets the same `Arc` back without running anything.
    /// Concurrent first callers block on one render rather than race.
    ///
    /// The slot is format-agnostic and there is one per snapshot, so all
    /// callers sharing a validator must pass the same `render` (`gedd`'s
    /// is its `report` reply line). The returned bytes do not pin the
    /// snapshot: drop `self` and the writer can recycle the buffer.
    pub fn rendered(&self, render: impl FnOnce(&Self) -> Vec<u8>) -> Arc<[u8]> {
        Arc::clone(self.store.rendered.get_or_init(|| {
            self.views.renders.fetch_add(1, Ordering::Relaxed);
            render(self).into()
        }))
    }
}

impl<C: Constraint> Clone for ViolationSnapshot<C> {
    fn clone(&self) -> ViolationSnapshot<C> {
        ViolationSnapshot {
            sigma: Arc::clone(&self.sigma),
            store: Arc::clone(&self.store),
            views: Arc::clone(&self.views),
        }
    }
}

impl<C: Constraint> std::fmt::Debug for ViolationSnapshot<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViolationSnapshot")
            .field("epoch", &self.store.epoch)
            .field("violations", &self.store.total)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store2() -> ReadStore {
        ReadStore {
            epoch: 0,
            per_constraint: vec![HashMap::new(), HashMap::new()],
            total: 0,
            rendered: OnceLock::new(),
        }
    }

    #[test]
    fn changelog_replay_tracks_total_and_contents() {
        let mut s = store2();
        let m = vec![NodeId(0), NodeId(1)];
        s.apply(&[
            StoreChange::Upsert(0, m.clone(), ViolationKind::Disjunction),
            StoreChange::Upsert(1, vec![NodeId(2)], ViolationKind::Disjunction),
        ]);
        assert_eq!(s.total, 2);
        // Re-upserting the same witness only refreshes; removing a missing
        // one is a no-op — both leave the total consistent.
        s.apply(&[
            StoreChange::Upsert(0, m.clone(), ViolationKind::Predicates(vec![1])),
            StoreChange::Remove(1, vec![NodeId(9)]),
        ]);
        assert_eq!(s.total, 2);
        assert_eq!(
            s.per_constraint[0].get(&m),
            Some(&ViolationKind::Predicates(vec![1]))
        );
        s.apply(&[StoreChange::Remove(0, m)]);
        assert_eq!(s.total, 1);
    }

    #[test]
    fn publish_swaps_and_returns_the_old_front() {
        let views = SharedViews::new();
        views.activate_with(store2);
        assert!(views.is_active());
        let before = views.load();
        assert_eq!(before.epoch, 0);
        let mut next = store2();
        next.epoch = views.bump_epoch();
        let old = views.publish(Arc::new(next));
        assert_eq!(old.epoch, before.epoch, "the replaced front comes back");
        assert_eq!(views.load().epoch, 1);
        // `before` and `old` still pin the epoch-0 snapshot: publishing
        // never invalidates a held Arc.
        drop(before);
        assert_eq!(Arc::try_unwrap(old).expect("last holder").epoch, 0);
    }

    #[test]
    fn activation_is_idempotent() {
        let views = SharedViews::new();
        views.activate_with(store2);
        let mut marked = store2();
        marked.epoch = 99;
        views.activate_with(move || marked);
        assert_eq!(views.load().epoch, 0, "second activation is a no-op");
    }
}
