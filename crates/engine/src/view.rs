//! Snapshot-isolated read views over the incremental validator
//! (DESIGN.md §9).
//!
//! [`IncrementalValidator::apply`] takes `&mut self`, so without this
//! module every violation query serializes against the delta write path —
//! the reader/writer convoy a deployed validator cannot afford. The split
//! here gives the writer sole ownership of the table it maintains while
//! any number of concurrent readers hold cheap, immutable snapshots:
//!
//! * `Published` (crate-private) — one witness table (`store::Witnesses`,
//!   the very type the writer maintains) frozen at a batch boundary and
//!   tagged with its **epoch**, the number of batches published since the
//!   validator was built (or cloned). The epoch is stored here and nowhere
//!   else;
//! * `SharedViews` (crate-private) — the one shared slot: an
//!   `RwLock<Arc<Published>>` *front* the writer swaps at batch boundaries
//!   plus the reader-count atomics. Every validator publishes its epoch 0
//!   at construction and a new epoch after every store-changing batch.
//!   Readers only ever clone the `Arc` out of the slot (an O(1) critical
//!   section), so they never observe a mid-batch table;
//! * [`ReadView`] — the cloneable `Send + Sync` reader handle returned by
//!   [`IncrementalValidator::read_view`]: it pins snapshots and reads the
//!   counters a handle adds (`epoch`, `readers`, `renders`,
//!   `rule_renders`, `rebuilds`, `metrics`) — all `&self`;
//! * [`ViolationSnapshot`] — one pinned snapshot (epoch + data read
//!   atomically together), which every violation query goes through, so
//!   several queries answer against the *same* batch boundary. It walks
//!   its witnesses in report order without copying them
//!   ([`ViolationSnapshot::for_each_witness`]) and memoises what a reader
//!   renders of it, in pieces ([`ViolationSnapshot::rendered`]): the data
//!   never changes, so neither do the bytes, and polls of one epoch share
//!   one [`Rendering`]; a rule whose witnesses did not change since its
//!   last rendering (its change stamp did not move) shares that
//!   rendering's segment across epochs too.
//!
//! ## Two copies, left and right
//!
//! Publishing must be O(changed), not O(store). The set exists twice: the
//! table the writer maintains and the front. A publish *moves* the
//! writer's table into a fresh `Published` and swaps it in; the front it
//! replaces is reclaimed via `Arc::try_unwrap`, its table replays the
//! batch's log once (`Witnesses::replay`) and becomes the table the writer
//! maintains next. Only when a reader still pins the replaced front does
//! the reclaim fail, and the writer continues on a clone of what it just
//! published — one O(store) copy, counted in [`ReadView::rebuilds`],
//! measured against rebuilding every time (µs against ms; see DESIGN.md
//! §9). The `Published` wrapper is new every epoch, so the bytes a reader
//! rendered from one epoch cannot be met under another; the per-rule
//! segments that outlive it are keyed by the rule's stamp, which the
//! replayed copy takes from the writer's.
//!
//! No `unsafe` anywhere: torn reads are prevented purely by the `RwLock`
//! around the `Arc` swap and by a table being writer-private from the
//! moment it is reclaimed until the moment it is published again.
//!
//! [`IncrementalValidator::apply`]: crate::IncrementalValidator::apply
//! [`IncrementalValidator::read_view`]: crate::IncrementalValidator::read_view

use crate::metrics::{EngineMetrics, MetricsSnapshot};
use crate::store::{StoreChange, Witnesses};
use ged_core::constraint::ViolationKind;
use ged_core::reason::ValidationReport;
use ged_core::rule::Rule;
use ged_graph::NodeId;
use ged_pattern::Match;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// The violation set at one batch boundary, tagged with the epoch it was
/// published at. Once inside an `Arc` it is never mutated again — readers
/// share it freely. Every publish builds a new one around the table the
/// writer was maintaining; only the table is ever recycled.
#[derive(Debug, Default)]
pub(crate) struct Published {
    /// Number of batches published before this snapshot (0 = the state
    /// the validator was built or cloned at).
    epoch: u64,
    table: Witnesses,
    /// What some reader rendered from this snapshot
    /// ([`ViolationSnapshot::rendered`]): immutable data has immutable
    /// renderings, so the first reader of an epoch fills the slot and
    /// every later one shares the `Arc`. It starts empty at every epoch
    /// and nothing ever empties it.
    rendered: OnceLock<Arc<Rendering>>,
}

/// One rule's rendered witnesses, shared by every epoch at which the rule
/// had the same witnesses. Held exactly: the render's buffer is copied
/// into it once, so what a memo keeps is what the reply sends.
type Segment = Arc<[u8]>;

/// A snapshot rendered in pieces ([`ViolationSnapshot::rendered`]): bytes
/// of the snapshot as a whole, then one segment per rule of Σ, in Σ
/// order. How the pieces join into one reply is the renderer's business;
/// `gedd` writes them out with one vectored write, never as one buffer.
#[derive(Debug)]
pub struct Rendering {
    head: Vec<u8>,
    segments: Vec<Segment>,
}

impl Rendering {
    /// What the snapshot-wide render made (`gedd`'s: the `report` reply up
    /// to its witnesses).
    pub fn head(&self) -> &[u8] {
        &self.head
    }

    /// Each rule's segment, in Σ order — empty for a rule the renderer
    /// made nothing of (`gedd`'s: a rule without witnesses).
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().map(|segment| &segment[..])
    }
}

/// Rule `ci`'s memoised segment, if it was rendered from witnesses with
/// the stamp they have in `table`.
fn memoised<'m>(
    memo: &'m [Option<(u64, Segment)>],
    ci: usize,
    table: &Witnesses,
) -> Option<&'m Segment> {
    let (at, bytes) = memo[ci].as_ref()?;
    (*at == table.stamp(ci)).then_some(bytes)
}

/// One rule's witnesses in report order — sorted by assignment — as
/// `(assignment, failure kind)`, borrowed from a snapshot: what
/// [`ViolationSnapshot::rendered`] hands its per-rule render.
#[derive(Debug, Clone)]
pub struct RuleWitnesses<'a>(std::slice::Iter<'a, (&'a Match, &'a ViolationKind)>);

impl<'a> Iterator for RuleWitnesses<'a> {
    type Item = (&'a [NodeId], &'a ViolationKind);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|&(m, kind)| (m.as_slice(), kind))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for RuleWitnesses<'_> {}

/// The state shared between one writer and its read views: the front
/// slot and the reader-side counters. Owned by `Arc` from both the
/// validator and every [`ReadView`].
#[derive(Debug, Default)]
pub(crate) struct SharedViews {
    /// The published snapshot, and with it the published epoch. Readers
    /// clone the `Arc` out under the read lock; the writer swaps a new
    /// one in under the write lock.
    front: RwLock<Arc<Published>>,
    /// Live [`ReadView`] handles.
    readers: AtomicU64,
    /// Snapshots rendered so far ([`ViolationSnapshot::rendered`] misses).
    renders: AtomicU64,
    /// Rule segments formatted so far by those misses.
    rule_renders: AtomicU64,
    /// Publishes that paid the O(store) copy because a reader pinned the
    /// front the writer wanted back.
    rebuilds: AtomicU64,
    /// The newest segment rendered of each rule of Σ, keyed by the rule's
    /// change stamp in the table it was rendered from; `None` until the
    /// first render.
    segments: Mutex<Vec<Option<(u64, Segment)>>>,
}

impl SharedViews {
    /// Views whose epoch 0 is `table`.
    pub(crate) fn new(table: Witnesses) -> SharedViews {
        let segments = Mutex::new(vec![None; table.rules_len()]);
        let front = Arc::new(Published {
            table,
            ..Published::default()
        });
        SharedViews {
            front: RwLock::new(front),
            segments,
            ..SharedViews::default()
        }
    }

    /// The epoch of the most recently published snapshot, read off the
    /// front.
    pub(crate) fn epoch(&self) -> u64 {
        self.front.read().expect("front lock poisoned").epoch
    }

    /// Clone the current front out — the whole reader-side critical
    /// section.
    fn load(&self) -> Arc<Published> {
        Arc::clone(&self.front.read().expect("front lock poisoned"))
    }

    /// Publish `table` — the one the writer just maintained through a
    /// batch whose log is `changes` — as the next epoch, and return the
    /// table the writer maintains from here: the replaced front's,
    /// brought up to date by replaying `changes`, or a clone of the new
    /// front when a reader still pins the old one. Writer only.
    pub(crate) fn publish(
        &self,
        table: Witnesses,
        changes: impl IntoIterator<Item = StoreChange>,
    ) -> Witnesses {
        // Only the writer moves the front, so its epoch cannot change
        // between this read and the swap.
        let epoch = self.epoch() + 1;
        let next = Arc::new(Published {
            epoch,
            table,
            ..Published::default()
        });
        let old = {
            let mut front = self.front.write().expect("front lock poisoned");
            std::mem::replace(&mut *front, Arc::clone(&next))
        };
        match Arc::try_unwrap(old) {
            Ok(Published { mut table, .. }) => {
                table.replay(changes);
                table.take_stamps(&next.table);
                // What readers see is the table the writer maintained, by
                // identity; the replay only has to keep the spare in step.
                debug_assert!(table == next.table, "replay drifted at epoch {epoch}");
                table
            }
            Err(_pinned) => {
                self.rebuilds.fetch_add(1, Ordering::Relaxed);
                next.table.clone()
            }
        }
    }

    /// Live [`ReadView`] handles right now.
    pub(crate) fn readers(&self) -> u64 {
        self.readers.load(Ordering::Acquire)
    }

    /// [`ReadView::renders`].
    pub(crate) fn renders(&self) -> u64 {
        self.renders.load(Ordering::Relaxed)
    }

    /// [`ReadView::rule_renders`].
    pub(crate) fn rule_renders(&self) -> u64 {
        self.rule_renders.load(Ordering::Relaxed)
    }

    /// [`ReadView::rebuilds`].
    pub(crate) fn rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }
}

/// A cloneable, `Send + Sync` reader handle onto an
/// [`IncrementalValidator`](crate::IncrementalValidator): every method
/// takes `&self` and reads the most recently *published* snapshot, so any
/// number of concurrent readers can hold views while the one writer keeps
/// running `apply` / `apply_all`. Created by
/// [`IncrementalValidator::read_view`](crate::IncrementalValidator::read_view).
///
/// Violation queries go through [`ReadView::snapshot`], which pins one
/// batch boundary — never a torn state: the publish step runs inside
/// `maintain`, after the store is fully maintained.
pub struct ReadView {
    sigma: Arc<Vec<Rule>>,
    views: Arc<SharedViews>,
    metrics: Arc<EngineMetrics>,
}

impl ReadView {
    /// Build and register a handle (crate-internal; users go through
    /// `IncrementalValidator::read_view`).
    pub(crate) fn register(
        sigma: Arc<Vec<Rule>>,
        views: Arc<SharedViews>,
        metrics: Arc<EngineMetrics>,
    ) -> ReadView {
        views.readers.fetch_add(1, Ordering::AcqRel);
        ReadView {
            sigma,
            views,
            metrics,
        }
    }

    /// Pin the current published snapshot: epoch and violation data are
    /// read atomically together, so every query on the returned
    /// [`ViolationSnapshot`] answers against the same batch boundary.
    pub fn snapshot(&self) -> ViolationSnapshot {
        ViolationSnapshot {
            sigma: Arc::clone(&self.sigma),
            store: self.views.load(),
            views: Arc::clone(&self.views),
        }
    }

    /// The epoch of the snapshot a query issued right now would see —
    /// the number of batches published since the validator was built.
    pub fn epoch(&self) -> u64 {
        self.views.epoch()
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
        self.views.renders()
    }

    /// How many rule segments the misses of
    /// [`ViolationSnapshot::rendered`] formatted: one per rule whose
    /// witnesses changed since its segment was last rendered, not one per
    /// rule of Σ.
    pub fn rule_renders(&self) -> u64 {
        self.views.rule_renders()
    }

    /// How many publishes fell back to an O(store) copy because a reader
    /// still pinned the snapshot whose table the writer wanted back.
    pub fn rebuilds(&self) -> u64 {
        self.views.rebuilds()
    }

    /// A point-in-time aggregate of the writer's metrics registry — the
    /// same registry [`IncrementalValidator::metrics`] reads, shared so
    /// dashboards can poll it without touching the writer.
    ///
    /// [`IncrementalValidator::metrics`]: crate::IncrementalValidator::metrics
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot(&self.views)
    }
}

impl Clone for ReadView {
    /// Cloning registers another live handle (the `read_views` gauge
    /// reads the count); the clone reads the same published snapshots.
    fn clone(&self) -> ReadView {
        ReadView::register(
            Arc::clone(&self.sigma),
            Arc::clone(&self.views),
            Arc::clone(&self.metrics),
        )
    }
}

impl Drop for ReadView {
    fn drop(&mut self) {
        self.views.readers.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for ReadView {
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
#[derive(Clone)]
pub struct ViolationSnapshot {
    sigma: Arc<Vec<Rule>>,
    store: Arc<Published>,
    views: Arc<SharedViews>,
}

impl ViolationSnapshot {
    /// The batch boundary this snapshot corresponds to (number of batches
    /// published since the validator was built).
    pub fn epoch(&self) -> u64 {
        self.store.epoch
    }

    /// Total violations in the snapshot.
    pub fn violation_count(&self) -> usize {
        self.store.table.total()
    }

    /// `G ⊨ Σ` as of this snapshot?
    pub fn is_satisfied(&self) -> bool {
        self.violation_count() == 0
    }

    /// Violations of constraint `ci` in this snapshot.
    pub fn count_for(&self, ci: usize) -> usize {
        self.store.table.count_for(ci)
    }

    /// Rule names with their witness counts, in Σ order — the summary
    /// rows of a report, without touching a witness.
    pub fn rules(&self) -> impl Iterator<Item = (&str, usize)> + Clone {
        self.store.table.rules(&self.sigma)
    }

    /// Constraint `ci`'s change stamp in this snapshot: how many times a
    /// batch has dropped or derived one of its witnesses since the
    /// validator was built (or cloned). Two snapshots of one validator
    /// with the same stamp hold the same witnesses of the rule; what
    /// [`rendered`](ViolationSnapshot::rendered) keys its per-rule memo by.
    pub fn stamp(&self, ci: usize) -> u64 {
        self.store.table.stamp(ci)
    }

    /// Visit every witness in report order — Σ order, witnesses sorted
    /// per rule — as `(rule name, assignment, failure kind)`, borrowed
    /// from the snapshot: one sort buffer is the only allocation.
    /// [`to_report`] and the wire encoders both sit on this walk, and so
    /// does the writer-side [`IncrementalValidator::report`].
    ///
    /// [`to_report`]: ViolationSnapshot::to_report
    /// [`IncrementalValidator::report`]: crate::IncrementalValidator::report
    pub fn for_each_witness<'a>(&'a self, f: impl FnMut(&'a str, &'a [NodeId], &'a ViolationKind)) {
        self.store.table.for_each_witness(&self.sigma, f);
    }

    /// Render the snapshot as a [`ValidationReport`] — Σ order, witnesses
    /// sorted per rule, exactly like the writer-side
    /// [`IncrementalValidator::report`].
    ///
    /// [`IncrementalValidator::report`]: crate::IncrementalValidator::report
    pub fn to_report(&self) -> ValidationReport {
        self.store.table.to_report(&self.sigma)
    }

    /// The snapshot rendered in pieces, at most once per epoch and at
    /// most once per rule content: `head` renders the snapshot as a whole,
    /// `segment` one rule's witnesses ([`RuleWitnesses`], report order).
    ///
    /// The first caller on an epoch fills the snapshot's slot and every
    /// later caller — on any handle, any thread — gets the same `Arc`
    /// back without running anything; concurrent first callers block on
    /// one render rather than race. That first caller runs `head`, and
    /// `segment` only for the rules whose witnesses changed since their
    /// segment was last rendered: the view set keeps the newest segment
    /// of each rule, keyed by the rule's change stamp, so a rule no batch
    /// touched since is shared, not formatted again. [`ReadView::renders`]
    /// counts the first kind of call, [`ReadView::rule_renders`] the
    /// segments formatted.
    ///
    /// The slot and the segments are format-agnostic and shared, so all
    /// callers sharing a validator must pass the same `head` and
    /// `segment` (`gedd`'s: its `report` reply). The rendering does not
    /// pin the snapshot: drop `self` and the writer can reclaim its table.
    pub fn rendered(
        &self,
        head: impl FnOnce(&Self) -> Vec<u8>,
        mut segment: impl FnMut(&str, RuleWitnesses<'_>) -> Vec<u8>,
    ) -> Arc<Rendering> {
        let rendering = self.store.rendered.get_or_init(|| {
            self.views.renders.fetch_add(1, Ordering::Relaxed);
            let head = head(self);
            let table = &self.store.table;
            // Held across the formatting: a reader of the next epoch waits
            // for the rules this one renders, and then shares them. Every
            // entry is replaced whole, so a panicking render leaves it
            // usable.
            let mut memo = self
                .views
                .segments
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let stale = (0..self.sigma.len()).filter(|&ci| memoised(&memo, ci, table).is_none());
            let widest = stale.map(|ci| table.count_for(ci)).max().unwrap_or(0);
            let mut entries = Vec::with_capacity(widest);
            let render = |(ci, rule): (usize, &Rule)| {
                if let Some(bytes) = memoised(&memo, ci, table) {
                    return Arc::clone(bytes);
                }
                table.sorted(ci, &mut entries);
                let bytes: Segment = segment(&rule.name, RuleWitnesses(entries.iter())).into();
                self.views.rule_renders.fetch_add(1, Ordering::Relaxed);
                // A reader of an older epoch does not evict a newer rule.
                let stamp = table.stamp(ci);
                if memo[ci].as_ref().is_none_or(|(at, _)| *at < stamp) {
                    memo[ci] = Some((stamp, Arc::clone(&bytes)));
                }
                bytes
            };
            let segments = self.sigma.iter().enumerate().map(render).collect();
            Arc::new(Rendering { head, segments })
        });
        Arc::clone(rendering)
    }
}

impl std::fmt::Debug for ViolationSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViolationSnapshot")
            .field("epoch", &self.store.epoch)
            .field("violations", &self.violation_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_swaps_and_returns_the_old_front() {
        let views = SharedViews::new(Witnesses::default());
        let before = views.load();
        assert_eq!(before.epoch, 0);
        // `before` pins the epoch-0 front: the writer goes on with a clone.
        views.publish(Witnesses::default(), []);
        assert_eq!((views.load().epoch, views.epoch()), (1, 1));
        assert_eq!(views.rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(before.epoch, 0, "publishing never invalidates a held Arc");
        // Nothing pins epoch 1: its table comes back, no copy.
        views.publish(Witnesses::default(), []);
        assert_eq!(views.load().epoch, 2);
        assert_eq!(views.rebuilds.load(Ordering::Relaxed), 1);
    }
}
