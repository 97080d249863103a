//! The persistent violation store: every currently-violating witness match,
//! keyed by (constraint index, match), maintained across deltas.
//!
//! The set itself is one `Witnesses` table — per-constraint maps
//! `h(x̄) → ViolationKind` plus a total — and that table is the type of
//! the writer's live copy *and* of every snapshot a read view is handed
//! (`crate::view`, DESIGN.md §9): a publish moves it out of the store and
//! a table of equal content moves back in. Around it the store keeps what
//! only the writer needs: a slab of `(constraint, match)` keys and the
//! **inverted index** `NodeId → {slots whose image contains the node}`.
//! The inverted index is what makes [`ViolationStore::drop_intersecting`]
//! — the engine's per-update prune — proportional to the *affected*
//! witnesses instead of the whole store, the property the
//! output-sensitive delta path needs.
//!
//! The store is family-agnostic: the table records *how* the conclusion
//! failed as a [`ViolationKind`], so the same structure serves plain GEDs,
//! GDCs, and GED∨s — anything implementing [`Constraint`].

use crate::footprint::Footprint;
use ged_core::constraint::{Constraint, ViolationKind};
use ged_core::reason::{GedReport, ValidationReport};
use ged_core::satisfy::Violation;
use ged_graph::NodeId;
use ged_pattern::Match;
use std::collections::{HashMap, HashSet};

/// One change to the violation set, logged by the writer while a batch
/// maintains its live table and replayed once, by value, into the other
/// copy at publish time ([`Witnesses::replay`]). A batch's log lists the
/// dropped witnesses first, then the re-derived ones, so a retained
/// witness nets out to an upsert.
#[derive(Debug)]
pub(crate) enum StoreChange {
    /// The witness of constraint `.0` keyed by match `.1` was dropped.
    Remove(usize, Match),
    /// The witness was (re-)derived with the given failure kind.
    Upsert(usize, Match, ViolationKind),
}

/// The violation set as plain data: witness → failure kind, one map per
/// constraint of Σ, and the live total. The one representation of the
/// set: the [`ViolationStore`] maintains one, every published snapshot
/// *is* one, and report order is defined here and nowhere else
/// ([`Witnesses::sorted`]).
///
/// Each constraint also carries a change **stamp**: the number of batches
/// that changed its map — lost a witness, gained one, or gave one another
/// kind ([`ViolationStore::settle`]). A witness a batch drops and derives
/// again alike moves nothing. The writer moves its table's stamps; the
/// other copy replays the batch's log and takes them
/// ([`Witnesses::take_stamps`]). So along one validator's history a
/// rule's stamp names one content of its map — what a read view's
/// per-rule rendering memo is keyed by (`crate::view`, DESIGN.md §9).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Witnesses {
    per_constraint: Vec<HashMap<Match, ViolationKind>>,
    stamps: Vec<u64>,
    total: usize,
}

impl Witnesses {
    /// Record or refresh one witness; `true` if it is new.
    fn upsert(&mut self, ci: usize, m: Match, kind: ViolationKind) -> bool {
        let fresh = self.per_constraint[ci].insert(m, kind).is_none();
        self.total += usize::from(fresh);
        fresh
    }

    /// Forget one witness, returning its kind if it was present.
    fn remove(&mut self, ci: usize, m: &[NodeId]) -> Option<ViolationKind> {
        let kind = self.per_constraint[ci].remove(m);
        self.total -= usize::from(kind.is_some());
        kind
    }

    /// Replay a batch's log — how the copy the writer did not maintain
    /// catches up, in O(changed).
    pub(crate) fn replay(&mut self, changes: impl IntoIterator<Item = StoreChange>) {
        for change in changes {
            match change {
                StoreChange::Remove(ci, m) => drop(self.remove(ci, &m)),
                StoreChange::Upsert(ci, m, kind) => drop(self.upsert(ci, m, kind)),
            }
        }
    }

    /// Take the stamps of `ahead`, the copy this one just caught up with.
    pub(crate) fn take_stamps(&mut self, ahead: &Witnesses) {
        self.stamps.clone_from(&ahead.stamps);
    }

    /// Live witnesses across all constraints.
    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Constraints the table holds witnesses for.
    pub(crate) fn rules_len(&self) -> usize {
        self.per_constraint.len()
    }

    /// Witnesses of constraint `ci`.
    pub(crate) fn count_for(&self, ci: usize) -> usize {
        self.per_constraint[ci].len()
    }

    /// Constraint `ci`'s change stamp: equal stamps of one history mean
    /// equal witnesses, kinds included.
    pub(crate) fn stamp(&self, ci: usize) -> u64 {
        self.stamps[ci]
    }

    /// Rule names with their witness counts, in Σ order — the summary
    /// rows of a report, without touching a witness.
    pub(crate) fn rules<'a, C: Constraint>(
        &'a self,
        sigma: &'a [C],
    ) -> impl Iterator<Item = (&'a str, usize)> + Clone {
        let counts = self.per_constraint.iter().map(HashMap::len);
        sigma.iter().map(Constraint::name).zip(counts)
    }

    /// Constraint `ci`'s witnesses in report order — sorted by
    /// assignment — into `entries` (cleared first), borrowed from the
    /// table. This is the one ordering implementation: the whole-table
    /// walk below, [`to_report`](Witnesses::to_report) and a read view's
    /// per-rule rendering all sit on it.
    pub(crate) fn sorted<'a>(
        &'a self,
        ci: usize,
        entries: &mut Vec<(&'a Match, &'a ViolationKind)>,
    ) {
        entries.clear();
        entries.extend(&self.per_constraint[ci]);
        // Keys of one map are distinct, so stability buys nothing.
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
    }

    /// Visit every witness in report order — Σ order, witnesses sorted
    /// per rule — as `(rule name, assignment, failure kind)`, borrowed
    /// from the table: one sort buffer is the only allocation.
    pub(crate) fn for_each_witness<'a, C: Constraint>(
        &'a self,
        sigma: &'a [C],
        mut f: impl FnMut(&'a str, &'a [NodeId], &'a ViolationKind),
    ) {
        let widest = self.rules(sigma).map(|(_, n)| n).max().unwrap_or(0);
        let mut entries = Vec::with_capacity(widest);
        for (ci, c) in sigma.iter().enumerate() {
            self.sorted(ci, &mut entries);
            for &(m, kind) in &entries {
                f(c.name(), m, kind);
            }
        }
    }

    /// The table as a [`ValidationReport`]: one row per rule, then the
    /// witnesses in report order.
    pub(crate) fn to_report<C: Constraint>(&self, sigma: &[C]) -> ValidationReport {
        let mut violations = Vec::with_capacity(self.total);
        self.for_each_witness(sigma, |rule, m, kind| {
            violations.push(Violation {
                ged_name: rule.to_string(),
                assignment: m.to_vec(),
                kind: kind.clone(),
            });
        });
        let row = |(name, n): (&str, usize)| GedReport {
            name: name.to_string(),
            violation_count: n,
            satisfied: n == 0,
        };
        ValidationReport {
            per_ged: self.rules(sigma).map(row).collect(),
            violations,
        }
    }
}

/// All violations of `G ⊨ Σ`, indexed per constraint and keyed by the
/// witness match `h(x̄)`. The store is the engine's materialised view:
/// after every delta it is *exactly* the violation set a from-scratch
/// [`validate`] (with no limit) would produce — the invariant the
/// lockstep driver holds it to, for every constraint family of the
/// unified layer.
///
/// [`validate`]: ged_core::reason::validate
#[derive(Debug, Clone, Default)]
pub struct ViolationStore {
    /// The set itself; every other field indexes into it.
    table: Witnesses,
    /// The slab of witness keys; `None` marks a freed slot awaiting reuse.
    slots: Vec<Option<(usize, Match)>>,
    /// Free slot ids.
    free: Vec<usize>,
    /// Inverted index: node → slots whose assignment contains it.
    by_node: HashMap<NodeId, HashSet<usize>>,
    /// Per constraint, from a [`drop_intersecting`] to the
    /// [`settle`](ViolationStore::settle) that closes its batch: its
    /// witness count before the drop, and whether a witness it dropped did
    /// not come back alike. A buffer kept across batches.
    ///
    /// [`drop_intersecting`]: ViolationStore::drop_intersecting
    batch: Vec<(usize, bool)>,
}

impl ViolationStore {
    /// An empty store sized for the rule set Σ — any slice of
    /// [`Constraint`]s. Constructing from Σ itself (rather than a bare
    /// count) keeps the store coupled to the rules it indexes — a mismatch
    /// used to surface later as an opaque out-of-bounds in
    /// [`insert`](ViolationStore::insert).
    pub fn for_sigma<C: Constraint>(sigma: &[C]) -> ViolationStore {
        ViolationStore {
            table: Witnesses {
                per_constraint: vec![HashMap::new(); sigma.len()],
                stamps: vec![0; sigma.len()],
                total: 0,
            },
            ..ViolationStore::default()
        }
    }

    #[track_caller]
    fn check_index(&self, ci: usize) {
        assert!(
            ci < self.constraint_count(),
            "constraint index {ci} out of range: this store was built for {} constraints — \
             construct it with ViolationStore::for_sigma over the same Σ you validate",
            self.constraint_count()
        );
    }

    /// Record (or overwrite) how one witness violates constraint `ci`.
    /// Returns `true` if the witness is new, `false` if it only refreshed
    /// an already-stored one.
    pub fn insert(&mut self, ci: usize, assignment: Match, kind: ViolationKind) -> bool {
        self.check_index(ci);
        if !self.table.upsert(ci, assignment.clone(), kind) {
            return false;
        }
        let id = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        // Register the slot under every node of the image (inserting the
        // same id twice is idempotent, so repeated nodes need no dedup).
        for &n in &assignment {
            self.by_node.entry(n).or_default().insert(id);
        }
        self.slots[id] = Some((ci, assignment));
        true
    }

    /// Is this witness currently stored?
    pub fn contains(&self, ci: usize, assignment: &[NodeId]) -> bool {
        self.check_index(ci);
        self.table.per_constraint[ci].contains_key(assignment)
    }

    /// Number of constraints the store tracks.
    pub fn constraint_count(&self) -> usize {
        self.table.per_constraint.len()
    }

    /// Violations currently recorded for one constraint.
    pub fn count_for(&self, ci: usize) -> usize {
        self.check_index(ci);
        self.table.count_for(ci)
    }

    /// Total violations across all constraints.
    pub fn total(&self) -> usize {
        self.table.total
    }

    /// Length of the slab — live *and* free slots. Together with
    /// [`total`](ViolationStore::total) this exposes the store's memory
    /// shape to the metrics gauges: a slab much longer than the live count
    /// means the store grew through a churn spike and is now mostly
    /// free-listed capacity.
    pub fn slab_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of stored witnesses whose image contains `node` — an
    /// inverted-index lookup, O(1) in the store size.
    pub fn count_at(&self, node: NodeId) -> usize {
        self.by_node.get(&node).map_or(0, HashSet::len)
    }

    /// Is `G ⊨ Σ` according to the store?
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Drop every witness whose assignment meets its own rule's part of
    /// `touched` — a witness of rule `ci` goes when one of its nodes is in
    /// the footprint with `ci` in its rule set — returning the dropped
    /// `(constraint, assignment, kind)` entries (deterministically
    /// ordered): the pre-drop snapshot of the affected area, which the
    /// validator uses to tell genuinely removed witnesses from ones the
    /// re-enumeration immediately re-derives.
    ///
    /// Called with the batch's footprint — *including* just-removed ids,
    /// which concern every rule — before re-enumerating the affected area,
    /// so stale entries cannot survive an attribute change a rule reads, a
    /// rewired edge its pattern can use, or a removal (a match that used a
    /// removed edge necessarily contains both of its endpoints, so it meets
    /// the footprint). [`Footprint::every_rule`] drops rule-blind.
    ///
    /// Cost: one inverted-index lookup per footprint node, then
    /// `O(|affected witnesses| · |x̄|)` — the rest of the store is never
    /// visited, however large it is.
    pub fn drop_intersecting(&mut self, touched: &Footprint) -> Vec<(usize, Match, ViolationKind)> {
        let counts = self.table.per_constraint.iter().map(HashMap::len);
        self.batch.clear();
        self.batch.extend(counts.map(|n| (n, false)));
        let mut hit: Vec<usize> = Vec::new();
        for (i, n) in touched.nodes().iter().enumerate() {
            let Some(ids) = self.by_node.get(n) else {
                continue;
            };
            hit.extend(ids.iter().copied().filter(|&id| {
                let (ci, _) = self.slots[id].as_ref().expect("indexed slot is live");
                touched.concerns(i, *ci)
            }));
        }
        hit.sort_unstable();
        hit.dedup();
        let mut dropped = Vec::with_capacity(hit.len());
        for id in hit {
            let (ci, m) = self.slots[id].take().expect("indexed slot is live");
            for n in &m {
                if let Some(set) = self.by_node.get_mut(n) {
                    set.remove(&id);
                    if set.is_empty() {
                        self.by_node.remove(n);
                    }
                }
            }
            self.free.push(id);
            let kind = self.table.remove(ci, &m).expect("slab key is a witness");
            dropped.push((ci, m, kind));
        }
        #[cfg(debug_assertions)]
        self.assert_consistent();
        dropped
    }

    /// Close the batch that dropped `dropped` and then re-derived its
    /// affected area: move the stamp of every constraint whose witnesses
    /// changed, and return how many dropped witnesses were derived again
    /// (retained).
    ///
    /// A constraint changed unless every witness it dropped came back with
    /// an `==` kind and it holds as many witnesses as before the drop —
    /// then the re-derived witnesses are exactly the dropped ones, and its
    /// map is what it was.
    pub(crate) fn settle(&mut self, dropped: &[(usize, Match, ViolationKind)]) -> usize {
        let mut retained = 0;
        for (ci, m, was) in dropped {
            let now = self.table.per_constraint[*ci].get(m);
            retained += usize::from(now.is_some());
            self.batch[*ci].1 |= now != Some(was);
        }
        for (ci, &(before, lost)) in self.batch.iter().enumerate() {
            if lost || before != self.table.count_for(ci) {
                self.table.stamps[ci] += 1;
            }
        }
        retained
    }

    /// Cross-check the three structures (table, slab, inverted index)
    /// against each other, panicking on any inconsistency. Runs
    /// automatically after [`drop_intersecting`] in debug builds;
    /// O(store), so release builds never pay for it.
    ///
    /// [`drop_intersecting`]: ViolationStore::drop_intersecting
    pub fn assert_consistent(&self) {
        let maps = self.table.per_constraint.iter();
        let keyed: usize = maps.map(HashMap::len).sum();
        assert_eq!(keyed, self.total(), "table total matches its maps");
        // Every live slot keys a witness; distinct keys, and as many of
        // them as witnesses, make that a bijection.
        let mut keys = HashSet::with_capacity(self.total());
        for (id, slot) in self.slots.iter().enumerate() {
            let Some((ci, m)) = slot else { continue };
            assert!(self.contains(*ci, m), "slot {id} keys no witness: {m:?}");
            assert!(keys.insert((ci, m)), "slot {id} repeats the key {m:?}");
            for n in m {
                assert!(
                    self.by_node.get(n).is_some_and(|s| s.contains(&id)),
                    "slot {id} missing from the inverted index at {n}"
                );
            }
        }
        assert_eq!(keys.len(), self.total(), "one live slot per witness");
        let slab = keys.len() + self.free.len();
        assert_eq!(slab, self.slots.len(), "freed slots are on the free list");
        for (n, set) in &self.by_node {
            assert!(!set.is_empty(), "empty index bucket at {n} not pruned");
            for &id in set {
                let (_, m) = self.slots[id]
                    .as_ref()
                    .unwrap_or_else(|| panic!("index at {n} references freed slot {id}"));
                assert!(
                    m.contains(n),
                    "index at {n} references slot {id} whose image lacks it"
                );
            }
        }
    }

    /// Render the store as a [`ValidationReport`] in Σ order, with the
    /// witnesses of each constraint sorted by assignment for determinism.
    pub fn to_report<C: Constraint>(&self, sigma: &[C]) -> ValidationReport {
        self.table.to_report(sigma)
    }

    /// Iterate over `(constraint index, assignment, violation kind)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Match, &ViolationKind)> + '_ {
        let maps = self.table.per_constraint.iter().enumerate();
        maps.flat_map(|(ci, map)| map.iter().map(move |(m, kind)| (ci, m, kind)))
    }

    /// The live table: what a new view set copies as its epoch 0.
    pub(crate) fn table(&self) -> &Witnesses {
        &self.table
    }

    /// Hand the live table to `publish` and maintain from now on the one
    /// it gives back — the same set, in the copy no reader can see.
    pub(crate) fn exchange_table(&mut self, publish: impl FnOnce(Witnesses) -> Witnesses) {
        self.table = publish(std::mem::take(&mut self.table));
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Var};

    fn key_ged() -> Ged {
        let q = parse_pattern("t(x); t(y)").unwrap();
        Ged::new(
            "key",
            q,
            vec![Literal::vars(Var(0), sym("k"), Var(1), sym("k"))],
            vec![Literal::id(Var(0), Var(1))],
        )
    }

    /// A kind listing these failed positions.
    fn kind(positions: &[usize]) -> ViolationKind {
        positions.to_vec().into()
    }

    /// A footprint concerning both rules of [`two_rule_sigma`].
    fn every(nodes: &[NodeId]) -> Footprint {
        Footprint::every_rule(nodes, 2)
    }

    fn two_rule_sigma() -> Vec<Ged> {
        let q = parse_pattern("t(x)").unwrap();
        let other = Ged::new(
            "other",
            q,
            vec![],
            vec![Literal::constant(Var(0), sym("p"), 1)],
        );
        vec![key_ged(), other]
    }

    #[test]
    fn insert_remove_and_counts() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        assert!(s.insert(0, vec![NodeId(0), NodeId(1)], kind(&[0])));
        assert!(s.insert(1, vec![NodeId(2)], kind(&[0])));
        assert_eq!(s.total(), 2);
        assert_eq!(s.count_for(0), 1);
        assert_eq!(s.constraint_count(), 2);
        assert!(!s.is_empty());
        assert!(s.contains(0, &[NodeId(0), NodeId(1)]));
        assert_eq!(s.drop_intersecting(&every(&[NodeId(0)])).len(), 1);
        assert!(s.drop_intersecting(&every(&[NodeId(0)])).is_empty());
        assert!(!s.contains(0, &[NodeId(0), NodeId(1)]));
        assert_eq!(s.total(), 1);
        s.assert_consistent();
    }

    #[test]
    fn reinsert_refreshes_without_duplicating() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        let key = vec![NodeId(0), NodeId(1)];
        assert!(s.insert(0, key.clone(), kind(&[0])));
        assert!(
            !s.insert(0, key.clone(), kind(&[0, 1])),
            "same witness again only refreshes"
        );
        assert_eq!(s.total(), 1);
        assert_eq!(s.count_at(NodeId(0)), 1);
        assert_eq!(s.iter().next().unwrap().2, &kind(&[0, 1]));
        s.assert_consistent();
    }

    /// The store is family-agnostic: every kind — several positions, or
    /// none, as a rule whose `Y` is `false` lists — is stored, iterated,
    /// and reported as it went in.
    #[test]
    fn non_ged_violation_kinds_round_trip() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        s.insert(0, vec![NodeId(0), NodeId(1)], kind(&[0, 2]));
        s.insert(1, vec![NodeId(2)], kind(&[]));
        assert_eq!(s.total(), 2);
        let kinds: Vec<ViolationKind> = s.iter().map(|(_, _, k)| k.clone()).collect();
        assert!(kinds.contains(&kind(&[0, 2])));
        assert!(kinds.contains(&kind(&[])));
        let report = s.to_report(&two_rule_sigma());
        let reported: Vec<&[usize]> = report
            .violations
            .iter()
            .map(|v| v.kind.positions())
            .collect();
        assert_eq!(reported, [&[0, 2][..], &[]]);
        s.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "built for 2 constraints")]
    fn out_of_range_constraint_panics_with_a_clear_message() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        s.insert(2, vec![NodeId(0)], kind(&[0]));
    }

    #[test]
    fn drop_intersecting_only_hits_touched_witnesses() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        s.insert(0, vec![NodeId(0), NodeId(1)], kind(&[0]));
        s.insert(0, vec![NodeId(2), NodeId(3)], kind(&[0]));
        let dropped = s.drop_intersecting(&every(&[NodeId(1)]));
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].1, vec![NodeId(0), NodeId(1)]);
        assert_eq!(s.total(), 1);
        assert_eq!(s.count_for(0), 1);
        s.assert_consistent();
    }

    /// A witness goes only when one of its nodes concerns its own rule.
    #[test]
    fn drop_intersecting_hits_only_the_rules_each_node_concerns() {
        use crate::footprint::Relevance;
        use ged_graph::Delta;
        let sigma = two_rule_sigma();
        let mut s = ViolationStore::for_sigma(&sigma);
        s.insert(0, vec![NodeId(0), NodeId(1)], kind(&[0]));
        s.insert(1, vec![NodeId(1)], kind(&[0]));
        // `other` reads `p`; the key rule reads only `k`.
        let relevance = Relevance::for_sigma(&sigma);
        let mut f = Footprint::default();
        f.start(&relevance, 1);
        let (node, attr) = (NodeId(1), sym("p"));
        f.touch(node, relevance.of(&Delta::DelAttr { node, attr }));
        f.build(&relevance);
        let dropped = s.drop_intersecting(&f);
        assert_eq!(dropped.len(), 1);
        assert_eq!((dropped[0].0, &dropped[0].1), (1, &vec![NodeId(1)]));
        assert!(s.contains(0, &[NodeId(0), NodeId(1)]));
        s.assert_consistent();
    }

    #[test]
    fn inverted_index_tracks_inserts_drops_and_slot_reuse() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        let lit = kind(&[0]);
        // A witness with a repeated node (homomorphism) indexes once.
        s.insert(0, vec![NodeId(5), NodeId(5)], lit.clone());
        assert_eq!(s.count_at(NodeId(5)), 1);
        s.insert(0, vec![NodeId(5), NodeId(6)], lit.clone());
        assert_eq!(s.count_at(NodeId(5)), 2);
        assert_eq!(s.count_at(NodeId(6)), 1);
        let dropped = s.drop_intersecting(&every(&[NodeId(5)]));
        assert_eq!(dropped.len(), 2);
        assert_eq!(s.count_at(NodeId(5)), 0);
        assert_eq!(s.count_at(NodeId(6)), 0);
        assert!(s.is_empty());
        // Freed slots are reused and re-indexed correctly.
        s.insert(1, vec![NodeId(7)], lit.clone());
        s.insert(1, vec![NodeId(8)], lit);
        assert_eq!(s.total(), 2);
        assert_eq!(s.count_at(NodeId(7)), 1);
        s.assert_consistent();
    }

    #[test]
    fn drop_with_empty_footprint_is_a_no_op() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        s.insert(0, vec![NodeId(0), NodeId(1)], kind(&[0]));
        assert!(s.drop_intersecting(&every(&[])).is_empty());
        assert_eq!(s.total(), 1);
    }

    /// The output-sensitivity acceptance bar: on a 100k-witness store, a
    /// 10-node footprint must drop via the inverted index ≥10× faster than
    /// the old full-store scan (in practice it is orders of magnitude).
    /// Timing-sensitive, so `#[ignore]`d from the default pass; the CI
    /// release job runs it with
    /// `cargo test --release -p ged-engine -- --ignored`.
    #[test]
    #[ignore = "perf assertion; run in release mode"]
    fn indexed_drop_beats_full_scan_by_10x_on_100k_witnesses() {
        const N: usize = 100_000;
        let lit = || kind(&[0]);
        let mut indexed = ViolationStore::for_sigma(&[key_ged()]);
        let mut scan: HashMap<Match, ViolationKind> = HashMap::new();
        for i in 0..N {
            let m = vec![NodeId(2 * i as u32), NodeId(2 * i as u32 + 1)];
            indexed.insert(0, m.clone(), lit());
            scan.insert(m, lit());
        }
        // A 10-node footprint hitting 10 witnesses.
        let touched: Vec<NodeId> = (0..10).map(|i| NodeId(4 * i)).collect();
        let footprint = Footprint::every_rule(&touched, 1);

        // Drop + restore keeps the store at full size across repetitions,
        // so the timed region is exactly the affected-area work.
        let time = |f: &mut dyn FnMut()| {
            let mut best = std::time::Duration::MAX;
            for _ in 0..5 {
                let t0 = std::time::Instant::now();
                f();
                best = best.min(t0.elapsed());
            }
            best
        };
        let d_indexed = time(&mut || {
            let dropped = indexed.drop_intersecting(&footprint);
            assert_eq!(dropped.len(), touched.len());
            for (g, m, f) in dropped {
                indexed.insert(g, m, f);
            }
        });
        let d_scan = time(&mut || {
            let mut dropped = Vec::new();
            scan.retain(|m, f| {
                if m.iter().any(|n| touched.contains(n)) {
                    dropped.push((m.clone(), std::mem::take(f)));
                    false
                } else {
                    true
                }
            });
            assert_eq!(dropped.len(), touched.len());
            for (m, f) in dropped {
                scan.insert(m, f);
            }
        });
        let speedup = d_scan.as_secs_f64() / d_indexed.as_secs_f64().max(1e-12);
        println!(
            "drop_intersecting on {N} witnesses, {}-node footprint: \
             indexed {d_indexed:?} vs scan {d_scan:?} (×{speedup:.0})",
            touched.len()
        );
        assert!(
            speedup >= 10.0,
            "inverted index must beat the full scan ≥10×, got ×{speedup:.1}"
        );
    }

    #[test]
    fn changelog_replay_tracks_total_and_contents() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma()).table;
        let m = vec![NodeId(0), NodeId(1)];
        s.replay([
            StoreChange::Upsert(0, m.clone(), kind(&[0])),
            StoreChange::Upsert(1, vec![NodeId(2)], kind(&[0])),
        ]);
        assert_eq!(s.total, 2);
        // Re-upserting the same witness only refreshes; removing a missing
        // one is a no-op — both leave the total consistent.
        s.replay([
            StoreChange::Upsert(0, m.clone(), kind(&[1])),
            StoreChange::Remove(1, vec![NodeId(9)]),
        ]);
        assert_eq!(s.total, 2);
        assert_eq!(s.per_constraint[0].get(&m), Some(&kind(&[1])));
        s.replay([StoreChange::Remove(0, m)]);
        assert_eq!(s.total, 1);
    }

    /// A rule's stamp moves once per batch that changed its witnesses —
    /// lost one, gained one, or gave one another kind — and for nothing
    /// else: not a batch that dropped witnesses and derived them again
    /// alike, not another rule's changes. Replaying each batch's log on a
    /// copy lands on the same witnesses, and the copy takes the stamps.
    #[test]
    fn stamps_move_with_every_change_of_their_rule() {
        let mut s = ViolationStore::for_sigma(&two_rule_sigma());
        let mut replayed = s.table.clone();
        let stamps = |s: &ViolationStore| (s.table.stamp(0), s.table.stamp(1));
        // One batch as `maintain` runs it: drop what meets `touched`,
        // derive `derived`, settle, and replay the log on the copy.
        let mut batch =
            |s: &mut ViolationStore, touched: &[NodeId], derived: &[(usize, &[u32], &[usize])]| {
                let dropped = s.drop_intersecting(&every(touched));
                let removes = dropped
                    .iter()
                    .map(|(ci, m, _)| StoreChange::Remove(*ci, m.clone()));
                let mut log: Vec<StoreChange> = removes.collect();
                for &(ci, ids, positions) in derived {
                    let m: Match = ids.iter().copied().map(NodeId).collect();
                    log.push(StoreChange::Upsert(ci, m.clone(), kind(positions)));
                    s.insert(ci, m, kind(positions));
                }
                s.settle(&dropped);
                replayed.replay(log);
            };
        batch(&mut s, &[], &[(0, &[0, 1], &[0])]);
        assert_eq!(stamps(&s), (1, 0), "a new witness");
        batch(&mut s, &[NodeId(0)], &[(0, &[0, 1], &[0])]);
        assert_eq!(stamps(&s), (1, 0), "dropped and derived again alike");
        batch(&mut s, &[NodeId(1)], &[(0, &[0, 1], &[0, 1])]);
        assert_eq!(stamps(&s), (2, 0), "another kind");
        batch(&mut s, &[NodeId(9)], &[(1, &[2], &[0])]);
        assert_eq!(stamps(&s), (2, 1), "only the rule that gained one");
        batch(&mut s, &[NodeId(0), NodeId(2)], &[(1, &[2], &[0])]);
        assert_eq!(stamps(&s), (3, 1), "a lost witness");
        assert_eq!(replayed.per_constraint, s.table.per_constraint);
        assert_ne!(replayed.stamps, s.table.stamps, "replay moves no stamp");
        replayed.take_stamps(&s.table);
        assert!(replayed == s.table);
    }

    #[test]
    fn report_is_sorted_and_in_sigma_order() {
        let sigma = vec![key_ged()];
        let mut s = ViolationStore::for_sigma(&sigma);
        let lit = kind(&[0]);
        s.insert(0, vec![NodeId(5), NodeId(6)], lit.clone());
        s.insert(0, vec![NodeId(1), NodeId(2)], lit);
        let r = s.to_report(&sigma);
        assert!(!r.satisfied());
        assert_eq!(r.per_ged.len(), 1);
        assert_eq!(r.per_ged[0].violation_count, 2);
        assert_eq!(r.violations[0].assignment, vec![NodeId(1), NodeId(2)]);
        assert_eq!(r.violations[1].assignment, vec![NodeId(5), NodeId(6)]);
    }
}
