//! The differential oracle (DESIGN.md §11): the one lockstep driver behind
//! `incremental.rs`, `read_views.rs`, `daemon.rs`, `daemon_faults.rs`,
//! `analysis.rs` and `lockstep.rs`, each of which pulls this file in with
//! `#[path]`.
//!
//! The invariant is one sentence — every `(epoch, witness set)` any
//! observer sees equals a from-scratch `validate` at that batch boundary —
//! and it is written out here once. An [`Oracle`] keeps a mirror graph and
//! computes `validate(mirror, Σ, None)` **once** per boundary; [`try_run`]
//! feeds one stream of batches to the oracle and to every [`Subject`] and
//! holds each subject against the [`Boundary`]. On the first difference it
//! names seed, batch and subject, shrinks the recorded stream by re-running
//! only that subject from the initial graph, and prints the minimal stream
//! as `apply` frames that [`replay`] turns back into a regression test.
//!
//! What lockstep cannot see: every subject and the from-scratch
//! reference read the same `Value` (`crates/graph/src/value.rs`), so a
//! wrong `==` or `cmp` there is wrong on both sides alike and the lockstep
//! suites stay green. Such a fault is caught by `value::tests`,
//! `delta::tests::attr_deltas_detect_no_ops` and `tests/apply_alloc.rs`.

#![allow(dead_code)] // every suite uses its own part of the driver

use ged_daemon::server::rendering;
use ged_daemon::{spawn, DaemonConfig, DaemonHandle};
use ged_datagen::stream::DeltaStream;
use ged_proto::message::{
    encode_violations_head, ok_response, report_to_json, violation_to_json, write_segmented,
};
use ged_proto::{write_frame, Client, Json, Request, WireViolation};
use ged_repro::core::reason::{GedReport, ValidationReport};
use ged_repro::core::satisfy::Violation;
use ged_repro::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// `return Err(format!(..))` unless the condition holds; the driver adds
/// what the oracle expected, so the message says what was seen.
macro_rules! ensure {
    ($ok:expr, $($why:tt)*) => {
        if !$ok {
            return Err(format!($($why)*));
        }
    };
}

/// The canonical comparable forms. A witness is a rule name and an
/// assignment; a witness set carries each one's `Debug`-rendered kind,
/// which covers every constraint family and is what the wire carries; a
/// report shows its witness set and the per-rule rows `(name, witnesses,
/// satisfied)` in Σ order; the ledger maps an epoch to the witness set
/// `validate` found at the boundary published as it.
pub type Key = (String, Vec<NodeId>);
pub type Witnesses = BTreeMap<Key, String>;
pub type Shown = (Witnesses, Vec<(String, u64, bool)>);
pub type Ledger = BTreeMap<u64, Witnesses>;

pub fn witnesses(report: &ValidationReport) -> Witnesses {
    let key = |v: &Violation| (v.ged_name.clone(), v.assignment.clone());
    let all = report.violations.iter();
    all.map(|v| (key(v), format!("{:?}", v.kind))).collect()
}

pub fn wire_witnesses(violations: &[WireViolation]) -> Witnesses {
    let key = |v: &WireViolation| (v.rule.clone(), v.assignment.clone());
    let all = violations.iter();
    all.map(|v| (key(v), v.kind.clone())).collect()
}

pub fn shown(report: &ValidationReport) -> Shown {
    let row = |r: &GedReport| (r.name.clone(), r.violation_count as u64, r.satisfied);
    (witnesses(report), report.per_ged.iter().map(row).collect())
}

/// The reference `report` reply line, via the tree codec. The wire sorts
/// each rule's witnesses, so `report` must come sorted; a boundary's is.
pub fn report_line(epoch: u64, report: &ValidationReport) -> Vec<u8> {
    let mut line = Vec::new();
    write_frame(&mut line, &report_to_json(epoch, report)).unwrap();
    line
}

/// The reference `violations` reply line, via the tree codec.
pub fn violations_line(epoch: u64, report: &ValidationReport) -> Vec<u8> {
    let violations = report.violations.iter().map(violation_to_json).collect();
    let tree = ok_response(vec![
        ("epoch", Json::from(epoch)),
        ("count", Json::from(report.violations.len())),
        ("violations", Json::Arr(violations)),
    ]);
    let mut line = Vec::new();
    write_frame(&mut line, &tree).unwrap();
    line
}

/// The `report` line `gedd` serves for `snap`: its rendering
/// (`ged_daemon::server::rendering`, memoised per epoch and per rule)
/// written out the way the daemon writes it.
pub fn served_report(snap: &ViolationSnapshot) -> Vec<u8> {
    let r = rendering(snap);
    let mut line = Vec::new();
    write_segmented(&mut line, r.head(), r.segments()).unwrap();
    line
}

/// The `violations` line `gedd` serves for `snap`: a head of its own and
/// the `report` rendering's segments.
pub fn served_violations(snap: &ViolationSnapshot) -> Vec<u8> {
    let head = encode_violations_head(snap.epoch(), snap.violation_count());
    let mut line = Vec::new();
    write_segmented(&mut line, &head, rendering(snap).segments()).unwrap();
    line
}

/// `Err` names the symmetric difference between what `who` shows and what
/// the oracle does.
pub fn compare(who: &str, got: &Shown, oracle: &Shown) -> Result<(), String> {
    let only = |a: &Witnesses, b: &Witnesses| -> String {
        let differs = |(key, kind): &(&Key, &String)| b.get(*key) != Some(*kind);
        format!("{:?}", a.iter().filter(differs).collect::<Vec<_>>())
    };
    if got.0 != oracle.0 {
        let (missing, extra) = (only(&oracle.0, &got.0), only(&got.0, &oracle.0));
        return Err(format!(
            "{who}: oracle only {missing}, subject only {extra}"
        ));
    }
    ensure!(got.1 == oracle.1, "{who}: per-rule rows {:?}", got.1);
    Ok(())
}

/// Hold a validator against a from-scratch `validate` of its own graph,
/// right now — for scenarios that script their own deltas.
pub fn assert_current(v: &IncrementalValidator) {
    let full = shown(&validate(v.graph(), v.sigma(), None));
    let same = compare("validator", &shown(&v.report()), &full);
    same.unwrap_or_else(|why| panic!("{why}\nfull: {full:?}"));
    assert_eq!(v.is_satisfied(), full.0.is_empty(), "verdict");
}

/// What the oracle knows at one batch boundary.
#[derive(Debug, Clone)]
pub struct Boundary {
    /// Batches applied so far (0: the initial graph), and how many of them
    /// changed the graph: the epoch every publisher must be at.
    pub batch: usize,
    pub epoch: u64,
    /// `validate(mirror, Σ, None)`, each rule's witnesses sorted, and the
    /// same comparably.
    pub report: ValidationReport,
    pub shown: Shown,
    /// The last batch: deltas that changed the graph, witnesses after it,
    /// witnesses it added, witnesses it removed.
    pub churn: [u64; 4],
}

/// The mirror graph, and the boundary it is at.
pub struct Oracle {
    pub mirror: Graph,
    pub at: Boundary,
    sigma: Vec<Rule>,
}

impl Oracle {
    pub fn new(graph: &Graph, sigma: &[Rule]) -> Oracle {
        let (mirror, sigma) = (graph.clone(), sigma.to_vec());
        let at = look(&mirror, &sigma, None);
        Oracle { mirror, at, sigma }
    }

    /// Apply `batch` to the mirror and validate from scratch.
    pub fn advance(&mut self, batch: &DeltaSet) -> &Boundary {
        let changed = |d: &&Delta| self.mirror.apply_delta(d).changed;
        let applied = batch.deltas().iter().filter(changed).count() as u64;
        self.at = look(&self.mirror, &self.sigma, Some((&self.at, applied)));
        &self.at
    }
}

/// The boundary `mirror` is at; `last` is the one before and how many
/// deltas of the batch in between changed the graph.
fn look(mirror: &Graph, sigma: &[Rule], last: Option<(&Boundary, u64)>) -> Boundary {
    // `validate` lists a rule's witnesses in enumeration order; every
    // publisher sorts them (Σ order is shared already).
    let mut report = validate(mirror, sigma, None);
    let mut rest = report.violations.as_mut_slice();
    for rule in &report.per_ged {
        let (run, tail) = rest.split_at_mut(rule.violation_count);
        run.sort_by(|a, b| a.assignment.cmp(&b.assignment));
        rest = tail;
    }
    let shown = shown(&report);
    let (batch, epoch, applied) = match last {
        Some((at, n)) => (at.batch + 1, at.epoch + u64::from(n > 0), n),
        None => (0, 0, 0),
    };
    // Against the initial boundary nothing was added or removed.
    let (new, old) = (&shown.0, last.map_or(&shown.0, |(at, _)| &at.shown.0));
    let added = new.keys().filter(|key| !old.contains_key(*key)).count();
    let removed = old.keys().filter(|key| !new.contains_key(*key)).count();
    let churn = [applied, new.len() as u64, added as u64, removed as u64];
    Boundary {
        batch,
        epoch,
        report,
        shown,
        churn,
    }
}

/// One implementation of the invariant. `step` applies the batch and holds
/// everything the subject then shows against the boundary; `finish` stops
/// what runs beside it (pollers, a daemon) and holds what those saw against
/// the ledger. Dropping a subject stops them too.
pub trait Subject {
    fn step(&mut self, batch: &DeltaSet, at: &Boundary) -> Result<(), String>;
    fn finish(&mut self, _ledger: &Ledger) -> Result<(), String> {
        Ok(())
    }
}

/// A subject's name and how to build it from the initial graph and Σ —
/// again and again, when a stream is shrunk.
pub struct Recipe(
    pub String,
    Box<dyn Fn(Graph, Vec<Rule>) -> Box<dyn Subject>>,
);

pub fn recipe<S, F>(name: &str, make: F) -> Recipe
where
    S: Subject + 'static,
    F: Fn(Graph, Vec<Rule>) -> S + 'static,
{
    let boxed = move |g, sigma| Box::new(make(g, sigma)) as Box<dyn Subject>;
    Recipe(name.to_string(), Box::new(boxed))
}

/// An `IncrementalValidator`: against the oracle (witness set, per-rule
/// counts, verdict, churn), and its value indexes against the graph.
pub fn validator() -> Recipe {
    recipe("validator", |g: Graph, sigma: Vec<Rule>| {
        Validator(IncrementalValidator::new(g, sigma))
    })
}

struct Validator(IncrementalValidator);

impl Subject for Validator {
    fn step(&mut self, batch: &DeltaSet, at: &Boundary) -> Result<(), String> {
        let v = &mut self.0;
        let stats = match batch.deltas() {
            [delta] => v.apply(delta),
            _ => v.apply_all(batch),
        };
        v.graph().assert_index_consistent();
        compare("validator", &shown(&v.report()), &at.shown)?;
        let verdict = v.is_satisfied() == at.report.satisfied();
        ensure!(verdict, "verdict {}", v.is_satisfied());
        let (added, removed) = (stats.violations_added, stats.violations_removed);
        let churn = [stats.deltas_applied, v.violation_count(), added, removed];
        ensure!(churn.map(|n| n as u64) == at.churn, "{stats:?}");
        Ok(())
    }
}

type Poll = Box<dyn FnMut() -> (u64, Witnesses) + Send>;

/// Threads polling an observer beside the writer. Each keeps the distinct
/// `(epoch, witnesses)` pairs it saw, and polls once more after the stop
/// flag — raised after the last publish, so that poll carries the final
/// epoch.
struct Pollers(Arc<AtomicBool>, Vec<JoinHandle<Vec<(u64, Witnesses)>>>);

impl Pollers {
    fn spawn(n: usize, mut connect: impl FnMut() -> Poll) -> Pollers {
        let stop = Arc::new(AtomicBool::new(false));
        let poller = |_| {
            let (stop, mut poll) = (Arc::clone(&stop), connect());
            thread::spawn(move || {
                let (mut seen, mut stopping) = (Vec::new(), false);
                while !stopping {
                    stopping = stop.load(Ordering::SeqCst);
                    let pair = poll();
                    if seen.last() != Some(&pair) {
                        seen.push(pair);
                    }
                }
                seen
            })
        };
        let threads = (0..n).map(poller).collect();
        Pollers(stop, threads)
    }

    /// Every observation is a ledger entry, and every poller's last one is
    /// the final epoch.
    fn finish(&mut self, ledger: &Ledger) -> Result<(), String> {
        self.0.store(true, Ordering::SeqCst);
        let last = ledger.keys().next_back();
        for (i, thread) in self.1.drain(..).enumerate() {
            let seen = thread.join().map_err(|_| format!("poller {i} panicked"))?;
            let torn = |(epoch, state): &&(u64, Witnesses)| ledger.get(epoch) != Some(state);
            let torn = seen.iter().find(torn);
            ensure!(torn.is_none(), "poller {i} saw a torn state: {torn:?}");
            let rested = seen.last().map(|(epoch, _)| epoch);
            ensure!(rested == last, "poller {i} rested at {rested:?}");
        }
        Ok(())
    }
}

impl Drop for Pollers {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
        self.1.drain(..).for_each(|thread| drop(thread.join()));
    }
}

/// A `ReadView` of a validator, with `pollers` concurrent readers, each
/// rendering what `gedd` serves (`server::rendering`) before it reads the
/// snapshot's `to_report`: readers of adjacent epochs race the per-rule
/// memo, and whichever of them rendered an epoch first made the bytes the
/// boundary check reads. At every boundary the snapshot's epoch,
/// `to_report`, and the served `report` and `violations` lines against
/// the reference codec; every state a reader saw at the end.
pub fn view(pollers: usize) -> Recipe {
    let name = format!("read view, {pollers} poller(s)");
    recipe(&name, move |g: Graph, sigma: Vec<Rule>| {
        let validator = IncrementalValidator::new(g, sigma);
        let view = validator.read_view();
        let pollers = Pollers::spawn(pollers, || {
            let view = view.clone();
            Box::new(move || {
                let snap = view.snapshot();
                rendering(&snap);
                (snap.epoch(), witnesses(&snap.to_report()))
            })
        });
        Viewed(validator, view, pollers)
    })
}

struct Viewed(IncrementalValidator, ReadView, Pollers);

impl Subject for Viewed {
    fn step(&mut self, batch: &DeltaSet, at: &Boundary) -> Result<(), String> {
        self.0.apply_all(batch);
        let snap = self.1.snapshot();
        ensure!(snap.epoch() == at.epoch, "snapshot at {}", snap.epoch());
        compare("snapshot", &shown(&snap.to_report()), &at.shown)?;
        let fresh = served_report(&snap) == report_line(at.epoch, &at.report);
        ensure!(fresh, "served bytes are not this epoch's report line");
        let fresh = served_violations(&snap) == violations_line(at.epoch, &at.report);
        ensure!(fresh, "served bytes are not this epoch's violations line");
        Ok(())
    }

    fn finish(&mut self, ledger: &Ledger) -> Result<(), String> {
        self.2.finish(ledger)?;
        let (rests, last) = (self.1.epoch(), ledger.keys().next_back());
        ensure!(Some(&rests) == last, "view rests at epoch {rests}");
        Ok(())
    }
}

/// The wire: an in-process `gedd` and a `ged_proto::Client`, with
/// `pollers` more clients spinning on `report`. The `apply` reply's epoch
/// (advancing iff the batch changed the graph), applied, violations, added
/// and removed, then `report`, at every boundary; every state a poller saw
/// and the epoch shutdown rests at, at the end.
pub fn wire(pollers: usize) -> Recipe {
    let name = format!("wire, {pollers} poller(s)");
    recipe(&name, move |g, sigma| {
        let daemon = spawn(g, sigma, &DaemonConfig::default()).expect("gedd spawns");
        let addr = daemon.addr();
        let connect = move || {
            let client = Client::connect(addr).expect("connect");
            let timeout = Some(Duration::from_secs(30));
            client.set_read_timeout(timeout).expect("timeout");
            client
        };
        let pollers = Pollers::spawn(pollers, || {
            let mut client = connect();
            Box::new(move || {
                let report = client.report().expect("report over the wire");
                (report.epoch, wire_witnesses(&report.violations))
            })
        });
        Wire(pollers, connect(), Some(daemon))
    })
}

struct Wire(Pollers, Client, Option<DaemonHandle>);

impl Subject for Wire {
    fn step(&mut self, batch: &DeltaSet, at: &Boundary) -> Result<(), String> {
        let reply = self.1.apply(batch.clone());
        let reply = reply.map_err(|e| format!("apply: {e}"))?;
        let churn = [reply.applied, reply.violations, reply.added, reply.removed];
        let stamped = (reply.epoch, churn) == (at.epoch, at.churn);
        ensure!(stamped, "apply reply {reply:?}");
        let report = self.1.report().map_err(|e| format!("report: {e}"))?;
        let stamp = (report.epoch, report.satisfied);
        let stamped = stamp == (at.epoch, at.report.satisfied());
        ensure!(stamped, "report stamped {stamp:?}");
        let got = (wire_witnesses(&report.violations), report.rules);
        compare("report", &got, &at.shown)
    }

    fn finish(&mut self, ledger: &Ledger) -> Result<(), String> {
        self.0.finish(ledger)?;
        let daemon = self.2.take().expect("finished once");
        let (rested, last) = (daemon.stop(), ledger.keys().next_back());
        daemon.join();
        ensure!(Some(&rested) == last, "shutdown at epoch {rested}");
        Ok(())
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        if let Some(daemon) = self.2.take() {
            daemon.stop();
            daemon.join();
        }
    }
}

/// The analyzer-pruned twin, `with_analysis`: its report
/// equals the oracle's restricted to the kept rules (by name), and every
/// pruned rule — which the oracle still validates from scratch — keeps
/// what its reason promised: no witness ever (contradictory premises,
/// entailed conclusion, dead), the same assignments as some one kept rule
/// throughout (duplicate), none wherever every kept rule holds (implied).
pub fn pruned() -> Recipe {
    recipe("pruned twin", |g: Graph, sigma: Vec<Rule>| {
        let twin = IncrementalValidator::with_analysis(g, sigma);
        let twin = twin.unwrap_or_else(|why| panic!("Σ does not deploy:\n{why}"));
        let kept = twin.sigma().iter().map(|c| c.name.clone());
        let kept: Vec<String> = kept.collect();
        let pruned = &twin.analysis().expect("built with analysis").pruned;
        let pruned = pruned.iter().map(|p| (p.name.clone(), p.why, kept.clone()));
        PrunedTwin(pruned.collect(), kept, twin)
    })
}

/// A pruned rule: name, reason and, for a duplicate, the kept rules that so
/// far carried its assignments at every boundary.
type Pruning = (String, LintKind, Vec<String>);

/// The prunings, the kept rules' names, the validator that runs only those.
struct PrunedTwin(Vec<Pruning>, Vec<String>, IncrementalValidator);

impl Subject for PrunedTwin {
    fn step(&mut self, batch: &DeltaSet, at: &Boundary) -> Result<(), String> {
        self.2.apply_all(batch);
        let mut kept = at.shown.clone();
        kept.0.retain(|key, _| self.1.contains(&key.0));
        kept.1.retain(|row| self.1.contains(&row.0));
        compare("pruned twin", &shown(&self.2.report()), &kept)?;
        let of = |rule: &str| -> BTreeSet<&Vec<NodeId>> {
            let mine = at.shown.0.keys().filter(|key| key.0 == rule);
            mine.map(|key| &key.1).collect()
        };
        for (rule, why, copies) in &mut self.0 {
            let mine = of(rule);
            let kept_its_promise = match why {
                LintKind::ImpliedRule => !kept.0.is_empty() || mine.is_empty(),
                LintKind::DuplicateRule => {
                    copies.retain(|copy| of(copy) == mine);
                    !copies.is_empty()
                }
                _ => mine.is_empty(),
            };
            ensure!(kept_its_promise, "{rule}, pruned as {why}, has {mine:?}");
        }
        Ok(())
    }
}

/// Where a subject first differed from the oracle: its name, the boundary
/// counted in batches (0: the initial graph), and how.
pub type Divergence = (String, usize, String);

/// A panic in a subject is a divergence like any other.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let text = payload.downcast_ref::<String>().map(String::as_str);
        let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
        Err(format!("panicked: {}", text.unwrap_or("(no message)")))
    })
}

/// Feed the batches `next` yields to the oracle and to a fresh subject per
/// recipe, boundary by boundary. `Ok` is the rules that had a witness at
/// some boundary, `Err` the first divergence and the stream up to it.
fn drive(
    (graph, sigma): (&Graph, &[Rule]),
    recipes: &[&Recipe],
    mut next: impl FnMut(&Oracle) -> Option<DeltaSet>,
) -> Result<BTreeSet<String>, (Divergence, Vec<DeltaSet>)> {
    let mut oracle = Oracle::new(graph, sigma);
    let mut stream: Vec<DeltaSet> = Vec::new();
    let mut subjects: Vec<(&String, Box<dyn Subject>)> = Vec::new();
    for Recipe(name, make) in recipes {
        match guarded(|| Ok(make(graph.clone(), sigma.to_vec()))) {
            Ok(subject) => subjects.push((name, subject)),
            Err(why) => return Err(((name.clone(), 0, why), stream)),
        }
    }
    let (mut ledger, mut fired) = (Ledger::new(), BTreeSet::new());
    let mut deltas = DeltaSet::new(); // the initial boundary: an empty batch
    loop {
        let at = &oracle.at;
        ledger.insert(at.epoch, at.shown.0.clone());
        fired.extend(at.shown.0.keys().map(|key| key.0.clone()));
        for (name, subject) in &mut subjects {
            if let Err(why) = guarded(|| subject.step(&deltas, at)) {
                let (epoch, churn) = (at.epoch, at.churn);
                let why = format!("{why}\noracle: epoch {epoch}, churn {churn:?}");
                return Err(((name.to_string(), at.batch, why), stream));
            }
        }
        let Some(batch) = next(&oracle) else { break };
        oracle.advance(&batch);
        stream.push(batch.clone());
        deltas = batch;
    }
    for (name, subject) in &mut subjects {
        if let Err(why) = guarded(|| subject.finish(&ledger)) {
            let why = format!("{why}\nfinal epoch {}", oracle.at.epoch);
            return Err(((name.to_string(), oracle.at.batch, why), stream));
        }
    }
    Ok(fired)
}

/// Replays `stream`, for [`drive`].
fn fixed(stream: &[DeltaSet]) -> impl FnMut(&Oracle) -> Option<DeltaSet> + '_ {
    let mut batches = stream.iter();
    move |_| batches.next().cloned()
}

/// Drop chunks of `items`, halving the chunk, while the rest still fails.
fn minimize<T: Clone>(mut items: Vec<T>, fails: &mut impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut chunk = items.len().div_ceil(2).max(1);
    loop {
        let mut at = 0;
        while at < items.len() {
            let mut rest = items.clone();
            rest.drain(at..(at + chunk).min(items.len()));
            if fails(&rest) {
                items = rest;
            } else {
                at += chunk;
            }
        }
        if chunk == 1 {
            return items;
        }
        chunk = chunk.div_ceil(2);
    }
}

/// Shrink a failing stream: whole batches first, then single deltas, each
/// candidate re-run through a fresh subject and a fresh oracle from the
/// initial graph; at most 300 re-runs (returned beside the stream).
fn shrink(
    start: (&Graph, &[Rule]),
    recipe: &Recipe,
    stream: Vec<DeltaSet>,
) -> (Vec<DeltaSet>, usize) {
    let mut reruns = 0;
    let mut fails = |stream: &[DeltaSet]| {
        reruns += 1;
        reruns <= 300 && drive(start, &[recipe], fixed(stream)).is_err()
    };
    let batches = minimize(stream, &mut fails);
    let regroup = |flat: &[(usize, Delta)]| -> Vec<DeltaSet> {
        let batch = |g: &[(usize, Delta)]| g.iter().map(|(_, d)| d.clone()).collect();
        flat.chunk_by(|a, b| a.0 == b.0).map(batch).collect()
    };
    let mut flat: Vec<(usize, Delta)> = Vec::new();
    for (i, batch) in batches.iter().enumerate() {
        flat.extend(batch.deltas().iter().map(|d| (i, d.clone())));
    }
    let flat = minimize(flat, &mut |flat| fails(&regroup(flat)));
    (regroup(&flat), reruns.min(300))
}

/// Run the batches `next` yields, until `None`, through a subject per
/// recipe. `Ok` is the rules that had a witness at some boundary; `Err` is
/// the report: seed (what made the stream), batch, subject, what differed,
/// and the shrunk stream, one `apply` frame per line, for [`replay`].
pub fn try_run(
    start: (&Graph, &[Rule]),
    recipes: &[Recipe],
    seed: u64,
    next: impl FnMut(&Oracle) -> Option<DeltaSet>,
) -> Result<BTreeSet<String>, String> {
    let all: Vec<&Recipe> = recipes.iter().collect();
    drive(start, &all, next).map_err(|((subject, batch, detail), stream)| {
        let culprit = all.iter().find(|r| r.0 == subject);
        let culprit = culprit.expect("a subject of this run");
        let (minimal, reruns) = shrink(start, culprit, stream);
        let deltas: usize = minimal.iter().map(DeltaSet::len).sum();
        let frame = |batch: &DeltaSet| Request::Apply(batch.clone()).to_json();
        let frames: Vec<String> = minimal.iter().map(|b| frame(b).to_string()).collect();
        let shrunk = format!("{deltas} delta(s) after {reruns} re-run(s)");
        let head = format!("lockstep diverged: seed {seed}, batch {batch}, {subject}");
        let hint = "`replay` these `apply` frames from the same graph, Σ and subject";
        format!(
            "{head}\n{detail}\nminimal stream, {shrunk}; {hint}:\n{}\n",
            frames.join("\n")
        )
    })
}

/// A Σ of any family, compiled into the one rule type.
pub fn served<C: Into<Rule>>(sigma: impl IntoIterator<Item = C>) -> Vec<Rule> {
    sigma.into_iter().map(Into::into).collect()
}

/// `0..n` as a value pool.
pub fn ints(n: i64) -> Vec<Value> {
    (0..n).map(Value::from).collect()
}

/// The random workloads' vocabulary: the planted key and the two
/// attributes the random rules read.
pub fn key_attrs() -> [Symbol; 3] {
    [sym("key"), sym("attr0"), sym("attr1")]
}

/// [`try_run`] on generated traffic — a [`DeltaStream`] of `seed` over the
/// vocabulary `attrs` and the value `pool`, `batches` batches of `draws`
/// draws — panicking with the report on a divergence.
pub fn run(
    start: (&Graph, &[Rule]),
    (seed, attrs, pool): (u64, &[Symbol], &[Value]),
    (batches, draws): (usize, usize),
    recipes: &[Recipe],
) -> BTreeSet<String> {
    let mut stream = DeltaStream::new(seed, attrs, pool);
    let mut batches = 0..batches;
    let mut batch = |oracle: &Oracle| stream.batch(&oracle.mirror, draws);
    let next = |oracle: &Oracle| batches.next().map(|_| batch(oracle));
    try_run(start, recipes, seed, next).unwrap_or_else(|report| panic!("{report}"))
}

/// Run a printed reproducer — one `apply` frame per line — through one
/// subject: paste the lines into a test, assert `Ok` once the bug is fixed.
pub fn replay(start: (&Graph, &[Rule]), recipe: &Recipe, lines: &str) -> Result<(), Divergence> {
    let frames = lines.lines().map(str::trim).filter(|line| !line.is_empty());
    let batch = |line: &str| match Request::from_line(line) {
        Some(Request::Apply(batch)) => batch,
        _ => panic!("not an `apply` frame: {line}"),
    };
    let stream: Vec<DeltaSet> = frames.map(batch).collect();
    let run = drive(start, &[recipe], fixed(&stream));
    run.map(drop).map_err(|(found, _)| found)
}

// ---------------------------------------------------------------------
// Σ families more than one suite runs.
// ---------------------------------------------------------------------

fn ged(name: &str, pattern: &str, x: Vec<Literal>, y: Vec<Literal>) -> Ged {
    Ged::new(name, parse_pattern(pattern).unwrap(), x, y)
}

/// Wildcard node and edge labels: every node matches, every edge matches —
/// the widest affected areas the matcher can produce. Beside them a rule
/// over `e0`, a label the random graph and the stream draw, so an `e0`
/// edge delta has a rule set of its own, which must hold the wildcard-edge
/// rules too.
pub fn wildcard_sigma() -> Vec<Ged> {
    let (k, a0, x, y) = (sym("key"), sym("attr0"), Var(0), Var(1));
    let agree = || vec![Literal::vars(x, a0, y, a0)];
    let (same_key, same_node) = (vec![Literal::vars(x, k, y, k)], vec![Literal::id(x, y)]);
    vec![
        ged("wild-agree", "_(x) -[_]-> _(y)", vec![], agree()),
        ged("wild-key", "_(x); _(y)", same_key.clone(), same_node),
        ged("e0-agree", "_(x) -[e0]-> _(y)", same_key, agree()),
    ]
}

/// Rules whose premises the join filter must decide exactly as
/// `GdcLiteral::holds` does: a cross-attribute join over an edge (either
/// side may lose its attribute), a same-variable premise, a constant beside
/// a join, the disconnected key:entity rule, a GDC with an `=` and a `<`
/// premise (the `=` premise is pushed, `<` is left to `check`), and a key
/// whose second component is wildcard-labelled —
/// the engine indexes `(entity, key)` for both key rules, so `x` is probed
/// when `y` is assigned first, while `y` after `x` can only scan. Over a
/// small two-label random graph with four planted key pairs.
pub fn pushdown_workload() -> (Graph, Vec<Rule>) {
    use ged_datagen::random::{plant_key_violations, random_graph, RandomGraphConfig};
    let cfg = RandomGraphConfig {
        n_nodes: 70,
        n_edges: 160,
        n_labels: 2,
        value_range: 3,
        seed: 61,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let key = plant_key_violations(&mut g, "entity", 4);
    let (k, a0, a1) = (sym("key"), sym("attr0"), sym("attr1"));
    let (x, y, z, eq) = (Var(0), Var(1), Var(2), Literal::vars);
    let (same_key, same_node) = (|| vec![eq(x, k, y, k)], |a, b| vec![Literal::id(a, b)]);
    let edge = "_(x) -[_]-> _(y)";
    let cross = ged("cross-join", edge, vec![eq(x, a0, y, a1)], same_key());
    let own_key = vec![eq(x, k, x, k)];
    let same = ged("same-var", "_(x)", vec![eq(x, a0, x, a1)], own_key);
    let fork = "_(x) <-[_]- _(y) -[_]-> _(z)";
    let premises = vec![Literal::constant(y, a0, 1), eq(x, a1, z, a1)];
    let beside = ged("const-and-join", fork, premises, same_node(x, z));
    let premises = vec![
        GdcLiteral::vars(x, a0, Pred::Eq, y, a0),
        GdcLiteral::vars(x, a1, Pred::Lt, y, a1),
    ];
    let differ = vec![GdcLiteral::vars(x, k, Pred::Ne, y, k)];
    let inexact = Gdc::new("inexact", parse_pattern(edge).unwrap(), premises, differ);
    let wild = ged("wild-key", "entity(x); _(y)", same_key(), same_node(x, y));
    let sigma = [key, cross, same, beside].map(Rule::from);
    let (inexact, wild) = (inexact.into(), wild.into());
    (g, sigma.into_iter().chain([inexact, wild]).collect())
}
