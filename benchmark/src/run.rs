//! One repetition: a fresh `gedd`, a warm-up, the timed window, the oracle.

use crate::child::{clock_ticks_per_s, encode, Conn, Gedd};
use crate::oracle;
use crate::speed::{slowdown, SpeedMeter};
use crate::stats::percentile;
use crate::stream::Stream;
use crate::trace::Tracer;
use crate::workloads::{Load, Workload};
use ged_ext::SigmaConstraint;
use ged_graph::{DeltaSet, Graph};
use ged_proto::client::unwrap_ok;
use ged_proto::message::{apply_from_json, report_from_json, violation_from_json};
use ged_proto::{ApplyReply, Json, ReportReply, Request, WireViolation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Shares of a closed-loop repetition's window.
const WARM_SHARE: f64 = 0.05;
const REPORT_SHARE: f64 = 0.25;
/// Round trips behind each of `daemon.health_rtt_us` / `empty_apply_rtt_us`.
const PROBES: usize = 1000;
/// On `poll-under-writes` every n-th observed report is kept and checked
/// against the mirror at the epoch it was pinned to.
const CHECK_EVERY: usize = 50;
/// A waiting generator thread times a kernel round only with this much of
/// its wait left, so that the round does not make it late.
const ROUND_ROOM: Duration = Duration::from_micros(500);

/// The state `gedd` starts from, rebuilt locally (datagen is deterministic).
#[derive(Debug)]
pub struct Start {
    /// Start graph.
    pub graph: Graph,
    /// Σ.
    pub sigma: Vec<SigmaConstraint>,
    /// Seconds `workload::load` took here (`daemon.setup_load_s`).
    pub load_s: f64,
}

impl Start {
    /// Build the start state of `w` for `seed`.
    pub fn load(w: &Workload, seed: u64) -> Result<Start, String> {
        let began = Instant::now();
        let (graph, sigma) = ged_daemon::workload::load(&w.spec(seed))?;
        Ok(Start {
            graph,
            sigma,
            load_s: began.elapsed().as_secs_f64(),
        })
    }
}

/// What a repetition is run with.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The release `gedd` binary.
    pub gedd: PathBuf,
    /// Seed of the start graph and of the stream.
    pub seed: u64,
    /// Seconds one repetition measures (warm-up included).
    pub window_s: f64,
    /// Record spans, keep frames, fix op counts.
    pub traced: bool,
    /// Drop one witness from the oracle's set: the run must then fail.
    pub corrupt_oracle: bool,
}

/// One acknowledged operation of a timed window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Op id (spans are on for even ids in a traced run).
    pub op: u64,
    /// Request sent (or due, when paced) → reply decoded.
    pub lat_ns: u64,
    /// Completion on the window's clock.
    pub done_ns: u64,
    /// Deltas acknowledged, or 1 for a report.
    pub units: u64,
}

/// The operations of one kind in a window.
#[derive(Debug, Default)]
pub struct Timed {
    /// In completion order.
    pub samples: Vec<Sample>,
    /// Length of the window on the samples' clock (ns).
    pub window_ns: u64,
    /// The host's slowdown over the window (see [`crate::speed`]).
    pub slowdown: f64,
}

impl Timed {
    /// Ascending latencies (ns).
    pub fn sorted_ns(&self) -> Vec<u64> {
        let mut lat: Vec<u64> = self.samples.iter().map(|s| s.lat_ns).collect();
        lat.sort_unstable();
        lat
    }

    /// `(completion, units)` pairs for the slice rate.
    pub fn events(&self) -> Vec<(u64, u64)> {
        self.samples.iter().map(|s| (s.done_ns, s.units)).collect()
    }
}

/// Operations attempted and failed (transport error, `ok:false`, wrong answer).
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

/// What only the traced run collects.
#[derive(Debug)]
pub struct Traced {
    /// Spans around the generator's wire calls (every other op).
    pub tracer: Tracer,
    /// Request frames of the timed window, for the in-process replay.
    pub frames: Vec<Vec<u8>>,
    /// The child's `metrics` when the window opened and closed.
    pub metrics: (Json, Json),
    /// p50 of `health` round trips (µs).
    pub health_rtt_us: f64,
    /// p50 of empty-`apply` round trips (µs).
    pub empty_apply_rtt_us: f64,
    /// Paced writer: actual send − due time (ns).
    pub lateness_ns: Vec<u64>,
    /// Nanoseconds the oracle's from-scratch `validate` took.
    pub validate_ns: u64,
    /// The mirror when the window opened — where the replay starts.
    pub window_start: Graph,
}

/// Everything one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// `gedd` spawn → first `health` reply (s).
    pub setup_s: f64,
    /// The host's slowdown over the whole repetition: while the child sets
    /// up, the generator waits for it and cannot time its kernel on the CPU
    /// the two share, so `setup_s` goes by the seconds that follow it.
    pub setup_slowdown: f64,
    /// `apply` operations of the timed window.
    pub applies: Timed,
    /// `report` operations of the timed window.
    pub reports: Timed,
    /// Child CPU over the apply window (µs).
    pub cpu_us: f64,
    /// Child `VmHWM` at the end (MB).
    pub peak_rss_mb: f64,
    /// Failure accounting.
    pub tally: Tally,
    /// Did every witness set match the oracle, and the child exit 0?
    pub correct: bool,
    /// Traced run only.
    pub traced: Option<Traced>,
}

/// A phase ends once `ops` operations are done and, if set, `time` of the
/// timed clock has passed. Untraced runs measure for a time; the traced
/// run sends fixed counts, so the engine's counters repeat exactly.
struct Budget {
    time: Option<Duration>,
    ops: usize,
}

impl Budget {
    fn spent(&self, timed: Duration, ops: usize) -> bool {
        ops >= self.ops && self.time.is_none_or(|t| timed >= t)
    }
}

/// Span names of one request kind.
struct Names {
    root: &'static str,
    rtt: &'static str,
    decode: &'static str,
}

const APPLY: Names = Names {
    root: "client.apply",
    rtt: "client.rtt",
    decode: "client.decode",
};
const REPORT: Names = Names {
    root: "client.report",
    rtt: "client.report_rtt",
    decode: "client.report_decode",
};

/// In a traced run every other op carries spans; the rest are the control
/// group for `trace.overhead_ratio`.
pub fn spans_on(op: u64) -> bool {
    op.is_multiple_of(2)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One connection with its failure count, the speed meter of the thread
/// that drives it and, in a traced run, its spans.
struct Session {
    conn: Conn,
    tally: Tally,
    meter: SpeedMeter,
    tracer: Option<Tracer>,
}

impl Session {
    fn new(conn: Conn, origin: Instant, traced: bool) -> Session {
        Session {
            conn,
            tally: Tally::default(),
            meter: SpeedMeter::new(),
            tracer: traced.then(|| Tracer::new(origin)),
        }
    }

    /// Send one frame, read and decode its reply. Returns the decoded
    /// reply with the instants the frame left and the reply was decoded.
    fn exchange<T>(
        &mut self,
        frame: &[u8],
        decode: impl FnOnce(&Json) -> Result<T, String>,
        span: Option<(&Names, u64)>,
    ) -> Result<(T, Instant, Instant), String> {
        let span = span.filter(|_| self.tracer.is_some());
        let sent = Instant::now();
        self.conn.send(frame).map_err(|e| e.to_string())?;
        let line = self.conn.recv().map_err(|e| e.to_string())?;
        let got = span.is_some().then(Instant::now);
        let reply = Json::parse(line).map_err(|e| e.to_string())?;
        let reply = unwrap_ok(reply).map_err(|e| e.to_string())?;
        let value = decode(&reply)?;
        let done = Instant::now();
        if let (Some((names, op)), Some(got), Some(t)) = (span, got, self.tracer.as_mut()) {
            let root = t.push(names.root, op, None, sent, done);
            t.push(names.rtt, op, Some(root), sent, got);
            t.push(names.decode, op, Some(root), got, done);
        }
        Ok((value, sent, done))
    }

    /// Send one pre-encoded `apply`. Latency runs from `from` (the due time
    /// of a paced request) or the send to the decoded reply. Every delta
    /// of a generated batch changes the graph, so a reply that applied
    /// fewer is a wrong answer.
    fn apply(
        &mut self,
        frame: &[u8],
        batch: usize,
        op: u64,
        spans: bool,
        from: Option<Instant>,
    ) -> Option<(ApplyReply, u64, Instant)> {
        self.tally.attempted += 1;
        let span = spans.then_some((&APPLY, op));
        match self.exchange(frame, apply_from_json, span) {
            Ok((reply, _, _)) if reply.applied != batch as u64 => {
                let message = format!("apply changed {} of {batch} deltas", reply.applied);
                self.tally.fail(message);
                None
            }
            Ok((reply, sent, done)) => Some((reply, ns(done - from.unwrap_or(sent)), done)),
            Err(e) => {
                self.tally.fail(format!("apply: {e}"));
                None
            }
        }
    }

    /// One `report` poll; the reply must be pinned no earlier than `floor`.
    fn report(
        &mut self,
        frame: &[u8],
        op: u64,
        spans: bool,
        floor: u64,
    ) -> Option<(ReportReply, u64, Instant)> {
        self.tally.attempted += 1;
        let span = spans.then_some((&REPORT, op));
        match self.exchange(frame, report_from_json, span) {
            Ok((reply, _, _)) if reply.epoch < floor => {
                let message = format!("report epoch went back: {} < {floor}", reply.epoch);
                self.tally.fail(message);
                None
            }
            Ok((reply, sent, done)) => Some((reply, ns(done - sent), done)),
            Err(e) => {
                self.tally.fail(format!("report: {e}"));
                None
            }
        }
    }

    /// The child's engine metrics (a JSON object owned by `ged-engine`).
    fn metrics(&mut self) -> Json {
        self.tally.attempted += 1;
        match self.conn.call(&Request::Metrics) {
            Ok(reply) => reply.get("metrics").cloned().unwrap_or(Json::Null),
            Err(e) => {
                self.tally.fail(format!("metrics: {e}"));
                Json::Null
            }
        }
    }

    /// `PROBES` closed-loop round trips of one small frame; p50 in µs.
    fn probe(&mut self, req: &Request) -> f64 {
        let frame = encode(req);
        let mut lat = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            self.tally.attempted += 1;
            match self.exchange(&frame, |_| Ok(()), None) {
                Ok(((), sent, done)) => lat.push(ns(done - sent)),
                Err(e) => self.tally.fail(format!("probe: {e}")),
            }
        }
        lat.sort_unstable();
        if lat.is_empty() {
            return 0.0;
        }
        percentile(&lat, 50.0) as f64 / 1e3
    }

    /// The two floors under `apply_p50_us`: a `health` round trip (no
    /// writer hop, no engine) and an empty `apply` (writer hop, no work).
    fn probes(&mut self) -> (f64, f64) {
        (
            self.probe(&Request::Health),
            self.probe(&Request::Apply(DeltaSet::new())),
        )
    }

    fn fetch_violations(&mut self) -> Result<Vec<WireViolation>, String> {
        let reply = self.conn.call(&Request::Violations)?;
        reply
            .get_arr("violations")
            .ok_or("reply needs `violations`")?
            .iter()
            .map(violation_from_json)
            .collect()
    }

    /// Final check of a repetition: the child's witness set against a
    /// from-scratch `validate` of the mirror; then `shutdown`, exit code 0.
    /// Returns `(correct, peak RSS in MB, ns the validate took)`.
    fn finish(
        &mut self,
        gedd: Gedd,
        mirror: &Graph,
        sigma: &[SigmaConstraint],
        corrupt_oracle: bool,
    ) -> (bool, f64, u64) {
        let began = Instant::now();
        let mut expected = oracle::expected(mirror, sigma);
        let validate_ns = ns(began.elapsed());
        if corrupt_oracle {
            expected.pop();
        }
        self.tally.attempted += 2;
        let mut correct = true;
        let seen = self.fetch_violations();
        if let Err(e) = seen.and_then(|seen| oracle::compare(seen, &expected)) {
            self.tally.fail(format!("oracle: {e}"));
            correct = false;
        }
        let peak_rss_mb = gedd.peak_rss_mb();
        if let Err(e) = gedd.shutdown(&mut self.conn) {
            self.tally.fail(format!("shutdown: {e}"));
            correct = false;
        }
        (correct, peak_rss_mb, validate_ns)
    }
}

/// Build a large, long-lived value on a helper thread, so that it lives in
/// that thread's malloc arena and not in the caller's. `gedd` builds its
/// graph on the main thread and parses requests on handler threads whose
/// arenas hold nothing else; with a 200k-node graph in the same arena,
/// encoding or parsing a 512-delta frame here took 2–3× as long (≈ 1.1 ms
/// against ≈ 0.4 ms), which inflated both the replay's `proto.*` times and
/// the generator's share of a run.
pub fn off_thread<T: Send>(build: impl FnOnce() -> T + Send) -> T {
    thread::scope(|s| s.spawn(build).join().expect("helper thread panicked"))
}

/// Wait for `when` without giving up the CPU. A generator thread that
/// sleeps lets its vCPU go idle, and on this virtualised host what a request
/// after an idle gap then pays depends on the host's mood: for minutes on
/// end the paced writer's p50 read ≈ 500 µs instead of ≈ 220 µs, with
/// sleeping and spinning runs alternated in the same minutes reading
/// 479/571 µs against 198/225 µs. The pause belongs to the generator, not to
/// `gedd`, so it is spent spinning — and, while there is room, timing the
/// kernel that tells how fast this host runs just now.
fn spin_until(when: Instant, meter: &mut SpeedMeter) {
    loop {
        let left = when.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > ROUND_ROOM {
            meter.tick();
        } else {
            std::hint::spin_loop();
        }
    }
}

fn cpu_us_since(gedd: &Gedd, ticks0: u64) -> f64 {
    gedd.cpu_ticks().saturating_sub(ticks0) as f64 / clock_ticks_per_s() * 1e6
}

/// Run one repetition of `w`.
pub fn repetition(w: &Workload, start: &Start, o: &Opts) -> Result<Rep, String> {
    match w.load {
        Load::ClosedLoop { block } => closed_loop(w, block, start, o),
        Load::PollUnderWrites { period, think } => poll_under_writes(w, (period, think), start, o),
    }
}

/// The one-connection closed loop over the stream.
struct ClosedLoop {
    stream: Stream,
    session: Session,
    block: usize,
    batch: usize,
    op: u64,
}

impl ClosedLoop {
    /// Generate a block of frames off the clock, send it on the clock,
    /// until the budget is spent. With `record`, even ops get spans and the
    /// frames are handed back for the replay.
    fn apply_phase(
        &mut self,
        budget: &Budget,
        record: bool,
    ) -> (Timed, Option<ApplyReply>, Vec<Vec<u8>>) {
        let mut out = Timed::default();
        let mut last = None;
        let mut kept = Vec::new();
        let mut timed = Duration::ZERO;
        let mut ops = 0;
        let opened = Instant::now();
        self.session.meter.round();
        while !budget.spent(timed, ops) {
            let frames: Vec<Vec<u8>> = (self.op..self.op + self.block as u64)
                .map(|op| {
                    let request = Request::Apply(self.stream.next_batch());
                    match self.session.tracer.as_mut() {
                        Some(t) if record && spans_on(op) => {
                            t.time("client.encode", op, None, || encode(&request)).0
                        }
                        _ => encode(&request),
                    }
                })
                .collect();
            let block_began = Instant::now();
            // Kernel rounds fall between two requests and off the clock.
            let mut paused = Duration::ZERO;
            for frame in &frames {
                paused += self.session.meter.tick();
                let spans = record && spans_on(self.op);
                let sent = self.session.apply(frame, self.batch, self.op, spans, None);
                if let Some((reply, lat_ns, done)) = sent {
                    out.samples.push(Sample {
                        op: self.op,
                        lat_ns,
                        done_ns: ns(timed + (done - block_began) - paused),
                        units: self.batch as u64,
                    });
                    last = Some(reply);
                }
                self.op += 1;
                ops += 1;
            }
            timed += block_began.elapsed() - paused;
            if record {
                kept.extend(frames);
            }
        }
        out.window_ns = ns(timed);
        out.slowdown = slowdown(self.session.meter.rounds_in(opened, Instant::now()));
        (out, last, kept)
    }
}

fn closed_loop(w: &Workload, block: usize, start: &Start, o: &Opts) -> Result<Rep, String> {
    let origin = Instant::now();
    let stream = off_thread(|| Stream::new(w.stream, start.graph.clone(), &start.sigma, o.seed));
    let (gedd, conn) = Gedd::spawn(&o.gedd, &w.spec(o.seed), w.pinned())?;
    let mut cl = ClosedLoop {
        stream,
        session: Session::new(conn, origin, o.traced),
        block,
        batch: w.stream.batch,
        op: 0,
    };
    let budget = |share: f64, per_s: f64, at_least: usize| {
        if o.traced {
            let ops = (per_s * o.window_s * share).ceil() as usize;
            Budget {
                time: None,
                ops: ops.max(at_least),
            }
        } else {
            Budget {
                time: Some(Duration::from_secs_f64(o.window_s * share)),
                ops: at_least,
            }
        }
    };

    // Warm-up: long enough that the first scheduled inverses have arrived,
    // so the window sees the stream's steady state.
    let settle = w.stream.lag as usize + 1;
    cl.apply_phase(&budget(WARM_SHARE, w.nominal_batches_per_s, settle), false);

    // Traced run: where the replay starts, the two floors, the counters.
    let before = o.traced.then(|| {
        let window_start = off_thread(|| cl.stream.mirror().clone());
        (window_start, cl.session.probes(), cl.session.metrics())
    });
    let ticks0 = gedd.cpu_ticks();
    let apply_share = 1.0 - WARM_SHARE - REPORT_SHARE;
    let (applies, last, frames) =
        cl.apply_phase(&budget(apply_share, w.nominal_batches_per_s, 1), o.traced);
    let cpu_us = cpu_us_since(&gedd, ticks0);
    let m1 = o.traced.then(|| cl.session.metrics());

    // Quiescent read phase: every report is pinned to the last batch and
    // carries as many witnesses as that batch's reply announced.
    let last = last.ok_or("no apply succeeded in the window")?;
    let report_budget = budget(REPORT_SHARE, w.nominal_reports_per_s, 1);
    let frame = encode(&Request::Report);
    let mut reports = Timed::default();
    let began = Instant::now();
    let mut paused = cl.session.meter.round();
    while !report_budget.spent(began.elapsed() - paused, reports.samples.len()) {
        paused += cl.session.meter.tick();
        let spans = spans_on(cl.op);
        let polled = cl.session.report(&frame, cl.op, spans, last.epoch);
        let (reply, lat_ns, done) = polled.ok_or("a quiescent report failed")?;
        if reply.epoch != last.epoch || reply.violations.len() as u64 != last.violations {
            return Err(format!(
                "quiescent report: epoch {} with {} witnesses, expected epoch {} with {}",
                reply.epoch,
                reply.violations.len(),
                last.epoch,
                last.violations
            ));
        }
        reports.samples.push(Sample {
            op: cl.op,
            lat_ns,
            done_ns: ns(done - began - paused),
            units: 1,
        });
        cl.op += 1;
    }
    reports.window_ns = ns(began.elapsed() - paused);
    reports.slowdown = slowdown(cl.session.meter.rounds_in(began, Instant::now()));

    let setup_s = gedd.setup_s;
    let (correct, peak_rss_mb, validate_ns) =
        cl.session
            .finish(gedd, cl.stream.mirror(), &start.sigma, o.corrupt_oracle);
    let traced = before.map(|(window_start, probes, m0)| Traced {
        tracer: cl
            .session
            .tracer
            .take()
            .expect("a traced session has a tracer"),
        frames,
        metrics: (m0, m1.unwrap_or(Json::Null)),
        health_rtt_us: probes.0,
        empty_apply_rtt_us: probes.1,
        lateness_ns: Vec::new(),
        validate_ns,
        window_start,
    });
    Ok(Rep {
        setup_s,
        setup_slowdown: slowdown(cl.session.meter.rounds()),
        applies,
        reports,
        cpu_us,
        peak_rss_mb,
        tally: cl.session.tally,
        correct,
        traced,
    })
}

/// What the paced writer hands back.
struct Written {
    applies: Timed,
    /// `(epoch the reply announced, the batch)`, warm-up included.
    batches: Vec<(u64, DeltaSet)>,
    frames: Vec<Vec<u8>>,
    lateness_ns: Vec<u64>,
    metrics: (Json, Json),
    window_start: Option<Graph>,
    cpu_us: f64,
    opened: Instant,
    closed: Instant,
}

/// The open-loop writer of `poll-under-writes`: one batch falls due in every
/// `period`, whatever the replies do.
fn paced_writer(
    mut arrivals: StdRng,
    stream: &mut Stream,
    session: &mut Session,
    gedd: &Gedd,
    period: Duration,
    (warm, total): (usize, usize),
    batch: usize,
) -> Written {
    let traced = session.tracer.is_some();
    let mut out = Written {
        applies: Timed::default(),
        batches: Vec::new(),
        frames: Vec::new(),
        lateness_ns: Vec::new(),
        metrics: (Json::Null, Json::Null),
        window_start: None,
        cpu_us: 0.0,
        opened: Instant::now(),
        closed: Instant::now(),
    };
    let mut ticks0 = 0;
    let began = Instant::now();
    let mut last_done = began;
    for k in 0..warm + total {
        if k == warm {
            out.opened = Instant::now();
            ticks0 = gedd.cpu_ticks();
            if traced {
                out.window_start = Some(stream.mirror().clone());
                out.metrics.0 = session.metrics();
            }
        }
        let op = k as u64;
        let spans = k >= warm && spans_on(op);
        let deltas = stream.next_batch();
        let request = Request::Apply(deltas.clone());
        let frame = match session.tracer.as_mut() {
            Some(t) if spans => t.time("client.encode", op, None, || encode(&request)).0,
            _ => encode(&request),
        };
        // One batch per `period` slot, due at a seeded random instant within
        // the slot. Due exactly every `period`, the writer phase-locks with
        // the poller's near-periodic cycle, and whole runs land in or out of
        // the span where the reader pins the snapshot (writer p50 196–485 µs
        // between identical runs).
        let within = f64::from(arrivals.random_range(0..1_000_000u32)) / 1e6;
        let due = began + period.mul_f64(k as f64 + within);
        spin_until(due, &mut session.meter);
        let late = ns(Instant::now().saturating_duration_since(due));
        // Open loop: a request the previous reply held up is timed from
        // when it was due, so a stall is charged to every request it
        // delays. One that is late only by the generator's own timer and
        // scheduling (`client.writer_lateness_us`) is timed from its send:
        // that wait is not the server's.
        let from = (last_done > due).then_some(due);
        let sent = session.apply(&frame, batch, op, spans, from);
        let Some((reply, lat_ns, done)) = sent else {
            continue;
        };
        last_done = done;
        out.batches.push((reply.epoch, deltas));
        if k >= warm {
            out.applies.samples.push(Sample {
                op,
                lat_ns,
                done_ns: ns(done - out.opened),
                units: batch as u64,
            });
            out.lateness_ns.push(late);
            if traced {
                out.frames.push(frame);
            }
        }
    }
    out.closed = Instant::now();
    out.cpu_us = cpu_us_since(gedd, ticks0);
    if traced {
        out.metrics.1 = session.metrics();
    }
    out.applies.window_ns = ns(out.closed - out.opened);
    out
}

fn poll_under_writes(
    w: &Workload,
    (period, think): (Duration, Duration),
    start: &Start,
    o: &Opts,
) -> Result<Rep, String> {
    let origin = Instant::now();
    let mut stream =
        off_thread(|| Stream::new(w.stream, start.graph.clone(), &start.sigma, o.seed));
    let (gedd, control) = Gedd::spawn(&o.gedd, &w.spec(o.seed), w.pinned())?;
    let connect = || Conn::connect(gedd.addr).map_err(|e| e.to_string());
    let mut control = Session::new(control, origin, false);
    let mut session_a = Session::new(connect()?, origin, o.traced);
    let mut session_b = Session::new(connect()?, origin, o.traced);
    let probes = if o.traced {
        control.probes()
    } else {
        (0.0, 0.0)
    };

    // The writer's pace fixes its op count in traced and untraced runs alike.
    let total = (o.window_s / period.as_secs_f64()).round() as usize;
    let warm = ((total as f64 * WARM_SHARE).ceil() as usize).max(w.stream.lag as usize + 1);
    let writer_done = AtomicBool::new(false);

    let (mut written, polls, samples) = thread::scope(|s| {
        let writer = s.spawn(|| {
            let counts = (warm, total);
            let batch = w.stream.batch;
            // Its own generator, so the arrival times do not shift the deltas.
            let arrivals = StdRng::seed_from_u64(o.seed ^ 0xA881_7A15);
            let out = paced_writer(
                arrivals,
                &mut stream,
                &mut session_b,
                &gedd,
                period,
                counts,
                batch,
            );
            writer_done.store(true, Ordering::SeqCst);
            out
        });
        // Connection A: closed-loop poller, until the writer is through.
        let frame = encode(&Request::Report);
        let mut polls: Vec<(Instant, Sample)> = Vec::new();
        let mut samples: Vec<ReportReply> = Vec::new();
        let mut floor = 0;
        let mut op = 1u64 << 32;
        while !writer_done.load(Ordering::SeqCst) {
            if let Some((reply, lat_ns, done)) = session_a.report(&frame, op, spans_on(op), floor) {
                floor = reply.epoch;
                let sample = Sample {
                    op,
                    lat_ns,
                    done_ns: 0,
                    units: 1,
                };
                polls.push((done, sample));
                if polls.len().is_multiple_of(CHECK_EVERY) {
                    samples.push(reply);
                }
            }
            op += 1;
            spin_until(Instant::now() + think, &mut session_a.meter);
        }
        let written = writer.join().expect("writer thread panicked");
        (written, polls, samples)
    });

    // Both generator threads timed the kernel while they waited; the window's
    // slowdown is the mean over the rounds of both.
    let window = (written.opened, written.closed);
    let rounds_a = session_a.meter.rounds_in(window.0, window.1);
    let rounds_b = session_b.meter.rounds_in(window.0, window.1);
    written.applies.slowdown = slowdown(rounds_a.chain(rounds_b));

    // Reports of the window only (the poller also ran through the warm-up).
    let mut reports = Timed {
        window_ns: written.applies.window_ns,
        slowdown: written.applies.slowdown,
        ..Timed::default()
    };
    for (done, mut sample) in polls {
        if done >= written.opened && done <= written.closed {
            sample.done_ns = ns(done - written.opened);
            reports.samples.push(sample);
        }
    }

    // Each sampled report against the mirror as it stood at that epoch.
    let mut replay = start.graph.clone();
    let mut batches = written.batches.iter().peekable();
    let mut correct = true;
    for sample in samples {
        while let Some((_, deltas)) = batches.next_if(|(epoch, _)| *epoch <= sample.epoch) {
            for d in deltas {
                replay.apply_delta(d);
            }
        }
        control.tally.attempted += 1;
        let expected = oracle::expected(&replay, &start.sigma);
        if let Err(e) = oracle::compare(sample.violations, &expected) {
            control
                .tally
                .fail(format!("report at epoch {}: {e}", sample.epoch));
            correct = false;
        }
    }

    let setup_s = gedd.setup_s;
    let (final_ok, peak_rss_mb, validate_ns) =
        control.finish(gedd, stream.mirror(), &start.sigma, o.corrupt_oracle);
    let mut tally = control.tally;
    tally.absorb(session_a.tally);
    tally.absorb(session_b.tally);
    let traced = session_b.tracer.take().map(|mut tracer| {
        tracer.absorb(session_a.tracer.take().expect("both sessions trace"));
        Traced {
            tracer,
            frames: written.frames,
            metrics: written.metrics,
            health_rtt_us: probes.0,
            empty_apply_rtt_us: probes.1,
            lateness_ns: written.lateness_ns,
            validate_ns,
            window_start: written.window_start.expect("cloned in a traced run"),
        }
    });
    Ok(Rep {
        setup_s,
        setup_slowdown: slowdown(session_a.meter.rounds().chain(session_b.meter.rounds())),
        applies: written.applies,
        reports,
        cpu_us: written.cpu_us,
        peak_rss_mb,
        tally,
        correct: correct && final_ok,
        traced,
    })
}
