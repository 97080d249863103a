//! The per-layer numbers of a traced run.
//!
//! No layer's source is touched: each is measured from outside, by timing
//! calls into its public functions while the recorded request frames of
//! the window are replayed in-process, single-threaded, and by reading the
//! engine's own `metrics` reply from the live child before and after the
//! window. Spans inside the program are a later issue.

use crate::run::{off_thread, spans_on, Rep, Start, Traced};
use crate::stats::percentile;
use crate::trace::{allocations, Tracer};
use crate::workloads::{Workload, PER_LAYER};
use ged_core::constraint::Constraint;
use ged_engine::{IncrementalValidator, Phase};
use ged_obs::CellRecorder;
use ged_pattern::{MatchOptions, MatchScratch, Matcher};
use ged_proto::message::{ok_response, report_to_json};
use ged_proto::{read_frame, write_frame, Json, Request, DEFAULT_MAX_FRAME};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::ops::ControlFlow;
use std::path::Path;
use std::time::Instant;

/// Report-path replays behind `engine.snapshot_ns` … `proto.report_write_ns`.
const REPORT_REPLAYS: u64 = 100;

/// Sums over the replay that are not span durations.
#[derive(Default)]
struct Counts {
    frames: u64,
    deltas: u64,
    request_bytes: u64,
    request_allocs: u64,
    reply_bytes: u64,
    reply_allocs: u64,
    report_bytes: u64,
    report_allocs: u64,
    seed_s: f64,
}

/// Run `f` in a span and count the allocator calls it makes. The span log
/// was reserved up front, so the log itself allocates nothing here.
fn counted<T>(
    tracer: &mut Tracer,
    name: &'static str,
    op: u64,
    parent: Option<u32>,
    allocs: &mut u64,
    f: impl FnOnce() -> T,
) -> (T, u32) {
    let before = allocations();
    let out = tracer.time(name, op, parent, f);
    *allocs += allocations() - before;
    out
}

/// Replay the window's frames through proto → engine → proto, as the
/// daemon's connection handler and writer do, one layer call per span.
fn replay(t: &mut Traced, start: &Start, ops: &[u64]) -> Result<Counts, String> {
    let mut c = Counts::default();
    let (mut bare, mut validator, view, seed_s) = off_thread(|| {
        let bare = t.window_start.clone();
        let began = Instant::now();
        let validator =
            IncrementalValidator::with_threads(t.window_start.clone(), start.sigma.clone(), 1);
        let view = validator.read_view();
        (bare, validator, view, began.elapsed().as_secs_f64())
    });
    c.seed_s = seed_s;

    let tracer = &mut t.tracer;
    tracer
        .spans
        .reserve(t.frames.len() * 8 + REPORT_REPLAYS as usize * 5);
    for (i, frame) in t.frames.iter().enumerate() {
        let op = ops.get(i).copied().unwrap_or(i as u64);
        let root_began = Instant::now();
        let root = tracer.push("replay.apply", op, None, root_began, root_began);

        let (json, read) = counted(
            tracer,
            "proto.frame_read",
            op,
            Some(root),
            &mut c.request_allocs,
            || read_frame(&mut &frame[..], DEFAULT_MAX_FRAME),
        );
        let json = json
            .map_err(|e| e.to_string())?
            .ok_or("empty frame in replay")?;
        // `read_frame` parses internally; the same line parsed again gives
        // the parser's share (framing self time = frame_read − json_parse).
        let line = std::str::from_utf8(&frame[..frame.len() - 1]).map_err(|e| e.to_string())?;
        let (parsed, _) = tracer.time("proto.json_parse", op, Some(read), || Json::parse(line));
        parsed.map_err(|e| e.to_string())?;
        let (request, _) = counted(
            tracer,
            "proto.request_decode",
            op,
            Some(root),
            &mut c.request_allocs,
            || Request::from_json(&json),
        );
        let Ok(Request::Apply(deltas)) = request else {
            return Err("replayed frame is not an apply".to_string());
        };

        let (stats, _) = tracer.time("engine.apply", op, Some(root), || {
            validator.apply_all(&deltas)
        });
        tracer.time("graph.delta_apply", op, None, || {
            for d in &deltas {
                bare.apply_delta(d);
            }
        });

        // The fields `gedd` answers an apply with.
        let (reply, _) = counted(
            tracer,
            "proto.reply_build",
            op,
            Some(root),
            &mut c.reply_allocs,
            || {
                ok_response(vec![
                    ("epoch", Json::from(validator.published_epoch())),
                    ("applied", Json::from(stats.deltas_applied)),
                    ("violations", Json::from(validator.violation_count())),
                    ("removed", Json::from(stats.violations_removed)),
                    ("added", Json::from(stats.violations_added)),
                    (
                        "created",
                        Json::Arr(
                            stats
                                .created
                                .iter()
                                .map(|n| Json::from(u64::from(n.0)))
                                .collect(),
                        ),
                    ),
                ])
            },
        );
        let mut wire = Vec::new();
        counted(
            tracer,
            "proto.frame_write",
            op,
            Some(root),
            &mut c.reply_allocs,
            || write_frame(&mut wire, &reply),
        )
        .0
        .map_err(|e| e.to_string())?;
        tracer.spans[root as usize].end_ns = tracer.spans.last().expect("just pushed").end_ns;

        c.frames += 1;
        c.deltas += deltas.len() as u64;
        c.request_bytes += frame.len() as u64;
        c.reply_bytes += wire.len() as u64;
    }

    // The read path on the final state: what a `report` costs the server.
    for i in 0..REPORT_REPLAYS {
        let op = (2u64 << 32) + i;
        let root_began = Instant::now();
        let root = tracer.push("replay.report", op, None, root_began, root_began);
        let (snap, _) = tracer.time("engine.snapshot", op, Some(root), || view.snapshot());
        let (report, _) = tracer.time("engine.to_report", op, Some(root), || snap.to_report());
        let (reply, _) = counted(
            tracer,
            "proto.report_build",
            op,
            Some(root),
            &mut c.report_allocs,
            || report_to_json(snap.epoch(), &report),
        );
        let mut wire = Vec::new();
        counted(
            tracer,
            "proto.report_write",
            op,
            Some(root),
            &mut c.report_allocs,
            || write_frame(&mut wire, &reply),
        )
        .0
        .map_err(|e| e.to_string())?;
        tracer.spans[root as usize].end_ns = tracer.spans.last().expect("just pushed").end_ns;
        c.report_bytes += wire.len() as u64;
    }
    Ok(c)
}

/// Enumerate every rule's pattern over the start graph with a reused
/// scratch: `(ns per match, candidate attempts per match)`.
fn enumerate_patterns(start: &Start) -> (f64, f64) {
    let mut scratch = MatchScratch::new();
    let recorder = CellRecorder::new();
    let began = Instant::now();
    for rule in &start.sigma {
        let matcher = Matcher::with_recorder(
            rule.pattern(),
            &start.graph,
            MatchOptions::homomorphism(),
            &recorder,
        );
        matcher.for_each_in(&mut scratch, |m| {
            std::hint::black_box(m);
            ControlFlow::Continue(())
        });
    }
    let ns = began.elapsed().as_nanos() as f64;
    let matches = recorder.matches().max(1) as f64;
    (ns / matches, recorder.attempts() as f64 / matches)
}

/// Readers of the child's `metrics` object (schema owned by `ged-engine`).
struct EngineMetrics<'a>(&'a Json);

impl EngineMetrics<'_> {
    fn top(&self, key: &str) -> f64 {
        self.0.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn witnesses(&self, key: &str) -> f64 {
        let w = self.0.get("witnesses").and_then(|w| w.get(key));
        w.and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn phase_sum_ns(&self, phase: Phase) -> f64 {
        let phases = self.0.get_arr("phases").unwrap_or(&[]);
        let found = phases
            .iter()
            .find(|p| p.get_str("phase") == Some(phase.name()));
        found
            .and_then(|p| p.get("sum_ns"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn rules(&self, key: &str) -> f64 {
        let rules = self.0.get_arr("rules").unwrap_or(&[]);
        rules
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .sum()
    }
}

fn p_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    percentile(sorted_ns, p) as f64 / 1e3
}

/// Replay, read the engine's counters, write `trace-<workload>.json`, and
/// return every per-layer metric in [`PER_LAYER`] order.
pub fn per_layer(
    w: &Workload,
    start: &Start,
    rep: &mut Rep,
    seed: u64,
    out_dir: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut t = rep
        .traced
        .take()
        .ok_or("per-layer metrics need a traced run")?;
    let ops: Vec<u64> = rep.applies.samples.iter().map(|s| s.op).collect();
    let counts = replay(&mut t, start, &ops)?;
    let (enumerate_ns_per_match, attempts_per_match) = enumerate_patterns(start);

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let tr = &t.tracer;
    let sorted = |name: &str| {
        let mut d = tr.durations(name);
        d.sort_unstable();
        d
    };

    // client: the generator's own wire calls.
    let apply = rep.applies.sorted_ns();
    m.insert("client.apply_p50_us", p_us(&apply, 50.0));
    m.insert("client.apply_p90_us", p_us(&apply, 90.0));
    m.insert("client.report_p90_us", p_us(&rep.reports.sorted_ns(), 90.0));
    m.insert("client.encode_ns", tr.mean_ns("client.encode"));
    m.insert("client.decode_ns", tr.mean_ns("client.decode"));
    m.insert(
        "client.report_decode_ns",
        tr.mean_ns("client.report_decode"),
    );
    let rtt = sorted("client.rtt");
    m.insert("client.rtt_p50_us", p_us(&rtt, 50.0));
    m.insert("client.rtt_p99_us", p_us(&rtt, 99.0));
    m.insert("client.rtt_p999_us", p_us(&rtt, 99.9));
    let report_rtt = sorted("client.report_rtt");
    m.insert("client.report_rtt_p50_us", p_us(&report_rtt, 50.0));
    m.insert("client.report_rtt_p99_us", p_us(&report_rtt, 99.0));
    let mut late = t.lateness_ns.clone();
    late.sort_unstable();
    m.insert("client.writer_lateness_us", p_us(&late, 50.0));
    m.insert("client.apply_ops", rep.applies.samples.len() as f64);
    m.insert("client.report_ops", rep.reports.samples.len() as f64);

    // proto: means over the replayed frames; counts repeat exactly.
    for (metric, span) in [
        ("proto.frame_read_ns", "proto.frame_read"),
        ("proto.json_parse_ns", "proto.json_parse"),
        ("proto.request_decode_ns", "proto.request_decode"),
        ("proto.reply_build_ns", "proto.reply_build"),
        ("proto.frame_write_ns", "proto.frame_write"),
        ("proto.report_build_ns", "proto.report_build"),
        ("proto.report_write_ns", "proto.report_write"),
        ("engine.apply_ns_per_batch", "engine.apply"),
        ("engine.snapshot_ns", "engine.snapshot"),
        ("engine.to_report_ns", "engine.to_report"),
    ] {
        m.insert(metric, tr.mean_ns(span));
    }
    let frames = counts.frames.max(1) as f64;
    let reports = REPORT_REPLAYS as f64;
    m.insert(
        "proto.request_allocs_per_frame",
        counts.request_allocs as f64 / frames,
    );
    m.insert(
        "proto.reply_allocs_per_frame",
        counts.reply_allocs as f64 / frames,
    );
    m.insert(
        "proto.report_allocs_per_frame",
        counts.report_allocs as f64 / reports,
    );
    m.insert(
        "proto.request_bytes_per_delta",
        counts.request_bytes as f64 / counts.deltas.max(1) as f64,
    );
    m.insert("proto.reply_bytes", counts.reply_bytes as f64 / frames);
    m.insert("proto.report_bytes", counts.report_bytes as f64 / reports);
    let delta_apply_ns: u64 = tr.durations("graph.delta_apply").iter().sum();
    m.insert(
        "graph.delta_apply_ns_per_delta",
        delta_apply_ns as f64 / counts.deltas.max(1) as f64,
    );

    // engine: differences of the live child's own counters over the window.
    let (m0, m1) = (EngineMetrics(&t.metrics.0), EngineMetrics(&t.metrics.1));
    let batches = (m1.top("batches") - m0.top("batches")).max(1.0);
    let deltas = (m1.top("deltas_applied") - m0.top("deltas_applied")).max(1.0);
    m.insert("engine.batches", batches);
    for (metric, phase) in [
        ("engine.phase.delta-apply_ns", Phase::DeltaApply),
        ("engine.phase.witness-drop_ns", Phase::WitnessDrop),
        ("engine.phase.affected-materialize_ns", Phase::Materialize),
        ("engine.phase.anchored-reenumerate_ns", Phase::Reenumerate),
        ("engine.phase.store-insert_ns", Phase::StoreInsert),
        ("engine.phase.snapshot-publish_ns", Phase::SnapshotPublish),
    ] {
        m.insert(
            metric,
            (m1.phase_sum_ns(phase) - m0.phase_sum_ns(phase)) / batches,
        );
    }
    m.insert("engine.seeding_ns", m1.phase_sum_ns(Phase::Seeding));
    let attempts = m1.rules("match_attempts") - m0.rules("match_attempts");
    let rejects = m1.rules("prefilter_rejects") - m0.rules("prefilter_rejects");
    m.insert("engine.match_attempts_per_delta", attempts / deltas);
    m.insert(
        "engine.matches_per_delta",
        (m1.rules("matches_found") - m0.rules("matches_found")) / deltas,
    );
    m.insert("engine.prefilter_reject_ratio", rejects / attempts.max(1.0));
    m.insert(
        "engine.witnesses_dropped_per_batch",
        (m1.witnesses("dropped") - m0.witnesses("dropped")) / batches,
    );
    m.insert(
        "engine.witnesses_added_per_batch",
        (m1.witnesses("added") - m0.witnesses("added")) / batches,
    );
    m.insert(
        "engine.touched_nodes_per_batch",
        (m1.top("touched_nodes") - m0.top("touched_nodes")) / batches,
    );
    m.insert("engine.store_size", m1.top("store_size"));

    // daemon: floors from the live child, and what no layer explains.
    m.insert("daemon.health_rtt_us", t.health_rtt_us);
    m.insert("daemon.empty_apply_rtt_us", t.empty_apply_rtt_us);
    let handoff = t.empty_apply_rtt_us - t.health_rtt_us;
    m.insert("daemon.handoff_us", handoff);
    // Medians against a median: the per-frame times are right-skewed, and
    // their means summed to more than the rtt's p50.
    let server_side_us: f64 = [
        "proto.frame_read",
        "proto.request_decode",
        "engine.apply",
        "proto.reply_build",
        "proto.frame_write",
    ]
    .iter()
    .map(|span| p_us(&sorted(span), 50.0))
    .sum();
    let rtt_p50 = m["client.rtt_p50_us"];
    let unexplained = rtt_p50 - server_side_us - handoff - t.health_rtt_us;
    m.insert("daemon.unexplained_us", unexplained);
    m.insert("daemon.unexplained_share", unexplained / rtt_p50.max(1e-9));
    m.insert("daemon.setup_load_s", start.load_s);
    m.insert("daemon.setup_seed_s", counts.seed_s);

    m.insert("pattern.enumerate_ns_per_match", enumerate_ns_per_match);
    m.insert("pattern.attempts_per_match", attempts_per_match);
    m.insert("core.validate_ns", t.validate_ns as f64);

    // Even ops carried spans, odd ops did not: same stream, same child.
    let p50_of = |with_spans: bool| {
        let mut lat: Vec<u64> = rep
            .applies
            .samples
            .iter()
            .filter(|s| spans_on(s.op) == with_spans)
            .map(|s| s.lat_ns)
            .collect();
        lat.sort_unstable();
        p_us(&lat, 50.0)
    };
    m.insert(
        "trace.overhead_ratio",
        p50_of(true) / p50_of(false).max(1e-9),
    );
    m.insert("trace.spans", tr.spans.len() as f64);
    // The per-layer times above are as measured; this says how far from
    // the reference speed the host ran while they were taken.
    m.insert("host.slowdown", rep.applies.slowdown);

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let path = out_dir.join(format!("trace-{}.json", w.name));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut file = BufWriter::new(file);
    tr.write_json(&mut file, w.name, seed)
        .map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut file).map_err(|e| e.to_string())?;

    Ok(PER_LAYER
        .iter()
        .map(|&(name, _)| {
            (
                name,
                *m.get(name).unwrap_or_else(|| panic!("{name} not computed")),
            )
        })
        .collect())
}
