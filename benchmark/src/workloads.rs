//! The four workloads and the two metric tables.
//!
//! `BENCHMARK.json` at the repo root repeats the names, units and reasons
//! below (it is what the acceptance driver reads); a unit test keeps the
//! two in step.

use crate::stream::{Family, StreamCfg};
use std::time::Duration;

/// How load is offered.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// One connection, next request only after the previous reply. Frames
    /// are generated `block` batches at a time outside the timed clock, so
    /// the server sees back-to-back requests and the generator's own cost
    /// is in no latency or rate. `gedd` and the generator share one CPU:
    /// across CPUs a one-connection closed loop measures the scheduler
    /// (8-delta apply p50 58 µs pinned, 150–190 µs and bimodal unpinned).
    ClosedLoop {
        /// Batches generated and encoded per untimed pause.
        block: usize,
    },
    /// Connection A polls `report` in a closed loop with a think time;
    /// connection B sends one batch every `period` whatever the replies do
    /// (open loop, latency timed from the due time). Unpinned.
    PollUnderWrites {
        /// Pace of the writer.
        period: Duration,
        /// The poller's pause between a reply and its next request. While a
        /// `report` is being built the reader pins the front snapshot and
        /// the writer's publish takes the slow O(store) path, so the
        /// writer's latency is bimodal (≈ 0.2 ms / ≈ 1 ms here). Without
        /// the pause the pin is held about half the time and the writer's
        /// p50 sits on the cliff between the modes (650–1200 µs between
        /// identical runs); with it the p50 reads the unpinned mode and
        /// the p90 the pinned one.
        think: Duration,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// `gedd --workload` spec; a trailing `seed=` takes the run's seed.
    spec: &'static str,
    /// Shape of the update stream.
    pub stream: StreamCfg,
    /// How the stream is offered.
    pub load: Load,
    /// Sizing only: batches per second this host sustains, from which the
    /// traced run takes its *fixed* op counts (so engine counters repeat
    /// exactly) and the stationarity test its window length.
    pub nominal_batches_per_s: f64,
    /// Sizing only, as above, for `report` polls.
    pub nominal_reports_per_s: f64,
}

impl Workload {
    /// The `gedd --workload` spec for `seed`.
    pub fn spec(&self, seed: u64) -> String {
        match self.spec.strip_suffix("seed=") {
            Some(_) => format!("{}{seed}", self.spec),
            None => self.spec.to_string(),
        }
    }

    /// Do `gedd` and the generator share CPU 0?
    pub fn pinned(&self) -> bool {
        matches!(self.load, Load::ClosedLoop { .. })
    }
}

const SOCIAL: StreamCfg = StreamCfg {
    family: Family::Social,
    batch: 8,
    lag: 64,
    key_breaks: 0,
};

/// The workloads, in the order they run.
pub const WORKLOADS: [Workload; 4] = [
    // |V| ≈ 200k, ~180 MB resident: larger than cache. Per-request cost
    // dominates; proto and daemon do most of the work, matching almost none.
    Workload {
        name: "ingest-small",
        spec: "mixed:honest=50000,plants=250,seed=",
        stream: SOCIAL,
        load: Load::ClosedLoop { block: 1000 },
        nominal_batches_per_s: 25_000.0,
        nominal_reports_per_s: 400.0,
    },
    // Same graph, same layers, 64× the message size: per-byte cost
    // (Json::parse, delta decode, Graph delta-apply) dominates, so a
    // per-frame saving that costs per byte — or the reverse — shows.
    Workload {
        name: "ingest-bulk",
        spec: "mixed:honest=50000,plants=250,seed=",
        stream: StreamCfg {
            batch: 512,
            lag: 4,
            ..SOCIAL
        },
        load: Load::ClosedLoop { block: 32 },
        nominal_batches_per_s: 700.0,
        nominal_reports_per_s: 400.0,
    },
    // 4 of a batch's 32 deltas flip an entity key, each re-enumerating the
    // entity × entity cross product: engine/pattern/graph are >90% of an
    // apply and the wire <5%. A proto or daemon change predicts no change.
    // The start state is fixed: the datagen seed also draws the four random
    // rules, and an apply cost 4.6–15 ms depending on which it drew; only
    // the stream follows `--seed` here.
    Workload {
        name: "match-heavy",
        spec: "random:nodes=20000,rules=4,seed=1",
        stream: StreamCfg {
            family: Family::Random,
            batch: 32,
            lag: 4,
            key_breaks: 2,
        },
        load: Load::ClosedLoop { block: 8 },
        nominal_batches_per_s: 130.0,
        nominal_reports_per_s: 200.0,
    },
    // |V| ≈ 10k (fits cache), ≈ 2 000 standing witnesses. The server
    // encodes large replies instead of decoding large requests, and a
    // reader pinning the front snapshot makes the writer's next publish an
    // O(store) rebuild.
    Workload {
        name: "poll-under-writes",
        spec: "mixed:honest=2500,plants=500,seed=",
        stream: StreamCfg { lag: 8, ..SOCIAL },
        load: Load::PollUnderWrites {
            period: Duration::from_millis(20),
            think: Duration::from_millis(5),
        },
        nominal_batches_per_s: 50.0,
        nominal_reports_per_s: 200.0,
    },
];

/// End-to-end metrics `(name, unit)`: printed by every untraced run of
/// every workload. Bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("deltas_per_s", "1/s"),
    ("report_p50_us", "us"),
    ("reports_per_s", "1/s"),
    ("gedd_cpu_us_per_delta", "us"),
    ("gedd_peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: printed by every traced run.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("client.apply_p50_us", "us"),
    ("client.apply_p90_us", "us"),
    ("client.report_p90_us", "us"),
    ("client.encode_ns", "ns"),
    ("client.decode_ns", "ns"),
    ("client.report_decode_ns", "ns"),
    ("client.rtt_p50_us", "us"),
    ("client.rtt_p99_us", "us"),
    ("client.rtt_p999_us", "us"),
    ("client.report_rtt_p50_us", "us"),
    ("client.report_rtt_p99_us", "us"),
    ("client.writer_lateness_us", "us"),
    ("proto.frame_read_ns", "ns"),
    ("proto.json_parse_ns", "ns"),
    ("proto.request_decode_ns", "ns"),
    ("proto.reply_build_ns", "ns"),
    ("proto.frame_write_ns", "ns"),
    ("proto.report_build_ns", "ns"),
    ("proto.report_write_ns", "ns"),
    ("proto.request_allocs_per_frame", "count"),
    ("proto.reply_allocs_per_frame", "count"),
    ("proto.report_allocs_per_frame", "count"),
    ("proto.request_bytes_per_delta", "B"),
    ("proto.reply_bytes", "B"),
    ("proto.report_bytes", "B"),
    ("daemon.health_rtt_us", "us"),
    ("daemon.empty_apply_rtt_us", "us"),
    ("daemon.handoff_us", "us"),
    ("daemon.unexplained_us", "us"),
    ("daemon.unexplained_share", "ratio"),
    ("daemon.setup_load_s", "s"),
    ("daemon.setup_seed_s", "s"),
    ("engine.apply_ns_per_batch", "ns"),
    ("engine.phase.delta-apply_ns", "ns"),
    ("engine.phase.witness-drop_ns", "ns"),
    ("engine.phase.affected-materialize_ns", "ns"),
    ("engine.phase.anchored-reenumerate_ns", "ns"),
    ("engine.phase.store-insert_ns", "ns"),
    ("engine.phase.snapshot-publish_ns", "ns"),
    ("engine.seeding_ns", "ns"),
    ("engine.match_attempts_per_delta", "count"),
    ("engine.matches_per_delta", "count"),
    ("engine.prefilter_reject_ratio", "ratio"),
    ("engine.witnesses_dropped_per_batch", "count"),
    ("engine.witnesses_added_per_batch", "count"),
    ("engine.touched_nodes_per_batch", "count"),
    ("engine.store_size", "count"),
    ("engine.snapshot_ns", "ns"),
    ("engine.to_report_ns", "ns"),
    ("pattern.enumerate_ns_per_match", "ns"),
    ("pattern.attempts_per_match", "count"),
    ("graph.delta_apply_ns_per_delta", "ns"),
    ("core.validate_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("client.apply_ops", "count"),
    ("client.report_ops", "count"),
    ("engine.batches", "count"),
    ("host.slowdown", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use ged_proto::Json;

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("run from benchmark/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let pairs = |key: &str, second: &str| -> Vec<(String, String)> {
            doc.get_arr(key)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    (
                        m.get_str("name").expect("name").to_string(),
                        m.get_str(second).expect(second).to_string(),
                    )
                })
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "unit"), owned(&END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), owned(&PER_LAYER));
        let names: Vec<String> = pairs("workloads", "why").into_iter().map(|p| p.0).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }
}
