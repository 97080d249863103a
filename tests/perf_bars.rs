//! The wall-clock bar, meaningful in a release build only, so it is
//! `#[ignore]`d. Run with
//! `cargo test --release --test perf_bars -- --ignored --nocapture --test-threads=1`.
//!
//! It asserts a ratio of two timings, so it owns this binary: load sharing
//! the process — the acceptance-scale runs of `incremental.rs`, on a
//! 2-vCPU host — would land inside the ratio.

use ged_datagen::random::evolving_workload;
use ged_repro::prelude::*;
use std::time::{Duration, Instant};

/// `n` writes of `attr`, strided over the graph's nodes, cycling through
/// `n_values` values — deterministic, no RNG.
fn attr_burst(g: &Graph, attr: Symbol, n: usize, n_values: usize) -> Vec<Delta> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    (0..n)
        .map(|i| Delta::SetAttr {
            node: nodes[(i * 97) % nodes.len()],
            attr,
            value: Value::from(format!("v{}", i % n_values)),
        })
        .collect()
}

/// The shortest timed side: a shorter window lets one scheduler hiccup
/// swing the ratio by more than the bar allows.
const MIN_SIDE: Duration = Duration::from_millis(20);

/// Instrumentation costs a fixed amount per apply batch (the phase laps'
/// clock reads, the lock that folds the batch into the registry and the
/// one that records the publish's sample — DESIGN.md §6). On the batched delta path, how a stream is meant to be
/// ingested, that amortises over real re-enumeration and must stay ≤ 5%.
#[test]
#[ignore = "release only"]
fn metrics_cost_at_most_5_percent_on_the_batched_delta_path() {
    let (g, sigma) = evolving_workload(1_000, 3, 2, 7);
    let deltas = attr_burst(&g, sym("key"), 1_200, 25);
    let seeded = IncrementalValidator::new(g, sigma);
    // One replay of the stream on a fresh clone of the seeded validator,
    // cloned outside the window: its time and outcome.
    let replay = |batches: &[DeltaSet], metrics_on: bool| {
        let mut v = seeded.clone();
        v.set_metrics_enabled(metrics_on);
        let t0 = Instant::now();
        for b in batches {
            v.apply_all(b);
        }
        (t0.elapsed(), v.violation_count())
    };
    // The median of 11 on/off ratios. Each side of a pair is `reps`
    // replays, as many as it takes an uninstrumented side to last
    // `MIN_SIDE`, and the two sides are interleaved one replay at a time
    // in alternating order: drift slower than one replay hits both sides
    // alike, running second favours neither, and the median shrugs off an
    // outlier pair. Returns the ratio and the median uninstrumented time
    // per batch.
    let measure = |batch_size: usize| {
        let batches: Vec<DeltaSet> = deltas
            .chunks(batch_size)
            .map(|c| c.to_vec().into())
            .collect();
        let once = replay(&batches, false).0;
        let reps = (MIN_SIDE.as_secs_f64() / once.as_secs_f64()).ceil() as usize;
        let (mut ratios, mut offs) = (Vec::new(), Vec::new());
        for _ in 0..11 {
            let (mut on, mut off) = (Duration::ZERO, Duration::ZERO);
            for rep in 0..reps {
                let on_first = rep % 2 == 1;
                let first = replay(&batches, on_first);
                let second = replay(&batches, !on_first);
                assert_eq!(first.1, second.1, "instrumentation changes no outcome");
                let (on_t, off_t) = if on_first {
                    (first.0, second.0)
                } else {
                    (second.0, first.0)
                };
                on += on_t;
                off += off_t;
            }
            ratios.push(on.as_secs_f64() / off.as_secs_f64());
            offs.push(off.as_secs_f64() / (reps * batches.len()) as f64);
        }
        ratios.sort_by(f64::total_cmp);
        offs.sort_by(f64::total_cmp);
        (ratios[5], offs[5])
    };
    let ratio = measure(40).0;
    // Printed, not asserted: with one ~µs batch per delta the same fixed
    // cost is a large fraction of almost no work.
    let (single, off) = measure(1);
    let fixed_ns = ((single - 1.0) * off).max(0.0) * 1e9;
    println!(
        "metrics on/off, random-1k, {} × 40-delta apply_all: {:+.1}%; \
         single-delta applies {:+.1}%, fixed cost ≈ {fixed_ns:.0} ns/batch",
        deltas.len().div_ceil(40),
        (ratio - 1.0) * 100.0,
        (single - 1.0) * 100.0,
    );
    assert!(ratio <= 1.05, "instrumentation overhead above 5%");
}
