//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! latency histograms.
//!
//! Everything writes with relaxed atomic adds — monotonic tallies need no
//! ordering, and readers only ever see a slightly stale but internally
//! consistent-enough view (a snapshot is a statistical readout, not a
//! linearization point). The histogram buckets are a fixed geometric
//! ladder (powers of two from 256 ns), so recording is an index
//! computation plus one add: no allocation, no locks, no resizing.
//!
//! For hot loops where even an uncontended atomic add per event is too
//! much, [`LocalHistogram`] (and plain `u64` tallies) accumulate
//! unsynchronized in a local shard; [`Histogram::merge_local`] folds a
//! shard into the shared registry in one pass. Aggregation is paid on
//! read, not per event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets: powers of two from 256 ns up to ~8.6 s,
/// plus one overflow bucket.
pub const BUCKET_COUNT: usize = 27;

/// Inclusive upper bound of bucket `i` in nanoseconds (`u64::MAX` for the
/// overflow bucket).
fn bucket_bound(i: usize) -> u64 {
    if i + 1 >= BUCKET_COUNT {
        u64::MAX
    } else {
        256u64 << i
    }
}

/// The bucket a sample of `ns` nanoseconds lands in: the first bucket
/// whose bound is ≥ `ns`.
fn bucket_index(ns: u64) -> usize {
    if ns <= 256 {
        return 0;
    }
    let ceil_log2 = (64 - (ns - 1).leading_zeros()) as usize;
    (ceil_log2 - 8).min(BUCKET_COUNT - 1)
}

/// A monotonic counter. Writes are relaxed atomic adds; reads are relaxed
/// loads. Cloning copies the current value into an independent counter
/// (the engine's validator is `Clone`, and a clone must not share tallies
/// with its original).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Counter {
        Counter(AtomicU64::new(self.get()))
    }
}

/// A last-write-wins gauge for level quantities (store size, live slots).
/// Same relaxed-atomic discipline as [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Gauge {
    fn clone(&self) -> Gauge {
        Gauge(AtomicU64::new(self.get()))
    }
}

/// A fixed-bucket latency histogram over nanosecond samples.
///
/// Buckets are a geometric ladder (doubling from 256ns); recording is one
/// relaxed add into the matching bucket plus count/sum/max bookkeeping —
/// lock-free and allocation-free. Quantiles come from
/// [`Histogram::snapshot`], which aggregates on read.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKET_COUNT],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample of `ns` nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one [`Duration`] sample.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold a [`LocalHistogram`] shard into this histogram — the
    /// read-side aggregation step of the local-shard scheme.
    pub fn merge_local(&self, local: &LocalHistogram) {
        if local.count == 0 {
            return;
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum_ns.fetch_add(local.sum_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(local.max_ns, Ordering::Relaxed);
        for (b, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Aggregate the current state into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        let h = Histogram::new();
        h.count
            .store(self.count.load(Ordering::Relaxed), Ordering::Relaxed);
        h.sum_ns
            .store(self.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        h.max_ns
            .store(self.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        for (dst, src) in h.buckets.iter().zip(&self.buckets) {
            dst.store(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        h
    }
}

/// An unsynchronized histogram shard: identical bucket ladder, plain
/// `u64` tallies, no atomics. A pass records into its shard and merges it
/// into the shared [`Histogram`] when it is over — the hot path pays zero
/// synchronization.
#[derive(Debug, Clone, Default)]
pub struct LocalHistogram {
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    buckets: [u64; BUCKET_COUNT],
}

impl LocalHistogram {
    /// An empty shard.
    pub fn new() -> LocalHistogram {
        LocalHistogram::default()
    }

    /// Record one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Record one [`Duration`] sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// An immutable aggregate of a [`Histogram`]: sample count, total and max
/// latency, and per-bucket counts, with quantile readout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded sample in nanoseconds.
    pub max_ns: u64,
    /// Per-bucket sample counts ([`BUCKET_COUNT`] entries, geometric
    /// bounds from 256 ns).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (0 < q ≤ 1) in nanoseconds: the upper bound of
    /// the bucket holding the sample of that rank, capped at the observed
    /// maximum (so the overflow bucket reports the real max, not ∞).
    /// Returns 0 for an empty histogram.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 95th-percentile latency in nanoseconds.
    pub fn p95_ns(&self) -> u64 {
        self.quantile_ns(0.95)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Format a nanosecond quantity with an adaptive unit (`ns`, `µs`, `ms`,
/// `s`) for human-readable metric dumps.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_clones_independently() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let d = c.clone();
        c.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(d.get(), 5, "clone is a copy, not a shared handle");
    }

    #[test]
    fn gauge_is_last_write_wins() {
        let g = Gauge::new();
        g.set(10);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_index_matches_bounds() {
        for (ns, want) in [(0u64, 0usize), (256, 0), (257, 1), (512, 1), (513, 2)] {
            assert_eq!(bucket_index(ns), want, "ns={ns}");
        }
        // Every sample lands in a bucket whose bound covers it.
        for ns in [1u64, 300, 1_000, 65_000, 1_000_000, u64::MAX] {
            let i = bucket_index(ns);
            assert!(bucket_bound(i) >= ns);
            if i > 0 {
                assert!(bucket_bound(i - 1) < ns, "ns={ns} fits an earlier bucket");
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds_capped_at_max() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record_ns(1_000); // bucket bound 1024
        }
        h.record_ns(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns(), 1024);
        assert_eq!(s.p95_ns(), 1024);
        assert_eq!(s.p99_ns(), 1024);
        assert_eq!(s.quantile_ns(1.0), 1_000_000, "max caps the top bucket");
        assert_eq!(s.mean_ns(), (99 * 1_000 + 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn local_shards_merge_like_direct_recording() {
        let direct = Histogram::new();
        let sharded = Histogram::new();
        let mut shards = [LocalHistogram::new(), LocalHistogram::new()];
        for (i, ns) in [100u64, 5_000, 90_000, 1_000_000, 300].iter().enumerate() {
            direct.record_ns(*ns);
            shards[i % 2].record_ns(*ns);
        }
        for s in &shards {
            sharded.merge_local(s);
        }
        assert_eq!(direct.snapshot(), sharded.snapshot());
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(2_500), "2.5µs");
        assert_eq!(fmt_ns(3_250_000), "3.25ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
    }
}
