//! Fixed-bucket latency histograms.
//!
//! The buckets are a fixed geometric ladder (powers of two from 256 ns),
//! so recording is an index computation plus four plain adds: no
//! allocation, no locks, no resizing. A [`Histogram`] is a plain value —
//! its one writer records into it, and a registry that readers share
//! keeps it behind the registry's own lock and hands out clones.

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

/// A fixed-bucket latency histogram over nanosecond samples: sample
/// count, total and max latency, and per-bucket counts, with quantile
/// readout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
    /// Largest recorded sample in nanoseconds.
    pub max_ns: u64,
    /// Per-bucket sample counts (geometric bounds from 256 ns).
    pub buckets: [u64; BUCKET_COUNT],
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

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
        let mut s = Histogram::new();
        for _ in 0..99 {
            s.record_ns(1_000); // bucket bound 1024
        }
        s.record_ns(1_000_000);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns(), 1024);
        assert_eq!(s.p95_ns(), 1024);
        assert_eq!(s.p99_ns(), 1024);
        assert_eq!(s.quantile_ns(1.0), 1_000_000, "max caps the top bucket");
        assert_eq!(s.mean_ns(), (99 * 1_000 + 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.mean_ns(), 0);
    }

    #[test]
    fn fmt_ns_picks_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(2_500), "2.5µs");
        assert_eq!(fmt_ns(3_250_000), "3.25ms");
        assert_eq!(fmt_ns(1_500_000_000), "1.50s");
    }
}
