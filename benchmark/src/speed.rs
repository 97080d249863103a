//! How fast the vCPU under the generator runs right now.
//!
//! The sizing host is a 2-vCPU guest on a shared machine, and what its
//! neighbours do moves the speed of *identical* work: a fixed pure-compute
//! loop took 143 to 258 ms in the same minute, `gedd`'s CPU time for the same
//! frames 213 to 457 µs per delta, with steal time near zero — the core
//! itself runs slower (its other hardware thread, its caches, its clock),
//! in bursts of milliseconds whose density drifts over minutes. Ten runs of
//! `match-heavy` spread 31–42% that way, and no statistic of a run's own
//! timings can tell a slow host from a slow program.
//!
//! So the generator measures the host beside the program. Every few
//! milliseconds, between two requests, it runs a small fixed kernel — fill
//! and sort 2 048 words, look 1 024 of them up in a hash map — on the CPU it
//! shares with `gedd`, and times it. The mean kernel time over a window,
//! divided by [`REFERENCE_NS`], is the window's *slowdown*; the benchmark
//! reports service times divided by it and closed-loop rates multiplied by
//! it, i.e. as they would read at the reference speed. The kernel is frozen
//! here and calls nothing of the repo, so a change to `gedd` moves a metric
//! and a change of the host's mood (mostly) does not: between runs the
//! logarithms of kernel time and of `deltas_per_s` correlated −0.95 to −0.96
//! with a slope of −1.0 to −1.3, and the spread of ten runs fell from
//! 19–26% to 7–10% on the same samples.
//!
//! The time the kernel takes is the generator's: callers keep it off every
//! clock.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The kernel time that counts as a slowdown of 1. Between two requests of
/// a busy loop (caches just used by `gedd`) the fastest rounds on the sizing
/// host take ≈ 100 µs and a quiet minute averages a little more; 110 µs puts
/// the normalised numbers of all four workloads within about ±10% of what
/// the host's quiet hours read raw. On another machine every normalised time
/// scales by one constant, and comparisons between two commits stay what
/// they were.
pub const REFERENCE_NS: f64 = 110_000.0;

/// The kernel runs at most once per `PERIOD`: ≈ 3% of a busy generator.
const PERIOD: Duration = Duration::from_millis(4);

const WORDS: usize = 2048;
const LOOKUPS: usize = 1024;
const KEYS: u64 = 16_384;
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The kernel and the rounds it has timed.
#[derive(Debug)]
pub struct SpeedMeter {
    map: HashMap<u64, u64>,
    words: Vec<u64>,
    state: u64,
    /// `(when it ended, nanoseconds it took)` per round.
    rounds: Vec<(Instant, u32)>,
}

impl Default for SpeedMeter {
    fn default() -> SpeedMeter {
        SpeedMeter::new()
    }
}

impl SpeedMeter {
    /// A meter with its tables built and no round timed yet.
    pub fn new() -> SpeedMeter {
        SpeedMeter {
            map: (0..KEYS).map(|i| (i.wrapping_mul(MIX), i)).collect(),
            words: vec![0; WORDS],
            state: 0x2545_F491_4F6C_DD1D,
            rounds: Vec::new(),
        }
    }

    /// Time one round now. Returns what it took, for the caller to keep off
    /// its clocks.
    pub fn round(&mut self) -> Duration {
        let began = Instant::now();
        let mut x = self.state;
        for w in &mut self.words {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.state = x;
        self.words.sort_unstable();
        let mut found = 0u64;
        for w in &self.words[..LOOKUPS] {
            let key = (w % KEYS).wrapping_mul(MIX);
            found = found.wrapping_add(self.map.get(&key).copied().unwrap_or(0));
        }
        std::hint::black_box(found);
        let ended = Instant::now();
        let took = ended - began;
        self.rounds
            .push((ended, took.as_nanos().min(u128::from(u32::MAX)) as u32));
        took
    }

    /// Time a round if the last one is `PERIOD` old; zero otherwise.
    pub fn tick(&mut self) -> Duration {
        match self.rounds.last() {
            Some((last, _)) if last.elapsed() < PERIOD => Duration::ZERO,
            _ => self.round(),
        }
    }

    /// Kernel times (ns) of every round so far.
    pub fn rounds(&self) -> impl Iterator<Item = u32> + '_ {
        self.rounds.iter().map(|(_, ns)| *ns)
    }

    /// Kernel times (ns) of the rounds that ended in `from..=to`.
    pub fn rounds_in(&self, from: Instant, to: Instant) -> impl Iterator<Item = u32> + '_ {
        let timed = self.rounds.iter();
        timed
            .filter(move |(at, _)| *at >= from && *at <= to)
            .map(|(_, ns)| *ns)
    }
}

/// Mean kernel time over `rounds` as a multiple of the reference; 1 when
/// there is no round to go by (then nothing is normalised).
pub fn slowdown(rounds: impl Iterator<Item = u32>) -> f64 {
    let (sum, n) = rounds.fold((0u64, 0u64), |(s, n), ns| (s + u64::from(ns), n + 1));
    if n == 0 {
        return 1.0;
    }
    sum as f64 / n as f64 / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_does_work_and_is_logged() {
        let mut m = SpeedMeter::new();
        let began = Instant::now();
        let took = m.round();
        assert!(took > Duration::ZERO);
        // Right after a round none is due; the log holds just the one.
        assert_eq!(m.tick(), Duration::ZERO);
        assert_eq!(m.rounds_in(began, Instant::now()).count(), 1);
        // Every looked-up key is in the map: the kernel's work is fixed.
        assert!(m
            .words
            .iter()
            .all(|w| m.map.contains_key(&(w % KEYS).wrapping_mul(MIX))));
    }

    #[test]
    fn slowdown_is_the_mean_over_the_reference() {
        assert_eq!(slowdown([110_000u32, 220_000, 330_000].into_iter()), 2.0);
        assert_eq!(slowdown(std::iter::empty()), 1.0);
    }

    #[test]
    fn rounds_are_cut_by_window() {
        let mut m = SpeedMeter::new();
        m.round();
        let cut = Instant::now();
        m.round();
        m.round();
        assert_eq!(m.rounds_in(cut, Instant::now()).count(), 2);
        assert_eq!(m.rounds().count(), 3);
    }
}
