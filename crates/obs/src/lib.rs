//! # ged-obs — observability primitives for the GED engine stack
//!
//! A std-only, dependency-free metrics toolkit in the vendored style of
//! the rest of the workspace (the build environment has no crates.io
//! access). The engine's instrumentation needs exactly three things, and
//! this crate supplies nothing more:
//!
//! * [`metric`] — the **lock-free registry primitives**: monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket latency [`Histogram`]s
//!   with p50/p95/p99 readout. All writes are relaxed atomic adds (no
//!   locks, no CAS loops); readers aggregate on demand via
//!   [`Histogram::snapshot`]. For code that is hot enough that even an
//!   uncontended atomic add is too much, [`LocalHistogram`] and plain
//!   `u64` tallies accumulate unsynchronized in a local shard and merge
//!   into the shared registry once per pass — aggregation happens on
//!   *read*, not on the hot path.
//! * [`recorder`] — the **zero-cost-when-disabled hook** for the matcher
//!   hot loop: a [`MatchRecorder`] trait with a unit [`NoopRecorder`]
//!   (monomorphizes to nothing) and a [`CellRecorder`] that tallies into
//!   `Cell<u64>`s for single-threaded enumeration inside one work unit.
//! * [`trace`] — a bounded, overwrite-oldest [`TraceRing`] of structured
//!   events (the engine records one per apply batch), dumpable on demand
//!   or on panic.
//!
//! The crate sits below `ged-pattern` in the dependency order so the
//! matcher itself can accept a recorder; nothing here knows about graphs,
//! patterns, or constraints.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod metric;
pub mod recorder;
pub mod trace;

pub use metric::{
    fmt_ns, Counter, Gauge, Histogram, HistogramSnapshot, LocalHistogram, BUCKET_COUNT,
};
pub use recorder::{CellRecorder, MatchRecorder, NoopRecorder, NOOP};
pub use trace::TraceRing;
