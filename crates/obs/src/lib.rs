//! # ged-obs — observability primitives for the GED engine stack
//!
//! A std-only, dependency-free toolkit in the vendored style of the rest
//! of the workspace (the build environment has no crates.io access). It
//! holds no synchronisation: every type is a plain value with one
//! writer, and the engine keeps its registry of them behind one lock of
//! its own.
//!
//! * [`metric`] — the fixed-bucket latency [`Histogram`] with p50/p95/p99
//!   readout, and [`fmt_ns`] for human-readable dumps.
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

pub use metric::{fmt_ns, Histogram, BUCKET_COUNT};
pub use recorder::{CellRecorder, MatchRecorder, NoopRecorder, NOOP};
pub use trace::TraceRing;
