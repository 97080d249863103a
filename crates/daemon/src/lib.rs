//! `gedd`: the long-lived validation daemon.
//!
//! The library half of the daemon binary, kept separate so the
//! end-to-end suites (`tests/daemon*.rs`), the examples, and the
//! EXP-DAEMON harness can [`spawn`] a real server in-process on an
//! ephemeral port and talk to it over actual TCP — the binary in
//! `src/bin/gedd.rs` is a thin shell around [`parse_cli`] and the same
//! [`spawn`].
//!
//! A daemon owns one
//! [`IncrementalValidator<SigmaConstraint>`](ged_engine::IncrementalValidator)
//! and serves the `ged-proto` wire protocol: each `apply` batch runs on
//! its connection's own thread under the validator's one lock, every
//! query answers from a cloned snapshot-isolated
//! [`ReadView`](ged_engine::ReadView) on the connection's own thread
//! without taking it. See [`server`] for the threading model and
//! shutdown choreography, [`workload`] for the `--workload` spec
//! grammar.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod server;
pub mod workload;

pub use cli::parse_cli;
pub use server::{spawn, DaemonConfig, DaemonHandle};
