//! Wire protocol shared by the validation daemon (`gedd`) and its CLI
//! client (`gedctl`).
//!
//! The build environment has no crates.io access, so the protocol is
//! std-only by construction: newline-delimited JSON frames over TCP,
//! over the workspace's vendored JSON [`parser and writer`](json)
//! (`ged_graph::json`, re-exported here).
//!
//! Layering, bottom up:
//!
//! * [`json`] — re-export of `ged_graph::json`: the `Json` value type,
//!   the depth-limited pull lexer (`json::Reader`) under both
//!   `Json::parse` and the request decoder, and a one-line writer that
//!   keeps `Int`/`Float` distinct (`2` vs `2.0`), which the
//!   attribute-value codec relies on;
//! * [`wire`] — framing: one JSON document per `\n`-terminated line,
//!   read into a caller-owned buffer ([`wire::read_line`]) with a
//!   per-frame byte cap and structured oversized/truncated/malformed
//!   errors;
//! * [`message`] — the request/response vocabulary: [`Request`]
//!   decode/encode (over a tree, and straight off the line), the
//!   [`Delta`](ged_graph::Delta) and
//!   [`ValidationReport`](ged_core::reason::ValidationReport) codecs,
//!   streamed reply lines, the `ok`/error envelope and its
//!   [error-code taxonomy](message::code);
//! * [`client`] — a blocking [`Client`] used by `gedctl`, the examples,
//!   and the protocol-level test harness.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod message;
pub mod wire;

pub use client::{Client, ClientError, HealthReply};
pub use ged_graph::json::{self, Json, JsonError};
pub use message::{
    code, ApplyReply, ReportReply, Request, RequestError, WireViolation, PROTOCOL_VERSION,
};
pub use wire::{read_frame, read_line, write_frame, WireError, DEFAULT_MAX_FRAME};
