//! Blocking TCP client for the `gedd` protocol.
//!
//! One [`Client`] owns one connection and issues one request at a time
//! (the protocol is strict request→response per frame). Both `gedctl`
//! and the end-to-end test harness drive the daemon through this type,
//! so a protocol change breaks exactly one call site per request kind.

use crate::json::Json;
use crate::message::{
    apply_from_json, decode_all, report_from_json, violation_from_json, ApplyReply, ReportReply,
    Request, WireViolation,
};
use crate::wire::{read_frame_in, write_frame, WireError, DEFAULT_MAX_FRAME};
use ged_graph::DeltaSet;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing layer failed.
    Wire(WireError),
    /// The daemon closed the connection instead of replying.
    ConnectionClosed,
    /// The daemon replied `ok:false` with this code and message.
    Server {
        /// Machine-readable error code (see [`crate::message::code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The reply was `ok:true` but missing expected fields.
    Decode(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::ConnectionClosed => write!(f, "daemon closed the connection"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Decode(m) => write!(f, "undecodable reply: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

impl ClientError {
    /// The server-side error code, when the failure was a structured
    /// `ok:false` reply.
    pub fn server_code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// Decoded `health` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReply {
    /// Protocol version the daemon speaks.
    pub protocol: u64,
    /// Most recently published epoch.
    pub epoch: u64,
    /// Rules in Σ.
    pub rules: u64,
    /// Live read-view handles daemon-side.
    pub readers: u64,
    /// Are writes refused because an `apply` panicked? `false` when the
    /// daemon does not say (one older than the field).
    pub degraded: bool,
}

/// One blocking protocol connection.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Every reply's line is read into this one buffer, as `gedd` reads
    /// each connection's requests.
    line: Vec<u8>,
    max_frame: usize,
}

impl Client {
    /// Connect with the default frame cap.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// Wrap an already-connected stream (lets tests set timeouts first).
    pub fn from_stream(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            line: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Cap how large a reply this client will buffer.
    pub fn set_max_frame(&mut self, max_frame: usize) {
        self.max_frame = max_frame;
    }

    /// Set a read timeout on replies (`None` blocks forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Send one raw frame and read one reply frame, without interpreting
    /// the `ok` envelope. Fault-injection tests use this to deliver
    /// hostile payloads.
    pub fn round_trip(&mut self, frame: &Json) -> Result<Json, ClientError> {
        write_frame(&mut self.writer, frame)?;
        self.read_reply()
    }

    /// Read the next reply frame (for callers that pipelined requests).
    pub fn read_reply(&mut self) -> Result<Json, ClientError> {
        match read_frame_in(&mut self.reader, &mut self.line, self.max_frame)? {
            Some(json) => Ok(json),
            None => Err(ClientError::ConnectionClosed),
        }
    }

    /// Send one frame without waiting for the reply (pipelining).
    pub fn send(&mut self, frame: &Json) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame)?;
        Ok(())
    }

    /// Issue a typed request and unwrap the `ok` envelope: `ok:false`
    /// replies become [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Json, ClientError> {
        let reply = self.round_trip(&req.to_json())?;
        unwrap_ok(reply)
    }

    /// Apply a delta batch; the reply carries the epoch it published.
    pub fn apply(&mut self, deltas: DeltaSet) -> Result<ApplyReply, ClientError> {
        let reply = self.request(&Request::Apply(deltas))?;
        apply_from_json(&reply).map_err(ClientError::Decode)
    }

    /// Current violations with witnesses, plus the pinned epoch.
    pub fn violations(&mut self) -> Result<(u64, Vec<WireViolation>), ClientError> {
        let reply = self.request(&Request::Violations)?;
        let epoch = need_u64(&reply, "epoch")?;
        let list = reply
            .get_arr("violations")
            .ok_or_else(|| ClientError::Decode("reply needs `violations`".to_string()))?;
        let list = decode_all(list, violation_from_json).map_err(ClientError::Decode)?;
        Ok((epoch, list))
    }

    /// Full validation report.
    pub fn report(&mut self) -> Result<ReportReply, ClientError> {
        let reply = self.request(&Request::Report)?;
        report_from_json(&reply).map_err(ClientError::Decode)
    }

    /// `(epoch, G ⊨ Σ, violation count)`, all pinned to one snapshot.
    pub fn is_satisfied(&mut self) -> Result<(u64, bool, u64), ClientError> {
        let reply = self.request(&Request::IsSatisfied)?;
        Ok((
            need_u64(&reply, "epoch")?,
            reply
                .get_bool("satisfied")
                .ok_or_else(|| ClientError::Decode("reply needs `satisfied`".to_string()))?,
            need_u64(&reply, "violations")?,
        ))
    }

    /// Engine metrics as a JSON object (schema owned by `ged-engine`).
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        let reply = self.request(&Request::Metrics)?;
        reply
            .get("metrics")
            .cloned()
            .ok_or_else(|| ClientError::Decode("reply needs `metrics`".to_string()))
    }

    /// Liveness probe.
    pub fn health(&mut self) -> Result<HealthReply, ClientError> {
        let reply = self.request(&Request::Health)?;
        Ok(HealthReply {
            protocol: need_u64(&reply, "protocol")?,
            epoch: need_u64(&reply, "epoch")?,
            rules: need_u64(&reply, "rules")?,
            readers: need_u64(&reply, "readers")?,
            degraded: reply.get_bool("degraded").unwrap_or(false),
        })
    }

    /// Ask the daemon to drain and stop; returns the final epoch.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        let reply = self.request(&Request::Shutdown)?;
        need_u64(&reply, "final_epoch")
    }
}

/// Split an `ok` envelope: `ok:true` passes the body through, `ok:false`
/// becomes a [`ClientError::Server`].
pub fn unwrap_ok(reply: Json) -> Result<Json, ClientError> {
    match reply.get_bool("ok") {
        Some(true) => Ok(reply),
        Some(false) => Err(ClientError::Server {
            code: reply.get_str("code").unwrap_or("internal").to_string(),
            message: reply.get_str("error").unwrap_or("").to_string(),
        }),
        None => Err(ClientError::Decode(format!(
            "reply lacks an `ok` field: {reply}"
        ))),
    }
}

fn need_u64(reply: &Json, field: &str) -> Result<u64, ClientError> {
    reply
        .get_u64(field)
        .ok_or_else(|| ClientError::Decode(format!("reply needs `{field}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    /// A daemon older than the `degraded` field still answers `health`;
    /// the client reads its reply as not degraded.
    #[test]
    fn health_reads_a_missing_degraded_as_false() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let old = r#"{"ok":true,"protocol":1,"epoch":3,"rules":4,"readers":2}"#;
        let new = r#"{"ok":true,"protocol":1,"epoch":3,"rules":4,"readers":2,"degraded":true}"#;
        let daemon = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut requests = BufReader::new(stream.try_clone().unwrap()).lines();
            for reply in [old, new] {
                assert!(requests.next().unwrap().unwrap().contains("health"));
                writeln!(stream, "{reply}").unwrap();
            }
        });
        let mut client = Client::connect(addr).unwrap();
        assert!(!client.health().unwrap().degraded, "{old}");
        assert!(client.health().unwrap().degraded, "{new}");
        daemon.join().unwrap();
    }
}
