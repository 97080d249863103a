//! The `gedd` server: one lock around the [`IncrementalValidator`], one
//! accept thread, and a detached handler thread per connection
//! (DESIGN.md §10).
//!
//! The threading model is the wire-level image of the engine's
//! one-writer/many-readers split: an `apply` is decoded on its
//! connection's thread, then applied there under the validator's lock —
//! the only way to `&mut` on the validator — while every query request
//! is answered on the connection's own thread from a cloned
//! [`ReadView`], pinning one published snapshot per request. Queries
//! never take the lock, so they never block behind a batch, and two
//! clients racing `apply` are serialized by the lock.
//!
//! Graceful shutdown: a `shutdown` request takes the lock — so the batch
//! holding it lands first — and retires the validator, answering with
//! the final published epoch; every later `apply` finds no validator and
//! gets a structured `shutting-down` error. The handler writes the reply
//! and only then flips the shutdown flag and wakes the accept thread
//! with a self-connect so it drops the listener (the process may exit as
//! soon as that thread is joined — the reply must already be on the
//! wire). Connections that were already open keep answering queries off
//! the final snapshot. An `apply` that panicked poisons the lock: later
//! `apply`s get an `internal` error, `health` says `degraded`, queries
//! and `shutdown` still serve.

use ged_core::rule::Rule;
use ged_engine::validator::IncrementalValidator;
use ged_engine::view::{ReadView, Rendering, ViolationSnapshot};
use ged_graph::{DeltaSet, Graph};
use ged_proto::json::Json;
use ged_proto::message::{
    code, encode_apply, encode_report_head, encode_segment, encode_violations_head, err_response,
    ok_response, write_segmented, ApplyReply, Request, PROTOCOL_VERSION,
};
use ged_proto::wire::{read_line, write_frame, WireError, DEFAULT_MAX_FRAME};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Listen address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Per-frame byte cap enforced on incoming requests.
    pub max_frame: usize,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// The validator every `apply` locks; `None` once shutdown retired it.
type LockedValidator = Arc<Mutex<Option<IncrementalValidator>>>;

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`DaemonHandle::stop`] (in-process) or send a `shutdown`
/// request over the wire, then [`DaemonHandle::join`].
pub struct DaemonHandle {
    addr: SocketAddr,
    validator: LockedValidator,
    shutting_down: Arc<AtomicBool>,
    view: ReadView,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("addr", &self.addr)
            .field("view", &self.view)
            .finish_non_exhaustive()
    }
}

impl DaemonHandle {
    /// The address the daemon is listening on (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A read view of the daemon's validator — the same published
    /// snapshots the connection handlers answer from. For the owning
    /// process: in-process queries and the engine's view counters
    /// ([`ReadView::renders`], [`ReadView::rebuilds`]) without a socket.
    pub fn view(&self) -> &ReadView {
        &self.view
    }

    /// Trigger shutdown from the owning process: let the batch holding
    /// the lock land, retire the validator, close the listener. Returns
    /// the final epoch. Idempotent with a wire-side `shutdown`.
    pub fn stop(&self) -> u64 {
        let final_epoch = retire(&self.validator, &self.view);
        wake_acceptor(&self.shutting_down, self.addr);
        final_epoch
    }

    /// Wait for the accept thread to exit (shutdown must have been
    /// triggered, via [`stop`](DaemonHandle::stop) or a wire `shutdown`
    /// request). Returns the final published epoch.
    pub fn join(mut self) -> u64 {
        if let Some(h) = self.acceptor.take() {
            h.join().expect("accept thread panicked");
        }
        self.view.epoch()
    }
}

/// Wait out the batch holding the lock, then take the validator away, so
/// every later `apply` is refused. Returns the final published epoch —
/// the same on every call, read once the lock is had, so the batch that
/// held it counts. A poisoned lock (an `apply` panicked) still retires:
/// with the validator gone there is nothing left to protect. The retired
/// validator is dropped after the lock is let go, not under it.
fn retire(validator: &LockedValidator, view: &ReadView) -> u64 {
    let retired = validator
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    validator.clear_poison();
    let final_epoch = view.epoch();
    drop(retired);
    final_epoch
}

/// Set the shutdown flag and unblock the accept thread's blocking
/// `accept()` with a throwaway self-connection.
fn wake_acceptor(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::SeqCst);
    // If the connect fails the listener is already gone — fine either way.
    drop(TcpStream::connect(addr));
}

/// Everything a connection handler needs, cheap to clone per connection.
#[derive(Clone)]
struct ConnCtx {
    view: ReadView,
    validator: LockedValidator,
    shutting_down: Arc<AtomicBool>,
    rules: usize,
    max_frame: usize,
    addr: SocketAddr,
}

/// Start a daemon serving `sigma` over `graph` on `config.addr`.
///
/// The validator is seeded (initial full validation), which publishes
/// epoch 0 = the loaded graph, before the listener opens, so the first
/// query ever answered already sees it.
pub fn spawn(
    graph: Graph,
    sigma: Vec<Rule>,
    config: &DaemonConfig,
) -> std::io::Result<DaemonHandle> {
    let rules = sigma.len();
    let validator = IncrementalValidator::new(graph, sigma);
    let view = validator.read_view();

    let listener = TcpListener::bind(resolve(&config.addr)?)?;
    let addr = listener.local_addr()?;

    let validator = Arc::new(Mutex::new(Some(validator)));
    let shutting_down = Arc::new(AtomicBool::new(false));
    let handle_view = view.clone();
    let ctx = ConnCtx {
        view,
        validator: Arc::clone(&validator),
        shutting_down: Arc::clone(&shutting_down),
        rules,
        max_frame: config.max_frame,
        addr,
    };
    let accept_flag = Arc::clone(&shutting_down);
    let acceptor = thread::Builder::new()
        .name("gedd-accept".to_string())
        .spawn(move || accept_loop(&listener, &ctx, &accept_flag))?;

    Ok(DaemonHandle {
        addr,
        validator,
        shutting_down,
        view: handle_view,
        acceptor: Some(acceptor),
    })
}

fn resolve(addr: &str) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("address {addr:?} resolved to nothing"),
        )
    })
}

fn accept_loop(listener: &TcpListener, ctx: &ConnCtx, shutting_down: &AtomicBool) {
    loop {
        let conn = listener.accept();
        if shutting_down.load(Ordering::SeqCst) {
            // The wake connection (or any racer) is dropped unserved;
            // the listener closes when this function returns.
            return;
        }
        let Ok((stream, _peer)) = conn else { continue };
        let conn_ctx = ctx.clone();
        // Detached: the handler lives as long as its client (or the
        // process). Queries after shutdown still answer off the final
        // snapshot; nothing joins these.
        thread::Builder::new()
            .name("gedd-conn".to_string())
            .spawn(move || handle_conn(stream, &conn_ctx))
            .ok();
    }
}

/// Capacity of a connection's socket reader: a 512-delta `apply` frame is
/// ≈ 30 KB, and arrives in one `read` instead of four of std's 8 KiB.
const READ_BUFFER: usize = 64 << 10;

/// Serve one connection: strict request→response per frame, in order.
fn handle_conn(stream: TcpStream, ctx: &ConnCtx) {
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    serve(
        BufReader::with_capacity(READ_BUFFER, read_half),
        stream,
        ctx,
    );
}

/// The per-connection loop over any transport (a test drives it with a
/// writer that stalls, which a socket cannot be made to do on demand).
/// It owns the connection's two buffers: the line every frame is read
/// into (what [`read_line`] lets it keep of a large one is bounded), and
/// the scratch `apply` replies are encoded in.
fn serve(mut reader: impl BufRead, mut writer: impl Write, ctx: &ConnCtx) {
    let mut line = Vec::new();
    let mut scratch = String::new();
    loop {
        let request = match read_line(&mut reader, &mut line, ctx.max_frame) {
            Ok(Some(request)) => request,
            // Clean EOF, a vanished peer, or transport failure: nothing
            // to answer, nobody to answer it to.
            Ok(None) | Err(WireError::Truncated | WireError::Io(_)) => return,
            Err(WireError::Oversized(n)) => {
                // The rest of the oversized line was not consumed, so the
                // stream cannot be re-synchronized: reply and hang up.
                let msg = format!("frame exceeds {} byte cap ({n}+ bytes)", ctx.max_frame);
                write_frame(&mut writer, &err_response(code::OVERSIZED, &msg)).ok();
                return;
            }
            Err(WireError::Malformed(m)) => {
                // Not UTF-8. The offending line was fully consumed; the
                // connection stays usable for the client's next request.
                if write_frame(&mut writer, &err_response(code::MALFORMED, &m)).is_err() {
                    return;
                }
                continue;
            }
        };
        // `respond` has let go of whatever snapshot it pinned by the time
        // it returns, so a client that drains its socket slowly holds a
        // reply, never a buffer the writer is waiting to recycle.
        let reply = respond(request, &mut scratch, ctx);
        let written = reply.write_to(&mut writer);
        if matches!(reply, Reply::Shutdown(_)) {
            // Not before the reply is written and flushed: `join` returns
            // once the acceptor is gone, and the process with it.
            wake_acceptor(&ctx.shutting_down, ctx.addr);
        }
        if written.is_err() {
            return;
        }
    }
}

/// One reply: a document still to be serialised, or a line in pieces.
enum Reply<'s> {
    /// Small replies are built as a tree and written by [`write_frame`].
    Tree(Json),
    /// The `shutdown` acknowledgement: written like a [`Reply::Tree`],
    /// after which `serve` wakes the acceptor.
    Shutdown(Json),
    /// `report`: the snapshot's rendering, head and rule segments, shared
    /// with every other poll of the same epoch.
    Report(Arc<Rendering>),
    /// `violations`: a head of its own, then the same rule segments.
    Violations(Vec<u8>, Arc<Rendering>),
    /// `apply`'s line, encoded in the connection's scratch buffer.
    Scratch(&'s str),
}

impl Reply<'_> {
    fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let line: &[u8] = match self {
            Reply::Tree(json) | Reply::Shutdown(json) => return write_frame(w, json),
            Reply::Report(r) => return write_segmented(w, r.head(), r.segments()),
            Reply::Violations(head, r) => return write_segmented(w, head, r.segments()),
            Reply::Scratch(line) => line.as_bytes(),
        };
        w.write_all(line)?;
        w.flush()
    }
}

/// The rendering `gedd` serves `report` and `violations` from: the
/// `report` head, and each rule's witnesses as a segment
/// ([`ViolationSnapshot::rendered`]). The first poll of an epoch renders
/// the head and the segments of the rules whose witnesses changed since
/// they were last rendered; every later poll of the epoch shares it.
/// [`write_segmented`] makes the `report` line of it.
pub fn rendering(snap: &ViolationSnapshot) -> Arc<Rendering> {
    snap.rendered(
        |snap| encode_report_head(snap.epoch(), snap.rules()),
        |rule, witnesses| encode_segment(rule, witnesses),
    )
}

/// What the reference codec makes of a line [`Request::from_line`] did
/// not answer for: the error reply, in its words. (`Ok` would mean the two
/// decoders disagree, which `request_lines.rs` exists to rule out; it is
/// served, not trusted to be impossible.)
fn decode_by_reference(line: &str) -> Result<Request, Json> {
    let frame = Json::parse(line).map_err(|e| err_response(code::MALFORMED, &e.to_string()))?;
    Request::from_json(&frame).map_err(|e| err_response(e.code, &e.message))
}

/// Compute the response to one request line (decoded here, once).
fn respond<'s>(line: &str, scratch: &'s mut String, ctx: &ConnCtx) -> Reply<'s> {
    let request = match Request::from_line(line).map_or_else(|| decode_by_reference(line), Ok) {
        Ok(request) => request,
        Err(refusal) => return Reply::Tree(refusal),
    };
    let tree = match request {
        Request::Apply(ds) => return respond_apply(ds, scratch, ctx),
        Request::Violations => {
            let snap = ctx.view.snapshot();
            let head = encode_violations_head(snap.epoch(), snap.violation_count());
            return Reply::Violations(head, rendering(&snap));
        }
        Request::Report => return Reply::Report(rendering(&ctx.view.snapshot())),
        Request::IsSatisfied => {
            let snap = ctx.view.snapshot();
            ok_response(vec![
                ("epoch", Json::from(snap.epoch())),
                ("satisfied", Json::Bool(snap.is_satisfied())),
                ("violations", Json::from(snap.violation_count())),
            ])
        }
        Request::Metrics => ok_response(vec![
            ("epoch", Json::from(ctx.view.epoch())),
            ("metrics", ctx.view.metrics().to_json()),
        ]),
        Request::Health => ok_response(vec![
            ("protocol", Json::from(PROTOCOL_VERSION)),
            ("epoch", Json::from(ctx.view.epoch())),
            ("rules", Json::from(ctx.rules)),
            ("readers", Json::from(ctx.view.readers())),
            ("degraded", Json::Bool(ctx.validator.is_poisoned())),
        ]),
        Request::Shutdown => {
            let final_epoch = retire(&ctx.validator, &ctx.view);
            let ack = ok_response(vec![("final_epoch", Json::from(final_epoch))]);
            return Reply::Shutdown(ack);
        }
    };
    Reply::Tree(tree)
}

/// Apply one decoded batch under the lock; the reply is encoded after
/// the lock is let go. A client that hangs up before reading the reply
/// still has its batch applied.
fn respond_apply<'s>(ds: DeltaSet, scratch: &'s mut String, ctx: &ConnCtx) -> Reply<'s> {
    let Ok(mut locked) = ctx.validator.lock() else {
        let why = "an earlier apply panicked; writes refused";
        return Reply::Tree(err_response(code::INTERNAL, why));
    };
    let Some(validator) = locked.as_mut() else {
        let why = "daemon is draining; writes refused";
        return Reply::Tree(err_response(code::SHUTTING_DOWN, why));
    };
    let stats = validator.apply_all(&ds);
    let reply = ApplyReply {
        epoch: validator.published_epoch(),
        applied: stats.deltas_applied as u64,
        violations: validator.violation_count() as u64,
        removed: stats.violations_removed as u64,
        added: stats.violations_added as u64,
    };
    drop(locked);
    encode_apply(scratch, &reply, &stats.created);
    Reply::Scratch(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use ged_graph::{sym, Delta, Value};
    use std::sync::mpsc;

    /// A transport whose first `write` parks until the test drops the
    /// other end of `release` — a client that stops draining its socket,
    /// on demand instead of by filling kernel buffers.
    struct StallingWriter {
        stalled: Option<mpsc::Sender<()>>,
        release: mpsc::Receiver<()>,
    }

    impl Write for StallingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if let Some(stalled) = self.stalled.take() {
                stalled.send(()).expect("test is listening");
                self.release.recv().expect_err("released by hanging up");
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A stalling transport plus the test's two ends of it: `stalled`
    /// fires when the handler reaches its first write, dropping `release`
    /// lets the write return.
    fn stalling_socket() -> (StallingWriter, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (stalled_tx, stalled_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let socket = StallingWriter {
            stalled: Some(stalled_tx),
            release: release_rx,
        };
        (socket, stalled_rx, release_tx)
    }

    fn conn_ctx(validator: &IncrementalValidator) -> ConnCtx {
        // The lock holds no validator: the test keeps it and publishes
        // itself, and `apply`/`shutdown` find it already retired.
        ConnCtx {
            view: validator.read_view(),
            validator: Arc::new(Mutex::new(None)),
            shutting_down: Arc::new(AtomicBool::new(false)),
            rules: validator.sigma().len(),
            max_frame: DEFAULT_MAX_FRAME,
            addr: "127.0.0.1:0".parse().unwrap(),
        }
    }

    /// A handler stuck writing a `report` reply holds the reply and
    /// nothing else: the writer keeps reclaiming the front it replaces, so
    /// every publish behind the stalled client stays on the O(changed) path.
    #[test]
    fn a_stalled_reply_pins_no_snapshot() {
        let (graph, sigma) = workload::load("mixed:honest=120,plants=20,seed=5").unwrap();
        let node = graph.nodes().next().expect("non-empty graph");
        let mut validator = IncrementalValidator::new(graph, sigma);
        let mut flip = 0i64;
        let mut publish = |validator: &mut IncrementalValidator| {
            flip += 1;
            validator.apply(&Delta::SetAttr {
                node,
                attr: sym("stall-probe"),
                value: Value::from(flip),
            });
        };
        let ctx = conn_ctx(&validator);
        // Two publishes, so each copy of the table has been the front once.
        publish(&mut validator);
        publish(&mut validator);

        let (socket, stalled_rx, release_tx) = stalling_socket();
        // The scope owns `release_tx` (it is moved in by the `drop`), so
        // leaving it — normally or by a panic — unparks the handler; a
        // borrowed sender would leave a failing test waiting on its own
        // scope forever.
        let (epochs, rebuilds) = thread::scope(|s| {
            s.spawn(|| serve(&b"{\"cmd\":\"report\"}\n"[..], socket, &ctx));
            stalled_rx.recv().expect("the handler reaches its write");
            let before = (ctx.view.epoch(), ctx.view.rebuilds());
            for _ in 0..6 {
                publish(&mut validator);
            }
            let after = (ctx.view.epoch(), ctx.view.rebuilds());
            drop(release_tx);
            (after.0 - before.0, after.1 - before.1)
        });
        assert_eq!(epochs, 6, "every probe publishes");
        assert_eq!(
            rebuilds, 0,
            "the stalled handler cost the writer an O(store) rebuild"
        );
        assert_eq!(ctx.view.renders(), 1);
    }

    /// The `shutdown` reply is on the wire before the acceptor is woken:
    /// `gedd` exits once writer and acceptor are joined, so waking first
    /// lets the process die with its own acknowledgement unwritten. Parked
    /// inside the reply's write, the handler must not have set the flag
    /// the acceptor exits on.
    #[test]
    fn shutdown_is_acknowledged_before_the_acceptor_is_woken() {
        let (graph, sigma) = workload::load("mixed:honest=20,plants=2,seed=5").unwrap();
        let validator = IncrementalValidator::new(graph, sigma);
        let ctx = conn_ctx(&validator);
        let (socket, stalled_rx, release_tx) = stalling_socket();
        let flag_at_write = thread::scope(|s| {
            s.spawn(|| serve(&b"{\"cmd\":\"shutdown\"}\n"[..], socket, &ctx));
            stalled_rx.recv().expect("the handler reaches its write");
            let flag = ctx.shutting_down.load(Ordering::SeqCst);
            drop(release_tx);
            flag
        });
        assert!(!flag_at_write, "acceptor woken under an unwritten reply");
        assert!(
            ctx.shutting_down.load(Ordering::SeqCst),
            "woken once the reply is out"
        );
    }

    /// A reader whose one line is taken on its first `read`, which fires
    /// `taken`; EOF after it.
    struct SignallingReader {
        line: &'static [u8],
        taken: mpsc::Sender<()>,
    }

    impl io::Read for SignallingReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.line.len().min(buf.len());
            buf[..n].copy_from_slice(&self.line[..n]);
            self.line = &self.line[n..];
            if n > 0 {
                self.taken.send(()).ok();
            }
            Ok(n)
        }
    }

    /// `shutdown` waits out the batch holding the lock and answers with
    /// the epoch that batch published, so the epoch is read once the lock
    /// is had. The handler is given time to reach the lock (it cannot be
    /// seen waiting there); if it has not, the test passes without having
    /// probed the order, it never fails wrongly.
    #[test]
    fn shutdown_reports_the_epoch_of_the_batch_holding_the_lock() {
        let (graph, sigma) = workload::load("mixed:honest=20,plants=2,seed=5").unwrap();
        let node = graph.nodes().next().expect("non-empty graph");
        let validator = IncrementalValidator::new(graph, sigma);
        let ctx = conn_ctx(&validator);
        *ctx.validator.lock().unwrap() = Some(validator);
        let (taken_tx, taken_rx) = mpsc::channel();
        let reader = io::BufReader::new(SignallingReader {
            line: b"{\"cmd\":\"shutdown\"}\n",
            taken: taken_tx,
        });
        let reply = thread::scope(|s| {
            let mut held = ctx.validator.lock().unwrap();
            let handler = s.spawn(|| {
                let mut out = Vec::new();
                serve(reader, &mut out, &ctx);
                out
            });
            taken_rx.recv().expect("the handler reads its request");
            thread::sleep(std::time::Duration::from_millis(50));
            held.as_mut()
                .expect("not retired yet")
                .apply(&Delta::SetAttr {
                    node,
                    attr: sym("probe"),
                    value: Value::from(1i64),
                });
            drop(held);
            handler.join().expect("the handler returns")
        });
        let reply = Json::parse(std::str::from_utf8(&reply).unwrap().trim_end()).unwrap();
        assert_eq!(reply.get_u64("final_epoch"), Some(1), "{reply}");
    }

    /// An `apply` that panics poisons the lock. Later `apply`s are refused
    /// as `internal` instead of hanging, `health` turns `degraded`, and
    /// queries and `shutdown` on the same connection still answer at the
    /// last published epoch.
    #[test]
    fn a_panicked_apply_refuses_writes_and_keeps_serving_reads() {
        let (graph, sigma) = workload::load("mixed:honest=20,plants=2,seed=5").unwrap();
        let node = graph.nodes().next().expect("non-empty graph").0;
        let validator = IncrementalValidator::new(graph, sigma);
        let ctx = conn_ctx(&validator);
        *ctx.validator.lock().unwrap() = Some(validator);
        let apply = format!(
            "{{\"cmd\":\"apply\",\"deltas\":[{{\"op\":\"set_attr\",\"node\":{node},\"attr\":\"probe\",\"value\":1}}]}}\n"
        );
        let health = "{\"cmd\":\"health\"}\n";
        let mut out = Vec::new();
        serve(format!("{apply}{health}").as_bytes(), &mut out, &ctx);
        assert_eq!(ctx.view.epoch(), 1, "the healthy apply publishes");
        let before = String::from_utf8(out).unwrap();
        let before = Json::parse(before.lines().nth(1).unwrap()).unwrap();
        assert_eq!(before.get_bool("degraded"), Some(false), "{before}");
        assert_eq!(
            before.get_u64("protocol"),
            Some(3),
            "witnesses are triples, kinds position lists"
        );

        thread::scope(|s| {
            let apply = s.spawn(|| {
                let _held = ctx.validator.lock().unwrap();
                panic!("an apply panics while it holds the lock");
            });
            apply.join().expect_err("the apply panicked");
        });
        assert!(ctx.validator.is_poisoned());

        let session =
            format!("{apply}{{\"cmd\":\"report\"}}\n{health}{{\"cmd\":\"shutdown\"}}\n{apply}");
        let mut out = Vec::new();
        serve(session.as_bytes(), &mut out, &ctx);
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .collect();
        assert_eq!(replies.len(), 5, "every request is answered");
        assert_eq!(replies[0].get_bool("ok"), Some(false));
        assert_eq!(replies[0].get_str("code"), Some(code::INTERNAL));
        assert_eq!(replies[1].get_u64("epoch"), Some(1), "report");
        assert_eq!(replies[2].get_u64("epoch"), Some(1), "health");
        assert_eq!(replies[2].get_bool("degraded"), Some(true), "health");
        assert_eq!(replies[3].get_u64("final_epoch"), Some(1), "shutdown");
        // Retired, the validator is gone and so is what the poison guarded.
        assert_eq!(replies[4].get_str("code"), Some(code::SHUTTING_DOWN));
    }
}
