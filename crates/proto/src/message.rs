//! Request/response messages of the `gedd` protocol.
//!
//! Every request is one JSON object with a `cmd` field; every response
//! is one JSON object with an `ok` field. Error responses carry a
//! machine-readable `code` from a small closed taxonomy plus a
//! human-readable `error` message, so clients can branch without
//! string-matching prose. [`Delta`]/[`DeltaSet`] and
//! [`ValidationReport`] get explicit codecs here — the daemon and the
//! CLI never hand-roll field names.
//!
//! The codecs over [`Json`] trees (`*_to_json` / `*_from_json`) define
//! the protocol. Beside them sit the paths `gedd` runs per request, each a
//! pure accelerator held to its tree codec by a generated test: the
//! encoders of the replies worth streaming — [`encode_apply`], and the two
//! witness-carrying lines in pieces: a head ([`encode_report_head`],
//! [`encode_violations_head`]) and one segment per rule
//! ([`encode_segment`]), written by [`write_segmented`] without being
//! joined in memory; same bytes as the tree written by `write_frame`
//! (`tests/reply_lines.rs`, which also holds the pieces to
//! [`encode_report`], the `report` line in one buffer) — and the streaming
//! request decoder [`Request::from_line`] (answers exactly when
//! `Json::parse` + [`Request::from_json`] answer `Ok`, with an equal
//! request, `tests/request_lines.rs`; every refusal is left to the
//! reference, so error replies cannot drift).
//!
//! The attribute-value codec preserves the [`Value::Int`] /
//! [`Value::Float`] distinction (literal satisfaction distinguishes
//! `2` from `2.0`): the JSON writer emits integral floats with a
//! trailing `.0` and the parser classifies by the presence of a
//! fraction/exponent, so values survive a round trip bit-for-bit.

use crate::json::{write_escaped, Json, JsonError, Kind, Number, Reader};
use ged_core::constraint::ViolationKind;
use ged_core::reason::ValidationReport;
use ged_core::satisfy::Violation;
use ged_graph::{sym, Delta, DeltaSet, NodeId, Value};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::io::{self, IoSlice, Write};
use std::ops::Range;

/// Wire protocol version, reported by `health`. Version 3: a witness is
/// the positional triple `["rule",[ids…],"kind"]`, where version 2 sent an
/// object with the keys `rule`, `assignment` and `kind`; the `kind` is, as
/// in version 2, the list of its failed conclusion positions (`[0, 2]`, the
/// [`ViolationKind`]'s `Debug` text), the same in every process.
pub const PROTOCOL_VERSION: u64 = 3;

/// Machine-readable error codes used in `{"ok":false,"code":...}`
/// responses.
pub mod code {
    /// The frame was not valid JSON (or not UTF-8).
    pub const MALFORMED: &str = "malformed";
    /// The frame exceeded the daemon's per-frame byte cap.
    pub const OVERSIZED: &str = "oversized";
    /// The `cmd` field named no known request.
    pub const UNKNOWN_CMD: &str = "unknown-cmd";
    /// The request object was structurally invalid (missing/mistyped
    /// fields, unknown delta op, …).
    pub const BAD_REQUEST: &str = "bad-request";
    /// The daemon is draining and no longer accepts writes.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The daemon failed internally while serving the request.
    pub const INTERNAL: &str = "internal";
}

/// A structured request-decoding failure: an error `code` from
/// [`code`] plus a message suitable for the `error` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// One of the [`code`] constants.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn bad(message: impl Into<String>) -> RequestError {
        RequestError {
            code: code::BAD_REQUEST,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RequestError {}

/// One request a client can make of the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a batch of deltas (the single-writer path).
    Apply(DeltaSet),
    /// List the current violations with witnesses.
    Violations,
    /// Full validation report (per-rule summaries + witnesses).
    Report,
    /// Just the `G ⊨ Σ` bit and violation count.
    IsSatisfied,
    /// Engine metrics snapshot.
    Metrics,
    /// Liveness/identity probe.
    Health,
    /// Drain queued applies, publish the final epoch, stop serving.
    Shutdown,
}

impl Request {
    /// Encode as the wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Apply(ds) => Json::obj(vec![
                ("cmd", Json::from("apply")),
                (
                    "deltas",
                    Json::Arr(ds.deltas().iter().map(delta_to_json).collect()),
                ),
            ]),
            Request::Violations => cmd_only("violations"),
            Request::Report => cmd_only("report"),
            Request::IsSatisfied => cmd_only("is_satisfied"),
            Request::Metrics => cmd_only("metrics"),
            Request::Health => cmd_only("health"),
            Request::Shutdown => cmd_only("shutdown"),
        }
    }

    /// Decode a wire object; failures carry the error code the daemon
    /// should reply with.
    pub fn from_json(json: &Json) -> Result<Request, RequestError> {
        let cmd = json
            .get_str("cmd")
            .ok_or_else(|| RequestError::bad("request object needs a string `cmd` field"))?;
        match cmd {
            "apply" => {
                let arr = json
                    .get_arr("deltas")
                    .ok_or_else(|| RequestError::bad("`apply` needs a `deltas` array"))?;
                let mut ds = DeltaSet::new();
                for (i, d) in arr.iter().enumerate() {
                    ds.push(
                        delta_from_json(d)
                            .map_err(|e| RequestError::bad(format!("deltas[{i}]: {e}")))?,
                    );
                }
                Ok(Request::Apply(ds))
            }
            other => Request::without_arguments(other).ok_or_else(|| RequestError {
                code: code::UNKNOWN_CMD,
                message: format!("unknown cmd {other:?}"),
            }),
        }
    }

    /// The request `cmd` names, if it is one that is its `cmd` and
    /// nothing else.
    fn without_arguments(cmd: &str) -> Option<Request> {
        match cmd {
            "violations" => Some(Request::Violations),
            "report" => Some(Request::Report),
            "is_satisfied" => Some(Request::IsSatisfied),
            "metrics" => Some(Request::Metrics),
            "health" => Some(Request::Health),
            "shutdown" => Some(Request::Shutdown),
            _ => None,
        }
    }

    /// Decode a frame's line straight off its bytes, without the [`Json`]
    /// tree in between — an accelerator for [`Json::parse`] +
    /// [`Request::from_json`], never a second opinion. `Some(request)`
    /// exactly when those two answer `Ok(request)`; on every other line
    /// `None`, and the caller runs them on the same line for the error to
    /// reply with, so this path owns no message text.
    ///
    /// One walk of the line with the shared [`Reader`]: a delta is its
    /// fields — the op's name, ids read to `u32`, names and the value
    /// borrowed from the line — filled in whatever order its keys come (a
    /// repeated key overwrites, as [`Json::get`] takes the last) and built
    /// at its `}`; fields the codec does not know are skipped, their
    /// syntax checked all the same. The request exists only once the last
    /// byte of the line has been accepted. Names of deltas decoded before
    /// a line turned out bad stay interned, as they do when `from_json`
    /// stops at a bad delta.
    pub fn from_line(line: &str) -> Option<Request> {
        let mut r = Reader::new(line);
        let request = read_request(&mut r).ok()??;
        r.end().ok()?;
        Some(request)
    }
}

/// The value of a `value` key as [`Request::from_line`] keeps it until the
/// delta closes: a scalar, borrowed from the line where it can be.
enum Scalar<'a> {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
}

impl Scalar<'_> {
    /// As [`value_from_json`] reads it.
    fn value(self) -> Value {
        match self {
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Str(s) => Value::Str(s.into()),
        }
    }
}

/// The value that comes next if it is a scalar; `null` and containers,
/// which no field is decoded from, are skipped.
fn read_scalar<'a>(r: &mut Reader<'a>) -> Result<Option<Scalar<'a>>, JsonError> {
    Ok(Some(match r.peek()? {
        Kind::Bool => Scalar::Bool(r.boolean()?),
        Kind::Number => match r.number()? {
            Number::Int(i) => Scalar::Int(i),
            Number::Float(f) => Scalar::Float(f),
        },
        Kind::Str => Scalar::Str(r.string()?),
        Kind::Null | Kind::Arr | Kind::Obj => {
            r.skip_value()?;
            return Ok(None);
        }
    }))
}

/// The value that comes next if it is a string; any other is skipped.
fn read_str<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if r.peek()? == Kind::Str {
        return r.string().map(Some);
    }
    r.skip_value().map(|()| None)
}

/// The value that comes next if it is a node id as [`node_from_json`]
/// reads one (an integer in `0..=u32::MAX`); any other is skipped.
fn read_node(r: &mut Reader<'_>) -> Result<Option<NodeId>, JsonError> {
    if r.peek()? == Kind::Number {
        return Ok(match r.number()? {
            Number::Int(i) => u32::try_from(i).ok().map(NodeId),
            Number::Float(_) => None,
        });
    }
    r.skip_value().map(|()| None)
}

/// The request in the document `r` is at the start of. `Err` is a syntax
/// error; `Ok(None)` is a well-formed document that [`Request::from_json`]
/// refuses — including an `apply` any of whose deltas it refuses, while
/// `deltas` under another command are as irrelevant here as there.
fn read_request(r: &mut Reader<'_>) -> Result<Option<Request>, JsonError> {
    if r.peek()? != Kind::Obj {
        return Ok(None);
    }
    r.begin_object()?;
    let mut cmd = None;
    let mut deltas = None;
    while let Some(key) = r.next_key()? {
        match key.as_bytes() {
            b"cmd" => cmd = read_str(r)?,
            b"deltas" => deltas = read_deltas(r)?,
            _ => r.skip_value()?,
        }
    }
    let Some(cmd) = cmd else {
        return Ok(None);
    };
    Ok(match &*cmd {
        "apply" => deltas.map(|deltas| Request::Apply(deltas.into())),
        other => Request::without_arguments(other),
    })
}

/// The value of a `deltas` key: `None` unless it is an array of deltas
/// every one of which decodes. After the first that does not, the rest
/// are skipped — checked as syntax, not decoded.
fn read_deltas(r: &mut Reader<'_>) -> Result<Option<Vec<Delta>>, JsonError> {
    if r.peek()? != Kind::Arr {
        r.skip_value()?;
        return Ok(None);
    }
    r.begin_array()?;
    let mut deltas = Some(Vec::new());
    while r.next_element()? {
        match &mut deltas {
            Some(decoded) => match read_delta(r)? {
                Some(delta) => decoded.push(delta),
                None => deltas = None,
            },
            None => r.skip_value()?,
        }
    }
    Ok(deltas)
}

/// One element of `deltas`; `Ok(None)` where [`delta_from_json`] refuses.
///
/// Each field keeps what it could be decoded from, or `None`, in
/// whatever order the keys come: a repeated key overwrites, as
/// [`Json::get`] takes the last. Names are interned only once the object
/// has closed.
fn read_delta(r: &mut Reader<'_>) -> Result<Option<Delta>, JsonError> {
    if r.peek()? != Kind::Obj {
        r.skip_value()?;
        return Ok(None);
    }
    r.begin_object()?;
    let (mut op, mut node, mut src, mut dst) = (None, None, None, None);
    let (mut label, mut attr, mut value) = (None, None, None);
    while let Some(key) = r.next_key()? {
        match key.as_bytes() {
            b"op" => op = read_str(r)?,
            b"node" => node = read_node(r)?,
            b"src" => src = read_node(r)?,
            b"dst" => dst = read_node(r)?,
            b"label" => label = read_str(r)?,
            b"attr" => attr = read_str(r)?,
            b"value" => value = read_scalar(r)?,
            _ => r.skip_value()?,
        }
    }
    let Some(op) = op else {
        return Ok(None);
    };
    let name = |name: Option<Cow<'_, str>>| name.map(|name| sym(&name));
    // Fields in the order `delta_from_json` asks for them, so a delta it
    // refuses halfway has interned the same names here.
    let delta = || {
        Some(match &*op {
            "add_node" => Delta::AddNode {
                label: name(label)?,
            },
            "remove_node" => Delta::RemoveNode { node: node? },
            "add_edge" => Delta::AddEdge {
                src: src?,
                label: name(label)?,
                dst: dst?,
            },
            "remove_edge" => Delta::RemoveEdge {
                src: src?,
                label: name(label)?,
                dst: dst?,
            },
            "set_attr" => Delta::SetAttr {
                node: node?,
                attr: name(attr)?,
                value: value?.value(),
            },
            "del_attr" => Delta::DelAttr {
                node: node?,
                attr: name(attr)?,
            },
            _ => return None,
        })
    };
    Ok(delta())
}

fn cmd_only(cmd: &str) -> Json {
    Json::obj(vec![("cmd", Json::from(cmd))])
}

/// Encode one [`Value`]. `Int` and `Float` stay distinct on the wire
/// (the writer renders integral floats as `N.0`).
fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

/// Decode one [`Value`]; arrays/objects/null are not attribute values.
pub fn value_from_json(json: &Json) -> Result<Value, String> {
    match json {
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        other => Err(format!("not an attribute value: {other}")),
    }
}

fn node_to_json(n: NodeId) -> Json {
    Json::Int(i64::from(n.0))
}

fn node_from_json(json: &Json) -> Result<NodeId, String> {
    match json.as_u64() {
        Some(id) if id <= u64::from(u32::MAX) => Ok(NodeId(id as u32)),
        _ => Err(format!("not a node id: {json}")),
    }
}

/// Encode one [`Delta`] as a tagged object (`{"op":"add_edge",...}`).
pub fn delta_to_json(d: &Delta) -> Json {
    match d {
        Delta::AddNode { label } => Json::obj(vec![
            ("op", Json::from("add_node")),
            ("label", Json::from(label.name())),
        ]),
        Delta::RemoveNode { node } => Json::obj(vec![
            ("op", Json::from("remove_node")),
            ("node", node_to_json(*node)),
        ]),
        Delta::AddEdge { src, label, dst } => Json::obj(vec![
            ("op", Json::from("add_edge")),
            ("src", node_to_json(*src)),
            ("label", Json::from(label.name())),
            ("dst", node_to_json(*dst)),
        ]),
        Delta::RemoveEdge { src, label, dst } => Json::obj(vec![
            ("op", Json::from("remove_edge")),
            ("src", node_to_json(*src)),
            ("label", Json::from(label.name())),
            ("dst", node_to_json(*dst)),
        ]),
        Delta::SetAttr { node, attr, value } => Json::obj(vec![
            ("op", Json::from("set_attr")),
            ("node", node_to_json(*node)),
            ("attr", Json::from(attr.name())),
            ("value", value_to_json(value)),
        ]),
        Delta::DelAttr { node, attr } => Json::obj(vec![
            ("op", Json::from("del_attr")),
            ("node", node_to_json(*node)),
            ("attr", Json::from(attr.name())),
        ]),
    }
}

/// Decode one [`Delta`] from its tagged-object form.
pub fn delta_from_json(json: &Json) -> Result<Delta, String> {
    let op = json
        .get_str("op")
        .ok_or_else(|| "delta object needs a string `op` field".to_string())?;
    let node = |field: &str| -> Result<NodeId, String> {
        node_from_json(
            json.get(field)
                .ok_or_else(|| format!("`{op}` needs `{field}`"))?,
        )
    };
    let name = |field: &str| -> Result<String, String> {
        json.get_str(field)
            .map(str::to_string)
            .ok_or_else(|| format!("`{op}` needs a string `{field}`"))
    };
    match op {
        "add_node" => Ok(Delta::AddNode {
            label: sym(&name("label")?),
        }),
        "remove_node" => Ok(Delta::RemoveNode {
            node: node("node")?,
        }),
        "add_edge" => Ok(Delta::AddEdge {
            src: node("src")?,
            label: sym(&name("label")?),
            dst: node("dst")?,
        }),
        "remove_edge" => Ok(Delta::RemoveEdge {
            src: node("src")?,
            label: sym(&name("label")?),
            dst: node("dst")?,
        }),
        "set_attr" => Ok(Delta::SetAttr {
            node: node("node")?,
            attr: sym(&name("attr")?),
            value: value_from_json(
                json.get("value")
                    .ok_or_else(|| "`set_attr` needs `value`".to_string())?,
            )?,
        }),
        "del_attr" => Ok(Delta::DelAttr {
            node: node("node")?,
            attr: sym(&name("attr")?),
        }),
        other => Err(format!("unknown delta op {other:?}")),
    }
}

/// Build the shared `{"ok":true,...}` envelope around response fields.
pub fn ok_response(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Json::obj(all)
}

/// Build an `{"ok":false,"code":...,"error":...}` response.
pub fn err_response(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", Json::from(code)),
        ("error", Json::from(message)),
    ])
}

/// One violation as carried on the wire, the triple `["rule",[ids…],"kind"]`:
/// rule name, the witness assignment, and the failure kind rendered with
/// `Debug` — the ascending positions of the failed conclusion literals,
/// `[0, 2]` — exactly the string the in-process lockstep ledgers use, so
/// protocol-level tests compare witness sets without a reverse codec for
/// [`ViolationKind`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct WireViolation {
    /// Name of the violated rule.
    pub rule: String,
    /// The witness match (pattern-variable order).
    pub assignment: Vec<NodeId>,
    /// `format!("{:?}", kind)` of the [`ViolationKind`].
    pub kind: String,
}

/// Encode one in-process [`Violation`] for the wire.
pub fn violation_to_json(v: &Violation) -> Json {
    wire_violation_to_json(&v.ged_name, &v.assignment, &v.kind)
}

fn wire_violation_to_json(rule: &str, assignment: &[NodeId], kind: &ViolationKind) -> Json {
    Json::Arr(vec![
        Json::from(rule),
        Json::Arr(assignment.iter().map(|n| node_to_json(*n)).collect()),
        Json::from(format!("{kind:?}")),
    ])
}

/// Decode one wire violation: exactly the three items of
/// `["rule",[ids…],"kind"]`. The object a protocol-2 `gedd` sent is refused
/// by name, as is an array of any other length.
pub fn violation_from_json(json: &Json) -> Result<WireViolation, String> {
    const SHAPE: &str = "a violation is the array [\"rule\", [ids…], \"kind\"]";
    let (rule, assignment, kind) = match json {
        Json::Arr(items) => match &items[..] {
            [rule, assignment, kind] => (rule, assignment, kind),
            _ => return Err(format!("{SHAPE}, not {} items", items.len())),
        },
        Json::Obj(_) => return Err(format!("{SHAPE}, not an object (protocol 2)")),
        other => return Err(format!("{SHAPE}, not {other}")),
    };
    let rule = rule
        .as_str()
        .ok_or_else(|| "a violation's rule is a string".to_string())?
        .to_string();
    let assignment = assignment
        .as_arr()
        .ok_or_else(|| "a violation's assignment is an array".to_string())?;
    let assignment = decode_all(assignment, node_from_json)?;
    let kind = kind
        .as_str()
        .ok_or_else(|| "a violation's kind is a string".to_string())?
        .to_string();
    Ok(WireViolation {
        rule,
        assignment,
        kind,
    })
}

/// Decode every item of a JSON array into a `Vec` allocated once, at the
/// array's length: collecting an iterator of `Result`s starts from a size
/// hint of 0 and grows by doubling.
pub(crate) fn decode_all<T>(
    items: &[Json],
    decode: impl FnMut(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(items.len());
    for item in items.iter().map(decode) {
        out.push(item?);
    }
    Ok(out)
}

/// Encode a full [`ValidationReport`] plus the epoch it was pinned at.
pub fn report_to_json(epoch: u64, report: &ValidationReport) -> Json {
    ok_response(vec![
        ("epoch", Json::from(epoch)),
        ("satisfied", Json::Bool(report.satisfied())),
        ("total", Json::from(report.violations.len())),
        (
            "rules",
            Json::Arr(
                report
                    .per_ged
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::from(r.name.as_str())),
                            ("violations", Json::from(r.violation_count)),
                            ("satisfied", Json::Bool(r.satisfied)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "violations",
            Json::Arr(report.violations.iter().map(violation_to_json).collect()),
        ),
    ])
}

/// Where [`encode_report`] wants each witness pushed, as `(rule,
/// assignment, kind)` in reply order, the rule and the kind borrowed for
/// `'w` (the encoder keeps the last of each to compare against). The
/// caller's `witnesses` argument is handed one of these exactly once: the
/// engine's `ViolationSnapshot::for_each_witness` (borrowing, sorting in
/// place) and a loop over `ValidationReport::violations` both fit.
pub type WitnessSink<'s, 'w> = dyn FnMut(&'w str, &[NodeId], &'w ViolationKind) + 's;

/// Bytes [`encode_report`] reserves per witness: a two-node witness of a
/// one-literal kind takes about 30.
const WITNESS_BYTES: usize = 48;

/// What a witness of `rule` with `ids` node ids and this `kind` takes
/// when every id has ten digits (`u32::MAX`'s width): no witness of the
/// rule whose kind prints as long takes more. [`encode_segment`] sizes
/// its buffer with the first witness's, formatting nothing.
fn widest_witness(rule: &str, ids: usize, kind: &ViolationKind) -> usize {
    /// Counts the bytes [`write_escaped`] writes for what it is given,
    /// quotes aside.
    struct EscapedLen(usize);
    impl std::fmt::Write for EscapedLen {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            let width = |b| match b {
                b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 2,
                0..=0x1f => 6,
                _ => 1,
            };
            self.0 += s.bytes().map(width).sum::<usize>();
            Ok(())
        }
    }
    let mut len = EscapedLen(r#"["",[],""]"#.len());
    write!(len, "{rule}{kind:?}").expect("counting is infallible");
    len.0 + (11 * ids).saturating_sub(1)
}

/// What closes both witness-carrying replies: the witness array, the
/// object, the line.
const REPLY_TAIL: &str = "]}\n";

/// Writes the witness-carrying replies, or their pieces, straight into a
/// buffer, where [`report_to_json`] builds a [`Json`] tree to be written
/// afterwards. Same bytes (the codec tests pin each line to the
/// tree's [`Json::write`] plus `\n`), one buffer instead of several
/// allocations per witness: scalars go through [`Json::write`] itself
/// (`Int`/`Bool` values own nothing), node ids are plain decimal `u32`s,
/// strings go through its [`write_escaped`], and a kind's `Debug` text
/// (digits, commas, spaces and brackets: nothing to escape) is formatted
/// in place.
struct LineEncoder {
    out: String,
}

/// What a run of witnesses shares, remembered for the last witness
/// written: its rule with where its head `["rule",[` is in the buffer, and
/// its kind with where its tail `],"kind"]` is. A witness that repeats
/// either copies those bytes, so a run of witnesses of one rule and one
/// kind formats and escapes them once.
#[derive(Default)]
struct Run<'w> {
    rule: Option<(&'w str, Range<usize>)>,
    kind: Option<(&'w ViolationKind, Range<usize>)>,
}

impl LineEncoder {
    /// Start a buffer of roughly `bytes` bytes; a short guess costs a
    /// reallocation, not correctness.
    fn new(bytes: usize) -> LineEncoder {
        LineEncoder {
            out: String::with_capacity(bytes),
        }
    }

    /// `"key":` preceded by `sep`.
    fn key(&mut self, sep: char, key: &str) {
        self.out.push(sep);
        write_escaped(key, &mut self.out);
        self.out.push(':');
    }

    fn scalar(&mut self, sep: char, key: &str, value: impl Into<Json>) {
        self.key(sep, key);
        value.into().write(&mut self.out);
    }

    /// `"key":[id,…]` preceded by `sep`.
    fn ids(&mut self, sep: char, key: &str, ids: &[NodeId]) {
        self.key(sep, key);
        self.out.push('[');
        self.id_list(ids);
        self.out.push(']');
    }

    /// `id,id,…`, each the decimal digits `Json::Int` would write.
    fn id_list(&mut self, ids: &[NodeId]) {
        for (i, n) in ids.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let mut digits = [0u8; 10];
            let mut at = digits.len();
            let mut rest = n.0;
            loop {
                at -= 1;
                digits[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
                if rest == 0 {
                    break;
                }
            }
            self.out
                .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
        }
    }

    /// The witnesses `witnesses` pushes, comma-separated, each shaped like
    /// [`violation_to_json`]: a witness is its rule's head, its ids, and
    /// its kind's tail, and a head or a tail the last witness also had is
    /// copied ([`Run`]): `==` kinds print alike.
    fn witnesses<'w>(&mut self, witnesses: impl FnOnce(&mut WitnessSink<'_, 'w>)) {
        let mut run = Run::default();
        let mut first = true;
        witnesses(&mut |rule, assignment, kind| {
            if !std::mem::take(&mut first) {
                self.out.push(',');
            }
            match &run.rule {
                Some((last, head)) if *last == rule => self.out.extend_from_within(head.clone()),
                _ => {
                    let at = self.out.len();
                    self.out.push('[');
                    write_escaped(rule, &mut self.out);
                    self.out.push_str(",[");
                    run.rule = Some((rule, at..self.out.len()));
                }
            }
            self.id_list(assignment);
            match &run.kind {
                Some((last, tail)) if *last == kind => {
                    self.out.extend_from_within(tail.clone());
                }
                _ => {
                    let at = self.out.len();
                    self.out.push_str("],\"");
                    write!(self.out, "{kind:?}").expect("formatting is infallible");
                    self.out.push_str("\"]");
                    run.kind = Some((kind, at..self.out.len()));
                }
            }
        });
    }

    /// `,"violations":[`: where the witnesses start.
    fn open_witnesses(&mut self) {
        self.key(',', "violations");
        self.out.push('[');
    }

    /// `{"ok":true,"epoch":…,"satisfied":…,"total":…,"rules":[…],"violations":[`
    /// — everything of a `report` line before its witnesses.
    fn report_head<'a>(
        &mut self,
        epoch: u64,
        rules: impl Iterator<Item = (&'a str, usize)> + Clone,
    ) {
        let total: usize = rules.clone().map(|(_, n)| n).sum();
        self.scalar('{', "ok", true);
        self.scalar(',', "epoch", epoch);
        self.scalar(',', "satisfied", total == 0);
        self.scalar(',', "total", total);
        self.key(',', "rules");
        self.out.push('[');
        for (i, (name, n)) in rules.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.key('{', "name");
            write_escaped(name, &mut self.out);
            self.scalar(',', "violations", n);
            self.scalar(',', "satisfied", n == 0);
            self.out.push('}');
        }
        self.out.push(']');
        self.open_witnesses();
    }
}

/// The `report` reply as one wire line (trailing newline included),
/// byte-identical to `report_to_json(epoch, report)` written by
/// [`crate::wire::write_frame`], without the tree in between. `rules`
/// yields `(name, violation count)` in Σ order; `witnesses` pushes every
/// witness, Σ order then sorted per rule.
///
/// The same line in pieces, the way `gedd` serves it: [`encode_report_head`],
/// then the [`encode_segment`] of each rule, written by
/// [`write_segmented`].
pub fn encode_report<'a, 'w>(
    epoch: u64,
    rules: impl Iterator<Item = (&'a str, usize)> + Clone,
    witnesses: impl FnOnce(&mut WitnessSink<'_, 'w>),
) -> Vec<u8> {
    let total: usize = rules.clone().map(|(_, n)| n).sum();
    let mut enc = LineEncoder::new(96 + 64 * rules.size_hint().0 + WITNESS_BYTES * total);
    enc.report_head(epoch, rules);
    enc.witnesses(witnesses);
    enc.out.push_str(REPLY_TAIL);
    enc.out.into_bytes()
}

/// The head of a `report` line: [`encode_report`]'s bytes up to its first
/// witness, `"violations":[` included.
pub fn encode_report_head<'a>(
    epoch: u64,
    rules: impl Iterator<Item = (&'a str, usize)> + Clone,
) -> Vec<u8> {
    let mut enc = LineEncoder::new(96 + 64 * rules.size_hint().0);
    enc.report_head(epoch, rules);
    enc.out.into_bytes()
}

/// The head of a `violations` line (`epoch`, `count`), up to its first
/// witness: the line is this head and the `report` line's segments,
/// written by [`write_segmented`].
pub fn encode_violations_head(epoch: u64, count: usize) -> Vec<u8> {
    let mut enc = LineEncoder::new(64);
    enc.scalar('{', "ok", true);
    enc.scalar(',', "epoch", epoch);
    enc.scalar(',', "count", count);
    enc.open_witnesses();
    enc.out.into_bytes()
}

/// One rule's witnesses (sorted) as they appear inside either reply, comma
/// separated, with no comma, bracket or newline around them; empty for a
/// rule without witnesses. A rule's segment depends on nothing but the
/// rule and its witnesses, so a rule whose witnesses did not change can
/// send the bytes it sent before.
///
/// The buffer is allocated once, for as many witnesses as the first one
/// with its ids at ten digits and a comma each: a segment whose kinds all
/// print alike never reallocates while it is formatted.
pub fn encode_segment<'w>(
    rule: &'w str,
    witnesses: impl IntoIterator<Item = (&'w [NodeId], &'w ViolationKind)>,
) -> Vec<u8> {
    let mut witnesses = witnesses.into_iter().peekable();
    let each = witnesses.peek().map_or(0, |(assignment, kind)| {
        widest_witness(rule, assignment.len(), kind) + 1
    });
    let mut enc = LineEncoder::new(each * witnesses.size_hint().0);
    enc.witnesses(|sink| witnesses.for_each(|(assignment, kind)| sink(rule, assignment, kind)));
    enc.out.into_bytes()
}

/// Write a witness-carrying reply from its pieces — `head`, the non-empty
/// `segments` joined by commas, the closing `]}` and newline — with
/// vectored writes, then flush: the line is never assembled in one buffer.
/// With [`encode_report_head`] and the segments, the bytes are
/// [`encode_report`]'s.
pub fn write_segmented<'a>(
    w: &mut impl Write,
    head: &'a [u8],
    segments: impl IntoIterator<Item = &'a [u8]>,
) -> io::Result<()> {
    let mut slices = vec![IoSlice::new(head)];
    for segment in segments.into_iter().filter(|s| !s.is_empty()) {
        if slices.len() > 1 {
            slices.push(IoSlice::new(b","));
        }
        slices.push(IoSlice::new(segment));
    }
    slices.push(IoSlice::new(REPLY_TAIL.as_bytes()));
    let mut unwritten = &mut slices[..];
    while !unwritten.is_empty() {
        match w.write_vectored(unwritten) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// The `apply` reply as one wire line in `out` (cleared first; a
/// connection that passes the same buffer each time allocates nothing
/// here), newline included: `reply`'s counts, then the ids the batch's
/// `add_node` deltas `created`, in order. Byte-identical to the
/// [`ok_response`] tree of the same fields written by
/// [`crate::wire::write_frame`], and [`apply_from_json`] reads `reply`
/// back out of it.
pub fn encode_apply(out: &mut String, reply: &ApplyReply, created: &[NodeId]) {
    out.clear();
    let mut enc = LineEncoder {
        out: std::mem::take(out),
    };
    enc.scalar('{', "ok", true);
    enc.scalar(',', "epoch", reply.epoch);
    enc.scalar(',', "applied", reply.applied);
    enc.scalar(',', "violations", reply.violations);
    enc.scalar(',', "removed", reply.removed);
    enc.scalar(',', "added", reply.added);
    enc.ids(',', "created", created);
    enc.out.push_str("}\n");
    *out = enc.out;
}

/// Decoded `report` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportReply {
    /// Batch boundary the report was pinned at.
    pub epoch: u64,
    /// `G ⊨ Σ`?
    pub satisfied: bool,
    /// Per-rule (name, violation count, satisfied) rows in Σ order.
    pub rules: Vec<(String, u64, bool)>,
    /// All witnesses, Σ order then per-rule sorted.
    pub violations: Vec<WireViolation>,
}

/// Decode a `report` response body (after the `ok` check).
pub fn report_from_json(json: &Json) -> Result<ReportReply, String> {
    let epoch = json
        .get_u64("epoch")
        .ok_or_else(|| "report needs `epoch`".to_string())?;
    let satisfied = json
        .get_bool("satisfied")
        .ok_or_else(|| "report needs `satisfied`".to_string())?;
    let rules = json
        .get_arr("rules")
        .ok_or_else(|| "report needs `rules`".to_string())?;
    let rules = decode_all(rules, |r| {
        Ok((
            r.get_str("name")
                .ok_or_else(|| "rule row needs `name`".to_string())?
                .to_string(),
            r.get_u64("violations")
                .ok_or_else(|| "rule row needs `violations`".to_string())?,
            r.get_bool("satisfied")
                .ok_or_else(|| "rule row needs `satisfied`".to_string())?,
        ))
    })?;
    let violations = json
        .get_arr("violations")
        .ok_or_else(|| "report needs `violations`".to_string())?;
    let violations = decode_all(violations, violation_from_json)?;
    Ok(ReportReply {
        epoch,
        satisfied,
        rules,
        violations,
    })
}

/// Decoded `apply` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyReply {
    /// Epoch published by (or current after) this batch.
    pub epoch: u64,
    /// Deltas that actually changed the graph.
    pub applied: u64,
    /// Live violations after the batch.
    pub violations: u64,
    /// Witnesses dropped by the batch.
    pub removed: u64,
    /// Witnesses added by the batch.
    pub added: u64,
}

/// Decode an `apply` response body (after the `ok` check).
pub fn apply_from_json(json: &Json) -> Result<ApplyReply, String> {
    let field = |name: &str| {
        json.get_u64(name)
            .ok_or_else(|| format!("apply reply needs `{name}`"))
    };
    Ok(ApplyReply {
        epoch: field("epoch")?,
        applied: field("applied")?,
        violations: field("violations")?,
        removed: field("removed")?,
        added: field("added")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &Request) -> Request {
        let json = req.to_json();
        // The wire carries text, not `Json` values: go through it.
        let text = json.to_string();
        let decoded = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(Request::from_line(&text).as_ref(), Some(&decoded), "{text}");
        decoded
    }

    #[test]
    fn query_requests_roundtrip() {
        for req in [
            Request::Violations,
            Request::Report,
            Request::IsSatisfied,
            Request::Metrics,
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(roundtrip(&req), req);
        }
    }

    #[test]
    fn apply_roundtrips_every_delta_shape() {
        let ds: DeltaSet = vec![
            Delta::AddNode {
                label: sym("person"),
            },
            Delta::RemoveNode { node: NodeId(3) },
            Delta::AddEdge {
                src: NodeId(1),
                label: sym("knows"),
                dst: NodeId(2),
            },
            Delta::RemoveEdge {
                src: NodeId(2),
                label: sym("knows"),
                dst: NodeId(2),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("age"),
                value: Value::Int(2),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("rating"),
                value: Value::Float(2.0),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("name"),
                value: Value::from("ann \"q\""),
            },
            Delta::SetAttr {
                node: NodeId(1),
                attr: sym("fake"),
                value: Value::Bool(true),
            },
            Delta::DelAttr {
                node: NodeId(1),
                attr: sym("age"),
            },
        ]
        .into();
        assert_eq!(roundtrip(&Request::Apply(ds.clone())), Request::Apply(ds));
    }

    #[test]
    fn int_float_distinction_survives_the_wire() {
        let int = value_to_json(&Value::Int(2)).to_string();
        let float = value_to_json(&Value::Float(2.0)).to_string();
        assert_eq!(int, "2");
        assert_eq!(float, "2.0");
        assert_eq!(
            value_from_json(&Json::parse(&int).unwrap()).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            value_from_json(&Json::parse(&float).unwrap()).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn decode_failures_carry_codes() {
        let e = Request::from_json(&Json::parse("{\"cmd\":\"frobnicate\"}").unwrap()).unwrap_err();
        assert_eq!(e.code, code::UNKNOWN_CMD);
        let e = Request::from_json(&Json::parse("{\"cmd\":\"apply\"}").unwrap()).unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        let e = Request::from_json(
            &Json::parse("{\"cmd\":\"apply\",\"deltas\":[{\"op\":\"warp\"}]}").unwrap(),
        )
        .unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
        assert!(e.message.contains("deltas[0]"), "{}", e.message);
        let e = Request::from_json(&Json::parse("[1,2]").unwrap()).unwrap_err();
        assert_eq!(e.code, code::BAD_REQUEST);
    }

    #[test]
    fn responses_carry_the_ok_envelope() {
        let ok = ok_response(vec![("epoch", Json::from(4u64))]);
        assert_eq!(ok.get_bool("ok"), Some(true));
        assert_eq!(ok.get_u64("epoch"), Some(4));
        let err = err_response(code::MALFORMED, "bad line");
        assert_eq!(err.get_bool("ok"), Some(false));
        assert_eq!(err.get_str("code"), Some(code::MALFORMED));
    }

    /// The size `encode_segment` reserves per witness is what a witness
    /// with ten-digit ids takes, to the byte, whatever needs escaping in
    /// the rule's name.
    #[test]
    fn widest_witness_is_a_ten_digit_witness() {
        let every_ascii: String = (0u8..0x80).map(char::from).collect();
        let rules = ["keys", "ünï \"cödé\"", every_ascii.as_str()];
        let kinds = [vec![], vec![0, 12], (0..40).collect()].map(ViolationKind::from);
        let widest = [
            NodeId(u32::MAX),
            NodeId(1_000_000_000),
            NodeId(4_000_000_000),
        ];
        for rule in rules {
            for kind in &kinds {
                for ids in 0..=widest.len() {
                    let line = encode_segment(rule, [(&widest[..ids], kind)]);
                    let at = format!("{rule:?}, {ids} ids, {kind:?}");
                    assert_eq!(widest_witness(rule, ids, kind), line.len(), "{at}");
                }
            }
        }
    }

    #[test]
    fn report_roundtrips() {
        use ged_core::reason::{GedReport, ValidationReport};
        let report = ValidationReport {
            per_ged: vec![
                GedReport {
                    name: "keys".to_string(),
                    violation_count: 1,
                    satisfied: false,
                },
                GedReport {
                    name: "ages".to_string(),
                    violation_count: 0,
                    satisfied: true,
                },
            ],
            violations: vec![Violation {
                ged_name: "keys".to_string(),
                assignment: vec![NodeId(4), NodeId(7)],
                kind: ViolationKind::from(vec![0, 2]),
            }],
        };
        let json = Json::parse(&report_to_json(3, &report).to_string()).unwrap();
        let reply = report_from_json(&json).unwrap();
        assert_eq!(reply.epoch, 3);
        assert!(!reply.satisfied);
        assert_eq!(reply.rules.len(), 2);
        assert_eq!(reply.rules[0], ("keys".to_string(), 1, false));
        assert_eq!(reply.violations.len(), 1);
        assert_eq!(reply.violations[0].assignment, vec![NodeId(4), NodeId(7)]);
        assert_eq!(reply.violations[0].kind, "[0, 2]");
    }

    /// A witness is the triple `["rule",[ids…],"kind"]` and nothing else:
    /// the protocol-2 object and arrays of two or four items are refused,
    /// each with a message that says what a violation is.
    #[test]
    fn a_violation_is_exactly_a_triple() {
        let witness = Violation {
            ged_name: "keys".to_string(),
            assignment: vec![NodeId(4), NodeId(7)],
            kind: ViolationKind::from(vec![0, 2]),
        };
        let line = violation_to_json(&witness).to_string();
        assert_eq!(line, r#"["keys",[4,7],"[0, 2]"]"#);
        let decoded = violation_from_json(&Json::parse(&line).unwrap()).unwrap();
        let expected = WireViolation {
            rule: "keys".to_string(),
            assignment: vec![NodeId(4), NodeId(7)],
            kind: "[0, 2]".to_string(),
        };
        assert_eq!(decoded, expected);
        let shape = r#"a violation is the array ["rule", [ids…], "kind"], not "#;
        for (line, refusal) in [
            (
                r#"{"rule":"keys","assignment":[4,7],"kind":"[0, 2]"}"#,
                "an object (protocol 2)",
            ),
            (r#"["keys",[4,7]]"#, "2 items"),
            (r#"["keys",[4,7],"[0, 2]","[1]"]"#, "4 items"),
            (r#""keys""#, r#""keys""#),
        ] {
            let e = violation_from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert_eq!(e, format!("{shape}{refusal}"), "{line}");
        }
        for (line, refusal) in [
            (r#"[4,[4,7],"[0, 2]"]"#, "rule is a string"),
            (r#"["keys",4,"[0, 2]"]"#, "assignment is an array"),
            (r#"["keys",[4,-7],"[0, 2]"]"#, "not a node id: -7"),
            (r#"["keys",[4,7],[0,2]]"#, "kind is a string"),
        ] {
            let e = violation_from_json(&Json::parse(line).unwrap()).unwrap_err();
            assert!(e.contains(refusal), "{line}: {e}");
        }
    }
}
