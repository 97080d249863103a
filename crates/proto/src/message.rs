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
//! streaming encoders of the replies worth streaming ([`encode_report`],
//! [`encode_violations`], [`encode_apply`] — same bytes as the tree
//! written by `write_frame`, `tests/reply_lines.rs`), and the streaming
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
use ged_core::Literal;
use ged_graph::{sym, Delta, DeltaSet, NodeId, Symbol, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Wire protocol version, reported by `health`.
pub const PROTOCOL_VERSION: u64 = 1;

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
    /// One walk of the line with the shared [`Reader`]: a delta is a few
    /// scalar slots filled in whatever order its keys come (a repeated key
    /// overwrites, as [`Json::get`] takes the last) and read at its `}`;
    /// fields the codec does not know are skipped, their syntax checked
    /// all the same. The request exists only once the last byte of the
    /// line has been accepted. Names of deltas decoded before a line
    /// turned out bad stay interned, as they do when `from_json` stops at
    /// a bad delta.
    pub fn from_line(line: &str) -> Option<Request> {
        let mut r = Reader::new(line);
        let request = read_request(&mut r).ok()??;
        r.end().ok()?;
        Some(request)
    }
}

/// A field's value as [`Request::from_line`] keeps it until the object
/// closes: the scalars the codec reads, borrowed from the line where they
/// can be.
#[derive(Default)]
enum Slot<'a> {
    /// Absent, `null`, or a container: nothing any field is decoded from.
    #[default]
    Unread,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Cow<'a, str>),
}

impl<'a> Slot<'a> {
    /// Read the value that comes next, whatever it is.
    fn read(r: &mut Reader<'a>) -> Result<Slot<'a>, JsonError> {
        Ok(match r.peek()? {
            Kind::Bool => Slot::Bool(r.boolean()?),
            Kind::Number => match r.number()? {
                Number::Int(i) => Slot::Int(i),
                Number::Float(f) => Slot::Float(f),
            },
            Kind::Str => Slot::Str(r.string()?),
            Kind::Null | Kind::Arr | Kind::Obj => {
                r.skip_value()?;
                Slot::Unread
            }
        })
    }

    /// As [`node_from_json`] reads it.
    fn node(&self) -> Option<NodeId> {
        match self {
            Slot::Int(i) => u32::try_from(*i).ok().map(NodeId),
            _ => None,
        }
    }

    /// A label or attribute name, interned.
    fn name(&self) -> Option<Symbol> {
        match self {
            Slot::Str(s) => Some(sym(s)),
            _ => None,
        }
    }

    /// As [`value_from_json`] reads it.
    fn value(self) -> Option<Value> {
        match self {
            Slot::Unread => None,
            Slot::Bool(b) => Some(Value::Bool(b)),
            Slot::Int(i) => Some(Value::Int(i)),
            Slot::Float(f) => Some(Value::Float(f)),
            Slot::Str(s) => Some(Value::Str(s.into_owned())),
        }
    }
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
    let mut cmd = Slot::default();
    let mut deltas = None;
    while let Some(key) = r.next_key()? {
        match &*key {
            "cmd" => cmd = Slot::read(r)?,
            "deltas" => deltas = read_deltas(r)?,
            _ => r.skip_value()?,
        }
    }
    let Slot::Str(cmd) = cmd else {
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
fn read_delta(r: &mut Reader<'_>) -> Result<Option<Delta>, JsonError> {
    if r.peek()? != Kind::Obj {
        r.skip_value()?;
        return Ok(None);
    }
    r.begin_object()?;
    let [mut op, mut node, mut src, mut dst, mut label, mut attr, mut value]: [Slot; 7] =
        Default::default();
    while let Some(key) = r.next_key()? {
        let slot = match &*key {
            "op" => &mut op,
            "node" => &mut node,
            "src" => &mut src,
            "dst" => &mut dst,
            "label" => &mut label,
            "attr" => &mut attr,
            "value" => &mut value,
            _ => {
                r.skip_value()?;
                continue;
            }
        };
        *slot = Slot::read(r)?;
    }
    let Slot::Str(op) = op else {
        return Ok(None);
    };
    // Fields in the order `delta_from_json` asks for them, so a delta it
    // refuses halfway has interned the same names here.
    let delta = || {
        Some(match &*op {
            "add_node" => Delta::AddNode {
                label: label.name()?,
            },
            "remove_node" => Delta::RemoveNode { node: node.node()? },
            "add_edge" => Delta::AddEdge {
                src: src.node()?,
                label: label.name()?,
                dst: dst.node()?,
            },
            "remove_edge" => Delta::RemoveEdge {
                src: src.node()?,
                label: label.name()?,
                dst: dst.node()?,
            },
            "set_attr" => Delta::SetAttr {
                node: node.node()?,
                attr: attr.name()?,
                value: value.value()?,
            },
            "del_attr" => Delta::DelAttr {
                node: node.node()?,
                attr: attr.name()?,
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
pub fn value_to_json(v: &Value) -> Json {
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
            ("label", Json::Str(label.name())),
        ]),
        Delta::RemoveNode { node } => Json::obj(vec![
            ("op", Json::from("remove_node")),
            ("node", node_to_json(*node)),
        ]),
        Delta::AddEdge { src, label, dst } => Json::obj(vec![
            ("op", Json::from("add_edge")),
            ("src", node_to_json(*src)),
            ("label", Json::Str(label.name())),
            ("dst", node_to_json(*dst)),
        ]),
        Delta::RemoveEdge { src, label, dst } => Json::obj(vec![
            ("op", Json::from("remove_edge")),
            ("src", node_to_json(*src)),
            ("label", Json::Str(label.name())),
            ("dst", node_to_json(*dst)),
        ]),
        Delta::SetAttr { node, attr, value } => Json::obj(vec![
            ("op", Json::from("set_attr")),
            ("node", node_to_json(*node)),
            ("attr", Json::Str(attr.name())),
            ("value", value_to_json(value)),
        ]),
        Delta::DelAttr { node, attr } => Json::obj(vec![
            ("op", Json::from("del_attr")),
            ("node", node_to_json(*node)),
            ("attr", Json::Str(attr.name())),
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

/// One violation as carried on the wire: rule name, the witness
/// assignment, and the failure kind rendered with `Debug` (exactly the
/// string the in-process lockstep ledgers use, so protocol-level tests
/// compare witness sets without a reverse codec for [`ViolationKind`]).
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
    Json::obj(vec![
        ("rule", Json::from(rule)),
        (
            "assignment",
            Json::Arr(assignment.iter().map(|n| node_to_json(*n)).collect()),
        ),
        ("kind", Json::Str(format!("{kind:?}"))),
    ])
}

/// Decode one wire violation object.
pub fn violation_from_json(json: &Json) -> Result<WireViolation, String> {
    let rule = json
        .get_str("rule")
        .ok_or_else(|| "violation needs a string `rule`".to_string())?
        .to_string();
    let assignment = json
        .get_arr("assignment")
        .ok_or_else(|| "violation needs an `assignment` array".to_string())?
        .iter()
        .map(node_from_json)
        .collect::<Result<Vec<NodeId>, String>>()?;
    let kind = json
        .get_str("kind")
        .ok_or_else(|| "violation needs a string `kind`".to_string())?
        .to_string();
    Ok(WireViolation {
        rule,
        assignment,
        kind,
    })
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

/// Where [`encode_report`] and [`encode_violations`] want each witness
/// pushed, as `(rule, assignment, kind)` in reply order. The caller's
/// `witnesses` argument is handed one of these exactly once: the engine's
/// `ViolationSnapshot::for_each_witness` (borrowing, sorting in place)
/// and a loop over `ValidationReport::violations` both fit.
pub type WitnessSink<'s> = dyn FnMut(&str, &[NodeId], &ViolationKind) + 's;

/// Writes reply lines for the two witness-carrying replies straight into
/// a buffer, where [`report_to_json`] builds a [`Json`] tree to be
/// written afterwards. Same bytes (the codec tests pin each line to the
/// tree's [`Json::write`] plus `\n`), one buffer instead of a dozen
/// allocations per witness: scalars go through [`Json::write`] itself
/// (`Int`/`Bool` values own nothing), node ids are plain decimal `u32`s,
/// strings go through its [`write_escaped`].
struct LineEncoder {
    out: String,
}

impl LineEncoder {
    /// Start a reply of roughly `witnesses` witnesses and `rules` rule
    /// rows; a short guess costs a reallocation, not correctness.
    fn new(rules: usize, witnesses: usize) -> LineEncoder {
        LineEncoder {
            out: String::with_capacity(96 + 64 * rules + 128 * witnesses),
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

    /// `,"violations":[…]}` + newline: the tail both replies share, each
    /// element shaped like [`violation_to_json`].
    ///
    /// A witness is its rule's head, its ids, and its kind's tail. Heads
    /// and tails are remembered as ranges of `out` for the last rule and
    /// the last kind seen, and a witness that repeats either copies those
    /// bytes, so a run of witnesses of one rule and one kind formats and
    /// escapes them once. The kind must render alike ([`renders_alike`]),
    /// not merely be `==`.
    fn witnesses_and_finish(mut self, witnesses: impl FnOnce(&mut WitnessSink<'_>)) -> Vec<u8> {
        self.key(',', "violations");
        self.out.push('[');
        // The last rule, and where its `{"rule":…,"assignment":[` is in
        // `out` (empty before the first witness).
        let mut rule = String::new();
        let mut head = 0..0;
        // The last kind, and where its `],"kind":…}` is; a new kind's
        // `Debug` text is formatted into `scratch` to be escaped.
        let mut kind: Option<ViolationKind> = None;
        let mut tail = 0..0;
        let mut scratch = String::new();
        witnesses(&mut |name, assignment, k| {
            if !head.is_empty() {
                self.out.push(',');
            }
            if head.is_empty() || name != rule {
                let at = self.out.len();
                self.key('{', "rule");
                write_escaped(name, &mut self.out);
                self.key(',', "assignment");
                self.out.push('[');
                head = at..self.out.len();
                rule.clear();
                rule.push_str(name);
            } else {
                self.out.extend_from_within(head.clone());
            }
            self.id_list(assignment);
            if kind.as_ref().is_some_and(|last| renders_alike(last, k)) {
                self.out.extend_from_within(tail.clone());
            } else {
                let at = self.out.len();
                self.out.push(']');
                self.key(',', "kind");
                scratch.clear();
                write!(scratch, "{k:?}").expect("String as fmt::Write is infallible");
                write_escaped(&scratch, &mut self.out);
                self.out.push('}');
                tail = at..self.out.len();
                kind = Some(k.clone());
            }
        });
        self.out.push_str("]}\n");
        self.out.into_bytes()
    }
}

/// Whether `a` and `b` have the same `Debug` text. `==` is not enough:
/// [`Value`]'s says `Int(2) == Float(2.0)`, which print differently. Equal
/// kinds whose `Const` literals also hold values of the same variant
/// print alike (within a variant, `==` is identity of what `Debug` shows).
/// The matches name every variant, so a new one does not compile here
/// until someone has said how it prints.
fn renders_alike(a: &ViolationKind, b: &ViolationKind) -> bool {
    fn same_variant(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Bool(_), Value::Bool(_))
            | (Value::Int(_), Value::Int(_))
            | (Value::Float(_), Value::Float(_))
            | (Value::Str(_), Value::Str(_)) => true,
            (Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_), _) => false,
        }
    }
    a == b
        && match (a, b) {
            (ViolationKind::Conclusions(a), ViolationKind::Conclusions(b)) => {
                a.iter().zip(b).all(|pair| match pair {
                    (Literal::Const { value: a, .. }, Literal::Const { value: b, .. }) => {
                        same_variant(a, b)
                    }
                    (Literal::Const { .. } | Literal::Vars { .. } | Literal::Id { .. }, _) => true,
                })
            }
            (
                ViolationKind::Conclusions(_)
                | ViolationKind::Predicates(_)
                | ViolationKind::Disjunction,
                _,
            ) => true,
        }
}

/// The `report` reply as one wire line (trailing newline included),
/// byte-identical to `report_to_json(epoch, report)` written by
/// [`crate::wire::write_frame`], without the tree in between. `rules`
/// yields `(name, violation count)` in Σ order; `witnesses` pushes every
/// witness, Σ order then sorted per rule.
pub fn encode_report<'a>(
    epoch: u64,
    rules: impl Iterator<Item = (&'a str, usize)> + Clone,
    witnesses: impl FnOnce(&mut WitnessSink<'_>),
) -> Vec<u8> {
    let total: usize = rules.clone().map(|(_, n)| n).sum();
    let mut enc = LineEncoder::new(rules.size_hint().0, total);
    enc.scalar('{', "ok", true);
    enc.scalar(',', "epoch", epoch);
    enc.scalar(',', "satisfied", total == 0);
    enc.scalar(',', "total", total);
    enc.key(',', "rules");
    enc.out.push('[');
    for (i, (name, n)) in rules.enumerate() {
        if i > 0 {
            enc.out.push(',');
        }
        enc.key('{', "name");
        write_escaped(name, &mut enc.out);
        enc.scalar(',', "violations", n);
        enc.scalar(',', "satisfied", n == 0);
        enc.out.push('}');
    }
    enc.out.push(']');
    enc.witnesses_and_finish(witnesses)
}

/// The `violations` reply (`epoch`, `count`, the witnesses) as one wire
/// line, same contract as [`encode_report`].
pub fn encode_violations(
    epoch: u64,
    count: usize,
    witnesses: impl FnOnce(&mut WitnessSink<'_>),
) -> Vec<u8> {
    let mut enc = LineEncoder::new(0, count);
    enc.scalar('{', "ok", true);
    enc.scalar(',', "epoch", epoch);
    enc.scalar(',', "count", count);
    enc.witnesses_and_finish(witnesses)
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
        .ok_or_else(|| "report needs `rules`".to_string())?
        .iter()
        .map(|r| {
            Ok((
                r.get_str("name")
                    .ok_or_else(|| "rule row needs `name`".to_string())?
                    .to_string(),
                r.get_u64("violations")
                    .ok_or_else(|| "rule row needs `violations`".to_string())?,
                r.get_bool("satisfied")
                    .ok_or_else(|| "rule row needs `satisfied`".to_string())?,
            ))
        })
        .collect::<Result<Vec<(String, u64, bool)>, String>>()?;
    let violations = json
        .get_arr("violations")
        .ok_or_else(|| "report needs `violations`".to_string())?
        .iter()
        .map(violation_from_json)
        .collect::<Result<Vec<WireViolation>, String>>()?;
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
                value: Value::Str("ann \"q\"".to_string()),
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
                kind: ViolationKind::Disjunction,
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
        assert_eq!(
            reply.violations[0].kind,
            format!("{:?}", ViolationKind::Disjunction)
        );
    }
}
