//! The streamed request decoder against the reference codec — the mirror
//! of `reply_lines.rs`. `Request::from_line` may answer only what
//! `Json::parse` + `Request::from_json` answer `Ok` with, and must answer
//! whenever they do (a decoder that gives up on lines the reference
//! accepts is still correct, and the speed-up is silently gone): one
//! equality per line, over lines no encoder of ours would write.
//!
//! Generated lines aim at where two decoders can part ways: keys in any
//! order, repeated keys (the last one counts), keys and names spelled with
//! escapes, unknown fields holding values nested up to and past
//! `MAX_DEPTH`, white space wherever JSON allows it, node ids at and
//! beyond both ends of `u32`, `2` against `2.0`, `deltas` before `cmd` and
//! under commands that ignore it, and every way a delta can be refused.
//! Mutated lines (bytes flipped, inserted, cut) cover what the generator
//! has no name for. Framing gets the same treatment: `read_line` +
//! `Json::parse` must read what `read_frame` reads however the transport
//! cuts the bytes.

use ged_proto::json::MAX_DEPTH;
use ged_proto::wire::read_line;
use ged_proto::{read_frame, Json, Request, WireError};
use proptest::prelude::*;
use proptest::TestRng;
use std::io::{BufRead, Read};

/// String material: `json.rs`'s `PIECES` (every byte class the escaper and
/// the lexer branch on) plus a second astral character and a letter `u`
/// to sit next to backslashes.
const PIECES: [&str; 15] = [
    "\"", "\\", "\n", "\r", "\t", "\0", "\u{1f}", "\u{7f}", "é", "🦀", "a", " ", "/", "𝄞", "u",
];

fn pick<'a>(rng: &mut TestRng, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len())]
}

/// White space, or more often none. `\n` is JSON white space too, but a
/// line on the wire cannot hold one, so the framing test leaves it out.
fn ws(rng: &mut TestRng) -> &'static str {
    pick(
        rng,
        &["", "", "", "", " ", "\t", "  ", "\r", " \t ", "\n", "\n\r"],
    )
}

/// `text` as a JSON string literal, each character spelled one of the
/// ways JSON allows: itself, its short escape, or `\uXXXX` (a surrogate
/// pair beyond the BMP), in either hex case.
fn spell(rng: &mut TestRng, text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            _ => None,
        };
        let must_escape = c == '"' || c == '\\' || c < ' ';
        match rng.below(if must_escape { 2 } else { 6 }) {
            0 if short.is_some() => out.push_str(short.expect("checked")),
            0 | 1 => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    if rng.chance(0.5) {
                        out.push_str(&format!("\\u{unit:04x}"));
                    } else {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A label, attribute name or string value, as a literal.
fn name(rng: &mut TestRng) -> String {
    let text: String = (0..rng.below(5)).map(|_| pick(rng, &PIECES)).collect();
    spell(rng, &text)
}

/// A value no field of the codec reads, nested `depth` containers deep.
fn nested(rng: &mut TestRng, depth: usize) -> String {
    let leaf = pick(rng, &["1", "null", "\"x\"", "{}", "[]", "1e5", "true"]);
    let mut open = String::new();
    let mut close = String::new();
    for _ in 0..depth {
        if rng.chance(0.5) {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str("{\"k\":");
            close.insert(0, '}');
        }
    }
    format!("{open}{leaf}{close}")
}

/// A field no codec reads, for an object whose fields sit `at` containers
/// deep: usually harmless, sometimes nested right up to the limit, one
/// past it, or holding a number the lexer refuses.
fn unknown_field(rng: &mut TestRng, at: usize) -> (String, String) {
    let key = pick(rng, &["x", "", "cmd2", "Op", "deltas ", "value\u{0}", "é"]);
    let room = MAX_DEPTH - at;
    let value = match rng.below(12) {
        0 => nested(rng, room - 1),
        1 => nested(rng, room),
        2 => nested(rng, room + 1),
        3 => pick(rng, &["1e999", "-1e999", "1e", "01", "-", "1.5", "-0"]).to_string(),
        4 | 5 => name(rng),
        shallow => nested(rng, shallow % 4),
    };
    (key.to_string(), value)
}

/// A node id, or something that is nearly one.
fn node_id(rng: &mut TestRng) -> String {
    match rng.below(120) {
        0..=7 => "0".to_string(),
        8..=15 => u32::MAX.to_string(),
        16 => (u64::from(u32::MAX) + 1).to_string(),
        17 => "-1".to_string(),
        18 => "1.0".to_string(),
        19 => pick(
            rng,
            &[
                "\"7\"",
                "null",
                "[7]",
                "1e2",
                "-0",
                "007",
                "9223372036854775808",
                "true",
                "{\"id\":7}",
            ],
        )
        .to_string(),
        _ => (rng.next_u64() % 5000).to_string(),
    }
}

/// An attribute value, or something `value_from_json` refuses.
fn attr_value(rng: &mut TestRng) -> String {
    match rng.below(20) {
        0 | 1 => "2".to_string(),
        2 | 3 => "2.0".to_string(),
        4 => pick(
            rng,
            &[
                "null",
                "[1]",
                "{\"a\":1}",
                "1e999",
                "-0.0",
                "-0",
                "1E2",
                "0.1e-2",
                "99999999999999999999",
            ],
        )
        .to_string(),
        5..=7 => pick(rng, &["true", "false"]).to_string(),
        8..=13 => name(rng),
        _ => (rng.next_u64() as i64 >> (rng.next_u64() % 64)).to_string(),
    }
}

/// Render `fields` as an object: shuffled, each key spelled its own way,
/// white space in every gap.
fn object(rng: &mut TestRng, mut fields: Vec<(String, String)>) -> String {
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.below(i + 1));
    }
    let mut out = format!("{}{{{}", ws(rng), ws(rng));
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let key = if rng.chance(0.15) {
            spell(rng, key)
        } else {
            format!("\"{key}\"")
        };
        out.push_str(&format!(
            "{}{key}{}:{}{value}{}",
            ws(rng),
            ws(rng),
            ws(rng),
            ws(rng)
        ));
    }
    out.push('}');
    out.push_str(ws(rng));
    out
}

const OPS: [&str; 6] = [
    "add_node",
    "remove_node",
    "add_edge",
    "remove_edge",
    "set_attr",
    "del_attr",
];

/// `op` as a literal, or now and then something else in its place.
fn some_op(rng: &mut TestRng, op: &str) -> String {
    match rng.below(80) {
        0 => "\"warp\"".to_string(),
        1 => pick(
            rng,
            &["5", "null", "[\"add_node\"]", "\"\"", "\"ADD_NODE\""],
        )
        .to_string(),
        _ => format!("\"{op}\""),
    }
}

fn delta(rng: &mut TestRng) -> String {
    if rng.chance(0.03) {
        return pick(
            rng,
            &["5", "\"add_node\"", "null", "[]", "[{\"op\":\"add_node\"}]"],
        )
        .to_string();
    }
    let op = pick(rng, &OPS);
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut field = |rng: &mut TestRng, key: &str, value: &dyn Fn(&mut TestRng) -> String| {
        // Mostly present; sometimes twice, the copies in either order
        // after the shuffle, so first-wins and last-wins disagree.
        let copies = match rng.below(80) {
            0 => 0,
            1..=8 => 2,
            _ => 1,
        };
        for _ in 0..copies {
            fields.push((key.to_string(), value(rng)));
        }
    };
    field(rng, "op", &|rng| some_op(rng, op));
    match op {
        "add_node" => field(rng, "label", &name),
        "remove_node" => field(rng, "node", &node_id),
        "add_edge" | "remove_edge" => {
            field(rng, "src", &node_id);
            field(rng, "label", &name);
            field(rng, "dst", &node_id);
        }
        "set_attr" => {
            field(rng, "node", &node_id);
            field(rng, "attr", &name);
            field(rng, "value", &attr_value);
        }
        _ => {
            field(rng, "node", &node_id);
            field(rng, "attr", &name);
        }
    }
    // Fields of some other op, and fields of none.
    if rng.chance(0.2) {
        let stray = pick(rng, &["label", "node", "value", "src", "attr"]);
        fields.push((stray.to_string(), attr_value(rng)));
    }
    if rng.chance(0.1) {
        fields.push(unknown_field(rng, 3));
    }
    object(rng, fields)
}

fn deltas(rng: &mut TestRng) -> String {
    if rng.chance(0.04) {
        return pick(
            rng,
            &["null", "{}", "5", "\"[]\"", "{\"0\":{\"op\":\"add_node\"}}"],
        )
        .to_string();
    }
    let n = match rng.below(6) {
        0 => 0,
        1 => 1,
        2 => 12,
        _ => rng.below(5),
    };
    let mut out = format!("[{}", ws(rng));
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&delta(rng));
    }
    out.push(']');
    out
}

const CMDS: [&str; 7] = [
    "apply",
    "violations",
    "report",
    "is_satisfied",
    "metrics",
    "health",
    "shutdown",
];

/// One request line, somewhere between what `Request::to_json` writes and
/// what only a hostile client would.
fn frame(rng: &mut TestRng) -> String {
    if rng.chance(0.02) {
        return pick(
            rng,
            &[
                "[1,2]",
                "\"apply\"",
                "5",
                "null",
                "",
                " ",
                "{}",
                "[{\"cmd\":\"health\"}]",
            ],
        )
        .to_string();
    }
    // Half the lines are the command with something to decode.
    let cmd = if rng.chance(0.5) {
        "apply"
    } else {
        pick(rng, &CMDS)
    };
    let cmd_text = |rng: &mut TestRng| match rng.below(16) {
        0 => "\"frobnicate\"".to_string(),
        1 => pick(
            rng,
            &["5", "null", "[\"apply\"]", "\"\"", "\"Apply\"", "true"],
        )
        .to_string(),
        2 => format!("\"{}\"", pick(rng, &CMDS)),
        _ => format!("\"{cmd}\""),
    };
    let mut fields = Vec::new();
    if !rng.chance(0.03) {
        fields.push(("cmd".to_string(), cmd_text(rng)));
    }
    if rng.chance(0.1) {
        fields.push(("cmd".to_string(), cmd_text(rng)));
    }
    // `apply` mostly has its deltas; the other commands sometimes have
    // some too, and ignore them, malformed deltas included.
    if rng.chance(if cmd == "apply" { 0.95 } else { 0.15 }) {
        fields.push(("deltas".to_string(), deltas(rng)));
        if rng.chance(0.1) {
            fields.push(("deltas".to_string(), deltas(rng)));
        }
    }
    for _ in 0..rng.below(3).saturating_sub(1) {
        fields.push(unknown_field(rng, 1));
    }
    let mut line = object(rng, fields);
    if rng.chance(0.03) {
        line.push_str(pick(
            rng,
            &["x", "{}", ",", "]", "}", "null", "\u{a0}", "\0"],
        ));
    }
    line
}

/// Damage `line` in one to three places.
fn mutate(rng: &mut TestRng, line: &str) -> String {
    const BYTES: &[u8] = b"{}[]\",:\\ue-+.0159ntfalsr \t\x00\x7f\xc3\xa9\xf0";
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(4) {
            0 => bytes[at] = BYTES[rng.below(BYTES.len())],
            1 => bytes.insert(at, BYTES[rng.below(BYTES.len())]),
            2 => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// What the reference makes of a line: the request, or nothing.
fn reference(line: &str) -> Option<Request> {
    Request::from_json(&Json::parse(line).ok()?).ok()
}

/// What was covered, so that a generator drifting into all-refused (or
/// all-accepted) lines fails the test instead of hollowing it out.
#[derive(Debug, Default)]
struct Coverage {
    accepted: usize,
    refused: usize,
    commands: [usize; 7],
    ops: [usize; 6],
}

impl Coverage {
    /// The one property. `Debug` text, not `==`: `Value::Int(2)` and
    /// `Value::Float(2.0)` compare equal, and must not be confused here.
    fn check(&mut self, line: &str) -> Result<(), TestCaseError> {
        let streamed = Request::from_line(line);
        let reference = reference(line);
        let (streamed, expected) = (format!("{streamed:?}"), format!("{reference:?}"));
        prop_assert!(
            streamed == expected,
            "the decoders part ways on {line:?}\n  streamed: {streamed}\n reference: {expected}"
        );
        let Some(request) = reference else {
            self.refused += 1;
            return Ok(());
        };
        self.accepted += 1;
        let command = CMDS
            .iter()
            .position(|c| Some(*c) == request.to_json().get_str("cmd"))
            .expect("a known command");
        self.commands[command] += 1;
        if let Request::Apply(batch) = &request {
            for d in batch {
                let op = ged_proto::message::delta_to_json(d);
                let op = OPS.iter().position(|o| Some(*o) == op.get_str("op"));
                self.ops[op.expect("a known op")] += 1;
            }
        }
        Ok(())
    }

    fn assert_broad(&self) {
        assert!(
            self.accepted * 4 >= self.refused && self.refused * 20 >= self.accepted,
            "lopsided: {self:?}"
        );
        assert!(
            self.commands.iter().chain(&self.ops).all(|n| *n > 0),
            "a command or op never decoded: {self:?}"
        );
    }
}

/// `lines` generated lines and a mutation of each, from `rng`.
fn check_lines(rng: &mut TestRng, lines: usize) -> Result<Coverage, TestCaseError> {
    let mut seen = Coverage::default();
    for _ in 0..lines {
        let line = frame(rng);
        seen.check(&line)?;
        seen.check(&mutate(rng, &line))?;
    }
    Ok(seen)
}

/// A transport that hands its bytes out in the pieces it was cut into.
struct Chunks<'a> {
    pieces: Vec<&'a [u8]>,
}

impl Read for Chunks<'_> {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        unreachable!("the framing loop reads through `BufRead`")
    }
}

impl BufRead for Chunks<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        while self.pieces.first().is_some_and(|p| p.is_empty()) {
            self.pieces.remove(0);
        }
        Ok(self.pieces.first().copied().unwrap_or(&[]))
    }

    fn consume(&mut self, n: usize) {
        let first = &mut self.pieces[0];
        *first = &first[n..];
    }
}

/// Every frame of a stream, then how it ended, as comparable text.
fn drain(mut next: impl FnMut() -> Result<Option<Json>, WireError>) -> Vec<String> {
    let mut out = Vec::new();
    loop {
        match next() {
            // How many bytes were read before the cap was noticed depends
            // on how they arrived; that the frame was refused does not.
            Err(WireError::Oversized(_)) => out.push("oversized".to_string()),
            // A malformed line was consumed whole: the stream goes on.
            item @ (Ok(Some(_)) | Err(WireError::Malformed(_))) => {
                out.push(format!("{item:?}"));
                continue;
            }
            item => out.push(format!("{item:?}")),
        }
        return out;
    }
}

/// `read_line` + `Json::parse` over `input` cut at `cuts`, against
/// `read_frame` over `input` whole.
fn check_framing(input: &[u8], cuts: &[usize], cap: usize) -> Result<(), TestCaseError> {
    let mut whole = input;
    let expected = drain(|| read_frame(&mut whole, cap));

    let mut pieces = Vec::new();
    let mut from = 0;
    for &cut in cuts {
        pieces.push(&input[from..cut]);
        from = cut;
    }
    pieces.push(&input[from..]);
    let mut transport = Chunks { pieces };
    let mut buf = Vec::new();
    let got = drain(|| {
        let line = read_line(&mut transport, &mut buf, cap)?;
        line.map(|line| Json::parse(line).map_err(|e| WireError::Malformed(e.to_string())))
            .transpose()
    });
    prop_assert_eq!(got, expected, "cut at {:?}: {:?}", cuts, input);
    Ok(())
}

/// A few frames and what may sit between them, as the wire carries them.
fn stream(rng: &mut TestRng) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let mut line = frame(rng);
        if rng.chance(0.2) {
            line = mutate(rng, &line);
        }
        out.extend(line.replace('\n', " ").into_bytes());
        out.extend(
            pick(
                rng,
                &["\n", "\r\n", "\n\n", "\n \n", "\n\r\n\t\n", "\r\r\n"],
            )
            .bytes(),
        );
    }
    match rng.below(8) {
        // Not UTF-8, a cut-off last frame, a blank tail.
        0 => out.extend(b"{\"cmd\":\"\xff\"}\n"),
        1 => out.extend(b"{\"cmd\":\"heal"),
        2 => out.extend(b" \r"),
        _ => {}
    }
    out
}

proptest! {
    /// 64 lines and their mutations per case.
    #[test]
    fn the_streamed_decoder_answers_what_the_reference_answers(seed in 0u64..u64::MAX) {
        check_lines(&mut TestRng::new(seed), 64)?;
    }

    /// Every single cut point of a short stream — so also inside a `\u`
    /// escape, inside a multi-byte character, between `\r` and `\n` —
    /// and a few random multi-cut splits, under a generous and a tight cap.
    #[test]
    fn framing_is_blind_to_how_the_transport_cuts_the_bytes(seed in 0u64..u64::MAX) {
        let rng = &mut TestRng::new(seed);
        let input = stream(rng);
        let tight = input.len() / 3;
        for cut in 0..=input.len() {
            check_framing(&input, &[cut], 1 << 20)?;
        }
        for _ in 0..8 {
            let mut cuts: Vec<usize> = (0..rng.below(6)).map(|_| rng.below(input.len() + 1)).collect();
            cuts.sort_unstable();
            check_framing(&input, &cuts, 1 << 20)?;
            check_framing(&input, &cuts, tight)?;
        }
    }
}

/// The lines a reviewer would try first, by hand, each with the answer it
/// must get — so a generator bug cannot hide a decoder bug.
#[test]
fn hand_picked_lines() {
    let accepted = [
        r#"{"cmd":"health"}"#,
        r#" { "cmd" : "report" } "#,
        r#"{"cmd":"frobnicate","cmd":"metrics"}"#,
        r#"{"deltas":[{"op":"warp"}],"cmd":"violations"}"#,
        r#"{"deltas":[],"cmd":"apply"}"#,
        r#"{"cmd":"apply","deltas":5,"deltas":[]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"add_node","label":"🦀"}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"remove_node","node":1.0,"node":4294967295}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"set_attr","node":0,"attr":"","value":2.0,"x":[[[{}]]]}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":5,"node":1,"op":"del_attr","attr":"a","value":null}]}"#,
    ];
    for line in accepted {
        let expected = reference(line).unwrap_or_else(|| panic!("reference refuses {line}"));
        assert_eq!(
            format!("{:?}", Request::from_line(line)),
            format!("{:?}", Some(expected)),
            "{line}"
        );
    }
    let refused = [
        "",
        "[]",
        r#"{"cmd":"health"} x"#,
        r#"{"cmd":"health"}{"cmd":"health"}"#,
        r#"{"cmd":"health","cmd":5}"#,
        r#"{"cmd":"apply"}"#,
        r#"{"cmd":"apply","deltas":[],"deltas":null}"#,
        r#"{"cmd":"apply","deltas":[{"op":"remove_node","node":1.0}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"remove_node","node":4294967295,"node":1.0}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"remove_node","node":4294967296}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"remove_node","node":-1}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"set_attr","node":1,"attr":"x","value":1e999}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"set_attr","node":1,"attr":"x","value":null}]}"#,
        r#"{"cmd":"apply","deltas":[{"op":"add_node","label":"a"},5]}"#,
        r#"{"cmd":"health","x":1e999}"#,
        r#"{"cmd":"health","x":"\ud83e"}"#,
    ];
    for line in refused {
        assert!(reference(line).is_none(), "reference accepts {line}");
        assert!(Request::from_line(line).is_none(), "{line}");
    }
    // One level under the nesting limit is skipped, one over refuses the
    // line — exactly where `Json::parse` draws it.
    for (depth, ok) in [(MAX_DEPTH - 1, true), (MAX_DEPTH, false)] {
        let line = format!(
            "{{\"cmd\":\"health\",\"x\":{}1{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        assert_eq!(reference(&line).is_some(), ok, "depth {depth}");
        assert_eq!(Request::from_line(&line).is_some(), ok, "depth {depth}");
    }
}

/// The CI-scale run (`release-acceptance`): ≥ 20 000 lines, half of them
/// mutated, with the generator's coverage checked.
#[test]
#[ignore = "acceptance scale: run with --release -- --ignored"]
fn twenty_thousand_lines() {
    let mut rng = TestRng::new(0x5eed);
    let seen = check_lines(&mut rng, 12_000).unwrap_or_else(|e| panic!("{e}"));
    seen.assert_broad();
    println!("{seen:?}");
}

/// The default-scale run has to be broad too, or the property above runs
/// green over nothing.
#[test]
fn two_thousand_lines_cover_every_command_and_op() {
    let mut rng = TestRng::new(17);
    let seen = check_lines(&mut rng, 1000).unwrap_or_else(|e| panic!("{e}"));
    seen.assert_broad();
}
