//! A minimal JSON document model, the one lexer that reads it, and a
//! one-line writer.
//!
//! The build environment has no crates.io access (DESIGN.md §2), so the
//! workspace vendors its own JSON, once, here — beneath every crate that
//! speaks it: the wire protocol (`ged-proto` re-exports this module as
//! `ged_proto::json`), the engine's `MetricsSnapshot::to_json` and the
//! analyzer's `AnalysisReport::to_json` all build a [`Json`] and leave the
//! text to [`Json::write`].
//!
//! The daemon also *reads* JSON off untrusted sockets. Reading is one pull
//! lexer, [`Reader`], with two consumers (DESIGN.md §10 "One lexer, two
//! consumers"): [`Json::parse`], which keeps every value as a tree, and
//! `ged_proto::message::Request::from_line`, which keeps a handful of
//! scalars per delta and skips the rest. What a document *is* — white
//! space, escapes, surrogate pairs, which literals are numbers, the
//! [`MAX_DEPTH`] nesting limit (a hostile frame of ten thousand `[`s must
//! produce a [`JsonError`], not a stack overflow), every error's offset
//! and wording — is decided in the lexer and nowhere else, so the two can
//! differ in what they keep and in nothing they accept.
//!
//! Three deliberate choices:
//!
//! * **Integers and floats stay distinct** ([`Json::Int`] vs
//!   [`Json::Float`]). The graph's attribute universe distinguishes
//!   `Value::Int(2)` from `Value::Float(2.0)` — they are different
//!   constants, and literal satisfaction compares them as such — so the
//!   codec must round-trip the distinction. The writer renders integral
//!   floats with a forced `.0` and the lexer classifies by the presence
//!   of `.`/`e` in the literal, making the round-trip lossless.
//! * **The writer emits exactly one line.** Wire frames are
//!   newline-delimited (`ged_proto::wire`), so the serialised form must
//!   never contain a raw newline; string escapes guarantee that.
//! * **Nothing non-finite comes in.** The writer has no spelling for NaN
//!   or an infinity (`ged_proto::wire::write_frame` refuses such frames),
//!   so the lexer refuses the literals that would parse to one (`1e999`):
//!   whatever is read can be written back.

use crate::value::Text;
use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional or exponent part, within `i64`.
    Int(i64),
    /// Any other number (and `i64`-overflowing literals). Finite when
    /// parsed; a document built in memory can hold anything.
    Float(f64),
    /// A string: up to 15 bytes in place, no heap block of its own (the
    /// [`Text`] of a string value), so a tree's short strings — wire
    /// names, kinds, keywords — cost its reader no allocation each.
    Str(Text),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (duplicate keys keep the
    /// last occurrence when queried via [`Json::get`] — we search from
    /// the back).
    Obj(Vec<(String, Json)>),
}

/// Maximum nesting depth [`Reader`] accepts. Deeper documents are
/// rejected with [`JsonError`] instead of risking a consumer's stack.
pub const MAX_DEPTH: usize = 128;

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut r = Reader::new(text);
        let v = Json::read(&mut r)?;
        r.end()?;
        Ok(v)
    }

    /// Read the value `r` is at, whatever its kind, keeping all of it.
    fn read(r: &mut Reader<'_>) -> Result<Json, JsonError> {
        match r.peek()? {
            Kind::Null => r.null().map(|()| Json::Null),
            Kind::Bool => r.boolean().map(Json::Bool),
            Kind::Number => r.number().map(|n| match n {
                Number::Int(i) => Json::Int(i),
                Number::Float(f) => Json::Float(f),
            }),
            Kind::Str => r.string().map(|s| Json::Str(s.into())),
            Kind::Arr => {
                r.begin_array()?;
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Json::read(r)?);
                }
                Ok(Json::Arr(items))
            }
            Kind::Obj => {
                r.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = r.next_key()? {
                    fields.push((key.into_owned(), Json::read(r)?));
                }
                Ok(Json::Obj(fields))
            }
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Field lookup on an object (`None` for other variants or missing
    /// keys). Duplicate keys resolve to the last occurrence.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean content, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer content as `u64`, if this is a non-negative `Int`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The numeric content (`Int` widened), if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Json::as_str`].
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Convenience: `get(key)` then [`Json::as_u64`].
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(Json::as_u64)
    }

    /// Convenience: `get(key)` then [`Json::as_bool`].
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Json::as_bool)
    }

    /// Convenience: `get(key)` then [`Json::as_arr`].
    pub fn get_arr(&self, key: &str) -> Option<&[Json]> {
        self.get(key).and_then(Json::as_arr)
    }

    /// Does this document contain a NaN/Infinity float anywhere? JSON
    /// cannot represent such values, so the frame writer
    /// (`ged_proto::wire::write_frame`) refuses to send documents for
    /// which this is true instead of silently degrading them to `null`.
    pub fn has_non_finite(&self) -> bool {
        match self {
            Json::Float(f) => !f.is_finite(),
            Json::Arr(items) => items.iter().any(Json::has_non_finite),
            Json::Obj(fields) => fields.iter().any(|(_, v)| v.has_non_finite()),
            _ => false,
        }
    }

    /// Serialise onto `out` — always a single line (see module docs).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => write!(out, "{i}").expect("String as fmt::Write is infallible"),
            Json::Float(f) => {
                if f.is_finite() {
                    if f.fract() == 0.0 {
                        // Keep the float-ness visible so the value
                        // round-trips as a Float, not an Int — for any
                        // magnitude (Rust's Display never emits '.' or
                        // 'e' for integral floats, so without this a
                        // Float in [1e15, 9.2e18] would parse back as
                        // an Int).
                        write!(out, "{f:.1}")
                    } else {
                        write!(out, "{f}")
                    }
                    .expect("String as fmt::Write is infallible");
                } else {
                    // JSON has no NaN/Infinity literal; degrade to null
                    // rather than emitting an unparseable frame. The
                    // frame writer (`ged_proto::wire::write_frame`) rejects
                    // such frames up front so nothing silently crosses
                    // the wire as null — this arm only serves `Display`.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(i: u64) -> Json {
        // Saturate rather than wrap: wire counters never approach the
        // boundary, and a saturated value stays recognisably huge.
        Json::Int(i64::try_from(i).unwrap_or(i64::MAX))
    }
}

impl From<usize> for Json {
    fn from(i: usize) -> Json {
        Json::from(i as u64)
    }
}

impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(Text::new(s))
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s.into())
    }
}

/// Write `s` as a JSON string literal — [`escape_into`] between quotes.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    escape_into(s, out);
    out.push('"');
}

/// Write `s` escaped as (part of) the body of a JSON string literal,
/// without the quotes: the workspace's one definition of string
/// escaping, shared by [`Json::write`] and the streaming reply encoders in
/// `ged_proto::message`, which escape `Debug` text piece by piece as it is
/// formatted. Runs of bytes that need no escape are copied in one piece;
/// every byte that does need one is ASCII, so cutting the string at those
/// bytes never splits a UTF-8 sequence, and escaping a string in pieces
/// writes what escaping it whole does.
pub fn escape_into(s: &str, out: &mut String) {
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}").expect("String as fmt::Write is infallible");
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[clean_from..]);
}

/// What the next value of a document is, as told by its first byte
/// ([`Reader::peek`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null` — read with [`Reader::null`].
    Null,
    /// `true` / `false` — read with [`Reader::boolean`].
    Bool,
    /// A number — read with [`Reader::number`].
    Number,
    /// A string — read with [`Reader::string`].
    Str,
    /// An array — entered with [`Reader::begin_array`].
    Arr,
    /// An object — entered with [`Reader::begin_object`].
    Obj,
}

/// A number literal, classified the way [`Json`] stores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// No fraction or exponent, within `i64`.
    Int(i64),
    /// Anything else; always finite.
    Float(f64),
}

/// The workspace's one JSON lexer: a pull reader over one document.
///
/// A consumer asks what comes next ([`peek`](Reader::peek)), reads a
/// scalar with the method of that kind, or enters a container and steps
/// through it ([`next_element`](Reader::next_element),
/// [`next_key`](Reader::next_key)) reading each element the same way;
/// [`skip_value`](Reader::skip_value) passes over a value it has no use
/// for, checking its syntax all the same, and [`end`](Reader::end) closes
/// the document. [`Json::parse`] is the consumer that keeps everything;
/// `ged_proto::message::Request::from_line` is the one that keeps a few
/// scalars per delta and builds no tree. Every value must be entered
/// through `peek` — that is where the [`MAX_DEPTH`] limit is enforced —
/// and a container that was entered must be stepped until it reports its
/// end before the enclosing one is stepped again.
///
/// ```
/// use ged_graph::json::{Kind, Number, Reader};
///
/// let mut r = Reader::new(r#"{"id": 7, "tags": ["a", "b\n"]}"#);
/// assert_eq!(r.peek().unwrap(), Kind::Obj);
/// r.begin_object().unwrap();
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("id"));
/// assert_eq!(r.peek().unwrap(), Kind::Number);
/// assert_eq!(r.number().unwrap(), Number::Int(7));
/// assert_eq!(r.next_key().unwrap().as_deref(), Some("tags"));
/// r.skip_value().unwrap();
/// assert_eq!(r.next_key().unwrap(), None);
/// r.end().unwrap();
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers entered and not yet left.
    depth: usize,
    /// The innermost container was entered and not stepped yet, so its
    /// first element is not preceded by a comma. One flag serves every
    /// level: by the time an outer container is stepped again, it has had
    /// its first element.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// The error at the current offset. Errors and their formatting are
    /// out of line (`#[cold]`), so the paths that accept carry none of it.
    #[cold]
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    /// `expected '<what>'` at the current offset.
    #[cold]
    fn expected(&self, what: impl fmt::Display) -> JsonError {
        self.err(&format!("expected '{what}'"))
    }

    #[inline(always)]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte that is not white space, not consumed. Every byte
    /// above `' '` is a token, so one comparison settles the common case —
    /// frames as the encoders write them carry no white space at all.
    #[inline(always)]
    fn next_token(&mut self) -> Option<u8> {
        match self.byte() {
            Some(b) if b > b' ' => Some(b),
            _ => self.skip_white_space(),
        }
    }

    fn skip_white_space(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    #[inline(always)]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(char::from(b)))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        self.next_token();
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.expected(word))
        }
    }

    /// The kind of the value that starts here (after white space), without
    /// consuming it. Fails when the value would sit deeper than
    /// [`MAX_DEPTH`] containers, and on a byte that starts no value.
    #[inline(always)]
    pub fn peek(&mut self) -> Result<Kind, JsonError> {
        let next = self.next_token();
        if self.depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match next {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'{') => Ok(Kind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Read `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// Read `true` or `false`.
    pub fn boolean(&mut self) -> Result<bool, JsonError> {
        if self.next_token() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Read a number. A literal without `.`/`e` that fits `i64` is an
    /// [`Number::Int`]; every other one is a [`Number::Float`], and one
    /// whose value is not finite (`1e999`, a 400-digit integer) is an
    /// error: `str::parse::<f64>` saturates to infinity, which no document
    /// can carry back out.
    ///
    /// A literal of 1–18 digits (after an optional `-`) that no `.`/`e`/
    /// `E`/`+`/`-` follows is an `Int` that cannot overflow, and is
    /// accumulated as it is scanned; every other literal goes on through
    /// `str::parse`, from where that scan stopped.
    #[inline(always)]
    pub fn number(&mut self) -> Result<Number, JsonError> {
        self.next_token();
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let negative = bytes.get(start) == Some(&b'-');
        let digits = start + usize::from(negative);
        let mut at = digits;
        let mut value: i64 = 0;
        while let Some(d) = bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
            if d > 9 {
                break;
            }
            // Wraps only past 18 digits, where the value is not used.
            value = value.wrapping_mul(10).wrapping_add(i64::from(d));
            at += 1;
        }
        self.pos = at;
        if (1..=18).contains(&(at - digits))
            && !matches!(bytes.get(at), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            return Ok(Number::Int(if negative { -value } else { value }));
        }
        self.number_tail(start)
    }

    /// The rest of the literal that starts at `start`, when it is not a
    /// short integer: scanned on from the current offset, then classified
    /// by `str::parse`.
    fn number_tail(&mut self, start: usize) -> Result<Number, JsonError> {
        let mut is_float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            // Integer-looking but beyond `i64` (or empty, or a lone `-`,
            // which fail below as well): degrades to Float.
        }
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok(Number::Float(f)),
            Ok(_) => Err(self.err("number out of range")),
            Err(_) => Err(self.err("malformed number")),
        }
    }

    /// Advance over string bytes that stand for themselves.
    #[inline(always)]
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.byte() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        // Cut at ASCII bytes only, so never inside a UTF-8 sequence.
        &self.text[start..self.pos]
    }

    /// Read a string. It borrows from the input when no escape occurs in
    /// it, and is built up in a `String` otherwise.
    #[inline(always)]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.next_token();
        self.expect(b'"')?;
        let head = self.plain_run();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(head));
        }
        self.escaped_string(head)
    }

    /// The rest of a string whose plain head ends at an escape (or at a
    /// byte that is an error), built up in a `String`.
    fn escaped_string(&mut self, head: &str) -> Result<Cow<'a, str>, JsonError> {
        let mut out = head.to_string();
        self.string_tail(Some(&mut out))?;
        Ok(Cow::Owned(out))
    }

    fn skip_string(&mut self) -> Result<(), JsonError> {
        self.next_token();
        self.expect(b'"')?;
        self.plain_run();
        self.string_tail(None)
    }

    /// The rest of a string whose leading plain run has been read, up to
    /// and including the closing quote, appended to `out` if there is one.
    /// The one place strings are checked, whether kept or skipped.
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        loop {
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(out) = &mut out {
                        out.push(c);
                    }
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
            let run = self.plain_run();
            if let Some(out) = &mut out {
                out.push_str(run);
            }
        }
    }

    /// The character an escape stands for; the backslash is consumed.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.byte().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.byte() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("unpaired surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = self
                .byte()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Enter an array; step it with [`next_element`](Reader::next_element).
    #[inline(always)]
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.begin(b'[')
    }

    /// Enter an object; step it with [`next_key`](Reader::next_key).
    #[inline(always)]
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.begin(b'{')
    }

    #[inline(always)]
    fn begin(&mut self, open: u8) -> Result<(), JsonError> {
        self.next_token();
        self.expect(open)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Step the innermost container: `true` when another element follows
    /// (the separating comma, if any, is consumed), `false` when `close`
    /// was consumed and the container is left.
    #[inline(always)]
    fn step(&mut self, close: u8, expected: &str) -> Result<bool, JsonError> {
        let next = self.next_token();
        if next == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Ok(false);
        }
        if !std::mem::take(&mut self.fresh) {
            if next != Some(b',') {
                return Err(self.err(expected));
            }
            self.pos += 1;
        }
        Ok(true)
    }

    /// Is there another element in the array entered last? When `true`,
    /// the element is next to be read; when `false`, the array is closed.
    #[inline(always)]
    pub fn next_element(&mut self) -> Result<bool, JsonError> {
        self.step(b']', "expected ',' or ']'")
    }

    /// The next key of the object entered last, its `:` consumed and its
    /// value next to be read; `None` once the object is closed. Keys come
    /// in document order, duplicates included.
    #[inline(always)]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.key_with(Reader::string)
    }

    #[inline(always)]
    fn key_with<K>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<K, JsonError>,
    ) -> Result<Option<K>, JsonError> {
        if !self.step(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        let key = read(self)?;
        self.next_token();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Pass over one value of any kind. Nothing is built, everything is
    /// checked: a document that `skip_value` accepts is one
    /// [`Json::parse`] accepts, nesting limit included.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.boolean().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.skip_string(),
            Kind::Arr => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Kind::Obj => {
                self.begin_object()?;
                while self.key_with(Reader::skip_string)?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
        }
    }

    /// The document is over: only white space may remain.
    pub fn end(&mut self) -> Result<(), JsonError> {
        if self.next_token().is_some() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn roundtrip(v: &Json) -> Json {
        Json::parse(&v.to_string()).expect("roundtrip parse")
    }

    #[test]
    fn scalars_roundtrip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Int(0),
            Json::Int(-42),
            Json::Int(i64::MAX),
            Json::Float(1.5),
            Json::Float(-0.25),
            Json::from("hello \"quoted\"\nline"),
            Json::from("unicode: åßç∂ 🦀"),
        ] {
            assert_eq!(roundtrip(&v), v, "{v}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::Float(2.0);
        assert_eq!(v.to_string(), "2.0");
        assert_eq!(roundtrip(&v), v, "Float(2.0) must not collapse to Int");
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::parse("2e1").unwrap(), Json::Float(20.0));
    }

    #[test]
    fn large_integral_floats_stay_floats() {
        // Regression: the writer used to fall back to `f64::to_string`
        // above 1e15, which never emits '.'/'e', so these round-tripped
        // as Int.
        for v in [
            Json::Float(1e15),
            Json::Float(9.2e18),
            Json::Float(-3e16),
            Json::Float(1e300),
        ] {
            let text = v.to_string();
            assert!(
                text.contains(['.', 'e', 'E']),
                "{v:?} rendered as {text}: parser would classify it as Int"
            );
            assert_eq!(roundtrip(&v), v, "{v:?} must stay a Float");
        }
    }

    #[test]
    fn non_finite_floats_are_detected() {
        assert!(Json::Float(f64::NAN).has_non_finite());
        assert!(Json::Arr(vec![Json::Int(1), Json::Float(f64::INFINITY)]).has_non_finite());
        assert!(Json::obj(vec![("x", Json::Float(f64::NEG_INFINITY))]).has_non_finite());
        assert!(!Json::obj(vec![("x", Json::Float(1.5))]).has_non_finite());
    }

    #[test]
    fn containers_roundtrip_and_preserve_order() {
        let v = Json::obj(vec![
            ("b", Json::Arr(vec![Json::Int(1), Json::Null])),
            ("a", Json::obj(vec![("nested", Json::Bool(true))])),
        ]);
        let s = v.to_string();
        assert_eq!(s, r#"{"b":[1,null],"a":{"nested":true}}"#);
        assert_eq!(roundtrip(&v), v);
        assert_eq!(v.get("a").unwrap().get_bool("nested"), Some(true));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn serialised_form_is_one_line() {
        let v = Json::obj(vec![("k", Json::from("a\nb\rc"))]);
        assert!(!v.to_string().contains(['\n', '\r']));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn escapes_and_numbers_have_one_spelling() {
        // The exact bytes, not just a round trip: replies are promised
        // byte-identical across writer rewrites.
        let s = Json::from("a\"b\\c\nd\re\tf\u{0}g\u{1f}h\u{7f}é🦀");
        assert_eq!(
            s.to_string(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u001fh\u{7f}é🦀\""
        );
        assert_eq!(roundtrip(&s), s);
        assert_eq!(Json::from("").to_string(), "\"\"");
        assert_eq!(Json::Int(i64::MIN).to_string(), "-9223372036854775808");
        assert_eq!(Json::Float(-0.5).to_string(), "-0.5");
        assert_eq!(Json::Float(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Float(1e21).to_string(), "1000000000000000000000.0");
    }

    #[test]
    fn depth_limit_rejects_hostile_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        // A document inside the limit is fine.
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        Json::parse(&ok).unwrap();
    }

    #[test]
    fn malformed_documents_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "-",
            "\u{7f}",
            "\"\\u12\"",
            "\"\\ud800\"",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn every_error_keeps_its_offset_and_wording() {
        // The daemon's `malformed` replies quote these; clients and the
        // parent/change wire comparison read them byte for byte.
        for (text, at, message) in [
            ("", 0, "unexpected end of input"),
            (" x", 1, "unexpected character"),
            ("nul", 0, "expected 'null'"),
            ("tru", 0, "expected 'true'"),
            ("fals", 0, "expected 'false'"),
            ("-", 1, "malformed number"),
            ("-x", 1, "malformed number"),
            ("--1", 3, "malformed number"),
            ("1e", 2, "malformed number"),
            ("1+2", 3, "malformed number"),
            ("[1e999]", 6, "number out of range"),
            (&"9".repeat(400), 400, "number out of range"),
            ("1 2", 2, "trailing characters after the document"),
            ("[1 2]", 3, "expected ',' or ']'"),
            ("[1,]", 3, "unexpected character"),
            ("{\"a\":1 \"b\"}", 7, "expected ',' or '}'"),
            ("{\"a\":1,}", 7, "expected '\"'"),
            ("{a:1}", 1, "expected '\"'"),
            ("{\"a\" 1}", 5, "expected ':'"),
            ("{\"a\":}", 5, "unexpected character"),
            ("\"abc", 4, "unterminated string"),
            ("\"a\tb\"", 2, "unescaped control character in string"),
            ("\"\\", 2, "dangling escape"),
            ("\"\\x\"", 3, "unknown escape"),
            ("\"\\u12\"", 5, "invalid hex digit"),
            ("\"\\u12", 5, "truncated \\u escape"),
            ("\"\\ud800\"", 7, "unpaired surrogate"),
            ("\"\\ud800\\n\"", 8, "expected 'u'"),
            ("\"\\ud800\\u0041\"", 13, "invalid low surrogate"),
            ("\"\\udc00\"", 7, "invalid code point"),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert_eq!((err.at, err.message.as_str()), (at, message), "{text:?}");
            // Skipping a value checks it exactly as keeping it does.
            let mut r = Reader::new(text);
            let skipped = r.skip_value().and_then(|()| r.end());
            assert_eq!(skipped, Err(err), "{text:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + "1";
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (MAX_DEPTH + 1, "document nests too deeply")
        );
    }

    #[test]
    fn literals_that_are_not_finite_are_refused() {
        // Regression: `str::parse::<f64>` saturates, so these came back as
        // `Float(±inf)` and a `set_attr` could store what `write_frame`
        // refuses to send.
        for text in ["1e999", "-1e999", &"9".repeat(400)] {
            let err = Json::parse(text).expect_err(text);
            assert_eq!(err.message, "number out of range", "{text:?}");
            assert_eq!(err.at, text.len());
        }
        // Large is not infinite, and beyond `i64` is still a Float.
        assert_eq!(Json::parse("1e308"), Ok(Json::Float(1e308)));
        assert_eq!(Json::parse("-1e-999"), Ok(Json::Float(-0.0)));
        assert_eq!(
            Json::parse("9223372036854775808"),
            Ok(Json::Float(9_223_372_036_854_775_808.0))
        );
    }

    #[test]
    fn the_reader_borrows_plain_strings_and_builds_escaped_ones() {
        let mut r = Reader::new(r#"["plain é🦀", "tab\there", ""]"#);
        r.begin_array().unwrap();
        assert!(r.next_element().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("plain é🦀")));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Owned(s) if s == "tab\there"));
        assert!(r.next_element().unwrap());
        assert!(matches!(r.string().unwrap(), Cow::Borrowed("")));
        assert!(!r.next_element().unwrap());
        r.end().unwrap();
    }

    #[test]
    fn the_reader_steps_keys_in_document_order_duplicates_included() {
        let text = r#" { "a" : 1 , "b" : [ { } , [ ] ] , "a" : -2.5 } "#;
        let mut r = Reader::new(text);
        assert_eq!(r.peek(), Ok(Kind::Obj));
        r.begin_object().unwrap();
        let mut seen = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            match r.peek().unwrap() {
                Kind::Number => seen.push((key.into_owned(), Some(r.number().unwrap()))),
                _ => {
                    r.skip_value().unwrap();
                    seen.push((key.into_owned(), None));
                }
            }
        }
        r.end().unwrap();
        assert_eq!(
            seen,
            [
                ("a".to_string(), Some(Number::Int(1))),
                ("b".to_string(), None),
                ("a".to_string(), Some(Number::Float(-2.5))),
            ]
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e5\ud83e\udd80""#).unwrap(),
            Json::from("Aå🦀")
        );
    }

    /// A string of every length 0–40 of one 1-, 2-, 3- or 4-byte char
    /// reads back as itself, whether it stays in its node or not: widths
    /// 2–4 put a char across bytes 15/16, where the inline form ends.
    #[test]
    fn strings_roundtrip_on_both_sides_of_the_inline_limit() {
        for c in ['a', 'é', '∂', '🦀'] {
            for n in 0..=40 {
                let s: String = std::iter::repeat_n(c, n).collect();
                let v = Json::from(s.as_str());
                assert_eq!(v.as_str(), Some(s.as_str()), "{c:?} × {n}");
                assert_eq!(roundtrip(&v), v, "{c:?} × {n}");
                assert_eq!(Json::from(s.clone()), v, "{c:?} × {n}");
            }
        }
    }

    /// Holding strings in place costs the tree nothing: a node is the
    /// 32 bytes it was with a `String`.
    #[test]
    fn a_node_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Json>(), 32);
    }

    /// Arbitrary documents nested at most `depth` containers deep, drawn
    /// from the corners the writer and parser have to agree on.
    #[derive(Debug, Clone, Copy)]
    struct ArbJson {
        depth: usize,
    }

    /// String material: every byte class `write_escaped` treats
    /// differently, plus multi-byte characters on either side of them.
    const PIECES: [&str; 13] = [
        "\"", "\\", "\n", "\r", "\t", "\0", "\u{1f}", "\u{7f}", "é", "🦀", "a", " ", "/",
    ];

    fn arb_string(rng: &mut TestRng) -> String {
        (0..rng.below(6))
            .map(|_| PIECES[rng.below(PIECES.len())])
            .collect()
    }

    fn arb_float(rng: &mut TestRng) -> f64 {
        let small = (rng.next_u64() % 2001) as f64 - 1000.0;
        match rng.below(4) {
            0 => small,
            1 => small / 64.0 + 0.3,
            2 => small * 1e15,
            _ => {
                let any = f64::from_bits(rng.next_u64());
                if any.is_finite() {
                    any
                } else {
                    -0.0
                }
            }
        }
    }

    impl Strategy for ArbJson {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            let below = ArbJson {
                depth: self.depth.saturating_sub(1),
            };
            // Containers are only on offer while depth remains.
            match rng.below(if self.depth == 0 { 5 } else { 9 }) {
                0 => Json::Null,
                1 => Json::Bool(rng.chance(0.5)),
                2 => Json::Int(match rng.below(4) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => 0,
                    _ => rng.next_u64() as i64,
                }),
                3 => Json::Float(arb_float(rng)),
                4 => Json::from(arb_string(rng)),
                5 | 6 => Json::Arr((0..rng.below(4)).map(|_| below.generate(rng)).collect()),
                _ => {
                    // Keys come from the same small alphabet, so empty
                    // and duplicate keys both occur.
                    let mut fields: Vec<(String, Json)> = (0..rng.below(4))
                        .map(|_| (arb_string(rng), below.generate(rng)))
                        .collect();
                    if let Some(first) = fields.first().cloned() {
                        if rng.chance(0.3) {
                            fields.push((first.0, below.generate(rng)));
                        }
                    }
                    Json::Obj(fields)
                }
            }
        }
    }

    /// A number literal of any size: up to 400 digits (17–20, about a
    /// half of them led by a `9`, in one draw of five: where an integer
    /// stops fitting `i64`), a fraction, an exponent out to ±999.
    fn arb_number_literal(rng: &mut TestRng) -> String {
        let digits = |rng: &mut TestRng, count: usize| -> String {
            (0..count)
                .map(|_| char::from(b'0' + rng.below(10) as u8))
                .collect()
        };
        let mut text = String::new();
        if rng.chance(0.5) {
            text.push('-');
        }
        let count = match rng.below(5) {
            0 => 1 + rng.below(400),
            1 => {
                if rng.chance(0.5) {
                    text.push('9');
                    16 + rng.below(4)
                } else {
                    17 + rng.below(4)
                }
            }
            _ => 1 + rng.below(25),
        };
        text.push_str(&digits(rng, count));
        if rng.chance(0.4) {
            text.push('.');
            let count = 1 + rng.below(25);
            text.push_str(&digits(rng, count));
        }
        if rng.chance(0.6) {
            text.push(['e', 'E'][rng.below(2)]);
            text.push_str(["", "+", "-"][rng.below(3)]);
            text.push_str(&rng.below(1000).to_string());
        }
        text
    }

    /// A number literal, wrapped in a document or not.
    fn arb_number_text(rng: &mut TestRng) -> String {
        let text = arb_number_literal(rng);
        match rng.below(3) {
            0 => text,
            1 => format!("[1,{text}]"),
            _ => format!("{{\"value\":{text}}}"),
        }
    }

    /// What [`Reader::number`] must make of a bare literal, said with
    /// `str::parse` alone: an `Int` exactly when nothing but digits follows
    /// the sign and `i64` takes it, a `Float` exactly when `f64` takes it
    /// as a finite value, and otherwise the error at the literal's end.
    /// Floats compare by their bits, so `-0.0` is not `0.0`.
    fn number_by_str_parse(text: &str) -> Result<(bool, u64), JsonError> {
        let unsigned = text.strip_prefix('-').unwrap_or(text);
        if !unsigned.contains(['.', 'e', 'E', '+', '-']) {
            if let Ok(i) = text.parse::<i64>() {
                return Ok((false, i as u64));
            }
        }
        let message = match text.parse::<f64>() {
            Ok(f) if f.is_finite() => return Ok((true, f.to_bits())),
            Ok(_) => "number out of range",
            Err(_) => "malformed number",
        };
        Err(JsonError {
            at: text.len(),
            message: message.to_string(),
        })
    }

    fn check_number(text: &str) -> Result<(), TestCaseError> {
        let mut r = Reader::new(text);
        let read = r.number().and_then(|n| r.end().map(|()| n));
        let read = read.map(|n| match n {
            Number::Int(i) => (false, i as u64),
            Number::Float(f) => (true, f.to_bits()),
        });
        let want = number_by_str_parse(text);
        prop_assert_eq!(&read, &want, "{text:?}: read {read:?}, str::parse {want:?}");
        Ok(())
    }

    #[test]
    fn numbers_at_the_edges_read_as_str_parse_reads_them() {
        let table = [
            "999999999999999999",
            "-999999999999999999",
            "123456789012345678",
            "1000000000000000000",
            "-1000000000000000000",
            "9999999999999999999",
            "10000000000000000000",
            "-99999999999999999999",
            "9223372036854775807",
            "-9223372036854775808",
            "9223372036854775808",
            "-9223372036854775809",
            "0",
            "-0",
            "007",
            "-007",
            "-",
            "--1",
            "1-",
            "1e",
            "1.",
            "12.",
            "12e",
            "12E",
            "12+",
            "12-",
            "12.5",
            "12e5",
            "12E5",
            "12+5",
            "12-5",
            "999999999999999999.0",
            "999999999999999999e0",
            "-999999999999999999-",
        ];
        for text in table {
            check_number(text).unwrap();
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct ArbNumberText;

    impl Strategy for ArbNumberText {
        type Value = String;

        fn generate(&self, rng: &mut TestRng) -> String {
            arb_number_text(rng)
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct ArbNumberLiterals;

    impl Strategy for ArbNumberLiterals {
        type Value = Vec<String>;

        fn generate(&self, rng: &mut TestRng) -> Vec<String> {
            (0..64).map(|_| arb_number_literal(rng)).collect()
        }
    }

    proptest! {
        /// The lexer classifies and values every number literal as
        /// `str::parse` does ([`number_by_str_parse`]) — an oracle that
        /// shares no code with it, where `request_lines.rs` compares two
        /// consumers of the one lexer.
        #[test]
        fn numbers_read_as_str_parse_reads_them(texts in ArbNumberLiterals) {
            for text in &texts {
                check_number(text)?;
            }
        }

        /// Whatever `parse` accepts can be sent back out: no literal
        /// becomes a NaN or an infinity on the way in.
        #[test]
        fn no_parsed_document_holds_a_non_finite_number(text in ArbNumberText) {
            match Json::parse(&text) {
                Ok(doc) => prop_assert!(!doc.has_non_finite(), "{text} parsed to {doc:?}"),
                Err(e) => prop_assert_eq!(e.message, "number out of range", "{}", text),
            }
        }

        /// `parse ∘ write` is the identity on every finite document, and
        /// the written form is one line — the property every frame on the
        /// wire and every `to_json()` consumer leans on.
        #[test]
        fn generated_documents_roundtrip_on_one_line(j in (ArbJson { depth: 6 })) {
            let text = j.to_string();
            prop_assert!(!text.contains(['\n', '\r']), "raw line break in {text:?}");
            prop_assert_eq!(Json::parse(&text), Ok(j));
        }
    }
}
