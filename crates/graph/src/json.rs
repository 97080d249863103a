//! A minimal JSON document model with a parser and a one-line writer.
//!
//! The build environment has no crates.io access (DESIGN.md §2), so the
//! workspace vendors its own JSON, once, here — beneath every crate that
//! speaks it: the wire protocol (`ged-proto` re-exports this module as
//! `ged_proto::json`), the engine's `MetricsSnapshot::to_json` and the
//! analyzer's `AnalysisReport::to_json` all build a [`Json`] and leave the
//! text to [`Json::write`]. The daemon also *reads* JSON off untrusted
//! sockets, hence the recursive-descent parser with a document depth
//! limit (a hostile frame of ten thousand `[`s must produce a
//! [`JsonError`], not a stack overflow).
//!
//! Two deliberate choices:
//!
//! * **Integers and floats stay distinct** ([`Json::Int`] vs
//!   [`Json::Float`]). The graph's attribute universe distinguishes
//!   `Value::Int(2)` from `Value::Float(2.0)` — they are different
//!   constants, and literal satisfaction compares them as such — so the
//!   codec must round-trip the distinction. The writer renders integral
//!   floats with a forced `.0` and the parser classifies by the presence
//!   of `.`/`e` in the literal, making the round-trip lossless.
//! * **The writer emits exactly one line.** Wire frames are
//!   newline-delimited (`ged_proto::wire`), so the serialised form must
//!   never contain a raw newline; string escapes guarantee that.

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
    /// Any other number (and `i64`-overflowing literals).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved (duplicate keys keep the
    /// last occurrence when queried via [`Json::get`] — we search from
    /// the back).
    Obj(Vec<(String, Json)>),
}

/// Maximum nesting depth the parser accepts. Deeper documents are
/// rejected with [`JsonError`] instead of risking the parser's stack.
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
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
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

    /// The integer content, if this is an `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
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
            Json::Str(s) => Some(s),
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
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Write `s` as a JSON string literal — the workspace's one definition
/// of string escaping, shared by [`Json::write`] and the streaming reply
/// encoders in `ged_proto::message`. Runs of bytes that need no escape are
/// copied in one piece; every byte that does need one is ASCII, so
/// cutting the string at those bytes never splits a UTF-8 sequence.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("document nests too deeply"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
        self.pos += 1;
        match c {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
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
                out.push(char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let d = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = (v << 4) | digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("malformed number"))
        } else {
            // Integer-looking literal; overflow degrades to Float.
            match text.parse::<i64>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("malformed number")),
            }
        }
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
            Json::Str("hello \"quoted\"\nline".to_string()),
            Json::Str("unicode: åßç∂ 🦀".to_string()),
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
        let v = Json::obj(vec![("k", Json::Str("a\nb\rc".to_string()))]);
        assert!(!v.to_string().contains(['\n', '\r']));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn escapes_and_numbers_have_one_spelling() {
        // The exact bytes, not just a round trip: replies are promised
        // byte-identical across writer rewrites.
        let s = Json::Str("a\"b\\c\nd\re\tf\u{0}g\u{1f}h\u{7f}é🦀".to_string());
        assert_eq!(
            s.to_string(),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u001fh\u{7f}é🦀\""
        );
        assert_eq!(roundtrip(&s), s);
        assert_eq!(Json::Str(String::new()).to_string(), "\"\"");
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
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e5\ud83e\udd80""#).unwrap(),
            Json::Str("Aå🦀".to_string())
        );
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
                4 => Json::Str(arb_string(rng)),
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

    proptest! {
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
