//! Newline-delimited JSON framing over any byte stream.
//!
//! One frame = one JSON document serialised to a single line (the writer
//! in [`crate::json`] guarantees no raw newlines) followed by `\n`.
//! Reading a frame is two steps, and each exists once. [`read_line`] is
//! the framing loop, over a buffer its caller owns: it enforces a byte cap
//! per frame so an oversized (or endless) line from a hostile client costs
//! bounded memory and yields a structured [`WireError::Oversized`] instead
//! of an allocation storm, distinguishes a clean EOF (`Ok(None)`, the peer
//! closed between frames) from a truncated frame (bytes without the
//! terminating newline — the peer died mid-request), skips blank
//! keep-alive lines, strips a `\r`, and checks the line to be UTF-8.
//! Decoding the line is the caller's: [`read_frame`] is `read_line` +
//! [`Json::parse`] for whoever wants the document (tests, the benchmark's
//! reference rows, and a [`Client`](crate::client::Client), through one
//! buffer it keeps); `gedd` keeps one buffer per connection and hands the
//! line to [`Request::from_line`](crate::message::Request::from_line).

use crate::json::Json;
use std::io::{self, BufRead, Write};

/// Default per-frame byte cap. Large enough for a many-thousand-delta
/// `apply` batch or a full metrics snapshot, small enough to bound what
/// one connection can make the daemon buffer.
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The line exceeded the frame cap (payload bytes seen so far).
    Oversized(usize),
    /// The stream ended mid-frame (bytes but no terminating newline).
    Truncated,
    /// The line was not valid JSON.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Oversized(n) => write!(f, "frame exceeds cap ({n} bytes read)"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// Serialise `frame` as one line and flush it.
///
/// Frames containing a NaN/Infinity float are rejected with
/// `InvalidInput`: JSON cannot represent them, and silently sending
/// `null` in their place would corrupt the value on the receiving side
/// with no indication to the writer.
pub fn write_frame(w: &mut impl Write, frame: &Json) -> io::Result<()> {
    if frame.has_non_finite() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame contains a non-finite float (JSON has no NaN/Infinity)",
        ));
    }
    let mut line = String::new();
    frame.write(&mut line);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Read the next frame as a document: [`read_line`] into a buffer of its
/// own, then [`Json::parse`]. What tests read replies with, and the
/// reference the daemon's request decoder is held to; the daemon itself
/// calls [`read_line`] with one buffer per connection, and a
/// [`Client`](crate::client::Client) reads every reply into one buffer.
pub fn read_frame(r: &mut impl BufRead, max_frame: usize) -> Result<Option<Json>, WireError> {
    read_frame_in(r, &mut Vec::new(), max_frame)
}

/// [`read_frame`] through the caller's line buffer, which [`read_line`]
/// clears and keeps.
pub(crate) fn read_frame_in(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max_frame: usize,
) -> Result<Option<Json>, WireError> {
    let Some(line) = read_line(r, buf, max_frame)? else {
        return Ok(None);
    };
    Json::parse(line)
        .map(Some)
        .map_err(|e| WireError::Malformed(e.to_string()))
}

/// Capacity a line buffer may carry from one [`read_line`] to the next.
/// Bulk frames (a 512-delta `apply` is ≈ 30 KB) fit and are read without
/// allocating; what a rare multi-megabyte frame grew is given back before
/// the next read instead of staying with an idle connection.
const KEPT_LINE_CAPACITY: usize = 64 << 10;

/// Read the next frame's line into `buf` — cleared first, its capacity
/// kept up to 64 KiB, so a connection that passes the same buffer each
/// time allocates for its bulk frames once — and return it without its
/// terminator, checked to be UTF-8 but not yet to be JSON. `Ok(None)` is a clean EOF at a frame
/// boundary; `Err(Truncated)` means the peer vanished mid-line;
/// `Err(Oversized)` means the line blew the `max_frame` cap (the
/// connection should be dropped — the rest of the line was not consumed).
pub fn read_line<'b>(
    r: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    max_frame: usize,
) -> Result<Option<&'b str>, WireError> {
    // Outer loop: one iteration per physical line. Blank keep-alive
    // lines are skipped by iterating, never by recursing — a hostile
    // stream of consecutive '\n' bytes must cost O(1) stack.
    loop {
        buf.clear();
        buf.shrink_to(KEPT_LINE_CAPACITY);
        loop {
            let available = r.fill_buf()?;
            if available.is_empty() {
                // EOF: clean only at a frame boundary.
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            match find_newline(available) {
                Some(i) => {
                    buf.extend_from_slice(&available[..i]);
                    r.consume(i + 1);
                    break;
                }
                None => {
                    buf.extend_from_slice(available);
                    let n = available.len();
                    r.consume(n);
                }
            }
            if buf.len() > max_frame {
                return Err(WireError::Oversized(buf.len()));
            }
        }
        if buf.len() > max_frame {
            return Err(WireError::Oversized(buf.len()));
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        // Tolerate blank keep-alive lines between frames. A frame opens
        // with a visible ASCII byte, so only other lines are looked at
        // here as text, and frames are validated once, below. (A line
        // that is not UTF-8 is not blank either: it leaves the loop and
        // fails there.)
        let opens_a_frame = buf.first().is_some_and(u8::is_ascii_graphic);
        if !opens_a_frame && std::str::from_utf8(buf).is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        break;
    }
    std::str::from_utf8(buf)
        .map(Some)
        .map_err(|_| WireError::Malformed("frame is not UTF-8".to_string()))
}

/// Where the first `\n` in `bytes` is. A bulk frame is tens of kilobytes
/// with one newline at its end, so the search tests eight bytes at once
/// for a newline among them (`word - 0x01…01 & !word & 0x80…80` is nonzero
/// exactly when `word` has a zero byte), then finds it in the rest.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut clean = 0;
    for chunk in bytes.chunks_exact(8) {
        let word = u64::from_ne_bytes(chunk.try_into().expect("eight bytes")) ^ NEWLINES;
        if word.wrapping_sub(ONES) & !word & HIGHS != 0 {
            break;
        }
        clean += 8;
    }
    bytes[clean..]
        .iter()
        .position(|b| *b == b'\n')
        .map(|i| clean + i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn the_newline_search_finds_the_first_newline_wherever_it_is() {
        // Every length across three words, a newline at every offset or
        // none, among bytes one bit away from `\n` and high bytes.
        for len in 0..=24 {
            for newline in (0..len).map(Some).chain([None]) {
                for filler in [b'a', b'\n' ^ 1, b'\n' ^ 0x80, 0x8a, 0xff, 0] {
                    let mut bytes = vec![filler; len];
                    if let Some(at) = newline {
                        bytes[at] = b'\n';
                        if at + 3 < len {
                            bytes[at + 3] = b'\n';
                        }
                    }
                    let expected = bytes.iter().position(|b| *b == b'\n');
                    assert_eq!(find_newline(&bytes), expected, "{bytes:?}");
                }
            }
        }
    }

    fn read_all(input: &[u8], cap: usize) -> Vec<Result<Option<Json>, WireError>> {
        let mut r = BufReader::new(input);
        let mut out = Vec::new();
        loop {
            let item = read_frame(&mut r, cap);
            let done = matches!(item, Ok(None) | Err(_));
            out.push(item);
            if done {
                return out;
            }
        }
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf: Vec<u8> = Vec::new();
        let a = Json::obj(vec![("cmd", Json::from("health"))]);
        let b = Json::Arr(vec![Json::Int(1), Json::Int(2)]);
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let frames = read_all(&buf, DEFAULT_MAX_FRAME);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].as_ref().unwrap().as_ref(), Some(&a));
        assert_eq!(frames[1].as_ref().unwrap().as_ref(), Some(&b));
        assert!(matches!(frames[2], Ok(None)), "clean EOF after frames");
    }

    #[test]
    fn non_finite_frames_are_refused_not_degraded() {
        let mut buf: Vec<u8> = Vec::new();
        let frame = Json::obj(vec![("value", Json::Float(f64::NAN))]);
        let err = write_frame(&mut buf, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may reach the wire");
    }

    #[test]
    fn truncated_and_oversized_are_distinguished() {
        let frames = read_all(b"{\"cmd\":\"heal", DEFAULT_MAX_FRAME);
        assert!(matches!(frames[0], Err(WireError::Truncated)));

        let long = vec![b'x'; 64];
        let frames = read_all(&long, 16);
        assert!(matches!(frames[0], Err(WireError::Oversized(_))));
    }

    #[test]
    fn malformed_lines_report_but_do_not_consume_followers() {
        let mut input = b"not json at all\n".to_vec();
        write_frame(&mut input, &Json::Int(7)).unwrap();
        let mut r = BufReader::new(&input[..]);
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME),
            Err(WireError::Malformed(_))
        ));
        // The bad line was fully consumed; the next frame still parses.
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(Json::Int(7))
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let mut input = b"\n\r\n".to_vec();
        write_frame(&mut input, &Json::Bool(true)).unwrap();
        let mut r = BufReader::new(&input[..]);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(Json::Bool(true))
        );
    }

    #[test]
    fn one_buffer_serves_every_line_and_keeps_nothing_of_the_last() {
        let long = format!("{{\"pad\":\"{}\"}}", "x".repeat(5000));
        let input = format!("{long}\r\n\n{{\"cmd\":\"health\"}}\n \u{a0}\t\r\n[]\n\u{a0}7\n");
        let mut r = BufReader::with_capacity(64, input.as_bytes());
        let mut buf = Vec::new();
        let mut next = |buf: &mut Vec<u8>| {
            read_line(&mut r, buf, DEFAULT_MAX_FRAME)
                .unwrap()
                .map(str::to_string)
        };
        assert_eq!(next(&mut buf).as_deref(), Some(&long[..]));
        let grown = buf.capacity();
        // Shorter lines through the same buffer: each is itself, not a
        // prefix of what the buffer held before, and nothing reallocates.
        assert_eq!(next(&mut buf).as_deref(), Some("{\"cmd\":\"health\"}"));
        assert_eq!(next(&mut buf).as_deref(), Some("[]"));
        // Blank is what `str::trim` empties; a line with more is a line.
        assert_eq!(next(&mut buf).as_deref(), Some("\u{a0}7"));
        assert_eq!(next(&mut buf), None);
        assert_eq!(buf.capacity(), grown);
    }

    #[test]
    fn a_large_line_does_not_stay_in_the_buffer() {
        let input = format!("\"{}\"\n7\n", "x".repeat(1 << 20));
        let mut r = BufReader::new(input.as_bytes());
        let mut buf = Vec::new();
        let large = read_line(&mut r, &mut buf, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(large.map(str::len), Some((1 << 20) + 2));
        assert_eq!(
            read_line(&mut r, &mut buf, DEFAULT_MAX_FRAME).unwrap(),
            Some("7")
        );
        assert!(buf.capacity() <= KEPT_LINE_CAPACITY, "{}", buf.capacity());
    }

    #[test]
    fn a_line_that_is_not_utf8_is_malformed_and_consumed() {
        let mut r = BufReader::new(&b"{\"cmd\":\"\xff\"}\n \xff\n7\n"[..]);
        let mut buf = Vec::new();
        for _ in 0..2 {
            let err = read_line(&mut r, &mut buf, DEFAULT_MAX_FRAME).unwrap_err();
            assert!(matches!(err, WireError::Malformed(m) if m == "frame is not UTF-8"));
        }
        assert_eq!(
            read_line(&mut r, &mut buf, DEFAULT_MAX_FRAME).unwrap(),
            Some("7")
        );
    }

    #[test]
    fn a_flood_of_blank_lines_costs_constant_stack() {
        // Regression: blank-line skipping used to recurse once per line,
        // so a hostile client could overflow the handler stack with a
        // few hundred KB of '\n' bytes. 500k lines overflows any default
        // stack under the recursive scheme; iteration shrugs it off.
        let mut input = vec![b'\n'; 500_000];
        write_frame(&mut input, &Json::Int(9)).unwrap();
        let mut r = BufReader::new(&input[..]);
        assert_eq!(
            read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap(),
            Some(Json::Int(9))
        );
        assert!(matches!(read_frame(&mut r, DEFAULT_MAX_FRAME), Ok(None)));
    }
}
