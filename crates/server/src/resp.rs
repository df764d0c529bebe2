//! A minimal RESP (REdis Serialization Protocol) v2 encoder/decoder — enough
//! to frame `GRAPH.*` commands and their replies the way a Redis client would
//! see them.
//!
//! Besides RESP frames, the socket-facing [`StreamDecoder`] accepts Redis'
//! *inline command* form: a bare `PING\r\n` typed into `telnet`/`netcat`,
//! split on whitespace with Redis' quoting rules (`"\xHH"` escapes inside
//! double quotes, `\'` inside single quotes). Inline commands are only
//! recognised at the top level of the stream — never inside an array frame —
//! and never by a decoder built with [`StreamDecoder::for_replies`] (or the
//! one-shot [`RespValue::decode`] on top of it): a server's *replies* are
//! strict RESP, where an inline fallback would mask corruption.

use std::fmt;

/// A RESP protocol value.
#[derive(Debug, Clone, PartialEq)]
pub enum RespValue {
    /// `+OK\r\n`
    SimpleString(String),
    /// `-ERR …\r\n`
    Error(String),
    /// `:42\r\n`
    Integer(i64),
    /// `$5\r\nhello\r\n`
    BulkString(String),
    /// `*N\r\n…`
    Array(Vec<RespValue>),
    /// `$-1\r\n`
    Null,
}

impl fmt::Display for RespValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RespValue::SimpleString(s) | RespValue::BulkString(s) => write!(f, "{s}"),
            RespValue::Error(e) => write!(f, "(error) {e}"),
            RespValue::Integer(i) => write!(f, "{i}"),
            RespValue::Array(items) => {
                let rendered: Vec<String> = items.iter().map(|v| v.to_string()).collect();
                write!(f, "[{}]", rendered.join(", "))
            }
            RespValue::Null => write!(f, "(nil)"),
        }
    }
}

impl RespValue {
    /// Encode to the RESP wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode to the RESP wire format, appending to `out` (pipelined writers
    /// batch many frames into one buffer, one syscall).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RespValue::SimpleString(s) => push_line(out, b'+', s),
            RespValue::Error(e) => push_line(out, b'-', e),
            RespValue::Integer(i) => push_integer(out, *i),
            RespValue::BulkString(s) => push_bulk(out, s),
            RespValue::Array(items) => {
                push_header(out, b'*', items.len());
                for item in items {
                    item.encode_into(out);
                }
            }
            RespValue::Null => push_null(out),
        }
    }

    /// Decode one strict-RESP value (a reply; no inline commands) from the
    /// front of `input`, returning it and the number of bytes it spans. The
    /// error tells a prefix that may still complete
    /// ([`DecodeStop::Incomplete`]) from one no further input can repair
    /// ([`DecodeStop::Malformed`]). For a socket, keep a [`StreamDecoder`]
    /// instead: it resumes where this would start over.
    pub fn decode(input: &[u8]) -> Result<(RespValue, usize), DecodeStop> {
        let (mut frames, used, stop) = StreamDecoder::for_replies().feed_at_most(1, input);
        frames.pop().map(|frame| (frame, used)).ok_or(stop)
    }

    /// Convenience: build a RESP array of bulk strings (how clients send
    /// commands).
    pub fn command(parts: &[&str]) -> RespValue {
        RespValue::Array(parts.iter().map(|p| RespValue::BulkString(p.to_string())).collect())
    }
}

/// Append `n` in decimal, with no `format!` temporary.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append a length header: `$<n>\r\n` or `*<n>\r\n`.
pub(crate) fn push_header(out: &mut Vec<u8>, kind: u8, n: usize) {
    out.push(kind);
    push_decimal(out, n as u64);
    out.extend_from_slice(b"\r\n");
}

/// Append `:<i>\r\n`.
pub(crate) fn push_integer(out: &mut Vec<u8>, i: i64) {
    out.push(b':');
    if i < 0 {
        out.push(b'-');
    }
    push_decimal(out, i.unsigned_abs());
    out.extend_from_slice(b"\r\n");
}

/// Append `$<len>\r\n<s>\r\n`.
pub(crate) fn push_bulk(out: &mut Vec<u8>, s: &str) {
    push_header(out, b'$', s.len());
    out.extend_from_slice(s.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Append the null bulk string, `$-1\r\n`.
pub(crate) fn push_null(out: &mut Vec<u8>) {
    out.extend_from_slice(b"$-1\r\n");
}

/// Append a simple-string or error line. The text is not length-prefixed, so
/// a CR or LF inside it would end the reply early and hand the rest to the
/// client as the *next* reply; each becomes a space, as in Redis'
/// `addReplyErrorFormat`.
fn push_line(out: &mut Vec<u8>, kind: u8, text: &str) {
    out.push(kind);
    out.extend(text.bytes().map(|b| if matches!(b, b'\r' | b'\n') { b' ' } else { b }));
    out.extend_from_slice(b"\r\n");
}

/// Why a decode stopped before producing a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeStop {
    /// The prefix is a proper prefix of some valid frame: more bytes may
    /// complete it, so a socket loop should keep it buffered and read on.
    Incomplete,
    /// The prefix can never become a valid frame no matter what arrives
    /// next: the byte stream is desynchronised and the connection must be
    /// closed (resynchronising on a length-prefixed protocol is hopeless).
    Malformed,
}

/// Upper bound on a declared bulk-string payload (Redis' default
/// `proto-max-bulk-len`): a client-supplied `$<len>` beyond this is treated
/// as malformed rather than trusted into a buffer-length computation.
const MAX_BULK_LEN: usize = 512 * 1024 * 1024;

/// Upper bound on a declared array element count (Redis caps multibulk
/// headers at 1M elements).
const MAX_ARRAY_LEN: usize = 1024 * 1024;

/// Maximum array nesting depth, so a hostile frame of `*1\r\n` repeated
/// cannot grow the decoder's stack of open arrays without bound.
const MAX_DEPTH: usize = 32;

/// Upper bound on a single header line (type byte to CRLF). Real headers are
/// a type byte plus a short integer; a simple string or error line gets the
/// same generous 64KB Redis grants inline commands. Beyond it, a stream that
/// still has no CRLF is declared malformed rather than buffered forever.
const MAX_LINE_LEN: usize = 64 * 1024;

/// One shallow decode step: either a finished value (scalar, null, bulk) or
/// the header of an array whose elements follow.
enum Shallow {
    Value(RespValue),
    /// `*n\r\n` with `n >= 0`: the next `n` frames are the elements.
    ArrayHeader(usize),
}

/// Decode one non-recursive step starting at `*pos`, advancing `*pos` past
/// it. On `Err` (incomplete or malformed input) `*pos` is unchanged.
fn decode_shallow(input: &[u8], pos: &mut usize) -> Result<Shallow, DecodeStop> {
    let line_start = *pos;
    // The type byte alone classifies a garbage prefix before its CRLF ever
    // arrives (a TLS ClientHello is rejected on byte one, not buffered until
    // the line cap). `StreamDecoder` layers the inline-command fallback on
    // top of this *before* calling here, and only at the top level of a
    // command stream; inside an array frame, or anywhere in a reply stream, a
    // non-type byte is final desynchronisation.
    let Some(&kind) = input.get(line_start) else {
        return Err(DecodeStop::Incomplete);
    };
    if !matches!(kind, b'+' | b'-' | b':' | b'$' | b'*') {
        return Err(DecodeStop::Malformed);
    }
    let Some(line_end) = find_crlf(input, line_start) else {
        // A complete line may span up to MAX_LINE_LEN bytes plus its CRLF,
        // so only a CRLF-free run strictly longer than MAX_LINE_LEN + 1
        // (line + `\r`) can no longer be a proper prefix of a legal frame.
        return Err(if input.len() - line_start > MAX_LINE_LEN + 1 {
            DecodeStop::Malformed
        } else {
            DecodeStop::Incomplete
        });
    };
    if line_end - line_start > MAX_LINE_LEN {
        return Err(DecodeStop::Malformed);
    }
    let after_line = line_end + 2;
    let body = &input[line_start + 1..line_end];
    // A header line is complete through its CRLF, so any parse failure from
    // here on is final: more input cannot change what the line says.
    match kind {
        b'+' => {
            *pos = after_line;
            Ok(Shallow::Value(RespValue::SimpleString(String::from_utf8_lossy(body).into_owned())))
        }
        b'-' => {
            *pos = after_line;
            Ok(Shallow::Value(RespValue::Error(String::from_utf8_lossy(body).into_owned())))
        }
        b':' => {
            let text = std::str::from_utf8(body).map_err(|_| DecodeStop::Malformed)?;
            let i: i64 = text.parse().map_err(|_| DecodeStop::Malformed)?;
            *pos = after_line;
            Ok(Shallow::Value(RespValue::Integer(i)))
        }
        b'$' => {
            let text = std::str::from_utf8(body).map_err(|_| DecodeStop::Malformed)?;
            let len: i64 = text.parse().map_err(|_| DecodeStop::Malformed)?;
            // `$-1\r\n` is the null bulk string.
            if len < 0 {
                *pos = after_line;
                return Ok(Shallow::Value(RespValue::Null));
            }
            let len = usize::try_from(len)
                .ok()
                .filter(|&l| l <= MAX_BULK_LEN)
                .ok_or(DecodeStop::Malformed)?;
            // Overflow-checked frame extent: `start + len + 2` on an
            // unvalidated length must never wrap.
            let payload_end = after_line.checked_add(len).ok_or(DecodeStop::Malformed)?;
            let frame_end = payload_end.checked_add(2).ok_or(DecodeStop::Malformed)?;
            if input.len() < frame_end {
                // NB a frame split inside the payload — or exactly between
                // the two trailer bytes — is *incomplete*, never malformed:
                // the trailer can only be judged once both bytes are here.
                return Err(DecodeStop::Incomplete);
            }
            // The declared length must be terminated by CRLF exactly.
            if &input[payload_end..frame_end] != b"\r\n" {
                return Err(DecodeStop::Malformed);
            }
            let s = String::from_utf8_lossy(&input[after_line..payload_end]).into_owned();
            *pos = frame_end;
            Ok(Shallow::Value(RespValue::BulkString(s)))
        }
        b'*' => {
            let text = std::str::from_utf8(body).map_err(|_| DecodeStop::Malformed)?;
            let count: i64 = text.parse().map_err(|_| DecodeStop::Malformed)?;
            // `*-1\r\n` is the null array, not an empty one.
            if count < 0 {
                *pos = after_line;
                return Ok(Shallow::Value(RespValue::Null));
            }
            let count = usize::try_from(count)
                .ok()
                .filter(|&c| c <= MAX_ARRAY_LEN)
                .ok_or(DecodeStop::Malformed)?;
            *pos = after_line;
            Ok(Shallow::ArrayHeader(count))
        }
        _ => unreachable!("kind was validated above"),
    }
}

/// Decode one inline command starting at `*pos` (which must sit at the top
/// level of the stream, on a byte that is not a RESP type byte), advancing
/// `*pos` past the terminating newline. Returns `Ok(None)` for a blank line
/// (consumed and skipped, like Redis), `Ok(Some(array-of-bulk-strings))`
/// for a command, and the usual [`DecodeStop`] split otherwise: no newline
/// yet is `Incomplete` up to the 64KB line cap, while an over-long line,
/// non-UTF-8 bytes, or unbalanced quotes are `Malformed`. On `Err`, `*pos`
/// is unchanged.
fn decode_inline(input: &[u8], pos: &mut usize) -> Result<Option<RespValue>, DecodeStop> {
    let start = *pos;
    // Inline commands terminate on `\n` (Redis accepts a bare newline from
    // interactive clients); a trailing `\r` is stripped.
    let Some(nl) = input[start..].iter().position(|&b| b == b'\n') else {
        return Err(if input.len() - start > MAX_LINE_LEN {
            DecodeStop::Malformed
        } else {
            DecodeStop::Incomplete
        });
    };
    let nl = start + nl;
    let mut line_end = nl;
    if line_end > start && input[line_end - 1] == b'\r' {
        line_end -= 1;
    }
    if line_end - start > MAX_LINE_LEN {
        return Err(DecodeStop::Malformed);
    }
    let line = std::str::from_utf8(&input[start..line_end]).map_err(|_| DecodeStop::Malformed)?;
    let args = split_inline_args(line).ok_or(DecodeStop::Malformed)?;
    *pos = nl + 1;
    if args.is_empty() {
        return Ok(None);
    }
    Ok(Some(RespValue::Array(args.into_iter().map(RespValue::BulkString).collect())))
}

/// Split an inline command line into arguments with Redis' `sdssplitargs`
/// rules: whitespace separates bare words; double quotes group a word and
/// honour `\xHH` hex escapes plus `\n` `\r` `\t` `\b` `\a`; single quotes
/// group verbatim except `\'`; a closing quote must be followed by
/// whitespace or end-of-line. Returns `None` on unbalanced quotes or a
/// dangling closing quote — the line is malformed, not retryable.
fn split_inline_args(line: &str) -> Option<Vec<String>> {
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = line.as_bytes();
    let mut args = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        // Escapes can produce arbitrary bytes, so the argument accumulates
        // as bytes and converts lossily at the end (RespValue carries String).
        let mut current: Vec<u8> = Vec::new();
        let mut in_double = false;
        let mut in_single = false;
        loop {
            if in_double {
                let &b = bytes.get(i)?; // unterminated quotes: malformed
                if b == b'\\' && i + 3 < bytes.len() && bytes[i + 1] == b'x' {
                    if let (Some(hi), Some(lo)) = (hex_val(bytes[i + 2]), hex_val(bytes[i + 3])) {
                        current.push(hi * 16 + lo);
                        i += 4;
                        continue;
                    }
                }
                if b == b'\\' && i + 1 < bytes.len() {
                    current.push(match bytes[i + 1] {
                        b'n' => b'\n',
                        b'r' => b'\r',
                        b't' => b'\t',
                        b'b' => 0x08,
                        b'a' => 0x07,
                        other => other,
                    });
                    i += 2;
                } else if b == b'"' {
                    // The closing quote must end the argument.
                    if let Some(&next) = bytes.get(i + 1) {
                        if !next.is_ascii_whitespace() {
                            return None;
                        }
                    }
                    i += 1;
                    break;
                } else {
                    current.push(b);
                    i += 1;
                }
            } else if in_single {
                let &b = bytes.get(i)?;
                if b == b'\\' && bytes.get(i + 1) == Some(&b'\'') {
                    current.push(b'\'');
                    i += 2;
                } else if b == b'\'' {
                    if let Some(&next) = bytes.get(i + 1) {
                        if !next.is_ascii_whitespace() {
                            return None;
                        }
                    }
                    i += 1;
                    break;
                } else {
                    current.push(b);
                    i += 1;
                }
            } else {
                let Some(&b) = bytes.get(i) else { break };
                match b {
                    b if b.is_ascii_whitespace() => break,
                    b'"' => {
                        in_double = true;
                        i += 1;
                    }
                    b'\'' => {
                        in_single = true;
                        i += 1;
                    }
                    other => {
                        current.push(other);
                        i += 1;
                    }
                }
            }
        }
        args.push(String::from_utf8_lossy(&current).into_owned());
    }
    Some(args)
}

/// A **resumable** pipeline decoder for socket loops, on either end of the
/// socket: where a one-shot decode restarts from byte zero of the retained
/// buffer on every call — quadratic when a large frame arrives in many small
/// reads — `StreamDecoder` remembers how far it got (scan offset + the stack
/// of partially filled arrays, the same trick as Redis' incremental multibulk
/// parser), so every buffered byte is scanned once across any number of
/// `feed` calls.
///
/// Protocol: append new bytes to your retained buffer, call
/// [`StreamDecoder::feed`] on the whole buffer, then drain the returned
/// `consumed` bytes from its front — `feed` has already rebased its internal
/// offsets. Bytes belonging to a partially decoded frame stay in the buffer
/// (bounded by the caller, per the [`DecodeStop`] contract) but are not
/// rescanned.
#[derive(Default)]
pub struct StreamDecoder {
    /// Absolute offset into the caller's retained buffer: everything before
    /// it has been folded into `stack` / emitted values.
    pos: usize,
    /// Enclosing arrays still waiting for elements, outermost first.
    stack: Vec<PartialArray>,
    /// Decoding a server's replies rather than a client's commands: the
    /// inline form does not exist in that direction.
    replies: bool,
}

/// An array header whose elements are still arriving.
struct PartialArray {
    remaining: usize,
    items: Vec<RespValue>,
}

impl StreamDecoder {
    /// A decoder for the commands a client sends: RESP frames, or inline
    /// commands at the top level of the stream.
    pub fn new() -> StreamDecoder {
        StreamDecoder::default()
    }

    /// A decoder for the replies a server sends: strict RESP, so a first
    /// byte that is not a RESP type byte is [`DecodeStop::Malformed`], never
    /// the start of an inline command.
    pub fn for_replies() -> StreamDecoder {
        StreamDecoder { replies: true, ..StreamDecoder::default() }
    }

    /// How far into the caller's retained buffer this decoder has scanned.
    #[cfg(test)]
    pub(crate) fn scan_offset(&self) -> usize {
        self.pos
    }

    /// Decode every frame that completed, scanning only bytes this decoder
    /// has not seen before. Returns the completed frames, the number of
    /// bytes the caller must drain from the front of `input` (always a whole
    /// number of top-level frames, so a partial frame's bytes stay retained
    /// and the caller's buffer bound keeps meaning "bytes of the frame in
    /// progress"), and the stop reason for the remainder
    /// ([`DecodeStop::Malformed`] is sticky: the stream is unrecoverable and
    /// the connection must close).
    pub fn feed(&mut self, input: &[u8]) -> (Vec<RespValue>, usize, DecodeStop) {
        self.feed_at_most(usize::MAX, input)
    }

    /// [`StreamDecoder::feed`], stopping once `limit` frames have completed.
    fn feed_at_most(&mut self, limit: usize, input: &[u8]) -> (Vec<RespValue>, usize, DecodeStop) {
        let mut values = Vec::new();
        // Offset just past the last *completed top-level* frame of this call.
        let mut emit_pos = 0usize;
        let stop = loop {
            if values.len() == limit {
                break DecodeStop::Incomplete;
            }
            // Any frame whose depth (== the number of enclosing arrays)
            // exceeds MAX_DEPTH is rejected before it is even scanned.
            if self.stack.len() > MAX_DEPTH {
                break DecodeStop::Malformed;
            }
            // Redis' inline command form: at the *top level* of a command
            // stream, a byte that is not a RESP type byte starts an inline
            // line (`PING\r\n` from netcat) rather than desynchronisation.
            // Inside an array frame the strict rule stands — a stray byte
            // there can never be repaired.
            if self.stack.is_empty() && !self.replies {
                if let Some(&first) = input.get(self.pos) {
                    if !matches!(first, b'+' | b'-' | b':' | b'$' | b'*') {
                        match decode_inline(input, &mut self.pos) {
                            Ok(Some(command)) => {
                                values.push(command);
                                emit_pos = self.pos;
                                continue;
                            }
                            // A blank line is consumed and skipped (Redis
                            // ignores empty inline lines).
                            Ok(None) => {
                                emit_pos = self.pos;
                                continue;
                            }
                            Err(stop) => break stop,
                        }
                    }
                }
            }
            match decode_shallow(input, &mut self.pos) {
                Ok(Shallow::ArrayHeader(count)) => {
                    if count == 0 {
                        if self.complete(RespValue::Array(Vec::new()), &mut values) {
                            emit_pos = self.pos;
                        }
                    } else {
                        self.stack.push(PartialArray {
                            remaining: count,
                            items: Vec::with_capacity(count.min(64)),
                        });
                    }
                }
                Ok(Shallow::Value(value)) => {
                    if self.complete(value, &mut values) {
                        emit_pos = self.pos;
                    }
                }
                Err(stop) => break stop,
            }
        };
        // Rebase the scan offset to the post-drain buffer.
        self.pos -= emit_pos;
        (values, emit_pos, stop)
    }

    /// Fold a finished value into the innermost pending array (cascading as
    /// arrays fill up), or emit it as a completed top-level frame. Returns
    /// `true` when a top-level frame was emitted.
    fn complete(&mut self, mut value: RespValue, out: &mut Vec<RespValue>) -> bool {
        loop {
            let Some(top) = self.stack.last_mut() else {
                out.push(value);
                return true;
            };
            top.items.push(value);
            top.remaining -= 1;
            if top.remaining > 0 {
                return false;
            }
            let finished = self.stack.pop().expect("non-empty stack");
            value = RespValue::Array(finished.items);
        }
    }
}

/// Find the next `\r\n` at or after `from`, scanning forward only.
fn find_crlf(input: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 1 < input.len() {
        if input[i] == b'\r' && input[i + 1] == b'\n' {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recursive one-shot decoder `StreamDecoder` replaced, kept as the
    /// differential oracle: decode one value starting at `*pos`, advancing
    /// `*pos` past it. On `Err` `*pos` is unspecified.
    fn decode_at(input: &[u8], pos: &mut usize, depth: usize) -> Result<RespValue, DecodeStop> {
        if depth > MAX_DEPTH {
            return Err(DecodeStop::Malformed);
        }
        match decode_shallow(input, pos)? {
            Shallow::Value(v) => Ok(v),
            Shallow::ArrayHeader(count) => {
                let mut items = Vec::with_capacity(count.min(64));
                for _ in 0..count {
                    items.push(decode_at(input, pos, depth + 1)?);
                }
                Ok(RespValue::Array(items))
            }
        }
    }

    /// Every complete strict-RESP value at the front of `input`, the bytes
    /// they span, and why decoding stopped — by the oracle.
    fn oracle_pipeline(input: &[u8]) -> (Vec<RespValue>, usize, DecodeStop) {
        let mut values = Vec::new();
        let mut pos = 0usize;
        loop {
            let mut next = pos;
            match decode_at(input, &mut next, 0) {
                Ok(value) => {
                    values.push(value);
                    pos = next;
                }
                Err(stop) => return (values, pos, stop),
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_kinds() {
        let values = vec![
            RespValue::SimpleString("OK".into()),
            RespValue::Error("ERR boom".into()),
            RespValue::Integer(-42),
            RespValue::BulkString("hello world".into()),
            RespValue::Null,
            RespValue::Array(vec![
                RespValue::Integer(1),
                RespValue::BulkString("two".into()),
                RespValue::Array(vec![RespValue::Null]),
            ]),
        ];
        for v in values {
            let bytes = v.encode();
            let (decoded, used) = RespValue::decode(&bytes).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn command_builder_produces_bulk_array() {
        let cmd = RespValue::command(&["GRAPH.QUERY", "social", "MATCH (n) RETURN n"]);
        let encoded = cmd.encode();
        assert!(encoded.starts_with(b"*3\r\n$11\r\nGRAPH.QUERY"));
    }

    #[test]
    fn incomplete_input_is_reported_as_incomplete() {
        assert_eq!(RespValue::decode(b"$10\r\nshort\r\n"), Err(DecodeStop::Incomplete));
        assert_eq!(RespValue::decode(b"*2\r\n:1\r\n"), Err(DecodeStop::Incomplete));
        assert_eq!(RespValue::decode(b""), Err(DecodeStop::Incomplete));
    }

    #[test]
    fn negative_array_count_is_null_not_empty_array() {
        // Regression: `*-1\r\n` (the RESP null array) used to decode as
        // `Array([])`, silently conflating "no reply" with "empty reply".
        let (v, used) = RespValue::decode(b"*-1\r\n").unwrap();
        assert_eq!(v, RespValue::Null);
        assert_eq!(used, 5);
        // Any negative count is null, and an explicit empty array still works.
        assert_eq!(RespValue::decode(b"*-7\r\n").unwrap().0, RespValue::Null);
        assert_eq!(RespValue::decode(b"*0\r\n").unwrap().0, RespValue::Array(vec![]));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Unknown type byte.
        assert!(RespValue::decode(b"?what\r\n").is_err());
        // Non-numeric lengths / counts.
        assert!(RespValue::decode(b"$abc\r\nxyz\r\n").is_err());
        assert!(RespValue::decode(b"*abc\r\n").is_err());
        assert!(RespValue::decode(b":notanint\r\n").is_err());
        // A bulk payload must be terminated by CRLF exactly where declared.
        assert!(RespValue::decode(b"$3\r\nabcdef\r\n").is_err());
        assert!(RespValue::decode(b"$3\r\nabcXY").is_err());
        // Empty line (no type byte).
        assert!(RespValue::decode(b"\r\n").is_err());
    }

    #[test]
    fn hostile_lengths_cannot_overflow_or_allocate() {
        // A declared length near usize::MAX used to feed `start + len + 2`
        // unchecked; it must be rejected, not wrapped.
        let frame = format!("${}\r\n", u64::MAX);
        assert!(RespValue::decode(frame.as_bytes()).is_err());
        let frame = format!("${}\r\n", i64::MAX);
        assert!(RespValue::decode(frame.as_bytes()).is_err());
        // Over the bulk cap (512MB) and over the array cap (1M elements).
        assert!(RespValue::decode(b"$536870913\r\n").is_err());
        assert!(RespValue::decode(b"*1048577\r\n").is_err());
        // Deep nesting is bounded rather than recursing unboundedly.
        let bomb = b"*1\r\n".repeat(100);
        assert!(RespValue::decode(&bomb).is_err());
    }

    #[test]
    fn pipelined_commands_decode_in_one_linear_pass() {
        // A large pipeline: every byte should be visited once.
        let n = 5_000;
        let mut buf = Vec::new();
        for i in 0..n {
            let cmd = RespValue::command(&["GRAPH.QUERY", "g", &format!("RETURN {i}")]);
            buf.extend_from_slice(&cmd.encode());
        }
        // Leave a trailing incomplete frame in the buffer.
        let complete_len = buf.len();
        buf.extend_from_slice(b"*2\r\n$5\r\nhel");

        let (values, consumed, stop) = StreamDecoder::new().feed(&buf);
        assert_eq!(stop, DecodeStop::Incomplete);
        assert_eq!(values.len(), n);
        assert_eq!(consumed, complete_len);
        assert_eq!(values[0], RespValue::command(&["GRAPH.QUERY", "g", "RETURN 0"]));
        let last = RespValue::command(&["GRAPH.QUERY", "g", &format!("RETURN {}", n - 1)]);
        assert_eq!(values[n - 1], last);

        // One-by-one decoding with a caller-tracked offset agrees.
        let mut pos = 0usize;
        let mut count = 0usize;
        while let Ok((v, used)) = RespValue::decode(&buf[pos..]) {
            assert_eq!(v, values[count]);
            pos += used;
            count += 1;
        }
        assert_eq!(count, n);
        assert_eq!(pos, complete_len);
    }

    #[test]
    fn every_proper_prefix_is_incomplete_never_malformed() {
        // The connection loop's contract: while a client is mid-frame — even
        // split exactly between the `\r` and `\n` of a bulk trailer — the
        // strict decoder must answer `Incomplete` (keep buffering), and only
        // the full frame decodes. A `Malformed` here would make the server
        // drop a slow-but-honest client; a spurious `Ok` would misparse.
        let frames: Vec<Vec<u8>> = vec![
            RespValue::command(&["GRAPH.QUERY", "g", "MATCH (n) RETURN n"]).encode(),
            RespValue::BulkString("payload with \r\n inside".into()).encode(),
            RespValue::BulkString(String::new()).encode(), // `$0\r\n\r\n`
            RespValue::Null.encode(),
            RespValue::Integer(-12345).encode(),
            RespValue::SimpleString("OK".into()).encode(),
            RespValue::Array(vec![
                RespValue::Array(vec![RespValue::BulkString("deep".into())]),
                RespValue::Integer(7),
            ])
            .encode(),
        ];
        for frame in frames {
            for cut in 0..frame.len() {
                assert_eq!(
                    RespValue::decode(&frame[..cut]),
                    Err(DecodeStop::Incomplete),
                    "prefix of {} bytes (of {}) misclassified: {:?}",
                    cut,
                    frame.len(),
                    String::from_utf8_lossy(&frame[..cut])
                );
            }
            let (value, used) = RespValue::decode(&frame).unwrap();
            assert_eq!(used, frame.len());
            assert_eq!(value.encode(), frame);
        }
    }

    #[test]
    fn garbage_prefix_is_malformed_on_byte_one() {
        // An inline command / random binary never becomes RESP: the strict
        // decoder flags it from the first byte so the socket loop can close
        // immediately instead of buffering up to the cap.
        assert_eq!(RespValue::decode(b"G"), Err(DecodeStop::Malformed));
        assert_eq!(RespValue::decode(b"GET foo\r\n"), Err(DecodeStop::Malformed));
        assert_eq!(RespValue::decode(b"\x16\x03\x01"), Err(DecodeStop::Malformed));
        // ... including as the element of an array that decoded fine so far.
        assert_eq!(RespValue::decode(b"*2\r\n:1\r\nxyz"), Err(DecodeStop::Malformed));
    }

    #[test]
    fn strict_classification_of_malformed_frames() {
        // Complete-but-invalid header lines are final (`Malformed`), not
        // retryable (`Incomplete`).
        for bad in [
            &b"$abc\r\n"[..],
            b"*abc\r\n",
            b":notanint\r\n",
            b"$3\r\nabcdef\r\n", // trailer where CRLF must sit is `de`
            b"\r\n",
            b"$536870913\r\n", // over the 512MB bulk cap
            b"*1048577\r\n",   // over the 1M element cap
        ] {
            assert_eq!(RespValue::decode(bad), Err(DecodeStop::Malformed));
        }
        let bomb = b"*1\r\n".repeat(100);
        assert_eq!(RespValue::decode(&bomb), Err(DecodeStop::Malformed));
        // A CRLF-free header line is incomplete only up to the 64KB line cap.
        let mut line = vec![b'+'];
        line.resize(1024, b'a');
        assert_eq!(RespValue::decode(&line), Err(DecodeStop::Incomplete));
        line.resize(MAX_LINE_LEN + 2, b'a');
        assert_eq!(RespValue::decode(&line), Err(DecodeStop::Malformed));
    }

    #[test]
    fn feed_reports_the_stop_reason() {
        let feed = |buf: &[u8]| StreamDecoder::for_replies().feed(buf);
        let mut buf = RespValue::command(&["PING"]).encode();
        let clean = buf.len();
        buf.extend_from_slice(b"*1\r\n$4\r\nPI");
        let (values, consumed, stop) = feed(&buf);
        assert_eq!(values.len(), 1);
        assert_eq!(consumed, clean);
        assert_eq!(stop, DecodeStop::Incomplete);

        let mut buf = RespValue::command(&["PING"]).encode();
        buf.extend_from_slice(b"junk");
        let (values, consumed, stop) = feed(&buf);
        assert_eq!((values.len(), consumed), (1, clean));
        assert_eq!(stop, DecodeStop::Malformed);

        // A fully drained buffer stops at the empty (incomplete) prefix.
        let buf = RespValue::command(&["PING"]).encode();
        let (_, consumed, stop) = feed(&buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(stop, DecodeStop::Incomplete);
    }

    #[test]
    fn stream_decoder_matches_oneshot_at_every_chunking() {
        // The resumable decoder must emit exactly what the recursive oracle
        // emits, regardless of how the byte stream is chopped up.
        let mut wire = Vec::new();
        wire.extend_from_slice(&RespValue::command(&["GRAPH.QUERY", "g", "RETURN 1"]).encode());
        wire.extend_from_slice(&RespValue::Null.encode());
        wire.extend_from_slice(
            &RespValue::Array(vec![
                RespValue::Array(vec![RespValue::Integer(-3), RespValue::BulkString("x".into())]),
                RespValue::SimpleString("OK".into()),
                RespValue::Array(vec![]),
            ])
            .encode(),
        );
        wire.extend_from_slice(&RespValue::BulkString("tail with \r\n inside".into()).encode());
        let (expected, expected_len, _) = oracle_pipeline(&wire);
        assert_eq!(expected_len, wire.len());

        for chunk_size in [1usize, 2, 3, 7, 16, wire.len()] {
            let mut decoder = StreamDecoder::new();
            let mut retained: Vec<u8> = Vec::new();
            let mut got = Vec::new();
            for chunk in wire.chunks(chunk_size) {
                retained.extend_from_slice(chunk);
                let (values, consumed, stop) = decoder.feed(&retained);
                assert_ne!(stop, DecodeStop::Malformed, "chunk size {chunk_size}");
                retained.drain(..consumed);
                got.extend(values);
            }
            assert_eq!(got, expected, "chunk size {chunk_size}");
            assert!(retained.is_empty(), "chunk size {chunk_size} left {} bytes", retained.len());
        }
    }

    #[test]
    fn stream_decoder_scans_each_byte_once() {
        // The whole point of the resumable decoder: a large frame arriving
        // in many reads is not rescanned from the start each time. 64k
        // elements in 64-byte chunks would take ~minutes quadratically; the
        // linear path finishes instantly. (A wall-clock bound would flake in
        // CI, so assert the invariant structurally instead: the scan offset
        // never moves backwards across feeds.)
        let n = 64 * 1024;
        let parts: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
        let refs: Vec<&str> = parts.iter().map(|s| s.as_str()).collect();
        let wire = RespValue::command(&refs).encode();
        let mut decoder = StreamDecoder::new();
        let mut retained: Vec<u8> = Vec::new();
        let mut emitted = Vec::new();
        let mut max_seen_pos = 0usize;
        let mut drained = 0usize;
        for chunk in wire.chunks(64) {
            retained.extend_from_slice(chunk);
            let (values, consumed, stop) = decoder.feed(&retained);
            assert_ne!(stop, DecodeStop::Malformed);
            // `pos` (absolute across the whole stream) must be monotone: a
            // rescan would rewind it.
            let absolute_pos = drained + consumed + decoder.scan_offset();
            assert!(absolute_pos >= max_seen_pos, "decoder rescanned earlier bytes");
            max_seen_pos = absolute_pos;
            drained += consumed;
            retained.drain(..consumed);
            emitted.extend(values);
        }
        assert_eq!(emitted.len(), 1);
        let RespValue::Array(items) = &emitted[0] else { panic!() };
        assert_eq!(items.len(), n);
        assert_eq!(items[0], RespValue::BulkString("e0".into()));
        assert_eq!(items[n - 1], RespValue::BulkString(format!("e{}", n - 1)));
    }

    #[test]
    fn stream_decoder_flags_malformed_and_depth_bombs() {
        // Binary garbage (a TLS ClientHello with a newline in range) is not
        // UTF-8, so the inline fallback rejects it too.
        let mut decoder = StreamDecoder::new();
        let (_, _, stop) = decoder.feed(b"\x16\x03\x01\xff\n");
        assert_eq!(stop, DecodeStop::Malformed);

        let mut decoder = StreamDecoder::new();
        let bomb = b"*1\r\n".repeat(100);
        let (_, _, stop) = decoder.feed(&bomb);
        assert_eq!(stop, DecodeStop::Malformed);

        // A malformed element inside a well-formed array is caught mid-frame.
        let mut decoder = StreamDecoder::new();
        let (_, _, stop) = decoder.feed(b"*2\r\n:1\r\n?bad\r\n");
        assert_eq!(stop, DecodeStop::Malformed);
    }

    #[test]
    fn inline_commands_decode_at_top_level() {
        // `PING` typed into netcat arrives as `PING\r\n` — no RESP framing.
        let mut decoder = StreamDecoder::new();
        let (values, consumed, stop) = decoder.feed(b"PING\r\n");
        assert_eq!(values, vec![RespValue::command(&["PING"])]);
        assert_eq!(consumed, 6);
        assert_eq!(stop, DecodeStop::Incomplete);

        // A bare `\n` terminator works too, and inline mixes freely with
        // RESP-framed commands on the same stream.
        let mut wire = b"GET foo\n".to_vec();
        wire.extend_from_slice(&RespValue::command(&["PING"]).encode());
        wire.extend_from_slice(b"GRAPH.QUERY g RETURN 1\r\n");
        let mut decoder = StreamDecoder::new();
        let (values, consumed, _) = decoder.feed(&wire);
        assert_eq!(
            values,
            vec![
                RespValue::command(&["GET", "foo"]),
                RespValue::command(&["PING"]),
                RespValue::command(&["GRAPH.QUERY", "g", "RETURN", "1"]),
            ]
        );
        assert_eq!(consumed, wire.len());

        // An inline line split across reads stays buffered until the newline.
        let mut decoder = StreamDecoder::new();
        let (values, consumed, stop) = decoder.feed(b"PI");
        assert!(values.is_empty());
        assert_eq!((consumed, stop), (0, DecodeStop::Incomplete));
        let (values, consumed, _) = decoder.feed(b"PING\r\n");
        assert_eq!(values, vec![RespValue::command(&["PING"])]);
        assert_eq!(consumed, 6);
    }

    #[test]
    fn inline_blank_lines_are_skipped_not_fatal() {
        // Redis ignores empty inline lines (a newline-happy human in a
        // terminal); they are consumed without emitting a frame.
        let mut decoder = StreamDecoder::new();
        let (values, consumed, stop) = decoder.feed(b"\r\n\nPING\r\n");
        assert_eq!(values, vec![RespValue::command(&["PING"])]);
        assert_eq!(consumed, 9);
        assert_eq!(stop, DecodeStop::Incomplete);
    }

    #[test]
    fn inline_quoting_follows_redis_rules() {
        let split = split_inline_args;
        // Double quotes group words and honour escapes.
        assert_eq!(
            split(r#"GRAPH.QUERY g "MATCH (n) RETURN n""#).unwrap(),
            vec!["GRAPH.QUERY", "g", "MATCH (n) RETURN n"]
        );
        assert_eq!(split(r#"SET k "a\x21b""#).unwrap(), vec!["SET", "k", "a!b"]);
        assert_eq!(split(r#"SET k "a\tb\nc""#).unwrap(), vec!["SET", "k", "a\tb\nc"]);
        // Unknown escapes pass the escaped byte through (Redis behaviour).
        assert_eq!(split(r#"SET k "a\qb""#).unwrap(), vec!["SET", "k", "aqb"]);
        // Single quotes are verbatim except `\'`.
        assert_eq!(split(r#"SET k 'it\'s \n raw'"#).unwrap(), vec!["SET", "k", r"it's \n raw"]);
        // Empty quoted argument and repeated whitespace.
        assert_eq!(split(r#"SET k """#).unwrap(), vec!["SET", "k", ""]);
        assert_eq!(split("  PING\t ").unwrap(), vec!["PING"]);
        // Unbalanced quotes / a closing quote glued to the next word: fatal.
        assert!(split(r#"SET k "unterminated"#).is_none());
        assert!(split(r#"SET k 'unterminated"#).is_none());
        assert!(split(r#"SET k "x"y"#).is_none());
        assert!(split(r#"SET k 'x'y"#).is_none());

        // And through the decoder: unbalanced quotes are Malformed (close the
        // connection), matching Redis' `unbalanced quotes in request`.
        let mut decoder = StreamDecoder::new();
        let (_, _, stop) = decoder.feed(b"SET k \"oops\n");
        assert_eq!(stop, DecodeStop::Malformed);
    }

    #[test]
    fn inline_line_cap_bounds_hostile_clients() {
        // A newline-free flood larger than the line cap can never become a
        // legal inline command: Malformed, not buffered forever.
        let mut decoder = StreamDecoder::new();
        let flood = vec![b'a'; MAX_LINE_LEN + 2];
        let (_, _, stop) = decoder.feed(&flood);
        assert_eq!(stop, DecodeStop::Malformed);
        // Just under the cap it is still a prefix a newline could complete.
        let mut decoder = StreamDecoder::new();
        let below = vec![b'a'; MAX_LINE_LEN];
        let (_, consumed, stop) = decoder.feed(&below);
        assert_eq!((consumed, stop), (0, DecodeStop::Incomplete));
        // An over-long line *with* its newline present is also rejected.
        let mut decoder = StreamDecoder::new();
        let mut long_line = vec![b'a'; MAX_LINE_LEN + 1];
        long_line.extend_from_slice(b"\r\n");
        let (_, _, stop) = decoder.feed(&long_line);
        assert_eq!(stop, DecodeStop::Malformed);
    }

    #[test]
    fn inline_is_not_recognised_inside_array_frames() {
        // The fallback applies only at the top level: a stray non-type byte
        // where an array element should start is still desynchronisation.
        let mut decoder = StreamDecoder::new();
        let (_, _, stop) = decoder.feed(b"*2\r\n:1\r\nGET foo\r\n");
        assert_eq!(stop, DecodeStop::Malformed);
        // Nor anywhere in a reply stream: a server never answers inline.
        let (frames, consumed, stop) = StreamDecoder::for_replies().feed(b"+OK\r\nPING\r\n");
        assert_eq!((frames.len(), consumed, stop), (1, 5, DecodeStop::Malformed));
        assert_eq!(RespValue::decode(b"PING\r\n"), Err(DecodeStop::Malformed));
    }

    #[test]
    fn line_of_exactly_max_line_len_decodes_and_its_prefixes_stay_incomplete() {
        // Boundary pinned by review: a legal maximum-length line must not be
        // condemned while split just before its trailing `\n`.
        let mut frame = vec![b'+'];
        frame.resize(MAX_LINE_LEN, b'a');
        frame.extend_from_slice(b"\r\n");
        let (value, used) = RespValue::decode(&frame).expect("legal maximal line");
        assert_eq!(used, frame.len());
        let RespValue::SimpleString(s) = value else { panic!() };
        assert_eq!(s.len(), MAX_LINE_LEN - 1);
        // Every proper prefix — including through the `\r` — is Incomplete.
        for cut in [frame.len() - 1, frame.len() - 2, MAX_LINE_LEN] {
            assert_eq!(RespValue::decode(&frame[..cut]), Err(DecodeStop::Incomplete));
        }
        // One byte longer (no CRLF in range) is hopeless.
        let mut too_long = vec![b'+'];
        too_long.resize(MAX_LINE_LEN + 3, b'a');
        assert_eq!(RespValue::decode(&too_long), Err(DecodeStop::Malformed));
    }

    #[test]
    fn one_shot_decode_agrees_with_the_recursive_oracle_on_every_prefix() {
        let mut wire = Vec::new();
        for v in [
            RespValue::Array(vec![
                RespValue::Array(vec![RespValue::Integer(i64::MIN), RespValue::Null]),
                RespValue::BulkString("a \r\n b".into()),
                RespValue::Array(vec![]),
            ]),
            RespValue::SimpleString("OK".into()),
            RespValue::Error("ERR boom".into()),
        ] {
            v.encode_into(&mut wire);
        }
        wire.extend_from_slice(b"*1\r\n?");
        for cut in 0..=wire.len() {
            let mut pos = 0usize;
            let expected = decode_at(&wire[..cut], &mut pos, 0).map(|v| (v, pos));
            assert_eq!(RespValue::decode(&wire[..cut]), expected, "prefix of {cut} bytes");
        }
        let (values, consumed, stop) = oracle_pipeline(&wire);
        assert_eq!(StreamDecoder::for_replies().feed(&wire), (values, consumed, stop));
        assert_eq!(stop, DecodeStop::Malformed);
    }

    #[test]
    fn integer_and_length_formatting_matches_format() {
        for i in [0, 1, -1, 9, 10, -10, 99, 100, 12_345, i64::MAX, i64::MIN, i64::MIN + 1] {
            let mut out = Vec::new();
            push_integer(&mut out, i);
            assert_eq!(out, format!(":{i}\r\n").into_bytes());
        }
        for n in [0usize, 1, 9, 10, 19, 20, 999, 1_000, 65_536, usize::MAX] {
            let mut out = Vec::new();
            push_header(&mut out, b'*', n);
            assert_eq!(out, format!("*{n}\r\n").into_bytes());
        }
        let mut out = Vec::new();
        push_bulk(&mut out, "héllo");
        assert_eq!(out, "$6\r\nhéllo\r\n".as_bytes());
    }

    #[test]
    fn line_replies_cannot_smuggle_a_second_reply() {
        // An error or simple string is not length-prefixed: a CRLF inside it
        // would end the reply and leave `+INJECTED…` to answer the client's
        // next command. Both bytes encode as spaces, alone or together.
        let hostile = "ERR graph `x\r\n+INJECTED` does not exist\nbye\r";
        for reply in [RespValue::Error(hostile.into()), RespValue::SimpleString(hostile.into())] {
            let bytes = reply.encode();
            assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), 1, "{reply:?}");
            let (decoded, used) = RespValue::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(
                decoded.to_string().trim_start_matches("(error) "),
                "ERR graph `x  +INJECTED` does not exist bye "
            );
        }
    }

    #[test]
    fn display_renders_human_readable() {
        assert_eq!(RespValue::Integer(5).to_string(), "5");
        assert_eq!(RespValue::Null.to_string(), "(nil)");
        assert_eq!(
            RespValue::Array(vec![RespValue::Integer(1), RespValue::BulkString("a".into())])
                .to_string(),
            "[1, a]"
        );
    }
}
