//! The serve daemon's wire protocols (moved here from `phishinghook-cli`
//! when serving grew its own crate).
//!
//! # Protocol v2 (default): versioned JSONL
//!
//! One JSON object per line in each direction, hand-rolled (this workspace
//! is dependency-free by policy — see the README's dependency section).
//!
//! **Requests** are either a JSON object or, for convenience, a bare hex
//! line (the id then defaults to the 0-based request sequence number).
//! The object form carries *either* raw `bytecode` *or* a 20-byte
//! `address` the daemon resolves through its attached chain source
//! (`eth_getCode`) — the shared [`Target`](phishinghook_models::Target)
//! shape every request surface speaks:
//!
//! ```text
//! {"id":"tx-9","bytecode":"0x6080604052"}
//! {"id":"tx-10","address":"0xd8dA6BF26964aF9D7eEd9e03E53415D37aA96045"}
//! {"proto":"2","id":"tx-11","bytecode":"0x6080"}
//! 6080604052
//! stats
//! ```
//!
//! The optional `proto` request field lets clients pin the version they
//! speak; any value other than `2` is answered with a typed
//! `unsupported proto version` error. The literal line `stats` (see
//! [`STATS_COMMAND`]) is a command, not a bytecode: it returns the daemon's
//! scheduler/cache counters. Responses to address-form requests
//! additionally echo the resolved `"address"` — an additive field;
//! bytecode-request framing is byte-for-byte unchanged.
//!
//! **Responses** echo the id and carry the combined verdict plus one
//! `per_model` entry per underlying model — the field that makes ensembles
//! observable over the wire:
//!
//! ```text
//! {"proto":2,"id":"tx-9","verdict":"phishing","proba":0.934211,"model_version":"hsc-ensemble/v1","per_model":[{"name":"Random Forest","proba":0.941023},{"name":"LightGBM","proba":0.927399}]}
//! {"proto":2,"id":"4","error":"not valid hex bytecode"}
//! {"proto":2,"id":"7","error":"server overloaded: the scheduler queue is full","code":"overloaded"}
//! ```
//!
//! `proto` is always the first field, so clients can dispatch on the
//! protocol version before touching anything else. Probabilities are
//! printed with six decimal places (same precision as protocol v1). The
//! overload response additionally carries `"code":"overloaded"` so clients
//! can distinguish *retry later* from *your request is malformed*.
//!
//! # Protocol v1 (`--proto v1`): bare lines
//!
//! The original ad-hoc framing, kept verbatim for old clients: hex in,
//! `verdict\tproba` out, `error\t…` for malformed lines. Two typed
//! additions ride along without disturbing old parsers: overload is
//! signalled by an `ERR\toverloaded: …` line and the `stats` command
//! answers with a single `stats\tkey=value\t…` line.
//!
//! # Hardening invariants
//!
//! Decoding adversarial input never panics and never disconnects:
//!
//! * request lines longer than [`MAX_LINE_BYTES`] are refused with a typed
//!   error before any parsing;
//! * malformed JSON, nested values, unknown fields and unknown `proto`
//!   versions all produce descriptive per-line error responses;
//! * blank lines are ignored (no response, no sequence number);
//! * interleaved framings degrade gracefully — a JSON object sent to a v1
//!   session is merely invalid hex, a bare hex line sent to a v2 session is
//!   the documented convenience form.

use crate::cache::CacheStats;
use crate::scheduler::StatsSnapshot;
use phishinghook_models::Verdict;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Hard ceiling on one request line, pre-parse (1 MiB). Real deployed
/// bytecode tops out below 24 KiB hex (EIP-170: 24,576 bytes of code), so
/// the ceiling is generous for legitimate traffic while bounding what one
/// line can make the daemon buffer or hash.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The line-protocol command (both framings) answering with scheduler and
/// cache counters instead of a verdict.
pub const STATS_COMMAND: &str = "stats";

/// Which framing a serving loop speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Bare `verdict\tproba` lines (legacy).
    V1,
    /// Versioned JSONL with ids and per-model probabilities.
    #[default]
    V2,
}

impl Protocol {
    /// Parses a `--proto` flag value (`"v1"` / `"1"` / `"v2"` / `"2"`).
    pub fn parse(s: &str) -> Option<Protocol> {
        match s.trim().to_ascii_lowercase().as_str() {
            "v1" | "1" => Some(Protocol::V1),
            "v2" | "2" => Some(Protocol::V2),
            _ => None,
        }
    }
}

/// Pre-parse admission check: refuses lines longer than [`MAX_LINE_BYTES`].
///
/// # Errors
/// The typed error message to send back on the matching response line.
pub fn check_line_len(line: &str) -> Result<(), String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(format!(
            "request line of {} bytes exceeds the {} byte limit",
            line.len(),
            MAX_LINE_BYTES
        ));
    }
    Ok(())
}

/// The still-hex payload of one decoded request line: what the client sent
/// before any validation or resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePayload {
    /// Hex bytecode text (possibly `0x`-prefixed), not yet decoded.
    Bytecode(String),
    /// Hex account address text (possibly `0x`-prefixed), not yet decoded;
    /// resolves to bytecode through the daemon's chain source.
    Address(String),
}

/// One decoded request line: the caller-visible id plus the raw payload
/// still to be validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Echoed in the response (v2); v1 responses are purely positional.
    pub id: String,
    /// What the request asks to score.
    pub payload: WirePayload,
}

/// Decodes one v2 request line: a JSON object with `bytecode` *or*
/// `address` (exactly one required), `id` (optional, defaulting to
/// `fallback_id`) and `proto` (optional, must be version 2) — or a bare
/// hex line (bytecode).
///
/// # Errors
/// A human-readable message describing the malformed line (sent back to the
/// client as an error object; the daemon never disconnects on bad input).
pub fn parse_request_v2(line: &str, fallback_id: &str) -> Result<WireRequest, String> {
    decode_request_v2(line, || fallback_id.to_owned())
}

/// [`parse_request_v2`] with the fallback id built only when the line
/// carries no `id` of its own (the scheduler's per-request path).
pub(crate) fn decode_request_v2(
    line: &str,
    fallback_id: impl FnOnce() -> String,
) -> Result<WireRequest, String> {
    check_line_len(line)?;
    let trimmed = line.trim();
    if !trimmed.starts_with('{') {
        // Bare hex convenience form.
        return Ok(WireRequest {
            id: fallback_id(),
            payload: WirePayload::Bytecode(trimmed.to_owned()),
        });
    }
    let fields = parse_flat_object(trimmed)?;
    let mut id = None;
    let mut hex = None;
    let mut address = None;
    for (key, value) in fields {
        match &*key {
            // Numeric ids (JSON-RPC style) are accepted and echoed as text.
            "id" => id = Some(value.text),
            "bytecode" => {
                if !value.quoted {
                    return Err("field `bytecode` must be a JSON string".to_owned());
                }
                hex = Some(value.text);
            }
            "address" => {
                if !value.quoted {
                    return Err("field `address` must be a JSON string".to_owned());
                }
                address = Some(value.text);
            }
            "proto" => {
                if !matches!(&*value.text, "2" | "v2") {
                    return Err(format!(
                        "unsupported proto version `{}` (this endpoint speaks v2)",
                        value.text
                    ));
                }
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
    }
    let payload = match (hex, address) {
        (Some(_), Some(_)) => {
            return Err(
                "request carries both `bytecode` and `address`; send exactly one".to_owned(),
            )
        }
        (Some(hex), None) => WirePayload::Bytecode(hex.into_owned()),
        (None, Some(addr)) => WirePayload::Address(addr.into_owned()),
        (None, None) => return Err("request object is missing `bytecode` or `address`".to_owned()),
    };
    Ok(WireRequest {
        id: id.map_or_else(fallback_id, Cow::into_owned),
        payload,
    })
}

/// Decodes a hex account address (`0x`-optional, exactly 40 hex digits)
/// into its 20 bytes.
///
/// # Errors
/// The typed per-line error message.
pub fn parse_address(text: &str) -> Result<phishinghook_data::Address, String> {
    let bytes = phishinghook_evm::keccak::from_hex(text.trim())
        .ok_or_else(|| "not a valid hex address".to_owned())?;
    let address: phishinghook_data::Address = bytes
        .try_into()
        .map_err(|_| "address must be exactly 20 bytes of hex".to_owned())?;
    Ok(address)
}

/// Renders an address as the `0x`-prefixed lowercase hex the wire speaks.
pub fn format_address(address: &phishinghook_data::Address) -> String {
    format!("0x{}", phishinghook_evm::keccak::to_hex(address))
}

/// Renders one v2 verdict line (without trailing newline) from scoring
/// results: the shared shape behind both the cold path and the cache-hit
/// path (`names` and `probas` must have equal length). `address` — set for
/// address-form requests — is echoed as an additive field right after the
/// id; bytecode-request responses are rendered byte-for-byte as before.
pub fn render_verdict_v2(
    out: &mut String,
    id: &str,
    address: Option<&phishinghook_data::Address>,
    proba: f64,
    model_version: &str,
    names: &[String],
    probas: &[f64],
) {
    debug_assert_eq!(names.len(), probas.len());
    out.push_str("{\"proto\":2,\"id\":");
    push_json_string(out, id);
    if let Some(address) = address {
        out.push_str(",\"address\":");
        push_json_string(out, &format_address(address));
    }
    let _ = write!(
        out,
        ",\"verdict\":\"{}\",\"proba\":{proba:.6},\"model_version\":",
        Verdict::from_proba(proba)
    );
    push_json_string(out, model_version);
    out.push_str(",\"per_model\":[");
    for (i, (name, p)) in names.iter().zip(probas).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(out, name);
        let _ = write!(out, ",\"proba\":{p:.6}}}");
    }
    out.push_str("]}");
}

/// Renders one v1 verdict line (without trailing newline).
pub fn render_verdict_v1(out: &mut String, proba: f64) {
    let _ = write!(out, "{}\t{proba:.6}", Verdict::from_proba(proba));
}

/// Renders one v2 error line (without trailing newline).
pub fn render_error_v2(out: &mut String, id: &str, message: &str) {
    out.push_str("{\"proto\":2,\"id\":");
    push_json_string(out, id);
    out.push_str(",\"error\":");
    push_json_string(out, message);
    out.push('}');
}

/// Renders one v1 error line (without trailing newline).
pub fn render_error_v1(out: &mut String, message: &str) {
    out.push_str("error\t");
    out.push_str(message);
}

/// The human-readable overload detail shared by both framings.
pub const OVERLOAD_DETAIL: &str = "server overloaded: the scheduler queue is full";

/// Renders the typed v2 overload response: an error object carrying
/// `"code":"overloaded"` so clients can tell *retry later* apart from
/// *malformed request*.
pub fn render_overload_v2(out: &mut String, id: &str) {
    out.push_str("{\"proto\":2,\"id\":");
    push_json_string(out, id);
    out.push_str(",\"error\":");
    push_json_string(out, OVERLOAD_DETAIL);
    out.push_str(",\"code\":\"overloaded\"}");
}

/// Renders the typed v1 overload response (`ERR\t…`, distinct from the
/// `error\t…` malformed-line response old clients already parse).
pub fn render_overload_v1(out: &mut String) {
    out.push_str("ERR\toverloaded: ");
    out.push_str(OVERLOAD_DETAIL);
}

/// The human-readable deadline-exceeded detail shared by both framings.
pub const TIMEOUT_DETAIL: &str = "deadline exceeded before the request was scored";

/// Renders the typed v2 timeout response: an error object carrying
/// `"code":"timeout"` — the request expired in the queue and was answered
/// without being scored (HTTP maps this to `504`).
pub fn render_timeout_v2(out: &mut String, id: &str) {
    out.push_str("{\"proto\":2,\"id\":");
    push_json_string(out, id);
    out.push_str(",\"error\":");
    push_json_string(out, TIMEOUT_DETAIL);
    out.push_str(",\"code\":\"timeout\"}");
}

/// Renders the typed v1 timeout response (`ERR\ttimeout: …`).
pub fn render_timeout_v1(out: &mut String) {
    out.push_str("ERR\ttimeout: ");
    out.push_str(TIMEOUT_DETAIL);
}

/// The human-readable worker-failure detail shared by both framings.
pub const INTERNAL_DETAIL: &str = "internal error: the scoring worker failed on this batch";

/// Renders the typed v2 internal-error response: an error object carrying
/// `"code":"internal"` — a worker panicked while scoring the batch holding
/// this request (HTTP maps this to `500`). The worker is respawned; the
/// request may be retried.
pub fn render_internal_v2(out: &mut String, id: &str) {
    out.push_str("{\"proto\":2,\"id\":");
    push_json_string(out, id);
    out.push_str(",\"error\":");
    push_json_string(out, INTERNAL_DETAIL);
    out.push_str(",\"code\":\"internal\"}");
}

/// Renders the typed v1 internal-error response (`ERR\tinternal: …`).
pub fn render_internal_v1(out: &mut String) {
    out.push_str("ERR\tinternal: ");
    out.push_str(INTERNAL_DETAIL);
}

/// Execution-engine facts the `stats` command reports alongside the
/// counters: whether tree models score through the quantized engine and the
/// widest per-feature bin count of the fitted quantized mirror.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineInfo {
    /// `true` when the quantized scoring path is enabled.
    pub quantize: bool,
    /// Widest per-feature bin count (`None` for non-tree models).
    pub quant_bins: Option<usize>,
}

/// Renders the v2 `stats` command response (without trailing newline).
pub fn render_stats_v2(out: &mut String, stats: &StatsSnapshot, engine: EngineInfo) {
    let s = &stats.scheduler;
    let _ = write!(
        out,
        "{{\"proto\":2,\"stats\":{{\"scheduler\":{{\"submitted\":{},\"scored\":{},\"errors\":{},\"overloads\":{},\"batches\":{},\"connections\":{},\"queue_depth\":{}}},\"cache\":",
        s.submitted, s.scored, s.errors, s.overloads, s.batches, s.connections, s.queue_depth
    );
    match &stats.cache {
        Some(c) => render_cache_stats_json(out, c),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"engine\":{{\"quantize\":{},\"quant_bins\":",
        engine.quantize
    );
    match engine.quant_bins {
        Some(bins) => {
            let _ = write!(out, "{bins}");
        }
        None => out.push_str("null"),
    }
    out.push_str("}}}");
}

fn render_cache_stats_json(out: &mut String, c: &CacheStats) {
    let _ = write!(
        out,
        "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"insertions\":{},\"entries\":{},\"bytes\":{},\"capacity_bytes\":{},\"hit_rate\":{:.6}}}",
        c.hits, c.misses, c.evictions, c.insertions, c.entries, c.bytes, c.capacity_bytes,
        c.hit_rate()
    );
}

/// Renders the v1 `stats` command response: one `stats\tkey=value\t…` line.
/// Engine fields ride at the end so older clients that read a fixed prefix
/// keep parsing.
pub fn render_stats_v1(out: &mut String, stats: &StatsSnapshot, engine: EngineInfo) {
    let s = &stats.scheduler;
    let c = stats.cache.unwrap_or_default();
    let _ = write!(
        out,
        "stats\thits={}\tmisses={}\tevictions={}\tentries={}\tsubmitted={}\tscored={}\terrors={}\toverloads={}\tbatches={}\tquantize={}\tquant_bins={}",
        c.hits,
        c.misses,
        c.evictions,
        c.entries,
        s.submitted,
        s.scored,
        s.errors,
        s.overloads,
        s.batches,
        if engine.quantize { "on" } else { "off" },
        engine.quant_bins.unwrap_or(0),
    );
}

/// Appends `s` as a JSON string literal (quoted, escaped). Runs of bytes
/// that need no escape are copied whole; every escaped byte is ASCII, so
/// the run boundaries always fall on UTF-8 character boundaries.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1F => None,
            _ => continue,
        };
        out.push_str(&s[run..i]);
        match escape {
            Some(short) => out.push_str(short),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// One flat JSON value: its text plus whether it arrived as a quoted
/// string (scalars like `2`, `true`, `null` keep their literal spelling).
#[derive(Debug, Clone, PartialEq, Eq)]
struct JsonValue<'a> {
    text: Cow<'a, str>,
    quoted: bool,
}

/// A byte-offset cursor over one request line. It only ever advances past
/// ASCII bytes or to the end of a run that stops at an ASCII byte, so every
/// offset it slices at is a UTF-8 character boundary.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Consumes `byte` if it is next; `false` (consuming nothing) otherwise.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    /// Consumes a `\uXXXX` escape's four hex digits (the cursor sits just
    /// past the `u`); `None` when any is missing or not hex.
    fn hex4(&mut self) -> Option<u32> {
        let digits = self.text.as_bytes().get(self.pos..self.pos + 4)?;
        let mut code = 0;
        for &d in digits {
            code = code * 16 + (d as char).to_digit(16)?;
        }
        self.pos += 4;
        Some(code)
    }

    /// Consumes a `\uDC00`–`\uDFFF` escape if one is next — the low half of
    /// a surrogate pair — and returns its code unit.
    fn low_surrogate(&mut self) -> Option<u32> {
        let start = self.pos;
        if self.eat(b'\\') && self.eat(b'u') {
            if let Some(low @ 0xDC00..=0xDFFF) = self.hex4() {
                return Some(low);
            }
        }
        self.pos = start;
        None
    }
}

/// Parses a flat JSON object whose values are strings or bare scalars —
/// `{"key":"value","proto":2, …}` — which is everything a v2 *request* may
/// carry. Nested objects/arrays are rejected with a descriptive message.
fn parse_flat_object(text: &str) -> Result<Vec<(Cow<'_, str>, JsonValue<'_>)>, String> {
    let mut cur = Cursor { text, pos: 0 };
    let mut fields = Vec::new();

    cur.skip_ws();
    if !cur.eat(b'{') {
        return Err("request is not a JSON object".to_owned());
    }
    cur.skip_ws();
    if !cur.eat(b'}') {
        loop {
            cur.skip_ws();
            let key = parse_string(&mut cur)?;
            cur.skip_ws();
            if !cur.eat(b':') {
                return Err(format!("expected `:` after key `{key}`"));
            }
            cur.skip_ws();
            let value = parse_value(&mut cur).map_err(|e| format!("field `{key}`: {e}"))?;
            fields.push((key, value));
            cur.skip_ws();
            if cur.eat(b',') {
                continue;
            }
            if cur.eat(b'}') {
                break;
            }
            return Err("expected `,` or `}` in request object".to_owned());
        }
    }
    cur.skip_ws();
    if cur.peek().is_some() {
        return Err("trailing characters after request object".to_owned());
    }
    Ok(fields)
}

/// Parses one flat JSON value: a string literal or a bare scalar (number,
/// `true`, `false`, `null`). Nested containers are rejected.
fn parse_value<'a>(cur: &mut Cursor<'a>) -> Result<JsonValue<'a>, String> {
    match cur.peek() {
        Some(b'"') => Ok(JsonValue {
            text: parse_string(cur)?,
            quoted: true,
        }),
        Some(b'{' | b'[') => Err("nested objects/arrays are not accepted in requests".to_owned()),
        Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b't' | b'f' | b'n') => {
            let start = cur.pos;
            while cur
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.'))
            {
                cur.pos += 1;
            }
            Ok(JsonValue {
                text: Cow::Borrowed(&cur.text[start..cur.pos]),
                quoted: false,
            })
        }
        _ => Err("expected a JSON string or scalar value".to_owned()),
    }
}

/// Parses one JSON string literal, cursor positioned at the opening quote.
/// Each run up to the next `"` or `\` is taken whole: borrowed when the
/// literal has no escapes, copied with one `push_str` per run otherwise.
fn parse_string<'a>(cur: &mut Cursor<'a>) -> Result<Cow<'a, str>, String> {
    if !cur.eat(b'"') {
        return Err("expected a JSON string".to_owned());
    }
    let mut out: Option<String> = None;
    loop {
        let start = cur.pos;
        let Some(len) = cur.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
        else {
            return Err("unterminated string".to_owned());
        };
        cur.pos += len;
        let run = &cur.text[start..cur.pos];
        if cur.eat(b'"') {
            return Ok(match out {
                None => Cow::Borrowed(run),
                Some(mut owned) => {
                    owned.push_str(run);
                    Cow::Owned(owned)
                }
            });
        }
        cur.pos += 1; // the backslash
        let owned = out.get_or_insert_with(String::new);
        owned.push_str(run);
        let escaped = match cur.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{0008}',
            Some(b'f') => '\u{000C}',
            Some(b'u') => {
                cur.pos += 1;
                let code = cur.hex4().ok_or("bad \\u escape")?;
                // A high surrogate followed by a low one is one astral
                // scalar; lone surrogates (and other invalid scalars)
                // degrade to U+FFFD rather than failing the whole request.
                let code = match code {
                    0xD800..=0xDBFF => match cur.low_surrogate() {
                        Some(low) => 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                        None => code,
                    },
                    _ => code,
                };
                owned.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                continue;
            }
            _ => return Err("unknown escape sequence".to_owned()),
        };
        cur.pos += 1;
        owned.push(escaped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerStats;
    use proptest::prelude::*;

    #[test]
    fn protocol_flag_parses() {
        assert_eq!(Protocol::parse("v1"), Some(Protocol::V1));
        assert_eq!(Protocol::parse("2"), Some(Protocol::V2));
        assert_eq!(Protocol::parse("V2"), Some(Protocol::V2));
        assert_eq!(Protocol::parse("v3"), None);
        assert_eq!(Protocol::default(), Protocol::V2);
    }

    fn hex_of(req: &WireRequest) -> &str {
        match &req.payload {
            WirePayload::Bytecode(hex) => hex,
            WirePayload::Address(_) => panic!("expected bytecode payload: {req:?}"),
        }
    }

    #[test]
    fn bare_hex_requests_get_the_fallback_id() {
        let req = parse_request_v2("  0x6080  ", "7").expect("parses");
        assert_eq!(req.id, "7");
        assert_eq!(hex_of(&req), "0x6080");
    }

    #[test]
    fn json_requests_carry_their_own_id() {
        let req = parse_request_v2(r#"{"id":"tx-1","bytecode":"0x60"}"#, "0").expect("parses");
        assert_eq!(req.id, "tx-1");
        assert_eq!(hex_of(&req), "0x60");
        // Field order and whitespace don't matter; id is optional.
        let req = parse_request_v2(r#" { "bytecode" : "60" } "#, "fallback").expect("parses");
        assert_eq!(req.id, "fallback");
        assert_eq!(hex_of(&req), "60");
        // JSON-RPC-style numeric ids are accepted and echoed as text.
        let req = parse_request_v2(r#"{"id":41,"bytecode":"60"}"#, "0").expect("parses");
        assert_eq!(req.id, "41");
    }

    #[test]
    fn address_requests_parse_and_decode() {
        let line = r#"{"id":"a-1","address":"0x0101010101010101010101010101010101010101"}"#;
        let req = parse_request_v2(line, "0").expect("parses");
        assert_eq!(req.id, "a-1");
        let WirePayload::Address(hex) = &req.payload else {
            panic!("expected address payload: {req:?}");
        };
        assert_eq!(parse_address(hex), Ok([1u8; 20]));
        assert_eq!(format_address(&[1u8; 20]), format!("0x{}", "01".repeat(20)));

        // Address validation is strict about length and hex-ness.
        assert!(parse_address("0x01").unwrap_err().contains("20 bytes"));
        assert!(parse_address("zz").unwrap_err().contains("hex"));

        // Exactly one of bytecode/address, as a string.
        assert!(
            parse_request_v2(r#"{"bytecode":"60","address":"0x01"}"#, "0")
                .unwrap_err()
                .contains("exactly one")
        );
        assert!(parse_request_v2(r#"{"address":42}"#, "0")
            .unwrap_err()
            .contains("must be a JSON string"));
    }

    #[test]
    fn request_proto_field_is_validated() {
        assert!(parse_request_v2(r#"{"proto":2,"bytecode":"60"}"#, "0").is_ok());
        assert!(parse_request_v2(r#"{"proto":"2","bytecode":"60"}"#, "0").is_ok());
        assert!(parse_request_v2(r#"{"proto":"v2","bytecode":"60"}"#, "0").is_ok());
        for bad in [
            r#"{"proto":1,"bytecode":"60"}"#,
            r#"{"proto":"v1","bytecode":"60"}"#,
            r#"{"proto":3,"bytecode":"60"}"#,
            r#"{"proto":null,"bytecode":"60"}"#,
        ] {
            let err = parse_request_v2(bad, "0").unwrap_err();
            assert!(err.contains("unsupported proto version"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_json_requests_are_descriptive_errors() {
        assert!(parse_request_v2(r#"{"bytecode":}"#, "0").is_err());
        assert!(parse_request_v2(r#"{"id":"x"}"#, "0")
            .unwrap_err()
            .contains("missing `bytecode`"));
        assert!(parse_request_v2(r#"{"surprise":"y","bytecode":"60"}"#, "0")
            .unwrap_err()
            .contains("unknown request field"));
        assert!(parse_request_v2(r#"{"bytecode":42}"#, "0")
            .unwrap_err()
            .contains("must be a JSON string"));
        assert!(parse_request_v2(r#"{"bytecode":{"hex":"60"}}"#, "0")
            .unwrap_err()
            .contains("nested"));
        assert!(parse_request_v2(r#"{"bytecode":["60"]}"#, "0")
            .unwrap_err()
            .contains("nested"));
        assert!(parse_request_v2(r#"{"bytecode":"60"} extra"#, "0")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_request_v2(r#"{"bytecode":"60""#, "0").is_err());
        assert!(parse_request_v2("{", "0").is_err());
        assert!(parse_request_v2(r#"{"a"}"#, "0").is_err());
    }

    #[test]
    fn oversized_lines_are_refused_before_parsing() {
        let line = "6".repeat(MAX_LINE_BYTES + 2);
        let err = parse_request_v2(&line, "0").unwrap_err();
        assert!(err.contains("byte limit"), "{err}");
        assert!(check_line_len(&line).is_err());
        assert!(check_line_len(&"6".repeat(MAX_LINE_BYTES)).is_ok());
    }

    #[test]
    fn string_escapes_round_trip() {
        let req = parse_request_v2(r#"{"id":"a\"b\\c\ndA","bytecode":"60"}"#, "0").expect("parses");
        assert_eq!(req.id, "a\"b\\c\ndA");
        let mut line = String::new();
        render_error_v2(&mut line, &req.id, "nope");
        assert_eq!(line, r#"{"proto":2,"id":"a\"b\\c\ndA","error":"nope"}"#);
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        let req =
            parse_request_v2(r#"{"id":"\ud83d\ude00","bytecode":"60"}"#, "0").expect("parses");
        assert_eq!(req.id, "\u{1F600}");
        // Either hex case, and the pair may sit between other text.
        let req =
            parse_request_v2(r#"{"id":"a\uD834\uDD1Eb","bytecode":"60"}"#, "0").expect("parses");
        assert_eq!(req.id, "a\u{1D11E}b");
        // Lone halves still degrade to U+FFFD, one per escape.
        for (escaped, decoded) in [
            (r"\ud83d", "\u{FFFD}"),
            (r"\ude00", "\u{FFFD}"),
            (r"\ud83dx", "\u{FFFD}x"),
            (r"\ude00\ud83d", "\u{FFFD}\u{FFFD}"),
            (r"\ud83d\ud83d\ude00", "\u{FFFD}\u{1F600}"),
            (r"\ud83d\n", "\u{FFFD}\n"),
            (r"\ud83d\u0041", "\u{FFFD}A"),
        ] {
            let line = format!(r#"{{"id":"{escaped}","bytecode":"60"}}"#);
            let req = parse_request_v2(&line, "0").expect("parses");
            assert_eq!(req.id, decoded, "{line}");
        }
        // A malformed escape after a high surrogate is still refused.
        let err = parse_request_v2(r#"{"id":"\ud83d\uzzzz","bytecode":"60"}"#, "0").unwrap_err();
        assert!(err.contains("bad \\u escape"), "{err}");
    }

    #[test]
    fn verdict_rendering_is_stable() {
        let mut line = String::new();
        render_verdict_v2(
            &mut line,
            "tx-9",
            None,
            0.75,
            "hsc-ensemble/v1",
            &["Random Forest".to_owned(), "LightGBM".to_owned()],
            &[0.8, 0.7],
        );
        assert_eq!(
            line,
            "{\"proto\":2,\"id\":\"tx-9\",\"verdict\":\"phishing\",\"proba\":0.750000,\
             \"model_version\":\"hsc-ensemble/v1\",\"per_model\":[\
             {\"name\":\"Random Forest\",\"proba\":0.800000},\
             {\"name\":\"LightGBM\",\"proba\":0.700000}]}"
        );
        assert!(line.starts_with("{\"proto\":2,"));
        let mut v1 = String::new();
        render_verdict_v1(&mut v1, 0.25);
        assert_eq!(v1, "benign\t0.250000");
    }

    #[test]
    fn address_echo_is_additive_and_after_the_id() {
        // Same scoring results, with and without the echoed address: the
        // address form only *inserts* one field right after the id —
        // bytecode-request framing is untouched.
        let names = ["Random Forest".to_owned()];
        let mut bare = String::new();
        render_verdict_v2(
            &mut bare,
            "tx-9",
            None,
            0.75,
            "hsc-detector/v1",
            &names,
            &[0.75],
        );
        let mut echoed = String::new();
        render_verdict_v2(
            &mut echoed,
            "tx-9",
            Some(&[0xAB; 20]),
            0.75,
            "hsc-detector/v1",
            &names,
            &[0.75],
        );
        let inserted = format!(",\"address\":\"0x{}\"", "ab".repeat(20));
        let expected = bare.replacen("\"id\":\"tx-9\"", &format!("\"id\":\"tx-9\"{inserted}"), 1);
        assert_eq!(echoed, expected);
    }

    #[test]
    fn overload_rendering_is_typed_in_both_framings() {
        let mut v2 = String::new();
        render_overload_v2(&mut v2, "9");
        assert!(
            v2.starts_with("{\"proto\":2,\"id\":\"9\",\"error\":"),
            "{v2}"
        );
        assert!(v2.ends_with(",\"code\":\"overloaded\"}"), "{v2}");
        let mut v1 = String::new();
        render_overload_v1(&mut v1);
        assert!(v1.starts_with("ERR\toverloaded: "), "{v1}");
    }

    #[test]
    fn timeout_and_internal_rendering_is_typed_in_both_framings() {
        let mut v2 = String::new();
        render_timeout_v2(&mut v2, "late-1");
        assert!(
            v2.starts_with("{\"proto\":2,\"id\":\"late-1\",\"error\":"),
            "{v2}"
        );
        assert!(v2.ends_with(",\"code\":\"timeout\"}"), "{v2}");
        let mut v1 = String::new();
        render_timeout_v1(&mut v1);
        assert!(v1.starts_with("ERR\ttimeout: "), "{v1}");

        let mut v2 = String::new();
        render_internal_v2(&mut v2, "boom");
        assert!(v2.ends_with(",\"code\":\"internal\"}"), "{v2}");
        assert!(v2.contains(INTERNAL_DETAIL), "{v2}");
        let mut v1 = String::new();
        render_internal_v1(&mut v1);
        assert!(v1.starts_with("ERR\tinternal: "), "{v1}");
    }

    #[test]
    fn stats_rendering_covers_both_framings() {
        let snapshot = StatsSnapshot {
            scheduler: SchedulerStats {
                submitted: 10,
                scored: 8,
                errors: 1,
                overloads: 1,
                batches: 3,
                connections: 2,
                queue_depth: 0,
            },
            cache: Some(CacheStats {
                hits: 4,
                misses: 6,
                evictions: 1,
                insertions: 6,
                entries: 5,
                bytes: 680,
                capacity_bytes: 1024,
            }),
        };
        let engine = EngineInfo {
            quantize: true,
            quant_bins: Some(256),
        };
        let mut v2 = String::new();
        render_stats_v2(&mut v2, &snapshot, engine);
        assert!(
            v2.starts_with("{\"proto\":2,\"stats\":{\"scheduler\":{"),
            "{v2}"
        );
        assert!(v2.contains("\"submitted\":10"), "{v2}");
        assert!(v2.contains("\"cache\":{\"hits\":4,\"misses\":6"), "{v2}");
        assert!(v2.contains("\"hit_rate\":0.400000"), "{v2}");
        assert!(
            v2.ends_with(",\"engine\":{\"quantize\":true,\"quant_bins\":256}}}"),
            "{v2}"
        );
        let mut v1 = String::new();
        render_stats_v1(&mut v1, &snapshot, engine);
        assert!(v1.starts_with("stats\thits=4\tmisses=6"), "{v1}");
        assert!(v1.contains("scored=8"), "{v1}");
        assert!(v1.ends_with("\tquantize=on\tquant_bins=256"), "{v1}");

        // Cache disabled: v2 renders null, v1 renders zeros. A model with
        // no quantized mirror reports null/0 bins.
        let disabled = StatsSnapshot {
            cache: None,
            ..snapshot
        };
        let no_mirror = EngineInfo {
            quantize: false,
            quant_bins: None,
        };
        let mut v2 = String::new();
        render_stats_v2(&mut v2, &disabled, no_mirror);
        assert!(v2.contains("\"cache\":null"), "{v2}");
        assert!(
            v2.ends_with(",\"engine\":{\"quantize\":false,\"quant_bins\":null}}}"),
            "{v2}"
        );
        let mut v1 = String::new();
        render_stats_v1(&mut v1, &disabled, no_mirror);
        assert!(v1.contains("hits=0"), "{v1}");
        assert!(v1.ends_with("\tquantize=off\tquant_bins=0"), "{v1}");
    }

    /// Maps one random draw onto characters JSON strings have to handle:
    /// quotes, backslashes, ASCII controls, plain ASCII and 2-, 3- and
    /// 4-byte UTF-8 (the last needing a surrogate pair once `\u`-escaped).
    fn tricky_char(draw: u32) -> char {
        let pick = draw / 8;
        let code = match draw % 8 {
            0 => u32::from(b'"'),
            1 => u32::from(b'\\'),
            2 => pick % 0x20,
            3 | 4 => 0x20 + pick % 0x5F,
            5 => 0x80 + pick % 0x780,
            6 => 0x800 + pick % 0xF800,
            _ => 0x10000 + pick % 0x100000,
        };
        char::from_u32(code).unwrap_or('\u{FFFD}')
    }

    /// Encodes `s` as a JSON string literal with every character
    /// `\u`-escaped (surrogate pairs for astral characters), alternating
    /// hex case.
    fn fully_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for (i, unit) in s.encode_utf16().enumerate() {
            if i % 2 == 0 {
                let _ = write!(out, "\\u{unit:04x}");
            } else {
                let _ = write!(out, "\\u{unit:04X}");
            }
        }
        out.push('"');
        out
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_v2_parser(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // The decoder fronts a public socket: any byte soup that
            // happens to be UTF-8 must come back as a typed error or a
            // request — never a panic.
            if let Ok(line) = std::str::from_utf8(&bytes) {
                let _ = parse_request_v2(line, "0");
            }
        }

        #[test]
        fn ids_round_trip_through_both_encodings(
            draws in proptest::collection::vec(any::<u32>(), 0..24),
            code in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let id: String = draws.into_iter().map(tricky_char).collect();
            let mut rendered = String::new();
            push_json_string(&mut rendered, &id);
            for literal in [rendered, fully_escaped(&id)] {
                let line = format!(r#"{{"id":{literal},"bytecode":"60"}}"#);
                let req = parse_request_v2(&line, "fallback").expect("parses");
                prop_assert_eq!(&req.id, &id, "{}", line);
            }

            // A `\u`-escaped bytecode value decodes to the same bytes as
            // its plain spelling.
            let hex = format!("0x{}", phishinghook_evm::keccak::to_hex(&code));
            let line = format!(r#"{{"bytecode":{}}}"#, fully_escaped(&hex));
            let req = parse_request_v2(&line, "0").expect("parses");
            prop_assert_eq!(hex_of(&req), hex.as_str());
            prop_assert_eq!(phishinghook_evm::keccak::from_hex(hex_of(&req)), Some(code));
        }

        #[test]
        fn mutated_valid_v2_requests_never_panic(pos in 0usize..64, byte in any::<u8>()) {
            // Single-byte corruption of a well-formed request: the parser
            // either still accepts it or rejects it typed.
            let mut line = br#"{"id":"probe","bytecode":"0x6001600255"}"#.to_vec();
            let i = pos % line.len();
            line[i] = byte;
            if let Ok(text) = std::str::from_utf8(&line) {
                if let Err(detail) = parse_request_v2(text, "7") {
                    prop_assert!(!detail.is_empty());
                }
            }
        }
    }
}
