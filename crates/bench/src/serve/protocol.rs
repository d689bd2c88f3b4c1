//! The `exp serve` JSON-lines wire protocol (DESIGN.md §9).
//!
//! Every request is one JSON object per line; every response is one or
//! more JSON lines. The four operations:
//!
//! * `{"op": "submit", "cells": [CELL, ...]}` — the server streams back,
//!   **in submission order**, one line per cell: either a raw
//!   `localavg-sweep/v1` cell object (exactly the bytes
//!   [`crate::emit::cell_json`] produces — byte-identical to a sweep of
//!   the same tuple) or `{"error": "...", "index": I}`; the batch is
//!   terminated by `{"done": true, "cells": N, "errors": K}`.
//! * `{"op": "stats"}` — one `{"stats": {...}}` line with the cache,
//!   execution, and workspace-reuse counters.
//! * `{"op": "ping"}` — one `{"pong": true}` line (readiness probe).
//! * `{"op": "shutdown"}` — one `{"ok": true}` line, then the daemon
//!   stops accepting and exits.
//!
//! A `CELL` object carries the canonical tuple of
//! [`CellKey`]: `{"algorithm": "mis/luby", "generator": "regular/4",
//! "n": 64, "seed": 0, "params": {"mark-factor": "0.5"}, "policy":
//! "full"}` — `seed`, `params`, and `policy` are optional (defaults: 0,
//! none, `full`). Params may be JSON strings or numbers; both normalize
//! to the string-keyed form the algorithm registry validates.
//!
//! The parser below is a deliberately small recursive-descent JSON
//! reader (the workspace is std-only); it accepts standard JSON nested at
//! most 64 arrays/objects deep and is shared by the server, the
//! `exp submit` client, and the tests. The server reads request lines of
//! at most [`MAX_REQUEST_BYTES`].

use crate::cell::CellKey;
use crate::emit::json_escape;
use localavg_core::algo::TranscriptPolicy;
use std::fmt::Write as _;

/// The longest request line the daemon reads, in bytes before its
/// `'\n'`. A longer line gets one `{"error": …}` line and its connection
/// is closed, so a client that never sends a newline cannot grow a
/// handler's buffer without bound. The largest line the workspace's own
/// client sends, `exp submit --scale full`, is far below it (DESIGN.md
/// §9).
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// The deepest array/object nesting [`Json::parse`] accepts. Requests
/// nest 4 deep; the cap bounds the parser's recursion, so a hostile line
/// of `[`s is an error instead of a stack overflow that would abort the
/// daemon.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`, like every emitted metric).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset of the
    /// first violation, including nesting deeper than 64 levels.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes: every token but a string's characters is ASCII.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(format!("unexpected `{}` at byte {}", b as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses one array or object a level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// Parses a number by JSON's grammar, `-?(0|[1-9][0-9]*)(.[0-9]+)?
    /// ([eE][+-]?[0-9]+)?`, to a finite `f64`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let invalid = |p: &Self| {
            let text = std::str::from_utf8(&p.bytes[start..p.pos]).expect("ascii");
            format!("invalid number `{text}` at byte {start}")
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(invalid(self)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid(self));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let x: f64 = text.parse().expect("the grammar is a subset of Rust's");
        if x.is_finite() {
            Ok(Json::Num(x))
        } else {
            Err(format!("number `{text}` at byte {start} is out of range"))
        }
    }

    /// Consumes a run of ASCII digits; returns how many.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// The 4 hex digits after the `u` at `pos` of a `\u` escape; leaves
    /// `pos` on the last digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        let hex = std::str::from_utf8(digits).expect("ascii");
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let at = self.pos - 1;
                            let lone = || format!("lone surrogate escape at byte {at}");
                            let mut code = self.hex4()?;
                            // A high surrogate and the low one in the
                            // `\u` escape right after it encode one scalar.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(lone());
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(char::from_u32(code).ok_or_else(lone)?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!(
                        "unescaped control character in string at byte {}",
                        self.pos
                    ))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. The input is a `&str`, so
                    // decoding one `char` at `pos` needs no re-validation
                    // of the rest of the line (which made this quadratic).
                    let c = self
                        .src
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or("invalid UTF-8 in string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or answer from cache) a batch of cells, streaming results in
    /// submission order.
    Submit(Vec<CellKey>),
    /// Report the service counters.
    Stats,
    /// Liveness/readiness probe.
    Ping,
    /// Stop the daemon.
    Shutdown,
}

/// Renders a JSON number the same way the emitters do (used for param
/// values arriving as numbers).
fn num_string(x: f64) -> String {
    format!("{x}")
}

/// Parses one `CELL` object (see the module docs) into a canonical
/// [`CellKey`].
///
/// # Errors
///
/// Returns a human-readable message on missing/ill-typed fields or an
/// unknown policy label. Registry keys are validated later, at
/// execution, so the error can carry a closest-match suggestion.
pub fn parse_cell(v: &Json) -> Result<CellKey, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("cell must be a JSON object".to_string());
    }
    let algo = v
        .get("algorithm")
        .and_then(Json::as_str)
        .ok_or("cell is missing a string `algorithm` field")?;
    let family = v
        .get("generator")
        .and_then(Json::as_str)
        .ok_or("cell is missing a string `generator` field")?;
    let n = v
        .get("n")
        .and_then(Json::as_u64)
        .ok_or("cell is missing a non-negative integer `n` field")? as usize;
    let seed = match v.get("seed") {
        None => 0,
        Some(s) => s.as_u64().ok_or("`seed` must be a non-negative integer")?,
    };
    let policy = match v.get("policy") {
        None => TranscriptPolicy::Full,
        Some(p) => {
            let label = p.as_str().ok_or("`policy` must be a string")?;
            TranscriptPolicy::parse(label).ok_or_else(|| {
                format!("unknown policy `{label}` (expected `full`, `completions`, or `none`)")
            })?
        }
    };
    let mut params = Vec::new();
    if let Some(p) = v.get("params") {
        let Json::Obj(fields) = p else {
            return Err("`params` must be an object of key → string/number".to_string());
        };
        for (k, pv) in fields {
            let value = match pv {
                Json::Str(s) => s.clone(),
                Json::Num(x) => num_string(*x),
                _ => return Err(format!("param `{k}` must be a string or number")),
            };
            params.push((k.clone(), value));
        }
    }
    Ok(CellKey::new(family, n, seed, algo)
        .with_params(params)
        .with_policy(policy))
}

/// Longest prefix of an unknown `op` that its error message echoes.
const OP_ECHO_BYTES: usize = 64;

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, unknown ops, or
/// malformed cells (the server answers with an `{"error": ...}` line).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request is missing a string `op` field")?;
    match op {
        "submit" => {
            let cells = v
                .get("cells")
                .and_then(Json::as_array)
                .ok_or("`submit` needs a `cells` array")?;
            let mut keys = Vec::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                keys.push(parse_cell(c).map_err(|e| format!("cell {i}: {e}"))?);
            }
            Ok(Request::Submit(keys))
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => {
            // Echo at most `OP_ECHO_BYTES` of an unknown op back.
            let cut = other.floor_char_boundary(OP_ECHO_BYTES);
            let more = if cut < other.len() { "…" } else { "" };
            Err(format!(
                "unknown op `{}{more}` (expected `submit`, `stats`, `ping`, or `shutdown`)",
                &other[..cut]
            ))
        }
    }
}

/// Renders one `CELL` object for a submit request — the client-side
/// inverse of [`parse_cell`].
pub fn cell_request_json(key: &CellKey) -> String {
    let mut out = format!(
        "{{\"algorithm\": \"{}\", \"generator\": \"{}\", \"n\": {}, \"seed\": {}",
        json_escape(&key.algo),
        json_escape(&key.family),
        key.n,
        key.seed
    );
    if !key.params.is_empty() {
        out.push_str(", \"params\": {");
        for (i, (k, v)) in key.params.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": \"{}\"",
                if i > 0 { ", " } else { "" },
                json_escape(k),
                json_escape(v)
            );
        }
        out.push('}');
    }
    let _ = write!(out, ", \"policy\": \"{}\"}}", key.policy.label());
    out
}

/// Renders a whole submit request line from a batch of cells.
pub fn submit_request_json(cells: &[CellKey]) -> String {
    let body: Vec<String> = cells.iter().map(cell_request_json).collect();
    format!("{{\"op\": \"submit\", \"cells\": [{}]}}", body.join(", "))
}

/// The counters a `stats` response reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Cells answered from the cache (including coalesced waiters).
    pub hits: u64,
    /// Cells that had to execute (cache misses that became leaders).
    pub misses: u64,
    /// Cache entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Configured cache capacity.
    pub capacity: usize,
    /// Algorithm executions actually performed (`== misses` minus
    /// failed runs; resubmitting a served batch must leave this flat).
    pub executed: u64,
    /// Cells answered over all submissions (hits + executions + errors).
    pub served: u64,
    /// Cells that answered with an error line.
    pub errors: u64,
    /// Worker-pool workspace runs (every execution passes through a
    /// per-worker [`localavg_sim::workspace::Workspace`]).
    pub workspace_runs: u64,
    /// Workspace runs that reused an already-allocated arena.
    pub workspace_reuses: u64,
    /// Worker threads in the pool.
    pub threads: usize,
    /// The master seed the daemon derives every cell seed from.
    pub master_seed: u64,
}

/// Renders the `{"stats": {...}}` response line.
pub fn stats_line(s: &ServeStats) -> String {
    format!(
        "{{\"stats\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}, \
         \"capacity\": {}, \"executed\": {}, \"served\": {}, \"errors\": {}, \
         \"workspace_runs\": {}, \"workspace_reuses\": {}, \"threads\": {}, \
         \"master_seed\": {}}}}}",
        s.hits,
        s.misses,
        s.evictions,
        s.entries,
        s.capacity,
        s.executed,
        s.served,
        s.errors,
        s.workspace_runs,
        s.workspace_reuses,
        s.threads,
        s.master_seed
    )
}

/// Parses a `{"stats": {...}}` line back into [`ServeStats`] — the
/// client-side inverse of [`stats_line`], used by `exp submit --stats`
/// and the tests.
pub fn parse_stats(line: &str) -> Option<ServeStats> {
    let v = Json::parse(line).ok()?;
    let s = v.get("stats")?;
    Some(ServeStats {
        hits: s.get("hits")?.as_u64()?,
        misses: s.get("misses")?.as_u64()?,
        evictions: s.get("evictions")?.as_u64()?,
        entries: s.get("entries")?.as_u64()? as usize,
        capacity: s.get("capacity")?.as_u64()? as usize,
        executed: s.get("executed")?.as_u64()?,
        served: s.get("served")?.as_u64()?,
        errors: s.get("errors")?.as_u64()?,
        workspace_runs: s.get("workspace_runs")?.as_u64()?,
        workspace_reuses: s.get("workspace_reuses")?.as_u64()?,
        threads: s.get("threads")?.as_u64()? as usize,
        master_seed: s.get("master_seed")?.as_u64()?,
    })
}

/// Renders a per-cell or per-request error line.
pub fn error_line(index: Option<usize>, message: &str) -> String {
    match index {
        Some(i) => format!(
            "{{\"error\": \"{}\", \"index\": {i}}}",
            json_escape(message)
        ),
        None => format!("{{\"error\": \"{}\"}}", json_escape(message)),
    }
}

/// Renders the batch-terminating line.
pub fn done_line(cells: usize, errors: usize) -> String {
    format!("{{\"done\": true, \"cells\": {cells}, \"errors\": {errors}}}")
}

/// Renders the ping response.
pub fn pong_line() -> String {
    "{\"pong\": true}".to_string()
}

/// Renders the shutdown acknowledgement.
pub fn ok_line() -> String {
    "{\"ok\": true}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use localavg_graph::rng::Rng;

    #[test]
    fn json_parses_scalars_and_nesting() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        assert_eq!(
            Json::parse("\"a\\\"b\\u0041\"").unwrap(),
            Json::Str("a\"bA".to_string())
        );
        let v = Json::parse(r#"{"a": [1, {"b": "c"}], "d": false}"#).unwrap();
        assert_eq!(v.get("d"), Some(&Json::Bool(false)));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("c"));
    }

    #[test]
    fn json_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn json_unicode_escapes_take_exactly_four_hex_digits_and_pair_surrogates() {
        let parse = |s: &str| Json::parse(s).map(|j| j.as_str().map(str::to_string));
        assert_eq!(parse(r#""\u0041\u00e9""#), Ok(Some("Aé".to_string())));
        assert_eq!(
            parse(r#""\ud83d\ude00""#),
            Ok(Some("\u{1F600}".to_string()))
        );
        assert_eq!(
            parse(r#""\uD83D\uDE00!""#),
            Ok(Some("\u{1F600}!".to_string()))
        );
        // `u32::from_str_radix` alone would read `+041` as 0x41.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u00g1""#,
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn json_strings_reject_raw_control_characters() {
        assert!(Json::parse("\"a\tb\"").is_err());
        assert!(Json::parse("\"a\nb\"").is_err());
        assert_eq!(
            Json::parse(r#""a\tb""#).unwrap(),
            Json::Str("a\tb".to_string())
        );
    }

    #[test]
    fn json_numbers_follow_the_json_grammar_and_stay_finite() {
        for (text, x) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-2.5e1", -25.0),
            ("1E+2", 100.0),
            ("1e-2", 0.01),
            ("1e-400", 0.0),
        ] {
            assert_eq!(Json::parse(text), Ok(Json::Num(x)), "`{text}`");
        }
        for bad in [
            "1.", "01", "-01", "-.5", ".5", "+1", "-", "1e", "1e+", "1.e5", "0x10", "1e400",
            "-1e400", "[1.]", "[01]",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
        assert!(Json::parse("1e400").unwrap_err().contains("out of range"));
    }

    #[test]
    fn json_nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 64"), "got: {err}");
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "got: {err}");
        // Deep enough to overflow a default thread stack without the cap.
        let deep = format!(r#"{{"op": "submit", "cells": {}"#, "[".repeat(100_000));
        let err = parse_request(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "got: {err}");
        let objects = r#"{"a": "#.repeat(100_000);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // Quadratic decoding took ~30 s on this input; linear takes ms.
        let payload = "aé€𝄞".repeat(1 << 18);
        assert!(payload.len() >= 1 << 20);
        let line = format!("{{\"op\": \"{payload}\"}}");
        let started = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        let took = started.elapsed();
        assert_eq!(v.get("op").and_then(Json::as_str), Some(payload.as_str()));
        assert!(took.as_secs() < 5, "1 MiB string took {took:?}");
        // The error echoes a bounded, char-aligned prefix of the op.
        let err = parse_request(&line).unwrap_err();
        let echoed = err
            .strip_prefix("unknown op `")
            .and_then(|rest| rest.split_once('`'))
            .map(|(op, _)| op)
            .unwrap();
        assert!(echoed.len() <= OP_ECHO_BYTES + "…".len(), "{err}");
        assert!(payload.starts_with(echoed.trim_end_matches('…')));
        assert!(echoed.ends_with('…'));
        let short = parse_request(r#"{"op": "frobnicate"}"#).unwrap_err();
        assert!(short.starts_with("unknown op `frobnicate` ("), "{short}");
    }

    #[test]
    fn cell_round_trips_through_request_json() {
        let key = CellKey::new("regular/4", 64, 3, "mis/luby")
            .with_params(vec![("mark-factor".into(), "0.5".into())])
            .with_policy(TranscriptPolicy::CompletionsOnly);
        let json = cell_request_json(&key);
        let parsed = parse_cell(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(parsed, key);
        assert_eq!(parsed.canonical(), key.canonical());
    }

    #[test]
    fn cell_defaults_and_numeric_params() {
        let v = Json::parse(
            r#"{"algorithm": "mis/luby", "generator": "path", "n": 16, "params": {"mark-factor": 0.5}}"#,
        )
        .unwrap();
        let key = parse_cell(&v).unwrap();
        assert_eq!(key.seed, 0);
        assert_eq!(key.policy, TranscriptPolicy::Full);
        assert_eq!(
            key.params,
            vec![("mark-factor".to_string(), "0.5".to_string())]
        );
    }

    #[test]
    fn malformed_cells_are_rejected_with_context() {
        let missing = Json::parse(r#"{"generator": "path", "n": 16}"#).unwrap();
        assert!(parse_cell(&missing).unwrap_err().contains("algorithm"));
        let bad_policy =
            Json::parse(r#"{"algorithm": "a", "generator": "g", "n": 1, "policy": "fast"}"#)
                .unwrap();
        assert!(parse_cell(&bad_policy).unwrap_err().contains("policy"));
        let err = parse_request(r#"{"op": "submit", "cells": [{"n": 1}]}"#).unwrap_err();
        assert!(err.contains("cell 0"), "got: {err}");
    }

    #[test]
    fn requests_parse_every_op() {
        assert_eq!(parse_request(r#"{"op": "stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        let sub = parse_request(
            r#"{"op": "submit", "cells": [{"algorithm": "mis/luby", "generator": "path", "n": 8}]}"#,
        )
        .unwrap();
        match sub {
            Request::Submit(cells) => {
                assert_eq!(cells.len(), 1);
                assert_eq!(cells[0].algo, "mis/luby");
            }
            other => panic!("expected Submit, got {other:?}"),
        }
        assert!(parse_request(r#"{"op": "frobnicate"}"#).is_err());
        assert!(parse_request("not json").is_err());
    }

    #[test]
    fn stats_round_trip() {
        let s = ServeStats {
            hits: 10,
            misses: 4,
            evictions: 1,
            entries: 3,
            capacity: 8,
            executed: 4,
            served: 14,
            errors: 0,
            workspace_runs: 4,
            workspace_reuses: 2,
            threads: 2,
            master_seed: 2022,
        };
        assert_eq!(parse_stats(&stats_line(&s)), Some(s));
        assert_eq!(parse_stats("{\"pong\": true}"), None);
    }

    /// Parses `bytes` as the server would see them (invalid UTF-8
    /// replaced, so every input reaches the parser) and checks that
    /// `parse_request` returns without panicking, that an error renders
    /// through [`error_line`] as strict JSON carrying the message
    /// verbatim, and that an accepted batch survives a round trip
    /// through [`submit_request_json`].
    fn parse_hostile(bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        let parsed = std::panic::catch_unwind(|| parse_request(&text))
            .unwrap_or_else(|_| panic!("parse_request panicked on {bytes:?}"));
        match parsed {
            Err(message) => {
                let line = error_line(None, &message);
                let v = Json::parse(&line)
                    .unwrap_or_else(|e| panic!("error line {line:?} is not JSON: {e}"));
                assert_eq!(
                    v.get("error").and_then(Json::as_str),
                    Some(message.as_str())
                );
            }
            Ok(Request::Submit(cells)) => {
                let again = parse_request(&submit_request_json(&cells));
                assert_eq!(again, Ok(Request::Submit(cells)), "from {text:?}");
            }
            Ok(_) => {}
        }
    }

    #[test]
    fn hostile_request_bytes_never_panic_and_errors_render_as_json() {
        let mut rng = Rng::seed_from(10);
        // Random byte strings: raw bytes, and strings over JSON's own
        // tokens so the parser gets past the first byte.
        const TOKENS: [&str; 24] = [
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            "\"",
            "\\",
            "\\u",
            "d83d",
            "0",
            "-1",
            "1e9",
            ".5",
            "true",
            "null",
            " ",
            "\"op\"",
            "\"submit\"",
            "\"cells\"",
            "\"n\"",
            "é",
            "\u{0}",
            "\"params\"",
        ];
        for _ in 0..2000 {
            let len = rng.index(48);
            let raw: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            parse_hostile(&raw);
            let tokens: String = (0..len).map(|_| *rng.choose(&TOKENS)).collect();
            parse_hostile(tokens.as_bytes());
        }
        // Every truncation and every single-byte mutation of a valid
        // submit line.
        let cells = [
            CellKey::new("regular/3", 64, 2, "mis/luby"),
            CellKey::new("gnp/deg8", 4096, 0, "coloring/trial")
                .with_params(vec![("coloring/trial:extra-colors".into(), "4".into())])
                .with_policy(TranscriptPolicy::None),
            CellKey::new("tree/\"q\"\\é", 0, u64::MAX, "x"),
        ];
        let line = submit_request_json(&cells);
        assert_eq!(parse_request(&line), Ok(Request::Submit(cells.to_vec())));
        let bytes = line.as_bytes();
        for cut in 0..=bytes.len() {
            parse_hostile(&bytes[..cut]);
        }
        let mut mutant = bytes.to_vec();
        for at in 0..bytes.len() {
            for b in [
                0x00, b'"', b'\\', b'{', b']', b',', b'9', b'-', 0x7f, 0x80, 0xff,
            ] {
                mutant[at] = b;
                parse_hostile(&mutant);
            }
            mutant[at] = rng.next_u64() as u8;
            parse_hostile(&mutant);
            mutant[at] = bytes[at];
        }
    }

    #[test]
    fn response_lines_are_well_formed_json() {
        for line in [
            error_line(Some(3), "boom \"quoted\""),
            error_line(None, "bad request"),
            done_line(10, 2),
            pong_line(),
            ok_line(),
        ] {
            assert!(Json::parse(&line).is_ok(), "unparseable: {line}");
        }
        let e = Json::parse(&error_line(Some(3), "x")).unwrap();
        assert_eq!(e.get("index").and_then(Json::as_u64), Some(3));
    }
}
