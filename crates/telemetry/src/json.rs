//! The workspace's one JSON codec: a value type with its parser and
//! printer, and the streaming write primitives the trace sink and the
//! flight recorder build their lines with.
//!
//! Everything btfluid persists as JSON or JSONL goes through this module:
//! telemetry traces and flight dumps (streamed with [`push_str_lit`] and
//! [`push_f64`], no value tree per record), the sweep journal, repro and
//! chaos bundles, and the arrival-trace JSONL codec. This build
//! environment has no serde. The subset here is complete for those uses:
//!
//! * Objects keep insertion order (stable, diffable output).
//! * Numbers are stored as their **raw token**, so a `u64` seed survives
//!   the round trip exactly (an `f64` payload cannot hold every `u64`),
//!   and an `f64` printed with Rust's shortest-roundtrip formatting parses
//!   back to the identical bits. The parser accepts only the RFC 8259
//!   number grammar, so a parsed-and-reprinted document is still JSON.
//! * Strings escape control characters, quotes, and backslashes.
//! * JSON has no NaN/∞: non-finite floats encode as `null` and bump the
//!   process-wide [`non_finite_null_count`].
//! * Nesting deeper than [`MAX_DEPTH`] is a parse error, so hostile input
//!   cannot overflow the parser's stack.

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Deepest array/object nesting [`Json::parse`] accepts. Everything
/// btfluid writes nests a handful of levels; the bound only exists so
/// that untrusted input fails with an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Process-wide tally of non-finite floats that were downgraded to JSON
/// `null` by [`push_f64`] or [`Json::num_f64`]. A non-zero delta across
/// a run means some result carried NaN/∞ — the self-check oracle and
/// `inspect` treat that as a data-quality signal rather than silently
/// losing it.
static NON_FINITE_NULLS: AtomicU64 = AtomicU64::new(0);

/// Current value of the non-finite-to-`null` counter.
pub fn non_finite_null_count() -> u64 {
    NON_FINITE_NULLS.load(Ordering::Relaxed)
}

/// Appends a JSON string literal (quoted, escaped) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` (shortest-roundtrip; non-finite becomes `null` and
/// bumps the process-wide [`non_finite_null_count`]).
pub fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        NON_FINITE_NULLS.fetch_add(1, Ordering::Relaxed);
        out.push_str("null");
    }
}

/// Appends a JSON array of `f64`s.
pub fn push_f64_arr(out: &mut String, xs: &[f64]) {
    push_arr(out, xs, |out, &x| push_f64(out, x));
}

/// Appends a JSON array of `usize`s.
pub fn push_usize_arr(out: &mut String, xs: &[usize]) {
    push_arr(out, xs, |out, x| {
        let _ = write!(out, "{x}");
    });
}

fn push_arr<T>(out: &mut String, xs: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (see module docs).
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from an `f64`. Non-finite values encode as
    /// [`Json::Null`] and bump [`non_finite_null_count`], exactly as
    /// [`push_f64`] does.
    pub fn num_f64(x: f64) -> Json {
        let mut tok = String::new();
        push_f64(&mut tok, x);
        if x.is_finite() {
            Json::Num(tok)
        } else {
            Json::Null
        }
    }

    /// Like [`Json::num_f64`] but a typed error on non-finite input, for
    /// checked-mode writers that must refuse rather than degrade.
    pub fn num_f64_checked(x: f64) -> Result<Json, String> {
        if x.is_finite() {
            Ok(Json::num_f64(x))
        } else {
            Err(format!("JSON cannot carry non-finite value {x}"))
        }
    }

    /// A number from a `u64`, exactly.
    pub fn num_u64(x: u64) -> Json {
        Json::Num(format!("{x}"))
    }

    /// Object member by key (first match), or `None`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, or `None`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The number as `u64` (rejecting fractions and negatives), or `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(tok) => tok.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, or `None`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, or `None`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member `key` as `u64`; 0 when absent or not one (the lenient read
    /// the typed record readers use for fields an older writer omits).
    pub fn u64_at(&self, key: &str) -> u64 {
        self.get(key).and_then(Json::as_u64).unwrap_or(0)
    }

    /// Member `key` as `f64`, or `None` (a `null` included).
    pub fn f64_at(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Json::as_f64)
    }

    /// Member `key` as a string, or `None`.
    pub fn str_at(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Json::as_str)
    }

    /// Member `key`'s items; empty when absent or not an array.
    pub fn arr_at(&self, key: &str) -> &[Json] {
        self.get(key).and_then(Json::as_arr).unwrap_or(&[])
    }

    /// Parses one JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Appends the compact encoding to `out`.
    fn push_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(tok) => out.push_str(tok),
            Json::Str(s) => push_str_lit(out, s),
            Json::Arr(items) => push_arr(out, items, |out, v| v.push_to(out)),
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str_lit(out, k);
                    out.push(':');
                    v.push_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.push_to(&mut out);
        f.write_str(&out)
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", b as char))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let tok = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_string())?;
    if !is_number(tok) {
        return Err(format!("bad number '{tok}' at offset {start}"));
    }
    Ok(Json::Num(tok.to_string()))
}

/// RFC 8259 §6: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
/// Rust's `{}` formatting of `u64` and finite `f64` only ever writes this
/// form: no `+`, no exponent, no leading zero, no bare `.`.
fn is_number(tok: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    let body = tok.strip_prefix('-').unwrap_or(tok);
    let (mantissa, exp) = body
        .split_once(['e', 'E'])
        .map_or((body, None), |(m, e)| (m, Some(e)));
    let (int, frac) = mantissa
        .split_once('.')
        .map_or((mantissa, None), |(i, f)| (i, Some(f)));
    digits(int)
        && (int == "0" || !int.starts_with('0'))
        && frac.is_none_or(digits)
        && exp.is_none_or(|e| digits(e.strip_prefix(['+', '-']).unwrap_or(e)))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or("bad \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so this
                // byte run is valid UTF-8).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "bad utf8")?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_object() {
        let doc = Json::Obj(vec![
            ("id".into(), Json::Str("mtcd-s7".into())),
            ("seed".into(), Json::num_u64(u64::MAX)),
            ("rho".into(), Json::num_f64(0.1 + 0.2)),
            ("ok".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "xs".into(),
                Json::Arr(vec![Json::num_u64(1), Json::num_u64(2)]),
            ),
        ]);
        let text = doc.to_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(
            back.get("rho").unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
    }

    #[test]
    fn non_finite_encodes_as_null_not_invalid_tokens() {
        // Regression: release builds used to print `NaN`/`inf` raw, which
        // no JSON parser (including ours) accepts back.
        let before = non_finite_null_count();
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![("v".into(), Json::num_f64(x))]);
            let text = doc.to_string();
            assert_eq!(text, "{\"v\":null}");
            assert_eq!(Json::parse(&text).unwrap().get("v"), Some(&Json::Null));
        }
        assert!(non_finite_null_count() >= before + 3);
        assert!(Json::num_f64_checked(f64::NAN).is_err());
        assert!(Json::num_f64_checked(1.5).is_ok());
        // The old behavior would have produced these, and they must not parse.
        assert!(Json::parse("{\"v\":NaN}").is_err());
        assert!(Json::parse("{\"v\":inf}").is_err());
    }

    #[test]
    fn strings_escape_and_unescape() {
        let doc = Json::Str("a \"b\"\n\\c\tü".into());
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(
            Json::parse("\"\\u0041\\u00fc\"").unwrap().as_str(),
            Some("Aü")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("1.2.3").is_err());
        // Outside the RFC 8259 number grammar, though Rust's float parser
        // takes each of them.
        assert!(Json::parse("+1").is_err());
        assert!(Json::parse("01").is_err());
        assert!(Json::parse(".5").is_err());
        assert!(Json::parse("5.").is_err());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn number_grammar_accepts_every_valid_form() {
        for tok in [
            "0", "-0", "7", "-12", "0.5", "-0.25", "1e5", "1E+5", "2.5e-3", "10",
        ] {
            let v = Json::parse(tok).unwrap_or_else(|e| panic!("{tok}: {e}"));
            assert_eq!(v.to_string(), tok);
        }
        for tok in [
            "-",
            "1e",
            "1e+",
            "-.5",
            "00",
            "-01",
            "1.e3",
            "0x10",
            "\"\\u+041\"",
        ] {
            assert!(Json::parse(tok).is_err(), "accepted {tok}");
        }
    }

    #[test]
    fn writers_only_emit_grammar_tokens() {
        let floats = [
            0.0,
            -0.0,
            1.0,
            0.1 + 0.2,
            1e300,
            -1e-300,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        for x in floats {
            let tok = Json::num_f64(x).to_string();
            assert!(is_number(&tok), "{x} → {tok}");
            assert_eq!(
                Json::parse(&tok).unwrap().as_f64().unwrap().to_bits(),
                x.to_bits()
            );
        }
        for x in [0, 1, 10, u64::MAX] {
            assert!(is_number(&Json::num_u64(x).to_string()));
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
        assert!(Json::parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_limit).is_ok());
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past).is_err());
    }

    #[test]
    fn escapes_control_and_quote() {
        let mut s = String::new();
        push_str_lit(&mut s, "a\"b\\c\nü\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nü\\u0001\"");
    }

    #[test]
    fn floats_roundtrip_or_null() {
        let mut s = String::new();
        push_f64(&mut s, 0.1 + 0.2);
        assert_eq!(
            s.parse::<f64>().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        let mut n = String::new();
        push_f64(&mut n, f64::NAN);
        assert_eq!(n, "null");
    }

    #[test]
    fn arrays() {
        let mut s = String::new();
        push_f64_arr(&mut s, &[1.0, 2.5]);
        assert_eq!(s, "[1,2.5]");
        let mut u = String::new();
        push_usize_arr(&mut u, &[3, 0, 7]);
        assert_eq!(u, "[3,0,7]");
        let mut e = String::new();
        push_f64_arr(&mut e, &[]);
        assert_eq!(e, "[]");
    }
}
