//! A minimal JSON value, writer, and parser.
//!
//! The sweep reports (`BENCH_faults.json` and its siblings) and exported
//! Perfetto traces need structured, machine-checkable output, and the
//! workspace builds offline with no serde. This module covers exactly what
//! they need: objects, arrays, strings, finite numbers, bools, and null,
//! with a strict parser good enough to validate round trips.

use std::fmt;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (written with up to 12 significant digits).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value at `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// Render with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parse `text` as a single JSON value (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError::at(pos, "trailing characters"));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, n: f64) {
    assert!(n.is_finite(), "JSON numbers must be finite");
    if n == n.trunc() && n.abs() < 1e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n:.6}"));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Shorthand for a numeric object field.
pub fn num(key: &str, v: f64) -> (String, Json) {
    (key.to_string(), Json::Num(v))
}

/// An object made only of numeric fields, in order.
pub fn num_obj(fields: &[(&str, f64)]) -> Json {
    Json::Obj(fields.iter().map(|(k, v)| num(k, *v)).collect())
}

/// A validation-failure accumulator. Report validators record every
/// problem they find instead of stopping at the first, so one `--check`
/// run surfaces the complete damage; [`Check::finish`] joins the
/// failures into a single newline-separated error.
#[derive(Debug, Default)]
pub struct Check {
    errors: Vec<String>,
}

impl Check {
    /// An empty accumulator.
    pub fn new() -> Self {
        Check::default()
    }

    /// Record one failure.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// True while no failure has been recorded.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Require `doc` to carry the expected format version.
    pub fn require_schema(&mut self, doc: &Json, want: u64) {
        if doc.get("schema").and_then(Json::as_f64) != Some(want as f64) {
            self.fail(format!("missing or unexpected schema (want {want})"));
        }
    }

    /// The non-empty array at `key`; a missing or empty array is recorded
    /// and an empty slice returned so validation can continue.
    pub fn array<'a>(&mut self, doc: &'a Json, key: &str) -> &'a [Json] {
        match doc.get(key).and_then(Json::as_array) {
            Some([]) => {
                self.fail(format!("{key} array is empty"));
                &[]
            }
            Some(items) => items,
            None => {
                self.fail(format!("missing {key} array"));
                &[]
            }
        }
    }

    /// The string at `field`, recording a failure when absent.
    pub fn string<'a>(&mut self, obj: &'a Json, field: &str, ctx: &str) -> Option<&'a str> {
        let s = obj.get(field).and_then(Json::as_str);
        if s.is_none() {
            self.fail(format!("{ctx}: missing {field}"));
        }
        s
    }

    /// The non-negative number at `field`; missing and negative values
    /// are both recorded.
    pub fn num(&mut self, obj: &Json, field: &str, ctx: &str) -> Option<f64> {
        match obj.get(field).and_then(Json::as_f64) {
            Some(v) => {
                if v < 0.0 {
                    self.fail(format!("{ctx}: negative {field}"));
                }
                Some(v)
            }
            None => {
                self.fail(format!("{ctx}: missing {field}"));
                None
            }
        }
    }

    /// [`Check::num`] over a field list.
    pub fn nums(&mut self, obj: &Json, fields: &[&str], ctx: &str) {
        for f in fields {
            self.num(obj, f, ctx);
        }
    }

    /// `Ok(())` when clean, otherwise every failure newline-joined.
    pub fn finish(self) -> Result<(), String> {
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(self.errors.join("\n"))
        }
    }
}

/// A parse failure with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl ParseError {
    fn at(at: usize, message: &'static str) -> Self {
        ParseError { at, message }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(ParseError::at(*pos, "unexpected token"))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(ParseError::at(*pos, "unexpected end of input")),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'{') => parse_object(bytes, pos),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(ParseError::at(*pos, "unterminated string"));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(ParseError::at(*pos, "unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or(ParseError::at(*pos, "bad unicode escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| ParseError::at(*pos, "bad unicode escape"))?;
                        *pos += 4;
                        // Surrogates are not produced by our writer; map
                        // them to the replacement character on read.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(ParseError::at(*pos - 1, "unknown escape")),
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the whole code point through.
                let start = *pos - 1;
                let len = utf8_len(b).ok_or(ParseError::at(start, "invalid UTF-8"))?;
                *pos = start + len;
                let s = bytes
                    .get(start..start + len)
                    .and_then(|chunk| std::str::from_utf8(chunk).ok())
                    .ok_or(ParseError::at(start, "invalid UTF-8"))?;
                out.push_str(s);
            }
        }
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7f => Some(1),
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII slice");
    text.parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Json::Num)
        .ok_or(ParseError::at(start, "invalid number"))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, ParseError> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(ParseError::at(*pos, "expected object key"));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(ParseError::at(*pos, "expected ':'"));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(ParseError::at(*pos, "expected ',' or '}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let value = Json::Obj(vec![
            ("label".into(), Json::Str("seed-baseline".into())),
            ("events_per_sec".into(), Json::Num(1234567.89)),
            ("runs".into(), Json::Num(6.0)),
            ("ok".into(), Json::Bool(true)),
            ("nothing".into(), Json::Null),
            (
                "entries".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)]),
            ),
        ]);
        let text = value.pretty();
        let back = Json::parse(&text).expect("round trip parses");
        assert_eq!(back, value);
    }

    #[test]
    fn accessors_navigate() {
        let v = Json::parse(r#"{"a": {"b": [1, "x"]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_str(), Some("x"));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("line\n\"quoted\"\tand \\ back".into());
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn integers_write_without_fraction() {
        assert_eq!(Json::Num(42.0).pretty().trim(), "42");
        assert!(Json::Num(0.5).pretty().trim().starts_with("0.5"));
    }

    #[test]
    fn check_accumulates_every_failure() {
        let doc = Json::parse(r#"{"schema":9,"scenarios":[{"a":-1}]}"#).unwrap();
        let mut c = Check::new();
        c.require_schema(&doc, 1);
        let items = c.array(&doc, "scenarios");
        assert_eq!(items.len(), 1);
        c.num(&items[0], "a", "scenario x");
        c.num(&items[0], "b", "scenario x");
        c.string(&items[0], "name", "scenario x");
        assert!(!c.ok());
        let err = c.finish().unwrap_err();
        assert!(err.contains("schema"));
        assert!(err.contains("negative a"));
        assert!(err.contains("missing b"));
        assert!(err.contains("missing name"));
        assert_eq!(err.lines().count(), 4, "all four failures reported: {err}");
    }

    #[test]
    fn check_array_and_shell_helpers() {
        let doc = Json::parse(r#"{"schema":3,"smoke":true,"scenarios":[{"x":1}]}"#).unwrap();
        let mut c = Check::new();
        c.require_schema(&doc, 3);
        assert_eq!(c.array(&doc, "scenarios").len(), 1);
        c.finish().unwrap();

        let empty = Json::parse(r#"{"scenarios":[]}"#).unwrap();
        let mut c = Check::new();
        assert!(c.array(&empty, "scenarios").is_empty());
        assert!(c.array(&empty, "entries").is_empty());
        let err = c.finish().unwrap_err();
        assert!(err.contains("scenarios array is empty"));
        assert!(err.contains("missing entries array"));
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::Str("métrique — ± µs".into());
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }
}
