//! A minimal JSON reader/writer for the NDJSON wire protocol.
//!
//! The build container has no registry access (see `crates/shims/`), so the
//! service cannot use `serde`; this module is a from-scratch recursive-
//! descent parser for exactly the JSON the protocol needs — objects,
//! arrays, strings (with the standard escapes), numbers, booleans and
//! null — plus the one writer that renders a [`Value`] back, compact for
//! the wire and indented for reports, and the escaping helper responses
//! are rendered with.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`; the protocol's numbers are small).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.  Key order is not significant in the protocol, so a
    /// sorted map keeps rendering deterministic.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The string payload, when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The object map, when this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// The array items, when this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as indented JSON: one array item or object entry
    /// per line, two spaces per level, empty containers as `[]` / `{}`.
    /// Reports use this; the wire protocol uses the compact `Display`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0))
            .expect("writing to a String cannot fail");
        out
    }

    /// The one JSON writer: compact when `indent` is `None`, otherwise
    /// pretty with this value `indent` levels deep.
    fn write<W: fmt::Write>(&self, out: &mut W, indent: Option<usize>) -> fmt::Result {
        let entries: Box<dyn Iterator<Item = (Option<&String>, &Value)>> = match self {
            Value::Null => return out.write_str("null"),
            Value::Bool(b) => return write!(out, "{b}"),
            // JSON has no inf/NaN (reachable via an overflowing literal
            // like 1e999, which Rust parses to infinity); render the
            // nearest valid JSON value rather than corrupt the output.
            Value::Number(n) if !n.is_finite() => return out.write_str("null"),
            Value::Number(n) if n.fract() == 0.0 && n.abs() < 9e15 => {
                return write!(out, "{}", *n as i64)
            }
            Value::Number(n) => return write!(out, "{n}"),
            Value::String(s) => return write!(out, "\"{}\"", escape(s)),
            Value::Array(items) => Box::new(items.iter().map(|item| (None, item))),
            Value::Object(map) => Box::new(map.iter().map(|(key, value)| (Some(key), value))),
        };
        let (open, close) = match self {
            Value::Array(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let inner = indent.map(|level| level + 1);
        let newline = |out: &mut W, level: Option<usize>| match level {
            Some(level) => write!(out, "\n{:1$}", "", 2 * level),
            None => Ok(()),
        };
        out.write_char(open)?;
        let mut empty = true;
        for (key, value) in entries {
            if !empty {
                out.write_char(',')?;
            }
            empty = false;
            newline(out, inner)?;
            if let Some(key) = key {
                let space = if inner.is_some() { " " } else { "" };
                write!(out, "\"{}\":{space}", escape(key))?;
            }
            value.write(out, inner)?;
        }
        if !empty {
            newline(out, indent)?;
        }
        out.write_char(close)
    }
}

impl fmt::Display for Value {
    /// Renders the value as compact JSON, the wire format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, None)
    }
}

/// Escapes a string for embedding in a JSON document (the one shared
/// implementation: the writer above uses it, and so do the request lines
/// the benchmarks build by hand).
///
/// Only ASCII bytes ever need escaping, so the input is scanned bytewise
/// and maximal escape-free runs are appended as whole slices (UTF-8
/// continuation bytes are all ≥ 0x80 and pass through untouched).  The
/// common no-escape case does exactly one allocation and one memcpy.
pub fn escape(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = String::with_capacity(input.len() + 2);
    let mut run_start = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        let escape: Option<&str> = match byte {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0x00..=0x1f => Some(""), // \u escape, formatted below
            _ => None,
        };
        if let Some(escape) = escape {
            out.push_str(&input[run_start..i]);
            if escape.is_empty() {
                out.push_str(&format!("\\u{byte:04x}"));
            } else {
                out.push_str(escape);
            }
            run_start = i + 1;
        }
    }
    out.push_str(&input[run_start..]);
    out
}

/// Maximum container-nesting depth the parser accepts.  The parser is
/// recursive-descent, so without a cap a single request line of a million
/// `[`s would overflow the serving thread's stack and abort the whole
/// process; the protocol never nests more than a handful of levels.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document, requiring it to span the whole input.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_whitespace();
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing input at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.enter()?;
                let array = self.array();
                self.depth -= 1;
                array
            }
            Some(b'{') => {
                self.enter()?;
                let object = self.object();
                self.depth -= 1;
                object
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{}` at byte {}", c as char, self.pos)),
            None => Err(String::from("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|e| format!("invalid number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(String::from("unterminated string")),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not needed by the protocol;
                            // lone surrogates map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Bulk-copy everything up to the next quote or escape.
                    // `"` and `\` are ASCII, so the byte positions found
                    // here are char boundaries of the (already valid UTF-8)
                    // input — and copying a run at a time keeps parsing a
                    // multi-megabyte string O(n), not O(n²) per-char
                    // re-validation.
                    let rest = &self.bytes[self.pos..];
                    let run = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let chunk = std::str::from_utf8(&rest[..run]).map_err(|_| "invalid utf-8")?;
                    out.push_str(chunk);
                    self.pos += run;
                }
            }
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let value = parse(
            r#"{"id": 7, "kind": "race", "program": "fn Main(n) {\n  return 0;\n}", "flag": true}"#,
        )
        .unwrap();
        let map = value.as_object().unwrap();
        assert_eq!(map["kind"].as_str(), Some("race"));
        assert_eq!(map["id"], Value::Number(7.0));
        assert_eq!(map["flag"], Value::Bool(true));
        assert!(map["program"].as_str().unwrap().contains('\n'));
    }

    #[test]
    fn parses_arrays_and_nested_objects() {
        let value =
            parse(r#"{"queries": [{"kind": "validity"}, {"kind": "race"}], "n": -1.5}"#).unwrap();
        let map = value.as_object().unwrap();
        assert_eq!(map["queries"].as_array().unwrap().len(), 2);
        assert_eq!(map["n"], Value::Number(-1.5));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
        assert!(parse(r#"{"a": 1} trailing"#).is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let original = "line\nbreak \"quoted\" back\\slash\ttab";
        let rendered = format!("\"{}\"", escape(original));
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(original));
    }

    #[test]
    fn display_renders_compact_json() {
        let value = parse(r#"{"b": [1, 2], "a": "x"}"#).unwrap();
        assert_eq!(value.to_string(), r#"{"a":"x","b":[1,2]}"#);
    }

    /// Escapes, nested empty containers, integer-valued and fractional
    /// numbers: every branch of the writer.
    const FIXTURE: &str = r#"{"s": "q\"b\\n\nt\t\u0001 §", "e": {"a": [], "o": {}},
        "n": [3, -0.5, 1e20, 2.0], "b": [true, false, null], "k\"": [[{}], {"x": []}]}"#;

    #[test]
    fn compact_output_is_the_wire_format_byte_for_byte() {
        let value = parse(FIXTURE).unwrap();
        assert_eq!(
            value.to_string(),
            r#"{"b":[true,false,null],"e":{"a":[],"o":{}},"k\"":[[{}],{"x":[]}],"n":[3,-0.5,100000000000000000000,2],"s":"q\"b\\n\nt\t\u0001 §"}"#
        );
    }

    #[test]
    fn compact_and_pretty_output_parse_back_to_the_same_value() {
        let value = parse(FIXTURE).unwrap();
        assert_eq!(parse(&value.to_string()).unwrap(), value);
        assert_eq!(parse(&value.pretty()).unwrap(), value);
        assert_eq!(
            parse(r#"{"a": [1, {"b": []}]}"#).unwrap().pretty(),
            "{\n  \"a\": [\n    1,\n    {\n      \"b\": []\n    }\n  ]\n}"
        );
        assert_eq!(Value::Array(Vec::new()).pretty(), "[]");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let value = Value::Array(vec![Value::Number(n)]);
            assert_eq!(value.to_string(), "[null]");
            assert_eq!(value.pretty(), "[\n  null\n]");
        }
    }

    #[test]
    fn pathological_nesting_is_rejected_not_a_stack_overflow() {
        // One hostile request line must come back as a parse error, never
        // abort the serving process by exhausting the stack.
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
        let deep_objects = "{\"a\":".repeat(100_000);
        assert!(parse(&deep_objects).is_err());
        // Wide-but-shallow input is fine: sibling containers do not
        // accumulate depth.
        let wide = format!("[{}]", vec!["[]"; 1000].join(","));
        assert!(parse(&wide).is_ok());
        // ... and so is moderate real nesting.
        let nested = format!("{}1{}", "[".repeat(60), "]".repeat(60));
        assert!(parse(&nested).is_ok());
    }

    #[test]
    fn megabyte_strings_parse_in_linear_time() {
        // Guards the bulk-copy path: a large legal payload (the size of a
        // big `program` field) must parse in milliseconds, not re-validate
        // the remaining input once per character.
        let payload = "x".repeat(4 * 1024 * 1024);
        let doc = format!(r#"{{"program": "{payload}"}}"#);
        let start = std::time::Instant::now();
        let value = parse(&doc).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "quadratic string parse ({:?})",
            start.elapsed()
        );
        assert_eq!(
            value.as_object().unwrap()["program"].as_str().map(str::len),
            Some(payload.len())
        );
    }

    #[test]
    fn overflowing_numbers_round_trip_as_valid_json() {
        // `1e999` parses to f64 infinity; echoing it back must still be
        // valid JSON (null), never a bare `inf` token.
        let value = parse(r#"{"id": 1e999}"#).unwrap();
        let rendered = value.to_string();
        assert_eq!(rendered, r#"{"id":null}"#);
        assert!(parse(&rendered).is_ok());
    }
}
