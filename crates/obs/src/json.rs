//! Minimal JSON reading/writing shared by the workspace's hand-rolled
//! persistence formats.
//!
//! The crate stays dependency-free, so this module provides the small
//! JSON surface everything else builds on: a recursive-descent
//! [`parse`] into a [`Value`] tree, and [`escape`] for writers. It is
//! the workspace's one JSON reader: behind
//! [`Snapshot::from_json`](crate::Snapshot::from_json) and the trained
//! predictor files of `lifepred-core`.
//!
//! The dialect is deliberately small: objects, arrays, strings with
//! the common escapes (no surrogate pairs), `u64` integers parsed
//! losslessly, everything else as `f64`, `true`/`false`/`null`.
//! Writers in this workspace emit exactly this subset.
//!
//! Every document it reads may come from outside the program, so it
//! refuses nesting deeper than 64 arrays and objects (the parser
//! recurses once per level, and deeper input would overflow the stack),
//! a key repeated within one object, and raw control bytes inside
//! strings.

/// A JSON parse failure: message plus byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of what went wrong.
    pub msg: String,
    /// Byte offset into the input where the failure was detected
    /// (0 for structural errors found after parsing).
    pub pos: usize,
}

impl ParseError {
    /// Builds an error at `pos`.
    pub(crate) fn new(msg: impl Into<String>, pos: usize) -> ParseError {
        ParseError {
            msg: msg.into(),
            pos,
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.pos)
    }
}

impl std::error::Error for ParseError {}

/// A parsed JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integers parse losslessly into `u64` when they fit...
    Int(u64),
    /// ...everything else (floats, negatives, exponents) lands here.
    Float(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object as a key/value list in document order (keys are
    /// unique: the parser refuses a repeated key).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value as a `u64`, accepting floats that are exact
    /// non-negative integers.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => Some(n),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object entry slice.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// First value under `key` when this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }
}

/// Escapes `s` for inclusion in a JSON string literal (the quotes are
/// the caller's).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Parses one JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a [`ParseError`] with the byte offset of the first
/// malformed construct.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    Parser::new(text).parse_document()
}

/// Deepest nesting of arrays and objects [`parse`] accepts.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn parse_document(&mut self) -> Result<Value, ParseError> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'{' | b'[' if self.depth == MAX_DEPTH => Err(self.err("value nested too deeply")),
            open @ (b'{' | b'[') => {
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_obj()
                } else {
                    self.parse_arr()
                };
                self.depth -= 1;
                value
            }
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.parse_lit("true", Value::Bool(true)),
            b'f' => self.parse_lit("false", Value::Bool(false)),
            b'n' => self.parse_lit("null", Value::Null),
            _ => self.parse_number(),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn parse_obj(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_value()?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key `{key}`")));
            }
            entries.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_arr(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for metric
                            // names; reject rather than mis-decode.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("bad \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x20 => {
                    return Err(self.err(format!("control byte {b:#04x} in string")));
                }
                _ => {
                    // Consume the full UTF-8 sequence this byte starts.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    let s = self
                        .bytes
                        .get(start..end)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| ParseError::new("invalid number", start))?;
        if text.is_empty() {
            return Err(ParseError::new("expected a value", start));
        }
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| ParseError::new(format!("bad number `{text}`"), start))
    }
}

/// Length in bytes of the UTF-8 sequence starting with byte `b`
/// (1 for ASCII and for continuation bytes, which will then fail the
/// `from_utf8` check above).
fn utf8_len(b: u8) -> usize {
    match b {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse() {
        let doc = r#"{"a": 1, "b": [true, null, "x\n"], "c": -2.5}"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let arr = v.get("b").and_then(Value::as_arr).expect("array");
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").and_then(Value::as_f64), Some(-2.5));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("{} {}").is_err());
    }

    #[test]
    fn hostile_input_is_refused() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        parse(&deep(MAX_DEPTH)).expect("at the limit");
        let err = parse(&deep(100)).unwrap_err();
        assert_eq!(err.msg, "value nested too deeply");
        let err = parse(r#"{"a": 1, "a": 2}"#).unwrap_err();
        assert_eq!(err.msg, "duplicate key `a`");
        let err = parse("\"a\u{1}b\"").unwrap_err();
        assert_eq!(err.msg, "control byte 0x01 in string");
        assert!(parse(r#""\ud800""#).is_err(), "lone surrogate");
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" slash\\ nl\n tab\t ctrl\u{1} unicode\u{e9}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = parse(&doc).expect("parses");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }
}
