//! Offline shim for `serde_json` (the subset this workspace uses):
//! [`to_string`], [`to_string_pretty`], [`from_str`], [`Error`], [`Result`].
//!
//! Serialization renders the [`serde::Content`] tree produced by the serde
//! shim. Floats are formatted with Rust's `{:?}` formatter, which emits the
//! shortest string that round-trips exactly (and preserves `-0.0`), matching
//! the real crate's `float_roundtrip` behavior closely enough for this
//! workspace's bitwise round-trip property tests. Non-finite floats serialize
//! as `null`, as in the real crate.

use serde::{Content, DeError, Deserialize, Serialize};

/// JSON (de)serialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias, mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` is the shortest representation that parses back exactly,
        // and renders -0.0 as "-0.0".
        out.push_str(&format!("{f:?}"));
    } else {
        out.push_str("null");
    }
}

fn write_compact(out: &mut String, c: &Content) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::Int(i) => out.push_str(&i.to_string()),
        Content::UInt(u) => out.push_str(&u.to_string()),
        Content::Float(f) => write_float(out, *f),
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, v);
            }
            out.push('}');
        }
    }
}

fn write_pretty(out: &mut String, c: &Content, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_inner = "  ".repeat(indent + 1);
    match c {
        Content::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_inner);
                write_pretty(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push(']');
        }
        Content::Map(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                out.push_str(&pad_inner);
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(out, v, indent + 1);
            }
            out.push('\n');
            out.push_str(&pad);
            out.push('}');
        }
        other => write_compact(out, other),
    }
}

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_compact(&mut out, &value.to_content());
    Ok(out)
}

/// Serializes a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&mut out, &value.to_content(), 0);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.eat_literal("null")?;
                Ok(Content::Null)
            }
            Some(b't') => {
                self.eat_literal("true")?;
                Ok(Content::Bool(true))
            }
            Some(b'f') => {
                self.eat_literal("false")?;
                Ok(Content::Bool(false))
            }
            Some(b'"') => self.parse_string().map(Content::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => Err(self.err(&format!("unexpected character `{}`", b as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Content::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.parse_hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            let ch = char::from_u32(cp)
                                .ok_or_else(|| self.err("invalid unicode escape"))?;
                            out.push(ch);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Content> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Content::Float)
                .map_err(|_| self.err("invalid float"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Content::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Content::UInt(u))
        } else {
            // Integer wider than u64: fall back to float, as serde_json's
            // arbitrary_precision feature is off.
            text.parse::<f64>()
                .map(Content::Float)
                .map_err(|_| self.err("invalid number"))
        }
    }
}

/// Parses a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut parser = Parser::new(s);
    let content = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing characters"));
    }
    T::from_content(&content).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(from_str::<Option<i64>>("null").unwrap(), None);
    }

    #[test]
    fn float_round_trip_is_bitwise() {
        for f in [0.1f64, 1.0 / 3.0, -0.0, 1e300, 5e-324, 1.5] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "failed for {f:?} -> {json}");
        }
    }

    #[test]
    fn negative_zero_keeps_sign() {
        assert_eq!(to_string(&-0.0f64).unwrap(), "-0.0");
        let back: f64 = from_str("-0.0").unwrap();
        assert!(back.is_sign_negative());
    }

    #[test]
    fn nonfinite_serializes_as_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1F600}\u{7}";
        let json = to_string(&s.to_string()).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        // Long ASCII runs that run into multibyte characters and end at
        // escapes.
        let ascii = "x".repeat(1000);
        let long = format!("{ascii}é{ascii}\u{1F600}\n{ascii}\"{ascii}\\ü");
        let json = to_string(&long).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, long);
    }

    #[test]
    fn shared_str_round_trips() {
        let s: std::sync::Arc<str> = "a\"b\\c\nd\té\u{1F600}\u{7}ü".into();
        let json = to_string(&s).unwrap();
        assert_eq!(json, to_string(&s.to_string()).unwrap());
        let back: std::sync::Arc<str> = from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(from_str::<std::sync::Arc<str>>("1").is_err());
    }

    #[test]
    fn surrogate_pair_escape_parses() {
        let back: String = from_str(r#""😀""#).unwrap();
        assert_eq!(back, "\u{1F600}");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = vec![vec![1i64, 2], vec![3]];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[[1,2],[3]]");
        let back: Vec<Vec<i64>> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_indented() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("key".to_string(), vec![1i64]);
        let pretty = to_string_pretty(&m).unwrap();
        assert!(pretty.contains("\n  \"key\": [\n    1\n  ]\n"));
        let back: std::collections::BTreeMap<String, Vec<i64>> = from_str(&pretty).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<i64>("12,").is_err());
        assert!(from_str::<Vec<i64>>("[1 2]").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }
}
