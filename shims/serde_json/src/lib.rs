//! Offline shim for `serde_json`.
//!
//! Text round-trip for the shimmed [`serde`] data model: a recursive-descent
//! JSON parser, compact and pretty writers, and the [`json!`] macro (keys
//! must be string literals; nested objects/arrays are built with nested
//! `json!` calls or any `Serialize` expression).

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Parse or serialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.0)
    }
}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Convert any [`Serialize`] value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(v: &T) -> Value {
    v.to_value()
}

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), None, 0);
    Ok(out)
}

/// Serialize to an indented JSON string (two spaces, like `serde_json`).
pub fn to_string_pretty<T: Serialize + ?Sized>(v: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &v.to_value(), Some(2), 0);
    Ok(out)
}

/// Deserialize a `T` from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(T::from_value(&v)?)
}

// ---------------------------------------------------------------------------
// Writer.

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                let b = c as u8;
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
}

/// Append the decimal digits of `u`, with no intermediate `String`.
fn push_u64(out: &mut String, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            if *i < 0 {
                out.push('-');
            }
            push_u64(out, i.unsigned_abs());
        }
        Value::UInt(u) => push_u64(out, *u),
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trippable representation; force a
                // fractional marker so the value re-parses as a float.
                let start = out.len();
                let _ = fmt::Write::write_fmt(out, format_args!("{f}"));
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // serde_json's behavior for NaN/inf
            }
        }
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

// ---------------------------------------------------------------------------
// Parser.

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error(format!("invalid token at offset {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            other => Err(Error(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            // Surrogate pairs are not reconstructed; BMP only.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
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
            .map_err(|_| Error("invalid number".into()))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error(format!("invalid number '{text}'")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error(format!("invalid number '{text}'")))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| Error(format!("invalid number '{text}'")))
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected ',' or ']' at offset {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(Error(format!(
                        "expected ',' or '}}' at offset {}",
                        self.pos
                    )))
                }
            }
        }
    }
}

/// Build a [`Value`] in place.  Keys must be string literals; values are any
/// `Serialize` expression (including nested `json!` calls).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ({}) => { $crate::Value::Object(vec![]) };
    ({ $($k:literal : $v:expr),+ $(,)? }) => {
        $crate::Value::Object(vec![
            $(($k.to_string(), $crate::to_value(&$v))),+
        ])
    };
    ([ $($v:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::to_value(&$v)),*])
    };
    ($v:expr) => { $crate::to_value(&$v) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        for text in ["null", "true", "42", "-7", "1.5", "\"hi\\n\""] {
            let v: Value = from_str(text).unwrap();
            let back = to_string(&v).unwrap();
            let v2: Value = from_str(&back).unwrap();
            assert_eq!(v, v2, "{text}");
        }
    }

    #[test]
    fn parses_nested_structures() {
        let v: Value = from_str(r#"{"a": [1, 2.5, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn pretty_output_indents() {
        let v = json!({ "k": 1u64, "list": [1u64, 2u64] });
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains("\n  \"k\": 1"), "{s}");
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn json_macro_shapes() {
        let v = json!({
            "id": "x",
            "points": vec![(1.0f64, 2.0f64)],
            "nested": json!({ "деep": true }),
        });
        assert_eq!(v.get("id").unwrap().as_str(), Some("x"));
        assert!(v.get("nested").unwrap().get("деep").is_some());
    }

    #[test]
    fn float_always_reparses_as_float() {
        let s = to_string(&Value::Float(2.0)).unwrap();
        assert_eq!(s, "2.0");
        let v: Value = from_str(&s).unwrap();
        assert_eq!(v, Value::Float(2.0));
    }

    #[test]
    fn writer_bytes_are_pinned() {
        let cases: [(Value, &str); 18] = [
            (Value::Int(i64::MIN), "-9223372036854775808"),
            (Value::Int(-1), "-1"),
            (Value::Int(0), "0"),
            (Value::Int(i64::MAX), "9223372036854775807"),
            (Value::UInt(0), "0"),
            (Value::UInt(7), "7"),
            (Value::UInt(u64::MAX), "18446744073709551615"),
            (Value::Float(0.5), "0.5"),
            (Value::Float(-3.0), "-3.0"),
            (Value::Float(1e-7), "0.0000001"),
            (Value::Float(1e21), "1000000000000000000000.0"),
            (Value::Float(f64::NAN), "null"),
            (Value::Float(f64::NEG_INFINITY), "null"),
            (Value::Str("\u{1}".into()), r#""\u0001""#),
            (Value::Str("\u{1f}".into()), r#""\u001f""#),
            (
                Value::Str("a\u{0}b\u{10}\n\r\t\"\\\u{7f}".into()),
                "\"a\\u0000b\\u0010\\n\\r\\t\\\"\\\\\u{7f}\"",
            ),
            (Value::Str("héllo ✓ 日本".into()), "\"héllo ✓ 日本\""),
            (
                Value::Object(vec![
                    ("n\u{2}".into(), Value::Int(-42)),
                    (
                        "xs".into(),
                        Value::Array(vec![Value::UInt(10), Value::Float(2.25)]),
                    ),
                ]),
                r#"{"n\u0002":-42,"xs":[10,2.25]}"#,
            ),
        ];
        for (v, want) in &cases {
            assert_eq!(to_string(v).unwrap(), *want, "{v:?}");
        }
        assert_eq!(
            to_string_pretty(&cases[17].0).unwrap(),
            "{\n  \"n\\u0002\": -42,\n  \"xs\": [\n    10,\n    2.25\n  ]\n}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }
}
