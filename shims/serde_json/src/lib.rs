//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! [`to_string`], [`to_string_pretty`] and [`from_str`] over the serde
//! shim's value model.
//!
//! Beyond upstream's API, the writers those use are public —
//! [`write_string`], [`Escaped`] and [`write_number`] — so that text
//! written without a [`Value`] tree follows the same escape and number
//! rules.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize, Value};
use std::fmt::{self, Write as _};

/// A serialization or parse failure.
#[derive(Clone, Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Fails if a number is non-finite (JSON cannot represent it).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out)?;
    Ok(out)
}

/// Serializes `value` as two-space-indented JSON.
///
/// # Errors
///
/// Fails if a number is non-finite (JSON cannot represent it).
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Fails on malformed JSON or a value-shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v).map_err(|e| Error(e.to_string()))
}

fn write_value(
    v: &Value,
    indent: Option<usize>,
    level: usize,
    out: &mut String,
) -> Result<(), Error> {
    let (open_sep, item_sep, close_sep): (String, String, String) = match indent {
        Some(w) => (
            format!("\n{}", " ".repeat(w * (level + 1))),
            format!(",\n{}", " ".repeat(w * (level + 1))),
            format!("\n{}", " ".repeat(w * level)),
        ),
        None => (String::new(), ",".to_string(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_number(out, *n)?,
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { &open_sep } else { &item_sep });
                write_value(item, indent, level + 1, out)?;
            }
            out.push_str(&close_sep);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                out.push_str(if i == 0 { &open_sep } else { &item_sep });
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, level + 1, out)?;
            }
            out.push_str(&close_sep);
            out.push('}');
        }
    }
    Ok(())
}

/// Appends `n` as JSON: an integral value below 9e15 in magnitude as
/// an integer, any other as Rust's shortest round-trip `f64` text.
///
/// # Errors
///
/// Fails if `n` is non-finite (JSON cannot represent it).
pub fn write_number(out: &mut String, n: f64) -> Result<(), Error> {
    if !n.is_finite() {
        return Err(Error(format!("number {n} is not representable in JSON")));
    }
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
    .expect("writing to a String cannot fail");
    Ok(())
}

/// Appends `s` as a JSON string literal, escaped as by [`Escaped`].
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    Escaped(out)
        .write_str(s)
        .expect("writing to a String cannot fail");
    out.push('"');
}

/// Appends what is written to it as the body of a JSON string literal:
/// `"`, `\`, newline, carriage return and tab as two-character escapes,
/// other control characters as `\u00XX`, everything else as is.
/// Formatting into it escapes a `Display` value without building the
/// unescaped text first.
pub struct Escaped<'a>(pub &'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1F => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` is a character boundary.
            self.0.push_str(&s[plain..i]);
            if escape.is_empty() {
                write!(self.0, "\\u{b:04x}")?;
            } else {
                self.0.push_str(escape);
            }
            plain = i + 1;
        }
        self.0.push_str(&s[plain..]);
        Ok(())
    }
}

/// How deeply arrays and objects may nest, as in upstream
/// `serde_json`: the parser recurses once per level, so a bound keeps a
/// hostile file from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
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
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Enters one more array or object level at `pos`.
    fn nest(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, Error> {
        let value = self.nested_value();
        if matches!(value, Ok(Value::Array(_) | Value::Object(_))) {
            self.depth -= 1;
        }
        value
    }

    fn nested_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(Value::Null),
            Some(b't') if self.literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => {
                self.nest()?;
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
                        _ => return Err(Error(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.nest()?;
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
                        _ => return Err(Error(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(Error(format!("unexpected {other:?} at byte {}", self.pos))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid UTF-8 in string: {e}")))?,
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
                        .ok_or_else(|| Error("dangling escape".to_string()))?;
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
                                .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|e| Error(format!("bad \\u escape: {e}")))?,
                                16,
                            )
                            .map_err(|e| Error(format!("bad \\u escape: {e}")))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // workspace's data; reject them plainly.
                            out.push(char::from_u32(code).ok_or_else(|| {
                                Error(format!("unsupported \\u escape {code:#x}"))
                            })?);
                        }
                        other => return Err(Error(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => return Err(Error("unterminated string".to_string())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Number)
            .ok_or_else(|| Error(format!("bad number at byte {start}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::String("A\"\\\n".to_string())),
            ("n".to_string(), Value::Number(42.0)),
            ("x".to_string(), Value::Number(-1.5)),
            (
                "tags".to_string(),
                Value::Array(vec![Value::Bool(true), Value::Null]),
            ),
            ("empty".to_string(), Value::Array(vec![])),
        ]);
        // Value itself has no Serialize impl in user code paths, so go
        // through the writer directly.
        let mut compact = String::new();
        write_value(&v, None, 0, &mut compact).unwrap();
        let mut pretty = String::new();
        write_value(&v, Some(2), 0, &mut pretty).unwrap();
        for text in [compact, pretty] {
            let mut p = Parser {
                bytes: text.as_bytes(),
                pos: 0,
                depth: 0,
            };
            p.skip_ws();
            let back = p.value().unwrap();
            assert_eq!(back, v, "text: {text}");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<Vec<u64>>("[1, 2] x").is_err());
        assert!(from_str::<Vec<u64>>("[1, 2.5]").is_err());
        assert_eq!(from_str::<Vec<u64>>("[1, 2]").unwrap(), vec![1, 2]);
    }

    /// `levels` nested arrays around a `0`.
    fn nested(levels: usize) -> String {
        format!("{}0{}", "[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        // On a spawned thread, whose default stack (2 MB) is a quarter
        // of the main thread's: the bound must hold there too.
        std::thread::spawn(|| {
            let ok: Value = from_str(&nested(MAX_DEPTH)).unwrap();
            let mut depth = 0;
            let mut v = &ok;
            while let Value::Array(items) = v {
                depth += 1;
                v = &items[0];
            }
            assert_eq!(depth, MAX_DEPTH);
            let mixed = format!("{}{{\"a\":0}}{}", "[".repeat(127), "]".repeat(127));
            from_str::<Value>(&mixed).unwrap();
            for levels in [MAX_DEPTH + 1, 50_000] {
                let err = from_str::<Value>(&nested(levels)).unwrap_err().to_string();
                assert_eq!(
                    err, "nesting deeper than 128 levels at byte 128",
                    "{levels}"
                );
            }
            let objects = format!("{}1{}", "{\"a\":".repeat(200), "}".repeat(200));
            let err = from_str::<Value>(&objects).unwrap_err().to_string();
            assert!(
                err.starts_with("nesting deeper than 128 levels at byte "),
                "{err}"
            );
            // A closed level frees its depth: siblings do not add up.
            let siblings = format!("[{}]", vec![nested(100); 3].join(","));
            from_str::<Value>(&siblings).unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn shape_errors_name_the_kind_without_echoing_the_value() {
        let wide = format!("[{}]", vec!["[1, 2, 3]"; 4000].join(", "));
        assert!(wide.len() > 40_000);
        for err in [
            from_str::<String>(&wide).unwrap_err(),
            from_str::<Vec<u64>>(&wide).unwrap_err(),
            from_str::<Vec<bool>>("[{\"a\": [1, 2]}]").unwrap_err(),
        ] {
            let err = err.to_string();
            assert!(err.len() < 200, "{} bytes: {err}", err.len());
        }
        let err = from_str::<String>(&wide).unwrap_err().to_string();
        assert_eq!(err, "expected string, got an array");
        let err = from_str::<u8>("{}").unwrap_err().to_string();
        assert_eq!(err, "expected number, got an object");
    }
}
