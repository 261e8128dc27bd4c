//! Offline stand-in for the `serde_json` crate.
//!
//! Converts between JSON text and the shim serde's [`serde::Value`] tree
//! (see `offline/README.md`). Covers the four entry points this workspace
//! uses: [`to_string`], [`from_str`], [`to_writer`], [`from_reader`].
//!
//! Number formatting follows real serde_json closely enough for the
//! round-trip guarantees the tests rely on:
//!
//! - integers print without a fractional part;
//! - an `f64` prints as Rust's shortest round-trip `{}` text for `f64`, and
//!   an `f32` as the shortest `{}` text for `f32` (`0.1f32` is `0.1`, not
//!   the `0.10000000149011612` of its widened `f64`), as real serde_json
//!   prints them;
//! - whole-number floats below 1e15 print a trailing `.0` so they re-parse
//!   as floats;
//! - non-finite floats print `null`.
//!
//! The parser reads every float as an `f64`, and an `f32` field casts it
//! down. For exactly one `f32` magnitude, `±7.038531e-26` (bits
//! `0x15AE43FD`), the shortest `f32` text rounds twice on that path and
//! lands one bit away, so the emitter checks every `f32` it prints against
//! that path and prints such a value as its widened `f64` instead. Every
//! finite `f32` therefore round-trips bit for bit (an ignored test sweeps
//! all of them). Integer literals too large for `u64`/`i64` parse as
//! floats, as JSON readers do.

use std::fmt::{self, Write as _};
use std::io::{Read, Write};

use serde::{Deserialize, Serialize, Value};

/// JSON serialization/deserialization failure.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn msg(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::msg(e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::msg(format!("io error: {e}"))
    }
}

/// Serializes `value` to a JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize());
    Ok(out)
}

/// Deserializes an instance of `T` from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser {
        src: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(T::deserialize(&v)?)
}

/// Serializes `value` as JSON into the writer.
pub fn to_writer<W: Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<(), Error> {
    let s = to_string(value)?;
    writer.write_all(s.as_bytes())?;
    Ok(())
}

/// Deserializes an instance of `T` from JSON read from the reader.
pub fn from_reader<R: Read, T: Deserialize>(mut reader: R) -> Result<T, Error> {
    let mut s = String::new();
    reader.read_to_string(&mut s)?;
    from_str(&s)
}

// ---- emitter -------------------------------------------------------------

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => write_display(out, n),
        Value::I64(n) => write_display(out, n),
        Value::F64(x) => write_f64(out, *x),
        Value::F32(x) => write_f32(out, *x),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, val);
            }
            out.push('}');
        }
    }
}

/// Appends `x`'s `{}` text to `out` in place, with no intermediate `String`.
fn write_display(out: &mut String, x: impl fmt::Display) {
    write!(out, "{x}").expect("writing to a String cannot fail");
}

/// Appends a finite float's shortest round-trip `{}` text, plus a `.0` on
/// whole numbers below 1e15 (`{}` prints `3.0` as `3`), so it re-parses as
/// a float.
fn write_float(out: &mut String, x: impl fmt::Display, whole: bool) {
    write_display(out, x);
    if whole {
        out.push_str(".0");
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        write_float(out, x, x == x.trunc() && x.abs() < 1e15);
    } else {
        // Real serde_json emits null for non-finite floats.
        out.push_str("null");
    }
}

fn write_f32(out: &mut String, x: f32) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write_float(out, x, x == x.trunc() && x.abs() < 1e15);
    // The parser reads the text as an `f64` and an `f32` field casts it
    // down; where that double rounding misses `x`, print the exact widened
    // `f64` instead.
    let back = out[start..].parse::<f64>().map(|y| y as f32);
    if back.map(f32::to_bits) != Ok(x.to_bits()) {
        out.truncate(start);
        write_f64(out, f64::from(x));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---- parser --------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte; always on a `char` boundary
    /// between tokens and string runs.
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
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => {
                            return Err(Error::msg(format!(
                                "expected `,` or `]` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.parse_value()?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => {
                            return Err(Error::msg(format!(
                                "expected `,` or `}}` at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this workspace's
                            // data (ASCII identifiers and numbers only).
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!(
                                "bad escape {:?} at byte {}",
                                other.map(|b| b as char),
                                self.pos
                            )))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a `char` boundary of the
                    // already-validated input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    s.push_str(&self.src[self.pos..self.pos + run]);
                    self.pos += run;
                }
                None => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
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
        let text = &self.src[start..self.pos];
        let int = if is_float {
            None
        } else if let Some(digits) = text.strip_prefix('-') {
            // "-0" should stay an integer zero.
            if !digits.is_empty() && digits.bytes().all(|b| b == b'0') {
                Some(Value::U64(0))
            } else {
                text.parse::<i64>().ok().map(Value::I64)
            }
        } else {
            text.parse::<u64>().ok().map(Value::U64)
        };
        // An integer literal beyond `u64`/`i64` reads as a float, as JSON
        // readers do (`1e20f64` prints as `100000000000000000000`).
        match int {
            Some(v) => Ok(v),
            None => text
                .parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::msg(format!("invalid number `{text}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(to_string(&42u32).unwrap(), "42");
        assert_eq!(from_str::<u32>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i32).unwrap(), "-3");
        assert_eq!(from_str::<i32>("-3").unwrap(), -3);
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
        assert_eq!(from_str::<f64>("3.0").unwrap(), 3.0);
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn f32_round_trips_exactly() {
        for &x in &[0.1f32, -1.7e-5, 123456.78, f32::MIN_POSITIVE] {
            let json = to_string(&x).unwrap();
            assert_eq!(from_str::<f32>(&json).unwrap(), x, "json: {json}");
        }
    }

    #[test]
    fn strings_escape() {
        let s = "a\"b\\c\nd\te\u{1}".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u8, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u8>>(&json).unwrap(), v);

        let o: Option<u32> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(from_str::<Vec<u8>>(" [ 1 , 2 ] ").unwrap(), vec![1, 2]);
    }

    #[test]
    fn writer_reader_round_trip() {
        let v = vec![1.5f32, -2.25];
        let mut buf = Vec::new();
        to_writer(&mut buf, &v).unwrap();
        let back: Vec<f32> = from_reader(buf.as_slice()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn trailing_garbage_errors() {
        assert!(from_str::<u32>("42 junk").is_err());
        assert!(from_str::<i64>("-").is_err());
    }

    #[test]
    fn f32_prints_its_shortest_text() {
        assert_eq!(to_string(&0.1f32).unwrap(), "0.1");
        assert_eq!(to_string(&-0.25f32).unwrap(), "-0.25");
        assert_eq!(to_string(&3.0f32).unwrap(), "3.0");
        assert_eq!(to_string(&-0.0f32).unwrap(), "-0.0");
        assert_eq!(to_string(&vec![0.5f32, 1.0]).unwrap(), "[0.5,1.0]");
        assert_eq!(to_string(&f32::NAN).unwrap(), "null");
        assert_eq!(to_string(&f32::NEG_INFINITY).unwrap(), "null");
        // f64 text is unchanged: widened f32 digits stay on the f64 path.
        assert_eq!(
            to_string(&f64::from(0.1f32)).unwrap(),
            "0.10000000149011612"
        );
        assert_eq!(to_string(&1e15f64).unwrap(), "1000000000000000");
    }

    #[test]
    fn double_rounding_f32_falls_back_to_f64_text() {
        for bits in [0x15AE_43FDu32, 0x95AE_43FD] {
            let x = f32::from_bits(bits);
            // Its shortest f32 text misses by one bit through the f64 parse.
            let shortest = x.to_string();
            assert_ne!((shortest.parse::<f64>().unwrap() as f32).to_bits(), bits);
            let json = to_string(&x).unwrap();
            assert_eq!(json, to_string(&f64::from(x)).unwrap());
            assert_eq!(from_str::<f32>(&json).unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn integer_literals_beyond_64_bits_parse_as_floats() {
        for x in [1e20f64, 2f64.powi(64), -1e19, 1e300] {
            let json = to_string(&x).unwrap();
            assert!(!json.contains('.'), "{json}");
            assert_eq!(from_str::<f64>(&json).unwrap(), x, "{json}");
        }
        for x in [f32::MAX, f32::MIN, 3e38f32, 1e20f32] {
            let json = to_string(&x).unwrap();
            assert_eq!(
                from_str::<f32>(&json).unwrap().to_bits(),
                x.to_bits(),
                "{json}"
            );
        }
        // Literals that fit keep their integer kind.
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert_eq!(
            from_str::<f64>("-9223372036854775809").unwrap(),
            -9223372036854775809.0
        );
    }

    #[test]
    fn multibyte_string_before_a_long_array_decodes_unchanged() {
        let key = "caméra-✓-\u{1d11e} \"avant\"".to_string();
        let pixels: Vec<f32> = (0..100_000).map(|i| i as f32 * 1e-3).collect();
        let value = (key, pixels);
        let json = to_string(&value).unwrap();
        assert_eq!(from_str::<(String, Vec<f32>)>(&json).unwrap(), value);
    }

    /// Every finite `f32` through `to_string` and `from_str`, bit for bit.
    /// Minutes in release on two cores:
    /// `cargo test --release -p serde_json -- --ignored`.
    #[test]
    #[ignore]
    fn every_finite_f32_round_trips() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let per = (1u64 << 32).div_ceil(threads as u64);
        let failures: Vec<u32> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads as u64)
                .map(|t| {
                    scope.spawn(move || {
                        let mut bad = Vec::new();
                        let mut json = String::new();
                        let end = ((t + 1) * per).min(1 << 32);
                        for bits in (t * per..end).map(|b| b as u32) {
                            let x = f32::from_bits(bits);
                            if !x.is_finite() {
                                continue;
                            }
                            json.clear();
                            write_f32(&mut json, x);
                            if from_str::<f32>(&json).map(f32::to_bits).ok() != Some(bits) {
                                bad.push(bits);
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("sweep worker"))
                .collect()
        });
        assert!(
            failures.is_empty(),
            "{} failures, first {:08x?}",
            failures.len(),
            &failures[..failures.len().min(8)]
        );
    }
}
