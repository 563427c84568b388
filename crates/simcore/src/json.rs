//! Minimal JSON reading and writing for offline artifacts.
//!
//! The workspace runs without network access and without external crates,
//! but the experiment harness needs durable structured artifacts: shrunk
//! repro plans, fleet specs and fleet traces all live on disk as JSON so
//! they are inspectable with standard tools. This
//! module is a deliberately small value type plus parser/writer pair —
//! just enough JSON for those fixed schemas, with one property the usual
//! float-only implementations lack: **unsigned integers round-trip
//! exactly**. Seeds and nanosecond timestamps are `u64`; routing them
//! through `f64` would corrupt anything above 2^53.
//!
//! Supported: objects, arrays, strings (with escapes), `u64`/`i64`
//! integers, floats, booleans, null. Not supported (rejected on parse):
//! duplicate-key detection, full surrogate-pair decoding (lone `\uXXXX`
//! escapes map to the replacement character outside the BMP pair path).
//!
//! Decoders read fixed schemas through [`Field`], which carries the dotted
//! path from the document root so every error names the bad field.

use crate::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64` (exact round-trip).
    Uint(u64),
    /// A negative integer that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` keeps rendering deterministic: the writer
    /// emits keys in sorted order, so equal values serialize to equal
    /// bytes — repro files are diffable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Uint(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Convenience constructor for objects from `(key, value)` pairs.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Uint(n)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// A value inside a parsed document, with its dotted path from the root
/// (`spec.threads[2]`). Every read is checked, and every error names the
/// path: `missing events[3].vcpu`, `spec.hosts 70000 out of range for u16`.
#[derive(Debug, Clone)]
pub struct Field<'a> {
    json: &'a Json,
    path: String,
}

impl<'a> Field<'a> {
    /// The document root; its members' paths are their bare keys.
    pub fn root(json: &'a Json) -> Field<'a> {
        Field {
            json,
            path: String::new(),
        }
    }

    /// The raw value.
    pub fn json(&self) -> &'a Json {
        self.json
    }

    /// The dotted path from the root.
    pub fn path(&self) -> &str {
        &self.path
    }

    fn wrong(&self, want: &str) -> String {
        format!("{} not {want}", self.path)
    }

    /// Member `key` of this object, or `None` when absent.
    pub fn opt(&self, key: &str) -> Option<Field<'a>> {
        self.get(key).ok()
    }

    /// Required member `key` of this object.
    pub fn get(&self, key: &str) -> Result<Field<'a>, String> {
        let path = match self.path.as_str() {
            "" => key.to_string(),
            parent => format!("{parent}.{key}"),
        };
        match self.json.get(key) {
            Some(json) => Ok(Field { json, path }),
            None => Err(format!("missing {path}")),
        }
    }

    /// The value as a `u64`.
    pub fn u64(&self) -> Result<u64, String> {
        self.json.as_u64().ok_or_else(|| self.wrong("a u64"))
    }

    /// The value as a narrower unsigned integer (`usize`, `u32`, `u16`,
    /// `u8`), rejected rather than truncated when it does not fit.
    pub fn int<T: TryFrom<u64>>(&self) -> Result<T, String> {
        let n = self.u64()?;
        T::try_from(n).map_err(|_| {
            let ty = std::any::type_name::<T>();
            format!("{} {n} out of range for {ty}", self.path)
        })
    }

    /// The value as simulated time, stored as integer nanoseconds.
    pub fn time(&self) -> Result<SimTime, String> {
        self.u64().map(SimTime::from_ns)
    }

    /// The value as a string.
    pub fn str(&self) -> Result<&'a str, String> {
        self.json.as_str().ok_or_else(|| self.wrong("a string"))
    }

    /// The value as an enum variant, looked up by its stable name.
    pub fn name<T>(&self, lookup: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let name = self.str()?;
        lookup(name).ok_or_else(|| format!("unknown {} {name:?}", self.path))
    }

    /// The elements of this array, each at `path[i]`.
    pub fn arr(&self) -> Result<Vec<Field<'a>>, String> {
        let items = self.json.as_arr().ok_or_else(|| self.wrong("an array"))?;
        Ok(items
            .iter()
            .enumerate()
            .map(|(i, json)| Field {
                json,
                path: format!("{}[{i}]", self.path),
            })
            .collect())
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl Json {
    /// Compact, deterministic rendering (sorted object keys, no spaces).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Uint(n) => out.push_str(&n.to_string()),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => {
                if x.is_finite() {
                    // `{:?}` keeps a decimal point / exponent so the value
                    // parses back as a float, never silently as an int.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(m) => {
                out.push('{');
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.msg)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            self.skip_ws();
            v.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let tail = std::str::from_utf8(rest).map_err(|_| self.err("bad utf-8"))?;
                    let c = tail.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Uint(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            at: start,
            msg: format!("bad number '{text}'"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips_exactly() {
        // Above 2^53: would corrupt through f64.
        for n in [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 0] {
            let j = Json::Uint(n);
            let back = Json::parse(&j.render()).unwrap();
            assert_eq!(back.as_u64(), Some(n));
        }
    }

    #[test]
    fn nested_structure_round_trips() {
        let v = Json::obj([
            ("seed", Json::Uint(18446744073709551615)),
            (
                "events",
                Json::Arr(vec![
                    Json::obj([("class", "QuotaChurn".into()), ("at", Json::Uint(12))]),
                    Json::Null,
                ]),
            ),
            ("ok", Json::Bool(true)),
            ("label", "a \"quoted\"\nline\t\\".into()),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Deterministic: rendering is stable byte-for-byte.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "nul",
            "{\"a\":1,}",
            "{} extra",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parses_whitespace_and_floats() {
        let v = Json::parse(" { \"x\" : [ 1.5 , -2 , 3 ] } ").unwrap();
        let arr = v.get("x").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Json::Float(1.5));
        assert_eq!(arr[1], Json::Int(-2));
        assert_eq!(arr[2], Json::Uint(3));
    }

    #[test]
    fn field_errors_name_the_full_path() {
        let doc = r#"{"spec":{"n":70000,"ops":["Crash","Boom"]},"ev":[{"at":1},{}]}"#;
        let doc = Json::parse(doc).unwrap();
        let root = Field::root(&doc);
        let spec = root.get("spec").unwrap();
        let (n, ops) = (spec.get("n").unwrap(), spec.get("ops").unwrap());
        assert_eq!(n.int::<u32>(), Ok(70000));
        assert_eq!(
            n.int::<u16>().unwrap_err(),
            "spec.n 70000 out of range for u16"
        );
        assert_eq!(n.str().unwrap_err(), "spec.n not a string");
        assert_eq!(n.arr().unwrap_err(), "spec.n not an array");
        assert_eq!(ops.u64().unwrap_err(), "spec.ops not a u64");
        let known = |s: &str| (s == "Crash").then_some(());
        let ops = ops.arr().unwrap();
        assert_eq!(ops[0].name(known), Ok(()));
        assert_eq!(
            ops[1].name(known).unwrap_err(),
            r#"unknown spec.ops[1] "Boom""#
        );
        let ev = root.get("ev").unwrap().arr().unwrap();
        assert_eq!(ev[0].get("at").unwrap().time(), Ok(SimTime::from_ns(1)));
        assert_eq!(ev[1].get("vcpu").unwrap_err(), "missing ev[1].vcpu");
        assert!(root.opt("seed").is_none());
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse("\"a\\u0041\\n\"").unwrap();
        assert_eq!(v.as_str(), Some("aA\n"));
    }
}
