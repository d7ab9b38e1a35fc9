//! A hand-rolled JSON value: writer and parser.
//!
//! The build environment is offline (no `serde`), and the harness needs
//! both directions — emission for `results.json`, parsing so tests can
//! round-trip what was emitted. Integers and floats are kept distinct
//! ([`Json::Int`] vs [`Json::Num`]) so `u64` counters survive without
//! passing through `f64`. Objects preserve insertion order, which keeps
//! emitted files diffable and lets tests walk the schema deterministically.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (emitted without a decimal point).
    Int(i64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Error from [`Json::parse`], with a byte offset into the input.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Deepest nesting of arrays and objects [`Json::parse`] accepts.
    /// The parser recurses once per level, so the cap keeps hostile
    /// input from overflowing the stack; the deepest document this
    /// repository writes nests 8 levels.
    pub const MAX_DEPTH: usize = 128;

    /// Creates an empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds or replaces a field on an object (no-op on non-objects).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        if let Json::Obj(fields) = self {
            let value = value.into();
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                fields.push((key.to_string(), value));
            }
        }
        self
    }

    /// Builder-style [`Json::set`].
    #[must_use]
    pub fn with(mut self, key: &str, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Field lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a u64 (non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an f64 (accepts both number forms).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(i) => Some(*i as f64),
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
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[allow(
        clippy::inherent_to_string,
        reason = "compact serialization writes straight into a `String`; `Json` has no \
                  `Display` impl to route it through"
    )]
    pub fn to_string(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Appends `s` to `out` as a JSON string literal, escaped exactly as
    /// the writer escapes every string value and key — for callers that
    /// splice already-serialized JSON into a document of their own.
    pub fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            out.push_str(s);
            out.push('"');
            return;
        }
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str("\\u");
                    push_display(out, format_args!("{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => push_display(out, i),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest round-trip form; force a
                    // decimal point so the value parses back as Num.
                    let start = out.len();
                    push_display(out, v);
                    if !out[start..].contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => Json::write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    Json::write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// including nesting deeper than [`Json::MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        Json::parse_bytes(input.as_bytes())
    }

    /// Parses a JSON document from raw bytes, validating UTF-8 inside
    /// strings as it goes (every byte outside a string must be ASCII
    /// syntax anyway), so a body read off the wire needs no separate
    /// UTF-8 pass.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with a byte offset on malformed input,
    /// including invalid UTF-8 inside a string and nesting deeper than
    /// [`Json::MAX_DEPTH`].
    pub fn parse_bytes(input: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input,
            pos: 0,
            fields: Vec::new(),
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            for _ in 0..w * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

/// Appends `v`'s `Display` form to `out` without a temporary `String`.
fn push_display(out: &mut String, v: impl fmt::Display) {
    #[expect(
        clippy::let_underscore_must_use,
        reason = "formatting into a `String` never fails: its `fmt::Write` impl is \
                  infallible and the std number formatters return no errors"
    )]
    let _ = write!(out, "{v}");
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    /// Counters above `i64::MAX` (never reached in practice) saturate.
    fn from(u: u64) -> Json {
        Json::Int(i64::try_from(u).unwrap_or(i64::MAX))
    }
}

impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::Int(i64::from(u))
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::from(u as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
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

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Fields of the objects being parsed, innermost last: each object
    /// moves its own off the top when it closes, into a `Vec` of exactly
    /// their number, instead of growing a `Vec` of its own field by field.
    fields: Vec<(String, Json)>,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
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

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// Parses one value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == Json::MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {} levels", Json::MAX_DEPTH)))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(Vec::new()));
        }
        let base = self.fields.len();
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            self.fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(self.fields.split_off(base)));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step,
            // validating its UTF-8 once. An invalid sequence is reported
            // one byte past its start, where a char-by-char decode stops.
            let start = self.pos;
            let rest = self.bytes.get(start..).unwrap_or_default();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            match std::str::from_utf8(&rest[..run]) {
                Ok(text) => out.push_str(text),
                Err(e) => {
                    self.pos = start + e.valid_up_to() + 1;
                    return Err(self.err("invalid UTF-8"));
                }
            }
            self.pos = start + run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xd800..0xdc00).contains(&hi) {
                        // Surrogate pair.
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return Err(self.err("invalid unicode escape")),
                    }
                }
                _ => return Err(self.err("invalid escape")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let (mut int, mut digits) = (0i64, 0usize);
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            int = int.wrapping_mul(10).wrapping_add(i64::from(d - b'0'));
            digits += 1;
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // At most 18 digits cannot overflow an i64.
        if !is_float && (1..=18).contains(&digits) {
            return Ok(Json::Int(if negative { -int } else { int }));
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::Int(-42), "-42"),
            (Json::Str("hi".into()), "\"hi\""),
        ] {
            assert_eq!(v.to_string(), s);
            assert_eq!(Json::parse(s).unwrap(), v);
        }
    }

    #[test]
    fn floats_keep_a_decimal_point() {
        assert_eq!(Json::Num(2.0).to_string(), "2.0");
        assert_eq!(Json::parse("2.0").unwrap(), Json::Num(2.0));
        assert_eq!(Json::parse("2").unwrap(), Json::Int(2));
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn large_u64_counters_survive() {
        let v = Json::from(1u64 << 62);
        assert_eq!(v.as_u64(), Some(1u64 << 62));
        let round = Json::parse(&v.to_string()).unwrap();
        assert_eq!(round.as_u64(), Some(1u64 << 62));
    }

    #[test]
    fn string_escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t ctrl \u{1} unicode ümlaut 🚀";
        let v = Json::Str(nasty.to_string());
        let s = v.to_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
    }

    #[test]
    fn unicode_escape_and_surrogates_parse() {
        assert_eq!(
            Json::parse("\"\\u00fc\\ud83d\\ude80\"").unwrap(),
            Json::Str("ü🚀".into())
        );
    }

    #[test]
    fn multibyte_chars_at_input_edges_parse() {
        // A 4-byte char right before the closing quote exercises the
        // bounded decode window at the end of the document.
        for s in ["🚀", "aé", "🚀🚀", "x\u{10FFFF}"] {
            let doc = format!("\"{s}\"");
            assert_eq!(Json::parse(&doc).unwrap(), Json::Str(s.into()), "{s}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj()
            .with(
                "a",
                Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::Null]),
            )
            .with("b", Json::obj().with("inner", "x"));
        let compact = v.to_string();
        let pretty = v.to_string_pretty();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::obj().with("z", 1u64).with("a", 2u64);
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
    }

    #[test]
    fn set_replaces_existing_key() {
        let mut v = Json::obj().with("k", 1u64);
        v.set("k", 9u64);
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(9));
        assert_eq!(v.as_obj().unwrap().len(), 1);
    }

    #[test]
    fn malformed_inputs_error_with_offset() {
        for bad in [
            "{",
            "[1,",
            "\"unterminated",
            "{\"k\" 1}",
            "tru",
            "1 2",
            "{\"k\":}",
            &"[".repeat(Json::MAX_DEPTH + 1),
        ] {
            let e = Json::parse(bad).expect_err(bad);
            assert!(e.offset <= bad.len());
        }
        // Errors inside a string that follow a run of plain ASCII keep
        // the offsets a char-by-char decode reports: the end of input
        // for an unterminated string or escape, one byte past the start
        // of an invalid UTF-8 sequence.
        let run = "a".repeat(40);
        let cases: [(Vec<u8>, usize, &str); 6] = [
            (format!("\"{run}").into_bytes(), 41, "unterminated string"),
            (
                format!("[\"{run}\\").into_bytes(),
                43,
                "unterminated escape",
            ),
            (
                [b"\"", run.as_bytes(), b"\xff\""].concat(),
                42,
                "invalid UTF-8",
            ),
            (
                [b"{\"", run.as_bytes(), b"\xe2\x82"].concat(),
                43,
                "invalid UTF-8",
            ),
            (
                [b"\"", run.as_bytes(), "é".as_bytes(), b"\x80\""].concat(),
                44,
                "invalid UTF-8",
            ),
            (
                [b"\"", run.as_bytes(), b"\\n\xc3\x28\""].concat(),
                44,
                "invalid UTF-8",
            ),
        ];
        for (bad, offset, message) in cases {
            let e = Json::parse_bytes(&bad).expect_err(message);
            assert_eq!((e.offset, e.message.as_str()), (offset, message), "{bad:?}");
        }
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // MAX_DEPTH levels of arrays and objects parse.
        let half = Json::MAX_DEPTH / 2;
        let deepest = format!("{}0{}", "[{\"k\":".repeat(half), "}]".repeat(half));
        assert!(Json::parse(&deepest).is_ok());
        // One more level fails at the bracket that opens it, so 200,000
        // of them cannot overflow even a 2 MiB thread's stack.
        let too_deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(200_000)))
            .unwrap()
            .join()
            .unwrap();
        let e = too_deep.expect_err("nesting past the cap");
        assert_eq!(
            (e.offset, e.message.as_str()),
            (Json::MAX_DEPTH, "nesting deeper than 128 levels")
        );
    }

    #[test]
    fn a_real_simulation_cell_round_trips_byte_for_byte() {
        // `SimStats::to_json()` and `SimDists::to_json()` of one quick-suite
        // cell, as the serve cache stores and the client receives them.
        let text = include_str!("testdata/cell.json").trim_end();
        let cell = Json::parse(text).unwrap();
        assert_eq!(cell.to_string(), text);
        assert!(cell.get("stats").and_then(|s| s.get("counters")).is_some());
        assert!(cell
            .get("dists")
            .and_then(|d| d.get("sampled_ipc"))
            .is_some());
        let pretty = cell.to_string_pretty();
        assert_eq!(Json::parse(&pretty).unwrap().to_string_pretty(), pretty);
        assert_eq!(Json::parse_bytes(pretty.as_bytes()).unwrap(), cell);
    }

    #[test]
    fn strings_mixing_ascii_runs_escapes_and_multibyte_round_trip() {
        let run = "x".repeat(48);
        // Multibyte chars at both edges of every ASCII run, next to and
        // between escapes, and as the first and last char of a string.
        let texts = [
            format!("\"é{run}🚀\""),
            format!("\"{run}\\\"ü\\\\{run}\\n\""),
            format!("\"🚀\\t{run}\\u0001€\\u001f{run}ß\""),
            format!("{{\"{run}é\":\"\\r\\b\\f/{run}\",\"ключ\":[\"{run}\",\"日本\"]}}"),
        ];
        for text in &texts {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(&v.to_string(), text);
        }
        assert_eq!(
            Json::parse(&texts[1]).unwrap(),
            Json::Str(format!("{run}\"ü\\{run}\n"))
        );
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).unwrap().len(), 2);
    }
}
