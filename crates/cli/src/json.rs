//! A small self-contained JSON layer for the instance format.
//!
//! The build environment vendors no `serde`/`serde_json`, so the spec
//! types serialize through this hand-rolled [`Json`] tree instead. The
//! wire format is byte-compatible with what the previous serde derives
//! produced (adjacent `"kind"` tags, `[resource, time]` tuple arrays,
//! omitted empty labels), so instances written by older builds load
//! unchanged.
//!
//! Integers are kept exact: values without a fraction or exponent that
//! fit `u64` parse to [`Json::UInt`], so `∞`-sentinel durations
//! (`u64::MAX / 4`, not representable in `f64`) round-trip losslessly.
//!
//! Output goes through one streaming writer (`JsonWriter`), the only
//! authority on spelling: pretty and compact layout, separators, string
//! escapes, integer and float forms. [`Json::pretty`] and
//! [`Json::compact`] are tree walks over it, and the instance emitter
//! (`InstanceSpec::to_json_string`) writes through it directly without
//! building a tree. Non-finite floats, which JSON cannot spell, are
//! written as `null`, so every document the writer produces parses.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits `u64`, kept exact.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

/// Parse / shape errors, with a byte offset where applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset into the input (parse errors only).
    pub at: Option<usize>,
}

impl JsonError {
    pub(crate) fn shape(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            at: None,
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "{} (at byte {at})", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a JSON document (must consume the whole input).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation (serde_json style).
    pub fn pretty(&self) -> String {
        let mut w = PrettyWriter::with_capacity(0);
        w.value(self);
        w.finish()
    }

    /// Renders on one line with no whitespace — the NDJSON form (one
    /// document per line, byte-stable for a fixed value).
    pub fn compact(&self) -> String {
        let mut w = CompactWriter::with_capacity(0);
        w.value(self);
        w.finish()
    }

    // ---- typed accessors (shape errors name the missing piece) ----

    /// The object's field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field.
    pub fn require(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::shape(format!("missing field `{key}`")))
    }

    /// This value as a string.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(JsonError::shape(format!("expected string, got {other:?}"))),
        }
    }

    /// This value as a `u64` (exact integers only).
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u),
            other => Err(JsonError::shape(format!(
                "expected unsigned integer, got {other:?}"
            ))),
        }
    }

    /// This value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::UInt(u) => Ok(*u as f64),
            Json::Float(x) => Ok(*x),
            other => Err(JsonError::shape(format!("expected number, got {other:?}"))),
        }
    }

    /// This value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        usize::try_from(self.as_u64()?)
            .map_err(|_| JsonError::shape("integer out of usize range"))
    }

    /// This value as an array.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::shape(format!("expected array, got {other:?}"))),
        }
    }
}

/// The streaming JSON writer: the one place that spells JSON
/// (indentation, separators, string escapes, integer and float forms).
///
/// Values are written in document order straight into a `String`;
/// containers are opened and closed explicitly, and an object member is
/// a [`key`](Self::key) followed by one value. `PRETTY` picks the
/// layout at compile time — two-space indentation with one member per
/// line and `": "` after keys, or the one-line NDJSON form — so the hot
/// path carries no layout branch. [`Json::pretty`] and
/// [`Json::compact`] walk a tree into it; the instance emitter
/// (`InstanceSpec::to_json_string`) walks its spec into it without
/// building a tree.
///
/// The small methods are `#[inline(always)]`: at a call site with a
/// literal key or tag, the escape scan folds away and the copy becomes
/// a few moves instead of a `memcpy` call.
pub(crate) struct JsonWriter<const PRETTY: bool> {
    out: String,
    /// Containers currently open.
    depth: usize,
    /// The next value takes no separator or line break: it is the whole
    /// document, or follows its key.
    bare: bool,
    /// The innermost open container has no member yet.
    empty: bool,
}

/// The indented layout ([`Json::pretty`], `rtt gen` instances).
pub(crate) type PrettyWriter = JsonWriter<true>;
/// The one-line NDJSON layout ([`Json::compact`], report lines).
pub(crate) type CompactWriter = JsonWriter<false>;

/// A pretty line break: the newline, then two spaces per open
/// container (up to seven, in one copy).
const BREAK: &str = "\n               ";

impl<const PRETTY: bool> JsonWriter<PRETTY> {
    /// A writer with `capacity` bytes reserved up front.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(capacity),
            depth: 0,
            bare: true,
            empty: true,
        }
    }

    /// The finished document.
    pub(crate) fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed JSON container");
        self.out
    }

    /// Starts a value: the separator from the previous member and the
    /// pretty line break, unless the value is bare.
    #[inline(always)]
    fn member(&mut self) {
        if std::mem::take(&mut self.bare) {
            return;
        }
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        self.line_break();
    }

    /// A pretty line break at the current depth. Up to seven containers
    /// deep — every instance document — all of [`BREAK`] is copied and
    /// the excess cut off: a copy of constant length compiles to a
    /// couple of moves where one of the exact length is a `memcpy` call.
    #[inline(always)]
    fn line_break(&mut self) {
        if !PRETTY {
            return;
        }
        let width = 1 + 2 * self.depth;
        if width <= BREAK.len() {
            let keep = self.out.len() + width;
            self.out.push_str(BREAK);
            self.out.truncate(keep);
        } else {
            self.out.push('\n');
            for _ in 0..self.depth {
                self.out.push_str("  ");
            }
        }
    }

    #[inline(always)]
    fn open(&mut self, bracket: char) {
        self.member();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    #[inline(always)]
    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty {
            self.line_break();
        }
        self.out.push(bracket);
        self.empty = false;
    }

    /// Opens an object.
    #[inline(always)]
    pub(crate) fn begin_obj(&mut self) {
        self.open('{');
    }

    /// Closes the innermost object.
    #[inline(always)]
    pub(crate) fn end_obj(&mut self) {
        self.close('}');
    }

    /// Opens an array.
    #[inline(always)]
    pub(crate) fn begin_arr(&mut self) {
        self.open('[');
    }

    /// Closes the innermost array.
    #[inline(always)]
    pub(crate) fn end_arr(&mut self) {
        self.close(']');
    }

    /// Writes an object key; the next value written is its member's.
    #[inline(always)]
    pub(crate) fn key(&mut self, k: &str) {
        self.member();
        push_escaped(&mut self.out, k);
        self.out.push_str(if PRETTY { ": " } else { ":" });
        self.bare = true;
    }

    /// Writes `null`.
    pub(crate) fn null(&mut self) {
        self.member();
        self.out.push_str("null");
    }

    /// Writes `true` / `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.member();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// Writes an unsigned integer in decimal, without allocating.
    #[inline(always)]
    pub(crate) fn uint(&mut self, mut u: u64) {
        self.member();
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (u % 10) as u8;
            u /= 10;
            if u == 0 {
                break;
            }
        }
        for &d in &buf[i..] {
            self.out.push(char::from(d));
        }
    }

    /// Writes a float: integral values below `1e15` keep one decimal
    /// (`3.0`), others use the shortest round-trip form, and NaN / ±∞ —
    /// which JSON cannot spell — become `null`.
    pub(crate) fn float(&mut self, x: f64) {
        use std::fmt::Write;
        self.member();
        let written = if !x.is_finite() {
            self.out.push_str("null");
            Ok(())
        } else if x.fract() == 0.0 && x.abs() < 1e15 {
            write!(self.out, "{x:.1}")
        } else {
            write!(self.out, "{x}")
        };
        written.expect("writing to a String cannot fail");
    }

    /// Writes a string, escaped.
    #[inline(always)]
    pub(crate) fn str(&mut self, s: &str) {
        self.member();
        push_escaped(&mut self.out, s);
    }

    /// Writes a whole tree.
    pub(crate) fn value(&mut self, v: &Json) {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::UInt(u) => self.uint(*u),
            Json::Float(x) => self.float(*x),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.begin_arr();
                for item in items {
                    self.value(item);
                }
                self.end_arr();
            }
            Json::Obj(fields) => {
                self.begin_obj();
                for (k, v) in fields {
                    self.key(k);
                    self.value(v);
                }
                self.end_obj();
            }
        }
    }
}

/// Whether byte `b` must be escaped inside a JSON string. Bytes of
/// multi-byte UTF-8 characters are all `>= 0x80`, so they never are.
#[inline(always)]
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Writes `s` as a JSON string literal. A string with nothing to escape
/// — every label the generators make — is copied in one piece.
#[inline(always)]
fn push_escaped(out: &mut String, s: &str) {
    if s.bytes().any(needs_escape) {
        push_escaped_slow(out, s);
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// [`push_escaped`] for a string that needs escapes: runs between them
/// are still copied whole, and every split lands on an ASCII byte, so
/// on a character boundary.
#[inline(never)]
fn push_escaped_slow(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            msg: msg.to_string(),
            at: Some(self.pos),
        }
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

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // fast path: run of plain bytes
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the
                            // instance format; reject them loudly.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("unsupported \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape character")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
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
            .expect("ascii digits are valid UTF-8");
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let text = r#"{"form":"node","nodes":[{"label":"s","n":0}],"edges":[[0,10],[4,0]],"ok":true,"none":null,"f":1.5}"#;
        let v = Json::parse(text).unwrap();
        let back = Json::parse(&v.pretty()).unwrap();
        assert_eq!(v, back);
        assert_eq!(v.get("form").unwrap().as_str().unwrap(), "node");
        assert_eq!(
            v.get("edges").unwrap().as_arr().unwrap()[0]
                .as_arr()
                .unwrap()[1]
                .as_u64()
                .unwrap(),
            10
        );
    }

    #[test]
    fn compact_is_one_line_and_round_trips() {
        let text = r#"{"form":"node","nodes":[{"label":"s","n":0}],"edges":[[0,10],[4,0]],"ok":true,"none":null,"f":1.5}"#;
        let v = Json::parse(text).unwrap();
        let line = v.compact();
        assert!(!line.contains('\n') && !line.contains(' '), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(line, text, "compact matches canonical NDJSON spelling");
    }

    #[test]
    fn huge_integers_exact() {
        let big = u64::MAX / 4;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v, Json::UInt(big));
        assert_eq!(Json::parse(&v.pretty()).unwrap(), Json::UInt(big));
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_write_parseable_null() {
        let nan = Json::Float(f64::NAN).compact();
        assert_eq!(Json::parse(&nan).unwrap(), Json::Null);
        let inf = Json::Float(f64::INFINITY).pretty();
        assert_eq!(Json::parse(&inf).unwrap(), Json::Null);
        let doc = Json::Obj(vec![("x".into(), Json::Float(f64::NEG_INFINITY))]);
        assert_eq!(doc.compact(), r#"{"x":null}"#);
        assert!(Json::parse(&doc.pretty()).is_ok());
    }

    #[test]
    fn layouts_spell_containers_and_numbers() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![])),
            ("o".into(), Json::Obj(vec![])),
            (
                "n".into(),
                Json::Arr(vec![Json::UInt(0), Json::UInt(u64::MAX), Json::Float(3.0)]),
            ),
            ("f".into(), Json::Float(0.25)),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"a":[],"o":{},"n":[0,18446744073709551615,3.0],"f":0.25}"#
        );
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [],\n  \"o\": {},\n  \"n\": [\n    0,\n    \
             18446744073709551615,\n    3.0\n  ],\n  \"f\": 0.25\n}"
        );
        assert_eq!(Json::Arr(vec![]).pretty(), "[]");
        // nesting past the single-copy indent depth spells the same way
        let mut deep = Json::UInt(1);
        let mut want = String::from("1");
        for level in (0..12).rev() {
            deep = Json::Arr(vec![deep]);
            let (outer, inner) = ("  ".repeat(level), "  ".repeat(level + 1));
            want = format!("[\n{inner}{want}\n{outer}]");
        }
        assert_eq!(deep.pretty(), want);
        assert_eq!(
            Json::Str("é\"\\\n\r\t\u{1}\u{1f}/".into()).compact(),
            r#""é\"\\\n\r\t\u0001\u001f/""#
        );
    }

    #[test]
    fn errors_carry_position() {
        let e = Json::parse("{\"a\": }").unwrap_err();
        assert!(e.at.is_some());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(Json::parse("-3").unwrap(), Json::Float(-3.0));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Float(250.0));
        assert_eq!(Json::parse("7").unwrap(), Json::UInt(7));
    }
}
