//! The workspace's one JSON reader and writer.
//!
//! The workspace carries no external dependencies, so every JSON document
//! it reads or writes goes through this module: the portfolio report
//! ([`PortfolioReport::to_json`](crate::PortfolioReport::to_json)),
//! `np-serve`'s wire frames (re-exported as `np_serve::json`) and the
//! bench records. The recursive-descent parser is deliberately
//! defensive — `np-serve`'s request bytes come from the network:
//!
//! * nesting depth is capped ([`MAX_DEPTH`]) so a `[[[[…` bomb cannot
//!   overflow the stack;
//! * every string passes through one escaping routine ([`escape`]) on
//!   the way out, so attacker-controlled text (netlist names, panic
//!   messages) can never break the framing of a response line;
//! * numbers are plain `f64` — the protocol has no use for integers
//!   outside `u64`/`usize` ranges exactly representable in a double.
//!
//! Object keys keep their insertion order (a `Vec` of pairs, not a map):
//! documents render deterministically on one line and duplicate keys are
//! rejected at parse time.

use std::fmt;

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order, duplicate keys rejected.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one
    /// exactly (rejects fractions, negatives and out-of-range doubles).
    pub fn as_u64(&self) -> Option<u64> {
        let x = self.as_f64()?;
        if x.is_finite() && x >= 0.0 && x <= 2f64.powi(53) && x.fract() == 0.0 {
            Some(x as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object's keys, if this is an object.
    pub fn keys(&self) -> Option<Vec<&str>> {
        match self {
            Value::Object(pairs) => Some(pairs.iter().map(|(k, _)| k.as_str()).collect()),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            at: self.pos,
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Number(x)),
            _ => Err(self.err(format!("invalid number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid; copy it wholesale
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parses the 4 hex digits after `\u`, joining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // high surrogate: require a low surrogate right after
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn array(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Renders `s` as a JSON string literal (quotes included), escaping
/// quotes, backslashes and control characters.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// An incrementally built single-line JSON object. Values added through
/// the typed methods are escaped/rendered at insertion; keys are trusted
/// identifiers chosen by the caller (no escaping is performed).
#[derive(Clone, Debug, Default)]
pub struct Obj {
    fields: Vec<(&'static str, String)>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    /// Adds a string field (escaped).
    #[must_use]
    pub fn str(mut self, key: &'static str, value: &str) -> Self {
        self.fields.push((key, escape(value)));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// Adds a float field (non-finite renders as `null`).
    #[must_use]
    pub fn num(mut self, key: &'static str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value:e}")
        } else {
            "null".to_string()
        };
        self.fields.push((key, rendered));
        self
    }

    /// Adds a `null` field (an absent value).
    #[must_use]
    pub fn null(mut self, key: &'static str) -> Self {
        self.fields.push((key, "null".to_string()));
        self
    }

    /// Adds an already-rendered JSON fragment (an object built by the
    /// caller from another [`Obj`]).
    #[must_use]
    pub fn raw(mut self, key: &'static str, fragment: String) -> Self {
        self.fields.push((key, fragment));
        self
    }

    /// Adds an array field whose elements are already-rendered JSON
    /// fragments (numbers, escaped strings, rendered [`Obj`]s), in order.
    #[must_use]
    pub fn array(mut self, key: &'static str, items: impl IntoIterator<Item = String>) -> Self {
        let items: Vec<String> = items.into_iter().collect();
        self.fields.push((key, format!("[{}]", items.join(","))));
        self
    }

    /// Renders the object as one line (no trailing newline).
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"id":"r1","nums":[1,2,3],"cfg":{"deep":true},"x":null}"#).unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(
            v.get("nums"),
            Some(&Value::Array(vec![
                Value::Number(1.0),
                Value::Number(2.0),
                Value::Number(3.0)
            ]))
        );
        assert_eq!(
            v.get("cfg")
                .and_then(|c| c.get("deep"))
                .and_then(Value::as_bool),
            Some(true)
        );
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ \u{1} caf\u{e9} \u{1F600}";
        let wire = escape(original);
        let back = parse(&wire).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pairs_join() {
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn depth_bomb_rejected() {
        let bomb = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = parse(&bomb).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        // a document at the cap parses fine
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn malformed_documents_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "nan",
            "1e999",
            "\"bad \u{7}\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn escape_table() {
        // (raw, escaped): quotes, backslashes, raw control characters and
        // path-like backslash runs are escaped; non-ASCII passes through
        let table = [
            ("", r#""""#),
            ("weird \"label\"\n", r#""weird \"label\"\n""#),
            (
                "evil\"},{\"x\u{0}\u{1f}\\path\tend",
                r#""evil\"},{\"x\u0000\u001f\\path\tend""#,
            ),
            (
                "panicked at 'boom\nline two'\r\u{7}",
                r#""panicked at 'boom\nline two'\r\u0007""#,
            ),
            (
                "line1\nline2\t\"quoted\" \\ \u{1} caf\u{e9} \u{1F600}",
                "\"line1\\nline2\\t\\\"quoted\\\" \\\\ \\u0001 caf\u{e9} \u{1F600}\"",
            ),
            ("ci\\runner \"eu-1\"", r#""ci\\runner \"eu-1\"""#),
            ("bm\n\u{1}end", r#""bm\n\u0001end""#),
        ];
        for (raw, escaped) in table {
            let got = escape(raw);
            assert_eq!(got, escaped, "{raw:?}");
            assert!(got.chars().all(|c| (c as u32) >= 0x20), "{got}");
            // the escaping round-trips through the parser
            assert_eq!(parse(&got).unwrap().as_str(), Some(raw));
        }
    }

    #[test]
    fn obj_renders_one_line() {
        let line = Obj::new()
            .str("id", "a\"b")
            .int("n", 3)
            .bool("ok", true)
            .num("ratio", 0.125)
            .num("bad", f64::NAN)
            .null("absent")
            .raw("inner", Obj::new().int("k", 1).render())
            .array("list", [1, 2].map(|i: u64| i.to_string()))
            .array("empty", Vec::new())
            .render();
        assert_eq!(
            line,
            r#"{"id":"a\"b","n":3,"ok":true,"ratio":1.25e-1,"bad":null,"absent":null,"inner":{"k":1},"list":[1,2],"empty":[]}"#
        );
        assert!(parse(&line).is_ok());
        assert!(!line.contains('\n'));
    }
}
