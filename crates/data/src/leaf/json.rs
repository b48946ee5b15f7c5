//! Minimal streaming JSON reader for the LEAF on-disk format.
//!
//! The workspace has no JSON crate (the build environment is offline), so
//! this file implements the subset of JSON the LEAF format needs —
//! strings (with escapes), numbers, booleans, null, arrays and objects —
//! as a byte-at-a-time reader over any [`BufRead`]. The top-level LEAF
//! parse in [`super`] iterates object keys *without* materializing the
//! whole file, so memory stays bounded by one user's subtree rather than
//! the corpus.
//!
//! Robustness contract (property-tested in `tests/leaf_malformed.rs`):
//! every input — including arbitrary bytes — produces `Ok` or a typed
//! [`LeafError`], never a panic. Nesting is depth-limited so adversarial
//! `[[[[…` streams error out instead of overflowing the stack, and numbers
//! that overflow to ±∞ (e.g. `1e999`) are rejected as
//! [`LeafError::NonFinite`] rather than silently saturating.

use super::LeafError;
use std::io::BufRead;

/// Maximum value-nesting depth the reader accepts. LEAF needs 4 levels
/// (`object → user_data → user → x → row`); 64 leaves generous headroom
/// while keeping recursion safely inside the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON subtree (used for per-user payloads; the top level of a
/// LEAF file is streamed key-by-key instead).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always finite; overflow is a parse error).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in key order of appearance.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The value's JSON type name (for schema error messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// Borrows the elements if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Borrows the text if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up `key` if this is an object (first occurrence wins).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Byte-at-a-time JSON reader with single-byte lookahead and line/column
/// tracking for error messages.
pub struct JsonReader<R: BufRead> {
    src: R,
    peeked: Option<u8>,
    line: usize,
    col: usize,
}

impl<R: BufRead> JsonReader<R> {
    /// Wraps a buffered reader positioned at the start of a JSON document.
    pub fn new(src: R) -> Self {
        JsonReader {
            src,
            peeked: None,
            line: 1,
            col: 1,
        }
    }

    /// Current `(line, column)` of the next unconsumed byte.
    pub fn position(&self) -> (usize, usize) {
        (self.line, self.col)
    }

    /// Builds a [`LeafError::Parse`] at the current position.
    pub fn error(&self, msg: impl Into<String>) -> LeafError {
        LeafError::Parse {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn peek(&mut self) -> Result<Option<u8>, LeafError> {
        if self.peeked.is_none() {
            let mut buf = [0u8; 1];
            let n = self.src.read(&mut buf).map_err(LeafError::Io)?;
            if n == 1 {
                self.peeked = Some(buf[0]);
            }
        }
        Ok(self.peeked)
    }

    fn bump(&mut self) -> Result<Option<u8>, LeafError> {
        let b = self.peek()?;
        self.peeked = None;
        match b {
            Some(b'\n') => {
                self.line += 1;
                self.col = 1;
            }
            Some(_) => self.col += 1,
            None => {}
        }
        Ok(b)
    }

    /// Consumes whitespace.
    pub fn skip_ws(&mut self) -> Result<(), LeafError> {
        while let Some(b) = self.peek()? {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.bump()?;
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Consumes whitespace, then exactly the byte `want`.
    pub fn expect(&mut self, want: u8) -> Result<(), LeafError> {
        self.skip_ws()?;
        match self.bump()? {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(self.error(format!(
                "expected '{}', found '{}'",
                want as char,
                printable(b)
            ))),
            None => Err(self.error(format!("expected '{}', found end of input", want as char))),
        }
    }

    /// After the document, only whitespace may remain.
    pub fn expect_eof(&mut self) -> Result<(), LeafError> {
        self.skip_ws()?;
        match self.peek()? {
            None => Ok(()),
            Some(b) => Err(self.error(format!("trailing content '{}'", printable(b)))),
        }
    }

    /// Streams the next key of the object currently being read. `first`
    /// must start `true` right after the opening `{` was consumed (via
    /// [`JsonReader::expect`]); the reader flips it. Returns `None` when
    /// the closing `}` is consumed. The caller parses the value after each
    /// `Some(key)` — the separating `:` is already consumed.
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<String>, LeafError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b'}') => {
                self.bump()?;
                Ok(None)
            }
            Some(b',') if !*first => {
                self.bump()?;
                self.key_and_colon().map(Some)
            }
            Some(_) if *first => {
                *first = false;
                self.key_and_colon().map(Some)
            }
            Some(b) => Err(self.error(format!(
                "expected ',' or '}}' after object member, found '{}'",
                printable(b)
            ))),
            None => Err(self.error("unterminated object")),
        }
    }

    fn key_and_colon(&mut self) -> Result<String, LeafError> {
        self.expect(b'"')?;
        let key = self.parse_string_body()?;
        self.expect(b':')?;
        Ok(key)
    }

    /// Signals whether another array element follows. `first` must start
    /// `true` right after the opening `[` was consumed. Returns `false`
    /// when the closing `]` is consumed.
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, LeafError> {
        self.skip_ws()?;
        match self.peek()? {
            Some(b']') => {
                self.bump()?;
                Ok(false)
            }
            Some(b',') if !*first => {
                self.bump()?;
                Ok(true)
            }
            Some(_) if *first => {
                *first = false;
                Ok(true)
            }
            Some(b) => Err(self.error(format!(
                "expected ',' or ']' after array element, found '{}'",
                printable(b)
            ))),
            None => Err(self.error("unterminated array")),
        }
    }

    /// Parses one complete value (recursive, depth-limited).
    pub fn parse_value(&mut self, depth: usize) -> Result<JsonValue, LeafError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_ws()?;
        match self.peek()? {
            None => Err(self.error("unexpected end of input")),
            Some(b'{') => {
                self.bump()?;
                let mut entries = Vec::new();
                let mut first = true;
                while let Some(key) = self.next_key(&mut first)? {
                    let value = self.parse_value(depth + 1)?;
                    entries.push((key, value));
                }
                Ok(JsonValue::Object(entries))
            }
            Some(b'[') => {
                self.bump()?;
                let mut items = Vec::new();
                let mut first = true;
                while self.next_element(&mut first)? {
                    items.push(self.parse_value(depth + 1)?);
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => {
                self.bump()?;
                self.parse_string_body().map(JsonValue::String)
            }
            Some(b't') => {
                self.literal("true")?;
                Ok(JsonValue::Bool(true))
            }
            Some(b'f') => {
                self.literal("false")?;
                Ok(JsonValue::Bool(false))
            }
            Some(b'n') => {
                self.literal("null")?;
                Ok(JsonValue::Null)
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                self.parse_number().map(JsonValue::Number)
            }
            Some(b) => Err(self.error(format!("unexpected '{}'", printable(b)))),
        }
    }

    fn literal(&mut self, word: &'static str) -> Result<(), LeafError> {
        for want in word.bytes() {
            match self.bump()? {
                Some(b) if b == want => {}
                _ => return Err(self.error(format!("invalid literal (expected `{word}`)"))),
            }
        }
        Ok(())
    }

    /// Parses a number. Values that overflow `f64` (e.g. `1e999`) are
    /// rejected as [`LeafError::NonFinite`]; `NaN`/`Infinity` are not JSON
    /// and fail at the literal stage already.
    pub fn parse_number(&mut self) -> Result<f64, LeafError> {
        let (line, col) = self.position();
        let mut text = String::new();
        while let Some(b) = self.peek()? {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                text.push(b as char);
                self.bump()?;
            } else {
                break;
            }
        }
        let n: f64 = text.parse().map_err(|_| LeafError::Parse {
            line,
            col,
            msg: format!("invalid number `{text}`"),
        })?;
        if !n.is_finite() {
            return Err(LeafError::NonFinite { line, col });
        }
        Ok(n)
    }

    /// Parses a string body; the opening `"` must already be consumed.
    pub fn parse_string_body(&mut self) -> Result<String, LeafError> {
        let mut out: Vec<u8> = Vec::new();
        loop {
            match self.bump()? {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => {
                    let esc = self
                        .bump()?
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    match esc {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let c = self.parse_unicode_escape()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => {
                            return Err(
                                self.error(format!("invalid escape '\\{}'", printable(other)))
                            )
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(b) => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not valid UTF-8"))
    }

    fn hex4(&mut self) -> Result<u32, LeafError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()?
                .ok_or_else(|| self.error("unterminated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_unicode_escape(&mut self) -> Result<char, LeafError> {
        let hi = self.hex4()?;
        let code = if (0xD800..=0xDBFF).contains(&hi) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.bump()? != Some(b'\\') || self.bump()? != Some(b'u') {
                return Err(self.error("high surrogate not followed by \\u low surrogate"));
            }
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.error("\\u escape is not a valid scalar value"))
    }
}

fn printable(b: u8) -> String {
    if (0x20..0x7F).contains(&b) {
        (b as char).to_string()
    } else {
        format!("\\x{b:02x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(s: &str) -> Result<JsonValue, LeafError> {
        let mut r = JsonReader::new(Cursor::new(s.as_bytes()));
        let v = r.parse_value(0)?;
        r.expect_eof()?;
        Ok(v)
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), JsonValue::Number(-1250.0));
        assert_eq!(
            parse("\"a b\"").unwrap(),
            JsonValue::String("a b".to_string())
        );
    }

    #[test]
    fn containers_parse() {
        let v = parse(r#"{"x": [1, 2, [3]], "y": {"z": false}}"#).unwrap();
        assert_eq!(
            v.get("x").unwrap().as_array().unwrap()[2],
            JsonValue::Array(vec![JsonValue::Number(3.0)])
        );
        assert_eq!(
            v.get("y").unwrap().get("z").unwrap(),
            &JsonValue::Bool(false)
        );
    }

    #[test]
    fn escapes_decode() {
        assert_eq!(
            parse(r#""a\n\t\"\\Aé😀""#).unwrap(),
            JsonValue::String("a\n\t\"\\Aé😀".to_string())
        );
    }

    #[test]
    fn overflow_is_nonfinite_error() {
        assert!(matches!(parse("1e999"), Err(LeafError::NonFinite { .. })));
        assert!(matches!(parse("-1e999"), Err(LeafError::NonFinite { .. })));
    }

    #[test]
    fn nan_is_a_parse_error() {
        assert!(matches!(parse("NaN"), Err(LeafError::Parse { .. })));
        assert!(matches!(parse("Infinity"), Err(LeafError::Parse { .. })));
    }

    #[test]
    fn deep_nesting_errors_without_overflow() {
        let s = "[".repeat(100_000);
        assert!(matches!(parse(&s), Err(LeafError::Parse { .. })));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("1 2").is_err());
        assert!(parse("{} x").is_err());
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        match parse("{\n  \"a\": @\n}") {
            Err(LeafError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
