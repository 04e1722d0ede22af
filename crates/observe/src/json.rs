//! The JSON value tree and parser behind the [codec](crate::Json).
//!
//! A [`Value`] tree, [`from_str`] / [`Value::to_string`], and a
//! [`StreamDeserializer`] over line-delimited JSON. Numbers are kept as
//! `f64` with a separate integer fast path via [`Value::as_u64`] /
//! [`Value::as_i64`], which is exact for the counter magnitudes the
//! simulator emits (< 2^53). The parser is recursive, so nesting is capped
//! at [`MAX_DEPTH`]: a body of 100 000 `[` is a parse error, not a stack
//! overflow.

use std::collections::BTreeMap;
use std::fmt;
use std::str::Chars;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is normalized (sorted), which is fine for
    /// round-trip equality but is not the order the text had.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::String(s) => write_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(map) => {
                f.write_str("{")?;
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal (quoted, escaped) — the one
/// escaper, shared by [`Value`]'s `Display` and the codec's writers.
pub(crate) fn write_escaped<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Deepest array/object nesting [`from_str`] accepts. The deepest record
/// the simulator writes nests three levels; the cap only has to keep the
/// recursive parser inside its stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A parse error with a byte-offset-free, human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Parses one complete JSON value from `input`, rejecting trailing
/// non-whitespace.
///
/// # Errors
///
/// Returns an [`Error`] describing the first malformed construct.
pub fn from_str(input: &str) -> Result<Value, Error> {
    let mut parser = Parser::new(input);
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.peek().is_some() {
        return Err(Error::new("trailing characters after value"));
    }
    Ok(value)
}

/// Streaming deserializer over whitespace-separated JSON values, which is
/// what validates line-delimited JSON (JSONL) streams.
pub struct StreamDeserializer<'a> {
    parser: Parser<'a>,
    failed: bool,
}

impl<'a> StreamDeserializer<'a> {
    /// Starts streaming values out of `input`.
    pub fn new(input: &'a str) -> Self {
        StreamDeserializer {
            parser: Parser::new(input),
            failed: false,
        }
    }
}

impl Iterator for StreamDeserializer<'_> {
    type Item = Result<Value, Error>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        self.parser.skip_whitespace();
        self.parser.peek()?;
        let result = self.parser.parse_value();
        if result.is_err() {
            self.failed = true;
        }
        Some(result)
    }
}

/// Recursive-descent JSON parser over a char iterator with one lookahead.
struct Parser<'a> {
    chars: Chars<'a>,
    lookahead: Option<char>,
    /// Arrays and objects currently open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            chars: input.chars(),
            lookahead: None,
            depth: 0,
        }
    }

    fn peek(&mut self) -> Option<char> {
        if self.lookahead.is_none() {
            self.lookahead = self.chars.next();
        }
        self.lookahead
    }

    fn bump(&mut self) -> Option<char> {
        self.peek();
        self.lookahead.take()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), Error> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(Error::new(format!("expected '{want}', found '{c}'"))),
            None => Err(Error::new(format!("expected '{want}', found end of input"))),
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_whitespace();
        match self.peek() {
            Some('{') => self.nested(Self::parse_object),
            Some('[') => self.nested(Self::parse_array),
            Some('"') => Ok(Value::String(self.parse_string()?)),
            Some('t') => self.parse_keyword("true", Value::Bool(true)),
            Some('f') => self.parse_keyword("false", Value::Bool(false)),
            Some('n') => self.parse_keyword("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!("unexpected character '{c}'"))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        for expected in word.chars() {
            match self.bump() {
                Some(c) if c == expected => {}
                _ => return Err(Error::new(format!("malformed keyword (expected '{word}')"))),
            }
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let mut text = String::new();
        if self.peek() == Some('-') {
            text.push(self.bump().expect("peeked"));
        }
        let mut any_digits = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-') {
                any_digits |= c.is_ascii_digit();
                text.push(self.bump().expect("peeked"));
            } else {
                break;
            }
        }
        if !any_digits {
            return Err(Error::new("malformed number"));
        }
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| Error::new(format!("malformed number '{text}'")))
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let digit = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| Error::new("malformed \\u escape"))?;
                            code = code * 16 + digit;
                        }
                        // Surrogate pairs are not produced by our writers;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(Error::new("malformed escape sequence")),
                },
                Some(c) => out.push(c),
                None => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(Value::Array(items)),
                _ => return Err(Error::new("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(Value::Object(map)),
                _ => return Err(Error::new("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str(" false ").unwrap(), Value::Bool(false));
        assert_eq!(from_str("42").unwrap(), Value::Number(42.0));
        assert_eq!(from_str("-1.5e3").unwrap(), Value::Number(-1500.0));
        assert_eq!(from_str("\"hi\"").unwrap(), Value::String("hi".into()));
    }

    #[test]
    fn structures_round_trip() {
        let text = r#"{"b":[1,2,{"x":null}],"a":"q\"uo\\te","n":-0.25,"t":true}"#;
        let value = from_str(text).unwrap();
        assert_eq!(value.get("n").unwrap().as_f64(), Some(-0.25));
        assert_eq!(value.get("a").unwrap().as_str(), Some("q\"uo\\te"));
        assert_eq!(value.get("b").unwrap().as_array().unwrap().len(), 3);
        // to_string -> from_str is the identity on the value tree.
        assert_eq!(from_str(&value.to_string()).unwrap(), value);
    }

    #[test]
    fn integer_accessors() {
        assert_eq!(
            from_str("18446744073709").unwrap().as_u64(),
            Some(18_446_744_073_709)
        );
        assert_eq!(from_str("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(from_str("-3").unwrap().as_u64(), None);
        assert_eq!(from_str("1.5").unwrap().as_u64(), None);
    }

    #[test]
    fn escapes_round_trip() {
        let original = Value::String("line\none\ttab \"q\" back\\slash \u{1}".into());
        assert_eq!(from_str(&original.to_string()).unwrap(), original);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("\"unterminated").is_err());
        assert!(from_str("troo").is_err());
        assert!(from_str("1 2").is_err(), "trailing junk rejected");
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nest(MAX_DEPTH)).is_ok());
        assert!(from_str(&nest(MAX_DEPTH + 1)).is_err());
        let objects = "{\"k\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(from_str(&objects).is_err());
        // What the worker would have recursed 100 000 frames into.
        let error = from_str(&"[".repeat(100_000)).unwrap_err();
        assert!(error.to_string().contains("nesting"), "{error}");
        assert!(StreamDeserializer::new(&"[".repeat(100_000))
            .next()
            .unwrap()
            .is_err());
    }

    #[test]
    fn stream_deserializer_walks_jsonl() {
        let lines = "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n";
        let values: Result<Vec<Value>, Error> = StreamDeserializer::new(lines).collect();
        let values = values.unwrap();
        assert_eq!(values.len(), 3);
        assert_eq!(values[2].get("a").unwrap().as_u64(), Some(3));
        // Empty stream yields nothing; a malformed tail stops iteration.
        assert_eq!(StreamDeserializer::new("  \n ").count(), 0);
        let mut broken = StreamDeserializer::new("{\"a\":1}\n{oops");
        assert!(broken.next().unwrap().is_ok());
        assert!(broken.next().unwrap().is_err());
        assert!(broken.next().is_none());
    }
}
