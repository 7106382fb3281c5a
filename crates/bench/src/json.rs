//! The bench harness's one JSON value: what every experiment records,
//! what `BENCH_*.json` holds and what the gate's rules read. One
//! writer ([`write()`]), one reader ([`parse`]); no serde in the offline
//! environment.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so artifacts diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A measured quantity, rounded to five significant digits (more
    /// than a timing is good for); non-finite measurements are `null`.
    pub fn measured(v: f64) -> Value {
        if !v.is_finite() {
            return Value::Null;
        }
        // Shortest decimal with five significant digits, re-read exactly.
        Value::Num(format!("{v:.4e}").parse().expect("float round-trips"))
    }

    /// Member `key` of an object (`None` on other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of an array (empty for other values).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.into())
    }
}

/// Counts and sizes: exact up to 2⁵³.
impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::Num(v as f64)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Value {
        Value::Arr(iter.into_iter().collect())
    }
}

/// Pretty-prints `v`: two-space indent, one member per line, trailing
/// newline. Non-finite numbers have no JSON form and print as `null`.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v, 1);
    out.push('\n');
    out
}

fn write_value(out: &mut String, v: &Value, depth: usize) {
    // `[`/`{`, then each member on its own indented line, then the closer.
    fn block<T>(
        out: &mut String,
        depth: usize,
        brackets: [char; 2],
        members: &[T],
        each: impl Fn(&mut String, &T),
    ) {
        out.push(brackets[0]);
        for (i, m) in members.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth));
            each(out, m);
        }
        if !members.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth - 1));
        }
        out.push(brackets[1]);
    }
    match v {
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => write!(out, "{n}").expect("string write"),
        Value::Null | Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => block(out, depth, ['[', ']'], items, |out, item| {
            write_value(out, item, depth + 1)
        }),
        Value::Obj(fields) => block(out, depth, ['{', '}'], fields, |out, (key, item)| {
            write_str(out, key);
            out.push_str(": ");
            write_value(out, item, depth + 1)
        }),
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("string write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Longest input [`parse`] accepts (committed artifacts are a few KB).
pub const MAX_LEN: usize = 1 << 20;

/// Deepest array/object nesting [`parse`] accepts.
pub const MAX_DEPTH: usize = 32;

/// What stopped [`parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input longer than [`MAX_LEN`].
    TooLong,
    /// Nesting deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the value at hand.
    UnexpectedByte,
    /// A number or string escape that does not parse.
    Malformed,
    /// Bytes after the top-level value.
    Trailing,
}

/// Why an input is not a JSON value, and the byte offset where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    pub kind: ParseErrorKind,
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?} at byte {}", self.kind, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON value spanning the whole input.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser { text, at: 0 };
    if text.len() > MAX_LEN {
        return p.fail(ParseErrorKind::TooLong);
    }
    let v = p.value(0)?;
    match p.peek() {
        None => Ok(v),
        Some(_) => p.fail(ParseErrorKind::Trailing),
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, kind: ParseErrorKind) -> Result<T, ParseError> {
        Err(ParseError { kind, at: self.at })
    }

    /// The next byte after any whitespace, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
        self.text.as_bytes().get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        match self.peek() {
            Some(b) if b == byte => {
                self.at += 1;
                Ok(())
            }
            Some(_) => self.fail(ParseErrorKind::UnexpectedByte),
            None => self.fail(ParseErrorKind::UnexpectedEnd),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
        let Some(first) = self.peek() else {
            return self.fail(ParseErrorKind::UnexpectedEnd);
        };
        if depth > MAX_DEPTH {
            return self.fail(ParseErrorKind::TooDeep);
        }
        let rest = &self.text[self.at..];
        match first {
            b'{' => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            b'[' => self.members(b']', |p| p.value(depth + 1)).map(Value::Arr),
            b'"' => self.string().map(Value::Str),
            b'-' | b'0'..=b'9' => {
                let len = rest
                    .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
                    .unwrap_or(rest.len());
                let Ok(n) = rest[..len].parse() else {
                    return self.fail(ParseErrorKind::Malformed);
                };
                self.at += len;
                Ok(Value::Num(n))
            }
            _ => {
                let words = [
                    ("null", Value::Null),
                    ("true", true.into()),
                    ("false", false.into()),
                ];
                let Some((word, v)) = words.into_iter().find(|(w, _)| rest.starts_with(w)) else {
                    return self.fail(ParseErrorKind::UnexpectedByte);
                };
                self.at += word.len();
                Ok(v)
            }
        }
    }

    /// `open (member (, member)*)? close`, the opener at the cursor.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        self.at += 1;
        let mut out = Vec::new();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            if self.peek() == Some(close) {
                self.at += 1;
                return Ok(out);
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `"` and `\` are ASCII, so the cut lands on a char boundary.
            let rest = &self.text[self.at..];
            let Some(stop) = rest.find(['"', '\\']) else {
                self.at = self.text.len();
                return self.fail(ParseErrorKind::UnexpectedEnd);
            };
            out.push_str(&rest[..stop]);
            self.at += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let escape = self.text.as_bytes().get(self.at).copied();
            self.at += 1;
            out.push(match escape {
                Some(c @ (b'"' | b'\\' | b'/')) => c as char,
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'r') => '\r',
                Some(b'u') => {
                    let hex = self.text.get(self.at..self.at + 4);
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    let Some(c) = code.and_then(char::from_u32) else {
                        return self.fail(ParseErrorKind::Malformed);
                    };
                    self.at += 4;
                    c
                }
                Some(_) => return self.fail(ParseErrorKind::Malformed),
                None => return self.fail(ParseErrorKind::UnexpectedEnd),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_value(rng: &mut StdRng, depth: usize) -> Value {
        let text = |rng: &mut StdRng| -> String {
            let alphabet = [
                'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', 'é', '→', '𝄞', '{', ',',
            ];
            let len = rng.random_range(0..8);
            (0..len)
                .map(|_| alphabet[rng.random_range(0..alphabet.len())])
                .collect()
        };
        match rng.random_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.random_range(0..2) == 1),
            // Any finite double, or a count as the experiments record them.
            2 => match f64::from_bits(rng.random::<u64>()) {
                n if n.is_finite() => Value::Num(n),
                _ => rng.random_range(0..1usize << 40).into(),
            },
            3 => Value::Str(text(rng)),
            4 => (0..rng.random_range(0..4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
            _ => Value::Obj(
                (0..rng.random_range(0..4))
                    .map(|_| (text(rng), random_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// Test (c): the parser inverts the writer on random values, and no
    /// proper prefix of a written array, object or string parses.
    #[test]
    fn parser_inverts_writer_and_refuses_truncations() {
        let mut rng = StdRng::seed_from_u64(0x150);
        for _ in 0..300 {
            let v = random_value(&mut rng, 4);
            let written = write(&v);
            assert_eq!(parse(&written).as_ref(), Ok(&v), "{written}");
            if matches!(v, Value::Arr(_) | Value::Obj(_) | Value::Str(_)) {
                let body = written.trim_end();
                for cut in (0..body.len()).filter(|&cut| body.is_char_boundary(cut)) {
                    assert!(
                        parse(&body[..cut]).is_err(),
                        "{:?} of {body:?}",
                        &body[..cut]
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_is_a_typed_error() {
        use ParseErrorKind::*;
        let deep = "[".repeat(MAX_DEPTH + 2);
        let long = " ".repeat(MAX_LEN + 1);
        for (text, kind, at) in [
            ("", UnexpectedEnd, 0),
            ("  \n", UnexpectedEnd, 3),
            ("{\"a\": 1", UnexpectedEnd, 7),
            ("\"open", UnexpectedEnd, 5),
            ("{\"a\" 1}", UnexpectedByte, 5),
            ("[1 2]", UnexpectedByte, 3),
            ("{a: 1}", UnexpectedByte, 1),
            ("nul", UnexpectedByte, 0),
            ("NaN", UnexpectedByte, 0),
            ("[1,]", UnexpectedByte, 3),
            ("-", Malformed, 0),
            ("1e", Malformed, 0),
            ("1.2.3", Malformed, 0),
            ("\"\\q\"", Malformed, 3),
            ("\"\\ud800\"", Malformed, 3),
            ("{} {}", Trailing, 3),
            ("1 x", Trailing, 2),
            (deep.as_str(), TooDeep, MAX_DEPTH + 1),
            (long.as_str(), TooLong, 0),
        ] {
            assert_eq!(parse(text), Err(ParseError { kind, at }), "{text:?}");
        }
    }

    #[test]
    fn measured_keeps_five_significant_digits() {
        for (v, kept) in [
            (4113.128, 4113.1),
            (0.00012345678, 0.00012346),
            (196093568.0, 196090000.0),
            (0.0, 0.0),
            (-2.50004, -2.5),
        ] {
            assert_eq!(Value::measured(v), Value::Num(kept));
        }
        assert_eq!(Value::measured(f64::NAN), Value::Null);
        assert_eq!(write(&Value::Num(f64::INFINITY)), "null\n");
    }
}
