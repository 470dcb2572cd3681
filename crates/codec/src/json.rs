//! JSON text codec — the de-facto SBI format (OpenAPI/REST, free5GC).
//!
//! A complete serializer and recursive-descent parser for the [`Value`]
//! model. This is the expensive end of the Fig 6 comparison: text
//! escaping, field-name emission, and a full parse on every read.

use crate::value::Value;

/// Serializes a value to compact JSON text.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(n) => {
            // Integer formatting without allocation churn.
            let mut buf = [0u8; 20];
            let mut i = buf.len();
            let mut n = *n;
            loop {
                i -= 1;
                buf[i] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            out.push_str(core::str::from_utf8(&buf[i..]).expect("digits"));
        }
        Value::F64(x) => {
            // `{}` prints f64 shortest-roundtrip; whole numbers gain a
            // ".0" so the value re-parses as F64, not U64.
            if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                out.push_str(&format!("{x:.1}"));
            } else {
                out.push_str(&format!("{x}"));
            }
        }
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Errors produced by the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Input ended inside a value.
    UnexpectedEnd,
    /// A character that doesn't belong at this position.
    UnexpectedChar(char),
    /// A malformed escape sequence.
    BadEscape,
    /// A number that doesn't fit the `u64` model.
    BadNumber,
    /// Trailing bytes after the top-level value.
    TrailingInput,
    /// Arrays and objects nested deeper than `MAX_DEPTH` (128) levels.
    TooDeep,
}

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so the bound is what keeps hostile
/// input (`[` × 50 000) off the end of the stack.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseError::TrailingInput);
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, ParseError> {
        let b = self.peek().ok_or(ParseError::UnexpectedEnd)?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        let got = self.bump()?;
        if got == b {
            Ok(())
        } else {
            Err(ParseError::UnexpectedChar(got as char))
        }
    }

    fn literal(&mut self, rest: &[u8], value: Value) -> Result<Value, ParseError> {
        for &b in rest {
            self.expect(b)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek().ok_or(ParseError::UnexpectedEnd)? {
            b'n' => {
                self.pos += 1;
                self.literal(b"ull", Value::Null)
            }
            b't' => {
                self.pos += 1;
                self.literal(b"rue", Value::Bool(true))
            }
            b'f' => {
                self.pos += 1;
                self.literal(b"alse", Value::Bool(false))
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' | b'{' if self.depth == MAX_DEPTH => Err(ParseError::TooDeep),
            b'[' => self.nested(Self::array),
            b'{' => self.nested(Self::object),
            b'0'..=b'9' => self.number(),
            c => Err(ParseError::UnexpectedChar(c as char)),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        // A fraction or exponent makes this an F64; a bare integer stays
        // U64 so SBI payload round-trips are exact.
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(ParseError::BadNumber);
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(ParseError::BadNumber);
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).expect("digits");
        if fractional {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| ParseError::BadNumber)
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| ParseError::BadNumber)
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bump()? {
                b'"' => return Ok(s),
                b'\\' => match self.bump()? {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'/' => s.push('/'),
                    b'n' => s.push('\n'),
                    b'r' => s.push('\r'),
                    b't' => s.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            let digit = (d as char).to_digit(16).ok_or(ParseError::BadEscape)?;
                            code = code * 16 + digit;
                        }
                        s.push(char::from_u32(code).ok_or(ParseError::BadEscape)?);
                    }
                    _ => return Err(ParseError::BadEscape),
                },
                // Multi-byte UTF-8: copy raw continuation bytes through.
                b if b < 0x80 => s.push(b as char),
                b => {
                    let extra = if b >= 0xf0 {
                        3
                    } else if b >= 0xe0 {
                        2
                    } else {
                        1
                    };
                    let start = self.pos - 1;
                    for _ in 0..extra {
                        self.bump()?;
                    }
                    let chunk = core::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| ParseError::BadEscape)?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b']' => return Ok(Value::Array(items)),
                c => return Err(ParseError::UnexpectedChar(c as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump()? {
                b',' => continue,
                b'}' => return Ok(Value::Object(fields)),
                c => return Err(ParseError::UnexpectedChar(c as char)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ObjectBuilder;

    #[test]
    fn roundtrip_nested() {
        let v = ObjectBuilder::new()
            .field("supi", Value::Str("imsi-208930000000001".into()))
            .field("pduSessionId", Value::U64(1))
            .field("emergency", Value::Bool(false))
            .field(
                "sNssai",
                ObjectBuilder::new()
                    .field("sst", Value::U64(1))
                    .field("sd", Value::Str("010203".into()))
                    .build(),
            )
            .field(
                "tags",
                Value::Array(vec![Value::U64(1), Value::Null, Value::Str("x".into())]),
            )
            .build();
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn fractional_numbers() {
        assert_eq!(parse("1.5").unwrap(), Value::F64(1.5));
        assert_eq!(parse("0.001").unwrap(), Value::F64(0.001));
        assert_eq!(parse("2e3").unwrap(), Value::F64(2000.0));
        assert_eq!(parse("1.25e-2").unwrap(), Value::F64(0.0125));
        assert_eq!(parse("7"), Ok(Value::U64(7)), "bare integers stay U64");
        assert_eq!(parse("1."), Err(ParseError::BadNumber));
        assert_eq!(parse("1e"), Err(ParseError::BadNumber));
        // F64 round-trips through the writer, including whole values.
        for x in [1.5f64, 0.25, 123_456.789, 3.0] {
            let text = to_string(&Value::F64(x));
            assert_eq!(parse(&text).unwrap(), Value::F64(x), "{text}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let v = Value::Str("line\nquote\"back\\slash\ttab\u{1}".into());
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_roundtrip() {
        let v = Value::Str("日本語 ünïcodé 🚀".into());
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn whitespace_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn errors_reported() {
        assert_eq!(parse(""), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse("{"), Err(ParseError::UnexpectedEnd));
        assert_eq!(parse("12x"), Err(ParseError::TrailingInput));
        assert!(matches!(
            parse("{'a':1}"),
            Err(ParseError::UnexpectedChar(_))
        ));
        assert_eq!(parse("\"\\q\""), Err(ParseError::BadEscape));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nest("{\"a\":", "}", MAX_DEPTH - 1).replace(":}", ":{}}")).is_ok());
        assert_eq!(
            parse(&nest("[", "]", MAX_DEPTH + 1)),
            Err(ParseError::TooDeep)
        );
        assert_eq!(
            parse(&nest("{\"a\":", "}", MAX_DEPTH + 1)),
            Err(ParseError::TooDeep)
        );
        // Siblings do not add up: depth is nesting, not count.
        let wide = format!("[{}]", vec![nest("[", "]", MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
        assert_eq!(parse(&nest("[", "]", 50_000)), Err(ParseError::TooDeep));
    }

    #[test]
    fn number_limits() {
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(parse("18446744073709551616"), Err(ParseError::BadNumber));
    }
}
