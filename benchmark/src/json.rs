//! The benchmark's JSON output: a value tree and its writer. (The
//! workspace builds offline with no serde; the parser that checks the
//! writer lives in the tests.)

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, printed exactly.
    UInt(u64),
    /// A measured number, printed with every digit `f64` holds.
    /// Non-finite values print as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// On one line, as the contract's last stdout line needs it.
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Indented, for documents people read.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            if indent.is_some() {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', 2 * depth));
            }
        };
        let depth = indent.unwrap_or(0);
        let inner = indent.map(|d| d + 1);
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    v.write(out, inner);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Value::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, inner);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A minimal JSON parser, enough to read back what [`Value`] writes
/// and to read `BENCHMARK.json`. Whole numbers without sign, fraction
/// or exponent parse as [`Value::UInt`], `null` as a non-finite
/// [`Value::Num`].
#[cfg(test)]
pub mod parse {
    use super::Value;

    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at {}", p.i))
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.i..].starts_with(lit.as_bytes());
            if hit {
                self.i += lit.len();
            }
            hit
        }

        fn value(&mut self) -> Result<Value, String> {
            self.ws();
            match self.s.get(self.i) {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => self.string().map(Value::Str),
                Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
                Some(b'n') if self.eat("null") => Ok(Value::Num(f64::NAN)),
                Some(_) => self.number(),
                None => Err("unexpected end".into()),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.i += 1;
            let mut pairs = Vec::new();
            loop {
                self.ws();
                if self.eat("}") {
                    return Ok(Value::Object(pairs));
                }
                if !pairs.is_empty() && !self.eat(",") {
                    return Err(format!("expected ',' at {}", self.i));
                }
                self.ws();
                let k = self.string()?;
                self.ws();
                if !self.eat(":") {
                    return Err(format!("expected ':' at {}", self.i));
                }
                pairs.push((k, self.value()?));
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.i += 1;
            let mut items = Vec::new();
            loop {
                self.ws();
                if self.eat("]") {
                    return Ok(Value::Array(items));
                }
                if !items.is_empty() && !self.eat(",") {
                    return Err(format!("expected ',' at {}", self.i));
                }
                items.push(self.value()?);
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(format!("expected string at {}", self.i));
            }
            let mut out = Vec::new();
            loop {
                let c = *self.s.get(self.i).ok_or("unterminated string")?;
                self.i += 1;
                match c {
                    b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                    b'\\' => {
                        let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                        self.i += 1;
                        match e {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u")?;
                                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                                let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                let ch = char::from_u32(cp).ok_or("bad \\u code point")?;
                                out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                                self.i += 4;
                            }
                            other => out.push(other),
                        }
                    }
                    c => out.push(c),
                }
            }
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.i;
            while self
                .s
                .get(self.i)
                .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
            {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|e| format!("bad number {text:?} at {start}: {e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::parse::parse;
    use super::*;

    fn sample() -> Value {
        Value::object([
            ("correct", Value::Bool(true)),
            ("attempted", Value::UInt(u64::MAX)),
            ("empty", Value::object::<String>([])),
            (
                "metrics",
                Value::object([(
                    "wall_ms_per_sim_s",
                    Value::object([
                        ("value", Value::Num(17.062_512_345_678_9)),
                        ("unit", Value::str("ms")),
                    ]),
                )]),
            ),
            (
                "list",
                Value::Array(vec![
                    Value::Num(-1.5e-9),
                    Value::str("a \"quoted\"\\ line\n\ttab \u{1} é"),
                    Value::Array(vec![]),
                ]),
            ),
        ])
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let v = sample();
        assert_eq!(parse(&v.to_line()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty()).unwrap(), v);
        assert!(!v.to_line().contains('\n'), "one line means one line");
    }

    #[test]
    fn whole_floats_print_without_exponent_and_non_finite_as_null() {
        assert_eq!(Value::Num(1000.0).to_line(), "1000");
        assert_eq!(Value::Num(f64::INFINITY).to_line(), "null");
        assert_eq!(Value::Num(0.1 + 0.2).to_line(), "0.30000000000000004");
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "{\"a\" 1}", "[1 2]", "tru", "{} x", "\"abc"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
