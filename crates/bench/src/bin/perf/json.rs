//! The little JSON the benchmark speaks: result lines, span files and
//! `BENCHMARK.json`. Objects keep insertion order so output is stable.

use std::fmt::{self, Write as _};

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
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(fields) => fields,
            _ => &[],
        }
    }

    /// Multi-line rendering with two-space indentation (for files a
    /// person reads); `Display` is the single-line form.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            // An array of scalars reads best on one line.
            Value::Arr(items) if items.iter().any(|v| matches!(v, Value::Obj(_))) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    let _ = write!(out, "{item}");
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{close}]");
            }
            Value::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    let _ = write!(out, "{pad}{}: ", Value::Str(k.clone()));
                    v.write_pretty(out, depth + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{close}}}");
            }
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            // JSON has no NaN/inf; a metric that is not finite is a bug
            // upstream and reads as null rather than as invalid JSON.
            Value::Num(n) if !n.is_finite() => f.write_str("null"),
            // Rust's shortest round-trip form: every measured digit.
            Value::Num(n) => write!(f, "{n}"),
            Value::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        '\r' => f.write_str("\\r")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Value::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Value::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {v}", Value::Str(k.clone()))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Parse one JSON document (the subset [`Value`] can hold; `\u` escapes
/// outside the basic plane are not combined).
pub fn parse(src: &str) -> Result<Value, String> {
    let mut p = Parser {
        rest: src.trim_start(),
    };
    let v = p.value()?;
    if p.rest.trim().is_empty() {
        Ok(v)
    } else {
        Err(format!("trailing input: {:.20}", p.rest))
    }
}

struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn eat(&mut self, token: &str) -> bool {
        match self.rest.strip_prefix(token) {
            Some(r) => {
                self.rest = r.trim_start();
                true
            }
            None => false,
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        if self.eat("null") {
            Ok(Value::Null)
        } else if self.eat("true") {
            Ok(Value::Bool(true))
        } else if self.eat("false") {
            Ok(Value::Bool(false))
        } else if self.rest.starts_with('"') {
            self.string().map(Value::Str)
        } else if self.eat("[") {
            let mut items = Vec::new();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                if !self.eat(",") {
                    return Err(format!("expected , or ] at {:.20}", self.rest));
                }
            }
        } else if self.eat("{") {
            let mut fields = Vec::new();
            if self.eat("}") {
                return Ok(Value::Obj(fields));
            }
            loop {
                let key = self.string()?;
                if !self.eat(":") {
                    return Err(format!("expected : at {:.20}", self.rest));
                }
                fields.push((key, self.value()?));
                if self.eat("}") {
                    return Ok(Value::Obj(fields));
                }
                if !self.eat(",") {
                    return Err(format!("expected , or }} at {:.20}", self.rest));
                }
            }
        } else {
            let end = self
                .rest
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(self.rest.len());
            let (num, rest) = self.rest.split_at(end);
            let n: f64 = num
                .parse()
                .map_err(|_| format!("not a JSON value: {:.20}", self.rest))?;
            self.rest = rest.trim_start();
            Ok(Value::Num(n))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let body = self
            .rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected string at {:.20}", self.rest))?;
        let mut out = String::new();
        let mut chars = body.char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = body.get(i + 1..).unwrap_or("").trim_start();
                    return Ok(out);
                }
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('u') => {
                        let hex: String = chars.by_ref().take(4).map(|(_, h)| h).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape: {hex}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some(e) => out.push(e),
                    None => break,
                },
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::from(1000u64)),
            ("latency_ms", Value::from(1.2034)),
            ("tiny", Value::from(1.5e-7)),
            ("negative", Value::from(-3.25)),
            (
                "text",
                Value::str("a \"quoted\" \\ line\nbreak\ttab \u{1} é"),
            ),
            ("nothing", Value::Null),
            (
                "list",
                Value::Arr(vec![
                    Value::from(1u64),
                    Value::Arr(vec![]),
                    Value::obj::<&str>([]),
                ]),
            ),
        ]);
        assert_eq!(parse(&v.to_string()), Ok(v.clone()));
        assert_eq!(parse(&v.pretty()), Ok(v));
    }

    #[test]
    fn json_numbers_keep_every_digit_and_whole_numbers_stay_whole() {
        assert_eq!(Value::from(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Value::from(45u64).to_string(), "45");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn json_rejects_what_it_cannot_hold() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "\"open",
            "nul",
            "1 2",
            "{\"a\": 1,}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
