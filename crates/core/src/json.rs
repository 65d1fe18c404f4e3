//! Minimal dependency-free JSON: a recursive-descent reader and a
//! [`Value`] renderer.
//!
//! Shared by the `mic-serve` JSON wire and the `mic-perf` goldens: one
//! reader/writer pair means the server, the client load generator and
//! the golden files all agree on escaping and number round-tripping. Numbers are `f64`; rendering uses Rust's
//! shortest-round-trip float formatting, so an `f64` survives a
//! render→parse cycle bit-exactly (the serve integration test pins this).
//! Non-finite numbers render as `null` (JSON has no NaN/Inf).

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field by key (first match), if this is an object.
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

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Shorthand for building string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Render as a compact JSON document (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 {
                    // Small integral values print without the ".0" —
                    // exactly representable, so still bit-exact.
                    out.push_str(&format!("{n:.0}"));
                } else {
                    // `{:?}` is Rust's shortest representation that parses
                    // back to the same bits — exact round-trips for free.
                    out.push_str(&format!("{n:?}"));
                }
            }
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// JSON string-content escaping (quotes, backslashes, control characters).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Deepest array/object nesting [`parse`] accepts. The reader recurses
/// once per level, so an unbounded depth would let one request line of
/// `[`s overflow a connection thread's stack and abort the server.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document (trailing content is an error).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos, depth + 1)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        Some(_) => {
            // RFC 8259: `-`? (`0` | [1-9][0-9]*) (`.` [0-9]+)? ([eE] [+-]? [0-9]+)?
            let start = *pos;
            if b.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            let int = *pos;
            let mut ok = match skip_digits(b, pos) {
                0 => false,
                1 => true,
                _ => b[int] != b'0',
            };
            if b.get(*pos) == Some(&b'.') {
                *pos += 1;
                ok &= skip_digits(b, pos) > 0;
            }
            if matches!(b.get(*pos), Some(b'e' | b'E')) {
                *pos += 1;
                if matches!(b.get(*pos), Some(b'+' | b'-')) {
                    *pos += 1;
                }
                ok &= skip_digits(b, pos) > 0;
            }
            let s = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
            match s.parse::<f64>() {
                Ok(n) if ok => Ok(Value::Num(n)),
                _ => Err(format!("bad token at byte {start}")),
            }
        }
    }
}

/// Advance past a run of ASCII digits; returns how many there were.
fn skip_digits(b: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while b.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    *pos - start
}

/// The four ASCII hex digits at `b[at..]`, as a UTF-16 code unit.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let digits = b
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit));
    let digits = digits.ok_or("\\u escape needs four hex digits")?;
    Ok(digits.iter().fold(0, |code, &d| {
        code << 4 | (d as char).to_digit(16).unwrap_or(0)
    }))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = hex4(b, *pos + 1)?;
                        *pos += 4;
                        // A UTF-16 surrogate pair is one scalar in two escapes.
                        if (0xd800..0xdc00).contains(&code)
                            && b.get(*pos + 1..*pos + 3) == Some(&b"\\u"[..])
                        {
                            let low = hex4(b, *pos + 3)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos += 6;
                            }
                        }
                        out.push(char::from_u32(code).ok_or("lone surrogate in \\u escape")?);
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control character at byte {pos}"));
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b.get(*pos..*pos + len).ok_or("truncated utf-8")?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "bad utf-8")?);
                *pos += len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_render_and_reparse() {
        let v = Value::Obj(vec![
            ("s".into(), Value::str("a\"b\\c\nd")),
            ("n".into(), Value::Num(1.25)),
            ("b".into(), Value::Bool(true)),
            ("z".into(), Value::Null),
            (
                "a".into(),
                Value::Arr(vec![Value::Num(1.0), Value::str("x")]),
            ),
        ]);
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [
            0x3ff0_0000_0000_0001u64, // 1.0000000000000002
            0x4005_bf0a_8b14_5769,    // e
            0x0000_0000_0000_0001,    // smallest subnormal
            0x7fef_ffff_ffff_ffff,    // MAX
        ] {
            let x = f64::from_bits(bits);
            let rendered = Value::Num(x).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), bits, "{rendered}");
        }
    }

    #[test]
    fn parse_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "0",
            "-0.5e-3",
            " {\"a\": [1, -2.5e3, true, \"x\\u00e9\"]} ",
            "{\"nested\":{\"deep\":[[[]]]}}",
        ] {
            assert!(parse(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "[1 2]",
            "NaN",
            "{\"a\":1}x",
            "\"unterminated",
            "\"raw\ncontrol\"",
            "01e",
            "+1",
            ".5",
            "1.",
            "01",
            "-",
            "1e",
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        // One request line's worth of `[`s is refused, not a stack overflow.
        assert!(parse(&"[".repeat(1 << 16)).is_err());
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_scalar() {
        let got = parse(r#"["\ud83d\ude00", "a\uD83D\uDE00b"]"#).unwrap();
        let want = Value::Arr(vec![Value::str("\u{1f600}"), Value::str("a\u{1f600}b")]);
        assert_eq!(got, want);
    }

    #[test]
    fn lone_surrogate_escapes_are_refused() {
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00\ud83d""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn u_escapes_need_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9""#).unwrap(), Value::str("A\u{e9}"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u041""#, r#""\u04g1""#] {
            assert!(parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn non_finite_numbers_render_null() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn u64_accessor_is_exact() {
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(3.5).as_u64(), None);
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::str("3").as_u64(), None);
    }
}
