//! A minimal hand-rolled JSON parser.
//!
//! The workspace is dependency-free by policy (the build environment has no
//! registry access), so WfCommons instances are parsed with the same
//! byte-cursor machinery the serve daemon uses for JSON scenario
//! submissions — re-implemented here rather than imported, because a
//! workload library depending on an HTTP daemon would be the tail wagging
//! the dog. The subset is full JSON minus nothing: objects, arrays, all
//! scalar types, string escapes including surrogate pairs.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order. Duplicate keys are rejected at parse.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric payload widened to `f64` (ints included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// Non-negative integer payload. Accepts floats with an exact integral
    /// value (WfCommons writers disagree on `1048576` vs `1048576.0`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Float(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }
}

/// Parse a complete JSON document. The entire input must be consumed.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage after JSON document at byte {}", p.pos));
    }
    Ok(value)
}

/// Deepest array/object nesting accepted: the parser recurses per level.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unrecognized token at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(format!("nesting deeper than {MAX_DEPTH} levels at byte {}", self.pos))
            }
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected {:?} at byte {}", other as char, self.pos)),
            None => Err("unexpected end of JSON document".to_string()),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if entries.iter().any(|(k, _)| *k == key) {
                return Err(format!("duplicate key {key:?}"));
            }
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
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
                        other => {
                            return Err(format!("unsupported escape {other:?}"));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err("raw control character in string".to_string());
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences included).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    let c = rest.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Parse the 4 hex digits of a `\u` escape (cursor just past the `u`),
    /// joining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let joined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(joined)
                        .ok_or_else(|| "invalid surrogate pair".to_string());
                }
            }
            return Err("lone high surrogate in \\u escape".to_string());
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err("lone low surrogate in \\u escape".to_string());
        }
        char::from_u32(first).ok_or_else(|| "invalid \\u escape".to_string())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or("truncated \\u escape")?;
        let value =
            u32::from_str_radix(digits, 16).map_err(|_| format!("bad \\u escape {digits:?}"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if !float {
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number {token:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_nesting_round_trip() {
        let doc = parse(
            r#"{"name": "wf", "n": 3, "x": 2.5, "ok": true, "none": null,
               "tags": [1, "two", false], "sub": {"deep": [{"er": {}}]}}"#,
        )
        .unwrap();
        assert_eq!(doc.get("name").unwrap().as_str(), Some("wf"));
        assert_eq!(doc.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(doc.get("x").unwrap().as_f64(), Some(2.5));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        assert_eq!(doc.get("tags").unwrap().as_array().unwrap().len(), 3);
        assert!(doc.get("sub").unwrap().get("deep").is_some());
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn integral_floats_count_as_u64() {
        let doc = parse(r#"{"a": 1048576.0, "b": 1048576, "c": 0.5, "d": -1}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(1_048_576));
        assert_eq!(doc.get("b").unwrap().as_u64(), Some(1_048_576));
        assert_eq!(doc.get("c").unwrap().as_u64(), None);
        assert_eq!(doc.get("d").unwrap().as_u64(), None);
    }

    #[test]
    fn string_escapes_decode() {
        let doc = parse(r#"{"s": "a\"b\\c\nd é 😀"}"#).unwrap();
        assert_eq!(doc.get("s").unwrap().as_str(), Some("a\"b\\c\nd é 😀"));
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |levels: usize| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let e = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nesting deeper"), "{e}");
    }

    #[test]
    fn bad_documents_are_rejected_with_reasons() {
        for (input, needle) in [
            ("", "unexpected end"),
            ("{\"a\": 1} junk", "trailing garbage"),
            ("{\"a\": }", "unexpected"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": \"\\ud800 lonely\"}", "surrogate"),
            ("{\"a\": 1e}", "bad number"),
            ("{\"a\" 1}", "expected ':'"),
            ("[1, 2", "expected ','"),
        ] {
            let e = parse(input).unwrap_err();
            assert!(e.contains(needle), "{input:?} -> {e}");
        }
    }
}
