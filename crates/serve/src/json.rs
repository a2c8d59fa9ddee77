//! JSON scenario submissions.
//!
//! `POST /v1/jobs` accepts scenarios either as TOML (the on-disk format) or
//! as JSON. Rather than grow a second deserializer inside `bas-core`, a JSON
//! body is parsed here and *re-rendered as canonical TOML*, then handed to
//! [`Scenario::from_toml`](bas_core::Scenario::from_toml) like any other
//! submission. Both formats therefore share one validation path and one
//! content digest: `{"kind": "sweep", "trials": 2}` and
//! `kind = "sweep"\ntrials = 2` land on the same cache entry.
//!
//! The accepted shape mirrors the TOML subset: one top-level object of
//! scalars/arrays, plus at most one level of nested objects (e.g.
//! `"platform": {"pes": 4}`), which map onto `[table]` sections.

use bas_core::toml::Value;

/// A parsed JSON value (subset sufficient for scenario documents).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

/// Convert a JSON scenario document into equivalent TOML text, ready for
/// `Scenario::from_toml`. Errors are human-readable and surface in the
/// daemon's 400 responses.
pub fn scenario_toml_from_json(input: &str) -> Result<String, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage after JSON document at byte {}", p.pos));
    }
    let Json::Object(entries) = value else {
        return Err("a scenario submission must be a JSON object".to_string());
    };
    let mut flat = String::new();
    let mut sections = String::new();
    for (key, value) in entries {
        check_key(&key)?;
        match value {
            Json::Object(sub) => {
                sections.push_str(&format!("\n[{key}]\n"));
                for (sub_key, sub_value) in sub {
                    check_key(&sub_key)?;
                    let rendered = toml_value(&sub_value)
                        .map_err(|e| format!("key `{key}.{sub_key}`: {e}"))?;
                    sections.push_str(&format!("{sub_key} = {}\n", rendered.render()));
                }
            }
            value => {
                let rendered = toml_value(&value).map_err(|e| format!("key `{key}`: {e}"))?;
                flat.push_str(&format!("{key} = {}\n", rendered.render()));
            }
        }
    }
    Ok(format!("{flat}{sections}"))
}

/// Keys become TOML bare keys verbatim, so they must be bare-key-safe —
/// otherwise a key could smuggle extra `key = value` lines into the
/// rendered document.
fn check_key(key: &str) -> Result<(), String> {
    let bare =
        !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        Ok(())
    } else {
        Err(format!("invalid key {key:?} (bare keys only: [A-Za-z0-9_-]+)"))
    }
}

/// Map a scalar/array JSON value onto the TOML value model.
fn toml_value(value: &Json) -> Result<Value, String> {
    match value {
        Json::Null => Err("null has no TOML equivalent; omit the key instead".to_string()),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(x) => Ok(Value::Float(*x)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        Json::Array(items) => {
            let rendered: Result<Vec<Value>, String> = items
                .iter()
                .map(|item| match item {
                    Json::Array(_) | Json::Object(_) => {
                        Err("arrays must contain only scalars".to_string())
                    }
                    item => toml_value(item),
                })
                .collect();
            Ok(Value::Array(rendered?))
        }
        Json::Object(_) => Err("objects nest at most one level deep".to_string()),
    }
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
        let mut entries = Vec::new();
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
    use bas_core::Scenario;

    #[test]
    fn json_and_toml_submissions_share_a_digest() {
        let toml_sc = Scenario::from_toml(
            "kind = \"sweep\"\ntrials = 2\nhorizon = 200.0\nspecs = [\"EDF\", \"BAS-2\"]\n\n[platform]\npes = 2\n",
        )
        .unwrap();
        // Same knobs, different key order, ints where TOML had floats.
        let json = r#"{
            "specs": ["EDF", "BAS-2"],
            "platform": {"pes": 2},
            "kind": "sweep",
            "horizon": 200.0,
            "trials": 2
        }"#;
        let json_sc = Scenario::from_toml(&scenario_toml_from_json(json).unwrap()).unwrap();
        assert_eq!(json_sc, toml_sc);
        assert_eq!(json_sc.digest(), toml_sc.digest());
    }

    #[test]
    fn scalar_values_map_faithfully() {
        let toml = scenario_toml_from_json(
            r#"{"s": "hi \"there\"\n", "i": -42, "x": 2.5, "b": true, "a": [1, 2]}"#,
        )
        .unwrap();
        let doc = bas_core::toml::parse(&toml).unwrap();
        assert_eq!(doc["s"].as_str().unwrap(), "hi \"there\"\n");
        assert_eq!(doc["i"].as_int().unwrap(), -42);
        assert_eq!(doc["x"].as_float().unwrap(), 2.5);
        assert!(doc["b"].as_bool().unwrap());
        assert_eq!(
            doc["a"],
            bas_core::toml::Value::Array(vec![
                bas_core::toml::Value::Int(1),
                bas_core::toml::Value::Int(2),
            ])
        );
    }

    #[test]
    fn unicode_escapes_decode() {
        let toml = scenario_toml_from_json(r#"{"name": "café 😀"}"#).unwrap();
        let doc = bas_core::toml::parse(&toml).unwrap();
        assert_eq!(doc["name"].as_str().unwrap(), "café 😀");
    }

    #[test]
    fn bad_documents_are_rejected_with_reasons() {
        for (input, needle) in [
            ("", "unexpected end"),
            ("[1, 2]", "must be a JSON object"),
            ("{\"a\": 1} junk", "trailing garbage"),
            ("{\"a\": }", "unexpected"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("{\"a\": null}", "null"),
            ("{\"a\": [[1]]}", "only scalars"),
            ("{\"a\": {\"b\": {\"c\": 1}}}", "one level"),
            ("{\"a\": \"\\ud800 lonely\"}", "surrogate"),
            ("{\"a\": 1e}", "bad number"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a b\": 1}", "bare keys only"),
            ("{\"x\\ny = 1\\nz\": 1}", "bare keys only"),
        ] {
            let e = scenario_toml_from_json(input).unwrap_err();
            assert!(e.contains(needle), "{input:?} -> {e}");
        }
    }
}
