//! A dependency-free JSON reader: [`parse_json`] turns a document into a
//! [`Json`] tree, or a [`SchemaError`] naming the byte where it went wrong.
//!
//! `xtask` carries no dependencies, so this is just enough of RFC 8259
//! (objects, arrays, strings, numbers, booleans, null) to read benchmark
//! reports. `xtask` itself reads none: `ringbench` (`benchmark/`) borrows it
//! to read `BENCHMARK.json` and its own result files.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

/// A parse error, with the byte offset where it was found.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, msg: &str) -> Result<T, SchemaError> {
        Err(SchemaError(format!(
            "json parse error at byte {}: {msg}",
            self.pos
        )))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), SchemaError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected {:?}", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, SchemaError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => self.fail(&format!("unexpected {:?}", other as char)),
            None => self.fail("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, SchemaError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail(&format!("expected {word:?}"))
        }
    }

    fn object(&mut self) -> Result<Json, SchemaError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, SchemaError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.fail("bad \\u escape");
                            };
                            self.pos += 4;
                            // Surrogates don't occur in bench names; map
                            // them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.fail("unknown escape"),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 from the source slice.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let Some(chunk) = self.bytes.get(start..start + len) else {
                        return self.fail("truncated utf-8");
                    };
                    let Ok(s) = std::str::from_utf8(chunk) else {
                        return self.fail("invalid utf-8");
                    };
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, SchemaError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Number(x)),
            _ => self.fail(&format!("bad number {text:?}")),
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Parses a complete JSON document (rejecting trailing garbage).
pub fn parse_json(text: &str) -> Result<Json, SchemaError> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing data after the document");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5e3, "x\n", true, null, {}]}"#).unwrap();
        let Json::Object(map) = v else {
            panic!("not an object")
        };
        let Some(Json::Array(items)) = map.get("a") else {
            panic!("missing array")
        };
        assert_eq!(items[0], Json::Number(1.0));
        assert_eq!(items[1], Json::Number(-2500.0));
        assert_eq!(items[2], Json::String("x\n".into()));
        assert_eq!(items[3], Json::Bool(true));
        assert_eq!(items[4], Json::Null);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json("[1,]").is_err());
    }
}
