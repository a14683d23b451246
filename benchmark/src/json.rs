//! JSON in and out. Reading is the repo's existing parser
//! (`xtask::bench_schema::parse_json`, dependency-free) with a few
//! accessors over its [`Json`] value; writing composes already-encoded
//! strings, so members keep the order they are given in.

use std::fmt::Write as _;
use std::path::Path;

pub use xtask::bench_schema::Json;

/// Parses one JSON document.
///
/// # Errors
///
/// The parser's message, with the byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    xtask::bench_schema::parse_json(text).map_err(|e| e.to_string())
}

/// Member `key` of an object.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Object(members) => members.get(key),
        _ => None,
    }
}

/// The value reached by following `path` through nested objects.
pub fn at<'a>(value: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(value, |v, key| get(v, key))
}

/// The number, if `value` is one.
pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Number(n) => Some(*n),
        _ => None,
    }
}

/// The string, if `value` is one.
pub fn string(value: &Json) -> Option<&str> {
    match value {
        Json::String(s) => Some(s),
        _ => None,
    }
}

/// The elements, if `value` is an array.
pub fn items(value: &Json) -> Option<&[Json]> {
    match value {
        Json::Array(items) => Some(items),
        _ => None,
    }
}

/// The numbers of an array of numbers.
pub fn numbers(value: &Json) -> Option<Vec<f64>> {
    items(value)?.iter().map(number).collect()
}

/// Encodes a number with every digit it needs to read back the same
/// (`{}` on `f64` is the shortest such form and never uses an exponent);
/// JSON has no NaN or infinity, which become `null`.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// Encodes a string.
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// An array of already-encoded values.
pub fn list(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(","))
}

/// An array of numbers.
pub fn nums(values: &[f64]) -> String {
    list(values.iter().map(|&v| num(v)))
}

/// An object of already-encoded values, members in the order given.
pub fn object<K: AsRef<str>>(members: impl IntoIterator<Item = (K, String)>) -> String {
    let members: Vec<String> = members
        .into_iter()
        .map(|(key, value)| format!("{}:{value}", text(key.as_ref())))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// `compact` (one line, as the functions above encode) with each member
/// of an object on a line of its own, for files people read. Arrays stay
/// on one line.
pub fn indented(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let (mut depth, mut in_array, mut in_string, mut escaped) = (0usize, 0usize, false, false);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    for c in compact.chars() {
        if in_string {
            out.push(c);
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '[' | ']' => {
                in_array = if c == '[' {
                    in_array + 1
                } else {
                    in_array.saturating_sub(1)
                };
                out.push(c);
            }
            '{' if in_array == 0 => {
                depth += 1;
                out.push(c);
                newline(&mut out, depth);
            }
            '}' if in_array == 0 => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' if in_array == 0 => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' if in_array == 0 => out.push_str(": "),
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// Writes `text` to `path`, creating its directory.
///
/// # Errors
///
/// The directory or file cannot be written.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        object([
            (
                "name",
                text("a \"quoted\"\n\\ line, with {braces}: and [brackets]"),
            ),
            ("rounds", nums(&[0.1, 2.0, -3.5e-7, 1e21])),
            ("nested", object([("x", num(1.0)), ("none", num(f64::NAN))])),
            (
                "spans",
                list([object([("id", num(0.0))]), object::<&str>([])]),
            ),
        ])
    }

    #[test]
    fn what_is_written_reads_back() {
        let doc = sample();
        assert!(!doc.contains('\n'));
        for encoding in [doc.clone(), indented(&doc)] {
            let back = parse(&encoding).expect("well-formed");
            assert_eq!(
                at(&back, &["name"]).and_then(string),
                Some("a \"quoted\"\n\\ line, with {braces}: and [brackets]")
            );
            assert_eq!(
                at(&back, &["rounds"]).and_then(numbers),
                Some(vec![0.1, 2.0, -3.5e-7, 1e21])
            );
            assert_eq!(at(&back, &["nested", "x"]).and_then(number), Some(1.0));
            assert_eq!(at(&back, &["nested", "none"]), Some(&Json::Null));
            assert_eq!(
                at(&back, &["spans"]).and_then(items).map(<[Json]>::len),
                Some(2)
            );
            assert_eq!(at(&back, &["nested", "missing"]), None);
        }
        assert!(indented(&doc).lines().count() > 6);
        assert!(indented(&doc).contains("\"rounds\": [0.1,2,"));
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(num(0.322345115), "0.322345115");
        assert_eq!(
            parse("0.322345115").ok().as_ref().and_then(number),
            Some(0.322345115)
        );
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn malformed_documents_are_errors_not_panics() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "tru", "1 2", "--"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
