//! A small JSON reader for the benchmark's own files (`BENCHMARK.json`,
//! run reports): `cpr_obs` renders and validates JSON but does not
//! parse it. Values land in [`cpr_obs::Json`], the type reports are
//! written with.

use cpr_obs::Json;

/// Parses exactly one JSON value.
///
/// # Errors
///
/// The byte offset and a short message at the first syntax error.
pub fn parse(text: &str) -> Result<Json, (usize, &'static str)> {
    let b = text.as_bytes();
    let (value, pos) = value(b, skip_ws(b, 0), 0)?;
    let pos = skip_ws(b, pos);
    if pos != b.len() {
        return Err((pos, "trailing characters after JSON value"));
    }
    Ok(value)
}

/// Field `key` of an object; `None` on other values or a missing key.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number as `f64`, integer or float.
pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Int(v) => Some(*v as f64),
        Json::Float(v) => Some(*v),
        _ => None,
    }
}

/// A string's contents.
pub fn string(value: &Json) -> Option<&str> {
    match value {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

/// An array's items; empty for other values.
pub fn items(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        _ => &[],
    }
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 64;

type Parsed<T> = Result<(T, usize), (usize, &'static str)>;

fn skip_ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn literal(b: &[u8], pos: usize, word: &'static [u8], v: Json) -> Parsed<Json> {
    if b[pos..].starts_with(word) {
        Ok((v, pos + word.len()))
    } else {
        Err((pos, "expected a JSON value"))
    }
}

fn value(b: &[u8], pos: usize, depth: usize) -> Parsed<Json> {
    if depth > MAX_DEPTH {
        return Err((pos, "nesting too deep"));
    }
    match b.get(pos) {
        None => Err((pos, "expected a JSON value")),
        Some(b'n') => literal(b, pos, b"null", Json::Null),
        Some(b't') => literal(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, b"false", Json::Bool(false)),
        Some(b'"') => string_at(b, pos).map(|(s, p)| (Json::Str(s), p)),
        Some(b'[') => {
            let mut items = Vec::new();
            let mut pos = skip_ws(b, pos + 1);
            if b.get(pos) == Some(&b']') {
                return Ok((Json::Arr(items), pos + 1));
            }
            loop {
                let (item, next) = value(b, pos, depth + 1)?;
                items.push(item);
                pos = skip_ws(b, next);
                match b.get(pos) {
                    Some(b',') => pos = skip_ws(b, pos + 1),
                    Some(b']') => return Ok((Json::Arr(items), pos + 1)),
                    _ => return Err((pos, "expected ',' or ']'")),
                }
            }
        }
        Some(b'{') => {
            let mut fields = Vec::new();
            let mut pos = skip_ws(b, pos + 1);
            if b.get(pos) == Some(&b'}') {
                return Ok((Json::Obj(fields), pos + 1));
            }
            loop {
                if b.get(pos) != Some(&b'"') {
                    return Err((pos, "expected an object key"));
                }
                let (key, next) = string_at(b, pos)?;
                pos = skip_ws(b, next);
                if b.get(pos) != Some(&b':') {
                    return Err((pos, "expected ':'"));
                }
                let (item, next) = value(b, skip_ws(b, pos + 1), depth + 1)?;
                fields.push((key, item));
                pos = skip_ws(b, next);
                match b.get(pos) {
                    Some(b',') => pos = skip_ws(b, pos + 1),
                    Some(b'}') => return Ok((Json::Obj(fields), pos + 1)),
                    _ => return Err((pos, "expected ',' or '}'")),
                }
            }
        }
        Some(_) => number_at(b, pos),
    }
}

fn number_at(b: &[u8], pos: usize) -> Parsed<Json> {
    let mut end = pos;
    while end < b.len() && matches!(b[end], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        end += 1;
    }
    let text = std::str::from_utf8(&b[pos..end]).map_err(|_| (pos, "bad number"))?;
    if let Ok(v) = text.parse::<i64>() {
        return Ok((Json::Int(v), end));
    }
    match text.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok((Json::Float(v), end)),
        _ => Err((pos, "expected a JSON value")),
    }
}

fn string_at(b: &[u8], pos: usize) -> Parsed<String> {
    let mut out = Vec::new();
    let mut i = pos + 1;
    loop {
        match b.get(i) {
            None => return Err((i, "unterminated string")),
            Some(b'"') => {
                let s = String::from_utf8(out).map_err(|_| (pos, "string is not UTF-8"))?;
                return Ok((s, i + 1));
            }
            Some(b'\\') => {
                let c = match b.get(i + 1) {
                    Some(b'"') => '"',
                    Some(b'\\') => '\\',
                    Some(b'/') => '/',
                    Some(b'n') => '\n',
                    Some(b'r') => '\r',
                    Some(b't') => '\t',
                    Some(b'b') => '\u{8}',
                    Some(b'f') => '\u{c}',
                    Some(b'u') => {
                        let hex = b.get(i + 2..i + 6).ok_or((i, "short \\u escape"))?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or((i, "bad \\u escape"))?;
                        i += 4;
                        // Surrogate pairs do not occur in this
                        // benchmark's files; a lone one is replaced.
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err((i, "bad escape")),
                };
                out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                i += 2;
            }
            Some(&c) => {
                out.push(c);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_what_the_renderer_writes() {
        let doc = Json::obj([
            ("name", Json::str("lookup \"steady\"\n\tµs")),
            ("n", Json::int(512)),
            ("neg", Json::int(-3)),
            ("value", Json::float(19.25)),
            ("tiny", Json::float(1e-7)),
            ("none", Json::Null),
            ("ok", Json::Bool(true)),
            (
                "list",
                Json::arr([Json::int(1), Json::arr([]), Json::obj::<&str>([])]),
            ),
        ]);
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
        assert_eq!(number(get(&doc, "n").unwrap()), Some(512.0));
        assert_eq!(
            string(get(&doc, "name").unwrap()),
            Some("lookup \"steady\"\n\tµs")
        );
        assert_eq!(items(get(&doc, "list").unwrap()).len(), 3);
        assert!(get(&doc, "missing").is_none());
    }

    #[test]
    fn rejects_malformed_input_with_an_offset() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"abc",
            "{\"a\":1,}",
            "--",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(parse(&"[".repeat(100)).is_err());
        assert_eq!(parse("\"\\u00b5s\"").unwrap(), Json::str("µs"));
    }
}
