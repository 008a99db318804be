//! Just enough JSON for the API: a scanner that pulls one string field
//! out of a flat request object (`{"expr": "..."}`), and the string
//! escaper every response uses (one copy, in `cube-model`). The server
//! never needs a general JSON parser, and not having one keeps the
//! request path free of recursion.

pub use cube_model::json_string;

/// Extracts the string value of `field` from a flat JSON object,
/// decoding the standard escapes. Returns `None` when the field is
/// absent, not a string, or the object is malformed.
pub fn extract_string_field(body: &str, field: &str) -> Option<String> {
    let mut rest = body.trim_start();
    rest = rest.strip_prefix('{')?;
    loop {
        rest = rest.trim_start();
        if rest.starts_with('}') {
            return None;
        }
        let (key, after_key) = read_string(rest)?;
        rest = after_key.trim_start().strip_prefix(':')?.trim_start();
        if rest.starts_with('"') {
            let (value, after_value) = read_string(rest)?;
            if key == field {
                return Some(value);
            }
            rest = after_value;
        } else {
            // skip a non-string scalar (number, true/false/null)
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest = &rest[end..];
        }
        rest = rest.trim_start();
        match rest.chars().next() {
            Some(',') => rest = &rest[1..],
            Some('}') => return None,
            _ => return None,
        }
    }
}

/// Reads a JSON string literal at the start of `s`, returning the
/// decoded value and the remainder after the closing quote.
fn read_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let inner = &s[1..];
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &inner[i + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.1.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_round_trip() {
        for (s, lit) in [
            (
                "a \"quoted\"\\ line\nwith\ttabs\u{1}",
                "\"a \\\"quoted\\\"\\\\ line\\nwith\\ttabs\\u0001\"",
            ),
            ("a\"b\\c\n", "\"a\\\"b\\\\c\\n\""),
            ("\u{1}", "\"\\u0001\""),
        ] {
            assert_eq!(json_string(s), lit);
            let (back, rest) = read_string(lit).unwrap();
            assert_eq!(back, s);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn extracts_the_named_field() {
        let body = r#"{ "label": "x", "expr": "diff(mean(a,b),c)", "n": 3 }"#;
        assert_eq!(
            extract_string_field(body, "expr").as_deref(),
            Some("diff(mean(a,b),c)")
        );
        assert_eq!(extract_string_field(body, "label").as_deref(), Some("x"));
        assert_eq!(extract_string_field(body, "missing"), None);
        assert_eq!(extract_string_field("not json", "expr"), None);
        assert_eq!(extract_string_field(r#"{"expr": 5}"#, "expr"), None);
    }

    #[test]
    fn decodes_escaped_values() {
        let body = "{\"expr\": \"scale(a,\\t2)\", \"u\": \"\\u0041\"}";
        assert_eq!(
            extract_string_field(body, "expr").as_deref(),
            Some("scale(a,\t2)")
        );
        assert_eq!(extract_string_field(body, "u").as_deref(), Some("A"));
    }
}
