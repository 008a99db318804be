//! Entity escaping and unescaping.
//!
//! The writer escapes the five predefined XML entities; the reader
//! additionally accepts decimal (`&#10;`) and hexadecimal (`&#x1F;`)
//! character references, which other CUBE producers may emit.
//!
//! Each operation comes in two flavors: the `String`-returning
//! functions always allocate, while the `_cow` variants return the
//! input slice unchanged when nothing needs rewriting — the common
//! case for CUBE files, whose names and severity rows rarely contain
//! markup characters. The streaming reader and writer are built on the
//! `_cow` variants so untouched data is never copied.

use std::borrow::Cow;

use crate::error::{Position, XmlError};

/// Escapes text content (`&`, `<`, `>`), borrowing when clean.
pub fn escape_text_cow(s: &str) -> Cow<'_, str> {
    if !s.contains(['&', '<', '>']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(ch),
        }
    }
    Cow::Owned(out)
}

/// Escapes text content (`&`, `<`, `>`).
pub fn escape_text(s: &str) -> String {
    escape_text_cow(s).into_owned()
}

/// Escapes an attribute value (text entities plus both quote kinds, and
/// the whitespace characters that attribute-value normalization would
/// otherwise fold into spaces), borrowing when clean.
pub fn escape_attr_cow(s: &str) -> Cow<'_, str> {
    if !s.contains(['&', '<', '>', '"', '\'', '\n', '\r', '\t']) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            '\n' => out.push_str("&#10;"),
            '\r' => out.push_str("&#13;"),
            '\t' => out.push_str("&#9;"),
            _ => out.push(ch),
        }
    }
    Cow::Owned(out)
}

/// Escapes an attribute value (text entities plus both quote kinds, and
/// the whitespace characters that attribute-value normalization would
/// otherwise fold into spaces).
pub fn escape_attr(s: &str) -> String {
    escape_attr_cow(s).into_owned()
}

/// Resolves entity and character references in raw text, borrowing the
/// input when it contains no references.
pub fn unescape_cow(s: &str, at: Position) -> Result<Cow<'_, str>, XmlError> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after
            .find(';')
            .ok_or_else(|| XmlError::syntax(at, "unterminated entity reference"))?;
        let name = &after[..semi];
        match name {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                let cp = u32::from_str_radix(&name[2..], 16).map_err(|_| {
                    XmlError::syntax(at, format!("bad hex character reference &{name};"))
                })?;
                out.push(char::from_u32(cp).ok_or_else(|| {
                    XmlError::syntax(at, format!("character reference &{name}; is not a char"))
                })?);
            }
            _ if name.starts_with('#') => {
                let cp: u32 = name[1..].parse().map_err(|_| {
                    XmlError::syntax(at, format!("bad character reference &{name};"))
                })?;
                out.push(char::from_u32(cp).ok_or_else(|| {
                    XmlError::syntax(at, format!("character reference &{name}; is not a char"))
                })?);
            }
            _ => {
                return Err(XmlError::syntax(
                    at,
                    format!("unknown entity reference &{name};"),
                ))
            }
        }
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    const AT: Position = Position { line: 1, column: 1 };

    #[test]
    fn escape_text_basics() {
        assert_eq!(
            escape_text("a < b && c > d"),
            "a &lt; b &amp;&amp; c &gt; d"
        );
        assert_eq!(escape_text("plain"), "plain");
    }

    #[test]
    fn escape_attr_quotes_and_whitespace() {
        assert_eq!(escape_attr(r#"say "hi"'"#), "say &quot;hi&quot;&apos;");
        assert_eq!(escape_attr("a\nb\tc\r"), "a&#10;b&#9;c&#13;");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(
            unescape_cow("a &lt; b &amp;&amp; c &gt; &quot;d&quot; &apos;", AT).unwrap(),
            "a < b && c > \"d\" '"
        );
    }

    #[test]
    fn unescape_character_references() {
        assert_eq!(unescape_cow("&#65;&#x42;&#x63;", AT).unwrap(), "ABc");
        assert_eq!(unescape_cow("newline:&#10;", AT).unwrap(), "newline:\n");
    }

    #[test]
    fn unescape_rejects_bad_references() {
        assert!(unescape_cow("&unknown;", AT).is_err());
        assert!(unescape_cow("&#xZZ;", AT).is_err());
        assert!(unescape_cow("&#1114112;", AT).is_err()); // beyond char::MAX
        assert!(unescape_cow("&amp", AT).is_err()); // unterminated
    }

    #[test]
    fn cow_variants_borrow_clean_input() {
        assert!(matches!(escape_text_cow("1.5 2.25 -3"), Cow::Borrowed(_)));
        assert!(matches!(escape_attr_cow("plain name"), Cow::Borrowed(_)));
        assert!(matches!(
            unescape_cow("no entities", AT).unwrap(),
            Cow::Borrowed(_)
        ));
        assert!(matches!(escape_text_cow("a<b"), Cow::Owned(_)));
        assert!(matches!(escape_attr_cow("a\"b"), Cow::Owned(_)));
        assert!(matches!(
            unescape_cow("a&amp;b", AT).unwrap(),
            Cow::Owned(_)
        ));
    }

    #[test]
    fn roundtrip_text() {
        let samples = [
            "",
            "x",
            "<&>",
            "a&amp;b",
            "tab\there",
            "quote\"'",
            "ünïcødé 🚀",
        ];
        for s in samples {
            assert_eq!(unescape_cow(&escape_text(s), AT).unwrap(), s, "text: {s:?}");
            assert_eq!(unescape_cow(&escape_attr(s), AT).unwrap(), s, "attr: {s:?}");
        }
    }
}
