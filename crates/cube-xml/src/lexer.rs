//! A streaming tokenizer for the XML subset used by the CUBE format.
//!
//! Supported: the XML declaration, start/end/self-closing tags with
//! attributes (either quote kind), text content, comments, and CDATA
//! sections. Not supported (not needed by the format, rejected cleanly):
//! DOCTYPE declarations and processing instructions other than the
//! declaration.
//!
//! [`Lexer::next_event`] yields borrowed [`XmlEvent`]s whose names and
//! bodies are slices of the input; attribute values and text are
//! [`Cow`]s that only allocate when entity references must be
//! resolved. This is the zero-copy path the streaming CUBE reader is
//! built on.
//!
//! Events borrow from the input string, not from the lexer, so an
//! event may be held across subsequent `next_event` calls. A lexer is
//! a few words of state: cloning it saves a position to lex from
//! again.

use std::borrow::Cow;

use crate::error::{Position, XmlError};
use crate::escape::unescape_cow;

/// One lexical event, borrowing from the input document.
#[derive(Clone, Debug, PartialEq)]
pub enum XmlEvent<'a> {
    /// `<?xml ...?>` — contents are not interpreted.
    Declaration,
    /// `<name attr="v" ...>` or `<name ... />`.
    StartTag {
        name: &'a str,
        attributes: Vec<(&'a str, Cow<'a, str>)>,
        self_closing: bool,
    },
    /// `</name>`.
    EndTag { name: &'a str },
    /// Unescaped character data (entity references resolved; borrowed
    /// when the raw text contains none).
    Text(Cow<'a, str>),
    /// `<!-- ... -->` — preserved so tools may inspect it.
    Comment(&'a str),
    /// `<![CDATA[ ... ]]>` — delivered as literal text.
    CData(&'a str),
}

impl<'a> XmlEvent<'a> {
    /// Looks up an attribute value on a start tag.
    pub fn attr(&self, key: &str) -> Option<&str> {
        match self {
            XmlEvent::StartTag { attributes, .. } => attributes
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.as_ref()),
            _ => None,
        }
    }
}

/// Tokenizer over an in-memory document.
#[derive(Clone)]
pub struct Lexer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
        }
    }

    /// Current position, for error messages.
    pub fn position(&self) -> Position {
        Position {
            line: self.line,
            column: (self.pos - self.line_start + 1) as u32,
        }
    }

    fn advance_over(&mut self, n: usize) {
        for i in self.pos..self.pos + n {
            if self.bytes[i] == b'\n' {
                self.line += 1;
                self.line_start = i + 1;
            }
        }
        self.pos += n;
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn find_from(&self, needle: &str) -> Option<usize> {
        self.input[self.pos..].find(needle).map(|i| self.pos + i)
    }

    /// Returns the next borrowed event, or `None` at end of input.
    pub fn next_event(&mut self) -> Result<Option<XmlEvent<'a>>, XmlError> {
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        if self.bytes[self.pos] == b'<' {
            self.lex_markup().map(Some)
        } else {
            self.lex_text().map(Some)
        }
    }

    fn lex_text(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let at = self.position();
        let end = self.find_from("<").unwrap_or(self.bytes.len());
        let raw = &self.input[self.pos..end];
        self.advance_over(end - self.pos);
        Ok(XmlEvent::Text(unescape_cow(raw, at)?))
    }

    fn lex_markup(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        let at = self.position();
        if self.starts_with("<!--") {
            let close = self.input[self.pos + 4..]
                .find("-->")
                .map(|i| self.pos + 4 + i)
                .ok_or_else(|| XmlError::syntax(at, "unterminated comment"))?;
            let body = &self.input[self.pos + 4..close];
            self.advance_over(close + 3 - self.pos);
            return Ok(XmlEvent::Comment(body));
        }
        if self.starts_with("<![CDATA[") {
            let close = self.input[self.pos + 9..]
                .find("]]>")
                .map(|i| self.pos + 9 + i)
                .ok_or_else(|| XmlError::syntax(at, "unterminated CDATA section"))?;
            let body = &self.input[self.pos + 9..close];
            self.advance_over(close + 3 - self.pos);
            return Ok(XmlEvent::CData(body));
        }
        if self.starts_with("<?") {
            let close = self
                .find_from("?>")
                .ok_or_else(|| XmlError::syntax(at, "unterminated processing instruction"))?;
            let is_decl = self.starts_with("<?xml");
            self.advance_over(close + 2 - self.pos);
            if is_decl {
                return Ok(XmlEvent::Declaration);
            }
            return Err(XmlError::syntax(
                at,
                "processing instructions are not supported by the CUBE format",
            ));
        }
        if self.starts_with("<!") {
            return Err(XmlError::syntax(
                at,
                "DOCTYPE and other declarations are not supported by the CUBE format",
            ));
        }
        if self.starts_with("</") {
            let close = self
                .find_from(">")
                .ok_or_else(|| XmlError::syntax(at, "unterminated end tag"))?;
            let name = self.input[self.pos + 2..close].trim();
            if name.is_empty() {
                return Err(XmlError::syntax(at, "end tag without a name"));
            }
            self.advance_over(close + 1 - self.pos);
            return Ok(XmlEvent::EndTag { name });
        }
        self.lex_start_tag(at)
    }

    fn lex_start_tag(&mut self, at: Position) -> Result<XmlEvent<'a>, XmlError> {
        // Skip '<'.
        self.advance_over(1);
        let name = self.lex_name(at)?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            if self.pos >= self.bytes.len() {
                return Err(XmlError::syntax(at, "unterminated start tag"));
            }
            match self.bytes[self.pos] {
                b'>' => {
                    self.advance_over(1);
                    return Ok(XmlEvent::StartTag {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                b'/' => {
                    if !self.starts_with("/>") {
                        return Err(XmlError::syntax(self.position(), "expected '/>'"));
                    }
                    self.advance_over(2);
                    return Ok(XmlEvent::StartTag {
                        name,
                        attributes,
                        self_closing: true,
                    });
                }
                _ => {
                    let attr_at = self.position();
                    let key = self.lex_name(attr_at)?;
                    self.skip_whitespace();
                    if self.pos >= self.bytes.len() || self.bytes[self.pos] != b'=' {
                        return Err(XmlError::syntax(
                            attr_at,
                            format!("attribute '{key}' must be followed by '='"),
                        ));
                    }
                    self.advance_over(1);
                    self.skip_whitespace();
                    let value = self.lex_attr_value(attr_at)?;
                    attributes.push((key, value));
                }
            }
        }
    }

    fn lex_name(&mut self, at: Position) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            let ok = b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':');
            if !ok {
                break;
            }
            self.pos += 1; // names never contain newlines
        }
        if self.pos == start {
            return Err(XmlError::syntax(at, "expected a name"));
        }
        let name = &self.input[start..self.pos];
        if name.as_bytes()[0].is_ascii_digit() {
            return Err(XmlError::syntax(
                at,
                format!("name '{name}' starts with a digit"),
            ));
        }
        Ok(name)
    }

    fn lex_attr_value(&mut self, at: Position) -> Result<Cow<'a, str>, XmlError> {
        if self.pos >= self.bytes.len() {
            return Err(XmlError::syntax(at, "missing attribute value"));
        }
        let quote = self.bytes[self.pos];
        if quote != b'"' && quote != b'\'' {
            return Err(XmlError::syntax(
                self.position(),
                "attribute value must be quoted",
            ));
        }
        self.advance_over(1);
        let q = quote as char;
        let close = self.input[self.pos..]
            .find(q)
            .map(|i| self.pos + i)
            .ok_or_else(|| XmlError::syntax(at, "unterminated attribute value"))?;
        let raw = &self.input[self.pos..close];
        let value = unescape_cow(raw, at)?;
        self.advance_over(close + 1 - self.pos);
        Ok(value)
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.advance_over(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lexes a whole document into its events.
    fn events(input: &str) -> Result<Vec<XmlEvent<'_>>, XmlError> {
        let mut lexer = Lexer::new(input);
        let mut out = Vec::new();
        while let Some(ev) = lexer.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    #[test]
    fn simple_document() {
        let evs = events(r#"<?xml version="1.0"?><a x="1"><b/>hi</a>"#).unwrap();
        assert_eq!(evs.len(), 5);
        assert_eq!(evs[0], XmlEvent::Declaration);
        assert_eq!(
            evs[1],
            XmlEvent::StartTag {
                name: "a",
                attributes: vec![("x", "1".into())],
                self_closing: false
            }
        );
        assert_eq!(
            evs[2],
            XmlEvent::StartTag {
                name: "b",
                attributes: vec![],
                self_closing: true
            }
        );
        assert_eq!(evs[3], XmlEvent::Text("hi".into()));
        assert_eq!(evs[4], XmlEvent::EndTag { name: "a" });
    }

    #[test]
    fn attributes_both_quote_kinds_and_entities() {
        let evs = events(r#"<m name='a &amp; b' descr="q&quot;q"/>"#).unwrap();
        match &evs[0] {
            XmlEvent::StartTag { attributes, .. } => {
                assert_eq!(attributes[0], ("name", "a & b".into()));
                assert_eq!(attributes[1], ("descr", "q\"q".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn comments_and_cdata() {
        let evs = events("<a><!-- note --><![CDATA[1 < 2 && 3]]></a>").unwrap();
        assert_eq!(evs[1], XmlEvent::Comment(" note "));
        assert_eq!(evs[2], XmlEvent::CData("1 < 2 && 3"));
    }

    #[test]
    fn text_entities_resolved() {
        let evs = events("<a>x &lt; y</a>").unwrap();
        assert_eq!(evs[1], XmlEvent::Text("x < y".into()));
    }

    #[test]
    fn error_positions_track_lines() {
        let err = events("<a>\n  <b attr></b>\n</a>").unwrap_err();
        match err {
            XmlError::Syntax { position, .. } => {
                assert_eq!(position.line, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_doctype_and_pi() {
        assert!(events("<!DOCTYPE cube><cube/>").is_err());
        assert!(events("<?php echo ?><cube/>").is_err());
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(events("<a").is_err());
        assert!(events("<!-- never closed").is_err());
        assert!(events("<a x=\"1>").is_err());
        assert!(events("<![CDATA[ oops").is_err());
    }

    #[test]
    fn whitespace_inside_tags() {
        let evs = events("<a  x = \"1\"   y='2' ></a>").unwrap();
        match &evs[0] {
            XmlEvent::StartTag { attributes, .. } => assert_eq!(attributes.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn name_rules() {
        assert!(events("<1abc/>").is_err());
        assert!(events("<a-b.c:d/>").is_ok());
    }

    #[test]
    fn events_borrow_from_input() {
        use std::borrow::Cow;
        let input = r#"<a name="plain" descr="x &amp; y">text &lt;z</a>"#;
        let mut lexer = Lexer::new(input);
        let Some(XmlEvent::StartTag {
            name, attributes, ..
        }) = lexer.next_event().unwrap()
        else {
            panic!("expected a start tag");
        };
        assert_eq!(name, "a");
        // Clean attribute values borrow; escaped ones allocate.
        assert!(matches!(&attributes[0].1, Cow::Borrowed(_)));
        assert_eq!(attributes[1], ("descr", Cow::Owned::<str>("x & y".into())));
        let Some(XmlEvent::Text(t)) = lexer.next_event().unwrap() else {
            panic!("expected text");
        };
        assert!(matches!(t, Cow::Owned(_)));
        assert_eq!(t, "text <z");
        assert_eq!(
            lexer.next_event().unwrap(),
            Some(XmlEvent::EndTag { name: "a" })
        );
        assert_eq!(lexer.next_event().unwrap(), None);
    }

    #[test]
    fn events_outlive_later_calls() {
        let input = "<a x='1'/><b/>";
        let mut lexer = Lexer::new(input);
        let first = lexer.next_event().unwrap().unwrap();
        let second = lexer.next_event().unwrap().unwrap();
        // `first` is still usable here: it borrows from `input`, not
        // from the lexer.
        assert_eq!(first.attr("x"), Some("1"));
        assert!(matches!(second, XmlEvent::StartTag { name: "b", .. }));
    }
}
