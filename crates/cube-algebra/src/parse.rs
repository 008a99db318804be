//! Textual algebra expressions: `diff(mean(A,B),mean(C,D))`.
//!
//! The batch engine's [`Expr`] is an index tree over a plan's operand
//! list; services and scripts want to *name* operands instead. This
//! module parses the obvious concrete syntax into an [`Expr`] plus the
//! ordered list of operand names it references, leaving it to the
//! caller to resolve names to actual experiments (a file set, a
//! content-addressed repository, ...).
//!
//! # Grammar
//!
//! ```text
//! expr    := "diff"  "(" expr "," expr ")"
//!          | "scale" "(" expr "," number ")"
//!          | REDUCER "(" name ("," name)* ")"
//!          | name
//! REDUCER := "mean" | "sum" | "min" | "max" | "variance" | "stddev"
//!          | "merge"
//! name    := [A-Za-z0-9_.-]+        (function words are reserved)
//! number  := anything f64::from_str accepts, finite
//! ```
//!
//! Whitespace is allowed around every token. Reducers take operand
//! *names* (not sub-expressions), mirroring [`Expr::Reduce`]'s
//! index-list form; `diff` and `scale` nest arbitrarily up to a fixed
//! depth cap. `merge(A,B,…)` is the paper's merge folded left: each
//! metric comes from the first listed operand that provides it.
//!
//! # Errors
//!
//! Every rejection is an [`ExprParseError`] with a **stable code**
//! (`P001`–`P009`, table below) and the byte offset of the offending
//! token — the contract fuzzed by `tests/fuzz_parse.rs` and pinned by
//! the golden corpus in `tests/fixtures/expr/`. The parser never
//! panics on any input.
//!
//! | code | meaning |
//! |---|---|
//! | `P001` | unexpected end of input |
//! | `P002` | unexpected character |
//! | `P003` | expected `(` after a function name |
//! | `P004` | expected `,` or `)` in an argument list |
//! | `P005` | reducer argument must be an operand name |
//! | `P006` | trailing input after the expression |
//! | `P007` | invalid scale factor |
//! | `P008` | expression nested too deeply |
//! | `P009` | empty operand name or argument list |

use std::fmt;

use crate::batch::{Expr, Reduction};

/// Nesting cap for `diff`/`scale`: deep enough for any real composite,
/// shallow enough that parsing and evaluation never recurse unboundedly
/// (`P008`).
pub const MAX_DEPTH: usize = 64;

/// A parse rejection: stable code, byte offset, human message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExprParseError {
    /// Stable error code `P001`–`P009` (see the module table).
    pub code: &'static str,
    /// Byte offset into the input where the problem was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl ExprParseError {
    fn new(code: &'static str, offset: usize, message: impl Into<String>) -> Self {
        Self {
            code,
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for ExprParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} at byte {}", self.code, self.message, self.offset)
    }
}

impl std::error::Error for ExprParseError {}

/// Byte range `[start, end)` of one token or sub-expression in the
/// source text. Offsets index the same bytes as [`ExprParseError`]'s,
/// so parse errors and semantic diagnostics point into one coordinate
/// system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Span {
    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the span covers no bytes (synthetic nodes).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Source spans mirroring the shape of a parsed [`Expr`] tree, built
/// alongside it so semantic analysis ([`crate::check()`]) can point
/// diagnostics at the offending token rather than at the whole
/// expression. Each variant carries the span of the full construct
/// first, then the spans of its parts.
#[derive(Clone, Debug, PartialEq)]
pub enum SpanNode {
    /// A bare operand reference.
    Operand(Span),
    /// A reducer call: the whole call, then one span per argument name
    /// (aligned with the index list of [`Expr::Reduce`]).
    Reduce(Span, Vec<Span>),
    /// A `diff` call: the whole call, then both sides.
    Diff(Span, Box<SpanNode>, Box<SpanNode>),
    /// A `scale` call: the whole call, the inner expression, the factor.
    Scale(Span, Box<SpanNode>, Span),
}

impl SpanNode {
    /// The span of the construct as a whole.
    pub fn span(&self) -> Span {
        match self {
            Self::Operand(s) | Self::Reduce(s, _) | Self::Diff(s, _, _) | Self::Scale(s, _, _) => {
                *s
            }
        }
    }
}

/// A parsed expression: the index tree plus the operand names it
/// references, in first-appearance order. A name used twice maps to
/// one index — `diff(A,A)` references one operand.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedExpr {
    /// The expression over operand indices into [`ParsedExpr::operands`].
    pub expr: Expr,
    /// Distinct operand names, in order of first appearance.
    pub operands: Vec<String>,
    /// Source spans, same tree shape as [`ParsedExpr::expr`].
    pub spans: SpanNode,
}

impl ParsedExpr {
    /// Renders the expression back to canonical text (no whitespace,
    /// names substituted) — equal inputs parse to equal renderings, so
    /// this is a usable cache key.
    pub fn canonical(&self) -> String {
        render_expr(&self.expr, &self.operands)
    }
}

/// Renders an expression tree to canonical text (no whitespace, operand
/// indices substituted with their names). This is the inverse of
/// [`parse_expr`] up to whitespace for every tree the parser produces;
/// the rewrite engine's synthetic [`Expr::Zero`] renders as `zero()`,
/// which is *not* part of the input grammar. An index without a name
/// (checked as `A003`) renders as `?`.
pub fn render_expr(expr: &Expr, names: &[String]) -> String {
    fn go(e: &Expr, names: &[String], out: &mut String) {
        let name = |i: usize| names.get(i).map_or("?", String::as_str);
        match e {
            Expr::Operand(i) => out.push_str(name(*i)),
            Expr::Reduce(r, idxs) => {
                out.push_str(r.name());
                out.push('(');
                for (k, &i) in idxs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push_str(name(i));
                }
                out.push(')');
            }
            Expr::Diff(a, b) => {
                out.push_str("diff(");
                go(a, names, out);
                out.push(',');
                go(b, names, out);
                out.push(')');
            }
            Expr::Scale(inner, f) => {
                out.push_str("scale(");
                go(inner, names, out);
                let _ = fmt::Write::write_fmt(out, format_args!(",{f}"));
                out.push(')');
            }
            Expr::Zero => out.push_str("zero()"),
        }
    }
    let mut s = String::new();
    go(expr, names, &mut s);
    s
}

fn is_function_word(word: &str) -> bool {
    word == "diff" || word == "scale" || Reduction::from_name(word).is_some()
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'
}

struct Parser<'s> {
    input: &'s [u8],
    pos: usize,
    operands: Vec<String>,
}

impl<'s> Parser<'s> {
    fn skip_ws(&mut self) {
        while self
            .input
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn eof(&self, what: &str) -> ExprParseError {
        ExprParseError::new("P001", self.pos, format!("unexpected end of input, {what}"))
    }

    /// Consumes one expected punctuation byte.
    fn expect(&mut self, byte: u8, code: &'static str, what: &str) -> Result<(), ExprParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(ExprParseError::new(
                code,
                self.pos,
                format!("expected {what}, found '{}'", printable(b)),
            )),
            None => Err(self.eof(&format!("expected {what}"))),
        }
    }

    /// Reads one `name` token (maximal run of name bytes).
    fn name(&mut self) -> Result<(String, usize), ExprParseError> {
        self.skip_ws();
        let start = self.pos;
        while self.peek().is_some_and(is_name_byte) {
            self.pos += 1;
        }
        if self.pos == start {
            return match self.peek() {
                Some(b) => Err(ExprParseError::new(
                    "P002",
                    start,
                    format!("expected an operand name, found '{}'", printable(b)),
                )),
                None => Err(self.eof("expected an operand name")),
            };
        }
        // The input is only sliced on name-byte boundaries, all ASCII,
        // so the token is valid UTF-8.
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .expect("name tokens are ASCII")
            .to_string();
        Ok((text, start))
    }

    /// Index of `name` in the operand list, interning on first use.
    fn operand_index(&mut self, name: String) -> usize {
        match self.operands.iter().position(|n| n == &name) {
            Some(i) => i,
            None => {
                self.operands.push(name);
                self.operands.len() - 1
            }
        }
    }

    fn expr(&mut self, depth: usize) -> Result<(Expr, SpanNode), ExprParseError> {
        if depth > MAX_DEPTH {
            return Err(ExprParseError::new(
                "P008",
                self.pos,
                format!("expression nested deeper than {MAX_DEPTH} levels"),
            ));
        }
        let (word, word_at) = self.name()?;
        let word_end = self.pos;
        self.skip_ws();
        // Function words are reserved: a bare `diff` or `mean` is a
        // missing call, not an operand reference. Content-addressed
        // operand ids can never collide with them. Any *other* word
        // followed by '(' is a call to a function that does not exist.
        if !is_function_word(&word) {
            if self.peek() == Some(b'(') {
                return Err(ExprParseError::new(
                    "P005",
                    word_at,
                    format!(
                        "unknown function '{word}' (expected diff, scale, \
                         mean, sum, min, max, variance, stddev, or merge)"
                    ),
                ));
            }
            let i = self.operand_index(word);
            let span = Span {
                start: word_at,
                end: word_end,
            };
            return Ok((Expr::Operand(i), SpanNode::Operand(span)));
        }
        match word.as_str() {
            "diff" => {
                self.expect(b'(', "P003", "'('")?;
                let (a, sa) = self.expr(depth + 1)?;
                self.expect(b',', "P004", "','")?;
                let (b, sb) = self.expr(depth + 1)?;
                self.expect(b')', "P004", "')'")?;
                let span = Span {
                    start: word_at,
                    end: self.pos,
                };
                Ok((
                    Expr::diff(a, b),
                    SpanNode::Diff(span, Box::new(sa), Box::new(sb)),
                ))
            }
            "scale" => {
                self.expect(b'(', "P003", "'('")?;
                let (inner, si) = self.expr(depth + 1)?;
                self.expect(b',', "P004", "','")?;
                let (factor, sf) = self.number()?;
                self.expect(b')', "P004", "')'")?;
                let span = Span {
                    start: word_at,
                    end: self.pos,
                };
                Ok((
                    Expr::scale(inner, factor),
                    SpanNode::Scale(span, Box::new(si), sf),
                ))
            }
            _ => {
                let r = Reduction::from_name(&word)
                    .expect("function words are diff, scale, or reducers");
                self.expect(b'(', "P003", "'('")?;
                let (idxs, arg_spans) = self.name_list()?;
                let span = Span {
                    start: word_at,
                    end: self.pos,
                };
                Ok((Expr::Reduce(r, idxs), SpanNode::Reduce(span, arg_spans)))
            }
        }
    }

    /// `name ("," name)* ")"` — the argument list of a reducer. Empty
    /// lists are rejected with `P009`.
    fn name_list(&mut self) -> Result<(Vec<usize>, Vec<Span>), ExprParseError> {
        self.skip_ws();
        if self.peek() == Some(b')') {
            return Err(ExprParseError::new(
                "P009",
                self.pos,
                "reducer needs at least one operand name",
            ));
        }
        let mut idxs = Vec::new();
        let mut spans = Vec::new();
        loop {
            let (name, at) = self.name()?;
            let name_end = self.pos;
            self.skip_ws();
            if self.peek() == Some(b'(') {
                return Err(ExprParseError::new(
                    "P005",
                    at,
                    format!(
                        "reducer arguments are operand names, but '{name}' \
                         is called like a function (reducers do not nest)"
                    ),
                ));
            }
            idxs.push(self.operand_index(name));
            spans.push(Span {
                start: at,
                end: name_end,
            });
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b')') => {
                    self.pos += 1;
                    return Ok((idxs, spans));
                }
                Some(b) => {
                    return Err(ExprParseError::new(
                        "P004",
                        self.pos,
                        format!("expected ',' or ')', found '{}'", printable(b)),
                    ))
                }
                None => return Err(self.eof("expected ',' or ')'")),
            }
        }
    }

    /// The scale factor: a maximal run of number-ish bytes fed to the
    /// float parser; NaN/infinity are rejected (the algebra's NaN
    /// policy treats stored NaNs as data, but a *requested* non-finite
    /// factor is always a mistake).
    fn number(&mut self) -> Result<(f64, Span), ExprParseError> {
        self.skip_ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'+' | b'-' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("number bytes");
        let span = Span {
            start,
            end: self.pos,
        };
        match text.parse::<f64>() {
            Ok(f) if f.is_finite() => Ok((f, span)),
            _ => Err(ExprParseError::new(
                "P007",
                start,
                if text.is_empty() {
                    "expected a scale factor".to_string()
                } else {
                    format!("'{text}' is not a finite scale factor")
                },
            )),
        }
    }
}

fn printable(b: u8) -> String {
    if b.is_ascii_graphic() || b == b' ' {
        (b as char).to_string()
    } else {
        format!("\\x{b:02x}")
    }
}

/// Parses a textual algebra expression.
///
/// ```
/// use cube_algebra::parse::parse_expr;
/// let p = parse_expr("diff(mean(A,B), mean(C,D))").unwrap();
/// assert_eq!(p.operands, ["A", "B", "C", "D"]);
/// assert_eq!(p.canonical(), "diff(mean(A,B),mean(C,D))");
///
/// let e = parse_expr("median(A)").unwrap_err();
/// assert_eq!(e.code, "P005");
/// ```
pub fn parse_expr(input: &str) -> Result<ParsedExpr, ExprParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        operands: Vec::new(),
    };
    let (expr, spans) = p.expr(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(ExprParseError::new(
            "P006",
            p.pos,
            "trailing input after the expression",
        ));
    }
    Ok(ParsedExpr {
        expr,
        operands: p.operands,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(inputs: &[&str]) -> Vec<&'static str> {
        inputs
            .iter()
            .map(|s| parse_expr(s).unwrap_err().code)
            .collect()
    }

    #[test]
    fn operands_intern_in_first_appearance_order() {
        let p = parse_expr("diff(mean(b, a), mean(a, c))").unwrap();
        assert_eq!(p.operands, ["b", "a", "c"]);
        assert_eq!(
            p.expr,
            Expr::diff(
                Expr::Reduce(Reduction::Mean, vec![0, 1]),
                Expr::Reduce(Reduction::Mean, vec![1, 2]),
            )
        );
    }

    #[test]
    fn every_reducer_and_nesting_parses() {
        for r in ["mean", "sum", "min", "max", "variance", "stddev", "merge"] {
            let p = parse_expr(&format!("{r}(x,y)")).unwrap();
            assert_eq!(p.canonical(), format!("{r}(x,y)"));
        }
        let p = parse_expr(" scale( diff( a , sum(b,c) ) , 0.5 ) ").unwrap();
        assert_eq!(p.canonical(), "scale(diff(a,sum(b,c)),0.5)");
        // A bare name is the identity expression over one operand.
        let p = parse_expr("run-3.cubec").unwrap();
        assert_eq!(p.expr, Expr::Operand(0));
        assert_eq!(p.operands, ["run-3.cubec"]);
    }

    #[test]
    fn spans_point_into_the_source() {
        let src = " diff( mean(a, b) , scale( c , 2.5 ) ) ";
        let p = parse_expr(src).unwrap();
        let SpanNode::Diff(all, left, right) = &p.spans else {
            panic!("expected a diff span");
        };
        assert_eq!(
            &src[all.start..all.end],
            "diff( mean(a, b) , scale( c , 2.5 ) )"
        );
        let SpanNode::Reduce(call, args) = left.as_ref() else {
            panic!("expected a reduce span");
        };
        assert_eq!(&src[call.start..call.end], "mean(a, b)");
        assert_eq!(&src[args[0].start..args[0].end], "a");
        assert_eq!(&src[args[1].start..args[1].end], "b");
        let SpanNode::Scale(call, inner, factor) = right.as_ref() else {
            panic!("expected a scale span");
        };
        assert_eq!(&src[call.start..call.end], "scale( c , 2.5 )");
        assert_eq!(inner.span().len(), 1);
        assert_eq!(&src[factor.start..factor.end], "2.5");
        assert!(!factor.is_empty());
    }

    #[test]
    fn rejections_carry_stable_codes_and_offsets() {
        assert_eq!(
            codes(&[
                "diff(a,",        // P001: input ends mid-list
                "mean(a)!",       // P006: trailing junk
                "diff(a b)",      // P004: missing comma
                "median(a)",      // P005: unknown function
                "mean()",         // P009: empty reducer
                "scale(a, nope)", // P007: bad factor
                "(a)",            // P002: no leading name
                "mean(sum(a),b)", // P005: reducers take names only
                "scale(a, inf)",  // P007: non-finite factor
                "diff",           // P001: function word, then end of input
                "diff a,b",       // P003: function word without its '('
            ]),
            [
                "P001", "P006", "P004", "P005", "P009", "P007", "P002", "P005", "P007", "P001",
                "P003",
            ]
        );
        let deep = format!("{}a{}", "scale(".repeat(70), ",2)".repeat(70));
        assert_eq!(parse_expr(&deep).unwrap_err().code, "P008");
        let e = parse_expr("diff(a b)").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(e.to_string().starts_with("P004:"));
    }

    #[test]
    fn parses_compose_with_plan_evaluation() {
        use cube_model::builder::single_threaded_system;
        use cube_model::{ExperimentBuilder, RegionKind, Unit};
        let mk = |name: &str, v: f64| {
            let mut b = ExperimentBuilder::new(name);
            let t = b.def_metric("time", Unit::Seconds, "", None);
            let m = b.def_module("a", "a");
            let r = b.def_region("main", m, RegionKind::Function, 1, 1);
            let cs = b.def_call_site("a", 1, r);
            let root = b.def_call_node(cs, None);
            let ts = single_threaded_system(&mut b, 1);
            b.set_severity(t, root, ts[0], v);
            b.build().unwrap()
        };
        let (a, b, c) = (mk("a", 9.0), mk("b", 11.0), mk("c", 4.0));
        let p = parse_expr("diff(mean(a,b), c)").unwrap();
        assert_eq!(p.operands, ["a", "b", "c"]);
        let plan = crate::batch::BatchPlan::new(&[&a, &b, &c]);
        let result = plan.eval(&p.expr).unwrap();
        assert_eq!(result.severity().values(), &[6.0]);
    }
}
