//! Static semantic analysis of algebra expressions — `cube check`.
//!
//! The algebra is *closed*: every operator yields a full experiment, so
//! the shape of an expression's result is determined by operand
//! **metadata alone**. That lets a whole expression tree be validated
//! before a single severity value is read — against lazy metadata-only
//! opens of `.cubec` stores, no severity pages touched. This module is
//! that validator: it takes a parsed [`Expr`] plus per-operand
//! [`OperandFacts`] and produces stable-coded diagnostics with byte
//! offsets into the source expression, a semantics-preserving rewrite
//! of the tree, and a per-plan cost estimate.
//!
//! # Diagnostic codes
//!
//! Codes are stable (pinned by the golden corpus in
//! `tests/fixtures/check/`) and documented in `docs/CHECK.md`:
//!
//! | code | level | meaning |
//! |---|---|---|
//! | `A001` | error | unresolved operand: no experiment behind the name |
//! | `A002` | error | empty reduction (programmatic trees only) |
//! | `A003` | error | operand index out of range (programmatic trees only) |
//! | `A004` | warning | duplicate operand skews a non-idempotent reduction |
//! | `A005` | warning | dead operand: provided but never referenced |
//! | `A006` | warning | operands share no metrics (pure zero-extension; not for `merge`) |
//! | `A007` | warning | thread-topology mismatch between operands |
//! | `A008` | warning | statically zero result: `diff` of identical subtrees |
//! | `A009` | warning | degenerate statistic: `variance`/`stddev` of one operand |
//! | `A010` | warning | identity operation: single-operand reduction, `scale(e,1)` |
//! | `A011` | warning | removable operand of `min`/`max`/`merge`: a duplicate, or a `merge` operand every metric of which an earlier operand provides |
//! | `A012` | warning | `scale` by 0 zeroes every finite value |
//!
//! Errors mean evaluation cannot produce a meaningful result and the
//! server's `/eval` pre-flight refuses the request; warnings are
//! advisory (deniable with `--deny warnings`, mirroring `cube lint`).
//!
//! # The rewrite pass
//!
//! [`rewrite`] canonicalizes and constant-folds the tree with rules
//! that preserve the evaluated severity values *bit for bit* on finite
//! data (the property pinned by `check_props.rs` across thread
//! counts): `scale(e,1)` → `e`, duplicate operands removed from
//! idempotent `min`/`max`/`merge` lists, single-operand `mean`/`sum`/
//! `min`/`max`/`merge` → the operand itself, `diff(X,X)` and single-operand
//! `variance`/`stddev` → the zero experiment ([`Expr::Zero`], with
//! `zero` provenance). Provenance labels follow the rewritten tree;
//! only the severity values and metadata are preserved exactly.

use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

use crate::batch::{Expr, Reduction};
use crate::parse::{render_expr, ParsedExpr, Span, SpanNode};
use cube_model::{Metadata, Unit};

/// Severity values per `.cubec` store page (32 KiB of `f64`), the
/// granularity of [`CostEstimate::pages`]. Matches the columnar
/// store's chunk size (`docs/STORE.md`).
pub const PAGE_VALUES: u64 = 4096;

/// Severity of one diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckLevel {
    /// Evaluation cannot produce a meaningful result.
    Error,
    /// Legal but almost certainly not what was meant.
    Warning,
}

impl CheckLevel {
    /// The lowercase wire name (`"error"` / `"warning"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Error => "error",
            Self::Warning => "warning",
        }
    }
}

impl fmt::Display for CheckLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: stable code, severity, byte span into the source
/// expression, human message.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckDiagnostic {
    /// Stable code `A001`–`A012` (module table).
    pub code: &'static str,
    /// Error or warning.
    pub level: CheckLevel,
    /// Byte offset of the offending token in the source expression
    /// (0 for findings without a source anchor, e.g. dead operands).
    pub offset: usize,
    /// Length of the offending token in bytes (0 when unanchored).
    pub len: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CheckDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} @{}: {}",
            self.code, self.level, self.offset, self.message
        )
    }
}

/// What the analyzer knows about one operand: its name as written in
/// the expression, and its metadata if the name resolved to an
/// experiment. **Metadata only** — severity is never consulted, so a
/// lazy `.cubec` open ([`ColumnarExperiment::metadata`]) is the
/// intended source and no severity pages are touched.
///
/// [`ColumnarExperiment::metadata`]: ../../cube_store/struct.ColumnarExperiment.html#method.metadata
#[derive(Clone, Debug)]
pub struct OperandFacts<'a> {
    /// The operand name the expression uses.
    pub name: String,
    /// Metadata of the resolved experiment; `None` if the name did not
    /// resolve (missing file, unknown repository id, unreadable input).
    pub metadata: Option<&'a Metadata>,
    /// Optional detail for `A001` messages (why resolution failed).
    pub note: Option<String>,
}

impl<'a> OperandFacts<'a> {
    /// Facts for a resolved operand.
    pub fn known(name: impl Into<String>, metadata: &'a Metadata) -> Self {
        Self {
            name: name.into(),
            metadata: Some(metadata),
            note: None,
        }
    }

    /// Facts for an operand that did not resolve, with the reason.
    pub fn unknown(name: impl Into<String>, note: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            metadata: None,
            note: Some(note.into()),
        }
    }
}

/// One applied rewrite rule.
#[derive(Clone, Debug, PartialEq)]
pub struct RewriteNote {
    /// Stable rule name (`zero-diff`, `scale-identity`, ...).
    pub rule: &'static str,
    /// What was rewritten, in terms of the canonical text.
    pub detail: String,
}

/// Static cost estimate for evaluating the expression: what a plan
/// over these operands will read and reuse, from metadata alone.
#[derive(Clone, Debug, PartialEq)]
pub struct CostEstimate {
    /// Distinct operands the expression references.
    pub operands: usize,
    /// How many of those resolved to metadata.
    pub known: usize,
    /// Expression tree nodes.
    pub nodes: usize,
    /// Reduction nodes (each is one blocked severity pass).
    pub reductions: usize,
    /// Total severity values across resolved operands.
    pub values: u64,
    /// Total severity bytes (`values × 8`).
    pub bytes: u64,
    /// `.cubec` pages evaluation must read (per-operand
    /// `ceil(values / `[`PAGE_VALUES`]`)`, summed).
    pub pages: u64,
    /// Gather-table reuse key: plans are cached per operand list, so
    /// two expressions with equal keys share one metadata integration.
    pub plan_key: String,
    /// Shape of the fused kernel program ([`crate::kernel`]) the
    /// evaluator runs for this tree: `None` when the tree does not
    /// compile (an error-level finding explains why).
    pub fused: Option<FusedCost>,
}

/// Static shape of a fused kernel program: the
/// [`CostEstimate::reductions`]-many reductions run as **one**
/// traversal executing this program per element.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedCost {
    /// Program steps per element.
    pub instrs: usize,
    /// Virtual registers (peak live values per element).
    pub regs: usize,
    /// Distinct operand streams loaded — repeated references are
    /// deduplicated, so this may be fewer than the operand mentions.
    pub loads: usize,
}

/// The analyzer's output: diagnostics, the rewritten tree with its
/// notes, and the cost estimate. Rendered identically by the CLI and
/// the server via [`CheckReport::to_json`].
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Findings in source order (offset-ascending).
    pub diagnostics: Vec<CheckDiagnostic>,
    /// The canonical text of the input expression.
    pub canonical: String,
    /// The rewritten tree ([`rewrite`] applied).
    pub rewritten: Expr,
    /// Canonical text of [`CheckReport::rewritten`].
    pub rewritten_text: String,
    /// Which rewrite rules fired, in application order.
    pub rewrites: Vec<RewriteNote>,
    /// Evaluation cost estimate.
    pub cost: CostEstimate,
}

impl CheckReport {
    /// Number of error-level findings.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == CheckLevel::Error)
            .count()
    }

    /// Number of warning-level findings.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.level == CheckLevel::Warning)
            .count()
    }

    /// Whether the expression is statically sound (no errors).
    pub fn ok(&self) -> bool {
        self.num_errors() == 0
    }

    /// Whether the report fails under the given deny policy, mirroring
    /// `cube lint`: errors always deny, warnings only under
    /// `--deny warnings`.
    pub fn denied(&self, deny_warnings: bool) -> bool {
        self.num_errors() > 0 || (deny_warnings && self.num_warnings() > 0)
    }

    /// The first error-level finding, if any (what `/eval` pre-flight
    /// reports).
    pub fn first_error(&self) -> Option<&CheckDiagnostic> {
        self.diagnostics
            .iter()
            .find(|d| d.level == CheckLevel::Error)
    }

    /// Renders the diagnostics as a JSON array fragment
    /// (`[{"code":...},...]`) — the shared piece of [`Self::to_json`]
    /// and the server's structured `/eval` rejections.
    pub fn diagnostics_json(&self) -> String {
        let mut s = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"code\":\"{}\",\"level\":\"{}\",\"offset\":{},\"len\":{},\"message\":{}}}",
                d.code,
                d.level,
                d.offset,
                d.len,
                json_str(&d.message)
            );
        }
        s.push(']');
        s
    }

    /// Renders the whole report as one JSON object. The CLI
    /// (`cube check --format json`) and the server (`POST /check`)
    /// both emit exactly this, so their diagnostics are byte-identical
    /// for the same expression and operand facts.
    pub fn to_json(&self, source: &str) -> String {
        let mut s = format!(
            "{{\"expr\":{},\"canonical\":{},\"rewritten\":{},\"diagnostics\":{}",
            json_str(source),
            json_str(&self.canonical),
            json_str(&self.rewritten_text),
            self.diagnostics_json(),
        );
        let _ = write!(
            s,
            ",\"errors\":{},\"warnings\":{},\"ok\":{},\"rewrites\":[",
            self.num_errors(),
            self.num_warnings(),
            self.ok()
        );
        for (i, n) in self.rewrites.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"rule\":\"{}\",\"detail\":{}}}",
                n.rule,
                json_str(&n.detail)
            );
        }
        let c = &self.cost;
        let _ = write!(
            s,
            "],\"cost\":{{\"operands\":{},\"known\":{},\"nodes\":{},\"reductions\":{},\
             \"values\":{},\"bytes\":{},\"pages\":{},\"plan_key\":{},\"fused\":",
            c.operands,
            c.known,
            c.nodes,
            c.reductions,
            c.values,
            c.bytes,
            c.pages,
            json_str(&c.plan_key)
        );
        match &c.fused {
            Some(f) => {
                let _ = write!(
                    s,
                    "{{\"instrs\":{},\"regs\":{},\"loads\":{}}}",
                    f.instrs, f.regs, f.loads
                );
            }
            None => s.push_str("null"),
        }
        s.push_str("}}");
        s
    }
}

/// JSON string literal with the escapes the grammar requires. Local
/// copy so the analyzer's wire rendering has no service dependency.
fn json_str(s: &str) -> String {
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

/// Checks a parsed expression against operand facts.
///
/// `facts` is the operand environment: entries are matched to
/// [`ParsedExpr::operands`] by name. Expression operands without a
/// matching resolved fact get `A001`; facts never referenced by the
/// expression get `A005` (dead operand).
///
/// ```
/// use cube_algebra::check::{check, OperandFacts};
/// use cube_algebra::parse_expr;
/// let parsed = parse_expr("mean(A,A)").unwrap();
/// let report = check(&parsed, &[OperandFacts::unknown("A", "no such file")]);
/// assert_eq!(report.diagnostics[0].code, "A001"); // unresolved, reported once
/// assert_eq!(report.diagnostics[1].code, "A004"); // duplicate skews the mean
/// assert!(!report.ok());
/// ```
pub fn check(parsed: &ParsedExpr, facts: &[OperandFacts<'_>]) -> CheckReport {
    check_expr(&parsed.expr, Some(&parsed.spans), &parsed.operands, facts)
}

/// [`check`] for programmatically-built trees: spans are optional
/// (diagnostics anchor at offset 0 without them), and `operands` names
/// the tree's indices for messages and the plan key.
pub fn check_expr(
    expr: &Expr,
    spans: Option<&SpanNode>,
    operands: &[String],
    facts: &[OperandFacts<'_>],
) -> CheckReport {
    let mut cx = Checker::new(operands, facts);
    cx.walk(expr, spans);
    cx.dead_operands();
    cx.diagnostics.sort_by_key(|d| d.offset);
    let (rewritten, rewrites) = rewrite(expr);
    let cost = estimate(expr, operands, &cx.resolved);
    CheckReport {
        diagnostics: cx.diagnostics,
        canonical: render_expr(expr, operands),
        rewritten_text: render_expr(&rewritten, operands),
        rewritten,
        rewrites,
        cost,
    }
}

/// The metric identity used for compatibility: (name, unit), the same
/// key metadata integration matches on.
type MetricSet = BTreeSet<(String, Unit)>;

struct Checker<'a, 'f> {
    operands: &'a [String],
    /// Resolved metadata per operand index (by fact-name match).
    resolved: Vec<Option<&'f Metadata>>,
    notes: Vec<Option<&'a str>>,
    metric_sets: Vec<Option<MetricSet>>,
    referenced: Vec<bool>,
    reported_unknown: Vec<bool>,
    facts: &'a [OperandFacts<'f>],
    diagnostics: Vec<CheckDiagnostic>,
}

impl<'a, 'f> Checker<'a, 'f> {
    fn new(operands: &'a [String], facts: &'a [OperandFacts<'f>]) -> Self {
        let mut resolved = Vec::with_capacity(operands.len());
        let mut notes = Vec::with_capacity(operands.len());
        for name in operands {
            let fact = facts.iter().find(|f| &f.name == name);
            resolved.push(fact.and_then(|f| f.metadata));
            notes.push(fact.and_then(|f| f.note.as_deref()));
        }
        let metric_sets = resolved
            .iter()
            .map(|md| {
                md.map(|md| {
                    md.metrics()
                        .iter()
                        .map(|m| (m.name.clone(), m.unit))
                        .collect::<MetricSet>()
                })
            })
            .collect();
        Self {
            operands,
            resolved,
            notes,
            metric_sets,
            referenced: vec![false; operands.len()],
            reported_unknown: vec![false; operands.len()],
            facts,
            diagnostics: Vec::new(),
        }
    }

    fn emit(&mut self, code: &'static str, level: CheckLevel, span: Span, message: String) {
        self.diagnostics.push(CheckDiagnostic {
            code,
            level,
            offset: span.start,
            len: span.len(),
            message,
        });
    }

    fn name_of(&self, i: usize) -> &str {
        self.operands.get(i).map_or("?", |s| s.as_str())
    }

    /// `A001`/`A003` for one operand reference; returns false when the
    /// index is out of range (the reference is unusable).
    fn check_operand(&mut self, i: usize, span: Span) -> bool {
        if i >= self.operands.len() {
            self.emit(
                "A003",
                CheckLevel::Error,
                span,
                format!(
                    "operand index {i} is out of range for {} named operand{}",
                    self.operands.len(),
                    if self.operands.len() == 1 { "" } else { "s" }
                ),
            );
            return false;
        }
        self.referenced[i] = true;
        if self.resolved[i].is_none() && !self.reported_unknown[i] {
            self.reported_unknown[i] = true;
            let mut message = format!(
                "operand '{}' does not resolve to an experiment",
                self.name_of(i)
            );
            if let Some(note) = self.notes[i] {
                let _ = write!(message, ": {note}");
            }
            self.emit("A001", CheckLevel::Error, span, message);
        }
        true
    }

    fn walk(&mut self, expr: &Expr, spans: Option<&SpanNode>) {
        let span = spans.map_or(Span { start: 0, end: 0 }, SpanNode::span);
        match expr {
            Expr::Operand(i) => {
                self.check_operand(*i, span);
            }
            Expr::Zero => {}
            Expr::Reduce(r, idxs) => self.check_reduce(*r, idxs, span, spans),
            Expr::Diff(a, b) => {
                let (sa, sb) = match spans {
                    Some(SpanNode::Diff(_, sa, sb)) => (Some(sa.as_ref()), Some(sb.as_ref())),
                    _ => (None, None),
                };
                self.walk(a, sa);
                self.walk(b, sb);
                if a == b {
                    self.emit(
                        "A008",
                        CheckLevel::Warning,
                        span,
                        "both sides of this diff are the same expression; \
                         the result is statically zero"
                            .to_string(),
                    );
                } else {
                    self.check_diff_compat(a, b, span);
                }
            }
            Expr::Scale(inner, factor) => {
                let (si, sf) = match spans {
                    Some(SpanNode::Scale(_, si, sf)) => (Some(si.as_ref()), Some(*sf)),
                    _ => (None, None),
                };
                self.walk(inner, si);
                if *factor == 1.0 {
                    self.emit(
                        "A010",
                        CheckLevel::Warning,
                        span,
                        "scaling by 1 is the identity".to_string(),
                    );
                } else if *factor == 0.0 {
                    self.emit(
                        "A012",
                        CheckLevel::Warning,
                        sf.unwrap_or(span),
                        "scale factor 0 zeroes every finite severity value".to_string(),
                    );
                }
            }
        }
    }

    fn check_reduce(&mut self, r: Reduction, idxs: &[usize], span: Span, spans: Option<&SpanNode>) {
        let arg_spans: &[Span] = match spans {
            Some(SpanNode::Reduce(_, args)) => args,
            _ => &[],
        };
        let arg_span = |k: usize| arg_spans.get(k).copied().unwrap_or(span);
        if idxs.is_empty() {
            self.emit(
                "A002",
                CheckLevel::Error,
                span,
                format!("{} over an empty operand list", r.name()),
            );
            return;
        }
        let mut usable = Vec::new();
        for (k, &i) in idxs.iter().enumerate() {
            if self.check_operand(i, arg_span(k)) {
                usable.push(i);
            }
        }
        // Duplicates: harmless noise in idempotent min/max/merge (the
        // rewrite pass removes them), a skewed statistic everywhere else.
        let mut seen: Vec<usize> = Vec::new();
        for (k, &i) in idxs.iter().enumerate() {
            if i >= self.operands.len() {
                continue;
            }
            if seen.contains(&i) {
                let idempotent = matches!(r, Reduction::Min | Reduction::Max | Reduction::Merge);
                let (code, message) = if idempotent {
                    (
                        "A011",
                        format!(
                            "duplicate operand '{}' in {} is removable \
                             (idempotent reduction)",
                            self.name_of(i),
                            r.name()
                        ),
                    )
                } else {
                    (
                        "A004",
                        format!(
                            "operand '{}' appears more than once in {}, \
                             which skews the statistic",
                            self.name_of(i),
                            r.name()
                        ),
                    )
                };
                self.emit(code, CheckLevel::Warning, arg_span(k), message);
            } else {
                seen.push(i);
            }
        }
        // Degenerate single-operand statistics.
        if idxs.len() == 1 {
            match r {
                Reduction::Variance | Reduction::Stddev => self.emit(
                    "A009",
                    CheckLevel::Warning,
                    span,
                    format!("{} of a single operand is identically zero", r.name()),
                ),
                _ => self.emit(
                    "A010",
                    CheckLevel::Warning,
                    span,
                    format!("{} of a single operand is the identity", r.name()),
                ),
            }
        }
        // Metric compatibility: an operand sharing no metric with any
        // other contributes nothing but zero-extension to the result.
        let distinct: Vec<usize> = {
            let mut v = Vec::new();
            for &i in &usable {
                if !v.contains(&i) {
                    v.push(i);
                }
            }
            v
        };
        let known: Vec<usize> = distinct
            .iter()
            .copied()
            .filter(|&i| self.metric_sets[i].is_some())
            .collect();
        if r == Reduction::Merge {
            self.check_merge_coverage(idxs, &arg_span);
        }
        if known.len() >= 2 {
            // Disjoint metric sets are what merge is for.
            for &i in known.iter().filter(|_| r != Reduction::Merge) {
                let mine = self.metric_sets[i].as_ref().expect("known metric set");
                let shares = known.iter().any(|&j| {
                    j != i
                        && self.metric_sets[j]
                            .as_ref()
                            .is_some_and(|other| !mine.is_disjoint(other))
                });
                if !shares {
                    let k = idxs.iter().position(|&x| x == i).unwrap_or(0);
                    let message = format!(
                        "operand '{}' shares no metric with the other \
                         operands of {}; it only zero-extends the result",
                        self.name_of(i),
                        r.name()
                    );
                    self.emit("A006", CheckLevel::Warning, arg_span(k), message);
                }
            }
            let threads: Vec<(usize, usize)> = known
                .iter()
                .map(|&i| (i, self.resolved[i].expect("known metadata").num_threads()))
                .collect();
            let min = threads.iter().map(|&(_, t)| t).min().unwrap_or(0);
            let max = threads.iter().map(|&(_, t)| t).max().unwrap_or(0);
            if min != max {
                self.emit(
                    "A007",
                    CheckLevel::Warning,
                    span,
                    format!(
                        "operands of {} have different thread topologies \
                         ({min} vs {max} threads); missing positions compare \
                         against zero",
                        r.name()
                    ),
                );
            }
        }
    }

    /// `A011` for a `merge` operand every metric of which an earlier
    /// operand provides: merge takes each metric from its first
    /// provider, so none of that operand's values are used. Duplicates
    /// were already reported.
    fn check_merge_coverage(&mut self, idxs: &[usize], arg_span: &dyn Fn(usize) -> Span) {
        let mut provided = MetricSet::new();
        for (k, &i) in idxs.iter().enumerate() {
            if idxs[..k].contains(&i) {
                continue;
            }
            let Some(mine) = self.metric_sets.get(i).cloned().flatten() else {
                continue;
            };
            if !provided.is_empty() && mine.is_subset(&provided) {
                let message = format!(
                    "every metric of operand '{}' comes from an earlier operand \
                     of merge; none of its values are used",
                    self.name_of(i)
                );
                self.emit("A011", CheckLevel::Warning, arg_span(k), message);
            }
            provided.extend(mine);
        }
    }

    /// Referenced operand indices of a subtree, for diff-side
    /// compatibility.
    fn subtree_operands(expr: &Expr, out: &mut Vec<usize>) {
        match expr {
            Expr::Operand(i) => {
                if !out.contains(i) {
                    out.push(*i);
                }
            }
            Expr::Zero => {}
            Expr::Reduce(_, idxs) => {
                for &i in idxs {
                    if !out.contains(&i) {
                        out.push(i);
                    }
                }
            }
            Expr::Diff(a, b) => {
                Self::subtree_operands(a, out);
                Self::subtree_operands(b, out);
            }
            Expr::Scale(inner, _) => Self::subtree_operands(inner, out),
        }
    }

    fn side_facts(&self, expr: &Expr) -> Option<(MetricSet, usize)> {
        let mut idxs = Vec::new();
        Self::subtree_operands(expr, &mut idxs);
        let mut metrics = MetricSet::new();
        let mut threads = 0usize;
        let mut any = false;
        for i in idxs {
            if i >= self.operands.len() {
                continue;
            }
            if let Some(set) = &self.metric_sets[i] {
                metrics.extend(set.iter().cloned());
                threads = threads.max(self.resolved[i].map_or(0, Metadata::num_threads));
                any = true;
            }
        }
        any.then_some((metrics, threads))
    }

    fn check_diff_compat(&mut self, a: &Expr, b: &Expr, span: Span) {
        let (Some((ma, ta)), Some((mb, tb))) = (self.side_facts(a), self.side_facts(b)) else {
            return;
        };
        if ma.is_disjoint(&mb) {
            self.emit(
                "A006",
                CheckLevel::Warning,
                span,
                "the two sides of this diff share no metrics; every value \
                 is compared against zero"
                    .to_string(),
            );
        }
        if ta != tb {
            self.emit(
                "A007",
                CheckLevel::Warning,
                span,
                format!(
                    "the two sides of this diff have different thread \
                     topologies ({ta} vs {tb} threads); missing positions \
                     compare against zero"
                ),
            );
        }
    }

    /// `A005` for facts the expression never references.
    fn dead_operands(&mut self) {
        let facts = self.facts;
        for fact in facts {
            let used = self
                .operands
                .iter()
                .zip(&self.referenced)
                .any(|(name, &r)| r && name == &fact.name);
            if !used {
                self.diagnostics.push(CheckDiagnostic {
                    code: "A005",
                    level: CheckLevel::Warning,
                    offset: 0,
                    len: 0,
                    message: format!(
                        "operand '{}' was provided but the expression never \
                         references it",
                        fact.name
                    ),
                });
            }
        }
    }
}

/// Rewrites an expression with semantics-preserving canonicalization
/// and constant folding. On finite severity data the rewritten tree
/// evaluates to **bit-identical** severity values over the same
/// integrated metadata (provenance labels follow the rewritten form):
///
/// | rule | rewrite |
/// |---|---|
/// | `scale-identity` | `scale(e, 1)` → `e` |
/// | `idempotent-dedup` | duplicate operands removed from `min`/`max`/`merge` |
/// | `single-identity` | `mean`/`sum`/`min`/`max`/`merge` of one operand → the operand |
/// | `zero-variance` | `variance`/`stddev` of one operand → `zero()` |
/// | `zero-diff` | `diff(X, X)` → `zero()` |
/// | `zero-scale` | `scale(zero(), f)` for `f ≥ 0` → `zero()` |
///
/// One bottom-up pass reaches a fixpoint: rewriting an already
/// rewritten tree changes nothing (pinned by the idempotence property
/// test).
pub fn rewrite(expr: &Expr) -> (Expr, Vec<RewriteNote>) {
    let mut notes = Vec::new();
    let rewritten = rw(expr, &mut notes);
    (rewritten, notes)
}

fn rw(expr: &Expr, notes: &mut Vec<RewriteNote>) -> Expr {
    match expr {
        Expr::Operand(i) => Expr::Operand(*i),
        Expr::Zero => Expr::Zero,
        Expr::Reduce(r, idxs) => {
            let mut list: Vec<usize> = idxs.clone();
            // Min and max are idempotent, and merge never picks a later
            // duplicate: dropping one keeps the bits.
            if matches!(r, Reduction::Min | Reduction::Max | Reduction::Merge) {
                let before = list.len();
                let mut seen = Vec::with_capacity(list.len());
                list.retain(|&i| {
                    let fresh = !seen.contains(&i);
                    if fresh {
                        seen.push(i);
                    }
                    fresh
                });
                if list.len() < before {
                    notes.push(RewriteNote {
                        rule: "idempotent-dedup",
                        detail: format!(
                            "removed {} duplicate operand{} from {}",
                            before - list.len(),
                            if before - list.len() == 1 { "" } else { "s" },
                            r.name()
                        ),
                    });
                }
            }
            if let [only] = list.as_slice() {
                return match r {
                    Reduction::Variance | Reduction::Stddev => {
                        notes.push(RewriteNote {
                            rule: "zero-variance",
                            detail: format!("{} of a single operand folds to zero()", r.name()),
                        });
                        Expr::Zero
                    }
                    _ => {
                        notes.push(RewriteNote {
                            rule: "single-identity",
                            detail: format!(
                                "{} of a single operand folds to the operand",
                                r.name()
                            ),
                        });
                        Expr::Operand(*only)
                    }
                };
            }
            Expr::Reduce(*r, list)
        }
        Expr::Diff(a, b) => {
            let ra = rw(a, notes);
            let rb = rw(b, notes);
            if ra == rb {
                notes.push(RewriteNote {
                    rule: "zero-diff",
                    detail: "diff of identical sides folds to zero()".to_string(),
                });
                Expr::Zero
            } else {
                Expr::diff(ra, rb)
            }
        }
        Expr::Scale(inner, factor) => {
            let ri = rw(inner, notes);
            if *factor == 1.0 {
                notes.push(RewriteNote {
                    rule: "scale-identity",
                    detail: "scale by 1 removed".to_string(),
                });
                ri
            } else if ri == Expr::Zero && factor.is_sign_positive() {
                // A negative factor would flip the zeros to -0.0, which
                // is a different bit pattern; keep the node in that case.
                notes.push(RewriteNote {
                    rule: "zero-scale",
                    detail: format!("scale of zero() by {factor} folds to zero()"),
                });
                Expr::Zero
            } else {
                Expr::Scale(Box::new(ri), *factor)
            }
        }
    }
}

fn estimate(expr: &Expr, operands: &[String], resolved: &[Option<&Metadata>]) -> CostEstimate {
    fn count(expr: &Expr, nodes: &mut usize, reductions: &mut usize) {
        *nodes += 1;
        match expr {
            Expr::Operand(_) | Expr::Zero => {}
            Expr::Reduce(_, _) => *reductions += 1,
            Expr::Diff(a, b) => {
                count(a, nodes, reductions);
                count(b, nodes, reductions);
            }
            Expr::Scale(inner, _) => count(inner, nodes, reductions),
        }
    }
    let mut referenced = Vec::new();
    Checker::subtree_operands(expr, &mut referenced);
    referenced.retain(|&i| i < operands.len());
    let (mut nodes, mut reductions) = (0, 0);
    count(expr, &mut nodes, &mut reductions);
    let mut values = 0u64;
    let mut pages = 0u64;
    let mut known = 0usize;
    for &i in &referenced {
        if let Some(md) = resolved[i] {
            known += 1;
            let v = md.num_metrics() as u64 * md.num_call_nodes() as u64 * md.num_threads() as u64;
            values += v;
            pages += v.div_ceil(PAGE_VALUES);
        }
    }
    let fused = crate::kernel::KernelProgram::compile(expr, operands.len())
        .ok()
        .map(|p| FusedCost {
            instrs: p.instrs().len(),
            regs: p.num_regs(),
            loads: p.slots().len(),
        });
    CostEstimate {
        operands: referenced.len(),
        known,
        nodes,
        reductions,
        values,
        bytes: values * 8,
        pages,
        plan_key: operands.join(","),
        fused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind};

    fn experiment(metric: &str, unit: Unit, threads: usize) -> cube_model::Experiment {
        let mut b = ExperimentBuilder::new("e");
        let t = b.def_metric(metric, unit, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, threads);
        b.set_severity(t, root, ts[0], 1.0);
        b.build().unwrap()
    }

    fn codes(report: &CheckReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_expression_is_clean() {
        let (a, b) = (
            experiment("time", Unit::Seconds, 2),
            experiment("time", Unit::Seconds, 2),
        );
        let parsed = parse_expr("diff(mean(A,B),B)").unwrap();
        let facts = [
            OperandFacts::known("A", a.metadata()),
            OperandFacts::known("B", b.metadata()),
        ];
        let report = check(&parsed, &facts);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert!(report.ok() && !report.denied(true));
        assert_eq!(report.cost.operands, 2);
        assert_eq!(report.cost.known, 2);
        assert_eq!(report.cost.values, 4); // 1 metric × 1 call × 2 threads, ×2
        assert_eq!(report.cost.pages, 2);
        assert_eq!(report.cost.plan_key, "A,B");
    }

    #[test]
    fn unknown_and_dead_operands_are_flagged_once() {
        let a = experiment("time", Unit::Seconds, 1);
        let parsed = parse_expr("mean(X,X)").unwrap();
        let facts = [
            OperandFacts::unknown("X", "no such id"),
            OperandFacts::known("A", a.metadata()),
        ];
        let report = check(&parsed, &facts);
        // A001 once (not per occurrence), A004 for the duplicate, A005
        // for the provided-but-unused operand.
        assert_eq!(codes(&report), ["A005", "A001", "A004"]);
        assert!(report.diagnostics[1].message.contains("no such id"));
        assert!(!report.ok());
    }

    #[test]
    fn offsets_point_at_the_offending_token() {
        let a = experiment("time", Unit::Seconds, 1);
        let b = experiment("time", Unit::Seconds, 1);
        let parsed = parse_expr("mean(A, B, A)").unwrap();
        let facts = [
            OperandFacts::known("A", a.metadata()),
            OperandFacts::known("B", b.metadata()),
        ];
        let report = check(&parsed, &facts);
        assert_eq!(codes(&report), ["A004"]);
        // The *second* A, at byte 11.
        assert_eq!(report.diagnostics[0].offset, 11);
        assert_eq!(report.diagnostics[0].len, 1);
    }

    #[test]
    fn programmatic_trees_get_a002_and_a003() {
        let a = experiment("time", Unit::Seconds, 1);
        let names = ["A".to_string()];
        let facts = [OperandFacts::known("A", a.metadata())];

        // The empty list references nothing, so `A` is dead as well.
        let empty = Expr::reduce(Reduction::Mean, 0..0);
        let report = check_expr(&empty, None, &names, &facts);
        assert_eq!(codes(&report), ["A002", "A005"]);
        assert!(report.diagnostics[0].message.contains("mean over an empty"));
        assert!(!report.ok());

        let stray = Expr::diff(Expr::Operand(0), Expr::Operand(3));
        let report = check_expr(&stray, None, &names, &facts);
        assert_eq!(codes(&report), ["A003"]);
        assert!(report.diagnostics[0].message.contains("index 3"));
        assert!(!report.ok());
        let stray = Expr::reduce(Reduction::Sum, [0, 7]);
        assert_eq!(codes(&check_expr(&stray, None, &names, &facts)), ["A003"]);
    }

    #[test]
    fn compatibility_mismatches_are_flagged() {
        let a = experiment("time", Unit::Seconds, 2);
        let b = experiment("visits", Unit::Occurrences, 2);
        let parsed = parse_expr("mean(A,B)").unwrap();
        let facts = [
            OperandFacts::known("A", a.metadata()),
            OperandFacts::known("B", b.metadata()),
        ];
        let report = check(&parsed, &facts);
        assert_eq!(codes(&report), ["A006", "A006"]);

        let wide = experiment("time", Unit::Seconds, 4);
        let parsed = parse_expr("diff(A,W)").unwrap();
        let facts = [
            OperandFacts::known("A", a.metadata()),
            OperandFacts::known("W", wide.metadata()),
        ];
        let report = check(&parsed, &facts);
        assert_eq!(codes(&report), ["A007"]);
    }

    #[test]
    fn rewrite_folds_and_is_idempotent() {
        let parsed = parse_expr("scale(diff(mean(A,B),mean(A,B)),2)").unwrap();
        let (rewritten, notes) = rewrite(&parsed.expr);
        assert_eq!(rewritten, Expr::Zero);
        let rules: Vec<&str> = notes.iter().map(|n| n.rule).collect();
        assert_eq!(rules, ["zero-diff", "zero-scale"]);
        let (again, notes) = rewrite(&rewritten);
        assert_eq!(again, rewritten);
        assert!(notes.is_empty());

        let parsed = parse_expr("scale(min(A,A,B),1)").unwrap();
        let (rewritten, _) = rewrite(&parsed.expr);
        assert_eq!(rewritten, Expr::Reduce(Reduction::Min, vec![0, 1]));
        assert_eq!(render_expr(&rewritten, &parsed.operands), "min(A,B)");

        // A negative factor over zero() must NOT fold (sign of zero).
        let parsed = parse_expr("scale(diff(A,A),-2)").unwrap();
        let (rewritten, _) = rewrite(&parsed.expr);
        assert_eq!(rewritten, Expr::scale(Expr::Zero, -2.0));
    }

    #[test]
    fn json_report_is_stable() {
        let parsed = parse_expr("stddev(A)").unwrap();
        let a = experiment("time", Unit::Seconds, 1);
        let report = check(&parsed, &[OperandFacts::known("A", a.metadata())]);
        assert_eq!(codes(&report), ["A009"]);
        let json = report.to_json("stddev(A)");
        assert!(json.contains("\"code\":\"A009\""), "{json}");
        assert!(json.contains("\"rewritten\":\"zero()\""), "{json}");
        assert!(json.contains("\"ok\":true"), "{json}");
    }
}
