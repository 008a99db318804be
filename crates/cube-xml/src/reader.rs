//! Streaming `.cube` reader: lexer events straight into the model.
//!
//! [`CubeReader`] pulls [`XmlEvent`]s from the [`Lexer`]
//! and assembles a [`cube_model::Experiment`] without ever building a
//! DOM tree. Metadata sections are collected into small per-entity
//! records (names borrow from the input until the final insertion),
//! then severity `<row>` values are parsed into one reused row buffer
//! and copied into the dense [`Severity`] buffer whole. The only
//! transient allocations proportional to the file are that buffer and
//! one scratch string bounded by the longest severity row — transient
//! memory is O(row), not O(document).
//!
//! Section order is not significant. A `<severity>` section met before
//! `<metrics>`, `<program>` and `<system>` have all closed cannot be
//! sized yet: the parser saves the lexer state, skips the section
//! (checking its markup and nesting), and parses it from the saved
//! state the moment the last metadata section closes. Such a section
//! is lexed twice, never buffered.
//!
//! One document loop serves every caller. An error before the metadata
//! is complete is returned; the first error after that point is
//! recorded next to everything assembled so far, severity rows
//! committed whole. [`CubeReader::read`], `read_experiment` and the
//! linter return the recorded error; salvage reports it.

use std::borrow::Cow;
use std::str::FromStr;

use cube_model::{
    CallNode, CallNodeId, CallSite, CallSiteId, CartTopology, Experiment, Machine, MachineId,
    Metadata, Metric, MetricId, Module, ModuleId, NodeId, Process, ProcessId, Provenance, Region,
    RegionId, RegionKind, Severity, SystemNode, Thread, Unit,
};

use crate::error::{LimitKind, Position, XmlError};
use crate::lexer::{Lexer, XmlEvent};

/// Resource limits enforced while parsing untrusted documents.
///
/// The defaults are generous — far beyond anything a real measurement
/// produces — but finite, so an adversarial file cannot drive the
/// reader into unbounded recursion or allocation. Each limit maps to
/// one `E2xx` lint code when exceeded (see `docs/FORMAT.md` §9), and
/// every limit holds whatever order the sections come in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadLimits {
    /// Maximum total input size in bytes (`E200`). Default 1 GiB.
    pub max_input_bytes: usize,
    /// Maximum element nesting depth (`E201`). Bounds both malicious
    /// nesting and the parser's own recursion (metric and call-node
    /// trees recurse once per level). Default 256.
    pub max_depth: usize,
    /// Maximum entities defined in any one metadata dimension —
    /// metrics, modules, regions, call sites, call nodes, machines,
    /// nodes, processes, threads, topology coordinates (`E202`).
    /// Default 4 194 304.
    pub max_entities: usize,
    /// Maximum byte length of one severity row's text (`E203`).
    /// Default 64 MiB.
    pub max_row_bytes: usize,
}

impl Default for ReadLimits {
    fn default() -> Self {
        Self {
            max_input_bytes: 1 << 30,
            max_depth: 256,
            max_entities: 1 << 22,
            max_row_bytes: 64 << 20,
        }
    }
}

/// Pull-based reader that streams a `.cube` document into an
/// [`Experiment`].
///
/// ```
/// use cube_xml::reader::CubeReader;
///
/// let xml = r#"<cube version="1.0">
///   <metrics><metric id="0" name="time" uom="sec" descr="t"/></metrics>
///   <program>
///     <module id="0" name="a.c" path="/a.c"/>
///     <region id="0" mod="0" name="main" kind="function" begin="1" end="9"/>
///     <csite id="0" file="a.c" line="1" callee="0"/>
///     <cnode id="0" csite="0"/>
///   </program>
///   <system>
///     <machine id="0" name="m"><node id="0" name="n">
///       <process id="0" rank="0" name="r0"><thread id="0" num="0" name="t0"/></process>
///     </node></machine>
///   </system>
///   <severity><matrix metric="0"><row cnode="0">2.5</row></matrix></severity>
/// </cube>"#;
/// let exp = CubeReader::new(xml).read().unwrap();
/// assert_eq!(exp.severity().values(), &[2.5]);
/// ```
pub struct CubeReader<'a> {
    input: &'a str,
    limits: ReadLimits,
}

impl<'a> CubeReader<'a> {
    /// Creates a reader over an in-memory document with the default
    /// [`ReadLimits`].
    pub fn new(input: &'a str) -> Self {
        Self {
            input,
            limits: ReadLimits::default(),
        }
    }

    /// Creates a reader with explicit resource limits.
    pub fn with_limits(input: &'a str, limits: ReadLimits) -> Self {
        Self { input, limits }
    }

    /// Parses the document into an experiment, in one pass whatever
    /// the section order.
    pub fn read(self) -> Result<Experiment, XmlError> {
        let (md, sev, provenance) = parse(self.input, self.limits)?.into_parts()?;
        Experiment::new(md, sev, provenance).map_err(Into::into)
    }
}

/// Everything one pass over a document assembled, without the final
/// [`Experiment::new`] validation, so the linter can diagnose *all*
/// model violations and salvage can keep a damaged document's prefix.
pub(crate) struct Parsed {
    pub md: Metadata,
    pub sev: Severity,
    pub provenance: Provenance,
    /// Severity rows committed, each parsed whole before it is stored,
    /// so a torn row is never half-applied.
    pub rows: usize,
    /// The first defect met after the metadata was complete.
    pub loss: Option<Loss>,
}

/// The first error after the metadata was complete, and where it hit.
pub(crate) struct Loss {
    pub error: XmlError,
    /// Position of the defect, when known.
    pub position: Option<Position>,
    /// The structure being parsed when the defect hit, e.g.
    /// `severity matrix for metric 'time' (id 0), cnode 3` — byte
    /// offsets say *where*, this says *what*.
    pub context: Option<String>,
}

impl Parsed {
    /// The parts of a document that read to its end; the recorded
    /// error otherwise.
    pub(crate) fn into_parts(self) -> Result<(Metadata, Severity, Provenance), XmlError> {
        match self.loss {
            Some(loss) => Err(loss.error),
            None => Ok((self.md, self.sev, self.provenance)),
        }
    }
}

/// Runs the document loop over `input` under `limits`.
pub(crate) fn parse(input: &str, limits: ReadLimits) -> Result<Parsed, XmlError> {
    if input.len() > limits.max_input_bytes {
        return Err(XmlError::limit(
            LimitKind::InputBytes,
            format!(
                "document is {} bytes, limit is {}",
                input.len(),
                limits.max_input_bytes
            ),
        ));
    }
    Parser::new(input, limits).read_document()
}

/// One metadata record collected before the dense-id sort. Names keep
/// borrowing from the document until the final `Metadata` insertion.
struct MetricRec<'a> {
    id: u32,
    parent: Option<u32>,
    name: Cow<'a, str>,
    unit: Unit,
    descr: Cow<'a, str>,
}

struct CnodeRec {
    id: u32,
    parent: Option<u32>,
    csite: u32,
}

#[derive(Default)]
struct Sections<'a> {
    provenance: Option<Provenance>,
    metrics_seen: bool,
    program_seen: bool,
    system_seen: bool,
    topologies_seen: bool,
    severity_seen: bool,
    metric_recs: Vec<MetricRec<'a>>,
    modules: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    regions: Vec<Region>,
    csites: Vec<CallSite>,
    cnode_recs: Vec<CnodeRec>,
    machines: Vec<(u32, Cow<'a, str>)>,
    nodes: Vec<(u32, u32, Cow<'a, str>)>,
    processes: Vec<(u32, u32, i32, Cow<'a, str>)>,
    threads: Vec<(u32, u32, u32, Cow<'a, str>)>,
    topologies: Vec<CartTopology>,
    /// The finished metadata and its severity buffer, once `<metrics>`,
    /// `<program>` and `<system>` have all closed.
    shape: Option<(Metadata, Severity)>,
    /// A `<severity>` met before the metadata was complete: the lexer
    /// state and nesting depth just past its start tag.
    deferred: Option<(Lexer<'a>, usize, Open<'a>)>,
}

/// What the parser is reading, kept as indices; rendered into text only
/// when a loss is recorded.
#[derive(Clone, Copy)]
enum Context<'a> {
    None,
    Section(&'a str),
    Matrix(u32),
    Row(u32, u32),
}

impl Context<'_> {
    fn describe(self, md: &Metadata) -> Option<String> {
        let metric = |m: u32| &md.metric(MetricId::new(m)).name;
        match self {
            Context::None => None,
            Context::Section(tag) => Some(format!("{tag} section")),
            Context::Matrix(m) => Some(format!(
                "severity matrix for metric '{}' (id {m})",
                metric(m)
            )),
            Context::Row(m, c) => Some(format!(
                "severity matrix for metric '{}' (id {m}), cnode {c}",
                metric(m)
            )),
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// Reused buffer for severity rows split across several text
    /// events (entity references, interleaved comments).
    scratch: String,
    /// Reused buffer one severity row is parsed into before it is
    /// committed to the severity store.
    row: Vec<f64>,
    /// Position of the most recent event from [`Parser::next_required`];
    /// stamped onto [`Attrs`] so attribute errors can point at the
    /// element's start tag.
    last_at: Position,
    /// Resource limits enforced during the parse.
    limits: ReadLimits,
    /// Current element nesting depth; every in-root event flows through
    /// [`Parser::next_required`], which keeps this current. Bounding it
    /// also bounds the parser's own recursion (metric/cnode trees and
    /// [`Parser::skip_children`] recurse or stack per level).
    depth: usize,
    /// Severity rows committed so far.
    rows: usize,
    context: Context<'a>,
    loss: Option<Loss>,
}

/// Attributes of one start tag, consumed by name.
struct Attrs<'a> {
    tag: &'a str,
    /// Position of the start tag in the source document.
    at: Position,
    list: Vec<(&'a str, Cow<'a, str>)>,
}

impl<'a> Attrs<'a> {
    fn take(&mut self, key: &str) -> Option<Cow<'a, str>> {
        self.list
            .iter()
            .position(|(k, _)| *k == key)
            .map(|i| self.list.swap_remove(i).1)
    }

    fn require(&mut self, key: &str) -> Result<Cow<'a, str>, XmlError> {
        self.take(key).ok_or_else(|| {
            XmlError::format_at(
                self.at,
                format!(
                    "element <{}> is missing required attribute '{key}'",
                    self.tag
                ),
            )
        })
    }

    fn parse<T: FromStr>(&mut self, key: &str) -> Result<T, XmlError> {
        let raw = self.require(key)?;
        raw.parse().map_err(|_| {
            XmlError::value_at(
                self.at,
                format!(
                    "attribute '{key}'=\"{raw}\" of <{}> does not parse as {}",
                    self.tag,
                    std::any::type_name::<T>()
                ),
            )
        })
    }
}

/// A consumed start tag: its attributes plus whether children follow.
struct Open<'a> {
    attrs: Attrs<'a>,
    has_children: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, limits: ReadLimits) -> Self {
        Self {
            lexer: Lexer::new(input),
            scratch: String::new(),
            row: Vec::new(),
            last_at: Position { line: 1, column: 1 },
            limits,
            depth: 0,
            rows: 0,
            context: Context::None,
            loss: None,
        }
    }

    /// The document loop shared by strict read, lint and salvage.
    fn read_document(mut self) -> Result<Parsed, XmlError> {
        let root = self.read_prolog()?;
        let XmlEvent::StartTag {
            name, self_closing, ..
        } = root
        else {
            unreachable!("read_prolog only returns start tags");
        };
        // Root attributes (version, foreign extras) are ignored.
        if name != "cube" {
            return Err(XmlError::format(format!(
                "root element is <{name}>, expected <cube>"
            )));
        }
        let mut sections = Sections::default();

        if !self_closing {
            self.depth = 1;
            loop {
                // Sampled *before* the step, so an error inside the
                // section that completes the metadata is still fatal.
                let complete = sections.shape.is_some();
                match self.step(&mut sections) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => match &sections.shape {
                        Some((md, _)) if complete => {
                            let position = e.position().or(Some(self.last_at));
                            self.record(md, e, position);
                            break;
                        }
                        _ => return Err(e),
                    },
                }
            }
        }
        if self.loss.is_none() {
            if let Err(e) = self.read_epilog() {
                match &sections.shape {
                    Some((md, _)) => {
                        let position = e.position();
                        self.record(md, e, position);
                    }
                    None => return Err(e),
                }
            }
        }

        let Some((mut md, sev)) = sections.shape.take() else {
            return Err(missing_section(if !sections.metrics_seen {
                "metrics"
            } else if !sections.program_seen {
                "program"
            } else {
                "system"
            }));
        };
        // A <topologies> section after the metadata closed lands here
        // instead of in finalize_metadata — topology order is
        // shape-independent.
        for topo in sections.topologies.drain(..) {
            md.add_topology(topo);
        }
        Ok(Parsed {
            md,
            sev,
            provenance: sections.provenance.take().unwrap_or_default(),
            rows: self.rows,
            loss: self.loss,
        })
    }

    /// Reads and dispatches one event under `<cube>`; `Ok(false)` once
    /// `</cube>` has closed the root.
    fn step(&mut self, sections: &mut Sections<'a>) -> Result<bool, XmlError> {
        let at = self.lexer.position();
        let open = match self.next_required("cube")? {
            ev @ XmlEvent::StartTag { .. } => self.reopen(ev)?,
            XmlEvent::EndTag { name: "cube" } => return Ok(false),
            XmlEvent::EndTag { name } => {
                return Err(XmlError::malformed(
                    at,
                    format!("<cube> closed by </{name}>"),
                ));
            }
            XmlEvent::Text(_)
            | XmlEvent::CData(_)
            | XmlEvent::Comment(_)
            | XmlEvent::Declaration => return Ok(true),
        };
        self.context = Context::Section(open.attrs.tag);
        match open.attrs.tag {
            "provenance" if sections.provenance.is_none() => {
                sections.provenance = Some(self.parse_provenance(open)?);
            }
            "metrics" if !sections.metrics_seen => {
                sections.metrics_seen = true;
                self.parse_metrics(open, sections)?;
                self.close_metadata(sections)?;
            }
            "program" if !sections.program_seen => {
                sections.program_seen = true;
                self.parse_program(open, sections)?;
                self.close_metadata(sections)?;
            }
            "system" if !sections.system_seen => {
                sections.system_seen = true;
                self.parse_system(open, sections)?;
                self.close_metadata(sections)?;
            }
            "topologies" if !sections.topologies_seen => {
                sections.topologies_seen = true;
                self.parse_topologies(open, sections)?;
            }
            "severity" if !sections.severity_seen => {
                sections.severity_seen = true;
                match &mut sections.shape {
                    Some((md, sev)) => self.parse_severity(open, md, sev)?,
                    None => {
                        // The shape is unknown until the metadata
                        // closes: skip the section now, which checks its
                        // markup and nesting, and parse it from here then.
                        let has_children = open.has_children;
                        sections.deferred = Some((self.lexer.clone(), self.depth, open));
                        if has_children {
                            self.skip_children("severity")?;
                        }
                    }
                }
            }
            _ => self.skip_element(open)?,
        }
        self.context = Context::None;
        Ok(true)
    }

    /// Once `<metrics>`, `<program>` and `<system>` have all closed,
    /// fixes the metadata and parses a deferred `<severity>` from its
    /// saved lexer state, as if it had been written here.
    ///
    /// An error in the deferred section is recorded as the loss. The
    /// main lexer has already passed over that section, so reading goes
    /// on and the sections after it are kept.
    fn close_metadata(&mut self, sections: &mut Sections<'a>) -> Result<(), XmlError> {
        if !(sections.metrics_seen && sections.program_seen && sections.system_seen) {
            return Ok(());
        }
        let (md, mut sev) = finalize_metadata(sections)?;
        if let Some((lexer, depth, open)) = sections.deferred.take() {
            let lexer = std::mem::replace(&mut self.lexer, lexer);
            let depth = std::mem::replace(&mut self.depth, depth);
            let last_at = self.last_at;
            self.context = Context::Section("severity");
            if let Err(e) = self.parse_severity(open, &md, &mut sev) {
                let position = e.position().or(Some(self.last_at));
                self.record(&md, e, position);
            }
            self.lexer = lexer;
            self.depth = depth;
            self.last_at = last_at;
        }
        sections.shape = Some((md, sev));
        Ok(())
    }

    /// Keeps `error` as the loss unless an earlier one is recorded.
    fn record(&mut self, md: &Metadata, error: XmlError, position: Option<Position>) {
        if self.loss.is_none() {
            self.loss = Some(Loss {
                error,
                position,
                context: self.context.describe(md),
            });
        }
    }

    /// Consumes declaration/comments/whitespace before the root and
    /// returns the root start tag.
    fn read_prolog(&mut self) -> Result<XmlEvent<'a>, XmlError> {
        loop {
            let at = self.lexer.position();
            match self.lexer.next_event()? {
                None => {
                    return Err(XmlError::malformed(at, "document has no root element"));
                }
                Some(XmlEvent::Declaration | XmlEvent::Comment(_)) => {}
                Some(XmlEvent::Text(t)) if t.trim().is_empty() => {}
                Some(XmlEvent::Text(_)) => {
                    return Err(XmlError::malformed(at, "text outside the root element"));
                }
                Some(XmlEvent::CData(_)) => {
                    return Err(XmlError::malformed(at, "CDATA outside the root element"));
                }
                Some(XmlEvent::EndTag { name }) => {
                    return Err(XmlError::malformed(
                        at,
                        format!("unexpected closing tag </{name}>"),
                    ));
                }
                Some(ev @ XmlEvent::StartTag { .. }) => return Ok(ev),
            }
        }
    }

    /// Verifies nothing but comments and whitespace follows the root.
    fn read_epilog(&mut self) -> Result<(), XmlError> {
        loop {
            let at = self.lexer.position();
            match self.lexer.next_event()? {
                None => return Ok(()),
                Some(XmlEvent::Declaration | XmlEvent::Comment(_)) => {}
                Some(XmlEvent::Text(t)) if t.trim().is_empty() => {}
                Some(XmlEvent::StartTag { .. }) => {
                    return Err(XmlError::malformed(
                        at,
                        "content after the document's root element",
                    ));
                }
                Some(XmlEvent::EndTag { name }) => {
                    return Err(XmlError::malformed(
                        at,
                        format!("unexpected closing tag </{name}>"),
                    ));
                }
                Some(XmlEvent::Text(_) | XmlEvent::CData(_)) => {
                    return Err(XmlError::malformed(at, "text outside the root element"));
                }
            }
        }
    }

    /// Next event inside `parent`, or a malformedness error at EOF.
    /// Records the event's start position for [`Parser::reopen`] and
    /// tracks nesting depth against [`ReadLimits::max_depth`].
    fn next_required(&mut self, parent: &str) -> Result<XmlEvent<'a>, XmlError> {
        let at = self.lexer.position();
        self.last_at = at;
        let ev = self
            .lexer
            .next_event()?
            .ok_or_else(|| XmlError::malformed(at, format!("unclosed element <{parent}>")))?;
        match &ev {
            XmlEvent::StartTag {
                self_closing: false,
                ..
            } => {
                self.depth += 1;
                if self.depth > self.limits.max_depth {
                    return Err(XmlError::limit_at(
                        at,
                        LimitKind::Depth,
                        format!(
                            "element nesting depth {} exceeds the limit of {}",
                            self.depth, self.limits.max_depth
                        ),
                    ));
                }
            }
            XmlEvent::EndTag { .. } => self.depth = self.depth.saturating_sub(1),
            _ => {}
        }
        Ok(ev)
    }

    /// Fails with an `E202` limit error when a metadata dimension has
    /// collected more than [`ReadLimits::max_entities`] records.
    fn check_entity_cap(&self, len: usize, what: &str, at: Position) -> Result<(), XmlError> {
        if len > self.limits.max_entities {
            return Err(XmlError::limit_at(
                at,
                LimitKind::Entities,
                format!(
                    "more than {} <{what}> entities defined",
                    self.limits.max_entities
                ),
            ));
        }
        Ok(())
    }

    /// Converts a just-read start-tag event into an [`Open`].
    fn reopen(&mut self, ev: XmlEvent<'a>) -> Result<Open<'a>, XmlError> {
        match ev {
            XmlEvent::StartTag {
                name,
                attributes,
                self_closing,
            } => Ok(Open {
                attrs: Attrs {
                    tag: name,
                    at: self.last_at,
                    list: attributes,
                },
                has_children: !self_closing,
            }),
            _ => unreachable!("reopen is only called on start tags"),
        }
    }

    /// Consumes an element's entire subtree (the start tag has already
    /// been read), validating tag nesting along the way.
    fn skip_element(&mut self, open: Open<'a>) -> Result<(), XmlError> {
        if !open.has_children {
            return Ok(());
        }
        self.skip_children(open.attrs.tag)
    }

    /// Consumes events until the end tag of `name`, whose start tag was
    /// already consumed.
    fn skip_children(&mut self, name: &'a str) -> Result<(), XmlError> {
        let mut stack: Vec<&str> = vec![name];
        while let Some(&top) = stack.last() {
            let at = self.lexer.position();
            match self.next_required(top)? {
                XmlEvent::StartTag {
                    name,
                    self_closing: false,
                    ..
                } => stack.push(name),
                XmlEvent::EndTag { name } => {
                    if name != top {
                        return Err(XmlError::malformed(
                            at,
                            format!("<{top}> closed by </{name}>"),
                        ));
                    }
                    stack.pop();
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Parses each direct child element of an already-open parent,
    /// dispatching on its tag; other children (text, comments, unknown
    /// elements) are skipped.
    fn each_child<F>(&mut self, open: Open<'a>, mut on_child: F) -> Result<(), XmlError>
    where
        F: FnMut(&mut Self, Open<'a>) -> Result<(), XmlError>,
    {
        if !open.has_children {
            return Ok(());
        }
        let parent = open.attrs.tag;
        loop {
            let at = self.lexer.position();
            match self.next_required(parent)? {
                ev @ XmlEvent::StartTag { .. } => {
                    let child = self.reopen(ev)?;
                    on_child(self, child)?;
                }
                XmlEvent::EndTag { name } if name == parent => return Ok(()),
                XmlEvent::EndTag { name } => {
                    return Err(XmlError::malformed(
                        at,
                        format!("<{parent}> closed by </{name}>"),
                    ));
                }
                _ => {}
            }
        }
    }

    /// Collects the direct text content of an already-open element into
    /// `out` while consuming its subtree (nested elements are skipped).
    fn text_content(&mut self, open: Open<'a>, out: &mut String) -> Result<(), XmlError> {
        if !open.has_children {
            return Ok(());
        }
        let parent = open.attrs.tag;
        loop {
            let at = self.lexer.position();
            match self.next_required(parent)? {
                XmlEvent::Text(t) => {
                    // Whitespace-only text nodes are dropped, so
                    // indentation never reaches the content.
                    if !t.trim().is_empty() {
                        out.push_str(&t);
                    }
                }
                XmlEvent::CData(t) => out.push_str(t),
                ev @ XmlEvent::StartTag { .. } => {
                    let child = self.reopen(ev)?;
                    self.skip_element(child)?;
                }
                XmlEvent::EndTag { name } if name == parent => return Ok(()),
                XmlEvent::EndTag { name } => {
                    return Err(XmlError::malformed(
                        at,
                        format!("<{parent}> closed by </{name}>"),
                    ));
                }
                XmlEvent::Comment(_) | XmlEvent::Declaration => {}
            }
        }
    }

    // -- sections ----------------------------------------------------------

    fn parse_provenance(&mut self, mut open: Open<'a>) -> Result<Provenance, XmlError> {
        let kind = open.attrs.take("kind");
        let label = open.attrs.take("label");
        let operator = open.attrs.take("operator");
        let note = open.attrs.take("note");
        let mut operands: Vec<String> = Vec::new();
        self.each_child(open, |p, child| {
            if child.attrs.tag == "operand" {
                let mut text = String::new();
                p.text_content(child, &mut text)?;
                operands.push(text);
            } else {
                p.skip_element(child)?;
            }
            Ok(())
        })?;
        match kind.as_deref() {
            Some("original") | None => Ok(Provenance::original(
                label.as_deref().unwrap_or("unnamed experiment"),
            )),
            Some("derived") => Ok(Provenance::derived(
                operator.as_deref().unwrap_or("unknown"),
                operands,
            )),
            Some("recovered") => Ok(Provenance::recovered(
                label.as_deref().unwrap_or("unnamed experiment"),
                note.as_deref().unwrap_or(""),
            )),
            Some(other) => Err(XmlError::value(format!(
                "unknown provenance kind '{other}'"
            ))),
        }
    }

    fn parse_metrics(
        &mut self,
        open: Open<'a>,
        sections: &mut Sections<'a>,
    ) -> Result<(), XmlError> {
        self.each_child(open, |p, child| {
            if child.attrs.tag == "metric" {
                p.parse_metric_tree(child, None, &mut sections.metric_recs)
            } else {
                p.skip_element(child)
            }
        })
    }

    fn parse_metric_tree(
        &mut self,
        mut open: Open<'a>,
        parent: Option<u32>,
        out: &mut Vec<MetricRec<'a>>,
    ) -> Result<(), XmlError> {
        let id: u32 = open.attrs.parse("id")?;
        let uom = open.attrs.require("uom")?;
        let unit = Unit::from_str_opt(&uom).ok_or_else(|| {
            XmlError::value_at(
                open.attrs.at,
                format!("unknown unit of measurement '{uom}'"),
            )
        })?;
        out.push(MetricRec {
            id,
            parent,
            name: open.attrs.require("name")?,
            unit,
            descr: open.attrs.take("descr").unwrap_or(Cow::Borrowed("")),
        });
        self.check_entity_cap(out.len(), "metric", open.attrs.at)?;
        self.each_child(open, |p, child| {
            if child.attrs.tag == "metric" {
                p.parse_metric_tree(child, Some(id), out)
            } else {
                p.skip_element(child)
            }
        })
    }

    fn parse_program(
        &mut self,
        open: Open<'a>,
        sections: &mut Sections<'a>,
    ) -> Result<(), XmlError> {
        self.each_child(open, |p, mut child| match child.attrs.tag {
            "module" => {
                check_dense_id(&mut child.attrs, sections.modules.len())?;
                let name = child.attrs.require("name")?;
                let path = child.attrs.take("path").unwrap_or(Cow::Borrowed(""));
                sections.modules.push((name, path));
                p.check_entity_cap(sections.modules.len(), "module", child.attrs.at)?;
                p.skip_element(child)
            }
            "region" => {
                check_dense_id(&mut child.attrs, sections.regions.len())?;
                let kind_raw = child.attrs.require("kind")?;
                let kind = RegionKind::from_str_opt(&kind_raw).ok_or_else(|| {
                    XmlError::value_at(child.attrs.at, format!("unknown region kind '{kind_raw}'"))
                })?;
                sections.regions.push(Region {
                    name: child.attrs.require("name")?.into_owned(),
                    module: ModuleId::new(child.attrs.parse("mod")?),
                    kind,
                    begin_line: child.attrs.parse("begin")?,
                    end_line: child.attrs.parse("end")?,
                });
                p.check_entity_cap(sections.regions.len(), "region", child.attrs.at)?;
                p.skip_element(child)
            }
            "csite" => {
                check_dense_id(&mut child.attrs, sections.csites.len())?;
                sections.csites.push(CallSite {
                    file: child.attrs.require("file")?.into_owned(),
                    line: child.attrs.parse("line")?,
                    callee: RegionId::new(child.attrs.parse("callee")?),
                });
                p.check_entity_cap(sections.csites.len(), "csite", child.attrs.at)?;
                p.skip_element(child)
            }
            "cnode" => p.parse_cnode_tree(child, None, &mut sections.cnode_recs),
            _ => p.skip_element(child),
        })
    }

    fn parse_cnode_tree(
        &mut self,
        mut open: Open<'a>,
        parent: Option<u32>,
        out: &mut Vec<CnodeRec>,
    ) -> Result<(), XmlError> {
        let id: u32 = open.attrs.parse("id")?;
        out.push(CnodeRec {
            id,
            parent,
            csite: open.attrs.parse("csite")?,
        });
        self.check_entity_cap(out.len(), "cnode", open.attrs.at)?;
        self.each_child(open, |p, child| {
            if child.attrs.tag == "cnode" {
                p.parse_cnode_tree(child, Some(id), out)
            } else {
                p.skip_element(child)
            }
        })
    }

    fn parse_system(
        &mut self,
        open: Open<'a>,
        sections: &mut Sections<'a>,
    ) -> Result<(), XmlError> {
        self.each_child(open, |p, mut machine| {
            if machine.attrs.tag != "machine" {
                return p.skip_element(machine);
            }
            let mid: u32 = machine.attrs.parse("id")?;
            sections
                .machines
                .push((mid, machine.attrs.require("name")?));
            p.check_entity_cap(sections.machines.len(), "machine", machine.attrs.at)?;
            p.each_child(machine, |p, mut node| {
                if node.attrs.tag != "node" {
                    return p.skip_element(node);
                }
                let nid: u32 = node.attrs.parse("id")?;
                sections.nodes.push((nid, mid, node.attrs.require("name")?));
                p.check_entity_cap(sections.nodes.len(), "node", node.attrs.at)?;
                p.each_child(node, |p, mut process| {
                    if process.attrs.tag != "process" {
                        return p.skip_element(process);
                    }
                    let pid: u32 = process.attrs.parse("id")?;
                    sections.processes.push((
                        pid,
                        nid,
                        process.attrs.parse("rank")?,
                        process.attrs.require("name")?,
                    ));
                    p.check_entity_cap(sections.processes.len(), "process", process.attrs.at)?;
                    p.each_child(process, |p, mut thread| {
                        if thread.attrs.tag != "thread" {
                            return p.skip_element(thread);
                        }
                        sections.threads.push((
                            thread.attrs.parse("id")?,
                            pid,
                            thread.attrs.parse("num")?,
                            thread.attrs.require("name")?,
                        ));
                        p.check_entity_cap(sections.threads.len(), "thread", thread.attrs.at)?;
                        p.skip_element(thread)
                    })
                })
            })
        })
    }

    fn parse_topologies(
        &mut self,
        open: Open<'a>,
        sections: &mut Sections<'a>,
    ) -> Result<(), XmlError> {
        self.each_child(open, |p, mut cart| {
            if cart.attrs.tag != "cart" {
                return p.skip_element(cart);
            }
            let parse_list = |raw: &str, key: &str| -> Result<Vec<u32>, XmlError> {
                raw.split_ascii_whitespace()
                    .map(|tok| {
                        tok.parse::<u32>().map_err(|_| {
                            XmlError::value(format!("bad topology {key} entry '{tok}'"))
                        })
                    })
                    .collect()
            };
            let name = cart.attrs.require("name")?;
            let dims = parse_list(&cart.attrs.require("dims")?, "dims")?;
            let periodic: Vec<bool> = parse_list(&cart.attrs.require("periodic")?, "periodic")?
                .into_iter()
                .map(|v| v != 0)
                .collect();
            let mut topo = CartTopology::new(name, dims, periodic);
            p.each_child(cart, |p, mut coord| {
                if coord.attrs.tag != "coord" {
                    return p.skip_element(coord);
                }
                let proc_id: u32 = coord.attrs.parse("proc")?;
                let coord_at = coord.attrs.at;
                let mut text = String::new();
                p.text_content(coord, &mut text)?;
                let c: Vec<u32> = text
                    .split_ascii_whitespace()
                    .map(|tok| {
                        tok.parse::<u32>()
                            .map_err(|_| XmlError::value(format!("bad coordinate entry '{tok}'")))
                    })
                    .collect::<Result<_, _>>()?;
                topo.coords.push((ProcessId::new(proc_id), c));
                p.check_entity_cap(topo.coords.len(), "coord", coord_at)?;
                Ok(())
            })?;
            sections.topologies.push(topo);
            Ok(())
        })
    }

    fn parse_severity(
        &mut self,
        open: Open<'a>,
        md: &Metadata,
        sev: &mut Severity,
    ) -> Result<(), XmlError> {
        let (nm, nc, nt) = md.shape();
        self.row.resize(nt, 0.0);
        self.each_child(open, |p, mut matrix| {
            if matrix.attrs.tag != "matrix" {
                return p.skip_element(matrix);
            }
            let m: u32 = matrix.attrs.parse("metric")?;
            if m as usize >= nm {
                return Err(XmlError::value_at(
                    matrix.attrs.at,
                    format!("matrix metric id {m} out of range"),
                ));
            }
            p.context = Context::Matrix(m);
            p.each_child(matrix, |p, mut row| {
                if row.attrs.tag != "row" {
                    return p.skip_element(row);
                }
                let c: u32 = row.attrs.parse("cnode")?;
                if c as usize >= nc {
                    return Err(XmlError::value_at(
                        row.attrs.at,
                        format!("row cnode id {c} out of range"),
                    ));
                }
                p.context = Context::Row(m, c);
                p.parse_row(row, m, c)?;
                sev.row_mut(MetricId::new(m), CallNodeId::new(c))
                    .copy_from_slice(&p.row);
                p.rows += 1;
                Ok(())
            })
        })
    }

    /// Parses one `<row>`'s numbers into the reused row buffer.
    ///
    /// The common case — one borrowed text event covering the whole
    /// row — is parsed without copying; rows fragmented by entity
    /// references or comments are first gathered into the reused
    /// scratch buffer.
    fn parse_row(&mut self, open: Open<'a>, m: u32, c: u32) -> Result<(), XmlError> {
        let row_at = open.attrs.at;
        let first = self.gather_row_text(open)?;
        let text: &str = match &first {
            Some(f) => f,
            None => &self.scratch,
        };
        parse_row_values(text, &mut self.row, m, c, row_at)
    }

    /// Gathers one `<row>`'s direct text, consuming its subtree.
    ///
    /// Returns `Some(text)` when a single text event covered the whole
    /// row (the fast, borrowed path); `None` when the text was
    /// fragmented and assembled in `self.scratch`. Enforces
    /// [`ReadLimits::max_row_bytes`].
    fn gather_row_text(&mut self, open: Open<'a>) -> Result<Option<Cow<'a, str>>, XmlError> {
        let parent = open.attrs.tag;
        let row_at = open.attrs.at;
        let mut first: Option<Cow<'a, str>> = None;
        self.scratch.clear();
        if open.has_children {
            loop {
                let at = self.lexer.position();
                match self.next_required(parent)? {
                    XmlEvent::Text(t) => match (&first, self.scratch.is_empty()) {
                        (None, true) => first = Some(t),
                        _ => {
                            if let Some(f) = first.take() {
                                self.scratch.push_str(&f);
                            }
                            self.scratch.push_str(&t);
                        }
                    },
                    XmlEvent::CData(t) => {
                        if let Some(f) = first.take() {
                            self.scratch.push_str(&f);
                        }
                        self.scratch.push_str(t);
                    }
                    ev @ XmlEvent::StartTag { .. } => {
                        let child = self.reopen(ev)?;
                        self.skip_element(child)?;
                    }
                    XmlEvent::EndTag { name } if name == parent => break,
                    XmlEvent::EndTag { name } => {
                        return Err(XmlError::malformed(
                            at,
                            format!("<{parent}> closed by </{name}>"),
                        ));
                    }
                    XmlEvent::Comment(_) | XmlEvent::Declaration => {}
                }
                let gathered = first.as_deref().map_or(0, str::len) + self.scratch.len();
                if gathered > self.limits.max_row_bytes {
                    return Err(XmlError::limit_at(
                        row_at,
                        LimitKind::RowBytes,
                        format!(
                            "severity row text exceeds the limit of {} bytes",
                            self.limits.max_row_bytes
                        ),
                    ));
                }
            }
        }
        Ok(first)
    }
}

/// Parses a row's whitespace-separated numbers into `dest`, requiring
/// exactly `dest.len()` values.
fn parse_row_values(
    text: &str,
    dest: &mut [f64],
    m: u32,
    c: u32,
    row_at: Position,
) -> Result<(), XmlError> {
    let mut count = 0usize;
    for (i, tok) in text.split_ascii_whitespace().enumerate() {
        if i >= dest.len() {
            return Err(XmlError::value_at(
                row_at,
                format!(
                    "row (metric {m}, cnode {c}) has more than {} values",
                    dest.len()
                ),
            ));
        }
        dest[i] = match parse_f64_fixed(tok) {
            Some(v) => v,
            None => tok.parse().map_err(|_| {
                XmlError::value_at(
                    row_at,
                    format!(
                        "severity value '{tok}' in row (metric {m}, cnode {c}) is not a number"
                    ),
                )
            })?,
        };
        count += 1;
    }
    if count != dest.len() {
        return Err(XmlError::value_at(
            row_at,
            format!(
                "row (metric {m}, cnode {c}) has {count} values, expected {}",
                dest.len()
            ),
        ));
    }
    Ok(())
}

/// Fast exact parse for plain fixed-notation tokens — an optional
/// sign, at most 15 digits, at most one decimal point. The digits fit
/// a `u64` below 2⁵³ and the scale is an exact power of ten, so one
/// IEEE division yields the correctly rounded value: bit-identical to
/// `str::parse::<f64>`, which is what almost every severity token in a
/// `.cube` file needs. Returns `None` for everything else (exponents,
/// specials, long or malformed tokens); the caller falls back to the
/// general parser.
fn parse_f64_fixed(tok: &str) -> Option<f64> {
    let b = tok.as_bytes();
    let (neg, rest) = match b.split_first()? {
        (b'-', rest) => (true, rest),
        _ => (false, b),
    };
    let mut n: u64 = 0;
    let mut digits = 0usize;
    let mut frac: Option<usize> = None;
    for (i, &c) in rest.iter().enumerate() {
        if c.is_ascii_digit() {
            n = n * 10 + u64::from(c - b'0');
            digits += 1;
        } else if c == b'.' && frac.is_none() {
            frac = Some(rest.len() - i - 1);
        } else {
            return None;
        }
    }
    if digits == 0 || digits > 15 {
        return None;
    }
    const POW10: [f64; 16] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    ];
    let mut v = n as f64;
    if let Some(f) = frac {
        v /= POW10[f];
    }
    Some(if neg { -v } else { v })
}

fn missing_section(name: &str) -> XmlError {
    XmlError::format(format!("element <cube> is missing required child <{name}>"))
}

fn check_dense_id(attrs: &mut Attrs<'_>, expected: usize) -> Result<(), XmlError> {
    let id: usize = attrs.parse("id")?;
    if id != expected {
        return Err(XmlError::format_at(
            attrs.at,
            format!(
                "<{}> ids must be dense and in document order: found {id}, expected {expected}",
                attrs.tag
            ),
        ));
    }
    Ok(())
}

/// Sorts records by id, verifies the ids are exactly `0..n`, and
/// checks parents precede children.
fn sort_dense_tree<T>(
    what: &str,
    recs: &mut [T],
    id_of: impl Fn(&T) -> u32,
    parent_of: impl Fn(&T) -> Option<u32>,
) -> Result<(), XmlError> {
    recs.sort_by_key(&id_of);
    for (expected, rec) in recs.iter().enumerate() {
        let id = id_of(rec);
        if id as usize != expected {
            return Err(XmlError::format(format!(
                "<{what}> ids must be dense 0..{}: found {id}, expected {expected}",
                recs.len()
            )));
        }
        if let Some(p) = parent_of(rec) {
            if p >= id {
                return Err(XmlError::format(format!(
                    "{what} {id} appears before its parent {p}"
                )));
            }
        }
    }
    Ok(())
}

/// Sorts flat records by id and verifies density.
fn sort_dense_flat<T>(
    what: &str,
    recs: &mut [T],
    id_of: impl Fn(&T) -> u32,
) -> Result<(), XmlError> {
    recs.sort_by_key(&id_of);
    for (expected, rec) in recs.iter().enumerate() {
        if id_of(rec) as usize != expected {
            return Err(XmlError::format(format!(
                "<{what}> ids must be dense 0..{}: found {}, expected {expected}",
                recs.len(),
                id_of(rec)
            )));
        }
    }
    Ok(())
}

/// Turns the collected section records into `Metadata` plus an all-zero
/// severity of the right shape.
fn finalize_metadata(sections: &mut Sections<'_>) -> Result<(Metadata, Severity), XmlError> {
    let mut md = Metadata::new();

    sort_dense_tree("metric", &mut sections.metric_recs, |r| r.id, |r| r.parent)?;
    for rec in sections.metric_recs.drain(..) {
        md.add_metric(Metric {
            name: rec.name.into_owned(),
            unit: rec.unit,
            description: rec.descr.into_owned(),
            parent: rec.parent.map(MetricId::new),
        });
    }

    for (name, path) in sections.modules.drain(..) {
        md.add_module(Module::new(name, path));
    }
    for region in sections.regions.drain(..) {
        md.add_region(region);
    }
    for csite in sections.csites.drain(..) {
        md.add_call_site(csite);
    }
    sort_dense_tree("cnode", &mut sections.cnode_recs, |r| r.id, |r| r.parent)?;
    for rec in sections.cnode_recs.drain(..) {
        md.add_call_node(CallNode {
            call_site: CallSiteId::new(rec.csite),
            parent: rec.parent.map(CallNodeId::new),
        });
    }

    sort_dense_flat("machine", &mut sections.machines, |m| m.0)?;
    sort_dense_flat("node", &mut sections.nodes, |n| n.0)?;
    sort_dense_flat("process", &mut sections.processes, |p| p.0)?;
    sort_dense_flat("thread", &mut sections.threads, |t| t.0)?;
    for (_, name) in sections.machines.drain(..) {
        md.add_machine(Machine::new(name));
    }
    for (_, mid, name) in sections.nodes.drain(..) {
        md.add_node(SystemNode::new(name, MachineId::new(mid)));
    }
    for (_, nid, rank, name) in sections.processes.drain(..) {
        md.add_process(Process::new(name, rank, NodeId::new(nid)));
    }
    for (_, pid, num, name) in sections.threads.drain(..) {
        md.add_thread(Thread::new(name, num, ProcessId::new(pid)));
    }

    for topo in sections.topologies.drain(..) {
        md.add_topology(topo);
    }

    let (nm, nc, nt) = md.shape();
    let sev = Severity::zeros(nm, nc, nt);
    Ok((md, sev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_parse_matches_std() {
        // Accepted tokens must agree with `str::parse` bit for bit.
        let mut toks: Vec<String> = [
            "0",
            "-0",
            "1",
            "-1",
            "1.",
            ".5",
            "-.5",
            "0.1",
            "0.000001",
            "999999999999999",
            "999999999999.999",
            "123456.654321",
            "-8.125",
            "3.0",
            "0.3333333333333",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let mut state = 7u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            toks.push(format!("{}", ((unit * 10.0 - 2.0) * 1e6).round() / 1e6));
            toks.push(format!("{}", unit * 10.0 - 2.0));
        }
        for t in &toks {
            if let Some(v) = parse_f64_fixed(t) {
                assert_eq!(
                    v.to_bits(),
                    t.parse::<f64>().unwrap().to_bits(),
                    "token {t:?}"
                );
            }
        }
        // Everything outside the class defers to the general parser.
        for t in [
            "",
            "-",
            ".",
            "1e3",
            "inf",
            "NaN",
            "+1",
            "1.2.3",
            "1234567890123456",
            "0x10",
        ] {
            assert_eq!(parse_f64_fixed(t), None, "token {t:?}");
        }
    }

    fn read(xml: &str) -> Result<Experiment, XmlError> {
        CubeReader::new(xml).read()
    }

    /// `doc` with its `<severity>` section moved to the front of `<cube>`.
    fn severity_first(doc: &str) -> String {
        let start = doc.find("<severity").unwrap();
        let end = if doc[start..].starts_with("<severity/>") {
            start + "<severity/>".len()
        } else {
            doc.find("</severity>").unwrap() + "</severity>".len()
        };
        let root = doc.find("<cube").unwrap();
        let open_end = root + doc[root..].find('>').unwrap() + 1;
        format!(
            "{}{}{}{}",
            &doc[..open_end],
            &doc[start..end],
            &doc[open_end..start],
            &doc[end..]
        )
    }

    #[test]
    fn rejects_text_outside_root() {
        assert!(matches!(
            read("stray <cube/>"),
            Err(XmlError::Malformed { .. })
        ));
    }

    #[test]
    fn rejects_second_root() {
        let err = read("<cube><metrics/><program/><system/></cube><cube/>").unwrap_err();
        assert!(err.to_string().contains("after the document's root"));
    }

    #[test]
    fn severity_before_metadata_reads_like_canonical_order() {
        let doc = sample_doc();
        let moved = severity_first(&doc);
        assert!(moved.find("<severity>").unwrap() < moved.find("<metrics>").unwrap());
        let (a, b) = (read(&doc).unwrap(), read(&moved).unwrap());
        assert!(a.approx_eq(&b, 0.0));
        assert_eq!(a.provenance(), b.provenance());
        // Salvage runs the same loop: every row of the leading section
        // is committed, none is lost.
        let (_, full) = crate::format::read_experiment_salvage(&doc).unwrap();
        let (_, moved) = crate::format::read_experiment_salvage(&moved).unwrap();
        assert!(moved.complete, "{moved:?}");
        assert_eq!(moved.rows_recovered, full.rows_recovered);
    }

    #[test]
    fn empty_sections_give_empty_experiment_error() {
        // No threads at all violates the data model.
        let err = read("<cube><metrics/><program/><system/></cube>").unwrap_err();
        assert!(matches!(err, XmlError::Model(_)));
    }

    #[test]
    fn unclosed_root_rejected() {
        assert!(matches!(
            read("<cube><metrics/>"),
            Err(XmlError::Malformed { .. })
        ));
    }

    #[test]
    fn mismatched_nesting_rejected_in_skipped_subtrees() {
        let xml = "<cube><unknown><a><b></a></b></unknown><metrics/><program/><system/></cube>";
        assert!(matches!(read(xml), Err(XmlError::Malformed { .. })));
    }

    fn sample_doc() -> String {
        use cube_model::{ExperimentBuilder, Unit};
        let mut b = ExperimentBuilder::new("salvage sample");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let visits = b.def_metric("visits", Unit::Occurrences, "", None);
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("main", m, cube_model::RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        let cs2 = b.def_call_site("a.c", 3, r);
        let inner = b.def_call_node(cs2, Some(root));
        let ts = cube_model::builder::single_threaded_system(&mut b, 2);
        for (i, &t) in ts.iter().enumerate() {
            b.set_severity(time, root, t, 1.5 + i as f64);
            b.set_severity(time, inner, t, 0.5);
            b.set_severity(visits, inner, t, 3.0);
        }
        crate::format::write_experiment(&b.build().unwrap())
    }

    /// Reads `doc` in canonical order and with `<severity>` moved first,
    /// and expects both to fail on the same limit.
    fn assert_limit_in_both_orders(doc: &str, limits: ReadLimits, want: LimitKind) {
        for xml in [doc.to_string(), severity_first(doc)] {
            let err = CubeReader::with_limits(&xml, limits).read().unwrap_err();
            assert!(
                matches!(err, XmlError::Limit { kind, .. } if kind == want),
                "{err}\n{xml}"
            );
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let xml =
            "<cube><a><b><c><d><e/></d></c></b></a><metrics/><program/><system/><severity/></cube>";
        let limits = ReadLimits {
            max_depth: 3,
            ..ReadLimits::default()
        };
        assert_limit_in_both_orders(xml, limits, LimitKind::Depth);
        // The same document passes with the default limits.
        assert!(matches!(read(xml), Err(XmlError::Model(_))));
        assert!(matches!(
            read(&severity_first(xml)),
            Err(XmlError::Model(_))
        ));
        // Nesting inside the severity section counts too (the metadata
        // of the sample nests 5 deep, its rows 4).
        let deep_row = sample_doc().replacen("</row>", "<a><b><c><d/></c></b></a></row>", 1);
        let limits = ReadLimits {
            max_depth: 6,
            ..ReadLimits::default()
        };
        assert_limit_in_both_orders(&deep_row, limits, LimitKind::Depth);
        assert!(read(&deep_row).is_ok());
    }

    #[test]
    fn entity_limit_is_enforced() {
        let limits = ReadLimits {
            max_entities: 1,
            ..ReadLimits::default()
        };
        assert_limit_in_both_orders(&sample_doc(), limits, LimitKind::Entities);
    }

    #[test]
    fn input_size_limit_is_enforced() {
        let limits = ReadLimits {
            max_input_bytes: 16,
            ..ReadLimits::default()
        };
        assert_limit_in_both_orders(&sample_doc(), limits, LimitKind::InputBytes);
    }

    #[test]
    fn row_byte_limit_is_enforced() {
        let doc = sample_doc();
        let limits = ReadLimits {
            max_row_bytes: 2,
            ..ReadLimits::default()
        };
        assert_limit_in_both_orders(&doc, limits, LimitKind::RowBytes);
        assert!(read(&doc).is_ok());
        assert!(read(&severity_first(&doc)).is_ok());
    }

    #[test]
    fn salvage_of_intact_document_is_lossless() {
        let doc = sample_doc();
        let parsed = parse(&doc, ReadLimits::default()).unwrap();
        assert!(parsed.loss.is_none());
        assert!(parsed.rows > 0);
        let strict = read(&doc).unwrap();
        assert_eq!(parsed.md, *strict.metadata());
        assert_eq!(parsed.sev.values(), strict.severity().values());
    }

    #[test]
    fn salvage_recovers_prefix_of_truncated_document() {
        let doc = sample_doc();
        // Cut inside the last <row>: metadata and the earlier rows must
        // survive, the torn row must not half-apply.
        let cut = doc.rfind("<row").unwrap() + 6;
        let parsed = parse(&doc[..cut], ReadLimits::default()).unwrap();
        assert!(parsed.loss.is_some());
        let strict = read(&doc).unwrap();
        assert_eq!(parsed.md, *strict.metadata());
        // Every recovered value is either the original or zero.
        let full = strict.severity().values();
        let got = parsed.sev.values();
        assert_eq!(got.len(), full.len());
        for (g, f) in got.iter().zip(full) {
            assert!(*g == *f || *g == 0.0, "recovered {g}, original {f}");
        }
        assert!(parsed.rows >= 1);
    }

    #[test]
    fn salvage_without_complete_metadata_is_fatal() {
        let doc = sample_doc();
        let cut = doc.find("<system>").unwrap() + 10;
        assert!(parse(&doc[..cut], ReadLimits::default()).is_err());
    }
}
