//! Static diagnostics for experiments: the `cube lint` rule engine, and
//! the data-model check behind `validate`.
//!
//! [`Experiment::validate`](crate::Experiment::validate) answers the
//! yes/no question "is this a valid instance of the data model?" and
//! stops at the first violation. This module answers the analyst's
//! question instead: *everything* that is wrong or suspicious about an
//! experiment, each finding tagged with a stable [`RuleCode`], a
//! [`Level`], and a precise [`Location`]. Both run one walk.
//!
//! ## Rule codes
//!
//! * `E0xx` — structural **errors**: violations of the data model. Each
//!   rule reports its violation as a [`ModelError`], and
//!   [`diagnostic_of_model_error`] turns it into a diagnostic. The E0xx
//!   rules are the only implementation of the data-model check:
//!   [`Metadata::validate`] and [`Experiment::validate`] run them with
//!   the warning rules off and return the first violation, so an
//!   experiment validates if and only if [`lint`] reports no error (see
//!   [`Report::has_errors`]). That alignment is what lets `cube-algebra`
//!   enforce the paper's closure theorem with a lint in debug builds.
//! * `E1xx` — **parse-level errors**. Never produced by [`lint`]
//!   itself; the `cube-xml` crate maps I/O and parse failures onto
//!   these codes so file diagnostics and model diagnostics share one
//!   report type.
//! * `W0xx` — semantic **warnings**: constructs that are legal but
//!   almost certainly wrong (an unreferenced region, a gap in thread
//!   numbers, a negative severity in an *original* experiment).
//!
//! ## Rule order
//!
//! The error rules run in this order, which is the order of errors in a
//! [`Report`] and decides which violation `validate` returns:
//!
//! 1. metrics: `E001` over every metric, then `E002`, then `E003`;
//! 2. program: `E004` and `E005` per region, `E006` per call site,
//!    `E007` and `E008` per call-tree node, then `E009`;
//! 3. system: `E010` per node, `E011` and `E013` per process, `E012`
//!    or `E014` per thread, then `E017`;
//! 4. `E018` per topology;
//! 5. severity: `E015`, then `E016` per value in store order; a shape
//!    mismatch skips the value rule.
//!
//! [`Metadata::validate`] runs steps 1–4: everything a reader can check
//! before it holds severity values. [`Experiment::validate`] runs all
//! five, and [`validate_values`] runs the value rule alone, for a
//! reader that loads values after it has checked the metadata.
//!
//! Orphan subtrees need no rule of their own: with dense identifiers a
//! node is unreachable from the roots exactly when its parent chain
//! dangles (`E001`/`E008`) or cycles (`E002`/`E009`). Duplicate
//! identifiers are likewise unrepresentable in [`Metadata`]'s dense
//! tables; a file that writes them is rejected at parse level (`E103`).
//!
//! Every rule caps its output at [`MAX_PER_RULE`] diagnostics and
//! appends one summary diagnostic with the suppressed count, so linting
//! a gigabyte of NaN stays readable. A finding past the cap is only
//! counted: its message is never built.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::error::ModelError;
use crate::experiment::Experiment;
use crate::ids::{
    CallNodeId, CallSiteId, MachineId, MetricId, ModuleId, NodeId, ProcessId, RegionId, ThreadId,
};
use crate::metadata::Metadata;
use crate::provenance::Provenance;
use crate::severity::Severity;

/// Maximum diagnostics reported per rule before truncation.
pub const MAX_PER_RULE: usize = 8;

/// Severity level of a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The experiment violates the data model.
    Error,
    /// Legal but suspicious; tools should still accept the experiment.
    Warning,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Error => "error",
            Self::Warning => "warning",
        })
    }
}

/// Declares [`RuleCode`] and [`RULES`] from one table: each rule's
/// variant and its doc comment, then its textual code and one-line
/// description. Adding a code means adding one entry.
macro_rules! rule_codes {
    ($($(#[$doc:meta])* $variant:ident => $code:literal, $description:literal;)*) => {
        /// Stable identifier of one lint rule.
        ///
        /// Codes are append-only: a code, once published, keeps its meaning
        /// forever (CI configurations reference them textually).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum RuleCode {
            $($(#[$doc])* $variant,)*
        }

        /// Every rule's variant, code and description, in variant order.
        const RULES: &[(RuleCode, &str, &str)] =
            &[$((RuleCode::$variant, $code, $description),)*];
    };
}

rule_codes! {
    // -- E0xx: data-model violations (the rules of Experiment::validate) --
    /// A metric's parent identifier does not exist.
    DanglingMetricParent => "E001", "metric refers to a nonexistent parent";
    /// The metric parent chain contains a cycle.
    MetricCycle => "E002", "metric parent chain contains a cycle";
    /// A metric's unit differs from its tree root's unit.
    MixedUnitsInMetricTree => "E003", "metric unit differs from its tree root's unit";
    /// A region's module does not exist.
    DanglingRegionModule => "E004", "region refers to a nonexistent module";
    /// A region's begin line is after its end line.
    InvertedRegionLines => "E005", "region begin line is after its end line";
    /// A call site's callee region does not exist.
    DanglingCallSiteCallee => "E006", "call site refers to a nonexistent callee region";
    /// A call-tree node's call site does not exist.
    DanglingCallNodeSite => "E007", "call-tree node refers to a nonexistent call site";
    /// A call-tree node's parent does not exist.
    DanglingCallNodeParent => "E008", "call-tree node refers to a nonexistent parent";
    /// The call-tree parent chain contains a cycle.
    CallNodeCycle => "E009", "call-tree parent chain contains a cycle";
    /// A system node's machine does not exist.
    DanglingNodeMachine => "E010", "system node refers to a nonexistent machine";
    /// A process's system node does not exist.
    DanglingProcessNode => "E011", "process refers to a nonexistent system node";
    /// A thread's process does not exist.
    DanglingThreadProcess => "E012", "thread refers to a nonexistent process";
    /// Two processes share one application-level rank.
    DuplicateRank => "E013", "two processes share one application-level rank";
    /// Two threads of one process share one thread number.
    DuplicateThreadNumber => "E014", "two threads of one process share one thread number";
    /// Severity store shape disagrees with the metadata tables.
    SeverityShapeMismatch => "E015", "severity store shape disagrees with the metadata";
    /// A severity value is NaN.
    SeverityNan => "E016", "severity value is NaN";
    /// The experiment defines no thread.
    NoThreads => "E017", "experiment defines no thread";
    /// A Cartesian topology violates its structural constraints.
    BadTopology => "E018", "Cartesian topology violates its structural constraints";

    // -- E1xx: parse-level errors (produced by cube-xml) --
    /// The file could not be read (I/O failure).
    Io => "E100", "file could not be read";
    /// The lexer met a character it cannot interpret.
    XmlSyntax => "E101", "XML syntax error";
    /// XML well-formedness violation (mismatched tags, two roots, ...).
    XmlMalformed => "E102", "XML well-formedness violation";
    /// Valid XML, but not a valid CUBE document (missing sections,
    /// missing attributes, non-dense identifiers).
    FormatViolation => "E103", "valid XML but not a valid CUBE document";
    /// An attribute or severity value failed to parse or referenced an
    /// out-of-range identifier.
    BadValue => "E104", "attribute or severity value failed to parse or is out of range";

    // -- E2xx: resource limits and integrity (produced by cube-xml) --
    /// The document exceeds the configured maximum input size.
    InputTooLarge => "E200", "document exceeds the maximum input size";
    /// Element nesting exceeds the configured maximum depth.
    NestingTooDeep => "E201", "element nesting exceeds the maximum depth";
    /// A metadata dimension defines more entities than the configured
    /// maximum.
    TooManyEntities => "E202", "a metadata dimension defines too many entities";
    /// A severity row's text exceeds the configured maximum length.
    RowTooLong => "E203", "severity row text exceeds the maximum length";
    /// The document's checksum footer does not match its bytes.
    ChecksumMismatch => "E204", "checksum footer does not match the document bytes";

    // -- W0xx: semantic warnings --
    /// Two sibling metrics share name and unit; metadata integration
    /// matches metrics by `(name, unit)` under their parent, so such
    /// siblings can never both survive a merge as distinct metrics.
    DuplicateSiblingMetric => "W001", "two sibling metrics share name and unit";
    /// A region is not the callee of any call site.
    UnreferencedRegion => "W002", "region is not the callee of any call site";
    /// A module contains no region.
    EmptyModule => "W003", "module contains no region";
    /// A severity value is infinite.
    InfiniteSeverity => "W004", "severity value is infinite";
    /// A severity value is negative although the experiment's
    /// provenance is *original*: measurement tools accumulate
    /// non-negative quantities, only derived (difference) experiments
    /// may legitimately go negative.
    NegativeOriginalSeverity => "W005", "negative severity in an original experiment";
    /// A process's thread numbers are not contiguous from 0.
    ThreadNumberGap => "W006", "thread numbers of a process are not contiguous from 0";
    /// Process ranks are not contiguous from 0.
    RankGap => "W007", "process ranks are not contiguous from 0";
    /// A machine without nodes, a node without processes, or a process
    /// without threads.
    EmptySystemBranch => "W008", "machine, node, or process without children";
    /// A topology declares a grid but places no process on it.
    EmptyTopology => "W009", "topology declares a grid but places no process";
    /// A call site is not used by any call-tree node.
    UnreferencedCallSite => "W010", "call site is not used by any call-tree node";
}

impl RuleCode {
    /// The stable textual code, e.g. `"E016"` or `"W004"`.
    pub fn as_str(self) -> &'static str {
        RULES[self as usize].1
    }

    /// Parses a textual code produced by [`RuleCode::as_str`].
    pub fn from_str_opt(s: &str) -> Option<Self> {
        RULES.iter().find(|rule| rule.1 == s).map(|rule| rule.0)
    }

    /// The severity level of this rule.
    pub fn level(self) -> Level {
        if self.as_str().starts_with('E') {
            Level::Error
        } else {
            Level::Warning
        }
    }

    /// One-line description of what the rule checks.
    pub fn description(self) -> &'static str {
        RULES[self as usize].2
    }

    /// Every rule code, in code order (for documentation and tests).
    pub const ALL: [RuleCode; RULES.len()] = {
        let mut all = [RuleCode::Io; RULES.len()];
        let mut i = 0;
        while i < RULES.len() {
            all[i] = RULES[i].0;
            i += 1;
        }
        all
    };
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
///
/// Model-level rules use the entity variants; `cube-xml` uses
/// [`Location::Source`] with the streaming lexer's line/column so parse
/// errors and lint findings share one location type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Location {
    /// The experiment as a whole.
    Experiment,
    /// A position in the source document (1-based line and column).
    Source { line: u32, column: u32 },
    /// A metric.
    Metric(MetricId),
    /// A module.
    Module(ModuleId),
    /// A region.
    Region(RegionId),
    /// A call site.
    CallSite(CallSiteId),
    /// A call-tree node.
    CallNode(CallNodeId),
    /// A machine.
    Machine(MachineId),
    /// A system node.
    Node(NodeId),
    /// A process.
    Process(ProcessId),
    /// A thread.
    Thread(ThreadId),
    /// One severity tuple.
    Tuple {
        metric: MetricId,
        call_node: CallNodeId,
        thread: ThreadId,
    },
    /// A Cartesian topology, by index in the topology table.
    Topology(usize),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Experiment => f.write_str("experiment"),
            Self::Source { line, column } => write!(f, "{line}:{column}"),
            Self::Metric(id) => write!(f, "metric {id:?}"),
            Self::Module(id) => write!(f, "module {id:?}"),
            Self::Region(id) => write!(f, "region {id:?}"),
            Self::CallSite(id) => write!(f, "call site {id:?}"),
            Self::CallNode(id) => write!(f, "call node {id:?}"),
            Self::Machine(id) => write!(f, "machine {id:?}"),
            Self::Node(id) => write!(f, "node {id:?}"),
            Self::Process(id) => write!(f, "process {id:?}"),
            Self::Thread(id) => write!(f, "thread {id:?}"),
            Self::Tuple {
                metric,
                call_node,
                thread,
            } => write!(f, "severity ({metric:?}, {call_node:?}, {thread:?})"),
            Self::Topology(i) => write!(f, "topology #{i}"),
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub code: RuleCode,
    /// Where it fired.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: RuleCode, location: Location, message: impl Into<String>) -> Self {
        Self {
            code,
            location,
            message: message.into(),
        }
    }

    /// The level of the rule that fired.
    pub fn level(&self) -> Level {
        self.code.level()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}: {}",
            self.level(),
            self.code,
            self.location,
            self.message
        )
    }
}

/// The result of linting one experiment (or one file).
///
/// Errors sort before warnings; within a level, diagnostics keep the
/// deterministic rule-scan order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Wraps pre-built diagnostics into a report (errors-first order is
    /// established here).
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by_key(|d| d.level());
        Self { diagnostics }
    }

    /// All diagnostics, errors first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// No findings at all — the experiment is clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// At least one error-level finding.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.level() == Level::Error)
    }

    /// Error-level diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.level() == Level::Error)
    }

    /// Warning-level diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.level() == Level::Warning)
    }

    /// Number of error-level diagnostics.
    pub fn num_errors(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-level diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.warnings().count()
    }

    /// The distinct rule codes that fired, in code order.
    pub fn codes(&self) -> Vec<RuleCode> {
        let mut codes: Vec<RuleCode> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// `"2 errors, 1 warning"`-style summary.
    pub fn summary(&self) -> String {
        fn count(n: usize, what: &str) -> String {
            format!("{n} {what}{}", if n == 1 { "" } else { "s" })
        }
        format!(
            "{}, {}",
            count(self.num_errors(), "error"),
            count(self.num_warnings(), "warning")
        )
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{}", self.summary())
    }
}

/// Collects lint findings while enforcing the per-rule cap. A finding
/// past the cap is only counted, so its message is never built.
#[derive(Default)]
struct Collector {
    /// Kept violations of the error rules, formatted by `finish`.
    errors: Vec<ModelError>,
    /// Kept findings of the warning rules.
    warnings: Vec<Diagnostic>,
    /// Findings per rule, kept or not.
    counts: BTreeMap<RuleCode, usize>,
}

impl Collector {
    /// Counts one finding of `code`; true while the rule is under its
    /// cap.
    fn keep(&mut self, code: RuleCode) -> bool {
        let n = self.counts.entry(code).or_insert(0);
        *n += 1;
        *n <= MAX_PER_RULE
    }

    fn error(&mut self, e: ModelError) {
        if self.keep(code_of_model_error(&e)) {
            self.errors.push(e);
        }
    }

    /// Records a warning; `message` runs only if the warning is kept.
    fn warn(&mut self, code: RuleCode, location: Location, message: impl FnOnce() -> String) {
        if self.keep(code) {
            self.warnings
                .push(Diagnostic::new(code, location, message()));
        }
    }

    fn finish(self) -> Report {
        let mut diagnostics: Vec<Diagnostic> =
            self.errors.iter().map(diagnostic_of_model_error).collect();
        diagnostics.extend(self.warnings);
        for (&code, &n) in &self.counts {
            if n > MAX_PER_RULE {
                diagnostics.push(Diagnostic::new(
                    code,
                    Location::Experiment,
                    format!("{} further {code} diagnostics suppressed", n - MAX_PER_RULE),
                ));
            }
        }
        Report::from_diagnostics(diagnostics)
    }
}

/// Lints an experiment: runs every rule and reports all findings.
pub fn lint(exp: &Experiment) -> Report {
    lint_parts(exp.metadata(), exp.severity(), exp.provenance())
}

/// Lints the parts of a (possibly not yet validated) experiment.
///
/// Unlike [`lint`] this does not require assembling an [`Experiment`]
/// first, so a reader can diagnose structures that
/// [`Experiment::new`](crate::Experiment::new) would reject — and
/// report *all* of their violations, not just the first.
pub fn lint_parts(md: &Metadata, sev: &Severity, prov: &Provenance) -> Report {
    let mut c = Collector::default();
    // Lint keeps every violation, so the error rules run to the end.
    let _ = model_rules(md, sev, &mut |e| {
        c.error(e);
        Ok(())
    });
    metric_warnings(md, &mut c);
    program_warnings(md, &mut c);
    system_warnings(md, &mut c);
    topology_warnings(md, &mut c);
    if md.shape() == sev.shape() {
        value_warnings(sev, prov, &mut c);
    }
    c.finish()
}

/// The value rule of [`Experiment::validate`] (`E016`) over severity
/// values laid out as `shape` `(metrics, call nodes, threads)`, for a
/// reader that holds values outside a [`Severity`]: the first NaN is
/// returned as [`ModelError::NanSeverity`]. `values` must hold the
/// product of `shape`'s extents, as a [`Severity`] of that shape does.
pub fn validate_values(values: &[f64], shape: (usize, usize, usize)) -> Result<(), ModelError> {
    nan_rule(values, shape, &mut Err)
}

/// Receives each violation an error rule finds. `validate` passes
/// `Err`, which ends the walk at the first; lint keeps them all.
pub(crate) type Found<'a> = dyn FnMut(ModelError) -> Result<(), ModelError> + 'a;

/// Every error rule, in the order of the module documentation: the
/// check behind [`Experiment::validate`].
pub(crate) fn model_rules(
    md: &Metadata,
    sev: &Severity,
    found: &mut Found,
) -> Result<(), ModelError> {
    metadata_rules(md, found)?;
    let (expected, actual) = (md.shape(), sev.shape());
    if expected != actual {
        // Flat indices cannot be mapped onto tuples: no value rule.
        return found(ModelError::SeverityShapeMismatch { expected, actual });
    }
    nan_rule(sev.values(), actual, found)
}

/// Steps 1–4 of the rule order: the check behind [`Metadata::validate`].
pub(crate) fn metadata_rules(md: &Metadata, found: &mut Found) -> Result<(), ModelError> {
    metric_rules(md, found)?;
    program_rules(md, found)?;
    system_rules(md, found)?;
    for (index, t) in md.topologies().iter().enumerate() {
        if let Err(reason) = t.validate(md.processes().len()) {
            found(ModelError::BadTopology {
                index,
                topology: t.name.clone(),
                reason,
            })?;
        }
    }
    Ok(())
}

/// Where a parent chain ends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ChainEnd {
    /// At this root.
    Root(usize),
    /// At a parent index outside the table.
    Dangles,
    /// Nowhere: the chain runs into a cycle.
    Cycles,
}

/// Where the parent chain of each of `len` table entries ends, with
/// `parent_of` giving each entry's parent. Every entry is stepped from
/// once, so a forged deep chain costs linear time, not quadratic.
fn chain_ends(len: usize, parent_of: impl Fn(usize) -> Option<usize>) -> Vec<ChainEnd> {
    // Entries on the chain being walked hold `Cycles` until its end is
    // found, so meeting one of them again closes a cycle.
    let mut ends = vec![None; len];
    let mut path = Vec::new();
    for start in 0..len {
        let mut cur = start;
        let end = loop {
            if let Some(end) = ends[cur] {
                break end;
            }
            ends[cur] = Some(ChainEnd::Cycles);
            path.push(cur);
            match parent_of(cur) {
                None => break ChainEnd::Root(cur),
                Some(p) if p >= len => break ChainEnd::Dangles,
                Some(p) => cur = p,
            }
        };
        for i in path.drain(..) {
            ends[i] = Some(end);
        }
    }
    ends.into_iter().flatten().collect()
}

fn metric_rules(md: &Metadata, found: &mut Found) -> Result<(), ModelError> {
    let metrics = md.metrics();
    let n = metrics.len();
    for (i, m) in metrics.iter().enumerate() {
        if let Some(parent) = m.parent.filter(|p| p.index() >= n) {
            found(ModelError::DanglingMetricParent {
                metric: MetricId::from_index(i),
                parent,
            })?;
        }
    }
    let ends = chain_ends(n, |i| metrics[i].parent.map(MetricId::index));
    for (i, end) in ends.iter().enumerate() {
        // A dangling chain is E001's, not a cycle.
        if *end == ChainEnd::Cycles {
            found(ModelError::MetricCycle {
                metric: MetricId::from_index(i),
            })?;
        }
    }
    for (i, (m, end)) in metrics.iter().zip(ends).enumerate() {
        if let ChainEnd::Root(root) = end {
            let root_unit = metrics[root].unit;
            if m.unit != root_unit {
                found(ModelError::MixedUnitsInMetricTree {
                    metric: MetricId::from_index(i),
                    unit: m.unit,
                    root_unit,
                })?;
            }
        }
    }
    Ok(())
}

fn program_rules(md: &Metadata, found: &mut Found) -> Result<(), ModelError> {
    let (modules, regions) = (md.modules(), md.regions());
    let (sites, cnodes) = (md.call_sites(), md.call_nodes());
    for (i, r) in regions.iter().enumerate() {
        let region = RegionId::from_index(i);
        if r.module.index() >= modules.len() {
            found(ModelError::DanglingRegionModule {
                region,
                module: r.module,
            })?;
        }
        if r.begin_line > r.end_line {
            found(ModelError::InvertedRegionLines { region })?;
        }
    }
    for (i, cs) in sites.iter().enumerate() {
        if cs.callee.index() >= regions.len() {
            found(ModelError::DanglingCallSiteCallee {
                call_site: CallSiteId::from_index(i),
                callee: cs.callee,
            })?;
        }
    }
    let n = cnodes.len();
    for (i, cn) in cnodes.iter().enumerate() {
        let call_node = CallNodeId::from_index(i);
        if cn.call_site.index() >= sites.len() {
            found(ModelError::DanglingCallNodeSite {
                call_node,
                call_site: cn.call_site,
            })?;
        }
        if let Some(parent) = cn.parent.filter(|p| p.index() >= n) {
            found(ModelError::DanglingCallNodeParent { call_node, parent })?;
        }
    }
    let ends = chain_ends(n, |i| cnodes[i].parent.map(CallNodeId::index));
    for (i, end) in ends.into_iter().enumerate() {
        if end == ChainEnd::Cycles {
            found(ModelError::CallNodeCycle {
                call_node: CallNodeId::from_index(i),
            })?;
        }
    }
    Ok(())
}

fn system_rules(md: &Metadata, found: &mut Found) -> Result<(), ModelError> {
    let (machines, nodes) = (md.machines(), md.nodes());
    let (processes, threads) = (md.processes(), md.threads());
    for (i, n) in nodes.iter().enumerate() {
        if n.machine.index() >= machines.len() {
            found(ModelError::DanglingNodeMachine {
                node: NodeId::from_index(i),
                machine: n.machine,
            })?;
        }
    }
    let mut ranks = HashSet::with_capacity(processes.len());
    for (i, p) in processes.iter().enumerate() {
        let process = ProcessId::from_index(i);
        if p.node.index() >= nodes.len() {
            found(ModelError::DanglingProcessNode {
                process,
                node: p.node,
            })?;
        }
        if !ranks.insert(p.rank) {
            found(ModelError::DuplicateRank {
                process,
                rank: p.rank,
            })?;
        }
    }
    let mut numbers = HashSet::with_capacity(threads.len());
    for (i, t) in threads.iter().enumerate() {
        let thread = ThreadId::from_index(i);
        if t.process.index() >= processes.len() {
            found(ModelError::DanglingThreadProcess {
                thread,
                process: t.process,
            })?;
        } else if !numbers.insert((t.process, t.number)) {
            found(ModelError::DuplicateThreadNumber {
                thread,
                process: t.process,
                number: t.number,
            })?;
        }
    }
    if threads.is_empty() {
        found(ModelError::NoThreads)?;
    }
    Ok(())
}

/// The severity tuple at flat index `i` of a store with `nc` call nodes
/// and `nt` threads.
fn tuple_at(i: usize, nc: usize, nt: usize) -> (MetricId, CallNodeId, ThreadId) {
    (
        MetricId::from_index(i / (nt * nc)),
        CallNodeId::from_index((i / nt) % nc),
        ThreadId::from_index(i % nt),
    )
}

/// `E016`: every NaN among `values`, a store of `shape`, in store order.
fn nan_rule(
    values: &[f64],
    shape: (usize, usize, usize),
    found: &mut Found,
) -> Result<(), ModelError> {
    let (_, nc, nt) = shape;
    let mut at = 0;
    while let Some(j) = values[at..].iter().position(|v| v.is_nan()) {
        let (metric, call_node, thread) = tuple_at(at + j, nc, nt);
        found(ModelError::NanSeverity {
            metric,
            call_node,
            thread,
        })?;
        at += j + 1;
    }
    Ok(())
}

fn metric_warnings(md: &Metadata, c: &mut Collector) {
    // W001: sibling metrics sharing (name, unit) can never both survive
    // metadata integration — the merge would silently fold them.
    let mut seen: HashMap<(Option<u32>, &str, crate::metric::Unit), usize> = HashMap::new();
    for (i, m) in md.metrics().iter().enumerate() {
        let key = (m.parent.map(|p| p.raw()), m.name.as_str(), m.unit);
        match seen.get(&key) {
            Some(&first) => c.warn(
                RuleCode::DuplicateSiblingMetric,
                Location::Metric(MetricId::from_index(i)),
                || {
                    format!(
                        "metric '{}' duplicates sibling {:?} (same name and unit)",
                        m.name,
                        MetricId::from_index(first)
                    )
                },
            ),
            None => {
                seen.insert(key, i);
            }
        }
    }
}

/// Which of `len` table entries `refs` point at. A dangling reference
/// is an error rule's finding and marks nothing.
fn referenced(len: usize, refs: impl Iterator<Item = usize>) -> Vec<bool> {
    let mut used = vec![false; len];
    for r in refs {
        if let Some(u) = used.get_mut(r) {
            *u = true;
        }
    }
    used
}

fn program_warnings(md: &Metadata, c: &mut Collector) {
    let (modules, regions) = (md.modules(), md.regions());
    let (csites, cnodes) = (md.call_sites(), md.call_nodes());
    let module_used = referenced(modules.len(), regions.iter().map(|r| r.module.index()));
    for (i, m) in modules.iter().enumerate() {
        if !module_used[i] {
            c.warn(
                RuleCode::EmptyModule,
                Location::Module(ModuleId::from_index(i)),
                || format!("module '{}' contains no region", m.name),
            );
        }
    }
    let region_used = referenced(regions.len(), csites.iter().map(|s| s.callee.index()));
    for (i, r) in regions.iter().enumerate() {
        if !region_used[i] {
            c.warn(
                RuleCode::UnreferencedRegion,
                Location::Region(RegionId::from_index(i)),
                || format!("region '{}' is not the callee of any call site", r.name),
            );
        }
    }
    let csite_used = referenced(csites.len(), cnodes.iter().map(|n| n.call_site.index()));
    for (i, cs) in csites.iter().enumerate() {
        if !csite_used[i] {
            c.warn(
                RuleCode::UnreferencedCallSite,
                Location::CallSite(CallSiteId::from_index(i)),
                || {
                    format!(
                        "call site at {}:{} is not used by any call-tree node",
                        cs.file, cs.line
                    )
                },
            );
        }
    }
}

fn system_warnings(md: &Metadata, c: &mut Collector) {
    let (machines, nodes) = (md.machines(), md.nodes());
    let (processes, threads) = (md.processes(), md.threads());
    // W006: per-process thread numbers must be 0..k.
    for (i, p) in processes.iter().enumerate() {
        let id = ProcessId::from_index(i);
        let mut numbers: Vec<u32> = md
            .threads_of_process(id)
            .iter()
            .map(|&t| threads[t.index()].number)
            .collect();
        numbers.sort_unstable();
        numbers.dedup();
        if !numbers.is_empty() && numbers != (0..numbers.len() as u32).collect::<Vec<_>>() {
            c.warn(RuleCode::ThreadNumberGap, Location::Process(id), || {
                format!(
                    "thread numbers of process '{}' are {:?}, expected 0..{}",
                    p.name,
                    numbers,
                    numbers.len()
                )
            });
        }
    }
    // W007: ranks must be 0..n.
    let mut ranks: Vec<i32> = processes.iter().map(|p| p.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    if !ranks.is_empty() && ranks != (0..ranks.len() as i32).collect::<Vec<_>>() {
        c.warn(RuleCode::RankGap, Location::Experiment, || {
            format!("process ranks are {ranks:?}, expected 0..{}", ranks.len())
        });
    }
    // W008: empty branches.
    for (i, m) in machines.iter().enumerate() {
        let id = MachineId::from_index(i);
        if md.nodes_of_machine(id).is_empty() {
            c.warn(RuleCode::EmptySystemBranch, Location::Machine(id), || {
                format!("machine '{}' has no nodes", m.name)
            });
        }
    }
    for (i, n) in nodes.iter().enumerate() {
        let id = NodeId::from_index(i);
        if md.processes_of_node(id).is_empty() {
            c.warn(RuleCode::EmptySystemBranch, Location::Node(id), || {
                format!("node '{}' has no processes", n.name)
            });
        }
    }
    for (i, p) in processes.iter().enumerate() {
        let id = ProcessId::from_index(i);
        if md.threads_of_process(id).is_empty() {
            c.warn(RuleCode::EmptySystemBranch, Location::Process(id), || {
                format!("process '{}' has no threads", p.name)
            });
        }
    }
}

fn topology_warnings(md: &Metadata, c: &mut Collector) {
    for (i, t) in md.topologies().iter().enumerate() {
        if t.coords.is_empty() && !md.processes().is_empty() {
            c.warn(RuleCode::EmptyTopology, Location::Topology(i), || {
                format!(
                    "topology '{}' declares a grid but places no process",
                    t.name
                )
            });
        }
    }
}

fn value_warnings(sev: &Severity, prov: &Provenance, c: &mut Collector) {
    let (_, nc, nt) = sev.shape();
    let tuple = |i: usize| {
        let (metric, call_node, thread) = tuple_at(i, nc, nt);
        Location::Tuple {
            metric,
            call_node,
            thread,
        }
    };
    // Only unmodified measurements promise non-negative severities;
    // derived experiments (differences) and recovered ones (whose
    // source may have been derived) are exempt.
    let original = prov.is_original();
    for (i, &v) in sev.values().iter().enumerate() {
        if v.is_infinite() {
            c.warn(RuleCode::InfiniteSeverity, tuple(i), || {
                format!("severity value is {v}")
            });
        } else if original && v < 0.0 {
            c.warn(RuleCode::NegativeOriginalSeverity, tuple(i), || {
                format!(
                    "severity value {v} is negative although the experiment is original \
                     (provenance '{prov}')"
                )
            });
        }
    }
}

/// The rule code corresponding to a [`ModelError`].
pub fn code_of_model_error(e: &ModelError) -> RuleCode {
    match e {
        ModelError::DanglingMetricParent { .. } => RuleCode::DanglingMetricParent,
        ModelError::MixedUnitsInMetricTree { .. } => RuleCode::MixedUnitsInMetricTree,
        ModelError::MetricCycle { .. } => RuleCode::MetricCycle,
        ModelError::DanglingRegionModule { .. } => RuleCode::DanglingRegionModule,
        ModelError::InvertedRegionLines { .. } => RuleCode::InvertedRegionLines,
        ModelError::DanglingCallSiteCallee { .. } => RuleCode::DanglingCallSiteCallee,
        ModelError::DanglingCallNodeSite { .. } => RuleCode::DanglingCallNodeSite,
        ModelError::DanglingCallNodeParent { .. } => RuleCode::DanglingCallNodeParent,
        ModelError::CallNodeCycle { .. } => RuleCode::CallNodeCycle,
        ModelError::DanglingNodeMachine { .. } => RuleCode::DanglingNodeMachine,
        ModelError::DanglingProcessNode { .. } => RuleCode::DanglingProcessNode,
        ModelError::DanglingThreadProcess { .. } => RuleCode::DanglingThreadProcess,
        ModelError::DuplicateRank { .. } => RuleCode::DuplicateRank,
        ModelError::DuplicateThreadNumber { .. } => RuleCode::DuplicateThreadNumber,
        ModelError::SeverityShapeMismatch { .. } | ModelError::SeverityLengthMismatch { .. } => {
            RuleCode::SeverityShapeMismatch
        }
        ModelError::NanSeverity { .. } => RuleCode::SeverityNan,
        ModelError::NoThreads => RuleCode::NoThreads,
        ModelError::BadTopology { .. } => RuleCode::BadTopology,
    }
}

/// Converts a [`ModelError`] into its diagnostic, located at the entity
/// the error names first. Lint builds every `E0xx` diagnostic this way.
pub fn diagnostic_of_model_error(e: &ModelError) -> Diagnostic {
    let location = match e {
        ModelError::DanglingMetricParent { metric, .. }
        | ModelError::MixedUnitsInMetricTree { metric, .. }
        | ModelError::MetricCycle { metric } => Location::Metric(*metric),
        ModelError::DanglingRegionModule { region, .. }
        | ModelError::InvertedRegionLines { region } => Location::Region(*region),
        ModelError::DanglingCallSiteCallee { call_site, .. } => Location::CallSite(*call_site),
        ModelError::DanglingCallNodeSite { call_node, .. }
        | ModelError::DanglingCallNodeParent { call_node, .. }
        | ModelError::CallNodeCycle { call_node } => Location::CallNode(*call_node),
        ModelError::DanglingNodeMachine { node, .. } => Location::Node(*node),
        ModelError::DanglingProcessNode { process, .. }
        | ModelError::DuplicateRank { process, .. } => Location::Process(*process),
        ModelError::DanglingThreadProcess { thread, .. }
        | ModelError::DuplicateThreadNumber { thread, .. } => Location::Thread(*thread),
        ModelError::NanSeverity {
            metric,
            call_node,
            thread,
        } => Location::Tuple {
            metric: *metric,
            call_node: *call_node,
            thread: *thread,
        },
        ModelError::BadTopology { index, .. } => Location::Topology(*index),
        ModelError::SeverityShapeMismatch { .. }
        | ModelError::SeverityLengthMismatch { .. }
        | ModelError::NoThreads => Location::Experiment,
    };
    Diagnostic::new(code_of_model_error(e), location, e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ExperimentBuilder;
    use crate::metric::{Metric, Unit};
    use crate::program::{CallNode, CallSite, Module, Region, RegionKind};
    use crate::system::{Machine, Process, SystemNode, Thread};
    use crate::topology::CartTopology;

    fn build_clean() -> Experiment {
        let mut b = ExperimentBuilder::new("clean");
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a.c", "/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let cs = b.def_call_site("a.c", 1, main_r);
        let root = b.def_call_node(cs, None);
        let mach = b.def_machine("mach");
        let node = b.def_node("n0", mach);
        let p = b.def_process("p0", 0, node);
        let t = b.def_thread("t0", 0, p);
        b.set_severity(time, root, t, 2.5);
        b.build().unwrap()
    }

    /// Metadata like `build_clean`'s but assembled raw, for mutation.
    fn clean_metadata() -> Metadata {
        build_clean().metadata().clone()
    }

    #[test]
    fn clean_experiment_is_clean() {
        let r = lint(&build_clean());
        assert!(r.is_clean(), "unexpected diagnostics: {r}");
        assert_eq!(r.summary(), "0 errors, 0 warnings");
    }

    #[test]
    fn lint_errors_iff_validate_rejects() {
        // The E0xx rule set and Experiment::validate must agree.
        let cases: Vec<Experiment> = vec![
            build_clean(),
            {
                let mut e = build_clean();
                e.severity_mut().values_mut()[0] = f64::NAN;
                e
            },
            Experiment::new_unchecked(
                clean_metadata(),
                Severity::zeros(2, 1, 1),
                Provenance::default(),
            ),
            Experiment::new_unchecked(
                Metadata::new(),
                Severity::zeros(0, 0, 0),
                Provenance::default(),
            ),
        ];
        for e in &cases {
            assert_eq!(
                e.validate().is_ok(),
                !lint(e).has_errors(),
                "validate/lint disagree: {:?} vs {}",
                e.validate(),
                lint(e)
            );
        }
    }

    #[test]
    fn validate_error_code_appears_in_lint() {
        let mut e = build_clean();
        e.severity_mut().values_mut()[0] = f64::NAN;
        let err = e.validate().unwrap_err();
        let report = lint(&e);
        assert!(report.codes().contains(&code_of_model_error(&err)));
        let d = diagnostic_of_model_error(&err);
        assert_eq!(d.code, RuleCode::SeverityNan);
        assert!(matches!(d.location, Location::Tuple { .. }));
    }

    // ---- codes unreachable from files still fire on raw metadata ----

    #[test]
    fn dangling_metric_parent_and_unit_mix() {
        let mut md = clean_metadata();
        md.add_metric(Metric::child("x", Unit::Seconds, "", MetricId::new(99)));
        md.add_metric(Metric::child("b", Unit::Bytes, "", MetricId::new(0)));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let codes = r.codes();
        assert!(codes.contains(&RuleCode::DanglingMetricParent), "{r}");
        assert!(codes.contains(&RuleCode::MixedUnitsInMetricTree), "{r}");
        // The dangling chain must not also be reported as a cycle.
        assert!(!codes.contains(&RuleCode::MetricCycle), "{r}");
    }

    #[test]
    fn lint_reports_all_violations_not_just_first() {
        let mut md = clean_metadata();
        md.add_metric(Metric::child("x", Unit::Seconds, "", MetricId::new(99)));
        md.add_region(Region {
            name: "inv".into(),
            module: ModuleId::new(0),
            kind: RegionKind::Function,
            begin_line: 9,
            end_line: 1,
        });
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        assert!(r.num_errors() >= 2, "{r}");
    }

    #[test]
    fn call_tree_rules_fire() {
        let mut md = clean_metadata();
        md.add_call_node(CallNode {
            call_site: CallSiteId::new(42),
            parent: Some(CallNodeId::new(42)),
        });
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let codes = r.codes();
        assert!(codes.contains(&RuleCode::DanglingCallNodeSite), "{r}");
        assert!(codes.contains(&RuleCode::DanglingCallNodeParent), "{r}");
        assert!(!codes.contains(&RuleCode::CallNodeCycle), "{r}");
    }

    #[test]
    fn chain_ends_steps_from_each_entry_once() {
        use ChainEnd::{Cycles, Dangles, Root};
        // 2 → 1 → 0 reaches a root; 5 runs into the cycle 3 ⇄ 4; 7 runs
        // into 6, whose parent does not exist.
        let parents = [
            None,
            Some(0),
            Some(1),
            Some(4),
            Some(3),
            Some(3),
            Some(99),
            Some(6),
        ];
        let steps = std::cell::Cell::new(0);
        let ends = chain_ends(parents.len(), |i| {
            steps.set(steps.get() + 1);
            parents[i]
        });
        let want = [
            Root(0),
            Root(0),
            Root(0),
            Cycles,
            Cycles,
            Cycles,
            Dangles,
            Dangles,
        ];
        assert_eq!(ends, want);
        assert_eq!(steps.get(), parents.len());

        // A chain as deep as its table, walked from its deepest entry
        // first: a walk per entry would take n²/2 steps.
        let n = 100_000;
        steps.set(0);
        let ends = chain_ends(n, |i| {
            steps.set(steps.get() + 1);
            (i + 1 < n).then_some(i + 1)
        });
        assert_eq!(steps.get(), n);
        assert!(ends.iter().all(|&e| e == Root(n - 1)));
    }

    #[test]
    fn system_dangling_rules_fire() {
        let mut md = Metadata::new();
        md.add_metric(Metric::root("time", Unit::Seconds, ""));
        let m = md.add_module(Module::new("a", "a"));
        let r0 = md.add_region(Region {
            name: "main".into(),
            module: m,
            kind: RegionKind::Function,
            begin_line: 1,
            end_line: 2,
        });
        let cs = md.add_call_site(CallSite {
            file: "a".into(),
            line: 1,
            callee: r0,
        });
        md.add_call_node(CallNode {
            call_site: cs,
            parent: None,
        });
        md.add_node(SystemNode::new("n", MachineId::new(7)));
        md.add_process(Process::new("p", 0, NodeId::new(9)));
        md.add_thread(Thread::new("t", 0, ProcessId::new(5)));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let codes = r.codes();
        assert!(codes.contains(&RuleCode::DanglingNodeMachine), "{r}");
        assert!(codes.contains(&RuleCode::DanglingProcessNode), "{r}");
        assert!(codes.contains(&RuleCode::DanglingThreadProcess), "{r}");
    }

    #[test]
    fn duplicate_rank_and_thread_number() {
        let mut md = clean_metadata();
        let p = md.add_process(Process::new("dup", 0, NodeId::new(0)));
        md.add_thread(Thread::new("t", 0, p));
        let later = md.add_thread(Thread::new("t'", 0, p));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let at = |code| {
            r.diagnostics()
                .iter()
                .find(|d| d.code == code)
                .map(|d| d.location.clone())
        };
        // Each duplicate is located at the later of its two entities.
        assert_eq!(
            at(RuleCode::DuplicateRank),
            Some(Location::Process(p)),
            "{r}"
        );
        assert_eq!(
            at(RuleCode::DuplicateThreadNumber),
            Some(Location::Thread(later)),
            "{r}"
        );
        // validate returns the violation lint lists first.
        let first = md.validate().unwrap_err();
        assert_eq!(diagnostic_of_model_error(&first), r.diagnostics()[0]);
    }

    #[test]
    fn warning_rules_fire() {
        let mut md = clean_metadata();
        // Unreferenced region + empty module.
        md.add_module(Module::new("empty.c", "/empty.c"));
        md.add_region(Region {
            name: "orphan".into(),
            module: ModuleId::new(0),
            kind: RegionKind::Function,
            begin_line: 1,
            end_line: 2,
        });
        // Unreferenced call site.
        md.add_call_site(CallSite {
            file: "a.c".into(),
            line: 5,
            callee: RegionId::new(0),
        });
        // Thread-number gap and rank gap.
        let p = md.add_process(Process::new("p9", 9, NodeId::new(0)));
        md.add_thread(Thread::new("t3", 3, p));
        // Empty topology.
        md.add_topology(CartTopology::new("empty", vec![2], vec![false]));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let codes = r.codes();
        assert!(!r.has_errors(), "{r}");
        for want in [
            RuleCode::UnreferencedRegion,
            RuleCode::EmptyModule,
            RuleCode::UnreferencedCallSite,
            RuleCode::ThreadNumberGap,
            RuleCode::RankGap,
            RuleCode::EmptyTopology,
        ] {
            assert!(codes.contains(&want), "missing {want}: {r}");
        }
    }

    #[test]
    fn empty_system_branch_fires_per_level() {
        let mut md = clean_metadata();
        md.add_machine(Machine::new("bare"));
        let mach0 = MachineId::new(0);
        md.add_node(SystemNode::new("empty-node", mach0));
        md.add_process(Process::new("no-threads", 1, NodeId::new(0)));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let branch: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == RuleCode::EmptySystemBranch)
            .collect();
        assert_eq!(branch.len(), 3, "{r}");
    }

    #[test]
    fn duplicate_sibling_metric_warns_but_distinct_trees_ok() {
        let mut md = clean_metadata();
        md.add_metric(Metric::root("time", Unit::Seconds, "dup"));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        assert!(r.codes().contains(&RuleCode::DuplicateSiblingMetric), "{r}");

        // Same name but different unit (what a merge legitimately
        // produces) must stay clean.
        let mut md = clean_metadata();
        md.add_metric(Metric::root("time", Unit::Bytes, ""));
        // Reference nothing new; shape grows by one metric.
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        assert!(
            !r.codes().contains(&RuleCode::DuplicateSiblingMetric),
            "{r}"
        );
    }

    #[test]
    fn severity_value_rules() {
        let mut e = build_clean();
        e.severity_mut().values_mut()[0] = f64::INFINITY;
        let r = lint(&e);
        assert_eq!(r.codes(), vec![RuleCode::InfiniteSeverity]);

        let mut e = build_clean();
        e.severity_mut().values_mut()[0] = -1.0;
        let r = lint(&e);
        assert_eq!(r.codes(), vec![RuleCode::NegativeOriginalSeverity]);

        // Negative severities are fine for derived experiments.
        let mut e = build_clean();
        e.severity_mut().values_mut()[0] = -1.0;
        e.set_provenance(Provenance::derived(
            "difference",
            vec!["a".into(), "b".into()],
        ));
        assert!(lint(&e).is_clean());
    }

    #[test]
    fn shape_mismatch_skips_value_rules() {
        let e = Experiment::new_unchecked(
            clean_metadata(),
            Severity::from_values(1, 1, 2, vec![f64::NAN, -1.0]),
            Provenance::default(),
        );
        let r = lint(&e);
        assert_eq!(r.codes(), vec![RuleCode::SeverityShapeMismatch]);
    }

    #[test]
    fn per_rule_cap_truncates_with_summary() {
        let mut e = build_clean();
        let mut md = e.metadata().clone();
        md.add_metric(Metric::root("t2", Unit::Seconds, ""));
        for i in 0..20 {
            md.add_metric(Metric::child(
                format!("m{i}"),
                Unit::Seconds,
                "",
                MetricId::new(1),
            ));
        }
        let (nm, nc, nt) = md.shape();
        let mut values = vec![f64::NAN; nm * nc * nt];
        values[0] = 1.0;
        e = Experiment::new_unchecked(
            md,
            Severity::from_values(nm, nc, nt, values),
            Provenance::default(),
        );
        let r = lint(&e);
        let nans = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == RuleCode::SeverityNan)
            .count();
        // MAX_PER_RULE tuple diagnostics plus one summary.
        assert_eq!(nans, MAX_PER_RULE + 1, "{r}");
        assert!(r
            .diagnostics()
            .iter()
            .any(|d| d.message.contains("suppressed")));
    }

    #[test]
    fn negative_flood_keeps_the_cap_and_counts_the_rest() {
        let mut md = clean_metadata();
        for i in 1..50 {
            md.add_metric(Metric::child(
                format!("m{i}"),
                Unit::Seconds,
                "",
                MetricId::new(0),
            ));
        }
        let (nm, nc, nt) = md.shape();
        let sev = Severity::from_values(nm, nc, nt, vec![-1.0; nm * nc * nt]);
        let r = lint_parts(&md, &sev, &Provenance::original("flood"));
        assert_eq!(r.codes(), vec![RuleCode::NegativeOriginalSeverity], "{r}");
        assert_eq!(r.diagnostics().len(), MAX_PER_RULE + 1, "{r}");
        let last = r.diagnostics().last().unwrap();
        assert_eq!(last.location, Location::Experiment);
        assert_eq!(
            last.message,
            format!("{} further W005 diagnostics suppressed", 50 - MAX_PER_RULE)
        );
        assert_eq!(
            r.summary(),
            format!("0 errors, {} warnings", MAX_PER_RULE + 1)
        );
    }

    #[test]
    fn validate_returns_the_first_error_in_rule_order() {
        let mut md = Metadata::new();
        md.add_topology(CartTopology::new("bad", vec![0], vec![false]));
        // The thread level (step 3) comes before topologies (step 4) ...
        assert!(matches!(md.validate(), Err(ModelError::NoThreads)));
        // ... and metrics (step 1) before both.
        md.add_metric(Metric::child("x", Unit::Seconds, "", MetricId::new(9)));
        assert!(matches!(
            md.validate(),
            Err(ModelError::DanglingMetricParent { .. })
        ));
        // The metadata rules come before the shape rule.
        let e = Experiment::new_unchecked(md, Severity::zeros(0, 0, 0), Provenance::default());
        assert!(matches!(
            e.validate(),
            Err(ModelError::DanglingMetricParent { .. })
        ));
    }

    #[test]
    fn validate_values_reports_the_first_nan() {
        assert_eq!(validate_values(&[], (0, 0, 0)), Ok(()));
        let mut values = vec![0.0; 2 * 3 * 4];
        assert_eq!(validate_values(&values, (2, 3, 4)), Ok(()));
        // A lone NaN at the last index: every coordinate of the tuple.
        values[23] = f64::NAN;
        assert_eq!(
            validate_values(&values, (2, 3, 4)),
            Err(ModelError::NanSeverity {
                metric: MetricId::new(1),
                call_node: CallNodeId::new(2),
                thread: ThreadId::new(3),
            })
        );
        // Of two NaNs, the first in store order.
        values[5] = f64::NAN;
        assert_eq!(
            validate_values(&values, (2, 3, 4)),
            Err(ModelError::NanSeverity {
                metric: MetricId::new(0),
                call_node: CallNodeId::new(1),
                thread: ThreadId::new(1),
            })
        );
        // A NaN at index 0 is reported, before a later one.
        let mut values = vec![0.0; 2 * 2 * 2];
        values[0] = f64::NAN;
        values[7] = f64::NAN;
        assert_eq!(
            validate_values(&values, (2, 2, 2)),
            Err(ModelError::NanSeverity {
                metric: MetricId::new(0),
                call_node: CallNodeId::new(0),
                thread: ThreadId::new(0),
            })
        );
    }

    #[test]
    fn bad_topology_reported_with_index() {
        let mut md = clean_metadata();
        md.add_topology(CartTopology::new("bad", vec![0], vec![false]));
        let sev = Severity::zeros(md.shape().0, md.shape().1, md.shape().2);
        let r = lint_parts(&md, &sev, &Provenance::default());
        let d = r
            .diagnostics()
            .iter()
            .find(|d| d.code == RuleCode::BadTopology)
            .unwrap();
        assert_eq!(d.location, Location::Topology(0));
    }

    #[test]
    fn code_table_is_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (i, code) in RuleCode::ALL.into_iter().enumerate() {
            // `as_str` and `description` index the table by variant.
            assert_eq!(code as usize, i);
            assert!(seen.insert(code.as_str()), "duplicate code {code}");
            assert_eq!(RuleCode::from_str_opt(code.as_str()), Some(code));
            let is_error = code.as_str().starts_with('E');
            assert_eq!(code.level() == Level::Error, is_error);
            assert!(!code.description().is_empty());
        }
        assert_eq!(RuleCode::from_str_opt("E999"), None);
    }

    #[test]
    fn report_display_and_ordering() {
        let report = Report::from_diagnostics(vec![
            Diagnostic::new(
                RuleCode::UnreferencedRegion,
                Location::Region(RegionId::new(0)),
                "w",
            ),
            Diagnostic::new(RuleCode::NoThreads, Location::Experiment, "e"),
        ]);
        // Errors sort before warnings.
        assert_eq!(report.diagnostics()[0].code, RuleCode::NoThreads);
        let text = report.to_string();
        assert!(text.contains("error[E017]: experiment: e"), "{text}");
        assert!(text.contains("warning[W002]: region reg0: w"), "{text}");
        assert!(text.ends_with("1 error, 1 warning"), "{text}");
    }

    #[test]
    fn every_model_error_maps_to_a_code() {
        use ModelError as M;
        let samples: Vec<ModelError> = vec![
            M::DanglingMetricParent {
                metric: MetricId::new(0),
                parent: MetricId::new(1),
            },
            M::MixedUnitsInMetricTree {
                metric: MetricId::new(0),
                unit: Unit::Bytes,
                root_unit: Unit::Seconds,
            },
            M::MetricCycle {
                metric: MetricId::new(0),
            },
            M::DanglingRegionModule {
                region: RegionId::new(0),
                module: ModuleId::new(1),
            },
            M::InvertedRegionLines {
                region: RegionId::new(0),
            },
            M::DanglingCallSiteCallee {
                call_site: CallSiteId::new(0),
                callee: RegionId::new(1),
            },
            M::DanglingCallNodeSite {
                call_node: CallNodeId::new(0),
                call_site: CallSiteId::new(1),
            },
            M::DanglingCallNodeParent {
                call_node: CallNodeId::new(0),
                parent: CallNodeId::new(1),
            },
            M::CallNodeCycle {
                call_node: CallNodeId::new(0),
            },
            M::DanglingNodeMachine {
                node: NodeId::new(0),
                machine: MachineId::new(1),
            },
            M::DanglingProcessNode {
                process: ProcessId::new(0),
                node: NodeId::new(1),
            },
            M::DanglingThreadProcess {
                thread: ThreadId::new(0),
                process: ProcessId::new(1),
            },
            M::DuplicateRank {
                process: ProcessId::new(1),
                rank: 0,
            },
            M::DuplicateThreadNumber {
                thread: ThreadId::new(1),
                process: ProcessId::new(0),
                number: 0,
            },
            M::SeverityShapeMismatch {
                expected: (1, 1, 1),
                actual: (1, 1, 2),
            },
            M::SeverityLengthMismatch {
                shape: (1, 1, 1),
                expected_len: 1,
                actual_len: 2,
            },
            M::NanSeverity {
                metric: MetricId::new(0),
                call_node: CallNodeId::new(0),
                thread: ThreadId::new(0),
            },
            M::NoThreads,
            M::BadTopology {
                index: 0,
                topology: "t".into(),
                reason: "r".into(),
            },
        ];
        for e in &samples {
            let d = diagnostic_of_model_error(e);
            assert_eq!(d.code.level(), Level::Error);
            assert_eq!(d.message, e.to_string());
        }
    }
}
