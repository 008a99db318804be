//! # cube-cli — the `cube` command-line tool
//!
//! Applies the CUBE algebra to `.cube` files from the shell, mirroring
//! the utilities that grew around the original library:
//!
//! ```text
//! cube diff  OLD.cube NEW.cube -o DIFF.cube    # difference operator
//! cube merge A.cube B.cube …   -o OUT.cube     # merge operator
//! cube mean  R1.cube R2.cube … -o OUT.cube     # mean operator
//! cube min|max|sum …           -o OUT.cube     # series reductions
//! cube scale A.cube 0.5        -o OUT.cube     # scalar multiple
//! cube cut   A.cube --prune REGION -o OUT.cube # call-tree surgery
//! cube cut   A.cube --reroot REGION -o OUT.cube
//! cube stddev R1.cube R2.cube … -o OUT.cube    # series variability
//! cube stats OUT.cube R1.cube R2.cube …        # batch reduction
//!            [--op mean|sum|min|max|variance|stddev|merge] [--minus K]
//! cube info  A.cube                            # summary
//! cube stat  A.cube                            # per-metric totals
//! cube calltree A.cube [--metric M]            # call tree with values
//! cube hotspots A.cube [--metric M] [--top K]  # top-k severity tuples
//! cube cmp   A.cube B.cube [--tol 1e-9]        # compare (exit code)
//! cube lint  A.cube [B.cube …] [--format json] # static diagnostics
//!            [--deny warnings]                  #   (exit 1 on findings)
//! cube check EXPR A.cubec [B.cubec …]          # static expression analysis
//!            [--format json] [--deny warnings]  #   (metadata only; docs/CHECK.md)
//! cube repair IN.cube OUT.cube                 # salvage a damaged file
//!            # exit 0 = full recovery, 1 = partial, 2 = unrecoverable
//! cube pack   IN.cube OUT.cubec                # re-encode as columnar store
//! cube unpack IN.cubec OUT.cube                # re-encode as CUBE XML
//! cube browse A.cube                           # interactive browser
//! cube view  A.cube [--metric M] [--call R] [--percent]
//!            [--normalize REF.cube] [--expand-all] [--flat] [--ansi]
//!            [--topology N]                     # append a heat view
//! ```
//!
//! Because the algebra is closed, outputs of any subcommand are valid
//! inputs of any other — composite operations are shell pipelines over
//! files.
//!
//! Every subcommand accepts the `.cubec` columnar store (see
//! `docs/STORE.md`) wherever it takes a `.cube` path, for inputs and
//! outputs alike; the format is chosen by file extension.
//!
//! The operator subcommands (`diff`, `merge`, `mean`, `sum`, `min`,
//! `max`, `stddev`, `scale`, `stats`) are the [`Expr`]s they evaluate
//! and share one path: every input is read on the worker pool by the
//! strict readers (whole-file checksum and data model checked, as for
//! every other subcommand), then one plan evaluates the expression and
//! the result is stored. All of them take the integration switches
//! (`--strict-csite`, `--collapse`, `--copy-first`) and `--keep-going`:
//! unreadable inputs are skipped with a per-input summary and the
//! expression is restricted to the survivors by the rule
//! `/eval?keep_going=1` applies ([`Expr::restrict`]) — `mean`
//! renormalizes and `merge` keeps its surviving providers, while a
//! skipped `diff` side or `scale` input is still an error.
//!
//! The global `--threads N` flag (valid anywhere on the command line,
//! also settable via the `CUBE_THREADS` environment variable) sizes the
//! worker pool used for operand loading and kernel evaluation. Outputs
//! are byte-identical for every thread count.

pub mod browse;

use std::fmt::Write as _;

use cube_algebra::{BatchPlan, CallSiteEq, Expr, MergeOptions, Reduction, SystemMergeMode};
use cube_display::{BrowserState, NormalizationRef, ProgramView, RenderOptions, ValueMode};
use cube_model::aggregate::{metric_total, MetricSelection};
use cube_model::lint::{counts, plural};
use cube_model::{json_string, Experiment, Level};
use cube_store::{ColumnarExperiment, StoreError};
use cube_xml::{read_experiment_file, write_experiment_file, ReadLimits, XmlError};
use rayon::prelude::*;

/// Outcome of a CLI invocation: process exit code plus captured stdout.
#[derive(Debug)]
pub struct Outcome {
    /// Process exit code (0 = success; `cmp` uses 1 for "different").
    pub code: i32,
    /// What would be printed to stdout.
    pub stdout: String,
}

fn ok(stdout: String) -> Result<Outcome, String> {
    Ok(Outcome { code: 0, stdout })
}

/// Runs the tool on the given arguments (without the program name).
///
/// Returns `Err` with a message for usage errors and I/O failures; the
/// binary prints it to stderr and exits nonzero.
pub fn run(args: &[String]) -> Result<Outcome, String> {
    let args = apply_global_flags(args)?;
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "diff" | "merge" | "mean" | "sum" | "min" | "max" | "stddev" | "scale" | "stats" => {
            operator_cmd(rest, cmd)
        }
        "cut" => cut(rest),
        "info" => info(rest),
        "stat" => stat(rest),
        "calltree" => calltree(rest),
        "hotspots" => hotspots_cmd(rest),
        "cmp" => cmp(rest),
        "lint" => lint_cmd(rest),
        "check" => check_cmd(rest),
        "repair" => repair_cmd(rest),
        "fsck" => fsck_cmd(rest),
        "serve" => serve_cmd(rest),
        "pack" => pack_cmd(rest),
        "unpack" => unpack_cmd(rest),
        "view" => view(rest),
        "browse" => browse_cmd(rest),
        "help" | "--help" | "-h" => ok(usage()),
        other => Err(format!("unknown subcommand '{other}'\n\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: cube <diff|merge|mean|sum|min|max|stddev|stats|scale|cut|info|stat|calltree|hotspots|cmp|lint|check|repair|fsck|serve|pack|unpack|view|browse|help> ...\n\
     global flags: --threads N (pool size; default CUBE_THREADS or all cores)\n\
     paths ending in .cubec use the columnar store format (docs/STORE.md)\n\
     see the crate documentation for per-subcommand flags"
        .to_string()
}

/// Drains the global flags — valid anywhere on the command line, before
/// or after the subcommand — and applies them before dispatch. Returns
/// the remaining arguments.
///
/// `--threads N` retargets the worker pool and wins over the
/// `CUBE_THREADS` environment variable ([`rayon::set_threads`]).
/// Results never depend on it — the pool size changes only wall-clock
/// time (docs/KERNELS.md) — which is exactly what the CI determinism
/// and kernel gates assert.
fn apply_global_flags(args: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" {
            let v = it.next().ok_or("missing value after --threads")?;
            let n: usize = v
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--threads needs a positive integer, got '{v}'"))?;
            rayon::set_threads(n);
        } else {
            out.push(a.clone());
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// argument helpers
// ---------------------------------------------------------------------------

struct Parsed {
    positional: Vec<String>,
    flags: Vec<String>,
    valued: Vec<(String, String)>,
}

/// No upper bound on the positional arguments a subcommand takes.
const MANY: usize = usize::MAX;

/// The switches of every operator subcommand.
const OPERATOR_SWITCHES: &[&str] = &[
    "--keep-going",
    "--strict-csite",
    "--collapse",
    "--copy-first",
];

/// Parses the arguments of `cube CMD`, which takes `positional`
/// arguments, the `switches` and the `valued` flags (`-o` among them,
/// also spelled `--output`). Anything else is a usage error.
fn parse(
    cmd: &str,
    args: &[String],
    positional: std::ops::RangeInclusive<usize>,
    switches: &[&str],
    valued: &[&str],
) -> Result<Parsed, String> {
    let mut p = Parsed {
        positional: Vec::new(),
        flags: Vec::new(),
        valued: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let a = if a == "--output" { "-o" } else { a.as_str() };
        if valued.contains(&a) {
            let v = it
                .next()
                .ok_or_else(|| format!("missing value after {a}"))?;
            p.valued.push((a.to_string(), v.clone()));
        } else if switches.contains(&a) {
            p.flags.push(a.to_string());
        } else if a.starts_with("--") || a == "-o" {
            return Err(format!("unknown flag {a} for cube {cmd}"));
        } else {
            p.positional.push(a.to_string());
        }
    }
    let n = p.positional.len();
    if !positional.contains(&n) {
        let (least, most) = (*positional.start(), *positional.end());
        let bound = if most == MANY { "at least " } else { "" };
        let least = plural(least, "argument");
        return Err(format!("cube {cmd} takes {bound}{least}, got {n}"));
    }
    Ok(p)
}

impl Parsed {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.valued
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `--format human|json`: whether JSON was asked for.
    fn json_format(&self) -> Result<bool, String> {
        match self.value("--format") {
            None | Some("human") => Ok(false),
            Some("json") => Ok(true),
            Some(other) => Err(format!(
                "unknown --format '{other}' (try 'human' or 'json')"
            )),
        }
    }

    /// `--deny warnings`: whether warnings are denied too.
    fn deny_warnings(&self) -> Result<bool, String> {
        match self.value("--deny") {
            None => Ok(false),
            Some("warnings") => Ok(true),
            Some(other) => Err(format!("unknown --deny class '{other}' (try 'warnings')")),
        }
    }

    fn merge_options(&self) -> MergeOptions {
        let mut o = MergeOptions::default();
        if self.flag("--strict-csite") {
            o.call_site_eq = CallSiteEq::Strict;
        }
        if self.flag("--collapse") {
            o.system_mode = SystemMergeMode::Collapse;
        }
        if self.flag("--copy-first") {
            o.system_mode = SystemMergeMode::CopyFirst;
        }
        o
    }
}

/// True when the path names a `.cubec` columnar store (case-insensitive
/// extension check); everything else is treated as CUBE XML.
fn is_cubec(path: &str) -> bool {
    std::path::Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("cubec"))
}

/// A reader error from either backend, kept structured so the caller
/// can decide how much path context to attach.
enum AnyError {
    Xml(XmlError),
    Store(StoreError),
}

impl AnyError {
    /// The backend's own rendering, for reports that already print the
    /// operand's path next to the reason.
    fn bare(&self) -> String {
        match self {
            AnyError::Xml(e) => e.to_string(),
            AnyError::Store(e) => e.to_string(),
        }
    }

    /// Prefixes the path unless the error already carries it (the I/O
    /// variants do since the readers started reporting offending paths).
    fn with_path(&self, path: &str) -> String {
        match self {
            AnyError::Xml(e @ XmlError::Io { path: Some(_), .. }) => e.to_string(),
            AnyError::Store(e @ StoreError::Io { path: Some(_), .. }) => e.to_string(),
            _ => format!("{path}: {}", self.bare()),
        }
    }
}

fn path_error(path: &str, e: XmlError) -> String {
    AnyError::Xml(e).with_path(path)
}

fn store_path_error(path: &str, e: StoreError) -> String {
    AnyError::Store(e).with_path(path)
}

/// The strict reader for either backend: whole-file checksum and data
/// model checked, every severity value in memory.
fn read_any(path: &str) -> Result<Experiment, AnyError> {
    if is_cubec(path) {
        cube_store::read_store_file(path).map_err(AnyError::Store)
    } else {
        read_experiment_file(path).map_err(AnyError::Xml)
    }
}

fn load(path: &str) -> Result<Experiment, String> {
    read_any(path).map_err(|e| e.with_path(path))
}

fn store(exp: &Experiment, path: &str) -> Result<(), String> {
    if is_cubec(path) {
        cube_store::write_store_file(exp, path).map_err(|e| store_path_error(path, e))
    } else {
        write_experiment_file(exp, path).map_err(|e| path_error(path, e))
    }
}

/// The inputs of an operator subcommand, read by [`load_inputs`].
struct Inputs {
    /// The experiments that loaded, in argument order.
    exps: Vec<Experiment>,
    /// Per argument: whether it loaded.
    alive: Vec<bool>,
    /// The first skipped input with its path (`--keep-going` only).
    first_failure: Option<String>,
    /// The `skipped …` / `used N of M inputs` lines; empty without
    /// `--keep-going`.
    report: String,
}

impl Inputs {
    /// The error for an input the operator cannot do without.
    fn required(&self) -> String {
        format!(
            "{} (operand is structurally required; --keep-going cannot omit it)",
            self.first_failure.as_deref().unwrap_or_default()
        )
    }
}

/// Loads every input on the worker pool through the strict readers.
/// Without `--keep-going` the leftmost failure is the error, exactly as
/// a sequential loop would report it; with it, unreadable inputs are
/// skipped and reported in argument order, whatever the thread count.
fn load_inputs(paths: &[String], keep_going: bool) -> Result<Inputs, String> {
    let loaded: Vec<Result<Experiment, AnyError>> = paths
        .par_iter()
        .with_min_len(1)
        .map(|f| read_any(f))
        .collect();
    let mut inputs = Inputs {
        exps: Vec::with_capacity(paths.len()),
        alive: Vec::with_capacity(paths.len()),
        first_failure: None,
        report: String::new(),
    };
    for (f, r) in paths.iter().zip(loaded) {
        inputs.alive.push(r.is_ok());
        match r {
            Ok(e) => inputs.exps.push(e),
            Err(e) if keep_going => {
                let _ = writeln!(inputs.report, "skipped {f}: {}", e.bare());
                inputs.first_failure.get_or_insert_with(|| e.with_path(f));
            }
            Err(e) => return Err(e.with_path(f)),
        }
    }
    if keep_going {
        let _ = writeln!(
            inputs.report,
            "used {} of {} inputs",
            inputs.exps.len(),
            paths.len()
        );
    }
    Ok(inputs)
}

// ---------------------------------------------------------------------------
// operator subcommands
// ---------------------------------------------------------------------------

/// The operator subcommands, each the [`Expr`] it evaluates over its
/// inputs:
///
/// - `diff A B -o OUT` is `diff(A, B)`;
/// - `merge|mean|sum|min|max|stddev IN… -o OUT` reduces every input;
/// - `scale IN F -o OUT` is `scale(IN, F)`;
/// - `stats OUT IN… [--op R] [--minus K]` reduces every input with `R`
///   (default `mean`), or with `--minus K` evaluates the paper's
///   "difference of reduced series" `diff(R(first n−K), R(last K))` —
///   still a single integration ([`BatchPlan`]).
///
/// All of them load through [`load_inputs`], then plan, evaluate and
/// store once. Under `--keep-going` the expression is restricted to
/// the inputs that loaded ([`Expr::restrict`], the rule `/eval` applies
/// to `keep_going`): a skipped input leaves its reduction, so `mean`
/// renormalizes over the survivors, `merge` keeps the surviving
/// providers and `--minus` groups keep their argument positions, but a
/// skipped `diff` side or `scale` input is an error.
fn operator_cmd(args: &[String], cmd: &str) -> Result<Outcome, String> {
    let (positional, valued): (_, &[&str]) = match cmd {
        "stats" => (2..=MANY, &["--op", "--minus"]),
        "diff" | "scale" => (2..=2, &["-o"]),
        _ => (1..=MANY, &["-o"]),
    };
    let p = parse(cmd, args, positional, OPERATOR_SWITCHES, valued)?;
    let output = p.value("-o").ok_or("missing -o OUTPUT");
    let (out, inputs) = match cmd {
        "stats" => (p.positional[0].as_str(), &p.positional[1..]),
        "scale" => (output?, &p.positional[..1]),
        _ => (output?, &p.positional[..]),
    };
    let n = inputs.len();
    let expr = match cmd {
        "diff" => Expr::diff(Expr::Operand(0), Expr::Operand(1)),
        "scale" => {
            let f = &p.positional[1];
            let factor = f.parse().map_err(|_| format!("'{f}' is not a number"))?;
            Expr::scale(Expr::Operand(0), factor)
        }
        "stats" => {
            let name = p.value("--op").unwrap_or("mean");
            let r = Reduction::from_name(name).ok_or_else(|| format!("unknown --op '{name}'"))?;
            match p.value("--minus") {
                Some(v) => {
                    let k: usize = v.parse().map_err(|_| "bad --minus value".to_string())?;
                    if k == 0 || k >= n {
                        return Err(format!(
                            "--minus {k} needs 1..{} baseline inputs out of {n}",
                            n - 1
                        ));
                    }
                    Expr::diff(Expr::reduce(r, 0..n - k), Expr::reduce(r, n - k..n))
                }
                None => Expr::reduce(r, 0..n),
            }
        }
        _ => {
            let r = Reduction::from_name(cmd).expect("the n-ary subcommands are reducer names");
            Expr::reduce(r, 0..n)
        }
    };
    let loaded = load_inputs(inputs, p.flag("--keep-going"))?;
    let expr = expr
        .restrict(&loaded.alive)
        .ok_or_else(|| loaded.required())?;
    let refs: Vec<&Experiment> = loaded.exps.iter().collect();
    let result = BatchPlan::with_options(&refs, p.merge_options())
        .into_eval(&expr)
        .map_err(|e| e.to_string())?;
    store(&result, out)?;
    ok(format!(
        "{}wrote {out}: {}\n",
        loaded.report,
        result.provenance().label()
    ))
}

fn cut(args: &[String]) -> Result<Outcome, String> {
    let p = parse("cut", args, 1..=1, &[], &["--prune", "--reroot", "-o"])?;
    let a = load(&p.positional[0])?;
    let find = |region: &str| {
        let md = a.metadata();
        md.call_node_ids()
            .find(|&c| md.region(md.call_node_callee(c)).name == region)
            .ok_or_else(|| format!("no call path with callee '{region}'"))
    };
    let result = match (p.value("--prune"), p.value("--reroot")) {
        (Some(r), None) => cube_algebra::cut::prune(&a, find(r)?),
        (None, Some(r)) => cube_algebra::cut::reroot(&a, find(r)?),
        _ => return Err("cube cut needs exactly one of --prune REGION or --reroot REGION".into()),
    };
    let out = p.value("-o").ok_or("missing -o OUTPUT")?;
    store(&result, out)?;
    ok(format!("wrote {out}: {}\n", result.provenance().label()))
}

// ---------------------------------------------------------------------------
// inspection subcommands
// ---------------------------------------------------------------------------

fn info(args: &[String]) -> Result<Outcome, String> {
    let p = parse("info", args, 1..=1, &[], &[])?;
    let e = load(&p.positional[0])?;
    let md = e.metadata();
    let mut s = String::new();
    let _ = writeln!(s, "experiment: {}", e.provenance().label());
    let _ = writeln!(
        s,
        "derived:    {}",
        if e.provenance().is_derived() {
            "yes"
        } else {
            "no"
        }
    );
    let _ = writeln!(
        s,
        "metrics:    {} ({} roots)",
        md.num_metrics(),
        md.metric_roots().len()
    );
    let _ = writeln!(
        s,
        "program:    {} modules, {} regions, {} call sites, {} call paths",
        md.modules().len(),
        md.regions().len(),
        md.call_sites().len(),
        md.num_call_nodes()
    );
    let _ = writeln!(
        s,
        "system:     {} machines, {} nodes, {} processes, {} threads",
        md.machines().len(),
        md.nodes().len(),
        md.processes().len(),
        md.num_threads()
    );
    let nonzero = e.severity().iter_nonzero().count();
    let _ = writeln!(
        s,
        "severity:   {} tuples, {} nonzero",
        e.severity().len(),
        nonzero
    );
    ok(s)
}

fn stat(args: &[String]) -> Result<Outcome, String> {
    let p = parse("stat", args, 1..=1, &[], &[])?;
    let e = load(&p.positional[0])?;
    let md = e.metadata();
    let mut s = String::new();
    let _ = writeln!(s, "{:<28} {:>16} {:>9}  unit", "metric", "total", "% root");
    for m in md.metric_ids() {
        let total = metric_total(&e, MetricSelection::inclusive(m));
        let root = md.metric_root_of(m);
        let root_total = metric_total(&e, MetricSelection::inclusive(root));
        let pct = if root_total != 0.0 {
            total / root_total * 100.0
        } else {
            0.0
        };
        let depth = {
            let mut d = 0;
            let mut cur = m;
            while let Some(parent) = md.metric(cur).parent {
                d += 1;
                cur = parent;
            }
            d
        };
        let name = format!("{}{}", "  ".repeat(depth), md.metric(m).name);
        let _ = writeln!(
            s,
            "{name:<28} {total:>16.6} {pct:>8.1}%  {}",
            md.metric(m).unit
        );
    }
    ok(s)
}

fn calltree(args: &[String]) -> Result<Outcome, String> {
    let p = parse("calltree", args, 1..=1, &[], &["--metric"])?;
    let e = load(&p.positional[0])?;
    let md = e.metadata();
    let metric = match p.value("--metric") {
        Some(name) => md
            .find_metric(name)
            .ok_or_else(|| format!("no metric named '{name}'"))?,
        None => *md
            .metric_roots()
            .first()
            .ok_or("experiment has no metrics")?,
    };
    let msel = MetricSelection::inclusive(metric);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "call tree of {} (metric '{}', inclusive values)",
        e.provenance().label(),
        md.metric(metric).name
    );
    // Preorder traversal with depth.
    let mut stack: Vec<(cube_model::CallNodeId, usize)> =
        md.call_roots().iter().rev().map(|&c| (c, 0)).collect();
    while let Some((c, depth)) = stack.pop() {
        let value = cube_model::aggregate::call_value(
            &e,
            msel,
            cube_model::aggregate::CallSelection::inclusive(c),
        );
        let _ = writeln!(
            s,
            "{value:>14.6}  {}{}",
            "  ".repeat(depth),
            md.region(md.call_node_callee(c)).name
        );
        for &child in md.call_node_children(c).iter().rev() {
            stack.push((child, depth + 1));
        }
    }
    ok(s)
}

fn hotspots_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("hotspots", args, 1..=1, &[], &["--metric", "--top"])?;
    let e = load(&p.positional[0])?;
    let md = e.metadata();
    let metric = match p.value("--metric") {
        Some(name) => md
            .find_metric(name)
            .ok_or_else(|| format!("no metric named '{name}'"))?,
        None => *md
            .metric_roots()
            .first()
            .ok_or("experiment has no metrics")?,
    };
    let k: usize = match p.value("--top") {
        Some(v) => v.parse().map_err(|_| "bad --top value".to_string())?,
        None => 10,
    };
    let spots = cube_algebra::stats::hotspots(&e, metric, k);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "top {} severities of metric '{}' in {}",
        spots.len(),
        md.metric(metric).name,
        e.provenance().label()
    );
    for h in spots {
        let thread = md.thread(h.thread);
        let rank = md.process(thread.process).rank;
        let _ = writeln!(
            s,
            "{:>14.6}  rank {rank} thread {}  {}",
            h.value,
            thread.number,
            md.call_path(h.call_node).join(" / ")
        );
    }
    ok(s)
}

fn browse_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("browse", args, 1..=1, &[], &[])?;
    let e = load(&p.positional[0])?;
    ok(browse::browse(&e, std::io::stdin().lock()))
}

fn cmp(args: &[String]) -> Result<Outcome, String> {
    let p = parse("cmp", args, 2..=2, &[], &["--tol"])?;
    let a = load(&p.positional[0])?;
    let b = load(&p.positional[1])?;
    let tol: f64 = p
        .value("--tol")
        .unwrap_or("1e-9")
        .parse()
        .map_err(|_| "bad --tol value".to_string())?;
    if a.approx_eq(&b, tol) {
        ok("experiments are equal\n".to_string())
    } else {
        let why = if a.metadata() != b.metadata() {
            "metadata differs"
        } else {
            "severity values differ"
        };
        Ok(Outcome {
            code: 1,
            stdout: format!("experiments differ: {why}\n"),
        })
    }
}

/// `cube lint FILE...` — run the static diagnostics engine over each
/// file and report every finding with its stable rule code.
///
/// Exit code 0 means all files are acceptable, 1 means at least one
/// finding was denied: error-level diagnostics always are, and
/// `--deny warnings` promotes warnings too (the CI mode). Hard usage
/// errors keep the tool-wide exit code 2.
fn lint_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("lint", args, 1..=MANY, &[], &["--format", "--deny"])?;
    let deny_warnings = p.deny_warnings()?;
    let json = p.json_format()?;

    let reports: Vec<(&String, cube_model::Report)> = p
        .positional
        .iter()
        .map(|path| {
            let report = if is_cubec(path) {
                cube_store::lint_file(path)
            } else {
                cube_xml::lint_file(path)
            };
            (path, report)
        })
        .collect();
    let total_errors: usize = reports.iter().map(|(_, r)| r.num_errors()).sum();
    let total_warnings: usize = reports.iter().map(|(_, r)| r.num_warnings()).sum();
    let denied = total_errors > 0 || (deny_warnings && total_warnings > 0);

    let mut s = String::new();
    if json {
        s.push_str("{\"files\":[");
        for (i, (path, report)) in reports.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"path\":{},\"diagnostics\":{},\"errors\":{},\"warnings\":{}}}",
                json_string(path),
                report.diagnostics_json(),
                report.num_errors(),
                report.num_warnings()
            );
        }
        let _ = write!(
            s,
            "],\"errors\":{total_errors},\"warnings\":{total_warnings},\"ok\":{}}}",
            !denied
        );
        s.push('\n');
    } else {
        for (path, report) in &reports {
            if report.is_clean() {
                let _ = writeln!(s, "{path}: clean");
            } else {
                let _ = writeln!(s, "{path}: {}", report.summary());
                for d in report.diagnostics() {
                    let _ = writeln!(s, "  {d}");
                }
            }
        }
        let _ = writeln!(
            s,
            "{} checked: {}",
            plural(reports.len(), "file"),
            counts(total_errors, total_warnings)
        );
    }
    Ok(Outcome {
        code: i32::from(denied),
        stdout: s,
    })
}

/// One operand of `cube check`, opened for metadata only: `.cubec`
/// stores lazily (no severity pages touched), `.cube` XML fully (the
/// text format has no partial read path).
enum CheckedInput {
    Store(ColumnarExperiment),
    Xml(Experiment),
}

impl CheckedInput {
    fn metadata(&self) -> &cube_model::Metadata {
        match self {
            Self::Store(c) => c.metadata(),
            Self::Xml(e) => e.metadata(),
        }
    }
}

/// Whether expression operand `name` refers to operand file `file`:
/// exact path, file name, or file stem (`A` matches `runs/A.cubec`).
fn name_binds_file(name: &str, file: &str) -> bool {
    if name == file {
        return true;
    }
    let path = std::path::Path::new(file);
    path.file_name().is_some_and(|f| f == name) || path.file_stem().is_some_and(|s| s == name)
}

/// `cube check EXPR [OPERAND...]` — static semantic analysis of an
/// algebra expression against **metadata-only** opens of its operand
/// files ([`cube_algebra::check`]). No severity value is read; for
/// `.cubec` operands not a single severity page is touched.
///
/// Expression names bind to the operand files by exact path, file
/// name, or file stem. Diagnostics carry stable `A0xx` codes with byte
/// offsets into the expression (`docs/CHECK.md`); the report includes
/// the canonicalized rewrite and a cost estimate. Flags and exit codes
/// mirror `cube lint`: `--format json`, `--deny warnings`; exit 0 =
/// clean, 1 = findings denied (errors always, warnings only under
/// `--deny warnings`; parse errors count as errors), 2 = usage.
fn check_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("check", args, 1..=MANY, &[], &["--format", "--deny"])?;
    let (expr_src, files) = (&p.positional[0], &p.positional[1..]);
    let deny_warnings = p.deny_warnings()?;
    let json = p.json_format()?;

    let parsed = match cube_algebra::parse_expr(expr_src) {
        Ok(parsed) => parsed,
        Err(e) => {
            // A parse failure is a finding (exit 1), not a usage error:
            // render it in the requested format with its stable P-code.
            let s = if json {
                format!(
                    "{{\"expr\":{},\"diagnostics\":[{{\"code\":\"{}\",\"level\":\"{}\",\
                     \"offset\":{},\"len\":0,\"message\":{}}}],\
                     \"errors\":1,\"warnings\":0,\"ok\":false}}\n",
                    json_string(expr_src),
                    e.code,
                    e.code.level(),
                    e.offset,
                    json_string(&e.message)
                )
            } else {
                format!("{expr_src}: {e}\n1 expression checked: 1 error, 0 warnings\n")
            };
            return Ok(Outcome { code: 1, stdout: s });
        }
    };

    // Bind each expression operand to at most one provided file and
    // open it for metadata only; provided files no name binds are dead
    // operands, facts without metadata.
    let mut unused: Vec<&str> = files.iter().map(String::as_str).collect();
    let mut inputs: Vec<Result<CheckedInput, String>> = Vec::new();
    for name in &parsed.operands {
        let matches: Vec<&str> = files
            .iter()
            .map(String::as_str)
            .filter(|f| name_binds_file(name, f))
            .collect();
        inputs.push(match matches[..] {
            [] => Err("not among the provided operand files".to_string()),
            [file] => {
                unused.retain(|f| *f != file);
                if is_cubec(file) {
                    ColumnarExperiment::open(file)
                        .map(CheckedInput::Store)
                        .map_err(|e| e.to_string())
                } else {
                    read_experiment_file(file)
                        .map(CheckedInput::Xml)
                        .map_err(|e| e.to_string())
                }
            }
            _ => {
                return Err(format!(
                    "operand '{name}' matches more than one provided file ({})",
                    matches.join(", ")
                ))
            }
        });
    }
    let facts: Vec<cube_algebra::OperandFacts<'_>> = parsed
        .operands
        .iter()
        .zip(&inputs)
        .map(|(name, input)| match input {
            Ok(input) => cube_algebra::OperandFacts::known(name, input.metadata()),
            Err(e) => cube_algebra::OperandFacts::unknown(name, e.clone()),
        })
        .chain(unused.into_iter().map(|file| cube_algebra::OperandFacts {
            name: file.to_string(),
            metadata: None,
            note: None,
        }))
        .collect();

    let report = cube_algebra::check(&parsed, &facts);
    let denied = report.denied(deny_warnings);
    let mut s = String::new();
    if json {
        s.push_str(&report.to_json(expr_src));
        s.push('\n');
    } else {
        if report.diagnostics.is_empty() {
            let _ = writeln!(s, "{expr_src}: clean");
        } else {
            let counts = counts(report.num_errors(), report.num_warnings());
            let _ = writeln!(s, "{expr_src}: {counts}");
            for d in &report.diagnostics {
                let _ = writeln!(s, "  {d}");
            }
        }
        if report.rewritten_text != report.canonical {
            let rules: Vec<&str> = report.rewrites.iter().map(|n| n.rule).collect();
            let _ = writeln!(
                s,
                "rewritten: {} [{}]",
                report.rewritten_text,
                rules.join(", ")
            );
        }
        let c = &report.cost;
        let _ = writeln!(
            s,
            "cost: operands={} resolved={} nodes={} reductions={} values={} pages={}",
            c.operands, c.known, c.nodes, c.reductions, c.values, c.pages
        );
        if let Some(f) = &c.fused {
            let _ = writeln!(
                s,
                "fused: single-pass kernel, instrs={} regs={} loads={}",
                f.instrs, f.regs, f.loads
            );
        }
        let counts = counts(report.num_errors(), report.num_warnings());
        let _ = writeln!(s, "1 expression checked: {counts}");
    }
    Ok(Outcome {
        code: i32::from(denied),
        stdout: s,
    })
}

/// `cube repair IN OUT` — salvage a damaged `.cube` file, relint the
/// recovered experiment, and atomically rewrite it.
///
/// Exit codes distinguish the recovery grades: 0 = the input was fully
/// intact (the output is a clean rewrite), 1 = partial recovery (the
/// longest valid prefix was written, provenance marks it `recovered`),
/// 2 = unrecoverable (no complete metadata; nothing written).
fn repair_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("repair", args, 2..=2, &[], &[])?;
    let (input, output) = (&p.positional[0], &p.positional[1]);
    // Inside a serve repository, recovery provenance names the stable
    // repository-relative object path instead of whatever absolute or
    // temporary path the file was read from.
    let origin = cube_serve::repo_relative_origin(std::path::Path::new(input));
    // Each format counts loss in its own recovery unit (severity rows,
    // or the store's chunks) and seals a document or a file.
    let salvaged = if is_cubec(input) {
        cube_store::salvage_store_file_as(input, origin.as_deref(), &ReadLimits::default())
            .map(|(exp, r)| {
                let units = format!(
                    "severity chunks recovered: {} of {}",
                    r.chunks_recovered, r.chunks_total
                );
                (
                    exp, r.complete, r.loss, r.context, r.checksum, units, "file",
                )
            })
            .map_err(AnyError::Store)
    } else {
        cube_xml::read_experiment_salvage_file_as(input, origin.as_deref())
            .map(|(exp, r)| {
                let units = format!("severity rows recovered: {}", r.rows_recovered);
                (
                    exp, r.complete, r.loss, r.context, r.checksum, units, "document",
                )
            })
            .map_err(AnyError::Xml)
    };
    let (exp, complete, loss, context, checksum, units, sealed) = match salvaged {
        Ok(s) => s,
        // Not being able to read the file at all is a usage-level
        // failure; "unrecoverable" is reserved for files we read but
        // whose metadata cannot be completed.
        Err(e @ (AnyError::Xml(XmlError::Io { .. }) | AnyError::Store(StoreError::Io { .. }))) => {
            return Err(e.with_path(input))
        }
        Err(e) => {
            return Ok(Outcome {
                code: 2,
                stdout: format!("{input}: unrecoverable: {}\n", e.bare()),
            })
        }
    };
    let relint = exp.lint();
    store(&exp, output)?;
    let mut s = String::new();
    if complete {
        let _ = writeln!(s, "{input}: fully recovered; wrote {output}");
    } else {
        let _ = writeln!(s, "{input}: partial recovery; wrote {output}");
        if let Some(loss) = &loss {
            let _ = writeln!(s, "  loss: {loss}");
        }
        if let Some(ctx) = &context {
            let _ = writeln!(s, "  context: {ctx}");
        }
        let _ = writeln!(s, "  {units}");
        if checksum.is_mismatch() {
            let _ = writeln!(s, "  checksum: recorded footer does not match the {sealed}");
        }
    }
    let _ = writeln!(s, "  relint: {}", relint.summary());
    Ok(Outcome {
        code: i32::from(!complete),
        stdout: s,
    })
}

/// `cube fsck REPO [--format json]` — walk a serve repository and
/// verify every stored object offline, without booting a server.
///
/// The repository walk ([`cube_serve::walk_objects`]) sorts what lies
/// under `objects/`; each object it finds is read strictly through the
/// store reader (section and severity-chunk CRCs included) and its
/// bytes are re-hashed. The verdicts are:
///
/// - `ok` — decodes cleanly and the bytes hash to the file's own name
/// - `corrupt` — the strict reader rejected the file (error)
/// - `misnamed` — decodes cleanly but hashes to a different id, or
///   sits in the wrong shard directory (error)
///
/// Orphaned temp files (`temp`) and anything else the walk calls stray
/// are warnings. Exit codes grade the repository lint-style: 0 = clean,
/// 1 = warnings only, 2 = errors (including "not a repository at all").
fn fsck_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("fsck", args, 1..=1, &[], &["--format"])?;
    let json = p.json_format()?;
    let root = std::path::Path::new(&p.positional[0]);
    if !root.join(cube_serve::REPO_MARKER).exists() {
        let msg = format!(
            "{}: not a repository (no {} marker)",
            root.display(),
            cube_serve::REPO_MARKER
        );
        let stdout = if json {
            format!(
                "{{\"root\":{},\"entries\":[],\"checked\":0,\"errors\":1,\"warnings\":0,\"ok\":false,\"detail\":{}}}\n",
                json_string(&p.positional[0]),
                json_string(&msg)
            )
        } else {
            format!("{msg}\n")
        };
        return Ok(Outcome { code: 2, stdout });
    }

    // (verdict, repo-relative path, detail — "" for none)
    let entries: Vec<(&'static str, String, String)> = cube_serve::walk_objects(root)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|(rel, kind)| {
            let (verdict, detail) = fsck_verdict(root, &rel, kind);
            (verdict, rel, detail)
        })
        .collect();
    // The level follows from the verdict, so the renderings agree;
    // `ok` has none.
    let level = |verdict: &str| match verdict {
        "ok" => None,
        "stray" | "temp" => Some(Level::Warning),
        _ => Some(Level::Error),
    };
    let count = |l| entries.iter().filter(|(v, _, _)| level(v) == l).count();
    let (errors, warnings) = (count(Some(Level::Error)), count(Some(Level::Warning)));
    let checked = count(None) + errors;
    let code = if errors > 0 {
        2
    } else {
        i32::from(warnings > 0)
    };

    let mut s = String::new();
    if json {
        let rows: Vec<String> = entries
            .iter()
            .map(|(verdict, path, detail)| {
                format!(
                    "{{\"path\":{},\"verdict\":\"{verdict}\",\"level\":\"{}\",\"detail\":{}}}",
                    json_string(path),
                    level(verdict).map_or("ok".to_string(), |l| l.to_string()),
                    json_string(detail)
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "{{\"root\":{},\"entries\":[{}],\"checked\":{checked},\"errors\":{errors},\"warnings\":{warnings},\"ok\":{}}}",
            json_string(&p.positional[0]),
            rows.join(","),
            errors == 0
        );
    } else {
        for (verdict, path, detail) in &entries {
            let sep = if detail.is_empty() { "" } else { ": " };
            let _ = writeln!(s, "{path}: {verdict}{sep}{detail}");
        }
        let _ = writeln!(
            s,
            "{} checked: {}",
            plural(checked, "object"),
            counts(errors, warnings)
        );
    }
    Ok(Outcome { code, stdout: s })
}

/// `cube fsck`'s verdict and detail for the entry `rel` of the
/// repository walk: objects are read strictly and re-hashed.
fn fsck_verdict(
    root: &std::path::Path,
    rel: &str,
    kind: cube_serve::EntryKind,
) -> (&'static str, String) {
    let (id, misplaced) = match kind {
        cube_serve::EntryKind::Object { id, misplaced } => (id, misplaced),
        cube_serve::EntryKind::Temp => {
            let detail = "orphaned ingest temp file (the server sweeps these at startup)";
            return ("temp", detail.into());
        }
        cube_serve::EntryKind::Stray(why) => return ("stray", why.into()),
    };
    let limits = ReadLimits::default();
    let bytes = match cube_xml::read_file(&root.join(rel), &limits, "store.file") {
        Ok(b) => b,
        Err(XmlError::Io { source, .. }) => return ("corrupt", format!("unreadable: {source}")),
        Err(e) => return ("corrupt", e.to_string()),
    };
    if let Err(e) = cube_store::read_store(&bytes, &limits) {
        return ("corrupt", e.to_string());
    }
    let actual = cube_serve::content_id(&bytes);
    match misplaced {
        _ if actual != id => (
            "misnamed",
            format!("content hashes to {actual}, not the file's own name"),
        ),
        Some(why) => ("misnamed", why),
        None => ("ok", String::new()),
    }
}

/// `cube serve --repo DIR [--addr A] [--port P] [--workers N]
/// [--queue N] [--cache-results N] [--cache-plans N]
/// [--cache-handles N] [--max-body BYTES]
/// [--deadline-ms MS] [--header-deadline-ms MS] [--socket-timeout-ms MS]
/// [--retries N] [--backoff-ms MS] [--breaker N]` — run the
/// analysis server over a sharded experiment repository until SIGTERM
/// or SIGINT, then drain in-flight requests and exit 0.
///
/// Prints `listening on ADDR:PORT` (flushed) as soon as the socket is
/// bound, so scripts using `--port 0` can discover the ephemeral port.
fn serve_cmd(args: &[String]) -> Result<Outcome, String> {
    let valued = [
        "--repo",
        "--addr",
        "--port",
        "--workers",
        "--queue",
        "--cache-results",
        "--cache-plans",
        "--cache-handles",
        "--max-body",
        "--deadline-ms",
        "--header-deadline-ms",
        "--socket-timeout-ms",
        "--retries",
        "--backoff-ms",
        "--breaker",
    ];
    let p = parse("serve", args, 0..=0, &[], &valued)?;
    let mut config = cube_serve::ServeConfig::default();
    let mut repo: Option<String> = None;
    let num = |flag: &str, value: &str| -> Result<usize, String> {
        value
            .parse::<usize>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got '{value}'"))
    };
    for (flag, value) in &p.valued {
        match flag.as_str() {
            "--repo" => repo = Some(value.clone()),
            "--addr" => config.addr = value.clone(),
            "--port" => {
                config.port = value
                    .parse()
                    .map_err(|_| format!("--port needs a port number, got '{value}'"))?;
            }
            "--workers" => config.workers = num(flag, value)?.max(1),
            "--queue" => config.queue_depth = num(flag, value)?.max(1),
            "--cache-results" => config.result_cache = num(flag, value)?,
            "--cache-plans" => config.plan_cache = num(flag, value)?,
            "--cache-handles" => config.handle_cache = num(flag, value)?,
            "--max-body" => config.max_body = num(flag, value)?,
            "--deadline-ms" => config.request_deadline_ms = num(flag, value)? as u64,
            "--header-deadline-ms" => config.header_deadline_ms = num(flag, value)? as u64,
            "--socket-timeout-ms" => config.socket_timeout_ms = num(flag, value)? as u64,
            "--retries" => config.read_retries = num(flag, value)?.max(1) as u32,
            "--backoff-ms" => config.backoff_base_ms = num(flag, value)? as u64,
            "--breaker" => config.breaker_threshold = num(flag, value)? as u32,
            other => unreachable!("parse admits no other flag, got {other}"),
        }
    }
    // The fault schedule is a test/CI hook, deliberately absent from
    // the command line: harnesses set the environment variable without
    // touching the command line the gate under test builds.
    config.faults = std::env::var("CUBE_FAULTS")
        .ok()
        .filter(|spec| !spec.is_empty());
    let repo = repo.ok_or("cube serve needs --repo DIR")?;
    cube_serve::install_signal_handlers();
    let server =
        cube_serve::start(config, std::path::Path::new(&repo)).map_err(|e| e.to_string())?;
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "listening on {}", server.local_addr());
        let _ = out.flush();
    }
    while !cube_serve::signaled() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
    server.join();
    ok("shutdown complete; drained in-flight requests\n".to_string())
}

/// `cube pack IN OUT` — re-encode an experiment (either format) into
/// the `.cubec` columnar store, whatever OUT's extension says.
fn pack_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("pack", args, 2..=2, &[], &[])?;
    let (input, output) = (&p.positional[0], &p.positional[1]);
    let e = load(input)?;
    cube_store::write_store_file(&e, output).map_err(|err| store_path_error(output, err))?;
    ok(format!("wrote {output}: {}\n", e.provenance().label()))
}

/// `cube unpack IN OUT` — re-encode a `.cubec` store as CUBE XML,
/// whatever OUT's extension says. Strict read: a damaged store is an
/// error here (use `cube repair` to salvage).
fn unpack_cmd(args: &[String]) -> Result<Outcome, String> {
    let p = parse("unpack", args, 2..=2, &[], &[])?;
    let (input, output) = (&p.positional[0], &p.positional[1]);
    let e = cube_store::read_store_file(input).map_err(|err| store_path_error(input, err))?;
    write_experiment_file(&e, output).map_err(|err| path_error(output, err))?;
    ok(format!("wrote {output}: {}\n", e.provenance().label()))
}

fn view(args: &[String]) -> Result<Outcome, String> {
    let switches = ["--expand-all", "--flat", "--percent", "--ansi"];
    let valued = ["--metric", "--call", "--normalize", "--topology"];
    let p = parse("view", args, 1..=1, &switches, &valued)?;
    let e = load(&p.positional[0])?;
    let mut state = BrowserState::new(&e);
    if p.flag("--expand-all") {
        state.expand_all(&e);
    }
    if let Some(m) = p.value("--metric") {
        if !state.select_metric_by_name(&e, m) {
            return Err(format!("no metric named '{m}'"));
        }
    }
    if let Some(r) = p.value("--call") {
        if !state.select_call_by_region(&e, r) {
            return Err(format!("no call path with callee '{r}'"));
        }
    }
    if p.flag("--flat") {
        state.program_view = ProgramView::FlatProfile;
    }
    if let Some(reference) = p.value("--normalize") {
        let r = load(reference)?;
        state.value_mode = ValueMode::PercentNormalized(NormalizationRef::from_experiment(&r));
    } else if p.flag("--percent") {
        state.value_mode = ValueMode::Percent;
    }
    let opts = RenderOptions {
        ansi: p.flag("--ansi"),
    };
    let mut out = cube_display::render_view(&e, &state, opts);
    if let Some(idx) = p.value("--topology") {
        let idx: usize = idx
            .parse()
            .map_err(|_| "bad --topology index".to_string())?;
        match cube_display::render_topology(&e, &state, idx, opts) {
            Some(view) => {
                out.push('\n');
                out.push_str(&view);
            }
            None => return Err(format!("experiment has no renderable topology {idx}")),
        }
    }
    ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};
    use std::path::PathBuf;

    fn sample(value: f64) -> Experiment {
        let mut b = ExperimentBuilder::new(format!("cli sample {value}"));
        let time = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a.c", "/a.c");
        let main_r = b.def_region("main", m, RegionKind::Function, 1, 9);
        let solve_r = b.def_region("solve", m, RegionKind::Function, 2, 8);
        let cs0 = b.def_call_site("a.c", 1, main_r);
        let cs1 = b.def_call_site("a.c", 3, solve_r);
        let root = b.def_call_node(cs0, None);
        let solve = b.def_call_node(cs1, Some(root));
        let ts = single_threaded_system(&mut b, 2);
        for &t in &ts {
            b.set_severity(time, root, t, value);
            b.set_severity(time, solve, t, value * 2.0);
        }
        b.build().unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cube_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    fn write_sample(name: &str, value: f64) -> String {
        let path = tmp(name);
        write_experiment_file(&sample(value), &path).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Drops the checksum footer so a hand-edited document is judged
    /// on its content instead of failing with E204.
    fn strip_footer(text: &str) -> String {
        match text.find("<!-- cube:crc32") {
            Some(i) => text[..i].to_string(),
            None => text.to_string(),
        }
    }

    #[test]
    fn diff_then_info() {
        let a = write_sample("a.cube", 5.0);
        let b = write_sample("b.cube", 3.0);
        let out = tmp("d.cube").to_string_lossy().into_owned();
        let r = run(&args(&["diff", &a, &b, "-o", &out])).unwrap();
        assert_eq!(r.code, 0);
        let d = read_experiment_file(&out).unwrap();
        assert!(d.provenance().is_derived());
        assert_eq!(d.severity().values(), &[2.0, 2.0, 4.0, 4.0]);

        let info = run(&args(&["info", &out])).unwrap();
        assert!(info.stdout.contains("derived:    yes"));
        assert!(info.stdout.contains("2 processes"));
    }

    #[test]
    fn mean_and_cmp_roundtrip() {
        let a = write_sample("m1.cube", 2.0);
        let b = write_sample("m2.cube", 4.0);
        let c = write_sample("m3.cube", 3.0);
        let out = tmp("mean.cube").to_string_lossy().into_owned();
        run(&args(&["mean", &a, &b, &c, "-o", &out])).unwrap();
        // mean(2,4,3) == 3 → equal to the value-3 sample except provenance.
        let r = run(&args(&["cmp", &out, &c])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);

        let r = run(&args(&["cmp", &out, &a])).unwrap();
        assert_eq!(r.code, 1);
        assert!(r.stdout.contains("differ"));
    }

    #[test]
    fn min_max_sum_scale() {
        let a = write_sample("x1.cube", 2.0);
        let b = write_sample("x2.cube", 4.0);
        let lo = tmp("lo.cube").to_string_lossy().into_owned();
        let hi = tmp("hi.cube").to_string_lossy().into_owned();
        let s = tmp("s.cube").to_string_lossy().into_owned();
        let half = tmp("half.cube").to_string_lossy().into_owned();
        run(&args(&["min", &a, &b, "-o", &lo])).unwrap();
        run(&args(&["max", &a, &b, "-o", &hi])).unwrap();
        run(&args(&["sum", &a, &b, "-o", &s])).unwrap();
        run(&args(&["scale", &s, "0.5", "-o", &half])).unwrap();
        assert_eq!(
            read_experiment_file(&lo).unwrap().severity().values()[0],
            2.0
        );
        assert_eq!(
            read_experiment_file(&hi).unwrap().severity().values()[0],
            4.0
        );
        assert_eq!(
            read_experiment_file(&s).unwrap().severity().values()[0],
            6.0
        );
        assert_eq!(
            read_experiment_file(&half).unwrap().severity().values()[0],
            3.0
        );
    }

    #[test]
    fn stat_lists_metrics() {
        let a = write_sample("stat.cube", 1.0);
        let r = run(&args(&["stat", &a])).unwrap();
        assert!(r.stdout.contains("time"));
        assert!(r.stdout.contains("100.0%"));
        assert!(r.stdout.contains("sec"));
    }

    #[test]
    fn view_renders_three_panes() {
        let a = write_sample("view.cube", 1.0);
        let r = run(&args(&["view", &a, "--expand-all", "--percent"])).unwrap();
        assert!(r.stdout.contains("--- metric tree ---"));
        assert!(r.stdout.contains("solve"));
        assert!(r.stdout.contains('%'));
        // Selection flags work.
        let r = run(&args(&["view", &a, "--call", "solve"])).unwrap();
        assert!(r.stdout.contains("call path 'solve'"));
        assert!(run(&args(&["view", &a, "--metric", "nope"])).is_err());
    }

    #[test]
    fn view_normalized_against_reference() {
        let a = write_sample("na.cube", 1.0);
        let reference = write_sample("nref.cube", 2.0);
        let r = run(&args(&["view", &a, "--normalize", &reference])).unwrap();
        assert!(r.stdout.contains("normalized"));
        // a's total (6) over the reference total (12) = 50%.
        assert!(r.stdout.contains("50.0%"), "{}", r.stdout);
    }

    #[test]
    fn cut_prune_and_reroot() {
        let a = write_sample("cut.cube", 1.0);
        let pruned = tmp("pruned.cube").to_string_lossy().into_owned();
        run(&args(&["cut", &a, "--prune", "main", "-o", &pruned])).unwrap();
        let e = read_experiment_file(&pruned).unwrap();
        assert_eq!(e.metadata().num_call_nodes(), 1);
        // Totals preserved by prune: 2 ranks * (1 + 2).
        assert_eq!(e.severity().values().iter().sum::<f64>(), 6.0);

        let rerooted = tmp("rerooted.cube").to_string_lossy().into_owned();
        run(&args(&["cut", &a, "--reroot", "solve", "-o", &rerooted])).unwrap();
        let e = read_experiment_file(&rerooted).unwrap();
        assert_eq!(e.metadata().num_call_nodes(), 1);
        assert_eq!(e.severity().values().iter().sum::<f64>(), 4.0);

        assert!(run(&args(&["cut", &a, "-o", &pruned])).is_err());
        assert!(run(&args(&["cut", &a, "--prune", "ghost", "-o", &pruned])).is_err());
    }

    #[test]
    fn calltree_prints_inclusive_values() {
        let a = write_sample("tree.cube", 1.0);
        let r = run(&args(&["calltree", &a])).unwrap();
        let lines: Vec<&str> = r.stdout.lines().collect();
        assert!(lines[0].contains("metric 'time'"));
        // main (inclusive 1+2 per rank × 2 ranks = 6), solve (4).
        assert!(lines[1].contains("6.000000") && lines[1].contains("main"));
        assert!(lines[2].contains("4.000000") && lines[2].contains("solve"));
        assert!(run(&args(&["calltree", &a, "--metric", "nope"])).is_err());
    }

    #[test]
    fn hotspots_lists_top_tuples() {
        let a = write_sample("hot.cube", 1.0);
        let r = run(&args(&["hotspots", &a, "--top", "2"])).unwrap();
        assert!(r.stdout.contains("top 2"));
        assert!(r.stdout.contains("main / solve"));
        // Largest tuples first (solve rows carry 2.0).
        let first_value_line = r.stdout.lines().nth(1).unwrap();
        assert!(first_value_line.trim_start().starts_with("2.0"));
    }

    #[test]
    fn stddev_subcommand_writes_variability_experiment() {
        let a = write_sample("sd1.cube", 2.0);
        let b = write_sample("sd2.cube", 4.0);
        let out = tmp("sd.cube").to_string_lossy().into_owned();
        run(&args(&["stddev", &a, &b, "-o", &out])).unwrap();
        let e = read_experiment_file(&out).unwrap();
        // Values 2 vs 4 → stddev 1; solve rows 4 vs 8 → stddev 2.
        assert_eq!(e.severity().values(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn stats_default_op_is_mean() {
        let a = write_sample("bs1.cube", 2.0);
        let b = write_sample("bs2.cube", 4.0);
        let out = tmp("bs_mean.cube").to_string_lossy().into_owned();
        let r = run(&args(&["stats", &out, &a, &b])).unwrap();
        assert!(r.stdout.contains("mean"));
        let e = read_experiment_file(&out).unwrap();
        assert_eq!(e.severity().values(), &[3.0, 3.0, 6.0, 6.0]);
    }

    #[test]
    fn stats_op_selection_matches_nary_subcommands() {
        let a = write_sample("bo1.cube", 2.0);
        let b = write_sample("bo2.cube", 4.0);
        let c = write_sample("bo3.cube", 3.0);
        for op in ["mean", "sum", "min", "max", "variance", "stddev", "merge"] {
            let out = tmp(&format!("bo_{op}.cube")).to_string_lossy().into_owned();
            run(&args(&["stats", &out, &a, &b, &c, "--op", op])).unwrap();
            let e = read_experiment_file(&out).unwrap();
            e.validate().unwrap();
            assert!(e.provenance().label().starts_with(op), "{op}");
            if op != "variance" {
                let direct = tmp(&format!("bo_{op}_direct.cube"))
                    .to_string_lossy()
                    .into_owned();
                run(&args(&[op, &a, &b, &c, "-o", &direct])).unwrap();
                assert_eq!(
                    std::fs::read(&out).unwrap(),
                    std::fs::read(&direct).unwrap(),
                    "{op}"
                );
            }
        }
        assert!(run(&args(&["stats", "x.cube", &a, "--op", "median"])).is_err());
    }

    #[test]
    fn stats_minus_computes_difference_of_group_reductions() {
        let a1 = write_sample("g1.cube", 4.0);
        let a2 = write_sample("g2.cube", 6.0);
        let b1 = write_sample("g3.cube", 2.0);
        let out = tmp("g_diff.cube").to_string_lossy().into_owned();
        // diff(mean(a1, a2), mean(b1)): 5 − 2 = 3 on root rows.
        let r = run(&args(&["stats", &out, &a1, &a2, &b1, "--minus", "1"])).unwrap();
        assert!(r.stdout.contains("difference(mean("));
        let e = read_experiment_file(&out).unwrap();
        assert_eq!(e.severity().values(), &[3.0, 3.0, 6.0, 6.0]);
        // The baseline group must be a proper, nonempty split.
        assert!(run(&args(&["stats", &out, &a1, &b1, "--minus", "2"])).is_err());
        assert!(run(&args(&["stats", &out, &a1, &b1, "--minus", "0"])).is_err());
        assert!(run(&args(&["stats", &out, &a1, &b1, "--minus", "x"])).is_err());
    }

    #[test]
    fn lint_clean_file_exits_zero() {
        let a = write_sample("lint_ok.cube", 1.0);
        let r = run(&args(&["lint", &a])).unwrap();
        assert_eq!(r.code, 0);
        assert!(r.stdout.contains("clean"), "{}", r.stdout);
        assert!(r.stdout.contains("0 errors, 0 warnings"), "{}", r.stdout);
    }

    #[test]
    fn lint_reports_errors_and_exits_one() {
        let a = write_sample("lint_nan_src.cube", 1.0);
        let text =
            strip_footer(&std::fs::read_to_string(&a).unwrap()).replace("1</row>", "NaN</row>");
        let bad = tmp("lint_nan.cube");
        std::fs::write(&bad, text).unwrap();
        let bad = bad.to_string_lossy().into_owned();
        let r = run(&args(&["lint", &bad])).unwrap();
        assert_eq!(r.code, 1);
        assert!(r.stdout.contains("error[E016]"), "{}", r.stdout);
    }

    #[test]
    fn lint_deny_warnings_promotes_exit_code() {
        let a = write_sample("lint_warn_src.cube", 1.0);
        let text = strip_footer(&std::fs::read_to_string(&a).unwrap()).replace(
            "</program>",
            "<module id=\"1\" name=\"dead.c\" path=\"/dead.c\"/></program>",
        );
        let warn = tmp("lint_warn.cube");
        std::fs::write(&warn, text).unwrap();
        let warn = warn.to_string_lossy().into_owned();
        let r = run(&args(&["lint", &warn])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        assert!(r.stdout.contains("warning[W003]"), "{}", r.stdout);
        let r = run(&args(&["lint", &warn, "--deny", "warnings"])).unwrap();
        assert_eq!(r.code, 1);
    }

    #[test]
    fn lint_json_output() {
        let a = write_sample("lint_json_ok.cube", 1.0);
        let missing = "/nonexistent/lint.cube";
        let r = run(&args(&["lint", &a, missing, "--format", "json"])).unwrap();
        assert_eq!(r.code, 1);
        assert!(r.stdout.starts_with("{\"files\":["), "{}", r.stdout);
        assert!(r.stdout.contains("\"code\":\"E100\""), "{}", r.stdout);
        assert!(r.stdout.contains("\"ok\":false"), "{}", r.stdout);
        assert!(r.stdout.trim_end().ends_with('}'), "{}", r.stdout);
    }

    #[test]
    fn lint_usage_errors() {
        assert!(run(&args(&["lint"])).is_err());
        let a = write_sample("lint_flag.cube", 1.0);
        assert!(run(&args(&["lint", &a, "--deny", "everything"])).is_err());
        assert!(run(&args(&["lint", &a, "--format", "xml"])).is_err());
    }

    #[test]
    fn threads_flag_is_global_and_validated() {
        let prev = rayon::current_num_threads();
        let a = write_sample("thr_a.cube", 2.0);
        let b = write_sample("thr_b.cube", 4.0);
        let out = tmp("thr_out.cube").to_string_lossy().into_owned();
        // Accepted before or after the subcommand; result is unchanged.
        let r = run(&args(&["--threads", "2", "mean", &a, &b, "-o", &out])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        assert_eq!(rayon::current_num_threads(), 2);
        let r = run(&args(&["mean", &a, &b, "--threads", "1", "-o", &out])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        assert_eq!(rayon::current_num_threads(), 1);
        let e = read_experiment_file(&out).unwrap();
        assert_eq!(e.severity().values(), &[3.0, 3.0, 6.0, 6.0]);
        // Bad values are usage errors.
        assert!(run(&args(&["mean", &a, &b, "--threads", "0", "-o", &out])).is_err());
        assert!(run(&args(&["mean", &a, &b, "--threads", "lots", "-o", &out])).is_err());
        assert!(run(&args(&["mean", &a, &b, "-o", &out, "--threads"])).is_err());
        rayon::set_threads(prev);
    }

    #[test]
    fn usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&args(&["frobnicate"])).is_err());
        assert!(run(&args(&["diff", "only-one.cube"])).is_err());
        assert!(run(&args(&["mean"])).is_err());
        assert!(run(&args(&["stats", "only-output.cube"])).is_err());
        assert!(run(&args(&["scale", "a.cube", "not-a-number", "-o", "x"])).is_err());
        let help = run(&args(&["help"])).unwrap();
        assert!(help.stdout.contains("usage"));
    }

    #[test]
    fn a_flag_the_subcommand_does_not_take_is_a_usage_error() {
        let warn = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/malformed/w002_unreferenced_region.cube"
        );
        let err = run(&args(&["lint", "--deny-warnings", warn])).unwrap_err();
        assert_eq!(err, "unknown flag --deny-warnings for cube lint");
        assert_eq!(
            run(&args(&["lint", "--deny", "warnings", warn]))
                .unwrap()
                .code,
            1
        );

        let a = write_sample("typo_a.cube", 2.0);
        let b = write_sample("typo_b.cube", 1.0);
        let out = tmp("typo_out.cube").to_string_lossy().into_owned();
        let err = run(&args(&["diff", &a, &b, "--keep-goin", "-o", &out])).unwrap_err();
        assert_eq!(err, "unknown flag --keep-goin for cube diff");
        let err = run(&args(&["info", &a, "--metric", "time"])).unwrap_err();
        assert_eq!(err, "unknown flag --metric for cube info");
        let err = run(&args(&["stats", &out, &a, "-o", &out])).unwrap_err();
        assert_eq!(err, "unknown flag -o for cube stats");
        let err = run(&args(&["info", &a, &b])).unwrap_err();
        assert_eq!(err, "cube info takes 1 argument, got 2");
    }

    #[test]
    fn missing_file_reports_path() {
        let err = run(&args(&["info", "/nonexistent/foo.cube"])).unwrap_err();
        assert!(err.contains("/nonexistent/foo.cube"));
    }

    #[test]
    fn merge_options_flags_accepted() {
        let a = write_sample("opt_a.cube", 1.0);
        let b = write_sample("opt_b.cube", 2.0);
        let out = tmp("opt_out.cube").to_string_lossy().into_owned();
        run(&args(&[
            "diff",
            &a,
            &b,
            "--strict-csite",
            "--collapse",
            "-o",
            &out,
        ]))
        .unwrap();
        let e = read_experiment_file(&out).unwrap();
        assert_eq!(e.metadata().machines().len(), 1);
    }

    /// Writes a sample file, then truncates it shortly after the last
    /// `<row` so salvage recovers a proper prefix.
    fn write_truncated(name: &str, value: f64) -> String {
        let src = write_sample(&format!("{name}_src.cube"), value);
        let text = std::fs::read_to_string(&src).unwrap();
        let cut = text.rfind("<row").unwrap() + 6;
        let path = tmp(name);
        std::fs::write(&path, &text[..cut]).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn repair_intact_file_exits_zero() {
        let a = write_sample("rep_ok.cube", 1.0);
        let out = tmp("rep_ok_out.cube").to_string_lossy().into_owned();
        let r = run(&args(&["repair", &a, &out])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        assert!(r.stdout.contains("fully recovered"), "{}", r.stdout);
        let e = read_experiment_file(&out).unwrap();
        assert!(e.provenance().is_original());
    }

    #[test]
    fn repair_truncated_file_exits_one_and_marks_provenance() {
        let bad = write_truncated("rep_cut.cube", 2.0);
        let out = tmp("rep_cut_out.cube").to_string_lossy().into_owned();
        let r = run(&args(&["repair", &bad, &out])).unwrap();
        assert_eq!(r.code, 1, "{}", r.stdout);
        assert!(r.stdout.contains("partial recovery"), "{}", r.stdout);
        assert!(r.stdout.contains("relint:"), "{}", r.stdout);
        let e = read_experiment_file(&out).unwrap();
        assert!(e.provenance().is_recovered());
        // The repaired file itself lints clean.
        let lint = run(&args(&["lint", &out])).unwrap();
        assert_eq!(lint.code, 0, "{}", lint.stdout);
    }

    #[test]
    fn repair_headless_file_exits_two() {
        let src = write_sample("rep_headless_src.cube", 1.0);
        let text = std::fs::read_to_string(&src).unwrap();
        let cut = text.find("<program").unwrap();
        let headless = tmp("rep_headless.cube");
        std::fs::write(&headless, &text[..cut]).unwrap();
        let headless = headless.to_string_lossy().into_owned();
        let out = tmp("rep_headless_out.cube").to_string_lossy().into_owned();
        let r = run(&args(&["repair", &headless, &out])).unwrap();
        assert_eq!(r.code, 2, "{}", r.stdout);
        assert!(r.stdout.contains("unrecoverable"), "{}", r.stdout);
        assert!(!std::path::Path::new(&out).exists());
        // An unreadable input is a hard usage-level error (exit 2 via Err).
        assert!(run(&args(&["repair", "/nonexistent/in.cube", &out])).is_err());
        assert!(run(&args(&["repair", &headless])).is_err());
    }

    #[test]
    fn keep_going_mean_matches_mean_of_survivors() {
        let a = write_sample("kg1.cube", 2.0);
        let b = write_sample("kg2.cube", 4.0);
        let broken = write_truncated("kg_broken.cube", 9.0);
        let degraded = tmp("kg_deg.cube").to_string_lossy().into_owned();
        let oracle = tmp("kg_oracle.cube").to_string_lossy().into_owned();
        let r = run(&args(&[
            "mean",
            &a,
            &broken,
            &b,
            "--keep-going",
            "-o",
            &degraded,
        ]))
        .unwrap();
        assert!(r.stdout.contains("skipped"), "{}", r.stdout);
        assert!(r.stdout.contains("used 2 of 3 inputs"), "{}", r.stdout);
        run(&args(&["mean", &a, &b, "-o", &oracle])).unwrap();
        let cmp = run(&args(&["cmp", &degraded, &oracle])).unwrap();
        assert_eq!(cmp.code, 0, "{}", cmp.stdout);
        // Without the flag the same run fails.
        assert!(run(&args(&["mean", &a, &broken, &b, "-o", &degraded])).is_err());
        // All operands broken is still an error.
        assert!(run(&args(&["mean", &broken, "--keep-going", "-o", &degraded])).is_err());
    }

    #[test]
    fn keep_going_merge_passes_through_survivor() {
        let a = write_sample("kgm.cube", 3.0);
        let broken = write_truncated("kgm_broken.cube", 1.0);
        let out = tmp("kgm_out.cube").to_string_lossy().into_owned();
        let r = run(&args(&["merge", &a, &broken, "--keep-going", "-o", &out])).unwrap();
        assert!(r.stdout.contains("used 1 of 2 inputs"), "{}", r.stdout);
        let cmp = run(&args(&["cmp", &out, &a])).unwrap();
        assert_eq!(cmp.code, 0, "{}", cmp.stdout);
        assert!(run(&args(&[
            "merge",
            &broken,
            &broken,
            "--keep-going",
            "-o",
            &out
        ]))
        .is_err());
    }

    #[test]
    fn pack_unpack_roundtrip_preserves_experiment() {
        let a = write_sample("pk.cube", 5.0);
        let packed = tmp("pk.cubec").to_string_lossy().into_owned();
        let unpacked = tmp("pk_back.cube").to_string_lossy().into_owned();
        let r = run(&args(&["pack", &a, &packed])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        let r = run(&args(&["unpack", &packed, &unpacked])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        // The XML -> cubec -> XML roundtrip is byte-identical: both
        // writers are canonical.
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&unpacked).unwrap()
        );
        assert!(run(&args(&["pack", &a])).is_err());
        assert!(run(&args(&["unpack", &a, &unpacked])).is_err());
    }

    #[test]
    fn cubec_accepted_everywhere_a_cube_is() {
        let a = write_sample("cc_a.cube", 2.0);
        let b = write_sample("cc_b.cube", 4.0);
        let ac = tmp("cc_a.cubec").to_string_lossy().into_owned();
        let bc = tmp("cc_b.cubec").to_string_lossy().into_owned();
        run(&args(&["pack", &a, &ac])).unwrap();
        run(&args(&["pack", &b, &bc])).unwrap();
        // info/stat/lint read the store directly.
        let r = run(&args(&["info", &ac])).unwrap();
        assert!(r.stdout.contains("2 processes"), "{}", r.stdout);
        let r = run(&args(&["lint", &ac])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        // Operators mix backends and write either format.
        let out_xml = tmp("cc_mean.cube").to_string_lossy().into_owned();
        let out_store = tmp("cc_mean.cubec").to_string_lossy().into_owned();
        run(&args(&["mean", &ac, &b, "-o", &out_xml])).unwrap();
        run(&args(&["mean", &a, &bc, "-o", &out_store])).unwrap();
        let cmp = run(&args(&["cmp", &out_xml, &out_store])).unwrap();
        assert_eq!(cmp.code, 0, "{}", cmp.stdout);
        let e = read_experiment_file(&out_xml).unwrap();
        assert_eq!(e.severity().values(), &[3.0, 3.0, 6.0, 6.0]);
    }

    #[test]
    fn stats_over_cubec_matches_stats_over_xml() {
        let a = write_sample("sg_a.cube", 2.0);
        let b = write_sample("sg_b.cube", 4.0);
        let ac = tmp("sg_a.cubec").to_string_lossy().into_owned();
        let bc = tmp("sg_b.cubec").to_string_lossy().into_owned();
        run(&args(&["pack", &a, &ac])).unwrap();
        run(&args(&["pack", &b, &bc])).unwrap();
        let from_xml = tmp("sg_xml.cube").to_string_lossy().into_owned();
        let from_store = tmp("sg_store.cube").to_string_lossy().into_owned();
        run(&args(&["stats", &from_xml, &a, &b])).unwrap();
        run(&args(&["stats", &from_store, &ac, &bc])).unwrap();
        // Same reduction from either backend, byte-identical output.
        assert_eq!(
            std::fs::read(&from_xml).unwrap(),
            std::fs::read(&from_store).unwrap()
        );
        // --keep-going skips a missing store operand like an XML one.
        let r = run(&args(&[
            "stats",
            &from_store,
            &ac,
            "/nonexistent/gone.cubec",
            &bc,
            "--keep-going",
        ]))
        .unwrap();
        assert!(r.stdout.contains("used 2 of 3 inputs"), "{}", r.stdout);
    }

    /// Writes a `.cubec` whose severity holds a NaN: the store writer
    /// encodes it, the strict reader rejects it (data model).
    fn write_nan_store(name: &str) -> String {
        let mut e = sample(2.0);
        e.severity_mut().values_mut()[1] = f64::NAN;
        let path = tmp(name);
        std::fs::write(&path, cube_store::write_store(&e)).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Writes a `.cubec` whose footer records the wrong whole-file CRC
    /// (the byte at `len - 16`); every section and page CRC still holds.
    fn write_bad_file_crc_store(name: &str) -> String {
        let mut bytes = cube_store::write_store(&sample(2.0));
        let n = bytes.len();
        bytes[n - 16] ^= 0xff;
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// Every operator subcommand refuses `bad` with the strict reader's
    /// message and writes nothing; with `--keep-going`, `stats` skips
    /// it and reduces over the rest.
    fn assert_operators_refuse(bad: &str, tag: &str) {
        let reason = cube_store::read_store_file(bad).unwrap_err().to_string();
        let ok_in = write_sample(&format!("{tag}_ok.cube"), 4.0);
        let out = tmp(&format!("{tag}_out.cube"));
        let _ = std::fs::remove_file(&out);
        let out = out.to_string_lossy().into_owned();
        let err = run(&args(&["stats", &out, bad, &ok_in])).unwrap_err();
        assert_eq!(err, format!("{bad}: {reason}"));
        assert!(!std::path::Path::new(&out).exists(), "stats wrote {out}");
        for cmd in ["diff", "merge", "mean", "sum", "min", "max", "stddev"] {
            let err = run(&args(&[cmd, &ok_in, bad, "-o", &out])).unwrap_err();
            assert!(err.contains(&reason), "{cmd}: {err}");
        }

        let r = run(&args(&["stats", &out, bad, &ok_in, "--keep-going"])).unwrap();
        assert!(
            r.stdout
                .contains(&format!("skipped {bad}: {reason}\nused 1 of 2 inputs\n")),
            "{}",
            r.stdout
        );
        let oracle = tmp(&format!("{tag}_oracle.cube"))
            .to_string_lossy()
            .into_owned();
        run(&args(&["stats", &oracle, &ok_in])).unwrap();
        assert_eq!(
            std::fs::read(&out).unwrap(),
            std::fs::read(&oracle).unwrap()
        );
    }

    #[test]
    fn stats_refuses_a_store_holding_nan() {
        let bad = write_nan_store("bug_nan.cubec");
        assert!(load(&bad).unwrap_err().contains("NaN"));
        assert_operators_refuse(&bad, "bug_nan");
    }

    #[test]
    fn stats_refuses_a_store_with_a_wrong_file_crc() {
        let bad = write_bad_file_crc_store("bug_crc.cubec");
        assert!(load(&bad).unwrap_err().contains("whole file"));
        assert_operators_refuse(&bad, "bug_crc");
    }

    #[test]
    fn keep_going_cannot_drop_a_diff_side() {
        let a = write_sample("kgd_a.cube", 2.0);
        let out = tmp("kgd_out.cube").to_string_lossy().into_owned();
        let missing = "/nonexistent/kgd_missing.cube";
        let err = run(&args(&["diff", &a, missing, "--keep-going", "-o", &out])).unwrap_err();
        assert!(err.contains(missing), "{err}");
        assert!(
            err.ends_with("(operand is structurally required; --keep-going cannot omit it)"),
            "{err}"
        );
        let err = run(&args(&["diff", missing, &a, "--keep-going", "-o", &out])).unwrap_err();
        assert!(err.contains("structurally required"), "{err}");
    }

    #[test]
    fn repair_cubec_zeroes_damaged_chunk_and_exits_one() {
        let a = write_sample("rs.cube", 3.0);
        let packed = tmp("rs.cubec").to_string_lossy().into_owned();
        run(&args(&["pack", &a, &packed])).unwrap();
        // Flip one byte in the severity pages (the last section before
        // the 16-byte footer).
        let mut bytes = std::fs::read(&packed).unwrap();
        let n = bytes.len();
        bytes[n - 24] ^= 0xff;
        std::fs::write(&packed, &bytes).unwrap();
        let out = tmp("rs_out.cubec").to_string_lossy().into_owned();
        let r = run(&args(&["repair", &packed, &out])).unwrap();
        assert_eq!(r.code, 1, "{}", r.stdout);
        assert!(r.stdout.contains("partial recovery"), "{}", r.stdout);
        assert!(
            r.stdout.contains("severity chunks recovered: 0 of 1"),
            "{}",
            r.stdout
        );
        assert!(
            r.stdout.contains("context: severity chunk 0"),
            "{}",
            r.stdout
        );
        let e = load(&out).unwrap();
        assert!(e.provenance().is_recovered());
        assert!(e.severity().values().iter().all(|&v| v == 0.0));
        // An intact store repairs to exit 0.
        let ok_in = tmp("rs_ok.cubec").to_string_lossy().into_owned();
        let ok_out = tmp("rs_ok_out.cubec").to_string_lossy().into_owned();
        run(&args(&["pack", &a, &ok_in])).unwrap();
        let r = run(&args(&["repair", &ok_in, &ok_out])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
    }

    #[test]
    fn repair_in_repository_reports_relative_origin() {
        // An object damaged inside a serve repository salvages with the
        // stable repository-relative path in its recovery note, not the
        // absolute path the repair happened to read.
        let root = tmp("origin_repo");
        let repo = cube_serve::Repository::open_or_init(&root, cube_xml::ReadLimits::default(), 4)
            .unwrap();
        let ingested = repo.ingest(&cube_store::write_store(&sample(5.0))).unwrap();
        let object = repo.object_path(&ingested.id);
        let mut bytes = std::fs::read(&object).unwrap();
        let n = bytes.len();
        bytes[n - 24] ^= 0xff;
        std::fs::write(&object, &bytes).unwrap();

        let out = tmp("origin_out.cubec").to_string_lossy().into_owned();
        let object_str = object.to_string_lossy().into_owned();
        let r = run(&args(&["repair", &object_str, &out])).unwrap();
        assert_eq!(r.code, 1, "{}", r.stdout);
        let repaired = load(&out).unwrap();
        let cube_model::Provenance::Recovered { note, .. } = repaired.provenance() else {
            panic!(
                "expected recovered provenance, got {:?}",
                repaired.provenance()
            );
        };
        let relative = cube_serve::Repository::relative_object_path(&ingested.id);
        assert!(
            note.starts_with(&format!("{relative}: ")),
            "note should lead with the repository-relative path: {note}"
        );
        assert!(
            !note.contains(&object_str),
            "note must not leak the absolute path: {note}"
        );

        // Outside a repository the note keeps its unprefixed form.
        let plain = tmp("origin_plain.cubec").to_string_lossy().into_owned();
        std::fs::write(&plain, std::fs::read(&object).unwrap()).unwrap();
        let out2 = tmp("origin_plain_out.cubec").to_string_lossy().into_owned();
        let r = run(&args(&["repair", &plain, &out2])).unwrap();
        assert_eq!(r.code, 1, "{}", r.stdout);
        let cube_model::Provenance::Recovered {
            note: plain_note, ..
        } = load(&out2).unwrap().provenance().clone()
        else {
            panic!("expected recovered provenance");
        };
        assert_eq!(
            format!("{relative}: {plain_note}"),
            *note,
            "origin must be a pure prefix over the default note"
        );
    }

    #[test]
    fn repair_xml_reports_damage_context() {
        let bad = write_truncated("ctx_cut.cube", 2.0);
        let out = tmp("ctx_out.cube").to_string_lossy().into_owned();
        let r = run(&args(&["repair", &bad, &out])).unwrap();
        assert_eq!(r.code, 1, "{}", r.stdout);
        assert!(
            r.stdout
                .contains("context: severity matrix for metric 'time'"),
            "{}",
            r.stdout
        );
    }

    #[test]
    fn keep_going_stats_minus_tracks_groups() {
        let a1 = write_sample("kgs1.cube", 4.0);
        let a2 = write_sample("kgs2.cube", 6.0);
        let broken = write_truncated("kgs_broken.cube", 8.0);
        let b1 = write_sample("kgs3.cube", 2.0);
        let out = tmp("kgs_out.cube").to_string_lossy().into_owned();
        // Head group loses the broken operand: diff(mean(a1, a2), mean(b1)).
        let r = run(&args(&[
            "stats",
            &out,
            &a1,
            &broken,
            &a2,
            &b1,
            "--minus",
            "1",
            "--keep-going",
        ]))
        .unwrap();
        assert!(r.stdout.contains("used 3 of 4 inputs"), "{}", r.stdout);
        let e = read_experiment_file(&out).unwrap();
        assert_eq!(e.severity().values(), &[3.0, 3.0, 6.0, 6.0]);
        // A group emptied by skipping is an error, not a silent zero.
        assert!(run(&args(&[
            "stats",
            &out,
            &a1,
            &broken,
            "--minus",
            "1",
            "--keep-going"
        ]))
        .is_err());
    }

    /// Builds a throwaway repository with one valid object, returning
    /// (root, valid object id).
    fn fsck_repo(name: &str) -> (PathBuf, String) {
        let root = tmp(name);
        let _ = std::fs::remove_dir_all(&root);
        let bytes = cube_store::write_store(&sample(4.0));
        let id = cube_serve::content_id(&bytes);
        let shard = root.join("objects").join(&id[..2]);
        std::fs::create_dir_all(&shard).unwrap();
        std::fs::write(
            root.join(cube_serve::REPO_MARKER),
            "cube experiment repository v1\n",
        )
        .unwrap();
        std::fs::write(shard.join(format!("{id}.cubec")), &bytes).unwrap();
        (root, id)
    }

    #[test]
    fn fsck_clean_repository_exits_zero() {
        let (root, id) = fsck_repo("fsck_clean");
        let r = run(&args(&["fsck", root.to_str().unwrap()])).unwrap();
        assert_eq!(r.code, 0, "{}", r.stdout);
        assert!(r
            .stdout
            .contains(&format!("objects/{}/{id}.cubec: ok", &id[..2])));
        assert!(r.stdout.contains("1 object checked: 0 errors, 0 warnings"));
    }

    #[test]
    fn fsck_grades_corrupt_misnamed_and_temp_files() {
        let (root, id) = fsck_repo("fsck_dirty");
        let shard = root.join("objects").join(&id[..2]);
        // Orphaned ingest temp files, as earlier servers and as
        // commit_file name them → warnings.
        std::fs::write(shard.join(".tmp-999-1"), b"half an upload").unwrap();
        let orphan = format!(".{id}.cubec.tmp.999.2");
        std::fs::write(shard.join(&orphan), b"half an upload").unwrap();
        // Valid container stored under the wrong name → misnamed error.
        let bytes = cube_store::write_store(&sample(7.0));
        std::fs::create_dir_all(root.join("objects/aa")).unwrap();
        std::fs::write(root.join("objects/aa/aaaaaaaaaaaaaaaa.cubec"), &bytes).unwrap();
        // Flipped byte in the severity region → corrupt error.
        let mut broken = cube_store::write_store(&sample(9.0));
        let flip = broken.len() / 2;
        broken[flip] ^= 0xFF;
        let broken_id = cube_serve::content_id(&broken);
        let bshard = root.join("objects").join(&broken_id[..2]);
        std::fs::create_dir_all(&bshard).unwrap();
        std::fs::write(bshard.join(format!("{broken_id}.cubec")), &broken).unwrap();

        let r = run(&args(&["fsck", root.to_str().unwrap()])).unwrap();
        assert_eq!(r.code, 2, "{}", r.stdout);
        assert!(r.stdout.contains("misnamed"), "{}", r.stdout);
        assert!(r.stdout.contains("corrupt"), "{}", r.stdout);
        assert!(r.stdout.contains(".tmp-999-1: temp"), "{}", r.stdout);
        assert!(
            r.stdout.contains(&format!("{orphan}: temp")),
            "{}",
            r.stdout
        );

        let j = run(&args(&["fsck", root.to_str().unwrap(), "--format", "json"])).unwrap();
        assert_eq!(j.code, 2);
        assert!(
            j.stdout.contains("\"verdict\":\"misnamed\""),
            "{}",
            j.stdout
        );
        assert!(j.stdout.contains("\"verdict\":\"corrupt\""), "{}", j.stdout);
        assert!(
            j.stdout
                .contains("\"errors\":2,\"warnings\":2,\"ok\":false"),
            "{}",
            j.stdout
        );
    }

    #[test]
    fn fsck_warnings_only_exits_one_and_rejects_non_repositories() {
        let (root, _) = fsck_repo("fsck_warn");
        std::fs::write(root.join("objects").join("notes.txt"), b"hi").unwrap();
        let r = run(&args(&["fsck", root.to_str().unwrap()])).unwrap();
        assert_eq!(r.code, 1, "{}", r.stdout);
        assert!(
            r.stdout.contains("objects/notes.txt: stray"),
            "{}",
            r.stdout
        );

        let plain = tmp("fsck_not_repo");
        std::fs::create_dir_all(&plain).unwrap();
        let r = run(&args(&["fsck", plain.to_str().unwrap()])).unwrap();
        assert_eq!(r.code, 2);
        assert!(r.stdout.contains("not a repository"), "{}", r.stdout);
    }
}
