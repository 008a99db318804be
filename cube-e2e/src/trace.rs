//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every thread that records owns a [`Recorder`]; spans stay in memory
//! and are collected and written out once the run ends. A span names
//! the layer call it timed, the request it served, and the span that
//! caused it, so self time can be derived afterwards: a span's duration
//! minus the part of it its children cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The request the call served.
    pub req: u64,
    /// Unique id: recorder index in the high 32 bits.
    pub id: u64,
    /// The span this call ran inside of, if any.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `algebra.kernel`.
    pub name: &'static str,
    /// Index of the recording thread.
    pub thread: u32,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
    /// Attributes: byte and value counts, and 0/1 flags such as `hit`.
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The value of attribute `key`.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Adds an attribute.
    pub fn with(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.attrs.push((key, value));
        self
    }
}

static RECORDERS: AtomicU32 = AtomicU32::new(0);

/// A per-thread span store with a stack of open spans.
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    next: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder measuring from `epoch`, shared by all recorders of a
    /// run so their spans line up.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            thread: RECORDERS.fetch_add(1, Ordering::Relaxed),
            next: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// `at` in ns since the epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Now, in ns since the epoch.
    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn parent(&self) -> Option<u64> {
        self.open.last().map(|&i| self.spans[i].id)
    }

    /// Records a finished span as a child of the innermost open span,
    /// or as a root with `root`. Returns it for attributes.
    pub fn add(
        &mut self,
        name: &'static str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
        root: bool,
    ) -> &mut Span {
        let id = (u64::from(self.thread) << 32) | self.next;
        self.next += 1;
        let parent = if root { None } else { self.parent() };
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            thread: self.thread,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        });
        self.spans.last_mut().expect("just pushed")
    }

    /// Opens a span that started at `start_ns`, nested in the innermost
    /// open span. Returns its id.
    pub fn open_at(&mut self, name: &'static str, req: u64, start_ns: u64) -> u64 {
        let id = self.add(name, req, start_ns, start_ns, false).id;
        self.open.push(self.spans.len() - 1);
        id
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, req: u64) -> u64 {
        self.open_at(name, req, self.now())
    }

    /// Closes the innermost open span at `end_ns` and returns it.
    pub fn close_at(&mut self, end_ns: u64) -> &mut Span {
        let i = self.open.pop().expect("close matches an open span");
        let span = &mut self.spans[i];
        span.end_ns = end_ns;
        span
    }

    /// Closes the innermost open span now and returns it.
    pub fn close(&mut self) -> &mut Span {
        self.close_at(self.now())
    }

    /// Times `f` as a span nested in the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.add(name, req, start, end, false);
        out
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "every span was closed");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own. Children on other threads
/// count, and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// The share of the wall time of root spans named `root` that no child
/// stage accounts for: `1 − Σ stage time ÷ Σ request wall time`.
pub fn unattributed_frac(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut wall) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name == root && s.parent.is_none())
    {
        own += selfs[&s.id];
        wall += s.dur_ns();
    }
    if wall == 0 {
        0.0
    } else {
        own as f64 / wall as f64
    }
}

/// Writes one JSON object per span, self time included.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{{\"req\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"attrs\":{{",
            s.req, s.id, s.name, s.thread, s.start_ns, s.end_ns, selfs[&s.id]
        )?;
        for (i, (k, v)) in s.attrs.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(out, "{sep}\"{k}\":{v}")?;
        }
        writeln!(out, "}}}}")?;
    }
    out.flush()
}
