//! Streaming `.cube` writer: model straight to bytes.
//!
//! [`CubeWriter`] walks an [`Experiment`] and emits the `.cube` XML
//! dialect directly into any [`io::Write`], without building element
//! trees or intermediate strings. The golden-bytes test in
//! `tests/format_stability.rs` pins its output, and the in-crate DOM
//! oracle must serialize every experiment to the same bytes.
//!
//! The severity section is formatted in blocks of whole rows of one
//! metric, up to 4,096 values each (one `.cubec` page, the kernel's
//! block) unless a single row is longer. A wave of 16 blocks is
//! formatted on the `rayon` pool, each task into a reused buffer it
//! owns while it runs, then written in order, so the bytes are the
//! same at every thread count and the writer's transient memory is one
//! wave of text (~1.4 MB of full-precision values) whatever the
//! experiment's size. Wrap the sink in a [`std::io::BufWriter`] when
//! writing to a file; the metadata sections issue many small
//! `write_all` calls.

use std::io;

use rayon::prelude::*;

use cube_model::{Experiment, MachineId, Metadata, MetricId, Provenance};

use crate::error::XmlError;
use crate::escape::{escape_attr_cow, escape_text_cow};
use crate::format::FORMAT_VERSION;

/// Event-based writer producing the `.cube` format.
///
/// ```
/// use cube_model::builder::single_threaded_system;
/// use cube_model::{ExperimentBuilder, RegionKind, Unit};
/// use cube_xml::writer::CubeWriter;
///
/// let mut b = ExperimentBuilder::new("demo");
/// let t = b.def_metric("time", Unit::Seconds, "", None);
/// let m = b.def_module("a.c", "/a.c");
/// let r = b.def_region("main", m, RegionKind::Function, 1, 2);
/// let cs = b.def_call_site("a.c", 1, r);
/// let root = b.def_call_node(cs, None);
/// let ts = single_threaded_system(&mut b, 1);
/// b.set_severity(t, root, ts[0], 1.5);
/// let exp = b.build().unwrap();
///
/// let mut out = Vec::new();
/// CubeWriter::new(&mut out).write(&exp).unwrap();
/// assert!(out.starts_with(b"<?xml"));
/// ```
pub struct CubeWriter<W: io::Write> {
    out: W,
}

/// Most values formatted into one block, unless a single row is longer.
const BLOCK_VALUES: usize = 4096;

/// Blocks formatted on the pool at once, then written in order.
const WAVE_BLOCKS: usize = 16;

impl<W: io::Write> CubeWriter<W> {
    /// Creates a writer over any byte sink.
    pub fn new(out: W) -> Self {
        Self { out }
    }

    /// Serializes a whole experiment, XML declaration included.
    pub fn write(mut self, exp: &Experiment) -> Result<W, XmlError> {
        self.write_inner(exp)?;
        Ok(self.out)
    }

    fn write_inner(&mut self, exp: &Experiment) -> io::Result<()> {
        let md = exp.metadata();
        self.out
            .write_all(b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n")?;
        writeln!(self.out, "<cube version=\"{FORMAT_VERSION}\">")?;
        self.provenance(exp.provenance())?;
        self.metrics(md)?;
        self.program(md)?;
        self.system(md)?;
        if !md.topologies().is_empty() {
            self.topologies(md)?;
        }
        self.severity(exp)?;
        self.out.write_all(b"</cube>\n")
    }

    // -- low-level tag emission --------------------------------------------

    fn indent(&mut self, depth: usize) -> io::Result<()> {
        const SPACES: &[u8] = b"                                ";
        let mut n = depth * 2;
        while n > SPACES.len() {
            self.out.write_all(SPACES)?;
            n -= SPACES.len();
        }
        self.out.write_all(&SPACES[..n])
    }

    /// Emits `<name` plus attributes, leaving the tag open.
    fn open_tag(&mut self, depth: usize, name: &str, attrs: &[(&str, &str)]) -> io::Result<()> {
        self.indent(depth)?;
        write!(self.out, "<{name}")?;
        for (k, v) in attrs {
            write!(self.out, " {k}=\"{}\"", escape_attr_cow(v))?;
        }
        Ok(())
    }

    /// Emits a childless element: `<name a="v"/>`.
    fn empty(&mut self, depth: usize, name: &str, attrs: &[(&str, &str)]) -> io::Result<()> {
        self.open_tag(depth, name, attrs)?;
        self.out.write_all(b"/>\n")
    }

    /// Emits an element whose only content is text, on one line.
    fn text_element(
        &mut self,
        depth: usize,
        name: &str,
        attrs: &[(&str, &str)],
        text: &str,
    ) -> io::Result<()> {
        self.open_tag(depth, name, attrs)?;
        write!(self.out, ">{}</{name}>", escape_text_cow(text))?;
        self.out.write_all(b"\n")
    }

    /// Closes an `open_tag` that will have element children.
    fn children_follow(&mut self) -> io::Result<()> {
        self.out.write_all(b">\n")
    }

    fn close(&mut self, depth: usize, name: &str) -> io::Result<()> {
        self.indent(depth)?;
        writeln!(self.out, "</{name}>")
    }

    // -- sections ----------------------------------------------------------

    fn provenance(&mut self, p: &Provenance) -> io::Result<()> {
        match p {
            Provenance::Original { name } => {
                self.empty(1, "provenance", &[("kind", "original"), ("label", name)])
            }
            Provenance::Derived { operator, operands } => {
                let attrs = [("kind", "derived"), ("operator", operator.as_str())];
                if operands.is_empty() {
                    return self.empty(1, "provenance", &attrs);
                }
                self.open_tag(1, "provenance", &attrs)?;
                self.children_follow()?;
                for op in operands {
                    self.text_element(2, "operand", &[], op)?;
                }
                self.close(1, "provenance")
            }
            Provenance::Recovered { source, note } => self.empty(
                1,
                "provenance",
                &[("kind", "recovered"), ("label", source), ("note", note)],
            ),
        }
    }

    fn metrics(&mut self, md: &Metadata) -> io::Result<()> {
        if md.metric_roots().is_empty() {
            return self.empty(1, "metrics", &[]);
        }
        self.open_tag(1, "metrics", &[])?;
        self.children_follow()?;
        for &root in md.metric_roots() {
            self.metric_tree(md, root, 2)?;
        }
        self.close(1, "metrics")
    }

    fn metric_tree(&mut self, md: &Metadata, id: MetricId, depth: usize) -> io::Result<()> {
        let m = md.metric(id);
        let id_str = id.raw().to_string();
        let attrs = [
            ("id", id_str.as_str()),
            ("name", m.name.as_str()),
            ("uom", m.unit.as_str()),
            ("descr", m.description.as_str()),
        ];
        let children = md.metric_children(id);
        if children.is_empty() {
            return self.empty(depth, "metric", &attrs);
        }
        self.open_tag(depth, "metric", &attrs)?;
        self.children_follow()?;
        for &child in children {
            self.metric_tree(md, child, depth + 1)?;
        }
        self.close(depth, "metric")
    }

    fn program(&mut self, md: &Metadata) -> io::Result<()> {
        let empty = md.modules().is_empty()
            && md.regions().is_empty()
            && md.call_sites().is_empty()
            && md.call_roots().is_empty();
        if empty {
            return self.empty(1, "program", &[]);
        }
        self.open_tag(1, "program", &[])?;
        self.children_follow()?;
        for (i, m) in md.modules().iter().enumerate() {
            self.empty(
                2,
                "module",
                &[
                    ("id", &i.to_string()),
                    ("name", m.name.as_str()),
                    ("path", m.path.as_str()),
                ],
            )?;
        }
        for (i, r) in md.regions().iter().enumerate() {
            self.empty(
                2,
                "region",
                &[
                    ("id", &i.to_string()),
                    ("mod", &r.module.raw().to_string()),
                    ("name", r.name.as_str()),
                    ("kind", r.kind.as_str()),
                    ("begin", &r.begin_line.to_string()),
                    ("end", &r.end_line.to_string()),
                ],
            )?;
        }
        for (i, cs) in md.call_sites().iter().enumerate() {
            self.empty(
                2,
                "csite",
                &[
                    ("id", &i.to_string()),
                    ("file", cs.file.as_str()),
                    ("line", &cs.line.to_string()),
                    ("callee", &cs.callee.raw().to_string()),
                ],
            )?;
        }
        for &root in md.call_roots() {
            self.cnode_tree(md, root, 2)?;
        }
        self.close(1, "program")
    }

    fn cnode_tree(
        &mut self,
        md: &Metadata,
        id: cube_model::CallNodeId,
        depth: usize,
    ) -> io::Result<()> {
        let n = md.call_node(id);
        let attrs = [
            ("id", id.raw().to_string()),
            ("csite", n.call_site.raw().to_string()),
        ];
        let attrs: Vec<(&str, &str)> = attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let children = md.call_node_children(id);
        if children.is_empty() {
            return self.empty(depth, "cnode", &attrs);
        }
        self.open_tag(depth, "cnode", &attrs)?;
        self.children_follow()?;
        for &child in children {
            self.cnode_tree(md, child, depth + 1)?;
        }
        self.close(depth, "cnode")
    }

    fn system(&mut self, md: &Metadata) -> io::Result<()> {
        if md.machines().is_empty() {
            return self.empty(1, "system", &[]);
        }
        self.open_tag(1, "system", &[])?;
        self.children_follow()?;
        for (mi, machine) in md.machines().iter().enumerate() {
            let mid = MachineId::from_index(mi);
            let m_attrs = [("id", mi.to_string()), ("name", machine.name.clone())];
            let m_attrs: Vec<(&str, &str)> =
                m_attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let nodes = md.nodes_of_machine(mid);
            if nodes.is_empty() {
                self.empty(2, "machine", &m_attrs)?;
                continue;
            }
            self.open_tag(2, "machine", &m_attrs)?;
            self.children_follow()?;
            for &nid in nodes {
                let node = md.node(nid);
                let n_attrs = [("id", nid.raw().to_string()), ("name", node.name.clone())];
                let n_attrs: Vec<(&str, &str)> =
                    n_attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
                let procs = md.processes_of_node(nid);
                if procs.is_empty() {
                    self.empty(3, "node", &n_attrs)?;
                    continue;
                }
                self.open_tag(3, "node", &n_attrs)?;
                self.children_follow()?;
                for &pid in procs {
                    let process = md.process(pid);
                    let p_attrs = [
                        ("id", pid.raw().to_string()),
                        ("rank", process.rank.to_string()),
                        ("name", process.name.clone()),
                    ];
                    let p_attrs: Vec<(&str, &str)> =
                        p_attrs.iter().map(|(k, v)| (*k, v.as_str())).collect();
                    let threads = md.threads_of_process(pid);
                    if threads.is_empty() {
                        self.empty(4, "process", &p_attrs)?;
                        continue;
                    }
                    self.open_tag(4, "process", &p_attrs)?;
                    self.children_follow()?;
                    for &tid in threads {
                        let thread = md.thread(tid);
                        self.empty(
                            5,
                            "thread",
                            &[
                                ("id", &tid.raw().to_string()),
                                ("num", &thread.number.to_string()),
                                ("name", thread.name.as_str()),
                            ],
                        )?;
                    }
                    self.close(4, "process")?;
                }
                self.close(3, "node")?;
            }
            self.close(2, "machine")?;
        }
        self.close(1, "system")
    }

    fn topologies(&mut self, md: &Metadata) -> io::Result<()> {
        self.open_tag(1, "topologies", &[])?;
        self.children_follow()?;
        for t in md.topologies() {
            let dims = join_u32(&t.dims);
            let periodic = t
                .periodic
                .iter()
                .map(|&p| if p { "1" } else { "0" })
                .collect::<Vec<_>>()
                .join(" ");
            let attrs = [
                ("name", t.name.as_str()),
                ("dims", dims.as_str()),
                ("periodic", periodic.as_str()),
            ];
            if t.coords.is_empty() {
                self.empty(2, "cart", &attrs)?;
                continue;
            }
            self.open_tag(2, "cart", &attrs)?;
            self.children_follow()?;
            for (p, c) in &t.coords {
                self.text_element(
                    3,
                    "coord",
                    &[("proc", p.raw().to_string().as_str())],
                    &join_u32(c),
                )?;
            }
            self.close(2, "cart")?;
        }
        self.close(1, "topologies")
    }

    fn severity(&mut self, exp: &Experiment) -> io::Result<()> {
        let sev = exp.severity();
        let (nm, nc, nt) = sev.shape();
        let rows_per_block = (BLOCK_VALUES / nt.max(1)).max(1);
        let blocks_per_metric = nc.div_ceil(rows_per_block);
        let blocks = nm * blocks_per_metric;
        // One wave of block text, reused from wave to wave; numbers
        // never need escaping, so blocks go straight to the sink.
        let mut texts = vec![String::new(); WAVE_BLOCKS.min(blocks)];
        // <severity> and each <matrix> open lazily on their first
        // non-zero row, so all-zero matrices vanish and an all-zero
        // experiment collapses to a self-closing tag.
        let mut open_matrix = None;
        for first in (0..blocks).step_by(WAVE_BLOCKS) {
            let wave = &mut texts[..WAVE_BLOCKS.min(blocks - first)];
            // (metric, first call node, rows) of the wave's `k`-th block.
            let block = |k: usize| {
                let (m, b) = (
                    (first + k) / blocks_per_metric,
                    (first + k) % blocks_per_metric,
                );
                let c = b * rows_per_block;
                (m, c, rows_per_block.min(nc - c))
            };
            wave.par_iter_mut()
                .enumerate()
                .with_min_len(1)
                .for_each(|(k, text)| {
                    let (m, c, rows) = block(k);
                    let start = (m * nc + c) * nt;
                    format_block(text, &sev.values()[start..start + rows * nt], nt, c);
                });
            for (k, text) in wave.iter().enumerate() {
                let m = block(k).0;
                if text.is_empty() {
                    continue;
                }
                if open_matrix != Some(m) {
                    if open_matrix.is_some() {
                        self.close(2, "matrix")?;
                    } else {
                        self.open_tag(1, "severity", &[])?;
                        self.children_follow()?;
                    }
                    open_matrix = Some(m);
                    self.open_tag(2, "matrix", &[("metric", &m.to_string())])?;
                    self.children_follow()?;
                }
                self.out.write_all(text.as_bytes())?;
            }
        }
        if open_matrix.is_none() {
            return self.empty(1, "severity", &[]);
        }
        self.close(2, "matrix")?;
        self.close(1, "severity")
    }
}

/// Formats the `<row>` lines of `rows` — consecutive whole rows of one
/// metric, `nt` values each, the first for call node `first_cnode` —
/// into `slot`, skipping rows that are all zero.
///
/// The text grows in a `String` this task owns, moved out of `slot` and
/// stored back once. The wave's slots sit 24 bytes apart in one `Vec`;
/// pushing into `slot` itself would make tasks on neighbouring blocks
/// write one cache line on every push, and the pool would not scale.
fn format_block(slot: &mut String, rows: &[f64], nt: usize, first_cnode: usize) {
    let mut text = std::mem::take(slot);
    text.clear();
    for (i, row) in rows.chunks_exact(nt.max(1)).enumerate() {
        if row.iter().all(|&v| v == 0.0) {
            continue;
        }
        text.push_str("      <row cnode=\"");
        crate::fmt64::push_u64(&mut text, (first_cnode + i) as u64);
        text.push_str("\">");
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                text.push(' ');
            }
            // Shortest representation, byte-identical to `{}`, keeps
            // the f64 round-trip exact.
            crate::fmt64::push_f64(&mut text, v);
        }
        text.push_str("</row>\n");
    }
    *slot = text;
}

fn join_u32(values: &[u32]) -> String {
    values
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    fn tiny() -> Experiment {
        let mut b = ExperimentBuilder::new("writer test");
        let t = b.def_metric("time", Unit::Seconds, "total", None);
        let m = b.def_module("a.c", "/a.c");
        let r = b.def_region("main", m, RegionKind::Function, 1, 2);
        let cs = b.def_call_site("a.c", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 2);
        b.set_severity(t, root, ts[0], 1.5);
        b.build().unwrap()
    }

    #[test]
    fn all_zero_severity_self_closes() {
        let mut e = tiny();
        e.severity_mut().values_mut().fill(0.0);
        let out = CubeWriter::new(Vec::new()).write(&e).unwrap();
        let xml = String::from_utf8(out).unwrap();
        assert!(xml.contains("<severity/>"));
        assert!(!xml.contains("<matrix"));
    }

    #[test]
    fn io_errors_surface() {
        struct Fail;
        impl io::Write for Fail {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("sink full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let e = tiny();
        assert!(matches!(
            CubeWriter::new(Fail).write(&e),
            Err(XmlError::Io { .. })
        ));
    }

    #[test]
    fn recovered_provenance_writes_and_reads_back() {
        let mut e = tiny();
        e.set_provenance(Provenance::recovered(
            "run 1",
            "damaged at 3:1; 0 rows recovered",
        ));
        let out = CubeWriter::new(Vec::new()).write(&e).unwrap();
        let xml = String::from_utf8(out).unwrap();
        assert!(xml.contains("kind=\"recovered\""), "{xml}");
        let back = crate::format::read_experiment(&xml).unwrap();
        assert_eq!(back.provenance(), e.provenance());
    }
}
