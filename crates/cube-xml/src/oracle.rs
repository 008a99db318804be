//! The DOM reader and writer, kept only as the differential oracle for
//! the streaming pair.
//!
//! The oracle builds and walks an explicit element tree with code that
//! shares nothing with `reader.rs` and `writer.rs` but the lexer and
//! the escaping rules, and it formats severities with `{}` rather than
//! `fmt64`. The tests below require both pipelines to agree: byte for
//! byte on output, value for value on input.

use std::fmt::Write as _;
use std::str::FromStr;

use cube_model::{
    CallNode, CallNodeId, CallSite, CallSiteId, CartTopology, Experiment, Machine, MachineId,
    Metadata, Metric, MetricId, Module, ModuleId, NodeId, Process, ProcessId, Provenance, Region,
    RegionId, RegionKind, Severity, SystemNode, Thread, Unit,
};

use crate::error::{Position, XmlError};
use crate::escape::{escape_attr, escape_text};
use crate::format::FORMAT_VERSION;
use crate::lexer::{Lexer, XmlEvent};

// -- the tree ------------------------------------------------------------------

/// A child of an element. The parser drops whitespace-only text
/// between elements and delivers CDATA as literal text.
enum Node {
    Element(Element),
    Text(String),
}

#[derive(Default)]
struct Element {
    name: String,
    attributes: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    fn attr(mut self, key: &str, value: impl ToString) -> Self {
        self.attributes.push((key.to_string(), value.to_string()));
        self
    }

    fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    fn text(mut self, text: String) -> Self {
        self.children.push(Node::Text(text));
        self
    }

    fn get(&self, key: &str) -> Option<&str> {
        let mut found = self.attributes.iter().filter(|(k, _)| k == key);
        found.next().map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, XmlError> {
        self.get(key).ok_or_else(|| {
            let name = &self.name;
            XmlError::format(format!(
                "element <{name}> is missing required attribute '{key}'"
            ))
        })
    }

    fn parse<T: FromStr>(&self, key: &str) -> Result<T, XmlError> {
        let raw = self.require(key)?;
        raw.parse().map_err(|_| {
            let (name, ty) = (&self.name, std::any::type_name::<T>());
            XmlError::value(format!(
                "attribute '{key}'=\"{raw}\" of <{name}> does not parse as {ty}"
            ))
        })
    }

    fn elements<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter_map(move |c| match c {
            Node::Element(e) if e.name == name => Some(e),
            _ => None,
        })
    }

    fn require_element<'a>(&'a self, name: &'a str) -> Result<&'a Element, XmlError> {
        self.elements(name).next().ok_or_else(|| {
            let parent = &self.name;
            XmlError::format(format!(
                "element <{parent}> is missing required child <{name}>"
            ))
        })
    }

    /// Concatenated direct text children.
    fn text_content(&self) -> String {
        let texts = self.children.iter().filter_map(|c| match c {
            Node::Text(t) => Some(t.as_str()),
            Node::Element(_) => None,
        });
        texts.collect()
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = write!(out, "{indent}<{}", self.name);
        for (k, v) in &self.attributes {
            let _ = write!(out, " {k}=\"{}\"", escape_attr(v));
        }
        if self.children.is_empty() {
            out.push_str("/>\n");
            return;
        }
        if self.children.iter().all(|c| matches!(c, Node::Text(_))) {
            out.push('>');
            for c in &self.children {
                if let Node::Text(t) = c {
                    out.push_str(&escape_text(t));
                }
            }
            let _ = writeln!(out, "</{}>", self.name);
            return;
        }
        out.push_str(">\n");
        for c in &self.children {
            match c {
                Node::Element(e) => e.write_into(out, depth + 1),
                Node::Text(t) if !t.trim().is_empty() => {
                    let _ = writeln!(out, "{indent}  {}", escape_text(t.trim()));
                }
                Node::Text(_) => {}
            }
        }
        let _ = writeln!(out, "{indent}</{}>", self.name);
    }
}

/// Parses a document into its root element, checking well-formedness.
fn parse_document(input: &str) -> Result<Element, XmlError> {
    let mut lexer = Lexer::new(input);
    let mut stack: Vec<Element> = Vec::new();
    let mut root: Option<Element> = None;
    while let Some(ev) = lexer.next_event()? {
        let at = lexer.position();
        let done = match ev {
            XmlEvent::Declaration | XmlEvent::Comment(_) => continue,
            XmlEvent::StartTag {
                name,
                attributes,
                self_closing,
            } => {
                if root.is_some() && stack.is_empty() {
                    let msg = "content after the document's root element";
                    return Err(XmlError::malformed(at, msg));
                }
                let mut elem = Element::new(name);
                for (k, v) in attributes {
                    elem = elem.attr(k, v);
                }
                if !self_closing {
                    stack.push(elem);
                    continue;
                }
                elem
            }
            XmlEvent::EndTag { name } => {
                let elem = stack.pop().ok_or_else(|| {
                    XmlError::malformed(at, format!("unexpected closing tag </{name}>"))
                })?;
                if elem.name != name {
                    let msg = format!("<{}> closed by </{name}>", elem.name);
                    return Err(XmlError::malformed(at, msg));
                }
                elem
            }
            XmlEvent::Text(t) => {
                match stack.last_mut() {
                    _ if t.trim().is_empty() => {}
                    Some(top) => top.children.push(Node::Text(t.into_owned())),
                    None => return Err(XmlError::malformed(at, "text outside the root element")),
                }
                continue;
            }
            XmlEvent::CData(t) => {
                let top = stack
                    .last_mut()
                    .ok_or_else(|| XmlError::malformed(at, "CDATA outside the root element"))?;
                top.children.push(Node::Text(t.to_string()));
                continue;
            }
        };
        match stack.last_mut() {
            Some(top) => top.children.push(Node::Element(done)),
            None => root = Some(done),
        }
    }
    if let Some(open) = stack.last() {
        let msg = format!("unclosed element <{}>", open.name);
        return Err(XmlError::malformed(lexer.position(), msg));
    }
    let start = Position { line: 1, column: 1 };
    root.ok_or_else(|| XmlError::malformed(start, "document has no root element"))
}

// -- writing -------------------------------------------------------------------

/// Serializes an experiment by building the element tree first.
fn write_experiment_dom(exp: &Experiment) -> String {
    let md = exp.metadata();
    let mut root = Element::new("cube")
        .attr("version", FORMAT_VERSION)
        .child(provenance_element(exp.provenance()))
        .child(metrics_element(md))
        .child(program_element(md))
        .child(system_element(md));
    if !md.topologies().is_empty() {
        root = root.child(topologies_element(md));
    }
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    root.child(severity_element(exp)).write_into(&mut out, 0);
    out
}

fn provenance_element(p: &Provenance) -> Element {
    let e = Element::new("provenance");
    match p {
        Provenance::Original { name } => e.attr("kind", "original").attr("label", name),
        Provenance::Derived { operator, operands } => {
            let e = e.attr("kind", "derived").attr("operator", operator);
            operands
                .iter()
                .fold(e, |e, op| e.child(Element::new("operand").text(op.clone())))
        }
        Provenance::Recovered { source, note } => e
            .attr("kind", "recovered")
            .attr("label", source)
            .attr("note", note),
    }
}

fn metrics_element(md: &Metadata) -> Element {
    // Metric trees are written nested, in id order within each level.
    fn emit(md: &Metadata, id: MetricId) -> Element {
        let m = md.metric(id);
        let e = Element::new("metric")
            .attr("id", id.raw())
            .attr("name", &m.name)
            .attr("uom", m.unit.as_str())
            .attr("descr", &m.description);
        let children = md.metric_children(id);
        children.iter().fold(e, |e, &c| e.child(emit(md, c)))
    }
    let roots = md.metric_roots().iter();
    roots.fold(Element::new("metrics"), |e, &r| e.child(emit(md, r)))
}

fn program_element(md: &Metadata) -> Element {
    let mut out = Element::new("program");
    for (i, m) in md.modules().iter().enumerate() {
        let e = Element::new("module").attr("id", i).attr("name", &m.name);
        out = out.child(e.attr("path", &m.path));
    }
    for (i, r) in md.regions().iter().enumerate() {
        let e = Element::new("region")
            .attr("id", i)
            .attr("mod", r.module.raw())
            .attr("name", &r.name)
            .attr("kind", r.kind.as_str());
        out = out.child(e.attr("begin", r.begin_line).attr("end", r.end_line));
    }
    for (i, cs) in md.call_sites().iter().enumerate() {
        let e = Element::new("csite").attr("id", i).attr("file", &cs.file);
        out = out.child(e.attr("line", cs.line).attr("callee", cs.callee.raw()));
    }
    // Call trees nested like metrics.
    fn emit(md: &Metadata, id: CallNodeId) -> Element {
        let e = Element::new("cnode")
            .attr("id", id.raw())
            .attr("csite", md.call_node(id).call_site.raw());
        let children = md.call_node_children(id);
        children.iter().fold(e, |e, &c| e.child(emit(md, c)))
    }
    md.call_roots()
        .iter()
        .fold(out, |e, &r| e.child(emit(md, r)))
}

fn system_element(md: &Metadata) -> Element {
    let mut out = Element::new("system");
    for (mi, machine) in md.machines().iter().enumerate() {
        let mut me = Element::new("machine")
            .attr("id", mi)
            .attr("name", &machine.name);
        for &nid in md.nodes_of_machine(MachineId::from_index(mi)) {
            let node = md.node(nid);
            let mut ne = Element::new("node")
                .attr("id", nid.raw())
                .attr("name", &node.name);
            for &pid in md.processes_of_node(nid) {
                let process = md.process(pid);
                let mut pe = Element::new("process")
                    .attr("id", pid.raw())
                    .attr("rank", process.rank)
                    .attr("name", &process.name);
                for &tid in md.threads_of_process(pid) {
                    let thread = md.thread(tid);
                    let te = Element::new("thread").attr("id", tid.raw());
                    pe = pe.child(te.attr("num", thread.number).attr("name", &thread.name));
                }
                ne = ne.child(pe);
            }
            me = me.child(ne);
        }
        out = out.child(me);
    }
    out
}

fn topologies_element(md: &Metadata) -> Element {
    let join = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(" ");
    let mut out = Element::new("topologies");
    for t in md.topologies() {
        let periodic: Vec<u32> = t.periodic.iter().map(|&p| u32::from(p)).collect();
        let mut cart = Element::new("cart")
            .attr("name", &t.name)
            .attr("dims", join(&t.dims))
            .attr("periodic", join(&periodic));
        for (p, c) in &t.coords {
            cart = cart.child(Element::new("coord").attr("proc", p.raw()).text(join(c)));
        }
        out = out.child(cart);
    }
    out
}

fn severity_element(exp: &Experiment) -> Element {
    let md = exp.metadata();
    let sev = exp.severity();
    let mut out = Element::new("severity");
    for m in md.metric_ids() {
        let mut matrix = Element::new("matrix").attr("metric", m.raw());
        for c in md.call_node_ids() {
            let row = sev.row(m, c);
            if row.iter().all(|&v| v == 0.0) {
                continue;
            }
            // Deliberately std's formatter, not `fmt64`: an independent
            // formatting path makes the byte-equality tests a real
            // cross-check of the streaming writer's fast paths.
            let text = row.iter().map(|v| format!("{v}")).collect::<Vec<_>>();
            matrix = matrix.child(
                Element::new("row")
                    .attr("cnode", c.raw())
                    .text(text.join(" ")),
            );
        }
        if !matrix.children.is_empty() {
            out = out.child(matrix);
        }
    }
    out
}

// -- reading -------------------------------------------------------------------

/// Parses a `.cube` document through the element tree.
fn read_experiment_dom(input: &str) -> Result<Experiment, XmlError> {
    let root = parse_document(input)?;
    if root.name != "cube" {
        let msg = format!("root element is <{}>, expected <cube>", root.name);
        return Err(XmlError::format(msg));
    }
    let provenance = read_provenance(&root)?;
    let mut md = Metadata::new();

    // Metric and call trees are nested while their ids follow creation
    // order, so ids may be permuted relative to document order.
    let mut metrics = Vec::new();
    for e in root.require_element("metrics")?.elements("metric") {
        collect_nested(e, None, &mut metrics)?;
    }
    for (_, parent, e) in sort_tree("metric", metrics)? {
        let uom = e.require("uom")?;
        let unit = Unit::from_str_opt(uom)
            .ok_or_else(|| XmlError::value(format!("unknown unit of measurement '{uom}'")))?;
        md.add_metric(Metric {
            name: e.require("name")?.to_string(),
            unit,
            description: e.get("descr").unwrap_or("").to_string(),
            parent: parent.map(MetricId::new),
        });
    }

    let program = root.require_element("program")?;
    for (i, e) in program.elements("module").enumerate() {
        check_dense_id(e, i)?;
        md.add_module(Module::new(e.require("name")?, e.get("path").unwrap_or("")));
    }
    for (i, e) in program.elements("region").enumerate() {
        check_dense_id(e, i)?;
        let kind = e.require("kind")?;
        md.add_region(Region {
            name: e.require("name")?.to_string(),
            module: ModuleId::new(e.parse("mod")?),
            kind: RegionKind::from_str_opt(kind)
                .ok_or_else(|| XmlError::value(format!("unknown region kind '{kind}'")))?,
            begin_line: e.parse("begin")?,
            end_line: e.parse("end")?,
        });
    }
    for (i, e) in program.elements("csite").enumerate() {
        check_dense_id(e, i)?;
        md.add_call_site(CallSite {
            file: e.require("file")?.to_string(),
            line: e.parse("line")?,
            callee: RegionId::new(e.parse("callee")?),
        });
    }
    let mut cnodes = Vec::new();
    for e in program.elements("cnode") {
        collect_nested(e, None, &mut cnodes)?;
    }
    for (_, parent, e) in sort_tree("cnode", cnodes)? {
        md.add_call_node(CallNode {
            call_site: CallSiteId::new(e.parse("csite")?),
            parent: parent.map(CallNodeId::new),
        });
    }

    // The system hierarchy is nested by machine and node, but its ids
    // interleave levels (ranks placed round-robin over nodes): collect
    // every level, then add entities in id order.
    let (mut machines, mut nodes, mut processes, mut threads) = (vec![], vec![], vec![], vec![]);
    for me in root.require_element("system")?.elements("machine") {
        let mid: u32 = me.parse("id")?;
        machines.push((mid, None, me));
        for ne in me.elements("node") {
            let nid: u32 = ne.parse("id")?;
            nodes.push((nid, Some(mid), ne));
            for pe in ne.elements("process") {
                let pid: u32 = pe.parse("id")?;
                processes.push((pid, Some(nid), pe));
                for te in pe.elements("thread") {
                    threads.push((te.parse("id")?, Some(pid), te));
                }
            }
        }
    }
    for (_, _, e) in sort_dense("machine", machines)? {
        md.add_machine(Machine::new(e.require("name")?));
    }
    for (_, mid, e) in sort_dense("node", nodes)? {
        let mid = MachineId::new(mid.unwrap_or_default());
        md.add_node(SystemNode::new(e.require("name")?, mid));
    }
    for (_, nid, e) in sort_dense("process", processes)? {
        let nid = NodeId::new(nid.unwrap_or_default());
        md.add_process(Process::new(e.require("name")?, e.parse("rank")?, nid));
    }
    for (_, pid, e) in sort_dense("thread", threads)? {
        let pid = ProcessId::new(pid.unwrap_or_default());
        md.add_thread(Thread::new(e.require("name")?, e.parse("num")?, pid));
    }

    for cart in root
        .elements("topologies")
        .take(1)
        .flat_map(|t| t.elements("cart"))
    {
        let list = |text: &str, what: &str| -> Result<Vec<u32>, XmlError> {
            let entry = |tok: &str| {
                tok.parse::<u32>()
                    .map_err(|_| XmlError::value(format!("bad {what} entry '{tok}'")))
            };
            text.split_ascii_whitespace().map(entry).collect()
        };
        let dims = list(cart.require("dims")?, "topology dims")?;
        let periodic = list(cart.require("periodic")?, "topology periodic")?;
        let periodic = periodic.into_iter().map(|v| v != 0).collect();
        let mut topo = CartTopology::new(cart.require("name")?, dims, periodic);
        for coord in cart.elements("coord") {
            let c = list(&coord.text_content(), "coordinate")?;
            topo.coords.push((ProcessId::new(coord.parse("proc")?), c));
        }
        md.add_topology(topo);
    }

    let (nm, nc, nt) = md.shape();
    let mut sev = Severity::zeros(nm, nc, nt);
    for matrix in root
        .elements("severity")
        .take(1)
        .flat_map(|s| s.elements("matrix"))
    {
        let m: u32 = matrix.parse("metric")?;
        if m as usize >= nm {
            return Err(XmlError::value(format!(
                "matrix metric id {m} out of range"
            )));
        }
        for row in matrix.elements("row") {
            let c: u32 = row.parse("cnode")?;
            if c as usize >= nc {
                return Err(XmlError::value(format!("row cnode id {c} out of range")));
            }
            let text = row.text_content();
            let values = text.split_ascii_whitespace().map(|tok| {
                tok.parse::<f64>().map_err(|_| {
                    XmlError::value(format!(
                        "severity value '{tok}' in row (metric {m}, cnode {c}) is not a number"
                    ))
                })
            });
            let values = values.collect::<Result<Vec<f64>, _>>()?;
            if values.len() != nt {
                let n = values.len();
                let msg = format!("row (metric {m}, cnode {c}) has {n} values, expected {nt}");
                return Err(XmlError::value(msg));
            }
            sev.row_mut(MetricId::new(m), CallNodeId::new(c))
                .copy_from_slice(&values);
        }
    }

    Experiment::new(md, sev, provenance).map_err(Into::into)
}

fn read_provenance(root: &Element) -> Result<Provenance, XmlError> {
    let Some(p) = root.elements("provenance").next() else {
        return Ok(Provenance::default());
    };
    let label = p.get("label").unwrap_or("unnamed experiment");
    match p.get("kind") {
        Some("original") | None => Ok(Provenance::original(label)),
        Some("derived") => Ok(Provenance::derived(
            p.get("operator").unwrap_or("unknown"),
            p.elements("operand").map(Element::text_content).collect(),
        )),
        Some("recovered") => Ok(Provenance::recovered(label, p.get("note").unwrap_or(""))),
        Some(other) => Err(XmlError::value(format!(
            "unknown provenance kind '{other}'"
        ))),
    }
}

/// One collected entity: its id, its parent's (or owner's) id, and its
/// element.
type Rec<'a> = (u32, Option<u32>, &'a Element);

/// Collects a nested tree of same-named elements into records.
fn collect_nested<'a>(
    e: &'a Element,
    parent: Option<u32>,
    out: &mut Vec<Rec<'a>>,
) -> Result<(), XmlError> {
    let id: u32 = e.parse("id")?;
    out.push((id, parent, e));
    for child in e.elements(&e.name) {
        collect_nested(child, Some(id), out)?;
    }
    Ok(())
}

/// Sorts records by id and verifies the ids are exactly `0..n`.
fn sort_dense<'a>(what: &str, mut recs: Vec<Rec<'a>>) -> Result<Vec<Rec<'a>>, XmlError> {
    recs.sort_by_key(|r| r.0);
    let n = recs.len();
    for (expected, &(id, _, _)) in recs.iter().enumerate() {
        if id as usize != expected {
            let msg = format!("<{what}> ids must be dense 0..{n}: found {id}, expected {expected}");
            return Err(XmlError::format(msg));
        }
    }
    Ok(recs)
}

/// [`sort_dense`], and checks parents precede children.
fn sort_tree<'a>(what: &str, recs: Vec<Rec<'a>>) -> Result<Vec<Rec<'a>>, XmlError> {
    let recs = sort_dense(what, recs)?;
    for &(id, parent, _) in &recs {
        if let Some(p) = parent.filter(|&p| p >= id) {
            let msg = format!("{what} {id} appears before its parent {p}");
            return Err(XmlError::format(msg));
        }
    }
    Ok(recs)
}

fn check_dense_id(e: &Element, expected: usize) -> Result<(), XmlError> {
    let id: usize = e.parse("id")?;
    if id != expected {
        return Err(XmlError::format(format!(
            "<{}> ids must be dense and in document order: found {id}, expected {expected}",
            e.name
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footer::{crc32, footer_line};
    use crate::{read_experiment, write_experiment};
    use cube_model::{CartTopology, ExperimentBuilder};
    use proptest::prelude::*;

    // -- generator ------------------------------------------------------------

    /// Compact description of an experiment, drawn by proptest.
    #[derive(Clone, Debug)]
    struct Spec {
        /// Metric name index + parent index into the prefix (None = root).
        metrics: Vec<(u8, Option<u8>)>,
        /// Call nodes: region name index + parent index into prefix.
        calls: Vec<(u8, Option<u8>)>,
        /// Processes, placed round-robin over `nodes` SMP nodes.
        ranks: u8,
        nodes: u8,
        threads_per_rank: u8,
        /// Severity values cycled over all tuples; zeros leave whole rows
        /// empty, which exercises the zero-omission rule.
        values: Vec<i32>,
        /// Whether to attach a Cartesian topology over the processes.
        topology: bool,
    }

    fn spec_strategy() -> impl Strategy<Value = Spec> {
        let metric = (0u8..6, proptest::option::of(0u8..4));
        let call = (0u8..6, proptest::option::of(0u8..4));
        (
            proptest::collection::vec(metric, 1..5),
            proptest::collection::vec(call, 1..6),
            1u8..5,
            1u8..3,
            1u8..3,
            proptest::collection::vec(-50i32..50, 1..20),
            any::<bool>(),
        )
            .prop_map(
                |(metrics, calls, ranks, nodes, threads_per_rank, values, topology)| Spec {
                    metrics,
                    calls,
                    ranks,
                    nodes,
                    threads_per_rank,
                    values,
                    topology,
                },
            )
    }

    fn build(spec: &Spec) -> Experiment {
        let mut b = ExperimentBuilder::new("streaming roundtrip <spec> & \"friends\"");
        let mut metric_ids = Vec::new();
        for (name_idx, parent) in &spec.metrics {
            let parent_id = parent.and_then(|p| metric_ids.get(p as usize).copied());
            let id = b.def_metric(format!("metric{name_idx}"), Unit::Seconds, "", parent_id);
            metric_ids.push(id);
        }

        let module = b.def_module("gen&meta.rs", "/src/gen.rs");
        let mut region_of_name = std::collections::HashMap::new();
        let mut call_ids = Vec::new();
        for (name_idx, parent) in &spec.calls {
            let region = *region_of_name.entry(*name_idx).or_insert_with(|| {
                b.def_region(
                    format!("region<{name_idx}>"),
                    module,
                    RegionKind::Function,
                    u32::from(*name_idx) + 1,
                    u32::from(*name_idx) + 1,
                )
            });
            let cs = b.def_call_site("gen&meta.rs", u32::from(*name_idx) + 1, region);
            let parent_id = parent.and_then(|p| call_ids.get(p as usize).copied());
            call_ids.push(b.def_call_node(cs, parent_id));
        }

        // Round-robin rank placement interleaves process ids between node
        // subtrees, so the file stores system ids out of document order —
        // the permutation case both readers must sort back.
        let machine = b.def_machine("cluster");
        let node_ids: Vec<_> = (0..spec.nodes)
            .map(|n| b.def_node(format!("node{n}"), machine))
            .collect();
        let mut thread_ids = Vec::new();
        let mut process_ids = Vec::new();
        for r in 0..spec.ranks {
            let node = node_ids[r as usize % node_ids.len()];
            let p = b.def_process(format!("rank {r}"), i32::from(r), node);
            process_ids.push(p);
            for t in 0..spec.threads_per_rank {
                thread_ids.push(b.def_thread(format!("thread {r}.{t}"), u32::from(t), p));
            }
        }

        if spec.topology {
            let mut topo = CartTopology::new("gen grid", vec![u32::from(spec.ranks)], vec![false]);
            for (i, &p) in process_ids.iter().enumerate() {
                topo.coords.push((p, vec![i as u32]));
            }
            b.def_topology(topo);
        }

        let mut vi = 0usize;
        for &m in &metric_ids {
            for &c in &call_ids {
                for &t in &thread_ids {
                    let v = spec.values[vi % spec.values.len()];
                    vi += 1;
                    if v != 0 {
                        b.set_severity(m, c, t, f64::from(v) * 0.125);
                    }
                }
            }
        }
        b.build().unwrap()
    }

    // -- properties -----------------------------------------------------------

    proptest! {
        /// Both writers emit identical bytes for any experiment.
        #[test]
        fn writers_agree_byte_for_byte(spec in spec_strategy()) {
            let e = build(&spec);
            prop_assert_eq!(write_experiment(&e), write_experiment_dom(&e));
        }

        /// DOM reader accepts and inverts the streaming writer.
        #[test]
        fn dom_read_of_streaming_write_is_identity(spec in spec_strategy()) {
            let e = build(&spec);
            let back = read_experiment_dom(&write_experiment(&e)).unwrap();
            prop_assert!(back.approx_eq(&e, 0.0), "metadata or severity changed");
            prop_assert_eq!(back.provenance(), e.provenance());
        }

        /// Streaming reader accepts and inverts the DOM writer.
        #[test]
        fn streaming_read_of_dom_write_is_identity(spec in spec_strategy()) {
            let e = build(&spec);
            let back = read_experiment(&write_experiment_dom(&e)).unwrap();
            prop_assert!(back.approx_eq(&e, 0.0), "metadata or severity changed");
            prop_assert_eq!(back.provenance(), e.provenance());
        }

        /// Both readers agree on every document the writer produces.
        #[test]
        fn readers_agree(spec in spec_strategy()) {
            let e = build(&spec);
            let xml = write_experiment(&e);
            let a = read_experiment(&xml).unwrap();
            let b = read_experiment_dom(&xml).unwrap();
            prop_assert!(a.approx_eq(&b, 0.0));
        }
    }

    // -- directed cases the generator can't hit --------------------------------

    /// A file with `<severity>` ahead of the metadata sections: the
    /// streaming reader's deferred parse must agree with the oracle.
    #[test]
    fn severity_before_metadata_agrees_with_the_oracle() {
        let e = build(&Spec {
            metrics: vec![(0, None), (1, Some(0))],
            calls: vec![(0, None), (1, Some(0))],
            ranks: 2,
            nodes: 2,
            threads_per_rank: 1,
            values: vec![3, -1, 0, 7],
            topology: true,
        });
        let xml = write_experiment(&e);

        // Move the whole <severity> section to the front of <cube>.
        let sev_start = xml.find("  <severity").unwrap();
        let sev_end = xml.rfind("</severity>").unwrap() + "</severity>\n".len();
        let section = &xml[sev_start..sev_end];
        // End of the `<cube version="1.0">` line (the declaration's `?>`
        // does not match `">`).
        let open_end = xml.find("\">\n").unwrap() + "\">\n".len();
        let reordered = format!(
            "{}{}{}{}",
            &xml[..open_end],
            section,
            &xml[open_end..sev_start],
            &xml[sev_end..]
        );

        let streamed = read_experiment(&reordered).unwrap();
        let dom = read_experiment_dom(&reordered).unwrap();
        assert!(streamed.approx_eq(&e, 0.0));
        assert!(streamed.approx_eq(&dom, 0.0));
    }

    /// An experiment whose severity is identically zero writes as
    /// `<severity/>` and reads back as all zeros through both pipelines.
    #[test]
    fn all_zero_experiment_roundtrips() {
        let e = build(&Spec {
            metrics: vec![(0, None)],
            calls: vec![(0, None)],
            ranks: 1,
            nodes: 1,
            threads_per_rank: 2,
            values: vec![0],
            topology: false,
        });
        let xml = write_experiment(&e);
        assert!(xml.contains("<severity/>"));
        assert_eq!(xml, write_experiment_dom(&e));
        for parsed in [
            read_experiment(&xml).unwrap(),
            read_experiment_dom(&xml).unwrap(),
        ] {
            assert!(parsed.approx_eq(&e, 0.0));
            assert!(parsed.severity().values().iter().all(|&v| v == 0.0));
        }
    }

    /// `nm` metrics over a root call node and its `nc - 1` children on
    /// `nt` single-threaded ranks, severities from `value(m, c, t)`.
    fn dense(
        nm: usize,
        nc: usize,
        nt: usize,
        value: impl Fn(usize, usize, usize) -> f64,
    ) -> Experiment {
        let mut b = ExperimentBuilder::new("blocks");
        let metrics: Vec<_> = (0..nm)
            .map(|i| b.def_metric(format!("m{i}"), Unit::Seconds, "", None))
            .collect();
        let module = b.def_module("a.c", "/src/a.c");
        let region = b.def_region("main", module, RegionKind::Function, 1, 2);
        let cs = b.def_call_site("a.c", 1, region);
        let root = b.def_call_node(cs, None);
        let mut calls = vec![root];
        calls.extend((1..nc).map(|_| b.def_call_node(cs, Some(root))));
        let threads = cube_model::builder::single_threaded_system(&mut b, nt);
        for (m, &metric) in metrics.iter().enumerate() {
            for (c, &call) in calls.iter().enumerate() {
                for (t, &thread) in threads.iter().enumerate() {
                    let v = value(m, c, t);
                    if v != 0.0 {
                        b.set_severity(metric, call, thread, v);
                    }
                }
            }
        }
        b.build().unwrap()
    }

    /// The streaming writer formats severities in blocks of whole rows
    /// (up to 4,096 values) and waves of 16 blocks on the pool; every
    /// block and wave edge must give the oracle's bytes at any thread
    /// count, and `write_experiment_to` those bytes and their footer.
    #[test]
    fn writers_agree_across_block_and_wave_edges_at_every_thread_count() {
        // Full-precision values, a few quantized ones and zeros inside
        // non-zero rows.
        let value = |i: usize| match i % 11 {
            0 => 0.0,
            1 => (i as f64 * 1e-6).round(),
            _ => (i as f64 * 0.618_033_988_749_895).sin() * 1e3 / 7.0,
        };
        let cases = [
            // Rows longer than a block; in the second metric only the
            // last row is non-zero.
            dense(2, 3, 4100, |m, c, t| match (m, c) {
                (0, 1) | (1, 0) | (1, 1) => 0.0,
                _ => value(c * 4100 + t + 1),
            }),
            // Metric 0 holds 71,680 values (more than a wave) with
            // scattered all-zero rows, metric 1 is all zero, and metric
            // 2's only non-zero row is in its last block.
            dense(4, 70, 1024, |m, c, t| match m {
                0 if c % 7 == 3 => 0.0,
                1 => 0.0,
                2 if c != 69 => 0.0,
                _ => value((m * 70 + c) * 1024 + t + 1),
            }),
            // All zero.
            dense(2, 5, 3, |_, _, _| 0.0),
            // An `/eval` miss result: 12 × 800 × 16, so blocks of
            // 256/256/256/32 rows in 3 waves. Metric 1's second block
            // is all zero between two non-zero ones, and so is metric
            // 4's first, the first block of the second wave.
            dense(12, 800, 16, |m, c, t| match (m, c / 256) {
                (1, 1) | (4, 0) => 0.0,
                _ => value((m * 800 + c) * 16 + t + 1),
            }),
        ];
        let first_difference = |a: &[u8], b: &[u8]| a.iter().zip(b).position(|(x, y)| x != y);
        let prev = rayon::current_num_threads();
        for (i, e) in cases.iter().enumerate() {
            let want = write_experiment_dom(e);
            for threads in [1, 2, 8] {
                rayon::set_threads(threads);
                let got = write_experiment(e);
                let at = first_difference(got.as_bytes(), want.as_bytes());
                assert!(
                    got == want,
                    "case {i} at {threads} threads: first difference at byte {at:?}"
                );
                let file = crate::write_experiment_to(e, Vec::new()).unwrap();
                let footer = footer_line(crc32(got.as_bytes()), got.len() as u64);
                let want_file = [got.as_bytes(), footer.as_bytes()].concat();
                let at = first_difference(&file, &want_file);
                assert!(
                    file == want_file,
                    "case {i} at {threads} threads: write_experiment_to differs at byte {at:?}"
                );
            }
        }
        rayon::set_threads(prev);
        assert!(write_experiment(&cases[2]).contains("<severity/>"));
    }

    #[test]
    fn recovered_provenance_and_footer_agree_with_the_oracle() {
        let mut e = build(&Spec {
            metrics: vec![(0, None)],
            calls: vec![(0, None)],
            ranks: 2,
            nodes: 1,
            threads_per_rank: 1,
            values: vec![12, 0],
            topology: false,
        });
        assert_eq!(write_experiment(&e), write_experiment_dom(&e));
        e.set_provenance(Provenance::recovered(
            "run 1",
            "damaged at 3:1; 0 rows recovered",
        ));
        let xml = write_experiment(&e);
        assert_eq!(xml, write_experiment_dom(&e));
        let dom_back = read_experiment_dom(&xml).unwrap();
        assert_eq!(dom_back.provenance(), e.provenance());
        // Readers that predate the checksum footer still parse: the DOM
        // path skips the trailing comment.
        let dir = std::env::temp_dir().join("cube_xml_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("oracle_footer.cube");
        crate::write_experiment_file(&e, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(crate::footer::check_footer(&text) == crate::FooterStatus::Valid);
        assert!(read_experiment_dom(&text).unwrap().approx_eq(&e, 0.0));
        std::fs::remove_file(path).ok();
    }
}
