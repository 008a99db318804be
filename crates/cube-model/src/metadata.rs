//! Experiment metadata: the three dimensions and their ordering relations.
//!
//! [`Metadata`] owns the entity tables of all three dimensions. Entities
//! are stored in insertion order; identifiers are dense indices into the
//! tables. Child lists are maintained incrementally so that tree
//! traversals are cheap, and are part of the *ordering relations* the
//! data model prescribes: children keep their insertion order.

use crate::error::ModelError;
use crate::ids::{
    CallNodeId, CallSiteId, MachineId, MetricId, ModuleId, NodeId, ProcessId, RegionId, ThreadId,
};
use crate::metric::Metric;
use crate::program::{CallNode, CallSite, Module, Region};
use crate::system::{Machine, Process, SystemNode, Thread};
use crate::topology::CartTopology;

/// The metadata part of a CUBE experiment.
///
/// Use [`ExperimentBuilder`](crate::ExperimentBuilder) to construct
/// metadata together with a severity store, or the `def_*` methods here
/// when assembling metadata programmatically (the algebra's metadata
/// integration does the latter).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metadata {
    metrics: Vec<Metric>,
    metric_children: Vec<Vec<MetricId>>,
    metric_roots: Vec<MetricId>,

    modules: Vec<Module>,
    regions: Vec<Region>,
    call_sites: Vec<CallSite>,
    call_nodes: Vec<CallNode>,
    call_node_children: Vec<Vec<CallNodeId>>,
    call_roots: Vec<CallNodeId>,

    machines: Vec<Machine>,
    nodes: Vec<SystemNode>,
    node_children_of_machine: Vec<Vec<NodeId>>,
    processes: Vec<Process>,
    process_children_of_node: Vec<Vec<ProcessId>>,
    threads: Vec<Thread>,
    thread_children_of_process: Vec<Vec<ThreadId>>,

    topologies: Vec<CartTopology>,
}

impl Metadata {
    /// Creates empty metadata.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- metric dimension -------------------------------------------------

    /// Appends a metric and returns its identifier.
    pub fn add_metric(&mut self, metric: Metric) -> MetricId {
        let id = MetricId::from_index(self.metrics.len());
        match metric.parent {
            Some(p) if p.index() < self.metrics.len() => self.metric_children[p.index()].push(id),
            Some(_) => {} // dangling parent; caught by validate()
            None => self.metric_roots.push(id),
        }
        self.metrics.push(metric);
        self.metric_children.push(Vec::new());
        id
    }

    /// All metrics in identifier order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The metric with the given identifier.
    pub fn metric(&self, id: MetricId) -> &Metric {
        &self.metrics[id.index()]
    }

    /// Number of metrics.
    pub fn num_metrics(&self) -> usize {
        self.metrics.len()
    }

    /// Root metrics in insertion order.
    pub fn metric_roots(&self) -> &[MetricId] {
        &self.metric_roots
    }

    /// Children of a metric in insertion order.
    pub fn metric_children(&self, id: MetricId) -> &[MetricId] {
        &self.metric_children[id.index()]
    }

    /// Identifiers of all metrics in identifier order.
    pub fn metric_ids(&self) -> impl Iterator<Item = MetricId> + '_ {
        (0..self.metrics.len() as u32).map(MetricId::new)
    }

    /// Looks up a metric by name.
    pub fn find_metric(&self, name: &str) -> Option<MetricId> {
        self.metrics
            .iter()
            .position(|m| m.name == name)
            .map(MetricId::from_index)
    }

    /// The root of the metric tree containing `id`.
    pub fn metric_root_of(&self, id: MetricId) -> MetricId {
        let mut cur = id;
        let mut hops = 0;
        while let Some(p) = self.metrics[cur.index()].parent {
            cur = p;
            hops += 1;
            if hops > self.metrics.len() {
                // Cycle; validate() reports it. Return the current node to
                // keep this accessor total.
                return cur;
            }
        }
        cur
    }

    /// Pre-order traversal of the metric subtree rooted at `id`.
    pub fn metric_subtree(&self, id: MetricId) -> Vec<MetricId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(m) = stack.pop() {
            out.push(m);
            // Reverse so that the first child is visited first.
            stack.extend(self.metric_children(m).iter().rev().copied());
        }
        out
    }

    // ----- program dimension ------------------------------------------------

    /// Appends a module and returns its identifier.
    pub fn add_module(&mut self, module: Module) -> ModuleId {
        let id = ModuleId::from_index(self.modules.len());
        self.modules.push(module);
        id
    }

    /// All modules in identifier order.
    pub fn modules(&self) -> &[Module] {
        &self.modules
    }

    /// The module with the given identifier.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Looks up a module by name.
    pub fn find_module(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name == name)
            .map(ModuleId::from_index)
    }

    /// Appends a region and returns its identifier.
    pub fn add_region(&mut self, region: Region) -> RegionId {
        let id = RegionId::from_index(self.regions.len());
        self.regions.push(region);
        id
    }

    /// All regions in identifier order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The region with the given identifier.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Looks up a region by name (first match).
    pub fn find_region(&self, name: &str) -> Option<RegionId> {
        self.regions
            .iter()
            .position(|r| r.name == name)
            .map(RegionId::from_index)
    }

    /// Appends a call site and returns its identifier.
    pub fn add_call_site(&mut self, call_site: CallSite) -> CallSiteId {
        let id = CallSiteId::from_index(self.call_sites.len());
        self.call_sites.push(call_site);
        id
    }

    /// All call sites in identifier order.
    pub fn call_sites(&self) -> &[CallSite] {
        &self.call_sites
    }

    /// The call site with the given identifier.
    pub fn call_site(&self, id: CallSiteId) -> &CallSite {
        &self.call_sites[id.index()]
    }

    /// Appends a call-tree node and returns its identifier.
    pub fn add_call_node(&mut self, node: CallNode) -> CallNodeId {
        let id = CallNodeId::from_index(self.call_nodes.len());
        match node.parent {
            Some(p) if p.index() < self.call_nodes.len() => {
                self.call_node_children[p.index()].push(id)
            }
            Some(_) => {}
            None => self.call_roots.push(id),
        }
        self.call_nodes.push(node);
        self.call_node_children.push(Vec::new());
        id
    }

    /// All call-tree nodes in identifier order.
    pub fn call_nodes(&self) -> &[CallNode] {
        &self.call_nodes
    }

    /// The call-tree node with the given identifier.
    pub fn call_node(&self, id: CallNodeId) -> &CallNode {
        &self.call_nodes[id.index()]
    }

    /// Number of call-tree nodes.
    pub fn num_call_nodes(&self) -> usize {
        self.call_nodes.len()
    }

    /// Root call-tree nodes in insertion order.
    pub fn call_roots(&self) -> &[CallNodeId] {
        &self.call_roots
    }

    /// Children of a call-tree node in insertion order.
    pub fn call_node_children(&self, id: CallNodeId) -> &[CallNodeId] {
        &self.call_node_children[id.index()]
    }

    /// Identifiers of all call-tree nodes in identifier order.
    pub fn call_node_ids(&self) -> impl Iterator<Item = CallNodeId> + '_ {
        (0..self.call_nodes.len() as u32).map(CallNodeId::new)
    }

    /// The callee region of a call-tree node.
    pub fn call_node_callee(&self, id: CallNodeId) -> RegionId {
        self.call_sites[self.call_nodes[id.index()].call_site.index()].callee
    }

    /// Pre-order traversal of the call subtree rooted at `id`.
    pub fn call_subtree(&self, id: CallNodeId) -> Vec<CallNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.call_node_children(c).iter().rev().copied());
        }
        out
    }

    /// The call path of a node: region names from the root down to `id`.
    pub fn call_path(&self, id: CallNodeId) -> Vec<&str> {
        let mut rev = Vec::new();
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(c) = cur {
            rev.push(self.region(self.call_node_callee(c)).name.as_str());
            cur = self.call_nodes[c.index()].parent;
            hops += 1;
            if hops > self.call_nodes.len() {
                break; // cycle; reported by validate()
            }
        }
        rev.reverse();
        rev
    }

    // ----- system dimension -------------------------------------------------

    /// Appends a machine and returns its identifier.
    pub fn add_machine(&mut self, machine: Machine) -> MachineId {
        let id = MachineId::from_index(self.machines.len());
        self.machines.push(machine);
        self.node_children_of_machine.push(Vec::new());
        id
    }

    /// All machines in identifier order.
    pub fn machines(&self) -> &[Machine] {
        &self.machines
    }

    /// The machine with the given identifier.
    pub fn machine(&self, id: MachineId) -> &Machine {
        &self.machines[id.index()]
    }

    /// Appends a system node and returns its identifier.
    pub fn add_node(&mut self, node: SystemNode) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        if node.machine.index() < self.machines.len() {
            self.node_children_of_machine[node.machine.index()].push(id);
        }
        self.nodes.push(node);
        self.process_children_of_node.push(Vec::new());
        id
    }

    /// All system nodes in identifier order.
    pub fn nodes(&self) -> &[SystemNode] {
        &self.nodes
    }

    /// The system node with the given identifier.
    pub fn node(&self, id: NodeId) -> &SystemNode {
        &self.nodes[id.index()]
    }

    /// Nodes of a machine in insertion order.
    pub fn nodes_of_machine(&self, id: MachineId) -> &[NodeId] {
        &self.node_children_of_machine[id.index()]
    }

    /// Appends a process and returns its identifier.
    pub fn add_process(&mut self, process: Process) -> ProcessId {
        let id = ProcessId::from_index(self.processes.len());
        if process.node.index() < self.nodes.len() {
            self.process_children_of_node[process.node.index()].push(id);
        }
        self.processes.push(process);
        self.thread_children_of_process.push(Vec::new());
        id
    }

    /// All processes in identifier order.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// The process with the given identifier.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.index()]
    }

    /// Processes of a node in insertion order.
    pub fn processes_of_node(&self, id: NodeId) -> &[ProcessId] {
        &self.process_children_of_node[id.index()]
    }

    /// Looks up a process by application-level rank.
    pub fn find_process_by_rank(&self, rank: i32) -> Option<ProcessId> {
        self.processes
            .iter()
            .position(|p| p.rank == rank)
            .map(ProcessId::from_index)
    }

    /// Appends a thread and returns its identifier.
    pub fn add_thread(&mut self, thread: Thread) -> ThreadId {
        let id = ThreadId::from_index(self.threads.len());
        if thread.process.index() < self.processes.len() {
            self.thread_children_of_process[thread.process.index()].push(id);
        }
        self.threads.push(thread);
        id
    }

    /// All threads in identifier order. The thread identifier order is
    /// the *location* order used by the severity store.
    pub fn threads(&self) -> &[Thread] {
        &self.threads
    }

    /// The thread with the given identifier.
    pub fn thread(&self, id: ThreadId) -> &Thread {
        &self.threads[id.index()]
    }

    /// Number of threads (the severity store's third dimension).
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Threads of a process in insertion order.
    pub fn threads_of_process(&self, id: ProcessId) -> &[ThreadId] {
        &self.thread_children_of_process[id.index()]
    }

    /// Identifiers of all threads in identifier order.
    pub fn thread_ids(&self) -> impl Iterator<Item = ThreadId> + '_ {
        (0..self.threads.len() as u32).map(ThreadId::new)
    }

    /// Adds a Cartesian process topology.
    pub fn add_topology(&mut self, topology: CartTopology) -> usize {
        self.topologies.push(topology);
        self.topologies.len() - 1
    }

    /// All Cartesian topologies.
    pub fn topologies(&self) -> &[CartTopology] {
        &self.topologies
    }

    /// The expected severity-store shape `(metrics, call nodes, threads)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (
            self.metrics.len(),
            self.call_nodes.len(),
            self.threads.len(),
        )
    }

    // ----- validation -------------------------------------------------------

    /// Checks every constraint the data model places on metadata,
    /// including the mandatory thread level.
    ///
    /// Runs the error rules of [`mod@crate::lint`] with its warning rules
    /// off and returns the first violation in their order (documented
    /// there). The constraints on severity values are added by
    /// [`Experiment::validate`](crate::Experiment::validate).
    pub fn validate(&self) -> Result<(), ModelError> {
        crate::lint::metadata_rules(self, &mut Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Unit;
    use crate::program::RegionKind;

    fn tiny() -> Metadata {
        let mut md = Metadata::new();
        let time = md.add_metric(Metric::root("time", Unit::Seconds, ""));
        md.add_metric(Metric::child("mpi", Unit::Seconds, "", time));
        let m = md.add_module(Module::new("a.rs", "/a.rs"));
        let main_r = md.add_region(Region {
            name: "main".into(),
            module: m,
            kind: RegionKind::Function,
            begin_line: 1,
            end_line: 10,
        });
        let cs = md.add_call_site(CallSite {
            file: "a.rs".into(),
            line: 1,
            callee: main_r,
        });
        let root = md.add_call_node(CallNode {
            call_site: cs,
            parent: None,
        });
        md.add_call_node(CallNode {
            call_site: cs,
            parent: Some(root),
        });
        let mach = md.add_machine(Machine::new("m"));
        let node = md.add_node(SystemNode::new("n", mach));
        let p = md.add_process(Process::new("p0", 0, node));
        md.add_thread(Thread::new("t0", 0, p));
        md
    }

    #[test]
    fn tiny_metadata_validates() {
        let md = tiny();
        md.validate().unwrap();
        assert_eq!(md.shape(), (2, 2, 1));
        assert_eq!(md.metric_roots().len(), 1);
        assert_eq!(md.call_roots().len(), 1);
    }

    #[test]
    fn children_follow_insertion_order() {
        let mut md = Metadata::new();
        let root = md.add_metric(Metric::root("time", Unit::Seconds, ""));
        let a = md.add_metric(Metric::child("a", Unit::Seconds, "", root));
        let b = md.add_metric(Metric::child("b", Unit::Seconds, "", root));
        assert_eq!(md.metric_children(root), &[a, b]);
        assert_eq!(md.metric_subtree(root), vec![root, a, b]);
    }

    #[test]
    fn subtree_is_preorder() {
        let mut md = Metadata::new();
        let r = md.add_metric(Metric::root("r", Unit::Seconds, ""));
        let a = md.add_metric(Metric::child("a", Unit::Seconds, "", r));
        let b = md.add_metric(Metric::child("b", Unit::Seconds, "", r));
        let a1 = md.add_metric(Metric::child("a1", Unit::Seconds, "", a));
        assert_eq!(md.metric_subtree(r), vec![r, a, a1, b]);
    }

    #[test]
    fn mixed_units_rejected() {
        let mut md = Metadata::new();
        let root = md.add_metric(Metric::root("time", Unit::Seconds, ""));
        md.add_metric(Metric::child("bytes?!", Unit::Bytes, "", root));
        assert!(matches!(
            md.validate(),
            Err(ModelError::MixedUnitsInMetricTree { .. })
        ));
    }

    #[test]
    fn dangling_metric_parent_rejected() {
        let mut md = Metadata::new();
        md.add_metric(Metric::child("x", Unit::Seconds, "", MetricId::new(9)));
        assert!(matches!(
            md.validate(),
            Err(ModelError::DanglingMetricParent { .. })
        ));
    }

    #[test]
    fn duplicate_rank_rejected() {
        let mut md = tiny();
        let node = NodeId::new(0);
        md.add_process(Process::new("dup", 0, node));
        assert!(matches!(
            md.validate(),
            Err(ModelError::DuplicateRank { rank: 0, .. })
        ));
    }

    #[test]
    fn duplicate_thread_number_rejected() {
        let mut md = tiny();
        md.add_thread(Thread::new("t0'", 0, ProcessId::new(0)));
        assert!(matches!(
            md.validate(),
            Err(ModelError::DuplicateThreadNumber { .. })
        ));
    }

    #[test]
    fn inverted_region_lines_rejected() {
        let mut md = Metadata::new();
        let m = md.add_module(Module::new("a", "a"));
        md.add_region(Region {
            name: "r".into(),
            module: m,
            kind: RegionKind::Function,
            begin_line: 10,
            end_line: 2,
        });
        assert!(matches!(
            md.validate(),
            Err(ModelError::InvertedRegionLines { .. })
        ));
    }

    #[test]
    fn call_path_names() {
        let md = tiny();
        assert_eq!(md.call_path(CallNodeId::new(1)), vec!["main", "main"]);
    }

    #[test]
    fn find_helpers() {
        let md = tiny();
        assert_eq!(md.find_metric("mpi"), Some(MetricId::new(1)));
        assert_eq!(md.find_metric("nope"), None);
        assert_eq!(md.find_process_by_rank(0), Some(ProcessId::new(0)));
    }

    #[test]
    fn metric_root_of_walks_up() {
        let md = tiny();
        assert_eq!(md.metric_root_of(MetricId::new(1)), MetricId::new(0));
        assert_eq!(md.metric_root_of(MetricId::new(0)), MetricId::new(0));
    }

    #[test]
    fn system_adjacency() {
        let md = tiny();
        assert_eq!(md.nodes_of_machine(MachineId::new(0)).len(), 1);
        assert_eq!(md.processes_of_node(NodeId::new(0)).len(), 1);
        assert_eq!(md.threads_of_process(ProcessId::new(0)).len(), 1);
    }
}
