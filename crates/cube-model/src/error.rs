//! Error type for model construction and validation.

use std::error::Error;
use std::fmt;

use crate::ids::{
    CallNodeId, CallSiteId, MachineId, MetricId, ModuleId, NodeId, ProcessId, RegionId, ThreadId,
};
use crate::metric::Unit;

/// Violation of a data-model constraint.
///
/// [`Experiment::validate`](crate::Experiment::validate) and
/// [`ExperimentBuilder::build`](crate::ExperimentBuilder::build) report the
/// first constraint violation they find. Every variant corresponds to one
/// of the constraints prescribed by the CUBE data model (Section 2 of the
/// paper), and each is also one `E0xx` rule of [`mod@crate::lint`],
/// which turns it into a diagnostic located at the entity named first.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A metric refers to a parent identifier that does not exist.
    DanglingMetricParent { metric: MetricId, parent: MetricId },
    /// A metric's unit differs from the unit of its tree root. Within
    /// each metric tree all metrics must share one unit of measurement.
    MixedUnitsInMetricTree {
        metric: MetricId,
        unit: Unit,
        root_unit: Unit,
    },
    /// The metric parent chain contains a cycle.
    MetricCycle { metric: MetricId },
    /// A region refers to a module that does not exist.
    DanglingRegionModule { region: RegionId, module: ModuleId },
    /// A region's begin line is after its end line.
    InvertedRegionLines { region: RegionId },
    /// A call site's callee region does not exist.
    DanglingCallSiteCallee {
        call_site: CallSiteId,
        callee: RegionId,
    },
    /// A call-tree node refers to a call site that does not exist.
    DanglingCallNodeSite {
        call_node: CallNodeId,
        call_site: CallSiteId,
    },
    /// A call-tree node refers to a parent that does not exist.
    DanglingCallNodeParent {
        call_node: CallNodeId,
        parent: CallNodeId,
    },
    /// The call-tree parent chain contains a cycle.
    CallNodeCycle { call_node: CallNodeId },
    /// A node refers to a machine that does not exist.
    DanglingNodeMachine { node: NodeId, machine: MachineId },
    /// A process refers to a node that does not exist.
    DanglingProcessNode { process: ProcessId, node: NodeId },
    /// A thread refers to a process that does not exist.
    DanglingThreadProcess {
        thread: ThreadId,
        process: ProcessId,
    },
    /// Two processes share the same application-level rank; `process`
    /// is the later of the two.
    DuplicateRank { process: ProcessId, rank: i32 },
    /// Two threads of the same process share the same thread number;
    /// `thread` is the later of the two.
    DuplicateThreadNumber {
        thread: ThreadId,
        process: ProcessId,
        number: u32,
    },
    /// The severity store's shape disagrees with the metadata tables.
    SeverityShapeMismatch {
        expected: (usize, usize, usize),
        actual: (usize, usize, usize),
    },
    /// A raw value vector's length disagrees with the product of the
    /// requested dimensions.
    SeverityLengthMismatch {
        /// Requested shape `(metrics, call nodes, threads)`.
        shape: (usize, usize, usize),
        /// `shape.0 * shape.1 * shape.2`.
        expected_len: usize,
        /// Length of the supplied vector.
        actual_len: usize,
    },
    /// A severity value is NaN, which no operator can produce and no
    /// measurement tool may record.
    NanSeverity {
        metric: MetricId,
        call_node: CallNodeId,
        thread: ThreadId,
    },
    /// The experiment contains no thread; the thread level is mandatory.
    NoThreads,
    /// A Cartesian topology violates its structural constraints.
    BadTopology {
        /// Position in the metadata's topology table.
        index: usize,
        /// Topology name.
        topology: String,
        /// What is wrong.
        reason: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DanglingMetricParent { metric, parent } => {
                write!(
                    f,
                    "metric {metric:?} refers to nonexistent parent {parent:?}"
                )
            }
            Self::MixedUnitsInMetricTree {
                metric,
                unit,
                root_unit,
            } => write!(
                f,
                "metric {metric:?} has unit {unit} but its tree root has unit {root_unit}; \
                 all metrics of one tree must share a unit"
            ),
            Self::MetricCycle { metric } => {
                write!(f, "metric {metric:?} participates in a parent cycle")
            }
            Self::DanglingRegionModule { region, module } => {
                write!(
                    f,
                    "region {region:?} refers to nonexistent module {module:?}"
                )
            }
            Self::InvertedRegionLines { region } => {
                write!(f, "region {region:?} has begin line after end line")
            }
            Self::DanglingCallSiteCallee { call_site, callee } => write!(
                f,
                "call site {call_site:?} refers to nonexistent callee {callee:?}"
            ),
            Self::DanglingCallNodeSite {
                call_node,
                call_site,
            } => write!(
                f,
                "call node {call_node:?} refers to nonexistent call site {call_site:?}"
            ),
            Self::DanglingCallNodeParent { call_node, parent } => write!(
                f,
                "call node {call_node:?} refers to nonexistent parent {parent:?}"
            ),
            Self::CallNodeCycle { call_node } => {
                write!(f, "call node {call_node:?} participates in a parent cycle")
            }
            Self::DanglingNodeMachine { node, machine } => {
                write!(f, "node {node:?} refers to nonexistent machine {machine:?}")
            }
            Self::DanglingProcessNode { process, node } => {
                write!(f, "process {process:?} refers to nonexistent node {node:?}")
            }
            Self::DanglingThreadProcess { thread, process } => write!(
                f,
                "thread {thread:?} refers to nonexistent process {process:?}"
            ),
            Self::DuplicateRank { process, rank } => write!(
                f,
                "process {process:?} shares application-level rank {rank} with an earlier process"
            ),
            Self::DuplicateThreadNumber {
                thread,
                process,
                number,
            } => write!(
                f,
                "thread {thread:?} shares number {number} of process {process:?} \
                 with an earlier thread"
            ),
            Self::SeverityShapeMismatch { expected, actual } => write!(
                f,
                "severity store shaped {actual:?} but metadata requires {expected:?} \
                 (metrics x call nodes x threads)"
            ),
            Self::SeverityLengthMismatch {
                shape,
                expected_len,
                actual_len,
            } => write!(
                f,
                "severity vector length must equal the product of the dimensions: \
                 shape {shape:?} needs {expected_len} values, got {actual_len}"
            ),
            Self::NanSeverity {
                metric,
                call_node,
                thread,
            } => write!(
                f,
                "severity at ({metric:?}, {call_node:?}, {thread:?}) is NaN"
            ),
            Self::NoThreads => write!(
                f,
                "experiment defines no thread; the thread level is mandatory"
            ),
            Self::BadTopology {
                index,
                topology,
                reason,
            } => write!(f, "topology #{index} '{topology}' is invalid: {reason}"),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_entities() {
        let e = ModelError::DanglingMetricParent {
            metric: MetricId::new(3),
            parent: MetricId::new(7),
        };
        assert!(e.to_string().contains("met3"));

        let e = ModelError::MixedUnitsInMetricTree {
            metric: MetricId::new(1),
            unit: Unit::Bytes,
            root_unit: Unit::Seconds,
        };
        let s = e.to_string();
        assert!(s.contains("bytes") && s.contains("sec"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(ModelError::NoThreads);
        assert!(e.to_string().contains("mandatory"));
    }
}
