//! # cube-model — the CUBE performance-data model
//!
//! This crate implements the data model of the CUBE performance algebra
//! described in *"An Algebra for Cross-Experiment Performance Analysis"*
//! (Song, Wolf, Bhatia, Dongarra, Moore — ICPP 2004).
//!
//! A CUBE [`Experiment`] consists of **metadata** and **data**:
//!
//! * The metadata spans three hierarchical dimensions:
//!   * the **metric dimension** — a forest of performance metrics where a
//!     parent metric *includes* each child metric (e.g. execution time
//!     includes communication time, cache accesses include cache misses);
//!   * the **program dimension** — modules, source regions, call sites and
//!     a call-tree forest of call paths;
//!   * the **system dimension** — a forest with the fixed levels machine,
//!     node, process, and thread.
//! * The data is the **severity function** mapping each tuple
//!   `(metric, call path, thread)` onto the accumulated value of the
//!   metric measured while the thread executed in that call path.
//!
//! ## Storage convention
//!
//! Stored severity values are
//!
//! * **call-exclusive**: the value at a call-tree node covers only time
//!   (or events) spent in that exact call path, not in its callees, and
//! * **metric-inclusive**: a parent metric's stored value already contains
//!   the contributions of its child metrics, exactly as the paper defines
//!   the severity function ("the accumulated value of the metric *m*
//!   measured while the thread *t* was executing in call path *c*").
//!
//! All derived views (inclusive call-tree values, exclusive metric values,
//! per-system aggregates) are computed by [`aggregate`].
//!
//! Severities may be negative: a difference between two experiments is
//! itself a valid experiment (the algebra's closure property).
//!
//! ## Quick start
//!
//! ```
//! use cube_model::{ExperimentBuilder, Unit, RegionKind};
//!
//! let mut b = ExperimentBuilder::new("demo");
//! let time = b.def_metric("time", Unit::Seconds, "total wall time", None);
//! let module = b.def_module("main.rs", "/src");
//! let main_r = b.def_region("main", module, RegionKind::Function, 1, 100);
//! let cs = b.def_call_site("main.rs", 1, main_r);
//! let root = b.def_call_node(cs, None);
//! let mach = b.def_machine("laptop");
//! let node = b.def_node("node0", mach);
//! let proc0 = b.def_process("rank 0", 0, node);
//! let t0 = b.def_thread("thread 0", 0, proc0);
//! b.set_severity(time, root, t0, 1.5);
//! let exp = b.build().expect("valid experiment");
//! assert_eq!(exp.severity().get(time, root, t0), 1.5);
//! ```

pub mod aggregate;
pub mod builder;
pub mod error;
pub mod experiment;
pub mod ids;
pub mod lint;
pub mod metadata;
pub mod metric;
pub mod program;
pub mod provenance;
pub mod severity;
pub mod system;
pub mod topology;

pub use builder::ExperimentBuilder;
pub use error::ModelError;
pub use experiment::Experiment;
pub use ids::{
    CallNodeId, CallSiteId, MachineId, MetricId, ModuleId, NodeId, ProcessId, RegionId, ThreadId,
};
pub use lint::{json_string, lint, Diagnostic, Level, Location, Report, RuleCode};
pub use metadata::Metadata;
pub use metric::{Metric, Unit};
pub use program::{CallNode, CallSite, Module, Region, RegionKind};
pub use provenance::Provenance;
pub use severity::Severity;
pub use system::{Machine, Process, SystemNode, Thread};
pub use topology::CartTopology;
