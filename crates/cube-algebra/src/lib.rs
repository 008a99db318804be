//! # cube-algebra — the CUBE performance algebra
//!
//! Implements the operator layer of *"An Algebra for Cross-Experiment
//! Performance Analysis"* (Song et al., ICPP 2004): arithmetic operations
//! over whole [`Experiment`](cube_model::Experiment)s.
//!
//! ## Closure
//!
//! Every operator maps experiments to an experiment. The result — a
//! *derived* experiment — has complete metadata and a severity function
//! defined over that metadata, so it can be stored in the same file
//! format, rendered by the same display, and used as an operand of
//! further operators. Composite operations (the difference of means, the
//! merge of means, ...) are therefore just function composition.
//!
//! ## The two phases of every operator
//!
//! 1. **Metadata integration** ([`integrate()`]): the metric forests, call
//!    forests, and system hierarchies of all operands are merged by a
//!    top-down structural match. Nodes that compare equal (name + unit
//!    for metrics; call-site equality for call paths; application-level
//!    rank/thread number for the system) become shared nodes; nodes that
//!    differ are *both* carried into the result, together with their
//!    entire subtrees.
//! 2. **Element-wise arithmetic** ([`ops`]): each operand's severity
//!    array is *zero-extended* onto the integrated metadata (tuples the
//!    operand never defined count as zero) and the element-wise
//!    operation — subtraction, mean, first-wins selection, ... — is
//!    applied.
//!
//! ## Operators
//!
//! | operator | arity | purpose |
//! |---|---|---|
//! | [`ops::diff`] | 2 | before/after comparison of code or parameter changes |
//! | [`ops::merge`] | 2 (n as [`Reduction::Merge`]) | integrate data from different sources/event sets |
//! | [`ops::mean`] | n | smooth noise, summarize parameter ranges |
//! | [`ops::sum`], [`ops::min`], [`ops::max`] | n | natural extensions (the paper's §5.1 takes the *minimum* of a series) |
//! | [`ops::scale`] | 1 | scalar multiple, for normalization pipelines |
//! | [`cut::prune`], [`cut::reroot`] | 1 | call-tree surgery (the later `cube_cut` utility) |
//!
//! Every operator but `cut` is one [`Expr`] evaluated by a [`BatchPlan`]
//! on the fused kernel ([`kernel`]); build the plan yourself to pass
//! [`MergeOptions`] or to evaluate a composite over one integration.
//!
//! ```
//! use cube_algebra::ops;
//! # use cube_model::{ExperimentBuilder, Unit, RegionKind};
//! # use cube_model::builder::single_threaded_system;
//! # fn mk(v: f64) -> cube_model::Experiment {
//! #     let mut b = ExperimentBuilder::new("e");
//! #     let t = b.def_metric("time", Unit::Seconds, "", None);
//! #     let m = b.def_module("a", "a");
//! #     let r = b.def_region("main", m, RegionKind::Function, 1, 1);
//! #     let cs = b.def_call_site("a", 1, r);
//! #     let root = b.def_call_node(cs, None);
//! #     let ts = single_threaded_system(&mut b, 1);
//! #     b.set_severity(t, root, ts[0], v);
//! #     b.build().unwrap()
//! # }
//! let before = mk(10.0);
//! let after = mk(8.0);
//! let saved = ops::diff(&before, &after);       // a full experiment
//! let sanity = ops::diff(&saved, &saved);       // operators compose
//! assert_eq!(saved.severity().values()[0], 2.0);
//! assert_eq!(sanity.severity().values()[0], 0.0);
//! ```

pub mod baseline;
pub mod batch;
pub mod check;
pub mod cut;
pub mod error;
pub mod extend;
pub mod integrate;
mod invariant;
pub mod kernel;
pub mod mapping;
pub mod ops;
pub mod options;
pub mod parse;
pub mod stats;

pub use batch::{BatchOperand, BatchPlan, Expr, PlanTables, Reduction};
pub use check::{
    check, check_expr, rewrite, CheckDiagnostic, CheckReport, CostEstimate, FusedCost,
    OperandFacts, RewriteNote,
};
pub use error::AlgebraError;
pub use integrate::{integrate, integrate_metadata, Integrated};
pub use kernel::KernelProgram;
pub use mapping::OperandMap;
pub use options::{CallSiteEq, MergeOptions, SystemMergeMode};
pub use parse::{parse_expr, render_expr, ExprParseError, ParsedExpr, Span, SpanNode};
