//! Batch evaluation engine: integrate once, reduce k operands in one pass.
//!
//! The paper's closure property makes derived experiments operands of
//! further operators, so real cross-experiment studies apply reductions
//! over *series* — the §5.1 speedup table takes the minimum of two
//! ten-run series, and parameter sweeps average dozens of runs per
//! figure. Folding such a series through repeated **pairwise** merges
//! re-runs metadata integration and re-allocates zero-extended severity
//! arrays once per operand: O(k) structural merges and O(k) full-size
//! allocations for one answer.
//!
//! A [`BatchPlan`] does the work once:
//!
//! 1. **Integrate once.** All k operands' metric forests, call forests,
//!    and system hierarchies are folded into one integrated
//!    [`Metadata`] by a single call to [`crate::integrate()`], and the
//!    per-operand [`OperandMap`]s (source id → integrated id) are
//!    cached on the plan.
//! 2. **Cache gather tables.** Each operand's mapping is inverted into
//!    per-dimension gather tables (integrated id → source id, or
//!    *absent*), so an operand's value at any integrated tuple is three
//!    table lookups — no zero-extended copy of the operand is ever
//!    materialized. Operands whose mapping is the identity are read
//!    directly; the rare operand with structurally equal siblings
//!    (a non-injective mapping) falls back to one cached zero-extended
//!    copy.
//! 3. **Evaluate in one pass.** [`BatchPlan::eval`] lowers an [`Expr`]
//!    tree — an n-ary [`Reduction`] (`sum`, `mean`, `min`, `max`,
//!    `variance`, `stddev`, `merge`), or a composite such as the paper's
//!    "difference of averaged data" — into one [`crate::kernel`]
//!    program and runs it in a single traversal of the operands. Direct
//!    and extended operands are read in place; gathered ones are
//!    zero-extended a block at a time through their gather tables into
//!    kernel scratch.
//!
//! Every expression shares the *same* integrated metadata, so
//! `diff(mean(A…), mean(B…))` costs one integration total instead of
//! three.
//!
//! The pre-batch pairwise fold lives on as a differential oracle in
//! the `cube-bench` crate (`cube_bench::pairwise`); `BatchPlan` results
//! are tested value-identical against it.
//!
//! A nested composite integrates all of its operands at once, so it
//! can differ from the same operators applied one library call at a
//! time. For example, with ranks on nodes of one machine — A rank 0 on
//! node 0, B rank 1 on node 1, C rank 1 on node 0 — the nested
//! `ops::merge(&ops::merge(&a, &b), &c)` collapses the system to a
//! `virtual machine`, because the intermediate result's partition
//! conflicts with C's, while one plan over `[A, B, C]` copies A's
//! machine.
//!
//! # Worked example: a k-experiment study
//!
//! Three noisy runs, averaged, then compared against a two-run
//! baseline — one integration for the whole expression:
//!
//! ```
//! use cube_algebra::batch::{BatchPlan, Expr, Reduction};
//! # use cube_model::builder::single_threaded_system;
//! # use cube_model::{ExperimentBuilder, RegionKind, Unit};
//! # fn run(name: &str, v: f64) -> cube_model::Experiment {
//! #     let mut b = ExperimentBuilder::new(name);
//! #     let t = b.def_metric("time", Unit::Seconds, "", None);
//! #     let m = b.def_module("a", "a");
//! #     let r = b.def_region("main", m, RegionKind::Function, 1, 1);
//! #     let cs = b.def_call_site("a", 1, r);
//! #     let root = b.def_call_node(cs, None);
//! #     let ts = single_threaded_system(&mut b, 1);
//! #     b.set_severity(t, root, ts[0], v);
//! #     b.build().unwrap()
//! # }
//! let (a1, a2, a3) = (run("a1", 9.0), run("a2", 10.0), run("a3", 11.0));
//! let (b1, b2) = (run("b1", 7.0), run("b2", 9.0));
//!
//! // One plan over all five operands: metadata integration runs once.
//! let plan = BatchPlan::new(&[&a1, &a2, &a3, &b1, &b2]);
//!
//! // Plain n-ary reduction over a subset of the series…
//! let avg = plan
//!     .eval(&Expr::reduce(Reduction::Mean, 0..3))
//!     .unwrap();
//! assert_eq!(avg.severity().values(), &[10.0]);
//!
//! // …and the paper's composite, still on the one integrated schema.
//! let saved = plan
//!     .eval(&Expr::diff(
//!         Expr::reduce(Reduction::Mean, 0..3),
//!         Expr::reduce(Reduction::Mean, 3..5),
//!     ))
//!     .unwrap();
//! assert_eq!(saved.severity().values(), &[2.0]);
//! assert_eq!(
//!     saved.provenance().label(),
//!     "difference(mean(a1, a2, a3), mean(b1, b2))"
//! );
//! // Closure: the result is a full experiment, usable as an operand.
//! saved.validate().unwrap();
//! ```

use std::sync::Arc;

use cube_model::{Experiment, Metadata, Provenance, Severity};

use crate::error::AlgebraError;
use crate::extend::extend_severity_values;
use crate::integrate::{integrate_metadata, Integrated};
use crate::kernel::{self, BlockFill, KernelProgram, SlotInput};
use crate::mapping::OperandMap;
use crate::options::MergeOptions;

/// Sentinel in gather tables: this integrated id has no preimage in the
/// operand, so the operand's zero-extended value there is 0.0.
const ABSENT: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// operand sources
// ---------------------------------------------------------------------------

/// A severity source a [`BatchPlan`] can gather from.
///
/// The plan only ever needs three things from an operand: its metadata
/// (for the one-time integration), its provenance (for derived labels),
/// and a dense severity slice in the canonical layout (thread fastest,
/// metric slowest). [`Experiment`] implements this trivially; storage
/// backends — e.g. the `.cubec` columnar store's lazy handle — implement
/// it by lending their decoded pages, so a reduction over on-disk
/// operands never materializes intermediate `Experiment`s.
///
/// `Sync` is required because plans fork evaluation across the worker
/// pool; implementations must tolerate concurrent reads.
pub trait BatchOperand: Sync {
    /// The operand's metadata (integration input).
    fn metadata(&self) -> &Metadata;
    /// The operand's provenance (used for derived labels).
    fn provenance(&self) -> &Provenance;
    /// The severity shape `(metrics, call nodes, threads)`.
    fn severity_shape(&self) -> (usize, usize, usize);
    /// The dense severity values, length = product of the shape, in the
    /// canonical `(metric, call node, thread)` row-major layout.
    fn severity_values(&self) -> &[f64];
}

impl BatchOperand for Experiment {
    fn metadata(&self) -> &Metadata {
        Experiment::metadata(self)
    }

    fn provenance(&self) -> &Provenance {
        Experiment::provenance(self)
    }

    fn severity_shape(&self) -> (usize, usize, usize) {
        self.severity().shape()
    }

    fn severity_values(&self) -> &[f64] {
        self.severity().values()
    }
}

/// Borrowed severity pages of one operand, resolved once at plan build
/// so kernel inputs and block fills index plain slices instead of
/// re-entering the trait object on every row.
#[derive(Clone, Copy)]
struct OperandView<'a> {
    values: &'a [f64],
    shape: (usize, usize, usize),
}

impl<'a> OperandView<'a> {
    fn of(op: &'a dyn BatchOperand) -> Self {
        Self {
            values: op.severity_values(),
            shape: op.severity_shape(),
        }
    }

    /// The thread row at flat row index `r` (`m * nc + c` in the
    /// operand's own shape).
    fn row(&self, r: usize) -> &'a [f64] {
        let nt = self.shape.2;
        &self.values[r * nt..(r + 1) * nt]
    }
}

// ---------------------------------------------------------------------------
// reductions and expressions
// ---------------------------------------------------------------------------

/// An n-ary element-wise reduction over a series of experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Element-wise sum.
    Sum,
    /// Element-wise arithmetic mean.
    Mean,
    /// Element-wise minimum (the paper's §5.1 series selection).
    Min,
    /// Element-wise maximum.
    Max,
    /// Element-wise population variance.
    Variance,
    /// Element-wise population standard deviation.
    Stddev,
    /// The paper's merge: each metric from the first listed operand
    /// that provides it, zero where none does.
    Merge,
}

impl Reduction {
    /// The operator name used in derived provenance, matching the names
    /// the [`crate::ops`] / [`crate::stats`] entry points have always
    /// written.
    pub fn name(self) -> &'static str {
        match self {
            Self::Sum => "sum",
            Self::Mean => "mean",
            Self::Min => "min",
            Self::Max => "max",
            Self::Variance => "variance",
            Self::Stddev => "stddev",
            Self::Merge => "merge",
        }
    }

    /// The reduction [`Self::name`] names, or `None` for any other
    /// word. The expression parser and the CLI's `--op` both read
    /// reducer names through this table.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "sum" => Self::Sum,
            "mean" => Self::Mean,
            "min" => Self::Min,
            "max" => Self::Max,
            "variance" => Self::Variance,
            "stddev" => Self::Stddev,
            "merge" => Self::Merge,
            _ => return None,
        })
    }
}

/// A composite expression over the operands of one [`BatchPlan`].
///
/// Every node evaluates to a severity-shaped value over the plan's
/// integrated metadata, so arbitrary nesting needs no further
/// integration — that is the closure property, collapsed onto a single
/// schema.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// The zero-extended severity of one operand (by plan index).
    Operand(usize),
    /// An n-ary reduction over a set of operands (by plan index).
    Reduce(Reduction, Vec<usize>),
    /// Element-wise difference of two sub-expressions.
    Diff(Box<Expr>, Box<Expr>),
    /// Scalar multiple of a sub-expression.
    Scale(Box<Expr>, f64),
    /// The additive identity: severity zero at every position of the
    /// integrated metadata. Not produced by the parser — the rewrite
    /// pass ([`crate::check::rewrite`]) folds statically-zero trees
    /// (`diff(X,X)`) into this node so evaluation skips their severity
    /// reads entirely.
    Zero,
}

impl Expr {
    /// A reduction over the operand indices in `range` (convenience for
    /// the common "contiguous slice of the series" case).
    pub fn reduce(r: Reduction, range: impl IntoIterator<Item = usize>) -> Self {
        Self::Reduce(r, range.into_iter().collect())
    }

    /// `minuend − subtrahend`, element-wise.
    pub fn diff(minuend: Expr, subtrahend: Expr) -> Self {
        Self::Diff(Box::new(minuend), Box::new(subtrahend))
    }

    /// `factor ×` the sub-expression, element-wise.
    pub fn scale(inner: Expr, factor: f64) -> Self {
        Self::Scale(Box::new(inner), factor)
    }

    /// The expression over the operands `alive` keeps — the one
    /// degradation rule shared by the CLI's `--keep-going` and
    /// `/eval?keep_going=1`.
    ///
    /// A dropped operand leaves every reduction list it appears in, so
    /// `mean` renormalizes over the survivors; survivors are renumbered
    /// in order, matching a plan built over them alone. `None` when the
    /// expression cannot lose a dropped operand without changing its
    /// meaning: a `diff` side, the `scale` operand, or a bare operand is
    /// structurally required, and a reduction must keep at least one of
    /// its operands. Indices `>= alive.len()` are left unchanged, so
    /// evaluation still reports them as
    /// [`AlgebraError::OperandOutOfRange`].
    pub fn restrict(&self, alive: &[bool]) -> Option<Expr> {
        let renumber: Vec<Option<usize>> = alive
            .iter()
            .scan(0, |next, &a| {
                let at = *next;
                *next += usize::from(a);
                Some(a.then_some(at))
            })
            .collect();
        self.restrict_to(&renumber)
    }

    fn restrict_to(&self, renumber: &[Option<usize>]) -> Option<Expr> {
        let at = |i: usize| renumber.get(i).copied().unwrap_or(Some(i));
        Some(match self {
            Expr::Operand(i) => Expr::Operand(at(*i)?),
            Expr::Reduce(r, idxs) => {
                let kept: Vec<usize> = idxs.iter().filter_map(|&i| at(i)).collect();
                if kept.is_empty() && !idxs.is_empty() {
                    return None;
                }
                Expr::Reduce(*r, kept)
            }
            Expr::Diff(a, b) => Expr::diff(a.restrict_to(renumber)?, b.restrict_to(renumber)?),
            Expr::Scale(inner, f) => Expr::scale(inner.restrict_to(renumber)?, *f),
            Expr::Zero => Expr::Zero,
        })
    }
}

// ---------------------------------------------------------------------------
// cached operand sources
// ---------------------------------------------------------------------------

/// Per-dimension inverse of an [`OperandMap`]: integrated id → source
/// id, with [`ABSENT`] where the operand defines nothing.
#[derive(Debug)]
struct GatherMap {
    metric: Vec<u32>,
    call: Vec<u32>,
    thread: Vec<u32>,
    /// `Some(n)` when the thread table is the identity on `0..n` and
    /// absent beyond — the dominant rank-matched union case, where a
    /// source row is one contiguous prefix of the integrated row.
    thread_prefix: Option<usize>,
}

impl GatherMap {
    /// Inverts a mapping; `None` when two source ids collide on one
    /// integrated id (non-injective — the structurally-equal-siblings
    /// case, which needs accumulating extension instead of gathering).
    fn invert(ids: impl Iterator<Item = usize>, dst_len: usize) -> Option<Vec<u32>> {
        let mut inv = vec![ABSENT; dst_len];
        for (src, dst) in ids.enumerate() {
            if inv[dst] != ABSENT {
                return None;
            }
            inv[dst] = src as u32;
        }
        Some(inv)
    }

    fn try_build(map: &OperandMap, shape: (usize, usize, usize)) -> Option<Self> {
        let metric = Self::invert(map.metrics.iter().map(|m| m.index()), shape.0)?;
        let call = Self::invert(map.call_nodes.iter().map(|c| c.index()), shape.1)?;
        let thread = Self::invert(map.threads.iter().map(|t| t.index()), shape.2)?;
        let n = map.threads.len();
        let identity_prefix = thread
            .iter()
            .take(n)
            .enumerate()
            .all(|(i, &v)| v == i as u32)
            && thread.iter().skip(n).all(|&v| v == ABSENT);
        Some(Self {
            metric,
            call,
            thread,
            thread_prefix: identity_prefix.then_some(n),
        })
    }
}

/// How one operand's values are read at integrated coordinates.
#[derive(Debug)]
enum Source {
    /// Mapping is the identity and shapes agree: read the operand's
    /// severity slice directly.
    Direct,
    /// Injective mapping: translate coordinates through cached gather
    /// tables (no copy of the operand's data).
    Gather(GatherMap),
    /// Non-injective mapping: one zero-extended (accumulating) copy,
    /// materialized at plan build time and reused by every evaluation.
    Extended(Severity),
}

/// The kernel's zero-extending load for one [`Source::Gather`]
/// operand: writes any flat range of the operand's values on the
/// integrated shape, reading through the cached gather tables. Ranges
/// need not align with rows. Absent positions read as 0.0 — they must,
/// for selections like `min`, where a missing measurement still
/// competes as zero.
struct GatherFill<'p> {
    map: &'p GatherMap,
    view: OperandView<'p>,
    /// The integrated shape.
    shape: (usize, usize, usize),
}

impl GatherFill<'_> {
    /// Fills `dst` with integrated row `(m, c)` from thread `t0` on.
    fn fill_row(&self, m: usize, c: usize, t0: usize, dst: &mut [f64]) {
        let (im, ic) = (self.map.metric[m], self.map.call[c]);
        if im == ABSENT || ic == ABSENT {
            // The operand defines nothing on this row.
            dst.fill(0.0);
            return;
        }
        let src = self.view.row(im as usize * self.view.shape.1 + ic as usize);
        if self.map.thread_prefix.is_some() {
            // The operand's threads lead the row; the rest are absent.
            let head = src.get(t0..).unwrap_or_default();
            let k = head.len().min(dst.len());
            dst[..k].copy_from_slice(&head[..k]);
            dst[k..].fill(0.0);
        } else {
            for (d, &j) in dst.iter_mut().zip(&self.map.thread[t0..]) {
                *d = if j == ABSENT { 0.0 } else { src[j as usize] };
            }
        }
    }
}

impl BlockFill for GatherFill<'_> {
    fn fill(&self, at: usize, dst: &mut [f64]) {
        let (_, nc, nt) = self.shape;
        if dst.is_empty() {
            return;
        }
        // Divide once per block; the row walk below only increments.
        let (r, mut t0) = (at / nt, at % nt);
        let (mut m, mut c) = (r / nc, r % nc);
        let mut done = 0;
        while done < dst.len() {
            let n = (nt - t0).min(dst.len() - done);
            self.fill_row(m, c, t0, &mut dst[done..done + n]);
            done += n;
            t0 = 0;
            c += 1;
            if c == nc {
                c = 0;
                m += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the plan
// ---------------------------------------------------------------------------

/// The cacheable product of building a [`BatchPlan`]: the integrated
/// metadata, per-operand id mappings, and gather tables.
///
/// Building these is the expensive half of a plan (one metadata
/// integration plus one gather-table inversion per operand); the
/// evaluation half is pure arithmetic. Long-running services cache
/// `PlanTables` keyed by the *identity of the operand list* — e.g. the
/// content hashes of the operands in order — and rebuild a cheap
/// [`BatchPlan`] around the cached tables with
/// [`BatchPlan::from_tables`] on every request.
///
/// # Reuse contract
///
/// Tables are only valid for an operand list whose metadata (and, for
/// the rare non-injective operand, severity values) is identical to
/// the list they were built from. [`BatchPlan::from_tables`] verifies
/// the operand count and severity shapes and reports
/// [`AlgebraError::PlanMismatch`] on disagreement; metadata equality
/// beyond the shape is the caller's key discipline (content-addressed
/// stores get it for free).
pub struct PlanTables {
    metadata: Metadata,
    maps: Vec<OperandMap>,
    shape: (usize, usize, usize),
    sources: Vec<Source>,
    /// Per operand, which integrated metrics it provides (`merge`).
    provides: Vec<Vec<bool>>,
    /// Severity shapes the operands had at build time, revalidated on
    /// reuse by [`BatchPlan::from_tables`].
    operand_shapes: Vec<(usize, usize, usize)>,
}

impl PlanTables {
    /// Integrates the operands' metadata and builds the per-operand
    /// gather tables.
    pub fn build(operands: &[&dyn BatchOperand], options: MergeOptions) -> Self {
        if operands.is_empty() {
            // Nothing to integrate; every reduction over this plan
            // reports `EmptyOperandList`.
            return Self {
                metadata: Metadata::new(),
                maps: Vec::new(),
                shape: (0, 0, 0),
                sources: Vec::new(),
                provides: Vec::new(),
                operand_shapes: Vec::new(),
            };
        }
        let mds: Vec<&Metadata> = operands.iter().map(|op| op.metadata()).collect();
        let Integrated { metadata, maps } = integrate_metadata(&mds, options);
        let shape = metadata.shape();
        let views: Vec<OperandView<'_>> = operands.iter().map(|op| OperandView::of(*op)).collect();
        let sources = views
            .iter()
            .zip(&maps)
            .map(|(view, map)| {
                if view.shape == shape && map.is_identity() {
                    Source::Direct
                } else if let Some(g) = GatherMap::try_build(map, shape) {
                    Source::Gather(g)
                } else {
                    Source::Extended(extend_severity_values(view.values, view.shape, map, shape))
                }
            })
            .collect();
        let provides = maps
            .iter()
            .map(|map| {
                let mut mask = vec![false; shape.0];
                for m in &map.metrics {
                    mask[m.index()] = true;
                }
                mask
            })
            .collect();
        Self {
            metadata,
            maps,
            shape,
            sources,
            provides,
            operand_shapes: views.iter().map(|v| v.shape).collect(),
        }
    }

    /// The integrated metadata all evaluations are defined over.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// The integrated severity shape `(metrics, call nodes, threads)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.shape
    }
}

/// A reusable batch-evaluation plan over k operand experiments.
///
/// Construction integrates the operands' metadata **once** and caches
/// per-operand id translations; every subsequent [`BatchPlan::reduce`]
/// or [`BatchPlan::eval`] call is pure element-wise arithmetic over the
/// cached schema. See the [module documentation](self) for the worked
/// example.
pub struct BatchPlan<'a> {
    operands: Vec<&'a dyn BatchOperand>,
    views: Vec<OperandView<'a>>,
    tables: Arc<PlanTables>,
}

impl<'a> BatchPlan<'a> {
    /// Builds a plan with default [`MergeOptions`].
    pub fn new(operands: &[&'a Experiment]) -> Self {
        Self::with_options(operands, MergeOptions::default())
    }

    /// Builds a plan with explicit integration switches.
    pub fn with_options(operands: &[&'a Experiment], options: MergeOptions) -> Self {
        let ops: Vec<&'a dyn BatchOperand> =
            operands.iter().map(|e| *e as &dyn BatchOperand).collect();
        Self::from_operands(&ops, options)
    }

    /// Builds a plan over any [`BatchOperand`] sources — full
    /// experiments, lazy storage handles, or a mix.
    pub fn from_operands(operands: &[&'a dyn BatchOperand], options: MergeOptions) -> Self {
        let tables = Arc::new(PlanTables::build(operands, options));
        Self::from_tables(operands, tables).expect("freshly built tables match their operands")
    }

    /// Rebuilds a plan around cached [`PlanTables`], skipping metadata
    /// integration and gather-table construction entirely.
    ///
    /// This is the plan-cache hook for long-running evaluators: the
    /// tables carry no borrow of the operands, so they can be held in
    /// an LRU across requests and combined with freshly opened operand
    /// handles here. Fails with [`AlgebraError::PlanMismatch`] when the
    /// operand count or any severity shape disagrees with the list the
    /// tables were built from.
    pub fn from_tables(
        operands: &[&'a dyn BatchOperand],
        tables: Arc<PlanTables>,
    ) -> Result<Self, AlgebraError> {
        if operands.len() != tables.operand_shapes.len() {
            return Err(AlgebraError::PlanMismatch {
                reason: format!(
                    "tables were built over {} operands, got {}",
                    tables.operand_shapes.len(),
                    operands.len()
                ),
            });
        }
        let views: Vec<OperandView<'a>> = operands.iter().map(|op| OperandView::of(*op)).collect();
        for (i, (view, built)) in views.iter().zip(&tables.operand_shapes).enumerate() {
            if view.shape != *built {
                return Err(AlgebraError::PlanMismatch {
                    reason: format!(
                        "operand {i} has severity shape {:?}, tables were built over {:?}",
                        view.shape, built
                    ),
                });
            }
        }
        Ok(Self {
            operands: operands.to_vec(),
            views,
            tables,
        })
    }

    /// The cached tables behind this plan, shareable across plans over
    /// equal operand lists.
    pub fn tables(&self) -> &Arc<PlanTables> {
        &self.tables
    }

    /// The integrated metadata all evaluations are defined over.
    pub fn metadata(&self) -> &Metadata {
        &self.tables.metadata
    }

    /// The cached per-operand id mappings, in operand order.
    pub fn maps(&self) -> &[OperandMap] {
        &self.tables.maps
    }

    /// The integrated severity shape `(metrics, call nodes, threads)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        self.tables.shape
    }

    /// Whether the plan has no operands (every reduction then errors).
    pub fn is_empty(&self) -> bool {
        self.operands.is_empty()
    }

    /// Evaluates a reduction over **all** operands of the plan.
    pub fn reduce(&self, r: Reduction) -> Result<Experiment, AlgebraError> {
        self.eval(&Expr::reduce(r, 0..self.operands.len()))
    }

    /// Evaluates a composite expression into a full derived experiment
    /// over the integrated metadata.
    pub fn eval(&self, expr: &Expr) -> Result<Experiment, AlgebraError> {
        let values = self.eval_values(expr)?;
        Ok(derived(
            self.tables.metadata.clone(),
            values,
            self.provenance_of(expr),
        ))
    }

    /// [`Self::eval`] for a plan used once: the result takes the
    /// integrated metadata instead of a copy when no other plan shares
    /// the tables.
    pub fn into_eval(self, expr: &Expr) -> Result<Experiment, AlgebraError> {
        let values = self.eval_values(expr)?;
        let provenance = self.provenance_of(expr);
        let metadata = match Arc::try_unwrap(self.tables) {
            Ok(tables) => tables.metadata,
            Err(shared) => shared.metadata.clone(),
        };
        Ok(derived(metadata, values, provenance))
    }

    // -- expression evaluation ---------------------------------------------

    /// Lowers the whole tree into one kernel program and runs it in a
    /// single traversal ([`crate::kernel`]). Each referenced operand is
    /// bound once: read in place when it needs no gathering, through a
    /// [`GatherFill`] over its cached tables otherwise. Malformed trees
    /// fail to compile with the error `eval` reports.
    fn eval_values(&self, expr: &Expr) -> Result<Vec<f64>, AlgebraError> {
        let prog = KernelProgram::compile(expr, self.operands.len())?;
        let fills: Vec<Option<GatherFill<'_>>> = prog
            .slots()
            .iter()
            .map(|&i| match &self.tables.sources[i] {
                Source::Gather(map) => Some(GatherFill {
                    map,
                    view: self.views[i],
                    shape: self.tables.shape,
                }),
                Source::Direct | Source::Extended(_) => None,
            })
            .collect();
        let inputs: Vec<SlotInput<'_>> = prog
            .slots()
            .iter()
            .zip(&fills)
            .map(|(&i, fill)| match (fill, &self.tables.sources[i]) {
                (Some(fill), _) => SlotInput::Fill(fill),
                (None, Source::Extended(sev)) => SlotInput::Dense(sev.values()),
                (None, _) => SlotInput::Dense(self.views[i].values),
            })
            .collect();
        let masks: Vec<&[bool]> = prog
            .slots()
            .iter()
            .map(|&i| self.tables.provides[i].as_slice())
            .collect();
        let (nm, nc, nt) = self.tables.shape;
        let mut out = vec![0.0; nm * nc * nt];
        kernel::eval_fused(&prog, &inputs, &masks, nc * nt, &mut out);
        Ok(out)
    }

    /// Whether [`Self::eval`] can evaluate `expr`: the tree compiles to
    /// a kernel program. Every plan runs the fused kernel, gathered
    /// operands included, so this is `false` only for the malformed
    /// trees `eval` rejects (an empty reduction, an out-of-range
    /// operand index).
    pub fn fusible(&self, expr: &Expr) -> bool {
        KernelProgram::compile(expr, self.operands.len()).is_ok()
    }

    // -- provenance ---------------------------------------------------------

    fn expr_label(&self, expr: &Expr) -> String {
        self.provenance_of(expr).label()
    }

    fn provenance_of(&self, expr: &Expr) -> Provenance {
        match expr {
            Expr::Operand(i) => self.operands[*i].provenance().clone(),
            Expr::Reduce(r, idxs) => Provenance::derived(
                r.name(),
                idxs.iter()
                    .map(|&i| self.operands[i].provenance().label())
                    .collect(),
            ),
            Expr::Diff(a, b) => {
                Provenance::derived("difference", vec![self.expr_label(a), self.expr_label(b)])
            }
            Expr::Scale(inner, factor) => {
                Provenance::derived("scale", vec![self.expr_label(inner), format!("{factor}")])
            }
            Expr::Zero => Provenance::derived("zero", Vec::new()),
        }
    }
}

/// Wraps evaluated values in the derived experiment they define over
/// `metadata`.
fn derived(metadata: Metadata, values: Vec<f64>, provenance: Provenance) -> Experiment {
    let (nm, nc, nt) = metadata.shape();
    let severity = Severity::from_values(nm, nc, nt, values);
    let result = Experiment::new_unchecked(metadata, severity, provenance);
    crate::invariant::debug_assert_closed(&result, "batch eval");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cube_model::builder::single_threaded_system;
    use cube_model::{ExperimentBuilder, RegionKind, Unit};

    /// One metric, one call node, `ranks` ranks, value `v` everywhere.
    fn uniform(name: &str, ranks: usize, v: f64) -> Experiment {
        let mut b = ExperimentBuilder::new(name);
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, ranks);
        for &tid in &ts {
            b.set_severity(t, root, tid, v);
        }
        b.build().unwrap()
    }

    /// A structurally different experiment (disjoint metric/region
    /// names) so integration exercises the gather path.
    fn disjoint(name: &str, ranks: usize, v: f64) -> Experiment {
        let mut b = ExperimentBuilder::new(name);
        let t = b.def_metric("cycles", Unit::Occurrences, "", None);
        let m = b.def_module("z", "z");
        let r = b.def_region("other", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("z", 1, r);
        let root = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, ranks);
        for &tid in &ts {
            b.set_severity(t, root, tid, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn equal_metadata_uses_direct_sources() {
        let a = uniform("a", 3, 1.0);
        let b = uniform("b", 3, 2.0);
        let plan = BatchPlan::new(&[&a, &b]);
        assert!(plan
            .tables
            .sources
            .iter()
            .all(|s| matches!(s, Source::Direct)));
        let m = plan.reduce(Reduction::Mean).unwrap();
        assert!(m.severity().values().iter().all(|&v| v == 1.5));
        m.validate().unwrap();
    }

    #[test]
    fn cached_tables_rebuild_identical_plans() {
        let a = uniform("a", 3, 1.0);
        let b = disjoint("b", 2, 2.0);
        let ops: Vec<&dyn BatchOperand> = vec![&a, &b];
        let first = BatchPlan::from_operands(&ops, MergeOptions::default());
        let tables = Arc::clone(first.tables());
        let fresh = first.reduce(Reduction::Mean).unwrap();
        drop(first);
        // Same operand list through the cached tables: no integration,
        // identical result bits.
        let reused = BatchPlan::from_tables(&ops, Arc::clone(&tables)).unwrap();
        let again = reused.reduce(Reduction::Mean).unwrap();
        assert_eq!(fresh.severity().values(), again.severity().values());
        assert_eq!(fresh.metadata(), again.metadata());
        assert_eq!(fresh.provenance().label(), again.provenance().label());
        // A mismatched operand list is rejected, not miscomputed.
        let short: Vec<&dyn BatchOperand> = vec![&a];
        assert!(matches!(
            BatchPlan::from_tables(&short, Arc::clone(&tables)),
            Err(AlgebraError::PlanMismatch { .. })
        ));
        let c = uniform("c", 5, 1.0);
        let wrong_shape: Vec<&dyn BatchOperand> = vec![&a, &c];
        assert!(matches!(
            BatchPlan::from_tables(&wrong_shape, tables),
            Err(AlgebraError::PlanMismatch { .. })
        ));
    }

    #[test]
    fn differing_thread_counts_use_prefix_gather() {
        let a = uniform("a", 2, 4.0);
        let b = uniform("b", 4, 2.0);
        let plan = BatchPlan::new(&[&a, &b]);
        assert_eq!(plan.shape().2, 4);
        // a has fewer threads → gather with a contiguous prefix.
        assert!(matches!(
            &plan.tables.sources[0],
            Source::Gather(g) if g.thread_prefix == Some(2)
        ));
        let s = plan.reduce(Reduction::Sum).unwrap();
        assert_eq!(s.severity().values(), &[6.0, 6.0, 2.0, 2.0]);
    }

    #[test]
    fn non_injective_mapping_falls_back_to_extension() {
        // Two structurally equal sibling roots collapse onto one
        // integrated node → non-injective call mapping.
        let mut b = ExperimentBuilder::new("dup");
        let t = b.def_metric("time", Unit::Seconds, "", None);
        let m = b.def_module("a", "a");
        let r = b.def_region("main", m, RegionKind::Function, 1, 1);
        let cs = b.def_call_site("a", 1, r);
        let c0 = b.def_call_node(cs, None);
        let c1 = b.def_call_node(cs, None);
        let ts = single_threaded_system(&mut b, 1);
        b.set_severity(t, c0, ts[0], 1.0);
        b.set_severity(t, c1, ts[0], 2.0);
        let dup = b.build().unwrap();
        let other = uniform("o", 1, 5.0);
        let plan = BatchPlan::new(&[&dup, &other]);
        assert!(matches!(&plan.tables.sources[0], Source::Extended(_)));
        // The duplicate siblings accumulate (1 + 2) before the sum.
        let s = plan.reduce(Reduction::Sum).unwrap();
        assert_eq!(s.severity().values(), &[8.0]);
    }

    #[test]
    fn empty_plan_reductions_error() {
        let plan = BatchPlan::new(&[]);
        assert!(plan.is_empty());
        assert!(matches!(
            plan.reduce(Reduction::Mean),
            Err(AlgebraError::EmptyOperandList { operator: "mean" })
        ));
    }

    #[test]
    fn out_of_range_operand_errors() {
        let a = uniform("a", 1, 1.0);
        let plan = BatchPlan::new(&[&a]);
        assert!(matches!(
            plan.eval(&Expr::Operand(3)),
            Err(AlgebraError::OperandOutOfRange { index: 3, len: 1 })
        ));
        assert!(matches!(
            plan.eval(&Expr::reduce(Reduction::Sum, [0, 9])),
            Err(AlgebraError::OperandOutOfRange { index: 9, len: 1 })
        ));
    }

    #[test]
    fn composite_diff_of_means_single_integration() {
        let a1 = uniform("a1", 2, 2.0);
        let a2 = uniform("a2", 2, 4.0);
        let b1 = uniform("b1", 2, 1.0);
        let b2 = uniform("b2", 2, 2.0);
        let plan = BatchPlan::new(&[&a1, &a2, &b1, &b2]);
        let d = plan
            .eval(&Expr::diff(
                Expr::reduce(Reduction::Mean, 0..2),
                Expr::reduce(Reduction::Mean, 2..4),
            ))
            .unwrap();
        assert!(d
            .severity()
            .values()
            .iter()
            .all(|&v| (v - 1.5).abs() < 1e-12));
        assert_eq!(
            d.provenance().label(),
            "difference(mean(a1, a2), mean(b1, b2))"
        );
        d.validate().unwrap();
    }

    #[test]
    fn scale_and_operand_expressions() {
        let a = uniform("a", 1, 3.0);
        let b = disjoint("b", 1, 9.0);
        let plan = BatchPlan::new(&[&a, &b]);
        // Operand 0 zero-extended onto the union shape.
        let e = plan.eval(&Expr::Operand(0)).unwrap();
        assert_eq!(e.metadata(), plan.metadata());
        assert_eq!(
            e.severity()
                .metric_sum(plan.metadata().find_metric("time").unwrap()),
            3.0
        );
        let doubled = plan.eval(&Expr::scale(Expr::Operand(0), 2.0)).unwrap();
        assert_eq!(
            doubled
                .severity()
                .metric_sum(plan.metadata().find_metric("time").unwrap()),
            6.0
        );
        assert!(doubled.provenance().label().starts_with("scale(a, 2"));
    }

    #[test]
    fn variance_and_stddev_over_disjoint_metadata() {
        // Values 1 and 3 where both define the tuple → variance 1; at
        // tuples only one operand defines, the other counts as zero.
        let a = uniform("a", 1, 1.0);
        let b = uniform("b", 1, 3.0);
        let plan = BatchPlan::new(&[&a, &b]);
        let v = plan.reduce(Reduction::Variance).unwrap();
        assert!((v.severity().values()[0] - 1.0).abs() < 1e-12);
        let s = plan.reduce(Reduction::Stddev).unwrap();
        assert!((s.severity().values()[0] - 1.0).abs() < 1e-12);
        assert_eq!(s.provenance().label(), "stddev(a, b)");
    }

    #[test]
    fn nan_policy_through_batch_reductions() {
        // NaN injected through the unchecked path: additive reductions
        // poison the element; min/max (Rust semantics) drop the single
        // NaN operand. Pinned here per the documented Severity policy.
        let mut a = uniform("a", 1, 1.0);
        a.severity_mut().values_mut()[0] = f64::NAN;
        let b = uniform("b", 1, 3.0);
        let plan = BatchPlan::new(&[&a, &b]);
        assert!(plan.reduce(Reduction::Sum).unwrap().severity().values()[0].is_nan());
        assert!(plan.reduce(Reduction::Mean).unwrap().severity().values()[0].is_nan());
        assert!(plan
            .reduce(Reduction::Variance)
            .unwrap()
            .severity()
            .values()[0]
            .is_nan());
        assert_eq!(
            plan.reduce(Reduction::Min).unwrap().severity().values()[0],
            3.0
        );
        assert_eq!(
            plan.reduce(Reduction::Max).unwrap().severity().values()[0],
            3.0
        );
    }

    #[test]
    fn nested_merge_can_differ_from_one_plan() {
        // Machine `m`, nodes n0 and n1: A has rank 0 on n0, B rank 1 on
        // n1, C rank 1 on n0. One integration of [A, B, C] checks C
        // against A, which lacks rank 1, and copies `m`; the nested
        // merge checks C against merge(A, B), whose rank 1 sits on n1,
        // and collapses.
        let on = |name: &str, rank: i32, node: usize| {
            let mut b = ExperimentBuilder::new(name);
            let t = b.def_metric(name, Unit::Seconds, "", None);
            let m = b.def_module("a", "a");
            let r = b.def_region("main", m, RegionKind::Function, 1, 1);
            let cs = b.def_call_site("a", 1, r);
            let root = b.def_call_node(cs, None);
            let mach = b.def_machine("m");
            let nodes = [b.def_node("n0", mach), b.def_node("n1", mach)];
            let p = b.def_process(format!("rank {rank}"), rank, nodes[node]);
            let th = b.def_thread("thread 0", 0, p);
            b.set_severity(t, root, th, 1.0);
            b.build().unwrap()
        };
        let (a, b, c) = (on("a", 0, 0), on("b", 1, 1), on("c", 1, 0));
        let nested = crate::ops::merge(&crate::ops::merge(&a, &b), &c);
        let one_plan = BatchPlan::new(&[&a, &b, &c])
            .reduce(Reduction::Merge)
            .unwrap();
        assert_eq!(nested.metadata().machines()[0].name, "virtual machine");
        assert_eq!(one_plan.metadata().machines()[0].name, "m");
    }

    #[test]
    fn keep_going_mean_equals_survivor_mean() {
        // The differential property: a k-ary mean restricted to its
        // survivors is the (k−1)-ary mean of the survivors, bit for bit.
        let a = uniform("a", 2, 2.0);
        let b = uniform("b", 3, 4.0);
        let c = disjoint("c", 2, 6.0);
        let alive = [true, false, true];
        let restricted = Expr::reduce(Reduction::Mean, 0..3)
            .restrict(&alive)
            .unwrap();
        assert_eq!(restricted, Expr::reduce(Reduction::Mean, 0..2));
        let degraded = BatchPlan::new(&[&a, &c]).eval(&restricted).unwrap();
        let oracle = BatchPlan::new(&[&a, &c]).reduce(Reduction::Mean).unwrap();
        assert_eq!(degraded.metadata(), oracle.metadata());
        assert_eq!(degraded.severity().values(), oracle.severity().values());
        assert_eq!(degraded.provenance(), oracle.provenance());
        // Sanity: the dropped operand really would have changed the mean.
        let full = BatchPlan::new(&[&a, &b, &c])
            .reduce(Reduction::Mean)
            .unwrap();
        assert_ne!(full.severity().values(), oracle.severity().values());
    }

    #[test]
    fn all_operands_broken_is_still_an_error() {
        let mean = Expr::reduce(Reduction::Mean, 0..2);
        assert_eq!(mean.restrict(&[false, false]), None);
        // Nothing dropped: the expression comes back unchanged.
        assert_eq!(mean.restrict(&[true, true]), Some(mean.clone()));
    }

    #[test]
    fn restrict_refuses_structurally_required_operands() {
        let alive = [true, true, false];
        let diff_side = Expr::diff(Expr::reduce(Reduction::Mean, 0..2), Expr::Operand(2));
        assert_eq!(diff_side.restrict(&alive), None);
        let minuend = Expr::diff(Expr::Operand(2), Expr::reduce(Reduction::Mean, 0..2));
        assert_eq!(minuend.restrict(&alive), None);
        assert_eq!(Expr::scale(Expr::Operand(2), 2.0).restrict(&alive), None);
        assert_eq!(Expr::Operand(2).restrict(&alive), None);
        // A reduction inside a diff or scale may still lose an operand.
        let composite = Expr::scale(
            Expr::diff(
                Expr::reduce(Reduction::Mean, [0, 2]),
                Expr::reduce(Reduction::Mean, [1]),
            ),
            0.5,
        );
        assert_eq!(
            composite.restrict(&alive),
            Some(Expr::scale(
                Expr::diff(
                    Expr::reduce(Reduction::Mean, [0]),
                    Expr::reduce(Reduction::Mean, [1]),
                ),
                0.5,
            ))
        );
    }

    #[test]
    fn restrict_keeps_zero_and_renumbers_in_order() {
        assert_eq!(Expr::Zero.restrict(&[false]), Some(Expr::Zero));
        let zero_minus = Expr::diff(Expr::Zero, Expr::reduce(Reduction::Sum, 0..2));
        assert_eq!(
            zero_minus.restrict(&[false, true]),
            Some(Expr::diff(Expr::Zero, Expr::reduce(Reduction::Sum, [0])))
        );
        // Survivors take their rank among the survivors; list order is
        // the expression's, not sorted.
        let sum = Expr::reduce(Reduction::Sum, [3, 1, 0, 4]);
        assert_eq!(
            sum.restrict(&[false, true, false, true, true]),
            Some(Expr::reduce(Reduction::Sum, [1, 0, 2]))
        );
    }

    #[test]
    fn restrict_leaves_out_of_range_indices_for_eval_to_report() {
        let a = uniform("a", 1, 1.0);
        let plan = BatchPlan::new(&[&a]);
        let sum = Expr::reduce(Reduction::Sum, [1, 5]).restrict(&[false, true]);
        assert_eq!(sum, Some(Expr::reduce(Reduction::Sum, [0, 5])));
        assert!(matches!(
            plan.eval(&sum.unwrap()),
            Err(AlgebraError::OperandOutOfRange { index: 5, len: 1 })
        ));
        let bare = Expr::Operand(7).restrict(&[true]);
        assert_eq!(bare, Some(Expr::Operand(7)));
        assert!(matches!(
            plan.eval(&bare.unwrap()),
            Err(AlgebraError::OperandOutOfRange { index: 7, len: 1 })
        ));
    }
}
