//! Fused SIMD evaluation kernels: one pass over the data per expression.
//!
//! This is the one evaluator behind [`crate::batch::BatchPlan::eval`],
//! and so behind every n-ary operator, `ops::diff`, `cube stats`, and
//! `/eval`. BENCH_5.json shows the 1M-element element-wise layer is
//! memory-bound, so the levers are *fewer passes* over the severity
//! arrays and *wider* per-element operations. This module supplies
//! both, plus the zero-extension the algebra needs:
//!
//! 1. **A fusion planner.** [`KernelProgram::compile`] lowers a checked
//!    [`Expr`] tree into a flat program over a small virtual register
//!    file — one `Load` per *distinct* operand, then pure register
//!    arithmetic. Evaluating the program is a single traversal of the
//!    operand arrays: `diff(mean(A,B),mean(C,D))` reads A, B, C, D once
//!    each and writes the result once, with no intermediate array per
//!    operator node.
//! 2. **Explicit-width lane kernels.** [`eval_fused`] interprets the
//!    program over register *tiles* of [`TILE`] elements; each
//!    instruction's inner loop is written over [`LANE`]-wide chunks
//!    (`chunks_exact`, no `unsafe`) with a scalar remainder, the shape
//!    LLVM reliably turns into packed `f64x4` vector code. Instruction
//!    dispatch is amortized over the whole tile, so interpreter
//!    overhead is ~1/[`TILE`] of a branch per element.
//! 3. **A gather load.** Each program slot is bound to a [`SlotInput`]:
//!    a dense array read in place, or a [`BlockFill`] that writes one
//!    block of the operand's *zero-extended* values into scratch before
//!    the block's tiles run. The plan supplies fills for operands whose
//!    metadata differs from the integrated schema.
//! 4. **A pick.** `merge` is a per-metric selection, not arithmetic:
//!    [`Instr::Pick`] copies, per metric run, the first listed slot
//!    whose operand provides that metric. The caller passes one mask
//!    per slot (which integrated metrics its operand provides) and the
//!    number of values per metric; a tile or block may straddle a
//!    metric boundary.
//!
//! A plain per-element scalar interpreter, [`eval_scalar`], is kept as
//! the **test oracle**: `kernel_props.rs` pins `eval_fused ==
//! eval_scalar` *bitwise* across tail lengths and NaN cases, and — for
//! whole plans — against `eval_scalar` over operands zero-extended with
//! [`crate::extend::extend_severity_values`].
//!
//! # Determinism contract
//!
//! Results are **byte-identical** at every thread count, and equal to
//! zero-extending every operand first and then applying each operator
//! element-wise (the paper's §3). This is what keeps `cube serve`'s
//! result caches sound, and it holds by construction:
//!
//! * Every `Expr` node lowers to a fixed per-element operation
//!   sequence — reductions are left folds in operand order, `mean`
//!   multiplies by a precomputed `1/k` (skipped when `k == 1`), the
//!   moments divide by `k` (true division, not a reciprocal multiply),
//!   `stddev` takes one final square root, `merge` copies one operand's
//!   value bit for bit.
//! * A fill feeds exactly the zero-extended inputs: the operand's own
//!   value, bit for bit, where it defines the tuple, `0.0` where not.
//! * All of those operations are element-wise, so block and tile
//!   boundaries — and therefore the worker count — cannot change any
//!   bit of any element.
//! * No value-changing rewrite is applied implicitly: the planner
//!   lowers the tree it is given. The advisory rewrite pass
//!   ([`crate::check::rewrite`]) stays a separate, opt-in step; trees
//!   containing its [`Expr::Zero`] foldings lower to a `Const` fill
//!   that skips severity reads entirely.
//!
//! # Page-granular streaming
//!
//! The driver splits the output into blocks of [`BLOCK_VALUES`]
//! elements — exactly one `.cubec` severity page (32 KiB of `f64`, see
//! `docs/STORE.md`) — so a fused evaluation over columnar operands
//! streams the decoded pages through the cache in page order, one
//! page-sized working set per worker at a time. Blocks run serially
//! below 64Ki elements and, in tasks of eight, on the worker pool above
//! it; a fill's scratch is one block per worker.

use std::cell::Cell;

use rayon::prelude::*;

use crate::batch::{Expr, Reduction};
use crate::error::AlgebraError;

/// Below this element count evaluation stays serial; the fork/join
/// overhead would dominate (see the `par_elementwise` bench).
pub(crate) const PAR_THRESHOLD: usize = 1 << 16;

/// Lane width of the chunked kernels: four `f64`s, one AVX2 register
/// (and two NEON registers). Tail elements past the last full lane are
/// handled by the scalar remainder of each kernel.
pub const LANE: usize = 4;

/// Elements per interpreter tile: each instruction runs over a whole
/// tile before the next instruction dispatches, amortizing the
/// interpreter branch to ~1/64 of a match per element while keeping
/// the register file (`num_regs × TILE × 8` bytes) L1-resident.
pub const TILE: usize = 64;

/// Elements per block: one `.cubec` severity page (32 KiB of `f64`).
/// Workers claim whole pages, so fused evaluation over columnar
/// operands streams the store's decode granularity.
pub const BLOCK_VALUES: usize = 4096;

// ---------------------------------------------------------------------------
// the program
// ---------------------------------------------------------------------------

/// The fold applied by a [`Instr::Fold`] step, in operand order:
/// `dst = op(dst, operand)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldOp {
    /// `dst + v` (sum, mean, and the moments' inner sums).
    Add,
    /// `f64::min(dst, v)` — Rust semantics: a NaN side loses.
    Min,
    /// `f64::max(dst, v)`.
    Max,
}

impl FoldOp {
    #[inline]
    fn apply(self, d: f64, v: f64) -> f64 {
        match self {
            Self::Add => d + v,
            Self::Min => d.min(v),
            Self::Max => d.max(v),
        }
    }
}

/// One step of a fused kernel program. Registers hold one value per
/// output element; `slot` indexes the program's distinct-operand table
/// ([`KernelProgram::slots`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// `r[dst] = operand[slot]`.
    Load { dst: usize, slot: usize },
    /// `r[dst] = value` (the [`Expr::Zero`] lowering).
    Const { dst: usize, value: f64 },
    /// `r[dst] = op(r[dst], operand[slot])`.
    Fold { dst: usize, slot: usize, op: FoldOp },
    /// `r[dst] -= r[src]` (the `diff` combination).
    SubAssign { dst: usize, src: usize },
    /// `r[dst] *= factor` (`scale`, and `mean`'s `1/k`).
    MulConst { dst: usize, factor: f64 },
    /// `r[dst] /= divisor` (the moments divide; `/k` is never
    /// rewritten as `× (1/k)`, which rounds differently).
    DivConst { dst: usize, divisor: f64 },
    /// `r[dst] += (operand[slot] − r[mean])²` (variance accumulation).
    SqDevAcc {
        dst: usize,
        slot: usize,
        mean: usize,
    },
    /// `r[dst] = sqrt(r[dst])` (the `stddev` finisher).
    Sqrt { dst: usize },
    /// `r[dst] = operand[s]` for the first slot `s` of the program's
    /// pick list `from..to` (the merge operands' slots, in list order)
    /// whose operand provides the element's metric, `0.0` where none
    /// does (the `merge` lowering).
    Pick { dst: usize, from: usize, to: usize },
}

/// A fused kernel program: the flat lowering of one [`Expr`] tree.
///
/// Produced by [`KernelProgram::compile`], executed by [`eval_fused`]
/// (lane kernels) or [`eval_scalar`] (the oracle). The program is pure
/// data — no borrows of the plan or the operands — so callers may cache
/// it alongside [`crate::batch::PlanTables`].
#[derive(Clone, Debug)]
pub struct KernelProgram {
    instrs: Vec<Instr>,
    num_regs: usize,
    out: usize,
    slots: Vec<usize>,
    picks: Vec<usize>,
}

impl KernelProgram {
    /// Lowers an expression over `num_operands` plan operands into a
    /// fused program.
    ///
    /// Fails with [`AlgebraError::EmptyOperandList`] for an empty
    /// reduction and [`AlgebraError::OperandOutOfRange`] for a bad
    /// operand index, reporting the first one in left-to-right order;
    /// [`crate::batch::BatchPlan::eval`] returns these errors as is.
    pub fn compile(expr: &Expr, num_operands: usize) -> Result<Self, AlgebraError> {
        let mut c = Compiler {
            num_operands,
            instrs: Vec::new(),
            slots: Vec::new(),
            picks: Vec::new(),
            free: Vec::new(),
            num_regs: 0,
        };
        let out = c.lower(expr)?;
        Ok(Self {
            instrs: c.instrs,
            num_regs: c.num_regs,
            out,
            slots: c.slots,
            picks: c.picks,
        })
    }

    /// The program's steps, in execution order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Size of the virtual register file (peak live registers).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// The distinct operand indices the program loads, in first-use
    /// order. [`eval_fused`]'s `sources` argument is indexed by
    /// position in this table, so each operand's severity array is
    /// bound exactly once however many times the expression names it.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// The slot an [`Instr::Pick`] over `picks[from..to]` reads at
    /// metric `m`, given one provided-metric mask per slot.
    fn picked(&self, from: usize, to: usize, masks: &[&[bool]], m: usize) -> Option<usize> {
        self.picks[from..to].iter().copied().find(|&s| masks[s][m])
    }
}

/// Compile-time state: a bump-plus-free-list register allocator and the
/// distinct-operand slot table.
struct Compiler {
    num_operands: usize,
    instrs: Vec<Instr>,
    slots: Vec<usize>,
    picks: Vec<usize>,
    free: Vec<usize>,
    num_regs: usize,
}

impl Compiler {
    fn alloc(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            let r = self.num_regs;
            self.num_regs += 1;
            r
        })
    }

    fn release(&mut self, r: usize) {
        self.free.push(r);
    }

    fn slot(&mut self, operand: usize) -> usize {
        match self.slots.iter().position(|&s| s == operand) {
            Some(s) => s,
            None => {
                self.slots.push(operand);
                self.slots.len() - 1
            }
        }
    }

    fn check_index(&self, i: usize) -> Result<(), AlgebraError> {
        if i >= self.num_operands {
            return Err(AlgebraError::OperandOutOfRange {
                index: i,
                len: self.num_operands,
            });
        }
        Ok(())
    }

    /// Lowers one node, returning the register holding its value. The
    /// walk goes left before right, operands in list order.
    fn lower(&mut self, expr: &Expr) -> Result<usize, AlgebraError> {
        match expr {
            Expr::Operand(i) => {
                self.check_index(*i)?;
                let dst = self.alloc();
                let slot = self.slot(*i);
                self.instrs.push(Instr::Load { dst, slot });
                Ok(dst)
            }
            Expr::Zero => {
                let dst = self.alloc();
                self.instrs.push(Instr::Const { dst, value: 0.0 });
                Ok(dst)
            }
            Expr::Reduce(r, idxs) => self.lower_reduce(*r, idxs),
            Expr::Diff(a, b) => {
                let dst = self.lower(a)?;
                let src = self.lower(b)?;
                self.instrs.push(Instr::SubAssign { dst, src });
                self.release(src);
                Ok(dst)
            }
            Expr::Scale(inner, factor) => {
                let dst = self.lower(inner)?;
                // Multiply unconditionally, even by 1.0: `scale(e, 1)`
                // is a multiplication, which the rewrite pass may drop.
                self.instrs.push(Instr::MulConst {
                    dst,
                    factor: *factor,
                });
                Ok(dst)
            }
        }
    }

    fn lower_reduce(&mut self, r: Reduction, idxs: &[usize]) -> Result<usize, AlgebraError> {
        let Some((&first, rest)) = idxs.split_first() else {
            return Err(AlgebraError::EmptyOperandList { operator: r.name() });
        };
        for &i in idxs {
            self.check_index(i)?;
        }
        let k = idxs.len() as f64;
        match r {
            Reduction::Merge => {
                let dst = self.alloc();
                let from = self.picks.len();
                for &i in idxs {
                    let slot = self.slot(i);
                    self.picks.push(slot);
                }
                let to = self.picks.len();
                self.instrs.push(Instr::Pick { dst, from, to });
                Ok(dst)
            }
            Reduction::Sum | Reduction::Mean | Reduction::Min | Reduction::Max => {
                let op = match r {
                    Reduction::Min => FoldOp::Min,
                    Reduction::Max => FoldOp::Max,
                    _ => FoldOp::Add,
                };
                let dst = self.alloc();
                let slot = self.slot(first);
                self.instrs.push(Instr::Load { dst, slot });
                for &i in rest {
                    let slot = self.slot(i);
                    self.instrs.push(Instr::Fold { dst, slot, op });
                }
                // A single-operand mean is the operand itself: no scale.
                let scale = if r == Reduction::Mean { 1.0 / k } else { 1.0 };
                if scale != 1.0 {
                    self.instrs.push(Instr::MulConst { dst, factor: scale });
                }
                Ok(dst)
            }
            Reduction::Variance | Reduction::Stddev => {
                // The two-pass moment, collapsed per element:
                // mean = (Σ vᵢ) / k, then acc = (Σ (vᵢ − mean)²) / k.
                let mean = self.alloc();
                let slot = self.slot(first);
                self.instrs.push(Instr::Load { dst: mean, slot });
                for &i in rest {
                    let slot = self.slot(i);
                    self.instrs.push(Instr::Fold {
                        dst: mean,
                        slot,
                        op: FoldOp::Add,
                    });
                }
                self.instrs.push(Instr::DivConst {
                    dst: mean,
                    divisor: k,
                });
                let dst = self.alloc();
                self.instrs.push(Instr::Const { dst, value: 0.0 });
                for &i in idxs {
                    let slot = self.slot(i);
                    self.instrs.push(Instr::SqDevAcc { dst, slot, mean });
                }
                self.release(mean);
                self.instrs.push(Instr::DivConst { dst, divisor: k });
                if r == Reduction::Stddev {
                    self.instrs.push(Instr::Sqrt { dst });
                }
                Ok(dst)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// lane kernels
// ---------------------------------------------------------------------------
//
// Each kernel runs over same-length slices (≤ TILE elements): a
// `chunks_exact` loop over LANE-wide chunks — fixed-trip inner loops
// LLVM lowers to packed vector instructions — plus a scalar remainder
// for the tail. No `unsafe`, no platform intrinsics: determinism comes
// from performing the scalar-identical IEEE operation per element.

/// `dst[i] = op(dst[i], src[i])`, lane-chunked.
fn k_fold(dst: &mut [f64], src: &[f64], op: FoldOp) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANE);
    let mut s = src.chunks_exact(LANE);
    for (d, s) in (&mut d).zip(&mut s) {
        for l in 0..LANE {
            d[l] = op.apply(d[l], s[l]);
        }
    }
    for (d, &s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d = op.apply(*d, s);
    }
}

/// `dst[i] -= src[i]`, lane-chunked.
fn k_sub(dst: &mut [f64], src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(LANE);
    let mut s = src.chunks_exact(LANE);
    for (d, s) in (&mut d).zip(&mut s) {
        for l in 0..LANE {
            d[l] -= s[l];
        }
    }
    for (d, &s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d -= s;
    }
}

/// `dst[i] *= factor`, lane-chunked.
fn k_mul(dst: &mut [f64], factor: f64) {
    let mut d = dst.chunks_exact_mut(LANE);
    for d in &mut d {
        for d in d.iter_mut() {
            *d *= factor;
        }
    }
    for d in d.into_remainder() {
        *d *= factor;
    }
}

/// `dst[i] /= divisor`, lane-chunked.
fn k_div(dst: &mut [f64], divisor: f64) {
    let mut d = dst.chunks_exact_mut(LANE);
    for d in &mut d {
        for d in d.iter_mut() {
            *d /= divisor;
        }
    }
    for d in d.into_remainder() {
        *d /= divisor;
    }
}

/// `dst[i] += (v[i] − m[i])²`, lane-chunked.
fn k_sqdev(dst: &mut [f64], v: &[f64], m: &[f64]) {
    debug_assert_eq!(dst.len(), v.len());
    debug_assert_eq!(dst.len(), m.len());
    let mut d = dst.chunks_exact_mut(LANE);
    let mut vv = v.chunks_exact(LANE);
    let mut mm = m.chunks_exact(LANE);
    for ((d, v), m) in (&mut d).zip(&mut vv).zip(&mut mm) {
        for l in 0..LANE {
            let x = v[l] - m[l];
            d[l] += x * x;
        }
    }
    for ((d, &v), &m) in d
        .into_remainder()
        .iter_mut()
        .zip(vv.remainder())
        .zip(mm.remainder())
    {
        let x = v - m;
        *d += x * x;
    }
}

/// `dst[i] = sqrt(dst[i])`, lane-chunked.
fn k_sqrt(dst: &mut [f64]) {
    let mut d = dst.chunks_exact_mut(LANE);
    for d in &mut d {
        for d in d.iter_mut() {
            *d = d.sqrt();
        }
    }
    for d in d.into_remainder() {
        *d = d.sqrt();
    }
}

/// Disjoint mutable/shared access to two registers of one tile file.
fn reg_pair(regs: &mut [[f64; TILE]], dst: usize, src: usize) -> (&mut [f64; TILE], &[f64; TILE]) {
    debug_assert_ne!(dst, src, "register pair aliases");
    if dst < src {
        let (lo, hi) = regs.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    } else {
        let (lo, hi) = regs.split_at_mut(dst);
        (&mut hi[0], &lo[src])
    }
}

// ---------------------------------------------------------------------------
// execution
// ---------------------------------------------------------------------------

/// One block's inputs, bound once for all of its tiles.
struct Block<'a> {
    /// Per slot, the operand's values over the block.
    sources: Vec<&'a [f64]>,
    /// Per slot, which metrics its operand provides ([`Instr::Pick`]).
    masks: &'a [&'a [bool]],
    /// Values per metric.
    per_metric: usize,
    /// Output index of the block's first element.
    at: usize,
}

/// Runs the program over one tile: elements `[off, off + n)` of the
/// block, result landing in `out[.. n]`.
fn run_tile(
    prog: &KernelProgram,
    block: &Block<'_>,
    off: usize,
    n: usize,
    regs: &mut [[f64; TILE]],
    out: &mut [f64],
) {
    let src = |slot: usize| &block.sources[slot][off..off + n];
    for instr in &prog.instrs {
        match *instr {
            Instr::Load { dst, slot } => regs[dst][..n].copy_from_slice(src(slot)),
            Instr::Const { dst, value } => regs[dst][..n].fill(value),
            Instr::Fold { dst, slot, op } => k_fold(&mut regs[dst][..n], src(slot), op),
            Instr::SubAssign { dst, src } => {
                let (d, s) = reg_pair(regs, dst, src);
                k_sub(&mut d[..n], &s[..n]);
            }
            Instr::MulConst { dst, factor } => k_mul(&mut regs[dst][..n], factor),
            Instr::DivConst { dst, divisor } => k_div(&mut regs[dst][..n], divisor),
            Instr::SqDevAcc { dst, slot, mean } => {
                let (d, m) = reg_pair(regs, dst, mean);
                k_sqdev(&mut d[..n], src(slot), &m[..n]);
            }
            Instr::Sqrt { dst } => k_sqrt(&mut regs[dst][..n]),
            Instr::Pick { dst, from, to } => {
                // One metric run at a time: the tile may straddle a
                // metric boundary.
                let mut i = 0;
                while i < n {
                    let pos = block.at + off + i;
                    let m = pos / block.per_metric;
                    let run = ((m + 1) * block.per_metric - pos).min(n - i);
                    let d = &mut regs[dst][i..i + run];
                    match prog.picked(from, to, block.masks, m) {
                        Some(s) => d.copy_from_slice(&src(s)[i..i + run]),
                        None => d.fill(0.0),
                    }
                    i += run;
                }
            }
        }
    }
    out[..n].copy_from_slice(&regs[prog.out][..n]);
}

/// A zero-extending operand source, produced one block at a time.
///
/// `fill(at, dst)` writes elements `[at, at + dst.len())` of the
/// operand's values on the output's shape: the operand's own value, bit
/// for bit, where it defines the element, and `0.0` where it does not.
/// Blocks for disjoint ranges may be filled concurrently.
pub trait BlockFill: Sync {
    /// Writes the zero-extended elements `[at, at + dst.len())`.
    fn fill(&self, at: usize, dst: &mut [f64]);
}

/// What one program slot reads.
#[derive(Clone, Copy)]
pub enum SlotInput<'a> {
    /// A full-length array in the output's layout, read in place.
    Dense(&'a [f64]),
    /// A block fill, run into scratch before each block's tiles.
    Fill(&'a dyn BlockFill),
}

/// Elements per parallel task: eight blocks, run one after another on
/// one worker, so a task's register file is set up once for all of
/// them.
const TASK_VALUES: usize = 8 * BLOCK_VALUES;

thread_local! {
    /// Per-worker fill scratch, one block per fill, reused across tasks
    /// and evaluations so a gathered block costs no allocation or
    /// zeroing. It keeps the largest size the worker has needed.
    static SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// Runs the program over `chunk` (elements `[base, base + chunk.len())`
/// of the output), one [`BLOCK_VALUES`] block at a time. Before a
/// block's tiles run, every slot is bound to the block's range — a
/// dense slice in place, a fill into its own block-sized stripe of the
/// worker's scratch.
fn run_blocks(
    prog: &KernelProgram,
    inputs: &[SlotInput<'_>],
    masks: &[&[bool]],
    per_metric: usize,
    base: usize,
    chunk: &mut [f64],
) {
    let fills = inputs
        .iter()
        .filter(|i| matches!(i, SlotInput::Fill(_)))
        .count();
    let stripe = BLOCK_VALUES.min(chunk.len()).max(1);
    let mut regs = vec![[0.0f64; TILE]; prog.num_regs.max(1)];
    // Taken out of the cell, not borrowed, so a fill may itself
    // evaluate on this thread without aliasing it.
    let mut scratch = SCRATCH.take();
    if scratch.len() < fills * stripe {
        scratch.resize(fills * stripe, 0.0);
    }
    for (b, out) in chunk.chunks_mut(BLOCK_VALUES).enumerate() {
        let at = base + b * BLOCK_VALUES;
        let n = out.len();
        let mut stripes = scratch.chunks_exact_mut(stripe);
        let sources = inputs
            .iter()
            .map(|input| match *input {
                SlotInput::Dense(s) => &s[at..at + n],
                SlotInput::Fill(f) => {
                    let stripe = stripes.next().expect("one scratch stripe per fill");
                    let dst = &mut stripe[..n];
                    f.fill(at, dst);
                    &*dst
                }
            })
            .collect();
        let block = Block {
            sources,
            masks,
            per_metric,
            at,
        };
        let mut off = 0;
        while off < n {
            let t = TILE.min(n - off);
            run_tile(prog, &block, off, t, &mut regs, &mut out[off..]);
            off += t;
        }
    }
    SCRATCH.set(scratch);
}

/// Evaluates a fused program with the tiled lane kernels, one
/// [`BLOCK_VALUES`] block at a time: serially below the element
/// threshold, in tasks of eight blocks on the worker pool above it.
///
/// `inputs` and `masks` bind the program's slots in
/// [`KernelProgram::slots`] order; every dense input must be exactly
/// `out.len()` long. `masks[s][m]` says whether slot `s`'s operand
/// provides metric `m`, and each metric spans `per_metric` consecutive
/// elements of `out`; only [`Instr::Pick`] reads them. Results are
/// bit-identical to [`eval_scalar`] over the materialized inputs at
/// every thread count.
pub fn eval_fused(
    prog: &KernelProgram,
    inputs: &[SlotInput<'_>],
    masks: &[&[bool]],
    per_metric: usize,
    out: &mut [f64],
) {
    assert_eq!(inputs.len(), prog.slots.len(), "one input per program slot");
    assert_eq!(masks.len(), prog.slots.len(), "one mask per program slot");
    for input in inputs {
        if let SlotInput::Dense(s) = input {
            assert_eq!(s.len(), out.len(), "dense input length matches the output");
        }
    }
    if out.len() >= PAR_THRESHOLD {
        out.par_chunks_mut(TASK_VALUES)
            .enumerate()
            .for_each(|(t, chunk)| {
                run_blocks(prog, inputs, masks, per_metric, t * TASK_VALUES, chunk)
            });
    } else {
        run_blocks(prog, inputs, masks, per_metric, 0, out);
    }
}

/// The scalar reference interpreter: one element at a time, plain `f64`
/// registers. This is the differential oracle the lane kernels are
/// pinned against — deliberately simple, never vectorized. `masks` and
/// `per_metric` are as for [`eval_fused`].
pub fn eval_scalar(
    prog: &KernelProgram,
    sources: &[&[f64]],
    masks: &[&[bool]],
    per_metric: usize,
    out: &mut [f64],
) {
    assert_eq!(
        sources.len(),
        prog.slots.len(),
        "one source per program slot"
    );
    assert_eq!(masks.len(), prog.slots.len(), "one mask per program slot");
    for s in sources {
        assert_eq!(s.len(), out.len(), "source length matches the output");
    }
    let mut regs = vec![0.0f64; prog.num_regs.max(1)];
    for (i, o) in out.iter_mut().enumerate() {
        for instr in &prog.instrs {
            match *instr {
                Instr::Load { dst, slot } => regs[dst] = sources[slot][i],
                Instr::Const { dst, value } => regs[dst] = value,
                Instr::Fold { dst, slot, op } => regs[dst] = op.apply(regs[dst], sources[slot][i]),
                Instr::SubAssign { dst, src } => regs[dst] -= regs[src],
                Instr::MulConst { dst, factor } => regs[dst] *= factor,
                Instr::DivConst { dst, divisor } => regs[dst] /= divisor,
                Instr::SqDevAcc { dst, slot, mean } => {
                    let x = sources[slot][i] - regs[mean];
                    regs[dst] += x * x;
                }
                Instr::Sqrt { dst } => regs[dst] = regs[dst].sqrt(),
                Instr::Pick { dst, from, to } => {
                    regs[dst] = prog
                        .picked(from, to, masks, i / per_metric)
                        .map_or(0.0, |s| sources[s][i]);
                }
            }
        }
        *o = regs[prog.out];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream with negatives, zeros, and magnitude
    /// spread (same LCG family the fuzz harnesses use).
    fn values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
                (mantissa - 0.5) * 1e6
            })
            .collect()
    }

    fn run_both(prog: &KernelProgram, sources: &[&[f64]], n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut fused = vec![0.0; n];
        let mut scalar = vec![0.0; n];
        let inputs: Vec<SlotInput<'_>> = sources.iter().map(|&s| SlotInput::Dense(s)).collect();
        // One metric every operand provides.
        let masks = vec![&[true][..]; sources.len()];
        eval_fused(prog, &inputs, &masks, n.max(1), &mut fused);
        eval_scalar(prog, sources, &masks, n.max(1), &mut scalar);
        (fused, scalar)
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: lengths");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn compile_dedups_operand_loads() {
        let expr = Expr::diff(
            Expr::reduce(Reduction::Mean, [0, 1]),
            Expr::reduce(Reduction::Mean, [1, 2]),
        );
        let prog = KernelProgram::compile(&expr, 3).unwrap();
        // Operand 1 appears in both reductions but gets one slot.
        assert_eq!(prog.slots(), &[0, 1, 2]);
        assert_eq!(prog.num_regs(), 2);
    }

    #[test]
    fn compile_reports_malformed_trees() {
        let empty = Expr::Reduce(Reduction::Mean, Vec::new());
        assert!(matches!(
            KernelProgram::compile(&empty, 2),
            Err(AlgebraError::EmptyOperandList { operator: "mean" })
        ));
        let out_of_range = Expr::reduce(Reduction::Sum, [0, 7]);
        assert!(matches!(
            KernelProgram::compile(&out_of_range, 2),
            Err(AlgebraError::OperandOutOfRange { index: 7, len: 2 })
        ));
    }

    #[test]
    fn fused_matches_scalar_on_composites_across_tails() {
        let expr = Expr::diff(
            Expr::reduce(Reduction::Mean, [0, 1]),
            Expr::scale(Expr::reduce(Reduction::Stddev, [2, 3, 0]), 2.5),
        );
        let prog = KernelProgram::compile(&expr, 4).unwrap();
        for n in [
            0,
            1,
            LANE - 1,
            LANE,
            LANE + 1,
            TILE - 1,
            TILE,
            TILE + 1,
            517,
        ] {
            let data: Vec<Vec<f64>> = (0..4).map(|s| values(n, s as u64 + 1)).collect();
            let sources: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let (fused, scalar) = run_both(&prog, &sources, n);
            assert_bits_eq(&fused, &scalar, &format!("composite at n={n}"));
        }
    }

    #[test]
    fn empty_program_inputs_are_harmless() {
        let prog = KernelProgram::compile(&Expr::Zero, 0).unwrap();
        let (fused, scalar) = run_both(&prog, &[], 5);
        assert_bits_eq(&fused, &scalar, "zero program");
        assert!(fused.iter().all(|&v| v == 0.0));
    }
}
