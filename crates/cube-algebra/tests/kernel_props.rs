//! Unit-level properties of the fused SIMD kernels (`cube_algebra::kernel`).
//!
//! Three layers of pinning, all **bitwise** (`f64::to_bits`, never an
//! epsilon):
//!
//! 1. program level — [`kernel::eval_fused`] (tiled lane kernels)
//!    against [`kernel::eval_scalar`] (the per-element oracle), across
//!    every reduction, composite trees, and the SIMD tail lengths
//!    `0 / 1 / LANE−1 / LANE / LANE+1` plus tile and block boundaries,
//!    with dense and block-fill inputs, and `merge`'s pick with metric
//!    boundaries inside lanes, tiles and blocks;
//! 2. NaN policy — additive reductions propagate NaN, `min`/`max` drop
//!    it (Rust `f64::min`/`max` semantics), fused and scalar agreeing
//!    bit for bit;
//! 3. plan level — [`BatchPlan::eval`] over real experiments against a
//!    test-side oracle: every operand zero-extended with
//!    `extend_severity_values` through `plan.maps()`, and its
//!    provided-metric mask read off the same maps, then `eval_scalar`.
//!    Dense, thread-prefix, per-thread-gather, extended (non-injective),
//!    block-straddling, parallel-sized and mixed-metric-set plans.
//!
//! The CI kernel stage runs this suite directly and `make miri` runs it
//! under the interpreter (sizes shrink under miri; the borrow juggling
//! in the tile executor is what miri is there to check).

use cube_algebra::batch::BatchOperand;
use cube_algebra::extend::extend_severity_values;
use cube_algebra::kernel::{self, BlockFill, KernelProgram, SlotInput, BLOCK_VALUES, LANE, TILE};
use cube_algebra::{BatchPlan, Expr, MergeOptions, Reduction};
use cube_model::{Experiment, ExperimentBuilder, RegionKind, Severity, Unit};

/// Elements for the parallel-path tests: above the 64Ki threshold so
/// `eval_fused` runs its [`BLOCK_VALUES`] blocks on the pool (shrunk
/// under miri, where the interpreter makes big sweeps prohibitively
/// slow and the serial block loop exercises the same borrows).
const BIG: usize = if cfg!(miri) { 3 * TILE + 7 } else { 80_000 };

const ALL_REDUCTIONS: [Reduction; 7] = [
    Reduction::Sum,
    Reduction::Mean,
    Reduction::Min,
    Reduction::Max,
    Reduction::Variance,
    Reduction::Stddev,
    Reduction::Merge,
];

/// Deterministic value stream with sign changes and magnitude spread.
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

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: element {i} differs bitwise: {x:?} vs {y:?}"
        );
    }
}

/// Runs `prog` through both interpreters and asserts bit-equality.
/// `provides[i]` masks operand `i`'s metrics, `per_metric` values each.
fn pin_picks(
    prog: &KernelProgram,
    data: &[Vec<f64>],
    provides: &[Vec<bool>],
    per_metric: usize,
    what: &str,
) -> Vec<f64> {
    let n = data.first().map_or(0, Vec::len);
    let sources: Vec<&[f64]> = prog.slots().iter().map(|&i| data[i].as_slice()).collect();
    let masks: Vec<&[bool]> = prog
        .slots()
        .iter()
        .map(|&i| provides[i].as_slice())
        .collect();
    let inputs: Vec<SlotInput<'_>> = sources.iter().map(|&s| SlotInput::Dense(s)).collect();
    let mut fused = vec![0.0; n];
    let mut scalar = vec![0.0; n];
    kernel::eval_fused(prog, &inputs, &masks, per_metric, &mut fused);
    kernel::eval_scalar(prog, &sources, &masks, per_metric, &mut scalar);
    assert_bits_eq(&fused, &scalar, what);
    fused
}

/// [`pin_picks`] over one metric every operand provides.
fn pin(prog: &KernelProgram, data: &[Vec<f64>], what: &str) -> Vec<f64> {
    let n = data.first().map_or(0, Vec::len);
    pin_picks(prog, data, &vec![vec![true]; data.len()], n.max(1), what)
}

// ---------------------------------------------------------------------------
// program level: fused == scalar oracle, bitwise
// ---------------------------------------------------------------------------

#[test]
fn every_reduction_matches_the_scalar_oracle() {
    let n = 2 * TILE + LANE + 1;
    let data: Vec<Vec<f64>> = (0..4).map(|s| values(n, s + 1)).collect();
    for r in ALL_REDUCTIONS {
        for k in 1..=4usize {
            let expr = Expr::reduce(r, 0..k);
            let prog = KernelProgram::compile(&expr, 4).unwrap();
            pin(&prog, &data, &format!("{}/{k}", r.name()));
        }
    }
}

#[test]
fn simd_tails_at_lane_and_tile_boundaries() {
    // The lengths the tail rules must get right: empty, sub-lane, the
    // exact lane, lane+1, and the same around the interpreter tile and
    // a block boundary.
    let lengths = [
        0,
        1,
        LANE - 1,
        LANE,
        LANE + 1,
        TILE - 1,
        TILE,
        TILE + 1,
        BLOCK_VALUES - 1,
        BLOCK_VALUES,
        BLOCK_VALUES + 1,
    ];
    let expr = Expr::diff(
        Expr::reduce(Reduction::Mean, [0, 1, 2]),
        Expr::scale(Expr::reduce(Reduction::Stddev, [1, 3]), -0.25),
    );
    let prog = KernelProgram::compile(&expr, 4).unwrap();
    for n in lengths {
        let data: Vec<Vec<f64>> = (0..4).map(|s| values(n, s + 11)).collect();
        pin(&prog, &data, &format!("composite at n={n}"));
    }
}

#[test]
fn parallel_blocks_are_bit_identical_to_the_oracle() {
    let data: Vec<Vec<f64>> = (0..3).map(|s| values(BIG, s + 21)).collect();
    let expr = Expr::diff(
        Expr::reduce(Reduction::Variance, [0, 1, 2]),
        Expr::reduce(Reduction::Max, [0, 2]),
    );
    let prog = KernelProgram::compile(&expr, 3).unwrap();
    pin(&prog, &data, "parallel blocks");
}

#[test]
fn operand_loads_are_deduplicated() {
    // stats-style bundle referencing the same operands repeatedly: the
    // program binds each operand stream once.
    let expr = Expr::diff(
        Expr::reduce(Reduction::Mean, [0, 1]),
        Expr::diff(
            Expr::reduce(Reduction::Min, [0, 1]),
            Expr::reduce(Reduction::Stddev, [1, 0]),
        ),
    );
    let prog = KernelProgram::compile(&expr, 2).unwrap();
    assert_eq!(prog.slots(), &[0, 1]);
    let data: Vec<Vec<f64>> = (0..2).map(|s| values(TILE + 3, s + 31)).collect();
    pin(&prog, &data, "dedup bundle");
}

/// A block fill that copies from a full array and records every range
/// it was asked for.
struct CopyFill<'a> {
    src: &'a [f64],
    calls: std::sync::Mutex<Vec<(usize, usize)>>,
}

impl BlockFill for CopyFill<'_> {
    fn fill(&self, at: usize, dst: &mut [f64]) {
        dst.copy_from_slice(&self.src[at..at + dst.len()]);
        self.calls.lock().unwrap().push((at, dst.len()));
    }
}

#[test]
fn fill_inputs_match_dense_inputs_in_whole_blocks() {
    // Serial (below the threshold) and parallel (above it): a slot
    // bound to a fill gives the same bits as the same data bound in
    // place, and the fill is asked for exactly the BLOCK_VALUES blocks.
    let expr = Expr::diff(
        Expr::reduce(Reduction::Stddev, [0, 1]),
        Expr::reduce(Reduction::Min, [1, 0]),
    );
    let prog = KernelProgram::compile(&expr, 2).unwrap();
    for n in [0, 1, BLOCK_VALUES + 1, 3 * BLOCK_VALUES, BIG] {
        let data: Vec<Vec<f64>> = (0..2).map(|s| values(n, s + 51)).collect();
        let dense = pin(&prog, &data, &format!("dense at n={n}"));
        let fill = CopyFill {
            src: &data[1],
            calls: Default::default(),
        };
        let inputs = [SlotInput::Dense(&data[0]), SlotInput::Fill(&fill)];
        let mut out = vec![0.0; n];
        kernel::eval_fused(&prog, &inputs, &[&[true], &[true]], n.max(1), &mut out);
        assert_bits_eq(&out, &dense, &format!("fill at n={n}"));
        let mut calls = fill.calls.into_inner().unwrap();
        calls.sort_unstable();
        let blocks: Vec<(usize, usize)> = (0..n)
            .step_by(BLOCK_VALUES)
            .map(|at| (at, BLOCK_VALUES.min(n - at)))
            .collect();
        assert_eq!(calls, blocks, "fill ranges at n={n}");
    }
}

#[test]
fn pick_takes_the_first_provider_across_metric_boundaries() {
    // Five metrics: each has a different first provider in the merge
    // lists, and the last has none. Metric runs of 3 end inside a lane,
    // of TILE + 5 inside a tile, of BLOCK_VALUES - 3 inside a block,
    // and the largest runs on the pool.
    let provides = vec![
        vec![true, false, true, false, false],
        vec![true, true, false, false, false],
        vec![false, false, true, true, false],
    ];
    let (first, second) = ([2, 0, 1], [1, 2]);
    let expr = Expr::diff(
        Expr::reduce(Reduction::Merge, first),
        Expr::reduce(Reduction::Merge, second),
    );
    let prog = KernelProgram::compile(&expr, 3).unwrap();
    let mut runs = vec![3, TILE + 5, BLOCK_VALUES - 3];
    if !cfg!(miri) {
        runs.push(BIG / 5 + 1);
    }
    for per_metric in runs {
        let n = 5 * per_metric;
        let data: Vec<Vec<f64>> = (0..3).map(|s| values(n, s + 61)).collect();
        let got = pin_picks(
            &prog,
            &data,
            &provides,
            per_metric,
            &format!("pick/{per_metric}"),
        );
        let pick = |list: &[usize], i: usize| {
            list.iter()
                .find(|&&o| provides[o][i / per_metric])
                .map_or(0.0, |&o| data[o][i])
        };
        let want: Vec<f64> = (0..n).map(|i| pick(&first, i) - pick(&second, i)).collect();
        assert_bits_eq(&got, &want, &format!("pick by hand/{per_metric}"));
    }
}

// ---------------------------------------------------------------------------
// NaN policy
// ---------------------------------------------------------------------------

#[test]
fn nan_policy_additive_propagates_minmax_drops() {
    let n = LANE + 1;
    let mut a = values(n, 41);
    let b = values(n, 42);
    let c = values(n, 43);
    a[0] = f64::NAN;
    a[LANE] = f64::NAN; // one NaN in the lanes, one in the scalar tail
    let data = vec![a, b, c];
    for r in ALL_REDUCTIONS {
        let expr = Expr::reduce(r, 0..3);
        let prog = KernelProgram::compile(&expr, 3).unwrap();
        let out = pin(&prog, &data, &format!("NaN {}", r.name()));
        for &i in &[0, LANE] {
            match r {
                // `f64::min(NaN, x)` returns x: the NaN operand loses
                // whether it lands in a lane or the tail.
                Reduction::Min | Reduction::Max => {
                    assert!(out[i].is_finite(), "{} should drop NaN", r.name())
                }
                _ => assert!(out[i].is_nan(), "{} should propagate NaN", r.name()),
            }
        }
        // Elements without a NaN stay NaN-free either way.
        assert!(out[1].is_finite(), "{} spilled NaN", r.name());
    }
}

#[test]
fn nan_in_a_later_operand_loses_the_min_fold() {
    // Fold order matters for the bit pattern: min(d, NaN) keeps d, and
    // min(NaN, x) yields x. Both directions must agree with the oracle.
    let n = LANE;
    let a = vec![2.0; n];
    let mut b = vec![1.0; n];
    b[0] = f64::NAN;
    let data = vec![a, b];
    let prog = KernelProgram::compile(&Expr::reduce(Reduction::Min, [0, 1]), 2).unwrap();
    let out = pin(&prog, &data, "NaN right side of min");
    assert_eq!(out[0], 2.0);
    assert_eq!(out[1], 1.0);
}

// ---------------------------------------------------------------------------
// plan level: BatchPlan::eval == eval_scalar over zero-extended operands
// ---------------------------------------------------------------------------

/// `metrics × calls × ranks` experiment filled from the LCG stream. The
/// call nodes form a chain; `ranks` are the application-level rank
/// numbers, so a sparse list (`[0, 2]`) integrates as a per-thread
/// gather rather than a prefix.
fn experiment_on(name: &str, metrics: usize, calls: usize, ranks: &[i32], seed: u64) -> Experiment {
    let mut b = ExperimentBuilder::new(name);
    let ms: Vec<_> = (0..metrics)
        .map(|i| b.def_metric(format!("m{i}"), Unit::Seconds, "", None))
        .collect();
    let module = b.def_module("k.rs", "/k.rs");
    let region = b.def_region("work", module, RegionKind::Function, 1, 9);
    let cs = b.def_call_site("k.rs", 2, region);
    let mut parent = None;
    let cns: Vec<_> = (0..calls)
        .map(|_| {
            let n = b.def_call_node(cs, parent);
            parent = Some(n);
            n
        })
        .collect();
    let mach = b.def_machine("machine");
    let node = b.def_node("node", mach);
    let ts: Vec<_> = ranks
        .iter()
        .map(|&r| {
            let p = b.def_process(format!("rank {r}"), r, node);
            b.def_thread(format!("rank {r} thread 0"), 0, p)
        })
        .collect();
    let vals = values(metrics * calls * ranks.len(), seed);
    let mut it = vals.iter();
    for &m in &ms {
        for &c in &cns {
            for &t in &ts {
                b.set_severity(m, c, t, *it.next().unwrap());
            }
        }
    }
    b.build().unwrap()
}

/// [`experiment_on`] over ranks `0..ranks`.
fn experiment(name: &str, metrics: usize, calls: usize, ranks: usize, seed: u64) -> Experiment {
    let ranks: Vec<i32> = (0..ranks as i32).collect();
    experiment_on(name, metrics, calls, &ranks, seed)
}

fn plan_exprs() -> Vec<(&'static str, Expr)> {
    let mut exprs: Vec<(&'static str, Expr)> = ALL_REDUCTIONS
        .iter()
        .map(|&r| (r.name(), Expr::reduce(r, 0..3)))
        .collect();
    exprs.push(("operand", Expr::Operand(2)));
    exprs.push((
        "diff-of-means",
        Expr::diff(
            Expr::reduce(Reduction::Mean, [0, 1]),
            Expr::reduce(Reduction::Mean, [1, 2]),
        ),
    ));
    exprs.push((
        "scaled-stddev",
        Expr::scale(Expr::reduce(Reduction::Stddev, 0..3), 2.5),
    ));
    exprs.push(("zero", Expr::Zero));
    exprs.push((
        "diff-of-merges",
        Expr::diff(
            Expr::reduce(Reduction::Merge, [0, 1]),
            Expr::reduce(Reduction::Merge, [2, 1, 0]),
        ),
    ));
    exprs
}

/// The test-side oracle: zero-extends every operand onto the plan's
/// shape through `plan.maps()`, masks the metrics each map reaches,
/// then interprets the program one element at a time.
fn oracle(plan: &BatchPlan<'_>, operands: &[&dyn BatchOperand], expr: &Expr) -> Vec<f64> {
    let prog = KernelProgram::compile(expr, operands.len()).unwrap();
    let shape = plan.shape();
    let extended: Vec<Severity> = operands
        .iter()
        .zip(plan.maps())
        .map(|(op, map)| {
            extend_severity_values(op.severity_values(), op.severity_shape(), map, shape)
        })
        .collect();
    let provides: Vec<Vec<bool>> = plan
        .maps()
        .iter()
        .map(|map| {
            (0..shape.0)
                .map(|m| map.metrics.iter().any(|id| id.index() == m))
                .collect()
        })
        .collect();
    let sources: Vec<&[f64]> = prog.slots().iter().map(|&i| extended[i].values()).collect();
    let masks: Vec<&[bool]> = prog
        .slots()
        .iter()
        .map(|&i| provides[i].as_slice())
        .collect();
    let mut out = vec![0.0; shape.0 * shape.1 * shape.2];
    kernel::eval_scalar(&prog, &sources, &masks, shape.1 * shape.2, &mut out);
    out
}

/// Asserts that every expression compiles (`fusible`) and that the plan
/// reproduces the oracle bit for bit.
fn pin_plan(operands: &[&dyn BatchOperand], exprs: &[(&str, Expr)], what: &str) {
    let plan = BatchPlan::from_operands(operands, MergeOptions::default());
    for (name, expr) in exprs {
        assert!(plan.fusible(expr), "{what}/{name}: fusible()");
        let got = plan.eval(expr).unwrap();
        let want = oracle(&plan, operands, expr);
        assert_bits_eq(got.severity().values(), &want, &format!("{what}/{name}"));
    }
}

fn as_operands(exps: &[Experiment]) -> Vec<&dyn BatchOperand> {
    exps.iter().map(|e| e as &dyn BatchOperand).collect()
}

/// Whether operand `i` reads through gather tables or an extended copy
/// rather than in place.
fn needs_extension(plan: &BatchPlan<'_>, exps: &[Experiment], i: usize) -> bool {
    exps[i].severity().shape() != plan.shape() || !plan.maps()[i].is_identity()
}

#[test]
fn plan_matches_oracle_on_dense_operands() {
    let (calls, ranks) = if cfg!(miri) { (3, 5) } else { (9, 31) };
    let exps: Vec<Experiment> = (0..3)
        .map(|i| experiment("dense", 4, calls, ranks, 100 + i))
        .collect();
    pin_plan(&as_operands(&exps), &plan_exprs(), "dense");
}

#[test]
fn plan_matches_oracle_with_nan_values() {
    let mut exps: Vec<Experiment> = (0..3)
        .map(|i| experiment("nan", 2, 4, 5, 200 + i))
        .collect();
    let vals = exps[1].severity_mut().values_mut();
    vals[0] = f64::NAN;
    let mid = vals.len() / 2;
    vals[mid] = f64::NAN;
    pin_plan(&as_operands(&exps), &plan_exprs(), "nan");
}

#[test]
fn thread_prefix_plan_matches_oracle() {
    // Operand 1 has fewer ranks: its rows are a prefix of the
    // integrated rows, zero beyond.
    let exps = vec![
        experiment("a", 2, 4, 5, 301),
        experiment("b", 2, 4, 3, 302),
        experiment("c", 2, 4, 5, 303),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    assert!(needs_extension(&plan, &exps, 1));
    assert_eq!(plan.maps()[1].threads.len(), 3);
    pin_plan(&as_operands(&exps), &plan_exprs(), "prefix");
}

#[test]
fn mixed_call_and_thread_gathers_match_oracle() {
    // Different call-tree depths and thread counts: integration
    // extends the shallower operands on both dimensions.
    let exps = vec![
        experiment("deep", 2, 6, 4, 311),
        experiment("shallow", 2, 3, 2, 312),
        experiment("mid", 2, 4, 4, 313),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    assert!(needs_extension(&plan, &exps, 1) && needs_extension(&plan, &exps, 2));
    pin_plan(&as_operands(&exps), &plan_exprs(), "mixed gather");
}

#[test]
fn per_thread_gather_plan_matches_oracle() {
    // Operand 1 defines ranks 0 and 2 of the integrated 0..4, so its
    // thread table is not a prefix: every row gathers per thread.
    let exps = vec![
        experiment_on("full", 2, 3, &[0, 1, 2, 3], 321),
        experiment_on("sparse", 2, 3, &[0, 2], 322),
        experiment_on("other", 2, 3, &[0, 1, 2, 3], 323),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    let threads: Vec<usize> = plan.maps()[1].threads.iter().map(|t| t.index()).collect();
    assert_eq!(threads, [0, 2], "a non-prefix thread map");
    pin_plan(&as_operands(&exps), &plan_exprs(), "per-thread gather");
}

#[test]
fn extended_operand_plan_matches_oracle() {
    // Two structurally equal sibling roots collapse onto one integrated
    // call node: a non-injective map, evaluated from the plan's cached
    // zero-extended (accumulated) copy.
    let mut b = ExperimentBuilder::new("dup");
    let ms: Vec<_> = (0..2)
        .map(|i| b.def_metric(format!("m{i}"), Unit::Seconds, "", None))
        .collect();
    let module = b.def_module("k.rs", "/k.rs");
    let region = b.def_region("work", module, RegionKind::Function, 1, 9);
    let cs = b.def_call_site("k.rs", 2, region);
    let roots = [b.def_call_node(cs, None), b.def_call_node(cs, None)];
    let mach = b.def_machine("machine");
    let node = b.def_node("node", mach);
    let ts: Vec<_> = (0..3)
        .map(|r| {
            let p = b.def_process(format!("rank {r}"), r, node);
            b.def_thread(format!("rank {r} thread 0"), 0, p)
        })
        .collect();
    let mut vals = values(2 * 2 * 3, 331).into_iter();
    for &m in &ms {
        for &c in &roots {
            for &t in &ts {
                b.set_severity(m, c, t, vals.next().unwrap());
            }
        }
    }
    let exps = vec![
        b.build().unwrap(),
        experiment("single", 2, 1, 3, 332),
        experiment("other", 2, 1, 3, 333),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    let calls = &plan.maps()[0].call_nodes;
    assert_eq!(calls[0], calls[1], "a non-injective call map");
    pin_plan(&as_operands(&exps), &plan_exprs(), "extended");
}

#[test]
fn rows_straddling_blocks_match_oracle() {
    // 31 threads: no row length divides BLOCK_VALUES, so block
    // boundaries cut rows; > 1 block per operand. Operand 1 gathers a
    // thread prefix, operand 2 (even ranks only) gathers per thread.
    if cfg!(miri) {
        return; // builder-heavy; the small gather tests cover miri
    }
    let even: Vec<i32> = (0..31).step_by(2).collect();
    let exps = vec![
        experiment("a", 3, 50, 31, 341),
        experiment("b", 3, 45, 29, 342),
        experiment_on("c", 3, 50, &even, 343),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    let (nm, nc, nt) = plan.shape();
    assert!(nt == 31 && nm * nc * nt > BLOCK_VALUES);
    assert!(needs_extension(&plan, &exps, 1));
    assert_eq!(
        plan.maps()[2].threads[1].index(),
        2,
        "a non-prefix thread map"
    );
    pin_plan(&as_operands(&exps), &plan_exprs(), "straddling");
}

#[test]
fn merge_over_different_metric_sets_matches_oracle() {
    // `narrow` provides m0..m1 on four ranks and is gathered; `wide`
    // provides m0..m4 on the integrated shape and is read in place.
    // Each merge list gives the shared metrics to its first operand and
    // the rest to `wide`, or to no one.
    let exps = vec![
        experiment("narrow", 2, 3, 4, 601),
        experiment("wide", 5, 3, 6, 602),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    assert!(needs_extension(&plan, &exps, 0) && !needs_extension(&plan, &exps, 1));
    let exprs = [
        ("narrow-first", Expr::reduce(Reduction::Merge, [0, 1])),
        ("wide-first", Expr::reduce(Reduction::Merge, [1, 0])),
        ("narrow-only", Expr::reduce(Reduction::Merge, [0])),
        (
            "diff-of-merges",
            Expr::diff(
                Expr::reduce(Reduction::Merge, [0, 1]),
                Expr::reduce(Reduction::Merge, [1, 0, 1]),
            ),
        ),
    ];
    pin_plan(&as_operands(&exps), &exprs, "mixed metric sets");
    let merged = plan.eval(&exprs[0].1).unwrap();
    assert_ne!(merged.severity().values(), exps[1].severity().values());
}

#[test]
fn gathered_plan_above_the_parallel_threshold_matches_oracle() {
    // One metric, two call nodes, BIG/2 ranks: the fused block driver
    // runs on the pool, and operand 1 (fewer ranks) is gathered.
    if cfg!(miri) {
        return; // builder-heavy; the small dense test covers miri
    }
    let exps = vec![
        experiment("big", 1, 2, BIG / 2, 401),
        experiment("big-short", 1, 2, BIG / 2 - 7, 402),
        experiment("big-other", 1, 2, BIG / 2, 403),
    ];
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    let (nm, nc, nt) = plan.shape();
    assert!(nm * nc * nt >= BIG);
    assert!(needs_extension(&plan, &exps, 1));
    let exprs = [
        (
            "composite",
            Expr::diff(
                Expr::reduce(Reduction::Stddev, [0, 1]),
                Expr::scale(Expr::reduce(Reduction::Sum, [0, 1, 2]), 0.125),
            ),
        ),
        ("min", Expr::reduce(Reduction::Min, [1, 2])),
    ];
    pin_plan(&as_operands(&exps), &exprs, "big gathered");
}

#[test]
fn nan_in_a_gathered_operand_under_the_moments() {
    // The kernel squares `0.0 - mean` at absent positions and
    // `v - mean` at present ones; with a NaN in the gathered operand
    // both moments must still match the oracle bit for bit.
    let mut exps = vec![
        experiment("a", 2, 3, 4, 501),
        experiment("gathered", 2, 2, 3, 502),
        experiment("c", 2, 3, 4, 503),
    ];
    let vals = exps[1].severity_mut().values_mut();
    vals[0] = f64::NAN;
    vals[4] = f64::NAN;
    let plan = BatchPlan::new(&exps.iter().collect::<Vec<_>>());
    assert!(needs_extension(&plan, &exps, 1));
    let exprs = [
        ("variance", Expr::reduce(Reduction::Variance, 0..3)),
        ("stddev", Expr::reduce(Reduction::Stddev, 0..3)),
        ("stddev-pair", Expr::reduce(Reduction::Stddev, [1, 2])),
    ];
    pin_plan(&as_operands(&exps), &exprs, "gathered NaN");
    let v = plan.eval(&exprs[0].1).unwrap();
    assert!(v.severity().values()[0].is_nan(), "NaN propagates");
    assert!(v.severity().values().iter().any(|x| x.is_finite()));
}
