//! Scenario tests for metadata integration: shapes that exercise the
//! top-down matcher beyond what the unit tests cover — deep trees,
//! duplicate siblings, n-ary folds, recursive-looking chains, and the
//! interaction of system modes with multithreaded operands.

use cube_algebra::{
    integrate, ops, BatchPlan, CallSiteEq, MergeOptions, Reduction, SystemMergeMode,
};
use cube_model::builder::single_threaded_system;
use cube_model::{CallNodeId, Experiment, ExperimentBuilder, RegionKind, Unit};

/// Experiment whose call tree is one chain of depth `depth`, all nodes
/// calling the same region (a collapsed recursion, as the paper's data
/// model prescribes for recursive programs).
fn chain(depth: usize, value: f64) -> Experiment {
    let mut b = ExperimentBuilder::new(format!("chain {depth}"));
    let t = b.def_metric("time", Unit::Seconds, "", None);
    let m = b.def_module("rec.rs", "/rec.rs");
    let r = b.def_region("fib", m, RegionKind::Function, 1, 9);
    let cs = b.def_call_site("rec.rs", 5, r);
    let mut parent: Option<CallNodeId> = None;
    let mut nodes = Vec::new();
    for _ in 0..depth {
        let n = b.def_call_node(cs, parent);
        parent = Some(n);
        nodes.push(n);
    }
    let ts = single_threaded_system(&mut b, 1);
    for &n in &nodes {
        b.set_severity(t, n, ts[0], value);
    }
    b.build().unwrap()
}

#[test]
fn chains_of_different_depth_share_their_prefix() {
    let short = chain(3, 1.0);
    let long = chain(7, 2.0);
    let i = integrate(&[&short, &long], MergeOptions::default());
    // The chains match level by level: the union is the longer chain.
    assert_eq!(i.metadata.num_call_nodes(), 7);
    // Every level of the short chain maps onto the same level of the
    // long chain.
    for d in 0..3 {
        assert_eq!(i.maps[0].call_nodes[d], i.maps[1].call_nodes[d]);
    }
    let d = ops::diff(&long, &short);
    d.validate().unwrap();
    // Total: 7*2 − 3*1 = 11.
    assert!((d.severity().values().iter().sum::<f64>() - 11.0).abs() < 1e-12);
}

#[test]
fn nary_fold_is_incremental() {
    // Integrating [a, b, c] must give every operand a total map even
    // when each adds new entities.
    let exps: Vec<Experiment> = (2..5).map(|d| chain(d, 1.0)).collect();
    let refs: Vec<&Experiment> = exps.iter().collect();
    let i = integrate(&refs, MergeOptions::default());
    assert_eq!(i.metadata.num_call_nodes(), 4); // deepest chain wins
    for (op, map) in refs.iter().zip(&i.maps) {
        assert_eq!(map.call_nodes.len(), op.metadata().num_call_nodes());
    }
    let mean = ops::mean(&refs).unwrap();
    mean.validate().unwrap();
    // Level 0 exists in all three → mean 1.0; level 3 only in the
    // deepest → mean 1/3.
    let level0 = mean.severity().values()[0];
    assert!((level0 - 1.0).abs() < 1e-12);
    let level3 = mean.severity().values()[3];
    assert!((level3 - 1.0 / 3.0).abs() < 1e-12);
}

/// Two sibling call paths with the same callee (same region, different
/// call sites under strict equality).
fn twin_siblings(strict_lines: (u32, u32), value: f64) -> Experiment {
    let mut b = ExperimentBuilder::new("twins");
    let t = b.def_metric("time", Unit::Seconds, "", None);
    let m = b.def_module("x.rs", "/x.rs");
    let main_r = b.def_region("main", m, RegionKind::Function, 1, 99);
    let leaf_r = b.def_region("leaf", m, RegionKind::Function, 10, 20);
    let cs_main = b.def_call_site("x.rs", 1, main_r);
    let cs_a = b.def_call_site("x.rs", strict_lines.0, leaf_r);
    let cs_b = b.def_call_site("x.rs", strict_lines.1, leaf_r);
    let root = b.def_call_node(cs_main, None);
    let a = b.def_call_node(cs_a, Some(root));
    let bnode = b.def_call_node(cs_b, Some(root));
    let ts = single_threaded_system(&mut b, 1);
    b.set_severity(t, a, ts[0], value);
    b.set_severity(t, bnode, ts[0], 2.0 * value);
    b.build().unwrap()
}

#[test]
fn duplicate_siblings_collapse_under_callee_equality() {
    // A single operand (or equal operands) takes the identity fast
    // path and is preserved verbatim — even its duplicate siblings.
    let e = twin_siblings((5, 50), 1.0);
    let i = integrate(&[&e], MergeOptions::default());
    assert_eq!(i.metadata.num_call_nodes(), 3);
    assert!(i.maps[0].is_identity());

    // The slow path (different metadata forces real matching) cannot
    // distinguish the two leaf call paths under callee-only equality:
    // they become one shared node and their severity accumulates.
    let other = chain(1, 0.0);
    let i = integrate(&[&e, &other], MergeOptions::default());
    assert_eq!(i.maps[0].call_nodes[1], i.maps[0].call_nodes[2]);
    let d = ops::diff(&e, &other);
    d.validate().unwrap();
    // Twin severities 1.0 and 2.0 accumulate on the shared node.
    let leaf = i.maps[0].call_nodes[1];
    let t = d.metadata().find_metric("time").unwrap();
    assert_eq!(d.severity().row_sum(t, leaf), 3.0);
}

#[test]
fn duplicate_siblings_stay_distinct_under_strict_equality() {
    let e = twin_siblings((5, 50), 1.0);
    let i = integrate(
        &[&e],
        MergeOptions::default().with_call_site_eq(CallSiteEq::Strict),
    );
    assert_eq!(i.metadata.num_call_nodes(), 3);
    // And a before/after pair where one call site moved lines: strict
    // equality splits that site, callee-only matches it.
    let before = twin_siblings((5, 50), 1.0);
    let after = twin_siblings((6, 50), 1.0); // first site moved a line
    let loose = integrate(&[&before, &after], MergeOptions::default());
    assert_eq!(loose.metadata.num_call_nodes(), 2);
    let strict = integrate(
        &[&before, &after],
        MergeOptions::default().with_call_site_eq(CallSiteEq::Strict),
    );
    // main, leaf@5, leaf@50, leaf@6 — the moved site is duplicated.
    assert_eq!(strict.metadata.num_call_nodes(), 4);
}

fn multithreaded(ranks: usize, threads: u32) -> Experiment {
    let mut b = ExperimentBuilder::new("mt");
    let t = b.def_metric("time", Unit::Seconds, "", None);
    let m = b.def_module("a", "a");
    let r = b.def_region("main", m, RegionKind::Function, 1, 1);
    let cs = b.def_call_site("a", 1, r);
    let root = b.def_call_node(cs, None);
    let mach = b.def_machine("M");
    let node = b.def_node("N0", mach);
    for rank in 0..ranks {
        let p = b.def_process(format!("rank {rank}"), rank as i32, node);
        for n in 0..threads {
            let tid = b.def_thread(format!("t{n}"), n, p);
            b.set_severity(t, root, tid, 1.0);
        }
    }
    b.build().unwrap()
}

#[test]
fn collapse_mode_preserves_thread_structure() {
    let a = multithreaded(2, 3);
    let b = multithreaded(3, 2);
    let i = integrate(
        &[&a, &b],
        MergeOptions::default().with_system_mode(SystemMergeMode::Collapse),
    );
    let md = &i.metadata;
    assert_eq!(md.machines().len(), 1);
    assert_eq!(md.nodes().len(), 1);
    assert_eq!(md.processes().len(), 3);
    // Union of thread numbers per rank: ranks 0-1 have {0,1,2}, rank 2
    // has {0,1}.
    assert_eq!(md.num_threads(), 3 + 3 + 2);
    md.validate().unwrap();
    // Severity mass conserved through the remap.
    let s = ops::sum(&[&a, &b]).unwrap();
    let expected = 2.0 * 3.0 + 3.0 * 2.0;
    assert!((s.severity().values().iter().sum::<f64>() - expected).abs() < 1e-12);
}

#[test]
fn copy_first_with_extra_ranks_from_second() {
    let a = multithreaded(2, 1);
    let b = multithreaded(4, 1);
    let i = integrate(
        &[&a, &b],
        MergeOptions::default().with_system_mode(SystemMergeMode::CopyFirst),
    );
    let md = &i.metadata;
    // a's hierarchy copied; b's extra ranks appended to an existing node.
    assert_eq!(md.machines()[0].name, "M");
    assert_eq!(md.processes().len(), 4);
    md.validate().unwrap();
}

#[test]
fn merge_options_do_not_change_totals() {
    let a = twin_siblings((5, 50), 1.0);
    let b = chain(4, 0.5);
    for opts in [
        MergeOptions::default(),
        MergeOptions::default().with_call_site_eq(CallSiteEq::Strict),
        MergeOptions::default().with_system_mode(SystemMergeMode::Collapse),
        MergeOptions::default().with_system_mode(SystemMergeMode::CopyFirst),
    ] {
        let s = BatchPlan::with_options(&[&a, &b], opts)
            .reduce(Reduction::Sum)
            .unwrap();
        s.validate().unwrap();
        let total: f64 = s.severity().values().iter().sum();
        assert!(
            (total - (3.0 + 2.0)).abs() < 1e-12,
            "totals invariant under {opts:?}"
        );
    }
}

#[test]
fn integration_is_idempotent_on_its_own_output() {
    // integrate(diff(a,b), diff(a,b)) must take the fast path and
    // change nothing — the closure property at the metadata level.
    let a = twin_siblings((5, 50), 1.0);
    let b = chain(3, 1.0);
    let d = ops::diff(&a, &b);
    let i = integrate(&[&d, &d], MergeOptions::default());
    assert_eq!(&i.metadata, d.metadata());
    assert!(i.maps.iter().all(|m| m.is_identity()));
}
