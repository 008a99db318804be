//! End-to-end reproduction of the paper's §5.2 case study as a test:
//! counter conflicts force separate CONE runs; EXPERT and both CONE
//! profiles merge into one experiment with the joint metric forest.

use cube_algebra::{ops, BatchPlan, Reduction};
use cube_model::aggregate::{call_value, metric_total, CallSelection, MetricSelection};
use cube_model::Experiment;
use cube_suite::cone::{ConeError, ConeProfiler, CounterKind, EventSet};
use cube_suite::expert::{analyze, AnalyzeOptions};
use cube_suite::simmpi::apps::{sweep3d, Sweep3dConfig};
use cube_suite::simmpi::{simulate, EpilogTracer, MachineModel};

fn cone_profile(set: EventSet) -> Experiment {
    let program = sweep3d(&Sweep3dConfig::default());
    let mut profiler = ConeProfiler::new(set).unwrap().with_layout("power4", 4);
    simulate(&program, &MachineModel::default(), &mut profiler).unwrap();
    profiler.into_experiment().unwrap()
}

fn expert_experiment() -> Experiment {
    let program = sweep3d(&Sweep3dConfig::default());
    let mut tracer = EpilogTracer::new("power4", 4);
    simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
    analyze(&tracer.into_trace(), &AnalyzeOptions::default()).unwrap()
}

fn total(e: &Experiment, name: &str) -> f64 {
    let m = e.metadata().find_metric(name).unwrap();
    metric_total(e, MetricSelection::inclusive(m))
}

#[test]
fn the_forbidden_combination_requires_two_runs() {
    assert!(matches!(
        EventSet::new("fp+l1", vec![CounterKind::FpIns, CounterKind::L1Dcm]),
        Err(ConeError::ConflictingEventSet { .. })
    ));
    // Both halves are measurable on their own.
    assert!(EventSet::new("fp", vec![CounterKind::FpIns]).is_ok());
    assert!(EventSet::new("l1", vec![CounterKind::L1Dcm, CounterKind::L1Dca]).is_ok());
}

#[test]
fn figure3_merge_carries_all_three_sources() {
    let ex = expert_experiment();
    let fp = cone_profile(EventSet::flops());
    let l1 = cone_profile(EventSet::l1_cache());
    let merged = ops::merge(&ops::merge(&ex, &fp), &l1);
    merged.validate().unwrap();

    let md = merged.metadata();
    // EXPERT's pattern tree and both counter hierarchies coexist.
    for name in [
        "Time",
        "Late Sender",
        "Wait at N x N",
        "PAPI_FP_INS",
        "PAPI_TOT_CYC",
        "PAPI_L1_DCA",
        "PAPI_L1_DCM",
    ] {
        assert!(md.find_metric(name).is_some(), "missing metric {name}");
    }
    // Shared metrics come from the FIRST operand: EXPERT's Time values
    // win over CONE's wall-time metric of the same name.
    let time = md.find_metric("Time").unwrap();
    let expert_time = total(&ex, "Time");
    assert!(
        (merged.severity().metric_sum(time) - expert_time).abs() < 1e-9,
        "merge must take shared metrics from the first operand"
    );
    // Counter totals survive from their respective runs.
    assert!((total(&merged, "PAPI_FP_INS") - total(&fp, "PAPI_FP_INS")).abs() < 1e-6);
    assert!((total(&merged, "PAPI_L1_DCM") - total(&l1, "PAPI_L1_DCM")).abs() < 1e-6);
    // The same figure in one plan: one integration of all three runs,
    // each metric from its first provider, equals the nested merges in
    // metadata and severity bits.
    let one_plan = BatchPlan::new(&[&ex, &fp, &l1])
        .reduce(Reduction::Merge)
        .unwrap();
    assert_eq!(one_plan.metadata(), merged.metadata());
    let bits = |e: &Experiment| -> Vec<u64> {
        e.severity().values().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&one_plan), bits(&merged));
}

#[test]
fn cache_misses_coincide_with_late_sender_sites() {
    let ex = expert_experiment();
    let l1 = cone_profile(EventSet::l1_cache());
    let merged = ops::merge(&ex, &l1);
    let md = merged.metadata();
    let dcm = md.find_metric("PAPI_L1_DCM").unwrap();
    let ls = md.find_metric("Late Sender").unwrap();

    // Call paths ending in MPI_Recv carry BOTH above-average cache-miss
    // rates AND Late-Sender waiting.
    let recv_nodes: Vec<_> = md
        .call_node_ids()
        .filter(|&c| md.region(md.call_node_callee(c)).name == "MPI_Recv")
        .collect();
    assert!(!recv_nodes.is_empty());
    let misses: f64 = recv_nodes
        .iter()
        .map(|&c| {
            call_value(
                &merged,
                MetricSelection::inclusive(dcm),
                CallSelection::exclusive(c),
            )
        })
        .sum();
    let waiting: f64 = recv_nodes
        .iter()
        .map(|&c| {
            call_value(
                &merged,
                MetricSelection::inclusive(ls),
                CallSelection::exclusive(c),
            )
        })
        .sum();
    assert!(misses > 0.0, "cache misses must appear at MPI_Recv");
    assert!(waiting > 0.0, "Late-Sender waiting must appear at MPI_Recv");
    // The §5.2 conclusion: most of the P2P time at these sites is
    // waiting, so the miss problem is insignificant.
    let p2p_at_recv: f64 = recv_nodes
        .iter()
        .map(|&c| {
            call_value(
                &merged,
                MetricSelection::inclusive(md.find_metric("P2P").unwrap()),
                CallSelection::exclusive(c),
            )
        })
        .sum();
    assert!(waiting / p2p_at_recv > 0.3);
}

#[test]
fn mean_before_merge_composes() {
    // "To alleviate the effects of random errors, we can summarize
    // multiple outputs from every single tool by applying the mean
    // operator before we perform the merge operation."
    use cube_suite::simmpi::NoiseModel;
    let run = |seed: u64, set: EventSet| {
        let program = sweep3d(&Sweep3dConfig {
            px: 2,
            py: 2,
            sweeps: 3,
            ..Sweep3dConfig::default()
        });
        let model = MachineModel {
            noise: NoiseModel {
                amplitude: 0.1,
                seed,
            },
            ..MachineModel::default()
        };
        let mut profiler = ConeProfiler::new(set).unwrap();
        simulate(&program, &model, &mut profiler).unwrap();
        profiler.into_experiment().unwrap()
    };
    let fp_runs: Vec<Experiment> = (0..3).map(|i| run(i, EventSet::flops())).collect();
    let l1_runs: Vec<Experiment> = (0..3).map(|i| run(10 + i, EventSet::l1_cache())).collect();
    let fp_mean = ops::mean(&fp_runs.iter().collect::<Vec<_>>()).unwrap();
    let l1_mean = ops::mean(&l1_runs.iter().collect::<Vec<_>>()).unwrap();
    let joint = ops::merge(&fp_mean, &l1_mean);
    joint.validate().unwrap();
    assert!(joint.metadata().find_metric("PAPI_FP_INS").is_some());
    assert!(joint.metadata().find_metric("PAPI_L1_DCM").is_some());
    assert!(joint.provenance().label().contains("merge(mean("));
}

#[test]
fn merged_system_dimension_is_consistent() {
    // EXPERT and CONE used the same layout → compatible partitions →
    // the hierarchy is copied, not collapsed.
    let ex = expert_experiment();
    let l1 = cone_profile(EventSet::l1_cache());
    let merged = ops::merge(&ex, &l1);
    let md = merged.metadata();
    assert_eq!(md.machines().len(), 1);
    assert_eq!(md.machines()[0].name, "power4");
    assert_eq!(md.nodes().len(), 4);
    assert_eq!(md.processes().len(), 16);
    assert_eq!(md.num_threads(), 16);
}
