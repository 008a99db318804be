//! The pattern (metric) hierarchy EXPERT reports.

use cube_model::{ExperimentBuilder, MetricId, Unit};

/// Metric identifiers of every pattern, in the hierarchy the analyzer
/// emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternIds {
    /// Root: total wall-clock time per (call path, location).
    pub time: MetricId,
    /// Time spent executing the application (vs. idling; equal to the
    /// whole measured time for pure MPI runs).
    pub execution: MetricId,
    /// Time worker threads sit idle outside parallel regions while the
    /// master executes sequential code (hybrid MPI + OpenMP runs).
    pub idle_threads: MetricId,
    /// Time inside MPI routines.
    pub mpi: MetricId,
    /// Time inside data-moving MPI routines.
    pub communication: MetricId,
    /// Time inside collective data-moving routines.
    pub collective: MetricId,
    /// Inherent N×N synchronization waiting inside all-to-all style
    /// collectives.
    pub wait_at_nxn: MetricId,
    /// Non-root ranks waiting in a broadcast for a late root.
    pub late_broadcast: MetricId,
    /// The root of a reduction waiting for late senders.
    pub early_reduce: MetricId,
    /// Time inside point-to-point routines.
    pub p2p: MetricId,
    /// Receiver waiting for a not-yet-posted send.
    pub late_sender: MetricId,
    /// Sender waiting for a not-yet-posted receive.
    pub late_receiver: MetricId,
    /// Time inside barrier synchronization.
    pub synchronization: MetricId,
    /// Waiting in front of the barrier for the last participant.
    pub wait_at_barrier: MetricId,
    /// Time in the barrier after the first process left it.
    pub barrier_completion: MetricId,
    /// Visit counts (occurrences) per call path and location.
    pub visits: MetricId,
}

impl PatternIds {
    /// Defines the full pattern hierarchy on a builder and returns the
    /// identifiers.
    pub fn define(b: &mut ExperimentBuilder) -> Self {
        let time = b.def_metric("Time", Unit::Seconds, "Total wall-clock time", None);
        let execution = b.def_metric(
            "Execution",
            Unit::Seconds,
            "Time spent executing the application",
            Some(time),
        );
        let idle_threads = b.def_metric(
            "Idle Threads",
            Unit::Seconds,
            "Worker threads idling outside parallel regions",
            Some(time),
        );
        let mpi = b.def_metric(
            "MPI",
            Unit::Seconds,
            "Time spent in MPI routines",
            Some(execution),
        );
        let communication = b.def_metric(
            "Communication",
            Unit::Seconds,
            "Time spent in data-moving MPI routines",
            Some(mpi),
        );
        let collective = b.def_metric(
            "Collective",
            Unit::Seconds,
            "Time spent in collective communication",
            Some(communication),
        );
        let wait_at_nxn = b.def_metric(
            "Wait at N x N",
            Unit::Seconds,
            "Waiting for the last participant of an N-to-N operation",
            Some(collective),
        );
        let late_broadcast = b.def_metric(
            "Late Broadcast",
            Unit::Seconds,
            "Non-root ranks waiting in a broadcast for a late root",
            Some(collective),
        );
        let early_reduce = b.def_metric(
            "Early Reduce",
            Unit::Seconds,
            "The reduction root waiting for late senders",
            Some(collective),
        );
        let p2p = b.def_metric(
            "P2P",
            Unit::Seconds,
            "Time spent in point-to-point communication",
            Some(communication),
        );
        let late_sender = b.def_metric(
            "Late Sender",
            Unit::Seconds,
            "Receiver blocked on a message whose send was not yet posted",
            Some(p2p),
        );
        let late_receiver = b.def_metric(
            "Late Receiver",
            Unit::Seconds,
            "Sender blocked on a receive that was not yet posted",
            Some(p2p),
        );
        let synchronization = b.def_metric(
            "Synchronization",
            Unit::Seconds,
            "Time spent in barrier synchronization",
            Some(mpi),
        );
        let wait_at_barrier = b.def_metric(
            "Wait at Barrier",
            Unit::Seconds,
            "Waiting in front of the barrier for the last participant",
            Some(synchronization),
        );
        let barrier_completion = b.def_metric(
            "Barrier Completion",
            Unit::Seconds,
            "Time in the barrier after the first process has left it",
            Some(synchronization),
        );
        let visits = b.def_metric(
            "Visits",
            Unit::Occurrences,
            "Number of visits per call path",
            None,
        );
        Self {
            time,
            execution,
            idle_threads,
            mpi,
            communication,
            collective,
            wait_at_nxn,
            late_broadcast,
            early_reduce,
            p2p,
            late_sender,
            late_receiver,
            synchronization,
            wait_at_barrier,
            barrier_completion,
            visits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_well_formed() {
        let mut b = ExperimentBuilder::new("p");
        let ids = PatternIds::define(&mut b);
        // Metadata validates only with its mandatory thread level.
        cube_model::builder::single_threaded_system(&mut b, 1);
        let md = b.metadata();
        md.validate().unwrap();
        // Two roots: Time and Visits.
        assert_eq!(md.metric_roots(), &[ids.time, ids.visits]);
        // Spot-check parent relations.
        assert_eq!(md.metric(ids.execution).parent, Some(ids.time));
        assert_eq!(md.metric(ids.wait_at_nxn).parent, Some(ids.collective));
        assert_eq!(md.metric(ids.late_sender).parent, Some(ids.p2p));
        assert_eq!(
            md.metric(ids.barrier_completion).parent,
            Some(ids.synchronization)
        );
        // Units: everything under Time is seconds, Visits is occurrences.
        assert_eq!(md.metric(ids.wait_at_barrier).unit, Unit::Seconds);
        assert_eq!(md.metric(ids.visits).unit, Unit::Occurrences);
    }

    #[test]
    fn names_match_the_paper_figures() {
        let mut b = ExperimentBuilder::new("p");
        let ids = PatternIds::define(&mut b);
        let md = b.metadata();
        assert_eq!(md.metric(ids.wait_at_barrier).name, "Wait at Barrier");
        assert_eq!(md.metric(ids.wait_at_nxn).name, "Wait at N x N");
        assert_eq!(md.metric(ids.p2p).name, "P2P");
    }
}
