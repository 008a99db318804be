//! The EPILOG tracer: records a simulation run as an event trace.
//!
//! Every monitor callback becomes one or more trace events, exactly as
//! a measurement library would emit them:
//!
//! * user regions → `Enter`/`Exit`;
//! * a send → `Enter(MPI_Send)`, `MpiSend`, `Exit` (the send-post
//!   timestamp is the `MpiSend` record's time);
//! * a receive → `Enter(MPI_Recv)` at the moment the receive was
//!   posted (waiting starts) and `MpiRecv` + `Exit` at completion —
//!   EXPERT derives *Late Sender* from these timestamps together with
//!   the sender's `MpiSend` record;
//! * a collective → `Enter(MPI_<op>)` at arrival, `CollectiveExit` +
//!   `Exit` at completion — EXPERT derives *Wait at Barrier* /
//!   *Wait at N x N* / *Barrier Completion* from the instance's
//!   enter/exit spread.

use epilog::{CollectiveOp, Event, EventKind, Location, RegionDef, Trace, TraceDefs};

use crate::monitor::{ComputeWork, Monitor};
use crate::program::Program;

/// Records a run into an EPILOG [`Trace`].
pub struct EpilogTracer {
    trace: Trace,
    /// Mapping: user region index → trace region index.
    user_regions: Vec<u32>,
    /// Trace region indices of MPI routine pseudo-regions.
    mpi_send: u32,
    mpi_recv: u32,
    mpi_coll: [u32; 5],
    /// Trace region of the `!$omp parallel` pseudo-region.
    omp_parallel: u32,
    nodes: usize,
    /// Threads per rank (1 for pure MPI).
    threads_per_rank: usize,
    /// Open *user* region stack per rank, replicated onto worker
    /// locations at each fork.
    open_stacks: Vec<Vec<u32>>,
}

impl EpilogTracer {
    /// Creates a tracer placing ranks round-robin onto `nodes` SMP
    /// nodes of machine `machine`.
    pub fn new(machine: impl Into<String>, nodes: usize) -> Self {
        Self {
            trace: Trace::new(TraceDefs {
                machine_name: machine.into(),
                ..TraceDefs::default()
            }),
            user_regions: Vec::new(),
            mpi_send: 0,
            mpi_recv: 0,
            mpi_coll: [0; 5],
            omp_parallel: 0,
            nodes: nodes.max(1),
            threads_per_rank: 1,
            open_stacks: Vec::new(),
        }
    }

    /// Records a Cartesian process topology with the trace (as an
    /// instrumented `MPI_Cart_create` would): `coords[r]` is rank `r`'s
    /// coordinate vector.
    pub fn with_topology(
        mut self,
        name: impl Into<String>,
        dims: Vec<u32>,
        periodic: Vec<bool>,
        coords: Vec<Vec<u32>>,
    ) -> Self {
        self.trace.defs.topology = Some(epilog::TopologyDef {
            name: name.into(),
            dims,
            periodic,
            coords: coords
                .into_iter()
                .enumerate()
                .map(|(rank, c)| (rank as i32, c))
                .collect(),
        });
        self
    }

    /// Consumes the tracer and returns the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    fn def_region(&mut self, name: &str, file: &str, line: u32) -> u32 {
        self.trace.defs.regions.push(RegionDef {
            name: name.to_string(),
            file: file.to_string(),
            line,
        });
        (self.trace.defs.regions.len() - 1) as u32
    }

    fn location(&self, rank: usize, thread: usize) -> u32 {
        (rank * self.threads_per_rank + thread) as u32
    }

    fn push(&mut self, time: f64, rank: usize, kind: EventKind) {
        let loc = self.location(rank, 0);
        self.trace.events.push(Event::new(time, loc, kind));
    }

    fn push_at(&mut self, time: f64, location: u32, kind: EventKind) {
        self.trace.events.push(Event::new(time, location, kind));
    }
}

impl Monitor for EpilogTracer {
    fn on_start(&mut self, program: &Program) {
        self.threads_per_rank = program.threads_per_rank;
        self.open_stacks = vec![Vec::new(); program.ranks()];
        let defs = &mut self.trace.defs;
        defs.node_names = (0..self.nodes).map(|n| format!("node{n}")).collect();
        defs.locations = (0..program.ranks())
            .flat_map(|r| {
                let nodes = self.nodes;
                (0..self.threads_per_rank).map(move |t| Location {
                    rank: r as i32,
                    thread: t as u32,
                    node_index: (r % nodes) as u32,
                })
            })
            .collect();
        self.user_regions = program
            .regions
            .iter()
            .map(|r| {
                self.trace.defs.regions.push(RegionDef {
                    name: r.name.clone(),
                    file: r.file.clone(),
                    line: r.line,
                });
                (self.trace.defs.regions.len() - 1) as u32
            })
            .collect();
        self.mpi_send = self.def_region("MPI_Send", "mpi", 0);
        self.mpi_recv = self.def_region("MPI_Recv", "mpi", 0);
        for op in [
            CollectiveOp::Barrier,
            CollectiveOp::AllToAll,
            CollectiveOp::AllReduce,
            CollectiveOp::Broadcast,
            CollectiveOp::Reduce,
        ] {
            self.mpi_coll[op.tag() as usize] = self.def_region(op.region_name(), "mpi", 0);
        }
        self.omp_parallel = self.def_region("!$omp parallel", "omp", 0);
    }

    fn on_enter(&mut self, rank: usize, region: usize, time: f64) {
        let r = self.user_regions[region];
        self.open_stacks[rank].push(r);
        self.push(time, rank, EventKind::Enter { region: r });
    }

    fn on_exit(&mut self, rank: usize, region: usize, time: f64) {
        let r = self.user_regions[region];
        self.open_stacks[rank].pop();
        self.push(time, rank, EventKind::Exit { region: r });
    }

    fn on_compute(&mut self, _rank: usize, _start: f64, _end: f64, _work: &ComputeWork) {
        // Computation is implicit in the gaps between events.
    }

    fn on_send(&mut self, rank: usize, start: f64, end: f64, dest: usize, tag: i32, bytes: u64) {
        let r = self.mpi_send;
        self.push(start, rank, EventKind::Enter { region: r });
        self.push(
            start,
            rank,
            EventKind::MpiSend {
                dest: dest as i32,
                tag,
                bytes,
            },
        );
        self.push(end, rank, EventKind::Exit { region: r });
    }

    fn on_recv(
        &mut self,
        rank: usize,
        start: f64,
        end: f64,
        source: usize,
        tag: i32,
        bytes: u64,
        _send_time: f64,
    ) {
        let r = self.mpi_recv;
        self.push(start, rank, EventKind::Enter { region: r });
        self.push(
            end,
            rank,
            EventKind::MpiRecv {
                source: source as i32,
                tag,
                bytes,
            },
        );
        self.push(end, rank, EventKind::Exit { region: r });
    }

    fn on_collective(
        &mut self,
        rank: usize,
        op: CollectiveOp,
        start: f64,
        end: f64,
        bytes: u64,
        root: i32,
    ) {
        let r = self.mpi_coll[op.tag() as usize];
        self.push(start, rank, EventKind::Enter { region: r });
        self.push(end, rank, EventKind::CollectiveExit { op, bytes, root });
        self.push(end, rank, EventKind::Exit { region: r });
    }

    fn on_parallel(
        &mut self,
        rank: usize,
        start: f64,
        thread_ends: &[f64],
        _work: &crate::monitor::ComputeWork,
    ) {
        let omp = self.omp_parallel;
        let enclosing = self.open_stacks[rank].clone();
        for (thread, &end) in thread_ends.iter().enumerate() {
            let loc = self.location(rank, thread);
            if thread > 0 {
                // Workers replicate the master's call context so the
                // analyzer sees the parallel region on the same call
                // path (the standard hybrid-trace convention).
                for &r in &enclosing {
                    self.push_at(start, loc, EventKind::Enter { region: r });
                }
            }
            self.push_at(start, loc, EventKind::Enter { region: omp });
            self.push_at(end, loc, EventKind::Exit { region: omp });
            if thread > 0 {
                for &r in enclosing.iter().rev() {
                    self.push_at(end, loc, EventKind::Exit { region: r });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MachineModel;
    use crate::program::{Op, Program, RegionInfo};
    use crate::sim::simulate;

    fn traced_program() -> Trace {
        let mut p = Program::new("traced", 2);
        let main = p.add_region(RegionInfo::new("main", "main.c", 1));
        let work = p.add_region(RegionInfo::new("work", "main.c", 10));
        p.push_all(Op::Enter(main));
        p.push_all(Op::Enter(work));
        p.push(
            0,
            Op::Compute {
                seconds: 0.5,
                work: ComputeWork::default(),
            },
        );
        p.push(
            0,
            Op::Send {
                to: 1,
                tag: 9,
                bytes: 256,
            },
        );
        p.push(
            1,
            Op::Recv {
                from: 0,
                tag: 9,
                bytes: 256,
            },
        );
        p.push_all(Op::Exit(work));
        p.push_all(Op::Collective {
            op: CollectiveOp::Barrier,
            bytes: 0,
            root: -1,
        });
        p.push_all(Op::Exit(main));
        let mut tracer = EpilogTracer::new("simulated cluster", 2);
        simulate(&p, &MachineModel::default(), &mut tracer).unwrap();
        tracer.into_trace()
    }

    #[test]
    fn recorded_trace_is_valid() {
        let t = traced_program();
        t.validate().unwrap();
        assert_eq!(t.defs.locations.len(), 2);
        assert_eq!(t.defs.machine_name, "simulated cluster");
    }

    #[test]
    fn trace_contains_mpi_pseudo_regions() {
        let t = traced_program();
        assert!(t.defs.find_region("MPI_Send").is_some());
        assert!(t.defs.find_region("MPI_Recv").is_some());
        assert!(t.defs.find_region("MPI_Barrier").is_some());
        assert!(t.defs.find_region("main").is_some());
        assert!(t.defs.find_region("work").is_some());
    }

    #[test]
    fn event_mix_matches_program() {
        let t = traced_program();
        let s = t.stats();
        assert_eq!(s.sends, 1);
        assert_eq!(s.recvs, 1);
        assert_eq!(s.collectives, 2); // one barrier instance, two ranks
                                      // main + work + MPI_Send/Recv/Barrier wrappers per rank.
        assert_eq!(s.enters, s.exits);
    }

    #[test]
    fn recv_enter_precedes_completion() {
        let t = traced_program();
        let recv_region = t.defs.find_region("MPI_Recv").unwrap();
        let enter = t
            .events
            .iter()
            .find(|e| {
                e.location == 1
                    && matches!(e.kind, EventKind::Enter { region } if region == recv_region)
            })
            .expect("recv enter event");
        let exit = t
            .events
            .iter()
            .find(|e| {
                e.location == 1
                    && matches!(e.kind, EventKind::Exit { region } if region == recv_region)
            })
            .expect("recv exit event");
        // Rank 1 posted immediately (t=0) and waited for rank 0's send at 0.5.
        assert_eq!(enter.time, 0.0);
        assert!(exit.time > 0.5);
    }

    #[test]
    fn trace_roundtrips_through_codec() {
        let t = traced_program();
        let back = epilog::decode_trace(&epilog::encode_trace(&t)).unwrap();
        assert_eq!(back, t);
    }
}
