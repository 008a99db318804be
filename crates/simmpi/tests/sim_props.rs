//! Property tests for the discrete-event engine: any well-formed
//! program (matched sends/receives, collective-aligned ranks, balanced
//! regions) simulates without deadlock, and the report obeys
//! conservation laws.

use proptest::prelude::*;

use epilog::CollectiveOp;
use simmpi::{simulate, ComputeWork, MachineModel, Monitor, NoiseModel, Op, Program, RegionInfo};

/// One communication round of a generated program. Construction
/// guarantees deadlock freedom: sends are eager, every receive has a
/// matching send appended before it in program order per channel, and
/// collectives always involve every rank.
#[derive(Clone, Debug)]
enum Round {
    /// Per-rank compute with the given per-rank millisecond durations.
    Compute(Vec<u8>),
    /// Ring exchange: everyone sends to the right, receives from the left.
    Ring { bytes: u16 },
    /// Point-to-point from rank a to rank b (a != b enforced at build).
    Pair { a: u8, b: u8, bytes: u16 },
    /// A collective over all ranks.
    Collective(u8),
}

fn round_strategy(ranks: usize) -> impl Strategy<Value = Round> {
    let r = ranks as u8;
    prop_oneof![
        proptest::collection::vec(0u8..20, ranks..=ranks).prop_map(Round::Compute),
        (any::<u16>()).prop_map(|bytes| Round::Ring { bytes }),
        (0..r, 0..r, any::<u16>()).prop_map(|(a, b, bytes)| Round::Pair { a, b, bytes }),
        (0u8..5).prop_map(Round::Collective),
    ]
}

fn build_program(ranks: usize, rounds: &[Round]) -> Program {
    let mut p = Program::new("generated", ranks);
    let main = p.add_region(RegionInfo::new("main", "gen.c", 1));
    let phase = p.add_region(RegionInfo::new("phase", "gen.c", 10));
    p.push_all(Op::Enter(main));
    for (tag, round) in rounds.iter().enumerate() {
        let tag = tag as i32;
        match round {
            Round::Compute(ms) => {
                // The strategy sizes the vector for the maximum rank
                // count; use the prefix that exists.
                for (rank, &m) in ms.iter().enumerate().take(ranks) {
                    p.push(rank, Op::Enter(phase));
                    p.push(
                        rank,
                        Op::Compute {
                            seconds: f64::from(m) * 1e-4,
                            work: ComputeWork::flop_heavy(1000),
                        },
                    );
                    p.push(rank, Op::Exit(phase));
                }
            }
            Round::Ring { bytes } => {
                for rank in 0..ranks {
                    p.push(
                        rank,
                        Op::Send {
                            to: (rank + 1) % ranks,
                            tag,
                            bytes: u64::from(*bytes),
                        },
                    );
                }
                for rank in 0..ranks {
                    p.push(
                        rank,
                        Op::Recv {
                            from: (rank + ranks - 1) % ranks,
                            tag,
                            bytes: u64::from(*bytes),
                        },
                    );
                }
            }
            Round::Pair { a, b, bytes } => {
                let (a, b) = (*a as usize % ranks, *b as usize % ranks);
                if a != b {
                    p.push(
                        a,
                        Op::Send {
                            to: b,
                            tag,
                            bytes: u64::from(*bytes),
                        },
                    );
                    p.push(
                        b,
                        Op::Recv {
                            from: a,
                            tag,
                            bytes: u64::from(*bytes),
                        },
                    );
                }
            }
            Round::Collective(k) => {
                let op = CollectiveOp::from_tag(k % 5).expect("tag in range");
                let root = if matches!(op, CollectiveOp::Broadcast | CollectiveOp::Reduce) {
                    0
                } else {
                    -1
                };
                p.push_all(Op::Collective {
                    op,
                    bytes: 64,
                    root,
                });
            }
        }
    }
    p.push_all(Op::Exit(main));
    p
}

#[derive(Default)]
struct Accountant {
    sends: usize,
    recvs: usize,
    recv_bytes: u64,
    send_bytes: u64,
    last_time_per_rank: Vec<(usize, f64)>,
}

impl Monitor for Accountant {
    fn on_send(&mut self, rank: usize, _s: f64, e: f64, _d: usize, _t: i32, bytes: u64) {
        self.sends += 1;
        self.send_bytes += bytes;
        self.last_time_per_rank.push((rank, e));
    }
    fn on_recv(
        &mut self,
        rank: usize,
        start: f64,
        end: f64,
        _src: usize,
        _tag: i32,
        bytes: u64,
        send_time: f64,
    ) {
        self.recvs += 1;
        self.recv_bytes += bytes;
        assert!(end >= start, "receive cannot end before it starts");
        assert!(
            end >= send_time,
            "data cannot arrive before the send was posted"
        );
        self.last_time_per_rank.push((rank, end));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed programs never deadlock, and every posted message is
    /// delivered (conservation of messages and bytes).
    #[test]
    fn generated_programs_simulate_cleanly(
        ranks in 2usize..6,
        rounds in proptest::collection::vec(round_strategy(5), 0..12),
        noise_amp in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let program = build_program(ranks, &rounds);
        program.validate().expect("generated programs are well-formed");
        let model = MachineModel {
            noise: NoiseModel { amplitude: noise_amp, seed },
            ..MachineModel::default()
        };
        let mut acc = Accountant::default();
        let report = simulate(&program, &model, &mut acc).expect("no deadlock possible");
        prop_assert_eq!(acc.sends, acc.recvs, "every send is consumed");
        prop_assert_eq!(acc.send_bytes, acc.recv_bytes);
        prop_assert_eq!(report.messages as usize, acc.recvs);
        // Per-rank observed times never exceed the final rank time.
        for (rank, t) in acc.last_time_per_rank {
            prop_assert!(t <= report.rank_times[rank] + 1e-12);
        }
        prop_assert!(report.elapsed >= 0.0);
    }

    /// Determinism: the same program + model produce bit-identical
    /// reports.
    #[test]
    fn simulation_is_deterministic(
        ranks in 2usize..5,
        rounds in proptest::collection::vec(round_strategy(4), 0..8),
        seed in any::<u64>(),
    ) {
        let program = build_program(ranks, &rounds);
        let model = MachineModel {
            noise: NoiseModel { amplitude: 0.1, seed },
            ..MachineModel::default()
        };
        let a = simulate(&program, &model, &mut simmpi::NullMonitor).unwrap();
        let b = simulate(&program, &model, &mut simmpi::NullMonitor).unwrap();
        prop_assert_eq!(a, b);
    }

    /// The traced run of any generated program yields a valid trace that
    /// EXPERT-style replay preconditions hold for (balanced stacks).
    #[test]
    fn generated_traces_validate(
        ranks in 2usize..5,
        rounds in proptest::collection::vec(round_strategy(4), 0..8),
    ) {
        let program = build_program(ranks, &rounds);
        let mut tracer = simmpi::EpilogTracer::new("gen", 2);
        simulate(&program, &MachineModel::default(), &mut tracer).unwrap();
        let trace = tracer.into_trace();
        trace.validate().expect("tracer output is always a valid trace");
        // Codec round-trip as a bonus.
        let back = epilog::decode_trace(&epilog::encode_trace(&trace)).unwrap();
        prop_assert_eq!(back, trace);
    }
}
