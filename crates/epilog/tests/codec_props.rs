//! Property tests: the binary codec round-trips arbitrary traces, and
//! decoding never panics on corrupted input.

use proptest::prelude::*;

use epilog::{
    decode_trace, encode_trace, CollectiveOp, CounterDef, Event, EventKind, Location, RegionDef,
    Trace, TraceDefs,
};

fn arb_collective() -> impl Strategy<Value = CollectiveOp> {
    prop_oneof![
        Just(CollectiveOp::Barrier),
        Just(CollectiveOp::AllToAll),
        Just(CollectiveOp::AllReduce),
        Just(CollectiveOp::Broadcast),
        Just(CollectiveOp::Reduce),
    ]
}

prop_compose! {
    fn arb_defs()(
        machine in "[a-zA-Z0-9 _-]{0,12}",
        nodes in 1usize..4,
        ranks in 1usize..6,
        region_names in proptest::collection::vec("[a-zA-Z_][a-zA-Z0-9_]{0,10}", 1..6),
        counters in proptest::collection::vec("[A-Z_]{1,12}", 0..3),
    ) -> TraceDefs {
        TraceDefs {
            machine_name: machine,
            node_names: (0..nodes).map(|n| format!("node{n}")).collect(),
            locations: (0..ranks)
                .map(|r| Location { rank: r as i32, thread: 0, node_index: (r % nodes) as u32 })
                .collect(),
            regions: region_names
                .into_iter()
                .enumerate()
                .map(|(i, name)| RegionDef { name, file: format!("f{i}.c"), line: i as u32 })
                .collect(),
            counters: counters.into_iter().map(|name| CounterDef { name }).collect(),
            topology: if ranks % 2 == 0 {
                Some(epilog::TopologyDef {
                    name: "grid".into(),
                    dims: vec![ranks as u32 / 2, 2],
                    periodic: vec![false, true],
                    coords: (0..ranks)
                        .map(|r| (r as i32, vec![r as u32 / 2, r as u32 % 2]))
                        .collect(),
                })
            } else {
                None
            },
        }
    }
}

fn arb_kind(nregions: u32, ranks: i32) -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0..nregions).prop_map(|region| EventKind::Enter { region }),
        (0..nregions).prop_map(|region| EventKind::Exit { region }),
        (0..ranks, any::<i32>(), any::<u64>()).prop_map(|(dest, tag, bytes)| EventKind::MpiSend {
            dest,
            tag,
            bytes
        }),
        (0..ranks, any::<i32>(), any::<u64>())
            .prop_map(|(source, tag, bytes)| EventKind::MpiRecv { source, tag, bytes }),
        (arb_collective(), any::<u64>(), -1i32..8)
            .prop_map(|(op, bytes, root)| EventKind::CollectiveExit { op, bytes, root }),
    ]
}

prop_compose! {
    fn arb_trace()(defs in arb_defs())(
        kinds in proptest::collection::vec(
            arb_kind(defs.regions.len() as u32, defs.locations.len() as i32),
            0..40,
        ),
        times in proptest::collection::vec(0.0f64..1e6, 0..40),
        locs in proptest::collection::vec(0u32..8, 0..40),
        counter_vals in proptest::collection::vec(any::<u64>(), 0..40),
        defs in Just(defs),
    ) -> Trace {
        let ncnt = defs.counters.len();
        let nloc = defs.locations.len() as u32;
        let mut t = Trace::new(defs);
        for (i, kind) in kinds.into_iter().enumerate() {
            let mut e = Event::new(
                times.get(i).copied().unwrap_or(0.0),
                locs.get(i).copied().unwrap_or(0) % nloc,
                kind,
            );
            e.counters = (0..ncnt)
                .map(|c| counter_vals.get((i + c) % counter_vals.len().max(1)).copied().unwrap_or(0))
                .collect();
            t.push(e);
        }
        t
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Encode/decode is the identity on arbitrary traces (valid or not —
    /// the codec is structure-agnostic; validation is separate).
    #[test]
    fn codec_roundtrip(trace in arb_trace()) {
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Truncating an encoded trace anywhere yields an error, never a
    /// panic or a silent success.
    #[test]
    fn truncation_always_errors(trace in arb_trace(), frac in 0.0f64..1.0) {
        let bytes = encode_trace(&trace);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_trace(&bytes[..cut]).is_err());
        }
    }

    /// Flipping one byte never panics (it may or may not error —
    /// a flipped severity byte is still a valid trace).
    #[test]
    fn corruption_never_panics(trace in arb_trace(), pos in any::<prop::sample::Index>(), delta in 1u8..=255) {
        let mut bytes = encode_trace(&trace);
        if !bytes.is_empty() {
            let i = pos.index(bytes.len());
            bytes[i] = bytes[i].wrapping_add(delta);
            let _ = decode_trace(&bytes);
        }
    }

    /// Stats are invariant under codec round-trip.
    #[test]
    fn stats_survive_roundtrip(trace in arb_trace()) {
        let back = decode_trace(&encode_trace(&trace)).unwrap();
        prop_assert_eq!(back.stats(), trace.stats());
    }
}
