//! Property tests for the interconnect accounting.

use proptest::prelude::*;

use jessy_net::{ClockBoard, Fabric, LatencyModel, MsgClass, NetworkStats, NodeId, ThreadId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partitions_cover_the_ledger(
        events in prop::collection::vec((0usize..13, 0u64..10_000), 0..60),
    ) {
        let mut s = NetworkStats::new();
        for (class, bytes) in &events {
            s.record(MsgClass::ALL[*class], *bytes);
        }
        prop_assert_eq!(
            s.gos_bytes() + s.oal_bytes() + s.migration_bytes(),
            s.total_bytes(),
            "every class belongs to exactly one ledger partition"
        );
    }

    #[test]
    fn fabric_charges_match_the_latency_model(
        sends in prop::collection::vec((0u16..4, 0u16..4, 0usize..5_000), 1..40),
        base in 0u64..100_000,
        per_byte in 0u32..200,
    ) {
        let model = LatencyModel { base_ns: base, ns_per_byte: per_byte as f64 };
        let fabric = Fabric::new(4, model).expect("non-empty fabric");
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let mut expected = 0u64;
        let mut expected_bytes = 0u64;
        for (from, to, bytes) in &sends {
            let cost = fabric.send(NodeId(*from), NodeId(*to), MsgClass::ObjData, *bytes, &clock);
            if from == to {
                prop_assert_eq!(cost, 0, "local messages are free");
            } else {
                let total = bytes + MsgClass::ObjData.header_bytes();
                prop_assert_eq!(cost, model.one_way_ns(total));
                expected += cost;
                expected_bytes += total as u64;
            }
        }
        prop_assert_eq!(clock.now(), expected);
        prop_assert_eq!(fabric.stats().total_bytes(), expected_bytes);
    }

    #[test]
    fn clock_raise_is_idempotent_and_monotone(raises in prop::collection::vec(0u64..1_000_000, 1..50)) {
        let board = ClockBoard::new(1);
        let h = board.handle(ThreadId(0));
        let mut max_seen = 0;
        for r in &raises {
            let after = h.raise_to(*r);
            max_seen = max_seen.max(*r);
            prop_assert_eq!(after, max_seen);
            prop_assert_eq!(h.raise_to(*r), max_seen, "re-raising never lowers");
        }
    }
}
