//! The per-thread counter cells under real concurrency: eight OS threads drive a
//! free-threaded GOS — no executor, so their accesses truly overlap — each with
//! its own thread id, arena, clock and profiler. Every count is a load and a
//! store by its one writer (DESIGN.md §13), so the totals the GOS and the
//! profiler report must equal, exactly, the sum of what each thread saw its own
//! accesses do: a cell two threads wrote would lose updates here.

use std::sync::Arc;

use jessy_core::{
    FootprintConfig, FootprintMode, ProfilerConfig, ProfilerShared, SamplingRate, ThreadProfiler,
};
use jessy_gos::protocol::ProtocolCounters;
use jessy_gos::{CostModel, Gos, GosConfig, ThreadSpace};
use jessy_net::{ClockBoard, LatencyModel, NodeId, ThreadId};

const THREADS: u32 = 8;
const NODES: usize = 2;
const OBJECTS: u32 = 48;
const INTERVALS: u32 = 12;

/// What one thread saw its own accesses and interval closes do.
#[derive(Default)]
struct Tally {
    proto: ProtocolCounters,
    oal_entries: u64,
    fi_armed: u64,
    footprint_rearms: u64,
    intervals_closed: u64,
}

#[test]
fn eight_free_threads_count_exactly_what_each_did() {
    let gos = Arc::new(Gos::new(GosConfig {
        n_nodes: NODES,
        n_threads: THREADS as usize,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    }));
    // Nonstop footprinting re-arms every logged object for the current
    // interval, so all but the first access of each object in an interval is
    // an armed trap: every counter moves.
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.footprint = Some(FootprintConfig {
        mode: FootprintMode::Nonstop,
        min_gap: 1,
    });
    let prof = ProfilerShared::new(config);
    // Clock `THREADS` is the set-up clock, as in the runtime.
    let board = ClockBoard::new(THREADS as usize + 1);
    let setup = board.handle(ThreadId(THREADS));
    let class = gos.classes().register_scalar("Cell", 2);
    prof.register_class(class, 16);
    let objs: Vec<_> = (0..OBJECTS)
        .map(|i| {
            let core = gos.alloc_scalar(NodeId((i % NODES as u32) as u16), class, &setup, None);
            prof.tag_new_object(&core);
            core.id
        })
        .collect();

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (gos, prof, objs) = (Arc::clone(&gos), Arc::clone(&prof), objs.clone());
            let clock = board.handle(ThreadId(t));
            std::thread::spawn(move || {
                let node = NodeId((t % NODES as u32) as u16);
                let mut space = ThreadSpace::new(ThreadId(t));
                let mut profiler = ThreadProfiler::new(prof, ThreadId(t));
                let mut tally = Tally::default();
                for interval in 0..INTERVALS {
                    // Each thread does a different amount of work: a total that
                    // only adds up per thread cannot pass by accident.
                    let reads = 1 + (t + interval) % 4;
                    for &obj in &objs[(t as usize) % 5..] {
                        for _ in 0..reads {
                            let (_, out) = gos.read(&mut space, node, obj, &clock, |d| d[0]);
                            tally.proto.accesses += 1;
                            tally.proto.real_faults += u64::from(out.real_fault);
                            tally.proto.false_invalid_faults += u64::from(out.false_invalid);
                            // A loggable read leaves a home or valid entry, so
                            // logging it always arms its next-interval trap,
                            // and nonstop footprinting always re-arms it.
                            tally.footprint_rearms += u64::from(out.loggable());
                            profiler.on_access(&gos, &mut space, &out, &clock);
                        }
                    }
                    let oal = profiler.close_interval().expect("tracking is on");
                    tally.intervals_closed += 1;
                    tally.oal_entries += oal.entries.len() as u64;
                    tally.fi_armed += oal.entries.len() as u64;
                    profiler.open_interval(&mut space);
                }
                tally
            })
        })
        .collect();
    let tallies: Vec<Tally> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let total = |f: fn(&Tally) -> u64| -> u64 { tallies.iter().map(f).sum() };
    let proto = gos.proto_counters();
    assert_eq!(proto.accesses, total(|t| t.proto.accesses));
    assert_eq!(proto.real_faults, total(|t| t.proto.real_faults));
    assert_eq!(proto.false_invalid_faults, total(|t| t.proto.false_invalid_faults));
    let stats = prof.stats().snapshot();
    assert_eq!(stats.oal_entries, total(|t| t.oal_entries));
    assert_eq!(stats.fi_armed, total(|t| t.fi_armed));
    assert_eq!(stats.footprint_rearms, total(|t| t.footprint_rearms));
    assert_eq!(stats.intervals_closed, total(|t| t.intervals_closed));
    // Every kind of access happened, so every counter above was exercised.
    assert!(proto.real_faults > 0 && proto.false_invalid_faults > 0);
    assert!(stats.oal_entries > 0 && stats.footprint_rearms > 0);
}

#[test]
fn two_profilers_of_one_thread_id_count_into_cells_of_their_own() {
    // A profiler's cell is its own, registered when it is built: a thread id
    // never lacks one, and a thread that gets a second profiler (a fresh
    // `JThread` for the same id) adds to the totals instead of overwriting them.
    let prof = ProfilerShared::new(ProfilerConfig::tracking_at(SamplingRate::Full));
    let mut first = ThreadProfiler::new(Arc::clone(&prof), ThreadId(3));
    let mut second = ThreadProfiler::new(Arc::clone(&prof), ThreadId(3));
    first.close_interval();
    second.close_interval();
    second.record_fi_armed(5);
    first.record_fi_armed(2);
    let stats = prof.stats().snapshot();
    assert_eq!(stats.intervals_closed, 2);
    assert_eq!(stats.fi_armed, 7);
    drop((first, second));
    assert_eq!(prof.stats().snapshot(), stats, "counts outlive their profiler");
}
