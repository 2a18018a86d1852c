//! Differential property test for the single-writer heap refactor.
//!
//! Drives arbitrary access/sync/migration schedules through the refactored engine
//! (`Gos` + packed `ThreadSpace` arenas, epoch-lazy arming, version-based
//! invalidation) and the retained seed engine (`gos::heap::reference::ReferenceGos`,
//! the pre-refactor `RwLock`/`Arc`/`Mutex` layout with eager state transitions), and
//! asserts the two are observationally identical: every `AccessOutcome`, every
//! post-op access state, the home payloads and versions, the per-interval OAL
//! streams a mimicked at-most-once profiler would emit, and the final TCM —
//! bit-for-bit.

use std::collections::HashSet;

use proptest::prelude::*;

use jessy::core::oal::{Oal, OalEntry};
use jessy::core::TcmBuilder;
use jessy::gos::heap::reference::ReferenceGos;
use jessy::gos::protocol::ConsistencyModel;
use jessy::gos::{CostModel, Gos, GosConfig, ObjectId, ThreadSpace};
use jessy::net::{ClockBoard, ClockHandle, LatencyModel, NodeId, ThreadId};

/// One step of a schedule, in raw indices (resolved modulo the actual counts).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Thread `t` reads or writes object `o`; writes store a value derived from `val`.
    Access { t: usize, o: usize, write: bool, val: u32 },
    /// Thread `t` releases (flush), acquires (apply notices) and opens an interval.
    Sync { t: usize },
    /// One batch of `1 + len % 4` home relocations: move `i` sends object
    /// `o + i` to node `dest + i` (both modulo their counts), so destinations mix
    /// and, with three objects, the batch can move one object twice.
    MigrateHomes { o: usize, dest: usize, len: u32 },
    /// Thread `t` migrates to node `dest % n_nodes`, dropping its heap and
    /// prefetching a fixed sticky slice at the new node.
    ThreadMigrate { t: usize, dest: usize },
}

/// Decode a raw generated tuple into an op (~7/11 accesses, 2/11 syncs, 1/11 each
/// migration flavour — roughly the paper workloads' sync-to-access ratio).
fn decode(raw: (u32, usize, usize, u32)) -> Op {
    let (k, a, b, val) = raw;
    match k {
        0..=6 => Op::Access { t: a, o: b, write: k % 2 == 0, val },
        7 | 8 => Op::Sync { t: a },
        9 => Op::MigrateHomes { o: b, dest: a, len: val },
        _ => Op::ThreadMigrate { t: a, dest: b },
    }
}

/// Per-thread mimic of the profiler bookkeeping, kept symmetric on both engines.
struct Mimic {
    node_of: Vec<u16>,
    logged: Vec<HashSet<ObjectId>>,
    interval: Vec<u64>,
    cur_new: Vec<Vec<OalEntry>>,
    cur_ref: Vec<Vec<OalEntry>>,
    ref_candidates: Vec<Vec<ObjectId>>,
    oals_new: Vec<Oal>,
    oals_ref: Vec<Oal>,
}

impl Mimic {
    fn new(n_threads: usize, n_nodes: usize) -> Self {
        Mimic {
            node_of: (0..n_threads).map(|t| (t % n_nodes) as u16).collect(),
            logged: vec![HashSet::new(); n_threads],
            interval: vec![0; n_threads],
            cur_new: vec![Vec::new(); n_threads],
            cur_ref: vec![Vec::new(); n_threads],
            ref_candidates: vec![Vec::new(); n_threads],
            oals_new: Vec::new(),
            oals_ref: Vec::new(),
        }
    }
}

/// Flush + acquire + interval turnover for thread `t`, asserting both engines agree.
fn do_sync(
    t: usize,
    g: &Gos,
    r: &ReferenceGos,
    clocks: &[ClockHandle],
    spaces: &mut [ThreadSpace],
    m: &mut Mimic,
) -> Result<(), String> {
    let node = NodeId(m.node_of[t]);
    let tid = ThreadId(t as u32);
    prop_assert_eq!(
        g.flush_thread(&mut spaces[t], node, &clocks[t]),
        r.flush_thread(tid, node),
        "flush count diverged for thread {}",
        t
    );
    prop_assert_eq!(
        g.apply_notices(&mut spaces[t], node, &clocks[t]),
        r.apply_notices(tid, node),
        "notice count diverged for thread {}",
        t
    );
    m.oals_new.push(Oal {
        thread: tid,
        interval: m.interval[t],
        entries: std::mem::take(&mut m.cur_new[t]),
    });
    m.oals_ref.push(Oal {
        thread: tid,
        interval: m.interval[t],
        entries: std::mem::take(&mut m.cur_ref[t]),
    });
    m.logged[t].clear();
    m.interval[t] += 1;
    // Interval open: the refactored side armed lazily at log time; the seed walks
    // the previous interval's logged set now.
    spaces[t].begin_interval();
    r.set_false_invalid(tid, std::mem::take(&mut m.ref_candidates[t]));
    prop_assert_eq!(
        spaces[t].populated(),
        r.populated(tid),
        "populated count diverged for thread {}",
        t
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The refactored access path is observationally identical to the seed path.
    #[test]
    fn refactored_path_matches_seed_reference(
        n_nodes in 2usize..4,
        n_threads in 2usize..5,
        object_specs in prop::collection::vec((0u32..2, 2u32..8, 0usize..4, 0u32..2), 3..12),
        raw_ops in prop::collection::vec((0u32..11, 0usize..8, 0usize..16, 0u32..1000), 0..120),
    ) {
        let g = Gos::new(GosConfig {
            n_nodes,
            n_threads,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let r = ReferenceGos::new(n_nodes, n_threads);
        let board = ClockBoard::new(n_threads);
        let clocks: Vec<ClockHandle> = (0..n_threads)
            .map(|i| board.handle(ThreadId(i as u32)))
            .collect();
        let mut spaces: Vec<ThreadSpace> = (0..n_threads)
            .map(|i| ThreadSpace::new(ThreadId(i as u32)))
            .collect();

        // Identical class registrations and allocation order on both engines give
        // identical ids, element sequence numbers and sampled tags.
        let sc_n = g.classes().register_scalar("S", 2);
        let ar_n = g.classes().register_array("A[]", 1);
        let sc_r = r.classes().register_scalar("S", 2);
        let ar_r = r.classes().register_array("A[]", 1);
        prop_assert_eq!(sc_n, sc_r);
        prop_assert_eq!(ar_n, ar_r);
        let mut objs: Vec<ObjectId> = Vec::new();
        for &(is_array, len, home, sampled) in &object_specs {
            let node = NodeId((home % n_nodes) as u16);
            let (id_n, id_r) = if is_array == 1 {
                (
                    g.alloc_array(node, ar_n, len, &clocks[0], None).id,
                    r.alloc_array(node, ar_r, len, None).id,
                )
            } else {
                (
                    g.alloc_scalar(node, sc_n, &clocks[0], None).id,
                    r.alloc_scalar(node, sc_r, None).id,
                )
            };
            prop_assert_eq!(id_n, id_r);
            g.object(id_n).set_sampled(sampled == 1);
            r.object(id_r).set_sampled(sampled == 1);
            objs.push(id_n);
        }

        let mut m = Mimic::new(n_threads, n_nodes);

        for &raw in &raw_ops {
            let op = decode(raw);
            match op {
                Op::Access { t, o, write, val } => {
                    let t = t % n_threads;
                    let obj = objs[o % objs.len()];
                    let node = NodeId(m.node_of[t]);
                    let tid = ThreadId(t as u32);
                    let (out_n, out_r) = if write {
                        let w = |d: &mut [f64]| {
                            let i = val as usize % d.len();
                            d[i] = f64::from(val) + 1.0;
                        };
                        (
                            g.write(&mut spaces[t], node, obj, &clocks[t], w).1,
                            r.write(tid, node, obj, w).1,
                        )
                    } else {
                        (
                            g.read(&mut spaces[t], node, obj, &clocks[t], |_| {}).1,
                            r.read(tid, node, obj, |_| {}).1,
                        )
                    };
                    prop_assert_eq!(out_n, out_r, "outcome diverged on {:?}", op);
                    prop_assert_eq!(
                        spaces[t].access_state(obj),
                        r.access_state(tid, obj),
                        "access state diverged on {:?}",
                        op
                    );
                    // Profiler mimic: at-most-once log of sampled objects, with
                    // false-invalid rearming for the next interval.
                    if out_n.sampled && m.logged[t].insert(obj) {
                        m.cur_new[t].push(OalEntry {
                            obj: out_n.obj,
                            class: out_n.class,
                            bytes: out_n.payload_bytes as u64,
                        });
                        m.cur_ref[t].push(OalEntry {
                            obj: out_r.obj,
                            class: out_r.class,
                            bytes: out_r.payload_bytes as u64,
                        });
                        spaces[t].arm_next_interval(obj);
                        m.ref_candidates[t].push(obj);
                    }
                }
                Op::Sync { t } => {
                    do_sync(t % n_threads, &g, &r, &clocks, &mut spaces, &mut m)?;
                }
                Op::MigrateHomes { o, dest, len } => {
                    let moves: Vec<(ObjectId, NodeId)> = (0..1 + len as usize % 4)
                        .map(|i| {
                            let node = NodeId(((dest + i) % n_nodes) as u16);
                            (objs[(o + i) % objs.len()], node)
                        })
                        .collect();
                    // The oracle relocates object by object, in batch order.
                    let relocated = moves
                        .iter()
                        .filter(|&&(obj, dest)| r.migrate_home(obj, dest))
                        .count();
                    prop_assert_eq!(
                        g.relocate_homes(moves.iter().copied(), &clocks[0]).0,
                        relocated,
                        "relocate_homes diverged on {:?}",
                        op
                    );
                }
                Op::ThreadMigrate { t, dest } => {
                    let t = t % n_threads;
                    let tid = ThreadId(t as u32);
                    let src = NodeId(m.node_of[t]);
                    g.drop_thread_cache(&mut spaces[t], src, &clocks[t]);
                    r.drop_thread_cache(tid, src);
                    prop_assert_eq!(spaces[t].populated(), 0);
                    prop_assert_eq!(r.populated(tid), 0);
                    // Armed traps (and pending next-interval arms) are heap state:
                    // dropping the heap drops them on both engines.
                    m.ref_candidates[t].clear();
                    m.node_of[t] = (dest % n_nodes) as u16;
                    let dest = NodeId(m.node_of[t]);
                    // Sticky-set prefetch of a deterministic slice at the new node.
                    let sticky: Vec<ObjectId> = objs.iter().take(3).copied().collect();
                    prop_assert_eq!(
                        g.prefetch_into(&mut spaces[t], dest, sticky.iter().copied(), &clocks[t]).1,
                        r.prefetch_into(tid, dest, sticky.iter().copied()),
                        "prefetch bytes diverged on {:?}",
                        op
                    );
                }
            }
        }

        // Drain: every thread releases, acquires and closes its last interval.
        for t in 0..n_threads {
            do_sync(t, &g, &r, &clocks, &mut spaces, &mut m)?;
        }

        // Home copies and versions are bit-identical.
        for &obj in &objs {
            let (cn, cr) = (g.object(obj), r.object(obj));
            prop_assert_eq!(cn.home(), cr.home(), "{} home diverged", obj);
            prop_assert_eq!(cn.version(), cr.version(), "{} version diverged", obj);
            let bits_n: Vec<u64> = cn.snapshot_home().iter().map(|v| v.to_bits()).collect();
            let bits_r: Vec<u64> = cr.snapshot_home().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(bits_n, bits_r, "{} home payload diverged", obj);
        }

        // The OAL streams match exactly, and so do the TCMs they reduce to.
        prop_assert_eq!(&m.oals_new, &m.oals_ref);
        let mut tb_n = TcmBuilder::new(n_threads);
        let mut tb_r = TcmBuilder::new(n_threads);
        for oal in &m.oals_new {
            tb_n.ingest(oal);
        }
        for oal in &m.oals_ref {
            tb_r.ingest(oal);
        }
        tb_n.close_round();
        tb_r.close_round();
        let bits_n: Vec<u64> = tb_n.tcm().raw().iter().map(|v| v.to_bits()).collect();
        let bits_r: Vec<u64> = tb_r.tcm().raw().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits_n, bits_r, "TCM diverged");
    }
}
