//! Integration tests for the HLRC protocol engine (per-thread heaps).
//!
//! Unless stated otherwise, each test uses one thread per node: thread `i`'s clock
//! identifies it, it runs on node `i`, and it owns the single-writer heap `s[i]`.

mod common;

use std::sync::Arc;

use common::run_tasks;
use jessy_gos::object::OBJ_HEADER_BYTES;
use jessy_gos::{AccessState, CostModel, Gos, GosConfig, ThreadSpace};
use jessy_net::{ClockBoard, ClockHandle, DetExecutor, LatencyModel, MsgClass, NodeId, ThreadId};
use jessy_obs::{EventKind, JournalSink};

fn gos(n: usize) -> (Gos, Vec<ClockHandle>, Vec<ThreadSpace>) {
    let g = Gos::new(GosConfig {
        n_nodes: n,
        n_threads: n,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(n);
    let clocks = (0..n).map(|i| board.handle(ThreadId(i as u32))).collect();
    let spaces = (0..n).map(|i| ThreadSpace::new(ThreadId(i as u32))).collect();
    (g, clocks, spaces)
}

#[test]
fn home_access_never_faults() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("Point", 2);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], Some(&[1.0, 2.0]));
    let (sum, out) = g.read(&mut s[0], NodeId(0), obj.id, &c[0], |d| d[0] + d[1]);
    assert_eq!(sum, 3.0);
    assert!(!out.faulted());
    assert_eq!(out.payload_bytes, 16);
    assert_eq!(g.net_stats().total_messages(), 0);
}

#[test]
fn remote_read_faults_once_then_hits() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("Point", 2);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], Some(&[5.0, 0.0]));

    let (v, out1) = g.read(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0]);
    assert_eq!(v, 5.0);
    assert!(out1.real_fault);
    assert_eq!(out1.fetched_bytes, 16);

    let (_, out2) = g.read(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0]);
    assert!(!out2.faulted(), "second access in the interval must hit");

    let stats = g.net_stats();
    assert_eq!(stats.class(MsgClass::ObjFetch).messages, 1);
    assert_eq!(stats.class(MsgClass::ObjData).messages, 1);
}

#[test]
fn caches_are_per_thread_even_on_one_node() {
    // Two threads on the same node each fault their own copy — the thread-local heap
    // of Section II.A, which is what makes per-thread OALs possible.
    let g = Gos::new(GosConfig {
        n_nodes: 2,
        n_threads: 2,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(2);
    let c0 = board.handle(ThreadId(0));
    let c1 = board.handle(ThreadId(1));
    let mut s0 = ThreadSpace::new(ThreadId(0));
    let mut s1 = ThreadSpace::new(ThreadId(1));
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(1), class, &c0, None);

    // Both threads run on node 0; each takes its own fault.
    let (_, out0) = g.read(&mut s0, NodeId(0), obj.id, &c0, |_| {});
    let (_, out1) = g.read(&mut s1, NodeId(0), obj.id, &c1, |_| {});
    assert!(out0.real_fault && out1.real_fault);
    assert_eq!(g.net_stats().class(MsgClass::ObjFetch).messages, 2);
}

#[test]
fn write_propagates_via_diff_and_notice() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_array("double[]", 1);
    let obj = g.alloc_array(NodeId(0), class, 8, &c[0], None);

    // Thread 1 (node 1) caches the object, then writes two words.
    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| {
        d[3] = 3.0;
        d[7] = 7.0;
    });
    // Home copy unchanged until release.
    assert_eq!(obj.snapshot_home()[3], 0.0);

    let flushed = g.flush_thread(&mut s[1], NodeId(1), &c[1]);
    assert_eq!(flushed, 1);
    assert_eq!(obj.snapshot_home()[3], 3.0);
    assert_eq!(obj.snapshot_home()[7], 7.0);
    assert_eq!(obj.version(), 1);

    // Diff wire size: 2 runs (each 1 word) = 2*8 header + 2*8 data + 8 obj header.
    let diff_bytes = g.net_stats().class(MsgClass::DiffUpdate).bytes;
    assert_eq!(
        diff_bytes,
        (2 * 8 + 2 * 8 + 8 + MsgClass::DiffUpdate.header_bytes()) as u64
    );

    // Thread 0 (the home node) sees the latest value directly.
    g.apply_notices(&mut s[0], NodeId(0), &c[0]);
    let (v, _) = g.read(&mut s[0], NodeId(0), obj.id, &c[0], |d| d[7]);
    assert_eq!(v, 7.0);
}

#[test]
fn stale_cache_is_invalidated_by_notice_and_refetched() {
    let (g, c, mut s) = gos(3);
    let class = g.classes().register_array("double[]", 1);
    let obj = g.alloc_array(NodeId(0), class, 4, &c[0], Some(&[1.0, 1.0, 1.0, 1.0]));

    // Thread 2 caches the old value.
    let (v, _) = g.read(&mut s[2], NodeId(2), obj.id, &c[2], |d| d[0]);
    assert_eq!(v, 1.0);

    // Thread 1 writes and releases.
    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0] = 9.0);
    g.flush_thread(&mut s[1], NodeId(1), &c[1]);

    // Before applying notices, thread 2 still reads its (legally) stale cache.
    let (v, out) = g.read(&mut s[2], NodeId(2), obj.id, &c[2], |d| d[0]);
    assert_eq!(v, 1.0);
    assert!(!out.faulted());

    // Acquire semantics: apply notices, cache invalidated, next read refetches.
    g.apply_notices(&mut s[2], NodeId(2), &c[2]);
    assert_eq!(s[2].access_state(obj.id), Some(AccessState::Invalid));
    let (v, out) = g.read(&mut s[2], NodeId(2), obj.id, &c[2], |d| d[0]);
    assert_eq!(v, 9.0);
    assert!(out.real_fault);
}

#[test]
fn own_notices_do_not_invalidate_own_fresh_cache() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);

    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0] = 2.0);
    g.flush_thread(&mut s[1], NodeId(1), &c[1]);
    g.apply_notices(&mut s[1], NodeId(1), &c[1]);
    let (_, out) = g.read(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0]);
    assert!(
        !out.faulted(),
        "writer's own up-to-date cache must survive its own notice"
    );
}

#[test]
fn false_invalid_traps_once_and_cancels() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], Some(&[4.0]));

    // Arm in thread 0's heap (home-resident entry).
    g.read(&mut s[0], NodeId(0), obj.id, &c[0], |_| {});
    assert_eq!(s[0].arm_traps([obj.id]), 1);
    assert_eq!(s[0].access_state(obj.id), Some(AccessState::FalseInvalid));

    let (v, out) = g.read(&mut s[0], NodeId(0), obj.id, &c[0], |d| d[0]);
    assert_eq!(v, 4.0);
    assert!(out.false_invalid);
    assert!(!out.real_fault, "false-invalid at home must not fetch anything");
    assert_eq!(g.net_stats().total_messages(), 0);

    let (_, out) = g.read(&mut s[0], NodeId(0), obj.id, &c[0], |_| {});
    assert!(!out.faulted(), "trap cancelled after one access");

    // Arm on a valid cache copy of thread 1.
    g.read(&mut s[1], NodeId(1), obj.id, &c[1], |_| {});
    assert_eq!(s[1].arm_traps([obj.id]), 1);
    let (_, out) = g.read(&mut s[1], NodeId(1), obj.id, &c[1], |_| {});
    assert!(out.false_invalid && !out.real_fault);
}

#[test]
fn false_invalid_is_not_armed_on_untouched_objects() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);
    // Thread 1 never touched the object: no entry, nothing armed.
    assert_eq!(s[1].arm_traps([obj.id]), 0);
}

#[test]
fn lock_transfers_simulated_time_and_notices() {
    let (g, c, mut s) = gos(2);
    let (c0, c1) = (&c[0], &c[1]);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, c0, None);
    let lock = g.register_lock();

    // Thread 1 caches the initial value before anyone writes.
    let (v, _) = g.read(&mut s[1], NodeId(1), obj.id, c1, |d| d[0]);
    assert_eq!(v, 0.0);

    // Thread 0 at node 0: lock, write, unlock at sim time 1000.
    g.lock_acquire(&mut s[0], lock, NodeId(0), c0);
    g.write(&mut s[0], NodeId(0), obj.id, c0, |d| d[0] = 1.0);
    c0.spend(1000);
    g.lock_release(&mut s[0], lock, NodeId(0), c0);

    // Thread 1 at node 1: sees the release time and the write notice.
    let (v, _) = g.read(&mut s[1], NodeId(1), obj.id, c1, |d| d[0]);
    assert_eq!(v, 0.0, "not yet acquired: cached old value is legal");
    let applied = g.lock_acquire(&mut s[1], lock, NodeId(1), c1);
    assert!(applied >= 1, "write notice must arrive with the lock");
    assert!(c1.now() >= 1000, "acquirer inherits releaser's sim time");
    let (v, out) = g.read(&mut s[1], NodeId(1), obj.id, c1, |d| d[0]);
    assert_eq!(v, 1.0);
    assert!(out.real_fault);
    g.lock_release(&mut s[1], lock, NodeId(1), c1);
}

#[test]
fn an_acquire_applies_notices_from_every_lock() {
    // Global HLRC keeps one notice history: acquiring lock A also delivers the write
    // made under lock B, invalidating both cached copies.
    let (g, c, mut s) = gos(3);
    let class = g.classes().register_scalar("X", 1);
    let a = g.alloc_scalar(NodeId(0), class, &c[0], None);
    let b = g.alloc_scalar(NodeId(0), class, &c[0], None);
    let lock_a = g.register_lock();
    let lock_b = g.register_lock();

    g.read(&mut s[2], NodeId(2), a.id, &c[2], |_| {});
    g.read(&mut s[2], NodeId(2), b.id, &c[2], |_| {});

    g.lock_acquire(&mut s[1], lock_a, NodeId(1), &c[1]);
    g.write(&mut s[1], NodeId(1), a.id, &c[1], |d| d[0] = 1.0);
    g.lock_release(&mut s[1], lock_a, NodeId(1), &c[1]);
    g.lock_acquire(&mut s[1], lock_b, NodeId(1), &c[1]);
    g.write(&mut s[1], NodeId(1), b.id, &c[1], |d| d[0] = 2.0);
    g.lock_release(&mut s[1], lock_b, NodeId(1), &c[1]);

    let applied = g.lock_acquire(&mut s[2], lock_a, NodeId(2), &c[2]);
    assert_eq!(applied, 2, "global history: both notices apply");
    g.lock_release(&mut s[2], lock_a, NodeId(2), &c[2]);
    let (vb, out_b) = g.read(&mut s[2], NodeId(2), b.id, &c[2], |d| d[0]);
    assert_eq!(vb, 2.0);
    assert!(out_b.real_fault, "conservatively invalidated");
}

#[test]
fn barrier_synchronizes_clocks_and_data() {
    let exec = DetExecutor::new(4, 0, 0);
    let (mut g, _, _) = gos(4);
    g.set_executor(Arc::clone(&exec));
    let board = ClockBoard::new(4);
    let class = g.classes().register_array("double[]", 1);
    // Each node homes one object; all initialized to the node index.
    let objs: Vec<_> = (0..4)
        .map(|i| {
            let c = board.handle(ThreadId(i as u32));
            g.alloc_array(NodeId(i as u16), class, 2, &c, Some(&[i as f64, 0.0]))
                .id
        })
        .collect();

    let bodies: Vec<_> = (0..4u32)
        .map(|i| {
            let (g, objs) = (&g, &objs);
            let c = board.handle(ThreadId(i));
            move || {
                let node = NodeId(i as u16);
                let mut space = ThreadSpace::new(ThreadId(i));
                // Phase 1: everyone increments its own object.
                g.write(&mut space, node, objs[i as usize], &c, |d| d[0] += 10.0);
                c.spend((i as u64 + 1) * 100);
                g.barrier_wait(&mut space, node, 4, &c);
                // Phase 2: read the next node's object; must see its phase-1 write.
                let next = objs[(i as usize + 1) % 4];
                let (v, _) = g.read(&mut space, node, next, &c, |d| d[0]);
                g.barrier_wait(&mut space, node, 4, &c);
                (v, c.now())
            }
        })
        .collect();

    let results: Vec<(f64, u64)> = run_tasks(&exec, bodies);
    for (i, (v, _)) in results.iter().enumerate() {
        assert_eq!(*v, ((i + 1) % 4) as f64 + 10.0, "thread {i} read a stale value");
    }
    // All clocks equal after the final barrier.
    let times: Vec<u64> = results.iter().map(|r| r.1).collect();
    assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    assert!(times[0] >= 400, "release time is the max arrival");
}

#[test]
#[should_panic(expected = "only the running executor task may block")]
fn a_contended_lock_blocks_only_an_executor_task() {
    let (g, c, mut s) = gos(2);
    let lock = g.register_lock();
    g.lock_acquire(&mut s[0], lock, NodeId(0), &c[0]);
    // Thread 1 contends from the same OS thread, which runs no task.
    g.lock_acquire(&mut s[1], lock, NodeId(1), &c[1]);
}

#[test]
#[should_panic(expected = "only the running executor task may block")]
fn a_barrier_blocks_only_an_executor_task() {
    let (g, c, mut s) = gos(2);
    g.barrier_wait(&mut s[0], NodeId(0), 2, &c[0]);
}

#[test]
#[should_panic(expected = "space/clock thread mismatch")]
fn an_access_through_another_threads_clock_panics_in_every_build() {
    // Thread 0's arena with thread 1's clock would charge one thread's clock and
    // counter cell for another thread's access: refused in release builds too.
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("Point", 2);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);
    g.read(&mut s[0], NodeId(0), obj.id, &c[1], |_| {});
}

#[test]
#[should_panic(expected = "thread t2 has no counter cell (GOS built for 2 threads)")]
fn an_access_by_a_thread_id_the_gos_was_not_built_for_panics() {
    let (g, c, _s) = gos(2);
    let class = g.classes().register_scalar("Point", 2);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);
    let board = ClockBoard::new(3);
    let mut stray = ThreadSpace::new(ThreadId(2));
    g.read(&mut stray, NodeId(0), obj.id, &board.handle(ThreadId(2)), |_| {});
}

#[test]
fn concurrent_disjoint_writers_merge_at_home() {
    // Two threads write disjoint halves of the same array within one interval; both
    // diffs must merge at the home (the multiple-writer property of LRC).
    let (g, c, mut s) = gos(3);
    let class = g.classes().register_array("double[]", 1);
    let obj = g.alloc_array(NodeId(0), class, 8, &c[0], None);

    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| {
        for w in &mut d[0..4] {
            *w = 1.0;
        }
    });
    g.write(&mut s[2], NodeId(2), obj.id, &c[2], |d| {
        for w in &mut d[4..8] {
            *w = 2.0;
        }
    });
    g.flush_thread(&mut s[1], NodeId(1), &c[1]);
    g.flush_thread(&mut s[2], NodeId(2), &c[2]);

    assert_eq!(
        obj.snapshot_home(),
        vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0],
        "disjoint diffs must both land"
    );
    assert_eq!(obj.version(), 2);
}

#[test]
fn dirty_cache_hit_by_notice_is_force_flushed() {
    let (g, c, mut s) = gos(3);
    let class = g.classes().register_array("double[]", 1);
    let obj = g.alloc_array(NodeId(0), class, 4, &c[0], None);

    // Thread 2 writes word 3 (unflushed); thread 1 writes word 0 and flushes.
    g.write(&mut s[2], NodeId(2), obj.id, &c[2], |d| d[3] = 3.0);
    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0] = 1.0);
    g.flush_thread(&mut s[1], NodeId(1), &c[1]);

    // Thread 2 acquires: the notice invalidates its dirty copy, force-flushing first.
    g.apply_notices(&mut s[2], NodeId(2), &c[2]);
    let home = obj.snapshot_home();
    assert_eq!(home[0], 1.0, "thread 1's write");
    assert_eq!(home[3], 3.0, "thread 2's write must not be lost");
}

#[test]
fn migration_drops_the_thread_local_heap() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);

    // Thread 1 caches and dirties the object, then migrates: the pending write must
    // be flushed, the cache dropped, and the next access re-faults.
    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0] = 5.0);
    g.drop_thread_cache(&mut s[1], NodeId(1), &c[1]);
    assert_eq!(obj.snapshot_home()[0], 5.0, "flush-before-drop");
    assert_eq!(s[1].access_state(obj.id), None);
    let (_, out) = g.read(&mut s[1], NodeId(0), obj.id, &c[1], |_| {});
    assert!(!out.real_fault, "obj is homed at the new node: direct access");
}

#[test]
fn prefetch_installs_valid_copies() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 2);
    let objs: Vec<_> = (0..4)
        .map(|_| g.alloc_scalar(NodeId(0), class, &c[0], None).id)
        .collect();
    let moved = g.prefetch_into(&mut s[1], NodeId(1), objs.iter().copied(), &c[1]);
    assert_eq!(moved, (4, 4 * (16 + 16)), "payload + object header each");
    for &o in &objs {
        assert_eq!(s[1].access_state(o), Some(AccessState::Valid));
    }
    // Prefetching again moves nothing.
    assert_eq!(
        g.prefetch_into(&mut s[1], NodeId(1), objs.iter().copied(), &c[1]),
        (0, 0)
    );
    let stats = g.net_stats();
    assert_eq!(stats.class(MsgClass::Prefetch).messages, 1, "batched per home");
}

#[test]
fn counters_track_protocol_events() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);
    g.read(&mut s[1], NodeId(1), obj.id, &c[1], |_| {});
    s[1].arm_traps([obj.id]);
    g.read(&mut s[1], NodeId(1), obj.id, &c[1], |_| {});
    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0] = 1.0);
    g.flush_thread(&mut s[1], NodeId(1), &c[1]);
    g.apply_notices(&mut s[0], NodeId(0), &c[0]);

    let pc = g.proto_counters();
    assert_eq!(pc.real_faults, 1);
    assert_eq!(pc.false_invalid_faults, 1);
    assert_eq!(pc.accesses, 3);
    assert_eq!(pc.diffs_flushed, 1);
    assert!(pc.notices_applied >= 1);
}

#[test]
fn simulated_costs_accumulate_on_the_clock() {
    let g = Gos::new(GosConfig {
        n_nodes: 2,
        n_threads: 2,
        latency: LatencyModel::fast_ethernet(),
        costs: CostModel::pentium4_2ghz(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(2);
    let c0 = board.handle(ThreadId(0));
    let c1 = board.handle(ThreadId(1));
    let mut s1 = ThreadSpace::new(ThreadId(1));
    let class = g.classes().register_array("double[]", 1);
    let obj = g.alloc_array(NodeId(0), class, 512, &c0, None);
    let alloc_time = c0.now();
    assert!(alloc_time > 0);

    // Remote fault: pays check + service + a 4 KB round trip.
    g.read(&mut s1, NodeId(1), obj.id, &c1, |_| {});
    let fault_time = c1.now();
    assert!(fault_time > 300_000, "4 KB over Fast Ethernet: got {fault_time}");

    // Hit: pays only the check.
    g.read(&mut s1, NodeId(1), obj.id, &c1, |_| {});
    assert_eq!(c1.now() - fault_time, 2);
}

#[test]
fn home_migration_redirects_faults_and_repairs_residents() {
    let (g, c, mut s) = gos(3);
    let class = g.classes().register_scalar("X", 2);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], Some(&[5.0, 0.0]));

    // Thread 0 (node 0) uses it as home-resident; thread 2 caches it.
    g.read(&mut s[0], NodeId(0), obj.id, &c[0], |_| {});
    g.read(&mut s[2], NodeId(2), obj.id, &c[2], |_| {});

    // Relocate the home to node 1: one `ObjData` message on top of thread 2's fetch.
    assert_eq!(g.relocate_homes([(obj.id, NodeId(1))], &c[1]), (1, 16 + 16));
    assert_eq!(
        g.relocate_homes([(obj.id, NodeId(1))], &c[1]),
        (0, 0),
        "no-op when already there"
    );
    assert_eq!(obj.home(), NodeId(1));
    assert_eq!(g.proto_counters().home_migrations, 1);
    assert_eq!(g.net_stats().class(MsgClass::ObjData).messages, 2);

    // Thread 2 applies notices → its cache revalidates against the new home.
    g.apply_notices(&mut s[2], NodeId(2), &c[2]);
    let before = g.net_stats().class(MsgClass::ObjFetch).messages;
    let (v, out) = g.read(&mut s[2], NodeId(2), obj.id, &c[2], |d| d[0]);
    assert_eq!(v, 5.0);
    assert!(out.real_fault);
    assert_eq!(out.home, NodeId(1), "fault served by the new home");
    assert_eq!(g.net_stats().class(MsgClass::ObjFetch).messages, before + 1);

    // Thread 0's stale home-resident entry is repaired at its next acquire.
    g.apply_notices(&mut s[0], NodeId(0), &c[0]);
    let (v, out) = g.read(&mut s[0], NodeId(0), obj.id, &c[0], |d| d[0]);
    assert_eq!(v, 5.0);
    assert!(out.real_fault, "old home now faults like any remote node");

    // Thread 1 (the new home) accesses directly.
    let (_, out) = g.read(&mut s[1], NodeId(1), obj.id, &c[1], |_| {});
    assert!(out.first_touch && !out.real_fault);
}

#[test]
fn home_migration_preserves_writes_in_flight() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);

    // Thread 1 writes a cached copy; before it flushes, the home migrates to node 1.
    g.write(&mut s[1], NodeId(1), obj.id, &c[1], |d| d[0] = 9.0);
    assert_eq!(g.relocate_homes([(obj.id, NodeId(1))], &c[0]).0, 1);
    g.flush_thread(&mut s[1], NodeId(1), &c[1]);
    assert_eq!(obj.snapshot_home()[0], 9.0, "diff landed on the migrated home");
    // After applying notices, a fresh reader sees the write.
    g.apply_notices(&mut s[0], NodeId(0), &c[0]);
    let (v, _) = g.read(&mut s[0], NodeId(0), obj.id, &c[0], |d| d[0]);
    assert_eq!(v, 9.0);
}

#[test]
fn relocating_homes_sends_one_message_per_link() {
    let latency = LatencyModel::fast_ethernet();
    let g = Gos::new(GosConfig {
        n_nodes: 4,
        n_threads: 4,
        latency,
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(4);
    let c3 = board.handle(ThreadId(3));
    let class = g.classes().register_array("double[]", 1);
    // Two objects homed on each of nodes 0, 1 and 2, of different sizes, plus
    // one already at the destination.
    let objs: Vec<_> = (0..6)
        .map(|k| g.alloc_array(NodeId(k / 2), class, 8 + 8 * k as u32, &c3, None))
        .collect();
    let resident = g.alloc_array(NodeId(3), class, 8, &c3, None).id;
    let before = c3.now();

    let moves = objs.iter().map(|o| o.id).chain([resident]).map(|o| (o, NodeId(3)));
    let (moved, bytes) = g.relocate_homes(moves, &c3);

    let link_bytes: Vec<usize> = objs
        .chunks(2)
        .map(|pair| pair.iter().map(|o| o.payload_bytes() + OBJ_HEADER_BYTES).sum())
        .collect();
    let hdr = MsgClass::ObjData.header_bytes();
    assert_eq!((moved, bytes), (6, link_bytes.iter().sum()));
    assert!(objs.iter().all(|o| o.home() == NodeId(3)));
    let data = g.net_stats().class(MsgClass::ObjData);
    assert_eq!(data.messages, 3, "one message per (old home, new home) link");
    assert_eq!(data.bytes, (bytes + 3 * hdr) as u64);
    let serial: u64 = link_bytes.iter().map(|&b| latency.one_way_ns(b + hdr)).sum();
    assert_eq!(c3.now() - before, serial, "the sends are charged one after another");
    assert_eq!(g.proto_counters().home_migrations, 6);
}

#[test]
fn connectivity_prefetch_rides_on_faults() {
    // A chain head → a → b → c homed at node 0; with prefetch_depth 2, faulting the
    // head from node 1 also installs a and b (same home), but not c.
    let g = Gos::new(GosConfig {
        n_nodes: 2,
        n_threads: 2,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 2,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(2);
    let c0 = board.handle(ThreadId(0));
    let c1 = board.handle(ThreadId(1));
    let mut s1 = ThreadSpace::new(ThreadId(1));
    let class = g.classes().register_scalar("Node", 2);
    let ids: Vec<_> = (0..4)
        .map(|_| g.alloc_scalar(NodeId(0), class, &c0, None).id)
        .collect();
    for w in ids.windows(2) {
        g.object(w[0]).add_ref(w[1]);
    }

    let (_, out) = g.read(&mut s1, NodeId(1), ids[0], &c1, |_| {});
    assert!(out.real_fault);
    assert_eq!(g.proto_counters().objects_prefetched, 2);
    // a and b are now valid without further faults; c still faults.
    for &o in &ids[1..3] {
        let (_, out) = g.read(&mut s1, NodeId(1), o, &c1, |_| {});
        assert!(!out.real_fault, "{o} should have been prefetched");
    }
    let (_, out) = g.read(&mut s1, NodeId(1), ids[3], &c1, |_| {});
    assert!(out.real_fault, "depth-3 neighbour is beyond the prefetch horizon");
    assert!(g.net_stats().class(MsgClass::Prefetch).bytes > 0);
}

#[test]
fn connectivity_prefetch_skips_cross_home_neighbours() {
    let g = Gos::new(GosConfig {
        n_nodes: 3,
        n_threads: 3,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 3,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(3);
    let c0 = board.handle(ThreadId(0));
    let c2 = board.handle(ThreadId(2));
    let mut s2 = ThreadSpace::new(ThreadId(2));
    let class = g.classes().register_scalar("Node", 1);
    let head = g.alloc_scalar(NodeId(0), class, &c0, None).id;
    let other_home = g.alloc_scalar(NodeId(1), class, &c0, None).id;
    g.object(head).add_ref(other_home);

    let (_, out) = g.read(&mut s2, NodeId(2), head, &c2, |_| {});
    assert!(out.real_fault);
    assert_eq!(
        g.proto_counters().objects_prefetched,
        0,
        "a neighbour homed elsewhere is not on this reply path"
    );
    let (_, out) = g.read(&mut s2, NodeId(2), other_home, &c2, |_| {});
    assert!(out.real_fault, "cross-home neighbour still faults normally");
}

/// The privacy classification the runtime makes before an access by
/// `space`'s thread.
fn private_hit(g: &Gos, space: &ThreadSpace, obj: jessy_gos::ObjectId) -> bool {
    space.is_private_hit(obj, || g.is_local_to(obj, space.thread()))
}

#[test]
fn thread_local_home_hits_are_private_until_the_object_is_shared() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("Scratch", 2);
    // Five objects homed at thread 0's node that thread 0 touches first, and
    // one homed at thread 1's node that thread 0 also reaches first.
    let local: Vec<_> = (0..5)
        .map(|_| g.alloc_scalar(NodeId(0), class, &c[0], None).id)
        .collect();
    let remote = g.alloc_scalar(NodeId(1), class, &c[0], None).id;
    let sink = g.alloc_scalar(NodeId(0), class, &c[0], None).id;

    // Untouched: nobody owns it, and the first touch enters the service
    // routine, never private.
    assert!(!g.is_local_to(local[0], ThreadId(0)), "objects start unclaimed");
    assert!(!private_hit(&g, &s[0], local[0]));
    for &obj in local.iter().chain([&remote]) {
        g.write(&mut s[0], NodeId(0), obj, &c[0], |d| d[0] = 1.0);
    }
    assert!(local.iter().all(|&o| private_hit(&g, &s[0], o)));
    assert!(!g.is_local_to(local[0], ThreadId(1)), "local to its first toucher only");

    // A live armed trap on an entry only this thread holds changes nothing:
    // the trap works on this arena and the thread's own profiler state.
    s[0].arm_traps([local[0]]);
    assert!(private_hit(&g, &s[0], local[0]));
    let (_, out) = g.read(&mut s[0], NodeId(0), local[0], &c[0], |_| {});
    assert!(out.false_invalid, "the trap still fires");
    assert!(private_hit(&g, &s[0], local[0]));

    // Each way of sharing revokes it, for good.
    g.read(&mut s[1], NodeId(1), local[0], &c[1], |_| {}); // another thread's first touch
    g.prefetch_into(&mut s[1], NodeId(1), [local[1]], &c[1]);
    g.add_ref(sink, local[2]);
    g.set_refs(sink, vec![local[3]]);
    assert_eq!(g.relocate_homes([(local[4], NodeId(1))], &c[0]).0, 1);
    for &obj in &local {
        assert!(!private_hit(&g, &s[0], obj), "{obj} is shared now");
        assert!(!g.is_local_to(obj, ThreadId(0)));
    }
    // A trap on a home entry two threads hold is as visible as any hit on it.
    s[0].arm_traps([local[0]]);
    assert!(!private_hit(&g, &s[0], local[0]));
    // Thread 1's cache copy of it is private the way cache copies always
    // were, trap armed or not — until an acquired notice makes it stale.
    assert!(private_hit(&g, &s[1], local[0]));
    s[1].arm_traps([local[0]]);
    assert!(private_hit(&g, &s[1], local[0]));
    g.write(&mut s[0], NodeId(0), local[0], &c[0], |d| d[0] = 3.0);
    g.flush_thread(&mut s[0], NodeId(0), &c[0]);
    g.apply_notices(&mut s[1], NodeId(1), &c[1]);
    assert!(!private_hit(&g, &s[1], local[0]), "armed, but stale: a fetch");

    // Arriving first from another node claims too, and the home-node thread,
    // arriving second, shares: its home hits are visible from the start.
    assert!(g.is_local_to(remote, ThreadId(0)));
    g.write(&mut s[1], NodeId(1), remote, &c[1], |d| d[0] = 2.0);
    assert!(!g.is_local_to(remote, ThreadId(0)) && !g.is_local_to(remote, ThreadId(1)));
    assert!(!private_hit(&g, &s[1], remote));
}

#[test]
fn locality_is_consulted_for_home_entries_only() {
    let (g, c, mut s) = gos(2);
    let class = g.classes().register_scalar("X", 1);
    let cached = g.alloc_scalar(NodeId(0), class, &c[0], None).id;
    let stale = g.alloc_scalar(NodeId(0), class, &c[0], None).id;
    let home = g.alloc_scalar(NodeId(1), class, &c[0], None).id;
    let absent = g.alloc_scalar(NodeId(1), class, &c[0], None).id;
    for obj in [cached, stale, home] {
        g.read(&mut s[1], NodeId(1), obj, &c[1], |_| {});
    }
    g.write(&mut s[0], NodeId(0), stale, &c[0], |d| d[0] = 1.0);
    g.flush_thread(&mut s[0], NodeId(0), &c[0]);
    g.apply_notices(&mut s[1], NodeId(1), &c[1]);
    // Cache copies, faults and first touches are classified from the arena
    // alone, armed or not; a home entry, armed or not, by who holds the object.
    let never = || -> bool { panic!("the ownership lookup must not run here") };
    for armed in [false, true] {
        if armed {
            s[1].arm_traps([cached, stale, home]);
        }
        assert!(s[1].is_private_hit(cached, never));
        assert!(!s[1].is_private_hit(stale, never));
        assert!(!s[1].is_private_hit(absent, never));
        assert!(s[1].is_private_hit(home, || true));
        assert!(!s[1].is_private_hit(home, || false));
    }
}

#[test]
fn connectivity_prefetch_shares_what_it_installs() {
    // An edge written behind the GOS's back (`ObjectCore::add_ref` publishes
    // nothing) still cannot leak a private payload: the prefetching thread's
    // arena gains an entry, and that revokes the ownership.
    let g = Gos::new(GosConfig {
        n_nodes: 2,
        n_threads: 2,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 1,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    let board = ClockBoard::new(2);
    let c0 = board.handle(ThreadId(0));
    let c1 = board.handle(ThreadId(1));
    let mut s0 = ThreadSpace::new(ThreadId(0));
    let mut s1 = ThreadSpace::new(ThreadId(1));
    let class = g.classes().register_scalar("Node", 1);
    let head = g.alloc_scalar(NodeId(0), class, &c0, None);
    let tail = g.alloc_scalar(NodeId(0), class, &c0, None);
    g.write(&mut s0, NodeId(0), tail.id, &c0, |d| d[0] = 1.0);
    head.add_ref(tail.id);
    assert!(g.is_local_to(tail.id, ThreadId(0)));
    g.read(&mut s1, NodeId(1), head.id, &c1, |_| {});
    assert_eq!(g.proto_counters().objects_prefetched, 1);
    assert!(!g.is_local_to(tail.id, ThreadId(0)));
}

#[test]
#[should_panic(expected = "zero-length")]
fn zero_length_arrays_are_rejected() {
    let (g, c, _s) = gos(1);
    let class = g.classes().register_array("double[]", 1);
    let _ = g.alloc_array(NodeId(0), class, 0, &c[0], None);
}

#[test]
#[should_panic(expected = "use alloc_array")]
fn scalar_alloc_of_array_class_is_rejected() {
    let (g, c, _s) = gos(1);
    let class = g.classes().register_array("double[]", 1);
    let _ = g.alloc_scalar(NodeId(0), class, &c[0], None);
}

#[test]
#[should_panic(expected = "use alloc_scalar")]
fn array_alloc_of_scalar_class_is_rejected() {
    let (g, c, _s) = gos(1);
    let class = g.classes().register_scalar("X", 1);
    let _ = g.alloc_array(NodeId(0), class, 4, &c[0], None);
}

#[test]
fn lock_managers_are_distributed_round_robin() {
    let (mut g, c, mut s) = gos(3);
    let sink = JournalSink::shared();
    g.set_trace_sink(sink.clone());
    // Locks 0,1,2,3 → managers 0,1,2,0. Verify via traffic: acquiring lock 1 from
    // node 0 produces a round trip to node 1.
    let _l0 = g.register_lock();
    let l1 = g.register_lock();
    g.lock_acquire(&mut s[0], l1, NodeId(0), &c[0]);
    g.lock_release(&mut s[0], l1, NodeId(0), &c[0]);
    let sent: Vec<(u16, u16, String)> = sink
        .sorted_events()
        .into_iter()
        .filter_map(|e| match e.kind {
            EventKind::MessageSent { from, to, class, .. } => Some((from, to, class)),
            _ => None,
        })
        .collect();
    let to_manager = |class: &str| (0, 1, class.to_string());
    assert_eq!(
        sent,
        [to_manager("lock-acquire"), to_manager("lock-release")],
        "acquire (with its grant) + release, all between node 0 and lock 1's manager"
    );
    assert_eq!(g.net_stats().class(MsgClass::LockGrant).messages, 1, "grant");
}

#[test]
fn init_payload_length_is_checked() {
    let (g, c, _s) = gos(1);
    let class = g.classes().register_scalar("X", 2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        g.alloc_scalar(NodeId(0), class, &c[0], Some(&[1.0])) // needs 2 words
    }));
    assert!(result.is_err(), "mismatched init must panic");
}
