//! Scope-consistency (ScC) mode tests: per-lock notice histories.

mod common;

use std::sync::Arc;

use common::run_tasks;
use jessy_gos::protocol::ConsistencyModel;
use jessy_gos::{CostModel, Gos, GosConfig, ThreadSpace};
use jessy_net::{ClockBoard, ClockHandle, DetExecutor, LatencyModel, NodeId, ThreadId};

fn gos(n: usize, consistency: ConsistencyModel) -> (Gos, Vec<ClockHandle>, Vec<ThreadSpace>) {
    let g = Gos::new(GosConfig {
        n_nodes: n,
        n_threads: n,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency,
        faults: None,
    });
    let board = ClockBoard::new(n);
    let clocks = (0..n).map(|i| board.handle(ThreadId(i as u32))).collect();
    let spaces = (0..n).map(|i| ThreadSpace::new(ThreadId(i as u32))).collect();
    (g, clocks, spaces)
}

#[test]
fn scoped_acquire_sees_only_its_locks_writes() {
    let (g, c, mut s) = gos(3, ConsistencyModel::Scoped);
    let class = g.classes().register_scalar("X", 1);
    let a = g.alloc_scalar(NodeId(0), class, &c[0], None);
    let b = g.alloc_scalar(NodeId(0), class, &c[0], None);
    let lock_a = g.register_lock();
    let lock_b = g.register_lock();

    // Thread 2 caches both objects.
    g.read(&mut s[2], NodeId(2), a.id, &c[2], |_| {});
    g.read(&mut s[2], NodeId(2), b.id, &c[2], |_| {});

    // Thread 1 writes `a` under lock A and `b` under lock B.
    g.lock_acquire(&mut s[1], lock_a, NodeId(1), &c[1]);
    g.write(&mut s[1], NodeId(1), a.id, &c[1], |d| d[0] = 1.0);
    g.lock_release(&mut s[1], lock_a, NodeId(1), &c[1]);
    g.lock_acquire(&mut s[1], lock_b, NodeId(1), &c[1]);
    g.write(&mut s[1], NodeId(1), b.id, &c[1], |d| d[0] = 2.0);
    g.lock_release(&mut s[1], lock_b, NodeId(1), &c[1]);

    // Thread 2 acquires only lock A: sees a's update, b's cache stays (legally) stale.
    let applied = g.lock_acquire(&mut s[2], lock_a, NodeId(2), &c[2]);
    assert_eq!(applied, 1, "only lock A's notice applies");
    g.lock_release(&mut s[2], lock_a, NodeId(2), &c[2]);
    let (va, out_a) = g.read(&mut s[2], NodeId(2), a.id, &c[2], |d| d[0]);
    assert_eq!(va, 1.0);
    assert!(out_a.real_fault, "a was invalidated by lock A's scope");
    let (vb, out_b) = g.read(&mut s[2], NodeId(2), b.id, &c[2], |d| d[0]);
    assert_eq!(vb, 0.0, "b's write is outside the acquired scope");
    assert!(!out_b.faulted());

    // Acquiring lock B then delivers b.
    g.lock_acquire(&mut s[2], lock_b, NodeId(2), &c[2]);
    g.lock_release(&mut s[2], lock_b, NodeId(2), &c[2]);
    let (vb, _) = g.read(&mut s[2], NodeId(2), b.id, &c[2], |d| d[0]);
    assert_eq!(vb, 2.0);
}

#[test]
fn global_mode_applies_everything_on_any_acquire() {
    // The same scenario under GlobalHlrc: acquiring lock A invalidates BOTH caches.
    let (g, c, mut s) = gos(3, ConsistencyModel::GlobalHlrc);
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
fn scoped_barriers_remain_global() {
    let (mut g, c, mut spaces) = gos(2, ConsistencyModel::Scoped);
    let exec = DetExecutor::new(2, 0, 0);
    g.set_executor(Arc::clone(&exec));
    let class = g.classes().register_scalar("X", 1);
    let obj = g.alloc_scalar(NodeId(0), class, &c[0], None);
    g.read(&mut spaces[1], NodeId(1), obj.id, &c[1], |_| {});

    // A write outside any lock, flushed by a barrier, must still reach everyone.
    g.write(&mut spaces[0], NodeId(0), obj.id, &c[0], |d| d[0] = 7.0);
    let bodies: Vec<_> = spaces
        .iter_mut()
        .zip(&c)
        .enumerate()
        .map(|(t, (space, clock))| {
            let g = &g;
            move || {
                g.barrier_wait(space, NodeId(t as u16), 2, clock);
            }
        })
        .collect();
    run_tasks(&exec, bodies);
    let (v, out) = g.read(&mut spaces[1], NodeId(1), obj.id, &c[1], |d| d[0]);
    assert_eq!(v, 7.0);
    assert!(out.real_fault, "barrier notices are global even in scoped mode");
}

#[test]
fn scoped_mode_applies_fewer_notices_under_disjoint_locks() {
    // N workers each with a private lock and object: under ScC nobody ever applies a
    // foreign notice; under global HLRC every acquire drags in everyone's history.
    let run = |consistency| {
        let (g, c, mut s) = gos(4, consistency);
        let class = g.classes().register_scalar("X", 1);
        let objs: Vec<_> = (0..4)
            .map(|i| g.alloc_scalar(NodeId(i as u16), class, &c[0], None).id)
            .collect();
        let locks: Vec<_> = (0..4).map(|_| g.register_lock()).collect();
        // Warm caches: everyone reads everything once.
        for (t, clock) in c.iter().enumerate() {
            for &o in &objs {
                g.read(&mut s[t], NodeId(t as u16), o, clock, |_| {});
            }
        }
        for round in 0..5 {
            let _ = round;
            for t in 0..4usize {
                let node = NodeId(t as u16);
                g.lock_acquire(&mut s[t], locks[t], node, &c[t]);
                g.write(&mut s[t], node, objs[t], &c[t], |d| d[0] += 1.0);
                g.lock_release(&mut s[t], locks[t], node, &c[t]);
            }
        }
        g.proto_counters().notices_applied
    };
    let scoped = run(ConsistencyModel::Scoped);
    let global = run(ConsistencyModel::GlobalHlrc);
    // Under ScC each thread only ever processes its own lock's history (its own
    // notice from the previous round: 4 threads × 4 re-acquisitions). Under the
    // global history every acquire drags in everyone's pending notices.
    assert_eq!(scoped, 16, "own-lock notices only: got {scoped}");
    assert!(
        global > 2 * scoped,
        "global history processes foreign notices too: {global} vs {scoped}"
    );
}
