//! Concurrency stress tests for the protocol engine, all run as the tasks of a
//! seeded, jittered executor: tasks hammering shared objects through locks and
//! barriers, checking coherence and clock sanity; and tasks interleaving
//! allocation, first touch, prefetch and resampling one operation at a time,
//! which never block.
//!
//! Each thread owns its logical thread's `ThreadSpace` outright — the
//! single-writer discipline the runtime enforces via `ClusterShared::spaces`.

mod common;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

use common::run_tasks;
use jessy_gos::{CostModel, Gos, GosConfig, ObjectCore, ObjectId, ThreadSpace};
use jessy_net::{ClockBoard, DetExecutor, LatencyModel, NodeId, ThreadId};

/// Scheduling-key jitter of the tasked clusters: under the free cost model every
/// clock stays at 0, so without it task 0 would keep the token.
const JITTER_NS: u64 = 1_000;

/// CI runs this suite under a small seed matrix (`JESSY_CHAOS_SEED`), each seed a
/// different interleaving of the tasks; every assertion must hold for any seed.
fn chaos_seed() -> u64 {
    std::env::var("JESSY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn gos(n_nodes: usize, n_threads: usize) -> Gos {
    Gos::new(GosConfig {
        n_nodes,
        n_threads,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    })
}

/// A cluster whose threads run as the tasks of a seeded, jittered executor.
fn tasked_cluster(n_nodes: usize, n_threads: usize) -> (Gos, Arc<ClockBoard>, Arc<DetExecutor>) {
    let exec = DetExecutor::new(n_threads, chaos_seed(), JITTER_NS);
    let mut g = gos(n_nodes, n_threads);
    g.set_executor(Arc::clone(&exec));
    (g, ClockBoard::new(n_threads), exec)
}

#[test]
fn lock_protected_counter_is_exact_across_nodes() {
    let (g, board, exec) = tasked_cluster(4, 8);
    let class = g.classes().register_scalar("Counter", 1);
    let init_clock = board.handle(ThreadId(0));
    let obj = g.alloc_scalar(NodeId(0), class, &init_clock, None).id;
    let lock = g.register_lock();

    const PER_THREAD: usize = 200;
    let bodies: Vec<_> = (0..8u32)
        .map(|t| {
            let (g, exec) = (&g, &*exec);
            let clock = board.handle(ThreadId(t));
            move || {
                let node = NodeId((t % 4) as u16);
                let mut space = ThreadSpace::new(ThreadId(t));
                for _ in 0..PER_THREAD {
                    g.lock_acquire(&mut space, lock, node, &clock);
                    g.write(&mut space, node, obj, &clock, |d| d[0] += 1.0);
                    exec.yield_now(t as usize, clock.now());
                    g.lock_release(&mut space, lock, node, &clock);
                }
            }
        })
        .collect();
    run_tasks(&exec, bodies);
    // Reader must observe every increment after a final acquire.
    let clock = board.handle(ThreadId(0));
    let mut space = ThreadSpace::new(ThreadId(0));
    g.lock_acquire(&mut space, lock, NodeId(1), &clock);
    let (v, _) = g.read(&mut space, NodeId(1), obj, &clock, |d| d[0]);
    g.lock_release(&mut space, lock, NodeId(1), &clock);
    assert_eq!(v, (8 * PER_THREAD) as f64, "increments lost under contention");
}

#[test]
fn barrier_phased_writers_never_lose_updates() {
    // Classic ping-pong: each phase, every thread adds its id to the next thread's
    // object. After R phases, object sums are exact.
    const THREADS: usize = 6;
    const ROUNDS: usize = 50;
    let (g, board, exec) = tasked_cluster(3, THREADS);
    let class = g.classes().register_scalar("Slot", 1);
    let init_clock = board.handle(ThreadId(0));
    let objs: Vec<_> = (0..THREADS)
        .map(|i| {
            g.alloc_scalar(NodeId((i % 3) as u16), class, &init_clock, None)
                .id
        })
        .collect();

    let bodies: Vec<_> = (0..THREADS)
        .map(|t| {
            let (g, exec, objs) = (&g, &*exec, &objs);
            let clock = board.handle(ThreadId(t as u32));
            move || {
                let node = NodeId((t % 3) as u16);
                let mut space = ThreadSpace::new(ThreadId(t as u32));
                for round in 0..ROUNDS {
                    // Each object has exactly one writer per phase.
                    let target = objs[(t + round) % THREADS];
                    g.write(&mut space, node, target, &clock, |d| d[0] += (t + 1) as f64);
                    exec.yield_now(t, clock.now());
                    g.barrier_wait(&mut space, node, THREADS, &clock);
                }
            }
        })
        .collect();
    run_tasks(&exec, bodies);
    // Every object was written once per phase by a rotating writer: the total across
    // objects is ROUNDS * sum(t+1).
    let total: f64 = objs
        .iter()
        .map(|&o| g.object(o).snapshot_home()[0])
        .sum();
    assert_eq!(total, (ROUNDS * (1 + 2 + 3 + 4 + 5 + 6)) as f64);
}

#[test]
fn clocks_are_monotone_through_sync_storms() {
    let (g, board, exec) = tasked_cluster(2, 4);
    let class = g.classes().register_scalar("X", 1);
    let init_clock = board.handle(ThreadId(0));
    let obj = g.alloc_scalar(NodeId(0), class, &init_clock, None).id;
    let lock = g.register_lock();

    let bodies: Vec<_> = (0..4u32)
        .map(|t| {
            let (g, exec) = (&g, &*exec);
            let clock = board.handle(ThreadId(t));
            move || {
                let node = NodeId((t % 2) as u16);
                let mut space = ThreadSpace::new(ThreadId(t));
                let mut last = 0u64;
                for i in 0..100 {
                    if i % 3 == 0 {
                        g.lock_acquire(&mut space, lock, node, &clock);
                        g.write(&mut space, node, obj, &clock, |d| d[0] += 1.0);
                        exec.yield_now(t as usize, clock.now());
                        g.lock_release(&mut space, lock, node, &clock);
                    } else {
                        g.read(&mut space, node, obj, &clock, |_| {});
                        exec.yield_now(t as usize, clock.now());
                    }
                    clock.spend(10);
                    g.barrier_wait(&mut space, node, 4, &clock);
                    let now = clock.now();
                    assert!(now >= last, "clock went backwards: {now} < {last}");
                    last = now;
                }
                last
            }
        })
        .collect();
    let finals: Vec<u64> = run_tasks(&exec, bodies);
    // All clocks equal after the final barrier.
    assert!(finals.windows(2).all(|w| w[0] == w[1]), "{finals:?}");
}

#[test]
fn resampling_walk_interleaves_with_access_safely() {
    // One task flips sampled tags over the whole class, object by object, while
    // the others access, each operation a scheduling point: no panics, and the
    // final tags match the last decision.
    let (g, board, exec) = tasked_cluster(2, 4);
    let class = g.classes().register_scalar("X", 1);
    let init_clock = board.handle(ThreadId(0));
    let objs: Vec<_> = (0..500)
        .map(|i| {
            g.alloc_scalar(NodeId((i % 2) as u16), class, &init_clock, None)
                .id
        })
        .collect();

    let bodies: Vec<_> = (0..4u32)
        .map(|t| {
            let (g, exec, objs) = (&g, &*exec, &objs);
            let clock = board.handle(ThreadId(t));
            move || {
                if t == 0 {
                    for round in 0..50 {
                        g.for_each_object_of_class(class, |core| {
                            core.set_sampled(round % 2 == 0);
                            exec.yield_now(0, clock.now());
                        });
                    }
                    return;
                }
                let mut space = ThreadSpace::new(ThreadId(t));
                for &o in objs {
                    g.read(&mut space, NodeId((t % 2) as u16), o, &clock, |_| {});
                    exec.yield_now(t as usize, clock.now());
                }
            }
        })
        .collect();
    run_tasks(&exec, bodies);
    assert!(exec.handoffs() > 4, "the flipper and the readers interleave");
    // Last flip round was 49 (odd) → everything unsampled.
    let mut sampled = 0;
    g.for_each_object_of_class(class, |core| {
        if core.is_sampled() {
            sampled += 1;
        }
    });
    assert_eq!(sampled, 0);
}

#[test]
fn interleaved_prefetch_and_invalidation() {
    let (g, board, exec) = tasked_cluster(2, 2);
    let class = g.classes().register_scalar("X", 2);
    let c0 = board.handle(ThreadId(0));
    let c1 = board.handle(ThreadId(1));
    let objs: Vec<_> = (0..50)
        .map(|_| g.alloc_scalar(NodeId(0), class, &c0, None).id)
        .collect();

    // Task 1 prefetches everything to node 1, object by object, while task 0
    // writes each and flushes. Afterwards, applying notices and re-reading
    // yields the latest values.
    let bodies: Vec<_> = (0..2u32)
        .map(|t| {
            let (g, exec, objs) = (&g, &*exec, &objs);
            let (c0, c1) = (&c0, &c1);
            move || {
                let mut space = ThreadSpace::new(ThreadId(t));
                for &o in objs {
                    if t == 0 {
                        g.write(&mut space, NodeId(0), o, c0, |d| d[0] = 7.0);
                    } else {
                        g.prefetch_into(&mut space, NodeId(1), [o], c1);
                    }
                    exec.yield_now(t as usize, 0);
                }
                if t == 0 {
                    g.flush_thread(&mut space, NodeId(0), c0);
                }
                space
            }
        })
        .collect();
    let mut s1 = run_tasks(&exec, bodies).pop().expect("task 1's space");
    assert!(exec.handoffs() > 2, "the writer and the prefetcher interleave");
    g.apply_notices(&mut s1, NodeId(1), &c1);
    for &o in &objs {
        let (v, _) = g.read(&mut s1, NodeId(1), o, &c1, |d| d[0]);
        assert_eq!(v, 7.0, "stale value survived prefetch/invalidate race on {o}");
    }
}

#[test]
fn interleaved_allocation_and_lookup_share_one_append_only_table() {
    // Eight tasks allocate and look up, a scheduling point after each
    // allocation, across several chunk boundaries of the object table.
    const THREADS: u32 = 8;
    const PER_THREAD: usize = 600;
    let (g, board, exec) = tasked_cluster(2, THREADS as usize);
    let class = g.classes().register_scalar("X", 1);
    // The id some task allocated last: a second route, besides the
    // allocator's return value, by which an id reaches a reader.
    let latest = Cell::new(u32::MAX);

    let bodies: Vec<_> = (0..THREADS)
        .map(|t| {
            let (g, exec, latest) = (&g, &*exec, &latest);
            let clock = board.handle(ThreadId(t));
            move || {
                let mut mine = Vec::with_capacity(PER_THREAD);
                for _ in 0..PER_THREAD {
                    let core = g.alloc_scalar(NodeId((t % 2) as u16), class, &clock, None);
                    // The returned id resolves at once, to the same object.
                    assert!(Rc::ptr_eq(&core, g.object_ref(core.id)));
                    assert!(Rc::ptr_eq(&core, &g.object(core.id)));
                    let seen = latest.replace(core.id.0);
                    if seen != u32::MAX {
                        assert_eq!(g.object_ref(ObjectId(seen)).id, ObjectId(seen));
                        assert!(g.n_objects() > seen as usize);
                    }
                    mine.push(core);
                    exec.yield_now(t as usize, clock.now());
                }
                mine
            }
        })
        .collect();
    let mut all: Vec<Rc<ObjectCore>> = run_tasks(&exec, bodies).into_iter().flatten().collect();
    assert!(exec.handoffs() > u64::from(THREADS), "the allocators interleave");

    let total = THREADS as usize * PER_THREAD;
    assert_eq!(g.n_objects(), total);
    all.sort_by_key(|c| c.id);
    let ids: Vec<u32> = all.iter().map(|c| c.id.0).collect();
    assert_eq!(ids, (0..total as u32).collect::<Vec<_>>(), "ids are dense and unique");
    let mut visited = 0;
    g.for_each_object(|core| {
        assert!(Rc::ptr_eq(core, &all[visited]), "in id order, each exactly once");
        visited += 1;
    });
    assert_eq!(visited, total);
    for past_the_end in [total as u32, u32::MAX] {
        let lookup = std::panic::AssertUnwindSafe(|| g.object_ref(ObjectId(past_the_end)).id);
        assert!(std::panic::catch_unwind(lookup).is_err(), "o{past_the_end} must not resolve");
    }
}

#[test]
fn interleaved_first_touches_never_leave_an_object_with_two_owners() {
    // Eight tasks first-touch the same 224 set-up objects, each starting at a
    // different one, a scheduling point after each touch, plus 32 objects only
    // one of them ever touches.
    const THREADS: u32 = 8;
    const CONTENDED: usize = 224;
    const TOTAL: usize = 256;
    let (g, board, exec) = tasked_cluster(2, THREADS as usize);
    let class = g.classes().register_scalar("X", 1);
    let c0 = board.handle(ThreadId(0));
    let objs: Vec<ObjectId> = (0..TOTAL)
        .map(|i| g.alloc_scalar(NodeId((i % 2) as u16), class, &c0, None).id)
        .collect();
    // Per object: how many threads saw themselves as its owner after arriving.
    let claims: Vec<Cell<u32>> = (0..TOTAL).map(|_| Cell::new(0)).collect();

    let bodies: Vec<_> = (0..THREADS)
        .map(|t| {
            let (g, exec, objs, claims) = (&g, &*exec, &objs, &claims);
            let clock = board.handle(ThreadId(t));
            move || {
                let node = NodeId((t % 2) as u16);
                let mut space = ThreadSpace::new(ThreadId(t));
                let contended = (0..CONTENDED).map(|k| (k + t as usize * 28) % CONTENDED);
                let sole = (CONTENDED..TOTAL).filter(|i| i % THREADS as usize == t as usize);
                for i in contended.chain(sole) {
                    g.read(&mut space, node, objs[i], &clock, |_| {});
                    if g.is_local_to(objs[i], ThreadId(t)) {
                        claims[i].set(claims[i].get() + 1);
                    }
                    exec.yield_now(t as usize, clock.now());
                }
            }
        })
        .collect();
    run_tasks(&exec, bodies);
    assert!(exec.handoffs() > u64::from(THREADS), "the first touches interleave");

    for (i, &obj) in objs.iter().enumerate() {
        let owners: Vec<u32> = (0..THREADS).filter(|&t| g.is_local_to(obj, ThreadId(t))).collect();
        let claimed = claims[i].get();
        assert!(claimed <= 1, "{obj}: {claimed} threads believed they owned it");
        if i < CONTENDED {
            assert!(owners.is_empty(), "{obj}: all eight arrived, still local to {owners:?}");
        } else {
            assert_eq!(owners, [(i % THREADS as usize) as u32], "{obj}: one thread arrived");
            assert_eq!(claimed, 1);
        }
    }
}
