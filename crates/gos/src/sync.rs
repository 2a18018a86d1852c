//! Synchronization: write notices, distributed locks and the global barrier.
//!
//! HLRC propagates modifications lazily: diffs are flushed at *release*, and **write
//! notices** tell other nodes at *acquire* which cached objects went stale. We keep a
//! single global notice log with a per-thread cursor — a lock acquire or barrier exit
//! applies every notice that thread has not yet seen, and a post drops the prefix
//! every thread has seen. This is conservative (it may invalidate more than a
//! vector-timestamped HLRC would) but preserves coherence for properly synchronized
//! programs and keeps the at-most-once fault property the profiler exploits.
//!
//! A blocked participant registers as a waiter and hands the scheduling token back
//! via [`DetExecutor::block_internal`]; the releasing side unblocks every waiter and
//! the scheduler picks the next holder deterministically. Only a running executor
//! task may block; a caller that never has to wait (an uncontended acquire, the
//! last arrival at a barrier) needs no task. Because at most one task runs at a
//! time, the register-then-block sequence cannot race a release, so the
//! loop-recheck pattern is lost-wakeup-free by construction.
//!
//! *Simulated* time is reconciled alongside: a barrier releases everyone at the
//! latest participant's clock plus the barrier cost, and a lock hand-off floors the
//! acquirer's clock at the previous holder's release time.

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jessy_net::{DetExecutor, SimNanos};

use crate::object::ObjectId;

/// Wire size of one write notice (object id + version).
pub const NOTICE_BYTES: usize = 12;

/// "Object `obj` reached home version `version`" — invalidate older caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteNotice {
    /// The modified object.
    pub obj: ObjectId,
    /// The home version after the diff was applied.
    pub version: u64,
}

/// Global notice log with per-thread read cursors. Cursors count every notice
/// ever posted; the log keeps only the suffix some cursor has not yet passed.
#[derive(Debug)]
pub struct NoticeBoard {
    /// The notices from number `.0` on (the prefix every cursor passed is gone).
    log: RwLock<(usize, Vec<WriteNotice>)>,
    cursors: Vec<AtomicUsize>,
}

impl NoticeBoard {
    /// Board with `n_cursors` independent read cursors (one per thread).
    pub fn new(n_cursors: usize) -> Self {
        NoticeBoard {
            log: RwLock::new((0, Vec::new())),
            cursors: (0..n_cursors).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Append notices (at release time), first dropping the prefix every cursor
    /// has passed once it is at least half the log, so each notice is moved at
    /// most once on average. The write lock keeps every cursor still meanwhile.
    pub fn post(&self, notices: impl IntoIterator<Item = WriteNotice>) {
        let mut log = self.log.write();
        let (base, kept) = &mut *log;
        let min_cursor = self.cursors.iter().map(|c| c.load(Ordering::Acquire)).min();
        let passed = min_cursor.map_or(kept.len(), |c| c - *base);
        if 2 * passed >= kept.len() {
            kept.drain(..passed);
            *base += passed;
        }
        kept.extend(notices);
    }

    /// Take every notice cursor `who` has not yet applied, advancing its cursor.
    ///
    /// Concurrent callers for the *same* cursor must be externally serialized (they
    /// are: each cursor belongs to one thread, which takes notices on its own
    /// acquire path only).
    pub fn take_new(&self, who: usize) -> Vec<WriteNotice> {
        let log = self.log.read();
        let (base, kept) = &*log;
        let cur = self.cursors[who].load(Ordering::Acquire);
        let new = kept[cur - base..].to_vec();
        self.cursors[who].store(base + kept.len(), Ordering::Release);
        new
    }

    /// Total notices ever posted.
    pub fn len(&self) -> usize {
        let log = self.log.read();
        log.0 + log.1.len()
    }

    /// True if no notices were ever posted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Identifies a distributed lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LockId(pub u32);

impl LockId {
    /// Raw index into the lock table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

#[derive(Debug)]
struct RawLockInner {
    held: bool,
    /// Simulated time at which the previous holder released.
    last_release_sim: SimNanos,
    /// Executor tasks blocked on a contended acquire.
    waiters: Vec<usize>,
}

/// A single distributed lock: real mutual exclusion + simulated-time hand-off.
#[derive(Debug)]
pub struct RawLock {
    inner: Mutex<RawLockInner>,
}

impl RawLock {
    /// A free lock.
    pub fn new() -> Self {
        RawLock {
            inner: Mutex::new(RawLockInner {
                held: false,
                last_release_sim: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Take the lock; returns the previous holder's release time so the caller can
    /// floor its simulated clock (a later acquirer inherits the releaser's point in
    /// simulated time). A contended acquire registers `task` as a waiter and blocks
    /// it on `exec`; the next holder among the waiters is whichever the executor
    /// picks first.
    ///
    /// # Panics
    /// If the lock is contended and `task` is not `exec`'s running task.
    pub fn acquire(&self, exec: &DetExecutor, task: usize, now_sim: SimNanos) -> SimNanos {
        loop {
            let mut inner = self.inner.lock();
            if !inner.held {
                inner.held = true;
                return inner.last_release_sim;
            }
            inner.waiters.push(task);
            drop(inner);
            exec.block_internal(task, now_sim);
        }
    }

    /// Release the lock, recording the releaser's simulated time, and unblock every
    /// registered waiter (they re-contend; the executor picks the winner
    /// deterministically).
    ///
    /// # Panics
    /// If the lock is not held.
    pub fn release(&self, exec: &DetExecutor, now_sim: SimNanos) {
        let mut inner = self.inner.lock();
        assert!(inner.held, "releasing a lock that is not held");
        inner.held = false;
        inner.last_release_sim = inner.last_release_sim.max(now_sim);
        let waiters = std::mem::take(&mut inner.waiters);
        drop(inner);
        for w in waiters {
            exec.unblock(w);
        }
    }
}

impl Default for RawLock {
    fn default() -> Self {
        RawLock::new()
    }
}

/// Table of dynamically registered locks.
#[derive(Debug, Default)]
pub struct LockTable {
    locks: RwLock<Vec<Arc<RawLock>>>,
}

impl LockTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a fresh lock.
    pub fn register(&self) -> LockId {
        let mut locks = self.locks.write();
        locks.push(Arc::new(RawLock::new()));
        LockId((locks.len() - 1) as u32)
    }

    /// Fetch a lock.
    pub fn get(&self, id: LockId) -> Arc<RawLock> {
        self.locks.read()[id.index()].clone()
    }

    /// Number of registered locks.
    pub fn len(&self) -> usize {
        self.locks.read().len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Debug)]
struct BarrierInner {
    count: usize,
    generation: u64,
    /// Max simulated arrival time of the current generation.
    max_sim: SimNanos,
    /// Release time of the *previous* generation (what leavers floor to).
    release_sim: SimNanos,
    /// Executor tasks blocked in the current generation.
    waiters: Vec<usize>,
}

/// A reusable global barrier reconciling simulated clocks.
#[derive(Debug)]
pub struct SimBarrier {
    inner: Mutex<BarrierInner>,
}

impl SimBarrier {
    /// A fresh barrier.
    pub fn new() -> Self {
        SimBarrier {
            inner: Mutex::new(BarrierInner {
                count: 0,
                generation: 0,
                max_sim: 0,
                release_sim: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Wait for `parties` participants. `now_sim` is the caller's simulated arrival
    /// time; `extra_ns` is the barrier's own cost (network + bookkeeping) added once.
    /// Returns the simulated release time all participants leave at.
    ///
    /// Non-final arrivals register `task` as a waiter and block it on `exec`; the
    /// final arrival computes the release time and unblocks them all. A generation
    /// cannot be overwritten before every waiter of the previous one has read its
    /// release time, because those waiters must pass through the next `wait`
    /// themselves for the count to fill again.
    ///
    /// # Panics
    /// If `parties` is zero, or the caller is not the final arrival and `task` is
    /// not `exec`'s running task.
    pub fn wait(
        &self,
        exec: &DetExecutor,
        task: usize,
        parties: usize,
        now_sim: SimNanos,
        extra_ns: SimNanos,
    ) -> SimNanos {
        assert!(parties > 0, "barrier needs at least one party");
        let mut inner = self.inner.lock();
        inner.max_sim = inner.max_sim.max(now_sim);
        inner.count += 1;
        if inner.count == parties {
            inner.release_sim = inner.max_sim + extra_ns;
            inner.count = 0;
            inner.max_sim = 0;
            inner.generation += 1;
            let release = inner.release_sim;
            let waiters = std::mem::take(&mut inner.waiters);
            drop(inner);
            for w in waiters {
                exec.unblock(w);
            }
            release
        } else {
            let gen = inner.generation;
            loop {
                inner.waiters.push(task);
                drop(inner);
                exec.block_internal(task, now_sim);
                inner = self.inner.lock();
                if inner.generation != gen {
                    break;
                }
            }
            inner.release_sim
        }
    }
}

impl Default for SimBarrier {
    fn default() -> Self {
        SimBarrier::new()
    }
}

#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::run_tasks;
    use super::*;

    #[test]
    fn notice_board_cursors_are_independent() {
        let board = NoticeBoard::new(2);
        board.post([WriteNotice {
            obj: ObjectId(1),
            version: 1,
        }]);
        assert_eq!(board.take_new(0).len(), 1);
        board.post([WriteNotice {
            obj: ObjectId(2),
            version: 1,
        }]);
        assert_eq!(board.take_new(0).len(), 1, "only the new notice");
        assert_eq!(board.take_new(1).len(), 2, "node 1 sees both");
        assert!(board.take_new(1).is_empty());
        assert_eq!(board.len(), 2);
    }

    #[test]
    fn notice_board_drops_what_every_cursor_passed() {
        let board = NoticeBoard::new(2);
        let notice = |obj| WriteNotice { obj: ObjectId(obj), version: 1 };
        board.post([notice(1), notice(2)]);
        assert_eq!(board.take_new(0).len(), 2);
        board.post([notice(3)]);
        assert_eq!(board.log.read().1.len(), 3, "cursor 1 has passed nothing");
        assert_eq!(board.take_new(1).len(), 3);
        board.post([notice(4)]);
        assert_eq!(*board.log.read(), (2, vec![notice(3), notice(4)]));
        assert_eq!(board.take_new(0), vec![notice(3), notice(4)]);
        assert_eq!(board.take_new(1), vec![notice(4)]);
        assert_eq!(board.len(), 4, "every notice ever posted");
    }

    #[test]
    fn raw_lock_mutual_exclusion_and_sim_handoff() {
        // Uncontended: no acquire blocks, so an executor with no tasks will do.
        let exec = DetExecutor::new(0, 0, 0);
        let lock = RawLock::new();
        let prev = lock.acquire(&exec, 0, 0);
        assert_eq!(prev, 0);
        lock.release(&exec, 500);
        assert_eq!(lock.acquire(&exec, 0, 0), 500, "acquirer inherits release time");
        lock.release(&exec, 100);
        // Release times never regress even if a clock was behind.
        assert_eq!(lock.acquire(&exec, 0, 0), 500);
        lock.release(&exec, 600);
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn double_release_panics() {
        let lock = RawLock::new();
        lock.release(&DetExecutor::new(0, 0, 0), 0);
    }

    #[test]
    fn raw_lock_serializes_threads() {
        let exec = DetExecutor::new(8, 0, 0);
        let lock = RawLock::new();
        let counter = Mutex::new(0u64);
        let bodies: Vec<_> = (0..8)
            .map(|t| {
                let (exec, lock, counter) = (&*exec, &lock, &counter);
                move || {
                    for i in 0..500 {
                        lock.acquire(exec, t, i);
                        let v = *counter.lock();
                        // Hand the token on mid-section: another task slipping
                        // in would be caught by lost updates.
                        exec.yield_now(t, i);
                        *counter.lock() = v + 1;
                        lock.release(exec, i);
                    }
                }
            })
            .collect();
        run_tasks(&exec, bodies);
        assert_eq!(*counter.lock(), 8 * 500);
    }

    #[test]
    fn barrier_releases_at_max_plus_extra() {
        let exec = DetExecutor::new(4, 0, 0);
        let barrier = SimBarrier::new();
        let bodies: Vec<_> = (0..4usize)
            .map(|t| {
                let (exec, b) = (&*exec, &barrier);
                move || b.wait(exec, t, 4, t as u64 * 100, 50)
            })
            .collect();
        let releases: Vec<SimNanos> = run_tasks(&exec, bodies);
        assert!(releases.iter().all(|&r| r == 300 + 50), "{releases:?}");
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let barrier = SimBarrier::new();
        for round in 0..3u64 {
            let exec = DetExecutor::new(3, 0, 0);
            let bodies: Vec<_> = (0..3)
                .map(|t| {
                    let (exec, b) = (&*exec, &barrier);
                    move || b.wait(exec, t, 3, round * 10, 0)
                })
                .collect();
            for release in run_tasks(&exec, bodies) {
                assert_eq!(release, round * 10);
            }
        }
    }

    #[test]
    fn lock_table_registration() {
        let exec = DetExecutor::new(0, 0, 0);
        let t = LockTable::new();
        let a = t.register();
        let b = t.register();
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        t.get(a).acquire(&exec, 0, 0);
        t.get(a).release(&exec, 1);
    }
}
