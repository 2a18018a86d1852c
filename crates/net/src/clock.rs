//! Deterministic simulated time.
//!
//! Each application thread owns a [`ClockHandle`] — a monotonically increasing count of
//! simulated nanoseconds covering its CPU work (access checks, fault service, diffing,
//! profiling) and the network costs it waits on. Clocks of different threads are
//! reconciled only at synchronization points: a barrier sets every participant to the
//! maximum (plus the barrier's own cost), a lock hand-off transfers the holder's time
//! to the acquirer if the acquirer was "earlier". The maximum clock over all threads at
//! the end of a run is the simulated execution time reported in Tables II, III and V.
//!
//! All clocks live in one [`ClockBoard`] so any task can *read* any thread's clock
//! (the master's mid-run cost fraction does). Each cell has one writer: the task that
//! owns it, under the executor or free-threaded (DESIGN.md §13). So
//! [`ClockBoard::advance`] is a plain load and a releasing store — no atomic
//! read-modify-write on the per-access path — and only [`ClockBoard::raise_to`],
//! which runs on the lock and barrier path, keeps its compare-and-swap loop
//! (*Rust Atomics and Locks* ch. 2 on fetch-update loops).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::ids::ThreadId;

/// Simulated nanoseconds.
pub type SimNanos = u64;

/// Shared registry of per-thread simulated clocks.
#[derive(Debug)]
pub struct ClockBoard {
    clocks: Vec<AtomicU64>,
}

impl ClockBoard {
    /// Create a board for `n_threads` clocks, all starting at zero.
    pub fn new(n_threads: usize) -> Arc<Self> {
        Arc::new(ClockBoard {
            clocks: (0..n_threads).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Number of registered clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True if the board has no clocks.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Obtain the handle for one thread's clock.
    pub fn handle(self: &Arc<Self>, thread: ThreadId) -> ClockHandle {
        assert!(
            thread.index() < self.clocks.len(),
            "thread {thread} has no clock (board size {})",
            self.clocks.len()
        );
        ClockHandle {
            board: Arc::clone(self),
            thread,
        }
    }

    /// Read one thread's current simulated time.
    #[inline]
    pub fn read(&self, thread: ThreadId) -> SimNanos {
        self.clocks[thread.index()].load(Ordering::Acquire)
    }

    /// Advance one thread's clock by `delta` nanoseconds, returning the new value.
    /// Only the cell's owner may call this: the load and the store are two steps,
    /// so a second concurrent writer would lose updates (module docs).
    #[inline]
    pub fn advance(&self, thread: ThreadId, delta: SimNanos) -> SimNanos {
        let cell = &self.clocks[thread.index()];
        let now = cell.load(Ordering::Relaxed) + delta;
        cell.store(now, Ordering::Release);
        now
    }

    /// Raise one thread's clock to at least `floor` (monotonic max), returning the
    /// resulting value. Used when a thread leaves a barrier or inherits a lock's
    /// release timestamp.
    pub fn raise_to(&self, thread: ThreadId, floor: SimNanos) -> SimNanos {
        let cell = &self.clocks[thread.index()];
        let mut cur = cell.load(Ordering::Acquire);
        while cur < floor {
            match cell.compare_exchange_weak(cur, floor, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return floor,
                Err(actual) => cur = actual,
            }
        }
        cur
    }

    /// Reset every clock to zero (between benchmark repetitions).
    pub fn reset(&self) {
        for c in &self.clocks {
            c.store(0, Ordering::Release);
        }
    }
}

/// A cheap, cloneable handle advancing one specific thread's simulated clock.
#[derive(Debug, Clone)]
pub struct ClockHandle {
    board: Arc<ClockBoard>,
    thread: ThreadId,
}

impl ClockHandle {
    /// The thread this handle belongs to.
    #[inline]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The shared board (for synchronization-point reconciliation).
    #[inline]
    pub fn board(&self) -> &Arc<ClockBoard> {
        &self.board
    }

    /// Current simulated time of this thread.
    #[inline]
    pub fn now(&self) -> SimNanos {
        self.board.read(self.thread)
    }

    /// Spend `delta` simulated nanoseconds of CPU or network time.
    #[inline]
    pub fn spend(&self, delta: SimNanos) -> SimNanos {
        self.board.advance(self.thread, delta)
    }

    /// Raise this thread's clock to at least `floor`.
    #[inline]
    pub fn raise_to(&self, floor: SimNanos) -> SimNanos {
        self.board.raise_to(self.thread, floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_and_read() {
        let board = ClockBoard::new(2);
        let h0 = board.handle(ThreadId(0));
        assert_eq!(h0.now(), 0);
        assert_eq!(h0.spend(100), 100);
        assert_eq!(h0.spend(50), 150);
        assert_eq!(board.read(ThreadId(0)), 150);
        assert_eq!(board.read(ThreadId(1)), 0);
    }

    #[test]
    fn raise_to_is_monotonic_max() {
        let board = ClockBoard::new(1);
        let h = board.handle(ThreadId(0));
        h.spend(500);
        assert_eq!(h.raise_to(300), 500, "never lowers");
        assert_eq!(h.raise_to(900), 900);
        assert_eq!(h.now(), 900);
    }

    #[test]
    fn reset_zeroes_every_clock() {
        let board = ClockBoard::new(3);
        board.advance(ThreadId(0), 10);
        board.advance(ThreadId(1), 99);
        board.advance(ThreadId(2), 7);
        assert_eq!(board.read(ThreadId(1)), 99);
        board.reset();
        assert!((0..3).all(|t| board.read(ThreadId(t)) == 0));
    }

    #[test]
    fn owners_advancing_their_own_cells_concurrently_lose_nothing() {
        const THREADS: u32 = 8;
        const STEPS: u64 = 10_000;
        let board = ClockBoard::new(THREADS as usize);
        let owners: Vec<_> = (0..THREADS)
            .map(|t| {
                let clock = board.handle(ThreadId(t));
                std::thread::spawn(move || {
                    for _ in 0..STEPS {
                        clock.spend(u64::from(t) + 1);
                    }
                })
            })
            .collect();
        for owner in owners {
            owner.join().unwrap();
        }
        for t in 0..THREADS {
            assert_eq!(board.read(ThreadId(t)), STEPS * (u64::from(t) + 1), "thread {t}");
        }
    }

    #[test]
    fn concurrent_raise_to_converges_to_max() {
        let board = ClockBoard::new(1);
        let mut handles = Vec::new();
        for i in 0..8u64 {
            let b = Arc::clone(&board);
            handles.push(std::thread::spawn(move || {
                for j in 0..1000u64 {
                    b.raise_to(ThreadId(0), i * 1000 + j);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(board.read(ThreadId(0)), 7999);
    }

    #[test]
    #[should_panic(expected = "has no clock")]
    fn handle_out_of_range_panics() {
        let board = ClockBoard::new(1);
        let _ = board.handle(ThreadId(5));
    }
}
