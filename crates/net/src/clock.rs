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
//! All clocks live in one [`ClockBoard`] so any thread can read/advance any other
//! thread's clock at a synchronization point; entries are `AtomicU64` with
//! monotonic-max updates (see *Rust Atomics and Locks* ch. 2 on fetch-update loops).

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
    #[inline]
    pub fn advance(&self, thread: ThreadId, delta: SimNanos) -> SimNanos {
        self.clocks[thread.index()].fetch_add(delta, Ordering::AcqRel) + delta
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

    /// Maximum simulated time over all threads — the run's "execution time".
    pub fn global_max(&self) -> SimNanos {
        (0..self.clocks.len())
            .map(|i| self.clocks[i].load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
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
    fn global_max_reads_the_latest_clock() {
        let board = ClockBoard::new(3);
        board.advance(ThreadId(0), 10);
        board.advance(ThreadId(1), 99);
        board.advance(ThreadId(2), 7);
        assert_eq!(board.global_max(), 99);
        board.reset();
        assert_eq!(board.global_max(), 0);
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
