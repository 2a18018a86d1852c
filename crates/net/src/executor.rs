//! Deterministic cooperative task executor with virtual time.
//!
//! Replaces free-running OS-thread execution with *single-token* cooperative
//! scheduling: every simulated entity (application threads, the master daemon)
//! is a **task** carried by a parked OS thread, and at most one task executes
//! at any instant. At each scheduling point the token goes to the runnable
//! task with the smallest `(key, priority, task)`, the key being the task's
//! virtual clock (plus an optional seeded jitter), so a given `(seed, jitter)`
//! pair fixes the entire interleaving — a run is a pure function of its
//! inputs and replays bit-identically: journal, TCM and `MasterOutput` alike.
//!
//! The executor orders whatever scheduling points its tasks pass; *which*
//! actions pass one is the caller's schedule contract (`JThread::yield_now`,
//! DESIGN.md §15: only actions another task can observe do). A scheduling
//! point at which the running task would be picked again costs one lock and
//! nothing else — no heap push/pop, no park, no wake-up — so only a pick that
//! moves the token to another carrier ([`DetExecutor::handoffs`]) pays for an
//! OS hand-off.
//!
//! A hand-off is one token store under the lock, one `unpark` after the lock
//! drops, and one park. Each task's run token is an atomic outside the state
//! lock, so a parked carrier waits for it, and reads it on waking, without the
//! lock: the woken carrier never wakes only to block on a mutex its waker
//! still holds. (Poisoning is the one path that unparks under the lock.)
//!
//! Serialization is also what closes the LRC fetch-vs-flush race (DESIGN.md
//! §14): with one task running at a time, the write-notice distribution at
//! barriers is schedule-determined, not OS-determined. And because carrier
//! threads are parked except when holding the token, cluster size is bounded
//! by address space rather than cores — 10k+ simulated threads run on one box.
//!
//! ## Task lifecycle
//!
//! ```text
//! NotStarted --register_current--> Runnable --pick--> Running
//!     Running --yield_now--> Runnable   (or stays Running: it would be picked again)
//!     Running --block_internal/block_external--> Blocked --unblock--> Runnable
//!     Running --finish--> Finished
//! ```
//!
//! Dispatch begins only after **all** `n_tasks` tasks have registered, so the
//! first pick is independent of OS spawn order. `Blocked` comes in two
//! flavors: *internal* (waiting on another task — a lock holder, barrier
//! parties) and *external* (waiting on a wakeup from outside the task set —
//! the master daemon's empty mailbox). If no task is runnable, none is
//! running, and at least one is blocked internally, the executor **poisons**
//! itself: every parked task panics with [`POISON_MSG`] (a deterministic
//! deadlock report instead of a wedge).
//!
//! ## Virtual time
//!
//! The executor holds no clock of its own: tasks report their simulated
//! nanoseconds (their `ClockBoard` cell) at every scheduling point, and the
//! scheduler orders by those reports. It has one mode, free-run: tasks drive
//! it, and nothing outside the task set steps or re-keys it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use parking_lot::{Mutex, MutexGuard};

/// Panic payload of every task killed by executor poisoning (cooperative
/// deadlock, or explicit [`DetExecutor::poison`]). Carriers classify panics by
/// comparing against this message: a cascade kill is not the root cause.
pub const POISON_MSG: &str = "deterministic executor poisoned: cooperative task deadlock";

/// Why a task is blocked (drives the deadlock-vs-idle distinction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Waiting on another task (lock holder, barrier parties). If only such
    /// tasks remain, the task set has deadlocked.
    Internal,
    /// Waiting on a wakeup from outside the task set (e.g. the master daemon
    /// parked on an empty mailbox, woken by the controlling thread).
    External,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    NotStarted,
    Runnable,
    Running,
    Blocked(Block),
    Finished,
}

/// A task's scheduling state, guarded by the executor's state lock. Its run
/// token and carrier handle live outside the lock, in its [`Carrier`].
#[derive(Debug)]
struct TaskSlot {
    state: TaskState,
    /// Last reported virtual time (simulated ns).
    clock_ns: u64,
    /// Tie class on equal scheduling keys: lower runs first (default 1; the
    /// cluster gives the master daemon 0 so it services mail promptly even when
    /// cost models keep every clock at zero).
    priority: u8,
    /// Scheduling points passed — feeds the jitter hash.
    yields: u64,
    /// A wakeup arrived while the task was not blocked; consume at next block.
    pending_wake: bool,
}

#[derive(Debug)]
struct ExecState {
    tasks: Vec<TaskSlot>,
    /// Lazy min-heap of `(key, priority, task)`. A runnable task has exactly
    /// one entry; an entry whose task is no longer runnable (it finished while
    /// queued) is skipped on pop.
    heap: BinaryHeap<Reverse<(u64, u8, usize)>>,
    registered: usize,
    running: Option<usize>,
    /// The task most recently handed the token — `handoffs` counts the
    /// dispatches that changed it.
    last_dispatched: Option<usize>,
    handoffs: u64,
    runnable: usize,
    blocked_internal: usize,
    started: bool,
}

/// The lock-free half of a task: what its parked carrier reads.
#[derive(Debug, Default)]
struct Carrier {
    /// Run token: stored (`Release`) by the dispatcher under the state lock,
    /// taken (`Acquire`) by the carrier without it, so everything the previous
    /// token holder wrote is visible to the next.
    token: AtomicBool,
    /// Carrier thread, set once by `register_current`, for unpark.
    thread: OnceLock<Thread>,
}

/// Seeded deterministic cooperative executor. See the module docs.
#[derive(Debug)]
pub struct DetExecutor {
    seed: u64,
    jitter_ns: u64,
    /// One per task, indexed like `ExecState::tasks`.
    carriers: Box<[Carrier]>,
    /// Set under the state lock (so dispatch decisions stay ordered), read
    /// anywhere.
    poisoned: AtomicBool,
    state: Mutex<ExecState>,
}

impl DetExecutor {
    /// Free-running executor over `n_tasks` tasks. `jitter_ns == 0` gives pure
    /// min-clock order (ties broken by priority, then task id); a nonzero
    /// jitter perturbs each scheduling key by
    /// `hash(seed, task, scheduling-point #) % jitter_ns`, so `seed` selects
    /// one reproducible interleaving out of many.
    pub fn new(n_tasks: usize, seed: u64, jitter_ns: u64) -> Arc<Self> {
        let tasks = (0..n_tasks)
            .map(|_| TaskSlot {
                state: TaskState::NotStarted,
                clock_ns: 0,
                priority: 1,
                yields: 0,
                pending_wake: false,
            })
            .collect();
        Arc::new(DetExecutor {
            seed,
            jitter_ns,
            carriers: (0..n_tasks).map(|_| Carrier::default()).collect(),
            poisoned: AtomicBool::new(false),
            state: Mutex::new(ExecState {
                tasks,
                heap: BinaryHeap::new(),
                registered: 0,
                running: None,
                last_dispatched: None,
                handoffs: 0,
                runnable: 0,
                blocked_internal: 0,
                started: false,
            }),
        })
    }

    /// Number of tasks this executor schedules.
    pub fn n_tasks(&self) -> usize {
        self.carriers.len()
    }

    /// Scheduling key: virtual clock plus seeded jitter. Computed when a task
    /// becomes runnable — sound because a parked task's clock cannot move.
    fn key(&self, task: usize, yields: u64, clock_ns: u64) -> u64 {
        if self.jitter_ns == 0 {
            return clock_ns;
        }
        let h = splitmix64(self.seed ^ ((task as u64) << 32) ^ yields);
        clock_ns.saturating_add(h % self.jitter_ns)
    }

    /// Set `task`'s tie class: on equal scheduling keys, lower `priority` runs
    /// first (default 1). Call before the run starts — re-keying is not applied
    /// to already-queued heap entries.
    pub fn set_priority(&self, task: usize, priority: u8) {
        let mut g = self.state.lock();
        assert!(task < g.tasks.len(), "task {task} out of range");
        g.tasks[task].priority = priority;
    }

    fn push_runnable(&self, g: &mut ExecState, task: usize) {
        let slot = &g.tasks[task];
        debug_assert_eq!(slot.state, TaskState::Runnable);
        let entry = (self.key(task, slot.yields, slot.clock_ns), slot.priority, task);
        g.heap.push(Reverse(entry));
    }

    /// Hand the token to the best runnable task, or detect deadlock. Returns
    /// the task whose token was just stored: the caller unparks its carrier
    /// with [`release_and_wake`](Self::release_and_wake), after the lock drops.
    /// Caller must hold the state lock and have `running == None`.
    fn dispatch(&self, g: &mut ExecState) -> Option<usize> {
        debug_assert!(g.running.is_none());
        if self.is_poisoned() {
            self.wake_everything();
            return None;
        }
        if !g.started {
            return None;
        }
        loop {
            if g.runnable == 0 {
                // Nothing to run: a live internally-blocked task means the
                // task set has deadlocked on itself.
                if g.blocked_internal > 0 {
                    self.poisoned.store(true, Ordering::Release);
                    self.wake_everything();
                }
                return None;
            }
            let Some(Reverse((_, _, task))) = g.heap.pop() else {
                debug_assert!(false, "runnable count positive but heap empty");
                return None;
            };
            let slot = &mut g.tasks[task];
            if slot.state != TaskState::Runnable {
                continue; // stale entry: the task finished while queued
            }
            slot.state = TaskState::Running;
            self.carriers[task].token.store(true, Ordering::Release);
            g.running = Some(task);
            g.runnable -= 1;
            if g.last_dispatched != Some(task) {
                g.last_dispatched = Some(task);
                g.handoffs += 1;
            }
            return Some(task);
        }
    }

    /// Drop the state guard, then unpark `next`'s carrier: woken after the
    /// lock is free, it never wakes only to block on it.
    fn release_and_wake(&self, g: MutexGuard<'_, ExecState>, next: Option<usize>) {
        drop(g);
        if let Some(carrier) = next.and_then(|task| self.carriers[task].thread.get()) {
            carrier.unpark();
        }
    }

    /// Unpark every registered carrier; each finds the executor poisoned.
    fn wake_everything(&self) {
        for carrier in self.carriers.iter().filter_map(|c| c.thread.get()) {
            carrier.unpark();
        }
    }

    /// Park the calling carrier until its task holds the token (or the
    /// executor is poisoned, in which case this panics with [`POISON_MSG`]).
    /// Takes no lock: an `unpark` that lands before the `park` makes the
    /// `park` return at once, so a token stored at any point is seen.
    fn wait_for_token(&self, task: usize) {
        loop {
            if self.is_poisoned() {
                panic!("{POISON_MSG}");
            }
            if self.carriers[task].token.swap(false, Ordering::Acquire) {
                return;
            }
            std::thread::park();
        }
    }

    /// Register the calling OS thread as the carrier of `task` and park until
    /// the scheduler first picks it. Dispatch begins only once **all** tasks
    /// have registered, so the initial pick is spawn-order independent.
    ///
    /// # Panics
    /// If `task` is out of range, already registered, or the executor is
    /// poisoned while waiting.
    pub fn register_current(&self, task: usize) {
        let mut g = self.state.lock();
        assert!(task < g.tasks.len(), "task {task} out of range");
        assert_eq!(
            g.tasks[task].state,
            TaskState::NotStarted,
            "task {task} registered twice"
        );
        self.carriers[task]
            .thread
            .set(std::thread::current())
            .expect("a NotStarted task has no carrier yet");
        g.tasks[task].state = TaskState::Runnable;
        g.runnable += 1;
        self.push_runnable(&mut g, task);
        g.registered += 1;
        let mut next = None;
        if g.registered == g.tasks.len() {
            g.started = true;
            if g.running.is_none() {
                next = self.dispatch(&mut g);
            }
        }
        self.release_and_wake(g, next);
        self.wait_for_token(task);
    }

    /// Would `task`, re-keyed at its current clock, still be picked ahead of
    /// every runnable task? Then re-queueing it and dispatching would hand the
    /// token straight back, so the caller may keep it. Stale heap tops are
    /// discarded on the way, exactly as [`dispatch`](Self::dispatch) would.
    fn keeps_token(&self, g: &mut ExecState, task: usize) -> bool {
        let slot = &g.tasks[task];
        let mine = (
            self.key(task, slot.yields, slot.clock_ns),
            slot.priority,
            task,
        );
        while let Some(&Reverse((key, priority, other))) = g.heap.peek() {
            if g.tasks[other].state == TaskState::Runnable {
                return mine < (key, priority, other);
            }
            g.heap.pop();
        }
        true
    }

    /// The running `task` passed a scheduling point and will not keep the
    /// token ([`keeps_token`](Self::keeps_token) said so): queue it and
    /// dispatch, returning the task to wake.
    fn requeue(&self, g: &mut ExecState, task: usize) -> Option<usize> {
        g.tasks[task].state = TaskState::Runnable;
        g.running = None;
        g.runnable += 1;
        self.push_runnable(g, task);
        self.dispatch(g)
    }

    /// Cooperative scheduling point: report the task's virtual clock and let
    /// the scheduler pick the runnable task with the smallest key — parking
    /// until re-picked if that is another task, returning at once (one lock, no
    /// heap traffic, no wake-up) if it is still this one. A no-op unless
    /// `task` is the running task, so non-task threads (adopted handles, unit
    /// tests) may call it freely.
    pub fn yield_now(&self, task: usize, now_ns: u64) {
        let mut g = self.state.lock();
        if g.running != Some(task) {
            return;
        }
        if self.is_poisoned() {
            drop(g);
            panic!("{POISON_MSG}");
        }
        let slot = &mut g.tasks[task];
        slot.clock_ns = slot.clock_ns.max(now_ns);
        slot.yields += 1;
        slot.pending_wake = false;
        if self.keeps_token(&mut g, task) {
            return;
        }
        let next = self.requeue(&mut g, task);
        self.release_and_wake(g, next);
        self.wait_for_token(task);
    }

    /// Block the running task waiting on **another task** (lock holder,
    /// barrier parties). Parks until [`unblock`](Self::unblock). If this
    /// leaves the task set with nothing runnable, the executor poisons.
    /// Panics unless `task` is the running task: nothing else may block.
    pub fn block_internal(&self, task: usize, now_ns: u64) {
        self.block(task, now_ns, Block::Internal);
    }

    /// Block the running task waiting on a wakeup **from outside the task
    /// set** (the controlling thread, typically). Never counts as deadlock.
    /// Panics unless `task` is the running task.
    pub fn block_external(&self, task: usize, now_ns: u64) {
        self.block(task, now_ns, Block::External);
    }

    fn block(&self, task: usize, now_ns: u64, kind: Block) {
        let mut g = self.state.lock();
        if self.is_poisoned() {
            drop(g);
            panic!("{POISON_MSG}");
        }
        assert!(
            g.running == Some(task),
            "only the running executor task may block (task {task} is not running)"
        );
        let slot = &mut g.tasks[task];
        slot.clock_ns = slot.clock_ns.max(now_ns);
        slot.yields += 1;
        let next = if slot.pending_wake {
            // A wakeup raced the block (sent from a non-task thread while
            // this task was running): degrade to a plain yield.
            slot.pending_wake = false;
            if self.keeps_token(&mut g, task) {
                return;
            }
            self.requeue(&mut g, task)
        } else {
            slot.state = TaskState::Blocked(kind);
            g.running = None;
            if kind == Block::Internal {
                g.blocked_internal += 1;
            }
            self.dispatch(&mut g)
        };
        self.release_and_wake(g, next);
        self.wait_for_token(task);
    }

    /// Make a blocked task runnable again. Callable from any thread (a running
    /// task releasing a resource, or the controlling thread waking an
    /// externally-blocked task). Waking a running task records a pending
    /// wakeup consumed by its next `block_*`; waking a runnable or finished
    /// task is a no-op.
    pub fn unblock(&self, task: usize) {
        let mut g = self.state.lock();
        if self.is_poisoned() || task >= g.tasks.len() {
            return;
        }
        let mut next = None;
        match g.tasks[task].state {
            TaskState::Blocked(kind) => {
                g.tasks[task].state = TaskState::Runnable;
                g.runnable += 1;
                if kind == Block::Internal {
                    g.blocked_internal -= 1;
                }
                self.push_runnable(&mut g, task);
                if g.running.is_none() && g.started {
                    next = self.dispatch(&mut g);
                }
            }
            TaskState::Running => g.tasks[task].pending_wake = true,
            _ => {}
        }
        self.release_and_wake(g, next);
    }

    /// Retire the calling task and hand the token onward. Safe to call after a
    /// caught panic (including a poison cascade) — it never panics itself.
    pub fn finish(&self, task: usize) {
        let mut g = self.state.lock();
        if task >= g.tasks.len() {
            return;
        }
        let prior = g.tasks[task].state;
        if prior == TaskState::Finished {
            return;
        }
        g.tasks[task].state = TaskState::Finished;
        self.carriers[task].token.store(false, Ordering::Relaxed);
        match prior {
            TaskState::Running => g.running = None,
            TaskState::Runnable => g.runnable -= 1,
            TaskState::Blocked(Block::Internal) => g.blocked_internal -= 1,
            _ => {}
        }
        let mut next = None;
        if !self.is_poisoned() && g.running.is_none() && g.started {
            next = self.dispatch(&mut g);
        }
        self.release_and_wake(g, next);
    }

    /// True once the executor has poisoned (deadlock or explicit abort).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Poison the executor outright: every parked or future scheduling call
    /// panics with [`POISON_MSG`]. Used to abort cleanly when a carrier could
    /// not be spawned and registration would otherwise never complete.
    pub fn poison(&self) {
        let _g = self.state.lock();
        self.poisoned.store(true, Ordering::Release);
        self.wake_everything();
    }

    /// Dispatches that moved the token to a different task than the previous
    /// dispatch did — the OS-level hand-offs (one `unpark` after the state
    /// lock drops and one lock-free park each). A scheduling point that keeps the token, or re-picks the same task, is not
    /// one. A pure function of the schedule, hence of `(seed, jitter)` and the
    /// tasks' inputs.
    pub fn handoffs(&self) -> u64 {
        self.state.lock().handoffs
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicU64;

    /// Spawn `n` tasks that each append `(task, step)` to a shared log at every
    /// scheduling point, with per-task virtual clocks advancing by `pace[t]`.
    fn run_logged(n: usize, seed: u64, jitter: u64, steps: usize, pace: &[u64]) -> Vec<(usize, usize)> {
        let exec = DetExecutor::new(n, seed, jitter);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n {
            let exec = Arc::clone(&exec);
            let log = Arc::clone(&log);
            let pace = pace[t];
            handles.push(std::thread::spawn(move || {
                exec.register_current(t);
                let mut clock = 0u64;
                for step in 0..steps {
                    log.lock().push((t, step));
                    clock += pace;
                    exec.yield_now(t, clock);
                }
                exec.finish(t);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let out = log.lock().clone();
        out
    }

    #[test]
    fn min_clock_order_is_deterministic_and_fair() {
        let a = run_logged(3, 1, 0, 4, &[10, 10, 10]);
        let b = run_logged(3, 99, 0, 4, &[10, 10, 10]);
        // jitter 0: seed is irrelevant, order is pure (clock, task id).
        assert_eq!(a, b);
        // Equal pace => strict round-robin by task id.
        let first_round: Vec<usize> = a[..3].iter().map(|(t, _)| *t).collect();
        assert_eq!(first_round, vec![0, 1, 2]);
    }

    #[test]
    fn slow_task_yields_to_fast_tasks() {
        let log = run_logged(2, 0, 0, 3, &[100, 1]);
        // Task 1 advances 1ns per step, task 0 100ns: after the first
        // alternation task 1 should run its remaining steps before task 0's
        // second step (clock 100 vs 2).
        let pos = |needle: (usize, usize)| log.iter().position(|&e| e == needle).unwrap();
        assert!(pos((1, 2)) < pos((0, 1)));
    }

    #[test]
    fn seeded_jitter_replays_identically_and_seeds_differ() {
        let a = run_logged(4, 7, 1_000, 6, &[10, 10, 10, 10]);
        let b = run_logged(4, 7, 1_000, 6, &[10, 10, 10, 10]);
        assert_eq!(a, b, "same seed must replay the same interleaving");
        let c = run_logged(4, 8, 1_000, 6, &[10, 10, 10, 10]);
        assert_ne!(a, c, "different seed should pick a different interleaving");
    }

    #[test]
    fn internal_deadlock_poisons_with_known_payload() {
        let exec = DetExecutor::new(2, 0, 0);
        let mut handles = Vec::new();
        for t in 0..2usize {
            let exec = Arc::clone(&exec);
            handles.push(std::thread::spawn(move || {
                catch_unwind(AssertUnwindSafe(|| {
                    exec.register_current(t);
                    exec.block_internal(t, 10); // nobody will ever unblock us
                }))
            }));
        }
        for h in handles {
            let err = h.join().unwrap().unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert_eq!(msg, POISON_MSG);
        }
        assert!(exec.is_poisoned());
    }

    #[test]
    fn external_block_is_idle_not_deadlock() {
        let exec = DetExecutor::new(2, 0, 0);
        let woke = Arc::new(AtomicU64::new(0));
        let e0 = Arc::clone(&exec);
        let w0 = Arc::clone(&woke);
        let waiter = std::thread::spawn(move || {
            e0.register_current(0);
            e0.block_external(0, 0);
            w0.store(1, Ordering::SeqCst);
            e0.finish(0);
        });
        let e1 = Arc::clone(&exec);
        let worker = std::thread::spawn(move || {
            e1.register_current(1);
            e1.yield_now(1, 5);
            e1.finish(1);
        });
        worker.join().unwrap();
        assert!(!exec.is_poisoned());
        assert_eq!(woke.load(Ordering::SeqCst), 0);
        // Wake from outside the task set — the pending-wake path also covers
        // the race where the wake lands before the task actually blocks.
        exec.unblock(0);
        waiter.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pending_wake_prevents_lost_wakeup() {
        // Task 0 spins: block_external must return immediately if the wake
        // already arrived while it was running.
        let exec = DetExecutor::new(1, 0, 0);
        let e0 = Arc::clone(&exec);
        let t = std::thread::spawn(move || {
            e0.register_current(0);
            // Wake arrives while we are the running task...
            e0.unblock(0);
            // ...so this block consumes it and degrades to a yield.
            e0.block_external(0, 1);
            e0.finish(0);
        });
        t.join().unwrap(); // would hang forever without pending_wake
        assert!(!exec.is_poisoned());
    }

    // ------------------------------------------------------------ schedule model

    /// One step of a scripted task, taken each time it is resumed.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        /// Advance the clock by the task's pace and yield.
        Yield,
        /// Wake self while running, then block: the pending wake degrades the
        /// block to a yield.
        WakeThenBlock,
    }

    fn decode(code: u32) -> Step {
        match code {
            0 | 1 => Step::WakeThenBlock,
            _ => Step::Yield,
        }
    }

    /// Run the scripts on a real executor; the log is the order tasks resumed in.
    fn run_scripted(
        seed: u64,
        jitter: u64,
        paces: &[u64],
        priorities: &[u8],
        scripts: &[Vec<Step>],
    ) -> (Vec<usize>, u64) {
        let n = scripts.len();
        let exec = DetExecutor::new(n, seed, jitter);
        for (t, &p) in priorities.iter().enumerate().take(n) {
            exec.set_priority(t, p);
        }
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for t in 0..n {
            let exec = Arc::clone(&exec);
            let log = Arc::clone(&log);
            let pace = paces[t];
            let script = scripts[t].clone();
            handles.push(std::thread::spawn(move || {
                exec.register_current(t);
                let mut clock = 0u64;
                for step in script {
                    log.lock().push(t);
                    clock += pace;
                    if matches!(step, Step::WakeThenBlock) {
                        exec.unblock(t);
                        exec.block_external(t, clock);
                    } else {
                        exec.yield_now(t, clock);
                    }
                }
                exec.finish(t);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = log.lock().clone();
        (order, exec.handoffs())
    }

    /// The schedule contract as a pure function: repeatedly resume the
    /// unfinished task with the least `(key, priority, task)`.
    fn model_order(
        exec: &DetExecutor,
        paces: &[u64],
        priorities: &[u8],
        scripts: &[Vec<Step>],
    ) -> Vec<usize> {
        struct Model {
            clock: u64,
            yields: u64,
            next_step: usize,
        }
        let n = scripts.len();
        let mut tasks: Vec<Model> = (0..n)
            .map(|_| Model {
                clock: 0,
                yields: 0,
                next_step: 0,
            })
            .collect();
        let mut order = Vec::new();
        loop {
            let pick = (0..n)
                .filter(|&t| tasks[t].next_step < scripts[t].len())
                .min_by_key(|&t| {
                    (
                        exec.key(t, tasks[t].yields, tasks[t].clock),
                        priorities[t],
                        t,
                    )
                });
            let Some(t) = pick else { return order };
            order.push(t);
            let m = &mut tasks[t];
            m.clock += paces[t];
            m.yields += 1;
            m.next_step += 1;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// For random paces, priorities, seeds and jitter the order in which a
        /// real executor resumes tasks is the pure merge by `(key, priority,
        /// task)` — whether a scheduling point kept the token or handed it
        /// over, and with blocks degraded to yields by a pending wake.
        /// Hand-offs replay too.
        #[test]
        fn pick_order_is_the_pure_merge(
            n in 2usize..6,
            seed in 0u64..u64::MAX,
            jitter in proptest::prop::sample::select(vec![0u64, 0, 7, 1_000]),
            paces in proptest::prop::collection::vec(0u64..40, 6),
            priorities in proptest::prop::collection::vec(0u8..3, 6),
            codes in proptest::prop::collection::vec(proptest::prop::collection::vec(0u32..16, 1..12), 6),
        ) {
            let scripts: Vec<Vec<Step>> = codes[..n]
                .iter()
                .map(|c| c.iter().copied().map(decode).collect())
                .collect();
            let (order, handoffs) = run_scripted(seed, jitter, &paces, &priorities, &scripts);
            let exec = DetExecutor::new(n, seed, jitter);
            proptest::prop_assert_eq!(&order, &model_order(&exec, &paces, &priorities, &scripts));
            let (again, handoffs_again) = run_scripted(seed, jitter, &paces, &priorities, &scripts);
            proptest::prop_assert_eq!(&order, &again);
            proptest::prop_assert_eq!(handoffs, handoffs_again);
        }
    }

    #[test]
    fn keeping_the_token_is_not_a_handoff() {
        // One crawling task and one leaping task: after the first alternation
        // the crawler runs all its remaining steps without giving the token up.
        let (order, handoffs) = run_scripted(
            0,
            0,
            &[1, 1_000],
            &[1, 1],
            &[vec![Step::Yield; 6], vec![Step::Yield; 2]],
        );
        assert_eq!(order, vec![0, 1, 0, 0, 0, 0, 0, 1]);
        assert_eq!(handoffs, 4, "0 -> 1 -> 0 -> 1, however many steps each ran");
    }

    // ------------------------------------------------- hand-off storms (no hang)

    /// Executor seed of the storms: `JESSY_CHAOS_SEED` picks the interleaving,
    /// so the CI seed matrix runs each storm under several.
    fn chaos_seed() -> u64 {
        std::env::var("JESSY_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// Far beyond any storm's run time: only a carrier that was never woken
    /// misses it.
    const DEADLINE: std::time::Duration = std::time::Duration::from_secs(120);

    /// Run `body(t)` for `t in 0..n`, each on its own carrier, and return each
    /// carrier's panic message (`None` if it returned). A carrier still running
    /// at [`DEADLINE`] fails the test instead of hanging it: the executor is
    /// poisoned so the others unwind, and the lost wake-up is reported.
    fn run_carriers<F>(exec: &Arc<DetExecutor>, n: usize, body: F) -> Vec<Option<String>>
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let (body, tx) = (Arc::clone(&body), tx.clone());
                std::thread::spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| body(t))).err().map(|err| {
                        err.downcast_ref::<String>()
                            .cloned()
                            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_default()
                    });
                    tx.send((t, outcome))
                        .expect("the test thread outlives its carriers");
                })
            })
            .collect();
        let deadline = std::time::Instant::now() + DEADLINE;
        let mut outcomes = vec![None; n];
        for done in 0..n {
            let wait = deadline.saturating_duration_since(std::time::Instant::now());
            match rx.recv_timeout(wait) {
                Ok((t, outcome)) => outcomes[t] = outcome,
                Err(_) => {
                    exec.poison();
                    panic!(
                        "lost wake-up: {} of {n} carriers still parked at the deadline",
                        n - done
                    );
                }
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        outcomes
    }

    /// 64 tasks × 2 000 jittered yields: the resumption log and hand-off count.
    fn handoff_storm(seed: u64) -> (Vec<usize>, u64) {
        const TASKS: usize = 64;
        const YIELDS: u64 = 2_000;
        let exec = DetExecutor::new(TASKS, seed, 1_000);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (e, l) = (Arc::clone(&exec), Arc::clone(&log));
        let outcomes = run_carriers(&exec, TASKS, move |t| {
            e.register_current(t);
            for step in 1..=YIELDS {
                l.lock().push(t);
                e.yield_now(t, step * 10);
            }
            e.finish(t);
        });
        assert!(outcomes.iter().all(Option::is_none), "{outcomes:?}");
        let order = log.lock().clone();
        assert_eq!(order.len(), TASKS * YIELDS as usize);
        (order, exec.handoffs())
    }

    #[test]
    fn a_handoff_storm_replays_and_never_loses_a_wakeup() {
        let seed = chaos_seed();
        let (order, handoffs) = handoff_storm(seed);
        let (again, handoffs_again) = handoff_storm(seed);
        assert!(
            order == again,
            "seed {seed}: resumption order differs between runs"
        );
        assert_eq!(handoffs, handoffs_again, "seed {seed}");
        assert!(
            handoffs > 64,
            "seed {seed}: a jittered storm hands off ({handoffs})"
        );
    }

    #[test]
    fn outside_wakeups_race_a_live_handoff() {
        const WORKERS: usize = 7;
        const ROUNDS: u64 = 2_000;
        let exec = DetExecutor::new(1 + WORKERS, chaos_seed(), 1_000);
        let blocker_done = Arc::new(AtomicBool::new(false));
        // A non-task thread waking task 0 for as long as it keeps blocking.
        let waker = {
            let (exec, done) = (Arc::clone(&exec), Arc::clone(&blocker_done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    exec.unblock(0);
                    std::thread::yield_now();
                }
            })
        };
        let (e, done) = (Arc::clone(&exec), Arc::clone(&blocker_done));
        let outcomes = run_carriers(&exec, 1 + WORKERS, move |t| {
            e.register_current(t);
            for step in 1..=ROUNDS {
                if t == 0 {
                    e.block_external(0, step * 10);
                } else {
                    e.yield_now(t, step * 10);
                }
            }
            if t == 0 {
                done.store(true, Ordering::Release);
            }
            e.finish(t);
        });
        blocker_done.store(true, Ordering::Release);
        waker.join().unwrap();
        assert!(outcomes.iter().all(Option::is_none), "{outcomes:?}");
        assert!(!exec.is_poisoned());
    }

    #[test]
    fn poison_mid_storm_unwinds_every_carrier() {
        const TASKS: usize = 16;
        let exec = DetExecutor::new(TASKS, chaos_seed(), 1_000);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let poisoner = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                // Poison once the storm is well under way.
                started_rx.recv().unwrap();
                exec.poison();
            })
        };
        let e = Arc::clone(&exec);
        let outcomes = run_carriers(&exec, TASKS, move |t| {
            e.register_current(t);
            for step in 1u64.. {
                if t == 0 && step == 500 {
                    started_tx.send(()).unwrap();
                }
                e.yield_now(t, step * 10);
            }
        });
        poisoner.join().unwrap();
        assert!(exec.is_poisoned());
        for (t, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.as_deref(), Some(POISON_MSG), "task {t}");
        }
    }
}
