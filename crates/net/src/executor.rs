//! Deterministic cooperative task executor with virtual time.
//!
//! Replaces free-running OS-thread execution with *single-token* cooperative
//! scheduling: every simulated entity (application threads, the master daemon)
//! is a **task**, and at most one task executes at any instant. At each
//! scheduling point the token goes to the runnable task with the smallest
//! `(key, priority, task)`, the key being the task's virtual clock (plus an
//! optional seeded jitter), so a given `(seed, jitter)` pair fixes the entire
//! interleaving — a run is a pure function of its inputs and replays
//! bit-identically: journal, TCM and `MasterOutput` alike.
//!
//! The executor orders whatever scheduling points its tasks pass; *which*
//! actions pass one is the caller's schedule contract (`JThread::yield_now`,
//! DESIGN.md §15: only actions another task can observe do). A scheduling
//! point at which the running task would be picked again costs one lock and
//! nothing else — no heap push/pop, no switch, no wake-up — so only a pick
//! that moves the token to another task ([`DetExecutor::handoffs`]) pays for a
//! hand-off.
//!
//! ## Two transports, one scheduler
//!
//! The heap, the keys, the keep-the-token test and poisoning are shared; only
//! how the token physically moves differs.
//!
//! - **Own stacks** ([`DetExecutor::run_tasks`], what a cluster run uses):
//!   each task runs on an `mmap`'d stack with a guard page, every task on the
//!   calling OS thread, and a hand-off is one user-space register switch
//!   (`executor/fiber.rs`, x86_64 Linux). A task that blocks with nothing
//!   else runnable switches back to the runner, which parks until an outside
//!   wake-up dispatches a task. Where no switch routine exists, `run_tasks`
//!   falls back to the OS carriers below.
//! - **OS carriers** ([`DetExecutor::register_current`], for callers that
//!   bring their own threads): a hand-off is one token store under the lock,
//!   one `unpark` after the lock drops, and one park. Each task's run token is
//!   an atomic outside the state lock, so a parked carrier waits for it, and
//!   reads it on waking, without the lock: the woken carrier never wakes only
//!   to block on a mutex its waker still holds. (Poisoning is the one path
//!   that unparks under the lock.)
//!
//! Serialization is also what closes the LRC fetch-vs-flush race (DESIGN.md
//! §14): with one task running at a time, the write-notice distribution at
//! barriers is schedule-determined, not OS-determined. And because a task
//! costs a stack mapping whose pages are committed only as it touches them,
//! cluster size is bounded by address space rather than cores — 10k+
//! simulated threads run on one OS thread.
//!
//! ## Task lifecycle
//!
//! ```text
//! NotStarted --register_current / run_tasks--> Runnable --pick--> Running
//!     Running --yield_now--> Runnable   (or stays Running: it would be picked again)
//!     Running --block_internal/block_external--> Blocked --unblock--> Runnable
//!     Running --finish / body returns--> Finished
//! ```
//!
//! Dispatch begins only after **all** `n_tasks` tasks have registered, so the
//! first pick is independent of OS spawn order. `Blocked` comes in two
//! flavors: *internal* (waiting on another task — a lock holder, barrier
//! parties) and *external* (waiting on a wakeup from outside the task set —
//! the master daemon's empty mailbox). If no task is runnable, none is
//! running, and at least one is blocked internally, the executor **poisons**
//! itself: every waiting task is resumed and panics with [`POISON_MSG`],
//! unwinding on its own stack or carrier (a deterministic deadlock report
//! instead of a wedge).
//!
//! ## Virtual time
//!
//! The executor holds no clock of its own: tasks report their simulated
//! nanoseconds (their `ClockBoard` cell) at every scheduling point, and the
//! scheduler orders by those reports. It has one mode, free-run: tasks drive
//! it, and nothing outside the task set steps or re-keys it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;

use parking_lot::{Mutex, MutexGuard};

/// The one choice of transport for [`DetExecutor::run_tasks`]: own stacks and
/// a user-space switch where the switch routine exists, OS carriers elsewhere.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod fiber;
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fiber {
    //! No switch routine for this target: each task runs on a scoped OS
    //! carrier, through the transport of [`DetExecutor::register_current`].

    use std::io;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::{DetExecutor, TaskSpec};

    impl DetExecutor {
        pub(super) fn run_on_stacks(
            &self,
            tasks: Vec<TaskSpec<'_>>,
        ) -> io::Result<Vec<std::thread::Result<()>>> {
            std::thread::scope(|s| {
                let carriers = tasks
                    .into_iter()
                    .enumerate()
                    .map(|(task, spec)| {
                        std::thread::Builder::new()
                            .stack_size(spec.stack_bytes)
                            .spawn_scoped(s, move || {
                                let outcome = catch_unwind(AssertUnwindSafe(|| {
                                    self.register_current(task);
                                    (spec.body)()
                                }));
                                self.finish(task);
                                outcome
                            })
                    })
                    .collect::<Vec<_>>();
                let mut outcomes = Vec::with_capacity(carriers.len());
                let mut spawn_error = None;
                for carrier in carriers {
                    match carrier {
                        Ok(c) => {
                            outcomes.push(c.join().expect("a carrier catches its task's panic"))
                        }
                        Err(e) => {
                            // Registration can never complete: the others abort.
                            self.poison();
                            spawn_error.get_or_insert(e);
                        }
                    }
                }
                spawn_error.map_or(Ok(outcomes), Err)
            })
        }

        pub(super) fn switch_away(&self, _save: *mut *mut u8, _next: Option<usize>) {
            unreachable!("no task runs on its own stack on this target")
        }
    }
}

/// One task for [`DetExecutor::run_tasks`]: its body and the bytes of stack it
/// runs on.
pub struct TaskSpec<'a> {
    stack_bytes: usize,
    body: Box<dyn FnOnce() + Send + 'a>,
}

impl<'a> TaskSpec<'a> {
    /// A task running `body` on `stack_bytes` of stack (rounded up to whole
    /// pages). The body must not call [`DetExecutor::finish`]: the executor
    /// retires the task when the body returns or panics.
    pub fn new(stack_bytes: usize, body: impl FnOnce() + Send + 'a) -> Self {
        TaskSpec {
            stack_bytes,
            body: Box::new(body),
        }
    }
}

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
    /// Addresses of the task's own stack ([`DetExecutor::run_tasks`]); empty
    /// for a task on an OS carrier.
    stack: std::ops::Range<usize>,
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

/// The lock-free half of a task: what it reads when it is resumed.
#[derive(Debug, Default)]
struct Carrier {
    /// Run token: stored (`Release`) by the dispatcher under the state lock,
    /// taken (`Acquire`) by the task without it, so everything the previous
    /// token holder wrote is visible to the next.
    token: AtomicBool,
    /// The OS thread to unpark when the task is handed the token from outside
    /// the task set: its own carrier (`register_current`), or the thread
    /// running every task on its own stack (`run_tasks`).
    thread: OnceLock<Thread>,
    /// Saved stack pointer of a task on its own stack while it is switched out.
    sp: AtomicPtr<u8>,
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
    /// Saved stack pointer of the thread running tasks on their own stacks,
    /// while one of them runs. (Unused where tasks run on OS carriers.)
    #[cfg_attr(
        not(all(target_arch = "x86_64", target_os = "linux")),
        allow(dead_code)
    )]
    runner_sp: AtomicPtr<u8>,
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
                stack: 0..0,
            })
            .collect();
        Arc::new(DetExecutor {
            seed,
            jitter_ns,
            carriers: (0..n_tasks).map(|_| Carrier::default()).collect(),
            poisoned: AtomicBool::new(false),
            runner_sp: AtomicPtr::default(),
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
        let entry = (
            self.key(task, slot.yields, slot.clock_ns),
            slot.priority,
            task,
        );
        g.heap.push(Reverse(entry));
    }

    /// Hand the token to the best runnable task, or detect deadlock. Returns
    /// the task whose token was just stored: after the lock drops the caller
    /// switches to it ([`hand_over`](Self::hand_over)) or unparks its carrier
    /// ([`release_and_wake`](Self::release_and_wake)). Caller must hold the
    /// state lock and have `running == None`.
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

    /// The running `task` gave the token up and `next` (if any) was
    /// dispatched under `g`: pass the token on, and return once `task` holds
    /// it again (panicking if the executor is poisoned meanwhile). On its own
    /// stack that is one switch; on an OS carrier, an unpark and a park.
    fn hand_over(&self, g: MutexGuard<'_, ExecState>, task: usize, next: Option<usize>) {
        let stack = &g.tasks[task].stack;
        if stack.is_empty() {
            self.release_and_wake(g, next);
        } else {
            // Only the task itself may switch its stack out: a switch made
            // from another thread would run two stacks at once.
            let here = 0u8;
            assert!(
                stack.contains(&(std::ptr::addr_of!(here) as usize)),
                "task {task} runs on its own stack: only that task may pass its scheduling points"
            );
            drop(g);
            self.switch_away(self.carriers[task].sp.as_ptr(), next);
        }
        self.wait_for_token(task);
    }

    /// Unpark every registered carrier (for tasks on their own stacks, the
    /// runner); each finds the executor poisoned.
    fn wake_everything(&self) {
        for carrier in self.carriers.iter().filter_map(|c| c.thread.get()) {
            carrier.unpark();
        }
    }

    /// Park the calling carrier until its task holds the token (or the
    /// executor is poisoned, in which case this panics with [`POISON_MSG`]).
    /// Takes no lock: an `unpark` that lands before the `park` makes the
    /// `park` return at once, so a token stored at any point is seen. A task
    /// on its own stack is only ever resumed holding the token or poisoned, so
    /// it never parks.
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
    /// have registered, so the initial pick is spawn-order independent. The
    /// transport for callers that bring their own threads; a cluster runs its
    /// tasks through [`run_tasks`](Self::run_tasks) instead.
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

    /// Run `tasks[t]` as task `t`, each on its own stack, all on the calling OS
    /// thread, and return once every task has retired: `Ok` with each body's
    /// outcome (the payload of a panic it did not catch), or `Err` if a stack
    /// could not be mapped, before any task ran. Every task registers at once,
    /// so dispatch starts here. A hand-off between tasks is a user-space
    /// switch; outside threads may still [`unblock`](Self::unblock) or
    /// [`poison`](Self::poison) the task set while it runs.
    ///
    /// # Panics
    /// Unless there is exactly one task per executor task and none has
    /// registered yet.
    pub fn run_tasks(&self, tasks: Vec<TaskSpec<'_>>) -> io::Result<Vec<std::thread::Result<()>>> {
        assert_eq!(tasks.len(), self.n_tasks(), "one body per executor task");
        self.run_on_stacks(tasks)
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
        self.hand_over(g, task, next);
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
        self.hand_over(g, task, next);
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

    /// Retire the calling carrier's task and hand the token onward. Safe to
    /// call after a caught panic (including a poison cascade) — it never
    /// panics itself. Only for tasks registered with
    /// [`register_current`](Self::register_current): [`run_tasks`](Self::run_tasks)
    /// retires its tasks itself.
    pub fn finish(&self, task: usize) {
        let (g, next) = self.retire(task);
        self.release_and_wake(g, next);
    }

    /// Mark `task` finished and, unless poisoned, dispatch its successor.
    /// Returns the guard and the task handed the token.
    fn retire(&self, task: usize) -> (MutexGuard<'_, ExecState>, Option<usize>) {
        let mut g = self.state.lock();
        if task >= g.tasks.len() {
            return (g, None);
        }
        let prior = g.tasks[task].state;
        if prior == TaskState::Finished {
            return (g, None);
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
        (g, next)
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
    /// dispatch did: each is one stack switch for tasks on their own stacks,
    /// or an `unpark` and a park between OS carriers. A scheduling point that
    /// keeps the token, or re-picks the same task, is not one. A pure function
    /// of the schedule, hence of `(seed, jitter)` and the tasks' inputs, and
    /// the same on either transport.
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
    use std::sync::mpsc;
    use std::time::Duration;

    /// How a test's tasks run: each on its own stack, all on one OS thread
    /// (`run_tasks`, what clusters use), or each on an OS carrier registered
    /// through `register_current` (what outside callers use).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Transport {
        Stacks,
        Carriers,
    }
    use Transport::{Carriers, Stacks};

    const BOTH: [Transport; 2] = [Stacks, Carriers];

    /// Stack of each test task.
    const TEST_STACK: usize = 64 * 1024;

    /// Far beyond any test's run time: only a task that was never woken misses it.
    const DEADLINE: Duration = Duration::from_secs(120);

    fn message(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    /// A task set running off the test thread.
    struct Running {
        exec: Arc<DetExecutor>,
        outcomes: mpsc::Receiver<Vec<Option<String>>>,
        thread: std::thread::JoinHandle<()>,
    }

    /// Start `body(t)` as task `t` of `exec`, for every task, on `transport`.
    fn start<F>(exec: &Arc<DetExecutor>, transport: Transport, body: F) -> Running
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let e = Arc::clone(exec);
        let thread = std::thread::spawn(move || {
            let (e, body, n) = (&*e, &body, e.n_tasks());
            let outcomes: Vec<std::thread::Result<()>> = match transport {
                Stacks => e
                    .run_tasks(
                        (0..n)
                            .map(|t| TaskSpec::new(TEST_STACK, move || body(t)))
                            .collect(),
                    )
                    .expect("map the test stacks"),
                Carriers => std::thread::scope(|s| {
                    let carriers: Vec<_> = (0..n)
                        .map(|t| {
                            s.spawn(move || {
                                let outcome = catch_unwind(AssertUnwindSafe(|| {
                                    e.register_current(t);
                                    body(t)
                                }));
                                e.finish(t);
                                outcome
                            })
                        })
                        .collect();
                    carriers
                        .into_iter()
                        .map(|c| c.join().expect("a carrier catches its task's panic"))
                        .collect()
                }),
            };
            let messages = outcomes
                .iter()
                .map(|o| o.as_ref().err().map(|p| message(&**p)));
            tx.send(messages.collect())
                .expect("the test thread waits for the outcomes");
        });
        Running {
            exec: Arc::clone(exec),
            outcomes: rx,
            thread,
        }
    }

    impl Running {
        /// Each task's panic message (`None` if its body returned). A task set
        /// still running at [`DEADLINE`] fails the test instead of hanging it:
        /// the executor is poisoned so the tasks unwind, and the lost wake-up
        /// is reported.
        fn join(self) -> Vec<Option<String>> {
            let Ok(outcomes) = self.outcomes.recv_timeout(DEADLINE) else {
                self.exec.poison();
                panic!("lost wake-up: tasks still blocked at the deadline");
            };
            self.thread.join().unwrap();
            outcomes
        }
    }

    fn run_on<F>(exec: &Arc<DetExecutor>, transport: Transport, body: F) -> Vec<Option<String>>
    where
        F: Fn(usize) + Send + Sync + 'static,
    {
        start(exec, transport, body).join()
    }

    /// Run `n` tasks that each append `(task, step)` to a shared log at every
    /// scheduling point, with per-task virtual clocks advancing by `pace[t]`.
    fn run_logged(
        transport: Transport,
        n: usize,
        seed: u64,
        jitter: u64,
        steps: usize,
        pace: &[u64],
    ) -> Vec<(usize, usize)> {
        let exec = DetExecutor::new(n, seed, jitter);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (e, l, pace) = (Arc::clone(&exec), Arc::clone(&log), pace.to_vec());
        let outcomes = run_on(&exec, transport, move |t| {
            let mut clock = 0u64;
            for step in 0..steps {
                l.lock().push((t, step));
                clock += pace[t];
                e.yield_now(t, clock);
            }
        });
        assert!(outcomes.iter().all(Option::is_none), "{outcomes:?}");
        let out = log.lock().clone();
        out
    }

    #[test]
    fn min_clock_order_is_deterministic_and_fair() {
        for transport in BOTH {
            let a = run_logged(transport, 3, 1, 0, 4, &[10, 10, 10]);
            let b = run_logged(transport, 3, 99, 0, 4, &[10, 10, 10]);
            // jitter 0: seed is irrelevant, order is pure (clock, task id).
            assert_eq!(a, b, "{transport:?}");
            // Equal pace => strict round-robin by task id.
            let first_round: Vec<usize> = a[..3].iter().map(|(t, _)| *t).collect();
            assert_eq!(first_round, vec![0, 1, 2], "{transport:?}");
        }
    }

    #[test]
    fn slow_task_yields_to_fast_tasks() {
        for transport in BOTH {
            let log = run_logged(transport, 2, 0, 0, 3, &[100, 1]);
            // Task 1 advances 1ns per step, task 0 100ns: after the first
            // alternation task 1 should run its remaining steps before task 0's
            // second step (clock 100 vs 2).
            let pos = |needle: (usize, usize)| log.iter().position(|&e| e == needle).unwrap();
            assert!(pos((1, 2)) < pos((0, 1)), "{transport:?}");
        }
    }

    #[test]
    fn seeded_jitter_replays_identically_and_seeds_differ() {
        for transport in BOTH {
            let a = run_logged(transport, 4, 7, 1_000, 6, &[10, 10, 10, 10]);
            let b = run_logged(transport, 4, 7, 1_000, 6, &[10, 10, 10, 10]);
            assert_eq!(
                a, b,
                "{transport:?}: same seed must replay the same interleaving"
            );
            let c = run_logged(transport, 4, 8, 1_000, 6, &[10, 10, 10, 10]);
            assert_ne!(
                a, c,
                "{transport:?}: a different seed should pick another interleaving"
            );
        }
    }

    #[test]
    fn internal_deadlock_poisons_with_known_payload() {
        for transport in BOTH {
            let exec = DetExecutor::new(2, 0, 0);
            let e = Arc::clone(&exec);
            // Nobody will ever unblock either task.
            let outcomes = run_on(&exec, transport, move |t| e.block_internal(t, 10));
            for outcome in outcomes {
                assert_eq!(outcome.as_deref(), Some(POISON_MSG), "{transport:?}");
            }
            assert!(exec.is_poisoned());
        }
    }

    #[test]
    fn external_block_is_idle_not_deadlock() {
        for transport in BOTH {
            let exec = DetExecutor::new(2, 0, 0);
            let woke = Arc::new(AtomicU64::new(0));
            let (worker_done, worker_done_rx) = mpsc::channel();
            let (e, w) = (Arc::clone(&exec), Arc::clone(&woke));
            let running = start(&exec, transport, move |t| {
                if t == 0 {
                    e.block_external(0, 0);
                    w.store(1, Ordering::SeqCst);
                } else {
                    e.yield_now(1, 5);
                    worker_done.send(()).unwrap();
                }
            });
            worker_done_rx.recv().unwrap();
            assert!(!exec.is_poisoned(), "{transport:?}");
            assert_eq!(woke.load(Ordering::SeqCst), 0, "{transport:?}");
            // Wake from outside the task set — the pending-wake path also covers
            // the race where the wake lands before the task actually blocks.
            exec.unblock(0);
            assert!(running.join().iter().all(Option::is_none));
            assert_eq!(woke.load(Ordering::SeqCst), 1, "{transport:?}");
        }
    }

    #[test]
    fn pending_wake_prevents_lost_wakeup() {
        // block_external must return immediately if the wake already arrived
        // while the task was running.
        for transport in BOTH {
            let exec = DetExecutor::new(1, 0, 0);
            let e = Arc::clone(&exec);
            let outcomes = run_on(&exec, transport, move |t| {
                // Wake arrives while we are the running task...
                e.unblock(t);
                // ...so this block consumes it and degrades to a yield.
                e.block_external(t, 1);
            });
            assert_eq!(outcomes, vec![None], "{transport:?}");
            assert!(!exec.is_poisoned());
        }
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
        transport: Transport,
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
        let (e, l, paces, scripts) = (
            Arc::clone(&exec),
            Arc::clone(&log),
            paces.to_vec(),
            scripts.to_vec(),
        );
        let outcomes = run_on(&exec, transport, move |t| {
            let mut clock = 0u64;
            for &step in &scripts[t] {
                l.lock().push(t);
                clock += paces[t];
                if matches!(step, Step::WakeThenBlock) {
                    e.unblock(t);
                    e.block_external(t, clock);
                } else {
                    e.yield_now(t, clock);
                }
            }
        });
        assert!(outcomes.iter().all(Option::is_none), "{outcomes:?}");
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
        /// task)` — on either transport, whether a scheduling point kept the
        /// token or handed it over, and with blocks degraded to yields by a
        /// pending wake. Hand-offs replay too, and agree across transports.
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
            let (order, handoffs) = run_scripted(Stacks, seed, jitter, &paces, &priorities, &scripts);
            let exec = DetExecutor::new(n, seed, jitter);
            proptest::prop_assert_eq!(&order, &model_order(&exec, &paces, &priorities, &scripts));
            let (again, handoffs_again) = run_scripted(Stacks, seed, jitter, &paces, &priorities, &scripts);
            proptest::prop_assert_eq!(&order, &again);
            proptest::prop_assert_eq!(handoffs, handoffs_again);
            let (carried, handoffs_carried) = run_scripted(Carriers, seed, jitter, &paces, &priorities, &scripts);
            proptest::prop_assert_eq!(&order, &carried);
            proptest::prop_assert_eq!(handoffs, handoffs_carried);
        }
    }

    #[test]
    fn keeping_the_token_is_not_a_handoff() {
        // One crawling task and one leaping task: after the first alternation
        // the crawler runs all its remaining steps without giving the token up.
        for transport in BOTH {
            let (order, handoffs) = run_scripted(
                transport,
                0,
                0,
                &[1, 1_000],
                &[1, 1],
                &[vec![Step::Yield; 6], vec![Step::Yield; 2]],
            );
            assert_eq!(order, vec![0, 1, 0, 0, 0, 0, 0, 1], "{transport:?}");
            assert_eq!(
                handoffs, 4,
                "{transport:?}: 0 -> 1 -> 0 -> 1, however many steps each ran"
            );
        }
    }

    // -------------------------------------- transport differential and storms

    /// Executor seed of the storms: `JESSY_CHAOS_SEED` picks the interleaving,
    /// so the CI seed matrix runs each storm under several.
    fn chaos_seed() -> u64 {
        std::env::var("JESSY_CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0)
    }

    /// A reusable rendezvous of every task, built like the GOS barrier: the
    /// last arrival unblocks the others, who block internally until then.
    #[derive(Default)]
    struct Rendezvous {
        /// Arrivals this generation, the generation, the blocked arrivals.
        inner: Mutex<(usize, u64, Vec<usize>)>,
    }

    impl Rendezvous {
        fn arrive(&self, exec: &DetExecutor, task: usize, now: u64) {
            let mut g = self.inner.lock();
            g.0 += 1;
            if g.0 == exec.n_tasks() {
                g.0 = 0;
                g.1 += 1;
                let waiters = std::mem::take(&mut g.2);
                drop(g);
                for w in waiters {
                    exec.unblock(w);
                }
                return;
            }
            let generation = g.1;
            loop {
                g.2.push(task);
                drop(g);
                exec.block_internal(task, now);
                g = self.inner.lock();
                if g.1 != generation {
                    return;
                }
            }
        }
    }

    /// `n` tasks at seeded paces: each step logs `(task, step)` and then
    /// yields, wakes itself and blocks, or every 50th step meets the others
    /// at a rendezvous. Returns the log as bytes and the hand-off count.
    fn mixed_schedule(transport: Transport, n: usize, seed: u64, jitter: u64) -> (Vec<u8>, u64) {
        const STEPS: u64 = 300;
        let exec = DetExecutor::new(n, seed, jitter);
        let log = Arc::new(Mutex::new(Vec::new()));
        let rendezvous = Arc::new(Rendezvous::default());
        let (e, l, r) = (Arc::clone(&exec), Arc::clone(&log), Arc::clone(&rendezvous));
        let outcomes = run_on(&exec, transport, move |t| {
            let pace = 1 + splitmix64(seed ^ t as u64) % 50;
            let mut clock = 0u64;
            for step in 0..STEPS {
                l.lock().extend(
                    (t as u16)
                        .to_le_bytes()
                        .into_iter()
                        .chain((step as u32).to_le_bytes()),
                );
                clock += pace;
                if step % 50 == 49 {
                    r.arrive(&e, t, clock);
                } else if splitmix64(seed ^ ((t as u64) << 32) ^ step) & 3 == 0 {
                    e.unblock(t);
                    e.block_external(t, clock);
                } else {
                    e.yield_now(t, clock);
                }
            }
        });
        assert!(
            outcomes.iter().all(Option::is_none),
            "{transport:?}: {outcomes:?}"
        );
        let bytes = log.lock().clone();
        (bytes, exec.handoffs())
    }

    #[test]
    fn tasks_on_stacks_and_os_carriers_log_the_same_schedule() {
        let seed = chaos_seed();
        for (n, jitter) in [(2, 0), (12, 0), (12, 1_000), (40, 7)] {
            let (stacks, stack_handoffs) = mixed_schedule(Stacks, n, seed, jitter);
            let (carriers, carrier_handoffs) = mixed_schedule(Carriers, n, seed, jitter);
            assert_eq!(stacks.len(), n * 300 * 6);
            assert!(
                stacks == carriers,
                "seed {seed}, {n} tasks, jitter {jitter}: the transports scheduled differently"
            );
            assert_eq!(
                stack_handoffs, carrier_handoffs,
                "seed {seed}, {n} tasks, jitter {jitter}"
            );
            assert!(
                stack_handoffs > n as u64,
                "seed {seed}: the tasks hand off ({stack_handoffs})"
            );
        }
    }

    /// 64 tasks × 2 000 jittered yields: the resumption log and hand-off count.
    fn handoff_storm(transport: Transport, seed: u64) -> (Vec<usize>, u64) {
        const TASKS: usize = 64;
        const YIELDS: u64 = 2_000;
        let exec = DetExecutor::new(TASKS, seed, 1_000);
        let log = Arc::new(Mutex::new(Vec::new()));
        let (e, l) = (Arc::clone(&exec), Arc::clone(&log));
        let outcomes = run_on(&exec, transport, move |t| {
            for step in 1..=YIELDS {
                l.lock().push(t);
                e.yield_now(t, step * 10);
            }
        });
        assert!(outcomes.iter().all(Option::is_none), "{outcomes:?}");
        let order = log.lock().clone();
        assert_eq!(order.len(), TASKS * YIELDS as usize);
        (order, exec.handoffs())
    }

    #[test]
    fn a_handoff_storm_replays_and_never_loses_a_wakeup() {
        let seed = chaos_seed();
        for transport in BOTH {
            let (order, handoffs) = handoff_storm(transport, seed);
            let (again, handoffs_again) = handoff_storm(transport, seed);
            assert!(
                order == again,
                "{transport:?}, seed {seed}: resumption order differs between runs"
            );
            assert_eq!(handoffs, handoffs_again, "{transport:?}, seed {seed}");
            assert!(
                handoffs > 64,
                "{transport:?}, seed {seed}: a jittered storm hands off ({handoffs})"
            );
        }
    }

    #[test]
    fn outside_wakeups_race_a_live_handoff() {
        const WORKERS: usize = 7;
        const ROUNDS: u64 = 2_000;
        for transport in BOTH {
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
            let outcomes = run_on(&exec, transport, move |t| {
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
            });
            blocker_done.store(true, Ordering::Release);
            waker.join().unwrap();
            assert!(
                outcomes.iter().all(Option::is_none),
                "{transport:?}: {outcomes:?}"
            );
            assert!(!exec.is_poisoned());
        }
    }

    #[test]
    fn poison_mid_storm_unwinds_every_task() {
        const TASKS: usize = 16;
        for transport in BOTH {
            let exec = DetExecutor::new(TASKS, chaos_seed(), 1_000);
            let (started_tx, started_rx) = mpsc::channel();
            let poisoner = {
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || {
                    // Poison once the storm is well under way.
                    started_rx.recv().unwrap();
                    exec.poison();
                })
            };
            let e = Arc::clone(&exec);
            let outcomes = run_on(&exec, transport, move |t| {
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
                assert_eq!(
                    outcome.as_deref(),
                    Some(POISON_MSG),
                    "{transport:?}, task {t}"
                );
            }
        }
    }

    #[test]
    fn only_a_task_on_its_own_stack_may_switch_it_out() {
        let exec = DetExecutor::new(2, 0, 0);
        let (go, go_rx) = mpsc::channel::<()>();
        let (tried, tried_rx) = mpsc::channel();
        // While task 0 runs, another thread tries to yield for it at a clock
        // that would hand the token to task 1.
        let outsider = {
            let exec = Arc::clone(&exec);
            std::thread::spawn(move || {
                go_rx.recv().unwrap();
                let outcome = catch_unwind(AssertUnwindSafe(|| exec.yield_now(0, 1_000)));
                tried.send(outcome.err().map(|p| message(&*p))).unwrap();
            })
        };
        let tried_rx = Mutex::new(tried_rx);
        let outcomes = run_on(&exec, Stacks, move |t| {
            if t == 0 {
                go.send(()).unwrap();
                let refused = tried_rx.lock().recv().unwrap();
                assert!(
                    refused.is_some_and(
                        |m| m.contains("only that task may pass its scheduling points")
                    ),
                    "the outside switch was not refused"
                );
            }
        });
        outsider.join().unwrap();
        assert_eq!(outcomes, vec![None, None]);
    }

    // ------------------------------------------------------------- guard page

    /// Set in the child process of the guard-page test.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    const GUARD_CHILD: &str = "JESSY_GUARD_PAGE_CHILD";

    /// Exit code of a child whose overflow faulted inside the task's guard page.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    const HIT_GUARD: i32 = 42;

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod segv {
        //! A SIGSEGV handler, on an alternate stack, that exits with
        //! `HIT_GUARD` if the faulting address lies in `[GUARD_LO, GUARD_HI)`.
        use std::sync::atomic::{AtomicUsize, Ordering};

        pub static GUARD_LO: AtomicUsize = AtomicUsize::new(0);
        pub static GUARD_HI: AtomicUsize = AtomicUsize::new(0);

        /// glibc's x86-64 `struct sigaction`.
        #[repr(C)]
        struct SigAction {
            handler: usize,
            mask: [u64; 16],
            flags: i32,
            restorer: usize,
        }

        /// `stack_t`.
        #[repr(C)]
        struct StackT {
            sp: *mut u8,
            flags: i32,
            size: usize,
        }

        extern "C" {
            fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
            fn sigaltstack(ss: *const StackT, old: *mut StackT) -> i32;
            fn _exit(code: i32) -> !;
        }

        const SIGSEGV: i32 = 11;
        const SA_SIGINFO: i32 = 4;
        const SA_ONSTACK: i32 = 0x0800_0000;

        extern "C" fn on_segv(_sig: i32, info: *const u8, _context: *mut u8) {
            // SAFETY: the kernel passes a valid `siginfo_t`; `si_addr` sits at
            // byte 16 on x86-64.
            let addr = unsafe { *(info.add(16) as *const usize) };
            let hit = (GUARD_LO.load(Ordering::Relaxed)..GUARD_HI.load(Ordering::Relaxed))
                .contains(&addr);
            // SAFETY: `_exit` is async-signal-safe.
            unsafe { _exit(if hit { super::HIT_GUARD } else { 1 }) }
        }

        /// Install the handler on an alternate stack of the calling thread.
        pub fn install() {
            let alt = Box::leak(vec![0u8; 64 * 1024].into_boxed_slice());
            let ss = StackT {
                sp: alt.as_mut_ptr(),
                flags: 0,
                size: alt.len(),
            };
            let act = SigAction {
                handler: on_segv as *const () as usize,
                mask: [0; 16],
                flags: SA_SIGINFO | SA_ONSTACK,
                restorer: 0,
            };
            // SAFETY: both structs are initialized and in glibc's layout.
            unsafe {
                assert_eq!(sigaltstack(&ss, std::ptr::null_mut()), 0);
                assert_eq!(sigaction(SIGSEGV, &act, std::ptr::null_mut()), 0);
            }
        }
    }

    /// The inaccessible mapping directly below the writable mapping that holds
    /// `addr`, from `/proc/self/maps` (empty if there is none).
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn guard_below(addr: usize) -> std::ops::Range<usize> {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let regions: Vec<(usize, usize, String)> = maps
            .lines()
            .map(|line| {
                let mut fields = line.split_whitespace();
                let (lo, hi) = fields.next().unwrap().split_once('-').unwrap();
                let perms = fields.next().unwrap().to_string();
                let parse = |h| usize::from_str_radix(h, 16).unwrap();
                (parse(lo), parse(hi), perms)
            })
            .collect();
        let Some(stack) = regions
            .iter()
            .position(|(lo, hi, _)| (*lo..*hi).contains(&addr))
        else {
            return 0..0;
        };
        match stack.checked_sub(1).map(|below| &regions[below]) {
            Some((lo, hi, perms)) if *hi == regions[stack].0 && perms.starts_with("---") => {
                *lo..*hi
            }
            _ => 0..0,
        }
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn recurse(depth: u64) -> u64 {
        let frame = std::hint::black_box([depth; 64]);
        if std::hint::black_box(true) {
            frame[0] + recurse(depth + 1) + frame[63]
        } else {
            0
        }
    }

    /// A task that recurses without bound dies on its own guard page: the
    /// test re-runs itself in a child process, whose SIGSEGV handler checks
    /// that the faulting address lies in the inaccessible page directly below
    /// the task's stack.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn a_stack_overflow_faults_on_the_tasks_guard_page() {
        const NAME: &str = "executor::tests::a_stack_overflow_faults_on_the_tasks_guard_page";
        if std::env::var_os(GUARD_CHILD).is_some() {
            segv::install();
            // A second task whose stack is mapped next to the first one's.
            let exec = DetExecutor::new(2, 0, 0);
            let e = &*exec;
            let overflow = TaskSpec::new(TEST_STACK, move || {
                let here = 0u8;
                let guard = guard_below(std::hint::black_box(&here) as *const u8 as usize);
                segv::GUARD_LO.store(guard.start, Ordering::Relaxed);
                segv::GUARD_HI.store(guard.end, Ordering::Relaxed);
                std::hint::black_box(recurse(0));
            });
            let bystander = TaskSpec::new(TEST_STACK, move || e.yield_now(1, 1));
            let _ = exec.run_tasks(vec![overflow, bystander]);
            std::process::exit(2);
        }
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([NAME, "--exact", "--nocapture", "--test-threads=1"])
            .env(GUARD_CHILD, "1")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .unwrap();
        assert_eq!(
            status.code(),
            Some(HIT_GUARD),
            "the overflowing task must fault inside its own guard page ({status})"
        );
    }
}
