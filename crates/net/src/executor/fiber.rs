//! Tasks on their own stacks, switched in user space (x86_64 SysV, Linux).
//!
//! [`DetExecutor::run_tasks`] maps one stack per task and runs every task on
//! the calling OS thread, the *runner*. A hand-off is one call of the switch
//! routine below: it saves the callee-saved registers (rbx, rbp, r12–r15),
//! MXCSR and the x87 control word on the running stack, stores the stack
//! pointer, loads the target's and restores the same set from there. Every
//! other register is caller-saved across the `extern "C"` call the compiler
//! sees, so it is spilled and reloaded as around any call.
//!
//! Invariants (DESIGN.md §15):
//! - A task's first switch-in enters `task_entry` with a 16-byte aligned stack.
//!   The body runs under `catch_unwind`, so no panic unwinds past the entry,
//!   and the entry never returns: it retires the task and switches away.
//! - No switch happens while `std::thread::panicking()`: the panic count is
//!   the OS thread's, so another task resumed mid-unwind would inherit it.
//! - No lock is held across a scheduling point: every task shares the one OS
//!   thread, so a second `lock` of a held mutex would never return.
//! - Each stack has an inaccessible guard page at its low end, so an overflow
//!   faults instead of running into another task's stack.

use std::cell::Cell;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering;

use super::{DetExecutor, TaskSpec, TaskState};

/// The inaccessible page at the low end of every task stack.
const GUARD_BYTES: usize = 4096;

/// MXCSR (all exceptions masked, round to nearest) in the low 32 bits and the
/// x87 control word (64-bit precision, exceptions masked) above it: the
/// values the SysV ABI gives a new thread, restored by a task's first switch-in.
const INITIAL_FP_CONTROL: u64 = 0x1F80 | (0x037F << 32);

core::arch::global_asm!(
    ".pushsection .text.jessy_executor_switch,\"ax\",@progbits",
    ".globl jessy_executor_switch",
    ".hidden jessy_executor_switch",
    ".type jessy_executor_switch,@function",
    ".p2align 4",
    // rdi: where to store the running stack's pointer; rsi: the stack to resume.
    "jessy_executor_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr dword ptr [rsp]",
    "fnstcw word ptr [rsp + 4]",
    "mov qword ptr [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr dword ptr [rsp]",
    "fldcw word ptr [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size jessy_executor_switch, . - jessy_executor_switch",
    // A new task's first switch-in returns here, with its entry in r13 and the
    // entry's argument in r12. The return address is undefined, so unwinders
    // and backtraces stop at this frame.
    ".globl jessy_executor_task_start",
    ".hidden jessy_executor_task_start",
    ".type jessy_executor_task_start,@function",
    ".p2align 4",
    "jessy_executor_task_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size jessy_executor_task_start, . - jessy_executor_task_start",
    ".popsection",
);

extern "C" {
    fn jessy_executor_switch(save: *mut *mut u8, load: *mut u8);
    fn jessy_executor_task_start();
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_FAILED: *mut u8 = !0usize as *mut u8;

/// One task's stack: a private anonymous mapping whose lowest page is the
/// guard. Pages are committed as the task touches them.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    /// Map `bytes` of stack (rounded up to whole pages) above a guard page.
    fn map(bytes: usize) -> io::Result<Stack> {
        let len = bytes.max(GUARD_BYTES).next_multiple_of(GUARD_BYTES) + GUARD_BYTES;
        // SAFETY: a fresh private anonymous mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                -1,
                0,
            )
        };
        if base == MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        let stack = Stack { base, len };
        // SAFETY: the first page of the mapping just made, which nothing uses yet.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// Addresses of the usable stack, above the guard page.
    fn range(&self) -> std::ops::Range<usize> {
        self.base as usize + GUARD_BYTES..self.base as usize + self.len
    }

    /// The stack pointer of a task that has not run yet: its first switch-in
    /// pops the frame below, then `ret`s into `jessy_executor_task_start`
    /// with `rsp` 16-byte aligned, which calls `entry(arg)`.
    fn initial_sp(&self, entry: extern "C" fn(*mut u8) -> !, arg: *mut u8) -> *mut u8 {
        let frame: [u64; 8] = [
            INITIAL_FP_CONTROL,
            0,                                             // r15
            0,                                             // r14
            entry as usize as u64,                         // r13
            arg as u64,                                    // r12
            0,                                             // rbx
            0,                                             // rbp: the frame chain ends here
            jessy_executor_task_start as *const () as u64, // return address
        ];
        // The mapping's end is page-aligned. The return address sits 24 bytes
        // below it, so `rsp` is 16 bytes below it, aligned, once it is popped.
        // SAFETY: the ten words below the end lie inside the writable part of
        // the mapping (at least one page).
        unsafe {
            let top = self.base.add(self.len) as *mut u64;
            let sp = top.sub(10);
            ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
            sp as *mut u8
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping made in `map`; no task runs on it any more.
        unsafe { munmap(self.base, self.len) };
    }
}

/// What a task's entry reads. Lives in `run_on_stacks`' frame, which returns
/// only once every task has left its entry for good.
struct Launch<'a> {
    exec: &'a DetExecutor,
    task: usize,
    body: Cell<Option<Box<dyn FnOnce() + 'a>>>,
    outcome: Cell<Option<std::thread::Result<()>>>,
}

/// The first frame of every task: run the body once the task holds the token
/// (panicking with the poison message if it never will), record how it ended,
/// retire the task and switch away for good.
extern "C" fn task_entry(arg: *mut u8) -> ! {
    // SAFETY: `arg` is the task's `Launch`, which outlives the task.
    let launch = unsafe { &*(arg as *const Launch<'_>) };
    let (exec, task) = (launch.exec, launch.task);
    let body = launch.body.take();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        exec.wait_for_token(task);
        if let Some(body) = body {
            body();
        }
    }));
    launch.outcome.set(Some(outcome));
    let (g, next) = exec.retire(task);
    drop(g);
    let mut never_resumed = ptr::null_mut();
    exec.switch_away(&mut never_resumed, next);
    // Nothing switches back to a retired task.
    std::process::abort()
}

impl DetExecutor {
    /// Map a stack per task, then run every task on the calling thread until
    /// each has retired. A task that blocks with nothing else runnable hands
    /// the token back here: the runner resumes whoever is dispatched next,
    /// parks while only outside wake-ups can help, and once the executor is
    /// poisoned resumes each live task so it unwinds on its own stack.
    pub(super) fn run_on_stacks(
        &self,
        tasks: Vec<TaskSpec<'_>>,
    ) -> io::Result<Vec<std::thread::Result<()>>> {
        let stacks = tasks
            .iter()
            .map(|t| Stack::map(t.stack_bytes))
            .collect::<io::Result<Vec<_>>>()?;
        let launches: Box<[Launch<'_>]> = tasks
            .into_iter()
            .enumerate()
            .map(|(task, spec)| Launch {
                exec: self,
                task,
                body: Cell::new(Some(spec.body)),
                outcome: Cell::new(None),
            })
            .collect();
        let runner = std::thread::current();
        for ((carrier, stack), launch) in self.carriers.iter().zip(&stacks).zip(&launches[..]) {
            let arg = launch as *const Launch<'_> as *mut u8;
            carrier
                .sp
                .store(stack.initial_sp(task_entry, arg), Ordering::Relaxed);
            carrier
                .thread
                .set(runner.clone())
                .expect("a NotStarted task has no carrier yet");
        }
        self.start_all(stacks.iter().map(Stack::range));
        loop {
            let g = self.state.lock();
            let resume = if self.is_poisoned() {
                (0..g.tasks.len()).find(|&t| g.tasks[t].state != TaskState::Finished)
            } else if let Some(task) = g.running {
                Some(task)
            } else if g.tasks.iter().all(|s| s.state == TaskState::Finished) {
                None
            } else {
                // Only tasks blocked on an outside wake-up are left; that
                // wake-up dispatches one and unparks this thread.
                drop(g);
                std::thread::park();
                continue;
            };
            drop(g);
            let Some(task) = resume else { break };
            let load = self.carriers[task].sp.load(Ordering::Relaxed);
            // SAFETY: `load` is a context saved by a switch or made by
            // `initial_sp`, on a stack in `stacks`, which is still mapped.
            unsafe { jessy_executor_switch(self.runner_sp.as_ptr(), load) };
        }
        Ok(launches
            .iter()
            .map(|l| l.outcome.take().expect("every task ran to its end"))
            .collect())
    }

    /// Register every task, on its stack, at once for `run_tasks` and make
    /// the first pick; the runner switches to it.
    fn start_all(&self, stacks: impl Iterator<Item = std::ops::Range<usize>>) {
        let mut g = self.state.lock();
        assert_eq!(g.registered, 0, "tasks registered before run_tasks");
        for (task, stack) in stacks.enumerate() {
            g.tasks[task].stack = stack;
            g.tasks[task].state = TaskState::Runnable;
            g.runnable += 1;
            self.push_runnable(&mut g, task);
        }
        g.registered = g.tasks.len();
        g.started = true;
        self.dispatch(&mut g);
    }

    /// Switch from the running task (its stack pointer saved in `*save`) to
    /// `next`, or back to the runner when nothing was dispatched. Returns once
    /// a later switch resumes the task.
    pub(super) fn switch_away(&self, save: *mut *mut u8, next: Option<usize>) {
        if std::thread::panicking() {
            eprintln!("jessy executor: a scheduling point was reached while unwinding a panic");
            std::process::abort();
        }
        let load = match next {
            Some(task) => self.carriers[task].sp.load(Ordering::Relaxed),
            None => self.runner_sp.load(Ordering::Relaxed),
        };
        // SAFETY: `load` is a context saved by a switch (the runner's, or a
        // suspended task's) or made by `initial_sp`, and its stack is mapped
        // until `run_on_stacks` returns, after every task has retired.
        unsafe { jessy_executor_switch(save, load) };
    }
}
