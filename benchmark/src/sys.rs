//! The few Linux calls the benchmark needs: CPU pinning, `getrusage`, peak RSS.
//!
//! Pinning is the benchmark's noise control. The simulator runs one task at a
//! time and hands the run token between parked OS carriers on every access; on
//! two cores each hand-off is a cross-core futex wake whose latency depends on
//! where the woken carrier lands. Pinned to one CPU the same run is steady to a
//! few percent and loses nothing, because no two carriers ever run at once.

/// `cpu_set_t`: 1024 CPUs as a bit mask.
pub type CpuSet = [u64; 16];

/// Linux x86-64 / aarch64 `struct rusage`: two `timeval`s, then 14 longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    longs: [i64; 14],
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Make the allocator's behaviour the same from run to run: one arena, and freed
/// heap is never handed back to the kernel.
///
/// Every repetition builds and drops a cluster of tens of megabytes on fresh
/// carrier threads. Left alone, glibc gives the carriers arenas of their own
/// and trims the heap when whatever sits at its top happens to be free, so
/// peak RSS (`bh_8t`: 14-19 MB) and set-up time (`sor_8t`: 6 ms with the heap
/// kept, 18 ms page-faulting it back in) depend on luck. One task runs at a
/// time, so a single arena loses nothing (`bh_8t`: 9.4-9.6 MB, same speed).
/// Call before anything is freed and before any thread exists.
pub fn steady_heap() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only stores the values in the allocator's settings; this
    // runs on the main thread before any other thread exists.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_ARENA_MAX, 1);
    }
}

/// The calling thread's affinity mask (threads spawned later inherit it).
pub fn affinity() -> Result<CpuSet, String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc == 0 {
        Ok(set)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Set the calling thread's affinity mask.
pub fn set_affinity(set: &CpuSet) -> Result<(), String> {
    // SAFETY: `set` is a live buffer of exactly the size passed; the kernel only
    // reads it. Pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The mask holding only `cpu`.
///
/// # Panics
/// If `cpu` does not fit a `cpu_set_t`.
pub fn single_cpu(cpu: usize) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Pin the calling thread to the CPU it is running on; returns that CPU. Call
/// before any thread is spawned.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    // SAFETY: no arguments, no memory touched.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu)
        .map_err(|_| format!("sched_getcpu: {}", std::io::Error::last_os_error()))?;
    if cpu >= 64 * 16 {
        return Err(format!("cpu {cpu} does not fit a cpu_set_t"));
    }
    set_affinity(&single_cpu(cpu))?;
    Ok(cpu)
}

/// Process-wide resource use so far, over every thread including exited ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            longs: [0; 14],
        };
        // SAFETY: `ru` is a live, writable `struct rusage` (layout above matches
        // the kernel ABI on 64-bit Linux); 0 is RUSAGE_SELF.
        if unsafe { getrusage(0, &mut ru) } != 0 {
            return Usage::default();
        }
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Usage {
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            // ru_nvcsw and ru_nivcsw are the last two longs.
            ctx_switches: (ru.longs[12] + ru.longs[13]) as u64,
        }
    }

    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Milliseconds the hypervisor has kept `cpu` from this VM since boot (`steal`
/// in `/proc/stat`, 10 ms resolution); 0 if the kernel does not report it.
pub fn steal_ms(cpu: usize) -> u64 {
    let label = format!("cpu{cpu}");
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .find(|l| l.split_whitespace().next() == Some(label.as_str()))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|jiffies| jiffies.parse::<u64>().ok())
        })
        .map_or(0, |jiffies| jiffies * 10)
}
