//! Layer probes: each calls one layer's public API in isolation and reports the
//! host cost of one operation. Sizes come from the traced run's own counts, so a
//! probe measures the regime the workload ran in (object size, carrier count,
//! objects per round), not an arbitrary one.
//!
//! Probes run pinned, after the timed repetitions, and feed per-layer metrics
//! only; no end-to-end number depends on them.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use jessy_core::{
    Oal, OalEntry, ProfilerConfig, ProfilerShared, StackSampler, StackSamplingConfig, TcmBuilder,
    ThreadProfiler,
};
use jessy_gos::protocol::ConsistencyModel;
use jessy_gos::{ClassId, CostModel, Gos, GosConfig, ObjectId, ThreadSpace};
use jessy_net::{
    ClockBoard, DetExecutor, Fabric, LatencyModel, Mailbox, MsgClass, NodeId, ThreadId,
};
use jessy_stack::{JavaStack, MethodId, Slot};

use crate::sys::Usage;

/// Operations a probe times at most, so the probe phase stays a few seconds.
const MAX_OPS: u64 = 1 << 20;

fn per_op_ns(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Nanoseconds per operation over `passes` calls of `pass`, each doing
/// `ops_per_pass` operations, after one untimed call that warms the caches.
fn per_op_ns_warm(passes: u64, ops_per_pass: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    let start = Instant::now();
    for _ in 0..passes {
        pass();
    }
    per_op_ns(start, passes * ops_per_pass as u64)
}

/// What one `DetExecutor::yield_now` costs with a given number of carriers.
#[derive(Debug, Clone, Copy)]
pub struct Handoff {
    pub ns_per_yield: f64,
    /// Context switches the kernel counted per yield: how a run's own
    /// `getrusage` count converts into hand-offs (zero with one carrier, whose
    /// yields re-pick itself without parking).
    pub ctx_switches_per_yield: f64,
}

/// `carriers` tasks whose clocks advance in lockstep, so every yield hands the
/// token to another parked OS thread (with one carrier: the self re-pick path).
pub fn executor_handoff(carriers: usize, yields: u64) -> Handoff {
    let per_task = (yields.min(MAX_OPS) / carriers as u64).max(64);
    let exec = DetExecutor::new(carriers, 1, 0);
    let usage_before = Usage::now();
    let start = Instant::now();
    std::thread::scope(|s| {
        for task in 0..carriers {
            let exec = Arc::clone(&exec);
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn_scoped(s, move || {
                    exec.register_current(task);
                    for step in 1..=per_task {
                        exec.yield_now(task, step);
                    }
                    exec.finish(task);
                })
                .expect("spawn probe carrier");
        }
    });
    let ops = per_task * carriers as u64;
    Handoff {
        ns_per_yield: per_op_ns(start, ops),
        ctx_switches_per_yield: Usage::now().since(&usage_before).ctx_switches as f64 / ops as f64,
    }
}

/// Host nanoseconds per one-way `Fabric::send` of `payload_bytes` (accounting,
/// latency model, clock charge).
pub fn fabric_send_ns(messages: u64, payload_bytes: usize) -> f64 {
    let fabric = Fabric::new(8, LatencyModel::fast_ethernet()).expect("8-node fabric");
    let board = ClockBoard::new(1);
    let clock = board.handle(ThreadId(0));
    let n = messages.clamp(1024, MAX_OPS);
    let start = Instant::now();
    for i in 0..n {
        let to = NodeId(1 + (i % 7) as u16);
        black_box(fabric.send(NodeId(0), to, MsgClass::ObjData, payload_bytes, &clock));
    }
    per_op_ns(start, n)
}

/// Host nanoseconds per `MailboxSender::post`, drained in batches as the master
/// does.
pub fn mailbox_post_ns(posts: u64) -> f64 {
    let mailbox: Mailbox<u64> = Mailbox::new(NodeId::MASTER);
    let sender = mailbox.sender();
    let n = posts.clamp(1024, MAX_OPS);
    let start = Instant::now();
    for i in 0..n {
        black_box(sender.post(NodeId(1), i));
        if i % 64 == 63 {
            black_box(mailbox.drain().len());
        }
    }
    per_op_ns(start, n)
}

/// A two-node `Gos` with one thread on node 0: `home` objects live there,
/// `remote` ones on node 1 and are already faulted into the thread's cache.
struct GosRig {
    gos: Gos,
    space: ThreadSpace,
    board: Arc<ClockBoard>,
    class: ClassId,
    home: Vec<ObjectId>,
    remote: Vec<ObjectId>,
}

impl GosRig {
    fn new(objects: usize, words: u32) -> GosRig {
        let gos = Gos::new(GosConfig {
            n_nodes: 2,
            n_threads: 1,
            latency: LatencyModel::fast_ethernet(),
            costs: CostModel::pentium4_2ghz(),
            prefetch_depth: 0,
            consistency: ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let class = gos.classes().register_scalar("Probe", words);
        let mut space = ThreadSpace::new(ThreadId(0));
        let alloc = |node| {
            (0..objects)
                .map(|_| gos.alloc_scalar(NodeId(node), class, &clock, None).id)
                .collect::<Vec<_>>()
        };
        let home = alloc(0);
        let remote = alloc(1);
        gos.freeze_object_table();
        for &o in home.iter().chain(&remote) {
            gos.read(&mut space, NodeId(0), o, &clock, |_| {});
        }
        GosRig {
            gos,
            space,
            board,
            class,
            home,
            remote,
        }
    }
}

/// Host cost of the `Gos` access path on objects of `words` payload words.
pub struct GosAccess {
    pub home_hit_ns: f64,
    pub cache_hit_ns: f64,
    /// Arm a false-invalid trap, then take it.
    pub armed_trap_ns: f64,
    /// Write a cached remote object and flush it: twin, diff, `DiffUpdate` home.
    pub write_diff_ns: f64,
}

pub fn gos_access(accesses: u64, words: u32) -> GosAccess {
    // At most 4 MiB of payload per population, so small objects stay cache-resident
    // as they are in the workloads and 16 KB rows do not.
    let objects = (4 << 20) / (words as usize * 8).max(1);
    let objects = objects.clamp(64, 4096);
    let mut rig = GosRig::new(objects, words);
    let clock = rig.board.handle(ThreadId(0));
    let passes = (accesses.min(MAX_OPS) / objects as u64).max(4);

    let mut sweep = |objs: &[ObjectId], armed: bool| {
        let mut sum = 0.0;
        let ns = per_op_ns_warm(passes, objs.len(), || {
            if armed {
                black_box(rig.space.arm_traps(objs.iter().copied()));
            }
            for &o in objs {
                sum += rig
                    .gos
                    .read(&mut rig.space, NodeId(0), o, &clock, |d| d[0])
                    .0;
            }
        });
        black_box(sum);
        ns
    };
    let home = rig.home.clone();
    let remote = rig.remote.clone();
    let home_hit_ns = sweep(&home, false);
    let cache_hit_ns = sweep(&remote, false);
    let armed_trap_ns = sweep(&home, true);

    let diff_passes = passes.min(16);
    let start = Instant::now();
    for pass in 0..diff_passes {
        for &o in &remote {
            rig.gos
                .write(&mut rig.space, NodeId(0), o, &clock, |d| d[0] = pass as f64);
        }
        black_box(rig.gos.flush_thread(&mut rig.space, NodeId(0), &clock));
    }
    let write_diff_ns = per_op_ns(start, diff_passes * objects as u64);

    GosAccess {
        home_hit_ns,
        cache_hit_ns,
        armed_trap_ns,
        write_diff_ns,
    }
}

/// Host nanoseconds `ThreadProfiler::on_access` adds to a `Gos::read`, under
/// `config`, with an interval closed and reopened after each pass over the
/// objects (so the at-most-once log and the trap re-arming both run).
pub fn profiler_on_access_ns(accesses: u64, words: u32, config: &ProfilerConfig) -> f64 {
    const OBJECTS: usize = 4096;
    let prof = ProfilerShared::new(*config);
    let mut rig = GosRig::new(OBJECTS, words);
    prof.register_class(rig.class, words as usize * 8);
    for &o in rig.home.iter().chain(&rig.remote) {
        prof.tag_new_object(&rig.gos.object(o));
    }
    let clock = rig.board.handle(ThreadId(0));
    let mut profiler = ThreadProfiler::new(Arc::clone(&prof), ThreadId(0));
    let passes = (accesses.min(MAX_OPS) / OBJECTS as u64).max(4);
    let objs = rig.remote.clone();

    let mut sweep = |with_profiler: bool| {
        let mut sum = 0.0;
        let ns = per_op_ns_warm(passes, OBJECTS, || {
            if with_profiler {
                profiler.open_interval(&mut rig.space);
            }
            for &o in &objs {
                let (v, out) = rig.gos.read(&mut rig.space, NodeId(0), o, &clock, |d| d[0]);
                if with_profiler {
                    profiler.on_access(&rig.gos, &mut rig.space, &out, &clock);
                }
                sum += v;
            }
            if with_profiler {
                black_box(profiler.close_interval());
            }
        });
        black_box(sum);
        ns
    };
    let bare = sweep(false);
    let profiled = sweep(true);
    (profiled - bare).max(0.0)
}

/// Host milliseconds per master round when `oal_log` (the traced run's own OALs)
/// is replayed through `TcmBuilder::ingest` + `close_round`, one round per
/// `intervals_per_round` intervals.
pub fn tcm_replay_round_ms(oal_log: &[Oal], n_threads: usize, intervals_per_round: u64) -> f64 {
    if oal_log.is_empty() {
        return 0.0;
    }
    let round_of = |oal: &Oal| oal.interval / intervals_per_round.max(1);
    let mut by_round: Vec<&Oal> = oal_log.iter().collect();
    by_round.sort_by_key(|o| (round_of(o), o.thread.index()));
    let start = Instant::now();
    let mut builder = TcmBuilder::new(n_threads);
    let rounds = by_round
        .chunk_by(|a, b| round_of(a) == round_of(b))
        .map(|round| {
            for oal in round {
                builder.ingest(oal);
            }
            black_box(builder.close_round().objects);
        })
        .count();
    start.elapsed().as_secs_f64() * 1e3 / rounds as f64
}

/// Host milliseconds per master round at N = 1024 threads, 16 K objects each
/// shared by two neighbouring threads: the master-bound regime no workload here
/// reaches.
pub fn tcm_synthetic_round_ms() -> f64 {
    const N: usize = 1024;
    const M: usize = 16 * 1024;
    let oals: Vec<Oal> = (0..N)
        .map(|t| Oal {
            thread: ThreadId(t as u32),
            interval: 0,
            entries: (0..M)
                .filter(|o| o % N == t || (o + 1) % N == t)
                .map(|o| OalEntry {
                    obj: ObjectId(o as u32),
                    class: ClassId(0),
                    bytes: 64,
                })
                .collect(),
        })
        .collect();
    const ROUNDS: u32 = 5;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let mut builder = TcmBuilder::new(N);
        for oal in &oals {
            builder.ingest(oal);
        }
        black_box(builder.close_round().objects);
    }
    start.elapsed().as_secs_f64() * 1e3 / f64::from(ROUNDS)
}

/// Host nanoseconds per `StackSampler::sample` on a 16-frame stack with one
/// temporary frame churned per sample, as a running program does.
pub fn stack_sample_ns(samples: u64, config: StackSamplingConfig) -> f64 {
    let board = ClockBoard::new(1);
    let clock = board.handle(ThreadId(0));
    let costs = CostModel::pentium4_2ghz();
    let mut stack = JavaStack::new();
    for d in 0..16 {
        stack.push_raw(MethodId(d), 8);
        stack.set_local(0, Slot::Ref(ObjectId(d)));
    }
    let mut sampler = StackSampler::new(config);
    let n = samples.clamp(1024, MAX_OPS);
    let start = Instant::now();
    for _ in 0..n {
        stack.push_raw(MethodId(99), 8);
        sampler.sample(&mut stack, &clock, &costs);
        stack.pop();
    }
    black_box(sampler.live_samples());
    per_op_ns(start, n)
}
