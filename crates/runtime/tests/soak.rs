//! Time-compressed scale soak: ten thousand simulated application threads on one
//! box. Each JThread is an executor task on a stack of its own, and every task
//! runs on the OS thread that called `run`: the whole run is a single token
//! hopping through 10 001 tasks in virtual-time order, and it starts no OS
//! thread. A plain test, so `cargo test --workspace` runs it. Only where tasks
//! run on their own stacks: elsewhere each task gets an OS carrier, and the
//! soak would start 10 000 threads.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jessy_core::{ProfilerConfig, SamplingRate};
use jessy_gos::{CostModel, ObjectId};
use jessy_net::{LatencyModel, NodeId};
use jessy_runtime::Cluster;

const N_NODES: usize = 4;
const N_THREADS: usize = 10_000;

/// The process's OS thread count, from `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// 10k threads, 4 nodes, 3 profiled rounds each: the run completes on the OS
/// thread that started it, the master closes rounds over the full population
/// and the report sees every thread.
#[test]
fn ten_thousand_threads_complete_a_profiled_run() {
    let mut cluster = Cluster::builder()
        .nodes(N_NODES)
        .threads(N_THREADS)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::free())
        .profiler({
            let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
            config.intervals_per_round = 1;
            config.round_deadline_intervals = Some(3);
            config
        })
        .build();
    // One scalar per node; every thread reads its home node's object, so the
    // traffic that scales with the population is OAL posting and barrier control.
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        (0..N_NODES)
            .map(|n| ctx.alloc_scalar_at(NodeId(n as u16), class).id)
            .collect::<Vec<ObjectId>>()
    });
    let objs = Arc::new(objs);
    let threads_before = os_threads();
    let most_during = Arc::new(AtomicUsize::new(0));
    let most = Arc::clone(&most_during);
    let start = Instant::now();
    cluster.run(move |jt| {
        if jt.thread_id().index() % 1_000 == 0 {
            most.fetch_max(os_threads(), Ordering::Relaxed);
        }
        let mine = objs[jt.node().index()];
        for _ in 0..3 {
            jt.read(mine, |_| {});
            jt.barrier();
        }
    });
    println!("{N_THREADS}-thread soak: run took {:.2?}", start.elapsed());
    let most_during = most_during.load(Ordering::Relaxed);
    assert!(most_during > 0, "the task bodies ran");
    assert!(
        most_during <= threads_before,
        "the run started OS threads: {most_during} during it, {threads_before} before"
    );

    let report = cluster.report();
    assert_eq!(report.n_threads, N_THREADS);
    let master = cluster.master_output().expect("master ran to completion");
    assert!(master.rounds > 0, "rounds closed at scale");
    assert!(master.tcm.total() > 0.0, "the profile saw the population");
}
