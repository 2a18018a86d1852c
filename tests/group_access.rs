//! `JThread::update`, the zero-copy group access, against the sequence it
//! replaces: `read` of each read member, then `write` of the target, with the
//! read payloads copied out (DESIGN.md §15).
//!
//! * A red-black stencil run both ways must agree on everything observable:
//!   the journal bytes, the run report (TCM, recorded OALs, profiler and
//!   protocol counters), every thread's clock, the GOS counters and every
//!   final payload. The stencil is SOR's at `--scale small` on 4 nodes and 8
//!   threads, so its groups mix cache copies, private home hits and shared
//!   home hits whose scheduling points fall inside the group; a slow-node
//!   window covers the slow charge, and a lock-guarded step covers groups
//!   between lock intervals.
//! * A home-served read member written by another task at a scheduling point
//!   inside the group still reads as its check saw it.
//! * A member named twice panics, naming the object.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use jessy::net::SlowWindow;
use jessy::prelude::*;
use jessy::workloads::sor::{self, SorConfig, SorHandles};
use serde_json::Value;

const NODES: usize = 4;
const THREADS: usize = 8;

/// The group through `JThread::update`, or through the sequence it replaces.
fn group<const N: usize>(
    jt: &mut JThread,
    grouped: bool,
    target: ObjectId,
    reads: [ObjectId; N],
    f: impl FnOnce(&mut [f64], [&[f64]; N]),
) {
    if grouped {
        jt.update(target, reads, f);
    } else {
        let copies: [Vec<f64>; N] = reads.map(|obj| jt.read(obj, |d| d.to_vec()));
        jt.write(target, |d| f(d, std::array::from_fn(|i| &copies[i][..])));
    }
}

/// SOR's red-black sweep, with one lock-guarded accumulation per round into
/// row 0 from the first interior rows of the thread's block.
fn stencil(jt: &mut JThread, cfg: &SorConfig, h: &SorHandles, lock: LockId, grouped: bool) {
    let rows = sor::rows_of(cfg, THREADS, jt.thread_id().index());
    for round in 0..cfg.rounds {
        jt.yield_now();
        for color in 0..2usize {
            for i in rows.clone().filter(|&i| i > 0 && i < cfg.n - 1) {
                let reads = [h.rows[i - 1], h.rows[i + 1]];
                group(jt, grouped, h.rows[i], reads, |row, [up, down]| {
                    let mut j = 1 + (i + color) % 2;
                    while j < row.len() - 1 {
                        let nbr = up[j] + down[j] + row[j - 1] + row[j + 1];
                        row[j] = -0.25 * row[j] + 0.3125 * nbr;
                        j += 2;
                    }
                });
                jt.compute(2 * cfg.m as u64);
            }
            jt.barrier();
        }
        let lo = rows.start.max(1);
        if lo + 1 < cfg.n - 1 {
            jt.lock(lock);
            group(jt, grouped, h.rows[0], [h.rows[lo], h.rows[lo + 1]], |acc, [a, b]| {
                acc[round % acc.len()] += a[1] + b[2];
            });
            jt.unlock(lock);
        }
    }
    jt.barrier();
}

/// Everything one run of [`stencil`] leaves behind that the two forms must
/// agree on.
#[derive(Debug, PartialEq)]
struct Observed {
    journal: String,
    report: Value,
    clocks: Vec<u64>,
    counters: String,
    payloads: Vec<Vec<f64>>,
}

fn run_stencil(grouped: bool) -> Observed {
    let mut profiler = ProfilerConfig::tracking_at(SamplingRate::NX(4));
    profiler.record_oals = true;
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .profiler(profiler)
        .faults(FaultPlan {
            slow: vec![SlowWindow {
                node: NodeId(1),
                from_ns: 200_000,
                until_ns: Some(2_000_000),
                factor: 3.0,
            }],
            ..FaultPlan::default()
        })
        .trace(sink.clone())
        .build();
    let cfg = SorConfig::small();
    let (h, lock) = cluster.init(|ctx| (sor::setup(ctx, &cfg, THREADS, NODES), ctx.register_lock()));
    let h = Arc::new(h);
    let body = Arc::clone(&h);
    cluster.run(move |jt| stencil(jt, &cfg, &body, lock, grouped));

    let shared = cluster.shared();
    let json = serde_json::to_string(&cluster.report()).expect("report serializes");
    let mut report: Value = serde_json::from_str(&json).expect("report parses back");
    strip_host_time(&mut report);
    Observed {
        journal: to_json_lines(&sink.sorted_events()),
        report,
        clocks: (0..THREADS).map(|t| shared.board.read(ThreadId(t as u32))).collect(),
        counters: format!("{:?}", shared.gos.proto_counters()),
        payloads: h.rows.iter().map(|&r| shared.gos.object_ref(r).snapshot_home()).collect(),
    }
}

/// Drop the two host wall-clock fields of a report.
fn strip_host_time(v: &mut Value) {
    match v {
        Value::Object(pairs) => {
            pairs.retain(|(k, _)| k != "wall_ns" && k != "tcm_build_real_ns");
            pairs.iter_mut().for_each(|(_, child)| strip_host_time(child));
        }
        Value::Array(items) => items.iter_mut().for_each(strip_host_time),
        _ => {}
    }
}

#[test]
fn update_is_its_read_read_write_sequence() {
    let sequence = run_stencil(false);
    let grouped = run_stencil(true);
    assert!(!sequence.journal.is_empty(), "the run journaled nothing");
    assert!(
        sequence.journal.contains("FalseInvalidTrap") && sequence.journal.contains("ObjectFault"),
        "the stencil must trap and fault inside its groups"
    );
    assert_eq!(sequence.journal, grouped.journal, "journals differ");
    assert_eq!(sequence.report, grouped.report, "reports differ");
    assert_eq!(sequence.clocks, grouped.clocks, "thread clocks differ");
    assert_eq!(sequence.counters, grouped.counters, "GOS counters differ");
    assert_eq!(sequence.payloads, grouped.payloads, "final payloads differ");
}

#[test]
fn a_home_member_written_at_a_scheduling_point_inside_the_group_reads_as_checked() {
    // Two threads on node 0. Thread 0 holds `x` alone (its hits are private,
    // no scheduling point before its check) and then reads `y`, homed
    // elsewhere: a first touch, so a scheduling point falls between `x`'s
    // check and the group's closure. Thread 1, behind thread 0 in virtual
    // time, runs there and overwrites `x`'s home payload.
    let mut cluster = Cluster::builder().nodes(2).threads(2).placement(vec![NodeId(0); 2]).build();
    let (x, y, target) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Cell", 1);
        (
            ctx.alloc_scalar_at(NodeId(0), class).id,
            ctx.alloc_scalar_at(NodeId(1), class).id,
            ctx.alloc_scalar_at(NodeId(0), class).id,
        )
    });
    let flag = Arc::new(AtomicBool::new(false));
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let out = Arc::clone(&seen);
    cluster.run(move |jt| {
        if jt.thread_id().0 == 1 {
            jt.compute(1_000);
            jt.write(x, |d| d[0] = 99.0);
            flag.store(true, Ordering::SeqCst);
            return;
        }
        jt.write(x, |d| d[0] = 1.0);
        jt.write(target, |_| {});
        jt.compute(1_000_000);
        jt.update(target, [x, y], |t, [xs, _]| {
            *out.lock() = Some((xs[0], flag.load(Ordering::SeqCst)));
            t[0] = xs[0];
        });
    });
    assert_eq!(
        *seen.lock(),
        Some((1.0, true)),
        "(value read, overwritten before the closure ran)"
    );
    let gos = &cluster.shared().gos;
    assert_eq!(gos.object_ref(x).snapshot_home()[0], 99.0, "the other task's write landed");
    assert_eq!(gos.object_ref(target).snapshot_home()[0], 1.0);
}

#[test]
#[should_panic(expected = "o1 appears twice in one group access")]
fn a_member_named_twice_panics() {
    let cluster = Cluster::builder().nodes(1).threads(1).build();
    let objs: Vec<ObjectId> = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Cell", 1);
        (0..3).map(|_| ctx.alloc_scalar_at(NodeId(0), class).id).collect()
    });
    let mut jt = cluster.adopt_thread(ThreadId(0));
    jt.update(objs[0], [objs[1], objs[2], objs[1]], |_, _| {});
}

#[test]
#[should_panic(expected = "o0 appears twice in one group access")]
fn a_target_that_is_also_read_panics() {
    let cluster = Cluster::builder().nodes(1).threads(1).build();
    let objs: Vec<ObjectId> = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Cell", 1);
        (0..2).map(|_| ctx.alloc_scalar_at(NodeId(0), class).id).collect()
    });
    let mut jt = cluster.adopt_thread(ThreadId(0));
    jt.update(objs[0], [objs[1], objs[0]], |_, _| {});
}
