//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Prime vs power-of-two gaps** under cyclic allocation (Section II.B.1's reason
//!    for `nearest_prime`).
//! 2. **Array amortization vs whole-array logging** (Section II.B.3's bias argument).
//! 3. **Lazy vs immediate frame extraction** under temporary-frame churn
//!    (Section III.B.3).
//! 4. **Page-grain vs object-grain tracking cost** (the D-CVM comparison of
//!    Section V).

use jessy_bench::{TextTable, PAGE_FAULT_NS};
use jessy_core::oal::{Oal, OalEntry};
use jessy_core::sampling::multiples_in;
use jessy_core::stack_sampling::StackSampler;
use jessy_core::{StackSamplingConfig, TcmBuilder};
use jessy_gos::{ClassId, CostModel, ObjectId};
use jessy_net::{ClockBoard, ThreadId};
use jessy_stack::{JavaStack, MethodId, Slot};

/// Ablation 1: cyclic allocation of 32 allocation sites; a gap of 32 aliases with the
/// cycle (only one site ever sampled), the prime 31 covers all sites uniformly.
fn prime_gap_ablation() {
    println!("== ablation 1: prime vs power-of-two sampling gaps ==");
    println!("(32 allocation sites allocating round-robin; 32,000 objects)\n");
    let n_sites = 32u64;
    let n_objs = 32_000u64;
    let mut t = TextTable::new(&["gap", "sites covered", "min/site", "max/site", "uniform?"]);
    for gap in [32u64, 31] {
        let mut per_site = vec![0u64; n_sites as usize];
        for seq in 0..n_objs {
            if seq % gap == 0 {
                per_site[(seq % n_sites) as usize] += 1;
            }
        }
        let covered = per_site.iter().filter(|&&c| c > 0).count();
        let min = *per_site.iter().min().unwrap();
        let max = *per_site.iter().max().unwrap();
        t.row(&[
            gap.to_string(),
            format!("{covered}/32"),
            min.to_string(),
            max.to_string(),
            (min > 0 && max <= min + 1).to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// Ablation 2: two thread pairs — (T1,T2) share a small 16-element array, (T2,T3)
/// share a large 4096-element array but touch different halves. Whole-array logging
/// overestimates (T2,T3) by the array-size ratio; amortization with gap-scaling keeps
/// both pairs proportional to the data actually shared.
fn amortization_ablation() {
    println!("== ablation 2: array amortization vs whole-array logging ==\n");
    let gap = 509u64; // 1X for 8-byte elements
    let small = (0u64, 16u32); // seq0, len — placed to straddle a multiple
    let large = (509u64 * 3, 4096u32);

    let build = |small_bytes: u64, large_bytes: u64| -> (f64, f64) {
        let mut b = TcmBuilder::new(3);
        let entry = |obj: u32, bytes: u64| OalEntry {
            obj: ObjectId(obj),
            class: ClassId(0),
            bytes,
        };
        for (t, objs) in [(0u32, vec![0]), (1, vec![0, 1]), (2, vec![1])] {
            b.ingest(&Oal {
                thread: ThreadId(t),
                interval: 0,
                entries: objs
                    .into_iter()
                    .map(|o| entry(o, if o == 0 { small_bytes } else { large_bytes }))
                    .collect(),
            });
        }
        b.close_round();
        (
            b.tcm().at(ThreadId(0), ThreadId(1)),
            b.tcm().at(ThreadId(1), ThreadId(2)),
        )
    };

    // Whole-array logging: both arrays always sampled, full size logged.
    let (w_small, w_large) = build(16 * 8, 4096 * 8);
    // Amortized + gap-scaled logging.
    let amort = |seq0: u64, len: u32| multiples_in(seq0, len as u64, gap) * 8 * gap;
    let (a_small, a_large) = build(amort(small.0, small.1), amort(large.0, large.1));

    let mut t = TextTable::new(&["scheme", "corr(T1,T2) small", "corr(T2,T3) large", "ratio"]);
    t.row(&[
        "whole-array".into(),
        format!("{w_small:.0}"),
        format!("{w_large:.0}"),
        format!("{:.0}x", w_large / w_small),
    ]);
    t.row(&[
        "amortized+scaled".into(),
        format!("{a_small:.0}"),
        format!("{a_large:.0}"),
        format!("{:.0}x", a_large / a_small),
    ]);
    println!("{}", t.render());
    println!("true shared-data ratio is 256x (4096/16); both schemes reflect it, but");
    println!("whole-array logging charges the ratio to EVERY page-sized overlap — with");
    println!("partial sharing (different halves) amortization can discount it while");
    println!("whole-size logging cannot; and under false sharing the bias compounds.\n");
}

/// Ablation 3: lazy vs immediate extraction under temporary-frame churn.
fn lazy_extraction_ablation() {
    println!("== ablation 3: lazy vs immediate frame extraction ==");
    println!("(1 stable bottom frame + 2,000 temporary frames, sampled between pushes)\n");
    let costs = CostModel::pentium4_2ghz();
    let mut t = TextTable::new(&[
        "mode",
        "sim cost (us)",
        "extractions",
        "raw captures",
        "slots probed",
    ]);
    for lazy in [false, true] {
        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let mut stack = JavaStack::new();
        let mut sampler = StackSampler::new(StackSamplingConfig {
            gap_ns: 0,
            lazy_extraction: lazy,
        });
        stack.push_raw(MethodId(0), 8);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        sampler.sample(&mut stack, &clock, &costs);
        for i in 0..2_000u32 {
            stack.push_raw(MethodId(1), 12);
            stack.set_local(0, Slot::Ref(ObjectId(100 + i)));
            sampler.sample(&mut stack, &clock, &costs);
            stack.pop();
        }
        let stats = sampler.stats();
        t.row(&[
            if lazy { "lazy".into() } else { "immediate".to_string() },
            format!("{:.1}", clock.now() as f64 / 1e3),
            stats.extractions.to_string(),
            stats.raw_captures.to_string(),
            stats.slots_probed.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("lazy extraction never pays the per-slot extraction cost for frames that");
    println!("die before a second visit — the paper's Section III.B.3 optimization.\n");
}

/// Ablation 4: what porting page-grain active tracking to fine-grained sharing costs.
fn page_grain_cost_ablation() {
    println!("== ablation 4: page-grain (D-CVM) vs object-grain tracking cost ==\n");
    let object_fault_ns = CostModel::pentium4_2ghz().fault_service_ns;
    let mut t = TextTable::new(&[
        "events/interval",
        "page-grain cost (ms)",
        "object-grain cost (ms)",
        "slowdown",
    ]);
    for events in [1_000u64, 10_000, 100_000] {
        let page_ns = events * PAGE_FAULT_NS;
        let obj_ns = events * object_fault_ns;
        t.row(&[
            events.to_string(),
            format!("{:.1}", page_ns as f64 / 1e6),
            format!("{:.1}", obj_ns as f64 / 1e6),
            format!("{:.0}x", page_ns as f64 / obj_ns as f64),
        ]);
    }
    println!("{}", t.render());
    println!("a protection fault costs microseconds where the inlined check + user-level");
    println!("service routine costs hundreds of nanoseconds: the 20x gap is why the");
    println!("paper says page-based techniques 'soar to an intolerable level' on");
    println!("fine-grained object systems.");
}

/// Ablation 5: connectivity prefetching on fault replies (the "object prefetching"
/// optimization the paper's evaluation enables).
fn prefetch_ablation() {
    use jessy_core::ProfilerConfig;
    use jessy_runtime::Cluster;
    use jessy_workloads::barnes_hut::{self, BhConfig};
    use std::sync::Arc;

    println!("== ablation 5: connectivity prefetching on object faults ==");
    println!("(Barnes-Hut small; depth-k same-home neighbours ride on fault replies)\n");
    let mut t = TextTable::new(&[
        "prefetch depth",
        "object faults",
        "objects prefetched",
        "sim exec (ms)",
    ]);
    for depth in [0u32, 1, 2] {
        let mut cluster = Cluster::builder()
            .nodes(4)
            .threads(8)
            .prefetch_depth(depth)
            .profiler(ProfilerConfig::disabled())
            .build();
        let cfg = BhConfig::small();
        let handles = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, 8, 4)));
        cluster.run(move |jt| barnes_hut::thread_body(jt, &cfg, &handles));
        let report = cluster.report();
        t.row(&[
            depth.to_string(),
            report.proto.real_faults.to_string(),
            report.proto.objects_prefetched.to_string(),
            format!("{:.1}", report.sim_exec_ms()),
        ]);
    }
    println!("{}", t.render());
    println!("deeper prefetch trades per-fault round trips for bulk transfer; the win");
    println!("depends on how well the reference graph predicts the traversal (for the");
    println!("octree it predicts it exactly).\n");
}

fn main() {
    println!("DESIGN-CHOICE ABLATIONS\n");
    prime_gap_ablation();
    amortization_ablation();
    lazy_extraction_ablation();
    page_grain_cost_ablation();
    prefetch_ablation();
}
