//! Micro-benchmarks of the profiling primitives.
//!
//! Criterion-free (the workspace builds offline): each benchmark is timed with a
//! simple calibrated loop and reported as ns/iter. Pass a substring argument to run
//! a subset, e.g. `cargo bench --bench micro -- tcm`.

use std::hint::black_box;
use std::time::Instant;

use jessy_core::oal::{Oal, OalEntry};
use jessy_core::sampling::GapTable;
use jessy_core::stack_sampling::StackSampler;
use jessy_core::{SamplingRate, StackSamplingConfig, TcmBuilder};
use jessy_gos::prime::nearest_prime;
use jessy_gos::twin::Diff;
use jessy_gos::{ClassId, CostModel, Gos, GosConfig, ObjectId};
use jessy_net::{ClockBoard, LatencyModel, NodeId, ThreadId};
use jessy_stack::{JavaStack, MethodId, Slot};

/// Time `f` with enough iterations to fill ~50 ms and print ns/iter.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Calibrate the iteration count.
    let mut iters = 8u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t0.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 1 << 30 {
            let ns = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<40} {ns:>12.1} ns/iter   ({iters} iters)");
            return;
        }
        iters *= 4;
    }
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let filter = filter.as_str();

    {
        let gaps = GapTable::new(4096);
        gaps.register_class(ClassId(0), 64, SamplingRate::NX(1));
        let mut seq = 0u64;
        bench(filter, "sampling/decide_sampled", || {
            seq += 1;
            black_box(gaps.decide_sampled(ClassId(0), black_box(seq), 1));
        });
        let mut seq = 0u64;
        bench(filter, "sampling/scaled_bytes_array", || {
            seq += 97;
            black_box(gaps.scaled_bytes(ClassId(0), black_box(seq), 2048));
        });
    }

    bench(filter, "sampling/nearest_prime_2^16", || {
        black_box(nearest_prime(black_box(65536)));
    });

    for &(m, n) in &[(1_000usize, 16usize), (10_000, 16), (10_000, 64)] {
        // Each object shared by 2 threads.
        let oals: Vec<Oal> = (0..n as u32)
            .map(|t| Oal {
                thread: ThreadId(t),
                interval: 0,
                entries: (0..m)
                    .filter(|o| (o % n) as u32 == t || ((o + 1) % n) as u32 == t)
                    .map(|o| OalEntry {
                        obj: ObjectId(o as u32),
                        class: ClassId(0),
                        bytes: 64,
                    })
                    .collect(),
            })
            .collect();
        bench(filter, &format!("tcm/build_round/M{m}_N{n}"), || {
            let mut builder = TcmBuilder::new(n);
            for oal in &oals {
                builder.ingest(oal);
            }
            black_box(builder.close_round().objects);
        });
    }

    {
        // The aggregation tree's hot merge: two ~half-overlapping sparse maps
        // united through a retained scratch (allocation-free at steady state).
        use jessy_core::{MergeScratch, SparseTcm};
        let n = 512;
        let gen = |base: usize| {
            let pairs: Vec<_> = (0..4096)
                .map(|i| {
                    let k = base + i;
                    let a = k % 500;
                    let b = a + 1 + (k / 500) % (n - 1 - a);
                    (ThreadId(a as u32), ThreadId(b as u32), 1.0)
                })
                .collect();
            SparseTcm::from_pairs(n, &pairs)
        };
        let right = gen(2048);
        let mut acc = gen(0);
        let mut scratch = MergeScratch::new();
        // Warm to the union cell set so the timed merges never reallocate.
        acc.merge_with(&right, &mut scratch);
        bench(filter, "tcm/sparse_merge_with_4k_cells", || {
            acc.merge_with(&right, &mut scratch);
            black_box(acc.len());
        });
    }

    for lazy in [true, false] {
        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let mut stack = JavaStack::new();
        for d in 0..16 {
            stack.push_raw(MethodId(d), 8);
            stack.set_local(0, Slot::Ref(ObjectId(d)));
        }
        let mut sampler = StackSampler::new(StackSamplingConfig {
            gap_ns: 0,
            lazy_extraction: lazy,
        });
        let label = if lazy { "lazy" } else { "immediate" };
        bench(filter, &format!("stack/sample/{label}"), || {
            // Churn one temporary frame per sample, like a running program.
            stack.push_raw(MethodId(99), 8);
            sampler.sample(&mut stack, &clock, &CostModel::free());
            stack.pop();
        });
    }

    {
        // Sticky-set invariant mining: frame content extraction + probing.
        let costs = CostModel::free();
        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let mut stack = JavaStack::new();
        for d in 0..16 {
            stack.push_raw(MethodId(d), 8);
            stack.set_local(0, Slot::Ref(ObjectId(d)));
        }
        let mut sampler = StackSampler::new(StackSamplingConfig {
            gap_ns: 0,
            lazy_extraction: true,
        });
        bench(filter, "stack/invariant_sample", || {
            stack.push_raw(MethodId(99), 8);
            sampler.sample(&mut stack, &clock, &costs);
            stack.pop();
            black_box(sampler.live_samples());
        });
    }

    {
        let twin: Vec<f64> = (0..2048).map(|i| i as f64).collect();
        let mut current = twin.clone();
        for i in (0..2048).step_by(37) {
            current[i] += 1.0;
        }
        bench(filter, "gos/diff_2048_words_sparse", || {
            black_box(Diff::compute(black_box(&twin), black_box(&current)));
        });
        let diff = Diff::compute(&twin, &current);
        let mut target = twin.clone();
        bench(filter, "gos/diff_apply", || {
            diff.apply(&mut target);
            black_box(target[0]);
        });
    }

    {
        let gos = Gos::new(GosConfig {
            n_nodes: 2,
            n_threads: 1,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let board = ClockBoard::new(1);
        let clock = board.handle(ThreadId(0));
        let class = gos.classes().register_scalar("X", 8);
        let obj = gos.alloc_scalar(NodeId(0), class, &clock, None);
        let mut space = jessy_gos::ThreadSpace::new(ThreadId(0));
        gos.read(&mut space, NodeId(0), obj.id, &clock, |_| {});
        bench(filter, "gos/access_check_hit", || {
            let (v, _) = gos.read(&mut space, NodeId(0), obj.id, &clock, |d| d[0]);
            black_box(v);
        });
    }
}
