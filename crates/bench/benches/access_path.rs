//! X4 — object-access fast-path throughput (the mutator hot loop).
//!
//! Measures steady-state accesses/sec through the single-writer arena
//! (`Gos` + `ThreadSpace`: packed entry word, append-only object table, side
//! slabs) against the retained seed layout (`gos::heap::reference`:
//! per-access `RwLock` read + `Arc` clone + `Mutex` lock, plus a
//! `ClassInfo` clone per access). Four scenarios per object count:
//!
//! - `home_hit`   — objects homed at the accessing node (HOME state).
//! - `cache_hit`  — remote objects already faulted in (VALID state).
//! - `armed_trap` — the profiler rhythm: arm every object's false-invalid
//!   trap, then access (trap fires, logs, disarms), once per pass.
//! - `late_alloc_hit` — home and cache hits, half and half, on objects
//!   allocated after the set-up batch, where a running cluster's mid-run
//!   allocations (Barnes-Hut's tree cells) land: the lookup must cost what
//!   it costs for set-up objects.
//!
//! The gate is a count, not a timing: an unarmed access on the arena
//! (`home_hit`, `cache_hit`, `late_alloc_hit`) makes no heap allocation, in
//! every cell, counted by the bench's own allocator as
//! `tests/hit_path_allocs.rs` counts. The host speedup over the seed layout
//! is information only: the cache-resident cell (M=4096) isolates the
//! software overhead the arena removed, the larger cells are DRAM-bound.
//! Each cell is the min of three interleaved repetitions (noise control).
//!
//! Modes:
//! - default (`cargo bench --bench access_path`): full sweep
//!   M∈{4096,65536,262144}, writes `BENCH_access_path.json` at the repo root.
//! - `JESSY_SCALE=small`: smoke sweep (seconds, CI-friendly), prints the
//!   table, checks the allocation count, does not touch the checked-in JSON.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use jessy_bench::{mix, TextTable};
use jessy_gos::heap::reference::ReferenceGos;
use jessy_gos::{CostModel, Gos, GosConfig, ObjectId, ThreadSpace};
use jessy_net::{ClockBoard, LatencyModel, NodeId, ThreadId};
use jessy_obs::{NullSink, TraceSink};
use serde::Serialize;

/// Heap allocations made so far (a growing reallocation is one: the default
/// `realloc` allocates afresh).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a static atomic, so
// touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Access order: a mix()-driven shuffle of `0..m` so the timed loop does not
/// walk the arena in allocation order.
fn shuffled(m: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        let j = (mix(i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The emitted `BENCH_access_path.json` document.
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    results: Vec<CellReport>,
    trace_overhead: TraceOverhead,
}

/// Observability-tax measurement: the same unarmed cache-hit sweep on an engine
/// with no trace sink vs one with a [`NullSink`] installed.
#[derive(Serialize)]
struct TraceOverhead {
    objects: usize,
    passes: usize,
    off_ns: u64,
    null_sink_ns: u64,
    /// `null_sink_ns / off_ns - 1` (negative means within noise).
    overhead_frac: f64,
    required_max: f64,
    pass: bool,
}

#[derive(Serialize)]
struct CellReport {
    scenario: &'static str,
    objects: usize,
    passes: usize,
    seed_ns: u64,
    new_ns: u64,
    speedup: f64,
    new_macc_per_s: f64,
    seed_macc_per_s: f64,
    new_allocations: u64,
}

/// Per-(scenario, M) measurement at steady state.
struct Cell {
    scenario: &'static str,
    m: usize,
    passes: usize,
    seed_ns: u128,
    new_ns: u128,
    /// Heap allocations the arena's timed passes made.
    new_allocations: u64,
}

impl Cell {
    /// Accesses/sec speedup over the seed layout (information only).
    fn speedup(&self) -> f64 {
        self.seed_ns as f64 / self.new_ns.max(1) as f64
    }
    /// Accesses retired per second, in millions.
    fn macc_s(&self, ns: u128) -> f64 {
        (self.m * self.passes) as f64 / (ns.max(1) as f64 / 1e9) / 1e6
    }
}

struct Engines {
    gos: Gos,
    seed: ReferenceGos,
    space: ThreadSpace,
    clock_board: std::sync::Arc<ClockBoard>,
    /// Objects homed at the accessing node (ids identical on both engines).
    home: Vec<ObjectId>,
    /// Remote objects pre-faulted into thread 0's cache on both engines.
    cached: Vec<ObjectId>,
    /// Objects allocated after the set-up batch, alternately homed at the
    /// accessing node and remote (pre-faulted like `cached`).
    late: Vec<ObjectId>,
}

/// Build both engines with identical populations: `m` objects homed at the
/// accessing node 0 and `m` homed at node 1, the latter pre-faulted into
/// thread 0's cache so their steady state is VALID, then `late` more,
/// alternating between the two nodes. `sink` optionally installs a trace sink
/// on the arena engine (the tracing-overhead lane).
fn build(m: usize, late: usize, sink: Option<Arc<dyn TraceSink>>) -> Engines {
    let mut gos = Gos::new(GosConfig {
        n_nodes: 2,
        n_threads: 1,
        latency: LatencyModel::free(),
        costs: CostModel::free(),
        prefetch_depth: 0,
        consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
        faults: None,
    });
    if let Some(sink) = sink {
        gos.set_trace_sink(sink);
    }
    let seed = ReferenceGos::new(2, 1);
    let clock_board = ClockBoard::new(1);
    let clock = clock_board.handle(ThreadId(0));
    let class = gos.classes().register_scalar("X", 2);
    let class_r = seed.classes().register_scalar("X", 2);
    assert_eq!(class, class_r);

    let mut space = ThreadSpace::new(ThreadId(0));
    let alloc = |i: usize, node: NodeId| {
        let init = [mix(i as u64) as f64, 0.0];
        let id = gos.alloc_scalar(node, class, &clock, Some(&init)).id;
        let id_r = seed.alloc_scalar(node, class_r, Some(&init)).id;
        assert_eq!(id, id_r);
        id
    };
    let home: Vec<ObjectId> = (0..m).map(|i| alloc(i, NodeId(0))).collect();
    let cached: Vec<ObjectId> = (m..2 * m).map(|i| alloc(i, NodeId(1))).collect();
    // The set-up batch ends here: what follows is a mid-run allocation.
    let late: Vec<ObjectId> =
        (2 * m..2 * m + late).map(|i| alloc(i, NodeId((i % 2) as u16))).collect();

    // Fault everything in once so timed passes only see hits.
    for &o in home.iter().chain(&cached).chain(&late) {
        gos.read(&mut space, NodeId(0), o, &clock, |_| {});
        seed.read(ThreadId(0), NodeId(0), o, |_| {});
    }
    Engines {
        gos,
        seed,
        space,
        clock_board,
        home,
        cached,
        late,
    }
}

/// Time `passes` full sweeps over `order`-shuffled `objs` on both engines
/// (one warmup pass each), checking that both sum the same payloads.
fn measure(scenario: &'static str, m: usize, passes: usize) -> Cell {
    let Engines {
        gos,
        seed,
        mut space,
        clock_board,
        home,
        cached,
        late,
    } = build(m, if scenario == "late_alloc_hit" { m } else { 0 }, None);
    let clock = clock_board.handle(ThreadId(0));
    let objs: &[ObjectId] = match scenario {
        "home_hit" | "armed_trap" => &home,
        "cache_hit" => &cached,
        "late_alloc_hit" => &late,
        _ => unreachable!(),
    };
    let order = shuffled(objs.len());
    let armed = scenario == "armed_trap";

    let mut run_new = |timed: bool| -> (u128, u64) {
        let mut sum = 0.0f64;
        let allocations = ALLOCATIONS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for _ in 0..if timed { passes } else { 1 } {
            if armed {
                black_box(space.arm_traps(objs.iter().copied()));
            }
            for &i in &order {
                let (v, _) = gos.read(&mut space, NodeId(0), objs[i], &clock, |d| d[0]);
                sum += v;
            }
        }
        black_box(sum);
        (t0.elapsed().as_nanos(), ALLOCATIONS.load(Ordering::Relaxed) - allocations)
    };
    let run_seed = |timed: bool| -> u128 {
        let mut sum = 0.0f64;
        let t0 = Instant::now();
        for _ in 0..if timed { passes } else { 1 } {
            if armed {
                black_box(seed.set_false_invalid(ThreadId(0), objs.iter().copied()));
            }
            for &i in &order {
                let (v, _) = seed.read(ThreadId(0), NodeId(0), objs[i], |d| d[0]);
                sum += v;
            }
        }
        black_box(sum);
        t0.elapsed().as_nanos()
    };
    // One warmup each, then three interleaved timed repetitions; keep the min
    // (robust against noisy-neighbor interference on shared hosts).
    run_new(false);
    run_seed(false);
    let (mut new_ns, mut seed_ns, mut new_allocations) = (u128::MAX, u128::MAX, 0);
    for _ in 0..3 {
        let (ns, allocations) = run_new(true);
        new_ns = new_ns.min(ns);
        new_allocations += allocations;
        seed_ns = seed_ns.min(run_seed(true));
    }

    // Payload sanity: both engines must serve identical values.
    for &o in objs.iter().take(64) {
        let (a, _) = gos.read(&mut space, NodeId(0), o, &clock, |d| d[0]);
        let (b, _) = seed.read(ThreadId(0), NodeId(0), o, |d| d[0]);
        assert_eq!(a.to_bits(), b.to_bits(), "engines diverged on {o}");
    }

    Cell {
        scenario,
        m,
        passes,
        seed_ns,
        new_ns,
        new_allocations,
    }
}

/// The observability acceptance lane: time the unarmed cache-hit sweep on an
/// engine with no trace sink against an identical engine with a [`NullSink`]
/// installed. The hit lane has no emission site, so the only possible cost is
/// the sink presence itself; the gate requires it stays ≤ `required_max`.
fn measure_trace_overhead(m: usize, passes: usize) -> TraceOverhead {
    let mut off = build(m, 0, None);
    let mut on = build(m, 0, Some(Arc::new(NullSink)));
    let order = shuffled(m);
    let sweep = |e: &mut Engines, timed: bool| -> u128 {
        let clock = e.clock_board.handle(ThreadId(0));
        let mut sum = 0.0f64;
        let t0 = Instant::now();
        for _ in 0..if timed { passes } else { 1 } {
            for &i in &order {
                let (v, _) = e.gos.read(&mut e.space, NodeId(0), e.cached[i], &clock, |d| d[0]);
                sum += v;
            }
        }
        black_box(sum);
        t0.elapsed().as_nanos()
    };
    // Warmup each, then interleaved repetitions keeping the min (same noise
    // control as the main cells; five reps because a ≤2% gate is tight).
    sweep(&mut off, false);
    sweep(&mut on, false);
    let (mut off_ns, mut null_ns) = (u128::MAX, u128::MAX);
    for _ in 0..5 {
        off_ns = off_ns.min(sweep(&mut off, true));
        null_ns = null_ns.min(sweep(&mut on, true));
    }
    let overhead_frac = null_ns as f64 / off_ns.max(1) as f64 - 1.0;
    TraceOverhead {
        objects: m,
        passes,
        off_ns: off_ns as u64,
        null_sink_ns: null_ns as u64,
        overhead_frac,
        required_max: 0.02,
        pass: overhead_frac <= 0.02,
    }
}

fn main() {
    let smoke = jessy_bench::scale() == jessy_bench::Scale::Small;
    println!("X4. OBJECT-ACCESS FAST PATH (single-writer arena vs seed layout)\n");

    // (m, timed passes): fewer passes at larger M keeps the full sweep tractable.
    let sizes: Vec<(usize, usize)> = if smoke {
        vec![(4_096, 5)]
    } else {
        vec![(4_096, 400), (65_536, 60), (262_144, 20)]
    };

    let mut table = TextTable::new(&[
        "scenario",
        "objects",
        "seed (ns/acc)",
        "arena (ns/acc)",
        "speedup",
        "arena Macc/s",
        "seed Macc/s",
        "arena allocs",
    ]);
    let mut cells = Vec::new();
    for &(m, passes) in &sizes {
        for scenario in ["home_hit", "cache_hit", "armed_trap", "late_alloc_hit"] {
            let c = measure(scenario, m, passes);
            let per = |ns: u128| ns as f64 / (c.m * c.passes) as f64;
            table.row(&[
                c.scenario.to_string(),
                c.m.to_string(),
                format!("{:.1}", per(c.seed_ns)),
                format!("{:.1}", per(c.new_ns)),
                format!("{:.2}x", c.speedup()),
                format!("{:.1}", c.macc_s(c.new_ns)),
                format!("{:.1}", c.macc_s(c.seed_ns)),
                c.new_allocations.to_string(),
            ]);
            cells.push(c);
        }
    }
    println!("{}", table.render());
    println!("speedup = seed ns/access / arena ns/access at steady state (warmup pass");
    println!("excluded): host-dependent, information only. armed_trap times the profiler");
    println!("rhythm: arm + fire, once per pass. arena allocs = heap allocations over the");
    println!("arena's timed passes (the gate: 0 on every unarmed scenario).");
    for c in cells.iter().filter(|c| c.scenario != "armed_trap") {
        assert_eq!(c.new_allocations, 0, "{} at M={}: an unarmed access allocated", c.scenario, c.m);
    }

    // Observability tax: the unarmed cache-hit lane with a NullSink installed
    // must stay within 2% of the sink-free engine.
    let (ov_m, ov_passes) = *sizes.first().unwrap();
    let overhead = measure_trace_overhead(ov_m, ov_passes);
    println!(
        "\ntracing-off overhead (cache_hit, M={}): no-sink {:.1} ns/acc, NullSink {:.1} ns/acc \
         ({:+.2}% — gate ≤ {:.0}% in full mode)",
        overhead.objects,
        overhead.off_ns as f64 / (ov_m * ov_passes) as f64,
        overhead.null_sink_ns as f64 / (ov_m * ov_passes) as f64,
        overhead.overhead_frac * 100.0,
        overhead.required_max * 100.0,
    );

    if smoke {
        println!("\nsmoke mode: skipping BENCH_access_path.json (checked-in file is the full run)");
        return;
    }

    let doc = Report {
        bench: "access_path",
        mode: "full",
        results: cells
            .iter()
            .map(|c| CellReport {
                scenario: c.scenario,
                objects: c.m,
                passes: c.passes,
                seed_ns: c.seed_ns as u64,
                new_ns: c.new_ns as u64,
                speedup: c.speedup(),
                new_macc_per_s: c.macc_s(c.new_ns),
                seed_macc_per_s: c.macc_s(c.seed_ns),
                new_allocations: c.new_allocations,
            })
            .collect(),
        trace_overhead: overhead,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_access_path.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_access_path.json");
    println!("\nwrote {path}");
    assert!(
        doc.trace_overhead.pass,
        "acceptance: tracing-off overhead ≤2% on the unarmed cache-hit lane (measured {:+.2}%)",
        doc.trace_overhead.overhead_frac * 100.0
    );
}
