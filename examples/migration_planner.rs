//! Migration planning from profiles: the paper's end-use.
//!
//! Runs Barnes-Hut under a deliberately bad placement (galaxy members scattered
//! across nodes) with the full profiler on — correlation tracking, sticky-set
//! footprinting and stack sampling. One thread migrates mid-run with sticky-set
//! prefetch so its induced faults are hidden. After the run the recovered TCM feeds
//! the load balancer, which plans a placement reuniting the galaxies; the live
//! engine's repair of the scattered placement lists each move with its exact
//! correlation gain — the side of Section III's cost model that the sticky-set
//! (prefetch) cost is weighed against.
//!
//! ```text
//! cargo run --release --example migration_planner
//! ```

use jessy::prelude::*;
use jessy::runtime::MoveFilter;
use jessy::workloads::barnes_hut::{self, BhConfig};
use parking_lot::Mutex;
use std::sync::Arc;

fn main() {
    let n_threads = 8usize;
    // Scatter placement: thread i on node i % 4 — galaxy A's threads (0-3) and galaxy
    // B's threads (4-7) end up interleaved over the nodes.
    let placement: Vec<NodeId> = (0..n_threads).map(|t| NodeId((t % 4) as u16)).collect();

    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(4));
    config.footprint = Some(FootprintConfig {
        mode: FootprintMode::Nonstop, // exact access frequencies
        min_gap: 1,
    });
    config.stack = Some(StackSamplingConfig {
        gap_ns: 100_000, // 100 µs: a sample roughly every interval
        lazy_extraction: true,
    });

    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(n_threads)
        .placement(placement.clone())
        .profiler(config)
        .build();

    let cfg = BhConfig {
        n_bodies: 1024,
        rounds: 4,
        ..BhConfig::paper()
    };
    let handles = cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, n_threads, 4));
    let handles = Arc::new(handles);
    let migration_log: Arc<Mutex<Vec<jessy::runtime::MigrationReport>>> =
        Arc::new(Mutex::new(Vec::new()));

    println!("running Barnes-Hut ({} bodies) under a scattered placement…", cfg.n_bodies);
    let log = Arc::clone(&migration_log);
    cluster.run(move |jt| {
        barnes_hut::thread_body(jt, &cfg, &handles);

        // Epilogue: every thread re-traverses its body chunk for a few intervals with
        // a live frame, so the stack sampler finds invariants and footprinting sees
        // the chunk as sticky; then thread 5 migrates with its sticky set prefetched.
        let t = jt.thread_id().index();
        let mine = barnes_hut::bodies_of(cfg.n_bodies, 8, t);
        jt.push_frame(handles.method);
        // Locals: the space root (entry point into the shared octree) and the
        // thread's first body — the stack invariants resolution will start from.
        jt.set_local_ref(0, handles.space);
        jt.set_local_ref(1, handles.bodies[mine.start]);
        for _ in 0..4 {
            // Two passes per interval: objects accessed repeatedly within an interval
            // are exactly what the sticky set is made of (Section III).
            for _pass in 0..2 {
                for i in mine.clone() {
                    jt.read(handles.bodies[i], |_| {});
                    jt.compute(2);
                }
            }
            jt.barrier();
        }
        if t == 5 {
            let report = jt.migrate_to(NodeId(3), true);
            log.lock().push(report);
        }
        jt.pop_frame();
        jt.barrier();
    });

    let report = cluster.report();
    let tcm = report.master.as_ref().unwrap().tcm.clone();

    println!("\n== the profiled migration (thread 5 → node 3, with prefetch) ==");
    let m = &migration_log.lock()[0];
    println!("  context (stack) bytes : {}", m.ctx_bytes);
    println!("  sticky objects sent   : {}", m.prefetched_objects);
    println!("  prefetch bytes        : {}", m.prefetch_bytes);
    println!("  simulated cost        : {:.1} µs", m.sim_cost_ns as f64 / 1e3);
    if let Some(res) = &m.resolution {
        println!(
            "  resolution            : {} edges walked, {} roots aborted by landmarks",
            res.edges_visited, res.aborted_roots
        );
    }

    println!("\n== placement planning from the recovered TCM ==");
    let lb = LoadBalancer::new();
    let before = lb.intra_fraction(&tcm, &placement);
    let plan = lb.plan(&tcm, 4);
    println!("  intra-node correlation, scattered placement : {:>6.1} %", before * 100.0);
    println!("  intra-node correlation, planned placement   : {:>6.1} %", plan.intra_fraction * 100.0);
    println!("  plan: {:?}", plan.placement);

    println!("\n== the engine's repair of the scattered placement (exact gain per move) ==");
    let repair = lb.refine(&tcm, 4, &placement, &MoveFilter::default());
    for m in &repair.moves {
        println!(
            "  {}: {} -> {}   correlation gain {:>12.0} bytes/round",
            m.thread, m.from, m.to, m.gain_bytes
        );
    }
    println!(
        "  intra-node correlation, repaired placement  : {:>6.1} %",
        lb.intra_fraction(&tcm, &repair.placement) * 100.0
    );
    println!("\n(the sticky-set footprint of each thread prices the move; the profiled");
    println!(" migration above shows the prefetch hiding exactly those induced faults)");
}
