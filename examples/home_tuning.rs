//! Home-effect tuning: the paper's Section V enhancement, end to end.
//!
//! SOR with a pathological initial homing: every row lives on node 0 (a common
//! real-world accident — one thread allocated all shared data before the workers
//! spawned), while the threads that relax the rows run on four nodes. The home-aware
//! analyzer consumes the profiled OAL stream, splits pair-shared volume into the
//! *realizable* part (homed at either sharer's node) and the *stranded* part (homed at
//! neither — the paper's "tricky case"), and recommends object home migrations.
//! Re-running after applying them shows the recovered locality.
//!
//! ```text
//! cargo run --release --example home_tuning
//! ```

use jessy::core::HomeAwareAnalyzer;
use jessy::prelude::*;
use jessy::workloads::sor::{self, SorConfig};
use std::sync::Arc;

const N_NODES: usize = 4;
const N_THREADS: usize = 4;

fn run(cfg: SorConfig, tuned_homes: Option<&[(ObjectId, NodeId)]>) -> (RunReport, Cluster) {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.record_oals = true;
    let mut cluster = Cluster::builder()
        .nodes(N_NODES)
        .threads(N_THREADS)
        .profiler(config)
        .build();
    // Pathological homing: everything on node 0.
    let handles = Arc::new(cluster.init(|ctx| sor::setup_with_homes(ctx, &cfg, |_| NodeId(0))));
    if let Some(moves) = tuned_homes {
        let clock = cluster.shared().master_clock();
        cluster
            .shared()
            .gos
            .relocate_homes(moves.iter().copied(), &clock);
    }
    let h = Arc::clone(&handles);
    cluster.run(move |jt| sor::thread_body(jt, &cfg, &h));
    (cluster.report(), cluster)
}

fn main() {
    let cfg = SorConfig {
        n: 512,
        m: 512,
        rounds: 6,
        omega: 1.25,
    };
    println!(
        "SOR {}x{}, {} rounds, {} nodes / {} threads — all rows initially homed on n0",
        cfg.n, cfg.m, cfg.rounds, N_NODES, N_THREADS
    );

    // --- Pass 1: profile under the bad homing.
    let (baseline, cluster) = run(cfg, None);
    let master = baseline.master.as_ref().unwrap();
    let placement: Vec<NodeId> = (0..N_THREADS as u32)
        .map(|t| cluster.shared().node_of(ThreadId(t)))
        .collect();

    let mut analyzer = HomeAwareAnalyzer::new(N_NODES, N_THREADS);
    for oal in &master.oal_log {
        analyzer.ingest(oal, &placement);
    }
    let report = analyzer.build(&cluster.shared().gos, &placement);

    println!("\n== home-effect analysis of the profile ==");
    println!("objects observed          : {}", analyzer.n_objects());
    println!(
        "realizable pair volume    : {:.0} KB (homed at one of the sharers' nodes)",
        report.realizable.total() / 1024.0
    );
    println!(
        "stranded pair volume      : {:.0} KB ({:.1}% — the paper's tricky case)",
        report.stranded.total() / 1024.0,
        report.stranded_fraction() * 100.0
    );
    println!("home-migration candidates : {}", report.recommendations.len());
    for rec in report.recommendations.iter().take(4) {
        println!(
            "  {}: {} -> {}  ({} interval-accesses at dest vs {} elsewhere)",
            rec.obj, rec.from, rec.to, rec.accesses_at_dest, rec.accesses_elsewhere
        );
    }

    // --- Pass 2: apply and re-run the identical workload.
    let moves: Vec<(ObjectId, NodeId)> =
        report.recommendations.iter().map(|r| (r.obj, r.to)).collect();
    let (tuned, _c2) = run(cfg, Some(&moves));

    println!("\n== before vs after re-homing {} rows ==", moves.len());
    println!(
        "object faults  : {:>8} -> {:>8}  ({:+.1}%)",
        baseline.proto.real_faults,
        tuned.proto.real_faults,
        (tuned.proto.real_faults as f64 / baseline.proto.real_faults as f64 - 1.0) * 100.0
    );
    println!(
        "fetched volume : {:>7.0}KB -> {:>7.0}KB",
        baseline.net.class(MsgClass::ObjData).bytes as f64 / 1024.0,
        tuned.net.class(MsgClass::ObjData).bytes as f64 / 1024.0
    );
    println!(
        "diff volume    : {:>7.0}KB -> {:>7.0}KB (writers now flush locally)",
        baseline.net.class(MsgClass::DiffUpdate).bytes as f64 / 1024.0,
        tuned.net.class(MsgClass::DiffUpdate).bytes as f64 / 1024.0
    );
    println!(
        "sim exec time  : {:>7.1}ms -> {:>7.1}ms  ({:+.1}%)",
        baseline.sim_exec_ms(),
        tuned.sim_exec_ms(),
        tuned.overhead_pct(&baseline)
    );
}
