//! Integration tests for the extensions built on the paper's Section V agenda:
//! connectivity prefetching, the dynamic balancer and home-effect analysis —
//! all driven together.

use std::sync::Arc;

use jessy::core::HomeAwareAnalyzer;
use jessy::prelude::*;
use jessy::workloads::{barnes_hut, lu, sor};

fn fast_cluster(nodes: usize, threads: usize, profiler: ProfilerConfig) -> Cluster {
    Cluster::builder()
        .nodes(nodes)
        .threads(threads)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(profiler)
        .build()
}

#[test]
fn connectivity_prefetch_reduces_faults_without_changing_results() {
    let run = |depth: u32| {
        let cfg = barnes_hut::BhConfig::small();
        let mut cluster = Cluster::builder()
            .nodes(2)
            .threads(4)
            .latency(LatencyModel::free())
            .costs(CostModel::free())
            .prefetch_depth(depth)
            .profiler(ProfilerConfig::disabled())
            .build();
        let handles = cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, 4, 2));
        let h = Arc::new(handles.clone());
        cluster.run(move |jt| barnes_hut::thread_body(jt, &cfg, &h));
        let mut reader = cluster.adopt_thread(ThreadId(0));
        let positions: Vec<f64> = handles
            .bodies
            .iter()
            .map(|&b| reader.read(b, |d| d[1] + d[2] + d[3]))
            .collect();
        (cluster.report(), positions)
    };
    let (plain, pos_plain) = run(0);
    let (prefetched, pos_pre) = run(2);
    assert!(
        prefetched.proto.real_faults < plain.proto.real_faults,
        "prefetch must absorb faults: {} vs {}",
        prefetched.proto.real_faults,
        plain.proto.real_faults
    );
    assert!(prefetched.proto.objects_prefetched > 0);
    // Numerical results identical: prefetching is a pure transport optimization.
    for (a, b) in pos_plain.iter().zip(&pos_pre) {
        assert_eq!(a, b, "prefetching altered the computation");
    }
}

#[test]
fn home_analysis_on_lu_recommends_nothing_for_owner_homed_blocks() {
    // LU homes every block at its owner's node; the analyzer should find only
    // borderline candidates (wavefront reads), never the owner's own blocks.
    let mut config = ProfilerConfig::ground_truth();
    config.record_oals = true;
    let mut cluster = fast_cluster(2, 4, config);
    let cfg = lu::LuConfig::small();
    let handles = cluster.init(|ctx| lu::setup(ctx, &cfg, 4, 2));
    let h = Arc::new(handles.clone());
    cluster.run(move |jt| lu::thread_body(jt, &cfg, &h));
    let master = cluster.master_output().unwrap();

    let placement: Vec<NodeId> = (0..4).map(|t| cluster.shared().node_of(ThreadId(t))).collect();
    let mut analyzer = HomeAwareAnalyzer::new(2, 4);
    for oal in &master.oal_log {
        analyzer.ingest(oal, &placement);
    }
    let report = analyzer.build(&cluster.shared().gos, &placement);
    // A recommendation is only valid if the destination strictly out-pulls the
    // current home — verify the invariant on whatever was recommended.
    for rec in &report.recommendations {
        assert!(rec.accesses_at_dest > 0);
        assert_ne!(rec.from, rec.to);
    }
    // The realizable + stranded split always covers the whole pairwise mass.
    assert!(report.stranded_fraction() >= 0.0 && report.stranded_fraction() <= 1.0);
}

#[test]
fn full_self_optimizing_pipeline() {
    // Everything at once: scattered placement + tracking + dynamic rebalancing +
    // prefetched migrations. The run must finish coherent (SOR equals its reference)
    // even while threads migrate under it.
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.intervals_per_round = 1;
    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(8)
        .placement((0..8).map(|t| NodeId((t % 4) as u16)).collect())
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .prefetch_depth(1)
        .profiler(config)
        .rebalance(jessy::runtime::RebalanceConfig {
            after_rounds: 4,
            with_prefetch: true,
            min_gain_bytes: 1.0,
            gain_horizon_rounds: 1e18,
            ..Default::default()
        })
        .build();
    let cfg = sor::SorConfig {
        n: 64,
        m: 32,
        rounds: 8,
        omega: 1.25,
    };
    let handles = cluster.init(|ctx| sor::setup(ctx, &cfg, 8, 4));
    let h = Arc::new(handles.clone());
    cluster.run(move |jt| sor::thread_body(jt, &cfg, &h));

    // Coherence under migration: final grid equals the sequential reference.
    let reference = sor::reference(&cfg);
    let ref_sum: f64 = reference.iter().flatten().sum();
    let mut reader = cluster.adopt_thread(ThreadId(0));
    let sum = sor::checksum(&mut reader, &handles);
    assert!(
        (sum - ref_sum).abs() < 1e-9 * ref_sum.abs().max(1.0),
        "self-optimization corrupted the computation: {sum} vs {ref_sum}"
    );
}
