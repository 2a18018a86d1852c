//! FIG. 1 — false-sharing effect on correlation-tracking preciseness.
//!
//! Barnes-Hut with 32 threads simulating two galaxies in contiguous chunks (the
//! paper's setup: 32 threads, 4K bodies). The **inherent** map comes from
//! ground-truth object-grain tracking ("log inserted at every object access"); the
//! **induced** map replays the identical access stream at 4 KB page granularity.

use std::sync::Arc;

use jessy_bench::{bh_cfg, scale, Scale, PAGE_FAULT_NS};
use jessy_core::{accuracy_abs, ProfilerConfig, SparseTcm, Tcm};
use jessy_gos::CostModel;
use jessy_net::{LatencyModel, ThreadId};
use jessy_pagedsm::{InducedTcmBuilder, PageLayout};
use jessy_runtime::Cluster;
use jessy_workloads::barnes_hut;

fn main() {
    let scale = scale();
    let n_threads = 32;
    let cfg = match scale {
        Scale::Paper => bh_cfg(scale), // 4K bodies, the paper's Fig. 1 size
        Scale::Small => barnes_hut::BhConfig {
            n_bodies: 1024,
            rounds: 3,
            ..bh_cfg(scale)
        },
    };
    println!("FIG. 1. FALSE SHARING EFFECT ON CORRELATION TRACKING PRECISENESS");
    println!(
        "(Barnes-Hut, {} threads, {} bodies, two galaxies; scale: {scale:?})\n",
        n_threads, cfg.n_bodies
    );

    let mut config = ProfilerConfig::ground_truth();
    config.record_oals = true;
    let mut cluster = Cluster::builder()
        .nodes(8)
        .threads(n_threads)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .build();
    let handles = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, n_threads, 8)));
    cluster.run(move |jt| barnes_hut::thread_body(jt, &cfg, &handles));

    let master = cluster.master_output().unwrap();
    let inherent = &master.tcm;
    let layout = PageLayout::from_gos(&cluster.shared().gos);
    let mut builder = InducedTcmBuilder::new(n_threads);
    for oal in &master.oal_log {
        builder.ingest(oal, &layout);
    }
    let induced = builder.build();

    println!("(a) inherent pattern (object-grain):");
    print!("{}", inherent.ascii_heatmap());
    println!("\n(b) induced pattern (page-grain, 4 KB):");
    print!("{}", induced.ascii_heatmap());

    let contrast = |tcm: &Tcm| {
        let half = n_threads / 2;
        let (mut intra, mut cross) = (1e-12, 1e-12);
        for i in 1..n_threads {
            for j in (i + 1)..n_threads {
                let v = tcm.at(ThreadId(i as u32), ThreadId(j as u32));
                if (i < half) == (j < half) {
                    intra += v;
                } else {
                    cross += v;
                }
            }
        }
        intra / cross
    };
    println!("\nintra/cross-galaxy contrast: inherent {:.1}x, induced {:.1}x", contrast(inherent), contrast(&induced));
    let norm = if induced.total() > 0.0 { inherent.total() / induced.total() } else { 1.0 };
    let scaled: Vec<_> = induced.to_sparse().iter().map(|(i, j, v)| (i, j, v * norm)).collect();
    let induced_norm = SparseTcm::from_pairs(n_threads, &scaled).to_dense();
    println!(
        "normalized agreement between the maps (ABS accuracy): {:.1}%  (low = clues lost)",
        accuracy_abs(&induced_norm, inherent) * 100.0
    );

    // The cost side of the comparison (Section V: D-CVM's page faults vs our checks).
    let proto = cluster.report().proto;
    println!(
        "\npage-grain tracking cost: {} protection faults x {PAGE_FAULT_NS} ns = {:.1} ms",
        builder.page_touches(),
        (builder.page_touches() * PAGE_FAULT_NS) as f64 / 1e6
    );
    let service_ns = CostModel::pentium4_2ghz().fault_service_ns;
    let entries = proto.false_invalid_faults + proto.real_faults;
    println!(
        "object-grain tracking cost: {entries} service entries x ~{service_ns} ns = {:.1} ms",
        (entries * service_ns) as f64 / 1e6
    );
}
