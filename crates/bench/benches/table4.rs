//! TABLE IV — accuracy of the sticky-set footprint.
//!
//! Methodology (Section IV.B.2): 8 threads per application; profile each thread's
//! per-class sticky-set footprint via object sampling at 4X and at full sampling, and
//! report the average footprint, the average absolute difference, and the accuracy
//! `1 - |diff| / full`. Footprints are gap-scaled, so the two rates are directly
//! comparable (even full sampling is itself an estimate — the paper makes the same
//! caveat).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use jessy_bench::{bh_cfg, scale, sor_cfg, water_cfg, Scale, TextTable};
use jessy_core::{FootprintConfig, FootprintMode, ProfilerConfig, SamplingRate};
use jessy_gos::{ClassId, CostModel};
use jessy_net::LatencyModel;
use jessy_runtime::Cluster;
use jessy_workloads::{barnes_hut, sor, water, WorkloadKind};

/// Run one workload with footprinting on; returns per-class average footprints
/// (averaged over threads), keyed by class name.
fn footprints(kind: WorkloadKind, scale: Scale, rate: SamplingRate) -> HashMap<String, f64> {
    let mut config = ProfilerConfig::disabled();
    config.initial_rate = rate;
    config.footprint = Some(FootprintConfig {
        mode: FootprintMode::Nonstop,
        min_gap: 1,
    });
    let n_threads = 8;
    let mut cluster = Cluster::builder()
        .nodes(8)
        .threads(n_threads)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .build();

    let out: Arc<Mutex<Vec<HashMap<ClassId, f64>>>> = Arc::new(Mutex::new(Vec::new()));
    match kind {
        WorkloadKind::Sor => {
            let cfg = sor_cfg(scale);
            let h = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, n_threads, 8)));
            let out = Arc::clone(&out);
            cluster.run(move |jt| {
                sor::thread_body(jt, &cfg, &h);
                out.lock().push(jt.profiler().average_footprint());
            });
        }
        WorkloadKind::BarnesHut => {
            let cfg = bh_cfg(scale);
            let h = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, n_threads, 8)));
            let out = Arc::clone(&out);
            cluster.run(move |jt| {
                barnes_hut::thread_body(jt, &cfg, &h);
                out.lock().push(jt.profiler().average_footprint());
            });
        }
        WorkloadKind::WaterSpatial => {
            let cfg = water_cfg(scale);
            let h = Arc::new(cluster.init(|ctx| water::setup(ctx, &cfg, n_threads, 8)));
            let out = Arc::clone(&out);
            cluster.run(move |jt| {
                water::thread_body(jt, &cfg, &h);
                out.lock().push(jt.profiler().average_footprint());
            });
        }
        WorkloadKind::Lu | WorkloadKind::PhaseShift | WorkloadKind::Sessions => {
            unreachable!("Table IV covers the paper's three workloads")
        }
    }

    // Average over threads, translate class ids to names.
    let per_thread = out.lock();
    let mut sums: HashMap<ClassId, (f64, usize)> = HashMap::new();
    for fp in per_thread.iter() {
        for (class, bytes) in fp {
            let e = sums.entry(*class).or_insert((0.0, 0));
            e.0 += bytes;
            e.1 += 1;
        }
    }
    let classes = cluster.shared().gos.classes();
    sums.into_iter()
        .map(|(class, (sum, _))| (classes.info(class).name, sum / per_thread.len() as f64))
        .collect()
}

fn main() {
    let scale = scale();
    println!("TABLE IV. ACCURACY OF STICKY-SET FOOTPRINT  (scale: {scale:?})");
    println!("(8 threads; footprint via repeated object sampling at 4X vs full)\n");

    let mut t = TextTable::new(&[
        "Benchmark",
        "Class",
        "Avg SS footprint @ full (bytes)",
        "Avg diff @ 4X (bytes)",
        "Accuracy",
    ]);
    for kind in WorkloadKind::ALL {
        let full = footprints(kind, scale, SamplingRate::Full);
        let at4x = footprints(kind, scale, SamplingRate::NX(4));
        let mut names: Vec<&String> = full.keys().collect();
        names.sort();
        for name in names {
            let f = full[name];
            if f < 1.0 {
                continue; // class never sticky
            }
            let a = at4x.get(name).copied().unwrap_or(0.0);
            let diff = (f - a).abs();
            let acc = (1.0 - diff / f).max(0.0);
            t.row(&[
                kind.name().to_string(),
                name.clone(),
                format!("{f:.0}"),
                format!("{diff:.0}"),
                format!("{:.2}%", acc * 100.0),
            ]);
        }
    }
    println!("{}", t.render());
    println!("paper: SOR double[] 2018016 B, 100.00%; Barnes-Hut Body 229376 B 99.71%,");
    println!("Body[] 93.42%, Leaf 99.86%, Vect3 92.76%; Water double[] 43032 B 98.82%.");
    println!("expected shape: SOR near-perfect (rows effectively always sampled);");
    println!("fine-grained classes consistently above ~90%.");
}
