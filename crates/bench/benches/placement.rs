//! X9 — closing the loop: continuous profile-driven migration, mid-run.
//!
//! Three lanes per workload (SOR, Barnes-Hut, Water-Spatial), 8 threads on 4 nodes:
//!
//! * **block (ideal)** — the natural owner-aligned static placement;
//! * **scattered** — a deliberately bad static placement (round-robin);
//! * **migrated** — starts scattered, profiles itself, and lets the continuous
//!   placement engine (`RebalanceConfig::every_rounds`) move threads *mid-run*.
//!
//! The migrated lane should finish ahead of scattered in simulated execution time
//! (asserted per workload for Water and SOR at paper scale) and move fewer GOS
//! fabric bytes in aggregate (object traffic + the migrations' own
//! context/prefetch/home cost — migrations are charged against their savings, not
//! hidden). `ObjFetch` counts are reported, not asserted: they are a proxy, and a
//! plan may trade a few more fetches for time.

use std::sync::Arc;

use serde::Serialize;

use jessy_bench::{bh_cfg, scale, sor_cfg, water_cfg, Scale, TextTable};
use jessy_core::{ProfilerConfig, SamplingRate};
use jessy_gos::CostModel;
use jessy_net::{LatencyModel, MsgClass, NodeId};
use jessy_runtime::{Cluster, RebalanceConfig, RunReport};
use jessy_workloads::{barnes_hut, sor, water};

const N_THREADS: usize = 8;
const N_NODES: usize = 4;

#[derive(Clone, Copy)]
enum Kind {
    Sor,
    BarnesHut,
    Water,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Sor => "SOR",
            Kind::BarnesHut => "Barnes-Hut",
            Kind::Water => "Water-Spatial",
        }
    }
}

/// Lane workload sizes: run long enough that a mid-run migration (the engine
/// converges after ~3 profiled rounds) has a steady state in which to pay back
/// its one-time cost. SOR's lane uses a 1024² grid over 20 rounds: while a
/// misplaced thread still relocated its whole row block, that was past the
/// crossover (a 2048² grid would have needed ~30 rounds to amortize the ~33 MB of
/// row moves, tripling the bench's wall clock for the same story). Groups now
/// land on the node that homes their rows, so no row moves.
fn lane_sor(s: Scale) -> sor::SorConfig {
    let mut cfg = sor_cfg(s);
    match s {
        Scale::Paper => {
            cfg.n = 1024;
            cfg.m = 1024;
            cfg.rounds = 20;
        }
        Scale::Small => cfg.rounds = 10,
    }
    cfg
}

fn lane_bh(s: Scale) -> barnes_hut::BhConfig {
    let mut cfg = bh_cfg(s);
    cfg.rounds = match s {
        Scale::Paper => 10,
        Scale::Small => 6,
    };
    cfg
}

fn lane_water(s: Scale) -> water::WaterConfig {
    let mut cfg = water_cfg(s);
    cfg.rounds = match s {
        Scale::Paper => 10,
        Scale::Small => 6,
    };
    cfg
}

/// One lane: the workload under `placement`, optionally self-optimizing mid-run.
fn run_lane(kind: Kind, placement: Vec<NodeId>, rebalance: Option<RebalanceConfig>) -> RunReport {
    let profiler = if rebalance.is_some() {
        let mut p = ProfilerConfig::tracking_at(SamplingRate::NX(1));
        p.intervals_per_round = 1;
        // Sticky-set resolution (the migrants' carried working sets) needs the
        // footprint estimator for its per-class budget and the stack sampler
        // for its invariant roots.
        p.footprint = Some(jessy_core::FootprintConfig {
            mode: jessy_core::FootprintMode::Nonstop,
            min_gap: 1,
        });
        p.stack = Some(jessy_core::StackSamplingConfig {
            gap_ns: 1000,
            lazy_extraction: true,
        });
        p
    } else {
        ProfilerConfig::disabled()
    };
    let mut builder = Cluster::builder()
        .nodes(N_NODES)
        .threads(N_THREADS)
        .placement(placement)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(profiler);
    if let Some(rb) = rebalance {
        builder = builder.rebalance(rb);
    }
    let mut cluster = builder.build();
    match kind {
        Kind::Sor => {
            let cfg = lane_sor(scale());
            let handles = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, N_THREADS, N_NODES)));
            cluster.run(move |jt| sor::thread_body(jt, &cfg, &handles));
        }
        Kind::BarnesHut => {
            let cfg = lane_bh(scale());
            let handles =
                Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, N_THREADS, N_NODES)));
            cluster.run(move |jt| barnes_hut::thread_body(jt, &cfg, &handles));
        }
        Kind::Water => {
            let cfg = lane_water(scale());
            let handles =
                Arc::new(cluster.init(|ctx| water::setup(ctx, &cfg, N_THREADS, N_NODES)));
            cluster.run(move |jt| water::thread_body(jt, &cfg, &handles));
        }
    }
    cluster.report()
}

/// Continuous rebalancing tuned for a run of a few dozen TCM rounds: plan early
/// (the profile stabilizes after a couple of rounds), re-plan sparingly, and hold
/// movers down long enough that the engine converges instead of thrashing. The
/// profitability horizon is finite so the sticky-cost veto can reject moves whose
/// one-time transfer outweighs their remaining-run benefit.
fn eager_rebalance() -> RebalanceConfig {
    RebalanceConfig {
        after_rounds: 1,
        every_rounds: Some(2),
        cooldown_rounds: 64,
        with_prefetch: true,
        min_gain_bytes: 64.0,
        gain_horizon_rounds: 64.0,
        migration_budget_bytes: None,
        migrate_homes: true,
    }
}

/// Object + migration traffic on the fabric, in bytes. Profiling (OAL/TCM) traffic
/// is excluded so the tracking lane isn't charged for its own instrumentation when
/// comparing *placement* quality; migration context/prefetch bytes are included so
/// the migrated lane pays for its moves.
fn fabric_bytes(r: &RunReport) -> u64 {
    r.net.gos_bytes() + r.net.migration_bytes()
}

#[derive(Serialize)]
struct WorkloadRow {
    workload: &'static str,
    lane: &'static str,
    exec_ms: f64,
    objfetch_msgs: u64,
    fabric_kb: f64,
    migrations: u64,
    plans: u64,
}

#[derive(Serialize)]
struct WorkloadSummary {
    workload: &'static str,
    /// Fraction of the scattered→block ObjFetch gap the migrated lane recovered.
    recovered_objfetch: f64,
    recovered_fabric: f64,
    /// Migrated lane's simulated execution time as % of the scattered lane's:
    /// under 100 means profiling + migrating finished ahead of doing neither.
    exec_vs_scattered_pct: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    rows: Vec<WorkloadRow>,
    summaries: Vec<WorkloadSummary>,
}

fn gap_recovered(block: f64, scattered: f64, migrated: f64) -> f64 {
    let gap = scattered - block;
    if gap <= 0.0 {
        return 1.0;
    }
    ((scattered - migrated) / gap).clamp(-1.0, 1.0)
}

fn main() {
    let smoke = matches!(scale(), Scale::Small);
    println!("X9. CONTINUOUS PROFILE-DRIVEN MIGRATION  (8 threads on 4 nodes, mid-run)\n");

    let block: Vec<NodeId> = (0..N_THREADS).map(|t| NodeId((t / 2) as u16)).collect();
    let scattered: Vec<NodeId> = (0..N_THREADS).map(|t| NodeId((t % 4) as u16)).collect();

    let mut table = TextTable::new(&[
        "Workload",
        "Lane",
        "Exec (ms)",
        "ObjFetch msgs",
        "Fabric KB",
        "Migrations",
        "Plans",
    ]);
    let mut rows: Vec<WorkloadRow> = Vec::new();
    let mut summaries: Vec<WorkloadSummary> = Vec::new();

    for kind in [Kind::Sor, Kind::BarnesHut, Kind::Water] {
        let lanes = [
            ("block (ideal)", run_lane(kind, block.clone(), None)),
            ("scattered", run_lane(kind, scattered.clone(), None)),
            (
                "migrated mid-run",
                run_lane(kind, scattered.clone(), Some(eager_rebalance())),
            ),
        ];
        for (lane, report) in &lanes {
            let (migrations, plans) = report
                .master
                .as_ref()
                .map(|m| (m.placement.applied_migrations, m.placement.plans))
                .unwrap_or((0, 0));
            let row = WorkloadRow {
                workload: kind.label(),
                lane,
                exec_ms: report.sim_exec_ms(),
                objfetch_msgs: report.net.class(MsgClass::ObjFetch).messages,
                fabric_kb: fabric_bytes(report) as f64 / 1024.0,
                migrations,
                plans,
            };
            table.row(&[
                row.workload.to_string(),
                row.lane.to_string(),
                format!("{:.0}", row.exec_ms),
                row.objfetch_msgs.to_string(),
                format!("{:.0}", row.fabric_kb),
                row.migrations.to_string(),
                row.plans.to_string(),
            ]);
            rows.push(row);
        }
        let [b, s, m] = &lanes;
        summaries.push(WorkloadSummary {
            workload: kind.label(),
            recovered_objfetch: gap_recovered(
                b.1.net.class(MsgClass::ObjFetch).messages as f64,
                s.1.net.class(MsgClass::ObjFetch).messages as f64,
                m.1.net.class(MsgClass::ObjFetch).messages as f64,
            ),
            recovered_fabric: gap_recovered(
                fabric_bytes(&b.1) as f64,
                fabric_bytes(&s.1) as f64,
                fabric_bytes(&m.1) as f64,
            ),
            exec_vs_scattered_pct: 100.0 * m.1.sim_exec_ms() / s.1.sim_exec_ms(),
        });
    }
    println!("{}", table.render());
    for s in &summaries {
        println!(
            "{:<14} recovered {:>5.1}% of the ObjFetch gap, {:>5.1}% of the fabric-byte gap; \
             exec {:>5.1}% of scattered",
            s.workload,
            s.recovered_objfetch * 100.0,
            s.recovered_fabric * 100.0,
            s.exec_vs_scattered_pct
        );
    }

    // Acceptance: mid-run migration beats staying scattered, in aggregate, on
    // fabric bytes (migration costs included).
    let sum = |lane: &str| -> f64 {
        rows.iter().filter(|r| r.lane == lane).map(|r| r.fabric_kb).sum()
    };
    let fabric_scattered = sum("scattered");
    let fabric_migrated = sum("migrated mid-run");
    assert!(
        fabric_migrated < fabric_scattered,
        "mid-run migration must cut fabric bytes: {fabric_migrated} vs {fabric_scattered}"
    );
    let migrated_runs: u64 = rows
        .iter()
        .filter(|r| r.lane == "migrated mid-run")
        .map(|r| r.migrations)
        .sum();
    assert!(migrated_runs > 0, "the migrated lanes must actually migrate");
    // Execution time, the metric a reader assumes, per workload: the migrated
    // lanes of Water (76.3 %) and SOR (67.1 %) finish ahead of scattered.
    // Barnes-Hut (91.2 %) only prints: it trades a few more fetches for time, and
    // its margin is EXPERIMENTS.md X9's to report. Six short smoke rounds do not
    // amortise the moves, so the smoke asserts nothing here.
    if !smoke {
        for (kind, bound) in [(Kind::Water, 85.0), (Kind::Sor, 100.0)] {
            let lanes = summaries
                .iter()
                .find(|s| s.workload == kind.label())
                .expect("every workload's lanes ran");
            assert!(
                lanes.exec_vs_scattered_pct < bound,
                "{} migrated must finish under {bound}% of scattered: {:.1}%",
                kind.label(),
                lanes.exec_vs_scattered_pct
            );
        }
    }

    if smoke {
        println!("\nsmoke mode: skipping BENCH_placement.json (checked-in file is the full run)");
        return;
    }
    let doc = Report {
        bench: "placement",
        mode: "full",
        rows,
        summaries,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_placement.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_placement.json");
    println!("\nwrote {path}");
}
