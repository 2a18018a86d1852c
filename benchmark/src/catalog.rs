//! The metric catalogue: every end-to-end metric with its regression bound, every
//! per-layer metric with the end-to-end metric and workload it should move. The
//! root `BENCHMARK.json` is generated from this file (`--print-benchmark-json`),
//! so the program and the contract cannot drift apart.

use serde::Value;

use crate::workloads::Workload;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the simulator would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A pure function of the inputs: must repeat exactly for one seed.
    pub deterministic: bool,
}

/// Bounds sit at one and a half to three times the widest spread seen over ten
/// seeds on any workload (README, "Spreads seen"), which puts most at the
/// contract's cap: the simulated metrics move with the seed's inputs
/// (`water_migrate` most), the host metrics with the machine's other tenants.
/// For one seed the deterministic ones repeat bit for bit.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "host_accesses_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        deterministic: false,
    },
    EndToEnd {
        name: "sim_exec_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        deterministic: true,
    },
    EndToEnd {
        name: "sim_vs_off_pct",
        unit: "%",
        better: Better::Lower,
        bound: 0.20,
        deterministic: true,
    },
    EndToEnd {
        name: "tcm_accuracy",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        deterministic: true,
    },
    EndToEnd {
        name: "oal_pct_of_gos",
        unit: "%",
        better: Better::Lower,
        bound: 0.25,
        deterministic: true,
    },
    EndToEnd {
        name: "fabric_bytes_per_access",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        deterministic: true,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        deterministic: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        deterministic: false,
    },
];

/// A metric of one layer: a count from `RunReport` / `MasterOutput`, a
/// benchmark-side span, or a probe that calls that layer's public API alone.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric (and workload) this one should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const HOST_ALL: &str = "host_accesses_per_s (all)";
const HOST_HANDOFF: &str =
    "host_accesses_per_s on bh_8t, sor_8t, water_migrate, sessions_64t; no move on bh_1t";
const HOST_FABRIC: &str = "host_accesses_per_s on sor_8t, sessions_64t";
const FABRIC: &str = "fabric_bytes_per_access, oal_pct_of_gos";
const SIM: &str = "sim_exec_ms, sim_vs_off_pct";
const MIGRATE: &str =
    "sim_exec_ms, sim_vs_off_pct, fabric_bytes_per_access on water_migrate; zero elsewhere";
const ADAPTIVE: &str = "tcm_accuracy, sim_vs_off_pct on sessions_64t";
const FAILURES: &str =
    "failure share (late OALs must stay 0; coverage is 1.0 where every interval ends at a barrier)";
const TRACED: &str = "cost of the traced run only";

pub const PER_LAYER: [PerLayer; 52] = [
    layer("runtime.build_ms", "ms", Lower, "setup_s (all)"),
    layer("workloads.setup_ms", "ms", Lower, "setup_s (all)"),
    layer("runtime.run_ms", "ms", Lower, HOST_ALL),
    layer("runtime.report_ms", "ms", Lower, HOST_ALL),
    layer("workloads.accesses", "count", Lower, HOST_ALL),
    layer("net.executor.handoff_ns.t1", "ns", Lower, HOST_HANDOFF),
    layer("net.executor.handoff_ns.t8", "ns", Lower, HOST_HANDOFF),
    layer("net.executor.handoff_ns.t64", "ns", Lower, HOST_HANDOFF),
    layer("net.executor.est_share_pct", "%", Lower, HOST_HANDOFF),
    layer("net.executor.vs_1t_x", "x", Lower, "host_accesses_per_s on bh_8t"),
    layer("net.executor.sys_share_pct", "%", Lower, HOST_HANDOFF),
    layer("net.executor.ctx_switches_per_access", "1/access", Lower, HOST_HANDOFF),
    layer("net.executor.unpinned_slowdown_x", "x", Lower, "informational"),
    layer("net.fabric.msgs_per_access", "1/access", Lower, FABRIC),
    layer("net.fabric.bytes.gos", "B", Lower, FABRIC),
    layer("net.fabric.bytes.oal", "B", Lower, FABRIC),
    layer("net.fabric.bytes.tcm", "B", Lower, FABRIC),
    layer("net.fabric.bytes.migration", "B", Lower, FABRIC),
    layer("net.fabric.send_ns", "ns", Lower, HOST_FABRIC),
    layer("net.mailbox.post_ns", "ns", Lower, HOST_FABRIC),
    layer("gos.access_ns.home_hit", "ns", Lower, "host_accesses_per_s on bh_1t"),
    layer("gos.access_ns.cache_hit", "ns", Lower, "host_accesses_per_s on bh_1t"),
    layer("gos.access_ns.armed_trap", "ns", Lower, "host_accesses_per_s on bh_1t"),
    layer("gos.write_diff_ns", "ns", Lower, "host_accesses_per_s on sessions_64t, bh_1t (sor_8t flushes no diffs: rows are homed at their writers)"),
    layer("gos.real_faults_per_kacc", "1/kacc", Lower, SIM),
    layer("gos.false_invalid_faults_per_kacc", "1/kacc", Lower, SIM),
    layer("gos.diffs_flushed", "count", Lower, SIM),
    layer("gos.notices_applied", "count", Lower, SIM),
    layer("core.profiler.on_access_ns", "ns", Lower, "host_accesses_per_s on bh_1t"),
    layer("core.profiler.host_share_pct", "%", Lower, "host_accesses_per_s on bh_1t"),
    layer("core.profiler.oal_entries", "count", Lower, "oal_pct_of_gos, tcm_accuracy"),
    layer("core.profiler.sampled_pct", "%", Lower, "oal_pct_of_gos, tcm_accuracy"),
    layer("core.tcm.round_ms", "ms", Lower, "host_accesses_per_s on sessions_64t (expected < 2 % of wall)"),
    layer("core.tcm.round_ms.n1024", "ms", Lower, "none here: no workload is master-bound"),
    layer("core.adaptive.rate_changes", "count", Lower, ADAPTIVE),
    layer("core.adaptive.converged_classes", "count", Higher, ADAPTIVE),
    layer("core.adaptive.drift_reactivations", "count", Lower, ADAPTIVE),
    layer("stack.samples", "count", Lower, MIGRATE),
    layer("stack.sample_ns", "ns", Lower, "host_accesses_per_s on water_migrate"),
    layer("core.sticky.resolved_bytes", "B", Lower, MIGRATE),
    layer("runtime.migration.thread_moves", "count", Lower, MIGRATE),
    layer("runtime.migration.home_moves", "count", Lower, MIGRATE),
    layer("runtime.migration.bytes", "B", Lower, MIGRATE),
    layer("runtime.balancer.vetoes", "count", Lower, MIGRATE),
    layer("runtime.master.rounds", "count", Lower, FAILURES),
    layer("runtime.master.late_oals", "count", Lower, FAILURES),
    layer("runtime.master.min_round_coverage", "ratio", Higher, FAILURES),
    layer("obs.journal.events_per_access", "1/access", Lower, TRACED),
    layer("obs.journal.overhead_pct", "%", Lower, TRACED),
    layer("obs.export.ns_per_event", "ns", Lower, TRACED),
    layer("obs.analyze.ms", "ms", Lower, TRACED),
    layer("layers.unattributed_pct", "%", Lower, "reported, not gated"),
];

/// One line per workload: why it exists.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::Bh1t => {
            "Barnes-Hut on one carrier: gos arena access and core on_access do the work; no hand-off, so an executor change must not move it"
        }
        Workload::Bh8t => {
            "the same Barnes-Hut access stream on 8 carriers: net::executor hand-off dominates, about 15x slower per access than bh_1t"
        }
        Workload::Sor8t => {
            "SOR: few coarse 16 KB row objects, written at home and fetched whole by neighbours, so write notices, false-invalid traps and fabric bytes per access are large"
        }
        Workload::WaterMigrate => {
            "Water-Spatial, scattered, nonstop footprinting, stack sampling, rebalancing with home migration: the only run of stack, sticky, balancer, migration"
        }
        Workload::Sessions64t => {
            "Zipf sessions on 64 carriers: hot shared objects with invalidations; adaptive controller, master and mailbox at their busiest"
        }
    }
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let s = |v: &str| Value::Str(v.to_string());
    let doc = Value::Object(vec![
        (
            "command".into(),
            Value::Array(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Value::Array(vec![s("benchmark")])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        (
            "workloads".into(),
            Value::Array(
                Workload::ALL
                    .iter()
                    .map(|&w| {
                        Value::Object(vec![
                            ("name".into(), s(w.name())),
                            ("why".into(), s(why(w))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.label())),
                            ("bound".into(), Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::Object(vec![
                            ("name".into(), s(m.name)),
                            ("unit".into(), s(m.unit)),
                            ("better".into(), s(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("a Value tree always serializes") + "\n"
}
