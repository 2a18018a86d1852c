//! TABLE V — overhead of sticky-set footprint profiling.
//!
//! Methodology (Section IV.B.1): single-threaded runs isolate each cost component:
//!
//! * **C1, stack sampling** — gaps of 4 ms and 16 ms, immediate vs lazy frame
//!   extraction (correlation tracking and object sampling off);
//! * **C2, sticky-set footprinting** — repeated object sampling, nonstop vs
//!   100 ms-timer cadence, at 4X vs full sampling (stack sampling off);
//! * **sticky-set resolution** — invoked once per closed interval (the paper measures
//!   it eagerly at the end of each HLRC interval), reported as the extra time over the
//!   footprinting run it rides on.

use std::sync::Arc;

use parking_lot::Mutex;

use jessy_bench::{bh_cfg, scale, sor_cfg, water_cfg, Scale, TextTable};
use jessy_core::{
    FootprintConfig, FootprintMode, ProfilerConfig, SamplingRate, StackSamplingConfig,
};
use jessy_gos::CostModel;
use jessy_net::LatencyModel;
use jessy_runtime::{Cluster, RunReport};
use jessy_workloads::{barnes_hut, sor, water, WorkloadKind};

/// Run single-threaded with the given profiler config; optionally resolve the sticky
/// set after every simulated interval's worth of work (the resolution column).
fn run1(kind: WorkloadKind, scale: Scale, config: ProfilerConfig, resolve: bool) -> RunReport {
    let mut cluster = Cluster::builder()
        .nodes(1)
        .threads(1)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .build();
    let resolved: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    match kind {
        WorkloadKind::Sor => {
            let cfg = sor_cfg(scale);
            let h = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, 1, 1)));
            let r = Arc::clone(&resolved);
            cluster.run(move |jt| {
                sor::thread_body(jt, &cfg, &h);
                if resolve {
                    let intervals = jt.profiler().interval();
                    for _ in 0..intervals {
                        jt.profiler().resolve_sticky(jt.gos(), jt.clock());
                    }
                    *r.lock() = intervals;
                }
            });
        }
        WorkloadKind::BarnesHut => {
            let cfg = bh_cfg(scale);
            let h = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, 1, 1)));
            let r = Arc::clone(&resolved);
            cluster.run(move |jt| {
                barnes_hut::thread_body(jt, &cfg, &h);
                if resolve {
                    let intervals = jt.profiler().interval();
                    for _ in 0..intervals {
                        jt.profiler().resolve_sticky(jt.gos(), jt.clock());
                    }
                    *r.lock() = intervals;
                }
            });
        }
        WorkloadKind::WaterSpatial => {
            let cfg = water_cfg(scale);
            let h = Arc::new(cluster.init(|ctx| water::setup(ctx, &cfg, 1, 1)));
            let r = Arc::clone(&resolved);
            cluster.run(move |jt| {
                water::thread_body(jt, &cfg, &h);
                if resolve {
                    let intervals = jt.profiler().interval();
                    for _ in 0..intervals {
                        jt.profiler().resolve_sticky(jt.gos(), jt.clock());
                    }
                    *r.lock() = intervals;
                }
            });
        }
        WorkloadKind::Lu | WorkloadKind::PhaseShift | WorkloadKind::Sessions => {
            unreachable!("Table V covers the paper's three workloads")
        }
    }
    cluster.report()
}

fn stack_config(gap_ms: u64, lazy: bool) -> ProfilerConfig {
    let mut c = ProfilerConfig::disabled();
    c.stack = Some(StackSamplingConfig {
        gap_ns: gap_ms * 1_000_000,
        lazy_extraction: lazy,
    });
    c
}

fn footprint_config(mode: FootprintMode, rate: SamplingRate) -> ProfilerConfig {
    let mut c = ProfilerConfig::disabled();
    c.initial_rate = rate;
    c.footprint = Some(FootprintConfig { mode, min_gap: 1 });
    c
}

fn main() {
    let scale = scale();
    println!("TABLE V. OVERHEAD OF STICKY-SET FOOTPRINT PROFILING  (scale: {scale:?})");
    println!("(single thread; simulated execution time, ms; overhead vs baseline)\n");

    let cell = |run: &RunReport, base: &RunReport| -> String {
        format!("{:.0} ({:+.2}%)", run.sim_exec_ms(), run.overhead_pct(base))
    };

    let mut t = TextTable::new(&[
        "Benchmark",
        "Baseline",
        "Stack imm 4ms",
        "Stack imm 16ms",
        "Stack lazy 4ms",
        "Stack lazy 16ms",
        "FP nonstop 4X",
        "FP nonstop full",
        "FP timer 4X",
        "FP timer full",
        "+Resolution",
    ]);

    for kind in WorkloadKind::ALL {
        let base = run1(kind, scale, ProfilerConfig::disabled(), false);
        let timer = FootprintMode::Timer(100_000_000);
        let fp_timer_4x = run1(
            kind,
            scale,
            footprint_config(timer, SamplingRate::NX(4)),
            false,
        );
        // Resolution rides on the timer/4X footprinting run plus 16 ms lazy stack
        // sampling (the configuration the paper settles on).
        let mut res_cfg = footprint_config(timer, SamplingRate::NX(4));
        res_cfg.stack = Some(StackSamplingConfig {
            gap_ns: 16_000_000,
            lazy_extraction: true,
        });
        let with_res = run1(kind, scale, res_cfg, true);

        t.row(&[
            kind.name().to_string(),
            format!("{:.0}", base.sim_exec_ms()),
            cell(&run1(kind, scale, stack_config(4, false), false), &base),
            cell(&run1(kind, scale, stack_config(16, false), false), &base),
            cell(&run1(kind, scale, stack_config(4, true), false), &base),
            cell(&run1(kind, scale, stack_config(16, true), false), &base),
            cell(
                &run1(
                    kind,
                    scale,
                    footprint_config(FootprintMode::Nonstop, SamplingRate::NX(4)),
                    false,
                ),
                &base,
            ),
            cell(
                &run1(
                    kind,
                    scale,
                    footprint_config(FootprintMode::Nonstop, SamplingRate::Full),
                    false,
                ),
                &base,
            ),
            cell(&fp_timer_4x, &base),
            cell(
                &run1(
                    kind,
                    scale,
                    footprint_config(timer, SamplingRate::Full),
                    false,
                ),
                &base,
            ),
            format!("{:+.2}%", with_res.overhead_pct(&fp_timer_4x)),
        ]);
    }
    println!("{}", t.render());
    println!("paper shape: stack sampling negligible (<1.5%, lazy beating immediate);");
    println!("nonstop footprinting the costly one (up to ~9%), tamed by the 100 ms");
    println!("timer and the 4X rate (to ~0-5%); resolution a few percent and only paid");
    println!("at migration time in production (here invoked once per interval).");
}
