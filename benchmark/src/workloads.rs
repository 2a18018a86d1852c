//! The five named workloads and the one function that runs any of them through
//! the path a user runs: `Cluster::builder() → try_build → init(setup) →
//! try_run(thread_body) → report`, followed by a check of the computed result.
//!
//! Why these five (each stresses layers the others bypass):
//!
//! * `bh_1t` — one thread, so the executor never hands off and the fabric is
//!   nearly idle: `gos` arena access + `core` `on_access` do the work. An
//!   executor change must not move it.
//! * `bh_8t` — the same access stream on 8 carriers: `net::executor` hand-off
//!   dominates (~15× slower per access than `bh_1t`).
//! * `sor_8t` — few coarse 16 KB row objects, written at their home and fetched
//!   whole by the neighbour thread: write notices, false-invalid traps on every
//!   row, large fabric bytes per access. A gain on small objects that costs
//!   large ones shows here.
//! * `water_migrate` — the only workload where stack sampling, sticky-set
//!   footprinting, the balancer and thread/home migration run.
//! * `sessions_64t` — 64 carriers, hot shared objects with invalidations, the
//!   adaptive controller, the master and the mailbox at their busiest.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jessy_core::{
    FootprintConfig, FootprintMode, ProfilerConfig, SamplingRate, StackSamplingConfig,
};
use jessy_gos::CostModel;
use jessy_net::{LatencyModel, NodeId, ThreadId};
use jessy_obs::JournalSink;
use jessy_runtime::{Cluster, InitCtx, JThread, RebalanceConfig, RunReport};
use jessy_workloads::{barnes_hut, sessions, sor, water};

use crate::spans::Spans;

/// Fixed schedule seed: the workload seed varies the inputs, never the executor.
const EXEC_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Bh1t,
    Bh8t,
    Sor8t,
    WaterMigrate,
    Sessions64t,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Bh1t,
        Workload::Bh8t,
        Workload::Sor8t,
        Workload::WaterMigrate,
        Workload::Sessions64t,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bh1t => "bh_1t",
            Workload::Bh8t => "bh_8t",
            Workload::Sor8t => "sor_8t",
            Workload::WaterMigrate => "water_migrate",
            Workload::Sessions64t => "sessions_64t",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which profiling configuration a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// The workload's own configuration: what the timed repetitions run.
    On,
    /// Same placement, profiling and rebalancing off: the overhead baseline.
    Off,
    /// Fixed full-rate tracking: the reference TCM for `tcm_accuracy`.
    FullRate,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Bh(barnes_hut::BhConfig),
    /// The configuration and the sequential solver's grid sum the run must
    /// reproduce.
    Sor(sor::SorConfig, f64),
    Water(water::WaterConfig),
    Sessions(sessions::SessionsConfig),
}

/// One workload, sized and seeded.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub nodes: usize,
    pub threads: usize,
    placement: Option<Vec<NodeId>>,
    profiler: ProfilerConfig,
    rebalance: Option<RebalanceConfig>,
    kind: Kind,
    /// Timed repetitions a full run makes at least.
    pub min_reps: usize,
    /// Input sets whose simulated metrics one invocation reports the median of:
    /// this seed's and `ensemble - 1` more derived from it (`member_seed`). One
    /// is enough wherever a single input set gives steady numbers.
    pub ensemble: usize,
    /// Human-readable problem size, recorded with the results.
    pub size: String,
}

impl Spec {
    /// `quick` selects the `small` presets (smoke mode). `seed` is the workload
    /// seed: the simulator sees only the inputs generated from it. For SOR this
    /// also runs the sequential solver, the oracle its runs are checked against.
    pub fn new(workload: Workload, quick: bool, seed: u64) -> Spec {
        let nx = |n| ProfilerConfig::tracking_at(SamplingRate::NX(n));
        match workload {
            Workload::Bh1t | Workload::Bh8t => {
                let one = workload == Workload::Bh1t;
                let cfg = if quick {
                    barnes_hut::BhConfig {
                        seed,
                        ..barnes_hut::BhConfig::small()
                    }
                } else {
                    barnes_hut::BhConfig {
                        rounds: if one { 5 } else { 1 },
                        seed,
                        ..barnes_hut::BhConfig::paper()
                    }
                };
                Spec {
                    workload,
                    // bh_1t runs its one thread on node 1 of 2 (bodies and the
                    // master live on node 0) so that OAL and GOS bytes exist and
                    // every end-to-end metric is defined; there is still exactly
                    // one carrier, hence no hand-off.
                    nodes: if one { 2 } else { 8 },
                    threads: if one { 1 } else { 8 },
                    placement: one.then(|| vec![NodeId(1)]),
                    profiler: nx(4),
                    rebalance: None,
                    kind: Kind::Bh(cfg),
                    min_reps: if one { 7 } else { 5 },
                    ensemble: 1,
                    size: format!("{} bodies x {} rounds", cfg.n_bodies, cfg.rounds),
                }
            }
            Workload::Sor8t => {
                // SOR has no random input; the seed picks the row length so that
                // simulated time still depends on the inputs (within 1.5 %).
                let cfg = if quick {
                    sor::SorConfig::small()
                } else {
                    sor::SorConfig {
                        m: 2048 - 2 * (seed % 16) as usize,
                        rounds: 12,
                        ..sor::SorConfig::paper()
                    }
                };
                Spec {
                    workload,
                    nodes: 8,
                    threads: 8,
                    placement: None,
                    profiler: nx(4),
                    rebalance: None,
                    kind: Kind::Sor(cfg, sor::reference(&cfg).iter().flatten().sum()),
                    min_reps: 7,
                    ensemble: 1,
                    size: format!("{}x{} grid x {} rounds", cfg.n, cfg.m, cfg.rounds),
                }
            }
            Workload::WaterMigrate => {
                let cfg = if quick {
                    water::WaterConfig {
                        seed,
                        ..water::WaterConfig::small()
                    }
                } else {
                    water::WaterConfig {
                        rounds: 6,
                        seed,
                        ..water::WaterConfig::paper()
                    }
                };
                // The `placement` bench's migrated lane: Table V's costly corner
                // (nonstop footprinting + 1 us stack sampling) feeding continuous
                // rebalancing with home migration.
                let mut profiler = nx(1);
                profiler.footprint = Some(FootprintConfig {
                    mode: FootprintMode::Nonstop,
                    min_gap: 1,
                });
                profiler.stack = Some(StackSamplingConfig {
                    gap_ns: 1000,
                    lazy_extraction: true,
                });
                Spec {
                    workload,
                    nodes: 4,
                    threads: 8,
                    // Scattered: deliberately bad, round-robin over the nodes.
                    placement: Some((0..8).map(|t| NodeId(t % 4)).collect()),
                    profiler,
                    rebalance: Some(RebalanceConfig {
                        after_rounds: 1,
                        every_rounds: Some(2),
                        cooldown_rounds: 64,
                        with_prefetch: true,
                        min_gain_bytes: 64.0,
                        gain_horizon_rounds: 64.0,
                        migration_budget_bytes: None,
                        migrate_homes: true,
                    }),
                    kind: Kind::Water(cfg),
                    min_reps: 7,
                    // On one seed in ten the balancer moves two threads, not
                    // four: a fifth more GOS bytes stay remote and
                    // `oal_pct_of_gos` is 1.7, not 2.4. Over ten seeds single
                    // input sets spread that metric by up to 30 %, the median
                    // of five by 4-8 %.
                    ensemble: if quick { 1 } else { 5 },
                    size: format!("{} molecules x {} rounds", cfg.n_molecules, cfg.rounds),
                }
            }
            Workload::Sessions64t => {
                let cfg = if quick {
                    sessions::SessionsConfig {
                        seed,
                        ..sessions::SessionsConfig::small()
                    }
                } else {
                    sessions::SessionsConfig {
                        sessions_per_thread: 24,
                        seed,
                        ..sessions::SessionsConfig::paper()
                    }
                };
                // 64 B items at NX(1) leave one sampled item in 64 and a TCM that
                // shares nothing with the full-rate one (accuracy 0); NX(8) is the
                // coarsest rate at which the metric is defined and steady.
                let mut profiler = nx(8);
                profiler.adaptive_threshold = Some(0.1);
                profiler.drift_threshold = Some(0.3);
                Spec {
                    workload,
                    nodes: 8,
                    threads: if quick { 16 } else { 64 },
                    placement: None,
                    profiler,
                    rebalance: None,
                    kind: Kind::Sessions(cfg),
                    min_reps: 7,
                    ensemble: 1,
                    size: format!(
                        "{} items, {} sessions x {} ops per thread",
                        cfg.n_items, cfg.sessions_per_thread, cfg.ops_per_session
                    ),
                }
            }
        }
    }

    /// The seed of input set `member` of the ensemble; member 0 is `seed` itself.
    pub fn member_seed(seed: u64, member: usize) -> u64 {
        // Weyl steps of the golden ratio: distinct for every member.
        seed.wrapping_add((member as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The `Lane::On` profiler configuration.
    pub fn profiler(&self) -> &ProfilerConfig {
        &self.profiler
    }

    /// A copy of this workload on a single node with a single thread and the
    /// same problem, for `net.executor.vs_1t_x`. Barnes-Hut only.
    pub fn single_carrier_twin(&self) -> Option<Spec> {
        matches!(self.kind, Kind::Bh(_)).then(|| Spec {
            nodes: 2,
            threads: 1,
            placement: Some(vec![NodeId(1)]),
            ..self.clone()
        })
    }
}

/// Host (wall-clock) seconds spent in each phase of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub build_s: f64,
    pub init_s: f64,
    pub run_s: f64,
    pub report_s: f64,
}

impl Phases {
    /// What `setup_s` is taken from: cluster build plus workload set-up (which
    /// generates the inputs from the seed).
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.init_s
    }

    /// The denominator of `host_accesses_per_s`: `try_run` through `report`.
    pub fn measured_s(&self) -> f64 {
        self.run_s + self.report_s
    }
}

/// Everything one run produced.
pub struct Run {
    pub report: RunReport,
    pub phases: Phases,
    /// Stack samples taken over all threads (zero unless stack sampling is on).
    pub stack_samples: u64,
    /// Bytes of the sticky sets resolved for migrating threads.
    pub sticky_resolved_bytes: u64,
}

/// Run `spec` once in `lane`. `journal` makes it the traced run: the sink is
/// attached through `ClusterBuilder::trace` and the master keeps its OAL log for
/// replay.
///
/// `Err` means the operation failed: a typed error from the runtime, or a
/// computed result that is wrong.
pub fn run_once(
    spec: &Spec,
    lane: Lane,
    journal: Option<Arc<JournalSink>>,
    spans: &mut Spans,
) -> Result<Run, String> {
    let mut profiler = match lane {
        Lane::On => spec.profiler,
        Lane::Off => ProfilerConfig::disabled(),
        Lane::FullRate => ProfilerConfig::tracking_at(SamplingRate::Full),
    };
    profiler.record_oals = journal.is_some();
    let mut builder = Cluster::builder()
        .nodes(spec.nodes)
        .threads(spec.threads)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .exec_seed(EXEC_SEED)
        .profiler(profiler);
    if let Some(p) = &spec.placement {
        builder = builder.placement(p.clone());
    }
    if let (Lane::On, Some(rb)) = (lane, spec.rebalance) {
        builder = builder.rebalance(rb);
    }
    if let Some(sink) = journal {
        builder = builder.trace(sink);
    }
    let (built, build_s) = spans.time("runtime.try_build", |_| builder.try_build());
    let cluster = built.map_err(|e| format!("try_build: {e}"))?;

    let (n_threads, n_nodes) = (spec.threads, spec.nodes);
    match spec.kind {
        Kind::Bh(cfg) => drive(
            cluster,
            build_s,
            spans,
            |ctx| barnes_hut::setup(ctx, &cfg, n_threads, n_nodes),
            move |jt, h| barnes_hut::thread_body(jt, &cfg, h),
            |jt, h| {
                // Bodies start at rest, so total momentum starts at zero and the
                // tree code's force asymmetry is all that moves it.
                let p = barnes_hut::total_momentum(jt, h);
                let scale: f64 = h
                    .bodies
                    .iter()
                    .map(|&b| {
                        jt.read(b, |d| {
                            d[0] * (d[4] * d[4] + d[5] * d[5] + d[6] * d[6]).sqrt()
                        })
                    })
                    .sum();
                let drift = p.iter().map(|v| v * v).sum::<f64>().sqrt();
                if drift.is_finite() && scale > 0.0 && drift <= 0.05 * scale {
                    Ok(())
                } else {
                    Err(format!(
                        "total momentum drifted to {drift:e} (sum m|v| = {scale:e})"
                    ))
                }
            },
        ),
        Kind::Sor(cfg, want) => drive(
            cluster,
            build_s,
            spans,
            |ctx| sor::setup(ctx, &cfg, n_threads, n_nodes),
            move |jt, h| sor::thread_body(jt, &cfg, h),
            |jt, h| {
                let got = sor::checksum(jt, h);
                if (got - want).abs() <= 1e-9 * want.abs().max(1.0) {
                    Ok(())
                } else {
                    Err(format!(
                        "checksum {got} differs from the sequential reference {want}"
                    ))
                }
            },
        ),
        Kind::Water(cfg) => drive(
            cluster,
            build_s,
            spans,
            |ctx| water::setup(ctx, &cfg, n_threads, n_nodes),
            move |jt, h| water::thread_body(jt, &cfg, h),
            |jt, h| {
                let ke = water::kinetic_energy(jt, h);
                if ke.is_finite() && ke > 0.0 {
                    Ok(())
                } else {
                    Err(format!("kinetic energy {ke}"))
                }
            },
        ),
        Kind::Sessions(cfg) => drive(
            cluster,
            build_s,
            spans,
            |ctx| sessions::setup(ctx, &cfg, n_nodes),
            move |jt, h| sessions::thread_body(jt, &cfg, h),
            move |jt, h| {
                // Every fourth op increments one item by one. Unsynchronised
                // writers may overwrite each other, so the total is bounded by,
                // not equal to, the number of writes issued.
                let issued =
                    (n_threads * cfg.sessions_per_thread * (cfg.ops_per_session / 4)) as f64;
                let total: f64 = h.items.iter().map(|&it| jt.read(it, |d| d[0])).sum();
                if total > 0.0 && total <= issued {
                    Ok(())
                } else {
                    Err(format!(
                        "catalog counts sum to {total}, {issued} writes were issued"
                    ))
                }
            },
        ),
    }
}

/// `init → try_run → report → check`, generic over the workload's handles.
fn drive<H: Send + Sync + 'static>(
    mut cluster: Cluster,
    build_s: f64,
    spans: &mut Spans,
    setup: impl FnOnce(&mut InitCtx<'_>) -> H,
    body: impl Fn(&mut JThread, &H) + Send + Sync + 'static,
    check: impl FnOnce(&mut JThread, &H) -> Result<(), String>,
) -> Result<Run, String> {
    let (handles, init_s) = spans.time("workloads.setup", |_| Arc::new(cluster.init(setup)));
    let stack_samples = Arc::new(AtomicU64::new(0));
    let (ran, run_s) = spans.time("runtime.try_run", |_| {
        let handles = Arc::clone(&handles);
        let stack_samples = Arc::clone(&stack_samples);
        cluster.try_run(move |jt| {
            body(jt, &handles);
            if let Some(stats) = jt.profiler().stack_stats() {
                // Relaxed: a statistic, read only after every carrier is joined.
                stack_samples.fetch_add(stats.samples, Ordering::Relaxed);
            }
        })
    });
    ran.map_err(|e| format!("try_run: {e}"))?;
    let (report, report_s) = spans.time("runtime.report", |_| cluster.report());
    let sticky_resolved_bytes = cluster
        .shared()
        .migration_log
        .lock()
        .iter()
        .filter_map(|m| m.resolution.as_ref())
        .map(|r| r.total_bytes)
        .sum();
    // The check reads through the GOS and so moves the counters: it runs after
    // the report is taken.
    let mut reader = cluster.adopt_thread(ThreadId(0));
    check(&mut reader, &handles)?;
    Ok(Run {
        report,
        phases: Phases {
            build_s,
            init_s,
            run_s,
            report_s,
        },
        stack_samples: stack_samples.load(Ordering::Relaxed),
        sticky_resolved_bytes,
    })
}
