//! Chaos tests: full cluster runs under injected network faults.
//!
//! The acceptance bar of the fault-injection work: a lossy run must *complete* (no
//! deadlock), report degraded per-round coverage, and skip rate changes below the
//! coverage floor — while a zero-fault plan reproduces the fault-free run
//! bit-identically.

use std::sync::Arc;

use jessy_core::{ProfilerConfig, SamplingRate};
use jessy_gos::{CostModel, LockId, ObjectId};
use jessy_net::{
    CrashWindow, FaultPlan, LatencyModel, MasterCrashWindow, NodeId, PartitionWindow, SlowWindow,
    StallWindow,
};
use jessy_obs::{round_series, EventKind, JournalSink, TraceEvent};
use jessy_runtime::{Cluster, MasterOutput, RunReport};

/// CI runs this suite under a small seed matrix (`JESSY_CHAOS_SEED`); locally the
/// plan's default seed applies. Every assertion below must hold for *any* seed —
/// the matrix exists to catch seed-shaped luck, not to pick a lucky seed.
fn chaos_seed() -> u64 {
    std::env::var("JESSY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| FaultPlan::default().seed)
}

/// Each closed round's coverage, as the journal records it (a round's last
/// close wins).
fn coverage(events: &[TraceEvent]) -> Vec<f64> {
    round_series(events).rounds.iter().map(|r| r.coverage).collect()
}

/// A workload whose round-over-round maps disagree (even rounds touch one shared
/// object, odd rounds two), so the adaptive controller has refinement pressure on
/// every round — which is what makes "skipped below the coverage floor" observable.
fn unstable_workload(cluster: &mut Cluster, barriers: usize) {
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        (0..100)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>()
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for round in 0..barriers {
            jt.read(objs[0], |_| {});
            if round % 2 == 1 {
                jt.read(objs[67], |_| {});
            }
            jt.barrier();
        }
    });
}

fn chaos_profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.adaptive_threshold = Some(0.02);
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(3);
    config.min_round_coverage = 0.95;
    config
}

/// The headline acceptance test: 10% OAL drop, run completes, coverage degrades,
/// the controller skips rather than steering on garbage.
#[test]
fn lossy_oal_run_completes_and_degrades_gracefully() {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(chaos_profiler())
        .faults(FaultPlan {
            seed: chaos_seed(),
            oal_drop: 0.10,
            ..FaultPlan::default()
        })
        .trace(sink.clone())
        .build();
    unstable_workload(&mut cluster, 40);

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran to completion");
    let coverage = coverage(&sink.sorted_events());
    assert!(master.rounds > 0, "rounds closed despite losses");
    assert!(
        report.net.faults.dropped > 0,
        "the plan must actually have dropped OAL batches: {:?}",
        report.net.faults
    );
    assert!(
        coverage.iter().any(|&c| c < 1.0),
        "dropped batches must show up as partial coverage: {coverage:?}"
    );
    assert!(
        coverage.iter().all(|&c| c > 0.0),
        "no round can be fully empty at a 10% drop rate: {coverage:?}"
    );
    assert!(
        master.skipped_rounds > 0,
        "rounds below the 0.95 coverage floor must skip rate steering"
    );
    let skips: Vec<f64> = sink
        .sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RoundSkipped { coverage, .. } => Some(coverage),
            _ => None,
        })
        .collect();
    assert_eq!(skips.len() as u64, master.skipped_rounds, "every skip is journaled");
    for coverage in skips {
        assert!(coverage < 0.95, "skip recorded at {coverage}");
    }
    // The cumulative TCM still reflects the workload: pairs share, total mass > 0.
    assert!(master.tcm.total() > 0.0);
}

/// A zero-fault plan must be a no-op: bit-identical TCM, rounds, coverage and rate
/// decisions versus a build with no fault plan at all.
///
/// The workload is *stable* (every round identical) so the adaptive controller never
/// fires: applied rate changes take effect at real-time-dependent points in worker
/// progress, which is the one legitimately non-reproducible part of a run and not
/// what this test is about.
#[test]
fn zero_fault_plan_reproduces_the_fault_free_run() {
    let run = |faults: Option<FaultPlan>| {
        let sink = JournalSink::shared();
        let mut builder = Cluster::builder()
            .nodes(2)
            .threads(4)
            .latency(LatencyModel::fast_ethernet())
            .costs(CostModel::free())
            .profiler(chaos_profiler())
            .trace(sink.clone());
        if let Some(plan) = faults {
            builder = builder.faults(plan);
        }
        let mut cluster = builder.build();
        let objs = cluster.init(|ctx| {
            let class = ctx.register_scalar_class("Body", 8);
            (0..100)
                .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
                .collect::<Vec<ObjectId>>()
        });
        let objs = Arc::new(objs);
        cluster.run(move |jt| {
            for _ in 0..20 {
                jt.read(objs[0], |_| {});
                jt.read(objs[67], |_| {});
                jt.barrier();
            }
        });
        let report = cluster.report();
        let master = cluster.master_output().expect("master ran").clone();
        (report, master, coverage(&sink.sorted_events()))
    };
    let (base_report, base, base_coverage) = run(None);
    // Explicitly spell the PR 6 and PR 8 fields: empty partition and slow-window
    // schedules are part of the zero plan.
    let zero_plan = FaultPlan {
        partitions: vec![],
        slow: vec![],
        ..FaultPlan::default()
    };
    let (zero_report, zero, zero_coverage) = run(Some(zero_plan));

    assert!(FaultPlan::default().is_zero());
    // A plan carrying any slow window is *not* zero: gray failures are faults.
    assert!(!FaultPlan {
        slow: vec![jessy_net::SlowWindow {
            node: NodeId(1),
            from_ns: 0,
            until_ns: None,
            factor: 2.0,
        }],
        ..FaultPlan::default()
    }
    .is_zero());
    // A few targeted fields first, for readable failures...
    assert_eq!(zero.tcm, base.tcm, "TCM must be bit-identical");
    assert_eq!(zero.rounds, base.rounds);
    assert_eq!(zero_coverage, base_coverage);
    assert_eq!(zero.rate_changes, base.rate_changes);
    assert_eq!(zero.skipped_rounds, base.skipped_rounds);
    assert!(zero_report.net.faults.is_zero());
    // ...then the whole report at once. `DeterministicReport` is the host-independent
    // view (no wall-clock fields), so the two runs must serialize byte-identically —
    // this covers every counter and the full master output
    // without enumerating them field by field.
    assert_eq!(
        serde_json::to_string(&zero_report.deterministic()).expect("serialize"),
        serde_json::to_string(&base_report.deterministic()).expect("serialize"),
        "a zero-fault plan must reproduce the fault-free run bit for bit"
    );
    // PR 3 extension: a plan with empty crash vectors also schedules no recovery
    // machinery — no epochs, no restores, no fencing, no quarantine, no rejoins.
    assert_eq!(zero_report.net.faults.crash_suppressed, 0);
    assert_eq!(zero_report.net.faults.partitioned, 0);
    assert_eq!(zero_report.net.faults.oals_deferred, 0);
    for m in [&zero, &base] {
        assert_eq!(m.restores, 0);
        assert_eq!(m.replayed_oals, 0);
        assert_eq!(m.fenced_oals, 0);
        assert_eq!(m.quarantined_nodes, 0);
        assert_eq!(m.final_epoch, 0, "epoch must stay 0 without a master crash");
    }
    assert_eq!(zero.checkpoints_taken, base.checkpoints_taken);
    assert_eq!(zero_report.rejoins, 0);
    assert_eq!(base_report.rejoins, 0);
}

/// A node whose outbound traffic stalls for the whole run: its threads' OALs never
/// arrive, yet every round still closes (deadline path) with partial coverage and
/// the run terminates.
#[test]
fn stalled_node_cannot_wedge_round_close() {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(2);
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(2)
        .placement(vec![NodeId(0), NodeId(1)])
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .trace(sink.clone())
        .faults(FaultPlan {
            stalls: vec![StallWindow {
                node: NodeId(1),
                start_msg: 0,
                end_msg: u64::MAX,
            }],
            ..FaultPlan::default()
        })
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        vec![ctx.alloc_scalar_at(NodeId(0), class).id]
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for _ in 0..10 {
            jt.read(objs[0], |_| {});
            jt.barrier();
        }
    });

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran");
    assert!(master.rounds > 0, "deadline must close rounds");
    assert!(master.deadline_rounds > 0, "closure came from the deadline path");
    let coverage = coverage(&sink.sorted_events());
    assert!(
        coverage.iter().all(|&c| c <= 0.5 + 1e-9),
        "only the healthy node's thread can contribute: {coverage:?}"
    );
    assert!(report.net.faults.stalled > 0, "{:?}", report.net.faults);
}

/// Duplicated OAL batches are deduplicated at the master: the TCM and round count
/// match a clean run exactly, and the duplicates are counted.
#[test]
fn duplicated_oal_batches_are_deduplicated() {
    let run = |plan: Option<FaultPlan>| {
        let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
        config.intervals_per_round = 1;
        let mut builder = Cluster::builder()
            .nodes(2)
            .threads(2)
            .latency(LatencyModel::free())
            .costs(CostModel::free())
            .profiler(config);
        if let Some(p) = plan {
            builder = builder.faults(p);
        }
        let mut cluster = builder.build();
        let objs = cluster.init(|ctx| {
            let class = ctx.register_scalar_class("S", 8);
            vec![ctx.alloc_scalar_at(NodeId(0), class).id]
        });
        let objs = Arc::new(objs);
        cluster.run(move |jt| {
            for _ in 0..8 {
                jt.read(objs[0], |_| {});
                jt.barrier();
            }
        });
        let master = cluster.master_output().expect("master ran").clone();
        let faults = cluster.report().net.faults;
        (master, faults)
    };
    let (clean, _) = run(None);
    let (dup, faults) = run(Some(FaultPlan {
        seed: chaos_seed(),
        duplicate_prob: 0.5,
        ..FaultPlan::default()
    }));
    assert!(faults.duplicated > 0, "{faults:?}");
    // `faults.duplicated` also counts duplicated GOS messages; OAL duplicates are a
    // subset of it, and every one of them must have been discarded at the master.
    assert!(dup.duplicate_oals > 0, "OAL batches were duplicated");
    assert!(dup.duplicate_oals <= faults.duplicated);
    assert_eq!(dup.tcm, clean.tcm, "duplication must not inflate the map");
    assert_eq!(dup.rounds, clean.rounds);
    assert_eq!(dup.oals_ingested, clean.oals_ingested);
}

// ---------------------------------------------------------- crash-stop recovery (PR 3)

/// A *stable* workload (every round identical), shared by the recovery tests that
/// compare against an uninterrupted run bit for bit. Returns the report, the
/// master's output and the journal.
fn stable_run(
    profiler: ProfilerConfig,
    faults: Option<FaultPlan>,
    barriers: usize,
) -> (jessy_runtime::RunReport, jessy_runtime::MasterOutput, Vec<TraceEvent>) {
    let sink = JournalSink::shared();
    let mut builder = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(profiler)
        .trace(sink.clone());
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut cluster = builder.build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        (0..100)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>()
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for _ in 0..barriers {
            jt.read(objs[0], |_| {});
            jt.read(objs[67], |_| {});
            jt.barrier();
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran").clone();
    (report, master, sink.sorted_events())
}

fn recovery_profiler() -> ProfilerConfig {
    let mut config = chaos_profiler();
    config.checkpoint_every_rounds = Some(3);
    config
}

/// The headline tentpole test: the master crashes mid-run and restarts; checkpoint
/// restore plus deterministic replay of the buffered backlog reproduces the
/// uninterrupted run **bit for bit** (f64 equality) when no message faults
/// dropped OALs — the TCM, the journal's per-round series and convergence
/// spans and the rate decisions, along with rounds, coverage and the ingest
/// ledger.
#[test]
fn master_crash_with_restart_recovers_a_bit_identical_tcm() {
    let config = recovery_profiler();
    let (_, base, base_events) = stable_run(config, None, 20);
    let (report, crashed, events) = stable_run(
        config,
        Some(FaultPlan {
            master_crashes: vec![MasterCrashWindow {
                from_interval: 8,
                until_interval: 11,
            }],
            ..FaultPlan::default()
        }),
        20,
    );

    assert_eq!(crashed.restores, 1, "exactly one crash window, one restore");
    assert_eq!(crashed.final_epoch, 1, "each restore bumps the epoch once");
    assert!(crashed.checkpoints_taken >= 1, "K=3 must have snapshotted");
    assert!(crashed.replayed_oals >= 1, "the post-checkpoint backlog replays");
    assert_eq!(crashed.tcm, base.tcm, "recovered TCM must be bit-identical");
    let (series, base_series) = (round_series(&events), round_series(&base_events));
    assert_eq!(series.rounds, base_series.rounds, "the last close of each round");
    assert_eq!(series.unconverged("Body"), base_series.unconverged("Body"));
    assert_eq!(crashed.rate_changes, base.rate_changes);
    assert_eq!(crashed.rounds, base.rounds);
    assert_eq!(crashed.round_coverage, base.round_coverage);
    assert_eq!(crashed.oals_ingested, base.oals_ingested);
    assert_eq!(report.oal_post_failures, 0);
    assert_eq!(report.rejoins, 0, "a master crash restarts no worker node");
}

/// A master restore keeps the recorded OAL stream: the checkpoint holds the
/// accepted-OAL log's length, not a copy of it, so a restore cuts the one log
/// back to that length and replays the tail onto it. With a checkpoint every
/// round (so the log is never drained, yet never copied either), the recorded
/// stream equals the uninterrupted run's.
#[test]
fn master_crash_keeps_the_recorded_oal_stream() {
    let mut config = chaos_profiler();
    config.record_oals = true;
    config.checkpoint_every_rounds = Some(1);
    // Two intervals a round, so the restart at interval 11 finds round 5
    // (intervals 10-11) open and interval 10's OALs in the log's tail.
    config.intervals_per_round = 2;
    let (_, base, _) = stable_run(config, None, 20);
    let (_, crashed, _) = stable_run(
        config,
        Some(FaultPlan {
            master_crashes: vec![MasterCrashWindow {
                from_interval: 8,
                until_interval: 11,
            }],
            ..FaultPlan::default()
        }),
        20,
    );
    assert_eq!(crashed.restores, 1);
    assert!(crashed.checkpoints_taken >= base.rounds, "a checkpoint every round");
    assert!(crashed.replayed_oals >= 1, "the post-checkpoint tail replays");
    assert!(!base.oal_log.is_empty());
    assert_eq!(crashed.oal_log, base.oal_log, "the recorded stream survives the restore");
    assert_eq!(crashed.tcm, base.tcm);
    assert_eq!(crashed.rounds, base.rounds);
}

/// A master restore keeps the overhead-budget tallies: the over-budget count is
/// a ledger counter restored with the rounds it counts, and the ladder's rung
/// count rides the controller checkpoint, so the crashed run reports the
/// rounds its own journal closes over budget (each round's last close) and the
/// rungs the uninterrupted run takes.
#[test]
fn master_crash_keeps_the_budget_tallies() {
    let run = |faults: Option<FaultPlan>| {
        let mut config = recovery_profiler();
        config.overhead_budget = Some(1e-6);
        let sink = JournalSink::shared();
        let mut builder = Cluster::builder()
            .nodes(2)
            .threads(4)
            .latency(LatencyModel::fast_ethernet())
            .costs(CostModel::pentium4_2ghz())
            .profiler(config)
            .trace(sink.clone());
        if let Some(plan) = faults {
            builder = builder.faults(plan);
        }
        let mut cluster = builder.build();
        let objs = cluster.init(|ctx| {
            let class = ctx.register_scalar_class("Body", 8);
            (0..100)
                .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
                .collect::<Vec<ObjectId>>()
        });
        let objs = Arc::new(objs);
        cluster.run(move |jt| {
            for _ in 0..20 {
                jt.read(objs[0], |_| {});
                jt.read(objs[67], |_| {});
                jt.compute(100);
                jt.barrier();
            }
        });
        let over = round_series(&sink.sorted_events()).over_budget(1e-6);
        (cluster.master_output().expect("master ran").clone(), over)
    };
    let (base, base_over) = run(None);
    let (crashed, crashed_over) = run(Some(FaultPlan {
        master_crashes: vec![MasterCrashWindow {
            from_interval: 8,
            until_interval: 11,
        }],
        ..FaultPlan::default()
    }));

    assert_eq!(crashed.restores, 1);
    assert!(base.budget_degrades > 0, "a 1e-6 budget must walk the ladder");
    assert_eq!(base.budget_over_rounds, base_over);
    assert_eq!(
        crashed.budget_over_rounds, crashed_over,
        "the over-budget count is what the journal's last closes record"
    );
    assert_eq!(
        crashed.budget_degrades, base.budget_degrades,
        "rungs taken before the checkpoint survive the restore"
    );
}

/// A master crash *without* checkpointing still recovers — round zero is then the
/// checkpoint, the replay log spans the whole run, and the result is still bit-identical.
#[test]
fn master_crash_without_checkpoints_replays_from_round_zero() {
    let (_, base, base_events) = stable_run(chaos_profiler(), None, 16);
    let (_, crashed, events) = stable_run(
        chaos_profiler(), // checkpoint_every_rounds: None
        Some(FaultPlan {
            master_crashes: vec![MasterCrashWindow {
                from_interval: 6,
                until_interval: 9,
            }],
            ..FaultPlan::default()
        }),
        16,
    );
    assert_eq!(crashed.checkpoints_taken, 0);
    assert_eq!(crashed.restores, 1);
    assert!(
        crashed.replayed_oals >= crashed.oals_ingested / 2,
        "a restore from round zero replays the full pre-crash history: {} of {}",
        crashed.replayed_oals,
        crashed.oals_ingested
    );
    assert_eq!(crashed.tcm, base.tcm, "recovery from round zero must also be exact");
    assert_eq!(crashed.rounds, base.rounds);
    assert_eq!(coverage(&events), coverage(&base_events));
}

/// Master crash composed with a lossy network: recovery still completes (no wedge,
/// no panic), the dropped batches show up as partial round coverage, and the
/// controller skips below the floor instead of steering on loss-shaped phantoms.
#[test]
fn master_crash_composed_with_drops_degrades_by_coverage() {
    let mut config = recovery_profiler();
    config.round_deadline_intervals = Some(3);
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .trace(sink.clone())
        .faults(FaultPlan {
            seed: chaos_seed(),
            oal_drop: 0.10,
            master_crashes: vec![MasterCrashWindow {
                from_interval: 10,
                until_interval: 14,
            }],
            ..FaultPlan::default()
        })
        .build();
    unstable_workload(&mut cluster, 40);

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran to completion");
    assert_eq!(master.restores, 1);
    assert!(report.net.faults.dropped > 0, "{:?}", report.net.faults);
    assert!(master.rounds > 0);
    let coverage = coverage(&sink.sorted_events());
    assert!(
        coverage.iter().any(|&c| c < 1.0),
        "drops must surface as partial coverage: {coverage:?}"
    );
    assert!(master.tcm.total() > 0.0, "the recovered map still has mass");
}

/// A node crashes and restarts: its threads' OALs are suppressed during the window,
/// the first interval after the restart performs the rejoin handshake, and coverage
/// returns to 1.0 once the node is back.
#[test]
fn restarted_node_rejoins_and_coverage_recovers() {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(3);
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .trace(sink.clone())
        .faults(FaultPlan {
            node_crashes: vec![CrashWindow {
                node: NodeId(1),
                from_interval: 3,
                until_interval: Some(6),
            }],
            ..FaultPlan::default()
        })
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        vec![ctx.alloc_scalar_at(NodeId(0), class).id]
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for _ in 0..12 {
            jt.read(objs[0], |_| {});
            jt.barrier();
        }
    });

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran");
    // Threads 2 and 3 live on node 1: three suppressed intervals each, one rejoin
    // handshake each when the node comes back at interval 6.
    assert_eq!(report.net.faults.crash_suppressed, 6, "{:?}", report.net.faults);
    assert_eq!(report.rejoins, 2);
    // Request + reply per rejoining thread, accounted under the rejoin class.
    assert_eq!(report.net.class(jessy_net::MsgClass::Rejoin).messages, 4);
    let coverage = coverage(&sink.sorted_events());
    assert_eq!(coverage.len() as u64, master.rounds);
    for (r, &c) in coverage.iter().enumerate() {
        let expect = if (3..6).contains(&r) { 0.5 } else { 1.0 };
        assert_eq!(c, expect, "round {r} coverage");
    }
    assert_eq!(master.quarantined_nodes, 0, "one crash is below any threshold");
}

/// The quarantine acceptance test. Node 1 flaps (crashes at interval 1, again —
/// permanently — at interval 5) against `quarantine_after_crashes = 1`, so from
/// interval 5 its threads leave the coverage denominator. Without quarantine every
/// post-crash round sits at 0.5 coverage — below the 0.95 floor — and the adaptive
/// controller can never converge; with it, post-quarantine rounds read 1.0 and the
/// remaining cluster converges.
#[test]
fn flapping_node_is_quarantined_and_the_rest_converges() {
    let run = |quarantine: Option<u32>| {
        let mut config = chaos_profiler(); // threshold 0.02, floor 0.95, deadline 3
        config.quarantine_after_crashes = quarantine;
        let plan = FaultPlan {
            node_crashes: vec![
                CrashWindow {
                    node: NodeId(1),
                    from_interval: 1,
                    until_interval: Some(5),
                },
                CrashWindow {
                    node: NodeId(1),
                    from_interval: 5,
                    until_interval: None,
                },
            ],
            ..FaultPlan::default()
        };
        stable_run(config, Some(plan), 30)
    };
    let (_, unfenced, _) = run(None);
    let (report, master, events) = run(Some(1));

    assert_eq!(master.quarantined_nodes, 1);
    let coverage = coverage(&events);
    assert!(
        coverage[6..].iter().all(|&c| c == 1.0),
        "post-quarantine rounds owe nothing to the expelled node: {coverage:?}"
    );
    assert!(
        master.converged_classes >= 1,
        "the remaining cluster must reach the convergence criterion"
    );
    assert_eq!(
        unfenced.converged_classes, 0,
        "control: without quarantine the flapper pins every comparable round below \
         the coverage floor and convergence starves"
    );
    assert_eq!(unfenced.quarantined_nodes, 0);
    assert!(report.net.faults.crash_suppressed > 0);
}

// ---------------------------------------------------------------------- PR 6:
// network partitions. Windows are keyed by *virtual time* (unlike crash windows'
// interval ordinals): a window severs every link with exactly one endpoint in its
// island. OAL batches closed behind the cut are deferred in the node's send queue
// and flushed when the partition heals; an unhealed partition surfaces them as
// lost at thread exit. Either way the run completes — partitions degrade the
// profile, never wedge the application.

/// A workload whose reads stay home-local (thread reads the object homed at its
/// own node), so the partition is crossed only by profiling/sync traffic and the
/// severed threads' clocks keep their own pace instead of being raised to the
/// heal horizon by fetch retries.
fn home_local_workload(cluster: &mut Cluster, barriers: usize) {
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        vec![
            ctx.alloc_scalar_at(NodeId(0), class).id,
            ctx.alloc_scalar_at(NodeId(1), class).id,
        ]
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        let mine = objs[jt.node().index()];
        for _ in 0..barriers {
            jt.read(mine, |_| {});
            jt.barrier();
        }
    });
}

fn partitioned_cluster(heal_ns: Option<u64>) -> (Cluster, Arc<JournalSink>) {
    partitioned_cluster_with(chaos_profiler(), heal_ns, Vec::new())
}

fn partitioned_cluster_with(
    profiler: ProfilerConfig,
    heal_ns: Option<u64>,
    master_crashes: Vec<MasterCrashWindow>,
) -> (Cluster, Arc<JournalSink>) {
    let sink = JournalSink::shared();
    let cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::free())
        .profiler(profiler)
        .trace(sink.clone())
        .faults(FaultPlan {
            seed: chaos_seed(),
            partitions: vec![PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 1_000,
                heal_ns,
            }],
            master_crashes,
            ..FaultPlan::default()
        })
        .build();
    (cluster, sink)
}

/// Partition + heal: OALs closed behind the cut are deferred, the post-heal flush
/// delivers every one of them (nothing is lost), and round coverage recovers.
#[test]
fn healed_partition_converges_and_deferred_oals_arrive() {
    // The 40-barrier run spans ~7 ms of simulated time; the partition covers
    // roughly the first 2 ms of it.
    let (mut cluster, sink) = partitioned_cluster(Some(2_000_000));
    home_local_workload(&mut cluster, 40);

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran to completion");
    assert!(
        report.net.faults.oals_deferred > 0,
        "intervals closed behind the cut must defer: {:?}",
        report.net.faults
    );
    assert!(report.net.faults.partitioned > 0, "severed sends are counted");
    assert!(
        report.lost_oals.is_empty(),
        "a healed partition loses nothing: {:?}",
        report.lost_oals
    );
    assert!(master.rounds > 0);
    let coverage = coverage(&sink.sorted_events());
    assert!(
        coverage.iter().any(|&c| c < 1.0),
        "deadline-closed rounds during the partition show partial coverage: {coverage:?}"
    );
    assert!(
        coverage.contains(&1.0),
        "post-heal rounds close complete again: {coverage:?}"
    );
    assert!(
        master.late_oals > 0,
        "flushed backlog lands as late arrivals for already-closed rounds"
    );
    assert!(master.tcm.total() > 0.0);
}

/// The late fold at the end of the run is one more reducer round, folded into
/// the restored reducer state as every scheduler round is: a partition makes
/// OALs arrive late, a master crash mid-run restores the reducer from a
/// checkpoint, and the recovered map must still equal the uninterrupted run's
/// bit for bit.
#[test]
fn late_fold_after_restore_matches_the_uninterrupted_run() {
    let run = |master_crashes: Vec<MasterCrashWindow>| {
        let mut config = chaos_profiler();
        config.initial_rate = SamplingRate::Full;
        config.adaptive_threshold = None;
        config.checkpoint_every_rounds = Some(3);
        let (mut cluster, _) = partitioned_cluster_with(config, Some(2_000_000), master_crashes);
        home_local_workload(&mut cluster, 40);
        cluster.master_output().expect("master ran").clone()
    };
    let base = run(Vec::new());
    let crashed = run(vec![MasterCrashWindow {
        from_interval: 20,
        until_interval: 24,
    }]);

    assert_eq!(crashed.restores, 1);
    assert!(crashed.late_oals > 0, "the partition must leave a late fold to do");
    assert_eq!(crashed.late_oals, base.late_oals);
    assert!(base.tcm.total() > 0.0);
    assert_eq!(crashed.tcm, base.tcm, "recovered TCM must be bit-identical");
}

/// An unhealed partition degrades gracefully: every round still closes (deadline
/// path), the reachable side's profile survives, and the severed side's OALs are
/// surfaced as lost at thread exit — the run never wedges.
#[test]
fn unhealed_partition_degrades_gracefully_without_wedging() {
    let (mut cluster, sink) = partitioned_cluster(None);
    home_local_workload(&mut cluster, 40);

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran to completion");
    assert!(report.net.faults.oals_deferred > 0);
    assert!(report.net.faults.partitioned > 0);
    assert!(
        !report.lost_oals.is_empty(),
        "a permanent partition must surface the stuck OALs as lost"
    );
    assert!(
        report.lost_oals.iter().all(|&(t, _)| t >= 2),
        "only node 1's threads (2, 3) lose data: {:?}",
        report.lost_oals
    );
    assert!(master.rounds > 0, "deadline close keeps rounds moving");
    // The very first round may close off OALs posted before the 1 µs cut; every
    // round after it sees the reachable half only.
    let coverage = coverage(&sink.sorted_events());
    assert!(
        coverage.iter().skip(1).all(|&c| c > 0.0 && c < 1.0),
        "post-cut rounds see the reachable half only: {coverage:?}"
    );
    assert!(master.tcm.total() > 0.0, "the reachable side's profile survives");
}

// ---------------------------------------------------------------------- PR 8:
// gray failure. A slow node is not a dead node: every message still arrives and
// every interval still closes — just late. The round deadline keeps the fast
// nodes' rounds closing, and the slow node's late OALs still fold into the map.

/// Four threads on two nodes under the chaos seed's OAL drops; with `slow`,
/// node 1 runs at 8× service time for the first stretch.
fn gray_failure_run(slow: bool) -> (RunReport, MasterOutput) {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(4);
    let slow = if slow {
        vec![SlowWindow { node: NodeId(1), from_ns: 0, until_ns: Some(30_000), factor: 8.0 }]
    } else {
        Vec::new()
    };
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .faults(FaultPlan { seed: chaos_seed(), oal_drop: 0.05, slow, ..FaultPlan::default() })
        .build();
    let (objs, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        let objs = (0..4)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        let locks = (0..4).map(|_| ctx.register_lock()).collect::<Vec<LockId>>();
        (objs, locks)
    });
    let (objs, locks) = (Arc::new(objs), Arc::new(locks));
    cluster.run(move |jt| {
        let t = jt.thread_id().index();
        for _ in 0..80 {
            jt.lock(locks[t]);
            jt.read(objs[t], |_| {});
            jt.compute(50);
            jt.unlock(locks[t]);
        }
    });
    let master = cluster.master_output().expect("master ran to completion").clone();
    (cluster.report(), master)
}

/// Slow node plus seeded drops: the run completes, the deadline closes the
/// rounds the 8× node holds up, and slowness itself loses no data — the drop
/// plan is the only loss channel, so the slow run ingests exactly the OALs the
/// calm run does.
#[test]
fn slow_node_under_seeded_drops_closes_by_deadline_and_completes() {
    let (report, master) = gray_failure_run(true);
    let (calm_report, calm) = gray_failure_run(false);
    assert!(master.rounds > 0, "rounds keep closing under gray failure");
    assert!(
        master.deadline_rounds > calm.deadline_rounds,
        "the deadline closes the slow node's rounds: {} vs {} calm",
        master.deadline_rounds,
        calm.deadline_rounds
    );
    assert!(
        report.net.faults.dropped > 0,
        "the seeded drop plan must actually bite: {:?}",
        report.net.faults
    );
    assert_eq!(report.net.faults.dropped, calm_report.net.faults.dropped);
    assert_eq!(report.oal_post_failures, 0, "slowness itself loses nothing");
    assert!(report.shed_oals.is_empty());
    assert_eq!(master.oals_ingested, calm.oals_ingested, "every surviving OAL is ingested");
}

// ---------------------------------------------------------------------- PR 9:
// continuous rebalancing under chaos. The placement engine plans from the live
// profile on a cadence and posts epoch-stamped directives; every fault that can
// invalidate a plan mid-flight — a master restore bumping the epoch, a node
// crash window, a partition — must degrade into an attributable no-op, never a
// migration into a world that no longer exists, and never a wedge.

/// Threads 0&2 and 1&3 share heavily but start split across nodes: constant
/// refinement pressure, so the continuous engine has real moves to make while
/// the fault plan is chewing on the cluster.
fn split_sharers(cluster: &mut Cluster, barriers: usize) {
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        vec![
            ctx.alloc_scalar_at(NodeId(0), class).id, // shared by threads 0 & 2
            ctx.alloc_scalar_at(NodeId(1), class).id, // shared by threads 1 & 3
        ]
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        let group = jt.thread_id().index() % 2;
        for _ in 0..barriers {
            jt.read(objs[group], |_| {});
            jt.barrier();
        }
    });
}

fn rebalance_profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(3);
    config
}

fn continuous_rebalance() -> jessy_runtime::RebalanceConfig {
    jessy_runtime::RebalanceConfig {
        after_rounds: 1,
        every_rounds: Some(2),
        cooldown_rounds: 4,
        with_prefetch: false,
        min_gain_bytes: 1.0,
        gain_horizon_rounds: 1e18,
        migration_budget_bytes: None,
        migrate_homes: true,
    }
}

/// A directive stamped with a master epoch that never existed must be dropped at
/// the barrier — attributably: the telemetry counter, and a `DirectiveFenced`
/// journal event naming the thread and both epochs. The thread stays put.
#[test]
fn stale_directive_is_fenced_attributably() {
    let sink = jessy_obs::JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(rebalance_profiler())
        // Rebalancing armed (directives are honoured at barriers) but the
        // planner dormant: the only directive in this run is the injected one.
        .rebalance(jessy_runtime::RebalanceConfig {
            after_rounds: 1_000_000,
            every_rounds: None,
            ..continuous_rebalance()
        })
        .trace(sink.clone())
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        vec![ctx.alloc_scalar_at(NodeId(0), class).id]
    });
    let objs = Arc::new(objs);
    let shared = std::rc::Rc::clone(cluster.shared());
    cluster.run(move |jt| {
        if jt.thread_id() == jessy_net::ThreadId(0) {
            // A plan from "epoch 99" — a regime that never existed (the master
            // never restored, so the live epoch is 0).
            shared.directives.write()[0] = Some(jessy_runtime::Directive {
                dest: NodeId(1),
                epoch: 99,
            });
        }
        for _ in 0..4 {
            jt.read(objs[0], |_| {});
            jt.barrier();
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran to completion");
    assert_eq!(master.placement.fenced_directives, 1, "{:?}", master.placement);
    assert_eq!(master.placement.applied_migrations, 0, "fenced, not applied");
    let shared = cluster.shared();
    assert_eq!(
        shared.placement.read()[0],
        NodeId(0),
        "the stale directive must not have moved thread 0"
    );
    let fenced: Vec<_> = sink
        .sorted_events()
        .into_iter()
        .filter_map(|e| match e.kind {
            jessy_obs::EventKind::DirectiveFenced {
                thread,
                directive_epoch,
                current_epoch,
            } => Some((thread, directive_epoch, current_epoch)),
            _ => None,
        })
        .collect();
    assert_eq!(fenced, vec![(0, 99, 0)], "one attributable fencing event");
    assert_eq!(report.rejoins, 0);
}

/// Continuous rebalancing composed with a node crash window: the engine keeps
/// planning on its cadence while node 1 is dark (deadline close keeps rounds
/// moving), its threads rejoin, and the run completes with real plans issued.
#[test]
fn continuous_rebalance_survives_a_crash_window() {
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .placement(vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)])
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(rebalance_profiler())
        .rebalance(continuous_rebalance())
        .faults(FaultPlan {
            seed: chaos_seed(),
            node_crashes: vec![CrashWindow {
                node: NodeId(1),
                from_interval: 3,
                until_interval: Some(6),
            }],
            ..FaultPlan::default()
        })
        .build();
    split_sharers(&mut cluster, 24);

    let report = cluster.report();
    let master = cluster.master_output().expect("master ran to completion");
    assert!(master.rounds > 0, "rounds keep closing through the window");
    assert!(
        master.placement.plans >= 1,
        "the engine must have planned despite the crash: {:?}",
        master.placement
    );
    assert!(report.net.faults.crash_suppressed > 0, "{:?}", report.net.faults);
    assert_eq!(report.rejoins, 2, "node 1's threads come back");
    assert_eq!(
        master.placement.fenced_directives, 0,
        "no restore happened, so nothing may be fenced"
    );
    let placement = cluster.shared().placement.read().clone();
    assert_eq!(placement.len(), 4, "placement stays coherent");
}

/// Continuous rebalancing composed with a healed partition: plans are still
/// issued, the run completes — and the whole composition is **deterministic**:
/// two identical runs produce bit-identical deterministic reports, migrations
/// and all. This is what makes chaos-found placement bugs replayable.
#[test]
fn continuous_rebalance_under_partition_is_bit_identical() {
    let run = || {
        let mut cluster = Cluster::builder()
            .nodes(2)
            .threads(4)
            .placement(vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)])
            .latency(LatencyModel::fast_ethernet())
            .costs(CostModel::free())
            .profiler(rebalance_profiler())
            .rebalance(continuous_rebalance())
            .faults(FaultPlan {
                seed: chaos_seed(),
                partitions: vec![PartitionWindow {
                    island: vec![NodeId(1)],
                    from_ns: 1_000,
                    heal_ns: Some(2_000_000),
                }],
                ..FaultPlan::default()
            })
            .build();
        split_sharers(&mut cluster, 30);
        let report = cluster.report();
        let master = cluster.master_output().expect("master ran").clone();
        (report, master)
    };
    let (report_a, master_a) = run();
    let (report_b, master_b) = run();
    assert!(master_a.rounds > 0);
    assert!(
        master_a.placement.plans >= 1,
        "the engine must plan through the partition: {:?}",
        master_a.placement
    );
    assert_eq!(
        report_a.deterministic(),
        report_b.deterministic(),
        "rebalance x partition must replay bit-identically"
    );
    assert_eq!(master_a.placement, master_b.placement, "telemetry too");
    assert_eq!(master_a.tcm, master_b.tcm);
}
