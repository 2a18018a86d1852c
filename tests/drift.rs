//! End-to-end drift re-activation: the phase-shift workload flips its sharing
//! graph mid-run and the adaptive controller must notice — un-converge the
//! `Cell` class, walk the rate finer, and re-converge — while the pre-fix
//! frozen-forever baseline stays blind. The journal records the whole arc
//! (`ClassDrifted` → fresh `ClassConverged`), which `jessy_obs::round_series`
//! mines back into drift spans with bounded re-convergence lags; the sessions
//! workload feeds the per-class waste analysis the same journal supports.

use jessy::net::{CrashWindow, FaultPlan, MasterCrashWindow, PartitionWindow};
use jessy::obs::EventKind;
use jessy::prelude::*;
use jessy::workloads::phase_shift::{self, PhaseShiftConfig};
use jessy::workloads::sessions::{self, SessionsConfig};

/// Adaptive profiler without drift watching — the pre-fix behavior.
fn frozen_profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.adaptive_threshold = Some(0.1);
    config
}

/// The same profiler with post-convergence drift re-activation on.
fn drift_profiler() -> ProfilerConfig {
    let mut config = frozen_profiler();
    config.drift_threshold = Some(0.3);
    config
}

fn run_phase_shift(
    profiler: ProfilerConfig,
    faults: Option<FaultPlan>,
    cfg: PhaseShiftConfig,
) -> (RunReport, Vec<TraceEvent>) {
    let sink = JournalSink::shared();
    let mut builder = Cluster::builder()
        .nodes(4)
        .threads(8)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(profiler)
        .trace(sink.clone());
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    let mut cluster = builder.build();
    let report = phase_shift::run_on(&mut cluster, cfg);
    (report, sink.sorted_events())
}

/// The Cell class at the end of the run: its rate (the last rate change the
/// report lists, else the initial 1X) and whether the journal shows it
/// converged at the last round's close.
fn final_cell_state(report: &RunReport, events: &[TraceEvent]) -> CellState {
    let master = report.master.as_ref().expect("master ran");
    let rate = master
        .rate_changes
        .iter()
        .rev()
        .find(|c| c.class_name == "Cell")
        .map_or_else(|| "1X".to_string(), |c| c.new_rate.clone());
    let unconverged = jessy::obs::round_series(events).unconverged("Cell");
    CellState {
        rate,
        converged: unconverged.last().is_none_or(|span| span.end < master.rounds),
    }
}

struct CellState {
    rate: String,
    converged: bool,
}

/// The headline end-to-end arc: flip → drift re-activation → finer rate →
/// re-convergence, all visible in the report *and* the journal.
#[test]
fn phase_flip_unfreezes_and_reconverges_the_cell_class() {
    let cfg = PhaseShiftConfig::small();
    let (report, events) = run_phase_shift(drift_profiler(), None, cfg);
    let master = report.master.as_ref().expect("master ran");

    assert!(
        master.drift_reactivations >= 1,
        "the flip must trip the drift detector"
    );
    let drift_changes: Vec<_> = master.rate_changes.iter().filter(|c| c.drift).collect();
    assert!(
        !drift_changes.is_empty(),
        "re-activation must surface as a drift-flagged rate change"
    );
    assert!(
        drift_changes
            .iter()
            .all(|c| c.class_name == "Cell" && c.round >= cfg.flip_round as u64),
        "only the flipped class drifts, and only after the flip: {drift_changes:?}"
    );

    // The journal tells the same story: a ClassDrifted span that closes.
    let spans = jessy::obs::round_series(&events).drift;
    assert!(!spans.is_empty(), "journal must carry the drift span");
    let span = &spans[0];
    assert_eq!(span.class, "Cell");
    assert!(span.relative_distance > 0.3, "trip distance above threshold");
    let lag = span.lag().expect("phase B is long enough to re-converge");
    assert!(
        lag >= 1 && lag <= (cfg.rounds - cfg.flip_round) as u64,
        "bounded re-convergence lag, got {lag}"
    );

    // The journal's lag agrees and the class ends converged at a
    // finer-than-initial rate.
    let lag = phase_shift::reconvergence_lag(&events, cfg.flip_round);
    assert!(lag >= 1, "the journal must show un-converged post-flip rounds");
    let series = jessy::obs::round_series(&events);
    let closed: Vec<u64> = series.rounds.iter().map(|r| r.round).collect();
    assert_eq!(closed, (0..master.rounds).collect::<Vec<_>>(), "every round closes once");
    // The lag is what a round-by-round lookup of the class's last journaled
    // convergence change counts.
    let changes: Vec<(u64, bool)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ClassConverged { round, class } if class == "Cell" => Some((*round, true)),
            EventKind::ClassDrifted { round, class, .. } if class == "Cell" => Some((*round, false)),
            _ => None,
        })
        .collect();
    let per_round_lag = (cfg.flip_round as u64..master.rounds)
        .filter(|&r| !changes.iter().rev().find(|(at, _)| *at <= r).is_some_and(|c| c.1))
        .count() as u64;
    assert_eq!(lag, per_round_lag);
    let cell = final_cell_state(&report, &events);
    assert!(cell.converged, "Cell must re-converge before the run ends");
    assert_ne!(
        cell.rate, "1X",
        "phase B needs a finer gap than the phase-A convergence rate"
    );
}

/// The pre-fix baseline is blind: no re-activation, no drift events, lag 0 —
/// which is exactly the bug, not a virtue.
#[test]
fn frozen_baseline_never_reacts_to_the_flip() {
    let cfg = PhaseShiftConfig::small();
    let (report, events) = run_phase_shift(frozen_profiler(), None, cfg);
    let master = report.master.as_ref().expect("master ran");

    assert_eq!(master.drift_reactivations, 0);
    assert!(master.rate_changes.iter().all(|c| !c.drift));
    assert_eq!(
        phase_shift::reconvergence_lag(&events, cfg.flip_round),
        0,
        "frozen-forever never un-converges after the flip"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ClassDrifted { .. })),
        "no drift events without drift watching"
    );
    let cell = final_cell_state(&report, &events);
    assert!(cell.converged);
    assert_eq!(cell.rate, "1X", "stale phase-A rate persists to the end");
}

/// A master crash in the middle of the phase change must not resurrect stale
/// convergence: the restored controller (checkpointed drift state + replayed
/// OALs) still re-activates and re-converges at a finer rate.
#[test]
fn master_crash_mid_phase_change_does_not_resurrect_stale_convergence() {
    let cfg = PhaseShiftConfig::small();
    let mut profiler = drift_profiler();
    profiler.checkpoint_every_rounds = Some(3);
    let plan = FaultPlan {
        // Down across the rounds where the drift streak builds and fires
        // (flip at 4, hysteresis 2 → re-activation lands near round 6).
        master_crashes: vec![MasterCrashWindow {
            from_interval: 6,
            until_interval: 9,
        }],
        ..FaultPlan::default()
    };
    let (report, events) = run_phase_shift(profiler, Some(plan), cfg);
    let master = report.master.as_ref().expect("master ran");

    assert_eq!(master.restores, 1, "the crash window must actually restart the master");
    assert!(master.checkpoints_taken >= 1);
    assert!(
        master.drift_reactivations >= 1,
        "restore + replay must still trip the drift detector"
    );
    let spans = jessy::obs::round_series(&events).drift;
    assert!(
        spans.iter().any(|s| s.class == "Cell"),
        "the journal still carries the drift span across the restart"
    );
    let cell = final_cell_state(&report, &events);
    assert!(cell.converged, "Cell re-converges despite the crash");
    assert_ne!(
        cell.rate, "1X",
        "restoring a pre-flip checkpoint must not freeze the stale phase-A rate back in"
    );
}

/// Without a flip, drift watching must be inert end to end: zero re-activations
/// and a TCM bit-identical to the drift-off run (the "zero-drift runs are
/// unchanged" acceptance gate, at test scale).
#[test]
fn calm_run_with_drift_watching_is_bit_identical_to_without() {
    let calm = PhaseShiftConfig {
        flip_round: PhaseShiftConfig::small().rounds, // never flips
        ..PhaseShiftConfig::small()
    };
    let (with_drift, _) = run_phase_shift(drift_profiler(), None, calm);
    let (without, _) = run_phase_shift(frozen_profiler(), None, calm);
    let (dm, fm) = (
        with_drift.master.as_ref().unwrap(),
        without.master.as_ref().unwrap(),
    );
    assert_eq!(dm.drift_reactivations, 0);
    assert_eq!(dm.tcm.raw(), fm.tcm.raw(), "drift watching is free when nothing drifts");
    assert_eq!(dm.rate_changes, fm.rate_changes);
}

/// CI runs the chaos-composition tests under a seed matrix (`JESSY_CHAOS_SEED`);
/// locally the plan's default seed applies. The assertions must hold for any seed.
fn chaos_seed() -> u64 {
    std::env::var("JESSY_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| FaultPlan::default().seed)
}

/// Drift profiler hardened for chaos: rounds close by deadline when a fault
/// withholds OALs, and rounds below the coverage floor are untrusted (neither
/// steered on nor counted toward the drift streak).
fn chaos_drift_profiler() -> ProfilerConfig {
    let mut config = drift_profiler();
    config.round_deadline_intervals = Some(3);
    config.min_round_coverage = 0.95;
    config
}

/// A node crash window straddling the flip: the dark rounds are untrusted
/// (below the coverage floor), so the drift streak waits for the rejoin — and
/// then still fires and re-converges. The flip is never lost to the fault.
#[test]
fn phase_flip_inside_node_crash_window_still_reconverges() {
    let cfg = PhaseShiftConfig {
        rounds: 20,
        ..PhaseShiftConfig::small()
    };
    let plan = FaultPlan {
        seed: chaos_seed(),
        // Node 3 (threads 6 and 7) is dark for intervals 3..7 — the flip at
        // round 4 happens entirely inside the window.
        node_crashes: vec![CrashWindow {
            node: NodeId(3),
            from_interval: 3,
            until_interval: Some(7),
        }],
        ..FaultPlan::default()
    };
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(8)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(chaos_drift_profiler())
        .faults(plan)
        .trace(sink.clone())
        .build();
    let report = phase_shift::run_on(&mut cluster, cfg);
    let master = report.master.as_ref().expect("master ran");

    assert!(report.net.faults.crash_suppressed > 0, "the window must bite");
    assert_eq!(report.rejoins, 2, "both node-3 threads rejoin");
    assert!(
        master.drift_reactivations >= 1,
        "the flip must still trip the detector once trusted rounds resume"
    );
    let cell = final_cell_state(&report, &sink.sorted_events());
    assert!(cell.converged, "Cell re-converges despite the crash window");
    assert_ne!(cell.rate, "1X");
}

/// A network partition straddling the flip: OALs behind the cut defer, the
/// heal flushes them, and the controller still un-freezes and re-converges.
#[test]
fn phase_flip_inside_partition_window_still_reconverges() {
    let cfg = PhaseShiftConfig {
        rounds: 20,
        ..PhaseShiftConfig::small()
    };
    // Probe the fault-free run length (same latency model as the chaos run, so
    // virtual time advances identically) and size the window to straddle the
    // flip at round 4 of 20.
    let probe = {
        let mut cluster = Cluster::builder()
            .nodes(4)
            .threads(8)
            .latency(LatencyModel::fast_ethernet())
            .costs(CostModel::free())
            .profiler(chaos_drift_profiler())
            .build();
        phase_shift::run_on(&mut cluster, cfg)
    };
    let span = probe.sim_exec_ns.max(10);
    let plan = FaultPlan {
        seed: chaos_seed(),
        partitions: vec![PartitionWindow {
            island: vec![NodeId(3)],
            from_ns: span / 10,
            heal_ns: Some(span / 2),
        }],
        ..FaultPlan::default()
    };
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(8)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::free())
        .profiler(chaos_drift_profiler())
        .faults(plan)
        .trace(sink.clone())
        .build();
    let report = phase_shift::run_on(&mut cluster, cfg);
    let master = report.master.as_ref().expect("master ran");

    assert!(
        report.net.faults.partitioned > 0,
        "the cut must sever some sends: {:?}",
        report.net.faults
    );
    assert!(
        report.lost_oals.is_empty(),
        "a healed partition loses nothing: {:?}",
        report.lost_oals
    );
    assert!(
        master.drift_reactivations >= 1,
        "the flip must still trip the detector after the heal"
    );
    let cell = final_cell_state(&report, &sink.sorted_events());
    assert!(cell.converged, "Cell re-converges despite the partition");
    assert_ne!(cell.rate, "1X");
}

/// The Zipf sessions workload drives the journal's waste analysis: hot catalog
/// items are fetched by many nodes (replicas) and refetched after invalidation
/// churn (duplicates), and the skew concentrates waste on the Item class.
#[test]
fn sessions_journal_mines_per_class_waste() {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(8)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(drift_profiler())
        .trace(sink.clone())
        .build();
    let report = sessions::run_on(&mut cluster, SessionsConfig::small());
    let master = report.master.as_ref().expect("master ran");
    assert!(master.tcm.total() > 0.0, "sessions must produce a sharing profile");

    let waste = jessy::obs::analyze_waste(&sink.sorted_events());
    assert!(!waste.classes.is_empty(), "faults must be mined into class rows");
    assert!(waste.total_fault_bytes > 0);
    assert!(
        waste.classes.iter().any(|c| c.replica_objects > 0),
        "Zipf-hot items are fetched by several nodes: {waste:?}"
    );
    assert!(
        waste.classes.iter().any(|c| c.duplicate_fetches > 0),
        "write churn on hot items forces refetches: {waste:?}"
    );
}
