//! X10. Phase adaptation — drift re-activation vs the frozen-forever baseline.
//!
//! The phase-shift workload converges its `Cell` class during the stable
//! phase A, then flips its sharing graph: new pairings, small moving hot
//! windows, skewed intensities. A controller that freezes converged classes
//! forever keeps sampling phase B at the coarse phase-A gap and reports a
//! flickering, wrong map; drift re-activation un-converges the class on the
//! post-flip `E_ABS` spike and walks the rate finer until the map settles
//! again.
//!
//! Four lanes, identical workload stream (window placement depends only on
//! workload inputs, never on rates or timing):
//!
//! * `reference` — full sampling, no adaptation: the ground-truth map.
//! * `frozen`    — adaptive controller, drift detection **off** (the pre-fix
//!   behavior): converges in phase A and never reacts to the flip.
//! * `drift`     — the same controller with drift detection on.
//! * `no-flip identity` — a flip-free run with drift on vs off: zero
//!   re-activations and a bit-identical TCM, the "drift is free when nothing
//!   drifts" regression gate.
//!
//! Modes: default writes `BENCH_phase_adapt.json` at the repo root and
//! asserts the acceptance gates (drift accuracy ≥ 0.95, frozen demonstrably
//! lower, bounded re-convergence lag). `JESSY_SCALE=small` runs a smoke sweep
//! and does not touch the checked-in JSON.

use jessy_bench::TextTable;
use jessy_core::{accuracy_abs, ProfilerConfig, SamplingRate};
use jessy_gos::CostModel;
use jessy_net::LatencyModel;
use jessy_runtime::{Cluster, RunReport};
use jessy_workloads::phase_shift::{self, PhaseShiftConfig};
use serde::Serialize;

const NODES: usize = 4;
const THREADS: usize = 8;

fn small() -> bool {
    matches!(
        std::env::var("JESSY_SCALE").as_deref(),
        Ok("small") | Ok("SMALL")
    )
}

/// Controller configuration of one lane.
#[derive(Clone, Copy, PartialEq)]
enum Lane {
    /// Full sampling, no adaptation: ground truth.
    Reference,
    /// Adaptive, drift detection off (the frozen-forever baseline).
    Frozen,
    /// Adaptive with drift re-activation.
    Drift,
}

fn profiler_for(lane: Lane) -> ProfilerConfig {
    let mut config = match lane {
        Lane::Reference => ProfilerConfig::tracking_at(SamplingRate::Full),
        _ => ProfilerConfig::tracking_at(SamplingRate::NX(1)),
    };
    config.intervals_per_round = 1;
    if lane != Lane::Reference {
        config.adaptive_threshold = Some(0.1);
    }
    if lane == Lane::Drift {
        config.drift_threshold = Some(0.3);
    }
    config
}

/// One deterministic run of the phase-shift workload under `lane`'s profiler.
fn run(lane: Lane, cfg: PhaseShiftConfig) -> RunReport {
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(profiler_for(lane))
        .build();
    phase_shift::run_on(&mut cluster, cfg)
}

#[derive(Serialize)]
struct LaneReport {
    lane: &'static str,
    accuracy_abs: f64,
    reconvergence_lag: u64,
    drift_reactivations: u64,
    rate_changes: u64,
    converged_classes: u64,
}

#[derive(Serialize)]
struct Identity {
    reactivations: u64,
    tcm_identical: bool,
    pass: bool,
}

#[derive(Serialize)]
struct Acceptance {
    required_drift_accuracy: f64,
    measured_drift_accuracy: f64,
    measured_frozen_accuracy: f64,
    max_lag_rounds: u64,
    measured_lag_rounds: u64,
    pass: bool,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    n_cells: usize,
    hot: usize,
    flip_round: usize,
    rounds: usize,
    lanes: Vec<LaneReport>,
    identity: Identity,
    acceptance: Acceptance,
}

fn main() {
    let smoke = small();
    println!("X10. PHASE ADAPTATION (drift re-activation vs frozen baseline)\n");
    let cfg = if smoke {
        PhaseShiftConfig::small()
    } else {
        PhaseShiftConfig::paper()
    };
    // Post-flip lag must fit well inside phase B, with slack for the ladder
    // to walk several rungs after the hysteresis window.
    let max_lag = (cfg.rounds - cfg.flip_round) as u64 - 2;

    let reference = run(Lane::Reference, cfg);
    let truth = &reference.master.as_ref().expect("master ran").tcm;

    let mut t = TextTable::new(&[
        "lane",
        "rel acc",
        "lag (rounds)",
        "reactivations",
        "rate changes",
        "converged",
    ]);
    let mut lanes = Vec::new();
    let mut measured = std::collections::HashMap::new();
    for (lane, name) in [(Lane::Frozen, "frozen"), (Lane::Drift, "drift")] {
        let report = run(lane, cfg);
        let m = report.master.as_ref().expect("master ran");
        let acc = accuracy_abs(&m.tcm, truth);
        let lag = phase_shift::reconvergence_lag(&report, cfg.flip_round);
        t.row(&[
            name.to_string(),
            format!("{acc:.4}"),
            lag.to_string(),
            m.drift_reactivations.to_string(),
            (m.rate_changes.len() as u64).to_string(),
            m.converged_classes.to_string(),
        ]);
        lanes.push(LaneReport {
            lane: name,
            accuracy_abs: acc,
            reconvergence_lag: lag,
            drift_reactivations: m.drift_reactivations,
            rate_changes: m.rate_changes.len() as u64,
            converged_classes: m.converged_classes,
        });
        measured.insert(name, (acc, lag, m.drift_reactivations));
    }
    println!("{}", t.render());
    println!("rel acc = 1 - E_ABS against the full-sampling reference of the identical");
    println!("workload stream; lag = post-flip rounds with the Cell class un-converged.\n");

    let (frozen_acc, frozen_lag, frozen_re) = measured["frozen"];
    let (drift_acc, drift_lag, drift_re) = measured["drift"];

    // Behavioral invariants that hold at every scale.
    assert_eq!(frozen_re, 0, "the frozen lane must never re-activate");
    assert_eq!(
        frozen_lag, 0,
        "frozen-forever never un-converges after the flip (lag 0 = blind, not fast)"
    );
    assert!(drift_re >= 1, "the flip must trip the drift detector");
    assert!(
        drift_lag >= 1 && drift_lag <= max_lag,
        "re-convergence lag must be positive and bounded, got {drift_lag} (max {max_lag})"
    );

    // No-flip identity: drift detection must be inert when nothing drifts.
    let calm = PhaseShiftConfig {
        flip_round: cfg.rounds,
        ..cfg
    };
    let watched = run(Lane::Drift, calm);
    let without = run(Lane::Frozen, calm);
    let (dm, fm) = (
        watched.master.as_ref().expect("master ran"),
        without.master.as_ref().expect("master ran"),
    );
    let identity = Identity {
        reactivations: dm.drift_reactivations,
        tcm_identical: dm.tcm.raw() == fm.tcm.raw(),
        pass: dm.drift_reactivations == 0 && dm.tcm.raw() == fm.tcm.raw(),
    };
    assert!(
        identity.pass,
        "a flip-free run with drift on must be bit-identical to drift off \
         (reactivations {}, identical {})",
        identity.reactivations, identity.tcm_identical
    );
    println!(
        "no-flip identity: {} reactivations, TCM identical to drift-off: {}\n",
        identity.reactivations, identity.tcm_identical
    );

    if smoke {
        println!("smoke mode: skipping BENCH_phase_adapt.json (checked-in file is the full run)");
        return;
    }

    let acceptance = Acceptance {
        required_drift_accuracy: 0.95,
        measured_drift_accuracy: drift_acc,
        measured_frozen_accuracy: frozen_acc,
        max_lag_rounds: max_lag,
        measured_lag_rounds: drift_lag,
        pass: drift_acc >= 0.95 && frozen_acc < drift_acc && drift_lag <= max_lag,
    };
    let doc = Report {
        bench: "phase_adapt",
        mode: "full",
        n_cells: cfg.n_cells,
        hot: cfg.hot,
        flip_round: cfg.flip_round,
        rounds: cfg.rounds,
        lanes,
        identity,
        acceptance,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_phase_adapt.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_phase_adapt.json");
    println!("wrote {path}");
    assert!(
        drift_acc >= 0.95,
        "acceptance: post-flip accuracy must recover to >= 0.95 with drift detection, got {drift_acc:.4}"
    );
    assert!(
        frozen_acc < drift_acc,
        "acceptance: the frozen baseline must be demonstrably less accurate \
         (frozen {frozen_acc:.4} vs drift {drift_acc:.4})"
    );
}
