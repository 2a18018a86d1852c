//! Determinism guarantees: correlation maps are reproducible run-to-run.
//!
//! Thread scheduling varies between runs, but the master groups TCM rounds by
//! interval number (not arrival order), sampling decisions are pure functions of
//! sequence numbers, and the workloads are seeded — so the recovered maps must be
//! bit-identical across repeated runs.

use std::sync::Arc;

use jessy::prelude::*;
use jessy::workloads::{barnes_hut, lu, phase_shift, sessions, sor, water};
use proptest::prelude::*;

fn run_once(kind: WorkloadKind) -> Tcm {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(4));
    config.intervals_per_round = 2;
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .build();
    match kind {
        WorkloadKind::Sor => {
            let cfg = sor::SorConfig::small();
            let h = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| sor::thread_body(jt, &cfg, &h));
        }
        WorkloadKind::BarnesHut => {
            let cfg = barnes_hut::BhConfig::small();
            let h = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| barnes_hut::thread_body(jt, &cfg, &h));
        }
        WorkloadKind::WaterSpatial => {
            let cfg = water::WaterConfig::small();
            let h = Arc::new(cluster.init(|ctx| water::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| water::thread_body(jt, &cfg, &h));
        }
        WorkloadKind::Lu => {
            let cfg = lu::LuConfig::small();
            let h = Arc::new(cluster.init(|ctx| lu::setup(ctx, &cfg, 4, 2)));
            cluster.run(move |jt| lu::thread_body(jt, &cfg, &h));
        }
        // The drift-era workloads have their own reproducibility properties
        // below (journal + drift trajectory included, drift watching on).
        WorkloadKind::PhaseShift => {
            phase_shift::run_on(&mut cluster, phase_shift::PhaseShiftConfig::small());
        }
        WorkloadKind::Sessions => {
            sessions::run_on(&mut cluster, sessions::SessionsConfig::small());
        }
    }
    cluster.master_output().unwrap().tcm.clone()
}

#[test]
fn sor_tcm_is_reproducible() {
    let a = run_once(WorkloadKind::Sor);
    let b = run_once(WorkloadKind::Sor);
    assert_eq!(a.raw(), b.raw(), "SOR map must be bit-identical across runs");
    assert!(a.total() > 0.0);
}

#[test]
fn barnes_hut_tcm_is_reproducible() {
    let a = run_once(WorkloadKind::BarnesHut);
    let b = run_once(WorkloadKind::BarnesHut);
    assert_eq!(a.raw(), b.raw());
}

#[test]
fn lu_tcm_is_reproducible() {
    let a = run_once(WorkloadKind::Lu);
    let b = run_once(WorkloadKind::Lu);
    assert_eq!(a.raw(), b.raw());
}

#[test]
fn water_tcm_is_reproducible_in_structure() {
    // Water's rebind phase takes per-box locks whose acquisition order varies with
    // scheduling, so its OAL stream is only structurally stable: assert the maps agree
    // to within a tight tolerance rather than bit-exactly.
    let a = run_once(WorkloadKind::WaterSpatial);
    let b = run_once(WorkloadKind::WaterSpatial);
    let acc = jessy::core::accuracy_abs(&a, &b);
    assert!(acc > 0.95, "water maps diverged: {acc}");
}

// ---------------------------------------------------------------- drift-era
// workloads. Phase-shift and sessions stress the controller (a mid-run flip,
// Zipf-skewed short-lived sessions), so reproducibility is asserted with drift
// watching ON and over the full observable surface: TCM bits, the canonical
// journal, and the drift/re-activation trajectory itself.

/// Drift-watching profiler used by the reproducibility properties.
fn drift_profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.adaptive_threshold = Some(0.1);
    config.drift_threshold = Some(0.3);
    config
}

/// One traced run: (journal lines, TCM bits, drift re-activations).
fn traced_run(body: impl FnOnce(&mut Cluster) -> RunReport) -> (String, Vec<f64>, u64) {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(4)
        .threads(8)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(drift_profiler())
        .trace(sink.clone())
        .build();
    let report = body(&mut cluster);
    let master = report.master.as_ref().expect("master ran");
    (
        to_json_lines(&sink.sorted_events()),
        master.tcm.raw().to_vec(),
        master.drift_reactivations,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Phase-shift is reproducible for any flip point — including the journal
    /// and the drift trajectory, which is what replay/debugging leans on.
    #[test]
    fn phase_shift_runs_are_reproducible(flip_round in 2usize..8) {
        let cfg = phase_shift::PhaseShiftConfig {
            flip_round,
            ..phase_shift::PhaseShiftConfig::small()
        };
        let a = traced_run(|c| phase_shift::run_on(c, cfg));
        let b = traced_run(|c| phase_shift::run_on(c, cfg));
        prop_assert_eq!(a.1, b.1, "TCM must be bit-identical");
        prop_assert_eq!(a.2, b.2, "drift trajectory must replay");
        prop_assert_eq!(a.0, b.0, "journals must match line for line");
    }

    /// Sessions is reproducible for any workload seed and skew: every random
    /// draw is keyed by (seed, thread, session), never by scheduling.
    #[test]
    fn sessions_runs_are_reproducible(seed in 0u64..1_000_000, zipf_s in 0.5f64..1.5) {
        let cfg = sessions::SessionsConfig {
            seed,
            zipf_s,
            ..sessions::SessionsConfig::small()
        };
        let a = traced_run(|c| sessions::run_on(c, cfg));
        let b = traced_run(|c| sessions::run_on(c, cfg));
        prop_assert_eq!(a.1, b.1, "TCM must be bit-identical");
        prop_assert_eq!(a.2, b.2, "drift trajectory must replay");
        prop_assert_eq!(a.0, b.0, "journals must match line for line");
    }
}
