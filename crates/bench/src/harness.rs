//! Shared benchmark harness.

use jessy_core::{ProfilerConfig, SamplingRate, Tcm};
use jessy_gos::prime::nearest_prime;
use jessy_gos::CostModel;
use jessy_net::LatencyModel;
use jessy_runtime::{Cluster, RunReport};
use jessy_workloads::{barnes_hut::BhConfig, sor::SorConfig, water::WaterConfig, WorkloadKind};

/// Cost of one page-grain (D-CVM style) correlation fault: a memory-protection
/// trap, signal delivery and `mprotect` flip, ~8 µs on a 2 GHz Pentium 4 Linux box.
/// The object-grain design pays `CostModel::pentium4_2ghz().fault_service_ns` instead.
pub const PAGE_FAULT_NS: u64 = 8_000;

/// Problem-size scale, selected by the `JESSY_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Table I sizes (default for `cargo bench`).
    Paper,
    /// Scaled-down sizes for quick iterations (`JESSY_SCALE=small`).
    Small,
}

/// Read the scale from the environment (default: paper).
pub fn scale() -> Scale {
    match std::env::var("JESSY_SCALE").as_deref() {
        Ok("small") | Ok("SMALL") => Scale::Small,
        _ => Scale::Paper,
    }
}

/// SOR configuration at a scale.
pub fn sor_cfg(scale: Scale) -> SorConfig {
    match scale {
        Scale::Paper => SorConfig::paper(),
        Scale::Small => SorConfig {
            n: 256,
            m: 256,
            rounds: 5,
            omega: 1.25,
        },
    }
}

/// Barnes-Hut configuration at a scale.
pub fn bh_cfg(scale: Scale) -> BhConfig {
    match scale {
        Scale::Paper => BhConfig::paper(),
        Scale::Small => BhConfig {
            n_bodies: 512,
            rounds: 3,
            ..BhConfig::paper()
        },
    }
}

/// Water-Spatial configuration at a scale.
pub fn water_cfg(scale: Scale) -> WaterConfig {
    match scale {
        Scale::Paper => WaterConfig::paper(),
        Scale::Small => WaterConfig {
            n_molecules: 128,
            rounds: 3,
            ..WaterConfig::paper()
        },
    }
}

/// Run one workload at `scale` on a realistic cluster (Fast Ethernet, 2 GHz P4 costs).
///
/// When the `JESSY_TRACE` environment variable names a file, the run records a
/// deterministic event journal and exports it there after the run: Chrome
/// `trace_event` JSON for a `.json` path, JSON lines otherwise.
pub fn run_tracked(
    kind: WorkloadKind,
    scale: Scale,
    nodes: usize,
    threads: usize,
    profiler: ProfilerConfig,
) -> RunReport {
    let trace_path = std::env::var("JESSY_TRACE").ok().filter(|p| !p.is_empty());
    let sink = trace_path.as_ref().map(|_| jessy_obs::JournalSink::shared());
    let mut builder = Cluster::builder()
        .nodes(nodes)
        .threads(threads)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(profiler);
    if let Some(sink) = &sink {
        builder = builder.trace(sink.clone());
    }
    let mut cluster = builder.build();
    let report = match kind {
        WorkloadKind::Sor => jessy_workloads::sor::run_on(&mut cluster, sor_cfg(scale)),
        WorkloadKind::BarnesHut => {
            jessy_workloads::barnes_hut::run_on(&mut cluster, bh_cfg(scale))
        }
        WorkloadKind::WaterSpatial => {
            jessy_workloads::water::run_on(&mut cluster, water_cfg(scale))
        }
        WorkloadKind::Lu => {
            let cfg = match scale {
                Scale::Paper => jessy_workloads::lu::LuConfig::paper(),
                Scale::Small => jessy_workloads::lu::LuConfig::small(),
            };
            jessy_workloads::lu::run_on(&mut cluster, cfg)
        }
        WorkloadKind::PhaseShift => {
            let cfg = match scale {
                Scale::Paper => jessy_workloads::phase_shift::PhaseShiftConfig::paper(),
                Scale::Small => jessy_workloads::phase_shift::PhaseShiftConfig::small(),
            };
            jessy_workloads::phase_shift::run_on(&mut cluster, cfg)
        }
        WorkloadKind::Sessions => {
            let cfg = match scale {
                Scale::Paper => jessy_workloads::sessions::SessionsConfig::paper(),
                Scale::Small => jessy_workloads::sessions::SessionsConfig::small(),
            };
            jessy_workloads::sessions::run_on(&mut cluster, cfg)
        }
    };
    if let (Some(path), Some(sink)) = (trace_path, sink) {
        let events = sink.sorted_events();
        let body = if path.ends_with(".json") {
            jessy_obs::to_chrome_trace(&events)
        } else {
            jessy_obs::to_json_lines(&events)
        };
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("JESSY_TRACE: wrote {} events to {path}", events.len()),
            Err(e) => eprintln!("JESSY_TRACE: cannot write {path}: {e}"),
        }
    }
    report
}

/// Like [`run_tracked`] but also returning the recovered TCM (requires tracking on).
pub fn run_tracked_tcm(
    kind: WorkloadKind,
    scale: Scale,
    nodes: usize,
    threads: usize,
    profiler: ProfilerConfig,
) -> (RunReport, Tcm) {
    let report = run_tracked(kind, scale, nodes, threads, profiler);
    let tcm = report
        .master
        .as_ref()
        .expect("profiling must be on")
        .tcm
        .clone();
    (report, tcm)
}

/// One point of a rate sweep.
#[derive(Debug, Clone)]
pub struct RateRun {
    /// Rate label ("4X", "full").
    pub label: String,
    /// The rate.
    pub rate: SamplingRate,
    /// The run's report.
    pub report: RunReport,
}

/// The coarse-to-fine rate ladder `maxX, maxX/2, …, 2X, 1X` used by Fig. 9 (the paper
/// sweeps 512X → 1X and halves "the maximum rate of each sampled class").
pub fn rate_ladder(max_n: u32) -> Vec<SamplingRate> {
    let mut rates = Vec::new();
    let mut n = max_n;
    while n >= 1 {
        rates.push(SamplingRate::NX(n));
        if n == 1 {
            break;
        }
        n /= 2;
    }
    rates
}

/// The dominant shared class of each workload: (unit bytes, typical element count).
/// SOR shares `double[]` rows of 2K elements; Barnes-Hut bodies; Water molecules.
pub fn dominant_class(kind: WorkloadKind) -> (usize, u32) {
    match kind {
        WorkloadKind::Sor => (8, 2048),
        WorkloadKind::BarnesHut => (64, 1),
        WorkloadKind::WaterSpatial => (512, 1),
        WorkloadKind::Lu => (8, 1024), // 32x32 blocks of 8-byte elements
        WorkloadKind::PhaseShift => (64, 1), // 64 B scalar cells
        WorkloadKind::Sessions => (64, 1),   // 64 B scalar catalog items
    }
}

/// The paper's "N/A" cells: a rate column does not apply when every object of the
/// workload's dominant class is sampled at that rate anyway — the behaviour is
/// indistinguishable from full sampling (SOR's ≥-page rows at any rate; Water's 512 B
/// molecules at 16X).
pub fn rate_is_na(kind: WorkloadKind, rate: SamplingRate) -> bool {
    let SamplingRate::NX(n) = rate else {
        return false; // "Full" is always a real column
    };
    let (unit, len) = dominant_class(kind);
    let nominal = SamplingRate::NX(n).nominal_gap(unit, 4096);
    let gap = nearest_prime(nominal);
    len as u64 >= gap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn na_cells_match_the_paper() {
        use SamplingRate::NX;
        // Table II/III: SOR is N/A at 1X, 4X and 16X.
        assert!(rate_is_na(WorkloadKind::Sor, NX(1)));
        assert!(rate_is_na(WorkloadKind::Sor, NX(4)));
        assert!(rate_is_na(WorkloadKind::Sor, NX(16)));
        // Barnes-Hut: every rate applies.
        assert!(!rate_is_na(WorkloadKind::BarnesHut, NX(1)));
        assert!(!rate_is_na(WorkloadKind::BarnesHut, NX(4)));
        assert!(!rate_is_na(WorkloadKind::BarnesHut, NX(16)));
        // Water-Spatial: 16X is N/A (512 B molecules: gap 4096/(512·16) < 1).
        assert!(!rate_is_na(WorkloadKind::WaterSpatial, NX(1)));
        assert!(!rate_is_na(WorkloadKind::WaterSpatial, NX(4)));
        assert!(rate_is_na(WorkloadKind::WaterSpatial, NX(16)));
        // Full is never N/A.
        assert!(!rate_is_na(WorkloadKind::Sor, SamplingRate::Full));
    }

    #[test]
    fn rate_ladder_halves_down_to_1x() {
        let ladder = rate_ladder(512);
        assert_eq!(ladder.len(), 10);
        assert_eq!(ladder[0], SamplingRate::NX(512));
        assert_eq!(ladder[9], SamplingRate::NX(1));
    }

    #[test]
    fn scale_defaults_to_paper() {
        // (environment not set in tests)
        if std::env::var("JESSY_SCALE").is_err() {
            assert_eq!(scale(), Scale::Paper);
        }
    }
}
