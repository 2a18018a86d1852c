//! Workload presets — Table I's problem sizes plus scaled-down variants.

use serde::{Deserialize, Serialize};

use jessy_runtime::{Cluster, RunReport};

use crate::{barnes_hut, lu, phase_shift, sessions, sor, water};

/// The three benchmarks of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Red-black successive over-relaxation (coarse-grained).
    Sor,
    /// Barnes-Hut N-body (fine-grained).
    BarnesHut,
    /// Water-Spatial molecular dynamics (medium-grained).
    WaterSpatial,
    /// Blocked LU factorization (suite extension; not part of the paper's Table I,
    /// hence excluded from [`WorkloadKind::ALL`]).
    Lu,
    /// Mid-run sharing-graph flip (scenario-diversity extension; drives the
    /// drift path of the adaptive controller — excluded from
    /// [`WorkloadKind::ALL`]).
    PhaseShift,
    /// Zipf-skewed short-lived session serving (scenario-diversity extension —
    /// excluded from [`WorkloadKind::ALL`]).
    Sessions,
}

impl WorkloadKind {
    /// All three, in Table I order.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Sor,
        WorkloadKind::BarnesHut,
        WorkloadKind::WaterSpatial,
    ];

    /// The benchmark's name as printed in the tables.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Sor => "SOR",
            WorkloadKind::BarnesHut => "Barnes-Hut",
            WorkloadKind::WaterSpatial => "Water-Spatial",
            WorkloadKind::Lu => "LU",
            WorkloadKind::PhaseShift => "Phase-Shift",
            WorkloadKind::Sessions => "Sessions",
        }
    }

    /// Table I's sharing-granularity label.
    pub fn granularity(self) -> &'static str {
        match self {
            WorkloadKind::Sor => "Coarse",
            WorkloadKind::BarnesHut => "Fine",
            WorkloadKind::WaterSpatial => "Medium",
            WorkloadKind::Lu => "Coarse",
            WorkloadKind::PhaseShift => "Fine (shifting)",
            WorkloadKind::Sessions => "Fine (skewed)",
        }
    }

    /// Table I's data-set description.
    pub fn data_set(self, preset: WorkloadPreset) -> String {
        match (self, preset) {
            (WorkloadKind::Sor, WorkloadPreset::Paper) => "2K x 2K".into(),
            (WorkloadKind::BarnesHut, WorkloadPreset::Paper) => "4K bodies".into(),
            (WorkloadKind::WaterSpatial, WorkloadPreset::Paper) => "512 molecules".into(),
            (WorkloadKind::Sor, _) => {
                let c = sor::SorConfig::small();
                format!("{} x {}", c.n, c.m)
            }
            (WorkloadKind::BarnesHut, _) => {
                format!("{} bodies", barnes_hut::BhConfig::small().n_bodies)
            }
            (WorkloadKind::WaterSpatial, _) => {
                format!("{} molecules", water::WaterConfig::small().n_molecules)
            }
            (WorkloadKind::Lu, WorkloadPreset::Paper) => {
                let c = lu::LuConfig::paper();
                format!("{0} x {0} / B{1}", c.n, c.block)
            }
            (WorkloadKind::Lu, _) => {
                let c = lu::LuConfig::small();
                format!("{0} x {0} / B{1}", c.n, c.block)
            }
            (WorkloadKind::PhaseShift, WorkloadPreset::Paper) => {
                let c = phase_shift::PhaseShiftConfig::paper();
                format!("{} cells / flip@{}", c.n_cells, c.flip_round)
            }
            (WorkloadKind::PhaseShift, _) => {
                let c = phase_shift::PhaseShiftConfig::small();
                format!("{} cells / flip@{}", c.n_cells, c.flip_round)
            }
            (WorkloadKind::Sessions, WorkloadPreset::Paper) => {
                let c = sessions::SessionsConfig::paper();
                format!("{} items / zipf {}", c.n_items, c.zipf_s)
            }
            (WorkloadKind::Sessions, _) => {
                let c = sessions::SessionsConfig::small();
                format!("{} items / zipf {}", c.n_items, c.zipf_s)
            }
        }
    }

    /// Table I's rounds count.
    pub fn rounds(self, preset: WorkloadPreset) -> usize {
        match preset {
            WorkloadPreset::Paper => match self {
                WorkloadKind::Sor => sor::SorConfig::paper().rounds,
                WorkloadKind::BarnesHut => barnes_hut::BhConfig::paper().rounds,
                WorkloadKind::WaterSpatial => water::WaterConfig::paper().rounds,
                WorkloadKind::Lu => lu::LuConfig::paper().nb(),
                WorkloadKind::PhaseShift => phase_shift::PhaseShiftConfig::paper().rounds,
                WorkloadKind::Sessions => sessions::SessionsConfig::paper().sessions_per_thread,
            },
            WorkloadPreset::Small => match self {
                WorkloadKind::Sor => sor::SorConfig::small().rounds,
                WorkloadKind::BarnesHut => barnes_hut::BhConfig::small().rounds,
                WorkloadKind::WaterSpatial => water::WaterConfig::small().rounds,
                WorkloadKind::Lu => lu::LuConfig::small().nb(),
                WorkloadKind::PhaseShift => phase_shift::PhaseShiftConfig::small().rounds,
                WorkloadKind::Sessions => sessions::SessionsConfig::small().sessions_per_thread,
            },
        }
    }

    /// Table I's object-size note.
    pub fn object_size(self) -> &'static str {
        match self {
            WorkloadKind::Sor => "each row at least several KB",
            WorkloadKind::BarnesHut => "each body less than 100 bytes",
            WorkloadKind::WaterSpatial => "each molecule about 512 bytes",
            WorkloadKind::Lu => "each block several KB",
            WorkloadKind::PhaseShift => "each cell 64 bytes",
            WorkloadKind::Sessions => "each item 64 bytes",
        }
    }

    /// Run this workload on a prepared cluster at the given preset.
    pub fn run_on(self, cluster: &mut Cluster, preset: WorkloadPreset) -> RunReport {
        match (self, preset) {
            (WorkloadKind::Sor, WorkloadPreset::Paper) => {
                sor::run_on(cluster, sor::SorConfig::paper())
            }
            (WorkloadKind::Sor, WorkloadPreset::Small) => {
                sor::run_on(cluster, sor::SorConfig::small())
            }
            (WorkloadKind::BarnesHut, WorkloadPreset::Paper) => {
                barnes_hut::run_on(cluster, barnes_hut::BhConfig::paper())
            }
            (WorkloadKind::BarnesHut, WorkloadPreset::Small) => {
                barnes_hut::run_on(cluster, barnes_hut::BhConfig::small())
            }
            (WorkloadKind::WaterSpatial, WorkloadPreset::Paper) => {
                water::run_on(cluster, water::WaterConfig::paper())
            }
            (WorkloadKind::WaterSpatial, WorkloadPreset::Small) => {
                water::run_on(cluster, water::WaterConfig::small())
            }
            (WorkloadKind::Lu, WorkloadPreset::Paper) => {
                lu::run_on(cluster, lu::LuConfig::paper())
            }
            (WorkloadKind::Lu, WorkloadPreset::Small) => {
                lu::run_on(cluster, lu::LuConfig::small())
            }
            (WorkloadKind::PhaseShift, WorkloadPreset::Paper) => {
                phase_shift::run_on(cluster, phase_shift::PhaseShiftConfig::paper())
            }
            (WorkloadKind::PhaseShift, WorkloadPreset::Small) => {
                phase_shift::run_on(cluster, phase_shift::PhaseShiftConfig::small())
            }
            (WorkloadKind::Sessions, WorkloadPreset::Paper) => {
                sessions::run_on(cluster, sessions::SessionsConfig::paper())
            }
            (WorkloadKind::Sessions, WorkloadPreset::Small) => {
                sessions::run_on(cluster, sessions::SessionsConfig::small())
            }
        }
    }
}

/// Problem-size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadPreset {
    /// The paper's Table I sizes (for the real benchmark harness).
    Paper,
    /// Scaled-down sizes (for tests and quick iterations).
    Small,
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_core::{ProfilerConfig, SamplingRate};
    use jessy_gos::CostModel;
    use jessy_net::LatencyModel;

    /// The production-scale reduction path must be invisible to a real
    /// workload's profile: SOR under the fabric aggregation tree produces the
    /// exact TCM the flat coordinator does, while its OAL ledger carries
    /// partial-TCM traffic instead of raw per-thread batches.
    #[test]
    fn sor_profile_is_bit_identical_under_tree_aggregation() {
        let run = |fanout: usize| {
            let mut cluster = Cluster::builder()
                .nodes(4)
                .threads(4)
                .latency(LatencyModel::free())
                .costs(CostModel::free())
                .profiler(ProfilerConfig {
                    tcm_tree_fanout: fanout,
                    ..ProfilerConfig::tracking_at(SamplingRate::Full)
                })
                .build();
            WorkloadKind::Sor.run_on(&mut cluster, WorkloadPreset::Small)
        };
        let flat = run(0);
        let tree = run(2);
        let (flat_m, tree_m) = (flat.master.unwrap(), tree.master.unwrap());
        assert_eq!(flat_m.tcm.raw(), tree_m.tcm.raw());
        assert_eq!(flat_m.round_coverage, tree_m.round_coverage);
        assert_eq!(flat_m.reduce.tree_rounds, 0);
        assert!(tree_m.reduce.tree_rounds > 0);
    }

    #[test]
    fn table_one_metadata() {
        assert_eq!(WorkloadKind::Sor.name(), "SOR");
        assert_eq!(WorkloadKind::Sor.data_set(WorkloadPreset::Paper), "2K x 2K");
        assert_eq!(WorkloadKind::Sor.rounds(WorkloadPreset::Paper), 10);
        assert_eq!(WorkloadKind::BarnesHut.rounds(WorkloadPreset::Paper), 5);
        assert_eq!(
            WorkloadKind::WaterSpatial.data_set(WorkloadPreset::Paper),
            "512 molecules"
        );
        assert_eq!(WorkloadKind::BarnesHut.granularity(), "Fine");
        assert_eq!(WorkloadKind::ALL.len(), 3);
    }
}
