//! Run reports — what every benchmark table reads.
//!
//! Two views of one run:
//!
//! * [`RunReport`] — everything measured, including host-dependent real-time
//!   fields (`wall_ns`, the master's `tcm_build_real_ns`).
//! * [`DeterministicReport`] — the same report with every host-dependent field
//!   zeroed, so two same-seed runs on different machines serialize
//!   **byte-identically**. The chaos suite's zero-fault bit-identity test
//!   compares this view in full instead of hand-picked fields.

use serde::{Deserialize, Serialize};

use jessy_core::profiler::ProfilerStatsSnapshot;
use jessy_gos::protocol::ProtocolCounters;
use jessy_net::{NetworkStats, SimNanos, ThreadId};

use crate::cluster::ClusterShared;
use crate::master::MasterOutput;

/// Everything measured over one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Nodes in the cluster.
    pub n_nodes: usize,
    /// Application threads.
    pub n_threads: usize,
    /// Simulated execution time: the maximum application-thread clock.
    pub sim_exec_ns: SimNanos,
    /// Per-thread simulated times.
    pub per_thread_ns: Vec<SimNanos>,
    /// Real wall-clock time of the run (host-dependent; used for sanity only).
    pub wall_ns: u64,
    /// Network traffic ledger.
    pub net: NetworkStats,
    /// Protocol event counters.
    pub proto: ProtocolCounters,
    /// Profiler counters.
    pub profiler: ProfilerStatsSnapshot,
    /// Master daemon output, when a run happened.
    pub master: Option<MasterOutput>,
    /// OAL batches an application thread could not post (master mailbox already
    /// closed). Non-zero values mean the profile silently lost those intervals.
    pub oal_post_failures: u64,
    /// The `(thread, interval)` pairs behind [`RunReport::oal_post_failures`],
    /// sorted — the loss is attributable, not just countable, and
    /// [`RunReport::adjusted_round_coverage`] folds it into coverage accounting.
    pub lost_oals: Vec<(u32, u64)>,
    /// The `(thread, interval)` pairs whose OAL batch was dropped under mailbox
    /// backpressure (`ProfilerConfig::oal_mailbox_capacity`), sorted. Like
    /// `lost_oals`, every shed is attributable and folded into
    /// [`RunReport::adjusted_round_coverage`] — never silent.
    pub shed_oals: Vec<(u32, u64)>,
    /// Rejoin handshakes performed by threads of nodes that came back from a crash
    /// window (DESIGN.md §12).
    pub rejoins: u64,
}

impl RunReport {
    pub(crate) fn gather(
        shared: &ClusterShared,
        master: Option<&MasterOutput>,
        wall_ns: u64,
    ) -> RunReport {
        let per_thread_ns: Vec<SimNanos> = (0..shared.n_threads)
            .map(|t| shared.board.read(ThreadId(t as u32)))
            .collect();
        let mut lost_oals = shared.lost_oals.lock().clone();
        lost_oals.sort_unstable();
        let mut shed_oals = shared.shed_oals.lock().clone();
        shed_oals.sort_unstable();
        RunReport {
            n_nodes: shared.n_nodes,
            n_threads: shared.n_threads,
            sim_exec_ns: per_thread_ns.iter().copied().max().unwrap_or(0),
            per_thread_ns,
            wall_ns,
            net: shared.gos.net_stats(),
            proto: shared.gos.proto_counters(),
            profiler: shared.prof.stats().snapshot(),
            master: master.cloned(),
            oal_post_failures: lost_oals.len() as u64,
            lost_oals,
            shed_oals,
            rejoins: shared.rejoins.load(std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// Simulated execution time in milliseconds (the unit of the paper's tables).
    pub fn sim_exec_ms(&self) -> f64 {
        self.sim_exec_ns as f64 / 1e6
    }

    /// GOS (coherence) traffic in KB — Table III's "GOS Message Volume".
    pub fn gos_kb(&self) -> f64 {
        self.net.gos_bytes() as f64 / 1024.0
    }

    /// OAL (profiling) traffic in KB — Table III's "OAL Message Volume".
    pub fn oal_kb(&self) -> f64 {
        self.net.oal_bytes() as f64 / 1024.0
    }

    /// Percentage execution-time overhead of this run relative to a baseline.
    pub fn overhead_pct(&self, baseline: &RunReport) -> f64 {
        if baseline.sim_exec_ns == 0 {
            return 0.0;
        }
        (self.sim_exec_ns as f64 - baseline.sim_exec_ns as f64) / baseline.sim_exec_ns as f64
            * 100.0
    }

    /// The host-independent view: the report with wall-clock time and the
    /// master's real TCM build time zeroed. Two same-seed, zero-fault runs
    /// serialize this view byte-identically regardless of host, scheduler or core
    /// count.
    pub fn deterministic(&self) -> DeterministicReport {
        let mut det = self.clone();
        det.wall_ns = 0;
        if let Some(m) = &mut det.master {
            m.tcm_build_real_ns = 0;
        }
        det
    }

    /// The master's per-round `coverage` (the journal's `RoundClosed` values,
    /// in round order: `jessy_obs::round_series`) with post-failure losses
    /// *and* backpressure sheds folded back in: each lost or shed
    /// `(thread, interval)` OAL subtracts its share `1 / (n_threads · ipr)`
    /// from the coverage of the round that owned the interval, extending the
    /// series with fully-covered rounds as needed. Losses the master never saw
    /// (its mailbox was already closed, or the batch's identity was shed
    /// before posting) thus still show up where coverage gating looks, instead
    /// of vanishing into a bare counter.
    pub fn adjusted_round_coverage(&self, coverage: &[f64], intervals_per_round: u64) -> Vec<f64> {
        let ipr = intervals_per_round.max(1);
        let mut coverage = coverage.to_vec();
        let share = 1.0 / (self.n_threads.max(1) as f64 * ipr as f64);
        for (_thread, interval) in self.lost_oals.iter().chain(&self.shed_oals) {
            let round = (interval / ipr) as usize;
            if coverage.len() <= round {
                coverage.resize(round + 1, 1.0);
            }
            coverage[round] = (coverage[round] - share).max(0.0);
        }
        coverage
    }

    /// True if any round's loss-adjusted coverage fell below `floor` — the same
    /// gate the adaptive controller applies, but also counting OALs lost after
    /// the master stopped listening. `coverage` is as for
    /// [`RunReport::adjusted_round_coverage`].
    pub fn profile_degraded(&self, coverage: &[f64], floor: f64, intervals_per_round: u64) -> bool {
        self.adjusted_round_coverage(coverage, intervals_per_round)
            .iter()
            .any(|c| *c < floor)
    }
}

/// A [`RunReport`] with its host-dependent fields (`wall_ns`, the master's
/// `tcm_build_real_ns`) zeroed. Serializing this view is the contract the
/// zero-fault bit-identity tests (and the CI journal-identity smoke) compare —
/// see [`RunReport::deterministic`].
pub type DeterministicReport = RunReport;

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sim_ns: u64) -> RunReport {
        RunReport {
            n_nodes: 1,
            n_threads: 1,
            sim_exec_ns: sim_ns,
            per_thread_ns: vec![sim_ns],
            wall_ns: 0,
            net: NetworkStats::new(),
            proto: ProtocolCounters::default(),
            profiler: ProfilerStatsSnapshot::default(),
            master: None,
            oal_post_failures: 0,
            lost_oals: Vec::new(),
            shed_oals: Vec::new(),
            rejoins: 0,
        }
    }

    #[test]
    fn overhead_pct_is_relative() {
        let base = report(1_000_000);
        let with = report(1_050_000);
        assert!((with.overhead_pct(&base) - 5.0).abs() < 1e-9);
        assert_eq!(with.overhead_pct(&report(0)), 0.0, "degenerate baseline");
    }

    #[test]
    fn unit_conversions() {
        let r = report(24_250_000_000);
        assert!((r.sim_exec_ms() - 24_250.0).abs() < 1e-9);
        assert_eq!(r.gos_kb(), 0.0);
    }
}
