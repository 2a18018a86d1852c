//! A per-interval oracle for adaptive object sampling on SOR, Barnes-Hut and
//! Water-Spatial (paper §II.B).
//!
//! Each workload runs at `--scale small` on 4 nodes and 8 threads once under
//! full-trace profiling — every object a thread touches in an interval, logged
//! once at its payload size — and once at each of 1X, 4X, 16X and full
//! sampling. A thread's per-interval access set does not depend on the
//! schedule, so the runs compare although their simulated times differ. For every
//! `(thread, interval)` the sampled OAL must be the full-trace OAL filtered by
//! the sampling rule, entry for entry and in the same order. The rule is
//! written here from the paper's text, not taken from the engine:
//!
//! * rate `nX` samples `n` objects per 4 KB page of instances, so a class of
//!   `s`-byte instances (array elements, for an array class) has the nominal
//!   gap `4096 / (s·n)`, at least 1; full sampling has gap 1;
//! * "we will find a prime number nearest to the nominal to be the real
//!   sampling gap", with 31, 67 and 127 for 32, 64 and 128 (so 64, equidistant
//!   from 61 and 67, goes up);
//! * an object is sampled when its sequence number is a multiple of the real
//!   gap; an array's elements carry consecutive numbers, it is sampled when
//!   any of them is, and its logged size is amortized to the sampled elements'
//!   bytes.
//!
//! The engine also scales each logged size by the gap, so that the TCM
//! estimates true bytes (the `sampling` module docs); the filter applies the
//! same factor.

use std::collections::BTreeMap;

use jessy::core::{Oal, OalEntry};
use jessy::prelude::*;
use jessy::workloads::sor::SorConfig;

/// Page size of the rate notation.
const PAGE_BYTES: u64 = 4096;

fn is_prime(n: u64) -> bool {
    n >= 2 && (2..).take_while(|d| d * d <= n).all(|d| !n.is_multiple_of(d))
}

/// The prime nearest `nominal`, trying above before below at each distance.
fn real_gap(nominal: u64) -> u64 {
    if nominal <= 1 {
        return 1;
    }
    (0..)
        .flat_map(|d| [nominal + d, nominal.saturating_sub(d)])
        .find(|&g| is_prime(g))
        .expect("primes are unbounded")
}

fn gap_of(rate: SamplingRate, unit_bytes: u64) -> u64 {
    match rate {
        SamplingRate::Full => 1,
        SamplingRate::NX(n) => real_gap((PAGE_BYTES / (unit_bytes * n as u64)).max(1)),
    }
}

/// The full-trace entry as the sampled run must log it, or `None` if the rule
/// leaves the object unsampled.
fn filtered(gos: &Gos, rate: SamplingRate, e: &OalEntry) -> Option<OalEntry> {
    let core = gos.object_ref(e.obj);
    let unit = core.unit_words as u64 * 8;
    let gap = gap_of(rate, unit);
    let first = core.elem_seq0;
    let sampled_elems = (first..first + core.len_elems() as u64)
        .filter(|q| q.is_multiple_of(gap))
        .count() as u64;
    (sampled_elems > 0).then_some(OalEntry {
        bytes: sampled_elems * unit * gap,
        ..*e
    })
}

/// One small run's recorded OALs by `(thread, interval)`, with the GOS it ran
/// on.
fn run(
    workload: WorkloadKind,
    config: ProfilerConfig,
) -> (BTreeMap<(u32, u64), Vec<OalEntry>>, Cluster) {
    let mut config = config;
    config.record_oals = true;
    let mut cluster = Cluster::builder().nodes(4).threads(8).profiler(config).build();
    workload.run_on(&mut cluster, WorkloadPreset::Small);
    let log: &[Oal] = &cluster.master_output().expect("tracking is on").oal_log;
    let oals = log
        .iter()
        .map(|oal| ((oal.thread.0, oal.interval), oal.entries.clone()))
        .collect();
    (oals, cluster)
}

#[test]
fn the_gap_rule_matches_the_papers_examples() {
    assert_eq!((real_gap(32), real_gap(64), real_gap(128)), (31, 67, 127));
    assert_eq!(gap_of(SamplingRate::NX(1), 8), 509);
    assert_eq!(gap_of(SamplingRate::NX(16), 8), 31);
    assert_eq!(gap_of(SamplingRate::NX(1), 8192), 1);
}

/// Every `(thread, interval)` OAL of `workload` at each rate equals its
/// full-trace OAL filtered by the rule. Returns, per rate, the entries logged
/// and the full trace's entry count.
fn assert_sampled_oals_are_the_filtered_trace(workload: WorkloadKind) -> Vec<(SamplingRate, usize, usize)> {
    let (truth, _) = run(workload, ProfilerConfig::ground_truth());
    assert!(truth.len() > 8, "{workload:?}: one OAL per thread and interval");
    let all: usize = truth.values().map(Vec::len).sum();
    let mut counts = Vec::new();
    for rate in [
        SamplingRate::NX(1),
        SamplingRate::NX(4),
        SamplingRate::NX(16),
        SamplingRate::Full,
    ] {
        let (sampled, cluster) = run(workload, ProfilerConfig::tracking_at(rate));
        let gos = &cluster.shared().gos;
        assert_eq!(
            sampled.keys().collect::<Vec<_>>(),
            truth.keys().collect::<Vec<_>>(),
            "{workload:?} {rate:?}: the same (thread, interval) stream"
        );
        let mut logged = 0;
        for (key, entries) in &truth {
            let expected: Vec<OalEntry> =
                entries.iter().filter_map(|e| filtered(gos, rate, e)).collect();
            assert_eq!(sampled[key], expected, "{workload:?} {rate:?}: (thread, interval) {key:?}");
            logged += expected.len();
        }
        counts.push((rate, logged, all));
    }
    counts
}

#[test]
fn sampled_sor_oals_are_the_full_trace_filtered_by_the_sampling_rule() {
    for (rate, logged, all) in assert_sampled_oals_are_the_filtered_trace(WorkloadKind::Sor) {
        // A row holds a multiple of every gap up to its length: 16X and full
        // log every row, 1X and 4X drop some.
        if gap_of(rate, 8) <= SorConfig::small().m as u64 {
            assert_eq!(logged, all, "{rate:?}: every row is sampled");
        } else {
            assert!(0 < logged && logged < all, "{rate:?}: some rows are sampled, not all");
        }
    }
}

#[test]
fn sampled_barnes_hut_oals_are_the_full_trace_filtered_by_the_sampling_rule() {
    let counts = assert_sampled_oals_are_the_filtered_trace(WorkloadKind::BarnesHut);
    assert_logging_thins_with_the_gap(&counts);
}

#[test]
fn sampled_water_oals_are_the_full_trace_filtered_by_the_sampling_rule() {
    let counts = assert_sampled_oals_are_the_filtered_trace(WorkloadKind::WaterSpatial);
    assert_logging_thins_with_the_gap(&counts);
}

/// Objects are sampled one in a gap: 1X logs some of the trace, a finer rate
/// never logs less, and full sampling logs all of it.
fn assert_logging_thins_with_the_gap(counts: &[(SamplingRate, usize, usize)]) {
    let logged: Vec<usize> = counts.iter().map(|&(_, logged, _)| logged).collect();
    let (_, full, all) = counts[counts.len() - 1];
    assert!(0 < logged[0] && logged[0] < all, "1X samples some, not all: {counts:?}");
    assert!(logged.windows(2).all(|w| w[0] <= w[1]), "finer rates log no less: {counts:?}");
    assert_eq!(full, all, "full sampling logs the whole trace");
}
