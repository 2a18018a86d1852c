//! Overload-protection tests: SLO-budgeted sampling, bounded mailboxes with
//! shed policies, and gray-failure (slow-node) tolerance, end to end.
//!
//! The acceptance bar of the overload work: with every knob at a harmless
//! setting the run is **bit-identical** to a plain run; an OAL burst against a
//! bounded mailbox sheds deterministically with every shed attributable (policy
//! counters, journal events and coverage proration all agree); an over-budget
//! workload walks the degradation ladder until its measured profiling cost sits
//! inside the budget; and a slow (not dead) node is demoted out of the coverage
//! denominator and restored when it recovers — the run never wedges.

use std::sync::Arc;

use jessy_core::{ProfilerConfig, SamplingRate, ShedPolicy};
use jessy_gos::{CostModel, LockId, ObjectId};
use jessy_net::{FaultPlan, LatencyModel, NodeId, SlowWindow};
use jessy_obs::{round_series, to_json_lines, EventKind, JournalSink};
use jessy_runtime::{Cluster, MasterOutput, RunReport};

fn adaptive_profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.adaptive_threshold = Some(0.02);
    config.intervals_per_round = 1;
    config
}

/// Every overload knob at a setting that can never fire: a budget no round can
/// exceed, a mailbox no burst can fill, a straggler threshold no node can trip.
/// The run must reproduce the plain run bit for bit — report *and* journal —
/// proving the protection machinery is pure overhead-free observation until it
/// actually has to act.
#[test]
fn harmless_overload_knobs_reproduce_the_plain_run_bit_for_bit() {
    let run = |with_knobs: bool| {
        let sink = JournalSink::shared();
        let mut profiler = adaptive_profiler();
        if with_knobs {
            profiler.overhead_budget = Some(1.0);
            profiler.oal_mailbox_capacity = Some(1_000_000);
            profiler.shed_policy = ShedPolicy::MergeBatches;
            profiler.straggler_lag_intervals = Some(1_000_000.0);
        }
        let mut cluster = Cluster::builder()
            .nodes(2)
            .threads(4)
            .latency(LatencyModel::fast_ethernet())
            .costs(CostModel::pentium4_2ghz())
            .profiler(profiler)
            .trace(sink.clone())
            .build();
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
                jt.compute(100_000);
                jt.barrier();
            }
        });
        let report = cluster.report();
        let master = cluster.master_output().expect("master ran").clone();
        (sink, report, master)
    };
    let (plain_sink, plain_report, plain) = run(false);
    let (knobs_sink, knobs_report, knobs) = run(true);

    // The second feedback loop's input is journaled in both runs (the budget
    // only changes what is *done* about it; the journals are compared whole
    // below), and nothing ever fired.
    let costs = round_series(&plain_sink.sorted_events()).rounds;
    assert_eq!(costs.len(), plain.rounds as usize);
    assert_eq!(knobs.budget_over_rounds, 0, "no round may exceed a 100% budget");
    assert_eq!(knobs.budget_degrades, 0);
    assert_eq!(knobs.stragglers, 0);
    assert_eq!(knobs_report.shed_oals, vec![]);
    assert_eq!(
        knobs_report.sheds_dropped + knobs_report.sheds_merged + knobs_report.sheds_summarized,
        0
    );
    assert_eq!(
        serde_json::to_string(&knobs_report.deterministic()).expect("serialize"),
        serde_json::to_string(&plain_report.deterministic()).expect("serialize"),
        "harmless knobs must reproduce the plain report bit for bit"
    );
    assert_eq!(
        to_json_lines(&knobs_sink.sorted_events()),
        to_json_lines(&plain_sink.sorted_events()),
        "harmless knobs must reproduce the plain journal bit for bit"
    );
}

/// A run whose middle phase is a burst of uncontended critical sections: every
/// `lock`/`unlock` closes an interval and posts its OAL *without yielding the
/// cooperative token*, so the master cannot drain and the bounded mailbox must
/// shed. Warm-up and cool-down phases bracket the burst with normal barrier
/// rounds so the TCM has content and pending queues flush before the run ends.
fn burst_run(policy: ShedPolicy) -> (Arc<JournalSink>, RunReport, MasterOutput) {
    let sink = JournalSink::shared();
    let mut profiler = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    profiler.intervals_per_round = 1;
    profiler.round_deadline_intervals = Some(3);
    profiler.oal_mailbox_capacity = Some(4);
    profiler.shed_policy = policy;
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(profiler)
        .trace(sink.clone())
        .build();
    let (objs, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        let objs = (0..8)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        let locks = (0..4).map(|_| ctx.register_lock()).collect::<Vec<LockId>>();
        (objs, locks)
    });
    let (objs, locks) = (Arc::new(objs), Arc::new(locks));
    cluster.run(move |jt| {
        let t = jt.thread_id().0 as usize;
        for _ in 0..5 {
            jt.read(objs[t % 8], |_| {});
            jt.read(objs[(t + 1) % 8], |_| {});
            jt.barrier();
        }
        for _ in 0..30 {
            jt.lock(locks[t]);
            jt.unlock(locks[t]);
        }
        for _ in 0..5 {
            jt.read(objs[t % 8], |_| {});
            jt.barrier();
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran").clone();
    (sink, report, master)
}

/// The headline backpressure test: the burst must shed, the run must complete,
/// and every shed must be attributable three ways — the policy counter, the
/// sorted `(thread, interval)` ledger and the journal's `OalShed` events all
/// agree — with the shed intervals prorated out of adjusted round coverage.
#[test]
fn bounded_mailbox_sheds_attributably_under_burst() {
    let (sink, report, master) = burst_run(ShedPolicy::DropOldestRound);
    assert!(master.rounds > 0, "rounds closed despite the burst");
    assert!(
        report.sheds_dropped > 0,
        "a 60-OAL unyielding burst against a 4-slot mailbox must shed"
    );
    assert_eq!(report.sheds_merged + report.sheds_summarized, 0);
    assert_eq!(
        report.sheds_dropped + report.sheds_merged + report.sheds_summarized,
        report.shed_oals.len() as u64,
        "every shed owns exactly one ledger entry"
    );
    assert!(
        report.shed_oals.windows(2).all(|w| w[0] <= w[1]),
        "the shed ledger is sorted"
    );
    // The journal tells the same story, event for event.
    let events = sink.sorted_events();
    let mut journaled = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::OalShed { thread, interval, policy } => {
                assert_eq!(policy, "drop_oldest_round");
                Some((*thread, *interval))
            }
            _ => None,
        })
        .collect::<Vec<_>>();
    journaled.sort_unstable();
    assert_eq!(journaled, report.shed_oals, "journal and ledger must agree");
    // Shed intervals fold back into coverage where gating looks: the adjusted
    // history must be strictly worse than the master's own view somewhere.
    let adjusted = report.adjusted_round_coverage(1);
    let worse = adjusted
        .iter()
        .enumerate()
        .any(|(r, c)| *c < master.round_coverage.get(r).copied().unwrap_or(1.0));
    assert!(worse, "sheds must depress adjusted coverage: {adjusted:?}");
    assert!(report.profile_degraded(0.95, 1), "the burst run's profile is degraded");
}

/// `MergeBatches` sheds by folding the two oldest pending batches into one —
/// queue depth halves, the batch identity of the older interval is what's shed.
#[test]
fn merge_batches_policy_sheds_by_merging() {
    let (sink, report, master) = burst_run(ShedPolicy::MergeBatches);
    assert!(master.rounds > 0);
    assert!(report.sheds_merged > 0, "the merge policy must merge under the burst");
    assert_eq!(report.sheds_summarized, 0);
    assert_eq!(
        report.sheds_dropped + report.sheds_merged,
        report.shed_oals.len() as u64
    );
    assert!(sink.sorted_events().iter().any(|e| matches!(
        &e.kind,
        EventKind::OalShed { policy, .. } if policy == "merge_batches"
    )));
    // Merging never loses bytes, only interval attribution: the master still
    // ingests batches from the warm-up and cool-down rounds.
    assert!(master.oals_ingested > 0);
}

/// `SummaryOnly` is the last data-bearing rung: merge, then collapse the merged
/// batch to per-class summaries.
#[test]
fn summary_only_policy_sheds_by_summarizing() {
    let (sink, report, master) = burst_run(ShedPolicy::SummaryOnly);
    assert!(master.rounds > 0);
    assert!(report.sheds_summarized > 0, "the summary policy must summarize");
    assert_eq!(report.sheds_merged, 0);
    assert!(sink.sorted_events().iter().any(|e| matches!(
        &e.kind,
        EventKind::OalShed { policy, .. } if policy == "summary_only"
    )));
    assert!(master.oals_ingested > 0);
}

/// The budget loop end to end: a fine-sampled workload whose profiling cost
/// starts well over a 2% budget must walk the degradation ladder (journaled
/// rung by rung) until the measured per-round cost fraction sits inside the
/// budget, and stay there for the rest of the run.
#[test]
fn over_budget_run_degrades_until_within_budget() {
    let sink = JournalSink::shared();
    let mut profiler = ProfilerConfig::tracking_at(SamplingRate::Full);
    profiler.adaptive_threshold = Some(0.5);
    profiler.intervals_per_round = 1;
    profiler.round_deadline_intervals = Some(3);
    profiler.overhead_budget = Some(0.02);
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(profiler)
        .trace(sink.clone())
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        (0..200)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>()
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        // Threads 0,1 live on node 0 (block placement), 2,3 on node 1; each
        // reads the 100 objects homed on its own node, so at `Full` every
        // interval logs ~100 entries against ~1.8M ns of charged compute.
        let node = (jt.thread_id().0 / 2) as usize;
        for _ in 0..25 {
            for k in 0..100 {
                jt.read(objs[2 * k + node], |_| {});
            }
            jt.compute(100_000);
            jt.barrier();
        }
    });
    let master = cluster.master_output().expect("master ran").clone();
    let frac: Vec<f64> =
        round_series(&sink.sorted_events()).rounds.iter().map(|r| r.cost_fraction).collect();
    assert!(master.rounds >= 20);
    assert!(
        master.budget_over_rounds >= 1,
        "the workload must start over budget: {frac:?}"
    );
    assert!(
        master.budget_degrades >= 1,
        "over-budget rounds must take degradation rungs"
    );
    let degraded = sink
        .sorted_events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::BudgetDegraded { .. }))
        .count() as u64;
    assert_eq!(degraded, master.budget_degrades, "every rung taken is journaled");
    for e in sink.sorted_events() {
        if let EventKind::BudgetDegraded { cost_fraction, .. } = e.kind {
            assert!(cost_fraction > 0.02, "rungs are only taken over budget");
        }
    }
    // The ladder converges: the first round is over budget, the last is not,
    // and once under budget the run stays there.
    assert!(frac[0] > 0.02, "round 0 must be over budget: {frac:?}");
    let settle = frac.iter().position(|f| *f <= 0.02).expect("ladder must settle");
    assert!(
        frac[settle..].iter().all(|f| *f <= 0.02),
        "once inside the budget the run must stay there: {frac:?}"
    );
}

/// Satellite (c)'s load spike: a steady barrier workload interrupted by a 10×
/// burst of interval closes. The bounded mailbox sheds through the spike (every
/// shed attributable), the budget loop sees the spike's cost, and the run both
/// completes and *recovers* — the final rounds' measured cost is back inside
/// the budget.
#[test]
fn load_spike_sheds_attributably_and_recovers_within_budget() {
    let sink = JournalSink::shared();
    let mut profiler = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    profiler.adaptive_threshold = Some(0.5);
    profiler.intervals_per_round = 1;
    profiler.round_deadline_intervals = Some(3);
    profiler.overhead_budget = Some(0.05);
    profiler.oal_mailbox_capacity = Some(4);
    profiler.shed_policy = ShedPolicy::MergeBatches;
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(profiler)
        .trace(sink.clone())
        .build();
    let (objs, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        let objs = (0..8)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        let locks = (0..4).map(|_| ctx.register_lock()).collect::<Vec<LockId>>();
        (objs, locks)
    });
    let (objs, locks) = (Arc::new(objs), Arc::new(locks));
    cluster.run(move |jt| {
        let t = jt.thread_id().0 as usize;
        for _ in 0..10 {
            jt.read(objs[t % 8], |_| {});
            jt.compute(100_000);
            jt.barrier();
        }
        // The spike: 10× the interval rate, posted without yielding.
        for _ in 0..50 {
            jt.lock(locks[t]);
            jt.unlock(locks[t]);
        }
        for _ in 0..10 {
            jt.read(objs[t % 8], |_| {});
            jt.compute(100_000);
            jt.barrier();
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran").clone();
    assert!(master.rounds > 0, "the spiked run completes");
    assert!(report.sheds_merged > 0, "the spike must shed: {report:?}");
    let mut journaled = sink
        .sorted_events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::OalShed { thread, interval, .. } => Some((*thread, *interval)),
            _ => None,
        })
        .collect::<Vec<_>>();
    journaled.sort_unstable();
    assert_eq!(journaled, report.shed_oals, "every spike shed is attributable");
    let series = round_series(&sink.sorted_events());
    let last = series.rounds.last().expect("rounds closed").cost_fraction;
    assert!(
        last <= 0.05,
        "the run must recover to within budget after the spike: {:?}",
        series.rounds
    );
}

/// Gray failure end to end: node 1 runs 8× slow for the first stretch of the
/// run, then recovers. The master must demote it (prorating its unreported
/// intervals out of coverage — rounds keep closing, nothing wedges) and then
/// restore it once its progress deficit decays. Both transitions are journaled.
#[test]
fn slow_node_is_demoted_then_restored_without_wedging() {
    let sink = JournalSink::shared();
    let mut profiler = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    profiler.intervals_per_round = 1;
    profiler.round_deadline_intervals = Some(4);
    profiler.straggler_lag_intervals = Some(1.2);
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::pentium4_2ghz())
        .profiler(profiler)
        .faults(FaultPlan {
            slow: vec![SlowWindow {
                node: NodeId(1),
                from_ns: 0,
                until_ns: Some(30_000),
                factor: 8.0,
            }],
            ..FaultPlan::default()
        })
        .trace(sink.clone())
        .build();
    let (objs, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        let objs = (0..4)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        let locks = (0..4).map(|_| ctx.register_lock()).collect::<Vec<LockId>>();
        (objs, locks)
    });
    let (objs, locks) = (Arc::new(objs), Arc::new(locks));
    cluster.run(move |jt| {
        let t = jt.thread_id().0 as usize;
        for _ in 0..80 {
            jt.lock(locks[t]);
            jt.read(objs[t], |_| {});
            jt.compute(50);
            jt.unlock(locks[t]);
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran").clone();
    assert!(master.rounds > 0, "rounds close while the straggler lags");
    assert!(master.stragglers >= 1, "the slow node must be demoted");
    let events = sink.sorted_events();
    let demoted = events.iter().find_map(|e| match e.kind {
        EventKind::StragglerDemoted { node: 1, round, lag_ewma } => Some((round, lag_ewma)),
        _ => None,
    });
    let (demote_round, lag_ewma) = demoted.expect("node 1 demoted");
    assert!(lag_ewma > 1.2, "the journaled EWMA tripped the threshold");
    let restored = events.iter().find_map(|e| match e.kind {
        EventKind::StragglerRestored { node: 1, round } => Some(round),
        _ => None,
    });
    let restore_round = restored.expect("node 1 restored after the window ends");
    assert!(restore_round > demote_round);
    // Demotion is a coverage-accounting decision, never data loss: the slow
    // node's late intervals still landed (as accepted or late OALs) and the
    // prorated rounds show partial coverage.
    assert!(master.round_coverage.iter().any(|&c| c < 1.0));
    assert!(master.oals_ingested > 0);
    assert_eq!(report.oal_post_failures, 0, "slowness loses nothing");
    assert_eq!(report.shed_oals, vec![], "no mailbox bound, no sheds");
}
