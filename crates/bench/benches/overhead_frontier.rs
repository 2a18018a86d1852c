//! X8. Overhead frontier — budgeted profiling cost vs map accuracy, plus the
//! overload lanes (shed spike, slow node).
//!
//! The graceful-degradation work trades profile fidelity for bounded cost. This
//! bench measures the trade three ways:
//!
//! * **Frontier lane** — the identical neighbour-sharing workload run unbudgeted
//!   and then under tightening `overhead_budget`s. The headline invariant: a 2%
//!   budget must *hold* (steady-state measured cost ≤ 2% of charged compute)
//!   while losing at most 10% relative TCM accuracy against the unbudgeted map.
//! * **Spike lane** — a 10× burst of interval closes against a bounded mailbox,
//!   once per shed policy. Every run completes and every shed is attributable
//!   (the policy counters equal the shed ledger, which depresses adjusted
//!   coverage).
//! * **Slow-node lane** — a node runs 8× slow for the first stretch of the run.
//!   With straggler detection the node is demoted (coverage prorated, rounds
//!   keep closing) and restored after it recovers; without detection the
//!   deadline path alone still converges. Neither wedges.

use std::sync::Arc;

use jessy_bench::TextTable;
use jessy_core::{accuracy_abs, ProfilerConfig, SamplingRate, ShedPolicy};
use jessy_gos::{CostModel, LockId, ObjectId};
use jessy_net::{FaultPlan, LatencyModel, NodeId, SlowWindow};
use jessy_obs::{round_series, JournalSink};
use jessy_runtime::{Cluster, MasterOutput, RunReport};

const NODES: usize = 2;
const THREADS: usize = 4;

fn small() -> bool {
    matches!(std::env::var("JESSY_SCALE").as_deref(), Ok("small"))
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

// ------------------------------------------------------------- frontier lane

/// One frontier run: every thread sweeps the same 40 shared objects in the
/// same order at `Full` initial sampling, so the true map is a uniform
/// all-pairs band and the steady profiling cost sits around 5% of charged
/// compute — over every budget in the sweep, so the ladder has real work to
/// do. (Identical access order keeps coarsened per-thread samples coincident:
/// what the budget costs is density, not band structure.) Returns the
/// master's output and, from the run's journal, each round's cost fraction.
fn frontier_run(budget: Option<f64>, barriers: usize) -> (MasterOutput, Vec<f64>) {
    let sink = JournalSink::shared();
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.adaptive_threshold = Some(0.5);
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(3);
    config.overhead_budget = budget;
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .trace(sink.clone())
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        (0..40)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % NODES) as u16), class).id)
            .collect::<Vec<ObjectId>>()
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for _ in 0..barriers {
            for k in 0..40 {
                jt.read(objs[k], |_| {});
            }
            jt.compute(8_000);
            jt.barrier();
        }
    });
    let costs = round_series(&sink.sorted_events()).rounds.iter().map(|r| r.cost_fraction).collect();
    (cluster.master_output().expect("master ran").clone(), costs)
}

/// Steady-state cost: the mean measured fraction over the back half of the
/// round history, after the ladder has settled.
fn steady_cost(frac: &[f64]) -> f64 {
    mean(&frac[frac.len() / 2..])
}

fn frontier_lane(barriers: usize) {
    println!("frontier: budgeted cost vs relative TCM accuracy (same workload)\n");
    let (baseline, base_costs) = frontier_run(None, barriers);
    let mut t = TextTable::new(&[
        "budget",
        "over rounds",
        "degrades",
        "start cost",
        "steady cost",
        "mean cover",
        "rel acc",
    ]);
    let base_steady = steady_cost(&base_costs);
    assert!(
        base_steady > 0.04,
        "the frontier workload must run well over the 2% headline budget, got {base_steady}"
    );
    t.row(&[
        "none".to_string(),
        baseline.budget_over_rounds.to_string(),
        baseline.budget_degrades.to_string(),
        format!("{:.4}", base_costs[0]),
        format!("{:.4}", base_steady),
        format!("{:.3}", mean(&baseline.round_coverage)),
        "1.0000".to_string(),
    ]);
    for &b in &[0.10, 0.05, 0.02] {
        let (m, costs) = frontier_run(Some(b), barriers);
        let steady = steady_cost(&costs);
        let acc = accuracy_abs(&m.tcm, &baseline.tcm);
        t.row(&[
            format!("{:.0}%", b * 100.0),
            m.budget_over_rounds.to_string(),
            m.budget_degrades.to_string(),
            format!("{:.4}", costs[0]),
            format!("{:.4}", steady),
            format!("{:.3}", mean(&m.round_coverage)),
            format!("{:.4}", acc),
        ]);
        if costs[0] > b {
            assert!(
                m.budget_degrades >= 1,
                "a workload starting over a {b} budget must degrade"
            );
        }
        assert!(
            steady <= b,
            "the {b} budget must hold at steady state, measured {steady}"
        );
        if (b - 0.02).abs() < 1e-9 {
            assert!(
                acc >= 0.9,
                "the 2% budget may lose at most 10% relative accuracy, got {acc}"
            );
        }
    }
    println!("{}", t.render());
    println!("the unbudgeted run never degrades (the cost fraction is recorded either");
    println!("way); each budget walks the coarsen→merge→summary ladder only far enough");
    println!("to fit, so tighter budgets cost accuracy monotonically.\n");
}

// ---------------------------------------------------------------- spike lane

/// The spike workload: steady barrier rounds bracketing a burst of uncontended
/// `lock`/`unlock` critical sections — every boundary closes an interval and
/// posts its OAL without yielding the cooperative token, so the 4-slot mailbox
/// must shed under whichever policy is configured.
fn spike_run(policy: ShedPolicy, burst: usize) -> (RunReport, MasterOutput) {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(3);
    config.oal_mailbox_capacity = Some(4);
    config.shed_policy = policy;
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .build();
    let (objs, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        let objs = (0..THREADS)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % NODES) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        let locks = (0..THREADS).map(|_| ctx.register_lock()).collect::<Vec<LockId>>();
        (objs, locks)
    });
    let (objs, locks) = (Arc::new(objs), Arc::new(locks));
    cluster.run(move |jt| {
        let t = jt.thread_id().index();
        for _ in 0..5 {
            jt.read(objs[t], |_| {});
            jt.barrier();
        }
        for _ in 0..burst {
            jt.lock(locks[t]);
            jt.unlock(locks[t]);
        }
        for _ in 0..5 {
            jt.read(objs[t], |_| {});
            jt.barrier();
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran").clone();
    (report, master)
}

fn spike_lane(burst: usize) {
    println!("spike: 10x interval-close burst vs a 4-slot mailbox, per shed policy\n");
    let mut t = TextTable::new(&["policy", "sheds", "dropped", "merged", "summarized", "rounds", "min adj cover"]);
    for policy in [ShedPolicy::DropOldestRound, ShedPolicy::MergeBatches, ShedPolicy::SummaryOnly] {
        let (report, master) = spike_run(policy, burst);
        let sheds = report.sheds_dropped + report.sheds_merged + report.sheds_summarized;
        assert!(sheds > 0, "the burst must shed under {policy:?}");
        assert_eq!(
            sheds,
            report.shed_oals.len() as u64,
            "every shed is attributable to its (thread, interval)"
        );
        let adjusted = report.adjusted_round_coverage(1);
        let min_adj = adjusted.iter().copied().fold(1.0f64, f64::min);
        assert!(min_adj < 1.0, "sheds must depress adjusted coverage");
        t.row(&[
            format!("{policy:?}"),
            sheds.to_string(),
            report.sheds_dropped.to_string(),
            report.sheds_merged.to_string(),
            report.sheds_summarized.to_string(),
            master.rounds.to_string(),
            format!("{min_adj:.3}"),
        ]);
    }
    println!("{}", t.render());
    println!("backpressure never blocks the application: the burst completes under every");
    println!("policy, and the shed ledger accounts for exactly what coverage lost.\n");
}

// ------------------------------------------------------------ slow-node lane

/// The slow-node workload: per-thread critical sections (two interval closes
/// per iteration), with node 1 running 8× slow until `until_ns`, then healthy.
fn slow_run(detect: bool, iters: usize, until_ns: u64) -> (RunReport, MasterOutput) {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(4);
    config.straggler_lag_intervals = detect.then_some(1.2);
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .latency(LatencyModel::free())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .faults(FaultPlan {
            slow: vec![SlowWindow {
                node: NodeId(1),
                from_ns: 0,
                until_ns: Some(until_ns),
                factor: 8.0,
            }],
            ..FaultPlan::default()
        })
        .build();
    let (objs, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        let objs = (0..THREADS)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % NODES) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        let locks = (0..THREADS).map(|_| ctx.register_lock()).collect::<Vec<LockId>>();
        (objs, locks)
    });
    let (objs, locks) = (Arc::new(objs), Arc::new(locks));
    cluster.run(move |jt| {
        let t = jt.thread_id().index();
        for _ in 0..iters {
            jt.lock(locks[t]);
            jt.read(objs[t], |_| {});
            jt.compute(50);
            jt.unlock(locks[t]);
        }
    });
    let report = cluster.report();
    let master = cluster.master_output().expect("master ran").clone();
    (report, master)
}

fn slow_lane(iters: usize, until_ns: u64) {
    println!("slow node: node 1 at 8x service time for the first stretch of the run\n");
    let mut t = TextTable::new(&["detection", "stragglers", "rounds", "deadline", "mean cover"]);
    for detect in [false, true] {
        let (report, master) = slow_run(detect, iters, until_ns);
        assert!(master.rounds > 0, "the slow-node run must converge");
        assert_eq!(report.oal_post_failures, 0, "slowness loses nothing");
        if detect {
            assert!(master.stragglers >= 1, "the slow node must be demoted");
        } else {
            assert_eq!(master.stragglers, 0);
        }
        t.row(&[
            if detect { "ewma demote" } else { "deadline only" }.to_string(),
            master.stragglers.to_string(),
            master.rounds.to_string(),
            master.deadline_rounds.to_string(),
            format!("{:.3}", mean(&master.round_coverage)),
        ]);
    }
    println!("{}", t.render());
    println!("both lanes converge; demotion prorates the straggler out of the coverage");
    println!("denominator while it lags (its late intervals still reach the map) and");
    println!("restores it once its progress deficit decays below half the threshold.");
}

fn main() {
    println!("X8. OVERHEAD FRONTIER (budgeted profiling, sheds, gray failure)\n");
    let (barriers, burst, iters) = if small() { (300, 30, 60) } else { (600, 60, 120) };
    frontier_lane(barriers);
    spike_lane(burst);
    slow_lane(iters, 30_000);
}
