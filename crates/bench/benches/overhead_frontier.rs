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
//! * **Spike lane** — a 10× burst of interval closes against a bounded mailbox.
//!   Each sender drops its oldest pending batch; the run completes and every
//!   shed is attributable (the shed ledger equals the journal's `OalShed`
//!   events and depresses adjusted coverage).
//! * **Slow-node lane** — a node runs 8× slow for the first stretch of the run.
//!   The round deadline closes the rounds it holds up, so the run never
//!   wedges, and slowness loses no OAL.

use std::sync::Arc;

use jessy_bench::TextTable;
use jessy_core::{accuracy_abs, ProfilerConfig, SamplingRate};
use jessy_gos::{CostModel, LockId, ObjectId};
use jessy_net::{FaultPlan, LatencyModel, NodeId, SlowWindow};
use jessy_obs::{round_series, EventKind, JournalSink};
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
        "min cover",
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
        format!("{:.3}", baseline.round_coverage.unwrap_or(1.0)),
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
            format!("{:.3}", m.round_coverage.unwrap_or(1.0)),
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
/// must shed. Returns the report, the master's output and, from the run's
/// journal, each round's coverage and the sorted `(thread, interval)` of every
/// `OalShed` event.
fn spike_run(burst: usize) -> (RunReport, MasterOutput, Vec<f64>, Vec<(u32, u64)>) {
    let sink = JournalSink::shared();
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(3);
    config.oal_mailbox_capacity = Some(4);
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .trace(sink.clone())
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
    let events = sink.sorted_events();
    let coverage = round_series(&events).rounds.iter().map(|r| r.coverage).collect();
    let mut journaled: Vec<(u32, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::OalShed { thread, interval } => Some((thread, interval)),
            _ => None,
        })
        .collect();
    journaled.sort_unstable();
    (report, master, coverage, journaled)
}

fn spike_lane(burst: usize) {
    println!("spike: 10x interval-close burst vs a 4-slot mailbox (drop the oldest batch)\n");
    let (report, master, coverage, journaled) = spike_run(burst);
    let sheds = report.shed_oals.len();
    assert!(sheds > 0, "the burst must shed");
    assert_eq!(journaled, report.shed_oals, "every shed is attributable to its (thread, interval)");
    let adjusted = report.adjusted_round_coverage(&coverage, 1);
    let min_adj = adjusted.iter().copied().fold(1.0f64, f64::min);
    assert!(min_adj < 1.0, "sheds must depress adjusted coverage");
    let mut t = TextTable::new(&["sheds", "rounds", "min adj cover"]);
    t.row(&[sheds.to_string(), master.rounds.to_string(), format!("{min_adj:.3}")]);
    println!("{}", t.render());
    println!("backpressure never blocks the application: the burst completes, and the");
    println!("shed ledger, equal to the journal's OalShed events, accounts for exactly");
    println!("what coverage lost.\n");
}

// ------------------------------------------------------------ slow-node lane

/// The slow-node workload: per-thread critical sections (two interval closes
/// per iteration), with node 1 running 8× slow until `until_ns`, then healthy.
fn slow_run(iters: usize, until_ns: u64) -> (RunReport, MasterOutput) {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.intervals_per_round = 1;
    config.round_deadline_intervals = Some(4);
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
    let (report, master) = slow_run(iters, until_ns);
    assert!(master.rounds > 0, "the slow-node run must converge");
    assert!(master.deadline_rounds > 0, "the deadline closes the slow node's rounds");
    assert_eq!(report.oal_post_failures, 0, "slowness loses nothing");
    assert!(report.shed_oals.is_empty(), "no mailbox bound, no sheds");
    let mut t = TextTable::new(&["rounds", "deadline", "late OALs", "min cover"]);
    t.row(&[
        master.rounds.to_string(),
        master.deadline_rounds.to_string(),
        master.late_oals.to_string(),
        format!("{:.3}", master.round_coverage.unwrap_or(1.0)),
    ]);
    println!("{}", t.render());
    println!("the deadline closes the rounds the slow node holds up, at partial coverage;");
    println!("its intervals arrive late and still fold into the map.");
}

fn main() {
    println!("X8. OVERHEAD FRONTIER (budgeted profiling, sheds, gray failure)\n");
    let (barriers, burst, iters) = if small() { (300, 30, 60) } else { (600, 60, 120) };
    frontier_lane(barriers);
    spike_lane(burst);
    slow_lane(iters, 30_000);
}
