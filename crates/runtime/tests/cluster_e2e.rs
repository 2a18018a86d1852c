//! End-to-end cluster tests: full runs with profiling, TCM construction at the master,
//! adaptive control, and migration with sticky-set prefetch.

use std::sync::Arc;

use jessy_core::{ProfilerConfig, SamplingRate};
use jessy_gos::{CostModel, ObjectId};
use jessy_net::{LatencyModel, NodeId, ThreadId};
use jessy_obs::{EventKind, JournalSink};
use jessy_runtime::migration::count_would_fault;
use jessy_runtime::{Cluster, LoadBalancer, MoveFilter, RebalanceConfig, RuntimeError};

/// Shared fixture: `n_pairs` pairs of threads; pair k shares its own object.
/// Odd threads also touch a private object, so the TCM must show exactly the pair
/// structure.
fn paired_cluster(n_pairs: usize, rate: SamplingRate) -> (Cluster, Vec<ObjectId>) {
    let cluster = Cluster::builder()
        .nodes(2)
        .threads(2 * n_pairs)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(ProfilerConfig::tracking_at(rate))
        .build();
    let shared_objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Shared", 4);
        let priv_class = ctx.register_scalar_class("Private", 2);
        let objs: Vec<ObjectId> = (0..n_pairs)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect();
        for _ in 0..n_pairs {
            ctx.alloc_scalar_at(NodeId(1), priv_class);
        }
        objs
    });
    (cluster, shared_objs)
}

#[test]
fn tcm_recovers_pairwise_sharing_structure() {
    let n_pairs = 3;
    let (mut cluster, objs) = paired_cluster(n_pairs, SamplingRate::Full);
    let objs = Arc::new(objs);
    let objs_for_run = Arc::clone(&objs);
    cluster.run(move |jt| {
        let pair = jt.thread_id().index() / 2;
        let obj = objs_for_run[pair];
        for _ in 0..5 {
            jt.read(obj, |_| {});
            jt.write(obj, |d| d[0] += 1.0);
            jt.barrier();
        }
    });
    let master = cluster.master_output().expect("master ran");
    assert!(master.oals_ingested > 0, "OALs must reach the master");
    let tcm = &master.tcm;
    for i in 0..(2 * n_pairs) as u32 {
        for j in 0..(2 * n_pairs) as u32 {
            let v = tcm.at(ThreadId(i), ThreadId(j));
            if i == j {
                assert_eq!(v, 0.0);
            } else if i / 2 == j / 2 {
                assert!(v > 0.0, "pair ({i},{j}) must correlate");
            } else {
                assert_eq!(v, 0.0, "threads {i},{j} share nothing");
            }
        }
    }
    // All pairs did identical work: correlations must be equal.
    let base = tcm.at(ThreadId(0), ThreadId(1));
    for k in 1..n_pairs as u32 {
        assert_eq!(tcm.at(ThreadId(2 * k), ThreadId(2 * k + 1)), base);
    }
}

#[test]
fn sampled_tcm_is_close_to_ground_truth() {
    // Same workload traced fully vs sampled at full rate through the sampling path:
    // every object is sampled at gap 1, so the map must equal the trace cell for cell
    // (Fig. 9 covers the sub-full rates).
    let run = |rate: Option<SamplingRate>| -> jessy_core::Tcm {
        let config = match rate {
            Some(r) => ProfilerConfig::tracking_at(r),
            None => ProfilerConfig::ground_truth(),
        };
        let mut cluster = Cluster::builder()
            .nodes(2)
            .threads(4)
            .latency(LatencyModel::free())
            .costs(CostModel::free())
            .profiler(config)
            .build();
        let objs = cluster.init(|ctx| {
            // 8-byte class: 512X is full sampling; use Full for truth, Full for A too
            // but through the sampling path.
            let class = ctx.register_scalar_class("W", 1);
            (0..64)
                .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
                .collect::<Vec<_>>()
        });
        let objs = Arc::new(objs);
        cluster.run(move |jt| {
            let t = jt.thread_id().index();
            for round in 0..4 {
                for k in 0..16 {
                    // Threads t and t+1 overlap half their range.
                    let idx = (t * 12 + k + round) % 64;
                    jt.read(objs[idx], |_| {});
                }
                jt.barrier();
            }
        });
        cluster.master_output().unwrap().tcm.clone()
    };
    let truth = run(None);
    let sampled = run(Some(SamplingRate::Full));
    assert!(truth.total() > 0.0);
    let bits = |tcm: &jessy_core::Tcm| tcm.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&sampled), bits(&truth), "full-rate sampling is the ground truth");
}

#[test]
fn adaptive_controller_steps_rates_during_run() {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::NX(1));
    config.adaptive_threshold = Some(0.02);
    config.intervals_per_round = 1;
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(2)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .build();
    // 64-byte class at 1X → gap 67 (objects 0 and 67 sampled). The shared byte volume
    // alternates between rounds (even: one shared sampled object; odd: two), so
    // successive round maps disagree by ~50% and the controller must refine.
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        (0..100)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<_>>()
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for round in 0..12usize {
            jt.read(objs[0], |_| {});
            if round % 2 == 1 {
                jt.read(objs[67], |_| {});
            }
            jt.barrier();
        }
    });
    let master = cluster.master_output().unwrap();
    assert!(master.rounds >= 10, "rounds: {}", master.rounds);
    assert!(
        !master.rate_changes.is_empty(),
        "unstable maps must trigger refinement"
    );
    assert!(master.rate_changes.iter().all(|c| c.class_name == "Body"));
    assert!(master.rate_changes[0].resampled_objects == 100);
}

#[test]
fn migration_with_prefetch_eliminates_sticky_refaults() {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.footprint = Some(jessy_core::FootprintConfig {
        mode: jessy_core::FootprintMode::Nonstop,
        min_gap: 1,
    });
    config.stack = Some(jessy_core::StackSamplingConfig {
        gap_ns: 1000,
        lazy_extraction: true,
    });
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(1)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(config)
        .build();
    let (method, head, chain) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Node", 4);
        let method = ctx.register_method("traverse", 2);
        // A chain of 10 objects homed at node 0, linked head → … → tail.
        let ids: Vec<ObjectId> = (0..10)
            .map(|_| ctx.alloc_scalar_at(NodeId(0), class).id)
            .collect();
        for w in ids.windows(2) {
            ctx.add_ref(w[0], w[1]);
        }
        (method, ids[0], ids)
    });
    let chain_arc = Arc::new(chain.clone());
    let reports: Arc<parking_lot::Mutex<Vec<jessy_runtime::MigrationReport>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let reports_run = Arc::clone(&reports);
    cluster.run(move |jt| {
        jt.push_frame(method);
        jt.set_local_ref(0, head);
        // Traverse the chain repeatedly so (a) the stack sampler sees the head slot as
        // invariant, (b) nonstop footprinting sees every chain object as sticky.
        for _ in 0..40 {
            for &o in chain_arc.iter() {
                jt.read(o, |_| {});
                jt.compute(3);
            }
        }
        jt.barrier(); // interval closes: footprint recorded
        let report = jt.migrate_to(NodeId(1), true);
        reports_run.lock().push(report);
    });
    let report = reports.lock().pop().expect("one migration");
    assert_eq!(report.from, NodeId(0));
    assert_eq!(report.to, NodeId(1));
    assert!(report.ctx_bytes > 0, "stack context shipped");
    let res = report.resolution.as_ref().expect("prefetch resolved");
    assert!(
        res.selected.len() >= 5,
        "most of the chain resolved: {:?}",
        res.selected.len()
    );
    // Ground truth: the prefetched objects must no longer fault at the destination
    // (the run's parked thread arena holds the prefetched copies).
    let shared = cluster.shared();
    shared.with_space(ThreadId(0), |space| {
        assert_eq!(
            count_would_fault(&shared.gos, space, NodeId(1), res.selected.iter().copied()),
            0,
            "prefetch hid the induced faults"
        );
        // Without prefetch, the rest of the remote chain still faults.
        assert_eq!(
            count_would_fault(&shared.gos, space, NodeId(1), chain),
            10 - res.selected.len()
        );
    });
}

#[test]
fn balancer_fixes_a_bad_placement_found_by_profiling() {
    // Threads 0&2 share heavily, 1&3 share heavily, but initial placement splits the
    // sharers. Profile, plan, verify the plan reunites them.
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .placement(vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)])
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(ProfilerConfig::tracking_at(SamplingRate::Full))
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        vec![
            ctx.alloc_scalar_at(NodeId(0), class).id, // shared by threads 0 & 2
            ctx.alloc_scalar_at(NodeId(1), class).id, // shared by threads 1 & 3
        ]
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        let group = jt.thread_id().index() % 2;
        for _ in 0..6 {
            jt.read(objs[group], |_| {});
            jt.barrier();
        }
    });
    let tcm = cluster.master_output().unwrap().tcm.clone();
    let lb = LoadBalancer::new();
    let current = vec![NodeId(0), NodeId(0), NodeId(1), NodeId(1)];
    assert_eq!(lb.intra_fraction(&tcm, &current), 0.0, "bad placement");
    let plan = lb.plan(&tcm, 2);
    assert_eq!(plan.intra_fraction, 1.0, "plan reunites the sharers");
    assert_eq!(plan.placement[0], plan.placement[2]);
    assert_eq!(plan.placement[1], plan.placement[3]);
    // The live engine's repair of `current` reaches the same quality.
    let repaired = lb.refine(&tcm, 2, &current, &MoveFilter::default());
    assert_eq!(lb.intra_fraction(&tcm, &repaired.placement), 1.0);
}

#[test]
fn run_report_is_coherent() {
    let (mut cluster, objs) = paired_cluster(2, SamplingRate::Full);
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        jt.write(objs[jt.thread_id().index() / 2], |d| d[0] = 1.0);
        jt.compute(100);
        jt.barrier();
    });
    let report = cluster.report();
    assert_eq!(report.n_threads, 4);
    assert_eq!(report.per_thread_ns.len(), 4);
    assert_eq!(
        report.sim_exec_ns,
        report.per_thread_ns.iter().copied().max().unwrap()
    );
    assert!(report.proto.accesses >= 4);
    assert!(report.profiler.intervals_closed >= 4);
    assert!(report.master.is_some());
}

/// A balancer-on run of 4 threads on 2 nodes: thread `t` reads object
/// `group_of(t)` (homed on node 0 or 1) between barriers, 10 times. Footprinting
/// is off, so `footprints`, written before the run, price every move.
fn balancing_run(
    placement: [u16; 4],
    group_of: fn(usize) -> usize,
    footprints: [f64; 4],
    rebalance: RebalanceConfig,
) -> (Cluster, Arc<JournalSink>) {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.intervals_per_round = 1;
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .placement(placement.iter().map(|&n| NodeId(n)).collect())
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .rebalance(rebalance)
        .trace(sink.clone())
        .build();
    *cluster.shared().footprints.write() = footprints.to_vec();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("S", 8);
        vec![
            ctx.alloc_scalar_at(NodeId(0), class).id,
            ctx.alloc_scalar_at(NodeId(1), class).id,
        ]
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        let group = group_of(jt.thread_id().index());
        for _ in 0..10 {
            jt.read(objs[group], |_| {});
            jt.barrier();
        }
    });
    (cluster, sink)
}

/// One planning epoch after `after_rounds` rounds, every move affordable.
fn one_shot(after_rounds: u64) -> RebalanceConfig {
    RebalanceConfig {
        after_rounds,
        with_prefetch: false,
        min_gain_bytes: 1.0,
        gain_horizon_rounds: 1e18,
        every_rounds: None,
        ..Default::default()
    }
}

#[test]
fn dynamic_balancer_fixes_placement_mid_run() {
    // Threads 0&2 and 1&3 share heavily but start split across nodes. With dynamic
    // rebalancing on, the master plans from the live TCM and the threads migrate at a
    // barrier; by the end the sharers are collocated.
    let (cluster, _) = balancing_run([0, 0, 1, 1], |t| t % 2, [0.0; 4], one_shot(3));
    let master = cluster.master_output().unwrap();
    assert!(
        !master.planned_migrations.is_empty(),
        "the balancer must have issued directives"
    );
    let shared = cluster.shared();
    let placement = shared.placement.read().clone();
    assert_eq!(placement[0], placement[2], "sharers 0&2 collocated: {placement:?}");
    assert_eq!(placement[1], placement[3], "sharers 1&3 collocated: {placement:?}");
    assert_ne!(placement[0], placement[1], "capacity respected");
    let log = shared.migration_log.lock();
    assert!(!log.is_empty(), "migrations actually happened");
    assert!(log.iter().all(|m| m.from != m.to));
}

#[test]
fn dynamic_balancer_leaves_good_placements_alone() {
    // Sharers 0&1 on node 0, 2&3 on node 1: already optimal.
    let (cluster, _) = balancing_run([0, 0, 1, 1], |t| t / 2, [0.0; 4], one_shot(3));
    let master = cluster.master_output().unwrap();
    assert!(
        master.planned_migrations.is_empty(),
        "no thrashing on an already-optimal placement: {:?}",
        master.planned_migrations
    );
    assert!(cluster.shared().migration_log.lock().is_empty());
}

#[test]
fn one_shot_rebalance_never_overloads_a_node() {
    // Cliques {0,1} and {2,3}, both split over two exactly-full nodes. Thread 2's
    // sticky set is unaffordable, and thread 1's leg alone would put three threads
    // on node 0: the single epoch must repair with the cheap swap 0 <-> 3, not post
    // half of a swap.
    let rebalance = RebalanceConfig {
        gain_horizon_rounds: 1.0,
        ..one_shot(3)
    };
    let (cluster, _) = balancing_run([0, 1, 0, 1], |t| t / 2, [0.0, 10.0, 1e9, 0.0], rebalance);
    let placement = cluster.shared().placement.read().clone();
    for node in 0..2u16 {
        let load = placement.iter().filter(|n| n.0 == node).count();
        assert!(load <= 2, "node {node} holds {load} > ⌈4/2⌉ threads: {placement:?}");
    }
    assert_eq!(placement[2], NodeId(0), "thread 2 must not have moved");
    assert_eq!(placement[0], placement[1], "clique {{0,1}} reunited: {placement:?}");
    assert_eq!(placement[2], placement[3], "clique {{2,3}} reunited: {placement:?}");
}

#[test]
fn one_shot_rebalance_is_one_epoch_of_the_engine() {
    for after_rounds in [0, 1, 3] {
        let (cluster, sink) =
            balancing_run([0, 0, 1, 1], |t| t % 2, [8.0; 4], one_shot(after_rounds));
        let p = &cluster.master_output().unwrap().placement;
        assert_eq!(p.plans, 1, "after_rounds {after_rounds}: {p:?}");
        assert!(p.directives > 0 && p.applied_migrations > 0, "{p:?}");
        let events = sink.sorted_events();
        let mut closes: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::RoundClosed { round, .. } => Some((e.seq, round)),
                _ => None,
            })
            .collect();
        closes.sort_unstable();
        let due = closes[after_rounds.max(1) as usize - 1].1;
        let planned: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PlacementPlanned { round, .. } => Some(round),
                _ => None,
            })
            .collect();
        assert_eq!(planned, vec![due], "after_rounds {after_rounds}");
    }

    // The epoch's budget binds the single epoch too.
    let rebalance = RebalanceConfig {
        migration_budget_bytes: Some(0.0),
        ..one_shot(3)
    };
    let (cluster, _) = balancing_run([0, 0, 1, 1], |t| t % 2, [8.0; 4], rebalance);
    let p = &cluster.master_output().unwrap().placement;
    assert_eq!((p.plans, p.directives), (1, 0), "{p:?}");
    assert!(p.vetoed_budget > 0, "{p:?}");
    assert!(cluster.shared().migration_log.lock().is_empty());
}

/// A worker that panics is named in the error, and every other task still
/// runs to its end: the master closes its rounds and its output survives. The
/// panicking task unwinds on its own stack without passing a scheduling point.
#[test]
fn a_panicking_worker_is_named_and_the_rest_of_the_run_completes() {
    let (mut cluster, objs) = paired_cluster(2, SamplingRate::Full);
    let ran = cluster.try_run(move |jt| {
        let obj = objs[jt.thread_id().index() / 2];
        jt.write(obj, |d| d[0] += 1.0);
        jt.barrier();
        if jt.thread_id().index() == 2 {
            panic!("worker 2 fails");
        }
        jt.read(obj, |_| {});
    });
    assert_eq!(ran, Err(RuntimeError::TaskPanicked { thread: 2 }));
    let master = cluster.master_output().expect("the master ran to its end");
    assert!(master.oals_ingested > 0);
    assert_eq!(cluster.report().n_threads, 4);
}

/// A barrier one thread never reaches deadlocks the task set: the executor
/// poisons, every blocked task unwinds on its own stack, and the error names
/// the first thread the poison killed.
#[test]
fn a_deadlocked_run_is_poisoned_and_reported() {
    let (mut cluster, _) = paired_cluster(2, SamplingRate::Full);
    let ran = cluster.try_run(|jt| {
        if jt.thread_id().index() != 0 {
            jt.barrier();
        }
    });
    assert_eq!(ran, Err(RuntimeError::TaskPanicked { thread: 1 }));
    assert!(cluster.shared().exec.is_poisoned());
}
