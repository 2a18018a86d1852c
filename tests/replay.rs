//! Replay: the master is a core behind one boundary, so a recorded run replays
//! bit for bit.
//!
//! Each test runs a workload on a live cluster with the master's boundary
//! wrapped by a recorder, which logs every crossing in order: the mailbox
//! batches in, the values read, and every write with the value it returned.
//! A fresh core then runs the same `drive` loop over a replaying boundary that
//! answers each read from the log and checks each write against it. The writes
//! and the `MasterOutput` must be bit-equal; only the host-time
//! `tcm_build_real_ns` may differ.

use std::collections::VecDeque;
use std::sync::Arc;

use jessy::core::{FootprintConfig, FootprintMode, ProfilerConfig, SamplingRate, StackSamplingConfig};
use jessy::gos::{ClassId, CostModel, ObjectId};
use jessy::net::{
    CrashWindow, FaultPlan, LatencyModel, MasterCrashWindow, MsgClass, NodeId, ThreadId,
};
use jessy::obs::EventKind;
use jessy::runtime::master::{drive, CostInputs, LiveBoundary, MasterBoundary, MasterSetup};
use jessy::runtime::{Cluster, Directive, EpochOal, JThread, MasterOutput, RebalanceConfig};
use jessy::workloads::{barnes_hut, phase_shift, sessions, sor, water};

/// One boundary crossing, with what came back.
#[derive(Debug, Clone, PartialEq)]
enum Traffic {
    Setup(Box<MasterSetup>),
    Batch(Option<Vec<EpochOal>>),
    Cost(CostInputs),
    Placement(Vec<NodeId>),
    Homes(Vec<ObjectId>, Vec<NodeId>),
    Footprints(Vec<f64>),
    Migrations((u64, u64, u64)),
    Emit(EventKind),
    Account(NodeId, NodeId, MsgClass, usize),
    Resample(ClassId, SamplingRate, usize),
    Impose(Vec<(ClassId, SamplingRate)>),
    SummaryOnly(bool),
    Epoch(u64),
    Relocate(Vec<(ObjectId, NodeId)>, (usize, usize)),
    Post(Vec<(ThreadId, Directive)>),
}

impl Traffic {
    /// A write: something the core did to the cluster.
    fn is_write(&self) -> bool {
        !matches!(
            self,
            Traffic::Setup(_)
                | Traffic::Batch(_)
                | Traffic::Cost(_)
                | Traffic::Placement(_)
                | Traffic::Homes(..)
                | Traffic::Footprints(_)
                | Traffic::Migrations(_)
        )
    }
}

/// The live boundary, logging every crossing.
struct Recorder {
    live: LiveBoundary,
    tape: Vec<Traffic>,
}

impl Recorder {
    fn log<T: Clone>(&mut self, value: T, entry: impl FnOnce(T) -> Traffic) -> T {
        self.tape.push(entry(value.clone()));
        value
    }
}

impl MasterBoundary for Recorder {
    fn setup(&mut self) -> MasterSetup {
        let setup = self.live.setup();
        self.log(setup, |s| Traffic::Setup(Box::new(s)))
    }
    fn next_batch(&mut self) -> Option<Vec<EpochOal>> {
        let batch = self.live.next_batch();
        self.log(batch, Traffic::Batch)
    }
    fn cost_inputs(&mut self) -> CostInputs {
        let inputs = self.live.cost_inputs();
        self.log(inputs, Traffic::Cost)
    }
    fn placement(&mut self) -> Vec<NodeId> {
        let placement = self.live.placement();
        self.log(placement, Traffic::Placement)
    }
    fn homes(&mut self, objs: &[ObjectId]) -> Vec<NodeId> {
        let homes = self.live.homes(objs);
        self.log(homes, |h| Traffic::Homes(objs.to_vec(), h))
    }
    fn footprints(&mut self) -> Vec<f64> {
        let bytes = self.live.footprints();
        self.log(bytes, Traffic::Footprints)
    }
    fn migrations(&mut self) -> (u64, u64, u64) {
        let counts = self.live.migrations();
        self.log(counts, Traffic::Migrations)
    }
    fn emit(&mut self, event: EventKind) {
        self.tape.push(Traffic::Emit(event.clone()));
        self.live.emit(event);
    }
    fn account(&mut self, from: NodeId, to: NodeId, class: MsgClass, bytes: usize) {
        self.tape.push(Traffic::Account(from, to, class, bytes));
        self.live.account(from, to, class, bytes);
    }
    fn resample(&mut self, class: ClassId, rate: SamplingRate) -> usize {
        let visited = self.live.resample(class, rate);
        self.log(visited, |v| Traffic::Resample(class, rate, v))
    }
    fn impose_rates(&mut self, rates: &[(ClassId, SamplingRate)]) {
        self.tape.push(Traffic::Impose(rates.to_vec()));
        self.live.impose_rates(rates);
    }
    fn set_summary_only(&mut self, on: bool) {
        self.tape.push(Traffic::SummaryOnly(on));
        self.live.set_summary_only(on);
    }
    fn publish_epoch(&mut self, epoch: u64) {
        self.tape.push(Traffic::Epoch(epoch));
        self.live.publish_epoch(epoch);
    }
    fn relocate_homes(&mut self, moves: &[(ObjectId, NodeId)]) -> (usize, usize) {
        let moved = self.live.relocate_homes(moves);
        self.log(moved, |m| Traffic::Relocate(moves.to_vec(), m))
    }
    fn post_directives(&mut self, directives: &[(ThreadId, Directive)]) {
        self.tape.push(Traffic::Post(directives.to_vec()));
        self.live.post_directives(directives);
    }
}

/// Answers every read from a recorded tape and checks every write against it;
/// `writes` keeps what the replayed core wrote.
struct Replayer {
    tape: VecDeque<Traffic>,
    writes: Vec<Traffic>,
}

impl Replayer {
    /// The next recorded crossing, which must be the one the core makes now.
    fn next(&mut self, what: &str) -> Traffic {
        self.tape.pop_front().unwrap_or_else(|| panic!("tape ended before {what}"))
    }

    /// A write the core makes now: it must match the tape bit for bit.
    fn write(&mut self, now: Traffic) {
        let recorded = self.next("a write");
        assert_eq!(format!("{now:?}"), format!("{recorded:?}"), "the replayed core diverged");
        self.writes.push(now);
    }
}

macro_rules! read {
    ($self:ident, $pat:pat => $out:expr) => {
        match $self.next(stringify!($pat)) {
            $pat => $out,
            other => panic!("the replayed core read {} where the tape has {other:?}", stringify!($pat)),
        }
    };
}

impl MasterBoundary for Replayer {
    fn setup(&mut self) -> MasterSetup {
        read!(self, Traffic::Setup(setup) => *setup)
    }
    fn next_batch(&mut self) -> Option<Vec<EpochOal>> {
        read!(self, Traffic::Batch(batch) => batch)
    }
    fn cost_inputs(&mut self) -> CostInputs {
        read!(self, Traffic::Cost(inputs) => inputs)
    }
    fn placement(&mut self) -> Vec<NodeId> {
        read!(self, Traffic::Placement(placement) => placement)
    }
    fn homes(&mut self, objs: &[ObjectId]) -> Vec<NodeId> {
        let (asked, homes) = read!(self, Traffic::Homes(asked, homes) => (asked, homes));
        assert_eq!(asked, objs, "the replayed core asked for other homes");
        homes
    }
    fn footprints(&mut self) -> Vec<f64> {
        read!(self, Traffic::Footprints(bytes) => bytes)
    }
    fn migrations(&mut self) -> (u64, u64, u64) {
        read!(self, Traffic::Migrations(counts) => counts)
    }
    fn emit(&mut self, event: EventKind) {
        self.write(Traffic::Emit(event));
    }
    fn account(&mut self, from: NodeId, to: NodeId, class: MsgClass, bytes: usize) {
        self.write(Traffic::Account(from, to, class, bytes));
    }
    fn resample(&mut self, class: ClassId, rate: SamplingRate) -> usize {
        let Traffic::Resample(_, _, visited) = self.tape.front().cloned().expect("tape ended") else {
            panic!("the replayed core resampled {class:?}; the tape has {:?}", self.tape.front());
        };
        self.write(Traffic::Resample(class, rate, visited));
        visited
    }
    fn impose_rates(&mut self, rates: &[(ClassId, SamplingRate)]) {
        self.write(Traffic::Impose(rates.to_vec()));
    }
    fn set_summary_only(&mut self, on: bool) {
        self.write(Traffic::SummaryOnly(on));
    }
    fn publish_epoch(&mut self, epoch: u64) {
        self.write(Traffic::Epoch(epoch));
    }
    fn relocate_homes(&mut self, moves: &[(ObjectId, NodeId)]) -> (usize, usize) {
        let Traffic::Relocate(_, moved) = self.tape.front().cloned().expect("tape ended") else {
            panic!("the replayed core relocated homes; the tape has {:?}", self.tape.front());
        };
        self.write(Traffic::Relocate(moves.to_vec(), moved));
        moved
    }
    fn post_directives(&mut self, directives: &[(ThreadId, Directive)]) {
        self.write(Traffic::Post(directives.to_vec()));
    }
}

/// The report with its host-time field zeroed, as JSON (f64 bits included).
fn deterministic(out: &MasterOutput) -> String {
    let mut out = out.clone();
    out.tcm_build_real_ns = 0;
    serde_json::to_string(&out).expect("the master output serializes")
}

/// Run `body` on `cluster` with the master's boundary recorded, then replay the
/// tape through a fresh core and require bit-equal writes and output. Returns
/// the live run's output.
fn record_and_replay<F>(mut cluster: Cluster, body: F) -> MasterOutput
where
    F: Fn(&mut JThread) + Send + Sync + 'static,
{
    let recorder = cluster
        .try_run_tapped(body, |live| Recorder { live, tape: Vec::new() })
        .expect("the live run completes");
    let live = cluster.master_output().expect("the master ran").clone();
    let recorded_writes: Vec<Traffic> =
        recorder.tape.iter().filter(|t| t.is_write()).cloned().collect();
    assert!(!recorded_writes.is_empty(), "the master journaled nothing");

    let mut replayer = Replayer { tape: recorder.tape.into(), writes: Vec::new() };
    let replayed = drive(&mut replayer);
    assert!(replayer.tape.is_empty(), "the replay stopped {} crossings early", replayer.tape.len());
    assert_eq!(format!("{:?}", replayer.writes), format!("{recorded_writes:?}"));
    assert_eq!(deterministic(&replayed), deterministic(&live));
    live
}

fn builder(nodes: usize, threads: usize, profiler: ProfilerConfig) -> jessy::runtime::ClusterBuilder {
    Cluster::builder()
        .nodes(nodes)
        .threads(threads)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::pentium4_2ghz())
        .profiler(profiler)
}

fn adaptive(rate: SamplingRate) -> ProfilerConfig {
    ProfilerConfig {
        adaptive_threshold: Some(0.1),
        intervals_per_round: 2,
        ..ProfilerConfig::tracking_at(rate)
    }
}

fn sor_run(cluster: Cluster) -> MasterOutput {
    let cfg = sor::SorConfig::small();
    let (threads, nodes) = (cluster.shared().n_threads, cluster.shared().n_nodes);
    let h = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, threads, nodes)));
    record_and_replay(cluster, move |jt| sor::thread_body(jt, &cfg, &h))
}

#[test]
fn sor_with_home_repair_replays_bit_for_bit() {
    // Every row homed on node 0: each planning epoch's home repair moves rows.
    let rebalance = RebalanceConfig {
        after_rounds: 1,
        every_rounds: Some(1),
        ..RebalanceConfig::default()
    };
    let cluster = builder(4, 8, adaptive(SamplingRate::NX(1))).rebalance(rebalance).build();
    let cfg = sor::SorConfig::small();
    let h = Arc::new(cluster.init(|ctx| sor::setup_with_homes(ctx, &cfg, |_| NodeId(0))));
    let out = record_and_replay(cluster, move |jt| sor::thread_body(jt, &cfg, &h));
    assert!(out.placement.homes_repaired > 0, "{:?}", out.placement);
}

#[test]
fn barnes_hut_replays_bit_for_bit() {
    let cluster = builder(4, 8, adaptive(SamplingRate::NX(1))).build();
    let cfg = barnes_hut::BhConfig::small();
    let h = Arc::new(cluster.init(|ctx| barnes_hut::setup(ctx, &cfg, 8, 4)));
    let out = record_and_replay(cluster, move |jt| barnes_hut::thread_body(jt, &cfg, &h));
    assert!(!out.rate_changes.is_empty(), "the controller acted");
}

#[test]
fn water_with_rebalancing_and_home_migration_replays_bit_for_bit() {
    // The benchmark's `water_migrate` lane: scattered round-robin placement,
    // nonstop footprinting and stack sampling feeding continuous rebalancing
    // with home migration.
    let profiler = ProfilerConfig {
        footprint: Some(FootprintConfig { mode: FootprintMode::Nonstop, min_gap: 1 }),
        stack: Some(StackSamplingConfig { gap_ns: 1000, lazy_extraction: true }),
        ..ProfilerConfig::tracking_at(SamplingRate::NX(1))
    };
    let placement = (0..8).map(|t| NodeId(t % 4)).collect();
    let rebalance = RebalanceConfig {
        after_rounds: 1,
        every_rounds: Some(2),
        cooldown_rounds: 64,
        min_gain_bytes: 64.0,
        gain_horizon_rounds: 64.0,
        ..RebalanceConfig::default()
    };
    let cluster = builder(4, 8, profiler).placement(placement).rebalance(rebalance).build();
    let cfg = water::WaterConfig::small();
    let h = Arc::new(cluster.init(|ctx| water::setup(ctx, &cfg, 8, 4)));
    let out = record_and_replay(cluster, move |jt| water::thread_body(jt, &cfg, &h));
    assert!(out.placement.plans > 1 && out.placement.applied_migrations > 0, "{:?}", out.placement);
}

#[test]
fn sessions_with_adaptive_and_drift_control_replay_bit_for_bit() {
    let profiler = ProfilerConfig { drift_threshold: Some(0.3), ..adaptive(SamplingRate::NX(1)) };
    let cluster = builder(4, 8, profiler).build();
    let cfg = sessions::SessionsConfig::small();
    let h = Arc::new(cluster.init(|ctx| sessions::setup(ctx, &cfg, 4)));
    let out = record_and_replay(cluster, move |jt| sessions::thread_body(jt, &cfg, &h));
    assert!(out.rounds > 0);
}

#[test]
fn phase_shift_replays_bit_for_bit() {
    let profiler = ProfilerConfig {
        drift_threshold: Some(0.3),
        overhead_budget: Some(0.001),
        ..adaptive(SamplingRate::NX(1))
    };
    let cluster = builder(4, 8, profiler).build();
    let cfg = phase_shift::PhaseShiftConfig::small();
    let h = Arc::new(cluster.init(|ctx| phase_shift::setup(ctx, &cfg, 4)));
    let out = record_and_replay(cluster, move |jt| phase_shift::thread_body(jt, &cfg, &h));
    assert!(out.budget_degrades > 0, "the budget ladder moved");
}

/// Every chaos-matrix seed, with lossy and duplicating OAL delivery, a node that
/// crashes twice (and is quarantined), a slow-node detector and a master crash
/// under a checkpoint cadence.
#[test]
fn chaos_runs_with_a_master_crash_replay_bit_for_bit() {
    for seed in [1, 7, 42, 1337, 31337, 99999] {
        let profiler = ProfilerConfig {
            checkpoint_every_rounds: Some(2),
            round_deadline_intervals: Some(2),
            quarantine_after_crashes: Some(1),
            straggler_lag_intervals: Some(1.0),
            tcm_top_k: 4,
            intervals_per_round: 1,
            ..adaptive(SamplingRate::NX(2))
        };
        let crash = |from_interval| CrashWindow { node: NodeId(3), from_interval, until_interval: Some(from_interval + 1) };
        let plan = FaultPlan {
            seed,
            oal_drop: 0.05,
            duplicate_prob: 0.1,
            node_crashes: vec![crash(1), crash(4)],
            master_crashes: vec![MasterCrashWindow { from_interval: 3, until_interval: 5 }],
            ..FaultPlan::default()
        };
        let out = sor_run(builder(4, 8, profiler).faults(plan).build());
        assert_eq!(out.restores, 1, "seed {seed}: the master crashed once");
        assert!(out.checkpoints_taken > 0 && out.replayed_oals > 0, "seed {seed}");
        assert_eq!(out.quarantined_nodes, 1, "seed {seed}");
    }
}
