//! The master's one boundary with the live cluster.
//!
//! Everything the master core ([`super::MasterCore`]) reads from the cluster
//! mid-run, and everything it does to it, is one call of the [`MasterBoundary`]
//! trait. The reads are the run's setup, the next mailbox batch, the
//! cost-fraction inputs, the live placement, object homes, the sticky-set
//! footprints and the barrier-side migration counts. The writes are journal
//! events, fabric accounting, a rate broadcast with its resampling walk, a
//! restored rate table, the summary-only switch, the epoch, home relocation and
//! directive posting. Master clock charges ride the two writes that cost master
//! time: the resampling walk and home relocation. Decisions stay in the core.
//!
//! [`LiveBoundary`] answers the calls over a running cluster. A test answers
//! them from a fake, or from a recording of a live run, so the core runs
//! unmodified while the harness supplies the world (DESIGN.md §12).

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use jessy_core::adaptive::apply_rate_change;
use jessy_core::{GapTable, ProfilerConfig, SamplingRate};
use jessy_gos::{ClassId, ObjectId};
use jessy_net::{FaultPlan, Mailbox, MsgClass, NodeId, ThreadId};
use jessy_obs::EventKind;

use super::EpochOal;
use crate::cluster::ClusterShared;
use crate::dynamic::{Directive, RebalanceConfig};

/// What a master core is built from: the run's fixed parameters and the rate
/// table the workers start with.
#[derive(Debug, Clone, PartialEq)]
pub struct MasterSetup {
    /// The profiler configuration.
    pub config: ProfilerConfig,
    /// Application threads.
    pub n_threads: usize,
    /// Nodes.
    pub n_nodes: usize,
    /// Dynamic rebalancing, if enabled.
    pub rebalance: Option<RebalanceConfig>,
    /// The fault plan: master crash windows and the crash-quarantine rule.
    pub faults: Option<FaultPlan>,
    /// Fabric nanoseconds per profiling wire byte.
    pub ns_per_byte: f64,
    /// CPU nanoseconds per OAL log append.
    pub log_append_ns: u64,
    /// Per-class sampling rates at the start of the run.
    pub rates: GapTable,
    /// The name of every class in `rates`.
    pub class_names: BTreeMap<ClassId, String>,
}

/// The inputs of a round's profiling cost fraction: virtual counters, read while
/// the master holds the cooperative token, so the fraction is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostInputs {
    /// Σ worker clocks (ns). Each stands where its parked thread's next visible
    /// action begins (DESIGN.md §15).
    pub compute_ns: u64,
    /// Profiling wire bytes so far (OAL ship, rate broadcasts, rejoins).
    pub prof_bytes: u64,
    /// OAL entries logged so far.
    pub oal_entries: u64,
}

/// Everything the master core reads from, and does to, the cluster.
pub trait MasterBoundary {
    /// The run's [`MasterSetup`], read once when the core is built.
    fn setup(&mut self) -> MasterSetup;
    /// The next mailbox batch, blocking while the mailbox is empty; `None` once
    /// the run has ended and the mailbox is drained.
    fn next_batch(&mut self) -> Option<Vec<EpochOal>>;
    /// The [`CostInputs`].
    fn cost_inputs(&mut self) -> CostInputs;
    /// The live thread → node placement.
    fn placement(&mut self) -> Vec<NodeId>;
    /// The current home of each object.
    fn homes(&mut self, objs: &[ObjectId]) -> Vec<NodeId>;
    /// The per-thread sticky-set footprints (bytes).
    fn footprints(&mut self) -> Vec<f64>;
    /// At the end of the run, the barrier-side placement counts: directives
    /// fenced for a stale epoch, migrations performed and the bytes they moved.
    fn migrations(&mut self) -> (u64, u64, u64);
    /// Journal an event, stamped with the master clock.
    fn emit(&mut self, event: EventKind);
    /// Account one message on the fabric.
    fn account(&mut self, from: NodeId, to: NodeId, class: MsgClass, bytes: usize);
    /// Install a class's new rate in the workers' table and run its resampling
    /// walk; returns the objects the walk visited.
    fn resample(&mut self, class: ClassId, rate: SamplingRate) -> usize;
    /// Re-impose a restored rate table on the workers, with no walk.
    fn impose_rates(&mut self, rates: &[(ClassId, SamplingRate)]);
    /// Switch OALs to per-class summaries, or back.
    fn set_summary_only(&mut self, on: bool);
    /// Publish the master epoch to the workers.
    fn publish_epoch(&mut self, epoch: u64);
    /// Relocate object homes; returns the homes moved and the bytes shipped.
    fn relocate_homes(&mut self, moves: &[(ObjectId, NodeId)]) -> (usize, usize);
    /// Post migration directives, honoured at each thread's next barrier.
    fn post_directives(&mut self, directives: &[(ThreadId, Directive)]);
}

/// The boundary over a running cluster: the master daemon's mailbox and the
/// cluster state it reads and acts on.
pub struct LiveBoundary {
    pub(crate) shared: Arc<ClusterShared>,
    pub(crate) mailbox: Mailbox<EpochOal>,
}

impl MasterBoundary for LiveBoundary {
    fn setup(&mut self) -> MasterSetup {
        let (shared, gaps) = (&*self.shared, self.shared.prof.gaps());
        MasterSetup {
            config: *shared.prof.config(),
            n_threads: shared.n_threads,
            n_nodes: shared.n_nodes,
            rebalance: shared.rebalance,
            faults: shared.gos.fabric().injector().map(|inj| inj.plan().clone()),
            ns_per_byte: shared.gos.fabric().latency_model().ns_per_byte,
            log_append_ns: shared.gos.costs().log_append_ns,
            rates: gaps.clone(),
            class_names: gaps
                .classes()
                .into_iter()
                .map(|c| (c, shared.gos.classes().info(c).name))
                .collect(),
        }
    }

    fn next_batch(&mut self) -> Option<Vec<EpochOal>> {
        let shared = &*self.shared;
        let mut done = false;
        loop {
            let batch = self.mailbox.drain();
            if !batch.is_empty() {
                return Some(batch.into_iter().map(|env| env.body).collect());
            }
            if done {
                return None;
            }
            // Once the run is done, drain one last time; until then hand the
            // token to the application tasks and park until a worker posts an
            // OAL. An external block: an empty mailbox is idleness, never
            // deadlock.
            done = shared.done.load(Ordering::Acquire);
            if !done {
                shared.exec.block_external(shared.master_task(), shared.master_clock().now());
            }
        }
    }

    fn cost_inputs(&mut self) -> CostInputs {
        let shared = &*self.shared;
        CostInputs {
            compute_ns: (0..shared.n_threads).map(|t| shared.board.read(ThreadId(t as u32))).sum(),
            prof_bytes: shared.gos.net_stats().oal_bytes(),
            oal_entries: shared.prof.stats().snapshot().oal_entries,
        }
    }

    fn placement(&mut self) -> Vec<NodeId> {
        self.shared.placement.read().clone()
    }

    fn homes(&mut self, objs: &[ObjectId]) -> Vec<NodeId> {
        objs.iter().map(|obj| self.shared.gos.object_ref(*obj).home()).collect()
    }

    fn footprints(&mut self) -> Vec<f64> {
        self.shared.footprints.read().clone()
    }

    fn migrations(&mut self) -> (u64, u64, u64) {
        let log = self.shared.migration_log.lock();
        let bytes = log.iter().map(|m| m.total_bytes() as u64).sum();
        (self.shared.fenced_directives.load(Ordering::Relaxed), log.len() as u64, bytes)
    }

    fn emit(&mut self, event: EventKind) {
        self.shared.emit_event(&self.shared.master_clock(), event);
    }

    fn account(&mut self, from: NodeId, to: NodeId, class: MsgClass, bytes: usize) {
        self.shared.gos.fabric().account_async(from, to, class, bytes);
    }

    fn resample(&mut self, class: ClassId, rate: SamplingRate) -> usize {
        let (shared, gaps) = (&*self.shared, self.shared.prof.gaps());
        gaps.set_rate(class, rate);
        apply_rate_change(&shared.gos, gaps, class, &shared.master_clock())
    }

    fn impose_rates(&mut self, rates: &[(ClassId, SamplingRate)]) {
        for &(class, rate) in rates {
            self.shared.prof.gaps().set_rate(class, rate);
        }
    }

    fn set_summary_only(&mut self, on: bool) {
        self.shared.prof.set_summary_only(on);
    }

    fn publish_epoch(&mut self, epoch: u64) {
        self.shared.master_epoch.store(epoch, Ordering::Release);
    }

    fn relocate_homes(&mut self, moves: &[(ObjectId, NodeId)]) -> (usize, usize) {
        self.shared.gos.relocate_homes(moves.iter().copied(), &self.shared.master_clock())
    }

    fn post_directives(&mut self, directives: &[(ThreadId, Directive)]) {
        let mut slots = self.shared.directives.write();
        for &(thread, directive) in directives {
            slots[thread.index()] = Some(directive);
        }
    }
}
