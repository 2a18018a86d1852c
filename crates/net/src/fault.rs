//! Deterministic fault injection for the simulated interconnect.
//!
//! The paper's profiling pipeline assumes a polite network: every OAL batch reaches the
//! master's correlation daemon, exactly once, in order. Real clusters drop, duplicate
//! and delay messages, and whole nodes go quiet. A [`FaultPlan`] describes such a chaos
//! schedule; a [`FaultInjector`] turns it into per-message [`FaultDecision`]s that the
//! [`crate::Fabric`] and [`crate::Mailbox`] consult on every send.
//!
//! Decisions are **derived, not drawn**: each one is a pure hash of
//! `(seed, from, to, class, key)`, where `key` is either a content key supplied by the
//! caller (e.g. `(thread, interval)` for an OAL batch — see [`oal_fault_key`]) or a
//! per-link-per-class sequence number. Content-keyed decisions are bit-stable across
//! runs regardless of thread scheduling; sequence-keyed decisions are stable for any
//! fixed per-link message order. A plan with all probabilities zero injects nothing and
//! leaves every byte and nanosecond of the fault-free run untouched.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::error::NetError;
use crate::ids::{NodeId, ThreadId};
use crate::message::MsgClass;

/// Simulated nanoseconds a synchronous requester waits before it retransmits a
/// request lost to a stall or a partition: 1 ms, about a Fast Ethernet TCP
/// retransmission stall.
pub const RETRANSMIT_TIMEOUT_NS: u64 = 1_000_000;

/// A window of outbound messages during which a node is unresponsive (e.g. a GC pause
/// or a transient network partition). Every message the node sends while its outbound
/// message counter is in `[start_msg, end_msg)` is suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StallWindow {
    /// The stalled node.
    pub node: NodeId,
    /// First outbound message index (inclusive) covered by the stall.
    pub start_msg: u64,
    /// First outbound message index past the stall (exclusive).
    pub end_msg: u64,
}

/// A window of profiling intervals during which a worker node is crashed (process
/// gone, not merely silent): its threads ship no OALs and any state the node held is
/// lost. If `until_interval` is `None` the node never restarts; otherwise it rejoins
/// at `until_interval` with a fresh epoch handshake.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// First profiling interval (inclusive) during which the node is down.
    pub from_interval: u64,
    /// First interval past the crash (exclusive); `None` means crash-stop forever.
    pub until_interval: Option<u64>,
}

impl CrashWindow {
    /// True if the node is down while closing profiling interval `interval`.
    #[inline]
    pub fn covers(&self, interval: u64) -> bool {
        interval >= self.from_interval && self.until_interval.is_none_or(|u| interval < u)
    }
}

/// A window of profiling intervals during which the **master** correlation daemon is
/// crashed. Its volatile state (open rounds, adaptive baselines, the un-snapshotted
/// TCM tail) dies with it; OAL batches in flight over `[from_interval,
/// until_interval)` are deferred by the transport until the restart. At
/// `until_interval` the master restarts, restores its latest checkpoint and replays
/// its buffered post-checkpoint OALs under a bumped epoch. Master windows are always
/// finite — a master that never restarts is just a shorter run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MasterCrashWindow {
    /// First profiling interval (inclusive) during which the master is down.
    pub from_interval: u64,
    /// First interval past the crash (exclusive); the restart point.
    pub until_interval: u64,
}

/// A window of **virtual time** during which a set of nodes (the *island*) is
/// partitioned from the rest of the cluster. Any message whose endpoints straddle the
/// island boundary while `now_ns ∈ [from_ns, heal_ns)` is severed: one-way traffic is
/// counted as partitioned, synchronous round trips pay timeout+retransmit cycles until
/// the partition heals, and OAL batches crossing the cut are deferred (shipped after
/// the heal under the epoch they were closed in) or, if the partition never heals,
/// recorded as attributable loss. `heal_ns == None` means the partition is permanent.
///
/// Windows are keyed by virtual nanoseconds — the same clock that drives `Fabric`
/// charging and round deadlines — so a partition schedule is reproducible wherever the
/// schedule of the run itself is (i.e. under the deterministic executor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// The nodes on one side of the cut (the other side is everyone else). The master
    /// daemon's services live on [`NodeId::MASTER`] (node 0), so an island containing
    /// node 0 severs profiling traffic of every node outside it.
    pub island: Vec<NodeId>,
    /// Virtual nanosecond (inclusive) at which the partition begins.
    pub from_ns: u64,
    /// Virtual nanosecond (exclusive) at which the partition heals; `None` = never.
    pub heal_ns: Option<u64>,
}

impl PartitionWindow {
    /// True if this window severs the directed link `from -> to` at virtual `now_ns`:
    /// the window is active and exactly one endpoint is inside the island.
    #[inline]
    pub fn severs(&self, from: NodeId, to: NodeId, now_ns: u64) -> bool {
        now_ns >= self.from_ns
            && self.heal_ns.is_none_or(|h| now_ns < h)
            && (self.island.contains(&from) != self.island.contains(&to))
    }
}

/// A window of **virtual time** during which a node is merely *slow*, not dead — the
/// gray failure mode (an overloaded CPU, a flaky disk, a half-duplex NIC): every unit
/// of service time its threads charge while `now_ns ∈ [from_ns, until_ns)` is
/// multiplied by `factor`. The node keeps participating in the protocol — its OALs
/// still ship, just later — so failure detectors built on liveness never fire; only
/// latency-sensitive machinery (round deadlines, the master's straggler EWMAs) can
/// see it. Overlapping windows take the maximum factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowWindow {
    /// The slow node.
    pub node: NodeId,
    /// Virtual nanosecond (inclusive) at which the slowdown begins.
    pub from_ns: u64,
    /// Virtual nanosecond (exclusive) at which it ends; `None` = slow forever.
    pub until_ns: Option<u64>,
    /// Service-time multiplier (> 1); e.g. `3.0` makes the node 3× slower.
    pub factor: f64,
}

impl SlowWindow {
    /// True if this window slows `node` at virtual `now_ns`.
    #[inline]
    pub fn active(&self, node: NodeId, now_ns: u64) -> bool {
        self.node == node && now_ns >= self.from_ns && self.until_ns.is_none_or(|u| now_ns < u)
    }
}

/// A declarative, seedable schedule of network faults.
///
/// All probabilities are per message in `[0, 1]`. Only OAL batches are dropped at
/// random (`oal_drop`); any other message is lost only inside a stall window, and a
/// round trip is severed only by a partition.
///
/// ```
/// use jessy_net::FaultPlan;
/// let plan = FaultPlan { oal_drop: 0.10, ..FaultPlan::default() };
/// assert!(!plan.is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed feeding every per-message decision hash.
    pub seed: u64,
    /// Drop probability for [`MsgClass::OalBatch`] traffic (profiling batches), the
    /// one class the plan drops at random.
    pub oal_drop: f64,
    /// Probability that a delivered message is delivered twice.
    pub duplicate_prob: f64,
    /// Outbound-silence windows per node.
    pub stalls: Vec<StallWindow>,
    /// Crash-stop windows for worker nodes (process down, optional restart).
    pub node_crashes: Vec<CrashWindow>,
    /// Crash-restart windows for the master correlation daemon.
    pub master_crashes: Vec<MasterCrashWindow>,
    /// Network partition windows over virtual time (node islands, optional heal).
    pub partitions: Vec<PartitionWindow>,
    /// Gray-failure windows: per-node service-time multipliers over virtual time.
    pub slow: Vec<SlowWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED_CAFE,
            oal_drop: 0.0,
            duplicate_prob: 0.0,
            stalls: Vec::new(),
            node_crashes: Vec::new(),
            master_crashes: Vec::new(),
            partitions: Vec::new(),
            slow: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// True if this plan injects nothing: the injector takes a zero-cost path and the
    /// run is bit-identical to one without any plan at all.
    pub fn is_zero(&self) -> bool {
        self.oal_drop == 0.0
            && self.duplicate_prob == 0.0
            && self.stalls.is_empty()
            && self.node_crashes.is_empty()
            && self.master_crashes.is_empty()
            && self.partitions.is_empty()
            && self.slow.is_empty()
    }

    /// Check that every probability is a finite number in `[0, 1]` and every stall or
    /// crash window is non-empty, naming the offending node, field and value.
    pub fn validate(&self) -> Result<(), NetError> {
        let check = |name: &str, p: f64| -> Result<(), NetError> {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetError::InvalidFaultPlan(format!(
                    "{name} = {p} is not a probability in [0, 1]"
                )));
            }
            Ok(())
        };
        check("oal_drop", self.oal_drop)?;
        check("duplicate_prob", self.duplicate_prob)?;
        for w in &self.stalls {
            if w.end_msg <= w.start_msg {
                return Err(NetError::InvalidFaultPlan(format!(
                    "stall window on {}: end_msg {} <= start_msg {} (window is empty)",
                    w.node, w.end_msg, w.start_msg
                )));
            }
        }
        for w in &self.node_crashes {
            if let Some(until) = w.until_interval {
                if until <= w.from_interval {
                    return Err(NetError::InvalidFaultPlan(format!(
                        "crash window on {}: until_interval {} <= from_interval {} \
                         (window is empty)",
                        w.node, until, w.from_interval
                    )));
                }
            }
        }
        for w in &self.master_crashes {
            if w.until_interval <= w.from_interval {
                return Err(NetError::InvalidFaultPlan(format!(
                    "master crash window: until_interval {} <= from_interval {} \
                     (master windows must be finite and non-empty)",
                    w.until_interval, w.from_interval
                )));
            }
        }
        for (i, w) in self.partitions.iter().enumerate() {
            if w.island.is_empty() {
                return Err(NetError::InvalidFaultPlan(format!(
                    "partition window {i}: island is empty (severs nothing)"
                )));
            }
            if let Some(heal) = w.heal_ns {
                if heal <= w.from_ns {
                    return Err(NetError::InvalidFaultPlan(format!(
                        "partition window {i}: heal_ns {} <= from_ns {} (window is empty)",
                        heal, w.from_ns
                    )));
                }
            }
        }
        for w in &self.slow {
            if !w.factor.is_finite() || w.factor <= 1.0 {
                return Err(NetError::InvalidFaultPlan(format!(
                    "slow window on {}: factor {} must be a finite multiplier exceeding 1",
                    w.node, w.factor
                )));
            }
            if let Some(until) = w.until_ns {
                if until <= w.from_ns {
                    return Err(NetError::InvalidFaultPlan(format!(
                        "slow window on {}: until_ns {} <= from_ns {} (window is empty)",
                        w.node, until, w.from_ns
                    )));
                }
            }
        }
        Ok(())
    }

    /// Check that every node the plan names exists in a cluster of `n_nodes` nodes,
    /// naming the offending field and node. Split from [`validate`](Self::validate)
    /// because only the cluster builder (and the fabric) know the topology.
    pub fn validate_bounds(&self, n_nodes: usize) -> Result<(), NetError> {
        let check = |field: &str, node: NodeId| -> Result<(), NetError> {
            if node.index() >= n_nodes {
                return Err(NetError::InvalidFaultPlan(format!(
                    "{field}: node {node} is out of range for a {n_nodes}-node cluster"
                )));
            }
            Ok(())
        };
        for w in &self.stalls {
            check("stall window", w.node)?;
        }
        for w in &self.node_crashes {
            check("crash window", w.node)?;
        }
        for (i, w) in self.partitions.iter().enumerate() {
            for node in &w.island {
                check(&format!("partition window {i} island"), *node)?;
            }
        }
        for w in &self.slow {
            check("slow window", w.node)?;
        }
        Ok(())
    }

    /// True if any partition window severs the directed link `from -> to` at virtual
    /// `now_ns`. Pure function of the plan and the clock — no injector state.
    pub fn severed(&self, from: NodeId, to: NodeId, now_ns: u64) -> bool {
        !self.partitions.is_empty()
            && from != to
            && self.partitions.iter().any(|w| w.severs(from, to, now_ns))
    }

    /// The earliest virtual nanosecond at which **every** partition window severing
    /// `from -> to` at `now_ns` has healed, or `None` if one of them never heals.
    /// (`Some(now_ns)` if the link is not severed at all.)
    pub fn heal_at(&self, from: NodeId, to: NodeId, now_ns: u64) -> Option<u64> {
        let mut heal = now_ns;
        for w in &self.partitions {
            if w.severs(from, to, now_ns) {
                heal = heal.max(w.heal_ns?);
            }
        }
        Some(heal)
    }

    /// The service-time multiplier in force for `node` at virtual `now_ns`: the
    /// maximum factor over all active slow windows, or `1.0` when none applies.
    /// Pure function of the plan and the clock — no injector state.
    pub fn slow_factor_at(&self, node: NodeId, now_ns: u64) -> f64 {
        self.slow
            .iter()
            .filter(|w| w.active(node, now_ns))
            .fold(1.0f64, |acc, w| acc.max(w.factor))
    }

    /// True if worker node `node` is crashed while closing profiling interval
    /// `interval`. Pure function of the plan — no injector state involved.
    pub fn node_down_at(&self, node: NodeId, interval: u64) -> bool {
        self.node_crashes
            .iter()
            .any(|w| w.node == node && w.covers(interval))
    }

    /// How many distinct crash windows the plan schedules for `node`.
    pub fn crash_count(&self, node: NodeId) -> u32 {
        self.node_crashes.iter().filter(|w| w.node == node).count() as u32
    }

    /// The interval from which `node` is quarantined, given that nodes crashing more
    /// than `threshold` times are expelled: the start of its `(threshold + 1)`-th
    /// crash window (in `from_interval` order), or `None` if it never crosses the
    /// threshold. Pure function of the plan, so master and workers agree on it
    /// without extra protocol traffic.
    pub fn quarantine_from(&self, node: NodeId, threshold: u32) -> Option<u64> {
        let mut starts: Vec<u64> = self
            .node_crashes
            .iter()
            .filter(|w| w.node == node)
            .map(|w| w.from_interval)
            .collect();
        if starts.len() <= threshold as usize {
            return None;
        }
        starts.sort_unstable();
        Some(starts[threshold as usize])
    }
}

/// The outcome the injector decreed for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultDecision {
    /// The message is lost (never delivered / the round trip times out once).
    pub dropped: bool,
    /// The message is delivered twice.
    pub duplicated: bool,
}

impl FaultDecision {
    /// A decision injecting nothing.
    pub const CLEAN: FaultDecision = FaultDecision {
        dropped: false,
        duplicated: false,
    };
}

/// Counters of injected faults, snapshotted into [`crate::NetworkStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// One-way messages injected as lost.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Always 0: no fault delays a message any more. Kept because `RunReport`
    /// serializes these stats and the report digests hash them; it goes with the
    /// next intentional re-record.
    pub delayed: u64,
    /// Messages suppressed by a node stall window.
    pub stalled: u64,
    /// Timeout-and-retransmit cycles synchronous round trips paid inside partition
    /// windows.
    pub retransmits: u64,
    /// OAL batches never sent because the owning node was inside a crash window.
    pub crash_suppressed: u64,
    /// One-way messages severed by an active partition window.
    pub partitioned: u64,
    /// OAL batches deferred across a partition (shipped after the heal, or recorded
    /// as lost if the partition never heals).
    pub oals_deferred: u64,
}

impl FaultStats {
    /// True if nothing was injected.
    pub fn is_zero(&self) -> bool {
        *self == FaultStats::default()
    }
}

/// Deterministic fault oracle shared by the fabric and the lossy mailbox senders.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-(from, to, class) sequence numbers for sequence-keyed decisions.
    link_seq: Mutex<HashMap<(u16, u16, u8), u64>>,
    /// Per-node outbound message counters driving stall windows.
    node_seq: Mutex<HashMap<u16, u64>>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    stalled: AtomicU64,
    retransmits: AtomicU64,
    crash_suppressed: AtomicU64,
    partitioned: AtomicU64,
    oals_deferred: AtomicU64,
}

impl FaultInjector {
    /// Build an injector from a validated plan.
    pub fn new(plan: FaultPlan) -> Result<Self, NetError> {
        plan.validate()?;
        Ok(FaultInjector {
            plan,
            link_seq: Mutex::new(HashMap::new()),
            node_seq: Mutex::new(HashMap::new()),
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            crash_suppressed: AtomicU64::new(0),
            partitioned: AtomicU64::new(0),
            oals_deferred: AtomicU64::new(0),
        })
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if the plan injects nothing (fast path: skip all bookkeeping).
    pub fn is_zero(&self) -> bool {
        self.plan.is_zero()
    }

    /// True if worker node `node` is crashed while closing profiling interval
    /// `interval`. Pure delegation to the plan — derived, never drawn.
    #[inline]
    pub fn node_down_at(&self, node: NodeId, interval: u64) -> bool {
        !self.plan.node_crashes.is_empty() && self.plan.node_down_at(node, interval)
    }

    /// Record one OAL batch that was never sent because its node was crashed.
    pub fn note_crash_suppressed(&self) {
        self.crash_suppressed.fetch_add(1, Ordering::Relaxed);
    }

    /// True if a partition window severs the directed link `from -> to` at virtual
    /// `now_ns`. Pure delegation to the plan — derived, never drawn.
    #[inline]
    pub fn severed(&self, from: NodeId, to: NodeId, now_ns: u64) -> bool {
        self.plan.severed(from, to, now_ns)
    }

    /// Record one one-way message severed by a partition.
    pub fn note_partitioned(&self) {
        self.partitioned.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one OAL batch deferred across a partition.
    pub fn note_oal_deferred(&self) {
        self.oals_deferred.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` synchronous round-trip retransmissions (partition retry cycles).
    pub fn note_retransmits(&self, n: u64) {
        self.retransmits.fetch_add(n, Ordering::Relaxed);
    }

    /// Decide the fate of a message (one-way, or a round trip's request leg), keyed
    /// by this link+class's sequence number. Deterministic for any fixed per-link
    /// send order.
    pub fn decide(&self, from: NodeId, to: NodeId, class: MsgClass) -> FaultDecision {
        if self.is_zero() {
            return FaultDecision::CLEAN;
        }
        let seq = {
            let mut m = self.link_seq.lock();
            let c = m.entry((from.0, to.0, class as u8)).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        self.decide_inner(from, to, class, seq)
    }

    /// Decide the fate of a one-way message identified by a caller-supplied content
    /// key (see [`oal_fault_key`]). Bit-stable across runs regardless of scheduling.
    pub fn decide_keyed(&self, from: NodeId, to: NodeId, class: MsgClass, key: u64) -> FaultDecision {
        if self.is_zero() {
            return FaultDecision::CLEAN;
        }
        self.decide_inner(from, to, class, key)
    }

    fn decide_inner(&self, from: NodeId, to: NodeId, class: MsgClass, key: u64) -> FaultDecision {
        // Stall windows fire on the sending node's outbound message counter and
        // trump every probabilistic decision.
        if !self.plan.stalls.is_empty() {
            let n = {
                let mut m = self.node_seq.lock();
                let c = m.entry(from.0).or_insert(0);
                let s = *c;
                *c += 1;
                s
            };
            let stalled = self
                .plan
                .stalls
                .iter()
                .any(|w| w.node == from && (w.start_msg..w.end_msg).contains(&n));
            if stalled {
                self.stalled.fetch_add(1, Ordering::Relaxed);
                return FaultDecision {
                    dropped: true,
                    duplicated: false,
                };
            }
        }

        let p_drop = if class == MsgClass::OalBatch { self.plan.oal_drop } else { 0.0 };
        let mut d = FaultDecision::CLEAN;
        if p_drop > 0.0 && self.roll(from, to, class, key, SALT_DROP) < p_drop {
            d.dropped = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        if !d.dropped
            && self.plan.duplicate_prob > 0.0
            && self.roll(from, to, class, key, SALT_DUP) < self.plan.duplicate_prob
        {
            d.duplicated = true;
            self.duplicated.fetch_add(1, Ordering::Relaxed);
        }
        d
    }

    /// Uniform draw in `[0, 1)` as a pure function of the decision coordinates.
    fn roll(&self, from: NodeId, to: NodeId, class: MsgClass, key: u64, salt: u64) -> f64 {
        let mut h = self.plan.seed ^ salt;
        h = splitmix64(h ^ ((from.0 as u64) << 32 | to.0 as u64));
        h = splitmix64(h ^ (class as u64));
        h = splitmix64(h ^ key);
        // 53 high bits -> f64 in [0, 1).
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Snapshot of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: 0,
            stalled: self.stalled.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            crash_suppressed: self.crash_suppressed.load(Ordering::Relaxed),
            partitioned: self.partitioned.load(Ordering::Relaxed),
            oals_deferred: self.oals_deferred.load(Ordering::Relaxed),
        }
    }
}

const SALT_DROP: u64 = 0x9E37_79B9_7F4A_7C15;
const SALT_DUP: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Content key identifying an OAL batch: the `(thread, interval)` pair it closes.
/// Using content instead of arrival order makes OAL fault decisions independent of
/// thread scheduling, so a faulty run is reproducible end to end.
pub fn oal_fault_key(thread: ThreadId, interval: u64) -> u64 {
    splitmix64(((thread.0 as u64) << 32) ^ interval)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            oal_drop: 0.5,
            duplicate_prob: 0.2,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn zero_plan_is_clean_and_free() {
        let inj = FaultInjector::new(FaultPlan::default()).unwrap();
        assert!(inj.is_zero());
        for i in 0..100 {
            let d = inj.decide_keyed(NodeId(1), NodeId::MASTER, MsgClass::OalBatch, i);
            assert_eq!(d, FaultDecision::CLEAN);
        }
        assert!(inj.stats().is_zero());
        // The zero fast path must not even advance sequence state.
        assert!(inj.link_seq.lock().is_empty());
    }

    #[test]
    fn keyed_decisions_are_reproducible_and_order_independent() {
        let a = FaultInjector::new(lossy_plan()).unwrap();
        let b = FaultInjector::new(lossy_plan()).unwrap();
        let keys: Vec<u64> = (0..200).map(|i| oal_fault_key(ThreadId(i as u32 % 8), i / 8)).collect();
        let fwd: Vec<_> = keys
            .iter()
            .map(|k| a.decide_keyed(NodeId(1), NodeId::MASTER, MsgClass::OalBatch, *k))
            .collect();
        let rev: Vec<_> = keys
            .iter()
            .rev()
            .map(|k| b.decide_keyed(NodeId(1), NodeId::MASTER, MsgClass::OalBatch, *k))
            .collect();
        let mut rev = rev;
        rev.reverse();
        assert_eq!(fwd, rev);
        assert!(fwd.iter().any(|d| d.dropped), "p=0.5 over 200 draws");
        assert!(fwd.iter().any(|d| !d.dropped));
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let inj = FaultInjector::new(FaultPlan {
            oal_drop: 0.3,
            ..FaultPlan::default()
        })
        .unwrap();
        let n = 10_000u64;
        let dropped = (0..n)
            .filter(|i| {
                inj.decide_keyed(NodeId(2), NodeId::MASTER, MsgClass::OalBatch, *i)
                    .dropped
            })
            .count() as f64;
        let rate = dropped / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "empirical drop rate {rate}");
        assert_eq!(inj.stats().dropped, dropped as u64);
    }

    #[test]
    fn oal_drop_drops_oal_batches_only() {
        let inj = FaultInjector::new(FaultPlan {
            oal_drop: 1.0,
            ..FaultPlan::default()
        })
        .unwrap();
        for i in 0..20 {
            assert!(inj.decide_keyed(NodeId(3), NodeId::MASTER, MsgClass::OalBatch, i).dropped);
            for class in [MsgClass::ObjFetch, MsgClass::DiffUpdate, MsgClass::LockAcquire] {
                assert!(!inj.decide_keyed(NodeId(3), NodeId(1), class, i).dropped, "{class:?}");
                assert!(!inj.decide(NodeId(3), NodeId(1), class).dropped, "{class:?}");
            }
        }
        assert_eq!(inj.stats().dropped, 20);
    }

    #[test]
    fn stall_window_suppresses_outbound_traffic() {
        let inj = FaultInjector::new(FaultPlan {
            stalls: vec![StallWindow {
                node: NodeId(1),
                start_msg: 2,
                end_msg: 5,
            }],
            ..FaultPlan::default()
        })
        .unwrap();
        let fates: Vec<bool> = (0..8)
            .map(|_| inj.decide(NodeId(1), NodeId(0), MsgClass::OalBatch).dropped)
            .collect();
        assert_eq!(fates, vec![false, false, true, true, true, false, false, false]);
        assert_eq!(inj.stats().stalled, 3);
        // Another node is unaffected.
        assert!(!inj.decide(NodeId(2), NodeId(0), MsgClass::OalBatch).dropped);
    }

    #[test]
    fn duplicates_fire() {
        let inj = FaultInjector::new(FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        })
        .unwrap();
        let d = inj.decide_keyed(NodeId(1), NodeId(0), MsgClass::OalBatch, 9);
        assert!(d.duplicated);
        assert!(!d.dropped);
        assert_eq!(inj.stats().duplicated, 1);
    }

    #[test]
    fn validation_rejects_bad_probabilities_and_empty_stalls() {
        assert!(matches!(
            FaultPlan { oal_drop: 1.5, ..FaultPlan::default() }.validate(),
            Err(NetError::InvalidFaultPlan(_))
        ));
        assert!(matches!(
            FaultPlan { oal_drop: -0.1, ..FaultPlan::default() }.validate(),
            Err(NetError::InvalidFaultPlan(_))
        ));
        assert!(FaultInjector::new(FaultPlan {
            stalls: vec![StallWindow { node: NodeId(0), start_msg: 5, end_msg: 5 }],
            ..FaultPlan::default()
        })
        .is_err());
    }

    #[test]
    fn crash_windows_cover_their_intervals() {
        let plan = FaultPlan {
            node_crashes: vec![
                CrashWindow { node: NodeId(1), from_interval: 5, until_interval: Some(8) },
                CrashWindow { node: NodeId(2), from_interval: 3, until_interval: None },
            ],
            master_crashes: vec![MasterCrashWindow { from_interval: 10, until_interval: 12 }],
            ..FaultPlan::default()
        };
        assert!(!plan.is_zero());
        plan.validate().unwrap();

        // Node 1: down for [5, 8), back up at 8.
        assert!(!plan.node_down_at(NodeId(1), 4));
        assert!(plan.node_down_at(NodeId(1), 5));
        assert!(plan.node_down_at(NodeId(1), 7));
        assert!(!plan.node_down_at(NodeId(1), 8));
        // Node 2: crash-stop forever from 3.
        assert!(!plan.node_down_at(NodeId(2), 2));
        assert!(plan.node_down_at(NodeId(2), 3));
        assert!(plan.node_down_at(NodeId(2), 1_000_000));
        // Other nodes untouched.
        assert!(!plan.node_down_at(NodeId(3), 6));

        // Injector delegates and stays pure (no sequence state).
        let inj = FaultInjector::new(plan).unwrap();
        assert!(inj.node_down_at(NodeId(1), 6));
        assert!(!inj.node_down_at(NodeId(1), 8));
        assert!(inj.link_seq.lock().is_empty());
    }

    #[test]
    fn quarantine_threshold_counts_crash_windows_in_interval_order() {
        let w = |from: u64, until: u64| CrashWindow {
            node: NodeId(2),
            from_interval: from,
            until_interval: Some(until),
        };
        let plan = FaultPlan {
            // Deliberately out of order: quarantine must sort by from_interval.
            node_crashes: vec![w(20, 21), w(4, 5), w(11, 12)],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crash_count(NodeId(2)), 3);
        assert_eq!(plan.crash_count(NodeId(1)), 0);
        // Tolerate 2 crashes -> expelled at the start of the third (from = 20).
        assert_eq!(plan.quarantine_from(NodeId(2), 2), Some(20));
        assert_eq!(plan.quarantine_from(NodeId(2), 0), Some(4));
        assert_eq!(plan.quarantine_from(NodeId(2), 3), None);
        assert_eq!(plan.quarantine_from(NodeId(1), 0), None);
    }

    #[test]
    fn validation_names_offending_crash_windows() {
        let bad_node = FaultPlan {
            node_crashes: vec![CrashWindow {
                node: NodeId(7),
                from_interval: 9,
                until_interval: Some(9),
            }],
            ..FaultPlan::default()
        };
        match bad_node.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("n7"), "message must name the node: {msg}");
                assert!(msg.contains('9'), "message must name the value: {msg}");
                assert!(msg.contains("until_interval"), "message must name the field: {msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        let bad_master = FaultPlan {
            master_crashes: vec![MasterCrashWindow { from_interval: 4, until_interval: 2 }],
            ..FaultPlan::default()
        };
        match bad_master.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("master"), "{msg}");
                assert!(msg.contains("until_interval 2"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        let bad_stall = FaultPlan {
            stalls: vec![StallWindow { node: NodeId(3), start_msg: 6, end_msg: 6 }],
            ..FaultPlan::default()
        };
        match bad_stall.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("n3"), "{msg}");
                assert!(msg.contains("end_msg 6"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
    }

    #[test]
    fn slow_windows_multiply_service_time_only_while_active() {
        let plan = FaultPlan {
            slow: vec![
                SlowWindow { node: NodeId(1), from_ns: 100, until_ns: Some(200), factor: 3.0 },
                SlowWindow { node: NodeId(1), from_ns: 150, until_ns: Some(300), factor: 2.0 },
                SlowWindow { node: NodeId(2), from_ns: 0, until_ns: None, factor: 4.0 },
            ],
            ..FaultPlan::default()
        };
        assert!(!plan.is_zero());
        plan.validate().unwrap();
        plan.validate_bounds(3).unwrap();
        // Before, during (overlap takes the max), after.
        assert_eq!(plan.slow_factor_at(NodeId(1), 99), 1.0);
        assert_eq!(plan.slow_factor_at(NodeId(1), 100), 3.0);
        assert_eq!(plan.slow_factor_at(NodeId(1), 199), 3.0);
        assert_eq!(plan.slow_factor_at(NodeId(1), 200), 2.0);
        assert_eq!(plan.slow_factor_at(NodeId(1), 300), 1.0);
        // Permanent slowdown; other nodes untouched.
        assert_eq!(plan.slow_factor_at(NodeId(2), u64::MAX), 4.0);
        assert_eq!(plan.slow_factor_at(NodeId(0), 150), 1.0);
    }

    #[test]
    fn validation_names_offending_slow_windows() {
        let bad_factor = FaultPlan {
            slow: vec![SlowWindow { node: NodeId(4), from_ns: 0, until_ns: None, factor: 1.0 }],
            ..FaultPlan::default()
        };
        match bad_factor.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("n4"), "message must name the node: {msg}");
                assert!(msg.contains("factor 1"), "message must echo the value: {msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        for f in [f64::NAN, f64::INFINITY, 0.5, -2.0] {
            let p = FaultPlan {
                slow: vec![SlowWindow { node: NodeId(0), from_ns: 0, until_ns: None, factor: f }],
                ..FaultPlan::default()
            };
            assert!(p.validate().is_err(), "factor {f} must be rejected");
        }
        let empty_window = FaultPlan {
            slow: vec![SlowWindow { node: NodeId(2), from_ns: 9, until_ns: Some(9), factor: 2.0 }],
            ..FaultPlan::default()
        };
        match empty_window.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("until_ns 9"), "{msg}");
                assert!(msg.contains("from_ns 9"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        let out_of_range = FaultPlan {
            slow: vec![SlowWindow { node: NodeId(9), from_ns: 0, until_ns: None, factor: 2.0 }],
            ..FaultPlan::default()
        };
        assert!(out_of_range.validate().is_ok(), "bounds need the topology");
        match out_of_range.validate_bounds(4) {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("slow window"), "{msg}");
                assert!(msg.contains("n9"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
    }

    #[test]
    fn partition_windows_sever_only_across_the_island_boundary() {
        let plan = FaultPlan {
            partitions: vec![PartitionWindow {
                island: vec![NodeId(1), NodeId(2)],
                from_ns: 100,
                heal_ns: Some(200),
            }],
            ..FaultPlan::default()
        };
        assert!(!plan.is_zero());
        // Before, during, after.
        assert!(!plan.severed(NodeId(0), NodeId(1), 99));
        assert!(plan.severed(NodeId(0), NodeId(1), 100));
        assert!(plan.severed(NodeId(1), NodeId(0), 199));
        assert!(!plan.severed(NodeId(0), NodeId(1), 200));
        // Both endpoints on the same side pass through.
        assert!(!plan.severed(NodeId(1), NodeId(2), 150));
        assert!(!plan.severed(NodeId(0), NodeId(3), 150));
        assert!(!plan.severed(NodeId(1), NodeId(1), 150));
        // Heal horizon: the earliest time the cut is guaranteed gone.
        assert_eq!(plan.heal_at(NodeId(0), NodeId(1), 150), Some(200));
        assert_eq!(plan.heal_at(NodeId(0), NodeId(3), 150), Some(150));
        let permanent = FaultPlan {
            partitions: vec![PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 0,
                heal_ns: None,
            }],
            ..FaultPlan::default()
        };
        assert!(permanent.severed(NodeId(0), NodeId(1), u64::MAX));
        assert_eq!(permanent.heal_at(NodeId(0), NodeId(1), 5), None);
    }

    #[test]
    fn validation_names_offending_partition_windows() {
        let empty_island = FaultPlan {
            partitions: vec![PartitionWindow { island: vec![], from_ns: 0, heal_ns: None }],
            ..FaultPlan::default()
        };
        match empty_island.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("partition window 0"), "{msg}");
                assert!(msg.contains("island is empty"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        let empty_window = FaultPlan {
            partitions: vec![PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 50,
                heal_ns: Some(50),
            }],
            ..FaultPlan::default()
        };
        match empty_window.validate() {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("partition window 0"), "{msg}");
                assert!(msg.contains("heal_ns 50"), "{msg}");
                assert!(msg.contains("from_ns 50"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        let out_of_range = FaultPlan {
            partitions: vec![PartitionWindow {
                island: vec![NodeId(9)],
                from_ns: 0,
                heal_ns: None,
            }],
            ..FaultPlan::default()
        };
        assert!(out_of_range.validate().is_ok(), "bounds need the topology");
        match out_of_range.validate_bounds(4) {
            Err(NetError::InvalidFaultPlan(msg)) => {
                assert!(msg.contains("partition window 0 island"), "{msg}");
                assert!(msg.contains("n9"), "{msg}");
                assert!(msg.contains("4-node"), "{msg}");
            }
            other => panic!("expected InvalidFaultPlan, got {other:?}"),
        }
        let in_range = FaultPlan {
            partitions: vec![PartitionWindow {
                island: vec![NodeId(3)],
                from_ns: 0,
                heal_ns: Some(10),
            }],
            node_crashes: vec![CrashWindow {
                node: NodeId(2),
                from_interval: 1,
                until_interval: None,
            }],
            ..FaultPlan::default()
        };
        assert!(in_range.validate_bounds(4).is_ok());
        assert!(in_range.validate_bounds(2).is_err());
    }
}
