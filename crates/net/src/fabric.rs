//! The simulated interconnect.
//!
//! A [`Fabric`] joins `n_nodes` logical nodes. Sending a message does two things:
//!
//! 1. **Accounting** — the (class, bytes) pair is added to the per-class ledger, so
//!    benchmarks can report exact traffic volumes (Table III). Who talked to whom is
//!    in the journal: with a sink installed, every [`Fabric::send`] and
//!    [`Fabric::charge_round_trip`] emits one [`EventKind::MessageSent`] naming both
//!    ends (a round trip's event carries the bytes of both legs).
//! 2. **Time charging** — the sender's simulated clock is advanced by the
//!    [`LatencyModel`] cost. For synchronous request/response pairs (an object fault
//!    round-trip, a lock acquire) use [`Fabric::charge_round_trip`], which charges both
//!    directions at once; the actual data movement happens through shared memory in the
//!    caller (the simulation is in-process).
//!
//! Local (same-node) "messages" are free and unaccounted, like intra-JVM accesses in
//! the real system.
//!
//! A fabric built with [`Fabric::with_faults`] additionally consults a
//! [`FaultInjector`] on every send: one-way messages may be dropped (still accounted —
//! the wire carried them — but the receiver never sees them), duplicated (accounted
//! and charged twice); synchronous round trips never lose their reply — a request
//! lost to a stall window or a partition manifests as a timeout-plus-retransmission
//! penalty, so the lock-step protocol stays live.

use std::sync::Arc;

use jessy_obs::{EventKind, TraceSink};
use parking_lot::Mutex;

use crate::clock::{ClockHandle, SimNanos};
use crate::error::NetError;
use crate::fault::{FaultDecision, FaultInjector, FaultPlan, RETRANSMIT_TIMEOUT_NS};
use crate::ids::NodeId;
use crate::latency::LatencyModel;
use crate::message::MsgClass;
use crate::stats::NetworkStats;

/// Timeout+retransmit cycles a synchronous round trip spends inside a partition
/// window before backing off straight to the heal horizon. Bounds the virtual
/// time burned per severed round trip so protocol traffic can never wedge.
const MAX_PARTITION_RETRIES: u64 = 4;

/// The simulated cluster interconnect: pure accounting plus a latency model.
pub struct Fabric {
    n_nodes: usize,
    latency: LatencyModel,
    ledger: Mutex<NetworkStats>,
    injector: Option<Arc<FaultInjector>>,
    /// Journal for send/drop/duplicate/partition events; `None` (the default) emits
    /// nothing and costs one never-taken branch on the send paths.
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("n_nodes", &self.n_nodes)
            .field("latency", &self.latency)
            .field("faulty", &self.injector.is_some())
            .field("traced", &self.sink.is_some())
            .finish()
    }
}

impl Fabric {
    /// Create a fabric joining `n_nodes` nodes under the given latency model.
    pub fn new(n_nodes: usize, latency: LatencyModel) -> Result<Self, NetError> {
        if n_nodes == 0 {
            return Err(NetError::EmptyFabric);
        }
        Ok(Fabric {
            n_nodes,
            latency,
            ledger: Mutex::new(NetworkStats::new()),
            injector: None,
            sink: None,
        })
    }

    /// Create a fabric that injects faults according to `plan`. A plan with all
    /// probabilities zero behaves bit-identically to [`Fabric::new`].
    pub fn with_faults(
        n_nodes: usize,
        latency: LatencyModel,
        plan: FaultPlan,
    ) -> Result<Self, NetError> {
        let mut fabric = Fabric::new(n_nodes, latency)?;
        fabric.injector = Some(Arc::new(FaultInjector::new(plan)?));
        Ok(fabric)
    }

    /// Number of nodes joined by this fabric.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The latency model in force.
    pub fn latency_model(&self) -> LatencyModel {
        self.latency
    }

    /// The fault injector, if this fabric was built with one. Share it with
    /// [`crate::Mailbox::sender_with_faults`] so mailbox traffic obeys the same plan.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Install an event journal. Sends (and injected drops, duplicates and
    /// partition cuts) are emitted stamped with the sending thread's simulated
    /// clock.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Journal the outcome of one accounted transmission (no-op without a sink).
    fn trace_send(
        &self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        total_bytes: usize,
        decision: FaultDecision,
        clock: &ClockHandle,
    ) {
        let Some(sink) = &self.sink else { return };
        let (t, src) = (clock.now(), clock.thread().0);
        sink.emit(
            t,
            src,
            EventKind::MessageSent {
                from: from.0,
                to: to.0,
                class: class.label().to_string(),
                bytes: total_bytes as u64,
            },
        );
        if decision.dropped {
            sink.emit(
                t,
                src,
                EventKind::MessageDropped {
                    from: from.0,
                    to: to.0,
                    class: class.label().to_string(),
                },
            );
        }
        if decision.duplicated {
            sink.emit(
                t,
                src,
                EventKind::MessageDuplicated {
                    from: from.0,
                    to: to.0,
                    class: class.label().to_string(),
                },
            );
        }
    }

    /// Journal one message severed by a partition window (no-op without a sink).
    fn trace_partitioned(&self, from: NodeId, to: NodeId, class: MsgClass, clock: &ClockHandle) {
        let Some(sink) = &self.sink else { return };
        sink.emit(
            clock.now(),
            clock.thread().0,
            EventKind::MessagePartitioned {
                from: from.0,
                to: to.0,
                class: class.label().to_string(),
            },
        );
    }

    fn account(&self, class: MsgClass, total_bytes: u64) {
        self.ledger.lock().record(class, total_bytes);
    }

    /// Send a one-way message of `payload_bytes` from `from` to `to`.
    ///
    /// Returns the simulated one-way cost charged to `clock` (zero if `from == to`).
    /// Under a fault plan, a dropped message is still accounted and charged (the wire
    /// carried it; only the receiver misses it) and a duplicate is accounted and
    /// charged twice.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        class: MsgClass,
        payload_bytes: usize,
        clock: &ClockHandle,
    ) -> SimNanos {
        if from == to {
            return 0;
        }
        self.assert_node(from);
        self.assert_node(to);
        let total = payload_bytes + class.header_bytes();
        self.account(class, total as u64);
        let mut cost = self.latency.one_way_ns(total);
        let mut decision = FaultDecision::CLEAN;
        if let Some(inj) = &self.injector {
            // A partition window trumps every probabilistic decision: the wire
            // carried the sender's transmission into the cut, so the send is
            // still accounted and charged, but the receiver never sees it.
            if inj.severed(from, to, clock.now()) {
                inj.note_partitioned();
                clock.spend(cost);
                self.trace_send(from, to, class, total, FaultDecision::CLEAN, clock);
                self.trace_partitioned(from, to, class, clock);
                return cost;
            }
            let d = inj.decide(from, to, class);
            if d.duplicated {
                self.account(class, total as u64);
                cost += self.latency.one_way_ns(total);
            }
            decision = d;
        }
        clock.spend(cost);
        self.trace_send(from, to, class, total, decision, clock);
        cost
    }

    /// Charge a synchronous request/response round trip: a `req_class` message of
    /// `req_bytes` from `from` to `to`, answered by a `resp_class` message of
    /// `resp_bytes`. Both legs are accounted; the full round trip is charged to the
    /// requester's clock. Returns the total simulated cost (zero if `from == to`).
    ///
    /// Under a fault plan a request lost to a stall window does not stall the
    /// protocol: the requester pays a timeout ([`RETRANSMIT_TIMEOUT_NS`]) plus a
    /// second request transmission and the trip completes — counted in
    /// [`crate::fault::FaultStats::stalled`].
    #[allow(clippy::too_many_arguments)]
    pub fn charge_round_trip(
        &self,
        from: NodeId,
        to: NodeId,
        req_class: MsgClass,
        req_bytes: usize,
        resp_class: MsgClass,
        resp_bytes: usize,
        clock: &ClockHandle,
    ) -> SimNanos {
        if from == to {
            return 0;
        }
        self.assert_node(from);
        self.assert_node(to);
        let req_total = req_bytes + req_class.header_bytes();
        let resp_total = resp_bytes + resp_class.header_bytes();
        self.account(req_class, req_total as u64);
        self.account(resp_class, resp_total as u64);
        let mut cost = self.latency.round_trip_ns(req_total, resp_total);
        let mut decision = FaultDecision::CLEAN;
        let mut prepaid = 0;
        if let Some(inj) = &self.injector {
            // Partition: the requester times out and retransmits; each cycle
            // burns a timeout plus a request leg of virtual time, which
            // can carry the clock across the heal. If the cut outlives the
            // retry budget the requester backs off straight to the heal
            // horizon (synchronous protocol traffic must complete — only
            // asynchronous OAL traffic is actually lost to a partition), so
            // the protocol degrades in latency, never wedges.
            let mut retries = 0u64;
            let retry_from = clock.now();
            while retries < MAX_PARTITION_RETRIES && inj.severed(from, to, clock.now()) {
                // Spent immediately (not folded into `cost`) so the next
                // severed() check sees virtual time advancing.
                self.account(req_class, req_total as u64);
                clock.spend(RETRANSMIT_TIMEOUT_NS + self.latency.one_way_ns(req_total));
                retries += 1;
            }
            if retries > 0 {
                inj.note_retransmits(retries);
                if inj.severed(from, to, clock.now()) {
                    inj.note_partitioned();
                    if let Some(heal) = inj.plan().heal_at(from, to, clock.now()) {
                        clock.raise_to(heal);
                    }
                }
                self.trace_partitioned(from, to, req_class, clock);
                prepaid = clock.now() - retry_from;
            }
            let d = inj.decide(from, to, req_class);
            if d.dropped {
                // Timeout, then retransmit the request leg.
                self.account(req_class, req_total as u64);
                cost += RETRANSMIT_TIMEOUT_NS + self.latency.one_way_ns(req_total);
            } else if d.duplicated {
                // Spurious duplicate request; the home dedupes, the wire still paid.
                self.account(req_class, req_total as u64);
            }
            decision = d;
        }
        clock.spend(cost);
        self.trace_send(from, to, req_class, req_total + resp_total, decision, clock);
        cost + prepaid
    }

    /// Account a message without charging any clock — used for asynchronous traffic
    /// whose latency is hidden (e.g. OAL batches piggybacked on lock/barrier messages,
    /// Section II.A of the paper). Fault decisions for such traffic are made at the
    /// delivery point (the mailbox), not here, so a message is never judged twice.
    pub fn account_async(&self, from: NodeId, to: NodeId, class: MsgClass, payload_bytes: usize) {
        if from == to {
            return;
        }
        self.assert_node(from);
        self.assert_node(to);
        let total = payload_bytes + class.header_bytes();
        self.account(class, total as u64);
    }

    /// Snapshot of the per-class ledger, including injected-fault counters.
    pub fn stats(&self) -> NetworkStats {
        let mut s = self.ledger.lock().clone();
        if let Some(inj) = &self.injector {
            s.faults = inj.stats();
        }
        s
    }

    fn assert_node(&self, n: NodeId) {
        assert!(
            n.index() < self.n_nodes,
            "node {n} out of range (fabric has {} nodes)",
            self.n_nodes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockBoard;
    use crate::ids::ThreadId;
    use jessy_obs::JournalSink;

    fn clock() -> ClockHandle {
        ClockBoard::new(1).handle(ThreadId(0))
    }

    /// The `(from, to, class, bytes)` of every `MessageSent` in `sink`'s journal.
    fn sent(sink: &JournalSink) -> Vec<(u16, u16, String, u64)> {
        sink.sorted_events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::MessageSent { from, to, class, bytes } => Some((from, to, class, bytes)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn send_accounts_and_charges() {
        let mut f = Fabric::new(2, LatencyModel {
            base_ns: 100,
            ns_per_byte: 1.0,
        })
        .unwrap();
        let sink = JournalSink::shared();
        f.set_trace_sink(sink.clone());
        let c = clock();
        let cost = f.send(NodeId(0), NodeId(1), MsgClass::ObjFetch, 22, &c);
        let total = 22 + MsgClass::ObjFetch.header_bytes();
        assert_eq!(cost, 100 + total as u64);
        assert_eq!(c.now(), cost);
        let stats = f.stats();
        assert_eq!(stats.class(MsgClass::ObjFetch).messages, 1);
        assert_eq!(stats.class(MsgClass::ObjFetch).bytes, total as u64);
        assert_eq!(
            sent(&sink),
            [(0, 1, "obj-fetch".to_string(), total as u64)],
            "one message, from 0 to 1 only"
        );
    }

    #[test]
    fn local_send_is_free() {
        let f = Fabric::new(2, LatencyModel::fast_ethernet()).unwrap();
        let c = clock();
        assert_eq!(f.send(NodeId(1), NodeId(1), MsgClass::ObjData, 4096, &c), 0);
        assert_eq!(c.now(), 0);
        assert_eq!(f.stats().total_messages(), 0);
    }

    #[test]
    fn round_trip_accounts_both_legs() {
        let mut f = Fabric::new(3, LatencyModel::free()).unwrap();
        let sink = JournalSink::shared();
        f.set_trace_sink(sink.clone());
        let c = clock();
        f.charge_round_trip(
            NodeId(0),
            NodeId(2),
            MsgClass::ObjFetch,
            16,
            MsgClass::ObjData,
            1024,
            &c,
        );
        let s = f.stats();
        assert_eq!(s.class(MsgClass::ObjFetch).messages, 1);
        assert_eq!(s.class(MsgClass::ObjData).messages, 1);
        let (req, resp) = (16 + MsgClass::ObjFetch.header_bytes(), 1024 + MsgClass::ObjData.header_bytes());
        assert_eq!(
            sent(&sink),
            [(0, 2, "obj-fetch".to_string(), (req + resp) as u64)],
            "one journaled trip from the requester to the home, carrying both legs"
        );
    }

    #[test]
    fn async_accounting_does_not_touch_clock() {
        let f = Fabric::new(2, LatencyModel::fast_ethernet()).unwrap();
        f.account_async(NodeId(1), NodeId(0), MsgClass::OalBatch, 5_000);
        assert_eq!(f.stats().oal_bytes(), 5_000 + MsgClass::OalBatch.header_bytes() as u64);
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        assert_eq!(
            Fabric::new(0, LatencyModel::free()).err(),
            Some(NetError::EmptyFabric)
        );
        assert!(Fabric::with_faults(0, LatencyModel::free(), FaultPlan::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_node_panics() {
        let f = Fabric::new(2, LatencyModel::free()).unwrap();
        let c = clock();
        f.send(NodeId(0), NodeId(7), MsgClass::ObjFetch, 0, &c);
    }

    #[test]
    fn zero_fault_plan_is_bit_identical() {
        let lat = LatencyModel::fast_ethernet();
        let plain = Fabric::new(2, lat).unwrap();
        let faulty = Fabric::with_faults(2, lat, FaultPlan::default()).unwrap();
        let (c1, c2) = (clock(), clock());
        for (f, c) in [(&plain, &c1), (&faulty, &c2)] {
            f.send(NodeId(0), NodeId(1), MsgClass::DiffUpdate, 321, c);
            f.charge_round_trip(NodeId(1), NodeId(0), MsgClass::ObjFetch, 16, MsgClass::ObjData, 4096, c);
        }
        assert_eq!(plain.stats(), faulty.stats());
        assert_eq!(c1.now(), c2.now());
        assert!(faulty.stats().faults.is_zero());
    }

    #[test]
    fn stalled_round_trip_pays_a_retransmission() {
        let lat = LatencyModel {
            base_ns: 100,
            ns_per_byte: 0.0,
        };
        let plan = FaultPlan {
            stalls: vec![crate::fault::StallWindow { node: NodeId(0), start_msg: 0, end_msg: 1 }],
            ..FaultPlan::default()
        };
        let f = Fabric::with_faults(2, lat, plan).unwrap();
        let c = clock();
        let cost = f.charge_round_trip(
            NodeId(0),
            NodeId(1),
            MsgClass::LockAcquire,
            8,
            MsgClass::LockGrant,
            8,
            &c,
        );
        // Round trip (200) + timeout + retransmitted request (100).
        assert_eq!(cost, 200 + RETRANSMIT_TIMEOUT_NS + 100);
        let s = f.stats();
        assert_eq!(s.class(MsgClass::LockAcquire).messages, 2, "request sent twice");
        assert_eq!(s.class(MsgClass::LockGrant).messages, 1);
        assert_eq!(s.faults.stalled, 1);
    }

    #[test]
    fn duplicated_one_way_send_is_accounted_twice() {
        let lat = LatencyModel {
            base_ns: 50,
            ns_per_byte: 0.0,
        };
        let plan = FaultPlan {
            duplicate_prob: 1.0,
            ..FaultPlan::default()
        };
        let f = Fabric::with_faults(2, lat, plan).unwrap();
        let c = clock();
        let cost = f.send(NodeId(0), NodeId(1), MsgClass::WriteNotice, 0, &c);
        assert_eq!(cost, 100, "both transmissions charged");
        assert_eq!(f.stats().class(MsgClass::WriteNotice).messages, 2);
        assert_eq!(f.stats().faults.duplicated, 1);
    }

    #[test]
    fn partitioned_one_way_send_is_charged_but_counted_severed() {
        let lat = LatencyModel {
            base_ns: 100,
            ns_per_byte: 0.0,
        };
        let plan = FaultPlan {
            partitions: vec![crate::fault::PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 0,
                heal_ns: None,
            }],
            ..FaultPlan::default()
        };
        let f = Fabric::with_faults(2, lat, plan).unwrap();
        let c = clock();
        let cost = f.send(NodeId(0), NodeId(1), MsgClass::WriteNotice, 0, &c);
        assert_eq!(cost, 100, "the sender's transmission is still charged");
        assert_eq!(f.stats().class(MsgClass::WriteNotice).messages, 1);
        assert_eq!(f.stats().faults.partitioned, 1);
        assert_eq!(f.stats().faults.dropped, 0, "partition trumps the drop roll");
    }

    #[test]
    fn partitioned_round_trip_retries_across_the_heal() {
        let lat = LatencyModel {
            base_ns: 100,
            ns_per_byte: 0.0,
        };
        // Heals inside the first retry cycle (timeout + request leg 100).
        let plan = FaultPlan {
            partitions: vec![crate::fault::PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 0,
                heal_ns: Some(5_000),
            }],
            ..FaultPlan::default()
        };
        let f = Fabric::with_faults(2, lat, plan).unwrap();
        let c = clock();
        let cost = f.charge_round_trip(
            NodeId(0),
            NodeId(1),
            MsgClass::LockAcquire,
            8,
            MsgClass::LockGrant,
            8,
            &c,
        );
        // One retry cycle carries the clock past the heal at 5_000, then the
        // round trip completes normally (200).
        assert_eq!(cost, RETRANSMIT_TIMEOUT_NS + 100 + 200);
        assert_eq!(c.now(), cost);
        let s = f.stats();
        assert_eq!(s.faults.retransmits, 1);
        assert_eq!(s.faults.partitioned, 0, "the trip completed after the heal");
        assert_eq!(s.class(MsgClass::LockAcquire).messages, 2, "request sent twice");
        assert_eq!(s.class(MsgClass::LockGrant).messages, 1);
    }

    #[test]
    fn permanently_partitioned_round_trip_backs_off_but_completes() {
        let lat = LatencyModel {
            base_ns: 100,
            ns_per_byte: 0.0,
        };
        let plan = FaultPlan {
            partitions: vec![crate::fault::PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 0,
                heal_ns: None,
            }],
            ..FaultPlan::default()
        };
        let f = Fabric::with_faults(2, lat, plan).unwrap();
        let c = clock();
        let cost = f.charge_round_trip(
            NodeId(0),
            NodeId(1),
            MsgClass::ObjFetch,
            16,
            MsgClass::ObjData,
            1024,
            &c,
        );
        // Retry budget exhausted (4 cycles of timeout + request leg 100), then
        // the trip completes anyway: synchronous protocol traffic may not wedge.
        assert_eq!(cost, 4 * (RETRANSMIT_TIMEOUT_NS + 100) + 200);
        let s = f.stats();
        assert_eq!(s.faults.retransmits, 4);
        assert_eq!(s.faults.partitioned, 1);
    }
}
