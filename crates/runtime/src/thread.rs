//! The application-facing thread handle.
//!
//! A [`JThread`] is what workload code programs against — the equivalent of running
//! Java bytecode on one JESSICA2 thread. Every read/write goes through the GOS access
//! check (and from there to the profiler hooks); locks and barriers delimit HLRC
//! intervals; stack frames are maintained so the stack sampler has something real to
//! mine; `migrate_to` invokes the migration engine.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use jessy_core::{ShedPolicy, ThreadProfiler};
use jessy_gos::{
    AccessKind, AccessOutcome, ClassId, Gos, LockId, ObjectCore, ObjectId, ReadMember, Served,
    ThreadSpace,
};
use jessy_net::{ClockHandle, MsgClass, NodeId, ThreadId};
use jessy_obs::EventKind;
use jessy_stack::{JavaStack, MethodId, Slot};

use crate::cluster::ClusterShared;
use crate::master::EpochOal;
use crate::migration::MigrationReport;

/// One application thread's runtime handle.
pub struct JThread {
    shared: Arc<ClusterShared>,
    thread: ThreadId,
    node: NodeId,
    clock: ClockHandle,
    profiler: ThreadProfiler,
    /// The thread's single-writer access arena: the GOS takes it by `&mut`, so only
    /// this thread ever touches it. Checked out of [`ClusterShared`] on construction
    /// and parked back on drop (post-run inspection and re-adoption see its state).
    space: ThreadSpace,
    stack: JavaStack,
    /// Set while this thread's node is inside a crash window of the fault plan; the
    /// first interval shipped after the window triggers a rejoin handshake.
    node_was_down: bool,
    /// OAL batches held back because a partition window severed the path to the
    /// master when their interval closed: `(heal_ns, fault_key, batch)`. Flushed at
    /// the next ship point once the partition heals (`heal_ns == u64::MAX` =
    /// permanent; surfaced as lost at drop).
    deferred_oals: Vec<(u64, u64, EpochOal)>,
    /// Per-thread backpressure queue in front of the master's mailbox:
    /// `(fault_key, batch)` pairs waiting for mailbox space. Bounded by the same
    /// capacity as the mailbox — overflow sheds per the configured policy, every
    /// shed attributed. Empty between posts with an unbounded mailbox.
    pending_oals: VecDeque<(u64, EpochOal)>,
    /// True when the fault plan has any slow windows — gates the per-access
    /// service-time inflation so fault-free runs pay nothing for the feature.
    slow_gate: bool,
    /// Gap-table generation last re-synced against. When the coordinator
    /// changes a rate (accuracy step or budget rung), its resampling walk
    /// retags shared headers but cannot reach this thread's arena; at the next
    /// interval open the generation mismatch triggers a re-arm of resident
    /// sampled objects so their trap chains resume. Stays equal to the table
    /// (no walks, no cost) in runs that never change rates.
    rate_generation: u64,
    /// An action ran since the last scheduling point: its yield is owed, and
    /// paid (with the then-current clock) before this thread's next visible
    /// action. See [`JThread::yield_now`].
    owed_yield: bool,
}

impl JThread {
    /// Build the handle for `thread` (placed per the cluster's placement table).
    pub fn new(shared: Arc<ClusterShared>, thread: ThreadId) -> Self {
        let node = shared.node_of(thread);
        let clock = shared.board.handle(thread);
        let profiler = ThreadProfiler::new(Arc::clone(&shared.prof), thread);
        let space = shared.spaces[thread.index()]
            .lock()
            .take()
            .unwrap_or_else(|| ThreadSpace::new(thread));
        let slow_gate = shared
            .gos
            .fabric()
            .injector()
            .is_some_and(|inj| !inj.plan().slow.is_empty());
        let rate_generation = shared.prof.gaps().generation();
        JThread {
            shared,
            thread,
            node,
            clock,
            profiler,
            space,
            stack: JavaStack::new(),
            node_was_down: false,
            deferred_oals: Vec::new(),
            pending_oals: VecDeque::new(),
            slow_gate,
            rate_generation,
            owed_yield: false,
        }
    }

    /// Cooperative scheduling point: when this thread runs as a task of the
    /// deterministic executor, report the simulated clock and let the scheduler
    /// hand the token to the task with the earliest virtual time. A no-op on
    /// non-task threads (adopted handles, unit tests).
    ///
    /// The schedule contract (DESIGN.md §15): an action is *visible* when
    /// another task could observe it, and every visible action is *preceded*
    /// by a scheduling point carrying the clock the thread has reached; no
    /// scheduling point follows an action. Accesses and `compute` calls only
    /// *owe* their yield; the next visible action pays it first. *Private*
    /// actions — an access that hits a valid cache copy in this thread's own
    /// arena or the home entry of an object only this thread holds an entry
    /// for (it touched the object first and nobody has since:
    /// `ObjectCore::arrive`), a live armed trap on either included, and every
    /// `compute` call (it touches nothing another task can see) — pay nothing
    /// and leave the yield owed. Visible actions therefore interleave across
    /// threads in virtual-time order exactly as if every action yielded, while
    /// private work, a compute-only stretch included, passes without a
    /// hand-off.
    /// Calling this from a driver loop is itself a visible action — but not
    /// one at which a rate change reaches this thread: the profiler's
    /// sampling view is refreshed before visible *accesses* and at interval
    /// opens, which every schedule of a program shares, and never here. An
    /// explicit yield exists in one schedule and not in another; rates picked
    /// up at it would make a private trap that follows log differently in
    /// the two.
    pub fn yield_now(&mut self) {
        self.owed_yield = false;
        self.shared
            .exec
            .yield_now(self.thread.index(), self.clock.now());
    }

    /// Pay the owed yield, if any: the scheduling point that must precede a
    /// visible action.
    #[inline]
    fn pay_owed_yield(&mut self) {
        if self.owed_yield {
            self.yield_now();
        }
    }

    /// This thread's id.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// The node currently hosting this thread.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The simulated clock.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// The GOS. Driver code that reads shared structures through it directly
    /// (object reference lists, say) bypasses the access path and with it the
    /// schedule contract of [`JThread::yield_now`]: such reads must be ordered
    /// against their writers by a barrier or lock, as every bundled workload's
    /// are. Reference lists are *written* through [`JThread::add_ref`] and
    /// [`JThread::set_refs`], which take the scheduling point and publish the
    /// targets.
    pub fn gos(&self) -> &Gos {
        &self.shared.gos
    }

    /// The thread's profiler (for reading invariants/footprints in tests).
    pub fn profiler(&self) -> &ThreadProfiler {
        &self.profiler
    }

    /// The thread's access arena (diagnostics: populated count, access states).
    pub fn space(&self) -> &ThreadSpace {
        &self.space
    }

    /// Cluster-shared state. The caveat on [`JThread::gos`] applies: direct
    /// reads of mutable shared state must be barrier- or lock-ordered.
    pub fn shared(&self) -> &Arc<ClusterShared> {
        &self.shared
    }

    fn post_access(&mut self, out: &AccessOutcome) {
        self.profiler
            .on_access(&self.shared.gos, &mut self.space, out, &self.clock);
        self.profiler
            .maybe_footprint_probe(&mut self.space, &self.clock);
        self.profiler
            .maybe_stack_sample(&self.shared.gos, &mut self.stack, &self.clock);
    }

    /// Gray-failure model: inflate the service time just charged (since `t0`)
    /// by the fault plan's slow-window factor for this node. A slow node does
    /// the same work, slower — the virtual clock stretches, nothing is lost or
    /// reordered beyond what the stretched timestamps imply.
    fn charge_slow(&mut self, t0: u64) {
        if !self.slow_gate {
            return;
        }
        let now = self.clock.now();
        if now <= t0 {
            return;
        }
        if let Some(inj) = self.shared.gos.fabric().injector() {
            let factor = inj.plan().slow_factor_at(self.node, t0);
            if factor > 1.0 {
                self.clock
                    .spend(((now - t0) as f64 * (factor - 1.0)).round() as u64);
            }
        }
    }

    /// Open an access to `obj`: pay the owed yield first unless the access is
    /// private (see [`JThread::yield_now`]) — a hit on a usable cache copy
    /// touches this thread's arena only, and a hit on the home entry of an
    /// object nobody else holds an entry for touches a payload no other task
    /// has fetched or flushes into. A live armed trap on either is private
    /// too: it logs from the profiler's sampling view, this thread's own
    /// copy of the class rates. Every other home hit is visible (fetches
    /// read and diff flushes write the home payload), as are first touches —
    /// one of which is how a second holder arrives — and faults (they reach
    /// the fabric). A visible access is also where a rate change reaches
    /// this thread: the view is brought up to the live gap table right after
    /// the scheduling point (one generation load and compare when nothing
    /// changed).
    #[inline]
    fn begin_access(&mut self, obj: ObjectId) {
        if !self.is_private(obj) {
            self.begin_visible_access();
        }
    }

    /// Would an access to `obj` be private ([`JThread::begin_access`])?
    #[inline]
    fn is_private(&self, obj: ObjectId) -> bool {
        self.space
            .is_private_hit(obj, || self.shared.gos.is_local_to(obj, self.thread))
    }

    /// The scheduling point before a visible access, and the rate refresh.
    #[inline]
    fn begin_visible_access(&mut self) {
        self.pay_owed_yield();
        self.profiler.sync_view();
    }

    /// Close an access checked at `t0`: the profiler's hooks, the slow-node
    /// charge, and the yield owed to the next visible action.
    #[inline]
    fn end_access(&mut self, out: &AccessOutcome, t0: u64) {
        self.post_access(out);
        self.charge_slow(t0);
        self.owed_yield = true;
    }

    /// Read access: run `f` over the object's payload. Preceded by a
    /// scheduling point unless the access is private; its own yield is owed.
    pub fn read<R>(&mut self, obj: ObjectId, f: impl FnOnce(&[f64]) -> R) -> R {
        self.begin_access(obj);
        let t0 = self.clock.now();
        let (r, out) = self
            .shared
            .gos
            .read(&mut self.space, self.node, obj, &self.clock, f);
        self.end_access(&out, t0);
        r
    }

    /// Write access: run `f` over the mutable payload. Preceded by a
    /// scheduling point unless the access is private; its own yield is owed.
    pub fn write<R>(&mut self, obj: ObjectId, f: impl FnOnce(&mut [f64]) -> R) -> R {
        self.begin_access(obj);
        let t0 = self.clock.now();
        let (r, out) = self
            .shared
            .gos
            .write(&mut self.space, self.node, obj, &self.clock, f);
        self.end_access(&out, t0);
        r
    }

    /// Group access: read each of `reads` in order, then write `target`, and
    /// run `f` once over the target's payload and the read members', borrowed
    /// in place — no copy of a payload `f` only reads.
    ///
    /// Everything but the borrow is exactly the sequence `read(reads[0])`, …,
    /// `write(target)`: the same scheduling points, clock charges, profiler
    /// hooks, counters, journal events and slow-node charges, in the same
    /// order, with `f` run right after the target's check, where that
    /// `write` would run its closure. Each read member yields what a snapshot
    /// taken at its own check would have held (DESIGN.md §15): a cache copy in
    /// this thread's arena changes only at this thread's barriers and locks,
    /// and a home payload, which another task may write at a scheduling
    /// point, is copied before the first scheduling point that falls between
    /// its check and `f`.
    ///
    /// Panics, naming the object, if a member appears twice.
    pub fn update<const N: usize, R>(
        &mut self,
        target: ObjectId,
        reads: [ObjectId; N],
        f: impl FnOnce(&mut [f64], [&[f64]; N]) -> R,
    ) -> R {
        for (i, &obj) in reads.iter().enumerate() {
            assert!(
                obj != target && !reads[..i].contains(&obj),
                "update: {obj} appears twice in one group access"
            );
        }
        let mut served = [Served::Arena; N];
        let mut copies: [Option<Vec<f64>>; N] = std::array::from_fn(|_| None);
        for i in 0..N {
            self.begin_member(reads[i], &reads[..i], &served[..i], &mut copies[..i]);
            let t0 = self.clock.now();
            let (out, at) = self.shared.gos.check(
                &mut self.space,
                self.node,
                reads[i],
                AccessKind::Read,
                &self.clock,
            );
            served[i] = at;
            self.end_access(&out, t0);
        }
        self.begin_member(target, &reads, &served, &mut copies);
        let t0 = self.clock.now();
        let gos = &self.shared.gos;
        let (out, at) = gos.check(
            &mut self.space,
            self.node,
            target,
            AccessKind::Write,
            &self.clock,
        );
        let members = std::array::from_fn(|i| match &copies[i] {
            Some(copy) => ReadMember::Copied(copy),
            None => ReadMember::InPlace(reads[i], served[i]),
        });
        let r = gos.with_group(&mut self.space, target, at, members, f);
        self.end_access(&out, t0);
        r
    }

    /// Open the access to a group member `obj`, after the members `checked`
    /// (served at `served`). A scheduling point here falls between their
    /// checks and the group's closure, so each home-served one not yet copied
    /// is copied first, as its check left it.
    fn begin_member(
        &mut self,
        obj: ObjectId,
        checked: &[ObjectId],
        served: &[Served],
        copies: &mut [Option<Vec<f64>>],
    ) {
        if self.is_private(obj) {
            return;
        }
        if self.owed_yield {
            for ((&member, &at), copy) in checked.iter().zip(served).zip(copies) {
                if at == Served::Home && copy.is_none() {
                    *copy = Some(self.shared.gos.object_ref(member).snapshot_home());
                }
            }
        }
        self.begin_visible_access();
    }

    /// Charge `units` of application compute to the simulated clock. Always
    /// private: it touches nothing another task can see, so it only owes its
    /// yield, and the next visible action pays it at the clock reached here.
    pub fn compute(&mut self, units: u64) {
        let t0 = self.clock.now();
        self.clock
            .spend(units * self.shared.gos.costs().compute_unit_ns);
        self.charge_slow(t0);
        self.owed_yield = true;
    }

    /// Allocate a zeroed scalar at this thread's node (a visible action: it
    /// draws from the global object table and the class's sequence numbers).
    /// The object starts *unclaimed*, like every object: allocating marks
    /// nothing. This thread's first touch (visible) claims it, and from then
    /// until it is published ([`JThread::add_ref`] / [`JThread::set_refs`]
    /// target), touched by another thread or re-homed, hits on its home entry
    /// are private. Handing its id to another thread by any other route, with
    /// no lock or barrier before that thread's first touch, is a race on the
    /// first share: still replayed bit for bit, but ordered by where this
    /// thread's lookahead stood, not by virtual time.
    pub fn alloc_scalar(&mut self, class: ClassId) -> Arc<ObjectCore> {
        self.pay_owed_yield();
        let core = self
            .shared
            .gos
            .alloc_scalar(self.node, class, &self.clock, None);
        self.adopt_new_object(core)
    }

    /// Allocate a zeroed array at this thread's node (a visible action;
    /// unclaimed until first touched, like [`JThread::alloc_scalar`]).
    pub fn alloc_array(&mut self, class: ClassId, len_elems: u32) -> Arc<ObjectCore> {
        self.pay_owed_yield();
        let core = self
            .shared
            .gos
            .alloc_array(self.node, class, len_elems, &self.clock, None);
        self.adopt_new_object(core)
    }

    /// Sampling tag of an object this thread just allocated.
    fn adopt_new_object(&self, core: Arc<ObjectCore>) -> Arc<ObjectCore> {
        self.shared.prof.tag_new_object(&core);
        core
    }

    /// Add a reference edge in the object graph (a visible action: the edge
    /// list is shared, and the edge publishes `to` — it is shared from here
    /// on, whoever held it).
    pub fn add_ref(&mut self, from: ObjectId, to: ObjectId) {
        self.pay_owed_yield();
        self.shared.gos.add_ref(from, to);
    }

    /// Replace `from`'s reference list (a visible action that publishes every
    /// target, like [`JThread::add_ref`]).
    pub fn set_refs(&mut self, from: ObjectId, targets: Vec<ObjectId>) {
        self.pay_owed_yield();
        self.shared.gos.set_refs(from, targets);
    }

    // ------------------------------------------------------------------ sync points

    /// Ship any deferred OAL batches whose partition has healed. Wire accounting
    /// happens here, not at deferral time — the bytes cross the fabric now.
    fn flush_deferred_oals(&mut self) {
        if self.deferred_oals.is_empty() {
            return;
        }
        let now = self.clock.now();
        if let Some(inj) = self.shared.gos.fabric().injector() {
            if inj.severed(self.node, NodeId::MASTER, now) {
                return;
            }
        }
        let mut kept = Vec::new();
        for (heal, key, env) in std::mem::take(&mut self.deferred_oals) {
            if heal > now {
                kept.push((heal, key, env));
                continue;
            }
            self.ship_oal(key, env);
        }
        self.deferred_oals = kept;
    }

    /// Record a `(thread, interval)` whose OAL never reached the master because
    /// the mailbox was gone (`RunReport::lost_oals`).
    fn record_lost(&mut self, interval: u64) {
        self.shared.lost_oals.lock().push((self.thread.0, interval));
        self.shared.emit_event(
            &self.clock,
            EventKind::OalPostFailed {
                thread: self.thread.0,
                interval,
            },
        );
    }

    /// Attribute one shed batch: record the interval and policy (coverage
    /// proration and the per-policy counts derive from it), and journal the
    /// event. Sheds are never silent.
    fn record_shed(&mut self, interval: u64, policy: ShedPolicy) {
        self.shared
            .shed_oals
            .lock()
            .push((self.thread.0, interval, policy));
        self.shared.emit_event(
            &self.clock,
            EventKind::OalShed {
                thread: self.thread.0,
                interval,
                policy: policy.label().to_string(),
            },
        );
    }

    /// Shed one batch from the head of the pending queue per the configured
    /// policy. Deterministic: the decision depends only on queue state. The
    /// merging policies fold the two oldest batches into one (the older
    /// interval's identity is shed, its entries ride the younger batch), so
    /// bytes survive at the cost of interval-attribution precision.
    fn shed_one(&mut self) {
        let policy = self.shared.prof.config().shed_policy;
        match policy {
            ShedPolicy::DropOldestRound => {
                let (_, env) = self.pending_oals.pop_front().expect("shed_one on empty queue");
                self.record_shed(env.oal.interval, policy);
            }
            ShedPolicy::MergeBatches | ShedPolicy::SummaryOnly => {
                let (_, old) = self.pending_oals.pop_front().expect("shed_one on empty queue");
                let (key, mut young) = self
                    .pending_oals
                    .pop_front()
                    .expect("merge policies need two queued batches");
                let shed_interval = old.oal.interval;
                let mut entries = old.oal.entries;
                entries.extend(young.oal.entries);
                young.oal.entries = entries;
                if policy == ShedPolicy::SummaryOnly {
                    young.oal = young.oal.summarize();
                }
                self.pending_oals.push_front((key, young));
                self.record_shed(shed_interval, policy);
            }
        }
    }

    /// Drain the pending queue into the mailbox: shed down to the capacity bound
    /// first, then post until the mailbox fills (backpressure — the rest waits
    /// here for the master to drain). An unbounded mailbox never sheds or fills,
    /// so every batch is posted at once.
    fn drain_pending(&mut self) {
        let cap = self.shared.oal_tx.capacity().unwrap_or(usize::MAX);
        loop {
            // The per-thread queue honours the same bound as the mailbox, so
            // total OAL memory is O(capacity · threads) whatever the load.
            while self.pending_oals.len() > cap {
                self.shed_one();
            }
            if self.pending_oals.is_empty() {
                return;
            }
            if self.shared.oal_tx.is_full() {
                // Wake the master to drain; batches wait under backpressure.
                self.shared.exec.unblock(self.shared.master_task());
                return;
            }
            let (key, env) = self.pending_oals.pop_front().expect("checked non-empty");
            let interval = env.oal.interval;
            match self.shared.oal_tx.try_post_keyed(self.node, key, env) {
                Ok(_) => self.shared.exec.unblock(self.shared.master_task()),
                Err(jessy_net::NetError::MailboxFull { .. }) => {
                    // Unreachable while only executor tasks post: no other
                    // producer runs between the `is_full` check and this post.
                    // Were it reached, the batch is consumed — attribute it
                    // like a drop.
                    self.record_shed(interval, ShedPolicy::DropOldestRound);
                    self.shared.exec.unblock(self.shared.master_task());
                    return;
                }
                Err(_) => self.record_lost(interval),
            }
        }
    }

    /// Ship one epoch-stamped batch toward the master: charge its `OalBatch`
    /// wire trip, then post it through the per-thread backpressure queue (it may
    /// shed per policy when the mailbox is bounded; a failed post means the
    /// mailbox is gone — counted, never fatal).
    ///
    /// The jumbo OAL message piggybacks on the sync message already headed to the
    /// master (Section II.A), so the sender pays only the transmit occupancy of the
    /// extra bytes, not another base latency.
    fn ship_oal(&mut self, key: u64, env: EpochOal) {
        let fabric = self.shared.gos.fabric();
        let bytes = env.oal.wire_bytes();
        fabric.account_async(self.node, NodeId::MASTER, MsgClass::OalBatch, bytes);
        if self.node != NodeId::MASTER {
            let total = bytes + MsgClass::OalBatch.header_bytes();
            self.clock.spend((total as f64 * fabric.latency_model().ns_per_byte) as u64);
        }
        self.pending_oals.push_back((key, env));
        self.drain_pending();
    }

    fn close_and_ship_oal(&mut self) {
        self.flush_deferred_oals();
        if self.shared.prof.config().footprint.is_some() {
            // Publish the averaged sticky footprint so the balancer can price a
            // migration of this thread (Section III.A: "a load balancing policy that
            // weighs the gain ... against the messaging cost proportional to such a
            // footprint").
            let total: f64 = self.profiler.average_footprint().values().sum();
            self.shared.footprints.write()[self.thread.index()] = total;
        }
        if let Some(oal) = self.profiler.close_interval() {
            self.shared.emit_event(
                &self.clock,
                EventKind::IntervalClosed {
                    thread: self.thread.0,
                    interval: oal.interval,
                    entries: oal.entries.len() as u64,
                },
            );
            // Budget ladder's last data-bearing rung: ship per-class summaries
            // instead of per-object entries, cutting wire bytes at the cost of
            // object identity. Off (and free) unless the ladder engaged it.
            let oal = if self.shared.prof.summary_only() {
                oal.summarize()
            } else {
                oal
            };
            if self.shared.prof.config().mode.ships() {
                let fabric = self.shared.gos.fabric();
                // Crash-stop model (DESIGN.md §12): while this thread's node sits in
                // a crash window, the profiling pipeline on that node is down — the
                // interval's OAL is neither accounted nor posted. The *application*
                // execution is unaffected, mirroring how PR 1 models stalls: failures
                // degrade the profile, never the workload.
                if let Some(inj) = fabric.injector() {
                    if inj.node_down_at(self.node, oal.interval) {
                        inj.note_crash_suppressed();
                        self.node_was_down = true;
                        self.shared.emit_event(
                            &self.clock,
                            EventKind::CrashSuppressed {
                                node: self.node.0,
                                thread: self.thread.0,
                                interval: oal.interval,
                            },
                        );
                        return;
                    }
                    if self.node_was_down {
                        self.node_was_down = false;
                        // Rejoin handshake: re-registration request plus the master's
                        // reply carrying the current epoch and class rate table.
                        fabric.account_async(self.node, NodeId::MASTER, MsgClass::Rejoin, 24);
                        fabric.account_async(NodeId::MASTER, self.node, MsgClass::Rejoin, 64);
                        self.shared.rejoins.fetch_add(1, Ordering::Relaxed);
                        self.shared.emit_event(
                            &self.clock,
                            EventKind::NodeRejoined {
                                node: self.node.0,
                                thread: self.thread.0,
                                epoch: self.shared.master_epoch.load(Ordering::Acquire),
                            },
                        );
                    }
                    // Partition window: the path to the master is severed. The batch
                    // is *deferred, not dropped* — the node's send queue holds it
                    // until the partition heals (permanent partitions surface the
                    // loss at thread drop). Nothing is accounted yet: no bytes cross
                    // the cut.
                    let now = self.clock.now();
                    if inj.severed(self.node, NodeId::MASTER, now) {
                        let heal = inj
                            .plan()
                            .heal_at(self.node, NodeId::MASTER, now)
                            .unwrap_or(u64::MAX);
                        inj.note_oal_deferred();
                        self.shared.emit_event(
                            &self.clock,
                            EventKind::OalDeferred {
                                thread: self.thread.0,
                                interval: oal.interval,
                                heal_ns: heal,
                            },
                        );
                        let key = jessy_net::oal_fault_key(oal.thread, oal.interval);
                        let env = EpochOal {
                            epoch: self.shared.master_epoch.load(Ordering::Acquire),
                            oal,
                        };
                        self.deferred_oals.push((heal, key, env));
                        return;
                    }
                }
                let key = jessy_net::oal_fault_key(oal.thread, oal.interval);
                let oal = EpochOal {
                    epoch: self.shared.master_epoch.load(Ordering::Acquire),
                    oal,
                };
                self.ship_oal(key, oal);
            }
        }
    }

    /// Enter the global barrier (an interval boundary: the current interval closes,
    /// its OAL ships, and the next interval opens with false-invalid traps armed).
    /// Barriers are also the safe points where dynamic-balancer migration directives
    /// are honoured.
    pub fn barrier(&mut self) {
        self.pay_owed_yield();
        self.close_and_ship_oal();
        self.shared
            .gos
            .barrier_wait(&mut self.space, self.node, self.shared.n_threads, &self.clock);
        self.profiler.open_interval(&mut self.space);
        self.resync_sampling();
        self.emit_interval_opened();
        self.honour_directive();
    }

    /// Re-arm trap chains after a coordinator rate change (see the
    /// `rate_generation` field). Runs at interval opens only, so an unchanged
    /// generation costs one atomic load on the boundary path and nothing on
    /// the access path.
    fn resync_sampling(&mut self) {
        let generation = self.shared.prof.gaps().generation();
        if generation == self.rate_generation {
            return;
        }
        self.rate_generation = generation;
        let armed = self.shared.gos.rearm_sampled(&mut self.space, &self.clock);
        self.profiler.record_fi_armed(armed as u64);
    }

    fn emit_interval_opened(&mut self) {
        self.shared.emit_event(
            &self.clock,
            EventKind::IntervalOpened {
                thread: self.thread.0,
                interval: self.profiler.interval(),
            },
        );
    }

    fn honour_directive(&mut self) {
        let Some(rebalance) = self.shared.rebalance else {
            return;
        };
        let directive = self.shared.directives.write()[self.thread.index()].take();
        if let Some(d) = directive {
            let current_epoch = self.shared.master_epoch.load(Ordering::Acquire);
            if d.epoch != current_epoch {
                // The plan predates a master restore: like a stale OAL batch, it
                // describes a world that no longer exists. Drop it attributably —
                // the next planning epoch will re-derive any still-profitable move.
                self.shared.fenced_directives.fetch_add(1, Ordering::Relaxed);
                self.shared.emit_event(
                    &self.clock,
                    EventKind::DirectiveFenced {
                        thread: self.thread.0,
                        directive_epoch: d.epoch,
                        current_epoch,
                    },
                );
                return;
            }
            if d.dest != self.node {
                let report = self.migrate_to(d.dest, rebalance.with_prefetch);
                self.shared.emit_event(
                    &self.clock,
                    EventKind::MigrationApplied {
                        thread: self.thread.0,
                        from: report.from.0,
                        to: report.to.0,
                        epoch: current_epoch,
                        bytes: report.total_bytes() as u64,
                    },
                );
                self.shared.migration_log.lock().push(report);
            }
        }
    }

    /// Acquire a distributed lock (interval boundary).
    pub fn lock(&mut self, lock: LockId) {
        self.pay_owed_yield();
        self.close_and_ship_oal();
        self.shared
            .gos
            .lock_acquire(&mut self.space, lock, self.node, &self.clock);
        self.profiler.open_interval(&mut self.space);
        self.resync_sampling();
        self.emit_interval_opened();
    }

    /// Release a distributed lock (interval boundary).
    pub fn unlock(&mut self, lock: LockId) {
        self.pay_owed_yield();
        self.close_and_ship_oal();
        self.shared
            .gos
            .lock_release(&mut self.space, lock, self.node, &self.clock);
        self.profiler.open_interval(&mut self.space);
        self.resync_sampling();
        self.emit_interval_opened();
    }

    // ------------------------------------------------------------------ Java stack

    /// Push a stack frame (method call).
    pub fn push_frame(&mut self, method: MethodId) {
        self.stack.push(method, &self.shared.methods);
    }

    /// Pop the top frame (method return).
    pub fn pop_frame(&mut self) {
        self.stack.pop();
    }

    /// Store an object reference into a slot of the current frame.
    pub fn set_local_ref(&mut self, slot: usize, obj: ObjectId) {
        self.stack.set_local(slot, Slot::Ref(obj));
    }

    /// The Java stack (diagnostics).
    pub fn stack(&self) -> &JavaStack {
        &self.stack
    }

    // ------------------------------------------------------------------ migration

    /// Migrate this thread to `dest`, optionally prefetching its resolved sticky set
    /// along with the context (Section III). Returns what moved. Homes stay put:
    /// the placement engine lands threads on the nodes that home their data, and
    /// the master's home repair moves the rest.
    pub fn migrate_to(&mut self, dest: NodeId, with_prefetch: bool) -> MigrationReport {
        self.pay_owed_yield();
        let src = self.node;
        let t0 = self.clock.now();
        let ctx_bytes = self.stack.context_bytes();
        self.shared
            .gos
            .fabric()
            .send(src, dest, MsgClass::MigrationCtx, ctx_bytes, &self.clock);

        // Resolve the sticky set BEFORE dropping the thread-local heap (the resolver
        // reads the sampled landmarks, not the caches, but the profiler state is tied
        // to the pre-migration interval).
        let resolution = if with_prefetch && src != dest {
            // One forced stack sample first: the sampler backs off while the stack's
            // invariants hold, and the roots must be as fresh as a fixed timer's.
            self.profiler
                .refresh_stack_sample(&self.shared.gos, &mut self.stack, &self.clock);
            Some(self.profiler.resolve_sticky_for_space(
                &self.shared.gos,
                &self.space,
                &self.clock,
            ))
        } else {
            None
        };

        // The thread-local heap stays behind: flush pending writes and drop it.
        self.shared
            .gos
            .drop_thread_cache(&mut self.space, src, &self.clock);

        let (prefetched_objects, prefetch_bytes) = match &resolution {
            Some(res) => self.shared.gos.prefetch_into(
                &mut self.space,
                dest,
                res.selected.iter().copied(),
                &self.clock,
            ),
            None => (0, 0),
        };

        self.node = dest;
        self.shared.placement.write()[self.thread.index()] = dest;
        self.shared.emit_event(
            &self.clock,
            EventKind::ThreadMigrated {
                thread: self.thread.0,
                from: src.0,
                to: dest.0,
                prefetched: prefetched_objects as u64,
            },
        );

        MigrationReport {
            thread: self.thread,
            from: src,
            to: dest,
            ctx_bytes,
            prefetched_objects,
            prefetch_bytes,
            sim_cost_ns: self.clock.now() - t0,
            resolution,
        }
    }
}

impl Drop for JThread {
    /// Flush deferred OAL batches one last time (whatever is still stuck behind an
    /// unhealed partition is surfaced as lost), then park the access arena back in
    /// the cluster so post-run inspection (and a later re-adoption of the same
    /// thread id) sees the thread's heap state. The flush is a visible action,
    /// so an owed yield is paid first — unless unwinding or poisoned: a
    /// scheduling point on a poisoned executor panics, and `drop` must not; and
    /// no task may switch to another while a panic unwinds (DESIGN.md §15). (An
    /// adopted thread's yield returns at once: it is no running task.)
    fn drop(&mut self) {
        if !std::thread::panicking() && !self.shared.exec.is_poisoned() {
            self.pay_owed_yield();
        }
        self.flush_deferred_oals();
        for (_, _, env) in std::mem::take(&mut self.deferred_oals) {
            let interval = env.oal.interval;
            self.record_lost(interval);
        }
        // Give the bounded-mailbox path one last drain; whatever is still stuck
        // behind a full mailbox is shed with attribution (never silently).
        self.drain_pending();
        let policy = self.shared.prof.config().shed_policy;
        for (_, env) in std::mem::take(&mut self.pending_oals) {
            let interval = env.oal.interval;
            self.record_shed(interval, policy);
        }
        let space = std::mem::replace(&mut self.space, ThreadSpace::new(self.thread));
        *self.shared.spaces[self.thread.index()].lock() = Some(space);
    }
}
