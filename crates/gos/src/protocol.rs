//! The Global Object Space protocol engine.
//!
//! [`Gos`] ties together the class registry, the global object table, per-thread heaps
//! (cache copies live "in the local heap of the current thread", Section II.A), the
//! notice board, locks and the barrier into the home-based lazy release consistency
//! protocol the paper's profiling techniques instrument:
//!
//! * **Access check** — [`Gos::check`], under every [`Gos::read`]/[`Gos::write`] and
//!   every member of a [`Gos::with_group`] access, models the JIT-inlined 2-bit
//!   state check. `Home`/`Valid` states proceed at check cost; `Invalid` faults the
//!   object from its home (an accounted `ObjFetch`/`ObjData` round trip); a live
//!   false-invalid trap (armed epoch-lazily, see [`crate::heap`]) enters the service
//!   routine, is cancelled back to the real state, and is reported in the returned
//!   [`AccessOutcome`] so the profiler can log the access.
//! * **Release** — [`Gos::flush_thread`] diffs the thread's dirty cache copies against
//!   their twins, ships the diffs home (batched per home node), bumps home versions
//!   and posts write notices. Called from `lock_release` and `barrier_wait`.
//! * **Acquire** — [`Gos::lock_acquire`]/[`Gos::barrier_wait`] apply all pending write
//!   notices. Invalidation is *version-based*: the walk advances the thread's
//!   per-entry visibility watermark and the access check treats an outrun copy as
//!   invalid — no cross-thread heap mutation anywhere in the protocol.
//!
//! Every operation that touches a thread's heap takes that heap as
//! `&mut` [`ThreadSpace`] — the single-writer discipline: a thread's arena is
//! exclusively owned by the thread driving it, so the access fast path is a couple
//! of bit tests on one packed word instead of the seed's per-access
//! `RwLock`/`Arc`/`Mutex` trio (retained in [`crate::heap::reference`] for
//! differential testing and benchmarking). The protocol counters follow the same
//! discipline: each thread counts into a cell of its own with a load and a store,
//! and [`Gos::proto_counters`] sums the cells.
//!
//! The per-thread at-most-once property falls out: within one interval a (thread,
//! object) pair faults at most once, so logging on faults is cheap — exactly what
//! Section II.A exploits, with [`ThreadSpace::arm_next_interval`] re-arming traps per
//! interval at access-log time.
//!
//! The acting thread is identified by the [`ThreadSpace`] (and the [`ClockHandle`]
//! passed alongside); the node it currently runs on is passed explicitly because
//! thread migration changes it.

use jessy_obs::{EventKind, TraceSink};
use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use jessy_net::{
    ClockHandle, DetExecutor, Fabric, FaultPlan, LatencyModel, MsgClass, NetError, NetworkStats,
    NodeId, ThreadId,
};

use crate::class::{ClassId, ClassRegistry};
use crate::costs::CostModel;
use crate::heap::{ThreadSpace, ST_ABSENT, ST_HOME, ST_INVALID, ST_VALID};
use crate::object::{ObjectCore, ObjectId, OBJ_HEADER_BYTES};
use crate::sync::{LockId, LockTable, NoticeBoard, SimBarrier, WriteNotice, NOTICE_BYTES};
use crate::twin::Diff;

/// Fixed wire size of small control requests (lock/fetch/barrier bodies).
const CTRL_BYTES: usize = 16;

/// The consistency discipline: JESSICA2's global home-based LRC, the one model the
/// GOS runs. It has a single variant and [`GosConfig::consistency`] stays only
/// because the benchmark's probes build a `GosConfig` literal naming the field;
/// both go with the next change to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsistencyModel {
    /// Home-based LRC with a single global notice history: a lock acquire or a
    /// barrier applies *all* pending notices.
    GlobalHlrc,
}

/// Configuration of a [`Gos`] instance.
#[derive(Debug, Clone)]
pub struct GosConfig {
    /// Number of cluster nodes.
    pub n_nodes: usize,
    /// Number of application threads (notice cursors).
    pub n_threads: usize,
    /// Network cost model.
    pub latency: LatencyModel,
    /// CPU cost model.
    pub costs: CostModel,
    /// Connectivity-based object prefetching: on a real fault, objects reachable
    /// within this many reference hops ride along on the reply (0 disables — the
    /// "path-analytic object prefetching" optimization the paper's evaluation runs
    /// with; the path analysis itself is the companion ISPAN'09 paper).
    pub prefetch_depth: u32,
    /// Consistency discipline (always global HLRC; see [`ConsistencyModel`]).
    pub consistency: ConsistencyModel,
    /// Chaos schedule for the interconnect; `None` (and a plan with all
    /// probabilities zero) runs the fabric fault-free.
    pub faults: Option<FaultPlan>,
}

impl Default for GosConfig {
    fn default() -> Self {
        GosConfig {
            n_nodes: 8,
            n_threads: 8,
            latency: LatencyModel::fast_ethernet(),
            costs: CostModel::pentium4_2ghz(),
            prefetch_depth: 0,
            consistency: ConsistencyModel::GlobalHlrc,
            faults: None,
        }
    }
}

/// Whether an access was a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Read access bytecode (getfield / aload etc.).
    Read,
    /// Write access bytecode (putfield / astore etc.).
    Write,
}

/// Everything the profiler needs to know about one access, returned by
/// [`Gos::check`] (and so by [`Gos::read`]/[`Gos::write`]). The GOS itself never
/// logs — decoupling the substrate from the contribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// The object accessed.
    pub obj: ObjectId,
    /// Its class.
    pub class: ClassId,
    /// Its home node.
    pub home: NodeId,
    /// Read or write.
    pub kind: AccessKind,
    /// The object's sampled tag at access time.
    pub sampled: bool,
    /// The access trapped on a profiler-armed false-invalid state.
    pub false_invalid: bool,
    /// The access took a real fault (cold or invalidated cache).
    pub real_fault: bool,
    /// This is the thread's first-ever touch of the object (its access entry was just
    /// created). For objects homed at the thread's node this is the only trap the
    /// first interval gets — the profiler logs it like a correlation fault, after
    /// which normal interval arming takes over.
    pub first_touch: bool,
    /// Payload bytes fetched from the home (0 on hits).
    pub fetched_bytes: usize,
    /// Full payload size in bytes.
    pub payload_bytes: usize,
    /// Array instance? (per-element sampling applies)
    pub is_array: bool,
    /// Sequence number of the object / first array element.
    pub elem_seq0: u64,
    /// Element count (1 for scalars).
    pub len_elems: u32,
    /// Per-instance (scalar) or per-element (array) size in bytes.
    pub unit_bytes: u32,
}

impl AccessOutcome {
    /// Did this access trap into the GOS service routine at all?
    #[inline]
    pub fn faulted(&self) -> bool {
        self.false_invalid || self.real_fault
    }

    /// Should the profiler consider logging this access? (Any service-routine entry:
    /// fault, correlation fault, or first touch.)
    #[inline]
    pub fn loggable(&self) -> bool {
        self.false_invalid || self.real_fault || self.first_touch
    }
}

/// Where a checked access's payload is: the object's home copy, or a cache copy
/// in the accessing thread's own arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// The home copy, behind the object's own lock.
    Home,
    /// A cache copy in the thread's arena. Only its owner writes it, and
    /// notices and migrations reach it only at the owner's own barriers and
    /// locks.
    Arena,
}

/// One read member of a group access ([`Gos::with_group`]).
#[derive(Debug, Clone, Copy)]
pub enum ReadMember<'a> {
    /// Borrowed in place, where its check served it.
    InPlace(ObjectId, Served),
    /// A copy made before a scheduling point that fell between the member's
    /// check and the group's closure: a home payload another task may write
    /// there.
    Copied(&'a [f64]),
}

/// Aggregate protocol event counters (diagnostics and benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolCounters {
    /// Real object faults served (cold misses + invalidations).
    pub real_faults: u64,
    /// False-invalid traps served (correlation faults, Section II.A).
    pub false_invalid_faults: u64,
    /// Total accesses checked.
    pub accesses: u64,
    /// Diffs shipped home.
    pub diffs_flushed: u64,
    /// Write notices applied (cache invalidations checked).
    pub notices_applied: u64,
    /// Object homes relocated.
    pub home_migrations: u64,
    /// Faults served locally because the home had migrated onto the faulting
    /// node (the entry rebinds to home-resident; no fabric round trip).
    pub home_promotions: u64,
    /// Objects moved by connectivity prefetching (riding on fault replies).
    pub objects_prefetched: u64,
}

/// What one thread's own operations on its [`ThreadSpace`] counted: the access
/// check and its fault paths, its release flushes and its notice walks. One
/// writer per thread id — the thread driving that space, under the executor or
/// free-threaded (DESIGN.md §13) — so a count is a load and a store, never an
/// atomic read-modify-write, and [`Gos::proto_counters`] sums the cells live.
/// A line each, so two threads' counts never share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct ThreadCounters {
    accesses: AtomicU64,
    real_faults: AtomicU64,
    false_invalid_faults: AtomicU64,
    home_promotions: AtomicU64,
    objects_prefetched: AtomicU64,
    diffs_flushed: AtomicU64,
    notices_applied: AtomicU64,
}

/// Add `n` to a cell that only its owning thread writes.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// Slots in the object table's first chunk; chunk `k` holds `CHUNK0_SLOTS << k`.
const CHUNK0_SLOTS: usize = 32;
/// Chunks of 32, 64, 128 … slots: 28 of them cover every `u32` id.
const N_CHUNKS: usize = 28;

/// Chunk and offset of `id` in the object table: chunk `k` starts at index
/// `CHUNK0_SLOTS * (2^k - 1)`, so `index + CHUNK0_SLOTS` has its top bit at
/// `k + log2(CHUNK0_SLOTS)` and the offset in the bits below it.
#[inline]
fn locate(id: ObjectId) -> (usize, usize) {
    let j = id.0 as u64 + CHUNK0_SLOTS as u64;
    let top = j.ilog2();
    ((top - CHUNK0_SLOTS.ilog2()) as usize, (j ^ (1 << top)) as usize)
}

type Slot = OnceLock<Arc<ObjectCore>>;

/// The global object table: append-only, write-once slots in geometrically
/// growing chunks that never move, so a lookup — for objects allocated during
/// set-up and mid-run alike — is two plain loads (chunk pointer, slot) and
/// returns a borrow that lives as long as the table. Readers take no lock and
/// touch no reference count.
///
/// Publication order: an allocation, holding the `index` lock, takes the next
/// dense id, creates the slot's chunk if the id is its first (one allocation
/// for the whole chunk), writes the slot and only then publishes the new
/// length and the id's entry in its class's list. A slot is a `OnceLock`,
/// whose `set` releases and whose `get` acquires, so whoever obtains an id —
/// from the allocator's return value or through any chain of synchronization
/// from it — finds the slot written; and every id below a length, or in a
/// class list, read from `index` resolves.
struct ObjectTable {
    chunks: [OnceLock<Box<[Slot]>>; N_CHUNKS],
    /// What has been allocated. Its lock is the one allocation lock: it
    /// serializes allocations, which makes ids dense and in allocation order.
    index: Mutex<TableIndex>,
}

#[derive(Default)]
struct TableIndex {
    /// Number of slots written.
    len: usize,
    /// Ids per class, ascending (resampling walks).
    by_class: Vec<Vec<ObjectId>>,
}

impl ObjectTable {
    fn new() -> Self {
        ObjectTable {
            chunks: [const { OnceLock::new() }; N_CHUNKS],
            index: Mutex::default(),
        }
    }

    fn len(&self) -> usize {
        self.index.lock().len
    }

    /// The ids of `class`'s objects allocated so far, ascending.
    fn ids_of_class(&self, class: ClassId) -> Vec<ObjectId> {
        self.index.lock().by_class.get(class.index()).cloned().unwrap_or_default()
    }

    /// The object `id` names, or `None` for an id never allocated.
    #[inline]
    fn get(&self, id: ObjectId) -> Option<&Arc<ObjectCore>> {
        let (chunk, offset) = locate(id);
        self.chunks[chunk].get()?.get(offset)?.get()
    }

    /// Append the object of `class` that `make` builds for the next id.
    fn push(
        &self,
        class: ClassId,
        make: impl FnOnce(ObjectId) -> Arc<ObjectCore>,
    ) -> &Arc<ObjectCore> {
        let mut index = self.index.lock();
        let id = ObjectId(u32::try_from(index.len).unwrap_or_else(|_| {
            panic!("object table full: all {} u32 object ids are in use", index.len)
        }));
        let (chunk, offset) = locate(id);
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..CHUNK0_SLOTS << chunk).map(|_| Slot::new()).collect());
        // The slot is empty: only this path writes slots, one per id, under the lock.
        let core = slots[offset].get_or_init(|| make(id));
        index.len += 1;
        if index.by_class.len() <= class.index() {
            index.by_class.resize_with(class.index() + 1, Vec::new);
        }
        index.by_class[class.index()].push(id);
        core
    }

    /// Every object allocated so far, in id order.
    fn iter(&self) -> impl Iterator<Item = &Arc<ObjectCore>> {
        let len = self.len();
        self.chunks
            .iter()
            .map_while(|c| c.get())
            .flat_map(|slots| slots.iter())
            .take(len)
            .map(|slot| slot.get().expect("slots below the published length are written"))
    }
}

/// Create `space`'s entry for `core` — every way an arena gains an entry
/// (first touch, connectivity prefetch, migration prefetch) comes through
/// here, so this is the one place an object is claimed by the first thread
/// to hold an entry for it and shared by the second
/// ([`ObjectCore::arrive`]).
fn insert_entry(space: &mut ThreadSpace, core: &ObjectCore, at_home: bool) {
    core.arrive(space.thread());
    space.insert(core.id, at_home);
}

/// Run `f` over the payload of `obj` (whose core is `core`), just checked by
/// `space`'s thread and served at `at`.
#[inline]
fn with_payload<R>(
    space: &mut ThreadSpace,
    obj: ObjectId,
    core: &ObjectCore,
    at: Served,
    f: impl FnOnce(&mut [f64]) -> R,
) -> R {
    match at {
        Served::Home => core.with_home_data(|d| f(d)),
        Served::Arena => f(space.data_mut(obj)),
    }
}

/// The Global Object Space.
pub struct Gos {
    config: GosConfig,
    classes: ClassRegistry,
    fabric: Fabric,
    objects: ObjectTable,
    notices: NoticeBoard,
    locks: LockTable,
    barrier: SimBarrier,
    /// One cell per thread id `0..n_threads`.
    counters: Box<[ThreadCounters]>,
    /// Homes relocated: counted by whoever relocates, so a shared cell.
    home_migrations: AtomicU64,
    /// Journal for protocol slow-path events (faults, traps, home migrations,
    /// notice application). `None` emits nothing; the access-check *hit* lane has
    /// no emission site at all, so tracing cannot slow it down.
    sink: Option<Arc<dyn TraceSink>>,
    /// The executor a contended lock acquire or a non-final barrier arrival
    /// blocks its caller on; the task is the thread's clock-board index. Only a
    /// running task may block: a caller that never waits (an uncontended lock, a
    /// one-party barrier, an adopted thread after the run) needs none.
    exec: Arc<DetExecutor>,
}

impl Gos {
    /// Build a GOS for `config.n_nodes` nodes and `config.n_threads` threads.
    ///
    /// Panics on an invalid topology or fault plan; use [`Gos::try_new`] to handle
    /// those as typed errors.
    pub fn new(config: GosConfig) -> Self {
        Self::try_new(config).expect("invalid GOS configuration")
    }

    /// Build a GOS, surfacing an empty cluster or an invalid fault plan as a
    /// [`NetError`] instead of a panic.
    pub fn try_new(config: GosConfig) -> Result<Self, NetError> {
        assert!(config.n_threads > 0, "GOS needs at least one thread");
        let fabric = match &config.faults {
            Some(plan) => Fabric::with_faults(config.n_nodes, config.latency, plan.clone())?,
            None => Fabric::new(config.n_nodes, config.latency)?,
        };
        Ok(Gos {
            classes: ClassRegistry::new(),
            fabric,
            objects: ObjectTable::new(),
            notices: NoticeBoard::new(config.n_threads),
            locks: LockTable::new(),
            barrier: SimBarrier::new(),
            counters: (0..config.n_threads).map(|_| ThreadCounters::default()).collect(),
            home_migrations: AtomicU64::new(0),
            sink: None,
            exec: DetExecutor::new(0, 0, 0),
            config,
        })
    }

    /// Install an event journal for protocol slow-path events, and share it with
    /// the fabric so message-level events land in the same journal.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.fabric.set_trace_sink(Arc::clone(&sink));
        self.sink = Some(sink);
    }

    /// Replace the idle executor a new GOS starts with (one no task ever
    /// registers on) by the one that runs the threads as tasks, so a contended
    /// lock or barrier can block them.
    pub fn set_executor(&mut self, exec: Arc<DetExecutor>) {
        self.exec = exec;
    }

    /// The configuration in force.
    pub fn config(&self) -> &GosConfig {
        &self.config
    }

    /// The class registry.
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// The CPU cost model.
    pub fn costs(&self) -> &CostModel {
        &self.config.costs
    }

    /// The simulated interconnect (for traffic snapshots).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Snapshot of network traffic so far.
    pub fn net_stats(&self) -> NetworkStats {
        self.fabric.stats()
    }

    /// Snapshot of protocol event counters: every thread's cell summed, as of now.
    pub fn proto_counters(&self) -> ProtocolCounters {
        let sum = |cell: fn(&ThreadCounters) -> &AtomicU64| -> u64 {
            self.counters.iter().map(|c| cell(c).load(Ordering::Relaxed)).sum()
        };
        ProtocolCounters {
            real_faults: sum(|c| &c.real_faults),
            false_invalid_faults: sum(|c| &c.false_invalid_faults),
            accesses: sum(|c| &c.accesses),
            diffs_flushed: sum(|c| &c.diffs_flushed),
            notices_applied: sum(|c| &c.notices_applied),
            home_migrations: self.home_migrations.load(Ordering::Relaxed),
            home_promotions: sum(|c| &c.home_promotions),
            objects_prefetched: sum(|c| &c.objects_prefetched),
        }
    }

    /// `space`'s thread's counter cell. A thread id the GOS was not built for
    /// has none and panics, as it has no notice cursor either.
    #[inline]
    fn counters_of(&self, space: &ThreadSpace) -> &ThreadCounters {
        let thread = space.thread();
        self.counters.get(thread.index()).unwrap_or_else(|| {
            panic!(
                "thread {thread} has no counter cell (GOS built for {} threads)",
                self.counters.len()
            )
        })
    }

    // ------------------------------------------------------------------ allocation

    /// Allocate a scalar instance of `class` homed at `node`, optionally initializing
    /// its payload. Draws one per-class sequence number. The sampled tag starts
    /// `false`; the profiler decides and calls [`ObjectCore::set_sampled`].
    pub fn alloc_scalar(
        &self,
        node: NodeId,
        class: ClassId,
        clock: &ClockHandle,
        init: Option<&[f64]>,
    ) -> Arc<ObjectCore> {
        let (is_array, unit_words) = self.classes.shape(class);
        assert!(!is_array, "use alloc_array for array classes");
        let seq = self.classes.draw_seq(class, 1);
        self.alloc_inner(node, class, unit_words, unit_words, seq, false, clock, init)
    }

    /// Allocate an array of `len_elems` elements of `class` homed at `node`. Draws
    /// `len_elems` consecutive sequence numbers (Section II.B.3).
    pub fn alloc_array(
        &self,
        node: NodeId,
        class: ClassId,
        len_elems: u32,
        clock: &ClockHandle,
        init: Option<&[f64]>,
    ) -> Arc<ObjectCore> {
        assert!(len_elems > 0, "zero-length arrays not supported");
        let (is_array, unit_words) = self.classes.shape(class);
        assert!(is_array, "use alloc_scalar for scalar classes");
        let seq0 = self.classes.draw_seq(class, len_elems as u64);
        let words = unit_words * len_elems;
        self.alloc_inner(node, class, words, unit_words, seq0, true, clock, init)
    }

    #[allow(clippy::too_many_arguments)]
    fn alloc_inner(
        &self,
        node: NodeId,
        class: ClassId,
        len_words: u32,
        unit_words: u32,
        seq0: u64,
        is_array: bool,
        clock: &ClockHandle,
        init: Option<&[f64]>,
    ) -> Arc<ObjectCore> {
        self.assert_node(node);
        clock.spend(self.config.costs.alloc_ns);
        let core = self.objects.push(class, |id| {
            let core = ObjectCore::new(id, class, node, len_words, unit_words, seq0, is_array, false);
            if let Some(init) = init {
                core.with_home_data(|d| {
                    assert_eq!(init.len(), d.len(), "init length mismatch for {id}");
                    d.copy_from_slice(init);
                });
            }
            Arc::new(core)
        });
        Arc::clone(core)
    }

    /// Does nothing: the object table needs no freeze step — every lookup, for
    /// set-up and mid-run objects alike, is already lock-free. Kept only because
    /// the pinned benchmark (`benchmark/src/probes.rs`) still calls it; ROADMAP
    /// item 1 (iv) removes the call and this method together.
    pub fn freeze_object_table(&self) {}

    /// Look up an object by id, borrowing the table's handle: no lock, no
    /// reference-count traffic — the lookup for access paths and traversals.
    /// Panics on an id never allocated.
    #[inline]
    pub fn object_ref(&self, id: ObjectId) -> &Arc<ObjectCore> {
        self.objects
            .get(id)
            .unwrap_or_else(|| panic!("{id} out of range ({} objects)", self.n_objects()))
    }

    /// [`Gos::object_ref`] down to the object itself.
    #[inline]
    fn core(&self, id: ObjectId) -> &ObjectCore {
        self.object_ref(id)
    }

    /// Look up an object by id, for callers that keep the handle.
    pub fn object(&self, id: ObjectId) -> Arc<ObjectCore> {
        Arc::clone(self.object_ref(id))
    }

    /// Does `thread` hold the only arena entry for `obj` — it touched the
    /// object first, and since then no other thread has touched or prefetched
    /// it and it has not been published or re-homed
    /// ([`ObjectCore::is_local_to`])? The runtime asks before every hit on a
    /// home-resident entry, trap armed or not.
    #[inline]
    pub fn is_local_to(&self, obj: ObjectId, thread: ThreadId) -> bool {
        self.core(obj).is_local_to(thread)
    }

    /// Append the reference edge `from → to`. The edge makes `to` reachable by
    /// whoever can reach `from`, so `to` is shared from here on, held or not.
    pub fn add_ref(&self, from: ObjectId, to: ObjectId) {
        self.core(to).publish();
        self.core(from).add_ref(to);
    }

    /// Replace `from`'s reference list with `targets`, publishing every target
    /// like [`Gos::add_ref`].
    pub fn set_refs(&self, from: ObjectId, targets: Vec<ObjectId>) {
        for &to in &targets {
            self.core(to).publish();
        }
        self.core(from).set_refs(targets);
    }

    /// Number of objects ever allocated.
    pub fn n_objects(&self) -> usize {
        self.objects.len()
    }

    /// Re-arm false-invalid traps in `space` for every resident object whose
    /// shared header carries the sampled tag. Called by a thread at the first
    /// interval open after a coordinator rate change: the resampling walk
    /// retags headers globally, but objects that regained the tag while their
    /// per-thread armed chain was dead would never trap (hence never log)
    /// again on a read-only path. The walk cost is charged to `clock` like the
    /// coordinator's own resampling walk. Returns the number of traps armed.
    pub fn rearm_sampled(&self, space: &mut ThreadSpace, clock: &ClockHandle) -> usize {
        let (visited, armed) =
            space.arm_matching(|obj| self.objects.get(obj).is_some_and(|c| c.is_sampled()));
        clock.spend(self.costs().resample_ns_per_obj * visited as u64);
        armed
    }

    /// Visit every object of `class` (resampling walks after a rate change).
    pub fn for_each_object_of_class(&self, class: ClassId, mut f: impl FnMut(&Arc<ObjectCore>)) {
        for id in self.objects.ids_of_class(class) {
            f(self.object_ref(id));
        }
    }

    /// Visit every object, in id order.
    pub fn for_each_object(&self, f: impl FnMut(&Arc<ObjectCore>)) {
        self.objects.iter().for_each(f);
    }

    // ------------------------------------------------------------------ access path

    /// Read access by `space`'s thread running on `node`: runs `f` over the
    /// (possibly freshly faulted) payload.
    pub fn read<R>(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        obj: ObjectId,
        clock: &ClockHandle,
        f: impl FnOnce(&[f64]) -> R,
    ) -> (R, AccessOutcome) {
        let (out, at, core) = self.check_in(space, node, obj, AccessKind::Read, clock);
        (with_payload(space, obj, core, at, |data| f(data)), out)
    }

    /// Write access: runs `f` over the mutable payload; creates the twin on the first
    /// write of the interval and marks the entry dirty for the next flush.
    pub fn write<R>(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        obj: ObjectId,
        clock: &ClockHandle,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> (R, AccessOutcome) {
        let (out, at, core) = self.check_in(space, node, obj, AccessKind::Write, clock);
        (with_payload(space, obj, core, at, f), out)
    }

    /// Run `f` once over a group access's payloads, borrowed in place: the
    /// target's mutably (checked for a write, served at `at`) and each read
    /// member's shared. Every member must have been checked by `space`'s
    /// thread, the target last and right before this call, and the members
    /// must be distinct (`JThread::update` rejects a duplicate before any
    /// check). Home payloads are locked in ascending object id, so two groups
    /// never wait on each other in a cycle.
    pub fn with_group<const N: usize, R>(
        &self,
        space: &mut ThreadSpace,
        target: ObjectId,
        at: Served,
        reads: [ReadMember<'_>; N],
        f: impl FnOnce(&mut [f64], [&[f64]; N]) -> R,
    ) -> R {
        let home_of = |m: ReadMember<'_>| match m {
            ReadMember::InPlace(obj, Served::Home) => Some(obj),
            _ => None,
        };
        let mut order: [usize; N] = std::array::from_fn(|i| i);
        order.sort_unstable_by_key(|&i| home_of(reads[i]));
        let mut target_home = None;
        let mut read_homes: [Option<MutexGuard<'_, Vec<f64>>>; N] = std::array::from_fn(|_| None);
        for i in order {
            let Some(obj) = home_of(reads[i]) else {
                continue;
            };
            if at == Served::Home && target_home.is_none() && target < obj {
                target_home = Some(self.core(target).home_data());
            }
            read_homes[i] = Some(self.core(obj).home_data());
        }
        if at == Served::Home && target_home.is_none() {
            target_home = Some(self.core(target).home_data());
        }

        let (target_arena, read_arena) = space.group_payloads(
            (at == Served::Arena).then_some(target),
            reads.map(|m| match m {
                ReadMember::InPlace(obj, Served::Arena) => Some(obj),
                _ => None,
            }),
        );
        let target_data = match target_home.as_mut() {
            Some(home) => &mut home[..],
            None => target_arena.expect("an arena-served target has a slot"),
        };
        let read_data = std::array::from_fn(|i| match (reads[i], &read_homes[i]) {
            (ReadMember::Copied(copy), _) => copy,
            (_, Some(home)) => &home[..],
            (_, None) => read_arena[i].expect("an arena-served member has a slot"),
        });
        f(target_data, read_data)
    }

    /// The access check by `space`'s thread running on `node`: clock charges,
    /// counters, faults, traps and journal events, and for a write the twin
    /// and the dirty mark. Returns what happened and where the payload now
    /// is; [`Gos::read`], [`Gos::write`] and [`Gos::with_group`] borrow it
    /// from there.
    #[inline]
    pub fn check(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        obj: ObjectId,
        kind: AccessKind,
        clock: &ClockHandle,
    ) -> (AccessOutcome, Served) {
        let (out, at, _) = self.check_in(space, node, obj, kind, clock);
        (out, at)
    }

    /// [`Gos::check`], also handing back the object's core. Inlined into
    /// each single-object access, so that the check and the caller's closure
    /// compile into one body, with one object-table lookup.
    #[inline(always)]
    fn check_in(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        obj: ObjectId,
        kind: AccessKind,
        clock: &ClockHandle,
    ) -> (AccessOutcome, Served, &ObjectCore) {
        self.assert_node(node);
        assert_eq!(space.thread(), clock.thread(), "space/clock thread mismatch");
        let costs = &self.config.costs;
        clock.spend(costs.access_check_ns);
        let counters = self.counters_of(space);
        bump(&counters.accesses, 1);

        let core = self.core(obj);
        let mut outcome = AccessOutcome {
            obj,
            class: core.class,
            home: core.home(),
            kind,
            sampled: core.is_sampled(),
            false_invalid: false,
            real_fault: false,
            first_touch: false,
            fetched_bytes: 0,
            payload_bytes: core.payload_bytes(),
            is_array: core.is_array,
            elem_seq0: core.elem_seq0,
            len_elems: core.len_elems(),
            unit_bytes: core.unit_words * 8,
        };

        // The inlined 2-bit check, on one packed word. `effective_state` folds
        // version-based invalidation in: a valid copy whose acquired visibility
        // watermark passed its cached version reads as invalid.
        let mut st = space.effective_state(obj);
        if st == ST_ABSENT {
            outcome.first_touch = true;
            let at_home = core.home() == node;
            insert_entry(space, core, at_home);
            if at_home {
                // First touch of a home-resident object enters the service routine
                // once (entry initialization + the logging opportunity).
                clock.spend(costs.fault_service_ns);
            }
            st = if at_home { ST_HOME } else { ST_INVALID };
        } else if st == ST_INVALID && space.peek_stale(space.peek(obj)) {
            // Materialize the lazy invalidation (payload/twin buffers retained).
            space.demote_stale(obj);
        }

        if st != ST_INVALID && space.peek_armed(space.peek(obj)) {
            // Correlation fault: enter the service routine, cancel the trap.
            outcome.false_invalid = true;
            clock.spend(costs.fault_service_ns);
            bump(&counters.false_invalid_faults, 1);
            space.disarm(obj);
            if let Some(sink) = &self.sink {
                sink.emit(
                    clock.now(),
                    clock.thread().0,
                    EventKind::FalseInvalidTrap {
                        obj: obj.0,
                        class: core.class.0 as u32,
                        node: node.0,
                    },
                );
            }
        }

        if st == ST_INVALID && core.home() == node {
            // The home migrated onto this node after first touch: serve the
            // fault from the now-local home copy and rebind the entry to
            // home-resident — no fabric round trip, ever again.
            outcome.real_fault = true;
            clock.spend(costs.fault_service_ns);
            bump(&counters.real_faults, 1);
            bump(&counters.home_promotions, 1);
            space.promote_home(obj);
            if let Some(sink) = &self.sink {
                sink.emit(
                    clock.now(),
                    clock.thread().0,
                    EventKind::ObjectFault {
                        obj: obj.0,
                        class: core.class.0 as u32,
                        home: core.home().0,
                        node: node.0,
                        bytes: 0,
                    },
                );
            }
            st = ST_HOME;
        } else if st == ST_INVALID {
            // Real object fault: fetch the latest copy from home.
            outcome.real_fault = true;
            clock.spend(costs.fault_service_ns);
            bump(&counters.real_faults, 1);
            let bytes = core.payload_bytes();
            self.fabric.charge_round_trip(
                node,
                core.home(),
                MsgClass::ObjFetch,
                CTRL_BYTES,
                MsgClass::ObjData,
                bytes + OBJ_HEADER_BYTES,
                clock,
            );
            core.with_home_data(|d| {
                let version = core.version();
                space.install_copy(obj, d, version);
            });
            outcome.fetched_bytes = bytes;
            if let Some(sink) = &self.sink {
                sink.emit(
                    clock.now(),
                    clock.thread().0,
                    EventKind::ObjectFault {
                        obj: obj.0,
                        class: core.class.0 as u32,
                        home: core.home().0,
                        node: node.0,
                        bytes: bytes as u64,
                    },
                );
            }
            if self.config.prefetch_depth > 0 {
                // Connectivity prefetch: same-home objects within `prefetch_depth`
                // reference hops ride along on the reply.
                self.connectivity_prefetch(space, node, core, clock);
            }
            st = ST_VALID;
        }

        let at = if st == ST_HOME {
            if kind == AccessKind::Write && !space.dirty_bit(space.peek(obj)) {
                space.mark_dirty(obj);
            }
            Served::Home
        } else {
            if kind == AccessKind::Write {
                if !space.twin_bit(space.peek(obj)) {
                    clock.spend(costs.twin_ns(space.data_len(obj)));
                    space.make_twin(obj);
                }
                if !space.dirty_bit(space.peek(obj)) {
                    space.mark_dirty(obj);
                }
            }
            Served::Arena
        };
        (outcome, at, core)
    }

    /// Walk `root`'s reference neighbourhood (up to `prefetch_depth` hops) and install
    /// cache copies of same-home objects the thread does not already hold. The extra
    /// payload is accounted as a batched `Prefetch` message from the home.
    fn connectivity_prefetch(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        root: &ObjectCore,
        clock: &ClockHandle,
    ) {
        let home = root.home();
        let mut frontier = root.refs();
        let mut bytes = 0usize;
        let mut moved = 0u64;
        for _hop in 0..self.config.prefetch_depth {
            let mut next = Vec::new();
            for obj in frontier.drain(..) {
                let core = self.core(obj);
                if core.home() != home || home == node {
                    continue; // cross-home neighbours are not on this reply path
                }
                match space.effective_state(obj) {
                    ST_HOME | ST_VALID => continue, // already holds usable data
                    ST_ABSENT => insert_entry(space, core, false),
                    _ => {}
                }
                core.with_home_data(|d| {
                    let version = core.version();
                    space.install_copy(obj, d, version);
                });
                bytes += core.payload_bytes() + OBJ_HEADER_BYTES;
                moved += 1;
                core.with_refs(|refs| next.extend_from_slice(refs));
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        if bytes > 0 {
            self.fabric.send(home, node, MsgClass::Prefetch, bytes, clock);
            bump(&self.counters_of(space).objects_prefetched, moved);
        }
    }

    // ------------------------------------------------------------------ release/acquire

    /// Flush every dirty copy of `space`'s thread: diff against twins, ship diffs
    /// home from `node` (one batched `DiffUpdate` per home node), bump versions and
    /// post write notices (to the global history — barrier/release semantics).
    /// Returns the number of objects flushed.
    pub fn flush_thread(&self, space: &mut ThreadSpace, node: NodeId, clock: &ClockHandle) -> usize {
        self.assert_node(node);
        if space.dirty_is_empty() {
            return 0;
        }
        let dirty = space.take_dirty();
        let costs = &self.config.costs;
        let mut notices = Vec::new();
        let mut per_home: Vec<usize> = vec![0; self.config.n_nodes];
        let mut flushed = 0;

        for &obj in &dirty {
            let w = space.peek(obj);
            if !space.dirty_bit(w) {
                continue; // force-flushed at acquire, or repaired by a home migration
            }
            space.clear_dirty_bit(obj);
            let core = self.core(obj);
            match space.effective_state(obj) {
                ST_HOME => {
                    let v = core.bump_version();
                    notices.push(WriteNotice { obj, version: v });
                    flushed += 1;
                }
                ST_VALID => {
                    debug_assert!(space.twin_bit(w), "dirty cache without twin");
                    clock.spend(costs.diff_ns(space.data_len(obj)));
                    let diff = space.with_twin_and_data(obj, Diff::compute);
                    space.drop_twin(obj);
                    if !diff.is_empty() {
                        clock.spend(costs.apply_ns(diff.changed_words()));
                        core.with_home_data(|d| diff.apply(d));
                        let v = core.bump_version();
                        space.set_cached_version(obj, v);
                        notices.push(WriteNotice { obj, version: v });
                        per_home[core.home().index()] += diff.wire_bytes() + 8;
                        bump(&self.counters_of(space).diffs_flushed, 1);
                        flushed += 1;
                    }
                }
                _ => {
                    // Invalidated (and force-flushed) by notice application.
                }
            }
        }
        space.recycle_dirty(dirty);

        for (home, bytes) in per_home.iter().enumerate() {
            if *bytes > 0 {
                self.fabric
                    .send(node, NodeId(home as u16), MsgClass::DiffUpdate, *bytes, clock);
            }
        }
        self.notices.post(notices);
        flushed
    }

    /// Apply every pending write notice for `space`'s thread, advancing its
    /// visibility watermarks (version-based invalidation — stale copies read as
    /// invalid on the next access check). A dirty copy hit by a notice is
    /// force-flushed (from `node`) first so no writes are lost. Returns the number
    /// of notices processed.
    pub fn apply_notices(&self, space: &mut ThreadSpace, node: NodeId, clock: &ClockHandle) -> usize {
        self.assert_node(node);
        let costs = &self.config.costs;
        let new = self.notices.take_new(space.thread().index());
        let count = new.len();
        if count == 0 {
            return 0;
        }
        clock.spend(costs.notice_apply_ns * count as u64);
        bump(&self.counters_of(space).notices_applied, count as u64);
        if let Some(sink) = &self.sink {
            sink.emit(
                clock.now(),
                clock.thread().0,
                EventKind::NoticesApplied {
                    thread: space.thread().0,
                    count: count as u64,
                },
            );
        }
        let mut follow_up = Vec::new();
        for notice in new {
            let obj = notice.obj;
            let w = space.peek(obj);
            match w & 0b11 {
                ST_HOME => {
                    if self.core(obj).home() != node {
                        // The home migrated away from under this thread: its entry
                        // becomes an ordinary (cold) cache entry and the next access
                        // faults normally.
                        space.reset_to_cold(obj);
                    }
                    continue;
                }
                ST_VALID => {}
                _ => continue, // absent or already-invalid cache
            }
            if space.cached_version(obj) >= notice.version {
                continue;
            }
            if space.dirty_bit(w) {
                // Unflushed writes race with the invalidation: flush before the copy
                // goes stale.
                space.clear_dirty_bit(obj);
                let core = self.core(obj);
                if space.twin_bit(w) {
                    clock.spend(costs.diff_ns(space.data_len(obj)));
                    let diff = space.with_twin_and_data(obj, Diff::compute);
                    space.drop_twin(obj);
                    if !diff.is_empty() {
                        clock.spend(costs.apply_ns(diff.changed_words()));
                        core.with_home_data(|d| diff.apply(d));
                        let v = core.bump_version();
                        follow_up.push(WriteNotice { obj, version: v });
                        self.fabric.send(
                            node,
                            core.home(),
                            MsgClass::DiffUpdate,
                            diff.wire_bytes() + 8,
                            clock,
                        );
                        bump(&self.counters_of(space).diffs_flushed, 1);
                    }
                }
            }
            // Version-based lazy invalidation: advance the watermark; the payload
            // stays for the refetch to reuse and the access check does the rest.
            space.note_visible(obj, notice.version);
        }
        self.notices.post(follow_up);
        count
    }

    // ------------------------------------------------------------------ sync API

    /// Register a distributed lock. The manager node is `id % n_nodes`.
    pub fn register_lock(&self) -> LockId {
        self.locks.register()
    }

    fn lock_manager(&self, id: LockId) -> NodeId {
        NodeId((id.index() % self.config.n_nodes) as u16)
    }

    /// Acquire a distributed lock from `node`: round trip to the manager, inherit the
    /// previous holder's simulated release time, then apply pending write notices
    /// (piggybacked on the grant). Returns the number of notices applied.
    pub fn lock_acquire(
        &self,
        space: &mut ThreadSpace,
        id: LockId,
        node: NodeId,
        clock: &ClockHandle,
    ) -> usize {
        self.assert_node(node);
        clock.spend(self.config.costs.lock_local_ns);
        let task = clock.thread().index();
        let prev_release = self.locks.get(id).acquire(&self.exec, task, clock.now());
        clock.raise_to(prev_release);
        let applied = self.apply_notices(space, node, clock);
        let manager = self.lock_manager(id);
        self.fabric.charge_round_trip(
            node,
            manager,
            MsgClass::LockAcquire,
            CTRL_BYTES,
            MsgClass::LockGrant,
            CTRL_BYTES + NOTICE_BYTES * applied,
            clock,
        );
        applied
    }

    /// Release a distributed lock from `node`: flush the thread's dirty copies (the
    /// interval ends here), notify the manager, record the simulated release time.
    pub fn lock_release(
        &self,
        space: &mut ThreadSpace,
        id: LockId,
        node: NodeId,
        clock: &ClockHandle,
    ) {
        self.assert_node(node);
        self.flush_thread(space, node, clock);
        clock.spend(self.config.costs.lock_local_ns);
        let manager = self.lock_manager(id);
        self.fabric
            .send(node, manager, MsgClass::LockRelease, CTRL_BYTES, clock);
        self.locks.get(id).release(&self.exec, clock.now());
    }

    /// Enter the global barrier as one of `parties` participants: flush (release
    /// semantics), synchronize real threads and simulated clocks, apply notices
    /// (acquire semantics). Returns the number of notices applied.
    pub fn barrier_wait(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        parties: usize,
        clock: &ClockHandle,
    ) -> usize {
        self.assert_node(node);
        self.flush_thread(space, node, clock);
        self.fabric
            .send(node, NodeId::MASTER, MsgClass::BarrierEnter, CTRL_BYTES, clock);
        let hdr = MsgClass::BarrierRelease.header_bytes();
        let extra =
            self.config.costs.barrier_local_ns + self.config.latency.one_way_ns(CTRL_BYTES + hdr);
        let task = clock.thread().index();
        let release_sim = self.barrier.wait(&self.exec, task, parties, clock.now(), extra);
        clock.raise_to(release_sim);
        let applied = self.apply_notices(space, node, clock);
        // The release broadcast carries the notices this thread just applied.
        self.fabric.account_async(
            NodeId::MASTER,
            node,
            MsgClass::BarrierRelease,
            CTRL_BYTES + NOTICE_BYTES * applied,
        );
        applied
    }

    // ------------------------------------------------------------------ home migration

    /// Relocate each `(obj, dest)` home in order (the object home-migration
    /// optimization the paper's evaluation runs with; see also its Section II:
    /// "Relocating home of one object for locality of one thread may sacrifice
    /// locality of other threads"). Objects already homed at their destination are
    /// skipped.
    ///
    /// A write notice is posted per relocated object so every cached copy
    /// revalidates against the new home. A re-homed object is shared, whoever held
    /// it ([`ObjectCore::publish`]). Threads holding a stale home-resident view are
    /// repaired when they next apply notices. The payloads travel the way
    /// [`Self::prefetch_into`] batches: one `ObjData` message per (old home → new
    /// home) link, sent in link order, each charged to `clock` in turn. Returns the
    /// objects relocated and the payload + object-header bytes they shipped.
    pub fn relocate_homes(
        &self,
        moves: impl IntoIterator<Item = (ObjectId, NodeId)>,
        clock: &ClockHandle,
    ) -> (usize, usize) {
        let n = self.config.n_nodes;
        let mut per_link: Vec<usize> = vec![0; n * n];
        let mut notices = Vec::new();
        for (obj, dest) in moves {
            self.assert_node(dest);
            let core = self.core(obj);
            let old = core.home();
            if old == dest {
                continue;
            }
            per_link[old.index() * n + dest.index()] += core.payload_bytes() + OBJ_HEADER_BYTES;
            core.set_home(dest);
            core.publish();
            notices.push(WriteNotice {
                obj,
                version: core.bump_version(),
            });
            if let Some(sink) = &self.sink {
                sink.emit(
                    clock.now(),
                    clock.thread().0,
                    EventKind::HomeMigration {
                        obj: obj.0,
                        from: old.0,
                        to: dest.0,
                    },
                );
            }
        }
        let moved = notices.len();
        self.home_migrations.fetch_add(moved as u64, Ordering::Relaxed);
        self.notices.post(notices);
        let mut total = 0;
        for (link, &bytes) in per_link.iter().enumerate() {
            if bytes > 0 {
                total += bytes;
                let (from, to) = (NodeId((link / n) as u16), NodeId((link % n) as u16));
                self.fabric.send(from, to, MsgClass::ObjData, bytes, clock);
            }
        }
        (moved, total)
    }

    // ------------------------------------------------------------------ migration support

    /// Prefetch `objs` into `space` at `node` (the sticky-set prefetch accompanying a
    /// migration, Section III). Objects homed at `node` or already valid are skipped.
    /// Data is accounted as batched `Prefetch` messages, one per home node, charged
    /// to `clock`. Returns the objects installed and the payload + object-header
    /// bytes moved.
    pub fn prefetch_into(
        &self,
        space: &mut ThreadSpace,
        node: NodeId,
        objs: impl IntoIterator<Item = ObjectId>,
        clock: &ClockHandle,
    ) -> (usize, usize) {
        self.assert_node(node);
        let mut per_home: Vec<usize> = vec![0; self.config.n_nodes];
        let mut installed = 0;
        for obj in objs {
            let core = self.core(obj);
            if core.home() == node {
                continue;
            }
            match space.effective_state(obj) {
                ST_VALID => continue, // usable copy already present
                ST_ABSENT => insert_entry(space, core, false),
                _ => {}
            }
            core.with_home_data(|d| {
                let version = core.version();
                space.install_copy(obj, d, version);
            });
            per_home[core.home().index()] += core.payload_bytes() + OBJ_HEADER_BYTES;
            installed += 1;
        }
        let mut total = 0;
        for (home, bytes) in per_home.iter().enumerate() {
            if *bytes > 0 {
                total += *bytes;
                self.fabric
                    .send(NodeId(home as u16), node, MsgClass::Prefetch, *bytes, clock);
            }
        }
        (installed, total)
    }

    /// Drop `space`'s entire contents (its thread migrated to a new node and its
    /// cache copies stayed behind). Unflushed writes are flushed from `from_node`
    /// first so nothing is lost; the arena allocation is recycled.
    pub fn drop_thread_cache(
        &self,
        space: &mut ThreadSpace,
        from_node: NodeId,
        clock: &ClockHandle,
    ) {
        self.flush_thread(space, from_node, clock);
        space.clear();
    }

    fn assert_node(&self, n: NodeId) {
        assert!(
            n.index() < self.config.n_nodes,
            "node {n} out of range ({} nodes)",
            self.config.n_nodes
        );
    }
}

impl std::fmt::Debug for Gos {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gos")
            .field("n_nodes", &self.config.n_nodes)
            .field("n_threads", &self.config.n_threads)
            .field("objects", &self.n_objects())
            .field("classes", &self.classes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Index of chunk `k`'s first slot: the sizes of the chunks before it.
    fn chunk_start(k: usize) -> u64 {
        CHUNK0_SLOTS as u64 * ((1u64 << k) - 1)
    }

    /// `locate(id)` is in bounds, inverts to `id`, and `id + 1` lands in the
    /// next slot of the same chunk or the first of the next one.
    fn check_located(id: u32) -> Result<(), String> {
        let (chunk, offset) = locate(ObjectId(id));
        prop_assert!(chunk < N_CHUNKS, "chunk {chunk} of {id}");
        prop_assert!(offset < CHUNK0_SLOTS << chunk, "offset {offset} of {id}");
        prop_assert_eq!(chunk_start(chunk) + offset as u64, id as u64);
        if let Some(next) = id.checked_add(1) {
            let wraps = offset + 1 == CHUNK0_SLOTS << chunk;
            let expect = if wraps { (chunk + 1, 0) } else { (chunk, offset + 1) };
            prop_assert_eq!(locate(ObjectId(next)), expect);
        }
        Ok(())
    }

    #[test]
    fn chunk_boundaries_sit_where_the_sizes_say() {
        for (id, at) in [(0, (0, 0)), (31, (0, 31)), (32, (1, 0)), (95, (1, 63)), (96, (2, 0))] {
            assert_eq!(locate(ObjectId(id)), at, "id {id}");
        }
        assert_eq!(locate(ObjectId(u32::MAX)), (N_CHUNKS - 1, 31));
        assert!(chunk_start(N_CHUNKS) > u32::MAX as u64, "the chunks cover every u32 id");
        for k in 0..N_CHUNKS {
            let first = chunk_start(k);
            let last = (chunk_start(k + 1) - 1).min(u32::MAX as u64);
            for id in [first, last] {
                check_located(id as u32).unwrap_or_else(|e| panic!("chunk {k}: {e}"));
            }
        }
    }

    proptest! {
        #[test]
        fn locate_is_a_dense_in_bounds_bijection(
            anywhere in 0u32..u32::MAX,
            chunk in 0usize..N_CHUNKS + 1,
            back in 0u64..4,
        ) {
            check_located(anywhere)?;
            // ... and a slot or two either side of a chunk boundary.
            let near = (chunk_start(chunk) + 1).saturating_sub(back).min(u32::MAX as u64);
            check_located(near as u32)?;
        }
    }

    #[test]
    fn the_table_grows_a_chunk_at_a_time_and_never_moves_a_slot() {
        let table = ObjectTable::new();
        let push = |class: u16| {
            table.push(ClassId(class), |id| {
                Arc::new(ObjectCore::new(id, ClassId(class), NodeId(0), 1, 1, 0, false, false))
            })
        };
        assert!(table.get(ObjectId(0)).is_none() && table.iter().next().is_none());
        let first: *const ObjectCore = Arc::as_ptr(push(0));
        for i in 1..200u32 {
            assert_eq!(push((i % 2) as u16).id, ObjectId(i), "ids are dense");
        }
        assert_eq!(table.len(), 200);
        assert_eq!(Arc::as_ptr(table.get(ObjectId(0)).unwrap()), first);
        let ids: Vec<u32> = table.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
        let odd: Vec<ObjectId> = (0..200).filter(|i| i % 2 == 1).map(ObjectId).collect();
        assert_eq!(table.ids_of_class(ClassId(1)), odd);
        assert!(table.ids_of_class(ClassId(2)).is_empty());
        // 200 objects fill chunks 0–1 and part of chunk 2; the rest of chunk 2
        // is allocated but unwritten, chunk 3 does not exist yet.
        assert!(table.get(ObjectId(200)).is_none() && table.get(ObjectId(224)).is_none());
        assert!(table.chunks[2].get().is_some() && table.chunks[3].get().is_none());
    }
}
