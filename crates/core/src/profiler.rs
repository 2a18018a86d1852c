//! The per-thread profiling facade.
//!
//! The runtime owns one [`ThreadProfiler`] per application thread and drives it at
//! three points, mirroring where JESSICA2's hooks live:
//!
//! * **after every GOS access** ([`ThreadProfiler::on_access`]) — log correlation
//!   faults (and first touches) of sampled objects into the interval's OAL, feed
//!   sticky-set footprinting, and re-arm probe traps (nonstop or timer cadence);
//! * **at every synchronization point** ([`ThreadProfiler::close_interval`] then, after
//!   the sync completes, [`ThreadProfiler::open_interval`]) — emit the interval's OAL
//!   for shipment to the coordinator and advance the thread arena's interval epoch,
//!   which is what makes the traps armed during the previous interval go live
//!   (Section II.A). Arming itself is fused into access logging
//!   ([`jessy_gos::ThreadSpace::arm_next_interval`]), so the interval boundary walks
//!   nothing;
//! * **opportunistically** ([`ThreadProfiler::maybe_stack_sample`]) — timer-gated stack
//!   sampling (Section III.B).
//!
//! Shared, cross-thread state (the gap table the coordinator retunes, global counters)
//! lives in [`ProfilerShared`]. The counters are per-thread cells, one per
//! [`ThreadProfiler`] and written by it alone, so the access hook counts with a
//! load and a store; [`ProfilerStats::snapshot`] sums them live.
//!
//! ## The sampling view
//!
//! The gap table has one writer — the coordinator's controller — and its
//! readers only ever need it *as of their last ordered point*, so each
//! [`ThreadProfiler`] keeps its own copy of the per-class states together with
//! the [`GapTable::generation`] it was taken at, and
//! [`ThreadProfiler::on_access`] decides "sampled?" and the scaled size from
//! that copy alone: it takes no lock and reads neither the live table nor the
//! object's sampled tag. The copy is brought up to the live table at exactly
//! two kinds of place: [`ThreadProfiler::open_interval`], and
//! [`ThreadProfiler::sync_view`], which the runtime calls before every
//! *visible* access (DESIGN.md §15) — one generation load and compare; the
//! copy itself is `#[cold]` and out of line. So an access that was visible
//! before the view existed reads exactly the rates it read then, and a trap
//! the runtime lets run without a scheduling point reads them as of its
//! thread's last visible access or interval open — a function of the thread's
//! own ordered actions, not of where another task stood. An explicit
//! `JThread::yield_now` is deliberately *not* a refresh point: it is not an
//! action every schedule of a program shares.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use jessy_gos::{AccessOutcome, ClassId, Gos, ObjectCore, ObjectId, ThreadSpace};
use jessy_net::{ClockHandle, ThreadId};
use jessy_stack::JavaStack;

use crate::config::{FootprintMode, ProfilerConfig, ProfilingMode};
use crate::oal::{Oal, OalEntry};
use crate::sampling::{ClassGapState, GapTable, PAGE_SIZE};
use crate::stack_sampling::{StackInvariant, StackSampler};
use crate::sticky::footprint::{FootprintSnapshot, FootprintTracker};
use crate::sticky::resolution::{resolve_sticky_set, Resolution};

/// Global profiling counters (all threads). Each [`ThreadProfiler`] counts into
/// its own cell, registered when it is built; [`ProfilerStats::snapshot`] sums
/// every cell as of now, so the master's mid-run reads stay live.
#[derive(Debug, Default)]
pub struct ProfilerStats {
    cells: Mutex<Vec<Arc<StatCells>>>,
}

/// One [`ThreadProfiler`]'s counts. Every write goes through that profiler's
/// `&mut self`, so each cell has one writer — its thread, under the executor
/// or free-threaded (DESIGN.md §13) — and a count is a load and a store, never
/// an atomic read-modify-write. A line each, so two threads' counts never
/// share one.
#[derive(Debug, Default)]
#[repr(align(64))]
struct StatCells {
    intervals_closed: AtomicU64,
    oal_entries: AtomicU64,
    fi_armed: AtomicU64,
    footprint_rearms: AtomicU64,
}

/// Add `n` to a cell that only its owning profiler writes.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A point-in-time copy of [`ProfilerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfilerStatsSnapshot {
    /// Intervals closed across all threads.
    pub intervals_closed: u64,
    /// OAL entries logged.
    pub oal_entries: u64,
    /// False-invalid traps armed at interval opens.
    pub fi_armed: u64,
    /// Extra traps armed by footprint probing.
    pub footprint_rearms: u64,
}

impl ProfilerStats {
    /// Snapshot the counters: every profiler's cell summed.
    pub fn snapshot(&self) -> ProfilerStatsSnapshot {
        let cells = self.cells.lock();
        let sum = |cell: fn(&StatCells) -> &AtomicU64| -> u64 {
            cells.iter().map(|c| cell(c).load(Ordering::Relaxed)).sum()
        };
        ProfilerStatsSnapshot {
            intervals_closed: sum(|c| &c.intervals_closed),
            oal_entries: sum(|c| &c.oal_entries),
            fi_armed: sum(|c| &c.fi_armed),
            footprint_rearms: sum(|c| &c.footprint_rearms),
        }
    }

    /// A fresh cell for a new [`ThreadProfiler`], counted from now on.
    fn register(&self) -> Arc<StatCells> {
        let cell = Arc::new(StatCells::default());
        self.cells.lock().push(Arc::clone(&cell));
        cell
    }
}

/// Profiler state shared by all threads: configuration, the per-class gap table and
/// global counters.
#[derive(Debug)]
pub struct ProfilerShared {
    config: ProfilerConfig,
    gaps: GapTable,
    stats: ProfilerStats,
    summary_only: AtomicBool,
}

impl ProfilerShared {
    /// Build the shared state.
    pub fn new(config: ProfilerConfig) -> Arc<Self> {
        Arc::new(ProfilerShared {
            config,
            gaps: GapTable::new(PAGE_SIZE),
            stats: ProfilerStats::default(),
            summary_only: AtomicBool::new(false),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.config
    }

    /// The shared gap table (the adaptive controller mutates it).
    pub fn gaps(&self) -> &GapTable {
        &self.gaps
    }

    /// Global counters.
    pub fn stats(&self) -> &ProfilerStats {
        &self.stats
    }

    /// Is the budget ladder's summary-only rung in force? Threads check this when
    /// shipping OALs and collapse them to per-class summaries ([`Oal::summarize`]).
    pub fn summary_only(&self) -> bool {
        self.summary_only.load(Ordering::Relaxed)
    }

    /// Engage (or release) summary-only OAL shipping. Set by the coordinator when
    /// the degradation ladder reaches its last data-bearing rung.
    pub fn set_summary_only(&self, on: bool) {
        self.summary_only.store(on, Ordering::Relaxed);
    }

    /// Register a class for sampling at the configured initial rate.
    pub fn register_class(&self, class: ClassId, unit_bytes: usize) {
        self.gaps
            .register_class(class, unit_bytes, self.config.initial_rate);
    }

    /// Tag a freshly allocated object's sampled bit from its sequence number(s).
    pub fn tag_new_object(&self, core: &ObjectCore) {
        core.set_sampled(
            self.gaps
                .decide_sampled(core.class, core.elem_seq0, core.len_elems()),
        );
    }
}

/// A thread's sampling view: its own copy of the gap table's per-class states,
/// as of the generation it was copied at. Everything
/// [`ThreadProfiler::on_access`] knows about rates comes from here (module
/// docs).
#[derive(Debug, Default)]
struct SamplingView {
    /// Indexed by class, like the table's.
    states: Vec<Option<ClassGapState>>,
    /// [`GapTable::generation`] the states were copied at.
    generation: u64,
}

impl SamplingView {
    /// Catch up with `gaps` if a rate changed since the copy: one generation
    /// load and compare, the copy itself out of line.
    #[inline]
    fn sync(&mut self, gaps: &GapTable) {
        if gaps.generation() != self.generation {
            self.refresh(gaps);
        }
    }

    #[cold]
    #[inline(never)]
    fn refresh(&mut self, gaps: &GapTable) {
        self.generation = gaps.snapshot_into(&mut self.states);
    }

    /// `class`'s state. A class registered after the copy (registering bumps
    /// no generation) is fetched by one refresh; `None` only for a class never
    /// registered for sampling, whose objects are not sampled.
    #[inline]
    fn state(&mut self, gaps: &GapTable, class: ClassId) -> Option<ClassGapState> {
        if let Some(Some(state)) = self.states.get(class.index()) {
            return Some(*state);
        }
        self.refresh(gaps);
        self.states.get(class.index()).copied().flatten()
    }
}

/// Per-thread profiler.
#[derive(Debug)]
pub struct ThreadProfiler {
    shared: Arc<ProfilerShared>,
    thread: ThreadId,
    /// This profiler's cell in [`ProfilerShared::stats`]; only it writes there.
    stats: Arc<StatCells>,
    interval: u64,
    oal_entries: Vec<OalEntry>,
    logged_this_interval: HashSet<ObjectId>,
    footprint: Option<FootprintTracker>,
    stack_sampler: Option<StackSampler>,
    last_footprint: FootprintSnapshot,
    view: SamplingView,
}

impl ThreadProfiler {
    /// Profiler for `thread`.
    pub fn new(shared: Arc<ProfilerShared>, thread: ThreadId) -> Self {
        let footprint = shared.config.footprint.map(FootprintTracker::new);
        let stack_sampler = shared.config.stack.map(StackSampler::new);
        let mut view = SamplingView::default();
        view.refresh(&shared.gaps);
        let stats = shared.stats.register();
        ThreadProfiler {
            shared,
            thread,
            stats,
            interval: 0,
            oal_entries: Vec::new(),
            logged_this_interval: HashSet::new(),
            footprint,
            stack_sampler,
            last_footprint: FootprintSnapshot::default(),
            view,
        }
    }

    /// The owning thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Shared state.
    pub fn shared(&self) -> &Arc<ProfilerShared> {
        &self.shared
    }

    /// Current interval number.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Bring the sampling view up to the live gap table if a rate changed since
    /// it was copied. The runtime calls this before each *visible* access, and
    /// [`ThreadProfiler::open_interval`] calls it — the two kinds of place a
    /// rate change may reach a thread (module docs). Never call it from an
    /// explicit yield.
    #[inline]
    pub fn sync_view(&mut self) {
        self.view.sync(&self.shared.gaps);
    }

    /// Hook called after every GOS access with its [`AccessOutcome`], passing the
    /// accessing thread's own arena. Per-interval trap re-arming (Section II.A) is
    /// fused in here: logging an object also stamps its entry with the *next*
    /// interval's epoch, so [`ThreadProfiler::open_interval`] never walks an
    /// accessed set. Whether the object is sampled, and its scaled size, are
    /// decided from the sampling view alone — not from the live gap table nor
    /// from `out.sampled`, both of which the coordinator rewrites — so the hook
    /// reads nothing another task writes.
    pub fn on_access(
        &mut self,
        gos: &Gos,
        space: &mut ThreadSpace,
        out: &AccessOutcome,
        clock: &ClockHandle,
    ) {
        let config = &self.shared.config;
        let costs = gos.costs();

        if config.mode == ProfilingMode::GroundTruth {
            // Ground truth: log every access once per interval at full payload size.
            // No arming — full-trace mode logs without traps.
            if self.logged_this_interval.insert(out.obj) {
                clock.spend(costs.log_append_ns);
                bump(&self.stats.oal_entries, 1);
                self.oal_entries.push(OalEntry {
                    obj: out.obj,
                    class: out.class,
                    bytes: out.payload_bytes as u64,
                });
            }
            return;
        }

        if !out.loggable() {
            return;
        }
        let scaled = self
            .view
            .state(&self.shared.gaps, out.class)
            .map_or(0, |state| state.scaled_bytes(out.elem_seq0, out.len_elems));
        if scaled == 0 {
            return; // not sampled
        }

        if self.logged_this_interval.insert(out.obj) {
            if config.mode.logs() || self.footprint.is_some() {
                // The object must trap again next interval (at-most-once logging per
                // interval). Epoch-lazy: live once the epoch advances past the stamp.
                if space.arm_next_interval(out.obj) {
                    bump(&self.stats.fi_armed, 1);
                }
            }
            if config.mode.logs() {
                clock.spend(costs.log_append_ns);
                bump(&self.stats.oal_entries, 1);
                self.oal_entries.push(OalEntry {
                    obj: out.obj,
                    class: out.class,
                    bytes: scaled,
                });
            }
        }

        if let Some(fp) = &mut self.footprint {
            fp.on_logged_access(out.obj, out.class, scaled);
            if matches!(fp.config().mode, FootprintMode::Nonstop) {
                // Exact frequency counting: the object must fault on its next access.
                let armed = space.arm_traps([out.obj]);
                bump(&self.stats.footprint_rearms, armed as u64);
            }
        }
    }

    /// Count traps armed outside the access path (the thread-side re-sync walk
    /// after a coordinator rate change).
    pub fn record_fi_armed(&mut self, n: u64) {
        bump(&self.stats.fi_armed, n);
    }

    /// Timer-gated footprint probe: when due, re-arm traps on every object hit so far
    /// this interval so the next probe round can recount them. Call this from the
    /// runtime's access wrapper (it is cheap when not due).
    pub fn maybe_footprint_probe(&mut self, space: &mut ThreadSpace, clock: &ClockHandle) {
        let Some(fp) = &mut self.footprint else {
            return;
        };
        if !fp.should_probe(clock.now()) {
            return;
        }
        fp.start_round(clock.now());
        let armed = space.arm_traps(fp.hits());
        if armed > 0 {
            bump(&self.stats.footprint_rearms, armed as u64);
        }
    }

    /// Timer-gated stack sample (Section III.B). Returns whether a sample was taken.
    pub fn maybe_stack_sample(
        &mut self,
        gos: &Gos,
        stack: &mut JavaStack,
        clock: &ClockHandle,
    ) -> bool {
        match &mut self.stack_sampler {
            Some(s) => s.maybe_sample(stack, clock, gos.costs()),
            None => false,
        }
    }

    /// Forced stack sample that restarts the sampler's cadence
    /// ([`StackSampler::refresh`]): taken right before a migration resolves the sticky
    /// set, so a backed-off timer never hands it stale roots. No-op without a sampler.
    pub fn refresh_stack_sample(
        &mut self,
        gos: &Gos,
        stack: &mut JavaStack,
        clock: &ClockHandle,
    ) {
        if let Some(s) = &mut self.stack_sampler {
            s.refresh(stack, clock, gos.costs());
        }
    }

    /// Close the current interval (called right *before* the release part of a sync
    /// operation): emits the interval's OAL (if correlation tracking is on) and folds
    /// the footprint snapshot (if footprinting is on).
    pub fn close_interval(&mut self) -> Option<Oal> {
        bump(&self.stats.intervals_closed, 1);
        self.logged_this_interval.clear();
        if let Some(fp) = &mut self.footprint {
            self.last_footprint = fp.close_interval();
        }
        let entries = std::mem::take(&mut self.oal_entries);
        let oal = Oal {
            thread: self.thread,
            interval: self.interval,
            entries,
        };
        self.interval += 1;
        // Even empty OALs are emitted: the interval context tells the coordinator the
        // thread's interval stream is complete up to here, which is what lets it close
        // TCM rounds deterministically by interval number rather than arrival order.
        if self.shared.config.mode.logs() {
            Some(oal)
        } else {
            None
        }
    }

    /// Open the next interval (called right *after* the acquire part of a sync
    /// operation): advance the arena's interval epoch, which makes every trap armed
    /// during the previous interval (by [`ThreadProfiler::on_access`]) go live.
    /// O(1) — no accessed-set walk. An interval open is also one of the two
    /// places a rate change reaches this thread ([`ThreadProfiler::sync_view`]).
    pub fn open_interval(&mut self, space: &mut ThreadSpace) {
        space.begin_interval();
        self.sync_view();
    }

    /// Stack invariants discovered so far (topmost first).
    pub fn invariants(&self) -> Vec<StackInvariant> {
        self.stack_sampler
            .as_ref()
            .map(|s| s.invariants())
            .unwrap_or_default()
    }

    /// The stack sampler's counters, if enabled.
    pub fn stack_stats(&self) -> Option<crate::stack_sampling::StackSamplerStats> {
        self.stack_sampler.as_ref().map(|s| s.stats())
    }

    /// Average per-class sticky footprint over closed intervals (Table IV).
    pub fn average_footprint(&self) -> HashMap<ClassId, f64> {
        self.footprint
            .as_ref()
            .map(|f| f.average_footprint())
            .unwrap_or_default()
    }

    /// The most recently closed interval's footprint snapshot.
    pub fn last_footprint(&self) -> &FootprintSnapshot {
        &self.last_footprint
    }

    /// Resolve this thread's sticky set for a migration: stack invariants (topmost
    /// first) as roots, the averaged footprint as the per-class budget.
    pub fn resolve_sticky(&self, gos: &Gos, clock: &ClockHandle) -> Resolution {
        let roots: Vec<ObjectId> = self.invariants().iter().map(|i| i.obj).collect();
        self.resolve_sticky_from(gos, &roots, clock)
    }

    /// Resolve the sticky set with the thread's own access entries (its de-facto
    /// working set, object-id order) rooted ahead of the stack invariants. A
    /// shared container on the stack (a matrix object referencing every row, say)
    /// enumerates the *whole* structure in one hop, so rooting at it selects the
    /// same prefix for every thread; the access entries pin the walk to what this
    /// thread actually uses, and the invariants still extend it through linked
    /// structure the cache has not touched yet. Each entry scanned is charged one
    /// resolver edge.
    pub fn resolve_sticky_for_space(
        &self,
        gos: &Gos,
        space: &ThreadSpace,
        clock: &ClockHandle,
    ) -> Resolution {
        let mut roots = space.touched_objects();
        clock.spend(gos.costs().resolve_edge_ns * roots.len() as u64);
        roots.extend(self.invariants().iter().map(|i| i.obj));
        self.resolve_sticky_from(gos, &roots, clock)
    }

    fn resolve_sticky_from(&self, gos: &Gos, roots: &[ObjectId], clock: &ClockHandle) -> Resolution {
        let budget: HashMap<ClassId, u64> = self
            .average_footprint()
            .into_iter()
            .map(|(c, b)| (c, b.round() as u64))
            .collect();
        resolve_sticky_set(gos, self.shared.gaps(), roots, &budget, clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FootprintConfig, StackSamplingConfig};
    use crate::sampling::SamplingRate;
    use jessy_gos::{CostModel, GosConfig};
    use jessy_net::{ClockBoard, LatencyModel, NodeId};

    fn gos1() -> (Gos, ThreadSpace, ClockHandle) {
        let g = Gos::new(GosConfig {
            n_nodes: 1,
            n_threads: 1,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        (g, ThreadSpace::new(ThreadId(0)), ClockBoard::new(1).handle(ThreadId(0)))
    }

    #[test]
    fn first_touch_then_interval_arming_keeps_logging() {
        let (gos, mut space, clock) = gos1();
        let shared = ProfilerShared::new(ProfilerConfig::tracking_at(SamplingRate::Full));
        let class = gos.classes().register_scalar("X", 2);
        shared.register_class(class, 16);
        let mut prof = ThreadProfiler::new(Arc::clone(&shared), ThreadId(0));
        let node = NodeId(0);

        let core = gos.alloc_scalar(node, class, &clock, None);
        shared.tag_new_object(&core);
        assert!(core.is_sampled(), "full sampling tags everything");

        // Interval 0: the home-resident first touch is loggable.
        let (_, out) = gos.read(&mut space, node, core.id, &clock, |_| {});
        assert!(out.first_touch && !out.faulted());
        prof.on_access(&gos, &mut space, &out, &clock);
        // Repeat access: hit, not logged again (the re-arm stamped the *next* epoch).
        let (_, out) = gos.read(&mut space, node, core.id, &clock, |_| {});
        assert!(!out.loggable());
        prof.on_access(&gos, &mut space, &out, &clock);
        let oal = prof.close_interval().expect("first touch logged");
        assert_eq!(oal.entries.len(), 1);
        assert_eq!(oal.entries[0].bytes, 16, "scaled = payload at gap 1");

        // Interval 1: the epoch advance makes the trap live; access logs again.
        prof.open_interval(&mut space);
        assert_eq!(shared.stats().snapshot().fi_armed, 1);
        let (_, out) = gos.read(&mut space, node, core.id, &clock, |_| {});
        assert!(out.false_invalid, "trap live after open_interval");
        prof.on_access(&gos, &mut space, &out, &clock);
        let oal = prof.close_interval().unwrap();
        assert_eq!(oal.interval, 1);
        assert_eq!(oal.entries.len(), 1);
        assert_eq!(shared.stats().snapshot().oal_entries, 2);
    }

    #[test]
    fn a_class_registered_after_the_view_was_taken_is_picked_up() {
        let (gos, mut space, clock) = gos1();
        let shared = ProfilerShared::new(ProfilerConfig::tracking_at(SamplingRate::NX(1)));
        // The profiler copies the (empty) table; registering bumps no generation.
        let mut prof = ThreadProfiler::new(Arc::clone(&shared), ThreadId(0));
        let class = gos.classes().register_scalar("Late", 8);
        shared.register_class(class, 64);
        assert_eq!(shared.gaps().generation(), 0);
        let core = gos.alloc_scalar(NodeId(0), class, &clock, None); // seq 0: sampled
        shared.tag_new_object(&core);

        let (_, out) = gos.read(&mut space, NodeId(0), core.id, &clock, |_| {});
        prof.on_access(&gos, &mut space, &out, &clock);
        let oal = prof.close_interval().expect("tracking is on");
        assert_eq!(oal.entries.len(), 1, "the first touch is logged, not a panic");
        assert_eq!(oal.entries[0].bytes, 64 * 67);

        // A class nobody registered for sampling is not sampled.
        let stray = gos.classes().register_scalar("Stray", 1);
        let core = gos.alloc_scalar(NodeId(0), stray, &clock, None);
        let (_, out) = gos.read(&mut space, NodeId(0), core.id, &clock, |_| {});
        prof.on_access(&gos, &mut space, &out, &clock);
        assert!(prof.close_interval().unwrap().entries.is_empty());
    }

    #[test]
    fn rate_changes_reach_on_access_through_the_view_only() {
        let (gos, mut space, clock) = gos1();
        let shared = ProfilerShared::new(ProfilerConfig::tracking_at(SamplingRate::NX(1)));
        let class = gos.classes().register_scalar("Body", 8);
        shared.register_class(class, 64); // gap 67
        let mut prof = ThreadProfiler::new(Arc::clone(&shared), ThreadId(0));
        let node = NodeId(0);
        let core = gos.alloc_scalar(node, class, &clock, None); // seq 0: sampled at any gap
        shared.tag_new_object(&core);
        let logged_bytes = |prof: &mut ThreadProfiler, space: &mut ThreadSpace| {
            let (_, out) = gos.read(space, node, core.id, &clock, |_| {});
            assert!(out.loggable());
            prof.on_access(&gos, space, &out, &clock);
            prof.close_interval().unwrap().entries[0].bytes
        };
        assert_eq!(logged_bytes(&mut prof, &mut space), 64 * 67);

        // The coordinator steps the class: gap 31. The armed trap of the next
        // interval still logs by the view…
        shared.gaps().step_up(class);
        space.begin_interval();
        assert_eq!(logged_bytes(&mut prof, &mut space), 64 * 67);
        // …until one of the two refresh points brings the view up to date.
        prof.open_interval(&mut space);
        assert_eq!(logged_bytes(&mut prof, &mut space), 64 * 31);
        shared.gaps().step_up(class);
        space.begin_interval();
        prof.sync_view();
        assert_eq!(logged_bytes(&mut prof, &mut space), 64 * 17);
    }

    #[test]
    fn unsampled_objects_are_never_logged() {
        let (gos, mut space, clock) = gos1();
        // 64-byte class at 1X → gap 67: seq 1 is unsampled.
        let shared = ProfilerShared::new(ProfilerConfig::tracking_at(SamplingRate::NX(1)));
        let class = gos.classes().register_scalar("Body", 8);
        shared.register_class(class, 64);
        let mut prof = ThreadProfiler::new(Arc::clone(&shared), ThreadId(0));
        let node = NodeId(0);
        let a = gos.alloc_scalar(node, class, &clock, None); // seq 0: sampled
        let b = gos.alloc_scalar(node, class, &clock, None); // seq 1: not
        shared.tag_new_object(&a);
        shared.tag_new_object(&b);
        assert!(a.is_sampled() && !b.is_sampled());

        for id in [a.id, b.id] {
            let (_, out) = gos.read(&mut space, node, id, &clock, |_| {});
            assert!(out.first_touch);
            prof.on_access(&gos, &mut space, &out, &clock);
        }
        let oal = prof.close_interval().unwrap();
        assert_eq!(oal.entries.len(), 1);
        assert_eq!(oal.entries[0].obj, a.id);
        assert_eq!(oal.entries[0].bytes, 64 * 67, "scaled by the gap");
    }

    #[test]
    fn full_trace_logs_every_object_without_arming() {
        let (gos, mut space, clock) = gos1();
        let shared = ProfilerShared::new(ProfilerConfig::ground_truth());
        let class = gos.classes().register_scalar("X", 1);
        shared.register_class(class, 8);
        let mut prof = ThreadProfiler::new(Arc::clone(&shared), ThreadId(0));
        let node = NodeId(0);
        let a = gos.alloc_scalar(node, class, &clock, None);
        let b = gos.alloc_scalar(node, class, &clock, None);
        for id in [a.id, b.id, a.id] {
            let (_, out) = gos.read(&mut space, node, id, &clock, |_| {});
            prof.on_access(&gos, &mut space, &out, &clock);
        }
        let oal = prof.close_interval().unwrap();
        assert_eq!(oal.entries.len(), 2, "deduplicated per interval");
        assert!(oal.entries.iter().all(|e| e.bytes == 8));

        // Next interval logs the same objects again without any arming.
        prof.open_interval(&mut space);
        let (_, out) = gos.read(&mut space, node, a.id, &clock, |_| {});
        assert!(!out.faulted(), "no traps in full-trace mode");
        prof.on_access(&gos, &mut space, &out, &clock);
        assert_eq!(prof.close_interval().unwrap().entries.len(), 1);
    }

    #[test]
    fn nonstop_footprint_rearms_and_counts_frequency() {
        let (gos, mut space, clock) = gos1();
        let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
        config.footprint = Some(FootprintConfig {
            mode: FootprintMode::Nonstop,
            min_gap: 1,
        });
        let shared = ProfilerShared::new(config);
        let class = gos.classes().register_scalar("X", 1);
        shared.register_class(class, 8);
        let mut prof = ThreadProfiler::new(Arc::clone(&shared), ThreadId(0));
        let node = NodeId(0);
        let core = gos.alloc_scalar(node, class, &clock, None);
        shared.tag_new_object(&core);

        // Every access faults: first touch, then nonstop re-arming.
        for i in 0..4 {
            let (_, out) = gos.read(&mut space, node, core.id, &clock, |_| {});
            assert!(out.loggable(), "access {i} must trap");
            prof.on_access(&gos, &mut space, &out, &clock);
        }
        prof.close_interval();
        assert_eq!(prof.last_footprint().sticky_objects, 1);
        assert_eq!(shared.stats().snapshot().footprint_rearms, 4);
    }

    #[test]
    fn stack_sampling_integration() {
        let (gos, _space, clock) = gos1();
        let mut config = ProfilerConfig::disabled();
        config.stack = Some(StackSamplingConfig {
            gap_ns: 0,
            lazy_extraction: true,
        });
        let shared = ProfilerShared::new(config);
        let mut prof = ThreadProfiler::new(shared, ThreadId(0));
        let mut stack = JavaStack::new();
        stack.push_raw(jessy_stack::MethodId(0), 2);
        stack.set_local(0, jessy_stack::Slot::Ref(ObjectId(4)));
        assert!(prof.maybe_stack_sample(&gos, &mut stack, &clock));
        clock.spend(1);
        assert!(prof.maybe_stack_sample(&gos, &mut stack, &clock));
        assert_eq!(prof.invariants().len(), 1);
        assert!(prof.stack_stats().unwrap().samples == 2);
    }
}
