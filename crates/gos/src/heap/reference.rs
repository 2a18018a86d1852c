//! The retained seed access path — differential oracle and bench baseline.
//!
//! This module preserves, verbatim in structure and semantics, the pre-refactor
//! per-thread heap ([`AccessEntry`] behind `RwLock<Vec<Option<Arc<Mutex<_>>>>>`)
//! and the protocol decisions the seed `Gos` made around it, with the cost/fabric
//! accounting stripped: [`ReferenceGos`] runs the same HLRC state machine — 2-bit
//! check, false-invalid cancel, twin/diff on first write, flush/notice/invalidate,
//! sticky prefetch, migration clear — against the same [`ObjectCore`] home copies,
//! and returns the same [`AccessOutcome`]s.
//!
//! It exists for two reasons (mirroring `core::tcm::reference` from the TCM
//! reduction rework):
//!
//! 1. **Differential testing** — the property suite drives arbitrary
//!    access/sync/migration schedules through both engines and asserts bit-identical
//!    outcomes, access states, home payloads, per-interval OALs and final TCM.
//! 2. **Benchmarking** — the `access_path` bench measures the seed layout's
//!    per-access `RwLock` read + `Arc` clone + `Mutex` lock (plus the per-access
//!    `ClassInfo` clone the seed paid for the unit size) against the packed
//!    single-writer arena.

use parking_lot::{Mutex, RwLock};
use std::rc::Rc;
use std::sync::Arc;

use jessy_net::{NodeId, ThreadId};

use crate::class::{ClassId, ClassRegistry};
use crate::object::{AccessState, ObjectCore, ObjectId, RealState, OBJ_HEADER_BYTES};
use crate::protocol::{AccessKind, AccessOutcome};
use crate::sync::{NoticeBoard, WriteNotice};
use crate::twin::Diff;

/// One thread's view of one object (the seed layout: a lock around every entry).
#[derive(Debug)]
pub struct AccessEntry {
    /// The 2-bit header state checked on every access.
    pub state: AccessState,
    /// The real consistency status (false-invalid cancels back to this).
    pub real: RealState,
    /// Cache payload; `None` when the object is homed at the thread's node.
    pub data: Option<Vec<f64>>,
    /// Twin created before the first write of the current interval.
    pub twin: Option<Vec<f64>>,
    /// Version of the home copy this cache was last synchronized with.
    pub cached_version: u64,
    /// Written since the last release flush.
    pub dirty: bool,
}

impl AccessEntry {
    /// Entry for an object homed at the thread's current node.
    pub fn home_resident() -> Self {
        AccessEntry {
            state: AccessState::Home,
            real: RealState::HomeResident,
            data: None,
            twin: None,
            cached_version: 0,
            dirty: false,
        }
    }

    /// Entry for a remote object not yet faulted in.
    pub fn absent() -> Self {
        AccessEntry {
            state: AccessState::Invalid,
            real: RealState::CacheInvalid,
            data: None,
            twin: None,
            cached_version: 0,
            dirty: false,
        }
    }

    /// Cancel a false-invalid trap back to the real state (Section II.A).
    pub fn cancel_false_invalid(&mut self) {
        if self.state == AccessState::FalseInvalid {
            self.state = self.real.to_access_state();
        }
    }
}

/// The seed per-thread heap: lazily grown `Option<Arc<Mutex<AccessEntry>>>` table
/// behind a `RwLock` — three synchronization hits on every access.
#[derive(Debug)]
pub struct RefSpace {
    thread: ThreadId,
    entries: RwLock<Vec<Option<Arc<Mutex<AccessEntry>>>>>,
}

impl RefSpace {
    /// Empty space for `thread`.
    pub fn new(thread: ThreadId) -> Self {
        RefSpace {
            thread,
            entries: RwLock::new(Vec::new()),
        }
    }

    /// The owning thread.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The entry for `obj`, if this thread has ever touched it.
    pub fn entry(&self, obj: ObjectId) -> Option<Arc<Mutex<AccessEntry>>> {
        self.entries.read().get(obj.index()).cloned().flatten()
    }

    /// The entry for `obj`, creating it with `init` if absent.
    pub fn entry_or_insert(
        &self,
        obj: ObjectId,
        init: impl FnOnce() -> AccessEntry,
    ) -> Arc<Mutex<AccessEntry>> {
        if let Some(e) = self.entry(obj) {
            return e;
        }
        let mut entries = self.entries.write();
        if entries.len() <= obj.index() {
            entries.resize_with(obj.index() + 1, || None);
        }
        entries[obj.index()]
            .get_or_insert_with(|| Arc::new(Mutex::new(init())))
            .clone()
    }

    /// Drop every entry (migration; the seed dropped the allocation too).
    pub fn clear(&self) {
        self.entries.write().clear();
    }

    /// Number of populated entries (the seed's O(objects) scan).
    pub fn populated(&self) -> usize {
        self.entries.read().iter().filter(|s| s.is_some()).count()
    }
}

/// The seed protocol engine: exact pre-refactor access/flush/notice/prefetch
/// semantics over [`RefSpace`] heaps, minus simulated-time and fabric accounting
/// (which are orthogonal to the state machine and identical in both engines).
pub struct ReferenceGos {
    classes: ClassRegistry,
    objects: RwLock<Vec<Rc<ObjectCore>>>,
    spaces: Vec<RefSpace>,
    dirty: Vec<Mutex<Vec<ObjectId>>>,
    notices: NoticeBoard,
    n_nodes: usize,
}

impl ReferenceGos {
    /// Engine for `n_nodes` nodes and `n_threads` per-thread heaps.
    pub fn new(n_nodes: usize, n_threads: usize) -> Self {
        ReferenceGos {
            classes: ClassRegistry::new(),
            objects: RwLock::new(Vec::new()),
            spaces: (0..n_threads)
                .map(|i| RefSpace::new(ThreadId(i as u32)))
                .collect(),
            dirty: (0..n_threads).map(|_| Mutex::new(Vec::new())).collect(),
            notices: NoticeBoard::new(n_threads),
            n_nodes,
        }
    }

    /// The class registry (register classes identically on both engines).
    pub fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    /// Allocate a scalar instance of `class` homed at `node`.
    pub fn alloc_scalar(
        &self,
        node: NodeId,
        class: ClassId,
        init: Option<&[f64]>,
    ) -> Rc<ObjectCore> {
        let info = self.classes.info(class);
        assert!(!info.is_array, "use alloc_array for array classes");
        let seq = self.classes.draw_seq(class, 1);
        self.alloc_inner(node, class, info.unit_words, info.unit_words, seq, false, init)
    }

    /// Allocate an array of `len_elems` elements of `class` homed at `node`.
    pub fn alloc_array(
        &self,
        node: NodeId,
        class: ClassId,
        len_elems: u32,
        init: Option<&[f64]>,
    ) -> Rc<ObjectCore> {
        assert!(len_elems > 0, "zero-length arrays not supported");
        let info = self.classes.info(class);
        assert!(info.is_array, "use alloc_scalar for scalar classes");
        let seq0 = self.classes.draw_seq(class, len_elems as u64);
        let words = info.unit_words * len_elems;
        self.alloc_inner(node, class, words, info.unit_words, seq0, true, init)
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
        init: Option<&[f64]>,
    ) -> Rc<ObjectCore> {
        assert!(node.index() < self.n_nodes, "node {node} out of range");
        let mut objects = self.objects.write();
        let id = ObjectId(objects.len() as u32);
        let core = Rc::new(ObjectCore::new(
            id, class, node, len_words, unit_words, seq0, is_array, false,
        ));
        if let Some(init) = init {
            core.with_home_data(|d| {
                assert_eq!(init.len(), d.len(), "init length mismatch for {id}");
                d.copy_from_slice(init);
            });
        }
        objects.push(Rc::clone(&core));
        core
    }

    /// Look up an object (the seed's per-access `RwLock` read + handle clone).
    pub fn object(&self, id: ObjectId) -> Rc<ObjectCore> {
        self.objects.read()[id.index()].clone()
    }

    /// Number of objects allocated.
    pub fn n_objects(&self) -> usize {
        self.objects.read().len()
    }

    /// Read access by `thread` running on `node`.
    pub fn read<R>(
        &self,
        thread: ThreadId,
        node: NodeId,
        obj: ObjectId,
        f: impl FnOnce(&[f64]) -> R,
    ) -> (R, AccessOutcome) {
        self.access(thread, node, obj, AccessKind::Read, |data| f(data))
    }

    /// Write access by `thread` running on `node`.
    pub fn write<R>(
        &self,
        thread: ThreadId,
        node: NodeId,
        obj: ObjectId,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> (R, AccessOutcome) {
        self.access(thread, node, obj, AccessKind::Write, f)
    }

    fn access<R>(
        &self,
        thread: ThreadId,
        node: NodeId,
        obj: ObjectId,
        kind: AccessKind,
        f: impl FnOnce(&mut [f64]) -> R,
    ) -> (R, AccessOutcome) {
        let core = self.object(obj);
        let info = self.classes.info(core.class);
        let len_elems = if core.is_array {
            core.len_words / info.unit_words
        } else {
            1
        };
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
            len_elems,
            unit_bytes: info.unit_words * 8,
        };

        let space = &self.spaces[thread.index()];
        let entry = match space.entry(obj) {
            Some(e) => e,
            None => {
                outcome.first_touch = true;
                space.entry_or_insert(obj, || {
                    if core.home() == node {
                        AccessEntry::home_resident()
                    } else {
                        AccessEntry::absent()
                    }
                })
            }
        };
        let mut e = entry.lock();

        if e.state == AccessState::FalseInvalid {
            outcome.false_invalid = true;
            e.cancel_false_invalid();
        }

        if e.state == AccessState::Invalid {
            outcome.real_fault = true;
            if core.home() == node {
                // Home promotion: the object's home has arrived at this node
                // since the copy was invalidated, so the fault is served from
                // the local home copy — rebind to home-resident, fetch nothing.
                e.data = None;
                e.twin = None;
                e.state = AccessState::Home;
                e.real = RealState::HomeResident;
            } else {
                let (data, version) = core.with_home_data(|d| (d.clone(), core.version()));
                e.data = Some(data);
                e.cached_version = version;
                e.state = AccessState::Valid;
                e.real = RealState::CacheValid;
                outcome.fetched_bytes = core.payload_bytes();
            }
        }

        let result = match e.real {
            RealState::HomeResident => {
                if kind == AccessKind::Write && !e.dirty {
                    e.dirty = true;
                    self.dirty[thread.index()].lock().push(obj);
                }
                core.with_home_data(|d| f(d))
            }
            RealState::CacheValid => {
                if kind == AccessKind::Write {
                    if e.twin.is_none() {
                        e.twin = Some(e.data.as_ref().expect("valid cache without data").clone());
                    }
                    if !e.dirty {
                        e.dirty = true;
                        self.dirty[thread.index()].lock().push(obj);
                    }
                }
                f(e.data.as_mut().expect("valid cache without data"))
            }
            RealState::CacheInvalid => unreachable!("fault path must have validated the cache"),
        };
        (result, outcome)
    }

    /// Arm false-invalid traps on `objs` in `thread`'s heap (seed interval-open
    /// walk). Returns how many traps were armed.
    pub fn set_false_invalid(
        &self,
        thread: ThreadId,
        objs: impl IntoIterator<Item = ObjectId>,
    ) -> usize {
        let mut armed = 0;
        for obj in objs {
            if let Some(entry) = self.spaces[thread.index()].entry(obj) {
                let mut e = entry.lock();
                match e.real {
                    RealState::HomeResident | RealState::CacheValid => {
                        e.state = AccessState::FalseInvalid;
                        armed += 1;
                    }
                    RealState::CacheInvalid => {}
                }
            }
        }
        armed
    }

    /// The access state of `obj` as seen by `thread`.
    pub fn access_state(&self, thread: ThreadId, obj: ObjectId) -> Option<AccessState> {
        self.spaces[thread.index()]
            .entry(obj)
            .map(|e| e.lock().state)
    }

    /// Number of entries `thread`'s heap holds.
    pub fn populated(&self, thread: ThreadId) -> usize {
        self.spaces[thread.index()].populated()
    }

    /// Flush `thread`'s dirty copies: diff against twins, apply home-side, bump
    /// versions, post write notices. Returns the number of objects flushed.
    pub fn flush_thread(&self, thread: ThreadId, _node: NodeId) -> usize {
        let dirty: Vec<ObjectId> = std::mem::take(&mut *self.dirty[thread.index()].lock());
        if dirty.is_empty() {
            return 0;
        }
        let mut notices = Vec::new();
        let mut flushed = 0;
        for obj in dirty {
            let entry = match self.spaces[thread.index()].entry(obj) {
                Some(e) => e,
                None => continue, // cleared by a migration
            };
            let mut e = entry.lock();
            if !e.dirty {
                continue;
            }
            e.dirty = false;
            let core = self.object(obj);
            match e.real {
                RealState::HomeResident => {
                    let v = core.bump_version();
                    notices.push(WriteNotice { obj, version: v });
                    flushed += 1;
                }
                RealState::CacheValid => {
                    let twin = e.twin.take().expect("dirty cache without twin");
                    let data = e.data.as_ref().expect("dirty cache without data");
                    let diff = Diff::compute(&twin, data);
                    if !diff.is_empty() {
                        core.with_home_data(|d| diff.apply(d));
                        let v = core.bump_version();
                        e.cached_version = v;
                        notices.push(WriteNotice { obj, version: v });
                        flushed += 1;
                    }
                }
                RealState::CacheInvalid => {}
            }
        }
        self.notices.post(notices);
        flushed
    }

    /// Apply every pending write notice for `thread` running on `node`. Returns the
    /// number of notices processed.
    pub fn apply_notices(&self, thread: ThreadId, node: NodeId) -> usize {
        let new = self.notices.take_new(thread.index()).to_vec();
        let count = new.len();
        if count == 0 {
            return 0;
        }
        let mut follow_up = Vec::new();
        for notice in new {
            let entry = match self.spaces[thread.index()].entry(notice.obj) {
                Some(e) => e,
                None => continue,
            };
            let mut e = entry.lock();
            if e.real == RealState::HomeResident && self.object(notice.obj).home() != node {
                e.state = AccessState::Invalid;
                e.real = RealState::CacheInvalid;
                e.data = None;
                e.twin = None;
                e.dirty = false;
                continue;
            }
            if e.real != RealState::CacheValid || e.cached_version >= notice.version {
                continue;
            }
            if e.dirty {
                e.dirty = false;
                let core = self.object(notice.obj);
                if let Some(twin) = e.twin.take() {
                    let data = e.data.as_ref().expect("dirty cache without data");
                    let diff = Diff::compute(&twin, data);
                    if !diff.is_empty() {
                        core.with_home_data(|d| diff.apply(d));
                        let v = core.bump_version();
                        follow_up.push(WriteNotice {
                            obj: notice.obj,
                            version: v,
                        });
                    }
                }
            }
            e.state = AccessState::Invalid;
            e.real = RealState::CacheInvalid;
            e.data = None;
            e.twin = None;
        }
        self.notices.post(follow_up);
        count
    }

    /// Relocate `obj`'s home to `dest` and post the invalidating notice. Returns
    /// `false` if the home was already `dest`.
    pub fn migrate_home(&self, obj: ObjectId, dest: NodeId) -> bool {
        assert!(dest.index() < self.n_nodes, "node {dest} out of range");
        let core = self.object(obj);
        if core.home() == dest {
            return false;
        }
        core.set_home(dest);
        let v = core.bump_version();
        self.notices.post([WriteNotice { obj, version: v }]);
        true
    }

    /// Sticky-set prefetch into `thread`'s heap at `node`. Returns payload bytes
    /// moved (headers included, as the fabric would account them).
    pub fn prefetch_into(
        &self,
        thread: ThreadId,
        node: NodeId,
        objs: impl IntoIterator<Item = ObjectId>,
    ) -> usize {
        let mut total = 0;
        for obj in objs {
            let core = self.object(obj);
            if core.home() == node {
                continue;
            }
            let entry = self.spaces[thread.index()].entry_or_insert(obj, AccessEntry::absent);
            let mut e = entry.lock();
            if e.real == RealState::CacheValid {
                continue;
            }
            let (data, version) = core.with_home_data(|d| (d.clone(), core.version()));
            e.data = Some(data);
            e.cached_version = version;
            e.state = AccessState::Valid;
            e.real = RealState::CacheValid;
            total += core.payload_bytes() + OBJ_HEADER_BYTES;
        }
        total
    }

    /// Flush then drop `thread`'s entire heap (thread migration).
    pub fn drop_thread_cache(&self, thread: ThreadId, node: NodeId) {
        self.flush_thread(thread, node);
        self.spaces[thread.index()].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_entry_shapes() {
        let e = AccessEntry::home_resident();
        assert_eq!(e.state, AccessState::Home);
        assert_eq!(e.real, RealState::HomeResident);
        assert!(e.data.is_none() && e.twin.is_none() && !e.dirty);

        let mut e = AccessEntry::absent();
        e.real = RealState::CacheValid;
        e.state = AccessState::FalseInvalid;
        e.cancel_false_invalid();
        assert_eq!(e.state, AccessState::Valid);
    }

    #[test]
    fn seed_engine_runs_the_hlrc_cycle() {
        let g = ReferenceGos::new(2, 2);
        let c = g.classes().register_scalar("X", 2);
        let obj = g.alloc_scalar(NodeId(0), c, Some(&[1.0, 2.0])).id;

        // Thread 1 on node 1: cold fault, then write.
        let (_, out) = g.read(ThreadId(1), NodeId(1), obj, |d| d[0]);
        assert!(out.real_fault && out.first_touch);
        let (_, out) = g.write(ThreadId(1), NodeId(1), obj, |d| d[0] = 9.0);
        assert!(!out.faulted());
        assert_eq!(g.flush_thread(ThreadId(1), NodeId(1)), 1);

        // Thread 0 at home applies the notice and sees the write.
        assert_eq!(g.apply_notices(ThreadId(0), NodeId(0)), 1);
        let (v, out) = g.read(ThreadId(0), NodeId(0), obj, |d| d[0]);
        assert_eq!(v, 9.0);
        assert!(out.first_touch && !out.real_fault, "home access never faults");

        // Arm + trap + cancel.
        assert_eq!(g.set_false_invalid(ThreadId(0), [obj]), 1);
        let (_, out) = g.read(ThreadId(0), NodeId(0), obj, |d| d[0]);
        assert!(out.false_invalid && !out.real_fault);
        assert_eq!(g.access_state(ThreadId(0), obj), Some(AccessState::Home));
    }
}
