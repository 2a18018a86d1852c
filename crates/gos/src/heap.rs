//! Per-thread heaps: the single-writer access arena.
//!
//! JESSICA2 replicates shared objects "as cache copies in the local heap of the
//! current thread" (Section II.A) — so the coherence and tracking unit is the
//! *thread*, not the node. The paper's whole premise is that the per-access check is
//! a couple of inlined instructions (a 2-bit header state test); everything rare —
//! faults, false-invalid traps, diffs — happens in the service routine.
//!
//! This module realizes that discipline as a **single-writer arena**: a
//! [`ThreadSpace`] is a flat dense table of packed 64-bit entry headers, indexed by
//! [`ObjectId`], that only the owning thread ever touches (the GOS takes it by
//! `&mut`, so the compiler enforces the invariant). The fast path is one bounds
//! check plus bit tests on one word — no `RwLock`, no `Arc` clone, no per-entry
//! `Mutex` (the seed layout, retained in [`mod@reference`], paid all three per access).
//!
//! ## Packed entry word
//!
//! ```text
//!   63            32 31..4        3      2      1..0
//!  +----------------+------------+------+------+------+
//!  |  armed_epoch   | slot+1     | twin | dirty| state|
//!  +----------------+------------+------+------+------+
//! ```
//!
//! * `state` (2 bits) — the real consistency state: absent / home-resident /
//!   valid cache / invalid cache. The paper's *false-invalid* value is not stored
//!   here: it is derived (see below), which is what makes arming O(1) per object.
//! * `dirty` — written since the last release flush.
//! * `twin` — a twin snapshot exists for the current interval.
//! * `slot+1` (28 bits) — index into the side slab holding the cache payload, twin
//!   and version pair; 0 means no slot (home-resident and never-faulted entries
//!   carry no payload).
//! * `armed_epoch` (32 bits) — epoch-lazy false-invalid arming: the trap is live
//!   iff `armed_epoch != 0 && interval_epoch >= armed_epoch`. Arming at interval
//!   open is a no-op — the profiler stamps `epoch + 1` at access time and the
//!   space's epoch counter advances at the boundary, so nobody walks an accessed
//!   set to flip states back and forth.
//!
//! ## Version-based invalidation
//!
//! Write-notice application no longer reaches into other threads' heaps. Each side
//! slot carries the `cached_version` the copy was faulted at and the highest
//! `visible` version the owning thread has *acquired* for the object; the notice
//! walk (run by the owner at lock/barrier acquire) just advances `visible`. The
//! access check treats a valid copy with `cached_version < visible` as invalid —
//! the payload and twin buffers stay allocated for the refetch to reuse.
//! `visible` deliberately tracks acquired notices, not the home copy's live
//! version: invalidating against the live version would break lazy release
//! consistency (a copy must stay usable until the thread synchronizes).
//!
//! Per-thread caching is also what gives the profiler its *per-thread* at-most-once
//! fault property: each thread's first access to an object in an interval faults
//! (real or false-invalid) in its own arena, regardless of what other threads on
//! the node did.

use jessy_net::ThreadId;

use crate::object::{AccessState, ObjectId};

pub mod reference;

const STATE_MASK: u64 = 0b11;
/// Never touched by this thread.
pub(crate) const ST_ABSENT: u64 = 0;
/// The object is homed at this thread's node; no payload slot.
pub(crate) const ST_HOME: u64 = 1;
/// A cache copy that may be usable (subject to the version check).
pub(crate) const ST_VALID: u64 = 2;
/// An invalid (or never-faulted) cache copy.
pub(crate) const ST_INVALID: u64 = 3;

const DIRTY_BIT: u64 = 1 << 2;
const TWIN_BIT: u64 = 1 << 3;
const SLOT_SHIFT: u32 = 4;
const SLOT_BITS: u32 = 28;
const SLOT_MASK: u64 = ((1u64 << SLOT_BITS) - 1) << SLOT_SHIFT;
const EPOCH_SHIFT: u32 = 32;

#[inline(always)]
fn w_state(w: u64) -> u64 {
    w & STATE_MASK
}

#[inline(always)]
fn w_slot(w: u64) -> Option<usize> {
    let s = (w & SLOT_MASK) >> SLOT_SHIFT;
    (s != 0).then(|| s as usize - 1)
}

#[inline(always)]
fn w_armed_epoch(w: u64) -> u32 {
    (w >> EPOCH_SHIFT) as u32
}

/// Payload side of a cache entry: versions, data and twin. Buffers are retained
/// across invalidation, [`ThreadSpace::clear`] and slot reuse so steady-state
/// faulting is allocation-free.
#[derive(Debug, Default)]
struct SideEntry {
    /// Version of the home copy this cache was last synchronized with.
    cached_version: u64,
    /// Highest home version the owning thread has acquired a notice for.
    visible: u64,
    /// Cache payload.
    data: Vec<f64>,
    /// Twin snapshot taken before the first write of the current interval.
    twin: Vec<f64>,
}

/// One thread's access arena: packed entry headers plus payload side slabs.
///
/// Only the owning thread mutates a `ThreadSpace` — the GOS access path takes it by
/// `&mut`, so there is no per-access locking and no cross-thread mutation. Other
/// threads communicate exclusively through the notice board and the home copies.
#[derive(Debug)]
pub struct ThreadSpace {
    thread: ThreadId,
    /// Interval epoch; starts at 1 and bumps at every interval open.
    epoch: u32,
    /// Packed entry words, dense by [`ObjectId`].
    words: Vec<u64>,
    side: Vec<SideEntry>,
    free_slots: Vec<u32>,
    /// Objects with the dirty bit set, in first-write order (the flush worklist).
    dirty: Vec<ObjectId>,
    populated: usize,
}

impl ThreadSpace {
    /// Empty space for `thread`.
    pub fn new(thread: ThreadId) -> Self {
        ThreadSpace {
            thread,
            epoch: 1,
            words: Vec::new(),
            side: Vec::new(),
            free_slots: Vec::new(),
            dirty: Vec::new(),
            populated: 0,
        }
    }

    /// The owning thread.
    #[inline]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The current interval epoch (diagnostics; starts at 1).
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Open the next interval: traps armed for it (via
    /// [`ThreadSpace::arm_next_interval`] during the previous interval) go live.
    /// O(1) — this is the epoch-lazy replacement for walking the accessed set.
    #[inline]
    pub fn begin_interval(&mut self) {
        self.epoch += 1;
    }

    /// Number of populated entries (O(1): maintained on insert/clear).
    #[inline]
    pub fn populated(&self) -> usize {
        self.populated
    }

    #[inline(always)]
    fn word(&self, obj: ObjectId) -> u64 {
        self.words.get(obj.index()).copied().unwrap_or(0)
    }

    #[inline(always)]
    fn word_mut(&mut self, obj: ObjectId) -> &mut u64 {
        &mut self.words[obj.index()]
    }

    /// Is a valid copy stale (a notice for a newer home version was acquired)?
    #[inline(always)]
    fn word_is_stale(&self, w: u64) -> bool {
        match w_slot(w) {
            Some(s) => {
                let e = &self.side[s];
                e.cached_version < e.visible
            }
            None => false,
        }
    }

    /// Is the false-invalid trap live for this word at the current epoch?
    #[inline(always)]
    fn word_is_armed(&self, w: u64) -> bool {
        let ae = w_armed_epoch(w);
        ae != 0 && self.epoch >= ae
    }

    /// The raw state bits of `obj` with staleness folded in: a `ST_VALID` entry
    /// whose acquired `visible` version passed its `cached_version` reads as
    /// `ST_INVALID` (version-based invalidation). Returns `ST_ABSENT` for objects
    /// never touched.
    #[inline(always)]
    pub(crate) fn effective_state(&self, obj: ObjectId) -> u64 {
        let w = self.word(obj);
        let st = w_state(w);
        if st == ST_VALID && self.word_is_stale(w) {
            ST_INVALID
        } else {
            st
        }
    }

    /// The access state of `obj` as the inlined check would see it: the effective
    /// state, with a live armed trap on a usable copy reading as
    /// [`AccessState::FalseInvalid`]. `None` if this thread never touched `obj`.
    pub fn access_state(&self, obj: ObjectId) -> Option<AccessState> {
        let w = self.word(obj);
        match w_state(w) {
            ST_ABSENT => None,
            ST_HOME => Some(if self.word_is_armed(w) {
                AccessState::FalseInvalid
            } else {
                AccessState::Home
            }),
            ST_VALID if self.word_is_stale(w) => Some(AccessState::Invalid),
            ST_VALID => Some(if self.word_is_armed(w) {
                AccessState::FalseInvalid
            } else {
                AccessState::Valid
            }),
            _ => Some(AccessState::Invalid),
        }
    }

    /// Would an access to `obj` touch nothing another thread can observe? True
    /// for a hit on a valid, non-stale cache copy — it touches this arena only
    /// — and for a hit on an already touched home-resident entry when
    /// `still_local()` says the object is still local to this thread: the
    /// home payload of an object nobody else holds an entry for or can reach
    /// is as private as a copy. A live armed trap changes neither answer: the
    /// trap's service routine and the profiler hook behind it work on this
    /// arena, the thread's own OAL buffer and its own sampling view
    /// (`jessy_core::ThreadProfiler`), none of which another task reads or
    /// writes. Any other home hit is excluded (the home payload is shared
    /// with fetching and flushing threads), as are stale copies, real faults
    /// and first touches. `still_local` is consulted for home entries only, so
    /// cache hits and faults never pay for the lookup. Read-only; the runtime
    /// classifies an access with it before making it.
    #[inline]
    pub fn is_private_hit(&self, obj: ObjectId, still_local: impl FnOnce() -> bool) -> bool {
        let w = self.word(obj);
        match w_state(w) {
            ST_VALID => !self.word_is_stale(w),
            ST_HOME => still_local(),
            _ => false,
        }
    }

    // ------------------------------------------------------------------ arming

    /// Arm false-invalid traps on `objs` for the *current* interval (footprint
    /// probes and Nonstop re-arming, Section III.A.2). Only entries holding usable
    /// data are armed — an invalid cache takes a real (loggable) fault anyway.
    /// Returns how many traps were armed.
    pub fn arm_traps(&mut self, objs: impl IntoIterator<Item = ObjectId>) -> usize {
        let epoch = self.epoch;
        let mut armed = 0;
        for obj in objs {
            if self.arm_at(obj, epoch) {
                armed += 1;
            }
        }
        armed
    }

    /// Arm false-invalid traps, for the *current* interval, on every populated
    /// entry satisfying `pred` (the rate-change re-sync: a coordinator
    /// resampling walk retags shared headers but cannot reach this arena, so
    /// re-sampled objects whose armed chain died while unsampled would
    /// otherwise never trap again). Returns `(visited, armed)`: populated
    /// entries walked (the caller charges walk cost per entry) and traps
    /// actually armed.
    pub fn arm_matching(&mut self, mut pred: impl FnMut(ObjectId) -> bool) -> (usize, usize) {
        let epoch = self.epoch;
        let mut visited = 0;
        let mut armed = 0;
        for i in 0..self.words.len() {
            if self.words[i] == 0 {
                continue;
            }
            visited += 1;
            let obj = ObjectId(i as u32);
            if pred(obj) && self.arm_at(obj, epoch) {
                armed += 1;
            }
        }
        (visited, armed)
    }

    /// Arm a false-invalid trap on `obj` that goes live at the *next* interval open
    /// (the per-interval re-arming of Section II.A, fused into access logging —
    /// no accessed-set walk at the interval boundary). Returns whether a trap was
    /// armed.
    #[inline]
    pub fn arm_next_interval(&mut self, obj: ObjectId) -> bool {
        self.arm_at(obj, self.epoch + 1)
    }

    fn arm_at(&mut self, obj: ObjectId, epoch: u32) -> bool {
        match self.effective_state(obj) {
            ST_HOME | ST_VALID => {
                let w = self.word_mut(obj);
                *w = (*w & !(u64::from(u32::MAX) << EPOCH_SHIFT))
                    | (u64::from(epoch) << EPOCH_SHIFT);
                true
            }
            _ => false,
        }
    }

    /// Clear the armed trap (it fired, or a real fault superseded it).
    #[inline(always)]
    pub(crate) fn disarm(&mut self, obj: ObjectId) {
        *self.word_mut(obj) &= !(u64::from(u32::MAX) << EPOCH_SHIFT);
    }

    // ------------------------------------------------------------------ fast-path internals

    /// The packed word for `obj` (0 = absent / out of range).
    #[inline(always)]
    pub(crate) fn peek(&self, obj: ObjectId) -> u64 {
        self.word(obj)
    }

    /// Is the word's trap live at the current epoch? (Companion to [`Self::peek`].)
    #[inline(always)]
    pub(crate) fn peek_armed(&self, w: u64) -> bool {
        self.word_is_armed(w)
    }

    /// Is the word a stale valid copy? (Companion to [`Self::peek`].)
    #[inline(always)]
    pub(crate) fn peek_stale(&self, w: u64) -> bool {
        w_state(w) == ST_VALID && self.word_is_stale(w)
    }

    /// First touch: create the entry as home-resident (`home == true`) or as a
    /// never-faulted invalid cache.
    pub(crate) fn insert(&mut self, obj: ObjectId, home: bool) {
        if self.words.len() <= obj.index() {
            self.words.resize(obj.index() + 1, 0);
        }
        debug_assert_eq!(w_state(self.words[obj.index()]), ST_ABSENT);
        self.words[obj.index()] = if home { ST_HOME } else { ST_INVALID };
        self.populated += 1;
    }

    /// Demote a stale valid copy to invalid (its acquired `visible` version passed
    /// the cached one). Payload and twin buffers stay for the refetch to reuse.
    pub(crate) fn demote_stale(&mut self, obj: ObjectId) {
        let w = self.word_mut(obj);
        debug_assert_eq!(w_state(*w), ST_VALID);
        debug_assert!(*w & DIRTY_BIT == 0, "stale copy with unflushed writes");
        *w = (*w & !(STATE_MASK | TWIN_BIT)) | ST_INVALID;
    }

    /// Install a fetched/prefetched copy: ensures a side slot, copies the payload,
    /// records the version and makes the entry a valid cache. Clears any lingering
    /// armed trap (the seed equivalent — overwriting the state word — did the
    /// same). Dirty/twin bits are preserved (always clear on the fault path).
    pub(crate) fn install_copy(&mut self, obj: ObjectId, data: &[f64], version: u64) {
        if self.words.len() <= obj.index() {
            self.words.resize(obj.index() + 1, 0);
        }
        let w = self.words[obj.index()];
        if w_state(w) == ST_ABSENT {
            self.populated += 1;
        }
        let slot = match w_slot(w) {
            Some(s) => s,
            None => {
                let s = self.alloc_slot();
                // Fresh (or recycled-from-another-object) slot: reset the
                // visibility watermark; the fetched version covers every notice
                // this thread has acquired for the object.
                self.side[s].visible = 0;
                s
            }
        };
        let e = &mut self.side[slot];
        e.data.clear();
        e.data.extend_from_slice(data);
        e.cached_version = version;
        let keep = w & (DIRTY_BIT | TWIN_BIT);
        self.words[obj.index()] =
            ST_VALID | keep | (((slot as u64) + 1) << SLOT_SHIFT);
    }

    fn alloc_slot(&mut self) -> usize {
        match self.free_slots.pop() {
            Some(s) => s as usize,
            None => {
                assert!(
                    self.side.len() < (1 << SLOT_BITS) - 1,
                    "side slab full (2^28 cache copies per thread)"
                );
                self.side.push(SideEntry::default());
                self.side.len() - 1
            }
        }
    }

    #[inline(always)]
    fn slot_of(&self, obj: ObjectId) -> usize {
        w_slot(self.word(obj)).expect("cache entry without side slot")
    }

    /// The cache payload length in words (valid cache entries only).
    #[inline(always)]
    pub(crate) fn data_len(&self, obj: ObjectId) -> usize {
        self.side[self.slot_of(obj)].data.len()
    }

    /// Mutable cache payload (valid cache entries only).
    #[inline(always)]
    pub(crate) fn data_mut(&mut self, obj: ObjectId) -> &mut [f64] {
        let slot = self.slot_of(obj);
        &mut self.side[slot].data
    }

    /// Disjoint borrows of several cache payloads: `target`'s mutably and each
    /// of `reads`' shared (`None` members borrow nothing). The members must be
    /// distinct valid cache entries.
    pub(crate) fn group_payloads<const N: usize>(
        &mut self,
        target: Option<ObjectId>,
        reads: [Option<ObjectId>; N],
    ) -> (Option<&mut [f64]>, [Option<&[f64]>; N]) {
        let slots = reads.map(|obj| obj.map(|obj| self.slot_of(obj)));
        let Some(target) = target else {
            return (None, slots.map(|s| s.map(|s| &self.side[s].data[..])));
        };
        let t = self.slot_of(target);
        let (below, rest) = self.side.split_at_mut(t);
        let (target, above) = rest.split_first_mut().expect("the target's slot exists");
        let reads = slots.map(|s| {
            s.map(|s| match s.cmp(&t) {
                std::cmp::Ordering::Less => &below[s].data[..],
                std::cmp::Ordering::Greater => &above[s - t - 1].data[..],
                std::cmp::Ordering::Equal => unreachable!("two members share a slot"),
            })
        });
        (Some(&mut target.data), reads)
    }

    /// Does the word carry the dirty bit?
    #[inline(always)]
    pub(crate) fn dirty_bit(&self, w: u64) -> bool {
        w & DIRTY_BIT != 0
    }

    /// Does the word carry the twin bit?
    #[inline(always)]
    pub(crate) fn twin_bit(&self, w: u64) -> bool {
        w & TWIN_BIT != 0
    }

    /// Set the dirty bit and enqueue `obj` on the flush worklist.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, obj: ObjectId) {
        *self.word_mut(obj) |= DIRTY_BIT;
        self.dirty.push(obj);
    }

    #[inline]
    pub(crate) fn clear_dirty_bit(&mut self, obj: ObjectId) {
        *self.word_mut(obj) &= !DIRTY_BIT;
    }

    /// Snapshot the payload into the twin buffer (first write of the interval).
    pub(crate) fn make_twin(&mut self, obj: ObjectId) {
        let slot = self.slot_of(obj);
        let e = &mut self.side[slot];
        e.twin.clear();
        e.twin.extend_from_slice(&e.data);
        *self.word_mut(obj) |= TWIN_BIT;
    }

    /// Drop the twin (flush consumed it); the buffer is retained for reuse.
    #[inline]
    pub(crate) fn drop_twin(&mut self, obj: ObjectId) {
        *self.word_mut(obj) &= !TWIN_BIT;
    }

    /// Run `f` over `(twin, data)` of a dirty valid copy (the release-time diff).
    pub(crate) fn with_twin_and_data<R>(
        &mut self,
        obj: ObjectId,
        f: impl FnOnce(&[f64], &[f64]) -> R,
    ) -> R {
        let e = &self.side[self.slot_of(obj)];
        f(&e.twin, &e.data)
    }

    /// The version the cache copy was last synchronized with.
    #[inline(always)]
    pub(crate) fn cached_version(&self, obj: ObjectId) -> u64 {
        self.side[self.slot_of(obj)].cached_version
    }

    /// Record that the flush synchronized the copy with home version `v`.
    #[inline]
    pub(crate) fn set_cached_version(&mut self, obj: ObjectId, v: u64) {
        let slot = self.slot_of(obj);
        self.side[slot].cached_version = v;
    }

    /// Advance the acquired-visibility watermark (notice application). The copy
    /// reads as invalid once `visible` passes `cached_version` — no state flip, no
    /// payload drop.
    #[inline]
    pub(crate) fn note_visible(&mut self, obj: ObjectId, v: u64) {
        let slot = self.slot_of(obj);
        let e = &mut self.side[slot];
        e.visible = e.visible.max(v);
    }

    /// Home-migration repair: the object's home moved away from under a
    /// home-resident entry, which becomes an ordinary cold cache entry (the next
    /// access faults from the new home). Any pending dirty bit is dropped — home
    /// writes mutated the (now migrated) home copy in place, so no data is lost.
    pub(crate) fn reset_to_cold(&mut self, obj: ObjectId) {
        let w = self.word(obj);
        if let Some(s) = w_slot(w) {
            self.free_slots.push(s as u32);
        }
        *self.word_mut(obj) = ST_INVALID;
    }

    /// Every object this thread has an access entry for (home-resident, cached
    /// or invalid), in object-id order. This is the thread's de-facto working
    /// set — the sticky-set resolver roots its walk here so a migrating thread
    /// carries *its own* objects, not whatever a shared container enumerates
    /// first.
    pub fn touched_objects(&self) -> Vec<ObjectId> {
        (0..self.words.len())
            .filter(|&i| self.words[i] != 0)
            .map(|i| ObjectId(i as u32))
            .collect()
    }

    /// Home-migration repair, the inbound side: the object's home migrated *onto*
    /// this node after first touch, so a fault on the (invalid) entry is served
    /// from the now-local home copy and the entry rebinds to home-resident for
    /// good. The side slot is recycled; an invalid copy cannot carry unflushed
    /// writes.
    pub(crate) fn promote_home(&mut self, obj: ObjectId) {
        let w = self.word(obj);
        debug_assert_eq!(w_state(w), ST_INVALID);
        debug_assert!(w & DIRTY_BIT == 0, "invalid copy with unflushed writes");
        if let Some(s) = w_slot(w) {
            self.free_slots.push(s as u32);
        }
        *self.word_mut(obj) = ST_HOME;
    }

    /// Take the flush worklist (callers return it via
    /// [`ThreadSpace::recycle_dirty`] so the buffer is reused).
    pub(crate) fn take_dirty(&mut self) -> Vec<ObjectId> {
        std::mem::take(&mut self.dirty)
    }

    /// Is the flush worklist empty?
    #[inline]
    pub(crate) fn dirty_is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Return the (drained) worklist buffer so its capacity is reused.
    pub(crate) fn recycle_dirty(&mut self, mut buf: Vec<ObjectId>) {
        buf.clear();
        debug_assert!(self.dirty.is_empty());
        self.dirty = buf;
    }

    // ------------------------------------------------------------------ migration

    /// Forget every entry — the thread landed on a new node (migration) and starts
    /// with a fresh view of the heap. The arena allocation is recycled: the word
    /// table keeps its length (zeroed), side slots go on the free list and their
    /// payload/twin buffers keep their capacity, so a migrated thread does not
    /// re-grow its arena from nothing.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.free_slots.clear();
        self.free_slots
            .extend((0..self.side.len() as u32).rev());
        for e in &mut self.side {
            e.cached_version = 0;
            e.visible = 0;
        }
        self.dirty.clear();
        self.populated = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ThreadSpace {
        ThreadSpace::new(ThreadId(0))
    }

    #[test]
    fn lazy_entry_creation_and_populated_count() {
        let mut ts = space();
        assert!(ts.access_state(ObjectId(3)).is_none());
        assert_eq!(ts.populated(), 0);
        ts.insert(ObjectId(3), false);
        assert_eq!(ts.access_state(ObjectId(3)), Some(AccessState::Invalid));
        assert_eq!(ts.populated(), 1);
        ts.insert(ObjectId(0), true);
        assert_eq!(ts.access_state(ObjectId(0)), Some(AccessState::Home));
        assert_eq!(ts.populated(), 2, "count maintained, not scanned");
    }

    #[test]
    fn install_makes_a_valid_copy_with_version() {
        let mut ts = space();
        ts.insert(ObjectId(1), false);
        ts.install_copy(ObjectId(1), &[1.0, 2.0], 7);
        assert_eq!(ts.access_state(ObjectId(1)), Some(AccessState::Valid));
        assert_eq!(ts.cached_version(ObjectId(1)), 7);
        assert_eq!(ts.data_mut(ObjectId(1)), &mut [1.0, 2.0][..]);
    }

    #[test]
    fn version_based_invalidation_is_lazy() {
        let mut ts = space();
        ts.insert(ObjectId(1), false);
        ts.install_copy(ObjectId(1), &[1.0], 3);
        // A notice for an older-or-equal version leaves the copy usable.
        ts.note_visible(ObjectId(1), 3);
        assert_eq!(ts.access_state(ObjectId(1)), Some(AccessState::Valid));
        // A newer acquired version makes it read as invalid, without dropping data.
        ts.note_visible(ObjectId(1), 4);
        assert_eq!(ts.access_state(ObjectId(1)), Some(AccessState::Invalid));
        assert_eq!(ts.effective_state(ObjectId(1)), ST_INVALID);
        // Refetch reuses the entry and goes valid again.
        ts.demote_stale(ObjectId(1));
        ts.install_copy(ObjectId(1), &[2.0], 4);
        assert_eq!(ts.access_state(ObjectId(1)), Some(AccessState::Valid));
    }

    #[test]
    fn epoch_lazy_arming_fires_only_from_its_epoch() {
        let mut ts = space();
        ts.insert(ObjectId(2), true);
        assert!(ts.arm_next_interval(ObjectId(2)));
        // Not live in the interval that armed it…
        assert_eq!(ts.access_state(ObjectId(2)), Some(AccessState::Home));
        ts.begin_interval();
        // …live from the next one, and it stays live until disarmed.
        assert_eq!(ts.access_state(ObjectId(2)), Some(AccessState::FalseInvalid));
        ts.begin_interval();
        assert_eq!(ts.access_state(ObjectId(2)), Some(AccessState::FalseInvalid));
        ts.disarm(ObjectId(2));
        assert_eq!(ts.access_state(ObjectId(2)), Some(AccessState::Home));
    }

    #[test]
    fn arm_traps_is_immediate_and_skips_unusable_entries() {
        let mut ts = space();
        ts.insert(ObjectId(0), true);
        ts.insert(ObjectId(1), false); // invalid: not armable
        ts.insert(ObjectId(2), false);
        ts.install_copy(ObjectId(2), &[0.0], 1);
        ts.note_visible(ObjectId(2), 2); // stale: not armable
        ts.insert(ObjectId(3), false);
        ts.install_copy(ObjectId(3), &[0.0], 1);
        let armed = ts.arm_traps([ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3), ObjectId(9)]);
        assert_eq!(armed, 2, "home + fresh valid only");
        assert_eq!(ts.access_state(ObjectId(0)), Some(AccessState::FalseInvalid));
        assert_eq!(ts.access_state(ObjectId(3)), Some(AccessState::FalseInvalid));
        assert_eq!(ts.access_state(ObjectId(2)), Some(AccessState::Invalid));
    }

    #[test]
    fn clear_recycles_the_arena_allocation() {
        let mut ts = space();
        for i in 0..64 {
            ts.insert(ObjectId(i), false);
            ts.install_copy(ObjectId(i), &[0.0; 8], 1);
        }
        assert_eq!(ts.populated(), 64);
        let words_cap = ts.words.capacity();
        let side_len = ts.side.len();
        ts.clear();
        assert_eq!(ts.populated(), 0);
        assert!(ts.access_state(ObjectId(5)).is_none());
        assert!(ts.words.capacity() >= words_cap, "word table kept");
        assert_eq!(ts.side.len(), side_len, "side slabs kept for reuse");
        assert_eq!(ts.free_slots.len(), side_len);
        // Re-populating reuses slots instead of growing the slab.
        ts.insert(ObjectId(7), false);
        ts.install_copy(ObjectId(7), &[1.0], 2);
        assert_eq!(ts.side.len(), side_len, "no new slab entry allocated");
        assert_eq!(ts.data_mut(ObjectId(7)), &mut [1.0][..]);
    }

    #[test]
    fn dirty_and_twin_bits_round_trip() {
        let mut ts = space();
        ts.insert(ObjectId(4), false);
        ts.install_copy(ObjectId(4), &[1.0, 2.0], 1);
        let w = ts.peek(ObjectId(4));
        assert!(!ts.dirty_bit(w) && !ts.twin_bit(w));
        ts.make_twin(ObjectId(4));
        ts.mark_dirty(ObjectId(4));
        ts.data_mut(ObjectId(4))[0] = 9.0;
        let w = ts.peek(ObjectId(4));
        assert!(ts.dirty_bit(w) && ts.twin_bit(w));
        ts.with_twin_and_data(ObjectId(4), |twin, data| {
            assert_eq!(twin, &[1.0, 2.0]);
            assert_eq!(data, &[9.0, 2.0]);
        });
        let dirty = ts.take_dirty();
        assert_eq!(dirty, vec![ObjectId(4)]);
        ts.clear_dirty_bit(ObjectId(4));
        ts.drop_twin(ObjectId(4));
        ts.recycle_dirty(dirty);
        let w = ts.peek(ObjectId(4));
        assert!(!ts.dirty_bit(w) && !ts.twin_bit(w));
    }
}
