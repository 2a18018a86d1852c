//! Objects and their headers.
//!
//! The paper stores, in every object header: a 2-bit access state (including the
//! profiler-armed *false-invalid* value), the *real* state in a separate field, a
//! half-word per-class **sequence number** (Section II.B.1), and a **sampled** tag.
//! [`ObjectCore`] is our equivalent of the home copy plus the globally-visible header
//! bits; per-node cache state lives in [`crate::heap`].
//!
//! Payloads are vectors of `f64` words: every workload object (SOR row, Barnes-Hut
//! body, water molecule) is a fixed layout of doubles, which keeps twin/diff word-level
//! like the real system while staying allocation-friendly.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, AtomicU64, Ordering};

use jessy_net::{NodeId, ThreadId};

use crate::class::ClassId;

/// Bytes of an object header as charged on the wire (id + class + length + state).
pub const OBJ_HEADER_BYTES: usize = 16;

/// Globally unique object identifier (dense index into the global object table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// Raw index into the global object table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// The 2-bit access state stored in the object header of a node's copy.
///
/// `FalseInvalid` is the profiler-armed state of Section II.A: the copy is actually
/// usable (its real status is kept separately) but the next access must trap into the
/// GOS service routine so the access can be logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessState {
    /// The copy is the home copy; access always succeeds.
    Home,
    /// A valid cache copy.
    Valid,
    /// An invalid (or absent) cache copy; access faults to the home node.
    Invalid,
    /// Profiler-armed fake invalid state; access traps for logging only.
    FalseInvalid,
}

/// The *real* consistency status, stored separately so [`AccessState::FalseInvalid`]
/// can be cancelled back to it (Section II.A: "maintain object consistency according
/// to its real state").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RealState {
    /// This node is the object's home.
    HomeResident,
    /// Valid cache copy present.
    CacheValid,
    /// Cache copy stale or absent.
    CacheInvalid,
}

impl RealState {
    /// The access state corresponding to this real state (used when cancelling a
    /// false-invalid trap).
    #[inline]
    pub fn to_access_state(self) -> AccessState {
        match self {
            RealState::HomeResident => AccessState::Home,
            RealState::CacheValid => AccessState::Valid,
            RealState::CacheInvalid => AccessState::Invalid,
        }
    }
}

/// The globally shared part of an object: identity, header bits and the home copy.
#[derive(Debug)]
pub struct ObjectCore {
    /// Global id.
    pub id: ObjectId,
    /// The object's class.
    pub class: ClassId,
    home: AtomicU16,
    /// Payload length in 8-byte words. For arrays this is the element count times the
    /// per-element word width; for scalars it is the class's fixed size.
    pub len_words: u32,
    /// Per-instance (scalar) or per-element (array) size in 8-byte words, denormalized
    /// from the class descriptor so the access fast path never touches the class
    /// registry (whose lookup clones a `ClassInfo`, including its name `String`).
    pub unit_words: u32,
    /// Sequence number of the object (scalar classes) or of the first array element
    /// (array classes); later elements are `elem_seq0 + index` (Section II.B.3).
    pub elem_seq0: u64,
    /// Whether this is an array instance (per-element sampling applies).
    pub is_array: bool,
    sampled: AtomicBool,
    version: AtomicU64,
    home_data: Mutex<Vec<f64>>,
    refs: Mutex<Vec<ObjectId>>,
    /// Who holds an arena entry for the object: nobody yet ([`UNCLAIMED`], how
    /// every object starts, whoever allocated it), exactly one thread (its
    /// id), or — for good — possibly several ([`SHARED`]). The first thread
    /// whose arena gains an entry claims the object and its re-arrival after
    /// a migration changes nothing; any other thread's arrival shares it
    /// ([`ObjectCore::arrive`]), as do a reference edge to it and home
    /// migration, from any state ([`ObjectCore::publish`]). While one thread
    /// holds the only entry, nobody else has a copy, receives the object's
    /// notices or has fetched it, so the holder's home hits touch nothing
    /// another task can observe and the runtime schedules them like cache
    /// hits (DESIGN.md §15). The claim is a compare-exchange — `Gos` may be
    /// driven free-threaded, and two racing first touchers must not both
    /// own; it is `AcqRel`, the stores `Release` and the loads `Acquire`. The
    /// payload the word speaks for sits behind `home_data`'s own lock, and
    /// under the executor every store and load is already ordered by the run
    /// token's hand-off.
    local_to: AtomicU32,
}

/// `local_to` value of an object more than one thread holds, or may hold.
const SHARED: u32 = u32::MAX;
/// `local_to` value of an object no thread has touched yet.
const UNCLAIMED: u32 = u32::MAX - 1;

impl ObjectCore {
    /// Create a home copy with a zeroed payload.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ObjectId,
        class: ClassId,
        home: NodeId,
        len_words: u32,
        unit_words: u32,
        elem_seq0: u64,
        is_array: bool,
        sampled: bool,
    ) -> Self {
        ObjectCore {
            id,
            class,
            home: AtomicU16::new(home.0),
            len_words,
            unit_words: unit_words.max(1),
            elem_seq0,
            is_array,
            sampled: AtomicBool::new(sampled),
            version: AtomicU64::new(0),
            home_data: Mutex::new(vec![0.0; len_words as usize]),
            refs: Mutex::new(Vec::new()),
            local_to: AtomicU32::new(UNCLAIMED),
        }
    }

    /// `thread`'s arena gained an entry for the object. The first arriver
    /// claims it; the owner arriving again (its arena was dropped by its own
    /// migration) changes nothing; anybody else's arrival shares it for good.
    #[inline]
    pub fn arrive(&self, thread: ThreadId) {
        debug_assert!(thread.0 < UNCLAIMED);
        let claim = self.local_to.compare_exchange(
            UNCLAIMED,
            thread.0,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if claim.is_err_and(|holder| holder != thread.0) {
            self.publish();
        }
    }

    /// Does `thread` hold the only arena entry for the object?
    #[inline]
    pub fn is_local_to(&self, thread: ThreadId) -> bool {
        self.local_to.load(Ordering::Acquire) == thread.0
    }

    /// The object became reachable by threads that hold no entry for it — it
    /// is the target of a reference edge or its home moved — or a second
    /// thread's arena gained an entry: it is shared, for good, whatever state
    /// it was in.
    #[inline]
    pub fn publish(&self) {
        self.local_to.store(SHARED, Ordering::Release);
    }

    /// The object's outgoing reference fields — the connectivity graph that sticky-set
    /// resolution (Section III.A.3) and connectivity-based prefetching traverse.
    /// Reference fields are maintained by the application alongside the data payload
    /// (a Java object's pointer fields vs. its primitive fields).
    pub fn refs(&self) -> Vec<ObjectId> {
        self.refs.lock().clone()
    }

    /// Run `f` over the outgoing reference fields without copying them — what
    /// graph traversals use. `f` runs under this object's reference lock: it
    /// must not touch the same object's references ([`ObjectCore::refs`],
    /// [`ObjectCore::add_ref`], [`ObjectCore::set_refs`] or a nested
    /// `with_refs`), or it deadlocks.
    #[inline]
    pub fn with_refs<R>(&self, f: impl FnOnce(&[ObjectId]) -> R) -> R {
        f(&self.refs.lock())
    }

    /// Append an outgoing reference. Low level: the target is not published
    /// ([`ObjectCore::publish`]) — mid-run code goes through `Gos::add_ref`.
    pub fn add_ref(&self, target: ObjectId) {
        self.refs.lock().push(target);
    }

    /// Replace the outgoing reference list. Low level, like
    /// [`ObjectCore::add_ref`]: mid-run code goes through `Gos::set_refs`.
    pub fn set_refs(&self, targets: Vec<ObjectId>) {
        *self.refs.lock() = targets;
    }

    /// The object's current home node. Homes start at the allocating node and can be
    /// relocated by [`ObjectCore::set_home`] (the home-migration optimization the
    /// paper's experiments run with).
    #[inline]
    pub fn home(&self) -> NodeId {
        NodeId(self.home.load(Ordering::Acquire))
    }

    /// Relocate the home (home migration; the caller accounts the transfer and posts
    /// the invalidating write notice).
    #[inline]
    pub fn set_home(&self, home: NodeId) {
        self.home.store(home.0, Ordering::Release);
    }

    /// Payload size in bytes (what an object fault moves, excluding headers).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.len_words as usize * 8
    }

    /// Element count: `len_words / unit_words` for arrays, 1 for scalars.
    #[inline]
    pub fn len_elems(&self) -> u32 {
        if self.is_array {
            self.len_words / self.unit_words
        } else {
            1
        }
    }

    /// Is the object currently tagged as sampled?
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.sampled.load(Ordering::Relaxed)
    }

    /// (Re)tag the object as sampled/unsampled — used at allocation and during
    /// resampling walks after a rate change (Section II.B.2).
    #[inline]
    pub fn set_sampled(&self, sampled: bool) {
        self.sampled.store(sampled, Ordering::Relaxed);
    }

    /// Current home-copy version (bumped on every applied write interval).
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Bump the home version, returning the new value.
    #[inline]
    pub fn bump_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Run `f` over the home copy's payload (shared lock discipline: always acquire the
    /// per-node cache-entry lock *before* this one).
    pub fn with_home_data<R>(&self, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        f(&mut self.home_data.lock())
    }

    /// Clone the home payload (an object fault's data transfer).
    pub fn snapshot_home(&self) -> Vec<f64> {
        self.home_data.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn core() -> ObjectCore {
        ObjectCore::new(ObjectId(7), ClassId(1), NodeId(2), 4, 4, 100, false, true)
    }

    #[test]
    fn header_fields_and_sizes() {
        let o = core();
        assert_eq!(o.payload_bytes(), 32);
        assert!(o.is_sampled());
        o.set_sampled(false);
        assert!(!o.is_sampled());
        assert_eq!(o.id.to_string(), "o7");
    }

    #[test]
    fn version_bumps_monotonically() {
        let o = core();
        assert_eq!(o.version(), 0);
        assert_eq!(o.bump_version(), 1);
        assert_eq!(o.bump_version(), 2);
        assert_eq!(o.version(), 2);
    }

    #[test]
    fn home_data_roundtrip() {
        let o = core();
        o.with_home_data(|d| d[2] = 3.5);
        assert_eq!(o.snapshot_home(), vec![0.0, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn reference_fields_form_a_graph() {
        let o = core();
        assert!(o.refs().is_empty());
        o.add_ref(ObjectId(1));
        o.add_ref(ObjectId(2));
        assert_eq!(o.refs(), vec![ObjectId(1), ObjectId(2)]);
        o.set_refs(vec![ObjectId(9)]);
        assert_eq!(o.refs(), vec![ObjectId(9)]);
        assert_eq!(o.with_refs(|r| r.to_vec()), o.refs());
    }

    /// Which of threads 0..4 the object is local to.
    fn holders(o: &ObjectCore) -> Vec<u32> {
        (0..4).filter(|&t| o.is_local_to(ThreadId(t))).collect()
    }

    #[test]
    fn the_first_arriver_owns_until_a_second_thread_arrives() {
        let o = core();
        assert!(holders(&o).is_empty(), "objects start unclaimed");
        o.arrive(ThreadId(3));
        assert_eq!(holders(&o), [3]);
        o.arrive(ThreadId(3));
        assert_eq!(holders(&o), [3], "the owner's re-arrival changes nothing");
        o.arrive(ThreadId(1));
        assert!(holders(&o).is_empty(), "the second arriver does not take over");
        o.arrive(ThreadId(3));
        o.arrive(ThreadId(2));
        assert!(holders(&o).is_empty(), "shared for good");
    }

    #[test]
    fn publish_shares_from_every_state() {
        let unclaimed = core();
        unclaimed.publish();
        unclaimed.arrive(ThreadId(2));
        assert!(holders(&unclaimed).is_empty(), "published before anyone arrived");

        let owned = core();
        owned.arrive(ThreadId(0));
        owned.publish();
        assert!(holders(&owned).is_empty());
        owned.arrive(ThreadId(0));
        assert!(holders(&owned).is_empty(), "the former owner does not reclaim");

        let shared = core();
        shared.arrive(ThreadId(0));
        shared.arrive(ThreadId(1));
        shared.publish();
        assert!(holders(&shared).is_empty());
    }

    proptest! {
        /// Any sequence of arrivals (ops 0–3: that thread) and publications
        /// (op 4), checked after every step against the three-state machine.
        #[test]
        fn ownership_follows_the_three_state_machine(
            ops in prop::collection::vec(0u32..5, 0..24),
        ) {
            let o = core();
            let mut first_arriver = None;
            let mut shared = false;
            let mut ever_owned = Vec::new();
            for op in ops {
                if op == 4 {
                    o.publish();
                    shared = true;
                } else {
                    o.arrive(ThreadId(op));
                    shared |= first_arriver.is_some_and(|first| first != op);
                    first_arriver.get_or_insert(op);
                }
                let now = holders(&o);
                if shared {
                    prop_assert!(now.is_empty(), "shared, yet local to {now:?}");
                } else {
                    prop_assert_eq!(&now, &Vec::from_iter(first_arriver));
                }
                ever_owned.extend(now);
                ever_owned.dedup();
                prop_assert!(ever_owned.len() <= 1, "owned in turn by {ever_owned:?}");
            }
        }
    }

    #[test]
    fn false_invalid_cancels_to_real_state() {
        assert_eq!(RealState::HomeResident.to_access_state(), AccessState::Home);
        assert_eq!(RealState::CacheValid.to_access_state(), AccessState::Valid);
        assert_eq!(RealState::CacheInvalid.to_access_state(), AccessState::Invalid);
    }
}
