//! Adaptive object sampling (Section II.B).
//!
//! ## Rates and gaps
//!
//! The paper expresses sampling rates relative to the page size: rate `nX` means
//! "sample `n` objects per 4 KB page of instances", so a class of instance (or array
//! element) size `s` gets a **nominal gap** of `SP / (s·n)`, rounded to the nearest
//! prime (`jessy_gos::prime`) to defeat cyclic allocation patterns. Once the nominal
//! gap reaches 1 the class is at **full sampling** and cannot be refined further.
//!
//! ## The sampled decision
//!
//! A scalar instance with per-class sequence number `q` is sampled iff `q ≡ 0 (mod
//! gap)`. An array whose elements carry consecutive sequence numbers `q₀ … q₀+L-1` is
//! sampled iff *any* element's number is divisible — and the number of logically
//! sampled elements is exactly the count of such multiples (Section II.B.3, Fig. 3b).
//!
//! ## Amortization and unbiasedness
//!
//! When a sampled array is accessed, the paper logs the **amortized size** `sampled
//! elements × element size` instead of the full array size, keeping large arrays from
//! skewing the correlation map. We additionally scale every logged size by the class
//! gap when accruing the TCM, making the estimator Horvitz–Thompson unbiased:
//!
//! * scalar: sampled with probability `1/gap`, contributes `s · gap` → expectation `s`;
//! * array `L ≥ gap`: always sampled, contributes `≈ (L/gap)·e·gap = L·e` (its size);
//! * array `L < gap`: sampled with probability `L/gap`, contributes `e · gap` →
//!   expectation `L·e`.
//!
//! Without this scaling, coarse rates would shrink the whole map by `≈ gap` and the
//! paper's ≥95 % accuracies would be unreachable; with it they fall out naturally.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

use jessy_gos::prime::nearest_prime;
use jessy_gos::ClassId;

/// The page size `SP` of the `nX` rate notation (4 KB in the paper).
pub const PAGE_SIZE: u32 = 4096;

/// A page-relative sampling rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SamplingRate {
    /// `n` samples per page worth of instances (`nX` in the paper).
    NX(u32),
    /// Every object sampled.
    Full,
}

impl SamplingRate {
    /// The nominal gap for a class of `unit_bytes`-sized instances/elements under page
    /// size `page_size`: `SP / (s·n)`, clamped to at least 1.
    pub fn nominal_gap(self, unit_bytes: usize, page_size: u32) -> u64 {
        match self {
            SamplingRate::Full => 1,
            SamplingRate::NX(n) => {
                assert!(n > 0, "0X is not a rate");
                let denom = unit_bytes as u64 * n as u64;
                (page_size as u64 / denom.max(1)).max(1)
            }
        }
    }

    /// The next finer rate on the ladder (1X → 2X → 4X → … → Full). Stepping a rate
    /// whose gap is already 1 for the given class yields `Full`.
    pub fn step_up(self, unit_bytes: usize, page_size: u32) -> SamplingRate {
        match self {
            SamplingRate::Full => SamplingRate::Full,
            SamplingRate::NX(n) => {
                let next = SamplingRate::NX(n.saturating_mul(2));
                if next.nominal_gap(unit_bytes, page_size) <= 1 {
                    SamplingRate::Full
                } else {
                    next
                }
            }
        }
    }

    /// The next coarser rate on the ladder (Full → largest `n` with a gap above 1,
    /// then nX → n/2 X → … → 1X). Stepping `1X` — the coarsest rate the paper uses —
    /// yields `1X` again, so the controller's degradation ladder terminates.
    pub fn step_down(self, unit_bytes: usize, page_size: u32) -> SamplingRate {
        match self {
            SamplingRate::NX(n) if n > 1 => SamplingRate::NX(n / 2),
            SamplingRate::NX(_) => SamplingRate::NX(1),
            SamplingRate::Full => {
                // Find the finest nX that is *not* equivalent to full sampling: the
                // largest power of two whose nominal gap still exceeds 1. Classes whose
                // unit spans a page have gap 1 at every rate; they stay at 1X.
                let mut best = SamplingRate::NX(1);
                let mut n = 1u32;
                while SamplingRate::NX(n).nominal_gap(unit_bytes, page_size) > 1 {
                    best = SamplingRate::NX(n);
                    n = n.saturating_mul(2);
                }
                best
            }
        }
    }

    /// Human-readable label ("4X", "full").
    pub fn label(self) -> String {
        match self {
            SamplingRate::NX(n) => format!("{n}X"),
            SamplingRate::Full => "full".to_string(),
        }
    }
}

/// Count of multiples of `gap` in `[start, start + len)` — the logically sampled
/// element count of Fig. 3(b).
#[inline]
pub fn multiples_in(start: u64, len: u64, gap: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    if gap <= 1 {
        return len;
    }
    let hi = (start + len - 1) / gap + 1;
    let lo = if start == 0 { 0 } else { (start - 1) / gap + 1 };
    hi - lo
}

/// Per-class sampling state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassGapState {
    /// The class's instance/element size in bytes (the `s` of the gap formula).
    pub unit_bytes: usize,
    /// Current rate on the ladder.
    pub rate: SamplingRate,
    /// Nominal (power-of-two-ish) gap.
    pub nominal_gap: u64,
    /// Real (prime) gap actually used for the divisibility test.
    pub real_gap: u64,
}

impl ClassGapState {
    /// Logically sampled element count of an object whose elements carry the
    /// sequence numbers `seq0 .. seq0 + len_elems` (scalars: `len_elems == 1`,
    /// so 0 or 1). Zero means the object is not sampled. The one place the
    /// sampling arithmetic lives: [`GapTable`] and every thread's copy of it
    /// both decide through here.
    #[inline]
    pub fn sampled_elems(&self, seq0: u64, len_elems: u32) -> u64 {
        multiples_in(seq0, len_elems as u64, self.real_gap)
    }

    /// The gap-scaled (Horvitz–Thompson) contribution used when accruing the
    /// TCM: sampled elements × unit size × gap.
    #[inline]
    pub fn scaled_bytes(&self, seq0: u64, len_elems: u32) -> u64 {
        self.sampled_elems(seq0, len_elems) * self.unit_bytes as u64 * self.real_gap
    }
}

/// The shared table of per-class sampling gaps. Threads consult it on every
/// allocation; the adaptive controller updates it on rate changes.
///
/// ```
/// use jessy_core::sampling::GapTable;
/// use jessy_core::SamplingRate;
/// use jessy_gos::ClassId;
///
/// let gaps = GapTable::new(4096);
/// let body = ClassId(0);
/// gaps.register_class(body, 64, SamplingRate::NX(1)); // 64-byte class at 1X
/// assert_eq!(gaps.state(body).nominal_gap, 64);
/// assert_eq!(gaps.gap(body), 67, "nearest prime");
/// assert!(gaps.decide_sampled(body, 134, 1)); // 134 = 2 * 67
/// // The gap-scaled estimate is unbiased: size * gap when sampled.
/// assert_eq!(gaps.scaled_bytes(body, 134, 1), 64 * 67);
/// ```
#[derive(Debug)]
pub struct GapTable {
    page_size: u32,
    states: RwLock<Vec<Option<ClassGapState>>>,
    /// Bumped on every rate mutation. Threads compare it before each visible
    /// access and at interval opens to bring their copy of the table up to
    /// date ([`GapTable::snapshot_into`]), and at interval opens to re-arm
    /// traps for objects that regained the sampled tag (their armed chain
    /// died while unsampled).
    generation: AtomicU64,
}

impl GapTable {
    /// Empty table for the given page size.
    pub fn new(page_size: u32) -> Self {
        GapTable {
            page_size,
            states: RwLock::new(Vec::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// The rate-change generation: 0 until the first [`GapTable::set_rate`],
    /// then monotonically increasing. A thread that sees it move re-syncs its
    /// trap arming against the headers the resampling walk retagged.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Copy every class's state into `view` (a thread's sampling view) and
    /// return the generation the copy is at least as new as: the generation
    /// is read first, so a rate change racing the copy makes the next
    /// comparison fail and the copy repeat, never go stale.
    pub fn snapshot_into(&self, view: &mut Vec<Option<ClassGapState>>) -> u64 {
        let generation = self.generation();
        view.clone_from(&self.states.read());
        generation
    }

    /// The page size `SP`.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Register a class with its unit size and initial rate.
    pub fn register_class(&self, class: ClassId, unit_bytes: usize, rate: SamplingRate) {
        let nominal = rate.nominal_gap(unit_bytes, self.page_size);
        let state = ClassGapState {
            unit_bytes,
            rate,
            nominal_gap: nominal,
            real_gap: nearest_prime(nominal),
        };
        let mut states = self.states.write();
        if states.len() <= class.index() {
            states.resize(class.index() + 1, None);
        }
        states[class.index()] = Some(state);
    }

    /// Current state of a class.
    ///
    /// # Panics
    /// If the class was never registered.
    pub fn state(&self, class: ClassId) -> ClassGapState {
        self.states
            .read()
            .get(class.index())
            .copied()
            .flatten()
            .expect("class not registered with GapTable")
    }

    /// Current real (prime) gap of a class.
    #[inline]
    pub fn gap(&self, class: ClassId) -> u64 {
        self.state(class).real_gap
    }

    /// Set a class's rate, recomputing gaps. Returns the new state.
    pub fn set_rate(&self, class: ClassId, rate: SamplingRate) -> ClassGapState {
        let mut states = self.states.write();
        let slot = states[class.index()]
            .as_mut()
            .expect("class not registered with GapTable");
        slot.rate = rate;
        slot.nominal_gap = rate.nominal_gap(slot.unit_bytes, self.page_size);
        slot.real_gap = nearest_prime(slot.nominal_gap);
        let state = *slot;
        drop(states);
        self.generation.fetch_add(1, Ordering::Release);
        state
    }

    /// Step a class one rate finer. Returns the new state.
    pub fn step_up(&self, class: ClassId) -> ClassGapState {
        let cur = self.state(class);
        let next = cur.rate.step_up(cur.unit_bytes, self.page_size);
        self.set_rate(class, next)
    }

    /// Step a class one rate coarser (the degradation ladder's first lever).
    /// Returns the new state.
    pub fn step_down(&self, class: ClassId) -> ClassGapState {
        let cur = self.state(class);
        let next = cur.rate.step_down(cur.unit_bytes, self.page_size);
        self.set_rate(class, next)
    }

    /// Is an object (scalar: `len_elems == 1`) with first sequence number `seq0`
    /// sampled under the class's current gap?
    #[inline]
    pub fn decide_sampled(&self, class: ClassId, seq0: u64, len_elems: u32) -> bool {
        self.state(class).sampled_elems(seq0, len_elems) > 0
    }

    /// Logically sampled element count of an array (scalars: 0 or 1).
    pub fn sampled_elems(&self, class: ClassId, seq0: u64, len_elems: u32) -> u64 {
        self.state(class).sampled_elems(seq0, len_elems)
    }

    /// The amortized logged size of Section II.B.3: sampled elements × unit size.
    pub fn amortized_bytes(&self, class: ClassId, seq0: u64, len_elems: u32) -> u64 {
        let st = self.state(class);
        st.sampled_elems(seq0, len_elems) * st.unit_bytes as u64
    }

    /// The gap-scaled (Horvitz–Thompson) contribution used when accruing the TCM.
    pub fn scaled_bytes(&self, class: ClassId, seq0: u64, len_elems: u32) -> u64 {
        self.state(class).scaled_bytes(seq0, len_elems)
    }

    /// All registered classes.
    pub fn classes(&self) -> Vec<ClassId> {
        self.states
            .read()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|_| ClassId(i as u16)))
            .collect()
    }
}

/// A copy at the same rates. The coordinator keeps one as its own record of
/// the rates it has broadcast, and a checkpoint clones that record.
impl Clone for GapTable {
    fn clone(&self) -> Self {
        GapTable {
            page_size: self.page_size,
            states: RwLock::new(self.states.read().clone()),
            generation: AtomicU64::new(self.generation()),
        }
    }
}

/// Equal rates; the generation counts mutations, so it is not compared.
impl PartialEq for GapTable {
    fn eq(&self, other: &Self) -> bool {
        self.page_size == other.page_size && *self.states.read() == *other.states.read()
    }
}

impl Serialize for GapTable {
    fn serialize_value(&self) -> serde::Value {
        (self.page_size, &*self.states.read()).serialize_value()
    }
}

impl Deserialize for GapTable {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let (page_size, states) = <(u32, Vec<Option<ClassGapState>>)>::deserialize_value(v)?;
        Ok(GapTable {
            page_size,
            states: RwLock::new(states),
            generation: AtomicU64::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_gap_follows_the_formula() {
        // Body-like class: 64 bytes. 1X on 4 KB pages → gap 64.
        assert_eq!(SamplingRate::NX(1).nominal_gap(64, 4096), 64);
        assert_eq!(SamplingRate::NX(4).nominal_gap(64, 4096), 16);
        assert_eq!(SamplingRate::NX(64).nominal_gap(64, 4096), 1, "64X is full for 64 B");
        assert_eq!(SamplingRate::Full.nominal_gap(64, 4096), 1);
        // 8-byte array elements: 1X → 512.
        assert_eq!(SamplingRate::NX(1).nominal_gap(8, 4096), 512);
        // Objects larger than a page: always gap 1 (the SOR effect).
        assert_eq!(SamplingRate::NX(1).nominal_gap(16384, 4096), 1);
    }

    #[test]
    fn step_up_reaches_full_and_sticks() {
        let mut r = SamplingRate::NX(1);
        let mut steps = 0;
        while r != SamplingRate::Full {
            r = r.step_up(8, 4096);
            steps += 1;
            assert!(steps < 64, "ladder must terminate");
        }
        // 8-byte units: 1X(512) → 2X(256) → ... → 512X(1)=Full: 9 steps.
        assert_eq!(steps, 9);
        assert_eq!(SamplingRate::Full.step_up(8, 4096), SamplingRate::Full);
    }

    #[test]
    fn step_down_retraces_the_ladder_and_floors_at_1x() {
        // Full on 8-byte units steps to the finest non-full rung (512X has gap 1 for
        // 8 B units, so the rung below Full is 256X with gap 2).
        assert_eq!(SamplingRate::Full.step_down(8, 4096), SamplingRate::NX(256));
        assert_eq!(SamplingRate::NX(256).nominal_gap(8, 4096), 2);
        // nX halves; 1X is the floor.
        assert_eq!(SamplingRate::NX(8).step_down(8, 4096), SamplingRate::NX(4));
        assert_eq!(SamplingRate::NX(1).step_down(8, 4096), SamplingRate::NX(1));
        // A class wider than a page has gap 1 at every rate; Full degrades to 1X.
        assert_eq!(SamplingRate::Full.step_down(16384, 4096), SamplingRate::NX(1));
        // step_down inverts step_up below Full.
        let r = SamplingRate::NX(4);
        assert_eq!(r.step_up(64, 4096).step_down(64, 4096), r);
    }

    #[test]
    fn gap_table_step_down_updates_gaps() {
        let t = GapTable::new(4096);
        let c = ClassId(1);
        t.register_class(c, 64, SamplingRate::NX(4)); // nominal 16 → prime 17
        assert_eq!(t.state(c).nominal_gap, 16);
        let st = t.step_down(c);
        assert_eq!(st.rate, SamplingRate::NX(2));
        assert_eq!(st.nominal_gap, 32);
        assert_eq!(t.gap(c), 31, "prime near 32");
        t.step_down(c);
        let floor = t.step_down(c);
        assert_eq!(floor.rate, SamplingRate::NX(1), "1X is the floor");
        assert_eq!(t.step_down(c).rate, SamplingRate::NX(1));
    }

    #[test]
    fn multiples_in_counts_exactly() {
        assert_eq!(multiples_in(0, 1, 5), 1, "0 is a multiple");
        assert_eq!(multiples_in(1, 4, 5), 0, "[1,5) has none");
        assert_eq!(multiples_in(3, 5, 5), 1, "[3,8) has 5");
        assert_eq!(multiples_in(10, 11, 5), 3, "[10,21): 10,15,20");
        assert_eq!(multiples_in(7, 0, 5), 0, "empty range");
        assert_eq!(multiples_in(7, 3, 1), 3, "gap 1 samples everything");
        // Brute-force cross-check.
        for start in 0..40u64 {
            for len in 0..30u64 {
                for gap in 1..12u64 {
                    let brute = (start..start + len).filter(|x| x % gap == 0).count() as u64;
                    assert_eq!(
                        multiples_in(start, len, gap),
                        brute,
                        "start={start} len={len} gap={gap}"
                    );
                }
            }
        }
    }

    #[test]
    fn gap_table_register_and_decide() {
        let t = GapTable::new(4096);
        let c = ClassId(0);
        t.register_class(c, 64, SamplingRate::NX(1));
        let st = t.state(c);
        assert_eq!(st.nominal_gap, 64);
        assert_eq!(st.real_gap, 67, "nearest prime to 64 is 67 (upward tie)");
        assert!(t.decide_sampled(c, 0, 1));
        assert!(!t.decide_sampled(c, 1, 1));
        assert!(t.decide_sampled(c, 67, 1));
        assert!(t.decide_sampled(c, 60, 10), "array straddling a multiple");
    }

    #[test]
    fn scaled_bytes_are_horvitz_thompson() {
        let t = GapTable::new(4096);
        let c = ClassId(0);
        t.register_class(c, 8, SamplingRate::NX(1)); // gap 509 (prime near 512)
        assert_eq!(t.state(c).real_gap, 509);
        // A 2048-element array: 5 multiples of 509 in [0, 2048) → amortized 40 bytes,
        // scaled 40*509 ≈ the array's true 16 KB size.
        assert_eq!(t.sampled_elems(c, 0, 2048), 5);
        assert_eq!(t.amortized_bytes(c, 0, 2048), 40);
        let scaled = t.scaled_bytes(c, 0, 2048) as f64;
        let truth = 2048.0 * 8.0;
        assert!((scaled - truth).abs() / truth < 0.25, "scaled={scaled} truth={truth}");
    }

    #[test]
    fn unbiasedness_over_a_population_of_small_arrays() {
        // Expected scaled contribution across many consecutive small arrays must match
        // the true total byte volume closely (the estimator is exactly unbiased over
        // full gap-cycles).
        let t = GapTable::new(4096);
        let c = ClassId(0);
        t.register_class(c, 8, SamplingRate::NX(8)); // nominal 64 → prime 67
        let gap = t.state(c).real_gap;
        assert_eq!(gap, 67);
        let mut seq = 0u64;
        let mut scaled_total = 0u64;
        let mut true_total = 0u64;
        // Mixed lengths, many cycles of the gap.
        for i in 0..4_000u64 {
            let len = 1 + (i % 13) as u32;
            scaled_total += t.scaled_bytes(c, seq, len);
            true_total += len as u64 * 8;
            seq += len as u64;
        }
        let err = (scaled_total as f64 - true_total as f64).abs() / true_total as f64;
        assert!(err < 0.02, "estimator bias {err} too large");
    }

    #[test]
    fn set_rate_and_step_up_update_gaps() {
        let t = GapTable::new(4096);
        let c = ClassId(3);
        t.register_class(c, 64, SamplingRate::NX(1));
        assert_eq!(t.gap(c), 67);
        t.step_up(c);
        assert_eq!(t.state(c).rate, SamplingRate::NX(2));
        assert_eq!(t.state(c).nominal_gap, 32);
        assert_eq!(t.gap(c), 31);
        t.set_rate(c, SamplingRate::Full);
        assert_eq!(t.gap(c), 1);
        assert_eq!(t.classes(), vec![c]);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_class_panics() {
        let t = GapTable::new(4096);
        t.gap(ClassId(0));
    }
}
