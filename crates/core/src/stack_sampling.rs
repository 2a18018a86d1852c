//! Adaptive stack sampling (Section III.B, Fig. 7–8).
//!
//! Periodic snapshots of a thread's Java frames discover **stack-invariant
//! references**: slots that keep holding the same object reference across samples.
//! Invariants are the likely entry points of the thread's sticky set (a linked list's
//! head, a tree's root, a hash table's entry array).
//!
//! All four of the paper's optimizations are implemented:
//!
//! 1. **Timer-based sampling** — [`StackSampler::maybe_sample`] only fires when the
//!    simulated clock passed the current gap; execution is otherwise overhead-free.
//! 2. **Two-phase scanning** — the top-down phase walks from the top frame to the
//!    first frame whose `visited` flag is set (only that one is compared; everything
//!    below is known untouched since its last sample, because any return through it
//!    would have pushed fresh unvisited frames). The bottom-up phase then captures the
//!    unvisited frames above it and sets their flags.
//! 3. **Lazy extraction** — a frame's first visit stores its slots in raw form; the
//!    reference-extraction work is spent only if the frame survives to a second visit.
//!    Temporary top frames never pay extraction. (The immediate-extraction baseline of
//!    Table V is available via [`crate::config::StackSamplingConfig::lazy_extraction`].)
//! 4. **Comparison by probing** — the old (smaller) sample probes the new frame; slots
//!    that changed are removed, so repeatedly compared frames shrink toward their
//!    invariant core.
//!
//! A slot is reported as **invariant** once it has survived at least one comparison,
//! i.e. it held the same reference in two samples separated by the timer gap.
//!
//! # Adaptive cadence
//!
//! The sampler's only product is the invariant set, so a sample that leaves that set
//! and the per-frame records exactly as it found them was pure cost. The timer
//! therefore backs off while the stack's invariants hold (Mertz & Nunes: lower the
//! rate while the kept samples stay representative, restore it when behaviour
//! changes): the *current gap* starts at [`StackSamplingConfig::gap_ns`], doubles
//! after every sample that **learned nothing**, up to
//! `max(gap_ns, `[`BACKOFF_CEILING_NS`]`)`, and drops back to `gap_ns` after one that
//! did. A sample learned something iff it
//!
//! * captured a frame (bottom-up phase, or the re-capture arm),
//! * converted a raw sample on the frame's second visit (its references become
//!   reportable),
//! * dropped at least one slot by probing, or
//! * discarded at least one record of a popped frame.
//!
//! All four are facts `sample` already computes, so the change is detected on the trap
//! that fires anyway (OJXPerf's constraint), never by a new per-store check: there is
//! no "stack dirty" flag because a real JVM has no write barrier on local-variable
//! stores, and charging nothing for one would cheat the cost model.
//!
//! The ceiling is the **finest gap the paper's Table V evaluates** (4 ms), so every
//! configuration the paper measures (4 ms, 16 ms) has `gap_ns ≥` ceiling and keeps its
//! fixed cadence exactly; `gap_ns = 0` ("every opportunity") never backs off either,
//! because doubling zero is zero. Only gaps finer than anything the paper ran — the
//! 1 µs corner the migration benchmark uses — are stretched. So that back-off can never
//! hand a migration staler roots than the fixed timer did, the migration path takes
//! one forced sample ([`StackSampler::refresh`]) right before it resolves.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use jessy_gos::{CostModel, ObjectId};
use jessy_net::{ClockHandle, SimNanos};
use jessy_stack::{JavaStack, Slot};

use crate::config::StackSamplingConfig;

/// Coarsest gap the back-off stretches to: 4 ms, the finest gap Table V evaluates, so
/// no configuration the paper measures ever backs off (see the module docs).
pub const BACKOFF_CEILING_NS: u64 = 4_000_000;

/// One surviving (slot, reference) of a frame's sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefSlot {
    slot: usize,
    obj: ObjectId,
}

#[derive(Debug, Clone)]
enum SampleState {
    /// Captured in native form; content not yet extracted (lazy mode, first visit).
    Raw(Vec<Slot>),
    /// Extracted reference slots, shrunk by successive probings.
    Extracted(Vec<RefSlot>),
}

#[derive(Debug, Clone)]
struct FrameRecord {
    state: SampleState,
    depth: usize,
    /// Comparisons survived (0 = sampled once, never compared).
    comparisons: u32,
}

/// A stack-invariant reference discovered by the sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackInvariant {
    /// Frame depth from the bottom (larger = nearer the top).
    pub depth: usize,
    /// Slot index within the frame.
    pub slot: usize,
    /// The invariant object reference.
    pub obj: ObjectId,
    /// Number of comparisons the reference survived.
    pub persistence: u32,
}

/// Counters for Table V's stack-sampling columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackSamplerStats {
    /// Samples actually taken (timer fires).
    pub samples: u64,
    /// Frames captured raw (lazy fast path).
    pub raw_captures: u64,
    /// Frames whose content was extracted.
    pub extractions: u64,
    /// Slots extracted in total.
    pub slots_extracted: u64,
    /// Slots compared by probing.
    pub slots_probed: u64,
    /// Samples discarded because their frame was popped before a second visit.
    pub discarded_samples: u64,
    /// Times a backed-off timer dropped back to `gap_ns` (a sample learned something,
    /// or a migration forced one).
    pub gap_resets: u64,
}

/// Per-thread stack sampler (Fig. 8's `SAMPLE-STACK`).
#[derive(Debug)]
pub struct StackSampler {
    config: StackSamplingConfig,
    /// Current timer gap: `config.gap_ns` after any change, doubling while samples
    /// learn nothing.
    gap_ns: u64,
    last_sample: Option<SimNanos>,
    samples: HashMap<u64, FrameRecord>,
    stats: StackSamplerStats,
}

impl StackSampler {
    /// Sampler with the given configuration.
    pub fn new(config: StackSamplingConfig) -> Self {
        StackSampler {
            config,
            gap_ns: config.gap_ns,
            last_sample: None,
            samples: HashMap::new(),
            stats: StackSamplerStats::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> StackSamplingConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> StackSamplerStats {
        self.stats
    }

    /// Timer check: samples the stack iff the current gap elapsed since the previous
    /// sample, then doubles the gap (up to the ceiling) if that sample learned nothing
    /// and restores `gap_ns` if it did. Returns whether a sample was taken.
    pub fn maybe_sample(
        &mut self,
        stack: &mut JavaStack,
        clock: &ClockHandle,
        costs: &CostModel,
    ) -> bool {
        let now = clock.now();
        match self.last_sample {
            Some(last) if now.saturating_sub(last) < self.gap_ns => false,
            _ => {
                self.last_sample = Some(now);
                if self.sample(stack, clock, costs) {
                    self.reset_gap();
                } else {
                    let ceiling = self.config.gap_ns.max(BACKOFF_CEILING_NS);
                    self.gap_ns = self.gap_ns.saturating_mul(2).min(ceiling);
                }
                true
            }
        }
    }

    /// Forced sample that also restarts the cadence: what a migration takes right
    /// before resolving the sticky set, so its roots are never staler than the fixed
    /// timer's would have been.
    pub fn refresh(&mut self, stack: &mut JavaStack, clock: &ClockHandle, costs: &CostModel) {
        self.last_sample = Some(clock.now());
        self.sample(stack, clock, costs);
        self.reset_gap();
    }

    fn reset_gap(&mut self) {
        if self.gap_ns != self.config.gap_ns {
            self.gap_ns = self.config.gap_ns;
            self.stats.gap_resets += 1;
        }
    }

    /// Unconditionally take one sample (Fig. 8). Returns whether it **learned**
    /// anything — captured a frame, converted a raw sample, dropped a slot or
    /// discarded a record (module docs) — which is what drives the cadence.
    pub fn sample(
        &mut self,
        stack: &mut JavaStack,
        clock: &ClockHandle,
        costs: &CostModel,
    ) -> bool {
        self.stats.samples += 1;
        clock.spend(costs.stack_sample_entry_ns);
        let depth = stack.depth();
        let mut learned = false;

        // --- Top-down phase: find the first visited frame from the top.
        let first_visited = (0..depth).rev().find(|&i| stack.frame(i).visited());

        // --- Process the first visited frame: convert raw sample, compare by probing.
        if let Some(fv) = first_visited {
            let incarnation = stack.frame(fv).incarnation();
            if let Some(record) = self.samples.get_mut(&incarnation) {
                if let SampleState::Raw(slots) = &record.state {
                    // CONVERT-RAW-SAMPLE: extract reference slots from the *old* image.
                    let extracted: Vec<RefSlot> = slots
                        .iter()
                        .enumerate()
                        .filter_map(|(i, s)| s.as_ref_obj().map(|obj| RefSlot { slot: i, obj }))
                        .collect();
                    clock.spend(costs.frame_extract_slot_ns * slots.len() as u64);
                    self.stats.extractions += 1;
                    self.stats.slots_extracted += slots.len() as u64;
                    record.state = SampleState::Extracted(extracted);
                    learned = true;
                }
                // COMPARE-BY-PROBING: old sample probes the new frame; drop mismatches.
                if let SampleState::Extracted(refs) = &mut record.state {
                    let frame = stack.frame(fv);
                    clock.spend(costs.frame_probe_slot_ns * refs.len() as u64);
                    self.stats.slots_probed += refs.len() as u64;
                    let probed = refs.len();
                    refs.retain(|r| {
                        r.slot < frame.n_slots()
                            && frame.slot(r.slot).as_ref_obj() == Some(r.obj)
                    });
                    learned |= refs.len() < probed;
                    record.comparisons += 1;
                    record.depth = fv;
                }
            } else {
                // Visited flag without a sample (sampler attached mid-run): re-capture.
                self.capture(stack, fv, clock, costs);
                learned = true;
            }
        }

        // --- Bottom-up phase: capture every unvisited frame above, set visited flags.
        let start = first_visited.map_or(0, |fv| fv + 1);
        for i in start..depth {
            self.capture(stack, i, clock, costs);
        }

        learned | (start < depth) | self.gc(stack)
    }

    fn capture(&mut self, stack: &mut JavaStack, i: usize, clock: &ClockHandle, costs: &CostModel) {
        let frame = stack.frame_mut(i);
        frame.set_visited(true);
        let incarnation = frame.incarnation();
        let state = if self.config.lazy_extraction {
            clock.spend(costs.frame_raw_capture_ns);
            self.stats.raw_captures += 1;
            SampleState::Raw(frame.slots().to_vec())
        } else {
            // Immediate extraction (Table V baseline): pay per-slot cost up front.
            clock.spend(costs.frame_extract_slot_ns * frame.n_slots() as u64);
            self.stats.extractions += 1;
            self.stats.slots_extracted += frame.n_slots() as u64;
            SampleState::Extracted(
                frame
                    .slots()
                    .iter()
                    .enumerate()
                    .filter_map(|(j, s)| s.as_ref_obj().map(|obj| RefSlot { slot: j, obj }))
                    .collect(),
            )
        };
        self.samples.insert(
            incarnation,
            FrameRecord {
                state,
                depth: i,
                comparisons: 0,
            },
        );
    }

    /// Discard samples of popped frames ("if it is not visited for the second time, it
    /// will be discarded on the next stack sampling"). Returns whether any went.
    fn gc(&mut self, stack: &JavaStack) -> bool {
        let live: std::collections::HashSet<u64> =
            stack.frames().map(|f| f.incarnation()).collect();
        let before = self.samples.len();
        self.samples.retain(|inc, _| live.contains(inc));
        let discarded = before - self.samples.len();
        self.stats.discarded_samples += discarded as u64;
        discarded > 0
    }

    /// The invariant references discovered so far, ordered **topmost-first** (the
    /// resolution heuristic of Section III.A.3: top invariants are more recent).
    pub fn invariants(&self) -> Vec<StackInvariant> {
        let mut out: Vec<StackInvariant> = self
            .samples
            .values()
            .filter(|r| r.comparisons >= 1)
            .flat_map(|r| {
                let refs: &[RefSlot] = match &r.state {
                    SampleState::Extracted(refs) => refs,
                    SampleState::Raw(_) => &[],
                };
                refs.iter()
                    .map(|rs| StackInvariant {
                        depth: r.depth,
                        slot: rs.slot,
                        obj: rs.obj,
                        persistence: r.comparisons,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.slot.cmp(&b.slot)));
        out
    }

    /// Live per-frame samples (diagnostics).
    pub fn live_samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_net::{ClockBoard, ThreadId};
    use jessy_stack::{MethodId, Slot};

    fn setup() -> (JavaStack, ClockHandle, CostModel) {
        (
            JavaStack::new(),
            ClockBoard::new(1).handle(ThreadId(0)),
            CostModel::pentium4_2ghz(),
        )
    }

    fn sampler() -> StackSampler {
        StackSampler::new(StackSamplingConfig {
            gap_ns: 1_000_000,
            lazy_extraction: true,
        })
    }

    #[test]
    fn invariant_surviving_two_samples_is_reported() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 3);
        stack.set_local(0, Slot::Ref(ObjectId(7)));
        stack.set_local(1, Slot::Prim(1));

        s.sample(&mut stack, &clock, &costs);
        assert!(s.invariants().is_empty(), "one sample proves nothing");

        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert_eq!(inv.len(), 1);
        assert_eq!(inv[0].obj, ObjectId(7));
        assert_eq!(inv[0].slot, 0);
        assert_eq!(inv[0].persistence, 1);
    }

    #[test]
    fn changed_slots_are_dropped_by_probing() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 2);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        stack.set_local(1, Slot::Ref(ObjectId(2)));

        s.sample(&mut stack, &clock, &costs);
        stack.set_local(1, Slot::Ref(ObjectId(99))); // slot 1 varies
        s.sample(&mut stack, &clock, &costs);

        let inv = s.invariants();
        assert_eq!(inv.len(), 1, "only the stable slot survives");
        assert_eq!(inv[0].obj, ObjectId(1));

        // A later change kills a previously-invariant slot too.
        stack.set_local(0, Slot::Ref(ObjectId(50)));
        s.sample(&mut stack, &clock, &costs);
        assert!(s.invariants().is_empty());
    }

    #[test]
    fn temporary_frames_never_pay_extraction() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 4); // long-lived bottom frame
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);

        // Churn temporary top frames between samples.
        for i in 0..10 {
            stack.push_raw(MethodId(1), 6);
            stack.set_local(0, Slot::Ref(ObjectId(100 + i)));
            s.sample(&mut stack, &clock, &costs);
            stack.pop();
        }
        // One final sample so the last temporary's record is garbage-collected too.
        s.sample(&mut stack, &clock, &costs);
        let stats = s.stats();
        // Only the bottom frame was ever extracted (once, lazily, on its 2nd visit).
        assert_eq!(stats.extractions, 1);
        assert_eq!(stats.raw_captures, 11, "bottom once + 10 temporaries");
        assert_eq!(stats.discarded_samples, 10);
        assert_eq!(s.invariants().len(), 1);
    }

    #[test]
    fn two_phase_scan_skips_frames_below_first_visited() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 1); // A (bottom)
        stack.frame_mut(0).set_slot(0, Slot::Ref(ObjectId(1)));
        stack.push_raw(MethodId(1), 1); // B
        stack.frame_mut(1).set_slot(0, Slot::Ref(ObjectId(2)));
        s.sample(&mut stack, &clock, &costs); // both captured raw

        // B (top) is the first visited: only B is compared; A stays raw forever while
        // B remains above it.
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert_eq!(inv.len(), 1, "A never compared while covered: {inv:?}");
        assert_eq!(inv[0].obj, ObjectId(2));

        // Pop B: A becomes first-visited and gets its comparison.
        stack.pop();
        s.sample(&mut stack, &clock, &costs);
        let objs: Vec<ObjectId> = s.invariants().iter().map(|i| i.obj).collect();
        assert_eq!(objs, vec![ObjectId(1)]);
    }

    #[test]
    fn repushed_frame_is_a_fresh_incarnation() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        stack.push_raw(MethodId(0), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        assert_eq!(s.invariants().len(), 1);

        // Pop and re-push the same shape with the same slot value: history must reset.
        stack.pop();
        stack.push_raw(MethodId(0), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        assert!(
            s.invariants().is_empty(),
            "new incarnation starts from scratch"
        );
    }

    #[test]
    fn invariants_are_ordered_topmost_first() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        for d in 0..3 {
            stack.push_raw(MethodId(d), 1);
            stack.set_local(0, Slot::Ref(ObjectId(d)));
        }
        // Repeated samples: the top frame gets compared each time; pop it and deeper
        // ones get compared too.
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        stack.pop();
        s.sample(&mut stack, &clock, &costs);
        stack.pop();
        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert_eq!(inv.len(), 1, "popped frames' samples are discarded: {inv:?}");
        assert_eq!(inv[0].obj, ObjectId(0));

        // Rebuild a two-deep stack and make both invariant.
        stack.push_raw(MethodId(1), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        stack.pop(); // compare deep frame again? No — keep both on stack:
        stack.push_raw(MethodId(1), 1);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        s.sample(&mut stack, &clock, &costs);
        s.sample(&mut stack, &clock, &costs);
        let inv = s.invariants();
        assert!(inv.len() >= 2);
        assert!(inv[0].depth > inv[1].depth, "topmost first: {inv:?}");
    }

    #[test]
    fn timer_gates_samples() {
        let (mut stack, clock, _) = setup();
        let costs = CostModel::free(); // so sampling itself doesn't advance the timer
        let mut s = sampler(); // 1 ms gap
        stack.push_raw(MethodId(0), 1);
        assert!(s.maybe_sample(&mut stack, &clock, &costs), "first always fires");
        assert!(!s.maybe_sample(&mut stack, &clock, &costs));
        clock.spend(999_999);
        assert!(!s.maybe_sample(&mut stack, &clock, &costs));
        clock.spend(1);
        assert!(s.maybe_sample(&mut stack, &clock, &costs));
        assert_eq!(s.stats().samples, 2);
    }

    /// Advance the clock to 1 ns short of `gap` after the last sample (must not
    /// fire), then the last nanosecond (must fire).
    fn fires_exactly_after(
        s: &mut StackSampler,
        stack: &mut JavaStack,
        clock: &ClockHandle,
        gap: u64,
    ) {
        let costs = CostModel::free();
        clock.spend(gap - 1);
        assert!(!s.maybe_sample(stack, clock, &costs), "fired before {gap} ns");
        clock.spend(1);
        assert!(s.maybe_sample(stack, clock, &costs), "did not fire at {gap} ns");
    }

    /// A sampler at a 1 us gap over a one-frame stack, sampled until it learns
    /// nothing (capture, conversion, one clean comparison) and backed off `doublings`
    /// further times.
    fn backed_off(doublings: u32) -> (JavaStack, ClockHandle, StackSampler) {
        let (mut stack, clock, _) = setup();
        let mut s = StackSampler::new(StackSamplingConfig {
            gap_ns: 1_000,
            lazy_extraction: true,
        });
        stack.push_raw(MethodId(0), 2);
        stack.set_local(0, Slot::Ref(ObjectId(1)));
        stack.set_local(1, Slot::Ref(ObjectId(2)));
        assert!(s.maybe_sample(&mut stack, &clock, &CostModel::free()));
        fires_exactly_after(&mut s, &mut stack, &clock, 1_000); // conversion: still learning
        for k in 0..=doublings {
            fires_exactly_after(&mut s, &mut stack, &clock, 1_000 << k);
        }
        assert_eq!(s.gap_ns, 2_000 << doublings);
        (stack, clock, s)
    }

    #[test]
    fn unchanging_stack_backs_off_geometrically_to_the_ceiling() {
        let (mut stack, clock, mut s) = backed_off(0);
        let mut gap = 2_000;
        while gap < BACKOFF_CEILING_NS {
            fires_exactly_after(&mut s, &mut stack, &clock, gap);
            gap = (2 * gap).min(BACKOFF_CEILING_NS);
        }
        for _ in 0..3 {
            fires_exactly_after(&mut s, &mut stack, &clock, BACKOFF_CEILING_NS);
        }
        assert_eq!(s.stats().gap_resets, 0);
        assert_eq!(s.invariants().len(), 2, "backing off forgets nothing");
    }

    #[test]
    fn every_kind_of_learning_resets_the_gap_on_the_sample_that_sees_it() {
        type Change = fn(&mut JavaStack);
        let changes: [(&str, Change); 2] = [
            ("push", |st| {
                st.push_raw(MethodId(1), 1);
            }),
            ("slot overwritten", |st| st.set_local(1, Slot::Ref(ObjectId(99)))),
        ];
        for (what, change) in changes {
            let (mut stack, clock, mut s) = backed_off(3);
            change(&mut stack);
            fires_exactly_after(&mut s, &mut stack, &clock, 16_000);
            assert_eq!(s.gap_ns, 1_000, "{what}");
            assert_eq!(s.stats().gap_resets, 1, "{what}");
            fires_exactly_after(&mut s, &mut stack, &clock, 1_000);
        }

        // A discard alone (the popped frame's record goes, nothing is captured), then
        // the raw -> extracted conversion of a frame on its second visit.
        let (mut stack, clock, mut s) = backed_off(3);
        stack.push_raw(MethodId(1), 1);
        fires_exactly_after(&mut s, &mut stack, &clock, 16_000); // captured raw
        fires_exactly_after(&mut s, &mut stack, &clock, 1_000); // converted
        assert_eq!(s.gap_ns, 1_000, "conversion");
        fires_exactly_after(&mut s, &mut stack, &clock, 1_000); // learned nothing
        fires_exactly_after(&mut s, &mut stack, &clock, 2_000);
        assert_eq!(s.gap_ns, 4_000);
        stack.pop();
        let discarded = s.stats().discarded_samples;
        fires_exactly_after(&mut s, &mut stack, &clock, 4_000);
        assert_eq!(s.stats().discarded_samples, discarded + 1);
        assert_eq!(s.stats().raw_captures, 2, "nothing new captured");
        assert_eq!(s.gap_ns, 1_000, "discard");
    }

    #[test]
    fn refresh_samples_now_and_restarts_the_cadence() {
        let (mut stack, clock, mut s) = backed_off(5);
        stack.set_local(0, Slot::Ref(ObjectId(50)));
        let samples = s.stats().samples;
        s.refresh(&mut stack, &clock, &CostModel::free());
        assert_eq!(s.stats().samples, samples + 1);
        assert_eq!(s.stats().gap_resets, 1);
        let objs: Vec<ObjectId> = s.invariants().iter().map(|i| i.obj).collect();
        assert_eq!(objs, vec![ObjectId(2)], "the stale root is gone before resolution");
        fires_exactly_after(&mut s, &mut stack, &clock, 1_000);
    }

    /// What keeps Table V and every `gap_ns: 0` user as they are: at or above the
    /// ceiling, and at zero, the cadence is the fixed timer's.
    #[test]
    fn paper_gaps_and_gap_zero_sample_at_fixed_cadence() {
        for gap_ns in [0, BACKOFF_CEILING_NS, 16_000_000] {
            let (mut stack, clock, _) = setup();
            let costs = CostModel::free();
            let mut s = StackSampler::new(StackSamplingConfig {
                gap_ns,
                lazy_extraction: true,
            });
            stack.push_raw(MethodId(0), 1);
            stack.set_local(0, Slot::Ref(ObjectId(1)));
            let (mut fixed, mut last) = (0u64, None::<u64>);
            for tick in 0..400u64 {
                clock.spend(250_000 + 1_000 * (tick % 7));
                let now = clock.now();
                if last.is_none_or(|l| now - l >= gap_ns) {
                    last = Some(now);
                    fixed += 1;
                }
                s.maybe_sample(&mut stack, &clock, &costs);
            }
            assert_eq!(s.stats().samples, fixed, "gap {gap_ns}");
            assert_eq!(s.stats().gap_resets, 0, "gap {gap_ns}");
            assert_eq!(s.gap_ns, gap_ns);
        }
    }

    #[test]
    fn immediate_extraction_pays_up_front() {
        let (mut stack, clock, costs) = setup();
        let mut s = StackSampler::new(StackSamplingConfig {
            gap_ns: 0,
            lazy_extraction: false,
        });
        stack.push_raw(MethodId(0), 5);
        stack.set_local(0, Slot::Ref(ObjectId(3)));
        s.sample(&mut stack, &clock, &costs);
        let stats = s.stats();
        assert_eq!(stats.extractions, 1);
        assert_eq!(stats.slots_extracted, 5);
        assert_eq!(stats.raw_captures, 0);
        // Invariant still requires a second sample.
        assert!(s.invariants().is_empty());
        s.sample(&mut stack, &clock, &costs);
        assert_eq!(s.invariants().len(), 1);
    }

    #[test]
    fn empty_stack_is_handled() {
        let (mut stack, clock, costs) = setup();
        let mut s = sampler();
        s.sample(&mut stack, &clock, &costs);
        assert_eq!(s.stats().samples, 1);
        assert!(s.invariants().is_empty());
    }
}
