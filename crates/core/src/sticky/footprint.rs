//! Sticky-set footprinting (Section III.A.1).
//!
//! Within one interval the profiler makes "repeated calls of adaptive object sampling"
//! — probe rounds — and counts, per sampled object, in how many rounds it was accessed.
//! An object hit in at least two rounds is *constantly accessed throughout the
//! interval* and becomes a sticky candidate; its gap-scaled bytes accrue to its class's
//! **footprint**. Two cadences exist (Table V): `Nonstop` (every access is its own
//! round — exact frequencies, maximal overhead) and `Timer` (rounds separated by a
//! simulated-time gap, 100 ms in the paper).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use jessy_gos::{ClassId, ObjectId};
use jessy_net::SimNanos;

use crate::config::{FootprintConfig, FootprintMode};

#[derive(Debug, Clone)]
struct ObjHit {
    class: ClassId,
    scaled_bytes: u64,
    rounds_hit: u32,
    last_round: u32,
}

/// Per-class sticky footprint of one closed interval.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FootprintSnapshot {
    /// Gap-scaled sticky bytes per class.
    pub per_class: HashMap<ClassId, u64>,
    /// Number of sticky candidate objects.
    pub sticky_objects: usize,
    /// Probe rounds the interval contained.
    pub rounds: u32,
}

impl FootprintSnapshot {
    /// Total sticky bytes over all classes.
    pub fn total_bytes(&self) -> u64 {
        self.per_class.values().sum()
    }
}

/// Tracks access frequency of sampled objects across probe rounds within an interval,
/// and accumulates per-class footprints across intervals.
#[derive(Debug)]
pub struct FootprintTracker {
    config: FootprintConfig,
    round: u32,
    round_started: Option<SimNanos>,
    hits: HashMap<ObjectId, ObjHit>,
    totals: HashMap<ClassId, u64>,
    intervals: u64,
}

impl FootprintTracker {
    /// Tracker with the given cadence.
    pub fn new(config: FootprintConfig) -> Self {
        FootprintTracker {
            config,
            round: 0,
            round_started: None,
            hits: HashMap::new(),
            totals: HashMap::new(),
            intervals: 0,
        }
    }

    /// The cadence in force.
    pub fn config(&self) -> FootprintConfig {
        self.config
    }

    /// Should a new probe round start now? (Timer mode only; in `Nonstop` mode every
    /// logged access advances the round by itself.) The caller re-arms false-invalid
    /// traps when this returns `true`.
    pub fn should_probe(&self, now: SimNanos) -> bool {
        match self.config.mode {
            FootprintMode::Nonstop => false,
            FootprintMode::Timer(gap) => match self.round_started {
                None => true,
                Some(started) => now.saturating_sub(started) >= gap,
            },
        }
    }

    /// Open a new probe round at simulated time `now`.
    pub fn start_round(&mut self, now: SimNanos) {
        self.round += 1;
        self.round_started = Some(now);
    }

    /// Record a logged access to a sampled object. In `Nonstop` mode every access
    /// counts as a fresh round (exact frequency counting).
    pub fn on_logged_access(&mut self, obj: ObjectId, class: ClassId, scaled_bytes: u64) {
        if matches!(self.config.mode, FootprintMode::Nonstop) {
            self.round += 1;
        }
        let round = self.round;
        let hit = self.hits.entry(obj).or_insert(ObjHit {
            class,
            scaled_bytes,
            rounds_hit: 0,
            last_round: u32::MAX,
        });
        hit.scaled_bytes = hit.scaled_bytes.max(scaled_bytes);
        if hit.last_round != round {
            hit.rounds_hit += 1;
            hit.last_round = round;
        }
    }

    /// The objects hit this interval — what a probe round re-arms.
    pub fn hits(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.hits.keys().copied()
    }

    /// Close the interval: fold objects hit in ≥ 2 rounds into per-class footprints,
    /// reset per-interval state, and return the interval's snapshot.
    pub fn close_interval(&mut self) -> FootprintSnapshot {
        let mut snapshot = FootprintSnapshot {
            rounds: self.round,
            ..Default::default()
        };
        for hit in self.hits.values() {
            if hit.rounds_hit >= 2 {
                *snapshot.per_class.entry(hit.class).or_insert(0) += hit.scaled_bytes;
                snapshot.sticky_objects += 1;
            }
        }
        for (class, bytes) in &snapshot.per_class {
            *self.totals.entry(*class).or_insert(0) += bytes;
        }
        self.intervals += 1;
        self.hits.clear();
        self.round = 0;
        self.round_started = None;
        snapshot
    }

    /// Average per-class footprint over all closed intervals — the "Average SS
    /// Footprint" column of Table IV.
    pub fn average_footprint(&self) -> HashMap<ClassId, f64> {
        if self.intervals == 0 {
            return HashMap::new();
        }
        self.totals
            .iter()
            .map(|(c, b)| (*c, *b as f64 / self.intervals as f64))
            .collect()
    }

    /// Cumulative per-class footprint totals.
    pub fn totals(&self) -> &HashMap<ClassId, u64> {
        &self.totals
    }

    /// Intervals closed so far.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer_tracker(gap: u64) -> FootprintTracker {
        FootprintTracker::new(FootprintConfig {
            mode: FootprintMode::Timer(gap),
            min_gap: 1,
        })
    }

    #[test]
    fn object_hit_in_two_rounds_is_sticky() {
        let mut t = timer_tracker(100);
        t.start_round(0);
        t.on_logged_access(ObjectId(1), ClassId(0), 64);
        t.on_logged_access(ObjectId(2), ClassId(0), 64);
        t.start_round(100);
        t.on_logged_access(ObjectId(1), ClassId(0), 64); // only obj 1 recurs
        let snap = t.close_interval();
        assert_eq!(snap.sticky_objects, 1);
        assert_eq!(snap.per_class[&ClassId(0)], 64);
        assert_eq!(snap.rounds, 2);
        assert_eq!(snap.total_bytes(), 64);
    }

    #[test]
    fn repeated_hits_within_one_round_do_not_count_twice() {
        let mut t = timer_tracker(100);
        t.start_round(0);
        for _ in 0..10 {
            t.on_logged_access(ObjectId(1), ClassId(0), 8);
        }
        let snap = t.close_interval();
        assert_eq!(snap.sticky_objects, 0, "one round, however many hits, is not sticky");
    }

    #[test]
    fn nonstop_mode_counts_every_access() {
        let mut t = FootprintTracker::new(FootprintConfig {
            mode: FootprintMode::Nonstop,
            min_gap: 1,
        });
        assert!(!t.should_probe(0), "nonstop never asks for timer rounds");
        t.on_logged_access(ObjectId(1), ClassId(0), 8);
        t.on_logged_access(ObjectId(1), ClassId(0), 8);
        t.on_logged_access(ObjectId(2), ClassId(0), 8);
        let snap = t.close_interval();
        assert_eq!(snap.sticky_objects, 1, "obj 1 hit twice, obj 2 once");
    }

    #[test]
    fn timer_cadence_gates_rounds() {
        let t = timer_tracker(100);
        assert!(t.should_probe(0), "first round always due");
        let mut t = t;
        t.start_round(50);
        assert!(!t.should_probe(149));
        assert!(t.should_probe(150));
    }

    #[test]
    fn averages_accumulate_across_intervals() {
        let mut t = timer_tracker(10);
        for _ in 0..2 {
            t.start_round(0);
            t.on_logged_access(ObjectId(1), ClassId(3), 100);
            t.start_round(10);
            t.on_logged_access(ObjectId(1), ClassId(3), 100);
            t.close_interval();
        }
        // Third interval: nothing sticky.
        t.start_round(0);
        t.on_logged_access(ObjectId(1), ClassId(3), 100);
        t.close_interval();

        assert_eq!(t.intervals(), 3);
        assert_eq!(t.totals()[&ClassId(3)], 200);
        let avg = t.average_footprint();
        assert!((avg[&ClassId(3)] - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn interval_state_resets() {
        let mut t = timer_tracker(10);
        t.start_round(0);
        t.on_logged_access(ObjectId(1), ClassId(0), 8);
        t.close_interval();
        assert!(t.hits().next().is_none());
        t.start_round(0);
        t.on_logged_access(ObjectId(1), ClassId(0), 8);
        let snap = t.close_interval();
        assert_eq!(snap.sticky_objects, 0, "round counts do not leak across intervals");
    }
}
