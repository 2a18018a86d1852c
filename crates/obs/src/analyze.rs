//! Post-hoc journal mining — per-class waste and the master's round series.
//!
//! The journal records every slow-path the GOS took and every round the master
//! closed; this module folds those events back into summaries:
//!
//! * **[`WasteReport`]** — per-class memory/communication waste, the paper's
//!   motivation for correlation-aware placement. Three kinds are mined from
//!   [`EventKind::ObjectFault`] and [`EventKind::FalseInvalidTrap`]:
//!   *replication* (the same object materialized on several nodes — each
//!   distinct node beyond the first is a replica copy), *duplication* (the
//!   same node refetching an object it already held — invalidation churn),
//!   and *false-invalid traps* (pure profiler overhead on correlation
//!   faults). Bytes are attributed from the fault payloads.
//! * **[`RoundSeries`]** — the per-round series the run report does not
//!   keep: each closed round, each class's un-converged rounds, and the
//!   **drift spans** of the adaptive controller. A [`EventKind::ClassDrifted`]
//!   opens a span; the next [`EventKind::ClassConverged`] for the same class
//!   closes it, and the round distance between the two is the re-convergence
//!   lag the phase-shift bench reports. An unclosed span (drift near run end)
//!   keeps `reconverged_round = None`.
//!
//! The waste report keys on the raw `u32` class ids the GOS events carry; name
//! resolution belongs to callers that hold the class table.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::event::{EventKind, TraceEvent};

/// Mined waste for one object class.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassWaste {
    /// Class id (as carried by the GOS events).
    pub class: u32,
    /// Total object faults attributed to the class.
    pub faults: u64,
    /// Total payload bytes fetched across those faults.
    pub fault_bytes: u64,
    /// Objects of the class materialized on more than one distinct node.
    pub replica_objects: u64,
    /// Fetches that created a replica copy (each distinct fetching node
    /// beyond an object's first).
    pub replica_fetches: u64,
    /// Refetches of an object by a node that had already fetched it —
    /// invalidation churn ("duplicate" waste).
    pub duplicate_fetches: u64,
    /// Payload bytes of those duplicate refetches.
    pub duplicate_bytes: u64,
    /// False-invalid (correlation-fault) traps charged to the class.
    pub false_invalid_traps: u64,
}

/// Per-class waste mined from a journal, plus run-wide totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WasteReport {
    /// One row per class that faulted or trapped, ascending class id.
    pub classes: Vec<ClassWaste>,
    /// Sum of `fault_bytes` over all classes.
    pub total_fault_bytes: u64,
    /// Sum of `duplicate_bytes` over all classes.
    pub total_duplicate_bytes: u64,
    /// Sum of `false_invalid_traps` over all classes.
    pub total_false_invalid_traps: u64,
}

impl WasteReport {
    /// The row for `class`, if it appears in the report.
    pub fn class(&self, class: u32) -> Option<&ClassWaste> {
        self.classes.iter().find(|c| c.class == class)
    }
}

/// Fold a journal into a [`WasteReport`]. Events other than `ObjectFault` and
/// `FalseInvalidTrap` are ignored; order does not matter except that "first
/// fetch vs. refetch" is judged in slice order (use the canonical journal
/// order for meaningful duplicate counts).
pub fn analyze_waste(events: &[TraceEvent]) -> WasteReport {
    let mut rows: BTreeMap<u32, ClassWaste> = BTreeMap::new();
    // (obj -> set of nodes that fetched it), for replica detection.
    let mut fetchers: HashMap<u32, HashSet<u16>> = HashMap::new();
    // (node, obj) pairs already seen, for duplicate-refetch detection.
    let mut seen: HashSet<(u16, u32)> = HashSet::new();
    for ev in events {
        match &ev.kind {
            EventKind::ObjectFault { obj, class, node, bytes, .. } => {
                let row = rows.entry(*class).or_insert_with(|| ClassWaste {
                    class: *class,
                    ..ClassWaste::default()
                });
                row.faults += 1;
                row.fault_bytes += bytes;
                let nodes = fetchers.entry(*obj).or_default();
                let first_for_node = nodes.insert(*node);
                if first_for_node && nodes.len() > 1 {
                    row.replica_fetches += 1;
                    if nodes.len() == 2 {
                        row.replica_objects += 1;
                    }
                }
                if !seen.insert((*node, *obj)) {
                    row.duplicate_fetches += 1;
                    row.duplicate_bytes += bytes;
                }
            }
            EventKind::FalseInvalidTrap { class, .. } => {
                rows.entry(*class)
                    .or_insert_with(|| ClassWaste { class: *class, ..ClassWaste::default() })
                    .false_invalid_traps += 1;
            }
            _ => {}
        }
    }
    let classes: Vec<ClassWaste> = rows.into_values().collect();
    WasteReport {
        total_fault_bytes: classes.iter().map(|c| c.fault_bytes).sum(),
        total_duplicate_bytes: classes.iter().map(|c| c.duplicate_bytes).sum(),
        total_false_invalid_traps: classes.iter().map(|c| c.false_invalid_traps).sum(),
        classes,
    }
}

/// One un-converge → re-converge window of the adaptive controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftSpan {
    /// The drifted class (by journal name).
    pub class: String,
    /// Round the `ClassDrifted` re-activation applied in.
    pub drift_round: u64,
    /// The distance that tripped the detector.
    pub relative_distance: f64,
    /// Round of the next `ClassConverged` for the class, if the run lasted
    /// long enough to re-converge.
    pub reconverged_round: Option<u64>,
}

impl DriftSpan {
    /// Re-convergence lag in rounds, if the span closed.
    pub fn lag(&self) -> Option<u64> {
        self.reconverged_round
            .map(|r| r.saturating_sub(self.drift_round))
    }
}

/// One closed round, as the journal last recorded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRecord {
    /// Round number.
    pub round: u64,
    /// Fraction of expected (thread, interval) OALs that arrived.
    pub coverage: f64,
    /// The round was forced closed by the deadline.
    pub deadline_hit: bool,
    /// Profiling cost over charged compute since the previous close.
    pub cost_fraction: f64,
}

/// The master's per-round series, folded from a journal by [`round_series`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSeries {
    /// Every closed round in round order. A master restore re-closes the
    /// rounds after its checkpoint; a round's last `RoundClosed` wins.
    pub rounds: Vec<RoundRecord>,
    /// The drift spans, in drift order.
    pub drift: Vec<DriftSpan>,
    /// Per class: round → converged at that round's close, for each round a
    /// `ClassConverged` or `ClassDrifted` names (last wins).
    convergence: BTreeMap<String, BTreeMap<u64, bool>>,
}

impl RoundSeries {
    /// The rounds at whose close `class` was not converged, as ascending
    /// half-open spans. A class starts un-converged, so a class the journal
    /// never names was never converged.
    pub fn unconverged(&self, class: &str) -> Vec<Range<u64>> {
        let mut spans = Vec::new();
        let mut start = Some(0);
        for (&round, &converged) in self.convergence.get(class).into_iter().flatten() {
            match (start, converged) {
                (Some(from), true) => {
                    spans.push(from..round);
                    start = None;
                }
                (None, false) => start = Some(round),
                _ => {}
            }
        }
        let end = self.rounds.last().map_or(0, |r| r.round + 1);
        spans.extend(start.map(|from| from..end));
        spans.retain(|s| !s.is_empty());
        spans
    }

    /// Rounds whose cost fraction exceeded `budget`.
    pub fn over_budget(&self, budget: f64) -> u64 {
        self.rounds.iter().filter(|r| r.cost_fraction > budget).count() as u64
    }
}

/// Fold a journal into the master's [`RoundSeries`], in one pass over its
/// `RoundClosed`, `ClassDrifted` and `ClassConverged` events. Events must be in
/// canonical journal order (they are, in any exported journal).
pub fn round_series(events: &[TraceEvent]) -> RoundSeries {
    let mut rounds = BTreeMap::new();
    let mut series = RoundSeries::default();
    for ev in events {
        let (class, round, converged) = match &ev.kind {
            &EventKind::RoundClosed { round, coverage, deadline_hit, cost_fraction, .. } => {
                rounds.insert(round, RoundRecord { round, coverage, deadline_hit, cost_fraction });
                continue;
            }
            EventKind::ClassDrifted { round, class, relative_distance, .. } => {
                series.drift.push(DriftSpan {
                    class: class.clone(),
                    drift_round: *round,
                    relative_distance: *relative_distance,
                    reconverged_round: None,
                });
                (class, *round, false)
            }
            EventKind::ClassConverged { round, class } => {
                let open = |s: &&mut DriftSpan| s.class == *class && s.reconverged_round.is_none();
                if let Some(span) = series.drift.iter_mut().rev().find(open) {
                    span.reconverged_round = Some(*round);
                }
                (class, *round, true)
            }
            _ => continue,
        };
        series.convergence.entry(class.clone()).or_default().insert(round, converged);
    }
    series.rounds = rounds.into_values().collect();
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(seq: u64, obj: u32, class: u32, node: u16, bytes: u64) -> TraceEvent {
        TraceEvent {
            t_ns: seq,
            source: 0,
            seq,
            kind: EventKind::ObjectFault { obj, class, home: 0, node, bytes },
        }
    }

    fn trap(seq: u64, obj: u32, class: u32, node: u16) -> TraceEvent {
        TraceEvent {
            t_ns: seq,
            source: 0,
            seq,
            kind: EventKind::FalseInvalidTrap { obj, class, node },
        }
    }

    #[test]
    fn replicas_duplicates_and_traps_are_attributed_per_class() {
        let events = vec![
            fault(0, 10, 1, 0, 64), // obj 10 first fetch (node 0)
            fault(1, 10, 1, 1, 64), // replica copy on node 1
            fault(2, 10, 1, 1, 64), // node 1 refetch: duplicate
            fault(3, 11, 1, 2, 64), // obj 11, single node: no waste
            fault(4, 20, 2, 0, 512), // class 2, lone fault
            trap(5, 10, 1, 1),
            trap(6, 10, 1, 0),
        ];
        let report = analyze_waste(&events);
        assert_eq!(report.classes.len(), 2);
        let c1 = report.class(1).unwrap();
        assert_eq!(c1.faults, 4);
        assert_eq!(c1.fault_bytes, 256);
        assert_eq!(c1.replica_objects, 1);
        assert_eq!(c1.replica_fetches, 1);
        assert_eq!(c1.duplicate_fetches, 1);
        assert_eq!(c1.duplicate_bytes, 64);
        assert_eq!(c1.false_invalid_traps, 2);
        let c2 = report.class(2).unwrap();
        assert_eq!(c2.faults, 1);
        assert_eq!(c2.replica_objects, 0);
        assert_eq!(c2.duplicate_fetches, 0);
        assert_eq!(report.total_fault_bytes, 768);
        assert_eq!(report.total_duplicate_bytes, 64);
        assert_eq!(report.total_false_invalid_traps, 2);
    }

    #[test]
    fn three_node_replica_counts_one_object_two_replica_fetches() {
        let events = vec![
            fault(0, 5, 3, 0, 32),
            fault(1, 5, 3, 1, 32),
            fault(2, 5, 3, 2, 32),
        ];
        let report = analyze_waste(&events);
        let c = report.class(3).unwrap();
        assert_eq!(c.replica_objects, 1, "one object, however many copies");
        assert_eq!(c.replica_fetches, 2, "two copies beyond the first node");
        assert_eq!(c.duplicate_fetches, 0);
    }

    #[test]
    fn drift_spans_pair_drift_with_the_next_convergence() {
        let mk = |seq: u64, kind: EventKind| TraceEvent { t_ns: seq, source: 9, seq, kind };
        let events = vec![
            mk(0, EventKind::ClassConverged { round: 2, class: "Cell".into() }),
            mk(1, EventKind::ClassDrifted {
                round: 7,
                class: "Cell".into(),
                relative_distance: 0.8,
                new_rate: "1/2X".into(),
            }),
            mk(2, EventKind::ClassConverged { round: 11, class: "Cell".into() }),
            mk(3, EventKind::ClassDrifted {
                round: 20,
                class: "Cell".into(),
                relative_distance: 0.5,
                new_rate: "1/4X".into(),
            }),
        ];
        let spans = round_series(&events).drift;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].lag(), Some(4));
        assert_eq!(spans[1].reconverged_round, None, "unclosed span survives");
        assert_eq!(spans[1].lag(), None);
    }

    #[test]
    fn round_series_keeps_each_rounds_last_close_and_the_unconverged_spans() {
        let mk = |seq: u64, kind: EventKind| TraceEvent { t_ns: seq, source: 9, seq, kind };
        let close = |seq: u64, round: u64, cost_fraction: f64| {
            let kind = EventKind::RoundClosed {
                round,
                oals: 2,
                coverage: 1.0,
                deadline_hit: false,
                cost_fraction,
            };
            mk(seq, kind)
        };
        let converged = |seq: u64, round: u64| {
            mk(seq, EventKind::ClassConverged { round, class: "Cell".into() })
        };
        let drifted = |seq: u64, round: u64| {
            let kind = EventKind::ClassDrifted {
                round,
                class: "Cell".into(),
                relative_distance: 0.8,
                new_rate: "2X".into(),
            };
            mk(seq, kind)
        };
        // Rounds 0-4 close; a restore to the checkpoint after round 2 closes
        // rounds 3 and 4 again, and re-journals the drift at round 3.
        let events = vec![
            close(0, 0, 0.1),
            close(1, 1, 0.1),
            converged(2, 1),
            close(3, 2, 0.1),
            close(4, 3, 0.3),
            drifted(5, 3),
            close(6, 4, 0.3),
            close(7, 3, 0.2),
            drifted(8, 3),
            close(9, 4, 0.05),
        ];
        let series = round_series(&events);
        let rounds: Vec<(u64, f64)> =
            series.rounds.iter().map(|r| (r.round, r.cost_fraction)).collect();
        assert_eq!(rounds, vec![(0, 0.1), (1, 0.1), (2, 0.1), (3, 0.2), (4, 0.05)]);
        assert_eq!(series.over_budget(0.1), 1);
        assert_eq!(series.unconverged("Cell"), vec![0..1, 3..5]);
        assert_eq!(series.unconverged("Body"), vec![0..5], "never named, never converged");
        assert_eq!(series.drift.len(), 2, "drift spans keep every journaled drift");
    }

    #[test]
    fn empty_journal_yields_empty_report() {
        let report = analyze_waste(&[]);
        assert!(report.classes.is_empty());
        assert_eq!(report.total_fault_bytes, 0);
        assert!(round_series(&[]).drift.is_empty());
        assert!(round_series(&[]).unconverged("Cell").is_empty());
    }
}
