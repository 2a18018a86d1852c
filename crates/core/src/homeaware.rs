//! Home-effect-aware correlation analysis (Section V).
//!
//! The paper's future work: *"Our active correlation tracking mechanism still needs to
//! be enhanced for taking home effect into account for proper thread migration
//! decisions in some tricky cases that objects shared by a pair of threads are homed
//! at neither node of the threads."* Collocating two threads only removes the
//! communication on shared objects that are (or can be re-homed) at the common node;
//! bytes homed at a third node keep costing remote faults no matter where the pair
//! sits.
//!
//! [`HomeAwareAnalyzer`] consumes the same OAL stream as the TCM builder and splits
//! every pair's shared volume into a **realizable** part (homed at either thread's
//! node) and a **stranded** part (homed at neither — the tricky case). It also derives
//! per-object **home-migration recommendations**: objects whose accessors
//! predominantly sit on some other node, which is exactly what the GOS's
//! `relocate_homes` fixes.
//!
//! The placement engine closes the gap the quote names with one more read of the
//! same statistics: [`HomeAwareAnalyzer::affinity`] says where each thread's logged
//! bytes are homed, so a planned group of collocated threads can be landed on the
//! node that already homes its data, and no mover has to carry homes.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use jessy_gos::ObjectId;
use jessy_net::{NodeId, ThreadId};

use crate::oal::Oal;
use crate::tcm::Tcm;

/// One recommended object home migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HomeMigrationRec {
    /// The object to re-home.
    pub obj: ObjectId,
    /// Its current home.
    pub from: NodeId,
    /// The recommended home (the dominant accessor node).
    pub to: NodeId,
    /// Interval-accesses observed from the recommended node.
    pub accesses_at_dest: u32,
    /// Interval-accesses observed from everywhere else (including the current home).
    pub accesses_elsewhere: u32,
}

/// The analyzer's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HomeAwareReport {
    /// Pair-shared bytes homed at either thread's node — the gain collocation (plus a
    /// matching home migration) can actually realize.
    pub realizable: Tcm,
    /// Pair-shared bytes homed at neither thread's node — the paper's tricky case.
    pub stranded: Tcm,
    /// Per-object re-homing recommendations, most-profitable first.
    pub recommendations: Vec<HomeMigrationRec>,
}

impl HomeAwareReport {
    /// Fraction of the total pairwise volume that is stranded (0 when nothing is
    /// shared).
    pub fn stranded_fraction(&self) -> f64 {
        let total = self.realizable.total() + self.stranded.total();
        if total == 0.0 {
            0.0
        } else {
            self.stranded.total() / total
        }
    }
}

#[derive(Debug, Default, Clone)]
struct ObjStat {
    bytes: f64,
    threads: Vec<ThreadId>,
    /// Interval-accesses per node (indexed by node id).
    per_node: Vec<u32>,
}

/// Accumulates per-object accessor statistics from OALs.
#[derive(Debug)]
pub struct HomeAwareAnalyzer {
    n_threads: usize,
    n_nodes: usize,
    objects: HashMap<ObjectId, ObjStat>,
}

impl HomeAwareAnalyzer {
    /// Analyzer for a cluster of `n_nodes` nodes and `n_threads` threads.
    pub fn new(n_nodes: usize, n_threads: usize) -> Self {
        HomeAwareAnalyzer {
            n_threads,
            n_nodes,
            objects: HashMap::new(),
        }
    }

    /// Ingest one OAL; `placement` maps each thread to its current node.
    /// Summary entries (the budget ladder's summary-only rung) name no object,
    /// so they are no home evidence.
    pub fn ingest(&mut self, oal: &Oal, placement: &[NodeId]) {
        let node = placement[oal.thread.index()];
        for e in oal.entries.iter().filter(|e| !e.is_summary()) {
            let stat = self.objects.entry(e.obj).or_insert_with(|| ObjStat {
                per_node: vec![0; self.n_nodes],
                ..Default::default()
            });
            stat.bytes = stat.bytes.max(e.bytes as f64);
            if !stat.threads.contains(&oal.thread) {
                stat.threads.push(oal.thread);
            }
            stat.per_node[node.index()] += 1;
        }
    }

    /// Objects observed so far.
    pub fn n_objects(&self) -> usize {
        self.objects.len()
    }

    /// The objects observed so far, in id order: the homes [`Self::affinity`]
    /// and [`Self::build`] read.
    pub fn objects(&self) -> Vec<ObjectId> {
        let mut objs: Vec<ObjectId> = self.objects.keys().copied().collect();
        objs.sort_unstable();
        objs
    }

    /// Forget every accumulated statistic. A planning epoch that applied thread
    /// moves or home repairs calls this so the next epoch's dominance evidence
    /// describes the *post-repair* world, not a mixture.
    pub fn clear(&mut self) {
        self.objects.clear();
    }

    /// Per thread, per node: the bytes of the distinct objects the thread logged
    /// since the last [`Self::clear`] that are homed on that node now. Each object
    /// counts once per thread, at the largest size any thread logged for it; the
    /// sums are integer-valued, so they are exact in any iteration order.
    pub fn affinity(&self, home_of: impl Fn(ObjectId) -> NodeId) -> Vec<Vec<f64>> {
        let mut affinity = vec![vec![0.0; self.n_nodes]; self.n_threads];
        for (&obj, stat) in &self.objects {
            let home = home_of(obj).index();
            for t in &stat.threads {
                affinity[t.index()][home] += stat.bytes;
            }
        }
        affinity
    }

    /// Build the report against the current homes (`home_of`) and `placement`.
    pub fn build(&self, home_of: impl Fn(ObjectId) -> NodeId, placement: &[NodeId]) -> HomeAwareReport {
        let mut realizable = Tcm::new(self.n_threads);
        let mut stranded = Tcm::new(self.n_threads);
        let mut recommendations = Vec::new();

        for (&obj, stat) in &self.objects {
            let home = home_of(obj);
            // Pair decomposition.
            for a in 0..stat.threads.len() {
                for b in (a + 1)..stat.threads.len() {
                    let (ta, tb) = (stat.threads[a], stat.threads[b]);
                    let at_either =
                        home == placement[ta.index()] || home == placement[tb.index()];
                    if at_either {
                        realizable.add_pair(ta, tb, stat.bytes);
                    } else {
                        stranded.add_pair(ta, tb, stat.bytes);
                    }
                }
            }
            // Home recommendation: only accesses from the *current home* node change
            // cost when the home moves (they become remote; the destination's become
            // local; everyone else stays remote either way). Profitable iff the
            // dominant accessor node strictly beats the current home's own pull.
            let (best_node, &best) = stat
                .per_node
                .iter()
                .enumerate()
                .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
                .expect("at least one node");
            let at_home = stat.per_node[home.index()];
            let elsewhere: u32 = stat.per_node.iter().sum::<u32>() - best;
            if NodeId(best_node as u16) != home && best > at_home {
                recommendations.push(HomeMigrationRec {
                    obj,
                    from: home,
                    to: NodeId(best_node as u16),
                    accesses_at_dest: best,
                    accesses_elsewhere: elsewhere,
                });
            }
        }
        recommendations.sort_by_key(|r| {
            (
                std::cmp::Reverse(r.accesses_at_dest.saturating_sub(r.accesses_elsewhere)),
                r.obj,
            )
        });
        HomeAwareReport {
            realizable,
            stranded,
            recommendations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oal::OalEntry;
    use jessy_gos::{ClassId, CostModel, Gos, GosConfig};
    use jessy_net::{ClockBoard, LatencyModel};

    fn gos3() -> (Gos, jessy_net::ClockHandle) {
        let g = Gos::new(GosConfig {
            n_nodes: 3,
            n_threads: 3,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        (g, ClockBoard::new(1).handle(ThreadId(0)))
    }

    fn oal(thread: u32, interval: u64, obj: ObjectId) -> Oal {
        Oal {
            thread: ThreadId(thread),
            interval,
            entries: vec![OalEntry {
                obj,
                class: ClassId(0),
                bytes: 100,
            }],
        }
    }

    #[test]
    fn summary_entries_are_no_home_evidence() {
        let mut ha = HomeAwareAnalyzer::new(3, 3);
        ha.ingest(&oal(0, 0, ObjectId(7)).summarize(), &[NodeId(0); 3]);
        assert_eq!(ha.n_objects(), 0, "a summary entry names a class, not an object");
    }

    #[test]
    fn stranded_vs_realizable_split() {
        let (gos, clock) = gos3();
        let class = gos.classes().register_scalar("X", 1);
        // Object A homed at node 0 (thread 0's node); object B homed at node 2 —
        // neither thread 0's nor thread 1's node.
        let a = gos.alloc_scalar(NodeId(0), class, &clock, None).id;
        let b = gos.alloc_scalar(NodeId(2), class, &clock, None).id;
        let placement = vec![NodeId(0), NodeId(1), NodeId(2)];

        let mut an = HomeAwareAnalyzer::new(3, 3);
        for t in [0u32, 1] {
            an.ingest(&oal(t, 0, a), &placement);
            an.ingest(&oal(t, 0, b), &placement);
        }
        let report = an.build(|o| gos.object_ref(o).home(), &placement);
        assert_eq!(report.realizable.at(ThreadId(0), ThreadId(1)), 100.0, "A realizable");
        assert_eq!(report.stranded.at(ThreadId(0), ThreadId(1)), 100.0, "B stranded");
        assert!((report.stranded_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn affinity_counts_each_logged_object_once_at_its_home() {
        let (gos, clock) = gos3();
        let class = gos.classes().register_scalar("X", 1);
        let a = gos.alloc_scalar(NodeId(0), class, &clock, None).id;
        let b = gos.alloc_scalar(NodeId(2), class, &clock, None).id;
        let placement = vec![NodeId(0), NodeId(1), NodeId(2)];
        let mut an = HomeAwareAnalyzer::new(3, 3);
        for interval in 0..3 {
            an.ingest(&oal(0, interval, a), &placement);
        }
        an.ingest(&oal(0, 0, b), &placement);
        an.ingest(&oal(1, 0, b), &placement);
        let affinity = an.affinity(|o| gos.object_ref(o).home());
        assert_eq!(affinity[0], vec![100.0, 0.0, 100.0], "a once, however often logged");
        assert_eq!(affinity[1], vec![0.0, 0.0, 100.0]);
        assert_eq!(affinity[2], vec![0.0; 3], "thread 2 logged nothing");
    }

    #[test]
    fn recommends_rehoming_to_dominant_accessor() {
        let (gos, clock) = gos3();
        let class = gos.classes().register_scalar("X", 1);
        let obj = gos.alloc_scalar(NodeId(2), class, &clock, None).id;
        let placement = vec![NodeId(0), NodeId(0), NodeId(1)];

        let mut an = HomeAwareAnalyzer::new(3, 3);
        // Threads 0 and 1 (both node 0) access it every interval; thread 2 once.
        for interval in 0..5 {
            an.ingest(&oal(0, interval, obj), &placement);
            an.ingest(&oal(1, interval, obj), &placement);
        }
        an.ingest(&oal(2, 0, obj), &placement);

        let report = an.build(|o| gos.object_ref(o).home(), &placement);
        assert_eq!(report.recommendations.len(), 1);
        let rec = report.recommendations[0];
        assert_eq!(rec.obj, obj);
        assert_eq!(rec.from, NodeId(2));
        assert_eq!(rec.to, NodeId(0));
        assert_eq!(rec.accesses_at_dest, 10);
        assert_eq!(rec.accesses_elsewhere, 1);
    }

    #[test]
    fn no_recommendation_when_the_home_pulls_its_weight() {
        let (gos, clock) = gos3();
        let class = gos.classes().register_scalar("X", 1);
        let obj = gos.alloc_scalar(NodeId(0), class, &clock, None).id;
        // Thread 2 runs ON the home node and accesses as often as the remote thread:
        // moving the home would trade one remote accessor for another — no gain.
        let placement = vec![NodeId(1), NodeId(2), NodeId(0)];
        let mut an = HomeAwareAnalyzer::new(3, 3);
        for interval in 0..3 {
            an.ingest(&oal(0, interval, obj), &placement); // node 1
            an.ingest(&oal(2, interval, obj), &placement); // node 0 (the home)
        }
        let report = an.build(|o| gos.object_ref(o).home(), &placement);
        assert!(
            report.recommendations.is_empty(),
            "{:?}",
            report.recommendations
        );
    }

    #[test]
    fn idle_home_is_always_worth_leaving() {
        let (gos, clock) = gos3();
        let class = gos.classes().register_scalar("X", 1);
        let obj = gos.alloc_scalar(NodeId(0), class, &clock, None).id;
        // Nobody runs on the home node; even a single remote accessor justifies the
        // move (its accesses become local, nobody's become remote).
        let placement = vec![NodeId(1), NodeId(2), NodeId(2)];
        let mut an = HomeAwareAnalyzer::new(3, 3);
        an.ingest(&oal(0, 0, obj), &placement);
        let report = an.build(|o| gos.object_ref(o).home(), &placement);
        assert_eq!(report.recommendations.len(), 1);
        assert_eq!(report.recommendations[0].to, NodeId(1));
    }

    #[test]
    fn recommendation_applies_cleanly_through_the_gos() {
        let (gos, clock) = gos3();
        let class = gos.classes().register_scalar("X", 1);
        let obj = gos.alloc_scalar(NodeId(2), class, &clock, None).id;
        let placement = vec![NodeId(0), NodeId(0), NodeId(1)];
        let mut an = HomeAwareAnalyzer::new(3, 3);
        for interval in 0..3 {
            an.ingest(&oal(0, interval, obj), &placement);
        }
        let report = an.build(|o| gos.object_ref(o).home(), &placement);
        let rec = report.recommendations[0];
        assert_eq!(gos.relocate_homes([(rec.obj, rec.to)], &clock).0, 1);
        assert_eq!(gos.object_ref(obj).home(), NodeId(0));
        // Re-analyzing against the new home: nothing left to recommend.
        let report = an.build(|o| gos.object_ref(o).home(), &placement);
        assert!(report.recommendations.is_empty());
    }
}
