//! Sticky-set resolution (Section III.A.3, Fig. 5).
//!
//! Invoked lazily at thread-migration time. Starting from the stack-invariant
//! references (**topmost first** — top invariants tend to be more recent), the resolver
//! traces the object reference graph selecting prefetch candidates (sampled or not)
//! until the amount of *reachable sampled* bytes hits the per-class footprint estimated
//! by object sampling. Sampled objects double as **landmarks**: if a traversal runs
//! `t × gap` objects of some class without meeting one, it is probably heading away
//! from the sticky set and the current root is abandoned for the next invariant.

use std::collections::{HashMap, HashSet};

use serde::{Deserialize, Serialize};

use jessy_gos::{ClassId, Gos, ObjectId};
use jessy_net::ClockHandle;

use crate::sampling::GapTable;

/// Result of one sticky-set resolution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Resolution {
    /// Selected prefetch candidates, in visit order.
    pub selected: Vec<ObjectId>,
    /// Total payload bytes of the selected objects (the prefetch volume).
    pub total_bytes: u64,
    /// Gap-scaled sampled bytes collected per class (compared against the budget).
    pub collected: HashMap<ClassId, u64>,
    /// Graph edges traversed.
    pub edges_visited: u64,
    /// Roots abandoned by the landmark heuristic.
    pub aborted_roots: u32,
    /// Whether every budgeted class was satisfied.
    pub budget_met: bool,
}

fn budget_met(budget: &HashMap<ClassId, u64>, collected: &HashMap<ClassId, u64>) -> bool {
    budget
        .iter()
        .all(|(class, need)| *need == 0 || collected.get(class).copied().unwrap_or(0) >= *need)
}

/// The landmark tolerance `t` of Section III.A.3: a traversal that runs past
/// `t × gap` objects of a class without meeting a sampled landmark abandons its root.
pub const LANDMARK_TOLERANCE: f64 = 2.0;

/// Resolve the sticky set from `roots` (stack invariants, topmost first) against the
/// per-class footprint `budget`.
///
/// Each root is explored breadth-first. Per class, a run counter tracks objects seen
/// since the last sampled landmark; exceeding [`LANDMARK_TOLERANCE`]` × gap(class)`
/// aborts the root. The walk ends as soon as every budgeted class is satisfied.
pub fn resolve_sticky_set(
    gos: &Gos,
    gaps: &GapTable,
    roots: &[ObjectId],
    budget: &HashMap<ClassId, u64>,
    clock: &ClockHandle,
) -> Resolution {
    let mut res = Resolution::default();
    let mut visited: HashSet<ObjectId> = HashSet::new();
    let edge_cost = gos.costs().resolve_edge_ns;

    'roots: for &root in roots {
        if budget_met(budget, &res.collected) {
            break;
        }
        if visited.contains(&root) {
            continue;
        }
        // Per-root landmark run counters.
        let mut unsampled_run: HashMap<ClassId, u64> = HashMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        while let Some(obj) = queue.pop_front() {
            if !visited.insert(obj) {
                continue;
            }
            let core = gos.object_ref(obj);
            res.selected.push(obj);
            res.total_bytes += core.payload_bytes() as u64;

            let class = core.class;
            let run = unsampled_run.entry(class).or_insert(0);
            if core.is_sampled() {
                *run = 0;
                let scaled = gaps.scaled_bytes(class, core.elem_seq0, core.len_elems());
                *res.collected.entry(class).or_insert(0) += scaled;
                if budget_met(budget, &res.collected) {
                    res.budget_met = true;
                    return res;
                }
            } else {
                *run += 1;
                let limit = (LANDMARK_TOLERANCE * gaps.gap(class) as f64).ceil() as u64;
                if *run > limit {
                    // Wrong direction: abandon this root, try the next invariant.
                    res.aborted_roots += 1;
                    continue 'roots;
                }
            }

            core.with_refs(|children| {
                for &child in children {
                    clock.spend(edge_cost);
                    res.edges_visited += 1;
                    if !visited.contains(&child) {
                        queue.push_back(child);
                    }
                }
            });
        }
    }
    res.budget_met = budget_met(budget, &res.collected);
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplingRate;
    use jessy_gos::{CostModel, GosConfig};
    use jessy_net::{ClockBoard, LatencyModel, NodeId, ThreadId};

    struct Fixture {
        gos: Gos,
        gaps: GapTable,
        clock: ClockHandle,
        class: ClassId,
    }

    /// Build a GOS with one 8-byte scalar class at an explicit gap.
    fn fixture(rate: SamplingRate) -> Fixture {
        let gos = Gos::new(GosConfig {
            n_nodes: 1,
            n_threads: 4,
            latency: LatencyModel::free(),
            costs: CostModel::pentium4_2ghz(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let class = gos.classes().register_scalar("Node", 1);
        let gaps = GapTable::new(4096);
        gaps.register_class(class, 8, rate);
        Fixture {
            gos,
            gaps,
            clock,
            class,
        }
    }

    /// Allocate a linked chain of `n` objects, tagging sampled from the gap table;
    /// returns ids head-first.
    fn chain(f: &Fixture, n: usize) -> Vec<ObjectId> {
        let mut ids = Vec::new();
        for _ in 0..n {
            let core = f.gos.alloc_scalar(NodeId(0), f.class, &f.clock, None);
            core.set_sampled(f.gaps.decide_sampled(f.class, core.elem_seq0, 1));
            if let Some(&prev) = ids.last() {
                f.gos.object_ref(prev).add_ref(core.id);
            }
            ids.push(core.id);
        }
        ids
    }

    #[test]
    fn walks_until_budget_met() {
        let f = fixture(SamplingRate::Full); // every object sampled, gap 1
        let ids = chain(&f, 100);
        // Budget: 10 sampled objects' worth (8 bytes scaled ×1 each).
        let budget = HashMap::from([(f.class, 80u64)]);
        let res = resolve_sticky_set(&f.gos, &f.gaps, &ids[..1], &budget, &f.clock);
        assert!(res.budget_met);
        assert_eq!(res.selected.len(), 10, "stops right at the budget");
        assert_eq!(res.total_bytes, 80);
        assert_eq!(res.collected[&f.class], 80);
    }

    #[test]
    fn landmark_tolerance_aborts_wrong_directions() {
        let f = fixture(SamplingRate::Full);
        // Root A leads into a chain of UNSAMPLED objects (gap 1 ⇒ limit = t*1 = 2):
        // the walk must abort after ~2 unsampled objects and move to root B.
        let bad = chain(&f, 30);
        for &id in &bad {
            f.gos.object_ref(id).set_sampled(false);
        }
        let good = chain(&f, 10); // all sampled
        let budget = HashMap::from([(f.class, 40u64)]);
        let res = resolve_sticky_set(
            &f.gos,
            &f.gaps,
            &[bad[0], good[0]],
            &budget,
            &f.clock,
        );
        assert!(res.budget_met);
        assert_eq!(res.aborted_roots, 1);
        assert!(
            res.selected.len() <= 3 + 5,
            "bad path truncated: {:?}",
            res.selected.len()
        );
        assert!(res.selected.contains(&good[0]));
    }

    #[test]
    fn unsampled_objects_are_still_selected() {
        // "regardless of sampled or unsampled" — unsampled objects between landmarks
        // are prefetch candidates too.
        let f = fixture(SamplingRate::NX(128)); // 8-byte class, 128X → nominal gap 4
        assert_eq!(f.gaps.gap(f.class), 5, "nearest prime to 4 (upward tie-break)");
        let ids = chain(&f, 20);
        let sampled: Vec<bool> = ids
            .iter()
            .map(|id| f.gos.object_ref(*id).is_sampled())
            .collect();
        assert!(sampled.iter().any(|s| !*s), "need unsampled objects in the chain");
        let budget = HashMap::from([(f.class, u64::MAX)]); // walk everything
        let res = resolve_sticky_set(&f.gos, &f.gaps, &ids[..1], &budget, &f.clock);
        assert!(!res.budget_met);
        assert!(
            res.selected.len() > sampled.iter().filter(|s| **s).count(),
            "selection includes unsampled objects"
        );
    }

    #[test]
    fn roots_are_tried_in_order_and_deduplicated() {
        let f = fixture(SamplingRate::Full);
        let ids = chain(&f, 5);
        let budget = HashMap::from([(f.class, u64::MAX)]);
        // Same root twice plus a mid-chain root already covered by the first walk.
        let res = resolve_sticky_set(
            &f.gos,
            &f.gaps,
            &[ids[0], ids[0], ids[2]],
            &budget,
            &f.clock,
        );
        assert_eq!(res.selected.len(), 5, "no duplicates");
    }

    #[test]
    fn empty_budget_is_trivially_met() {
        let f = fixture(SamplingRate::Full);
        let ids = chain(&f, 3);
        let res =
            resolve_sticky_set(&f.gos, &f.gaps, &ids[..1], &HashMap::new(), &f.clock);
        assert!(res.budget_met);
    }

    #[test]
    fn resolution_charges_edge_costs() {
        let f = fixture(SamplingRate::Full);
        let ids = chain(&f, 10);
        let before = f.clock.now();
        let budget = HashMap::from([(f.class, u64::MAX)]);
        let res = resolve_sticky_set(&f.gos, &f.gaps, &ids[..1], &budget, &f.clock);
        assert_eq!(res.edges_visited, 9);
        assert!(f.clock.now() > before);
    }
}
