//! Thread migration machinery (Section III).
//!
//! The *direct* cost of a migration is the packed thread context (the Java stack); the
//! *indirect* cost is the train of remote object faults the thread suffers after
//! landing, which is exactly what the sticky set predicts and sticky-set prefetching
//! hides. [`MigrationReport`] records both; [`count_would_fault`] measures ground
//! truth — how many of a set of objects would actually fault at a node — which the
//! tests use to validate the cost model against reality.

use serde::{Deserialize, Serialize};

use jessy_core::sticky::resolution::Resolution;
use jessy_gos::{AccessState, Gos, ObjectId, ThreadSpace};
use jessy_net::{NodeId, SimNanos, ThreadId};

/// What one thread migration moved and cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// The migrated thread.
    pub thread: ThreadId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Thread context (stack) bytes shipped — the direct cost.
    pub ctx_bytes: usize,
    /// Objects prefetched alongside: copies actually installed at the destination
    /// (0 without prefetching; objects homed at the destination are not among them).
    pub prefetched_objects: usize,
    /// Prefetched payload + object-header bytes.
    pub prefetch_bytes: usize,
    /// Simulated nanoseconds the migration itself took.
    pub sim_cost_ns: SimNanos,
    /// The sticky-set resolution, when prefetching was requested.
    pub resolution: Option<Resolution>,
}

impl MigrationReport {
    /// Total bytes moved by the migration: context and prefetched copies.
    pub fn total_bytes(&self) -> usize {
        self.ctx_bytes + self.prefetch_bytes
    }
}

/// Ground truth for the sticky-set cost model: how many of `objs` would take a remote
/// fault if the owner of `space` (running on `node`) accessed them right now (no
/// entry in the thread's arena, or an invalid one).
pub fn count_would_fault(
    gos: &Gos,
    space: &ThreadSpace,
    node: NodeId,
    objs: impl IntoIterator<Item = ObjectId>,
) -> usize {
    objs.into_iter()
        .filter(|&obj| {
            if gos.object_ref(obj).home() == node {
                return false;
            }
            !matches!(
                space.access_state(obj),
                Some(AccessState::Valid) | Some(AccessState::FalseInvalid)
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_gos::{CostModel, GosConfig};
    use jessy_net::{ClockBoard, LatencyModel};

    #[test]
    fn count_would_fault_distinguishes_states() {
        let gos = Gos::new(GosConfig {
            n_nodes: 2,
            n_threads: 4,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let mut space = ThreadSpace::new(ThreadId(0));
        let class = gos.classes().register_scalar("X", 1);
        let home0 = gos.alloc_scalar(NodeId(0), class, &clock, None); // homed at target
        let cached = gos.alloc_scalar(NodeId(1), class, &clock, None);
        let cold = gos.alloc_scalar(NodeId(1), class, &clock, None);
        gos.read(&mut space, NodeId(0), cached.id, &clock, |_| {}); // valid cache at node 0

        let faults = count_would_fault(&gos, &space, NodeId(0), [home0.id, cached.id, cold.id]);
        assert_eq!(faults, 1, "only the cold remote object faults");
    }

    #[test]
    fn prefetch_eliminates_predicted_faults() {
        let gos = Gos::new(GosConfig {
            n_nodes: 2,
            n_threads: 4,
            latency: LatencyModel::free(),
            costs: CostModel::free(),
            prefetch_depth: 0,
            consistency: jessy_gos::protocol::ConsistencyModel::GlobalHlrc,
            faults: None,
        });
        let clock = ClockBoard::new(1).handle(ThreadId(0));
        let mut space = ThreadSpace::new(ThreadId(0));
        let class = gos.classes().register_scalar("X", 2);
        let objs: Vec<ObjectId> = (0..5)
            .map(|_| gos.alloc_scalar(NodeId(1), class, &clock, None).id)
            .collect();
        assert_eq!(count_would_fault(&gos, &space, NodeId(0), objs.iter().copied()), 5);
        let moved = gos.prefetch_into(&mut space, NodeId(0), objs.iter().copied(), &clock);
        assert_eq!(moved, (5, 5 * (16 + 16)), "payload + object header each");
        assert_eq!(count_would_fault(&gos, &space, NodeId(0), objs.iter().copied()), 0);
    }
}
