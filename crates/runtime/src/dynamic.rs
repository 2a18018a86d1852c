//! Dynamic load balancing — closing the loop the paper opens.
//!
//! Section V: *"Our future work is to formulate an advanced load balancing policy that
//! utilizes the correlation maps and sticky sets gathered…"*. This module is that
//! policy, built from the pieces the paper provides, as one engine: a **planning
//! epoch** ([`plan_epoch`]) refines the *live* placement with KL-style boundary moves
//! ([`crate::LoadBalancer::refine`]) over whatever correlation view the reducer
//! maintains; the master posts a directive per surviving move. Every move is priced by the
//! paper's profitability test (`gain × horizon ≥ sticky-set bytes`, a swap priced as
//! one unit), [`RebalanceConfig::migration_budget_bytes`] caps the sticky-set bytes
//! an epoch may put on the fabric, and hysteresis
//! ([`RebalanceConfig::cooldown_rounds`]) keeps a recently moved thread pinned so
//! plans can't bounce it back ("threads … thrash between nodes", the paper's
//! warning). With [`RebalanceConfig::migrate_homes`] the epoch takes the home
//! effect into account: it lands each refined group on the node that already homes
//! its data, and the master follows the epoch with home repair.
//!
//! [`RebalanceConfig::every_rounds`] only sets how often the engine runs: `None` is a
//! single epoch once [`RebalanceConfig::after_rounds`] rounds have closed, `Some(k)`
//! an epoch every `k` closes from then on.
//!
//! Every directive is **epoch-stamped** with the master epoch current at plan time
//! and fenced at the honouring barrier, exactly like OAL batches: a directive planned
//! before a master crash/restore is dropped attributably
//! (`EventKind::DirectiveFenced`), never applied to the post-recovery world.

use serde::{Deserialize, Serialize};

use jessy_net::{NodeId, ThreadId};

use crate::balancer::{LoadBalancer, MoveFilter};
use jessy_core::CorrelationView;

/// Configuration of the dynamic balancer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalanceConfig {
    /// Plan the first epoch once this many TCM rounds have closed (at least one).
    pub after_rounds: u64,
    /// Prefetch each migrant's resolved sticky set along with its context.
    pub with_prefetch: bool,
    /// Minimum correlation gain (bytes/round of new intra-node mass) for a directive
    /// to be issued — the anti-thrashing guard.
    pub min_gain_bytes: f64,
    /// How many future rounds a migration's gain is credited for when weighed against
    /// its one-time sticky-set cost: migrate iff
    /// `gain × horizon ≥ sticky-footprint bytes` (the paper's profitability test).
    pub gain_horizon_rounds: f64,
    /// Re-plan every this many rounds after `after_rounds`. `None` runs a single
    /// planning epoch, at `after_rounds`.
    pub every_rounds: Option<u64>,
    /// A thread that migrated within this many rounds is ineligible to move again
    /// (hysteresis). Applies to every epoch, the single one included.
    pub cooldown_rounds: u64,
    /// Sticky-set bytes one planning epoch may commit to the fabric. Applies to
    /// every epoch, the single one included. `None` is unlimited.
    pub migration_budget_bytes: Option<f64>,
    /// Make the plan home-aware. Cache copies live in thread-local heaps, so
    /// collocating correlated threads only pays off once their shared objects are
    /// *homed* where they run — this is what converts a placement gain into
    /// home-local accesses. It turns on two things, with no knob of their own: each
    /// epoch lands the refined groups on the nodes that already home their data
    /// ([`crate::LoadBalancer::home_affine_labels`]), and the master repairs homes
    /// after every planning epoch. Migrants carry no homes themselves.
    pub migrate_homes: bool,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            after_rounds: 4,
            with_prefetch: true,
            min_gain_bytes: 1.0,
            gain_horizon_rounds: 10.0,
            every_rounds: None,
            cooldown_rounds: 8,
            migration_budget_bytes: None,
            migrate_homes: true,
        }
    }
}

/// A migration directive posted to a thread's slot, honoured (or fenced) at its
/// next barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Directive {
    /// Where the thread should go.
    pub dest: NodeId,
    /// The master epoch the plan was made in; a mismatch at the barrier fences
    /// the directive.
    pub epoch: u64,
}

/// One move the planner applied and posted as a directive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedMigration {
    /// The thread to move.
    pub thread: ThreadId,
    /// Where it was when the plan was made.
    pub from: NodeId,
    /// Where it should go.
    pub to: NodeId,
    /// Marginal intra-node correlation mass (bytes/round) the move adds, exact
    /// given the moves applied before it in the same epoch.
    pub gain_bytes: f64,
    /// The sticky-set cost charged to the budget.
    pub sticky_cost_bytes: f64,
}

/// One planning epoch's intra-fraction movement, for the telemetry trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntraSample {
    /// The round whose close triggered the plan.
    pub round: u64,
    /// Intra-node correlation fraction of the live placement, under the planning view.
    pub before: f64,
    /// Intra-node fraction the posted plan targets.
    pub after: f64,
}

/// Placement-engine counters surfaced in `MasterOutput` and the CLI summary.
/// [`plan_epoch`] folds each epoch in; the master adds the barrier-side counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PlacementTelemetry {
    /// Planning epochs closed.
    pub plans: u64,
    /// Migration directives posted across all epochs.
    pub directives: u64,
    /// Sticky-set bytes the posted directives committed to.
    pub planned_bytes: f64,
    /// Moves vetoed because the best gain fell below `min_gain_bytes`.
    pub vetoed_gain: u64,
    /// Moves vetoed by the cooldown window (hysteresis).
    pub vetoed_cooldown: u64,
    /// Moves vetoed by the sticky-cost profitability test.
    pub vetoed_cost: u64,
    /// Moves vetoed by the per-epoch migration-byte budget.
    pub vetoed_budget: u64,
    /// Directives dropped at barriers for carrying a stale master epoch.
    pub fenced_directives: u64,
    /// Migrations threads actually performed.
    pub applied_migrations: u64,
    /// Context and prefetch bytes those migrations moved
    /// ([`crate::migration::MigrationReport::total_bytes`]).
    pub migrated_bytes: u64,
    /// Object homes relocated alongside the migrants: always 0, since migrants
    /// carry no homes (the plan lands them on their data and home repair moves
    /// the rest). The benchmark still reports it as `runtime.migration.home_moves`.
    pub homes_migrated: u64,
    /// Object homes repaired by the master's home-effect pass (objects pulled to
    /// their dominant accessor node without any thread moving).
    pub homes_repaired: u64,
    /// Payload + object-header bytes those repairs shipped between homes.
    pub repaired_bytes: u64,
    /// Per-epoch (round, intra-before, intra-after) under the planning view.
    pub intra_trajectory: Vec<IntraSample>,
}

/// What a planning epoch reads of the cluster, gathered by the master.
#[derive(Debug, Clone, Copy)]
pub struct PlanInputs<'a> {
    /// Nodes in the cluster.
    pub n_nodes: usize,
    /// The live thread → node placement.
    pub placement: &'a [NodeId],
    /// Per-thread sticky-set footprints in bytes: each mover's cost.
    pub footprints: &'a [f64],
    /// Per thread, per node: the logged bytes homed there
    /// ([`jessy_core::HomeAwareAnalyzer::affinity`]), when the plan is home-aware.
    pub affinity: Option<&'a [Vec<f64>]>,
}

/// Decide one planning epoch: refine the live placement under the
/// sticky-cost/budget/cooldown filter; with an affinity (the master's accessor
/// statistics, kept when [`RebalanceConfig::migrate_homes`] is on) land the
/// refined groups on the nodes that home their data. Record when each mover last
/// moved (for the cooldown mask of the next epoch), fold the epoch into
/// `telemetry` and return the moves; the master posts them as epoch-stamped
/// [`Directive`]s.
pub fn plan_epoch(
    view: &dyn CorrelationView,
    config: &RebalanceConfig,
    round: u64,
    world: &PlanInputs<'_>,
    last_moved_round: &mut [Option<u64>],
    telemetry: &mut PlacementTelemetry,
) -> Vec<PlannedMigration> {
    let lb = LoadBalancer::new();
    let current = world.placement;
    let cooldown: Vec<bool> = last_moved_round
        .iter()
        .map(|m| m.is_some_and(|r| round.saturating_sub(r) < config.cooldown_rounds))
        .collect();
    let filter = MoveFilter {
        min_gain: config.min_gain_bytes,
        gain_horizon: config.gain_horizon_rounds,
        costs: Some(world.footprints),
        budget_bytes: config.migration_budget_bytes,
        in_cooldown: Some(&cooldown),
    };
    let before = lb.intra_fraction(view, current);
    let mut outcome = lb.refine(view, world.n_nodes, current, &filter);
    if let Some(affinity) = world.affinity {
        outcome = lb.home_affine_labels(view, world.n_nodes, current, outcome, affinity, &filter);
    }
    for m in &outcome.moves {
        last_moved_round[m.thread.index()] = Some(round);
    }
    telemetry.plans += 1;
    telemetry.directives += outcome.moves.len() as u64;
    telemetry.planned_bytes += outcome.spent_bytes;
    telemetry.vetoed_gain += outcome.vetoed_gain;
    telemetry.vetoed_cooldown += outcome.vetoed_cooldown;
    telemetry.vetoed_cost += outcome.vetoed_cost;
    telemetry.vetoed_budget += outcome.vetoed_budget;
    telemetry.intra_trajectory.push(IntraSample {
        round,
        before,
        after: lb.intra_fraction(view, &outcome.placement),
    });
    outcome.moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use jessy_core::oal::{Oal, OalEntry};
    use jessy_core::{HomeAwareAnalyzer, Tcm};
    use jessy_gos::{ClassId, ObjectId};

    fn nodes(placement: &[u16]) -> Vec<NodeId> {
        placement.iter().map(|&n| NodeId(n)).collect()
    }

    /// One epoch at `round` over `placement`, with no thread in cooldown.
    fn plan(
        view: &dyn CorrelationView,
        cfg: &RebalanceConfig,
        round: u64,
        world: PlanInputs<'_>,
        telemetry: &mut PlacementTelemetry,
    ) -> Vec<PlannedMigration> {
        let mut last_moved = vec![None; world.placement.len()];
        plan_epoch(view, cfg, round, &world, &mut last_moved, telemetry)
    }

    fn moved(placement: &[NodeId], issued: &[PlannedMigration]) -> Vec<NodeId> {
        let mut after = placement.to_vec();
        for m in issued {
            after[m.thread.index()] = m.to;
        }
        after
    }

    #[test]
    fn movers_land_on_their_data() {
        // Cliques {0,1} and {2,3} scattered over four full nodes; threads 4-7 are
        // uncorrelated and carry no sticky data. Every byte t0/t1 logged is homed
        // on n0. `refine` alone reunites the cliques wherever its lowest-thread
        // tie-break lands them (t0 to n1, t2 to n3), one 64-byte mover each.
        let live = nodes(&[0, 1, 2, 3, 0, 1, 2, 3]);
        let footprints = [64.0, 64.0, 64.0, 64.0, 0.0, 0.0, 0.0, 0.0];
        let (class, data) = (ClassId(0), [ObjectId(0), ObjectId(1), ObjectId(2)]);
        let homes: BTreeMap<ObjectId, NodeId> =
            data.iter().enumerate().map(|(n, &obj)| (obj, NodeId(n as u16))).collect();
        let mut tcm = Tcm::new(8);
        tcm.add_pair(ThreadId(0), ThreadId(1), 100.0);
        tcm.add_pair(ThreadId(2), ThreadId(3), 100.0);
        let cfg = RebalanceConfig::default();
        let world = PlanInputs { n_nodes: 4, placement: &live, footprints: &footprints, affinity: None };
        let mut identity = PlacementTelemetry::default();
        let refined = plan(&tcm, &cfg, 4, world, &mut identity);
        assert_eq!(identity.planned_bytes, 128.0);
        // Plan once more with t2/t3's bytes homed on `clique_home`.
        let plan_homed = |clique_home: usize| {
            let mut analyzer = HomeAwareAnalyzer::new(4, 8);
            let logged = [data[0], data[0], data[clique_home], data[clique_home]];
            for (t, obj) in logged.into_iter().enumerate() {
                let entries = vec![OalEntry { obj, class, bytes: 64 }];
                analyzer.ingest(&Oal { thread: ThreadId(t as u32), interval: 0, entries }, &live);
            }
            let affinity = analyzer.affinity(|o| homes[&o]);
            let world = PlanInputs { affinity: Some(&affinity), ..world };
            let mut telemetry = PlacementTelemetry::default();
            let issued = plan(&tcm, &cfg, 4, world, &mut telemetry);
            let after = moved(&live, &issued);
            (issued, after, telemetry)
        };

        // Homed on n2, where t2 sits: both cliques land on their data, for the
        // same footprint and the same correlation plan.
        let (issued, after, telemetry) = plan_homed(2);
        assert_eq!(&after[..4], &[NodeId(0), NodeId(0), NodeId(2), NodeId(2)], "{issued:?}");
        assert_eq!(
            telemetry.intra_trajectory[0].after, identity.intra_trajectory[0].after,
            "relabeling leaves the correlation plan untouched"
        );
        assert_eq!(telemetry.planned_bytes, 128.0, "one data-bearing mover per clique");

        // Homed on n1, where neither sits: landing {2,3} there moves both (192 B of
        // footprint against refine's 128 B), so refine's labels stand.
        let (issued, _, telemetry) = plan_homed(1);
        assert_eq!(issued, refined);
        assert_eq!(telemetry.planned_bytes, 128.0);
    }

    #[test]
    fn no_directives_for_an_already_good_placement() {
        let live = nodes(&[0, 0, 1, 1]);
        let mut tcm = Tcm::new(4);
        tcm.add_pair(ThreadId(0), ThreadId(1), 100.0);
        tcm.add_pair(ThreadId(2), ThreadId(3), 100.0);
        let world = PlanInputs { n_nodes: 2, placement: &live, footprints: &[0.0; 4], affinity: None };
        let mut telemetry = PlacementTelemetry::default();
        let issued = plan(&tcm, &RebalanceConfig::default(), 4, world, &mut telemetry);
        assert!(issued.is_empty(), "{issued:?}");
        assert_eq!((telemetry.plans, telemetry.directives), (1, 0));
        let epoch = IntraSample { round: 4, before: 1.0, after: 1.0 };
        assert_eq!(telemetry.intra_trajectory, vec![epoch]);
    }

    #[test]
    fn a_vetoed_half_of_a_swap_keeps_the_other_half_home() {
        // Both cliques split over two exactly-full nodes. Reuniting {2,3} by moving
        // thread 2 is unaffordable, and thread 1's leg alone would overload node 0:
        // the engine must repair with a swap whose legs are both cheap (0 <-> 3).
        let live = nodes(&[0, 1, 0, 1]);
        let mut tcm = Tcm::new(4);
        tcm.add_pair(ThreadId(0), ThreadId(1), 100.0);
        tcm.add_pair(ThreadId(2), ThreadId(3), 100.0);
        let footprints = [0.0, 10.0, 1e9, 0.0];
        let cfg = RebalanceConfig {
            gain_horizon_rounds: 1.0,
            ..RebalanceConfig::default()
        };
        let world = PlanInputs { n_nodes: 2, placement: &live, footprints: &footprints, affinity: None };
        let mut telemetry = PlacementTelemetry::default();
        let issued = plan(&tcm, &cfg, 1, world, &mut telemetry);
        let movers: Vec<(ThreadId, NodeId)> = issued.iter().map(|m| (m.thread, m.to)).collect();
        assert_eq!(movers, vec![(ThreadId(0), NodeId(1)), (ThreadId(3), NodeId(0))]);
        let after = moved(&live, &issued);
        assert_eq!(after[2], NodeId(0), "thread 2 stays home");
        for node in 0..2u16 {
            assert_eq!(after.iter().filter(|n| n.0 == node).count(), 2, "{after:?}");
        }
        // The swap's legs sum to its exact effect: both cliques reunited.
        let gain: f64 = issued.iter().map(|m| m.gain_bytes).sum();
        assert_eq!(gain, 200.0);
        assert_eq!(telemetry.planned_bytes, 0.0);
    }

    #[test]
    fn plan_epoch_refines_the_live_placement_and_stamps_cooldowns() {
        let live = nodes(&[0, 1, 1, 0]);
        let mut tcm = Tcm::new(4);
        tcm.add_pair(ThreadId(0), ThreadId(1), 100.0);
        tcm.add_pair(ThreadId(2), ThreadId(3), 100.0);

        let cfg = RebalanceConfig {
            every_rounds: Some(2),
            cooldown_rounds: 4,
            ..RebalanceConfig::default()
        };
        let footprints = [0.0; 4];
        let world = PlanInputs { n_nodes: 2, placement: &live, footprints: &footprints, affinity: None };
        let mut last_moved = vec![None; 4];
        let mut telemetry = PlacementTelemetry::default();
        let issued = plan_epoch(&tcm, &cfg, 5, &world, &mut last_moved, &mut telemetry);
        assert!(!issued.is_empty(), "a split-clique placement must improve");
        let first = telemetry.intra_trajectory[0];
        assert!(first.after > first.before);
        for m in &issued {
            assert_eq!(last_moved[m.thread.index()], Some(5), "cooldown stamped");
        }

        // Apply the migrations, then present a correlation view whose only repair
        // would move a just-migrated thread again: the cooldown must veto it.
        let after = moved(&live, &issued);
        assert_eq!(issued.len(), 2, "the repair is one pairwise exchange");
        let (mover, other) = (issued[0].thread, issued[1].thread);
        let mut flipped = Tcm::new(4);
        flipped.add_pair(mover, other, 100.0);
        let world = PlanInputs { placement: &after, ..world };
        let again = plan_epoch(&flipped, &cfg, 6, &world, &mut last_moved, &mut telemetry);
        assert!(again.is_empty(), "{again:?}");
        assert!(telemetry.vetoed_cooldown > 0, "the bounce is attributed to hysteresis");
        assert_eq!((telemetry.plans, telemetry.directives), (2, 2));
    }

    #[test]
    fn plan_epoch_budget_caps_committed_bytes() {
        // Four cliques, every one split across the two (exactly full) nodes: fixing
        // each takes one pairwise exchange of 2 × 60 = 120 bytes. A 150-byte budget
        // admits the first exchange and must veto the rest.
        let live = nodes(&[0, 1, 1, 0, 0, 1, 1, 0]);
        let mut tcm = Tcm::new(8);
        tcm.add_pair(ThreadId(0), ThreadId(1), 100.0);
        tcm.add_pair(ThreadId(2), ThreadId(3), 90.0);
        tcm.add_pair(ThreadId(4), ThreadId(5), 80.0);
        tcm.add_pair(ThreadId(6), ThreadId(7), 70.0);

        let cfg = RebalanceConfig {
            every_rounds: Some(1),
            cooldown_rounds: 0,
            migration_budget_bytes: Some(150.0),
            gain_horizon_rounds: 10.0,
            ..RebalanceConfig::default()
        };
        let world = PlanInputs { n_nodes: 2, placement: &live, footprints: &[60.0; 8], affinity: None };
        let mut telemetry = PlacementTelemetry::default();
        let issued = plan(&tcm, &cfg, 3, world, &mut telemetry);
        assert_eq!(issued.len(), 2, "one exchange = two directives: {issued:?}");
        assert!(telemetry.vetoed_budget > 0);
        assert!(telemetry.planned_bytes <= 150.0);
        let epoch = telemetry.intra_trajectory[0];
        assert!(epoch.after > epoch.before);
    }
}
