//! Correlation-driven thread placement.
//!
//! The paper's profiles exist to feed "effective thread-to-core placement and dynamic
//! load balancing"; the policy itself is named future work (Section V). The planner is
//! a **two-stage partitioner** over any [`CorrelationView`] (the dense TCM or a sparse
//! map — the planner never touches the packed-triangle layout):
//!
//! 1. **Greedy seeding** ([`LoadBalancer::greedy_seed`]): thread pairs in descending
//!    correlation order; an unplaced pair opens on the least-loaded node, a half-placed
//!    pair joins its partner when capacity allows.
//! 2. **Boundary refinement** ([`LoadBalancer::refine`]): deterministic
//!    Kernighan–Lin-style moves. Each step picks the best positive-gain candidate —
//!    a capacity-respecting single-thread move or a pairwise exchange (the KL swap
//!    that still makes progress when every node sits exactly at capacity) — applies
//!    it, and locks the threads involved, so the pass terminates after ≤ N steps and
//!    intra-node mass increases monotonically. A [`MoveFilter`] prices each candidate
//!    — sticky-set footprint bytes as the cost, a per-epoch migration-byte budget,
//!    and a cooldown mask for hysteresis — recording every veto attributably.
//!
//! [`LoadBalancer::plan`] runs both stages from scratch and serves static planning.
//! The live engine (`dynamic::plan_epoch`, for one epoch or many) runs stage 2
//! alone from the placement the threads actually hold, then, when it migrates
//! homes, relabels the refined groups onto the nodes that home their data
//! ([`LoadBalancer::home_affine_labels`]). Every move carries its exact, sequential
//! gain; no other migration gain is computed.
//!
//! Capacity is `⌈N/K⌉` threads per node throughout (overloading a node "causes adverse
//! slowdown, shadowing the locality benefit", Section II).

use serde::{Deserialize, Serialize};

use jessy_core::CorrelationView;
use jessy_net::{NodeId, ThreadId};

use crate::dynamic::PlannedMigration;

/// A planned placement and its quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementPlan {
    /// Thread → node assignment.
    pub placement: Vec<NodeId>,
    /// Fraction of total correlation mass that is intra-node (0..=1).
    pub intra_fraction: f64,
}

/// Pricing and hysteresis constraints applied to each refinement move.
#[derive(Debug, Clone, Copy, Default)]
pub struct MoveFilter<'a> {
    /// Moves whose correlation gain is below this stop the pass (anti-thrashing).
    pub min_gain: f64,
    /// Rounds a move's per-round gain is credited for against its one-time cost.
    pub gain_horizon: f64,
    /// Per-thread one-time move cost in bytes (the live sticky-set footprint).
    /// `None` prices every move as free.
    pub costs: Option<&'a [f64]>,
    /// Total move-cost bytes the pass may spend. `None` is unlimited.
    pub budget_bytes: Option<f64>,
    /// Threads still cooling down from a recent move; their moves are vetoed.
    pub in_cooldown: Option<&'a [bool]>,
}

/// What a refinement pass did: the final placement, the applied moves, and an
/// attributable count of every veto.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RefineOutcome {
    /// Thread → node assignment after refinement.
    pub placement: Vec<NodeId>,
    /// Moves applied, in application order. Each `gain_bytes` is the exact
    /// marginal intra-node mass of that leg given the legs before it, so a
    /// swap's two legs sum to the swap's effect.
    pub moves: Vec<PlannedMigration>,
    /// Passes stopped because the best remaining gain fell below `min_gain`.
    pub vetoed_gain: u64,
    /// Moves skipped because the thread was in its cooldown window.
    pub vetoed_cooldown: u64,
    /// Moves skipped because `gain × horizon < cost` (the profitability test).
    pub vetoed_cost: u64,
    /// Moves skipped because the migration-byte budget was exhausted.
    pub vetoed_budget: u64,
    /// Cost bytes actually spent by applied moves.
    pub spent_bytes: f64,
}

/// Correlation-driven placement planning.
#[derive(Debug, Default)]
pub struct LoadBalancer;

impl LoadBalancer {
    /// New balancer.
    pub fn new() -> Self {
        LoadBalancer
    }

    /// Plan a balanced placement of `view.n()` threads onto `n_nodes` nodes: greedy
    /// seeding followed by unrestricted boundary refinement. Deterministic for a
    /// given view.
    pub fn plan(&self, view: &dyn CorrelationView, n_nodes: usize) -> PlacementPlan {
        let seed = self.greedy_seed(view, n_nodes);
        if n_nodes == 0 {
            return seed;
        }
        let refined = self.refine(view, n_nodes, &seed.placement, &MoveFilter::default());
        let intra_fraction = self.intra_fraction(view, &refined.placement);
        PlacementPlan {
            placement: refined.placement,
            intra_fraction,
        }
    }

    /// Stage 1: pair-greedy seeding (capacity = ⌈N/K⌉ threads per node). Thread pairs
    /// are processed in descending correlation order; an unplaced pair opens on the
    /// least-loaded node, a half-placed pair joins its partner when capacity allows.
    /// Deterministic.
    pub fn greedy_seed(&self, view: &dyn CorrelationView, n_nodes: usize) -> PlacementPlan {
        if n_nodes == 0 {
            // Nothing to place onto: an empty plan, not a panic, so callers can
            // treat a degenerate topology as "no migration opportunities".
            return PlacementPlan {
                placement: Vec::new(),
                intra_fraction: 0.0,
            };
        }
        let n = view.n();
        let cap = n.div_ceil(n_nodes);
        let mut placement: Vec<Option<NodeId>> = vec![None; n];
        let mut load = vec![0usize; n_nodes];

        let least_loaded = |load: &[usize], need: usize| -> Option<usize> {
            (0..load.len())
                .filter(|&k| load[k] + need <= cap)
                .min_by_key(|&k| (load[k], k))
        };
        let place = |placement: &mut Vec<Option<NodeId>>, load: &mut Vec<usize>, t: usize, node: usize| {
            placement[t] = Some(NodeId(node as u16));
            load[node] += 1;
        };

        // Pairs by descending correlation (ties by indices for determinism).
        let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
        view.for_each_pair(&mut |i, j, w| pairs.push((i.index(), j.index(), w)));
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));

        for (i, j, _) in pairs {
            match (placement[i], placement[j]) {
                (None, None) => {
                    if let Some(node) = least_loaded(&load, 2) {
                        place(&mut placement, &mut load, i, node);
                        place(&mut placement, &mut load, j, node);
                    }
                }
                (Some(node), None) if load[node.index()] < cap => {
                    place(&mut placement, &mut load, j, node.index());
                }
                (None, Some(node)) if load[node.index()] < cap => {
                    place(&mut placement, &mut load, i, node.index());
                }
                _ => {}
            }
        }
        // Leftovers (uncorrelated or capacity-blocked) go to the lightest nodes.
        // `cap = ⌈N/K⌉` guarantees total capacity ≥ N, but fall back to the overall
        // lightest node rather than panicking if that invariant ever breaks.
        for t in 0..n {
            if placement[t].is_none() {
                let node = least_loaded(&load, 1)
                    .or_else(|| (0..load.len()).min_by_key(|&k| (load[k], k)))
                    .unwrap_or(0);
                place(&mut placement, &mut load, t, node);
            }
        }

        let placement: Vec<NodeId> = placement
            .into_iter()
            .map(|p| p.unwrap_or(NodeId(0)))
            .collect();
        let intra_fraction = self.intra_fraction(view, &placement);
        PlacementPlan {
            placement,
            intra_fraction,
        }
    }

    /// Stage 2: deterministic Kernighan–Lin-style boundary refinement from `current`.
    ///
    /// Repeatedly picks the best positive-gain candidate — a capacity-respecting
    /// single-thread move or a pairwise exchange between two nodes (load-neutral, so
    /// always capacity-legal; essential when every node is exactly full and no single
    /// move is admissible) — prices it through the [`MoveFilter`], applies it, and
    /// locks the threads involved. Ties break on lowest thread then destination.
    /// Locking bounds the pass at ≤ N steps and — because only positive-gain steps
    /// apply — intra-node mass is monotonically non-decreasing, so a refined plan
    /// never scores below its seed.
    pub fn refine(
        &self,
        view: &dyn CorrelationView,
        n_nodes: usize,
        current: &[NodeId],
        filter: &MoveFilter<'_>,
    ) -> RefineOutcome {
        let n = view.n();
        assert_eq!(current.len(), n, "placement must cover every thread");
        let mut out = RefineOutcome {
            placement: current.to_vec(),
            ..RefineOutcome::default()
        };
        if n_nodes == 0 || n == 0 {
            return out;
        }
        let cap = n.div_ceil(n_nodes);
        let mut load = vec![0usize; n_nodes];
        for p in &out.placement {
            load[p.index()] += 1;
        }

        // Adjacency plus conn[t][k] = correlation mass between t and node k's threads:
        // O(E) to build, O(deg t) to update per move, O(N·K) per best-move scan.
        let adj = adjacency(view);
        let mut conn = vec![0.0f64; n * n_nodes];
        for (t, row) in adj.iter().enumerate() {
            for &(v, w) in row {
                conn[t * n_nodes + out.placement[v as usize].index()] += w;
            }
        }

        // Exact move delta re-derived from the adjacency before applying: the conn
        // rows accumulate float error across moves, and the monotonicity guarantee
        // (refined ≥ seed) rides on applied gains being truly positive.
        let exact_gain = |placement: &[NodeId], t: usize, d: usize| leg_gain(&adj, placement, t, d);
        let apply = |out: &mut RefineOutcome, conn: &mut [f64], t: usize, d: usize, gain: f64, cost: f64| {
            let from = out.placement[t];
            out.placement[t] = NodeId(d as u16);
            for &(v, w) in &adj[t] {
                conn[v as usize * n_nodes + from.index()] -= w;
                conn[v as usize * n_nodes + d] += w;
            }
            out.moves.push(PlannedMigration {
                thread: ThreadId(t as u32),
                from,
                to: NodeId(d as u16),
                gain_bytes: gain,
                sticky_cost_bytes: cost,
            });
        };

        enum Step {
            Move(usize, usize),
            Swap(usize, usize),
        }
        let mut locked = vec![false; n];
        loop {
            // Candidate 1: the best capacity-respecting single move. Alongside,
            // record the top-2 per-(source, dest) champion threads by conn delta,
            // capacity-blind — the building blocks for swap candidates. Two per slot,
            // not one: when both sides' champions are partners of the same clique
            // their swap gain cancels, and the runner-up pairing escapes that trap.
            let mut best_move: Option<(f64, usize, usize)> = None;
            let mut champ: Vec<[Option<(f64, usize)>; 2]> = vec![[None; 2]; n_nodes * n_nodes];
            for t in 0..n {
                if locked[t] {
                    continue;
                }
                let cur = out.placement[t].index();
                let row = &conn[t * n_nodes..(t + 1) * n_nodes];
                for d in 0..n_nodes {
                    if d == cur {
                        continue;
                    }
                    let gain = row[d] - row[cur];
                    let slot = &mut champ[cur * n_nodes + d];
                    let beats = |prev: Option<(f64, usize)>| {
                        prev.is_none_or(|(bg, bt)| gain > bg || (gain == bg && t < bt))
                    };
                    if beats(slot[0]) {
                        slot[1] = slot[0];
                        slot[0] = Some((gain, t));
                    } else if beats(slot[1]) {
                        slot[1] = Some((gain, t));
                    }
                    if gain <= 0.0 || load[d] >= cap {
                        continue;
                    }
                    let better = match best_move {
                        None => true,
                        Some((bg, bt, bd)) => {
                            gain > bg || (gain == bg && (t, d) < (bt, bd))
                        }
                    };
                    if better {
                        best_move = Some((gain, t, d));
                    }
                }
            }
            // Candidate 2: the best pairwise exchange — the KL move that still makes
            // progress when every node sits exactly at capacity and no single move is
            // admissible. Gain = both one-way deltas minus twice the pair's own edge
            // (it is cut before and after the swap).
            let mut best_swap: Option<(f64, usize, usize)> = None;
            for a in 0..n_nodes {
                for b in (a + 1)..n_nodes {
                    for ca in champ[a * n_nodes + b] {
                        let Some((ga, x)) = ca else { continue };
                        for cb in champ[b * n_nodes + a] {
                            let Some((gb, y)) = cb else { continue };
                            let (t, u) = if x < y { (x, y) } else { (y, x) };
                            let gain = ga + gb
                                - 2.0
                                    * view.pair_weight(ThreadId(t as u32), ThreadId(u as u32));
                            if gain <= 0.0 {
                                continue;
                            }
                            let better = match best_swap {
                                None => true,
                                Some((bg, bt, bu)) => {
                                    gain > bg || (gain == bg && (t, u) < (bt, bu))
                                }
                            };
                            if better {
                                best_swap = Some((gain, t, u));
                            }
                        }
                    }
                }
            }

            // Pick the stronger candidate; a tie prefers the cheaper single move.
            let (gain, step) = match (best_move, best_swap) {
                (Some((gm, _, _)), Some((gs, t, u))) if gs > gm => (gs, Step::Swap(t, u)),
                (Some((gm, t, d)), _) => (gm, Step::Move(t, d)),
                (None, Some((gs, t, u))) => (gs, Step::Swap(t, u)),
                (None, None) => break,
            };
            let (movers_buf, movers_len) = match &step {
                Step::Move(t, _) => ([*t, 0], 1),
                Step::Swap(t, u) => ([*t, *u], 2),
            };
            let movers = &movers_buf[..movers_len];
            if gain < filter.min_gain {
                out.vetoed_gain += 1;
                break;
            }
            if filter.in_cooldown.is_some_and(|c| movers.iter().any(|&t| c[t])) {
                out.vetoed_cooldown += 1;
                for &t in movers {
                    locked[t] = true;
                }
                continue;
            }
            let cost: f64 = filter.costs.map_or(0.0, |c| movers.iter().map(|&t| c[t]).sum());
            if filter.costs.is_some() && gain * filter.gain_horizon < cost {
                out.vetoed_cost += 1;
                for &t in movers {
                    locked[t] = true;
                }
                continue;
            }
            if let Some(budget) = filter.budget_bytes {
                if out.spent_bytes + cost > budget {
                    out.vetoed_budget += 1;
                    for &t in movers {
                        locked[t] = true;
                    }
                    continue;
                }
            }
            for &t in movers {
                locked[t] = true;
            }
            match step {
                Step::Move(t, d) => {
                    let exact = exact_gain(&out.placement, t, d);
                    if exact <= 0.0 {
                        continue;
                    }
                    let from = out.placement[t].index();
                    load[from] -= 1;
                    load[d] += 1;
                    apply(&mut out, &mut conn, t, d, exact, cost);
                    out.spent_bytes += cost;
                }
                Step::Swap(t, u) => {
                    let a = out.placement[t].index();
                    let b = out.placement[u].index();
                    // Exact combined delta as two sequential moves; the second leg's
                    // delta accounts for the first already being in place.
                    let exact_t = exact_gain(&out.placement, t, b);
                    let exact_u = exact_gain(&out.placement, u, a)
                        - 2.0 * view.pair_weight(ThreadId(t as u32), ThreadId(u as u32));
                    if exact_t + exact_u <= 0.0 {
                        continue;
                    }
                    let (cost_t, cost_u) = filter.costs.map_or((0.0, 0.0), |c| (c[t], c[u]));
                    apply(&mut out, &mut conn, t, b, exact_t, cost_t);
                    apply(&mut out, &mut conn, u, a, exact_u, cost_u);
                    out.spent_bytes += cost_t + cost_u;
                }
            }
        }
        out
    }

    /// Land `refined`'s groups on the nodes that already home their data.
    ///
    /// Relabeling permutes node ids: every group of threads `refine` put on one node
    /// stays together, so node loads and the intra-node correlation mass are exactly
    /// `refine`'s. Only which node each group lands on changes. `affinity[t][k]` is
    /// the bytes thread `t` logged that are homed on node `k`
    /// (`HomeAwareAnalyzer::affinity`).
    ///
    /// Labels are assigned greedily: repeatedly the free (group, node) pair with the
    /// most home-local bytes, ties broken by how many of the group's threads already
    /// sit on the node, then lower group, then lower node. A group holding a thread
    /// in cooldown keeps that thread's node.
    ///
    /// The labeling is priced in `refine`'s unit, the movers' sticky-set footprints
    /// (`filter.costs`), and accepted only if home-local bytes strictly rise and the
    /// movers' summed footprint neither exceeds what `refine`'s own movers cost nor
    /// `filter.budget_bytes`. `refine` paid every step out of its gain × horizon,
    /// and relabeling keeps the total gain, so the plan stays affordable as a whole
    /// and no thread whose footprint alone exceeds `refine`'s spend ever moves.
    /// Otherwise `refined` comes back as is.
    ///
    /// An accepted plan's moves are rebuilt in thread order, each leg carrying its
    /// exact sequential gain and its footprint. A leg may gain nothing by itself (a
    /// thread that only follows its group's new label); the legs still sum to
    /// `refine`'s gain. The veto counters stay those of `refine`'s search, which
    /// chose the groups the relabeled plan keeps.
    pub fn home_affine_labels(
        &self,
        view: &dyn CorrelationView,
        n_nodes: usize,
        current: &[NodeId],
        refined: RefineOutcome,
        affinity: &[Vec<f64>],
        filter: &MoveFilter<'_>,
    ) -> RefineOutcome {
        // local[g][k]: home-local bytes of refine's node-g group if labelled k;
        // stay[g][k]: how many of its threads already sit on k.
        let mut local = vec![vec![0.0f64; n_nodes]; n_nodes];
        let mut stay = vec![vec![0usize; n_nodes]; n_nodes];
        let mut label: Vec<Option<usize>> = vec![None; n_nodes];
        let mut taken = vec![false; n_nodes];
        for (t, g) in refined.placement.iter().enumerate() {
            let g = g.index();
            for (k, bytes) in affinity[t].iter().enumerate() {
                local[g][k] += bytes;
            }
            stay[g][current[t].index()] += 1;
            if filter.in_cooldown.is_some_and(|c| c[t]) {
                label[g] = Some(current[t].index());
                taken[current[t].index()] = true;
            }
        }
        loop {
            // Scanned in (group, node) order, so only a strictly better pair
            // displaces the incumbent: ties go to the lower group, then node.
            let mut best: Option<(usize, usize)> = None;
            for g in (0..n_nodes).filter(|&g| label[g].is_none()) {
                for k in (0..n_nodes).filter(|&k| !taken[k]) {
                    if best.is_none_or(|(bg, bk)| {
                        (local[g][k], stay[g][k]) > (local[bg][bk], stay[bg][bk])
                    }) {
                        best = Some((g, k));
                    }
                }
            }
            let Some((g, k)) = best else { break };
            label[g] = Some(k);
            taken[k] = true;
        }
        let relabeled: Vec<NodeId> = refined
            .placement
            .iter()
            .map(|g| NodeId(label[g.index()].unwrap_or(g.index()) as u16))
            .collect();

        let home_local = |p: &[NodeId]| -> f64 {
            p.iter().enumerate().map(|(t, k)| affinity[t][k.index()]).sum()
        };
        let leg_cost = |t: usize| filter.costs.map_or(0.0, |c| c[t]);
        let cost = |p: &[NodeId]| -> f64 {
            (0..p.len()).filter(|&t| p[t] != current[t]).map(leg_cost).sum()
        };
        let new_cost = cost(&relabeled);
        let accept = home_local(&relabeled) > home_local(&refined.placement)
            && new_cost <= cost(&refined.placement)
            && filter.budget_bytes.is_none_or(|b| new_cost <= b);
        if !accept {
            return refined;
        }

        let adj = adjacency(view);
        let mut placement = current.to_vec();
        let mut moves = Vec::new();
        for (t, &to) in relabeled.iter().enumerate() {
            if to == current[t] {
                continue;
            }
            let gain_bytes = leg_gain(&adj, &placement, t, to.index());
            placement[t] = to;
            moves.push(PlannedMigration {
                thread: ThreadId(t as u32),
                from: current[t],
                to,
                gain_bytes,
                sticky_cost_bytes: leg_cost(t),
            });
        }
        RefineOutcome {
            placement,
            moves,
            spent_bytes: new_cost,
            ..refined
        }
    }

    /// Fraction of total correlation mass between threads on the same node.
    pub fn intra_fraction(&self, view: &dyn CorrelationView, placement: &[NodeId]) -> f64 {
        assert_eq!(placement.len(), view.n());
        let mut intra = 0.0;
        let mut total = 0.0;
        view.for_each_pair(&mut |i, j, w| {
            total += w;
            if placement[i.index()] == placement[j.index()] {
                intra += w;
            }
        });
        if total == 0.0 {
            0.0
        } else {
            intra / total
        }
    }
}

/// Each thread's correlated neighbours and pair weights, in the view's pair order.
/// Non-finite weights are dropped.
fn adjacency(view: &dyn CorrelationView) -> Vec<Vec<(u32, f64)>> {
    let mut adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); view.n()];
    view.for_each_pair(&mut |i, j, w| {
        if w.is_finite() {
            adj[i.index()].push((j.0, w));
            adj[j.index()].push((i.0, w));
        }
    });
    adj
}

/// The exact change in intra-node mass if thread `t` moves to node `d` from
/// `placement`.
fn leg_gain(adj: &[Vec<(u32, f64)>], placement: &[NodeId], t: usize, d: usize) -> f64 {
    let from = placement[t];
    adj[t]
        .iter()
        .map(|&(v, w)| {
            let node = placement[v as usize];
            if node.index() == d {
                w
            } else if node == from {
                -w
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_core::Tcm;

    /// Two cliques of two threads each: {0,1} and {2,3} heavily correlated.
    fn clique_tcm() -> Tcm {
        let mut t = Tcm::new(4);
        t.add_pair(ThreadId(0), ThreadId(1), 100.0);
        t.add_pair(ThreadId(2), ThreadId(3), 100.0);
        t.add_pair(ThreadId(0), ThreadId(2), 1.0);
        t
    }

    #[test]
    fn plan_collocates_cliques() {
        let plan = LoadBalancer::new().plan(&clique_tcm(), 2);
        assert_eq!(plan.placement[0], plan.placement[1], "clique A together");
        assert_eq!(plan.placement[2], plan.placement[3], "clique B together");
        assert_ne!(plan.placement[0], plan.placement[2], "capacity splits them");
        assert!(plan.intra_fraction > 0.99, "{}", plan.intra_fraction);
    }

    #[test]
    fn plan_respects_capacity() {
        // Everything correlated with everything: capacity must still split 4 over 2.
        let mut t = Tcm::new(4);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                t.add_pair(ThreadId(i), ThreadId(j), 10.0);
            }
        }
        let plan = LoadBalancer::new().plan(&t, 2);
        let on0 = plan.placement.iter().filter(|n| n.0 == 0).count();
        assert_eq!(on0, 2);
    }

    #[test]
    fn zero_nodes_yields_an_empty_plan() {
        let plan = LoadBalancer::new().plan(&clique_tcm(), 0);
        assert!(plan.placement.is_empty());
        assert_eq!(plan.intra_fraction, 0.0);
    }

    #[test]
    fn nan_correlations_do_not_poison_the_sort() {
        let mut t = Tcm::new(3);
        t.add_pair(ThreadId(0), ThreadId(1), f64::NAN);
        t.add_pair(ThreadId(1), ThreadId(2), 5.0);
        // NaN never satisfies `w > 0`, so the view drops it: the plan completes
        // deterministically.
        let plan = LoadBalancer::new().plan(&t, 3);
        assert_eq!(plan.placement.len(), 3);
    }

    #[test]
    fn leftover_fill_respects_capacity_with_blocked_pairs() {
        // Regression for the leftover fill pass: 6 threads on 2 nodes (cap = 3).
        // A heavy 4-clique {0,1,2,3} wants one node; its third and fourth members
        // get capacity-blocked once a node holds 3, and threads 4, 5 are entirely
        // uncorrelated. The fill pass must land every thread without ever pushing
        // a node past ⌈N/K⌉.
        let mut t = Tcm::new(6);
        for i in 0..4u32 {
            for j in (i + 1)..4 {
                t.add_pair(ThreadId(i), ThreadId(j), 50.0);
            }
        }
        let plan = LoadBalancer::new().plan(&t, 2);
        assert_eq!(plan.placement.len(), 6);
        for node in 0..2u16 {
            let load = plan.placement.iter().filter(|n| n.0 == node).count();
            assert_eq!(load, 3, "cap = ceil(6/2) must hold on node {node}");
        }
    }

    #[test]
    fn plan_is_invariant_to_pair_insertion_order() {
        // All-equal correlations maximize sort ties: the plan must come out of the
        // (value, indices) tie-break identically however the pairs were added.
        let pairs: Vec<(u32, u32)> =
            (0..5u32).flat_map(|i| ((i + 1)..5).map(move |j| (i, j))).collect();
        let orders: Vec<Vec<(u32, u32)>> = vec![
            pairs.clone(),
            pairs.iter().rev().copied().collect(),
            {
                // Deterministic interleave: evens then odds.
                let mut v: Vec<(u32, u32)> = pairs.iter().step_by(2).copied().collect();
                v.extend(pairs.iter().skip(1).step_by(2));
                v
            },
        ];
        let plans: Vec<PlacementPlan> = orders
            .into_iter()
            .map(|order| {
                let mut t = Tcm::new(5);
                for (i, j) in order {
                    t.add_pair(ThreadId(i), ThreadId(j), 7.0);
                }
                LoadBalancer::new().plan(&t, 2)
            })
            .collect();
        assert_eq!(plans[0], plans[1], "reversed insertion changed the plan");
        assert_eq!(plans[0], plans[2], "interleaved insertion changed the plan");
        let cap = 5usize.div_ceil(2);
        for node in 0..2u16 {
            assert!(
                plans[0].placement.iter().filter(|n| n.0 == node).count() <= cap,
                "capacity exceeded"
            );
        }
    }

    #[test]
    fn empty_tcm_plans_anything_balanced() {
        let plan = LoadBalancer::new().plan(&Tcm::new(6), 3);
        for node in 0..3u16 {
            assert_eq!(
                plan.placement.iter().filter(|n| n.0 == node).count(),
                2,
                "balanced"
            );
        }
        assert_eq!(plan.intra_fraction, 0.0);
    }

    #[test]
    fn refine_repairs_a_bad_seed_monotonically() {
        // Split both cliques across nodes; refinement must reunite them.
        let tcm = clique_tcm();
        let lb = LoadBalancer::new();
        let bad = vec![NodeId(0), NodeId(1), NodeId(1), NodeId(0)];
        let before = lb.intra_fraction(&tcm, &bad);
        let out = lb.refine(&tcm, 2, &bad, &MoveFilter::default());
        let after = lb.intra_fraction(&tcm, &out.placement);
        assert!(after >= before, "refine never loses mass: {before} -> {after}");
        assert!(after > 0.99, "{after}");
        assert_eq!(out.placement[0], out.placement[1]);
        assert_eq!(out.placement[2], out.placement[3]);
        assert!(!out.moves.is_empty());
        // Applied gains are the exact intra-mass deltas, so they sum to the total.
        let gain_sum: f64 = out.moves.iter().map(|m| m.gain_bytes).sum();
        let total = 201.0;
        assert!(((after - before) * total - gain_sum).abs() < 1e-6);
    }

    #[test]
    fn refine_honours_cooldown_and_budget_vetoes() {
        let tcm = clique_tcm();
        let lb = LoadBalancer::new();
        let bad = vec![NodeId(0), NodeId(1), NodeId(1), NodeId(0)];

        // Every thread cooling down: nothing moves, every candidate is attributed.
        let cooldown = vec![true; 4];
        let out = lb.refine(
            &tcm,
            2,
            &bad,
            &MoveFilter {
                in_cooldown: Some(&cooldown),
                ..MoveFilter::default()
            },
        );
        assert!(out.moves.is_empty());
        assert!(out.vetoed_cooldown > 0);
        assert_eq!(out.placement, bad);

        // A zero budget with non-zero costs blocks every priced move.
        let costs = vec![10.0; 4];
        let out = lb.refine(
            &tcm,
            2,
            &bad,
            &MoveFilter {
                costs: Some(&costs),
                gain_horizon: 1e9,
                budget_bytes: Some(0.0),
                ..MoveFilter::default()
            },
        );
        assert!(out.moves.is_empty());
        assert!(out.vetoed_budget > 0);
        assert_eq!(out.spent_bytes, 0.0);

        // An unpayable cost trips the profitability veto instead.
        let heavy = vec![1e12; 4];
        let out = lb.refine(
            &tcm,
            2,
            &bad,
            &MoveFilter {
                costs: Some(&heavy),
                gain_horizon: 1.0,
                ..MoveFilter::default()
            },
        );
        assert!(out.moves.is_empty());
        assert!(out.vetoed_cost > 0);
    }

    #[test]
    fn refine_min_gain_stops_the_pass() {
        let tcm = clique_tcm();
        let lb = LoadBalancer::new();
        let bad = vec![NodeId(0), NodeId(1), NodeId(1), NodeId(0)];
        let out = lb.refine(
            &tcm,
            2,
            &bad,
            &MoveFilter {
                min_gain: 1e9,
                ..MoveFilter::default()
            },
        );
        assert!(out.moves.is_empty());
        assert_eq!(out.vetoed_gain, 1, "the stop is recorded once");
        assert_eq!(out.placement, bad);
    }
}
