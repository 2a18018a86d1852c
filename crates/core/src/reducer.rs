//! The coordinator's one reduce step.
//!
//! The master does one thing per round — fold the round's OALs into the
//! cumulative correlation state and hand the per-class round maps to the rate
//! controller — and [`Reducer`] is the one type that knows which machinery a
//! [`ProfilerConfig`] selects for it:
//!
//! * **flat** (`tcm_tree_fanout = 0`): a `RoundAccrual`, dense round close;
//! * **tree** (`tcm_tree_fanout ≥ 2`): a [`TreeTcmReducer`] round pipeline;
//! * both arms are round scratch that fold into one [`ReducerState`], all a
//!   checkpoint holds: a dense [`Tcm`] or, under [`TcmBackend::Sketch`], a
//!   [`SketchTcm`], plus an optional [`TopKPairs`] head (`tcm_top_k > 0`).
//!
//! Every dense configuration produces the same cumulative bits, the same
//! per-class round maps and the same top-k head for the same OAL stream (see
//! [`crate::distributed`] for why); no arm builds a dense round map it does not
//! already have in hand.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use jessy_gos::ClassId;
use jessy_net::ThreadId;

use crate::config::{ProfilerConfig, TcmBackend};
use crate::distributed::{TreeRoundStats, TreeTcmReducer};
use crate::oal::Oal;
use crate::tcm::{RoundAccrual, SketchTcm, SparseTcm, Tcm, TopKPairs};
use crate::view::SketchedTopKView;

/// What one [`Reducer::reduce`] produced.
#[derive(Debug, Clone)]
pub struct ReducedRound {
    /// Distinct objects organized this round (the `M` of the `O(M·N²)` cost).
    pub objects: usize,
    /// This round's per-class maps (input to the adaptive controller), sparse.
    pub per_class: HashMap<ClassId, SparseTcm>,
    /// The tree pipeline's fabric hops and work counters; `None` on the flat
    /// coordinator, where nothing but raw OALs crossed the fabric.
    pub tree: Option<TreeRoundStats>,
}

/// The reducer's one persistent value: the cumulative map and the optional
/// top-k head. A checkpoint clones it and a warm restore assigns it back; its
/// size is the backend's, never the dense triangle under the sketch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReducerState {
    cum: Cumulative,
    topk: Option<TopKPairs>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Cumulative {
    Dense(Tcm),
    Sketch(SketchTcm),
}

impl ReducerState {
    /// The empty cumulative state a [`ProfilerConfig`] asks for, over `n_threads`
    /// threads.
    pub fn new(config: &ProfilerConfig, n_threads: usize) -> Self {
        let cum = match config.tcm_backend {
            TcmBackend::Dense => Cumulative::Dense(Tcm::new(n_threads)),
            TcmBackend::Sketch { width, depth } => {
                Cumulative::Sketch(SketchTcm::new(n_threads, width as usize, depth as usize))
            }
        };
        ReducerState {
            cum,
            topk: (config.tcm_top_k > 0).then(|| TopKPairs::new(n_threads, config.tcm_top_k)),
        }
    }

    /// Fold one round's exact sparse map, admitting its pairs to the head at
    /// their pre-round cumulative weight.
    fn fold(&mut self, round: &SparseTcm) {
        match &mut self.cum {
            Cumulative::Dense(tcm) => {
                if let Some(tk) = &mut self.topk {
                    tk.observe_round(round, |idx| tcm.raw()[idx as usize]);
                }
                tcm.merge_sparse(round);
            }
            Cumulative::Sketch(sketch) => {
                if let Some(tk) = &mut self.topk {
                    tk.observe_round(round, |idx| sketch.estimate(idx));
                }
                sketch.fold_round(round);
            }
        }
    }

    /// The cumulative map. Exact — and the same bits on the flat and tree paths
    /// — under the dense backend; under the sketch backend no dense map exists,
    /// so this expands the sketch's point estimates, an overestimate-only
    /// approximation paid once per call, never per round.
    pub fn cumulative(&self) -> Tcm {
        match &self.cum {
            Cumulative::Dense(tcm) => tcm.clone(),
            Cumulative::Sketch(sketch) => {
                let mut tcm = Tcm::new(sketch.n());
                for (idx, cell) in tcm.data_mut().iter_mut().enumerate() {
                    *cell = sketch.estimate(idx as u32);
                }
                tcm
            }
        }
    }

    /// The `O(k + sketch)` planning view — the top-k head names the pairs, the
    /// sketch prices them — when that is all the backend keeps. `None` means
    /// plan from [`ReducerState::cumulative`].
    pub fn planning_view(&self) -> Option<SketchedTopKView<'_>> {
        match self {
            ReducerState { cum: Cumulative::Sketch(sketch), topk: Some(tk) } => {
                Some(SketchedTopKView::new(sketch, tk))
            }
            _ => None,
        }
    }

    /// The `tcm_top_k` hottest correlated pairs, hottest first (empty when the
    /// head is off).
    pub fn top_pairs(&self) -> Vec<(ThreadId, ThreadId, f64)> {
        self.topk.as_ref().map(TopKPairs::top).unwrap_or_default()
    }
}

/// Where round maps come from: round scratch only.
#[derive(Debug)]
enum Rounds {
    Flat(RoundAccrual),
    Tree(TreeTcmReducer),
}

/// The round scratch a [`ProfilerConfig`] asks for (see the module docs). It is
/// empty between rounds, so a [`ReducerState`] is all a checkpoint needs.
#[derive(Debug)]
pub struct Reducer(Rounds);

impl Reducer {
    /// Round scratch for `n_threads` threads placed on `n_nodes` nodes.
    pub fn new(config: &ProfilerConfig, n_threads: usize, n_nodes: usize) -> Self {
        Reducer(if config.tcm_tree_fanout >= 2 {
            Rounds::Tree(TreeTcmReducer::new(n_threads, n_nodes.max(1), config.tcm_tree_fanout))
        } else {
            Rounds::Flat(RoundAccrual::new(n_threads))
        })
    }

    /// Reduce one round's OALs into `state` (`node_of` places each logging
    /// thread, for the tree's leaves): admit the round's pairs to the top-k head
    /// at their pre-round cumulative weight, fold.
    pub fn reduce(
        &mut self,
        state: &mut ReducerState,
        oals: &[Oal],
        node_of: impl Fn(ThreadId) -> usize,
    ) -> ReducedRound {
        match &mut self.0 {
            Rounds::Flat(accrual) => {
                for oal in oals {
                    accrual.ingest(oal);
                }
                let round = accrual.close();
                // Without a head the dense round folds as it is; the head needs
                // the round's cells.
                match (&mut state.cum, &state.topk) {
                    (Cumulative::Dense(tcm), None) => tcm.merge(&round.tcm),
                    _ => state.fold(&round.tcm.to_sparse()),
                }
                ReducedRound {
                    objects: round.objects,
                    per_class: round.per_class,
                    tree: None,
                }
            }
            Rounds::Tree(tree) => {
                for oal in oals {
                    tree.ingest(node_of(oal.thread), oal);
                }
                let (stats, subtrees) = tree.close_round_subtrees();
                let root = tree.merge_subtrees(subtrees);
                state.fold(&root.pairs);
                ReducedRound {
                    objects: root.objects,
                    per_class: root.per_class,
                    tree: Some(stats),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oal::OalEntry;
    use jessy_gos::ObjectId;

    /// A deterministic round: every thread logs a few objects out of a shared
    /// universe; class is a function of the object, as in the runtime.
    fn round(seed: u64, n_threads: u32) -> Vec<Oal> {
        let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut mix = move || {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            h
        };
        (0..n_threads)
            .map(|t| Oal {
                thread: ThreadId(t),
                interval: seed,
                entries: (0..1 + mix() % 9)
                    .map(|_| {
                        let o = (mix() % 30) as u32;
                        OalEntry {
                            obj: ObjectId(o),
                            class: ClassId((o % 3) as u16),
                            bytes: 8 + mix() % 2048,
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn dense_configurations_agree_bit_for_bit() {
        let (n_threads, n_nodes) = (70u32, 3usize); // two bitset words
        let configs: Vec<ProfilerConfig> = [(0, 0), (0, 5), (2, 0), (3, 5)]
            .into_iter()
            .map(|(fanout, k)| ProfilerConfig {
                tcm_tree_fanout: fanout,
                tcm_top_k: k,
                ..ProfilerConfig::default()
            })
            .collect();
        let mut reducers: Vec<(Reducer, ReducerState)> = configs
            .iter()
            .map(|c| (Reducer::new(c, n_threads as usize, n_nodes), ReducerState::new(c, n_threads as usize)))
            .collect();
        for r in 0..5u64 {
            let oals = round(r + 1, n_threads);
            let rounds: Vec<ReducedRound> = reducers
                .iter_mut()
                .map(|(red, state)| red.reduce(state, &oals, |t| t.index() % n_nodes))
                .collect();
            for (cfg, got) in configs.iter().zip(&rounds).skip(1) {
                let label = format!("round {r} {cfg:?}");
                assert_eq!(got.objects, rounds[0].objects, "{label}");
                assert_eq!(got.per_class, rounds[0].per_class, "{label}");
                assert_eq!(got.tree.is_some(), cfg.tcm_tree_fanout >= 2, "{label}");
            }
            let flat = reducers[0].1.cumulative();
            for (_, state) in &reducers[1..] {
                let cum = state.cumulative();
                assert!(
                    cum.raw().iter().zip(flat.raw()).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "cumulative bits differ, round {r}"
                );
            }
            // The head is fed on both arms, from the same pre-round weights.
            assert!(reducers[0].1.top_pairs().is_empty() && reducers[2].1.top_pairs().is_empty());
            assert_eq!(reducers[1].1.top_pairs().len(), 5);
            assert_eq!(reducers[1].1.top_pairs(), reducers[3].1.top_pairs());
        }
        assert!(reducers.iter().all(|(_, state)| state.planning_view().is_none()));
    }

    #[test]
    fn sketch_backend_plans_from_the_head_and_expands_on_demand() {
        let config = ProfilerConfig {
            tcm_tree_fanout: 2,
            tcm_top_k: 4,
            tcm_backend: TcmBackend::Sketch { width: 4096, depth: 4 },
            ..ProfilerConfig::default()
        };
        let mut sketched = (Reducer::new(&config, 16, 2), ReducerState::new(&config, 16));
        let exact_config = ProfilerConfig::default();
        let mut exact = (Reducer::new(&exact_config, 16, 2), ReducerState::new(&exact_config, 16));
        for r in 0..3u64 {
            let oals = round(r + 1, 16);
            sketched.0.reduce(&mut sketched.1, &oals, |t| t.index() % 2);
            exact.0.reduce(&mut exact.1, &oals, |_| 0);
        }
        assert!(sketched.1.planning_view().is_some());
        // Count-min never underestimates; at this width it is exact.
        assert_eq!(sketched.1.cumulative(), exact.1.cumulative());
    }
}
