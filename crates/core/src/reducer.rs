//! The coordinator's one reduce step.
//!
//! The master does one thing per round — fold the round's OALs into the
//! cumulative [`Tcm`] and hand the per-class round maps to the rate
//! controller — and [`Reducer`] is the one type that knows which machinery a
//! [`ProfilerConfig`] selects for it:
//!
//! * **flat** (`tcm_tree_fanout = 0`): a `RoundAccrual`, dense round close;
//! * **tree** (`tcm_tree_fanout ≥ 2`): a [`TreeTcmReducer`] round pipeline.
//!
//! Both arms are round scratch that fold into one dense [`Tcm`], all a
//! checkpoint holds. They produce the same cumulative bits and the same
//! per-class round maps for the same OAL stream (see [`crate::distributed`] for
//! why); no arm builds a dense round map it does not already have in hand.

use std::collections::HashMap;

use jessy_gos::ClassId;
use jessy_net::ThreadId;

use crate::config::ProfilerConfig;
use crate::distributed::{TreeRoundStats, TreeTcmReducer};
use crate::oal::Oal;
use crate::tcm::{RoundAccrual, SparseTcm, Tcm};

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

/// Where round maps come from: round scratch only.
#[derive(Debug)]
enum Rounds {
    Flat(RoundAccrual),
    Tree(TreeTcmReducer),
}

/// The round scratch a [`ProfilerConfig`] asks for (see the module docs). It is
/// empty between rounds, so the cumulative [`Tcm`] is all a checkpoint needs.
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

    /// Reduce one round's OALs into `tcm` (`node_of` places each logging
    /// thread, for the tree's leaves).
    pub fn reduce(
        &mut self,
        tcm: &mut Tcm,
        oals: &[Oal],
        node_of: impl Fn(ThreadId) -> usize,
    ) -> ReducedRound {
        match &mut self.0 {
            Rounds::Flat(accrual) => {
                for oal in oals {
                    accrual.ingest(oal);
                }
                let round = accrual.close();
                tcm.merge(&round.tcm);
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
                tcm.merge_sparse(&root.pairs);
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
    fn flat_and_tree_agree_bit_for_bit() {
        let (n_threads, n_nodes) = (70u32, 3usize); // two bitset words
        let configs: Vec<ProfilerConfig> = [0, 2, 3]
            .into_iter()
            .map(|fanout| ProfilerConfig {
                tcm_tree_fanout: fanout,
                ..ProfilerConfig::default()
            })
            .collect();
        let mut reducers: Vec<(Reducer, Tcm)> = configs
            .iter()
            .map(|c| (Reducer::new(c, n_threads as usize, n_nodes), Tcm::new(n_threads as usize)))
            .collect();
        for r in 0..5u64 {
            let oals = round(r + 1, n_threads);
            let rounds: Vec<ReducedRound> = reducers
                .iter_mut()
                .map(|(red, tcm)| red.reduce(tcm, &oals, |t| t.index() % n_nodes))
                .collect();
            for (cfg, got) in configs.iter().zip(&rounds).skip(1) {
                let label = format!("round {r} {cfg:?}");
                assert_eq!(got.objects, rounds[0].objects, "{label}");
                assert_eq!(got.per_class, rounds[0].per_class, "{label}");
                assert_eq!(got.tree.is_some(), cfg.tcm_tree_fanout >= 2, "{label}");
            }
            let flat = &reducers[0].1;
            for (_, cum) in &reducers[1..] {
                assert!(
                    cum.raw().iter().zip(flat.raw()).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "cumulative bits differ, round {r}"
                );
            }
        }
    }
}
