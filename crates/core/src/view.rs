//! View-agnostic access to the thread correlation structure.
//!
//! The placement engine wants one question answered — *which thread pairs share how
//! much?* — but the reducer may be holding the answer in any of three shapes: the
//! dense packed-triangle [`Tcm`], the streaming [`TopKPairs`] head, or the
//! [`SketchTcm`] count-min tail. [`CorrelationView`] abstracts over all of them so
//! `LoadBalancer` never touches the packed-triangle layout directly, and so the
//! N=1024 scale path can plan placements without ever materializing an O(N²) map.
//!
//! Contract: [`CorrelationView::for_each_pair`] yields each unordered pair at most
//! once as `(i, j, w)` with `i < j` and `w > 0`, in ascending `(i, j)` order. The
//! deterministic order is load-bearing — the partitioner's tie-breaks depend on it,
//! and plan determinism across backends is property-tested.

use jessy_net::ThreadId;

use crate::tcm::{tri_decode, SketchTcm, SparseTcm, Tcm, TopKPairs};

/// A read-only view of pairwise thread correlation mass.
pub trait CorrelationView {
    /// Number of threads the view covers.
    fn n(&self) -> usize;

    /// Visit every tracked pair as `(i, j, weight)` with `i < j` and `weight > 0`,
    /// in ascending `(i, j)` order.
    fn for_each_pair(&self, f: &mut dyn FnMut(ThreadId, ThreadId, f64));

    /// Correlation mass between two threads (0.0 when untracked). Symmetric.
    fn pair_weight(&self, i: ThreadId, j: ThreadId) -> f64;

    /// Total correlation mass incident to one thread (its weighted degree).
    fn degree(&self, t: ThreadId) -> f64 {
        let mut d = 0.0;
        self.for_each_pair(&mut |i, j, w| {
            if i == t || j == t {
                d += w;
            }
        });
        d
    }

    /// Total correlation mass over all pairs, counted from both endpoints (matches
    /// [`Tcm::total`]'s convention of 2× the triangle sum).
    fn total_mass(&self) -> f64 {
        let mut s = 0.0;
        self.for_each_pair(&mut |_, _, w| s += w);
        2.0 * s
    }
}

impl CorrelationView for Tcm {
    fn n(&self) -> usize {
        Tcm::n(self)
    }

    fn for_each_pair(&self, f: &mut dyn FnMut(ThreadId, ThreadId, f64)) {
        // The packed triangle is already in ascending (i, j) order.
        let n = Tcm::n(self);
        for (idx, &w) in self.raw().iter().enumerate() {
            if w > 0.0 {
                let (i, j) = tri_decode(n, idx);
                f(ThreadId(i as u32), ThreadId(j as u32), w);
            }
        }
    }

    fn pair_weight(&self, i: ThreadId, j: ThreadId) -> f64 {
        let w = self.at(i, j);
        if w > 0.0 {
            w
        } else {
            0.0
        }
    }

    fn total_mass(&self) -> f64 {
        self.total()
    }
}

impl CorrelationView for SparseTcm {
    fn n(&self) -> usize {
        SparseTcm::n(self)
    }

    fn for_each_pair(&self, f: &mut dyn FnMut(ThreadId, ThreadId, f64)) {
        // Cells are kept sorted by packed index, which is ascending (i, j).
        for (i, j, w) in self.iter() {
            if w > 0.0 {
                f(i, j, w);
            }
        }
    }

    fn pair_weight(&self, i: ThreadId, j: ThreadId) -> f64 {
        let w = self.at(i, j);
        if w > 0.0 {
            w
        } else {
            0.0
        }
    }
}

impl CorrelationView for TopKPairs {
    fn n(&self) -> usize {
        TopKPairs::n(self)
    }

    fn for_each_pair(&self, f: &mut dyn FnMut(ThreadId, ThreadId, f64)) {
        // `top()` is hottest-first; re-sort into the ascending (i, j) order the
        // view contract demands so plans don't depend on heat ranking ties.
        let mut pairs = self.top();
        pairs.sort_by_key(|&(i, j, _)| (i.0, j.0));
        for (i, j, w) in pairs {
            if w > 0.0 {
                f(i, j, w);
            }
        }
    }

    fn pair_weight(&self, i: ThreadId, j: ThreadId) -> f64 {
        let (a, b) = if i.0 <= j.0 { (i, j) } else { (j, i) };
        for (x, y, w) in self.top() {
            if (x, y) == (a, b) {
                return if w > 0.0 { w } else { 0.0 };
            }
        }
        0.0
    }
}

/// The scale-path planning view: the [`TopKPairs`] head names *which* pairs matter,
/// the [`SketchTcm`] prices them. Memory stays O(k + sketch), never O(N²) — this is
/// what lets a 1024-thread cluster plan placements under the sketch backend without
/// the dense expansion [`ReducerState::cumulative`](crate::ReducerState::cumulative) would pay.
pub struct SketchedTopKView<'a> {
    sketch: &'a SketchTcm,
    topk: &'a TopKPairs,
}

impl<'a> SketchedTopKView<'a> {
    /// Combine a sketch and a top-k head over the same thread population.
    pub fn new(sketch: &'a SketchTcm, topk: &'a TopKPairs) -> Self {
        assert_eq!(
            sketch.n(),
            topk.n(),
            "sketch and top-k must cover the same thread population"
        );
        SketchedTopKView { sketch, topk }
    }
}

impl CorrelationView for SketchedTopKView<'_> {
    fn n(&self) -> usize {
        self.sketch.n()
    }

    fn for_each_pair(&self, f: &mut dyn FnMut(ThreadId, ThreadId, f64)) {
        let mut pairs = self.topk.top();
        pairs.sort_by_key(|&(i, j, _)| (i.0, j.0));
        for (i, j, _) in pairs {
            // Weights come from the sketch (the same estimator `pair_weight`
            // answers), not the top-k heat, so the two accessors agree.
            let w = self.sketch.at(i, j);
            if w > 0.0 {
                f(i, j, w);
            }
        }
    }

    fn pair_weight(&self, i: ThreadId, j: ThreadId) -> f64 {
        let w = self.sketch.at(i, j);
        if w > 0.0 {
            w
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tcm() -> Tcm {
        let mut t = Tcm::new(5);
        t.add_pair(ThreadId(0), ThreadId(1), 100.0);
        t.add_pair(ThreadId(2), ThreadId(3), 40.0);
        t.add_pair(ThreadId(1), ThreadId(4), 7.0);
        t
    }

    fn collect(view: &dyn CorrelationView) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::new();
        view.for_each_pair(&mut |i, j, w| out.push((i.0, j.0, w)));
        out
    }

    #[test]
    fn dense_and_sparse_views_agree() {
        let tcm = sample_tcm();
        let sparse = tcm.to_sparse();
        assert_eq!(collect(&tcm), collect(&sparse));
        assert_eq!(
            CorrelationView::total_mass(&tcm),
            CorrelationView::total_mass(&sparse)
        );
        for i in 0..5u32 {
            for j in 0..5u32 {
                if i == j {
                    continue;
                }
                assert_eq!(
                    tcm.pair_weight(ThreadId(i), ThreadId(j)),
                    sparse.pair_weight(ThreadId(i), ThreadId(j)),
                );
            }
        }
    }

    #[test]
    fn pairs_come_out_ascending_with_positive_weights() {
        let tcm = sample_tcm();
        let pairs = collect(&tcm);
        assert_eq!(pairs.len(), 3);
        for win in pairs.windows(2) {
            assert!((win[0].0, win[0].1) < (win[1].0, win[1].1), "ascending order");
        }
        for &(i, j, w) in &pairs {
            assert!(i < j);
            assert!(w > 0.0);
        }
    }

    #[test]
    fn degree_sums_incident_mass() {
        let tcm = sample_tcm();
        assert_eq!(CorrelationView::degree(&tcm, ThreadId(1)), 107.0);
        assert_eq!(CorrelationView::degree(&tcm, ThreadId(4)), 7.0);
        assert_eq!(CorrelationView::total_mass(&tcm), tcm.total());
    }

    #[test]
    fn topk_view_exposes_the_head_in_ascending_order() {
        let tcm = sample_tcm();
        let mut tk = TopKPairs::new(5, 2);
        tk.observe_round(&tcm.to_sparse(), |_| 0.0);
        let pairs = collect(&tk);
        // k=2 tracks up to 4k pairs, so all three survive; order must be (i, j).
        assert!(pairs.len() >= 2);
        for win in pairs.windows(2) {
            assert!((win[0].0, win[0].1) < (win[1].0, win[1].1));
        }
        assert_eq!(tk.pair_weight(ThreadId(1), ThreadId(0)), 100.0, "symmetric");
        assert_eq!(tk.pair_weight(ThreadId(0), ThreadId(4)), 0.0, "untracked");
    }

    #[test]
    fn sketched_topk_view_prices_pairs_from_the_sketch() {
        let tcm = sample_tcm();
        let sparse = tcm.to_sparse();
        let mut sketch = SketchTcm::new(5, 1024, 4);
        sketch.fold_round(&sparse);
        let mut tk = TopKPairs::new(5, 4);
        tk.observe_round(&sparse, |_| 0.0);
        let view = SketchedTopKView::new(&sketch, &tk);
        assert_eq!(CorrelationView::n(&view), 5);
        let pairs = collect(&view);
        assert_eq!(pairs.len(), 3);
        // A wide sketch with few cells is exact, so the view matches the dense TCM.
        assert_eq!(pairs, collect(&tcm));
        assert_eq!(view.pair_weight(ThreadId(0), ThreadId(1)), 100.0);
    }
}
