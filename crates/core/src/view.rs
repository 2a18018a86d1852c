//! View-agnostic access to the thread correlation structure.
//!
//! The placement engine wants one question answered — *which thread pairs share how
//! much?* — and [`CorrelationView`] answers it over the dense packed-triangle [`Tcm`]
//! the coordinator keeps or a [`SparseTcm`] of the same pairs, so `LoadBalancer`
//! never touches the packed-triangle layout directly.
//!
//! Contract: [`CorrelationView::for_each_pair`] yields each unordered pair at most
//! once as `(i, j, w)` with `i < j` and `w > 0`, in ascending `(i, j)` order. The
//! deterministic order is load-bearing — the partitioner's tie-breaks depend on it,
//! and plan equality across the two views is property-tested.

use jessy_net::ThreadId;

use crate::tcm::{tri_decode, SparseTcm, Tcm};

/// A read-only view of pairwise thread correlation mass.
pub trait CorrelationView {
    /// Number of threads the view covers.
    fn n(&self) -> usize;

    /// Visit every tracked pair as `(i, j, weight)` with `i < j` and `weight > 0`,
    /// in ascending `(i, j)` order.
    fn for_each_pair(&self, f: &mut dyn FnMut(ThreadId, ThreadId, f64));

    /// Correlation mass between two threads (0.0 when untracked). Symmetric.
    fn pair_weight(&self, i: ThreadId, j: ThreadId) -> f64;
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
}
