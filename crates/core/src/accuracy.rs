//! Sampling accuracy metrics (Section II.B.2).
//!
//! Given two correlation maps `A` (coarser sampling) and `B` (the reference), the
//! paper measures their distance by
//!
//! * Euclidean norm: `E_EUC = ‖A − B‖₂ / ‖B‖₂`   (formula 1)
//! * absolute value: `E_ABS = Σ|aᵢⱼ − bᵢⱼ| / Σ|bᵢⱼ|` (formula 2)
//!
//! and reports **accuracy** as `1 − E`. When `B` comes from full sampling this is the
//! *absolute* accuracy; when `B` is merely the next finer rate it is the *relative*
//! accuracy the adaptive controller steers by (Fig. 9 shows the two track each other).

use crate::tcm::{SparseTcm, Tcm};

/// `E_ABS` distance between `a` and the reference `b` (formula 2). Returns 0 for two
/// all-zero maps, and +∞ if only the reference is all-zero.
///
/// ```
/// use jessy_core::{e_abs, Tcm};
/// use jessy_net::ThreadId;
///
/// let mut truth = Tcm::new(2);
/// truth.add_pair(ThreadId(0), ThreadId(1), 100.0);
/// let mut estimate = Tcm::new(2);
/// estimate.add_pair(ThreadId(0), ThreadId(1), 95.0);
/// assert!((e_abs(&estimate, &truth) - 0.05).abs() < 1e-12); // 95% accurate
/// ```
pub fn e_abs(a: &Tcm, b: &Tcm) -> f64 {
    assert_eq!(a.n(), b.n(), "maps must have equal dimensions");
    let num: f64 = a
        .raw()
        .iter()
        .zip(b.raw())
        .map(|(x, y)| (x - y).abs())
        .sum();
    let den: f64 = b.raw().iter().map(|y| y.abs()).sum();
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// `E_EUC` distance between `a` and the reference `b` (formula 1).
pub fn e_euc(a: &Tcm, b: &Tcm) -> f64 {
    assert_eq!(a.n(), b.n(), "maps must have equal dimensions");
    let num: f64 = a
        .raw()
        .iter()
        .zip(b.raw())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt();
    let den: f64 = b.raw().iter().map(|y| y * y).sum::<f64>().sqrt();
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// `E_ABS` distance between two sparse maps (formula 2) via a sorted union walk —
/// `O(|a| + |b|)` touched cells, no densification. Matches [`e_abs`] on the dense
/// expansions: both metrics are ratios, so the triangular packing (which halves
/// numerator and denominator alike) leaves the value unchanged.
pub fn e_abs_sparse(a: &SparseTcm, b: &SparseTcm) -> f64 {
    assert_eq!(a.n(), b.n(), "maps must have equal dimensions");
    let (ac, bc) = (a.cells(), b.cells());
    let (mut i, mut j) = (0, 0);
    let mut num = 0.0;
    let mut den = 0.0;
    while i < ac.len() && j < bc.len() {
        match ac[i].0.cmp(&bc[j].0) {
            std::cmp::Ordering::Less => {
                num += ac[i].1.abs();
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                num += bc[j].1.abs();
                den += bc[j].1.abs();
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                num += (ac[i].1 - bc[j].1).abs();
                den += bc[j].1.abs();
                i += 1;
                j += 1;
            }
        }
    }
    num += ac[i..].iter().map(|&(_, v)| v.abs()).sum::<f64>();
    let tail: f64 = bc[j..].iter().map(|&(_, v)| v.abs()).sum();
    num += tail;
    den += tail;
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// Accuracy under the absolute-value metric: `1 − E_ABS`, clamped to `[0, 1]`.
pub fn accuracy_abs(a: &Tcm, b: &Tcm) -> f64 {
    (1.0 - e_abs(a, b)).clamp(0.0, 1.0)
}

/// Accuracy under the Euclidean metric: `1 − E_EUC`, clamped to `[0, 1]`.
pub fn accuracy_euc(a: &Tcm, b: &Tcm) -> f64 {
    (1.0 - e_euc(a, b)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_net::ThreadId;

    fn map(pairs: &[(u32, u32, f64)], n: usize) -> Tcm {
        let mut t = Tcm::new(n);
        for &(i, j, v) in pairs {
            t.add_pair(ThreadId(i), ThreadId(j), v);
        }
        t
    }

    #[test]
    fn identical_maps_have_zero_distance() {
        let a = map(&[(0, 1, 10.0), (1, 2, 4.0)], 3);
        assert_eq!(e_abs(&a, &a), 0.0);
        assert_eq!(e_euc(&a, &a), 0.0);
        assert_eq!(accuracy_abs(&a, &a), 1.0);
        assert_eq!(accuracy_euc(&a, &a), 1.0);
    }

    #[test]
    fn abs_distance_matches_hand_computation() {
        let a = map(&[(0, 1, 8.0)], 2);
        let b = map(&[(0, 1, 10.0)], 2);
        // One packed cell per pair: |8-10| / 10 = 0.2 (the dense form's duplicated
        // halves cancel in the ratio).
        assert!((e_abs(&a, &b) - 0.2).abs() < 1e-12);
        assert!((accuracy_abs(&a, &b) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sparse_distance_matches_dense() {
        let t = |i| ThreadId(i);
        let a = SparseTcm::from_pairs(4, &[(t(0), t(1), 8.0), (t(2), t(3), 4.0)]);
        let b = SparseTcm::from_pairs(4, &[(t(0), t(1), 10.0), (t(1), t(2), 2.0)]);
        let dense = e_abs(&a.to_dense(), &b.to_dense());
        assert!((e_abs_sparse(&a, &b) - dense).abs() < 1e-12);
        // (|8-10| + |4-0| + |0-2|) / (10 + 2)
        assert!((e_abs_sparse(&a, &b) - 8.0 / 12.0).abs() < 1e-12);
        // Edge cases mirror the dense metric.
        let z = SparseTcm::from_pairs(4, &[]);
        assert_eq!(e_abs_sparse(&z, &z), 0.0);
        assert_eq!(e_abs_sparse(&a, &z), f64::INFINITY);
    }

    #[test]
    fn euc_distance_matches_hand_computation() {
        let a = map(&[(0, 1, 8.0)], 2);
        let b = map(&[(0, 1, 10.0)], 2);
        // sqrt(2*(8-10)^2) / sqrt(2*10^2) = 2/10.
        assert!((e_euc(&a, &b) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn abs_bounds_euc_for_concentrated_error() {
        // ABS weighs the maximum deviation of total communication estimates; EUC is
        // dominated by single large deviations. For an error concentrated in one entry
        // relative to mass spread over many, ABS < EUC.
        let mut b = Tcm::new(10);
        for i in 0..9u32 {
            b.add_pair(ThreadId(i), ThreadId(i + 1), 10.0);
        }
        let mut a = b.clone();
        a.add_pair(ThreadId(0), ThreadId(9), 10.0); // one spurious pair
        let abs = e_abs(&a, &b);
        let euc = e_euc(&a, &b);
        assert!(abs < euc, "abs={abs} euc={euc}");
    }

    #[test]
    fn zero_reference_edge_cases() {
        let z = Tcm::new(2);
        let a = map(&[(0, 1, 1.0)], 2);
        assert_eq!(e_abs(&z, &z), 0.0);
        assert_eq!(e_abs(&a, &z), f64::INFINITY);
        assert_eq!(accuracy_abs(&a, &z), 0.0, "clamped");
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn dimension_mismatch_panics() {
        let _ = e_abs(&Tcm::new(2), &Tcm::new(3));
    }
}
