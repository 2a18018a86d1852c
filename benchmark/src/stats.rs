//! Median and quartiles of a handful of samples.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the rule Python's `statistics.quantiles(values, n=4)` uses
    /// (exclusive method), so the benchmark's spreads read the same as the
    /// driver's. With fewer than two samples the quartiles equal the median.
    pub fn of(samples: &[f64]) -> Summary {
        let mut x = samples.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        assert!(n > 0, "a summary needs at least one sample");
        let quantile = |quarter: usize| {
            if n < 2 {
                return x[0];
            }
            let pos = quarter * (n + 1);
            let j = (pos / 4).clamp(1, n - 1);
            let delta = pos as f64 / 4.0 - j as f64;
            x[j - 1] + delta * (x[j] - x[j - 1])
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            n,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        let s = Summary::of(&[3.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 3.0, 3.0));
    }
}
