//! SOR — red-black successive over-relaxation (Table I row 1).
//!
//! An `n × m` grid stored as one `double[]` object per row (a 2K-wide row is 16 KB —
//! "each row at least several KB", well past the 4 KB page size, which is why the
//! paper's SOR is effectively always at full sampling). Threads own contiguous row
//! blocks; each iteration updates red cells then black cells, reading the neighbour
//! rows above and below — the near-neighbour sharing pattern of Table I: only the
//! block-boundary rows are shared, each by exactly two adjacent threads.

use std::sync::Arc;

use jessy_gos::ObjectId;
use jessy_net::NodeId;
use jessy_runtime::{Cluster, InitCtx, JThread, RunReport};
use jessy_stack::MethodId;

/// SOR parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SorConfig {
    /// Rows.
    pub n: usize,
    /// Columns (row length).
    pub m: usize,
    /// Red-black iterations.
    pub rounds: usize,
    /// Over-relaxation factor.
    pub omega: f64,
}

impl SorConfig {
    /// The paper's problem size: 2K × 2K, 10 rounds.
    pub fn paper() -> Self {
        SorConfig {
            n: 2048,
            m: 2048,
            rounds: 10,
            omega: 1.25,
        }
    }

    /// Scaled-down size for tests and quick benches.
    pub fn small() -> Self {
        SorConfig {
            n: 64,
            m: 64,
            rounds: 4,
            omega: 1.25,
        }
    }
}

/// Shared handles produced by [`setup`].
#[derive(Debug, Clone)]
pub struct SorHandles {
    /// Row objects, top to bottom.
    pub rows: Vec<ObjectId>,
    /// The matrix root object (refs → every row).
    pub matrix: ObjectId,
    /// Method id for the worker's stack frame.
    pub method: MethodId,
}

/// Rows of thread `t` (half-open range) under block distribution.
pub fn rows_of(cfg: &SorConfig, n_threads: usize, t: usize) -> std::ops::Range<usize> {
    let per = cfg.n.div_ceil(n_threads);
    let lo = (t * per).min(cfg.n);
    let hi = ((t + 1) * per).min(cfg.n);
    lo..hi
}

/// Register classes and allocate the grid, each row homed at the node of the thread
/// that owns it. Boundary rows are initialized to 1.0 (fixed boundary condition).
pub fn setup(ctx: &mut InitCtx<'_>, cfg: &SorConfig, n_threads: usize, n_nodes: usize) -> SorHandles {
    setup_with_homes(ctx, cfg, |i| {
        let owner_thread = (0..n_threads)
            .find(|&t| rows_of(cfg, n_threads, t).contains(&i))
            .unwrap_or(0);
        NodeId((owner_thread * n_nodes / n_threads) as u16)
    })
}

/// Like [`setup`] but with an explicit row → home-node mapping (used by the
/// home-migration experiments, which start from deliberately bad homings).
pub fn setup_with_homes(
    ctx: &mut InitCtx<'_>,
    cfg: &SorConfig,
    home_of_row: impl Fn(usize) -> NodeId,
) -> SorHandles {
    let row_class = ctx.register_array_class("double[]", 1);
    let matrix_class = ctx.register_scalar_class("Matrix", 2);
    let method = ctx.register_method("sor.iterate", 4);

    let mut rows = Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        let node = home_of_row(i);
        let init: Vec<f64> = if i == 0 || i == cfg.n - 1 {
            vec![1.0; cfg.m]
        } else {
            // Deterministic interior init with a boundary of 1.0 at both ends.
            (0..cfg.m)
                .map(|j| {
                    if j == 0 || j == cfg.m - 1 {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        rows.push(ctx.alloc_array_init(node, row_class, &init).id);
    }
    let matrix = ctx.alloc_scalar_at(NodeId(0), matrix_class).id;
    for &r in &rows {
        ctx.add_ref(matrix, r);
    }
    SorHandles {
        rows,
        matrix,
        method,
    }
}

/// One color's relaxation of `row` in place, given its neighbours.
fn relax_color(row: &mut [f64], up: &[f64], down: &[f64], color: usize, i: usize, omega: f64) {
    let m = row.len();
    let mut j = 1 + (i + color) % 2;
    while j < m - 1 {
        let nbr = up[j] + down[j] + row[j - 1] + row[j + 1];
        row[j] = (1.0 - omega) * row[j] + omega * 0.25 * nbr;
        j += 2;
    }
}

/// One color's update of interior row `i`: the rows above and below are read
/// in place and row `i` is written, in one group access, then the relaxation
/// is charged as compute.
pub fn update_row(jt: &mut JThread, cfg: &SorConfig, h: &SorHandles, i: usize, color: usize) {
    jt.update(h.rows[i], [h.rows[i - 1], h.rows[i + 1]], |row, [up, down]| {
        relax_color(row, up, down, color, i, cfg.omega);
    });
    jt.compute(2 * cfg.m as u64);
}

/// The per-thread body: `cfg.rounds` red-black iterations over the thread's rows.
pub fn thread_body(jt: &mut JThread, cfg: &SorConfig, h: &SorHandles) {
    let t = jt.thread_id().index();
    let n_threads = jt.shared().n_threads;
    let my_rows = rows_of(cfg, n_threads, t);
    jt.push_frame(h.method);
    jt.set_local_ref(0, h.matrix);
    if let Some(&first) = h.rows.get(my_rows.start.min(h.rows.len() - 1)..).and_then(|s| s.first())
    {
        jt.set_local_ref(1, first);
    }

    for _round in 0..cfg.rounds {
        // Round boundary: a scheduling point even for threads whose row range is
        // all fixed boundary (no accesses of their own this round).
        jt.yield_now();
        for color in 0..2usize {
            for i in my_rows.clone() {
                if i == 0 || i == cfg.n - 1 {
                    continue; // fixed boundary rows
                }
                update_row(jt, cfg, h, i, color);
            }
            jt.barrier();
        }
    }
    jt.pop_frame();
}

/// Checksum of the whole grid (validation; deterministic).
pub fn checksum(jt: &mut JThread, h: &SorHandles) -> f64 {
    let mut sum = 0.0;
    for &r in &h.rows {
        sum += jt.read(r, |d| d.iter().sum::<f64>());
    }
    sum
}

/// Sequential reference solution (for correctness tests).
pub fn reference(cfg: &SorConfig) -> Vec<Vec<f64>> {
    let mut grid: Vec<Vec<f64>> = (0..cfg.n)
        .map(|i| {
            (0..cfg.m)
                .map(|j| {
                    if i == 0 || i == cfg.n - 1 || j == 0 || j == cfg.m - 1 {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    for _ in 0..cfg.rounds {
        for color in 0..2usize {
            for i in 1..cfg.n - 1 {
                let (up, rest) = grid.split_at_mut(i);
                let (row, down) = rest.split_at_mut(1);
                let row = &mut row[0];
                let up = &up[i - 1];
                let down = &down[0];
                relax_color(row, up, down, color, i, cfg.omega);
            }
        }
    }
    grid
}

/// Run SOR on a prepared cluster: setup + run, returning the report.
pub fn run_on(cluster: &mut Cluster, cfg: SorConfig) -> RunReport {
    let n_threads = cluster.shared().n_threads;
    let n_nodes = cluster.shared().n_nodes;
    let handles = cluster.init(|ctx| setup(ctx, &cfg, n_threads, n_nodes));
    let handles = Arc::new(handles);
    cluster.run(move |jt| thread_body(jt, &cfg, &handles));
    cluster.report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_of_partitions_exactly() {
        let cfg = SorConfig {
            n: 10,
            m: 4,
            rounds: 1,
            omega: 1.0,
        };
        let covered: Vec<usize> = (0..3).flat_map(|t| rows_of(&cfg, 3, t)).collect();
        assert_eq!(covered, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reference_converges_toward_boundary_value() {
        let cfg = SorConfig {
            n: 8,
            m: 8,
            rounds: 200,
            omega: 1.25,
        };
        let grid = reference(&cfg);
        // With all boundaries at 1.0 the interior converges to 1.0.
        for row in &grid[1..7] {
            for &v in &row[1..7] {
                assert!((v - 1.0).abs() < 1e-6, "not converged: {v}");
            }
        }
    }

    #[test]
    fn relax_color_touches_only_its_color() {
        let mut row = vec![0.0; 8];
        let up = vec![4.0; 8];
        let down = vec![4.0; 8];
        relax_color(&mut row, &up, &down, 0, 2, 1.0);
        // i+color even → j starts at 1+(2+0)%2 = 1, stride 2: j = 1,3,5.
        for (j, v) in row.iter().enumerate() {
            if j % 2 == 1 && j < 7 {
                assert!(*v != 0.0, "cell {j} should be updated");
            } else {
                assert_eq!(*v, 0.0, "cell {j} must be untouched");
            }
        }
    }
}
