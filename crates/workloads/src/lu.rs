//! LU — blocked dense LU factorization (suite extension).
//!
//! The SPLASH-2 kernel the paper's benchmark set is drawn from: an `N × N` matrix in
//! `B × B` blocks, each block one `double[]` GOS object, owned 2-D block-cyclically by
//! the threads. Step `k`: the owner factors the diagonal block; perimeter owners solve
//! their row/column blocks against it; interior owners update `A[i][j] -= A[i][k]
//! A[k][j]`. Sharing is the classic decaying wavefront — every step the diagonal block
//! is read by the whole perimeter and the perimeter by the whole interior — a sharing
//! *pattern that changes over the run*, which is exactly the case the paper says
//! adaptive profiling exists for ("applications whose sharing patterns could change
//! dynamically").
//!
//! No pivoting (the SPLASH-2 kernel also factors without it); inputs are made
//! diagonally dominant so the factorization is stable.

use std::sync::Arc;

use jessy_gos::ObjectId;
use jessy_net::NodeId;
use jessy_runtime::{Cluster, InitCtx, JThread, RunReport};
use jessy_stack::MethodId;

/// LU parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuConfig {
    /// Matrix dimension (multiple of `block`).
    pub n: usize,
    /// Block dimension.
    pub block: usize,
}

impl LuConfig {
    /// A paper-era problem size: 512 × 512 in 32 × 32 blocks.
    pub fn paper() -> Self {
        LuConfig { n: 512, block: 32 }
    }

    /// Scaled-down size for tests.
    pub fn small() -> Self {
        LuConfig { n: 64, block: 16 }
    }

    /// Blocks per dimension.
    pub fn nb(&self) -> usize {
        self.n / self.block
    }
}

/// Shared handles produced by [`setup`].
#[derive(Debug, Clone)]
pub struct LuHandles {
    /// Block objects, row-major (`nb × nb`).
    pub blocks: Vec<ObjectId>,
    /// Worker method id.
    pub method: MethodId,
}

/// 2-D block-cyclic owner of block `(i, j)` among `n_threads` threads.
pub fn owner_of(cfg: &LuConfig, n_threads: usize, i: usize, j: usize) -> usize {
    let _ = cfg;
    // Factor the thread count into a near-square pr × pc grid.
    let pr = (1..=n_threads)
        .filter(|&d| n_threads.is_multiple_of(d))
        .min_by_key(|&d| (d as i64 - (n_threads as f64).sqrt() as i64).abs())
        .unwrap_or(1);
    let pc = n_threads / pr;
    (i % pr) * pc + (j % pc)
}

/// Deterministic, diagonally dominant test matrix entry.
fn matrix_entry(cfg: &LuConfig, r: usize, c: usize) -> f64 {
    if r == c {
        cfg.n as f64 + 1.0
    } else {
        ((r * 31 + c * 17) % 13) as f64 / 13.0
    }
}

/// Register classes and allocate the blocks, homed at their owners' nodes.
pub fn setup(ctx: &mut InitCtx<'_>, cfg: &LuConfig, n_threads: usize, n_nodes: usize) -> LuHandles {
    assert_eq!(cfg.n % cfg.block, 0, "n must be a multiple of block");
    let class = ctx.register_array_class("lu.block[]", 1);
    let method = ctx.register_method("lu.factor", 5);
    let nb = cfg.nb();
    let b = cfg.block;
    let mut blocks = Vec::with_capacity(nb * nb);
    for bi in 0..nb {
        for bj in 0..nb {
            let owner = owner_of(cfg, n_threads, bi, bj);
            let node = NodeId((owner * n_nodes / n_threads) as u16);
            let init: Vec<f64> = (0..b * b)
                .map(|idx| matrix_entry(cfg, bi * b + idx / b, bj * b + idx % b))
                .collect();
            blocks.push(ctx.alloc_array_init(node, class, &init).id);
        }
    }
    LuHandles { blocks, method }
}

// ---------------------------------------------------------------- block kernels

/// In-place LU of a `b × b` block (no pivoting).
fn factor_block(a: &mut [f64], b: usize) {
    for k in 0..b {
        let pivot = a[k * b + k];
        for i in (k + 1)..b {
            a[i * b + k] /= pivot;
            let lik = a[i * b + k];
            for j in (k + 1)..b {
                a[i * b + j] -= lik * a[k * b + j];
            }
        }
    }
}

/// `X ← L⁻¹ X` where `L` is the (unit-diagonal) lower part of the factored diagonal.
fn solve_row_block(diag: &[f64], x: &mut [f64], b: usize) {
    for k in 0..b {
        for i in (k + 1)..b {
            let lik = diag[i * b + k];
            for j in 0..b {
                x[i * b + j] -= lik * x[k * b + j];
            }
        }
    }
}

/// `X ← X U⁻¹` where `U` is the upper part of the factored diagonal.
fn solve_col_block(diag: &[f64], x: &mut [f64], b: usize) {
    for k in 0..b {
        let ukk = diag[k * b + k];
        for i in 0..b {
            x[i * b + k] /= ukk;
            let xik = x[i * b + k];
            for j in (k + 1)..b {
                x[i * b + j] -= xik * diag[k * b + j];
            }
        }
    }
}

/// `C ← C − A·B`.
fn update_block(c: &mut [f64], a: &[f64], bm: &[f64], b: usize) {
    for i in 0..b {
        for k in 0..b {
            let aik = a[i * b + k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..b {
                c[i * b + j] -= aik * bm[k * b + j];
            }
        }
    }
}

/// The per-thread body: the full blocked factorization with barriers between phases.
pub fn thread_body(jt: &mut JThread, cfg: &LuConfig, h: &LuHandles) {
    let t = jt.thread_id().index();
    let n_threads = jt.shared().n_threads;
    let nb = cfg.nb();
    let b = cfg.block;
    let at = |i: usize, j: usize| h.blocks[i * nb + j];
    jt.push_frame(h.method);
    jt.set_local_ref(0, h.blocks[0]);

    for k in 0..nb {
        // Step boundary: non-owners of the diagonal block yield to the factorer.
        jt.yield_now();
        // Phase 1: factor the diagonal block.
        if owner_of(cfg, n_threads, k, k) == t {
            jt.set_local_ref(1, at(k, k));
            jt.write(at(k, k), |d| factor_block(d, b));
            jt.compute((b * b * b / 3) as u64);
        }
        jt.barrier();

        // Phase 2: perimeter solves. The diagonal block is copied once, not read
        // in place by a group access per solve: one read serves every solve of
        // the step, and a group access is a read of each member per write.
        let diag = jt.read(at(k, k), |d| d.to_vec());
        for j in (k + 1)..nb {
            if owner_of(cfg, n_threads, k, j) == t {
                jt.write(at(k, j), |d| solve_row_block(&diag, d, b));
                jt.compute((b * b * b / 2) as u64);
            }
        }
        for i in (k + 1)..nb {
            if owner_of(cfg, n_threads, i, k) == t {
                jt.write(at(i, k), |d| solve_col_block(&diag, d, b));
                jt.compute((b * b * b / 2) as u64);
            }
        }
        jt.barrier();

        // Phase 3: interior updates.
        for i in (k + 1)..nb {
            for j in (k + 1)..nb {
                if owner_of(cfg, n_threads, i, j) == t {
                    jt.update(at(i, j), [at(i, k), at(k, j)], |d, [a, bm]| {
                        update_block(d, a, bm, b)
                    });
                    jt.compute((b * b * b) as u64);
                }
            }
        }
        jt.barrier();
    }
    jt.pop_frame();
}

/// Sequential reference: the identical blocked algorithm on a plain matrix.
pub fn reference(cfg: &LuConfig) -> Vec<Vec<f64>> {
    let nb = cfg.nb();
    let b = cfg.block;
    let mut blocks: Vec<Vec<f64>> = (0..nb * nb)
        .map(|idx| {
            let (bi, bj) = (idx / nb, idx % nb);
            (0..b * b)
                .map(|e| matrix_entry(cfg, bi * b + e / b, bj * b + e % b))
                .collect()
        })
        .collect();
    for k in 0..nb {
        {
            let d = &mut blocks[k * nb + k];
            factor_block(d, b);
        }
        let diag = blocks[k * nb + k].clone();
        for j in (k + 1)..nb {
            solve_row_block(&diag, &mut blocks[k * nb + j], b);
        }
        for i in (k + 1)..nb {
            solve_col_block(&diag, &mut blocks[i * nb + k], b);
        }
        for i in (k + 1)..nb {
            for j in (k + 1)..nb {
                let a = blocks[i * nb + k].clone();
                let bm = blocks[k * nb + j].clone();
                update_block(&mut blocks[i * nb + j], &a, &bm, b);
            }
        }
    }
    blocks
}

/// Run LU on a prepared cluster.
pub fn run_on(cluster: &mut Cluster, cfg: LuConfig) -> RunReport {
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
    fn owner_grid_covers_all_threads() {
        let cfg = LuConfig::small();
        let mut seen = vec![false; 6];
        for i in 0..8 {
            for j in 0..8 {
                seen[owner_of(&cfg, 6, i, j)] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn block_kernels_factor_a_small_matrix() {
        // 2x2 block: A = [[4,2],[2,3]] → L = [[1,0],[.5,1]], U = [[4,2],[0,2]].
        let mut a = vec![4.0, 2.0, 2.0, 3.0];
        factor_block(&mut a, 2);
        assert_eq!(a, vec![4.0, 2.0, 0.5, 2.0]);
    }

    #[test]
    fn reference_reconstructs_the_matrix() {
        // L·U must reproduce the original (diagonally dominant ⇒ stable).
        let cfg = LuConfig { n: 32, block: 8 };
        let nb = cfg.nb();
        let b = cfg.block;
        let blocks = reference(&cfg);
        // Assemble full L and U.
        let n = cfg.n;
        let mut l = vec![vec![0.0f64; n]; n];
        let mut u = vec![vec![0.0f64; n]; n];
        for bi in 0..nb {
            for bj in 0..nb {
                let blk = &blocks[bi * nb + bj];
                for (e, &v) in blk.iter().enumerate() {
                    let (r, c) = (bi * b + e / b, bj * b + e % b);
                    match r.cmp(&c) {
                        std::cmp::Ordering::Greater => l[r][c] = v,
                        std::cmp::Ordering::Equal => {
                            l[r][c] = 1.0;
                            u[r][c] = v;
                        }
                        std::cmp::Ordering::Less => u[r][c] = v,
                    }
                }
            }
        }
        #[allow(clippy::needless_range_loop)]
        for r in 0..n {
            for c in 0..n {
                let mut dot = 0.0;
                for k in 0..=r.min(c) {
                    dot += l[r][k] * u[k][c];
                }
                let orig = matrix_entry(&cfg, r, c);
                assert!(
                    (dot - orig).abs() < 1e-8 * (1.0 + orig.abs()),
                    "A[{r}][{c}]: {dot} vs {orig}"
                );
            }
        }
    }
}
