//! Phase-shift — a workload whose sharing graph flips mid-run.
//!
//! The three Table I kernels have *stable* sharing patterns, which under-stresses
//! the adaptive controller: once a class converges, nothing ever challenges the
//! frozen rate. This workload is built to do exactly that (the ROADMAP's
//! "scenario diversity" item):
//!
//! * **Phase A** (rounds `0..flip_round`): threads pair up as `(2k, 2k+1)`; each
//!   pair sweeps a *static* `2·hot`-cell window at the head of its own block of
//!   `Cell` objects every round. The per-round map is identical round over
//!   round, so the controller converges the class at the initial (coarse) rate
//!   almost immediately — correctly: a stationary footprint needs no finer
//!   look.
//! * **Phase B** (rounds `flip_round..rounds`): the pairing *rotates* (thread `t`
//!   now shares with its ring neighbour, `{(1,2), (3,4), …, (n−1, 0)}`) and each
//!   new pair touches only a `hot`-cell window whose position moves every round
//!   (deterministically, seeded by pair and round). `hot` is sized at about
//!   half the coarse sampling gap, so a stale gap straddles such a window with
//!   0-or-1 sampled cells: the frozen profiler reports pair weights that
//!   flicker between zero and one gap-scaled object — a wrong and *unstable*
//!   picture. Only finer gaps put enough sampled cells inside every window for
//!   the per-round map to settle (the round-over-round relative delta shrinks
//!   like `gap / hot`).
//!
//! The flip therefore exercises the controller's drift path end to end: the
//! post-convergence `E_ABS` spike must un-converge the class, the refinement
//! ladder must walk the rate finer, and the class must re-converge at the gap
//! phase B actually needs. Re-convergence lag is measured from the master's
//! round timeline (first un-converged round after the flip until every class is
//! converged again); [`reconvergence_lag`] computes it from a `RunReport`.

use std::sync::Arc;

use jessy_gos::ObjectId;
use jessy_net::NodeId;
use jessy_runtime::{Cluster, InitCtx, JThread, RunReport};
use jessy_stack::MethodId;

/// Phase-shift parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseShiftConfig {
    /// Shared `Cell` objects (64 B each), split into one block per thread pair.
    pub n_cells: usize,
    /// Cells per pair-window in phase B (phase A uses static `2·hot` windows).
    /// Sized at about *half* the coarse sampling gap (≈ 67 for 64 B cells at
    /// 1X), so stale-gap windows hold 0-or-1 sampled cells and the per-round
    /// map flickers instead of settling.
    pub hot: usize,
    /// First phase-B round (the flip point).
    pub flip_round: usize,
    /// Total rounds (one barrier — and thus one profiling interval — each).
    pub rounds: usize,
}

impl PhaseShiftConfig {
    /// Bench scale: long enough phase B for cumulative post-flip mass to
    /// dominate the run.
    pub fn paper() -> Self {
        PhaseShiftConfig {
            n_cells: 2048,
            hot: 33,
            flip_round: 6,
            rounds: 32,
        }
    }

    /// Scaled-down size for tests and smoke lanes.
    pub fn small() -> Self {
        PhaseShiftConfig {
            n_cells: 512,
            hot: 33,
            flip_round: 4,
            rounds: 16,
        }
    }
}

/// Shared handles produced by [`setup`].
#[derive(Debug, Clone)]
pub struct PhaseShiftHandles {
    /// The cells, in allocation (= sampling-sequence) order.
    pub cells: Vec<ObjectId>,
    /// Root object holding a reference to every cell.
    pub root: ObjectId,
    /// Method id for the worker's stack frame.
    pub method: MethodId,
}

/// Register classes and allocate the cells round-robin across nodes.
pub fn setup(ctx: &mut InitCtx<'_>, cfg: &PhaseShiftConfig, n_nodes: usize) -> PhaseShiftHandles {
    let cell_class = ctx.register_scalar_class("Cell", 8); // 64 B
    let root_class = ctx.register_scalar_class("CellRoot", 2);
    let method = ctx.register_method("phase_shift.round", 4);
    let mut cells = Vec::with_capacity(cfg.n_cells);
    for i in 0..cfg.n_cells {
        let node = NodeId((i % n_nodes) as u16);
        cells.push(ctx.alloc_scalar_init(node, cell_class, &[0.0; 8]).id);
    }
    let root = ctx.alloc_scalar_at(NodeId(0), root_class).id;
    for &c in &cells {
        ctx.add_ref(root, c);
    }
    PhaseShiftHandles { cells, root, method }
}

/// splitmix64 — deterministic per-(pair, round) window placement. The position
/// depends only on workload inputs (never on rates or timing), so every run of
/// the same config touches the same cells: full-sampling reference runs and
/// adaptive runs see the same ground-truth access stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Phase-A pair of thread `t`: `(2k, 2k+1)` blocks.
fn pair_a(t: usize) -> usize {
    t / 2
}

/// Phase-B pair of thread `t`: the ring-rotated pairing `{(1,2), (3,4), …,
/// (n−1, 0)}` — every thread changes partners at the flip.
fn pair_b(t: usize, n_threads: usize) -> usize {
    ((t + 1) % n_threads) / 2
}

/// The cell indices thread `t` touches in round `round`, and how many sweeps it
/// makes over them. Phase-B pairs sweep `q + 1` times — a compute-time skew
/// that staggers interval lengths across pairs (the TCM weights each object
/// once per round, so the skew exercises timing, not map structure).
pub fn round_plan(
    cfg: &PhaseShiftConfig,
    n_threads: usize,
    t: usize,
    round: usize,
) -> (std::ops::Range<usize>, usize) {
    let n_pairs = (n_threads / 2).max(1);
    let block = cfg.n_cells / n_pairs;
    if round < cfg.flip_round {
        let p = pair_a(t) % n_pairs;
        (p * block..p * block + (2 * cfg.hot).min(block), 1)
    } else {
        let q = pair_b(t, n_threads) % n_pairs;
        let span = block.saturating_sub(cfg.hot).max(1);
        let start = q * block + (mix(((q as u64) << 32) | round as u64) % span as u64) as usize;
        (start..(start + cfg.hot).min(cfg.n_cells), q + 1)
    }
}

/// The per-thread body: one barrier-delimited interval per round; the sharing
/// graph flips at `cfg.flip_round`.
pub fn thread_body(jt: &mut JThread, cfg: &PhaseShiftConfig, h: &PhaseShiftHandles) {
    let t = jt.thread_id().index();
    let n_threads = jt.shared().n_threads;
    jt.push_frame(h.method);
    jt.set_local_ref(0, h.root);
    for round in 0..cfg.rounds {
        jt.yield_now();
        let (range, sweeps) = round_plan(cfg, n_threads, t, round);
        let writer = t.is_multiple_of(2);
        for _ in 0..sweeps {
            for i in range.clone() {
                if writer {
                    jt.write(h.cells[i], |d| d[0] += 1.0);
                } else {
                    jt.read(h.cells[i], |d| d[0]);
                }
            }
        }
        jt.compute(64 * (range.len() * sweeps) as u64);
        jt.barrier();
    }
    jt.pop_frame();
}

/// Run phase-shift on a prepared cluster: setup + run, returning the report.
pub fn run_on(cluster: &mut Cluster, cfg: PhaseShiftConfig) -> RunReport {
    let n_nodes = cluster.shared().n_nodes;
    let handles = cluster.init(|ctx| setup(ctx, &cfg, n_nodes));
    let handles = Arc::new(handles);
    cluster.run(move |jt| thread_body(jt, &cfg, &handles));
    cluster.report()
}

/// Re-convergence lag in rounds, from the master's round timeline: the number
/// of closed rounds at or after `flip_round` on which at least one class was
/// not converged. Zero means the controller never reacted to the flip (the
/// frozen-forever baseline); with drift detection it is the un-converge +
/// re-refinement window the bench reports. The timeline is change-point
/// encoded, so each un-converged row counts for the rounds it spans: from its
/// own round up to the next row's (the run's last closed round for the final
/// row).
pub fn reconvergence_lag(report: &RunReport, flip_round: usize) -> u64 {
    let Some(master) = &report.master else { return 0 };
    let rows = &master.timeline;
    rows.iter()
        .enumerate()
        .filter(|(_, row)| row.classes.iter().any(|c| c.class_name == "Cell" && !c.converged))
        .map(|(i, row)| {
            let end = rows.get(i + 1).map_or(master.rounds, |next| next.round);
            end.saturating_sub(row.round.max(flip_round as u64))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_a_windows_are_static_and_pair_disjoint() {
        let cfg = PhaseShiftConfig::small();
        let n_threads = 8;
        let block = cfg.n_cells / (n_threads / 2);
        let mut covered = vec![0u32; cfg.n_cells];
        for t in 0..n_threads {
            let (range, sweeps) = round_plan(&cfg, n_threads, t, 0);
            assert_eq!(sweeps, 1);
            assert_eq!(range.start % block, 0, "phase-A windows sit at block heads");
            assert_eq!(range.len(), (2 * cfg.hot).min(block));
            // Static: the same window every phase-A round.
            assert_eq!(range, round_plan(&cfg, n_threads, t, cfg.flip_round - 1).0);
            for i in range {
                covered[i] += 1;
            }
        }
        // Touched cells are shared by exactly the two threads of their pair.
        assert!(covered.iter().all(|&c| c == 0 || c == 2), "pair windows are disjoint");
        assert!(covered.contains(&2));
    }

    #[test]
    fn flip_changes_both_pairing_and_footprint() {
        let cfg = PhaseShiftConfig::small();
        let n = 8;
        // Thread 1's partner in phase A is 0; in phase B it is 2.
        assert_eq!(pair_a(1), pair_a(0));
        assert_ne!(pair_b(1, n), pair_b(0, n));
        assert_eq!(pair_b(1, n), pair_b(2, n));
        // Phase-B windows are `hot`-sized and move between rounds.
        let (r1, s1) = round_plan(&cfg, n, 1, cfg.flip_round);
        let (r2, _) = round_plan(&cfg, n, 1, cfg.flip_round + 1);
        assert_eq!(r1.len(), cfg.hot);
        assert_ne!(r1, r2, "the window must move round over round");
        assert!(s1 >= 1);
        // Ring partners touch the same window in the same round.
        assert_eq!(round_plan(&cfg, n, 1, cfg.flip_round).0, round_plan(&cfg, n, 2, cfg.flip_round).0);
    }

    #[test]
    fn plans_are_deterministic_and_in_bounds() {
        let cfg = PhaseShiftConfig::paper();
        for t in 0..8 {
            for round in 0..cfg.rounds {
                let (a, _) = round_plan(&cfg, 8, t, round);
                let (b, _) = round_plan(&cfg, 8, t, round);
                assert_eq!(a, b);
                assert!(a.end <= cfg.n_cells);
            }
        }
    }
}
