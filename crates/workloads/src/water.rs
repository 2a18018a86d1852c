//! Water-Spatial — molecular dynamics over a 3D box decomposition (Table I row 3).
//!
//! 512 molecules of ≈ 512 bytes each (medium granularity). Space is cut into a
//! `k × k × k` grid of **box objects** whose payloads list their member molecules and
//! whose reference fields point at them (the object graph sticky-set resolution
//! walks). Threads own slabs of boxes along x; forces act between molecules in the
//! same or adjacent boxes — the near-neighbour 3D-box sharing pattern of Table I.
//! Membership is rebuilt every round under per-box distributed locks, giving the
//! "evolving load distribution" the paper notes.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use jessy_gos::{ClassId, LockId, ObjectId};
use jessy_net::NodeId;
use jessy_runtime::{Cluster, InitCtx, JThread, RunReport};
use jessy_stack::MethodId;

/// Molecule payload: 64 words = 512 bytes. Layout: `[x,y,z, vx,vy,vz, fx,fy,fz, …pad]`.
pub const MOLECULE_WORDS: u32 = 64;
/// Box payload: `[count, slot0, slot1, …]`.
pub const BOX_CAPACITY: usize = 62;

/// Water-Spatial parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterConfig {
    /// Number of molecules.
    pub n_molecules: usize,
    /// Boxes per dimension.
    pub k: usize,
    /// Simulation rounds.
    pub rounds: usize,
    /// Box edge length (domain is `k * box_len` per side).
    pub box_len: f64,
    /// Interaction cutoff (≤ `box_len` so neighbours suffice).
    pub cutoff: f64,
    /// Time step.
    pub dt: f64,
    /// Initial speed scale (uniform per component in `[-v, v]`) — gives the molecules
    /// enough motion to migrate between boxes within a short run.
    pub init_speed: f64,
    /// RNG seed.
    pub seed: u64,
}

impl WaterConfig {
    /// The paper's problem size: 512 molecules, 5 rounds.
    pub fn paper() -> Self {
        WaterConfig {
            n_molecules: 512,
            k: 4,
            rounds: 5,
            box_len: 2.0,
            cutoff: 1.8,
            dt: 0.002,
            init_speed: 30.0,
            seed: 7,
        }
    }

    /// Scaled-down size for tests and quick benches.
    pub fn small() -> Self {
        WaterConfig {
            n_molecules: 64,
            k: 2,
            rounds: 3,
            box_len: 2.0,
            cutoff: 1.8,
            dt: 0.002,
            init_speed: 60.0,
            seed: 7,
        }
    }

    /// Total boxes.
    pub fn n_boxes(&self) -> usize {
        self.k * self.k * self.k
    }

    /// Domain side length.
    pub fn side(&self) -> f64 {
        self.k as f64 * self.box_len
    }
}

/// Shared handles produced by [`setup`].
#[derive(Debug, Clone)]
pub struct WaterHandles {
    /// Molecule objects.
    pub molecules: Vec<ObjectId>,
    /// Box objects in x-major order.
    pub boxes: Vec<ObjectId>,
    /// One distributed lock per box (membership mutation).
    pub box_locks: Vec<LockId>,
    /// Molecule class.
    pub mol_class: ClassId,
    /// Box class.
    pub box_class: ClassId,
    /// Worker method id (`water.step`, the long-lived bottom frame).
    pub method: MethodId,
    /// Per-phase method id (`water.interf`, pushed during force computation).
    pub force_method: MethodId,
}

/// Box index for a position.
pub fn box_of(cfg: &WaterConfig, p: &[f64; 3]) -> usize {
    let k = cfg.k;
    let clamp = |v: f64| -> usize {
        ((v / cfg.box_len).floor().max(0.0) as usize).min(k - 1)
    };
    clamp(p[0]) * k * k + clamp(p[1]) * k + clamp(p[2])
}

/// Boxes of thread `t`: a slab of x-layers.
pub fn boxes_of(cfg: &WaterConfig, n_threads: usize, t: usize) -> Vec<usize> {
    let k = cfg.k;
    let per = k.div_ceil(n_threads.min(k));
    let owner_of_layer = |x: usize| (x / per).min(n_threads - 1);
    (0..cfg.n_boxes())
        .filter(|b| owner_of_layer(b / (k * k)) == t)
        .collect()
}

/// Neighbouring boxes (3×3×3 block, clipped at the walls), including `b` itself.
pub fn neighbours(cfg: &WaterConfig, b: usize) -> Vec<usize> {
    let k = cfg.k as isize;
    let (x, y, z) = ((b / (cfg.k * cfg.k)) as isize, ((b / cfg.k) % cfg.k) as isize, (b % cfg.k) as isize);
    let mut out = Vec::new();
    for dx in -1..=1 {
        for dy in -1..=1 {
            for dz in -1..=1 {
                let (nx, ny, nz) = (x + dx, y + dy, z + dz);
                if nx >= 0 && nx < k && ny >= 0 && ny < k && nz >= 0 && nz < k {
                    out.push((nx * k * k + ny * k + nz) as usize);
                }
            }
        }
    }
    out
}

/// Register classes, allocate molecules (uniform random in the domain) and boxes,
/// and bind the initial membership.
pub fn setup(ctx: &mut InitCtx<'_>, cfg: &WaterConfig, n_threads: usize, n_nodes: usize) -> WaterHandles {
    let mol_class = ctx.register_scalar_class("Molecule", MOLECULE_WORDS);
    let box_class = ctx.register_scalar_class("BoxList", 1 + BOX_CAPACITY as u32);
    let method = ctx.register_method("water.step", 5);
    let force_method = ctx.register_method("water.interf", 4);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let side = cfg.side();
    let mut positions = Vec::with_capacity(cfg.n_molecules);
    let mut molecules = Vec::with_capacity(cfg.n_molecules);

    // Owner of a box (for homing): thread owning its x-slab.
    let owner_of_box: Vec<usize> = (0..cfg.n_boxes())
        .map(|b| {
            (0..n_threads)
                .find(|&t| boxes_of(cfg, n_threads, t).contains(&b))
                .unwrap_or(0)
        })
        .collect();

    for _ in 0..cfg.n_molecules {
        let p = [
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ];
        let mut init = vec![0.0; MOLECULE_WORDS as usize];
        init[0] = p[0];
        init[1] = p[1];
        init[2] = p[2];
        for v in &mut init[3..6] {
            *v = rng.gen_range(-cfg.init_speed..cfg.init_speed);
        }
        let owner = owner_of_box[box_of(cfg, &p)];
        let node = NodeId((owner * n_nodes / n_threads) as u16);
        molecules.push(ctx.alloc_scalar_init(node, mol_class, &init).id);
        positions.push(p);
    }

    let mut boxes = Vec::with_capacity(cfg.n_boxes());
    let mut box_locks = Vec::with_capacity(cfg.n_boxes());
    for &owner in owner_of_box.iter() {
        let node = NodeId((owner * n_nodes / n_threads) as u16);
        boxes.push(ctx.alloc_scalar_at(node, box_class).id);
        box_locks.push(ctx.register_lock());
    }
    // Initial membership.
    for (i, p) in positions.iter().enumerate() {
        let b = box_of(cfg, p);
        let home_box = ctx.gos().object_ref(boxes[b]);
        home_box.add_ref(molecules[i]);
        let mol = i as f64;
        // Write membership directly into the home copy during init.
        home_box.with_home_data(|d| {
            let count = d[0] as usize;
            assert!(count < BOX_CAPACITY, "box overflow at init");
            d[1 + count] = mol;
            d[0] = count as f64 + 1.0;
        });
    }

    WaterHandles {
        molecules,
        boxes,
        box_locks,
        mol_class,
        box_class,
        method,
        force_method,
    }
}

/// Lennard-Jones-style pair force on `a` from `b` (truncated at the cutoff).
fn pair_force(pa: &[f64; 3], pb: &[f64; 3], cutoff: f64) -> [f64; 3] {
    let dx = [pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]];
    let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];
    if r2 >= cutoff * cutoff || r2 < 1e-12 {
        return [0.0; 3];
    }
    let inv2 = 1.0 / r2;
    let inv6 = inv2 * inv2 * inv2;
    let mag = 24.0 * inv6 * (2.0 * inv6 - 1.0) * inv2;
    // Clamp the (truncated, unshifted) LJ force for numerical robustness.
    let mag = mag.clamp(-1e3, 1e3);
    [mag * dx[0], mag * dx[1], mag * dx[2]]
}

/// Read a box's member list through the GOS.
fn members(jt: &mut JThread, box_obj: ObjectId) -> Vec<usize> {
    jt.read(box_obj, |d| {
        let count = d[0] as usize;
        d[1..1 + count].iter().map(|&m| m as usize).collect()
    })
}

/// The per-thread body: rounds of force → integrate → rebind.
pub fn thread_body(jt: &mut JThread, cfg: &WaterConfig, h: &WaterHandles) {
    let t = jt.thread_id().index();
    let n_threads = jt.shared().n_threads;
    let my_boxes = boxes_of(cfg, n_threads, t);
    jt.push_frame(h.method);
    if let Some(&b) = my_boxes.first() {
        jt.set_local_ref(0, h.boxes[b]);
    }

    for _round in 0..cfg.rounds {
        // Round boundary: a scheduling point even for threads that own no boxes.
        jt.yield_now();
        // --- Force phase: for each own box, interact members with the neighbourhood.
        jt.push_frame(h.force_method);
        let mut forces: Vec<(usize, [f64; 3])> = Vec::new();
        for &b in &my_boxes {
            jt.set_local_ref(0, h.boxes[b]);
            let mine = members(jt, h.boxes[b]);
            if mine.is_empty() {
                continue;
            }
            // Gather neighbour molecules' positions (incl. own box).
            let mut nbr_pos: Vec<(usize, [f64; 3])> = Vec::new();
            for nb in neighbours(cfg, b) {
                for m in members(jt, h.boxes[nb]) {
                    let p = jt.read(h.molecules[m], |d| [d[0], d[1], d[2]]);
                    nbr_pos.push((m, p));
                }
            }
            for &m in &mine {
                let pm = jt.read(h.molecules[m], |d| [d[0], d[1], d[2]]);
                let mut f = [0.0f64; 3];
                for (other, po) in &nbr_pos {
                    if *other == m {
                        continue;
                    }
                    let pf = pair_force(&pm, po, cfg.cutoff);
                    for k in 0..3 {
                        f[k] += pf[k];
                    }
                    // A real water-water interaction evaluates 9 atom-pair terms with
                    // square roots — over a microsecond in the paper's Kaffe-based
                    // system once bytecode overheads are included.
                    jt.compute(80);
                }
                forces.push((m, f));
            }
        }
        jt.pop_frame();
        jt.barrier();

        // --- Integrate phase: write velocities/positions of own-box molecules.
        let side = cfg.side();
        for (m, f) in &forces {
            jt.write(h.molecules[*m], |d| {
                for k in 0..3 {
                    d[3 + k] += cfg.dt * f[k];
                    d[k] += cfg.dt * d[3 + k];
                    // Reflecting walls keep everything in the domain.
                    if d[k] < 0.0 {
                        d[k] = -d[k];
                        d[3 + k] = -d[3 + k];
                    }
                    if d[k] > side {
                        d[k] = 2.0 * side - d[k];
                        d[3 + k] = -d[3 + k];
                    }
                }
            });
            jt.compute(30);
        }
        jt.barrier();

        // --- Rebind phase: move migrated molecules between boxes, under box locks.
        for &b in &my_boxes {
            let mine = members(jt, h.boxes[b]);
            for m in mine {
                let p = jt.read(h.molecules[m], |d| [d[0], d[1], d[2]]);
                let nb = box_of(cfg, &p);
                if nb != b {
                    // Remove from b, insert into nb (two locks, ordered to avoid
                    // deadlock).
                    let (first, second) = if b < nb { (b, nb) } else { (nb, b) };
                    jt.lock(h.box_locks[first]);
                    jt.lock(h.box_locks[second]);
                    // Destination capacity check first: a molecule must never vanish
                    // from the membership, so a full destination cancels the move (it
                    // will be retried next round once space frees up).
                    let dest_full =
                        jt.read(h.boxes[nb], |d| d[0] as usize >= BOX_CAPACITY);
                    if !dest_full {
                        jt.write(h.boxes[b], |d| {
                            let count = d[0] as usize;
                            if let Some(pos) = (0..count).find(|&s| d[1 + s] as usize == m) {
                                d[1 + pos] = d[count]; // swap-remove
                                d[0] = count as f64 - 1.0;
                            }
                        });
                        jt.write(h.boxes[nb], |d| {
                            let count = d[0] as usize;
                            d[1 + count] = m as f64;
                            d[0] = count as f64 + 1.0;
                        });
                        let refs: Vec<ObjectId> =
                            jt.gos().object_ref(h.boxes[b]).with_refs(|refs| {
                                refs.iter().copied().filter(|&r| r != h.molecules[m]).collect()
                            });
                        jt.set_refs(h.boxes[b], refs);
                        jt.add_ref(h.boxes[nb], h.molecules[m]);
                    }
                    jt.unlock(h.box_locks[second]);
                    jt.unlock(h.box_locks[first]);
                }
            }
        }
        jt.barrier();
    }
    jt.pop_frame();
}

/// Total kinetic energy (diagnostic).
pub fn kinetic_energy(jt: &mut JThread, h: &WaterHandles) -> f64 {
    let mut e = 0.0;
    for &m in &h.molecules {
        e += jt.read(m, |d| d[3] * d[3] + d[4] * d[4] + d[5] * d[5]);
    }
    0.5 * e
}

/// Run Water-Spatial on a prepared cluster.
pub fn run_on(cluster: &mut Cluster, cfg: WaterConfig) -> RunReport {
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

    fn cfg() -> WaterConfig {
        WaterConfig::small()
    }

    #[test]
    fn box_of_maps_positions_into_grid() {
        let c = cfg(); // k=2, box_len=2 → side 4
        assert_eq!(box_of(&c, &[0.1, 0.1, 0.1]), 0);
        assert_eq!(box_of(&c, &[3.9, 3.9, 3.9]), 7);
        assert_eq!(box_of(&c, &[3.0, 0.5, 0.5]), 4);
        // Out-of-range positions clamp to the walls.
        assert_eq!(box_of(&c, &[-1.0, 0.0, 5.0]), 1);
    }

    #[test]
    fn boxes_partition_across_threads() {
        let c = cfg();
        let mut covered: Vec<usize> = (0..2).flat_map(|t| boxes_of(&c, 2, t)).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..8).collect::<Vec<_>>());
        // Slab ownership: thread 0 gets the x=0 layer.
        assert_eq!(boxes_of(&c, 2, 0), vec![0, 1, 2, 3]);
    }

    #[test]
    fn neighbours_are_clipped_at_walls() {
        let c = cfg(); // 2x2x2
        let n = neighbours(&c, 0);
        assert_eq!(n.len(), 8, "corner box sees the whole 2³ grid");
        let c4 = WaterConfig {
            k: 4,
            ..cfg()
        };
        assert_eq!(neighbours(&c4, 21).len(), 27, "interior box sees 3³");
    }

    #[test]
    fn pair_force_is_antisymmetric_and_cut() {
        let a = [0.0, 0.0, 0.0];
        let b = [1.2, 0.0, 0.0];
        let f_ab = pair_force(&a, &b, 1.8);
        let f_ba = pair_force(&b, &a, 1.8);
        assert!((f_ab[0] + f_ba[0]).abs() < 1e-12);
        assert!(f_ab[0].abs() > 0.0);
        assert_eq!(pair_force(&a, &[5.0, 0.0, 0.0], 1.8), [0.0; 3]);
        assert_eq!(pair_force(&a, &a, 1.8), [0.0; 3], "self-force guard");
    }
}
