//! Barnes-Hut — hierarchical N-body simulation (Table I row 2).
//!
//! 4K bodies of < 100 bytes each (the paper's fine-grained workload), arranged as
//! **two galaxies** — the Fig. 1 setup: each thread simulates a contiguous chunk of
//! bodies, so threads of the same galaxy exhibit high mutual data locality (they read
//! each other's bodies and their galaxy's subtree) while cross-galaxy interactions
//! collapse into a single far-away cell. This is precisely the inherent block
//! structure that page-grain tracking blurs.
//!
//! Each round: thread 0 rebuilds the shared octree (cells are GOS objects whose
//! reference fields form the tree), everyone synchronizes, every thread computes
//! forces for its chunk by traversing the tree with the opening-angle criterion, and
//! finally integrates its own bodies.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use jessy_gos::{ClassId, ObjectId};
use jessy_net::NodeId;
use jessy_runtime::{Cluster, InitCtx, JThread, RunReport};
use jessy_stack::MethodId;

/// Barnes-Hut parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BhConfig {
    /// Number of bodies (split evenly between two galaxies).
    pub n_bodies: usize,
    /// Simulation rounds.
    pub rounds: usize,
    /// Opening angle θ: a cell of size `s` at distance `d` is used whole if `s/d < θ`.
    pub theta: f64,
    /// Time step.
    pub dt: f64,
    /// RNG seed for the initial distribution.
    pub seed: u64,
}

impl BhConfig {
    /// The paper's problem size: 4K bodies, 5 rounds.
    pub fn paper() -> Self {
        BhConfig {
            n_bodies: 4096,
            rounds: 5,
            theta: 0.7,
            dt: 0.025,
            seed: 42,
        }
    }

    /// Scaled-down size for tests and quick benches.
    pub fn small() -> Self {
        BhConfig {
            n_bodies: 256,
            rounds: 3,
            theta: 0.8,
            dt: 0.025,
            seed: 42,
        }
    }
}

/// Body payload layout: `[mass, x, y, z, vx, vy, vz, pad]` — 8 words, 64 bytes.
pub const BODY_WORDS: u32 = 8;
/// Cell payload layout: `[mass, comx, comy, comz, cx, cy, cz, half]`.
pub const CELL_WORDS: u32 = 8;

/// Shared handles produced by [`setup`].
#[derive(Debug, Clone)]
pub struct BhHandles {
    /// Body objects, chunked per thread.
    pub bodies: Vec<ObjectId>,
    /// The space root object; its first ref is the current tree root cell.
    pub space: ObjectId,
    /// Class of bodies.
    pub body_class: ClassId,
    /// Class of tree cells.
    pub cell_class: ClassId,
    /// Worker method id (`bh.simulate`, the long-lived bottom frame).
    pub method: MethodId,
    /// Per-phase method id (`bh.computeForces`, a medium-lived frame).
    pub force_method: MethodId,
    /// Per-phase method id (`bh.integrate`, a short-lived frame).
    pub integrate_method: MethodId,
}

/// Bodies of thread `t` under block distribution.
pub fn bodies_of(n_bodies: usize, n_threads: usize, t: usize) -> std::ops::Range<usize> {
    let per = n_bodies.div_ceil(n_threads);
    (t * per).min(n_bodies)..((t + 1) * per).min(n_bodies)
}

/// Register classes and allocate the two-galaxy body population, each chunk homed at
/// its owner thread's node.
pub fn setup(ctx: &mut InitCtx<'_>, cfg: &BhConfig, n_threads: usize, n_nodes: usize) -> BhHandles {
    let body_class = ctx.register_scalar_class("Body", BODY_WORDS);
    let cell_class = ctx.register_scalar_class("Cell", CELL_WORDS);
    let space_class = ctx.register_scalar_class("Space", 2);
    let method = ctx.register_method("bh.simulate", 6);
    let _force_method = ctx.register_method("bh.computeForces", 4);
    let _integrate_method = ctx.register_method("bh.integrate", 3);

    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut bodies = Vec::with_capacity(cfg.n_bodies);
    for i in 0..cfg.n_bodies {
        // Two galaxies: unit spheres centred at ±6 on x.
        let centre = if i < cfg.n_bodies / 2 { -6.0 } else { 6.0 };
        let pos = loop {
            let p = [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ];
            if p.iter().map(|v: &f64| v * v).sum::<f64>() <= 1.0 {
                break p;
            }
        };
        let init = [
            // Normalize total mass to ~2 (1 per galaxy) so accelerations stay O(1)
            // and the two-galaxy structure survives the full run.
            2.0 / cfg.n_bodies as f64,
            centre + pos[0],
            pos[1],
            pos[2],
            0.0,
            0.0,
            0.0,
            0.0,
        ];
        let owner = (0..n_threads)
            .find(|&t| bodies_of(cfg.n_bodies, n_threads, t).contains(&i))
            .unwrap_or(0);
        let node = NodeId((owner * n_nodes / n_threads) as u16);
        bodies.push(ctx.alloc_scalar_init(node, body_class, &init).id);
    }
    let space = ctx.alloc_scalar_at(NodeId(0), space_class).id;
    BhHandles {
        bodies,
        space,
        body_class,
        cell_class,
        method,
        force_method: _force_method,
        integrate_method: _integrate_method,
    }
}

// ---------------------------------------------------------------- tree building

#[derive(Debug)]
enum BuildNode {
    Leaf(usize),            // index into the snapshot
    Internal(Box<[Option<BuildNode>; 8]>, f64, [f64; 3], f64), // children, mass, com*mass, half
}

fn octant(centre: &[f64; 3], p: &[f64; 3]) -> usize {
    (usize::from(p[0] > centre[0]) << 2)
        | (usize::from(p[1] > centre[1]) << 1)
        | usize::from(p[2] > centre[2])
}

fn child_centre(centre: &[f64; 3], half: f64, oct: usize) -> [f64; 3] {
    let h = half / 2.0;
    [
        centre[0] + if oct & 4 != 0 { h } else { -h },
        centre[1] + if oct & 2 != 0 { h } else { -h },
        centre[2] + if oct & 1 != 0 { h } else { -h },
    ]
}

fn insert(
    node: &mut Option<BuildNode>,
    idx: usize,
    snapshot: &[(f64, [f64; 3])],
    centre: [f64; 3],
    half: f64,
    depth: usize,
) {
    match node.take() {
        None => *node = Some(BuildNode::Leaf(idx)),
        Some(BuildNode::Leaf(other)) => {
            if depth > 64 {
                // Degenerate coincident points: keep one leaf (mass merged at read).
                *node = Some(BuildNode::Leaf(other));
                return;
            }
            let mut internal = BuildNode::Internal(
                Box::new([const { None }; 8]),
                0.0,
                [0.0; 3],
                half,
            );
            if let BuildNode::Internal(children, ..) = &mut internal {
                for &i in &[other, idx] {
                    let oct = octant(&centre, &snapshot[i].1);
                    insert(
                        &mut children[oct],
                        i,
                        snapshot,
                        child_centre(&centre, half, oct),
                        half / 2.0,
                        depth + 1,
                    );
                }
            }
            *node = Some(internal);
        }
        Some(BuildNode::Internal(mut children, m, com, h)) => {
            let oct = octant(&centre, &snapshot[idx].1);
            insert(
                &mut children[oct],
                idx,
                snapshot,
                child_centre(&centre, half, oct),
                half / 2.0,
                depth + 1,
            );
            *node = Some(BuildNode::Internal(children, m, com, h));
        }
    }
}

/// Materialize the build tree into GOS cell objects; returns the root id and the cell
/// count. Leaves are the body objects themselves.
fn materialize(
    jt: &mut JThread,
    node: &BuildNode,
    snapshot: &[(f64, [f64; 3])],
    h: &BhHandles,
    centre: [f64; 3],
    half: f64,
    cells: &mut usize,
) -> (ObjectId, f64, [f64; 3]) {
    match node {
        BuildNode::Leaf(i) => {
            let (m, p) = snapshot[*i];
            (h.bodies[*i], m, p)
        }
        BuildNode::Internal(children, ..) => {
            let mut mass = 0.0;
            let mut com = [0.0f64; 3];
            let mut child_ids = Vec::new();
            for (oct, child) in children.iter().enumerate() {
                if let Some(c) = child {
                    let (id, m, p) = materialize(
                        jt,
                        c,
                        snapshot,
                        h,
                        child_centre(&centre, half, oct),
                        half / 2.0,
                        cells,
                    );
                    mass += m;
                    for k in 0..3 {
                        com[k] += m * p[k];
                    }
                    child_ids.push(id);
                }
            }
            if mass > 0.0 {
                for c in &mut com {
                    *c /= mass;
                }
            }
            let cell = jt.alloc_scalar(h.cell_class);
            *cells += 1;
            jt.write(cell.id, |d| {
                d[0] = mass;
                d[1] = com[0];
                d[2] = com[1];
                d[3] = com[2];
                d[4] = centre[0];
                d[5] = centre[1];
                d[6] = centre[2];
                d[7] = half;
            });
            jt.set_refs(cell.id, child_ids);
            (cell.id, mass, com)
        }
    }
}

/// Build this round's tree (thread 0 only); hangs the new root off the space object.
/// Returns the number of cells created.
pub fn build_tree(jt: &mut JThread, _cfg: &BhConfig, h: &BhHandles) -> usize {
    // Snapshot every body's (mass, position) through the GOS.
    let snapshot: Vec<(f64, [f64; 3])> = h
        .bodies
        .iter()
        .map(|&b| jt.read(b, |d| (d[0], [d[1], d[2], d[3]])))
        .collect();
    // Bounding cube.
    let mut maxc = 1.0f64;
    for (_, p) in &snapshot {
        for v in p {
            maxc = maxc.max(v.abs());
        }
    }
    let half = maxc * 1.1;
    let mut root: Option<BuildNode> = None;
    for i in 0..snapshot.len() {
        insert(&mut root, i, &snapshot, [0.0; 3], half, 0);
        jt.compute(50);
    }
    let mut cells = 0;
    if let Some(root) = &root {
        let (root_id, _, _) = materialize(jt, root, &snapshot, h, [0.0; 3], half, &mut cells);
        jt.set_refs(h.space, vec![root_id]);
        jt.write(h.space, |d| d[0] += 1.0); // bump tree generation
    }
    cells
}

/// Compute the force on a body at `pos` by traversing the tree from the space root.
pub fn force_on(jt: &mut JThread, h: &BhHandles, own: ObjectId, pos: [f64; 3], theta: f64) -> [f64; 3] {
    const EPS2: f64 = 1e-4;
    let mut force = [0.0f64; 3];
    // Depth-first: at most 7 siblings wait per level, so 64 covers 9 levels.
    let mut stack: Vec<ObjectId> = Vec::with_capacity(64);
    jt.gos().object_ref(h.space).with_refs(|roots| stack.extend_from_slice(roots));
    while let Some(id) = stack.pop() {
        if id == own {
            continue;
        }
        let is_cell = jt.gos().object_ref(id).class == h.cell_class;
        let (mass, p, half) = jt.read(id, |d| (d[0], [d[1], d[2], d[3]], if is_cell { d[7] } else { 0.0 }));
        let dx = [p[0] - pos[0], p[1] - pos[1], p[2] - pos[2]];
        let d2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2] + EPS2;
        let dist = d2.sqrt();
        if is_cell && (2.0 * half) / dist >= theta {
            // Too close to approximate: descend.
            jt.gos().object_ref(id).with_refs(|children| stack.extend_from_slice(children));
            continue;
        }
        if mass == 0.0 {
            continue;
        }
        let f = mass / (d2 * dist);
        for k in 0..3 {
            force[k] += f * dx[k];
        }
        // A tree-node visit in the paper's Kaffe-based system costs microseconds
        // (bytecode-level execution + per-access DSM checks); charge accordingly so
        // the profiling-to-compute ratios land in the paper's regime.
        jt.compute(200);
    }
    force
}

/// The per-thread body: `cfg.rounds` of build → force → integrate.
pub fn thread_body(jt: &mut JThread, cfg: &BhConfig, h: &BhHandles) {
    let t = jt.thread_id().index();
    let n_threads = jt.shared().n_threads;
    let mine = bodies_of(cfg.n_bodies, n_threads, t);
    jt.push_frame(h.method);
    jt.set_local_ref(0, h.space);
    if let Some(&first) = h.bodies.get(mine.start) {
        jt.set_local_ref(1, first);
    }

    for _round in 0..cfg.rounds {
        // Round boundary: non-builder threads yield while thread 0 builds.
        jt.yield_now();
        if t == 0 {
            build_tree(jt, cfg, h);
        }
        jt.barrier(); // tree ready

        // Force phase: read-only traversals, under a phase frame whose locals hold
        // the space root (a stack invariant) and the body being processed (varying).
        jt.push_frame(h.force_method);
        jt.set_local_ref(0, h.space);
        let mut forces = Vec::with_capacity(mine.len());
        for i in mine.clone() {
            jt.set_local_ref(1, h.bodies[i]);
            let pos = jt.read(h.bodies[i], |d| [d[1], d[2], d[3]]);
            forces.push(force_on(jt, h, h.bodies[i], pos, cfg.theta));
        }
        jt.pop_frame();
        jt.barrier(); // all forces computed before anyone moves

        // Integrate own bodies under a short-lived phase frame.
        jt.push_frame(h.integrate_method);
        for (k, i) in mine.clone().enumerate() {
            let f = forces[k];
            jt.write(h.bodies[i], |d| {
                // force_on returns acceleration (sum of m_j * dx / d^3, G = 1).
                for c in 0..3 {
                    d[4 + c] += cfg.dt * f[c];
                    d[1 + c] += cfg.dt * d[4 + c];
                }
            });
            jt.compute(30);
        }
        jt.pop_frame();
        jt.barrier();
    }
    jt.pop_frame();
}

/// Total momentum magnitude (diagnostic; near-conserved for symmetric interactions).
pub fn total_momentum(jt: &mut JThread, h: &BhHandles) -> [f64; 3] {
    let mut p = [0.0f64; 3];
    for &b in &h.bodies {
        let (m, v) = jt.read(b, |d| (d[0], [d[4], d[5], d[6]]));
        for k in 0..3 {
            p[k] += m * v[k];
        }
    }
    p
}

/// Run Barnes-Hut on a prepared cluster.
pub fn run_on(cluster: &mut Cluster, cfg: BhConfig) -> RunReport {
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
    fn octant_and_child_centre_are_consistent() {
        let c = [0.0, 0.0, 0.0];
        let p = [1.0, -1.0, 1.0];
        let oct = octant(&c, &p);
        assert_eq!(oct, 0b101);
        let cc = child_centre(&c, 2.0, oct);
        assert_eq!(cc, [1.0, -1.0, 1.0]);
        // The point is inside its child octant.
        assert_eq!(octant(&cc, &p), octant(&cc, &p));
    }

    #[test]
    fn bodies_of_partitions_exactly() {
        let covered: Vec<usize> = (0..5).flat_map(|t| bodies_of(17, 5, t)).collect();
        assert_eq!(covered, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn insert_builds_a_tree_over_coincident_points() {
        // Degenerate input must not recurse forever.
        let snapshot = vec![(1.0, [0.1, 0.1, 0.1]); 4];
        let mut root = None;
        for i in 0..4 {
            insert(&mut root, i, &snapshot, [0.0; 3], 1.0, 0);
        }
        assert!(root.is_some());
    }
}
