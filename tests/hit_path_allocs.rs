//! The access hit path allocates nothing — for objects allocated mid-run too,
//! and for a group access whose members are all hits (an interior SOR row).
//!
//! Barnes-Hut rebuilds its tree every round, so most of what its force phase
//! visits was allocated after the run started. A visit is `Gos::object_ref`
//! (class test), `JThread::read` (a cache hit, or a quiet home hit on an
//! object the thread allocated itself) and `ObjectCore::with_refs` (the
//! descent): none of them may reach the allocator, whenever the object was
//! allocated.
//!
//! That the lookups still find the *same* objects needs no test of its own:
//! a Barnes-Hut `small` run's forces, journal and report are pinned by the
//! digests in `tests/schedule_identity.rs` and by `tests/determinism.rs`,
//! which pass unchanged over the append-only object table.
//!
//! The same allocator also records the largest single request, for a promise
//! about size, not count: the round close accrues straight into the cumulative
//! map and keeps its per-class scratch across rounds, so a steady-state close
//! never asks for a second dense N×N triangle.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use jessy::prelude::*;

thread_local! {
    /// Heap allocations (including growing reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// The largest single request (bytes) this thread has made.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting each thread's allocations.
struct Counting;

fn count_one(bytes: usize) {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are `const`-initialized
// thread-local `Cell`s with no destructor, so touching them neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One `force_on`-style descent from `root`: class test through the borrowed
/// lookup, payload read through the access path, children through `with_refs`.
/// Returns the nodes visited.
fn descend(jt: &mut JThread, root: ObjectId, cell_class: ClassId, stack: &mut Vec<ObjectId>) -> usize {
    let mut visited = 0;
    stack.push(root);
    while let Some(id) = stack.pop() {
        visited += 1;
        let is_cell = jt.gos().object_ref(id).class == cell_class;
        let mass = jt.read(id, |d| d[0]);
        assert_eq!(mass, if is_cell { 2.0 } else { 1.0 });
        if is_cell {
            jt.gos().object_ref(id).with_refs(|children| stack.extend_from_slice(children));
        }
    }
    visited
}

#[test]
fn hits_and_descents_over_mid_run_objects_allocate_nothing() {
    const FANOUT: usize = 8;
    const OWN: usize = 64;
    const READS: usize = 10_000;

    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(2)
        .profiler(ProfilerConfig::tracking_at(SamplingRate::NX(1)))
        .build();
    const SETUP: usize = 40;
    let (cell_class, leaf_class) = cluster.init(|ctx| {
        let classes = (ctx.register_scalar_class("Cell", 8), ctx.register_scalar_class("Leaf", 8));
        // A set-up batch, so that everything the run allocates lands after it.
        for _ in 0..SETUP {
            ctx.alloc_scalar_at(NodeId(0), classes.1);
        }
        classes
    });
    let tree_root = Arc::new(OnceLock::new());

    cluster.run(move |jt| {
        if jt.thread_id().0 == 1 {
            // The builder, on node 1: a root cell over FANOUT cells over
            // FANOUT leaves each, all allocated now that the run is under way.
            let mut cells = Vec::new();
            for _ in 0..FANOUT {
                let leaves: Vec<ObjectId> = (0..FANOUT)
                    .map(|_| {
                        let leaf = jt.alloc_scalar(leaf_class).id;
                        jt.write(leaf, |d| d[0] = 1.0);
                        leaf
                    })
                    .collect();
                let cell = jt.alloc_scalar(cell_class).id;
                jt.write(cell, |d| d[0] = 2.0);
                jt.set_refs(cell, leaves);
                cells.push(cell);
            }
            let root = jt.alloc_scalar(cell_class).id;
            jt.write(root, |d| d[0] = 2.0);
            jt.set_refs(root, cells);
            tree_root.set(root).expect("built once");
            jt.barrier();
            jt.barrier();
            return;
        }

        // The reader, on node 0: objects of its own (quiet home hits) and,
        // once the barrier has ordered it after the builder, cache copies of
        // the tree.
        let own: Vec<ObjectId> = (0..OWN).map(|_| jt.alloc_scalar(leaf_class).id).collect();
        jt.barrier();
        let root = *tree_root.get().expect("the barrier orders the build first");
        assert!(root.index() >= SETUP && own[0].index() >= SETUP, "allocated mid-run");

        // Warm-up: first touches, faults and this interval's traps fire here.
        let mut stack = Vec::with_capacity(2 * FANOUT);
        for _ in 0..2 {
            for &obj in &own {
                jt.write(obj, |d| d[0] = 1.0);
            }
            assert_eq!(descend(jt, root, cell_class, &mut stack), 1 + FANOUT + FANOUT * FANOUT);
        }
        assert_eq!(jt.space().access_state(own[0]), Some(AccessState::Home));
        assert_eq!(jt.space().access_state(root), Some(AccessState::Valid));

        let faults_before = jt.gos().proto_counters();
        let allocations_before = allocations();
        let mut reads = 0;
        while reads < READS {
            for &obj in &own {
                assert_eq!(jt.read(obj, |d| d[0]), 1.0);
            }
            reads += own.len() + descend(jt, root, cell_class, &mut stack);
        }
        let allocated = allocations() - allocations_before;
        let faults_after = jt.gos().proto_counters();

        assert_eq!(allocated, 0, "{reads} hits over mid-run objects reached the allocator");
        assert_eq!(
            (faults_after.real_faults, faults_after.false_invalid_faults),
            (faults_before.real_faults, faults_before.false_invalid_faults),
            "the measured reads were all hits"
        );
        jt.barrier();
    });
}

/// SOR's row update reads the rows above and below in place
/// (`JThread::update`). On an interior row of a thread's block all three rows
/// are home entries only that thread holds, so no scheduling point falls
/// inside the group, nothing is copied and nothing reaches the allocator.
#[test]
fn an_interior_sor_row_update_allocates_nothing() {
    use jessy::workloads::sor::{self, SorConfig};

    const SWEEPS: usize = 50;
    const NODES: usize = 2;
    const THREADS: usize = 2;
    let cfg = SorConfig::small();
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .profiler(ProfilerConfig::tracking_at(SamplingRate::Full))
        .build();
    let h = Arc::new(cluster.init(|ctx| sor::setup(ctx, &cfg, THREADS, NODES)));
    cluster.run(move |jt| {
        let rows = sor::rows_of(&cfg, THREADS, jt.thread_id().index());
        // Rows whose neighbours are in the block too, and are not the block's
        // boundary rows (the neighbouring thread reads those).
        let interior = rows.start + 1..rows.end - 2;
        assert!(interior.len() >= 16, "{interior:?}");
        // Warm-up: first touches and this interval's traps fire here.
        for i in interior.clone() {
            sor::update_row(jt, &cfg, &h, i, 0);
        }
        let faults_before = jt.gos().proto_counters();
        let allocations_before = allocations();
        for sweep in 0..SWEEPS {
            for i in interior.clone() {
                sor::update_row(jt, &cfg, &h, i, sweep % 2);
            }
        }
        let allocated = allocations() - allocations_before;
        let faults_after = jt.gos().proto_counters();
        assert_eq!(
            allocated,
            0,
            "{} interior row updates reached the allocator",
            SWEEPS * interior.len()
        );
        assert_eq!(
            (faults_after.real_faults, faults_after.false_invalid_faults),
            (faults_before.real_faults, faults_before.false_invalid_faults),
            "the measured groups were all hits"
        );
        jt.barrier();
    });
}

/// One round of `n` threads: neighbouring threads share an object; every
/// eighth object is shared by a whole block of 64.
fn neighbour_round(n: usize) -> Vec<jessy::core::Oal> {
    use jessy::core::{Oal, OalEntry};
    (0..n as u32)
        .map(|t| Oal {
            thread: ThreadId(t),
            interval: 0,
            entries: [t / 2, n as u32 + t / 64]
                .into_iter()
                .map(|obj| OalEntry { obj: ObjectId(obj), class: ClassId(0), bytes: 64 })
                .collect(),
        })
        .collect()
}

/// `Vec`'s `vec![0.0; n]` goes through `alloc_zeroed`, whose default forwards
/// to `alloc` above — so a dense `Tcm::new(N)` shows up in `LARGEST`.
#[test]
fn a_steady_state_round_close_never_asks_for_the_dense_triangle() {
    use jessy::core::TcmBuilder;

    const N: usize = 2048;
    let triangle_bytes = N * (N - 1) / 2 * std::mem::size_of::<f64>(); // 16.8 MB
    let oals = neighbour_round(N);
    let mut builder = TcmBuilder::new(N);
    let round = |builder: &mut TcmBuilder| {
        for oal in &oals {
            builder.ingest(oal);
        }
        builder.close_round()
    };
    // The warm-up round sizes the per-class scratch, which is kept.
    round(&mut builder);
    LARGEST.with(|m| m.set(0));
    for _ in 0..3 {
        assert_eq!(round(&mut builder).objects, N / 2 + N / 64);
    }
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest < triangle_bytes / 4,
        "three steady-state round closes asked for {largest} B at once; \
         the dense triangle is {triangle_bytes} B"
    );
    assert!(builder.tcm().total() > 0.0);
}
