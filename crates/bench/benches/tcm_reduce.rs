//! X3 — TCM round-close reduction throughput (the coordinator hot loop).
//!
//! Sweeps thread count N × object population M and measures steady-state
//! round-close throughput of the seed's scalar builder (`tcm::reference`,
//! per-object `Vec<ThreadId>` + dense N×N maps rebuilt every round) against the
//! bitset/triangular pipeline (`TcmBuilder`: per-object thread bitsets, packed
//! upper-triangular accrual, sparse per-class maps, capacity retained across
//! rounds). Every variant must be bit-identical to the scalar reference.
//!
//! Two lanes:
//! - **X3** — the seed comparison: scalar reference vs bitset/triangular
//!   builder at N∈{16,64,256}, bit-identical.
//! - **X3b** — production scale: master-side round-close cost of the flat
//!   coordinator (all per-thread OALs ingested and closed at the master) vs the
//!   fabric aggregation tree (master merges ≤fanout subtree partials and folds
//!   the root) at N∈{1024,4096}. The scalar oracle is skipped here — its dense
//!   per-round maps make it intractable at these sizes; bit-identity is checked
//!   against the bitset builder instead.
//!
//! Modes:
//! - default (`cargo bench --bench tcm_reduce`): full sweeps, writes
//!   `BENCH_tcm_reduce.json` at the repo root and asserts the acceptance bars
//!   (≥3× close speedup at N=256/M=10⁶, ≥5× master round-close speedup for the
//!   tree at N=4096).
//! - `JESSY_SCALE=small`: smoke sweep (seconds, CI-friendly) — prints the
//!   tables, checks exactness including the N=1024 tree lane, does not touch
//!   the checked-in JSON.

use std::time::Instant;

use jessy_bench::TextTable;
use serde::Serialize;
use jessy_core::distributed::TreeTcmReducer;
use jessy_core::oal::{Oal, OalEntry};
use jessy_core::tcm::reference::ScalarTcmBuilder;
use jessy_core::{Tcm, TcmBuilder};
use jessy_gos::{ClassId, ObjectId};
use jessy_net::ThreadId;

/// Deterministic splitmix64 (no rand dependency in benches).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

const CLASSES: u64 = 4;

/// Synthesize one round's OAL stream: `m` objects over `n` threads, one OAL per
/// thread. Sharer degrees are mixed — most objects are shared by 2–12 threads,
/// ~6% are "hot" (32–47 sharers) — so the pair loop sees both short and long
/// bitset runs. `n` must be a power of two (odd strides enumerate distinct
/// threads mod n).
fn synth(n: usize, m: usize) -> Vec<Oal> {
    assert!(n.is_power_of_two(), "sweep uses power-of-two thread counts");
    let mut entries: Vec<Vec<OalEntry>> = vec![Vec::new(); n];
    for o in 0..m {
        let h = mix(o as u64);
        let deg = if h % 100 < 6 {
            32 + (h >> 8) as usize % 16
        } else {
            2 + (h >> 8) as usize % 11
        }
        .min(n);
        let start = (h >> 24) as usize % n;
        let stride = (((h >> 40) as usize % n) | 1) % n.max(1);
        let entry = OalEntry {
            obj: ObjectId(o as u32),
            class: ClassId((h % CLASSES) as u16),
            bytes: 64 + (h >> 16) % 4096,
        };
        for i in 0..deg {
            let t = (start + i * stride) % n;
            entries[t].push(entry);
        }
    }
    entries
        .into_iter()
        .enumerate()
        .map(|(t, es)| Oal {
            thread: ThreadId(t as u32),
            interval: 0,
            entries: es,
        })
        .collect()
}

/// Production-shaped sharing for the tree lane: each object is shared by a
/// contiguous window of threads (neighbour exchange, SOR-style), with ~6% "hot"
/// wide windows. Pair cells concentrate on small thread offsets, so a round's
/// sparse footprint is O(N·window) rather than O(N²) — the regime the
/// aggregation tree is built for. Single-class on purpose: the per-class
/// machinery is exercised by X3, and dense per-class scratch at N=4096 costs
/// 67 MB per class in *both* lanes without changing the comparison.
fn synth_windowed(n: usize, m: usize) -> Vec<Oal> {
    let mut entries: Vec<Vec<OalEntry>> = vec![Vec::new(); n];
    for o in 0..m {
        let h = mix(0x57AB_1E00 ^ o as u64);
        let deg = if h % 100 < 6 {
            16 + (h >> 8) as usize % 8
        } else {
            2 + (h >> 8) as usize % 7
        }
        .min(n);
        let start = (h >> 24) as usize % n;
        let entry = OalEntry {
            obj: ObjectId(o as u32),
            class: ClassId(0),
            bytes: 64 + (h >> 16) % 4096,
        };
        for i in 0..deg {
            entries[(start + i) % n].push(entry);
        }
    }
    entries
        .into_iter()
        .enumerate()
        .map(|(t, es)| Oal {
            thread: ThreadId(t as u32),
            interval: 0,
            entries: es,
        })
        .collect()
}

/// The emitted `BENCH_tcm_reduce.json` document.
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    results: Vec<CellReport>,
    tree: Vec<TreeCellReport>,
    acceptance: Acceptance,
    tree_acceptance: TreeAcceptance,
}

#[derive(Serialize)]
struct CellReport {
    threads: usize,
    objects: usize,
    rounds: usize,
    entries_per_round: usize,
    scalar_ingest_ns: u64,
    scalar_close_ns: u64,
    bitset_ingest_ns: u64,
    bitset_close_ns: u64,
    close_speedup: f64,
    bitset_close_mobj_per_s: f64,
    scalar_close_mobj_per_s: f64,
    identical: bool,
}

#[derive(Serialize)]
struct Acceptance {
    threads: usize,
    objects: usize,
    required_close_speedup: f64,
    measured_close_speedup: f64,
    pass: bool,
}

#[derive(Serialize)]
struct TreeCellReport {
    threads: usize,
    objects: usize,
    rounds: usize,
    nodes: usize,
    fanout: usize,
    entries_per_round: usize,
    flat_master_ns: u64,
    tree_master_ns: u64,
    master_speedup: f64,
    oal_wire_bytes_per_round: u64,
    master_ingress_bytes_per_round: u64,
    partial_bytes_per_round: u64,
    shuffle_bytes_per_round: u64,
    master_partials: u64,
    identical: bool,
}

#[derive(Serialize)]
struct TreeAcceptance {
    threads: usize,
    objects: usize,
    nodes: usize,
    fanout: usize,
    required_master_speedup: f64,
    measured_master_speedup: f64,
    pass: bool,
}

/// Per-(N, M) measurement at steady state.
struct Cell {
    n: usize,
    m: usize,
    rounds: usize,
    entries: usize,
    scalar_ingest_ns: u128,
    scalar_close_ns: u128,
    bitset_ingest_ns: u128,
    bitset_close_ns: u128,
    identical: bool,
}

impl Cell {
    /// Round-close speedup over the seed scalar builder (the acceptance metric).
    fn close_speedup(&self) -> f64 {
        self.scalar_close_ns as f64 / self.bitset_close_ns.max(1) as f64
    }
    /// Objects retired per second of close time, in millions.
    fn close_mobj_s(&self, close_ns: u128) -> f64 {
        (self.m * self.rounds) as f64 / (close_ns.max(1) as f64 / 1e9) / 1e6
    }
}

/// Run `rounds` steady-state rounds (after one warmup round) through `ingest`
/// and `close`, timing each phase separately.
fn steady_state<B>(
    oals: &mut [Oal],
    rounds: usize,
    b: &mut B,
    ingest: impl Fn(&mut B, &Oal),
    close: impl Fn(&mut B),
) -> (u128, u128) {
    // Warmup: populates builder capacity so timed rounds see the steady state.
    for o in oals.iter() {
        ingest(b, o);
    }
    close(b);
    let (mut ingest_ns, mut close_ns) = (0u128, 0u128);
    for r in 1..=rounds {
        for o in oals.iter_mut() {
            o.interval = r as u64;
        }
        let t0 = Instant::now();
        for o in oals.iter() {
            ingest(b, o);
        }
        ingest_ns += t0.elapsed().as_nanos();
        let t1 = Instant::now();
        close(b);
        close_ns += t1.elapsed().as_nanos();
    }
    (ingest_ns, close_ns)
}

fn measure(n: usize, m: usize, rounds: usize) -> Cell {
    let mut oals = synth(n, m);
    let entries = oals.iter().map(|o| o.entries.len()).sum::<usize>();

    let mut scalar = ScalarTcmBuilder::new(n);
    let (scalar_ingest_ns, scalar_close_ns) = steady_state(
        &mut oals,
        rounds,
        &mut scalar,
        |b, o| b.ingest(o),
        |b| {
            std::hint::black_box(b.close_round());
        },
    );

    let mut bitset = TcmBuilder::new(n);
    let (bitset_ingest_ns, bitset_close_ns) = steady_state(
        &mut oals,
        rounds,
        &mut bitset,
        |b, o| b.ingest(o),
        |b| {
            std::hint::black_box(b.close_round());
        },
    );

    // Bit-identity of the cumulative maps: scalar reference vs bitset.
    let mut identical = true;
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            let (a, b) = (ThreadId(i), ThreadId(j));
            identical &= scalar.tcm().at(a, b).to_bits() == bitset.tcm().at(a, b).to_bits();
        }
    }

    Cell {
        n,
        m,
        rounds,
        entries,
        scalar_ingest_ns,
        scalar_close_ns,
        bitset_ingest_ns,
        bitset_close_ns,
        identical,
    }
}

/// Per-(N, nodes, fanout) production-scale measurement.
struct TreeCell {
    n: usize,
    m: usize,
    rounds: usize,
    nodes: usize,
    fanout: usize,
    entries: usize,
    /// Flat coordinator: ingest of every per-thread OAL + round close, on the master.
    flat_master_ns: u128,
    /// Tree: merge of the ≤fanout subtree roots + cumulative fold, on the master.
    tree_master_ns: u128,
    /// What the flat path ships to the master, per round.
    oal_wire_bytes: u64,
    /// Everything converging on node 0's link in tree mode, per round (its
    /// shuffle-in share + subtree-child partials + root-hop partials).
    ingress_bytes: u64,
    /// Partial-TCM tree hops, per round (modeled, all edges).
    partial_bytes: u64,
    /// Leaf→owner shuffle hops, per round (modeled).
    shuffle_bytes: u64,
    master_partials: u64,
    identical: bool,
}

impl TreeCell {
    fn master_speedup(&self) -> f64 {
        self.flat_master_ns as f64 / self.tree_master_ns.max(1) as f64
    }
}

/// Measure the master-side round-close cost at production scale: flat
/// coordinator (every OAL crosses the fabric and the master both ingests and
/// closes) vs aggregation tree (leaves pre-reduce, owners accrue and subtrees
/// merge on worker nodes — untimed here; the master's share is merging the
/// subtree roots and folding the result into the cumulative maps).
fn measure_tree(n: usize, m: usize, rounds: usize, nodes: usize, fanout: usize) -> TreeCell {
    assert_eq!(n % nodes, 0, "threads place evenly across nodes");
    let tpn = n / nodes;
    let mut oals = synth_windowed(n, m);
    let entries = oals.iter().map(|o| o.entries.len()).sum::<usize>();
    let oal_wire_bytes = oals.iter().map(|o| o.wire_bytes() as u64).sum::<u64>();

    let mut flat = TcmBuilder::new(n);
    let (flat_ingest_ns, flat_close_ns) = steady_state(
        &mut oals,
        rounds,
        &mut flat,
        |b, o| b.ingest(o),
        |b| {
            std::hint::black_box(b.close_round());
        },
    );

    let mut tree = TreeTcmReducer::new(n, nodes, fanout);
    // The master's dense cumulative map (what `Reducer` folds tree roots into).
    let mut tree_cum = Tcm::new(n);
    let ingest_all = |tree: &mut TreeTcmReducer, oals: &[Oal]| {
        for o in oals {
            tree.ingest(o.thread.index() / tpn, o);
        }
    };
    // Warmup round (mirrors `steady_state`): populates arena and scratch capacity.
    ingest_all(&mut tree, &oals);
    let (_, parts) = tree.close_round_subtrees();
    let warm_root = tree.merge_subtrees(parts);
    tree_cum.merge_sparse(&warm_root.pairs);

    let mut tree_master_ns = 0u128;
    let (mut ingress_bytes, mut partial_bytes, mut shuffle_bytes, mut master_partials) =
        (0u64, 0u64, 0u64, 0u64);
    for _ in 0..rounds {
        ingest_all(&mut tree, &oals);
        let (stats, parts) = tree.close_round_subtrees();
        ingress_bytes += stats
            .edges
            .iter()
            .filter(|e| e.to == 0 && e.from != 0)
            .map(|e| e.bytes)
            .sum::<u64>();
        partial_bytes += stats.partial_bytes;
        shuffle_bytes += stats.shuffle_bytes;
        master_partials = stats.master_partials;
        let t0 = Instant::now();
        let root = tree.merge_subtrees(parts);
        tree_cum.merge_sparse(&root.pairs);
        tree_master_ns += t0.elapsed().as_nanos();
        std::hint::black_box(root.objects);
    }

    // Both lanes folded warmup + `rounds` copies of the same round, so the
    // cumulative maps must agree bit for bit.
    let identical = flat
        .tcm()
        .raw()
        .iter()
        .zip(tree_cum.raw())
        .all(|(a, b)| a.to_bits() == b.to_bits());

    TreeCell {
        n,
        m,
        rounds,
        nodes,
        fanout,
        entries,
        flat_master_ns: flat_ingest_ns + flat_close_ns,
        tree_master_ns,
        oal_wire_bytes,
        ingress_bytes: ingress_bytes / rounds as u64,
        partial_bytes: partial_bytes / rounds as u64,
        shuffle_bytes: shuffle_bytes / rounds as u64,
        master_partials,
        identical,
    }
}

fn main() {
    let smoke = matches!(
        std::env::var("JESSY_SCALE").as_deref(),
        Ok("small") | Ok("SMALL")
    );
    println!("X3. TCM ROUND-CLOSE REDUCTION (bitset/triangular vs seed scalar)\n");

    // (n, m, timed rounds): fewer rounds at larger M keeps the full sweep tractable.
    let sweep: Vec<(usize, usize, usize)> = if smoke {
        vec![(16, 10_000, 2), (64, 10_000, 2)]
    } else {
        let mut s = Vec::new();
        for &n in &[16usize, 64, 256] {
            for &(m, r) in &[(10_000usize, 20usize), (100_000, 6), (1_000_000, 3)] {
                s.push((n, m, r));
            }
        }
        s
    };

    let mut table = TextTable::new(&[
        "threads",
        "objects",
        "entries/round",
        "scalar close (ms)",
        "bitset close (ms)",
        "close speedup",
        "bitset Mobj/s",
        "identical",
    ]);
    let mut cells = Vec::new();
    for (n, m, rounds) in sweep {
        let c = measure(n, m, rounds);
        table.row(&[
            c.n.to_string(),
            c.m.to_string(),
            c.entries.to_string(),
            format!("{:.2}", c.scalar_close_ns as f64 / 1e6 / c.rounds as f64),
            format!("{:.2}", c.bitset_close_ns as f64 / 1e6 / c.rounds as f64),
            format!("{:.2}x", c.close_speedup()),
            format!("{:.2}", c.close_mobj_s(c.bitset_close_ns)),
            c.identical.to_string(),
        ]);
        assert!(c.identical, "reduction must stay bit-identical to the scalar reference");
        cells.push(c);
    }
    println!("{}", table.render());
    println!("close speedup = scalar round-close time / bitset round-close time, steady");
    println!("state (warmup round excluded; ingest timed separately).");

    println!("\nX3b. PRODUCTION-SCALE TREE AGGREGATION (master-side round close)\n");
    // (n, m, rounds, nodes, fanout)
    let tree_sweep: Vec<(usize, usize, usize, usize, usize)> = if smoke {
        vec![(1024, 8_000, 1, 16, 4)]
    } else {
        vec![(1024, 200_000, 3, 32, 4), (4096, 600_000, 2, 64, 4)]
    };
    let mut ttable = TextTable::new(&[
        "threads",
        "nodes",
        "fanout",
        "objects",
        "entries/round",
        "flat master (ms)",
        "tree master (ms)",
        "speedup",
        "oal KB/round",
        "ingress KB/round",
        "fabric KB/round",
        "identical",
    ]);
    let mut tcells = Vec::new();
    for (n, m, rounds, nodes, fanout) in tree_sweep {
        let c = measure_tree(n, m, rounds, nodes, fanout);
        ttable.row(&[
            c.n.to_string(),
            c.nodes.to_string(),
            c.fanout.to_string(),
            c.m.to_string(),
            c.entries.to_string(),
            format!("{:.2}", c.flat_master_ns as f64 / 1e6 / c.rounds as f64),
            format!("{:.2}", c.tree_master_ns as f64 / 1e6 / c.rounds as f64),
            format!("{:.2}x", c.master_speedup()),
            format!("{}", c.oal_wire_bytes / 1024),
            format!("{}", c.ingress_bytes / 1024),
            format!("{}", (c.shuffle_bytes + c.partial_bytes) / 1024),
            c.identical.to_string(),
        ]);
        assert!(
            c.identical,
            "dense tree aggregation must stay bit-identical to the flat coordinator"
        );
        tcells.push(c);
    }
    println!("{}", ttable.render());
    println!("flat master = ingest of every per-thread OAL + round close at the coordinator;");
    println!("tree master = merge of <=fanout subtree partials + cumulative fold (leaf");
    println!("pre-reduction, owner shuffle and subtree merging run on worker nodes).");
    println!("oal KB = raw OAL batches converging on the flat master's link; ingress KB =");
    println!("everything converging on node 0 in tree mode (shuffle-in share + subtree-");
    println!("child + root-hop partials); fabric KB = all tree-mode hops, whole cluster.");

    if smoke {
        println!("\nsmoke mode: skipping BENCH_tcm_reduce.json (checked-in file is the full run)");
        return;
    }

    let target = cells
        .iter()
        .find(|c| c.n == 256 && c.m == 1_000_000)
        .expect("acceptance cell in sweep");
    let tree_target = tcells
        .iter()
        .find(|c| c.n == 4096)
        .expect("tree acceptance cell in sweep");
    let tree_acceptance = TreeAcceptance {
        threads: tree_target.n,
        objects: tree_target.m,
        nodes: tree_target.nodes,
        fanout: tree_target.fanout,
        required_master_speedup: 5.0,
        measured_master_speedup: tree_target.master_speedup(),
        pass: tree_target.master_speedup() >= 5.0,
    };
    let doc = Report {
        bench: "tcm_reduce",
        mode: "full",
        results: cells
            .iter()
            .map(|c| CellReport {
                threads: c.n,
                objects: c.m,
                rounds: c.rounds,
                entries_per_round: c.entries,
                scalar_ingest_ns: c.scalar_ingest_ns as u64,
                scalar_close_ns: c.scalar_close_ns as u64,
                bitset_ingest_ns: c.bitset_ingest_ns as u64,
                bitset_close_ns: c.bitset_close_ns as u64,
                close_speedup: c.close_speedup(),
                bitset_close_mobj_per_s: c.close_mobj_s(c.bitset_close_ns),
                scalar_close_mobj_per_s: c.close_mobj_s(c.scalar_close_ns),
                identical: c.identical,
            })
            .collect(),
        tree: tcells
            .iter()
            .map(|c| TreeCellReport {
                threads: c.n,
                objects: c.m,
                rounds: c.rounds,
                nodes: c.nodes,
                fanout: c.fanout,
                entries_per_round: c.entries,
                flat_master_ns: c.flat_master_ns as u64,
                tree_master_ns: c.tree_master_ns as u64,
                master_speedup: c.master_speedup(),
                oal_wire_bytes_per_round: c.oal_wire_bytes,
                master_ingress_bytes_per_round: c.ingress_bytes,
                partial_bytes_per_round: c.partial_bytes,
                shuffle_bytes_per_round: c.shuffle_bytes,
                master_partials: c.master_partials,
                identical: c.identical,
            })
            .collect(),
        acceptance: Acceptance {
            threads: 256,
            objects: 1_000_000,
            required_close_speedup: 3.0,
            measured_close_speedup: target.close_speedup(),
            pass: target.close_speedup() >= 3.0,
        },
        tree_acceptance,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tcm_reduce.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_tcm_reduce.json");
    println!("\nwrote {path}");
    assert!(
        target.close_speedup() >= 3.0,
        "acceptance: ≥3x round-close speedup at N=256/M=1e6 (measured {:.2}x)",
        target.close_speedup()
    );
    assert!(
        doc.tree_acceptance.pass,
        "acceptance: ≥5x master round-close speedup for the tree at N=4096 (measured {:.2}x)",
        doc.tree_acceptance.measured_master_speedup
    );
}
