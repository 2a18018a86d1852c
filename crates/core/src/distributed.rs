//! Distributed TCM deduction (Section V).
//!
//! The paper flags the central coordinator's `O(M·N²)` map construction as a
//! scalability bottleneck and asks for *"distributed algorithms for deducing
//! correlation maps in a more scalable way"*. The key observation: the TCM is a **sum
//! of per-object contributions** — object `o` shared by thread set `S` adds
//! `bytes(o)` to every pair in `S×S`, independently of every other object. Giving
//! every object exactly one *owner* node therefore partitions the pair accrual
//! exactly; [`TreeTcmReducer`] builds the fabric-tree pipeline below on that.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use jessy_gos::{ClassId, ObjectId};

use crate::oal::Oal;
use crate::tcm::{for_each_sharer_pair, MergeScratch, RecordArena, SparseTcm};

/// The owner node of an object among `n_shards`.
#[inline]
pub fn shard_of(obj: ObjectId, n_shards: usize) -> usize {
    obj.index() % n_shards
}

// ---------------------------------------------------------------------------
// Fabric-tree aggregation: per-node pre-reduction, object-owner shuffle, k-ary
// partial merge.
//
// A node-local reducer cannot finish any pair by itself: an object's sharer set
// spans nodes, and its byte weight is the *global* max over every thread's
// logged size. The tree pipeline therefore splits the flat coordinator's two
// steps like this:
//
//   1. **leaf pre-reduction** — each node deduplicates its own threads' OALs
//      into per-object records (object, class, local byte max, local sharer
//      bitset). This is the `O(M·N)` reorganization hash work, now spread over
//      the nodes; a record is ≤ `16 + ⌈N/64⌉·8` bytes however many accesses it
//      deduplicates.
//   2. **object-owner shuffle** — records route to `shard_of(obj, n_nodes)`;
//      the owner unions the disjoint sharer bitsets, maxes the byte weights,
//      and runs the pair walk for its objects into *sparse* global + per-class
//      cell lists. Every object accrues exactly once, at its owner, with its
//      global weight — which is what makes the result bit-identical to a flat
//      `TcmBuilder`, with no cross-node correction terms.
//   3. **k-ary tree merge** — owner partials ([`TcmPartial`]) merge upward
//      (children ascending, parents processed deepest-first), so the master
//      folds at most `fanout` sorted sparse merges per round instead of
//      re-hashing every thread's OAL.
//
// Exactness everywhere rests on one invariant: OAL byte weights are
// integer-valued f64 and per-cell sums stay far below 2⁵³, so f64 addition is
// associative over every order this pipeline (or the flat one) can produce.
// ---------------------------------------------------------------------------

/// Parent of `node` in the k-ary aggregation tree, or `None` when the node
/// ships its partial straight to the master. Children of parent `p` are the
/// contiguous run `(p+1)·fanout .. (p+2)·fanout`.
#[inline]
pub fn tree_parent(node: usize, fanout: usize) -> Option<usize> {
    debug_assert!(fanout >= 2);
    if node < fanout {
        None
    } else {
        Some((node - fanout) / fanout)
    }
}

/// One node's (or merged subtree's) per-round reduction output: the sparse pair
/// map, its per-class split, and the object count it covers. This is what a
/// `TcmPartial` fabric message carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcmPartial {
    /// Distinct objects whose pairs this partial covers.
    pub objects: usize,
    /// The partial correlation map (global, all classes).
    pub pairs: SparseTcm,
    /// Per-class split of `pairs`.
    pub per_class: HashMap<ClassId, SparseTcm>,
}

impl TcmPartial {
    /// An empty partial for `n_threads` threads.
    pub fn empty(n_threads: usize) -> Self {
        TcmPartial {
            objects: 0,
            pairs: SparseTcm::new(n_threads),
            per_class: HashMap::new(),
        }
    }

    /// Total sparse cells carried (global + per-class).
    pub fn cells(&self) -> usize {
        self.pairs.len() + self.per_class.values().map(SparseTcm::len).sum::<usize>()
    }

    /// Modeled wire size: a 16-byte context plus 12 bytes per sparse cell
    /// (packed `u32` cell index + `f64` value) and an 8-byte sub-map header per
    /// class.
    pub fn wire_bytes(&self) -> usize {
        16 + 12 * self.pairs.len()
            + self
                .per_class
                .values()
                .map(|m| 8 + 12 * m.len())
                .sum::<usize>()
    }

    /// Merge `other` into this partial (sorted sparse unions through the shared
    /// scratch; object counts add because every object has exactly one owner).
    pub fn merge(&mut self, other: &TcmPartial, scratch: &mut MergeScratch) {
        self.objects += other.objects;
        self.pairs.merge_with(&other.pairs, scratch);
        for (class, sparse) in &other.per_class {
            match self.per_class.entry(*class) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge_with(sparse, scratch)
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(sparse.clone());
                }
            }
        }
    }
}

/// One fabric hop of a tree round: `bytes` of partial-TCM (or shuffle-record)
/// traffic from `from` to `to`, carrying `cells` sparse cells (or records).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeEdge {
    /// Sending node.
    pub from: u16,
    /// Receiving node (the parent, or node 0 = the master).
    pub to: u16,
    /// Modeled wire bytes.
    pub bytes: u64,
    /// Sparse cells (tree edges) or object records (shuffle edges).
    pub cells: u64,
}

/// Statistics of one tree-aggregated round (summed into the runtime's `MasterOutput::reduce`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TreeRoundStats {
    /// Object records that crossed nodes in the owner shuffle.
    pub shuffle_records: u64,
    /// Modeled wire bytes of the owner shuffle.
    pub shuffle_bytes: u64,
    /// Sparse cells shipped across aggregation-tree edges.
    pub partial_cells: u64,
    /// Modeled wire bytes of partial-TCM messages (tree edges, master included).
    pub partial_bytes: u64,
    /// Subtree partials the master folded (≤ fanout).
    pub master_partials: u64,
    /// Every fabric hop of the round, deterministic order: shuffle edges sorted
    /// by `(from, to)`, then tree edges deepest-parent-first, then the root
    /// hops into the master.
    pub edges: Vec<TreeEdge>,
}

/// Modeled wire size of one shuffled object record: object id + class + byte
/// weight (16 bytes) plus the node-local sharer bitset.
#[inline]
fn record_wire_bytes(words: usize) -> u64 {
    16 + 8 * words as u64
}

/// Sort pushed `(cell, value)` pairs and combine duplicates (exact for the
/// integer-valued weights OAL streams carry).
fn combine_sorted(mut pushed: Vec<(u32, f64)>) -> Vec<(u32, f64)> {
    pushed.sort_unstable_by_key(|&(idx, _)| idx);
    let mut out = Vec::with_capacity(pushed.len());
    for (idx, v) in pushed {
        match out.last_mut() {
            Some(&mut (last, ref mut lv)) if last == idx => *lv += v,
            _ => out.push((idx, v)),
        }
    }
    out
}

/// The owner's pair walk: every record with ≥ 2 sharers pushes its pairs onto
/// sparse global + per-class cell lists, sorted and combined at the end —
/// exact, since weights are integer-valued f64.
fn accrue_owner(arena: &RecordArena, n_threads: usize) -> TcmPartial {
    let mut pairs: Vec<(u32, f64)> = Vec::new();
    let mut class_cells: HashMap<ClassId, Vec<(u32, f64)>> = HashMap::new();
    for (class, bytes, bits) in arena.shared_records() {
        let class_buf = class_cells.entry(class).or_default();
        for_each_sharer_pair(bits, n_threads, |idx| {
            pairs.push((idx as u32, bytes));
            class_buf.push((idx as u32, bytes));
        });
    }
    let per_class = class_cells
        .into_iter()
        .map(|(c, buf)| (c, SparseTcm::from_sorted_cells(n_threads, combine_sorted(buf))))
        .collect();
    TcmPartial {
        objects: arena.len(),
        pairs: SparseTcm::from_sorted_cells(n_threads, combine_sorted(pairs)),
        per_class,
    }
}

/// The distributed TCM reduction pipeline: per-node leaf arenas, an
/// object-owner shuffle, and a k-ary aggregation tree of sparse partials. One
/// round in, one root [`TcmPartial`] out; the [`Reducer`](crate::Reducer) folds
/// the root into the cumulative map.
///
/// The root is bit-identical to what a flat [`TcmBuilder`](crate::TcmBuilder)
/// accrues for the same OAL stream, for any node placement, fanout and merge
/// order (see the comment above for why; the unit test
/// `tree_reduction_is_bit_identical_to_flat_builder` checks it).
#[derive(Debug)]
pub struct TreeTcmReducer {
    n_threads: usize,
    n_nodes: usize,
    fanout: usize,
    leaves: Vec<RecordArena>,
    owners: Vec<RecordArena>,
    scratch: MergeScratch,
}

impl TreeTcmReducer {
    /// Reducer over `n_nodes` leaf nodes and an aggregation tree of `fanout`.
    ///
    /// # Panics
    /// If `fanout < 2` or `n_nodes == 0`.
    pub fn new(n_threads: usize, n_nodes: usize, fanout: usize) -> Self {
        assert!(fanout >= 2, "a unary aggregation chain reduces nothing");
        assert!(n_nodes > 0);
        TreeTcmReducer {
            n_threads,
            n_nodes,
            fanout,
            leaves: (0..n_nodes).map(|_| RecordArena::new(n_threads)).collect(),
            owners: (0..n_nodes).map(|_| RecordArena::new(n_threads)).collect(),
            scratch: MergeScratch::new(),
        }
    }

    /// Ingest one OAL at its node's leaf arena (the node-local pre-reduction).
    pub fn ingest(&mut self, node: usize, oal: &Oal) {
        self.leaves[node].ingest(oal);
    }

    /// Run the distributed phases of a round close — leaf pre-reduction, owner
    /// shuffle, pair accrual, and every tree merge *below* the master — and
    /// return the ≤ `fanout` subtree partials the master must fold, plus the
    /// round's fabric/work statistics. Pair with [`TreeTcmReducer::merge_subtrees`].
    pub fn close_round_subtrees(&mut self) -> (TreeRoundStats, Vec<TcmPartial>) {
        let mut stats = TreeRoundStats::default();
        // Leaf → owner shuffle. Leaves drain in ascending node order and their
        // records in first-touch order, so owner insertion order — and with it
        // every downstream iteration — is deterministic.
        let mut shuffle: BTreeMap<(u16, u16), (u64, u64)> = BTreeMap::new();
        for (leaf, arena) in self.leaves.iter_mut().enumerate() {
            for (obj, class, bytes, bits) in arena.records() {
                let record_bytes = record_wire_bytes(bits.len());
                let owner = shard_of(obj, self.n_nodes);
                self.owners[owner].merge_record(obj, class, bytes, bits);
                if owner != leaf {
                    let e = shuffle.entry((leaf as u16, owner as u16)).or_insert((0, 0));
                    e.0 += record_bytes;
                    e.1 += 1;
                }
            }
            arena.clear();
        }
        for ((from, to), (bytes, records)) in shuffle {
            stats.shuffle_records += records;
            stats.shuffle_bytes += bytes;
            stats.edges.push(TreeEdge {
                from,
                to,
                bytes,
                cells: records,
            });
        }
        // Owner pair walks → per-node partials.
        let mut partials: Vec<Option<TcmPartial>> = Vec::with_capacity(self.n_nodes);
        for owner in 0..self.n_nodes {
            partials.push(Some(accrue_owner(&self.owners[owner], self.n_threads)));
            self.owners[owner].clear();
        }
        // Tree merge below the master: parents deepest-first (a child's id
        // always exceeds its parent's), children ascending.
        for p in (0..self.n_nodes).rev() {
            let first_child = (p + 1) * self.fanout;
            if first_child >= self.n_nodes {
                continue;
            }
            for c in first_child..(first_child + self.fanout).min(self.n_nodes) {
                let child = partials[c].take().expect("child partial already taken");
                let bytes = child.wire_bytes() as u64;
                let cells = child.cells() as u64;
                stats.partial_cells += cells;
                stats.partial_bytes += bytes;
                stats.edges.push(TreeEdge {
                    from: c as u16,
                    to: p as u16,
                    bytes,
                    cells,
                });
                partials[p]
                    .as_mut()
                    .expect("parent partial missing")
                    .merge(&child, &mut self.scratch);
            }
        }
        let subtrees: Vec<TcmPartial> = partials
            .into_iter()
            .take(self.fanout.min(self.n_nodes))
            .map(|p| p.expect("subtree partial missing"))
            .collect();
        stats.master_partials = subtrees.len() as u64;
        for (i, s) in subtrees.iter().enumerate() {
            let bytes = s.wire_bytes() as u64;
            let cells = s.cells() as u64;
            // Node 0 hosts the master: its own hop is a local hand-off, but the
            // other subtree roots pay real fabric bytes into the coordinator.
            if i != 0 {
                stats.partial_cells += cells;
                stats.partial_bytes += bytes;
            }
            stats.edges.push(TreeEdge {
                from: i as u16,
                to: 0,
                bytes,
                cells,
            });
        }
        (stats, subtrees)
    }

    /// Master-side merge of the subtree partials into the round's root partial
    /// (ascending order; no cumulative state is touched).
    pub fn merge_subtrees(&mut self, subtrees: Vec<TcmPartial>) -> TcmPartial {
        let mut it = subtrees.into_iter();
        let mut root = it
            .next()
            .unwrap_or_else(|| TcmPartial::empty(self.n_threads));
        for s in it {
            root.merge(&s, &mut self.scratch);
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oal::OalEntry;
    use crate::tcm::{Tcm, TcmBuilder};
    use jessy_net::ThreadId;

    /// Close a round end to end: the statistics and the root partial.
    fn close_round(tree: &mut TreeTcmReducer) -> (TreeRoundStats, TcmPartial) {
        let (stats, subtrees) = tree.close_round_subtrees();
        (stats, tree.merge_subtrees(subtrees))
    }

    fn oal(thread: u32, objs: &[(u32, u64)]) -> Oal {
        Oal {
            thread: ThreadId(thread),
            interval: 0,
            entries: objs
                .iter()
                .map(|&(o, b)| OalEntry {
                    obj: ObjectId(o),
                    class: ClassId(0),
                    bytes: b,
                })
                .collect(),
        }
    }

    fn workload() -> Vec<Oal> {
        // 6 threads sharing a spread of objects.
        (0..6u32)
            .flat_map(|t| {
                vec![
                    oal(t, &[(t, 64), (t + 1, 64), ((t * 7) % 20, 128)]),
                    oal(t, &[(19 - t, 32), (t % 3, 8)]),
                ]
            })
            .collect()
    }

    // --- fabric-tree aggregation ------------------------------------------

    /// Splitmix-style generator, so tree tests are seeded and reproducible.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded random round: per-thread OALs over a shared object universe.
    /// Class is a pure function of the object id, as in the real runtime.
    fn random_round(seed: u64, n_threads: usize, n_objects: u32) -> Vec<Oal> {
        let mut s = seed;
        (0..n_threads as u32)
            .map(|t| {
                let n_entries = 1 + (mix(&mut s) % 12) as usize;
                Oal {
                    thread: ThreadId(t),
                    interval: 0,
                    entries: (0..n_entries)
                        .map(|_| {
                            let o = (mix(&mut s) % n_objects as u64) as u32;
                            OalEntry {
                                obj: ObjectId(o),
                                class: ClassId((o % 3) as u16),
                                bytes: 8 + (mix(&mut s) % 4096),
                            }
                        })
                        .collect(),
                }
            })
            .collect()
    }

    #[test]
    fn tree_parent_topology_is_a_forest_rooted_at_the_master() {
        for fanout in [2usize, 3, 4, 8] {
            for node in 0..64usize {
                match tree_parent(node, fanout) {
                    None => assert!(node < fanout, "only the first {fanout} ship direct"),
                    Some(p) => {
                        assert!(p < node, "parent id must be smaller (merge order)");
                        let first_child = (p + 1) * fanout;
                        assert!(
                            (first_child..first_child + fanout).contains(&node),
                            "node {node} not in parent {p}'s child run at fanout {fanout}"
                        );
                    }
                }
            }
        }
    }

    /// The central property: for arbitrary OAL streams, node placements and
    /// fanouts, the tree pipeline's per-round root — and the cumulative map it
    /// folds into — is bit-identical to a flat `TcmBuilder`'s rounds fed the
    /// same stream.
    #[test]
    fn tree_reduction_is_bit_identical_to_flat_builder() {
        let n_threads = 23; // not a multiple of 64: exercises partial bitset words
        for (seed, n_nodes, fanout) in [
            (1u64, 1usize, 2usize),
            (2, 2, 2),
            (3, 3, 2),
            (4, 4, 3),
            (5, 5, 4),
            (6, 7, 2),
            (7, 8, 3),
        ] {
            let mut flat = TcmBuilder::new(n_threads);
            let mut tree = TreeTcmReducer::new(n_threads, n_nodes, fanout);
            let (mut cum, mut flat_cum) = (Tcm::new(n_threads), Tcm::new(n_threads));
            let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D);
            for round in 0..4u64 {
                let oals = random_round(seed ^ round, n_threads, 40);
                for o in &oals {
                    // Arbitrary (but deterministic) thread→node placement.
                    let node = (o.thread.index() + (mix(&mut s) % 2) as usize) % n_nodes;
                    flat.ingest(o);
                    tree.ingest(node, o);
                }
                let flat_summary = flat.close_round();
                let (stats, root) = close_round(&mut tree);
                cum.merge_sparse(&root.pairs);
                flat_cum.merge(&flat_summary.tcm);
                let label = format!("seed {seed} round {round} nodes {n_nodes} fanout {fanout}");
                assert_eq!(root.objects, flat_summary.objects, "{label}");
                assert_eq!(root.pairs.to_dense().raw(), flat_summary.tcm.raw(), "{label}");
                assert_eq!(root.per_class, flat_summary.per_class, "{label}");
                assert_eq!(cum.raw(), flat_cum.raw(), "{label}");
                assert_eq!(stats.master_partials, fanout.min(n_nodes) as u64, "{label}");
            }
        }
    }

    #[test]
    fn tree_stats_count_only_real_fabric_traffic() {
        // Single node: everything is local. No shuffle bytes, and the lone
        // "subtree → master" hop is the node-0 self-edge, so no partial bytes.
        let mut tree = TreeTcmReducer::new(6, 1, 2);
        for o in workload() {
            tree.ingest(0, &o);
        }
        let (stats, _) = close_round(&mut tree);
        assert_eq!(stats.shuffle_bytes, 0);
        assert_eq!(stats.partial_bytes, 0);
        assert_eq!(stats.master_partials, 1);
        assert_eq!(stats.edges.len(), 1);
        assert_eq!((stats.edges[0].from, stats.edges[0].to), (0, 0));

        // Spread over 5 nodes at fanout 2: shuffle + tree traffic appears, and
        // every non-master-self edge carries nonzero modeled bytes.
        let mut tree = TreeTcmReducer::new(6, 5, 2);
        for o in workload() {
            tree.ingest(o.thread.index() % 5, &o);
        }
        let (stats, _) = close_round(&mut tree);
        assert!(stats.shuffle_records > 0);
        assert!(stats.shuffle_bytes >= stats.shuffle_records * 24);
        assert!(stats.partial_bytes > 0);
        assert_eq!(stats.master_partials, 2);
        // The round's edge list ends with the root hops, ascending subtree
        // order: node 0's local hand-off, then node 1's real fabric hop.
        let roots = &stats.edges[stats.edges.len() - 2..];
        assert_eq!((roots[0].from, roots[0].to), (0, 0));
        assert_eq!((roots[1].from, roots[1].to), (1, 0));
        assert!(roots[1].bytes > 0);
    }

    #[test]
    fn partial_merge_through_scratch_is_allocation_stable() {
        let mut tree = TreeTcmReducer::new(6, 3, 2);
        let mut acc = TcmPartial::empty(6);
        let mut cum = Tcm::new(6);
        let mut scratch = MergeScratch::new();
        for round in 0..6u64 {
            for o in random_round(round, 6, 16) {
                tree.ingest(o.thread.index() % 3, &o);
            }
            let (_, root) = close_round(&mut tree);
            acc.merge(&root, &mut scratch);
            cum.merge_sparse(&root.pairs);
        }
        // The accumulated partial equals the cumulative map.
        assert_eq!(acc.pairs.to_dense().raw(), cum.raw());
        // Steady state: once the union shape stabilizes, further merges reuse
        // the scratch (and the accumulator's own buffer) without allocating.
        for o in random_round(99, 6, 16) {
            tree.ingest(o.thread.index() % 3, &o);
        }
        let (_, root) = close_round(&mut tree);
        acc.merge(&root, &mut scratch);
        let cap = scratch.capacity();
        assert!(cap > 0);
        for _ in 0..4 {
            acc.merge(&root, &mut scratch);
        }
        assert_eq!(scratch.capacity(), cap, "merge scratch must be reused");
    }
}
