//! The Thread Correlation Map (Section II.A).
//!
//! An N×N symmetric histogram: entry *(i, j)* accumulates the bytes of objects threads
//! *i* and *j* accessed in common. The central coordinator builds it from OALs in two
//! steps, exactly as the paper costs them: reorganizing per-thread lists into
//! per-object thread lists (`O(M·N)`), then accruing every pair (`O(M·N²)`).
//!
//! A [`TcmBuilder`] ingests OALs continuously; [`TcmBuilder::close_round`] folds the
//! per-object organization of the round into the map and clears it. Accumulating in
//! rounds (one round = `intervals_per_round` closed intervals) is what lets the
//! adaptive controller compare "successive correlation matrices".
//!
//! # Reduction data layout
//!
//! The map is symmetric with a zero diagonal, so [`Tcm`] stores only the strict upper
//! triangle, packed row-major into `n·(n−1)/2` cells — half the memory of a dense
//! matrix and one write per pair instead of two. Each round-pending object carries a
//! fixed-width **thread bitset** (`⌈N/64⌉` `u64` words) instead of a `Vec<ThreadId>`:
//! membership insert is one OR, dedup is structural (a thread logging the same object
//! in several intervals of one round sets the same bit), and pair accrual walks set
//! bits with trailing-zeros word iteration. Per-class round maps are **sparse**
//! ([`SparseTcm`]): only the pairs a class actually touched, accumulated in a
//! capacity-retained dense scratch and drained in ascending cell order at round close.
//! All round-local buffers (object index, bitset arena, class scratch) retain their
//! capacity across rounds, so steady-state ingestion is allocation-free.
//!
//! The [`mod@reference`] module retains the seed's scalar implementation as the
//! bit-exactness oracle for tests and the baseline for the `tcm_reduce` bench.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use jessy_gos::{ClassId, ObjectId};
use jessy_net::ThreadId;

use crate::oal::Oal;

/// Cells of the packed strict upper triangle for `n` threads.
#[inline]
pub(crate) fn tri_len(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Packed index of pair `(i, j)` with `i < j < n`.
///
/// Panics on a pair outside the map: the packed index of `j >= n` would land on
/// another pair's cell.
#[inline]
pub(crate) fn tri_index(n: usize, i: usize, j: usize) -> usize {
    assert!(i < j && j < n, "thread pair ({i}, {j}) out of range for a {n}-thread map");
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Inverse of [`tri_index`]: the `(i, j)` pair a packed cell belongs to.
pub(crate) fn tri_decode(n: usize, idx: usize) -> (usize, usize) {
    let mut i = 0;
    let mut start = 0;
    loop {
        let row_len = n - 1 - i;
        if idx < start + row_len {
            return (i, i + 1 + (idx - start));
        }
        start += row_len;
        i += 1;
    }
}

/// A symmetric N×N correlation map with a zero diagonal, stored as the packed strict
/// upper triangle (`n·(n−1)/2` cells).
///
/// ```
/// use jessy_core::Tcm;
/// use jessy_net::ThreadId;
///
/// let mut tcm = Tcm::new(3);
/// tcm.add_pair(ThreadId(0), ThreadId(2), 4096.0);
/// assert_eq!(tcm.at(ThreadId(2), ThreadId(0)), 4096.0); // symmetric
/// assert_eq!(tcm.at(ThreadId(1), ThreadId(1)), 0.0);    // zero diagonal
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tcm {
    n: usize,
    data: Vec<f64>,
}

impl Tcm {
    /// Zeroed map for `n` threads.
    pub fn new(n: usize) -> Self {
        Tcm {
            n,
            data: vec![0.0; tri_len(n)],
        }
    }

    /// Number of threads.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Value at unordered index pair `(i, j)` (0 on the diagonal).
    #[inline]
    fn at_idx(&self, i: usize, j: usize) -> f64 {
        match i.cmp(&j) {
            std::cmp::Ordering::Less => self.data[tri_index(self.n, i, j)],
            std::cmp::Ordering::Equal => 0.0,
            std::cmp::Ordering::Greater => self.data[tri_index(self.n, j, i)],
        }
    }

    /// Shared volume between threads `i` and `j`.
    #[inline]
    pub fn at(&self, i: ThreadId, j: ThreadId) -> f64 {
        self.at_idx(i.index(), j.index())
    }

    /// Accrue `bytes` to the (i, j) pair (one packed cell; no-op for i == j).
    pub fn add_pair(&mut self, i: ThreadId, j: ThreadId, bytes: f64) {
        if i == j {
            return;
        }
        let (a, b) = if i.index() < j.index() {
            (i.index(), j.index())
        } else {
            (j.index(), i.index())
        };
        self.data[tri_index(self.n, a, b)] += bytes;
    }

    /// Merge another map into this one.
    pub fn merge(&mut self, other: &Tcm) {
        assert_eq!(self.n, other.n);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Merge a sparse map into this one (cells land in ascending packed order).
    pub fn merge_sparse(&mut self, other: &SparseTcm) {
        assert_eq!(self.n, other.n);
        for &(idx, v) in &other.cells {
            self.data[idx as usize] += v;
        }
    }

    /// Sum of all entries of the full symmetric matrix (2× the total pairwise shared
    /// volume, as in the dense representation).
    pub fn total(&self) -> f64 {
        2.0 * self.data.iter().sum::<f64>()
    }

    /// Raw packed upper-triangle data, row-major: `(0,1) (0,2) … (0,n−1) (1,2) …`
    /// (for distance metrics and equality checks; both sides of a metric see the same
    /// packing, so the `E_ABS`/`E_EUC` ratios match the dense definition).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Mutable packed cells, for in-crate accrual hot loops.
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The map as rows of the full symmetric matrix (for rendering). Streams straight
    /// from the packed triangle — no intermediate `Vec<Vec<f64>>`.
    pub fn rows(&self) -> impl Iterator<Item = impl Iterator<Item = f64> + '_> + '_ {
        (0..self.n).map(move |i| (0..self.n).map(move |j| self.at_idx(i, j)))
    }

    /// Collect the nonzero cells into a [`SparseTcm`] (ascending packed order).
    /// This is the export-side bridge at production N: a map with `P` active pairs
    /// serializes in `O(P)` instead of `O(N²)`.
    pub fn to_sparse(&self) -> SparseTcm {
        let cells = self
            .data
            .iter()
            .enumerate()
            .filter(|&(_, v)| *v != 0.0)
            .map(|(i, &v)| (i as u32, v))
            .collect();
        SparseTcm::from_sorted_cells(self.n, cells)
    }

    /// Serialize as CSV (header `t0,t1,…`, one row per thread) for external plotting
    /// of the Fig. 1 / Fig. 9 data.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity((self.n + 1) * (self.n * 4 + 1));
        for i in 0..self.n {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "t{i}");
        }
        out.push('\n');
        for row in self.rows() {
            for (j, v) in row.enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push('\n');
        }
        out
    }

    /// Largest grid `ascii_heatmap` will render: maps wider than this are
    /// downsampled (each glyph = max over its bucket) so a report at N=4096 costs a
    /// screenful of text, not a 16-million-character string.
    pub const HEATMAP_MAX_DIM: usize = 64;

    /// Render an ASCII heatmap (darker glyph = more sharing), for the Fig. 1-style
    /// maps of `jessy-cli` and the `fig1` bench. Maps larger than
    /// [`Tcm::HEATMAP_MAX_DIM`] threads per side are downsampled onto buckets of
    /// `⌈N / MAX_DIM⌉` threads; each glyph shows the hottest pair in its bucket.
    pub fn ascii_heatmap(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let max = self.data.iter().cloned().fold(0.0f64, f64::max);
        let step = self.n.div_ceil(Self::HEATMAP_MAX_DIM).max(1);
        let dim = self.n.div_ceil(step);
        let mut out = String::with_capacity(dim * (dim + 1));
        for bi in 0..dim {
            for bj in 0..dim {
                let mut v = 0.0f64;
                for i in bi * step..((bi + 1) * step).min(self.n) {
                    for j in bj * step..((bj + 1) * step).min(self.n) {
                        v = v.max(self.at_idx(i, j));
                    }
                }
                let idx = if max <= 0.0 {
                    0
                } else {
                    (((v / max) * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)
                };
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// A sparse symmetric correlation map: only the touched pairs, as `(packed cell,
/// value)` sorted by ascending cell index. This is what per-class round maps use — a
/// class touching `P` pairs costs `O(P)` instead of a dense `N×N` allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseTcm {
    n: usize,
    cells: Vec<(u32, f64)>,
}

impl SparseTcm {
    /// Empty sparse map for `n` threads.
    pub fn new(n: usize) -> Self {
        SparseTcm { n, cells: Vec::new() }
    }

    /// Build from cells already sorted by ascending packed index.
    pub(crate) fn from_sorted_cells(n: usize, cells: Vec<(u32, f64)>) -> Self {
        debug_assert!(cells.windows(2).all(|w| w[0].0 < w[1].0));
        SparseTcm { n, cells }
    }

    /// Build from unordered `(i, j, bytes)` pairs, accumulating duplicates.
    pub fn from_pairs(n: usize, pairs: &[(ThreadId, ThreadId, f64)]) -> Self {
        let mut acc: HashMap<u32, f64> = HashMap::new();
        for &(i, j, v) in pairs {
            if i == j {
                continue;
            }
            let (a, b) = if i.index() < j.index() {
                (i.index(), j.index())
            } else {
                (j.index(), i.index())
            };
            *acc.entry(tri_index(n, a, b) as u32).or_insert(0.0) += v;
        }
        let mut cells: Vec<(u32, f64)> = acc.into_iter().collect();
        cells.sort_unstable_by_key(|&(idx, _)| idx);
        SparseTcm { n, cells }
    }

    /// Number of threads.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Touched pair count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// No touched pairs?
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Shared volume between threads `i` and `j` (0 for untouched pairs).
    pub fn at(&self, i: ThreadId, j: ThreadId) -> f64 {
        if i == j {
            return 0.0;
        }
        let (a, b) = if i.index() < j.index() {
            (i.index(), j.index())
        } else {
            (j.index(), i.index())
        };
        let idx = tri_index(self.n, a, b) as u32;
        match self.cells.binary_search_by_key(&idx, |&(c, _)| c) {
            Ok(pos) => self.cells[pos].1,
            Err(_) => 0.0,
        }
    }

    /// The touched cells, `(packed index, value)` in ascending index order.
    pub fn cells(&self) -> &[(u32, f64)] {
        &self.cells
    }

    /// Iterate touched pairs as `(i, j, value)` with `i < j`.
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, ThreadId, f64)> + '_ {
        self.cells.iter().map(move |&(idx, v)| {
            let (i, j) = tri_decode(self.n, idx as usize);
            (ThreadId(i as u32), ThreadId(j as u32), v)
        })
    }

    /// Merge another sparse map into this one (sorted union; each side's cells keep
    /// their ascending-index accumulation order). The union is built in `scratch`
    /// and copied back, so steady-state tree aggregation never allocates.
    pub fn merge_with(&mut self, other: &SparseTcm, scratch: &mut MergeScratch) {
        assert_eq!(self.n, other.n);
        if other.cells.is_empty() {
            return;
        }
        if self.cells.is_empty() {
            self.cells.extend_from_slice(&other.cells);
            return;
        }
        let merged = &mut scratch.buf;
        merged.clear();
        merged.reserve(self.cells.len() + other.cells.len());
        let (mut a, mut b) = (0, 0);
        while a < self.cells.len() && b < other.cells.len() {
            match self.cells[a].0.cmp(&other.cells[b].0) {
                std::cmp::Ordering::Less => {
                    merged.push(self.cells[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.cells[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((self.cells[a].0, self.cells[a].1 + other.cells[b].1));
                    a += 1;
                    b += 1;
                }
            }
        }
        merged.extend_from_slice(&self.cells[a..]);
        merged.extend_from_slice(&other.cells[b..]);
        // Copy back rather than swapping vectors: both buffers keep their
        // (monotone) capacities, so steady-state merges never allocate.
        self.cells.clear();
        self.cells.extend_from_slice(merged);
    }

    /// Expand into a dense (packed triangular) [`Tcm`].
    pub fn to_dense(&self) -> Tcm {
        let mut t = Tcm::new(self.n);
        t.merge_sparse(self);
        t
    }
}

/// Reusable buffer for [`SparseTcm::merge_with`]. Holding one of these per merge
/// site (aggregation-tree node, partial folder) makes repeated sparse merges
/// allocation-free: the merged vector and the displaced input vector rotate
/// through the scratch.
#[derive(Debug, Default)]
pub struct MergeScratch {
    buf: Vec<(u32, f64)>,
}

impl MergeScratch {
    /// A fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Retained capacity, in cells (diagnostics for allocation-free assertions).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// What one [`TcmBuilder::close_round`] produced.
#[derive(Debug, Clone)]
pub struct RoundSummary {
    /// Distinct objects organized this round (the `M` of the `O(M·N²)` cost).
    pub objects: usize,
    /// This round's own correlation map.
    pub tcm: Tcm,
    /// This round's per-class maps (input to the adaptive controller), sparse: only
    /// the pairs each class touched.
    pub per_class: HashMap<ClassId, SparseTcm>,
}

/// Per-class round scratch: a dense packed-triangle accumulator plus a touched-cell
/// bitmap and list, all capacity-retained across rounds so accrual never allocates.
#[derive(Debug)]
struct ClassScratch {
    cells: Vec<f64>,
    touched: Vec<u64>,
    touched_idx: Vec<u32>,
}

impl ClassScratch {
    fn new(n: usize) -> Self {
        let len = tri_len(n);
        ClassScratch {
            cells: vec![0.0; len],
            touched: vec![0; len.div_ceil(64)],
            touched_idx: Vec::new(),
        }
    }

    #[inline]
    fn accrue(&mut self, idx: u32, bytes: f64) {
        let (w, bit) = ((idx / 64) as usize, 1u64 << (idx % 64));
        if self.touched[w] & bit == 0 {
            self.touched[w] |= bit;
            self.touched_idx.push(idx);
        }
        self.cells[idx as usize] += bytes;
    }

    /// Drain this round's touched cells into a sorted [`SparseTcm`], resetting the
    /// scratch (capacity kept) for the next round.
    fn drain_sorted(&mut self, n: usize) -> SparseTcm {
        self.touched_idx.sort_unstable();
        let cells: Vec<(u32, f64)> = self
            .touched_idx
            .iter()
            .map(|&i| (i, self.cells[i as usize]))
            .collect();
        for &i in &self.touched_idx {
            self.cells[i as usize] = 0.0;
            self.touched[(i / 64) as usize] = 0;
        }
        self.touched_idx.clear();
        SparseTcm::from_sorted_cells(n, cells)
    }
}

/// Visit every unordered pair `(a, b)`, `a < b`, of the set bits of a sharer
/// bitset as its packed-triangle cell — the `O(pairs)` trailing-zeros walk both
/// accrual sinks (the flat builder's dense round map, the tree owners' pushed
/// cell lists) are driven by.
#[inline]
pub(crate) fn for_each_sharer_pair(bits: &[u64], n: usize, mut sink: impl FnMut(usize)) {
    let words = bits.len();
    for wi in 0..words {
        let mut wa = bits[wi];
        while wa != 0 {
            let a = wi * 64 + wa.trailing_zeros() as usize;
            wa &= wa - 1;
            // Row `a` of the packed triangle starts at a·(2n−a−1)/2 and holds
            // columns a+1..n, so cell (a, b) sits at start + b−a−1.
            let row_base = (a * (2 * n - a - 1) / 2).wrapping_sub(a + 1);
            let mut wj = wi;
            let mut wb = wa; // bits above `a` in the same word
            loop {
                while wb != 0 {
                    let b = wj * 64 + wb.trailing_zeros() as usize;
                    wb &= wb - 1;
                    sink(row_base.wrapping_add(b));
                }
                wj += 1;
                if wj == words {
                    break;
                }
                wb = bits[wj];
            }
        }
    }
}

/// One round-pending object: who it is, its class, and the largest size any
/// sharer logged for it.
#[derive(Debug)]
struct Record {
    obj: ObjectId,
    class: ClassId,
    bytes: f64,
}

/// A round-local arena of per-object records — a slot map, a [`Record`] column
/// and a parallel sharer-bitset column — shared by the flat [`TcmBuilder`] and
/// the leaves and owners of the tree pipeline
/// ([`TreeTcmReducer`](crate::TreeTcmReducer)). Records are iterated in
/// first-touch order, so per-cell f64 accrual order is deterministic for a given
/// ingestion order; every column retains its capacity across rounds, so
/// steady-state ingestion is allocation-free.
#[derive(Debug)]
pub(crate) struct RecordArena {
    /// Bitset words per record: `⌈n_threads/64⌉`.
    words: usize,
    slots: HashMap<ObjectId, u32>,
    records: Vec<Record>,
    bits: Vec<u64>,
}

impl RecordArena {
    pub(crate) fn new(n_threads: usize) -> Self {
        RecordArena {
            words: n_threads.div_ceil(64).max(1),
            slots: HashMap::new(),
            records: Vec::new(),
            bits: Vec::new(),
        }
    }

    /// Distinct objects recorded this round.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Reset for the next round, keeping every buffer's capacity.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.records.clear();
        self.bits.clear();
    }

    /// The slot of `obj`, appended (no sharers, zero bytes) on first touch.
    fn slot_for(&mut self, obj: ObjectId, class: ClassId) -> usize {
        match self.slots.entry(obj) {
            std::collections::hash_map::Entry::Occupied(o) => *o.get() as usize,
            std::collections::hash_map::Entry::Vacant(v) => {
                let s = self.records.len();
                v.insert(s as u32);
                self.records.push(Record { obj, class, bytes: 0.0 });
                self.bits.resize(self.bits.len() + self.words, 0);
                s
            }
        }
    }

    /// Dedup one OAL into the records: the `O(M·N)` reorganization step.
    pub(crate) fn ingest(&mut self, oal: &Oal) {
        let t = oal.thread.index();
        let (tw, tbit) = (t / 64, 1u64 << (t % 64));
        for e in &oal.entries {
            let slot = self.slot_for(e.obj, e.class);
            let rec = &mut self.records[slot];
            rec.bytes = rec.bytes.max(e.bytes as f64);
            self.bits[slot * self.words + tw] |= tbit;
        }
    }

    /// Merge one record of another arena: union the sharer bitsets, keep the max
    /// byte weight. The class is a property of the object (every reporter names
    /// the same one), so first-writer wins deterministically.
    pub(crate) fn merge_record(&mut self, obj: ObjectId, class: ClassId, bytes: f64, bits: &[u64]) {
        let slot = self.slot_for(obj, class);
        let rec = &mut self.records[slot];
        rec.bytes = rec.bytes.max(bytes);
        let dst = &mut self.bits[slot * self.words..(slot + 1) * self.words];
        for (d, s) in dst.iter_mut().zip(bits) {
            *d |= s;
        }
    }

    /// Every record as `(object, class, bytes, sharer bitset)`, first-touch order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (ObjectId, ClassId, f64, &[u64])> + '_ {
        self.records
            .iter()
            .zip(self.bits.chunks_exact(self.words))
            .map(|(r, bits)| (r.obj, r.class, r.bytes, bits))
    }

    /// The records that accrue pairs — those with at least two sharers — as
    /// `(class, bytes, sharer bitset)`, first-touch order.
    pub(crate) fn shared_records(&self) -> impl Iterator<Item = (ClassId, f64, &[u64])> + '_ {
        self.records().filter_map(|(_, class, bytes, bits)| {
            let pop: u32 = bits.iter().map(|w| w.count_ones()).sum();
            (pop >= 2).then_some((class, bytes, bits))
        })
    }
}

/// The flat coordinator's round accrual: round-pending objects live in a
/// `RecordArena`, and the round close walks each shared record's pairs into a
/// **dense** round map (the measured-fastest close for the flat coordinator —
/// ROADMAP item 5 (a)) and per-class scratches. It keeps no cumulative state:
/// a [`TcmBuilder`] and the flat [`Reducer`](crate::Reducer) each fold its
/// rounds into the one map they own.
#[derive(Debug)]
pub(crate) struct RoundAccrual {
    n: usize,
    arena: RecordArena,
    // Per-class round scratch, reused across rounds.
    class_slots: HashMap<ClassId, usize>,
    class_scratch: Vec<ClassScratch>,
}

impl RoundAccrual {
    pub(crate) fn new(n_threads: usize) -> Self {
        RoundAccrual {
            n: n_threads,
            arena: RecordArena::new(n_threads),
            class_slots: HashMap::new(),
            class_scratch: Vec::new(),
        }
    }

    /// Ingest one OAL: the `O(M·N)` reorganization step.
    pub(crate) fn ingest(&mut self, oal: &Oal) {
        debug_assert!(oal.thread.index() < self.n);
        self.arena.ingest(oal);
    }

    /// The round's own maps, with the arena reset for the next round: the
    /// `O(M·N²)` accrual step, `O(M · pairs)` over set bits via
    /// `for_each_sharer_pair`.
    pub(crate) fn close(&mut self) -> RoundSummary {
        let n = self.n;
        let objects = self.arena.len();
        let mut round_tcm = Tcm::new(n);
        let rt = round_tcm.data_mut();
        let mut last_class: Option<(ClassId, usize)> = None;
        for (class, bytes, bits) in self.arena.shared_records() {
            let cs_idx = match last_class {
                Some((c, i)) if c == class => i,
                _ => {
                    let class_scratch = &mut self.class_scratch;
                    let i = *self.class_slots.entry(class).or_insert_with(|| {
                        class_scratch.push(ClassScratch::new(n));
                        class_scratch.len() - 1
                    });
                    last_class = Some((class, i));
                    i
                }
            };
            let scratch = &mut self.class_scratch[cs_idx];
            for_each_sharer_pair(bits, n, |idx| {
                rt[idx] += bytes;
                scratch.accrue(idx as u32, bytes);
            });
        }
        self.arena.clear();
        // Drain per-class scratches into sorted sparse maps.
        let mut per_class = HashMap::with_capacity(self.class_slots.len());
        for (&class, &idx) in &self.class_slots {
            let sparse = self.class_scratch[idx].drain_sorted(n);
            if !sparse.is_empty() {
                per_class.insert(class, sparse);
            }
        }
        RoundSummary {
            objects,
            tcm: round_tcm,
            per_class,
        }
    }
}

/// Builds a [`Tcm`] (and per-class sub-maps) from a stream of OALs: a
/// `RoundAccrual` and the cumulative map its rounds fold into.
#[derive(Debug)]
pub struct TcmBuilder {
    tcm: Tcm,
    round: RoundAccrual,
}

impl TcmBuilder {
    /// Builder for `n_threads` threads.
    pub fn new(n_threads: usize) -> Self {
        TcmBuilder {
            tcm: Tcm::new(n_threads),
            round: RoundAccrual::new(n_threads),
        }
    }

    /// Ingest one OAL: the `O(M·N)` reorganization step.
    pub fn ingest(&mut self, oal: &Oal) {
        self.round.ingest(oal);
    }

    /// Fold the round's per-object bitsets into the map and clear them.
    ///
    /// Returns the round's own (non-cumulative) maps — the "successive correlation
    /// matrices" the adaptive controller compares — plus the object count.
    pub fn close_round(&mut self) -> RoundSummary {
        let summary = self.round.close();
        self.tcm.merge(&summary.tcm);
        summary
    }

    /// The accumulated global map.
    pub fn tcm(&self) -> &Tcm {
        &self.tcm
    }
}

pub mod reference {
    //! The seed's scalar TCM reduction, retained as the exactness oracle for the
    //! bitset/triangular pipeline and as the baseline of the `tcm_reduce`
    //! bench: dense N×N matrices, a `Vec<ThreadId>` with a linear-scan dedup per
    //! object, a fresh `HashMap` + dense per-class maps every round.
    //!
    //! Cell values equal the optimized pipeline's bit-for-bit whenever per-object
    //! bytes are integer-valued f64 with per-cell sums below 2⁵³ (always true of OAL
    //! streams, whose bytes are `u64` casts) — addition of such values is exact, so
    //! accrual order cannot perturb the result.

    use std::collections::HashMap;

    use jessy_gos::{ClassId, ObjectId};
    use jessy_net::ThreadId;

    use crate::oal::Oal;

    /// The seed's dense row-major symmetric matrix (both triangle halves stored and
    /// written).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DenseTcm {
        n: usize,
        data: Vec<f64>,
    }

    impl DenseTcm {
        /// Zeroed dense map for `n` threads.
        pub fn new(n: usize) -> Self {
            DenseTcm {
                n,
                data: vec![0.0; n * n],
            }
        }

        /// Number of threads.
        pub fn n(&self) -> usize {
            self.n
        }

        /// Shared volume between threads `i` and `j`.
        pub fn at(&self, i: ThreadId, j: ThreadId) -> f64 {
            self.data[i.index() * self.n + j.index()]
        }

        /// Accrue `bytes` to both halves of the (i, j) pair.
        pub fn add_pair(&mut self, i: ThreadId, j: ThreadId, bytes: f64) {
            if i == j {
                return;
            }
            self.data[i.index() * self.n + j.index()] += bytes;
            self.data[j.index() * self.n + i.index()] += bytes;
        }

        /// Merge another dense map into this one.
        pub fn merge(&mut self, other: &DenseTcm) {
            assert_eq!(self.n, other.n);
            for (a, b) in self.data.iter_mut().zip(&other.data) {
                *a += b;
            }
        }

        /// Sum of all entries (2× the pairwise total, diagonal zero).
        pub fn total(&self) -> f64 {
            self.data.iter().sum()
        }

        /// Raw dense row-major data.
        pub fn raw(&self) -> &[f64] {
            &self.data
        }
    }

    #[derive(Debug, Default, Clone)]
    struct ObjAccum {
        bytes: f64,
        threads: Vec<ThreadId>,
    }

    /// One reference round's output.
    #[derive(Debug, Clone)]
    pub struct ScalarRoundSummary {
        /// Distinct objects organized this round.
        pub objects: usize,
        /// The round's own dense map.
        pub tcm: DenseTcm,
        /// The round's dense per-class maps.
        pub per_class: HashMap<ClassId, DenseTcm>,
    }

    /// The seed's scalar [`TcmBuilder`](crate::TcmBuilder), verbatim.
    #[derive(Debug)]
    pub struct ScalarTcmBuilder {
        n_threads: usize,
        tcm: DenseTcm,
        per_class: HashMap<ClassId, DenseTcm>,
        round_objects: HashMap<ObjectId, (ClassId, ObjAccum)>,
    }

    impl ScalarTcmBuilder {
        /// Reference builder for `n_threads` threads.
        pub fn new(n_threads: usize) -> Self {
            ScalarTcmBuilder {
                n_threads,
                tcm: DenseTcm::new(n_threads),
                per_class: HashMap::new(),
                round_objects: HashMap::new(),
            }
        }

        /// The seed's reorganization step: `Vec<ThreadId>` per object with a
        /// linear-scan dedup.
        pub fn ingest(&mut self, oal: &Oal) {
            for e in &oal.entries {
                let (_, accum) = self
                    .round_objects
                    .entry(e.obj)
                    .or_insert_with(|| (e.class, ObjAccum::default()));
                accum.bytes = accum.bytes.max(e.bytes as f64);
                if !accum.threads.contains(&oal.thread) {
                    accum.threads.push(oal.thread);
                }
            }
        }

        /// The seed's accrual step: nested pair loops over each object's thread list
        /// into dense round + per-class maps, then merge.
        pub fn close_round(&mut self) -> ScalarRoundSummary {
            let objects = std::mem::take(&mut self.round_objects);
            let m = objects.len();
            let mut round_tcm = DenseTcm::new(self.n_threads);
            let mut round_per_class: HashMap<ClassId, DenseTcm> = HashMap::new();
            for (_obj, (class, accum)) in objects {
                if accum.threads.len() < 2 {
                    continue;
                }
                let class_tcm = round_per_class
                    .entry(class)
                    .or_insert_with(|| DenseTcm::new(self.n_threads));
                for a in 0..accum.threads.len() {
                    for b in (a + 1)..accum.threads.len() {
                        round_tcm.add_pair(accum.threads[a], accum.threads[b], accum.bytes);
                        class_tcm.add_pair(accum.threads[a], accum.threads[b], accum.bytes);
                    }
                }
            }
            self.tcm.merge(&round_tcm);
            for (class, map) in &round_per_class {
                self.per_class
                    .entry(*class)
                    .or_insert_with(|| DenseTcm::new(self.n_threads))
                    .merge(map);
            }
            ScalarRoundSummary {
                objects: m,
                tcm: round_tcm,
                per_class: round_per_class,
            }
        }

        /// The accumulated dense global map.
        pub fn tcm(&self) -> &DenseTcm {
            &self.tcm
        }

        /// The accumulated dense per-class maps.
        pub fn per_class(&self) -> &HashMap<ClassId, DenseTcm> {
            &self.per_class
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oal::OalEntry;

    fn entry(obj: u32, bytes: u64) -> OalEntry {
        OalEntry {
            obj: ObjectId(obj),
            class: ClassId(0),
            bytes,
        }
    }

    fn oal(thread: u32, entries: Vec<OalEntry>) -> Oal {
        Oal {
            thread: ThreadId(thread),
            interval: 0,
            entries,
        }
    }

    fn oal_at(thread: u32, interval: u64, entries: Vec<OalEntry>) -> Oal {
        Oal {
            thread: ThreadId(thread),
            interval,
            entries,
        }
    }

    #[test]
    #[should_panic(expected = "thread pair (0, 3) out of range for a 3-thread map")]
    fn out_of_range_pair_panics_instead_of_landing_on_another() {
        // Packed, (0, 3) in a 3-thread map would be the cell of (1, 2).
        Tcm::new(3).add_pair(ThreadId(0), ThreadId(3), 100.0);
    }

    #[test]
    fn every_pair_lookup_rejects_an_out_of_range_thread() {
        fn panic_message(f: impl FnOnce()) -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        }
        let (t0, t3) = (ThreadId(0), ThreadId(3));
        let expected = "thread pair (0, 3) out of range for a 3-thread map";
        assert_eq!(panic_message(|| { Tcm::new(3).at(t3, t0); }), expected);
        assert_eq!(panic_message(|| { SparseTcm::from_pairs(3, &[(t0, t3, 1.0)]); }), expected);
        assert_eq!(panic_message(|| { SparseTcm::new(3).at(t0, t3); }), expected);
    }

    #[test]
    fn tcm_is_symmetric_with_zero_diagonal() {
        let mut t = Tcm::new(3);
        t.add_pair(ThreadId(0), ThreadId(2), 10.0);
        t.add_pair(ThreadId(1), ThreadId(1), 99.0);
        assert_eq!(t.at(ThreadId(0), ThreadId(2)), 10.0);
        assert_eq!(t.at(ThreadId(2), ThreadId(0)), 10.0);
        assert_eq!(t.at(ThreadId(1), ThreadId(1)), 0.0, "diagonal stays zero");
        assert_eq!(t.total(), 20.0);
    }

    #[test]
    fn triangular_packing_indexes_every_pair_once() {
        let n = 7;
        let mut seen = vec![false; tri_len(n)];
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = tri_index(n, i, j);
                assert!(!seen[idx], "({i},{j}) collides");
                seen[idx] = true;
                assert_eq!(tri_decode(n, idx), (i, j));
            }
        }
        assert!(seen.iter().all(|&s| s), "packing is dense");
    }

    #[test]
    fn builder_accrues_common_objects_only() {
        let mut b = TcmBuilder::new(3);
        // Threads 0 and 1 share object 7; thread 2 touches only object 8.
        b.ingest(&oal(0, vec![entry(7, 100), entry(8, 50)]));
        b.ingest(&oal(1, vec![entry(7, 100)]));
        b.ingest(&oal(2, vec![entry(9, 64)]));
        let summary = b.close_round();
        assert_eq!(summary.objects, 3);
        assert_eq!(
            summary.tcm.at(ThreadId(0), ThreadId(1)),
            100.0,
            "round map matches cumulative map after one round"
        );
        let t = b.tcm();
        assert_eq!(t.at(ThreadId(0), ThreadId(1)), 100.0);
        assert_eq!(t.at(ThreadId(0), ThreadId(2)), 0.0);
        assert_eq!(t.at(ThreadId(1), ThreadId(2)), 0.0);
    }

    #[test]
    fn repeated_intervals_accumulate_across_rounds() {
        let mut b = TcmBuilder::new(2);
        for _ in 0..3 {
            b.ingest(&oal(0, vec![entry(1, 10)]));
            b.ingest(&oal(1, vec![entry(1, 10)]));
            b.close_round();
        }
        assert_eq!(b.tcm().at(ThreadId(0), ThreadId(1)), 30.0);
    }

    #[test]
    fn multi_interval_duplicate_logging_counts_once() {
        // A thread logging the same object in several intervals of one round must
        // count once per pair — with bitsets the dedup is structural (same bit).
        let mut b = TcmBuilder::new(3);
        b.ingest(&oal_at(0, 0, vec![entry(7, 100)]));
        b.ingest(&oal_at(0, 1, vec![entry(7, 100)]));
        b.ingest(&oal_at(0, 2, vec![entry(7, 100)]));
        b.ingest(&oal_at(1, 1, vec![entry(7, 100)]));
        let summary = b.close_round();
        assert_eq!(
            summary.tcm.at(ThreadId(0), ThreadId(1)),
            100.0,
            "pair accrues once despite thread 0 logging the object in 3 intervals"
        );
        assert_eq!(b.tcm().at(ThreadId(0), ThreadId(1)), 100.0);
    }

    #[test]
    fn three_way_sharing_hits_all_pairs() {
        let mut b = TcmBuilder::new(3);
        for t in 0..3 {
            b.ingest(&oal(t, vec![entry(5, 8)]));
        }
        b.close_round();
        for i in 0..3u32 {
            for j in 0..3u32 {
                let expect = if i == j { 0.0 } else { 8.0 };
                assert_eq!(b.tcm().at(ThreadId(i), ThreadId(j)), expect);
            }
        }
    }

    #[test]
    fn sharer_pair_walk_visits_each_pair_once_at_its_packed_cell() {
        // 3 words; sharers sit at both edges of every word boundary.
        let n = 150usize;
        let sharers = [0usize, 1, 62, 63, 64, 65, 127, 128, 149];
        let mut bits = vec![0u64; n.div_ceil(64)];
        for &t in &sharers {
            bits[t / 64] |= 1 << (t % 64);
        }
        let mut got = Vec::new();
        for_each_sharer_pair(&bits, n, |idx| got.push(idx));
        let mut expect = Vec::new();
        for (ai, &a) in sharers.iter().enumerate() {
            for &b in &sharers[ai + 1..] {
                expect.push(tri_index(n, a, b));
            }
        }
        assert_eq!(got, expect, "row-major, each pair exactly once");
        // Fewer than two sharers: nothing to visit.
        for_each_sharer_pair(&[1 << 7, 0, 0], n, |_| panic!("a lone sharer has no pair"));
    }

    #[test]
    fn wide_bitsets_cross_word_boundaries() {
        // 130 threads = 3 words; sharers straddle all of them.
        let mut b = TcmBuilder::new(130);
        let sharers = [0u32, 1, 63, 64, 65, 127, 128, 129];
        for &t in &sharers {
            b.ingest(&oal(t, vec![entry(42, 16)]));
        }
        let summary = b.close_round();
        for (ai, &a) in sharers.iter().enumerate() {
            for &bt in &sharers[ai + 1..] {
                assert_eq!(
                    summary.tcm.at(ThreadId(a), ThreadId(bt)),
                    16.0,
                    "pair ({a},{bt})"
                );
            }
        }
        let expected_pairs = sharers.len() * (sharers.len() - 1) / 2;
        assert_eq!(summary.tcm.total(), (expected_pairs * 2 * 16) as f64);
    }

    #[test]
    fn per_class_submaps_split_contributions() {
        let mut b = TcmBuilder::new(2);
        let c1 = OalEntry {
            obj: ObjectId(1),
            class: ClassId(1),
            bytes: 10,
        };
        let c2 = OalEntry {
            obj: ObjectId(2),
            class: ClassId(2),
            bytes: 20,
        };
        b.ingest(&oal(0, vec![c1, c2]));
        b.ingest(&oal(1, vec![c1, c2]));
        let summary = b.close_round();
        assert_eq!(b.tcm().at(ThreadId(0), ThreadId(1)), 30.0);
        // The round's sparse maps carry only the touched pair.
        assert_eq!(summary.per_class[&ClassId(1)].len(), 1);
        assert_eq!(
            summary.per_class[&ClassId(1)].at(ThreadId(0), ThreadId(1)),
            10.0
        );
        assert_eq!(
            summary.per_class[&ClassId(2)].at(ThreadId(0), ThreadId(1)),
            20.0
        );
    }

    #[test]
    fn ingest_order_does_not_matter() {
        // TCM(OALs) must be permutation-invariant within a round.
        let oals = vec![
            oal(0, vec![entry(1, 4), entry(2, 8)]),
            oal(1, vec![entry(2, 8)]),
            oal(2, vec![entry(1, 4), entry(2, 8)]),
        ];
        let mut fwd = TcmBuilder::new(3);
        for o in &oals {
            fwd.ingest(o);
        }
        fwd.close_round();
        let mut rev = TcmBuilder::new(3);
        for o in oals.iter().rev() {
            rev.ingest(o);
        }
        rev.close_round();
        assert_eq!(fwd.tcm().raw(), rev.tcm().raw());
    }

    #[test]
    fn capacity_is_retained_across_rounds() {
        let mut b = TcmBuilder::new(4);
        for t in 0..4u32 {
            b.ingest(&oal(t, (0..100).map(|o| entry(o, 8)).collect()));
        }
        b.close_round();
        let bits_cap = b.round.arena.bits.capacity();
        let records_cap = b.round.arena.records.capacity();
        assert!(bits_cap >= 100 && records_cap >= 100);
        for t in 0..4u32 {
            b.ingest(&oal(t, (0..100).map(|o| entry(o, 8)).collect()));
        }
        b.close_round();
        assert_eq!(b.round.arena.bits.capacity(), bits_cap, "bitset column reused");
        assert_eq!(b.round.arena.records.capacity(), records_cap, "record column reused");
    }

    #[test]
    fn matches_scalar_reference_exactly() {
        let mut fast = TcmBuilder::new(8);
        let mut slow = reference::ScalarTcmBuilder::new(8);
        let stream: Vec<Oal> = (0..40u32)
            .map(|k| {
                oal(
                    k % 8,
                    vec![
                        entry(k % 13, (k as u64 + 1) * 8),
                        entry((k * 3) % 13, 64),
                        OalEntry {
                            obj: ObjectId(100 + k % 5),
                            class: ClassId(2),
                            bytes: 24,
                        },
                    ],
                )
            })
            .collect();
        for o in &stream {
            fast.ingest(o);
            slow.ingest(o);
        }
        let fs = fast.close_round();
        let ss = slow.close_round();
        assert_eq!(fs.objects, ss.objects);
        for i in 0..8u32 {
            for j in 0..8u32 {
                assert_eq!(
                    fast.tcm().at(ThreadId(i), ThreadId(j)),
                    slow.tcm().at(ThreadId(i), ThreadId(j)),
                    "cumulative ({i},{j})"
                );
            }
        }
        assert_eq!(fs.per_class.len(), ss.per_class.len());
        for (class, sparse) in &fs.per_class {
            let dense = &ss.per_class[class];
            for i in 0..8u32 {
                for j in 0..8u32 {
                    assert_eq!(
                        sparse.at(ThreadId(i), ThreadId(j)),
                        dense.at(ThreadId(i), ThreadId(j)),
                        "class {class:?} ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_tcm_merges_and_decodes() {
        let t = |i| ThreadId(i);
        let mut a = SparseTcm::from_pairs(4, &[(t(0), t(1), 5.0), (t(2), t(3), 7.0)]);
        let b = SparseTcm::from_pairs(4, &[(t(1), t(0), 3.0), (t(1), t(2), 2.0)]);
        a.merge_with(&b, &mut MergeScratch::new());
        assert_eq!(a.at(t(0), t(1)), 8.0);
        assert_eq!(a.at(t(1), t(2)), 2.0);
        assert_eq!(a.at(t(2), t(3)), 7.0);
        assert_eq!(a.at(t(0), t(3)), 0.0);
        assert_eq!(a.len(), 3);
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs[0], (t(0), t(1), 8.0));
        assert!(pairs.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by row");
        assert_eq!(a.to_dense().at(t(1), t(2)), 2.0);
    }

    #[test]
    fn csv_round_trips_through_parsing() {
        let mut t = Tcm::new(3);
        t.add_pair(ThreadId(0), ThreadId(2), 12.5);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "t0,t1,t2");
        let cell: f64 = lines[1].split(',').nth(2).unwrap().parse().unwrap();
        assert_eq!(cell, 12.5);
        let diag: f64 = lines[2].split(',').nth(1).unwrap().parse().unwrap();
        assert_eq!(diag, 0.0);
        // Symmetric lower half streams from the same packed cell.
        let mirror: f64 = lines[3].split(',').next().unwrap().parse().unwrap();
        assert_eq!(mirror, 12.5);
    }

    #[test]
    fn ascii_heatmap_shape() {
        let mut t = Tcm::new(2);
        t.add_pair(ThreadId(0), ThreadId(1), 5.0);
        let art = t.ascii_heatmap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.len() == 2));
        assert_eq!(lines[0].as_bytes()[0], b' ', "zero diagonal renders blank");
        assert_eq!(lines[0].as_bytes()[1], b'@', "max renders darkest");
    }

    #[test]
    fn ascii_heatmap_downsamples_large_maps() {
        let n = 200; // step = ⌈200/64⌉ = 4 ⇒ a 50×50 grid
        let mut t = Tcm::new(n);
        t.add_pair(ThreadId(10), ThreadId(190), 64.0);
        let art = t.ascii_heatmap();
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 50, "4096-class maps render a bounded grid");
        assert!(lines.iter().all(|l| l.len() == 50));
        // The hot pair lands in bucket (10/4, 190/4) = (2, 47) and its mirror.
        assert_eq!(lines[2].as_bytes()[47], b'@');
        assert_eq!(lines[47].as_bytes()[2], b'@');
    }

    #[test]
    fn sparse_export_round_trips() {
        let mut t = Tcm::new(5);
        t.add_pair(ThreadId(0), ThreadId(3), 12.0);
        t.add_pair(ThreadId(2), ThreadId(4), 7.5);
        let s = t.to_sparse();
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_dense(), t);
    }

    #[test]
    fn merge_with_matches_the_dense_merge_and_reuses_buffers() {
        let t = |i| ThreadId(i);
        let base = SparseTcm::from_pairs(6, &[(t(0), t(1), 5.0), (t(2), t(3), 7.0)]);
        let delta = SparseTcm::from_pairs(6, &[(t(0), t(1), 3.0), (t(4), t(5), 2.0)]);
        let mut dense = base.to_dense();
        dense.merge_sparse(&delta);
        let mut scratched = base.clone();
        let mut scratch = MergeScratch::new();
        scratched.merge_with(&delta, &mut scratch);
        assert_eq!(scratched, dense.to_sparse());
        assert!(scratch.capacity() > 0, "union staged through the scratch");
        // One more merge settles both buffers at the stable union size; from
        // then on a steady-state merge must not grow either buffer.
        scratched.merge_with(&delta, &mut scratch);
        let cap_before = (scratch.capacity(), scratched.cells.capacity());
        for _ in 0..8 {
            scratched.merge_with(&delta, &mut scratch);
        }
        let cap_after = (scratch.capacity(), scratched.cells.capacity());
        assert_eq!(cap_before, cap_after, "no per-merge growth for a stable union");
        assert_eq!(scratched.at(t(0), t(1)), 5.0 + 10.0 * 3.0);
    }
}
