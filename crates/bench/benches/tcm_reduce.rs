//! X3 — TCM round-close reduction throughput (the coordinator hot loop).
//!
//! Sweeps thread count N × object population M and measures steady-state
//! round-close throughput of the seed's scalar builder (`tcm::reference`,
//! per-object `Vec<ThreadId>` + dense N×N maps rebuilt every round) against the
//! bitset/triangular pipeline (`TcmBuilder`: per-object thread bitsets, packed
//! upper-triangular accrual, sparse per-class maps, capacity retained across
//! rounds) at N∈{16,64,256}. Every cell must be bit-identical to the scalar
//! reference.
//!
//! The gate is a count, not a timing: in every cell the bitset close touches
//! fewer words per round than the scalar close ([`close_words`], a pure
//! function of the input). The close speedup is information only: it moves
//! with the host's load (2.87–4.33× at N=256/M=10⁶ on unchanged code).
//!
//! Modes:
//! - default (`cargo bench --bench tcm_reduce`): full sweep, writes
//!   `BENCH_tcm_reduce.json` at the repo root.
//! - `JESSY_SCALE=small`: smoke sweep (seconds, CI-friendly) — prints the
//!   table, checks exactness and the word counts, does not touch the
//!   checked-in JSON.

use std::time::Instant;

use jessy_bench::{mix, TextTable};
use serde::Serialize;
use jessy_core::oal::{Oal, OalEntry};
use jessy_core::tcm::reference::ScalarTcmBuilder;
use jessy_core::{RoundSummary, TcmBuilder};
use jessy_gos::{ClassId, ObjectId};
use jessy_net::ThreadId;

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

/// The emitted `BENCH_tcm_reduce.json` document.
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    results: Vec<CellReport>,
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
    scalar_close_words: u64,
    bitset_close_words: u64,
}

/// The words one round close touches — 8-byte map cells read or written,
/// bitset words scanned, touched-cell bitmap words — as `(scalar, bitset)`,
/// from the round's input and the maps the close returns. The scalar close
/// zeroes a dense `n × n` round map and one per class, writes both halves of
/// every sharer pair into two of them and merges each into its cumulative
/// twin; the bitset close scans each record's `⌈n/64⌉` bitset words, updates
/// three words per pair, and reads out, resets and writes four per touched
/// class cell.
fn close_words(n: usize, oals: &[Oal], scalar_classes: usize, bitset: &RoundSummary) -> (u64, u64) {
    // Sharers per object: one OAL per thread, naming an object at most once.
    let mut sharers: std::collections::HashMap<ObjectId, u64> = Default::default();
    for e in oals.iter().flat_map(|oal| &oal.entries) {
        *sharers.entry(e.obj).or_default() += 1;
    }
    let pairs: u64 = sharers.values().map(|&d| d * d.saturating_sub(1) / 2).sum();
    let touched: u64 = bitset.per_class.values().map(|m| m.cells().len() as u64).sum();
    (
        4 * pairs + 3 * (n * n) as u64 * (1 + scalar_classes as u64),
        bitset.objects as u64 * n.div_ceil(64) as u64 + 3 * pairs + 4 * touched,
    )
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
    /// [`close_words`]: `(scalar, bitset)`.
    words: (u64, u64),
}

impl Cell {
    /// Round-close speedup over the seed scalar builder (information only).
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

    // One more bitset round, untimed, feeds the word count: every round sees
    // the same input, so any round's count (and the scalar's classes) is every
    // round's.
    let mut counted = TcmBuilder::new(n);
    oals.iter().for_each(|o| counted.ingest(o));
    let words = close_words(n, &oals, scalar.per_class().len(), &counted.close_round());

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
        words,
    }
}

fn main() {
    let smoke = jessy_bench::scale() == jessy_bench::Scale::Small;
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
        "scalar words",
        "bitset words",
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
            c.words.0.to_string(),
            c.words.1.to_string(),
        ]);
        assert!(c.identical, "reduction must stay bit-identical to the scalar reference");
        let (scalar, bitset) = c.words;
        assert!(bitset < scalar, "N={} M={}: bitset close {bitset} words, scalar {scalar}", c.n, c.m);
        cells.push(c);
    }
    println!("{}", table.render());
    println!("close speedup = scalar round-close time / bitset round-close time, steady");
    println!("state (warmup round excluded; ingest timed separately): host-dependent,");
    println!("information only. words = words one round close touches (the gate).");

    if smoke {
        println!("\nsmoke mode: skipping BENCH_tcm_reduce.json (checked-in file is the full run)");
        return;
    }

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
                scalar_close_words: c.words.0,
                bitset_close_words: c.words.1,
            })
            .collect(),
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_tcm_reduce.json");
    std::fs::write(path, serde_json::to_string_pretty(&doc).unwrap() + "\n")
        .expect("write BENCH_tcm_reduce.json");
    println!("\nwrote {path}");
}
