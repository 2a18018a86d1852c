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
//! Modes:
//! - default (`cargo bench --bench tcm_reduce`): full sweep, writes
//!   `BENCH_tcm_reduce.json` at the repo root and asserts the acceptance bar
//!   (≥3× close speedup at N=256/M=10⁶).
//! - `JESSY_SCALE=small`: smoke sweep (seconds, CI-friendly) — prints the
//!   table, checks exactness, does not touch the checked-in JSON.

use std::time::Instant;

use jessy_bench::TextTable;
use serde::Serialize;
use jessy_core::oal::{Oal, OalEntry};
use jessy_core::tcm::reference::ScalarTcmBuilder;
use jessy_core::TcmBuilder;
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

/// The emitted `BENCH_tcm_reduce.json` document.
#[derive(Serialize)]
struct Report {
    bench: &'static str,
    mode: &'static str,
    results: Vec<CellReport>,
    acceptance: Acceptance,
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

    if smoke {
        println!("\nsmoke mode: skipping BENCH_tcm_reduce.json (checked-in file is the full run)");
        return;
    }

    let target = cells
        .iter()
        .find(|c| c.n == 256 && c.m == 1_000_000)
        .expect("acceptance cell in sweep");
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
        acceptance: Acceptance {
            threads: 256,
            objects: 1_000_000,
            required_close_speedup: 3.0,
            measured_close_speedup: target.close_speedup(),
            pass: target.close_speedup() >= 3.0,
        },
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
}
