//! Schedule identity: the executor's conservative lookahead *replaces* the
//! per-access schedule, it does not fork it (DESIGN.md §15).
//!
//! The constants below are sha256 digests of the canonical journal and of the
//! JSON run report, recorded on the commit *before* lookahead landed (per-access
//! yields, no owed yields), for all six workloads at `--scale small --nodes 4
//! --threads 8` (two threads per node, so same-node home sharing is covered)
//! plus two faulted runs (crash, partition and slow-node windows). At `exec_jitter = 0` a run must keep
//! reproducing them byte for byte. The report is hashed minus its host-time
//! fields (`wall_ns`, `tcm_build_real_ns`) and minus
//! `master.round_cost_fraction` — the one field whose value legitimately
//! depends on where *other* tasks' clocks stand when the master reads them — and
//! with `master.timeline` reduced to its change points (the encoding the
//! report itself uses since the same change).
//!
//! To re-record after an intentional schedule change:
//! `SCHEDULE_IDENTITY_PRINT=1 cargo test --release --test schedule_identity -- --nocapture`.

use jessy::net::{CrashWindow, PartitionWindow, SlowWindow};
use jessy::prelude::*;
use jessy::runtime::RebalanceConfig;
use jessy::workloads::{phase_shift, sessions};
use serde_json::Value;

const NODES: usize = 4;
const THREADS: usize = 8;

// ------------------------------------------------------------------ sha256

fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

#[test]
fn sha256_matches_the_standard_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    // Two blocks, padding in the second.
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

// ------------------------------------------------------------------ the runs

#[derive(Debug, Clone, Copy)]
enum Case {
    Bh,
    WaterRebalance,
    Sor,
    Sessions,
    Lu,
    PhaseShift,
    /// Barnes-Hut under a crash window, a healing partition (fetches stall until
    /// it heals) and a slow node.
    BhFaulted,
    /// Home-local writes plus read-only cached copies behind two partitions, one
    /// healing and one permanent: OAL batches defer, flush late, and the
    /// permanent island's are surfaced as lost when its threads drop.
    PartitionedLocal,
}

fn adaptive(mut config: ProfilerConfig) -> ProfilerConfig {
    config.adaptive_threshold = Some(0.1);
    config.drift_threshold = Some(0.3);
    config
}

/// One traced run of `case`: `(canonical journal, canonical report JSON)`.
fn run(case: Case, exec_seed: u64, exec_jitter: u64) -> (String, String) {
    let nx = |n| ProfilerConfig::tracking_at(SamplingRate::NX(n));
    let sink = JournalSink::shared();
    let mut builder = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .exec_seed(exec_seed)
        .exec_jitter(exec_jitter)
        .trace(sink.clone());
    builder = match case {
        Case::Bh | Case::Sor => builder.profiler(nx(4)),
        Case::WaterRebalance => {
            // The benchmark's `water_migrate` lane: scattered placement, nonstop
            // footprinting, 1 us stack sampling, continuous rebalancing with
            // home migration — every thread-private profiler path runs.
            let mut profiler = nx(1);
            profiler.footprint = Some(FootprintConfig {
                mode: FootprintMode::Nonstop,
                min_gap: 1,
            });
            profiler.stack = Some(StackSamplingConfig {
                gap_ns: 1000,
                lazy_extraction: true,
            });
            builder
                .profiler(profiler)
                .placement((0..THREADS).map(|t| NodeId((t % NODES) as u16)).collect())
                .rebalance(RebalanceConfig {
                    after_rounds: 1,
                    every_rounds: Some(2),
                    cooldown_rounds: 64,
                    with_prefetch: true,
                    min_gain_bytes: 64.0,
                    gain_horizon_rounds: 64.0,
                    migration_budget_bytes: None,
                    migrate_homes: true,
                })
        }
        Case::Sessions | Case::PhaseShift => builder.profiler(adaptive(nx(1))),
        // Ground truth: full-trace logging appends on every access, cache hits
        // included.
        Case::Lu => builder.profiler(ProfilerConfig::ground_truth()),
        Case::BhFaulted => builder.profiler(nx(1)).faults(FaultPlan {
            node_crashes: vec![CrashWindow {
                node: NodeId(2),
                from_interval: 2,
                until_interval: Some(5),
            }],
            partitions: vec![PartitionWindow {
                island: vec![NodeId(1)],
                from_ns: 1_000_000,
                heal_ns: Some(150_000_000),
            }],
            slow: vec![SlowWindow {
                node: NodeId(3),
                from_ns: 10_000_000,
                until_ns: Some(150_000_000),
                factor: 2.5,
            }],
            ..FaultPlan::default()
        }),
        Case::PartitionedLocal => {
            let mut profiler = nx(1);
            profiler.intervals_per_round = 1;
            profiler.round_deadline_intervals = Some(3);
            builder.profiler(profiler).faults(FaultPlan {
                partitions: vec![
                    PartitionWindow {
                        island: vec![NodeId(1)],
                        from_ns: 5_000_000,
                        heal_ns: Some(8_000_000),
                    },
                    PartitionWindow {
                        island: vec![NodeId(3)],
                        from_ns: 6_000_000,
                        heal_ns: None,
                    },
                ],
                ..FaultPlan::default()
            })
        }
    };
    let mut cluster = builder.build();
    let report = match case {
        Case::Bh | Case::BhFaulted => {
            WorkloadKind::BarnesHut.run_on(&mut cluster, WorkloadPreset::Small)
        }
        Case::WaterRebalance => {
            WorkloadKind::WaterSpatial.run_on(&mut cluster, WorkloadPreset::Small)
        }
        Case::Sor => WorkloadKind::Sor.run_on(&mut cluster, WorkloadPreset::Small),
        Case::Lu => WorkloadKind::Lu.run_on(&mut cluster, WorkloadPreset::Small),
        Case::Sessions => sessions::run_on(&mut cluster, sessions::SessionsConfig::small()),
        Case::PhaseShift => {
            phase_shift::run_on(&mut cluster, phase_shift::PhaseShiftConfig::small())
        }
        Case::PartitionedLocal => partitioned_local(&mut cluster),
    };
    (
        to_json_lines(&sink.sorted_events()),
        canonical_report(&report),
    )
}

/// Every thread writes objects homed on its own node and re-reads a read-only
/// table it cached from node 0 before the cuts begin, so behind a partition
/// only profiling and sync traffic crosses it.
fn partitioned_local(cluster: &mut Cluster) -> RunReport {
    let (own, table) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Cell", 8);
        let own: Vec<Vec<ObjectId>> = (0..NODES)
            .map(|n| {
                (0..4)
                    .map(|_| ctx.alloc_scalar_at(NodeId(n as u16), class).id)
                    .collect()
            })
            .collect();
        let table: Vec<ObjectId> = (0..8)
            .map(|_| ctx.alloc_scalar_at(NodeId(0), class).id)
            .collect();
        (own, table)
    });
    cluster.run(move |jt| {
        for &obj in &table {
            jt.read(obj, |_| {});
        }
        let mine = &own[jt.node().index()];
        for round in 0..40usize {
            for (k, &obj) in mine.iter().enumerate() {
                jt.write(obj, |d| d[0] += 1.0);
                jt.read(table[(round + k) % table.len()], |_| {});
                jt.compute(300 + 40 * jt.thread_id().0 as u64);
            }
            jt.barrier();
        }
    });
    cluster.report()
}

/// Report JSON minus the fields the module docs name.
fn canonical_report(report: &RunReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    let mut value: Value = serde_json::from_str(&json).expect("report parses back");
    canonicalize(&mut value);
    serde_json::to_string(&value).expect("value serializes")
}

fn canonicalize(v: &mut Value) {
    match v {
        Value::Object(pairs) => {
            pairs.retain(|(k, _)| {
                !matches!(
                    k.as_str(),
                    "wall_ns" | "tcm_build_real_ns" | "round_cost_fraction"
                )
            });
            for (k, child) in pairs.iter_mut() {
                if k == "timeline" {
                    change_points(child);
                }
                canonicalize(child);
            }
        }
        Value::Array(items) => items.iter_mut().for_each(canonicalize),
        _ => {}
    }
}

/// Keep a timeline row only when it differs from the previous row in anything
/// but its round id.
fn change_points(timeline: &mut Value) {
    let Value::Array(rows) = timeline else { return };
    let sans_round = |row: &Value| -> Vec<(String, Value)> {
        row.as_object()
            .expect("timeline rows are objects")
            .iter()
            .filter(|(k, _)| k != "round")
            .cloned()
            .collect()
    };
    let mut kept: Vec<Value> = Vec::new();
    for row in rows.drain(..) {
        if kept
            .last()
            .is_none_or(|prev| sans_round(prev) != sans_round(&row))
        {
            kept.push(row);
        }
    }
    *rows = kept;
}

// ------------------------------------------------------------------ constants

/// `(case, journal sha256, report sha256)`, recorded on the pre-lookahead
/// parent commit.
const RECORDED: [(Case, &str, &str); 8] = [
    (
        Case::Bh,
        "c5046c53ea297fb57702b45896b2074b3c5403007aea95c2e8011ad3b99de4a7",
        "ff744107c9797aac92d2004c8c457b0b78018eb9194df582abe3318976578e4f",
    ),
    (
        Case::WaterRebalance,
        "b72580f3c72996e2e8dbe609009b05a16f6d7f5933d5a5d892466e373b378277",
        "058a91e6073eb19b6c5b9cee0ae23fc093dae005aaf9e57c696090ca3798c6ac",
    ),
    (
        Case::Sor,
        "6d32f5998ba945bc82b3cf578eba1e5bdaed4594c354b8cbb0752496a9cf41d8",
        "b2f37a503e239a1449c50289beeab764eb978cff49c2b385fee21a11c5f65653",
    ),
    (
        Case::Sessions,
        "2ee7331b4a04dd86a7fcd2fd37b3747085fc4abf20946807e8c6cd49d2a6d1fb",
        "10cec45ffb4b2a6bebfd0e9e6ec7ce39f3c93017eeaf75dd01c99eb11585351b",
    ),
    (
        Case::Lu,
        "1e24ade85687b6ca60fb862e03e2b7e7c57a4cda3556b8b2e21c7313ce3c46cf",
        "18510a0d637b9e87b208971a45e100e25f7565d1ff3fd88be530b8f1cedf4d44",
    ),
    (
        Case::PhaseShift,
        "867549104aeae07d5a99bee1581254f371382e0a869ec012bc8f217946752bc7",
        "6dd9d7bd02882e260207c916f9f7199584bc9e7f80bc062b81299d11f6ef5d76",
    ),
    (
        Case::BhFaulted,
        "6b64880e29a3651e380f6db264fed9c5e78c5106606bc5204e1415cf74bbdc3e",
        "1fa355d81cc6b1faf3c3bda94f4196fc8b8591cb89d33329cf4ab845d3fb6c8f",
    ),
    (
        Case::PartitionedLocal,
        "092efac5320f6678466dcf4686217111b44ef93f4babc9fcfecaaaae7a40cb1d",
        "157df5e29df3644cc7bb79100425bbe167a7d3451d508379031e83685f47fdcb",
    ),
];

#[test]
fn journals_and_reports_match_the_pre_lookahead_schedule() {
    let print = std::env::var_os("SCHEDULE_IDENTITY_PRINT").is_some();
    let mut mismatches = Vec::new();
    for (case, journal_sha, report_sha) in RECORDED {
        let (journal, report) = run(case, 0, 0);
        assert!(!journal.is_empty(), "{case:?}: the run journaled nothing");
        let got = (
            sha256_hex(journal.as_bytes()),
            sha256_hex(report.as_bytes()),
        );
        if print {
            println!("    (Case::{case:?}, \"{}\", \"{}\"),", got.0, got.1);
            println!(
                "    // {case:?}: {} journal bytes, {} report bytes",
                journal.len(),
                report.len()
            );
        } else if got.0 != journal_sha || got.1 != report_sha {
            mismatches.push(format!(
                "{case:?}: journal {} (recorded {journal_sha}), report {} (recorded {report_sha})",
                got.0, got.1
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "schedule forked:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn jittered_schedules_replay_byte_for_byte() {
    for case in [
        Case::Bh,
        Case::WaterRebalance,
        Case::Sessions,
        Case::BhFaulted,
        Case::PartitionedLocal,
    ] {
        let a = run(case, 7, 500);
        let b = run(case, 7, 500);
        assert_eq!(a.0, b.0, "{case:?}: journal must replay under jitter");
        assert_eq!(a.1, b.1, "{case:?}: report must replay under jitter");
    }
}

// ------------------------------------------------------------------ hand-offs

/// Barnes-Hut small on 8 nodes / 8 threads: `(executor hand-offs, accesses)`.
fn bh_handoffs() -> (u64, u64) {
    let mut cluster = Cluster::builder()
        .nodes(8)
        .threads(8)
        .profiler(ProfilerConfig::tracking_at(SamplingRate::NX(4)))
        .build();
    let report = WorkloadKind::BarnesHut.run_on(&mut cluster, WorkloadPreset::Small);
    (cluster.shared().exec.handoffs(), report.proto.accesses)
}

/// The point of lookahead, as a count that replays exactly: most Barnes-Hut
/// accesses hit the thread's own cache copies, so the run token changes
/// carrier on a minority of them (every access handed off before: > 1.0).
#[test]
fn private_accesses_do_not_hand_the_token_off() {
    let (handoffs, accesses) = bh_handoffs();
    let per_access = handoffs as f64 / accesses as f64;
    assert!(
        per_access < 0.35,
        "{handoffs} hand-offs over {accesses} accesses = {per_access:.3} per access"
    );
    assert_eq!(
        (handoffs, accesses),
        bh_handoffs(),
        "hand-offs are a pure function of the schedule"
    );
}

/// A compute-only stretch keeps its per-call scheduling points: two threads
/// advancing in lockstep without touching an object trade the token on every
/// call. Only a `compute` that directly follows an access joins that access's
/// step.
#[test]
fn compute_only_stretches_still_yield_per_call() {
    const CALLS: u64 = 200;
    let mut cluster = Cluster::builder().nodes(2).threads(2).build();
    cluster.run(|jt| {
        for _ in 0..CALLS {
            jt.compute(10);
        }
    });
    let handoffs = cluster.shared().exec.handoffs();
    assert!(
        handoffs >= 2 * CALLS - 2,
        "{handoffs} hand-offs over {} lockstep compute calls",
        2 * CALLS
    );
}
