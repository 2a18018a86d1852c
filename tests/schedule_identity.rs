//! Schedule identity: the executor's conservative lookahead *replaces* the
//! per-access schedule, it does not fork it (DESIGN.md §15).
//!
//! The constants below are sha256 digests of the canonical journal and of the
//! JSON run report, recorded on the commit *before* lookahead landed (per-access
//! yields, no owed yields), for all six workloads at `--scale small --nodes 4
//! --threads 8` (two threads per node, so same-node home sharing is covered)
//! plus two faulted runs (crash, partition and slow-node windows). At `exec_jitter = 0` a run must keep
//! reproducing them byte for byte. The report is hashed minus its host-time
//! fields (`wall_ns`, `tcm_build_real_ns`); the journal is hashed minus each
//! `RoundClosed` event's `cost_fraction` — the one field whose value
//! legitimately depends on where *other* tasks' clocks stand when the master
//! reads them (it was the report's `master.round_cost_fraction` until the
//! report stopped keeping per-round series).
//!
//! To re-record after an intentional schedule change:
//! `SCHEDULE_IDENTITY_PRINT=1 cargo test --release --test schedule_identity -- --nocapture`.
//!
//! Since the contract was tightened (a scheduling point precedes every visible
//! action and none follows; home hits on an object only this thread holds an
//! entry for are private) the file also holds a differential oracle that needs
//! no recorded constant — the same program with an explicit scheduling point
//! after every access and compute call — hand-off budgets that replay exactly
//! for all six workloads, the ways an object stops being private to its first
//! toucher, and two deliberately racy first shares.

use std::sync::{Arc, OnceLock};

use jessy::net::{CrashWindow, MasterCrashWindow, PartitionWindow, SlowWindow};
use jessy::prelude::*;
use jessy::runtime::RebalanceConfig;
use jessy::workloads::{phase_shift, sessions};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
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
    let (events, report) = run_case(case, exec_seed, exec_jitter);
    (canonical_journal(&events), canonical_report(&report))
}

/// One traced run of `case`: its journal and its report.
fn run_case(case: Case, exec_seed: u64, exec_jitter: u64) -> (Vec<TraceEvent>, RunReport) {
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
    (sink.sorted_events(), report)
}

/// The journal as JSON lines, minus each `RoundClosed` event's `cost_fraction`
/// (see the module docs).
fn canonical_journal(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for line in to_json_lines(events).lines() {
        let cost = line.find(",\"cost_fraction\":").filter(|_| line.contains("{\"RoundClosed\":"));
        match cost {
            Some(at) => {
                let end = at + line[at..].find('}').expect("the event object closes");
                out.push_str(&line[..at]);
                out.push_str(&line[end..]);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
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
            pairs.retain(|(k, _)| !matches!(k.as_str(), "wall_ns" | "tcm_build_real_ns"));
            for (_, child) in pairs.iter_mut() {
                canonicalize(child);
            }
        }
        Value::Array(items) => items.iter_mut().for_each(canonicalize),
        _ => {}
    }
}

// ------------------------------------------------------------------ constants

/// `(case, journal sha256, report sha256)`, recorded on the pre-lookahead
/// parent commit. Every report digest was re-recorded once when the report
/// stopped keeping per-round series (`master.timeline`,
/// `master.round_cost_fraction`, `placement.intra_trajectory`, and
/// `skipped_rate_changes` as a list): each new digest equals the old report's
/// with those fields projected out and the skipped list replaced by its
/// length, and no journal digest moved. They were re-recorded once more when
/// the master's list of hottest pairs left the report: each equals the
/// previous report's digest with that key projected out, and again no journal
/// digest moved. A third re-recording followed the removal of the tree
/// reducer's counters (`master.reduce`): each equals the previous report's
/// digest with that key projected out, and no journal digest moved. A fourth
/// followed when `master.round_coverage` became the lowest round's coverage:
/// each equals the previous report's digest with that list replaced by its
/// minimum, and no journal digest moved (nor did any when `compute` stopped
/// being a scheduling point of its own).
const RECORDED: [(Case, &str, &str); 8] = [
    (
        Case::Bh,
        "c5046c53ea297fb57702b45896b2074b3c5403007aea95c2e8011ad3b99de4a7",
        "39e92710d2a0d242c2f7d212ad1ac995f0297cae7b91d1615db0defab4fe32a0",
    ),
    // Re-recorded three times, each time because simulated clocks moved by design
    // and no schedule rule changed — the other seven cases and the constant-free
    // oracle held untouched every time: when the stack sampler learned to back off
    // (the only case with a sampler), when a migration's home relocation became one
    // `ObjData` message per link instead of one per object (the only case that
    // migrates: the mover's clock moved, and its bytes and home-repair totals), and
    // when the placement engine learned to land groups on the node that homes their
    // data (the plan swaps t1 1->0 and t4 0->1 instead of t0 0->1 and t5 1->0,
    // and movers stopped carrying homes: 0 instead of 72).
    (
        Case::WaterRebalance,
        "17c170d3c619fef97b1b506bbcdbd40b6d2ee23cc1d96c78351cceacf9ae1c20",
        "88b32002b752b08502e062835b34fdada276e5d431ed147a91836fa02fc32b8e",
    ),
    (
        Case::Sor,
        "6d32f5998ba945bc82b3cf578eba1e5bdaed4594c354b8cbb0752496a9cf41d8",
        "ff93086029b07b5687c30fbeb7b20e86c1b0a991e505a7a5e8be6f1c437cf7bf",
    ),
    (
        Case::Sessions,
        "2ee7331b4a04dd86a7fcd2fd37b3747085fc4abf20946807e8c6cd49d2a6d1fb",
        "e8472164386b4a9dc30d853d280ba9101f09f19732772697e248b63f761659a7",
    ),
    (
        Case::Lu,
        "1e24ade85687b6ca60fb862e03e2b7e7c57a4cda3556b8b2e21c7313ce3c46cf",
        "198ea019504ea456af663795645addbf0b1f4140391b29f27738ae621785aebc",
    ),
    (
        Case::PhaseShift,
        "867549104aeae07d5a99bee1581254f371382e0a869ec012bc8f217946752bc7",
        "b6f032ff98ccfb3de235684376506c9be8cd15472f1d030aec2f29953ef16a4b",
    ),
    (
        Case::BhFaulted,
        "6b64880e29a3651e380f6db264fed9c5e78c5106606bc5204e1415cf74bbdc3e",
        "3c06d750d40532bd25f016510135cebe180c2be739b52d78cbd499e18490bcc0",
    ),
    (
        Case::PartitionedLocal,
        "092efac5320f6678466dcf4686217111b44ef93f4babc9fcfecaaaae7a40cb1d",
        "8a0221ba058b420eff7782df064f360c6fc3792f5e74f912be44ac25fdb5f4db",
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

/// One place per fact: the report's lowest coverage and its totals agree
/// with the journal's rounds (each round's last close), skips and planning
/// epochs, on every recorded case and on a run whose master crashes and
/// re-closes the rounds after its checkpoint.
#[test]
fn the_journal_and_the_report_agree_on_every_round() {
    for (case, ..) in RECORDED {
        let (events, report) = run_case(case, 0, 0);
        assert_journal_agrees(&format!("{case:?}"), &events, &report, None);
    }
    let budget = 0.001;
    let profiler = ProfilerConfig {
        overhead_budget: Some(budget),
        checkpoint_every_rounds: Some(3),
        ..adaptive(ProfilerConfig::tracking_at(SamplingRate::NX(1)))
    };
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .profiler(profiler)
        .rebalance(RebalanceConfig {
            after_rounds: 1,
            every_rounds: Some(2),
            ..RebalanceConfig::default()
        })
        .faults(FaultPlan {
            master_crashes: vec![MasterCrashWindow { from_interval: 6, until_interval: 9 }],
            ..FaultPlan::default()
        })
        .trace(sink.clone())
        .build();
    let report = phase_shift::run_on(&mut cluster, phase_shift::PhaseShiftConfig::small());
    let master = report.master.as_ref().expect("the master ran");
    assert_eq!(master.restores, 1, "the crash window restarts the master");
    assert!(master.budget_over_rounds > 0 && master.placement.plans > 0, "{master:?}");
    assert_journal_agrees("master crash", &sink.sorted_events(), &report, Some(budget));
}

fn assert_journal_agrees(label: &str, events: &[TraceEvent], report: &RunReport, budget: Option<f64>) {
    let master = report.master.as_ref().expect("the master ran");
    let series = jessy::obs::round_series(events);
    let rounds: Vec<u64> = series.rounds.iter().map(|r| r.round).collect();
    assert_eq!(rounds, (0..master.rounds).collect::<Vec<_>>(), "{label}: closed rounds");
    let lowest = series.rounds.iter().map(|r| r.coverage).reduce(f64::min);
    assert_eq!(lowest, master.round_coverage, "{label}: lowest coverage");
    let over = budget.map_or(0, |budget| series.over_budget(budget));
    assert_eq!(over, master.budget_over_rounds, "{label}: rounds over budget");
    // A re-closed round journals its skip or its plan again.
    let rounds_of = |pick: fn(&EventKind) -> Option<u64>| {
        events.iter().filter_map(|e| pick(&e.kind)).collect::<std::collections::BTreeSet<_>>().len() as u64
    };
    let skipped = rounds_of(|k| match k {
        EventKind::RoundSkipped { round, .. } => Some(*round),
        _ => None,
    });
    assert_eq!(skipped, master.skipped_rounds, "{label}: skipped rounds");
    let planned = rounds_of(|k| match k {
        EventKind::PlacementPlanned { round, .. } => Some(*round),
        _ => None,
    });
    assert_eq!(planned, master.placement.plans, "{label}: planning epochs");
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

/// `(executor hand-offs, accesses)` of one run on a `nodes`/`threads` cluster
/// profiled at `NX(4)`.
fn handoffs_of(
    nodes: usize,
    threads: usize,
    run: impl Fn(&mut Cluster) -> RunReport,
) -> (u64, u64) {
    let mut cluster = Cluster::builder()
        .nodes(nodes)
        .threads(threads)
        .profiler(ProfilerConfig::tracking_at(SamplingRate::NX(4)))
        .build();
    let report = run(&mut cluster);
    (cluster.shared().exec.handoffs(), report.proto.accesses)
}

/// A run moves the token to another task at most `budget` times per access, and
/// exactly as often when repeated: hand-offs are a pure function of the
/// schedule.
fn assert_handoff_budget(
    what: &str,
    nodes: usize,
    threads: usize,
    budget: f64,
    run: impl Fn(&mut Cluster) -> RunReport,
) {
    let (handoffs, accesses) = handoffs_of(nodes, threads, &run);
    let per_access = handoffs as f64 / accesses as f64;
    assert!(
        per_access <= budget,
        "{what}: {handoffs} hand-offs over {accesses} accesses = {per_access:.3} per access \
         (budget {budget})"
    );
    assert_eq!(
        (handoffs, accesses),
        handoffs_of(nodes, threads, &run),
        "{what}: hand-offs must replay exactly"
    );
}

/// The point of lookahead, as a count that replays exactly: most Barnes-Hut
/// accesses hit the thread's own cache copies, so the run token moves to
/// another task on a minority of them (every access handed off before PR 16:
/// > 1.0; 0.153 while a yield still followed every visible action).
#[test]
fn private_accesses_do_not_hand_the_token_off() {
    assert_handoff_budget("bh small 8/8", 8, 8, 0.15, |c| {
        WorkloadKind::BarnesHut.run_on(c, WorkloadPreset::Small)
    });
}

/// Sessions writes its per-session scratch object on every op: a home hit on
/// an object only its allocator can reach, private since thread-local objects
/// are (1.295 hand-offs per access before). What remains is the shared
/// catalogue items, one visible access per op.
#[test]
fn thread_local_scratch_objects_do_not_hand_the_token_off() {
    assert_handoff_budget("sessions small 8/64", 8, 64, 0.60, |c| {
        sessions::run_on(c, sessions::SessionsConfig::small())
    });
}

/// A visible access is preceded by one scheduling point and followed by none
/// (SOR: 1.298 hand-offs per access while a yield also followed, 1.004 while
/// every home hit on a set-up object was visible, 0.454 while armed traps
/// were). SOR's interior rows are only ever touched by the thread that sweeps
/// them, so hits on them are private, the first one per interval — whose trap
/// is armed — included; what still hands off is the boundary rows two threads
/// touch, each row's first touch, and the barriers (521 hand-offs over 1 488
/// accesses).
#[test]
fn a_visible_access_costs_one_scheduling_point() {
    assert_handoff_budget("sor small 8/8", 8, 8, 0.36, |c| {
        WorkloadKind::Sor.run_on(c, WorkloadPreset::Small)
    });
}

/// The other three workloads, so a schedule-cost regression on any of the six
/// shows as a count, not as wall-clock. Water-Spatial reads a molecule, then
/// computes over it in stretches that touch nothing another task sees, so
/// those stretches pass without a hand-off (645 hand-offs over 2 382 accesses;
/// 1 711 while every `compute` after the first of a stretch was a scheduling
/// point). LU is a handful of block accesses between barriers (278 hand-offs
/// over 90 accesses, nearly all of them barrier wake-ups), `phase_shift` cells
/// that a pair of threads sweeps together (3 072 over 10 032).
#[test]
fn the_remaining_workloads_keep_their_handoff_budgets() {
    assert_handoff_budget("water small 8/8", 8, 8, 0.28, |c| {
        WorkloadKind::WaterSpatial.run_on(c, WorkloadPreset::Small)
    });
    assert_handoff_budget("lu small 8/8", 8, 8, 3.1, |c| {
        WorkloadKind::Lu.run_on(c, WorkloadPreset::Small)
    });
    assert_handoff_budget("phase_shift small 8/8", 8, 8, 0.31, |c| {
        phase_shift::run_on(c, phase_shift::PhaseShiftConfig::small())
    });
}

/// A `compute` call is never a scheduling point: two threads advancing in
/// lockstep without touching an object hand the token off a small constant
/// number of times (the first yields and the exits), not once per call, and
/// the count replays exactly.
#[test]
fn compute_only_stretches_pass_without_a_hand_off() {
    const CALLS: u64 = 200;
    let handoffs = || {
        let mut cluster = Cluster::builder().nodes(2).threads(2).build();
        cluster.run(|jt| {
            for _ in 0..CALLS {
                jt.compute(10);
            }
        });
        cluster.shared().exec.handoffs()
    };
    let first = handoffs();
    assert!(
        first <= 6,
        "{first} hand-offs over {} lockstep compute calls",
        2 * CALLS
    );
    assert_eq!(first, handoffs(), "hand-offs must replay exactly");
}

// ------------------------------------------------------------------ sole-holder objects

/// Two threads on two nodes, each looping `write` + `compute(5)` over one
/// object of its own that nobody else touches: allocated in the body or by
/// the setup code. Returns the executor's hand-offs.
fn own_object_loop_handoffs(allocate_in_body: bool) -> u64 {
    const ROUNDS: usize = 100;
    let mut cluster = Cluster::builder().nodes(2).threads(2).build();
    let (class, preset) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Own", 2);
        let preset: Vec<ObjectId> = (0..2)
            .map(|n| ctx.alloc_scalar_at(NodeId(n), class).id)
            .collect();
        (class, preset)
    });
    cluster.run(move |jt| {
        let obj = if allocate_in_body {
            jt.alloc_scalar(class).id
        } else {
            preset[jt.thread_id().index()]
        };
        for _ in 0..ROUNDS {
            jt.write(obj, |d| d[0] += 1.0);
            jt.compute(5);
        }
        assert_eq!(jt.read(obj, |d| d[0]), ROUNDS as f64);
    });
    cluster.shared().exec.handoffs()
}

/// Objects only one thread holds an entry for need no coordination, whoever
/// allocated them: the two loops run back to back (404 hand-offs while home
/// hits were visible and yields followed them; 204 over setup-allocated
/// objects while those counted as shared from birth).
#[test]
fn loops_over_thread_local_objects_run_back_to_back() {
    for (allocate_in_body, what) in [(true, "allocated mid-run"), (false, "setup-allocated")] {
        let handoffs = own_object_loop_handoffs(allocate_in_body);
        assert!(handoffs < 10, "{handoffs} hand-offs over {what} objects");
    }
}

/// The classification `JThread` makes before an access.
fn is_private(jt: &JThread, obj: ObjectId) -> bool {
    jt.space()
        .is_private_hit(obj, || jt.gos().is_local_to(obj, jt.thread_id()))
}

/// An object — here allocated by the setup code, which plays no part — is
/// private to the first thread that touches it, and stops being so once a
/// second thread touches it, once it is prefetched into another arena, once it
/// is the target of a reference edge and once its home moves. Arriving first
/// from another node claims too, so the home-node thread arriving second ends
/// up sharing; the owner's own migration away and back gives nothing up.
#[test]
fn sharing_revokes_privacy() {
    let cluster = Cluster::builder()
        .nodes(2)
        .threads(2)
        .prefetch_depth(1)
        .build();
    let (class, objs, remote) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Node", 2);
        let objs: Vec<ObjectId> = (0..6)
            .map(|_| ctx.alloc_scalar_at(NodeId(0), class).id)
            .collect();
        // A set-up edge: whoever fetches `objs[0]` gets `objs[1]` on the reply.
        ctx.add_ref(objs[0], objs[1]);
        (class, objs, ctx.alloc_scalar_at(NodeId(1), class).id)
    });
    let mut owner = cluster.adopt_thread(ThreadId(0));
    let mut other = cluster.adopt_thread(ThreadId(1));
    let fresh = owner.alloc_scalar(class).id;
    let is_local_to = |jt: &JThread, obj| jt.gos().is_local_to(obj, jt.thread_id());

    assert!(!is_private(&owner, objs[0]), "the first touch is visible");
    assert!(!is_local_to(&owner, objs[0]) && !is_local_to(&owner, fresh));
    for &obj in objs.iter().chain([&fresh, &remote]) {
        owner.write(obj, |d| d[0] = 1.0);
    }
    assert!(objs.iter().chain([&fresh]).all(|&o| is_private(&owner, o)));
    assert!(is_local_to(&owner, remote), "claimed from the other node");

    other.read(objs[0], |_| {});
    assert_eq!(other.space().access_state(objs[1]), Some(AccessState::Valid));
    owner.add_ref(fresh, objs[2]);
    owner.set_refs(fresh, vec![objs[3]]);
    assert_eq!(
        owner
            .gos()
            .relocate_homes([(objs[4], NodeId(1))], owner.clock())
            .0,
        1
    );
    for &obj in &objs[..5] {
        assert!(!is_private(&owner, obj), "{obj} was shared");
    }
    assert!(is_private(&owner, objs[5]) && is_private(&owner, fresh));
    assert!(
        is_private(&other, objs[0]) && is_private(&other, objs[1]),
        "cache copies are private as ever"
    );

    other.write(remote, |d| d[0] = 2.0);
    assert!(!is_local_to(&owner, remote) && !is_local_to(&other, remote));
    assert!(!is_private(&other, remote), "its home hits are visible from the start");

    owner.migrate_to(NodeId(1), false);
    assert!(!is_private(&owner, objs[5]), "first touch from the new node faults");
    owner.write(objs[5], |d| d[0] += 1.0);
    assert_eq!(owner.space().access_state(objs[5]), Some(AccessState::Valid));
    assert!(is_local_to(&owner, objs[5]), "nobody else came");
    owner.migrate_to(NodeId(0), false);
    owner.write(objs[5], |d| d[0] += 1.0);
    assert_eq!(owner.space().access_state(objs[5]), Some(AccessState::Home));
    assert!(is_private(&owner, objs[5]));
    assert_eq!(owner.read(objs[5], |d| d[0]), 3.0);
}

/// The owner's own migration shares nothing: its entry becomes a cache copy on
/// the new node (private as any cache hit), its writes reach the home as
/// diffs, and back on the home node the entry is home-resident and private
/// again.
#[test]
fn a_local_object_follows_its_migrating_owner() {
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(2)
        .profiler(ProfilerConfig::tracking_at(SamplingRate::NX(1)))
        .build();
    let class = cluster.init(|ctx| ctx.register_scalar_class("Scratch", 2));
    let allocated = Arc::new(OnceLock::new());
    let out = Arc::clone(&allocated);
    cluster.run(move |jt| {
        if jt.thread_id().0 != 0 {
            jt.barrier();
            jt.barrier();
            return;
        }
        let obj = jt.alloc_scalar(class).id;
        out.set(obj).expect("set once");
        let bump = |jt: &mut JThread| {
            for _ in 0..10 {
                jt.write(obj, |d| d[0] += 1.0);
                jt.compute(5);
            }
        };
        bump(jt);
        assert_eq!(jt.space().access_state(obj), Some(AccessState::Home));
        assert!(is_private(jt, obj));

        jt.migrate_to(NodeId(1), false);
        assert!(!is_private(jt, obj), "first touch from the new node faults");
        bump(jt);
        assert_eq!(jt.space().access_state(obj), Some(AccessState::Valid));
        assert!(is_private(jt, obj), "a cache hit now");
        assert!(jt.gos().is_local_to(obj, jt.thread_id()), "nobody else came");
        jt.barrier(); // the diff goes home
        assert_eq!(jt.read(obj, |d| d[0]), 20.0);

        jt.migrate_to(NodeId(0), false);
        bump(jt);
        assert_eq!(jt.space().access_state(obj), Some(AccessState::Home));
        assert!(is_private(jt, obj));
        jt.barrier();
    });
    let obj = *allocated.get().expect("thread 0 ran");
    assert_eq!(cluster.shared().gos.object(obj).snapshot_home()[0], 30.0);
}

// ------------------------------------------------------------------ differential oracle

/// A `JThread` that, when `per_access` is set, takes an explicit scheduling
/// point after every access and every `compute` call — the schedule in force
/// before any lookahead, which yielded after exactly those and nothing else.
struct Driver<'a> {
    jt: &'a mut JThread,
    per_access: bool,
}

impl Driver<'_> {
    fn step(&mut self) {
        if self.per_access {
            self.jt.yield_now();
        }
    }

    fn read<R>(&mut self, obj: ObjectId, f: impl FnOnce(&[f64]) -> R) -> R {
        let r = self.jt.read(obj, f);
        self.step();
        r
    }

    fn write<R>(&mut self, obj: ObjectId, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let r = self.jt.write(obj, f);
        self.step();
        r
    }

    fn compute(&mut self, units: u64) {
        self.jt.compute(units);
        self.step();
    }
}

/// What the threads of a differential program read, as `(thread, value)` in
/// each thread's program order: payload values reach neither the journal nor
/// the report, and they are where a reordered home write would show.
type Observed = Arc<Mutex<Vec<(usize, f64)>>>;

fn observe(seen: &Observed, thread: usize, value: f64) {
    seen.lock().push((thread, value));
}

/// The two middle phases the sharing programs have in common, each closed by
/// a barrier: read the neighbour's object `theirs` a few times; then keep
/// writing `mine` under `lock`, reading `theirs` outside it. `before_barrier`
/// runs at the end of the first.
fn share_under_sync(
    d: &mut Driver<'_>,
    seen: &Observed,
    (mine, theirs, lock): (ObjectId, ObjectId, LockId),
    before_barrier: impl FnOnce(&mut Driver<'_>),
) {
    let t = d.jt.thread_id().index();
    for _ in 0..4 {
        observe(seen, t, d.read(theirs, |p| p[0]));
        d.compute(30);
    }
    before_barrier(d);
    d.jt.barrier();

    for _ in 0..3 {
        d.jt.lock(lock);
        d.write(mine, |p| p[1] += 1.0);
        d.compute(15);
        d.jt.unlock(lock);
        observe(seen, t, d.read(theirs, |p| p[1]));
        d.compute(25 + 3 * t as u64);
    }
    d.jt.barrier();
}

/// Build privately, publish, share: every thread allocates an object, fills it
/// with a dozen writes, hangs it off its own pre-allocated root and enters a
/// barrier; then reads its neighbour's object while the owners keep writing
/// theirs under one lock. The last phase is the one a wrongly private home
/// write would break: every owner keeps writing its — by now published —
/// object at its own pace while a thread that never touched it fetches it,
/// unsynchronized, so the value fetched is the count of writes that precede
/// the fetch in virtual time.
fn build_publish_share(cluster: &mut Cluster, per_access: bool, seen: &Observed) -> RunReport {
    let (class, roots, lock) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Node", 8);
        let roots: Vec<ObjectId> = (0..THREADS)
            .map(|t| ctx.alloc_scalar_at(NodeId((t * NODES / THREADS) as u16), class).id)
            .collect();
        (class, roots, ctx.register_lock())
    });
    let seen = Arc::clone(seen);
    cluster.run(move |jt| {
        let t = jt.thread_id().index();
        let mut d = Driver { jt, per_access };
        let mine = d.jt.alloc_scalar(class).id;
        for k in 0..12 {
            d.write(mine, |p| p[k % 8] += 1.0 + t as f64);
            d.compute(20 + 7 * t as u64);
        }
        d.jt.add_ref(roots[t], mine);
        d.jt.barrier();

        let object_of = |d: &Driver<'_>, owner: usize| {
            d.jt.gos().object(roots[owner % THREADS]).refs()[0]
        };
        let theirs = object_of(&d, t + 1);
        share_under_sync(&mut d, &seen, (mine, theirs, lock), |_| {});

        for _ in 0..10 {
            d.write(mine, |p| p[2] += 1.0);
            d.compute(10 + 5 * t as u64);
        }
        let slower = object_of(&d, t + 2);
        observe(&seen, t, d.read(slower, |p| p[2]));
        d.jt.barrier();
    });
    cluster.report()
}

/// Claim by first touch, then share — on objects the setup code allocated,
/// nothing published, nothing allocated mid-run. Every thread first-touches a
/// block of three objects homed at its node and fills it with a dozen rounds
/// of writes (thread 0 also reaches `stray`, homed two nodes away, before
/// anyone there does); after a barrier it reads its neighbour's first object —
/// the second toucher — and `stray`'s home-node thread arrives at `stray`; then
/// the owners keep writing that first object under one lock while the
/// neighbour re-reads it. The last phase is again the one a wrongly private
/// home write would break: every owner writes its first object — two threads
/// hold it by now — and an object still its own at its own pace, and the
/// neighbour, whose copy the previous phase invalidated, re-fetches it
/// unsynchronized, so the value fetched is the count of writes that precede
/// the fetch in virtual time; thread 0 does the same to `stray`.
fn claim_share(cluster: &mut Cluster, per_access: bool, seen: &Observed) -> RunReport {
    const STRAY_HOME_THREAD: usize = 5;
    let (blocks, stray, lock) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Row", 8);
        let node_of = |t: usize| NodeId((t * NODES / THREADS) as u16);
        let blocks: Vec<Vec<ObjectId>> = (0..THREADS)
            .map(|t| {
                (0..3)
                    .map(|_| ctx.alloc_scalar_at(node_of(t), class).id)
                    .collect()
            })
            .collect();
        let stray = ctx.alloc_scalar_at(node_of(STRAY_HOME_THREAD), class).id;
        (blocks, stray, ctx.register_lock())
    });
    let seen = Arc::clone(seen);
    cluster.run(move |jt| {
        let t = jt.thread_id().index();
        let mut d = Driver { jt, per_access };
        let (mine, inner) = (blocks[t][0], blocks[t][1]);
        let theirs = blocks[(t + 1) % THREADS][0];
        for k in 0..12 {
            for &obj in &blocks[t] {
                d.write(obj, |p| p[k % 8] += 1.0 + t as f64);
                d.compute(20 + 7 * t as u64);
            }
        }
        if t == 0 {
            d.write(stray, |p| p[0] = 1.0);
        }
        d.jt.barrier();

        share_under_sync(&mut d, &seen, (mine, theirs, lock), |d| {
            if t == STRAY_HOME_THREAD {
                observe(&seen, t, d.write(stray, |p| std::mem::replace(&mut p[0], 2.0)));
            }
        });

        for _ in 0..10 {
            d.write(mine, |p| p[2] += 1.0);
            d.write(inner, |p| p[2] += 1.0);
            if t == STRAY_HOME_THREAD {
                d.write(stray, |p| p[2] += 1.0);
            }
            d.compute(10 + 5 * t as u64);
        }
        observe(&seen, t, d.read(theirs, |p| p[2]));
        if t == 0 {
            observe(&seen, t, d.read(stray, |p| p[2]));
        }
        d.jt.barrier();
    });
    cluster.report()
}

/// `sessions::thread_body`, driven through a [`Driver`].
fn sessions_copy(cluster: &mut Cluster, per_access: bool, seen: &Observed) -> RunReport {
    let cfg = sessions::SessionsConfig::small();
    let h = Arc::new(cluster.init(|ctx| sessions::setup(ctx, &cfg, NODES)));
    let seen = Arc::clone(seen);
    cluster.run(move |jt| {
        let t = jt.thread_id().index() as u64;
        let mut d = Driver { jt, per_access };
        d.jt.push_frame(h.method);
        d.jt.set_local_ref(0, h.catalog);
        for session in 0..cfg.sessions_per_thread {
            d.jt.yield_now();
            let scratch = d.jt.alloc_scalar(h.session_class).id;
            d.jt.set_local_ref(1, scratch);
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (t << 32) ^ session as u64);
            for op in 0..cfg.ops_per_session {
                let item = h.items[sessions::zipf_draw(&h.cdf, rng.gen_range(0.0..1.0))];
                if op % 4 == 3 {
                    d.write(item, |p| p[0] += 1.0);
                } else {
                    observe(&seen, t as usize, d.read(item, |p| p[0]));
                }
                d.write(scratch, |p| p[1] += 1.0);
                d.compute(32);
            }
            d.jt.barrier();
        }
        d.jt.pop_frame();
    });
    cluster.report()
}

/// Private traps racing rate changes. Thread 0 claims a block of 64-byte
/// objects nobody else ever touches and sweeps it — a write or a read, then
/// `compute` — once per interval, delimiting intervals with a lock of its own;
/// from the second interval on the sweep is private end to end, its armed traps
/// included. The other seven threads re-read a shared pool of the same class
/// at a slower pace, a different subset of them each interval, so successive
/// rounds' maps differ and every round the slowest of them closes steps the
/// class one rate finer — while thread 0, intervals ahead, is in mid-sweep. A
/// trap that read the live rates would log (or not) by where its thread's
/// lookahead stood; one that reads its thread's sampling view logs by the
/// rates as of the interval open in either schedule.
fn rate_change_sweep(cluster: &mut Cluster, per_access: bool, seen: &Observed) -> RunReport {
    const SWEEPS: usize = 14;
    const POOL_INTERVALS: usize = 10;
    let (mine, pool, locks) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Cell", 8);
        // Sequence numbers 0..140: under the ladder's gaps 67, 31, 17, 7 … 3, 5,
        // 9, 20 … of them are sampled.
        let mine: Vec<ObjectId> = (0..140)
            .map(|_| ctx.alloc_scalar_at(NodeId(0), class).id)
            .collect();
        let pool: Vec<ObjectId> = (0..280)
            .map(|_| ctx.alloc_scalar_at(NodeId(2), class).id)
            .collect();
        let locks: Vec<LockId> = (0..THREADS).map(|_| ctx.register_lock()).collect();
        (mine, pool, locks)
    });
    let seen = Arc::clone(seen);
    cluster.run(move |jt| {
        let t = jt.thread_id().index();
        let mut d = Driver { jt, per_access };
        // An interval boundary nobody else takes part in.
        let sync = |d: &mut Driver<'_>, i: usize| {
            if i % 2 == 1 {
                d.jt.lock(locks[t]);
            } else {
                d.jt.unlock(locks[t]);
            }
        };
        let sweep = |d: &mut Driver<'_>, i: usize| {
            for (k, &obj) in mine.iter().enumerate() {
                if (i + k) % 3 == 2 {
                    d.write(obj, |p| p[0] += 1.0);
                } else {
                    observe(&seen, t, d.read(obj, |p| p[0]));
                }
                d.compute(100);
            }
        };
        let read_pool = |d: &mut Driver<'_>| {
            for &obj in &pool {
                d.read(obj, |_| {});
                d.compute(30);
            }
        };
        // First touches and fetches, out of the way of the timing below.
        if t == 0 {
            sweep(&mut d, 0);
        } else {
            read_pool(&mut d);
        }
        d.jt.barrier();
        if t == 0 {
            for i in 1..=SWEEPS {
                sweep(&mut d, i);
                sync(&mut d, i);
            }
        } else {
            for i in 1..=POOL_INTERVALS {
                if (t + i) % 3 != 0 {
                    read_pool(&mut d);
                } else {
                    d.compute(280 * 30);
                }
                sync(&mut d, i);
            }
        }
        d.jt.barrier();
    });
    cluster.report()
}

/// What makes [`rate_change_sweep`] a test of anything: some round's rate
/// change lands, in virtual time, inside one of thread 0's sweeps with traps
/// still to fire in it. A rate change of round `r` follows the last thread's
/// close of interval `r` (one interval per round).
fn assert_a_rate_change_lands_inside_a_sweep(journal: &str) {
    // The canonical journal's `RoundClosed` lines lack `cost_fraction`, so they
    // no longer parse; this check reads none of them.
    let events: Vec<TraceEvent> = journal
        .lines()
        .filter(|line| !line.contains("{\"RoundClosed\":"))
        .map(|line| serde_json::from_str(line).expect("journal parses back"))
        .collect();
    // `(thread, interval, t_ns)` of every interval close, in journal order.
    let closes: Vec<(u32, u64, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::IntervalClosed { thread, interval, .. } => Some((thread, interval, e.t_ns)),
            _ => None,
        })
        .collect();
    let mut rate_changes = 0;
    let mut raced = 0;
    for e in &events {
        let EventKind::RateChanged { round, .. } = e.kind else {
            continue;
        };
        rate_changes += 1;
        let changed_at = closes
            .iter()
            .filter(|&&(_, interval, _)| interval == round)
            .map(|&(_, _, t_ns)| t_ns)
            .max()
            .expect("a closed round has closed intervals");
        let Some(sweep_end) = closes
            .iter()
            .find(|&&(thread, _, t_ns)| thread == 0 && t_ns > changed_at)
            .map(|&(_, _, t_ns)| t_ns)
        else {
            continue;
        };
        raced += events
            .iter()
            .filter(|e| {
                e.source == 0
                    && matches!(e.kind, EventKind::FalseInvalidTrap { .. })
                    && e.t_ns > changed_at
                    && e.t_ns < sweep_end
            })
            .count();
    }
    assert!(rate_changes >= 1, "no rate change in the run");
    assert!(
        raced >= 1,
        "no trap of thread 0 follows a rate change inside the sweep it lands in"
    );
}

type Program = fn(&mut Cluster, bool, &Observed) -> RunReport;

/// One traced, adaptively profiled run of `program`: `(canonical journal,
/// canonical report, values read per thread)`.
fn traced(program: Program, per_access: bool) -> (String, String, Vec<(usize, f64)>) {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(NODES)
        .threads(THREADS)
        .profiler(adaptive(ProfilerConfig::tracking_at(SamplingRate::NX(1))))
        .trace(sink.clone())
        .build();
    let seen = Observed::default();
    let report = program(&mut cluster, per_access, &seen);
    let mut values = seen.lock().clone();
    // Stable: each thread's values stay in its program order.
    values.sort_by_key(|&(thread, _)| thread);
    (
        canonical_journal(&sink.sorted_events()),
        canonical_report(&report),
        values,
    )
}

/// The contract without a recorded constant: dropping every scheduling point
/// the owed-yield rule and sole-holder objects drop changes neither the
/// journal, nor the report, nor a single value read, of a program whose
/// objects gain their second holder through `add_ref` or after
/// synchronization — races on objects already shared included.
/// Mutation-checked: with `ObjectCore::arrive` not sharing on a second
/// thread's arrival, claim–share fails on the values read (the last phase's
/// re-fetches see all ten writes instead of those that precede them). The
/// rate-change sweep was checked against three mutations of the sampling view:
/// (a) `on_access` deciding from `out.sampled` and the live `GapTable` while
/// armed traps are private, and (b) `sync_view` moved from `begin_access`
/// into `JThread::yield_now`, each make its journals differ and leave every
/// recorded digest above green — no other program has a private trap racing a
/// rate change; (c) `sync_view` dropped from `begin_access` (refresh at
/// interval opens only) keeps it green, as it must — both schedules then
/// agree, on rates a whole interval late — and moves the `PhaseShift` digest.
#[test]
fn explicit_per_access_yields_change_nothing() {
    let programs: [(&str, Program); 3] = [
        ("build-publish-share", build_publish_share),
        ("claim-share", claim_share),
        ("sessions copy", sessions_copy),
    ];
    for (name, program) in programs {
        assert_yields_change_nothing(name, program);
    }
    let journal = assert_yields_change_nothing("rate-change sweep", rate_change_sweep);
    assert_a_rate_change_lands_inside_a_sweep(&journal);
}

/// Run `program` with and without explicit per-action yields and compare
/// everything observable; returns the (common) journal.
fn assert_yields_change_nothing(name: &str, program: Program) -> String {
    let lookahead = traced(program, false);
    let per_access = traced(program, true);
    assert!(!lookahead.0.is_empty(), "{name}: the run journaled nothing");
    assert!(!lookahead.2.is_empty(), "{name}: the run observed nothing");
    assert_eq!(lookahead.0, per_access.0, "{name}: journals differ");
    assert_eq!(lookahead.1, per_access.1, "{name}: reports differ");
    assert_eq!(lookahead.2, per_access.2, "{name}: values read differ");
    lookahead.0
}

// ------------------------------------------------------------------ racy first shares

/// Thread 0 first-touches an object — one it allocates, or one the setup code
/// allocated — and keeps writing it; thread 1 learns its id through a
/// host-side cell — no reference edge, no lock, no barrier — and reads it.
/// That is a data race at the moment the second thread arrives: how many of
/// the owner's writes the first read sees depends on how far the owner ran
/// ahead, not on virtual time. Returns `(journal, report, values read)`.
fn racy_first_share(allocate_in_body: bool) -> (String, String, Vec<f64>) {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(2)
        .profiler(ProfilerConfig::tracking_at(SamplingRate::NX(1)))
        .trace(sink.clone())
        .build();
    let (class, preset) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Racy", 2);
        (class, ctx.alloc_scalar_at(NodeId(0), class).id)
    });
    let leaked = Arc::new(OnceLock::new());
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_out = Arc::clone(&seen);
    cluster.run(move |jt| {
        if jt.thread_id().0 == 0 {
            let obj = if allocate_in_body {
                jt.alloc_scalar(class).id
            } else {
                preset
            };
            jt.write(obj, |d| d[0] = 1.0);
            leaked.set(obj).expect("set once");
            for k in 1..=200 {
                jt.write(obj, |d| d[0] += 1.0);
                jt.compute(10);
                if k % 50 == 0 {
                    // A visible action: the owner's lookahead ends here.
                    jt.yield_now();
                }
            }
        } else {
            for _ in 0..60 {
                if let Some(&obj) = leaked.get() {
                    let v = jt.read(obj, |d| d[0]);
                    seen_out.lock().push(v);
                }
                jt.compute(40);
            }
        }
        jt.barrier();
    });
    let report = cluster.report();
    let values = seen.lock().clone();
    (
        canonical_journal(&sink.sorted_events()),
        canonical_report(&report),
        values,
    )
}

fn assert_replays(run: impl Fn() -> (String, String, Vec<f64>)) {
    let a = run();
    let b = run();
    assert!(!a.2.is_empty(), "the neighbour never saw the object");
    assert_eq!(a.2, b.2, "values read must replay");
    assert_eq!(a.0, b.0, "journal must replay");
    assert_eq!(a.1, b.1, "report must replay");
}

/// A program that races on the first share is outside what HLRC defines, and
/// outside the equivalence with the per-access schedule — but it is still a
/// pure function of its inputs.
#[test]
fn a_racy_first_share_replays_byte_for_byte() {
    assert_replays(|| racy_first_share(true));
}

/// The same race on an object the setup code allocated: both threads had its
/// id all along, the owner merely got there first.
#[test]
fn a_racy_first_touch_of_a_setup_object_replays_byte_for_byte() {
    assert_replays(|| racy_first_share(false));
}
