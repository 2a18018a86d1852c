//! Observability tests: the deterministic event journal and the exporters, end
//! to end over real cluster runs.
//!
//! The acceptance bar of the observability work: a zero-fault run's journal is
//! **bit-identical** across repeated runs (the canonical `(t_ns, source, seq)`
//! order erases OS-thread interleaving), the Chrome export is valid JSON — and two
//! fixes hold: an invalid profiler config is rejected at build
//! time instead of surfacing mid-run, and post-run OAL losses are attributable
//! and fold into coverage instead of vanishing into a bare counter.

use std::sync::Arc;

use jessy_core::{ProfilerConfig, SamplingRate};
use jessy_gos::{CostModel, ObjectId};
use jessy_net::{LatencyModel, NodeId, ThreadId};
use jessy_obs::{round_series, to_chrome_trace, to_json_lines, EventKind, JournalSink, TraceEvent};
use jessy_runtime::{Cluster, RunReport, RuntimeError};
use serde_json::Value;

fn profiler() -> ProfilerConfig {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.intervals_per_round = 1;
    config
}

/// A stable traced run (every round identical), returning the journal and the
/// report. Remote reads (objects homed on both nodes) guarantee net and GOS
/// events; `Full` sampling guarantees armed traps, so correlation faults.
fn traced_run(barriers: usize) -> (Arc<JournalSink>, RunReport, Cluster) {
    let sink = JournalSink::shared();
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::fast_ethernet())
        .costs(CostModel::free())
        .profiler(profiler())
        .trace(sink.clone())
        .build();
    let objs = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        (0..100)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>()
    });
    let objs = Arc::new(objs);
    cluster.run(move |jt| {
        for _ in 0..barriers {
            jt.read(objs[0], |_| {});
            jt.read(objs[67], |_| {});
            jt.barrier();
        }
    });
    let report = cluster.report();
    (sink, report, cluster)
}

/// The headline determinism test: two identical zero-fault runs journal the
/// same events and both exporters render them byte-identically, despite the
/// workers being real OS threads with arbitrary interleaving.
#[test]
fn zero_fault_journals_are_bit_identical_across_runs() {
    let (sink_a, _, _) = traced_run(12);
    let (sink_b, _, _) = traced_run(12);
    let a = sink_a.sorted_events();
    let b = sink_b.sorted_events();
    assert!(!a.is_empty(), "a traced run must journal events");
    assert_eq!(a.len(), b.len(), "event counts diverged");
    assert_eq!(
        to_json_lines(&a),
        to_json_lines(&b),
        "JSON-lines journals must be bit-identical"
    );
    assert_eq!(
        to_chrome_trace(&a),
        to_chrome_trace(&b),
        "Chrome traces must be bit-identical"
    );
}

/// One journal spans all four layers, in canonical order.
#[test]
fn journal_spans_every_layer_in_canonical_order() {
    let (sink, report, _) = traced_run(12);
    let events = sink.sorted_events();
    assert!(
        events.windows(2).all(|w| w[0].order_key() <= w[1].order_key()),
        "sorted_events must be in (t_ns, source, seq) order"
    );
    // Per-source seq numbers are each source's program order: 0, 1, 2, …
    let n_sources = report.n_threads + 1; // app threads + master
    let mut next_seq = vec![0u64; n_sources];
    let mut by_source = events.clone();
    by_source.sort_by_key(|e| (e.source, e.seq));
    for e in &by_source {
        assert!((e.source as usize) < n_sources, "unknown source {}", e.source);
        assert_eq!(e.seq, next_seq[e.source as usize], "seq gap at {e:?}");
        next_seq[e.source as usize] += 1;
    }
    let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
    // net: OAL posts and object fetches are accounted on the fabric.
    assert!(has(&|k| matches!(k, EventKind::MessageSent { .. })), "net layer");
    // gos: remote objects fault in; Full sampling arms traps that then fire.
    assert!(has(&|k| matches!(k, EventKind::ObjectFault { .. })), "gos layer");
    assert!(
        has(&|k| matches!(k, EventKind::FalseInvalidTrap { .. })),
        "correlation faults under Full sampling"
    );
    // core: every barrier closes and reopens an interval on every thread.
    assert!(has(&|k| matches!(k, EventKind::IntervalOpened { .. })), "core layer");
    assert!(has(&|k| matches!(k, EventKind::IntervalClosed { .. })), "core layer");
    // runtime: the master closes TCM rounds.
    assert!(has(&|k| matches!(k, EventKind::RoundClosed { .. })), "runtime layer");
    // The journaled round stream matches the master's own ledger.
    let journaled_rounds = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RoundClosed { .. }))
        .count() as u64;
    assert_eq!(journaled_rounds, report.master.as_ref().unwrap().rounds);
}

/// The Chrome export is one valid JSON document Chrome's `about:tracing` /
/// Perfetto will load: a `traceEvents` array with one entry per journal event.
#[test]
fn chrome_trace_export_is_valid_json() {
    let (sink, _, _) = traced_run(6);
    let events = sink.sorted_events();
    let doc: Value = serde_json::from_str(&to_chrome_trace(&events)).expect("valid JSON");
    let Value::Object(pairs) = &doc else {
        panic!("top level must be an object");
    };
    let trace_events = pairs
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let Value::Array(items) = trace_events else {
        panic!("traceEvents must be an array");
    };
    // Interval open/close pairs collapse into one "X" complete event; every
    // other journal entry (and unmatched opens) renders as one record.
    let mut open_keys: Vec<(u32, u64)> = Vec::new();
    let mut matched_pairs = 0usize;
    for e in &events {
        match &e.kind {
            EventKind::IntervalOpened { thread, interval } => open_keys.push((*thread, *interval)),
            EventKind::IntervalClosed { thread, interval, .. } => {
                if let Some(i) = open_keys.iter().rposition(|k| *k == (*thread, *interval)) {
                    open_keys.swap_remove(i);
                    matched_pairs += 1;
                }
            }
            _ => {}
        }
    }
    assert_eq!(items.len(), events.len() - matched_pairs);
    for item in items.iter().take(16) {
        let Value::Object(fields) = item else {
            panic!("each trace event is an object");
        };
        for required in ["name", "ph", "ts", "pid", "tid"] {
            assert!(
                fields.iter().any(|(k, _)| k == required),
                "trace events need {required:?}: {fields:?}"
            );
        }
    }
}

/// Every JSON-lines journal line parses back into the `TraceEvent` it came
/// from (the journal is a loadable artifact, not just a printout).
#[test]
fn journal_lines_roundtrip() {
    let (sink, _, _) = traced_run(6);
    let events = sink.sorted_events();
    let journal = to_json_lines(&events);
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), events.len());
    for (line, event) in lines.iter().zip(&events) {
        let back: TraceEvent = serde_json::from_str(line).expect("line parses");
        assert_eq!(&back, event);
    }
}

/// End to end: a config field outside its domain must be
/// rejected with a typed, field-naming error before the cluster even builds,
/// not surface mid-run.
#[test]
fn invalid_config_is_rejected_at_build_time() {
    let mut config = ProfilerConfig::tracking_at(SamplingRate::Full);
    config.adaptive_threshold = Some(-1.0);
    let err = match Cluster::builder().nodes(1).threads(1).profiler(config).try_build() {
        Ok(_) => panic!("adaptive_threshold = -1 must not build"),
        Err(e) => e,
    };
    match &err {
        RuntimeError::Config(e) => {
            assert_eq!(e.field, "adaptive_threshold");
            assert_eq!(e.value, "-1");
        }
        other => panic!("expected a config error, got {other:?}"),
    }
    let msg = err.to_string();
    let named = "ProfilerConfig.adaptive_threshold";
    assert!(msg.contains(named), "diagnosable message: {msg}");
    assert!(msg.contains("-1"), "value echoed: {msg}");
}

/// Satellite bugfix 2, end to end: OALs shipped after the master stopped
/// listening used to vanish into a bare counter. They are now attributable
/// `(thread, interval)` pairs, journaled, and folded back into round coverage.
#[test]
fn post_run_oal_loss_is_recorded_journaled_and_degrades_coverage() {
    let sink = JournalSink::shared();
    let mut config = profiler();
    config.footprint = None;
    let mut cluster = Cluster::builder()
        .nodes(2)
        .threads(4)
        .latency(LatencyModel::free())
        .costs(CostModel::free())
        .profiler(config)
        .trace(sink.clone())
        .build();
    let (objs, lock) = cluster.init(|ctx| {
        let class = ctx.register_scalar_class("Body", 8);
        let objs = (0..10)
            .map(|k| ctx.alloc_scalar_at(NodeId((k % 2) as u16), class).id)
            .collect::<Vec<ObjectId>>();
        (objs, ctx.register_lock())
    });
    let run_objs = Arc::new(objs);
    cluster.run(move |jt| {
        for _ in 0..4 {
            jt.read(run_objs[0], |_| {});
            jt.barrier();
        }
    });

    // The run is over and the master mailbox is closed: an adopted thread
    // hitting an interval boundary (lock/unlock) must fail to post its OAL.
    let mut jt = cluster.adopt_thread(ThreadId(0));
    jt.lock(lock);
    jt.unlock(lock);

    let report = cluster.report();
    assert!(report.oal_post_failures >= 1, "posts must have failed");
    assert_eq!(
        report.oal_post_failures,
        report.lost_oals.len() as u64,
        "every failure is attributable"
    );
    assert!(
        report.lost_oals.iter().all(|&(t, _)| t == 0),
        "only the adopted thread lost OALs: {:?}",
        report.lost_oals
    );
    // The loss is journaled…
    let journaled: Vec<(u32, u64)> = sink
        .sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::OalPostFailed { thread, interval } => Some((thread, interval)),
            _ => None,
        })
        .collect();
    assert_eq!(journaled, report.lost_oals, "journal and report agree");
    // …and folds into coverage: the adopted thread's intervals restart at 0,
    // so round 0's adjusted coverage drops by 1/(n_threads · ipr) per loss.
    let ipr = 1;
    let master_coverage: Vec<f64> =
        round_series(&sink.sorted_events()).rounds.iter().map(|r| r.coverage).collect();
    let adjusted = report.adjusted_round_coverage(&master_coverage, ipr);
    assert!(adjusted.len() >= master_coverage.len());
    assert!(
        adjusted.iter().any(|&c| c < 1.0),
        "losses must dent coverage: {adjusted:?}"
    );
    assert!(
        report.profile_degraded(&master_coverage, 0.95, ipr),
        "the coverage gate must see the post-run loss"
    );
    // The baseline run itself was clean: the master's own history is full.
    assert!(master_coverage.iter().all(|&c| c == 1.0), "{master_coverage:?}");
}
