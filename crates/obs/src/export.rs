//! Journal exporters: JSON-lines and Chrome `trace_event`.
//!
//! Both exporters take a slice already in canonical order (what
//! [`crate::JournalSink::sorted_events`] returns) and are pure functions of it,
//! so their output inherits the journal's bit-identity guarantee.

use serde::{Serialize, Value};

use crate::event::{EventKind, TraceEvent};

/// Render the journal as JSON-lines: one event object per line, trailing
/// newline. This is the canonical on-disk journal format — bit-identical for a
/// zero-fault, same-seed run on any host.
pub fn to_json_lines(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&serde_json::to_string(ev).expect("journal events always serialize"));
        out.push('\n');
    }
    out
}

/// Parse a JSON-lines journal back into events (tooling / round-trip tests).
pub fn from_json_lines(s: &str) -> Result<Vec<TraceEvent>, serde_json::Error> {
    s.lines().map(serde_json::from_str::<TraceEvent>).collect()
}

/// The trace-viewer category for an event (its originating layer).
fn category(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::MessageSent { .. }
        | EventKind::MessageDropped { .. }
        | EventKind::MessageDuplicated { .. }
        | EventKind::MessagePartitioned { .. } => "net",
        EventKind::ObjectFault { .. }
        | EventKind::FalseInvalidTrap { .. }
        | EventKind::HomeMigration { .. }
        | EventKind::NoticesApplied { .. } => "gos",
        EventKind::IntervalOpened { .. }
        | EventKind::IntervalClosed { .. }
        | EventKind::RateChanged { .. }
        | EventKind::ClassConverged { .. }
        | EventKind::ClassDrifted { .. } => "core",
        EventKind::RoundClosed { .. }
        | EventKind::RoundSkipped { .. }
        | EventKind::CheckpointTaken { .. }
        | EventKind::MasterRestored { .. }
        | EventKind::CrashSuppressed { .. }
        | EventKind::NodeRejoined { .. }
        | EventKind::NodeQuarantined { .. }
        | EventKind::ThreadMigrated { .. }
        | EventKind::OalPostFailed { .. }
        | EventKind::OalDeferred { .. }
        | EventKind::OalShed { .. }
        | EventKind::BudgetDegraded { .. }
        | EventKind::StragglerDemoted { .. }
        | EventKind::StragglerRestored { .. }
        | EventKind::PlacementPlanned { .. }
        | EventKind::MigrationApplied { .. }
        | EventKind::DirectiveFenced { .. } => "runtime",
    }
}

/// The event's field payload as a JSON object (the derived encoding is
/// `{"VariantName": {fields...}}`; this unwraps to the inner fields object).
fn args_of(kind: &EventKind) -> Value {
    match kind.serialize_value() {
        Value::Object(pairs) if pairs.len() == 1 => pairs.into_iter().next().unwrap().1,
        other => other,
    }
}

fn base_record(name: &str, cat: &str, ph: &str, ts_us: f64, tid: u32) -> Vec<(String, Value)> {
    vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("cat".to_string(), Value::Str(cat.to_string())),
        ("ph".to_string(), Value::Str(ph.to_string())),
        ("ts".to_string(), Value::Float(ts_us)),
        ("pid".to_string(), Value::UInt(0)),
        ("tid".to_string(), Value::UInt(tid as u64)),
    ]
}

/// Render the journal in Chrome's `trace_event` JSON format (loadable in
/// `chrome://tracing` / Perfetto). Interval open/close pairs become `"X"`
/// complete events with a duration; everything else becomes a thread-scoped
/// `"i"` instant. Timestamps are simulated microseconds; `tid` is the source id
/// (application threads `0..n`, the master daemon `n`).
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    // Open-interval start times, keyed by (source, interval).
    let mut open: Vec<((u32, u64), u64)> = Vec::new();
    let mut records: Vec<Value> = Vec::new();

    for ev in events {
        let ts_us = ev.t_ns as f64 / 1000.0;
        match &ev.kind {
            EventKind::IntervalOpened { thread, interval } => {
                open.push(((*thread, *interval), ev.t_ns));
            }
            EventKind::IntervalClosed { thread, interval, .. } => {
                let key = (*thread, *interval);
                let start = match open.iter().rposition(|(k, _)| *k == key) {
                    Some(i) => open.swap_remove(i).1,
                    // A close with no recorded open (e.g. the run's first
                    // interval opens before tracing starts): zero-length slice.
                    None => ev.t_ns,
                };
                let mut rec = base_record(
                    "interval",
                    category(&ev.kind),
                    "X",
                    start as f64 / 1000.0,
                    ev.source,
                );
                rec.push((
                    "dur".to_string(),
                    Value::Float((ev.t_ns - start) as f64 / 1000.0),
                ));
                rec.push(("args".to_string(), args_of(&ev.kind)));
                records.push(Value::Object(rec));
            }
            kind => {
                let mut rec = base_record(kind.name(), category(kind), "i", ts_us, ev.source);
                rec.push(("s".to_string(), Value::Str("t".to_string())));
                rec.push(("args".to_string(), args_of(kind)));
                records.push(Value::Object(rec));
            }
        }
    }

    // Intervals still open at export time render as zero-length instants so no
    // event is silently dropped.
    for ((thread, interval), start) in open {
        let mut rec = base_record("interval(open)", "core", "i", start as f64 / 1000.0, thread);
        rec.push(("s".to_string(), Value::Str("t".to_string())));
        rec.push((
            "args".to_string(),
            Value::Object(vec![
                ("thread".to_string(), Value::UInt(thread as u64)),
                ("interval".to_string(), Value::UInt(interval)),
            ]),
        ));
        records.push(Value::Object(rec));
    }

    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(records)),
        (
            "displayTimeUnit".to_string(),
            Value::Str("ms".to_string()),
        ),
    ]);
    serde_json::to_string(&doc).expect("chrome trace always serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                t_ns: 1_000,
                source: 0,
                seq: 0,
                kind: EventKind::IntervalOpened { thread: 0, interval: 0 },
            },
            TraceEvent {
                t_ns: 2_500,
                source: 0,
                seq: 1,
                kind: EventKind::IntervalClosed { thread: 0, interval: 0, entries: 4 },
            },
            TraceEvent {
                t_ns: 3_000,
                source: 2,
                seq: 0,
                kind: EventKind::RoundClosed {
                    round: 0,
                    oals: 2,
                    coverage: 1.0,
                    deadline_hit: false,
                    cost_fraction: 0.25,
                },
            },
        ]
    }

    #[test]
    fn json_lines_round_trips() {
        let events = sample();
        let lines = to_json_lines(&events);
        assert_eq!(lines.lines().count(), events.len());
        assert_eq!(from_json_lines(&lines).unwrap(), events);
    }

    #[test]
    fn chrome_trace_pairs_intervals_into_complete_events() {
        let doc = to_chrome_trace(&sample());
        let v: Value = serde_json::from_str(&doc).unwrap();
        let trace_events = Value::field(v.as_object().unwrap(), "traceEvents")
            .as_array()
            .unwrap();
        // Open+close collapse into one "X" record; the round stays an instant.
        assert_eq!(trace_events.len(), 2);
        let x = trace_events[0].as_object().unwrap();
        let get = |k: &str| Value::field(x, k).clone();
        assert_eq!(get("ph"), Value::Str("X".to_string()));
        assert_eq!(get("ts"), Value::Float(1.0));
        assert_eq!(get("dur"), Value::Float(1.5));
        let i = trace_events[1].as_object().unwrap();
        let get = |k: &str| Value::field(i, k).clone();
        assert_eq!(get("ph"), Value::Str("i".to_string()));
        assert_eq!(get("name"), Value::Str("RoundClosed".to_string()));
    }

    #[test]
    fn unmatched_opens_are_not_dropped() {
        let events = vec![TraceEvent {
            t_ns: 7_000,
            source: 1,
            seq: 0,
            kind: EventKind::IntervalOpened { thread: 1, interval: 9 },
        }];
        let doc = to_chrome_trace(&events);
        let v: Value = serde_json::from_str(&doc).unwrap();
        let trace_events = Value::field(v.as_object().unwrap(), "traceEvents")
            .as_array()
            .unwrap();
        assert_eq!(trace_events.len(), 1);
    }
}
