//! # jessy-obs — deterministic observability for the simulated DJVM
//!
//! The runtime's self-observation layer: a structured event journal keyed by
//! **simulated time**, a [`TraceSink`] trait with a no-op default so disabled runs
//! cost nothing on the hot paths, exporters (JSON-lines and Chrome `trace_event`)
//! and offline journal mining. Counters are not kept here: a run's counters are
//! the fields of the runtime's `RunReport`.
//!
//! ## Determinism argument
//!
//! Every event is stamped with the emitting thread's simulated clock (`t_ns`) and
//! the emitter's stable source id (`source` — application threads `0..n`, the
//! master daemon `n`). The journal assigns each source a private sequence number
//! under the sink lock, so a source's events carry its own program order. The
//! canonical journal order is the total order `(t_ns, source, seq)`:
//!
//! * within one source, `seq` *is* program order, which is deterministic
//!   whenever the simulated thread's execution (and its clock) is;
//! * across sources, simulated time plus the source id break every tie without
//!   consulting wall-clock arrival order.
//!
//! Real OS-thread interleaving only changes the order events *enter* the sink,
//! never the canonical order they are exported in. The runtime's deterministic
//! executor runs one application thread at a time in a seed-fixed order, so
//! every thread's execution (and its clock) replays, and a zero-fault,
//! same-seed run produces a bit-identical journal on any host.
//!
//! Nothing in this crate knows about objects, nodes or profiling types; events
//! carry plain integers and strings so every other crate can depend on it without
//! cycles.

#![warn(missing_docs)]

pub mod analyze;
pub mod event;
pub mod export;
pub mod sink;

pub use analyze::{analyze_waste, drift_spans, ClassWaste, DriftSpan, WasteReport};
pub use event::{EventKind, TraceEvent};
pub use export::{to_chrome_trace, to_json_lines};
pub use sink::{JournalSink, NullSink, TraceSink};
