//! Benchmark-side spans: name, start, end and the span that caused it. Kept in
//! memory while measuring; written out as Chrome `trace_event` JSON at exit.
//!
//! Spans are recorded from the benchmark's own files, around the calls into each
//! layer. Spans inside the simulator are a later change.

use std::time::Instant;

use serde::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns its result and the span's
    /// duration in seconds. Spans opened by `f` become children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// A span's self time: its duration minus the part its child spans cover.
    fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    /// Chrome `trace_event` JSON: one complete (`"ph":"X"`) event per span, `ts`
    /// and `dur` in microseconds; `args` carries the tree (`id`, `parent`) and the
    /// span's self time (`self_us`).
    pub fn to_chrome_trace(&self, process_name: &str) -> String {
        let mut events = vec![Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::UInt(1)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(process_name.into()))]),
            ),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(1)),
                ("ts".into(), Value::Float(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Value::Float((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::UInt(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        (
                            "self_us".into(),
                            Value::Float(self.self_ns(id) as f64 / 1e3),
                        ),
                    ]),
                ),
            ]));
        }
        let doc = Value::Object(vec![("traceEvents".into(), Value::Array(events))]);
        serde_json::to_string(&doc).expect("a Value tree always serializes")
    }
}
