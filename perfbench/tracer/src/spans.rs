//! In-memory span recorder.
//!
//! A span is one call the tracer makes into a layer's public API: its name,
//! an optional label (an experiment id, a sweep entry point), start and end
//! in nanoseconds since the recorder's epoch, the span that caused it and
//! the run it belongs to. Counts measured at the same boundary ride along as
//! numeric attributes. Spans stay in memory until [`write_jsonl`] writes
//! them out at exit, so recording costs two clock reads and one push.

use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Where a new span hangs: its parent span (0 = none) and its run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub id: u64,
    pub run: u64,
}

#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    run: u64,
    name: &'static str,
    label: String,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

struct State {
    next_id: u64,
    next_run: u64,
    spans: Vec<Span>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        state: Mutex::new(State {
            next_id: 1,
            next_run: 1,
            spans: Vec::new(),
        }),
    })
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// A fresh run: the root context every top-level unit of work hangs from.
pub fn new_run() -> Ctx {
    let mut st = recorder().state.lock().expect("span recorder poisoned");
    let run = st.next_run;
    st.next_run += 1;
    Ctx { id: 0, run }
}

/// An open span; it is recorded when dropped (or [`Guard::end`]ed).
pub struct Guard {
    ctx: Ctx,
    parent: u64,
    name: &'static str,
    label: String,
    start_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Open a span named `name` under `parent`.
pub fn span(parent: Ctx, name: &'static str) -> Guard {
    let id = {
        let mut st = recorder().state.lock().expect("span recorder poisoned");
        let id = st.next_id;
        st.next_id += 1;
        id
    };
    Guard {
        ctx: Ctx {
            id,
            run: parent.run,
        },
        parent: parent.id,
        name,
        label: String::new(),
        start_ns: now_ns(),
        attrs: Vec::new(),
    }
}

impl Guard {
    /// The context children of this span hang from.
    pub fn ctx(&self) -> Ctx {
        self.ctx
    }

    pub fn label(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Attach a count or measured quantity to this span.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        self.attrs.push((key, value));
    }

    pub fn end(self) {}
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        let span = Span {
            id: self.ctx.id,
            parent: self.parent,
            run: self.ctx.run,
            name: self.name,
            label: std::mem::take(&mut self.label),
            start_ns: self.start_ns,
            end_ns,
            attrs: std::mem::take(&mut self.attrs),
        };
        if let Ok(mut st) = recorder().state.lock() {
            st.spans.push(span);
        }
    }
}

/// Write every recorded span as one JSON object per line, in id order.
pub fn write_jsonl(path: &str) -> std::io::Result<()> {
    let mut spans = std::mem::take(
        &mut recorder()
            .state
            .lock()
            .expect("span recorder poisoned")
            .spans,
    );
    spans.sort_by_key(|s| s.id);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &spans {
        let attrs: Vec<String> = s
            .attrs
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{k}\":{v}")
            })
            .collect();
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{}}}}}",
            s.id,
            s.parent,
            s.run,
            s.name,
            s.label,
            s.start_ns,
            s.end_ns,
            attrs.join(",")
        )?;
    }
    out.flush()
}
