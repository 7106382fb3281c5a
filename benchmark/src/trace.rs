//! Spans recorded by the harness around each call into a layer's
//! public functions. Off (every call returns at once) in an untraced
//! run; the traced run keeps the spans in memory, derives each layer's
//! numbers from them and writes them out at exit.

use std::io::Write;
use std::time::Instant;

/// Marks "no span" for a root span's parent and for spans not recorded.
pub const NONE: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Shared by the spans of one operation.
    pub op_id: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u32) -> u32 {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) {
        if span != NONE {
            self.spans[span as usize].end_ns = self.now_ns();
        }
    }

    /// Times `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, parent, op_id);
        let out = f();
        self.end(s);
        out
    }

    /// Index the next span will get; with [`Self::since`] it brackets
    /// the spans of one pass.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Durations in seconds of the spans called `name` in `spans`.
    pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time in seconds of every span recorded since `mark`: its
    /// duration minus its children's. `mark` must sit between two
    /// operations, so that every child's parent is in the slice too.
    pub fn self_times(&self, mark: usize) -> Vec<f64> {
        let spans = self.since(mark);
        let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
        for s in spans {
            if s.parent != NONE {
                own[s.parent as usize - mark] -= s.secs();
            }
        }
        own
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}
