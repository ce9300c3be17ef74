//! Harness-side spans: one per call into a layer's public functions.
//!
//! The program under test is not instrumented for this benchmark. The
//! traced pass wraps every call it makes into a layer in a span here,
//! keeps the spans in memory, and writes them as JSON lines when the
//! pass ends, so recording costs the timed code two clock reads per call.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Repetition of the traced pass this span belongs to.
    pub rep: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    rep: usize,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn set_rep(&mut self, rep: usize) {
        self.rep = rep;
    }

    /// Runs `work` inside a span named `name`, nested in whichever span
    /// is open on this tracer.
    pub fn span<T>(&mut self, name: &str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            rep: self.rep,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = work(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Seconds spent in spans named `name` during repetition `rep`.
    pub fn total_s(&self, name: &str, rep: usize) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// One JSON object per span, in start order:
    /// `{"id", "name", "workload", "rep", "start_ns", "end_ns", "self_ns", "parent"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"workload\": \"{}\", \"rep\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}}}",
                span.name,
                self.workload,
                span.rep,
                span.start_ns,
                span.end_ns,
                self_ns(&self.spans, id),
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the durations of its direct
/// children. Spans on one tracer nest strictly and never overlap their
/// siblings, so the children's durations are exactly the part of the
/// interval they cover.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration_ns)
        .sum();
    spans[index].duration_ns() - children
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            rep: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 40);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 2), 10);
        assert_eq!(self_ns(&spans, 3), 40);
    }

    #[test]
    fn tracer_nests_spans_and_sums_by_name_and_rep() {
        let mut t = Tracer::new("w");
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
            t.span("inner", |_| ());
        });
        t.set_rep(1);
        t.span("inner", |_| ());
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].parent, None);
        assert_eq!(t.spans[3].rep, 1);
        let inner = t.spans[1].duration_ns() + t.spans[2].duration_ns();
        assert_eq!(t.total_s("inner", 0), inner as f64 / 1e9);
        assert_eq!(self_ns(&t.spans, 0), t.spans[0].duration_ns() - inner);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[2].end_ns <= t.spans[0].end_ns);
    }
}
