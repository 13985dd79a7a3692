//! In-memory spans for the traced pass.
//!
//! The driver wraps each call into a layer's public functions in a span
//! (`{name, start_ns, end_ns, parent, request}`), keeps them in memory and
//! writes them to `benchmark/out/trace-<workload>.jsonl` when the run ends.
//! A span's *self time* is its duration minus the part of that interval its
//! children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The request id every span of one request shares.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; returns its index for `close` and for children.
    pub fn open(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<T>(&mut self, name: &str, parent: usize, request: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, Some(parent), request);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, each clipped to the span (so overlapping or overhanging
/// children are never subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 − (30 + 40); a: 30 − 10; grandchildren do not count
        // against the root twice.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_merges_overlapping_and_clips_overhanging_children() {
        let spans = vec![
            span("root", 100, 200, None),
            span("x", 110, 150, Some(0)),
            span("y", 140, 170, Some(0)),    // overlaps x by 10
            span("late", 190, 230, Some(0)), // overhangs the parent by 30
            span("early", 50, 90, Some(0)),  // entirely outside
        ];
        // covered = [110,170) ∪ [190,200) = 60 + 10
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let mut rec = Recorder::new();
        let root = rec.open("replay", None, 7);
        let got = rec.time("parse", root, 7, || 42);
        rec.close(root);
        assert_eq!(got, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }
}
