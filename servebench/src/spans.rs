//! Benchmark-side spans around calls into the engine's layers.
//!
//! Spans live in memory while a run measures and are written out as
//! JSON lines when it ends. A disabled recorder does nothing, so the
//! untraced run pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; [`NONE`] when the recorder is disabled.
pub type SpanId = usize;

/// Handle returned by a disabled recorder.
pub const NONE: SpanId = usize::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `end_epoch`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started; equal to `start_ns` while
    /// the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Epoch the span belongs to; shared by every span of one epoch.
    pub epoch: Option<u64>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, epoch: Option<u64>) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            epoch,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close `id` (and any span left open inside it).
    pub fn close(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Write the spans as JSON lines, one object per span, with its self
    /// time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let epoch = s.epoch.map_or("null".to_string(), |e| e.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"epoch\":{epoch},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other or
/// spill past the parent; only their union inside the parent counts.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            epoch: None,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(50, 90, Some(0)),
            span(55, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(40, 70, Some(0)),
            span(45, 55, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(50, 120, Some(0)),
            span(180, 300, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 60);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let spans = [span(0, 10, None), span(2, 8, Some(0)), span(3, 4, Some(1))];
        assert_eq!(self_times_ns(&spans), vec![4, 5, 1]);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut on = Spans::new(true);
        let outer = on.open("outer", Some(3));
        let inner = on.open("inner", Some(3));
        on.close(inner);
        on.close(outer);
        let s = on.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(on.durations_ms("inner").len(), 1);

        let mut off = Spans::new(false);
        let id = off.open("outer", None);
        off.close(id);
        assert!(off.spans().is_empty());
    }
}
