//! In-memory spans recorded by the benchmark around each call into a
//! layer's public functions.
//!
//! A span is (name, start, end, parent, request id). Spans of one
//! frame or cycle share a request id. Nothing is written until the run
//! ends; a disabled tracer records nothing and reads no clock, so the
//! untraced pass pays only a predictable branch.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<u32>,
    pub request: u64,
}

/// Handle returned by [`Tracer::begin`]; give it back to
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (shared between
    /// the tracers of one run so their spans line up).
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Self {
        Self::new(Instant::now(), false)
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        // Spans close innermost-first; tolerate a skipped inner `end`.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, request);
        let r = f();
        self.end(id);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Appends another tracer's spans (e.g. a second connection
    /// thread's), keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: how many spans and their summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

/// A span's self time is its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total - covered;
    }
    out
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span("cycle", 0, 100, None),
            span("push", 10, 30, Some(0)),
            span("pull", 40, 90, Some(0)),
            span("decode", 60, 80, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["cycle"].self_ns, 100 - 20 - 50);
        assert_eq!(t["push"].self_ns, 20);
        assert_eq!(t["pull"].self_ns, 50 - 20);
        assert_eq!(t["decode"].self_ns, 20);
        assert_eq!(t["pull"].total_ns, 50);
        let all: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(all, 100, "self times partition the root span");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once_and_are_clipped() {
        let spans = [
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        let t = self_times(&spans);
        // a ∪ b covers [110,170) = 60; `late` is clipped to [190,200).
        assert_eq!(t["root"].self_ns, 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_parents_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), true);
        let outer = t.begin("outer", 7);
        t.span("inner", 7, || ());
        t.end(outer);
        t.span("next", 8, || ());
        let s = t.into_spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request),
            ("inner", Some(0), 7)
        );
        assert_eq!((s[2].name, s[2].parent), ("next", None));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::disabled();
        let id = off.begin("x", 0);
        off.end(id);
        assert_eq!(off.span("y", 0, || 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let mut a = Tracer::new(Instant::now(), true);
        a.span("a", 0, || ());
        let mut b = Tracer::new(Instant::now(), true);
        let outer = b.begin("b.outer", 1);
        b.span("b.inner", 1, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.into_spans()[2].parent, Some(1));
    }
}
