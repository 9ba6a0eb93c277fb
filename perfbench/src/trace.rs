//! In-memory span recording around calls into the engine's layers.
//!
//! The benchmark never instruments the engine itself: every span wraps a
//! call the benchmark makes into a public function of one layer
//! (`Session::query`, `Table::scan_raw`, `UdfRegistry::call`, …). Each
//! worker thread owns a [`SpanLog`]; the logs are merged after the run,
//! analysed into per-layer busy and self times, and written out as JSON
//! lines. With tracing off a log records nothing and never reads the
//! clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run (the thread index sits in the high bits).
    pub id: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The outermost span of the stack this span ran in: spans of one
    /// request share it.
    pub trace: u64,
    /// Layer boundary name, `crate.module.function` style.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span recorder. Spans nest through an explicit stack:
/// [`enter`](Self::enter) opens one under the innermost open span,
/// [`exit`](Self::exit) closes it.
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    open: Vec<(u64, &'static str, u64)>,
    spans: Vec<Span>,
}

/// Handle to an open span; closing it out of order is a bug.
#[must_use = "a span must be closed with SpanLog::exit"]
pub struct Open(Option<u64>);

impl SpanLog {
    /// A recorder for thread number `thread` of a run that started at
    /// `epoch`. A disabled recorder is a no-op.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> SpanLog {
        SpanLog {
            enabled,
            epoch,
            next_id: (thread << 40) + 1,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now_ns();
        self.open.push((id, name, start));
        Open(Some(id))
    }

    /// Closes the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now_ns();
        let (top, name, start) = self.open.pop().expect("exit without a matching enter");
        assert_eq!(top, id, "spans closed out of order");
        let parent = self.open.last().map(|o| o.0);
        let trace = self.open.first().map_or(id, |o| o.0);
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: start,
            end_ns: end,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Moves this log's spans into `other` (merging thread logs).
    pub fn drain_into(&mut self, other: &mut Vec<Span>) {
        assert!(self.open.is_empty(), "draining a log with open spans");
        other.append(&mut self.spans);
    }
}

/// Busy and self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub busy_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// Per-name busy/self times. Children of one span run on its thread one
/// after another, so the time they cover is the sum of their durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.busy_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Share of the measured window that named layer spans cover: the summed
/// durations of every non-`bench.*` span whose parent is one of the
/// window's `roots`, over `window_ns` (the window's wall time summed over
/// its threads).
pub fn coverage(spans: &[Span], roots: &[&str], window_ns: u64) -> f64 {
    let root_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| roots.contains(&s.name))
        .map(|s| s.id)
        .collect();
    let covered: u64 = spans
        .iter()
        .filter(|s| !s.name.starts_with("bench."))
        .filter(|s| s.parent.is_some_and(|p| root_ids.contains(&p)))
        .map(Span::dur_ns)
        .sum();
    if window_ns == 0 {
        0.0
    } else {
        covered as f64 / window_ns as f64
    }
}

/// Writes the spans as JSON lines, one object per span, sorted by start.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in sorted {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"thread\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            parent,
            s.trace,
            s.id >> 40,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: parent.unwrap_or(id),
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "a", 50, 60),
            span(4, Some(1), "bench.check", 70, 90),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].busy_ns, 100);
        assert_eq!(t["root"].self_ns, 40);
        assert_eq!(t["a"].count, 2);
        assert_eq!(t["a"].self_ns, 40);
        assert!((coverage(&spans, &["root"], 200) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_share_the_outer_trace() {
        let mut log = SpanLog::new(true, Instant::now(), 3);
        let outer = log.enter("outer");
        log.leaf("inner", || ());
        log.exit(outer);
        let mut spans = Vec::new();
        log.drain_into(&mut spans);
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.trace, outer.id);
        assert_eq!(outer.id >> 40, 3);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false, Instant::now(), 0);
        let o = log.enter("x");
        log.exit(o);
        let mut spans = Vec::new();
        log.drain_into(&mut spans);
        assert!(spans.is_empty());
    }
}
