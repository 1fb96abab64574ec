//! Spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only — one per call
//! into a crate's public function — kept in memory, and written out when the
//! run ends. A span's self time is its duration minus its direct children's.
//! Everything happens on the driver thread, so the open-span stack needs no
//! synchronisation.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Inner {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder. Disabled, `enter` costs one branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                enabled,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        }
    }

    /// Switch recording on or off; spans already open still close.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.borrow_mut().enabled = enabled;
    }

    /// Open a span named `name`, child of the innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut inner = self.inner.borrow_mut();
        if !inner.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        let now = self.origin.elapsed().as_nanos() as u64;
        inner.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        inner.open.push(index);
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Mean duration in milliseconds of the spans named `name` (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let durs: Vec<u64> = inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect();
        if durs.is_empty() {
            return 0.0;
        }
        durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let mut inner = self.tracer.inner.borrow_mut();
        inner.spans[index].end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        // Guards are scoped, so spans close innermost first.
        let closed = inner.open.pop();
        debug_assert_eq!(closed, Some(index));
    }
}

/// Per-name totals: `(name, calls, total ns, self ns)`, largest self time
/// first. Self time is a span's duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let own = s.dur_ns().saturating_sub(child_ns[i]);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_ns(), own)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    rows
}

/// The self-time report as an aligned text table.
pub fn self_time_report(spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, calls, total, own) in self_times(spans) {
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>12.3} {:>12.3}",
            name,
            calls,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    out
}

/// One span per line, as JSON objects carrying the workload id.
pub fn span_lines(spans: &[Span], workload: &str) -> Vec<String> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )
        })
        .collect()
}

/// Merge `lines` into the JSON array at `path`: spans other workloads left
/// there stay, this workload's earlier spans are replaced.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    lines: &[String],
) -> std::io::Result<()> {
    let mine = format!("{{\"workload\":\"{workload}\",");
    let mut kept: Vec<String> = match std::fs::read_to_string(path) {
        Ok(old) => old
            .lines()
            .map(|l| l.trim_end_matches(',').to_string())
            .filter(|l| l.starts_with('{') && !l.starts_with(&mine))
            .collect(),
        Err(_) => Vec::new(),
    };
    kept.extend(lines.iter().cloned());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", kept.join(",\n")))
}
