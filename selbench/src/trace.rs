//! Span recording for traced runs (`--trace`).
//!
//! Each thread that does benchmark work owns a [`SpanBuf`]: a buffer
//! allocated once, before any timed work, into which selbench's own code
//! records one span around each public call it makes into the system.
//! Nothing is recorded inside the library. A span holds its name, start,
//! end, parent, request id, the phase it ran in, and a work count (queries
//! in a batch, rows in an update), so per-unit rates are computed where
//! the work happened. When tracing is off a `SpanBuf` records nothing and
//! costs one branch per call site.

use std::io::Write as _;
use std::time::Instant;

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Data, truth, ANALYZE, publish, queries, audit, warm-up.
    Setup,
    /// The timed window.
    Window,
    /// Decomposition passes after the window.
    Pass,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Window => "window",
            Phase::Pass => "pass",
        }
    }
}

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `"serving.batch"`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// Request (batch, cycle) id; spans of one request share it.
    pub request: u32,
    /// Work units the call did (queries, rows, bytes); 0 when none.
    pub work: u32,
    /// Run phase.
    pub phase: Phase,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer.
pub struct SpanBuf {
    enabled: bool,
    epoch: Instant,
    phase: Phase,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

/// Spans one thread may hold; recording past it counts drops instead of
/// allocating inside the timed window. The buffer reserves this much
/// address space up front; pages are committed as spans are written.
pub const CAPACITY: usize = 1 << 20;

impl SpanBuf {
    /// A buffer sharing `epoch` with the run's other buffers; allocates
    /// [`CAPACITY`] spans up front when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        SpanBuf {
            enabled,
            epoch,
            phase: Phase::Setup,
            spans: Vec::with_capacity(if enabled { CAPACITY } else { 0 }),
            open: Vec::with_capacity(if enabled { 64 } else { 0 }),
            dropped: 0,
        }
    }

    /// Tag later spans with `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.phase = phase;
    }

    fn stamp(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u32,
        work: u32,
    ) -> u32 {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start: self.stamp(start),
            end: self.stamp(end),
            parent,
            request,
            work,
            phase: self.phase,
        });
        (self.spans.len() - 1) as u32
    }

    /// Run `f` inside a span named `name`; spans `f` records become its
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        work: u32,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = Instant::now();
        let idx = self.push(name, start, start, parent, request, work);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        if idx != ROOT {
            let end = self.stamp(Instant::now());
            self.spans[idx as usize].end = end;
        }
        out
    }

    /// Record a span whose bounds the caller already measured (the timed
    /// window stamps each request once and shares the stamps with its
    /// latency sample).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: u32,
        work: u32,
    ) {
        if self.enabled {
            let parent = self.open.last().copied().unwrap_or(ROOT);
            self.push(name, start, end, parent, request, work);
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans lost to a full buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered.min(s.ns())
        })
        .collect()
}

/// Write every buffer's spans as tab-separated lines: thread, index,
/// parent, request, phase, name, start_ns, end_ns, self_ns, work.
pub fn write_spans(path: &std::path::Path, buffers: &[&SpanBuf]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "thread\tindex\tparent\trequest\tphase\tname\tstart_ns\tend_ns\tself_ns\twork"
    )?;
    for (t, buf) in buffers.iter().enumerate() {
        let selfs = self_times(buf.spans());
        for (i, (s, own)) in buf.spans().iter().zip(selfs).enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{t}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{own}\t{}",
                s.request,
                s.phase.label(),
                s.name,
                s.start,
                s.end,
                s.work
            )?;
        }
    }
    out.flush()
}

/// Measured cost of recording one span, in nanoseconds: the median of
/// five timed bursts into a scratch buffer.
pub fn span_cost_ns() -> f64 {
    const BURST: usize = 20_000;
    let mut costs = Vec::new();
    for _ in 0..5 {
        let mut buf = SpanBuf::new(true, Instant::now());
        let t0 = Instant::now();
        for i in 0..BURST {
            let now = Instant::now();
            buf.record("calibrate", now, now, i as u32, 1);
        }
        costs.push(t0.elapsed().as_nanos() as f64 / BURST as f64);
        std::hint::black_box(buf.spans().len());
    }
    crate::stats::median(&costs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start,
            end,
            parent,
            request: 0,
            work: 0,
            phase: Phase::Window,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(0, 100, ROOT),
            span(10, 30, 0),
            span(20, 50, 0),  // overlaps the first child: 10..50 covered once
            span(90, 120, 0), // clipped to the parent's end
            span(12, 18, 1),  // grandchild: charged to its parent only
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut buf = SpanBuf::new(true, Instant::now());
        buf.span("outer", 7, 0, |b| {
            b.span("inner", 7, 3, |_| ());
            b.record("leaf", Instant::now(), Instant::now(), 7, 1);
        });
        let s = buf.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", ROOT));
        assert_eq!((s[1].name, s[1].parent, s[1].work), ("inner", 0, 3));
        assert_eq!((s[2].name, s[2].parent), ("leaf", 0));
        assert!(s[0].end >= s[1].end);
        let off = SpanBuf::new(false, Instant::now());
        assert!(off.spans().is_empty());
    }
}
