//! Spans recorded from the benchmark's own calls into each layer, and the
//! counting allocator behind `proc.allocs_per_op`.
//!
//! Spans stay in memory for the length of a run and are summarised when it
//! ends. A span's parent is the span that was open when it began, so the
//! self time of a layer is its duration minus that of its children, and
//! the wall time covered by no top-level span is the benchmark's own
//! bookkeeping (`trace.unattributed_pct`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `driver.invoke`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. A disabled tracer records nothing and costs
/// one branch per boundary, so the same drive code serves the untraced
/// runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Nanoseconds since the tracer was created (the spans' clock).
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Total nanoseconds spent in spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Share of the wall interval `[from_ns, to_ns)` covered by no
    /// top-level span, in percent.
    pub fn unattributed_pct(&self, from_ns: u64, to_ns: u64) -> f64 {
        let wall = to_ns.saturating_sub(from_ns);
        if wall == 0 {
            return 0.0;
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns && s.end_ns <= to_ns)
            .map(Span::ns)
            .sum();
        100.0 * wall.saturating_sub(covered) as f64 / wall as f64
    }

    /// Prints, per span name, the count, total and self time (duration
    /// minus children) on standard error.
    pub fn eprint_summary(&self, workload: &str) {
        for (name, (count, total, own)) in self.summary() {
            eprintln!(
                "{workload} span {name}: count {count} total {:.3} ms self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }

    fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ns();
            e.2 += s.ns().saturating_sub(child_ns[i]);
        }
        out
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while
/// [`count_allocs`] is on. Installed as the global allocator by the
/// benchmark binary; when counting is off it costs one relaxed load.
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic touched with relaxed
// atomics and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from `System`; the caller's
        // guarantees for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on or off (process-wide, all threads).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
