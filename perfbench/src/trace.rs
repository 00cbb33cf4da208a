//! In-memory span recorder for the traced run.
//!
//! A span is kept around every call the benchmark makes into a layer.
//! Spans stay in memory and are written out once, when the run ends.
//! With tracing off, [`Tracer::span`] only calls its closure, so the
//! untraced run pays for one branch per call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    /// Recording thread (spans of one thread nest properly).
    pub thread: u64,
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static THREADS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(THREADS.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span of this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        STACK.with(|s| s.borrow_mut().push(id));
        let start = self.t0.elapsed().as_secs_f64();
        let out = f();
        let end = self.t0.elapsed().as_secs_f64();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                name,
                thread: thread_id(),
                start,
                end,
            });
        out
    }

    /// The innermost open span of this thread (0 when none), to hand
    /// to a thread this one spawns.
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Runs `f` on this thread with `parent` (a span of another thread)
    /// as the cause of the spans it opens.
    pub fn adopt<R>(&self, parent: u64, f: impl FnOnce() -> R) -> R {
        STACK.with(|s| s.borrow_mut().push(parent));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        out
    }

    /// All finished spans, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        spans
    }
}

/// Self time per span name: each span's duration minus the time its
/// children on the same thread cover. Children on other threads run in
/// parallel with their parent and are not subtracted, so the self
/// times of all spans add up to the summed durations of every thread's
/// outermost spans.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_time: BTreeMap<u64, f64> = BTreeMap::new();
    let threads: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    for s in spans {
        if threads.get(&s.parent) == Some(&s.thread) {
            *child_time.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end - s.start) - child_time.get(&s.id).copied().unwrap_or(0.0);
        *out.entry(s.name).or_default() += own;
    }
    out
}

/// Summed duration of each thread's outermost spans: the thread-seconds
/// the trace covers.
pub fn thread_seconds(spans: &[Span]) -> f64 {
    let threads: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.thread)).collect();
    spans
        .iter()
        .filter(|s| threads.get(&s.parent) != Some(&s.thread))
        .map(|s| s.end - s.start)
        .sum()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start\":{},\"end\":{}}}",
            s.id, s.parent, s.name, s.thread, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let t = Tracer::new(true);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            let parent = t.current();
            std::thread::scope(|s| {
                s.spawn(|| {
                    t.adopt(parent, || {
                        t.span("worker", || {
                            std::thread::sleep(std::time::Duration::from_millis(20))
                        })
                    })
                });
            });
        });
        let spans = t.spans();
        let own = self_times(&spans);
        let total: f64 = own.values().sum();
        assert!((total - thread_seconds(&spans)).abs() < 1e-9);
        assert!(own["inner"] >= 0.02);
        assert!(
            own["outer"] >= 0.02,
            "waiting on the worker is outer's own time"
        );
    }
}
