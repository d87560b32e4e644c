//! The traced run's span recorder. Spans are recorded by the benchmark's
//! own code around each public call it makes into a layer; they stay in
//! memory (one recorder per thread) and are written once, at the end, as
//! a Chrome `trace_event` file.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.parse` (the text before the first
    /// `.` is the layer).
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// The job this span belongs to (spans of one job share it).
    pub job: u64,
    /// Thread lane for the trace file.
    pub tid: u32,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u64,
    tid: u32,
}

impl Tracer {
    fn new(origin: Instant, tid: u32) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
            tid,
        }
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on this thread; `tid` names its lane.
pub fn enable(origin: Instant, tid: u32) {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new(origin, tid)));
}

/// Stops recording on this thread and returns its spans.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

static NEXT_JOB: AtomicU64 = AtomicU64::new(1);

/// Starts a new job on this thread: subsequent spans carry its id, which
/// is returned so the job's replay, possibly on another thread, can carry
/// it too.
pub fn next_job() -> u64 {
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    set_job(job);
    job
}

/// Stamps subsequent spans of this thread with `job`.
pub fn set_job(job: u64) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.job = job;
        }
    });
}

/// Runs `f` inside a span named `name` when this thread records, and
/// plainly otherwise.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let index = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns: t.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: t.open.last().copied(),
            job: t.job,
            tid: t.tid,
        });
        t.open.push(index);
        Some(index)
    });
    let result = f();
    if let Some(index) = index {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                let now = t.origin.elapsed().as_nanos() as u64;
                let span = &mut t.spans[index];
                span.dur_ns = now - span.start_ns;
                t.open.pop();
            }
        });
    }
    result
}

/// Records a closed span from `start` to `end`, nested in the span open
/// on this thread, for a call whose start and end are seen by different
/// callbacks.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            let start_ns = start.saturating_duration_since(t.origin).as_nanos() as u64;
            let span = Span {
                name,
                start_ns,
                dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
                parent: t.open.last().copied(),
                job: t.job,
                tid: t.tid,
            };
            t.spans.push(span);
        }
    });
}

/// Self time per span name in ms: each span's duration minus the part
/// covered by its direct children. `spans` must come from one recorder
/// (parent indices are recorder-local).
pub fn self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.dur_ns;
        }
    }
    let mut totals = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        *totals.entry(span.name).or_insert(0.0) +=
            span.dur_ns.saturating_sub(children) as f64 / 1e6;
    }
    totals
}

/// Renders spans as a Chrome `trace_event` JSON document (complete `X`
/// events; `cat` is the layer, `args.job` the job id).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = span.name.split('.').next().unwrap_or(span.name);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"job\":{}}}}}",
            span.name,
            layer,
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
            span.tid,
            span.job
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable(Instant::now(), 0);
        span("job.total", || {
            span("ir.parse", || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = take();
        assert!(take().is_empty());
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let totals = self_ms(&spans);
        assert!(totals["ir.parse"] >= 4.0);
        assert!(totals["job.total"] >= 2.0 && totals["job.total"] < totals["ir.parse"]);
        assert!(chrome_json(&spans).contains("\"cat\":\"ir\""));
    }

    #[test]
    fn disabled_threads_record_nothing() {
        assert_eq!(span("ir.parse", || 7), 7);
        assert!(take().is_empty());
    }
}
