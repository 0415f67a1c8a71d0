//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it (the
//! enclosing span on the same thread) and an optional request id shared by
//! the spans of one request. Spans are kept in memory while the workload
//! runs and written out once at exit: a Chrome trace-event JSON file
//! (load it in `chrome://tracing` or Perfetto) and a per-layer self-time
//! summary. With tracing off, [`span`] only runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
    request: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    next_tid: AtomicU64,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

thread_local! {
    /// (thread id, stack of open span ids, current request id).
    static LOCAL: RefCell<(u64, Vec<u64>, u64)> = const { RefCell::new((0, Vec::new(), 0)) };
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    let _ = TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
    });
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    TRACER.get().is_some()
}

/// Tags the spans this thread records from now on with request `id`
/// (0 clears the tag).
pub fn set_request(id: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().2 = id);
    }
}

/// Runs `f` inside a span called `name`.
pub fn span<R>(name: &str, f: impl FnOnce() -> R) -> R {
    let Some(t) = TRACER.get() else { return f() };
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let (tid, parent, request) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.0 == 0 {
            l.0 = t.next_tid.fetch_add(1, Ordering::Relaxed);
        }
        let parent = l.1.last().copied().unwrap_or(0);
        l.1.push(id);
        (l.0, parent, l.2)
    });
    let start = t.epoch.elapsed().as_nanos() as u64;
    let out = f();
    let end = t.epoch.elapsed().as_nanos() as u64;
    LOCAL.with(|l| l.borrow_mut().1.pop());
    t.spans.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name: name.to_owned(),
        tid,
        start_ns: start,
        end_ns: end,
        request,
    });
    out
}

/// Durations (seconds) of every recorded span called `name`, in the order
/// they closed.
pub fn durations(name: &str) -> Vec<f64> {
    let Some(t) = TRACER.get() else { return Vec::new() };
    let spans = t.spans.lock().expect("span store poisoned");
    spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9).collect()
}

/// Median duration of the spans called `name`, seconds (0 when none ran).
pub fn median_s(name: &str) -> f64 {
    crate::stats::median(&durations(name))
}

/// Total duration of the spans called `name`, seconds (0 when none ran).
pub fn total_s(name: &str) -> f64 {
    durations(name).iter().sum()
}

/// Writes the Chrome trace-event file and the per-layer self-time summary
/// (`<stem>.json`, `<stem>-selftime.txt`) under `dir`.
///
/// # Errors
///
/// Propagates file-system failures.
pub fn write(dir: &Path, stem: &str) -> std::io::Result<()> {
    let Some(t) = TRACER.get() else { return Ok(()) };
    let spans = t.spans.lock().expect("span store poisoned");
    std::fs::create_dir_all(dir)?;

    let mut json = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.name.replace('"', "'"),
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request
        );
    }
    json.push_str("\n]}\n");
    std::fs::write(dir.join(format!("{stem}.json")), json)?;

    // Self time: a span's duration minus the part its direct children
    // cover. Children nest inside their parent on one thread, so their
    // durations never overlap and can be summed.
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for s in spans.iter() {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1 .2));
    let mut txt = format!("{:<40} {:>9} {:>13} {:>13}\n", "span", "count", "total_ms", "self_ms");
    for (name, (count, total, own)) in rows {
        let _ = writeln!(
            txt,
            "{:<40} {:>9} {:>13.3} {:>13.3}",
            name,
            count,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    std::fs::write(dir.join(format!("{stem}-selftime.txt")), txt)
}
