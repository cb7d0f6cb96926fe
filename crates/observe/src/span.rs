//! Hierarchical span tracing and the self-time profile tree.
//!
//! [`SpanGuard::enter`] (usually via the [`span!`](crate::span!) macro)
//! pushes a frame onto a thread-local stack; dropping the guard pops it,
//! credits the elapsed time to the frame's *path* (`parent/child/...`),
//! and subtracts child time so the aggregate distinguishes *total* from
//! *self* time. Aggregation happens in a global map keyed by path, read
//! back with [`profile`].
//!
//! When tracing is initialised ([`init_tracing`]), each finished span is
//! additionally appended to a per-thread buffer; buffers flush to a JSONL
//! trace file once they grow past a watermark and on [`flush_tracing`].
//! Lock order is always buffer → writer, never the reverse.

use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Flush a thread's trace buffer once it holds this many events.
const FLUSH_WATERMARK: usize = 128;

/// One live span on a thread's stack.
struct Frame {
    /// Slash-joined span path, e.g. `classify/fit/columns`.
    path: String,
    start: Instant,
    /// Nanoseconds spent in already-finished child spans.
    child_ns: u64,
}

thread_local! {
    static STACK: std::cell::RefCell<Vec<Frame>> = const { std::cell::RefCell::new(Vec::new()) };
    static TRACE_BUF: std::cell::OnceCell<Arc<Mutex<Vec<TraceEvent>>>> =
        const { std::cell::OnceCell::new() };
}

/// Aggregated timing for one span path.
#[derive(Debug, Default, Clone, Copy)]
struct SpanStat {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
}

/// One finished span, as written to the JSONL trace file.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    /// Slash-joined span path.
    pub path: String,
    /// Arbitrary but stable per-thread identifier.
    pub thread: u64,
    /// Start time in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Global span aggregation state.
struct SpanState {
    profile: Mutex<HashMap<String, SpanStat>>,
    /// Every live per-thread trace buffer, so `flush_tracing` can drain
    /// buffers owned by other threads.
    buffers: Mutex<Vec<Arc<Mutex<Vec<TraceEvent>>>>>,
    writer: Mutex<Option<BufWriter<File>>>,
    epoch: OnceLock<Instant>,
}

fn state() -> &'static SpanState {
    static STATE: OnceLock<SpanState> = OnceLock::new();
    STATE.get_or_init(|| SpanState {
        profile: Mutex::new(HashMap::new()),
        buffers: Mutex::new(Vec::new()),
        writer: Mutex::new(None),
        epoch: OnceLock::new(),
    })
}

fn epoch() -> Instant {
    *state().epoch.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// An RAII guard timing one hierarchical span.
///
/// Created by [`SpanGuard::enter`] or the [`span!`](crate::span!) macro.
/// The measurement is recorded on drop; bind the guard to a named
/// variable so it survives to the end of the scope.
#[must_use = "binding to `_` drops the guard immediately and times nothing"]
#[derive(Debug)]
pub struct SpanGuard {
    /// `false` when telemetry was disabled at entry — drop does nothing.
    armed: bool,
}

impl SpanGuard {
    /// Opens a span named `name`, nested under the calling thread's
    /// innermost open span (if any).
    pub fn enter(name: &str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { armed: false };
        }
        // Touch the epoch before the frame's start so start offsets are
        // non-negative even for the very first span.
        let _ = epoch();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{}/{}", parent.path, name),
                None => name.to_string(),
            };
            stack.push(Frame {
                path,
                start: Instant::now(),
                child_ns: 0,
            });
        });
        SpanGuard { armed: true }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some(frame) = STACK.with(|stack| stack.borrow_mut().pop()) else {
            // reset_profile() cleared the stack under us; nothing to record.
            return;
        };
        let total_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        STACK.with(|stack| {
            if let Some(parent) = stack.borrow_mut().last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total_ns);
            }
        });
        {
            let mut profile = state().profile.lock();
            let stat = profile.entry(frame.path.clone()).or_default();
            stat.calls += 1;
            stat.total_ns = stat.total_ns.saturating_add(total_ns);
            stat.self_ns = stat.self_ns.saturating_add(self_ns);
        }
        if state().writer.lock().is_some() {
            let start_us = u64::try_from((frame.start - epoch()).as_micros()).unwrap_or(u64::MAX);
            record_trace(TraceEvent {
                path: frame.path,
                thread: thread_id(),
                start_us,
                dur_us: total_ns / 1_000,
            });
        }
    }
}

/// Appends to the calling thread's trace buffer, flushing past the
/// watermark.
fn record_trace(event: TraceEvent) {
    let buf = TRACE_BUF.with(|cell| {
        Arc::clone(cell.get_or_init(|| {
            let buf = Arc::new(Mutex::new(Vec::new()));
            state().buffers.lock().push(Arc::clone(&buf));
            buf
        }))
    });
    let drained = {
        let mut buf = buf.lock();
        buf.push(event);
        if buf.len() >= FLUSH_WATERMARK {
            std::mem::take(&mut *buf)
        } else {
            Vec::new()
        }
    };
    if !drained.is_empty() {
        write_events(&drained);
    }
}

/// Serialises events to the trace writer, if one is installed.
fn write_events(events: &[TraceEvent]) {
    let mut writer = state().writer.lock();
    if let Some(w) = writer.as_mut() {
        for event in events {
            let line = serde_json::to_string(event).unwrap_or_default();
            let _ = writeln!(w, "{line}");
        }
    }
}

/// Starts streaming finished spans as JSONL to `path` (one event per
/// line). Replaces any previously installed trace writer.
///
/// # Errors
/// Returns the I/O error if the file cannot be created.
pub fn init_tracing(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    *state().writer.lock() = Some(BufWriter::new(file));
    Ok(())
}

/// Drains every thread's trace buffer into the trace file and flushes it.
/// A no-op when tracing was never initialised.
pub fn flush_tracing() {
    let buffers: Vec<Arc<Mutex<Vec<TraceEvent>>>> =
        state().buffers.lock().iter().map(Arc::clone).collect();
    for buf in buffers {
        let drained = std::mem::take(&mut *buf.lock());
        if !drained.is_empty() {
            write_events(&drained);
        }
    }
    let mut writer = state().writer.lock();
    if let Some(w) = writer.as_mut() {
        let _ = w.flush();
    }
}

/// One node of the self-time profile tree (flattened; the hierarchy is
/// encoded in the slash-joined `path`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanNode {
    /// Slash-joined span path, e.g. `classify/fit`.
    pub path: String,
    /// Number of completed spans at this path.
    pub calls: u64,
    /// Wall time including children, in seconds.
    pub total_seconds: f64,
    /// Wall time excluding children, in seconds.
    pub self_seconds: f64,
}

/// Returns the aggregated profile tree, sorted by path (so children sort
/// directly under their parents).
#[must_use]
pub fn profile() -> Vec<SpanNode> {
    let profile = state().profile.lock();
    let mut nodes: Vec<SpanNode> = profile
        .iter()
        .map(|(path, stat)| SpanNode {
            path: path.clone(),
            calls: stat.calls,
            total_seconds: ns_to_seconds(stat.total_ns),
            self_seconds: ns_to_seconds(stat.self_ns),
        })
        .collect();
    nodes.sort_by(|a, b| a.path.cmp(&b.path));
    nodes
}

/// Nanosecond count → seconds; precision loss beyond 2^53 ns (~104 days)
/// is acceptable for display.
#[allow(clippy::cast_precision_loss)]
fn ns_to_seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Clears the aggregated profile and the calling thread's span stack
/// (test hook). Open guards on *other* threads keep timing; their frames
/// simply re-create entries when they close.
pub fn reset_profile() {
    state().profile.lock().clear();
    STACK.with(|stack| stack.borrow_mut().clear());
}

#[cfg(test)]
#[cfg(feature = "enabled")]
mod tests {
    use super::*;

    /// Span tests share the global profile map, so they run under one
    /// lock to avoid cross-test interference.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn nesting_builds_paths_and_self_time() {
        let _l = locked();
        reset_profile();
        {
            let _outer = SpanGuard::enter("outer_a");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = SpanGuard::enter("inner_a");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let nodes = profile();
        let outer = nodes.iter().find(|n| n.path == "outer_a").unwrap();
        let inner = nodes.iter().find(|n| n.path == "outer_a/inner_a").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_seconds >= inner.total_seconds);
        assert!(outer.self_seconds <= outer.total_seconds);
        // Outer's self time excludes inner's total time.
        assert!(outer.self_seconds <= outer.total_seconds - inner.total_seconds + 1e-3);
    }

    #[test]
    fn span_macro_guard_lasts_to_the_end_of_its_block() {
        let _l = locked();
        reset_profile();
        {
            crate::span!("macro_outer");
            crate::span!("macro_same_block");
            {
                crate::span!("macro_inner");
            }
        }
        let nodes = profile();
        let paths: Vec<&str> = nodes.iter().map(|n| n.path.as_str()).collect();
        // Both guards of the outer block are still open when the inner
        // block runs, and the second one nests under the first.
        assert!(paths.contains(&"macro_outer"), "{paths:?}");
        assert!(paths.contains(&"macro_outer/macro_same_block"), "{paths:?}");
        assert!(
            paths.contains(&"macro_outer/macro_same_block/macro_inner"),
            "{paths:?}"
        );
    }

    #[test]
    fn repeated_spans_accumulate_calls() {
        let _l = locked();
        reset_profile();
        for _ in 0..5 {
            let _g = SpanGuard::enter("repeat_a");
        }
        let nodes = profile();
        let node = nodes.iter().find(|n| n.path == "repeat_a").unwrap();
        assert_eq!(node.calls, 5);
    }

    #[test]
    fn tracing_writes_parseable_jsonl() {
        let _l = locked();
        reset_profile();
        let dir = std::env::temp_dir().join("udm_observe_span_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        init_tracing(&path).unwrap();
        {
            let _g = SpanGuard::enter("traced_a");
        }
        flush_tracing();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        assert!(!lines.is_empty());
        for line in lines {
            let value = serde_json::parse_value(line).unwrap();
            let entries = match value {
                serde::Value::Map(entries) => entries,
                other => panic!("expected object, got {other:?}"),
            };
            assert!(entries.iter().any(|(k, _)| k == "path"));
            assert!(entries.iter().any(|(k, _)| k == "dur_us"));
        }
        // Detach the writer so later tests don't keep appending here.
        *state().writer.lock() = None;
        let _ = std::fs::remove_dir_all(&dir);
    }
}
