//! Spans, per-thread event shards, and the Chrome `trace_event` exporter.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The subset of Chrome trace-event phases the exporter emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete event (`"X"`): one span with a start and a duration.
    Complete,
    /// A metadata event (`"M"`): thread names for the trace viewer.
    Metadata,
}

impl TracePhase {
    fn as_str(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Metadata => "M",
        }
    }
}

/// One buffered trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (for metadata events: the metadata kind, `thread_name`).
    pub name: Cow<'static, str>,
    /// Category — by convention the crate or subsystem (`thermal`, `sram`,
    /// `experiment`, ...).
    pub cat: &'static str,
    /// Event phase.
    pub ph: TracePhase,
    /// Microseconds since the obs epoch.
    pub ts_us: f64,
    /// Span duration in microseconds (0 for metadata).
    pub dur_us: f64,
    /// Thread id (small sequential integers, stable per thread).
    pub tid: u64,
    /// Metadata argument (`thread_name` payload), if any.
    pub arg_name: Option<String>,
}

/// One thread's event buffer; shared with the global registry for export.
type Shard = Arc<Mutex<Vec<TraceEvent>>>;

/// Per-thread shard registry: each thread buffers into its own mutex (the
/// lock is uncontended except at export time).
fn shards() -> &'static Mutex<Vec<Shard>> {
    static SHARDS: OnceLock<Mutex<Vec<Shard>>> = OnceLock::new();
    SHARDS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_SHARD: OnceCell<Shard> = const { OnceCell::new() };
    static LOCAL_TID: OnceCell<u64> = const { OnceCell::new() };
}

/// This thread's stable trace id (assigned on first use, starting at 1).
fn tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    LOCAL_TID.with(|c| *c.get_or_init(|| NEXT.fetch_add(1, Ordering::Relaxed)))
}

fn push_event(ev: TraceEvent) {
    LOCAL_SHARD.with(|cell| {
        let shard = cell.get_or_init(|| {
            let shard = Arc::new(Mutex::new(Vec::new()));
            shards()
                .lock()
                .expect("obs trace shard registry")
                .push(Arc::clone(&shard));
            shard
        });
        shard.lock().expect("obs trace shard").push(ev);
    });
}

fn now_us() -> f64 {
    Instant::now().duration_since(crate::epoch()).as_secs_f64() * 1e6
}

/// An RAII span: records one complete trace event, from construction to
/// drop, when collection was enabled at construction. Inert (no clock read,
/// no allocation) otherwise.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    open: Option<(Instant, &'static str, Cow<'static, str>)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, cat, name)) = self.open.take() {
            let ts_us = start.duration_since(crate::epoch()).as_secs_f64() * 1e6;
            push_event(TraceEvent {
                name,
                cat,
                ph: TracePhase::Complete,
                ts_us,
                dur_us: now_us() - ts_us,
                tid: tid(),
                arg_name: None,
            });
        }
    }
}

/// Open a span with a static name. The guard records the span on drop.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    SpanGuard {
        open: crate::is_enabled().then(|| (Instant::now(), cat, Cow::Borrowed(name))),
    }
}

/// Open a span whose name is built lazily — the closure (and its
/// allocation) runs only when collection is enabled.
#[inline]
pub fn span_named(cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
    SpanGuard {
        open: crate::is_enabled().then(|| (Instant::now(), cat, Cow::Owned(name()))),
    }
}

/// Name the calling thread in the trace viewer (worker-pool lanes). No-op
/// while disabled.
pub fn label_thread(label: impl Into<String>) {
    if !crate::is_enabled() {
        return;
    }
    push_event(TraceEvent {
        name: Cow::Borrowed("thread_name"),
        cat: "meta",
        ph: TracePhase::Metadata,
        ts_us: 0.0,
        dur_us: 0.0,
        tid: tid(),
        arg_name: Some(label.into()),
    });
}

/// Drain every shard and return all events, sorted by timestamp (metadata
/// first at equal timestamps, so thread names precede their spans).
pub fn take_trace() -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for shard in shards().lock().expect("obs trace shard registry").iter() {
        out.append(&mut shard.lock().expect("obs trace shard"));
    }
    out.sort_by(|a, b| {
        let meta_first = (a.ph != TracePhase::Metadata).cmp(&(b.ph != TracePhase::Metadata));
        meta_first
            .then(a.ts_us.total_cmp(&b.ts_us))
            .then(a.tid.cmp(&b.tid))
    });
    out
}

pub(crate) fn reset() {
    for shard in shards().lock().expect("obs trace shard registry").iter() {
        shard.lock().expect("obs trace shard").clear();
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render events as a Chrome `trace_event` JSON document (the
/// object-with-`traceEvents` form accepted by `chrome://tracing` and
/// Perfetto). Timestamps are microseconds; all events share `pid` 1.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str("  {\"name\": ");
        escape_into(&ev.name, &mut out);
        out.push_str(", \"cat\": ");
        escape_into(ev.cat, &mut out);
        out.push_str(", \"ph\": \"");
        out.push_str(ev.ph.as_str());
        out.push_str("\", \"pid\": 1, \"tid\": ");
        out.push_str(&ev.tid.to_string());
        out.push_str(", \"ts\": ");
        out.push_str(&format!("{:.3}", ev.ts_us));
        match ev.ph {
            TracePhase::Complete => {
                out.push_str(", \"dur\": ");
                out.push_str(&format!("{:.3}", ev.dur_us.max(0.0)));
            }
            TracePhase::Metadata => {
                out.push_str(", \"args\": {\"name\": ");
                escape_into(ev.arg_name.as_deref().unwrap_or(""), &mut out);
                out.push('}');
            }
        }
        out.push('}');
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Drain the trace and write it to `path` as Chrome-trace JSON. Returns the
/// number of events written.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<usize> {
    let events = take_trace();
    std::fs::write(path, chrome_trace_json(&events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_nested_and_threaded() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        {
            let _outer = span("test", "outer");
            {
                let _inner = span_named("test", || format!("inner-{}", 7));
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    label_thread("test-worker");
                    let _w = span("test", "worker-span");
                });
            });
        }
        let events = take_trace();
        crate::disable();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_ref()).collect();
        assert!(names.contains(&"outer"));
        assert!(names.contains(&"inner-7"));
        assert!(names.contains(&"worker-span"));
        assert!(names.contains(&"thread_name"));
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        let inner = events.iter().find(|e| e.name == "inner-7").expect("inner");
        assert!(outer.dur_us >= inner.dur_us);
        assert!(outer.ts_us <= inner.ts_us);
        // The worker ran on a different thread lane.
        let worker = events.iter().find(|e| e.name == "worker-span").expect("w");
        assert_ne!(worker.tid, outer.tid);
        // Drained: a second take is empty.
        assert!(take_trace().is_empty());
    }

    #[test]
    fn chrome_json_shape_and_escaping() {
        let events = vec![
            TraceEvent {
                name: Cow::Borrowed("thread_name"),
                cat: "meta",
                ph: TracePhase::Metadata,
                ts_us: 0.0,
                dur_us: 0.0,
                tid: 3,
                arg_name: Some("worker \"0\"".to_owned()),
            },
            TraceEvent {
                name: Cow::Owned("solve\nx".to_owned()),
                cat: "thermal",
                ph: TracePhase::Complete,
                ts_us: 1.5,
                dur_us: 2.25,
                tid: 3,
                arg_name: None,
            },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"args\": {\"name\": \"worker \\\"0\\\"\"}"));
        assert!(json.contains("\"name\": \"solve\\nx\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 2.250"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn empty_trace_is_valid_json() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("\"traceEvents\": [\n]}"), "{json}");
    }

    #[test]
    fn metadata_sorts_before_spans() {
        let _l = crate::test_lock();
        crate::enable();
        crate::reset();
        {
            let _s = span("test", "before-label");
        }
        label_thread("late-label");
        let events = take_trace();
        crate::disable();
        assert_eq!(events[0].ph, TracePhase::Metadata);
    }
}
