//! Live per-daemon telemetry: rolling-window latency/queue-wait
//! histograms per method, a request flight recorder, and a slow-request
//! log — everything behind the `telemetry` wire method.
//!
//! All state here is **per-[`Engine`](crate::engine::Engine)**, not
//! process-global like the `m3d-obs` counter store: two engines in one
//! process (common in tests) see only their own requests, and every
//! window is driven by the engine's own monotonic clock (microseconds
//! since engine construction), so tests can call the `*_at` variants
//! with hand-picked ticks and get deterministic expiry.
//!
//! The epoll-mailbox handoff does not move these measurement points:
//! `queue_us` still ends when a worker claims the request, and
//! `total_us` still ends when the worker hands the response line off for
//! delivery (now: pushes it into the event loop's mailbox; before: wrote
//! the socket itself). A request answered inline on the event loop (a
//! cheap method, or a `sim` every point of which is memoized) has
//! `queue_us` 0, and its `total_us` ends when the line is appended to the
//! connection's write buffer. Time the event loop spends flushing a slow
//! client's write backlog is deliberately outside `total_us` — it
//! measures the *daemon's* work, not the client's read rate.

use crate::engine::method_counter;
use crate::protocol::Method;
use m3d_core::report::Json;
use m3d_obs::{FlightRecord, FlightRecorder, HistogramSnapshot, WindowedHistogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Rolling windows the `telemetry` method reports, seconds.
pub const WINDOWS_S: [u64; 3] = [1, 10, 60];

/// Duration of one histogram slab. 250 ms slabs mean a "1 s" window sees
/// at most 1.25 s of history (slab-ring rounding; see
/// [`WindowedHistogram::merged`]).
const SLAB_US: u64 = 250_000;

/// Slabs per ring: 256 × 250 ms = 64 s of coverage, enough for the
/// longest window in [`WINDOWS_S`].
const SLABS: usize = 256;

/// Flight-recorder capacity (most recent completed requests retained).
pub const FLIGHT_CAPACITY: usize = 256;

/// Slow-request log capacity.
const SLOW_RING: usize = 32;

/// Default number of flight records returned by `telemetry`.
pub const RECENT_DEFAULT: u64 = 16;

/// Upper bound on the `recent` parameter of `telemetry`.
pub const RECENT_MAX: u64 = 128;

/// Default slow-request threshold, milliseconds (`--slow-ms`).
pub const SLOW_MS_DEFAULT: u64 = 500;

/// Quantiles reported per window, with their JSON field names.
const QUANTILES: [(f64, &str); 4] = [(0.5, "p50"), (0.9, "p90"), (0.95, "p95"), (0.99, "p99")];

fn method_index(m: Method) -> usize {
    Method::ALL
        .iter()
        .position(|x| *x == m)
        .expect("every method is in Method::ALL")
}

/// One finished request, as reported by every serving path.
#[derive(Debug, Clone)]
pub struct RequestObservation {
    /// Client correlation id.
    pub id: i64,
    /// The request's method.
    pub method: Method,
    /// Bytes in the request line.
    pub req_bytes: u64,
    /// Bytes in the final response line.
    pub resp_bytes: u64,
    /// Microseconds spent queued before a worker claimed the request
    /// (0 for inline-answered and oneshot requests).
    pub queue_us: u64,
    /// Microseconds from receipt to the response line being written,
    /// fractions included: the latency windows record it as it is, the
    /// flight records in whole microseconds.
    pub total_us: f64,
    /// Requests coalesced into the batch that served this one (1 when
    /// served alone, 0 when it never reached a batch).
    pub batch: u32,
    /// `"ok"`, a wire error kind, or `"write_error"` when the response
    /// could not be written back.
    pub outcome: &'static str,
}

struct MethodWindows {
    latency: Mutex<WindowedHistogram>,
    queue: Mutex<WindowedHistogram>,
}

/// Per-engine live telemetry: windowed histograms per method, the flight
/// recorder, and the slow-request log.
pub struct ServeTelemetry {
    epoch: Instant,
    /// Slow-request threshold, µs; 0 disables the slow log.
    slow_us: AtomicU64,
    /// One pair of windows per [`Method::ALL`] entry, same order.
    methods: Vec<MethodWindows>,
    flight: FlightRecorder,
    slow: Mutex<VecDeque<FlightRecord>>,
    slow_total: AtomicU64,
}

impl std::fmt::Debug for ServeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeTelemetry")
            .field("slow_us", &self.slow_us.load(Ordering::Relaxed))
            .field("flight_len", &self.flight.len())
            .finish_non_exhaustive()
    }
}

impl ServeTelemetry {
    /// Fresh telemetry with the epoch pinned to now and the default
    /// slow-request threshold.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            slow_us: AtomicU64::new(SLOW_MS_DEFAULT * 1000),
            methods: Method::ALL
                .iter()
                .map(|_| MethodWindows {
                    latency: Mutex::new(WindowedHistogram::new(SLAB_US, SLABS)),
                    queue: Mutex::new(WindowedHistogram::new(SLAB_US, SLABS)),
                })
                .collect(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            slow: Mutex::new(VecDeque::new()),
            slow_total: AtomicU64::new(0),
        }
    }

    /// Set the slow-request threshold (milliseconds; 0 disables logging).
    pub fn set_slow_ms(&self, ms: u64) {
        self.slow_us
            .store(ms.saturating_mul(1000), Ordering::Relaxed);
    }

    /// Microseconds since this engine's construction — the tick every
    /// window runs on.
    fn now_us(&self) -> u64 {
        self.tick(Instant::now())
    }

    /// The tick of instant `at`.
    fn tick(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Record one request that finished at `at`.
    pub fn observe(&self, at: Instant, o: RequestObservation) {
        self.observe_at(self.tick(at), o);
    }

    /// [`observe`](Self::observe) with an injected tick (tests).
    pub(crate) fn observe_at(&self, now_us: u64, o: RequestObservation) {
        let total_us = o.total_us as u64;
        let handle_us = total_us.saturating_sub(o.queue_us);
        let mw = &self.methods[method_index(o.method)];
        // A response that failed to send has no client-visible latency —
        // keep it out of the latency windows (mirroring the global
        // `serve.latency_us` contract) but keep its queue wait, which
        // genuinely happened.
        if o.outcome != "write_error" {
            mw.latency
                .lock()
                .expect("telemetry latency window")
                .record(now_us, o.total_us);
        }
        mw.queue
            .lock()
            .expect("telemetry queue window")
            .record(now_us, o.queue_us as f64);
        let rec = FlightRecord {
            seq: 0, // assigned by the recorder
            id: o.id,
            method: o.method.name(),
            start_us: now_us.saturating_sub(total_us),
            req_bytes: o.req_bytes,
            resp_bytes: o.resp_bytes,
            queue_us: o.queue_us,
            handle_us,
            batch: o.batch,
            outcome: o.outcome,
        };
        let slow_us = self.slow_us.load(Ordering::Relaxed);
        if slow_us > 0 && total_us >= slow_us {
            self.slow_total.fetch_add(1, Ordering::Relaxed);
            let mut ring = self.slow.lock().expect("telemetry slow log");
            if ring.len() == SLOW_RING {
                ring.pop_front();
            }
            ring.push_back(rec.clone());
        }
        self.flight.push(rec);
    }

    /// The full telemetry report as JSON (the `telemetry` method's
    /// default `result`). `recent` bounds the flight records returned.
    pub fn to_json(&self, uptime_s: f64, recent: usize) -> Json {
        self.json_at(self.now_us(), uptime_s, recent)
    }

    fn json_at(&self, now_us: u64, uptime_s: f64, recent: usize) -> Json {
        let snap = m3d_obs::snapshot();
        let methods: Vec<(String, Json)> = Method::ALL
            .iter()
            .map(|m| {
                let mw = &self.methods[method_index(*m)];
                let latency = self.windows_json(&mw.latency, now_us);
                let queue = self.windows_json(&mw.queue, now_us);
                let requests = snap.counter(method_counter(*m)).unwrap_or(0);
                (
                    m.name().to_owned(),
                    Json::obj([
                        ("requests", Json::from(requests)),
                        ("latency_us", latency),
                        ("queue_us", queue),
                    ]),
                )
            })
            .collect();
        let flight_recent: Vec<Json> = self.flight.recent(recent).iter().map(flight_json).collect();
        let slow_recent: Vec<Json> = {
            let ring = self.slow.lock().expect("telemetry slow log");
            ring.iter().rev().map(slow_json).collect()
        };
        Json::obj([
            ("uptime_s", Json::from(uptime_s)),
            (
                "windows_s",
                Json::Arr(WINDOWS_S.iter().map(|w| Json::from(*w)).collect()),
            ),
            ("methods", Json::Obj(methods)),
            (
                "flight",
                Json::obj([
                    ("capacity", Json::from(self.flight.capacity() as u64)),
                    ("dropped", Json::from(self.flight.dropped())),
                    ("recent", Json::Arr(flight_recent)),
                ]),
            ),
            (
                "slow",
                Json::obj([
                    (
                        "threshold_ms",
                        Json::from(self.slow_us.load(Ordering::Relaxed) / 1000),
                    ),
                    ("total", Json::from(self.slow_total.load(Ordering::Relaxed))),
                    ("recent", Json::Arr(slow_recent)),
                ]),
            ),
        ])
    }

    fn windows_json(&self, w: &Mutex<WindowedHistogram>, now_us: u64) -> Json {
        let w = w.lock().expect("telemetry window");
        Json::Obj(
            WINDOWS_S
                .iter()
                .map(|secs| {
                    let h = w.merged("w", now_us, secs * 1_000_000);
                    (format!("{secs}s"), window_stats_json(&h))
                })
                .collect(),
        )
    }

    /// The Prometheus-style text exposition (the `telemetry` method with
    /// `"format":"text"`). One metric per line, `# HELP`/`# TYPE`
    /// comments, labels for method/window/quantile; quantile lines are
    /// emitted only for windows that hold samples.
    pub fn to_text(&self) -> String {
        self.text_at(self.now_us())
    }

    fn text_at(&self, now_us: u64) -> String {
        use std::fmt::Write;
        let snap = m3d_obs::snapshot();
        let mut out = String::new();
        out.push_str("# HELP m3d_serve_requests_total Requests received, per method.\n");
        out.push_str("# TYPE m3d_serve_requests_total counter\n");
        for m in Method::ALL {
            let n = snap.counter(method_counter(m)).unwrap_or(0);
            let _ = writeln!(
                out,
                "m3d_serve_requests_total{{method=\"{}\"}} {n}",
                m.name()
            );
        }
        for (metric, help, pick) in [
            (
                "m3d_serve_latency_us",
                "Request latency, rolling windows, microseconds.",
                true,
            ),
            (
                "m3d_serve_queue_wait_us",
                "Admission-queue wait, rolling windows, microseconds.",
                false,
            ),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} summary");
            for m in Method::ALL {
                let mw = &self.methods[method_index(m)];
                let w = if pick { &mw.latency } else { &mw.queue };
                let w = w.lock().expect("telemetry window");
                for secs in WINDOWS_S {
                    let h = w.merged("w", now_us, secs * 1_000_000);
                    let labels = format!("method=\"{}\",window=\"{secs}s\"", m.name());
                    if h.count > 0 {
                        for (q, _) in QUANTILES {
                            let _ = writeln!(
                                out,
                                "{metric}{{{labels},quantile=\"{q}\"}} {}",
                                h.quantile(q)
                            );
                        }
                    }
                    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count);
                    let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", h.sum);
                }
            }
        }
        for (metric, help, value) in [
            (
                "m3d_serve_write_errors_total",
                "Responses that failed to write back to the client.",
                snap.counter("serve.write_errors").unwrap_or(0),
            ),
            (
                "m3d_serve_flight_dropped_total",
                "Flight records evicted to make room for newer ones.",
                self.flight.dropped(),
            ),
            (
                "m3d_serve_slow_requests_total",
                "Requests at or over the slow threshold.",
                self.slow_total.load(Ordering::Relaxed),
            ),
        ] {
            let _ = writeln!(out, "# HELP {metric} {help}");
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        out
    }
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-window summary: count/mean/max plus the [`QUANTILES`].
fn window_stats_json(h: &HistogramSnapshot) -> Json {
    let mut fields = vec![
        ("count".to_owned(), Json::from(h.count)),
        ("mean".to_owned(), Json::from(h.mean())),
        (
            "max".to_owned(),
            Json::from(if h.count == 0 { 0.0 } else { h.max }),
        ),
    ];
    for (q, label) in QUANTILES {
        fields.push((label.to_owned(), Json::from(h.quantile(q))));
    }
    Json::Obj(fields)
}

fn flight_json(r: &FlightRecord) -> Json {
    Json::obj([
        ("seq", Json::from(r.seq)),
        ("id", Json::from(r.id)),
        ("method", Json::from(r.method)),
        ("start_us", Json::from(r.start_us)),
        ("req_bytes", Json::from(r.req_bytes)),
        ("resp_bytes", Json::from(r.resp_bytes)),
        ("queue_us", Json::from(r.queue_us)),
        ("handle_us", Json::from(r.handle_us)),
        ("batch", Json::from(r.batch as u64)),
        ("outcome", Json::from(r.outcome)),
    ])
}

/// A slow-log entry: the flight record plus its span tree — the request
/// phases as a root `request` span with `queue` and `handle` children.
fn slow_json(r: &FlightRecord) -> Json {
    let span = |name: &str, dur_us: u64| {
        Json::obj([("name", Json::from(name)), ("dur_us", Json::from(dur_us))])
    };
    Json::obj([
        ("id", Json::from(r.id)),
        ("method", Json::from(r.method)),
        ("outcome", Json::from(r.outcome)),
        ("total_us", Json::from(r.queue_us + r.handle_us)),
        (
            "spans",
            Json::obj([
                ("name", Json::from("request")),
                ("dur_us", Json::from(r.queue_us + r.handle_us)),
                (
                    "children",
                    Json::Arr(vec![span("queue", r.queue_us), span("handle", r.handle_us)]),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(method: Method, total_us: u64, outcome: &'static str) -> RequestObservation {
        RequestObservation {
            id: 1,
            method,
            req_bytes: 80,
            resp_bytes: 160,
            queue_us: total_us / 4,
            total_us: total_us as f64,
            batch: 1,
            outcome,
        }
    }

    #[test]
    fn windows_expire_with_injected_ticks() {
        let t = ServeTelemetry::new();
        t.observe_at(100_000, obs(Method::Sim, 1000, "ok"));
        t.observe_at(5_000_000, obs(Method::Sim, 3000, "ok"));
        let j = t.json_at(5_100_000, 5.1, 16);
        let sim = j
            .get("methods")
            .and_then(|m| m.get("sim"))
            .expect("sim block");
        let lat = sim.get("latency_us").expect("latency block");
        let count = |w: &str| match lat.get(w).and_then(|x| x.get("count")) {
            Some(Json::Int(i)) => *i,
            other => panic!("bad count: {other:?}"),
        };
        assert_eq!(count("1s"), 1); // only the t=5s sample
        assert_eq!(count("10s"), 2); // both
        assert_eq!(count("60s"), 2);
        // Flight recorder holds both, newest first.
        let recent = match j.get("flight").and_then(|f| f.get("recent")) {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("bad recent: {other:?}"),
        };
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].get("handle_us"), Some(&Json::from(3000u64 - 750)));
    }

    #[test]
    fn latency_windows_keep_fractional_microseconds() {
        let t = ServeTelemetry::new();
        let mut o = obs(Method::Sim, 0, "ok");
        o.total_us = 2.6;
        t.observe_at(1000, o);
        let h = t.methods[method_index(Method::Sim)]
            .latency
            .lock()
            .expect("window")
            .merged("w", 1000, 1_000_000);
        assert_eq!((h.count, h.sum, h.max), (1, 2.6, 2.6), "2.6 µs, not 2");
        // The flight record keeps whole microseconds.
        let j = t.json_at(1000, 1.0, 16);
        let recent = match j.get("flight").and_then(|f| f.get("recent")) {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("bad recent: {other:?}"),
        };
        assert_eq!(recent[0].get("handle_us"), Some(&Json::from(2u64)));
    }

    #[test]
    fn slow_log_catches_only_over_threshold() {
        let t = ServeTelemetry::new();
        t.set_slow_ms(2); // 2000 µs
        t.observe_at(1000, obs(Method::Plan, 1999, "ok"));
        t.observe_at(2000, obs(Method::Plan, 2000, "ok"));
        t.observe_at(3000, obs(Method::Plan, 9000, "deadline"));
        let j = t.json_at(4000, 0.004, 4);
        let slow = j.get("slow").expect("slow block");
        assert_eq!(slow.get("total"), Some(&Json::from(2u64)));
        let recent = match slow.get("recent") {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("bad slow recent: {other:?}"),
        };
        assert_eq!(recent.len(), 2);
        // Newest first; span tree decomposes queue + handle.
        assert_eq!(recent[0].get("outcome"), Some(&Json::from("deadline")));
        let spans = recent[0].get("spans").expect("span tree");
        assert_eq!(spans.get("name"), Some(&Json::from("request")));
        let children = match spans.get("children") {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("bad children: {other:?}"),
        };
        assert_eq!(children[0].get("dur_us"), Some(&Json::from(2250u64)));
        assert_eq!(children[1].get("dur_us"), Some(&Json::from(6750u64)));
        // Disabling stops logging.
        t.set_slow_ms(0);
        t.observe_at(5000, obs(Method::Plan, 100_000, "ok"));
        let j = t.json_at(6000, 0.006, 4);
        assert_eq!(
            j.get("slow").and_then(|s| s.get("total")),
            Some(&Json::from(2u64))
        );
    }

    #[test]
    fn write_errors_stay_out_of_latency_windows() {
        let t = ServeTelemetry::new();
        t.observe_at(1000, obs(Method::Stats, 500, "ok"));
        t.observe_at(2000, obs(Method::Stats, 900_000, "write_error"));
        let j = t.json_at(3000, 0.003, 8);
        let stats = j
            .get("methods")
            .and_then(|m| m.get("stats"))
            .expect("stats");
        assert_eq!(
            stats
                .get("latency_us")
                .and_then(|l| l.get("1s"))
                .and_then(|w| w.get("count")),
            Some(&Json::from(1u64))
        );
        // ... but the queue window and the flight recorder still see it.
        assert_eq!(
            stats
                .get("queue_us")
                .and_then(|l| l.get("1s"))
                .and_then(|w| w.get("count")),
            Some(&Json::from(2u64))
        );
        let recent = match j.get("flight").and_then(|f| f.get("recent")) {
            Some(Json::Arr(a)) => a.clone(),
            other => panic!("bad recent: {other:?}"),
        };
        assert_eq!(recent[0].get("outcome"), Some(&Json::from("write_error")));
    }

    #[test]
    fn text_exposition_lines_parse() {
        let t = ServeTelemetry::new();
        t.observe_at(1000, obs(Method::Sim, 750, "ok"));
        let text = t.text_at(2000);
        assert!(text.contains("m3d_serve_requests_total{method=\"sim\"}"));
        assert!(text.contains("quantile=\"0.99\""));
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in `{line}`");
            if let Some(open) = name.find('{') {
                assert!(name.ends_with('}'), "unclosed labels in `{line}`");
                assert!(open > 0);
            }
        }
    }
}
