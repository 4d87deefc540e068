//! `m3d-obs` — the workspace's dependency-free tracing and metrics
//! substrate.
//!
//! Everything below the experiment boundary (the red–black SOR iteration
//! loop, the SRAM subarray-organization search, power accounting, the
//! `repro` worker pool) reports into this crate, which turns the raw
//! signals into two artefacts:
//!
//! * **Hierarchical spans** ([`span`] / [`span_named`]) — RAII guards on a
//!   process-wide monotonic clock, buffered per thread in a mutex-sharded
//!   registry and exported as a Chrome `trace_event` JSON file
//!   ([`write_chrome_trace`]) loadable in `chrome://tracing` or Perfetto.
//! * **Named counters and log₂-scaled histograms** ([`add`] / [`record`]) —
//!   solver sweeps, warm-start hits, search candidates pruned, µops
//!   simulated — snapshotted into a [`MetricsSnapshot`] either globally
//!   ([`snapshot`]) or attributed to one experiment via [`TaskMetrics`].
//!
//! For *live* serving telemetry (rolling windows rather than
//! process-lifetime totals) the crate additionally offers:
//!
//! * **Quantiles** — [`HistogramSnapshot::quantile`] estimates
//!   p50/p90/p95/p99 from the log₂ buckets (within a factor of 2, exact
//!   below [`EXACT_QUANTILE_CAP`] samples).
//! * **[`WindowedHistogram`]** — a ring of fixed-duration slabs driven by
//!   the caller's clock (no background thread; deterministic under test
//!   via injected ticks) merged on read into rolling 1 s/10 s/60 s views.
//! * **[`FlightRecorder`]** — a bounded, lock-sharded drop-oldest ring of
//!   structured per-request [`FlightRecord`]s with an eviction counter.
//!
//! # Zero cost when off
//!
//! Collection is disabled by default. Every entry point begins with one
//! relaxed atomic load ([`is_enabled`]); when it returns `false` the call
//! returns immediately, allocates nothing, and takes no lock. Instrumented
//! hot paths therefore pay one predictable branch per call site — the
//! `obs_overhead` bench and the `perf_baseline` tool keep that budget
//! honest (< 2 % on a thermal solve even with collection *on*, since
//! instrumentation sits at solve granularity, not per sweep).
//!
//! # Thread model
//!
//! All stores are process-wide. Spans and counters may be emitted from any
//! thread; trace events land in a per-thread shard (uncontended lock) and
//! merge at export. Counter attribution to the *current task* follows an
//! explicit thread-local stack — worker pools that fan an experiment out
//! over threads propagate it with [`current_task`] + [`TaskMetrics::enter`].

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod flight;
mod metrics;
mod trace;
mod window;

pub use flight::{FlightRecord, FlightRecorder};
pub use metrics::{
    add, current_task, record, snapshot, HistogramSnapshot, MetricsSnapshot, TaskGuard,
    TaskMetrics, EXACT_QUANTILE_CAP,
};
pub use trace::{
    chrome_trace_json, label_thread, span, span_named, take_trace, write_chrome_trace, SpanGuard,
    TraceEvent, TracePhase,
};
pub use window::WindowedHistogram;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn collection on. Idempotent; also pins the trace epoch so span
/// timestamps are relative to the first enablement.
pub fn enable() {
    let _ = epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn collection off. Spans created while enabled still record on drop;
/// new entry points become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether collection is currently enabled (one relaxed atomic load — this
/// is the entire disabled-path cost of every instrumentation site).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide monotonic epoch all span timestamps are measured from.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Drop every buffered trace event, counter, and histogram (global and
/// task-local stores are untouched for *entered* tasks, which hold their
/// own buffers). Intended for tests and for tools that take several
/// independent measurement windows in one process.
pub fn reset() {
    trace::reset();
    metrics::reset();
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_paths_collect_nothing() {
        let _l = test_lock();
        disable();
        reset();
        add("x.counter", 3);
        record("x.hist", 2.0);
        {
            let _s = span("cat", "noop");
            let _n = span_named("cat", || "never built".to_owned());
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty(), "{:?}", snap.counters);
        assert!(snap.histograms.is_empty());
        assert!(take_trace().is_empty());
    }

    #[test]
    fn enable_disable_roundtrip() {
        let _l = test_lock();
        disable();
        assert!(!is_enabled());
        enable();
        assert!(is_enabled());
        disable();
        assert!(!is_enabled());
    }
}
