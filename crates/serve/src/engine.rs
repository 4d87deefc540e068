//! The query engine: answers parsed requests against the warm process
//! state, and the request path every serving mode shares. The `--oneshot`
//! mode of the `serve` binary, the daemon (inline and on its workers) and
//! the shard router all admit a line with `admit`, run handler code
//! behind `guarded`, and account for the finished request with
//! `ReqMeta::complete`; `--oneshot` also frames its input with the
//! daemon's framing and, like a daemon connection, answers a `sim` whose
//! every point is memoized on `Engine::sim_hit`. That is what makes "concurrent answers equal serial
//! answers byte-for-byte" checkable: every path runs the same code over
//! the same point list.

use crate::event_loop::{frame_lines, Framed};
use crate::protocol::{
    err_line, ok_line, parse_request, partial_line, result_line, ErrorKind, Method, Params,
    Request, SimRequest, WireError, MAX_LINE_BYTES,
};
use crate::telemetry::{RequestObservation, ServeTelemetry, RECENT_DEFAULT, RECENT_MAX};
use m3d_core::experiments::registry::{find, run_experiments, Ctx, CtxError, ExperimentError};
use m3d_core::experiments::RunScale;
use m3d_core::report::{metrics_json, Json};
use m3d_core::search::{
    chunk_json, outcome_json, run_search, SearchError, SearchOptions, SearchSpace,
};
use m3d_uarch::batch::{result_cache_len, SimBatch, SimPoint};
use m3d_uarch::stats::PerfResult;
use m3d_uarch::SimError;
use std::io::{Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Every counter the server maintains. [`Engine::stats`] reports each of
/// them unconditionally (zeros included), so monitoring clients can tell
/// "never happened" apart from "not a counter".
pub const SERVE_COUNTERS: [&str; 19] = [
    "serve.requests",
    "serve.requests.sim",
    "serve.requests.experiment",
    "serve.requests.planner",
    "serve.requests.plan",
    "serve.requests.stats",
    "serve.requests.telemetry",
    "serve.coalesced",
    // `sim` requests the daemon answered from the memo cache on its event
    // loop, without queueing them.
    "serve.inline_hits",
    "serve.rejected",
    "serve.deadline_expired",
    "serve.errors",
    "serve.plan_chunks",
    "serve.plan_aborted",
    "serve.write_errors",
    // Shard-router counters (always zero in a plain single daemon; the
    // router process maintains them — see `crate::router`).
    "serve.shard_deaths",
    "serve.shard_failed",
    "serve.shard_rerouted",
    "serve.shard_subrequests",
];

/// Sentinel for "no injected panic" — [`inject_sim_panic_seed`] cannot
/// arm `u64::MAX` itself, which no real request uses.
const NO_INJECTED_PANIC: u64 = u64::MAX;

static INJECTED_PANIC_SEED: std::sync::atomic::AtomicU64 =
    std::sync::atomic::AtomicU64::new(NO_INJECTED_PANIC);

/// Test hook: arm the `sim` batch path and the memo-hit path to
/// panic whenever a request carries a point with this exact seed (`None`
/// disarms). The serve tests use it to prove a panicking request is
/// answered with the `panic` error kind and leaves the worker pool (or,
/// for a memo hit, the event loop) able to answer subsequent requests.
/// Process-global; pick a seed no other concurrent test uses.
pub fn inject_sim_panic_seed(seed: Option<u64>) {
    INJECTED_PANIC_SEED.store(
        seed.unwrap_or(NO_INJECTED_PANIC),
        std::sync::atomic::Ordering::SeqCst,
    );
}

/// Panic if [`inject_sim_panic_seed`] armed a seed one of `reqs` carries.
fn injected_panic_check<'a>(reqs: impl IntoIterator<Item = &'a SimRequest>) {
    let armed = INJECTED_PANIC_SEED.load(std::sync::atomic::Ordering::SeqCst);
    if armed != NO_INJECTED_PANIC
        && reqs
            .into_iter()
            .any(|r| r.points.iter().any(|p| p.seed == armed))
    {
        panic!("injected sim panic (seed {armed})");
    }
}

/// The per-method request counter for a method (`serve.requests.sim`,
/// ...). Every name is in [`SERVE_COUNTERS`], so `stats` and `telemetry`
/// report them all with explicit zeros.
pub fn method_counter(m: Method) -> &'static str {
    match m {
        Method::Sim => "serve.requests.sim",
        Method::Experiment => "serve.requests.experiment",
        Method::Planner => "serve.requests.planner",
        Method::Plan => "serve.requests.plan",
        Method::Stats => "serve.requests.stats",
        Method::Telemetry => "serve.requests.telemetry",
    }
}

/// An admitted request's identity, arrival facts and deadline, carried
/// from [`admit`] to [`ReqMeta::complete`] so the flight recorder can
/// reconstruct the request's life.
pub(crate) struct ReqMeta {
    pub(crate) id: i64,
    pub(crate) method: Method,
    pub(crate) received: Instant,
    pub(crate) req_bytes: u64,
    /// `deadline_ms` after receipt, when the request carries one.
    pub(crate) deadline: Option<Instant>,
}

/// Admission, shared by every serving path: parse one framed client line
/// and count it in `serve.requests` and its per-method counter. A line
/// that does not parse counts in `serve.errors` instead, and the rendered
/// error line that answers it comes back as the `Err`.
pub(crate) fn admit(line: &str) -> Result<(Request, ReqMeta), String> {
    let received = Instant::now();
    match parse_request(line) {
        Ok(req) => {
            m3d_obs::add("serve.requests", 1);
            m3d_obs::add(method_counter(req.method), 1);
            let meta = ReqMeta {
                id: req.id,
                method: req.method,
                received,
                req_bytes: line.len() as u64,
                deadline: req
                    .deadline_ms
                    .map(|ms| received + Duration::from_millis(ms)),
            };
            Ok((req, meta))
        }
        Err((id, e)) => {
            m3d_obs::add("serve.errors", 1);
            Err(err_line(id, &e))
        }
    }
}

/// Admission of a line over [`MAX_LINE_BYTES`]: counted in
/// `serve.errors` and answered with id `null`, since nothing of it was
/// parsed.
pub(crate) fn admit_oversized() -> String {
    m3d_obs::add("serve.errors", 1);
    err_line(
        None,
        &WireError::new(
            ErrorKind::Oversized,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ),
    )
}

/// The panic guard every serving path runs handler code behind: a panic
/// becomes the `panic` error kind carrying the payload's message, and the
/// calling thread (a worker, the event loop, or `--oneshot`'s) lives on.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, WireError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let text = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "handler panicked".to_owned()
        };
        WireError::new(ErrorKind::Panic, text)
    })
}

/// Render a handler outcome as its terminating reply line, with the error
/// kind it failed with (`None` on success).
pub(crate) fn reply_line(id: i64, result: Result<Json, WireError>) -> (String, Option<ErrorKind>) {
    match result {
        Ok(v) => (ok_line(id, v), None),
        Err(e) => (err_line(Some(id), &e), Some(e.kind)),
    }
}

impl ReqMeta {
    /// Completion, shared by every serving path: account for this
    /// request's terminating reply `line`, which failed with `outcome`
    /// (`None`: it succeeded). An error counts in `serve.errors` and, by
    /// kind, in `serve.deadline_expired`, `serve.rejected` or
    /// `serve.shard_failed`. A `delivered` reply records its latency in
    /// `serve.latency_us`; one that never reached its client (the
    /// connection was gone) records none, and its flight record says
    /// `write_error`. Every completion leaves one flight record.
    pub(crate) fn complete(
        &self,
        telemetry: &ServeTelemetry,
        line: &str,
        outcome: Option<ErrorKind>,
        delivered: bool,
        queue_us: u64,
        batch: u32,
    ) {
        if let Some(kind) = outcome {
            m3d_obs::add("serve.errors", 1);
            match kind {
                ErrorKind::Deadline => m3d_obs::add("serve.deadline_expired", 1),
                ErrorKind::Overloaded => m3d_obs::add("serve.rejected", 1),
                ErrorKind::ShardDown => m3d_obs::add("serve.shard_failed", 1),
                _ => {}
            }
        }
        let now = Instant::now();
        let total_us = micros(now.saturating_duration_since(self.received));
        if delivered {
            m3d_obs::record("serve.latency_us", total_us);
        }
        telemetry.observe(
            now,
            RequestObservation {
                id: self.id,
                method: self.method,
                req_bytes: self.req_bytes,
                resp_bytes: line.len() as u64,
                queue_us,
                total_us,
                batch,
                outcome: match outcome {
                    _ if !delivered => "write_error",
                    None => "ok",
                    Some(kind) => kind.wire_name(),
                },
            },
        );
    }
}

/// A duration in microseconds, fractions included: a few-µs request
/// records 2.6, not a truncated 2.
fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn get_u64(obj: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(WireError::bad_request(format!(
            "`{key}` must be a non-negative integer"
        ))),
    }
}

/// The engine: process-wide warm state plus the handlers for every method.
pub struct Engine {
    ctx: Ctx,
    start: Instant,
    telemetry: ServeTelemetry,
}

impl Engine {
    /// Build an engine. `quick` selects the registry's quick scale for
    /// `experiment` queries; `jobs` sizes both the batch-engine lanes and
    /// the experiment worker pool (validated like everywhere else, via
    /// [`Ctx::builder`]). Enables `m3d-obs` collection — a server without
    /// its `stats` method would be flying blind.
    pub fn new(quick: bool, jobs: usize) -> Result<Engine, CtxError> {
        let scale = if quick {
            RunScale::quick()
        } else {
            RunScale::full()
        };
        let ctx = Ctx::builder()
            .scale(scale)
            .quick(quick)
            .jobs(jobs)
            .build()?;
        m3d_obs::enable();
        for c in SERVE_COUNTERS {
            m3d_obs::add(c, 0);
        }
        Ok(Engine {
            ctx,
            start: Instant::now(),
            telemetry: ServeTelemetry::new(),
        })
    }

    /// The context (scale, quickness, worker lanes) this engine runs with.
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// This engine's live telemetry (windows, flight recorder, slow log).
    pub fn live(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// Set the slow-request log threshold (`--slow-ms`; 0 disables).
    pub fn set_slow_ms(&self, ms: u64) {
        self.telemetry.set_slow_ms(ms);
    }

    /// Answer a group of `sim` requests, each given with its id, with
    /// **one** batch submission: their point lists are concatenated, so
    /// requests sharing a warm key share a warm-up checkpoint, then the
    /// results are split back per request into reply lines. Each reply is
    /// a pure function of its own request's point list (results are
    /// per-point; no batch-wide statistics leak in), which keeps coalesced
    /// answers byte-identical to serial ones.
    pub(crate) fn sim_group(
        &self,
        reqs: &[(i64, &SimRequest)],
        deadline: Option<Instant>,
    ) -> Vec<(String, Option<ErrorKind>)> {
        injected_panic_check(reqs.iter().map(|(_, r)| *r));
        let all: Vec<SimPoint> = reqs
            .iter()
            .flat_map(|(_, r)| r.points.iter().cloned())
            .collect();
        let mut batch = SimBatch::new(self.ctx.jobs());
        if let Some(d) = deadline {
            batch = batch.with_deadline(d);
        }
        let results = batch.run(&all);
        let mut offset = 0;
        reqs.iter()
            .map(|&(id, req)| {
                let slice = &results[offset..offset + req.points.len()];
                offset += req.points.len();
                sim_reply(id, slice.iter().map(Result::as_ref), req.strict)
            })
            .collect()
    }

    /// The memo-hit path, which every serving mode tries first for a
    /// `sim`: answer request `id` from the memo cache alone when every one
    /// of its points is cached — the same reply line
    /// [`Engine::sim_group`] would give, with the same `uarch.batch.*`
    /// counts, but without a batch submission — behind the panic guard,
    /// counted in `serve.inline_hits`. `None` on any miss, with nothing
    /// counted; the caller then takes the full path. Deadlines do not
    /// apply (memo hits are served past a deadline anyway); `strict` does.
    pub(crate) fn sim_hit(&self, id: i64, req: &SimRequest) -> Option<(String, Option<ErrorKind>)> {
        let hit = guarded(|| {
            let hits = SimBatch::new(self.ctx.jobs()).run_cached(&req.points)?;
            injected_panic_check([req]);
            Some(sim_reply(id, hits.iter().map(Ok), req.strict))
        })
        .unwrap_or_else(|e| Some(reply_line(id, Err(e))));
        if hit.is_some() {
            m3d_obs::add("serve.inline_hits", 1);
        }
        hit
    }

    /// Answer one `sim` alone: its params' error, else a memo hit, else a
    /// batch run of its points behind the panic guard.
    fn sim(
        &self,
        id: i64,
        sim: Result<SimRequest, WireError>,
        deadline: Option<Instant>,
    ) -> (String, Option<ErrorKind>) {
        let sim = match sim {
            Ok(sim) => sim,
            Err(e) => return reply_line(id, Err(e)),
        };
        self.sim_hit(id, &sim).unwrap_or_else(|| {
            guarded(|| self.sim_group(&[(id, &sim)], deadline).pop())
                .map(|reply| reply.expect("one request in, one reply out"))
                .unwrap_or_else(|e| reply_line(id, Err(e)))
        })
    }

    /// The planned design space as JSON (computing it on first use; the
    /// `OnceLock` in [`Ctx`] memoizes it for the process lifetime).
    pub fn planner(&self) -> Json {
        self.ctx.space().to_json()
    }

    /// A live metrics snapshot plus server-level gauges. The snapshot
    /// omits zero counters by design, but a monitoring client should see
    /// every `serve.*` counter unconditionally (a missing counter is
    /// indistinguishable from a misspelled one), so the serve set is
    /// re-inserted with explicit zeros.
    pub fn stats(&self) -> Json {
        Json::obj([
            ("uptime_s", Json::from(self.start.elapsed().as_secs_f64())),
            ("memo_cache_len", Json::from(result_cache_len())),
            ("topology", crate::router::single_topology_json()),
            ("metrics", metrics_json(&serve_counters_snapshot())),
        ])
    }

    /// Answer a `telemetry` request: rolling per-method windows with
    /// quantiles, the most recent flight records (`"recent"`, default
    /// 16, capped at 128), and the slow-request log. `"format":"text"`
    /// returns the Prometheus-style exposition wrapped as
    /// `{"text": "..."}`; the default (or `"format":"json"`) is the
    /// structured report.
    pub fn telemetry(&self, params: &Json) -> Result<Json, WireError> {
        telemetry_response(&self.telemetry, self.start.elapsed().as_secs_f64(), params)
    }

    /// Run an `experiment` or a `plan`: work that must not start once its
    /// deadline has passed. Every serving path runs both through here, so
    /// this holds the one check that refuses to start them late.
    ///
    /// An `experiment` answers its registry entry's schema-v2 JSON. A
    /// `plan` runs a design-space search: `emit` receives one rendered
    /// partial line (no trailing newline) per completed chunk — the
    /// frontier over everything processed so far — and returns whether
    /// the receiver still wants the stream: `false` (the daemon's "the
    /// client hung up" signal) stops the search at the next chunk
    /// boundary, counts `serve.plan_aborted`, and fails with the `aborted`
    /// kind. The return value is the final outcome for the terminating
    /// line. The emitted sequence and the outcome are pure functions of
    /// the spec: identical across worker counts and serving paths.
    pub(crate) fn run_task(
        &self,
        meta: &ReqMeta,
        params: &Json,
        mut emit: impl FnMut(&str) -> bool,
    ) -> Result<Json, WireError> {
        let plan = meta.method == Method::Plan;
        if meta.deadline.is_some_and(|d| Instant::now() >= d) {
            let what = if plan { "search" } else { "experiment" };
            return Err(WireError::new(
                ErrorKind::Deadline,
                format!("deadline expired before the {what} started"),
            ));
        }
        if !plan {
            let name = match params.get("name") {
                Some(Json::Str(s)) => s.as_str(),
                _ => return Err(WireError::bad_request("`name` must be a string")),
            };
            let Some(spec) = find(name) else {
                return Err(WireError::bad_request(format!(
                    "unknown experiment `{name}` (try `repro --list`)"
                )));
            };
            let outcomes = run_experiments(&self.ctx, &[spec], self.ctx.jobs(), |_| {});
            let outcome = &outcomes[0];
            return match &outcome.report {
                Ok(_) => Ok(m3d_bench::artifacts::experiment_json(outcome)),
                Err(e) => Err(WireError::from(e)),
            };
        }
        let spec = SearchSpace::from_json(params).map_err(plan_error)?;
        let opts = SearchOptions {
            jobs: self.ctx.jobs(),
            prune: true,
            deadline: meta.deadline,
        };
        run_search(self.ctx.space(), &spec, &opts, |chunk| {
            m3d_obs::add("serve.plan_chunks", 1);
            emit(&partial_line(meta.id, chunk_json(chunk)))
        })
        .map(|out| outcome_json(&out))
        .map_err(|e| {
            if e == SearchError::Aborted {
                m3d_obs::add("serve.plan_aborted", 1);
            }
            plan_error(e)
        })
    }

    /// Answer one raw request line: hand each `plan` partial line to
    /// `emit` as the search produces it (`emit` returns whether the
    /// receiver still wants the stream, as in `run_task`), and return the
    /// terminating line. This is the serial path (no queue, no
    /// coalescing; deadlines still apply) that `--oneshot` runs, and the
    /// reference the concurrency tests compare server output against. A
    /// `sim` tries the daemon's memo-hit path first, as a daemon
    /// connection does.
    fn answer(&self, line: &str, emit: impl FnMut(&str) -> bool) -> String {
        let (req, meta) = match admit(line) {
            Ok(admitted) => admitted,
            Err(reply) => return reply,
        };
        let (reply, outcome) = match req.params {
            Params::Sim(sim) => self.sim(req.id, sim, meta.deadline),
            Params::Tree(params) => {
                let result = guarded(|| match req.method {
                    Method::Experiment | Method::Plan => self.run_task(&meta, &params, emit),
                    Method::Planner => Ok(self.planner()),
                    Method::Stats => Ok(self.stats()),
                    Method::Telemetry => self.telemetry(&params),
                    Method::Sim => unreachable!("a `sim`'s params are read into points"),
                });
                reply_line(req.id, result.unwrap_or_else(Err))
            }
        };
        meta.complete(&self.telemetry, &reply, outcome, true, 0, 1);
        reply
    }

    /// Answer one raw request line with every response line it produces
    /// (no trailing newlines), in wire order. For `plan` that is zero or
    /// more partial lines followed by the terminating line; for every
    /// other method exactly one line.
    pub fn answer_lines(&self, line: &str) -> Vec<String> {
        let mut out = Vec::new();
        let reply = self.answer(line, |partial| {
            out.push(partial.to_owned());
            true
        });
        out.push(reply);
        out
    }

    /// Answer every request line read from `input` until EOF, writing and
    /// flushing each reply line to `output` as soon as it exists (a
    /// `plan`'s partials as the search produces them): the whole `serve
    /// --oneshot` mode. Input is framed exactly as the daemon frames a
    /// client connection — the [`MAX_LINE_BYTES`] cap with an `oversized`
    /// answer and resync at the next newline, lossy UTF-8, trailing `\r`s
    /// trimmed, blank lines skipped — except that EOF also ends an
    /// unterminated last line. Stops at the first read or write error; a
    /// write error during a `plan` first stops its search at the next
    /// chunk boundary, as a client hanging up on a daemon does.
    pub fn answer_stream(
        &self,
        mut input: impl Read,
        mut output: impl Write,
    ) -> std::io::Result<()> {
        let (mut rbuf, mut discarding) = (Vec::new(), false);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = match input.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            rbuf.extend_from_slice(if n == 0 { b"\n" } else { &chunk[..n] });
            let mut failed = None;
            frame_lines(&mut rbuf, &mut discarding, MAX_LINE_BYTES, |line| {
                if failed.is_some() {
                    return;
                }
                let reply = match line {
                    Framed::Line(line) => self.answer(&line, |partial| {
                        let written = writeln!(output, "{partial}").and_then(|()| output.flush());
                        written.map_err(|e| failed = Some(e)).is_ok()
                    }),
                    Framed::Oversized => admit_oversized(),
                };
                if failed.is_none() {
                    let written = writeln!(output, "{reply}").and_then(|()| output.flush());
                    failed = written.err();
                }
            });
            if let Some(e) = failed {
                return Err(e);
            }
            if n == 0 {
                return Ok(());
            }
        }
    }

    /// Answer one raw request line with its single terminating response
    /// line, discarding any `plan` partials (see [`Engine::answer_lines`]
    /// for the form that keeps them).
    pub fn answer_line(&self, line: &str) -> String {
        self.answer(line, |_| true)
    }
}

/// A live metrics snapshot with every [`SERVE_COUNTERS`] entry present
/// (zeros re-inserted — the snapshot omits zero counters by design, but a
/// monitoring client must be able to tell "never happened" from "not a
/// counter"). Shared by [`Engine::stats`] and the router's `stats`.
pub(crate) fn serve_counters_snapshot() -> m3d_obs::MetricsSnapshot {
    let mut snap = m3d_obs::snapshot();
    for name in SERVE_COUNTERS {
        if let Err(i) = snap
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            snap.counters.insert(i, ((*name).to_owned(), 0));
        }
    }
    snap
}

/// Answer a `telemetry` request against any [`ServeTelemetry`] store —
/// the engine's (daemon/oneshot) or the router's own. One implementation
/// keeps the router's `telemetry` byte-compatible in shape with the
/// daemon's.
pub(crate) fn telemetry_response(
    telemetry: &ServeTelemetry,
    uptime_s: f64,
    params: &Json,
) -> Result<Json, WireError> {
    let recent = get_u64(params, "recent")?
        .unwrap_or(RECENT_DEFAULT)
        .min(RECENT_MAX) as usize;
    match params.get("format") {
        None | Some(Json::Null) => {}
        Some(Json::Str(s)) if s == "json" => {}
        Some(Json::Str(s)) if s == "text" => {
            return Ok(Json::obj([("text", Json::from(telemetry.to_text()))]));
        }
        Some(_) => {
            return Err(WireError::bad_request(
                "`format` must be \"json\" or \"text\"",
            ));
        }
    }
    Ok(telemetry.to_json(uptime_s, recent))
}

/// Map a search failure onto the wire error taxonomy: spec problems are
/// the client's (`bad_request`), expired deadlines keep their kind,
/// simulator rejections are `invalid` like everywhere else, and a search
/// the emitter cancelled (the client hung up) is `aborted`.
fn plan_error(e: SearchError) -> WireError {
    let kind = match &e {
        SearchError::Spec(_) => ErrorKind::BadRequest,
        SearchError::Deadline => ErrorKind::Deadline,
        SearchError::Sim(_) => ErrorKind::Invalid,
        SearchError::Aborted => ErrorKind::Aborted,
    };
    WireError::new(kind, e.to_string())
}

/// Render one `sim` request's reply line, writing each result row
/// straight into it. Fails as a whole (never partially) so a response is
/// either every point's result or one structured error: retrying a
/// failed request cannot double-apply anything.
fn sim_reply<'a>(
    id: i64,
    results: impl Iterator<Item = Result<&'a PerfResult, &'a SimError>> + Clone,
    strict: bool,
) -> (String, Option<ErrorKind>) {
    let mut capped = 0u64;
    for r in results.clone() {
        let e = match r {
            Ok(p) => {
                capped += u64::from(p.cap_exhausted);
                continue;
            }
            Err(SimError::DeadlineExceeded) => {
                WireError::new(ErrorKind::Deadline, SimError::DeadlineExceeded.to_string())
            }
            Err(e) => WireError::from(&ExperimentError::Invalid(e.clone())),
        };
        return reply_line(id, Err(e));
    }
    if strict && capped > 0 {
        let e = WireError::from(&ExperimentError::CapExhausted {
            experiment: "sim".to_owned(),
            points: capped,
        });
        return reply_line(id, Err(e));
    }
    let line = result_line(id, "", |out| {
        out.push_str(r#"{"results":["#);
        for (i, p) in results.flatten().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_row(out, p);
        }
        out.push_str("]}");
    });
    (line, None)
}

/// Append one result row: the bytes `Json::write_compact` gives the
/// six-member object, written member by member.
fn write_row(out: &mut String, p: &PerfResult) {
    let members = [
        ("cycles", Json::from(p.cycles)),
        ("instructions", Json::from(p.instructions)),
        ("ipc", Json::from(p.ipc())),
        ("freq_ghz", Json::from(p.freq_ghz)),
        ("time_s", Json::from(p.time_s())),
        ("cap_exhausted", Json::from(p.cap_exhausted)),
    ];
    for (i, (key, v)) in members.iter().enumerate() {
        out.push_str(if i == 0 { "{\"" } else { ",\"" });
        out.push_str(key);
        out.push_str("\":");
        v.write_compact(out);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_keeps_fractional_microseconds() {
        let us = micros(Duration::from_nanos(2_600));
        assert!(
            (us - 2.6).abs() < 1e-9,
            "a 2.6 µs request records {us}, not 2"
        );
    }
}
