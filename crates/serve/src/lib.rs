//! Batched design-space query service.
//!
//! This crate puts a long-running daemon on top of the reproduction: a TCP
//! server speaking newline-delimited JSON (one request per line, one
//! response per line, correlated by `id`) that answers design-space
//! queries against an always-warm process — the `m3d-uarch` batch engine's
//! memo cache and checkpoint groups, the `OnceLock`'d planner
//! [`DesignSpace`](m3d_core::planner::DesignSpace), and the experiment
//! registry — instead of paying a full `repro` process launch per query.
//!
//! # Methods
//!
//! | method       | answers                                                  |
//! |--------------|----------------------------------------------------------|
//! | `sim`        | a point or point list through [`SimBatch`] (memo cache + |
//! |              | shared warm-up checkpoints)                              |
//! | `experiment` | any registry entry by name, as its schema-v2 JSON        |
//! | `planner`    | the planned design space (Table 6/8 structures,          |
//! |              | derived frequencies)                                     |
//! | `plan`       | a Pareto design-space search                             |
//! |              | ([`m3d_core::search`]), streaming partial frontiers as   |
//! |              | it goes                                                  |
//! | `stats`      | a live `m3d-obs` metrics snapshot + memo-cache size      |
//! | `telemetry`  | rolling 1 s/10 s/60 s latency windows with quantiles,    |
//! |              | recent flight records, and the slow-request log          |
//!
//! # Production shape
//!
//! * **Event-loop core** — one epoll readiness loop (dependency-free raw
//!   syscall bindings in one private `sys` module) owns the listener and
//!   every socket; connections cost file descriptors, not threads, so
//!   connections ≫ workers is the designed-for regime. The daemon and the
//!   router are two handlers on that one loop: the loop does accept,
//!   line framing, flush, interest updates, reap and the graceful drain;
//!   the daemon's handler feeds the worker queue and delivers the
//!   workers' eventfd-woken mailbox (replies in completion order), and
//!   the router's handler fans lines out to its shard connections and
//!   replies in request order. Workers never touch a socket.
//! * **Backpressure** — heavy work (`sim`, `experiment`, `plan`) passes
//!   through a bounded admission queue; a full queue rejects with a
//!   structured `overloaded` error instead of buffering unboundedly. A
//!   `sim` whose every point is memoized is not heavy: the daemon answers
//!   it inline on the event loop (`serve.inline_hits`).
//! * **Deadlines** — a request may carry `deadline_ms`; work that cannot
//!   start (or, for `sim`, whose warm-up groups cannot start) before the
//!   deadline is cancelled cleanly with a `deadline` error.
//! * **Micro-batching** — a worker draining the queue coalesces queued
//!   deadline-free `sim` requests (up to 16 per group) into one
//!   [`SimBatch`] submission, so concurrent requests sharing a warm key
//!   share one warm-up.
//! * **Dead-client cancellation** — a client that hangs up mid-`plan`
//!   stops its search at the next chunk boundary (counted in
//!   `serve.plan_aborted`) instead of burning workers on answers nobody
//!   will read.
//! * **Graceful shutdown** — SIGTERM/ctrl-c stop the accept loop,
//!   dispatch every request already buffered on a connection, drain
//!   queued and in-flight work, flush every reply, then exit 0.
//! * **Observability** — `serve.requests` (total
//!   and per method: `serve.requests.sim`, `.experiment`, `.planner`,
//!   `.plan`, `.stats`, `.telemetry`), `serve.coalesced`,
//!   `serve.rejected`, `serve.deadline_expired`, `serve.errors`,
//!   `serve.write_errors`, `serve.plan_chunks`, `serve.plan_aborted`
//!   counters and a `serve.latency_us` histogram — cumulative totals via
//!   `stats`, rolling windows, flight records and slow-request span trees
//!   via `telemetry`. No per-request trace spans are recorded: nothing
//!   exports them, so they would only grow the process. A router additionally
//!   counts `serve.shard_subrequests`, `serve.shard_deaths`,
//!   `serve.shard_rerouted`, and `serve.shard_failed`.
//! * **Sharding** — `serve --shards N` (or the standalone `router`
//!   binary) fronts N shard daemons with one listener: `sim` points are
//!   fanned to the shard owning each point's fingerprint slice,
//!   `plan`/`experiment`/`planner` are forwarded whole by content
//!   affinity ([`router::route_hash`]), and every response is
//!   byte-identical to a single daemon's. A dead shard answers its
//!   in-flight requests with `shard_down` and its key slice re-routes to
//!   the surviving shards. See the [`router`] module for routing,
//!   ordering and failure semantics.
//!
//! The determinism contract of the batch engine carries over the wire: a
//! `sim` response is a pure function of its own point list (never of what
//! it was coalesced with), so concurrent and serial answers are
//! byte-identical. The same holds for `plan`: the chunk boundaries and the
//! final frontier are fixed by the spec, so the streamed lines are
//! byte-identical at any `--jobs` and across the daemon and `--oneshot`
//! paths.
//!
//! # Protocol reference
//!
//! One request per line, one (or for `plan`, several) response lines per
//! request. Full grammar in the [`protocol`] module; this section is the
//! operator's view, with every example runnable against
//! `serve --oneshot --quick` (requests on stdin, responses on stdout — the
//! same engine the daemon runs, minus TCP). `--oneshot` frames stdin with
//! the daemon's framing and its 256 KiB line cap, runs every handler
//! behind the daemon's panic guard, answers a fully memoized `sim` on the
//! daemon's hit path (counted in `serve.inline_hits`), writes each `plan`
//! partial as the search produces it, and admits and accounts for each
//! request with the daemon's code, so a byte stream gets the same reply
//! lines on both; EOF also ends an unterminated last line.
//!
//! ## `sim` — evaluate simulation points
//!
//! ```text
//! $ echo '{"id":1,"method":"sim","params":{"app":"Gcc","design":"Base",
//!   "seed":0,"warmup":3000,"measure":2000}}' | serve --oneshot --quick
//! {"id":1,"ok":true,"result":{"points":[{"ipc":...,"cycles":...,...}]}}
//! ```
//!
//! A `{"points":[...]}` list (up to [`protocol::MAX_POINTS`]) answers one
//! result per point, in order. `"strict":true` turns livelock-capped
//! points into a `cap_exhausted` error.
//!
//! ## `experiment` — run a registry entry
//!
//! ```text
//! $ echo '{"id":2,"method":"experiment","params":{"name":"frontier"}}' \
//!     | serve --oneshot --quick
//! {"id":2,"ok":true,"result":{"schema":2,"name":"frontier",...}}
//! ```
//!
//! ## `planner` — the planned design space (no parameters)
//!
//! ```text
//! $ echo '{"id":3,"method":"planner"}' | serve --oneshot --quick
//! {"id":3,"ok":true,"result":{"designs":[...],...}}
//! ```
//!
//! ## `plan` — streaming Pareto design-space search
//!
//! Parameters are a search-space spec (grammar in `SEARCH.md` and
//! [`m3d_core::search::SearchSpace::from_json`]). Each evaluated chunk
//! streams a partial line; the final line (no `"partial"` key) carries the
//! complete frontier:
//!
//! ```text
//! $ echo '{"id":4,"method":"plan","params":{"apps":["Gcc"],
//!   "vdds":[0.7,0.75,0.8],"warmup":500,"measure":800,"chunk":2}}' \
//!     | serve --oneshot --quick
//! {"id":4,"ok":true,"partial":true,"result":{"chunk":0,"done":2,"total":...}}
//! {"id":4,"ok":true,"partial":true,"result":{"chunk":1,"done":4,...}}
//! ...
//! {"id":4,"ok":true,"result":{"frontier":[...],"candidates":...,...}}
//! ```
//!
//! ## `stats` — live metrics snapshot (no parameters)
//!
//! ```text
//! $ echo '{"id":5,"method":"stats"}' | serve --oneshot --quick
//! {"id":5,"ok":true,"result":{"uptime_s":...,"metrics":{"counters":{...},...},
//!   "memo_cache_len":...,"topology":{"shards":1,"slices":[{"shard":0,
//!   "live":true,"key_lo":"0x0000000000000000","key_hi":"0xffffffffffffffff"}]}}}
//! ```
//!
//! The `topology` block maps the point-fingerprint key space onto shards:
//! a plain daemon reports itself as one full-range slice; a router reports
//! one slice per shard with its address and liveness, so operators can see
//! a dead shard (and its re-routed slice) directly in `stats`.
//!
//! ## `telemetry` — rolling-window latency telemetry
//!
//! Where `stats` answers process-lifetime totals, `telemetry` answers
//! "what happened recently": per-method latency and queue-wait
//! histograms over rolling 1 s/10 s/60 s windows (count/mean/max plus
//! p50/p90/p95/p99 — exact below 64 samples per window, within a factor
//! of 2 from the log₂ buckets beyond), the most recent flight-recorder
//! entries (one structured record per finished request: byte sizes,
//! queue wait, handle time, batch size, outcome), and the slow-request
//! log (requests over `--slow-ms`, with a `request` → `queue`/`handle`
//! span tree each):
//!
//! ```text
//! $ echo '{"id":6,"method":"telemetry","params":{"recent":4}}' \
//!     | serve --oneshot --quick
//! {"id":6,"ok":true,"result":{"uptime_s":...,"windows_s":[1,10,60],
//!   "methods":{"sim":{"requests":...,"latency_us":{"1s":{"count":...,
//!   "p50":...,"p99":...},...},"queue_us":{...}},...},
//!   "flight":{"capacity":256,"dropped":0,"recent":[...]},
//!   "slow":{"threshold_ms":500,"total":0,"recent":[]}}}
//! ```
//!
//! `"params":{"format":"text"}` returns a Prometheus-style text
//! exposition instead, wrapped as `{"text":"..."}` (metrics
//! `m3d_serve_requests_total`, `m3d_serve_latency_us{method,window,
//! quantile}`, `m3d_serve_queue_wait_us`, `m3d_serve_write_errors_total`,
//! `m3d_serve_flight_dropped_total`, `m3d_serve_slow_requests_total`).
//! `"recent"` bounds the flight records returned (default 16, max 128).
//!
//! ## Error kinds
//!
//! Every failure is `{"id":...,"ok":false,"error":{"kind":...,"message":...}}`
//! with one of twelve kinds ([`protocol::ErrorKind`]):
//!
//! | kind             | meaning                                              |
//! |------------------|------------------------------------------------------|
//! | `parse`          | the line was not valid JSON (id `null` if unreadable)|
//! |                  | or nested arrays/objects over 128 levels deep        |
//! | `bad_request`    | wrong request shape or parameters (incl. `plan` spec |
//! |                  | violations: unknown fields, axis caps, vdd range)    |
//! | `unknown_method` | not one of the six methods                           |
//! | `oversized`      | line over [`protocol::MAX_LINE_BYTES`]; the reader   |
//! |                  | resyncs at the next newline                          |
//! | `overloaded`     | admission queue full — retry later (backpressure)    |
//! | `deadline`       | `deadline_ms` expired before/while the work ran      |
//! | `invalid`        | the simulator rejected the configuration             |
//! | `cap_exhausted`  | a strict `sim` or an experiment hit the livelock cap |
//! | `panic`          | the handler panicked (message attached); the server  |
//! |                  | survives                                             |
//! | `shutdown`       | draining after SIGTERM — no new work admitted        |
//! | `aborted`        | the client hung up mid-`plan`; only ever "sent" to a |
//! |                  | dead connection, so a live client never sees it      |
//! | `shard_down`     | a router's shard died with this request in flight    |
//! |                  | (retry: the slice has re-routed to a live shard)     |
//!
//! ## Deadline and overload semantics
//!
//! `deadline_ms` is measured from receipt. Cheap methods (`planner`,
//! `stats`, `telemetry`) answer inline and ignore it. Queued work checks it before
//! starting; a deadline-bearing `sim` runs alone (never coalesced) so its
//! cancellation cannot take bystanders down; `plan` re-checks at every
//! chunk boundary, so a timed-out search still streams the chunks it
//! finished before failing with `deadline`. Memo-cache hits are served
//! even past a deadline (they cost nothing). A `sim` whose every point is
//! memoized is answered inline on the daemon's event loop and never
//! queued. The admission queue is
//! bounded (`--queue-cap`); a full queue answers `overloaded` immediately
//! rather than buffering, and a draining server answers `shutdown`.
//!
//! [`SimBatch`]: m3d_uarch::batch::SimBatch

#![deny(missing_docs)]

pub mod client;
pub mod engine;
mod event_loop;
pub mod protocol;
pub mod router;
pub mod server;
mod sys;
pub mod telemetry;

pub use client::{Client, ClientError, PlanStream};
pub use engine::Engine;
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerConfig, ServerHandle};
pub use telemetry::ServeTelemetry;
