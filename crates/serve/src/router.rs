//! The multi-process shard router: one front process that owns the
//! client-facing listener and fans work out over N independent `serve`
//! daemons ("shards"), each with its own memo cache, worker pool, and
//! admission queue.
//!
//! # Why shard
//!
//! A single daemon's memo cache and checkpoint groups live in one
//! process; past the point where one process's worker pool saturates, the
//! only way to add capacity is more processes. Sharding *by the SimPoint
//! routing key* (the two-lane word-wise fingerprint already used as the
//! memo-cache key — see [`m3d_uarch::batch::SimPoint::key`]) keeps that scaling
//! honest: the key space is sliced into contiguous, disjoint ranges
//! ([`m3d_uarch::batch::shard_slice`]), every point deterministically
//! lands on the shard owning its slice
//! ([`m3d_uarch::batch::shard_of_key`]), and therefore each shard's
//! bounded cache holds a disjoint working set instead of N copies of the
//! same hot entries.
//!
//! # Routing
//!
//! * `sim` — fanned out **per point**: each point becomes one single-point
//!   sub-request to the shard owning its key. The shard-side worker pool
//!   micro-batches sub-requests arriving on the router's connection like
//!   any other client's, so warm-key sharing still happens (now with the
//!   whole slice's traffic concentrated on one process). Replies are
//!   merged back into one response by string surgery on the shard's own
//!   rendered rows — the router never re-renders a float — which keeps
//!   responses byte-identical to a single daemon's.
//! * `plan` / `experiment` / `planner` — forwarded **whole** to one shard
//!   picked by a content hash of the request ([`route_hash`]): a `plan`
//!   streams cumulative frontier partials whose chunk boundaries are
//!   fixed by the spec, so splitting one search across shards cannot
//!   reproduce the reference stream; affinity-by-content at least sends
//!   the identical repeated query to the same warm process.
//! * `stats` / `telemetry` — answered inline by the router about itself
//!   (its own counters, latency windows, and the shard topology).
//!
//! # Ordering
//!
//! Shards answer pipelined sub-requests out of order; clients of a single
//! daemon observe responses in an order consistent with one connection's
//! requests. The router restores that view with a per-connection
//! head-of-line queue: every request occupies one entry in arrival order,
//! an entry's lines (including streamed `plan` partials) go to the wire
//! only while it is at the head, and later entries buffer until the head
//! completes. The invariant checked by the shard-equivalence tests: the
//! byte stream a client sees from the router is identical to the serial
//! `--oneshot` reference, at any shard count.
//!
//! # Failure
//!
//! A shard that dies (EOF, read/write error, unparsable line) is marked
//! dead: its in-flight requests are answered with the closed-set
//! `shard_down` error kind, its key slice re-routes to the next live
//! shard (counted in `serve.shard_rerouted`), and the death itself is
//! counted in `serve.shard_deaths` — all visible via `stats`. A client
//! that hangs up mid-`plan` costs the stream's remaining lines
//! (`serve.write_errors`); the shard-side search still runs to completion
//! because the router's upstream connection stays alive.

//!
//! # Event loop
//!
//! The router runs the daemon's readiness loop (module `event_loop`)
//! with its own handler. Each shard is one upstream connection on that
//! loop; the handler fans client lines out to upstreams, matches replies
//! to their in-flight sub-requests by upstream id, and keeps the
//! per-connection head-of-line queue. A client connection is finished
//! when its queue is empty; the drain waits until no sub-request is in
//! flight.

use crate::engine::{
    admit, admit_oversized, reply_line, serve_counters_snapshot, telemetry_response, ReqMeta,
    SERVE_COUNTERS,
};
use crate::event_loop::{Conns, EventLoop, Framed, Handler, Role, Waker};
use crate::protocol::{
    err_line, request_line, ErrorKind, Method, Params, Request, Response, WireError,
};
use crate::sys;
use crate::telemetry::{ServeTelemetry, SLOW_MS_DEFAULT};
use m3d_core::experiments::registry::ExperimentError;
use m3d_core::report::{metrics_json, Json};
use m3d_uarch::batch::{shard_of_key, shard_slice};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a spawned shard gets to report its bound address.
const SPAWN_DEADLINE: Duration = Duration::from_secs(30);

/// How long to retry connecting to a shard address.
const CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client-facing bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// How many shard daemons to spawn (ignored when `connect` is
    /// non-empty; clamped to at least one).
    pub shards: usize,
    /// Pre-existing shard daemons to connect to instead of spawning
    /// (`HOST:PORT` each). The router does not own their lifetimes.
    pub connect: Vec<String>,
    /// Path to the `serve` binary for spawned shards; default is the
    /// sibling `serve` next to the current executable.
    pub serve_binary: Option<PathBuf>,
    /// Quick registry scale, forwarded to spawned shards.
    pub quick: bool,
    /// Batch-engine lanes per shard, forwarded to spawned shards.
    pub jobs: usize,
    /// Worker threads per shard, forwarded to spawned shards.
    pub workers: usize,
    /// Admission-queue bound per shard, forwarded to spawned shards.
    pub queue_cap: usize,
    /// Slow-request log threshold, ms — applied to the router's own
    /// telemetry and forwarded to spawned shards.
    pub slow_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            shards: 2,
            connect: Vec::new(),
            serve_binary: None,
            quick: false,
            jobs: 1,
            workers: 2,
            queue_cap: 64,
            slow_ms: SLOW_MS_DEFAULT,
        }
    }
}

/// The content hash that picks a shard for whole-forwarded requests
/// (`plan`, `experiment`, `planner`): FNV-1a over the method name, a zero
/// byte, and the compact-rendered params. Deterministic across processes
/// and runs, so tests (and operators) can predict a request's shard.
pub fn route_hash(method: Method, params: &Json) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(method.name().as_bytes());
    mix(&[0u8]);
    mix(params.render_compact().as_bytes());
    h
}

/// Map a [`route_hash`] onto a shard index with the same consistent
/// slicing `sim` points use ([`shard_of_key`]), so the whole key space —
/// point fingerprints and content hashes alike — is partitioned once.
pub fn shard_of_hash(h: u64, shards: usize) -> usize {
    shard_of_key((h, 0), shards)
}

/// The `topology` block reported by `stats`: shard count plus one entry
/// per shard with its key slice and liveness. `addr` is present when the
/// process knows it (the router always does; a plain daemon reports
/// itself as one address-less shard).
pub(crate) fn topology_json(shards: &[(Option<String>, bool)]) -> Json {
    let n = shards.len();
    let slices = shards
        .iter()
        .enumerate()
        .map(|(i, (addr, live))| {
            let (lo, hi) = shard_slice(i, n);
            let mut fields = vec![("shard".to_owned(), Json::from(i as u64))];
            if let Some(a) = addr {
                fields.push(("addr".to_owned(), Json::from(a.as_str())));
            }
            fields.push(("live".to_owned(), Json::from(*live)));
            fields.push(("key_lo".to_owned(), Json::from(format!("{lo:#018x}"))));
            fields.push(("key_hi".to_owned(), Json::from(format!("{hi:#018x}"))));
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        ("shards", Json::from(n as u64)),
        ("slices", Json::Arr(slices)),
    ])
}

/// The topology of an unsharded daemon: itself, one live shard owning the
/// whole key space. Keeps the `stats` response shape identical with and
/// without the router in front.
pub(crate) fn single_topology_json() -> Json {
    topology_json(&[(None, true)])
}

/// What one `sim` fan-out still owes: per-point result rows (the shard's
/// own rendered bytes) or the winning error (minimum point index, like
/// the serial engine's first-error-wins rule).
struct Fanout {
    /// The client's request id.
    id: i64,
    strict: bool,
    rows: Vec<Option<String>>,
    /// `(point index, terminating line already carrying the client id)`.
    err: Option<(usize, String)>,
    resolved: usize,
}

/// One client request's slot in its connection's head-of-line queue.
struct Entry {
    eid: u64,
    /// `None` for lines admission turned away (parse errors, oversized
    /// lines): it already counted them, and they get no flight record,
    /// like the daemon's.
    meta: Option<ReqMeta>,
    batch: u32,
    /// Response lines, in order (partials then the terminating line).
    out: Vec<String>,
    /// How many of `out` already moved to the write buffer.
    emitted: usize,
    done: bool,
    fan: Option<Fanout>,
}

enum PendingKind {
    /// A whole forwarded request; the shard's terminating line is the
    /// client's (modulo the id).
    Whole,
    /// One point of a fanned-out `sim`.
    Point(usize),
}

/// One in-flight sub-request, keyed by its upstream id.
struct Pending {
    shard: usize,
    ctoken: u64,
    eid: u64,
    cid: i64,
    kind: PendingKind,
}

/// Swap the leading `"id"` of a rendered response line. Responses are
/// rendered by [`ok_line`](crate::protocol::ok_line), [`err_line`] and
/// `partial_line`, all of which put `id` first, so this is exact string
/// surgery — the rest of the line (float formatting included) is
/// preserved byte-for-byte.
fn rewrite_id(line: &str, id: i64) -> String {
    if let Some(rest) = line.strip_prefix("{\"id\":") {
        if let Some(c) = rest.find(',') {
            return format!("{{\"id\":{id}{}", &rest[c..]);
        }
    }
    line.to_owned()
}

/// Pull the single result row out of a shard's one-point `sim` response
/// (`{"id":N,"ok":true,"result":{"results":[ROW]}}`) as the shard's own
/// rendered bytes.
fn extract_row(line: &str) -> Option<String> {
    const NEEDLE: &str = "\"results\":[";
    let start = line.find(NEEDLE)? + NEEDLE.len();
    if !line.ends_with("]}}") || line.len() - 3 < start {
        return None;
    }
    Some(line[start..line.len() - 3].to_owned())
}

/// Whether a rendered result row says `"cap_exhausted":true` — for
/// reconstructing the strict-mode error at the router.
fn row_cap_exhausted(row: &str) -> bool {
    matches!(
        Json::parse(row)
            .ok()
            .as_ref()
            .and_then(|r| r.get("cap_exhausted")),
        Some(Json::Bool(true))
    )
}

/// A point object as forwarded to a shard: the client's own fields minus
/// `strict` and `points`, which are request-level keys at the shard and
/// would change its interpretation (the router already applied
/// request-level strictness; a point-level `points` key is inert
/// client-side and must stay inert).
fn forwarded_point(p: &Json) -> Json {
    match p {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k.as_str() != "strict" && k.as_str() != "points")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Record the error candidate for point `i` if it beats (is earlier than)
/// the current one — the serial engine reports the first error in point
/// order.
fn set_err_candidate(fan: &mut Fanout, i: usize, line: String) {
    if fan.err.as_ref().is_none_or(|(j, _)| i < *j) {
        fan.err = Some((i, line));
    }
}

/// Mark an entry answered, completing an admitted request
/// ([`ReqMeta::complete`]) exactly once per entry.
fn complete_entry(telemetry: &ServeTelemetry, entry: &mut Entry, outcome: Option<ErrorKind>) {
    entry.done = true;
    if let Some(meta) = &entry.meta {
        let line = entry.out.last().map_or("", String::as_str);
        meta.complete(telemetry, line, outcome, true, 0, entry.batch);
    }
}

/// Resolve a finished `sim` fan-out into its single terminating line:
/// the earliest point error verbatim, else the reconstructed strict
/// `cap_exhausted` error, else the merged row list — rendered exactly as
/// [`ok_line`](crate::protocol::ok_line) would have.
fn finalize_fanout(telemetry: &ServeTelemetry, entry: &mut Entry) {
    let fan = entry.fan.take().expect("finalize without a fan-out");
    if let Some((_, line)) = fan.err {
        let outcome = Response::parse(&line)
            .ok()
            .and_then(|r| r.error().map(|e| e.kind))
            .unwrap_or(ErrorKind::ShardDown);
        entry.out.push(line);
        complete_entry(telemetry, entry, Some(outcome));
        return;
    }
    let rows: Vec<String> = fan
        .rows
        .into_iter()
        .map(|r| r.expect("finalized fan-out with an unresolved row"))
        .collect();
    if fan.strict {
        let capped = rows.iter().filter(|r| row_cap_exhausted(r)).count() as u64;
        if capped > 0 {
            let e = WireError::from(&ExperimentError::CapExhausted {
                experiment: "sim".to_owned(),
                points: capped,
            });
            entry.out.push(err_line(Some(fan.id), &e));
            complete_entry(telemetry, entry, Some(ErrorKind::CapExhausted));
            return;
        }
    }
    let id = fan.id;
    let mut line = format!("{{\"id\":{id},\"ok\":true,\"result\":{{\"results\":[");
    line.push_str(&rows.join(","));
    line.push_str("]}}");
    entry.out.push(line);
    complete_entry(telemetry, entry, None);
}

/// Find a queued entry by connection token and entry id.
fn entry_mut(
    queues: &mut HashMap<u64, VecDeque<Entry>>,
    ctoken: u64,
    eid: u64,
) -> Option<&mut Entry> {
    queues.get_mut(&ctoken)?.iter_mut().find(|e| e.eid == eid)
}

/// Spawn one shard daemon and wait for its bound address via a port file.
/// The file name carries a process-wide spawn sequence number, so routers
/// bound concurrently in one process never share (or delete) each other's
/// port files.
fn spawn_shard(bin: &PathBuf, cfg: &RouterConfig, i: usize) -> std::io::Result<(Child, String)> {
    static SPAWN_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SPAWN_SEQ.fetch_add(1, Ordering::Relaxed);
    let port_file =
        std::env::temp_dir().join(format!("m3d-shard-{}-{seq}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(bin);
    cmd.args(["--addr", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .stdin(Stdio::null());
    for (flag, v) in [
        ("--jobs", cfg.jobs as u64),
        ("--workers", cfg.workers as u64),
        ("--queue-cap", cfg.queue_cap as u64),
        ("--slow-ms", cfg.slow_ms),
    ] {
        cmd.arg(flag).arg(v.to_string());
    }
    if cfg.quick {
        cmd.arg("--quick");
    }
    let mut child = cmd.spawn()?;
    let deadline = Instant::now() + SPAWN_DEADLINE;
    let addr = loop {
        if let Ok(s) = std::fs::read_to_string(&port_file) {
            let s = s.trim();
            if !s.is_empty() {
                break s.to_owned();
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(std::io::Error::other(format!(
                "shard {i} exited during startup: {status}"
            )));
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "shard {i} did not report a port within {SPAWN_DEADLINE:?}"
            )));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    Ok((child, addr))
}

/// Connect to a shard address, with retries — a freshly spawned daemon
/// may still be binding.
fn connect_shard(addr: &str) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + CONNECT_DEADLINE;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() > deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Spawn `cfg.shards` daemons (finding the `serve` binary next to the
/// current executable unless `cfg.serve_binary` overrides it), or take the
/// `cfg.connect` addresses instead, pushing each onto `shards` as soon as
/// it exists; then connect to every shard. On error, `shards` holds every
/// child spawned so far, for the caller to reap.
fn bring_up_shards(cfg: &RouterConfig, shards: &mut Vec<Shard>) -> std::io::Result<Vec<TcpStream>> {
    let shard = |addr: String, child: Option<Child>| Shard {
        addr,
        pid: child.as_ref().map(Child::id),
        child,
        token: 0,
        live: true,
    };
    if cfg.connect.is_empty() {
        let bin = match &cfg.serve_binary {
            Some(p) => p.clone(),
            None => {
                let exe = std::env::current_exe()?;
                let dir = exe.parent().ok_or_else(|| {
                    std::io::Error::other("current executable has no parent directory")
                })?;
                dir.join("serve")
            }
        };
        for i in 0..cfg.shards.max(1) {
            let (child, addr) = spawn_shard(&bin, cfg, i)?;
            eprintln!("[router] spawned shard {i} pid {} on {addr}", child.id());
            shards.push(shard(addr, Some(child)));
        }
    } else {
        shards.extend(cfg.connect.iter().map(|a| shard(a.clone(), None)));
    }
    shards.iter().map(|s| connect_shard(&s.addr)).collect()
}

/// SIGKILL and reap every spawned shard, without a drain.
fn kill_shards(shards: &mut [Shard]) {
    for child in shards.iter_mut().filter_map(|s| s.child.as_mut()) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// One shard: its address, the child process when spawned, and its
/// upstream connection's token on the event loop.
struct Shard {
    addr: String,
    child: Option<Child>,
    pid: Option<u32>,
    token: u64,
    live: bool,
}

/// A bound router: listener up, every shard spawned (or connected) and
/// reachable. Run it with [`Router::run`] (foreground, until SIGTERM) or
/// [`Router::spawn`] (own thread, stopped via [`RouterHandle`]).
pub struct Router {
    listener: TcpListener,
    shards: Vec<Shard>,
    /// Shard `i`'s connection, registered with the loop by [`Router::run`].
    streams: Vec<TcpStream>,
    telemetry: ServeTelemetry,
    waker: Arc<Waker>,
    start: Instant,
}

impl Router {
    /// Bind the client-facing listener, then bring up every shard: spawn
    /// `cfg.shards` daemons (finding the `serve` binary next to the
    /// current executable unless `cfg.serve_binary` overrides it), or
    /// connect to `cfg.connect` addresses instead. If any step fails,
    /// every shard spawned so far is killed and reaped before the error
    /// returns. Enables `m3d-obs` and zeroes the serve counter set, like
    /// the daemon.
    pub fn bind(cfg: RouterConfig) -> std::io::Result<Router> {
        m3d_obs::enable();
        for c in SERVE_COUNTERS {
            m3d_obs::add(c, 0);
        }
        // Everything that can fail without a shard runs first, so a busy
        // address costs no process spawns.
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let waker = Waker::new()?;
        let mut shards = Vec::new();
        let streams = match bring_up_shards(&cfg, &mut shards) {
            Ok(streams) => streams,
            Err(e) => {
                kill_shards(&mut shards);
                return Err(e);
            }
        };
        let telemetry = ServeTelemetry::new();
        telemetry.set_slow_ms(cfg.slow_ms);
        Ok(Router {
            listener,
            shards,
            streams,
            telemetry,
            waker,
            start: Instant::now(),
        })
    }

    /// Kill and reap every spawned shard, for a bound router that will
    /// never run (its caller failed after [`Router::bind`]): the shard
    /// daemons would otherwise outlive the process.
    pub fn abort(mut self) {
        kill_shards(&mut self.shards);
    }

    /// The bound client-facing address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The spawned shard pids, in shard order (`None` in connect mode).
    pub fn shard_pids(&self) -> Vec<Option<u32>> {
        self.shards.iter().map(|s| s.pid).collect()
    }

    /// Run the event loop on this thread until a termination signal (or a
    /// [`RouterHandle`] stop), then drain: answer everything in flight,
    /// flush every client, SIGTERM spawned shards and wait for them.
    pub fn run(self) {
        let mut relay = Relay {
            shards: self.shards,
            queues: HashMap::new(),
            pending: HashMap::new(),
            next_upstream_id: 0,
            next_eid: 0,
            telemetry: self.telemetry,
            start: self.start,
        };
        let setup = EventLoop::new(self.listener, self.waker).and_then(|mut el| {
            for (s, stream) in relay.shards.iter_mut().zip(self.streams) {
                s.token = el.conns().add(stream, Role::Upstream)?;
            }
            Ok(el)
        });
        match setup {
            Ok(el) => el.run(&mut relay),
            Err(e) => {
                eprintln!("[router] event loop setup failed: {e}");
                relay.finish();
            }
        }
    }

    /// Run on a background thread; stop it with [`RouterHandle::shutdown`].
    pub fn spawn(self) -> RouterHandle {
        let waker = Arc::clone(&self.waker);
        let pids = self.shard_pids();
        let thread = std::thread::spawn(move || self.run());
        RouterHandle {
            waker,
            pids,
            thread,
        }
    }
}

/// Handle to a router running on its own thread (see [`Router::spawn`]).
pub struct RouterHandle {
    waker: Arc<Waker>,
    pids: Vec<Option<u32>>,
    thread: JoinHandle<()>,
}

impl RouterHandle {
    /// Stop the loop and block until the drain (including shard teardown)
    /// finishes.
    pub fn shutdown(self) {
        self.waker.stop();
        let _ = self.thread.join();
    }

    /// The spawned shard pids, in shard order (`None` in connect mode).
    pub fn shard_pids(&self) -> &[Option<u32>] {
        &self.pids
    }
}

/// The router's event-loop handler: the shards, every client's
/// head-of-line queue, and the in-flight sub-requests.
struct Relay {
    shards: Vec<Shard>,
    /// Per client token: its requests in arrival order (created by the
    /// client's first request).
    queues: HashMap<u64, VecDeque<Entry>>,
    /// In-flight sub-requests keyed by upstream id.
    pending: HashMap<i64, Pending>,
    next_upstream_id: i64,
    next_eid: u64,
    telemetry: ServeTelemetry,
    start: Instant,
}

impl Handler for Relay {
    fn on_line(&mut self, conns: &mut Conns, token: u64, line: Framed<'_>) {
        if let Some(si) = self.shard_of_token(token) {
            match line {
                Framed::Line(line) => self.handle_upstream(conns, si, &line),
                Framed::Oversized => self.shard_death(conns, si),
            }
            return;
        }
        match line {
            Framed::Line(line) => self.handle_client_line(conns, token, &line),
            Framed::Oversized => {
                let entry = self.new_entry(None);
                self.push_done(token, entry, admit_oversized(), None);
            }
        }
        self.pump(conns, token);
    }

    /// A shard connection closing is a shard death. A client's queued but
    /// unflushed lines never reached it (`serve.write_errors`);
    /// sub-requests still in flight for it resolve against the missing
    /// connection later, counting one write error each.
    fn on_close(&mut self, conns: &mut Conns, token: u64, backlog: bool) {
        if let Some(si) = self.shard_of_token(token) {
            self.shard_death(conns, si);
            return;
        }
        let unsent = self
            .queues
            .remove(&token)
            .is_some_and(|q| q.iter().any(|e| e.emitted < e.out.len()));
        if backlog || unsent {
            m3d_obs::add("serve.write_errors", 1);
        }
    }

    fn idle(&self, token: u64) -> bool {
        self.queues.get(&token).is_none_or(VecDeque::is_empty)
    }

    fn busy(&self) -> bool {
        !self.pending.is_empty()
    }

    fn drain_begin(&mut self) {
        eprintln!("[router] draining");
    }

    /// SIGTERM every spawned shard and wait for it — the whole process
    /// tree exits with the router. The loop has already closed the
    /// upstream connections, so each shard's own drain sees a clean EOF
    /// instead of an in-flight reset.
    fn finish(&mut self) {
        for s in &self.shards {
            if let Some(pid) = s.pid {
                sys::terminate(pid);
            }
        }
        for s in &mut self.shards {
            if let Some(child) = s.child.as_mut() {
                let _ = child.wait();
            }
        }
        eprintln!("[router] drained, bye");
    }
}

impl Relay {
    fn shard_of_token(&self, token: u64) -> Option<usize> {
        self.shards.iter().position(|s| s.token == token)
    }

    fn new_entry(&mut self, meta: Option<ReqMeta>) -> Entry {
        self.next_eid += 1;
        Entry {
            eid: self.next_eid,
            meta,
            batch: 0,
            out: Vec::new(),
            emitted: 0,
            done: false,
            fan: None,
        }
    }

    /// Append an entry to the client's order queue.
    fn enqueue(&mut self, token: u64, entry: Entry) {
        self.queues.entry(token).or_default().push_back(entry);
    }

    /// Append a fully-answered entry (inline responses and immediate
    /// errors) to the connection's order queue.
    fn push_done(
        &mut self,
        token: u64,
        mut entry: Entry,
        line: String,
        outcome: Option<ErrorKind>,
    ) {
        entry.out.push(line);
        complete_entry(&self.telemetry, &mut entry, outcome);
        self.enqueue(token, entry);
    }

    /// Append an entry answered with `result`.
    fn push_result(&mut self, token: u64, entry: Entry, id: i64, result: Result<Json, WireError>) {
        let (line, outcome) = reply_line(id, result);
        self.push_done(token, entry, line, outcome);
    }

    fn handle_client_line(&mut self, conns: &mut Conns, token: u64, line: &str) {
        let (req, meta) = match admit(line) {
            Ok(admitted) => admitted,
            Err(reply) => {
                let entry = self.new_entry(None);
                return self.push_done(token, entry, reply, None);
            }
        };
        match req.method {
            Method::Stats | Method::Telemetry => {
                let mut entry = self.new_entry(Some(meta));
                entry.batch = 1;
                let result = match &req.params {
                    _ if req.method == Method::Stats => Ok(self.stats_response()),
                    Params::Tree(params) => {
                        let uptime = self.start.elapsed().as_secs_f64();
                        telemetry_response(&self.telemetry, uptime, params)
                    }
                    Params::Sim(_) => unreachable!("only a `sim`'s params are read into points"),
                };
                self.push_result(token, entry, req.id, result);
            }
            Method::Sim => self.route_sim(conns, token, meta, req, line),
            Method::Experiment | Method::Planner | Method::Plan => {
                self.route_whole(conns, token, meta, req)
            }
        }
    }

    /// Register one sub-request and queue its line for its shard.
    fn forward(
        &mut self,
        conns: &mut Conns,
        p: Pending,
        method: Method,
        params: Json,
        deadline_ms: Option<u64>,
    ) {
        self.next_upstream_id += 1;
        let uid = self.next_upstream_id;
        m3d_obs::add("serve.shard_subrequests", 1);
        conns.send_line(
            self.shards[p.shard].token,
            &request_line(uid, method, params, deadline_ms),
        );
        self.pending.insert(uid, p);
    }

    /// Forward one request with its `params` whole to the shard its
    /// content hash picks.
    fn route_whole(&mut self, conns: &mut Conns, token: u64, meta: ReqMeta, req: Request) {
        let Params::Tree(params) = req.params else {
            unreachable!("only a `sim`'s params are read into points");
        };
        let mut entry = self.new_entry(Some(meta));
        entry.batch = 1;
        let primary = shard_of_hash(route_hash(req.method, &params), self.shards.len());
        let Some(si) = self.effective_shard(primary) else {
            let e = WireError::new(ErrorKind::ShardDown, "no live shards");
            return self.push_result(token, entry, req.id, Err(e));
        };
        if si != primary {
            m3d_obs::add("serve.shard_rerouted", 1);
        }
        let pending = Pending {
            shard: si,
            ctoken: token,
            eid: entry.eid,
            cid: req.id,
            kind: PendingKind::Whole,
        };
        self.forward(conns, pending, req.method, params, req.deadline_ms);
        self.enqueue(token, entry);
    }

    /// Fan one `sim` out point-by-point to the shards owning each point's
    /// key slice. The shards get the client's own point objects, so the
    /// request `line` is parsed again as a tree for them.
    fn route_sim(
        &mut self,
        conns: &mut Conns,
        token: u64,
        meta: ReqMeta,
        req: Request,
        line: &str,
    ) {
        let mut entry = self.new_entry(Some(meta));
        let sim = match req.params {
            Params::Sim(Ok(s)) => s,
            Params::Sim(Err(e)) => return self.push_result(token, entry, req.id, Err(e)),
            Params::Tree(_) => unreachable!("a `sim`'s params are read into points"),
        };
        let tree = Json::parse(line).unwrap_or_default();
        let params = tree.get("params").unwrap_or(&Json::Null);
        let point_objs: Vec<Json> = match params.get("points") {
            Some(Json::Arr(items)) => items.iter().map(forwarded_point).collect(),
            _ => vec![forwarded_point(params)],
        };
        entry.batch = sim.points.len() as u32;
        let mut fan = Fanout {
            id: req.id,
            strict: sim.strict,
            rows: vec![None; sim.points.len()],
            err: None,
            resolved: 0,
        };
        let n = self.shards.len();
        for (i, (p, obj)) in sim.points.iter().zip(point_objs).enumerate() {
            let primary = p.shard_of(n);
            match self.effective_shard(primary) {
                Some(si) => {
                    if si != primary {
                        m3d_obs::add("serve.shard_rerouted", 1);
                    }
                    let pending = Pending {
                        shard: si,
                        ctoken: token,
                        eid: entry.eid,
                        cid: req.id,
                        kind: PendingKind::Point(i),
                    };
                    self.forward(conns, pending, Method::Sim, obj, req.deadline_ms);
                }
                None => {
                    let e = WireError::new(ErrorKind::ShardDown, "no live shards");
                    set_err_candidate(&mut fan, i, err_line(Some(req.id), &e));
                    fan.resolved += 1;
                }
            }
        }
        let all_resolved = fan.resolved == sim.points.len();
        entry.fan = Some(fan);
        if all_resolved {
            finalize_fanout(&self.telemetry, &mut entry);
        }
        self.enqueue(token, entry);
    }

    /// The first live shard at or cyclically after `primary`.
    fn effective_shard(&self, primary: usize) -> Option<usize> {
        let n = self.shards.len();
        (0..n)
            .map(|k| (primary + k) % n)
            .find(|&i| self.shards[i].live)
    }

    /// The router's `stats` result: its own uptime and counters plus the
    /// live shard topology (no `memo_cache_len` — the caches live in the
    /// shard processes; ask a shard's `stats` directly for its cache).
    fn stats_response(&self) -> Json {
        let liveness: Vec<(Option<String>, bool)> = self
            .shards
            .iter()
            .map(|s| (Some(s.addr.clone()), s.live))
            .collect();
        Json::obj([
            ("uptime_s", Json::from(self.start.elapsed().as_secs_f64())),
            ("topology", topology_json(&liveness)),
            ("metrics", metrics_json(&serve_counters_snapshot())),
        ])
    }

    /// Move completed head-of-line output into the client's write buffer.
    /// Only the head entry's lines move: later entries' lines stay
    /// buffered until every earlier entry is done, so one connection's
    /// responses come back in request order like a single daemon's.
    fn pump(&mut self, conns: &mut Conns, token: u64) {
        let Some(queue) = self.queues.get_mut(&token) else {
            return;
        };
        while let Some(head) = queue.front_mut() {
            for line in &head.out[head.emitted..] {
                conns.send_line(token, line);
            }
            head.emitted = head.out.len();
            if !head.done {
                break;
            }
            queue.pop_front();
        }
    }

    /// Process one response line from shard `si`, matching it to its
    /// in-flight sub-request.
    fn handle_upstream(&mut self, conns: &mut Conns, si: usize, line: &str) {
        let resp = match Response::parse(line) {
            Ok(r) => r,
            Err(_) => {
                self.shard_death(conns, si);
                return;
            }
        };
        let Some(uid) = resp.id else {
            // The router only sends well-formed requests; an id-less
            // response means the shard is not answering what we asked.
            self.shard_death(conns, si);
            return;
        };
        if resp.partial {
            let Some(p) = self.pending.get(&uid) else {
                return;
            };
            let (ctoken, eid, cid) = (p.ctoken, p.eid, p.cid);
            let rewritten = rewrite_id(line, cid);
            match entry_mut(&mut self.queues, ctoken, eid) {
                Some(entry) => entry.out.push(rewritten),
                None => m3d_obs::add("serve.write_errors", 1),
            }
            self.pump(conns, ctoken);
            return;
        }
        let Some(p) = self.pending.remove(&uid) else {
            return;
        };
        let outcome = resp.error().map(|e| e.kind);
        let delivered = match p.kind {
            PendingKind::Whole => {
                self.finish_whole(p.ctoken, p.eid, rewrite_id(line, p.cid), outcome)
            }
            PendingKind::Point(i) => {
                let result = if resp.is_ok() {
                    extract_row(line).ok_or_else(|| {
                        err_line(
                            Some(p.cid),
                            &WireError::new(
                                ErrorKind::ShardDown,
                                "malformed sim sub-response from shard",
                            ),
                        )
                    })
                } else {
                    Err(rewrite_id(line, p.cid))
                };
                self.resolve_point(p.ctoken, p.eid, i, result)
            }
        };
        if !delivered {
            m3d_obs::add("serve.write_errors", 1);
        }
        self.pump(conns, p.ctoken);
    }

    /// Complete a whole-forwarded entry with its terminating line.
    fn finish_whole(
        &mut self,
        ctoken: u64,
        eid: u64,
        line: String,
        outcome: Option<ErrorKind>,
    ) -> bool {
        let telemetry = &self.telemetry;
        let Some(entry) = entry_mut(&mut self.queues, ctoken, eid) else {
            return false;
        };
        entry.out.push(line);
        complete_entry(telemetry, entry, outcome);
        true
    }

    /// Resolve one point of a fanned-out `sim` with its row (`Ok`) or an
    /// error line already carrying the client id (`Err`); finalizes the
    /// entry when it was the last open point.
    fn resolve_point(
        &mut self,
        ctoken: u64,
        eid: u64,
        i: usize,
        result: Result<String, String>,
    ) -> bool {
        let telemetry = &self.telemetry;
        let Some(entry) = entry_mut(&mut self.queues, ctoken, eid) else {
            return false;
        };
        let Some(fan) = entry.fan.as_mut() else {
            return false;
        };
        match result {
            Ok(row) => fan.rows[i] = Some(row),
            Err(line) => set_err_candidate(fan, i, line),
        }
        fan.resolved += 1;
        if fan.resolved == fan.rows.len() {
            finalize_fanout(telemetry, entry);
        }
        true
    }

    /// A shard died: mark it dead (future routing skips it — its key
    /// slice falls to the next live shard), drop its connection, answer
    /// everything in flight on it with `shard_down`, and count the death.
    fn shard_death(&mut self, conns: &mut Conns, si: usize) {
        if !self.shards[si].live {
            return;
        }
        self.shards[si].live = false;
        conns.remove(self.shards[si].token);
        m3d_obs::add("serve.shard_deaths", 1);
        eprintln!("[router] shard {si} died; re-routing its key slice");
        let affected: Vec<i64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.shard == si)
            .map(|(uid, _)| *uid)
            .collect();
        let mut touched: Vec<u64> = Vec::new();
        for uid in affected {
            let Some(p) = self.pending.remove(&uid) else {
                continue;
            };
            let e = WireError::new(
                ErrorKind::ShardDown,
                format!("shard {si} died with this request in flight"),
            );
            let line = err_line(Some(p.cid), &e);
            let delivered = match p.kind {
                PendingKind::Whole => {
                    self.finish_whole(p.ctoken, p.eid, line, Some(ErrorKind::ShardDown))
                }
                PendingKind::Point(i) => self.resolve_point(p.ctoken, p.eid, i, Err(line)),
            };
            if !delivered {
                m3d_obs::add("serve.write_errors", 1);
            }
            if !touched.contains(&p.ctoken) {
                touched.push(p.ctoken);
            }
        }
        for token in touched {
            self.pump(conns, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ok_line, partial_line};

    #[test]
    fn route_hash_is_stable_and_content_sensitive() {
        let p = Json::obj([("name", Json::from("frontier"))]);
        let a = route_hash(Method::Experiment, &p);
        let b = route_hash(Method::Experiment, &p.clone());
        assert_eq!(a, b, "same content must hash identically");
        let q = Json::obj([("name", Json::from("frontier2"))]);
        assert_ne!(a, route_hash(Method::Experiment, &q));
        assert_ne!(
            a,
            route_hash(Method::Plan, &p),
            "the method participates in the hash"
        );
        for shards in [1usize, 2, 3, 7] {
            let si = shard_of_hash(a, shards);
            assert!(si < shards);
        }
    }

    #[test]
    fn id_rewrite_is_exact_string_surgery() {
        let line = ok_line(42, Json::obj([("x", Json::from(1.5f64))]));
        let rewritten = rewrite_id(&line, 7);
        assert_eq!(
            rewritten,
            ok_line(7, Json::obj([("x", Json::from(1.5f64))]))
        );
        let e = WireError::new(ErrorKind::Deadline, "too late");
        assert_eq!(
            rewrite_id(&err_line(Some(-3), &e), 12),
            err_line(Some(12), &e)
        );
        let part = partial_line(900, Json::from(1i64));
        assert_eq!(rewrite_id(&part, 1), partial_line(1, Json::from(1i64)));
    }

    #[test]
    fn row_extraction_and_merge_match_ok_line_rendering() {
        let row = Json::obj([
            ("cycles", Json::from(123u64)),
            ("ipc", Json::from(1.25f64)),
            ("cap_exhausted", Json::from(false)),
        ]);
        let single = ok_line(5, Json::obj([("results", Json::Arr(vec![row.clone()]))]));
        let extracted = extract_row(&single).expect("row extracts");
        assert_eq!(extracted, row.render_compact());
        assert!(!row_cap_exhausted(&extracted));

        // Merging two extracted rows reproduces ok_line's rendering of
        // the two-row response byte-for-byte.
        let rows = [extracted.clone(), extracted.clone()];
        let mut merged = String::from("{\"id\":9,\"ok\":true,\"result\":{\"results\":[");
        merged.push_str(&rows.join(","));
        merged.push_str("]}}");
        let reference = ok_line(
            9,
            Json::obj([("results", Json::Arr(vec![row.clone(), row]))]),
        );
        assert_eq!(merged, reference);

        assert!(extract_row("{\"id\":1,\"ok\":true,\"result\":{}}").is_none());
    }

    #[test]
    fn forwarded_points_drop_request_level_keys() {
        let p = Json::obj([
            ("app", Json::from("Gcc")),
            ("strict", Json::from(true)),
            ("measure", Json::from(1000u64)),
            ("points", Json::Arr(vec![])),
        ]);
        let f = forwarded_point(&p);
        assert_eq!(f.get("app"), Some(&Json::from("Gcc")));
        assert_eq!(f.get("measure"), Some(&Json::from(1000u64)));
        assert_eq!(
            f.get("strict"),
            None,
            "strict is request-level at the shard"
        );
        assert_eq!(f.get("points"), None, "points would change the parse shape");
    }

    #[test]
    fn error_candidates_keep_the_earliest_point() {
        let mut fan = Fanout {
            id: 0,
            strict: false,
            rows: vec![None; 3],
            err: None,
            resolved: 0,
        };
        set_err_candidate(&mut fan, 2, "late".to_owned());
        set_err_candidate(&mut fan, 0, "first".to_owned());
        set_err_candidate(&mut fan, 1, "middle".to_owned());
        assert_eq!(fan.err, Some((0, "first".to_owned())));
    }

    #[test]
    fn topology_reports_the_full_partition() {
        let t = topology_json(&[
            (Some("127.0.0.1:1001".to_owned()), true),
            (Some("127.0.0.1:1002".to_owned()), false),
        ]);
        assert_eq!(t.get("shards"), Some(&Json::from(2u64)));
        let Some(Json::Arr(slices)) = t.get("slices") else {
            panic!("slices must be an array");
        };
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].get("live"), Some(&Json::from(true)));
        assert_eq!(slices[1].get("live"), Some(&Json::from(false)));
        assert_eq!(
            slices[0].get("key_lo"),
            Some(&Json::from("0x0000000000000000"))
        );
        assert_eq!(
            slices[1].get("key_hi"),
            Some(&Json::from("0xffffffffffffffff"))
        );
        // A plain daemon is one live shard owning everything.
        let single = single_topology_json();
        assert_eq!(single.get("shards"), Some(&Json::from(1u64)));
    }
}
