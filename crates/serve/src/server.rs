//! The TCP daemon: the shared readiness loop (module `event_loop`) with
//! a handler that feeds a bounded admission queue, a worker pool with
//! `sim` micro-batching, and graceful shutdown.
//!
//! # Threading model
//!
//! * A single event-loop thread owns all socket I/O: the non-blocking
//!   listener, every connection, and an `eventfd` wake channel, all on one
//!   `epoll(7)` instance. Connections never get threads: each one is a
//!   small state machine — a read buffer with the line framing and
//!   oversized/resync handling, and a write buffer drained as the socket
//!   accepts bytes — so an idle connection costs one epoll registration.
//!   That loop is the same one the shard router runs; this module is the
//!   daemon's handler for it.
//! * Cheap read-only methods (`planner`, `stats`, `telemetry`) are
//!   answered inline on the event loop, and so is a `sim` whose every
//!   point is already in the memo cache: it costs one lookup, not a
//!   simulation, so it skips the queue, the worker and the mailbox (counted
//!   in `serve.inline_hits`). Inline answers go straight into the
//!   connection's write buffer and out in the same loop turn. Heavy work
//!   (`experiment`, `plan`, and any `sim` with a point not yet cached) is
//!   pushed through the bounded admission queue — a full queue answers
//!   `overloaded` immediately (backpressure, never buffering).
//! * A fixed worker pool drains the queue. A worker that pops a
//!   deadline-free `sim` request also drains other queued deadline-free
//!   `sim` requests — up to `COALESCE_MAX` of them, so a deep queue
//!   spreads across the pool instead of serializing behind one worker —
//!   and submits them as **one** batch: requests sharing a warm key then
//!   share a warm-up checkpoint inside
//!   [`SimBatch`](m3d_uarch::batch::SimBatch). Deadline-bearing `sim`
//!   requests run alone — a deadline must never cancel a bystander.
//! * Workers never touch sockets. A finished response line is pushed into
//!   the mailbox and the eventfd is signalled; once per loop turn the
//!   handler moves mailbox lines into their connections' write buffers
//!   and the loop flushes them. Responses stay whole lines: pipelined
//!   responses may come back out of request order but never interleave
//!   within a line. A `plan` streams its partial frontier lines through
//!   the same path; once the loop has torn a connection down, sends to it
//!   report `false` back to the worker, which cancels the search at the
//!   next chunk boundary (counted in `serve.plan_aborted`).
//!
//! # Shutdown
//!
//! SIGTERM/SIGINT (or [`ServerHandle::shutdown`]) stop the loop. It takes
//! one final accept sweep, reads each connection's kernel buffer one last
//! time and dispatches every complete line already received, then the
//! handler closes the queue (new pushes answer `shutdown`). Workers finish
//! everything admitted, the loop keeps delivering the mailbox and
//! flushing until all of it is on the wire (bounded by a 60 s window), and
//! `run` returns — the binary then exits 0. A request that was fully
//! buffered when the signal arrived therefore gets a real answer, never a
//! silent close.

use crate::engine::{admit, admit_oversized, guarded, reply_line, Engine, ReqMeta};
use crate::event_loop::{Conns, EventLoop, Framed, Handler, TokenMap, Waker};
use crate::protocol::{ErrorKind, Method, Params, SimRequest, WireError};
use crate::telemetry::SLOW_MS_DEFAULT;
use m3d_core::report::Json;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

pub use crate::sys::install_signal_handlers;

/// A worker popping a deadline-free `sim` head coalesces at most this
/// many queued deadline-free `sim` requests into one batch. Uncapped
/// coalescing would let one worker swallow the whole queue while the rest
/// of the pool idles, serializing a 64-deep queue behind a single thread.
const COALESCE_MAX: usize = 16;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Quick registry scale for `experiment` queries.
    pub quick: bool,
    /// Batch-engine lanes and experiment worker-pool size (1..=64).
    pub jobs: usize,
    /// Admission-queue bound; a full queue rejects with `overloaded`.
    pub queue_cap: usize,
    /// Worker threads draining the queue (clamped to at least one).
    pub workers: usize,
    /// Slow-request log threshold, milliseconds (0 disables the log).
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            quick: false,
            jobs: 1,
            queue_cap: 64,
            workers: 2,
            slow_ms: SLOW_MS_DEFAULT,
        }
    }
}

/// One queued request: its identity and deadline, its parameters, and
/// the connection to answer on.
struct Job<P> {
    meta: ReqMeta,
    params: P,
    reply: Arc<ConnWriter>,
}

enum Work {
    /// `sim`: deadline-free ones are eligible for coalescing.
    Sim(Job<SimRequest>),
    /// `experiment` or `plan` (told apart by `meta.method`): runs alone. A
    /// `plan` writes to its connection *while running*: each frontier
    /// chunk goes out as a partial line before the final result.
    Task(Job<Json>),
}

impl Work {
    /// Answer this work with an error without running it (queue
    /// rejection, on the event-loop thread): `batch` 0 — it never reached
    /// a batch.
    fn fail(self, state: &ServerState, conns: &mut Conns, e: WireError) {
        let (reply, meta) = match &self {
            Work::Sim(w) => (&w.reply, &w.meta),
            Work::Task(w) => (&w.reply, &w.meta),
        };
        send_reply(
            state,
            reply,
            Some(conns),
            meta,
            0,
            0,
            reply_line(meta.id, Err(e)),
        );
    }
}

/// What a worker claims in one round.
enum Batch {
    /// Coalesced deadline-free `sim` requests, or one deadline-bearing
    /// `sim` alone.
    Sims(Vec<Job<SimRequest>>),
    /// An `experiment` or `plan`.
    Task(Job<Json>),
}

struct QueueInner {
    items: VecDeque<Work>,
    closed: bool,
}

/// Bounded admission queue (mutex + condvar; no timers, no unbounded
/// buffering).
struct Queue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    cap: usize,
}

impl Queue {
    fn new(cap: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            cap,
        }
    }

    /// Admit work, or hand it back with the structured rejection.
    ///
    /// The rejected `Work` rides in the `Err` by value on purpose: the
    /// caller needs it back to answer the client, and this is a
    /// once-per-request cold path.
    #[allow(clippy::result_large_err)]
    fn push(&self, w: Work) -> Result<(), (Work, WireError)> {
        let mut q = self.inner.lock().expect("serve queue poisoned");
        if q.closed {
            return Err((
                w,
                WireError::new(ErrorKind::Shutdown, "server is shutting down"),
            ));
        }
        if q.items.len() >= self.cap {
            return Err((
                w,
                WireError::new(
                    ErrorKind::Overloaded,
                    format!("admission queue full ({} queued)", q.items.len()),
                ),
            ));
        }
        q.items.push_back(w);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Stop admitting; queued work still drains.
    fn close(&self) {
        self.inner.lock().expect("serve queue poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Claim the next batch: a deadline-free `sim` head coalesces up to
    /// `COALESCE_MAX - 1` other queued deadline-free `sim` requests (the
    /// overflow stays queued, in order, for the next worker); anything
    /// else runs alone. `None` once the queue is closed and drained.
    fn pop_batch(&self) -> Option<Batch> {
        let mut q = self.inner.lock().expect("serve queue poisoned");
        loop {
            if let Some(w) = q.items.pop_front() {
                return Some(match w {
                    Work::Sim(first) if first.meta.deadline.is_none() => {
                        let mut group = vec![first];
                        let mut rest = VecDeque::with_capacity(q.items.len());
                        for other in q.items.drain(..) {
                            match other {
                                Work::Sim(s)
                                    if s.meta.deadline.is_none() && group.len() < COALESCE_MAX =>
                                {
                                    group.push(s)
                                }
                                keep => rest.push_back(keep),
                            }
                        }
                        q.items = rest;
                        Batch::Sims(group)
                    }
                    Work::Sim(alone) => Batch::Sims(vec![alone]),
                    Work::Task(t) => Batch::Task(t),
                });
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).expect("serve queue poisoned");
        }
    }
}

/// Finished response lines travelling from the workers back to the event
/// loop, which owns every socket. Pushing also wakes the loop.
struct Mailbox {
    lines: Mutex<Vec<(u64, Vec<u8>)>>,
    waker: Arc<Waker>,
}

impl Mailbox {
    fn push(&self, token: u64, bytes: Vec<u8>) {
        self.lines
            .lock()
            .expect("serve mailbox poisoned")
            .push((token, bytes));
        self.waker.wake();
    }

    fn drain(&self) -> Vec<(u64, Vec<u8>)> {
        std::mem::take(&mut *self.lines.lock().expect("serve mailbox poisoned"))
    }

    fn is_empty(&self) -> bool {
        self.lines
            .lock()
            .expect("serve mailbox poisoned")
            .is_empty()
    }
}

/// The write half of one connection, shared between the event loop and
/// the workers answering its queued requests. Sends go through the
/// mailbox, never the socket: the event loop is the only thread that
/// writes to (or reads from) a `TcpStream`.
struct ConnWriter {
    token: u64,
    mailbox: Arc<Mailbox>,
    /// Set by the event loop when it tears the connection down (write
    /// failure, `EPOLLERR`/`EPOLLHUP`, or the flush window expiring).
    /// Once set, sends fail fast — which is what cancels a streaming
    /// `plan` whose client hung up.
    dead: AtomicBool,
    /// Requests admitted but not yet answered; the event loop keeps the
    /// connection's state alive until this reaches zero.
    pending: AtomicUsize,
}

impl ConnWriter {
    /// Hand one response line to the event loop for writing. Returns
    /// whether the connection was still up when the line was enqueued; a
    /// `false` (the client hung up, which must not take the worker down)
    /// is counted in `serve.write_errors`, matching a failed socket
    /// write.
    fn send(&self, line: &str) -> bool {
        if self.dead.load(Ordering::Acquire) {
            m3d_obs::add("serve.write_errors", 1);
            return false;
        }
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.mailbox.push(self.token, buf);
        true
    }

    /// Write one response line produced on the event-loop thread straight
    /// into the connection's write buffer: no mailbox, no wake. A gone
    /// connection counts in `serve.write_errors`, as in [`ConnWriter::send`].
    fn send_inline(&self, conns: &mut Conns, line: &str) -> bool {
        if !conns.send_line(self.token, line) {
            m3d_obs::add("serve.write_errors", 1);
            return false;
        }
        true
    }
}

/// Send a reply line with the error kind it carries (`None`: a success),
/// account for it ([`ReqMeta::complete`]: a response whose connection is
/// already gone counts as delivered to nobody), and decrement the
/// connection's pending count.
///
/// On the event-loop thread `conns` is `Some` and the line goes straight
/// into the write buffer; workers pass `None` and go through the mailbox.
fn send_reply(
    state: &ServerState,
    writer: &ConnWriter,
    conns: Option<&mut Conns>,
    meta: &ReqMeta,
    queue_us: u64,
    batch: u32,
    (line, outcome): (String, Option<ErrorKind>),
) {
    let sent = match conns {
        Some(conns) => writer.send_inline(conns, &line),
        None => writer.send(&line),
    };
    meta.complete(state.engine.live(), &line, outcome, sent, queue_us, batch);
    writer.pending.fetch_sub(1, Ordering::AcqRel);
}

/// Microseconds between a request's arrival and a worker claiming it.
fn queue_wait_us(meta: &ReqMeta, claimed: Instant) -> u64 {
    (claimed.duration_since(meta.received).as_secs_f64() * 1e6) as u64
}

struct ServerState {
    engine: Engine,
    queue: Queue,
    workers: usize,
    mailbox: Arc<Mailbox>,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listener and build the engine. Fails on an unbindable
    /// address, an out-of-range `jobs` (surfaced as `InvalidInput`), or
    /// an exhausted fd table (the wake eventfd).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let engine = Engine::new(cfg.quick, cfg.jobs)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        engine.set_slow_ms(cfg.slow_ms);
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let mailbox = Arc::new(Mailbox {
            lines: Mutex::new(Vec::new()),
            waker: Waker::new()?,
        });
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                engine,
                queue: Queue::new(cfg.queue_cap),
                workers: cfg.workers.max(1),
                mailbox,
            }),
        })
    }

    /// The actual bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a signal arrives or [`ServerHandle::shutdown`] is
    /// called, then drain and return.
    pub fn run(self) {
        let mut workers = Vec::new();
        for k in 0..self.state.workers {
            let st = Arc::clone(&self.state);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{k}"))
                    .spawn(move || {
                        m3d_obs::label_thread(format!("serve-worker-{k}"));
                        worker_loop(&st);
                    })
                    .expect("spawn serve worker"),
            );
        }
        let waker = Arc::clone(&self.state.mailbox.waker);
        let el = EventLoop::new(self.listener, waker).expect("set up the event loop");
        el.run(&mut Daemon {
            state: self.state,
            writers: TokenMap::default(),
            workers,
        });
    }

    /// Run on a background thread; the returned handle stops it.
    pub fn spawn(self) -> ServerHandle {
        let waker = Arc::clone(&self.state.mailbox.waker);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle { waker, thread }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    waker: Arc<Waker>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// Request a graceful drain and wait for it to finish.
    pub fn shutdown(self) {
        self.waker.stop();
        let _ = self.thread.join();
    }
}

/// The daemon's event-loop handler: request lines are answered inline or
/// go to the admission queue, mailbox lines go to their connections.
/// Replies leave in completion order, so pipelined requests may be
/// answered out of order.
struct Daemon {
    state: Arc<ServerState>,
    /// Per connection token (created by its first line).
    writers: TokenMap<Arc<ConnWriter>>,
    workers: Vec<JoinHandle<()>>,
}

impl Handler for Daemon {
    fn on_line(&mut self, conns: &mut Conns, token: u64, line: Framed<'_>) {
        let writer = self.writers.entry(token).or_insert_with(|| {
            Arc::new(ConnWriter {
                token,
                mailbox: Arc::clone(&self.state.mailbox),
                dead: AtomicBool::new(false),
                pending: AtomicUsize::new(0),
            })
        });
        match line {
            Framed::Line(line) => process_line(&line, writer, conns, &self.state),
            Framed::Oversized => {
                writer.send_inline(conns, &admit_oversized());
            }
        }
    }

    /// Move mailbox lines into their connections' write buffers. Lines for
    /// a connection that no longer exists are write errors: the client
    /// hung up before its answer.
    fn on_tick(&mut self, conns: &mut Conns) {
        for (token, bytes) in self.state.mailbox.drain() {
            if !conns.send(token, &bytes) {
                m3d_obs::add("serve.write_errors", 1);
            }
        }
    }

    /// Mark the writer dead: late sends from workers then fail fast and
    /// count `serve.write_errors`.
    fn on_close(&mut self, _conns: &mut Conns, token: u64, backlog: bool) {
        if let Some(w) = self.writers.remove(&token) {
            w.dead.store(true, Ordering::Release);
        }
        if backlog {
            // The unflushed tail never reached the client.
            m3d_obs::add("serve.write_errors", 1);
        }
    }

    /// Every admitted request answered and handed over. `pending` is read
    /// before the mailbox: a worker pushes its line before decrementing.
    fn idle(&self, token: u64) -> bool {
        self.writers
            .get(&token)
            .is_none_or(|w| w.pending.load(Ordering::Acquire) == 0)
            && self.state.mailbox.is_empty()
    }

    /// A worker pushes its last response before exiting, so "all
    /// finished" before a delivery means every response was handed over.
    fn busy(&self) -> bool {
        !self.workers.iter().all(|w| w.is_finished())
    }

    fn drain_begin(&mut self) {
        self.state.queue.close();
    }

    fn finish(&mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Run one claimed `sim` group (coalesced, or one deadline-bearing
/// request) behind a panic guard and answer every member. Every `sim`
/// path goes through here, so no arm can leak a panic and kill its worker
/// thread.
fn run_sim_group(state: &ServerState, group: &[Job<SimRequest>], claimed: Instant) {
    // Only a lone request can carry a deadline: `pop_batch` never
    // coalesces one.
    let deadline = group[0].meta.deadline;
    let batch_size = group.len() as u32;
    let reqs: Vec<(i64, &SimRequest)> = group.iter().map(|w| (w.meta.id, &w.params)).collect();
    let replies = guarded(|| state.engine.sim_group(&reqs, deadline)).unwrap_or_else(|e| {
        group
            .iter()
            .map(|w| reply_line(w.meta.id, Err(e.clone())))
            .collect()
    });
    for (w, reply) in group.iter().zip(replies) {
        let queue_us = queue_wait_us(&w.meta, claimed);
        send_reply(state, &w.reply, None, &w.meta, queue_us, batch_size, reply);
    }
}

/// Run one `experiment` or `plan` behind the panic guard and answer it.
fn run_task(state: &ServerState, w: &Job<Json>, claimed: Instant) {
    // A `plan`'s partials go out through the mailbox as they are
    // produced. The send result feeds back into the search: once the
    // client is gone the next chunk boundary aborts the run instead of
    // simulating for nobody. The final line still flows through
    // `send_reply` for the counters and latency record.
    let r = guarded(|| {
        state
            .engine
            .run_task(&w.meta, &w.params, |line| w.reply.send(line))
    })
    .unwrap_or_else(Err);
    send_reply(
        state,
        &w.reply,
        None,
        &w.meta,
        queue_wait_us(&w.meta, claimed),
        1,
        reply_line(w.meta.id, r),
    );
}

fn worker_loop(state: &ServerState) {
    while let Some(batch) = state.queue.pop_batch() {
        // Queue wait ends the moment the worker claims the batch; the rest
        // of each request's life is handle time.
        let claimed = Instant::now();
        match batch {
            Batch::Sims(group) => {
                if group.len() > 1 {
                    m3d_obs::add("serve.coalesced", (group.len() - 1) as u64);
                }
                run_sim_group(state, &group, claimed);
            }
            Batch::Task(w) => run_task(state, &w, claimed),
        }
    }
}

fn process_line(line: &str, writer: &Arc<ConnWriter>, conns: &mut Conns, state: &Arc<ServerState>) {
    let (req, meta) = match admit(line) {
        Ok(admitted) => admitted,
        Err(reply) => {
            writer.send_inline(conns, &reply);
            return;
        }
    };
    writer.pending.fetch_add(1, Ordering::AcqRel);
    let mut inline = |reply| send_reply(state, writer, Some(conns), &meta, 0, 1, reply);
    let work = match req.params {
        Params::Sim(Ok(params)) => {
            // Every point memoized: a lookup answers it, so it does not
            // wait behind simulations in the queue. Behind the same panic
            // guard as a worker's batch, so the loop survives.
            if let Some(reply) = state.engine.sim_hit(req.id, &params) {
                return inline(reply);
            }
            Work::Sim(Job {
                meta,
                params,
                reply: Arc::clone(writer),
            })
        }
        Params::Sim(Err(e)) => {
            let reply = reply_line(req.id, Err(e));
            return send_reply(state, writer, Some(conns), &meta, 0, 0, reply);
        }
        Params::Tree(params) => match req.method {
            Method::Planner => return inline(reply_line(req.id, Ok(state.engine.planner()))),
            Method::Stats => return inline(reply_line(req.id, Ok(state.engine.stats()))),
            Method::Telemetry => {
                return inline(reply_line(req.id, state.engine.telemetry(&params)))
            }
            Method::Experiment | Method::Plan => Work::Task(Job {
                meta,
                params,
                reply: Arc::clone(writer),
            }),
            Method::Sim => unreachable!("a `sim`'s params are read into points"),
        },
    };
    if let Err((work, e)) = state.queue.push(work) {
        work.fail(state, conns, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_mailbox() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            lines: Mutex::new(Vec::new()),
            waker: Waker::new().expect("eventfd"),
        })
    }

    fn test_writer(mailbox: &Arc<Mailbox>) -> Arc<ConnWriter> {
        Arc::new(ConnWriter {
            token: 2,
            mailbox: Arc::clone(mailbox),
            dead: AtomicBool::new(false),
            pending: AtomicUsize::new(0),
        })
    }

    fn job<P>(mailbox: &Arc<Mailbox>, id: i64, method: Method, params: P) -> Job<P> {
        Job {
            meta: ReqMeta {
                id,
                method,
                received: Instant::now(),
                req_bytes: 0,
                deadline: None,
            },
            params,
            reply: test_writer(mailbox),
        }
    }

    fn sim_work(mailbox: &Arc<Mailbox>, id: i64) -> Work {
        let req = SimRequest {
            points: Vec::new(),
            strict: false,
        };
        Work::Sim(job(mailbox, id, Method::Sim, req))
    }

    #[test]
    fn coalescing_caps_the_group_size() {
        let mailbox = test_mailbox();
        let q = Queue::new(64);
        for id in 0..40 {
            assert!(q.push(sim_work(&mailbox, id)).is_ok());
        }
        q.close();
        let mut sizes = Vec::new();
        let mut ids = Vec::new();
        while let Some(b) = q.pop_batch() {
            match b {
                Batch::Sims(group) => {
                    sizes.push(group.len());
                    ids.extend(group.iter().map(|w| w.meta.id));
                }
                Batch::Task(_) => panic!("only sims were queued"),
            }
        }
        assert_eq!(
            sizes,
            vec![COALESCE_MAX, COALESCE_MAX, 40 - 2 * COALESCE_MAX]
        );
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn capped_coalescing_preserves_queue_order_around_other_work() {
        let mailbox = test_mailbox();
        let q = Queue::new(64);
        for id in 0..10 {
            assert!(q.push(sim_work(&mailbox, id)).is_ok());
        }
        let experiment = job(&mailbox, 100, Method::Experiment, Json::Null);
        assert!(q.push(Work::Task(experiment)).is_ok());
        for id in 10..30 {
            assert!(q.push(sim_work(&mailbox, id)).is_ok());
        }
        q.close();
        // First claim: 16 sims (the experiment is skipped, not reordered).
        let Some(Batch::Sims(group)) = q.pop_batch() else {
            panic!("sim head coalesces");
        };
        assert_eq!(group.len(), COALESCE_MAX);
        assert_eq!(group.iter().map(|w| w.meta.id).collect::<Vec<_>>(), {
            let mut want: Vec<i64> = (0..16).collect();
            want.truncate(COALESCE_MAX);
            want
        });
        // The experiment kept its place ahead of the overflow sims.
        let Some(Batch::Task(e)) = q.pop_batch() else {
            panic!("experiment is next");
        };
        assert_eq!(e.meta.id, 100);
        let Some(Batch::Sims(rest)) = q.pop_batch() else {
            panic!("remaining sims coalesce");
        };
        assert_eq!(
            rest.iter().map(|w| w.meta.id).collect::<Vec<_>>(),
            (16..30).collect::<Vec<_>>()
        );
        assert!(q.pop_batch().is_none(), "closed and drained");
    }

    #[test]
    fn deadline_sims_run_alone_without_reordering() {
        let mailbox = test_mailbox();
        let q = Queue::new(64);
        assert!(q.push(sim_work(&mailbox, 0)).is_ok());
        let mut timed = job(
            &mailbox,
            1,
            Method::Sim,
            SimRequest {
                points: Vec::new(),
                strict: false,
            },
        );
        timed.meta.deadline = Some(Instant::now());
        assert!(q.push(Work::Sim(timed)).is_ok());
        assert!(q.push(sim_work(&mailbox, 2)).is_ok());
        q.close();
        let mut claims = Vec::new();
        while let Some(Batch::Sims(group)) = q.pop_batch() {
            claims.push(group.iter().map(|w| w.meta.id).collect::<Vec<_>>());
        }
        assert_eq!(claims, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn dead_writer_fails_sends_without_touching_the_mailbox() {
        let mailbox = test_mailbox();
        let w = test_writer(&mailbox);
        assert!(w.send("{\"ok\":1}"));
        w.dead.store(true, Ordering::Release);
        assert!(!w.send("{\"ok\":2}"));
        let delivered = mailbox.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1, b"{\"ok\":1}\n");
        assert!(mailbox.is_empty());
    }
}
