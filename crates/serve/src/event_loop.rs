//! The readiness loop under both the daemon and the shard router.
//!
//! One thread owns every socket through `epoll(7)` (see [`crate::sys`]):
//! the non-blocking listener, an `eventfd` wake channel, and one
//! [`LineConn`] per connection — accepted clients, plus the router's
//! upstream connections to its shards. The loop accepts, reads and frames
//! lines, flushes write backlogs, keeps each socket's registered interest
//! minimal (readable while the peer may send, writable only while a
//! partial write is outstanding), reaps finished connections, and runs
//! the graceful drain.
//!
//! A readable connection is read until a read comes back short, not
//! until `EAGAIN`, so a request that arrives in one segment costs one
//! `recv`; epoll is level-triggered, so later bytes are reported on the
//! next turn.
//!
//! What the lines *mean* lives in a [`Handler`]: the daemon's handler
//! dispatches them to its worker queue and delivers the workers' mailbox
//! lines; the router's handler fans them out to upstream connections and
//! restores per-connection reply order. The loop never asks which handler
//! it runs. The only distinction it draws is a connection's [`Role`]:
//! client lines are capped at [`MAX_LINE_BYTES`] and client reads stop
//! when the drain starts, while an upstream's replies are uncapped, keep
//! flowing through the drain, and an upstream that stops sending is
//! closed at once.

use crate::protocol::MAX_LINE_BYTES;
use crate::sys;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::vec::Drain;

/// Event-loop token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Event-loop token of the [`Waker`]'s eventfd.
const TOKEN_WAKE: u64 = 1;
/// First token handed to a registered connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// How long the drain (and a half-closed connection) may wait for
/// admitted work to finish and flush before giving up on the socket.
const FLUSH_WINDOW: Duration = Duration::from_secs(60);

/// Which side of the process a connection faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// An accepted client: request lines capped at [`MAX_LINE_BYTES`].
    Client,
    /// The router's connection to one shard: reply lines are uncapped (an
    /// `experiment` result can be larger than any request).
    Upstream,
}

impl Role {
    fn line_cap(self) -> usize {
        match self {
            Role::Client => MAX_LINE_BYTES,
            Role::Upstream => usize::MAX,
        }
    }
}

/// One framed unit of input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Framed {
    /// A complete non-blank line, without its `\n` and trailing `\r`s.
    Line(String),
    /// A line over the connection's cap; it is reported once and its tail
    /// is discarded up to the next newline.
    Oversized,
}

/// Frame every complete line out of `rbuf` onto the end of `out`, leaving
/// the unfinished tail.
///
/// Blank lines are skipped. A completed line longer than `cap` bytes is
/// [`Framed::Oversized`]; so is an unfinished tail that already exceeds
/// `cap`, which is then dropped and the stream discarded (`discarding`)
/// until the next newline resyncs it. The output does not depend on how
/// the stream was split across calls.
pub(crate) fn frame_lines(
    rbuf: &mut Vec<u8>,
    discarding: &mut bool,
    cap: usize,
    out: &mut Vec<Framed>,
) {
    let mut start = 0;
    while let Some(len) = rbuf[start..].iter().position(|&b| b == b'\n') {
        let line = &rbuf[start..start + len];
        start += len + 1;
        if std::mem::take(discarding) {
            continue;
        }
        if line.len() > cap {
            out.push(Framed::Oversized);
            continue;
        }
        let text = String::from_utf8_lossy(line);
        let text = text.trim_end_matches('\r');
        if !text.trim().is_empty() {
            out.push(Framed::Line(text.to_owned()));
        }
    }
    rbuf.drain(..start);
    if *discarding {
        // Still inside an oversized line's tail: nothing here is kept.
        rbuf.clear();
    } else if rbuf.len() > cap {
        out.push(Framed::Oversized);
        rbuf.clear();
        *discarding = true;
    }
}

/// One connection's state machine: the socket, its read buffer with the
/// framing state, its write backlog, the read-closed state with its flush
/// window, and the event mask registered for it.
struct LineConn {
    stream: TcpStream,
    role: Role,
    /// Bytes read but not yet framed into lines.
    rbuf: Vec<u8>,
    /// Inside the tail of an oversized line (already answered).
    discarding: bool,
    /// Bytes not yet on the wire; `wstart` marks the written prefix so a
    /// partial write never re-sends bytes.
    wbuf: Vec<u8>,
    wstart: usize,
    /// The peer half-closed, a read failed, or the drain stopped reading;
    /// queued bytes still flush.
    read_closed: bool,
    /// When `read_closed` was set, for the flush-window cap.
    closed_at: Option<Instant>,
    /// Event mask currently registered with epoll.
    interest: u32,
}

impl LineConn {
    fn has_backlog(&self) -> bool {
        self.wstart < self.wbuf.len()
    }

    fn close_read(&mut self) {
        self.read_closed = true;
        self.closed_at.get_or_insert_with(Instant::now);
    }

    /// Read through `chunk` until a read comes back short (or EOF, or the
    /// socket would block), and frame what arrived onto `lines`.
    ///
    /// A short read took everything the socket held, so another read
    /// would only return `EAGAIN`; whatever arrives later, EOF included,
    /// keeps the socket readable and level-triggered epoll reports it on
    /// the next turn. A full chunk keeps the loop reading, so one call
    /// still takes everything that was buffered when it started.
    fn read_lines(&mut self, chunk: &mut [u8], lines: &mut Vec<Framed>) {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    self.close_read();
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    let cap = self.role.line_cap();
                    frame_lines(&mut self.rbuf, &mut self.discarding, cap, lines);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_read();
                    break;
                }
            }
        }
    }

    /// Write the backlog until it drains or would block. Returns whether
    /// the connection survived.
    fn flush(&mut self) -> bool {
        while self.has_backlog() {
            match self.stream.write(&self.wbuf[self.wstart..]) {
                Ok(0) => return false,
                Ok(n) => self.wstart += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !self.has_backlog() {
            self.wbuf.clear();
            self.wstart = 0;
        } else if self.wstart > 64 * 1024 {
            // Compact occasionally so a slow peer cannot pin the whole
            // history of its output in memory.
            self.wbuf.drain(..self.wstart);
            self.wstart = 0;
        }
        true
    }
}

/// Every registered connection, keyed by token, plus the epoll instance
/// they are registered with. Handlers queue output through it.
pub(crate) struct Conns {
    epoll: sys::Epoll,
    map: HashMap<u64, LineConn>,
    next_token: u64,
}

impl Conns {
    /// Register a connected stream and return its token.
    pub(crate) fn add(&mut self, stream: TcpStream, role: Role) -> std::io::Result<u64> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        let token = self.next_token;
        self.next_token += 1;
        self.epoll.add(stream.as_raw_fd(), token, sys::EPOLLIN)?;
        self.map.insert(
            token,
            LineConn {
                stream,
                role,
                rbuf: Vec::new(),
                discarding: false,
                wbuf: Vec::new(),
                wstart: 0,
                read_closed: false,
                closed_at: None,
                interest: sys::EPOLLIN,
            },
        );
        Ok(token)
    }

    /// Queue bytes for `token`; they go out when the loop flushes.
    /// Returns `false` if the connection is gone.
    pub(crate) fn send(&mut self, token: u64, bytes: &[u8]) -> bool {
        match self.map.get_mut(&token) {
            Some(c) => {
                c.wbuf.extend_from_slice(bytes);
                true
            }
            None => false,
        }
    }

    /// Queue one line (a `\n` is appended) for `token`.
    pub(crate) fn send_line(&mut self, token: u64, line: &str) -> bool {
        self.send(token, line.as_bytes()) && self.send(token, b"\n")
    }

    /// Drop a connection the handler has given up on; closing the socket
    /// also deregisters it. The handler does its own bookkeeping.
    pub(crate) fn remove(&mut self, token: u64) {
        self.map.remove(&token);
    }

    /// Keep the registered event mask in sync with what the connection
    /// can still make progress on.
    fn update_interest(&mut self, token: u64) {
        let Some(c) = self.map.get_mut(&token) else {
            return;
        };
        let mut want = 0u32;
        if !c.read_closed {
            want |= sys::EPOLLIN;
        }
        if c.has_backlog() {
            want |= sys::EPOLLOUT;
        }
        if want != c.interest {
            let _ = self.epoll.modify(c.stream.as_raw_fd(), token, want);
            c.interest = want;
        }
    }
}

/// What the daemon and the router plug into the loop.
pub(crate) trait Handler {
    /// Lines framed from `token`'s input, in arrival order.
    fn on_input(&mut self, conns: &mut Conns, token: u64, lines: Drain<'_, Framed>);
    /// Once per loop turn, after the events and before the flush: move
    /// output produced off the loop thread into the connections.
    fn on_tick(&mut self, _conns: &mut Conns) {}
    /// The loop tore `token` down (error, hang-up, failed write, upstream
    /// EOF, or reap); `backlog` says unflushed bytes were lost with it.
    fn on_close(&mut self, conns: &mut Conns, token: u64, backlog: bool);
    /// Whether `token` is owed nothing more: a read-closed connection that
    /// is idle and flushed gets reaped.
    fn idle(&self, token: u64) -> bool;
    /// Whether work is still in progress anywhere; the drain ends once it
    /// is not and every connection is idle and flushed. Sampled before
    /// each turn's [`Handler::on_tick`], so output produced before the
    /// work finished has been delivered when the drain checks.
    fn busy(&self) -> bool;
    /// The drain read every client one last time; no more input follows.
    fn drain_begin(&mut self);
    /// The loop has exited and closed every socket.
    fn finish(&mut self);
}

/// Cross-thread control of a running loop: a stop flag plus the eventfd
/// that kicks the loop out of `epoll_wait`.
pub(crate) struct Waker {
    stop: AtomicBool,
    fd: sys::WakeFd,
}

impl Waker {
    pub(crate) fn new() -> std::io::Result<Arc<Waker>> {
        Ok(Arc::new(Waker {
            stop: AtomicBool::new(false),
            fd: sys::WakeFd::new()?,
        }))
    }

    /// Wake the loop for one extra turn.
    pub(crate) fn wake(&self) {
        self.fd.wake();
    }

    /// Ask the loop to drain and return.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.fd.wake();
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || sys::signalled()
    }
}

/// The loop itself: the listener, the wake channel and the connections.
pub(crate) struct EventLoop {
    conns: Conns,
    /// `None` once the drain has taken its final accept sweep.
    listener: Option<TcpListener>,
    waker: Arc<Waker>,
    /// Lines framed from one read, handed to the handler; kept between
    /// reads so framing allocates no list per read.
    framed: Vec<Framed>,
    /// Every connection's reads land here first: one buffer, zeroed once,
    /// not a fresh 16 KiB stack array to zero per readiness event.
    chunk: Box<[u8]>,
}

impl EventLoop {
    /// Register the (non-blocking) listener and the waker.
    pub(crate) fn new(listener: TcpListener, waker: Arc<Waker>) -> std::io::Result<EventLoop> {
        let epoll = sys::Epoll::new()?;
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)?;
        epoll.add(waker.fd.raw(), TOKEN_WAKE, sys::EPOLLIN)?;
        Ok(EventLoop {
            conns: Conns {
                epoll,
                map: HashMap::new(),
                next_token: FIRST_CONN_TOKEN,
            },
            listener: Some(listener),
            waker,
            framed: Vec::new(),
            chunk: vec![0; 16 * 1024].into_boxed_slice(),
        })
    }

    /// The connection set, for registering upstreams before [`run`].
    ///
    /// [`run`]: EventLoop::run
    pub(crate) fn conns(&mut self) -> &mut Conns {
        &mut self.conns
    }

    /// Serve until the waker is stopped or a termination signal arrives,
    /// then drain and return.
    pub(crate) fn run(mut self, h: &mut impl Handler) {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        while !self.waker.stopping() {
            // The timeout bounds how long a signal can go unnoticed when
            // the loop is otherwise idle.
            self.dispatch(h, &mut events, 100);
            self.settle(h);
        }
        self.drain(h, &mut events);
    }

    /// Wait for readiness and handle every event.
    fn dispatch(&mut self, h: &mut impl Handler, events: &mut [sys::EpollEvent], timeout_ms: i32) {
        let n = self.conns.epoll.wait(events, timeout_ms);
        for ev in events.iter().take(n).copied() {
            let (token, bits) = (ev.data, ev.events);
            match token {
                TOKEN_LISTENER => self.accept(),
                TOKEN_WAKE => self.waker.fd.drain(),
                t => self.conn_event(h, t, bits),
            }
        }
    }

    /// The end of every turn: deliver the handler's off-thread output,
    /// flush, reap.
    fn settle(&mut self, h: &mut impl Handler) {
        h.on_tick(&mut self.conns);
        self.flush_all(h);
        self.reap(h);
    }

    /// Accept until the listener would block.
    fn accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = self.conns.add(stream, Role::Client);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                // Transient accept failures (EMFILE, aborted handshakes):
                // back off briefly so a persistent one cannot spin the
                // loop hot, then let the next readiness event retry.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            }
        }
    }

    /// Dispatch one readiness event for a connection.
    fn conn_event(&mut self, h: &mut impl Handler, token: u64, bits: u32) {
        let Some(c) = self.conns.map.get_mut(&token) else {
            // A stale event for a connection torn down earlier in this
            // same batch.
            return;
        };
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            self.close(h, token);
            return;
        }
        if bits & sys::EPOLLOUT != 0 && !c.flush() {
            self.close(h, token);
            return;
        }
        if bits & sys::EPOLLIN != 0 {
            self.read(h, token);
            // Replies the handler answered inline go out now, before the
            // interest update, so a fully written reply never registers
            // write interest at all.
            if self
                .conns
                .map
                .get_mut(&token)
                .is_some_and(|c| c.has_backlog() && !c.flush())
            {
                self.close(h, token);
                return;
            }
        }
        self.conns.update_interest(token);
    }

    /// Read and frame `token`'s input and hand it to the handler. An
    /// upstream that stopped sending is closed once its last lines are in.
    fn read(&mut self, h: &mut impl Handler, token: u64) {
        let Some(c) = self.conns.map.get_mut(&token) else {
            return;
        };
        c.read_lines(&mut self.chunk, &mut self.framed);
        let upstream_gone = c.role == Role::Upstream && c.read_closed;
        if !self.framed.is_empty() {
            h.on_input(&mut self.conns, token, self.framed.drain(..));
        }
        if upstream_gone {
            self.close(h, token);
        }
    }

    /// Tear a connection down now and tell the handler.
    fn close(&mut self, h: &mut impl Handler, token: u64) {
        if let Some(c) = self.conns.map.remove(&token) {
            h.on_close(&mut self.conns, token, c.has_backlog());
        }
    }

    /// Put every backlog on the wire. A failed write closes its
    /// connection, and the handler may queue output elsewhere in response
    /// (a dead shard's requests are answered), so repeat until a pass
    /// closes nothing.
    fn flush_all(&mut self, h: &mut impl Handler) {
        loop {
            let backlogged: Vec<u64> = self
                .conns
                .map
                .iter()
                .filter(|(_, c)| c.has_backlog())
                .map(|(t, _)| *t)
                .collect();
            let mut failed = Vec::new();
            for t in backlogged {
                if self.conns.map.get_mut(&t).is_some_and(|c| !c.flush()) {
                    failed.push(t);
                } else {
                    self.conns.update_interest(t);
                }
            }
            if failed.is_empty() {
                break;
            }
            for t in failed {
                self.close(h, t);
            }
        }
    }

    /// Close connections that are finished: the peer stopped sending and
    /// the handler owes it nothing that is not on the wire. A peer that
    /// half-closed but cannot absorb its output is cut off after the flush
    /// window.
    fn reap(&mut self, h: &mut impl Handler) {
        let now = Instant::now();
        let done: Vec<u64> = self
            .conns
            .map
            .iter()
            .filter(|(t, c)| {
                c.read_closed
                    && ((!c.has_backlog() && h.idle(**t))
                        || c.closed_at
                            .is_some_and(|at| now.duration_since(at) > FLUSH_WINDOW))
            })
            .map(|(t, _)| *t)
            .collect();
        for t in done {
            self.close(h, t);
        }
    }

    /// Graceful drain. Requests whose bytes already reached this host are
    /// still answered: take one final accept sweep (a client whose
    /// handshake finished before the stop is established, so it gets the
    /// same guarantee; later handshakes are refused once the listener
    /// closes), read every client one last time and hand the lines over,
    /// then stop reading clients and keep turning until the handler is not
    /// busy and every connection is idle and flushed — bounded by the flush
    /// window. Closing the sockets only then means clients see EOF after
    /// their buffered requests were answered.
    fn drain(mut self, h: &mut impl Handler, events: &mut [sys::EpollEvent]) {
        self.accept();
        self.listener = None;
        let clients: Vec<u64> = self
            .conns
            .map
            .iter()
            .filter(|(_, c)| c.role == Role::Client)
            .map(|(t, _)| *t)
            .collect();
        for t in clients {
            self.read(h, t);
            if let Some(c) = self.conns.map.get_mut(&t) {
                c.close_read();
            }
            self.conns.update_interest(t);
        }
        h.drain_begin();
        let t0 = Instant::now();
        loop {
            let busy = h.busy();
            self.settle(h);
            let settled = self
                .conns
                .map
                .iter()
                .all(|(t, c)| !c.has_backlog() && h.idle(*t));
            if (!busy && settled) || t0.elapsed() > FLUSH_WINDOW {
                break;
            }
            self.dispatch(h, events, 50);
        }
        self.conns.map.clear();
        h.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Feed `stream` to the framer in pieces ending at `cuts`.
    fn frame_split(stream: &[u8], cuts: &[usize], cap: usize) -> Vec<Framed> {
        let (mut rbuf, mut discarding, mut out) = (Vec::new(), false, Vec::new());
        let mut at = 0;
        for &cut in cuts.iter().chain([&stream.len()]) {
            let cut = cut.clamp(at, stream.len());
            rbuf.extend_from_slice(&stream[at..cut]);
            frame_lines(&mut rbuf, &mut discarding, cap, &mut out);
            at = cut;
        }
        out
    }

    /// One stream piece: a short request-like line, a blank line, a
    /// `\r\n`-terminated line, an unterminated fragment, or a line longer
    /// than any cap the test draws.
    fn piece(kind: u64, len: usize, seed: u64) -> Vec<u8> {
        let body: Vec<u8> = (0..len)
            .map(|i| b'a' + ((seed as usize + i) % 26) as u8)
            .collect();
        match kind {
            0 => [&body[..], b"\n"].concat(),
            1 => b"\n".to_vec(),
            2 => [&body[..], b"\r\n"].concat(),
            3 => body,
            4 => b" \r\n".to_vec(),
            _ => [&body.repeat(4)[..], b"\n"].concat(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn framing_is_independent_of_read_boundaries(
            pieces in vec((0u64..6, 0usize..40, any::<u64>()), 0..24),
            cuts in vec(0usize..2000, 0..16),
            cap in 4usize..48,
        ) {
            let stream: Vec<u8> = pieces.iter().flat_map(|&(k, n, s)| piece(k, n, s)).collect();
            let mut cuts = cuts;
            cuts.sort_unstable();
            let whole = frame_split(&stream, &[], cap);
            prop_assert_eq!(frame_split(&stream, &cuts, cap), whole.clone());
            // Byte-at-a-time is the most adversarial split of all.
            let every: Vec<usize> = (1..stream.len()).collect();
            prop_assert_eq!(frame_split(&stream, &every, cap), whole);
        }
    }

    #[test]
    fn framing_rules() {
        let cap = 8;
        let frame = |s: &[u8]| frame_split(s, &[], cap);
        let line = |s: &str| Framed::Line(s.to_owned());
        assert_eq!(frame(b"a\n\n \r\nb\r\r\nc"), vec![line("a"), line("b")]);
        // A completed line over the cap, then resync.
        assert_eq!(
            frame(b"0123456789\nok\n"),
            vec![Framed::Oversized, line("ok")]
        );
        // An unfinished tail over the cap is reported before its newline,
        // once, however long it grows.
        assert_eq!(
            frame_split(
                b"0123456789abcdefghijklmnopqrstuvwxyz\nok\n",
                &[9, 20, 30],
                cap
            ),
            vec![Framed::Oversized, line("ok")]
        );
        // Exactly the cap is fine.
        assert_eq!(frame(b"01234567\n"), vec![line("01234567")]);
        // Upstream replies are never capped.
        assert_eq!(Role::Upstream.line_cap(), usize::MAX);
        assert_eq!(Role::Client.line_cap(), MAX_LINE_BYTES);
    }
}
