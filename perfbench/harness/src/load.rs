//! Load generators: a closed loop over one connection and an open loop on
//! a seeded schedule.

use m3d_serve::Client;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the request line in the caller's line table.
    pub line: usize,
    /// Latency in microseconds (from the due time, in an open loop).
    pub us: f64,
    /// The terminating reply line.
    pub reply: String,
}

/// Send `line` and read up to its terminating reply (skipping `plan`
/// partials). With `traced`, the call is recorded as a `client` span.
pub fn call(client: &mut Client, line: &str, traced: bool) -> Result<String, String> {
    let _span = traced.then(|| m3d_obs::span("client", "call"));
    let mut reply = client.call_raw(line).map_err(|e| format!("call: {e}"))?;
    while is_partial(&reply) {
        reply = client.recv_raw().map_err(|e| format!("recv: {e}"))?;
    }
    Ok(reply)
}

/// Whether a reply line is a streamed `plan` partial.
pub fn is_partial(reply: &str) -> bool {
    reply.contains("\"partial\":true")
}

/// Closed loop: send `order` (indices into `lines`, cycled) one at a time
/// until `seconds` have passed or `limit` requests are answered.
pub fn closed_loop(
    addr: &str,
    lines: &[String],
    order: &[usize],
    seconds: f64,
    limit: usize,
    traced: bool,
) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0;
    while k < limit && Instant::now() < end {
        let i = order[k % order.len()];
        k += 1;
        let t = Instant::now();
        let reply = call(&mut client, &lines[i], traced)?;
        out.push(Sample {
            line: i,
            us: t.elapsed().as_secs_f64() * 1e6,
            reply,
        });
    }
    Ok(out)
}

/// One scheduled send of an open loop.
#[derive(Debug, Clone)]
pub struct Due {
    /// Seconds after the start of the loop.
    pub at_s: f64,
    /// Index of the line to send.
    pub line: usize,
}

/// Result of one open-loop connection.
#[derive(Debug, Default)]
pub struct OpenResult {
    /// Answered requests.
    pub samples: Vec<Sample>,
    /// How late each send left relative to its due time, microseconds.
    pub lag_us: Vec<f64>,
}

fn reply_id(reply: &str) -> Option<i64> {
    let rest = reply.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| c != '-' && !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Wait until `stream` is readable or `timeout` passes (nanosecond
/// timeout, unlike `SO_RCVTIMEO`, which the kernel rounds to jiffies).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 1, // POLLIN
        revents: 0,
    };
    let ts = TimeSpec {
        sec: timeout.as_secs() as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: one valid pollfd, a valid timespec, and no signal mask.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

/// Open loop on one connection: send each due line at its time whether or
/// not earlier replies have arrived; time each request from its due time.
/// `ids[line]` is the request id the line carries.
pub fn open_loop(
    addr: &str,
    lines: &[String],
    ids: &[i64],
    schedule: &[Due],
    start: Instant,
    traced: bool,
) -> Result<OpenResult, String> {
    // Wake at each due time to the microsecond, not within the default
    // 50 µs timer slack, which would add to every measured latency.
    // SAFETY: PR_SET_TIMERSLACK takes one integer and touches no memory.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut res = OpenResult::default();
    let mut pending: HashMap<i64, (usize, Instant)> = HashMap::new();
    let mut next = 0;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let drain_end = start
        + Duration::from_secs_f64(schedule.last().map_or(0.0, |d| d.at_s))
        + Duration::from_secs(60);
    while next < schedule.len() || !pending.is_empty() {
        let now = Instant::now();
        if next < schedule.len() {
            let due = start + Duration::from_secs_f64(schedule[next].at_s);
            if due <= now {
                let d = &schedule[next];
                let _span = traced.then(|| m3d_obs::span("client", "send"));
                stream
                    .write_all(format!("{}\n", lines[d.line]).as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                res.lag_us.push((Instant::now() - due).as_secs_f64() * 1e6);
                pending.insert(ids[d.line], (d.line, due));
                next += 1;
                continue;
            }
        }
        if now > drain_end {
            return Err(format!(
                "{} requests unanswered 60 s after the schedule",
                pending.len()
            ));
        }
        // Wait for a reply, but no longer than the next due time.
        let wait = if next < schedule.len() {
            (start + Duration::from_secs_f64(schedule[next].at_s)).saturating_duration_since(now)
        } else {
            Duration::from_millis(100)
        };
        if !wait_readable(&stream, wait) {
            continue;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_owned());
        }
        let arrived = Instant::now();
        buf.extend_from_slice(&chunk[..n]);
        while let Some(pos) = buf.iter().position(|&c| c == b'\n') {
            let raw: Vec<u8> = buf.drain(..=pos).collect();
            let reply = String::from_utf8_lossy(&raw[..pos]).into_owned();
            if is_partial(&reply) {
                continue;
            }
            let id = reply_id(&reply).ok_or_else(|| format!("reply without id: {reply}"))?;
            let (line, due) = pending
                .remove(&id)
                .ok_or_else(|| format!("reply to unknown id {id}"))?;
            res.samples.push(Sample {
                line,
                us: (arrived - due).as_secs_f64() * 1e6,
                reply,
            });
        }
    }
    Ok(res)
}
