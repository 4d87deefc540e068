//! Program processes: spawning daemons, stopping them, and reading their
//! CPU time and peak memory.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const RUSAGE_CHILDREN: i32 = -1;
const SC_CLK_TCK: i32 = 2;

#[repr(C)]
#[derive(Default)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

/// User + system CPU seconds of all waited-for child processes.
pub fn children_cpu_s() -> f64 {
    let mut u = RUsage::default();
    // SAFETY: `u` is a writable, correctly sized `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) cannot fail with a valid pointer"
    );
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&u.utime) + secs(&u.stime)
}

fn clock_ticks() -> f64 {
    // SAFETY: sysconf only reads its integer argument.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User + system CPU seconds of process `pid` (all its threads).
pub fn cpu_s(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / clock_ticks()
}

/// Peak resident set (MB) of process `pid`.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Direct children of `pid` (the router's shard daemons).
pub fn children_of(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return out;
    };
    for t in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(t.path().join("children")) {
            out.extend(s.split_whitespace().filter_map(|v| v.parse::<u32>().ok()));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// A running `serve` daemon (or router) and where it listens.
pub struct Daemon {
    child: Child,
    /// `HOST:PORT` it listens on.
    pub addr: String,
    /// Shard daemons behind it, when it is a router.
    shard_pids: Vec<u32>,
}

impl Daemon {
    /// Spawn `serve` with `args` on an ephemeral port and wait until it
    /// listens (and, with `shards` > 1, until its shards are up).
    pub fn spawn(
        serve: &Path,
        run_dir: &Path,
        label: &str,
        args: &[&str],
        shards: usize,
    ) -> Result<Daemon, String> {
        let port_file = run_dir.join(format!("{}-{label}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(serve)
            .args(["--quick", "--addr", "127.0.0.1:0"])
            .args(args)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", serve.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
            shard_pids: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    d.addr = text.trim().to_owned();
                    break;
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("serve {label} exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err(format!("serve {label} did not listen within 30 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = std::fs::remove_file(&port_file);
        if shards > 1 {
            d.shard_pids = children_of(d.pid());
            if d.shard_pids.len() != shards {
                return Err(format!(
                    "router {label} has {} shard processes, expected {shards}",
                    d.shard_pids.len()
                ));
            }
        }
        Ok(d)
    }

    /// Process id of the daemon (the router, for a sharded daemon).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Every program process behind this address.
    pub fn pids(&self) -> Vec<u32> {
        let mut v = vec![self.pid()];
        v.extend(&self.shard_pids);
        v
    }

    /// Summed CPU seconds of every program process behind this address.
    pub fn cpu_s(&self) -> f64 {
        self.pids().into_iter().map(cpu_s).sum()
    }

    /// Summed peak RSS (MB) of every program process behind this address.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(peak_rss_mb).sum()
    }

    /// SIGTERM, wait for the drain; SIGKILL the whole tree after 10 s.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        if let Ok(Some(_)) = self.child.try_wait() {
            return Ok(());
        }
        // SAFETY: kill(2) on our own child's pid; no memory is touched.
        unsafe { kill(self.pid() as i32, SIGTERM) };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("serve exited with {status} on SIGTERM")),
                _ if Instant::now() > deadline => break,
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        for &pid in &self.shard_pids {
            // SAFETY: as above; a stale pid at worst gets ESRCH.
            unsafe { kill(pid as i32, SIGKILL) };
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("serve did not drain within 10 s of SIGTERM".to_owned())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Locate a program binary in `bin_dir`.
pub fn program(bin_dir: &Path, name: &str) -> Result<PathBuf, String> {
    let p = bin_dir.join(name);
    if p.is_file() {
        Ok(p)
    } else {
        Err(format!(
            "{} not found (build the workspace first)",
            p.display()
        ))
    }
}
