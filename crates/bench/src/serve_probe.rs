//! The `perf_baseline` serve probe: cold-process `sim` throughput, plus a
//! connections-≫-workers load tier.
//!
//! The probe answers two questions `perfbench/` does not yet cover. First:
//! *what does one query cost without a daemon?* The **cold** phase runs
//! `serve --oneshot` once per query (stdin/stdout, no TCP): every query
//! pays process start-up, engine construction and an uncached simulation.
//! perfbench's `serve-hit` workload is the warm-daemon side of that
//! comparison.
//!
//! Second: *does the single-threaded event loop hold up when connections
//! vastly outnumber workers?* The **load** phase points [`LOAD_CONNS`]
//! concurrent closed-loop clients at a daemon restricted to
//! [`LOAD_WORKERS`] workers, over a small warmed pool, and records
//! aggregate throughput plus p50/p99 request latency. Since every request
//! is a cache hit, those numbers isolate the connection plumbing —
//! accept, line framing, mailbox handoff, write backlog — from
//! simulation cost.
//!
//! Both phases run `--quick --jobs 1`. The numbers are wall-clock and
//! machine-dependent, so the resulting `serve_probe` block in
//! `BENCH_repro.json` is informational and never gated; `perf_baseline`
//! records it on `--write` only.
//!
//! This module deliberately does **not** depend on `m3d-serve` (the
//! workspace keeps `bench` below `serve` in the crate DAG); it speaks the
//! documented NDJSON grammar directly and finds the `serve` binary next
//! to the running `perf_baseline` executable.

use m3d_core::report::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Process spawns timed in the cold (oneshot) phase.
pub const COLD_REQUESTS: usize = 5;

/// Concurrent connections in the load phase — deliberately far above
/// [`LOAD_WORKERS`] so the probe exercises the event loop's fan-in, not
/// the worker pool.
pub const LOAD_CONNS: usize = 128;

/// Worker threads the load-phase daemon is started with.
pub const LOAD_WORKERS: usize = 2;

/// Closed-loop requests each load-phase connection issues.
pub const LOAD_REQUESTS_PER_CONN: usize = 8;

/// The fixed point pool: small enough that the load phase is cache-hit
/// dominated after one pass, varied enough to exercise distinct warm keys.
const POOL_APPS: [&str; 3] = ["Gcc", "Mcf", "Bzip2"];
const POOL_SEEDS: [u64; 2] = [0, 1];

/// One serve-probe measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeProbe {
    /// Queries per second when every query spawns a fresh `--oneshot`
    /// process.
    pub cold_rps: f64,
    /// Aggregate throughput of the [`LOAD_CONNS`]-connection load phase.
    pub load_rps: f64,
    /// Median request latency in the load phase, microseconds.
    pub load_p50_us: u64,
    /// 99th-percentile request latency in the load phase, microseconds.
    pub load_p99_us: u64,
}

fn sim_line(id: usize, app: &str, seed: u64) -> String {
    Json::obj([
        ("id", Json::from(id as i64)),
        ("method", Json::from("sim")),
        (
            "params",
            Json::obj([
                ("app", Json::from(app)),
                ("design", Json::from("Base")),
                ("seed", Json::from(seed)),
                ("warmup", Json::from(3_000u64)),
                ("measure", Json::from(2_000u64)),
            ]),
        ),
    ])
    .render_compact()
}

fn pool_point(k: usize) -> (&'static str, u64) {
    (
        POOL_APPS[k % POOL_APPS.len()],
        POOL_SEEDS[(k / POOL_APPS.len()) % POOL_SEEDS.len()],
    )
}

fn serve_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me
        .parent()
        .ok_or_else(|| "executable has no parent directory".to_owned())?;
    let path = dir.join(format!("serve{}", std::env::consts::EXE_SUFFIX));
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "serve binary not found at {} (build it with `cargo build --release -p m3d-serve`)",
            path.display()
        ))
    }
}

/// Kill-on-drop guard so a failing probe never leaks a daemon.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn expect_ok(line: &str) -> Result<Json, String> {
    let j = Json::parse(line).map_err(|e| format!("unparsable reply `{line}`: {e}"))?;
    match j.get("ok") {
        Some(Json::Bool(true)) => Ok(j),
        _ => Err(format!("serve answered an error: {line}")),
    }
}

/// Spawn the daemon on an ephemeral port and wait for its port file.
/// `label` keeps concurrent phases' port files distinct; `extra` is
/// appended after the common `--quick --jobs 1 --addr 127.0.0.1:0`.
fn spawn_daemon(
    serve: &PathBuf,
    label: &str,
    extra: &[&str],
) -> Result<(ChildGuard, String), String> {
    let port_file = std::env::temp_dir().join(format!(
        "m3d_serve_probe_{}_{label}.port",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(serve)
        .args(["--quick", "--jobs", "1", "--addr", "127.0.0.1:0"])
        .args(extra)
        .arg("--port-file")
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", serve.display()))?;
    let mut child = ChildGuard(child);

    let deadline = Instant::now() + Duration::from_secs(20);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let text = text.trim().to_owned();
            if !text.is_empty() {
                break text;
            }
        }
        if let Ok(Some(status)) = child.0.try_wait() {
            return Err(format!("serve exited before listening: {status}"));
        }
        if Instant::now() >= deadline {
            return Err("serve did not write its port file within 20s".to_owned());
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_file(&port_file);
    Ok((child, addr))
}

fn cold_phase(serve: &PathBuf) -> Result<f64, String> {
    let t0 = Instant::now();
    for k in 0..COLD_REQUESTS {
        let mut child = Command::new(serve)
            .args(["--oneshot", "--quick", "--jobs", "1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn oneshot: {e}"))?;
        {
            let mut stdin = child.stdin.take().ok_or("no stdin")?;
            // Same point every iteration: each process starts with an
            // empty cache, so each query is genuinely cold.
            let (app, seed) = pool_point(0);
            writeln!(stdin, "{}", sim_line(k, app, seed)).map_err(|e| format!("write: {e}"))?;
            // Dropping stdin closes it; oneshot exits at EOF.
        }
        let out = child
            .wait_with_output()
            .map_err(|e| format!("wait oneshot: {e}"))?;
        if !out.status.success() {
            return Err(format!("oneshot exited with {}", out.status));
        }
        let reply = String::from_utf8_lossy(&out.stdout);
        expect_ok(reply.trim())?;
    }
    let cold_s = t0.elapsed().as_secs_f64();
    if cold_s <= 0.0 {
        return Err("cold phase measured zero wall time".to_owned());
    }
    Ok(COLD_REQUESTS as f64 / cold_s)
}

/// The connections-≫-workers phase: [`LOAD_CONNS`] concurrent clients in
/// closed loops against a daemon with [`LOAD_WORKERS`] workers. With the
/// pool warmed first, every request is a memo-cache hit, so the numbers
/// measure the event loop's fan-in/fan-out (accept, framing, mailbox
/// handoff, write backlog) rather than simulation speed. Returns
/// `(rps, p50_us, p99_us)`.
fn load_phase(serve: &PathBuf) -> Result<(f64, u64, u64), String> {
    let workers = LOAD_WORKERS.to_string();
    let (child, addr) = spawn_daemon(
        serve,
        "load",
        &["--workers", &workers, "--queue-cap", "256"],
    )?;

    // Warm the pool on a single connection so the timed section is
    // cache-hit dominated for every client.
    {
        let stream = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let mut reader = BufReader::new(stream);
        for k in 0..POOL_APPS.len() * POOL_SEEDS.len() {
            let (app, seed) = pool_point(k);
            writer
                .write_all(format!("{}\n", sim_line(k, app, seed)).as_bytes())
                .map_err(|e| format!("warmup write: {e}"))?;
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(0) => return Err("serve closed the warmup connection".to_owned()),
                Ok(_) => expect_ok(reply.trim_end()).map(|_| ())?,
                Err(e) => return Err(format!("warmup read: {e}")),
            }
        }
    }

    let t0 = Instant::now();
    let handles: Vec<_> = (0..LOAD_CONNS)
        .map(|conn| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<Vec<u64>, String> {
                let stream =
                    TcpStream::connect(&addr).map_err(|e| format!("conn {conn} connect: {e}"))?;
                stream.set_nodelay(true).ok();
                let mut writer = stream
                    .try_clone()
                    .map_err(|e| format!("conn {conn} clone: {e}"))?;
                let mut reader = BufReader::new(stream);
                let mut lat_us = Vec::with_capacity(LOAD_REQUESTS_PER_CONN);
                for r in 0..LOAD_REQUESTS_PER_CONN {
                    let (app, seed) = pool_point(conn + r);
                    // One write per line: on this `TCP_NODELAY` socket a
                    // separate newline write would be a second segment.
                    let line = format!(
                        "{}\n",
                        sim_line(conn * LOAD_REQUESTS_PER_CONN + r, app, seed)
                    );
                    let sent = Instant::now();
                    writer
                        .write_all(line.as_bytes())
                        .map_err(|e| format!("conn {conn} write: {e}"))?;
                    let mut reply = String::new();
                    match reader.read_line(&mut reply) {
                        Ok(0) => return Err(format!("conn {conn}: serve closed the connection")),
                        Ok(_) => expect_ok(reply.trim_end()).map(|_| ())?,
                        Err(e) => return Err(format!("conn {conn} read: {e}")),
                    }
                    lat_us.push(sent.elapsed().as_micros() as u64);
                }
                Ok(lat_us)
            })
        })
        .collect();
    let mut lat_us: Vec<u64> = Vec::with_capacity(LOAD_CONNS * LOAD_REQUESTS_PER_CONN);
    for h in handles {
        lat_us.extend(h.join().map_err(|_| "load client panicked".to_owned())??);
    }
    let load_s = t0.elapsed().as_secs_f64();
    drop(child);

    if load_s <= 0.0 || lat_us.is_empty() {
        return Err("load phase measured zero wall time".to_owned());
    }
    lat_us.sort_unstable();
    let quantile = |q: f64| lat_us[((lat_us.len() - 1) as f64 * q).round() as usize];
    Ok((lat_us.len() as f64 / load_s, quantile(0.50), quantile(0.99)))
}

/// Run both phases against the sibling `serve` binary. Returns an error
/// (and the caller skips the block) when the binary is missing — e.g. a
/// `cargo run -p m3d-bench` without a prior workspace build.
pub fn measure_serve() -> Result<ServeProbe, String> {
    let serve = serve_binary()?;
    let cold_rps = cold_phase(&serve)?;
    let (load_rps, load_p50_us, load_p99_us) = load_phase(&serve)?;
    Ok(ServeProbe {
        cold_rps,
        load_rps,
        load_p50_us,
        load_p99_us,
    })
}

/// The informational `serve_probe` block for `BENCH_repro.json`.
pub fn serve_probe_json(p: &ServeProbe) -> Json {
    Json::obj([
        ("cold_requests", Json::from(COLD_REQUESTS)),
        ("cold_rps", Json::from(p.cold_rps)),
        (
            "load",
            Json::obj([
                ("conns", Json::from(LOAD_CONNS)),
                ("workers", Json::from(LOAD_WORKERS)),
                ("requests_per_conn", Json::from(LOAD_REQUESTS_PER_CONN)),
                ("rps", Json::from(p.load_rps)),
                ("p50_us", Json::from(p.load_p50_us)),
                ("p99_us", Json::from(p.load_p99_us)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_cycles_through_apps_and_seeds() {
        let unique: std::collections::BTreeSet<_> = (0..POOL_APPS.len() * POOL_SEEDS.len())
            .map(pool_point)
            .collect();
        assert_eq!(unique.len(), POOL_APPS.len() * POOL_SEEDS.len());
        // The timed load loop only revisits pool points (cache-hit
        // dominated).
        for k in 0..LOAD_CONNS + LOAD_REQUESTS_PER_CONN {
            assert!(unique.contains(&pool_point(k)));
        }
    }

    #[test]
    fn probe_json_shape_is_stable() {
        let p = ServeProbe {
            cold_rps: 16.5,
            load_rps: 900.0,
            load_p50_us: 1_800,
            load_p99_us: 12_000,
        };
        let j = serve_probe_json(&p);
        let parsed = Json::parse(&j.render()).expect("valid JSON");
        assert_eq!(
            parsed.get("cold_requests"),
            Some(&Json::Int(COLD_REQUESTS as i64))
        );
        assert_eq!(parsed.get("cold_rps"), Some(&Json::Num(16.5)));
        let load = parsed.get("load").expect("load sub-block");
        assert_eq!(load.get("conns"), Some(&Json::Int(LOAD_CONNS as i64)));
        assert_eq!(load.get("workers"), Some(&Json::Int(LOAD_WORKERS as i64)));
        assert_eq!(load.get("p99_us"), Some(&Json::Int(12_000)));
        // perfbench times the warm daemon and the router (`serve-hit`,
        // `router-fanout`), so the block carries neither.
        for gone in ["warm_rps", "speedup", "shard", "counters"] {
            assert_eq!(parsed.get(gone), None, "{gone}");
        }
    }

    #[test]
    fn sim_lines_follow_the_wire_grammar() {
        let line = sim_line(7, "Gcc", 1);
        let j = Json::parse(&line).expect("valid JSON");
        assert_eq!(j.get("method"), Some(&Json::Str("sim".to_owned())));
        assert_eq!(j.get("id"), Some(&Json::Int(7)));
        assert!(!line.contains('\n'), "one request = one line");
    }
}
