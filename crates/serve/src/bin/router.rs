//! `router` — the multi-process shard router for `serve`.
//!
//! # Usage
//!
//! ```text
//! router [--addr HOST:PORT] [--port-file PATH] [--shards N]
//!        [--connect A,B,...] [--quick] [--jobs N] [--workers N]
//!        [--queue-cap N] [--slow-ms N]
//! ```
//!
//! Spawns `--shards` `serve` daemons (the sibling `serve` binary next to
//! this executable; each gets this command's `--quick`, `--jobs`,
//! `--workers`, `--queue-cap`, and `--slow-ms`), binds one client-facing
//! listener, and routes requests to the shards by the SimPoint
//! fingerprint — `sim` points to the shard owning each point's key slice,
//! `plan`/`experiment`/`planner` whole by content affinity, `stats` and
//! `telemetry` answered by the router itself (including the shard
//! `topology`). See the `m3d_serve::router` rustdoc for routing, ordering
//! and failure semantics; the wire protocol is byte-identical to a single
//! daemon's.
//!
//! With `--connect A,B,...` the router connects to pre-existing daemons
//! instead of spawning (it then does not manage their lifetimes).
//! SIGTERM/ctrl-c drains clients, SIGTERMs every spawned shard, waits for
//! them, and exits 0 — the whole process tree ends with the router.

use m3d_serve::server::install_signal_handlers;
use m3d_serve::{Router, RouterConfig};

fn parse_args(argv: &[String]) -> Result<(RouterConfig, Option<String>), String> {
    let mut cfg = RouterConfig::default();
    let mut port_file = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut flag_value = |name: &str| -> Result<Option<String>, String> {
            if let Some(v) = a.strip_prefix(&format!("{name}=")) {
                return Ok(Some(v.to_owned()));
            }
            if a == name {
                return match it.next() {
                    Some(v) => Ok(Some(v.clone())),
                    None => Err(format!("{name} requires a value")),
                };
            }
            Ok(None)
        };
        if a == "--quick" {
            cfg.quick = true;
        } else if let Some(v) = flag_value("--addr")? {
            cfg.addr = v;
        } else if let Some(v) = flag_value("--port-file")? {
            port_file = Some(v);
        } else if let Some(v) = flag_value("--shards")? {
            cfg.shards = v
                .parse::<usize>()
                .map_err(|_| format!("--shards needs an integer, got `{v}`"))?
                .max(1);
        } else if let Some(v) = flag_value("--connect")? {
            cfg.connect = v
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_owned)
                .collect();
        } else if let Some(v) = flag_value("--jobs")? {
            cfg.jobs = v
                .parse::<usize>()
                .map_err(|_| format!("--jobs needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--workers")? {
            cfg.workers = v
                .parse::<usize>()
                .map_err(|_| format!("--workers needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--queue-cap")? {
            cfg.queue_cap = v
                .parse::<usize>()
                .map_err(|_| format!("--queue-cap needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--slow-ms")? {
            cfg.slow_ms = v
                .parse::<u64>()
                .map_err(|_| format!("--slow-ms needs an integer, got `{v}`"))?;
        } else {
            return Err(format!("unknown flag `{a}`"));
        }
    }
    Ok((cfg, port_file))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, port_file) = match parse_args(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[router] {e}");
            eprintln!(
                "usage: router [--addr HOST:PORT] [--port-file PATH] [--shards N] \
                 [--connect A,B,...] [--quick] [--jobs N] [--workers N] \
                 [--queue-cap N] [--slow-ms N]"
            );
            std::process::exit(2);
        }
    };
    let shards = if cfg.connect.is_empty() {
        cfg.shards
    } else {
        cfg.connect.len()
    };
    install_signal_handlers();
    let router = match Router::bind(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[router] bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = match router.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[router] no local address: {e}");
            router.abort();
            std::process::exit(1);
        }
    };
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{addr}\n")) {
            eprintln!("[router] cannot write port file {path}: {e}");
            router.abort();
            std::process::exit(1);
        }
    }
    eprintln!("[router] listening on {addr} ({shards} shards)");
    router.run();
}
