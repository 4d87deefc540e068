//! `serve` — the batched design-space query daemon.
//!
//! # Usage
//!
//! ```text
//! serve [--addr HOST:PORT] [--port-file PATH] [--quick] [--jobs N]
//!       [--queue-cap N] [--workers N] [--slow-ms N] [--shards N]
//!       [--oneshot]
//! ```
//!
//! Binds (default `127.0.0.1:0`, an ephemeral port), prints
//! `[serve] listening on HOST:PORT` to stderr, and answers
//! newline-delimited JSON requests (`sim`, `experiment`, `planner`,
//! `plan`, `stats`, `telemetry` — see the `m3d_serve::protocol` rustdoc
//! for the grammar) until SIGTERM or ctrl-c, then drains in-flight work and exits
//! 0. `plan` requests stream partial frontier lines before their final
//! response; in `--oneshot` mode those partials go to stdout exactly as
//! the daemon would put them on the wire.
//!
//! # Flags
//!
//! * `--addr HOST:PORT` — bind address (port 0 = ephemeral).
//! * `--port-file PATH` — write the actual bound `HOST:PORT` to `PATH`
//!   once listening; lets scripts using an ephemeral port find it.
//! * `--quick` — quick registry scale for `experiment` queries.
//! * `--jobs N` — batch-engine lanes and experiment pool size (1..=64).
//! * `--queue-cap N` — admission-queue bound (default 64); a full queue
//!   rejects with a structured `overloaded` error.
//! * `--workers N` — queue-draining worker threads (default 2). This
//!   bounds *compute* concurrency only: connections are multiplexed on
//!   one epoll event loop, so hundreds of clients on 2 workers is a
//!   supported configuration, not an overload: the load tier of the
//!   `serve_probe` block in `BENCH_repro.json` records 128 connections
//!   on 2 workers.
//! * `--slow-ms N` — slow-request log threshold in milliseconds
//!   (default 500; 0 disables). Requests at or over it land in the
//!   `telemetry` method's slow log with a queue/handle span tree.
//! * `--shards N` — with N > 1, run as a shard **router** instead of a
//!   single daemon: spawn N `serve` child processes (each getting this
//!   command's `--quick`/`--jobs`/`--workers`/`--queue-cap`/`--slow-ms`)
//!   and route requests to them by the SimPoint fingerprint (see the
//!   `m3d_serve::router` rustdoc). The bound address, `--port-file`, and
//!   the wire protocol are exactly as in single-daemon mode.
//! * `--oneshot` — no TCP at all: read request lines from stdin, write
//!   response lines to stdout, exit at EOF. Lines are framed, admitted,
//!   guarded and accounted for exactly as on a daemon connection: the
//!   same framing (lossy UTF-8, trailing `\r`s trimmed, blank lines
//!   skipped), the same 256 KiB line cap (a longer line is answered
//!   `oversized` and skipped), the same panic guard (a panicking handler
//!   is answered with kind `panic`). EOF also ends an unterminated last
//!   line, so `printf '{...}' | serve --oneshot` is answered. One process
//!   per query is the honest "cold" baseline: the `perf_baseline` serve
//!   probe's cold tier times it, and perfbench's `serve-hit` workload
//!   times the warm daemon it is compared against.

use m3d_serve::server::{install_signal_handlers, Server, ServerConfig};
use m3d_serve::{Engine, Router, RouterConfig};

struct Args {
    cfg: ServerConfig,
    port_file: Option<String>,
    shards: usize,
    oneshot: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cfg: ServerConfig::default(),
        port_file: None,
        shards: 1,
        oneshot: false,
    };
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
            args.cfg.quick = true;
        } else if a == "--oneshot" {
            args.oneshot = true;
        } else if let Some(v) = flag_value("--addr")? {
            args.cfg.addr = v;
        } else if let Some(v) = flag_value("--port-file")? {
            args.port_file = Some(v);
        } else if let Some(v) = flag_value("--jobs")? {
            args.cfg.jobs = v
                .parse::<usize>()
                .map_err(|_| format!("--jobs needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--queue-cap")? {
            args.cfg.queue_cap = v
                .parse::<usize>()
                .map_err(|_| format!("--queue-cap needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--workers")? {
            args.cfg.workers = v
                .parse::<usize>()
                .map_err(|_| format!("--workers needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--slow-ms")? {
            args.cfg.slow_ms = v
                .parse::<u64>()
                .map_err(|_| format!("--slow-ms needs an integer, got `{v}`"))?;
        } else if let Some(v) = flag_value("--shards")? {
            args.shards = v
                .parse::<usize>()
                .map_err(|_| format!("--shards needs an integer, got `{v}`"))?
                .max(1);
        } else {
            return Err(format!("unknown flag `{a}`"));
        }
    }
    Ok(args)
}

fn oneshot(quick: bool, jobs: usize, slow_ms: u64) -> i32 {
    let engine = match Engine::new(quick, jobs) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("[serve] {e}");
            return 2;
        }
    };
    engine.set_slow_ms(slow_ms);
    match engine.answer_stream(std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(()) => 0,
        // The reader went away: nobody is left to answer.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => 0,
        Err(e) => {
            eprintln!("[serve] {e}");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[serve] {e}");
            eprintln!(
                "usage: serve [--addr HOST:PORT] [--port-file PATH] [--quick] \
                 [--jobs N] [--queue-cap N] [--workers N] [--slow-ms N] \
                 [--shards N] [--oneshot]"
            );
            std::process::exit(2);
        }
    };
    if args.oneshot {
        std::process::exit(oneshot(args.cfg.quick, args.cfg.jobs, args.cfg.slow_ms));
    }
    install_signal_handlers();
    if args.shards > 1 {
        // Router mode: this process fronts `--shards` spawned daemons and
        // owns the client-facing listener; everything else is identical
        // from a client's point of view.
        let router = match Router::bind(RouterConfig {
            addr: args.cfg.addr,
            shards: args.shards,
            quick: args.cfg.quick,
            jobs: args.cfg.jobs,
            workers: args.cfg.workers,
            queue_cap: args.cfg.queue_cap,
            slow_ms: args.cfg.slow_ms,
            ..RouterConfig::default()
        }) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[serve] router bind failed: {e}");
                std::process::exit(1);
            }
        };
        let addr = match router.local_addr() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("[serve] no local address: {e}");
                router.abort();
                std::process::exit(1);
            }
        };
        if let Some(path) = &args.port_file {
            if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
                eprintln!("[serve] cannot write port file {path}: {e}");
                router.abort();
                std::process::exit(1);
            }
        }
        eprintln!(
            "[serve] router listening on {addr} ({} shards)",
            args.shards
        );
        router.run();
        eprintln!("[serve] drained, bye");
        return;
    }
    let server = match Server::bind(args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[serve] bind failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[serve] no local address: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, format!("{addr}\n")) {
            eprintln!("[serve] cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    eprintln!("[serve] listening on {addr}");
    server.run();
    eprintln!("[serve] drained, bye");
}
