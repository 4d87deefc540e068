//! `loadgen` — closed-loop load generator for the `serve` daemon.
//!
//! # Usage
//!
//! ```text
//! loadgen --addr HOST:PORT [--conns N] [--requests N] [--seeds N]
//!         [--warmup N] [--measure N] [--telemetry] [--smoke]
//! ```
//!
//! Opens `--conns` connections; each sends `--requests` single-point `sim`
//! queries back-to-back (closed loop: the next request leaves only after
//! the previous response lands). Points are drawn by the vendored `rand`
//! xoshiro generator from a small (app × design × seed) pool, so the
//! server's memo cache warms quickly — which is the point: the probe
//! measures warm-path throughput. `--conns` well above the daemon's
//! `--workers` is the interesting setting (and what `ci.sh` runs, 64
//! connections against 2 workers): the epoll event loop multiplexes all
//! of them on one thread, so every connection must still get every
//! answer. Prints a single-line JSON summary to
//! stdout:
//!
//! ```text
//! {"conns":4,"requests":200,"errors":0,"wall_s":...,"rps":...,
//!  "p50_us":...,"p95_us":...,"p99_us":...,"max_us":...}
//! ```
//!
//! `--telemetry` additionally queries the server's `telemetry` method
//! after the run and reports the *server-side* `sim` latency percentiles
//! (60 s window) next to the client-side ones — `server_p50_us`,
//! `server_p95_us`, `server_p99_us` in the stdout JSON plus a
//! side-by-side table on stderr. Client-side numbers include the wire
//! round trip; server-side ones start at request receipt, so the gap is
//! the network + parse cost.
//!
//! `--smoke` sends one `planner`, one `sim`, one `stats`, and two
//! `telemetry` queries (JSON — checking the rolling `sim` p99 is present
//! — and `format:"text"`, checking every exposition line parses) on one
//! connection and exits non-zero unless all answer `"ok":true` — a
//! cheap CI health check.
//!
//! `--plan-smoke` sends one small streaming `plan` query (two designs, one
//! application, a five-point supply grid, chunked so several partial lines
//! must arrive) and exits non-zero unless at least one partial line and an
//! `"ok":true` final line with a non-empty frontier come back.

use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::protocol::Method;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const APPS: [&str; 6] = ["Gcc", "Mcf", "Bzip2", "Hmmer", "Sjeng", "Lbm"];
const DESIGNS: [&str; 3] = ["Base", "M3D-Het", "M3D-HetAgg"];

struct Args {
    addr: String,
    conns: usize,
    requests: usize,
    seeds: u64,
    warmup: u64,
    measure: u64,
    smoke: bool,
    plan_smoke: bool,
    telemetry: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: String::new(),
        conns: 4,
        requests: 50,
        seeds: 4,
        warmup: 3_000,
        measure: 2_000,
        smoke: false,
        plan_smoke: false,
        telemetry: false,
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
        let parse_n = |v: String, name: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} needs an integer, got `{v}`"))
        };
        if a == "--smoke" {
            args.smoke = true;
        } else if a == "--plan-smoke" {
            args.plan_smoke = true;
        } else if a == "--telemetry" {
            args.telemetry = true;
        } else if let Some(v) = flag_value("--addr")? {
            args.addr = v;
        } else if let Some(v) = flag_value("--conns")? {
            args.conns = parse_n(v, "--conns")?.max(1) as usize;
        } else if let Some(v) = flag_value("--requests")? {
            args.requests = parse_n(v, "--requests")? as usize;
        } else if let Some(v) = flag_value("--seeds")? {
            args.seeds = parse_n(v, "--seeds")?.max(1);
        } else if let Some(v) = flag_value("--warmup")? {
            args.warmup = parse_n(v, "--warmup")?;
        } else if let Some(v) = flag_value("--measure")? {
            args.measure = parse_n(v, "--measure")?.max(1);
        } else {
            return Err(format!("unknown flag `{a}`"));
        }
    }
    if args.addr.is_empty() {
        return Err("--addr is required".to_owned());
    }
    Ok(args)
}

fn sim_params(rng: &mut StdRng, args: &Args) -> Json {
    Json::obj([
        ("app", Json::from(APPS[rng.gen_range(0..APPS.len())])),
        (
            "design",
            Json::from(DESIGNS[rng.gen_range(0..DESIGNS.len())]),
        ),
        ("seed", Json::from(rng.gen_range(0..args.seeds))),
        ("warmup", Json::from(args.warmup)),
        ("measure", Json::from(args.measure)),
    ])
}

/// Check the telemetry result carries a rolling `sim` p99 — the probe
/// that the windowed histograms are live, not just present.
fn telemetry_has_sim_p99(result: &Json) -> bool {
    result
        .get("methods")
        .and_then(|m| m.get("sim"))
        .and_then(|s| s.get("latency_us"))
        .and_then(|l| l.get("10s"))
        .and_then(|w| w.get("p99"))
        .is_some()
}

/// Validate the Prometheus-style exposition: every non-comment line must
/// be `name{labels} value` (or `name value`) with a float-parsable value
/// and balanced label braces.
fn telemetry_text_parses(result: &Json) -> bool {
    let Some(Json::Str(text)) = result.get("text") else {
        return false;
    };
    if text.is_empty() {
        return false;
    }
    text.lines().all(|line| {
        if line.starts_with('#') || line.is_empty() {
            return true;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            return false;
        };
        if name.is_empty() || value.parse::<f64>().is_err() {
            return false;
        }
        match name.find('{') {
            Some(0) => false,
            Some(_) => name.ends_with('}'),
            None => true,
        }
    })
}

fn smoke(args: &Args) -> i32 {
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[loadgen] connect {}: {e}", args.addr);
            return 1;
        }
    };
    let mut rng = StdRng::seed_from_u64(0x10AD);
    type Check = fn(&Json) -> bool;
    let always_ok: Check = |_| true;
    let queries: [(i64, Method, Json, Check, &str); 5] = [
        (1, Method::Planner, Json::Obj(Vec::new()), always_ok, ""),
        (2, Method::Sim, sim_params(&mut rng, args), always_ok, ""),
        (3, Method::Stats, Json::Obj(Vec::new()), always_ok, ""),
        (
            4,
            Method::Telemetry,
            Json::Obj(Vec::new()),
            telemetry_has_sim_p99,
            "no rolling sim p99 in telemetry",
        ),
        (
            5,
            Method::Telemetry,
            Json::obj([("format", Json::from("text"))]),
            telemetry_text_parses,
            "telemetry text exposition did not parse",
        ),
    ];
    for (id, method, params, check, complaint) in queries {
        match client.call(id, method, params, None) {
            Ok(reply) => match reply.result() {
                Some(result) => {
                    if !check(result) {
                        eprintln!("[loadgen] {}: {complaint}", method.name());
                        return 1;
                    }
                    eprintln!("[loadgen] {} ok", method.name());
                }
                None => {
                    eprintln!("[loadgen] {} failed: {}", method.name(), reply.raw);
                    return 1;
                }
            },
            Err(e) => {
                eprintln!("[loadgen] {}: {e}", method.name());
                return 1;
            }
        }
    }
    0
}

/// One small streaming `plan` query: chunked at 4 over 10 candidates so
/// the server must emit several partial lines before the final frontier.
fn plan_smoke(args: &Args) -> i32 {
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[loadgen] connect {}: {e}", args.addr);
            return 1;
        }
    };
    let params = Json::obj([
        (
            "designs",
            Json::Arr(vec![Json::from("Base"), Json::from("M3D-Het")]),
        ),
        ("apps", Json::Arr(vec![Json::from("Gcc")])),
        (
            "vdds",
            Json::Arr([0.7, 0.75, 0.8, 0.85, 0.9].map(Json::from).to_vec()),
        ),
        ("warmup", Json::from(500u64)),
        ("measure", Json::from(800u64)),
        ("chunk", Json::from(4u64)),
    ]);
    let stream = match client.plan(1, params, None) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[loadgen] plan io error: {e}");
            return 1;
        }
    };
    let mut partials = 0usize;
    let mut last = None;
    for item in stream {
        match item {
            Ok(resp) if resp.partial => partials += 1,
            Ok(resp) => last = Some(resp),
            Err(e) => {
                eprintln!("[loadgen] plan: {e}");
                return 1;
            }
        }
    }
    let Some(last) = last else {
        eprintln!("[loadgen] plan failed: no terminating response");
        return 1;
    };
    let final_ok = last.result().is_some_and(|r| {
        r.get("frontier")
            .is_some_and(|f| matches!(f, Json::Arr(a) if !a.is_empty()))
    });
    if partials == 0 || !final_ok {
        eprintln!(
            "[loadgen] plan failed: {partials} partial lines, final `{}`",
            last.raw
        );
        return 1;
    }
    eprintln!("[loadgen] plan ok ({partials} partial lines)");
    0
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[loadgen] {e}");
            eprintln!(
                "usage: loadgen --addr HOST:PORT [--conns N] [--requests N] \
                 [--seeds N] [--warmup N] [--measure N] [--telemetry] [--smoke] \
                 [--plan-smoke]"
            );
            std::process::exit(2);
        }
    };
    if args.smoke {
        std::process::exit(smoke(&args));
    }
    if args.plan_smoke {
        std::process::exit(plan_smoke(&args));
    }
    let t0 = Instant::now();
    let mut lat_us: Vec<f64> = Vec::new();
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn in 0..args.conns {
            let args = &args;
            handles.push(scope.spawn(move || {
                let mut lat = Vec::with_capacity(args.requests);
                let mut errs = 0u64;
                let mut client = match Client::connect(&args.addr) {
                    Ok(c) => c,
                    Err(_) => return (lat, args.requests as u64),
                };
                let mut rng = StdRng::seed_from_u64(0x10AD_0000 + conn as u64);
                for k in 0..args.requests {
                    let t = Instant::now();
                    match client.sim(k as i64, sim_params(&mut rng, args)) {
                        Ok(reply) if reply.is_ok() => {
                            lat.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        _ => errs += 1,
                    }
                }
                (lat, errs)
            }));
        }
        for h in handles {
            let (lat, errs) = h.join().expect("loadgen connection thread");
            lat_us.extend(lat);
            errors += errs;
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let done = lat_us.len() as u64;
    let mut fields = vec![
        ("conns".to_owned(), Json::from(args.conns)),
        ("requests".to_owned(), Json::from(done)),
        ("errors".to_owned(), Json::from(errors)),
        ("wall_s".to_owned(), Json::from(wall_s)),
        (
            "rps".to_owned(),
            Json::from(if wall_s > 0.0 {
                done as f64 / wall_s
            } else {
                0.0
            }),
        ),
        ("p50_us".to_owned(), Json::from(percentile(&lat_us, 0.50))),
        ("p95_us".to_owned(), Json::from(percentile(&lat_us, 0.95))),
        ("p99_us".to_owned(), Json::from(percentile(&lat_us, 0.99))),
        (
            "max_us".to_owned(),
            Json::from(lat_us.last().copied().unwrap_or(0.0)),
        ),
    ];
    if args.telemetry {
        match server_sim_percentiles(&args) {
            Ok(server) => {
                eprintln!("[loadgen] latency, client-side vs server-side (sim, 60s window):");
                eprintln!(
                    "[loadgen]   {:>6}  {:>12}  {:>12}",
                    "pct", "client_us", "server_us"
                );
                for (label, p, s) in [
                    ("p50", percentile(&lat_us, 0.50), server[0]),
                    ("p95", percentile(&lat_us, 0.95), server[1]),
                    ("p99", percentile(&lat_us, 0.99), server[2]),
                ] {
                    eprintln!("[loadgen]   {label:>6}  {p:>12.1}  {s:>12.1}");
                }
                fields.push(("server_p50_us".to_owned(), Json::from(server[0])));
                fields.push(("server_p95_us".to_owned(), Json::from(server[1])));
                fields.push(("server_p99_us".to_owned(), Json::from(server[2])));
            }
            Err(e) => {
                eprintln!("[loadgen] telemetry query failed: {e}");
                errors += 1;
            }
        }
    }
    println!("{}", Json::Obj(fields).render_compact());
    if errors > 0 {
        std::process::exit(1);
    }
}

/// Query the server's `telemetry` method and pull the `sim` latency
/// p50/p95/p99 out of the 60 s window.
fn server_sim_percentiles(args: &Args) -> Result<[f64; 3], String> {
    let mut client = Client::connect(&args.addr).map_err(|e| e.to_string())?;
    let reply = client
        .telemetry(9_000_000, Json::Obj(Vec::new()))
        .map_err(|e| e.to_string())?;
    let Some(result) = reply.result() else {
        return Err(reply.raw.clone());
    };
    let window = result
        .get("methods")
        .and_then(|m| m.get("sim"))
        .and_then(|s| s.get("latency_us"))
        .and_then(|l| l.get("60s"))
        .ok_or("no sim 60s latency window in telemetry reply")?;
    let quantile = |key: &str| -> Result<f64, String> {
        match window.get(key) {
            Some(Json::Num(v)) => Ok(*v),
            Some(Json::Int(v)) => Ok(*v as f64),
            other => Err(format!("bad `{key}` in telemetry window: {other:?}")),
        }
    };
    Ok([quantile("p50")?, quantile("p95")?, quantile("p99")?])
}
