//! The four workloads: set-up, timed phase, output checks and
//! end-to-end metrics; with tracing, the traced repeat and the per-layer
//! pass.

use crate::gen;
use crate::layers::{self, Metric};
use crate::load::{self, closed_loop, open_loop, Due, Sample};
use crate::procs::{self, Daemon};
use m3d_perfbench::sched::{poisson_times, Rng};
use m3d_perfbench::stats::{median, percentile, tail_percentile};
use m3d_perfbench::text::{fnv1a_hex, mask_wall_clock};
use m3d_serve::Engine;
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Everything a workload needs from the command line and the checkout.
pub struct Env {
    /// Directory holding the `serve` and `repro` binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory for port files, inside the checkout.
    pub run_dir: PathBuf,
    /// Golden outputs (`golden.json`).
    pub golden: m3d_core::report::Json,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What one run reports.
#[derive(Default)]
pub struct Report {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops whose output check failed (or that returned an error).
    pub failed: u64,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<Metric>,
    /// Workload parameters for the stamp.
    pub params: Vec<(&'static str, String)>,
    /// Figures the stamp shows but no metric gates (tails, class medians).
    pub observed: Vec<(&'static str, f64)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        layers::put(&mut self.metrics, name, value, unit);
    }

    fn param(&mut self, key: &'static str, value: impl ToString) {
        self.params.push((key, value.to_string()));
    }

    fn observe(&mut self, key: &'static str, value: f64) {
        self.observed.push((key, value));
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Every serve workload runs in this many rounds, each a fresh daemon's
/// set-up followed by a share of the timed phase, so that set-up and timed
/// samples are spread over the run. Set-up time is the median of the
/// rounds'.
const ROUNDS: usize = 10;
/// `repro-quick` ops per run (one `repro` process each).
const REPRO_OPS: usize = 5;
/// `repro-quick` launches timed before each op (its set-up).
const LAUNCHES: usize = 12;
/// Untraced and traced `repro-quick` op pairs in the traced run.
const TRACE_PAIRS: usize = 2;
/// Hit pool of `serve-hit` and `serve-mixed`.
const HIT_POOL: usize = 64;
/// `router-fanout` request lines and points per line.
const FANOUT_LINES: usize = 16;
const FANOUT_WIDTH: usize = 16;
/// `serve-mixed` offered load, requests per second over two connections.
const MIXED_RATE: f64 = 300.0;
/// Timed requests per round before a closed loop's peak RSS is read. The
/// daemon keeps every request's spans in its never-drained `m3d_obs`
/// trace buffer (about 94 bytes a request), so a reading at the end of a
/// round would follow throughput rather than memory use.
const RSS_AT: usize = 20_000;
/// Highest tail percentile reported in the stamp (see `tail_percentile`).
const TAIL_WANTED: f64 = 99.0;

/// The `repro-quick` registry selection.
pub const REPRO_NAMES: [&str; 16] = [
    "fig6",
    "fig7",
    "ablations",
    "fig8",
    "section5",
    "table11",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig2",
    "fig5",
];

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn is_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// Run `lines` once each on one connection (the warm pass).
pub(crate) fn warm(addr: &str, lines: &[String]) -> Result<Vec<String>, String> {
    let mut c = m3d_serve::Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    lines.iter().map(|l| load::call(&mut c, l, false)).collect()
}

/// One round of a serve workload: a fresh daemon's set-up, then its share
/// of the timed phase.
struct Round {
    setup_s: f64,
    /// Replies of the warm pass, one per warm line.
    warm_replies: Vec<String>,
    samples: Vec<Sample>,
    cpu_s: f64,
    rss_mb: f64,
}

/// Run [`ROUNDS`] rounds. Each spawns a daemon and warms it with `lines`
/// (every one a miss), which is the round's set-up; then `timed` runs the
/// round's share of the timed phase and reads the daemon's peak RSS. Every
/// daemon but the last is stopped; the last is returned for the traced
/// repeat.
fn rounds(
    env: &Env,
    label: &str,
    args: &[&str],
    shards: usize,
    lines: &[String],
    mut timed: impl FnMut(&Daemon, usize) -> Result<(Vec<Sample>, f64), String>,
) -> Result<(Vec<Round>, Daemon), String> {
    let serve = procs::program(&env.bin_dir, "serve")?;
    let mut out = Vec::new();
    let mut last = None;
    for k in 0..ROUNDS {
        let t = Instant::now();
        let daemon = Daemon::spawn(&serve, &env.run_dir, label, args, shards)?;
        let warm_replies = warm(&daemon.addr, lines)?;
        let setup_s = t.elapsed().as_secs_f64();
        let cpu0 = daemon.cpu_s();
        let (samples, rss_mb) = timed(&daemon, k)?;
        out.push(Round {
            setup_s,
            warm_replies,
            samples,
            cpu_s: daemon.cpu_s() - cpu0,
            rss_mb,
        });
        if k + 1 < ROUNDS {
            daemon.stop()?;
        } else {
            last = Some(daemon);
        }
    }
    Ok((out, last.expect("at least one round")))
}

/// A round's closed loop: [`RSS_AT`] requests (fewer if the share ends
/// first), the daemon's peak RSS, then the rest of the share.
fn closed_round(
    d: &Daemon,
    lines: &[String],
    order: &[usize],
    share: f64,
) -> Result<(Vec<Sample>, f64), String> {
    let t = Instant::now();
    let mut samples = closed_loop(&d.addr, lines, order, share, RSS_AT, false)?;
    let rss = d.peak_rss_mb();
    let rest = (share - t.elapsed().as_secs_f64()).max(0.0);
    samples.extend(closed_loop(&d.addr, lines, order, rest, usize::MAX, false)?);
    Ok((samples, rss))
}

/// Every timed sample's latency, sorted.
fn latencies<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    sorted(samples.map(|s| s.us).collect())
}

/// The end-to-end metrics of a serve workload, plus its tail latency in
/// the stamp.
fn serve_metrics(rep: &mut Report, rs: &[Round]) {
    let median_of = |f: fn(&Round) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    rep.put("setup_s", median_of(|r| r.setup_s), "s");
    rep.put("peak_rss_mb", median_of(|r| r.rss_mb), "MB");
    let n: usize = rs.iter().map(|r| r.samples.len()).sum();
    rep.put(
        "cpu_ms_per_op",
        rs.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3 / n as f64,
        "ms",
    );
    let us = latencies(rs.iter().flat_map(|r| &r.samples));
    rep.put("latency_ms", percentile(&us, 50.0) / 1e3, "ms");
    let p = tail_percentile(us.len(), TAIL_WANTED);
    rep.observe("tail_percentile", p);
    rep.observe("latency_tail_ms", percentile(&us, p) / 1e3);
}

/// `trace.overhead_pct`: the traced median latency over the untraced one.
fn overhead(rs: &[Round], traced: &[Sample]) -> Metric {
    let base = percentile(&latencies(rs.iter().flat_map(|r| &r.samples)), 50.0);
    let p50 = percentile(&latencies(traced.iter()), 50.0);
    (
        "trace.overhead_pct".to_owned(),
        (p50 / base - 1.0) * 100.0,
        "%",
    )
}

/// Check replies against the in-process engine answering the same lines.
fn check_against_engine(engine: &Engine, lines: &[String], replies: &[String]) -> Vec<bool> {
    lines
        .iter()
        .zip(replies)
        .map(|(l, r)| is_ok(r) && *r == engine.answer_line(l))
        .collect()
}

/// The first `n` reply lines of `samples` (codec probe input).
fn reply_texts(samples: &[Sample], n: usize) -> Vec<String> {
    samples.iter().take(n).map(|s| s.reply.clone()).collect()
}

fn engine() -> Result<Engine, String> {
    Engine::new(true, 2).map_err(|e| format!("engine: {e}"))
}

/// Every timed reply of a closed loop must equal its round's warm-pass
/// reply to the same line.
fn check_closed(rep: &mut Report, rs: &[Round]) {
    for r in rs {
        for s in &r.samples {
            rep.check(s.reply == r.warm_replies[s.line]);
        }
    }
}

/// `serve-hit`: one daemon, one connection, closed loop over a warmed
/// pool of single-point `sim` requests.
pub fn serve_hit(env: &Env) -> Result<Report, String> {
    let mut rep = Report::default();
    let lines = gen::sim_pool(env.seed, 1, 1, HIT_POOL);
    rep.param("pool", HIT_POOL);
    rep.param("connections", 1);
    rep.param("rounds", ROUNDS);
    let mut order: Vec<usize> = (0..lines.len()).collect();
    Rng::new(env.seed, 6).shuffle(&mut order);
    let share = env.seconds / ROUNDS as f64;
    let (rs, d) = rounds(env, "hit", &[], 1, &lines, |d, _| {
        closed_round(d, &lines, &order, share)
    })?;
    serve_metrics(&mut rep, &rs);
    check_closed(&mut rep, &rs);

    let mut layer = Vec::new();
    if env.trace {
        m3d_obs::enable();
        let traced = closed_loop(&d.addr, &lines, &order, share, usize::MAX, true)?;
        let warm_replies = &rs[ROUNDS - 1].warm_replies;
        for s in &traced {
            rep.check(s.reply == warm_replies[s.line]);
        }
        layer.push(overhead(&rs, &traced));
        let p50 = percentile(&latencies(traced.iter()), 50.0);
        layer.extend(layers::server_metrics(&d.addr, p50)?);
        layers::cache_ratio(&mut layer, std::slice::from_ref(&d.addr))?;
    }
    d.stop()?;
    if env.trace {
        registry_pass(env, &mut rep, &mut layer)?;
    }

    let eng = engine()?;
    for r in &rs {
        for ok in check_against_engine(&eng, &lines, &r.warm_replies) {
            rep.check(ok);
        }
    }
    if env.trace {
        let replies = reply_texts(&rs[0].samples, lines.len());
        finish_trace(env, &mut rep, layer, &eng, &lines, &replies)?;
    }
    Ok(rep)
}

/// One request of the `serve-mixed` schedule.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    Hit,
    Miss,
    Plan,
}

/// The `serve-mixed` schedule: per connection, the due sends; plus every
/// request line (unique ids), its due time and its class.
struct Mixed {
    lines: Vec<String>,
    at_s: Vec<f64>,
    ids: Vec<i64>,
    class: Vec<Class>,
    per_conn: [Vec<Due>; 2],
}

fn reid(line: &str, id: i64) -> String {
    let rest = line
        .strip_prefix("{\"id\":")
        .and_then(|r| r.split_once(','))
        .map_or(line, |(_, r)| r);
    format!("{{\"id\":{id},{rest}")
}

/// Build the seeded open-loop schedule: [`MIXED_RATE`] × `seconds`
/// Poisson arrivals; of them, 4 % are plans, 5 % are miss pairs (so about
/// a tenth of requests miss) and the rest are pool hits.
fn mixed_schedule(seed: u64, stream: u64, pool: &[String], seconds: f64) -> Mixed {
    let mut rng = Rng::new(seed, stream);
    let times = poisson_times(&mut rng, (MIXED_RATE * seconds).round() as usize, seconds);
    let n = times.len();
    let n_plans = (n / 25).max(3);
    let n_pairs = n * 5 / 100;
    let mut kinds: Vec<Class> = (0..n)
        .map(|i| match i {
            i if i < n_plans => Class::Plan,
            i if i < n_plans + n_pairs => Class::Miss,
            _ => Class::Hit,
        })
        .collect();
    rng.shuffle(&mut kinds);
    let plans = gen::plans(seed, stream + 100, 0, n_plans);
    let pairs = gen::miss_pairs(seed ^ stream, 0, n_pairs);
    let (mut next_plan, mut next_pair) = (0, 0);
    let mut m = Mixed {
        lines: Vec::new(),
        at_s: Vec::new(),
        ids: Vec::new(),
        class: Vec::new(),
        per_conn: [Vec::new(), Vec::new()],
    };
    let push = |m: &mut Mixed, conn: usize, at_s: f64, line: &str, class: Class| {
        let id = 100_000 + m.lines.len() as i64;
        m.per_conn[conn].push(Due {
            at_s,
            line: m.lines.len(),
        });
        m.lines.push(reid(line, id));
        m.at_s.push(at_s);
        m.ids.push(id);
        m.class.push(class);
    };
    for (i, (&at_s, kind)) in times.iter().zip(&kinds).enumerate() {
        let conn = i % 2;
        match kind {
            Class::Hit => push(&mut m, conn, at_s, &pool[rng.below(pool.len())], Class::Hit),
            Class::Plan => {
                push(&mut m, conn, at_s, &plans[next_plan], Class::Plan);
                next_plan += 1;
            }
            Class::Miss => {
                for l in &pairs[next_pair] {
                    push(&mut m, conn, at_s, l, Class::Miss);
                }
                next_pair += 1;
            }
        }
    }
    m
}

/// Run the part of the schedule due in `[lo, hi)` seconds as one open
/// loop starting now; returns the samples and the generator lag.
fn run_mixed(
    addr: &str,
    m: &Mixed,
    lo: f64,
    hi: f64,
    traced: bool,
) -> Result<(Vec<Sample>, Vec<f64>), String> {
    let scheds: Vec<Vec<Due>> = m
        .per_conn
        .iter()
        .map(|c| {
            c.iter()
                .filter(|d| (lo..hi).contains(&d.at_s))
                .map(|d| Due {
                    at_s: d.at_s - lo,
                    line: d.line,
                })
                .collect()
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = scheds
            .iter()
            .map(|sched| s.spawn(move || open_loop(addr, &m.lines, &m.ids, sched, start, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect::<Vec<_>>()
    });
    let (mut samples, mut lag) = (Vec::new(), Vec::new());
    for r in results {
        let r = r?;
        samples.extend(r.samples);
        lag.extend(r.lag_us);
    }
    Ok((samples, lag))
}

/// `serve-mixed`: one daemon (2 workers), open loop over 2 connections.
pub fn serve_mixed(env: &Env) -> Result<Report, String> {
    let mut rep = Report::default();
    let pool = gen::sim_pool(env.seed, 1, 1, HIT_POOL);
    // The warm pass ends with one plan: the daemon builds its design space
    // and thermal stack models on the first plan it gets, which would
    // otherwise stall the timed phase.
    let warm_lines: Vec<String> = pool
        .iter()
        .cloned()
        .chain(gen::plans(env.seed, 2, 10_001, 1))
        .collect();
    rep.param("pool", HIT_POOL);
    rep.param("rate_per_s", MIXED_RATE);
    rep.param("connections", 2);
    rep.param("rounds", ROUNDS);
    let m = mixed_schedule(env.seed, 7, &pool, env.seconds);
    rep.param("requests", m.lines.len());
    let share = env.seconds / ROUNDS as f64;
    let mut lag = Vec::new();
    let (rs, d) = rounds(env, "mixed", &[], 1, &warm_lines, |d, k| {
        let lo = k as f64 * share;
        let (samples, l) = run_mixed(&d.addr, &m, lo, lo + share, false)?;
        lag.extend(l);
        // Every round answers the same number of requests.
        Ok((samples, d.peak_rss_mb()))
    })?;
    serve_metrics(&mut rep, &rs);
    rep.observe("generator_lag_us_p50", median(&lag));
    rep.observe("generator_lag_us_max", lag.iter().copied().fold(0.0, f64::max));
    let samples: Vec<&Sample> = rs.iter().flat_map(|r| &r.samples).collect();
    let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
    for s in &samples {
        by_class.entry(m.class[s.line]).or_default().push(s.us);
    }
    for (name, c) in [
        ("hit_latency_ms", Class::Hit),
        ("miss_latency_ms", Class::Miss),
        ("plan_latency_ms", Class::Plan),
    ] {
        rep.observe(name, median(by_class.get(&c).map_or(&[][..], |v| v)) / 1e3);
    }

    let mut layer = Vec::new();
    let mut traced = None;
    if env.trace {
        m3d_obs::enable();
        // Fresh misses and plans, so the traced repeat is as cold as a round.
        let t = mixed_schedule(env.seed, 8, &pool, share);
        let (ts, _) = run_mixed(&d.addr, &t, 0.0, share, true)?;
        layer.push(overhead(&rs, &ts));
        let p50 = percentile(&latencies(ts.iter()), 50.0);
        layer.extend(layers::server_metrics(&d.addr, p50)?);
        layers::cache_ratio(&mut layer, std::slice::from_ref(&d.addr))?;
        traced = Some((t, ts));
    }
    d.stop()?;
    if env.trace {
        registry_pass(env, &mut rep, &mut layer)?;
    }

    let eng = engine()?;
    for r in &rs {
        for ok in check_against_engine(&eng, &warm_lines, &r.warm_replies) {
            rep.check(ok);
        }
    }
    // Every scheduled request must have been answered, correctly.
    let mut expect: HashMap<String, String> = HashMap::new();
    let mut check_sched = |rep: &mut Report, sched: &Mixed, got: &[&Sample]| {
        for _ in got.len()..sched.lines.len() {
            rep.check(false);
        }
        for s in got {
            let line = &sched.lines[s.line];
            let want = expect
                .entry(line.clone())
                .or_insert_with(|| eng.answer_line(line));
            let ok = is_ok(&s.reply) && s.reply == *want;
            if !ok && rep.failed < 3 {
                eprintln!("[perfbench] serve-mixed reply mismatch:\n  got  {}\n  want {want}", s.reply);
            }
            rep.check(ok);
        }
    };
    check_sched(&mut rep, &m, &samples);
    if let Some((t, ts)) = &traced {
        check_sched(&mut rep, t, &ts.iter().collect::<Vec<_>>());
    }
    if env.trace {
        let probe: Vec<String> = m.lines.iter().take(200).cloned().collect();
        let replies = reply_texts(&rs[0].samples, probe.len());
        finish_trace(env, &mut rep, layer, &eng, &probe, &replies)?;
    }
    Ok(rep)
}

/// `router-fanout`: `serve --shards 2`, one connection, closed loop of
/// 16-point `sim` hits.
pub fn router_fanout(env: &Env) -> Result<Report, String> {
    let mut rep = Report::default();
    let lines = gen::fanout_pool(env.seed, 1, FANOUT_LINES, FANOUT_WIDTH);
    rep.param("lines", FANOUT_LINES);
    rep.param("points_per_line", FANOUT_WIDTH);
    rep.param("shards", 2);
    rep.param("rounds", ROUNDS);
    let mut order: Vec<usize> = (0..lines.len()).collect();
    Rng::new(env.seed, 6).shuffle(&mut order);
    let share = env.seconds / ROUNDS as f64;
    let (rs, d) = rounds(env, "router", &["--shards", "2"], 2, &lines, |d, _| {
        closed_round(d, &lines, &order, share)
    })?;
    serve_metrics(&mut rep, &rs);
    check_closed(&mut rep, &rs);

    // The reference: a single plain daemon answering the same lines.
    let serve = procs::program(&env.bin_dir, "serve")?;
    let plain = Daemon::spawn(&serve, &env.run_dir, "plain", &[], 1)?;
    let plain_replies = warm(&plain.addr, &lines)?;
    for r in &rs {
        for (a, b) in r.warm_replies.iter().zip(&plain_replies) {
            rep.check(is_ok(a) && a == b);
        }
    }

    let mut layer = Vec::new();
    if env.trace {
        m3d_obs::enable();
        let (router, traced) = layers::router_metrics(&d, &plain, &lines, &order, share)?;
        let warm_replies = &rs[ROUNDS - 1].warm_replies;
        for s in &traced {
            rep.check(s.reply == warm_replies[s.line]);
        }
        layer.push(overhead(&rs, &traced));
        layer.extend(router);
        layers::cache_ratio(&mut layer, &layers::shard_addrs(&d.addr)?)?;
    }
    d.stop()?;
    plain.stop()?;
    if env.trace {
        registry_pass(env, &mut rep, &mut layer)?;
        let eng = engine()?;
        let replies = reply_texts(&rs[0].samples, lines.len());
        finish_trace(env, &mut rep, layer, &eng, &lines, &replies)?;
    }
    Ok(rep)
}

/// One `repro --quick --jobs 2` process: stdout, wall seconds, CPU
/// seconds and peak RSS (MB), its RSS polled while it runs.
fn run_repro(env: &Env, args: &[&str]) -> Result<(String, f64, f64, f64), String> {
    let repro = procs::program(&env.bin_dir, "repro")?;
    let cpu0 = procs::children_cpu_s();
    let t0 = Instant::now();
    let mut child = Command::new(repro)
        .args(["--quick", "--jobs", "2"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn repro: {e}"))?;
    let mut out = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        out.read_to_string(&mut s).map(|_| s)
    });
    let pid = child.id();
    let mut rss = 0.0f64;
    let status = loop {
        rss = rss.max(procs::peak_rss_mb(pid));
        if let Some(s) = child.try_wait().map_err(|e| format!("wait repro: {e}"))? {
            break s;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let wall = t0.elapsed().as_secs_f64();
    let stdout = reader
        .join()
        .expect("stdout reader panicked")
        .map_err(|e| format!("read repro stdout: {e}"))?;
    if !status.success() {
        return Err(format!("repro exited with {status}"));
    }
    let cpu1 = procs::children_cpu_s();
    Ok((stdout, wall, cpu1 - cpu0, rss))
}

/// Launch `repro --quick --jobs 2 table1`, the cheapest registry entry,
/// and wait for it: process start, context build and the first
/// experiment. Returns the masked stdout and the wall seconds.
fn launch(repro: &Path) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let out = Command::new(repro)
        .args(["--quick", "--jobs", "2", "table1"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("spawn repro: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!("repro table1 exited with {}", out.status));
    }
    Ok((mask_wall_clock(&String::from_utf8_lossy(&out.stdout)), wall))
}

/// Golden masked-stdout hash and counters for this machine's nproc.
fn golden_for(env: &Env, nproc: usize) -> Option<&m3d_core::report::Json> {
    env.golden.get("repro-quick")?.get(&nproc.to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `repro-quick`: the researcher's batch, [`REPRO_OPS`] ops per run. Its
/// set-up is process launch: before each op, [`LAUNCHES`] launches of
/// `repro` on its cheapest entry are timed, and `setup_s` is their median.
/// The traced run instead alternates [`TRACE_PAIRS`] untraced and traced
/// ops, then measures the layers.
pub fn repro_quick(env: &Env) -> Result<Report, String> {
    let mut rep = Report::default();
    rep.param("experiments", REPRO_NAMES.join(","));
    rep.param("jobs", 2);
    let golden = golden_for(env, nproc());
    let want_hash = match golden.and_then(|g| g.get("stdout_fnv1a")) {
        Some(m3d_core::report::Json::Str(h)) => Some(h.clone()),
        _ => None,
    };
    // One op: `repro` over the selection in a seeded order, which must not
    // change the output.
    let op = |rep: &mut Report, k: usize, traced: bool| {
        let mut names: Vec<&str> = REPRO_NAMES.to_vec();
        Rng::new(env.seed, 9 + k as u64).shuffle(&mut names);
        if traced {
            // `--metrics` turns the program's `m3d_obs` collection on.
            names.insert(0, "--metrics");
        }
        let (stdout, wall, cpu_s, rss) = run_repro(env, &names)?;
        let hash = fnv1a_hex(mask_wall_clock(&stdout).as_bytes());
        if want_hash.as_deref() != Some(hash.as_str()) {
            eprintln!(
                "[perfbench] repro-quick masked stdout hash {hash} does not match the golden for nproc {}",
                nproc()
            );
        }
        rep.check(want_hash.as_deref() == Some(hash.as_str()));
        Ok::<_, String>((wall, cpu_s, rss))
    };

    if env.trace {
        rep.param("trace_pairs", TRACE_PAIRS);
        let (mut plain, mut traced) = (0.0, 0.0);
        for k in 0..TRACE_PAIRS {
            plain += op(&mut rep, 2 * k, false)?.0;
            traced += op(&mut rep, 2 * k + 1, true)?.0;
        }
        let mut layer = vec![(
            "trace.overhead_pct".to_owned(),
            (traced / plain - 1.0) * 100.0,
            "%",
        )];
        registry_pass(env, &mut rep, &mut layer)?;
        let eng = engine()?;
        let lines = gen::sim_pool(env.seed, 1, 1, HIT_POOL);
        let replies: Vec<String> = lines.iter().map(|l| eng.answer_line(l)).collect();
        finish_trace(env, &mut rep, layer, &eng, &lines, &replies)?;
        return Ok(rep);
    }

    rep.param("ops", REPRO_OPS);
    rep.param("launches", REPRO_OPS * LAUNCHES);
    let repro = procs::program(&env.bin_dir, "repro")?;
    let mut first_launch: Option<String> = None;
    let (mut setup, mut walls, mut cpus, mut rsss) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..REPRO_OPS {
        for _ in 0..LAUNCHES {
            let (out, wall) = launch(&repro)?;
            // Every launch prints the same table.
            rep.check(*first_launch.get_or_insert_with(|| out.clone()) == out);
            setup.push(wall);
        }
        let (wall, cpu_s, rss) = op(&mut rep, k, false)?;
        walls.push(wall);
        cpus.push(cpu_s);
        rsss.push(rss);
    }
    rep.put("setup_s", median(&setup), "s");
    rep.put("latency_ms", median(&walls) * 1e3, "ms");
    rep.put("cpu_ms_per_op", median(&cpus) * 1e3, "ms");
    rep.put("peak_rss_mb", median(&rsss), "MB");
    Ok(rep)
}

/// The traced run's in-process registry pass (uarch, thermal, power, sram,
/// planner and registry metrics). Runs before any other in-process
/// simulation, so process-wide caches start cold as in `repro`.
fn registry_pass(env: &Env, rep: &mut Report, layer: &mut Vec<Metric>) -> Result<(), String> {
    let names: Vec<&str> = REPRO_NAMES.to_vec();
    let pass = layers::registry(layer, &names, golden_for(env, nproc()))?;
    rep.check(pass.ok);
    layers::merge_missing(
        layer,
        vec![(
            "uarch.cache_hit_ratio".to_owned(),
            pass.cache_hit_ratio,
            "ratio",
        )],
    );
    Ok(())
}

/// Finish a traced run: the router probe (unless the workload measured
/// the router itself) and the in-process search, codec and engine probes
/// fill every per-layer metric the workload did not, and become the
/// report's metrics.
fn finish_trace(
    env: &Env,
    rep: &mut Report,
    mut layer: Vec<Metric>,
    eng: &Engine,
    lines: &[String],
    replies: &[String],
) -> Result<(), String> {
    if !layer
        .iter()
        .any(|(n, _, _)| n == "serve.router.overhead_us")
    {
        let probe = layers::router_probe(env)?;
        layers::merge_missing(&mut layer, probe);
    }
    layers::common(env, rep, layer, eng, lines, replies)
}
