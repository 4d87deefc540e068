//! The traced run's per-layer measurements.
//!
//! Spans come from two places: the harness's own `bench`/`client` spans
//! around each call it makes into a layer's public functions, and the
//! program's existing `m3d_obs` spans and counters, read in-process
//! (registry, search, engine, codec) or through a daemon's `stats` and
//! `telemetry` answers (server, router). Nothing here adds spans inside
//! the program.

use crate::gen;
use crate::load::{closed_loop, Sample};
use crate::procs::{self, Daemon};
use crate::workloads::{warm, Env, Report};
use m3d_core::experiments::registry::{run_experiments, select, Ctx};
use m3d_core::experiments::RunScale;
use m3d_core::report::Json;
use m3d_core::search::{run_search, SearchOptions, SearchSpace};
use m3d_perfbench::sched::Rng;
use m3d_perfbench::spans::{layer_ms, self_times, Span};
use m3d_perfbench::stats::median;
use m3d_perfbench::text::{fnv1a_hex, mask_wall_clock};
use m3d_serve::{Client, Engine};
use std::hint::black_box;
use std::time::Instant;

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Set metric `name`, replacing an earlier value.
pub fn put(layer: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    layer.retain(|(n, _, _)| n != name);
    layer.push((name.to_owned(), value, unit));
}

/// Add the metrics of `more` whose names `layer` does not have yet.
pub fn merge_missing(layer: &mut Vec<Metric>, more: Vec<Metric>) {
    for m in more {
        if !layer.iter().any(|(n, _, _)| *n == m.0) {
            layer.push(m);
        }
    }
}

fn ask(addr: &str, method: &str) -> Result<Json, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let line = c
        .call_raw(&gen::admin(1, method))
        .map_err(|e| format!("{method}: {e}"))?;
    let j = Json::parse(&line).map_err(|e| format!("{method} reply: {e}"))?;
    j.get("result")
        .cloned()
        .ok_or_else(|| format!("{method} failed: {line}"))
}

fn num(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::Int(i)) => *i as f64,
        Some(Json::Num(f)) => *f,
        _ => 0.0,
    }
}

/// The `metrics.counters` object of a daemon's `stats` answer.
pub fn counters(addr: &str) -> Result<Json, String> {
    ask(addr, "stats")?
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .cloned()
        .ok_or_else(|| "stats without metrics.counters".to_owned())
}

/// `after[name] - before[name]`.
pub fn delta(before: &Json, after: &Json, name: &str) -> f64 {
    num(after.get(name)) - num(before.get(name))
}

/// Listening addresses of a router's shards (from its `stats` topology).
pub fn shard_addrs(addr: &str) -> Result<Vec<String>, String> {
    let stats = ask(addr, "stats")?;
    let Some(Json::Arr(slices)) = stats.get("topology").and_then(|t| t.get("slices")) else {
        return Err("stats without topology.slices".to_owned());
    };
    Ok(slices
        .iter()
        .filter_map(|s| match s.get("addr") {
            Some(Json::Str(a)) => Some(a.clone()),
            _ => None,
        })
        .collect())
}

/// `uarch.cache_hit_ratio`: memo-cache hits over points evaluated, over
/// the lifetime of the daemons at `addrs`.
pub fn cache_ratio(layer: &mut Vec<Metric>, addrs: &[String]) -> Result<(), String> {
    let (mut hits, mut points) = (0.0, 0.0);
    for a in addrs {
        let c = counters(a)?;
        hits += num(c.get("uarch.batch.cache_hits"));
        points += num(c.get("uarch.batch.points"));
    }
    put(
        layer,
        "uarch.cache_hit_ratio",
        hits / points.max(1.0),
        "ratio",
    );
    Ok(())
}

/// Server-stage metrics from a daemon's `telemetry` (10 s window of the
/// `sim` method) and `stats`, given the client-side median in µs.
pub fn server_metrics(addr: &str, client_p50_us: f64) -> Result<Vec<Metric>, String> {
    let t = ask(addr, "telemetry")?;
    let sim = t
        .get("methods")
        .and_then(|m| m.get("sim"))
        .ok_or_else(|| "telemetry without methods.sim".to_owned())?;
    let win = |k: &str, q: &str| num(sim.get(k).and_then(|w| w.get("10s")).and_then(|w| w.get(q)));
    let total_p50 = win("latency_us", "p50");
    let queue_p50 = win("queue_us", "p50");
    let c = counters(addr)?;
    Ok(vec![
        ("serve.server.queue_us_p50".to_owned(), queue_p50, "us"),
        (
            "serve.server.queue_us_p99".to_owned(),
            win("queue_us", "p99"),
            "us",
        ),
        (
            "serve.server.handle_us".to_owned(),
            total_p50 - queue_p50,
            "us",
        ),
        (
            "serve.server.transport_us".to_owned(),
            client_p50_us - total_p50,
            "us",
        ),
        (
            "serve.coalesced_ratio".to_owned(),
            num(c.get("serve.coalesced")) / num(c.get("serve.requests.sim")).max(1.0),
            "ratio",
        ),
    ])
}

fn p50_us(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.us).collect::<Vec<_>>())
}

/// `serve.router` metrics: a traced closed loop over `lines` through the
/// warm `router`, then through the warm single daemon `plain`, which also
/// gives the `serve.server` metrics. Returns them with the router's
/// samples.
pub fn router_metrics(
    router: &Daemon,
    plain: &Daemon,
    lines: &[String],
    order: &[usize],
    seconds: f64,
) -> Result<(Vec<Metric>, Vec<Sample>), String> {
    let mut out = Vec::new();
    let before = counters(&router.addr)?;
    let (r_cpu0, all_cpu0) = (procs::cpu_s(router.pid()), router.cpu_s());
    let rs = closed_loop(&router.addr, lines, order, seconds, usize::MAX, true)?;
    let after = counters(&router.addr)?;
    put(
        &mut out,
        "serve.router.cpu_share",
        (procs::cpu_s(router.pid()) - r_cpu0) / (router.cpu_s() - all_cpu0),
        "ratio",
    );
    put(
        &mut out,
        "serve.router.subrequests_per_req",
        delta(&before, &after, "serve.shard_subrequests")
            / delta(&before, &after, "serve.requests.sim"),
        "count",
    );
    let ps = closed_loop(&plain.addr, lines, order, seconds, usize::MAX, true)?;
    put(
        &mut out,
        "serve.router.overhead_us",
        p50_us(&rs) - p50_us(&ps),
        "us",
    );
    out.extend(server_metrics(&plain.addr, p50_us(&ps))?);
    Ok((out, rs))
}

/// Router metrics for workloads that do not go through the router:
/// [`router_metrics`] over 2 s of 16-point hits each way.
pub fn router_probe(env: &Env) -> Result<Vec<Metric>, String> {
    let serve = procs::program(&env.bin_dir, "serve")?;
    let lines = gen::fanout_pool(env.seed, 1, 8, 16);
    let mut order: Vec<usize> = (0..lines.len()).collect();
    Rng::new(env.seed, 6).shuffle(&mut order);
    let router = Daemon::spawn(&serve, &env.run_dir, "probe-router", &["--shards", "2"], 2)?;
    let plain = Daemon::spawn(&serve, &env.run_dir, "probe-plain", &[], 1)?;
    warm(&router.addr, &lines)?;
    warm(&plain.addr, &lines)?;
    let (out, _) = router_metrics(&router, &plain, &lines, &order, 2.0)?;
    router.stop()?;
    plain.stop()?;
    Ok(out)
}

/// Outcome of the in-process registry pass.
pub struct RegistryPass {
    /// Output and deterministic counters matched the golden.
    pub ok: bool,
    /// Memo-cache hits over points in the pass.
    pub cache_hit_ratio: f64,
}

fn collect_spans() -> Vec<Span> {
    m3d_obs::take_trace()
        .into_iter()
        .filter(|e| e.ph == m3d_obs::TracePhase::Complete)
        .map(|e| Span {
            cat: e.cat.to_owned(),
            name: e.name.into_owned(),
            tid: e.tid,
            start_us: e.ts_us,
            dur_us: e.dur_us,
        })
        .collect()
}

/// Run the `repro-quick` registry selection in-process with `m3d_obs`
/// on, check its rendered output and deterministic counters against the
/// golden, and record the uarch, thermal, power, sram, planner and
/// registry metrics. Must run before anything else in-process touches the
/// simulator, so that process-wide caches start cold as in `repro`.
pub fn registry(
    layer: &mut Vec<Metric>,
    names: &[&str],
    golden: Option<&Json>,
) -> Result<RegistryPass, String> {
    m3d_obs::enable();
    m3d_obs::reset();
    let selected = select(names)?;
    let ctx = Ctx::builder()
        .scale(RunScale::quick())
        .quick(true)
        .jobs(2)
        .build()
        .map_err(|e| format!("ctx: {e}"))?;
    let mut text = String::new();
    let outcomes = {
        let _span = m3d_obs::span("bench", "run_experiments");
        run_experiments(&ctx, &selected, 2, |o| {
            if let Ok(r) = &o.report {
                for s in &r.sections {
                    text.push_str(&s.text);
                    text.push('\n');
                }
            }
        })
    };
    let snap = m3d_obs::snapshot();
    let spans = collect_spans();
    let selfs = self_times(&spans);
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;

    let mut ok = outcomes.iter().all(|o| o.report.is_ok());
    let hash = fnv1a_hex(mask_wall_clock(&text).as_bytes());
    let want = |k: &str| golden.and_then(|g| g.get(k)).cloned();
    if want("stdout_fnv1a") != Some(Json::Str(hash.clone())) {
        eprintln!("[perfbench] traced registry output hash {hash} does not match the golden");
        ok = false;
    }
    for k in [
        "core.uops",
        "uarch.batch.cycles",
        "thermal.iterations",
        "sram.organizations.evaluated",
    ] {
        let got = c(k) as i64;
        if want(k) != Some(Json::Int(got)) {
            eprintln!("[perfbench] counter {k} = {got} does not match the golden");
            ok = false;
        }
    }

    let batch_self = layer_ms(&spans, &selfs, "batch", None);
    put(layer, "uarch.batch_ms", batch_self, "ms");
    for k in [
        "uarch.batch.cycles",
        "uarch.batch.points",
        "uarch.batch.checkpoint_reuses",
    ] {
        put(layer, k, c(k), "count");
    }
    put(
        layer,
        "uarch.cycles_per_s",
        c("uarch.batch.cycles") / (batch_self / 1e3),
        "1/s",
    );
    let solve_self = layer_ms(&spans, &selfs, "thermal", Some("solve"));
    put(layer, "thermal.solve_ms", solve_self, "ms");
    put(layer, "thermal.solves", c("thermal.solves"), "count");
    put(
        layer,
        "thermal.iterations",
        c("thermal.iterations"),
        "count",
    );
    put(
        layer,
        "thermal.sweeps_per_s",
        c("thermal.iterations") / (solve_self / 1e3),
        "1/s",
    );
    let (wh, wm) = (c("thermal.warm_start.hits"), c("thermal.warm_start.misses"));
    put(
        layer,
        "thermal.warm_start_hit_ratio",
        wh / (wh + wm).max(1.0),
        "ratio",
    );
    let power_self = layer_ms(&spans, &selfs, "power", None);
    put(layer, "power.accounting_ms", power_self, "ms");
    put(layer, "power.accountings", c("power.accountings"), "count");
    let sram_self = layer_ms(&spans, &selfs, "sram", Some("org_search"));
    put(layer, "sram.org_search_ms", sram_self, "ms");
    let (ev, pr) = (
        c("sram.organizations.evaluated"),
        c("sram.organizations.pruned"),
    );
    put(layer, "sram.organizations.evaluated", ev, "count");
    put(layer, "sram.pruned_ratio", pr / (ev + pr).max(1.0), "ratio");
    for (metric, name) in [
        ("core.planner.design_space_ms", "design_space"),
        ("core.planner.thermal_feasibility_ms", "thermal_feasibility"),
    ] {
        put(
            layer,
            metric,
            layer_ms(&spans, &selfs, "planner", Some(name)),
            "ms",
        );
    }
    for o in &outcomes {
        if ["fig6_fig7", "ablations", "fig8", "section5", "table11"].contains(&o.spec.name) {
            put(
                layer,
                &format!("core.registry.{}_ms", o.spec.name),
                o.wall_s * 1e3,
                "ms",
            );
        }
    }
    Ok(RegistryPass {
        ok,
        cache_hit_ratio: c("uarch.batch.cache_hits") / c("uarch.batch.points").max(1.0),
    })
}

/// Search, codec and engine probes, run in-process in every traced run,
/// then the collected layer metrics become the report's metrics.
pub fn common(
    env: &Env,
    rep: &mut Report,
    mut layer: Vec<Metric>,
    eng: &Engine,
    lines: &[String],
    replies: &[String],
) -> Result<(), String> {
    // core.search: small plans through `run_search`.
    m3d_obs::reset();
    let mut rng = Rng::new(env.seed, 11);
    let (mut run_ms, mut cands, mut pruned) = (0.0, 0.0, 0.0);
    for k in 0..4 {
        let spec =
            SearchSpace::from_json(&gen::plan_spec(&mut rng, k)).map_err(|e| e.to_string())?;
        let opts = SearchOptions {
            jobs: 2,
            prune: true,
            deadline: None,
        };
        let t = Instant::now();
        let out = {
            let _span = m3d_obs::span("bench", "run_search");
            run_search(eng.ctx().space(), &spec, &opts, |_| true).map_err(|e| e.to_string())?
        };
        run_ms += t.elapsed().as_secs_f64() * 1e3;
        cands += out.stats.candidates as f64;
        pruned += out.stats.pruned() as f64;
    }
    put(&mut layer, "core.search.run_ms", run_ms, "ms");
    put(&mut layer, "core.search.candidates", cands, "count");
    put(
        &mut layer,
        "core.search.pruned_ratio",
        pruned / cands.max(1.0),
        "ratio",
    );
    put(
        &mut layer,
        "core.search.ms_per_candidate",
        run_ms / cands.max(1.0),
        "ms",
    );

    // core.report: the JSON codec on the workload's own lines.
    const REPS: usize = 50;
    let texts: Vec<&String> = lines.iter().chain(replies).collect();
    let parsed: Vec<Json> = texts
        .iter()
        .map(|t| Json::parse(t))
        .collect::<Result<_, _>>()?;
    let t = Instant::now();
    {
        let _span = m3d_obs::span("bench", "Json::parse");
        for _ in 0..REPS {
            for s in &texts {
                black_box(Json::parse(black_box(s)).map_err(|e| e.to_string())?);
            }
        }
    }
    let per = (REPS * texts.len()) as f64;
    put(
        &mut layer,
        "core.report.parse_us",
        t.elapsed().as_secs_f64() * 1e6 / per,
        "us",
    );
    let t = Instant::now();
    {
        let _span = m3d_obs::span("bench", "Json::render");
        for _ in 0..REPS {
            for j in &parsed {
                black_box(black_box(j).render_compact());
            }
        }
    }
    put(
        &mut layer,
        "core.report.render_us",
        t.elapsed().as_secs_f64() * 1e6 / per,
        "us",
    );

    // serve.engine: `Engine::answer_line` on hits (lines already answered
    // in-process) and on fresh misses.
    let sims: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"sim\""))
        .take(64)
        .collect();
    for l in &sims {
        eng.answer_line(l);
    }
    let mut hit_us = Vec::new();
    for _ in 0..20 {
        for l in &sims {
            let t = Instant::now();
            let _span = m3d_obs::span("bench", "answer_line");
            black_box(eng.answer_line(l));
            hit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    put(&mut layer, "serve.engine.hit_us", median(&hit_us), "us");
    let mut miss_ms = Vec::new();
    for pair in gen::miss_pairs(env.seed ^ 0x5eed, 1, 6) {
        let t = Instant::now();
        let _span = m3d_obs::span("bench", "answer_line");
        black_box(eng.answer_line(&pair[0]));
        miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put(&mut layer, "serve.engine.miss_ms", median(&miss_ms), "ms");

    rep.metrics = layer;
    Ok(())
}
