//! The `perf_baseline` measurement: deterministic counters per experiment,
//! plus an instrumentation-overhead probe, serialized to `BENCH_repro.json`.
//!
//! # What is gated, and why
//!
//! The drift gate compares **integer counters** (solver sweeps, warm-start
//! hits, search candidates evaluated/pruned, µops simulated) — quantities
//! the determinism contract pins exactly: the red–black solver performs
//! bit-identical arithmetic at any thread count, and the measured subset
//! below avoids the one schedule-*dependent* experiment family (the fig8
//! warm-start chains fan out over `available_parallelism`, so their
//! iteration counts legitimately differ across machines). Per-layer wall
//! times are not recorded here at all: `perfbench/` measures them with
//! repeated runs and a machine/revision stamp. The overhead probe is the
//! one *relative* wall-time quantity that is gated: it times pairs of
//! single thermal solves, one with collection off and one with it on, back
//! to back on the same machine in the same process, and gates the median
//! of the per-pair on/off ratios ([`paired_overhead_pct`]). A pair's ratio
//! cancels the machine out, and the median shrugs off the pairs a
//! scheduler hiccup lands on, so the statistic reads the instrumentation
//! rather than noise. It must stay under [`OBS_OVERHEAD_BUDGET_PCT`] — the
//! promise that observability (now including the windowed telemetry
//! record sites) stays effectively free.
//!
//! The measurement always runs at `--quick` scale with one worker, so the
//! design-space `OnceLock` is computed by the same experiment every time
//! and counter attribution is reproducible. The `uarch.batch.*` counters
//! (points, cache hits, checkpoint reuses, cycles) are gated the same way:
//! the batch engine's results and counters are pure functions of the point
//! list, independent of the lane count.
//!
//! The **cycle probe** measures the raw cycle-loop throughput: simulated
//! machine cycles per wall-second over a pinned single-lane point set with
//! the memo cache bypassed. Its `cycles` count is deterministic and gated
//! exactly like the experiment counters; its throughput is gated against a
//! *generous* budget ([`CYCLE_THROUGHPUT_BUDGET`]) so a wholesale loss of
//! the SoA/skip-ahead speedup fails CI while ordinary machine noise never
//! does.
//!
//! The **search probe** runs the pinned [`search_probe_space`] through
//! `m3d_core::search` and gates its candidate/pruned/simulated/frontier
//! counts exactly: the space is built so the equal-frequency rule must
//! prune ≥30% of it before simulation, so a silently disabled pruning rule
//! (or a frontier change) fails CI.

use crate::artifacts::SCHEMA_VERSION;
use m3d_core::experiments::registry::{run_experiments, select, Ctx, Outcome};
use m3d_core::experiments::RunScale;
use m3d_core::planner::DesignSpace;
use m3d_core::report::Json;
use m3d_core::search::{run_search, SearchOptions, SearchOutcome, SearchSpace, SearchSpaceBuilder};
use m3d_thermal::floorplan::Floorplan;
use m3d_thermal::model::{SweepMode, ThermalModel};
use m3d_thermal::solver::ThermalConfig;
use m3d_tech::layers::LayerStack;
use m3d_uarch::{CoreConfig, SimBatch, SimInterval, SimPoint};
use m3d_workloads::spec::spec2006;
use std::time::Instant;

/// The schedule-independent experiments the baseline measures. fig8 is
/// deliberately absent — its warm-start chains are chunked over
/// `available_parallelism`, so its thermal iteration counts legitimately
/// vary across machines — and fig9/fig10 share fig8's thermal coupling.
/// fig6/fig7 is the single-core cycle-level representative: its µop count
/// depends only on the scale and seeds. ablations is the multicore one: its
/// cycle-level points run `Multicore::run` with barriers and coherence,
/// under their own seed and with the memo cache bypassed, so its
/// `uarch.batch.cycles` is a pure function of the scale.
pub const GATED_EXPERIMENTS: &[&str] = &[
    "table3", "table4", "table5", "fig5", "table6", "table8", "table11", "fig6_fig7",
    "ablations",
];

/// The counters the drift gate compares exactly. All integers; all
/// independent of machine, thread count, and wall time for the experiments
/// in [`GATED_EXPERIMENTS`].
pub const GATE_COUNTERS: &[&str] = &[
    "core.uops",
    "sram.hetero.candidates",
    "sram.organizations.evaluated",
    "sram.organizations.pruned",
    "sram.partition.strategies_evaluated",
    "sram.partition.strategies_skipped",
    "thermal.iterations",
    "thermal.model_cache.hits",
    "thermal.model_cache.misses",
    "thermal.non_converged",
    "thermal.solves",
    "thermal.warm_start.hits",
    "thermal.warm_start.misses",
    "uarch.batch.cache_hits",
    "uarch.batch.cap_exhausted",
    "uarch.batch.checkpoint_reuses",
    "uarch.batch.cycles",
    "uarch.batch.points",
];

/// One experiment's measured state.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentBaseline {
    /// Registry id.
    pub name: String,
    /// `(gate counter, value)` pairs, in [`GATE_COUNTERS`] order, zeros
    /// included so a counter that *stops* being emitted is also a drift.
    pub counters: Vec<(String, u64)>,
}

/// A full `BENCH_repro.json` measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Per-experiment results, in [`GATED_EXPERIMENTS`] order.
    pub experiments: Vec<ExperimentBaseline>,
    /// Instrumentation overhead of the probe solve, percent: the median
    /// on/off ratio of [`OBS_PROBE_PAIRS`] solve pairs (see
    /// [`paired_overhead_pct`]). Negative
    /// values mean the enabled side happened to run faster.
    pub overhead_pct: f64,
    /// Machine cycles simulated by the cycle probe's pinned point set
    /// (deterministic; gated exactly).
    pub cycle_cycles: u64,
    /// Fastest wall time of one cycle-probe pass, seconds.
    pub cycle_wall_s: f64,
    /// Candidates enumerated by the search probe (gated exactly).
    pub search_candidates: u64,
    /// Search-probe candidates pruned before simulation (gated exactly —
    /// a drop means a pruning rule stopped firing).
    pub search_pruned: u64,
    /// Search-probe candidates actually simulated (gated exactly).
    pub search_simulated: u64,
    /// Search-probe Pareto-frontier size (gated exactly).
    pub search_frontier: u64,
}

impl Baseline {
    /// Simulated machine cycles per wall-second of the cycle probe — the
    /// headline number for cycle-loop throughput work.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.cycle_wall_s > 0.0 {
            self.cycle_cycles as f64 / self.cycle_wall_s
        } else {
            0.0
        }
    }
}

fn gate_counters_of(outcome: &Outcome) -> Vec<(String, u64)> {
    let snap = outcome.metrics.as_ref();
    GATE_COUNTERS
        .iter()
        .map(|name| {
            let v = snap.and_then(|m| m.counter(name)).unwrap_or(0);
            ((*name).to_owned(), v)
        })
        .collect()
}

/// Off/on solve pairs the overhead probe times per measurement.
pub const OBS_PROBE_PAIRS: usize = 200;

/// Wall time of one serial solve of the probe model, seconds.
fn solve_s(model: &ThermalModel, powers: &[Vec<f64>]) -> f64 {
    let t0 = Instant::now();
    let (_, stats) = model
        .solve_with(powers, None, SweepMode::Serial)
        .expect("probe model solves");
    let wall = t0.elapsed().as_secs_f64();
    assert!(stats.converged, "overhead probe must converge");
    wall
}

fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The gated overhead statistic: the median over `(off_s, on_s)` pairs of
/// `on_s / off_s`, as a percentage above 1. Each pair's ratio cancels the
/// machine's speed at that moment, and the median ignores the minority of
/// pairs a stall lands on, whichever side it hits. Pairs with a
/// non-positive time are skipped; no usable pair reads as 0 %.
pub fn paired_overhead_pct(pairs: &[(f64, f64)]) -> f64 {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|(off, on)| *off > 0.0 && *on > 0.0)
        .map(|(off, on)| on / off)
        .collect();
    if ratios.is_empty() {
        return 0.0;
    }
    ratios.sort_unstable_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let median = if ratios.len().is_multiple_of(2) {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    } else {
        ratios[mid]
    };
    (median - 1.0) * 100.0
}

/// Probe the cost of instrumentation on a serial 16×16 thermal solve:
/// `pairs` back-to-back pairs of one solve with collection off and one
/// with it on, alternating which side of a pair runs first so a drift in
/// machine state within a pair cannot favour one side. Returns
/// [`paired_overhead_pct`] of the pairs and restores the previous
/// enablement state.
pub fn measure_overhead(pairs: usize) -> f64 {
    let was_enabled = m3d_obs::is_enabled();
    let cfg = ThermalConfig {
        nx: 16,
        ny: 16,
        ..ThermalConfig::default()
    };
    let fp = Floorplan::ryzen_like(9.0e-6);
    let powers = vec![fp.uniform_power(6.4)];
    let model = ThermalModel::new(&LayerStack::planar_2d(), &[fp], &cfg)
        .expect("probe model builds");
    let timed = |enabled: bool| {
        if enabled {
            m3d_obs::enable();
        } else {
            m3d_obs::disable();
        }
        solve_s(&model, &powers)
    };
    // Warm up both paths once before timing anything.
    timed(false);
    timed(true);
    let samples: Vec<(f64, f64)> = (0..pairs)
        .map(|i| {
            if i.is_multiple_of(2) {
                let off = timed(false);
                (off, timed(true))
            } else {
                let on = timed(true);
                (timed(false), on)
            }
        })
        .collect();
    if was_enabled {
        m3d_obs::enable();
    } else {
        m3d_obs::disable();
    }
    paired_overhead_pct(&samples)
}

/// Apps in the cycle-throughput probe's pinned point set. Each runs once
/// on the 2D baseline core and once on the 3D-paths core so both wakeup
/// latencies exercise the loop.
const CYCLE_PROBE_APPS: usize = 4;

/// Warm-up cycles per cycle-probe point (excluded from measurement state
/// but simulated, so they count toward the probe's cycle total).
const CYCLE_PROBE_WARMUP: u64 = 10_000;

/// Measured cycles per cycle-probe point.
const CYCLE_PROBE_MEASURE: u64 = 30_000;

/// Trace seed for the cycle probe, distinct from every experiment seed so
/// the probe cannot interact with any memo cache (it also bypasses the
/// cache entirely).
const CYCLE_PROBE_SEED: u64 = 0xC9C1;

/// The cycle probe's pinned point set: the first [`CYCLE_PROBE_APPS`]
/// SPEC2006 profiles, each as a single-core point on the 2D baseline and
/// on the 3D-paths configuration.
fn cycle_probe_points() -> Vec<SimPoint> {
    let interval = SimInterval {
        warmup: CYCLE_PROBE_WARMUP,
        measure: CYCLE_PROBE_MEASURE,
    };
    spec2006()
        .into_iter()
        .take(CYCLE_PROBE_APPS)
        .flat_map(|app| {
            [
                SimPoint::single(CoreConfig::base_2d(), app.clone(), CYCLE_PROBE_SEED, interval),
                SimPoint::single(
                    CoreConfig::base_2d().with_3d_paths(),
                    app,
                    CYCLE_PROBE_SEED,
                    interval,
                ),
            ]
        })
        .collect()
}

/// Probe raw cycle-loop throughput: one lane, memo cache bypassed, the
/// pinned cycle-probe point set. Returns `(cycles, wall_s)`
/// where `cycles` is the deterministic simulated-cycle total (gated
/// exactly — a change means the simulated machines behaved differently)
/// and `wall_s` is the fastest pass (min-of-N).
pub fn measure_cycles(samples: usize) -> (u64, f64) {
    let points = cycle_probe_points();
    let batch = SimBatch::new(1).without_cache();
    let run = || {
        let t0 = Instant::now();
        let (results, stats) = batch.run_with_stats(&points);
        let wall = t0.elapsed().as_secs_f64();
        for r in results {
            r.expect("cycle-probe points are valid");
        }
        (stats.cycles, wall)
    };
    // Warm once before timing; the cycle count of the warm-up pass is the
    // reference every timed pass must reproduce.
    let (cycles, _) = run();
    let mut walls = Vec::with_capacity(samples);
    for _ in 0..samples {
        let (c, w) = run();
        assert_eq!(c, cycles, "cycle probe must simulate deterministically");
        walls.push(w);
    }
    (cycles, fastest(&walls))
}

/// Trace seed for the search probe, distinct from every experiment seed
/// and the other probe seeds.
const SEARCH_PROBE_SEED: u64 = 0x5EA0;

/// The search probe's pinned space: all six designs, a nine-point
/// 0.55–0.95 V supply grid, two applications — 108 candidates. The three
/// grid points above the 0.8 V nominal clamp to each design's rated
/// frequency, so the equal-frequency rule alone prunes 36/108 ≥ 30% of
/// the space before simulation; the drift gate pins that exactly.
pub fn search_probe_space() -> SearchSpace {
    SearchSpaceBuilder {
        apps: vec!["Gcc".to_owned(), "Bzip2".to_owned()],
        vdds: (0..9).map(|i| 0.55 + 0.05 * i as f64).collect(),
        seed: SEARCH_PROBE_SEED,
        warmup: Some(1_000),
        measure: Some(1_500),
        chunk: Some(32),
        ..SearchSpaceBuilder::default()
    }
    .build()
    .expect("the search-probe space is valid")
}

/// Run the pinned search-probe space (one job, pruning on). All four
/// gated quantities (candidates, pruned, simulated, frontier size) are
/// pure functions of the spec.
pub fn measure_search(space: &DesignSpace) -> SearchOutcome {
    run_search(
        space,
        &search_probe_space(),
        &SearchOptions::default(),
        |_| true,
    )
    .expect("the search-probe space runs")
}

/// Run the gated experiment subset (quick scale, one worker, collection on)
/// and the overhead probe, and return the measurement.
pub fn measure() -> Baseline {
    let was_enabled = m3d_obs::is_enabled();
    m3d_obs::enable();
    let selected = select(GATED_EXPERIMENTS).expect("gated experiments exist");
    let ctx = Ctx::new(RunScale::quick(), true);
    let outcomes = run_experiments(&ctx, &selected, 1, |_| {});
    let experiments = outcomes
        .iter()
        .map(|o| {
            assert!(
                o.report.is_ok(),
                "{} failed: {:?}",
                o.spec.name,
                o.report.as_ref().err()
            );
            ExperimentBaseline {
                name: o.spec.name.to_owned(),
                counters: gate_counters_of(o),
            }
        })
        .collect();
    let overhead_pct = measure_overhead(OBS_PROBE_PAIRS);
    let (cycle_cycles, cycle_wall_s) = measure_cycles(3);
    let search = measure_search(ctx.space()).stats;
    if !was_enabled {
        m3d_obs::disable();
    }
    Baseline {
        experiments,
        overhead_pct,
        cycle_cycles,
        cycle_wall_s,
        search_candidates: search.candidates,
        search_pruned: search.pruned(),
        search_simulated: search.simulated,
        search_frontier: search.frontier,
    }
}

/// Serialize a measurement as the `BENCH_repro.json` document.
pub fn baseline_json(b: &Baseline) -> Json {
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("tool", Json::from("perf_baseline")),
        ("scale", Json::from("quick")),
        ("jobs", Json::from(1u64)),
        (
            "gate_counters",
            Json::arr(GATE_COUNTERS.iter().map(|c| Json::from(*c))),
        ),
        (
            "experiments",
            Json::Obj(
                b.experiments
                    .iter()
                    .map(|e| {
                        (
                            e.name.clone(),
                            Json::obj([(
                                "counters",
                                Json::Obj(
                                    e.counters
                                        .iter()
                                        .map(|(n, v)| (n.clone(), Json::from(*v)))
                                        .collect(),
                                ),
                            )]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "obs_overhead",
            Json::obj([
                ("pairs", Json::from(OBS_PROBE_PAIRS)),
                ("overhead_pct", Json::from(b.overhead_pct)),
            ]),
        ),
        (
            "cycle_probe",
            Json::obj([
                ("points", Json::from(CYCLE_PROBE_APPS * 2)),
                ("cycles", Json::from(b.cycle_cycles)),
                ("wall_s", Json::from(b.cycle_wall_s)),
                ("cycles_per_sec", Json::from(b.cycles_per_sec())),
            ]),
        ),
        (
            "search_probe",
            Json::obj([
                ("candidates", Json::from(b.search_candidates)),
                ("pruned", Json::from(b.search_pruned)),
                ("simulated", Json::from(b.search_simulated)),
                ("frontier", Json::from(b.search_frontier)),
            ]),
        ),
    ])
}

/// Decode a `BENCH_repro.json` document back into a [`Baseline`].
pub fn baseline_from_json(j: &Json) -> Result<Baseline, String> {
    let experiments = match j.get("experiments") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, e)| {
                let counters = match e.get("counters") {
                    Some(Json::Obj(cs)) => cs
                        .iter()
                        .map(|(n, v)| match v {
                            Json::Int(i) if *i >= 0 => Ok((n.clone(), *i as u64)),
                            other => Err(format!("{name}.{n}: bad counter {other:?}")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    other => return Err(format!("{name}: bad counters {other:?}")),
                };
                Ok(ExperimentBaseline {
                    name: name.clone(),
                    counters,
                })
            })
            .collect::<Result<Vec<_>, String>>()?,
        other => return Err(format!("bad experiments block: {other:?}")),
    };
    let probe = |block: &str, k: &str| match j.get(block).and_then(|o| o.get(k)) {
        Some(Json::Num(v)) => Ok(*v),
        Some(Json::Int(i)) => Ok(*i as f64),
        other => Err(format!("bad {block}.{k}: {other:?}")),
    };
    let uint = |block: &str, k: &str| match j.get(block).and_then(|o| o.get(k)) {
        Some(Json::Int(i)) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("bad {block}.{k}: {other:?}")),
    };
    Ok(Baseline {
        experiments,
        overhead_pct: probe("obs_overhead", "overhead_pct")?,
        cycle_cycles: uint("cycle_probe", "cycles")?,
        cycle_wall_s: probe("cycle_probe", "wall_s")?,
        search_candidates: uint("search_probe", "candidates")?,
        search_pruned: uint("search_probe", "pruned")?,
        search_simulated: uint("search_probe", "simulated")?,
        search_frontier: uint("search_probe", "frontier")?,
    })
}

/// Fraction of the committed cycle-probe throughput the current run must
/// reach for the gate to pass. Deliberately generous: it only fires when
/// the cycle loop gets ≳3× slower (the SoA/skip-ahead speedup wholesale
/// lost), so CI machine noise and neighbour load cannot trip it.
pub const CYCLE_THROUGHPUT_BUDGET: f64 = 0.30;

/// Ceiling on the instrumentation-overhead probe, percent. The probe is a
/// median of same-process enabled/disabled ratios (machine speed cancels
/// out), so unlike raw wall times it *is* gated: a run whose `overhead_pct` lands
/// above this budget means a metrics/telemetry record site got expensive
/// enough to tax the hot solver loop, which is a regression regardless of
/// the machine.
pub const OBS_OVERHEAD_BUDGET_PCT: f64 = 2.0;

/// Compare `current` against `committed` and list every counter drift (an
/// empty vector means the gate passes). Besides the experiment counters,
/// the cycle probe's simulated cycle count and the four search-probe
/// integers are gated exactly (they are deterministic), the cycle probe's
/// throughput must stay within [`CYCLE_THROUGHPUT_BUDGET`] of the
/// committed value, and the current run's instrumentation overhead must
/// stay under [`OBS_OVERHEAD_BUDGET_PCT`] (a ratio, so machine-independent).
pub fn drift(committed: &Baseline, current: &Baseline) -> Vec<String> {
    let mut drifts = Vec::new();
    for cur in &current.experiments {
        let Some(base) = committed.experiments.iter().find(|e| e.name == cur.name)
        else {
            drifts.push(format!(
                "{}: not in the committed baseline (run `perf_baseline --write`)",
                cur.name
            ));
            continue;
        };
        for (name, v) in &cur.counters {
            let was = base
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0);
            if was != *v {
                drifts.push(format!("{}: {} drifted {} -> {}", cur.name, name, was, v));
            }
        }
    }
    for base in &committed.experiments {
        if !current.experiments.iter().any(|e| e.name == base.name) {
            drifts.push(format!("{}: missing from the current run", base.name));
        }
    }
    if committed.cycle_cycles != current.cycle_cycles {
        drifts.push(format!(
            "cycle_probe: cycles drifted {} -> {}",
            committed.cycle_cycles, current.cycle_cycles
        ));
    }
    let (was, now) = (committed.cycles_per_sec(), current.cycles_per_sec());
    if was > 0.0 && now < was * CYCLE_THROUGHPUT_BUDGET {
        drifts.push(format!(
            "cycle_probe: throughput regressed beyond budget: \
             {now:.0} cycles/s vs {was:.0} committed \
             (floor {:.0} = {CYCLE_THROUGHPUT_BUDGET} x committed)",
            was * CYCLE_THROUGHPUT_BUDGET
        ));
    }
    let overhead = current.overhead_pct;
    if overhead > OBS_OVERHEAD_BUDGET_PCT {
        drifts.push(format!(
            "obs_overhead: instrumentation costs {overhead:.2}% on the probe solve, \
             over the {OBS_OVERHEAD_BUDGET_PCT}% budget"
        ));
    }
    for (name, was, now) in [
        ("candidates", committed.search_candidates, current.search_candidates),
        ("pruned", committed.search_pruned, current.search_pruned),
        ("simulated", committed.search_simulated, current.search_simulated),
        ("frontier", committed.search_frontier, current.search_frontier),
    ] {
        if was != now {
            drifts.push(format!("search_probe: {name} drifted {was} -> {now}"));
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, counters: &[(&str, u64)]) -> ExperimentBaseline {
        ExperimentBaseline {
            name: name.to_owned(),
            counters: counters
                .iter()
                .map(|(n, v)| ((*n).to_owned(), *v))
                .collect(),
        }
    }

    fn fake_baseline() -> Baseline {
        Baseline {
            experiments: vec![
                fake("table3", &[("thermal.iterations", 0), ("core.uops", 10)]),
                fake("table6", &[("sram.organizations.evaluated", 42)]),
            ],
            overhead_pct: 0.25,
            cycle_cycles: 320_000,
            cycle_wall_s: 0.040,
            search_candidates: 108,
            search_pruned: 36,
            search_simulated: 72,
            search_frontier: 9,
        }
    }

    #[test]
    fn json_round_trips() {
        let b = fake_baseline();
        let j = baseline_json(&b);
        let parsed = Json::parse(&j.render()).expect("renders valid JSON");
        let back = baseline_from_json(&parsed).expect("decodes");
        assert_eq!(back, b);
        assert!((b.cycles_per_sec() - 8_000_000.0).abs() < 1e-6);
        // Only the gated quantities and the cycle probe's wall time are
        // recorded: no per-experiment or search-probe wall time.
        assert_eq!(parsed.get("batch_probe"), None);
        assert_eq!(
            parsed
                .get("experiments")
                .and_then(|e| e.get("table3"))
                .and_then(|t| t.get("wall_s")),
            None
        );
        assert_eq!(
            parsed.get("search_probe").and_then(|p| p.get("wall_s")),
            None
        );
    }

    #[test]
    fn drift_reports_changes_additions_and_removals() {
        let committed = fake_baseline();
        assert!(drift(&committed, &committed).is_empty());

        let mut changed = fake_baseline();
        changed.experiments[0].counters[1].1 = 11;
        let d = drift(&committed, &changed);
        assert_eq!(d.len(), 1);
        assert!(d[0].contains("core.uops drifted 10 -> 11"), "{d:?}");

        let mut extra = fake_baseline();
        extra.experiments.push(fake("fig5", &[]));
        assert!(drift(&committed, &extra)[0].contains("not in the committed baseline"));

        let mut missing = fake_baseline();
        missing.experiments.pop();
        assert!(drift(&committed, &missing)[0].contains("missing from the current run"));
    }

    #[test]
    fn wall_time_differences_never_drift() {
        let committed = fake_baseline();
        // A uniformly slower machine leaves the overhead *ratio* alone —
        // both sides of every pair scale together.
        let pairs: Vec<(f64, f64)> = (0..9).map(|i| (0.006 + 1e-5 * i as f64, 0.0061)).collect();
        let slower: Vec<(f64, f64)> = pairs
            .iter()
            .map(|(off, on)| (off * 100.0, on * 100.0))
            .collect();
        assert!((paired_overhead_pct(&pairs) - paired_overhead_pct(&slower)).abs() < 1e-9);
        // Within the generous budget: 2x slower cycle probe is noise.
        let mut current = fake_baseline();
        current.cycle_wall_s *= 2.0;
        assert!(drift(&committed, &current).is_empty());
    }

    #[test]
    fn overhead_over_budget_drifts_regardless_of_the_committed_value() {
        let committed = fake_baseline();
        // The fake baseline's probe sits at 0.25%: inside the 2% budget.
        assert!(committed.overhead_pct < OBS_OVERHEAD_BUDGET_PCT);

        let mut taxed = fake_baseline();
        taxed.overhead_pct = 5.0;
        let d = drift(&committed, &taxed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("obs_overhead"), "{d:?}");
        assert!(d[0].contains("budget"), "{d:?}");

        // Noise-dominated probes (enabled faster than disabled) read as
        // negative overhead and never drift.
        let mut noisy = fake_baseline();
        noisy.overhead_pct = -2.0;
        assert!(drift(&committed, &noisy).is_empty());

        // The gate reads the current run only: a committed value already
        // over budget neither trips nor excuses it.
        let mut over = fake_baseline();
        over.overhead_pct = 9.0;
        assert!(drift(&over, &committed).is_empty());
        assert_eq!(drift(&over, &taxed).len(), 1);
    }

    /// Off/on pairs of a ~6 ms solve with the machine wandering by a few
    /// percent from pair to pair; `tax` scales the enabled side.
    fn wandering_pairs(n: usize, tax: f64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let speed = 1.0 + 0.04 * ((i * 7919) % 13) as f64 / 13.0;
                let wobble = 1.0 + 0.002 * ((i % 5) as f64 - 2.0);
                let off = 0.006 * speed;
                (off, off * wobble * tax)
            })
            .collect()
    }

    #[test]
    fn paired_statistic_ignores_a_wild_outlier_pair() {
        let mut pairs = wandering_pairs(200, 1.0);
        let clean = paired_overhead_pct(&pairs);
        assert!(clean.abs() < 0.5, "{clean}");
        // One pair whose enabled solve stalled for 50x its normal time
        // (a preemption, a page fault storm) must not move the median
        // past the budget.
        pairs[17].1 *= 50.0;
        let stalled = paired_overhead_pct(&pairs);
        assert!(stalled < OBS_OVERHEAD_BUDGET_PCT, "{stalled}");
        assert!((stalled - clean).abs() < 0.5, "{clean} -> {stalled}");
        // Nor may an outlier on the disabled side.
        pairs[17].1 /= 50.0;
        pairs[18].0 *= 50.0;
        assert!((paired_overhead_pct(&pairs) - clean).abs() < 0.5);
    }

    #[test]
    fn paired_statistic_reads_a_uniform_tax_and_drifts_on_it() {
        let pct = paired_overhead_pct(&wandering_pairs(200, 1.03));
        assert!((pct - 3.0).abs() < 0.3, "uniform +3% read as {pct}");
        let mut taxed = fake_baseline();
        taxed.overhead_pct = pct;
        let d = drift(&fake_baseline(), &taxed);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("obs_overhead"), "{d:?}");
    }

    #[test]
    fn paired_statistic_handles_even_counts_and_empty_input() {
        // Even count: the mean of the two middle ratios (1.01 and 1.03).
        let pairs = [(1.0, 1.0), (1.0, 1.01), (1.0, 1.03), (1.0, 1.5)];
        assert!((paired_overhead_pct(&pairs) - 2.0).abs() < 1e-9);
        assert_eq!(paired_overhead_pct(&[]), 0.0);
        assert_eq!(paired_overhead_pct(&[(0.0, 1.0)]), 0.0);
    }

    #[test]
    fn cycle_probe_gates_cycles_exactly_and_throughput_by_budget() {
        let committed = fake_baseline();

        let mut wrong_cycles = fake_baseline();
        wrong_cycles.cycle_cycles += 1;
        let d = drift(&committed, &wrong_cycles);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("cycles drifted"), "{d:?}");

        let mut too_slow = fake_baseline();
        too_slow.cycle_wall_s = committed.cycle_wall_s / CYCLE_THROUGHPUT_BUDGET * 1.01;
        let d = drift(&committed, &too_slow);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].contains("throughput regressed"), "{d:?}");

        // A *faster* run never drifts, no matter how much faster.
        let mut faster = fake_baseline();
        faster.cycle_wall_s /= 100.0;
        assert!(drift(&committed, &faster).is_empty());
    }

    #[test]
    fn gated_experiments_resolve_and_exclude_schedule_dependent_ones() {
        let selected = select(GATED_EXPERIMENTS).expect("all gated names resolve");
        assert_eq!(selected.len(), GATED_EXPERIMENTS.len());
        assert!(
            !GATED_EXPERIMENTS.contains(&"fig8"),
            "fig8 iteration counts depend on the machine's core count"
        );
        // Gate counters are sorted and unique (stable file layout).
        let mut sorted = GATE_COUNTERS.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, GATE_COUNTERS);
    }

    #[test]
    fn cycle_probe_simulates_the_pinned_set_deterministically() {
        // measure_cycles itself asserts every timed pass reproduces the
        // warm pass's cycle count; two full probes must also agree.
        let (c1, w1) = measure_cycles(1);
        let (c2, _) = measure_cycles(1);
        assert_eq!(c1, c2, "pinned point set must simulate deterministically");
        assert!(c1 > 0 && w1 > 0.0);
        assert_eq!(cycle_probe_points().len(), CYCLE_PROBE_APPS * 2);
    }

    #[test]
    fn search_probe_drift_gates_all_four_integers() {
        let committed = fake_baseline();
        for field in 0..4usize {
            let mut cur = fake_baseline();
            match field {
                0 => cur.search_candidates += 1,
                1 => cur.search_pruned += 1,
                2 => cur.search_simulated += 1,
                _ => cur.search_frontier += 1,
            }
            let d = drift(&committed, &cur);
            assert_eq!(d.len(), 1, "{d:?}");
            assert!(d[0].contains("search_probe:"), "{d:?}");
        }
    }

    #[test]
    fn search_probe_prunes_thirty_percent_without_changing_the_frontier() {
        use m3d_core::search::frontier_json;
        let space = DesignSpace::compute();
        let spec = search_probe_space();
        let out = measure_search(&space);
        assert_eq!(out.stats.candidates, 108);
        assert!(
            out.stats.pruned() * 10 >= out.stats.candidates * 3,
            "probe must prune >=30%: {:?}",
            out.stats
        );
        // Pruning must be invisible in the frontier: brute force over the
        // same spec lands on the byte-identical answer.
        let brute = run_search(
            &space,
            &spec,
            &SearchOptions {
                prune: false,
                ..SearchOptions::default()
            },
            |_| true,
        )
        .expect("brute-force probe runs");
        assert!(brute.stats.pruned() < out.stats.pruned());
        assert_eq!(
            frontier_json(&out.frontier).render(),
            frontier_json(&brute.frontier).render()
        );
    }

    #[test]
    fn overhead_probe_runs_and_restores_state() {
        m3d_obs::disable();
        assert!(measure_overhead(3).is_finite());
        assert!(!m3d_obs::is_enabled(), "probe must restore enablement");
    }
}
