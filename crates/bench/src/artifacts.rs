//! JSON artifact writing for the `repro` orchestrator.
//!
//! A run with `--out-dir DIR` leaves one `<experiment>.json` per registry
//! entry plus a `manifest.json` describing the whole run (git revision,
//! scale, seeds, jobs, per-experiment timings, and µop throughput), so
//! every trajectory point can be diffed across PRs and regenerated
//! mechanically.

use m3d_core::experiments::registry::Outcome;
use m3d_core::experiments::RunScale;
use m3d_core::report::{metrics_json, thermal_stats_json, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Fixed trace-generator seed of the single-core studies.
pub const SINGLE_CORE_SEED: u64 = 0xF16;
/// Fixed trace-generator seed of the multicore study.
pub const MULTICORE_SEED: u64 = 0xF19;
/// Artifact schema version. Bumped to 2 when the per-experiment `metrics`
/// block and the manifest's aggregated `metrics` landed (see
/// EXPERIMENTS.md).
pub const SCHEMA_VERSION: u64 = 2;

/// Parameters of one `repro` invocation, recorded in the manifest.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// Whether `--quick` was passed.
    pub quick: bool,
    /// Worker-pool size used.
    pub jobs: usize,
    /// Simulation window sizes.
    pub scale: RunScale,
    /// The raw experiment selection (empty = all).
    pub wanted: Vec<String>,
}

/// The current git revision, or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The JSON artifact for one experiment outcome.
pub fn experiment_json(o: &Outcome) -> Json {
    let mut fields = vec![
        ("schema_version".to_owned(), Json::from(SCHEMA_VERSION)),
        ("name".to_owned(), Json::from(o.spec.name)),
        ("title".to_owned(), Json::from(o.spec.title)),
        ("ok".to_owned(), Json::from(o.report.is_ok())),
        ("start_s".to_owned(), Json::from(o.start_s)),
        ("wall_s".to_owned(), Json::from(o.wall_s)),
        (
            "metrics".to_owned(),
            o.metrics.as_ref().map_or(Json::Null, metrics_json),
        ),
    ];
    match &o.report {
        Ok(r) => {
            fields.push(("rows".to_owned(), r.rows.clone()));
            fields.push(("meta".to_owned(), r.meta.clone()));
            fields.push((
                "phases".to_owned(),
                Json::arr(r.phases.iter().map(|(name, s)| {
                    Json::obj([("phase", Json::from(*name)), ("wall_s", Json::from(*s))])
                })),
            ));
            fields.push((
                "thermal".to_owned(),
                r.thermal.as_ref().map_or(Json::Null, thermal_stats_json),
            ));
            fields.push(("uops".to_owned(), Json::from(r.uops)));
        }
        Err(err) => fields.push(("error".to_owned(), Json::from(err.to_string()))),
    }
    Json::Obj(fields)
}

/// Largest number of experiments whose `[start, start+wall)` intervals
/// overlap at any instant — the manifest's evidence that the run actually
/// parallelised (1 means fully serial).
pub fn max_overlap(outcomes: &[Outcome]) -> usize {
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        events.push((o.start_s, 1));
        events.push((o.start_s + o.wall_s, -1));
    }
    // Ends sort before starts at the same instant, so touching intervals do
    // not count as overlapping.
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite times")
            .then(a.1.cmp(&b.1))
    });
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        live += delta;
        peak = peak.max(live);
    }
    peak.max(0) as usize
}

/// The `manifest.json` value for a finished run.
pub fn manifest_json(info: &RunInfo, outcomes: &[Outcome], total_wall_s: f64) -> Json {
    let errors = outcomes.iter().filter(|o| o.report.is_err()).count();
    let serial_wall_s: f64 = outcomes.iter().map(|o| o.wall_s).sum();
    let uops_total: u64 = outcomes
        .iter()
        .filter_map(|o| o.report.as_ref().ok())
        .map(|r| r.uops)
        .sum();
    let uops_per_s = if total_wall_s > 0.0 {
        uops_total as f64 / total_wall_s
    } else {
        0.0
    };
    // Aggregate per-experiment metrics into one run-wide snapshot; `None`
    // when instrumentation was off for the whole run.
    let mut aggregated: Option<m3d_obs::MetricsSnapshot> = None;
    for o in outcomes {
        if let Some(m) = &o.metrics {
            aggregated
                .get_or_insert_with(Default::default)
                .merge_from(m);
        }
    }
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("tool", Json::from("repro")),
        ("git_rev", Json::from(git_rev())),
        ("quick", Json::from(info.quick)),
        ("jobs", Json::from(info.jobs)),
        (
            "scale",
            Json::obj([
                ("warmup", Json::from(info.scale.warmup)),
                ("measure", Json::from(info.scale.measure)),
            ]),
        ),
        (
            "seeds",
            Json::obj([
                ("single_core", Json::from(SINGLE_CORE_SEED)),
                ("multicore", Json::from(MULTICORE_SEED)),
            ]),
        ),
        (
            "wanted",
            Json::arr(info.wanted.iter().map(|w| Json::from(w.clone()))),
        ),
        ("errors", Json::from(errors)),
        ("total_wall_s", Json::from(total_wall_s)),
        ("serial_wall_s", Json::from(serial_wall_s)),
        ("max_overlap", Json::from(max_overlap(outcomes))),
        ("uops_total", Json::from(uops_total)),
        ("uops_per_s", Json::from(uops_per_s)),
        (
            "metrics",
            aggregated.as_ref().map_or(Json::Null, metrics_json),
        ),
        (
            "experiments",
            Json::arr(outcomes.iter().map(|o| {
                Json::obj([
                    ("name", Json::from(o.spec.name)),
                    ("artifact", Json::from(format!("{}.json", o.spec.name))),
                    ("ok", Json::from(o.report.is_ok())),
                    ("start_s", Json::from(o.start_s)),
                    ("wall_s", Json::from(o.wall_s)),
                    (
                        "uops",
                        Json::from(o.report.as_ref().map(|r| r.uops).unwrap_or(0)),
                    ),
                ])
            })),
        ),
    ])
}

/// Write per-experiment artifacts and the manifest under `dir` (created if
/// missing). Returns the manifest path.
pub fn write_artifacts(
    dir: &Path,
    info: &RunInfo,
    outcomes: &[Outcome],
    total_wall_s: f64,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    for o in outcomes {
        let path = dir.join(format!("{}.json", o.spec.name));
        let body = experiment_json(o).render();
        m3d_obs::add("artifacts.bytes_written", body.len() as u64);
        std::fs::write(&path, body)?;
    }
    let manifest = dir.join("manifest.json");
    let body = manifest_json(info, outcomes, total_wall_s).render();
    m3d_obs::add("artifacts.bytes_written", body.len() as u64);
    m3d_obs::add("artifacts.files_written", outcomes.len() as u64 + 1);
    std::fs::write(&manifest, body)?;
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_core::experiments::registry::{find, ExperimentError, ExperimentReport, Outcome};

    fn outcome(name: &str, start_s: f64, wall_s: f64, ok: bool) -> Outcome {
        Outcome {
            spec: find(name).expect("registry entry"),
            report: if ok {
                Ok(ExperimentReport {
                    uops: 100,
                    ..Default::default()
                })
            } else {
                Err(ExperimentError::Panic("boom".to_owned()))
            },
            start_s,
            wall_s,
            metrics: None,
        }
    }

    #[test]
    fn overlap_counts_concurrent_intervals() {
        let o = [
            outcome("table1", 0.0, 1.0, true),
            outcome("table2", 0.5, 1.0, true),
            outcome("fig2", 2.0, 1.0, true),
        ];
        assert_eq!(max_overlap(&o), 2);
        // Touching intervals are not overlapping.
        let o = [
            outcome("table1", 0.0, 1.0, true),
            outcome("table2", 1.0, 1.0, true),
        ];
        assert_eq!(max_overlap(&o), 1);
    }

    #[test]
    fn manifest_counts_errors_and_uops() {
        let info = RunInfo {
            quick: true,
            jobs: 2,
            scale: m3d_core::experiments::RunScale::quick(),
            wanted: vec!["all".to_owned()],
        };
        let o = [
            outcome("table1", 0.0, 1.0, true),
            outcome("table2", 0.0, 1.0, false),
        ];
        let m = manifest_json(&info, &o, 1.5);
        assert_eq!(m.get("errors"), Some(&Json::Int(1)));
        assert_eq!(m.get("uops_total"), Some(&Json::Int(100)));
        assert_eq!(m.get("jobs"), Some(&Json::Int(2)));
        let exps = match m.get("experiments") {
            Some(Json::Arr(v)) => v,
            other => panic!("experiments missing: {other:?}"),
        };
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("artifact"), Some(&Json::from("table1.json")));
    }

    #[test]
    fn metrics_blocks_round_trip_through_artifacts() {
        let snap = m3d_obs::MetricsSnapshot {
            counters: vec![
                ("thermal.iterations".to_owned(), 321),
                ("thermal.warm_start.hits".to_owned(), 4),
            ],
            histograms: vec![m3d_obs::HistogramSnapshot {
                name: "thermal.residual_k".to_owned(),
                count: 2,
                sum: 3.0e-5,
                min: 1.0e-5,
                max: 2.0e-5,
                buckets: vec![(-17, 2)],
                exact: vec![],
            }],
        };
        let mut o = outcome("table1", 0.0, 0.5, true);
        o.metrics = Some(snap.clone());
        let j = experiment_json(&o);
        assert_eq!(j.get("schema_version"), Some(&Json::Int(2)));
        let parsed = Json::parse(&j.render()).expect("artifact parses");
        let back =
            m3d_core::report::metrics_from_json(parsed.get("metrics").expect("metrics block"))
                .expect("decodes");
        assert_eq!(back, snap);

        // The manifest aggregates two outcomes' snapshots.
        let mut o2 = outcome("table2", 0.0, 0.5, true);
        o2.metrics = Some(snap.clone());
        let info = RunInfo {
            quick: true,
            jobs: 1,
            scale: m3d_core::experiments::RunScale::quick(),
            wanted: Vec::new(),
        };
        let m = manifest_json(&info, &[o, o2], 1.0);
        let agg =
            m3d_core::report::metrics_from_json(m.get("metrics").expect("agg")).expect("decodes");
        assert_eq!(agg.counter("thermal.iterations"), Some(642));
        assert_eq!(
            agg.histogram("thermal.residual_k").map(|h| h.count),
            Some(4)
        );
    }

    #[test]
    fn artifacts_without_metrics_write_null_blocks() {
        let o = outcome("table1", 0.0, 0.5, true);
        let j = experiment_json(&o);
        assert_eq!(j.get("metrics"), Some(&Json::Null));
        let info = RunInfo {
            quick: true,
            jobs: 1,
            scale: m3d_core::experiments::RunScale::quick(),
            wanted: Vec::new(),
        };
        let m = manifest_json(&info, std::slice::from_ref(&o), 1.0);
        assert_eq!(m.get("metrics"), Some(&Json::Null));
    }

    #[test]
    fn artifacts_land_on_disk() {
        let dir = std::env::temp_dir().join(format!("m3d-artifacts-{}", std::process::id()));
        let info = RunInfo {
            quick: true,
            jobs: 1,
            scale: m3d_core::experiments::RunScale::quick(),
            wanted: Vec::new(),
        };
        let o = [outcome("table1", 0.0, 0.1, true)];
        let manifest = write_artifacts(&dir, &info, &o, 0.1).expect("writable temp dir");
        let text = std::fs::read_to_string(&manifest).expect("manifest written");
        assert!(text.contains("\"errors\": 0"));
        assert!(dir.join("table1.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
