//! Figures 6 and 7: speed-up and normalised energy of the single-core M3D
//! designs over the 2D baseline, across the 21 SPEC CPU2006 applications.
//!
//! One simulation per (application, design) pair supplies both figures: the
//! speed-up comes from wall-clock time at each design's frequency, the
//! energy from the power model under each design's array/logic/clock scales.

use crate::configs::DesignPoint;
use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::experiments::RunScale;
use crate::planner::DesignSpace;
use crate::report::{ratio, Json, Table};
use m3d_power::model::CorePowerModel;
use m3d_uarch::stats::PerfResult;
use m3d_uarch::{SimBatch, SimError, SimInterval, SimPoint};
use m3d_workloads::spec::spec2006;

/// Trace seed shared by every single-core simulation (also exported from
/// `m3d_bench::artifacts`).
const SEED: u64 = 0xF16;

/// Results for one application across all designs.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRow {
    /// Application name.
    pub app: String,
    /// Speed-up over Base, in [`DesignPoint::ALL`] order.
    pub speedup: Vec<f64>,
    /// Energy normalised to Base, same order.
    pub energy: Vec<f64>,
    /// Base average power, watts (used by the thermal experiment).
    pub base_power_w: f64,
    /// Raw per-design results (for downstream consumers).
    pub results: Vec<PerfResult>,
}

/// Figures 6 + 7 combined result.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleCoreStudy {
    /// Per-application rows, plus geometric means appended by the renderers.
    pub rows: Vec<AppRow>,
    /// Simulations whose measured interval hit the livelock cap (healthy
    /// runs: zero). Non-zero counts are surfaced in the report meta and on
    /// stderr because the affected speed-up/energy values cover a
    /// truncated interval.
    pub cap_exhausted: usize,
}

impl SingleCoreStudy {
    /// Average speed-up per design (arithmetic, as in the paper's "Average"
    /// bars).
    pub fn average_speedup(&self) -> Vec<f64> {
        average(self.rows.iter().map(|r| &r.speedup))
    }

    /// Average normalised energy per design.
    pub fn average_energy(&self) -> Vec<f64> {
        average(self.rows.iter().map(|r| &r.energy))
    }
}

fn average<'a>(it: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut sum: Vec<f64> = Vec::new();
    let mut n = 0usize;
    for v in it {
        if sum.is_empty() {
            sum = vec![0.0; v.len()];
        }
        for (s, x) in sum.iter_mut().zip(v) {
            *s += x;
        }
        n += 1;
    }
    sum.iter().map(|s| s / n.max(1) as f64).collect()
}

/// The batch point for one (application, design) pair. Every simulation in
/// this study is "fresh machine → warm-up → measure" on one core, which is
/// exactly a single-core [`SimPoint`]. Figure 8 simulates the same points.
pub(crate) fn point(
    app: &m3d_workloads::WorkloadProfile,
    d: DesignPoint,
    scale: RunScale,
) -> SimPoint {
    SimPoint::single(
        d.core_config(),
        app.clone(),
        SEED,
        SimInterval {
            warmup: scale.warmup,
            measure: scale.measure,
        },
    )
}

/// Run the single-core study (Figures 6 and 7) through the batch engine
/// across `jobs` worker lanes. The 126 (application × design) points are
/// independent, so results are identical for every `jobs` value.
pub fn run(space: &DesignSpace, scale: RunScale, jobs: usize) -> Result<SingleCoreStudy, SimError> {
    let apps = spec2006();
    let points: Vec<SimPoint> = apps
        .iter()
        .flat_map(|app| DesignPoint::ALL.iter().map(|&d| point(app, d, scale)))
        .collect();
    let outcomes = SimBatch::new(jobs).run(&points);
    let model = CorePowerModel::new_22nm();
    let n_designs = DesignPoint::ALL.len();
    let mut cap_exhausted = 0usize;
    let mut rows = Vec::with_capacity(apps.len());
    for (ai, app) in apps.iter().enumerate() {
        let mut results = Vec::with_capacity(n_designs);
        for outcome in &outcomes[ai * n_designs..(ai + 1) * n_designs] {
            let r = outcome.clone()?;
            cap_exhausted += usize::from(r.cap_exhausted);
            results.push(r);
        }
        let energies: Vec<f64> = DesignPoint::ALL
            .iter()
            .zip(&results)
            .map(|(&d, r)| model.energy(r, &d.power_config(space)).total_j())
            .collect();
        let base = &results[0];
        let base_e = energies[0];
        let base_power = model
            .energy(base, &DesignPoint::Base.power_config(space))
            .average_power_w();
        rows.push(AppRow {
            app: app.name.clone(),
            speedup: results.iter().map(|r| r.speedup_over(base)).collect(),
            energy: energies.iter().map(|e| e / base_e).collect(),
            base_power_w: base_power,
            results,
        });
    }
    Ok(SingleCoreStudy {
        rows,
        cap_exhausted,
    })
}

fn render(
    study: &SingleCoreStudy,
    values: impl Fn(&AppRow) -> &Vec<f64>,
    avg: Vec<f64>,
    title: &str,
) -> String {
    let mut header = vec!["App".to_owned()];
    header.extend(DesignPoint::ALL.iter().map(|d| d.label().to_owned()));
    let mut t = Table::new(header);
    for r in &study.rows {
        let mut cells = vec![r.app.clone()];
        cells.extend(values(r).iter().map(|v| ratio(*v)));
        t.row(cells);
    }
    let mut cells = vec!["Average".to_owned()];
    cells.extend(avg.iter().map(|v| ratio(*v)));
    t.row(cells);
    format!("{title}\n{}", t.render())
}

/// Render Figure 6 (speed-up over Base).
pub fn fig6_text(study: &SingleCoreStudy) -> String {
    render(
        study,
        |r| &r.speedup,
        study.average_speedup(),
        "Figure 6: speed-up of M3D designs over Base (2D)",
    )
}

/// Render Figure 7 (energy normalised to Base).
pub fn fig7_text(study: &SingleCoreStudy) -> String {
    render(
        study,
        |r| &r.energy,
        study.average_energy(),
        "Figure 7: energy of M3D designs normalised to Base (2D)",
    )
}

/// Registry entry point for Figures 6 and 7 (one shared simulation run).
pub fn report(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let space = ctx.space();
    let t_space = t0.elapsed().as_secs_f64();
    eprintln!("[repro] running single-core study (21 apps x 6 designs)...");
    let t1 = std::time::Instant::now();
    let study = run(space, ctx.scale(), ctx.jobs())?;
    let t_sim = t1.elapsed().as_secs_f64();
    let scale = ctx.scale();
    let uops = (study.rows.len() * DesignPoint::ALL.len()) as u64 * (scale.warmup + scale.measure);
    if study.cap_exhausted > 0 {
        eprintln!(
            "[repro] WARNING: {} single-core simulation(s) hit the livelock \
             cap; the affected intervals are truncated",
            study.cap_exhausted
        );
    }
    // The cap field is emitted only when non-zero so that healthy runs keep
    // byte-identical artifacts.
    let mut meta_fields = vec![
        (
            "designs",
            Json::arr(DesignPoint::ALL.iter().map(|d| Json::from(d.label()))),
        ),
        ("apps", Json::from(study.rows.len())),
        (
            "average_speedup",
            Json::arr(study.average_speedup().into_iter().map(Json::from)),
        ),
        (
            "average_energy",
            Json::arr(study.average_energy().into_iter().map(Json::from)),
        ),
    ];
    if study.cap_exhausted > 0 {
        meta_fields.push(("cap_exhausted_points", Json::from(study.cap_exhausted)));
    }
    Ok(ExperimentReport {
        sections: vec![
            Section::named("fig6", fig6_text(&study)),
            Section::named("fig7", fig7_text(&study)),
        ],
        rows: Json::arr(study.rows.iter().map(|r| {
            Json::obj([
                ("app", Json::from(r.app.clone())),
                (
                    "speedup",
                    Json::arr(r.speedup.iter().map(|&v| Json::from(v))),
                ),
                ("energy", Json::arr(r.energy.iter().map(|&v| Json::from(v)))),
                ("base_power_w", Json::from(r.base_power_w)),
            ])
        })),
        meta: Json::obj(meta_fields),
        phases: vec![("design_space", t_space), ("simulate", t_sim)],
        uops,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DesignSpace;
    use std::sync::OnceLock;

    fn study() -> &'static SingleCoreStudy {
        static S: OnceLock<SingleCoreStudy> = OnceLock::new();
        S.get_or_init(|| {
            run(&DesignSpace::compute(), RunScale::quick(), 1)
                .expect("paper design points are valid")
        })
    }

    fn idx(d: DesignPoint) -> usize {
        DesignPoint::ALL
            .iter()
            .position(|&x| x == d)
            .expect("known")
    }

    #[test]
    fn m3d_iso_speedup_in_paper_band() {
        // Paper: M3D-Iso averages 1.28x over Base; our model lands in the
        // 1.10-1.20 range at full scale (see EXPERIMENTS.md), lower still on
        // the quick test windows.
        let s = study().average_speedup()[idx(DesignPoint::M3dIso)];
        assert!(s > 1.06 && s < 1.45, "M3D-Iso speedup {s}");
    }

    #[test]
    fn design_ordering_matches_figure6() {
        // Base < TSV3D < HetNaive < Het <= Iso < HetAgg on average.
        let avg = study().average_speedup();
        let v = |d| avg[idx(d)];
        assert!((v(DesignPoint::Base) - 1.0).abs() < 1e-9);
        assert!(v(DesignPoint::Tsv3d) > 1.0);
        assert!(v(DesignPoint::Tsv3d) < v(DesignPoint::M3dHetNaive));
        assert!(v(DesignPoint::M3dHetNaive) < v(DesignPoint::M3dHet));
        assert!(v(DesignPoint::M3dHet) <= v(DesignPoint::M3dIso) + 0.02);
        assert!(v(DesignPoint::M3dIso) < v(DesignPoint::M3dHetAgg));
    }

    #[test]
    fn m3d_energy_savings_in_paper_band() {
        // Paper: all M3D designs save ≈40% energy; TSV3D saves ≈24%.
        let avg = study().average_energy();
        let het = avg[idx(DesignPoint::M3dHet)];
        let tsv = avg[idx(DesignPoint::Tsv3d)];
        assert!(het < 0.80 && het > 0.45, "M3D-Het energy {het}");
        assert!(tsv > het && tsv < 0.95, "TSV3D energy {tsv}");
    }

    #[test]
    fn memory_bound_apps_gain_least() {
        // Mcf (DRAM-latency bound) must gain less from M3D-Het than the
        // average app.
        let s = study();
        let het = idx(DesignPoint::M3dHet);
        let mcf = s
            .rows
            .iter()
            .find(|r| r.app == "Mcf")
            .expect("Mcf present")
            .speedup[het];
        let avg = s.average_speedup()[het];
        assert!(mcf < avg, "mcf {mcf} vs avg {avg}");
    }

    #[test]
    fn renders() {
        assert!(fig6_text(study()).contains("Average"));
        assert!(fig7_text(study()).contains("Figure 7"));
    }
}
