//! Figure 8: peak temperature of Base (2D), TSV3D, and M3D-Het across the
//! SPEC applications.
//!
//! Per application: take the design's simulation, split the measured power
//! over the Ryzen-like floorplan blocks, and solve the steady-state thermal
//! grid for the design's layer stack. The 3D designs fold the floorplan to
//! 50% footprint (the paper's conservative assumption) and split each
//! block's power across the two device layers.
//!
//! The simulations are the Figure 6/7 points of the same (application,
//! design) pairs, run through the batch engine: when `fig6_fig7` ran first
//! in the same process (the registry orders fig8 after it), every one is a
//! memo-cache hit.
//!
//! The three stacks' thermal models are assembled once up front (via the
//! process-wide model cache) and shared by every application; applications
//! are distributed over worker threads, and within a worker each design's
//! solve warm-starts from the previous application's temperature field —
//! successive SPEC apps produce similar fields, so this typically cuts the
//! sweep count severalfold.

use crate::configs::DesignPoint;
use crate::experiments::fig6_fig7_single_core::point;
use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::experiments::{par_map_with, RunScale};
use crate::planner::{DesignModels, DesignSpace, CORE_AREA_M2};
use crate::report::{thermal_stats_text, Json, Table};
use m3d_power::model::CorePowerModel;
use m3d_thermal::model::{Solution, SolveStatsSummary};
use m3d_uarch::{SimBatch, SimError};
use m3d_workloads::spec::spec2006;

/// One application's peak temperatures.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalRow {
    /// Application name.
    pub app: String,
    /// Peak temperature of the Base 2D core, °C.
    pub base_c: f64,
    /// Peak temperature of the TSV3D core, °C.
    pub tsv3d_c: f64,
    /// Peak temperature of the M3D-Het core, °C.
    pub m3d_het_c: f64,
    /// Hottest block in the M3D-Het design.
    pub hottest_block: String,
}

/// The three designs the study compares, in row order; one per stack slot.
const DESIGNS: [DesignPoint; 3] = [DesignPoint::Base, DesignPoint::Tsv3d, DesignPoint::M3dHet];

/// Run the thermal study over the first `max_apps` SPEC applications,
/// simulating through the batch engine on `jobs` worker lanes, and return
/// the rows with the accumulated solver statistics (iterations, warm
/// starts, cache hits, wall time) for the `repro` report.
pub fn run(
    space: &DesignSpace,
    scale: RunScale,
    max_apps: usize,
    jobs: usize,
) -> Result<(Vec<ThermalRow>, SolveStatsSummary), SimError> {
    let model = CorePowerModel::new_22nm();
    let designs = DesignModels::build();
    let apps: Vec<_> = spec2006().into_iter().take(max_apps).collect();
    let points: Vec<_> = apps
        .iter()
        .flat_map(|app| DESIGNS.iter().map(move |&d| point(app, d, scale)))
        .collect();
    let perf = SimBatch::new(jobs)
        .run(&points)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;

    let results = par_map_with(&apps, <[Option<Solution>; 3]>::default, |warm, i, app| {
        let mut stats = SolveStatsSummary::default();
        let [base, tsv, het] = std::array::from_fn(|k| {
            let d = DESIGNS[k];
            let blocks = model.block_powers(&perf[i * DESIGNS.len() + k], &d.power_config(space));
            let slot = d.stack_slot();
            let powers = designs.named(slot, &blocks);
            let sol = designs.solve(slot, &powers, &mut warm[slot], &mut stats);
            let hottest = sol.hottest_block().map(|(n, _)| n.to_owned());
            (sol.peak_c, hottest.unwrap_or_default())
        });
        let row = ThermalRow {
            app: app.name.clone(),
            base_c: base.0,
            tsv3d_c: tsv.0,
            m3d_het_c: het.0,
            hottest_block: het.1,
        };
        (row, stats)
    });

    let mut total = SolveStatsSummary::default();
    let rows = results
        .into_iter()
        .map(|(row, s)| {
            total.merge(&s);
            row
        })
        .collect();
    Ok((rows, total))
}

/// Render Figure 8.
pub fn fig8_text(rows: &[ThermalRow]) -> String {
    let mut t = Table::new(["App", "Base (C)", "TSV3D (C)", "M3D-Het (C)", "Hot block"]);
    let mut sums = [0.0f64; 3];
    for r in rows {
        sums[0] += r.base_c;
        sums[1] += r.tsv3d_c;
        sums[2] += r.m3d_het_c;
        t.row([
            r.app.clone(),
            format!("{:.1}", r.base_c),
            format!("{:.1}", r.tsv3d_c),
            format!("{:.1}", r.m3d_het_c),
            r.hottest_block.clone(),
        ]);
    }
    let n = rows.len().max(1) as f64;
    t.row([
        "Average".to_owned(),
        format!("{:.1}", sums[0] / n),
        format!("{:.1}", sums[1] / n),
        format!("{:.1}", sums[2] / n),
        String::new(),
    ]);
    format!("Figure 8: peak temperature per design\n{}", t.render())
}

/// Registry entry point for Figure 8.
pub fn report(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let space = ctx.space();
    let t_space = t0.elapsed().as_secs_f64();
    eprintln!("[repro] running thermal study...");
    let apps = if ctx.quick() { 6 } else { 21 };
    let t1 = std::time::Instant::now();
    let (rows, stats) = run(space, ctx.scale(), apps, ctx.jobs())?;
    let wall = t1.elapsed().as_secs_f64();
    let scale = ctx.scale();
    let uops = (rows.len() * DESIGNS.len()) as u64 * (scale.warmup + scale.measure);
    Ok(ExperimentReport {
        sections: vec![
            Section::always(fig8_text(&rows)),
            Section::always(thermal_stats_text("fig8", &stats)),
            Section::always(format!("[fig8] experiment wall time: {wall:.2} s\n")),
        ],
        rows: Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("app", Json::from(r.app.clone())),
                ("base_c", Json::from(r.base_c)),
                ("tsv3d_c", Json::from(r.tsv3d_c)),
                ("m3d_het_c", Json::from(r.m3d_het_c)),
                ("hottest_block", Json::from(r.hottest_block.clone())),
            ])
        })),
        meta: Json::obj([
            ("apps", Json::from(rows.len())),
            ("core_area_m2", Json::from(CORE_AREA_M2)),
        ]),
        phases: vec![("design_space", t_space), ("simulate_and_solve", wall)],
        thermal: Some(stats),
        uops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DesignSpace;
    use std::sync::OnceLock;

    fn rows() -> &'static Vec<ThermalRow> {
        static R: OnceLock<Vec<ThermalRow>> = OnceLock::new();
        R.get_or_init(|| {
            run(&DesignSpace::compute(), RunScale::quick(), 4, 1)
                .expect("paper design points are valid")
                .0
        })
    }

    #[test]
    fn m3d_runs_only_slightly_hotter_than_base() {
        // Paper: M3D-Het peaks on average only ~5°C above Base, at most
        // ~10°C on any app.
        for r in rows() {
            let delta = r.m3d_het_c - r.base_c;
            assert!(delta > -3.0 && delta < 15.0, "{}: ΔT {delta}", r.app);
        }
    }

    #[test]
    fn tsv3d_runs_much_hotter_than_m3d() {
        // Paper: TSV3D averages ~30°C above Base and can exceed Tjmax.
        for r in rows() {
            assert!(
                r.tsv3d_c > r.m3d_het_c + 3.0,
                "{}: tsv {} vs m3d {}",
                r.app,
                r.tsv3d_c,
                r.m3d_het_c
            );
        }
    }

    #[test]
    fn temperatures_plausible() {
        for r in rows() {
            assert!(
                r.base_c > 45.0 && r.base_c < 105.0,
                "{}: {}",
                r.app,
                r.base_c
            );
        }
    }

    #[test]
    fn renders() {
        assert!(fig8_text(rows()).contains("Figure 8"));
    }

    #[test]
    fn stats_reflect_model_reuse() {
        // The second run of the same study must see the assembled models in
        // the shared cache, and warm starts must kick in past the first app
        // of each worker chunk.
        let space = DesignSpace::compute();
        let study = || run(&space, RunScale::quick(), 3, 1).expect("valid points");
        let (_, first) = study();
        let (rows2, second) = study();
        assert_eq!(rows2.len(), 3);
        assert_eq!(first.solves, 9, "3 apps x 3 designs");
        assert!(second.cache_hits >= second.solves.saturating_sub(3));
        assert_eq!(second.non_converged, 0);
        assert!(second.max_residual_k < m3d_thermal::model::ThermalConfig::default().tolerance_k);
    }
}
