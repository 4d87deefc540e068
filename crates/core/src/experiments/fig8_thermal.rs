//! Figure 8: peak temperature of Base (2D), TSV3D, and M3D-Het across the
//! SPEC applications.
//!
//! Per application: run the design's simulation, split the measured power
//! over the Ryzen-like floorplan blocks, and solve the steady-state thermal
//! grid for the design's layer stack. The 3D designs fold the floorplan to
//! 50% footprint (the paper's conservative assumption) and split each
//! block's power across the two device layers.
//!
//! The three designs' [`ThermalModel`]s are assembled once up front (via the
//! process-wide model cache) and shared by every application; applications
//! are distributed over worker threads, and within a worker each design's
//! solve warm-starts from the previous application's temperature field —
//! successive SPEC apps produce similar fields, so this typically cuts the
//! sweep count severalfold.

use crate::configs::DesignPoint;
use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::experiments::{par_map_with, RunScale};
use crate::planner::DesignSpace;
use crate::report::{thermal_stats_text, Json, Table};
use m3d_power::model::CorePowerModel;
use m3d_tech::layers::LayerStack;
use m3d_thermal::floorplan::Floorplan;
use m3d_thermal::model::{shared_cache, SolveStatsSummary, ThermalModel};
use m3d_thermal::solver::{Solution, ThermalConfig};
use m3d_uarch::Multicore;
use m3d_workloads::spec::spec2006;
use std::sync::Arc;

/// 2D core area at 22 nm, m² (Ryzen-class core scaled).
pub const CORE_AREA_M2: f64 = 9.0e-6;
/// Share of each block's power dissipated in the bottom (fast) layer.
const BOTTOM_POWER_SHARE: f64 = 0.55;
/// Worker-thread cap for the per-application fan-out.
const MAX_APP_THREADS: usize = 8;

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

/// The three assembled per-design models the study shares across apps.
pub(crate) struct DesignModels {
    /// Unfolded 2D floorplan (also the folded one's source of block names).
    pub(crate) fp_2d: Floorplan,
    /// Folded (half-footprint) floorplan used by the 3D designs.
    pub(crate) fp_3d: Floorplan,
    /// (model, came-from-cache) per design: Base, TSV3D, M3D-Het.
    pub(crate) base: (Arc<ThermalModel>, bool),
    pub(crate) tsv: (Arc<ThermalModel>, bool),
    pub(crate) het: (Arc<ThermalModel>, bool),
}

impl DesignModels {
    /// Assemble (or fetch from the shared cache) all three design models.
    pub(crate) fn build(cfg: &ThermalConfig) -> Self {
        let fp_2d = Floorplan::ryzen_like(CORE_AREA_M2);
        let fp_3d = fp_2d.scaled(0.5);
        let cache = shared_cache();
        let one = |stack: &LayerStack, fps: &[Floorplan]| {
            cache
                .get_or_build(stack, fps, cfg)
                .expect("default thermal config and ryzen floorplan are valid")
        };
        Self {
            base: one(&LayerStack::planar_2d(), std::slice::from_ref(&fp_2d)),
            tsv: one(&LayerStack::tsv3d(), &[fp_3d.clone(), fp_3d.clone()]),
            het: one(&LayerStack::m3d(), &[fp_3d.clone(), fp_3d.clone()]),
            fp_2d,
            fp_3d,
        }
    }

    /// Split named block powers into the folded bottom/top power vectors.
    pub(crate) fn folded_powers(&self, blocks: &[(&str, f64)]) -> Vec<Vec<f64>> {
        let bottom: Vec<(&str, f64)> = blocks
            .iter()
            .map(|&(n, w)| (n, w * BOTTOM_POWER_SHARE))
            .collect();
        let top: Vec<(&str, f64)> = blocks
            .iter()
            .map(|&(n, w)| (n, w * (1.0 - BOTTOM_POWER_SHARE)))
            .collect();
        vec![
            self.fp_3d.power_from_named(&bottom),
            self.fp_3d.power_from_named(&top),
        ]
    }
}

/// Per-worker warm-start fields, one per design.
#[derive(Default)]
struct WarmFields {
    base: Option<Solution>,
    tsv: Option<Solution>,
    het: Option<Solution>,
}

/// Run the thermal study over a subset (or all) of SPEC.
pub fn run(space: &DesignSpace, scale: RunScale, max_apps: usize) -> Vec<ThermalRow> {
    run_with_stats(space, scale, max_apps).0
}

/// Like [`run`], but also returns the accumulated solver statistics
/// (iterations, warm starts, cache hits, wall time) for the `repro` report.
pub fn run_with_stats(
    space: &DesignSpace,
    scale: RunScale,
    max_apps: usize,
) -> (Vec<ThermalRow>, SolveStatsSummary) {
    let model = CorePowerModel::new_22nm();
    let tcfg = ThermalConfig::default();
    let designs = DesignModels::build(&tcfg);
    let apps: Vec<_> = spec2006().into_iter().take(max_apps).collect();

    let results = par_map_with(
        &apps,
        MAX_APP_THREADS,
        WarmFields::default,
        |warm, _, app| {
            let powers_for = |d: DesignPoint| {
                let mut core = Multicore::new(d.core_config(), app, 0xF16, 1);
                let _ = core.run(scale.warmup);
                let r = core.run(scale.measure);
                model.block_powers(&r, &d.power_config(space))
            };
            let base_blocks = powers_for(DesignPoint::Base);
            let tsv_blocks = powers_for(DesignPoint::Tsv3d);
            let het_blocks = powers_for(DesignPoint::M3dHet);

            let mut stats = SolveStatsSummary::default();
            let mut run_one = |(m, cached): &(Arc<ThermalModel>, bool),
                               powers: Vec<Vec<f64>>,
                               prev: &mut Option<Solution>| {
                let (sol, mut s) = m
                    .solve_from(&powers, prev.as_ref())
                    .expect("power vectors were built from the model's floorplans");
                s.assembly_cache_hit = *cached || prev.is_some();
                stats.absorb(&s);
                *prev = Some(sol.clone());
                sol
            };
            let base = run_one(
                &designs.base,
                vec![designs.fp_2d.power_from_named(&base_blocks)],
                &mut warm.base,
            );
            let tsv = run_one(
                &designs.tsv,
                designs.folded_powers(&tsv_blocks),
                &mut warm.tsv,
            );
            let het = run_one(
                &designs.het,
                designs.folded_powers(&het_blocks),
                &mut warm.het,
            );

            let row = ThermalRow {
                app: app.name.clone(),
                base_c: base.peak_c,
                tsv3d_c: tsv.peak_c,
                m3d_het_c: het.peak_c,
                hottest_block: het
                    .hottest_block()
                    .map(|(n, _)| n.to_owned())
                    .unwrap_or_default(),
            };
            (row, stats)
        },
    );

    let mut total = SolveStatsSummary::default();
    let rows = results
        .into_iter()
        .map(|(row, s)| {
            total.merge(&s);
            row
        })
        .collect();
    (rows, total)
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
    let (rows, stats) = run_with_stats(space, ctx.scale(), apps);
    let wall = t1.elapsed().as_secs_f64();
    let scale = ctx.scale();
    let uops = (rows.len() * 3) as u64 * (scale.warmup + scale.measure);
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
        R.get_or_init(|| run(&DesignSpace::compute(), RunScale::quick(), 4))
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
        let (_, first) = run_with_stats(&space, RunScale::quick(), 3);
        let (rows2, second) = run_with_stats(&space, RunScale::quick(), 3);
        assert_eq!(rows2.len(), 3);
        assert_eq!(first.solves, 9, "3 apps x 3 designs");
        assert!(second.cache_hits >= second.solves.saturating_sub(3));
        assert_eq!(second.non_converged, 0);
        assert!(second.max_residual_k < ThermalConfig::default().tolerance_k);
    }
}
