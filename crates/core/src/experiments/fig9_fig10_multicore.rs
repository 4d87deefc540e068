//! Figures 9 and 10: speed-up and normalised energy of the multicore M3D
//! designs over a four-core 2D baseline, across the 15 SPLASH-2/PARSEC
//! applications.
//!
//! Every design runs the same per-core work; M3D-Het-2X runs it on eight
//! cores, so it finishes the doubled total work in roughly the same wall
//! clock — the paper reports its speed-up for the same *total* work, which
//! the study captures by normalising completion time per unit of work
//! (see [`ParallelRow::speedup`]).
//!
//! Each design also gets a per-core steady-state thermal solve (peak die
//! temperature at the application's measured per-core power), on the
//! planner's stack thermal models from the shared cache. Applications fan
//! out over worker threads; within a worker, each design's solve
//! warm-starts from the previous application's field.

use crate::configs::MulticoreDesign;
use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::experiments::{par_map_with, RunScale};
use crate::planner::{DesignModels, DesignSpace};
use crate::report::{ratio, thermal_stats_text, Json, Table};
use m3d_power::model::CorePowerModel;
use m3d_thermal::model::{Solution, SolveStatsSummary};
use m3d_uarch::stats::PerfResult;
use m3d_uarch::{SimBatch, SimError, SimInterval, SimPoint};
use m3d_workloads::parallel::splash_parsec;

/// Trace seed shared by every multicore simulation (also exported from
/// `m3d_bench::artifacts`).
const SEED: u64 = 0xF19;

/// Results for one parallel application.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelRow {
    /// Application name.
    pub app: String,
    /// Speed-up over the 4-core Base for the same total work, in
    /// [`MulticoreDesign::ALL`] order.
    pub speedup: Vec<f64>,
    /// Energy (for the same total work) normalised to Base.
    pub energy: Vec<f64>,
    /// Average chip power per design, watts.
    pub power_w: Vec<f64>,
    /// Peak per-core die temperature per design, °C.
    pub peak_c: Vec<f64>,
}

/// The Figure 9/10 study.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticoreStudy {
    /// Per-application rows.
    pub rows: Vec<ParallelRow>,
    /// Simulations whose measured interval hit the livelock cap (healthy
    /// runs: zero). Surfaced in the report meta and on stderr because the
    /// affected rows cover a truncated interval.
    pub cap_exhausted: usize,
}

impl MulticoreStudy {
    /// Average speed-up per design.
    pub fn average_speedup(&self) -> Vec<f64> {
        avg(self.rows.iter().map(|r| &r.speedup))
    }

    /// Average normalised energy per design.
    pub fn average_energy(&self) -> Vec<f64> {
        avg(self.rows.iter().map(|r| &r.energy))
    }

    /// Average power per design, watts.
    pub fn average_power(&self) -> Vec<f64> {
        avg(self.rows.iter().map(|r| &r.power_w))
    }

    /// Average peak die temperature per design, °C.
    pub fn average_peak_c(&self) -> Vec<f64> {
        avg(self.rows.iter().map(|r| &r.peak_c))
    }
}

fn avg<'a>(it: impl Iterator<Item = &'a Vec<f64>>) -> Vec<f64> {
    let mut sum: Vec<f64> = Vec::new();
    let mut n = 0;
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

/// Time per unit of work: completion time divided by total instructions.
fn time_per_work(r: &PerfResult) -> f64 {
    r.time_s() / r.instructions as f64
}

/// Run the multicore study: the 75 (application × design) cycle
/// simulations run through the batch engine across `jobs` worker lanes
/// first, then the thermal fan-out consumes the results with its
/// per-worker warm-start chains, so every value is the same for any
/// `jobs`. Returns the study and the accumulated thermal-solver statistics
/// for the `repro` report.
pub fn run(
    space: &DesignSpace,
    scale: RunScale,
    jobs: usize,
) -> Result<(MulticoreStudy, SolveStatsSummary), SimError> {
    let model = CorePowerModel::new_22nm();
    let designs = DesignModels::build();
    let apps: Vec<_> = splash_parsec();

    let n_designs = MulticoreDesign::ALL.len();
    let points: Vec<SimPoint> = apps
        .iter()
        .flat_map(|app| {
            MulticoreDesign::ALL.iter().map(|&d| {
                SimPoint::multi(
                    d.core_config(),
                    app.clone(),
                    SEED,
                    d.n_cores(),
                    SimInterval {
                        warmup: scale.warmup,
                        measure: scale.measure,
                    },
                )
            })
        })
        .collect();
    let sims: Vec<PerfResult> = SimBatch::new(jobs)
        .run(&points)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let cap_exhausted = sims.iter().filter(|r| r.cap_exhausted).count();

    let results = par_map_with(
        &apps,
        || vec![None::<Solution>; MulticoreDesign::ALL.len()],
        |warm, ai, app| {
            let results: Vec<(MulticoreDesign, PerfResult)> = MulticoreDesign::ALL
                .iter()
                .enumerate()
                .map(|(di, &d)| (d, sims[ai * n_designs + di]))
                .collect();
            let breakdowns: Vec<_> = results
                .iter()
                .map(|(d, r)| model.energy(r, &d.power_config(space)))
                .collect();
            let (base_t, base_e) = (time_per_work(&results[0].1), {
                // Energy per unit work of the Base design.
                breakdowns[0].total_j() / results[0].1.instructions as f64
            });

            // Per-core thermal check: the per-core power spread evenly over
            // the design's stack, warm-started per design.
            let mut stats = SolveStatsSummary::default();
            let peak_c: Vec<f64> = MulticoreDesign::ALL
                .iter()
                .zip(&breakdowns)
                .zip(warm.iter_mut())
                .map(|((&d, b), prev)| {
                    let core_w = b.average_power_w() / d.n_cores() as f64;
                    let slot = d.stack_slot();
                    let powers = designs.uniform(slot, core_w);
                    designs.solve(slot, &powers, prev, &mut stats).peak_c
                })
                .collect();

            let row = ParallelRow {
                app: app.name.clone(),
                speedup: results
                    .iter()
                    .map(|(_, r)| base_t / time_per_work(r))
                    .collect(),
                energy: breakdowns
                    .iter()
                    .zip(&results)
                    .map(|(b, (_, r))| (b.total_j() / r.instructions as f64) / base_e)
                    .collect(),
                power_w: breakdowns.iter().map(|b| b.average_power_w()).collect(),
                peak_c,
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
    Ok((
        MulticoreStudy {
            rows,
            cap_exhausted,
        },
        total,
    ))
}

fn render(
    study: &MulticoreStudy,
    values: impl Fn(&ParallelRow) -> &Vec<f64>,
    avg_row: Vec<f64>,
    title: &str,
) -> String {
    let mut header = vec!["App".to_owned()];
    header.extend(MulticoreDesign::ALL.iter().map(|d| d.label().to_owned()));
    let mut t = Table::new(header);
    for r in &study.rows {
        let mut cells = vec![r.app.clone()];
        cells.extend(values(r).iter().map(|v| ratio(*v)));
        t.row(cells);
    }
    let mut cells = vec!["Average".to_owned()];
    cells.extend(avg_row.iter().map(|v| ratio(*v)));
    t.row(cells);
    format!("{title}\n{}", t.render())
}

/// Render Figure 9 (speed-up over the 4-core Base).
pub fn fig9_text(study: &MulticoreStudy) -> String {
    render(
        study,
        |r| &r.speedup,
        study.average_speedup(),
        "Figure 9: speed-up of multicore M3D designs over 4-core Base (2D)",
    )
}

/// Render Figure 10 (energy normalised to the 4-core Base).
pub fn fig10_text(study: &MulticoreStudy) -> String {
    render(
        study,
        |r| &r.energy,
        study.average_energy(),
        "Figure 10: energy of multicore M3D designs normalised to 4-core Base",
    )
}

/// Render the per-design thermal check that rides along with Figure 9/10.
pub fn thermal_text(study: &MulticoreStudy) -> String {
    render(
        study,
        |r| &r.peak_c,
        study.average_peak_c(),
        "Multicore thermal check: peak per-core die temperature (C)",
    )
}

/// Registry entry point for Figures 9 and 10 plus the thermal check (one
/// shared simulation run).
pub fn report(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let space = ctx.space();
    let t_space = t0.elapsed().as_secs_f64();
    eprintln!("[repro] running multicore study (15 apps x 5 designs)...");
    let t1 = std::time::Instant::now();
    let (study, stats) = run(space, ctx.scale(), ctx.jobs())?;
    let wall = t1.elapsed().as_secs_f64();
    let scale = ctx.scale();
    let cores_total: usize = MulticoreDesign::ALL.iter().map(|d| d.n_cores()).sum();
    let uops = (study.rows.len() * cores_total) as u64 * (scale.warmup + scale.measure);
    if study.cap_exhausted > 0 {
        eprintln!(
            "[repro] WARNING: {} multicore simulation(s) hit the livelock \
             cap; the affected intervals are truncated",
            study.cap_exhausted
        );
    }
    // Emitted only when non-zero: healthy runs keep byte-identical
    // artifacts.
    let mut meta_fields = vec![
        (
            "designs",
            Json::arr(MulticoreDesign::ALL.iter().map(|d| Json::from(d.label()))),
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
        (
            "average_peak_c",
            Json::arr(study.average_peak_c().into_iter().map(Json::from)),
        ),
    ];
    if study.cap_exhausted > 0 {
        meta_fields.push(("cap_exhausted_points", Json::from(study.cap_exhausted)));
    }
    Ok(ExperimentReport {
        sections: vec![
            Section::named("fig9", fig9_text(&study)),
            Section::named("fig10", fig10_text(&study)),
            Section::always(thermal_text(&study)),
            Section::always(thermal_stats_text("fig9/fig10", &stats)),
            Section::always(format!("[fig9/fig10] experiment wall time: {wall:.2} s\n")),
        ],
        rows: Json::arr(study.rows.iter().map(|r| {
            Json::obj([
                ("app", Json::from(r.app.clone())),
                (
                    "speedup",
                    Json::arr(r.speedup.iter().map(|&v| Json::from(v))),
                ),
                ("energy", Json::arr(r.energy.iter().map(|&v| Json::from(v)))),
                (
                    "power_w",
                    Json::arr(r.power_w.iter().map(|&v| Json::from(v))),
                ),
                ("peak_c", Json::arr(r.peak_c.iter().map(|&v| Json::from(v)))),
            ])
        })),
        meta: Json::obj(meta_fields),
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

    fn study() -> &'static MulticoreStudy {
        static S: OnceLock<MulticoreStudy> = OnceLock::new();
        S.get_or_init(|| {
            run(&DesignSpace::compute(), RunScale::quick(), 1)
                .expect("paper multicore designs are valid")
                .0
        })
    }

    fn idx(d: MulticoreDesign) -> usize {
        MulticoreDesign::ALL
            .iter()
            .position(|&x| x == d)
            .expect("known")
    }

    #[test]
    fn het_2x_wins_big() {
        // Paper: M3D-Het-2X is ~1.92x over the 4-core Base — the headline.
        let avg = study().average_speedup();
        let x2 = avg[idx(MulticoreDesign::M3dHet2x8)];
        let het = avg[idx(MulticoreDesign::M3dHet4)];
        assert!(x2 > 1.5 && x2 < 2.6, "Het-2X speedup {x2}");
        assert!(x2 > het, "2X {x2} must beat 4-core Het {het}");
    }

    #[test]
    fn design_ordering_matches_figure9() {
        let avg = study().average_speedup();
        let v = |d| avg[idx(d)];
        assert!((v(MulticoreDesign::Base4) - 1.0).abs() < 1e-9);
        assert!(v(MulticoreDesign::Tsv3d4) > 1.0);
        assert!(v(MulticoreDesign::Tsv3d4) < v(MulticoreDesign::M3dHet4));
    }

    #[test]
    fn m3d_designs_save_energy() {
        // Paper: M3D-Het −33%, M3D-Het-2X −39%, TSV3D −17%.
        let avg = study().average_energy();
        let het = avg[idx(MulticoreDesign::M3dHet4)];
        let x2 = avg[idx(MulticoreDesign::M3dHet2x8)];
        let tsv = avg[idx(MulticoreDesign::Tsv3d4)];
        assert!(het < 0.85, "Het energy {het}");
        assert!(x2 < het + 0.05, "2X energy {x2} vs Het {het}");
        assert!(tsv > het, "TSV {tsv} saves less than Het {het}");
    }

    #[test]
    fn het_2x_stays_near_iso_power() {
        // Paper: Het-2X runs twice the cores within ~13% more power than the
        // 4-core Base. Allow a generous band for the model.
        let avg = study().average_power();
        let base = avg[idx(MulticoreDesign::Base4)];
        let x2 = avg[idx(MulticoreDesign::M3dHet2x8)];
        let ratio = x2 / base;
        assert!(ratio < 1.45, "Het-2X power ratio {ratio}");
    }

    #[test]
    fn thermal_check_is_plausible_and_ranks_tsv_hottest() {
        // TSV3D's thick bonded die between the hot layer and the sink makes
        // it the thermal outlier; everything stays above ambient.
        let avg = study().average_peak_c();
        for (d, t) in MulticoreDesign::ALL.iter().zip(&avg) {
            assert!(*t > 45.0 && *t < 130.0, "{d}: {t} C");
        }
        let tsv = avg[idx(MulticoreDesign::Tsv3d4)];
        let het = avg[idx(MulticoreDesign::M3dHet4)];
        assert!(tsv > het, "tsv {tsv} vs het {het}");
    }

    #[test]
    fn renders() {
        assert!(fig9_text(study()).contains("Figure 9"));
        assert!(fig10_text(study()).contains("Figure 10"));
        assert!(thermal_text(study()).contains("thermal check"));
    }
}
