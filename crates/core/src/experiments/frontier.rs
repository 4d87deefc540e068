//! The `frontier` experiment: a Pareto design-space exploration over every
//! Table 11 design and a DVFS grid, rendered as the frontier table.
//!
//! This is the registry face of [`crate::search`]: the same engine the
//! serve `plan` method streams over, run at the repro scale so the
//! artifacts carry a reference frontier. The default space sweeps all six
//! designs across a 0.55–1.00 V supply grid for three SPEC applications;
//! the four grid points above the 0.8 V nominal clamp to each design's
//! rated frequency and are pruned before simulation (the report prints the
//! pruning statistics so the win is visible, not asserted).

use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::report::{Json, Table};
use crate::search::{
    outcome_json, run_search, SearchOptions, SearchOutcome, SearchSpace, SearchSpaceBuilder,
};

/// The experiment's search space at the given run scale: all six designs,
/// a ten-point supply grid, three SPEC applications, one core.
pub fn default_space(scale: crate::experiments::RunScale) -> SearchSpace {
    SearchSpaceBuilder {
        designs: Vec::new(), // all six
        apps: vec!["Gcc".to_owned(), "Mcf".to_owned(), "Namd".to_owned()],
        vdds: (0..10).map(|i| 0.55 + 0.05 * i as f64).collect(),
        seed: 0xF07,
        warmup: Some(scale.warmup),
        measure: Some(scale.measure),
        chunk: Some(64),
        ..SearchSpaceBuilder::default()
    }
    .build()
    .expect("the built-in frontier space is valid")
}

/// Render the frontier table plus the pruning summary.
pub fn frontier_text(out: &SearchOutcome) -> String {
    let mut t = Table::new([
        "Design",
        "App",
        "Vdd",
        "f (GHz)",
        "IPC",
        "time (µs)",
        "energy (µJ)",
        "peak (°C)",
    ]);
    for p in &out.frontier {
        t.row([
            p.candidate.design.label().to_owned(),
            p.candidate.app.clone(),
            format!("{:.2}", p.candidate.vdd),
            format!("{:.2}", p.candidate.freq_ghz),
            format!("{:.2}", p.ipc),
            format!("{:.1}", p.time_s * 1e6),
            format!("{:.1}", p.energy_j * 1e6),
            format!("{:.1}", p.peak_c),
        ]);
    }
    let s = out.stats;
    format!(
        "Pareto frontier over (time, energy, peak temp), all designs x DVFS grid\n{}\
         {} candidates: {} pruned before simulation ({} equal-frequency, {} \
         floor-bounded), {} simulated, {} on the frontier\n",
        t.render(),
        s.candidates,
        s.pruned(),
        s.pruned_dominated,
        s.pruned_bounded,
        s.simulated,
        s.frontier,
    )
}

/// Registry entry point.
pub fn report(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let space = ctx.space();
    let t_space = t0.elapsed().as_secs_f64();
    let spec = default_space(ctx.scale());
    let t1 = std::time::Instant::now();
    let out = run_search(
        space,
        &spec,
        &SearchOptions {
            jobs: ctx.jobs(),
            ..SearchOptions::default()
        },
        |_| true,
    )
    .map_err(|e| ExperimentError::Panic(e.to_string()))?;
    let t_search = t1.elapsed().as_secs_f64();
    let uops = out.stats.simulated * (spec.interval().warmup + spec.interval().measure);
    Ok(ExperimentReport {
        sections: vec![Section::always(frontier_text(&out))],
        rows: outcome_json(&out),
        meta: Json::obj([("spec", spec.to_json())]),
        phases: vec![("design_space", t_space), ("search", t_search)],
        uops,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunScale;

    #[test]
    fn default_space_covers_all_designs_and_clamps() {
        let spec = default_space(RunScale::quick());
        assert_eq!(spec.n_candidates(), 180);
        let echo = spec.to_json();
        assert!(echo.render().contains("M3D-HetAgg"));
    }

    #[test]
    fn report_renders_frontier_and_pruning_stats() {
        let ctx = Ctx::builder()
            .quick(true)
            .scale(RunScale {
                warmup: 200,
                measure: 400,
            })
            .build()
            .expect("ctx");
        let r = report(&ctx).expect("experiment runs");
        let text = &r.sections[0].text;
        assert!(text.contains("Pareto frontier"));
        assert!(text.contains("pruned before simulation"));
        // The 0.85–1.00 V grid points clamp for every design: 4 of 10
        // voltages x 6 designs x 3 apps.
        assert!(text.contains("72 equal-frequency"));
        assert_eq!(r.rows.get("candidates"), Some(&Json::Int(180)));
        assert!(r.uops > 0);
    }
}
