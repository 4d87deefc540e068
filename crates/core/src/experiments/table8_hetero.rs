//! Table 8: reductions with the best hetero-layer partitioning (slow top
//! layer) compared to a 2D layout.

use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::planner::DesignSpace;
use crate::report::{pct, Json, Table};

/// Render Table 8 from a computed design space.
pub fn table8_text(space: &DesignSpace) -> String {
    let mut t = Table::new([
        "Structure",
        "Strategy",
        "Split(b/t)",
        "Upsize",
        "Latency",
        "Energy",
        "Area",
    ]);
    for p in &space.het_best {
        t.row([
            p.structure.label().to_owned(),
            p.design.strategy.abbrev().to_owned(),
            format!("{}/{}", p.design.bottom_share, p.design.top_share),
            format!("{:.1}x", p.design.top_upsize),
            pct(p.reduction.latency_pct),
            pct(p.reduction.energy_pct),
            pct(p.reduction.footprint_pct),
        ]);
    }
    format!(
        "Table 8: best hetero-layer partitioning vs 2D\n{}",
        t.render()
    )
}

/// Registry entry point for Table 8.
pub fn report(ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let space = ctx.space();
    let t_space = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let text = table8_text(space);
    Ok(ExperimentReport {
        sections: vec![Section::always(text)],
        rows: Json::arr(space.het_best.iter().map(|p| p.to_json())),
        meta: Json::obj([("structures", Json::from(space.het_best.len()))]),
        phases: vec![
            ("design_space", t_space),
            ("render", t1.elapsed().as_secs_f64()),
        ],
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::DesignSpace;
    use std::sync::OnceLock;

    fn space() -> &'static DesignSpace {
        static S: OnceLock<DesignSpace> = OnceLock::new();
        S.get_or_init(DesignSpace::compute)
    }

    #[test]
    fn hetero_reductions_remain_positive() {
        // Table 8: every structure still improves despite the slow top
        // layer (latency 13-40% in the paper).
        for p in &space().het_best {
            assert!(
                p.reduction.latency_pct > 0.0,
                "{}: {}",
                p.structure,
                p.reduction
            );
            assert!(p.reduction.footprint_pct > 15.0, "{}", p.structure);
        }
    }

    #[test]
    fn hetero_only_slightly_below_iso() {
        // "The numbers are only slightly lower" than Table 6 — we allow up
        // to ~15 percentage points on any single structure.
        let s = space();
        for (h, m) in s.het_best.iter().zip(&s.iso_best) {
            let gap = m.reduction.latency_pct - h.reduction.latency_pct;
            assert!(gap < 16.0, "{}: gap {gap} points", h.structure);
        }
    }

    #[test]
    fn bottom_layer_gets_the_larger_share() {
        for p in &space().het_best {
            assert!(
                p.design.bottom_share >= p.design.top_share,
                "{}",
                p.structure
            );
        }
    }

    #[test]
    fn renders() {
        assert!(table8_text(space()).contains("Table 8"));
    }
}
