//! Figure 5 and the Section 3.1/4.1 logic-stage results: the carry-skip
//! adder's critical path, the slack distribution, the hetero-layer logic
//! partition, and the ALU + bypass frequency/footprint gains.

use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::report::{pct, Json, Table};
use m3d_logic::adder::carry_skip_adder;
use m3d_logic::bypass::BypassStage;
use m3d_logic::partition::partition_hetero;
use m3d_tech::node::TechnologyNode;

/// The logic-stage result bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicResults {
    /// Fraction of adder gates strictly on the critical path.
    pub critical_fraction: f64,
    /// Fraction of gates with less than 20% slack.
    pub critical_fraction_20pct: f64,
    /// Fraction of gates placed in a 17%-slower top layer with no slowdown.
    pub top_fraction_at_17pct: f64,
    /// Frequency gain of the one-ALU + bypass stage in M3D.
    pub one_alu_gain: f64,
    /// Frequency gain of the four-ALU + bypass stage in M3D.
    pub four_alu_gain: f64,
    /// Energy saving of the four-ALU stage in M3D.
    pub four_alu_energy_saving: f64,
    /// Footprint reduction of the laid-out stage.
    pub footprint_reduction: f64,
}

/// Compute the logic-stage results.
pub fn fig5() -> LogicResults {
    let adder = carry_skip_adder(64, 4);
    let part = partition_hetero(&adder, 0.17);
    let node = TechnologyNode::n45();
    let one = BypassStage::new(1, node.clone());
    let four = BypassStage::new(4, node);
    LogicResults {
        critical_fraction: adder.critical_fraction(1e-6),
        critical_fraction_20pct: adder.critical_fraction(0.20),
        top_fraction_at_17pct: part.top_fraction(),
        one_alu_gain: one.frequency_gain_3d(),
        four_alu_gain: four.frequency_gain_3d(),
        four_alu_energy_saving: 1.0 - four.energy_scale_3d(),
        footprint_reduction: 1.0 - four.footprint_scale_3d(),
    }
}

/// Render the logic results against the paper's numbers.
pub fn fig5_text() -> String {
    let r = fig5();
    let mut t = Table::new(["Quantity", "Paper", "Measured"]);
    t.row([
        "Adder gates on critical path",
        "1.5%",
        &format!("{:.1}%", r.critical_fraction * 100.0),
    ]);
    t.row([
        "Gates critical at 20% slack",
        "38%",
        &format!("{:.0}%", r.critical_fraction_20pct * 100.0),
    ]);
    t.row([
        "Gates movable to 17%-slower top layer",
        ">=50%",
        &format!("{:.0}%", r.top_fraction_at_17pct * 100.0),
    ]);
    t.row([
        "1 ALU + bypass frequency gain (M3D)",
        "+15%",
        &pct(r.one_alu_gain * 100.0),
    ]);
    t.row([
        "4 ALUs + bypass frequency gain (M3D)",
        "+28%",
        &pct(r.four_alu_gain * 100.0),
    ]);
    t.row([
        "4 ALUs energy saving (M3D)",
        "10%",
        &format!("{:.0}%", r.four_alu_energy_saving * 100.0),
    ]);
    t.row([
        "Stage footprint reduction",
        "41%",
        &format!("{:.0}%", r.footprint_reduction * 100.0),
    ]);
    format!(
        "Figure 5 / Section 3.1: logic-stage partitioning results\n{}",
        t.render()
    )
}

/// Registry entry point for Figure 5 / Section 3.1.
pub fn report(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let r = fig5();
    Ok(ExperimentReport {
        sections: vec![Section::always(fig5_text())],
        rows: Json::obj([
            ("critical_fraction", Json::from(r.critical_fraction)),
            (
                "critical_fraction_20pct",
                Json::from(r.critical_fraction_20pct),
            ),
            ("top_fraction_at_17pct", Json::from(r.top_fraction_at_17pct)),
            ("one_alu_gain", Json::from(r.one_alu_gain)),
            ("four_alu_gain", Json::from(r.four_alu_gain)),
            (
                "four_alu_energy_saving",
                Json::from(r.four_alu_energy_saving),
            ),
            ("footprint_reduction", Json::from(r.footprint_reduction)),
        ]),
        meta: Json::obj([
            ("adder_bits", Json::from(64i64)),
            ("node_nm", Json::from(45i64)),
        ]),
        phases: vec![("compute", t0.elapsed().as_secs_f64())],
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_claims() {
        let r = fig5();
        assert!(r.critical_fraction < 0.06);
        assert!(r.critical_fraction_20pct < 0.5);
        assert!(r.top_fraction_at_17pct >= 0.5);
        assert!((r.one_alu_gain - 0.15).abs() < 0.02);
        assert!((r.four_alu_gain - 0.28).abs() < 0.03);
        assert!((r.four_alu_energy_saving - 0.10).abs() < 0.04);
        assert!((r.footprint_reduction - 0.41).abs() < 1e-9);
    }

    #[test]
    fn renders() {
        assert!(fig5_text().contains("bypass"));
    }
}
