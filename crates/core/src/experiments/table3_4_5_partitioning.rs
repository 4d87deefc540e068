//! Tables 3, 4, and 5: bit / word / port partitioning of the register file
//! and branch prediction table, for M3D and TSV3D.

use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::report::{pct, reduction_json, Json, Table};
use m3d_sram::metrics::Reduction;
use m3d_sram::model2d::analyze_2d;
use m3d_sram::partition3d::{applicable, partition, Strategy};
use m3d_sram::spec::ArraySpec;
use m3d_sram::structures::StructureId;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::ProcessCorner;
use m3d_tech::via::ViaKind;

/// One row: the reductions for one (via, structure) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// Via technology.
    pub via: ViaKind,
    /// Structure name.
    pub structure: String,
    /// Reductions vs 2D; `None` when the strategy is inapplicable (PP on the
    /// single-ported BPT).
    pub reduction: Option<Reduction>,
}

fn rows_for(strategy: Strategy) -> Vec<PartitionRow> {
    let node = TechnologyNode::n22();
    let specs: [ArraySpec; 2] = [StructureId::Rf.spec(), StructureId::Bpt.spec()];
    let mut rows = Vec::new();
    for via in [ViaKind::Miv, ViaKind::TsvAggressive] {
        for spec in &specs {
            let reduction = if applicable(spec, strategy)
                && !(strategy == Strategy::Port && spec.total_ports() + spec.search_ports < 2)
            {
                let base = analyze_2d(spec, &node, ProcessCorner::bulk_hp());
                Some(
                    partition(spec, &node, strategy, via)
                        .metrics
                        .reduction_vs(&base.metrics),
                )
            } else {
                None
            };
            rows.push(PartitionRow {
                via,
                structure: spec.name.clone(),
                reduction,
            });
        }
    }
    rows
}

/// Table 3: bit partitioning.
pub fn table3() -> Vec<PartitionRow> {
    rows_for(Strategy::Bit)
}

/// Table 4: word partitioning.
pub fn table4() -> Vec<PartitionRow> {
    rows_for(Strategy::Word)
}

/// Table 5: port partitioning (not applicable to the BPT).
pub fn table5() -> Vec<PartitionRow> {
    rows_for(Strategy::Port)
}

fn render(title: &str, rows: &[PartitionRow]) -> String {
    let mut t = Table::new([
        "Tech", "Structure", "Latency", "Energy", "Footprint",
    ]);
    for r in rows {
        match &r.reduction {
            Some(red) => t.row([
                r.via.label().to_owned(),
                r.structure.clone(),
                pct(red.latency_pct),
                pct(red.energy_pct),
                pct(red.footprint_pct),
            ]),
            None => t.row([
                r.via.label().to_owned(),
                r.structure.clone(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ]),
        };
    }
    format!("{title}\n{}", t.render())
}

/// Render Table 3 from precomputed rows.
pub fn table3_text_from(rows: &[PartitionRow]) -> String {
    render("Table 3: reductions through bit partitioning", rows)
}

/// Render Table 4 from precomputed rows.
pub fn table4_text_from(rows: &[PartitionRow]) -> String {
    render("Table 4: reductions through word partitioning", rows)
}

/// Render Table 5 from precomputed rows.
pub fn table5_text_from(rows: &[PartitionRow]) -> String {
    render("Table 5: reductions through port partitioning", rows)
}

fn rows_json(rows: &[PartitionRow]) -> Json {
    Json::arr(rows.iter().map(|r| {
        Json::obj([
            ("via", Json::from(r.via.label())),
            ("structure", Json::from(r.structure.clone())),
            (
                "reduction",
                r.reduction.as_ref().map_or(Json::Null, reduction_json),
            ),
        ])
    }))
}

fn report_for(strategy: Strategy, rows: Vec<PartitionRow>, text: String, wall_s: f64) -> ExperimentReport {
    ExperimentReport {
        sections: vec![Section::always(text)],
        rows: rows_json(&rows),
        meta: Json::obj([
            ("strategy", Json::from(strategy.abbrev())),
            ("node_nm", Json::from(22i64)),
        ]),
        phases: vec![("compute", wall_s)],
        ..Default::default()
    }
}

/// Registry entry point for Table 3.
pub fn report_table3(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let rows = table3();
    let text = table3_text_from(&rows);
    Ok(report_for(Strategy::Bit, rows, text, t0.elapsed().as_secs_f64()))
}

/// Registry entry point for Table 4.
pub fn report_table4(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let rows = table4();
    let text = table4_text_from(&rows);
    Ok(report_for(Strategy::Word, rows, text, t0.elapsed().as_secs_f64()))
}

/// Registry entry point for Table 5.
pub fn report_table5(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let rows = table5();
    let text = table5_text_from(&rows);
    Ok(report_for(Strategy::Port, rows, text, t0.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of<'a>(rows: &'a [PartitionRow], via: ViaKind, s: &str) -> &'a PartitionRow {
        rows.iter()
            .find(|r| r.via == via && r.structure == s)
            .expect("row exists")
    }

    #[test]
    fn table3_m3d_beats_tsv() {
        let rows = table3();
        let m = of(&rows, ViaKind::Miv, "RF").reduction.expect("applicable");
        let t = of(&rows, ViaKind::TsvAggressive, "RF")
            .reduction
            .expect("applicable");
        assert!(m.latency_pct >= t.latency_pct);
        assert!(m.footprint_pct >= t.footprint_pct);
    }

    #[test]
    fn table3_rf_gains_exceed_bpt() {
        // Section 3.2.1: the multi-ported RF benefits more than the BPT.
        let rows = table3();
        let rf = of(&rows, ViaKind::Miv, "RF").reduction.expect("applicable");
        let bpt = of(&rows, ViaKind::Miv, "BPT").reduction.expect("applicable");
        assert!(rf.latency_pct > bpt.latency_pct);
    }

    #[test]
    fn table4_wp_saves_more_energy_than_bp_for_rf() {
        let bp = of(&table3(), ViaKind::Miv, "RF").reduction.expect("ok");
        let wp = of(&table4(), ViaKind::Miv, "RF").reduction.expect("ok");
        assert!(wp.energy_pct > bp.energy_pct);
    }

    #[test]
    fn table5_pp_not_applicable_to_bpt() {
        let rows = table5();
        assert!(of(&rows, ViaKind::Miv, "BPT").reduction.is_none());
        assert!(of(&rows, ViaKind::TsvAggressive, "BPT").reduction.is_none());
    }

    #[test]
    fn table5_tsv_pp_is_catastrophic() {
        let rows = table5();
        let t = of(&rows, ViaKind::TsvAggressive, "RF")
            .reduction
            .expect("applicable");
        assert!(t.latency_pct < -50.0, "{t}");
        assert!(t.footprint_pct < -50.0, "{t}");
    }

    #[test]
    fn texts_render() {
        assert!(table3_text_from(&table3()).contains("Table 3"));
        assert!(table4_text_from(&table4()).contains("BPT"));
        assert!(table5_text_from(&table5()).contains("-"));
    }
}
