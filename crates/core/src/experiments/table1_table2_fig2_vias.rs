//! Table 1 (via area overhead), Table 2 (via electrical characteristics),
//! and Figure 2 (relative areas) — the technology-level comparisons.

use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::report::{Json, Table};
use m3d_tech::node::TechnologyNode;
use m3d_tech::refcells::{relative_to_inverter, via_overhead_pct, RefCell};
use m3d_tech::via::{Via, ViaKind};
use std::time::Instant;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Reference structure.
    pub structure: RefCell,
    /// Overhead percentage per via kind, Table 1 column order.
    pub overhead_pct: [f64; 3],
}

/// Compute Table 1 at 15 nm.
pub fn table1() -> Vec<Table1Row> {
    let node = TechnologyNode::n15();
    [RefCell::Adder32, RefCell::SramWord32]
        .into_iter()
        .map(|structure| Table1Row {
            structure,
            overhead_pct: [
                via_overhead_pct(&Via::miv(&node), structure, &node),
                via_overhead_pct(&Via::tsv_aggressive(), structure, &node),
                via_overhead_pct(&Via::tsv_recent(), structure, &node),
            ],
        })
        .collect()
}

/// Render Table 1 in the paper's layout.
pub fn table1_text() -> String {
    let mut t = Table::new(["Structure", "MIV(50nm)", "TSV(1.3um)", "TSV(5um)"]);
    for r in table1() {
        let fmt = |v: f64| {
            if v < 0.01 {
                "<0.01%".to_owned()
            } else {
                format!("{v:.1}%")
            }
        };
        t.row([
            r.structure.label().to_owned(),
            fmt(r.overhead_pct[0]),
            fmt(r.overhead_pct[1]),
            fmt(r.overhead_pct[2]),
        ]);
    }
    t.render()
}

/// Registry entry point for Table 1.
pub fn report_table1(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = Instant::now();
    let rows = table1();
    Ok(ExperimentReport {
        sections: vec![Section::always(table1_text())],
        rows: Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("structure", Json::from(r.structure.label())),
                ("miv_overhead_pct", Json::from(r.overhead_pct[0])),
                ("tsv_1_3um_overhead_pct", Json::from(r.overhead_pct[1])),
                ("tsv_5um_overhead_pct", Json::from(r.overhead_pct[2])),
            ])
        })),
        meta: Json::obj([("node_nm", Json::from(15i64))]),
        phases: vec![("compute", t0.elapsed().as_secs_f64())],
        ..Default::default()
    })
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The via.
    pub via: Via,
}

/// Compute Table 2 (via physical/electrical parameters).
pub fn table2() -> Vec<Table2Row> {
    let node = TechnologyNode::n15();
    ViaKind::ALL
        .into_iter()
        .map(|k| Table2Row {
            via: Via::of_kind(k, &node),
        })
        .collect()
}

/// Render Table 2.
pub fn table2_text() -> String {
    let mut t = Table::new(["Parameter", "MIV", "TSV(1.3um)", "TSV(5um)"]);
    let vias = table2();
    let cell = |f: &dyn Fn(&Via) -> String| -> [String; 3] {
        [f(&vias[0].via), f(&vias[1].via), f(&vias[2].via)]
    };
    let d = cell(&|v| format!("{:.2} um", v.diameter_um));
    t.row([
        "Diameter".to_owned(),
        d[0].clone(),
        d[1].clone(),
        d[2].clone(),
    ]);
    let h = cell(&|v| format!("{:.2} um", v.height_um));
    t.row([
        "Via Height".to_owned(),
        h[0].clone(),
        h[1].clone(),
        h[2].clone(),
    ]);
    let c = cell(&|v| format!("{:.1} fF", v.capacitance_f * 1e15));
    t.row([
        "Capacitance".to_owned(),
        c[0].clone(),
        c[1].clone(),
        c[2].clone(),
    ]);
    let r = cell(&|v| format!("{:.3} ohm", v.resistance_ohm));
    t.row([
        "Resistance".to_owned(),
        r[0].clone(),
        r[1].clone(),
        r[2].clone(),
    ]);
    t.render()
}

/// Registry entry point for Table 2.
pub fn report_table2(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = Instant::now();
    let rows = table2();
    Ok(ExperimentReport {
        sections: vec![Section::always(table2_text())],
        rows: Json::arr(rows.iter().map(|r| {
            Json::obj([
                ("kind", Json::from(r.via.kind.label())),
                ("diameter_um", Json::from(r.via.diameter_um)),
                ("height_um", Json::from(r.via.height_um)),
                ("capacitance_f", Json::from(r.via.capacitance_f)),
                ("resistance_ohm", Json::from(r.via.resistance_ohm)),
            ])
        })),
        meta: Json::obj([("node_nm", Json::from(15i64))]),
        phases: vec![("compute", t0.elapsed().as_secs_f64())],
        ..Default::default()
    })
}

/// One bar of Figure 2: a structure's area relative to the FO1 inverter.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Bar {
    /// Label.
    pub name: &'static str,
    /// Area relative to the FO1 inverter.
    pub relative_area: f64,
}

/// Compute Figure 2.
pub fn fig2() -> Vec<Fig2Bar> {
    let node = TechnologyNode::n15();
    vec![
        Fig2Bar {
            name: "INV FO1",
            relative_area: 1.0,
        },
        Fig2Bar {
            name: "MIV",
            relative_area: relative_to_inverter(Via::miv(&node).occupied_area_um2(), &node),
        },
        Fig2Bar {
            name: "SRAM Bitcell",
            relative_area: relative_to_inverter(RefCell::SramBitcell.area_um2(&node), &node),
        },
        Fig2Bar {
            name: "TSV(1.3um)",
            relative_area: relative_to_inverter(Via::tsv_aggressive().drawn_area_um2(), &node),
        },
    ]
}

/// Render Figure 2 as a table of relative areas.
pub fn fig2_text() -> String {
    let mut t = Table::new(["Structure", "Relative area"]);
    for b in fig2() {
        t.row([b.name.to_owned(), format!("{:.2}x", b.relative_area)]);
    }
    t.render()
}

/// Registry entry point for Figure 2.
pub fn report_fig2(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = Instant::now();
    let bars = fig2();
    Ok(ExperimentReport {
        sections: vec![Section::always(fig2_text())],
        rows: Json::arr(bars.iter().map(|b| {
            Json::obj([
                ("name", Json::from(b.name)),
                ("relative_area", Json::from(b.relative_area)),
            ])
        })),
        meta: Json::obj([("node_nm", Json::from(15i64))]),
        phases: vec![("compute", t0.elapsed().as_secs_f64())],
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_shape() {
        let rows = table1();
        // Adder row: <0.01%, ~8%, >100%.
        assert!(rows[0].overhead_pct[0] < 0.01);
        assert!((rows[0].overhead_pct[1] - 8.0).abs() < 1.0);
        assert!(rows[0].overhead_pct[2] > 100.0);
        // SRAM word row: ~0.1%, ~272%, huge.
        assert!(rows[1].overhead_pct[0] < 0.2);
        assert!(rows[1].overhead_pct[1] > 200.0);
    }

    #[test]
    fn table2_matches_paper_values() {
        let rows = table2();
        assert!((rows[0].via.capacitance_f - 0.1e-15).abs() < 1e-18);
        assert!((rows[1].via.capacitance_f - 2.5e-15).abs() < 1e-18);
        assert!((rows[2].via.capacitance_f - 37e-15).abs() < 1e-18);
    }

    #[test]
    fn fig2_ordering() {
        let bars = fig2();
        assert!(bars[1].relative_area < 0.1); // MIV ~0.07x
        assert!((bars[2].relative_area - 2.0).abs() < 0.1); // bitcell 2x
        assert!(bars[3].relative_area > 30.0); // TSV ~37x
    }

    #[test]
    fn texts_render() {
        assert!(table1_text().contains("32bit Adder"));
        assert!(table2_text().contains("Capacitance"));
        assert!(fig2_text().contains("MIV"));
    }
}
