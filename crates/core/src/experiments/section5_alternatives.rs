//! Section 5 / Section 7.1.2 extension studies.
//!
//! 1. **Wider structures at the base frequency** (Section 5, option 2): the
//!    M3D wire-delay savings can be spent on *larger* structures instead of
//!    a faster clock. We check which enlarged structures still fit in the
//!    3.3 GHz cycle budget once M3D-partitioned.
//! 2. **LP top layer** (Section 7.1.2): with an FDSOI low-power top layer,
//!    the hetero techniques keep M3D-Het performance while cutting energy
//!    further — the paper reports ~9 percentage points over M3D-Het.

use crate::configs::DesignPoint;
use crate::experiments::registry::{Ctx, ExperimentError, ExperimentReport, Section};
use crate::planner::DesignModels;
use crate::report::{Json, Table};
use m3d_sram::hetero::partition_hetero_with;
use m3d_sram::model2d::analyze_2d;
use m3d_sram::partition3d::{best_partition, Strategy};
use m3d_sram::spec::ArraySpec;
use m3d_sram::structures::StructureId;
use m3d_tech::process::ProcessCorner;
use m3d_tech::via::ViaKind;
use m3d_tech::TechnologyNode;
use m3d_thermal::model::{Solution, SolveStatsSummary};

/// One enlarged-structure design point.
#[derive(Debug, Clone, PartialEq)]
pub struct EnlargedStructure {
    /// Description ("RF 160->224 entries").
    pub name: String,
    /// The enlarged geometry.
    pub spec: ArraySpec,
    /// 2D access of the *original* structure (the cycle budget), seconds.
    pub budget_s: f64,
    /// M3D access of the enlarged structure, seconds.
    pub m3d_access_s: f64,
    /// Strategy used for the enlarged structure.
    pub strategy: Strategy,
}

impl EnlargedStructure {
    /// Whether the enlarged, partitioned structure still meets the original
    /// 2D cycle budget.
    pub fn fits_budget(&self) -> bool {
        self.m3d_access_s <= self.budget_s
    }
}

/// Evaluate the Section 5 "grow the bottleneck structures" option: each
/// candidate is enlarged and M3D-partitioned, then checked against the
/// original 2D access-time budget.
pub fn enlarged_structures() -> Vec<EnlargedStructure> {
    let node = TechnologyNode::n22();
    let candidates: Vec<(String, StructureId, ArraySpec)> = vec![
        (
            "RF 160 -> 224 entries".into(),
            StructureId::Rf,
            ArraySpec::ram("RF+", 224, 64, 12, 6),
        ),
        (
            "RF 12R6W -> 16R8W".into(),
            StructureId::Rf,
            ArraySpec::ram("RF++", 160, 64, 16, 8),
        ),
        (
            "IQ 84 -> 128 entries".into(),
            StructureId::Iq,
            ArraySpec::cam("IQ+", 128, 16, 6, 4, 8, 6),
        ),
        (
            "LQ 72 -> 96 entries".into(),
            StructureId::Lq,
            ArraySpec::cam("LQ+", 96, 48, 2, 2, 16, 2),
        ),
        (
            "BPT 4K -> 8K entries".into(),
            StructureId::Bpt,
            ArraySpec::ram("BPT+", 8192, 8, 1, 0),
        ),
    ];
    candidates
        .into_iter()
        .map(|(name, orig, spec)| {
            let budget = analyze_2d(&orig.spec(), &node, ProcessCorner::bulk_hp())
                .metrics
                .access_s;
            let (strategy, p, _) = best_partition(&spec, &node, ViaKind::Miv);
            EnlargedStructure {
                name,
                spec,
                budget_s: budget,
                m3d_access_s: p.metrics.access_s,
                strategy,
            }
        })
        .collect()
}

/// Render the enlarged-structure study from precomputed rows.
pub fn enlarged_text_from(rows: &[EnlargedStructure]) -> String {
    let mut t = Table::new(["Enlargement", "Strategy", "Budget", "M3D access", "Fits?"]);
    for e in rows {
        t.row([
            e.name.clone(),
            e.strategy.abbrev().to_owned(),
            format!("{:.0} ps", e.budget_s * 1e12),
            format!("{:.0} ps", e.m3d_access_s * 1e12),
            if e.fits_budget() { "yes" } else { "no" }.to_owned(),
        ]);
    }
    format!(
        "Section 5: enlarged structures at the 2D cycle budget (M3D)\n{}",
        t.render()
    )
}

/// The Section 7.1.2 LP-top-layer energy study: per-structure energy
/// reductions when the top layer uses the FDSOI low-power process instead of
/// the low-temperature HP process, with the same asymmetric partitioning.
/// Returns `(structure, hetero energy reduction %, LP-top energy reduction %)`.
pub fn lp_top_energy_reductions() -> Vec<(StructureId, f64, f64)> {
    let node = TechnologyNode::n22();
    StructureId::ALL
        .iter()
        .map(|&id| {
            let spec = id.spec();
            let base = analyze_2d(&spec, &node, ProcessCorner::bulk_hp());
            let strategies: &[Strategy] = if spec.total_ports() + spec.search_ports >= 2 {
                &[Strategy::Bit, Strategy::Word, Strategy::Port]
            } else {
                &[Strategy::Bit, Strategy::Word]
            };
            let best_of = |lp: bool| {
                strategies
                    .iter()
                    .map(|&s| {
                        let mut h = partition_hetero_with(&spec, &node, s, ViaKind::Miv);
                        if lp {
                            // The LP top layer's dynamic energy scales by the
                            // FDSOI process factor for the top-layer share of
                            // the access energy.
                            let top_share =
                                h.top_share as f64 / (h.top_share + h.bottom_share).max(1) as f64;
                            let lp_dyn = ProcessCorner::fdsoi_lp().dynamic_factor;
                            h.metrics.energy_j *= 1.0 - top_share * (1.0 - lp_dyn);
                        }
                        h
                    })
                    .min_by(|a, b| {
                        a.metrics
                            .access_s
                            .partial_cmp(&b.metrics.access_s)
                            .expect("finite")
                    })
                    .expect("non-empty")
            };
            let het = best_of(false);
            let lp = best_of(true);
            (
                id,
                het.metrics.reduction_vs(&base.metrics).energy_pct,
                lp.metrics.reduction_vs(&base.metrics).energy_pct,
            )
        })
        .collect()
}

/// Render the LP-top study from precomputed rows.
pub fn lp_top_text_from(rows: &[(StructureId, f64, f64)]) -> String {
    let mut t = Table::new(["Structure", "Het energy", "LP-top energy", "Extra points"]);
    let mut sum = 0.0;
    for (id, het, lp) in rows {
        sum += lp - het;
        t.row([
            id.label().to_owned(),
            format!("{het:+.0}%"),
            format!("{lp:+.0}%"),
            format!("{:+.1}", lp - het),
        ]);
    }
    format!(
        "Section 7.1.2: LP (FDSOI) top layer vs M3D-Het (paper: ~9 extra points)\n{}\nAverage extra array-energy points: {:+.1}\n",
        t.render(),
        sum / rows.len() as f64
    )
}

/// One step of the thermal-headroom sweep: the same core power applied to
/// the Base (2D) and M3D-Het stacks.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadroomRow {
    /// Total core power, watts.
    pub power_w: f64,
    /// Peak Base (2D) die temperature, °C.
    pub base_c: f64,
    /// Peak M3D-Het die temperature, °C.
    pub m3d_het_c: f64,
}

/// Sweep core power over a DVFS-like range and report peak temperature of
/// the Base and M3D-Het stacks — the Section 5 question "how much thermal
/// headroom do the alternatives leave for higher frequency or more work?".
///
/// This is the warm-start showcase: both designs' models are assembled once
/// (via the shared cache) and each step's solve starts from the previous
/// step's temperature field, so the whole sweep costs a few full
/// convergences' worth of iterations.
pub fn thermal_headroom() -> (Vec<HeadroomRow>, SolveStatsSummary) {
    let designs = DesignModels::build();
    let mut stats = SolveStatsSummary::default();
    let mut warm: [Option<Solution>; 3] = Default::default();
    let rows = (0..10)
        .map(|step| {
            let power_w = 3.0 + step as f64;
            let [base_c, m3d_het_c] = [DesignPoint::Base, DesignPoint::M3dHet].map(|d| {
                let slot = d.stack_slot();
                let powers = designs.uniform(slot, power_w);
                designs
                    .solve(slot, &powers, &mut warm[slot], &mut stats)
                    .peak_c
            });
            HeadroomRow {
                power_w,
                base_c,
                m3d_het_c,
            }
        })
        .collect();
    (rows, stats)
}

/// Render the thermal-headroom sweep from precomputed rows and stats.
pub fn headroom_text_from(rows: &[HeadroomRow], stats: &SolveStatsSummary) -> String {
    let mut t = Table::new(["Core power", "Base (C)", "M3D-Het (C)", "Delta"]);
    for r in rows {
        t.row([
            format!("{:.0} W", r.power_w),
            format!("{:.1}", r.base_c),
            format!("{:.1}", r.m3d_het_c),
            format!("{:+.1}", r.m3d_het_c - r.base_c),
        ]);
    }
    format!(
        "Section 5: thermal headroom sweep (Base vs M3D-Het, folded floorplan)\n{}[thermal solver] {stats}\n",
        t.render()
    )
}

/// Registry entry point for the Section 5 / 7.1.2 studies.
pub fn report(_ctx: &Ctx) -> Result<ExperimentReport, ExperimentError> {
    let t0 = std::time::Instant::now();
    let enlarged = enlarged_structures();
    let t_enlarged = t0.elapsed().as_secs_f64();
    let t1 = std::time::Instant::now();
    let lp = lp_top_energy_reductions();
    let t_lp = t1.elapsed().as_secs_f64();
    let t2 = std::time::Instant::now();
    let (headroom, stats) = thermal_headroom();
    let t_headroom = t2.elapsed().as_secs_f64();
    Ok(ExperimentReport {
        sections: vec![
            Section::always(enlarged_text_from(&enlarged)),
            Section::always(lp_top_text_from(&lp)),
            Section::always(headroom_text_from(&headroom, &stats)),
        ],
        rows: Json::obj([
            (
                "enlarged",
                Json::arr(enlarged.iter().map(|e| {
                    Json::obj([
                        ("name", Json::from(e.name.clone())),
                        ("strategy", Json::from(e.strategy.abbrev())),
                        ("budget_s", Json::from(e.budget_s)),
                        ("m3d_access_s", Json::from(e.m3d_access_s)),
                        ("fits_budget", Json::from(e.fits_budget())),
                    ])
                })),
            ),
            (
                "lp_top",
                Json::arr(lp.iter().map(|(id, het, lp)| {
                    Json::obj([
                        ("structure", Json::from(id.label())),
                        ("het_energy_pct", Json::from(*het)),
                        ("lp_top_energy_pct", Json::from(*lp)),
                    ])
                })),
            ),
            (
                "headroom",
                Json::arr(headroom.iter().map(|r| {
                    Json::obj([
                        ("power_w", Json::from(r.power_w)),
                        ("base_c", Json::from(r.base_c)),
                        ("m3d_het_c", Json::from(r.m3d_het_c)),
                    ])
                })),
            ),
        ]),
        meta: Json::obj([("tjmax_c", Json::from(crate::planner::TJMAX_C))]),
        phases: vec![
            ("enlarged", t_enlarged),
            ("lp_top", t_lp),
            ("headroom", t_headroom),
        ],
        thermal: Some(stats),
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn some_enlargements_fit_the_budget() {
        // The point of Section 5's option 2: M3D makes room to grow the
        // bottleneck structures at the same frequency.
        let rows = enlarged_structures();
        let fitting = rows.iter().filter(|e| e.fits_budget()).count();
        assert!(
            fitting >= 3,
            "only {fitting}/{} enlargements fit",
            rows.len()
        );
    }

    #[test]
    fn wider_rf_ports_fit_via_port_partitioning() {
        let rows = enlarged_structures();
        let rfpp = rows
            .iter()
            .find(|e| e.name.contains("16R8W"))
            .expect("row exists");
        assert!(rfpp.fits_budget(), "{rfpp:?}");
    }

    #[test]
    fn lp_top_saves_more_energy_everywhere() {
        for (id, het, lp) in lp_top_energy_reductions() {
            assert!(lp >= het - 1e-9, "{id}: lp {lp} vs het {het}");
        }
    }

    #[test]
    fn lp_top_adds_meaningful_points() {
        // Paper: ~9 percentage points over M3D-Het on total energy; the
        // array-level deltas should average a few points.
        let rows = lp_top_energy_reductions();
        let avg: f64 = rows.iter().map(|(_, h, l)| l - h).sum::<f64>() / rows.len() as f64;
        assert!(avg > 1.0 && avg < 15.0, "average extra points {avg}");
    }

    #[test]
    fn renders() {
        assert!(enlarged_text_from(&enlarged_structures()).contains("Section 5"));
        assert!(lp_top_text_from(&lp_top_energy_reductions()).contains("LP"));
        let (rows, stats) = thermal_headroom();
        assert!(headroom_text_from(&rows, &stats).contains("headroom"));
    }

    #[test]
    fn headroom_sweep_is_monotone_and_warm_started() {
        let (rows, stats) = thermal_headroom();
        assert_eq!(rows.len(), 10);
        for pair in rows.windows(2) {
            assert!(pair[1].base_c > pair[0].base_c, "{pair:?}");
            assert!(pair[1].m3d_het_c > pair[0].m3d_het_c, "{pair:?}");
        }
        // Every solve but the first per design rides the previous field.
        assert_eq!(stats.solves, 20);
        assert!(stats.warm_starts >= 18, "warm starts {}", stats.warm_starts);
        assert_eq!(stats.non_converged, 0);
    }
}
