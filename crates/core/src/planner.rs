//! The partition planner: apply the paper's methodology to every core
//! storage structure and derive the design frequencies (Sections 3–4, 6.1).

use crate::configs::DesignPoint;
use crate::report::{reduction_json, Json};
use m3d_sram::hetero::{partition_hetero, HeteroPartitioned};
use m3d_sram::metrics::Reduction;
use m3d_sram::model2d::analyze_2d;
use m3d_sram::partition3d::{best_partition, Strategy};
use m3d_sram::structures::StructureId;
use m3d_tech::layers::LayerStack;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::ProcessCorner;
use m3d_tech::via::ViaKind;
use m3d_thermal::floorplan::Floorplan;
use m3d_thermal::model::{shared_cache, Solution, SolveStatsSummary, ThermalConfig, ThermalModel};
use std::sync::{Arc, OnceLock};

/// Baseline 2D core frequency, GHz (Table 11, set by the RF access time).
pub const BASE_FREQ_GHZ: f64 = 3.3;
/// Frequency loss of the naive hetero design, from the AES-block
/// measurement of Shi et al. (Section 6.1).
pub const HET_NAIVE_LOSS: f64 = 0.09;
/// Junction temperature limit used by the feasibility check, °C.
pub const TJMAX_C: f64 = 105.0;
/// Nominal Base-core power at 3.3 GHz used by the feasibility estimate,
/// watts (the paper's measured SPEC average).
const NOMINAL_CORE_W: f64 = 6.4;
/// 2D core area at 22 nm, m² (Ryzen-class core scaled).
pub const CORE_AREA_M2: f64 = 9.0e-6;
/// Share of each block's power dissipated in the bottom (fast) layer of a
/// folded 3D core.
const BOTTOM_POWER_SHARE: f64 = 0.55;

/// One structure's planning outcome for a given via technology.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedStructure {
    /// Which structure.
    pub structure: StructureId,
    /// Chosen strategy.
    pub strategy: Strategy,
    /// Reductions vs the 2D baseline.
    pub reduction: Reduction,
    /// 2D access latency, seconds (for frequency derivation).
    pub base_access_s: f64,
}

impl PlannedStructure {
    /// JSON form for the `repro` artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("structure", Json::from(self.structure.label())),
            ("strategy", Json::from(self.strategy.abbrev())),
            ("reduction", reduction_json(&self.reduction)),
            ("base_access_s", Json::from(self.base_access_s)),
        ])
    }
}

/// One structure's hetero-layer outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedHetero {
    /// Which structure.
    pub structure: StructureId,
    /// The asymmetric design found.
    pub design: HeteroPartitioned,
    /// Reductions vs the 2D baseline.
    pub reduction: Reduction,
}

impl PlannedHetero {
    /// JSON form for the `repro` artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("structure", Json::from(self.structure.label())),
            ("strategy", Json::from(self.design.strategy.abbrev())),
            ("bottom_share", Json::from(self.design.bottom_share)),
            ("top_share", Json::from(self.design.top_share)),
            ("top_upsize", Json::from(self.design.top_upsize)),
            ("reduction", reduction_json(&self.reduction)),
        ])
    }
}

/// Frequencies derived from our own model's reductions (Section 6.1 logic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivedFrequencies {
    /// Iso-layer M3D, limited by the least-improved array structure.
    pub iso_ghz: f64,
    /// Aggressive iso-layer M3D, limited by the IQ only.
    pub iso_agg_ghz: f64,
    /// Naive hetero (iso slowed by the AES-block 9%).
    pub het_naive_ghz: f64,
    /// Our hetero-layer design, limited by the least-improved structure.
    pub het_ghz: f64,
    /// Aggressive hetero design, limited by the IQ only.
    pub het_agg_ghz: f64,
}

/// The full design space the experiments consume.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Technology node used (22 nm).
    pub node: TechnologyNode,
    /// Best iso-layer M3D partition per structure (Table 6, M3D columns).
    pub iso_best: Vec<PlannedStructure>,
    /// Best TSV3D partition per structure (Table 6, TSV columns).
    pub tsv_best: Vec<PlannedStructure>,
    /// Hetero-layer asymmetric partitions (Table 8).
    pub het_best: Vec<PlannedHetero>,
    /// Frequencies derived from the model.
    pub derived: DerivedFrequencies,
}

impl DesignSpace {
    /// JSON form of the whole planned space (the `m3d-serve` `planner`
    /// method and anything else that wants the planner's output without
    /// re-rendering the paper tables).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("node_nm", Json::from(self.node.feature_nm)),
            (
                "iso_best",
                Json::arr(self.iso_best.iter().map(PlannedStructure::to_json)),
            ),
            (
                "tsv_best",
                Json::arr(self.tsv_best.iter().map(PlannedStructure::to_json)),
            ),
            (
                "het_best",
                Json::arr(self.het_best.iter().map(PlannedHetero::to_json)),
            ),
            (
                "derived_ghz",
                Json::obj([
                    ("iso", Json::from(self.derived.iso_ghz)),
                    ("iso_agg", Json::from(self.derived.iso_agg_ghz)),
                    ("het_naive", Json::from(self.derived.het_naive_ghz)),
                    ("het", Json::from(self.derived.het_ghz)),
                    ("het_agg", Json::from(self.derived.het_agg_ghz)),
                ]),
            ),
        ])
    }

    /// Run the planner over all twelve structures. Takes a second or two
    /// (it evaluates every strategy and the hetero search spaces).
    pub fn compute() -> Self {
        let _span = m3d_obs::span("planner", "design_space");
        let node = TechnologyNode::n22();
        let mut iso_best = Vec::new();
        let mut tsv_best = Vec::new();
        let mut het_best = Vec::new();
        for id in StructureId::ALL {
            let spec = id.spec();
            let base = analyze_2d(&spec, &node, ProcessCorner::bulk_hp());
            let (s_m3d, _, r_m3d) = best_partition(&spec, &node, ViaKind::Miv);
            iso_best.push(PlannedStructure {
                structure: id,
                strategy: s_m3d,
                reduction: r_m3d,
                base_access_s: base.metrics.access_s,
            });
            let (s_tsv, _, r_tsv) = best_partition(&spec, &node, ViaKind::TsvAggressive);
            tsv_best.push(PlannedStructure {
                structure: id,
                strategy: s_tsv,
                reduction: r_tsv,
                base_access_s: base.metrics.access_s,
            });
            let (design, r_het) = partition_hetero(&spec, &node, ViaKind::Miv);
            het_best.push(PlannedHetero {
                structure: id,
                design,
                reduction: r_het,
            });
        }

        let min_lat = |rs: &[f64]| rs.iter().copied().fold(f64::INFINITY, f64::min);
        let iso_lats: Vec<f64> = iso_best.iter().map(|p| p.reduction.latency_pct).collect();
        let het_lats: Vec<f64> = het_best.iter().map(|p| p.reduction.latency_pct).collect();
        let iq_pos = StructureId::ALL
            .iter()
            .position(|&s| s == StructureId::Iq)
            .expect("IQ is in the structure list");

        let f_of = |lat_pct: f64| BASE_FREQ_GHZ / (1.0 - (lat_pct / 100.0).max(0.0));
        let iso_ghz = f_of(min_lat(&iso_lats));
        let derived = DerivedFrequencies {
            iso_ghz,
            iso_agg_ghz: f_of(iso_lats[iq_pos]),
            het_naive_ghz: iso_ghz * (1.0 - HET_NAIVE_LOSS),
            het_ghz: f_of(min_lat(&het_lats)),
            het_agg_ghz: f_of(het_lats[iq_pos]),
        };
        Self {
            node,
            iso_best,
            tsv_best,
            het_best,
            derived,
        }
    }

    /// Per-structure *energy* reductions (percent) for the iso-layer design,
    /// consumed by the power model.
    pub fn iso_energy_reductions(&self) -> Vec<(StructureId, f64)> {
        self.iso_best
            .iter()
            .map(|p| (p.structure, p.reduction.energy_pct.max(0.0)))
            .collect()
    }

    /// Per-structure energy reductions for the TSV3D design.
    pub fn tsv_energy_reductions(&self) -> Vec<(StructureId, f64)> {
        self.tsv_best
            .iter()
            .map(|p| (p.structure, p.reduction.energy_pct))
            .collect()
    }

    /// Per-structure energy reductions for the hetero-layer design.
    pub fn het_energy_reductions(&self) -> Vec<(StructureId, f64)> {
        self.het_best
            .iter()
            .map(|p| (p.structure, p.reduction.energy_pct.max(0.0)))
            .collect()
    }

    /// The iso-layer planning row for one structure.
    pub fn iso_of(&self, id: StructureId) -> &PlannedStructure {
        self.iso_best
            .iter()
            .find(|p| p.structure == id)
            .expect("all structures planned")
    }

    /// Estimate whether each design point stays under [`TJMAX_C`] at its
    /// derived frequency, assuming nominal Base power scaled linearly with
    /// frequency (dynamic-dominated cores) and the fig8 folding assumptions
    /// for the 3D stacks.
    ///
    /// The per-design [`m3d_thermal::model::ThermalModel`]s come from the
    /// shared cache and successive designs on the same stack warm-start
    /// from each other, so the whole check costs little more than one
    /// solve per stack.
    pub fn thermal_feasibility(&self) -> (Vec<ThermalFeasibility>, SolveStatsSummary) {
        let _span = m3d_obs::span("planner", "thermal_feasibility");
        let designs = DesignModels::build();
        let mut stats = SolveStatsSummary::default();
        let mut warm: [Option<Solution>; 3] = Default::default();
        let rows = DesignPoint::ALL
            .iter()
            .map(|&d| {
                let core_w = NOMINAL_CORE_W * d.derived_frequency_ghz(self) / BASE_FREQ_GHZ;
                let slot = d.stack_slot();
                let powers = designs.uniform(slot, core_w);
                let peak_c = designs
                    .solve(slot, &powers, &mut warm[slot], &mut stats)
                    .peak_c;
                ThermalFeasibility {
                    design: d,
                    peak_c,
                    feasible: peak_c <= TJMAX_C,
                }
            })
            .collect();
        (rows, stats)
    }
}

/// The thermal models of the three layer stacks, indexed by
/// [`DesignPoint::stack_slot`] and
/// [`MulticoreDesign::stack_slot`](crate::configs::MulticoreDesign::stack_slot):
/// planar 2D, TSV3D and M3D. The 2D stack
/// carries the Ryzen-like floorplan; the 3D stacks fold it to half the
/// footprint (the paper's conservative assumption) on both device layers.
pub(crate) struct DesignModels {
    /// Unfolded 2D floorplan.
    fp_2d: Floorplan,
    /// Folded (half-footprint) floorplan of each 3D device layer.
    fp_3d: Floorplan,
    /// Per stack slot: the model, and whether it came from the cache.
    models: [(Arc<ThermalModel>, bool); 3],
}

impl DesignModels {
    /// Assemble the three stacks' models with the default
    /// [`ThermalConfig`], or fetch them from the process-wide
    /// [`shared_cache`].
    pub(crate) fn build() -> Self {
        let fp_2d = Floorplan::ryzen_like(CORE_AREA_M2);
        let fp_3d = fp_2d.scaled(0.5);
        let cfg = ThermalConfig::default();
        let one = |stack: LayerStack, fps: &[Floorplan]| {
            shared_cache()
                .get_or_build(&stack, fps, &cfg)
                .expect("default thermal config and ryzen floorplan are valid")
        };
        let folded = [fp_3d.clone(), fp_3d.clone()];
        let models = [
            one(LayerStack::planar_2d(), std::slice::from_ref(&fp_2d)),
            one(LayerStack::tsv3d(), &folded),
            one(LayerStack::m3d(), &folded),
        ];
        Self {
            fp_2d,
            fp_3d,
            models,
        }
    }

    /// Per-layer block powers of a core on `slot`'s stack that dissipates
    /// `core_w` watts spread evenly over its blocks: all of it on the 2D
    /// floorplan, or 55 % / 45 % on the folded bottom / top layers.
    pub(crate) fn uniform(&self, slot: usize, core_w: f64) -> Vec<Vec<f64>> {
        if slot == 0 {
            return vec![self.fp_2d.uniform_power(core_w)];
        }
        // The top share is the literal 0.45, which differs in the last bit
        // from `1.0 - BOTTOM_POWER_SHARE`; changing it moves the printed
        // temperatures.
        vec![
            self.fp_3d.uniform_power(core_w * BOTTOM_POWER_SHARE),
            self.fp_3d.uniform_power(core_w * 0.45),
        ]
    }

    /// Per-layer block powers of a core on `slot`'s stack from its named
    /// block powers: as they are on the 2D floorplan, or each block split
    /// `BOTTOM_POWER_SHARE` / `1.0 - BOTTOM_POWER_SHARE` between the
    /// folded bottom and top layers.
    pub(crate) fn named(&self, slot: usize, blocks: &[(&str, f64)]) -> Vec<Vec<f64>> {
        if slot == 0 {
            return vec![self.fp_2d.power_from_named(blocks)];
        }
        let share = |s: f64| blocks.iter().map(|&(n, w)| (n, w * s)).collect::<Vec<_>>();
        vec![
            self.fp_3d.power_from_named(&share(BOTTOM_POWER_SHARE)),
            self.fp_3d
                .power_from_named(&share(1.0 - BOTTOM_POWER_SHARE)),
        ]
    }

    /// Solve `slot`'s stack for `powers`, warm-starting from `warm` when it
    /// holds a field, and leave the new field in `warm`. The solve is folded
    /// into `stats`, and counts as a cache hit when its model came from the
    /// cache or it warm-started.
    pub(crate) fn solve<'w>(
        &self,
        slot: usize,
        powers: &[Vec<f64>],
        warm: &'w mut Option<Solution>,
        stats: &mut SolveStatsSummary,
    ) -> &'w Solution {
        let (model, cached) = &self.models[slot];
        let (sol, s) = model
            .solve_from(powers, warm.as_ref())
            .expect("power vectors were built from the model's floorplans");
        stats.absorb(&s);
        stats.cache_hits += usize::from(*cached || warm.is_some());
        warm.insert(sol)
    }
}

/// Linearised peak-temperature response of the three layer stacks.
///
/// The steady-state solver is linear in the injected power (zero power
/// sits exactly at ambient), so one cold solve per stack at a reference
/// power yields an exact peak-rise-per-watt coefficient: for a design on
/// stack `s` dissipating `p` watts per core, the peak die temperature is
/// `ambient_c + k_c_per_w[s] * p`. The design-space search uses this for
/// its thermal objective — it is order-independent and deterministic,
/// where chains of warm-started solves would depend on evaluation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackThermal {
    /// Ambient (heat-sink boundary) temperature, °C.
    pub ambient_c: f64,
    /// Peak-temperature rise per watt of per-core power, °C/W, indexed by
    /// [`DesignPoint::stack_slot`] (planar 2D, TSV3D, M3D).
    pub k_c_per_w: [f64; 3],
}

/// The per-stack thermal coefficients, computed once per process (three
/// cold solves at the nominal core power, with the same floorplans and
/// uniform power fold as the feasibility check).
pub fn stack_thermal() -> &'static StackThermal {
    static CACHE: OnceLock<StackThermal> = OnceLock::new();
    CACHE.get_or_init(|| {
        let _span = m3d_obs::span("planner", "stack_thermal");
        let designs = DesignModels::build();
        let mut stats = SolveStatsSummary::default();
        let peaks: [f64; 3] = std::array::from_fn(|slot| {
            let powers = designs.uniform(slot, NOMINAL_CORE_W);
            designs.solve(slot, &powers, &mut None, &mut stats).peak_c
        });
        let ambient_c = ThermalConfig::default().ambient_c;
        StackThermal {
            ambient_c,
            k_c_per_w: peaks.map(|p| (p - ambient_c) / NOMINAL_CORE_W),
        }
    })
}

/// One design point's thermal-feasibility estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalFeasibility {
    /// The design point.
    pub design: DesignPoint,
    /// Estimated peak die temperature at nominal power, °C.
    pub peak_c: f64,
    /// Whether the peak stays at or below [`TJMAX_C`].
    pub feasible: bool,
}

impl ThermalFeasibility {
    /// JSON form for the `repro` artifacts.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("design", Json::from(self.design.label())),
            ("peak_c", Json::from(self.peak_c)),
            ("feasible", Json::from(self.feasible)),
        ])
    }
}

/// Render the thermal-feasibility rows exactly as the `repro` report prints
/// them (header plus one line per design point).
pub fn feasibility_text(rows: &[ThermalFeasibility]) -> String {
    let mut out = format!("Thermal feasibility at nominal power (Tjmax {TJMAX_C} C):\n");
    for f in rows {
        out.push_str(&format!(
            "  {:<14} {:>6.1} C  {}\n",
            f.design.label(),
            f.peak_c,
            if f.feasible { "ok" } else { "EXCEEDS Tjmax" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn space() -> &'static DesignSpace {
        static SPACE: OnceLock<DesignSpace> = OnceLock::new();
        SPACE.get_or_init(DesignSpace::compute)
    }

    #[test]
    fn plans_all_twelve_structures() {
        let s = space();
        assert_eq!(s.iso_best.len(), 12);
        assert_eq!(s.tsv_best.len(), 12);
        assert_eq!(s.het_best.len(), 12);
    }

    #[test]
    fn multiported_structures_use_port_partitioning_in_m3d() {
        // Table 6's headline: PP for the RF (and the tie-break favours PP
        // for the other multiported structures where it is latency-close).
        let s = space();
        assert_eq!(s.iso_of(StructureId::Rf).strategy, Strategy::Port);
    }

    #[test]
    fn bpt_uses_word_partitioning() {
        // The BPT array is much taller than wide: WP wins (Section 3.2.2).
        let s = space();
        assert_eq!(s.iso_of(StructureId::Bpt).strategy, Strategy::Word);
    }

    #[test]
    fn tsv_never_uses_port_partitioning() {
        for p in &space().tsv_best {
            assert_ne!(p.strategy, Strategy::Port, "{}", p.structure);
        }
    }

    #[test]
    fn m3d_beats_tsv_on_latency_everywhere() {
        // Within a small tolerance: the LQ's best-TSV and best-M3D picks can
        // land within a fraction of a point of each other.
        let s = space();
        for (m, t) in s.iso_best.iter().zip(&s.tsv_best) {
            assert!(
                m.reduction.latency_pct >= t.reduction.latency_pct - 1.5,
                "{}: m3d {} vs tsv {}",
                m.structure,
                m.reduction.latency_pct,
                t.reduction.latency_pct
            );
        }
    }

    #[test]
    fn derived_frequencies_are_ordered_like_table11() {
        // Base < HetNaive < Het <= Iso < HetAgg (paper: 3.3 < 3.5 < 3.79 <
        // 3.83 < 4.34).
        let d = space().derived;
        assert!(BASE_FREQ_GHZ < d.het_naive_ghz);
        assert!(d.het_naive_ghz < d.iso_ghz);
        assert!(d.het_ghz <= d.iso_ghz + 1e-9);
        assert!(d.iso_ghz < d.het_agg_ghz);
        // And in the right ballpark.
        assert!(d.iso_ghz > 3.5 && d.iso_ghz < 4.3, "iso {}", d.iso_ghz);
        assert!(d.het_ghz > 3.4 && d.het_ghz < 4.2, "het {}", d.het_ghz);
    }

    #[test]
    fn hetero_recovers_most_of_iso() {
        // M3D-Het's frequency should be close to M3D-Iso's (the paper: 3.79
        // vs 3.83), far above the naive 9% loss.
        let d = space().derived;
        let gap = (d.iso_ghz - d.het_ghz) / d.iso_ghz;
        assert!(gap < 0.08, "hetero loses {}% of iso", gap * 100.0);
    }

    #[test]
    fn single_core_designs_are_thermally_feasible() {
        // Paper Figure 8: the single-core designs all stay under Tjmax at
        // nominal power — TSV3D only approaches the limit at the multicore
        // power levels. M3D-Het must run cooler than TSV3D.
        let (rows, stats) = space().thermal_feasibility();
        assert_eq!(rows.len(), DesignPoint::ALL.len());
        let peak_of = |d: DesignPoint| {
            rows.iter()
                .find(|r| r.design == d)
                .expect("all designs checked")
                .peak_c
        };
        for r in &rows {
            assert!(r.peak_c > 45.0 && r.peak_c < 130.0, "{:?}", r);
        }
        assert!(
            rows.iter()
                .find(|r| r.design == DesignPoint::Base)
                .expect("base")
                .feasible
        );
        assert!(peak_of(DesignPoint::Tsv3d) > peak_of(DesignPoint::M3dHet));
        assert_eq!(stats.solves, DesignPoint::ALL.len());
        assert_eq!(stats.non_converged, 0);
    }

    #[test]
    fn energy_reductions_are_substantial_in_m3d() {
        let s = space();
        let avg: f64 = s
            .iso_energy_reductions()
            .iter()
            .map(|(_, e)| e)
            .sum::<f64>()
            / 12.0;
        assert!(avg > 25.0, "average array energy reduction {avg}%");
    }

    /// `(solves, total_iterations, warm_starts, cache_hits, non_converged,
    /// max_residual_k bits)` of a summary: every field but the wall time.
    fn exact(s: &SolveStatsSummary) -> (usize, usize, usize, usize, usize, u64) {
        (
            s.solves,
            s.total_iterations,
            s.warm_starts,
            s.cache_hits,
            s.non_converged,
            s.max_residual_k.to_bits(),
        )
    }

    #[test]
    fn serial_thermal_outputs_are_pinned_bit_for_bit() {
        // The thermal outputs that do not depend on the host's CPU count,
        // as recorded before the solve loops were merged. With the models
        // in the cache first, every solve counts as a cache hit.
        let _ = DesignModels::build();

        let (rows, stats) = crate::experiments::section5_alternatives::thermal_headroom();
        let want: [(u64, u64, u64); 10] = [
            (
                0x4008_0000_0000_0000,
                0x404a_e5ac_50cb_52c9,
                0x404e_a88b_62a8_c2f2,
            ),
            (
                0x4010_0000_0000_0000,
                0x404c_5eaf_6804_0942,
                0x4050_b1a8_dc35_359c,
            ),
            (
                0x4014_0000_0000_0000,
                0x404d_d7b3_c304_18c4,
                0x4052_0f0a_a160_f513,
            ),
            (
                0x4018_0000_0000_0000,
                0x404f_50b8_2b3c_dd68,
                0x4053_6c6c_5e58_4797,
            ),
            (
                0x401c_0000_0000_0000,
                0x4050_64de_4a06_1cac,
                0x4054_c9ce_1b2d_ec13,
            ),
            (
                0x4020_0000_0000_0000,
                0x4051_2160_7e71_24a6,
                0x4056_272f_d803_0753,
            ),
            (
                0x4022_0000_0000_0000,
                0x4051_dde2_b2dc_52f7,
                0x4057_8491_94d8_2075,
            ),
            (
                0x4024_0000_0000_0000,
                0x4052_9a64_e747_82fd,
                0x4058_e1f3_51ad_39c0,
            ),
            (
                0x4026_0000_0000_0000,
                0x4053_56e7_1bb2_b316,
                0x405a_3f55_0e82_52da,
            ),
            (
                0x4028_0000_0000_0000,
                0x4054_1369_501d_e32d,
                0x405b_9cb6_cb57_6bd7,
            ),
        ];
        let got: Vec<_> = rows
            .iter()
            .map(|r| {
                (
                    r.power_w.to_bits(),
                    r.base_c.to_bits(),
                    r.m3d_het_c.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want);
        assert_eq!(exact(&stats), (20, 39413, 18, 20, 0, 0x3f1a_3393_bbb0_0000));

        let (rows, stats) = space().thermal_feasibility();
        let want = [
            (DesignPoint::Base, 0x404f_e786_222b_de64),
            (DesignPoint::Tsv3d, 0x4056_5c52_872b_9b8f),
            (DesignPoint::M3dIso, 0x4055_15aa_b3cd_886d),
            (DesignPoint::M3dHetNaive, 0x4054_3a77_566c_d7b4),
            (DesignPoint::M3dHet, 0x4054_cf30_bd68_561d),
            (DesignPoint::M3dHetAgg, 0x4058_19f6_7995_10a4),
        ];
        let got: Vec<_> = rows
            .iter()
            .map(|r| (r.design, r.peak_c.to_bits()))
            .collect();
        assert_eq!(got, want);
        assert!(rows.iter().all(|r| r.feasible));
        assert_eq!(exact(&stats), (6, 15682, 3, 6, 0, 0x3f1a_3508_2b80_0000));

        let k = stack_thermal();
        assert_eq!(k.ambient_c, 45.0);
        assert_eq!(
            k.k_c_per_w.map(f64::to_bits),
            [
                0x4007_82cf_556d_abfa,
                0x401b_c6ce_51ed_04e5,
                0x4015_cc6e_3e71_73f2
            ]
        );
    }
}
