//! Analytical array model: subarray organization search, component delays and
//! energies, and area. This plays the role CACTI plays in the paper.
//!
//! An array of `words × bits` is organized into `ndbl × ndwl` subarrays
//! (splitting bitlines and wordlines respectively), exactly like CACTI's
//! internal partitioning. Each access activates one row of subarrays; data is
//! routed to the edge over a repeated-wire H-tree. The organization is chosen
//! by a search that minimizes a delay-energy-area cost, mirroring CACTI's
//! optimizer.
//!
//! The same machinery analyses one *layer* of a 3D partition: a
//! [`LayerPlan`] says what fraction of the rows/columns/ports live on the
//! layer, which vias sit in the wordline or bitline path, how much via area
//! is charged to the footprint, and which process corner the layer uses.

use crate::cell::CellGeometry;
use crate::metrics::{ArrayMetrics, Breakdown};
use crate::spec::ArraySpec;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::ProcessCorner;
use m3d_tech::via::Via;
use m3d_tech::wire;

/// Bitline differential swing needed by the sense amps, as a fraction of
/// Vdd. The bitline delay is `R·C·ln(1/(1-swing))` and the bitline energy is
/// `C·Vdd·(swing·Vdd)` per column.
const BITLINE_SWING: f64 = 0.15;
/// Fraction of routed output bits assumed to toggle per access.
const ROUTE_ACTIVITY: f64 = 0.25;
/// Width of a row-decoder strip next to each subarray, feature sizes.
const DECODER_STRIP_F: f64 = 60.0;
/// Height of a sense-amp/precharge strip per port, feature sizes.
const SENSE_STRIP_PER_PORT_F: f64 = 24.0;
/// Area overhead of inter-subarray routing channels.
const HTREE_AREA_OVERHEAD: f64 = 1.08;

/// CAM geometry carried by a [`LayerPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamPlan {
    /// Content-searchable bits per word on this layer.
    pub tag_bits: usize,
    /// Parallel search ports on this layer.
    pub search_ports: usize,
}

/// Everything needed to analyse one physical layer of an array.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    /// Words stored on this layer (per bank).
    pub rows: usize,
    /// Bits per word on this layer.
    pub cols: usize,
    /// Independent banks.
    pub banks: usize,
    /// The bitcell as laid out on this layer.
    pub cell: CellGeometry,
    /// Horizontal cell pitch override (µm). 3D partitions must align the two
    /// layers' grids, so wire lengths use the max pitch across layers.
    pub pitch_w_um: Option<f64>,
    /// Vertical cell pitch override (µm).
    pub pitch_h_um: Option<f64>,
    /// Process corner of this layer's periphery (decoder, drivers, senses).
    pub periphery: ProcessCorner,
    /// Via inserted in the wordline path (bit partitioning).
    pub wordline_via: Option<Via>,
    /// Via hanging on each bitline (word partitioning).
    pub bitline_via: Option<Via>,
    /// Lumped via area charged to this layer's footprint, µm².
    pub via_area_um2: f64,
    /// Extra delay charged for via sharing/muxing (TSV layout optimization).
    pub via_mux_delay_s: f64,
    /// Scale on H-tree route lengths (≈0.71 when the footprint is halved).
    pub route_scale: f64,
    /// Extra capacitance each cell hangs on its bitline, farads. Port
    /// partitioning routes the storage nodes through vias: with TSVs this is
    /// the dominant penalty.
    pub bl_extra_cell_cap_f: f64,
    /// CAM search hardware on this layer, if any.
    pub cam: Option<CamPlan>,
}

impl LayerPlan {
    /// A plain 2D plan for the whole spec on one layer.
    pub fn planar(spec: &ArraySpec, process: ProcessCorner) -> Self {
        let ports = (spec.total_ports() + spec.search_ports).max(1);
        let cell = CellGeometry::new(ports, spec.is_cam(), 1.0, process);
        Self {
            rows: spec.words,
            cols: spec.bits,
            banks: spec.banks,
            cell,
            pitch_w_um: None,
            pitch_h_um: None,
            periphery: process,
            wordline_via: None,
            bitline_via: None,
            via_area_um2: 0.0,
            via_mux_delay_s: 0.0,
            route_scale: 1.0,
            bl_extra_cell_cap_f: 0.0,
            cam: if spec.is_cam() {
                Some(CamPlan {
                    tag_bits: spec.cam_tag_bits,
                    search_ports: spec.search_ports,
                })
            } else {
                None
            },
        }
    }

    fn pitch_w_um(&self, node: &TechnologyNode) -> f64 {
        self.pitch_w_um.unwrap_or_else(|| self.cell.width_um(node))
    }

    fn pitch_h_um(&self, node: &TechnologyNode) -> f64 {
        self.pitch_h_um.unwrap_or_else(|| self.cell.height_um(node))
    }
}

/// A chosen subarray organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Organization {
    /// Number of wordline segments (subarray columns).
    pub ndwl: usize,
    /// Number of bitline segments (subarray rows).
    pub ndbl: usize,
}

/// Full analysis result for a layer plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Headline metrics (access time, energy, footprint).
    pub metrics: ArrayMetrics,
    /// Component-level breakdown.
    pub breakdown: Breakdown,
    /// The organization the search selected.
    pub organization: Organization,
    /// Total array width (one bank), µm.
    pub width_um: f64,
    /// Total array height (one bank), µm.
    pub height_um: f64,
}

fn pow2s_upto(limit: usize) -> impl Iterator<Item = usize> {
    (0..=6).map(|s| 1usize << s).filter(move |v| *v <= limit)
}

/// Analyse a layer plan with a fixed organization.
pub fn analyze_with_org(node: &TechnologyNode, plan: &LayerPlan, org: Organization) -> Analysis {
    let pf = plan.periphery.delay_factor;
    let fo4 = node.fo4_delay_s;
    let vdd = node.vdd;

    let rows_sa = plan.rows.div_ceil(org.ndbl);
    let cols_sa = plan.cols.div_ceil(org.ndwl);
    let cw = plan.pitch_w_um(node);
    let ch = plan.pitch_h_um(node);

    // --- Geometry -----------------------------------------------------
    let sa_w = cols_sa as f64 * cw + node.f_to_um(DECODER_STRIP_F);
    let sa_h =
        rows_sa as f64 * ch + node.f_to_um(SENSE_STRIP_PER_PORT_F * plan.cell.ports.max(1) as f64);
    // Subarrays tile a near-square grid (floorplanners balance the aspect
    // ratio so the H-tree stays short).
    let n_sub = (org.ndwl * org.ndbl) as f64;
    let sub_area = sa_w * sa_h;
    let bank_area_raw = n_sub * sub_area;
    let bank_w = (bank_area_raw * (sa_w / sa_h).clamp(0.25, 4.0))
        .sqrt()
        .max(sa_w);
    let bank_h = bank_area_raw / bank_w;
    let bank_area = bank_area_raw * HTREE_AREA_OVERHEAD;
    let banks_per_side = (plan.banks as f64).sqrt().ceil();
    let total_w = bank_w * banks_per_side;
    let total_h = bank_h * (plan.banks as f64 / banks_per_side).ceil();
    let area = bank_area * plan.banks as f64 + plan.via_area_um2;

    // --- Decoder ------------------------------------------------------
    let dec_levels = (rows_sa.max(2) as f64).log2();
    let t_dec = pf * fo4 * (0.25 * dec_levels + 0.7) + plan.via_mux_delay_s;
    let e_dec = (dec_levels * 10.0 + 6.0) * node.c_inv_min_f * vdd * vdd;

    // --- Wordline -----------------------------------------------------
    // A fixed-size wordline driver (CACTI sizes these once per organization;
    // the delay is then linear in the line capacitance, which is what the 3D
    // transforms halve). Drivers are assumed re-sized per layer to cancel the
    // process penalty (they are not pitch-limited), so `pf` does not multiply
    // the driver term.
    let r_wl_drv = node.r_inv_min_ohm / 8.0;
    let wl_len = cols_sa as f64 * cw;
    let c_wl_gates = cols_sa as f64 * plan.cell.wordline_gate_cap_f(node);
    let c_wl_wire = node.wire_c_per_um * wl_len;
    let c_wl = c_wl_wire + c_wl_gates;
    let r_wl_wire = node.local_wire_r_per_um() * wl_len;
    let mut t_wl = 0.69 * r_wl_drv * c_wl + 0.38 * r_wl_wire * c_wl;
    let mut e_via_wl = 0.0;
    if let Some(via) = &plan.wordline_via {
        // The select signal crosses to this layer through a via before the
        // local wordline driver.
        t_wl += via.insertion_delay_s(r_wl_drv, 8.0 * node.c_inv_min_f);
        e_via_wl = via.switch_energy_j(vdd);
    }
    let e_wl = c_wl * vdd * vdd + e_via_wl;

    // --- Bitline ------------------------------------------------------
    let bl_len = rows_sa as f64 * ch;
    let mut c_bl = rows_sa as f64
        * (plan.cell.bitline_drain_cap_f(node) + plan.bl_extra_cell_cap_f)
        + node.wire_c_per_um * bl_len;
    if let Some(via) = &plan.bitline_via {
        c_bl += via.capacitance_f;
    }
    let r_cell = plan.cell.read_path_resistance_ohm(node);
    let r_bl_wire = node.local_wire_r_per_um() * bl_len;
    // Time for the cell to develop the sense swing on the bitline RC.
    let swing_ln = (1.0 / (1.0 - BITLINE_SWING)).ln();
    let t_bl = (r_cell + 0.5 * r_bl_wire) * c_bl * swing_ln;
    // Differential pair per column; only the sense swing is dissipated.
    let e_bl_per_col = 2.0 * c_bl * vdd * (BITLINE_SWING * vdd);
    let e_bl = e_bl_per_col * cols_sa as f64;

    // --- Sense amp + output -------------------------------------------
    let t_sa = pf * 1.2 * fo4;
    let e_sa = cols_sa as f64 * 6.0 * node.c_inv_min_f * vdd * vdd;

    // --- Routing (H-tree within bank + across banks) -------------------
    let route_len =
        plan.route_scale * ((bank_w + bank_h) / 4.0 + (total_w + total_h - bank_w - bank_h) / 2.0);
    let t_route = wire::repeated_wire_delay_s(node, route_len) + pf * 2.0 * fo4;
    let e_route = wire::wire_energy_j(node, route_len, true) * plan.cols as f64 * ROUTE_ACTIVITY;

    // --- CAM search path ----------------------------------------------
    let (t_match, e_match) = match &plan.cam {
        Some(cam) if cam.tag_bits > 0 && cam.search_ports > 0 => {
            // One tag line (per searched bit) runs the full height of the
            // array: every entry is compared on a search.
            let tag_len = plan.rows as f64 * ch * plan.route_scale.max(0.5);
            let c_compare_gate = 1.2 * node.c_inv_min_f * plan.cell.upsize;
            let c_tag = node.wire_c_per_um * tag_len + plan.rows as f64 * c_compare_gate;
            let r_tag = node.local_wire_r_per_um() * tag_len;
            let t_tag = 0.69 * node.r_inv_min_ohm / 8.0 * c_tag + 0.38 * r_tag * c_tag;
            // Match line spans the tag bits of one word.
            let ml_len = cam.tag_bits as f64 * cw;
            let c_ml = cam.tag_bits as f64 * 2.0 * plan.cell.bitline_drain_cap_f(node)
                + node.wire_c_per_um * ml_len;
            let r_pull =
                node.r_inv_min_ohm / 2.0 * plan.cell.process.delay_factor / plan.cell.upsize;
            let t_ml = 0.69 * r_pull * c_ml + 0.38 * node.local_wire_r_per_um() * ml_len * c_ml;
            // Priority encode the match results.
            let t_enc = pf * fo4 * 0.6 * (plan.rows.max(2) as f64).log2();
            // Energy: a differential tag-line pair per searched bit per
            // search port, plus most match lines discharging.
            let e_tag =
                cam.search_ports as f64 * cam.tag_bits as f64 * 2.0 * c_tag * vdd * vdd * 0.5;
            let e_ml = cam.search_ports as f64 * plan.rows as f64 * c_ml * vdd * vdd * 0.7;
            (t_tag + t_ml + t_enc, e_tag + e_ml)
        }
        _ => (0.0, 0.0),
    };

    let breakdown = Breakdown {
        t_decoder_s: t_dec,
        t_wordline_s: t_wl,
        t_bitline_s: t_bl,
        t_senseamp_s: t_sa,
        t_route_s: t_route,
        t_match_s: t_match,
        e_decoder_j: e_dec,
        e_wordline_j: e_wl,
        e_bitline_j: e_bl,
        e_senseamp_j: e_sa,
        e_route_j: e_route,
        e_match_j: e_match,
    };
    Analysis {
        metrics: ArrayMetrics {
            access_s: breakdown.access_s(),
            energy_j: breakdown.energy_j(),
            footprint_um2: area,
        },
        breakdown,
        organization: org,
        width_um: total_w,
        height_um: total_h,
    }
}

/// Analyse a layer plan, searching subarray organizations for the best
/// delay–energy–area trade-off (CACTI-style).
pub fn analyze_plan(node: &TechnologyNode, plan: &LayerPlan) -> Analysis {
    let _span = m3d_obs::span("sram", "org_search");
    let (mut evaluated, mut pruned) = (0u64, 0u64);
    let mut best: Option<(f64, Analysis)> = None;
    // Multi-ported arrays replicate periphery per port, so splitting into
    // many subarrays is prohibitively expensive for them.
    let max_sub = if plan.cell.ports >= 4 { 16 } else { 64 };
    for ndbl in pow2s_upto(plan.rows.max(1)) {
        if plan.rows / ndbl < 32 && ndbl > 1 {
            pruned += 1;
            continue;
        }
        for ndwl in pow2s_upto(plan.cols.max(1)) {
            if plan.cols / ndwl < 32 && ndwl > 1 {
                pruned += 1;
                continue;
            }
            if ndwl * ndbl > max_sub {
                pruned += 1;
                continue;
            }
            evaluated += 1;
            let a = analyze_with_org(node, plan, Organization { ndwl, ndbl });
            // CACTI-like weighted objective: latency first, energy and area
            // as soft penalties that stop the search from exploding the
            // periphery.
            let cost = a.metrics.access_s.ln()
                + 0.30 * a.metrics.energy_j.ln()
                + 0.25 * a.metrics.footprint_um2.ln();
            match &best {
                Some((c, _)) if *c <= cost => {}
                _ => best = Some((cost, a)),
            }
        }
    }
    m3d_obs::add("sram.organizations.evaluated", evaluated);
    m3d_obs::add("sram.organizations.pruned", pruned);
    best.expect("organization search always evaluates ndwl=ndbl=1")
        .1
}

/// Analyse a planar 2D array: the paper's baseline for every table.
pub fn analyze_2d(spec: &ArraySpec, node: &TechnologyNode, process: ProcessCorner) -> Analysis {
    analyze_plan(node, &LayerPlan::planar(spec, process))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> TechnologyNode {
        TechnologyNode::n22()
    }

    fn hp() -> ProcessCorner {
        ProcessCorner::bulk_hp()
    }

    #[test]
    fn rf_access_sets_plausible_cycle_time() {
        // The paper's baseline core runs at 3.3 GHz limited by RF access:
        // the RF access should be in the ~100-300 ps range.
        let rf = ArraySpec::ram("RF", 160, 64, 12, 6);
        let a = analyze_2d(&rf, &node(), hp());
        assert!(
            a.metrics.access_s > 50e-12 && a.metrics.access_s < 400e-12,
            "RF access = {} ps",
            a.metrics.access_s * 1e12
        );
    }

    #[test]
    fn bigger_arrays_are_slower() {
        let small = ArraySpec::ram("s", 64, 32, 1, 1);
        let large = ArraySpec::ram("l", 4096, 32, 1, 1);
        let n = node();
        assert!(
            analyze_2d(&large, &n, hp()).metrics.access_s
                > analyze_2d(&small, &n, hp()).metrics.access_s
        );
    }

    #[test]
    fn more_ports_cost_latency_energy_area() {
        let n = node();
        let p2 = analyze_2d(&ArraySpec::ram("a", 160, 64, 1, 1), &n, hp());
        let p18 = analyze_2d(&ArraySpec::ram("b", 160, 64, 12, 6), &n, hp());
        assert!(p18.metrics.access_s > p2.metrics.access_s);
        assert!(p18.metrics.energy_j > p2.metrics.energy_j);
        assert!(p18.metrics.footprint_um2 > 5.0 * p2.metrics.footprint_um2);
    }

    #[test]
    fn organization_search_beats_monolithic_for_tall_arrays() {
        let bpt = ArraySpec::ram("BPT", 4096, 8, 1, 1);
        let n = node();
        let searched = analyze_plan(&n, &LayerPlan::planar(&bpt, hp()));
        let mono = analyze_with_org(
            &n,
            &LayerPlan::planar(&bpt, hp()),
            Organization { ndwl: 1, ndbl: 1 },
        );
        assert!(searched.metrics.access_s < mono.metrics.access_s);
        assert!(searched.organization.ndbl > 1);
    }

    #[test]
    fn cam_structures_have_match_path() {
        let iq = ArraySpec::cam("IQ", 84, 16, 6, 4, 8, 6);
        let a = analyze_2d(&iq, &node(), hp());
        assert!(a.breakdown.t_match_s > 0.0);
        assert!(a.breakdown.e_match_j > 0.0);
    }

    #[test]
    fn degraded_process_slows_access() {
        let rf = ArraySpec::ram("RF", 160, 64, 12, 6);
        let n = node();
        let base = analyze_2d(&rf, &n, hp());
        let slow = analyze_2d(&rf, &n, ProcessCorner::top_layer_degraded());
        assert!(slow.metrics.access_s > base.metrics.access_s);
    }

    #[test]
    fn banks_add_area_but_bound_latency() {
        let n = node();
        let one = analyze_2d(&ArraySpec::ram("c", 512, 512, 1, 1), &n, hp());
        let eight = analyze_2d(&ArraySpec::ram("c", 512, 512, 1, 1).with_banks(8), &n, hp());
        assert!(eight.metrics.footprint_um2 > 7.0 * one.metrics.footprint_um2);
        // A banked access still pays the global route but not 8x latency.
        assert!(eight.metrics.access_s < 2.0 * one.metrics.access_s);
    }

    #[test]
    fn breakdown_sums_to_access() {
        let rf = ArraySpec::ram("RF", 160, 64, 12, 6);
        let a = analyze_2d(&rf, &node(), hp());
        assert!((a.breakdown.access_s() - a.metrics.access_s).abs() < 1e-18);
        assert!((a.breakdown.energy_j() - a.metrics.energy_j).abs() < 1e-24);
    }
}
