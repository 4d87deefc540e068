//! Iso-layer 3D partitioning transforms: bit, word, and port partitioning
//! (paper Section 3.2, Figure 3, Tables 3–6).
//!
//! Each transform splits a 2D array across two device layers connected by
//! vias, and returns the combined access latency, energy per access, and
//! per-layer footprint. The via technology (MIV vs TSV) determines the via
//! RC inserted into the critical path and the area charged to the layout —
//! which is exactly what makes these designs attractive in M3D and marginal
//! (or catastrophic, for port partitioning) in TSV3D.

use crate::cell::CellGeometry;
use crate::metrics::{ArrayMetrics, Reduction};
use crate::model2d::{analyze_2d, analyze_with_org, Analysis, CamPlan, LayerPlan, Organization};
use crate::spec::ArraySpec;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::{LayerProcesses, ProcessCorner};
use m3d_tech::via::{Via, ViaKind};

/// Maximum fraction of a layer's ideal area the vias may occupy before the
/// model applies via sharing (the "layout optimizations considering different
/// via placement schemes" of Section 6); sharing muxes several signals onto
/// one via at a small delay cost.
const VIA_AREA_BUDGET: f64 = 0.5;

/// The three partitioning strategies of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Bit partitioning: half of each word per layer; wordlines halve.
    Bit,
    /// Word partitioning: half of the words per layer; bitlines halve.
    Word,
    /// Port partitioning: half of the ports per layer; the cell shrinks.
    Port,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [Strategy::Bit, Strategy::Word, Strategy::Port];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Strategy::Bit => "BP",
            Strategy::Word => "WP",
            Strategy::Port => "PP",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Result of partitioning an array across two layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioned3d {
    /// Combined access latency / energy / per-layer footprint.
    pub metrics: ArrayMetrics,
    /// Per-layer analyses (bottom, top).
    pub layers: [Analysis; 2],
    /// Strategy used.
    pub strategy: Strategy,
    /// Via technology used.
    pub via_kind: ViaKind,
    /// Number of inter-layer vias (before any sharing).
    pub vias: usize,
}

/// Charge via area against a layer, sharing vias through muxes when the raw
/// area would blow the budget (only ever needed for TSVs). Returns
/// `(area_um2, extra_delay_s)`.
fn budget_vias(
    node: &TechnologyNode,
    via: &Via,
    count: usize,
    ideal_layer_area_um2: f64,
) -> (f64, f64) {
    let raw = via.occupied_area_um2() * count as f64;
    let budget = VIA_AREA_BUDGET * ideal_layer_area_um2;
    if raw <= budget || via.kind.is_miv() {
        (raw, 0.0)
    } else {
        let share = (raw / budget).ceil();
        let mux_delay = node.fo4_delay_s * 0.4 * share.log2().max(1.0);
        (budget, mux_delay)
    }
}

fn ideal_layer_area(spec: &ArraySpec, node: &TechnologyNode, cell: &CellGeometry) -> f64 {
    0.5 * spec.words as f64 * spec.bits as f64 * spec.banks as f64 * cell.area_um2(node)
}

/// Split `n` ports into (bottom, top) halves, bottom gets the extra one.
fn split_ports(n: usize) -> (usize, usize) {
    (n - n / 2, n / 2)
}

/// Organization CACTI picked for the 2D baseline; the 3D transforms fold this
/// organization rather than re-optimizing (which would hide the 3D benefit
/// behind extra 2D periphery the baseline was not willing to pay).
pub(crate) fn analyze_2d_org(
    spec: &ArraySpec,
    node: &TechnologyNode,
    process: ProcessCorner,
) -> Organization {
    analyze_2d(spec, node, process).organization
}

/// Clamp a subarray split so each segment keeps at least two rows/columns.
pub(crate) fn clamp_org(n: usize, extent: usize) -> usize {
    n.min((extent / 2).max(1))
}

/// Bit-partition: each layer stores half of each word.
fn partition_bit(
    spec: &ArraySpec,
    node: &TechnologyNode,
    procs: LayerProcesses,
    via: &Via,
) -> Partitioned3d {
    let ports = spec.total_ports() + spec.search_ports;
    let cell_b = CellGeometry::new(ports, spec.is_cam(), 1.0, procs.bottom);
    let cell_t = CellGeometry::new(ports, spec.is_cam(), 1.0, procs.top);
    let cols_half = spec.bits.div_ceil(2);
    let vias = spec.words * spec.banks;
    let (via_area, mux_delay) = budget_vias(node, via, vias, ideal_layer_area(spec, node, &cell_b));

    let cam_half = spec.is_cam().then(|| CamPlan {
        tag_bits: spec.cam_tag_bits.div_ceil(2),
        search_ports: spec.search_ports,
    });

    let bottom = LayerPlan {
        rows: spec.words,
        cols: cols_half,
        banks: spec.banks,
        cell: cell_b,
        pitch_w_um: None,
        pitch_h_um: None,
        periphery: procs.bottom,
        wordline_via: None,
        bitline_via: None,
        via_area_um2: via_area / 2.0,
        via_mux_delay_s: mux_delay,
        route_scale: std::f64::consts::FRAC_1_SQRT_2,
        bl_extra_cell_cap_f: 0.0,
        cam: cam_half,
    };
    // The row decoder and wordline drivers live in the bottom layer (the
    // select crosses through the via), so the top layer's periphery does not
    // pay the top-layer process penalty.
    let top = LayerPlan {
        cell: cell_t,
        periphery: procs.bottom,
        wordline_via: Some(via.clone()),
        ..bottom.clone()
    };
    // Fold the 2D-optimal organization rather than re-optimizing each layer:
    // this mirrors how the paper's 3D-CACTI methodology partitions the
    // already-chosen organization (Section 6).
    let org2d = analyze_2d_org(spec, node, procs.bottom);
    let org = Organization {
        ndwl: clamp_org(org2d.ndwl, cols_half),
        ndbl: clamp_org(org2d.ndbl, spec.words),
    };
    let ab = analyze_with_org(node, &bottom, org);
    let at = analyze_with_org(node, &top, org);

    // The decoder lives in the bottom layer; the top layer reuses its select
    // through the via, so we do not pay the top decoder's energy twice.
    // CAM structures additionally pay a per-entry via to AND the two layers'
    // half match-lines together.
    let (match_pen_s, match_pen_j, extra_vias) = if spec.is_cam() {
        (
            via.insertion_delay_s(node.r_inv_min_ohm / 8.0, 4.0 * node.c_inv_min_f)
                + 0.5 * node.fo4_delay_s,
            spec.words as f64 * via.switch_energy_j(node.vdd) * 0.7,
            spec.words * spec.banks,
        )
    } else {
        (0.0, 0.0, 0)
    };
    let path = |a: &Analysis| {
        a.breakdown
            .ram_path_s()
            .max(a.breakdown.t_match_s + match_pen_s)
    };
    let access = path(&ab).max(path(&at));
    let energy =
        ab.metrics.energy_j + (at.metrics.energy_j - at.breakdown.e_decoder_j) + match_pen_j;
    let footprint = ab.metrics.footprint_um2.max(at.metrics.footprint_um2);
    Partitioned3d {
        metrics: ArrayMetrics {
            access_s: access,
            energy_j: energy,
            footprint_um2: footprint,
        },
        layers: [ab, at],
        strategy: Strategy::Bit,
        via_kind: via.kind,
        vias: vias + extra_vias,
    }
}

/// Word-partition: each layer stores half of the words.
fn partition_word(
    spec: &ArraySpec,
    node: &TechnologyNode,
    procs: LayerProcesses,
    via: &Via,
) -> Partitioned3d {
    let ports = spec.total_ports() + spec.search_ports;
    let cell_b = CellGeometry::new(ports, spec.is_cam(), 1.0, procs.bottom);
    let cell_t = CellGeometry::new(ports, spec.is_cam(), 1.0, procs.top);
    let rows_half = spec.words.div_ceil(2);
    // One via per bitline: differential pair per port per column.
    let vias = spec.bits * 2 * spec.total_ports().max(1) * spec.banks;
    let (via_area, mux_delay) = budget_vias(node, via, vias, ideal_layer_area(spec, node, &cell_b));

    let cam_half = spec.is_cam().then_some(CamPlan {
        tag_bits: spec.cam_tag_bits,
        search_ports: spec.search_ports,
    });

    let bottom = LayerPlan {
        rows: rows_half,
        cols: spec.bits,
        banks: spec.banks,
        cell: cell_b,
        pitch_w_um: None,
        pitch_h_um: None,
        periphery: procs.bottom,
        wordline_via: None,
        bitline_via: Some(via.clone()),
        via_area_um2: via_area / 2.0,
        via_mux_delay_s: mux_delay,
        route_scale: std::f64::consts::FRAC_1_SQRT_2,
        bl_extra_cell_cap_f: 0.0,
        cam: cam_half,
    };
    let top = LayerPlan {
        cell: cell_t,
        periphery: procs.top,
        ..bottom.clone()
    };
    let org2d = analyze_2d_org(spec, node, procs.bottom);
    let org = Organization {
        ndwl: clamp_org(org2d.ndwl, spec.bits),
        ndbl: clamp_org(org2d.ndbl, rows_half),
    };
    let ab = analyze_with_org(node, &bottom, org);
    let at = analyze_with_org(node, &top, org);

    // Only the layer holding the word is active; the worst case (and the
    // cycle-limiting case) is the top layer, whose output crosses the via to
    // the shared sense amps.
    let access = ab.metrics.access_s.max(at.metrics.access_s) + 0.3 * node.fo4_delay_s;
    let energy = ab.metrics.energy_j.max(at.metrics.energy_j);
    let footprint = ab.metrics.footprint_um2.max(at.metrics.footprint_um2);
    Partitioned3d {
        metrics: ArrayMetrics {
            access_s: access,
            energy_j: energy,
            footprint_um2: footprint,
        },
        layers: [ab, at],
        strategy: Strategy::Word,
        via_kind: via.kind,
        vias,
    }
}

/// Build the aligned per-layer plans for a port split `(p_b, p_t)` with a
/// given top-layer upsize; shared by the iso and hetero partitioners, and
/// exposed for design-space exploration (see the `design_space_explorer`
/// example).
pub fn port_partition_plans(
    spec: &ArraySpec,
    node: &TechnologyNode,
    procs: LayerProcesses,
    via: &Via,
    p_bottom: usize,
    p_top: usize,
    top_upsize: f64,
) -> (LayerPlan, LayerPlan, usize) {
    let cell_b = CellGeometry::with_core(p_bottom, spec.is_cam(), 1.0, procs.bottom, true);
    let mut cell_t = CellGeometry::with_core(p_top, spec.is_cam(), top_upsize, procs.top, false);
    // Two vias per cell (the storage nodes cross layers). For MIVs this is a
    // small area add; for TSVs the keep-out zones floor the cell pitch and
    // blow the cell up (the paper's −498% footprint for the RF).
    let via_area_f2 = 2.0 * via.occupied_area_um2() / node.f2_to_um2(1.0);
    let base_area_f2 = cell_t.width_f * cell_t.height_f;
    let scale = (1.0 + via_area_f2 / base_area_f2).sqrt();
    cell_t.width_f *= scale;
    cell_t.height_f *= scale;
    if !via.kind.is_miv() {
        let koz_side_f =
            via.diameter_um * m3d_tech::via::TSV_KOZ_SIDE_MULTIPLIER / node.f_to_um(1.0);
        cell_t.width_f = cell_t.width_f.max(2.0 * koz_side_f);
        cell_t.height_f = cell_t.height_f.max(koz_side_f);
    }
    // The storage node crossing loads every bitline connected on the top
    // layer with (part of) the via capacitance.
    let storage_via_cap = 0.5 * via.capacitance_f;

    // The layers stack: the wire grid pitch on both layers is the max pitch.
    let pw = cell_b.width_um(node).max(cell_t.width_um(node));
    let ph = cell_b.height_um(node).max(cell_t.height_um(node));

    let total_ports = (spec.total_ports() + spec.search_ports).max(1);
    let search_b = (spec.search_ports * p_bottom).div_ceil(total_ports);
    let cam_plan = |sp: usize| {
        (spec.is_cam() && sp > 0).then_some(CamPlan {
            tag_bits: spec.cam_tag_bits,
            search_ports: sp,
        })
    };

    let bottom = LayerPlan {
        rows: spec.words,
        cols: spec.bits,
        banks: spec.banks,
        cell: cell_b,
        pitch_w_um: Some(pw),
        pitch_h_um: Some(ph),
        periphery: procs.bottom,
        wordline_via: None,
        bitline_via: None,
        via_area_um2: 0.0,
        via_mux_delay_s: 0.0,
        route_scale: std::f64::consts::FRAC_1_SQRT_2,
        bl_extra_cell_cap_f: 0.0,
        cam: cam_plan(search_b.min(spec.search_ports)),
    };
    let top = LayerPlan {
        cell: cell_t,
        periphery: procs.top,
        bl_extra_cell_cap_f: storage_via_cap,
        cam: cam_plan(spec.search_ports - search_b.min(spec.search_ports)),
        ..bottom.clone()
    };
    let vias = 2 * spec.words * spec.bits * spec.banks;
    (bottom, top, vias)
}

/// Port-partition: half of the ports per layer (iso-layer variant).
fn partition_port(
    spec: &ArraySpec,
    node: &TechnologyNode,
    procs: LayerProcesses,
    via: &Via,
) -> Partitioned3d {
    let total = spec.total_ports() + spec.search_ports;
    assert!(
        total >= 2,
        "{}: port partitioning needs at least two ports",
        spec.name
    );
    let (p_b, p_t) = split_ports(total);
    let (bottom, top, vias) = port_partition_plans(spec, node, procs, via, p_b, p_t, 1.0);
    let org = analyze_2d_org(spec, node, procs.bottom);
    let ab = analyze_with_org(node, &bottom, org);
    let at = analyze_with_org(node, &top, org);

    let access = ab.metrics.access_s.max(at.metrics.access_s);
    // An access uses one port; weight layer energies by their port share.
    let wb = p_b as f64 / total as f64;
    let energy = wb * ab.metrics.energy_j + (1.0 - wb) * at.metrics.energy_j;
    let footprint = ab.metrics.footprint_um2.max(at.metrics.footprint_um2);
    Partitioned3d {
        metrics: ArrayMetrics {
            access_s: access,
            energy_j: energy,
            footprint_um2: footprint,
        },
        layers: [ab, at],
        strategy: Strategy::Port,
        via_kind: via.kind,
        vias,
    }
}

/// Partition `spec` across two same-process layers with the given strategy
/// and via technology.
///
/// # Panics
///
/// Panics if `strategy` is [`Strategy::Port`] and the structure has fewer
/// than two ports (the paper notes PP "cannot be applied to the BPT because
/// the latter is single-ported").
pub fn partition(
    spec: &ArraySpec,
    node: &TechnologyNode,
    strategy: Strategy,
    via_kind: ViaKind,
) -> Partitioned3d {
    partition_with_processes(spec, node, strategy, via_kind, LayerProcesses::iso())
}

/// Partition with explicit per-layer processes (used by the hetero-layer
/// naive variant and by experiments).
pub fn partition_with_processes(
    spec: &ArraySpec,
    node: &TechnologyNode,
    strategy: Strategy,
    via_kind: ViaKind,
    procs: LayerProcesses,
) -> Partitioned3d {
    let via = Via::of_kind(via_kind, node);
    partition_custom(spec, node, strategy, &via, procs)
}

/// Partition with an explicit, possibly customised via — used by the
/// TSV-diameter-sensitivity ablation.
pub fn partition_with_via(
    spec: &ArraySpec,
    node: &TechnologyNode,
    strategy: Strategy,
    via: &Via,
) -> Partitioned3d {
    partition_custom(spec, node, strategy, via, LayerProcesses::iso())
}

fn partition_custom(
    spec: &ArraySpec,
    node: &TechnologyNode,
    strategy: Strategy,
    via: &Via,
    procs: LayerProcesses,
) -> Partitioned3d {
    match strategy {
        Strategy::Bit => partition_bit(spec, node, procs, via),
        Strategy::Word => partition_word(spec, node, procs, via),
        Strategy::Port => partition_port(spec, node, procs, via),
    }
}

/// Whether a strategy is applicable to a structure.
pub fn applicable(spec: &ArraySpec, strategy: Strategy) -> bool {
    match strategy {
        Strategy::Bit => spec.bits >= 2,
        Strategy::Word => spec.words >= 2,
        Strategy::Port => spec.total_ports() + spec.search_ports >= 2,
    }
}

/// Choose the best applicable strategy for a structure: the paper prefers
/// designs that reduce access latency most (Section 3.2).
pub fn best_partition(
    spec: &ArraySpec,
    node: &TechnologyNode,
    via_kind: ViaKind,
) -> (Strategy, Partitioned3d, Reduction) {
    let _span = m3d_obs::span_named("sram", || format!("best_partition:{}", spec.name));
    let base = crate::model2d::analyze_2d(spec, node, ProcessCorner::bulk_hp());
    let mut best: Option<(Strategy, Partitioned3d, Reduction)> = None;
    for s in Strategy::ALL {
        if !applicable(spec, s) {
            m3d_obs::add("sram.partition.strategies_skipped", 1);
            continue;
        }
        m3d_obs::add("sram.partition.strategies_evaluated", 1);
        let p = partition(spec, node, s, via_kind);
        let r = p.metrics.reduction_vs(&base.metrics);
        // Latency-first; within a 3% latency band, prefer the smaller
        // footprint (PP wins such ties for multi-ported structures, which is
        // the paper's Table 6 preference).
        let better = match &best {
            None => true,
            Some((_, bp, _)) => {
                p.metrics.access_s < 0.95 * bp.metrics.access_s
                    || (p.metrics.access_s < 1.05 * bp.metrics.access_s
                        && p.metrics.footprint_um2 < bp.metrics.footprint_um2)
            }
        };
        if better {
            best = Some((s, p, r));
        }
    }
    best.expect("every structure admits at least one strategy")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model2d::analyze_2d;

    fn node() -> TechnologyNode {
        TechnologyNode::n22()
    }

    fn rf() -> ArraySpec {
        ArraySpec::ram("RF", 160, 64, 12, 6)
    }

    fn bpt() -> ArraySpec {
        ArraySpec::ram("BPT", 4096, 8, 1, 1)
    }

    fn base(spec: &ArraySpec) -> ArrayMetrics {
        analyze_2d(spec, &node(), ProcessCorner::bulk_hp()).metrics
    }

    #[test]
    fn m3d_bp_improves_rf_all_metrics() {
        let r = partition(&rf(), &node(), Strategy::Bit, ViaKind::Miv)
            .metrics
            .reduction_vs(&base(&rf()));
        assert!(r.latency_pct > 0.0, "{r}");
        assert!(r.energy_pct > 0.0, "{r}");
        assert!(r.footprint_pct > 20.0, "{r}");
    }

    #[test]
    fn m3d_pp_is_best_for_rf() {
        // Table 6: PP is the best strategy for the multi-ported RF in M3D.
        let (s, _, r) = best_partition(&rf(), &node(), ViaKind::Miv);
        assert_eq!(s, Strategy::Port, "got {s} with {r}");
        assert!(r.latency_pct > 25.0, "{r}");
        assert!(r.footprint_pct > 35.0, "{r}");
    }

    #[test]
    fn tsv_pp_is_catastrophic_for_rf() {
        // Table 5: PP with TSVs inflates the RF cell enormously (−361%
        // latency, −498% footprint in the paper).
        let r = partition(&rf(), &node(), Strategy::Port, ViaKind::TsvAggressive)
            .metrics
            .reduction_vs(&base(&rf()));
        assert!(r.footprint_pct < -100.0, "{r}");
        assert!(r.latency_pct < 0.0, "{r}");
    }

    #[test]
    fn tsv_cannot_be_best_by_port_partitioning() {
        let (s, _, _) = best_partition(&rf(), &node(), ViaKind::TsvAggressive);
        assert_ne!(s, Strategy::Port);
    }

    #[test]
    fn wp_beats_bp_for_tall_bpt_in_m3d() {
        // Table 6: the BPT's array is much taller than wide, so WP (which
        // halves bitlines) wins in M3D.
        let n = node();
        let bp = partition(&bpt(), &n, Strategy::Bit, ViaKind::Miv);
        let wp = partition(&bpt(), &n, Strategy::Word, ViaKind::Miv);
        assert!(
            wp.metrics.access_s <= bp.metrics.access_s,
            "WP {} ps vs BP {} ps",
            wp.metrics.access_s * 1e12,
            bp.metrics.access_s * 1e12
        );
    }

    #[test]
    fn wp_saves_more_energy_than_bp() {
        // Tables 3/4 (RF): WP −35% energy vs BP −22%: halving bitlines saves
        // more energy than halving wordlines.
        let n = node();
        let b = base(&rf());
        let bp = partition(&rf(), &n, Strategy::Bit, ViaKind::Miv)
            .metrics
            .reduction_vs(&b);
        let wp = partition(&rf(), &n, Strategy::Word, ViaKind::Miv)
            .metrics
            .reduction_vs(&b);
        assert!(wp.energy_pct > bp.energy_pct, "wp {wp} vs bp {bp}");
    }

    #[test]
    fn m3d_beats_tsv_on_every_metric_for_rf_bp() {
        let n = node();
        let b = base(&rf());
        let m = partition(&rf(), &n, Strategy::Bit, ViaKind::Miv)
            .metrics
            .reduction_vs(&b);
        let t = partition(&rf(), &n, Strategy::Bit, ViaKind::TsvAggressive)
            .metrics
            .reduction_vs(&b);
        assert!(m.latency_pct >= t.latency_pct);
        assert!(m.energy_pct >= t.energy_pct);
        assert!(m.footprint_pct >= t.footprint_pct);
    }

    #[test]
    fn multiported_gains_exceed_single_ported_gains() {
        // Section 3.2.1: the multi-ported RF benefits more from BP than the
        // single-ported BPT (bigger area → wire-dominated).
        let n = node();
        let r_rf = partition(&rf(), &n, Strategy::Bit, ViaKind::Miv)
            .metrics
            .reduction_vs(&base(&rf()));
        let r_bpt = partition(&bpt(), &n, Strategy::Bit, ViaKind::Miv)
            .metrics
            .reduction_vs(&base(&bpt()));
        assert!(
            r_rf.latency_pct > r_bpt.latency_pct,
            "rf {r_rf} vs bpt {r_bpt}"
        );
    }

    #[test]
    fn pp_not_applicable_to_single_ported() {
        assert!(!applicable(
            &ArraySpec::ram("BPT", 4096, 8, 1, 0),
            Strategy::Port
        ));
        assert!(applicable(&bpt(), Strategy::Word));
    }

    #[test]
    #[should_panic(expected = "port partitioning needs at least two ports")]
    fn pp_panics_on_single_port() {
        let spec = ArraySpec::ram("x", 64, 8, 1, 0);
        let _ = partition(&spec, &node(), Strategy::Port, ViaKind::Miv);
    }

    #[test]
    fn footprint_is_roughly_halved_in_m3d() {
        for s in [Strategy::Bit, Strategy::Word] {
            let p = partition(&rf(), &node(), s, ViaKind::Miv);
            let b = base(&rf());
            let ratio = p.metrics.footprint_um2 / b.footprint_um2;
            assert!(ratio > 0.4 && ratio < 0.8, "{s}: ratio {ratio}");
        }
    }
}
