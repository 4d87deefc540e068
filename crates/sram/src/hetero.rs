//! Hetero-layer asymmetric partitioning (paper Section 4.2, Tables 7–8).
//!
//! When the top M3D layer is ~17% slower, a naive 50/50 partition is
//! bottlenecked by the top layer. The paper's fix:
//!
//! * **Port partitioning**: keep the inverters in the bottom layer, give the
//!   top layer *fewer* ports, and upsize its access transistors so its ports
//!   are as fast as the bottom layer's (e.g. 10 bottom + 8 double-width top
//!   ports for the 18-port register file).
//! * **Bit/word partitioning**: give the bottom layer a *larger* slice of the
//!   array (≈2/3 works well) and upsize the top layer's bitcells.
//!
//! This module searches those asymmetric design spaces and returns the
//! latency-optimal configuration.

use crate::cell::CellGeometry;
use crate::metrics::{ArrayMetrics, Reduction};
use crate::model2d::{analyze_2d, analyze_with_org, CamPlan, LayerPlan};
use crate::partition3d::{self, Strategy};
use crate::spec::ArraySpec;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::{LayerProcesses, ProcessCorner};
use m3d_tech::via::{Via, ViaKind};

/// Candidate top-layer transistor upsize factors.
const UPSIZES: [f64; 4] = [1.0, 1.5, 2.0, 3.0];
/// Candidate bottom-layer array fractions for asymmetric BP/WP.
const BOTTOM_FRACTIONS: [f64; 5] = [0.50, 0.58, 0.66, 0.72, 0.80];

/// A hetero-layer partitioned design.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroPartitioned {
    /// Combined metrics (worst-layer latency, per-access energy, per-layer
    /// footprint).
    pub metrics: ArrayMetrics,
    /// Strategy used (after the asymmetric adjustment).
    pub strategy: Strategy,
    /// Ports or array rows/bits assigned to the bottom layer.
    pub bottom_share: usize,
    /// Ports or array rows/bits assigned to the top layer.
    pub top_share: usize,
    /// Top-layer transistor upsize factor chosen.
    pub top_upsize: f64,
}

fn hetero_procs() -> LayerProcesses {
    LayerProcesses::hetero()
}

/// Asymmetric port partitioning: search (bottom ports, upsize).
fn hetero_port(spec: &ArraySpec, node: &TechnologyNode, via: &Via) -> HeteroPartitioned {
    let _span = m3d_obs::span_named("sram", || format!("hetero_port:{}", spec.name));
    let total = spec.total_ports() + spec.search_ports;
    assert!(total >= 2, "{}: need two ports for PP", spec.name);
    let procs = hetero_procs();
    let org = partition3d::analyze_2d_org(spec, node, procs.bottom);
    let mut best: Option<(HeteroPartitioned, f64)> = None;
    let lo = total / 2;
    let hi = (total * 3 / 4).max(lo + 1).min(total - 1);
    for p_b in lo..=hi {
        let p_t = total - p_b;
        for &u in &UPSIZES {
            m3d_obs::add("sram.hetero.candidates", 1);
            let (bottom, top, _vias) =
                partition3d::port_partition_plans(spec, node, procs, via, p_b, p_t, u);
            let ab = analyze_with_org(node, &bottom, org);
            let at = analyze_with_org(node, &top, org);
            let access = ab.metrics.access_s.max(at.metrics.access_s);
            let wb = p_b as f64 / total as f64;
            let energy = wb * ab.metrics.energy_j + (1.0 - wb) * at.metrics.energy_j;
            let footprint = ab.metrics.footprint_um2.max(at.metrics.footprint_um2);
            // Latency-first objective with a small footprint tiebreak.
            let cost = access * (1.0 + 0.02 * footprint.ln().max(0.0));
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((
                    HeteroPartitioned {
                        metrics: ArrayMetrics {
                            access_s: access,
                            energy_j: energy,
                            footprint_um2: footprint,
                        },
                        strategy: Strategy::Port,
                        bottom_share: p_b,
                        top_share: p_t,
                        top_upsize: u,
                    },
                    cost,
                ));
            }
        }
    }
    best.expect("port search space is non-empty").0
}

/// Asymmetric bit or word partitioning: search (bottom fraction, upsize).
fn hetero_bit_word(
    spec: &ArraySpec,
    node: &TechnologyNode,
    via: &Via,
    strategy: Strategy,
) -> HeteroPartitioned {
    let procs = hetero_procs();
    let ports = spec.total_ports() + spec.search_ports;
    let total = match strategy {
        Strategy::Bit => spec.bits,
        Strategy::Word => spec.words,
        Strategy::Port => unreachable!("handled by hetero_port"),
    };
    let _span = m3d_obs::span_named("sram", || {
        format!("hetero_{}:{}", strategy.abbrev(), spec.name)
    });
    let mut best: Option<(HeteroPartitioned, f64)> = None;
    for &f in &BOTTOM_FRACTIONS {
        let n_b = ((total as f64 * f).round() as usize).clamp(1, total - 1);
        let n_t = total - n_b;
        for &u in &UPSIZES {
            m3d_obs::add("sram.hetero.candidates", 1);
            let cell_b = CellGeometry::new(ports, spec.is_cam(), 1.0, procs.bottom);
            let cell_t = CellGeometry::new(ports, spec.is_cam(), u, procs.top);
            let make = |share: usize, cell: CellGeometry, top: bool| {
                let (rows, cols) = match strategy {
                    Strategy::Bit => (spec.words, share),
                    _ => (share, spec.bits),
                };
                LayerPlan {
                    rows,
                    cols,
                    banks: spec.banks,
                    cell,
                    pitch_w_um: None,
                    pitch_h_um: None,
                    // In bit partitioning the periphery stays in the bottom
                    // layer (the select crosses through the via).
                    periphery: if top && strategy != Strategy::Bit {
                        procs.top
                    } else {
                        procs.bottom
                    },
                    wordline_via: (top && strategy == Strategy::Bit).then(|| via.clone()),
                    bitline_via: (strategy == Strategy::Word).then(|| via.clone()),
                    via_area_um2: 0.0,
                    via_mux_delay_s: 0.0,
                    route_scale: std::f64::consts::FRAC_1_SQRT_2,
                    bl_extra_cell_cap_f: 0.0,
                    cam: spec.is_cam().then(|| CamPlan {
                        tag_bits: match strategy {
                            Strategy::Bit => (spec.cam_tag_bits * share).div_ceil(total),
                            _ => spec.cam_tag_bits,
                        },
                        search_ports: spec.search_ports,
                    }),
                }
            };
            let org2d = partition3d::analyze_2d_org(spec, node, procs.bottom);
            let org_for = |share: usize| crate::model2d::Organization {
                ndwl: match strategy {
                    Strategy::Bit => partition3d::clamp_org(org2d.ndwl, share),
                    _ => org2d.ndwl,
                },
                ndbl: match strategy {
                    Strategy::Bit => org2d.ndbl,
                    _ => partition3d::clamp_org(org2d.ndbl, share),
                },
            };
            let ab = analyze_with_org(node, &make(n_b, cell_b, false), org_for(n_b));
            let at = analyze_with_org(node, &make(n_t, cell_t, true), org_for(n_t));
            let access = ab.metrics.access_s.max(at.metrics.access_s);
            let energy = match strategy {
                // BP: both layers take part in every access.
                Strategy::Bit => {
                    ab.metrics.energy_j + at.metrics.energy_j - at.breakdown.e_decoder_j
                }
                // WP: one layer is active; weight by the share of words.
                _ => {
                    let wb = n_b as f64 / total as f64;
                    wb * ab.metrics.energy_j + (1.0 - wb) * at.metrics.energy_j
                }
            };
            let footprint = ab.metrics.footprint_um2.max(at.metrics.footprint_um2);
            let cost = access * (1.0 + 0.02 * footprint.ln().max(0.0));
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((
                    HeteroPartitioned {
                        metrics: ArrayMetrics {
                            access_s: access,
                            energy_j: energy,
                            footprint_um2: footprint,
                        },
                        strategy,
                        bottom_share: n_b,
                        top_share: n_t,
                        top_upsize: u,
                    },
                    cost,
                ));
            }
        }
    }
    best.expect("bit/word search space is non-empty").0
}

/// Hetero-layer partition with an explicit strategy.
pub fn partition_hetero_with(
    spec: &ArraySpec,
    node: &TechnologyNode,
    strategy: Strategy,
    via_kind: ViaKind,
) -> HeteroPartitioned {
    let via = Via::of_kind(via_kind, node);
    match strategy {
        Strategy::Port => hetero_port(spec, node, &via),
        s => hetero_bit_word(spec, node, &via, s),
    }
}

/// Hetero-layer partition choosing the latency-best applicable strategy —
/// the design point behind the paper's Table 8.
pub fn partition_hetero(
    spec: &ArraySpec,
    node: &TechnologyNode,
    via_kind: ViaKind,
) -> (HeteroPartitioned, Reduction) {
    let base = analyze_2d(spec, node, ProcessCorner::bulk_hp());
    let mut best: Option<HeteroPartitioned> = None;
    for s in Strategy::ALL {
        if !partition3d::applicable(spec, s) {
            continue;
        }
        let h = partition_hetero_with(spec, node, s, via_kind);
        let better = match &best {
            None => true,
            Some(b) => {
                h.metrics.access_s < 0.95 * b.metrics.access_s
                    || (h.metrics.access_s < 1.05 * b.metrics.access_s
                        && h.metrics.footprint_um2 < b.metrics.footprint_um2)
            }
        };
        if better {
            best = Some(h);
        }
    }
    let best = best.expect("every structure admits at least one strategy");
    let r = best.metrics.reduction_vs(&base.metrics);
    (best, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> TechnologyNode {
        TechnologyNode::n22()
    }

    fn rf() -> ArraySpec {
        ArraySpec::ram("RF", 160, 64, 12, 6)
    }

    #[test]
    fn hetero_rf_still_improves_substantially() {
        // Table 8: RF latency −40%, energy −32%, area −47% — large
        // reductions survive the slow top layer.
        let (h, r) = partition_hetero(&rf(), &node(), ViaKind::Miv);
        assert_eq!(h.strategy, Strategy::Port);
        assert!(r.latency_pct > 20.0, "{r}");
        assert!(r.footprint_pct > 30.0, "{r}");
    }

    #[test]
    fn hetero_pp_assigns_fewer_ports_to_top() {
        let (h, _) = partition_hetero(&rf(), &node(), ViaKind::Miv);
        assert!(
            h.bottom_share >= h.top_share,
            "bottom {} top {}",
            h.bottom_share,
            h.top_share
        );
        assert_eq!(h.bottom_share + h.top_share, 18);
    }

    #[test]
    fn hetero_close_to_iso_performance() {
        // Section 4: the asymmetric techniques recover most of the loss; the
        // paper's Table 8 numbers are "only slightly lower" than Table 6.
        let n = node();
        let iso = partition3d::partition(&rf(), &n, Strategy::Port, ViaKind::Miv);
        let (het, _) = partition_hetero(&rf(), &n, ViaKind::Miv);
        let gap = het.metrics.access_s / iso.metrics.access_s;
        assert!(gap < 1.17, "hetero should not pay the full 17%: gap {gap}");
    }

    #[test]
    fn hetero_beats_naive_hetero() {
        // Naive = symmetric partition on hetero layers (everything slowed by
        // the top layer).
        let n = node();
        let naive = partition3d::partition_with_processes(
            &rf(),
            &n,
            Strategy::Port,
            ViaKind::Miv,
            LayerProcesses::hetero(),
        );
        let (het, _) = partition_hetero(&rf(), &n, ViaKind::Miv);
        assert!(het.metrics.access_s <= naive.metrics.access_s);
    }

    #[test]
    fn bp_asymmetric_gives_bottom_a_larger_slice() {
        let bpt = ArraySpec::ram("BPT", 4096, 8, 1, 1);
        let h = partition_hetero_with(&bpt, &node(), Strategy::Word, ViaKind::Miv);
        assert!(h.bottom_share >= h.top_share);
    }

    #[test]
    fn single_ported_structures_use_bp_or_wp() {
        let bpt = ArraySpec::ram("BPT", 4096, 8, 1, 1);
        let (h, r) = partition_hetero(&bpt, &node(), ViaKind::Miv);
        assert_ne!(h.strategy, Strategy::Port);
        assert!(r.latency_pct > 0.0, "{r}");
    }
}
