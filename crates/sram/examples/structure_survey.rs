//! Survey every core storage structure: the 2D baseline with its
//! component-level delay breakdown, every applicable partitioning strategy
//! under MIV and TSV vias, and the best hetero-layer design.
//!
//! ```text
//! cargo run --release -p m3d-sram --example structure_survey
//! ```

use m3d_sram::hetero::partition_hetero;
use m3d_sram::model2d::analyze_2d;
use m3d_sram::partition3d::{applicable, partition, Strategy};
use m3d_sram::structures::StructureId;
use m3d_tech::process::ProcessCorner;
use m3d_tech::{TechnologyNode, ViaKind};

fn main() {
    let node = TechnologyNode::n22();
    for id in StructureId::ALL {
        let spec = id.spec();
        let base = analyze_2d(&spec, &node, ProcessCorner::bulk_hp());
        println!("== {} 2D: {:.1} ps, {:.2} pJ, {:.0} um2 (org {}x{}) [dec {:.1} wl {:.1} bl {:.1} sa {:.1} rt {:.1} match {:.1}]",
            spec, base.metrics.access_s*1e12, base.metrics.energy_j*1e12, base.metrics.footprint_um2,
            base.organization.ndwl, base.organization.ndbl,
            base.breakdown.t_decoder_s*1e12, base.breakdown.t_wordline_s*1e12, base.breakdown.t_bitline_s*1e12,
            base.breakdown.t_senseamp_s*1e12, base.breakdown.t_route_s*1e12, base.breakdown.t_match_s*1e12);
        for via in [ViaKind::Miv, ViaKind::TsvAggressive] {
            for s in Strategy::ALL {
                if !applicable(&spec, s) {
                    continue;
                }
                if s == Strategy::Port && spec.total_ports() + spec.search_ports < 2 {
                    continue;
                }
                let p = partition(&spec, &node, s, via);
                let r = p.metrics.reduction_vs(&base.metrics);
                println!("   {:?} {}: {}", via, s, r);
            }
        }
        let (h, hr) = partition_hetero(&spec, &node, ViaKind::Miv);
        println!(
            "   HET {} (b{}/t{} u{}): {}",
            h.strategy, h.bottom_share, h.top_share, h.top_upsize, hr
        );
    }
}
