//! Design-space exploration: the ablations DESIGN.md calls out.
//!
//! 1. Strategy choice per structure (PP vs BP vs WP on the register file).
//! 2. Hetero-layer bottom-share and upsize sweeps for the RF.
//! 3. TSV diameter sensitivity: how thick can a via get before 3D
//!    partitioning stops paying?
//!
//! ```text
//! cargo run --release --example design_space_explorer
//! ```

use m3d_sram::model2d::{analyze_2d, analyze_with_org};
use m3d_sram::partition3d::{partition, port_partition_plans, Strategy};
use m3d_sram::structures::StructureId;
use m3d_tech::process::{LayerProcesses, ProcessCorner};
use m3d_tech::via::Via;
use m3d_tech::{TechnologyNode, ViaKind};

fn main() {
    let node = TechnologyNode::n22();
    let rf = StructureId::Rf.spec();
    let base = analyze_2d(&rf, &node, ProcessCorner::bulk_hp());

    println!("== 1. Strategy ablation on the register file (M3D) ==");
    for s in Strategy::ALL {
        let p = partition(&rf, &node, s, ViaKind::Miv);
        println!("  {}: {}", s, p.metrics.reduction_vs(&base.metrics));
    }

    println!("\n== 2. Hetero-layer RF: bottom-ports x upsize sweep ==");
    println!(
        "  (access latency in ps; 2D = {:.0} ps)",
        base.metrics.access_s * 1e12
    );
    print!("  b\\u ");
    for u in [1.0, 1.5, 2.0, 3.0] {
        print!("{u:>8.1}x");
    }
    println!();
    let procs = LayerProcesses::hetero();
    let via = Via::miv(&node);
    let org = analyze_2d(&rf, &node, procs.bottom).organization;
    for p_b in 9..=13 {
        print!("  {p_b:>2}  ");
        for u in [1.0, 1.5, 2.0, 3.0] {
            let (bottom, top, _) = port_partition_plans(&rf, &node, procs, &via, p_b, 18 - p_b, u);
            let ab = analyze_with_org(&node, &bottom, org);
            let at = analyze_with_org(&node, &top, org);
            let acc = ab.metrics.access_s.max(at.metrics.access_s);
            print!("{:>9.0}", acc * 1e12);
        }
        println!();
    }

    println!("\n== 3. TSV diameter sensitivity (bit partitioning of the RF) ==");
    for d_um in [0.5, 1.0, 1.3, 2.0, 3.0, 5.0] {
        let mut via = Via::tsv_aggressive();
        via.diameter_um = d_um;
        // Capacitance scales roughly with diameter.
        via.capacitance_f = 2.5e-15 * d_um / 1.3;
        let r = m3d_sram::partition3d::partition_with_via(&rf, &node, Strategy::Bit, &via)
            .metrics
            .reduction_vs(&base.metrics);
        println!("  {d_um:>4.1} um: {r}");
    }
    println!("\n  -> latency gains decay steadily with via diameter; and port");
    println!("     partitioning (not shown) is catastrophic for any TSV size,");
    println!("     which is why fine-grained 3D needs MIV-class vias (Section 2).");
}
