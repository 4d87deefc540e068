//! Visualise the Figure 5 partition: which blocks of the 64-bit carry-skip
//! adder land in the slow top layer, and how the slack profile drives it.
//!
//! ```text
//! cargo run --release --example logic_partition_map [penalty]
//! ```

use m3d_logic::adder::carry_skip_adder;
use m3d_logic::partition::{partition_hetero, Layer};
use m3d_logic::prefix::kogge_stone_adder;

fn main() {
    let penalty: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.17);

    let nl = carry_skip_adder(64, 4);
    let part = partition_hetero(&nl, penalty);
    let timing = nl.timing();

    println!(
        "== 64-bit carry-skip adder, top layer {:.0}% slower ==",
        penalty * 100.0
    );
    println!(
        "gates {} | critical path {:.1} FO4 | partitioned {:.1} FO4 | top layer {:.0}%\n",
        nl.logic_gate_count(),
        part.delay_2d_fo4,
        part.delay_fo4,
        part.top_fraction() * 100.0
    );

    // Per 4-bit block: slack of the propagate block and where its pieces go.
    println!("block  P-slack  propagate  ripple  skip-mux  cond-sums");
    for k in 0..16 {
        let find = |label: String| {
            nl.iter()
                .find(|(_, g)| g.label == label)
                .map(|(id, _)| id)
                .expect("label exists")
        };
        let layer_of = |id| match part.assignment[id] {
            Layer::Bottom => "bottom",
            Layer::Top => "top",
        };
        let p_id = find(format!("P[{k}]"));
        let c_id = find(format!("c[{}]", k * 4 + 3));
        let m_id = find(format!("skip[{k}]"));
        let s_id = find(format!("s0[{}]", k * 4 + 1));
        println!(
            "{k:>5} {:>8.1} {:>10} {:>7} {:>9} {:>10}",
            timing.slack(p_id),
            layer_of(p_id),
            layer_of(c_id),
            layer_of(m_id),
            layer_of(s_id),
        );
    }
    println!("\nThe skip-mux spine (critical) stays in the bottom layer; the");
    println!("propagate blocks' slack grows with distance from the LSB, so");
    println!("the high blocks move to the top layer (paper Section 4.1.1).");

    // Contrast: the balanced Kogge-Stone tree has far less slack.
    let ks = kogge_stone_adder(64);
    let ks_part = partition_hetero(&ks, penalty);
    let inputs = ks.len() - ks.logic_gate_count();
    let ks_top = ks_part
        .assignment
        .iter()
        .skip(inputs)
        .filter(|&&l| l == Layer::Top)
        .count();
    println!(
        "\nContrast — Kogge-Stone: {:.1} FO4 deep, only {:.0}% of {} gates fit the top layer.",
        ks.timing().critical_path,
        100.0 * ks_top as f64 / ks.logic_gate_count() as f64,
        ks.logic_gate_count(),
    );
}
