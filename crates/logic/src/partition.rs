//! Slack-driven two-layer partitioning of a logic stage for hetero-layer M3D
//! (paper Section 4.1, Table 7: "critical paths in bottom layer; non-critical
//! paths in top").
//!
//! Gates placed in the top layer run `1 + penalty` slower. The partitioner
//! greedily moves the highest-slack gates to the top layer, then verifies
//! with full static timing that the critical path did not stretch; any
//! offending gates are moved back. The paper's observation is that logic
//! stages have so much slack (≥60% of transistors are high-Vt, i.e.
//! non-critical) that half of the gates always fit in the top layer.

use crate::netlist::{GateId, GateKind, Netlist};

/// Which layer a gate is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// High-performance bottom layer.
    Bottom,
    /// Low-temperature-processed (slower) top layer.
    Top,
}

/// Result of partitioning a netlist across two hetero layers.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicPartition {
    /// Per-gate layer assignment (primary inputs stay `Bottom`).
    pub assignment: Vec<Layer>,
    /// Critical-path delay of the partitioned netlist, FO4 units.
    pub delay_fo4: f64,
    /// Critical-path delay of the original 2D netlist, FO4 units.
    pub delay_2d_fo4: f64,
    /// Top-layer delay penalty used.
    pub penalty: f64,
    /// Number of logic gates (excluding inputs).
    pub logic_gates: usize,
}

impl LogicPartition {
    /// Fraction of logic gates placed in the top layer.
    pub fn top_fraction(&self) -> f64 {
        let top = self.assignment.iter().filter(|&&l| l == Layer::Top).count();
        top as f64 / self.logic_gates.max(1) as f64
    }

    /// Partitioned delay over 2D delay (1.0 = no slowdown).
    pub fn delay_ratio(&self) -> f64 {
        self.delay_fo4 / self.delay_2d_fo4
    }
}

/// Partition `netlist` for a top layer that is `penalty` slower (e.g. 0.17),
/// without stretching the critical path.
///
/// # Panics
///
/// Panics if `penalty` is negative.
pub fn partition_hetero(netlist: &Netlist, penalty: f64) -> LogicPartition {
    assert!(penalty >= 0.0, "penalty must be non-negative");
    let base = netlist.timing();
    let logic_gates = netlist.logic_gate_count();

    // Candidate order: largest slack first.
    let mut candidates: Vec<GateId> = netlist
        .iter()
        .filter(|(_, g)| g.kind != GateKind::Input)
        .map(|(id, _)| id)
        .collect();
    candidates.sort_by(|&x, &y| {
        base.slack(y)
            .partial_cmp(&base.slack(x))
            .expect("slacks are finite")
    });

    let n = netlist.len();
    let mut assignment = vec![Layer::Bottom; n];
    // Initial greedy pass: a gate goes to the top layer if its own slack
    // covers its delay increase with margin for shared paths.
    for &id in &candidates {
        let extra = netlist.gate_at(id).kind.delay_fo4() * penalty;
        if base.slack(id) >= 2.0 * extra {
            assignment[id] = Layer::Top;
        }
    }
    // Repair: recompute timing with penalties; while the path is stretched,
    // pull the most-critical top-layer gates back to the bottom.
    loop {
        let t = netlist.timing_with(|id| {
            if assignment[id] == Layer::Top {
                1.0 + penalty
            } else {
                1.0
            }
        });
        if t.critical_path <= base.critical_path + 1e-9 {
            return LogicPartition {
                assignment,
                delay_fo4: t.critical_path,
                delay_2d_fo4: base.critical_path,
                penalty,
                logic_gates,
            };
        }
        // Move back the top-layer gate with the least slack under penalties.
        let worst = netlist
            .iter()
            .filter(|(id, g)| assignment[*id] == Layer::Top && g.kind != GateKind::Input)
            .min_by(|(x, _), (y, _)| {
                t.slack(*x)
                    .partial_cmp(&t.slack(*y))
                    .expect("slacks are finite")
            })
            .map(|(id, _)| id)
            .expect("stretched path implies a top-layer gate exists");
        assignment[worst] = Layer::Bottom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::carry_skip_adder;
    use crate::netlist::GateKind;

    #[test]
    fn adder_fits_half_in_top_layer_at_17pct() {
        let nl = carry_skip_adder(64, 4);
        let p = partition_hetero(&nl, 0.17);
        assert!(p.top_fraction() >= 0.5, "top fraction {}", p.top_fraction());
        assert!(p.delay_ratio() <= 1.0 + 1e-9, "ratio {}", p.delay_ratio());
    }

    #[test]
    fn adder_fits_half_even_at_20pct() {
        // Section 4.1.1: "even if the top layer was 20% slower ... we can
        // always find 50% of gates that are not critical".
        let nl = carry_skip_adder(64, 4);
        let p = partition_hetero(&nl, 0.20);
        assert!(p.top_fraction() >= 0.5, "top fraction {}", p.top_fraction());
        assert!(p.delay_ratio() <= 1.0 + 1e-9);
    }

    #[test]
    fn critical_gates_stay_in_bottom() {
        let nl = carry_skip_adder(64, 4);
        let p = partition_hetero(&nl, 0.17);
        let t = nl.timing();
        for (id, g) in nl.iter() {
            if g.kind != GateKind::Input && t.slack(id) < 1e-9 {
                assert_eq!(
                    p.assignment[id],
                    Layer::Bottom,
                    "critical gate {} must stay in bottom",
                    g.label
                );
            }
        }
    }

    #[test]
    fn zero_penalty_moves_everything_with_slack() {
        let nl = carry_skip_adder(32, 4);
        let p = partition_hetero(&nl, 0.0);
        assert!(p.top_fraction() > 0.8);
        assert!((p.delay_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chain_netlist_cannot_move_anything() {
        // A pure chain has zero slack everywhere: nothing can go on top.
        let mut nl = Netlist::new();
        let mut prev = nl.input("in");
        for i in 0..8 {
            prev = nl.gate(GateKind::Nand2, vec![prev], format!("g{i}"));
        }
        let p = partition_hetero(&nl, 0.17);
        assert_eq!(p.top_fraction(), 0.0);
        assert!((p.delay_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repair_loop_terminates_on_dense_netlists() {
        // Two interleaved chains sharing a final mux: moving either chain
        // stretches the path; the repair loop must converge.
        let mut nl = Netlist::new();
        let a = nl.input("a");
        let mut x = a;
        let mut y = a;
        for i in 0..6 {
            x = nl.gate(GateKind::Nand2, vec![x, y], format!("x{i}"));
            y = nl.gate(GateKind::Nand2, vec![y, x], format!("y{i}"));
        }
        nl.gate(GateKind::Mux2, vec![x, y], "out");
        let p = partition_hetero(&nl, 0.3);
        assert!(p.delay_ratio() <= 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "penalty must be non-negative")]
    fn rejects_negative_penalty() {
        let nl = carry_skip_adder(32, 4);
        let _ = partition_hetero(&nl, -0.1);
    }
}
