//! A Kogge–Stone parallel-prefix adder.
//!
//! A contrast case for the partitioner: where the carry-skip adder of
//! Figure 5 has one long serial spine and lots of slack everywhere else,
//! the Kogge–Stone tree is shallow (`log2(n)` prefix levels) and *wide* —
//! every column participates in the final levels, so a much larger fraction
//! of the gates sits near the critical path. This is the kind of
//! aggressively-balanced logic where the paper's "place non-critical paths
//! in the top layer" has the least room, making it a useful stress test for
//! [`crate::partition::partition_hetero`].

use crate::netlist::{GateId, GateKind, Netlist};

/// Build an `n`-bit Kogge–Stone adder.
///
/// # Panics
///
/// Panics unless `n` is a power of two ≥ 2.
pub fn kogge_stone_adder(n: usize) -> Netlist {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "width must be a power of two"
    );
    let mut nl = Netlist::new();
    let a: Vec<GateId> = (0..n).map(|i| nl.input(format!("a[{i}]"))).collect();
    let b: Vec<GateId> = (0..n).map(|i| nl.input(format!("b[{i}]"))).collect();

    // Level 0: per-bit propagate/generate.
    let mut p: Vec<GateId> = (0..n)
        .map(|i| nl.gate(GateKind::Xor2, vec![a[i], b[i]], format!("p0[{i}]")))
        .collect();
    let mut g: Vec<GateId> = (0..n)
        .map(|i| nl.gate(GateKind::Nand2, vec![a[i], b[i]], format!("g0[{i}]")))
        .collect();
    let sum_p = p.clone();

    // Prefix levels: (g, p)_i = (g_i + p_i·g_{i-d}, p_i·p_{i-d}).
    let mut level = 1;
    let mut d = 1;
    while d < n {
        let mut np = p.clone();
        let mut ng = g.clone();
        for i in d..n {
            ng[i] = nl.gate(
                GateKind::Aoi,
                vec![g[i], p[i], g[i - d]],
                format!("g{level}[{i}]"),
            );
            np[i] = nl.gate(
                GateKind::Nand2,
                vec![p[i], p[i - d]],
                format!("p{level}[{i}]"),
            );
        }
        p = np;
        g = ng;
        d *= 2;
        level += 1;
    }

    // Sums: s_i = p0_i XOR carry_{i-1}.
    for i in 0..n {
        if i == 0 {
            nl.gate(GateKind::Inv, vec![sum_p[0]], "sum[0]");
        } else {
            nl.gate(
                GateKind::Xor2,
                vec![sum_p[i], g[i - 1]],
                format!("sum[{i}]"),
            );
        }
    }
    nl.gate(GateKind::Inv, vec![g[n - 1]], "cout");
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::carry_skip_adder;
    use crate::partition::partition_hetero;

    #[test]
    fn depth_is_logarithmic() {
        // p/g (1.4) + log2(64) AOI levels (6.0) + sum XOR (1.4).
        let t64 = kogge_stone_adder(64).timing().critical_path;
        assert!((t64 - (1.4 + 6.0 + 1.4)).abs() < 0.5, "depth {t64}");
        let t16 = kogge_stone_adder(16).timing().critical_path;
        assert!(t64 - t16 > 1.5 && t64 - t16 < 3.0, "scaling {t16} -> {t64}");
    }

    #[test]
    fn kogge_stone_is_faster_but_bigger_than_carry_skip() {
        let ks = kogge_stone_adder(64);
        let cs = carry_skip_adder(64, 4);
        assert!(ks.timing().critical_path < 0.5 * cs.timing().critical_path);
        assert!(ks.logic_gate_count() > 400);
    }

    #[test]
    fn far_more_gates_are_near_critical_than_in_carry_skip() {
        // The balanced tree leaves much less slack: the 20%-slack critical
        // fraction is several times the carry-skip adder's.
        let ks = kogge_stone_adder(64).critical_fraction(0.20);
        let cs = carry_skip_adder(64, 4).critical_fraction(0.20);
        assert!(ks > 2.0 * cs, "ks {ks} vs cs {cs}");
    }

    #[test]
    fn partitioner_still_finds_headroom() {
        // Even the balanced tree has early-level redundancy; the partitioner
        // must move a meaningful share to the top layer without slowdown —
        // but less than the carry-skip adder's ≥50%.
        let nl = kogge_stone_adder(64);
        let p = partition_hetero(&nl, 0.17);
        assert!(p.delay_ratio() <= 1.0 + 1e-9);
        assert!(p.top_fraction() > 0.10, "top fraction {}", p.top_fraction());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_width() {
        let _ = kogge_stone_adder(48);
    }
}
