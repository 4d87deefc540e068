//! The paper's Figure 5 circuit: a 64-bit carry-skip adder.
//!
//! The adder is built from 4-bit blocks. Each block ripples a carry through
//! AOI gates, computes a block-propagate (wide AND of the bit propagates),
//! and a skip mux forwards the incoming carry past the block when it fully
//! propagates. Sum bits are computed speculatively for both carry-in values
//! (conditional-sum) and selected by the actual block carry.
//!
//! The critical path is: bit-propagate of block 0 → the 4-gate ripple of
//! block 0 → the chain of skip muxes → the sum select of the last block —
//! exactly the shaded path of the paper's Figure 5. Everything else
//! (propagate/ripple logic of blocks 1..15, both conditional sum chains)
//! has slack that grows with the distance from the LSB.

use crate::netlist::{GateId, GateKind, Netlist};

/// Build an `n`-bit carry-skip adder with `block` bits per skip block.
///
/// # Panics
///
/// Panics unless `block` divides `n` and both are positive.
pub fn carry_skip_adder(n: usize, block: usize) -> Netlist {
    assert!(n > 0 && block > 0, "dimensions must be positive");
    assert!(n.is_multiple_of(block), "block size must divide width");
    let mut nl = Netlist::new();
    let a: Vec<GateId> = (0..n).map(|i| nl.input(format!("a[{i}]"))).collect();
    let b: Vec<GateId> = (0..n).map(|i| nl.input(format!("b[{i}]"))).collect();
    let cin = nl.input("cin");

    // Per-bit propagate and generate.
    let p: Vec<GateId> = (0..n)
        .map(|i| nl.gate(GateKind::Xor2, vec![a[i], b[i]], format!("p[{i}]")))
        .collect();
    let g: Vec<GateId> = (0..n)
        .map(|i| nl.gate(GateKind::Nand2, vec![a[i], b[i]], format!("g[{i}]")))
        .collect();

    let blocks = n / block;
    let mut carry_in = cin;
    for k in 0..blocks {
        let lo = k * block;
        // Ripple chain within the block: c_{i+1} = g_i + p_i * c_i. When the
        // block does not fully propagate, its carry-out is *locally
        // determined* (killed or generated), so the ripple chain starts from
        // the block's own generate — this is the false-path elimination that
        // makes carry-skip fast: inter-block carries flow only through the
        // skip muxes. Block 0 ripples from the true carry-in.
        let mut c = if k == 0 { carry_in } else { g[lo] };
        for j in 0..block {
            let i = lo + j;
            c = nl.gate(GateKind::Aoi, vec![g[i], p[i], c], format!("c[{i}]"));
        }
        // Block propagate: AND of the bit propagates.
        let bp = nl.gate(
            GateKind::And4,
            p[lo..lo + block].to_vec(),
            format!("P[{k}]"),
        );
        // Skip mux: forward carry_in past the block when it propagates.
        let skip = nl.gate(GateKind::Mux2, vec![bp, c, carry_in], format!("skip[{k}]"));

        // Conditional sums for carry-in = 0 and 1 (computed off the critical
        // path), then selected by the actual block carry-in.
        let mut c0 = Vec::with_capacity(block);
        let mut c1 = Vec::with_capacity(block);
        let mut cc0: Option<GateId> = None;
        let mut cc1: Option<GateId> = None;
        for j in 0..block {
            let i = lo + j;
            let s0 = match cc0 {
                None => nl.gate(GateKind::Inv, vec![p[i]], format!("s0[{i}]")),
                Some(cc) => nl.gate(GateKind::Xor2, vec![p[i], cc], format!("s0[{i}]")),
            };
            let s1 = match cc1 {
                None => nl.gate(GateKind::Xor2, vec![p[i], g[i]], format!("s1[{i}]")),
                Some(cc) => nl.gate(GateKind::Xor2, vec![p[i], cc], format!("s1[{i}]")),
            };
            c0.push(s0);
            c1.push(s1);
            cc0 = Some(nl.gate(GateKind::Aoi, vec![g[i], p[i]], format!("cc0[{i}]")));
            cc1 = Some(nl.gate(GateKind::Aoi, vec![g[i], p[i]], format!("cc1[{i}]")));
        }
        for j in 0..block {
            let i = lo + j;
            nl.gate(
                GateKind::Mux2,
                vec![carry_in, c0[j], c1[j]],
                format!("sum[{i}]"),
            );
        }
        carry_in = skip;
    }
    // Carry out buffer.
    nl.gate(GateKind::Inv, vec![carry_in], "cout");
    nl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_64_bit_adder() {
        let nl = carry_skip_adder(64, 4);
        // 64 bits x (p, g, c, s0, s1, cc0, cc1, sum) + blocks x (P, skip) + cout.
        assert!(
            nl.logic_gate_count() > 400,
            "{} gates",
            nl.logic_gate_count()
        );
    }

    #[test]
    fn critical_path_is_ripple_plus_skips() {
        // Figure 5: carry propagate of block 0, 15 muxes, final sum select.
        let nl = carry_skip_adder(64, 4);
        let t = nl.timing();
        // p(1.4) + 4 ripple AOI (4.0) + 15 skip mux (16.5) + sum mux (1.1).
        let expect = 1.4 + 4.0 * 1.0 + 15.0 * 1.1 + 1.1;
        assert!(
            (t.critical_path - expect).abs() < 1.0,
            "critical {} vs expected {expect}",
            t.critical_path
        );
    }

    #[test]
    fn few_gates_are_strictly_critical() {
        // Paper: "only 1.5% of the gates in the 64-bit adder are in the
        // critical path". Our netlist measures a few percent.
        let nl = carry_skip_adder(64, 4);
        let f = nl.critical_fraction(1e-6);
        assert!(f < 0.06, "critical fraction {f}");
    }

    #[test]
    fn under_20pct_slack_threshold_still_minority() {
        // Paper: with a 20% slack requirement, 38% of gates are "critical";
        // we assert the same qualitative claim (well under half).
        let nl = carry_skip_adder(64, 4);
        let f = nl.critical_fraction(0.20);
        assert!(f < 0.5, "20%-slack critical fraction {f}");
    }

    #[test]
    fn propagate_slack_grows_with_distance_from_lsb() {
        // Section 4.1.1: the farther a propagate block is from the LSB, the
        // higher its slack.
        let nl = carry_skip_adder(64, 4);
        let t = nl.timing();
        let slack_of = |label: &str| {
            nl.iter()
                .find(|(_, g)| g.label == label)
                .map(|(id, _)| t.slack(id))
                .expect("label exists")
        };
        let s1 = slack_of("P[1]");
        let s8 = slack_of("P[8]");
        let s14 = slack_of("P[14]");
        assert!(s8 > s1, "P[8] {s8} vs P[1] {s1}");
        assert!(s14 > s8, "P[14] {s14} vs P[8] {s8}");
    }

    #[test]
    fn last_sum_select_is_critical() {
        let nl = carry_skip_adder(64, 4);
        let t = nl.timing();
        let (id, _) = nl
            .iter()
            .find(|(_, g)| g.label == "sum[63]")
            .expect("sum[63]");
        assert!(t.slack(id) < 1.0, "slack {}", t.slack(id));
    }

    #[test]
    fn smaller_adders_are_faster() {
        let a32 = carry_skip_adder(32, 4).timing().critical_path;
        let a64 = carry_skip_adder(64, 4).timing().critical_path;
        assert!(a32 < a64);
    }

    #[test]
    #[should_panic(expected = "block size must divide width")]
    fn rejects_nondividing_block() {
        let _ = carry_skip_adder(64, 5);
    }
}
