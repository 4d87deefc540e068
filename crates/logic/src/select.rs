//! Issue-select arbitration-tree partitioning (paper Section 4.4.1).
//!
//! Select logic is a multi-level arbitration tree with a *request* phase
//! (ready signals propagate root-ward) and a *grant* phase. Grant generation
//! splits into **local grant generation** (compare local priorities — *not*
//! critical, it overlaps the request propagation of other levels) and
//! **arbiter grant generation** (AND the local grant with the incoming
//! grant — critical). The paper places local grant generation in the top
//! layer and keeps the request phase and arbiter grant chain in the bottom
//! layer, preserving the iso-layer latency.

use crate::netlist::{GateKind, Netlist};
use crate::partition::{partition_hetero, Layer, LogicPartition};

/// Build the arbitration tree for `entries` requesters with `arity`-input
/// arbiters. Labels: `req*` (request phase), `local*` (local grant
/// generation), `arb*` (arbiter grant generation).
///
/// # Panics
///
/// Panics unless `entries` and `arity` are at least 2.
pub fn select_tree(entries: usize, arity: usize) -> Netlist {
    assert!(entries >= 2 && arity >= 2, "need a non-trivial tree");
    let mut nl = Netlist::new();
    let mut level: Vec<_> = (0..entries)
        .map(|i| nl.input(format!("ready[{i}]")))
        .collect();
    // Request phase: OR-reduce ready signals up the tree.
    let mut levels = vec![level.clone()];
    let mut l = 0;
    while level.len() > 1 {
        let mut next = Vec::new();
        for (j, chunk) in level.chunks(arity).enumerate() {
            next.push(nl.gate(GateKind::And4, chunk.to_vec(), format!("req[{l}][{j}]")));
        }
        level = next;
        levels.push(level.clone());
        l += 1;
    }
    // Grant phase: walk back down. At each node: local grant generation
    // (priority compare among children, off the critical chain) and arbiter
    // grant generation (AND with the incoming grant, critical).
    let root = *level.first().expect("tree has a root");
    let mut grant_in = nl.gate(GateKind::Inv, vec![root], "grant_root");
    for (li, lvl) in levels.iter().enumerate().rev().skip(1) {
        let mut next_grants = Vec::new();
        for (j, &node) in lvl.iter().enumerate() {
            let local = nl.gate(GateKind::And4, vec![node], format!("local[{li}][{j}]"));
            let arb = nl.gate(
                GateKind::Nand2,
                vec![local, grant_in],
                format!("arb[{li}][{j}]"),
            );
            next_grants.push(arb);
        }
        grant_in = next_grants[0];
    }
    nl
}

/// Partition the select tree per the paper and report the result. The
/// invariant checked by the tests: the hetero partition has the same latency
/// as iso-layer (delay ratio 1.0) because only local grant generation moves
/// to the top layer.
pub fn partition_select(entries: usize, arity: usize, penalty: f64) -> LogicPartition {
    partition_hetero(&select_tree(entries, arity), penalty)
}

/// Check that a partition follows the paper's placement: the arbiter grant
/// gates *on the grant chain* (the first arbiter of each level, which
/// forwards the grant downward) stay in the bottom layer. Leaf arbiters off
/// the chain have slack and may move to the top layer.
pub fn arbiter_gates_in_bottom(nl: &Netlist, p: &LogicPartition) -> bool {
    nl.iter()
        .filter(|(_, g)| g.label.starts_with("arb[") && g.label.ends_with("][0]"))
        .all(|(id, _)| p.assignment[id] == Layer::Bottom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_reduces_84_entries() {
        let nl = select_tree(84, 4);
        assert!(nl.logic_gate_count() > 50);
    }

    #[test]
    fn hetero_select_keeps_iso_latency() {
        // Section 4.4.1: "the select stage has the same latency as in the
        // partition for same-performance layers".
        let p = partition_select(84, 4, 0.17);
        assert!(
            (p.delay_ratio() - 1.0).abs() < 1e-9,
            "ratio {}",
            p.delay_ratio()
        );
    }

    #[test]
    fn local_grants_can_move_to_top() {
        let nl = select_tree(84, 4);
        let p = partition_hetero(&nl, 0.17);
        let moved_local = nl
            .iter()
            .filter(|(id, g)| g.label.starts_with("local[") && p.assignment[*id] == Layer::Top)
            .count();
        let total_local = nl
            .iter()
            .filter(|(_, g)| g.label.starts_with("local["))
            .count();
        assert!(
            moved_local * 2 >= total_local,
            "{moved_local}/{total_local} local grants moved"
        );
    }

    #[test]
    fn critical_arbiter_chain_stays_in_bottom() {
        let nl = select_tree(64, 4);
        let p = partition_hetero(&nl, 0.17);
        assert!(arbiter_gates_in_bottom(&nl, &p));
    }

    #[test]
    fn deeper_trees_are_slower() {
        let d16 = select_tree(16, 4).timing().critical_path;
        let d256 = select_tree(256, 4).timing().critical_path;
        assert!(d256 > d16);
    }

    #[test]
    #[should_panic(expected = "non-trivial tree")]
    fn rejects_trivial_tree() {
        let _ = select_tree(1, 4);
    }
}
