//! Reference layout cells used for the paper's area comparisons.
//!
//! The paper (Figure 2, Table 1) compares via areas against:
//!
//! * an FO1 inverter (1×),
//! * an SRAM bitcell (2× the inverter),
//! * a 32-bit adder (77.7 µm² at 15 nm, from Intel data),
//! * a 32-bit SRAM word (2.3 µm² at 15 nm, from Intel data).
//!
//! Areas are expressed in units of F² so that they scale with the node.

use crate::node::TechnologyNode;
use crate::via::Via;

/// Area of an FO1 inverter in square feature sizes.
///
/// Calibrated so that the MIV/inverter area ratio at 15 nm is 0.07×, matching
/// the paper's Figure 2: (50 nm)² / (160 F² at 15 nm) ≈ 0.069.
pub const INV_FO1_AREA_F2: f64 = 160.0;

/// Area of a single-ported 6T SRAM bitcell in square feature sizes (2× the
/// FO1 inverter, per Figure 2).
pub const SRAM_BITCELL_AREA_F2: f64 = 320.0;

/// Area of a 32-bit adder in square feature sizes.
///
/// 77.7 µm² at 15 nm (Intel) = 77.7 / (0.015 µm)² ≈ 345,333 F².
pub const ADDER_32B_AREA_F2: f64 = 77.7 / (0.015 * 0.015);

/// Area of a 32-bit SRAM word (32 bitcells plus local overhead) in square
/// feature sizes: 2.3 µm² at 15 nm ≈ 10,222 F².
pub const SRAM_32B_WORD_AREA_F2: f64 = 2.3 / (0.015 * 0.015);

/// A reference structure against which via overhead is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefCell {
    /// Fan-out-of-1 inverter.
    InverterFo1,
    /// Single 6T SRAM bitcell.
    SramBitcell,
    /// 32-bit adder (Table 1, row 1).
    Adder32,
    /// 32-bit SRAM word (Table 1, row 2).
    SramWord32,
}

impl RefCell {
    /// Area of the reference cell in square feature sizes.
    pub fn area_f2(self) -> f64 {
        match self {
            RefCell::InverterFo1 => INV_FO1_AREA_F2,
            RefCell::SramBitcell => SRAM_BITCELL_AREA_F2,
            RefCell::Adder32 => ADDER_32B_AREA_F2,
            RefCell::SramWord32 => SRAM_32B_WORD_AREA_F2,
        }
    }

    /// Area of the reference cell at a given node, square micrometres.
    pub fn area_um2(self, node: &TechnologyNode) -> f64 {
        node.f2_to_um2(self.area_f2())
    }

    /// Human-readable label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            RefCell::InverterFo1 => "INV FO1",
            RefCell::SramBitcell => "SRAM Bitcell",
            RefCell::Adder32 => "32bit Adder",
            RefCell::SramWord32 => "32bit SRAM Cell",
        }
    }
}

impl std::fmt::Display for RefCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Percentage area overhead of one via (including any keep-out zone) relative
/// to a reference cell at the given node. This is the quantity tabulated in
/// the paper's Table 1.
///
/// # Example
///
/// ```
/// use m3d_tech::node::TechnologyNode;
/// use m3d_tech::refcells::{via_overhead_pct, RefCell};
/// use m3d_tech::via::Via;
///
/// let node = TechnologyNode::n15();
/// let miv = Via::miv(&node);
/// let pct = via_overhead_pct(&miv, RefCell::Adder32, &node);
/// assert!(pct < 0.01); // "<0.01%" in Table 1
/// ```
pub fn via_overhead_pct(via: &Via, cell: RefCell, node: &TechnologyNode) -> f64 {
    100.0 * via.occupied_area_um2() / cell.area_um2(node)
}

/// Area of a structure relative to the FO1 inverter at the same node
/// (the paper's Figure 2 normalisation).
pub fn relative_to_inverter(area_um2: f64, node: &TechnologyNode) -> f64 {
    area_um2 / RefCell::InverterFo1.area_um2(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::via::Via;

    fn n15() -> TechnologyNode {
        TechnologyNode::n15()
    }

    #[test]
    fn figure2_relative_areas() {
        let node = n15();
        let miv = Via::miv(&node);
        let tsv = Via::tsv_aggressive();
        let inv = RefCell::InverterFo1.area_um2(&node);

        let miv_rel = miv.occupied_area_um2() / inv;
        let cell_rel = RefCell::SramBitcell.area_um2(&node) / inv;
        let tsv_rel = tsv.occupied_area_um2() / inv;

        // Paper: MIV 0.07x, bitcell 2x, TSV 37x (bare TSV without KOZ is
        // ~47x smaller; the figure uses the drawn 1.3um square ≈ 37x... we
        // check the occupied-area ratio is in the tens).
        assert!((miv_rel - 0.07).abs() < 0.02, "miv_rel = {miv_rel}");
        assert!((cell_rel - 2.0).abs() < 0.01, "cell_rel = {cell_rel}");
        assert!(tsv_rel > 30.0 && tsv_rel < 200.0, "tsv_rel = {tsv_rel}");
    }

    #[test]
    fn table1_adder_overheads() {
        let node = n15();
        let miv = via_overhead_pct(&Via::miv(&node), RefCell::Adder32, &node);
        let tsv13 = via_overhead_pct(&Via::tsv_aggressive(), RefCell::Adder32, &node);
        let tsv5 = via_overhead_pct(&Via::tsv_recent(), RefCell::Adder32, &node);
        assert!(miv < 0.01, "MIV vs adder must be <0.01%, got {miv}");
        assert!(
            (tsv13 - 8.0).abs() < 0.5,
            "TSV1.3 vs adder ≈ 8%, got {tsv13}"
        );
        assert!(tsv5 > 100.0, "TSV5 vs adder > 100%, got {tsv5}");
    }

    #[test]
    fn table1_sram_word_overheads() {
        let node = n15();
        let miv = via_overhead_pct(&Via::miv(&node), RefCell::SramWord32, &node);
        let tsv13 = via_overhead_pct(&Via::tsv_aggressive(), RefCell::SramWord32, &node);
        assert!((miv - 0.1).abs() < 0.05, "MIV vs word ≈ 0.1%, got {miv}");
        assert!(
            (tsv13 - 271.7).abs() < 15.0,
            "TSV1.3 vs word ≈ 272%, got {tsv13}"
        );
    }

    #[test]
    fn areas_scale_with_node() {
        let a15 = RefCell::Adder32.area_um2(&TechnologyNode::n15());
        let a22 = RefCell::Adder32.area_um2(&TechnologyNode::n22());
        assert!((a15 - 77.7).abs() < 0.1);
        assert!(a22 > a15);
    }
}
