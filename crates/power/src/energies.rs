//! Per-event energies: array accesses (from the CACTI-like model) and logic
//! operations.

use m3d_sram::model2d::analyze_2d;
use m3d_sram::structures::StructureId;
use m3d_tech::node::TechnologyNode;
use m3d_tech::process::ProcessCorner;

/// Multiplier applied to the raw array energies to account for the
/// structure's control logic, muxing, and routing that the array model does
/// not capture (McPAT's structures carry similar overheads). Small latches
/// and register-class arrays are dominated by that overhead; large cache
/// arrays are not, so the factor shrinks with capacity.
fn array_overhead(capacity_bits: usize) -> f64 {
    if capacity_bits > 1 << 20 {
        2.5
    } else if capacity_bits > 100 << 10 {
        6.0
    } else {
        20.0
    }
}

/// Per-op energy of the pipeline's distributed logic (rename/control/bypass
/// wires and muxes), joules at 0.8 V / 22 nm. Calibrated so a Base core at
/// 3.3 GHz averages ≈6.4 W (the paper's measured per-core average).
pub const PIPELINE_LOGIC_J: f64 = 0.25e-9;

/// Per-operation energies of the functional units, joules at 0.8 V / 22 nm.
pub const ALU_OP_J: f64 = 8.0e-12;
/// Integer multiply/divide energy.
pub const MUL_OP_J: f64 = 25.0e-12;
/// Floating-point operation energy (double-precision FMA class).
pub const FPU_OP_J: f64 = 100.0e-12;
/// DRAM access energy (row + I/O), joules.
pub const DRAM_ACCESS_J: f64 = 15.0e-9;
/// NoC energy per flit-hop, joules.
pub const NOC_HOP_J: f64 = 60.0e-12;

/// Per-access energies for each core storage structure.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureEnergies {
    values: Vec<(StructureId, f64)>,
}

impl StructureEnergies {
    /// Baseline 2D energies computed from the CACTI-like model at `node`.
    pub fn planar_2d(node: &TechnologyNode) -> Self {
        let values = StructureId::ALL
            .iter()
            .map(|&id| {
                let spec = id.spec();
                let a = analyze_2d(&spec, node, ProcessCorner::bulk_hp());
                (
                    id,
                    a.metrics.energy_j * array_overhead(spec.capacity_bits()),
                )
            })
            .collect();
        Self { values }
    }

    /// Energy per access of a structure, joules.
    ///
    /// # Panics
    ///
    /// Panics if the structure is unknown (cannot happen for
    /// [`StructureId::ALL`] members).
    pub fn of(&self, id: StructureId) -> f64 {
        self.values
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, e)| *e)
            .unwrap_or_else(|| panic!("unknown structure {id}"))
    }

    /// Scale each structure's energy by `1 - reduction`, where `reductions`
    /// holds per-structure *percentage* energy reductions (the paper's Table
    /// 6/8 numbers). Structures not listed keep their baseline energy.
    pub fn with_reductions(mut self, reductions: &[(StructureId, f64)]) -> Self {
        for (id, pct) in reductions {
            if let Some(v) = self.values.iter_mut().find(|(i, _)| i == id) {
                v.1 *= 1.0 - pct / 100.0;
            }
        }
        self
    }

    /// Iterate `(structure, energy_j)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StructureId, f64)> + '_ {
        self.values.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> StructureEnergies {
        StructureEnergies::planar_2d(&TechnologyNode::n22())
    }

    #[test]
    fn covers_all_structures() {
        let e = base();
        for id in StructureId::ALL {
            assert!(e.of(id) > 0.0, "{id} energy must be positive");
        }
    }

    #[test]
    fn big_arrays_cost_more() {
        let e = base();
        assert!(e.of(StructureId::L2) > e.of(StructureId::Dl1));
        assert!(e.of(StructureId::Dl1) > e.of(StructureId::Rat));
    }

    #[test]
    fn reductions_apply_only_to_listed() {
        let e = base();
        let rf0 = e.of(StructureId::Rf);
        let l20 = e.of(StructureId::L2);
        let e2 = e.with_reductions(&[(StructureId::Rf, 38.0)]);
        assert!((e2.of(StructureId::Rf) - rf0 * 0.62).abs() < 1e-18);
        assert_eq!(e2.of(StructureId::L2), l20);
    }

    #[test]
    fn energies_are_picojoule_scale() {
        let e = base();
        for (id, j) in e.iter() {
            assert!(j > 0.01e-12 && j < 1e-9, "{id}: {j} J out of range");
        }
    }
}
