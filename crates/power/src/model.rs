//! The core power/energy model: activity counters × per-event energies,
//! plus clock tree and leakage.

use crate::energies::{
    StructureEnergies, ALU_OP_J, DRAM_ACCESS_J, FPU_OP_J, MUL_OP_J, NOC_HOP_J, PIPELINE_LOGIC_J,
};
use m3d_sram::structures::StructureId;
use m3d_tech::node::TechnologyNode;
use m3d_uarch::stats::PerfResult;

/// Clock-tree dynamic power of one 2D core at the nominal 0.8 V / 3.3 GHz
/// point, watts. The tree's switching power scales with `f · V²` and, in
/// 3D, by the paper's constant 0.75 factor.
pub const CLOCK_TREE_W_NOMINAL: f64 = 1.7;
/// Leakage power of one 2D core at 0.8 V, watts.
pub const LEAKAGE_W_NOMINAL: f64 = 0.9;
/// Nominal supply for the reference energies, volts.
pub const VDD_NOMINAL: f64 = 0.8;
/// Nominal frequency for the clock-power reference, GHz.
pub const FREQ_NOMINAL_GHZ: f64 = 3.3;

/// Design-dependent scaling knobs for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Clock frequency, GHz.
    pub freq_ghz: f64,
    /// Supply voltage, volts.
    pub vdd: f64,
    /// Per-structure energy reductions in percent (Tables 6/8); empty for 2D.
    pub array_reductions: Vec<(StructureId, f64)>,
    /// Scale on functional-unit switching energy (0.9 in 3D, per the
    /// laid-out ALU circuit measurement).
    pub logic_scale: f64,
    /// Scale on the distributed pipeline-overhead energy (control, bypass
    /// and rename wiring). This component is wire-dominated, so folding the
    /// footprint cuts it hard: 0.65 in 3D.
    pub pipeline_scale: f64,
    /// Scale on clock-tree switching power (0.75 in 3D).
    pub clock_scale: f64,
    /// Scale on leakage power (1.0: the paper keeps leakage unchanged).
    pub leakage_scale: f64,
    /// Number of cores the result's counters cover.
    pub n_cores: usize,
}

impl PowerConfig {
    /// The 2D baseline at a given frequency.
    pub fn planar_2d(freq_ghz: f64) -> Self {
        Self {
            freq_ghz,
            vdd: VDD_NOMINAL,
            array_reductions: Vec::new(),
            logic_scale: 1.0,
            pipeline_scale: 1.0,
            clock_scale: 1.0,
            leakage_scale: 1.0,
            n_cores: 1,
        }
    }

    /// A 3D configuration: per-structure array reductions plus the paper's
    /// logic (×0.9) and clock (×0.75) factors.
    pub fn three_d(freq_ghz: f64, array_reductions: Vec<(StructureId, f64)>) -> Self {
        Self {
            freq_ghz,
            vdd: VDD_NOMINAL,
            array_reductions,
            logic_scale: 0.9,
            pipeline_scale: 0.65,
            clock_scale: 0.75,
            leakage_scale: 1.0,
            n_cores: 1,
        }
    }

    /// Override the supply voltage (M3D-Het-2X uses 0.75 V).
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        assert!(vdd > 0.0, "voltage must be positive");
        self.vdd = vdd;
        self
    }

    /// Set the core count covered by the activity counters.
    pub fn with_cores(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one core");
        self.n_cores = n;
        self
    }

    fn v2_scale(&self) -> f64 {
        (self.vdd / VDD_NOMINAL).powi(2)
    }
}

/// Energy accounting for one simulated interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Array (SRAM/CAM structure) dynamic energy, joules.
    pub arrays_j: f64,
    /// Functional-unit and pipeline logic dynamic energy, joules.
    pub logic_j: f64,
    /// Clock-tree energy, joules.
    pub clock_j: f64,
    /// Leakage energy, joules.
    pub leakage_j: f64,
    /// NoC energy, joules.
    pub uncore_j: f64,
    /// Off-chip DRAM device energy, joules — reported separately and *not*
    /// part of [`EnergyBreakdown::total_j`], which covers the processor (the
    /// quantity the paper's Figure 7/10 normalise).
    pub dram_j: f64,
    /// Interval wall-clock time, seconds.
    pub time_s: f64,
}

impl EnergyBreakdown {
    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.arrays_j + self.logic_j + self.clock_j + self.leakage_j + self.uncore_j
    }

    /// Average power over the interval, watts.
    pub fn average_power_w(&self) -> f64 {
        self.total_j() / self.time_s
    }
}

/// The power model: reference per-event energies at the nominal point.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePowerModel {
    energies: StructureEnergies,
}

impl CorePowerModel {
    /// Build the model with 22 nm reference energies.
    pub fn new_22nm() -> Self {
        Self {
            energies: StructureEnergies::planar_2d(&TechnologyNode::n22()),
        }
    }

    /// Account the energy of a simulated interval under a configuration.
    pub fn energy(&self, r: &PerfResult, cfg: &PowerConfig) -> EnergyBreakdown {
        let _span = m3d_obs::span("power", "energy_accounting");
        m3d_obs::add("power.accountings", 1);
        let e = self.energies.clone().with_reductions(&cfg.array_reductions);
        let a = &r.activity;
        let v2 = cfg.v2_scale();
        let time = r.time_s();

        let [il1, dl1, l2, l3] = r.cache_levels;
        let mut arrays = 0.0;
        arrays += (a.rf_reads + a.rf_writes) as f64 * e.of(StructureId::Rf);
        arrays += (a.dispatched + a.iq_wakeups) as f64 * e.of(StructureId::Iq);
        arrays += (a.stores + a.sq_searches) as f64 * e.of(StructureId::Sq);
        arrays += (a.loads + a.lq_searches) as f64 * e.of(StructureId::Lq);
        arrays += (a.rat_reads + a.rat_writes) as f64 * e.of(StructureId::Rat);
        arrays += a.bpred_accesses as f64 * e.of(StructureId::Bpt);
        arrays += a.btb_accesses as f64 * e.of(StructureId::Btb);
        arrays += a.loads as f64 * e.of(StructureId::Dtlb);
        arrays += a.fetched as f64 / 4.0 * e.of(StructureId::Itlb);
        // One IL1 array access covers a fetch group.
        arrays += il1.0 as f64 / 2.0 * e.of(StructureId::Il1);
        arrays += dl1.0 as f64 * e.of(StructureId::Dl1);
        arrays += l2.0 as f64 * e.of(StructureId::L2);
        arrays += l3.0 as f64 * e.of(StructureId::L2); // L3 slice ≈ L2-class array
        arrays *= v2;

        let mut logic = a.dispatched as f64 * PIPELINE_LOGIC_J * cfg.pipeline_scale;
        logic += (a.alu_ops as f64 * ALU_OP_J
            + a.mul_ops as f64 * MUL_OP_J
            + a.fp_ops as f64 * FPU_OP_J)
            * cfg.logic_scale;
        logic *= v2;

        let clock_w = CLOCK_TREE_W_NOMINAL
            * cfg.n_cores as f64
            * cfg.clock_scale
            * (cfg.freq_ghz / FREQ_NOMINAL_GHZ)
            * v2;
        let clock = clock_w * time;

        let leak_w = LEAKAGE_W_NOMINAL
            * cfg.n_cores as f64
            * cfg.leakage_scale
            * (cfg.vdd / VDD_NOMINAL);
        let leakage = leak_w * time;

        let uncore = r.mem.noc_hops as f64 * NOC_HOP_J * v2;
        let dram = r.mem.dram_accesses as f64 * DRAM_ACCESS_J;

        EnergyBreakdown {
            arrays_j: arrays,
            logic_j: logic,
            clock_j: clock,
            leakage_j: leakage,
            uncore_j: uncore,
            dram_j: dram,
            time_s: time,
        }
    }

    /// Split a core's power across the Ryzen-like floorplan blocks for the
    /// thermal model (Figure 8). Returns `(block name, watts)` pairs.
    pub fn block_powers(&self, r: &PerfResult, cfg: &PowerConfig) -> Vec<(&'static str, f64)> {
        let b = self.energy(r, cfg);
        let t = b.time_s;
        let e = self.energies.clone().with_reductions(&cfg.array_reductions);
        let a = &r.activity;
        let v2 = cfg.v2_scale();
        let [il1, dl1, l2, _l3] = r.cache_levels;

        // Structure dynamic power, mapped onto blocks.
        let rf = (a.rf_reads + a.rf_writes) as f64 * e.of(StructureId::Rf) * v2 / t;
        let iq = (a.dispatched + a.iq_wakeups) as f64 * e.of(StructureId::Iq) * v2 / t;
        let lsu = ((a.stores + a.sq_searches) as f64 * e.of(StructureId::Sq)
            + (a.loads + a.lq_searches) as f64 * e.of(StructureId::Lq)
            + a.loads as f64 * e.of(StructureId::Dtlb)
            + dl1.0 as f64 * e.of(StructureId::Dl1))
            * v2
            / t;
        let fetch = (a.bpred_accesses as f64 * e.of(StructureId::Bpt)
            + a.btb_accesses as f64 * e.of(StructureId::Btb)
            + a.fetched as f64 / 4.0 * e.of(StructureId::Itlb))
            * v2
            / t;
        let il1_p = il1.0 as f64 / 2.0 * e.of(StructureId::Il1) * v2 / t;
        let rename = (a.rat_reads + a.rat_writes) as f64 * e.of(StructureId::Rat) * v2 / t;
        let l2_p = l2.0 as f64 * e.of(StructureId::L2) * v2 / t;
        let alu = (a.alu_ops as f64 * ALU_OP_J + a.mul_ops as f64 * MUL_OP_J)
            * cfg.logic_scale
            * v2
            / t;
        let fpu = a.fp_ops as f64 * FPU_OP_J * cfg.logic_scale * v2 / t;

        // The pipeline-overhead logic, clock tree and leakage spread over the
        // blocks by area share (matching the Ryzen-like floorplan).
        let spread = (b.logic_j / t - alu - fpu).max(0.0) + b.clock_j / t + b.leakage_j / t;
        let shares: [(&'static str, f64); 9] = [
            ("Fetch+BPU", 0.14),
            ("IL1", 0.08),
            ("Decode+Rename", 0.12),
            ("IQ", 0.07),
            ("RF", 0.05),
            ("ALU", 0.12),
            ("FPU", 0.18),
            ("LSU+DL1", 0.16),
            ("L2ctl", 0.08),
        ];
        shares
            .iter()
            .map(|&(name, share)| {
                let structural = match name {
                    "Fetch+BPU" => fetch,
                    "IL1" => il1_p,
                    "Decode+Rename" => rename,
                    "IQ" => iq,
                    "RF" => rf,
                    "ALU" => alu,
                    "FPU" => fpu,
                    "LSU+DL1" => lsu,
                    "L2ctl" => l2_p,
                    _ => 0.0,
                };
                (name, structural + spread * share)
            })
            .collect()
    }
}

impl Default for CorePowerModel {
    fn default() -> Self {
        Self::new_22nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_uarch::config::CoreConfig;
    use m3d_uarch::Multicore;
    use m3d_workloads::spec::spec_by_name;

    fn run_base(name: &str) -> PerfResult {
        let p = spec_by_name(name).expect("profile");
        let mut core = Multicore::new(CoreConfig::base_2d(), &p, 21, 1);
        let _ = core.run(30_000);
        core.run(60_000)
    }

    #[test]
    fn base_core_power_is_several_watts() {
        // The paper measures 6.4 W average for the Base core (excluding
        // L2/L3); our calibration should land in the same range.
        let model = CorePowerModel::new_22nm();
        let r = run_base("Gamess");
        let b = model.energy(&r, &PowerConfig::planar_2d(3.3));
        let p = b.average_power_w();
        assert!(p > 3.0 && p < 11.0, "power {p} W");
    }

    #[test]
    fn three_d_reduces_energy() {
        let model = CorePowerModel::new_22nm();
        let r = run_base("Bzip2");
        let base = model.energy(&r, &PowerConfig::planar_2d(3.3));
        let reductions: Vec<_> = m3d_sram::structures::StructureId::ALL
            .iter()
            .map(|&id| (id, 35.0))
            .collect();
        let m3d = model.energy(&r, &PowerConfig::three_d(3.3, reductions));
        assert!(
            m3d.total_j() < 0.85 * base.total_j(),
            "3D {} vs 2D {}",
            m3d.total_j(),
            base.total_j()
        );
    }

    #[test]
    fn lower_voltage_cuts_dynamic_quadratically() {
        let model = CorePowerModel::new_22nm();
        let r = run_base("Lbm");
        let hi = model.energy(&r, &PowerConfig::planar_2d(3.3));
        let lo = model.energy(&r, &PowerConfig::planar_2d(3.3).with_vdd(0.75));
        let want = (0.75f64 / 0.8).powi(2);
        let got = lo.arrays_j / hi.arrays_j;
        assert!((got - want).abs() < 1e-9, "got {got} want {want}");
        assert!(lo.total_j() < hi.total_j());
    }

    #[test]
    fn faster_run_saves_clock_and_leakage_energy() {
        let model = CorePowerModel::new_22nm();
        let r = run_base("Hmmer");
        let mut faster = r;
        faster.cycles = (r.cycles as f64 / 1.2) as u64;
        let e_slow = model.energy(&r, &PowerConfig::planar_2d(3.3));
        let e_fast = model.energy(&faster, &PowerConfig::planar_2d(3.3));
        assert!(e_fast.leakage_j < e_slow.leakage_j);
        assert!(e_fast.clock_j < e_slow.clock_j);
        assert_eq!(e_fast.arrays_j, e_slow.arrays_j);
    }

    #[test]
    fn block_powers_sum_close_to_total() {
        let model = CorePowerModel::new_22nm();
        let r = run_base("Astar");
        let cfg = PowerConfig::planar_2d(3.3);
        let total = model.energy(&r, &cfg).average_power_w();
        let blocks = model.block_powers(&r, &cfg);
        let sum: f64 = blocks.iter().map(|(_, w)| w).sum();
        // Uncore (DRAM/NoC) is excluded from the block map.
        assert!(
            sum > 0.6 * total && sum <= total * 1.001,
            "blocks {sum} vs total {total}"
        );
    }

    #[test]
    fn hot_blocks_reflect_workload() {
        let model = CorePowerModel::new_22nm();
        let cfg = PowerConfig::planar_2d(3.3);
        let int_blocks = model.block_powers(&run_base("Sjeng"), &cfg);
        let fp_blocks = model.block_powers(&run_base("Namd"), &cfg);
        let get = |v: &Vec<(&str, f64)>, n: &str| {
            v.iter().find(|(b, _)| *b == n).map(|(_, w)| *w).unwrap()
        };
        // FP codes burn relatively more FPU power than integer codes.
        let fp_ratio = get(&fp_blocks, "FPU") / get(&fp_blocks, "ALU");
        let int_ratio = get(&int_blocks, "FPU") / get(&int_blocks, "ALU");
        assert!(fp_ratio > int_ratio, "fp {fp_ratio} vs int {int_ratio}");
    }
}
