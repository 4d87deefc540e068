//! Simulator configuration (paper Table 9 plus the 3D design knobs).

use crate::error::SimError;

/// Cache geometry and round-trip latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Round-trip latency in cycles.
    pub rt_cycles: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Functional-unit complement and latencies (Table 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// Single-cycle integer ALUs.
    pub alus: usize,
    /// Integer multiply/divide units.
    pub int_mul_units: usize,
    /// Load/store units.
    pub lsus: usize,
    /// Floating-point units.
    pub fpus: usize,
    /// Integer multiply latency.
    pub int_mul_lat: u64,
    /// Integer divide latency.
    pub int_div_lat: u64,
    /// FP add latency.
    pub fp_add_lat: u64,
    /// FP multiply latency.
    pub fp_mul_lat: u64,
    /// FP divide latency (issues every `fp_div_lat` cycles).
    pub fp_div_lat: u64,
}

impl Default for FuConfig {
    fn default() -> Self {
        Self {
            alus: 4,
            int_mul_units: 2,
            lsus: 2,
            fpus: 2,
            int_mul_lat: 2,
            int_div_lat: 4,
            fp_add_lat: 2,
            fp_mul_lat: 4,
            fp_div_lat: 8,
        }
    }
}

/// Full core + memory configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency, GHz.
    pub freq_ghz: f64,
    /// Supply voltage, volts (energy model input).
    pub vdd: f64,
    /// Fetch/decode/dispatch width.
    pub dispatch_width: usize,
    /// Issue width.
    pub issue_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Issue queue entries.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Physical integer registers.
    pub int_regs: usize,
    /// Physical FP registers.
    pub fp_regs: usize,
    /// Functional units.
    pub fus: FuConfig,
    /// L1 instruction cache (32 KB, 4-way, 32 B lines, 3-cycle RT).
    pub il1: CacheConfig,
    /// L1 data cache (32 KB, 8-way, 32 B lines, 4-cycle RT).
    pub dl1: CacheConfig,
    /// Private L2 (256 KB, 8-way, 64 B lines, 10-cycle RT).
    pub l2: CacheConfig,
    /// Shared L3 slice per core (2 MB, 16-way, 64 B, 32-cycle RT).
    pub l3: CacheConfig,
    /// DRAM round-trip after L3, nanoseconds.
    pub dram_ns: f64,
    /// Branch misprediction restart penalty, cycles (14 in 2D; 3D designs
    /// save 2 — Section 6).
    pub mispredict_penalty: u64,
    /// Cycles shaved off the load-to-use path (0 in 2D, 1 in 3D designs).
    pub load_to_use_saving: u64,
    /// Pairs of cores share L2s and a NoC router stop (3D, Figure 4).
    pub shared_l2_pairs: bool,
    /// Ring-NoC per-hop latency in cycles.
    pub noc_hop_cycles: u64,
    /// Tournament predictor table entries (selector/local/global).
    pub bpred_entries: usize,
    /// BTB entries / ways.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Extra decode cycles for instructions that need the complex decoder.
    /// Zero in 2D; one in the hetero-layer M3D designs, which move the
    /// complex decoder and µcode ROM to the top layer (Section 4.1.2).
    pub complex_decode_extra: u64,
}

impl CoreConfig {
    /// The 2D baseline core: 3.3 GHz, Table 9 parameters.
    pub fn base_2d() -> Self {
        Self {
            freq_ghz: 3.3,
            vdd: 0.8,
            dispatch_width: 4,
            issue_width: 6,
            commit_width: 4,
            rob_entries: 192,
            iq_entries: 84,
            lq_entries: 72,
            sq_entries: 56,
            int_regs: 160,
            fp_regs: 160,
            fus: FuConfig::default(),
            il1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 4,
                line_bytes: 32,
                rt_cycles: 3,
            },
            dl1: CacheConfig {
                size_bytes: 32 << 10,
                ways: 8,
                line_bytes: 32,
                rt_cycles: 4,
            },
            l2: CacheConfig {
                size_bytes: 256 << 10,
                ways: 8,
                line_bytes: 64,
                rt_cycles: 10,
            },
            l3: CacheConfig {
                size_bytes: 2 << 20,
                ways: 16,
                line_bytes: 64,
                rt_cycles: 32,
            },
            dram_ns: 50.0,
            mispredict_penalty: 14,
            load_to_use_saving: 0,
            shared_l2_pairs: false,
            noc_hop_cycles: 4,
            bpred_entries: 4096,
            btb_entries: 4096,
            btb_ways: 4,
            ras_entries: 32,
            complex_decode_extra: 0,
        }
    }

    /// Apply the 3D path savings every 3D design gets (Section 6): one cycle
    /// off load-to-use, two cycles off the misprediction restart.
    pub fn with_3d_paths(mut self) -> Self {
        self.mispredict_penalty = self.mispredict_penalty.saturating_sub(2);
        self.load_to_use_saving = 1;
        self
    }

    /// Move the complex decoder and µcode ROM to the top layer: complex
    /// instructions pay one extra decode cycle (hetero-layer M3D, Section
    /// 4.1.2).
    pub fn with_complex_decoder_in_top(mut self) -> Self {
        self.complex_decode_extra = 1;
        self
    }

    /// Set the clock frequency.
    pub fn with_frequency(mut self, ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        self.freq_ghz = ghz;
        self
    }

    /// Set the supply voltage.
    pub fn with_vdd(mut self, vdd: f64) -> Self {
        assert!(vdd > 0.0, "voltage must be positive");
        self.vdd = vdd;
        self
    }

    /// Set the issue width (M3D-Het-W uses 8).
    pub fn with_issue_width(mut self, w: usize) -> Self {
        assert!(w > 0, "issue width must be positive");
        self.issue_width = w;
        self
    }

    /// Enable shared-L2 core pairing and the shorter ring (Figure 4).
    pub fn with_shared_l2(mut self) -> Self {
        self.shared_l2_pairs = true;
        self.noc_hop_cycles = self.noc_hop_cycles.div_ceil(2);
        self
    }

    /// Check every invariant the simulator's internal structures assert on,
    /// so a bad configuration surfaces as a typed [`SimError`] instead of a
    /// panic deep inside cache or predictor construction. Called by
    /// [`crate::Multicore::try_new`].
    pub fn validate(&self) -> Result<(), SimError> {
        fn positive_f64(v: f64, what: &'static str) -> Result<(), SimError> {
            if !v.is_finite() {
                return Err(SimError::NonFinite { what });
            }
            if v <= 0.0 {
                return Err(SimError::NonPositive { what });
            }
            Ok(())
        }
        fn positive(v: usize, what: &'static str) -> Result<(), SimError> {
            if v == 0 {
                return Err(SimError::NonPositive { what });
            }
            Ok(())
        }
        fn cache(c: &CacheConfig, name: &'static str) -> Result<(), SimError> {
            positive(c.ways, name)?;
            positive(c.line_bytes, name)?;
            let sets = c.size_bytes / (c.ways * c.line_bytes);
            if !sets.is_power_of_two() {
                return Err(SimError::CacheGeometry { cache: name, sets });
            }
            Ok(())
        }
        positive_f64(self.freq_ghz, "freq_ghz")?;
        positive_f64(self.vdd, "vdd")?;
        if !self.dram_ns.is_finite() || self.dram_ns < 0.0 {
            return Err(SimError::NonFinite { what: "dram_ns" });
        }
        positive(self.dispatch_width, "dispatch_width")?;
        positive(self.issue_width, "issue_width")?;
        positive(self.commit_width, "commit_width")?;
        positive(self.rob_entries, "rob_entries")?;
        positive(self.iq_entries, "iq_entries")?;
        positive(self.lq_entries, "lq_entries")?;
        positive(self.sq_entries, "sq_entries")?;
        positive(self.int_regs, "int_regs")?;
        positive(self.fp_regs, "fp_regs")?;
        positive(self.fus.alus, "fus.alus")?;
        positive(self.fus.lsus, "fus.lsus")?;
        cache(&self.il1, "il1")?;
        cache(&self.dl1, "dl1")?;
        cache(&self.l2, "l2")?;
        cache(&self.l3, "l3")?;
        if !self.bpred_entries.is_power_of_two() {
            return Err(SimError::PredictorGeometry {
                entries: self.bpred_entries,
            });
        }
        positive(self.btb_ways, "btb_ways")?;
        if !self.btb_entries.is_multiple_of(self.btb_ways)
            || !(self.btb_entries / self.btb_ways).is_power_of_two()
        {
            return Err(SimError::BtbGeometry {
                entries: self.btb_entries,
                ways: self.btb_ways,
            });
        }
        positive(self.ras_entries, "ras_entries")?;
        Ok(())
    }

    /// DRAM round-trip in core cycles at this configuration's frequency.
    pub fn dram_cycles(&self) -> u64 {
        (self.dram_ns * self.freq_ghz).round() as u64
    }

    /// Effective DL1 round trip after the 3D load-to-use saving.
    pub fn dl1_effective_rt(&self) -> u64 {
        self.dl1.rt_cycles.saturating_sub(self.load_to_use_saving)
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::base_2d()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table9() {
        let c = CoreConfig::base_2d();
        assert_eq!(c.issue_width, 6);
        assert_eq!(c.rob_entries, 192);
        assert_eq!(c.iq_entries, 84);
        assert_eq!((c.lq_entries, c.sq_entries), (72, 56));
        assert_eq!(c.il1.rt_cycles, 3);
        assert_eq!(c.dl1.rt_cycles, 4);
        assert_eq!(c.l2.rt_cycles, 10);
        assert_eq!(c.l3.rt_cycles, 32);
        assert_eq!(c.dl1.sets(), 32 << 10 >> 3 >> 5); // 128 sets
    }

    #[test]
    fn dram_cycles_scale_with_frequency() {
        let base = CoreConfig::base_2d();
        let fast = CoreConfig::base_2d().with_frequency(4.34);
        assert_eq!(base.dram_cycles(), 165);
        assert!(fast.dram_cycles() > base.dram_cycles());
    }

    #[test]
    fn paths_3d_shave_cycles() {
        let c = CoreConfig::base_2d().with_3d_paths();
        assert_eq!(c.mispredict_penalty, 12);
        assert_eq!(c.dl1_effective_rt(), 3);
    }

    #[test]
    fn shared_l2_halves_hops() {
        let c = CoreConfig::base_2d().with_shared_l2();
        assert!(c.shared_l2_pairs);
        assert_eq!(c.noc_hop_cycles, 2);
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn rejects_bad_frequency() {
        let _ = CoreConfig::base_2d().with_frequency(0.0);
    }

    #[test]
    fn validate_accepts_every_paper_knob() {
        for cfg in [
            CoreConfig::base_2d(),
            CoreConfig::base_2d().with_3d_paths(),
            CoreConfig::base_2d().with_shared_l2(),
            CoreConfig::base_2d().with_issue_width(8),
            CoreConfig::base_2d().with_complex_decoder_in_top(),
            CoreConfig::base_2d().with_frequency(4.34).with_vdd(0.9),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = CoreConfig::base_2d();
        c.dl1.size_bytes = 3000; // 3000 / (8*32) = 11 sets: not a power of two
        assert!(matches!(
            c.validate(),
            Err(SimError::CacheGeometry { cache: "dl1", .. })
        ));

        let mut c = CoreConfig::base_2d();
        c.bpred_entries = 1000;
        assert!(matches!(
            c.validate(),
            Err(SimError::PredictorGeometry { entries: 1000 })
        ));

        let mut c = CoreConfig::base_2d();
        c.btb_ways = 3;
        assert!(matches!(c.validate(), Err(SimError::BtbGeometry { .. })));

        let mut c = CoreConfig::base_2d();
        c.freq_ghz = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(SimError::NonFinite { what: "freq_ghz" })
        ));

        let mut c = CoreConfig::base_2d();
        c.rob_entries = 0;
        assert!(matches!(
            c.validate(),
            Err(SimError::NonPositive {
                what: "rob_entries"
            })
        ));
    }
}
