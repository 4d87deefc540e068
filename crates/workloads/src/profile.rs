//! Workload characterisation knobs.

/// Instruction-mix fractions; the remainder after all listed classes is
/// single-cycle integer ALU work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstMix {
    /// Fraction of loads.
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of conditional branches.
    pub branch: f64,
    /// Fraction of integer multiplies.
    pub int_mul: f64,
    /// Fraction of FP adds.
    pub fp_add: f64,
    /// Fraction of FP multiplies.
    pub fp_mul: f64,
    /// Fraction of FP divides.
    pub fp_div: f64,
}

impl InstMix {
    /// A typical integer-code mix.
    pub fn integer() -> Self {
        Self {
            load: 0.24,
            store: 0.10,
            branch: 0.18,
            int_mul: 0.01,
            fp_add: 0.0,
            fp_mul: 0.0,
            fp_div: 0.0,
        }
    }

    /// A typical FP/scientific mix.
    pub fn floating() -> Self {
        Self {
            load: 0.28,
            store: 0.10,
            branch: 0.08,
            int_mul: 0.01,
            fp_add: 0.18,
            fp_mul: 0.14,
            fp_div: 0.01,
        }
    }

    /// Sum of all explicit fractions (must be ≤ 1).
    pub fn total(&self) -> f64 {
        self.load
            + self.store
            + self.branch
            + self.int_mul
            + self.fp_add
            + self.fp_mul
            + self.fp_div
    }
}

/// Branch-behaviour knobs. Static branches are split among three
/// populations; the tournament predictor's accuracy then *emerges* in the
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchProfile {
    /// Number of static branch sites (stresses BTB/BPT capacity).
    pub static_branches: usize,
    /// Fraction of sites that are strongly biased (95% one way).
    pub biased: f64,
    /// Fraction that are loop exits (taken `loop_period`−1 times, then not).
    pub loops: f64,
    /// Loop period for loop branches.
    pub loop_period: u32,
    // Remaining fraction is data-dependent (50/50 random).
}

/// Memory-behaviour knobs. Accesses split among three regions whose sizes
/// determine which cache level captures them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryProfile {
    /// Hot region size, bytes (fits in L1 when small).
    pub hot_bytes: u64,
    /// Warm region size, bytes (typically L2/L3 resident).
    pub warm_bytes: u64,
    /// Cold region size, bytes (streams/misses to DRAM when large).
    pub cold_bytes: u64,
    /// Fraction of accesses to the hot region.
    pub hot_frac: f64,
    /// Fraction of accesses to the warm region.
    pub warm_frac: f64,
    /// Fraction of cold-region accesses that stride sequentially (the rest
    /// are random within the region).
    pub cold_stride_frac: f64,
}

/// A complete application characterisation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name as it appears in the paper's figures.
    pub name: String,
    /// Instruction mix.
    pub mix: InstMix,
    /// Mean register dependency distance (larger = more ILP).
    pub mean_dep_distance: f64,
    /// Branch behaviour.
    pub branches: BranchProfile,
    /// Memory behaviour.
    pub memory: MemoryProfile,
    /// Static code footprint in bytes (stresses IL1/ITLB).
    pub code_bytes: u64,
    /// Fraction of instructions needing the complex decoder.
    pub complex_decode_rate: f64,
    /// Parallel-trace knobs: fraction of memory accesses to shared data.
    pub shared_frac: f64,
    /// Instructions between barriers (0 = no barriers).
    pub barrier_interval: u64,
    /// Per-core load imbalance at barriers (0 = perfectly balanced,
    /// 0.2 = ±20% work per phase).
    pub imbalance: f64,
}

impl WorkloadProfile {
    /// Validate invariant ranges.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is out of range.
    pub fn validate(&self) {
        assert!(self.mix.total() <= 1.0, "{}: mix exceeds 1.0", self.name);
        assert!(
            self.branches.biased + self.branches.loops <= 1.0,
            "{}: branch fractions exceed 1.0",
            self.name
        );
        assert!(
            self.memory.hot_frac + self.memory.warm_frac <= 1.0,
            "{}: memory fractions exceed 1.0",
            self.name
        );
        assert!(
            self.mean_dep_distance >= 1.0,
            "{}: dependency distance must be >= 1",
            self.name
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_frac),
            "{}: shared_frac out of range",
            self.name
        );
    }

    /// Whether this profile models a parallel application.
    pub fn is_parallel(&self) -> bool {
        self.barrier_interval > 0 || self.shared_frac > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadProfile {
        WorkloadProfile {
            name: "test".into(),
            mix: InstMix::integer(),
            mean_dep_distance: 4.0,
            branches: BranchProfile {
                static_branches: 256,
                biased: 0.6,
                loops: 0.3,
                loop_period: 16,
            },
            memory: MemoryProfile {
                hot_bytes: 16 << 10,
                warm_bytes: 256 << 10,
                cold_bytes: 64 << 20,
                hot_frac: 0.7,
                warm_frac: 0.2,
                cold_stride_frac: 0.5,
            },
            code_bytes: 64 << 10,
            complex_decode_rate: 0.02,
            shared_frac: 0.0,
            barrier_interval: 0,
            imbalance: 0.0,
        }
    }

    #[test]
    fn valid_profile_passes() {
        base().validate();
        assert!(!base().is_parallel());
    }

    #[test]
    fn mixes_sum_below_one() {
        assert!(InstMix::integer().total() < 1.0);
        assert!(InstMix::floating().total() < 1.0);
    }

    #[test]
    fn parallel_detection() {
        let mut p = base();
        p.barrier_interval = 10_000;
        assert!(p.is_parallel());
    }

    #[test]
    #[should_panic(expected = "mix exceeds")]
    fn rejects_overfull_mix() {
        let mut p = base();
        p.mix.load = 0.9;
        p.validate();
    }
}
